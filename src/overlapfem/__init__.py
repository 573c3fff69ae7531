"""FEM solvers on unions of overlapping simplicial meshes coupled by equality constraints."""

from .mesh import (
    DeconstructedDomain,
    MeshError,
    ParseError,
    SimplicialMesh,
    boundary_vertices,
    generate_annulus,
    generate_segment,
    load_mesh,
    save_mesh,
)
from .geometry import PointLocator, build_trees
from .fem import (
    QuadratureSpec,
    adjusted_volumes,
    assemble_global,
    lumped_mass_matrix,
    stiffness_matrix,
)
from .coupling import (
    ConstraintSet,
    all_vertex_constraints,
    boundary_only_constraints,
    constraint_matrix,
    constraints_to_csv,
    thin_constraints,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    build_scenario,
    load_config,
    locking_probe,
    parse_config,
    run_convergence,
    run_modes,
    run_penalty_sweep,
)
from .solver import (
    SolveReport,
    SolverError,
    constrained_modes,
    implicit_step,
    solve_bilaplace,
    solve_bilaplace_convex,
    solve_kkt,
    solve_poisson,
)

__version__ = "0.1.0"
