"""Per-subdomain FEM assembly: gradients, overlap-adjusted volumes, stiffness and mass."""

from dataclasses import dataclass
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .geometry import other_coverage_counts

__all__ = [
    "QuadratureSpec",
    "quadrature_rule",
    "adjusted_volumes",
    "stiffness_matrix",
    "lumped_mass_matrix",
    "assemble_global",
]

# Quadrature points are pulled this far toward the element centroid before
# coverage is sampled, so samples on an element facet see the element's
# interior side of any coverage discontinuity.
_INWARD_NUDGE = 1e-6

# Monte Carlo samples are drawn and counted about this many at a time.
_SAMPLE_BLOCK = 1 << 17


@dataclass(frozen=True)
class QuadratureSpec:
    """Scheme used to sample subdomain coverage when adjusting element volumes."""

    scheme: str = "corner_average"
    n_points: int = 10
    samples_per_element: int = 100
    seed: int = 0

    # The fields each scheme reads; a config file names them as keys.
    SCHEME_FIELDS = {"corner_average": (), "barycenter": (), "symmetric": ("n_points",),
                     "monte_carlo": ("samples_per_element", "seed")}

    def __post_init__(self):
        if self.scheme not in self.SCHEME_FIELDS:
            raise ValueError("unknown quadrature scheme %r" % (self.scheme,))
        if self.scheme == "symmetric" and self.n_points not in (1, 4, 10):
            raise ValueError("symmetric rule supports 1, 4 or 10 points")
        if self.scheme == "monte_carlo" and not (self.samples_per_element >= 1 and self.seed >= 0):
            raise ValueError("monte_carlo needs samples_per_element >= 1 and seed >= 0")

    @classmethod
    def corner_average(cls):
        return cls("corner_average")

    @classmethod
    def barycenter(cls):
        return cls("barycenter")

    @classmethod
    def symmetric(cls, n_points=10):
        return cls("symmetric", n_points=n_points)

    @classmethod
    def monte_carlo(cls, samples_per_element=100, seed=0):
        return cls("monte_carlo", samples_per_element=samples_per_element, seed=seed)


def _orbit(base):
    seen = []
    for p in permutations(base):
        if p not in seen:
            seen.append(p)
    return seen


def _symmetric_rule(dim, n_points):
    """Positive symmetric barycentric rules; weights sum to 1."""
    if n_points == 1:
        pts = np.full((1, dim + 1), 1.0 / (dim + 1))
        return np.ones(1), pts
    if dim == 1:
        x, w = np.polynomial.legendre.leggauss(n_points)
        lam = 0.5 * (x + 1.0)
        return w / 2.0, np.column_stack([1.0 - lam, lam])
    if dim == 2:
        if n_points == 4:
            # centroid + 3-point orbit, degree 2, all weights positive
            a, b = 4.0 / 5.0, 1.0 / 10.0
            pts = [(1 / 3, 1 / 3, 1 / 3)] + _orbit((a, b, b))
            w = [24.0 / 49.0] + [25.0 / 147.0] * 3
            return np.array(w), np.array(pts)
        # 10-point cubic-lattice rule (interpolatory, degree 3, positive)
        pts, w = [], []
        for i in range(4):
            for j in range(4 - i):
                k = 3 - i - j
                pts.append((i / 3.0, j / 3.0, k / 3.0))
                if 3 in (i, j, k):
                    w.append(1.0 / 30.0)
                elif 0 in (i, j, k):
                    w.append(3.0 / 40.0)
                else:
                    w.append(9.0 / 20.0)
        return np.array(w), np.array(pts)
    # dim == 3
    if n_points == 4:
        a = (5.0 - np.sqrt(5.0)) / 20.0
        pts = _orbit((a, a, a, 1.0 - 3.0 * a))
        return np.full(4, 0.25), np.array(pts)
    # 10-point: 4-orbit + 6-orbit, degree 3, all weights positive
    a = 0.11391579759060863
    b = 0.09258985734480704
    wa = 0.10333457055008857
    wb = 0.09777695296660763
    pts = _orbit((a, a, a, 1.0 - 3.0 * a)) + _orbit((b, b, 0.5 - b, 0.5 - b))
    return np.array([wa] * 4 + [wb] * 6), np.array(pts)


def quadrature_rule(spec, dim):
    """Barycentric (weights, points) for the fixed-point schemes."""
    if spec.scheme == "corner_average":
        return np.full(dim + 1, 1.0 / (dim + 1)), np.eye(dim + 1)
    if spec.scheme == "barycenter":
        return _symmetric_rule(dim, 1)
    if spec.scheme == "symmetric":
        return _symmetric_rule(dim, spec.n_points)
    raise ValueError("monte_carlo has no fixed rule; points are drawn per element")


def _hat_gradients(mesh):
    """Hat-function gradients, shape (d+1, d, t): [i, :, k] is the constant
    gradient of corner i's hat function on simplex k."""
    g = np.empty((mesh.dim + 1, mesh.dim, mesh.num_simplices))
    g[1:] = mesh.edge_inverses.transpose(1, 2, 0)  # row j: the hat of corner j+1
    g[0] = -g[1:].sum(axis=0)
    return g


def _element_points(mesh, bary):
    """Physical quadrature points per element, nudged toward the centroid."""
    corners = mesh.vertices[mesh.simplices]  # (t, d+1, d)
    # The corner rule's points are the gathered corners themselves.
    corner_rule = np.array_equal(bary, np.eye(mesh.dim + 1))
    pts = corners if corner_rule else np.einsum("qj,tjd->tqd", bary, corners)
    centroid = corners.mean(axis=1, keepdims=True)
    del corners
    # pts + nudge (centroid - pts), formed in place: + and * commute exactly.
    step = centroid - pts
    step *= _INWARD_NUDGE
    step += pts
    return step


def adjusted_volumes(domain, k, quad):
    """Element measures of subdomain ``k`` scaled by quadrature of 1/coverage.

    Every quadrature point lies in its own element, so subdomain ``k`` counts
    once without a query; only the other subdomains are searched.
    """
    mesh = domain.subdomains[k]
    t, d = mesh.num_simplices, mesh.dim
    if quad.scheme == "monte_carlo":
        # Drawn, placed and counted a block of elements at a time: the blocked
        # draws from one generator equal one (t, s) draw, and memory stays bounded.
        rng = np.random.default_rng(quad.seed)
        s = quad.samples_per_element
        mean_inverse = np.empty(t)  # each element's mean of 1/coverage
        step = max(1, _SAMPLE_BLOCK // s)
        for start in range(0, t, step):
            block = slice(start, min(start + step, t))
            bary = rng.dirichlet(np.ones(d + 1), size=(block.stop - start, s))  # (m, s, d+1)
            pts = np.einsum("tsj,tjd->tsd", bary, mesh.vertices[mesh.simplices[block]])
            mean_inverse[block] = (1.0 / (1 + other_coverage_counts(domain, k, pts))).mean(axis=1)
        return mesh.measures * mean_inverse
    weights, bary = quadrature_rule(quad, d)
    cov = 1 + other_coverage_counts(domain, k, _element_points(mesh, bary))  # (t, q)
    return mesh.measures * ((1.0 / cov) @ weights)


def stiffness_matrix(mesh, a):
    """Discrete Laplacian with element weights ``a``: the sum over elements of
    a_e g_i . g_j for hat gradients g_i, g_j; PSD, L @ 1 = 0."""
    a = np.asarray(a, dtype=float)
    if a.shape != (mesh.num_simplices,):
        raise ValueError("adjusted volumes have wrong length")
    if (a < 0).any():
        raise ValueError("negative adjusted volume at element %d" % int(np.argmax(a < 0)))
    g = _hat_gradients(mesh)
    k, n = len(g), mesh.num_vertices
    local = np.empty((k, k, mesh.num_simplices))
    for i in range(k):
        for j in range(i, k):
            local[i, j] = local[j, i] = a * (g[i] * g[j]).sum(axis=0)
    # int32 indices, the COO's own index type, so that it keeps them uncopied.
    s = mesh.simplices.T.astype(np.int32)
    rows, cols = (np.broadcast_to(x, local.shape).ravel() for x in (s[:, None], s[None, :]))
    del g, s
    L = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    # Entries that cancel exactly are dropped, as a sparse product drops them.
    L.eliminate_zeros()
    return L


def lumped_mass_matrix(mesh, a):
    """Diagonal mass matrix distributing each element weight over its d+1 corners."""
    a = np.asarray(a, dtype=float)
    if a.shape != (mesh.num_simplices,):
        raise ValueError("adjusted volumes have wrong length")
    diag = np.zeros(mesh.num_vertices)
    np.add.at(diag, mesh.simplices.ravel(), np.repeat(a / (mesh.dim + 1), mesh.dim + 1))
    return sp.diags(diag).tocsr()


def assemble_global(domain, quad):
    """Block-diagonal stiffness and mass (L, M) over all subdomains, in the
    global vertex order of ``domain.offsets``."""
    Ls, Ms = [], []
    for k, mesh in enumerate(domain.subdomains):
        a = adjusted_volumes(domain, k, quad)
        Ls.append(stiffness_matrix(mesh, a))
        Ms.append(lumped_mass_matrix(mesh, a))
    L = sp.block_diag(Ls, format="csr")
    M = sp.block_diag(Ms, format="csr")
    return L, M
