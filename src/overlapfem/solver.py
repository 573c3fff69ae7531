"""Equality-constrained quadratic solves: Poisson, implicit steps, bi-Laplace, modes."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coupling import (
    ALL_VERTICES,
    BOUNDARY_ONLY,
    BOUNDARY_ONLY_THINNED,
    ConstraintSet,
    all_vertex_constraints,
    boundary_only_constraints,
    constraint_matrix,
    thin_constraints,
)
from .fem import assemble_global

__all__ = [
    "SolverError",
    "SolveReport",
    "solve_kkt",
    "solve_poisson",
    "implicit_step",
    "solve_bilaplace",
    "solve_bilaplace_convex",
    "constrained_modes",
    "coupling_for_mode",
]

FEASIBILITY_TOL = 1e-9
STATIONARITY_TOL = 1e-8

COUPLING_MODES = ("none", ALL_VERTICES, BOUNDARY_ONLY, BOUNDARY_ONLY_THINNED)
BILAPLACE_COUPLINGS = ("value_only", "low_order", "high_order")


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    """Solution of one constrained solve, with residual diagnostics."""

    u: np.ndarray
    offsets: np.ndarray = None
    multipliers: np.ndarray = None
    multipliers_z: np.ndarray = None
    z: np.ndarray = None
    constraint_residual: float = 0.0
    stationarity_residual: float = 0.0
    energy: float = 0.0
    constraints: object = None
    dropped_rows: int = 0

    def subdomain_values(self, i):
        return self.u[int(self.offsets[i]) : int(self.offsets[i + 1])]

    def subdomain_z(self, i):
        return self.z[int(self.offsets[i]) : int(self.offsets[i + 1])]


def _distinct_rows(A):
    """Indices of the rows of A that do not repeat an earlier row up to sign.

    Reciprocal coupling rows at coincident vertices are exact negations of
    each other, so this finds them without factorizing A.
    """
    A = sp.csr_matrix(A, copy=True)
    A.eliminate_zeros()
    A.sort_indices()
    seen = set()
    keep = []
    for r in range(A.shape[0]):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        vals = A.data[lo:hi]
        if vals.size and vals[0] < 0:
            vals = -vals
        key = (A.indices[lo:hi].tobytes(), vals.tobytes())
        if key not in seen:
            seen.add(key)
            keep.append(r)
    return np.array(keep, dtype=np.int64)


def _saddle_solver(Q, A):
    """Solver for the saddle matrix [Q A^T; A 0] on the distinct rows of A.

    Returns ``(solve, keep)``: ``keep`` indexes the rows that
    :func:`_distinct_rows` keeps, and ``solve(rhs)`` solves the saddle system
    with one refinement step against the exact matrix. If the factorization
    made at the first solve, or that solve's residual check, fails (redundant
    rows remain), a factorization with a tiny -eps I multiplier block takes
    over; it is nonsingular when Q is definite on null(A) (Benzi, Golub &
    Liesen, Acta Numerica 14, 2005, section 3). A residual that stays large
    raises :class:`SolverError`.
    """
    keep = _distinct_rows(A)
    A = A[keep]
    K = sp.bmat([[Q, A.T], [A, None]], format="csc")
    eps = 1e-10 * (float(np.abs(Q.diagonal()).max(initial=0.0)) or 1.0)
    shifts = [0.0, eps]
    lu = None

    def solve(rhs):
        nonlocal lu
        while shifts or lu is not None:
            if lu is None:
                shift = np.r_[np.zeros(Q.shape[0]), np.full(len(keep), shifts.pop(0))]
                try:
                    lu = spla.splu(K - sp.diags(shift, format="csc") if shift.any() else K)
                except RuntimeError:
                    continue
            x = lu.solve(rhs)
            x += lu.solve(rhs - K @ x)
            scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
            if np.isfinite(x).all() and np.abs(K @ x - rhs).max() <= 1e-7 * scale:
                shifts.clear()
                return x
            lu = None
        raise SolverError("singular KKT system of order %d" % K.shape[0])

    return solve, keep


def _as_fixed_arrays(fixed, N):
    idx = np.array([int(i) for i, _ in fixed], dtype=np.int64)
    vals = np.array([float(v) for _, v in fixed], dtype=float)
    if len(np.unique(idx)) != len(idx):
        raise SolverError("duplicate fixed index")
    if idx.size and (idx.min() < 0 or idx.max() >= N):
        raise SolverError("fixed index out of range")
    return idx, vals


def solve_kkt(Q, b=None, A=None, c=None, fixed=()):
    """Minimize 1/2 u^T Q u - b^T u subject to A u = c and fixed values.

    Fixed indices are eliminated by substitution, and the saddle system is
    solved by :func:`_saddle_solver`. Rows it drops as repeats of earlier
    rows are counted in ``dropped_rows`` and get a zero multiplier.
    Inconsistent rows raise :class:`SolverError`.
    """
    Q = sp.csr_matrix(Q)
    N = Q.shape[0]
    b = np.zeros(N) if b is None else np.asarray(b, dtype=float)
    A = sp.csr_matrix((0, N)) if A is None else sp.csr_matrix(A)
    c = np.zeros(A.shape[0]) if c is None else np.asarray(c, dtype=float)
    fixed_idx, fixed_vals = _as_fixed_arrays(fixed, N)

    free = np.ones(N, dtype=bool)
    free[fixed_idx] = False
    u = np.zeros(N)
    u[fixed_idx] = fixed_vals

    c_shift = c - (A[:, fixed_idx] @ fixed_vals if fixed_idx.size else 0.0)
    Qff = Q[free][:, free]
    bf = b[free] - (Q[free][:, fixed_idx] @ fixed_vals if fixed_idx.size else 0.0)
    nf = Qff.shape[0]

    solve, keep = _saddle_solver(Qff, A[:, free])
    x = solve(np.concatenate([bf, c_shift[keep]]))
    u[free] = x[:nf]
    lam = np.zeros(A.shape[0])
    lam[keep] = x[nf:]

    scale = max(1.0, float(np.abs(u).max(initial=0.0)))
    feas = float(np.abs(A @ u - c).max(initial=0.0))
    if feas > FEASIBILITY_TOL * scale:
        raise SolverError("infeasible fixed/constraint combination (residual %.3g)" % feas)
    grad = Q @ u - b + A.T @ lam
    stat_scale = float(np.abs(b).max(initial=0.0) + np.abs(Q @ u).max(initial=0.0))
    stat = float(np.abs(grad[free]).max(initial=0.0))
    return SolveReport(
        u=u,
        multipliers=lam,
        constraint_residual=feas,
        stationarity_residual=stat / max(stat_scale, 1e-300),
        energy=float(0.5 * u @ (Q @ u) - b @ u),
        dropped_rows=A.shape[0] - len(keep),
    )


def coupling_for_mode(domain, mode):
    """Constraint set and materialized matrix for a coupling mode."""
    if mode not in COUPLING_MODES:
        raise ValueError("unknown coupling mode %r" % (mode,))
    N = domain.total_vertices
    if mode == "none":
        cs = None
        Amat = sp.csr_matrix((0, N))
    elif mode == ALL_VERTICES:
        cs = all_vertex_constraints(domain)
        Amat = constraint_matrix(cs, domain.offsets, N)
    else:
        cs = boundary_only_constraints(domain)
        if mode == BOUNDARY_ONLY_THINNED:
            cs = thin_constraints(cs)
        Amat = constraint_matrix(cs, domain.offsets, N)
    return cs, Amat


def _load_vector(domain, rhs):
    N = domain.total_vertices
    if np.isscalar(rhs):
        return np.full(N, float(rhs))
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (N,):
        raise ValueError("per-vertex load must have length %d" % N)
    return rhs


def _dirichlet_fixed(domain):
    return [(domain.global_index(s, v), val) for s, v, val in domain.dirichlet]


def _coupled_solve(domain, quad, mode, rhs, form):
    """Minimize the quadratic form ``form(L, M)`` against load M rhs, coupled by
    ``mode``, with the domain's Dirichlet values."""
    L, M, offsets = assemble_global(domain, quad)
    cs, Amat = coupling_for_mode(domain, mode)
    f = _load_vector(domain, rhs)
    report = solve_kkt(form(L, M), M @ f, Amat, fixed=_dirichlet_fixed(domain))
    report.offsets = offsets
    report.constraints = cs
    return report


def solve_poisson(domain, quad, mode="boundary_only", rhs=1.0):
    """Dirichlet-energy minimization -laplace(u) = rhs with the given coupling mode."""
    return _coupled_solve(domain, quad, mode, rhs, lambda L, M: L)


def implicit_step(domain, quad, mode, alpha, u0, rhs=None):
    """One implicit step (M + alpha L) u = M rhs with coupling and Dirichlet data.

    alpha is dt for a heat step; for a wave step pass alpha = dt**2 and
    rhs = u0 + dt * du0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if rhs is None:
        rhs = u0
    return _coupled_solve(domain, quad, mode, rhs, lambda L, M: M + alpha * L)


def _one_sided_gradient_row(mesh, vertex, offset):
    """1D only: sparse coefficients of the interpolant slope on the element at a boundary vertex."""
    incident = np.nonzero((mesh.simplices == vertex).any(axis=1))[0]
    e = int(incident[0])
    i0, i1 = mesh.simplices[e]
    h = float(mesh.vertices[i1, 0] - mesh.vertices[i0, 0])
    return {offset + int(i0): -1.0 / h, offset + int(i1): 1.0 / h}


def _low_order_rows(domain, cs):
    """Derivative-matching rows for 1D low-order coupling, one per value row."""
    if domain.dim != 1:
        raise SolverError("low_order coupling is only discretized for d=1")
    offsets = domain.offsets
    data, ri, ci = [], [], []
    for r, row in enumerate(cs.rows):
        a, i = row.target
        b, t = row.anchor
        coeffs = _one_sided_gradient_row(domain.subdomains[a], i, int(offsets[a]))
        mesh_b = domain.subdomains[b]
        j0, j1 = mesh_b.simplices[t]
        h = float(mesh_b.vertices[j1, 0] - mesh_b.vertices[j0, 0])
        coeffs.update({int(offsets[b]) + int(j0): 1.0 / h, int(offsets[b]) + int(j1): -1.0 / h})
        ri += [r] * len(coeffs)
        ci += list(coeffs)
        data += list(coeffs.values())
    return sp.csr_matrix((data, (ri, ci)), shape=(len(cs.rows), domain.total_vertices))


def solve_bilaplace(
    domain,
    quad,
    coupling="high_order",
    dirichlet_laplacians=None,
    load=0.0,
):
    """Mixed-FEM squared-Laplacian solve with auxiliary z = laplace(u).

    Coupling across subdomains uses boundary-only rows on u alone
    (``value_only``), on u plus one-sided derivatives (``low_order``, 1D), or
    on u and z (``high_order``). Dirichlet values come from the domain;
    ``dirichlet_laplacians`` optionally pins z as (subdomain, vertex, value)
    triples. Unpinned boundaries get natural conditions (boundary terms are
    dropped).
    """
    if coupling not in BILAPLACE_COUPLINGS:
        raise SolverError("unknown bi-Laplace coupling %r" % (coupling,))
    L, M, offsets = assemble_global(domain, quad)
    N = domain.total_vertices
    Lp = (-L).tocsr()
    f = _load_vector(domain, load)

    cs, Avalue = coupling_for_mode(domain, "boundary_only")
    keep = _distinct_rows(Avalue)
    Avalue = Avalue[keep]
    cs_rows = [cs.rows[i] for i in keep]
    dropped = len(cs.rows) - len(keep)
    if coupling == "low_order":
        Alo = _low_order_rows(domain, ConstraintSet(cs_rows, cs.mode))
        Au = sp.vstack([Avalue, Alo], format="csr")
        Az = sp.csr_matrix((0, N))
    elif coupling == "high_order":
        Au = Avalue
        Az = Avalue.copy()
    else:
        Au = Avalue
        Az = sp.csr_matrix((0, N))
    mu = Au.shape[0]

    core = sp.bmat([[None, Lp.T], [Lp, -M]])
    rhs = np.concatenate([M @ f, np.zeros(N)])
    fixed = _dirichlet_fixed(domain)
    if dirichlet_laplacians:
        fixed = fixed + [
            (N + domain.global_index(s, v), val) for s, v, val in dirichlet_laplacians
        ]
    inner = solve_kkt(core, rhs, sp.block_diag([Au, Az]), fixed=fixed)
    u = inner.u[:N]
    z = inner.u[N:]
    return SolveReport(
        u=u,
        offsets=offsets,
        multipliers=inner.multipliers[:mu],
        multipliers_z=inner.multipliers[mu:],
        z=z,
        constraint_residual=inner.constraint_residual,
        stationarity_residual=inner.stationarity_residual,
        energy=float(z @ (M @ z) - 2.0 * (u @ (M @ f))),
        constraints=cs,
        dropped_rows=dropped,
    )


def solve_bilaplace_convex(domain, quad, dirichlet_laplacians=None, load=0.0):
    """High-order-coupled bi-Laplace as a convex QP min ||y||^2 over (u, lam_z, y).

    Equality constraints: A u = 0 and L u + A^T lam_z = sqrt(M) y, with the
    mass square root taken entrywise on the lumped diagonal. Pinned auxiliary
    values drop their defining rows and shift the load, mirroring the
    elimination done by :func:`solve_bilaplace`, so the two solvers agree on
    shared configurations.
    """
    L, M, offsets = assemble_global(domain, quad)
    N = domain.total_vertices
    Lp = (-L).tocsr()
    f = _load_vector(domain, load)

    cs, Avalue = coupling_for_mode(domain, "boundary_only")
    # Avalue^T is the lam_z block: dependent rows leave lam_z free, which -eps I cannot repair.
    Avalue = Avalue[_distinct_rows(Avalue)]
    m = Avalue.shape[0]

    mdiag = M.diagonal()
    if (mdiag <= 0).any():
        raise SolverError(
            "zero mass entry at vertex %d (isolated vertex)" % int(np.argmin(mdiag))
        )

    z_fixed = np.zeros(N)
    z_free = np.ones(N, dtype=bool)
    for s, v, val in dirichlet_laplacians or ():
        g = domain.global_index(s, v)
        z_fixed[g] = val
        z_free[g] = False
    nu = int(z_free.sum())
    Msqrt_u = sp.diags(np.sqrt(mdiag[z_free]))

    # Variables: (u, lam_z, y over free-z rows).
    # Objective ||y||^2 - 2 (M f - Lp^T[:, pinned] z_pinned)^T u up to a constant.
    b_u = 2.0 * (M @ f - Lp.T[:, ~z_free] @ z_fixed[~z_free])
    Q = sp.block_diag(
        [sp.csr_matrix((N, N)), sp.csr_matrix((m, m)), 2.0 * sp.eye(nu)], format="csr"
    )
    b = np.concatenate([b_u, np.zeros(m), np.zeros(nu)])
    top = sp.hstack([Avalue, sp.csr_matrix((m, m + nu))])
    bottom = sp.hstack([Lp[z_free], Avalue.T[z_free], -Msqrt_u])
    A = sp.vstack([top, bottom], format="csr")
    c = np.zeros(m + nu)
    fixed = _dirichlet_fixed(domain)
    inner = solve_kkt(Q, b, A, c, fixed=fixed)

    u = inner.u[:N]
    lam_z = inner.u[N : N + m]
    y = inner.u[N + m :]
    z = z_fixed.copy()
    z[z_free] = y / np.sqrt(mdiag[z_free])
    lam_u = inner.multipliers[:m] / 2.0
    return SolveReport(
        u=u,
        offsets=offsets,
        multipliers=lam_u,
        multipliers_z=lam_z,
        z=z,
        constraint_residual=inner.constraint_residual,
        stationarity_residual=inner.stationarity_residual,
        energy=float(y @ y - 2.0 * (u @ (M @ f))),
        constraints=cs,
    )


def constrained_modes(L, M, A, k):
    """Smallest k generalized eigenpairs of (L, M) restricted to null(A).

    Shift-invert Lanczos (``eigsh``) on the pencil ([L A^T; A 0], [M 0; 0 0])
    at sigma = -tr(L) / (tr(M) N), below the spectrum and scaled with it; the
    inverse operator is :func:`_saddle_solver` on L - sigma M (Lehoucq,
    Sorensen & Yang, ARPACK Users' Guide, SIAM 1998, ch. 3-4). Returns a
    list of (eigenvalue, eigenvector), eigenvalues nondecreasing. Raises
    :class:`SolverError` unless k is below N minus the distinct rows of A.
    """
    L, M = sp.csr_matrix(L), sp.csr_matrix(M)
    N = L.shape[0]
    A = sp.csr_matrix((0, N)) if A is None else sp.csr_matrix(A)
    sigma = -L.diagonal().sum() / (M.diagonal().sum() * N)
    solve, keep = _saddle_solver(L - sigma * M, A)
    m = len(keep)
    if k >= N - m:
        raise SolverError("%d modes need more than the %d degrees of freedom left" % (k, N - m))
    # A fixed-seed random start keeps the output reproducible (all ones is the
    # Neumann constant mode); the Lanczos basis cannot outgrow the free dimension.
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, N + m)
    try:
        vals, vecs = spla.eigsh(
            sp.bmat([[L, A[keep].T], [A[keep], None]]), k,
            M=sp.block_diag([M, sp.csr_matrix((m, m))]), sigma=sigma, v0=v0,
            OPinv=spla.LinearOperator((N + m,) * 2, matvec=solve, dtype=float),
            ncv=min(N - m, max(2 * k + 1, 20)),
        )
    except spla.ArpackError as exc:
        raise SolverError("eigensolver failed: %s" % exc) from None
    return [(float(vals[i]), vecs[:N, i]) for i in np.argsort(vals)]
