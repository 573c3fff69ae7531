"""Equality-constrained quadratic solves: Poisson, implicit steps, bi-Laplace, modes."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coupling import (
    ALL_VERTICES,
    BOUNDARY_ONLY,
    BOUNDARY_ONLY_THINNED,
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
# The substitution core's CG stops at this residual relative to its
# right-hand side Z^T (b - Q z0).
CG_RTOL = 1e-12
# Jacobi-preconditioned CG needs a number of iterations that grows like 1/h:
# 12, 29, 64 and 132 on annulus2d_poisson at m = 1, 2, 4, 8 (h halves at each
# step), and 112 to 115 on the two 16^3 boxes of the box3d-ingest benchmark,
# depending on the data. The cap leaves room for meshes about seven times
# finer than the finest of these.
CG_MAX_ITERATIONS = 1000

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
    path: str = None  # "saddle_lu", "saddle_lu_eps" or "substitution_cg"
    iterations: int = 0  # CG iterations of substitution_cg; 0 on the saddle LU

    def subdomain_values(self, i):
        return self.u[int(self.offsets[i]) : int(self.offsets[i + 1])]


def _distinct_rows(A):
    """Indices of the rows of A that do not repeat an earlier row up to sign.

    Reciprocal coupling rows at coincident vertices are exact negations of
    each other, so this finds them without factorizing A.
    """
    A = sp.csr_matrix(A, dtype=float, copy=True)
    A.eliminate_zeros()
    A.sort_indices()
    lengths = np.diff(A.indptr)
    starts = A.indptr[:-1]
    negative = np.zeros(A.shape[0], dtype=bool)
    negative[lengths > 0] = A.data[starts[lengths > 0]] < 0
    # Rows are compared bit for bit, after a sign flip that makes the first value positive.
    values = np.where(np.repeat(negative, lengths), -A.data, A.data).view(np.int64)
    keep = [np.flatnonzero(lengths == 0)[:1]]
    for n in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == n)
        at = starts[rows, None] + np.arange(n)
        _, first = np.unique(np.hstack([A.indices[at], values[at]]), axis=0, return_index=True)
        keep.append(rows[first])
    return np.sort(np.concatenate(keep))


class _SaddleSolver:
    """Solver for the saddle matrix [Q A^T; A 0]; the rows of A are distinct
    (:func:`_distinct_rows`).

    ``solve(rhs)`` solves the saddle system with one refinement step against
    the exact matrix. If the factorization made at the first solve, or that
    solve's residual check, fails (dependent rows remain), a factorization
    with a tiny -eps I multiplier block takes over and ``path`` becomes
    ``saddle_lu_eps``; it is nonsingular when Q is definite on null(A)
    (Benzi, Golub & Liesen, Acta Numerica 14, 2005, section 3). A residual
    that stays large raises :class:`SolverError`.
    """

    def __init__(self, Q, A):
        self.K = sp.bmat([[Q, A.T], [A, None]], format="csc")
        self.m = A.shape[0]
        eps = 1e-10 * (float(np.abs(Q.diagonal()).max(initial=0.0)) or 1.0)
        self._shifts = [0.0, eps]
        self._lu = None
        self.path = "saddle_lu"

    def solve(self, rhs):
        K = self.K
        while self._shifts or self._lu is not None:
            if self._lu is None:
                shift = self._shifts.pop(0)
                if shift:
                    self.path = "saddle_lu_eps"
                    diag = np.r_[np.zeros(K.shape[0] - self.m), np.full(self.m, shift)]
                    K = K - sp.diags(diag, format="csc")
                try:
                    self._lu = spla.splu(K)
                except RuntimeError:
                    continue
            x = self._lu.solve(rhs)
            x += self._lu.solve(rhs - self.K @ x)
            scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
            if np.isfinite(x).all() and np.abs(self.K @ x - rhs).max() <= 1e-7 * scale:
                self._shifts.clear()
                return x
            self._lu = None
        raise SolverError("singular KKT system of order %d" % K.shape[0])


def _saddle_core(Q, A, b, c):
    """(u, multipliers, path, iterations) of the saddle system by :class:`_SaddleSolver`."""
    saddle = _SaddleSolver(Q, A)
    x = saddle.solve(np.concatenate([b, c]))
    n = Q.shape[0]
    return x[:n], x[n:], saddle.path, 0


def _substitution_core(Q, A, b, c):
    """(u, multipliers, path, iterations) by eliminating one variable per row.

    A row's pivot is its largest coefficient: the target's +1, as the anchor
    coefficients enter as -beta with beta <= 1. When no other row touches a
    pivot column, the pivots are slaves and the other columns masters, and
    u = Z w + z0 meets A u = c for every w (multipoint constraints: Abel &
    Shephard, IJNME 14, 1979). Then w solves Z^T Q Z w = Z^T (b - Q z0) by
    Jacobi-preconditioned CG, and the multiplier of a row is (b - Q u) at its
    pivot over the pivot coefficient. Rows that share a pivot column
    (all_vertices rows, a target coupled to several subdomains) go to
    :func:`_saddle_core`. CG that has not converged in ``CG_MAX_ITERATIONS``
    raises :class:`SolverError`.
    """
    R = A.copy()
    R.eliminate_zeros()
    m, n = R.shape
    lengths = np.diff(R.indptr)
    if not lengths.all():
        return _saddle_core(Q, A, b, c)
    # Sorting by row, then by descending value, keeps each row's CSR block in place.
    pivot = np.lexsort((-R.data, np.repeat(np.arange(m), lengths)))[R.indptr[:-1]]
    slave = R.indices[pivot]
    if (np.bincount(R.indices, minlength=n)[slave] > 1).any():
        return _saddle_core(Q, A, b, c)
    master = np.ones(n, dtype=bool)
    master[slave] = False
    # E puts row r, divided by its pivot coefficient, in the row of its slave.
    E = sp.csr_matrix((1.0 / R.data[pivot], (slave, np.arange(m))), shape=(n, m))
    Z = (sp.eye(n, format="csr") - E @ R)[:, master]
    z0 = E @ c
    K = Z.T @ Q @ Z
    steps = []
    w, info = spla.cg(K, Z.T @ (b - Q @ z0), rtol=CG_RTOL, maxiter=CG_MAX_ITERATIONS,
                      M=sp.diags(1.0 / K.diagonal()), callback=steps.append)
    if info:
        raise SolverError("substitution_cg did not converge in %d iterations" % len(steps))
    u = Z @ w + z0
    return u, E.T @ (b - Q @ u), "substitution_cg", len(steps)


def _as_fixed_arrays(fixed, N):
    idx = np.array([int(i) for i, _ in fixed], dtype=np.int64)
    vals = np.array([float(v) for _, v in fixed], dtype=float)
    if len(np.unique(idx)) != len(idx):
        raise SolverError("duplicate fixed index")
    if idx.size and (idx.min() < 0 or idx.max() >= N):
        raise SolverError("fixed index out of range")
    return idx, vals


def _constrained_solve(Q, b, A, c, fixed, core):
    """Minimize 1/2 u^T Q u - b^T u subject to A u = c and fixed values.

    Fixed indices are eliminated by substitution, and rows of A that repeat
    an earlier row up to sign are dropped: they are counted in
    ``dropped_rows`` and get a zero multiplier. ``core(Qff, Af, bf, cf)``
    solves the reduced problem and returns (u, multipliers, path,
    iterations). Inconsistent rows raise :class:`SolverError`.
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
    Af = A[:, free]
    keep = _distinct_rows(Af)
    u[free], lam_keep, path, iterations = core(Qff, Af[keep], bf, c_shift[keep])
    lam = np.zeros(A.shape[0])
    lam[keep] = lam_keep

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
        path=path,
        iterations=iterations,
    )


def solve_kkt(Q, b=None, A=None, c=None, fixed=()):
    """Minimize 1/2 u^T Q u - b^T u subject to A u = c and fixed values.

    Fixed indices are eliminated by substitution, and the saddle system is
    solved by :class:`_SaddleSolver`. Rows dropped as repeats of earlier
    rows are counted in ``dropped_rows`` and get a zero multiplier.
    Inconsistent rows raise :class:`SolverError`.
    """
    return _constrained_solve(Q, b, A, c, fixed, _saddle_core)


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
    if not domain.dirichlet:
        return []
    sub, vert, val = (np.array(column) for column in zip(*domain.dirichlet))
    return list(zip((domain.offsets[sub] + vert).tolist(), val.tolist()))


def _coupled_solve(domain, quad, mode, rhs, alpha=None):
    """Minimize the form L, or M + alpha L, against load M rhs, coupled by
    ``mode``, with the domain's Dirichlet values, by :func:`_substitution_core`.
    """
    L, M, offsets = assemble_global(domain, quad)
    cs, Amat = coupling_for_mode(domain, mode)
    f = _load_vector(domain, rhs)
    Q = L if alpha is None else M + alpha * L
    report = _constrained_solve(Q, M @ f, Amat, None, _dirichlet_fixed(domain), _substitution_core)
    report.offsets = offsets
    report.constraints = cs
    return report


def solve_poisson(domain, quad, mode="boundary_only", rhs=1.0):
    """Dirichlet-energy minimization -laplace(u) = rhs with the given coupling mode."""
    return _coupled_solve(domain, quad, mode, rhs)


def implicit_step(domain, quad, mode, alpha, u0, rhs=None):
    """One implicit step (M + alpha L) u = M rhs with coupling and Dirichlet data.

    alpha is dt for a heat step; for a wave step pass alpha = dt**2 and
    rhs = u0 + dt * du0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if rhs is None:
        rhs = u0
    return _coupled_solve(domain, quad, mode, rhs, alpha)


def _low_order_rows(domain, cs):
    """1D low-order coupling, one row per value row: the slope on the target
    vertex's lowest-index element equals the slope on the anchor element."""
    if domain.dim != 1:
        raise SolverError("low_order coupling is only discretized for d=1")
    offsets = domain.offsets
    x = domain.stacked_vertices()[:, 0]
    elements = np.concatenate([m.simplices + o for m, o in zip(domain.subdomains, offsets)])
    first = np.full(domain.total_vertices, len(elements))
    np.minimum.at(first, elements.ravel(), np.repeat(np.arange(len(elements)), 2))
    element_offsets = np.cumsum([0] + [len(m.simplices) for m in domain.subdomains])
    e = elements[first[offsets[cs.target[:, 0]] + cs.target[:, 1]]]
    f = elements[element_offsets[cs.anchor[:, 0]] + cs.anchor[:, 1]]
    ht, ha = x[e[:, 1]] - x[e[:, 0]], x[f[:, 1]] - x[f[:, 0]]
    cols = np.column_stack([e, f])
    vals = np.column_stack([-1.0 / ht, 1.0 / ht, 1.0 / ha, -1.0 / ha])
    rows = np.repeat(np.arange(len(cs)), 4)
    return sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(len(cs), len(x)))


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
    dropped = len(cs) - len(keep)
    if coupling == "low_order":
        Alo = _low_order_rows(domain, cs.take(keep))
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
        path=inner.path,
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
        path=inner.path,
    )


def constrained_modes(L, M, A, k):
    """Smallest k generalized eigenpairs of (L, M) restricted to null(A).

    Shift-invert Lanczos (``eigsh``) on the pencil ([L A^T; A 0], [M 0; 0 0])
    at sigma = -tr(L) / (tr(M) N), below the spectrum and scaled with it; the
    inverse operator is :class:`_SaddleSolver` on L - sigma M (Lehoucq,
    Sorensen & Yang, ARPACK Users' Guide, SIAM 1998, ch. 3-4). Returns a
    list of (eigenvalue, eigenvector), eigenvalues nondecreasing. Raises
    :class:`SolverError` unless k is below N minus the distinct rows of A.
    """
    L, M = sp.csr_matrix(L), sp.csr_matrix(M)
    N = L.shape[0]
    A = sp.csr_matrix((0, N)) if A is None else sp.csr_matrix(A)
    sigma = -L.diagonal().sum() / (M.diagonal().sum() * N)
    A = A[_distinct_rows(A)]
    m = A.shape[0]
    if k >= N - m:
        raise SolverError("%d modes need more than the %d degrees of freedom left" % (k, N - m))
    # A fixed-seed random start keeps the output reproducible (all ones is the
    # Neumann constant mode); the Lanczos basis cannot outgrow the free dimension.
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, N + m)
    saddle = _SaddleSolver(L - sigma * M, A)
    try:
        vals, vecs = spla.eigsh(
            sp.bmat([[L, A.T], [A, None]]), k,
            M=sp.block_diag([M, sp.csr_matrix((m, m))]), sigma=sigma, v0=v0,
            OPinv=spla.LinearOperator((N + m,) * 2, matvec=saddle.solve, dtype=float),
            ncv=min(N - m, max(2 * k + 1, 20)),
        )
    except spla.ArpackError as exc:
        raise SolverError("eigensolver failed: %s" % exc) from None
    return [(float(vals[i]), vecs[:N, i]) for i in np.argsort(vals)]
