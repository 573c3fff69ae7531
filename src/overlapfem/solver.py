"""Equality-constrained quadratic solves: Poisson, implicit steps, bi-Laplace, modes."""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
# scipy.sparse.linalg (SuperLU, ARPACK and scipy.linalg) is imported where a factorization
# or eigensolve runs: a process whose solves all take substitution_cg never loads it.

from .coupling import (
    ALL_VERTICES,
    BOUNDARY_ONLY,
    all_vertex_constraints,
    boundary_only_constraints,
    constraint_matrix,
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
# The CG of substitution_cg stops at this residual relative to its
# right-hand side Z^T (b - Q z0).
CG_RTOL = 1e-12
# Jacobi-preconditioned CG needs a number of iterations that grows like 1/h:
# 12, 29, 64 and 132 on annulus2d_poisson at m = 1, 2, 4, 8 (h halves at each
# step), and 112 to 115 on the two 16^3 boxes of the box3d-ingest benchmark,
# depending on the data. The cap leaves room for meshes about seven times
# finer than the finest of these.
CG_MAX_ITERATIONS = 1000
# Quasi-definite factorization: a minimum-degree order on the pattern of
# K + K^T, applied to rows and columns alike, with diagonal pivots.
_QUASI_DEFINITE = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                   "options": {"SymmetricMode": True}}
# Refinement of every saddle factorization takes every step, and stops at this
# residual relative to the right-hand side, after a step that does not halve the
# residual, or after REFINE_STEPS steps. On the quasi-definite factor each step
# shrinks the residual by about eps over eps plus the smallest eigenvalue of
# A Q^-1 A^T. The README gives the steps taken per scenario.
REFINE_RTOL = 1e-14
REFINE_STEPS = 20

COUPLING_MODES = ("none", ALL_VERTICES, BOUNDARY_ONLY)
BILAPLACE_COUPLINGS = ("value_only", "low_order", "high_order")


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    """Solution of one constrained solve, with residual diagnostics."""

    u: np.ndarray
    offsets: np.ndarray = None
    multipliers: np.ndarray = None
    z: np.ndarray = None
    constraint_residual: float = 0.0
    stationarity_residual: float = 0.0
    constraints: object = None
    dropped_rows: int = 0
    # "substitution_cg" (no row left over), else the saddle factorization's, of Q and the rows
    # or of the reduced system: "saddle_qd" (diag Q > 0), "saddle_lu" (after saddle_qd
    # failed) or "saddle_lu_eps" (a zero on Q's diagonal)
    path: str = None
    iterations: int = 0  # CG iterations of substitution_cg; 0 on the saddle factorizations
    factor_nnz: int = 0  # stored entries of L and U behind the solution; 0 on substitution_cg

    def subdomain_values(self, i):
        return self.u[int(self.offsets[i]) : int(self.offsets[i + 1])]


def _distinct_rows(A):
    """Indices of the nonempty rows of A that do not repeat an earlier row up to sign.

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
    keep = [np.zeros(0, dtype=np.int64)]
    for n in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == n)
        at = starts[rows, None] + np.arange(n)
        _, first = np.unique(np.hstack([A.indices[at], values[at]]), axis=0, return_index=True)
        keep.append(rows[first])
    return np.sort(np.concatenate(keep))


class _SaddleSolver:
    """Solver for the saddle matrix K = [Q A^T; A 0]; the rows of A are distinct
    (:func:`_distinct_rows`).

    The factor is of K_eps = [Q A^T; A -eps I], which is nonsingular when Q
    is definite on null(A) (Benzi, Golub & Liesen, Acta Numerica 14, 2005,
    section 3). When every diagonal entry of Q is positive, K_eps is
    quasi-definite and is factorized with diagonal pivots in a symmetric
    minimum-degree order (``saddle_qd``): such a matrix has a stable
    factorization in every symmetric order when Q is definite (Vanderbei,
    SIAM J. Optim. 5, 1995; Gill, Saunders & Shinnerl, SIAM J. Matrix Anal.
    Appl. 17, 1996). If that fails, K is factorized with SuperLU's default
    column order and partial pivoting (``saddle_lu``). A diagonal entry that
    is not positive (a zero, in both bi-Laplace solvers) gets one such
    factorization, of K_eps (``saddle_lu_eps``). ``solve(rhs)`` refines
    against K and raises :class:`SolverError` when the residual stays above
    ``FEASIBILITY_TOL`` of the right-hand side.
    """

    def __init__(self, Q, A):
        self.K = sp.bmat([[Q, A.T], [A, None]], format="csc")
        diagonal = Q.diagonal()
        eps = 1e-10 * (float(np.abs(diagonal).max(initial=0.0)) or 1.0)
        shift = np.r_[np.zeros(Q.shape[0]), np.full(A.shape[0], eps)]
        K_eps = self.K - sp.diags(shift, format="csc")
        # (path, the matrix it factorizes, splu options)
        if (diagonal > 0).all():
            self._attempts = [("saddle_qd", K_eps, _QUASI_DEFINITE), ("saddle_lu", self.K, {})]
        else:
            self._attempts = [("saddle_lu_eps", K_eps, {})]
        self._lu = None

    def solve(self, rhs):
        scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
        while self._attempts or self._lu is not None:
            if self._lu is None:
                self.path, K, options = self._attempts.pop(0)
                from scipy.sparse.linalg import splu
                try:
                    self._lu = splu(K, **options)
                except RuntimeError:
                    continue
                self.factor_nnz = self._lu.nnz
            x, residual = self._refined(rhs, scale)
            if np.isfinite(x).all() and residual <= FEASIBILITY_TOL * scale:
                self._attempts.clear()
                return x
            self._lu = None
        raise SolverError("singular KKT system of order %d" % self.K.shape[0])

    def _refined(self, rhs, scale):
        """(x, max residual) of the factor's solution refined against K: up to
        ``REFINE_STEPS`` steps, each one taken, ending early at a residual of
        ``REFINE_RTOL * scale`` or after a step that does not halve the residual."""
        x = self._lu.solve(rhs)
        r = rhs - self.K @ x
        residual = np.abs(r).max(initial=0.0)
        for _ in range(REFINE_STEPS):
            if residual <= REFINE_RTOL * scale:
                break
            x += self._lu.solve(r)
            r = rhs - self.K @ x
            residual, last = np.abs(r).max(initial=0.0), residual
            if not residual <= 0.5 * last:
                break
        return x, residual


def _eliminate(A):
    """(Z, E, leftover) of one variable eliminated per row of A that has a pivot
    of its own (multipoint constraints: Abel & Shephard, IJNME 14, 1979).

    A row's pivot is its largest coefficient: the target's +1, as the anchor
    coefficients enter as -beta with beta <= 1. A row whose pivot column no
    other row touches is substituted: its pivot is a slave, u = Z w + E c meets
    it for every w, and E (the row over its pivot coefficient, in the slave's
    row) gives its multiplier E^T (b - Q u). The ``leftover`` rows (all_vertices
    rows, whose targets anchor each other's rows, and a target coupled to
    several subdomains) touch no slave column. With no row substituted, Z and E
    are None. Every row must hold a nonzero, as :func:`_distinct_rows` leaves it.
    """
    R = A.copy()
    R.eliminate_zeros()
    m, n = R.shape
    # Sorting by row, then by descending value, keeps each row's CSR block in place.
    pivot = np.lexsort((-R.data, np.repeat(np.arange(m), np.diff(R.indptr))))[R.indptr[:-1]]
    slave = R.indices[pivot]
    alone = np.flatnonzero(np.bincount(R.indices, minlength=n)[slave] == 1)
    if not alone.size:
        return None, None, np.arange(m)
    E = sp.csr_matrix((1.0 / R.data[pivot[alone]], (slave[alone], alone)), shape=(n, m))
    master = np.bincount(slave[alone], minlength=n) == 0
    return (sp.eye(n, format="csr") - E @ R)[:, master], E, np.setdiff1d(np.arange(m), alone)


def _jacobi_cg(K, rhs):
    """(w, iterations) of K w = rhs by Jacobi-preconditioned CG from w = 0 (Saad
    2003, Alg. 9.1) to ||r|| < CG_RTOL ||rhs||, in the arithmetic and order of
    ``scipy.sparse.linalg.cg`` with M = diag(K)^-1."""
    w, norm = np.zeros_like(rhs), np.linalg.norm(rhs)
    if norm == 0:
        return w, 0
    dinv, r, p, rho = 1.0 / K.diagonal(), rhs.copy(), None, None
    for iteration in range(CG_MAX_ITERATIONS):
        if np.linalg.norm(r) < CG_RTOL * norm:
            return w, iteration
        z = dinv * r
        rho, last = np.dot(r, z), rho
        if p is None:
            p = z
        else:
            p *= rho / last
            p += z
        q = K @ p
        alpha = rho / np.dot(p, q)
        w += alpha * p
        r -= alpha * q
    raise SolverError("substitution_cg did not converge in %d iterations" % CG_MAX_ITERATIONS)


def _as_fixed_arrays(fixed, N):
    idx = np.array([int(i) for i, _ in fixed], dtype=np.int64)
    vals = np.array([float(v) for _, v in fixed], dtype=float)
    if len(np.unique(idx)) != len(idx):
        raise SolverError("duplicate fixed index")
    if idx.size and (idx.min() < 0 or idx.max() >= N):
        raise SolverError("fixed index out of range")
    return idx, vals


def _constrained_solve(Q, b, A, c, fixed, substitute):
    """Minimize 1/2 u^T Q u - b^T u subject to A u = c and fixed values.

    Fixed indices are eliminated by substitution. Empty rows and rows that
    repeat an earlier row up to sign are dropped, counted in ``dropped_rows``
    and given a zero multiplier. With ``substitute``, u = Z w + E c over
    :func:`_eliminate`, and Jacobi CG solves Z^T Q Z w = Z^T (b - Q E c) when no
    row is left over (``substitution_cg``). Otherwise :class:`_SaddleSolver`
    solves that under the leftover rows A_l Z w = c_l - A_l E c or, with no row
    substituted (Z is None, always so without ``substitute``), Q under the rows
    as they are. Inconsistent rows raise :class:`SolverError`.
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
    bf = (b - (Q[:, fixed_idx] @ fixed_vals if fixed_idx.size else 0.0))[free]
    Af = A[:, free]
    keep = _distinct_rows(Af)
    Af, cf = Af[keep], c_shift[keep]
    Z, E, left = _eliminate(Af) if substitute else (None, None, np.arange(len(keep)))
    Qw, bw, B, cB = Qff, bf, Af, cf
    if Z is not None:
        z0, Al = E @ cf, Af[left]
        Qw, bw, B, cB = Z.T @ Qff @ Z, Z.T @ (bf - Qff @ z0), Al @ Z, cf[left] - Al @ z0
    if substitute and not left.size:
        (w, iterations), lam, path, factor_nnz = _jacobi_cg(Qw, bw), [], "substitution_cg", 0
    else:
        saddle = _SaddleSolver(Qw, B)
        w, lam = np.split(saddle.solve(np.concatenate([bw, cB])), [Qw.shape[0]])
        path, iterations, factor_nnz = saddle.path, 0, saddle.factor_nnz
    if Z is None:
        u[free], lam_keep = w, lam
    else:
        u[free] = Z @ w + z0
        lam_keep = E.T @ (bf - Qff @ u[free])
        lam_keep[left] = lam
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
        dropped_rows=A.shape[0] - len(keep),
        path=path,
        iterations=iterations,
        factor_nnz=factor_nnz,
    )


def solve_kkt(Q, b=None, A=None, c=None, fixed=()):
    """Minimize 1/2 u^T Q u - b^T u subject to A u = c and fixed values.

    Fixed indices are eliminated by substitution, and the saddle system is
    solved by :class:`_SaddleSolver`. Empty rows and rows dropped as repeats
    of earlier rows are counted in ``dropped_rows`` and get a zero
    multiplier. Inconsistent rows raise :class:`SolverError`.
    """
    return _constrained_solve(Q, b, A, c, fixed, substitute=False)


def coupling_for_mode(domain, mode):
    """Constraint set and materialized matrix for a coupling mode; the value
    rows of a bi-Laplace coupling are the boundary-only rows."""
    if mode not in COUPLING_MODES + BILAPLACE_COUPLINGS:
        raise ValueError("unknown coupling mode %r" % (mode,))
    if mode == "none":
        return None, sp.csr_matrix((0, domain.total_vertices))
    build = all_vertex_constraints if mode == ALL_VERTICES else boundary_only_constraints
    cs = build(domain)
    return cs, constraint_matrix(cs, domain.offsets)


def _load_vector(domain, rhs):
    N = domain.total_vertices
    if np.isscalar(rhs):
        rhs = np.full(N, float(rhs))
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (N,):
        raise ValueError("per-vertex load must have length %d" % N)
    if not np.isfinite(rhs).all():
        raise ValueError("load must be finite")
    return rhs


def _coupled_solve(domain, quad, mode, rhs, alpha=None):
    """Minimize the form L, or M + alpha L, against load M rhs, coupled by
    ``mode``, with the domain's Dirichlet values, by substitution (:func:`_eliminate`).
    """
    L, M = assemble_global(domain, quad)
    cs, Amat = coupling_for_mode(domain, mode)
    f = _load_vector(domain, rhs)
    Q = L if alpha is None else M + alpha * L
    report = _constrained_solve(Q, M @ f, Amat, None, domain.pins, substitute=True)
    return replace(report, offsets=domain.offsets, constraints=cs)


def solve_poisson(domain, quad, mode="boundary_only", rhs=1.0):
    """Dirichlet-energy minimization -laplace(u) = rhs with the given coupling mode."""
    return _coupled_solve(domain, quad, mode, rhs)


def implicit_step(domain, quad, mode, alpha, u0):
    """One implicit step (M + alpha L) u = M u0 with coupling and Dirichlet data.

    alpha is dt for a heat step; a wave step passes u0 + dt * du0 as u0, with
    alpha = dt**2.
    """
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    return _coupled_solve(domain, quad, mode, u0, alpha)


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


def _bilaplace_setup(domain, quad, load):
    """What both bi-Laplace solvers start from: -L, M, the load vector M f, the
    boundary-only set, the indices of its distinct rows and their matrix."""
    L, M = assemble_global(domain, quad)
    cs, Avalue = coupling_for_mode(domain, BOUNDARY_ONLY)
    keep = _distinct_rows(Avalue)
    return (-L).tocsr(), M, M @ _load_vector(domain, load), cs, keep, Avalue[keep]


def solve_bilaplace(domain, quad, coupling="high_order", load=0.0):
    """Mixed-FEM squared-Laplacian solve with auxiliary z = laplace(u).

    Coupling across subdomains uses boundary-only rows on u alone
    (``value_only``), on u plus one-sided derivatives (``low_order``, 1D), or
    on u and z (``high_order``). Dirichlet values come from the domain, and
    the boundary is simply supported: z = 0 wherever u is pinned. Unpinned
    boundaries get natural conditions (boundary terms are dropped).
    """
    if coupling not in BILAPLACE_COUPLINGS:
        raise SolverError("unknown bi-Laplace coupling %r" % (coupling,))
    Lp, M, Mf, cs, keep, Avalue = _bilaplace_setup(domain, quad, load)
    N = domain.total_vertices
    Au, Az = Avalue, sp.csr_matrix((0, N))
    if coupling == "low_order":
        Au = sp.vstack([Avalue, _low_order_rows(domain, cs.take(keep))], format="csr")
    elif coupling == "high_order":
        Az = Avalue

    core = sp.bmat([[None, Lp.T], [Lp, -M]])
    rhs = np.concatenate([Mf, np.zeros(N)])
    pins = domain.pins
    fixed = pins + [(N + g, 0.0) for g, _ in pins]
    inner = solve_kkt(core, rhs, sp.block_diag([Au, Az]), fixed=fixed)
    return replace(
        inner, u=inner.u[:N], z=inner.u[N:], offsets=domain.offsets, constraints=cs,
        multipliers=inner.multipliers[: Au.shape[0]], dropped_rows=len(cs) - len(keep),
    )


def solve_bilaplace_convex(domain, quad, load=0.0):
    """High-order-coupled bi-Laplace as a convex QP min ||y||^2 over (u, lam_z, y).

    Equality constraints: A u = 0 and L u + A^T lam_z = sqrt(M) y, with the
    mass square root taken entrywise on the lumped diagonal. As in
    :func:`solve_bilaplace`, z = 0 wherever u is pinned, so those vertices
    drop their defining rows and the two solvers agree on shared
    configurations.
    """
    # Avalue^T is the lam_z block: dependent rows leave lam_z free, which -eps I cannot repair.
    Lp, M, Mf, cs, _, Avalue = _bilaplace_setup(domain, quad, load)
    N = domain.total_vertices
    m = Avalue.shape[0]
    mdiag = M.diagonal()
    pins = domain.pins
    z_free = np.ones(N, dtype=bool)
    z_free[[g for g, _ in pins]] = False
    nu = int(z_free.sum())
    Msqrt_u = sp.diags(np.sqrt(mdiag[z_free]))

    # Variables: (u, lam_z, y over free-z rows); objective ||y||^2 - 2 (M f)^T u.
    Q = sp.block_diag(
        [sp.csr_matrix((N, N)), sp.csr_matrix((m, m)), 2.0 * sp.eye(nu)], format="csr"
    )
    b = np.concatenate([2.0 * Mf, np.zeros(m), np.zeros(nu)])
    top = sp.hstack([Avalue, sp.csr_matrix((m, m + nu))])
    bottom = sp.hstack([Lp[z_free], Avalue.T[z_free], -Msqrt_u])
    A = sp.vstack([top, bottom], format="csr")
    c = np.zeros(m + nu)
    inner = solve_kkt(Q, b, A, c, fixed=pins)

    z = np.zeros(N)
    z[z_free] = inner.u[N + m :] / np.sqrt(mdiag[z_free])
    return replace(
        inner, u=inner.u[:N], z=z, offsets=domain.offsets, constraints=cs,
        multipliers=inner.multipliers[:m] / 2.0, dropped_rows=len(cs) - m,
    )


def constrained_modes(L, M, A, k):
    """Smallest k generalized eigenpairs of (L, M) restricted to null(A).

    The eigenvectors are Z w with B w = 0, B = A[leftover] Z (:func:`_eliminate`).
    Shift-invert Lanczos (``eigsh``) on ([Z^T L Z B^T; B 0], [Z^T M Z 0; 0 0])
    at sigma = -tr(L) / (tr(M) N), below the spectrum and scaled with it, has
    :class:`_SaddleSolver` on Z^T (L - sigma M) Z and B as inverse operator
    (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998, ch. 3-4). Returns
    a list of (eigenvalue, eigenvector), eigenvalues nondecreasing. Raises
    :class:`SolverError` unless k is below the dimension of null(A).
    """
    L, M = sp.csr_matrix(L), sp.csr_matrix(M)
    N = L.shape[0]
    A = sp.csr_matrix((0, N)) if A is None else sp.csr_matrix(A)
    sigma = -L.diagonal().sum() / (M.diagonal().sum() * N)
    A = A[_distinct_rows(A)]
    Z, _, leftover = _eliminate(A)
    K, B = L - sigma * M, A
    if Z is not None:
        K, M, B = Z.T @ K @ Z, Z.T @ M @ Z, A[leftover] @ Z
    m, n = B.shape
    if k >= n - m:
        raise SolverError("%d modes need more than the %d degrees of freedom left" % (k, n - m))
    # A fixed-seed random start keeps the output reproducible (all ones is the
    # Neumann constant mode); the Lanczos basis cannot outgrow the free dimension.
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n + m)
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
    saddle = _SaddleSolver(K, B)
    OPinv = LinearOperator((n + m,) * 2, matvec=saddle.solve, dtype=float)
    try:
        # In shift-invert mode eigsh reads only the shape and dtype of its first argument.
        vals, vecs = eigsh(
            OPinv, k, M=sp.block_diag([M, sp.csr_matrix((m, m))]), sigma=sigma, v0=v0,
            OPinv=OPinv, ncv=min(n - m, max(2 * k + 1, 20)),
        )
    except ArpackError as exc:
        raise SolverError("eigensolver failed: %s" % exc) from None
    vecs = vecs[:n] if Z is None else Z @ vecs[:n]
    return [(float(vals[i]), vecs[:, i]) for i in np.argsort(vals)]
