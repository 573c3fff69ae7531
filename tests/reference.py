"""Reference arithmetic that tests check the library against, and the meshes
and measurements they share; no library code calls it."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from overlapfem import DeconstructedDomain, MeshError, SimplicialMesh
from overlapfem.fem import _hat_gradients
from overlapfem.geometry import CONTAINMENT_TOL, locate_points, simplex_coordinates
from overlapfem.mesh import _boundary_facet_array, _polar_grid_triangles
from overlapfem.solver import _SaddleSolver, _distinct_rows


class GeometryError(ValueError):
    pass


def barycentric_coordinates(simplex_vertices, p):
    """Barycentric coordinates of ``p`` in d+1 simplex corners by one LAPACK
    solve; a reference for ``geometry.simplex_coordinates``, which location uses.

    Coordinates always sum to one; they are negative for exterior points.
    """
    X = np.asarray(simplex_vertices, dtype=float)
    p = np.asarray(p, dtype=float)
    d = X.shape[1]
    A = np.vstack([np.ones(d + 1), X.T])
    rhs = np.concatenate([[1.0], p])
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise GeometryError("degenerate simplex in barycentric_coordinates") from None


def brute_force_locate(mesh, p):
    """Reference for :func:`locate_points` on one point: no grid, the
    containment check on every simplex, and the first simplex in index order
    that passes (-1 where none)."""
    coords = simplex_coordinates(mesh, np.asarray(p, dtype=float), np.arange(mesh.num_simplices))
    inside = np.flatnonzero((coords >= -CONTAINMENT_TOL).all(axis=1))
    return int(inside[0]) if inside.size else -1


def gradient_matrix(mesh):
    """Sparse per-element gradient operator, shape (d*t, n).

    Rows d*k .. d*k+d-1 hold the constant gradient of the piecewise-linear
    interpolant on simplex k.
    """
    g = _hat_gradients(mesh)
    _, d, t = g.shape
    rows = np.broadcast_to(d * np.arange(t) + np.arange(d)[:, None], g.shape)
    cols = np.broadcast_to(mesh.simplices.T[:, None, :], g.shape)
    return sp.csr_matrix(
        (g.ravel(), (rows.ravel(), cols.ravel())), shape=(d * t, mesh.num_vertices)
    )


def boundary_facets(mesh):
    """Facets (sorted d-tuples of vertex indices) incident to exactly one simplex."""
    return [tuple(f) for f in _boundary_facet_array(mesh).tolist()]


def bbox_diagonal(domain):
    """Diagonal length of the bounding box of all of a domain's vertices."""
    pts = domain.stacked_vertices()
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


class PointLocatorGather:
    """Reference for ``geometry.PointLocator.__init__``: the grid built from
    a (t, d+1, d) corner gather with plain, allocating array expressions."""

    def __init__(self, mesh):
        self.mesh = mesh
        d, t = mesh.dim, mesh.num_simplices
        corners = mesh.vertices[mesh.simplices]
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        slack = np.sqrt(np.finfo(float).eps) * (hi - lo + np.maximum(np.abs(lo), np.abs(hi)))
        pad = (d + 1) * CONTAINMENT_TOL * (hi - lo) + slack
        lo, hi = lo - pad, hi + pad
        # Axis-major, so that candidates filter one axis at a time.
        self.lo, self.hi = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
        self.origin = lo.min(axis=0)
        span = hi.max(axis=0) - self.origin
        longest = np.sort(span)[::-1]
        for k in range(d, 0, -1):
            self.cell = (np.prod(longest[:k]) / t) ** (1.0 / k)
            if self.cell <= longest[k - 1]:
                break
        self.shape = tuple(np.floor(span / self.cell).astype(np.int64) + 1)
        first, last = (np.floor((b - self.origin) / self.cell).astype(np.int32) for b in (lo, hi))
        # Expand one axis at a time, simplex ids ascending. int32 halves the memory.
        ids, cells = np.arange(t, dtype=np.int32), np.zeros(t, dtype=np.int32)
        for k in range(d):
            n = last[ids, k] - first[ids, k] + 1
            step = np.arange(n.sum(), dtype=np.int32) - np.repeat(n.cumsum(dtype=np.int32) - n, n)
            cells = np.repeat(cells, n) * int(self.shape[k]) + np.repeat(first[ids, k], n) + step
            ids = np.repeat(ids, n)
        # The extra, empty last cell stands for everything outside the grid.
        self.bin_size = np.bincount(cells, minlength=np.prod(self.shape) + 1)
        self.bin_start = np.cumsum(self.bin_size) - self.bin_size
        # Sort by cell, then simplex, as one int64 key sorted in place. An
        # argsort's index array and merge buffer, next to cells and ids, left
        # freed heap behind that stayed resident through the solve.
        keys = cells.astype(np.int64)
        del cells
        keys *= t
        keys += ids
        del ids
        keys.sort()
        np.remainder(keys, t, out=keys)
        self.bins = keys.astype(np.int32)


def stiffness_matrix_coo(mesh, a):
    """Reference for ``fem.stiffness_matrix``: the same COO sum, with int64
    indices broadcast from ``mesh.simplices`` and every input held to the end."""
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
    s = mesh.simplices.T
    rows, cols = (np.broadcast_to(x, local.shape).ravel() for x in (s[:, None], s[None, :]))
    L = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    # Entries that cancel exactly are dropped, as a sparse product drops them.
    L.eliminate_zeros()
    return L


def kuhn_box(n, x0=0.0):
    """The cube [x0, x0 + 1] x [0, 1]^2 cut into n^3 cells of six Kuhn
    tetrahedra each: the benchmark's own mesh, from ``perfbench/boxmesh.py``
    loaded by path. Boxes whose x0 differ by multiples of 1/n (n a power of
    two) share their grid points bit for bit."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "boxmesh.py"
    spec = importlib.util.spec_from_file_location("boxmesh", path)
    boxmesh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(boxmesh)
    return SimplicialMesh(3, *boxmesh.cube_arrays(x0, n))


def three_kuhn_boxes():
    """Kuhn boxes (0, 4), (0.5, 6) and (0.25, 4), u pinned to 0 on x = 0 and
    x = 1.5. Its 446 distinct boundary-only rows on the free vertices have
    rank 304, so every bi-Laplace saddle matrix K of it is singular."""
    meshes = [kuhn_box(4), kuhn_box(6, 0.5), kuhn_box(4, 0.25)]
    pins = [(k, int(v), 0.0) for k, mesh in enumerate(meshes)
            for v in np.flatnonzero(np.isin(mesh.vertices[:, 0], (0.0, 1.5)))]
    return DeconstructedDomain(meshes, pins)


def generate_disk(radius, n_r, n_t, theta_offset=0.0, center=(0.0, 0.0)):
    """Structured triangulation of a disk: a center fan plus n_r-1 polar rings."""
    if radius <= 0:
        raise MeshError("radius must be positive")
    if n_r < 1 or n_t < 3:
        raise MeshError("need n_r >= 1 and n_t >= 3")
    cx, cy = center
    theta = theta_offset + 2 * np.pi * np.arange(n_t) / n_t
    r = (radius * np.arange(1, n_r + 1) / n_r)[:, None]
    rings = np.column_stack([(cx + r * np.cos(theta)).ravel(), (cy + r * np.sin(theta)).ravel()])
    j = np.arange(n_t)
    fan = np.column_stack([np.zeros(n_t, dtype=np.int64), 1 + j, 1 + (j + 1) % n_t])
    tris = np.vstack([fan, 1 + _polar_grid_triangles(n_r - 1, n_t)])
    return SimplicialMesh(2, np.vstack([[cx, cy], rings]), tris)


def submesh(mesh, simplex_ids):
    """Mesh restricted to the given simplices, with vertices reindexed."""
    simplex_ids = np.asarray(simplex_ids, dtype=np.int64)
    if simplex_ids.size == 0:
        raise MeshError("submesh selection is empty")
    keep = mesh.simplices[simplex_ids]
    old = np.unique(keep)
    remap = np.full(mesh.num_vertices, -1, dtype=np.int64)
    remap[old] = np.arange(len(old))
    return SimplicialMesh(mesh.dim, mesh.vertices[old], remap[keep])


def other_coverage_counts_per_point(domain, k, points):
    """Reference for ``geometry.other_coverage_counts``: one ``locate_points``
    search per point in every subdomain other than ``k`` (None: any)."""
    points = np.asarray(points, dtype=float)
    counts = np.zeros(len(points), dtype=np.int64)
    for b, tree in enumerate(domain.locators):
        if b != k:
            counts += locate_points(tree, points) >= 0
    return counts


def traced_transient(build):
    """``build()`` and the bytes it allocated at its peak beyond what it
    still holds on return, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        out = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - current


def saddle_pencil_modes(L, M, A, k):
    """Reference for ``solver.constrained_modes``: (eigenvalues, eigenvectors as
    columns) by shift-invert Lanczos on the full pencil ([L A^T; A 0],
    [M 0; 0 0]) over the distinct rows of A, with :class:`_SaddleSolver` on
    L - sigma M and A as the inverse operator; no variable is eliminated."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    L, M = sp.csr_matrix(L), sp.csr_matrix(M)
    N = L.shape[0]
    A = sp.csr_matrix((0, N)) if A is None else sp.csr_matrix(A)
    A = A[_distinct_rows(A)]
    m = A.shape[0]
    sigma = -L.diagonal().sum() / (M.diagonal().sum() * N)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, N + m)
    OPinv = LinearOperator((N + m,) * 2, matvec=_SaddleSolver(L - sigma * M, A).solve, dtype=float)
    vals, vecs = eigsh(
        OPinv, k, M=sp.block_diag([M, sp.csr_matrix((m, m))]), sigma=sigma, v0=v0, OPinv=OPinv,
        ncv=min(N - m, max(2 * k + 1, 20)),
    )
    order = np.argsort(vals)
    return vals[order], vecs[:N, order]
