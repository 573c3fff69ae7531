"""Point location and barycentric coordinates over simplicial meshes."""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "PointLocation",
    "PointLocator",
    "barycentric_coordinates",
    "locate_point",
    "locate_points",
    "batch_coordinates",
    "brute_force_locate",
    "coverage_count",
    "coverage_counts",
    "other_coverage_counts",
    "containment_tolerance",
    "build_trees",
]

# Barycentric containment slack. Barycentric coordinates have no unit, so
# the slack is the same whatever the element size.
CONTAINMENT_TOL = 1e-10

# Candidate pairs are gathered this many at a time, which bounds the memory
# held while they are filtered and their coordinates computed.
_BLOCK_PAIRS = 1 << 17


class GeometryError(ValueError):
    pass


@dataclass
class PointLocation:
    """A containing simplex plus the point's barycentric coordinates in it."""

    simplex: int
    coords: np.ndarray


def barycentric_coordinates(simplex_vertices, p):
    """Barycentric coordinates of ``p`` with respect to d+1 simplex corners.

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


def containment_tolerance(mesh):
    """Barycentric slack used by :func:`locate_point`; the same for every mesh."""
    return CONTAINMENT_TOL


class PointLocator:
    """Uniform grid over one mesh's padded simplex boxes.

    Padding: if p has barycentric coordinates lam >= -tol in a simplex with
    corners x_i, then per axis p - min x_i = sum lam_i (x_i - min x_i) >=
    -(d+1) tol extent, and likewise above max x_i. Each box is widened by that
    plus a rounding slack of sqrt(eps) (extent + largest |x|): coordinates
    computed from p - x_0 are off by about eps cond (extent + |x|) in length,
    so condition numbers up to 1/sqrt(eps) are covered.

    Grid: the cell size gives about one cell per simplex over the union of
    the padded boxes (an axis shorter than a cell gets one cell), so there
    are at most 2^d t cells. Each cell lists, ascending, the simplices whose
    padded box overlaps it. Boxes and points get cells by the same monotone
    rounding, so the candidates of a point (the simplices of its cell whose
    padded box holds it) include every simplex the check with ``tol`` accepts.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.tol = containment_tolerance(mesh)
        d, t = mesh.dim, mesh.num_simplices
        corners = mesh.vertices[mesh.simplices]
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        slack = np.sqrt(np.finfo(float).eps) * (hi - lo + np.maximum(np.abs(lo), np.abs(hi)))
        pad = (d + 1) * self.tol * (hi - lo) + slack
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

    def cells(self, points):
        """Grid cell of each point (the empty last cell outside the grid)."""
        index = np.floor((points - self.origin) / self.cell)
        inside = ((index >= 0) & (index < self.shape)).all(axis=1)
        index = np.where(inside[:, None], index, 0).astype(np.int64)
        flat = np.ravel_multi_index(tuple(index.T), self.shape)
        return np.where(inside, flat, len(self.bin_size) - 1)

    def candidates(self, points):
        """(point index, simplex index) pairs whose padded box holds the point,
        ordered by point, then simplex."""
        cells = self.cells(points)
        n = self.bin_size[cells]
        pi = np.repeat(np.arange(len(points)), n)
        si = self.bins[np.arange(len(pi)) + np.repeat(self.bin_start[cells] - np.cumsum(n) + n, n)]
        for k in range(self.mesh.dim):
            x = points[pi, k]
            keep = (self.lo[k, si] <= x) & (x <= self.hi[k, si])
            pi, si = pi[keep], si[keep]
        return pi, si

    def coordinates(self, points, simplices):
        """Barycentric coordinates of each point in its paired simplex."""
        first = self.mesh.vertices[self.mesh.simplices[simplices, 0]]
        xi = np.einsum("mij,mj->mi", self.mesh.edge_inverses[simplices], points - first)
        return np.column_stack([1.0 - xi.sum(axis=1), xi])


def _best_containing(mesh, candidate_ids, p, tol):
    for t in sorted(candidate_ids):
        coords = barycentric_coordinates(mesh.vertices[mesh.simplices[t]], p)
        if coords.min() >= -tol:
            return PointLocation(int(t), coords)
    return None


def locate_point(tree, p):
    """Find a simplex of ``tree.mesh`` containing ``p`` (closed containment,
    lowest index wins).

    Returns None when no simplex contains the point within ``tree.tol``.
    """
    p = np.asarray(p, dtype=float)
    _, si = tree.candidates(p[None, :])
    return _best_containing(tree.mesh, si, p, tree.tol)


def locate_points(tree, points):
    """Vectorized :func:`locate_point` over many points.

    Returns an int array of containing simplex indices (-1 where none), with
    the same lowest-index tie-break as the scalar version.
    """
    points = np.asarray(points, dtype=float)
    sentinel = np.iinfo(np.int64).max
    found = np.full(len(points), sentinel, dtype=np.int64)
    block = np.cumsum(tree.bin_size[tree.cells(points)]) // _BLOCK_PAIRS
    edges = np.r_[0, np.flatnonzero(np.diff(block)) + 1, len(points)]
    for start, stop in zip(edges[:-1], edges[1:]):
        pi, si = tree.candidates(points[start:stop])
        pi += start
        ok = np.ones(len(pi), dtype=bool)
        for column in tree.coordinates(points[pi], si).T:  # faster than a row-wise min
            ok &= column >= -tree.tol
        np.minimum.at(found, pi[ok], si[ok])
    found[found == sentinel] = -1
    return found


def batch_coordinates(tree, points, simplices):
    """Barycentric coordinates of each point in its paired simplex."""
    return tree.coordinates(np.asarray(points, dtype=float), np.asarray(simplices, dtype=np.int64))


def brute_force_locate(mesh, p, tol=None):
    """Reference implementation of :func:`locate_point` scanning all simplices."""
    if tol is None:
        tol = containment_tolerance(mesh)
    return _best_containing(mesh, range(mesh.num_simplices), p, tol)


def coverage_count(domain, p):
    """Number of subdomains whose mesh contains ``p`` (closed containment)."""
    return sum(locate_point(tree, p) is not None for tree in domain.locators)


def coverage_counts(domain, points):
    """Vector of coverage counts for many points."""
    return other_coverage_counts(domain, None, points)


def other_coverage_counts(domain, k, points):
    """Number of subdomains other than ``k`` (None: any) whose mesh contains each point."""
    points = np.asarray(points, dtype=float)
    counts = np.zeros(len(points), dtype=np.int64)
    for b, tree in enumerate(domain.locators):
        if b != k:
            counts += locate_points(tree, points) >= 0
    return counts


def build_trees(domain):
    """One :class:`PointLocator` per subdomain, in subdomain order.

    Called once per domain by ``DeconstructedDomain.locators``.
    """
    return [PointLocator(mesh) for mesh in domain.subdomains]
