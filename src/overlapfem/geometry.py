"""Point location and barycentric coordinates over simplicial meshes."""

import numpy as np

# simplex_coordinates is left out: it is timed as part of locate_points.
__all__ = [
    "PointLocator",
    "locate_points",
    "other_coverage_counts",
    "build_trees",
]

# Barycentric containment slack. Barycentric coordinates have no unit, so
# the slack is the same whatever the element size.
CONTAINMENT_TOL = 1e-10

# Candidate pairs are gathered this many at a time, and the pairs that pass
# their box filter are checked a fraction of that many at a time (a checked
# pair holds about four times a candidate pair's bytes). This bounds the
# memory held while candidates are filtered and coordinates computed.
_BLOCK_PAIRS = 1 << 17
_BLOCK_CHECKS = _BLOCK_PAIRS // 8


def simplex_coordinates(mesh, points, simplices):
    """Barycentric coordinates of each point in its paired simplex, from the
    cached ``edge_inverses``: the one containment formula (every coordinate
    >= -CONTAINMENT_TOL), shared by location and coupling."""
    first = mesh.vertices[mesh.simplices[simplices, 0]]
    xi = np.einsum("mij,mj->mi", mesh.edge_inverses[simplices], points - first)
    return np.column_stack([1.0 - xi.sum(axis=1), xi])


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
    padded box holds it) include every simplex the containment check accepts.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        d, t = mesh.dim, mesh.num_simplices
        # (d, d+1, t): the boxes come out axis-major, as candidates filter one
        # axis at a time, and the corner reduction runs over whole rows.
        corners = np.take(mesh.vertices.T, mesh.simplices.T, axis=1)
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        del corners
        # In place, each temporary freed once used; + and * commute exactly.
        pad, slack = hi - lo, np.maximum(np.abs(lo), np.abs(hi))
        slack += pad
        slack *= np.sqrt(np.finfo(float).eps)
        pad *= (d + 1) * CONTAINMENT_TOL
        pad += slack
        lo -= pad
        hi += pad
        del pad, slack
        self.lo, self.hi = lo, hi
        self.origin, self.top = lo.min(axis=1), hi.max(axis=1)
        span = self.top - self.origin
        longest = np.sort(span)[::-1]
        for k in range(d, 0, -1):
            self.cell = (np.prod(longest[:k]) / t) ** (1.0 / k)
            if self.cell <= longest[k - 1]:
                break
        self.shape = tuple(np.floor(span / self.cell).astype(np.int64) + 1)
        first, last = (np.floor((b - self.origin[:, None]) / self.cell).astype(np.int32)
                       for b in (lo, hi))
        # Expand one axis at a time, simplex ids ascending, in place and in int32.
        ids, cells = np.arange(t, dtype=np.int32), np.zeros(t, dtype=np.int32)
        for k in range(d):
            n = last[k, ids] - first[k, ids] + 1
            step = np.repeat(n.cumsum(dtype=np.int32) - n, n)
            np.subtract(np.arange(len(step), dtype=np.int32), step, out=step)
            cells *= int(self.shape[k])
            cells += first[k, ids]
            step += np.repeat(cells, n)
            cells, ids = step, np.repeat(ids, n)
        del first, last, n, step
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

    def candidates(self, points, cells):
        """(point index, simplex index) pairs whose padded box holds the point,
        ordered by point, then simplex, given the points' :meth:`cells`."""
        n = self.bin_size[cells]
        pi = np.repeat(np.arange(len(points)), n)
        si = self.bins[np.arange(len(pi)) + np.repeat(self.bin_start[cells] - np.cumsum(n) + n, n)]
        for k in range(self.mesh.dim):
            x = points[pi, k]
            keep = (self.lo[k, si] <= x) & (x <= self.hi[k, si])
            pi, si = pi[keep], si[keep]
        return pi, si


def _contained(mesh, points, simplices):
    """Whether each point passes the containment check in its paired simplex."""
    ok = np.ones(len(points), dtype=bool)
    for start in range(0, len(points), _BLOCK_CHECKS):
        part = slice(start, start + _BLOCK_CHECKS)
        coords, block_ok = simplex_coordinates(mesh, points[part], simplices[part]), ok[part]
        for column in coords.T:  # faster than a row-wise min
            block_ok &= column >= -CONTAINMENT_TOL
        del coords, column  # freed before the next block's are made
    return ok


def locate_points(tree, points):
    """Index of a simplex of ``tree.mesh`` containing each point (closed
    containment, lowest index wins; -1 where none)."""
    points = np.asarray(points, dtype=float)
    found = np.full(len(points), -1, dtype=np.int64)
    cells = tree.cells(points)
    block = np.cumsum(tree.bin_size[cells]) // _BLOCK_PAIRS
    edges = np.r_[0, np.flatnonzero(np.diff(block)) + 1, len(points)]
    for start, stop in zip(edges[:-1], edges[1:]):
        pi, si = tree.candidates(points[start:stop], cells[start:stop])
        pi += start
        ok = _contained(tree.mesh, points[pi], si)
        pi, si = pi[ok], si[ok]
        first = np.diff(pi, prepend=-1) > 0  # by point, then simplex: the lowest index
        found[pi[first]] = si[first]
    return found


def other_coverage_counts(domain, k, points):
    """Number of subdomains other than ``k`` (None: any) whose mesh contains
    each point: (n, d) points give (n,) counts, and (t, q, d) points, q per
    element, give (t, q) counts.

    With q > 1, each element's q points are searched once, at their mean
    (jump-and-walk's start from a nearby located simplex; Muecke, Saias & Zhu
    1996), and each point is checked against the simplex found. A point that
    passes would be located by a search too, so only the points that fail,
    or whose element found no simplex, get a search of their own; the counts
    equal those of one search per point. With q > 1, an element with no point
    in the span of a mesh's padded simplex boxes is not searched in that mesh.
    """
    points = np.asarray(points, dtype=float)
    grouped = points[:, None] if points.ndim == 2 else points
    t, q, d = grouped.shape
    counts = np.zeros((t, q), dtype=np.int64)
    for b, tree in enumerate(domain.locators):
        if b == k:
            continue
        if q == 1:
            counts[:, 0] += locate_points(tree, grouped[:, 0]) >= 0
            continue
        spanned = (grouped >= tree.origin) & (grouped <= tree.top)
        near = np.flatnonzero(spanned.all(axis=2).any(axis=1))
        near_points = grouped[near]
        found = locate_points(tree, near_points.mean(axis=1))
        hit = np.flatnonzero(found >= 0)
        inside = np.zeros((len(near), q), dtype=bool)
        inside[hit] = _contained(tree.mesh, near_points[hit].reshape(-1, d),
                                 np.repeat(found[hit], q)).reshape(-1, q)
        rest = ~inside
        inside[rest] = locate_points(tree, near_points[rest]) >= 0
        counts[near] += inside
    return counts.reshape(points.shape[:-1])


def build_trees(domain):
    """One :class:`PointLocator` per subdomain, in subdomain order.

    Called once per domain by ``DeconstructedDomain.locators``.
    """
    return [PointLocator(mesh) for mesh in domain.subdomains]
