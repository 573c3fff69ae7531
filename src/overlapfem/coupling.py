"""Inter-subdomain equality constraints: all-vertex, boundary-only, and thinned."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import locate_points, simplex_coordinates

__all__ = [
    "ConstraintSet",
    "all_vertex_constraints",
    "boundary_only_constraints",
    "thin_constraints",
    "constraint_matrix",
    "constraints_to_csv",
]

# Barycentric coefficients are snapped to this grid, with the first
# coefficient absorbing the rounding defect. Every partial sum of row
# entries is then an exact multiple of the grid spacing, so rows sum to
# one exactly under any summation order (constant precision is exact;
# linear precision degrades only to ~1e-12).
_COEFF_GRID = 2.0**-40

ALL_VERTICES = "all_vertices"
BOUNDARY_ONLY = "boundary_only"
BOUNDARY_ONLY_THINNED = "boundary_only_thinned"


@dataclass
class ConstraintSet:
    """Rows "target vertex value = barycentric combination in another subdomain".

    Row r reads u(target[r]) = coefficients[r] . u(anchor_vertices[r]), the
    anchor vertices taken in subdomain anchor[r, 0]. ``target`` (m, 2) holds
    (subdomain a, vertex i); ``anchor`` (m, 2) holds (subdomain b, simplex
    index); ``anchor_vertices`` (m, d+1) the vertices of that simplex and
    ``coefficients`` (m, d+1) the barycentric weights over them.
    """

    mode: str
    target: np.ndarray
    anchor: np.ndarray
    anchor_vertices: np.ndarray
    coefficients: np.ndarray

    def __len__(self):
        return len(self.target)

    def take(self, rows, mode=None):
        """The given rows, in the given order, as a new set."""
        arrays = (self.target, self.anchor, self.anchor_vertices, self.coefficients)
        return ConstraintSet(mode or self.mode, *(x[rows] for x in arrays))


def _pair_constraints(domain, targets_per_subdomain, mode):
    """Rows for a, then b != a, then the targets of a in the given order."""
    pinned = np.zeros(domain.total_vertices, dtype=bool)
    pinned[[g for g, _ in domain.pins]] = True
    d1 = domain.dim + 1
    blocks = [(np.empty((0, 2), int), np.empty((0, 2), int),
               np.empty((0, d1), int), np.empty((0, d1)))]
    K = len(domain.subdomains)
    for a in range(K):
        verts = np.asarray(targets_per_subdomain[a], dtype=np.int64)
        verts = verts[~pinned[domain.offsets[a] + verts]]
        pts = domain.subdomains[a].vertices[verts]
        for b in range(K):
            if b == a or verts.size == 0:
                continue
            simplex = locate_points(domain.locators[b], pts)
            hit = simplex >= 0
            coords = simplex_coordinates(domain.subdomains[b], pts[hit], simplex[hit])
            coords = np.round(coords / _COEFF_GRID) * _COEFF_GRID
            coords[:, 0] = 1.0 - coords[:, 1:].sum(axis=1)
            v, t = verts[hit], simplex[hit]
            blocks.append((
                np.column_stack([np.full_like(v, a), v]),
                np.column_stack([np.full_like(t, b), t]),
                domain.subdomains[b].simplices[t],
                coords,
            ))
    return ConstraintSet(mode, *(np.concatenate(column) for column in zip(*blocks)))


def all_vertex_constraints(domain):
    """One row per ordered subdomain pair and vertex of one mesh inside the other."""
    targets = [range(m.num_vertices) for m in domain.subdomains]
    return _pair_constraints(domain, targets, ALL_VERTICES)


def boundary_only_constraints(domain):
    """As :func:`all_vertex_constraints`, but targets only subdomain-boundary vertices."""
    targets = [sorted(b) for b in domain.boundary_vertex_sets]
    return _pair_constraints(domain, targets, BOUNDARY_ONLY)


def thin_constraints(cs):
    """Keep exactly one (least saturated) row per target vertex.

    Each (subdomain, vertex) is scored by the number of rows involving it as
    target or anchor vertex; a row's score is the mean score of its involved
    vertices (target included). Scores are computed in a single pass on the
    input; ties break toward the lowest (anchor subdomain, anchor simplex,
    construction order). Kept rows are input rows, by ascending target.
    """
    if cs.mode != BOUNDARY_ONLY:
        raise ValueError("thinning expects a boundary_only constraint set")
    # Involved (subdomain, vertex) pairs, shape (m, d+2, 2): target, then anchor vertices.
    anchor_sub = np.broadcast_to(cs.anchor[:, :1], cs.anchor_vertices.shape)
    involved = np.concatenate(
        [cs.target[:, None, :], np.stack([anchor_sub, cs.anchor_vertices], axis=2)], axis=1
    )
    _, inverse = np.unique(involved.reshape(-1, 2), axis=0, return_inverse=True)
    inverse = inverse.ravel()  # numpy 1.x and 2.x shape it differently
    # Every row involves d+2 vertices, so the sum ranks rows as the mean does.
    score = np.bincount(inverse)[inverse].reshape(involved.shape[:2]).sum(axis=1)
    # lexsort is stable, so construction order breaks the remaining ties.
    order = np.lexsort((cs.anchor[:, 1], cs.anchor[:, 0], score, cs.target[:, 1], cs.target[:, 0]))
    target = cs.target[order]
    first = np.ones(len(cs), dtype=bool)
    first[1:] = (target[1:] != target[:-1]).any(axis=1)
    return cs.take(order[first], BOUNDARY_ONLY_THINNED)


def constraint_matrix(cs, offsets):
    """Materialize rows as a sparse (m, offsets[-1]) matrix: +1 at targets, -coeffs at anchors."""
    offsets = np.asarray(offsets, dtype=np.int64)
    cols = np.column_stack([
        offsets[cs.target[:, 0]] + cs.target[:, 1],
        offsets[cs.anchor[:, 0]][:, None] + cs.anchor_vertices,
    ])
    vals = np.column_stack([np.ones(len(cs)), -cs.coefficients])
    rows = np.repeat(np.arange(len(cs)), cols.shape[1])
    return sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(len(cs), int(offsets[-1])))


def constraints_to_csv(cs):
    """CSV dump: target_subdomain,target_vertex,anchor_subdomain,anchor_simplex,c0,...,cd."""
    ncoef = cs.coefficients.shape[1] if len(cs) else 0
    header = "target_subdomain,target_vertex,anchor_subdomain,anchor_simplex"
    header += "".join(",c%d" % i for i in range(ncoef))
    fmt = "%d,%d,%d,%d" + ",%.17g" * ncoef
    ids = np.column_stack([cs.target, cs.anchor]).tolist()
    lines = [fmt % (*i, *c) for i, c in zip(ids, cs.coefficients.tolist())]
    return "\n".join([header, *lines]) + "\n"
