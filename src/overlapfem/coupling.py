"""Inter-subdomain equality constraints: all-vertex, boundary-only, and thinned."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import batch_coordinates, locate_points

__all__ = [
    "ConstraintRow",
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
class ConstraintRow:
    """One row "target vertex value = barycentric combination in another subdomain"."""

    target: tuple  # (subdomain a, vertex i)
    anchor: tuple  # (subdomain b, simplex index)
    anchor_vertices: np.ndarray  # (d+1,) vertex indices of the anchor simplex
    coefficients: np.ndarray  # (d+1,) barycentric weights over those vertices


@dataclass
class ConstraintSet:
    rows: list
    mode: str


def _pinned(domain):
    return {(sub, vert) for sub, vert, _ in domain.dirichlet}


def _pair_constraints(domain, targets_per_subdomain):
    pinned = _pinned(domain)
    K = len(domain.subdomains)
    rows = []
    for a in range(K):
        mesh_a = domain.subdomains[a]
        for b in range(K):
            if b == a:
                continue
            mesh_b = domain.subdomains[b]
            tree_b = domain.locators[b]
            verts = np.array(
                [v for v in targets_per_subdomain[a] if (a, v) not in pinned],
                dtype=np.int64,
            )
            if verts.size == 0:
                continue
            pts = mesh_a.vertices[verts]
            simplex = locate_points(tree_b, pts)
            hit = simplex >= 0
            coords = batch_coordinates(tree_b, pts[hit], simplex[hit])
            coords = np.round(coords / _COEFF_GRID) * _COEFF_GRID
            coords[:, 0] = 1.0 - coords[:, 1:].sum(axis=1)
            for v, t, cf in zip(verts[hit], simplex[hit], coords):
                rows.append(
                    ConstraintRow(
                        (a, int(v)),
                        (b, int(t)),
                        mesh_b.simplices[t].copy(),
                        cf,
                    )
                )
    return rows


def all_vertex_constraints(domain):
    """One row per ordered subdomain pair and vertex of one mesh inside the other."""
    targets = [range(m.num_vertices) for m in domain.subdomains]
    return ConstraintSet(_pair_constraints(domain, targets), ALL_VERTICES)


def boundary_only_constraints(domain):
    """As :func:`all_vertex_constraints`, but targets only subdomain-boundary vertices."""
    targets = [sorted(b) for b in domain.boundary_vertex_sets]
    return ConstraintSet(_pair_constraints(domain, targets), BOUNDARY_ONLY)


def _involved_vertices(row):
    a, i = row.target
    b, _ = row.anchor
    yield (a, int(i))
    for j in row.anchor_vertices:
        yield (b, int(j))


def thin_constraints(cs):
    """Keep exactly one (least saturated) row per target vertex.

    Each (subdomain, vertex) is scored by the number of rows involving it as
    target or anchor vertex; a row's score is the mean score of its involved
    vertices (target included). Scores are computed in a single pass on the
    input; ties break toward the lowest (anchor subdomain, anchor simplex,
    construction order). Kept rows are verbatim members of the input.
    """
    if cs.mode != BOUNDARY_ONLY:
        raise ValueError("thinning expects a boundary_only constraint set")
    vertex_score = {}
    for row in cs.rows:
        for key in _involved_vertices(row):
            vertex_score[key] = vertex_score.get(key, 0) + 1
    best = {}
    for order, row in enumerate(cs.rows):
        involved = list(_involved_vertices(row))
        score = sum(vertex_score[k] for k in involved) / len(involved)
        rank = (score, row.anchor[0], row.anchor[1], order)
        current = best.get(row.target)
        if current is None or rank < current[0]:
            best[row.target] = (rank, row)
    kept = [best[t][1] for t in sorted(best)]
    return ConstraintSet(kept, BOUNDARY_ONLY_THINNED)


def constraint_matrix(cs, offsets, N):
    """Materialize rows as a sparse (m, N) matrix: +1 at targets, -coeffs at anchors."""
    m = len(cs.rows)
    if m == 0:
        return sp.csr_matrix((0, N))
    offsets = np.asarray(offsets, dtype=np.int64)
    target = np.array([row.target for row in cs.rows], dtype=np.int64)
    anchor = np.array([row.anchor[0] for row in cs.rows], dtype=np.int64)
    cols = np.column_stack([
        offsets[target[:, 0]] + target[:, 1],
        offsets[anchor][:, None] + np.array([row.anchor_vertices for row in cs.rows]),
    ])
    vals = np.column_stack([np.ones(m), -np.array([row.coefficients for row in cs.rows])])
    rows = np.repeat(np.arange(m), cols.shape[1])
    return sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(m, N))


def constraints_to_csv(cs):
    """CSV dump: target_subdomain,target_vertex,anchor_subdomain,anchor_simplex,c0,...,cd."""
    if cs.rows:
        ncoef = len(cs.rows[0].coefficients)
    else:
        ncoef = 0
    header = "target_subdomain,target_vertex,anchor_subdomain,anchor_simplex"
    header += "".join(",c%d" % i for i in range(ncoef))
    lines = [header]
    for row in cs.rows:
        fields = [row.target[0], row.target[1], row.anchor[0], row.anchor[1]]
        lines.append(
            ",".join(str(f) for f in fields)
            + "".join(",%.17g" % c for c in row.coefficients)
        )
    return "\n".join(lines) + "\n"
