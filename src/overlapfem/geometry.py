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

# Barycentric containment slack, as a fraction of the mesh bbox diagonal.
CONTAINMENT_TOL_FACTOR = 1e-10

# Points are matched against the centroid tree this many at a time, which
# bounds the memory held by candidate pairs.
_BLOCK = 16384


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
    """Barycentric slack used by :func:`locate_point` for this mesh."""
    return CONTAINMENT_TOL_FACTOR * mesh.bbox_diagonal()


def _kdtree(points):
    # Imported on first use: scipy.spatial adds about 0.1 s to `import overlapfem`.
    from scipy.spatial import cKDTree

    return cKDTree(points)


class PointLocator:
    """KD-tree over one mesh's simplex centroids plus per-simplex inverse edges.

    With R the largest centroid-corner distance, a point whose barycentric
    coordinates in a simplex are all >= -tol lies within R (1 + 2 (d+1) tol)
    of that simplex's centroid, so a ball of that radius (plus ``tol`` for
    rounding) gathers every simplex the barycentric check can accept.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        corners = mesh.vertices[mesh.simplices]
        centroids = corners.mean(axis=1)
        self.radius = float(np.linalg.norm(corners - centroids[:, None, :], axis=2).max())
        self.edge_inv = np.linalg.inv(np.swapaxes(corners[:, 1:, :] - corners[:, :1, :], 1, 2))
        self.kd = _kdtree(centroids)

    def candidates(self, points, tol):
        """(point index, simplex index) pairs within the containment radius."""
        r = self.radius * (1.0 + 2.0 * (self.mesh.dim + 1) * tol) + tol
        pairs = _kdtree(points).sparse_distance_matrix(self.kd, r, output_type="ndarray")
        return pairs["i"].astype(np.int64), pairs["j"].astype(np.int64)

    def coordinates(self, points, simplices):
        """Barycentric coordinates of each point in its paired simplex."""
        first = self.mesh.vertices[self.mesh.simplices[simplices, 0]]
        xi = np.einsum("mij,mj->mi", self.edge_inv[simplices], points - first)
        return np.column_stack([1.0 - xi.sum(axis=1), xi])


def _best_containing(mesh, candidate_ids, p, tol):
    for t in sorted(candidate_ids):
        coords = barycentric_coordinates(mesh.vertices[mesh.simplices[t]], p)
        if coords.min() >= -tol:
            return PointLocation(int(t), coords)
    return None


def locate_point(tree, p, tol=None):
    """Find a simplex of ``tree.mesh`` containing ``p`` (closed containment,
    lowest index wins).

    Returns None when no simplex contains the point within tolerance.
    """
    if tol is None:
        tol = containment_tolerance(tree.mesh)
    p = np.asarray(p, dtype=float)
    _, si = tree.candidates(p[None, :], tol)
    return _best_containing(tree.mesh, si, p, tol)


def locate_points(tree, points, tol=None):
    """Vectorized :func:`locate_point` over many points.

    Returns an int array of containing simplex indices (-1 where none), with
    the same lowest-index tie-break as the scalar version.
    """
    points = np.asarray(points, dtype=float)
    if tol is None:
        tol = containment_tolerance(tree.mesh)
    sentinel = np.iinfo(np.int64).max
    found = np.full(len(points), sentinel, dtype=np.int64)
    for start in range(0, len(points), _BLOCK):
        pi, si = tree.candidates(points[start : start + _BLOCK], tol)
        pi += start
        ok = tree.coordinates(points[pi], si).min(axis=1) >= -tol
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
