"""Reference arithmetic that tests check the library against; no library code calls it."""

import numpy as np
import scipy.sparse as sp

from overlapfem.fem import _hat_gradients


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


def bbox_diagonal(domain):
    """Diagonal length of the bounding box of all of a domain's vertices."""
    pts = domain.stacked_vertices()
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
