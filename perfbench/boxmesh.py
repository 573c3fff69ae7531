"""Deterministic Kuhn-split tetrahedral unit cubes written as DMESH text.

The cube [x0, x0 + 1] x [0, 1] x [0, 1] is cut into cells of side 1/n and
every cell into the six Kuhn (Freudenthal) tetrahedra that share its main
diagonal, so neighbouring cells meet face to face. Coordinates are dyadic
when n is a power of two, so two cubes whose offsets differ by a multiple of
1/n put their shared vertices at bit-identical positions.
"""

from itertools import permutations

import numpy as np

# The six Kuhn tetrahedra walk from the cube's low corner to its high corner
# one unit step at a time, one tetrahedron per order of the three axes.
_KUHN_ORDERS = tuple(permutations(range(3)))


def cube_arrays(x0, n):
    """Vertex coordinates ((n+1)^3, 3) and tetrahedra (6 n^3, 4) of one cube.

    Vertex (i, j, k) has index i + (n+1) * (j + (n+1) * k) and position
    (x0 + i/n, j/n, k/n).
    """
    k, j, i = np.meshgrid(*(np.arange(n + 1),) * 3, indexing="ij")
    vertices = np.column_stack([x0 + i.ravel() / n, j.ravel() / n, k.ravel() / n])
    step = np.array([1, n + 1, (n + 1) ** 2])
    cell = np.arange(n)
    ci, cj, ck = np.meshgrid(cell, cell, cell, indexing="ij")
    low = (ci * step[0] + cj * step[1] + ck * step[2]).ravel()
    tets = []
    for order in _KUHN_ORDERS:
        walk = np.cumsum([0] + [step[a] for a in order])
        tets.append(low[:, None] + walk[None, :])
    return vertices, np.vstack(tets)


def dmesh_text(vertices, tets):
    """DMESH text of a tetrahedral mesh with 17-significant-digit coordinates."""
    lines = ["DIM 3", "VERTICES %d" % len(vertices)]
    lines.extend("%.17g %.17g %.17g" % tuple(v) for v in vertices)
    lines.append("SIMPLICES %d" % len(tets))
    lines.extend("%d %d %d %d" % tuple(t) for t in tets)
    return "\n".join(lines) + "\n"
