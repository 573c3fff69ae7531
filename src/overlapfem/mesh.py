"""Simplicial meshes in 1D/2D/3D, test-mesh generators and the DMESH text format."""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .geometry import build_trees

__all__ = [
    "MeshError",
    "ParseError",
    "SimplicialMesh",
    "DeconstructedDomain",
    "load_mesh",
    "save_mesh",
    "generate_segment",
    "generate_annulus",
    "generate_disk",
    "submesh",
    "boundary_facets",
    "boundary_vertices",
    "simplex_measure",
    "simplex_measures",
]

# A simplex whose measure falls below this fraction of diag^d is degenerate.
DEGENERACY_FACTOR = 1e-14


class MeshError(ValueError):
    pass


class ParseError(MeshError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass
class SimplicialMesh:
    """A d-dimensional simplicial mesh: vertex coordinates plus (d+1)-tuples of indices.

    Simplices are re-oriented to positive signed measure on construction;
    degenerate or out-of-range simplices raise :class:`MeshError`.
    """

    dim: int
    vertices: np.ndarray
    simplices: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise MeshError("dim must be 1, 2 or 3, got %r" % (self.dim,))
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.simplices = np.ascontiguousarray(self.simplices, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.dim:
            raise MeshError("vertices must have shape (n, %d)" % self.dim)
        # A NaN coordinate gives a NaN measure, which passes the degeneracy test.
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            raise MeshError("vertex %d has a non-finite coordinate" % int(np.argmin(finite)))
        if self.simplices.ndim != 2 or self.simplices.shape[1] != self.dim + 1:
            raise MeshError("simplices must have shape (t, %d)" % (self.dim + 1))
        n = len(self.vertices)
        out_of_range = ((self.simplices < 0) | (self.simplices >= n)).any(axis=1)
        if out_of_range.any():
            bad = int(np.argmax(out_of_range))
            raise MeshError("simplex %d references a vertex index outside [0, %d)" % (bad, n))
        if len(self.simplices) == 0:
            raise MeshError("mesh has no simplices")
        used = np.zeros(n, dtype=bool)
        used[self.simplices.ravel()] = True
        if not used.all():
            raise MeshError("vertex %d is not referenced by any simplex" % int(np.argmin(used)))
        # Orient consistently, then reject degenerate elements.
        signed = self._signed_measures()
        flip = signed < 0
        if flip.any():
            self.simplices = self.simplices.copy()
            self.simplices[flip, -2:] = self.simplices[flip, -2:][:, ::-1]
            signed = np.abs(signed)
        thresh = DEGENERACY_FACTOR * self.bbox_diagonal() ** self.dim
        if (signed <= thresh).any():
            bad = int(np.argmax(signed <= thresh))
            raise MeshError("simplex %d is degenerate (measure %g)" % (bad, signed[bad]))

    def _signed_measures(self):
        corners = self.vertices[self.simplices]
        edges = corners[:, 1:, :] - corners[:, :1, :]
        if self.dim == 1:
            det = edges[:, 0, 0]
        else:
            det = np.linalg.det(edges)
        return det / _factorial(self.dim)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_simplices(self):
        return len(self.simplices)

    def bbox(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def bbox_diagonal(self):
        lo, hi = self.bbox()
        return float(np.linalg.norm(hi - lo))


def _factorial(d):
    return (1, 1, 2, 6)[d]


def simplex_measures(mesh):
    """Positive d-measures of all simplices as an array of length t."""
    return np.abs(mesh._signed_measures())


def simplex_measure(mesh, t):
    """Length/area/volume of simplex ``t``."""
    if not 0 <= t < mesh.num_simplices:
        raise IndexError("simplex index %d out of range" % t)
    return float(simplex_measures(mesh)[t])


def _boundary_facet_array(mesh):
    """Boundary facets as rows of sorted vertex indices, in lexicographic order.

    Each sorted facet is keyed by one int64, v0 n^(d-1) + ... + v(d-1) with
    n the vertex count, so a 1-D unique finds the facets used once; the key
    order is the lexicographic row order. The key fits while n^d < 2^63.
    """
    d, n = mesh.dim, mesh.num_vertices
    drop = np.array(list(combinations(range(d + 1), d)), dtype=np.int64)
    facets = np.sort(mesh.simplices[:, drop].reshape(-1, d), axis=1)
    keys = facets @ (n ** np.arange(d - 1, -1, -1, dtype=np.int64))
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return facets[first[counts == 1]]


def boundary_facets(mesh):
    """Facets (sorted d-tuples of vertex indices) incident to exactly one simplex."""
    return [tuple(f) for f in _boundary_facet_array(mesh).tolist()]


def boundary_vertices(mesh):
    """Set of vertex indices lying on the mesh boundary."""
    return set(np.unique(_boundary_facet_array(mesh)).tolist())


@dataclass
class DeconstructedDomain:
    """An ordered union of overlapping subdomain meshes plus Dirichlet data.

    ``dirichlet`` holds (subdomain index, local vertex index, value) triples;
    each pinned vertex must lie on its subdomain's boundary.
    """

    subdomains: list
    dirichlet: list = field(default_factory=list)

    def __post_init__(self):
        if not self.subdomains:
            raise MeshError("domain needs at least one subdomain")
        dims = {m.dim for m in self.subdomains}
        if len(dims) != 1:
            raise MeshError("subdomains have mixed dimensions %r" % sorted(dims))
        for sub, vert, _ in self.dirichlet:
            if not 0 <= sub < len(self.subdomains):
                raise MeshError("dirichlet subdomain index %d out of range" % sub)
            if vert not in self.boundary_vertex_sets[sub]:
                raise MeshError(
                    "dirichlet vertex %d of subdomain %d is not a boundary vertex" % (vert, sub)
                )

    @cached_property
    def boundary_vertex_sets(self):
        """:func:`boundary_vertices` of each subdomain, computed once."""
        return [boundary_vertices(m) for m in self.subdomains]

    @cached_property
    def locators(self):
        """One :class:`~overlapfem.geometry.PointLocator` per subdomain, built on
        first use and shared by assembly, coupling and the harness probes."""
        return build_trees(self)

    @property
    def dim(self):
        return self.subdomains[0].dim

    @property
    def offsets(self):
        """Cumulative global vertex offsets, length K+1 (last entry = total)."""
        sizes = [m.num_vertices for m in self.subdomains]
        return np.concatenate([[0], np.cumsum(sizes)])

    @property
    def total_vertices(self):
        return int(self.offsets[-1])

    def global_index(self, sub, vert):
        return int(self.offsets[sub]) + int(vert)

    def stacked_vertices(self):
        """All subdomain vertex coordinates stacked in global order, shape (N, d)."""
        return np.vstack([m.vertices for m in self.subdomains])

    def bbox_diagonal(self):
        pts = self.stacked_vertices()
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


# ---------------------------------------------------------------------------
# DMESH text format


def load_mesh(text):
    """Parse DMESH text into a :class:`SimplicialMesh`.

    Raises :class:`ParseError` with a line number on malformed input.
    """
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        for tok in body.split():
            tokens.append((tok, lineno))
    pos = 0

    def take(expect=None):
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][1] if tokens else 1
            raise ParseError("unexpected end of file", last)
        tok, lineno = tokens[pos]
        pos += 1
        if expect is not None and tok != expect:
            raise ParseError("expected %r, got %r" % (expect, tok), lineno)
        return tok, lineno

    def take_int(what, minimum=None):
        tok, lineno = take()
        try:
            value = int(tok)
        except ValueError:
            raise ParseError("expected integer %s, got %r" % (what, tok), lineno) from None
        if minimum is not None and value < minimum:
            raise ParseError("%s must be >= %d, got %d" % (what, minimum, value), lineno)
        return value

    def take_float(what):
        tok, lineno = take()
        try:
            return float(tok)
        except ValueError:
            raise ParseError("expected number for %s, got %r" % (what, tok), lineno) from None

    take("DIM")
    dim = take_int("DIM", 1)
    if dim not in (1, 2, 3):
        raise ParseError("DIM must be 1, 2 or 3, got %d" % dim)
    take("VERTICES")
    n = take_int("vertex count", 1)
    vertices = np.empty((n, dim))
    for i in range(n):
        for c in range(dim):
            vertices[i, c] = take_float("vertex %d coordinate" % i)
    take("SIMPLICES")
    t = take_int("simplex count", 1)
    simplices = np.empty((t, dim + 1), dtype=np.int64)
    for i in range(t):
        for c in range(dim + 1):
            simplices[i, c] = take_int("simplex %d index" % i)
    if pos != len(tokens):
        tok, lineno = tokens[pos]
        raise ParseError("trailing content %r" % tok, lineno)
    return SimplicialMesh(dim, vertices, simplices)


def save_mesh(mesh):
    """Serialize a mesh to DMESH text (17 significant digit coordinates)."""
    lines = ["DIM %d" % mesh.dim, "VERTICES %d" % mesh.num_vertices]
    for v in mesh.vertices:
        lines.append(" ".join("%.17g" % c for c in v))
    lines.append("SIMPLICES %d" % mesh.num_simplices)
    for s in mesh.simplices:
        lines.append(" ".join(str(int(i)) for i in s))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Deterministic test-mesh generators


def generate_segment(a, b, n):
    """Uniform 1D mesh of [a, b] with ``n`` vertices and n-1 elements."""
    if n < 2:
        raise MeshError("segment needs at least 2 vertices, got %d" % n)
    if not a < b:
        raise MeshError("need a < b, got a=%g b=%g" % (a, b))
    vertices = np.linspace(a, b, n)[:, None]
    simplices = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return SimplicialMesh(1, vertices, simplices)


def _polar_grid_triangles(n_r, n_t):
    # Quad (i,j) split along the (i,j) -> (i+1,j+1) diagonal; row-major vertices.
    tris = []
    for i in range(n_r):
        for j in range(n_t):
            v00 = i * n_t + j
            v01 = i * n_t + (j + 1) % n_t
            v10 = (i + 1) * n_t + j
            v11 = (i + 1) * n_t + (j + 1) % n_t
            tris.append((v00, v11, v10))
            tris.append((v00, v01, v11))
    return np.array(tris, dtype=np.int64)


def generate_annulus(r_in, r_out, n_r, n_t, theta_offset=0.0):
    """Structured triangulation of the annulus r_in <= r <= r_out.

    ``theta_offset`` rotates the whole grid; two annuli generated with offsets
    0 and pi/n_t are in general position (no shared interior vertices).
    """
    if not 0 < r_in < r_out:
        raise MeshError("need 0 < r_in < r_out, got %g, %g" % (r_in, r_out))
    if n_r < 1 or n_t < 3:
        raise MeshError("need n_r >= 1 and n_t >= 3")
    radii = np.linspace(r_in, r_out, n_r + 1)
    theta = theta_offset + 2 * np.pi * np.arange(n_t) / n_t
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    vertices = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    return SimplicialMesh(2, vertices, _polar_grid_triangles(n_r, n_t))


def generate_disk(radius, n_r, n_t, theta_offset=0.0, center=(0.0, 0.0)):
    """Structured triangulation of a disk: a center fan plus n_r-1 polar rings."""
    if radius <= 0:
        raise MeshError("radius must be positive")
    if n_r < 1 or n_t < 3:
        raise MeshError("need n_r >= 1 and n_t >= 3")
    cx, cy = center
    theta = theta_offset + 2 * np.pi * np.arange(n_t) / n_t
    verts = [(cx, cy)]
    for i in range(1, n_r + 1):
        r = radius * i / n_r
        for t in theta:
            verts.append((cx + r * np.cos(t), cy + r * np.sin(t)))
    tris = []
    for j in range(n_t):
        tris.append((0, 1 + j, 1 + (j + 1) % n_t))
    if n_r > 1:
        ring = 1 + _polar_grid_triangles(n_r - 1, n_t)
        tris.extend(ring.tolist())
    return SimplicialMesh(2, np.array(verts), np.array(tris, dtype=np.int64))


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
