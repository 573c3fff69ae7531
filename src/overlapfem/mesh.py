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
    if "#" in text:
        text = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    # Every line break is whitespace, so this splits each line in turn.
    tokens = text.split()
    pos = 0

    def fail(message, index):
        # Token line numbers are only worked out here; past the end, the last token's.
        ends = np.cumsum([len(raw.split()) for raw in text.splitlines()])
        line = np.searchsorted(ends, min(index, len(tokens) - 1), side="right") + 1
        raise ParseError(message, int(line))

    def take(count, kind=str, expected=None):
        """The next ``count`` tokens converted by ``kind``; ``expected(i)`` describes token i."""
        nonlocal pos
        chunk = tokens[pos : pos + count]
        try:
            values = list(map(kind, chunk))
        except ValueError:
            for i, tok in enumerate(chunk):
                try:
                    kind(tok)
                except ValueError:
                    fail("expected %s, got %r" % (expected(i), tok), pos + i)
        if len(chunk) < count:
            fail("unexpected end of file", len(tokens))
        pos += count
        return values

    def expect(word):
        (tok,) = take(1)
        if tok != word:
            fail("expected %r, got %r" % (word, tok), pos - 1)

    def take_count(what, minimum):
        (value,) = take(1, int, lambda i: "integer " + what)
        if value < minimum:
            fail("%s must be >= %d, got %d" % (what, minimum, value), pos - 1)
        return value

    expect("DIM")
    dim = take_count("DIM", 1)
    if dim not in (1, 2, 3):
        raise ParseError("DIM must be 1, 2 or 3, got %d" % dim)
    expect("VERTICES")
    n = take_count("vertex count", 1)
    coords = take(n * dim, float, lambda i: "number for vertex %d coordinate" % (i // dim))
    expect("SIMPLICES")
    t = take_count("simplex count", 1)
    indices = take(t * (dim + 1), int, lambda i: "integer simplex %d index" % (i // (dim + 1)))
    if pos != len(tokens):
        fail("trailing content %r" % tokens[pos], pos)
    vertices = np.array(coords, dtype=float).reshape(n, dim)
    return SimplicialMesh(dim, vertices, np.array(indices, dtype=np.int64).reshape(t, dim + 1))


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
    i, j = np.meshgrid(np.arange(n_r), np.arange(n_t), indexing="ij")
    v00, v01 = i * n_t + j, i * n_t + (j + 1) % n_t
    tris = np.stack([v00, v01 + n_t, v00 + n_t, v00, v01, v01 + n_t], axis=-1)
    return tris.reshape(-1, 3).astype(np.int64)


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
