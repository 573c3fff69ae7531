"""Simplicial meshes in 1D/2D/3D, test-mesh generators and the DMESH text format."""

import math
import re
import warnings
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
    "boundary_vertices",
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
    degenerate or out-of-range simplices raise :class:`MeshError`. Every stage
    reads this one geometry pass: the positive measures in ``measures`` and,
    formed with the measures, the inverse edge matrices in ``edge_inverses``.
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
        e = self.edges()
        adj = _adjugates(e)
        signed = np.einsum("ti,ti->t", adj[:, 0], e[:, 0]) / math.factorial(self.dim)
        flip = signed < 0
        if flip.any():
            self.simplices = self.simplices.copy()
            self.simplices[flip, -2:] = self.simplices[flip, -2:][:, ::-1]
            signed = np.abs(signed)
            adj[flip] = _adjugates(self.edges()[flip])
        thresh = DEGENERACY_FACTOR * self.bbox_diagonal() ** self.dim
        if (signed <= thresh).any():
            bad = int(np.argmax(signed <= thresh))
            raise MeshError("simplex %d is degenerate (measure %g)" % (bad, signed[bad]))
        signed.flags.writeable = False
        # Inverse edge matrices (edges as columns): row j is corner j+1's hat gradient.
        adj /= math.factorial(self.dim) * signed[:, None, None]
        self.measures, self.edge_inverses = signed, adj

    def edges(self):
        """Edge vectors x_j - x_0 of every simplex, shape (t, d, d); row j-1 is edge j."""
        e = np.take(self.vertices, self.simplices[:, 1:], axis=0)  # faster than v[s]
        e -= np.take(self.vertices, self.simplices[:, :1], axis=0)
        return e

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


def _adjugates(e):
    """Adjugates of the edge matrices with edge rows ``e`` (t, d, d), in closed
    form: row j is perpendicular to every edge but edge j, and its dot product
    with edge j is the determinant (ad - bc in 2D, e0 . (e1 x e2) in 3D)."""
    adj = np.ones_like(e)
    if e.shape[-1] == 2:
        adj[:, 0, 0], adj[:, 0, 1] = e[:, 1, 1], -e[:, 1, 0]
        adj[:, 1, 0], adj[:, 1, 1] = -e[:, 0, 1], e[:, 0, 0]
    elif e.shape[-1] == 3:
        for j in range(3):
            adj[:, j] = np.cross(e[:, (j + 1) % 3], e[:, (j + 2) % 3])
    return adj


def _boundary_facet_array(mesh):
    """Boundary facets as rows of sorted vertex indices, in lexicographic order.

    Each simplex is sorted once, which leaves every facet sorted. A facet is
    keyed by one int64, v0 n^(d-1) + ... + v(d-1) with n the vertex count, so
    one sort of the keys finds the facets used once, and the key order is the
    lexicographic row order. The key fits while n^d < 2^63.
    """
    d, n = mesh.dim, mesh.num_vertices
    drop = np.array(list(combinations(range(d + 1), d)), dtype=np.int64)
    powers = n ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys = (np.sort(mesh.simplices, axis=1)[:, drop] @ powers).ravel()
    keys.sort()
    repeat = keys[1:] == keys[:-1]
    once = keys[np.r_[~repeat, True] & np.r_[True, ~repeat]]
    return np.stack([once // p % n for p in powers], axis=1)


def boundary_vertices(mesh):
    """Set of vertex indices lying on the mesh boundary."""
    return set(np.unique(_boundary_facet_array(mesh)).tolist())


@dataclass
class DeconstructedDomain:
    """An ordered union of overlapping subdomain meshes plus Dirichlet data.

    ``dirichlet`` holds (subdomain index, local vertex index, value) triples;
    each pinned vertex must lie on its subdomain's boundary and be pinned once.
    """

    subdomains: list
    dirichlet: list = field(default_factory=list)

    def __post_init__(self):
        if not self.subdomains:
            raise MeshError("domain needs at least one subdomain")
        dims = {m.dim for m in self.subdomains}
        if len(dims) != 1:
            raise MeshError("subdomains have mixed dimensions %r" % sorted(dims))
        pinned = set()
        for sub, vert, _ in self.dirichlet:
            if not 0 <= sub < len(self.subdomains):
                raise MeshError("dirichlet subdomain index %d out of range" % sub)
            if vert not in self.boundary_vertex_sets[sub]:
                raise MeshError(
                    "dirichlet vertex %d of subdomain %d is not a boundary vertex" % (vert, sub)
                )
            if (sub, vert) in pinned:
                raise MeshError("dirichlet vertex %d of subdomain %d pinned twice" % (vert, sub))
            pinned.add((sub, vert))

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

    @cached_property
    def offsets(self):
        """Cumulative global vertex offsets, length K+1 (last entry = total)."""
        sizes = [m.num_vertices for m in self.subdomains]
        return np.concatenate([[0], np.cumsum(sizes)])

    @property
    def total_vertices(self):
        return int(self.offsets[-1])

    @property
    def pins(self):
        """(global index, value) of each ``dirichlet`` triple, in order."""
        return [(int(self.offsets[s]) + int(v), float(val)) for s, v, val in self.dirichlet]

    def stacked_vertices(self):
        """All subdomain vertex coordinates stacked in global order, shape (N, d)."""
        return np.vstack([m.vertices for m in self.subdomains])


# ---------------------------------------------------------------------------
# DMESH text format


# Plain DMESH text: ASCII keywords and whitespace (which str.split and numpy
# both take as separators), decimal coordinates and unsigned indices.
_PLAIN = re.compile(
    r"\s*DIM\s+([0-9]+)\s+VERTICES\s+([0-9]+)(\s+[0-9+\-.eE][0-9+\-.eE\s]*)(?<=\s)"
    r"SIMPLICES\s+([0-9]+)(\s+[0-9][0-9\s]*)",
    re.ASCII,
)


def load_mesh(text):
    """Parse DMESH text into a :class:`SimplicialMesh`.

    Blocks of plain numbers are read as arrays; any other text goes to the
    token parser, which raises :class:`ParseError` with a line number on
    malformed input.
    """
    if "#" in text:
        text = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    parsed = _read_blocks(text)
    return SimplicialMesh(*(_read_tokens(text) if parsed is None else parsed))


def _read_blocks(text):
    """(dim, vertices, simplices) with each block read whole by numpy, or None
    unless the text is plain enough for this to match :func:`_read_tokens`
    (indices below 10^18: numpy saturates an int64 overflow)."""
    plain = _PLAIN.fullmatch(text)
    if plain is None:
        return None
    try:  # int() refuses counts of over 4300 digits
        dim, n, t = int(plain[1]), int(plain[2]), int(plain[4])
        with warnings.catch_warnings():
            # At a token that is not a number of the block's type, numpy
            # raises ValueError; numpy 1.x warns and returns what it read.
            warnings.simplefilter("error", DeprecationWarning)
            vertices = np.fromstring(plain[3], sep=" ")
            simplices = np.fromstring(plain[5], dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if dim not in (1, 2, 3) or vertices.size != n * dim or simplices.size != t * (dim + 1):
        return None
    if simplices.max() >= 10**18:
        return None
    return dim, vertices.reshape(n, dim), simplices.reshape(t, dim + 1)


def _read_tokens(text):
    """(dim, vertices, simplices) token by token; :class:`ParseError` with a
    line number on malformed input."""
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
    try:
        simplices = np.array(indices, dtype=np.int64).reshape(t, dim + 1)
    except OverflowError:
        i = next(i for i, v in enumerate(indices) if not -(2**63) <= v < 2**63)
        fail("simplex %d index %d is outside the int64 range" % (i // (dim + 1), indices[i]),
             pos - len(indices) + i)
    return dim, np.array(coords, dtype=float).reshape(n, dim), simplices


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
    # Counter-clockwise, as construction would re-orient them: none is flipped.
    return SimplicialMesh(2, vertices, _polar_grid_triangles(n_r, n_t)[:, [0, 2, 1]])
