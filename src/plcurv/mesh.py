"""Triangulated closed oriented surfaces with edge identity.

The central type is :class:`Triangulation`.  Faces are oriented vertex
triples; edges are opaque integer ids rather than vertex pairs, because a
flip can create two distinct edges joining the same pair of vertices.  The
bookkeeping convention used everywhere:

* slot ``s`` of face ``f`` is the directed half-edge from ``faces[f][s]``
  to ``faces[f][(s + 1) % 3]``,
* the corner opposite slot ``s`` is ``(s + 2) % 3``,
* an edge stores its two sides as ``(face, slot)`` pairs, one per
  direction of traversal.

A Triangulation is an immutable value; ``flip_edge`` returns a fresh one.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    Disconnected,
    FlipDegeneratesComplex,
    NonFiniteValue,
    NonManifold,
    NonTriangularFace,
    OrientationConflict,
    ParseError,
    ZeroLengthEdge,
)

log = logging.getLogger(__name__)

Side = tuple[int, int]  # (face id, slot)


@dataclass(frozen=True)
class FlipInfo:
    """What a single edge flip did.

    Attributes
    ----------
    removed_edge : int
        Edge id that no longer exists.
    new_edge : int
        Fresh id of the replacement diagonal.
    removed_faces : tuple[int, int]
        Face ids that were retired.
    new_faces : tuple[int, int]
        Face ids of the two new triangles.
    quad : tuple[int, int, int, int]
        Vertices (i, j, k, l): the flipped edge joined i and j, the new
        one joins k and l.
    rim : tuple[int, int, int, int]
        Edge ids of the quad boundary (jk, ki, il, lj).
    old_length, new_length : float or None
        Diagonal lengths, when given to :meth:`Triangulation.flip`.
    """

    removed_edge: int
    new_edge: int
    removed_faces: tuple[int, int]
    new_faces: tuple[int, int]
    quad: tuple[int, int, int, int]
    rim: tuple[int, int, int, int]
    old_length: float | None = None
    new_length: float | None = None


class IndexArrays(NamedTuple):
    """Index arrays for whole-mesh NumPy kernels.

    Edges and faces are numbered by position in id order.  A corner
    position ``3 * face position + slot`` indexes a flattened (F, 3) array.
    """

    edge_ids: list[int]     # edge id at each edge position
    face_ids: list[int]     # face id at each face position
    face_edges: np.ndarray  # (F, 3) edge position in each slot
    face_verts: np.ndarray  # (F, 3) vertex at each corner
    edge_verts: np.ndarray  # (E, 2) endpoints, ordered as edge_vertices()
    edge_sides: np.ndarray  # (E, 2) corner positions of the two sides


class Triangulation:
    """Connected, consistently oriented, closed triangulated surface.

    Construct through :func:`build_triangulation` or :func:`load_mesh`;
    the raw constructor trusts its arguments.
    """

    __slots__ = (
        "vertex_count",
        "faces",
        "face_edges",
        "edge_sides",
        "chi",
        "_next_edge",
        "_next_face",
        "_vertex_corners",
        "_arrays",
    )

    def __init__(self, vertex_count, faces, face_edges, edge_sides,
                 next_edge, next_face):
        self.vertex_count = vertex_count
        self.faces = faces            # face id -> (i, j, k)
        self.face_edges = face_edges  # face id -> edge ids by slot
        self.edge_sides = edge_sides  # edge id -> (Side, Side)
        self.chi = vertex_count - len(edge_sides) + len(faces)
        self._next_edge = next_edge
        self._next_face = next_face
        corners: list[list[Side]] = [[] for _ in range(vertex_count)]
        for f, tri in faces.items():
            for c in range(3):
                corners[tri[c]].append((f, c))
        self._vertex_corners = corners
        self._arrays = None

    # --- queries -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edge_sides)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def edge_ids(self) -> list[int]:
        return list(self.edge_sides)

    def face_ids(self) -> list[int]:
        return list(self.faces)

    def edge_vertices(self, e: int) -> tuple[int, int]:
        """Endpoints of edge ``e`` in the direction of its first side."""
        f, s = self.edge_sides[e][0]
        tri = self.faces[f]
        return tri[s], tri[(s + 1) % 3]

    def vertex_corners(self, v: int) -> list[Side]:
        """All (face, corner) incidences of vertex ``v``, in face order."""
        return self._vertex_corners[v]

    def vertex_degree(self, v: int) -> int:
        return len(self._vertex_corners[v])

    def other_side(self, e: int, side: Side) -> Side:
        a, b = self.edge_sides[e]
        return b if side == a else a

    @property
    def arrays(self) -> IndexArrays:
        """Index arrays, built on first use and cached (the value is immutable).

        Lazy because flip sequences create many triangulations that are
        only ever queried edge by edge.
        """
        if self._arrays is None:
            edge_ids, face_ids = list(self.edge_sides), list(self.faces)
            edge_pos = {e: k for k, e in enumerate(edge_ids)}
            face_pos = {f: k for k, f in enumerate(face_ids)}
            self._arrays = IndexArrays(
                edge_ids=edge_ids, face_ids=face_ids,
                face_edges=np.array([[edge_pos[e] for e in self.face_edges[f]]
                                     for f in face_ids], dtype=np.intp),
                face_verts=np.array([self.faces[f] for f in face_ids],
                                    dtype=np.intp),
                edge_verts=np.array([self.edge_vertices(e) for e in edge_ids],
                                    dtype=np.intp),
                edge_sides=np.array([[3 * face_pos[f] + s
                                      for f, s in self.edge_sides[e]]
                                     for e in edge_ids], dtype=np.intp))
        return self._arrays

    # --- flip ----------------------------------------------------------

    def flip(self, e: int, old_length: float | None = None,
             new_length: float | None = None) -> tuple["Triangulation", FlipInfo]:
        """Replace the diagonal ``e`` of its two-face quad by the other one.

        Faces (i,j,k) and (j,i,l) become (i,l,k) and (l,j,k); the new edge
        joining k and l receives a fresh id, as do the two new faces.  The
        four rim edges keep their ids.  Diagonal lengths, when given, are
        recorded on the FlipInfo.

            k                 k
           / \\               /|\\
          /   \\             / | \\
         i-----j    ==>    i  |  j
          \\   /             \\ | /
           \\ /               \\|/
            l                 l

        Raises
        ------
        FlipDegeneratesComplex
            If the two faces coincide or share all three vertices, so the
            flip would create a face with a repeated vertex.
        """
        if e not in self.edge_sides:
            raise KeyError(f"no edge {e}")
        (f1, s1), (f2, s2) = self.edge_sides[e]
        if f1 == f2:
            raise FlipDegeneratesComplex(f"edge {e} has both sides on face {f1}")
        t1, e1 = self.faces[f1], self.face_edges[f1]
        t2, e2 = self.faces[f2], self.face_edges[f2]
        i, j = t1[s1], t1[(s1 + 1) % 3]
        k = t1[(s1 + 2) % 3]
        l = t2[(s2 + 2) % 3]
        if k == l:
            raise FlipDegeneratesComplex(
                f"faces {f1} and {f2} share all three vertices; flipping edge "
                f"{e} would repeat a vertex")
        e_jk = e1[(s1 + 1) % 3]
        e_ki = e1[(s1 + 2) % 3]
        e_il = e2[(s2 + 1) % 3]
        e_lj = e2[(s2 + 2) % 3]

        g = self._next_edge
        fa, fb = self._next_face, self._next_face + 1

        faces = dict(self.faces)
        face_edges = dict(self.face_edges)
        edge_sides = dict(self.edge_sides)
        del faces[f1], faces[f2]
        del face_edges[f1], face_edges[f2]
        del edge_sides[e]
        faces[fa] = (i, l, k)
        faces[fb] = (l, j, k)
        face_edges[fa] = (e_il, g, e_ki)
        face_edges[fb] = (e_lj, e_jk, g)
        edge_sides[g] = ((fa, 1), (fb, 2))

        def reanchor(edge: int, old: Side, new: Side) -> None:
            a, b = edge_sides[edge]
            edge_sides[edge] = (new, b) if a == old else (a, new)

        reanchor(e_il, (f2, (s2 + 1) % 3), (fa, 0))
        reanchor(e_ki, (f1, (s1 + 2) % 3), (fa, 2))
        reanchor(e_lj, (f2, (s2 + 2) % 3), (fb, 0))
        reanchor(e_jk, (f1, (s1 + 1) % 3), (fb, 1))

        tri = Triangulation(self.vertex_count, faces, face_edges, edge_sides,
                            g + 1, fb + 1)
        info = FlipInfo(removed_edge=e, new_edge=g,
                        removed_faces=(f1, f2), new_faces=(fa, fb),
                        quad=(i, j, k, l), rim=(e_jk, e_ki, e_il, e_lj),
                        old_length=old_length, new_length=new_length)
        return tri, info


def flip_edge(tri: Triangulation, e: int) -> tuple[Triangulation, FlipInfo]:
    """Functional alias for :meth:`Triangulation.flip`."""
    return tri.flip(e)


# --- construction ------------------------------------------------------

def build_triangulation(face_list: list[tuple[int, int, int]],
                        vertex_count: int | None = None) -> Triangulation:
    """Assemble and validate a Triangulation from oriented vertex triples.

    Directed half-edges (a, b) are matched with opposite half-edges (b, a)
    in order of appearance.  When the same ordered pair occurs more than
    once (a doubled edge) the pairing is first-come first-served, which is
    deterministic; the vertex-link check below still guarantees the result
    is a closed surface.

    Raises NonTriangularFace, NonManifold, OrientationConflict or
    Disconnected as appropriate.
    """
    faces: dict[int, tuple[int, int, int]] = {}
    for idx, tri in enumerate(face_list):
        tri = tuple(int(v) for v in tri)
        if len(tri) != 3:
            raise NonTriangularFace(f"face {idx} has {len(tri)} vertices")
        if len(set(tri)) != 3:
            raise NonManifold(f"face {idx} repeats a vertex: {tri}")
        faces[idx] = tri

    seen = {v for tri in faces.values() for v in tri}
    n = vertex_count if vertex_count is not None else (max(seen) + 1 if seen else 0)
    if seen and (min(seen) < 0 or max(seen) >= n):
        raise ParseError(f"vertex index out of range 0..{n - 1}")

    # Pair directed half-edges into undirected edges.
    by_pair: dict[tuple[int, int], list[Side]] = {}
    for f, tri in faces.items():
        for s in range(3):
            a, b = tri[s], tri[(s + 1) % 3]
            by_pair.setdefault((min(a, b), max(a, b)), []).append((f, s))

    def direction(side: Side) -> tuple[int, int]:
        f, s = side
        return faces[f][s], faces[f][(s + 1) % 3]

    face_edges_mut: dict[int, list[int | None]] = {f: [None, None, None] for f in faces}
    edge_sides: dict[int, tuple[Side, Side]] = {}
    eid = 0
    for pair in sorted(by_pair):
        sides = by_pair[pair]
        fwd = [s for s in sides if direction(s) == (pair[0], pair[1])]
        rev = [s for s in sides if direction(s) != (pair[0], pair[1])]
        if len(fwd) != len(rev):
            if len(sides) % 2 == 0:
                raise OrientationConflict(
                    f"half-edges of {pair} cannot be matched head-to-tail")
            raise NonManifold(
                f"edge {pair} is incident to {len(sides)} half-edges")
        for a, b in zip(fwd, rev):
            edge_sides[eid] = (a, b)
            face_edges_mut[a[0]][a[1]] = eid
            face_edges_mut[b[0]][b[1]] = eid
            eid += 1
    face_edges = {f: tuple(slots) for f, slots in face_edges_mut.items()}

    tri = Triangulation(n, faces, face_edges, edge_sides, eid, len(faces))
    _check_vertex_links(tri)
    _check_connected(tri)
    log.debug("built triangulation: %d vertices, %d edges, %d faces, chi=%d",
              n, tri.edge_count, tri.face_count, tri.chi)
    return tri


def _check_vertex_links(tri: Triangulation) -> None:
    """Every vertex link must be a single cycle of corners."""
    for v in range(tri.vertex_count):
        corners = tri.vertex_corners(v)
        if not corners:
            raise Disconnected(f"vertex {v} has no incident face")
        start = corners[0]
        f, c = start
        reached = 0
        while True:
            reached += 1
            e = tri.face_edges[f][c]
            f2, s2 = tri.other_side(e, (f, c))
            f, c = f2, (s2 + 1) % 3
            if (f, c) == start:
                break
            if reached > len(corners):
                raise NonManifold(f"vertex {v} has an inconsistent link")
        if reached != len(corners):
            raise NonManifold(
                f"vertex {v} is pinched: link splits into several cycles")


def _check_connected(tri: Triangulation) -> None:
    if not tri.faces:
        raise Disconnected("empty face list")
    seen: set[int] = set()
    stack = [next(iter(tri.faces))]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        for e in tri.face_edges[f]:
            for g, _ in tri.edge_sides[e]:
                if g not in seen:
                    stack.append(g)
    if len(seen) != len(tri.faces):
        raise Disconnected(
            f"only {len(seen)} of {len(tri.faces)} faces reachable")
    touched = {v for t in tri.faces.values() for v in t}
    if len(touched) != tri.vertex_count:
        raise Disconnected("isolated vertices present")


# --- file formats ------------------------------------------------------

def infer_format(path: str) -> str:
    """Input format named by the file extension: off, obj or lengths."""
    lower = path.lower()
    for suffix, fmt in ((".off", "off"), (".obj", "obj"), (".json", "lengths")):
        if lower.endswith(suffix):
            return fmt
    raise ParseError(f"cannot infer format of {path!r}; pass --format")


def load_mesh(path: str, fmt: str | None = None) -> tuple[Triangulation, dict[int, float]]:
    """Load a mesh file and return (triangulation, edge length map).

    ``fmt`` is one of ``"off"``, ``"obj"`` or ``"lengths"``; when omitted
    it is inferred from the file extension.  Coordinate formats (OFF, OBJ)
    contribute nothing beyond the edge lengths they induce; positions are
    discarded.
    """
    if fmt is None:
        fmt = infer_format(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "off":
        verts, faces = _parse_off(text)
        return _from_coordinates(verts, faces)
    if fmt == "obj":
        verts, faces = _parse_obj(text)
        return _from_coordinates(verts, faces)
    if fmt == "lengths":
        return parse_lengths_json(text)
    raise ParseError(f"unknown format {fmt!r}")


def _parse_off(text: str):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "OFF":
        raise ParseError("missing OFF header")
    try:
        nv, nf, _ = (int(x) for x in lines[1].split())
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad OFF count line: {exc}") from exc
    if len(lines) < 2 + nv + nf:
        raise ParseError("truncated OFF file")
    verts = []
    for ln in lines[2:2 + nv]:
        parts = ln.split()
        if len(parts) < 3:
            raise ParseError(f"bad vertex line: {ln!r}")
        verts.append(tuple(float(x) for x in parts[:3]))
    faces = []
    for ln in lines[2 + nv:2 + nv + nf]:
        parts = ln.split()
        cnt = int(parts[0])
        if cnt != 3 or len(parts) < 4:
            raise NonTriangularFace(f"face line {ln!r} is not a triangle")
        faces.append(tuple(int(x) for x in parts[1:4]))
    return verts, faces


def _parse_obj(text: str):
    verts, faces = [], []
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise ParseError(f"bad OBJ vertex: {ln!r}")
            verts.append(tuple(float(x) for x in parts[1:4]))
        elif parts[0] == "f":
            ids = [p.split("/")[0] for p in parts[1:]]
            if len(ids) != 3:
                raise NonTriangularFace(f"face {ln!r} is not a triangle")
            faces.append(tuple(int(x) - 1 for x in ids))
    if not faces:
        raise ParseError("OBJ file contains no faces")
    return verts, faces


def _from_coordinates(verts, face_list):
    tri = build_triangulation(face_list, vertex_count=len(verts))
    lengths: dict[int, float] = {}
    for e in tri.edge_ids():
        a, b = tri.edge_vertices(e)
        pa, pb = verts[a], verts[b]
        d = sum((x - y) ** 2 for x, y in zip(pa, pb)) ** 0.5
        if not math.isfinite(d):
            # every vertex is on an edge, so this also catches inf/NaN coordinates
            raise NonFiniteValue(f"edge {a}-{b} has non-finite length {d!r}")
        if d <= 0.0:
            raise ZeroLengthEdge(f"vertices {a} and {b} coincide")
        lengths[e] = d
    return tri, lengths


def parse_lengths_json(text: str) -> tuple[Triangulation, dict[int, float]]:
    """Parse the JSON length format.

    Two variants: ``"lengths"`` entries keyed by (face index, opposite
    vertex), which survives doubled edges, and a flat ``"edge_lengths"``
    list of [i, j, value] triples that is only accepted when every vertex
    pair carries at most one edge.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        n = int(doc["vertices"])
        face_list = [tuple(int(v) for v in f) for f in doc["faces"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    for f in face_list:
        if len(f) != 3:
            raise NonTriangularFace(f"face {f} is not a triangle")
    tri = build_triangulation(face_list, vertex_count=n)

    lengths: dict[int, float] = {}
    if "lengths" in doc:
        for rec in doc["lengths"]:
            try:
                f = int(rec["face"])
                opp = int(rec["opposite"])
                val = float(rec["length"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad length record {rec!r}: {exc}") from exc
            if f not in tri.faces:
                raise ParseError(f"length record names unknown face {f}")
            corners = tri.faces[f]
            if opp not in corners:
                raise ParseError(
                    f"vertex {opp} is not a corner of face {f}")
            slot = (corners.index(opp) + 1) % 3
            e = tri.face_edges[f][slot]
            if not math.isfinite(val):
                raise NonFiniteValue(f"non-finite length for face {f}")
            if val <= 0.0:
                raise ZeroLengthEdge(f"non-positive length for face {f}")
            if e in lengths and abs(lengths[e] - val) > 1e-12 * max(lengths[e], val):
                raise ParseError(
                    f"edge {e} given inconsistent lengths "
                    f"{lengths[e]!r} and {val!r}")
            lengths[e] = val
    elif "edge_lengths" in doc:
        pair_to_edge: dict[tuple[int, int], int] = {}
        for e in tri.edge_ids():
            a, b = tri.edge_vertices(e)
            key = (min(a, b), max(a, b))
            if key in pair_to_edge:
                raise ParseError(
                    f"pair form cannot address doubled edge {key}")
            pair_to_edge[key] = e
        for rec in doc["edge_lengths"]:
            try:
                a, b, val = int(rec[0]), int(rec[1]), float(rec[2])
            except (TypeError, ValueError, IndexError) as exc:
                raise ParseError(f"bad edge_lengths record {rec!r}") from exc
            key = (min(a, b), max(a, b))
            if key not in pair_to_edge:
                raise ParseError(f"no edge joins {a} and {b}")
            if not math.isfinite(val):
                raise NonFiniteValue(f"non-finite length for edge {key}")
            if val <= 0.0:
                raise ZeroLengthEdge(f"non-positive length for edge {key}")
            lengths[pair_to_edge[key]] = val
    else:
        raise ParseError("need either 'lengths' or 'edge_lengths'")

    missing = [e for e in tri.edge_ids() if e not in lengths]
    if missing:
        raise ParseError(f"{len(missing)} edges have no length")
    return tri, lengths


def lengths_json_doc(tri: Triangulation, lengths: dict[int, float]) -> dict:
    """Serializable document in the per-face length format."""
    face_ids = tri.face_ids()
    order = {f: idx for idx, f in enumerate(face_ids)}
    recs = []
    for f in face_ids:
        corners = tri.faces[f]
        for slot in range(3):
            e = tri.face_edges[f][slot]
            recs.append({"face": order[f],
                         "opposite": corners[(slot + 2) % 3],
                         "length": lengths[e]})
    return {"vertices": tri.vertex_count,
            "faces": [list(tri.faces[f]) for f in face_ids],
            "lengths": recs}
