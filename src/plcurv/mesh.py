"""Triangulated closed oriented surfaces with edge identity.

The central type is :class:`Triangulation`.  Faces are oriented vertex
triples; edges are opaque integer ids rather than vertex pairs, because a
flip can create two distinct edges joining the same pair of vertices.
Edge ids are the slots 0..E-1 and face ids the slots 0..F-1; a flip
writes the new diagonal and the two new faces into the slots of the old
ones, so ids are permanent and a metric is one float array indexed by
edge id.  The bookkeeping convention used everywhere:

* slot ``s`` of face ``f`` is the directed half-edge from ``faces[f][s]``
  to ``faces[f][(s + 1) % 3]``,
* the corner opposite slot ``s`` is ``(s + 2) % 3``,
* an edge stores its two sides as ``(face, slot)`` pairs, one per
  direction of traversal.

A Triangulation is an immutable value; its ``flip`` returns a fresh one.
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
    edge : int
        Id of the flipped edge; the new diagonal keeps it.
    faces : tuple[int, int]
        Ids of the two faces of the quad; the two new triangles keep them.
    quad : tuple[int, int, int, int]
        Vertices (i, j, k, l): the flipped edge joined i and j, the new
        one joins k and l.
    rim : tuple[int, int, int, int]
        Edge ids of the quad boundary (jk, ki, il, lj).
    old_length, new_length : float or None
        Diagonal lengths, when given to :meth:`Triangulation.flip`.
    """

    edge: int
    faces: tuple[int, int]
    quad: tuple[int, int, int, int]
    rim: tuple[int, int, int, int]
    old_length: float | None = None
    new_length: float | None = None


class IndexArrays(NamedTuple):
    """Index arrays for whole-mesh NumPy kernels.

    Rows are edge or face ids.  A corner position ``3 * face + slot``
    indexes a flattened (F, 3) array.
    """

    face_edges: np.ndarray  # (F, 3) edge in each slot
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
        "_vertex_corners",
        "_arrays",
    )

    def __init__(self, vertex_count, faces, face_edges, edge_sides):
        self.vertex_count = vertex_count
        self.faces = faces            # face id -> (i, j, k)
        self.face_edges = face_edges  # face id -> edge ids by slot
        self.edge_sides = edge_sides  # edge id -> (Side, Side)
        self.chi = vertex_count - len(edge_sides) + len(faces)
        self._vertex_corners = None
        self._arrays = None

    # --- queries -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edge_sides)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def edge_ids(self) -> range:
        return range(len(self.edge_sides))

    def face_ids(self) -> range:
        return range(len(self.faces))

    def edge_vertices(self, e: int) -> tuple[int, int]:
        """Endpoints of edge ``e`` in the direction of its first side."""
        f, s = self.edge_sides[e][0]
        tri = self.faces[f]
        return tri[s], tri[(s + 1) % 3]

    def vertex_corners(self, v: int) -> list[Side]:
        """All (face, corner) incidences of vertex ``v``, in face order."""
        if self._vertex_corners is None:
            corners: list[list[Side]] = [[] for _ in range(self.vertex_count)]
            for f, tri in enumerate(self.faces):
                for c in range(3):
                    corners[tri[c]].append((f, c))
            self._vertex_corners = corners
        return self._vertex_corners[v]

    def other_side(self, e: int, side: Side) -> Side:
        a, b = self.edge_sides[e]
        return b if side == a else a

    @property
    def arrays(self) -> IndexArrays:
        """Index arrays, built on first use and cached (the value is immutable).

        A flip hands its output patched copies of these, so they are built
        from the lists once per loaded mesh.
        """
        if self._arrays is None:
            self._arrays = IndexArrays(
                face_edges=np.array(self.face_edges, dtype=np.intp),
                face_verts=np.array(self.faces, dtype=np.intp),
                edge_verts=np.array([self.edge_vertices(e) for e in self.edge_ids()],
                                    dtype=np.intp),
                edge_sides=np.array([[3 * f + s for f, s in sides]
                                     for sides in self.edge_sides], dtype=np.intp))
        return self._arrays

    def quad_corners(self, e) -> np.ndarray:
        """Corner positions of the faces on either side of edge ``e``: (..., 2, 3).

        Each face is read from the edge's own slot on, so in the notation
        of :meth:`flip` the rows hold the corners of f1 at (i, j, k) and of
        f2 at (j, i, l); at the same positions ``face_edges`` holds
        (e, jk, ki) and (e, il, lj).  ``e`` may be an array of edge ids.
        """
        sides = self.arrays.edge_sides[e]
        slot = sides % 3
        return (sides - slot)[..., None] + (slot[..., None] + np.arange(3)) % 3

    # --- flip ----------------------------------------------------------

    def flip(self, e, old_length=None, new_length=None
             ) -> tuple[Triangulation, FlipInfo | list[FlipInfo]]:
        """Replace the diagonal ``e`` of its two-face quad by the other one.

        Faces f1 = (i,j,k) and f2 = (j,i,l) become f1 = (l,j,k) and
        f2 = (i,l,k), and the new edge joining k and l keeps the id ``e``:
        every id survives the flip.  Each new face takes the slot of the
        old face whose rim edge at j or i it keeps (jk or il).  Diagonal
        lengths, when given, are recorded on the FlipInfo.

            k                 k
           / \\               /|\\
          /   \\             / | \\
         i-----j    ==>    i  |  j
          \\   /             \\ | /
           \\ /               \\|/
            l                 l

        ``e`` may also be an array of edge ids whose quads share no face;
        then they all flip at once, the lengths are arrays alike, and the
        result is the new Triangulation with one FlipInfo per edge, in the
        order given.  An int ``e`` returns a single FlipInfo.

        Raises
        ------
        FlipDegeneratesComplex
            If the two faces coincide or share all three vertices, so the
            flip would create a face with a repeated vertex.
        """
        es = np.array(e, dtype=np.intp, ndmin=1)
        if not (es.min() >= 0 and es.max() < self.edge_count):
            raise KeyError(f"no edge {es[(es < 0) | (es >= self.edge_count)][0]}")
        A = self.arrays
        corners = self.quad_corners(es).reshape(-1, 6)
        verts = A.face_verts.reshape(-1)[corners]  # i j k j i l
        edges = A.face_edges.reshape(-1)[corners]  # e jk ki e il lj
        faces = corners[:, ::3] // 3               # f1 f2
        stuck = (faces[:, 0] == faces[:, 1]) | (verts[:, 2] == verts[:, 5])
        if stuck.any():
            x = np.flatnonzero(stuck)[0]
            (f1, f2), edge = faces[x].tolist(), es[x]
            if f1 == f2:
                raise FlipDegeneratesComplex(f"edge {edge} has both sides on face {f1}")
            raise FlipDegeneratesComplex(
                f"faces {f1} and {f2} share all three vertices; flipping edge "
                f"{edge} would repeat a vertex")
        if len(es) > 1 and len(np.unique(faces)) < faces.size:
            raise ValueError("edges flipped together must not share a face")
        rim = edges[:, [1, 2, 4, 5]]  # jk ki il lj

        # f1 = (l, j, k) with edges (lj, jk, e); f2 = (i, l, k) with (il, e, ki)
        new_verts = verts[:, [5, 1, 2, 0, 5, 2]].reshape(-1, 3)
        new_edges = edges[:, [5, 1, 0, 4, 0, 2]].reshape(-1, 3)
        fs = faces.reshape(-1)
        face_verts, face_edges = A.face_verts.copy(), A.face_edges.copy()
        face_verts[fs], face_edges[fs] = new_verts, new_edges
        # Old sides map to new ones all at once: with the face ids reused,
        # a side written for one rim edge can equal an old side of another.
        moved = np.arange(3 * self.face_count)
        moved[corners[:, [1, 2, 4, 5]]] = 3 * faces[:, [0, 1, 1, 0]] + [1, 2, 0, 0]
        touched = np.concatenate([rim.reshape(-1), es])
        edge_sides = A.edge_sides.copy()
        edge_sides[touched] = moved[A.edge_sides[touched]]
        edge_sides[es] = 3 * faces[:, ::-1] + [1, 2]
        edge_verts = A.edge_verts.copy()
        edge_verts[es] = verts[:, [5, 2]]

        faces_l, face_edges_l, sides_l = (list(self.faces), list(self.face_edges),
                                          list(self.edge_sides))
        for f, t, ids in zip(fs.tolist(), new_verts.tolist(), new_edges.tolist()):
            faces_l[f], face_edges_l[f] = tuple(t), tuple(ids)
        for x, (a, b) in zip(touched.tolist(), edge_sides[touched].tolist()):
            sides_l[x] = (divmod(a, 3), divmod(b, 3))
        tri = Triangulation(self.vertex_count, faces_l, face_edges_l, sides_l)
        tri._arrays = IndexArrays(face_edges, face_verts, edge_verts, edge_sides)

        lengths = [[None] * len(es) if x is None else np.ravel(x).tolist()
                   for x in (old_length, new_length)]
        infos = [FlipInfo(edge=x, faces=tuple(f), quad=tuple(q), rim=tuple(r),
                          old_length=lo, new_length=ln)
                 for x, f, q, r, lo, ln in zip(es.tolist(), faces.tolist(),
                                               verts[:, [0, 1, 2, 5]].tolist(),
                                               rim.tolist(), *lengths)]
        return tri, (infos[0] if np.ndim(e) == 0 else infos)


# --- construction ------------------------------------------------------

def _vertex_triples(face_list, vertex_count: int | None) -> tuple[list, int]:
    """Faces as triples of distinct vertices, and the vertex count."""
    faces: list[tuple[int, int, int]] = []
    for idx, tri in enumerate(face_list):
        tri = tuple(tri)
        if len(tri) != 3:
            raise NonTriangularFace(f"face {idx} has {len(tri)} vertices")
        if len(set(tri)) != 3:
            raise NonManifold(f"face {idx} repeats a vertex: {tri}")
        faces.append(tri)

    seen = {v for tri in faces for v in tri}
    n = vertex_count if vertex_count is not None else (max(seen) + 1 if seen else 0)
    if seen and (min(seen) < 0 or max(seen) >= n):
        raise ParseError(f"vertex index out of range 0..{n - 1}")
    return faces, n


def build_triangulation(face_list: list[tuple[int, int, int]],
                        vertex_count: int | None = None,
                        slot_ids: dict[Side, int] | None = None) -> Triangulation:
    """Assemble and validate a Triangulation from oriented int triples.

    Directed half-edges (a, b) are matched with opposite half-edges (b, a)
    by edge id when ``slot_ids`` names one per (face, slot), else in order
    of appearance, first come first served for a doubled edge; the
    vertex-link check still guarantees the result is a closed surface.

    Raises NonTriangularFace, NonManifold, OrientationConflict or
    Disconnected as appropriate.
    """
    faces, n = _vertex_triples(face_list, vertex_count)
    return _glue(faces, n, slot_ids)


def _glue(faces, vertex_count: int, slot_ids: dict[Side, int] | None) -> Triangulation:
    """Glue half-edges into edges and validate the surface.

    Half-edges join when they share a key: their vertex pair, led by
    their id in ``slot_ids`` when given.  Within a key the i-th half-edge
    from the smaller vertex pairs with the i-th one back, in face order,
    and edges are numbered in key order, so ids 0..E-1 are kept.
    """
    groups: dict[object, tuple[list[Side], list[Side]]] = {}
    for f, tri in enumerate(faces):
        for s in range(3):
            a, b = tri[s], tri[(s + 1) % 3]
            pair = (min(a, b), max(a, b))
            key = pair if slot_ids is None else (slot_ids[f, s], pair)
            groups.setdefault(key, ([], []))[a > b].append((f, s))
    edge_sides: list[tuple[Side, Side]] = []
    for key in sorted(groups):
        fwd, rev = groups[key]
        if len(fwd) != len(rev):
            if (len(fwd) + len(rev)) % 2 == 0:
                raise OrientationConflict(
                    f"half-edges of {key} cannot be matched head-to-tail")
            raise NonManifold(
                f"edge {key} is incident to {len(fwd) + len(rev)} half-edges")
        edge_sides.extend(zip(fwd, rev))
    face_edges: list[list[int]] = [[0, 0, 0] for _ in faces]
    for e, ((f, s), (g, t)) in enumerate(edge_sides):
        face_edges[f][s] = face_edges[g][t] = e
    tri = Triangulation(vertex_count, faces, [tuple(ids) for ids in face_edges],
                        edge_sides)
    _check_vertex_links(tri)
    _check_connected(tri)
    log.debug("built triangulation: %d vertices, %d edges, %d faces, chi=%d",
              vertex_count, tri.edge_count, tri.face_count, tri.chi)
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
    stack = [0]
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
    touched = {v for t in tri.faces for v in t}
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


def load_mesh(path: str, fmt: str | None = None) -> tuple[Triangulation, np.ndarray]:
    """Load a mesh file and return (triangulation, lengths by edge id).

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
    lengths = []
    for e in tri.edge_ids():
        a, b = tri.edge_vertices(e)
        pa, pb = verts[a], verts[b]
        d = sum((x - y) ** 2 for x, y in zip(pa, pb)) ** 0.5
        if not math.isfinite(d):
            # every vertex is on an edge, so this also catches inf/NaN coordinates
            raise NonFiniteValue(f"edge {a}-{b} has non-finite length {d!r}")
        if d <= 0.0:
            raise ZeroLengthEdge(f"vertices {a} and {b} coincide")
        lengths.append(d)
    return tri, np.array(lengths)


def parse_lengths_json(text: str) -> tuple[Triangulation, np.ndarray]:
    """Parse the JSON length format.

    Two variants: ``"lengths"`` entries keyed by (face index, opposite
    vertex), which survives doubled edges, and a flat ``"edge_lengths"``
    list of [i, j, value] triples that is only accepted when every vertex
    pair carries at most one edge.  Per-face entries may also carry the
    id of their edge; then half-edges are glued by id, not first come.
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

    if "lengths" in doc:
        records: list[tuple[Side, float]] = []
        slot_ids: dict[Side, int] = {}
        for rec in doc["lengths"]:
            try:
                f = int(rec["face"])
                opp = int(rec["opposite"])
                val = float(rec["length"])
                edge = int(rec["edge"]) if "edge" in rec else None
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad length record {rec!r}: {exc}") from exc
            if not 0 <= f < len(face_list):
                raise ParseError(f"length record names unknown face {f}")
            corners = face_list[f]
            if opp not in corners:
                raise ParseError(
                    f"vertex {opp} is not a corner of face {f}")
            side = (f, (corners.index(opp) + 1) % 3)
            if not math.isfinite(val):
                raise NonFiniteValue(f"non-finite length for face {f}")
            if val <= 0.0:
                raise ZeroLengthEdge(f"non-positive length for face {f}")
            records.append((side, val))
            if edge is not None:
                if slot_ids.setdefault(side, edge) != edge:
                    raise ParseError(f"face {f} gives two ids to one edge")
        if slot_ids and len(slot_ids) != 3 * len(face_list):
            raise ParseError("some face slot has no edge id")
        tri = build_triangulation(face_list, n, slot_ids or None)
        lengths: list[float | None] = [None] * tri.edge_count
        for (f, slot), val in records:
            e = tri.face_edges[f][slot]
            if lengths[e] is not None and abs(lengths[e] - val) > 1e-12 * max(lengths[e], val):
                raise ParseError(
                    f"edge {e} given inconsistent lengths "
                    f"{lengths[e]!r} and {val!r}")
            lengths[e] = val
    elif "edge_lengths" in doc:
        tri = build_triangulation(face_list, vertex_count=n)
        lengths = [None] * tri.edge_count
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

    missing = lengths.count(None)
    if missing:
        raise ParseError(f"{missing} edges have no length")
    return tri, np.array(lengths)


def lengths_json_doc(tri: Triangulation, lengths: np.ndarray) -> dict:
    """Serializable document in the per-face length format, faces by id.

    When two edges join the same vertex pair, the first-come pairing of
    the reader need not give back this gluing (flips put faces in any
    order), so every record then also carries its edge id.
    """
    lengths = np.asarray(lengths, dtype=float).tolist()
    doubled = len({frozenset(tri.edge_vertices(e)) for e in tri.edge_ids()}) < tri.edge_count
    recs = []
    for f, (corners, edges) in enumerate(zip(tri.faces, tri.face_edges)):
        for slot in range(3):
            rec = {"face": f, "opposite": corners[(slot + 2) % 3],
                   "length": lengths[edges[slot]]}
            if doubled:
                rec["edge"] = edges[slot]
            recs.append(rec)
    return {"vertices": tri.vertex_count,
            "faces": [list(t) for t in tri.faces],
            "lengths": recs}
