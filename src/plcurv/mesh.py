"""Triangulated closed oriented surfaces with edge identity.

The central type is :class:`Triangulation`.  Faces are oriented vertex
triples; edges are opaque integer ids rather than vertex pairs, because a
flip can create two distinct edges joining the same pair of vertices.
Edge ids are the slots 0..E-1 and face ids the slots 0..F-1; a flip
writes the new diagonal and the two new faces into the slots of the old
ones, so ids are permanent and a metric is one float array indexed by
edge id.  The bookkeeping convention used everywhere:

* slot ``s`` of face ``f`` is the directed half-edge from ``faces[f, s]``
  to ``faces[f, (s + 1) % 3]``; it starts at corner ``s``,
* the corner opposite slot ``s`` is ``(s + 2) % 3``,
* a corner position ``3 * f + s`` names slot (and corner) ``s`` of face
  ``f`` and indexes a flattened (F, 3) array,
* an edge stores its two sides as corner positions, one per direction
  of traversal.

A Triangulation is its index arrays, all read-only, so it is an
immutable value; its ``flip`` returns a fresh one.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import NoReturn

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


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.intp)
    a.flags.writeable = False
    return a


class Triangulation:
    """Connected, consistently oriented, closed triangulated surface.

    Four read-only index arrays: ``faces`` (F, 3) vertices by corner,
    ``face_edges`` (F, 3) edge ids by slot, ``edge_sides`` (E, 2) corner
    positions of each edge's two sides, and ``edge_verts`` (E, 2) the
    endpoints of each edge in the direction of its first side, derived
    from ``faces`` and ``edge_sides``.

    Construct through :func:`build_triangulation` or :func:`load_mesh`;
    the raw constructor trusts its arguments.
    """

    __slots__ = ("vertex_count", "faces", "face_edges", "edge_sides", "edge_verts", "chi")

    def __init__(self, vertex_count, faces, face_edges, edge_sides):
        self.vertex_count = vertex_count
        self.faces = _frozen(faces)
        self.face_edges = _frozen(face_edges)
        self.edge_sides = _frozen(edge_sides)
        # side 2 runs back along side 1, so it starts at side 1's head
        self.edge_verts = _frozen(self.faces.reshape(-1)[self.edge_sides])
        self.chi = vertex_count - len(self.edge_sides) + len(self.faces)

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
        return tuple(self.edge_verts[e].tolist())

    def quad_corners(self, e) -> np.ndarray:
        """Corner positions of the faces on either side of edge ``e``: (..., 2, 3).

        Each face is read from the edge's own slot on, so in the notation
        of :meth:`flip` the rows hold the corners of f1 at (i, j, k) and of
        f2 at (j, i, l); at the same positions ``face_edges`` holds
        (e, jk, ki) and (e, il, lj).  ``e`` may be an array of edge ids.
        """
        sides = self.edge_sides[e]
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
        corners = self.quad_corners(es).reshape(-1, 6)
        verts = self.faces.reshape(-1)[corners]       # i j k j i l
        edges = self.face_edges.reshape(-1)[corners]  # e jk ki e il lj
        faces = corners[:, ::3] // 3                  # f1 f2
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
        fs = faces.reshape(-1)
        face_verts, face_edges = self.faces.copy(), self.face_edges.copy()
        face_verts[fs] = verts[:, [5, 1, 2, 0, 5, 2]].reshape(-1, 3)
        face_edges[fs] = edges[:, [5, 1, 0, 4, 0, 2]].reshape(-1, 3)
        # Old sides map to new ones all at once: with the face ids reused,
        # a side written for one rim edge can equal an old side of another.
        moved = np.arange(3 * self.face_count)
        moved[corners[:, [1, 2, 4, 5]]] = 3 * faces[:, [0, 1, 1, 0]] + [1, 2, 0, 0]
        edge_sides = moved[self.edge_sides]
        edge_sides[es] = 3 * faces[:, ::-1] + [1, 2]
        tri = Triangulation(self.vertex_count, face_verts, face_edges, edge_sides)

        lengths = [[None] * len(es) if x is None else np.ravel(x).tolist()
                   for x in (old_length, new_length)]
        infos = [FlipInfo(edge=x, faces=tuple(f), quad=tuple(q), rim=tuple(r),
                          old_length=lo, new_length=ln)
                 for x, f, q, r, lo, ln in zip(es.tolist(), faces.tolist(),
                                               verts[:, [0, 1, 2, 5]].tolist(),
                                               rim.tolist(), *lengths)]
        return tri, (infos[0] if np.ndim(e) == 0 else infos)


# --- construction ------------------------------------------------------

def _vertex_triples(face_list, vertex_count: int | None) -> tuple[np.ndarray, int]:
    """Faces as an (F, 3) array of vertices in range, and the vertex count."""
    for idx, tri in enumerate(face_list):
        if len(tri) != 3:
            raise NonTriangularFace(f"face {idx} has {len(tri)} vertices")
    try:
        faces = np.array(face_list, dtype=np.intp).reshape(-1, 3)
    except OverflowError as exc:
        raise ParseError(f"vertex index out of range: {exc}") from exc
    top = int(faces.max(initial=-1))
    n = top + 1 if vertex_count is None else vertex_count
    if top >= n or faces.min(initial=0) < 0:
        raise ParseError(f"vertex index out of range 0..{n - 1}")
    return faces, n


def build_triangulation(face_list, vertex_count: int | None = None,
                        slot_ids=None) -> Triangulation:
    """Assemble and validate a Triangulation from oriented int triples.

    Directed half-edges (a, b) are matched with opposite half-edges (b, a)
    by edge id when ``slot_ids`` (F, 3) names one per face and slot, else
    in order of appearance, first come first served for a doubled edge;
    the vertex-link check still guarantees the result is a closed surface.

    Raises NonTriangularFace, NonManifold, OrientationConflict or
    Disconnected as appropriate.
    """
    faces, n = _vertex_triples(face_list, vertex_count)
    return _glue(faces, n, slot_ids)


def _glue(faces: np.ndarray, vertex_count: int, slot_ids) -> Triangulation:
    """Glue half-edges into edges and validate the surface.

    Half-edges join when they share a key: their vertex pair, led by
    their id in ``slot_ids`` when given.  Within a key the i-th half-edge
    from the smaller vertex pairs with the i-th one back, in face order,
    and edges are numbered in key order, so ids 0..E-1 are kept.
    """
    if not faces.size:
        raise Disconnected("empty face list")
    tail = faces.reshape(-1)
    head = faces[:, [1, 2, 0]].reshape(-1)
    if (tail == head).any():
        f = int((tail == head).argmax()) // 3
        raise NonManifold(f"face {f} repeats a vertex: {tuple(faces[f].tolist())}")
    back = tail > head
    keys = [back, np.maximum(tail, head), np.minimum(tail, head)]
    if slot_ids is not None:
        keys.append(np.asarray(slot_ids, dtype=np.intp).reshape(-1))
    # lexsort is stable, so half-edges with equal keys stay in face order
    order = np.lexsort(keys)
    back_sorted = back[order]
    fwd, rev = order[~back_sorted], order[back_sorted]
    # The i-th forward half-edge in key order meets the i-th backward one
    # head to tail, with the same id, exactly when every key holds as many
    # half-edges back as forth.
    if not (len(fwd) == len(rev) and np.array_equal(tail[fwd], head[rev])
            and np.array_equal(head[fwd], tail[rev])
            and (slot_ids is None or np.array_equal(keys[3][fwd], keys[3][rev]))):
        _raise_unmatched(keys)
    face_edges = np.empty(tail.size, dtype=np.intp)
    face_edges[fwd] = face_edges[rev] = np.arange(len(fwd))
    partner = np.empty(tail.size, dtype=np.intp)
    partner[fwd], partner[rev] = rev, fwd
    _check_vertex_links(tail, partner, vertex_count)
    _check_connected(partner)
    tri = Triangulation(vertex_count, faces, face_edges.reshape(-1, 3),
                        np.stack([fwd, rev], axis=1))
    log.debug("built triangulation: %d vertices, %d edges, %d faces, chi=%d",
              vertex_count, tri.edge_count, tri.face_count, tri.chi)
    return tri


def _raise_unmatched(keys: list[np.ndarray]) -> NoReturn:
    """Name the first key, in key order, whose half-edges do not pair up."""
    columns = np.stack(keys[:0:-1], axis=1)  # (id,) low, high
    unique, group, sizes = np.unique(columns, axis=0, return_inverse=True,
                                     return_counts=True)
    g = np.flatnonzero(2 * np.bincount(group.reshape(-1), weights=keys[0]) != sizes)[0]
    *ids, low, high = unique[g].tolist()
    key = (ids[0], (low, high)) if ids else (low, high)
    if sizes[g] % 2 == 0:
        raise OrientationConflict(f"half-edges of {key} cannot be matched head-to-tail")
    raise NonManifold(f"edge {key} is incident to {sizes[g]} half-edges")


def _check_vertex_links(corner_vertex: np.ndarray, partner: np.ndarray,
                        vertex_count: int) -> None:
    """Every vertex link must be a single cycle of corners.

    Across the slot starting at a corner lies the slot ending at the same
    vertex; the corner after that slot is the next corner around the
    vertex.  This permutes the corners, and each of its cycles stays at
    one vertex, so a vertex has one cycle exactly when its link is one
    cycle.  Cycles are labelled by their smallest corner, each step
    doubling the stretch of the cycle every label has seen; no cycle is
    longer than the most corners at one vertex.
    """
    degree = np.bincount(corner_vertex, minlength=vertex_count)
    corners = label = np.arange(corner_vertex.size)
    step = partner - partner % 3 + (partner + 1) % 3
    for _ in range(int(degree.max() - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    cycles = np.bincount(corner_vertex[label == corners], minlength=vertex_count)
    bad = np.flatnonzero(cycles != 1)
    if bad.size:
        v = bad[0]
        if cycles[v] == 0:
            raise Disconnected(f"vertex {v} has no incident face")
        raise NonManifold(f"vertex {v} is pinched: link splits into several cycles")


def _check_connected(partner: np.ndarray) -> None:
    """Every face must be reachable from face 0 across edges."""
    neighbours = (partner // 3).reshape(-1, 3)
    seen = np.zeros(len(neighbours), dtype=bool)
    seen[0] = True
    front = np.zeros(1, dtype=np.intp)
    while front.size:
        ahead = neighbours[front]
        front = ahead[~seen[ahead]]
        seen[front] = True
    if not seen.all():
        raise Disconnected(
            f"only {np.count_nonzero(seen)} of {len(seen)} faces reachable")


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
    ends = np.array(verts, dtype=float)[tri.edge_verts]
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.sqrt(np.square(ends[:, 0] - ends[:, 1]).sum(axis=1))
    # every vertex is on an edge, so this also catches inf/NaN coordinates
    bad = np.flatnonzero(~np.isfinite(d) | (d <= 0.0))
    if bad.size:
        (a, b), x = tri.edge_vertices(bad[0]), float(d[bad[0]])
        if not math.isfinite(x):
            raise NonFiniteValue(f"edge {a}-{b} has non-finite length {x!r}")
        raise ZeroLengthEdge(f"vertices {a} and {b} coincide")
    return tri, d


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
        records: list[tuple[tuple[int, int], float]] = []
        slot_ids: dict[tuple[int, int], int] = {}
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
        ids = None
        if slot_ids:
            if len(slot_ids) != 3 * len(face_list):
                raise ParseError("some face slot has no edge id")
            try:
                ids = np.array([[slot_ids[f, s] for s in range(3)]
                                for f in range(len(face_list))], dtype=np.intp)
            except OverflowError as exc:
                raise ParseError(f"edge id out of range: {exc}") from exc
        tri = build_triangulation(face_list, n, ids)
        lengths: list[float | None] = [None] * tri.edge_count
        face_edges = tri.face_edges.tolist()
        for (f, slot), val in records:
            e = face_edges[f][slot]
            if lengths[e] is not None and abs(lengths[e] - val) > 1e-12 * max(lengths[e], val):
                raise ParseError(
                    f"edge {e} given inconsistent lengths "
                    f"{lengths[e]!r} and {val!r}")
            lengths[e] = val
    elif "edge_lengths" in doc:
        tri = build_triangulation(face_list, vertex_count=n)
        lengths = [None] * tri.edge_count
        pair_to_edge: dict[tuple[int, int], int] = {}
        for e, (a, b) in enumerate(tri.edge_verts.tolist()):
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
    doubled = len({frozenset(p) for p in tri.edge_verts.tolist()}) < tri.edge_count
    faces = tri.faces.tolist()
    recs = []
    for f, (corners, edges) in enumerate(zip(faces, tri.face_edges.tolist())):
        for slot in range(3):
            rec = {"face": f, "opposite": corners[(slot + 2) % 3],
                   "length": lengths[edges[slot]]}
            if doubled:
                rec["edge"] = edges[slot]
            recs.append(rec)
    return {"vertices": tri.vertex_count,
            "faces": faces,
            "lengths": recs}
