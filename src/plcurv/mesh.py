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

import functools
import json
import logging
import math
import operator
from itertools import chain, compress, repeat
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


# Row s lists slots s, s + 1, s + 2 (mod 3): a face read from slot s on.
_ROTATIONS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


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

    __slots__ = ("vertex_count", "faces", "face_edges", "edge_sides", "edge_verts", "chi",
                 "__weakref__")

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

    def edge_vertices(self, e: int) -> tuple[int, int]:
        """Endpoints of edge ``e`` in the direction of its first side."""
        return tuple(self.edge_verts[e].tolist())

    def quad_corners(self, e) -> np.ndarray:
        """Corner positions of the faces on either side of edge ``e``: (..., 2, 3).

        Each face is read from the edge's own slot on, so in the notation
        of :meth:`flip` the rows hold the corners of f1 at (i, j, k) and of
        f2 at (j, i, l); at the same positions ``face_edges`` holds
        (e, jk, ki) and (e, il, lj).  ``e`` may be an array of edge ids,
        or a slice; an id out of range raises KeyError.
        """
        if not isinstance(e, slice):
            e = np.asarray(e, dtype=np.intp)
            bad = (e < 0) | (e >= self.edge_count)
            if bad.any():
                raise KeyError(f"no edge {e[bad][0]}")
        sides = self.edge_sides[e]
        slot = sides % 3
        return (sides - slot)[..., None] + _ROTATIONS[slot]

    # --- flip ----------------------------------------------------------

    def flip(self, e) -> Triangulation:
        """Replace the diagonal ``e`` of its two-face quad by the other one.

        Faces f1 = (i,j,k) and f2 = (j,i,l) become f1 = (l,j,k) and
        f2 = (i,l,k), and the new edge joining k and l keeps the id ``e``:
        every id survives the flip.  Each new face takes the slot of the
        old face whose rim edge at j or i it keeps (jk or il).

            k                 k
           / \\               /|\\
          /   \\             / | \\
         i-----j    ==>    i  |  j
          \\   /             \\ | /
           \\ /               \\|/
            l                 l

        ``e`` is an edge id or an array of edge ids whose quads share no
        face; they all flip at once, as if one at a time.  An empty array
        returns this Triangulation.  A flip's quad and rim are read off
        :meth:`quad_corners` before it, its lengths off the metric.

        The faces may share all three vertices (k == l): the flip is
        valid, and the new diagonal is a loop at k.

        Raises
        ------
        FlipDegeneratesComplex
            If both sides of the edge lie on one face, so there is no quad.
        """
        es = np.array(e, dtype=np.intp, ndmin=1)
        if not es.size:
            return self
        corners = self.quad_corners(es).reshape(-1, 6)
        verts = self.faces.reshape(-1)[corners]       # i j k j i l
        edges = self.face_edges.reshape(-1)[corners]  # e jk ki e il lj
        faces = corners[:, ::3] // 3                  # f1 f2
        stuck = faces[:, 0] == faces[:, 1]
        if stuck.any():
            x = np.flatnonzero(stuck)[0]
            raise FlipDegeneratesComplex(f"edge {es[x]} has both sides on face {faces[x, 0]}")
        fs = faces.reshape(-1)
        if len(es) > 1 and np.bincount(fs).max() > 1:
            raise ValueError("edges flipped together must not share a face")

        # f1 = (l, j, k) with edges (lj, jk, e); f2 = (i, l, k) with (il, e, ki)
        face_verts, face_edges = self.faces.copy(), self.face_edges.copy()
        face_verts[fs] = verts[:, [5, 1, 2, 0, 5, 2]].reshape(-1, 3)
        face_edges[fs] = edges[:, [5, 1, 0, 4, 0, 2]].reshape(-1, 3)
        # Old sides map to new ones all at once: with the face ids reused,
        # a side written for one rim edge can equal an old side of another.
        moved = np.arange(3 * self.face_count)
        moved[corners[:, [1, 2, 4, 5]]] = 3 * faces[:, [0, 1, 1, 0]] + [1, 2, 0, 0]
        edge_sides = moved[self.edge_sides]
        edge_sides[es] = 3 * faces[:, ::-1] + [1, 2]
        return Triangulation(self.vertex_count, face_verts, face_edges, edge_sides)


# --- construction ------------------------------------------------------

def _vertex_triples(face_list, vertex_count: int | None) -> tuple[np.ndarray, int]:
    """Faces as an (F, 3) array of vertices in range, and the vertex count.

    ``face_list`` is an (F, 3) array or a sequence of triples.
    """
    try:
        faces = np.array(face_list, dtype=np.intp)
    except OverflowError as exc:
        raise ParseError(f"vertex index out of range: {exc}") from exc
    except ValueError:  # ragged, named below
        faces = None
    if faces is None or faces.shape[1:] != (3,):
        for idx, tri in enumerate(face_list):
            if len(tri) != 3:
                raise NonTriangularFace(f"face {idx} has {len(tri)} vertices")
        faces = np.array(face_list, dtype=np.intp).reshape(-1, 3)
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

    Counts are sized by the largest face vertex, not by ``vertex_count``:
    every vertex past it is unused, and one zero entry stands for them.
    """
    degree = np.bincount(corner_vertex)
    corners = label = np.arange(corner_vertex.size)
    step = partner - partner % 3 + (partner + 1) % 3
    for _ in range(int(degree.max() - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    cycles = np.bincount(corner_vertex[label == corners],
                         minlength=min(vertex_count, len(degree) + 1))
    bad = np.flatnonzero(cycles != 1)
    if bad.size:
        v = bad[0]
        if cycles[v] == 0:
            raise Disconnected(f"vertex {v} has no incident face")
        raise NonManifold(f"vertex {v} is pinched: link splits into several cycles")


def _check_connected(partner: np.ndarray) -> None:
    """Every face must be reachable from face 0 across edges.

    A breadth-first search; each front holds every newly reached face
    once, so no level is larger than the mesh.
    """
    neighbours = (partner // 3).reshape(-1, 3)
    seen = np.zeros(len(neighbours), dtype=bool)
    seen[0] = True
    front = np.zeros(1, dtype=np.intp)
    while front.size:
        ahead = neighbours[front]
        reached = np.sort(ahead[~seen[ahead]])
        front = np.concatenate((reached[:1], reached[1:][reached[1:] != reached[:-1]]))
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
        verts.append(_numbers_of(ln, float, parts[:3]))
    faces = []
    for ln in lines[2 + nv:2 + nv + nf]:
        parts = ln.split()
        cnt = _numbers_of(ln, int, parts[:1])[0]
        if cnt != 3 or len(parts) < 4:
            raise NonTriangularFace(f"face line {ln!r} is not a triangle")
        faces.append(_numbers_of(ln, int, parts[1:4]))
    return verts, faces


def _numbers_of(line: str, kind, tokens) -> tuple:
    """``tokens`` of a text-format line read as ``kind``; a bad token is a ParseError."""
    try:
        return tuple(kind(x) for x in tokens)
    except ValueError as exc:
        raise ParseError(f"bad line {line!r}: {exc}") from exc


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
            verts.append(_numbers_of(ln, float, parts[1:4]))
        elif parts[0] == "f":
            ids = [p.split("/")[0] for p in parts[1:]]
            if len(ids) != 3:
                raise NonTriangularFace(f"face {ln!r} is not a triangle")
            faces.append(tuple(x - 1 for x in _numbers_of(ln, int, ids)))
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
    The vertex count and vertex, face and edge ids must be JSON integers
    and lengths JSON numbers.  Records are read as columns and checked as
    masks; an error names the first record, in document order, that fails
    a check, and where records of one edge differ within tolerance the
    later one wins.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        n = doc["vertices"]
        face_list = doc["faces"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if type(n) is not int:
        raise ParseError(f"missing or malformed field: 'vertices' {n!r} is not a JSON integer")
    rows, present = _face_rows(face_list)
    # ragged faces go to the builder as given, which names the first one
    faces = rows if present is None else face_list
    if "lengths" in doc:
        tri, lengths = _face_keyed_lengths(doc["lengths"], rows, present, faces, n)
    elif "edge_lengths" in doc:
        tri = build_triangulation(faces, vertex_count=n)
        lengths = _pair_keyed_lengths(doc["edge_lengths"], tri)
    else:
        raise ParseError("need either 'lengths' or 'edge_lengths'")
    return tri, lengths


def _face_rows(face_list) -> tuple[np.ndarray, np.ndarray | None]:
    """Faces of a lengths document as an (F, w) int64 array, and its real entries.

    Rows are padded to the longest face (w >= 3); the mask of real
    entries is None when every face has three vertices.
    """
    if type(face_list) is not list or not set(map(type, face_list)) <= {list}:
        raise ParseError("missing or malformed field: 'faces' must be a list of lists")
    if not set(map(type, chain.from_iterable(face_list))) <= {int}:
        f = next(f for f, t in enumerate(face_list) if not set(map(type, t)) <= {int})
        raise ParseError(f"missing or malformed field: face {f} {face_list[f]!r} "
                         "has a vertex id that is not a JSON integer")
    try:
        if set(map(len, face_list)) <= {3}:
            return np.array(face_list, dtype=np.int64).reshape(-1, 3), None
        sizes = np.array(list(map(len, face_list)))
        present = np.arange(max(3, sizes.max())) < sizes[:, None]
        rows = np.zeros(present.shape, dtype=np.int64)
        rows[present] = list(chain.from_iterable(face_list))
        return rows, present
    except OverflowError as exc:
        raise ParseError(f"vertex index out of range: {exc}") from exc


def _record_list(records, key: str) -> list:
    if type(records) is not list:
        raise ParseError(f"{key!r} must be a list of records")
    return records


def _numbers(col: list, integer: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """``col`` as int64 (JSON integers) or float64 (JSON numbers), and its valid entries.

    The mask is None when every entry is valid; invalid entries, of
    another type or past the dtype's range, read 0.
    """
    kinds = {int} if integer else {int, float}
    dtype = np.int64 if integer else np.float64
    if set(map(type, col)) <= kinds:
        try:
            return np.array(col, dtype=dtype), None
        except OverflowError:
            pass

    def fits(x) -> bool:
        if type(x) not in kinds:
            return False
        try:
            dtype(x)
        except OverflowError:
            return False
        return True

    ok = list(map(fits, col))
    return (np.array([x if good else 0 for x, good in zip(col, ok)], dtype=dtype),
            np.array(ok, dtype=bool))


def _raise_first(checks) -> None:
    """Raise for the first record, in order, that fails a check.

    ``checks`` are (mask of passing records or None for all, error
    class, message for record i), in the order one record is checked.
    """
    masks = [mask for mask, _, _ in checks if mask is not None]
    passing = functools.reduce(operator.and_, masks)
    if not passing.all():
        i = int(passing.argmin())
        error, message = next((error, message) for mask, error, message in checks
                              if mask is not None and not mask[i])
        raise error(message(i))


def _lengths_by_edge(edge: np.ndarray, values: np.ndarray, edge_count: int,
                     tolerance: float | None = None) -> np.ndarray:
    """Lengths by edge id from records' edges and values, the last record winning.

    With a ``tolerance``, each record must agree with the one before it
    on its edge, as they are read, to that relative tolerance.  Every
    edge must get a length.
    """
    order = np.lexsort([edge])  # stable: an edge's records stay in file order
    sorted_edge = edge[order]
    again = sorted_edge[1:] == sorted_edge[:-1]
    if tolerance is not None:
        sorted_values = values[order]
        before, after = sorted_values[:-1], sorted_values[1:]
        clash = again & (np.abs(before - after) > tolerance * np.maximum(before, after))
        if clash.any():
            k = np.flatnonzero(clash)
            k = k[order[1:][k].argmin()]  # the first clash in file order
            raise ParseError(f"edge {sorted_edge[k]} given inconsistent lengths "
                             f"{before[k].item()!r} and {after[k].item()!r}")
    last = np.ones(len(edge), dtype=bool)
    last[:-1] = ~again
    kept = order[last]  # the last record of each edge given, by edge id
    if len(kept) < edge_count:
        raise ParseError(f"{edge_count - len(kept)} edges have no length")
    return values[kept]


# (key, name in messages, JSON integer rather than number) of a per-face record
_FACE_RECORD = (("face", "face id", True), ("opposite", "vertex id", True),
                ("length", "length", False), ("edge", "edge id", True))


def _face_keyed_lengths(records, rows, present, faces, n: int
                        ) -> tuple[Triangulation, np.ndarray]:
    """Triangulation and lengths of the per-face ``"lengths"`` records."""
    records = _record_list(records, "lengths")
    dicts = (records if set(map(type, records)) <= {dict}
             else [r if type(r) is dict else {} for r in records])
    # an absent field reads None, which fails the type test
    (f, f_ok), (opp, opp_ok), (val, val_ok) = (
        _numbers(list(map(dict.get, dicts, repeat(key))), integer)
        for key, _, integer in _FACE_RECORD[:3])
    has_id = list(map(operator.contains, dicts, repeat("edge")))
    ided = eid_ok = None
    if any(has_id):
        ided = np.flatnonzero(has_id)
        eid, eid_ok = _numbers(list(map(operator.itemgetter("edge"),
                                        compress(dicts, has_id))), True)
        if eid_ok is not None:
            eid_ok = _scatter(eid_ok, ided, len(dicts))

    def parse_fault(key: str):
        _, name, integer = next(field for field in _FACE_RECORD if field[0] == key)
        kind = "integer" if integer else "number"
        return lambda i: (f"bad length record {records[i]!r}: {name} "
                          f"out of range, missing or not a JSON {kind}")

    F = len(rows)
    known = (0 <= f) & (f < F)
    at = np.where(known, f, 0)
    table = rows if F else np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    match = table[at] == opp[:, None]
    if present is not None:
        match &= present[at]
    side = 3 * at + (match.argmax(axis=1) + 1) % 3  # the side opposite the corner
    agree = None
    if ided is not None:
        # each id-bearing record against the first one on its side
        _, first, group = np.unique(side[ided], return_index=True, return_inverse=True)
        agree = _scatter(eid == eid[first][group.reshape(-1)], ided, len(dicts))
    _raise_first([(f_ok, ParseError, parse_fault("face")),
                  (opp_ok, ParseError, parse_fault("opposite")),
                  (val_ok, ParseError, parse_fault("length")),
                  (eid_ok, ParseError, parse_fault("edge")),
                  (known, ParseError, lambda i: f"length record names unknown face {f[i]}"),
                  (match.any(axis=1), ParseError,
                   lambda i: f"vertex {opp[i]} is not a corner of face {f[i]}"),
                  ((-np.inf < val) & (val < np.inf), NonFiniteValue,
                   lambda i: f"non-finite length for face {f[i]}"),
                  (0.0 < val, ZeroLengthEdge,
                   lambda i: f"non-positive length for face {f[i]}"),
                  (agree, ParseError, lambda i: f"face {f[i]} gives two ids to one edge")])

    ids = None
    if ided is not None:
        if len(first) != 3 * F:
            raise ParseError("some face slot has no edge id")
        ids = np.empty(3 * F, dtype=np.int64)
        ids[side[ided]] = eid
        ids = ids.reshape(-1, 3)
    tri = build_triangulation(faces, n, ids)
    edge = tri.face_edges.reshape(-1)[side]
    return tri, _lengths_by_edge(edge, val, tri.edge_count, tolerance=1e-12)


def _scatter(values: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """Bool mask of ``size`` records: ``values`` at positions ``at``, True elsewhere."""
    mask = np.ones(size, dtype=bool)
    mask[at] = values
    return mask


def _pair_keys(tri: Triangulation) -> np.ndarray:
    """low * V + high for the endpoints of each edge: equal on edges that join one pair."""
    ends = tri.edge_verts
    return np.minimum(ends[:, 0], ends[:, 1]) * tri.vertex_count + np.maximum(ends[:, 0], ends[:, 1])


def _pair_keyed_lengths(records, tri: Triangulation) -> np.ndarray:
    """Lengths of the flat ``"edge_lengths"`` [i, j, value] records."""
    records = _record_list(records, "edge_lengths")
    n = tri.vertex_count
    keys, first = np.unique(_pair_keys(tri), return_index=True)
    if len(keys) < tri.edge_count:
        doubled = np.ones(tri.edge_count, dtype=bool)
        doubled[first] = False
        key = tuple(sorted(tri.edge_vertices(doubled.argmax())))
        raise ParseError(f"pair form cannot address doubled edge {key}")

    triples = (records if set(map(type, records)) <= {list}
               and min(map(len, records), default=3) >= 3
               else [r if type(r) is list and len(r) >= 3 else [None] * 3
                     for r in records])
    (a, a_ok), (b, b_ok), (val, val_ok) = (
        _numbers(list(map(operator.itemgetter(k), triples)), k < 2) for k in range(3))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    inside = (lo >= 0) & (hi < n)
    code = np.where(inside, lo, 0) * n + np.where(inside, hi, 0)
    at = np.minimum(np.searchsorted(keys, code), len(keys) - 1)

    def bad_record(i: int) -> str:
        return f"bad edge_lengths record {records[i]!r}"

    def pair(i: int) -> tuple[int, int]:
        return lo[i].item(), hi[i].item()

    _raise_first([(a_ok, ParseError, bad_record), (b_ok, ParseError, bad_record),
                  (val_ok, ParseError, bad_record),
                  (inside & (keys[at] == code), ParseError,
                   lambda i: f"no edge joins {a[i]} and {b[i]}"),
                  ((-np.inf < val) & (val < np.inf), NonFiniteValue,
                   lambda i: f"non-finite length for edge {pair(i)}"),
                  (0.0 < val, ZeroLengthEdge,
                   lambda i: f"non-positive length for edge {pair(i)}")])
    return _lengths_by_edge(first[at], val, tri.edge_count)


# --- output text -------------------------------------------------------

def json_text(obj, _indent: int = 0) -> str:
    """json.dumps lookalike that prints floats with 17 significant digits.

    The fixed format keeps every digit count stable for replay
    byte-comparisons; a non-finite float raises ValueError.  A list of
    only finite floats fills one ``%`` conversion per item.
    """
    pad = "  " * _indent
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {json_text(v, _indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            items = map("%.17g".__mod__, obj)
        else:
            items = (json_text(v, _indent + 1) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return format(x, ".17g")
    return json.dumps(obj)


def csv_text(header: str, rows) -> str:
    """``header``, then a line per row of numbers to 17 significant digits (ints < 1e17 exactly)."""
    row = ",".join(["%.17g"] * len(header.split(",")))
    return "\n".join([header, *map(row.__mod__, rows)]) + "\n"


_FACE_TEXT = "\n    [\n      %d,\n      %d,\n      %d\n    ]"
_RECORD_TEXT = '\n    {\n      "face": %d,\n      "opposite": %d,\n      "length": %.17g'


def lengths_json_text(tri: Triangulation, lengths: np.ndarray, **extra) -> str:
    """The per-face length document of (tri, lengths), faces by id, as JSON text.

    The text is :func:`json_text` of the document, with the ``extra``
    keys after ``"lengths"``.  When two edges join the same vertex pair,
    the first-come pairing of the reader need not give back this gluing
    (flips put faces in any order), so every record then also carries
    its edge id.  A non-finite length raises ValueError, and so does a
    face that repeats a vertex (a flip can make one): the reader keys a
    face's sides by vertex pair and could not read it back.
    """
    if (repeats := tri.faces == tri.faces[:, [1, 2, 0]]).any():
        f = int(repeats.argmax()) // 3
        raise ValueError(f"cannot serialize face {f}, which repeats a vertex")
    length = np.asarray(lengths, dtype=float)[tri.face_edges].reshape(-1)
    if not np.isfinite(length).all():
        raise ValueError(f"cannot serialize non-finite length {length[~np.isfinite(length)][0]}")
    columns = [np.arange(tri.face_count).repeat(3).tolist(),
               tri.faces[:, [2, 0, 1]].reshape(-1).tolist(), length.tolist()]
    record = _RECORD_TEXT
    if (np.diff(np.sort(_pair_keys(tri))) == 0).any():
        columns.append(tri.face_edges.reshape(-1).tolist())
        record += ',\n      "edge": %d'
    return "".join([
        '{\n  "vertices": %d,\n  "faces": [' % tri.vertex_count,
        ",".join([_FACE_TEXT] * tri.face_count) % tuple(tri.faces.reshape(-1).tolist()),
        '\n  ],\n  "lengths": [',
        ",".join([record + "\n    }"] * len(length)) % tuple(chain.from_iterable(zip(*columns))),
        "\n  ]",
        *(f",\n  {json.dumps(key)}: {json_text(value, 1)}" for key, value in extra.items()),
        "\n}"])
