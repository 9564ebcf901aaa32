import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plcurv import errors
from plcurv.geometry import curvature
from plcurv.mesh import (
    build_triangulation,
    load_mesh,
    parse_lengths_json,
)

from conftest import (
    CUBE_COORDS,
    all_fixture_meshes,
    GENUS2_FACES,
    SPHERE2_FACES,
    TETRA_FACES,
    cube12_faces,
    cube_off_text,
    flip_with_length,
    glue_reference,
    lattice_torus_faces,
    lengths_doc,
    torus9_faces,
    unit_lengths,
    vertex_degree,
)


def edge_pair_multiset(tri):
    return sorted(tuple(sorted(tri.edge_vertices(e))) for e in range(tri.edge_count))


def face_multiset(tri):
    out = []
    for f in range(tri.face_count):
        t = tri.faces[f]
        r = min(range(3), key=lambda s: t[s])
        out.append((t[r], t[(r + 1) % 3], t[(r + 2) % 3]))
    return sorted(out)


class TestBuild:
    def test_tetrahedron_counts(self, tetra):
        assert tetra.vertex_count == 4
        assert tetra.edge_count == 6
        assert tetra.face_count == 4
        assert tetra.chi == 2

    def test_two_face_sphere(self):
        tri = build_triangulation(SPHERE2_FACES)
        assert (tri.vertex_count, tri.edge_count, tri.face_count) == (3, 3, 2)
        assert tri.chi == 2

    def test_torus_counts_and_degrees(self, torus9):
        assert torus9.vertex_count == 9
        assert torus9.face_count == 18
        assert torus9.edge_count == 27
        assert torus9.chi == 0
        assert all(vertex_degree(torus9, v) == 6 for v in range(9))

    def test_genus2_counts(self, genus2):
        assert genus2.vertex_count == 7
        assert genus2.edge_count == 27
        assert genus2.face_count == 18
        assert genus2.chi == -2
        pairs = edge_pair_multiset(genus2)
        assert len(pairs) > len(set(pairs))  # doubled edges are real

    def test_single_face_is_nonmanifold(self):
        with pytest.raises(errors.NonManifold):
            build_triangulation([(0, 1, 2)])

    def test_three_faces_on_one_edge(self):
        with pytest.raises(errors.NonManifold):
            build_triangulation([(0, 1, 2), (1, 0, 3), (0, 1, 4)])

    def test_orientation_conflict(self):
        with pytest.raises(errors.OrientationConflict):
            build_triangulation([(0, 1, 2), (0, 1, 3)])

    def test_disconnected(self):
        far = [tuple(v + 4 for v in f) for f in TETRA_FACES]
        with pytest.raises(errors.Disconnected):
            build_triangulation(TETRA_FACES + far)

    def test_pinched_vertex_rejected(self):
        # Two tetrahedra sharing only vertex 0: every edge is fine but the
        # link of 0 splits into two cycles.
        second = [tuple(0 if v == 0 else v + 3 for v in f) for f in TETRA_FACES]
        with pytest.raises(errors.NonManifold):
            build_triangulation(TETRA_FACES + second)

    def test_repeated_vertex_in_face(self):
        with pytest.raises(errors.NonManifold):
            build_triangulation([(0, 1, 1), (1, 0, 2), (0, 1, 2)])

    def test_non_triangle(self):
        with pytest.raises(errors.NonTriangularFace):
            build_triangulation([(0, 1, 2, 3)])

    def test_isolated_vertex_disconnected(self):
        with pytest.raises(errors.Disconnected, match="vertex 4 has no incident face"):
            build_triangulation(TETRA_FACES, vertex_count=5)

    def test_first_unused_vertex_is_named_in_order(self):
        # an unused vertex inside the face range comes before those past it
        faces = [tuple(v + (v >= 2) for v in f) for f in TETRA_FACES]  # no vertex 2
        for count in (5, 2 ** 40):
            with pytest.raises(errors.Disconnected, match="vertex 2 has no incident face"):
                build_triangulation(faces, vertex_count=count)

    def test_large_lattice_torus_loads_in_bounded_memory(self):
        # The connectivity search once kept every duplicate face in its
        # front, which grew about 1.5x per level: this 4,608-face torus
        # asked for 1.1 GiB.  A child process loads it under a 1 GiB
        # address-space limit.
        child = (
            "import json, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from plcurv.mesh import build_triangulation\n"
            "tri = build_triangulation(json.load(sys.stdin))\n"
            "print(tri.face_count, tri.chi)\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", child],
                              input=json.dumps(lattice_torus_faces(48)),
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["4608", "0"]


class TestFlip:
    def test_flip_preserves_counts(self, torus9):
        e = range(torus9.edge_count)[0]
        corners = torus9.quad_corners(e)
        tri2 = torus9.flip(e)
        assert tri2.vertex_count == torus9.vertex_count
        assert tri2.edge_count == torus9.edge_count
        assert tri2.face_count == torus9.face_count
        assert tri2.chi == torus9.chi
        # the new diagonal joins the quad's far corners k and l, and it
        # and the new faces take over the old ids
        (i, j, k), (_, _, l) = torus9.faces.reshape(-1)[corners].tolist()
        assert set(tri2.edge_vertices(e)) == {k, l}
        assert {i, j} == set(torus9.edge_vertices(e))
        faces = set((corners[:, 0] // 3).tolist())
        assert {c // 3 for c in tri2.edge_sides[e].tolist()} == faces
        assert {c // 3 for c in torus9.edge_sides[e].tolist()} == faces

    def test_empty_edge_array_flips_nothing(self, torus9):
        assert torus9.flip(np.array([], dtype=int)) is torus9

    def test_flip_is_new_value(self, torus9):
        e = range(torus9.edge_count)[0]
        names = ("faces", "face_edges", "edge_sides", "edge_verts")
        before = [getattr(torus9, name).copy() for name in names]
        tri2 = torus9.flip(e)
        for name, old in zip(names, before):
            assert np.array_equal(getattr(torus9, name), old), name
        assert set(tri2.edge_vertices(e)) != set(torus9.edge_vertices(e))
        for tri in (torus9, tri2):
            for name in names:
                with pytest.raises(ValueError):
                    getattr(tri, name)[0, 0] = 1

    def test_flip_flip_back_isomorphic(self, torus9):
        e = range(torus9.edge_count)[5]
        tri2 = torus9.flip(e)
        tri3 = tri2.flip(e)
        assert face_multiset(tri3) == face_multiset(torus9)
        assert edge_pair_multiset(tri3) == edge_pair_multiset(torus9)

    def test_tetrahedron_flip_doubles_edge(self, tetra):
        # Flipping edge {0,1} replaces faces (0,1,2),(0,3,1) by (0,3,2),
        # (3,1,2); vertices 2 and 3 end up joined by two distinct edges.
        e01 = next(e for e in range(tetra.edge_count)
                   if set(tetra.edge_vertices(e)) == {0, 1})
        tri2 = tetra.flip(e01)
        assert set(tri2.edge_vertices(e01)) == {2, 3}
        # survivors (0,2,3),(1,3,2) plus replacements (0,3,2),(3,1,2)
        assert face_multiset(tri2) == [(0, 2, 3), (0, 3, 2), (1, 2, 3), (1, 3, 2)]
        pairs = edge_pair_multiset(tri2)
        assert pairs.count((2, 3)) == 2
        # the complex is still a closed surface
        rebuilt = build_triangulation([tri2.faces[f] for f in range(tri2.face_count)])
        assert rebuilt.chi == 2

    def test_two_face_sphere_flips_make_a_loop(self):
        # The two faces share all three vertices, so every flip is valid and
        # makes a loop edge; on the equilateral metric it is an isometry.
        tri = build_triangulation(SPHERE2_FACES)
        lengths = unit_lengths(tri)
        for e in range(tri.edge_count):
            flipped, flipped_lengths = flip_with_length(tri, lengths, e)
            k, l = flipped.edge_vertices(e)
            assert k == l and flipped.chi == 2
            assert curvature(flipped, flipped_lengths) == pytest.approx(
                np.full(3, 4.0 * math.pi / 3.0), abs=1e-12)
            assert face_multiset(flipped.flip(e)) == face_multiset(tri)
            for rim in set(range(tri.edge_count)) - {e}:
                # both sides of each rim edge now lie on one face: no quad
                assert len(set((flipped.edge_sides[rim] // 3).tolist())) == 1
                with pytest.raises(errors.FlipDegeneratesComplex,
                                   match=f"edge {rim} has both sides on face"):
                    flipped.flip(rim)

    def test_random_flip_walk_stays_valid(self, torus9):
        rng = np.random.default_rng(7)
        tri = torus9
        for _ in range(60):
            e = range(tri.edge_count)[int(rng.integers(tri.edge_count))]
            try:
                tri = tri.flip(e)
            except errors.FlipDegeneratesComplex:
                continue
            assert tri.vertex_count == 9
            assert tri.edge_count == 27
            assert tri.face_count == 18
            assert tri.chi == 0
            for v in range(9):
                assert vertex_degree(tri, v) >= 1
        # every edge still has two sides that traverse it oppositely
        for e in range(tri.edge_count):
            (f1, s1), (f2, s2) = (divmod(c, 3) for c in tri.edge_sides[e].tolist())
            a1 = tri.faces[f1][s1], tri.faces[f1][(s1 + 1) % 3]
            a2 = tri.faces[f2][s2], tri.faces[f2][(s2 + 1) % 3]
            assert a1 == (a2[1], a2[0])


class TestLoad:
    def test_off_tetrahedron(self, tmp_path):
        s = 1.0 / math.sqrt(8.0)
        pts = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
        lines = ["OFF", "4 4 6"]
        lines += [f"{x} {y} {z}" for x, y, z in pts]
        lines += ["3 " + " ".join(map(str, f)) for f in TETRA_FACES]
        p = tmp_path / "tetra.off"
        p.write_text("\n".join(lines) + "\n")
        tri, lengths = load_mesh(str(p))
        assert tri.chi == 2
        for v in lengths:
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_obj_cube(self, tmp_path):
        lines = [f"v {x} {y} {z}" for x, y, z in CUBE_COORDS]
        lines += ["f " + " ".join(str(v + 1) for v in f) for f in cube12_faces()]
        p = tmp_path / "cube.obj"
        p.write_text("\n".join(lines) + "\n")
        tri, lengths = load_mesh(str(p))
        assert tri.vertex_count == 8
        assert tri.edge_count == 18
        assert tri.chi == 2
        vals = sorted(set(round(v, 12) for v in lengths))
        assert vals == [1.0, round(math.sqrt(2.0), 12)]

    def test_off_format_from_fixture_text(self, tmp_path):
        p = tmp_path / "cube.off"
        p.write_text(cube_off_text())
        tri, lengths = load_mesh(str(p))
        assert tri.face_count == 12

    def test_lengths_json_two_face_sphere(self):
        doc = {"vertices": 3, "faces": [[0, 1, 2], [0, 2, 1]],
               "edge_lengths": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}
        tri, lengths = parse_lengths_json(json.dumps(doc))
        assert tri.chi == 2
        assert all(v == 1.0 for v in lengths)

    def test_lengths_json_per_face_form(self):
        doc = {"vertices": 4, "faces": [list(f) for f in TETRA_FACES],
               "lengths": []}
        for fi, f in enumerate(TETRA_FACES):
            for opp in f:
                doc["lengths"].append(
                    {"face": fi, "opposite": opp, "length": 2.0})
        tri, lengths = parse_lengths_json(json.dumps(doc))
        assert len(lengths) == 6
        assert all(v == 2.0 for v in lengths)

    def test_pair_form_rejected_on_doubled_edges(self, tetra):
        e01 = next(e for e in range(tetra.edge_count)
                   if set(tetra.edge_vertices(e)) == {0, 1})
        tri2 = tetra.flip(e01)
        doc = {"vertices": 4, "faces": tri2.faces.tolist(),
               "edge_lengths": [[0, 1, 1.0]]}
        with pytest.raises(errors.ParseError):
            parse_lengths_json(json.dumps(doc))

    def test_inconsistent_lengths_rejected(self):
        doc = {"vertices": 3, "faces": [[0, 1, 2], [0, 2, 1]],
               "lengths": [
                   {"face": 0, "opposite": 0, "length": 1.0},
                   {"face": 0, "opposite": 1, "length": 1.0},
                   {"face": 0, "opposite": 2, "length": 1.0},
                   {"face": 1, "opposite": 0, "length": 1.0},
                   {"face": 1, "opposite": 2, "length": 1.5},
                   {"face": 1, "opposite": 1, "length": 1.0},
               ]}
        with pytest.raises(errors.ParseError):
            parse_lengths_json(json.dumps(doc))

    def test_zero_length_rejected(self):
        doc = {"vertices": 3, "faces": [[0, 1, 2], [0, 2, 1]],
               "edge_lengths": [[0, 1, 0.0], [1, 2, 1.0], [0, 2, 1.0]]}
        with pytest.raises(errors.ZeroLengthEdge):
            parse_lengths_json(json.dumps(doc))

    def test_indices_past_int64_are_parse_errors(self, tetra):
        doc = {"vertices": 3, "faces": [[0, 1, 2], [0, 2, 2 ** 70]],
               "edge_lengths": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}
        with pytest.raises(errors.ParseError, match="vertex index out of range"):
            parse_lengths_json(json.dumps(doc))
        tri2 = tetra.flip(0)
        doc = lengths_doc(tri2, np.ones(tri2.edge_count))
        doc["lengths"][0]["edge"] = 2 ** 70
        with pytest.raises(errors.ParseError, match="edge id out of range"):
            parse_lengths_json(json.dumps(doc))

    def test_roundtrip_doc(self, torus9):
        lengths = 1.0 + 0.01 * np.arange(torus9.edge_count)
        doc = lengths_doc(torus9, lengths)
        tri2, lengths2 = parse_lengths_json(json.dumps(doc))
        assert tri2.vertex_count == 9
        assert sorted(lengths2) == pytest.approx(sorted(lengths))

    def test_bad_off(self, tmp_path):
        p = tmp_path / "x.off"
        p.write_text("FOO\n1 2 3\n")
        with pytest.raises(errors.ParseError):
            load_mesh(str(p))

    def test_genus2_from_json(self, tmp_path):
        doc = {"vertices": 7, "faces": [list(f) for f in GENUS2_FACES],
               "lengths": []}
        tri = build_triangulation(GENUS2_FACES)
        for idx, corners in enumerate(tri.faces.tolist()):
            for slot in range(3):
                doc["lengths"].append({"face": idx,
                                       "opposite": corners[(slot + 2) % 3],
                                       "length": 1.0})
        tri2, lengths = parse_lengths_json(json.dumps(doc))
        assert tri2.chi == -2
        assert len(lengths) == 27


def relabelled(faces, rng):
    """The same surface with new vertex ids, face order and corner rotations."""
    faces = np.asarray(faces)
    faces = rng.permutation(faces.max() + 1)[faces][rng.permutation(len(faces))]
    return [tuple(np.roll(t, r).tolist()) for t, r in zip(faces, rng.integers(3, size=len(faces)))]


def glued_arrays(tri):
    return tri.face_edges, tri.edge_sides, tri.edge_verts


def corrupt(kind, faces, n):
    """A face list and vertex count that build_triangulation must refuse."""
    a, b, _ = faces[0]
    if kind == "reversed face":
        return [faces[0][::-1]] + faces[1:], n
    if kind == "third face on an edge":
        return faces + [(a, b, n)], n + 1
    if kind == "pinched vertex":
        return faces + [tuple(v if v == a else v + n for v in t) for t in faces], 2 * n
    if kind == "unused vertex":
        return faces, n + 1
    assert kind == "two components"
    return faces + [tuple(v + n for v in t) for t in faces], 2 * n


class TestGlueOracle:
    """build_triangulation against the dict-based gluing of conftest."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 8), st.integers(0, 2 ** 32 - 1))
    def test_relabelled_tori(self, m, seed):
        faces = relabelled(lattice_torus_faces(m), np.random.default_rng(seed))
        for got, want in zip(glued_arrays(build_triangulation(faces)),
                             glue_reference(faces, m * m)):
            assert got.dtype == np.intp and np.array_equal(got, want)

    def test_genus2(self):
        for got, want in zip(glued_arrays(build_triangulation(GENUS2_FACES)),
                             glue_reference(GENUS2_FACES, 7)):
            assert np.array_equal(got, want)

    def test_doubled_edge_document_with_edge_ids(self, tetra):
        e01 = next(e for e in range(tetra.edge_count)
                   if set(tetra.edge_vertices(e)) == {0, 1})
        tri2 = tetra.flip(e01)
        doc = lengths_doc(tri2, np.ones(tri2.edge_count))
        ids = [[None] * 3 for _ in doc["faces"]]
        for rec in doc["lengths"]:
            corners = doc["faces"][rec["face"]]
            ids[rec["face"]][(corners.index(rec["opposite"]) + 1) % 3] = rec["edge"]
        tri3, _ = parse_lengths_json(json.dumps(doc))
        for got, want in zip(glued_arrays(tri3), glue_reference(doc["faces"], 4, ids)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind, error", [
        ("reversed face", errors.OrientationConflict),
        ("third face on an edge", errors.NonManifold),
        ("pinched vertex", errors.NonManifold),
        ("unused vertex", errors.Disconnected),
        ("two components", errors.Disconnected),
    ])
    @settings(max_examples=10, deadline=None)
    @given(m=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_corrupt_meshes_raise_the_reference_error(self, kind, error, m, seed):
        faces, n = corrupt(kind, relabelled(lattice_torus_faces(m),
                                            np.random.default_rng(seed)), m * m)
        with pytest.raises(error) as want:
            glue_reference(faces, n)
        with pytest.raises(errors.PLCurvError) as got:
            build_triangulation(faces, n)
        assert type(got.value) is type(want.value)


# --- spoiled lengths documents -------------------------------------------------
#
# The reader checks records as columns.  Each spoil below breaks one check
# of one record (record 4, on face 1) in a valid document and returns the
# error it must raise: the class and message the record-by-record reader
# gave, which name the same record.  The exit code is the one the CLI maps
# that class to.

def flipped_tetra_doc():
    """Per-face records with edge ids: three flips give the tetrahedron doubled edges."""
    tri = build_triangulation(TETRA_FACES)
    for _ in range(3):
        tri = tri.flip(0)
    return lengths_doc(tri, 1.0 + 0.125 * np.arange(tri.edge_count))


def torus_pair_doc():
    """The 3 x 3 torus in the flat [i, j, value] form."""
    tri = build_triangulation(torus9_faces())
    return {"vertices": 9, "faces": tri.faces.tolist(),
            "edge_lengths": [[a, b, 1.0 + 0.125 * e]
                             for e, (a, b) in enumerate(tri.edge_verts.tolist())]}


SPOILS = {}


def spoil(form, name, code):
    def register(fn):
        SPOILS[f"{form}: {name}"] = (form, fn, code)
        return fn
    return register


@spoil("lengths", "missing key", 2)
def _(doc):
    rec = doc["lengths"][4]
    del rec["length"]
    return errors.ParseError, f"bad length record {rec!r}"


@spoil("lengths", "non-numeric length", 2)
def _(doc):
    rec = doc["lengths"][4]
    rec["length"] = "1.5x"
    return errors.ParseError, f"bad length record {rec!r}"


@spoil("lengths", "unknown face", 2)
def _(doc):
    doc["lengths"][4]["face"] = 9
    return errors.ParseError, "length record names unknown face 9"


@spoil("lengths", "opposite not a corner", 2)
def _(doc):
    v = next(v for v in range(4) if v not in doc["faces"][1])
    doc["lengths"][4]["opposite"] = v
    return errors.ParseError, f"vertex {v} is not a corner of face 1"


@spoil("lengths", "non-finite", 3)
def _(doc):
    doc["lengths"][4]["length"] = math.inf
    return errors.NonFiniteValue, "non-finite length for face 1"


@spoil("lengths", "non-positive", 2)
def _(doc):
    doc["lengths"][4]["length"] = -1.0
    return errors.ZeroLengthEdge, "non-positive length for face 1"


@spoil("lengths", "inconsistent duplicate", 2)
def _(doc):
    rec = doc["lengths"][4]
    doc["lengths"].append(dict(rec, length=rec["length"] * 1.5))
    return (errors.ParseError, f"edge {rec['edge']} given inconsistent lengths "
            f"{rec['length']!r} and {rec['length'] * 1.5!r}")


@spoil("lengths", "partial edge ids", 2)
def _(doc):
    del doc["lengths"][4]["edge"]
    return errors.ParseError, "some face slot has no edge id"


@spoil("lengths", "conflicting edge ids", 2)
def _(doc):
    doc["lengths"].append(dict(doc["lengths"][4], edge=doc["lengths"][5]["edge"]))
    return errors.ParseError, "face 1 gives two ids to one edge"


@spoil("lengths", "ragged face, one vertex more", 2)
def _(doc):
    doc["faces"][1].append(doc["faces"][0][0])
    return errors.NonTriangularFace, "face 1 has 4 vertices"


@spoil("lengths", "ragged face, one vertex less", 2)
def _(doc):
    # record 3 keys face 1 by the corner that went missing
    gone = doc["faces"][1].pop()
    return errors.ParseError, f"vertex {gone} is not a corner of face 1"


@spoil("lengths", "first record in order", 2)
def _(doc):
    # a later check on an earlier record beats an earlier check on a later one
    doc["lengths"][4]["length"] = 0.0
    del doc["lengths"][7]["face"]
    return errors.ZeroLengthEdge, "non-positive length for face 1"


@spoil("lengths", "no faces", 2)
def _(doc):
    # every record names an unknown face; record 0 is the first
    doc["faces"] = []
    return errors.ParseError, f"length record names unknown face {doc['lengths'][0]['face']}"


@spoil("edge_lengths", "missing value", 2)
def _(doc):
    rec = doc["edge_lengths"][4]
    rec.pop()
    return errors.ParseError, f"bad edge_lengths record {rec!r}"


@spoil("edge_lengths", "non-numeric length", 2)
def _(doc):
    rec = doc["edge_lengths"][4]
    rec[2] = None
    return errors.ParseError, f"bad edge_lengths record {rec!r}"


@spoil("edge_lengths", "unknown edge", 2)
def _(doc):
    doc["edge_lengths"][4][1] = 99
    return errors.ParseError, f"no edge joins {doc['edge_lengths'][4][0]} and 99"


@spoil("edge_lengths", "non-finite", 3)
def _(doc):
    rec = doc["edge_lengths"][4]
    rec[2] = math.nan
    return errors.NonFiniteValue, f"non-finite length for edge {(min(rec[:2]), max(rec[:2]))}"


@spoil("edge_lengths", "non-positive", 2)
def _(doc):
    rec = doc["edge_lengths"][4]
    rec[2] = 0.0
    return errors.ZeroLengthEdge, f"non-positive length for edge {(min(rec[:2]), max(rec[:2]))}"


@spoil("edge_lengths", "ragged face", 2)
def _(doc):
    doc["faces"][1].append(doc["faces"][0][0])
    return errors.NonTriangularFace, "face 1 has 4 vertices"


@spoil("edge_lengths", "first record in order", 3)
def _(doc):
    doc["edge_lengths"][4][2] = math.inf
    doc["edge_lengths"][7][1] = 99
    rec = doc["edge_lengths"][4]
    return errors.NonFiniteValue, f"non-finite length for edge {(min(rec[:2]), max(rec[:2]))}"


def spoiled(name):
    """(document text, error class, message, exit code) of one spoil."""
    form, fn, code = SPOILS[name]
    doc = flipped_tetra_doc() if form == "lengths" else torus_pair_doc()
    error, message = fn(doc)
    return json.dumps(doc), error, message, code


@pytest.mark.parametrize("name", SPOILS)
def test_spoiled_document_names_the_first_bad_record(name):
    text, error, message, _ = spoiled(name)
    with pytest.raises(errors.PLCurvError) as got:
        parse_lengths_json(text)
    assert type(got.value) is error
    assert message in str(got.value)


@pytest.mark.parametrize("form", ["lengths", "edge_lengths"])
def test_duplicate_within_tolerance_later_record_wins(form):
    doc = flipped_tetra_doc() if form == "lengths" else torus_pair_doc()
    tri, before = parse_lengths_json(json.dumps(doc))
    rec = doc[form][4]
    if form == "lengths":
        doc[form].append(dict(rec, length=rec["length"] * (1 + 2 ** -45)))
        e, value = rec["edge"], doc[form][-1]["length"]
    else:
        doc[form].append([rec[1], rec[0], rec[2] * 1.5])  # this form never checked
        e, value = 4, doc[form][-1][2]
    _, lengths = parse_lengths_json(json.dumps(doc))
    assert lengths[e] == value != before[e]
    assert np.array_equal(np.delete(lengths, e), np.delete(before, e))


@pytest.mark.parametrize("value", [1.7, 2.0, True, "2", None, 2 ** 70])
@pytest.mark.parametrize("where", ["faces", "face", "opposite", "edge", "pair"])
def test_ids_must_be_json_integers(value, where):
    doc = torus_pair_doc() if where == "pair" else flipped_tetra_doc()
    if where == "faces":
        doc["faces"][1][2] = value
    elif where == "pair":
        doc["edge_lengths"][4][0] = value
    else:
        doc["lengths"][4][where] = value
    with pytest.raises(errors.ParseError):
        parse_lengths_json(json.dumps(doc))


@pytest.mark.parametrize("value", [3.9, 4.0, True, "4", None])
@pytest.mark.parametrize("form", ["lengths", "edge_lengths"])
def test_vertex_count_must_be_json_integer(value, form):
    # int(3.9) used to read this count as 3
    doc = flipped_tetra_doc() if form == "lengths" else torus_pair_doc()
    doc["vertices"] = value
    with pytest.raises(errors.ParseError, match="'vertices'"):
        parse_lengths_json(json.dumps(doc))


# --- flips as one record --------------------------------------------------

FLIP_MESHES = [tri for _, tri, _ in all_fixture_meshes()] + [
    build_triangulation(lattice_torus_faces(m)) for m in (4, 5)]


@st.composite
def disjoint_flips(draw):
    """(triangulation, face-disjoint flippable edges).

    A fixture mesh or lattice torus after up to six random flips, so
    slots hold flipped-in edges and faces and doubled edges occur.
    """
    tri = draw(st.sampled_from(FLIP_MESHES))
    for pick in draw(st.lists(st.integers(0, 10 ** 6), max_size=6)):
        try:
            tri = tri.flip(pick % tri.edge_count)
        except errors.FlipDegeneratesComplex:
            pass
    order = draw(st.permutations(range(tri.edge_count)))
    wanted = draw(st.integers(1, tri.edge_count))
    chosen, used = [], set()
    for e in order[:wanted]:
        faces = set((tri.edge_sides[e] // 3).tolist())
        if len(faces) == 2 and not faces & used:
            chosen.append(e)
            used |= faces
    assume(chosen)
    return tri, chosen


@settings(max_examples=150, deadline=None)
@given(disjoint_flips())
def test_flip_record_matches_flips_one_at_a_time(case):
    tri, chosen = case
    out = tri.flip(np.array(chosen))
    one = tri
    for e in chosen:
        one = one.flip(e)
    # each new diagonal joins its quad's far corners k and l
    far = tri.faces.reshape(-1)[tri.quad_corners(np.array(chosen))[:, :, 2]]
    assert np.array_equal(np.sort(far), np.sort(out.edge_verts[chosen]))
    for name in ("faces", "face_edges", "edge_sides"):
        assert np.array_equal(getattr(out, name), getattr(one, name)), name
