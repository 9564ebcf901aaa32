import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcurv import errors
from plcurv.mesh import (
    build_triangulation,
    lengths_json_doc,
    load_mesh,
    parse_lengths_json,
)

from conftest import (
    CUBE_COORDS,
    GENUS2_FACES,
    SPHERE2_FACES,
    TETRA_FACES,
    cube12_faces,
    cube_off_text,
    glue_reference,
    lattice_torus_faces,
    torus9_faces,
    vertex_degree,
)


def edge_pair_multiset(tri):
    return sorted(tuple(sorted(tri.edge_vertices(e))) for e in tri.edge_ids())


def face_multiset(tri):
    out = []
    for f in tri.face_ids():
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


class TestFlip:
    def test_flip_preserves_counts(self, torus9):
        e = torus9.edge_ids()[0]
        tri2, info = torus9.flip(e)
        assert tri2.vertex_count == torus9.vertex_count
        assert tri2.edge_count == torus9.edge_count
        assert tri2.face_count == torus9.face_count
        assert tri2.chi == torus9.chi
        # the new diagonal and faces take over the old ids
        assert info.edge == e
        i, j, k, l = info.quad
        assert set(tri2.edge_vertices(e)) == {k, l}
        assert {i, j} == set(torus9.edge_vertices(e))
        assert {c // 3 for c in tri2.edge_sides[e].tolist()} == set(info.faces)
        assert {c // 3 for c in torus9.edge_sides[e].tolist()} == set(info.faces)

    def test_flip_is_new_value(self, torus9):
        e = torus9.edge_ids()[0]
        names = ("faces", "face_edges", "edge_sides", "edge_verts")
        before = [getattr(torus9, name).copy() for name in names]
        tri2, _ = torus9.flip(e)
        for name, old in zip(names, before):
            assert np.array_equal(getattr(torus9, name), old), name
        assert set(tri2.edge_vertices(e)) != set(torus9.edge_vertices(e))
        for tri in (torus9, tri2):
            for name in names:
                with pytest.raises(ValueError):
                    getattr(tri, name)[0, 0] = 1

    def test_flip_flip_back_isomorphic(self, torus9):
        e = torus9.edge_ids()[5]
        tri2, info = torus9.flip(e)
        tri3, info2 = tri2.flip(e)
        assert face_multiset(tri3) == face_multiset(torus9)
        assert edge_pair_multiset(tri3) == edge_pair_multiset(torus9)

    def test_tetrahedron_flip_doubles_edge(self, tetra):
        # Flipping edge {0,1} replaces faces (0,1,2),(0,3,1) by (0,3,2),
        # (3,1,2); vertices 2 and 3 end up joined by two distinct edges.
        e01 = next(e for e in tetra.edge_ids()
                   if set(tetra.edge_vertices(e)) == {0, 1})
        tri2, info = tetra.flip(e01)
        assert set(info.quad[:2]) == {0, 1}
        assert set(info.quad[2:]) == {2, 3}
        # survivors (0,2,3),(1,3,2) plus replacements (0,3,2),(3,1,2)
        assert face_multiset(tri2) == [(0, 2, 3), (0, 3, 2), (1, 2, 3), (1, 3, 2)]
        pairs = edge_pair_multiset(tri2)
        assert pairs.count((2, 3)) == 2
        # the complex is still a closed surface
        rebuilt = build_triangulation([tri2.faces[f] for f in tri2.face_ids()])
        assert rebuilt.chi == 2

    def test_two_face_sphere_flip_degenerates(self):
        tri = build_triangulation(SPHERE2_FACES)
        for e in tri.edge_ids():
            with pytest.raises(errors.FlipDegeneratesComplex):
                tri.flip(e)

    def test_random_flip_walk_stays_valid(self, torus9):
        rng = np.random.default_rng(7)
        tri = torus9
        for _ in range(60):
            e = tri.edge_ids()[int(rng.integers(tri.edge_count))]
            try:
                tri, _ = tri.flip(e)
            except errors.FlipDegeneratesComplex:
                continue
            assert tri.vertex_count == 9
            assert tri.edge_count == 27
            assert tri.face_count == 18
            assert tri.chi == 0
            for v in range(9):
                assert vertex_degree(tri, v) >= 1
        # every edge still has two sides that traverse it oppositely
        for e in tri.edge_ids():
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
        e01 = next(e for e in tetra.edge_ids()
                   if set(tetra.edge_vertices(e)) == {0, 1})
        tri2, _ = tetra.flip(e01)
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
        tri2, _ = tetra.flip(0)
        doc = lengths_json_doc(tri2, np.ones(tri2.edge_count))
        doc["lengths"][0]["edge"] = 2 ** 70
        with pytest.raises(errors.ParseError, match="edge id out of range"):
            parse_lengths_json(json.dumps(doc))

    def test_roundtrip_doc(self, torus9):
        lengths = 1.0 + 0.01 * np.arange(torus9.edge_count)
        doc = lengths_json_doc(torus9, lengths)
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
        e01 = next(e for e in tetra.edge_ids()
                   if set(tetra.edge_vertices(e)) == {0, 1})
        tri2, _ = tetra.flip(e01)
        doc = lengths_json_doc(tri2, np.ones(tri2.edge_count))
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
