import json
import math

import numpy as np
import pytest

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
        assert {f for f, _ in tri2.edge_sides[e]} == set(info.faces)
        assert {f for f, _ in torus9.edge_sides[e]} == set(info.faces)

    def test_flip_is_new_value(self, torus9):
        e = torus9.edge_ids()[0]
        before = (list(torus9.faces), list(torus9.face_edges),
                  list(torus9.edge_sides))
        tri2, _ = torus9.flip(e)
        assert (torus9.faces, torus9.face_edges, torus9.edge_sides) == before
        assert set(tri2.edge_vertices(e)) != set(torus9.edge_vertices(e))

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
            (f1, s1), (f2, s2) = tri.edge_sides[e]
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
        faces = [list(tri2.faces[f]) for f in tri2.face_ids()]
        doc = {"vertices": 4, "faces": faces,
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
        face_ids = tri.face_ids()
        for idx, f in enumerate(face_ids):
            corners = tri.faces[f]
            for slot in range(3):
                doc["lengths"].append({"face": idx,
                                       "opposite": corners[(slot + 2) % 3],
                                       "length": 1.0})
        tri2, lengths = parse_lengths_json(json.dumps(doc))
        assert tri2.chi == -2
        assert len(lengths) == 27
