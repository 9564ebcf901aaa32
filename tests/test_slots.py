"""Property tests of the stable-slot contract.

A flip writes the new diagonal into the flipped edge's slot and the two
new faces into the old faces' slots, so edge and face ids are permanent
and a metric is one float array indexed by edge id.  Meshes are the
fixture meshes after random flips; genus 2 and flipped meshes carry
doubled edges (two edges joining one vertex pair).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SPHERE2_FACES,
    TETRA_FACES,
    all_fixture_meshes,
    flip_with_length,
    json_text_reference,
    lengths_doc,
    repeats_vertex,
    torus9_faces,
    unit_lengths,
)

from plcurv import errors
from plcurv.geometry import scale_metric, side_lengths
from plcurv.mesh import build_triangulation, lengths_json_text, parse_lengths_json

from test_mesh import face_multiset

MESHES = [tri for _, tri, _ in all_fixture_meshes()]

SETTINGS = settings(max_examples=100, deadline=None)


def gluing(tri):
    return {frozenset(sides) for sides in tri.edge_sides.tolist()}


def has_doubled_edge(tri):
    pairs = [frozenset(tri.edge_vertices(e)) for e in range(tri.edge_count)]
    return len(set(pairs)) < len(pairs)


@st.composite
def flipped_metrics(draw):
    """(triangulation, lengths) after up to eight random flips.

    A flip that would make a face repeat a vertex is left out: the
    document cannot hold such a face (its writer refuses it).
    """
    tri = MESHES[draw(st.integers(0, len(MESHES) - 1))]
    for pick in draw(st.lists(st.integers(0, 10 ** 6), max_size=8)):
        flipped, _ = tri.flip(pick % tri.edge_count)
        if not repeats_vertex(flipped):
            tri = flipped
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return tri, np.exp(rng.uniform(-1.0, 1.0, tri.edge_count))


def assert_round_trip(tri, lengths):
    text = lengths_json_text(tri, lengths)
    # the text is the one-value-at-a-time layout of the document it holds
    assert text == json_text_reference(json.loads(text))
    tri2, lengths2 = parse_lengths_json(text)
    assert np.array_equal(tri2.faces, tri.faces)
    assert gluing(tri2) == gluing(tri)
    assert np.array_equal(side_lengths(tri2, lengths2), side_lengths(tri, lengths))
    if has_doubled_edge(tri):
        # the records carry edge ids, and parsing keeps them
        assert all("edge" in rec for rec in json.loads(text)["lengths"])
        assert np.array_equal(tri2.face_edges, tri.face_edges)
        assert np.array_equal(lengths2, lengths)


@SETTINGS
@given(flipped_metrics())
def test_lengths_document_round_trips(case):
    assert_round_trip(*case)


def test_writer_refuses_a_face_that_repeats_a_vertex():
    # the reader keys a face's sides by vertex pair, so it could not read
    # back the loop edge of a flipped two-face sphere
    tri, _ = build_triangulation(SPHERE2_FACES).flip(0)
    assert repeats_vertex(tri)
    with pytest.raises(ValueError, match=r"face \d+, which repeats a vertex"):
        lengths_json_text(tri, unit_lengths(tri))


def test_round_trip_where_first_come_pairing_fails():
    # Flipping the tetrahedron's edge 0 three times leaves a face order
    # whose first-come pairing pinches a vertex; the edge ids carry it.
    tri = build_triangulation(TETRA_FACES)
    for _ in range(3):
        tri, _ = tri.flip(0)
    with pytest.raises(errors.NonManifold):
        build_triangulation(tri.faces)
    assert_round_trip(tri, 1.0 + 0.1 * np.arange(tri.edge_count))


def test_extra_keys_follow_the_lengths():
    tri = build_triangulation(torus9_faces())
    extra = {"u": [0.5, -0.25] + [0.0] * 7, "alpha": -1.0, "t": 0.1, "flips": 3}
    text = lengths_json_text(tri, unit_lengths(tri), **extra)
    doc = json.loads(text)
    assert list(doc) == ["vertices", "faces", "lengths", *extra]
    assert text == json_text_reference(doc)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_length_is_not_written(value):
    tri = build_triangulation(torus9_faces())
    lengths = unit_lengths(tri)
    lengths[4] = value
    with pytest.raises(ValueError, match="non-finite length"):
        lengths_json_text(tri, lengths)
    with pytest.raises(ValueError, match="non-finite float"):
        lengths_json_text(tri, unit_lengths(tri), u=[value])


def tetra_flipped_doc():
    tri = build_triangulation(TETRA_FACES)
    for _ in range(3):
        tri, _ = tri.flip(0)
    return lengths_doc(tri, np.ones(tri.edge_count))


@pytest.mark.parametrize("spoil, error", [
    (lambda recs: recs[0].pop("edge"), errors.ParseError),
    (lambda recs: recs.append(dict(recs[0], edge=recs[0]["edge"] + 1)),
     errors.ParseError),
    (lambda recs: recs[0].update(edge=99), errors.NonManifold),
    (lambda recs: recs[0].update(edge=recs[1]["edge"]), errors.NonManifold),
])
def test_malformed_edge_ids_rejected(spoil, error):
    doc = tetra_flipped_doc()
    spoil(doc["lengths"])
    with pytest.raises(error):
        parse_lengths_json(json.dumps(doc))


def test_ids_must_join_the_same_vertex_pair():
    # swapping the ids of two half-edges on different vertex pairs keeps
    # every id used twice, but glues edges whose ends do not match
    doc = tetra_flipped_doc()
    faces = doc["faces"]

    def pair(rec):
        tri = faces[rec["face"]]
        return frozenset(tri) - {rec["opposite"]}

    recs = doc["lengths"]
    swaps = [(i, j) for i in range(len(recs)) for j in range(i)
             if pair(recs[i]) != pair(recs[j])]
    assert swaps
    for i, j in swaps:
        spoiled = json.loads(json.dumps(doc))
        a, b = spoiled["lengths"][i], spoiled["lengths"][j]
        a["edge"], b["edge"] = b["edge"], a["edge"]
        with pytest.raises((errors.NonManifold, errors.OrientationConflict)):
            parse_lengths_json(json.dumps(spoiled))


def test_ids_only_in_documents_with_doubled_edges():
    tri = build_triangulation(torus9_faces())
    assert not has_doubled_edge(tri)
    assert "edge" not in lengths_doc(tri, unit_lengths(tri))["lengths"][0]
    tri2, _ = tri.flip(0)
    tri2, _ = tri2.flip(1)
    tri2, _ = tri2.flip(2)
    assert has_doubled_edge(tri2)
    assert "edge" in lengths_doc(tri2, unit_lengths(tri2))["lengths"][0]


@st.composite
def flip_sequences(draw):
    """A fixture mesh, a nondegenerate metric on it and edge ids to flip."""
    index = draw(st.integers(0, len(MESHES) - 1))
    _, tri, base = all_fixture_meshes()[index]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lengths = scale_metric(tri, base, rng.uniform(-0.15, 0.15, tri.vertex_count))
    return tri, lengths, draw(st.lists(st.integers(0, tri.edge_count - 1), max_size=12))


@SETTINGS
@given(flip_sequences())
def test_flips_keep_ids_and_undo_in_reverse(case):
    tri0, lengths0, picks = case
    tri, lengths, done = tri0, lengths0, []
    for e in picks:
        try:
            tri2, lengths2, info = flip_with_length(tri, lengths, e)
        except (errors.NonConvexQuad, errors.DegenerateFace,
                errors.FlipDegeneratesComplex):
            continue
        assert (tri2.edge_count, tri2.face_count) == (tri.edge_count, tri.face_count)
        assert info.edge.tolist() == [e]
        rim, faces = info.rim[0].tolist(), info.faces[0].tolist()
        for r in rim:
            assert set(tri2.edge_vertices(r)) == set(tri.edge_vertices(r))
        f1, f2 = faces
        quad = {e, *rim}
        assert set(tri2.face_edges[f1]) | set(tri2.face_edges[f2]) == quad
        for f in range(tri.face_count):
            if f not in faces:
                assert np.array_equal(tri2.faces[f], tri.faces[f])
                assert np.array_equal(tri2.face_edges[f], tri.face_edges[f])
        for g in range(tri.edge_count):
            if g not in quad:
                assert np.array_equal(tri2.edge_sides[g], tri.edge_sides[g])
            if g != e:
                assert lengths2[g] == lengths[g]
        tri, lengths = tri2, lengths2
        done.append(e)
    for e in reversed(done):
        tri, lengths, _ = flip_with_length(tri, lengths, e)
    assert face_multiset(tri) == face_multiset(tri0)
    assert np.max(np.abs(lengths - lengths0), initial=0.0) < 1e-9
