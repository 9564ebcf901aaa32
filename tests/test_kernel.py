"""Property tests: the array kernel against per-face and per-edge loops.

Metrics are random log-uniform edge lengths, wide enough that many faces
degenerate.  Triangulations are the fixture meshes after random flips,
so slots hold flipped-in edges and faces, and doubled edges occur
(genus 2 has them from the start).  The Delaunay pass in rounds is
checked against the scalar FIFO loop on flat tori and genus 2 at random
conformal scalings.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcurv import errors
from plcurv.geometry import (
    DELAUNAY_SLACK,
    curvature,
    curvature_jacobian,
    degenerate_faces,
    delaunay_margin,
    edge_margins,
    is_delaunay,
    is_delaunay_all,
    make_delaunay,
    scale_metric,
    side_lengths,
)
from plcurv.mesh import Triangulation, build_triangulation, parse_lengths_json
from plcurv.solver import triangle_energy

from conftest import (
    all_fixture_meshes,
    cot_weight,
    edge_margin_reference,
    flat_torus_document,
    is_delaunay_reference,
    make_delaunay_reference,
    repeats_vertex,
    triangle_angles,
)
from test_mesh import face_multiset

MESHES = [tri for _, tri, _ in all_fixture_meshes()]

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def metrics(draw):
    """(triangulation, lengths) after up to six random flips."""
    tri = MESHES[draw(st.integers(0, len(MESHES) - 1))]
    for pick in draw(st.lists(st.integers(0, 10 ** 6), max_size=6)):
        edges = range(tri.edge_count)
        try:
            tri = tri.flip(edges[pick % len(edges)])
        except errors.FlipDegeneratesComplex:
            pass
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.floats(0.05, 1.5))
    lengths = np.array([math.exp(rng.uniform(-spread, spread)) for _ in range(tri.edge_count)])
    return tri, lengths


def corner_angles_loop(tri, lengths):
    """Face id -> angles at corners 0, 1, 2 (corner c faces slot (c+1) % 3)."""
    out = {}
    for f in range(tri.face_count):
        l0, l1, l2 = (lengths[e] for e in tri.face_edges[f])
        out[f] = triangle_angles(l1, l2, l0)
    return out


@SETTINGS
@given(metrics())
def test_curvature_matches_face_loop(case):
    tri, lengths = case
    ref = np.full(tri.vertex_count, 2.0 * math.pi)
    for f, angles in corner_angles_loop(tri, lengths).items():
        for v, theta in zip(tri.faces[f], angles):
            ref[v] -= theta
    K = curvature(tri, lengths)
    assert np.max(np.abs(K - ref)) < 1e-12
    assert abs(K.sum() - 2.0 * math.pi * tri.chi) < 1e-9


@SETTINGS
@given(metrics())
def test_degenerate_faces_match_face_loop(case):
    tri, lengths = case
    ref = []
    for f in range(tri.face_count):
        a, b, c = (lengths[e] for e in tri.face_edges[f])
        if max(a, b, c) >= (a + b + c) - max(a, b, c):
            ref.append(f)
    assert degenerate_faces(tri, lengths) == ref


@SETTINGS
@given(metrics())
def test_margin_matches_edge_loop_and_predicate(case):
    tri, lengths = case
    L = lengths.tolist()
    ref = min(edge_margin_reference(tri, L, e) for e in range(tri.edge_count))
    margin = delaunay_margin(side_lengths(tri, lengths, slice(None)))
    assert margin == edge_margins(tri, lengths).min()
    assert abs(margin - ref) < 1e-12
    assert (margin < -DELAUNAY_SLACK) == bool(is_delaunay_all(tri, lengths))


@SETTINGS
@given(metrics())
def test_edge_array_verdict_matches_scalar_oracle(case):
    """One is_delaunay call on every edge gives the scalar verdicts, bit for bit."""
    tri, lengths = case
    L = lengths.tolist()
    ref = [is_delaunay_reference(tri, L, e) for e in range(tri.edge_count)]
    assert is_delaunay(tri, lengths, np.arange(tri.edge_count)).tolist() == ref
    assert is_delaunay_all(tri, lengths) == [e for e, ok in enumerate(ref) if not ok]


@settings(max_examples=60, deadline=None)
@given(metrics(), st.integers(-990, 990))
def test_verdicts_and_pass_are_exactly_scale_invariant(case, k):
    """Scaling a metric by 2^k scales nothing the Delaunay test reads: the
    margins and verdicts keep their bits, and the pass flips the same edges
    to lengths exactly 2^k times the unscaled ones."""
    tri, lengths = case
    scaled = lengths * 2.0 ** k
    assert np.array_equal(edge_margins(tri, scaled), edge_margins(tri, lengths))
    assert np.array_equal(is_delaunay(tri, scaled), is_delaunay(tri, lengths))
    try:
        _, want, want_flips = make_delaunay(tri, lengths)
    except errors.PLCurvError as exc:
        with pytest.raises(type(exc)):
            make_delaunay(tri, scaled)
        return
    _, got, flips = make_delaunay(tri, scaled)
    assert np.array_equal(flips, want_flips)
    assert np.array_equal(got, want * 2.0 ** k)


@pytest.mark.parametrize("m", [3, 4, 6])
@pytest.mark.parametrize("sigma", [0.0, 1e-14, 1e-12, 1e-10])
def test_verdict_on_cocircular_square_torus(m, sigma):
    """Right isosceles faces: every diagonal sits on the slack's edge.

    Conformal noise far below, near and above DELAUNAY_SLACK moves the
    diagonals' margins across it; array, int and scalar verdicts agree.
    """
    tri, base = parse_lengths_json(json.dumps(flat_torus_document(m, [1, 0], [0, 1])))
    rng = np.random.default_rng(m)
    lengths = scale_metric(tri, base, rng.normal(0.0, sigma, tri.vertex_count))
    if sigma == 0.0:
        assert np.count_nonzero(np.abs(edge_margins(tri, lengths)) <= DELAUNAY_SLACK) == m * m
    L = lengths.tolist()
    ref = [is_delaunay_reference(tri, L, e) for e in range(tri.edge_count)]
    assert is_delaunay(tri, lengths, np.arange(tri.edge_count)).tolist() == ref
    assert [is_delaunay(tri, lengths, e) for e in range(tri.edge_count)] == ref
    assert all(type(is_delaunay(tri, lengths, e)) is bool for e in range(3))
    assert is_delaunay_all(tri, lengths) == [e for e, ok in enumerate(ref) if not ok]


@SETTINGS
@given(metrics())
def test_jacobian_off_diagonal_is_minus_cot_weight(case):
    tri, lengths = case
    if degenerate_faces(tri, lengths):
        try:
            curvature_jacobian(tri, lengths)
        except errors.DegenerateFace:
            return
        raise AssertionError("Jacobian accepted a degenerate metric")
    n = tri.vertex_count
    ref = np.zeros((n, n))
    for e in range(tri.edge_count):
        i, j = tri.edge_vertices(e)
        if i != j:
            w = cot_weight(tri, lengths, e)
            ref[i, j] -= w
            ref[j, i] -= w
    J = curvature_jacobian(tri, lengths)
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(J[off], ref[off], rtol=1e-12, atol=1e-12)


@SETTINGS
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_batched_triangle_energy_is_sum_of_scalar_calls(faces, seed):
    rng = np.random.default_rng(seed)
    base = np.exp(rng.uniform(-1.0, 1.0, (3, faces)))
    u = rng.uniform(-1.0, 1.0, (3, faces))
    scalar = sum(triangle_energy(base[:, k], u[:, k]) for k in range(faces))
    assert abs(triangle_energy(base, u) - scalar) < 1e-12


PASS_MESHES = (
    [parse_lengths_json(json.dumps(flat_torus_document(m, a, b)))
     for m in (3, 4) for a, b in (([1, 0], [0, 1]),           # cocircular diagonals
                                  ([1, 0], [0.5, 0.75 ** 0.5]),  # equilateral
                                  ([1, 0], [6.5, 0.9]))]       # slivers
    + [(tri, lens) for name, tri, lens in all_fixture_meshes() if name == "genus2"])


@st.composite
def pass_inputs(draw):
    """(triangulation, metric): a mesh above scaled at random log factors."""
    tri, base = PASS_MESHES[draw(st.integers(0, len(PASS_MESHES) - 1))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = draw(st.sampled_from([0.0, 1e-11, 1e-3, 0.1, 0.3]))
    return tri, scale_metric(tri, base, rng.normal(0.0, sigma, tri.vertex_count))


@SETTINGS
@given(pass_inputs())
def test_screened_pass_matches_scalar_loop(case):
    """The round pass ends where the one-flip-at-a-time FIFO loop ends.

    Flip for flip they differ (a round flips many edges at once), so the
    comparison is of the outputs: the same surface, Delaunay, isometric,
    and the same faces wherever the Delaunay triangulation is unique, that
    is, no output margin lies within the slack.
    """
    tri, lengths = case
    L = lengths.tolist()
    assert is_delaunay_all(tri, lengths) == [
        e for e in range(tri.edge_count) if not is_delaunay(tri, L, e)]
    try:
        ref_tri, ref_lengths, _ = make_delaunay_reference(tri, lengths)
    except errors.PLCurvError as exc:
        with pytest.raises(type(exc)):
            make_delaunay(tri, lengths)
        return
    out_tri, out_lengths, _ = make_delaunay(tri, lengths)
    assert ((out_tri.vertex_count, out_tri.face_count, out_tri.chi)
            == (ref_tri.vertex_count, ref_tri.face_count, ref_tri.chi))
    assert is_delaunay_all(out_tri, out_lengths) == []
    gap = np.abs(curvature(out_tri, out_lengths) - curvature(ref_tri, ref_lengths))
    assert gap.max() < 1e-12
    if min(np.abs(edge_margins(t, x)).min()
           for t, x in ((out_tri, out_lengths), (ref_tri, ref_lengths))) > DELAUNAY_SLACK:
        assert sorted(face_multiset(out_tri)) == sorted(face_multiset(ref_tri))
    if repeats_vertex(out_tri):
        return  # the builder refuses a face that repeats a vertex
    # the flipped arrays are the mesh the gluing makes of their own faces and
    # ids; only the direction of a flipped edge's first side is free
    glued = build_triangulation(out_tri.faces, out_tri.vertex_count, out_tri.face_edges)
    assert np.array_equal(glued.faces, out_tri.faces)
    assert np.array_equal(glued.face_edges, out_tri.face_edges)
    assert np.array_equal(np.sort(glued.edge_sides, axis=1), np.sort(out_tri.edge_sides, axis=1))


def test_sliver_pass_converges_in_few_rounds(monkeypatch):
    """A 24 x 24 sliver torus needs thousands of flips but few rounds."""
    tri, lengths = parse_lengths_json(json.dumps(flat_torus_document(24, [1, 0], [6.5, 0.9])))
    rounds = []
    flip = Triangulation.flip

    def counted(self, e):
        rounds.append(np.size(e))
        return flip(self, e)

    monkeypatch.setattr(Triangulation, "flip", counted)
    out_tri, out_lengths, flips = make_delaunay(tri, lengths)
    assert 0 < len(rounds) <= 10
    assert sum(rounds) == len(flips) > 1000
    assert is_delaunay_all(out_tri, out_lengths) == []
    assert np.abs(curvature(out_tri, out_lengths) - curvature(tri, lengths)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 6]), st.floats(0.0, 6.5), st.floats(0.5, 1.5))
def test_pass_record_is_its_rounds_joined_in_order(m, shear, height):
    """make_delaunay's log holds each round's edge ids, rounds in order.

    Flat tori on the lattice of (1, 0) and (shear, height) take up to
    six rounds.
    """
    doc = flat_torus_document(m, [1, 0], [shear, height])
    tri, lengths = parse_lengths_json(json.dumps(doc))
    rounds = []
    flip = Triangulation.flip

    def recorded(self, e):
        rounds.append(np.array(e, ndmin=1).tolist())
        return flip(self, e)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Triangulation, "flip", recorded)
        _, _, flips = make_delaunay(tri, lengths)
    assert flips.dtype == np.intp
    assert flips.tolist() == [e for r in rounds for e in r]
