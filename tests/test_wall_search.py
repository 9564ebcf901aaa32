"""The array wall search against the point-by-point oracle, and chart transport.

``solver._first_wall`` scores the 16 panels, and then several bisection
levels, per kernel call on stacks of probe points.  It must return what
probing one point at a time with ``scale_metric`` and ``edge_margins``
on a single metric returns (``first_wall_reference`` in conftest).
Before it scans, a closed-form certificate clears the edges that stay
Delaunay on the whole segment, and the kernel scores only the quads of
the rest.
"""

import ast
import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_fixture_meshes,
    chart_faces,
    first_wall_reference,
    flat_torus_document,
    flip_columns,
    flip_with_length,
    lattice_torus_faces,
    ptolemy_pass_reference,
    torus9_faces,
    unit_lengths,
)

from plcurv import cli, errors, geometry, solver
from plcurv.flows import FlowConfig, make_state, run_flow, step
from plcurv.geometry import (
    LOG_FACTOR_BOUND,
    delaunay_margin,
    edge_margins,
    scale_metric,
    side_lengths,
)
from plcurv.mesh import build_triangulation, load_mesh, parse_lengths_json
from plcurv.solver import (
    _WALL_MARGIN,
    Target,
    _first_wall,
    _uncertified_edges,
    carry_chart,
    newton_solve,
)

MESHES = [tri for _, tri, _ in all_fixture_meshes()]


def agree(tri, base, u, delta):
    s, hit = _first_wall(tri, base, u, delta)
    s_ref, hit_ref = first_wall_reference(tri, base, u, delta)
    assert hit == hit_ref
    assert abs(s - s_ref) <= 4e-12 * max(1.0, s_ref)
    return s, hit


@st.composite
def segments(draw):
    """(tri, base, u, delta) on fixture meshes after up to four flips.

    Directions span no wall (tiny steps) to a wall inside the first
    panel (long steps); a constant shift of +-400 or -1000 pushes the
    far end of the segment past LOG_FACTOR_BOUND.
    """
    tri = MESHES[draw(st.integers(0, len(MESHES) - 1))]
    for pick in draw(st.lists(st.integers(0, 10 ** 6), max_size=4)):
        edges = range(tri.edge_count)
        try:
            tri, _ = tri.flip(edges[pick % len(edges)])
        except errors.FlipDegeneratesComplex:
            pass
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.floats(0.0, 0.5))
    base = np.array([math.exp(rng.uniform(-spread, spread)) for _ in range(tri.edge_count)])
    n = tri.vertex_count
    u = rng.uniform(-0.3, 0.3, n) * draw(st.floats(0.0, 1.0))
    scale = draw(st.sampled_from([0.0, 1e-4, 0.05, 0.5, 2.0, 20.0]))
    shift = draw(st.sampled_from([0.0, 0.0, 400.0, -1000.0]))
    delta = scale * rng.normal(size=n) + shift
    return tri, base, u, delta


@settings(max_examples=100, deadline=None)
@given(segments())
def test_wall_search_matches_point_by_point_oracle(case):
    agree(*case)


class TestWallCases:
    """One segment of each kind, so every kind is checked on every run."""

    @staticmethod
    def stretched_torus():
        # one edge at 1.3: Delaunay, with a wall once its ends grow
        tri = build_triangulation(torus9_faces())
        base = unit_lengths(tri)
        e = 0
        base[e] = 1.3
        ends = np.zeros(tri.vertex_count)
        ends[list(tri.edge_vertices(e))] = 1.0
        return tri, base, ends

    def test_no_wall(self):
        tri, base, ends = self.stretched_torus()
        assert agree(tri, base, np.zeros(9), 0.05 * ends) == (1.0, False)

    def test_wall_inside_first_panel(self):
        tri, base, ends = self.stretched_torus()
        s, hit = agree(tri, base, np.zeros(9), 2.0 * ends)
        assert hit and 0.0 < s < 1.0 / 16

    def test_wall_in_a_later_panel(self):
        tri, base, ends = self.stretched_torus()
        s, hit = agree(tri, base, np.zeros(9), 0.3 * ends)
        assert hit and 4.0 / 16 < s < 5.0 / 16

    def test_overflow_in_later_panels_counts_as_wall(self):
        # a constant shift only scales the metric, so the one wall is
        # where |u| passes LOG_FACTOR_BOUND, at s = 0.75
        tri, base, _ = self.stretched_torus()
        s, hit = agree(tri, base, np.zeros(9), np.full(9, 400.0))
        assert hit and abs(s - LOG_FACTOR_BOUND / 400.0) < 1e-11


def test_a_nan_margin_is_a_wall():
    """Scaled lengths that overflow give NaN margins, which the scan counts
    as a wall, as is_delaunay counts them as violations; the surgery there
    then names the quad it cannot flip."""
    tri = build_triangulation(lattice_torus_faces(4))
    base, u, delta = np.full(tri.edge_count, 1e200), np.zeros(16), np.zeros(16)
    delta[0] = 250.0
    with np.errstate(over="ignore", invalid="ignore"):
        s, hit = agree(tri, base, u, delta)
        assert hit and 0.99 < s < 1.0
        assert np.isinf(scale_metric(tri, base, s * delta)).any()
        assert np.isfinite(scale_metric(tri, base, (s - 1e-11) * delta)).all()
        with pytest.raises(errors.NonFiniteValue, match="quad of edge 0 has a side of length inf"):
            carry_chart(tri, base, u, delta)


DEPTH_MESHES = [(build_triangulation(lattice_torus_faces(m)), None) for m in (3, 4, 5, 6)] + [
    load_mesh(str(pathlib.Path(__file__).with_name("data") / "cube.off"))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, len(DEPTH_MESHES) - 1), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.05, 0.5, 2.0, 20.0]))
def test_bisection_depth_never_moves_a_wall(mesh, seed, scale):
    """Every probe is an exact dyadic node and the walk reads one per level,
    so any number of levels per kernel call finds the same wall."""
    tri, base = DEPTH_MESHES[mesh]
    rng = np.random.default_rng(seed)
    if base is None:
        base = np.exp(rng.uniform(-0.3, 0.3, tri.edge_count))
    tri, base, _ = geometry.make_delaunay(tri, base)
    u, delta = rng.uniform(-0.3, 0.3, (2, tri.vertex_count)) * [[0.1], [scale]]
    walls = set()
    for depth in (1, 3, 5, 9):
        with mock.patch.object(solver, "_BISECT_DEPTH", depth):
            walls.add(repr(_first_wall(tri, base, u, delta)))
    assert len(walls) == 1


# --- the wall certificate -------------------------------------------------------

def document_mesh(doc):
    return parse_lengths_json(json.dumps(doc))


SLIVER_TORI = [document_mesh(flat_torus_document(m, (1.0, 0.0), (6.5, 0.9))) for m in (3, 4)]
SQUARE_TORI = [document_mesh(flat_torus_document(m, (1.0, 0.0), (0.0, 1.0))) for m in (3, 4)]
CERTIFIED_MESHES = ([(tri, base) for _, tri, base in all_fixture_meshes()]
                    + SLIVER_TORI + SQUARE_TORI)


@st.composite
def certificate_segments(draw):
    """(tri, base, u, delta) on fixture meshes, sliver tori and cocircular square tori.

    Bases keep their exact values (the square tori stay cocircular) or are
    jittered, then scaled by 1, 1e200 or 1e-200.  On unscaled bases the
    segment may start next to LOG_FACTOR_BOUND, and a shift of +400 or
    -1000 takes the far end past it.
    """
    tri, base = CERTIFIED_MESHES[draw(st.integers(0, len(CERTIFIED_MESHES) - 1))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jitter = draw(st.sampled_from([0.0, 0.0, 1e-9, 0.05, 0.3]))
    scale = draw(st.sampled_from([1.0, 1.0, 1e200, 1e-200]))
    base = base * np.exp(rng.uniform(-jitter, jitter, tri.edge_count)) * scale
    n = tri.vertex_count
    u = rng.uniform(-0.3, 0.3, n) * draw(st.sampled_from([0.0, 1e-6, 0.1, 1.0]))
    step = draw(st.sampled_from([0.0, 1e-4, 0.05, 0.5, 2.0, 20.0]))
    shift = 0.0
    if scale == 1.0:
        u += draw(st.sampled_from([0.0, 0.0, 0.0, LOG_FACTOR_BOUND - 1.0]))
        shift = draw(st.sampled_from([0.0, 0.0, 400.0, -1000.0]))
    return tri, base, u, step * rng.normal(size=n) + shift


@settings(max_examples=150, deadline=None)
@given(certificate_segments())
def test_certified_edges_stay_clear_on_the_whole_segment(case):
    tri, base, u, delta = case
    left = _uncertified_edges(tri, base, u, delta)
    if left is None:
        return
    cleared = np.setdiff1d(np.arange(tri.edge_count), left)
    s = np.linspace(0.0, 1.0, 65)
    scaled = scale_metric(tri, base, u + s[:, None] * delta)
    assert (edge_margins(tri, scaled)[:, cleared] > _WALL_MARGIN).all()
    L = side_lengths(tri, scaled)
    longest = geometry.max3(L)
    flat = longest >= (L[..., 0] + L[..., 1] + L[..., 2]) - longest
    assert not flat[:, tri.edge_sides[cleared] // 3].any()


@settings(max_examples=100, deadline=None)
@given(certificate_segments())
def test_certified_search_matches_point_by_point_oracle(case):
    agree(*case)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(CERTIFIED_MESHES) - 1), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, 0, 1, 3, 16, 31, 32]), st.sampled_from([None, 0.0, 0.2, 1.0]))
def test_restricted_margin_is_the_full_margin_bit_for_bit(mesh, seed, count, share):
    """delaunay_margin on stacked quad sides is the whole-mesh margin of
    those edges, on stacks of up to 32 metrics whose faces may degenerate;
    share None passes every edge."""
    tri, base = CERTIFIED_MESHES[mesh]
    rng = np.random.default_rng(seed)
    shape = (tri.vertex_count,) if count is None else (count, tri.vertex_count)
    lengths = scale_metric(tri, base, rng.uniform(-1.0, 1.0, shape))  # faces may degenerate
    edges = (slice(None) if share is None
             else np.flatnonzero(rng.random(tri.edge_count) < share))
    got = np.asarray(delaunay_margin(side_lengths(tri, lengths, edges)))
    if share is None or edges.size:
        want = edge_margins(tri, lengths)[..., edges].min(-1)
    else:
        want = np.full(lengths.shape[:-1], math.inf)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def scan_calls(tri, base, u, delta):
    """The (sides, margins) of every kernel call one search makes."""
    calls, margin = [], geometry.delaunay_margin

    def spy(sides):
        calls.append((sides, margin(sides)))
        return calls[-1][1]

    with mock.patch.object(geometry, "delaunay_margin", spy):
        _first_wall(tri, base, u, delta)
    return calls


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(CERTIFIED_MESHES) - 1), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.05, 0.5, 2.0, 20.0]))
def test_stacked_margin_is_each_single_margin(mesh, seed, scale):
    """The scan's panel call builds the sides scale_metric gives the quads
    left at s = 0 and the 16 panels, as the same floats, and each probe's
    minimum is its own.  A later call scores the 31 nodes of the next five
    levels and up to 31 of a replayed bisection path."""
    tri, base = CERTIFIED_MESHES[mesh]
    rng = np.random.default_rng(seed)
    base = base * np.exp(rng.uniform(-0.2, 0.2, tri.edge_count))
    u, delta = rng.uniform(-0.3, 0.3, (2, tri.vertex_count)) * [[1.0], [scale]]
    left = _uncertified_edges(tri, base, u, delta)
    calls = scan_calls(tri, base, u, delta)
    if left is not None and not left.size:
        assert calls == []
        return
    U = u + (np.arange(17) / 16)[:, None] * delta  # s = 0 and the 16 panels
    sides, _ = calls[0]
    want = side_lengths(tri, scale_metric(tri, base, U), slice(None) if left is None else left)
    assert sides.tobytes() == want.tobytes() and sides.shape == want.shape
    for x, (sides, margins) in enumerate(calls):
        assert margins.shape == (len(sides),)
        assert len(sides) == 17 if x == 0 else 31 <= len(sides) <= 31 + 36 - 5
        for k in range(len(sides)):
            assert margins[k] == delaunay_margin(sides[k])


class TestCertificate:
    def test_short_step_clears_every_edge_and_scans_nothing(self, monkeypatch):
        tri, base, ends = TestWallCases.stretched_torus()
        assert _uncertified_edges(tri, base, np.zeros(9), 0.05 * ends).size == 0
        monkeypatch.setattr(geometry, "delaunay_margin", None)  # a scan would fail
        assert _first_wall(tri, base, np.zeros(9), 0.05 * ends) == (1.0, False)

    def test_cocircular_diagonals_are_never_cleared(self):
        tri, base = SQUARE_TORI[1]
        diagonals = np.flatnonzero(np.abs(edge_margins(tri, base)) <= geometry.DELAUNAY_SLACK)
        assert len(diagonals) == 16
        delta = 1e-6 * np.random.default_rng(0).normal(size=tri.vertex_count)
        assert np.array_equal(_uncertified_edges(tri, base, np.zeros(16), delta), diagonals)

    def test_nothing_is_cleared_past_the_float_range(self):
        tri, base, ends = TestWallCases.stretched_torus()
        u = np.zeros(9)
        assert _uncertified_edges(tri, base, u, np.full(9, 400.0)) is None
        assert _uncertified_edges(tri, 1e300 * base, u, 0.05 * ends) is None
        assert _uncertified_edges(tri, base, u, np.full(9, math.nan)) is None
        # inside the float range but past LOG_FACTOR_BOUND: a wall to scan for
        near = np.full(9, LOG_FACTOR_BOUND - 1.0)
        assert _uncertified_edges(tri, base, near, 0.05 * ends + 2.0) is None
        assert agree(tri, base, near, 0.05 * ends + 2.0)[1]
        assert _uncertified_edges(tri, 1e200 * base, u, 0.05 * ends).size == 0


def test_certificate_leaves_few_edges_to_scan(monkeypatch):
    """Per search, the quad counts the scan's delaunay_margin calls receive,
    and the calls a search that hits a wall makes.

    A 12 x 12 lattice torus Newton solve (432 edges) and a 4 x 4 Yamabe
    flow (48 edges), both from random metrics on seed 0.  A hit scans
    the panels once, then bisects 36 levels (from 1/16 to 1e-12): at
    least _BISECT_DEPTH per call, and more where the replayed path holds.
    """
    searches, hits = [], []
    first_wall, margin = solver._first_wall, geometry.delaunay_margin

    def counted_search(*args):
        searches.append([])
        result = first_wall(*args)
        if result[1]:
            hits.append(len(searches[-1]))
        return result

    def counted_margin(sides):
        searches[-1].append(sides.shape[-3])
        return margin(sides)

    monkeypatch.setattr(solver, "_first_wall", counted_search)
    monkeypatch.setattr(geometry, "delaunay_margin", counted_margin)
    tri = build_triangulation(lattice_torus_faces(12))
    base = np.exp(np.random.default_rng(0).uniform(-0.25, 0.25, tri.edge_count))
    newton_solve(tri, base, np.zeros(tri.vertex_count), -1.0, Target.constant())
    newton, searches[:] = searches[:], []
    tri = build_triangulation(lattice_torus_faces(4))
    base = np.exp(np.random.default_rng(0).uniform(-0.4, 0.4, tri.edge_count))
    state, history = run_flow(tri, base, np.zeros(tri.vertex_count), -1.0, FlowConfig(integrator="euler"))
    assert history.status == "converged"

    def summary(runs):
        return (len(runs), sum(1 for calls in runs if not calls),
                max(max(calls) for calls in runs if calls))

    assert summary(newton) == (8, 3, 7)
    assert summary(searches) == (112, 107, 2)
    # 1 + ceil(36 / _BISECT_DEPTH) = 9 calls with _BISECT_DEPTH levels each
    assert hits == [4] * 7 and max(hits) <= 1 + math.ceil(36 / solver._BISECT_DEPTH)


# --- the chart cache -------------------------------------------------------------

CACHE_MESHES = ([build_triangulation(lattice_torus_faces(m)) for m in (3, 4, 5)]
                + [tri for name, tri, _ in all_fixture_meshes() if name == "genus2"])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(CACHE_MESHES) - 1), st.integers(0, 2 ** 32 - 1))
def test_certificate_constants_live_for_one_chart(mesh, seed):
    tri = CACHE_MESHES[mesh]
    rng = np.random.default_rng(seed)
    base = np.exp(rng.uniform(-0.05, 0.05, tri.edge_count))
    n = tri.vertex_count
    u, step = rng.uniform(-0.1, 0.1, n), rng.uniform(-0.05, 0.05, n)
    built = []

    class Spy(solver._Chart):
        def __init__(self, tri, *args):
            built.append(tri)
            super().__init__(tri, *args)

    solver._CHARTS.pop(tri, None)  # an earlier example's chart
    with mock.patch.object(solver, "_Chart", Spy):
        agree(tri, base, u, step)
        agree(tri, base, u + step, -step)
        assert built == [tri]  # the constants are reused on their own chart
        e = rng.permutation(tri.edge_count)[0]
        flipped, flipped_base, _ = flip_with_length(tri, base, e)
        agree(flipped, flipped_base, u, step)  # after a surgery
        assert built == [tri, flipped]
        agree(tri, base, u, step)  # each triangulation keeps its own
        assert built == [tri, flipped]
        base[e] *= 1.0 + 1e-3  # an in-place edit of the writable base
        agree(tri, base, u, step)
        assert built == [tri, flipped, tri]


# --- route independence -----------------------------------------------------------

ROUTE_MESHES = ([(build_triangulation(lattice_torus_faces(m)), None) for m in range(3, 9)]
                + [(tri, base) for name, tri, base in all_fixture_meshes()
                   if name in ("cube12", "genus2")])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(ROUTE_MESHES) - 1), st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 0.6), st.integers(1, 3))
def test_carried_chart_is_the_ptolemy_pass_chart(mesh, seed, sigma, segments):
    # the chart carry_chart reaches at u does not depend on the route there
    tri, lengths = ROUTE_MESHES[mesh]
    rng = np.random.default_rng(seed)
    lengths = unit_lengths(tri) if lengths is None else lengths
    while geometry.degenerate_faces(
            tri, base := lengths * np.exp(rng.uniform(-0.25, 0.25, tri.edge_count))):
        pass
    tri, base, _ = geometry.make_delaunay(tri, base)
    n = tri.vertex_count
    route = [np.zeros(n)] + [rng.uniform(-sigma, sigma, n) for _ in range(segments)]
    walked_tri, walked_base = tri, base
    for a, b in zip(route, route[1:]):
        walked_tri, walked_base, _, _ = carry_chart(walked_tri, walked_base, a, b)
    walked = chart_faces(walked_tri, walked_base, route[-1])
    ref = chart_faces(*ptolemy_pass_reference(tri, base, route[-1]), route[-1])
    assert [cycle for cycle, _ in walked] == [cycle for cycle, _ in ref]
    np.testing.assert_allclose([s for _, s in walked], [s for _, s in ref], rtol=1e-12, atol=0)


class TestCarryChart:
    def test_each_flip_carries_the_fraction_walked(self):
        tri, base, ends = TestWallCases.stretched_torus()
        u_to = 0.3 * ends
        out_tri, out_base, flips, walls = carry_chart(tri, base, np.zeros(9), u_to)
        assert len(flips) == len(walls) == 1
        s, e = walls[0], flips.edge[0]
        assert s == _first_wall(tri, base, np.zeros(9), u_to)[0]
        at = s * u_to
        # the surgery ran on the input chart at the wall: replaying it there
        # makes the same flip and gives the same chart
        replay_tri, replay_base, replayed = geometry.delaunay_surgery(tri, base, at)
        assert flip_columns(replayed) == flip_columns(flips)
        assert np.array_equal(replay_tri.faces, out_tri.faces)
        assert np.array_equal(replay_base, out_base)
        assert flips.old_length[0] == scale_metric(tri, base, at)[e]
        assert flips.new_length[0] == pytest.approx(
            scale_metric(out_tri, out_base, at)[e], rel=1e-14)
        assert geometry.is_delaunay_all(
            out_tri, scale_metric(out_tri, out_base, u_to)) == []

    def test_flip_with_length_reports_both_lengths(self):
        tri = build_triangulation(torus9_faces())
        lengths = unit_lengths(tri)
        e = 0
        tri2, lengths2, info = flip_with_length(tri, lengths, e)
        assert info.old_length.tolist() == [1.0]
        assert info.new_length.tolist() == [lengths2[e]]

    def test_flip_cap_raises_one_error_type(self, monkeypatch):
        # a cap of zero flips: the solver's and the flow's carry both trip it
        tri, base, ends = TestWallCases.stretched_torus()
        monkeypatch.setattr(geometry, "FLIP_CAP_FACTOR", 0)
        with pytest.raises(errors.FlipLimitExceeded):
            carry_chart(tri, base, np.zeros(9), 0.3 * ends)
        base[0] = 1.9  # past the wall: the first step flips
        with pytest.raises(errors.FlipLimitExceeded):
            step(make_state(tri, base, np.zeros(9), 1.0),
                 FlowConfig(kind="yamabe", dt=1e-12))


LATTICES = [build_triangulation(lattice_torus_faces(m)) for m in (4, 5, 6)]
CARRY_MESHES = ([(tri, unit_lengths(tri)) for tri in LATTICES]
                + [load_mesh(str(pathlib.Path(__file__).with_name("data") / "cube.off"))])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, len(CARRY_MESHES) - 1), st.integers(0, 2 ** 32 - 1))
def test_carry_chart_arrives_on_a_delaunay_chart(mesh, seed):
    """Every wall the scan reports gets flipped: the scan and the Delaunay
    pass read the same margins, so the arrival chart is Delaunay."""
    tri, base = CARRY_MESHES[mesh]
    n = tri.vertex_count
    u_to = np.random.default_rng(seed).uniform(-0.3, 0.3, n)
    out_tri, out_base, _, _ = carry_chart(tri, base, np.zeros(n), u_to)
    scaled = scale_metric(out_tri, out_base, u_to)
    assert geometry.is_delaunay_all(out_tri, scaled) == []
    assert abs(geometry.curvature(out_tri, scaled).sum() - 2.0 * math.pi * out_tri.chi) < 1e-9


def test_flows_imports_no_private_solver_names():
    source = pathlib.Path(cli.__file__).with_name("flows.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert not [a.name for a in node.names if a.name.startswith("_")]
