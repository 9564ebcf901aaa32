"""The array wall search against the point-by-point oracle, and chart transport.

``solver._first_wall`` scores the 16 panels, and then several bisection
levels, per kernel call on stacked metrics.  It must return what
probing one point at a time with ``scale_metric`` and ``delaunay_margin``
on a single metric returns (``first_wall_reference`` in conftest).
"""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_fixture_meshes,
    first_wall_reference,
    flip_with_length,
    torus9_faces,
    unit_lengths,
)

from plcurv import cli, errors, geometry
from plcurv.flows import FlowConfig, make_state, step
from plcurv.geometry import LOG_FACTOR_BOUND, delaunay_margin, scale_metric
from plcurv.mesh import build_triangulation
from plcurv.solver import _first_wall, carry_chart

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
        edges = tri.edge_ids()
        try:
            tri, _ = tri.flip(edges[pick % len(edges)])
        except errors.FlipDegeneratesComplex:
            pass
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.floats(0.0, 0.5))
    base = np.array([math.exp(rng.uniform(-spread, spread)) for _ in tri.edge_ids()])
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


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(MESHES) - 1), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 5))
def test_stacked_margin_is_each_single_margin(mesh, seed, count):
    tri = MESHES[mesh]
    rng = np.random.default_rng(seed)
    base = np.array([math.exp(rng.uniform(-0.5, 0.5)) for _ in tri.edge_ids()])
    U = rng.uniform(-1.0, 1.0, (count, tri.vertex_count))
    stacked = delaunay_margin(tri, scale_metric(tri, base, U))
    assert stacked.shape == (count,)
    for k in range(count):
        assert stacked[k] == delaunay_margin(tri, scale_metric(tri, base, U[k]))


class TestCarryChart:
    def test_each_flip_carries_the_fraction_walked(self):
        tri, base, ends = TestWallCases.stretched_torus()
        u_to = 0.3 * ends
        out_tri, out_base, flips = carry_chart(tri, base, np.zeros(9), u_to)
        assert len(flips) == 1
        s, info = flips[0]
        assert s == _first_wall(tri, base, np.zeros(9), u_to)[0]
        at = s * u_to
        # the surgery ran on the input chart at the wall: replaying it there
        # makes the same flip and gives the same chart
        replay_tri, replay_base, infos = geometry.delaunay_surgery(tri, base, at)
        assert infos == [info]
        assert np.array_equal(replay_tri.faces, out_tri.faces)
        assert np.array_equal(replay_base, out_base)
        assert info.old_length == scale_metric(tri, base, at)[info.edge]
        assert info.new_length == pytest.approx(
            scale_metric(out_tri, out_base, at)[info.edge], rel=1e-14)
        assert geometry.is_delaunay_all(
            out_tri, scale_metric(out_tri, out_base, u_to)) == []

    def test_flip_with_length_reports_both_lengths(self):
        tri = build_triangulation(torus9_faces())
        lengths = unit_lengths(tri)
        e = 0
        tri2, lengths2, info = flip_with_length(tri, lengths, e)
        assert info.old_length == 1.0
        assert info.new_length == lengths2[e]

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


def test_flows_imports_no_private_solver_names():
    source = pathlib.Path(cli.__file__).with_name("flows.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert not [a.name for a in node.names if a.name.startswith("_")]
