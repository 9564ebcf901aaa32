"""The curvature energy takes one value in every Delaunay chart.

energy_W_alpha has no anchor: its face and edge terms depend only on the
scaled lengths, and a flip at a cocircular edge leaves them unchanged.
Charts are carried along random segments with ``carry_chart``; each
surgery on the way is replayed from the point it reports and checked,
and Newton's reported values must be plain energy differences between
its start and final charts.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcurv.flows import FlowConfig, make_state, step
from plcurv.geometry import curvature, delaunay_surgery, face_angles, scale_metric
from plcurv.mesh import build_triangulation
from plcurv.solver import Target, carry_chart, energy_W_alpha, newton_solve

from conftest import GENUS2_FACES, cube12_faces, lattice_torus_faces

MESHES = ([build_triangulation(lattice_torus_faces(m)) for m in (3, 4, 5, 6)]
          + [build_triangulation(GENUS2_FACES)])

CUBE = build_triangulation(cube12_faces())

SETTINGS = settings(max_examples=100, deadline=None)


def energy(tri, base, u, alpha=-1.0):
    rbar = np.ones(tri.vertex_count)
    return energy_W_alpha(tri, base, u, alpha, rbar, order=1).value


def delaunay_start(tri, rng, spread):
    """Log-uniform lengths around 1, made Delaunay at u = 0."""
    base = np.exp(rng.uniform(-spread, spread, tri.edge_count))
    tri, base, _ = delaunay_surgery(tri, base, np.zeros(tri.vertex_count))
    return tri, base


@SETTINGS
@given(st.integers(0, len(MESHES) - 1), st.sampled_from([0.0, 0.15]),
       st.integers(0, 2 ** 32 - 1))
def test_energy_is_the_same_across_every_surgery(mesh, spread, seed):
    rng = np.random.default_rng(seed)
    tri, base = delaunay_start(MESHES[mesh], rng, spread)
    u = rng.normal(0.0, 0.15, tri.vertex_count)
    out_tri, out_base, flips, walls = carry_chart(tri, base, np.zeros(tri.vertex_count), u)
    gaps = []
    rows = zip(walls.tolist(), flips.edge.tolist())
    for s, group in itertools.groupby(rows, key=lambda row: row[0]):
        at = s * u
        tri_a, base_a, made = delaunay_surgery(tri, base, at)
        assert made.edge.tolist() == [e for _, e in group]
        before = energy(tri, base, at)
        gaps.append(abs(energy(tri_a, base_a, at) - before) / (1.0 + abs(before)))
        tri, base = tri_a, base_a
    assert np.array_equal(tri.faces, out_tri.faces)
    assert np.allclose(base, out_base, rtol=1e-12, atol=0.0)
    assert all(gap <= 1e-12 for gap in gaps), max(gaps)


def test_surgeries_happen_on_the_drawn_segments():
    # the property above is not vacuous: these draws flip edges
    rng = np.random.default_rng(5)
    flipped = 0
    for tri0 in MESHES[:4]:
        tri, base = delaunay_start(tri0, rng, 0.15)
        _, _, flips, _ = carry_chart(tri, base, np.zeros(tri.vertex_count),
                                     rng.normal(0.0, 0.15, tri.vertex_count))
        flipped += bool(flips)
    assert flipped >= 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(MESHES)), st.integers(0, 2 ** 32 - 1))
def test_energy_reads_the_curvature_angles(mesh, seed):
    # one angle route: the angles the value and the gradient read are bit for
    # bit those geometry.curvature takes from the scaled metric
    rng = np.random.default_rng(seed)
    tri = MESHES[mesh] if mesh < len(MESHES) else CUBE
    base = np.exp(rng.uniform(-0.2, 0.2, tri.edge_count))
    u = rng.normal(0.0, 0.3, tri.vertex_count)
    rbar = rng.uniform(0.5, 1.5, tri.vertex_count)
    scaled = scale_metric(tri, base, u)
    rep = energy_W_alpha(tri, base, u, -1.0, rbar, order=1)
    assert np.array_equal(rep.angles, face_angles(tri, scaled))
    assert np.array_equal(rep.gradient, curvature(tri, scaled) - rbar * np.exp(-u))


@pytest.mark.parametrize("alpha", [-1.0, 0.0])
def test_newton_trace_value_is_the_energy_difference(alpha):
    rng = np.random.default_rng(7)
    tri, base = delaunay_start(build_triangulation(lattice_torus_faces(5)),
                               rng, 0.15)
    u0 = rng.uniform(-0.2, 0.2, tri.vertex_count)
    res = newton_solve(tri, base, u0, alpha, Target.constant())
    assert sum(row.flips for row in res.trace[1:]) > 0  # flips after the start
    rbar, _ = Target.constant().resolve(alpha, tri.chi, u0)
    tri_s, base_s, _, _ = carry_chart(tri, base, np.zeros(tri.vertex_count), u0)

    def value(t, b, u):
        return energy_W_alpha(t, b, u, alpha, rbar, order=1).value

    expected = value(res.tri, res.base, res.u) - value(tri_s, base_s, u0)
    assert res.trace[0].value == 0.0
    assert abs(res.trace[-1].value - expected) <= 1e-12


def test_flow_energy_after_a_flip_is_the_arrival_charts():
    # a step that crosses a wall stores the energy on the chart it lands in,
    # not the departure chart's continuation past the wall
    rng = np.random.default_rng(3)
    tri, base = delaunay_start(build_triangulation(lattice_torus_faces(4)),
                               rng, 0.15)
    state = make_state(tri, base, rng.normal(0.0, 0.15, tri.vertex_count), -1.0)
    config = FlowConfig(kind="yamabe", dt=0.2)
    flipped = 0
    for _ in range(40):
        before = len(state.flips)
        state = step(state, config)
        if len(state.flips) > before:
            flipped += 1
            rep = energy_W_alpha(state.tri, state.base, state.u, state.alpha,
                                 state.rbar, offset=state.w_offset,
                                 order=1)
            assert state.w_value == rep.value
    assert flipped > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_newton_converges_quadratically_on_a_large_torus(seed):
    # |E| grows with the mesh (about 1,200 at V = 576), and so does the
    # rounding of each value; the line search's noise band must cover it,
    # or full Newton steps near the solution read as increases
    tri = build_triangulation(lattice_torus_faces(24))
    u0 = 1e-5 * np.random.default_rng(seed).normal(size=tri.vertex_count)
    res = newton_solve(tri, np.ones(tri.edge_count), u0, -1.0, Target.constant())
    assert res.iterations <= 3
    assert all(row.step == 1.0 for row in res.trace[1:])
