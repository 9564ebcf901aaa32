"""Property tests: the array kernel against per-face and per-edge loops.

Metrics are random log-uniform edge lengths, wide enough that many faces
degenerate.  Triangulations are the fixture meshes after random flips,
so slots hold flipped-in edges and faces, and doubled edges occur
(genus 2 has them from the start).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plcurv import errors
from plcurv.geometry import (
    DELAUNAY_SLACK,
    cot_weight,
    curvature,
    curvature_jacobian,
    degenerate_faces,
    delaunay_margin,
    is_delaunay_all,
    triangle_angles,
)
from plcurv.solver import triangle_energy

from conftest import all_fixture_meshes

MESHES = [tri for _, tri, _ in all_fixture_meshes()]

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def metrics(draw):
    """(triangulation, lengths) after up to six random flips."""
    tri = MESHES[draw(st.integers(0, len(MESHES) - 1))]
    for pick in draw(st.lists(st.integers(0, 10 ** 6), max_size=6)):
        edges = tri.edge_ids()
        try:
            tri, _ = tri.flip(edges[pick % len(edges)])
        except errors.FlipDegeneratesComplex:
            pass
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.floats(0.05, 1.5))
    lengths = np.array([math.exp(rng.uniform(-spread, spread)) for _ in tri.edge_ids()])
    return tri, lengths


def corner_angles_loop(tri, lengths):
    """Face id -> angles at corners 0, 1, 2 (corner c faces slot (c+1) % 3)."""
    out = {}
    for f in tri.face_ids():
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
    for f in tri.face_ids():
        a, b, c = (lengths[e] for e in tri.face_edges[f])
        if max(a, b, c) >= (a + b + c) - max(a, b, c):
            ref.append(f)
    assert degenerate_faces(tri, lengths) == ref


@SETTINGS
@given(metrics())
def test_margin_matches_edge_loop_and_predicate(case):
    tri, lengths = case
    angles = corner_angles_loop(tri, lengths)
    ref = math.inf
    for e in tri.edge_ids():
        # the angle facing slot s sits at corner (s + 2) % 3
        t1, t2 = (angles[f][(s + 2) % 3] for f, s in tri.edge_sides[e])
        ref = min(ref, math.pi - t1 - t2)
    margin = delaunay_margin(tri, lengths)
    assert abs(margin - ref) < 1e-12
    assert (margin < -DELAUNAY_SLACK) == bool(is_delaunay_all(tri, lengths))


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
    for e in tri.edge_ids():
        i, j = tri.edge_vertices(e)
        if i != j:
            w = cot_weight(tri, lengths, e)
            ref[i, j] -= w
            ref[j, i] -= w
    J = curvature_jacobian(tri, lengths).toarray()
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
