import math

import numpy as np
import pytest

from plcurv import errors, geometry
from plcurv.geometry import (
    alpha_curvature,
    alpha_laplacian_apply,
    curvature,
    curvature_jacobian,
    degenerate_faces,
    face_angles,
    flip_length,
    is_delaunay,
    is_delaunay_all,
    make_delaunay,
    scale_metric,
)
from plcurv.mesh import build_triangulation
from plcurv.solver import carry_chart, energy_W_alpha

from conftest import (
    CUBE_COORDS,
    TETRA_FACES,
    all_fixture_meshes,
    cot_weight,
    cube12_faces,
    flip_with_length,
    lattice_torus_faces,
    random_lengths,
    triangle_angles,
    unit_lengths,
)


def edge_by_pair(tri, a, b):
    for e in range(tri.edge_count):
        if set(tri.edge_vertices(e)) == {a, b}:
            return e
    raise AssertionError(f"no edge {a}-{b}")


def tetra_metric(overrides):
    """Unit tetrahedron metric with lengths overridden by vertex pair."""
    tri = build_triangulation(TETRA_FACES)
    lengths = unit_lengths(tri)
    for (a, b), val in overrides.items():
        lengths[edge_by_pair(tri, a, b)] = val
    return tri, lengths


class TestTriangleAngles:
    def test_equilateral(self):
        assert triangle_angles(1, 1, 1) == pytest.approx((math.pi / 3,) * 3)

    def test_3_4_5(self):
        t = triangle_angles(5, 4, 3)
        assert t[0] == pytest.approx(math.pi / 2, abs=1e-15)
        assert t[1] == pytest.approx(math.asin(4 / 5), abs=1e-15)
        assert t[2] == pytest.approx(math.asin(3 / 5), abs=1e-15)

    def test_degenerate_extension_is_exact(self):
        assert triangle_angles(2.5, 1, 1) == (math.pi, 0.0, 0.0)
        assert triangle_angles(1, 3.5, 1) == (0.0, math.pi, 0.0)
        # exactly at the degeneracy onset
        assert triangle_angles(2.0, 1, 1) == (math.pi, 0.0, 0.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(errors.NonPositiveLength):
            triangle_angles(0.0, 1, 1)
        with pytest.raises(errors.NonPositiveLength):
            triangle_angles(1, -2, 1)

    def test_angle_sums_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            sides = np.exp(rng.uniform(-1.5, 1.5, size=3))
            s = sum(triangle_angles(*sides))
            assert abs(s - math.pi) < 1e-12


class TestScaleMetric:
    def test_identity(self, tetra):
        lengths = unit_lengths(tetra)
        out = scale_metric(tetra, lengths, np.zeros(4))
        assert np.array_equal(out, lengths)

    def test_single_edge_factor(self, tetra):
        lengths = unit_lengths(tetra)
        for e in range(tetra.edge_count):
            lengths[e] = 5.0
        u = np.zeros(4)
        u[0], u[1] = math.log(2.0), math.log(3.0)
        out = scale_metric(tetra, lengths, u)
        e01 = edge_by_pair(tetra, 0, 1)
        assert out[e01] == pytest.approx(30.0, rel=1e-15)

    def test_global_scale(self, torus9, lattice_torus_lengths):
        lam = 1.7
        u = np.full(9, math.log(lam))
        out = scale_metric(torus9, lattice_torus_lengths, u)
        for e, v in enumerate(lattice_torus_lengths):
            assert out[e] == pytest.approx(lam * lam * v, rel=1e-14)

    def test_overflow_guard(self, tetra):
        lengths = unit_lengths(tetra)
        with pytest.raises(errors.LogFactorOverflow):
            scale_metric(tetra, lengths, np.full(4, 301.0))
        with pytest.raises(errors.LogFactorOverflow):
            scale_metric(tetra, lengths, np.array([0, 0, 0, np.nan]))


def cube_angle_oracle():
    """Cube corner deficits straight from 3D coordinates (no law of cosines)."""
    pts = [np.array(p, dtype=float) for p in CUBE_COORDS]
    total = np.zeros(8)
    for f in cube12_faces():
        for c in range(3):
            v = f[c]
            a = pts[f[(c + 1) % 3]] - pts[v]
            b = pts[f[(c + 2) % 3]] - pts[v]
            cosv = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
            total[v] += math.acos(min(1.0, max(-1.0, cosv)))
    return 2 * math.pi - total


class TestCurvature:
    def test_tetrahedron(self, tetra):
        K = curvature(tetra, unit_lengths(tetra))
        assert K == pytest.approx(np.full(4, math.pi), abs=1e-12)
        assert K.sum() == pytest.approx(4 * math.pi, abs=1e-12)

    def test_flat_torus(self, torus9, lattice_torus_lengths):
        K = curvature(torus9, lattice_torus_lengths)
        assert np.max(np.abs(K)) < 1e-12

    def test_cube_matches_coordinate_oracle(self, cube12):
        tri, lengths = cube12
        K = curvature(tri, lengths)
        assert K == pytest.approx(cube_angle_oracle(), abs=1e-12)
        assert K == pytest.approx(np.full(8, math.pi / 2), abs=1e-12)

    def test_gauss_bonnet_random_metrics(self):
        rng = np.random.default_rng(23)
        for name, tri, _ in all_fixture_meshes():
            chi = tri.chi
            for _ in range(50):
                lengths = random_lengths(tri, rng)
                K = curvature(tri, lengths)
                err = abs(K.sum() - 2 * math.pi * chi)
                assert err < 1e-9 * tri.face_count, (name, err)

    def test_face_angle_sums(self):
        rng = np.random.default_rng(29)
        for _, tri, _ in all_fixture_meshes():
            lengths = random_lengths(tri, rng)
            for angs in face_angles(tri, lengths):
                assert abs(sum(angs) - math.pi) < 1e-12


class TestAlphaCurvature:
    def test_alpha_zero_reduces_to_deficit(self, tetra):
        K = curvature(tetra, unit_lengths(tetra))
        rep = alpha_curvature(K, np.zeros(4), 0.0, chi=2)
        assert rep.R_alpha == pytest.approx(K)
        assert rep.R_av == pytest.approx(2 * math.pi * 2 / 4)

    def test_tetra_alpha_minus_one_constant(self, tetra):
        K = curvature(tetra, unit_lengths(tetra))
        rep = alpha_curvature(K, np.zeros(4), -1.0, chi=2)
        assert rep.R_alpha == pytest.approx(np.full(4, math.pi), abs=1e-12)
        assert rep.R_av == pytest.approx(math.pi)
        assert rep.max_dev < 1e-12

    def test_direct_formula(self):
        K = np.full(4, math.pi)
        u = np.array([math.log(2.0), 0.0, 0.0, 0.0])
        rep = alpha_curvature(K, u, 1.0, chi=2)
        assert rep.R_alpha == pytest.approx(
            [math.pi / 2, math.pi, math.pi, math.pi])
        assert rep.R_av == pytest.approx(4 * math.pi / 5)
        assert rep.sum_K == pytest.approx(4 * math.pi)
        assert rep.max_dev == pytest.approx(abs(math.pi / 2 - 4 * math.pi / 5))

    def test_chi_inferred_from_deficit_sum(self, genus2):
        lengths = unit_lengths(genus2)
        K = curvature(genus2, lengths)
        rep = alpha_curvature(K, np.zeros(7), 0.5)
        assert rep.R_av == pytest.approx(2 * math.pi * (-2) / 7)

    def test_scaling_equivariance(self, cube12):
        tri, lengths = cube12
        rng = np.random.default_rng(31)
        u = rng.uniform(-0.1, 0.1, size=8)
        lam = 2.3
        for alpha in (-1.0, 0.0, 0.7, 1.0):
            base = scale_metric(tri, lengths, u)
            shifted = scale_metric(tri, lengths, u + math.log(lam))
            K1 = curvature(tri, base)
            K2 = curvature(tri, shifted)
            r1 = alpha_curvature(K1, u, alpha, chi=2)
            r2 = alpha_curvature(K2, u + math.log(lam), alpha, chi=2)
            assert r2.R_alpha == pytest.approx(
                r1.R_alpha * lam ** (-alpha), rel=1e-9, abs=1e-12)
            for e in range(tri.edge_count):
                assert is_delaunay(tri, base, e) == is_delaunay(tri, shifted, e)


class TestCotWeight:
    def test_two_right_angles(self):
        tri, lengths = tetra_metric({(0, 1): math.sqrt(2.0)})
        assert cot_weight(tri, lengths, edge_by_pair(tri, 0, 1)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_equilateral_pair(self, tetra):
        lengths = unit_lengths(tetra)
        for e in range(tetra.edge_count):
            assert cot_weight(tetra, lengths, e) == \
                pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)

    def test_supplementary_angles_cancel(self):
        s = 1.0 / math.sqrt(3.0)
        tri, lengths = tetra_metric({(0, 3): s, (1, 3): s})
        assert cot_weight(tri, lengths, edge_by_pair(tri, 0, 1)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_degenerate_face_clamps(self):
        tri, lengths = tetra_metric({(0, 1): 2.0})
        e12 = edge_by_pair(tri, 1, 2)
        # face (0,1,2) is flat: angle opposite {1,2} is 0 there
        w = cot_weight(tri, lengths, e12)
        assert w > 0.9 * geometry.COT_CLAMP


class TestJacobian:
    def test_flat_torus_entries(self, torus9, lattice_torus_lengths):
        L = curvature_jacobian(torus9, lattice_torus_lengths)
        off = -2.0 / math.sqrt(3.0)
        for i in range(9):
            for j in range(9):
                if i == j:
                    assert L[i, j] == pytest.approx(-6 * off, rel=1e-12)
                elif L[i, j] != 0.0:
                    assert L[i, j] == pytest.approx(off, rel=1e-12)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(L, L.T)

    def test_matches_finite_differences(self, tetra):
        # This test pins the Jacobian's scale: the analytic Jacobian
        # must match centered differences of the deficit in u.
        rng = np.random.default_rng(37)
        base = unit_lengths(tetra)
        u = rng.uniform(-0.1, 0.1, size=4)
        metric = scale_metric(tetra, base, u)
        assert not is_delaunay_all(tetra, metric)
        L = curvature_jacobian(tetra, metric)
        h = 1e-5
        fd = np.zeros_like(L)
        for j in range(4):
            dp = u.copy(); dp[j] += h
            dm = u.copy(); dm[j] -= h
            fd[:, j] = (curvature(tetra, scale_metric(tetra, base, dp))
                        - curvature(tetra, scale_metric(tetra, base, dm))) / (2 * h)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(L - fd)) < 1e-6 * scale

    def test_kernel_contains_constants(self):
        rng = np.random.default_rng(41)
        for _, tri, lengths in all_fixture_meshes():
            u = rng.uniform(-0.05, 0.05, size=tri.vertex_count)
            metric = scale_metric(tri, lengths, u)
            if degenerate_faces(tri, metric):
                continue
            L = curvature_jacobian(tri, metric)
            assert np.max(np.abs(L @ np.ones(tri.vertex_count))) < 1e-9

    def test_degenerate_rejected(self):
        tri, lengths = tetra_metric({(0, 1): 2.0})
        with pytest.raises(errors.DegenerateFace):
            curvature_jacobian(tri, lengths)

    def test_delaunay_implies_psd(self, torus9, lattice_torus_lengths):
        rng = np.random.default_rng(43)
        u = rng.uniform(-0.3, 0.3, size=9)
        metric = scale_metric(torus9, lattice_torus_lengths, u)
        tri2, metric2, _ = make_delaunay(torus9, metric)
        assert not is_delaunay_all(tri2, metric2)
        L = curvature_jacobian(tri2, metric2)
        vals = np.linalg.eigvalsh(L)
        assert vals.min() > -1e-9
        for _ in range(100):
            x = rng.standard_normal(9)
            q = x @ L @ x
            assert q > -1e-9
            if np.std(x) > 1e-3:
                assert q > 0.0


class TestAlphaLaplacian:
    def test_constant_function_maps_to_zero(self, cube12):
        tri, lengths = cube12
        out = alpha_laplacian_apply(tri, lengths, np.zeros(8), 0.7,
                                    np.full(8, 3.25))
        assert np.max(np.abs(out)) < 1e-12

    def test_indicator_row_on_flat_torus(self, torus9, lattice_torus_lengths):
        f = np.zeros(9)
        f[4] = 1.0
        out = alpha_laplacian_apply(torus9, lattice_torus_lengths,
                                    np.zeros(9), 0.0, f)
        w = 2.0 / math.sqrt(3.0)
        assert out[4] == pytest.approx(-6 * w, rel=1e-12)
        neighbors = [j for j in range(9) if j != 4 and out[j] != 0.0]
        assert len(neighbors) == 6
        for j in neighbors:
            assert out[j] == pytest.approx(w, rel=1e-12)

    def test_agrees_with_jacobian(self, cube12):
        tri, lengths = cube12
        rng = np.random.default_rng(47)
        u = rng.uniform(-0.2, 0.2, size=8)
        metric = scale_metric(tri, lengths, u)
        f = rng.standard_normal(8)
        alpha = 0.6
        direct = alpha_laplacian_apply(tri, metric, u, alpha, f)
        L = curvature_jacobian(tri, metric)
        via_jac = -np.exp(-alpha * u) * (L @ f)
        assert direct == pytest.approx(via_jac, rel=1e-12, abs=1e-12)

    def test_weighted_sum_vanishes(self):
        rng = np.random.default_rng(53)
        for _, tri, lengths in all_fixture_meshes():
            n = tri.vertex_count
            u = rng.uniform(-0.2, 0.2, size=n)
            metric = scale_metric(tri, lengths, u)
            f = rng.standard_normal(n)
            alpha = 1.3
            out = alpha_laplacian_apply(tri, metric, u, alpha, f)
            assert abs(np.sum(np.exp(alpha * u) * out)) < 1e-9 * max(
                1.0, np.max(np.abs(out)))


class TestDelaunay:
    def test_equilateral_true(self, tetra):
        lengths = unit_lengths(tetra)
        for e in range(tetra.edge_count):
            assert is_delaunay(tetra, lengths, e)
        assert is_delaunay_all(tetra, lengths) == []

    def test_obtuse_pair_false(self):
        # isoceles faces with apex angle 1.97 rad on both sides
        s = math.sqrt(2.0 * (1.0 - math.cos(1.97)))
        tri, lengths = tetra_metric({(0, 1): s})
        e = edge_by_pair(tri, 0, 1)
        assert not is_delaunay(tri, lengths, e)
        assert is_delaunay_all(tri, lengths) == [e]

    def test_cocircular_boundary_true(self):
        tri, lengths = tetra_metric({(0, 1): math.sqrt(2.0)})
        assert is_delaunay(tri, lengths, edge_by_pair(tri, 0, 1))


def test_every_edge_id_taker_refuses_an_id_out_of_range(torus9):
    lengths = unit_lengths(torus9)
    for bad in (-1, torus9.edge_count, -torus9.edge_count - 1):
        for call in (lambda: is_delaunay(torus9, lengths, bad),
                     lambda: is_delaunay(torus9, lengths, np.array([0, bad])),
                     lambda: geometry.edge_margins(torus9, lengths, [bad]),
                     lambda: flip_length(torus9, lengths, bad),
                     lambda: torus9.flip(bad)):
            with pytest.raises(KeyError, match=f"no edge {bad}"):
                call()
    assert torus9.quad_corners(slice(None)).shape == (torus9.edge_count, 2, 3)


class TestFlipLength:
    def test_square_other_diagonal(self):
        # both diagonals of a square have the same length
        tri, lengths = tetra_metric({(0, 1): math.sqrt(2.0)})
        got = flip_length(tri, lengths, edge_by_pair(tri, 0, 1))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_unit_rhombus(self, tetra):
        lengths = unit_lengths(tetra)
        for e in range(tetra.edge_count):
            assert flip_length(tetra, lengths, e) == \
                pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_kite_against_planar_embedding(self):
        tri, lengths = tetra_metric({(0, 1): 2.0, (0, 2): 1.2, (1, 2): 1.2,
                                     (0, 3): 1.2, (1, 3): 1.2})
        got = flip_length(tri, lengths, edge_by_pair(tri, 0, 1))
        # oracle: explicit coordinates for the two laid-out faces
        xi, xj = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        kx = (2.0 ** 2 + 1.2 ** 2 - 1.2 ** 2) / (2 * 2.0)
        ky = math.sqrt(1.2 ** 2 - kx ** 2)
        xk, xl = np.array([kx, ky]), np.array([kx, -ky])
        assert np.linalg.norm(xi - xj) == pytest.approx(2.0)
        assert got == pytest.approx(np.linalg.norm(xk - xl), rel=1e-12)
        assert got == pytest.approx(2.0 * math.sqrt(0.44), rel=1e-12)
        assert got == pytest.approx(1.3266499161421599, rel=1e-12)

    def test_degenerate_face_rejected(self):
        tri, lengths = tetra_metric({(0, 1): 2.0})
        with pytest.raises(errors.DegenerateFace):
            flip_length(tri, lengths, edge_by_pair(tri, 0, 1))

    def test_reflex_quad_rejected_only_when_delaunay(self):
        tri, lengths = tetra_metric({(1, 2): 1.9, (1, 3): 1.9})
        e = edge_by_pair(tri, 0, 1)
        assert is_delaunay(tri, lengths, e)
        with pytest.raises(errors.NonConvexQuad):
            flip_length(tri, lengths, e)

    def test_nondelaunay_quads_are_convex(self):
        # every non-Delaunay edge over many random metrics must flip
        rng = np.random.default_rng(59)
        checked = 0
        for _, tri, base in all_fixture_meshes():
            for _ in range(30):
                u = rng.uniform(-0.25, 0.25, size=tri.vertex_count)
                metric = scale_metric(tri, base, u)
                if degenerate_faces(tri, metric):
                    continue
                for e in is_delaunay_all(tri, metric):
                    flip_length(tri, metric, e)
                    checked += 1
        assert checked > 10


class TestFlipIsometry:
    def test_curvature_preserved_by_single_flips(self):
        rng = np.random.default_rng(61)
        for _, tri, base in all_fixture_meshes():
            u = rng.uniform(-0.15, 0.15, size=tri.vertex_count)
            metric = scale_metric(tri, base, u)
            K0 = curvature(tri, metric)
            for e in list(range(tri.edge_count))[:8]:
                try:
                    tri2, metric2, _ = flip_with_length(tri, metric, e)
                except errors.NonConvexQuad:
                    continue
                K1 = curvature(tri2, metric2)
                assert K1 == pytest.approx(K0, abs=1e-9)


class TestMakeDelaunay:
    def test_already_delaunay_is_identity(self, tetra):
        lengths = unit_lengths(tetra)
        tri2, lengths2, flips = make_delaunay(tetra, lengths)
        assert len(flips) == 0
        assert tri2 is tetra
        assert np.array_equal(lengths2, lengths)

    def test_kite_in_torus_single_flip(self, torus9, lattice_torus_lengths):
        # lengthen one lattice diagonal to 2 and its quad rim to 1.2:
        # exactly that edge violates Delaunay and exactly one flip fixes it
        lengths = lattice_torus_lengths.copy()
        e_long = edge_by_pair(torus9, 1, 3)
        lengths[e_long] = 2.0
        for a, b in ((0, 1), (1, 4), (4, 3), (3, 0)):
            lengths[edge_by_pair(torus9, a, b)] = 1.2
        assert is_delaunay_all(torus9, lengths) == [e_long]
        tri2, lengths2, flips = make_delaunay(torus9, lengths)
        # the new diagonal {0, 4} takes over the flipped edge's id
        assert flips.edge.tolist() == [e_long]
        assert set(tri2.edge_vertices(e_long)) == {0, 4}
        assert lengths2[e_long] == pytest.approx(
            2.0 * math.sqrt(0.44), rel=1e-12)
        assert is_delaunay_all(tri2, lengths2) == []
        assert curvature(tri2, lengths2) == pytest.approx(
            curvature(torus9, lengths), abs=1e-9)

    def test_random_scalings_of_flat_torus(self, torus9, lattice_torus_lengths):
        rng = np.random.default_rng(67)
        total_flips = 0
        done = 0
        while done < 10:
            u = rng.uniform(-0.45, 0.45, size=9)
            metric = scale_metric(torus9, lattice_torus_lengths, u)
            if degenerate_faces(torus9, metric):
                continue
            done += 1
            K0 = curvature(torus9, metric)
            tri2, metric2, flips = make_delaunay(torus9, metric)
            total_flips += len(flips)
            assert is_delaunay_all(tri2, metric2) == []
            assert curvature(tri2, metric2) == pytest.approx(K0, abs=1e-9)
        assert total_flips > 0


class TestLoopEdges:
    """The chart a walk from the unit 3x3 torus to u = -e_0 reaches: its
    surgery flips quads whose two faces share all three vertices, so loop
    edges at vertex 0 and faces that repeat it are in the chart."""

    @pytest.fixture(scope="class")
    def loop_chart(self):
        tri = build_triangulation(lattice_torus_faces(3))
        u = -np.eye(9)[0]
        tri, base, _, _ = carry_chart(tri, unit_lengths(tri), np.zeros(9), u)
        loops = np.flatnonzero(tri.edge_verts[:, 0] == tri.edge_verts[:, 1])
        assert loops.size and (tri.edge_verts[loops] == 0).all()
        return tri, base, u, loops

    def test_scale_metric_scales_a_loop_by_both_ends(self, loop_chart):
        tri, base, _, loops = loop_chart
        u = np.random.default_rng(5).normal(size=9)
        assert np.array_equal(scale_metric(tri, base, u)[loops],
                              np.exp(u[0] + u[0]) * base[loops])

    def test_gauss_bonnet(self, loop_chart):
        tri, base, u, _ = loop_chart
        metric = scale_metric(tri, base, u)
        assert degenerate_faces(tri, metric) == [] and is_delaunay_all(tri, metric) == []
        assert abs(curvature(tri, metric).sum() - 2.0 * math.pi * tri.chi) < 1e-9

    def test_jacobian_matches_finite_differences(self, loop_chart):
        tri, base, u, _ = loop_chart
        J = curvature_jacobian(tri, scale_metric(tri, base, u))
        fd = np.empty_like(J)
        h = 1e-5
        for j in range(9):
            step = h * np.eye(9)[j]
            fd[:, j] = (curvature(tri, scale_metric(tri, base, u + step))
                        - curvature(tri, scale_metric(tri, base, u - step))) / (2.0 * h)
        assert np.abs(fd - J).max() < 1e-6 * np.abs(J).max()

    def test_energy_gradient_matches_finite_differences(self, loop_chart):
        tri, base, u, _ = loop_chart
        rbar = np.linspace(0.0, 0.4, 9)  # alpha * rbar <= 0: a convex target

        def value(x):
            return energy_W_alpha(tri, base, x, -1.0, rbar, order=0).value

        grad = energy_W_alpha(tri, base, u, -1.0, rbar, order=1).gradient
        h = 1e-5
        fd = np.array([(value(u + h * e) - value(u - h * e)) / (2.0 * h) for e in np.eye(9)])
        assert np.abs(fd - grad).max() < 1e-6 * np.abs(grad).max()
