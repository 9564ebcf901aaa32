import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse

from plcurv import errors
from plcurv.geometry import (
    alpha_curvature,
    curvature,
    curvature_jacobian,
    degenerate_faces,
    delaunay_surgery,
    is_delaunay_all,
    scale_metric,
)
from plcurv.solver import (
    Target,
    apply_gauge,
    energy_W_alpha,
    lobachevsky,
    newton_solve,
    rigidity_check,
    triangle_energy,
    trial_energy,
    trial_fault,
)

from conftest import (
    all_fixture_meshes,
    energy_value_quadrature,
    random_lengths,
    triangle_energy_quadrature,
    unit_lengths,
)


def lobachevsky_quad_oracle(x):
    val, err = scipy.integrate.quad(
        lambda t: -math.log(abs(2.0 * math.sin(t))), 0.0, x,
        limit=200, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return val


class TestLobachevsky:
    def test_zeros(self):
        assert lobachevsky(0.0) == 0.0
        assert abs(lobachevsky(math.pi)) < 1e-12
        assert abs(lobachevsky(math.pi / 2)) < 1e-12

    def test_maximum_at_pi_over_six(self):
        assert lobachevsky(math.pi / 6) == pytest.approx(0.5074708, abs=1e-6)
        h = 1e-5
        assert lobachevsky(math.pi / 6) > lobachevsky(math.pi / 6 + h)
        assert lobachevsky(math.pi / 6) > lobachevsky(math.pi / 6 - h)

    def test_against_quadrature_oracle(self):
        for x in (0.05, 0.3, math.pi / 6, 1.0, math.pi / 2, 2.0, 3.0):
            assert lobachevsky(x) == pytest.approx(
                lobachevsky_quad_oracle(x), abs=1e-9)

    def test_odd_and_periodic(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-10, 10, size=25):
            assert lobachevsky(-x) == pytest.approx(-lobachevsky(x), abs=1e-12)
            assert lobachevsky(x + math.pi) == pytest.approx(
                lobachevsky(x), abs=1e-12)


def line_integral(base, u, u0):
    """Integral of the extended angles from u0 to u, as two energy values."""
    return triangle_energy(base, u) - triangle_energy(base, u0)


class TestTriangleEnergy:
    def test_empty_path(self):
        u = np.array([0.3, -0.1, 0.2])
        assert line_integral((1.0, 2.0, 1.5), u, u) == 0.0
        assert triangle_energy_quadrature((1.0, 2.0, 1.5), u, u) == 0.0

    def test_equilateral_diagonal(self):
        # along u = (s, s, s) the triangle stays equilateral, every angle
        # is pi/3, and the integral is pi * delta_s
        base = (1.0, 1.0, 1.0)
        for s0, s1 in ((0.0, 0.25), (-0.4, 0.1)):
            got = line_integral(base, np.full(3, s1), np.full(3, s0))
            assert got == pytest.approx(math.pi * (s1 - s0), abs=1e-12)

    def test_partials_are_extended_angles(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        cases = [np.array([0.2, -0.3, 0.1]),
                 np.array([0.0, 0.0, 0.0]),
                 np.array([2.0, -1.0, -1.0])]  # deeply degenerate: flat face
        base = np.array([1.0, 1.2, 0.9])
        for u in cases + [rng.uniform(-0.5, 0.5, 3) for _ in range(5)]:
            lam = [u[(a + 1) % 3] + u[(a + 2) % 3] + math.log(base[a])
                   for a in range(3)]
            ell = np.exp(lam)
            from plcurv.geometry import triangle_angles
            theta = triangle_angles(*ell)
            for a in range(3):
                dp, dm = u.copy(), u.copy()
                dp[a] += h
                dm[a] -= h
                fd = (triangle_energy(base, dp)
                      - triangle_energy(base, dm)) / (2 * h)
                assert fd == pytest.approx(theta[a], abs=2e-6)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(7)
        base = np.array([1.0, 1.3, 0.8])
        for _ in range(40):
            u0 = rng.uniform(-0.8, 0.8, 3)
            u = rng.uniform(-0.8, 0.8, 3)
            q = triangle_energy_quadrature(base, u, u0)
            c = line_integral(base, u, u0)
            assert c == pytest.approx(q, abs=1e-9)

    def test_closed_form_matches_quadrature_across_degeneracy(self):
        # the straight path from u0 to u crosses the triangle-inequality
        # wall; the glued antiderivative must still agree with quadrature
        base = np.array([1.0, 1.0, 1.0])
        u0 = np.array([0.0, 0.0, 0.0])
        u = np.array([3.0, -1.5, -1.5])  # very flat at the far end
        q = triangle_energy_quadrature(base, u, u0)
        c = line_integral(base, u, u0)
        assert c == pytest.approx(q, abs=1e-8)

    def test_concavity(self):
        rng = np.random.default_rng(11)
        base = np.array([1.1, 0.9, 1.0])
        for _ in range(60):
            a = rng.uniform(-1.5, 1.5, 3)
            b = rng.uniform(-1.5, 1.5, 3)
            s = rng.uniform(0.05, 0.95)
            fa = triangle_energy(base, a)
            fb = triangle_energy(base, b)
            fm = triangle_energy(base, s * a + (1 - s) * b)
            assert fm >= s * fa + (1 - s) * fb - 1e-9


class TestEnergyReport:
    def test_gradient_zero_at_solution(self, torus9, lattice_torus_lengths):
        n = 9
        rep = energy_W_alpha(torus9, lattice_torus_lengths, np.zeros(n),
                             1.0, np.zeros(n))
        # 18 equilateral unit faces, each -phi = 3 * Lobachevsky(pi/3)
        assert rep.value == pytest.approx(54 * lobachevsky(math.pi / 3),
                                          abs=1e-12)
        assert np.max(np.abs(rep.gradient)) < 1e-12
        assert not rep.unsupported

    def test_gradient_matches_fd(self, cube12):
        tri, base = cube12
        rng = np.random.default_rng(13)
        n = 8
        for alpha, rbar in ((0.7, -np.abs(rng.normal(1, 0.3, n))),
                            (0.0, rng.normal(0, 1, n)),
                            (-1.0, np.abs(rng.normal(2, 0.5, n)))):
            u = rng.uniform(-0.15, 0.15, n)
            rep = energy_W_alpha(tri, base, u, alpha, rbar)
            h = 1e-6
            for i in range(n):
                dp, dm = u.copy(), u.copy()
                dp[i] += h
                dm[i] -= h
                fd = (energy_W_alpha(tri, base, dp, alpha, rbar,
                                     order=1).value
                      - energy_W_alpha(tri, base, dm, alpha, rbar,
                                       order=1).value) / (2 * h)
                assert fd == pytest.approx(rep.gradient[i], rel=1e-6, abs=1e-8)

    def test_hessian_matches_fd(self, cube12):
        tri, base = cube12
        rng = np.random.default_rng(17)
        n = 8
        alpha = 0.6
        rbar = -np.abs(rng.normal(1, 0.2, n))
        u = rng.uniform(-0.1, 0.1, n)
        rep = energy_W_alpha(tri, base, u, alpha, rbar)
        H = rep.hessian.toarray()
        h = 1e-5
        fd = np.zeros_like(H)
        for j in range(n):
            dp, dm = u.copy(), u.copy()
            dp[j] += h
            dm[j] -= h
            gp = energy_W_alpha(tri, base, dp, alpha, rbar,
                                order=1).gradient
            gm = energy_W_alpha(tri, base, dm, alpha, rbar,
                                order=1).gradient
            fd[:, j] = (gp - gm) / (2 * h)
        assert np.max(np.abs(H - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(H - H.T)) < 1e-12

    def test_hessian_row_sums(self, cube12):
        tri, base = cube12
        rng = np.random.default_rng(19)
        n = 8
        u = rng.uniform(-0.1, 0.1, n)
        alpha = 0.8
        rbar = -np.abs(rng.normal(1, 0.2, n))
        rep = energy_W_alpha(tri, base, u, alpha, rbar)
        expect = -alpha * rbar * np.exp(alpha * u)
        assert rep.hessian @ np.ones(n) == pytest.approx(expect, rel=1e-10)
        # constant target on a flat-average surface: row sums vanish
        rep0 = energy_W_alpha(tri, base, u, alpha, np.zeros(n))
        assert np.max(np.abs(rep0.hessian @ np.ones(n))) < 1e-12

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_hessian_is_jacobian_minus_weighted_diagonal(self, alpha):
        rng = np.random.default_rng(29)
        for name, tri, base in all_fixture_meshes():
            n = tri.vertex_count
            u = rng.uniform(-0.1, 0.1, n)
            tri, base, _ = delaunay_surgery(
                tri, base * random_lengths(tri, rng, spread=0.1), u)
            rbar = rng.normal(0.0, 1.0, n)
            weights = np.exp(alpha * u)
            H = energy_W_alpha(tri, base, u, alpha, rbar).hessian.toarray()
            ref = (curvature_jacobian(tri, scale_metric(tri, base, u))
                   - alpha * scipy.sparse.diags(rbar * weights))
            assert np.array_equal(H, ref.toarray()), name

    def test_unsupported_flag(self, tetra):
        base = unit_lengths(tetra)
        rbar = np.array([1.0, -1.0, -1.0, -1.0])
        rep = energy_W_alpha(tetra, base, np.zeros(4), 1.0, rbar)
        assert rep.unsupported

    def test_methods_agree(self):
        rng = np.random.default_rng(23)
        for name, tri, base in all_fixture_meshes():
            n = tri.vertex_count
            u = rng.uniform(-0.2, 0.2, n)
            rbar = -np.abs(rng.normal(0.5, 0.2, n))
            a = (energy_W_alpha(tri, base, u, 0.9, rbar,
                                order=1).value
                 - energy_W_alpha(tri, base, np.zeros(n), 0.9, rbar,
                                  order=1).value)
            b = energy_value_quadrature(tri, base, u, np.zeros(n), 0.9, rbar)
            assert a == pytest.approx(b, abs=1e-9), name


class TestTrialPoint:
    def test_weight_overflow_is_a_trial_fault(self, tetra):
        # |u| = 250 keeps the metric in range, but exp(3 * 250) overflows:
        # the vertex term used to read -inf, which every guard accepts
        base, u = unit_lengths(tetra), np.full(4, 250.0)
        rbar, _ = Target.constant().resolve(3.0, tetra.chi, np.zeros(4))
        assert trial_fault(tetra, base, u, 3.0) == "metric overflow"
        assert trial_energy(tetra, base, u, 3.0, rbar, 0.0) is None
        for sign in (1.0, -1.0):  # the weight sum overflows, or underflows to 0
            with pytest.raises(errors.LogFactorOverflow):
                apply_gauge(sign * u, 3.0, 4.0)

    def test_finite_weights_past_alpha_two_are_trial_points(self, tetra):
        # |alpha * u| = 660: the weights are finite, so the trial stands
        base, u = unit_lengths(tetra), np.full(4, 300.0)
        rbar, _ = Target.constant().resolve(2.2, tetra.chi, np.zeros(4))
        assert trial_fault(tetra, base, u, 2.2) is None
        assert np.isfinite(trial_energy(tetra, base, u, 2.2, rbar, 0.0)[0])

    def test_overflowing_start_is_refused(self, tetra):
        base, u0 = unit_lengths(tetra), np.full(4, 250.0)
        with pytest.raises(errors.LogFactorOverflow):
            newton_solve(tetra, base, u0, 3.0, Target.constant())

    def test_trial_hands_over_its_metric(self, tetra):
        base, u = unit_lengths(tetra), np.array([0.1, -0.2, 0.0, 0.05])
        rbar, _ = Target.constant().resolve(-1.0, tetra.chi, np.zeros(4))
        value, scaled = trial_energy(tetra, base, u, -1.0, rbar, 0.5)
        assert value == energy_W_alpha(tetra, base, u, -1.0, rbar, offset=0.5,
                                       order=0).value
        assert np.array_equal(scaled, scale_metric(tetra, base, u))
        assert trial_fault(tetra, base, u, -1.0) is None


class TestTarget:
    def test_constant_resolution(self, tetra):
        rbar, kind = Target.constant().resolve(-1.0, 2, np.zeros(4))
        assert kind == "negative"
        assert rbar == pytest.approx(np.full(4, math.pi))

    def test_zero_classes(self, torus9):
        rbar, kind = Target.constant().resolve(1.0, 0, np.zeros(9))
        assert kind == "zero"
        assert rbar == pytest.approx(np.zeros(9))
        _, kind0 = Target.prescribed(np.ones(9)).resolve(0.0, 0, np.zeros(9))
        assert kind0 == "zero"

    def test_unsupported(self):
        _, kind = Target.constant().resolve(1.0, 2, np.zeros(4))
        assert kind == "unsupported"
        _, kind2 = Target.prescribed([1.0, -1.0]).resolve(1.0, 0, np.zeros(2))
        assert kind2 == "unsupported"


class TestNewton:
    def test_flat_torus_zero_iterations(self, torus9, lattice_torus_lengths):
        res = newton_solve(torus9, lattice_torus_lengths, np.zeros(9), 1.0,
                           Target.constant(), tol=1e-10)
        assert res.iterations == 0
        assert res.flips == 0
        assert np.array_equal(res.u, np.zeros(9))

    def test_torus_constant_target_flattens(self, torus9, lattice_torus_lengths):
        rng = np.random.default_rng(29)
        u0 = rng.uniform(-0.3, 0.3, 9)
        res = newton_solve(torus9, lattice_torus_lengths, u0, 1.0,
                           Target.constant(), tol=1e-10)
        scaled = scale_metric(res.tri, res.base, res.u)
        K = curvature(res.tri, scaled)
        assert np.max(np.abs(K)) < 1e-10
        assert is_delaunay_all(res.tri, scaled) == []
        # conservation of the normalization
        assert np.sum(np.exp(res.u)) == pytest.approx(np.sum(np.exp(u0)),
                                                      rel=1e-12)

    def test_torus_solution_independent_of_start(self, torus9,
                                                 lattice_torus_lengths):
        rng = np.random.default_rng(31)
        sols = []
        for _ in range(5):
            u0 = rng.uniform(-0.25, 0.25, 9)
            res = newton_solve(torus9, lattice_torus_lengths, u0, 1.0,
                               Target.constant(), tol=1e-11)
            sols.append(res.u - res.u.mean())
        for a in range(5):
            for b in range(a + 1, 5):
                assert np.max(np.abs(sols[a] - sols[b])) < 1e-6

    def test_tetra_closed_form_solution(self, tetra):
        # alpha = -1, target 1: the deficit of the equilateral metric is pi
        # at every vertex, so the unique solution is w = 1/pi exactly.
        base = unit_lengths(tetra)
        rng = np.random.default_rng(37)
        u0 = rng.uniform(-0.2, 0.2, 4)
        res = newton_solve(tetra, base, u0, -1.0,
                           Target.prescribed(np.ones(4)), tol=1e-12)
        assert res.kind == "negative"
        assert res.u == pytest.approx(np.full(4, -math.log(math.pi)), abs=1e-8)
        assert res.curvature.max_dev < 1e-10

    def test_tetra_constant_target(self, tetra):
        base = unit_lengths(tetra)
        rng = np.random.default_rng(41)
        u0 = rng.uniform(-0.25, 0.25, 4)
        res = newton_solve(tetra, base, u0, -1.0, Target.constant(), tol=1e-11)
        assert res.curvature.max_dev < 1e-10
        # normalization pinned by the total-deficit constraint
        assert np.sum(np.exp(-res.u)) == pytest.approx(
            np.sum(np.exp(-u0)), rel=1e-9)

    def test_genus2_constant_target(self, genus2):
        base = unit_lengths(genus2)
        res = newton_solve(genus2, base, np.zeros(7), 1.0, Target.constant(),
                           tol=1e-10)
        assert res.kind == "negative"
        assert res.curvature.max_dev < 1e-8
        assert res.curvature.R_av < 0.0

    def test_trace_values_nonincreasing(self, torus9, lattice_torus_lengths):
        rng = np.random.default_rng(43)
        u0 = rng.uniform(-0.4, 0.4, 9)
        if degenerate_faces(torus9,
                            scale_metric(torus9, lattice_torus_lengths, u0)):
            pytest.skip("seed produced a degenerate start")
        res = newton_solve(torus9, lattice_torus_lengths, u0, 1.0,
                           Target.constant(), tol=1e-10)
        vals = [row.value for row in res.trace]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9

    def test_quadratic_convergence_tail(self, tetra):
        base = unit_lengths(tetra)
        rng = np.random.default_rng(47)
        u0 = rng.uniform(-0.3, 0.3, 4)
        res = newton_solve(tetra, base, u0, -1.0,
                           Target.prescribed(np.ones(4)), tol=1e-13)
        grads = [row.grad_inf for row in res.trace]
        tail = [(g1, g2) for g1, g2 in zip(grads, grads[1:]) if g1 < 1e-3]
        assert tail, "solver never entered the quadratic basin"
        for g1, g2 in tail:
            assert g2 <= 50.0 * g1 * g1 + 1e-14

    def test_unsupported_target_raises(self, tetra):
        base = unit_lengths(tetra)
        with pytest.raises(errors.UnsupportedTarget):
            newton_solve(tetra, base, np.zeros(4), 1.0, Target.constant())

    def test_max_iterations_raises(self, torus9, lattice_torus_lengths):
        rng = np.random.default_rng(53)
        u0 = rng.uniform(-0.3, 0.3, 9)
        with pytest.raises(errors.MaxIterations):
            newton_solve(torus9, lattice_torus_lengths, u0, 1.0,
                         Target.constant(), tol=1e-14, max_iter=1)


class TestRigidity:
    def test_torus_gauge_class(self, torus9, lattice_torus_lengths):
        rep = rigidity_check(torus9, lattice_torus_lengths, 1.0,
                             Target.prescribed(np.zeros(9)), trials=5, seed=1)
        assert rep.kind == "zero"
        assert rep.passed
        assert rep.spread < 1e-6
        assert "PASS" in str(rep)

    def test_tetra_strict_class(self, tetra):
        base = unit_lengths(tetra)
        rep = rigidity_check(tetra, base, -1.0,
                             Target.prescribed(np.ones(4)), trials=5, seed=2)
        assert rep.kind == "negative"
        assert rep.passed
        for sol in rep.solutions:
            assert sol == pytest.approx(np.full(4, -math.log(math.pi)),
                                        abs=1e-6)

    def test_unsupported_gate(self, tetra):
        base = unit_lengths(tetra)
        rep = rigidity_check(tetra, base, -1.0,
                             Target.prescribed(-np.ones(4)), trials=3)
        assert rep.kind == "unsupported"
        assert rep.passed is None
        assert "no claim" in str(rep)

    def test_start_draws_are_bounded(self, torus9, lattice_torus_lengths):
        # at |u| up to 50 every draw leaves some face degenerate
        with pytest.raises(errors.DegenerateFace):
            rigidity_check(torus9, lattice_torus_lengths, -1.0,
                           Target.constant(), trials=1, spread=50.0)

    def test_cube_alpha_zero_gauge(self, cube12):
        tri, base = cube12
        rep = rigidity_check(tri, base, 0.0, Target.constant(), trials=4,
                             seed=3, spread=0.2)
        assert rep.kind == "zero"
        assert rep.passed
