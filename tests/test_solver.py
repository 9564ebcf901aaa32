import math
import pathlib

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from plcurv import errors, solver
from plcurv.geometry import (
    alpha_curvature,
    curvature,
    curvature_jacobian,
    degenerate_faces,
    delaunay_surgery,
    face_angles,
    is_delaunay_all,
    opposite_cosines,
    scale_metric,
    side_lengths,
)
from plcurv.mesh import build_triangulation, load_mesh
from plcurv.solver import (
    Target,
    apply_gauge,
    energy_W_alpha,
    lobachevsky,
    newton_solve,
    rigidity_check,
    carry_chart,
    start_chart,
    triangle_energy,
    trial_energy,
)

from conftest import (
    all_fixture_meshes,
    cube12_faces,
    cube_lengths,
    energy_value_quadrature,
    lattice_torus_faces,
    random_lengths,
    torus9_faces,
    triangle_angles,
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

    def test_matches_the_40_term_series(self):
        # lobachevsky(x) = Cl2(2x) / 2, and on [0, pi]
        # Cl2(t) = t (1 - log t) + sum_n zeta(2n) t^(2n+1) / ((2 pi)^(2n) n (2n + 1))
        x = np.concatenate([np.linspace(-2 * math.pi, 2 * math.pi, 40001),
                            [k * math.pi / 2 for k in range(-4, 5)]])
        t = np.mod(2.0 * x, 2 * math.pi)
        sign = np.where(t > math.pi, -1.0, 1.0)
        t = np.where(t > math.pi, 2 * math.pi - t, t)
        n = np.arange(1, 41)
        c = scipy.special.zeta(2 * n) / ((2 * math.pi) ** (2 * n) * n * (2 * n + 1))
        series = (c * t[:, None] ** (2 * n + 1)).sum(axis=1)
        head = t * (1.0 - np.log(np.where(t > 0.0, t, 1.0)))
        assert np.abs(lobachevsky(x) - sign * 0.5 * (head + series)).max() <= 5e-16

    def test_series_is_the_economized_zeta_series(self):
        # the 40-term sum in x = t^2, Chebyshev-expanded on [0, pi^2] and cut
        # to degree 12; what is cut, times t^3 <= pi^3, stays below 5e-18
        n = np.arange(1, 41)
        taylor = np.polynomial.Polynomial(
            scipy.special.zeta(2 * n) / ((2 * math.pi) ** (2 * n) * n * (2 * n + 1)))
        cheb = taylor.convert(kind=np.polynomial.Chebyshev, domain=[0.0, math.pi ** 2])
        assert math.pi ** 3 * np.abs(cheb.coef[13:]).sum() < 5e-18
        derived = cheb.truncate(13).convert(kind=np.polynomial.Polynomial).coef
        x = np.linspace(0.0, math.pi ** 2, 1001)
        gap = (np.polynomial.polynomial.polyval(x, solver._CLAUSEN_SERIES)
               - np.polynomial.polynomial.polyval(x, derived))
        assert math.pi ** 3 * np.abs(gap).max() < 1e-17


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

    def test_log_factor_bound(self):
        # the angles come from the scaled sides, so past the metric's bound
        # the call refuses instead of overflowing exp into NaN angles
        base = np.ones(3)
        assert math.isfinite(triangle_energy(base, np.full(3, 300.0)))
        for u in (400.0, -400.0, math.nan):
            with pytest.raises(errors.LogFactorOverflow):
                triangle_energy(base, np.full(3, u))


class TestEnergyReport:
    def test_gradient_zero_at_solution(self, torus9, lattice_torus_lengths):
        n = 9
        rep = energy_W_alpha(torus9, lattice_torus_lengths, np.zeros(n),
                             1.0, np.zeros(n))
        # 18 equilateral unit faces, each -phi = 3 * Lobachevsky(pi/3)
        assert rep.value == pytest.approx(54 * lobachevsky(math.pi / 3),
                                          abs=1e-12)
        assert np.max(np.abs(rep.gradient)) < 1e-12

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
        H = rep.hessian
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
            H = energy_W_alpha(tri, base, u, alpha, rbar).hessian
            ref = (curvature_jacobian(tri, scale_metric(tri, base, u))
                   - alpha * np.diag(rbar * weights))
            assert np.array_equal(H, ref), name

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
        assert trial_energy(tetra, base, u, 3.0, rbar, 0.0) == "metric overflow"
        for sign in (1.0, -1.0):  # the weight sum overflows, or underflows to 0
            with pytest.raises(errors.LogFactorOverflow):
                apply_gauge(sign * u, 3.0, 4.0)

    def test_finite_weights_past_alpha_two_are_trial_points(self, tetra):
        # |alpha * u| = 660: the weights are finite, so the trial stands
        base, u = unit_lengths(tetra), np.full(4, 300.0)
        rbar, _ = Target.constant().resolve(2.2, tetra.chi, np.zeros(4))
        trial = trial_energy(tetra, base, u, 2.2, rbar, 0.0)
        assert not isinstance(trial, str) and np.isfinite(trial[0])

    def test_overflowing_start_is_refused(self, tetra):
        base, u0 = unit_lengths(tetra), np.full(4, 250.0)
        with pytest.raises(errors.LogFactorOverflow):
            newton_solve(tetra, base, u0, 3.0, Target.constant())

    def test_trial_hands_over_its_angles(self, tetra):
        base, u = unit_lengths(tetra), np.array([0.1, -0.2, 0.0, 0.05])
        rbar, _ = Target.constant().resolve(-1.0, tetra.chi, np.zeros(4))
        value, angles, cosines = trial_energy(tetra, base, u, -1.0, rbar, 0.5)
        assert value == energy_W_alpha(tetra, base, u, -1.0, rbar, offset=0.5,
                                       order=0).value
        scaled = scale_metric(tetra, base, u)
        assert np.array_equal(angles, face_angles(tetra, scaled))
        assert np.array_equal(cosines, opposite_cosines(side_lengths(tetra, scaled)))

    def test_degenerate_point_names_its_faces(self, tetra):
        # the two faces at edge {0, 1} get sides 1, e^-0.8 and e^-0.8 < 1/2
        base, u = unit_lengths(tetra), np.array([0.0, 0.0, -0.8, -0.8])
        bad = degenerate_faces(tetra, scale_metric(tetra, base, u))
        assert bad
        rbar, _ = Target.constant().resolve(-1.0, tetra.chi, np.zeros(4))
        assert trial_energy(tetra, base, u, -1.0, rbar, 0.0) == f"faces {bad} degenerate"


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
        # one positive entry on the tetrahedron is enough
        _, kind3 = Target.prescribed([1.0, -1.0, -1.0, -1.0]).resolve(1.0, 2, np.zeros(4))
        assert kind3 == "unsupported"


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

    def test_full_steps_carry_the_chart_past_walls(self):
        # Steps capped at the next wall took 14 iterations here; a full step
        # carried by carry_chart crosses every wall in its way.
        tri = build_triangulation(lattice_torus_faces(24))
        base = np.exp(np.random.default_rng(0).uniform(-0.25, 0.25, tri.edge_count))
        zero = np.zeros(tri.vertex_count)
        res = newton_solve(tri, base, zero, -1.0, Target.constant())
        assert res.iterations <= 5
        assert res.flips > 0
        assert all(row.step == 1.0 for row in res.trace[1:])
        rbar, _ = Target.constant().resolve(-1.0, tri.chi, zero)
        tri0, base0, _ = start_chart(tri, base, zero)
        offset = -energy_W_alpha(tri0, base0, zero, -1.0, rbar, order=0).value
        for a, b in zip(res.trace, res.trace[1:]):
            noise = max(solver.VALUE_NOISE * (1.0 + abs(a.value)),
                        solver.ROUNDING_NOISE * abs(offset))
            assert b.value <= a.value + noise

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

    def test_far_start_stalls_on_the_armijo_rule(self, torus9, lattice_torus_lengths):
        # the last trial of iteration 21 is a valid point whose energy is too high
        u0 = np.random.default_rng(2).uniform(-20, 20, 9)
        with pytest.raises(errors.LineSearchStalled) as err:
            newton_solve(torus9, lattice_torus_lengths, u0, -1.0, Target.constant())
        assert str(err.value).startswith("no acceptable step at iteration 21 ")
        assert str(err.value).endswith(": Armijo decrease not met")

    def test_stall_names_the_trial_gates_reason(self, torus9, lattice_torus_lengths, monkeypatch):
        # the gate refuses every trial: its reason, not Armijo's, is the blocker
        monkeypatch.setattr(solver, "degenerate_faces", lambda tri, lengths: [0])
        u0 = np.random.default_rng(53).uniform(-0.3, 0.3, 9)
        with pytest.raises(errors.LineSearchStalled) as err:
            newton_solve(torus9, lattice_torus_lengths, u0, -1.0, Target.constant())
        assert str(err.value).startswith("no acceptable step at iteration 1 ")
        assert str(err.value).endswith("): faces [0] degenerate")

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

    @pytest.mark.parametrize("spread", [1.0, 3.0, 10.0])
    def test_far_starts_pass(self, torus9, lattice_torus_lengths, spread):
        # such draws leave faces degenerate on the u = 0 chart; each start's
        # walk carries that chart to the start, flipping loop edges in too
        rep = rigidity_check(torus9, lattice_torus_lengths, -1.0,
                             Target.constant(), spread=spread)
        assert rep.passed and rep.spread < 1e-9

    @pytest.mark.parametrize("spread", [0.3, 10.0, 20.0])
    def test_far_starts_pass_or_raise_a_plcurv_error(self, torus9, lattice_torus_lengths,
                                                     spread):
        # at spread 20 the Hessian of some starts is singular: Newton falls
        # back to -g there, and NumPy's LinAlgError never reaches the caller
        try:
            rep = rigidity_check(torus9, lattice_torus_lengths, -1.0,
                                 Target.constant(), spread=spread)
        except errors.PLCurvError:
            assert spread == 20.0
        else:
            assert rep.passed

    def test_cube_alpha_zero_gauge(self, cube12):
        tri, base = cube12
        rep = rigidity_check(tri, base, 0.0, Target.constant(), trials=4,
                             seed=3, spread=0.2)
        assert rep.kind == "zero"
        assert rep.passed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["torus9", "cube"]), st.sampled_from([-1.0, 0.0]),
       st.floats(0.3, 10.0), st.integers(0, 2 ** 32 - 1))
def test_far_start_lands_on_the_solve_from_0(mesh, alpha, spread, seed):
    """A start drawn from U(-spread, spread), spread <= 10, either lands on
    the solve from u = 0, up to the constant shift, or raises a plcurv
    error: it never exits with another u.  From spread 12 on it can."""
    tri = build_triangulation(torus9_faces() if mesh == "torus9" else cube12_faces())
    base = unit_lengths(tri) if mesh == "torus9" else cube_lengths(tri)
    ref = newton_solve(tri, base, np.zeros(tri.vertex_count), alpha, Target.constant()).u
    u0 = np.random.default_rng(seed).uniform(-spread, spread, tri.vertex_count)
    try:
        u = newton_solve(tri, base, u0, alpha, Target.constant()).u
    except errors.PLCurvError:
        return
    assert np.max(np.abs((u - u.mean()) - (ref - ref.mean()))) < 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 8), st.floats(0.0, 0.6), st.floats(-2.0, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_planted_torus_is_recovered(m, sigma, alpha, seed):
    """The flat equilateral torus, scaled by u_p with its chart carried there,
    is in the flat metric's conformal class; rigidity makes -u_p (up to a
    constant) the only answer, at every alpha, and from every start."""
    tri = build_triangulation(lattice_torus_faces(m))
    u_p = np.random.default_rng(seed).uniform(-sigma, sigma, tri.vertex_count)
    tri, base, _, _ = carry_chart(tri, np.ones(tri.edge_count), np.zeros(tri.vertex_count), u_p)
    planted = scale_metric(tri, base, u_p)
    res = newton_solve(tri, planted, np.zeros(tri.vertex_count), alpha, Target.constant())
    assert np.ptp(res.u + u_p) < 1e-9
    # every final edge has one length, read off the result with NumPy alone
    ends = res.tri.edge_verts
    lengths = res.base * np.exp(res.u[ends[:, 0]] + res.u[ends[:, 1]])
    assert lengths.max() / lengths.min() - 1.0 < 1e-9
    rep = rigidity_check(tri, planted, alpha, Target.constant(), trials=2, seed=seed)
    assert rep.passed and all(np.ptp(sol + u_p) < 1e-9 for sol in rep.solutions)


@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.6])
def test_planted_octahedron_is_recovered_at_alpha_zero(sigma):
    """The regular octahedron, scaled by u_p with its chart carried there.
    At alpha = 0 the constant target is K = 2*pi/3 at every vertex, which
    the regular metric has, and the solution is unique up to scale: Newton
    returns -u_p up to a constant."""
    octahedron, edge = load_mesh(str(pathlib.Path(__file__).with_name("data") / "octahedron.off"))
    assert np.allclose(edge, math.sqrt(2.0), rtol=1e-15, atol=0.0)
    n = octahedron.vertex_count
    for seed in range(20):
        u_p = np.random.default_rng(seed).uniform(-sigma, sigma, n)
        tri, base, _, _ = carry_chart(octahedron, edge, np.zeros(n), u_p)
        planted = scale_metric(tri, base, u_p)
        res = newton_solve(tri, planted, np.zeros(n), 0.0, Target.constant())
        assert np.ptp(res.u + u_p) < 1e-9, seed
