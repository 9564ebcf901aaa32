"""Flow integration: right sides, stepping, surgery, history, rate fits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GENUS2_FACES, all_fixture_meshes, lattice_torus_faces, unit_lengths

from plcurv import flows, geometry, solver
from plcurv.errors import (
    DegenerateFace,
    FlipDegeneratesComplex,
    InsufficientTail,
    LogFactorOverflow,
    StepSizeUnderflow,
)
from plcurv.flows import (
    FlowConfig,
    FlowHistory,
    HistoryRow,
    calabi_rhs,
    conserved_sum,
    curvature_evolution_residual,
    exponential_rate_probe,
    make_state,
    run_flow,
    step,
    yamabe_rhs,
)
from plcurv.geometry import alpha_curvature, curvature, delaunay_surgery, scale_metric
from plcurv.mesh import build_triangulation
from plcurv.solver import Target, carry_chart, energy_W_alpha, newton_solve


def state_report(state):
    scaled = scale_metric(state.tri, state.base, state.u)
    return alpha_curvature(curvature(state.tri, scaled), state.u, state.alpha,
                           chi=state.tri.chi)


def kite_state(tri, alpha=1.0, stretch=1.9):
    """Unit lattice with one edge stretched past cocircularity."""
    base = unit_lengths(tri)
    e = 0
    base[e] = stretch
    assert geometry.is_delaunay_all(tri, base) == [e]
    return make_state(tri, base, np.zeros(tri.vertex_count), alpha), e


class TestRhs:
    def test_flat_torus_both_zero(self, torus9):
        state = make_state(torus9, unit_lengths(torus9), np.zeros(9), 2.0)
        assert np.max(np.abs(yamabe_rhs(state))) < 1e-13
        assert np.max(np.abs(calabi_rhs(state))) < 1e-13

    def test_regular_tetrahedron_stationary(self, tetra):
        # all R_alpha equal pi at u = 0, so both right sides vanish
        state = make_state(tetra, unit_lengths(tetra), np.zeros(4), -1.0)
        assert np.max(np.abs(yamabe_rhs(state))) < 1e-13
        assert np.max(np.abs(calabi_rhs(state))) < 1e-13

    def test_converged_solution_is_stationary(self, torus9):
        res = newton_solve(torus9, unit_lengths(torus9),
                           np.full(9, 0.17), 1.0, Target.constant())
        state = make_state(res.tri, res.base, res.u, 1.0)
        assert np.max(np.abs(yamabe_rhs(state))) < 1e-9

    def test_calabi_weighted_sum_vanishes(self):
        rng = np.random.default_rng(21)
        for name, tri, lens in all_fixture_meshes():
            for alpha in (-2.0, 0.0, 1.5):
                u = rng.uniform(-0.2, 0.2, tri.vertex_count)
                state = make_state(tri, lens, u, alpha)
                rhs = calabi_rhs(state)
                total = float(np.sum(np.exp(alpha * u) * rhs))
                assert abs(total) < 1e-10, (name, alpha)

    def test_nonconstant_curvature_moves(self, tetra):
        u0 = np.array([0.1, 0.0, 0.0, 0.0])
        state = make_state(tetra, unit_lengths(tetra), u0, -1.0)
        assert np.max(np.abs(yamabe_rhs(state))) > 1e-3
        assert state_report(state).max_dev > 1e-3


class TestStep:
    def test_stationary_state_only_advances_time(self, torus9):
        state = make_state(torus9, unit_lengths(torus9), np.zeros(9), 1.0)
        cfg = FlowConfig(kind="yamabe", dt=0.25)
        out = step(state, cfg)
        assert out.t == 0.25
        assert out.step_count == 1
        # the flat start is stationary to roundoff (K itself carries ~1e-16)
        assert np.max(np.abs(out.u - state.u)) < 1e-15
        assert out.flips == []

    def test_yamabe_step_decreases_deviation(self, tetra):
        u0 = np.array([0.1, 0.0, 0.0, 0.0])
        state = make_state(tetra, unit_lengths(tetra), u0, -1.0)
        before = state_report(state).max_dev
        out = step(state, FlowConfig(kind="yamabe", dt=0.05))
        assert state_report(out).max_dev < before

    def test_surgery_logs_flip_and_preserves_deficits(self, torus9):
        state, e = kite_state(torus9)
        k_before = curvature(state.tri,
                             scale_metric(state.tri, state.base, state.u))
        out = step(state, FlowConfig(kind="yamabe", dt=1e-12))
        assert len(out.flips) == 1
        assert out.flips[0].edge == e
        assert out.flips[0].old_length == pytest.approx(1.9)
        # the record carries the time of the wall: t + s * dt, with s the
        # fraction of the step walked when the edge flipped
        u_try = state.u + out.last_dt * yamabe_rhs(state)
        _, _, walk = carry_chart(state.tri, state.base, state.u, u_try)
        s = walk[0][0]
        assert 0.0 < s < 1.0
        assert out.flips[0].t == state.t + s * out.last_dt
        k_after = curvature(out.tri, scale_metric(out.tri, out.base, out.u))
        assert np.max(np.abs(k_after - k_before)) < 1e-9
        assert geometry.is_delaunay_all(
            out.tri, scale_metric(out.tri, out.base, out.u)) == []

    def test_rejection_halves_dt_and_resets_streak(self, tetra):
        u0 = np.array([0.3, -0.2, 0.1, 0.0])
        state = make_state(tetra, unit_lengths(tetra), u0, -1.0)
        cfg = FlowConfig(kind="yamabe", dt=64.0)
        out = step(state, cfg)
        assert out.last_dt < 64.0
        assert out.accept_streak == 0

    def test_dt_recovers_toward_cap_after_accepts(self, tetra):
        u0 = np.array([0.3, -0.2, 0.1, 0.0])
        state = make_state(tetra, unit_lengths(tetra), u0, -1.0)
        cfg = FlowConfig(kind="yamabe", dt=16.0)
        state = step(state, cfg)
        shrunk = state.dt
        assert shrunk < 16.0
        for _ in range(12):
            state = step(state, cfg)
            assert state.dt <= 16.0
        assert state.dt > shrunk

    @pytest.mark.parametrize("integrator, dt, blocker", [
        ("euler", 1e4, "metric overflow"),
        ("rk4", 1e4, "metric overflow"),  # a stage overflows, not the trial
        ("euler", 1.0, "faces [0, 1, 2, 3] degenerate"),
        ("euler", 0.275, "energy would increase"),
    ])
    def test_underflow_names_the_blocker(self, tetra, monkeypatch,
                                         integrator, dt, blocker):
        # one trial and no halving: the error names what stopped that trial
        monkeypatch.setattr(flows, "MAX_HALVINGS", 0)
        u0 = np.array([0.3, -0.2, 0.1, 0.0])
        state = make_state(tetra, unit_lengths(tetra), u0, -1.0)
        with pytest.raises(StepSizeUnderflow) as err:
            step(state, FlowConfig(kind="yamabe", integrator=integrator, dt=dt))
        assert str(err.value).endswith(f": {blocker}")

    @pytest.mark.parametrize("dt, halvings, limit", [
        (0.05, 40, "MAX_HALVINGS"),  # 0.05 / 2**40 is far above the floor
        (1e-15, 3, "DT_FLOOR"),      # 1e-15 / 2**4 would be below it
    ])
    def test_underflow_reports_the_dt_reached_and_the_limit(self, tetra, dt,
                                                             halvings, limit):
        # a state energy below every trial's, so every trial is rejected
        u0 = np.array([0.3, -0.2, 0.1, 0.0])
        state = make_state(tetra, unit_lengths(tetra), u0, -1.0)
        state = dataclasses.replace(state, w_value=-1.0)
        with pytest.raises(StepSizeUnderflow) as err:
            step(state, FlowConfig(kind="yamabe", dt=dt))
        assert str(err.value) == (
            f"no step accepted down to dt={dt * 0.5 ** halvings:.6g} "
            f"({limit} reached) at t=0: energy would increase")

    def test_overflowing_weights_only_halve_dt(self, tetra):
        # the first trial reaches u = 250, where the weights exp(3u) overflow:
        # renormalizing it must reject the trial, not raise
        u0 = np.array([0.3, -0.2, 0.1, 0.0])
        state = make_state(tetra, unit_lengths(tetra), u0, 3.0)
        out = step(state, FlowConfig(kind="yamabe", dt=390.0))
        assert out.last_dt < 390.0
        assert conserved_sum(out.u, 3.0) == pytest.approx(state.conserved_target,
                                                          rel=1e-12)

    def test_renormalization_pins_conserved_sum(self, tetra):
        rng = np.random.default_rng(3)
        u0 = rng.uniform(-0.2, 0.2, 4)
        state = make_state(tetra, unit_lengths(tetra), u0, -1.0)
        target = state.conserved_target
        cfg = FlowConfig(kind="yamabe", dt=0.1)
        for _ in range(30):
            state = step(state, cfg)
            assert abs(conserved_sum(state.u, -1.0) - target) < 1e-12


class TestRunFlow:
    def test_flat_torus_converges_at_step_zero(self, torus9):
        state, hist = run_flow(torus9, unit_lengths(torus9), np.zeros(9), 2.0,
                               FlowConfig(kind="yamabe"))
        assert hist.status == "converged"
        assert state.step_count == 0
        assert len(hist.rows) == 1
        assert hist.rows[0].max_dev < 1e-12

    def test_torus_yamabe_matches_newton(self, torus9):
        base = unit_lengths(torus9)
        rng = np.random.default_rng(12)
        u0 = rng.uniform(-0.3, 0.3, 9)
        cfg = FlowConfig(kind="yamabe", dt=0.2, tol=1e-10, max_steps=20000)
        state, hist = run_flow(torus9, base, u0, 1.0, cfg)
        assert hist.status == "converged"
        assert state_report(state).max_dev < 1e-10
        res = newton_solve(torus9, base, u0, 1.0, Target.constant())
        flow_u = state.u - state.u.mean()
        newton_u = res.u - res.u.mean()
        assert np.max(np.abs(flow_u - newton_u)) < 1e-6
        start = hist.rows[0].conserved
        for row in hist.rows:
            assert abs(row.conserved - start) < 1e-9

    def test_tetra_calabi_matches_newton(self, tetra):
        base = unit_lengths(tetra)
        rng = np.random.default_rng(5)
        u0 = rng.uniform(-0.2, 0.2, 4)
        cfg = FlowConfig(kind="calabi", dt=0.1, tol=1e-10, max_steps=20000)
        state, hist = run_flow(tetra, base, u0, -1.0, cfg)
        assert hist.status == "converged"
        rep = state_report(state)
        assert rep.max_dev < 1e-10
        res = newton_solve(tetra, base, u0, -1.0, Target.constant())
        assert np.max(np.abs(state.u - res.u)) < 1e-6

    def test_energy_never_increases_across_rows(self, torus9):
        rng = np.random.default_rng(4)
        u0 = rng.uniform(-0.3, 0.3, 9)
        cfg = FlowConfig(kind="yamabe", dt=0.2, tol=1e-10, max_steps=20000)
        _, hist = run_flow(torus9, unit_lengths(torus9), u0, 1.0, cfg)
        for prev, row in zip(hist.rows, hist.rows[1:]):
            slack = 1e-9 * max(1.0, abs(prev.energy))
            assert row.energy <= prev.energy + slack

    def test_unsupported_regime_flagged_but_runs(self, tetra):
        rng = np.random.default_rng(6)
        u0 = rng.uniform(-0.1, 0.1, 4)
        cfg = FlowConfig(kind="yamabe", dt=0.05, max_steps=5)
        state, hist = run_flow(tetra, unit_lengths(tetra), u0, 1.0, cfg)
        assert hist.unsupported_regime
        assert state.step_count <= 5

    def test_max_steps_status(self, torus9):
        rng = np.random.default_rng(7)
        u0 = rng.uniform(-0.3, 0.3, 9)
        cfg = FlowConfig(kind="yamabe", dt=0.05, tol=1e-10, max_steps=3)
        state, hist = run_flow(torus9, unit_lengths(torus9), u0, 1.0, cfg)
        assert hist.status == "max_steps"
        assert state.step_count == 3
        assert len(hist.rows) == 4

    def test_surgery_off_keeps_triangulation(self, torus9):
        rng = np.random.default_rng(8)
        u0 = rng.uniform(-0.1, 0.1, 9)
        cfg = FlowConfig(kind="yamabe", dt=0.1, tol=1e-8, max_steps=5000,
                         surgery=False)
        state, hist = run_flow(torus9, unit_lengths(torus9), u0, 1.0, cfg)
        assert state.flips == []
        assert state.tri.face_count == torus9.face_count

    def test_history_csv_round_trip(self, torus9):
        rng = np.random.default_rng(9)
        u0 = rng.uniform(-0.2, 0.2, 9)
        cfg = FlowConfig(kind="yamabe", dt=0.1, tol=1e-8, max_steps=50)
        _, hist = run_flow(torus9, unit_lengths(torus9), u0, 1.0, cfg)
        text = hist.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,max_dev,conserved,energy,flips,dt"
        assert len(lines) == len(hist.rows) + 1
        cells = lines[1].split(",")
        assert float(cells[0]) == hist.rows[0].t
        assert float(cells[3]) == hist.rows[0].energy

    def test_rk4_matches_euler_limit(self, tetra):
        base = unit_lengths(tetra)
        u0 = np.array([0.1, -0.1, 0.05, 0.0])
        cfg = FlowConfig(kind="yamabe", dt=0.1, tol=1e-10, integrator="rk4",
                         max_steps=20000)
        state, hist = run_flow(tetra, base, u0, -1.0, cfg)
        assert hist.status == "converged"
        res = newton_solve(tetra, base, u0, -1.0, Target.constant())
        assert np.max(np.abs(state.u - res.u)) < 1e-6


class TestDescentIdentities:
    """Measured energy rate against the closed-form dissipation."""

    def oracle_state(self, tri, alpha, seed):
        base = unit_lengths(tri)
        rng = np.random.default_rng(seed)
        u0 = rng.uniform(-0.2, 0.2, tri.vertex_count)
        tri2, base2, _ = geometry.delaunay_surgery(tri, base, u0)
        return make_state(tri2, base2, u0, alpha)

    def test_yamabe_rate_identity(self, torus9):
        state = self.oracle_state(torus9, 1.0, 13)
        rep = state_report(state)
        predicted = -float(np.sum(
            (rep.R_av - rep.R_alpha) ** 2 * np.exp(state.alpha * state.u)))
        cfg = FlowConfig(kind="yamabe", dt=1e-4, surgery=False,
                         renormalize=False)
        out = step(state, cfg)
        measured = (out.w_value - state.w_value) / out.last_dt
        assert measured == pytest.approx(predicted, rel=1e-2)

    def test_calabi_rate_identity(self, torus9):
        state = self.oracle_state(torus9, 1.0, 14)
        rep = state_report(state)
        scaled = scale_metric(state.tri, state.base, state.u)
        L = geometry.curvature_jacobian(state.tri, scaled).toarray()
        dev = rep.R_alpha - rep.R_av
        predicted = -float(dev @ L @ dev)
        cfg = FlowConfig(kind="calabi", dt=1e-4, surgery=False,
                         renormalize=False)
        out = step(state, cfg)
        measured = (out.w_value - state.w_value) / out.last_dt
        assert measured == pytest.approx(predicted, rel=1e-2)


class TestEvolutionResidual:
    def test_stationary_is_zero(self, torus9):
        state = make_state(torus9, unit_lengths(torus9), np.zeros(9), 1.0)
        res = curvature_evolution_residual(state, FlowConfig(dt=1e-6))
        assert np.max(np.abs(res)) < 1e-12

    @pytest.mark.parametrize("kind", ["yamabe", "calabi"])
    def test_torus_alpha0_residual(self, torus9, kind):
        rng = np.random.default_rng(15)
        u0 = rng.uniform(-0.2, 0.2, 9)
        tri2, base2, _ = geometry.delaunay_surgery(
            torus9, unit_lengths(torus9), u0)
        state = make_state(tri2, base2, u0, 0.0)
        res = curvature_evolution_residual(state, FlowConfig(kind=kind, dt=1e-6))
        assert np.max(np.abs(res)) < 1e-4

    @pytest.mark.parametrize("kind", ["yamabe", "calabi"])
    def test_tetra_residual(self, tetra, kind):
        rng = np.random.default_rng(16)
        u0 = rng.uniform(-0.15, 0.15, 4)
        state = make_state(tetra, unit_lengths(tetra), u0, -1.0)
        res = curvature_evolution_residual(state, FlowConfig(kind=kind, dt=1e-6))
        assert np.max(np.abs(res)) < 1e-4


class TestRateProbe:
    def synthetic(self, rate=-2.0, upto=12.0, dt=0.05):
        hist = FlowHistory()
        t = 0.0
        while t <= upto:
            hist.rows.append(HistoryRow(t=t, max_dev=math.exp(rate * t),
                                        conserved=0.0, energy=0.0, flips=0,
                                        dt=dt))
            t += dt
        return hist

    def test_synthetic_exponential_slope(self):
        slope = exponential_rate_probe(self.synthetic(), -2.0, 2.0)
        assert slope == pytest.approx(-2.0, abs=1e-6)

    def test_insufficient_tail_raises(self):
        hist = FlowHistory()
        hist.rows.append(HistoryRow(0.0, 0.3, 0.0, 0.0, 0, 0.1))
        with pytest.raises(InsufficientTail):
            exponential_rate_probe(hist, -1.0, 1.0)

    def test_tetra_decay_beats_predicted_fraction(self, tetra):
        base = unit_lengths(tetra)
        rng = np.random.default_rng(9)
        u0 = rng.uniform(-0.1, 0.1, 4)
        rep0 = alpha_curvature(
            curvature(tetra, scale_metric(tetra, base, u0)), u0, -1.0, chi=2)
        assert np.all(-1.0 * rep0.R_alpha < 0.0)  # qualifying start
        cfg = FlowConfig(kind="yamabe", dt=0.02, tol=1e-11, max_steps=40000)
        _, hist = run_flow(tetra, base, u0, -1.0, cfg)
        slope = exponential_rate_probe(hist, -1.0, rep0.R_av)
        assert slope <= 0.8 * -1.0 * rep0.R_av


# --- one evaluation per flow point -----------------------------------------

FLOW_MESHES = ([build_triangulation(lattice_torus_faces(m)) for m in (3, 4)]
               + [build_triangulation(GENUS2_FACES)])


def _same_report(state):
    """The carried report equals a fresh one bit for bit."""
    fresh, carried = state_report(state), state.report
    return all(np.array_equal(getattr(carried, f.name), getattr(fresh, f.name))
               for f in dataclasses.fields(fresh))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(FLOW_MESHES) - 1), st.sampled_from(["yamabe", "calabi"]),
       st.sampled_from(["euler", "rk4"]), st.booleans(), st.booleans(),
       st.sampled_from([-1.0, 0.0, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_carried_report_and_energy_match_fresh_evaluations(
        mesh, kind, integrator, surgery, renormalize, alpha, seed):
    rng = np.random.default_rng(seed)
    tri = FLOW_MESHES[mesh]
    n = tri.vertex_count
    base = np.exp(rng.uniform(-0.2, 0.2, tri.edge_count))
    tri, base, _ = delaunay_surgery(tri, base, np.zeros(n))
    u0 = rng.normal(0.0, 0.2, n)
    if geometry.degenerate_faces(tri, scale_metric(tri, base, u0)):
        with pytest.raises(DegenerateFace):
            make_state(tri, base, u0, alpha)
        return
    state = make_state(tri, base, u0, alpha)
    config = FlowConfig(kind=kind, integrator=integrator, surgery=surgery,
                        renormalize=renormalize, dt=0.2)
    assert _same_report(state)
    for _ in range(4):
        try:
            state = step(state, config)
        except FlipDegeneratesComplex:
            return  # a known refusal of the flip; the steps before it count
        assert _same_report(state)
        values = [energy_W_alpha(state.tri, state.base, state.u, state.alpha,
                                 state.rbar, offset=state.w_offset,
                                 order=order).value for order in (0, 1, 2)]
        assert values == [state.w_value] * 3


def test_degenerate_start_is_refused_by_make_state():
    # with surgery on, a step from this start used to die inside the wall
    # walk while the same step without surgery succeeded
    rng = np.random.default_rng(2)
    tri = FLOW_MESHES[0]
    base = np.exp(rng.uniform(-0.2, 0.2, tri.edge_count))
    tri, base, _ = delaunay_surgery(tri, base, np.zeros(9))
    u0 = rng.normal(0.0, 0.2, 9)
    bad = geometry.degenerate_faces(tri, scale_metric(tri, base, u0))
    assert bad
    with pytest.raises(DegenerateFace) as err:
        make_state(tri, base, u0, -1.0)
    assert f"faces {bad} degenerate" in str(err.value)


def test_overflowing_start_is_refused_by_make_state(tetra):
    # exp(3 * 250) overflows before any face is looked at
    with pytest.raises(LogFactorOverflow):
        make_state(tetra, unit_lengths(tetra), np.full(4, 250.0), 3.0)


# --- one energy evaluation per accepted step -------------------------------

def test_renormalization_costs_no_energy_evaluation(monkeypatch):
    calls = {"energy": 0, "trials": 0}
    energy, trial = solver.energy_W_alpha, flows.trial_energy

    def counted_energy(*args, **kwargs):
        calls["energy"] += 1
        return energy(*args, **kwargs)

    def counted_trial(*args, **kwargs):
        out = trial(*args, **kwargs)
        calls["trials"] += out is not None  # a trial that reached the energy
        return out

    monkeypatch.setattr(solver, "energy_W_alpha", counted_energy)
    monkeypatch.setattr(flows, "energy_W_alpha", counted_energy)
    monkeypatch.setattr(flows, "trial_energy", counted_trial)
    rng = np.random.default_rng(0)
    tri = FLOW_MESHES[1]  # 4 x 4 lattice torus
    base = np.exp(rng.uniform(-0.4, 0.4, tri.edge_count))
    state, history = run_flow(tri, base, np.zeros(16), -1.0, FlowConfig())
    flipping = sum(1 for row in history.rows[1:] if row.flips)
    assert history.status == "converged" and flipping > 0
    # the start counts as a trial (make_state), each step's accepted trial
    # is its stored value, and only a flipping step evaluates once more
    assert calls["energy"] == calls["trials"] + flipping
    assert abs(conserved_sum(state.u, -1.0) - 16.0) < 1e-12


def test_guard_tests_the_value_the_state_keeps(monkeypatch, cube12):
    # alpha * chi = -2: the renormalizing shift changes the energy, so the
    # guard must test the shifted point to keep the value it tested
    tri, base = cube12
    tested = []
    trial = flows.trial_energy

    def recorded_trial(*args, **kwargs):
        tested.append(trial(*args, **kwargs))
        return tested[-1]

    monkeypatch.setattr(flows, "trial_energy", recorded_trial)
    u0 = np.random.default_rng(5).uniform(-0.2, 0.2, tri.vertex_count)
    state = make_state(tri, base, u0, -1.0)
    config = FlowConfig(kind="yamabe", dt=0.1)
    shifted = 0
    for _ in range(40):
        prev = state
        state = step(state, config)
        if len(state.flips) == len(prev.flips):
            assert state.w_value == tested[-1][0]
            # the unshifted point has another energy here, so testing it
            # would store a value the guard never saw
            raw = prev.u + state.last_dt * yamabe_rhs(prev)
            shifted += energy_W_alpha(prev.tri, prev.base, raw, -1.0, prev.rbar,
                                      offset=prev.w_offset, order=0).value != state.w_value
    assert shifted > 0
