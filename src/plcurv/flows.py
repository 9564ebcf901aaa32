"""Curvature flows with flip surgery, adaptive stepping and telemetry.

Two vertex-scaling flows drive a PL metric toward constant weighted
curvature: du/dt = R_av - R (relaxation toward the average) and
du/dt = laplacian(R) (smoothed relaxation).  Both conserve the weight
sum and descend the same convex energy the Newton solver minimizes, so
each renormalized trial point is accept/reject guarded by that energy.
The chart is started, tested and carried by the solver, as Newton's is:
an edge that turns cocircular along an accepted step is flipped there.
A trial costs one energy evaluation and a flipping step one more; each
accepted state gets one curvature report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .errors import DegenerateFace, InsufficientTail, LogFactorOverflow, StepSizeUnderflow
from .geometry import alpha_curvature, alpha_laplacian_apply, curvature, scale_metric
from .mesh import Triangulation
from .solver import (
    ROUNDING_NOISE,
    Target,
    apply_gauge,
    carry_chart,
    check_weights,
    conserved_sum,
    energy_W_alpha,
    start_chart,
    trial_energy,
    trial_fault,
)

log = logging.getLogger(__name__)

DT_FLOOR = 1e-16
MAX_HALVINGS = 40
GROWTH_FACTOR = 1.2
GROWTH_STREAK = 5

# Energy comparisons are meaningless below roundoff of the value itself;
# without this allowance a converged flow would reject every step and
# drive dt to underflow instead of reporting convergence.
ENERGY_NOISE = 1e-12


@dataclass(frozen=True)
class FlipRecord:
    """One surgery event: edge replaced by the opposite diagonal, same id."""

    t: float
    edge: int
    old_length: float
    new_length: float


@dataclass(frozen=True)
class FlowConfig:
    kind: str = "yamabe"
    dt: float = 0.05
    tol: float = 1e-10
    max_steps: int = 20000
    surgery: bool = True
    integrator: str = "euler"
    renormalize: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("yamabe", "calabi"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass
class FlowState:
    """Flow trajectory point plus the bookkeeping that travels with it.

    ``base`` holds lengths of the current triangulation at u = 0, so the
    current metric is exp(u_i + u_j) * base_ij.  ``w_offset`` is minus
    the energy at the start, so ``w_value`` starts at 0; flips leave the
    energy unchanged.  ``rbar`` is the average curvature frozen at the
    start (the conserved weight sum keeps it meaningful), and
    ``conserved_target`` is the weight sum the renormalization restores.
    ``report`` is the curvature report of this (tri, base, u), set by
    :func:`make_state` and :func:`step`; ``replace(state, u=...)`` keeps
    the old report and does not refresh it.
    """

    tri: Triangulation
    base: np.ndarray
    u: np.ndarray
    alpha: float
    t: float = 0.0
    flips: list[FlipRecord] = field(default_factory=list)
    step_count: int = 0
    # adaptive stepping
    dt: float | None = None
    last_dt: float = 0.0
    accept_streak: int = 0
    # energy
    w_offset: float = 0.0
    w_value: float = 0.0
    rbar: np.ndarray | None = None
    conserved_target: float = 0.0
    report: geometry.CurvatureReport | None = None


@dataclass(frozen=True)
class HistoryRow:
    t: float
    max_dev: float
    conserved: float
    energy: float
    flips: int
    dt: float


@dataclass
class FlowHistory:
    rows: list[HistoryRow] = field(default_factory=list)
    status: str = "running"
    unsupported_regime: bool = False

    def to_csv(self) -> str:
        lines = ["t,max_dev,conserved,energy,flips,dt"]
        for r in self.rows:
            lines.append(f"{r.t:.17g},{r.max_dev:.17g},{r.conserved:.17g},"
                         f"{r.energy:.17g},{r.flips},{r.dt:.17g}")
        return "\n".join(lines) + "\n"


def make_state(tri: Triangulation, base: np.ndarray, u0,
               alpha: float) -> FlowState:
    """Assemble a FlowState at time zero (no surgery performed here).

    Refuses an overflowing start (LogFactorOverflow) and, as Newton does, a degenerate one.
    """
    u0 = np.asarray(u0, dtype=float).copy()
    if u0.shape != (tri.vertex_count,):
        raise ValueError(f"u0 has shape {u0.shape}, expected "
                         f"({tri.vertex_count},)")
    check_weights(u0, alpha)
    rbar, _ = Target.constant().resolve(alpha, tri.chi, u0)
    state = FlowState(tri=tri, base=base, u=u0, alpha=float(alpha), rbar=rbar,
                      conserved_target=conserved_sum(u0, alpha))
    state.report = _curvature_report(state)  # raises on overflow first
    start = trial_energy(tri, base, u0, state.alpha, rbar, 0.0)
    if start is None:
        raise DegenerateFace(f"flow start: {trial_fault(tri, base, u0, state.alpha)}")
    state.w_offset = -start[0]
    return state


def _curvature_report(state: FlowState, scaled=None) -> geometry.CurvatureReport:
    if scaled is None:
        scaled = scale_metric(state.tri, state.base, state.u)
    return alpha_curvature(curvature(state.tri, scaled), state.u, state.alpha,
                           chi=state.tri.chi)


def _rhs(state: FlowState, kind: str, rep=None) -> np.ndarray:
    """du/dt at ``state``; ``rep``, when given, is its curvature report."""
    if kind == "yamabe":
        rep = rep or _curvature_report(state)
        return rep.R_av - rep.R_alpha
    scaled = scale_metric(state.tri, state.base, state.u)
    rep = rep or _curvature_report(state, scaled)
    return alpha_laplacian_apply(state.tri, scaled, state.u, state.alpha,
                                 rep.R_alpha)


def yamabe_rhs(state: FlowState) -> np.ndarray:
    """du/dt pulling each weighted curvature toward the average."""
    return _rhs(state, "yamabe")


def calabi_rhs(state: FlowState) -> np.ndarray:
    """du/dt equal to the weighted Laplacian of the weighted curvature."""
    return _rhs(state, "calabi")


def _rhs_at(state: FlowState, kind: str, u: np.ndarray) -> np.ndarray:
    return _rhs(replace(state, u=u), kind)


def _advance(state: FlowState, config: FlowConfig, rhs0: np.ndarray,
             dt: float) -> np.ndarray:
    if config.integrator == "euler":
        return state.u + dt * rhs0
    k1 = rhs0
    k2 = _rhs_at(state, config.kind, state.u + 0.5 * dt * k1)
    k3 = _rhs_at(state, config.kind, state.u + 0.5 * dt * k2)
    k4 = _rhs_at(state, config.kind, state.u + dt * k3)
    return state.u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """One accepted integrator step: integrate, renormalize, guard, carry.

    A renormalized trial is rejected (dt halved, at most MAX_HALVINGS times,
    never below DT_FLOOR) when the metric would overflow, a face degenerate
    or the energy visibly increase; the value it passes is the one kept.
    dt recovers by a factor 1.2 after 5 consecutive accepts, never beyond
    config.dt.  With surgery on, an edge turning cocircular flips there, at
    t + s * dt, and the energy is evaluated once more on the arrival chart.
    """
    rhs0 = _rhs(state, config.kind, state.report)
    dt = config.dt if state.dt is None else state.dt
    noise = max(ENERGY_NOISE * (1.0 + abs(state.w_value)),
                ROUNDING_NOISE * abs(state.w_offset))

    for halvings in range(MAX_HALVINGS + 1):
        try:
            u_try = _advance(state, config, rhs0, dt)
            if config.renormalize:
                u_try = apply_gauge(u_try, state.alpha, state.conserved_target)
        except LogFactorOverflow:  # an RK4 stage or the weights left their range
            u_try = trial = None
        else:
            trial = trial_energy(state.tri, state.base, u_try, state.alpha,
                                 state.rbar, state.w_offset)
        if trial is not None and trial[0] <= state.w_value + noise:
            break
        if halvings == MAX_HALVINGS or dt * 0.5 < DT_FLOOR:
            limit = "MAX_HALVINGS" if halvings == MAX_HALVINGS else "DT_FLOOR"
            blocker = ("metric overflow" if u_try is None
                       else trial_fault(state.tri, state.base, u_try, state.alpha)
                       or "energy would increase")
            raise StepSizeUnderflow(f"no step accepted down to dt={dt:.6g} ({limit} "
                                    f"reached) at t={state.t:.6g}: {blocker}")
        dt *= 0.5

    w_try, scaled = trial
    tri, base, walk = (carry_chart(state.tri, state.base, state.u, u_try)
                       if config.surgery else (state.tri, state.base, []))
    records = [FlipRecord(state.t + s * dt, i.edge, i.old_length, i.new_length)
               for s, i in walk]
    if records:  # past a wall, the trial's energy and metric are the departure chart's
        w_try, scaled = energy_W_alpha(tri, base, u_try, state.alpha, state.rbar,
                                       offset=state.w_offset, order=0).value, None

    streak = 0 if halvings else state.accept_streak + 1
    dt_next = dt
    if streak >= GROWTH_STREAK:
        dt_next = min(dt * GROWTH_FACTOR, config.dt)
        streak = 0

    arrival = replace(state, tri=tri, base=base, u=u_try, t=state.t + dt,
                      flips=state.flips + records, step_count=state.step_count + 1,
                      dt=dt_next, last_dt=dt, accept_streak=streak, w_value=w_try)
    arrival.report = _curvature_report(arrival, scaled)
    return arrival


def run_flow(tri: Triangulation, base: np.ndarray, u0, alpha: float,
             config: FlowConfig) -> tuple[FlowState, FlowHistory]:
    """Iterate ``step`` until max_dev < tol or the step budget runs out.

    The run starts on the chart Newton starts on
    (:func:`~plcurv.solver.start_chart`), so converged flows and Newton
    solves land in comparable coordinates.  The flips made to reach it
    are counted in the first history row but not in the flip log (they
    happen before t=0).
    History gains one row per accepted step; status is "converged" or
    "max_steps".  Runs with alpha*chi > 0 proceed but are flagged, since
    nothing is promised there.
    """
    u0 = np.asarray(u0, dtype=float).copy()
    n = tri.vertex_count
    if u0.shape != (n,):
        raise ValueError(f"u0 has shape {u0.shape}, expected ({n},)")
    tri0, base0, flips0 = start_chart(tri, base, u0)
    state = make_state(tri0, base0, u0, alpha)

    history = FlowHistory()
    history.unsupported_regime = alpha * tri.chi > 0
    if history.unsupported_regime:
        log.warning("alpha*chi = %g > 0: convergence not guaranteed",
                    alpha * tri.chi)

    def record(state: FlowState, flips: int) -> float:
        max_dev = state.report.max_dev
        history.rows.append(HistoryRow(
            t=state.t, max_dev=max_dev, conserved=conserved_sum(state.u, alpha),
            energy=state.w_value, flips=flips, dt=state.last_dt))
        return max_dev

    max_dev = record(state, flips0)
    while max_dev >= config.tol:
        if state.step_count >= config.max_steps:
            history.status = "max_steps"
            break
        seen = len(state.flips)
        state = step(state, config)
        max_dev = record(state, len(state.flips) - seen)
    else:
        history.status = "converged"
    log.info("run_flow(%s): %s after %d steps, t=%.6g, max_dev=%.3e",
             config.kind, history.status, state.step_count, state.t, max_dev)
    return state, history


def curvature_evolution_residual(state: FlowState,
                                 config: FlowConfig) -> np.ndarray:
    """Centered FD of dR/dt along the flow minus its closed form.

    Yamabe: dR/dt = laplacian(R) + alpha*R*(R - R_av); the smoothed flow
    replaces the right side by -laplacian(laplacian(R)) - alpha*R*laplacian(R).
    No surgery or renormalization happens between the probe points, and
    the result is O(dt^2) small on nondegenerate states.
    """
    dt = config.dt
    rhs0 = _rhs(state, config.kind)

    def r_at(u: np.ndarray) -> np.ndarray:
        scaled = scale_metric(state.tri, state.base, u)
        return curvature(state.tri, scaled) * np.exp(-state.alpha * u)

    fd = (r_at(state.u + dt * rhs0) - r_at(state.u - dt * rhs0)) / (2.0 * dt)

    scaled0 = scale_metric(state.tri, state.base, state.u)
    rep = _curvature_report(state, scaled0)
    lap = alpha_laplacian_apply(state.tri, scaled0, state.u, state.alpha,
                                rep.R_alpha)
    if config.kind == "yamabe":
        closed = lap + state.alpha * rep.R_alpha * (rep.R_alpha - rep.R_av)
    else:
        lap2 = alpha_laplacian_apply(state.tri, scaled0, state.u, state.alpha,
                                     lap)
        closed = -lap2 - state.alpha * rep.R_alpha * lap
    return fd - closed


def exponential_rate_probe(history: FlowHistory, alpha: float,
                           R_av: float) -> float:
    """Least-squares slope of ln(max_dev) against t over the decay tail.

    The tail starts once max_dev has dropped two decades below its first
    recorded value and stops above the floating-point floor; fewer than
    8 usable rows raises InsufficientTail.  For a qualifying run the
    slope should reach at least 80 percent of alpha * R_av.
    """
    pts = [(r.t, r.max_dev) for r in history.rows if r.max_dev > 0.0]
    if len(pts) < 8:
        raise InsufficientTail(
            f"only {len(pts)} rows with positive deviation")
    head = pts[0][1]
    tail = [(t, d) for t, d in pts if 1e-12 <= d <= 1e-2 * head]
    if len(tail) < 8:
        raise InsufficientTail(
            f"only {len(tail)} rows in the asymptotic window")
    t = np.array([p[0] for p in tail])
    y = np.log(np.array([p[1] for p in tail]))
    slope = np.polyfit(t, y, 1)[0]
    return float(slope)
