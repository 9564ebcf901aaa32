"""Curvature flows with flip surgery, adaptive stepping and telemetry.

Two vertex-scaling flows drive a PL metric toward constant weighted
curvature: du/dt = R_av - R (relaxation toward the average) and
du/dt = laplacian(R) (smoothed relaxation).  Both conserve the weight
sum and descend the same convex energy the Newton solver minimizes, so
each renormalized trial point is accept/reject guarded by that energy.
The default integrator is linearly implicit Euler: one dense linear solve
per trial, on the energy's Hessian, with dt doubling after every accepted
step; explicit Euler follows the trajectory at a capped dt.
The chart is started, tested and carried by the solver, as Newton's is:
dt is halved by the solver's guarded step until a trial passes, or it
names what stopped the last one, and an edge that turns cocircular along
an accepted step is flipped there.  A trial costs one energy evaluation,
its metric, angles and cosines included, and the accepted trial's make
the arrival's curvature report and the cosines the implicit step builds
its system from: a step that flips nothing evaluates its angles once,
and a flipping step once more, on the chart it lands in.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .errors import DegenerateFace, InsufficientTail, StepSizeUnderflow
from .geometry import alpha_curvature, alpha_laplacian_apply, angle_deficit, curvature, scale_metric
from .mesh import Triangulation, csv_text
from .solver import (
    ROUNDING_NOISE,
    Target,
    apply_gauge,
    carry_chart,
    check_weights,
    conserved_sum,
    energy_W_alpha,
    guarded_step,
    implicit_step,
    start_chart,
    trial_energy,
)

log = logging.getLogger(__name__)

DT_FLOOR = 1e-16
MAX_HALVINGS = 40
# The implicit dt doubles up to here.  Past it the step is Newton's to
# rounding, and far past it diag(w) + dt*H loses the gauge direction, along
# which H is singular on a torus: a converged run that cannot reach its
# tolerance would end in singular systems (near dt = 1e22 on a 4x4 torus)
# instead of at --max-steps.
DT_CEILING = 1e12
GROWTH_FACTOR = 1.2
GROWTH_STREAK = 5

# Energy comparisons are meaningless below roundoff of the value itself;
# without this allowance a converged flow would reject every step and
# drive dt to underflow instead of reporting convergence.
ENERGY_NOISE = 1e-12


INTEGRATORS = ("implicit", "euler")


@dataclass(frozen=True)
class FlowConfig:
    kind: str = "yamabe"
    dt: float = 0.05
    tol: float = 1e-10
    max_steps: int = 20000
    surgery: bool = True
    integrator: str = "implicit"

    def __post_init__(self) -> None:
        if self.kind not in ("yamabe", "calabi"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be at least 0, not {self.max_steps}")


@dataclass
class FlowState:
    """Flow trajectory point plus the bookkeeping that travels with it.

    ``base`` holds lengths of the current triangulation at u = 0, so the
    current metric is exp(u_i + u_j) * base_ij.  ``w_offset`` is minus
    the energy at the start, so ``w_value`` starts at 0; flips leave the
    energy unchanged.  ``rbar`` is the average curvature frozen at the
    start (the conserved weight sum keeps it meaningful), and
    ``conserved_target`` is the weight sum the renormalization restores.
    ``flips`` holds the id of every edge flipped since t = 0, in order,
    and ``flip_times`` the time of each one's surgery.
    ``report`` and ``cosines`` (:attr:`~plcurv.solver.EnergyReport.cosines`)
    are those of this (tri, base, u), set by :func:`make_state` and
    :func:`step`; ``replace(state, u=...)`` keeps them and does not refresh them.
    """

    tri: Triangulation
    base: np.ndarray
    u: np.ndarray
    alpha: float
    t: float = 0.0
    flips: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    flip_times: np.ndarray = field(default_factory=lambda: np.empty(0))
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
    cosines: np.ndarray | None = None


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
        return csv_text("t,max_dev,conserved,energy,flips,dt",
                        ((r.t, r.max_dev, r.conserved, r.energy, r.flips, r.dt)
                         for r in self.rows))


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
    if isinstance(start, str):
        raise DegenerateFace(f"flow start: {start}")
    state.w_offset, state.cosines = -start[0], start[2]
    return state


def _curvature_report(state: FlowState, scaled=None) -> geometry.CurvatureReport:
    if scaled is None:
        scaled = scale_metric(state.tri, state.base, state.u)
    return alpha_curvature(curvature(state.tri, scaled), state.u, state.alpha,
                           chi=state.tri.chi)


def rhs(state: FlowState, kind: str, rep=None) -> np.ndarray:
    """du/dt at ``state``: R_av - R_alpha for "yamabe", the weighted Laplacian
    of R_alpha for "calabi"; ``rep``, when given, is the state's curvature report."""
    if kind == "yamabe":
        rep = rep or _curvature_report(state)
        return rep.R_av - rep.R_alpha
    scaled = scale_metric(state.tri, state.base, state.u)
    rep = rep or _curvature_report(state, scaled)
    return alpha_laplacian_apply(state.tri, scaled, state.u, state.alpha,
                                 rep.R_alpha)


def _euler(state: FlowState, rhs0: np.ndarray, dt: float) -> np.ndarray:
    """The explicit Euler step of size dt from ``state``, renormalized."""
    return apply_gauge(state.u + dt * rhs0, state.alpha, state.conserved_target)


def _implicit(state: FlowState, kind: str):
    """propose(dt): the linearly implicit Euler step of size dt, renormalized.

    The state's cosines give L, the curvature Jacobian, and its report the
    gradient g = K - rbar*w, w = e^(alpha u); they and the Hessian
    H = L - alpha*diag(rbar*w) are bit for bit an order-2 energy_W_alpha's
    at the state.  Yamabe, w du/dt = -g, solves
    (diag(w) + dt*H) du = -dt*g.  Calabi, du/dt = f = -W^-1 L R_alpha,
    takes a Rosenbrock-W step (I - dt*J) du = dt*f with
    J = -W^-1 L (W^-1 L - alpha*diag(R_alpha)); J leaves out the
    derivatives of L and W^-1, whose terms multiply L R_alpha and vanish
    at the fixed point.  Every trial is one :func:`~plcurv.solver.implicit_step`;
    a singular system raises LinAlgError, a rejection to the guarded step.
    """
    u, alpha = state.u, state.alpha
    w = np.exp(alpha * u)
    L = geometry.cosine_jacobian(state.tri, state.cosines)
    if kind == "yamabe":
        L.flat[::len(u) + 1] -= alpha * (state.rbar * w)  # H
        A, diag, b = L, w, -(state.report.K - state.rbar * w)
    else:  # in place: at V = 2304 each (V, V) array is 42 MB
        WL = np.divide(L, w[:, None], out=L)
        R = state.report.R_alpha
        dR = WL.copy()  # dR_alpha/du = W^-1 L - alpha*diag(R_alpha)
        dR.flat[::len(u) + 1] -= alpha * R
        A, diag, b = WL @ dR, None, -(WL @ R)
    return lambda dt: apply_gauge(u + implicit_step(A, b, dt, diag), alpha,
                                  state.conserved_target)


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """One accepted integrator step: integrate, renormalize, guard, carry.

    A renormalized trial is rejected (dt halved, at most MAX_HALVINGS times,
    never below DT_FLOOR) when the metric would overflow, a face degenerate,
    the implicit system be singular or the energy visibly increase; the
    value it passes is the one kept, and its angles give the arrival's
    curvature report.  The implicit integrator doubles dt after every
    accepted step, up to DT_CEILING.  Euler recovers dt by a factor 1.2
    after 5 consecutive accepts, never beyond config.dt.  With surgery
    on, an edge turning cocircular flips there, at t + s * dt, and the
    energy and angles are evaluated once more on the arrival chart.
    """
    if config.integrator == "implicit":
        propose = _implicit(state, config.kind)
    else:
        rhs0 = rhs(state, config.kind, state.report)
        propose = functools.partial(_euler, state, rhs0)
    dt = config.dt if state.dt is None else state.dt
    noise = max(ENERGY_NOISE * (1.0 + abs(state.w_value)),
                ROUNDING_NOISE * abs(state.w_offset))

    dt, halvings, u_try, trial = guarded_step(
        state.tri, state.base, state.alpha, state.rbar, state.w_offset, propose,
        lambda dt, value: value <= state.w_value + noise,
        step=dt, max_shrinks=MAX_HALVINGS, min_step=DT_FLOOR)
    if u_try is None:
        limit = "MAX_HALVINGS" if halvings == MAX_HALVINGS else "DT_FLOOR"
        raise StepSizeUnderflow(f"no step accepted down to dt={dt:.6g} ({limit} reached) "
                                f"at t={state.t:.6g}: {trial or 'energy would increase'}")

    w_try, angles, cosines = trial
    tri, base, flips, times = state.tri, state.base, state.flips, state.flip_times
    if config.surgery:
        tri, base, walk, s = carry_chart(tri, base, state.u, u_try)
        if walk.size:  # past a wall, the trial's energy and angles are the departure chart's
            rep = energy_W_alpha(tri, base, u_try, state.alpha, state.rbar,
                                 offset=state.w_offset, order=0)
            w_try, angles, cosines = rep.value, rep.angles, rep.cosines
            flips = np.concatenate([flips, walk])
            times = np.concatenate([times, state.t + s * dt])

    streak = 0 if halvings else state.accept_streak + 1
    dt_next = dt
    if config.integrator == "implicit":
        dt_next, streak = min(2.0 * dt, DT_CEILING), 0
    elif streak >= GROWTH_STREAK:
        dt_next = min(dt * GROWTH_FACTOR, config.dt)
        streak = 0

    arrival = replace(state, tri=tri, base=base, u=u_try, t=state.t + dt,
                      flips=flips, flip_times=times, step_count=state.step_count + 1,
                      dt=dt_next, last_dt=dt, accept_streak=streak, w_value=w_try, cosines=cosines)
    arrival.report = alpha_curvature(angle_deficit(tri, angles), u_try, state.alpha,
                                     chi=tri.chi)
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
    the result is O(dt^2) small on nondegenerate states.  The state is
    evaluated once: its report and Laplacian give :func:`rhs` too.
    """
    dt = config.dt
    scaled0 = scale_metric(state.tri, state.base, state.u)
    rep = _curvature_report(state, scaled0)
    lap = alpha_laplacian_apply(state.tri, scaled0, state.u, state.alpha,
                                rep.R_alpha)
    rhs0 = rep.R_av - rep.R_alpha if config.kind == "yamabe" else lap

    def r_at(u: np.ndarray) -> np.ndarray:
        scaled = scale_metric(state.tri, state.base, u)
        return curvature(state.tri, scaled) * np.exp(-state.alpha * u)

    fd = (r_at(state.u + dt * rhs0) - r_at(state.u - dt * rhs0)) / (2.0 * dt)
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
