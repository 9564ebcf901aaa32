"""Convex energies and Newton minimization for prescribed weighted curvature.

The per-face building block is the line integral of the corner angles in
the log conformal factors, which extends to a globally concave C1
function of u once the angles are extended constantly past degeneracy.
Summed with the linear and exponential vertex terms this yields a convex
total energy whose gradient is exactly (deficit - target * weight); a
damped Newton iteration with Delaunay surgery after each accepted step
minimizes it.  Written in the scaled log lengths, the energy takes the
same value in every Delaunay triangulation of a metric, so flips leave
it unchanged and need no correction.  Newton and the flows move their
chart only through :func:`start_chart`, :func:`trial_energy` and
:func:`carry_chart`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse
import scipy.special

from . import geometry
from .errors import (
    DegenerateFace,
    FlipLimitExceeded,
    LineSearchStalled,
    LogFactorOverflow,
    MaxIterations,
    UnsupportedTarget,
)
from .geometry import (
    CurvatureReport,
    alpha_curvature,
    curvature,
    curvature_jacobian,
    degenerate_faces,
    delaunay_surgery,
    max3,
    opposite_cosines,
    scale_metric,
)
from .mesh import FlipInfo, Triangulation

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

# Armijo line search parameters.
ARMIJO_SLOPE = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60

# Predicted decreases below this fraction of |value| drown in roundoff of
# the value sum, so the sufficient-decrease test switches to "no visible
# increase" there and lets the gradient criterion finish the job.
VALUE_NOISE = 1e-13

# A value sums absolute terms of size |offset| that cancel against offset,
# so it carries rounding of about eps * |offset| (spread 1.7 eps * |offset|
# at V = 144 and 576); the line search's and flows' bands stay above this.
ROUNDING_NOISE = 16.0 * np.finfo(float).eps

WEIGHT_LOG_BOUND = 700.0  # e^700 ~ 1e304: weights, reciprocals and their sums stay finite

# The wall search scans 16 panels, then bisects 3 levels per kernel call.
_WALL_PANELS = 16
_BISECT_DEPTH = 3

# Twice the flip slack: the scan's NumPy angles may differ from the flip
# loop's math.acos ones in the last place, and a wall found right at the
# slack could be one the flip loop does not flip, pinning the solver.
_WALL_MARGIN = -2.0 * geometry.DELAUNAY_SLACK


# --- Lobachevsky function -----------------------------------------------

def _clausen_coefficients(count: int = 28) -> np.ndarray:
    n = np.arange(1, count + 1, dtype=float)
    return scipy.special.zeta(2 * n) / ((2 * math.pi) ** (2 * n) * n * (2 * n + 1))


_CL2_COEF = _clausen_coefficients()


def _clausen(theta):
    """Clausen integral Cl2 (the 2pi-periodic odd antiderivative of -ln|2 sin(t/2)|)."""
    t = np.fmod(np.asarray(theta, dtype=float), TWO_PI)
    t = np.where(t < 0.0, t + TWO_PI, t)
    sign = np.where(t > math.pi, -1.0, 1.0)
    t = np.where(t > math.pi, TWO_PI - t, t)
    t2 = t * t
    series = np.zeros_like(t)
    for c in _CL2_COEF[::-1]:
        series = series * t2 + c
    log_t = np.log(np.where(t > 0.0, t, 1.0))
    return sign * (t * (1.0 - log_t) + series * t * t2)


def lobachevsky(x):
    """Milnor's function: minus the integral of ln|2 sin t| from 0 to x.

    Odd and pi-periodic; accurate to about 1e-14 absolute via the power
    series of the Clausen integral (lobachevsky(x) = Cl2(2x) / 2).
    Elementwise on arrays.
    """
    return 0.5 * _clausen(2.0 * np.asarray(x, dtype=float))


# --- per-triangle energy ------------------------------------------------

def _phi(base: np.ndarray, v: np.ndarray) -> float:
    """Antiderivative of the angle 1-form, summed over faces on leading axes.

    phi(v) = pi * sum(v) - sum_a [theta_a * lambda_a + Л(theta_a)] is a
    global C1 antiderivative: its partial in v_a is the extended angle at
    corner a (the log-radius terms cancel by the law of sines, and in the
    degenerate regions the angles are locally constant).  Side a, of log
    length lambda_a, is opposite corner a and picks up v_b + v_c.
    """
    lam = v[..., geometry.NEXT] + v[..., geometry.PREV] + np.log(base)
    theta = np.arccos(opposite_cosines(np.exp(lam - max3(lam)[..., None])))
    return math.pi * v.sum() - ((theta * lam).sum() + lobachevsky(theta).sum())


def triangle_energy(base_lengths, u) -> float:
    """Antiderivative in u of the extended corner angles.

    ``base_lengths[a]`` is the side opposite corner a at u = 0.  Concave
    in u; the partial derivative in u_a is the extended angle at corner
    a, so the difference of two values is the line integral of
    sum_a angle_a * du_a between them.  Evaluated in closed form through
    :func:`lobachevsky`.  Batched: arrays of shape (3, F) give the sum
    over the F triangles, and shape (3,) is the single-triangle case.
    """
    base = np.asarray(base_lengths, dtype=float)
    u = np.asarray(u, dtype=float)
    if base.ndim not in (1, 2) or base.shape[0] != 3 or u.shape != base.shape:
        raise ValueError("triangle_energy expects (3,) or (3, F) base lengths "
                         "and a u-array of the same shape")
    if not np.all(base > 0.0):
        raise geometry.NonPositiveLength(f"base lengths {base} not positive")
    return float(_phi(base.T, u.T))


# --- total energy -------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Value, optional gradient and optional Hessian of the curvature energy.

    gradient[i] = deficit_i - target_i * exp(alpha * u_i);
    hessian = curvature Jacobian - alpha * diag(target * exp(alpha * u)).
    ``unsupported`` flags targets with a positive alpha * target entry,
    for which convexity (hence uniqueness claims) are lost.
    """

    value: float
    gradient: np.ndarray | None
    hessian: scipy.sparse.csr_matrix | None
    unsupported: bool


@dataclass(frozen=True)
class Target:
    """Prescribed per-vertex curvature values, or the constant target.

    The constant target's value is pinned by the total-deficit constraint
    at the u given to resolve: rho = 2*pi*chi / sum(exp(alpha*u)).
    """

    values: np.ndarray | None = None

    @classmethod
    def constant(cls) -> "Target":
        return cls(None)

    @classmethod
    def prescribed(cls, values) -> "Target":
        return cls(np.asarray(values, dtype=float))

    def resolve(self, alpha: float, chi: int, u: np.ndarray
                ) -> tuple[np.ndarray, str]:
        """Concrete target vector and its admissibility class.

        Classes: "zero" (alpha*target identically zero: solutions carry a
        global-scaling gauge), "negative" (alpha*target <= 0, nonzero
        somewhere: strictly convex energy, unique solution) and
        "unsupported" (some positive entry).
        """
        u = np.asarray(u, dtype=float)
        n = u.shape[0]
        if self.values is None:
            rho = TWO_PI * chi / float(np.sum(np.exp(alpha * u)))
            rbar = np.full(n, rho)
        else:
            if self.values.shape != (n,):
                raise ValueError(
                    f"target has {self.values.shape} entries, mesh has {n}")
            rbar = self.values.copy()
        prod = alpha * rbar
        if np.all(prod == 0.0):
            kind = "zero"
        elif np.all(prod <= 0.0):
            kind = "negative"
        else:
            kind = "unsupported"
        return rbar, kind


def energy_W_alpha(tri: Triangulation, base: np.ndarray, u: np.ndarray,
                   alpha: float, rbar: np.ndarray, offset: float = 0.0,
                   order: int = 2) -> EnergyReport:
    """Total curvature energy of the scaled metric, plus ``offset``.

    value = offset - sum_faces triangle_energy(u) - pi * sum_edges log base
            + sum_i [2*pi*u_i - rbar_i * e^(a u_i) / a]
    (the last term is (2*pi - rbar_i) * u_i at alpha = 0).  The face and
    edge terms together are a function of the scaled lengths that a flip
    at a cocircular edge leaves unchanged, so the value is the same in
    every Delaunay triangulation of the metric.  Valid for any u,
    Delaunay or not; convex per fixed triangulation when the target is
    admissible.  ``order`` picks the derivatives: 0 gives the value alone
    (no metric is scaled and ``gradient`` is None), 1 adds the gradient
    and 2 the Hessian, which requires nondegenerate faces.
    """
    u = np.asarray(u, dtype=float)
    rbar = np.asarray(rbar, dtype=float)
    # the side opposite corner a is the edge in slot (a + 1) % 3
    total_faces = triangle_energy(base[tri.arrays.face_edges[:, geometry.NEXT].T],
                                  u[tri.arrays.face_verts.T])
    if alpha == 0.0:
        vertex_term = float(((TWO_PI - rbar) * u).sum())
    else:
        vertex_term = float((TWO_PI * u - rbar * np.exp(alpha * u) / alpha).sum())
    value = offset - total_faces - math.pi * float(np.log(base).sum()) + vertex_term

    grad = hess = None
    if order >= 1:
        scaled = scale_metric(tri, base, u)
        weights = np.exp(alpha * u)
        grad = curvature(tri, scaled) - rbar * weights
    if order >= 2:
        hess = curvature_jacobian(tri, scaled)
        hess.setdiag(hess.diagonal() - alpha * (rbar * weights))

    return EnergyReport(value=value, gradient=grad, hessian=hess,
                        unsupported=bool(np.any(alpha * rbar > 0.0)))


# --- Newton solve -------------------------------------------------------

@dataclass(frozen=True)
class TraceRow:
    iteration: int
    grad_inf: float
    value: float
    step: float
    flips: int


@dataclass
class NewtonResult:
    u: np.ndarray
    tri: Triangulation
    base: np.ndarray
    report: EnergyReport
    curvature: CurvatureReport
    kind: str
    iterations: int
    flips: int
    trace: list[TraceRow] = field(default_factory=list)


def trace_csv(rows: list[TraceRow]) -> str:
    lines = ["iter,grad_inf,value,step,flips"]
    for r in rows:
        lines.append(f"{r.iteration},{r.grad_inf:.17g},{r.value:.17g},"
                     f"{r.step:.17g},{r.flips}")
    return "\n".join(lines) + "\n"


def conserved_sum(u: np.ndarray, alpha: float) -> float:
    """The normalization the gauge keeps: sum of exp(alpha*u), or sum of u."""
    if alpha == 0.0:
        return float(np.sum(u))
    return float(np.sum(np.exp(alpha * u)))


def check_weights(u: np.ndarray, alpha: float) -> None:
    """Raise LogFactorOverflow unless |alpha*u| is within WEIGHT_LOG_BOUND."""
    if not np.abs(alpha * u).max(initial=0.0) <= WEIGHT_LOG_BOUND:  # True on NaN
        raise LogFactorOverflow(f"|alpha*u| exceeds {WEIGHT_LOG_BOUND}; weights overflow")


def apply_gauge(u: np.ndarray, alpha: float, conserved: float) -> np.ndarray:
    """Constant shift restoring the conserved normalization (exact form)."""
    if alpha == 0.0:
        return u + (conserved - float(np.sum(u))) / u.shape[0]
    with np.errstate(over="ignore", divide="ignore"):
        ratio = float(conserved / np.sum(np.exp(alpha * u)))
    if not 0.0 < ratio < math.inf:  # False on NaN
        raise LogFactorOverflow("weights exp(alpha*u) leave the float range")
    return u + math.log(ratio) / alpha


def _first_wall(tri: Triangulation, base: np.ndarray, u: np.ndarray,
                delta: np.ndarray) -> tuple[float, bool]:
    """Largest step fraction in (0, 1] before Delaunayness is lost.

    Scans the segment u + s*delta in 16 panels and bisects the first sign
    change of the worst edge margin.  Returns (s_cap, hit): when ``hit``
    the metric at s_cap is just past cocircular on some edge (beyond the
    flip slack), so the surgery that follows an accepted full step flips
    at the wall instead of deep inside the non-Delaunay region.  Flipping
    deep would transport base lengths along a path-dependent chart and
    solves from different starts could disagree by far more than the
    rigidity tolerance.  Points past LOG_FACTOR_BOUND count as walls.
    One kernel call scores all panels, and one the next _BISECT_DEPTH
    bisection levels, with the result of probing point by point.
    """
    def below(s: list[float]) -> np.ndarray:
        U = u + np.array(s)[:, None] * delta
        ok = np.abs(U).max(axis=1) <= geometry.LOG_FACTOR_BOUND  # False on NaN
        margin = np.full(len(s), -math.inf)
        margin[ok] = geometry.delaunay_margin(tri, scale_metric(tri, base, U[ok]))
        return margin < _WALL_MARGIN

    panels = [k / _WALL_PANELS for k in range(_WALL_PANELS + 1)]
    first = np.flatnonzero(below(panels[1:]))
    if not first.size:
        return 1.0, False
    lo, hi = panels[first[0]], panels[first[0] + 1]
    while hi - lo > 1e-12 * max(1.0, hi):
        # each probe of the next levels is a node of the dyadic grid on [lo, hi]
        grid = [lo, hi]
        for _ in range(_BISECT_DEPTH):
            grid = [x for a, b in zip(grid, grid[1:]) for x in (a, 0.5 * (a + b))] + [hi]
        bad = below(grid[1:-1])
        a, b = 0, len(grid) - 1
        while b - a > 1 and hi - lo > 1e-12 * max(1.0, hi):
            m = (a + b) // 2
            if bad[m - 1]:
                b, hi = m, grid[m]
            else:
                a, lo = m, grid[m]
    return hi, True


def carry_chart(tri: Triangulation, base: np.ndarray, u_from: np.ndarray,
                u_to: np.ndarray
                ) -> tuple[Triangulation, np.ndarray, list[tuple[float, FlipInfo]]]:
    """Transport the chart along the straight segment from u_from to u_to.

    Walks the segment and performs each flip at the wall where the edge
    turns cocircular, so the arrival chart does not depend on where the
    segment started.  Returns the arrival triangulation, base lengths
    and the flips made on the way, each as (s, info): the surgery that
    made it ran at u_from + s * (u_to - u_from).
    """
    cur = np.asarray(u_from, dtype=float).copy()
    u_to = np.asarray(u_to, dtype=float)
    flips: list[tuple[float, FlipInfo]] = []
    walked = 0.0
    cap = geometry.FLIP_CAP_FACTOR * tri.edge_count ** 2
    while np.any(delta := u_to - cur):
        s_cap, hit = _first_wall(tri, base, cur, delta)
        cur = cur + s_cap * delta
        if not hit:
            break
        walked += s_cap * (1.0 - walked)
        tri, base, infos = delaunay_surgery(tri, base, cur)
        if not infos:
            break
        flips.extend((walked, info) for info in infos)
        if len(flips) > cap:
            raise FlipLimitExceeded(
                f"{len(flips)} flips while carrying the chart along one segment")
    return tri, base, flips


def start_chart(tri: Triangulation, base: np.ndarray, u0: np.ndarray
                ) -> tuple[Triangulation, np.ndarray, int]:
    """The canonical chart at u0 and the number of flips made to reach it.

    Surgery at u = 0, shared by every start on this mesh, then a walk to
    u0 that flips at the walls: surgery directly at a deeply non-Delaunay
    u0 would give each start its own transported base lengths.
    """
    zero = np.zeros(tri.vertex_count)
    tri, base, flips0 = delaunay_surgery(tri, base, zero)
    tri, base, carried = carry_chart(tri, base, zero, u0)
    return tri, base, len(flips0) + len(carried)


def _trial_metric(tri: Triangulation, base: np.ndarray, u: np.ndarray, alpha: float
                  ) -> tuple[str | None, np.ndarray | None]:
    """What rules u out (overflowing metric or weights, degenerate faces) and its metric."""
    try:
        check_weights(u, alpha)
        scaled = scale_metric(tri, base, u)
    except LogFactorOverflow:
        return "metric overflow", None
    bad = degenerate_faces(tri, scaled)
    return (f"faces {bad} degenerate" if bad else None), scaled


def trial_fault(tri: Triangulation, base: np.ndarray, u: np.ndarray, alpha: float
                ) -> str | None:
    """Why u cannot be a trial point on this chart, or None when it can."""
    return _trial_metric(tri, base, u, alpha)[0]


def trial_energy(tri: Triangulation, base: np.ndarray, u: np.ndarray, alpha: float,
                 rbar: np.ndarray, offset: float) -> tuple[float, np.ndarray] | None:
    """Order-0 energy at u and its metric, or None when :func:`trial_fault` rules u out."""
    fault, scaled = _trial_metric(tri, base, u, alpha)
    if fault is not None:
        return None
    return energy_W_alpha(tri, base, u, alpha, rbar, offset=offset, order=0).value, scaled


def newton_solve(tri: Triangulation, base: np.ndarray, u0,
                 alpha: float, target: Target, tol: float = 1e-10,
                 max_iter: int = 100) -> NewtonResult:
    """Minimize the curvature energy until the gradient is below ``tol``.

    Damped Newton with Armijo backtracking; every accepted step is
    followed by Delaunay surgery, which leaves the energy unchanged, and
    reported values are relative to the start.  Trial steps are capped
    at the first point where an edge would go non-Delaunay, so the flips
    happen at cocircular quads and the transported base lengths do not
    depend on the route taken.  For the gauge-carrying target class
    ("zero") steps are solved orthogonal to constants and the
    normalization sum(exp(alpha*u)) (sum(u) at alpha = 0) is restored by
    a closed-form shift after each step.
    Returns only once converged: every way of stopping short raises.
    """
    u = np.asarray(u0, dtype=float).copy()
    n = tri.vertex_count
    if u.shape != (n,):
        raise ValueError(f"u0 has shape {u.shape}, expected ({n},)")
    check_weights(u, alpha)
    rbar, kind = target.resolve(alpha, tri.chi, u)
    if kind == "unsupported":
        raise UnsupportedTarget(
            "alpha * target has positive entries; the energy is not convex")
    conserved = conserved_sum(u, alpha)

    tri_c, base_c, total_flips = start_chart(tri, base, u)
    start = energy_W_alpha(tri_c, base_c, u, alpha, rbar)
    offset = -start.value
    rep = replace(start, value=0.0)
    grad_inf = float(np.max(np.abs(rep.gradient)))
    trace = [TraceRow(0, grad_inf, rep.value, 0.0, total_flips)]
    ones = np.ones(n)

    it = 0
    pinned = 0
    while grad_inf >= tol:
        it += 1
        if it > max_iter:
            raise MaxIterations(
                f"gradient {grad_inf:.3e} still above {tol:.3e} "
                f"after {max_iter} iterations")
        H = rep.hessian.toarray()
        g = rep.gradient
        if kind == "zero":
            g_eff = g - g.mean()
            delta = -np.linalg.solve(H + np.outer(ones, ones) / n, g_eff)
            delta -= delta.mean()
        else:
            delta = -np.linalg.solve(H, g)
        slope = float(g @ delta)
        if slope >= 0.0:
            # Hessian too ill-conditioned to give descent; fall back.
            delta = -g
            slope = float(g @ delta)

        step_cap, at_wall = _first_wall(tri_c, base_c, u, delta)
        if at_wall and step_cap < 1e-8:
            pinned += 1
            if pinned > 50 + tri_c.edge_count:
                raise LineSearchStalled(
                    f"pinned at a Delaunay wall at iteration {it} "
                    f"(grad_inf={grad_inf:.3e})")
        else:
            pinned = 0

        noise = max(VALUE_NOISE * (1.0 + abs(rep.value)),
                    ROUNDING_NOISE * abs(offset))
        step = step_cap
        accepted = None
        for _ in range(MAX_BACKTRACKS + 1):
            u_try = u + step * delta
            trial = trial_energy(tri_c, base_c, u_try, alpha, rbar, offset)
            if trial is not None and (
                    trial[0] <= rep.value + ARMIJO_SLOPE * step * slope
                    or (abs(slope) * step <= noise and trial[0] <= rep.value + noise)):
                accepted = u_try
                break
            step *= BACKTRACK
        if accepted is None:
            raise LineSearchStalled(
                f"no acceptable step at iteration {it} (grad_inf={grad_inf:.3e})")

        u = accepted
        if kind == "zero":
            u = apply_gauge(u, alpha, conserved)
        tri_c, base_c, flips = delaunay_surgery(tri_c, base_c, u)
        total_flips += len(flips)
        rep = energy_W_alpha(tri_c, base_c, u, alpha, rbar, offset=offset)
        grad_inf = float(np.max(np.abs(rep.gradient)))
        trace.append(TraceRow(it, grad_inf, rep.value, step, len(flips)))

    scaled = scale_metric(tri_c, base_c, u)
    curv = alpha_curvature(curvature(tri_c, scaled), u, alpha, chi=tri_c.chi)
    iterations = trace[-1].iteration
    log.info("newton_solve: %d iterations, %d flips, grad_inf=%.3e",
             iterations, total_flips, grad_inf)
    return NewtonResult(u=u, tri=tri_c, base=base_c, report=rep,
                        curvature=curv, kind=kind, iterations=iterations,
                        flips=total_flips, trace=trace)


# --- rigidity experiment ------------------------------------------------

START_DRAWS = 100  # random draws per start before rigidity_check gives up


@dataclass
class RigidityReport:
    kind: str
    passed: bool | None
    spread: float | None
    solutions: list[np.ndarray]

    def __str__(self) -> str:
        if self.kind == "unsupported":
            return "rigidity: unsupported target, no claim"
        verdict = "PASS" if self.passed else "FAIL"
        gauge = " (up to constant shift)" if self.kind == "zero" else ""
        return (f"rigidity: {verdict}{gauge}, {len(self.solutions)} starts, "
                f"spread {self.spread:.3e}")


def rigidity_check(tri: Triangulation, base: np.ndarray, alpha: float,
                   target: Target, trials: int = 5, tol: float = 1e-10,
                   seed: int = 0, spread: float = 0.3) -> RigidityReport:
    """Solve from several random starts and compare the solutions.

    The target is resolved once (at u = 0) so every start chases the same
    prescribed vector.  PASS means all solutions agree within 1e-6 in the
    max norm, modulo the additive gauge in the "zero" class; an
    unsupported target yields no claim.  Starts are drawn until no face of
    the Delaunay chart at u = 0 degenerates, START_DRAWS times at most;
    each solve starts on that chart, so its own pass at u = 0 flips nothing.
    """
    n = tri.vertex_count
    rbar, kind = target.resolve(alpha, tri.chi, np.zeros(n))
    if kind == "unsupported":
        return RigidityReport(kind=kind, passed=None, spread=None, solutions=[])
    fixed = Target.prescribed(rbar)
    rng = np.random.default_rng(seed)
    tri0, base0, _ = start_chart(tri, base, np.zeros(n))
    solutions = []
    for _ in range(trials):
        for _ in range(START_DRAWS):
            u0 = rng.uniform(-spread, spread, size=n)
            if not degenerate_faces(tri0, scale_metric(tri0, base0, u0)):
                break
        else:
            raise DegenerateFace(f"{START_DRAWS} draws all leave a face degenerate")
        res = newton_solve(tri0, base0, u0, alpha, fixed, tol=tol)
        solutions.append(res.u - res.u.mean() if kind == "zero" else res.u)
    # the largest pairwise max-norm gap is the widest per-vertex range
    worst = float(np.ptp(solutions, axis=0).max()) if solutions else 0.0
    return RigidityReport(kind=kind, passed=worst < 1e-6, spread=worst,
                          solutions=solutions)
