"""Convex energies and Newton minimization for prescribed weighted curvature.

The per-face building block is the line integral of the corner angles in
the log conformal factors, which extends to a globally concave C1
function of u once the angles are extended constantly past degeneracy.
Summed with the linear and exponential vertex terms this yields a convex
total energy whose gradient is exactly (deficit - target * weight); a
damped Newton iteration that carries its chart along each accepted step
minimizes it.  Written in the scaled log lengths, the energy takes the
same value in every Delaunay triangulation of a metric, so flips leave
it unchanged and need no correction.  An evaluation takes its point's
angles once, bit for bit those :func:`geometry.curvature` takes, and the
value and the gradient both read them, and a flow its cosines.  Newton
and the flows move their chart only through :func:`start_chart`,
:func:`guarded_step` (trials scored by :func:`trial_energy`) and
:func:`carry_chart`.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .errors import (
    FlipLimitExceeded,
    LineSearchStalled,
    LogFactorOverflow,
    MaxIterations,
    UnsupportedTarget,
)
from .geometry import (
    NEXT,
    PREV,
    CurvatureReport,
    alpha_curvature,
    angle_deficit,
    curvature,
    curvature_jacobian,
    degenerate_faces,
    delaunay_surgery,
    opposite_cosines,
    scale_metric,
)
from .mesh import Flips, Triangulation, csv_text

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

# The wall search scans 16 panels, then bisects at least 5 levels per kernel
# call down to a bracket 1e-12 wide (1e-12 * max(1, s), as s <= 1).
_WALL_PANELS = 16
_BISECT_DEPTH = 5
_WALL_RESOLUTION = 1e-12

# Twice the flip slack.  The scan reads the Delaunay pass's own margins
# (geometry.edge_margins), so an edge it calls a wall is one slack past
# the pass's threshold and gets flipped, with rounding of the stacked
# probe metrics to spare.  The value also fixes where walls are found:
# moving it moves the solver's and the flows' outputs.
_WALL_MARGIN = -2.0 * geometry.DELAUNAY_SLACK

# Relative clearance of the wall certificate: a cleared edge's cosines sum
# to at least about 1e-6 on the whole segment.  That is the scan's margin,
# with no arccos between, so the band only has to cover the few ulps of
# rounding in the certificate's products and the kernel's cosines.  Bands
# from 1e-9 to 1e-4 leave the same edges on the benchmark's Newton and
# Yamabe inputs.
_CERT_BAND = 1e-6

# The certificate runs only while every scaled length and every product
# it forms stays within e^(+-690) (about 1e(+-300)): normal floats.
_CERT_LOG_RANGE = 690.0


# --- Lobachevsky function -----------------------------------------------

# Cl2(t) = t (1 - log t) + t^3 sum_n c_n x^(n-1) on [0, pi], x = t^2, with
# c_n = zeta(2n) / ((2 pi)^(2n) n (2n + 1)): the sum to 40 terms, economized
# to degree 12 on [0, pi^2] (Chebyshev-expanded there, cut, and turned back
# into powers of x).  The Chebyshev terms cut are below 5e-18 on [0, pi].
_CLAUSEN_SERIES = np.array([
    0.01388888888888889, 6.944444444443966e-05, 7.873519778550746e-07,
    1.1482216284111264e-08, 1.8978876742949168e-10, 3.3872556802430397e-12,
    6.374611508131478e-14, 1.2405211533806996e-15, 2.6215120782602716e-17,
    3.712313114415675e-19, 2.3646660010260784e-20, -4.501181374909624e-22,
    2.3803080331783184e-23])


def _clausen(theta):
    """Clausen integral Cl2 (the 2pi-periodic odd antiderivative of -ln|2 sin(t/2)|);
    its series part has degree 12 in t^2 (_CLAUSEN_SERIES, cut below 5e-18) and
    is within 2.2e-16 of the 40-term series on [0, pi]."""
    t = np.remainder(np.asarray(theta, dtype=float), TWO_PI)
    over = t > math.pi
    t = np.where(over, TWO_PI - t, t)
    t2 = t * t
    series = np.zeros_like(t)
    for c in _CLAUSEN_SERIES[::-1]:
        series = series * t2 + c
    log_t = np.log(np.where(t > 0.0, t, 1.0))
    cl2 = t * (1.0 - log_t) + series * t * t2
    return np.where(over, -cl2, cl2)


def lobachevsky(x):
    """Milnor's function: minus the integral of ln|2 sin t| from 0 to x.

    Odd and pi-periodic; within 5e-16 absolute of the 40-term power series
    of the Clausen integral (lobachevsky(x) = Cl2(2x) / 2).
    Elementwise on arrays.
    """
    return 0.5 * _clausen(2.0 * np.asarray(x, dtype=float))


# --- per-triangle energy ------------------------------------------------

def triangle_energy(base_lengths, u, angles=None, log_lengths=None) -> float:
    """Antiderivative in u of the extended corner angles.

    ``base_lengths[a]`` is the side opposite corner a at u = 0.  Concave
    in u; the partial derivative in u_a is the extended angle theta_a at
    corner a, so the difference of two values is the line integral of
    sum_a theta_a * du_a between them.  The closed form pi * sum(u) -
    sum_a [theta_a * lambda_a + Л(theta_a)], with lambda_a the log length
    of side a and Л :func:`lobachevsky`, is C1 everywhere: the log-radius
    terms cancel by the law of sines, and past degeneracy the angles are
    locally constant.  Batched: (3, F) arrays give the sum over F faces,
    and shape (3,) is one face.  ``angles`` and ``log_lengths``, shaped
    like ``u`` and given together, are the corner angles and the lambda_a
    at u when the caller has them.  Past LOG_FACTOR_BOUND
    the scaled sides the angles come from would overflow, and
    LogFactorOverflow is raised, as :func:`geometry.scale_metric` does.
    """
    base = np.asarray(base_lengths, dtype=float)
    u = np.asarray(u, dtype=float)
    if base.ndim not in (1, 2) or base.shape[0] != 3 or u.shape != base.shape:
        raise ValueError("triangle_energy expects (3,) or (3, F) base lengths "
                         "and a u-array of the same shape")
    if not np.all(base > 0.0):
        raise geometry.NonPositiveLength(f"base lengths {base} not positive")
    if not np.abs(u).max(initial=0.0) <= geometry.LOG_FACTOR_BOUND:  # True on NaN
        raise LogFactorOverflow(f"|u| exceeds {geometry.LOG_FACTOR_BOUND}; sides would overflow")
    base, v = base.T, u.T  # faces on leading axes
    if angles is None:
        pair = v[..., NEXT] + v[..., PREV]
        angles = np.arccos(opposite_cosines(np.exp(pair) * base)).T
        log_lengths = (pair + np.log(base)).T
    theta, lam = angles.T, log_lengths.T
    return float(math.pi * v.sum() - ((theta * lam).sum() + lobachevsky(theta).sum()))


# --- total energy -------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Value, optional gradient and optional Hessian of the curvature energy.

    gradient[i] = deficit_i - target_i * exp(alpha * u_i);
    hessian = curvature Jacobian - alpha * diag(target * exp(alpha * u)).
    ``unsupported`` flags targets with a positive alpha * target entry,
    for which convexity (hence uniqueness claims) are lost.  ``angles``
    are bit for bit :func:`geometry.face_angles` of the scaled metric, and
    ``cosines`` the :func:`geometry.opposite_cosines` they come from.
    """

    value: float
    gradient: np.ndarray | None
    hessian: np.ndarray | None
    unsupported: bool
    angles: np.ndarray
    cosines: np.ndarray


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
    every Delaunay triangulation of the metric.  Valid for any u within
    LOG_FACTOR_BOUND, Delaunay or not; convex per fixed triangulation
    when the target is admissible.
    The point's angles are evaluated once, as :func:`geometry.curvature`
    evaluates them, and the value and the gradient both read them
    (``angles``, from ``cosines``).  ``order`` picks the derivatives: 0
    gives the value alone (``gradient`` is None), 1 adds the gradient and 2
    the Hessian, a dense (V, V) array, which requires nondegenerate faces.
    """
    u = np.asarray(u, dtype=float)
    rbar = np.asarray(rbar, dtype=float)
    # the side opposite corner a is the edge in slot (a + 1) % 3
    sides, corners = base[tri.face_edges[:, NEXT].T], u[tri.faces.T]  # row a: corner a
    b, v = sides.T, corners.T  # faces on leading axes
    pair = v[..., NEXT] + v[..., PREV]  # the sum scale_metric takes: face_angles' bits
    cos = opposite_cosines(np.exp(pair) * b)
    theta = np.arccos(cos)
    total_faces = triangle_energy(sides, corners, theta.T, (pair + np.log(b)).T)
    if alpha == 0.0:
        vertex_term = float(((TWO_PI - rbar) * u).sum())
    else:
        vertex_term = float((TWO_PI * u - rbar * np.exp(alpha * u) / alpha).sum())
    value = offset - total_faces - math.pi * float(np.log(base).sum()) + vertex_term

    angles = theta[:, PREV]  # by slot: slot s faces corner (s + 2) % 3
    grad = hess = None
    if order >= 1:
        weights = np.exp(alpha * u)
        grad = angle_deficit(tri, angles) - rbar * weights
    if order >= 2:
        hess = curvature_jacobian(tri, scale_metric(tri, base, u))
        hess.flat[::tri.vertex_count + 1] -= alpha * (rbar * weights)

    return EnergyReport(value=value, gradient=grad, hessian=hess,
                        unsupported=bool(np.any(alpha * rbar > 0.0)), angles=angles,
                        cosines=cos[:, PREV])


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
    return csv_text("iter,grad_inf,value,step,flips",
                    ((r.iteration, r.grad_inf, r.value, r.step, r.flips) for r in rows))


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


def implicit_step(A: np.ndarray, b: np.ndarray, dt: float, diag=None,
                  gauge: bool = False) -> np.ndarray:
    """x with (diag(``diag``) + dt*A) x = dt*b, ``diag`` None for the identity:
    the one linear solve of Newton and the implicit flows.  At dt = inf it is
    Newton's A x = b, solved orthogonal to the constants, along which A is
    singular, when ``gauge`` is set.  A singular system raises LinAlgError."""
    if dt < math.inf:
        lhs = dt * A
        lhs.flat[::len(b) + 1] += 1.0 if diag is None else diag
        return np.linalg.solve(lhs, dt * b)
    if not gauge:
        return np.linalg.solve(A, b)
    x = np.linalg.solve(A + 1.0 / len(b), b - b.mean())
    return x - x.mean()


class _Chart:
    """Wall-certificate constants of one chart.  Made by :func:`_chart`."""

    def __init__(self, tri: Triangulation, base: np.ndarray, key: bytes):
        self.faces, self.key = tri.faces, key
        with np.errstate(all="ignore"):  # a NaN or nonpositive base is never in range
            self.base_reach = np.maximum(np.log(base.max()), -np.log(base.min()))
            self.base_spread = 4.0 * np.log(base.max() / base.min())
            b = base / base.max()  # normalized by the longest
            self.opposite = b[tri.face_edges[:, NEXT]]  # side opposite each corner
            corners = tri.quad_corners(slice(None))  # (E, 2, 3): (i, j, k), (j, i, l)
            q = b[tri.face_edges.reshape(-1)[corners]]  # (E, A, B), (E, C, D)
            e2, A, B, C, D = q[:, 0, 0] ** 2, q[:, 0, 1], q[:, 0, 2], q[:, 1, 1], q[:, 1, 2]
            self.ptolemy, self.AD, self.BC = A * C + B * D, A * D, B * C
            self.E2CD, self.E2AB = e2 * C * D, e2 * A * B
        self.quad_verts = tri.faces.reshape(-1)[corners[:, [0, 0, 0, 1], [0, 1, 2, 2]]].T
        self.quad_faces = corners[:, :, 0].T // 3


_CHARTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # dies with its Triangulation


def _chart(tri: Triangulation, base: np.ndarray) -> _Chart:
    """The chart of tri and ``base``, compared by value: an in-place edit is a new chart."""
    key = np.asarray(base, dtype=float).tobytes()
    chart = _CHARTS.get(tri)
    if chart is None or chart.key != key:
        chart = _CHARTS[tri] = _Chart(tri, np.frombuffer(key), key)
    return chart


def _uncertified_edges(tri: Triangulation, base: np.ndarray, u: np.ndarray,
                       delta: np.ndarray) -> np.ndarray | None:
    """Edges the wall certificate cannot clear on u + s*delta, s in [0, 1].

    The certificate is derived in :func:`_first_wall`.  Each positive
    term of g and of the face inequalities is bounded below by its
    smaller endpoint value and each negative term above by its larger
    one; an edge is cleared when those bounds keep g, and every
    inequality of its two faces, _CERT_BAND clear in relative terms.
    The bounds hold on the whole box of endpoint values, so the rounding
    of the probe points is covered too.

    Returns None, clearing nothing, when a point of the segment passes
    LOG_FACTOR_BOUND (a wall the scan must find) or a scaled length or a
    product would leave _CERT_LOG_RANGE; else the ids of the edges not
    cleared, possibly none.
    """
    chart = _chart(tri, base)
    end = u + delta
    lo, hi = np.minimum(u, end), np.maximum(u, end)
    low, high = float(lo.min()), float(hi.max())
    reach = max(high, -low)
    if not (reach <= geometry.LOG_FACTOR_BOUND  # False on NaN
            and 2.0 * reach + chart.base_reach <= _CERT_LOG_RANGE
            and 2.0 * (high - low) + chart.base_spread <= _CERT_LOG_RANGE):
        return None
    # z = e^-u shifted so that z <= 1: positive terms at z_lo, negative ones at z_hi
    z_lo, z_hi = np.exp(low - hi), np.exp(low - lo)
    t_lo, t = chart.opposite * z_lo[chart.faces], chart.opposite * z_hi[chart.faces]
    rest = t_lo.sum(axis=1)[:, None] - t_lo  # each corner's triangle inequality: rest > t
    y_lo, y_hi = z_lo * z_lo, z_hi * z_hi
    i, j, k, l = chart.quad_verts
    pos = chart.ptolemy * (chart.AD * y_lo[i] + chart.BC * y_lo[j])  # g's parts
    neg = chart.E2CD * y_hi[k] + chart.E2AB * y_hi[l]
    keep = 1.0 - _CERT_BAND
    face_ok = (keep * rest > t).all(axis=1)
    return np.flatnonzero(~((keep * pos > neg) & face_ok[chart.quad_faces].all(axis=0)))


def _first_wall(tri: Triangulation, base: np.ndarray, u: np.ndarray,
                delta: np.ndarray) -> tuple[float, bool]:
    """Largest step fraction in (0, 1] before Delaunayness is lost.

    Scans the segment u + s*delta in 16 panels and bisects the first sign
    change of the worst edge margin.  Returns (s_cap, hit): when ``hit``
    the metric at s_cap is just past cocircular on some edge (beyond the
    flip slack), so :func:`carry_chart` flips at the wall instead of deep
    inside the non-Delaunay region.  Flipping deep would transport base
    lengths along a path-dependent chart and solves from different starts
    could disagree by far more than the rigidity tolerance.  Points past
    LOG_FACTOR_BOUND, or with a NaN margin, count as walls.  One kernel
    call scores s = 0 and the panels, and each later one the next
    _BISECT_DEPTH levels with the path bisection walks if the wall is at
    the margins' secant guess; the walk reads what was scored.  Probes are
    exact dyadic nodes, read as point-by-point bisection reads them, so
    neither the depth nor the guess moves a wall.

    Before the scan, a certificate (:func:`_uncertified_edges`) clears
    in closed form every edge that stays Delaunay, with both faces
    nondegenerate, on the whole segment.  Edge ij with faces (i, j, k)
    and (j, i, l) has base lengths E = ij, A = jk, B = ki, C = il,
    D = lj, each scaled by e^(u_a + u_b).  Its margin, the cosines of
    the angles facing ij summed (:func:`geometry.edge_margins`), has with
    y = e^(-2u) the sign of

        g = (AC + BD) (AD y_i + BC y_j) - E^2 (CD y_k + AB y_l),

    linear in y with Ptolemy products for coefficients (at y = 1 it is
    the cyclic-quad diagonal formula).  A face is nondegenerate iff
    L_a z_a < L_b z_b + L_c z_c at each corner a, with z = e^-u and L_a
    the base side opposite a.  Each y_v and z_v is monotone in s, so the
    endpoint values bound every term over the whole segment.  A cleared
    edge keeps its margin about 1e-6 above _WALL_MARGIN at every s, so it
    can never make a probe a wall; the scan scores only the quads of the
    edges left (all, if the certificate declines), on the sides
    scale_metric gives them, bit for bit, and with none left returns
    (1.0, False) at once.
    """
    edges = _uncertified_edges(tri, base, u, delta)
    if edges is not None and not edges.size:
        return 1.0, False
    q = tri.face_edges.reshape(-1)[tri.quad_corners(slice(None) if edges is None else edges)]
    ends, base_q = tri.edge_verts.T[:, q], base[q]  # q: (m, 2, 3) side edge ids
    (ui, uj), (di, dj) = u[ends], delta[ends]
    # u + s*delta lies between its ends, rounded too: only a far end can pass the bound
    far = np.flatnonzero(~(np.maximum(np.abs(u), np.abs(u + delta)) <= geometry.LOG_FACTOR_BOUND))

    def below(s: np.ndarray) -> tuple[list, list]:  # walls, margins (-inf past the bound)
        ok = slice(None)
        if far.size:
            U = u[far] + s[:, None] * delta[far]
            ok = np.abs(U).max(axis=1) <= geometry.LOG_FACTOR_BOUND  # False on NaN
        t, margin = s[ok, None, None, None], np.full(len(s), -math.inf)
        # each side at u + t*delta is the float scale_metric gives it
        margin[ok] = geometry.delaunay_margin(np.exp((ui + t * di) + (uj + t * dj)) * base_q)
        return (~(margin >= _WALL_MARGIN)).tolist(), margin.tolist()  # NaN: a wall

    panels = np.arange(_WALL_PANELS + 1) / _WALL_PANELS  # s = 0 too, for its margin
    bad, margins = below(panels)
    if not any(bad[1:]):
        return 1.0, False
    k = bad.index(True, 1)
    lo, hi, m_lo, m_hi = float(panels[k - 1]), float(panels[k]), margins[k - 1], margins[k]
    nodes = np.arange(1, 2 ** _BISECT_DEPTH) / 2 ** _BISECT_DEPTH
    while hi - lo > _WALL_RESOLUTION:
        # the path bisection walks if the wall sits where the margins' secant
        # through the bracket's ends crosses _WALL_MARGIN
        frac = (m_lo - _WALL_MARGIN) / (m_lo - m_hi) if m_lo > m_hi else 0.5
        guess, path, a, b = lo + (hi - lo) * frac, [], lo, hi
        while b - a > _WALL_RESOLUTION:
            path.append(mid := 0.5 * (a + b))
            a, b = (a, mid) if mid >= guess else (mid, b)
        # its first levels are nodes of the dyadic grid on [lo, hi], scored whole
        probes = np.concatenate([lo + (hi - lo) * nodes, path[_BISECT_DEPTH:]])
        scored = dict(zip(probes.tolist(), zip(*below(probes))))
        while hi - lo > _WALL_RESOLUTION and (mid := 0.5 * (lo + hi)) in scored:
            wall, margin = scored[mid]
            if wall:
                hi, m_hi = mid, margin
            else:
                lo, m_lo = mid, margin
    return hi, True


def carry_chart(tri: Triangulation, base: np.ndarray, u_from: np.ndarray,
                u_to: np.ndarray) -> tuple[Triangulation, np.ndarray, Flips, np.ndarray]:
    """Transport the chart along the straight segment from u_from to u_to.

    Walks the segment and performs each flip at the wall where the edge
    turns cocircular, so the arrival chart does not depend on where the
    segment started.  Returns the arrival triangulation, base lengths,
    the flips made on the way as one :class:`~plcurv.mesh.Flips` record,
    and a (k,) array ``s``: the surgery that made row x ran at
    u_from + s[x] * (u_to - u_from).
    """
    cur = np.asarray(u_from, dtype=float).copy()
    u_to = np.asarray(u_to, dtype=float)
    surgeries: list[Flips] = []
    walls: list[float] = []
    walked = 0.0
    cap = geometry.FLIP_CAP_FACTOR * tri.edge_count ** 2
    while np.any(delta := u_to - cur):
        s_cap, hit = _first_wall(tri, base, cur, delta)
        cur = cur + s_cap * delta
        if not hit:
            break
        walked += s_cap * (1.0 - walked)
        tri, base, flips = delaunay_surgery(tri, base, cur)
        if not flips:
            break
        surgeries.append(flips)
        walls += [walked] * len(flips)
        if len(walls) > cap:
            raise FlipLimitExceeded(
                f"{len(walls)} flips while carrying the chart along one segment")
    return tri, base, Flips.join(surgeries), np.array(walls)


def start_chart(tri: Triangulation, base: np.ndarray, u0: np.ndarray
                ) -> tuple[Triangulation, np.ndarray, int]:
    """The canonical chart at u0 and the number of flips made to reach it.

    Surgery at u = 0, shared by every start on this mesh, then a walk to
    u0 that flips at the walls: surgery directly at a deeply non-Delaunay
    u0 would give each start its own transported base lengths.
    """
    zero = np.zeros(tri.vertex_count)
    tri, base, flips0 = delaunay_surgery(tri, base, zero)
    tri, base, carried, _ = carry_chart(tri, base, zero, u0)
    return tri, base, len(flips0) + len(carried)


def trial_fault(tri: Triangulation, base: np.ndarray, u: np.ndarray, alpha: float
                ) -> str | None:
    """Why u cannot be a trial point on this chart (overflowing metric or
    weights, degenerate faces), or None when it can."""
    try:
        check_weights(u, alpha)
        scaled = scale_metric(tri, base, u)
    except LogFactorOverflow:
        return "metric overflow"
    bad = degenerate_faces(tri, scaled)
    return f"faces {bad} degenerate" if bad else None


def trial_energy(tri: Triangulation, base: np.ndarray, u: np.ndarray, alpha: float,
                 rbar: np.ndarray, offset: float
                 ) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Order-0 energy at u, its angles and their cosines
    (:attr:`EnergyReport.angles`, :attr:`EnergyReport.cosines`), or None
    when :func:`trial_fault` rules u out."""
    if trial_fault(tri, base, u, alpha) is not None:
        return None
    rep = energy_W_alpha(tri, base, u, alpha, rbar, offset=offset, order=0)
    return rep.value, rep.angles, rep.cosines


def guarded_step(tri: Triangulation, base: np.ndarray, alpha: float, rbar: np.ndarray,
                 offset: float, propose, accept, step: float, max_shrinks: int,
                 min_step: float = 0.0
                 ) -> tuple[float, int, np.ndarray | None, tuple | None]:
    """Halve ``step`` until :func:`trial_energy` at ``propose(step)``, on the
    departure chart (tri, base), passes ``accept(step, value)``.

    A proposal that raises LogFactorOverflow or NumPy's LinAlgError (a
    singular implicit-step system) fails, as does a point
    :func:`trial_fault` rules out.  Gives up after ``max_shrinks``
    halvings, or before a step below ``min_step``.  Returns (step,
    halvings, u, trial) of the accepted trial; on giving up ``trial`` is
    None and ``u`` the last point tried (None: its proposal overflowed).
    """
    for shrinks in range(max_shrinks + 1):
        try:
            u_try = propose(step)
        except (LogFactorOverflow, np.linalg.LinAlgError):
            u_try = trial = None
        else:
            trial = trial_energy(tri, base, u_try, alpha, rbar, offset)
        if trial is not None and accept(step, trial[0]):
            return step, shrinks, u_try, trial
        if shrinks == max_shrinks or step * BACKTRACK < min_step:
            return step, shrinks, u_try, None
        step *= BACKTRACK


def newton_solve(tri: Triangulation, base: np.ndarray, u0,
                 alpha: float, target: Target, tol: float = 1e-10,
                 max_iter: int = 100) -> NewtonResult:
    """Minimize the curvature energy until the gradient is below ``tol``.

    Damped Newton with Armijo backtracking from the full step
    (:func:`guarded_step`); reported values are relative to the
    start.  :func:`carry_chart` carries the chart along every accepted
    step, flipping where an edge turns cocircular, so the transported base
    lengths do not depend on the route taken and the energy is unchanged
    by the flips.  For the gauge-carrying target class
    ("zero") steps are solved orthogonal to constants and the
    normalization sum(exp(alpha*u)) (sum(u) at alpha = 0) is restored by
    a closed-form shift after each step.
    Returns only once converged: every way of stopping short raises.
    """
    if not (0.0 < tol < math.inf and max_iter >= 0):
        raise ValueError(f"need 0 < tol < inf and max_iter >= 0, not {tol!r} and {max_iter!r}")
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
    rep = energy_W_alpha(tri_c, base_c, u, alpha, rbar)
    offset = -rep.value
    rep = replace(rep, value=0.0)  # the start's Hessian dies with its first replacement
    grad_inf = float(np.max(np.abs(rep.gradient)))
    trace = [TraceRow(0, grad_inf, rep.value, 0.0, total_flips)]

    it = 0
    while grad_inf >= tol:
        it += 1
        if it > max_iter:
            raise MaxIterations(
                f"gradient {grad_inf:.3e} still above {tol:.3e} "
                f"after {max_iter} iterations")
        H, g = rep.hessian, rep.gradient
        try:
            delta = implicit_step(H, -g, math.inf, gauge=kind == "zero")
            slope = float(g @ delta)
        except np.linalg.LinAlgError:  # singular: no Newton direction at all
            slope = math.inf
        if slope >= 0.0:
            # Hessian too ill-conditioned to give descent; fall back.
            delta = -g
            slope = float(g @ delta)

        noise = max(VALUE_NOISE * (1.0 + abs(rep.value)),
                    ROUNDING_NOISE * abs(offset))

        def armijo(step: float, value: float) -> bool:
            return (value <= rep.value + ARMIJO_SLOPE * step * slope
                    or (abs(slope) * step <= noise and value <= rep.value + noise))

        step, _, accepted, trial = guarded_step(
            tri_c, base_c, alpha, rbar, offset, lambda step: u + step * delta, armijo,
            step=1.0, max_shrinks=MAX_BACKTRACKS)
        if trial is None:
            raise LineSearchStalled(
                f"no acceptable step at iteration {it} (grad_inf={grad_inf:.3e})")

        if kind == "zero":
            accepted = apply_gauge(accepted, alpha, conserved)
        tri_c, base_c, flips, _ = carry_chart(tri_c, base_c, u, accepted)
        u = accepted
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
    unsupported target yields no claim.  Each start, drawn once from
    U(-spread, spread), is solved from the Delaunay chart at u = 0 that all
    starts share, and its walk carries that chart to the start.
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
        u0 = rng.uniform(-spread, spread, size=n)
        res = newton_solve(tri0, base0, u0, alpha, fixed, tol=tol)
        solutions.append(res.u - res.u.mean() if kind == "zero" else res.u)
    # the largest pairwise max-norm gap is the widest per-vertex range
    worst = float(np.ptp(solutions, axis=0).max()) if solutions else 0.0
    return RigidityReport(kind=kind, passed=worst < 1e-6, spread=worst,
                          solutions=solutions)
