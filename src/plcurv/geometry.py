"""Metric geometry on triangulated surfaces.

Everything here is a pure function of a Triangulation plus a metric: a
float array of positive edge lengths indexed by edge id (for
``delaunay_margin``, the sides of the quads it scores).  Provided:
corner angles extended constantly past triangle-inequality failure,
conformal vertex scaling, angle-deficit curvature and its weighted
variants, the curvature Jacobian, a weighted graph Laplacian, the
Delaunay predicate, and intrinsic edge flips that transport lengths.

Whole-mesh queries share one NumPy kernel over the triangulation's
index arrays; the kernel also scores stacks of edge-length arrays.  The
Delaunay pass runs in rounds on those arrays: each round flips a
face-disjoint set of violators at once.  The one Delaunay test is the
sign of cos alpha + cos beta, read from the kernel's cosines with no
``arccos``: ``delaunay --check``, the pass and the solver's wall scan
share it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFace,
    FlipLimitExceeded,
    LogFactorOverflow,
    NonConvexQuad,
    NonFiniteValue,
    NonPositiveLength,
)
from .mesh import Flips, Triangulation

log = logging.getLogger(__name__)

# Inclusive slack on the Delaunay test; cocircular edges (opposite angles
# summing to exactly pi, cosines to 0) must not be flipped or the Delaunay
# pass can cycle forever.
DELAUNAY_SLACK = 1e-12

# Substitute for cot(0) / -cot(pi) on degenerate faces: large enough to be
# numerically loud, small enough not to overflow products.
COT_CLAMP = 1e12

# Log conformal factors beyond this make exp() meaningless in float64.
LOG_FACTOR_BOUND = 300.0

# Safety factor for the Delaunay pass: terminates mathematically, the cap only
# guards against float pathologies.
FLIP_CAP_FACTOR = 100

TWO_PI = 2.0 * math.pi

# Column k of x[..., NEXT] is column (k + 1) % 3 of x, of x[..., PREV] (k + 2) % 3.
NEXT = np.array([1, 2, 0])
PREV = np.array([2, 0, 1])


@dataclass(frozen=True)
class CurvatureReport:
    """Angle-deficit curvature and its weighted form at one exponent.

    ``K`` is the deficit vector, ``R_alpha[i] = K[i] * exp(-alpha*u[i])``,
    and ``R_av`` is the constant value the total deficit forces on the
    weighted average.  ``max_dev`` measures distance from constancy.
    """

    K: np.ndarray
    R_alpha: np.ndarray
    alpha: float
    sum_K: float
    R_av: float
    max_dev: float


def side_lengths(tri: Triangulation, lengths: np.ndarray, edges=None) -> np.ndarray:
    """(..., F, 3) array of every face's edge lengths by slot, faces in id order.

    ``lengths`` is a metric (E,) or a stack of metrics (..., E).  Given
    ``edges``, an edge id or an array of them, the result is (..., m, 2,
    3) instead: the two faces of each edge, each read from the edge's own
    slot on (see :meth:`Triangulation.quad_corners`), so entry 0 of a row
    is the side on the edge.
    """
    flat = _positive(lengths)
    if edges is None:
        return flat[..., tri.face_edges]
    return flat[..., tri.face_edges.reshape(-1)[tri.quad_corners(edges)]]


def _positive(lengths) -> np.ndarray:
    """``lengths`` as floats; NonPositiveLength unless each one is > 0."""
    flat = np.asarray(lengths, dtype=float)
    if not (ok := flat > 0.0).all():
        raise NonPositiveLength(f"edge length {float(flat[~ok][0])!r} is not positive")
    return flat


def max3(x: np.ndarray) -> np.ndarray:
    """Maximum over a last axis of length 3.

    Two np.maximum calls, because NumPy reduces a length-3 axis several
    times slower; the values are those of ``x.max(axis=-1)``.
    """
    return np.maximum(np.maximum(x[..., 0], x[..., 1]), x[..., 2])


def opposite_cosines(L: np.ndarray) -> np.ndarray:
    """Clamped cosines of the angles facing each side, sides on the last axis.

    ``L[..., k]`` are positive side lengths; entry k of the result is the
    cosine facing side k.  The clamp is the whole degeneracy story: when
    one length reaches the sum of the others the raw ratio leaves
    [-1, 1] and clamping pins the angles at exactly (pi, 0, 0), which is
    the continuous extension.  Lengths are normalized first so their
    squares cannot overflow.  The arithmetic is elementwise, so each entry
    is the float the same formula gives on one triangle in plain floats.
    """
    n = L / max3(L)[..., None]
    b, c = n[..., NEXT], n[..., PREV]
    num = b * b + c * c - n * n
    den = 2.0 * b * c
    flat = den == 0.0
    if flat.any():
        # b*c underflowed, so some side is negligible: only the sign of num
        # survives (0 for a needle face's long side: its limit angle pi/2).
        den = np.where(flat, 1.0, den)
        num = np.where(flat, np.sign(num), num)
    return np.minimum(np.maximum(num / den, -1.0), 1.0)


def face_angles(tri: Triangulation, lengths: np.ndarray) -> np.ndarray:
    """(..., F, 3) array: entry [f, s] is the angle facing slot s of face f.

    Lengths as for :func:`side_lengths`.  Faces are in id order; the
    angle facing slot s sits at corner (s + 2) % 3.  Extended past
    degeneracy constantly (the longest side of a degenerate face faces pi,
    the others 0), so every row sums to pi.
    """
    return np.arccos(opposite_cosines(side_lengths(tri, lengths)))


def degenerate_faces(tri: Triangulation, lengths: np.ndarray) -> list[int]:
    """Face ids that fail a strict triangle inequality."""
    L = side_lengths(tri, lengths)
    m = max3(L)
    return np.flatnonzero(m >= (L[:, 0] + L[:, 1] + L[:, 2]) - m).tolist()


def scale_metric(tri: Triangulation, base: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Scale every edge {i, j} by exp(u_i + u_j).

    ``u`` may stack points (..., V), giving one metric (..., E) each.  A
    loop edge at vertex i, which a flip makes when its two faces share
    all three vertices, picks up exp(2 u_i).
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (tri.vertex_count,):
        raise ValueError(f"expected {tri.vertex_count} log factors, got {u.shape}")
    if not np.abs(u).max(initial=0.0) <= LOG_FACTOR_BOUND:  # True on NaN
        if not np.all(np.isfinite(u)):
            raise LogFactorOverflow("non-finite log conformal factor")
        raise LogFactorOverflow(
            f"|u| exceeds {LOG_FACTOR_BOUND}; metric would overflow")
    ends = tri.edge_verts
    return np.exp(u[..., ends[:, 0]] + u[..., ends[:, 1]]) * base


def curvature(tri: Triangulation, lengths: np.ndarray) -> np.ndarray:
    """Angle deficit 2*pi minus the incident corner angles, per vertex.

    Degenerate faces contribute their extended angles, so the result is
    total and the deficit sum stays pinned at 2*pi*chi.
    """
    return angle_deficit(tri, face_angles(tri, lengths))


def angle_deficit(tri: Triangulation, theta: np.ndarray) -> np.ndarray:
    """:func:`curvature` from the (F, 3) angles :func:`face_angles` gives."""
    at = tri.faces[:, PREV]
    return TWO_PI - np.bincount(at.ravel(), weights=theta.ravel(), minlength=tri.vertex_count)


def alpha_curvature(K: np.ndarray, u: np.ndarray, alpha: float,
                    chi: int | None = None) -> CurvatureReport:
    """Weighted curvature report: divide each deficit by exp(alpha * u_i).

    ``chi`` fixes the average; when omitted it is recovered by rounding
    the deficit sum to the nearest multiple of 2*pi, which is exact for
    any metric on a closed surface.
    """
    K = np.asarray(K, dtype=float)
    u = np.asarray(u, dtype=float)
    if K.shape != u.shape:
        raise ValueError(f"size mismatch: {K.shape} vs {u.shape}")
    sum_K = float(np.sum(K))
    if chi is None:
        chi = round(sum_K / TWO_PI)
    weights = np.exp(alpha * u)
    R = K / weights
    R_av = TWO_PI * chi / float(np.sum(weights))
    max_dev = float(np.max(np.abs(R - R_av)))
    return CurvatureReport(K=K, R_alpha=R, alpha=float(alpha),
                           sum_K=sum_K, R_av=R_av, max_dev=max_dev)


def _cot_weights(tri: Triangulation, cos: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, w) per edge joining two vertices: its ends and its cot weight, the
    cotangents of the two angles facing it, by their (F, 3) ``cos``, summed.

    Self-edges are left out.  Degenerate faces contribute +/-COT_CLAMP
    through the extended angles (cot 0 and cot pi).
    """
    cos = cos.ravel()
    sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
    cot = np.divide(cos, sin, out=np.where(cos > 0.0, COT_CLAMP, -COT_CLAMP),
                    where=sin != 0.0)
    ends, sides = tri.edge_verts, tri.edge_sides
    real = ends[:, 0] != ends[:, 1]
    i, j = ends[real].T
    return i, j, (cot[sides[:, 0]] + cot[sides[:, 1]])[real]


def curvature_jacobian(tri: Triangulation, lengths: np.ndarray) -> np.ndarray:
    """Derivative of the deficit vector in the log conformal factors.

    Returns a dense (V, V) symmetric array with zero row sums: off-diagonal
    (i, j) entries are minus the cot weights of the edges joining i and j
    (a finite-difference test pins this scale), the diagonal makes rows
    sum to zero.  Self-edges contribute nothing.  On a Delaunay metric the
    matrix is positive semi-definite with kernel spanned by the constant
    vector.  Raises DegenerateFace on a degenerate face, then assembles
    :func:`cosine_jacobian` of the metric's cosines.
    """
    bad = degenerate_faces(tri, lengths)
    if bad:
        raise DegenerateFace(f"faces {bad} are degenerate")
    return cosine_jacobian(tri, opposite_cosines(side_lengths(tri, lengths)))


def cosine_jacobian(tri: Triangulation, cos: np.ndarray) -> np.ndarray:
    """:func:`curvature_jacobian` from the (F, 3) cosines facing each slot,
    with no degeneracy check.  One bincount sums the entries edge by edge,
    (i, j), (j, i), (i, i), (j, j) in turn."""
    i, j, w = _cot_weights(tri, cos)
    n = tri.vertex_count
    at = np.stack([i * n + j, j * n + i, i * (n + 1), j * (n + 1)], axis=1).ravel()
    vals = np.stack([-w, -w, w, w], axis=1).ravel()
    return np.bincount(at, weights=vals, minlength=n * n).reshape(n, n)


def alpha_laplacian_apply(tri: Triangulation, lengths: np.ndarray,
                          u: np.ndarray, alpha: float, f: np.ndarray) -> np.ndarray:
    """Weighted cotangent Laplacian applied to a vertex function.

    Entry i is exp(-alpha*u_i) times the cot-weighted sum of differences
    (f_j - f_i) over edges at i, i.e. -exp(-alpha*u) * (L @ f) with L the
    curvature Jacobian; self-edges drop out.  ``lengths`` must already be
    the scaled metric.  Degenerate faces are allowed (clamped
    cotangents).  No matrix is formed: O(E) work.
    """
    u = np.asarray(u, dtype=float)
    f = np.asarray(f, dtype=float)
    i, j, w = _cot_weights(tri, opposite_cosines(side_lengths(tri, lengths)))
    flow = w * (f[j] - f[i])
    n = tri.vertex_count
    return np.exp(-alpha * u) * (np.bincount(i, weights=flow, minlength=n)
                                 - np.bincount(j, weights=flow, minlength=n))


def edge_margins(tri: Triangulation, lengths: np.ndarray, edges=None) -> np.ndarray:
    """cos alpha + cos beta per edge, alpha and beta the angles facing it.

    The one Delaunay test: an edge is Delaunay when its margin is at least
    -DELAUNAY_SLACK (:func:`is_delaunay`).  Cosines come from
    :func:`opposite_cosines`, so no ``arccos`` is taken and degenerate
    faces have their extended cosines.  A metric (E,) gives an array
    (E,), a stack (..., E) an array (..., E).

    ``edges``, an edge id or an array of them, restricts the result to
    those edges: only their two faces are scored (:func:`side_lengths`),
    by the same elementwise formula, so every margin is bit for bit the
    one the whole-mesh kernel gives that edge.
    """
    if edges is None:
        cos = opposite_cosines(side_lengths(tri, lengths))
        cos = cos.reshape(cos.shape[:-2] + (3 * cos.shape[-2],))
        sides = tri.edge_sides
        return cos[..., sides[:, 0]] + cos[..., sides[:, 1]]
    return _quad_margins(side_lengths(tri, lengths, edges))


def _quad_margins(sides: np.ndarray) -> np.ndarray:
    """Margins (..., m) of quad sides (..., m, 2, 3) laid out as by ``side_lengths``."""
    cos = opposite_cosines(sides)[..., 0]
    return cos[..., 0] + cos[..., 1]


def is_delaunay(tri: Triangulation, lengths, e=None):
    """True when the angles facing edge ``e`` sum to at most pi.

    The test is :func:`edge_margins` >= -DELAUNAY_SLACK: the slack makes
    cocircular edges count as Delaunay, so they are never flipped.  A NaN
    margin is a violation.  An int ``e`` gives a bool, an array of edge
    ids a bool array, and ``e=None`` every edge's verdict.
    """
    verdict = edge_margins(tri, lengths, e) >= -DELAUNAY_SLACK
    return bool(verdict) if verdict.ndim == 0 else verdict


def is_delaunay_all(tri: Triangulation, lengths: np.ndarray) -> list[int]:
    """Edge ids violating the Delaunay condition, in edge id order."""
    return np.flatnonzero(~is_delaunay(tri, lengths)).tolist()


def delaunay_margin(sides: np.ndarray):
    """Smallest cos alpha + cos beta over stacked quads (..., m, 2, 3).

    ``sides`` holds quad sides as ``side_lengths(tri, L, edges)`` lays
    them out, so the margins are :func:`edge_margins` of those m edges, bit
    for bit; the whole mesh's is ``edge_margins(tri, L).min(-1)``.  Gives
    (...) minima, +inf for m = 0; a side that is not positive raises
    NonPositiveLength.  2abcd times the margin of ij, with
    sides e = ij, a = jk, b = ki and c = il, d = lj, is
    (ac + bd)(ad + bc) - e^2 (ab + cd): conformally scaled, linear in
    y = e^(-2u) with Ptolemy coefficients (the wall certificate).
    """
    return _quad_margins(_positive(sides)).min(-1, initial=math.inf)


def flip_length(tri: Triangulation, lengths, e):
    """Length of the opposite diagonal of edge ``e``'s two-face quad.

    Lays the two faces out flat on either side of ``e`` and measures the
    distance between the far corners; the law-of-cosines form below is
    that distance, taken on the quad's lengths divided by its longest
    side so that no square overflows or underflows.  Requires finite sides,
    both faces nondegenerate and the quad convex at the shared diagonal.
    A quad that is not strictly convex has a Delaunay diagonal (at a flat
    corner i the angles facing ij sum to pi minus the corner sum at j), so
    the flips that restore Delaunay never fail here.  ``e`` may be an array
    of edge ids, giving an array of lengths; errors name the first edge at
    fault.  ``lengths`` may be a metric array or a list.
    """
    es = np.array(e, dtype=np.intp, ndmin=1)
    # row x: side lengths (ij, jk, ki) of f1 and (ij, il, lj) of f2
    sides = side_lengths(tri, lengths, es)
    if not (finite := np.isfinite(sides).all(axis=(1, 2))).all():  # an overflowed scaling
        raise NonFiniteValue(f"quad of edge {es[~finite][0]} has a side of length inf")
    m = max3(sides)
    flat = m >= (sides[..., 0] + sides[..., 1] + sides[..., 2]) - m
    if flat.any():
        x, side = np.argwhere(flat)[0]
        raise DegenerateFace(
            f"face {tri.edge_sides[es[x], side] // 3} at edge {es[x]} is degenerate")
    theta = np.arccos(opposite_cosines(sides))
    # corner sums at i (facing jk in f1, lj in f2) and at j (facing ki, il)
    at = theta[:, 0, 1:] + theta[:, 1, :0:-1]
    reflex = at >= math.pi
    if reflex.any():
        x = np.flatnonzero(reflex.any(axis=1))[0]
        raise NonConvexQuad(
            f"quad of edge {es[x]} is reflex (corner sums {at[x, 0]:.6f}, {at[x, 1]:.6f})")
    scale = np.maximum(m[:, 0], m[:, 1])
    l_ki, l_il = sides[:, 0, 2] / scale, sides[:, 1, 1] / scale
    new = scale * np.sqrt(np.maximum(0.0, l_ki * l_ki + l_il * l_il
                                     - 2.0 * l_ki * l_il * np.cos(at[:, 0])))
    return float(new[0]) if np.ndim(e) == 0 else new


def make_delaunay(tri: Triangulation, lengths: np.ndarray
                  ) -> tuple[Triangulation, np.ndarray, Flips]:
    """Flip edges until every edge passes the Delaunay test.

    Works in rounds.  A round takes the violators from one
    :func:`is_delaunay` call on every edge (the verdict of ``delaunay
    --check``) and keeps each one that is the most violated edge at both
    of its faces: smallest angle margin pi - alpha - beta, ties to the
    smaller edge id.  Those quads share no face, and a flip reads and
    writes only its own two faces and diagonal, so they all flip at once,
    in one :func:`flip_length` and one :meth:`Triangulation.flip` call.
    Away from cocircular ties the Delaunay triangulation is unique, so
    the result does not depend on the order of the flips.  The output
    metric is isometric to the input (same deficit at every vertex).  All
    input faces must be nondegenerate.

    Returns the triangulation, the metric and one :class:`Flips` record:
    the rounds' records joined in order (empty when nothing flipped).
    """
    L = np.array(lengths, dtype=float)
    cap = FLIP_CAP_FACTOR * tri.edge_count ** 2
    rounds: list[Flips] = []
    flipped = 0
    while (es := np.flatnonzero(~is_delaunay(tri, L))).size:
        if flipped >= cap:
            raise FlipLimitExceeded(
                f"{flipped} flips without reaching a Delaunay state")
        if len(es) > 1:
            # by angle, not cosine sum: the flip order the outputs have had
            theta = np.arccos(opposite_cosines(side_lengths(tri, L, es))[..., 0])
            margins = math.pi - theta[:, 0] - theta[:, 1]
            rank = np.empty_like(es)
            rank[np.argsort(margins, kind="stable")] = np.arange(len(es))
            faces = tri.edge_sides[es] // 3
            best = np.full(tri.face_count, len(es))
            np.minimum.at(best, faces, rank[:, None])
            es = es[(best[faces] == rank[:, None]).all(axis=1)]
        new = flip_length(tri, L, es)
        tri, flips = tri.flip(es, L[es], new)
        L[es] = new
        rounds.append(flips)
        flipped += len(es)
    if rounds:
        log.debug("make_delaunay performed %d flips in %d rounds", flipped, len(rounds))
    return tri, L, Flips.join(rounds)


def delaunay_surgery(tri: Triangulation, base: np.ndarray, u: np.ndarray
                     ) -> tuple[Triangulation, np.ndarray, Flips]:
    """make_delaunay in the metric scaled by ``u``, transporting base lengths.

    The conformal factors stay attached to vertices, so a flipped-in edge
    {k, l} gets the base length flip_length / exp(u_k + u_l); surviving
    edges keep their base length bit for bit.
    """
    u = np.asarray(u, dtype=float)
    tri2, scaled2, flips = make_delaunay(tri, scale_metric(tri, base, u))
    if not flips:
        return tri, base, flips
    es = flips.edge
    ends = tri2.edge_verts[es]
    base2 = np.array(base, dtype=float)
    base2[es] = scaled2[es] * np.exp(-(u[ends[:, 0]] + u[ends[:, 1]]))
    return tri2, base2, flips
