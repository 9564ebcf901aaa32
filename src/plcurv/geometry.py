"""Metric geometry on triangulated surfaces.

Everything here is a pure function of a Triangulation plus a metric: a
float array of positive edge lengths indexed by edge id.  Provided:
corner angles with a constant extension past triangle-inequality
failure, conformal vertex scaling of the metric, angle-deficit curvature
and its weighted variants, cotangent edge weights, the curvature
Jacobian, a weighted graph Laplacian, the Delaunay edge predicate, and
intrinsic edge flips that transport lengths.

Whole-mesh queries share one NumPy kernel over the triangulation's
cached index arrays; the kernel also scores stacks of edge-length
arrays.  Single-edge queries stay scalar, for the flip loop; the Delaunay
pass and check ask them only about edges a kernel screen cannot clear.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import (
    DegenerateFace,
    FlipLimitExceeded,
    LogFactorOverflow,
    NonConvexQuad,
    NonPositiveLength,
    PredicateConflict,
)
from .mesh import FlipInfo, Triangulation

log = logging.getLogger(__name__)

# Inclusive slack on the Delaunay angle test; cocircular edges (opposite
# angles summing to exactly pi) must not be flipped or the flip loop can
# cycle forever.
DELAUNAY_SLACK = 1e-12

# Substitute for cot(0) / -cot(pi) on degenerate faces: large enough to be
# numerically loud, small enough not to overflow products.
COT_CLAMP = 1e12

# Log conformal factors beyond this make exp() meaningless in float64.
LOG_FACTOR_BOUND = 300.0

# Safety factor for the flip loop: terminates mathematically, the cap only
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


def _check_positive(*lengths: float) -> None:
    for x in lengths:
        if not x > 0.0:
            raise NonPositiveLength(f"edge length {x!r} is not positive")


def _cos_opposite(a: float, b: float, c: float) -> float:
    """Clamped cosine of the angle opposite ``a`` in triangle (a, b, c).

    The clamp is the whole degeneracy story: when one length reaches the
    sum of the others the raw ratio leaves [-1, 1] and clamping pins the
    angles at exactly (pi, 0, 0), which is the continuous extension.
    Lengths are normalized first so their squares cannot overflow.
    """
    m = max(a, b, c)
    a, b, c = a / m, b / m, c / m
    num = b * b + c * c - a * a
    den = 2.0 * b * c
    if den == 0.0:
        # b*c underflowed, so some side is negligible: only the sign of num
        # survives (0 for a needle face's long side: its limit angle pi/2).
        return math.copysign(1.0, num) if num else 0.0
    return min(1.0, max(-1.0, num / den))


def triangle_angles(l_i: float, l_j: float, l_k: float) -> tuple[float, float, float]:
    """Angles of the triangle with side lengths (l_i, l_j, l_k).

    Angle ``theta_i`` faces side ``l_i``.  For length triples violating a
    triangle inequality the angles are extended constantly: the longest
    side faces pi, the other two face 0.  The three values always sum to
    pi (exactly so in the extended case).
    """
    _check_positive(l_i, l_j, l_k)
    return (math.acos(_cos_opposite(l_i, l_j, l_k)),
            math.acos(_cos_opposite(l_j, l_k, l_i)),
            math.acos(_cos_opposite(l_k, l_i, l_j)))


def side_lengths(tri: Triangulation, lengths: np.ndarray) -> np.ndarray:
    """(..., F, 3) array of every face's edge lengths by slot, faces in id order.

    ``lengths`` is a metric (E,) or a stack of metrics (..., E).
    """
    flat = np.asarray(lengths, dtype=float)
    ok = flat > 0.0
    if not ok.all():
        raise NonPositiveLength(
            f"edge length {float(flat[~ok][0])!r} is not positive")
    return flat[..., tri.arrays.face_edges]


def max3(x: np.ndarray) -> np.ndarray:
    """Maximum over a last axis of length 3.

    Two np.maximum calls, because NumPy reduces a length-3 axis several
    times slower; the values are those of ``x.max(axis=-1)``.
    """
    return np.maximum(np.maximum(x[..., 0], x[..., 1]), x[..., 2])


def opposite_cosines(L: np.ndarray) -> np.ndarray:
    """Clamped cosines of the angles facing each side, sides on the last axis.

    ``L[..., k]`` are positive side lengths; entry k of the result is the
    cosine facing side k, by the same arithmetic as :func:`_cos_opposite`.
    """
    n = L / max3(L)[..., None]
    b, c = n[..., NEXT], n[..., PREV]
    num = b * b + c * c - n * n
    den = 2.0 * b * c
    flat = den == 0.0
    if flat.any():
        den = np.where(flat, 1.0, den)
        num = np.where(flat, np.sign(num), num)
    return np.minimum(np.maximum(num / den, -1.0), 1.0)


def face_angles(tri: Triangulation, lengths: np.ndarray) -> np.ndarray:
    """(..., F, 3) array: entry [f, s] is the angle facing slot s of face f.

    Lengths as for :func:`side_lengths`.  Faces are in id order; the
    angle facing slot s sits at corner (s + 2) % 3.  Extended past
    degeneracy like :func:`triangle_angles`, so every row sums to pi.
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
    self-edge at vertex i (possible in principle, never produced by the
    mesh builder) picks up exp(2 u_i), the consistent specialization.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (tri.vertex_count,):
        raise ValueError(f"expected {tri.vertex_count} log factors, got {u.shape}")
    if not np.abs(u).max(initial=0.0) <= LOG_FACTOR_BOUND:  # True on NaN
        if not np.all(np.isfinite(u)):
            raise LogFactorOverflow("non-finite log conformal factor")
        raise LogFactorOverflow(
            f"|u| exceeds {LOG_FACTOR_BOUND}; metric would overflow")
    ends = tri.arrays.edge_verts
    return np.exp(u[..., ends[:, 0]] + u[..., ends[:, 1]]) * base


def curvature(tri: Triangulation, lengths: np.ndarray) -> np.ndarray:
    """Angle deficit 2*pi minus the incident corner angles, per vertex.

    Degenerate faces contribute their extended angles, so the result is
    total and the deficit sum stays pinned at 2*pi*chi.
    """
    at = tri.arrays.face_verts[:, PREV]
    return TWO_PI - np.bincount(at.ravel(), weights=face_angles(tri, lengths).ravel(),
                                minlength=tri.vertex_count)


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


def _cot_from_cos(c: float) -> float:
    s = math.sqrt(max(0.0, 1.0 - c * c))
    if s == 0.0:
        return COT_CLAMP if c > 0.0 else -COT_CLAMP
    return c / s


def _slot_cos(tri: Triangulation, lengths, face: int, slot: int) -> float:
    fe = tri.face_edges[face]
    a = lengths[fe[slot]]
    b = lengths[fe[(slot + 1) % 3]]
    c = lengths[fe[(slot + 2) % 3]]
    _check_positive(a, b, c)
    return _cos_opposite(a, b, c)


def cot_weight(tri: Triangulation, lengths: np.ndarray, e: int) -> float:
    """Sum of the cotangents of the two angles facing edge ``e``.

    Degenerate faces contribute +/-COT_CLAMP through the extended angles
    (cot 0 and cot pi respectively).
    """
    (f1, s1), (f2, s2) = tri.edge_sides[e]
    return (_cot_from_cos(_slot_cos(tri, lengths, f1, s1))
            + _cot_from_cos(_slot_cos(tri, lengths, f2, s2)))


def _cot_laplacian(tri: Triangulation, lengths: np.ndarray) -> scipy.sparse.csr_matrix:
    """Cot-weight graph Laplacian: -cot_weight off the diagonal, zero row sums.

    Self-edges contribute nothing.  Degenerate faces give clamped weights
    exactly as :func:`cot_weight` does.
    """
    cos = opposite_cosines(side_lengths(tri, lengths)).ravel()
    sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
    cot = np.divide(cos, sin, out=np.where(cos > 0.0, COT_CLAMP, -COT_CLAMP),
                    where=sin != 0.0)
    A = tri.arrays
    real = A.edge_verts[:, 0] != A.edge_verts[:, 1]
    i, j = A.edge_verts[real].T
    w = (cot[A.edge_sides[:, 0]] + cot[A.edge_sides[:, 1]])[real]
    rows = np.stack([i, j, i, j], axis=1).ravel()
    cols = np.stack([j, i, i, j], axis=1).ravel()
    vals = np.stack([-w, -w, w, w], axis=1).ravel()
    n = tri.vertex_count
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def curvature_jacobian(tri: Triangulation, lengths: np.ndarray) -> scipy.sparse.csr_matrix:
    """Derivative of the deficit vector in the log conformal factors.

    Returns a sparse symmetric matrix with zero row sums: off-diagonal
    (i, j) entries are minus the cot weights of the edges joining i and j
    (a finite-difference test pins this scale), the diagonal makes rows
    sum to zero.  Self-edges contribute nothing.  On a Delaunay metric the
    matrix is positive semi-definite with kernel spanned by the constant
    vector.
    """
    bad = degenerate_faces(tri, lengths)
    if bad:
        raise DegenerateFace(f"faces {bad} are degenerate")
    return _cot_laplacian(tri, lengths)


def alpha_laplacian_apply(tri: Triangulation, lengths: np.ndarray,
                          u: np.ndarray, alpha: float, f: np.ndarray) -> np.ndarray:
    """Weighted cotangent Laplacian applied to a vertex function.

    Entry i is exp(-alpha*u_i) times the cot-weighted sum of differences
    (f_j - f_i) over edges at i, i.e. -exp(-alpha*u) * (L @ f) with L the
    curvature Jacobian's Laplacian; self-edges drop out.  ``lengths``
    must already be the scaled metric.  Degenerate faces are allowed
    (clamped cotangents).
    """
    u = np.asarray(u, dtype=float)
    f = np.asarray(f, dtype=float)
    return -np.exp(-alpha * u) * (_cot_laplacian(tri, lengths) @ f)


def is_delaunay(tri: Triangulation, lengths, e: int) -> bool:
    """True when the angles facing edge ``e`` sum to at most pi.

    The test is inclusive with DELAUNAY_SLACK so cocircular edges count
    as Delaunay and are never flipped.  ``lengths`` may be a metric array
    or the same lengths as a list, which the flip loop reads faster.
    """
    (f1, s1), (f2, s2) = tri.edge_sides[e]
    return (math.acos(_slot_cos(tri, lengths, f1, s1))
            + math.acos(_slot_cos(tri, lengths, f2, s2))
            <= math.pi + DELAUNAY_SLACK)


def is_delaunay_all(tri: Triangulation, lengths: np.ndarray) -> list[int]:
    """Edge ids violating the Delaunay condition, in edge id order.

    Kernel screen, then :func:`is_delaunay`: make_delaunay's verdict, bit for bit.
    """
    L = np.asarray(lengths, dtype=float).tolist()
    suspects = np.flatnonzero(~(edge_margins(tri, lengths) > 0.0)).tolist()
    return [e for e in suspects if not is_delaunay(tri, L, e)]


def edge_margins(tri: Triangulation, lengths: np.ndarray) -> np.ndarray:
    """pi - (sum of the angles facing the edge) per edge, stacked as in delaunay_margin.

    A positive margin passes :func:`is_delaunay`: NumPy and scalar angles
    differ by an ulp or so, far inside DELAUNAY_SLACK.
    """
    theta = face_angles(tri, lengths)
    theta = theta.reshape(theta.shape[:-2] + (3 * theta.shape[-2],))
    sides = tri.arrays.edge_sides
    return math.pi - theta[..., sides[:, 0]] - theta[..., sides[:, 1]]


def delaunay_margin(tri: Triangulation, lengths: np.ndarray):
    """Smallest pi - (sum of opposite angles) over all edges.

    Positive means strictly Delaunay everywhere, zero a cocircular edge,
    negative a violation.  Used by the solver to stop steps just short of
    a flip so surgery happens at (numerically) cocircular configurations.
    A metric (E,) gives a float, a stack (..., E) an array (...) with the
    minimum of each metric.
    """
    return edge_margins(tri, lengths).min(-1)


def flip_length(tri: Triangulation, lengths, e: int) -> float:
    """Length of the opposite diagonal of edge ``e``'s two-face quad.

    Lays the two faces out flat on either side of ``e`` and measures the
    distance between the far corners; the law-of-cosines form below is
    that distance.  Requires both faces nondegenerate and the quad convex
    at the shared diagonal.  A non-Delaunay edge always has a strictly
    convex quad, so the flip needed to restore Delaunay never fails here;
    should rounding make the two tests disagree, PredicateConflict says so.
    Lengths as for :func:`is_delaunay`.
    """
    (f1, s1), (f2, s2) = tri.edge_sides[e]
    fe1, fe2 = tri.face_edges[f1], tri.face_edges[f2]
    for f, fe in ((f1, fe1), (f2, fe2)):
        a, b, c = lengths[fe[0]], lengths[fe[1]], lengths[fe[2]]
        _check_positive(a, b, c)
        m = max(a, b, c)
        if m >= (a + b + c) - m:
            raise DegenerateFace(f"face {f} at edge {e} is degenerate")
    # f1 = (i, j, k) with e in slot s1; f2 = (j, i, l) with e in slot s2
    l_ij = lengths[e]
    l_jk = lengths[fe1[(s1 + 1) % 3]]
    l_ki = lengths[fe1[(s1 + 2) % 3]]
    l_il = lengths[fe2[(s2 + 1) % 3]]
    l_lj = lengths[fe2[(s2 + 2) % 3]]

    at_i = (math.acos(_cos_opposite(l_jk, l_ki, l_ij))
            + math.acos(_cos_opposite(l_lj, l_ij, l_il)))
    at_j = (math.acos(_cos_opposite(l_ki, l_ij, l_jk))
            + math.acos(_cos_opposite(l_il, l_lj, l_ij)))
    if at_i >= math.pi or at_j >= math.pi:
        if not is_delaunay(tri, lengths, e):
            raise PredicateConflict(
                f"edge {e} is non-Delaunay but its quad is reflex")
        raise NonConvexQuad(
            f"quad of edge {e} is reflex (corner sums {at_i:.6f}, {at_j:.6f})")
    return math.sqrt(max(0.0, l_ki * l_ki + l_il * l_il
                         - 2.0 * l_ki * l_il * math.cos(at_i)))


def flip_with_length(tri: Triangulation, lengths: np.ndarray,
                     e: int) -> tuple[Triangulation, np.ndarray, FlipInfo]:
    """Flip edge ``e`` and transport the metric; FlipInfo gets both lengths.

    The new diagonal's length goes into slot ``e`` of a copy of ``lengths``.
    """
    new_len = flip_length(tri, lengths, e)
    tri2, info = tri.flip(e, float(lengths[e]), new_len)
    lengths2 = np.array(lengths, dtype=float)
    lengths2[e] = new_len
    return tri2, lengths2, info


def make_delaunay(tri: Triangulation, lengths: np.ndarray
                  ) -> tuple[Triangulation, np.ndarray, list[FlipInfo]]:
    """Flip edges until every edge passes the Delaunay test.

    FIFO queue seeded with all edges; each flip re-enqueues the four rim
    edges of its quad.  The output metric is isometric to the input (same
    deficit at every vertex).  All input faces must be nondegenerate.
    The loop reads and rewrites the lengths as a list, in place.
    A kernel screen skips edges of positive margin that no flip touched (they
    pass :func:`is_delaunay`); the output carries the input's index arrays.
    """
    start = tri
    cap = FLIP_CAP_FACTOR * tri.edge_count ** 2
    cleared = (edge_margins(tri, lengths) > 0.0).tolist()  # False on NaN
    L = np.asarray(lengths, dtype=float).tolist()
    queue = deque(tri.edge_ids())
    flips: list[FlipInfo] = []
    while queue:
        e = queue.popleft()
        if cleared[e] or is_delaunay(tri, L, e):
            continue
        if len(flips) >= cap:
            raise FlipLimitExceeded(
                f"{len(flips)} flips without reaching a Delaunay state")
        new_len = flip_length(tri, L, e)
        tri, info = tri.flip(e, L[e], new_len)
        L[e] = new_len
        flips.append(info)
        queue.extend(info.rim)
        for x in info.rim:
            cleared[x] = False
    if flips:
        tri.carry_arrays(start, flips)
        log.debug("make_delaunay performed %d flips", len(flips))
    return tri, np.array(L), flips


def delaunay_surgery(tri: Triangulation, base: np.ndarray, u: np.ndarray
                     ) -> tuple[Triangulation, np.ndarray, list[FlipInfo]]:
    """make_delaunay in the metric scaled by ``u``, transporting base lengths.

    The conformal factors stay attached to vertices, so a flipped-in edge
    {k, l} gets the base length flip_length / exp(u_k + u_l); surviving
    edges keep their base length bit for bit.
    """
    u = np.asarray(u, dtype=float)
    tri2, scaled2, flips = make_delaunay(tri, scale_metric(tri, base, u))
    if not flips:
        return tri, base, flips
    base2 = np.array(base, dtype=float)
    for e in {info.edge for info in flips}:
        a, b = tri2.edge_vertices(e)
        base2[e] = scaled2[e] * math.exp(-(u[a] + u[b]))
    return tri2, base2, flips
