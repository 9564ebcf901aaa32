"""Shared mesh fixtures: small closed surfaces used across the test suite."""

import json
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import settings

from plcurv import geometry, mesh, solver
from plcurv.errors import (
    Disconnected,
    FlipLimitExceeded,
    LogFactorOverflow,
    NonManifold,
    NonPositiveLength,
    OrientationConflict,
)
from plcurv.mesh import build_triangulation

# Every run draws the same examples, so a property cannot pass at one
# commit and fail at the next with no code change; a failing property
# prints the blob that reproduces it; each test keeps its own max_examples.
settings.register_profile("plcurv", print_blob=True, derandomize=True)
settings.load_profile("plcurv")

# Oriented tetrahedron boundary.
TETRA_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]

# Two-triangle sphere: the doubled triangle.
SPHERE2_FACES = [(0, 1, 2), (0, 2, 1)]


def lattice_torus_faces(m):
    """Flat m x m grid torus on the triangular lattice, 2*m*m faces.

    Cell (r, c) has corners P=(r,c) Q=(r,c+1) R=(r+1,c+1) S=(r+1,c) and is
    split along Q-S, which keeps all 3*m*m edges unit length on the
    lattice spanned by (1,0) and (1/2, sqrt(3)/2).
    """
    def v(r, c):
        return m * (r % m) + (c % m)

    faces = []
    for r in range(m):
        for c in range(m):
            p, q = v(r, c), v(r, c + 1)
            rr, s = v(r + 1, c + 1), v(r + 1, c)
            faces.append((p, q, s))
            faces.append((q, rr, s))
    return faces


def torus9_faces():
    """The 3x3 lattice torus: 9 vertices, 27 edges, 18 faces."""
    return lattice_torus_faces(3)


CUBE_QUADS = [
    (0, 2, 3, 1),  # z = 0
    (4, 5, 7, 6),  # z = 1
    (0, 1, 5, 4),  # y = 0
    (2, 6, 7, 3),  # y = 1
    (1, 3, 7, 5),  # x = 1
    (0, 4, 6, 2),  # x = 0
]

CUBE_COORDS = [(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)]


def cube12_faces():
    faces = []
    for a, b, c, d in CUBE_QUADS:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return faces


def cube_off_text():
    lines = ["OFF", "8 12 18"]
    for x, y, z in CUBE_COORDS:
        lines.append(f"{x} {y} {z}")
    for f in cube12_faces():
        lines.append("3 " + " ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"


# Genus-2 surface, 7 vertices / 27 edges / 18 faces, chi = -2.  It is the
# quotient of a 16-gon: an octagon with boundary word a b c d a- b- c- d-
# (all eight corners land on vertex 0) and a midpoint vertex on each
# identified side pair (1..4), triangulated by two interior vertices 5, 6.
# Doubled edges make the half-edge pairing of a raw face list ambiguous,
# so the order below is arranged to make the first-come pairing reproduce
# the intended gluing; do not reshuffle it.
GENUS2_FACES = [
    (5, 0, 1), (6, 0, 1), (5, 0, 2), (6, 0, 2),
    (5, 0, 3), (6, 0, 3), (5, 0, 4), (6, 0, 4),
    (5, 6, 0), (6, 5, 0),
    (6, 1, 0), (5, 1, 0), (6, 2, 0), (5, 2, 0),
    (6, 3, 0), (5, 3, 0), (6, 4, 0), (5, 4, 0),
]


def flat_torus_document(m, a, b):
    """Lengths document of the flat m x m torus on the lattice spanned by a, b.

    Faces are those of lattice_torus_faces(m); vertex (r, c) sits at
    c*a + r*b, and each side is measured between its corners' positions
    in the covering plane.  a = (1, 0), b = (0, 1) gives right isosceles
    faces, cocircular across every diagonal; a long, flat b gives slivers.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    faces, records = lattice_torus_faces(m), []
    for f, face in enumerate(faces):
        r, c = divmod(f // 2, m)
        cells = ([(r, c), (r, c + 1), (r + 1, c)] if f % 2 == 0
                 else [(r, c + 1), (r + 1, c + 1), (r + 1, c)])
        pts = [cc * a + rr * b for rr, cc in cells]
        for s in range(3):
            records.append({"face": f, "opposite": face[(s + 2) % 3],
                            "length": float(np.linalg.norm(pts[(s + 1) % 3] - pts[s]))})
    return {"vertices": m * m, "faces": [list(t) for t in faces], "lengths": records}


def unit_lengths(tri):
    return np.ones(tri.edge_count)


def random_lattice_torus(m, spread=0.25, seed=0):
    """The m x m lattice torus with lengths e^U(-spread, spread), drawn again
    until no face is degenerate."""
    tri = build_triangulation(lattice_torus_faces(m))
    rng = np.random.default_rng(seed)
    while geometry.degenerate_faces(
            tri, base := np.exp(rng.uniform(-spread, spread, tri.edge_count))):
        pass
    return tri, base


@pytest.fixture
def tetra():
    return build_triangulation(TETRA_FACES)


@pytest.fixture
def torus9():
    return build_triangulation(torus9_faces())


@pytest.fixture
def lattice_torus_lengths(torus9):
    return unit_lengths(torus9)


@pytest.fixture
def cube12():
    """Cube triangulation together with its coordinate edge lengths."""
    tri = build_triangulation(cube12_faces())
    return tri, cube_lengths(tri)


def cube_lengths(tri):
    return np.array([math.dist(*(CUBE_COORDS[v] for v in tri.edge_vertices(e)))
                     for e in range(tri.edge_count)])


@pytest.fixture
def genus2():
    return build_triangulation(GENUS2_FACES)


def random_lengths(tri, rng, spread=0.4):
    """Independent log-uniform lengths; faces may legitimately degenerate."""
    return np.array([math.exp(rng.uniform(-spread, spread)) for _ in range(tri.edge_count)])


def all_fixture_meshes():
    """The four standing meshes with their natural base lengths."""
    out = []
    for name, faces in [("tetra", TETRA_FACES), ("torus9", torus9_faces()),
                        ("cube12", cube12_faces()), ("genus2", GENUS2_FACES)]:
        tri = build_triangulation(faces)
        lens = cube_lengths(tri) if name == "cube12" else unit_lengths(tri)
        out.append((name, tri, lens))
    return out


# --- scalar angle oracles -------------------------------------------------
#
# One triangle or one edge at a time, in plain floats: the references the
# array kernel and the cot-weight Laplacian are tested against.

def _cos_opposite(a, b, c):
    """Clamped cosine of the angle facing ``a`` in triangle (a, b, c)."""
    m = max(a, b, c)
    a, b, c = a / m, b / m, c / m
    num = b * b + c * c - a * a
    den = 2.0 * b * c
    if den == 0.0:
        return math.copysign(1.0, num) if num else 0.0
    return min(1.0, max(-1.0, num / den))


def triangle_angles(l_i, l_j, l_k):
    """Angles of the triangle with side lengths (l_i, l_j, l_k); theta_i faces l_i.

    Past a triangle-inequality failure the longest side faces pi and the
    other two face 0, so the angles always sum to pi.
    """
    for x in (l_i, l_j, l_k):
        if not x > 0.0:
            raise NonPositiveLength(f"edge length {x!r} is not positive")
    return (math.acos(_cos_opposite(l_i, l_j, l_k)),
            math.acos(_cos_opposite(l_j, l_k, l_i)),
            math.acos(_cos_opposite(l_k, l_i, l_j)))


def cot_weight(tri, lengths, e):
    """Sum of the cotangents of the two angles facing edge ``e``; a degenerate
    face contributes +/-COT_CLAMP (cot 0 and cot pi)."""
    total = 0.0
    for corner in tri.edge_sides[e].tolist():
        f, s = divmod(corner, 3)
        fe = tri.face_edges[f].tolist()
        c = _cos_opposite(lengths[fe[s]], lengths[fe[(s + 1) % 3]], lengths[fe[(s + 2) % 3]])
        sin = math.sqrt(max(0.0, 1.0 - c * c))
        if sin == 0.0:
            total += geometry.COT_CLAMP if c > 0.0 else -geometry.COT_CLAMP
        else:
            total += c / sin
    return total


def edge_margin_reference(tri, lengths, e):
    """cos alpha + cos beta for edge ``e`` in plain floats, alpha and beta
    the angles facing it."""
    total = 0.0
    for corner in tri.edge_sides[e].tolist():
        f, s = divmod(corner, 3)
        fe = tri.face_edges[f].tolist()
        a, b, c = (lengths[fe[(s + k) % 3]] for k in range(3))
        for x in (a, b, c):
            if not x > 0.0:
                raise NonPositiveLength(f"edge length {x!r} is not positive")
        total += _cos_opposite(a, b, c)
    return total


def is_delaunay_reference(tri, lengths, e):
    """The Delaunay verdict on one edge in plain floats.

    geometry.is_delaunay, asked about many edges at once, must give each
    the same bool.
    """
    return edge_margin_reference(tri, lengths, e) >= -geometry.DELAUNAY_SLACK


def flip_with_length(tri, lengths, e):
    """Flip edge ``e`` and put the new diagonal's length in slot ``e`` of a copy.

    Returns the triangulation and the lengths.
    """
    lengths2 = np.array(lengths, dtype=float)
    lengths2[e] = geometry.flip_length(tri, lengths, e)
    return tri.flip(e), lengths2


def quad_rim(tri, e):
    """The rim edges (jk, ki, il, lj) of edge ``e``'s quad, read before a flip."""
    return tri.face_edges.reshape(-1)[tri.quad_corners(e)][:, 1:].reshape(-1).tolist()


def vertex_degree(tri, v):
    """Number of corners at vertex ``v``."""
    return int(np.count_nonzero(tri.faces == v))


# --- dict-based oracle for the gluing ------------------------------------------
#
# Production glues half-edges with one lexsort and checks vertex links by
# counting corner cycles on arrays.  This is the reference: half-edges
# grouped in a dict, each vertex link walked corner by corner, faces
# reached by a depth-first search.

def glue_reference(faces, vertex_count, slot_ids=None):
    """(face_edges, edge_sides, edge_verts) of build_triangulation, built in dicts.

    ``faces`` are triples of distinct vertices and ``slot_ids`` (F, 3)
    edge ids by face and slot, or None.  Sides are corner positions
    3 * face + slot.  Raises what build_triangulation raises.
    """
    faces = [tuple(t) for t in faces]
    groups = {}
    for f, tri in enumerate(faces):
        for s in range(3):
            a, b = tri[s], tri[(s + 1) % 3]
            pair = (min(a, b), max(a, b))
            key = pair if slot_ids is None else (slot_ids[f][s], pair)
            groups.setdefault(key, ([], []))[a > b].append((f, s))
    edge_sides = []
    for key in sorted(groups):
        fwd, rev = groups[key]
        if len(fwd) != len(rev):
            if (len(fwd) + len(rev)) % 2 == 0:
                raise OrientationConflict(f"half-edges of {key} cannot be matched")
            raise NonManifold(f"edge {key} is incident to {len(fwd) + len(rev)} half-edges")
        edge_sides.extend(zip(fwd, rev))
    face_edges = [[0, 0, 0] for _ in faces]
    other = {}
    for e, (a, b) in enumerate(edge_sides):
        face_edges[a[0]][a[1]] = face_edges[b[0]][b[1]] = e
        other[a], other[b] = b, a

    corners = [[] for _ in range(vertex_count)]
    for f, tri in enumerate(faces):
        for c in range(3):
            corners[tri[c]].append((f, c))
    for v in range(vertex_count):
        if not corners[v]:
            raise Disconnected(f"vertex {v} has no incident face")
        start = f, c = corners[v][0]
        reached = 0
        while True:
            reached += 1
            f, s = other[f, c]
            c = (s + 1) % 3
            if (f, c) == start:
                break
        if reached != len(corners[v]):
            raise NonManifold(f"vertex {v} is pinched")

    if not faces:
        raise Disconnected("empty face list")
    seen, stack = {0}, [0]
    while stack:
        f = stack.pop()
        for s in range(3):
            g = other[f, s][0]
            if g not in seen:
                seen.add(g)
                stack.append(g)
    if len(seen) != len(faces):
        raise Disconnected(f"only {len(seen)} of {len(faces)} faces reachable")

    edge_verts = [(faces[f][s], faces[f][(s + 1) % 3]) for (f, s), _ in edge_sides]
    sides = [[3 * f + s for f, s in pair] for pair in edge_sides]
    return (np.array(face_edges).reshape(-1, 3), np.array(sides).reshape(-1, 2),
            np.array(edge_verts).reshape(-1, 2))


# --- quadrature oracle for the curvature energy ----------------------------
#
# Production evaluates the per-face energy in closed form (Lobachevsky
# terms).  This is the independent reference: the defining line integral
# of the extended angles, by adaptive 64-node Gauss-Legendre quadrature.

QUADRATURE_TOL = 1e-10

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _angles_from_log_lengths(lam):
    """Extended angles, angle a opposite side a; lam has shape (3, n)."""
    ell = np.exp(lam - lam.max(axis=0))
    cos = np.empty_like(ell)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        cos[a] = (ell[b] ** 2 + ell[c] ** 2 - ell[a] ** 2) / (2.0 * ell[b] * ell[c])
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _gl_panel(fn, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(_GL_WEIGHTS, fn(mid + half * _GL_NODES)))


def _gl_adaptive(fn, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = _gl_panel(fn, a, mid)
    right = _gl_panel(fn, mid, b)
    if abs(left + right - whole) <= tol or depth >= 24:
        return left + right
    return (_gl_adaptive(fn, a, mid, left, 0.5 * tol, depth + 1)
            + _gl_adaptive(fn, mid, b, right, 0.5 * tol, depth + 1))


def triangle_energy_quadrature(base, u, u0, tol=QUADRATURE_TOL):
    """triangle_energy for one face (shape (3,) arguments) by quadrature."""
    base, u, u0 = (np.asarray(x, dtype=float) for x in (base, u, u0))
    du = u - u0
    if not np.any(du):
        return 0.0

    def integrand(s):
        v = u0[:, None] + s[None, :] * du[:, None]
        lam = np.empty_like(v)
        for a in range(3):
            lam[a] = v[(a + 1) % 3] + v[(a + 2) % 3] + math.log(base[a])
        return du @ _angles_from_log_lengths(lam)

    whole = _gl_panel(integrand, 0.0, 1.0)
    return _gl_adaptive(integrand, 0.0, 1.0, whole, tol, 0)


def energy_value_quadrature(tri, base, u, u_ref, alpha, rbar):
    """E(u) - E(u_ref) of energy_W_alpha, faces integrated by quadrature."""
    faces = 0.0
    for f in range(tri.face_count):
        e0, e1, e2 = tri.face_edges[f]
        idx = list(tri.faces[f])
        faces += triangle_energy_quadrature(
            [base[e1], base[e2], base[e0]], u[idx], u_ref[idx])
    if alpha == 0.0:
        vertex = np.sum((2 * math.pi - rbar) * (u - u_ref))
    else:
        vertex = np.sum(2 * math.pi * (u - u_ref)
                        - rbar * (np.exp(alpha * u) - np.exp(alpha * u_ref)) / alpha)
    return float(vertex) - faces


# --- point-by-point oracle for the wall search --------------------------------
#
# Production scores all panels, and several bisection levels, per kernel
# call on stacks of probe points, each scoring only the quads its
# certificate leaves.  This is the reference it must reproduce: one
# scale_metric and one whole-mesh edge_margins per probe point, with a
# NaN margin a wall (as is_delaunay reads it).

def first_wall_reference(tri, base, u, delta):
    """solver._first_wall probing one point of the segment at a time."""

    def wall(s):
        try:
            scaled = geometry.scale_metric(tri, base, u + s * delta)
        except LogFactorOverflow:
            return True
        return not geometry.edge_margins(tri, scaled).min() >= solver._WALL_MARGIN

    lo, hi = 0.0, None
    for k in range(1, solver._WALL_PANELS + 1):
        s = k / solver._WALL_PANELS
        if wall(s):
            hi = s
            break
        lo = s
    if hi is None:
        return 1.0, False
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if wall(mid):
            hi = mid
        else:
            lo = mid
    return hi, True


# --- Ptolemy oracle for chart transport -------------------------------------------
#
# Production carries the chart along a segment wall by wall, flipping each
# edge where it turns cocircular.  Flipped by Ptolemy's formula, in which
# vertex scaling cancels, a base length is the same at every u, so the chart
# reached at u does not depend on the route (Penner coordinates): this pass
# flips at u alone, one edge at a time, and the walk must reach its chart.

def ptolemy_pass_reference(tri, base, u):
    """The Delaunay chart at u reached from (tri, base) by Ptolemy flips.

    Flips the edge whose formal cosine sum (A^2+B^2-E^2)/(2AB) +
    (C^2+D^2-E^2)/(2CD) over the scaled sides of its quad is the most
    negative, until none is below -DELAUNAY_SLACK; the sum is defined on
    degenerate faces too.  The new diagonal kl is (AC + BD)/E scaled, and
    that times e^-(u_k + u_l) in base.  Returns the triangulation and its
    base lengths.
    """
    base, u = np.array(base, dtype=float), np.asarray(u, dtype=float)
    for _ in range(geometry.FLIP_CAP_FACTOR * tri.edge_count ** 2):
        corners = tri.quad_corners(slice(None))  # (E, 2, 3): (i, j, k), (j, i, l)
        q = geometry.scale_metric(tri, base, u)[tri.face_edges.reshape(-1)[corners]]
        E, A, B, C, D = q[:, 0, 0], q[:, 0, 1], q[:, 0, 2], q[:, 1, 1], q[:, 1, 2]
        sums = (A * A + B * B - E * E) / (2 * A * B) + (C * C + D * D - E * E) / (2 * C * D)
        e = int(np.argmin(sums))
        if sums[e] >= -geometry.DELAUNAY_SLACK:
            return tri, base
        k, l = tri.faces.reshape(-1)[corners[e, :, 2]].tolist()
        base[e] = (A[e] * C[e] + B[e] * D[e]) / E[e] * math.exp(-(u[k] + u[l]))
        tri = tri.flip(e)
    raise FlipLimitExceeded(f"{geometry.FLIP_CAP_FACTOR * tri.edge_count ** 2} flips")


def chart_faces(tri, base, u):
    """Each face's (vertex cycle, scaled sides), read from its least rotation, sorted:
    two charts are the same when these agree, whatever their edge ids."""
    L = geometry.scale_metric(tri, base, u)
    out = []
    for verts, edges in zip(tri.faces.tolist(), tri.face_edges.tolist()):
        r = min(range(3), key=lambda r: verts[r:] + verts[:r])
        out.append((verts[r:] + verts[:r], [float(L[x]) for x in edges[r:] + edges[:r]]))
    return sorted(out)


# --- one-flip-at-a-time oracle for the Delaunay pass ---------------------------
#
# Production flips in rounds, many face-disjoint edges per array call.
# This FIFO loop flips one edge at a time, every queued edge asking the
# scalar is_delaunay_reference; the rounds must reach its faces and
# curvature.

def repeats_vertex(tri):
    """True when a face repeats a vertex: a flip whose two faces share all
    three vertices makes two such faces and a loop edge."""
    return bool((tri.faces == tri.faces[:, [1, 2, 0]]).any())


def make_delaunay_reference(tri, lengths):
    """A Delaunay pass flipping one queued edge at a time.

    Returns the triangulation, the lengths and the flipped edge ids.
    """
    cap = geometry.FLIP_CAP_FACTOR * tri.edge_count ** 2
    L = np.asarray(lengths, dtype=float).tolist()
    queue = deque(range(tri.edge_count))
    flips = []
    while queue:
        e = queue.popleft()
        if is_delaunay_reference(tri, L, e):
            continue
        if len(flips) >= cap:
            raise FlipLimitExceeded(f"{len(flips)} flips")
        queue.extend(quad_rim(tri, e))
        L[e] = geometry.flip_length(tri, L, e)
        tri = tri.flip(e)
        flips.append(e)
    return tri, np.array(L), np.array(flips, dtype=np.intp)


# --- recursive oracle for the JSON writer ---------------------------------------
#
# Production fills one template per list of numbers and writes the lengths
# document from its arrays.  The reference makes one recursive call per value.

def json_text_reference(obj, _indent=0):
    """mesh.json_text one value at a time: floats with 17 significant digits."""
    pad = "  " * _indent
    inner = "  " * (_indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {json_text_reference(v, _indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [inner + json_text_reference(v, _indent + 1) for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return format(x, ".17g")
    return json.dumps(obj)


def lengths_doc(tri, lengths):
    """The lengths document that mesh.lengths_json_text writes, parsed back."""
    return json.loads(mesh.lengths_json_text(tri, lengths))
