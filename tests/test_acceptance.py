"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single verdict line (with the tolerance it enforces)
before asserting, so a verbose run reads as a checklist.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.integrate

from conftest import (
    TETRA_FACES,
    all_fixture_meshes,
    flip_with_length,
    random_lengths,
    torus9_faces,
    triangle_angles,
    unit_lengths,
)

from plcurv import flows, geometry, mesh, solver
from plcurv.errors import (
    DegenerateFace,
    NonConvexQuad,
)
from plcurv.mesh import build_triangulation

from test_cli import SURGERY_GAP

TWO_PI = 2.0 * math.pi


def verdict(num: int, ok: bool, text: str) -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def tetra_mesh():
    tri = build_triangulation(TETRA_FACES)
    return tri, unit_lengths(tri)


def torus_mesh():
    tri = build_triangulation(torus9_faces())
    return tri, unit_lengths(tri)


# --- criterion 1: Gauss-Bonnet on random metrics ---------------------------

def test_c01_gauss_bonnet_random_metrics():
    t0 = time.perf_counter()
    worst = 0.0
    for name, tri, _ in all_fixture_meshes():
        rng = np.random.default_rng(101)
        bound = 1e-9 * tri.face_count
        for _ in range(50):
            lens = random_lengths(tri, rng, spread=0.4)
            resid = abs(float(np.sum(geometry.curvature(tri, lens)))
                        - TWO_PI * tri.chi)
            worst = max(worst, resid / tri.face_count)
            assert resid < bound, (name, resid)
    elapsed = time.perf_counter() - t0
    verdict(1, worst < 1e-9 and elapsed < 1.0,
            f"|sum K - 2 pi chi| < 1e-9*|F| on 4 meshes x 50 random metrics "
            f"(worst {worst:.2e} per face, {elapsed:.2f}s < 1s)")


# --- criterion 2: curvature Jacobian against finite differences ------------

def test_c02_jacobian_matches_finite_differences():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for name, tri, base in all_fixture_meshes():
        rng = np.random.default_rng(202)
        n = tri.vertex_count
        done = 0
        while done < 20:
            u = rng.uniform(-0.25, 0.25, n)
            if geometry.degenerate_faces(tri, geometry.scale_metric(tri, base, u)):
                continue
            tri2, base2, _ = geometry.delaunay_surgery(tri, base, u)
            scaled = geometry.scale_metric(tri2, base2, u)
            L = geometry.curvature_jacobian(tri2, scaled)
            fd = np.empty_like(L)
            for j in range(n):
                up, dn = u.copy(), u.copy()
                up[j] += h
                dn[j] -= h
                kp = geometry.curvature(
                    tri2, geometry.scale_metric(tri2, base2, up))
                km = geometry.curvature(
                    tri2, geometry.scale_metric(tri2, base2, dn))
                fd[:, j] = (kp - km) / (2.0 * h)
            rel = float(np.max(np.abs(fd - L)) / np.max(np.abs(L)))
            worst = max(worst, rel)
            assert rel < 1e-6, (name, rel)
            done += 1
    elapsed = time.perf_counter() - t0
    verdict(2, worst < 1e-6 and elapsed < 10.0,
            f"dK/du = J (scale factor 1) vs centered FD at step 1e-5, "
            f"rel < 1e-6 on 20 Delaunay states x 4 meshes "
            f"(worst {worst:.2e}, {elapsed:.2f}s < 10s)")


# --- criterion 3: flips are isometries --------------------------------------

def test_c03_flip_isometry():
    rng = np.random.default_rng(303)
    meshes = all_fixture_meshes()
    worst_k = 0.0
    worst_len = 0.0
    done = 0
    while done < 100:
        _, tri, _ = meshes[int(rng.integers(len(meshes)))]
        lens = random_lengths(tri, rng, spread=0.3)
        if geometry.degenerate_faces(tri, lens):
            continue
        e = int(rng.choice(list(range(tri.edge_count))))
        k0 = geometry.curvature(tri, lens)
        try:
            tri2, lens2 = flip_with_length(tri, lens, e)
            # the new diagonal keeps the id, so flipping e again undoes it
            tri3, lens3 = flip_with_length(tri2, lens2, e)
        except (NonConvexQuad, DegenerateFace):
            continue
        dk = float(np.max(np.abs(geometry.curvature(tri2, lens2) - k0)))
        dlen = abs(lens3[e] - lens[e])
        worst_k = max(worst_k, dk)
        worst_len = max(worst_len, dlen)
        assert dk < 1e-9 and dlen < 1e-9
        done += 1
    verdict(3, worst_k < 1e-9 and worst_len < 1e-9,
            f"100 random flips keep per-vertex K (worst {worst_k:.2e} < 1e-9) "
            f"and restore the diagonal on flip-back "
            f"(worst {worst_len:.2e} < 1e-9)")


# --- criteria 4 and 5 share the same recorded runs --------------------------

@pytest.fixture(scope="module")
def conservation_runs():
    """10 Yamabe and 10 Calabi runs on torus/tetrahedron, alpha*chi <= 0."""
    torus = torus_mesh()
    tetra = tetra_mesh()
    runs = []
    for kind in ("yamabe", "calabi"):
        configs = ([("torus", torus, a, 0.3) for a in (-2, -1, 0, 1, 2)]
                   + [("tetra", tetra, a, 0.2) for a in (-2, -1, 0)]
                   + [("torus", torus, 1, 0.25), ("torus", torus, -1, 0.25)])
        for idx, (name, (tri, base), alpha, spread) in enumerate(configs):
            assert alpha * tri.chi <= 0
            rng = np.random.default_rng(400 + idx)
            u0 = rng.uniform(-spread, spread, tri.vertex_count)
            cfg = flows.FlowConfig(kind=kind, dt=0.1, tol=1e-10,
                                   max_steps=400)
            state, hist = flows.run_flow(tri, base, u0, alpha, cfg)
            runs.append((kind, name, alpha, hist))
    return runs


def test_c04_flow_conservation(conservation_runs):
    worst = 0.0
    rows = 0
    for kind, name, alpha, hist in conservation_runs:
        ref = hist.rows[0].conserved
        for row in hist.rows:
            drift = abs(row.conserved - ref)
            worst = max(worst, drift)
            rows += 1
            assert drift < 1e-9, (kind, name, alpha, row.t, drift)
    verdict(4, worst < 1e-9,
            f"conserved-sum drift < 1e-9 at every row of 10 Yamabe + "
            f"10 Calabi runs ({rows} rows, worst {worst:.2e})")


def test_c05_lyapunov_descent_and_rate_identities(conservation_runs):
    # measured energy slope of one tiny explicit step against both closed
    # dissipation forms, on a perturbed (surgered) torus
    tri, base = torus_mesh()
    rng = np.random.default_rng(505)
    u0 = rng.uniform(-0.2, 0.2, tri.vertex_count)
    tri2, base2, _ = geometry.delaunay_surgery(tri, base, u0)
    dt = 1e-4
    worst_rate = 0.0
    for kind in ("yamabe", "calabi"):
        state = flows.make_state(tri2, base2, u0, alpha=1.0)
        cfg = flows.FlowConfig(kind=kind, dt=dt, tol=1e-14, max_steps=1,
                               surgery=False, integrator="euler")
        scaled = geometry.scale_metric(tri2, base2, u0)
        rep = geometry.alpha_curvature(
            geometry.curvature(tri2, scaled), u0, 1.0, chi=tri2.chi)
        dev = rep.R_alpha - rep.R_av
        if kind == "yamabe":
            expected = -float(np.sum(dev ** 2 * np.exp(1.0 * u0)))
        else:
            L = geometry.curvature_jacobian(tri2, scaled)
            expected = -float(dev @ (L @ dev))
        after = flows.step(state, cfg)
        assert after.last_dt == dt
        measured = (after.w_value - state.w_value) / dt
        rel = abs(measured - expected) / abs(expected)
        worst_rate = max(worst_rate, rel)
        assert rel < 1e-2, (kind, measured, expected)

    # monotone descent along every accepted step of the criterion-4 runs
    worst_rise = -math.inf
    for kind, name, alpha, hist in conservation_runs:
        for prev, cur in zip(hist.rows, hist.rows[1:]):
            slack = 1e-12 * (1.0 + abs(prev.energy))
            worst_rise = max(worst_rise, cur.energy - prev.energy - slack)
            assert cur.energy <= prev.energy + slack, (kind, name, alpha)
    verdict(5, worst_rate < 1e-2 and worst_rise <= 0.0,
            f"dW/dt matches -sum((R_av-R)^2 w^a) and -(R-R_av)'L(R-R_av) "
            f"to rel < 1e-2 at dt=1e-4 (worst {worst_rate:.2e}); W "
            f"non-increasing across all recorded steps")


# --- criterion 6: three routes to the same constant-curvature metric -------

def test_c06_methods_agree_and_rigidity_holds():
    t0 = time.perf_counter()
    torus = torus_mesh()
    tetra = tetra_mesh()
    cases = ([("torus", torus, a, 0.3, 0.2) for a in (-2, 0, 3)]
             + [("tetra", tetra, a, 0.2, 0.1) for a in (-1, -2)])
    worst_dev = 0.0
    worst_gap = 0.0
    for idx, (name, (tri, base), alpha, spread, dt) in enumerate(cases):
        rng = np.random.default_rng(600 + idx)
        u0 = rng.uniform(-spread, spread, tri.vertex_count)
        res = solver.newton_solve(tri, base, u0, alpha,
                                  solver.Target.constant(), tol=1e-12)
        gauge = res.kind == "zero"
        sols = {"newton": res.u}
        devs = {"newton": res.curvature.max_dev}
        for kind in ("yamabe", "calabi"):
            cfg = flows.FlowConfig(kind=kind, dt=dt, tol=1e-9,
                                   max_steps=60000)
            state, hist = flows.run_flow(tri, base, u0, alpha, cfg)
            assert hist.status == "converged", (name, alpha, kind)
            sols[kind] = state.u
            devs[kind] = hist.rows[-1].max_dev
        for method, dev in devs.items():
            worst_dev = max(worst_dev, dev)
            assert dev < 1e-8, (name, alpha, method, dev)
        keys = list(sols)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                ua, ub = sols[keys[a]], sols[keys[b]]
                if gauge:
                    ua = ua - ua.mean()
                    ub = ub - ub.mean()
                gap = float(np.max(np.abs(ua - ub)))
                worst_gap = max(worst_gap, gap)
                assert gap < 1e-6, (name, alpha, keys[a], keys[b], gap)

    rig_zero = solver.rigidity_check(*torus, alpha=2.0,
                                     target=solver.Target.constant(),
                                     trials=5, seed=0)
    rig_neg = solver.rigidity_check(*tetra, alpha=-1.0,
                                    target=solver.Target.constant(),
                                    trials=5, seed=0)
    assert rig_zero.kind == "zero" and rig_zero.passed
    assert rig_neg.kind == "negative" and rig_neg.passed
    elapsed = time.perf_counter() - t0
    verdict(6, worst_dev < 1e-8 and worst_gap < 1e-6 and elapsed < 60.0,
            f"flows + Newton reach max_dev < 1e-8 and agree pairwise to "
            f"1e-6 (worst dev {worst_dev:.2e}, worst gap {worst_gap:.2e}) "
            f"on 5 cases; rigidity passes in both admissibility classes "
            f"({elapsed:.1f}s < 60s)")


# --- criterion 7: exponential decay rate ------------------------------------

def test_c07_exponential_decay_rate():
    t0 = time.perf_counter()
    tri, base = tetra_mesh()
    alpha = -1.0
    rng = np.random.default_rng(707)
    u0 = rng.uniform(-0.1, 0.1, tri.vertex_count)
    scaled = geometry.scale_metric(tri, base, u0)
    rep = geometry.alpha_curvature(geometry.curvature(tri, scaled), u0,
                                   alpha, chi=tri.chi)
    assert np.all(alpha * rep.R_alpha < 0.0), "start must qualify"

    cfg = flows.FlowConfig(kind="yamabe", dt=0.02, tol=1e-11,
                           max_steps=20000, integrator="euler")
    state, hist = flows.run_flow(tri, base, u0, alpha, cfg)
    assert hist.status == "converged"
    final = flows.conserved_sum(state.u, alpha)  # noqa: F841  (run sanity)
    r_av = geometry.alpha_curvature(
        geometry.curvature(state.tri,
                           geometry.scale_metric(state.tri, state.base,
                                                 state.u)),
        state.u, alpha, chi=state.tri.chi).R_av
    slope = flows.exponential_rate_probe(hist, alpha, r_av)
    bound = 0.8 * alpha * r_av
    elapsed = time.perf_counter() - t0
    verdict(7, slope <= bound and elapsed < 10.0,
            f"fitted tail slope {slope:.3f} <= 0.8*alpha*R_av = {bound:.3f} "
            f"on the qualifying start ({elapsed:.2f}s < 10s)")


# --- criterion 8: curvature evolution equations -----------------------------

def test_c08_evolution_equation_residual():
    probes = []
    tri, base = torus_mesh()
    rng = np.random.default_rng(808)
    u0 = rng.uniform(-0.25, 0.25, tri.vertex_count)
    tri2, base2, _ = geometry.delaunay_surgery(tri, base, u0)
    probes.append(("torus", tri2, base2, u0, 0.0))
    tri, base = tetra_mesh()
    rng = np.random.default_rng(809)
    u0 = rng.uniform(-0.15, 0.15, tri.vertex_count)
    probes.append(("tetra", tri, base, u0, -1.0))

    worst = 0.0
    for name, tri_p, base_p, u0, alpha in probes:
        state = flows.make_state(tri_p, base_p, u0, alpha)
        for kind in ("yamabe", "calabi"):
            cfg = flows.FlowConfig(kind=kind, dt=1e-6)
            resid = float(np.max(np.abs(
                flows.curvature_evolution_residual(state, cfg))))
            worst = max(worst, resid)
            assert resid < 1e-4, (name, kind, resid)
    verdict(8, worst < 1e-4,
            f"FD-in-time curvature evolution residual < 1e-4 at dt=1e-6 "
            f"for both flows on both probe states (worst {worst:.2e})")


# --- criterion 9: surgery is necessary, shown through the CLI ---------------

def test_c09_surgery_necessity_cli_pair():
    common = [sys.executable, "-m", "plcurv.cli", "flow", SURGERY_GAP,
              "--flow", "yamabe", "--alpha", "1"]
    off = subprocess.run(common + ["--surgery", "off"],
                         capture_output=True, text=True)
    on = subprocess.run(common + ["--surgery", "on"],
                        capture_output=True, text=True)
    doc = json.loads(on.stdout)
    verdict(9, off.returncode in (4, 5) and on.returncode == 0
            and doc["max_dev"] < 1e-10,
            f"documented input: surgery-off exits {off.returncode} "
            f"(wants 4 or 5), surgery-on exits {on.returncode} with "
            f"max_dev {doc['max_dev']:.2e} < 1e-10 after {doc['flips']} flips")


# --- criterion 10: Lobachevsky values and triangle energy gradient ----------

def test_c10_lobachevsky_and_triangle_energy_gradient():
    worst_unit = max(abs(solver.lobachevsky(x))
                     for x in (0.0, math.pi / 2.0, math.pi))
    oracle, err = scipy.integrate.quad(
        lambda t: -math.log(abs(2.0 * math.sin(t))), 0.0, math.pi / 6.0,
        epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    gap_pi6 = abs(solver.lobachevsky(math.pi / 6.0) - oracle)

    # gradient of the per-triangle energy = (extended) angles, incl. a
    # configuration pushed past degeneracy where the angles clamp to pi,0,0
    h = 1e-6
    worst_grad = 0.0
    cases = [
        (np.array([1.0, 1.0, 1.0]), np.array([0.2, -0.1, 0.05])),
        (np.array([1.2, 0.9, 1.0]), np.array([0.1, 0.3, -0.2])),
        (np.array([1.0, 1.0, 1.0]), np.array([-0.6, -0.6, 0.6])),  # clamped
    ]
    for b, u in cases:
        scaled = np.array([b[0] * math.exp(u[1] + u[2]),
                           b[1] * math.exp(u[2] + u[0]),
                           b[2] * math.exp(u[0] + u[1])])
        angles = np.array(triangle_angles(*scaled))
        for i in range(3):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            fd = (solver.triangle_energy(b, up)
                  - solver.triangle_energy(b, dn)) / (2.0 * h)
            worst_grad = max(worst_grad, abs(fd - angles[i]))
    verdict(10, worst_unit < 1e-10 and gap_pi6 < 1e-10 and worst_grad < 1e-6,
            f"special values at 0, pi/2, pi below 1e-10 (worst "
            f"{worst_unit:.2e}); value at pi/6 matches quadrature to "
            f"{gap_pi6:.2e} < 1e-10; energy gradient = extended angles to "
            f"{worst_grad:.2e} < 1e-6")
