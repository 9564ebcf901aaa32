"""Command-line behavior: outputs, exit codes, manifests, replay."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GENUS2_FACES,
    TETRA_FACES,
    flat_torus_document,
    flip_with_length,
    json_text_reference,
    lattice_torus_faces,
    lengths_doc,
    random_lattice_torus,
    torus9_faces,
    unit_lengths,
)
from test_mesh import SPOILS, spoiled

from plcurv import cli, geometry, mesh, solver
from plcurv.mesh import build_triangulation

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SURGERY_GAP = os.path.join(DATA_DIR, "torus_surgery_gap.json")
# 4 x 4 flat torus on the lattice of (1, 0) and (6.5, 0.9): 96 flips to Delaunay.
SLIVER = os.path.join(DATA_DIR, "sliver_4x4.json")
# The bytes delaunay --fix must write for SLIVER, generated by the writer
# that formatted each item on its own, before the templates.
SLIVER_FIXED = os.path.join(DATA_DIR, "sliver_4x4_fixed.json")
# The bytes flow --flow yamabe --alpha -1 --out-state must write for
# SURGERY_GAP, generated by the wall search that certified every segment.
SURGERY_GAP_STATE = os.path.join(DATA_DIR, "torus_surgery_gap_yamabe_state.json")
# The bytes flow --flow yamabe --alpha -1 --out-state and --out-history must
# write for SURGERY_GAP with the default, implicit, integrator; generated by
# the step that made one order-2 energy evaluation at each state.
SURGERY_GAP_IMPLICIT_STATE = os.path.join(DATA_DIR, "torus_surgery_gap_implicit_state.json")
SURGERY_GAP_IMPLICIT_HISTORY = os.path.join(DATA_DIR, "torus_surgery_gap_implicit_history.csv")
# The bytes solve --alpha -1 --out must write for SURGERY_GAP, generated by
# the Newton line search that backtracked in a loop of its own.
SURGERY_GAP_SOLVE = os.path.join(DATA_DIR, "torus_surgery_gap_solve.json")
# The unit cube's surface, two triangles per side (conftest.cube_off_text()).
CUBE_OFF = os.path.join(DATA_DIR, "cube.off")
# The bytes solve CUBE_OFF --alpha -1 --starts 3 --seed 5 --out must write:
# its starts' chart walks hit 36 walls, the most of any fixture.
CUBE_SOLVE = os.path.join(DATA_DIR, "cube_solve.json")
# The bytes solve SURGERY_GAP --alpha -1 --starts 3 --out must write: its
# starts' chart walks flip quads whose two faces share all three vertices.
SURGERY_GAP_STARTS = os.path.join(DATA_DIR, "torus_surgery_gap_starts.json")

# Regular tetrahedron: every corner angle pi/3, so K = pi at each vertex.
REGULAR_TETRA_OFF = """OFF
4 4 6
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 2 3
3 0 3 1
3 1 3 2
"""


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write_lengths(path, tri, lens):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lengths_doc(tri, lens), fh)
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    tri = build_triangulation(torus9_faces())
    return write_lengths(tmp_path / "torus.json", tri, unit_lengths(tri))


@pytest.fixture
def kite_file(tmp_path):
    tri = build_triangulation(torus9_faces())
    lens = unit_lengths(tri)
    lens[0] = 1.9
    return write_lengths(tmp_path / "kite.json", tri, lens)


@pytest.fixture
def tetra_file(tmp_path):
    tri = build_triangulation(TETRA_FACES)
    return write_lengths(tmp_path / "tetra.json", tri, unit_lengths(tri))


@pytest.fixture
def tetra_off(tmp_path):
    p = tmp_path / "tetra.off"
    p.write_text(REGULAR_TETRA_OFF)
    return str(p)


class TestCurvature:
    def test_regular_tetra_off(self, capsys, tetra_off):
        code, doc = run_cli(capsys, ["curvature", tetra_off, "--alpha", "0"])
        assert code == 0
        assert doc["chi"] == 2
        for k in doc["K"]:
            assert abs(k - math.pi) < 1e-12
        assert abs(doc["gauss_bonnet_residual"]) < 1e-12
        assert doc["delaunay_violations"] == []

    def test_flat_torus_alpha2_is_zero(self, capsys, torus_file):
        code, doc = run_cli(capsys, ["curvature", torus_file, "--alpha", "2"])
        assert code == 0
        assert doc["chi"] == 0
        assert max(abs(r) for r in doc["R_alpha"]) < 1e-12

    def test_sum_K_reports_chi(self, capsys, kite_file):
        code, doc = run_cli(capsys, ["curvature", kite_file])
        assert code == 0
        assert abs(sum(doc["K"]) / (2 * math.pi) - doc["chi"]) < 1e-9
        assert doc["delaunay_violations"] != []

    def test_u_file_scales_metric(self, capsys, tmp_path, tetra_file):
        u = [0.2, -0.1, 0.05, -0.15]
        ufile = tmp_path / "u.json"
        ufile.write_text(json.dumps(u))
        code, doc = run_cli(capsys, ["curvature", tetra_file, "--alpha", "1",
                                     "--u-file", str(ufile)])
        assert code == 0
        tri = build_triangulation(TETRA_FACES)
        scaled = geometry.scale_metric(tri, unit_lengths(tri), np.array(u))
        expected = geometry.curvature(tri, scaled)
        assert np.max(np.abs(np.array(doc["K"]) - expected)) < 1e-12

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code, _ = run_cli(capsys, ["curvature", str(bad)])
        assert code == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["curvature", str(tmp_path / "nope.json")])
        assert code == 2

    def test_wrong_u_length_exits_3(self, capsys, tmp_path, tetra_file):
        ufile = tmp_path / "u.json"
        ufile.write_text("[0.1, 0.2]")
        code, _ = run_cli(capsys, ["curvature", tetra_file,
                                   "--u-file", str(ufile)])
        assert code == 3

    @pytest.mark.parametrize("text", ["[0, 300.5, 0, 0]", "[0, 0, 0, -1e250]", "301"])
    def test_u_file_past_the_log_factor_bound_exits_3(self, capsys, caplog, tmp_path,
                                                      tetra_file, text):
        # exited 5 with LogFactorOverflow, as if the program had failed
        ufile = tmp_path / "u.json"
        ufile.write_text(text)
        code, _ = run_cli(capsys, ["curvature", tetra_file, "--u-file", str(ufile)])
        assert code == 3
        assert f"LOG_FACTOR_BOUND = {geometry.LOG_FACTOR_BOUND}" in caplog.text


GB_MESHES = ([build_triangulation(lattice_torus_faces(m)) for m in (3, 4, 5)]
             + [build_triangulation(GENUS2_FACES)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(GB_MESHES) - 1), st.floats(0.0, 0.3),
       st.floats(0.0, 3.0), st.sampled_from([-2.0, -1.0, 0.0, 0.5, 2.0]),
       st.integers(0, 2 ** 32 - 1))
def test_gauss_bonnet_through_the_cli(mesh, spread, u_spread, alpha, seed):
    # Lengths within a factor e^0.6 keep every face a triangle; the
    # conformal factors may flatten faces, whose extended angles still
    # pin the deficit sum at 2*pi*chi.
    rng = np.random.default_rng(seed)
    tri = GB_MESHES[mesh]
    lens = np.exp(rng.uniform(-spread, spread, tri.edge_count))
    u = rng.uniform(-u_spread, u_spread, tri.vertex_count)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lengths(os.path.join(tmp, "metric.json"), tri, lens)
        ufile = os.path.join(tmp, "u.json")
        with open(ufile, "w", encoding="utf-8") as fh:
            json.dump(u.tolist(), fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["curvature", path, "--u-file", ufile,
                             "--alpha", str(alpha)])
    assert code == 0
    assert "Traceback" not in err.getvalue()
    doc = json.loads(out.getvalue())
    assert doc["chi"] == tri.chi
    assert abs(sum(doc["K"]) - 2.0 * math.pi * tri.chi) < 1e-9


class TestFlow:
    def test_rk4_is_no_integrator(self, capsys, torus_file):
        # rk4 is no integrator: the choices are implicit and euler
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", torus_file, "--integrator", "rk4"])
        assert exc.value.code == 2
        assert "--integrator" in capsys.readouterr().err

    def test_flat_torus_converges_at_step_zero(self, capsys, torus_file):
        code, doc = run_cli(capsys, ["flow", torus_file, "--flow", "calabi",
                                     "--alpha", "-2"])
        assert code == 0
        assert doc["status"] == "converged"
        assert doc["steps"] == 0

    def test_perturbed_torus_writes_outputs(self, capsys, tmp_path, kite_file):
        hist = tmp_path / "h.csv"
        state = tmp_path / "s.json"
        code, doc = run_cli(capsys, [
            "flow", kite_file, "--flow", "yamabe", "--alpha", "1",
            "--out-history", str(hist), "--out-state", str(state)])
        assert code == 0
        assert doc["max_dev"] < 1e-10

        lines = hist.read_text().splitlines()
        assert lines[0] == "t,max_dev,conserved,energy,flips,dt"
        assert len(lines) == doc["steps"] + 2

        snap = json.loads(state.read_text())
        assert snap["alpha"] == 1
        tri, lens = mesh.parse_lengths_json(state.read_text())
        scaled = geometry.scale_metric(tri, lens, np.array(snap["u"]))
        rep = geometry.alpha_curvature(
            geometry.curvature(tri, scaled), np.array(snap["u"]), 1.0,
            chi=tri.chi)
        assert rep.max_dev < 1e-10

    def test_surgery_pair_on_documented_input(self, capsys):
        code_off, _ = run_cli(capsys, ["flow", SURGERY_GAP, "--flow", "yamabe",
                                       "--alpha", "1", "--surgery", "off"])
        assert code_off in (4, 5)
        code_on, doc = run_cli(capsys, ["flow", SURGERY_GAP, "--flow", "yamabe",
                                        "--alpha", "1", "--surgery", "on"])
        assert code_on == 0
        assert doc["flips"] > 0

    def test_state_is_the_golden_bytes(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        code, doc = run_cli(capsys, ["flow", SURGERY_GAP, "--flow", "yamabe", "--alpha", "-1",
                                     "--integrator", "euler", "--out-state", str(state)])
        assert (code, doc["flips"]) == (0, 15)
        with open(SURGERY_GAP_STATE, "rb") as fh:
            assert state.read_bytes() == fh.read()

    def test_implicit_state_and_history_are_the_golden_bytes(self, capsys, tmp_path):
        state, history = tmp_path / "state.json", tmp_path / "history.csv"
        code, doc = run_cli(capsys, ["flow", SURGERY_GAP, "--flow", "yamabe", "--alpha", "-1",
                                     "--out-state", str(state), "--out-history", str(history)])
        assert (code, doc["steps"], doc["flips"]) == (0, 12, 15)
        for path, golden in ((state, SURGERY_GAP_IMPLICIT_STATE),
                             (history, SURGERY_GAP_IMPLICIT_HISTORY)):
            with open(golden, "rb") as fh:
                assert path.read_bytes() == fh.read()

    def test_calabi_converges_on_a_24x24_torus(self, capsys, tmp_path):
        # explicit Euler runs out of --max-steps here (exit 4); the implicit
        # step, the default, converges in about 17 steps
        path = write_lengths(tmp_path / "torus24.json", *random_lattice_torus(24))
        code, doc = run_cli(capsys, ["flow", path, "--flow", "calabi", "--alpha", "-1"])
        assert (code, doc["status"]) == (0, "converged")

    def test_max_steps_exits_4(self, capsys, kite_file):
        code, doc = run_cli(capsys, ["flow", kite_file, "--alpha", "1",
                                     "--dt", "1e-4", "--max-steps", "3"])
        assert code == 4
        assert doc["status"] == "max_steps"

    def test_unsupported_regime_flagged(self, capsys, tetra_file):
        code, doc = run_cli(capsys, ["flow", tetra_file, "--alpha", "1"])
        assert code == 0  # regular tetrahedron is already constant
        assert doc["unsupported_regime"] is True


class TestSolve:
    def test_torus_flattens_alpha_minus3(self, capsys, kite_file):
        code, doc = run_cli(capsys, ["solve", kite_file, "--alpha", "-3"])
        assert code == 0
        assert doc["converged"] is True
        assert max(abs(k) for k in doc["K"]) < 1e-10

    def test_positive_alpha_on_sphere_exits_6(self, capsys, tetra_file):
        code, _ = run_cli(capsys, ["solve", tetra_file, "--alpha", "1"])
        assert code == 6

    def test_zero_target_file_matches_const(self, capsys, tmp_path, kite_file):
        tfile = tmp_path / "target.json"
        tfile.write_text(json.dumps([0.0] * 9))
        code_a, doc_a = run_cli(capsys, ["solve", kite_file, "--alpha", "5"])
        code_b, doc_b = run_cli(capsys, ["solve", kite_file, "--alpha", "5",
                                         "--target", str(tfile)])
        assert code_a == code_b == 0
        assert doc_a["u"] == doc_b["u"]
        assert doc_a["K"] == doc_b["K"]

    @pytest.mark.parametrize("option, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--tol", "0"),
        ("--max-iter", "-1")])
    def test_stopping_rule_must_be_valid(self, capsys, option, value):
        # --tol nan or inf printed "converged": true after 0 iterations at
        # grad_inf 9.06; --tol -1 and --max-iter -1 ran to exit 5
        assert run_cli(capsys, ["solve", SURGERY_GAP, "--alpha", "-1", option,
                                value]) == (3, None)

    def test_report_is_the_golden_bytes(self, capsys, tmp_path):
        out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
        code, doc = run_cli(capsys, ["solve", SURGERY_GAP, "--alpha", "-1", "--out", str(out),
                                     "--out-trace", str(trace)])
        assert (code, doc["iterations"], doc["flips"]) == (0, 7, 15)
        # the line search backtracks here, so the bytes pin the guarded step
        steps = [row.split(",")[3] for row in trace.read_text().splitlines()[2:]]
        assert {"0.125", "0.5"} <= set(steps)
        with open(SURGERY_GAP_SOLVE, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_multi_start_report_is_the_golden_bytes(self, capsys, tmp_path, monkeypatch):
        hits, first_wall = [], solver._first_wall

        def counted(*args):
            result = first_wall(*args)
            hits.append(result[1])
            return result

        monkeypatch.setattr(solver, "_first_wall", counted)
        out = tmp_path / "report.json"
        code, doc = run_cli(capsys, ["solve", CUBE_OFF, "--alpha", "-1", "--starts", "3",
                                     "--seed", "5", "--out", str(out)])
        assert (code, doc["rigidity_pass"], sum(hits)) == (0, True, 36)
        with open(CUBE_SOLVE, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_report_and_trace_files(self, capsys, tmp_path, tetra_file):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        code, doc = run_cli(capsys, ["solve", tetra_file, "--alpha", "-1",
                                     "--out", str(out),
                                     "--out-trace", str(trace)])
        assert code == 0
        saved = json.loads(out.read_text())
        assert saved["u"] == doc["u"]
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,grad_inf,value,step,flips"
        assert len(lines) == doc["iterations"] + 2

    def test_starts_reuse_the_delaunay_pass_at_u0(self, capsys, tmp_path,
                                                   monkeypatch):
        # The first solve and the rigidity check each make the input
        # Delaunay at u = 0; the starts begin from the rigidity check's
        # chart, so their own pass there flips nothing.
        path = tmp_path / "sliver.json"
        path.write_text(json.dumps(flat_torus_document(3, [1, 0], [6.5, 0.9])))
        passes = []
        make_delaunay = geometry.make_delaunay

        def counted(tri, lengths):
            out = make_delaunay(tri, lengths)
            passes.append(len(out[2]))
            return out

        monkeypatch.setattr(geometry, "make_delaunay", counted)
        code, doc = run_cli(capsys, ["solve", str(path), "--alpha", "-1",
                                     "--starts", "2"])
        assert code == 0
        assert doc["rigidity_pass"] is True
        flipping = [k for k in passes if k]
        assert flipping.count(passes[0]) == 2
        assert len(flipping) == 4

    @pytest.mark.parametrize("seed", range(4))
    def test_starts_flip_loops_in_and_pass(self, capsys, tmp_path, monkeypatch, seed):
        loops, flip = [], mesh.Triangulation.flip

        def counted(tri, e):
            # a flip makes a loop when its quad's far corners k and l coincide
            far = tri.faces.reshape(-1)[tri.quad_corners(e)[..., 2]].reshape(-1, 2)
            loops.append(int((far[:, 0] == far[:, 1]).sum()))
            return flip(tri, e)

        monkeypatch.setattr(mesh.Triangulation, "flip", counted)
        out = tmp_path / "report.json"
        code, doc = run_cli(capsys, ["solve", SURGERY_GAP, "--alpha", "-1", "--starts", "3",
                                     "--seed", str(seed), "--out", str(out)])
        assert code == 0 and doc["rigidity_pass"] is True and sum(loops) > 0
        if seed == 0:
            with open(SURGERY_GAP_STARTS, "rb") as fh:
                assert out.read_bytes() == fh.read()

    def test_starts_far_from_the_u0_chart_pass(self, capsys, tmp_path):
        # On a 20 x 20 torus nearly every U(-0.3, 0.3) start leaves a face
        # degenerate on the u = 0 chart; each start's walk carries it there.
        tri = build_triangulation(lattice_torus_faces(20))
        rng = np.random.default_rng(0)
        while geometry.degenerate_faces(
                tri, base := np.exp(rng.uniform(-0.25, 0.25, tri.edge_count))):
            pass
        path = tmp_path / "torus.json"
        path.write_text(mesh.lengths_json_text(tri, base))
        code, doc = run_cli(capsys, ["solve", str(path), "--alpha", "-1", "--starts", "3"])
        assert code == 0 and doc["rigidity_pass"] is True

    def test_multi_start_rigidity(self, capsys, kite_file):
        code, doc = run_cli(capsys, ["solve", kite_file, "--alpha", "0",
                                     "--starts", "3", "--seed", "1"])
        assert code == 0
        assert doc["rigidity_pass"] is True
        assert doc["spread"] < 1e-6

    @pytest.mark.parametrize("seed", [5, 8])
    def test_cube_starts_converge(self, capsys, seed):
        # Newton steps capped at each wall crawled and hit --max-iter (exit 5)
        code, doc = run_cli(capsys, ["solve", CUBE_OFF, "--alpha", "-1",
                                     "--starts", "3", "--seed", str(seed)])
        assert code == 0
        assert doc["rigidity_pass"] is True
        assert doc["spread"] < 1e-9


class TestDelaunay:
    def test_clean_input_exits_0(self, capsys, torus_file):
        code, doc = run_cli(capsys, ["delaunay", torus_file, "--check"])
        assert code == 0
        assert doc["violations"] == []

    def test_kite_check_exits_1_with_one_edge(self, capsys, kite_file):
        code, doc = run_cli(capsys, ["delaunay", kite_file, "--check"])
        assert code == 1
        assert doc["count"] == 1

    def test_fix_preserves_curvature(self, capsys, tmp_path, kite_file):
        fixed = tmp_path / "fixed.json"
        code, doc = run_cli(capsys, ["delaunay", kite_file, "--fix",
                                     "--out", str(fixed)])
        assert code == 0
        assert doc["flips"] >= 1
        code, doc = run_cli(capsys, ["delaunay", str(fixed), "--check"])
        assert code == 0

        tri0, lens0 = mesh.load_mesh(kite_file)
        tri1, lens1 = mesh.load_mesh(str(fixed))
        k0 = geometry.curvature(tri0, lens0)
        k1 = geometry.curvature(tri1, lens1)
        assert np.max(np.abs(k0 - k1)) < 1e-9

    def test_fix_without_out_exits_2(self, capsys, kite_file):
        code, _ = run_cli(capsys, ["delaunay", kite_file, "--fix"])
        assert code == 2

    def test_fix_writes_the_golden_bytes(self, capsys, tmp_path):
        fixed = tmp_path / "fixed.json"
        code, doc = run_cli(capsys, ["delaunay", SLIVER, "--fix", "--out", str(fixed)])
        assert (code, doc["flips"]) == (0, 96)
        with open(SLIVER_FIXED, "rb") as fh:
            assert fixed.read_bytes() == fh.read()

    def test_fix_refuses_to_write_a_face_that_repeats_a_vertex(self, capsys, caplog, tmp_path):
        # The 3 x 3 torus planted at u_p has a loop edge in its Delaunay
        # chart.  Flipped out, the loop makes a document --fix flips back.
        tri = build_triangulation(torus9_faces())
        u_p = np.random.default_rng(7).uniform(-0.6, 0.6, 9)
        tri, base, _, _ = solver.carry_chart(tri, unit_lengths(tri), np.zeros(9), u_p)
        (loop,) = np.flatnonzero(tri.edge_verts[:, 0] == tri.edge_verts[:, 1])
        tri, lengths = flip_with_length(tri, geometry.scale_metric(tri, base, u_p), loop)
        path, fixed = tmp_path / "torus.json", tmp_path / "fixed.json"
        path.write_text(mesh.lengths_json_text(tri, lengths))
        assert run_cli(capsys, ["delaunay", str(path), "--fix", "--out", str(fixed)]) == (3, None)
        assert "which repeats a vertex" in caplog.text and not fixed.exists()


class TestReplay:
    """A manifest is the recorded argv plus the SHA-256 of every file it
    reads; replay parses that argv as the command line and refuses any
    entry the parser refuses, and any changed file."""

    @staticmethod
    def tamper(man, flag, value):
        """Set the argv entry after ``flag`` in the manifest ``man`` to ``value``."""
        doc = json.loads(man.read_text())
        doc["argv"][doc["argv"].index(flag) + 1] = value
        man.write_text(json.dumps(doc))

    @pytest.mark.parametrize("argv, outputs", [
        (["curvature", "{kite}", "--alpha", "-1", "--u-file", "{d}/u.json"], []),
        (["flow", "{kite}", "--flow", "yamabe", "--integrator", "euler", "--dt", "0.1",
          "--alpha", "-1", "--out-history", "{d}/h.csv", "--out-state", "{d}/s.json"],
         ["h.csv", "s.json"]),
        (["solve", "{kite}", "--alpha", "-1", "--target", "{d}/t.json", "--starts", "2",
          "--seed", "3", "--out", "{d}/r.json"], ["r.json"]),
        (["delaunay", SLIVER, "--fix", "--out", "{d}/f.json"], ["f.json"]),
    ], ids=["curvature-u-file", "flow-euler", "solve-target-starts-seed", "delaunay-fix"])
    def test_round_trip_is_byte_identical(self, capsys, tmp_path, kite_file, argv,
                                          outputs):
        (tmp_path / "u.json").write_text("[0.1, 0, 0, 0, -0.05, 0, 0, 0, 0]")
        (tmp_path / "t.json").write_text("[0, 0, 0, 0, 0, 0, 0, 0, 0]")
        man = tmp_path / "run.json"
        argv = [a.format(d=tmp_path, kite=kite_file) for a in argv]
        code = cli.main(argv + ["--manifest", str(man)])
        stdout = capsys.readouterr().out
        files = {name: (tmp_path / name).read_bytes() for name in outputs}
        for name in outputs:
            (tmp_path / name).unlink()
        assert json.loads(man.read_text())["argv"] == argv + ["--manifest", str(man)]
        inode = man.stat().st_ino

        assert cli.main(["replay", str(man)]) == code == 0
        assert capsys.readouterr().out == stdout
        assert {name: (tmp_path / name).read_bytes() for name in outputs} == files
        assert man.stat().st_ino == inode  # replay does not record itself again

    def test_flow_replay_is_byte_identical(self, capsys, tmp_path, kite_file):
        hist = tmp_path / "h.csv"
        state = tmp_path / "s.json"
        man = tmp_path / "run.json"
        code, _ = run_cli(capsys, [
            "flow", kite_file, "--flow", "calabi", "--alpha", "-2",
            "--dt", "0.1", "--out-history", str(hist),
            "--out-state", str(state), "--manifest", str(man)])
        assert code == 0
        first_hist = hist.read_bytes()
        first_state = state.read_bytes()
        hist.unlink()
        state.unlink()

        code, _ = run_cli(capsys, ["replay", str(man)])
        assert code == 0
        assert hist.read_bytes() == first_hist
        assert state.read_bytes() == first_state

    def test_solve_replay_is_byte_identical(self, capsys, tmp_path, kite_file):
        out = tmp_path / "r.json"
        trace = tmp_path / "t.csv"
        man = tmp_path / "run.json"
        code, _ = run_cli(capsys, ["solve", kite_file, "--alpha", "-1",
                                   "--out", str(out), "--out-trace",
                                   str(trace), "--manifest", str(man)])
        assert code == 0
        first_out = out.read_bytes()
        first_trace = trace.read_bytes()
        out.unlink()
        trace.unlink()

        code, _ = run_cli(capsys, ["replay", str(man)])
        assert code == 0
        assert out.read_bytes() == first_out
        assert trace.read_bytes() == first_trace

    @staticmethod
    def fix_with_manifest(capsys, tmp_path, path):
        out = tmp_path / "fixed.json"
        man = tmp_path / "run.json"
        code, _ = run_cli(capsys, ["delaunay", path, "--fix", "--out",
                                   str(out), "--manifest", str(man)])
        assert code == 0
        first = out.read_bytes()
        out.unlink()
        return out, man, first

    def test_manifest_records_input_hash_and_replays(self, capsys, tmp_path,
                                                     kite_file):
        out, man, first = self.fix_with_manifest(capsys, tmp_path, kite_file)
        with open(kite_file, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert json.loads(man.read_text())["sha256"] == {kite_file: digest}
        code, _ = run_cli(capsys, ["replay", str(man)])
        assert code == 0
        assert out.read_bytes() == first

    def test_changed_input_byte_exits_2(self, capsys, tmp_path, tetra_off):
        out, man, first = self.fix_with_manifest(capsys, tmp_path, tetra_off)
        with open(tetra_off, "rb") as fh:
            data = fh.read()
        with open(tetra_off, "wb") as fh:  # vertex 0 moves to (1, 1, 2)
            fh.write(data.replace(b"\n1 1 1\n", b"\n1 1 2\n"))
        code, _ = run_cli(capsys, ["replay", str(man)])
        assert code == 2
        assert not out.exists()
        # the changed file is a valid input that would have diverged
        code, _ = run_cli(capsys, ["delaunay", tetra_off, "--fix", "--out",
                                   str(out)])
        assert code == 0
        assert out.read_bytes() != first

    @pytest.mark.parametrize("argv", [
        ["curvature", SURGERY_GAP, "--u-file"],
        ["solve", SURGERY_GAP, "--alpha", "-1", "--out", "{d}/r.json", "--target"]])
    def test_changed_vector_file_exits_2(self, capsys, tmp_path, argv):
        # replay hashed only the input: an edited --target ran to exit 0
        vec = tmp_path / "v.json"
        vec.write_text("[0, 0, 0, 0, 0, 0, 0, 0, 0]")
        man = tmp_path / "run.json"
        argv = [a.format(d=tmp_path) for a in argv] + [str(vec), "--manifest", str(man)]
        assert run_cli(capsys, argv)[0] == 0
        assert str(vec) in json.loads(man.read_text())["sha256"]
        (tmp_path / "r.json").unlink(missing_ok=True)
        vec.write_text("[0.25, 0, 0, 0, 0, 0, 0, 0, 0]")
        assert run_cli(capsys, ["replay", str(man)]) == (2, None)
        assert not (tmp_path / "r.json").exists()

    def test_manifest_without_input_hash_exits_2(self, capsys, tmp_path,
                                                 kite_file):
        _, man, _ = self.fix_with_manifest(capsys, tmp_path, kite_file)
        doc = json.loads(man.read_text())
        del doc["sha256"]
        man.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, ["replay", str(man)])
        assert code == 2

    @pytest.mark.parametrize("surgery", ["false", 0, None])
    def test_flow_surgery_must_be_a_json_bool(self, capsys, tmp_path, surgery):
        # a manifest once held surgery as a JSON bool, and read as a truth
        # value "false" replayed with surgery on; now --surgery takes on or
        # off, and an argv entry must be a JSON string
        man = tmp_path / "run.json"
        code, _ = run_cli(capsys, ["flow", SURGERY_GAP, "--flow", "yamabe", "--alpha", "-1",
                                   "--surgery", "off", "--manifest", str(man)])
        assert code == 5
        self.tamper(man, "--surgery", surgery)
        assert run_cli(capsys, ["replay", str(man)]) == (2, None)

    @pytest.mark.parametrize("command, key, value", [
        ("flow", "max_steps", "3.9"), ("flow", "max_steps", True), ("flow", "dt", 0.05),
        ("flow", "dt", "x"), ("flow", "tol", None), ("solve", "tol", 1e-10),
        ("solve", "max_iter", "2.5"), ("solve", "starts", 2),
        ("flow", "integrator", "rk4")])
    def test_config_numbers_must_have_their_json_type(self, capsys, tmp_path, command,
                                                      key, value):
        # once cast on replay, 3.9 ran 3 steps and "0.05" was accepted as a
        # number; now an entry is a string the option's type must parse, and
        # a manifest that records the removed rk4 integrator is refused
        man = tmp_path / "run.json"
        argv = {"flow": ["flow", SURGERY_GAP, "--flow", "yamabe", "--max-steps", "3",
                         "--dt", "0.05", "--tol", "1e-10", "--integrator", "implicit"],
                "solve": ["solve", SURGERY_GAP, "--tol", "1e-10", "--max-iter", "100",
                          "--starts", "1"]}[command]
        code, _ = run_cli(capsys, argv + ["--alpha", "-1", "--manifest", str(man)])
        assert code in (0, 4)
        self.tamper(man, "--" + key.replace("_", "-"), value)
        assert run_cli(capsys, ["replay", str(man)]) == (2, None)

    @staticmethod
    def solve_manifest(capsys, tmp_path):
        man = tmp_path / "run.json"
        code, _ = run_cli(capsys, ["solve", SURGERY_GAP, "--alpha", "-1", "--seed", "0",
                                   "--tol", "1e-10", "--manifest", str(man)])
        assert code == 0
        return man

    @pytest.mark.parametrize("key, value", [
        ("alpha", -1), ("alpha", True), ("alpha", None), ("seed", "2.7"), ("seed", True),
        ("seed", 0), pytest.param("alpha", 10**400, id="alpha-int-past-float-range")])
    def test_alpha_and_seed_must_have_their_json_type(self, capsys, tmp_path, key, value):
        # once cast on replay, "-1" ran at alpha = -1, true at alpha = 1 and
        # 2.7 with seed 2; now a number entry is refused, and --seed takes an int
        man = self.solve_manifest(capsys, tmp_path)
        self.tamper(man, "--" + key, value)
        assert run_cli(capsys, ["replay", str(man)]) == (2, None)

    @pytest.mark.parametrize("key, value", [
        ("alpha", "nan"), ("alpha", "inf"), ("alpha", "1e400"), ("tol", "nan")])
    def test_non_finite_numbers_exit_3(self, capsys, tmp_path, key, value):
        # as on the command line; a NaN tol once replayed as converged at iteration 0
        man = self.solve_manifest(capsys, tmp_path)
        self.tamper(man, "--" + key, value)
        assert run_cli(capsys, ["replay", str(man)]) == (3, None)

    def test_recorded_replay_exits_2(self, capsys, tmp_path):
        man = tmp_path / "run.json"
        man.write_text(json.dumps({"argv": ["replay", str(man)], "sha256": {}}))
        assert run_cli(capsys, ["replay", str(man)]) == (2, None)

    def test_no_manifest_hashes_nothing(self, capsys, monkeypatch, kite_file):
        def refuse(path):
            raise AssertionError("hashed without --manifest")
        monkeypatch.setattr(cli, "_sha256", refuse)
        code, _ = run_cli(capsys, ["curvature", kite_file])
        assert code == 0

    def test_missing_manifest_exits_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["replay", str(tmp_path / "none.json")])
        assert code == 2

    # manifests in the earlier form, without argv, are malformed
    @pytest.mark.parametrize("command, config, outputs", [
        ("flow", {}, {"history": None, "state": None}),
        ("delaunay", {"mode": "fix"}, {}),
    ])
    def test_malformed_manifest_exits_2_without_traceback(
            self, tmp_path, kite_file, command, config, outputs):
        man = tmp_path / "run.json"
        man.write_text(json.dumps({
            "command": command, "input": {"path": kite_file, "format": "lengths"},
            "alpha": -1.0, "seed": 0, "config": config, "outputs": outputs}))
        proc = subprocess.run(
            [sys.executable, "-m", "plcurv.cli", "replay", str(man)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "malformed manifest" in proc.stderr

    def test_unexpected_exception_exits_5_with_one_line(
            self, capsys, caplog, monkeypatch, tetra_file):
        def broken(args):
            raise RuntimeError("unexpected\nfailure")
        monkeypatch.setattr(cli, "_exec_curvature", broken)
        code, _ = run_cli(capsys, ["curvature", tetra_file])
        assert code == 5
        message = caplog.records[-1].getMessage()
        assert "RuntimeError" in message and "\n" not in message


class TestSeed:
    """Only solve draws random numbers, so only solve takes --seed."""

    @pytest.mark.parametrize("command", [["curvature"], ["flow"],
                                         ["delaunay", "--check"]])
    def test_seed_rejected_off_solve(self, capsys, tetra_file, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command[0], tetra_file, *command[1:], "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_one_parser_serves_consecutive_calls(self, capsys, tetra_file):
        # the parser is built once; each call still parses only its own flags
        assert cli.build_parser() is cli.build_parser()
        assert run_cli(capsys, ["solve", tetra_file, "--seed", "3", "--tol", "1e-3"])[0] == 0
        args = cli.build_parser().parse_args(["flow", tetra_file])
        assert args.tol == 1e-10 and not hasattr(args, "seed")
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", tetra_file, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert run_cli(capsys, ["delaunay", tetra_file, "--check"])[0] == 0

    def test_manifest_keeps_seed_zero(self, capsys, tmp_path, tetra_file):
        # the argv records no --seed, and replay parses the same default
        man = tmp_path / "solve.json"
        argv = ["solve", tetra_file, "--alpha", "-1", "--starts", "2"]
        code, doc = run_cli(capsys, argv + ["--manifest", str(man)])
        assert (code, doc["seed"]) == (0, 0)
        assert "--seed" not in json.loads(man.read_text())["argv"]
        assert run_cli(capsys, ["replay", str(man)]) == (code, doc)


class TestExtremeInput:
    """A 1e200 edge is a valid metric whose faces are flat; inf and NaN are
    rejected at load.  main() must return the documented code: an
    exception escaping it would be a traceback and exit 1."""

    @staticmethod
    def torus_with_edge(tmp_path, value):
        # the writer refuses a non-finite length, so edge 0 is written at
        # 1.5 and its records are patched; json writes inf and NaN as
        # Infinity and NaN
        tri = build_triangulation(torus9_faces())
        lens = unit_lengths(tri)
        lens[0] = 1.5
        doc = lengths_doc(tri, lens)
        for rec in doc["lengths"]:
            if rec["length"] == 1.5:
                rec["length"] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_huge_edge_curvature_keeps_gauss_bonnet(self, capsys, tmp_path):
        path = self.torus_with_edge(tmp_path, 1e200)
        code, doc = run_cli(capsys, ["curvature", path])
        assert code == 0
        assert abs(sum(doc["K"]) - 2.0 * math.pi * doc["chi"]) < 1e-9

    def test_huge_edge_solve_exits_3(self, capsys, tmp_path):
        path = self.torus_with_edge(tmp_path, 1e200)
        code, _ = run_cli(capsys, ["solve", path, "--alpha", "-1"])
        assert code == 3

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("command", ["curvature", "solve"])
    def test_non_finite_length_exits_3(self, capsys, tmp_path, command, value):
        path = self.torus_with_edge(tmp_path, value)
        code, _ = run_cli(capsys, [command, path])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["curvature", "--alpha", "nan"], ["flow", "--alpha", "nan"],
        ["flow", "--alpha=-inf"], ["solve", "--alpha", "inf"],
        ["flow", "--alpha", "-1", "--dt", "inf"], ["flow", "--alpha", "-1", "--tol", "inf"],
        ["flow", "--alpha", "-1", "--dt", "0"], ["flow", "--alpha", "-1", "--tol", "nan"],
        ["solve", "--alpha", "-1", "--tol", "0"], ["solve", "--alpha", "-1", "--tol", "inf"]])
    def test_non_finite_option_exits_3(self, capsys, caplog, monkeypatch, argv):
        # flow exited 5 on these (--tol inf exited 0 as converged at step 0),
        # and solve --alpha inf warned on stderr first; --dt 0 named the field
        # dt, and solve --tol 0 was refused by newton_solve after the mesh loaded
        loads = []
        monkeypatch.setattr(mesh, "load_mesh", lambda *a, **k: loads.append(a))
        assert run_cli(capsys, [argv[0], SURGERY_GAP, *argv[1:]]) == (3, None)
        assert loads == []
        option = [a for a in argv if a.startswith("--")][-1].split("=")[0]
        assert f"{option} must be" in caplog.text

    @pytest.mark.parametrize("argv", [
        ["solve", "--starts", "0"], ["solve", "--starts", "-1"], ["flow", "--max-steps", "-1"],
        ["solve", "--starts", "2", "--seed", "-1"], ["solve", "--max-iter", "-1"]])
    def test_count_below_its_range_exits_3(self, capsys, caplog, monkeypatch, argv):
        # --starts 0 ran the one-start report; --max-steps -1 exited 4 after 0 steps;
        # --seed -1 ran the first solve, then exited 3 naming no option;
        # --max-iter -1 was refused by newton_solve, after the mesh loaded
        solves = []
        monkeypatch.setattr(solver, "newton_solve", lambda *a, **k: solves.append(a))
        monkeypatch.setattr(mesh, "load_mesh", lambda *a, **k: solves.append(a))
        assert run_cli(capsys, [argv[0], SURGERY_GAP, "--alpha", "-1", *argv[1:]]) == (3, None)
        assert solves == []
        assert f"{argv[-2]} must be" in caplog.text  # names the option

    @pytest.mark.parametrize("text, code", [
        ("[true, 0, 0, 0]", 2), ('["0.1", 0, 0, 0]', 2), ("[[0.1], 0, 0, 0]", 2),
        ("false", 2), ('{"u": [0, 0, null, 0]}', 2),
        pytest.param("[1" + "0" * 400 + ", 0, 0, 0]", 2, id="int-past-float-range-2"),
        ("[NaN, 0, 0, 0]", 3), ("[0, Infinity, 0, 0]", 3), ("-1e999", 3)])
    def test_u_file_entries_are_finite_json_numbers(self, capsys, tmp_path, tetra_file,
                                                    text, code):
        # [true, ...] ran with u0 = 1 and a NaN u exited 5
        ufile = tmp_path / "u.json"
        ufile.write_text(text)
        assert run_cli(capsys, ["curvature", tetra_file, "--u-file", str(ufile)]) == (code, None)

    @pytest.mark.parametrize("text, code", [("[true" + ", 0" * 8 + "]", 2),
                                            ("[NaN" + ", 0" * 8 + "]", 3), ("NaN", 3)])
    def test_target_entries_are_finite_json_numbers(self, capsys, tmp_path, kite_file,
                                                    text, code):
        # a NaN target at alpha = 0 exited 6, "unsupported target"
        tfile = tmp_path / "target.json"
        tfile.write_text(text)
        assert run_cli(capsys, ["solve", kite_file, "--alpha", "0",
                                "--target", str(tfile)]) == (code, None)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_scaled_file_matches_unscaled(self, capsys, tmp_path, scale):
        # Curvature is scale invariant: a file with every length scaled must
        # flip the same edges and reach the same curvature as the original.
        def scaled(path):
            doc = json.loads(open(path, encoding="utf-8").read())
            for rec in doc["lengths"]:
                rec["length"] *= scale
            out = tmp_path / f"scaled-{os.path.basename(path)}"
            out.write_text(json.dumps(doc))
            return str(out)

        def run(args):
            code, doc = run_cli(capsys, args)
            assert code == 0, args
            return doc

        def solve_and_flow(path):
            state = tmp_path / f"state-{os.path.basename(path)}"
            solved = run(["solve", path, "--alpha", "-1"])
            flowed = run(["flow", path, "--alpha", "-1", "--out-state", str(state)])
            return solved, flowed, json.loads(state.read_text())["u"]

        (solved0, flowed0, u0), (solved1, flowed1, u1) = (
            solve_and_flow(path) for path in (SURGERY_GAP, scaled(SURGERY_GAP)))
        assert solved1["flips"] == solved0["flips"] > 0
        assert np.max(np.abs(np.subtract(solved1["K"], solved0["K"]))) < 1e-9
        assert flowed1["flips"] == flowed0["flips"] > 0
        assert np.max(np.abs(np.subtract(u1, u0))) < 1e-9

        curvatures = []
        for path in (SLIVER, scaled(SLIVER)):
            fixed = tmp_path / f"fixed-{os.path.basename(path)}"
            assert run(["delaunay", path, "--fix", "--out", str(fixed)])["flips"] == 96
            run(["delaunay", str(fixed), "--check"])
            curvatures.append(run(["curvature", str(fixed)])["K"])
        assert np.max(np.abs(np.subtract(*curvatures))) < 1e-9

    def test_non_finite_coordinate_exits_3(self, capsys, tmp_path):
        path = tmp_path / "tetra.off"
        path.write_text(REGULAR_TETRA_OFF.replace("1 1 1\n", "1 inf 1\n"))
        code, _ = run_cli(capsys, ["curvature", str(path)])
        assert code == 3

    def test_overflowing_coordinate_exits_3(self, capsys, tmp_path):
        # 1e200 is finite, but the square of an edge's coordinate difference is not
        path = tmp_path / "tetra.off"
        path.write_text(REGULAR_TETRA_OFF.replace("1 1 1\n", "1e200 1 1\n"))
        code, _ = run_cli(capsys, ["curvature", str(path)])
        assert code == 3

    def test_unused_vertex_exits_3(self, capsys, caplog, tmp_path):
        path = tmp_path / "tetra.off"
        path.write_text(REGULAR_TETRA_OFF.replace("4 4 6\n", "5 4 6\n")
                        .replace("-1 -1 1\n", "-1 -1 1\n0 0 0\n"))
        code, _ = run_cli(capsys, ["curvature", str(path)])
        assert code == 3
        assert "vertex 4 has no incident face" in caplog.text


# --- the JSON writer against its recursive reference ---------------------------

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 2.0 ** 53, 0.1])
# keys that a %-template or a str.format template would misread
KEYS = st.text(max_size=3) | st.sampled_from(["%", "%s", "%d", "%%", "{", "{}", "{0}", "}"])
INTS = st.integers(-2 ** 70, 2 ** 70)


def json_documents(floats):
    """Nested dicts, lists and tuples; record lists with equal or unequal keys."""
    leaves = st.one_of(
        st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(), st.text(max_size=4),
        floats, floats.map(np.float64), st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))

    def containers(children):
        same_keys = st.lists(KEYS, min_size=1, max_size=3, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, children)),
                                  max_size=4))
        same_length = st.integers(0, 3).flatmap(
            lambda n: st.lists(st.lists(children, min_size=n, max_size=n)
                               | st.tuples(*[children] * n), max_size=4))
        # rows of ints: of one length, of several lengths, or mixing in
        # bools and np.int64 (neither may take the int fast path)
        int64 = st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
        int_like = INTS | st.booleans() | int64
        int_rows = st.sampled_from([INTS, int_like]).flatmap(lambda entries: st.one_of(
            st.integers(0, 4).flatmap(lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n) | st.tuples(*[entries] * n),
                min_size=1, max_size=5)),
            st.lists(st.lists(entries, max_size=4), min_size=1, max_size=5)))
        return st.one_of(
            st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
            st.dictionaries(KEYS, children, max_size=3),
            st.lists(st.dictionaries(KEYS, children, max_size=2), max_size=4),
            same_keys, same_length, int_rows,
            st.lists(floats, max_size=6), st.lists(st.integers(), max_size=6))

    return st.recursive(leaves, containers, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(json_documents(FLOATS))
@example([{"%": []}])
@example([{"%s": 1, "{}": [2, 3]}, {"%s": 4, "{}": [5, 6]}])
@example({"faces": [[0, 1, 2], [3, 4, 5]], "rows": [[1, 2], [3]],
          "mixed": [[1, True], [np.int64(2), 3]]})
def test_writer_matches_recursive_reference(doc):
    assert mesh.json_text(doc) == json_text_reference(doc)


@settings(max_examples=300, deadline=None)
@given(json_documents(FLOATS | st.sampled_from([math.nan, math.inf, -math.inf])))
def test_writer_refuses_non_finite_floats_like_reference(doc):
    try:
        want = json_text_reference(doc)
    except ValueError:
        with pytest.raises(ValueError):
            mesh.json_text(doc)
        return
    assert mesh.json_text(doc) == want


def test_writer_refuses_every_non_finite_float():
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        for doc in ([1.0, bad], [{"a": 1, "b": bad}, {"a": 2, "b": 0.5}],
                    [[0.5, bad]], {"x": bad}, bad):
            with pytest.raises(ValueError):
                json_text_reference(doc)
            with pytest.raises(ValueError):
                mesh.json_text(doc)


OBJ_TETRA = ("".join(f"v {row}\n" for row in REGULAR_TETRA_OFF.splitlines()[2:6])
             + "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n")
SPHERE2_DOC = '{"vertices": 3, "faces": [[0, 1, 2], [0, 2, 1]]'

# (argv, files, message): an argument "@name" is the path of file "name",
# written with the text given; a name not in the files is never written.
INPUT_ERRORS = {
    "off count line": (["curvature", "@m.off"], {"m.off": "OFF\n4 x 6\n"},
                       "bad OFF count line"),
    "off truncated": (["curvature", "@m.off"], {"m.off": "OFF\n4 4 6\n1 1 1\n"},
                      "truncated OFF file"),
    "off vertex line": (["curvature", "@m.off"],
                        {"m.off": REGULAR_TETRA_OFF.replace("1 -1 -1\n", "1 -1\n", 1)},
                        "bad vertex line"),
    "off quad": (["curvature", "@m.off"],
                 {"m.off": REGULAR_TETRA_OFF.replace("3 0 1 2", "4 0 1 2 3")},
                 "face line '4 0 1 2 3' is not a triangle"),
    "obj vertex": (["curvature", "@m.obj"], {"m.obj": OBJ_TETRA.replace("v 1 -1 -1", "v 1 -1")},
                   "bad OBJ vertex"),
    "obj quad": (["curvature", "@m.obj"], {"m.obj": OBJ_TETRA.replace("f 1 2 3", "f 1 2 3 4")},
                 "face 'f 1 2 3 4' is not a triangle"),
    "obj no faces": (["curvature", "@m.obj"], {"m.obj": "v 0 0 0\n"}, "contains no faces"),
    "coincident vertices": (["curvature", "@m.off"],
                            {"m.off": REGULAR_TETRA_OFF.replace("1 -1 -1\n", "1 1 1\n", 1)},
                            "vertices 0 and 1 coincide"),
    "faces not lists": (["curvature", "@m.json"],
                        {"m.json": '{"vertices": 3, "faces": [1, 2], "lengths": []}'},
                        "'faces' must be a list of lists"),
    "no lengths": (["curvature", "@m.json"], {"m.json": SPHERE2_DOC + "}"},
                   "need either 'lengths' or 'edge_lengths'"),
    "lengths not a list": (["curvature", "@m.json"], {"m.json": SPHERE2_DOC + ', "lengths": 5}'},
                           "'lengths' must be a list of records"),
    "edge without length": (["curvature", "@m.json"], {"m.json": SPHERE2_DOC + (
        ', "edge_lengths": [[0, 1, 1.0], [1, 2, 1.0]]}')}, "1 edges have no length"),
    "no format": (["curvature", "@m.txt"], {"m.txt": REGULAR_TETRA_OFF}, "cannot infer format"),
}
for flag, argv, key in (("--target", ["solve", "@t.off", "--alpha", "-1", "--target"], "target"),
                        ("--u-file", ["curvature", "@t.off", "--u-file"], "u")):
    INPUT_ERRORS[f"{flag} invalid JSON"] = (
        argv + ["@v.json"], {"t.off": REGULAR_TETRA_OFF, "v.json": "{"}, "invalid JSON in")
    INPUT_ERRORS[f"{flag} without its key"] = (
        argv + ["@v.json"], {"t.off": REGULAR_TETRA_OFF, "v.json": '{"x": [1]}'},
        f"has no {key!r} entry")
    INPUT_ERRORS[f"{flag} unreadable"] = (
        argv + ["@v.json"], {"t.off": REGULAR_TETRA_OFF}, "cannot read")


class TestMalformedInput:
    """Every malformed input exits 2 (parse) or 3 (validation), never 0."""

    @pytest.mark.parametrize("argv, files, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
    def test_input_error_exits_2_without_traceback(self, capsys, caplog, tmp_path,
                                                   argv, files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        assert run_cli(capsys, argv) == (2, None)
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    def test_float_vertex_id_exits_2(self, capsys, caplog, tmp_path):
        # int(1.7) used to read this as the two-face sphere and exit 0
        path = tmp_path / "float-id.json"
        path.write_text(json.dumps({
            "vertices": 3, "faces": [[0, 1, 2], [0, 2, 1.7]],
            "edge_lengths": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}))
        code, _ = run_cli(capsys, ["curvature", str(path)])
        assert code == 2
        assert "not a JSON integer" in caplog.text

    def test_float_vertex_count_exits_2(self, capsys, caplog, tmp_path):
        # int(3.9) used to read this as the two-face sphere on 3 vertices
        path = tmp_path / "float-count.json"
        path.write_text(json.dumps({
            "vertices": 3.9, "faces": [[0, 1, 2], [0, 2, 1]],
            "edge_lengths": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}))
        code, _ = run_cli(capsys, ["curvature", str(path)])
        assert code == 2
        assert "not a JSON integer" in caplog.text

    @pytest.mark.parametrize("count", [5, 2 ** 40, 2 ** 62])
    def test_vertex_count_past_the_faces_exits_3(self, capsys, caplog, tmp_path, count):
        # the link check sizes its counts by the faces: a huge declared count
        # is one more unused vertex, not an allocation of that size
        path = tmp_path / "tetra.json"
        path.write_text(json.dumps({
            "vertices": count, "faces": [list(f) for f in TETRA_FACES],
            "edge_lengths": [[i, j, 1.0] for i in range(4) for j in range(i + 1, 4)]}))
        assert run_cli(capsys, ["curvature", str(path)]) == (3, None)
        assert "vertex 4 has no incident face" in caplog.text

    @pytest.mark.parametrize("name", SPOILS)
    def test_spoiled_document_exit_code(self, capsys, caplog, tmp_path, name):
        text, _, message, code = spoiled(name)
        path = tmp_path / "spoiled.json"
        path.write_text(text)
        assert run_cli(capsys, ["delaunay", str(path), "--check"]) == (code, None)
        assert message in caplog.text

    @pytest.mark.parametrize("old, new", [
        ("3 0 1 2\n", "x 0 1 2\n"),  # face count
        ("3 0 1 2\n", "3 0 1 y\n"),  # face vertex
        ("1 1 1\n", "a 1 1\n"),      # coordinate
    ])
    def test_non_numeric_off_token_exits_2(self, capsys, tmp_path, old, new):
        path = tmp_path / "tetra.off"
        path.write_text(REGULAR_TETRA_OFF.replace(old, new, 1))
        assert run_cli(capsys, ["curvature", str(path)]) == (2, None)

    @pytest.mark.parametrize("line", ["f 1 x 3", "v 0 b 0", "f 1/1 2/2 z/3"])
    def test_non_numeric_obj_token_exits_2(self, capsys, tmp_path, line):
        text = "".join(f"v {row}\n" for row in REGULAR_TETRA_OFF.splitlines()[2:6])
        text += "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n"
        path = tmp_path / "tetra.obj"
        path.write_text(text)
        assert run_cli(capsys, ["curvature", str(path)])[0] == 0
        path.write_text(text + line + "\n")
        assert run_cli(capsys, ["curvature", str(path)]) == (2, None)


class TestProcess:
    def test_module_entry_point(self, tetra_off):
        proc = subprocess.run(
            [sys.executable, "-m", "plcurv.cli", "curvature", tetra_off],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["vertices"] == 4

    def test_starts_on_sliver_torus_finish(self, tmp_path):
        # Random starts are drawn for the Delaunay chart at u = 0, where
        # the solve starts: on this input's own chart no draw is
        # nondegenerate, and redrawing there never ended.
        path = tmp_path / "sliver.json"
        path.write_text(json.dumps(flat_torus_document(3, [1, 0], [6.5, 0.9])))
        proc = subprocess.run(
            [sys.executable, "-m", "plcurv.cli", "solve", str(path),
             "--alpha", "-1", "--starts", "2"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rigidity_pass"] is True

    def test_no_command_loads_scipy(self, tmp_path):
        # every matrix is a dense NumPy array, so no command pays for scipy
        # in time or memory, and an install needs numpy alone
        script = ("import json, sys\n"
                  "from plcurv import cli\n"
                  "sliver, fixed, gap = sys.argv[1:]\n"
                  "codes = [cli.main(['delaunay', sliver, '--fix', '--out', fixed]),\n"
                  "         cli.main(['curvature', fixed]),\n"
                  "         cli.main(['solve', gap, '--alpha', '-1', '--starts', '2']),\n"
                  "         cli.main(['flow', gap, '--flow', 'yamabe', '--alpha', '-1']),\n"
                  "         cli.main(['flow', gap, '--flow', 'calabi', '--alpha', '-1'])]\n"
                  "print(json.dumps([codes, sorted(m for m in sys.modules\n"
                  "                                if m.split('.')[0] == 'scipy')]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, SLIVER, str(tmp_path / "fixed.json"), SURGERY_GAP],
            capture_output=True, text=True, timeout=60)
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0, 0, 0], []]

    def test_log_env_quiet_silences_warning(self, tetra_file):
        env = dict(os.environ, PLCURV_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "plcurv.cli", "flow", tetra_file,
             "--alpha", "1"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "alpha*chi" in proc.stderr

        env["PLCURV_LOG"] = "quiet"
        proc = subprocess.run(
            [sys.executable, "-m", "plcurv.cli", "flow", tetra_file,
             "--alpha", "1"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stderr.strip() == ""

    def test_floats_print_17_significant_digits(self, capsys, tetra_file):
        code = cli.main(["curvature", tetra_file])
        out = capsys.readouterr().out
        # deficit of the unit tetrahedron is pi, printed in full precision
        assert "3.1415926535897931" in out
