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
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GENUS2_FACES,
    TETRA_FACES,
    flat_torus_document,
    json_text_reference,
    lattice_torus_faces,
    torus9_faces,
    unit_lengths,
)
from test_mesh import SPOILS, spoiled

from plcurv import cli, geometry, mesh
from plcurv.mesh import build_triangulation

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SURGERY_GAP = os.path.join(DATA_DIR, "torus_surgery_gap.json")
# 4 x 4 flat torus on the lattice of (1, 0) and (6.5, 0.9): 96 flips to Delaunay.
SLIVER = os.path.join(DATA_DIR, "sliver_4x4.json")

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
        json.dump(mesh.lengths_json_doc(tri, lens), fh)
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

    def test_multi_start_rigidity(self, capsys, kite_file):
        code, doc = run_cli(capsys, ["solve", kite_file, "--alpha", "0",
                                     "--starts", "3", "--seed", "1"])
        assert code == 0
        assert doc["rigidity_pass"] is True
        assert doc["spread"] < 1e-6


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


class TestReplay:
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
        assert json.loads(man.read_text())["input"]["sha256"] == digest
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

    def test_manifest_without_input_hash_exits_2(self, capsys, tmp_path,
                                                 kite_file):
        _, man, _ = self.fix_with_manifest(capsys, tmp_path, kite_file)
        doc = json.loads(man.read_text())
        del doc["input"]["sha256"]
        man.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, ["replay", str(man)])
        assert code == 2

    def test_no_manifest_hashes_nothing(self, capsys, monkeypatch, kite_file):
        def refuse(path):
            raise AssertionError("hashed without --manifest")
        monkeypatch.setattr(cli, "_sha256", refuse)
        code, _ = run_cli(capsys, ["curvature", kite_file])
        assert code == 0

    def test_missing_manifest_exits_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["replay", str(tmp_path / "none.json")])
        assert code == 2

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
        def broken(man):
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
        man = tmp_path / "curvature.json"
        code, _ = run_cli(capsys, ["curvature", tetra_file,
                                   "--manifest", str(man)])
        assert code == 0
        assert json.loads(man.read_text())["seed"] == 0
        code, _ = run_cli(capsys, ["replay", str(man)])
        assert code == 0


class TestExtremeInput:
    """A 1e200 edge is a valid metric whose faces are flat; inf and NaN are
    rejected at load.  main() must return the documented code: an
    exception escaping it would be a traceback and exit 1."""

    @staticmethod
    def torus_with_edge(tmp_path, value):
        tri = build_triangulation(torus9_faces())
        lens = unit_lengths(tri)
        lens[0] = value
        return write_lengths(tmp_path / "extreme.json", tri, lens)

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
KEYS = st.text(max_size=3)


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
        return st.one_of(
            st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
            st.dictionaries(KEYS, children, max_size=3),
            st.lists(st.dictionaries(KEYS, children, max_size=2), max_size=4),
            same_keys, same_length,
            st.lists(floats, max_size=6), st.lists(st.integers(), max_size=6))

    return st.recursive(leaves, containers, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(json_documents(FLOATS))
def test_writer_matches_recursive_reference(doc):
    assert cli._json_text(doc) == json_text_reference(doc)


@settings(max_examples=300, deadline=None)
@given(json_documents(FLOATS | st.sampled_from([math.nan, math.inf, -math.inf])))
def test_writer_refuses_non_finite_floats_like_reference(doc):
    try:
        want = json_text_reference(doc)
    except ValueError:
        with pytest.raises(ValueError):
            cli._json_text(doc)
        return
    assert cli._json_text(doc) == want


def test_writer_refuses_every_non_finite_float():
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        for doc in ([1.0, bad], [{"a": 1, "b": bad}, {"a": 2, "b": 0.5}],
                    [[0.5, bad]], {"x": bad}, bad):
            with pytest.raises(ValueError):
                json_text_reference(doc)
            with pytest.raises(ValueError):
                cli._json_text(doc)


class TestMalformedInput:
    """Every malformed input exits 2 (parse) or 3 (validation), never 0."""

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

    def test_delaunay_and_curvature_leave_scipy_unloaded(self, tmp_path):
        # scipy.sparse and scipy.special load on first use, so the commands
        # that need neither do not pay for them in time or memory.
        script = ("import json, sys\n"
                  "from plcurv import cli\n"
                  "codes = [cli.main(['delaunay', sys.argv[1], '--fix', '--out', sys.argv[2]]),\n"
                  "         cli.main(['curvature', sys.argv[2]])]\n"
                  "print(json.dumps([codes, [m for m in ('scipy.sparse', 'scipy.special')\n"
                  "                          if m in sys.modules]]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, SLIVER, str(tmp_path / "fixed.json")],
            capture_output=True, text=True, timeout=60)
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], []]

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
