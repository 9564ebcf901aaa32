#!/usr/bin/env python3
"""plcurv benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plcurv checkout.  The workload's input is made
from --seed (see inputs.py and workloads.json) and written to a
lengths-JSON file; the workload's command then goes through
``plcurv.cli.main`` in this process, call after call, while one more
call still fits in --seconds.  Every output is checked by check.py,
which does not import plcurv.  BLAS is pinned to one thread.

--trace 0 reports the end-to-end metrics: ``wall_s`` (mean time of one
``cli.main`` call), ``setup_s`` (mean time of ``plcurv.mesh.load_mesh``
on the input) and ``peak_rss_mb``.  Both times are means over the whole
run: every call repeats the same deterministic work, and the host's
speed changes between states that last seconds to minutes, so a median
or a minimum jumps with whichever state a run happened to catch while
the mean moves with the share of the run spent in each.  The first call
warms the process up and is checked but not timed.

--trace 1 makes a warm-up call and one untraced call, then repeats the
command under the outside-in tracer (tracer.py) and reports the
per-layer metrics, averaged per call; it also checks that
tracing changed no output byte and that every layer the workload is
expected to reach recorded a call.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is the run record (input hashes, environment, per
call times and per layer totals).  Exits 2 without a result when the
plcurv sources are not next to this directory.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Before each timed call load_mesh is repeated for SETUP_SLICE seconds
# (at least twice); setup_s is the mean over all of them.  Spreading
# the samples over the run keeps setup_s and wall_s exposed to the same
# stretch of host speed.
SETUP_SLICE = 0.2

# A call still running this long after start is stopped and counted as
# failed, so the run reports within its 180 s limit even if plcurv hangs.
DEADLINE_S = 150.0

# plcurv's documented default for flow --dt; the workloads do not set it.
DEFAULT_DT = 0.05


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- inputs ----------------------------------------------------------------

def make_input(spec: dict, seed: int, path: Path) -> bytes:
    """Write the workload's input for ``seed`` and return its bytes.

    Relabelled workloads draw one metric from the fixed ``instance``
    stream and let the seed pick an isomorphic copy (new vertex ids, face
    order and corner rotation), so every seed poses the same problem;
    the others draw the metric itself from the seed.
    """
    g = spec["generator"]
    seeded = np.random.default_rng(seed % 2 ** 64)
    if g["kind"] == "lattice_torus":
        faces, side = inputs.random_lattice_torus(
            g["m"], g["amplitude"], np.random.default_rng(g["instance"]))
    elif g["kind"] == "sliver_torus":
        faces, side = inputs.sliver_flat_torus(g["m"], g["a"], g["b"],
                                               g["jitter"], seeded)
    else:
        raise ValueError(f"unknown generator {g['kind']!r}")
    if g["relabel"]:
        faces, side = inputs.relabel(faces, side, seeded)
    data = inputs.document_bytes(inputs.document(faces, side))
    path.write_bytes(data)
    return data


# --- one call --------------------------------------------------------------

class Deadline(BaseException):
    """Raised inside a call that runs past DEADLINE_S (not an Exception,
    so no handler in plcurv can swallow it)."""


def _on_alarm(signum, frame):
    raise Deadline


class Call:
    """One ``cli.main(argv)`` call: time, exit code, stdout, output files."""

    def __init__(self, cli, argv: list[str], outputs: dict[str, Path]):
        for path in outputs.values():
            path.unlink(missing_ok=True)
        # garbage from earlier calls is not this call's to collect
        gc.collect()
        out = io.StringIO()
        self.error = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL,
                         max(DEADLINE_S - (start - STARTED), 1e-3))
        try:
            with contextlib.redirect_stdout(out):
                self.code = cli.main(argv)
        except SystemExit as exc:
            self.code = exc.code
        except Deadline:
            self.code = None
            self.error = f"stopped {DEADLINE_S:g} s after the run started"
        except Exception as exc:  # a crash is a failed operation, not the end
            self.code = None
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - start
        self.stdout = out.getvalue()
        self.files = {k: p.read_bytes() if p.exists() else None
                      for k, p in outputs.items()}

    def same_output(self, other: "Call") -> bool:
        return ((self.code, self.stdout, self.files)
                == (other.code, other.stdout, other.files))


def closed_loop(cli, argv, outputs, seconds: float, started: float,
                before=None) -> list[Call]:
    """Call at least once, and again while another call of the last one's
    length still ends within ``seconds`` of ``started``.  ``before`` runs
    ahead of every call, outside its timing."""
    calls = []
    while not calls or (time.perf_counter() - started + calls[-1].seconds
                        <= seconds
                        and time.perf_counter() - STARTED < DEADLINE_S):
        if before is not None:
            before()
        calls.append(Call(cli, argv, outputs))
    return calls


# --- output checks -----------------------------------------------------------

def verify(cli, argv, input_data: bytes, first: Call) -> list[str]:
    """Failures of the independent checks on one call's outputs."""
    if first.error:
        return [first.error]
    if first.code != 0:
        return [f"{argv[0]} exited {first.code}"]
    alpha = argv[argv.index("--alpha") + 1] if "--alpha" in argv else None
    try:
        input_doc = json.loads(input_data)
        if argv[0] == "solve":
            return check.check_solve(input_doc, first.stdout, float(alpha))
        if argv[0] == "flow":
            # untimed Newton solve of the same input: acceptance check 6
            newton = Call(cli, ["solve", argv[1], "--alpha", alpha,
                                "--target", "const"], {})
            if newton.code != 0:
                return [f"reference solve exited {newton.code} {newton.error or ''}"]
            solve_u = np.asarray(json.loads(newton.stdout)["u"], dtype=float)
            return check.check_flow(input_doc, first.stdout,
                                    json.loads(first.files["state"]),
                                    first.files["history"].decode(),
                                    float(alpha), solve_u)
        if argv[0] == "delaunay":
            return check.check_delaunay_fix(input_doc, first.stdout,
                                            json.loads(first.files["fixed"]))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"no check for command {argv[0]!r}"]


def tally(calls: list[Call], failures: list[str], reference: Call) -> int:
    """Failed calls: a bad exit, a failed check, or output unlike the reference."""
    failed = 0
    for c in calls:
        if c.code != 0 or failures or not c.same_output(reference):
            failed += 1
    return failed


# --- metrics ---------------------------------------------------------------

class SetupSampler:
    """Times ``load_mesh`` on the input for one slice per call."""

    def __init__(self, plcurv_mesh, input_path: Path):
        self.load = plcurv_mesh.load_mesh
        self.path = str(input_path)
        self.times: list[float] = []

    def __call__(self) -> None:
        end = time.perf_counter() + SETUP_SLICE
        reps = 0
        while reps < 2 or time.perf_counter() < end:
            # every load starts from the same collector state, so the
            # collections it triggers are its own, not left-overs
            gc.collect()
            t0 = time.perf_counter()
            self.load(self.path)
            self.times.append(time.perf_counter() - t0)
            reps += 1


def end_to_end(calls: list[Call], setup: SetupSampler) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": statistics.fmean(c.seconds for c in calls), "unit": "s"},
        "setup_s": {"value": statistics.fmean(setup.times), "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
    }


def _spread(xs: list[float]) -> dict:
    """Sample count, extremes, median and mean of a run's times."""
    return {"n": len(xs), "min": min(xs), "median": statistics.median(xs),
            "mean": statistics.fmean(xs), "max": max(xs)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics by layer: whether calls are reported (not for layers
# entered exactly once per CLI call) and which times, as a share of
# cli.main: "self" excludes the layer's traced children, "total" does not.
LAYER_METRICS = (
    ("cli.main", False, ("self",)),
    ("mesh.load_mesh", False, ("total",)),
    ("mesh.build_triangulation", False, ("self",)),
    ("mesh.Triangulation.flip", True, ("total",)),
    ("geometry.make_delaunay", False, ("total",)),
    ("geometry.is_delaunay", True, ("self",)),
    ("geometry.flip_length", True, ("self",)),
    ("geometry.delaunay_margin", True, ("self",)),
    ("geometry.scale_metric", True, ("self",)),
    ("geometry.curvature", True, ("self",)),
    ("geometry.degenerate_faces", True, ("self",)),
    ("geometry.curvature_jacobian", True, ("self",)),
    ("solver.energy_W_alpha", True, ("self", "total")),
    ("solver.triangle_energy", True, ("self",)),
    ("solver.wall_search", True, ("total",)),
    ("solver.linear_solve", True, ("total",)),
    ("flows.step", True, ("self",)),
)


def per_layer(summary: dict, calls: int, reference: Call, argv: list[str],
              overhead_s: float) -> dict:
    """Per-layer metrics, per CLI call; times as a share of cli.main."""
    def count(name):
        return summary[name]["calls"] / calls

    def under(child, parent):
        return summary[child]["parents"].get(parent, 0) / calls

    main_s = summary["cli.main"]["total_s"] / calls
    m = {"cli.main.total_s": (main_s, "s"), "tracing_overhead_s": (overhead_s, "s")}
    for name, with_calls, kinds in LAYER_METRICS:
        if with_calls:
            m[f"{name}.calls"] = (count(name), "count")
        for kind in kinds:
            share = _ratio(summary[name][f"{kind}_s"] / calls, main_s)
            m[f"{name}.{kind}_pct"] = (100.0 * share, "%")

    searches = count("solver.wall_search")
    hits = summary["solver.wall_search"]["tagged"] / calls
    iterations = under("solver.linear_solve", "solver.newton_solve")
    trials = under("geometry.degenerate_faces", "solver.newton_solve")
    steps = count("flows.step")
    step_trials = under("geometry.degenerate_faces", "flows.step")
    m["solver.wall_search.hits"] = (hits, "count")
    m["solver.iterations"] = (iterations, "count")
    m["solver.trials"] = (trials, "count")
    m["solver.trials_per_iteration"] = (_ratio(trials, iterations), "ratio")
    m["solver.wall_hit_rate"] = (_ratio(hits, searches), "ratio")
    m["solver.margin_scans_per_search"] = (
        _ratio(under("geometry.delaunay_margin", "solver.wall_search"), searches), "ratio")
    m["flows.trials"] = (step_trials, "count")
    m["flows.accept_ratio"] = (_ratio(steps, step_trials), "ratio")

    at_cap = flips = 0.0
    if argv[0] == "flow" and reference.code == 0:
        dt = float(argv[argv.index("--dt") + 1]) if "--dt" in argv else DEFAULT_DT
        rows = list(csv.DictReader(io.StringIO(reference.files["history"].decode())))[1:]
        at_cap = _ratio(sum(float(r["dt"]) == dt for r in rows), len(rows))
        flips = float(json.loads(reference.stdout)["flips"])
    m["flows.dt_at_cap_share"] = (at_cap, "ratio")
    m["flows.flips"] = (flips, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# --- run record --------------------------------------------------------------

def commit() -> str:
    """HEAD of the checkout's git metadata, when there is any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def environment() -> dict:
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": 1, "commit": commit()}


# --- main ------------------------------------------------------------------

def run(args, spec: dict, work: Path) -> tuple[dict, dict]:
    import plcurv.cli
    import plcurv.mesh

    input_path = work / "input.json"
    data = make_input(spec, args.seed, input_path)
    outputs = {k: work / v for k, v in spec["outputs"].items()}
    fill = {"input": str(input_path), **{k: str(p) for k, p in outputs.items()}}
    argv = [a.format(**fill) for a in spec["command"]]

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "argv": [a.replace(str(work), "<work>") for a in argv],
              "generator": spec["generator"],
              "inputs": [{"file": "input.json", "bytes": len(data),
                          "sha256": inputs.sha256(data)}],
              "environment": environment()}

    started = time.perf_counter()
    if args.trace == 0:
        # the first call warms caches and lazy imports; it is checked
        # and compared with the others but not timed
        reference = Call(plcurv.cli, argv, outputs)
        setup = SetupSampler(plcurv.mesh, input_path)
        calls = closed_loop(plcurv.cli, argv, outputs, args.seconds, started,
                            before=setup)
        metrics = end_to_end(calls, setup)
        record["setup_reps"] = len(setup.times)
        record["timing"] = {k: _spread(v) for k, v in (
            ("call_s", [c.seconds for c in calls]), ("setup_s", setup.times))}
        failures = verify(plcurv.cli, argv, data, reference)
        calls = [reference] + calls
        attempted, failed = len(calls), tally(calls, failures, reference)
    else:
        # a warm-up call, then an untraced call of the same warm state
        # to set the traced calls against
        reference = Call(plcurv.cli, argv, outputs)
        untraced = Call(plcurv.cli, argv, outputs)
        tr = tracer.Tracer()
        tr.install()
        try:
            calls = closed_loop(plcurv.cli, argv, outputs, args.seconds, started)
        finally:
            tr.uninstall()
        summary = tr.summary()
        failures = verify(plcurv.cli, argv, data, reference)
        if not tr.restored():
            failures.append("tracer left a binding in place")
        if any(not c.same_output(reference) for c in calls):
            failures.append("traced output differs from the untraced call")
        missing = [name for name in spec["expected_layers"]
                   if summary[name]["calls"] == 0]
        if missing:
            failures.append(f"no call recorded for layers {missing}")
        overhead = statistics.fmean(c.seconds for c in calls) - untraced.seconds
        metrics = per_layer(summary, len(calls), reference, argv, overhead)
        record["untraced_call_s"] = untraced.seconds
        record["layers"] = {
            name: {"calls": s["calls"] / len(calls),
                   "total_s": s["total_s"] / len(calls),
                   "self_s": s["self_s"] / len(calls),
                   "tagged": s["tagged"] / len(calls),
                   "parents": {p: c / len(calls) for p, c in s["parents"].items()}}
            for name, s in summary.items()}
        calls = [reference, untraced] + calls
        attempted, failed = len(calls), tally(calls, failures, reference)

    record["call_s"] = [c.seconds for c in calls]
    record["exit_codes"] = sorted({str(c.code) for c in calls})
    record["report"] = _report_counts(reference)
    record["failures"] = failures
    result = {"correct": failed == 0 and not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def _report_counts(call: Call) -> dict:
    """Scalar fields of the program's JSON report (vectors dropped)."""
    try:
        doc = json.loads(call.stdout)
    except ValueError:
        return {}
    return {k: v for k, v in doc.items() if not isinstance(v, (list, dict))}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in spec:
        print(f"unknown workload {args.workload!r}; known: {sorted(spec)}",
              file=sys.stderr)
        return 2
    if not (SRC / "plcurv" / "cli.py").is_file():
        print(f"plcurv sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import plcurv
    if Path(plcurv.__file__).resolve().parent != SRC / "plcurv":
        print(f"imported plcurv from {plcurv.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record, result = run(args, spec[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
