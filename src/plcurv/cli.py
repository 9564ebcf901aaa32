"""Command-line front door: curvature reports, flows, solves, Delaunay tools.

``--manifest PATH`` records a run as its command line and the SHA-256 of
every file it reads.  ``plcurv replay PATH`` parses that line with the
same parser and runs it through the same dispatch, so outputs are
byte-identical; it refuses a file whose SHA-256 differs from the record.
All floats are printed with 17 significant digits and files are written
atomically (temp file + rename).

Exit codes: 0 success/converged, 1 Delaunay violations found (--check),
2 parse error, 3 validation error, 4 flow hit max-steps, 5 runtime
failure, 6 unsupported curvature target.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import sys
import tempfile

import numpy as np

from . import flows, geometry, mesh, solver
from .errors import (
    DegenerateFace,
    Disconnected,
    NonConvexQuad,
    NonFiniteValue,
    NonManifold,
    NonPositiveLength,
    OrientationConflict,
    ParseError,
    PLCurvError,
    UnsupportedTarget,
)

log = logging.getLogger(__name__)

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}

# Structural and metric problems found after a file parsed cleanly.
_VALIDATION_ERRORS = (NonManifold, Disconnected, OrientationConflict,
                      NonFiniteValue, NonPositiveLength, DegenerateFace,
                      NonConvexQuad, ValueError)


def _setup_logging() -> None:
    name = os.environ.get("PLCURV_LOG", "").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


# --- output files ----------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".plcurv-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --- input files -----------------------------------------------------------

def _load_input(args: argparse.Namespace):
    try:
        return mesh.load_mesh(args.input, fmt=args.format)
    except OSError as exc:
        raise ParseError(f"cannot read {args.input!r}: {exc}") from exc


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


def _input_hashes(args: argparse.Namespace) -> dict:
    """SHA-256 of every file the command reads, keyed by its path."""
    paths = [args.input, getattr(args, "u_file", None)]
    if getattr(args, "target", "const") != "const":
        paths.append(args.target)
    return {path: _sha256(path) for path in paths if path}


def _read_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc


def _read_vector_file(path: str, n: int, key: str) -> np.ndarray:
    """Load n finite reals from a JSON file: a list, a scalar, or {key: list}."""
    doc = _read_json_file(path)
    if isinstance(doc, dict):
        if key not in doc:
            raise ParseError(f"{path!r} has no {key!r} entry")
        doc = doc[key]
    entries = doc if type(doc) is list else [doc]
    if not set(map(type, entries)) <= {int, float}:
        raise ParseError(f"{path!r} is not a number or a list of JSON numbers")
    try:
        vec = np.array(entries, dtype=float)
    except OverflowError as exc:
        raise ParseError(f"{path!r} holds a number out of range: {exc}") from exc
    if not np.isfinite(vec).all():
        raise NonFiniteValue(f"{path!r} holds a non-finite number")
    if type(doc) is not list:
        return np.full(n, vec[0])
    if vec.shape != (n,):
        raise ValueError(
            f"{path!r} has {vec.shape} entries, mesh has {n} vertices")
    return vec


def _edge_records(tri, edges) -> list[dict]:
    return [{"edge": int(e), "vertices": list(tri.edge_vertices(e))}
            for e in edges]


# --- command bodies (shared by direct invocation and replay) ---------------

def _exec_curvature(args: argparse.Namespace) -> int:
    tri, lengths = _load_input(args)
    n = tri.vertex_count
    u = np.zeros(n)
    if args.u_file:
        u = _read_vector_file(args.u_file, n, "u")
        if np.abs(u).max() > geometry.LOG_FACTOR_BOUND:
            raise ValueError(f"{args.u_file!r} holds an entry with |u| above "
                             f"LOG_FACTOR_BOUND = {geometry.LOG_FACTOR_BOUND}")
    scaled = geometry.scale_metric(tri, lengths, u)
    K = geometry.curvature(tri, scaled)
    rep = geometry.alpha_curvature(K, u, args.alpha, chi=tri.chi)
    doc = {
        "alpha": args.alpha,
        "chi": tri.chi,
        "vertices": n,
        "K": [float(x) for x in rep.K],
        "R_alpha": [float(x) for x in rep.R_alpha],
        "R_av": rep.R_av,
        "max_dev": rep.max_dev,
        "gauss_bonnet_residual": rep.sum_K - 2.0 * math.pi * tri.chi,
        "delaunay_violations": _edge_records(
            tri, geometry.is_delaunay_all(tri, scaled)),
    }
    print(mesh.json_text(doc))
    return 0


def _exec_flow(args: argparse.Namespace) -> int:
    tri, lengths = _load_input(args)
    cfg = flows.FlowConfig(kind=args.flow, dt=args.dt, tol=args.tol,
                           max_steps=args.max_steps,
                           surgery=args.surgery == "on",
                           integrator=args.integrator)
    state, history = flows.run_flow(tri, lengths,
                                    np.zeros(tri.vertex_count),
                                    args.alpha, cfg)
    if args.out_history:
        _atomic_write(args.out_history, history.to_csv())
    if args.out_state:
        _atomic_write(args.out_state, mesh.lengths_json_text(
            state.tri, state.base, u=state.u.tolist(), alpha=args.alpha, t=state.t) + "\n")
    last = history.rows[-1]
    print(mesh.json_text({
        "status": history.status,
        "steps": state.step_count,
        "t": state.t,
        "max_dev": last.max_dev,
        "conserved": last.conserved,
        "flips": len(state.flips),
        "unsupported_regime": history.unsupported_regime,
    }))
    return 0 if history.status == "converged" else 4


def _exec_solve(args: argparse.Namespace) -> int:
    tri, lengths = _load_input(args)
    n = tri.vertex_count
    if args.target == "const":
        target = solver.Target.constant()
    else:
        target = solver.Target.prescribed(
            _read_vector_file(args.target, n, "target"))

    res = solver.newton_solve(tri, lengths, np.zeros(n), args.alpha, target,
                              tol=args.tol, max_iter=args.max_iter)
    doc = {
        "alpha": args.alpha,
        "target": args.target,
        "kind": res.kind,
        "converged": True,  # newton_solve raises rather than stop short
        "iterations": res.iterations,
        "grad_inf": res.trace[-1].grad_inf,
        "flips": res.flips,
        "u": [float(x) for x in res.u],
        "K": [float(x) for x in res.curvature.K],
        "R_alpha": [float(x) for x in res.curvature.R_alpha],
        "R_av": res.curvature.R_av,
        "max_dev": res.curvature.max_dev,
    }
    if args.starts > 1:
        rig = solver.rigidity_check(tri, lengths, args.alpha, target,
                                    trials=args.starts, tol=args.tol,
                                    seed=args.seed)
        doc["starts"] = args.starts
        doc["seed"] = args.seed
        doc["spread"] = rig.spread
        doc["rigidity_pass"] = rig.passed
        log.info("%s", rig)
    if args.out:
        _atomic_write(args.out, mesh.json_text(doc) + "\n")
    if args.out_trace:
        _atomic_write(args.out_trace, solver.trace_csv(res.trace))
    print(mesh.json_text(doc))
    return 0


def _exec_delaunay(args: argparse.Namespace) -> int:
    tri, lengths = _load_input(args)
    if args.check:
        bad = geometry.is_delaunay_all(tri, lengths)
        print(mesh.json_text({"violations": _edge_records(tri, bad),
                              "count": len(bad)}))
        return 1 if bad else 0
    tri2, lengths2, flips = geometry.make_delaunay(tri, lengths)
    _atomic_write(args.out, mesh.lengths_json_text(tri2, lengths2) + "\n")
    print(mesh.json_text({"flips": len(flips), "out": args.out}))
    return 0


def _exec_replay(args: argparse.Namespace) -> int:
    doc = _read_json_file(args.path)
    argv = doc.get("argv") if isinstance(doc, dict) else None
    if type(argv) is not list or not all(type(a) is str for a in argv):
        raise ParseError(f"malformed manifest {args.path!r}: "
                         "no argv list of strings")
    try:
        run = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed why
        raise ParseError(f"malformed manifest {args.path!r}: "
                         "its argv does not parse") from exc
    if run.command == "replay":
        raise ParseError(f"malformed manifest {args.path!r}: "
                         "it records a replay")
    if _input_hashes(run) != doc.get("sha256"):  # also when none recorded
        raise ParseError(f"the files {args.path!r} records do not match "
                         "its sha256 entries")
    run.manifest = None
    return _run(run, argv)


def _run(args: argparse.Namespace, argv: list[str]) -> int:
    """Check what the parser cannot, before any file is read; record the run if asked; run it."""
    if args.command == "delaunay" and args.fix and not args.out:
        raise ParseError("--fix requires --out")
    if not math.isfinite(getattr(args, "alpha", 0.0)):
        raise NonFiniteValue(f"--alpha must be finite, not {args.alpha!r}")
    for option in ("dt", "tol"):
        value = getattr(args, option, 1.0)
        if not 0.0 < value < math.inf:  # False on NaN
            raise ValueError(f"--{option} must be positive and finite, not {value!r}")
    for option, low in (("starts", 1), ("seed", 0), ("max_steps", 0), ("max_iter", 0)):
        value = getattr(args, option, low)
        if value < low:
            raise ValueError(f"--{option.replace('_', '-')} must be at least {low}, not {value}")
    if getattr(args, "manifest", None):
        doc = {"argv": argv, "sha256": _input_hashes(args)}
        _atomic_write(args.manifest, mesh.json_text(doc) + "\n")
    return globals()[f"_exec_{args.command}"](args)


# --- argument parsing -------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="mesh file (OFF, OBJ or lengths JSON)")
    p.add_argument("--format", choices=("off", "obj", "lengths"),
                   help="input format (default: inferred from extension)")
    p.add_argument("--manifest", metavar="PATH",
                   help="also write a replayable run manifest")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.

    Parsing leaves no state in it, so one parser serves every ``main``
    call and every replay; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="plcurv",
        description="Combinatorial curvature tools for PL surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature",
                       help="per-vertex curvature report (JSON to stdout)")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--u-file", dest="u_file", metavar="PATH",
                   help="JSON list of per-vertex log conformal factors")

    p = sub.add_parser("flow", help="run a curvature flow from u = 0")
    _add_common(p)
    p.add_argument("--flow", choices=("yamabe", "calabi"), default="yamabe")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-steps", type=int, default=20000)
    p.add_argument("--surgery", choices=("on", "off"), default="on")
    p.add_argument("--integrator", choices=flows.INTEGRATORS,
                   default=flows.FlowConfig.integrator)
    p.add_argument("--out-history", metavar="PATH", help="history CSV")
    p.add_argument("--out-state", metavar="PATH", help="final state JSON")

    p = sub.add_parser("solve",
                       help="Newton solve for a constant or prescribed target")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--target", default="const", metavar="const|PATH",
                   help="'const' or a JSON file with per-vertex values")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--starts", type=int, default=1,
                   help="extra random starts for a rigidity comparison")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random starts (default 0)")
    p.add_argument("--out", metavar="PATH", help="report JSON")
    p.add_argument("--out-trace", metavar="PATH", help="iteration trace CSV")

    p = sub.add_parser("delaunay", help="check or restore the Delaunay property")
    _add_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="list violating edges; exit 1 if any")
    mode.add_argument("--fix", action="store_true",
                      help="flip to Delaunay and write the result")
    p.add_argument("--out", metavar="PATH", help="lengths JSON (with --fix)")

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("path", metavar="manifest", help="path to a run manifest JSON")

    return parser


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return _run(args, argv)
    except ParseError as exc:
        log.error("parse error: %s", exc)
        return 2
    except UnsupportedTarget as exc:
        log.error("unsupported target: %s", exc)
        return 6
    except _VALIDATION_ERRORS as exc:
        log.error("validation error: %s", exc)
        return 3
    except PLCurvError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 5
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return 5
    except Exception as exc:
        # never a traceback, and never exit 1, which means "violations found"
        log.error("internal error: %s: %s", type(exc).__name__,
                  " ".join(str(exc).split()))
        log.debug("internal error", exc_info=True)
        return 5


if __name__ == "__main__":
    sys.exit(main())
