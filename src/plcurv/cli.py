"""Command-line front door: curvature reports, flows, solves, Delaunay tools.

Every run is described by a RunManifest; ``plcurv replay manifest.json``
re-executes the recorded command through the same code path, so outputs
are byte-identical; it refuses an input whose SHA-256 differs from the
manifest's.  All floats are printed with 17 significant digits and files
are written atomically (temp file + rename).

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
from dataclasses import dataclass, replace

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


# --- run manifests ---------------------------------------------------------

# Config keys each command body reads without a default, and JSON types of numbers and switches.
_CONFIG_KEYS = {"flow": ("kind", "dt", "tol", "max_steps", "surgery"),
                "delaunay": ("mode",)}
_CONFIG_TYPES = {"dt": "number", "tol": "number", "max_steps": "integer",
                 "max_iter": "integer", "starts": "integer", "surgery": "bool"}
_JSON_TYPES = {"number": (int, float), "integer": (int,), "bool": (bool,)}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to repeat a run: command, input, knobs, outputs."""

    command: str
    input_path: str
    input_format: str
    alpha: float
    seed: int
    config: dict
    outputs: dict
    input_sha256: str | None = None

    def to_doc(self) -> dict:
        return {"command": self.command,
                "input": {"path": self.input_path,
                          "format": self.input_format,
                          "sha256": self.input_sha256},
                "alpha": self.alpha,
                "seed": self.seed,
                "config": self.config,
                "outputs": self.outputs}

    @classmethod
    def from_doc(cls, doc: dict) -> "RunManifest":
        try:
            man = cls(command=str(doc["command"]),
                      input_path=str(doc["input"]["path"]),
                      input_format=str(doc["input"]["format"]),
                      alpha=doc["alpha"],
                      seed=doc["seed"],
                      config=dict(doc["config"]),
                      outputs=dict(doc["outputs"]),
                      input_sha256=doc["input"].get("sha256"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed manifest: {exc}") from exc
        missing = [f"config.{k}" for k in _CONFIG_KEYS.get(man.command, ())
                   if k not in man.config]
        if (man.command == "delaunay" and man.config.get("mode") != "check"
                and not man.outputs.get("lengths")):
            missing.append("outputs.lengths")
        if missing:
            raise ParseError(f"malformed manifest: no {', '.join(missing)}")
        typed = [("alpha", man.alpha, "number"), ("seed", man.seed, "integer")] + [
            (f"config.{k}", man.config[k], kind) for k, kind in _CONFIG_TYPES.items() if k in man.config]
        for name, value, kind in typed:
            if type(value) not in _JSON_TYPES[kind]:
                raise ParseError(f"malformed manifest: {name} is not a JSON {kind}")
        try:
            return replace(man, alpha=float(man.alpha))
        except OverflowError as exc:
            raise ParseError(f"malformed manifest: alpha is out of range: {exc}") from exc


def _load_input(man: RunManifest):
    try:
        return mesh.load_mesh(man.input_path, fmt=man.input_format)
    except OSError as exc:
        raise ParseError(f"cannot read {man.input_path!r}: {exc}") from exc


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


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

def _execute(man: RunManifest) -> int:
    runner = {"curvature": _exec_curvature, "flow": _exec_flow,
              "solve": _exec_solve, "delaunay": _exec_delaunay}.get(man.command)
    if runner is None:
        raise ParseError(f"manifest names unknown command {man.command!r}")
    if not math.isfinite(man.alpha):
        raise NonFiniteValue(f"alpha must be finite, not {man.alpha!r}")
    return runner(man)


def _exec_curvature(man: RunManifest) -> int:
    tri, lengths = _load_input(man)
    n = tri.vertex_count
    u = np.zeros(n)
    if man.config.get("u_file"):
        u = _read_vector_file(man.config["u_file"], n, "u")
    scaled = geometry.scale_metric(tri, lengths, u)
    K = geometry.curvature(tri, scaled)
    rep = geometry.alpha_curvature(K, u, man.alpha, chi=tri.chi)
    doc = {
        "alpha": man.alpha,
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


def _exec_flow(man: RunManifest) -> int:
    tri, lengths = _load_input(man)
    cfg = flows.FlowConfig(kind=man.config["kind"],
                           dt=man.config["dt"],
                           tol=man.config["tol"],
                           max_steps=man.config["max_steps"],
                           surgery=man.config["surgery"],
                           integrator=man.config.get("integrator", "euler"))
    state, history = flows.run_flow(tri, lengths,
                                    np.zeros(tri.vertex_count),
                                    man.alpha, cfg)
    if man.outputs.get("history"):
        _atomic_write(man.outputs["history"], history.to_csv())
    if man.outputs.get("state"):
        _atomic_write(man.outputs["state"], mesh.lengths_json_text(
            state.tri, state.base, u=state.u.tolist(), alpha=man.alpha, t=state.t) + "\n")
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


def _exec_solve(man: RunManifest) -> int:
    tri, lengths = _load_input(man)
    n = tri.vertex_count
    spec = man.config.get("target", "const")
    if spec == "const":
        target = solver.Target.constant()
    else:
        target = solver.Target.prescribed(
            _read_vector_file(spec, n, "target"))
    tol = man.config.get("tol", 1e-10)
    starts = man.config.get("starts", 1)

    res = solver.newton_solve(tri, lengths, np.zeros(n), man.alpha, target,
                              tol=tol, max_iter=man.config.get("max_iter", 100))
    doc = {
        "alpha": man.alpha,
        "target": spec,
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
    if starts > 1:
        rig = solver.rigidity_check(tri, lengths, man.alpha, target,
                                    trials=starts, tol=tol, seed=man.seed)
        doc["starts"] = starts
        doc["seed"] = man.seed
        doc["spread"] = rig.spread
        doc["rigidity_pass"] = rig.passed
        log.info("%s", rig)
    if man.outputs.get("report"):
        _atomic_write(man.outputs["report"], mesh.json_text(doc) + "\n")
    if man.outputs.get("trace"):
        _atomic_write(man.outputs["trace"], solver.trace_csv(res.trace))
    print(mesh.json_text(doc))
    return 0


def _exec_delaunay(man: RunManifest) -> int:
    tri, lengths = _load_input(man)
    if man.config["mode"] == "check":
        bad = geometry.is_delaunay_all(tri, lengths)
        print(mesh.json_text({"violations": _edge_records(tri, bad),
                              "count": len(bad)}))
        return 1 if bad else 0
    tri2, lengths2, flips = geometry.make_delaunay(tri, lengths)
    out = man.outputs["lengths"]
    _atomic_write(out, mesh.lengths_json_text(tri2, lengths2) + "\n")
    print(mesh.json_text({"flips": len(flips), "out": out}))
    return 0


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
    call; callers must not modify it.
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
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("flow", help="run a curvature flow from u = 0")
    _add_common(p)
    p.add_argument("--flow", choices=("yamabe", "calabi"), default="yamabe")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-steps", type=int, default=20000)
    p.add_argument("--surgery", choices=("on", "off"), default="on")
    p.add_argument("--integrator", choices=("euler", "rk4"), default="euler")
    p.add_argument("--out-history", metavar="PATH", help="history CSV")
    p.add_argument("--out-state", metavar="PATH", help="final state JSON")
    p.set_defaults(func=cmd_flow)

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
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("delaunay", help="check or restore the Delaunay property")
    _add_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="list violating edges; exit 1 if any")
    mode.add_argument("--fix", action="store_true",
                      help="flip to Delaunay and write the result")
    p.add_argument("--out", metavar="PATH", help="lengths JSON (with --fix)")
    p.set_defaults(func=cmd_delaunay)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest", help="path to a run manifest JSON")
    p.set_defaults(func=cmd_replay)

    return parser


def _launch(args: argparse.Namespace, command: str, config: dict,
            outputs: dict) -> int:
    man = RunManifest(command=command, input_path=args.input,
                      input_format=args.format or mesh.infer_format(args.input),
                      alpha=getattr(args, "alpha", 0.0),
                      seed=getattr(args, "seed", 0),
                      config=config, outputs=outputs)
    if args.manifest:
        man = replace(man, input_sha256=_sha256(args.input))
        _atomic_write(args.manifest, mesh.json_text(man.to_doc()) + "\n")
    return _execute(man)


def cmd_curvature(args: argparse.Namespace) -> int:
    return _launch(args, "curvature", {"u_file": args.u_file}, {})


def cmd_flow(args: argparse.Namespace) -> int:
    return _launch(args, "flow",
                   {"kind": args.flow, "dt": args.dt, "tol": args.tol,
                    "max_steps": args.max_steps,
                    "surgery": args.surgery == "on",
                    "integrator": args.integrator},
                   {"history": args.out_history, "state": args.out_state})


def cmd_solve(args: argparse.Namespace) -> int:
    return _launch(args, "solve",
                   {"target": args.target, "tol": args.tol,
                    "max_iter": args.max_iter, "starts": args.starts},
                   {"report": args.out, "trace": args.out_trace})


def cmd_delaunay(args: argparse.Namespace) -> int:
    if args.fix and not args.out:
        raise ParseError("--fix requires --out")
    return _launch(args, "delaunay", {"mode": "fix" if args.fix else "check"},
                   {"lengths": args.out})


def cmd_replay(args: argparse.Namespace) -> int:
    doc = _read_json_file(args.manifest)
    if not isinstance(doc, dict):
        raise ParseError(f"{args.manifest!r} does not hold a manifest object")
    man = RunManifest.from_doc(doc)
    if _sha256(man.input_path) != man.input_sha256:  # also when none recorded
        raise ParseError(f"input {man.input_path!r} does not match the "
                         f"manifest's sha256 {man.input_sha256}")
    return _execute(man)


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
