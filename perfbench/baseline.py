#!/usr/bin/env python3
"""Restate the ROADMAP North-star profile from traced benchmark runs.

    python3 perfbench/baseline.py [--seed 0] [--out perfbench/results/baseline.json]

Runs ``run.py --trace 1`` once on each workload (a warm-up, an untraced
and one traced call each) and writes the shares the North star quotes: on
newton-torus, the wall search against the per-face energy, iterations
and flips; on yamabe-torus, steps, time per step and the share of steps
taken at the dt cap; on delaunay-sliver, the layer with the largest
self time.  Takes about a minute.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=str(HERE / "results" / "baseline.json"))
    args = p.parse_args()

    runs = {w: traced(w, args.seed)
            for w in ("newton-torus", "yamabe-torus", "delaunay-sliver")}
    if not all(r["correct"] for _, r in runs.values()):
        print("a traced run failed its checks", file=sys.stderr)
        return 1

    rec, res = runs["newton-torus"]
    wall = value(res, "solver.wall_search.total_pct")
    energy = value(res, "solver.energy_W_alpha.total_pct")
    newton = {
        "V": rec["generator"]["m"] ** 2,
        "untraced_wall_s": rec["untraced_call_s"],
        "iterations": value(res, "solver.iterations"),
        "flips": rec["report"]["flips"],
        "wall_search_pct": wall,
        "energy_W_alpha_inclusive_pct": energy,
        "triangle_energy_self_pct": value(res, "solver.triangle_energy.self_pct"),
        "delaunay_margin_self_pct": value(res, "geometry.delaunay_margin.self_pct"),
        "margin_scans_per_search": value(res, "solver.margin_scans_per_search"),
        "wall_hit_rate": value(res, "solver.wall_hit_rate"),
        "wall_search_plus_energy_pct": wall + energy,
        "split_at_least_80_pct": wall + energy >= 80.0,
    }

    rec, res = runs["yamabe-torus"]
    steps = value(res, "flows.step.calls")
    yamabe = {
        "V": rec["generator"]["m"] ** 2,
        "untraced_wall_s": rec["untraced_call_s"],
        "steps": steps,
        "untraced_s_per_step": rec["untraced_call_s"] / steps,
        "dt_at_cap_share": value(res, "flows.dt_at_cap_share"),
        "accept_ratio": value(res, "flows.accept_ratio"),
        "flips_during_flow": value(res, "flows.flips"),
        "wall_search_pct": value(res, "solver.wall_search.total_pct"),
        "energy_W_alpha_inclusive_pct": value(res, "solver.energy_W_alpha.total_pct"),
    }

    rec, res = runs["delaunay-sliver"]
    self_s = {name: layer["self_s"] for name, layer in rec["layers"].items()}
    largest = max(self_s, key=self_s.get)
    sliver = {
        "untraced_wall_s": rec["untraced_call_s"],
        "flips": value(res, "mesh.Triangulation.flip.calls"),
        "flip_total_pct": value(res, "mesh.Triangulation.flip.total_pct"),
        "largest_self_time_layer": largest,
        "untraced_ms_per_flip": 1e3 * rec["untraced_call_s"] / value(res, "mesh.Triangulation.flip.calls"),
    }

    env = dict(runs["newton-torus"][0]["environment"], cpu_model=cpu_model())
    doc = {"seed": args.seed, "environment": env, "claim": None,
           "newton-torus": newton, "yamabe-torus": yamabe,
           "delaunay-sliver": sliver}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
