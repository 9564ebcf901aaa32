"""Independent output checks, written against the documented file formats.

Only NumPy and the standard library are used; nothing here imports
plcurv, so a defect in the program cannot hide in a shared helper.
Tolerances are the ones the acceptance suite and README state.  Every
check takes the outputs of a call that exited 0 and returns a list of
failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

GAUSS_BONNET_PER_FACE = 1e-9   # acceptance check 1
MAX_DEV = 1e-8                 # acceptance check 6: deviation below 1e-8
METHODS_AGREE = 1e-6           # acceptance check 6: pairwise 1e-6
CONSERVED_REL = 1e-9           # acceptance check 4: weight sum drift
ISOMETRY = 1e-9                # acceptance check 3: flips keep curvature
DELAUNAY = 1e-9                # opposite angles of an edge sum to <= pi
IDENTITY_REL = 1e-12           # R_alpha = K * exp(-alpha * u), recomputed


class Metric:
    """A PL metric as arrays: faces (F, 3) and side (F, 3).

    ``side[f, s]`` is the length of the edge from faces[f, s] to
    faces[f, (s + 1) % 3], the edge opposite faces[f, (s + 2) % 3].
    """

    def __init__(self, vertices: int, faces: np.ndarray, side: np.ndarray):
        self.vertices, self.faces, self.side = vertices, faces, side

    @classmethod
    def from_doc(cls, doc: dict) -> "Metric":
        """Read a lengths-JSON document in the per-face record form."""
        faces = np.asarray(doc["faces"], dtype=np.int64).reshape(-1, 3)
        side = np.full(faces.shape, np.nan)
        for rec in doc["lengths"]:
            f = int(rec["face"])
            slot = (list(faces[f]).index(int(rec["opposite"])) + 1) % 3
            side[f, slot] = float(rec["length"])
        if np.isnan(side).any():
            raise ValueError("a face side has no length record")
        return cls(int(doc["vertices"]), faces, side)

    @property
    def chi(self) -> int:
        edges = 3 * len(self.faces) // 2
        return self.vertices - edges + len(self.faces)

    def scaled(self, u: np.ndarray) -> "Metric":
        """The metric with every edge {i, j} scaled by exp(u_i + u_j)."""
        ends = u[self.faces] + u[np.roll(self.faces, -1, axis=1)]
        return Metric(self.vertices, self.faces, self.side * np.exp(ends))

    def corner_angles(self) -> np.ndarray:
        """(F, 3) angle at corner c, which faces side slot (c + 1) % 3."""
        opp = np.roll(self.side, -1, axis=1)    # side facing corner c
        nxt = np.roll(self.side, -2, axis=1)
        own = self.side                         # the two sides at corner c
        scale = self.side.max(axis=1, keepdims=True)
        a, b, c = opp / scale, own / scale, nxt / scale
        cos = np.clip((b * b + c * c - a * a) / (2.0 * b * c), -1.0, 1.0)
        return np.arccos(cos)

    def curvature(self) -> np.ndarray:
        angles = self.corner_angles()
        return 2.0 * math.pi - np.bincount(
            self.faces.ravel(), weights=angles.ravel(), minlength=self.vertices)

    def delaunay_excess(self) -> np.ndarray:
        """Per edge: sum of the two opposite angles minus pi.

        Half-edges (a, b) and (b, a) pair first-come in face order, the
        rule the lengths format documents for doubled edges; both halves
        must carry the same length.
        """
        angles = self.corner_angles()
        # the angle opposite slot s sits at corner (s + 2) % 3
        opposite = np.roll(angles, -2, axis=1)
        waiting: dict[tuple[int, int], list[tuple[int, int]]] = {}
        excess = []
        faces = self.faces.tolist()
        for f, tri in enumerate(faces):
            for s in range(3):
                a, b = tri[s], tri[(s + 1) % 3]
                mates = waiting.get((b, a))
                if mates:
                    g, t = mates.pop(0)
                    if abs(self.side[f, s] - self.side[g, t]) > 1e-12 * self.side[f, s]:
                        raise ValueError(f"edge {a}-{b} has two lengths")
                    excess.append(opposite[f, s] + opposite[g, t] - math.pi)
                else:
                    waiting.setdefault((a, b), []).append((f, s))
        if any(waiting.values()):
            raise ValueError("unpaired half-edges: not a closed surface")
        return np.asarray(excess)


def _gauss_bonnet(K: np.ndarray, chi: int, faces: int) -> list[str]:
    residual = abs(float(np.sum(K)) - 2.0 * math.pi * chi)
    if not residual <= GAUSS_BONNET_PER_FACE * faces:
        return [f"Gauss-Bonnet residual {residual:.3e} over {faces} faces"]
    return []


def _constant_curvature(K: np.ndarray, u: np.ndarray, alpha: float, chi: int,
                        vertices: int) -> tuple[list[str], np.ndarray, float]:
    """Deviation and conserved-sum checks; returns (failures, R, R_av)."""
    errors = []
    weights = np.exp(alpha * u)
    R = K / weights
    R_av = 2.0 * math.pi * chi / float(np.sum(weights))
    dev = float(np.max(np.abs(R - R_av)))
    if not dev < MAX_DEV:
        errors.append(f"max |R - R_av| = {dev:.3e}")
    drift = abs(float(np.sum(weights)) - vertices) / vertices
    if not drift <= CONSERVED_REL:
        errors.append(f"conserved sum drifted by {drift:.3e} relative")
    return errors, R, R_av


def check_solve(input_doc: dict, stdout: str, alpha: float) -> list[str]:
    """A ``solve`` report: constant alpha-curvature, Gauss-Bonnet, gauge."""
    src = Metric.from_doc(input_doc)
    rep = json.loads(stdout)
    u = np.asarray(rep["u"], dtype=float)
    K = np.asarray(rep["K"], dtype=float)
    if u.shape != (src.vertices,) or K.shape != (src.vertices,):
        return ["report vectors have the wrong length"]
    errors = _gauss_bonnet(K, src.chi, len(src.faces))
    more, R, R_av = _constant_curvature(K, u, alpha, src.chi, src.vertices)
    errors += more
    reported = np.asarray(rep["R_alpha"], dtype=float)
    gap = float(np.max(np.abs(reported - R)))
    if not gap <= IDENTITY_REL * max(1.0, float(np.max(np.abs(K)))):
        errors.append(f"R_alpha differs from K*exp(-alpha*u) by {gap:.3e}")
    if not abs(float(rep["R_av"]) - R_av) <= IDENTITY_REL * max(1.0, abs(R_av)):
        errors.append("reported R_av disagrees with 2*pi*chi / sum(exp(alpha*u))")
    return errors


def check_flow(input_doc: dict, stdout: str, state_doc: dict,
               history_csv: str, alpha: float, solve_u: np.ndarray) -> list[str]:
    """A converged flow: its final metric, recomputed, against Newton's u."""
    rep = json.loads(stdout)
    if rep.get("status") != "converged":
        return [f"flow status {rep.get('status')!r}"]
    src = Metric.from_doc(input_doc)
    state = Metric.from_doc(state_doc)
    u = np.asarray(state_doc["u"], dtype=float)
    if state.vertices != src.vertices or len(state.faces) != len(src.faces):
        return ["state changed the vertex or face count"]
    K = state.scaled(u).curvature()
    errors = _gauss_bonnet(K, src.chi, len(src.faces))
    more, _, _ = _constant_curvature(K, u, alpha, src.chi, src.vertices)
    errors += more
    gap = float(np.max(np.abs(u - solve_u)))
    if not gap <= METHODS_AGREE:
        errors.append(f"flow and Newton disagree on u by {gap:.3e}")
    rows = list(csv.DictReader(io.StringIO(history_csv)))
    if len(rows) != int(rep["steps"]) + 1:
        errors.append("history has the wrong number of rows")
    return errors


def check_delaunay_fix(input_doc: dict, stdout: str,
                       output_doc: dict) -> list[str]:
    """``delaunay --fix`` output: Delaunay, isometric, same surface."""
    src = Metric.from_doc(input_doc)
    out = Metric.from_doc(output_doc)
    errors = []
    if (out.vertices, len(out.faces), out.chi) != (src.vertices, len(src.faces), src.chi):
        return ["V, F or chi changed"]
    excess = float(np.max(out.delaunay_excess()))
    if not excess <= DELAUNAY:
        errors.append(f"an output edge is non-Delaunay by {excess:.3e}")
    gap = float(np.max(np.abs(out.curvature() - src.curvature())))
    if not gap <= ISOMETRY:
        errors.append(f"per-vertex curvature moved by {gap:.3e}")
    if not isinstance(json.loads(stdout).get("flips"), int):
        errors.append("report has no flip count")
    return errors
