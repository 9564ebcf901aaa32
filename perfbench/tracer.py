"""Outside-in tracer for plcurv: wrap entry points, keep spans in memory.

Nothing inside plcurv is edited.  ``Tracer.install`` replaces each target
function by a wrapper in every place plcurv holds it by name: the
defining module and every module that did ``from .x import name``.  A
wrapper records one span (layer, parent span, start, end, tag) per call.
``uninstall`` puts every original binding back.  Self time is computed
from the spans afterwards: a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (layer, module, attribute); the attribute may be "Class.method".
TARGETS = (
    ("cli.main", "plcurv.cli", "main"),
    ("mesh.load_mesh", "plcurv.mesh", "load_mesh"),
    ("mesh.build_triangulation", "plcurv.mesh", "build_triangulation"),
    ("mesh.Triangulation.flip", "plcurv.mesh", "Triangulation.flip"),
    ("geometry.make_delaunay", "plcurv.geometry", "make_delaunay"),
    ("geometry.is_delaunay", "plcurv.geometry", "is_delaunay"),
    ("geometry.flip_length", "plcurv.geometry", "flip_length"),
    ("geometry.delaunay_margin", "plcurv.geometry", "delaunay_margin"),
    ("geometry.scale_metric", "plcurv.geometry", "scale_metric"),
    ("geometry.curvature", "plcurv.geometry", "curvature"),
    ("geometry.degenerate_faces", "plcurv.geometry", "degenerate_faces"),
    ("geometry.curvature_jacobian", "plcurv.geometry", "curvature_jacobian"),
    ("solver.energy_W_alpha", "plcurv.solver", "energy_W_alpha"),
    ("solver.triangle_energy", "plcurv.solver", "triangle_energy"),
    ("solver.wall_search", "plcurv.solver", "_first_wall"),
    ("solver.newton_solve", "plcurv.solver", "newton_solve"),
    # the solver reaches numpy.linalg.solve through the numpy module
    ("solver.linear_solve", "numpy.linalg", "solve"),
    ("flows.step", "plcurv.flows", "step"),
)

# A tag marks spans by their result; only the wall search has one: a hit.
TAGS = {"solver.wall_search": lambda result: bool(result[1])}


class Tracer:
    def __init__(self):
        self.layers = [t[0] for t in TARGETS]
        self.layer_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("b")
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    # --- installation --------------------------------------------------

    def _wrap(self, layer_index: int, fn):
        tag = TAGS.get(self.layers[layer_index])
        stack, clock = self._stack, time.perf_counter
        layer_id, parent, start, end, tags = (self.layer_id, self.parent,
                                              self.start, self.end, self.tag)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            layer_id.append(layer_index)
            parent.append(stack[-1])
            tags.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tag is not None and tag(result):
                tags[idx] = 1
            return result

        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        plcurv_modules = [m for name, m in sorted(sys.modules.items())
                          if name == "plcurv" or name.startswith("plcurv.")]
        for index, (_, module_name, attr) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(index, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            if not module_name.startswith("plcurv"):
                self._rebind(owner, attr, wrapper)
            for module in plcurv_modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every binding install replaced holds its original."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._bindings)

    # --- aggregation ---------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive total_s, self_s and tagged count.

        Also per (parent layer, child layer) call counts under the key
        ``"parents"`` of each child layer.
        """
        n = len(self.start)
        layer = np.array(self.layer_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        tag = np.array(self.tag, dtype=np.int8)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
        out = {}
        for index, name in enumerate(self.layers):
            mine = layer == index
            parents = {}
            for p in np.unique(parent_layer[mine]):
                key = "(root)" if p < 0 else self.layers[p]
                parents[key] = int(np.count_nonzero(mine & (parent_layer == p)))
            out[name] = {"calls": int(np.count_nonzero(mine)),
                         "total_s": float(dur[mine].sum()),
                         "self_s": float(self_time[mine].sum()),
                         "tagged": int(np.count_nonzero(tag[mine])),
                         "parents": parents}
        return out
