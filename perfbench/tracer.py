#!/usr/bin/env python3
"""Run one hflsim command with its layers timed from the outside.

    python3 perfbench/tracer.py SPANS.npz <hflsim arguments...>

Every public function and public method defined in the layer modules
(datasets, experiments, mobility, models, engine, analysis, cli) is
replaced by a wrapper that records a span (name, start, end, parent
span). A function is also replaced under every other name it is bound
to inside the package, because callers look it up there: engine and
analysis import gradient_xy, loss and accuracy by name, and cli does the
same for write_checkpoint. Spans stay in memory until the command ends;
they are then written to SPANS.npz together with a few counters, and
every original function is put back. The exit code is the command's.

The program under test is not modified: hflsim must be importable
(run.py puts src/ on PYTHONPATH).
"""

import functools
import json
import os
import sys
import time
import types
from array import array

import numpy as np

from hflsim import analysis, cli, datasets, engine, experiments, mobility, models

LAYERS = (datasets, experiments, mobility, models, engine, analysis, cli)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {"models.gradient_xy.rows": 0, "mobility.handoffs": 0,
                         "analysis.estimate_divergences.probes": 0, "cli.bytes_written": 0}
        self.delta_m = []          # delta_m returned by each estimate_divergences call
        self._prev_edge_of = None
        self._patched = []         # (owner, attribute, original)

    # --- counters, taken after the call with the call's own arguments ---

    def _rows(self, result, spec, w, X, y):
        self.counters["models.gradient_xy.rows"] += X.shape[0]

    def _handoffs(self, result, network, states, time=0.0):
        if time > 0.0 and self._prev_edge_of is not None:
            self.counters["mobility.handoffs"] += int(np.count_nonzero(
                self._prev_edge_of != result.edge_of))
        self._prev_edge_of = result.edge_of.copy()

    def _probes(self, result, spec, shards, association_history, probes, tau_l=1):
        self.counters["analysis.estimate_divergences.probes"] += \
            np.atleast_2d(np.asarray(probes)).shape[0]
        self.delta_m.append([float(v) for v in result.delta_m])

    def _text_bytes(self, result, path, text):
        self.counters["cli.bytes_written"] += len(text.encode("utf-8"))

    def _checkpoint_bytes(self, result, path, state, cfg_hash):
        self.counters["cli.bytes_written"] += os.path.getsize(path)

    def _hooks(self):
        return {"models.gradient_xy": self._rows,
                "mobility.associate": self._handoffs,
                "analysis.estimate_divergences": self._probes,
                "cli.atomic_write_text": self._text_bytes,
                "engine.write_checkpoint": self._checkpoint_bytes}

    # --- spans ---

    def _wrap(self, name, fn, hook):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(result, *args, **kwargs)
            return result
        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        hooks = self._hooks()
        wrapped = {}  # id(original) -> wrapper
        for mod in LAYERS:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._wrap(name, obj, hooks.pop(name, None))
                    self._patch(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, type):
                    for mattr, fn in list(vars(obj).items()):
                        if not mattr.startswith("_") and isinstance(fn, types.FunctionType):
                            name = f"{short}.{obj.__name__}.{mattr}"
                            self._patch(obj, mattr, self._wrap(name, fn, hooks.pop(name, None)))
        if hooks:
            raise RuntimeError(f"traced functions not found: {sorted(hooks)}")
        # rebind from-imported names (engine.gradient_xy, cli.write_checkpoint, ...)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hflsim" or modname.startswith("hflsim.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def save(self, path):
        meta = {"counters": self.counters, "delta_m": self.delta_m}
        np.savez(path, names=np.array(self.names, dtype=str),
                 span_name=np.frombuffer(self.span_name, dtype=np.intc),
                 span_parent=np.frombuffer(self.span_parent, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 meta=np.array(json.dumps(meta)))


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(command)
    finally:
        tracer.restore()
        tracer.save(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
