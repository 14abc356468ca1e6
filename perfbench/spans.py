"""Spans around mblft's public functions, recorded from the benchmark's side.

A ``Tracer`` replaces each function named in ``TARGETS`` with a wrapper that
records one span per call: name, start, end, parent span, the benchmark op
it belongs to, whether it raised, and a small note (Delta sizes for the LFT
layer).  Functions are rebound in every ``mblft`` module that holds them, so
a name is wrapped where its caller looks it up (``cli`` binds ``load_model``
at import, ``assembly`` binds ``revolute_dcm_lft``, and so on).  Methods are
wrapped on their class.  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from dataclasses import asdict

# (module, attribute or Class.method) of every wrapped function.
TARGETS = (
    ("mblft.modelfile", "load_model"),
    ("mblft.assembly", "step1_geometry"),
    ("mblft.assembly", "step2_wrenches"),
    ("mblft.assembly", "step3_linearize"),
    ("mblft.assembly", "modes"),
    ("mblft.lft", "reduce_lft"),
    ("mblft.lft", "LftMatrix.inv"),
    ("mblft.lft", "LftMatrix.evaluate"),
    ("mblft.lft", "LftMatrix.to_dict"),
    ("mblft.lft", "LftMatrix.from_dict"),
    ("mblft.joints", "revolute_dcm_lft"),
    ("mblft.spatial", "tau_lft"),
    ("mblft.bodies", "RigidBody.port_position_lft"),
    ("mblft.bodies", "direct_dynamics_at_port"),
    ("mblft.oracle", "NonlinearEvaluator.__init__"),
    ("mblft.oracle", "NonlinearEvaluator.residual"),
    ("mblft.oracle", "fd_linearize"),
    ("mblft.cli", "main"),
)

CLI = "cli.main"


def span_name(module: str, attr: str) -> str:
    return module.removeprefix("mblft.") + "." + attr.replace("__init__", "init")


def _reduce_note(args, out):
    return None if out is None else (args[0].ndelta, out.ndelta)


def _evaluate_note(args, out):
    return args[0].ndelta


NOTES = {
    "lft.reduce_lft": _reduce_note,
    "lft.LftMatrix.evaluate": _evaluate_note,
}

# Spans that must record calls on a workload: the layers it is meant to load.
# A zero here means a wrapper was put on a binding nobody calls.
MUST_WORK = {
    "build": (
        "modelfile.load_model", "assembly.step1_geometry",
        "assembly.step2_wrenches", "assembly.step3_linearize",
        "lft.reduce_lft", "lft.LftMatrix.inv", "lft.LftMatrix.to_dict",
        "joints.revolute_dcm_lft", "spatial.tau_lft",
        "bodies.RigidBody.port_position_lft",
        "bodies.direct_dynamics_at_port", CLI,
    ),
    "sweep": (
        "lft.reduce_lft", "lft.LftMatrix.evaluate", "assembly.modes",
        "lft.LftMatrix.from_dict", CLI,
    ),
    "validate": (
        "lft.reduce_lft", "lft.LftMatrix.evaluate",
        "oracle.NonlinearEvaluator.init", "oracle.NonlinearEvaluator.residual",
        "oracle.fd_linearize",
    ),
}

# Per-layer metrics as (span, statistic, unit); each is reported per model.
#   calls      median calls per op, over ops that made at least one
#   s          median inclusive seconds per op, over the same ops
#   channels_* median summed Delta channels into / out of reduce_lft per op
#   noop_frac  share of reduce_lft calls that removed no channel
#   failed     share of calls that raised
#   delta_mean mean Delta channels per call
#   self_s     mean seconds per command not covered by a wrapped child span
#   bytes      mean bytes of files written per command
LAYER_METRICS = (
    ("modelfile.load_model", "calls", "count"),
    ("modelfile.load_model", "s", "s"),
    ("assembly.step1_geometry", "s", "s"),
    ("assembly.step2_wrenches", "s", "s"),
    ("assembly.step3_linearize", "s", "s"),
    ("lft.reduce_lft", "calls", "count"),
    ("lft.reduce_lft", "s", "s"),
    ("lft.reduce_lft", "channels_in", "channels"),
    ("lft.reduce_lft", "channels_out", "channels"),
    ("lft.reduce_lft", "noop_frac", "1"),
    ("lft.LftMatrix.inv", "s", "s"),
    ("lft.LftMatrix.evaluate", "calls", "count"),
    ("lft.LftMatrix.evaluate", "s", "s"),
    ("lft.LftMatrix.evaluate", "failed", "1"),
    ("lft.LftMatrix.evaluate", "delta_mean", "channels"),
    ("assembly.modes", "calls", "count"),
    ("assembly.modes", "s", "s"),
    ("lft.LftMatrix.to_dict", "s", "s"),
    ("lft.LftMatrix.from_dict", "s", "s"),
    ("joints.revolute_dcm_lft", "calls", "count"),
    ("spatial.tau_lft", "calls", "count"),
    ("bodies.RigidBody.port_position_lft", "calls", "count"),
    ("bodies.direct_dynamics_at_port", "calls", "count"),
    ("oracle.NonlinearEvaluator.init", "s", "s"),
    ("oracle.fd_linearize", "calls", "count"),
    ("oracle.fd_linearize", "s", "s"),
    ("oracle.NonlinearEvaluator.residual", "calls", "count"),
    ("oracle.NonlinearEvaluator.residual", "s", "s"),
    ("cli", "self_s", "s"),
    ("cli", "bytes_written", "B"),
)


class Tracer:
    """Records spans while ``on``; ``op`` tags each span with its op id."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.on = False
        self._undo: list = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            out, failed = None, True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (
                    name, t0, t1, parent, self.op, failed,
                    note(args, out) if note else None,
                )

        return wrapper

    def install(self) -> None:
        for module, attr in TARGETS:
            name = span_name(module, attr)
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            raw = getattr(mod, attr)
            new = self._wrap(name, raw)
            for key, holder in list(sys.modules.items()):
                if key != "mblft" and not key.startswith("mblft."):
                    continue
                for var, val in list(vars(holder).items()):
                    if val is raw:
                        setattr(holder, var, new)
                        self._undo.append((holder, var, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def dump(self, path, ops) -> None:
        """Write every span, then every op, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, failed, note) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": i, "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": op, "failed": failed, "note": note,
                }) + "\n")
            for i, op in enumerate(ops):
                fh.write(json.dumps({"op": i, **asdict(op)}) + "\n")

    # -- aggregation -------------------------------------------------------

    def calls_by_name(self, op_ids) -> dict:
        out: dict[str, int] = {}
        for s in self.spans:
            if s[4] in op_ids:
                out[s[0]] = out.get(s[0], 0) + 1
        return out

    def layer_metrics(self, ops, model: str) -> dict:
        """Per-layer statistics of one model's traced ops (see LAYER_METRICS).

        A layer is summarised over the timed ops that called it; a layer only
        set-up calls (reduction on ``sweep``) is summarised over set-up ops.
        """
        phase_of = {i: op.phase for i, op in enumerate(ops)
                    if op.model == model and op.traced and op.phase in ("setup", "run")}
        per_op: dict[tuple, list] = {}   # (name, op) -> [calls, seconds, in, out]
        calls: dict[tuple, list] = {}    # (name, phase) -> [(span, failed, note)]
        child = [0.0] * len(self.spans)
        for i, (name, t0, t1, parent, op, failed, note) in enumerate(self.spans):
            if op not in phase_of:
                continue
            if parent >= 0:
                child[parent] += t1 - t0
            rec = per_op.setdefault((name, op), [0, 0.0, 0, 0])
            rec[0] += 1
            rec[1] += t1 - t0
            if name == "lft.reduce_lft" and note:
                rec[2] += note[0]
                rec[3] += note[1]
            calls.setdefault((name, phase_of[op]), []).append((i, failed, note))

        def pick(name):
            return next((ph for ph in ("run", "setup") if (name, ph) in calls), None)

        def med(name, k):
            ph = pick(name)
            vals = [r[k] for (n, op), r in per_op.items()
                    if n == name and phase_of[op] == ph]
            return statistics.median(vals) if vals else 0

        def mean(vals):
            return sum(vals) / len(vals) if vals else 0.0

        out = {}
        for name, stat, unit in LAYER_METRICS:
            got = calls.get((name, pick(name)), [])
            if stat in ("calls", "s", "channels_in", "channels_out"):
                value = med(name, ("calls", "s", "channels_in", "channels_out").index(stat))
            elif stat == "noop_frac":
                value = mean([n[0] == n[1] for _, _, n in got if n])
            elif stat == "failed":
                value = mean([f for _, f, _ in got])
            elif stat == "delta_mean":
                value = mean([n for _, _, n in got])
            else:
                cmd = calls.get((CLI, pick(CLI)), [])
                if stat == "self_s":
                    value = mean([self.spans[i][2] - self.spans[i][1] - child[i]
                                  for i, _, _ in cmd])
                else:  # bytes_written
                    value = mean([ops[self.spans[i][4]].bytes_written for i, _, _ in cmd])
            out[f"{name}.{stat}.{model}"] = (value, unit)
        return out
