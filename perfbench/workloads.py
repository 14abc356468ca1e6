"""The benchmark's workloads and the output checks that run inside them.

Every op goes through mblft's public entry points in this process: the
``build`` and ``sweep`` ops call ``mblft.cli.main(argv)``, and a ``validate``
op makes the same calls as one point of ``cmd_validate``'s loop.  Each op is
timed, its exit code is kept (0, or 2/3/4 as the CLI documents), and its
outputs are checked after the clock stops.  A failed check never stops the
run: it is counted, and a wrong output (as opposed to a documented numerical
failure, exit 3) also makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from mblft import assembly, cli, lft, modelfile

MODELS = {"arm": "models/two_link_arm.yaml", "balloon": "models/balloon_planar.yaml"}
PENDULUM = "models/pendulum.yaml"

# sweep inputs: the README grid box for the arm
ARM_BOX = {"t_t1": (0.45, 1.0), "t_t2": (0.45, 2.4)}
ARM_POINTS = 100

# criterion 6's l6 grid, at which the balloon's ill-posed points are counted
PROBE_L6 = [float(v) for v in np.linspace(10.0, 60.0, 20)]

POLE_TOL = 1e-9

# The reference kernel: fixed work of the benchmark's own, in the same mix as
# mblft's (a Python dict loop and a BLAS SVD at the pinned thread count).  Timed
# between ops, it measures how fast the machine is at that moment.
REF_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
REF_LOOP = 20000


@dataclass
class Op:
    model: str            # arm, balloon or pendulum
    kind: str             # equilibrium, linearize, sample, validate or setup
    phase: str            # setup, check or run
    traced: bool
    seconds: float = 0.0
    code: int = 0         # CLI exit code; -1 for an exception the CLI would not map
    units: int = 1        # points attempted (sample, validate) or 1
    problem: str = ""     # why an output check failed
    rel_err: float | None = None
    bytes_written: int | None = None  # files written, for CLI commands

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problem)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rel(a, b) -> float:
    # same formula as cmd_validate
    na = np.linalg.norm(np.asarray(a) - np.asarray(b))
    nb = np.linalg.norm(np.asarray(b))
    return float(na / nb) if nb > 0 else float(na)


def _delta_size(export: dict) -> int:
    return sum(e["repetitions"] for tag in "AB" for e in export[tag]["delta_structure"])


def _files_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return 0


class Bench:
    """Shared state of one run: ops, reference outputs and the work directory."""

    def __init__(self, root: Path, work: Path, tracer=None):
        self.root = root
        self.work = work
        self.tracer = tracer
        self.ops: list[Op] = []
        self.first: dict = {}      # reference digest per (model, output)
        self.delta: dict = {}      # model -> Delta_A + Delta_B channels
        self.order: dict = {}      # model -> number of states
        self.exports: dict = {}    # model -> export path
        self.models: dict = {}     # model -> (MultibodyModel, LinearLftModel)

    def path(self, model: str) -> str:
        rel = PENDULUM if model == "pendulum" else MODELS[model]
        return str(self.root / rel)

    def timed(self, op: Op, fn):
        """Run ``fn`` as one op; it returns an exit code or raises."""
        if self.tracer is None:
            op.traced = False
        else:
            self.tracer.op = len(self.ops)
            self.tracer.on = op.traced
        t0 = time.perf_counter()
        try:
            op.code = fn()
        except SystemExit as exc:  # argparse rejects a command line
            op.code = exc.code if isinstance(exc.code, int) else 2
        except cli.ModelFileError:
            op.code = cli.EXIT_SCHEMA
        except cli._NUMERICAL_ERRORS:  # what cli.main maps to exit 3
            op.code = cli.EXIT_NUMERICAL
        except Exception:
            op.code = -1
            op.problem = "unhandled exception:\n" + traceback.format_exc()
        op.seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.on = False
        self.ops.append(op)
        return op

    def command(self, model, kind, phase, argv, traced=True):
        """One mblft command through ``cli.main``; stdout is captured."""
        buf = io.StringIO()

        def run():
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                return cli.main(argv)

        op = self.timed(Op(model, kind, phase, traced), run)
        return op, buf.getvalue()

    def same_as_first(self, op: Op, key, data: bytes) -> None:
        ref = self.first.setdefault(key, _digest(data))
        if ref != _digest(data):
            op.problem = f"{key[1]} output of {key[0]} differs from the first op's"

    # -- ops -----------------------------------------------------------------

    def equilibrium(self, model, phase="run", traced=True) -> Op:
        op, out = self.command(
            model, "equilibrium", phase, ["equilibrium", self.path(model)], traced)
        op.bytes_written = 0
        if op.code == 0:
            self.same_as_first(op, (model, "equilibrium"), out.encode())
        return op

    def linearize(self, model, phase="run", traced=True) -> Op:
        export = self.work / f"{model}.json"
        op, _ = self.command(
            model, "linearize", phase,
            ["linearize", self.path(model), "-o", str(export)], traced)
        op.bytes_written = _files_bytes(export)
        if op.code == 0:
            data = export.read_bytes()
            if (model, "export") not in self.first:
                parsed = json.loads(data)
                self.delta[model] = _delta_size(parsed)
                self.order[model] = len(parsed["state_names"])
                self.exports[model] = export
            self.same_as_first(op, (model, "export"), data)
        return op

    def sample(self, model, points, phase="run", traced=True) -> Op:
        pfile = self.work / "points.json"
        pfile.write_text(json.dumps(points))
        out = self.work / "sample"
        shutil.rmtree(out, ignore_errors=True)
        op, _ = self.command(
            model, "sample", phase,
            ["sample", str(self.exports[model]), "--point-file", str(pfile),
             "-o", str(out)], traced)
        op.bytes_written = _files_bytes(out)
        written = len(list(out.glob("point_*.json"))) if out.is_dir() else 0
        n = len(points)
        op.units = n if op.code == 0 else min(n, written + 1)
        if op.code == 0:
            poles = out / "poles.csv"
            rows = poles.read_text().splitlines() if poles.is_file() else []
            want = 1 + n * self.order[model]
            if written != n:
                op.problem = f"{written} point files for {n} points"
            elif not rows or rows[0] != "re,im,freq_hz,damping":
                op.problem = "poles.csv header is not re,im,freq_hz,damping"
            elif len(rows) != want:
                op.problem = f"poles.csv has {len(rows)} rows, want {want}"
        return op

    def validate(self, model, rng, traced=True) -> Op:
        mdl, lm = self.models[model]
        point = cli.sample_point(lm.parameters, rng)
        op = Op(model, "validate", "run", traced)

        def run():
            ev = cli.NonlinearEvaluator(mdl, point)
            a_fd, b_fd = cli.fd_linearize(ev, cli.FdConfig())
            a, b, _, _ = assembly.sample_model(lm, point)
            op.rel_err = max(_rel(a, a_fd), _rel(b, b_fd))
            return cli.EXIT_OK if op.rel_err <= cli.VALIDATION_TOL else cli.EXIT_VALIDATION

        self.timed(op, run)
        if op.code == cli.EXIT_VALIDATION:
            op.problem = f"rel error {op.rel_err:.3e} above {cli.VALIDATION_TOL:g}"
        return op

    def assemble(self, model) -> Op:
        def run():
            mdl = modelfile.load_model(self.path(model))
            lm = assembly.assemble(mdl)
            self.models[model] = (mdl, lm)
            self.delta[model] = lm.a.ndelta + lm.b.ndelta
            return cli.EXIT_OK

        return self.timed(Op(model, "setup", "setup", True), run)

    # -- pendulum check ---------------------------------------------------------

    def pendulum_check(self, seed: int) -> None:
        """Run every command once on the pendulum; its poles are +/- i sqrt(g/L)."""
        doc = yaml.safe_load(Path(self.path("pendulum")).read_text())
        g = float(np.linalg.norm(doc["boundary"]["acceleration"]["value"]))
        length = float(np.linalg.norm(doc["bodies"][0]["cog"]["value"]))
        self.equilibrium("pendulum", phase="check")
        self.linearize("pendulum", phase="check")
        if "pendulum" in self.exports:
            op = self.sample("pendulum", [{}], phase="check")
            if op.code == 0 and not op.problem:
                rows = (self.work / "sample" / "poles.csv").read_text().splitlines()[1:]
                got = sorted((complex(*map(float, r.split(",")[:2])) for r in rows),
                             key=lambda z: (z.imag, z.real))
                w = math.sqrt(g / length)
                want = [complex(0.0, -w), complex(0.0, w)]
                err = max(abs(x - y) for x, y in zip(got, want)) if got else math.inf
                if len(got) != 2 or err > POLE_TOL:
                    op.problem = f"pendulum poles {got} != +/- {w}i"
        self.command("pendulum", "validate", "check",
                     ["validate", self.path("pendulum"), "--points", "2",
                      "--seed", str(seed)])

    # -- balloon defect probe ---------------------------------------------------

    def ill_posed_l6(self) -> int:
        """Points of criterion 6's l6 grid at which the balloon's LFT is
        ill-posed.  Counted outside the timed ops: the balloon evaluates at
        none of the timed ops, because at more than one BLAS thread it is
        ill-posed at most of its box, and every op of a workload must succeed."""
        if "balloon" not in self.models:
            mdl = modelfile.load_model(self.path("balloon"))
            self.models["balloon"] = (mdl, assembly.assemble(mdl))
        lm = self.models["balloon"][1]
        bad = 0
        for l6 in PROBE_L6:
            try:
                assembly.sample_model(lm, {"l6": l6})
            except lft.EvaluationError:
                bad += 1
        return bad

    # -- summaries ---------------------------------------------------------

    def run_ops(self, model=None, kind=None, traced=None, ok=None) -> list:
        return [
            op for op in self.ops
            if op.phase == "run"
            and (model is None or op.model == model)
            and (kind is None or op.kind == kind)
            and (traced is None or op.traced == traced)
            and (ok is None or (not op.failed) == ok)
        ]


def reference_ms() -> float:
    """Milliseconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(REF_LOOP):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    np.linalg.svd(REF_MATRIX)
    return 1e3 * (time.perf_counter() - t0)


def unit_ms(ops, stat):
    """A workload's time per unit of work over some of its ops: ``stat`` of
    each (model, op kind)'s time per attempted point (ms), summed, so that on
    ``build`` it is one ``equilibrium`` plus one ``linearize`` of each model."""
    by_kind: dict[tuple, list] = {}
    for op in ops:
        if op.phase == "run":
            by_kind.setdefault((op.model, op.kind), []).append(1e3 * op.seconds / op.units)
    return sum(stat(v) for v in by_kind.values()) if by_kind else None


# -- workloads -------------------------------------------------------------
#
# Each workload has ``prepare`` (repeated set-up, timed into setup_s), ``round``
# (one closed-loop round of ops, inputs and order drawn from the seed) and
# ``report`` (the named metrics).  The timed ops of ``sweep`` and ``validate``
# are the arm's: the balloon is ill-posed at most points of its box at more
# than one BLAS thread, so its evaluation is counted by ``ill_posed_l6``
# instead.  Set-up still builds the balloon, for its Delta size and the probe.


class Build:
    name = "build"

    def prepare(self, b: Bench) -> None:
        # the first large SVD in a process is slow (BLAS warm-up); pay it here
        for m in MODELS:
            b.equilibrium(m, phase="setup")

    def round(self, b: Bench, rng, traced: bool) -> None:
        steps = [(m, k) for m in MODELS for k in ("equilibrium", "linearize")]
        for i in rng.permutation(len(steps)):
            model, kind = steps[i]
            getattr(b, kind)(model, traced=traced)

    def report(self, b: Bench) -> dict:
        out = {}
        for m in MODELS:
            for kind in ("equilibrium", "linearize"):
                out[f"{kind}_s.{m}"] = (
                    [op.seconds for op in b.run_ops(m, kind, ok=True)], "s")
        return out


class Sweep:
    name = "sweep"

    def prepare(self, b: Bench) -> None:
        for m in MODELS:
            b.linearize(m, phase="setup")

    def round(self, b: Bench, rng, traced: bool) -> None:
        points = [
            {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in ARM_BOX.items()}
            for _ in range(ARM_POINTS)
        ]
        b.sample("arm", points, traced=traced)

    def report(self, b: Bench) -> dict:
        return {"sample_point_ms.arm": (
            [1e3 * op.seconds / op.units for op in b.run_ops("arm", "sample", ok=True)],
            "ms")}


class Validate:
    name = "validate"

    def prepare(self, b: Bench) -> None:
        for m in MODELS:
            b.assemble(m)

    def round(self, b: Bench, rng, traced: bool) -> None:
        b.validate("arm", rng, traced=traced)

    def report(self, b: Bench) -> dict:
        ops = b.run_ops("arm", "validate")
        errs = [op.rel_err for op in ops if op.rel_err is not None]
        return {
            "validate_point_ms.arm": ([1e3 * op.seconds for op in ops], "ms"),
            "max_rel_err.arm": (max(errs) if errs else None, "1"),
        }


WORKLOADS = {w.name: w for w in (Build(), Sweep(), Validate())}
