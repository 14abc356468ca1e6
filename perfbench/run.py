"""mblft benchmark: build, sweep and validate workloads, one client, closed loop.

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports ``mblft`` from ``src/`` and reads
the shipped models).  BLAS threads are pinned to the number of usable cores,
which is what an unpinned user gets.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the gated end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  The line before it holds the full named report, with tails,
sample counts, exit-code tallies and the environment.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
REF_EVERY_S = 0.5  # a segment of the run: rounds until the reference kernel runs


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    for q in (99, 90, 75, 50):
        if len(values) * (100 - q) / 100 >= 10:
            return {"pct": q, "value": statistics.quantiles(values, n=100)[q - 1]}
    return None


def _summary(value, unit):
    if isinstance(value, list):
        return {
            "value": statistics.median(value) if value else None,
            "unit": unit, "n": len(value), "tail": _tail(value),
        }
    return {"value": value, "unit": unit}


def _blas() -> str | None:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{deps.get('name')} {deps.get('version')}"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _environment(args, nproc) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mblft").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas(),
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("build", "sweep", "validate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mblft
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import mblft from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if not Path(mblft.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: mblft imported from {mblft.__file__}, not src/",
              file=sys.stderr)
        return 2
    import numpy as np

    wl = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        if tracer is not None:
            tracer.install()
        bench = workloads.Bench(ROOT, work, tracer)
        t1 = time.perf_counter()
        bench.pendulum_check(args.seed)
        check_s = time.perf_counter() - t1
        preps = []
        for _ in range(SETUP_REPS):
            t1 = time.perf_counter()
            wl.prepare(bench)
            preps.append(time.perf_counter() - t1)
        setup_s = import_s + check_s + statistics.median(preps)
        broken = [op for op in bench.ops if op.phase == "setup" and op.failed]
        if broken:
            print(f"perfbench: set-up failed: {broken[0]}", file=sys.stderr)
            return 1

        rng = np.random.default_rng(args.seed)
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        # (fastest time per unit of work, reference kernel time) per segment, ms
        segments = []
        first = len(bench.ops)
        next_ref = time.perf_counter() + REF_EVERY_S
        while rounds < 1 + args.trace or time.perf_counter() < deadline:
            wl.round(bench, rng, traced=rounds % 2 == 0)
            rounds += 1
            if time.perf_counter() >= next_ref or time.perf_counter() >= deadline:
                unit = workloads.unit_ms(bench.ops[first:], min)
                segments.append((unit, workloads.reference_ms()))
                first = len(bench.ops)
                next_ref = time.perf_counter() + REF_EVERY_S
        unit_ref = statistics.median(u / r for u, r in segments)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ill_posed = bench.ill_posed_l6()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    unit_min_ms = workloads.unit_ms(bench.ops, min)
    counted = [op for op in bench.ops if op.phase in ("run", "check")]
    failed = sum(op.failed for op in counted)
    codes: dict[str, int] = {}
    for op in counted:
        codes[str(op.code)] = codes.get(str(op.code), 0) + 1
    problems = [f"{op.model} {op.kind}: {op.problem}" for op in bench.ops if op.problem]
    problems += [f"{op.model} {op.kind}: exit {op.code}"
                 for op in bench.ops if op.code == 2 and not op.problem]
    correct = not problems

    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        **{f"delta_size.{m}": (bench.delta.get(m), "channels") for m in workloads.MODELS},
        "failed_frac": (failed / len(counted), "1"),
        "ill_posed_l6.balloon": (ill_posed, "count"),
        "unit_min_ms": (unit_min_ms, "ms"),
        "unit_ms": ([u for u, _ in segments], "ms"),
        "ref_ms": ([r for _, r in segments], "ms"),
        **wl.report(bench),
    }
    report = {name: _summary(v, u) for name, (v, u) in named.items()}
    setup_parts = {"import_s": import_s, "check_s": check_s, "prepare_s": preps}
    env = _environment(args, nproc)

    if args.trace:
        metrics = {}
        for m in workloads.MODELS:
            for name, (value, unit) in tracer.layer_metrics(bench.ops, m).items():
                metrics[name] = {"value": value, "unit": unit}
        metrics["lft.LftMatrix.evaluate.ill_posed_l6.balloon"] = {
            "value": ill_posed, "unit": "count"}
        on, off = (workloads.unit_ms(bench.run_ops(traced=traced), statistics.median)
                   for traced in (True, False))
        metrics["trace.overhead_ms"] = {"value": on - off, "unit": "ms"}
        ids = {i for i, op in enumerate(bench.ops) if op.model in workloads.MODELS}
        calls = tracer.calls_by_name(ids)
        idle = [n for n in spans.MUST_WORK[args.workload] if not calls.get(n)]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", bench.ops)
        if idle:
            print(f"perfbench: traced run recorded no calls to {', '.join(idle)} "
                  f"on {args.workload}; a wrapper missed the binding its caller uses",
                  file=sys.stderr)
            return 1
    else:
        gated = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "unit_ref": (unit_ref, "ref"),
            **{f"delta_size.{m}": (bench.delta.get(m), "channels")
               for m in workloads.MODELS},
        }
        missing = [n for n, (v, _) in gated.items() if v is None]
        if missing:
            print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in gated.items()}

    print(json.dumps({"report": report, "setup": setup_parts,
                      "exit_codes": codes, "rounds": rounds,
                      "problems": problems[:10], "env": env}))
    print(json.dumps({"correct": correct, "attempted": len(counted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
