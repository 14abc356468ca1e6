#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py --parent ../mblft-parent --workloads validate \\
        --seed 1 --record BENCH.json

For each workload it makes 10 pairs of runs.  Each pair runs
``perfbench/run.py`` once in the parent checkout and once in the change
checkout (by default this repository), with the same seed and
``BENCHMARK.json``'s run length; even pairs run the parent first, odd pairs
the change.  The parent
can be any checkout of the other commit, a ``git worktree`` included.  Each
run is recorded with its result line (the gated metrics) and, from its report
line, ``unit_min_ms``, ``ref_ms`` (the median reference-kernel time),
``rounds``, the commit and the hash of ``src/mblft``, and with
``src_dirty``: whether the checkout's ``src/mblft`` differs from that
commit, as a change measured before it is committed does.

For every workload and gated metric it prints each side's median and
quartiles (``statistics.quantiles(values, n=4)``), how many pairs the
change won, ties counting for neither side (a metric is won by the lower
value, as every gated metric is), and a verdict, first that applies:

- *gain*: the change is lower in at least 9 of 10 pairs, and its median
  is below the parent's by more than the parent's quartile distance;
- *regression*: the change's median is above the parent's by more than
  the metric's ``bound`` in ``BENCHMARK.json``, a share of the parent's
  median;
- *unresolved*: the parent's quartile distance, as a share of its
  median, is wider than the bound;
- *within bound*: everything else.

It refuses to run when both checkouts hold the same ``src/mblft``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
PAIRS = 10
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def src_sha256(checkout: Path) -> str:
    """The hash of ``src/mblft`` that ``perfbench/run.py`` records."""
    src = hashlib.sha256()
    for path in sorted((checkout / "src" / "mblft").glob("*.py")):
        src.update(path.read_bytes())
    return src.hexdigest()


def src_dirty(checkout: Path) -> bool | None:
    """Whether ``src/mblft`` in ``checkout`` differs from its ``HEAD`` (an
    edited, new or deleted file); None for a checkout without git, for
    which ``perfbench/run.py`` records no commit."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src/mblft"],
                          cwd=checkout, capture_output=True, text=True, timeout=60)
    return proc.stdout != "" if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``checkout``, as recorded."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    return {
        "result": result,
        "unit_min_ms": report["report"]["unit_min_ms"]["value"],
        "ref_ms": report["report"]["ref_ms"]["value"],
        "rounds": report["rounds"],
        "commit": report["env"]["commit"],
        "src_dirty": src_dirty(checkout),
        "src_sha256": report["env"]["src_sha256"],
    }


def _stats(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def verdict(s: dict, bound: float) -> str:
    """The verdict on one metric's summary (see the module docstring)."""
    parent, change = s["parent"], s["change"]
    spread = parent["q3"] - parent["q1"]
    if 10 * s["change_wins"] >= 9 * s["pairs"] and parent["median"] - change["median"] > spread:
        return "gain"
    if change["median"] - parent["median"] > bound * parent["median"]:
        return "regression"
    if spread > bound * parent["median"]:
        return "unresolved"
    return "within bound"


def summarize(runs: list) -> dict:
    """Per gated metric: each side's median and quartiles, pairs won and
    the verdict."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    summary = {}
    for name in pairs[0]["parent"]["result"]["metrics"]:
        vals = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                for side in SIDES}
        summary[name] = {
            **{side: _stats(v) for side, v in vals.items()},
            "change_wins": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
            "parent_wins": sum(p < c for p, c in zip(vals["parent"], vals["change"])),
            "pairs": len(pairs),
        }
        summary[name]["verdict"] = verdict(summary[name], BOUNDS[name])
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="parent checkout")
    p.add_argument("--change", type=Path, default=ROOT, help="change checkout")
    p.add_argument("--workloads", nargs="+", required=True,
                   choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--record", type=Path, help="write runs and summaries to this JSON file")
    args = p.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if src_sha256(checkouts["parent"]) == src_sha256(checkouts["change"]):
        p.error(f"{checkouts['parent']} and {checkouts['change']} hold the same src/mblft")
    record = {"seconds": BENCHMARK["run_seconds"], "pairs": PAIRS, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for i in range(PAIRS):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for k, side in enumerate(order):
                run = run_once(checkouts[side], workload, seed)
                runs.append({"pair": i, "side": side, "first": k == 0, "seed": seed,
                             **run})
                m = run["result"]["metrics"]
                print(f"{workload} pair {i} seed {seed} {side:6s} "
                      f"unit_ref {m['unit_ref']['value']:.5g} "
                      f"unit_min_ms {run['unit_min_ms']:.5g} "
                      f"failed {run['result']['failed']}/{run['result']['attempted']}",
                      flush=True)
        summary = summarize(runs)
        for name, s in summary.items():
            print(f"  {name:20s} parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]  "
                  f"change {s['change']['median']:.6g} "
                  f"[{s['change']['q1']:.6g}, {s['change']['q3']:.6g}]  "
                  f"change lower in {s['change_wins']}/{s['pairs']}  {s['verdict']}",
                  flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        if args.record:
            args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
