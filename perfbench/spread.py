"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workloads sweep --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --record perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the runs,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound in
BENCHMARK.json.  ``--record`` also makes one traced run per workload and
writes everything, with each run's full report, to a JSON file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """(result line, report line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--record", help="write runs and summary to this JSON file")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, report = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "result": result, "report": report})
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound}
            print(f"  {name:22s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}", flush=True)
            print("    runs: " + " ".join(f"{v:.5g}" for v in values), flush=True)
        entry = {"summary": summary, "runs": runs}
        if args.record:
            entry["traced"] = dict(zip(("result", "report"),
                                       run_once(workload, args.seeds[0], args.seconds, 1)))
        record["workloads"][workload] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
