"""The pairing and summary of scripts/bench_pairs.py."""
import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(pair, side, unit_ref):
    return {"pair": pair, "side": side,
            "result": {"metrics": {"unit_ref": {"value": unit_ref}}}}


def test_summary_compares_runs_within_each_pair():
    """Wins are counted pair by pair, ties for neither side, whatever order
    the two runs of a pair were made in; a pair missing a side is left out."""
    bp = _load()
    parent = [0.10, 0.12, 0.11, 0.13, 0.09]
    change = [0.08, 0.12, 0.12, 0.07, 0.06]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        first, second = (("parent", p), ("change", c))[:: 1 if i % 2 == 0 else -1]
        runs += [_run(i, *first), _run(i, *second)]
    runs.append(_run(5, "parent", 1.0))
    s = bp.summarize(runs)["unit_ref"]
    assert (s["pairs"], s["change_wins"], s["parent_wins"]) == (5, 3, 1)
    assert s["parent"]["median"] == 0.11 and s["change"]["median"] == 0.08
    assert s["parent"]["values"] == parent and s["change"]["values"] == change
