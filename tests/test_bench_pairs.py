"""The pairing and summary of scripts/bench_pairs.py."""
import importlib.util
import json
import pathlib
import shutil
import subprocess

import pytest

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


def _pairs(parent, change):
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        runs += [_run(i, "parent", p), _run(i, "change", c)]
    return runs


_TIGHT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_verdict_follows_the_rule_for_each_case():
    """gain, regression, unresolved and within bound, with unit_ref's bound
    of 0.25 (a share of the parent's median)."""
    bp = _load()
    assert bp.BOUNDS["unit_ref"] == 0.25

    def verdict(parent, change):
        return bp.summarize(_pairs(parent, change))["unit_ref"]["verdict"]

    lower = [v - 1.0 for v in _TIGHT]
    assert verdict(_TIGHT, lower) == "gain"
    # 8 of 10 pairs won is no gain, however large the drop
    assert verdict(_TIGHT, lower[:8] + [11.0, 11.0]) == "within bound"
    # a drop inside the parent's quartile distance is no gain
    wide = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 10.0, 10.0]
    assert verdict(wide, [v - 0.5 for v in wide]) == "within bound"
    assert verdict(_TIGHT, [v * 1.3 for v in _TIGHT]) == "regression"
    assert verdict(_TIGHT, [v * 1.2 for v in _TIGHT]) == "within bound"
    spread = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 10.0, 10.0, 4.0, 16.0]
    assert verdict(spread, [v * 1.1 for v in spread]) == "unresolved"
    assert verdict(spread, [v * 1.3 for v in spread]) == "regression"


def _checkout(root, text):
    src = root / "src" / "mblft"
    src.mkdir(parents=True)
    (src / "lft.py").write_text(text)
    return root


def test_refuses_two_checkouts_of_the_same_source(tmp_path, monkeypatch, capsys):
    """Two checkouts with the same src/mblft are refused before any run;
    different ones get as far as the first run."""
    bp = _load()

    def no_run(*args):
        raise RuntimeError("ran")

    monkeypatch.setattr(bp, "run_once", no_run)
    parent = _checkout(tmp_path / "parent", "x = 1\n")
    same = _checkout(tmp_path / "same", "x = 1\n")
    other = _checkout(tmp_path / "other", "x = 2\n")
    argv = ["bench_pairs.py", "--parent", str(parent), "--workloads", "build", "--change"]
    monkeypatch.setattr("sys.argv", argv + [str(same)])
    with pytest.raises(SystemExit) as err:
        bp.main()
    assert err.value.code == 2
    assert "hold the same src/mblft" in capsys.readouterr().err
    monkeypatch.setattr("sys.argv", argv + [str(other)])
    with pytest.raises(RuntimeError, match="ran"):
        bp.main()


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=root, check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_each_run_records_whether_its_source_differs_from_its_commit(
        tmp_path, monkeypatch):
    """A checkout whose src/mblft is edited, or has a new file, after its
    commit is recorded as dirty, so that the commit recorded for its runs
    is not taken for the code that ran; a checkout without git records
    None."""
    bp = _load()
    root = _checkout(tmp_path / "repo", "x = 1\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "x")
    report = {"report": {"unit_min_ms": {"value": 1.0}, "ref_ms": {"value": 2.0}},
              "rounds": 3, "env": {"commit": "abc", "src_sha256": "def"}}
    run = subprocess.run

    def fake_run(argv, **kwargs):
        if argv[0] == "git":
            return run(argv, **kwargs)
        out = json.dumps(report) + "\n" + json.dumps({"metrics": {}}) + "\n"
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    assert bp.run_once(root, "build", 1)["src_dirty"] is False
    (root / "src" / "mblft" / "lft.py").write_text("x = 2\n")
    assert bp.run_once(root, "build", 1)["src_dirty"] is True
    _git(root, "checkout", "-q", "--", "src/mblft")
    (root / "src" / "mblft" / "new.py").write_text("y = 1\n")
    assert bp.run_once(root, "build", 1)["src_dirty"] is True
    plain = _checkout(tmp_path / "plain", "x = 1\n")
    assert bp.run_once(plain, "build", 1)["src_dirty"] is None
