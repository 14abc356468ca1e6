"""The library holds what the pipeline runs.

Every function defined in ``src/mblft`` is called by some CLI command on
the shipped models, or is on ``ALLOWED`` with a one-word reason.  A member
that only tests reach belongs in the tests.
"""
import ast
import json
import pathlib
import sys

import mblft
from mblft import cli

SRC = pathlib.Path(mblft.__file__).parent
MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"

# module -> qualified name -> why no command on a shipped model calls it:
#   reflected, operator, algebra  the public LFT and expression algebra
#   repr, abstract                reprs and the abstract Expr methods
#   error                         raises on input that no shipped model has
#   oracle                        the oracle's own physics checks
#   criterion                     acceptance criterion 4 (quarter angle)
#   zero-spread                   an angle parameter whose box is one value
ALLOWED = {
    "lft": {
        "Expr.__radd__": "reflected",
        "Expr.__rmul__": "reflected",
        "Expr.__rtruediv__": "reflected",
        "Expr.__sub__": "operator",
        "Expr.params": "abstract",
        "Expr.value": "abstract",
        "Const.__repr__": "repr",
        "Ref.__repr__": "repr",
        "BinOp.__repr__": "repr",
        "PowOp.__repr__": "repr",
        "LftMatrix.__repr__": "repr",
        "LftMatrix.__radd__": "reflected",
        "LftMatrix.__rsub__": "reflected",
        "LftMatrix.__rmatmul__": "reflected",
        "LftMatrix.__mul__": "operator",
        "LftMatrix.scale": "algebra",
        "LftMatrix.occurrences": "algebra",
        "LftMatrix._check_point": "error",
        "EvaluationError.__init__": "error",
        "HalfTanParam.angle_nominal": "zero-spread",
        "rotation_lft_quarter": "criterion",
    },
    "modelfile": {
        "_where": "error",
        "_err": "error",
    },
    "spatial": {
        "GimbalLockError.__init__": "error",
        "check_dcm": "error",
    },
    "oracle": {
        "NonlinearEvaluator._stack": "oracle",
        "NonlinearEvaluator.energy": "oracle",
        "NonlinearEvaluator.accel": "oracle",
        "NonlinearEvaluator.f": "oracle",
        "NonlinearEvaluator.trim_inputs": "oracle",
    },
}


def _defined() -> dict:
    """(file, first line) -> "module:qualname" of every def in the package;
    a decorated def's code starts at its first decorator."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = f"{module}:{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def _run_commands(tmp_path) -> None:
    """Every command on every shipped model: equilibrium, linearize,
    validate at one random point, and sample with a grid (models with
    parameters) and with a point file."""
    for model in ("pendulum", "two_link_arm", "balloon_planar"):
        path = str(MODELS / f"{model}.yaml")
        export = tmp_path / f"{model}.json"
        for args in (
            ["equilibrium", path],
            ["linearize", path, "-o", str(export)],
            ["validate", path, "--points", "1"],
        ):
            assert cli.main(args) == 0, args
        params = json.loads(export.read_text())["parameters"]
        points = tmp_path / "points.json"
        points.write_text(json.dumps([{}, {n: p["upper"] for n, p in params.items()}]))
        runs = [["--point-file", str(points)]]
        if params:
            name, p = next(iter(params.items()))
            runs.append(["--grid", f"{name}={p['lower']}:{p['upper']}:2"])
        for i, run in enumerate(runs):
            out = tmp_path / f"{model}_{i}"
            assert cli.main(["sample", str(export)] + run + ["-o", str(out)]) == 0


def test_every_library_function_runs_in_a_command_or_is_allowed(tmp_path, capsys):
    defined = _defined()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_commands(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    allowed = {f"{m}:{q}" for m, names in ALLOWED.items() for q in names}
    never = sorted(defined[key] for key in defined.keys() - called)
    assert [n for n in never if n not in allowed] == []
    # an entry for a function that runs, or no longer exists, is stale
    assert sorted(allowed - set(never)) == []
