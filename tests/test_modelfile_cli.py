"""Model-file schema validation and the command-line front end."""
import copy
import json
import math
import os
import pathlib
import stat
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mblft import assembly, cli, lft, modelfile
from mblft.modelfile import ModelFileError, load_model, parse_model
from mblft.spatial import dcm_from_euler, rotation_about_axis

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"

MINIMAL = """
name: tiny
bodies:
  - name: bob
    role: inverse
    mass: {value: 1.0, unit: kg}
    inertia: {value: [0.0, 0.0, 0.0], unit: kg*m^2}
    cog: {value: [0.0, 0.0, -1.0], unit: m}
connections:
  - type: revolute
    name: pivot
    parent: ground.ref
    child: bob.ref
    axis: [1.0, 0.0, 0.0]
    angle: {value: 0.0, unit: rad}
boundary:
  acceleration: {value: [0.0, 0.0, 9.81], unit: m/s^2}
root:
  kind: ground
"""


def _write(tmp_path, text, name="model.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_shipped_models_load():
    for name in ("pendulum.yaml", "two_link_arm.yaml", "balloon_planar.yaml"):
        model = load_model(MODELS / name)
        assert model.bodies and model.connections


def test_inertia_range_below_zero_rejected(tmp_path, capsys):
    """A model whose inertia parameter reaches negative values over its box
    is a schema error naming the body and the box corner, not a model that
    loads and assembles."""
    text = (MODELS / "two_link_arm.yaml").read_text()
    old = "J1:   {kind: uncertain, nominal: 0.2,  lower: 0.18,"
    assert old in text
    bad = _write(tmp_path, text.replace(old, old.replace("0.18", "-0.1")))
    with pytest.raises(ModelFileError, match="link1.*positive semidefinite") as err:
        load_model(bad)
    assert "{'J1': -0.1, 'm1': 3.15}" in str(err.value)
    assert cli.main(["linearize", str(bad), "-o", str(tmp_path / "x.json")]) == (
        cli.EXIT_SCHEMA
    )
    assert "positive semidefinite" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_minimal_model_loads(tmp_path):
    model = load_model(_write(tmp_path, MINIMAL))
    assert model.name == "tiny"
    assert len(model.bodies) == 1


def test_unknown_key_rejected_with_line(tmp_path):
    bad = MINIMAL.replace("role: inverse", "role: inverse\n    colour: red")
    with pytest.raises(ModelFileError) as e:
        load_model(_write(tmp_path, bad))
    assert "colour" in str(e.value)
    assert "(line 4)" in str(e.value)


class _PurePythonLoader(yaml.SafeLoader):
    pass


_PurePythonLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, modelfile._construct_mapping
)


def _shape(node):
    """Types, values, key order and mapping lines of a loaded document."""
    if isinstance(node, dict):
        return ("map", node.line, [(k, _shape(v)) for k, v in node.items()])
    if isinstance(node, list):
        return ("seq", [_shape(v) for v in node])
    return (type(node).__name__, node)


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.yaml")), ids=lambda p: p.stem)
def test_loader_matches_pure_python_parser(path):
    if yaml.__with_libyaml__:
        assert issubclass(modelfile._Loader, yaml.CSafeLoader)
    text = path.read_text(encoding="utf-8")
    got = yaml.load(text, Loader=modelfile._Loader)
    want = yaml.load(text, Loader=_PurePythonLoader)
    assert _shape(got) == _shape(want)
    assert got.line is not None and got["bodies"][0].line > got.line


def test_malformed_yaml_rejected(tmp_path, capsys):
    bad = _write(tmp_path, "name: [x\n")
    with pytest.raises(ModelFileError) as e:
        load_model(bad)
    assert "not valid YAML" in str(e.value)
    assert cli.main(["equilibrium", str(bad)]) == cli.EXIT_SCHEMA
    assert "not valid YAML" in capsys.readouterr().err


def test_non_utf8_model_rejected(tmp_path, capsys):
    bad = tmp_path / "model.yaml"
    bad.write_bytes(b"name: t\xff\xfe\n")
    assert cli.main(["equilibrium", str(bad)]) == cli.EXIT_SCHEMA
    assert "not UTF-8" in capsys.readouterr().err


def test_directory_as_model_rejected(tmp_path, capsys):
    assert cli.main(["equilibrium", str(tmp_path)]) == cli.EXIT_SCHEMA
    assert "is a directory" in capsys.readouterr().err


def test_missing_unit_rejected(tmp_path):
    bad = MINIMAL.replace("mass: {value: 1.0, unit: kg}", "mass: {value: 1.0}")
    with pytest.raises(ModelFileError) as e:
        load_model(_write(tmp_path, bad))
    assert "unit" in str(e.value)


def test_angle_without_unit_rejected(tmp_path):
    bad = MINIMAL.replace(
        "angle: {value: 0.0, unit: rad}", "angle: {value: 0.0}"
    )
    with pytest.raises(ModelFileError):
        load_model(_write(tmp_path, bad))


def test_angle_with_wrong_unit_rejected(tmp_path):
    bad = MINIMAL.replace(
        "angle: {value: 0.0, unit: rad}", "angle: {value: 0.0, unit: kg}"
    )
    with pytest.raises(ModelFileError) as e:
        load_model(_write(tmp_path, bad))
    assert "deg" in str(e.value)


def test_degree_angles_converted(tmp_path):
    deg = MINIMAL.replace(
        "angle: {value: 0.0, unit: rad}", "angle: {value: 90.0, unit: deg}"
    )
    model = load_model(_write(tmp_path, deg))
    assert abs(model.connections[0].angle_eq - np.pi / 2) < 1e-12


def test_fixed_range_angle_parameter_matches_a_literal_angle(tmp_path):
    fixed = MINIMAL.replace(
        "name: tiny",
        "name: tiny\nparameters:\n"
        "  th: {kind: varying, angle: true, nominal: 10.0, lower: 10.0, "
        "upper: 10.0, unit: deg}",
    ).replace("angle: {value: 0.0, unit: rad}", "angle: th")
    literal = MINIMAL.replace(
        "angle: {value: 0.0, unit: rad}", "angle: {value: 10.0, unit: deg}"
    )
    got = assembly.assemble(load_model(_write(tmp_path, fixed, "fixed.yaml")))
    want = assembly.assemble(load_model(_write(tmp_path, literal)))
    for g, w in zip((got.a, got.b, got.c, got.d), (want.a, want.b, want.c, want.d)):
        assert g.ndelta == 0
        np.testing.assert_allclose(g.nominal, w.nominal, atol=1e-12)


def test_expression_with_unknown_parameter_rejected(tmp_path):
    bad = MINIMAL.replace('value: 1.0, unit: kg', 'value: "2 * m_typo", unit: kg')
    with pytest.raises(ModelFileError) as e:
        load_model(_write(tmp_path, bad))
    assert "m_typo" in str(e.value)


def test_angle_parameter_not_allowed_in_expressions(tmp_path):
    text = MINIMAL.replace(
        "name: tiny",
        "name: tiny\nparameters:\n"
        "  th: {kind: varying, angle: true, nominal: 10.0, lower: 0.0, "
        "upper: 20.0, unit: deg}",
    ).replace('value: 1.0, unit: kg', 'value: "2 * th", unit: kg')
    with pytest.raises(ModelFileError) as e:
        load_model(_write(tmp_path, text))
    assert "angle" in str(e.value)


def test_unsafe_expression_rejected(tmp_path):
    bad = MINIMAL.replace(
        'value: 1.0, unit: kg', 'value: "__import__(\'os\')", unit: kg'
    )
    with pytest.raises(ModelFileError):
        load_model(_write(tmp_path, bad))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_equilibrium_prints_torques(capsys):
    rc = cli.main(["equilibrium", str(MODELS / "two_link_arm.yaml")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "elbow" in out and "torque=-58.86" in out


@pytest.mark.parametrize(
    "name", ["pendulum.yaml", "two_link_arm.yaml", "balloon_planar.yaml"]
)
def test_cli_equilibrium_skips_step3(name, capsys, monkeypatch):
    model = load_model(MODELS / name)
    rep = assembly.assemble(model).equilibrium.report()

    def vec(v):
        return "[" + ", ".join(f"{x:.15g}" for x in v) + "]"

    want = [f"model: {model.name}", "bodies:"]
    want += [
        f"  {b}: euler_deg={vec(info['euler_deg'])} position={vec(info['position'])}"
        for b, info in rep["bodies"].items()
    ]
    want.append("joints:")
    want += [
        f"  {j}: torque={info['torque']:.15g} load={vec(info['load'])}"
        for j, info in rep["joints"].items()
    ]
    want.append(f"root_reaction: {vec(rep['root_reaction'])}")

    def step3_not_allowed(*args, **kwargs):
        raise AssertionError("equilibrium must not run step 3")

    monkeypatch.setattr(assembly, "step3_linearize", step3_not_allowed)
    monkeypatch.setenv("MBLFT_PRECISION", "15")
    assert cli.main(["equilibrium", str(MODELS / name)]) == 0
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_cli_closed_stdout_exits_2_without_a_traceback():
    """A standard output whose reader has gone, as in ``mblft ... | head``,
    is an output that cannot be written: exit 2 and one error line on
    stderr, with no traceback and no "Exception ignored" at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1]),
         *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from mblft import cli; sys.exit(cli.main(sys.argv[1:]))",
             "equilibrium", str(MODELS / "pendulum.yaml")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_cli_linearize_and_sample_grid(tmp_path, capsys):
    export = tmp_path / "arm.json"
    rc = cli.main(
        ["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(export)]
    )
    assert rc == 0
    data = json.loads(export.read_text())
    assert data["format"] == "mblft-linear-model"
    assert len(data["state_names"]) == 4

    outdir = tmp_path / "samples"
    rc = cli.main(
        [
            "sample", str(export),
            "--grid", "t_t1=0.9:1.0:2,t_t2=0.9:1.1:2",
            "-o", str(outdir),
        ]
    )
    assert rc == 0
    points = sorted(outdir.glob("point_*.json"))
    assert len(points) == 4
    csv = (outdir / "poles.csv").read_text().splitlines()
    assert csv[0] == "re,im,freq_hz,damping"
    assert len(csv) == 1 + 4 * 4  # header + order x points


def test_cli_sample_point_file(tmp_path):
    export = tmp_path / "pend.json"
    assert cli.main(["linearize", str(MODELS / "pendulum.yaml"), "-o", str(export)]) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_text("{}")
    outdir = tmp_path / "out"
    assert cli.main(
        ["sample", str(export), "--point-file", str(ptfile), "-o", str(outdir)]
    ) == 0
    payload = json.loads((outdir / "point_0000.json").read_text())
    a = np.array(payload["A"])
    lam = np.linalg.eigvals(a)
    assert max(abs(lam.imag)) == pytest.approx(np.sqrt(9.81), rel=1e-9)


def test_cli_outputs_follow_umask(tmp_path):
    export = tmp_path / "pend.json"
    ptfile = tmp_path / "pts.json"
    ptfile.write_text("{}")
    outdir = tmp_path / "out"
    umask = 0o027
    old = os.umask(umask)
    try:
        assert cli.main(
            ["linearize", str(MODELS / "pendulum.yaml"), "-o", str(export)]
        ) == 0
        assert cli.main(
            ["sample", str(export), "--point-file", str(ptfile), "-o", str(outdir)]
        ) == 0
    finally:
        os.umask(old)
    written = [export, outdir / "point_0000.json", outdir / "poles.csv"]
    assert sorted(outdir.iterdir()) == sorted(written[1:])
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


def test_atomic_write_completes_short_writes(tmp_path, monkeypatch):
    """``os.write`` may write fewer bytes than given; every byte still lands,
    and a failed write leaves neither the target nor a temporary file."""
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:3]))
    text = '{"δ": [1.5, 2.5]}\n'
    cli._atomic_write(str(tmp_path / "out.json"), text)
    assert (tmp_path / "out.json").read_bytes() == text.encode("utf-8")

    def fail(fd, data):
        raise OSError("disk full")

    monkeypatch.setattr(os, "write", fail)
    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(str(tmp_path / "other.json"), text)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_cli_strict_bounds_rejects_out_of_box(tmp_path, capsys):
    export = tmp_path / "arm.json"
    cli.main(
        [
            "linearize", str(MODELS / "two_link_arm.yaml"),
            "-o", str(export), "--strict-bounds",
        ]
    )
    outdir = tmp_path / "out"
    rc = cli.main(
        ["sample", str(export), "--grid", "m1=100:101:2", "-o", str(outdir)]
    )
    assert rc == cli.EXIT_NUMERICAL


def test_cli_strict_bounds_keeps_the_points_before_the_failure(tmp_path, capsys):
    export = tmp_path / "arm.json"
    args = ["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(export)]
    assert cli.main(args + ["--strict-bounds"]) == 0
    points = [{"t_t1": 0.5}, {"t_t1": 0.9}, {"m1": 100.0}, {"t_t1": 0.6}]
    ptfile = tmp_path / "pts.json"
    ptfile.write_text(json.dumps(points))
    outdir = tmp_path / "out"
    sample = ["sample", str(export), "--point-file", str(ptfile), "-o"]
    assert cli.main(sample + [str(outdir)]) == cli.EXIT_NUMERICAL
    assert "parameter 'm1' value 100.0 outside" in capsys.readouterr().err
    assert sorted(p.name for p in outdir.iterdir()) == [
        "point_0000.json", "point_0001.json",
    ]
    # the files written are those of a run on the good points alone
    ptfile.write_text(json.dumps(points[:2]))
    assert cli.main(sample + [str(tmp_path / "ok")]) == 0
    for name in ("point_0000.json", "point_0001.json"):
        assert (outdir / name).read_bytes() == (tmp_path / "ok" / name).read_bytes()


def test_cli_strict_bounds_failure_in_a_later_block(tmp_path, capsys):
    """A point out of bounds in the second block of the batched solve: the
    files before it are those of a run on the export without the mark, no
    poles.csv is written, and the exit code is 3."""
    strict, loose = tmp_path / "strict.json", tmp_path / "loose.json"
    args = ["linearize", str(MODELS / "two_link_arm.yaml"), "-o"]
    assert cli.main(args + [str(strict), "--strict-bounds"]) == 0
    assert cli.main(args + [str(loose)]) == 0
    # m1 = 3.2, above its bound of 3.15, from point 90 on
    grid = ["--grid", "m1=2.9:3.2:4,t_t1=0.45:1.0:30", "-o"]
    outdir = tmp_path / "strict"
    assert cli.main(["sample", str(strict)] + grid + [str(outdir)]) == cli.EXIT_NUMERICAL
    assert "parameter 'm1' value 3.2 outside [2.85, 3.15]" in capsys.readouterr().err
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [f"point_{i:04d}.json" for i in range(90)]
    assert lft.EVAL_BLOCK < 90 <= 2 * lft.EVAL_BLOCK
    assert cli.main(["sample", str(loose)] + grid + [str(tmp_path / "loose")]) == 0
    for name in names:
        assert (outdir / name).read_bytes() == (tmp_path / "loose" / name).read_bytes()


def test_cli_sample_over_several_blocks_matches_one_point_runs(tmp_path):
    """150 arm points, three blocks of the batched solve: each point file is
    the file of a run on that point alone, and poles.csv joins their rows."""
    export = tmp_path / "arm.json"
    args = ["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(export)]
    assert cli.main(args) == 0
    grid = "t_t1=0.45:1.0:10,t_t2=0.45:2.4:15"
    outdir = tmp_path / "grid"
    assert cli.main(["sample", str(export), "--grid", grid, "-o", str(outdir)]) == 0
    points = cli._parse_grid(grid)
    assert len(points) == 150 > 2 * lft.EVAL_BLOCK
    assert len(list(outdir.iterdir())) == 151
    ptfile, one = tmp_path / "pt.json", tmp_path / "one"
    rows = ["re,im,freq_hz,damping"]
    for i, pt in enumerate(points):
        ptfile.write_text(json.dumps(pt))
        assert cli.main(
            ["sample", str(export), "--point-file", str(ptfile), "-o", str(one)]
        ) == 0
        got = (outdir / f"point_{i:04d}.json").read_bytes()
        assert got == (one / "point_0000.json").read_bytes(), i
        rows += (one / "poles.csv").read_text().splitlines()[1:]
    assert (outdir / "poles.csv").read_text() == "\n".join(rows) + "\n"


# a point's names are checked before its values, and point by point
@pytest.mark.parametrize("points, message", [
    ([{"t_t1": 0.5}, {"nope": 1.0}], "unknown parameter(s) ['nope']; known: "
     "['J1', 'L2', 'm1', 'm3', 'rho1', 't_t1', 't_t2']"),
    ([{"t_t1": "0.6", "nope": 1.0}], "unknown parameter(s) ['nope']"),
    ([{"t_t1": "0.6"}, {"nope": 1.0}], "parameter 't_t1': '0.6' is not a number"),
])
def test_cli_sample_rejects_an_undeclared_parameter(tmp_path, capsys, points, message):
    export = tmp_path / "arm.json"
    args = ["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(export)]
    assert cli.main(args) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_text(json.dumps(points))
    outdir = tmp_path / "out"
    sample = ["sample", str(export), "--point-file", str(ptfile), "-o", str(outdir)]
    assert cli.main(sample) == cli.EXIT_SCHEMA
    assert f"error: {message}" in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_sample_nan_value_keeps_the_points_before_it(tmp_path, capsys):
    export = tmp_path / "arm.json"
    args = ["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(export)]
    assert cli.main(args) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_text('[{"t_t1": 0.5}, {"t_t1": NaN}, {"t_t1": 0.6}]')
    outdir = tmp_path / "out"
    sample = ["sample", str(export), "--point-file", str(ptfile), "-o", str(outdir)]
    assert cli.main(sample) == cli.EXIT_NUMERICAL
    assert "ill-posed" in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["point_0000.json"]


# a string or a boolean is no parameter value, though float() takes both
@pytest.mark.parametrize("value", ["abc", None, [1.0], 10 ** 400, "0.6", True, False])
def test_cli_sample_rejects_a_value_that_is_not_a_number(tmp_path, capsys, value):
    export = tmp_path / "arm.json"
    args = ["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(export)]
    assert cli.main(args) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_text(json.dumps([{"t_t1": 0.5}, {"t_t1": value}]))
    outdir = tmp_path / "out"
    sample = ["sample", str(export), "--point-file", str(ptfile), "-o", str(outdir)]
    assert cli.main(sample) == cli.EXIT_SCHEMA
    assert f"parameter 't_t1': {value!r} is not a number" in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_sample_writes_an_integer_value_as_an_integer(tmp_path):
    export = tmp_path / "arm.json"
    args = ["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(export)]
    assert cli.main(args) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_text('[{"t_t1": 1}]')
    outdir = tmp_path / "out"
    assert cli.main(
        ["sample", str(export), "--point-file", str(ptfile), "-o", str(outdir)]
    ) == 0
    assert '"t_t1": 1,' in (outdir / "point_0000.json").read_text()


def test_cli_sample_grid_rejects_a_repeated_parameter(tmp_path, capsys):
    export = tmp_path / "arm.json"
    args = ["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(export)]
    assert cli.main(args) == 0
    outdir = tmp_path / "out"
    grid = "t_t1=0.5:0.6:2, t_t1=0.7:0.8:2"
    rc = cli.main(["sample", str(export), "--grid", grid, "-o", str(outdir)])
    assert rc == cli.EXIT_SCHEMA
    assert "--grid: parameter 't_t1' given twice" in capsys.readouterr().err
    assert not outdir.exists()


def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(v) for v in obj]
    return obj


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
    | st.text()
    | hnp.arrays(
        st.sampled_from([np.float64, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
    )
)


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        _JSON_LEAVES,
        lambda kids: st.lists(kids, max_size=5)
        | st.dictionaries(st.text(), kids, max_size=5),
        max_leaves=30,
    )
)
def test_json_text_is_the_json_module_text(doc):
    # ndarrays are written as their tolist(): json.dumps cannot take them
    want = json.dumps(_as_lists(doc), indent=1, default=float) + "\n"
    assert cli._json_text(doc) == want


def test_json_text_of_floats_lists_and_keys():
    doc = {
        "é": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-310],
        "rows": [[1.0, 2.5], [3.0, float("nan")], [], [1.0, 2]],
        "mixed": [2.0, "x", None, True, np.float64(0.1), np.int64(3)],
        "names": ["a", "ü", "b\n"],
        "array": np.array([[1.0, -2.0], [np.inf, 0.5]]),
    }
    want = json.dumps(_as_lists(doc), indent=1, default=float) + "\n"
    assert cli._json_text(doc) == want


@pytest.mark.parametrize("key", [7, 2.5, None])
def test_json_text_rejects_a_key_that_is_not_a_string(key):
    with pytest.raises(TypeError, match="keys must be str"):
        cli._json_text({"a": {key: 1.0}})


def test_cli_schema_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, MINIMAL.replace("mass", "masss"))
    rc = cli.main(["equilibrium", str(bad)])
    assert rc == cli.EXIT_SCHEMA
    assert "masss" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["linearize", "validate"])
def test_force_on_unknown_body_rejected_by_every_command(tmp_path, capsys, command):
    text = (MODELS / "pendulum.yaml").read_text().replace(
        "  acceleration: {value: [0.0, 0.0, 9.81], unit: m/s^2}\n",
        "  acceleration: {value: [0.0, 0.0, 9.81], unit: m/s^2}\n"
        "  forces:\n"
        "    - {body: bobb, port: ref, value: [0.0, 1.0, 0.0], unit: N}\n",
    )
    assert "bobb" in text
    bad = _write(tmp_path, text)
    argv = [command, str(bad)] + (["-o", str(tmp_path / "out.json")]
                                  if command == "linearize" else [])
    assert cli.main(argv) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "boundary.forces[0] (line" in err and "unknown body 'bobb'" in err
    assert not (tmp_path / "out.json").exists()


def test_force_on_unknown_port_rejected(tmp_path):
    text = (MODELS / "pendulum.yaml").read_text().replace(
        "  acceleration: {value: [0.0, 0.0, 9.81], unit: m/s^2}\n",
        "  acceleration: {value: [0.0, 0.0, 9.81], unit: m/s^2}\n"
        "  forces:\n"
        "    - {body: bob, port: tip, value: [0.0, 1.0, 0.0], unit: N}\n",
    )
    with pytest.raises(ModelFileError, match=r"forces\[0\] \(line \d+\): body 'bob' has no port 'tip'"):
        load_model(_write(tmp_path, text))


@pytest.mark.parametrize("mask", ["", "\n    dof_mask: [wz]"], ids=["all-dof", "wz"])
@pytest.mark.parametrize("command", ["equilibrium", "linearize"])
def test_grounded_model_with_a_forward_body_rejected(tmp_path, capsys, mask, command):
    """The arm is grounded, so a forward-role link (with or without a DOF
    mask, which the grounded assembly would ignore) is a schema error."""
    text = (MODELS / "two_link_arm.yaml").read_text()
    old = "name: link1\n    role: inverse"
    assert old in text
    bad = _write(tmp_path, text.replace(old, "name: link1\n    role: forward" + mask))
    args = [command, str(bad)]
    if command == "linearize":
        args += ["-o", str(tmp_path / "out.json")]
    assert cli.main(args) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "error: model: a grounded model must use inverse-role bodies only" in err
    assert not (tmp_path / "out.json").exists()


def test_duplicate_connection_name_rejected(tmp_path, capsys):
    text = (MODELS / "two_link_arm.yaml").read_text()
    assert text.count("name: elbow") == 1
    bad = _write(tmp_path, text.replace("name: elbow", "name: shoulder"))
    rc = cli.main(["linearize", str(bad), "-o", str(tmp_path / "out.json")])
    assert rc == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "connections.shoulder (line" in err
    assert "duplicate connection name 'shoulder'" in err


def _malformed_exports(tmp_path) -> list:
    export = tmp_path / "pend.json"
    assert cli.main(["linearize", str(MODELS / "pendulum.yaml"), "-o", str(export)]) == 0
    good = json.loads(export.read_text())
    newer = {**good, "version": 2}
    no_names = {k: v for k, v in good.items() if k != "state_names"}
    bad_a = {**good, "A": {**good["A"], "coefficients": [[1.0]]}}
    bad_params = {**good, "parameters": []}
    return [
        [], "text", {"format": "mblft-linear-model"},
        {"format": "mblft-linear-model", "version": 1},
        newer, no_names, bad_a, bad_params,
    ]


def test_cli_sample_malformed_export_is_a_schema_error(tmp_path, capsys):
    """An export that is not UTF-8 or not a JSON object, lacks a key, has a
    matrix of the wrong shape or another version exits 2 and writes no
    point file."""
    docs = [b"\xff\xfe{}"] + _malformed_exports(tmp_path)
    for i, doc in enumerate(docs):
        bad = tmp_path / f"bad_{i}.json"
        bad.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        outdir = tmp_path / f"out_{i}"
        capsys.readouterr()
        rc = cli.main(["sample", str(bad), "--grid", "m=1:2:2", "-o", str(outdir)])
        assert rc == cli.EXIT_SCHEMA, doc
        assert str(bad) in capsys.readouterr().err
        assert not outdir.exists()


@pytest.fixture(scope="module")
def arm_export(tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("arm") / "arm.json"
    assert cli.main(["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(path)]) == 0
    return json.loads(path.read_text())


def _set_parameter_nominal(doc):
    doc["parameters"]["m1"]["nominal"] = "abc"
    return "parameters.m1.nominal"


def _set_strict_bounds(doc):
    doc["strict_bounds"] = "false"
    return "strict_bounds"


def _set_rows(doc):
    doc["A"]["rows"] = float(doc["A"]["rows"])
    return "A.rows"


def _set_coefficient_string(doc):
    doc["A"]["coefficients"][0][1] = str(doc["A"]["coefficients"][0][1])
    return "A.coefficients[0][1]"


def _set_coefficient_bool(doc):
    doc["B"]["coefficients"][1][0] = True
    return "B.coefficients[1][0]"


def _set_repetitions_bool(doc):
    i = next(i for i, e in enumerate(doc["A"]["delta_structure"]) if e["repetitions"] == 1)
    doc["A"]["delta_structure"][i]["repetitions"] = True
    return f"A.delta_structure[{i}].repetitions"


@pytest.mark.parametrize(
    "edit",
    [
        _set_parameter_nominal,
        _set_strict_bounds,
        _set_rows,
        _set_coefficient_string,
        _set_coefficient_bool,
        _set_repetitions_bool,
    ],
)
def test_cli_sample_export_value_of_another_json_type(tmp_path, capsys, arm_export, edit):
    """An export whose number is a string or a bool, whose count is a float
    or a bool, or whose strict flag is not a JSON boolean exits 2 with a
    message naming the file and the value's place, and writes nothing.
    (The string nominal ended in a traceback, the string "false" sampled
    strictly, and the others were read as numbers.)"""
    doc = copy.deepcopy(arm_export)
    where = edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    rc = cli.main(
        ["sample", str(bad), "--grid", "t_t1=0.5:0.6:2,m1=100:101:2", "-o", str(outdir)]
    )
    assert rc == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert f"error: {bad}: malformed linear-model export: {where} must be a JSON" in err
    assert not outdir.exists()


@pytest.mark.parametrize("flag", ["--points", "--seed"])
def test_cli_validate_rejects_a_negative_count(capsys, flag):
    rc = cli.main(["validate", str(MODELS / "pendulum.yaml"), flag, "-3"])
    assert rc == cli.EXIT_SCHEMA
    assert f"{flag} must be >= 0" in capsys.readouterr().err


def test_cli_sample_point_file_not_utf8(tmp_path, capsys):
    export = tmp_path / "pend.json"
    assert cli.main(["linearize", str(MODELS / "pendulum.yaml"), "-o", str(export)]) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_bytes(b"\xff\xfe{}")
    rc = cli.main(
        ["sample", str(export), "--point-file", str(ptfile), "-o", str(tmp_path / "out")]
    )
    assert rc == cli.EXIT_SCHEMA
    assert "not a JSON point file" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["point file", "export"])
def test_cli_sample_integer_past_the_digit_limit(tmp_path, capsys, target):
    """A JSON integer of 5,000 digits, past Python's integer conversion
    limit, in a point file or an export exits 2 with a message naming the
    file, not in a traceback."""
    export = tmp_path / "pend.json"
    assert cli.main(["linearize", str(MODELS / "pendulum.yaml"), "-o", str(export)]) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_text("{}")
    huge = "1" * 5000
    if target == "export":
        bad = export
        bad.write_text(export.read_text().replace('"version": 1', f'"version": {huge}', 1))
        assert huge in bad.read_text()
    else:
        bad = ptfile
        bad.write_text(f'[{{"x": {huge}}}]')
    capsys.readouterr()
    rc = cli.main(
        ["sample", str(export), "--point-file", str(ptfile), "-o", str(tmp_path / "out")]
    )
    assert rc == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(f"error: {bad}: not a ")
    assert not (tmp_path / "out").exists()


def test_cli_sample_output_that_is_a_file(tmp_path, capsys):
    """``sample -o FILE``, where FILE is an existing regular file, exits 2
    with a message naming FILE and writes no file."""
    export = tmp_path / "pend.json"
    assert cli.main(["linearize", str(MODELS / "pendulum.yaml"), "-o", str(export)]) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_text("{}")
    taken = tmp_path / "taken"
    taken.write_text("keep")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    rc = cli.main(["sample", str(export), "--point-file", str(ptfile), "-o", str(taken)])
    assert rc == cli.EXIT_SCHEMA
    assert f"{taken}: exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("target", ["export", "point file", "poles.csv"])
def test_cli_write_error_names_the_given_path(tmp_path, capsys, target):
    """A file that cannot be written exits 2 with a message naming the path
    the command writes, not the temporary file beside it, and leaves no
    temporary file: an export into a missing directory, and a point file or
    ``poles.csv`` whose name an existing directory takes."""
    export = tmp_path / "pend.json"
    assert cli.main(["linearize", str(MODELS / "pendulum.yaml"), "-o", str(export)]) == 0
    ptfile = tmp_path / "pts.json"
    ptfile.write_text("{}")
    outdir = tmp_path / "out"
    if target == "export":
        path = tmp_path / "missing" / "x.json"
        args = ["linearize", str(MODELS / "pendulum.yaml"), "-o", str(path)]
    else:
        path = outdir / ("poles.csv" if target == "poles.csv" else "point_0000.json")
        path.mkdir(parents=True)
        args = ["sample", str(export), "--point-file", str(ptfile), "-o", str(outdir)]
    capsys.readouterr()
    assert cli.main(args) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert repr(str(path)) in err and ".tmp-" not in err, err
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize(
    "dcm, message",
    [
        ("[[1, 0, 0], [0, 1, 0], [0, 0]]", "3x3 matrix of numbers"),
        ('"abc"', "3x3 matrix of numbers"),
        ('[[1, 0, 0], [0, 1, 0], [0, 0, "x"]]', "3x3 matrix of numbers"),
        ("[[1, 0, 0], [0, 1, 0], [0, 0, null]]", "3x3 matrix of numbers"),
        ("[[1, 0, 0], [0, 1, 0], [0, 0, .nan]]", "finite"),
        ("[[1, 0, 0], [0, 1, 0], [0, 0, 2]]", "not orthonormal"),
        ("[[1, 0, 0], [0, 1, 0], [0, 0, -1]]", "proper"),
    ],
)
def test_malformed_orientation_dcm_is_a_schema_error(tmp_path, capsys, dcm, message):
    text = (MODELS / "two_link_arm.yaml").read_text()
    grip = "    child: payload.ref\n"
    assert text.count(grip) == 1
    bad = _write(tmp_path, text.replace(grip, grip + f"    orientation: {{dcm: {dcm}}}\n"))
    assert cli.main(["equilibrium", str(bad)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: connections.grip (line ")
    assert message in err


@pytest.mark.parametrize("entry", [".nan", ".inf", "-.inf"])
def test_non_finite_joint_axis_is_a_schema_error(tmp_path, capsys, entry):
    text = (MODELS / "two_link_arm.yaml").read_text()
    elbow = "    axis: [1.0, 0.0, 0.0]\n    angle: t2\n"
    assert text.count(elbow) == 1
    bad = _write(tmp_path, text.replace(elbow, elbow.replace("1.0", entry, 1)))
    assert cli.main(["equilibrium", str(bad)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == "error: connections.elbow (line 46): axis must be 3 finite numbers\n"


@pytest.mark.parametrize("entry", [".nan", ".inf", "-.inf", "m1"])
def test_non_finite_acceleration_is_a_schema_error(tmp_path, capsys, entry):
    """A NaN, an infinity or a parameter in the frame acceleration is
    rejected where it is read, with the field and its line."""
    text = (MODELS / "two_link_arm.yaml").read_text()
    accel = "value: [0.0, 0.0, 9.81]"
    assert text.count(accel) == 1
    bad = _write(tmp_path, text.replace(accel, f"value: [0.0, 0.0, {entry}]"))
    assert cli.main(["equilibrium", str(bad)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == (
        "error: boundary.acceleration (line 59): value must be 3 finite numbers\n"
    )


# values that no model-file number may take: not finite (an int beyond the
# float range included), not a real number, or not a single number
_NOT_NUMBERS = [math.nan, math.inf, 10**400, None, "abc", True, [], [1.0], {"x": 1}]


def _numeric_leaves(node, path=()):
    """The paths of the int and float leaves of a loaded document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _leaf_cases():
    """(name, document, leaf path): every numeric leaf of the pendulum and
    the arm, and the balloon's friction, root damping and root pose."""
    for name in ("pendulum.yaml", "two_link_arm.yaml"):
        doc = yaml.load((MODELS / name).read_text(), Loader=modelfile._Loader)
        yield from ((name, doc, path) for path in _numeric_leaves(doc))
    text = (MODELS / "balloon_planar.yaml").read_text()
    root = "root:\n  kind: free\n"
    assert text.count(root) == 1
    text = text.replace(
        root,
        root + "  euler: {value: [0.0, 0.0, 0.0], unit: deg}\n"
        "  position: {value: [0.0, 0.0, 0.0], unit: m}\n",
    )
    doc = yaml.load(text, Loader=modelfile._Loader)
    parse_model(doc)
    for path in _numeric_leaves(doc):
        if path[-2:-1] == ("friction",) or path[:2] in (
            ("boundary", "root_damping"), ("root", "euler"), ("root", "position")
        ):
            yield "balloon_planar.yaml", doc, path


def test_every_number_that_is_not_a_finite_real_is_a_schema_error():
    """Each numeric leaf set in turn to a value that is not a finite real
    number is rejected as a ModelFileError naming a line, and nothing else
    escapes the reader."""
    cases = list(_leaf_cases())
    assert len(cases) > 60
    wrong = []
    for name, doc, path in cases:
        for bad in _NOT_NUMBERS:
            mutated = copy.deepcopy(doc)
            node = mutated
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = copy.deepcopy(bad)
            try:
                parse_model(mutated)
            except ModelFileError as e:
                if "(line " not in str(e):
                    wrong.append((name, path, bad, str(e)))
            except Exception as e:  # any other exception is a finding
                wrong.append((name, path, bad, repr(e)))
            else:
                wrong.append((name, path, bad, "accepted"))
    assert not wrong, wrong[:10]


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("balloon_planar.yaml", "upper: 60.0,", "upper: 1.0e+300,",
         "error: body 'link6': inertia cannot be evaluated at {'l6': 1e+300}: "),
        ("two_link_arm.yaml", "mass: {value: m1,", 'mass: {value: "1 / (m1 - m1)",',
         "error: body 'link1': mass cannot be evaluated at {'J1': 0.2, 'm1': 3.0}: "),
    ],
    ids=["overflow", "zero-division"],
)
def test_arithmetic_error_is_a_numerical_error(tmp_path, capsys, name, old, new, message):
    """A finite input whose arithmetic overflows or divides by zero exits 3
    with a message that names the body, the quantity and the point, not
    in a traceback."""
    text = (MODELS / name).read_text()
    assert text.count(old) == 1
    bad = _write(tmp_path, text.replace(old, new))
    assert cli.main(["equilibrium", str(bad)]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("name", ["two_link_arm.yaml", "balloon_planar.yaml"])
def test_cli_equilibrium_builds_no_jacobian(name, capsys, monkeypatch):
    def jacobians_not_allowed(*args, **kwargs):
        raise AssertionError("equilibrium must not build the body Jacobians")

    monkeypatch.setattr(assembly, "_spatial_operators", jacobians_not_allowed)
    assert cli.main(["equilibrium", str(MODELS / name)]) == 0
    assert capsys.readouterr().out.startswith(f"model: {name.split('.')[0]}\n")
    with pytest.raises(AssertionError, match="must not build"):
        assembly.assemble(load_model(MODELS / name))


@pytest.mark.parametrize("pitch", [90.0, -90.0])
def test_cli_child_at_gimbal_lock(tmp_path, capsys, pitch):
    """A grounded pendulum pitched to +/-90 deg about y linearizes; the
    reported Euler angles give back the bob's DCM."""
    text = (MODELS / "pendulum.yaml").read_text()
    text = text.replace("axis: [1.0, 0.0, 0.0]", "axis: [0, 1, 0]").replace(
        "angle: {value: 0.0, unit: rad}", f"angle: {{value: {pitch}, unit: deg}}"
    )
    model = _write(tmp_path, text)
    export = tmp_path / "locked.json"
    assert cli.main(["equilibrium", str(model)]) == 0
    assert cli.main(["linearize", str(model), "-o", str(export)]) == 0
    theta = np.radians(
        json.loads(export.read_text())["equilibrium"]["bodies"]["bob"]["euler_deg"]
    )
    want = rotation_about_axis([0.0, 1.0, 0.0], np.radians(pitch))
    got = dcm_from_euler(theta)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_cli_missing_file_exit_code(capsys):
    assert cli.main(["equilibrium", "no_such_file.yaml"]) == cli.EXIT_SCHEMA


def test_cli_validate_passes(capsys):
    rc = cli.main(
        ["validate", str(MODELS / "pendulum.yaml"), "--points", "2", "--seed", "3"]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_determinism(tmp_path, capsys):
    e1, e2 = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(e1)])
    out1 = capsys.readouterr().out
    cli.main(["linearize", str(MODELS / "two_link_arm.yaml"), "-o", str(e2)])
    out2 = capsys.readouterr().out
    assert e1.read_bytes() == e2.read_bytes()
    assert out1.replace(str(e1), "") == out2.replace(str(e2), "")


def test_cli_precision_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MBLFT_PRECISION", "4")
    cli.main(["equilibrium", str(MODELS / "two_link_arm.yaml")])
    out = capsys.readouterr().out
    assert "torque=-58.86" in out
    assert "-58.8599" not in out


@pytest.mark.parametrize(
    "value, message",
    [("abc", "must be an integer, got 'abc'"), ("0", "must be between 1 and 17")],
)
def test_cli_invalid_precision_is_a_schema_error(capsys, monkeypatch, value, message):
    monkeypatch.setenv("MBLFT_PRECISION", value)
    rc = cli.main(["equilibrium", str(MODELS / "pendulum.yaml")])
    assert rc == cli.EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: MBLFT_PRECISION {message}\n"
