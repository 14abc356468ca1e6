"""Command-line front end.

Subcommands::

    mblft equilibrium MODEL.yaml
        Solve the parameter-dependent equilibrium and print nominal body
        orientations, joint torques/loads and the root reaction.  Runs
        assembly steps 1-2 (geometry, wrenches) only, so step-3 failures
        (no degrees of freedom, a singular generalized mass matrix, an
        unknown ``outputs:`` state name, an ill-posed A/B at nominal) are
        reported by ``linearize`` and ``validate``, not here.

    mblft linearize MODEL.yaml -o MODEL.json [--strict-bounds]
        Assemble the linearized LFT state-space model and write it as a
        JSON export; prints the model order and the per-parameter
        occurrence table.

    mblft sample EXPORT.json (--point-file PTS.json | --grid SPEC) -o DIR
        Evaluate the exported model at each parameter point, in blocks of
        points with one batched solve per matrix.  Writes one matrices
        file per point plus a combined poles CSV
        (header: re,im,freq_hz,damping).  If a point cannot be evaluated,
        the files of the points before it are written, without the CSV,
        and the exit code is 3.  A file that is not a whole version-1
        export is a schema error.

    mblft validate MODEL.yaml [--points N] [--seed S]
        Cross-check the LFT linearization against a finite-difference
        linearization of the independent nonlinear model, at the nominal
        point and N random parameter points.

Exit codes: 0 success, 2 model-file/schema error (a model-file number
that is not a finite real among them) or unwritable output (a closed
stdout, as in ``mblft ... | head``, prints one error line, no traceback),
3 numerical error of finite inputs (trim failure, singularity,
ill-posedness, overflow, division by zero), 4 validation failure.
Output precision is controlled by the MBLFT_PRECISION environment
variable (significant digits, default 15).  Given the same files, flags
and seed, all outputs are byte-identical between runs.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np
from json.encoder import encode_basestring_ascii as _json_str

from . import lft
from .assembly import (
    AssemblyError,
    ExportError,
    assemble,
    evaluate_points,
    full_point,
    is_json_number,
    modes,
    read_export,
    sample_model,
    sample_point,
    step1_geometry,
    step2_wrenches,
)
from .bodies import BodyError
from .joints import JointError
from .modelfile import ModelFileError, load_model
from .oracle import FdConfig, NonlinearEvaluator, fd_linearize
from .spatial import GimbalLockError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

VALIDATION_TOL = 1e-4

_NUMERICAL_ERRORS = (
    AssemblyError,  # TrimError among them
    BodyError,
    JointError,
    GimbalLockError,
    lft.LftError,  # WellPosednessError and EvaluationError among them
    np.linalg.LinAlgError,
    ArithmeticError,
)


def _precision() -> int:
    raw = os.environ.get("MBLFT_PRECISION", "15")
    try:
        prec = int(raw)
    except ValueError:
        raise ModelFileError(f"MBLFT_PRECISION must be an integer, got {raw!r}")
    if not 1 <= prec <= 17:
        raise ModelFileError("MBLFT_PRECISION must be between 1 and 17")
    return prec


def _fmt(x: float, prec: int) -> str:
    return f"{float(x):.{prec}g}"


def _fmt_vec(v, prec: int) -> str:
    return "[" + ", ".join(_fmt(x, prec) for x in np.asarray(v).ravel()) + "]"


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename.

    The temporary file is created with mode 0o666, so the written file
    gets the permissions the umask leaves, as a plain ``open`` would.  An
    error that names a file names ``path``, not the temporary file.
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}")
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            try:
                # os.write may write fewer bytes than asked for
                while data:
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        if e.filename is None:
            raise
        raise type(e)(e.errno, e.strerror, path) from None


# json's spellings of the floats whose repr it does not use
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_json(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# json's text of a scalar, by exact type
_JSON_SCALARS = {
    str: _json_str,
    float: _float_json,
    np.float64: _float_json,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json_key(k) -> str:
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return _json_str(k)


def _join(encode, items, sep: str) -> str | None:
    """``items`` encoded with ``encode`` and joined, or None if one of them
    is of another type (or, for floats, not finite)."""
    try:
        text = sep.join(map(encode, items))
    except TypeError:
        return None
    # a finite float's repr has no "n"; json spells "nan"/"inf" otherwise
    return None if encode is float.__repr__ and "n" in text else text


def _json_parts(obj, level: int, out: list) -> None:
    """Append the text of ``obj`` at nesting ``level`` to ``out``, as the
    indent-1 encoding of ``json`` writes it.

    Takes the scalars of ``_JSON_SCALARS``, lists, dicts with str keys and
    ndarrays; any other value is written as ``float(value)``, as
    ``default=float`` does (so subclasses of str and int, which ``json``
    writes as such, are not supported)."""
    enc = _JSON_SCALARS.get(type(obj))
    if enc is not None:
        out.append(enc(obj))
    elif isinstance(obj, (list, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = "\n" + " " * (level + 1)
        sep = "," + inner
        close = "\n" + " " * level
        if isinstance(obj, dict):
            out.append("{")
            for i, (k, v) in enumerate(obj.items()):
                head = (sep if i else inner) + _json_key(k) + ": "
                enc = _JSON_SCALARS.get(type(v))
                if enc is not None:
                    out.append(head + enc(v))
                else:
                    out.append(head)
                    _json_parts(v, level + 1, out)
            out.append(close + "}")
            return
        # one join for a list of floats or strings, one per row of a matrix
        first, text = type(obj[0]), None
        if first is float:
            text = _join(float.__repr__, obj, sep)
        elif first is str:
            text = _join(_json_str, obj, sep)
        elif first is list:
            row_sep = sep + " "
            rows = [
                _join(float.__repr__, row, row_sep) if type(row) is list and row
                else None
                for row in obj
            ]
            if None not in rows:
                text = sep.join(f"[{inner} {row}{inner}]" for row in rows)
        if text is None:
            out.append("[")
            for i, v in enumerate(obj):
                out.append(sep if i else inner)
                _json_parts(v, level + 1, out)
            out.append(close + "]")
        else:
            out.append("[" + inner + text + close + "]")
    elif isinstance(obj, np.ndarray):
        _json_parts(obj.tolist(), level, out)
    else:  # json's default=float
        _json_parts(float(obj), level, out)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=1, default=float)`` plus a newline, with an
    ndarray written as its ``tolist()``.

    Given an indent, ``json`` encodes item by item in pure Python; this
    writes the same text with one ``str.join`` per list of floats or strings.
    """
    out: list = []
    _json_parts(obj, 0, out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------


def cmd_equilibrium(args) -> int:
    prec = _precision()
    model = load_model(args.model)
    rep = step2_wrenches(step1_geometry(model)).report()
    out = [f"model: {model.name}", "bodies:"]
    for name, info in rep["bodies"].items():
        out.append(
            f"  {name}: euler_deg={_fmt_vec(info['euler_deg'], prec)} "
            f"position={_fmt_vec(info['position'], prec)}"
        )
    out.append("joints:")
    for name, info in rep["joints"].items():
        out.append(
            f"  {name}: torque={_fmt(info['torque'], prec)} "
            f"load={_fmt_vec(info['load'], prec)}"
        )
    out.append(f"root_reaction: {_fmt_vec(rep['root_reaction'], prec)}")
    print("\n".join(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# linearize
# ---------------------------------------------------------------------------


def _occurrence_table(lm) -> list:
    rows = [f"order: {lm.order}",
            f"states: {', '.join(lm.state_names)}",
            f"inputs: {', '.join(lm.input_names)}",
            "occurrences (A / B):"]
    summary = lm.delta_summary()
    for name in sorted(summary):
        info = summary[name]
        rows.append(
            f"  {name} ({info['kind']}): {info.get('A', 0)} / {info.get('B', 0)}"
        )
    return rows


def cmd_linearize(args) -> int:
    _precision()  # an invalid MBLFT_PRECISION fails before any work
    model = load_model(args.model)
    lm = assemble(model)
    _atomic_write(args.output, _json_text(lm.to_export_dict(args.strict_bounds)))
    print("\n".join([f"model: {model.name}"] + _occurrence_table(lm)))
    print(f"wrote: {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _parse_grid(spec: str) -> list:
    """'name=lo:hi:N[,name=lo:hi:N...]' -> list of parameter points."""
    axes = []
    for part in spec.split(","):
        if "=" not in part:
            raise ModelFileError(f"--grid: expected 'name=lo:hi:N', got {part!r}")
        name, rng = part.split("=", 1)
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise ModelFileError(f"--grid: expected 'lo:hi:N' after '=', got {rng!r}")
        try:
            lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise ModelFileError(f"--grid: non-numeric bounds in {part!r}") from None
        if n < 1:
            raise ModelFileError("--grid: point count must be >= 1")
        name = name.strip()
        if any(name == seen for seen, _ in axes):
            raise ModelFileError(f"--grid: parameter {name!r} given twice")
        axes.append((name, np.linspace(lo, hi, n)))
    return [
        {name: float(v) for (name, _), v in zip(axes, combo)}
        for combo in itertools.product(*(vals for _, vals in axes))
    ]


def _load_points(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: not UTF-8, not JSON, or an integer past Python's digit limit
    except (ValueError, IsADirectoryError) as e:
        raise ModelFileError(f"{path}: not a JSON point file ({e})") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not all(isinstance(p, dict) for p in data):
        raise ModelFileError(
            f"{path}: expected a JSON object or list of objects mapping "
            "parameter names to values"
        )
    return data


def cmd_sample(args) -> int:
    prec = _precision()
    path = args.export
    try:  # a file that is not a version-1 export is a schema error
        with open(path, "r", encoding="utf-8") as fh:
            export = json.load(fh)
    except (ValueError, IsADirectoryError) as e:
        raise ModelFileError(f"{path}: not a linear-model export ({e})") from None
    try:
        mats, nominal, names, strict = read_export(export)
    except ExportError as e:
        raise ModelFileError(f"{path}: {e}") from None

    points = _parse_grid(args.grid) if args.grid else _load_points(args.point_file)
    full = []
    for i, pt in enumerate(points):
        try:
            full.append(full_point(nominal, pt, i))
        except lft.EvaluationError as e:
            raise ModelFileError(str(e)) from None
        for name, value in pt.items():
            if not is_json_number(value):
                raise ModelFileError(f"parameter {name!r}: {value!r} is not a number")

    try:
        os.makedirs(args.output, exist_ok=True)
    except FileExistsError:
        raise ModelFileError(f"{args.output}: exists and is not a directory") from None
    csv_rows = ["re,im,freq_hz,damping"]
    for start in range(0, len(full), lft.EVAL_BLOCK):
        block = full[start : start + lft.EVAL_BLOCK]
        num, err = evaluate_points(mats, block, strict)
        for j, (pt, md) in enumerate(zip(block, modes(num[0]))):
            payload = {
                "point": {k: pt[k] for k in sorted(pt)},
                **names,
                **{tag: m[j] for tag, m in zip("ABCD", num)},
                "poles": [
                    {"re": lam.real, "im": lam.imag, "freq_hz": f, "damping": z}
                    for lam, f, z in md
                ],
            }
            _atomic_write(
                os.path.join(args.output, f"point_{start + j:04d}.json"),
                _json_text(payload),
            )
            for lam, f, z in md:
                csv_rows.append(
                    f"{_fmt(lam.real, prec)},{_fmt(lam.imag, prec)},"
                    f"{_fmt(f, prec)},{_fmt(z, prec)}"
                )
        if err is not None:
            raise err
    _atomic_write(os.path.join(args.output, "poles.csv"), "\n".join(csv_rows) + "\n")
    print(f"sampled {len(points)} point(s) -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _rel(a, b) -> float:
    na = np.linalg.norm(np.asarray(a) - np.asarray(b))
    nb = np.linalg.norm(np.asarray(b))
    return float(na / nb) if nb > 0 else float(na)


def cmd_validate(args) -> int:
    prec = _precision()
    for flag, value in (("--points", args.points), ("--seed", args.seed)):
        if value < 0:
            raise ModelFileError(f"{flag} must be >= 0, got {value}")
    model = load_model(args.model)
    lm = assemble(model)
    rng = np.random.default_rng(args.seed)
    points = [("nominal", {})]
    for i in range(args.points):
        points.append((f"random_{i}", sample_point(lm.parameters, rng)))

    worst = 0.0
    lines = [f"model: {model.name} (order {lm.order})"]
    for label, pt in points:
        ev = NonlinearEvaluator(model, pt)
        a_fd, b_fd = fd_linearize(ev, FdConfig())
        a, b, _, _ = sample_model(lm, pt)
        ra, rb = _rel(a, a_fd), _rel(b, b_fd)
        worst = max(worst, ra, rb)
        lines.append(f"  {label}: rel_A={_fmt(ra, prec)} rel_B={_fmt(rb, prec)}")
    ok = worst <= VALIDATION_TOL
    lines.append(
        f"max_rel_delta: {_fmt(worst, prec)} "
        f"({'PASS' if ok else 'FAIL'}, tolerance {_fmt(VALIDATION_TOL, prec)})"
    )
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mblft",
        description="Parameter-dependent multibody linearization in LFT form.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("equilibrium", help="solve and print the equilibrium")
    pe.add_argument("model", help="model file (YAML)")
    pe.set_defaults(func=cmd_equilibrium)

    pl = sub.add_parser("linearize", help="assemble the LFT model and export it")
    pl.add_argument("model", help="model file (YAML)")
    pl.add_argument("-o", "--output", required=True, help="export path (JSON)")
    pl.add_argument(
        "--strict-bounds", action="store_true",
        help="mark the export so sampling rejects out-of-bounds points",
    )
    pl.set_defaults(func=cmd_linearize)

    ps = sub.add_parser("sample", help="evaluate an export at parameter points")
    ps.add_argument("export", help="linear-model export (JSON)")
    grp = ps.add_mutually_exclusive_group(required=True)
    grp.add_argument("--point-file", help="JSON point or list of points")
    grp.add_argument(
        "--grid", help="grid spec 'name=lo:hi:N[,name=lo:hi:N...]'"
    )
    ps.add_argument("-o", "--output", required=True, help="output directory")
    ps.set_defaults(func=cmd_sample)

    pv = sub.add_parser("validate", help="cross-check against the nonlinear model")
    pv.add_argument("model", help="model file (YAML)")
    pv.add_argument("--points", type=int, default=0, help="random points (default 0)")
    pv.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    pv.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as e:
        # the interpreter flushes stdout once more at exit: into devnull
        with open(os.devnull, "w") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        print(f"error: standard output closed ({e.strerror})", file=sys.stderr)
        return EXIT_SCHEMA
    except ModelFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except _NUMERICAL_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
