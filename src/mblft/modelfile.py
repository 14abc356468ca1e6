"""Declarative model files.

A model file is a YAML document describing a tree of rigid bodies connected
by joints, plus the boundary conditions and I/O selection needed to run the
equilibrium and linearization pipeline.  The schema is strict: unknown keys
are rejected, every dimensioned quantity carries an explicit unit, and angles
must state ``deg`` or ``rad`` (there is no default).

Top-level sections::

    name:         model name (string)
    parameters:   named scalar parameters with kind/nominal/bounds/unit
    bodies:       rigid bodies (mass, inertia about CoG, CoG offset, ports)
    connections:  revolute joints and rigid connections, in tree order
    boundary:     frame acceleration, external forces, root damping
    root:         ground or free root, with optional pose
    io:           input channels and output state selection (optional)

Every number in the file is a finite real number that is not a boolean
(``_number``); anything else is a ModelFileError naming the field and its
line.  The scalar ``value`` fields of bodies and forces accept either such
a number or an arithmetic expression string over the declared (non-angle)
parameter names, e.g. ``"1.0 * l6"``.
Angle-valued parameters (``angle: true``) are carried internally as
tangent-substituted parameters and may only be referenced as joint angles.
"""
from __future__ import annotations

import ast
import math

import numpy as np
import yaml

from . import lft
from .assembly import ExternalForce, MultibodyModel, RootSpec
from .bodies import DynamicsRole, RigidBody
from .joints import DEFAULT_SHAFT_INERTIA, RevoluteJoint, RigidConnection

__all__ = ["ModelFileError", "load_model", "parse_model"]

_AXIS_NAMES = {"vx": 0, "vy": 1, "vz": 2, "wx": 3, "wy": 4, "wz": 5}

# expected unit strings per field (exact match); angles are handled apart
_UNITS = {
    "mass": ("kg",),
    "inertia": ("kg*m^2",),
    "length": ("m",),
    "acceleration": ("m/s^2",),
    "force": ("N",),
    "friction": ("N*m*s/rad",),
    "shaft_inertia": ("kg*m^2",),
    "root_damping": ("N*s/m,N*m*s/rad",),
    "angle": ("deg", "rad"),
}


class ModelFileError(ValueError):
    """Schema or content error in a model file, with section/field context."""


class _Mark(dict):
    """A dict that remembers the source line of its YAML mapping node."""

    line = None


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """Safe loader, on libyaml's C parser when PyYAML was built with it."""


def _construct_mapping(loader, node):
    loader.flatten_mapping(node)
    out = _Mark(loader.construct_pairs(node))
    out.line = node.start_mark.line + 1
    return out


_Loader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def _where(ctx: str, node) -> str:
    line = getattr(node, "line", None)
    return f"{ctx} (line {line})" if line is not None else ctx


def _err(ctx, node, msg) -> ModelFileError:
    return ModelFileError(f"{_where(ctx, node)}: {msg}")


def _need_mapping(ctx, node):
    if not isinstance(node, dict):
        raise ModelFileError(f"{ctx}: expected a mapping, got {type(node).__name__}")
    return node


def _take(ctx, node, required=(), optional=()):
    """Validate the key set of a mapping and return it."""
    _need_mapping(ctx, node)
    allowed = set(required) | set(optional)
    unknown = [k for k in node if k not in allowed]
    if unknown:
        raise _err(ctx, node, f"unknown key(s) {sorted(map(str, unknown))!r}; "
                              f"allowed: {sorted(allowed)}")
    missing = [k for k in required if k not in node]
    if missing:
        raise _err(ctx, node, f"missing required key(s) {sorted(missing)!r}")
    return node


def _check_unit(ctx, node, field_kind: str):
    unit = node.get("unit")
    expected = _UNITS[field_kind]
    if unit is None:
        raise _err(ctx, node, f"missing mandatory 'unit' (expected one of {expected})")
    if unit not in expected:
        raise _err(ctx, node, f"unit {unit!r} not accepted here; expected one of {expected}")


def _number(ctx, node, field, value, what="a finite number") -> float:
    """``value`` as a float: a finite real number that is not a bool.
    Otherwise ModelFileError naming ``field`` and the line of ``node``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise _err(ctx, node, f"{field} must be {what}")


def _numbers(ctx, node, field, value, n) -> tuple:
    """``value`` as a tuple of floats: a list of ``n`` ``_number``s."""
    what = f"{n} finite numbers"
    if not isinstance(value, list) or len(value) != n:
        raise _err(ctx, node, f"{field} must be {what}")
    return tuple(_number(ctx, node, field, v, what) for v in value)


def _value(ctx, node, kind):
    """The ``value`` of a ``{value, unit}`` node whose unit is one of
    ``kind``'s; the caller reads it as a number, a list or an expression."""
    _check_unit(ctx, _take(ctx, node, required=("value", "unit")), kind)
    return node["value"]


def _radians(node, angle: float) -> float:
    """An angle in the ``unit`` of ``node`` (checked as an angle unit)."""
    return math.radians(angle) if node["unit"] == "deg" else angle


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: None,  # handled specially (integer exponent only)
}


def _parse_expr(ctx, mark, field, text: str, params: dict):
    """Parse an arithmetic expression over declared scalar parameters;
    errors name ``field`` and the line of the mapping ``mark``."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as e:
        raise _err(ctx, mark, f"{field}: invalid expression {text!r}: {e.msg}") from None

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            literal = ast.get_source_segment(text, node)
            return lft.as_expr(
                _number(ctx, mark, f"literal {literal!r} in {field}", node.value)
            )
        if isinstance(node, ast.Name):
            if node.id not in params:
                raise _err(
                    ctx, mark,
                    f"{field}: unknown parameter {node.id!r} in expression {text!r}",
                )
            p = params[node.id]
            if isinstance(p, lft.HalfTanParam):
                raise _err(
                    ctx, mark,
                    f"{field}: angle parameter {node.id!r} may only be used as a "
                    "joint equilibrium angle, not inside expressions",
                )
            return lft.as_expr(p)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = walk(node.operand)
            return -inner if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            if isinstance(node.op, ast.Pow):
                if not (
                    isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int)
                    and node.right.value >= 0
                ):
                    raise _err(
                        ctx, mark,
                        f"{field}: exponent must be a non-negative integer "
                        f"literal in {text!r}",
                    )
                return walk(node.left) ** node.right.value
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        raise _err(
            ctx, mark,
            f"{field}: unsupported construct {type(node).__name__} in "
            f"expression {text!r} (use numbers, parameter names, + - * / **)",
        )

    return walk(tree)


def _scalar(ctx, node, field, value, params):
    """A ``_number`` or an expression string -> float | Expr."""
    if isinstance(value, str):
        return _parse_expr(ctx, node, field, value, params)
    return _number(ctx, node, field, value, "a finite number or an expression")


def _vector3(ctx, node, value, params):
    """The ``value`` of ``node``: a list of 3 ``_scalar``s."""
    if not isinstance(value, list) or len(value) != 3:
        raise _err(ctx, node, "value must be a list of 3 entries")
    return tuple(
        _scalar(ctx, node, f"value[{i}]", v, params) for i, v in enumerate(value)
    )


def _matrix33(ctx, node, value, params):
    """The ``value`` of ``node``: 3 rows or 3 diagonal entries of
    ``_scalar``s."""
    if not isinstance(value, list) or len(value) != 3:
        raise _err(ctx, node, "value must be 3 rows or 3 diagonal entries")
    if all(isinstance(r, list) for r in value):
        rows = []
        for i, r in enumerate(value):
            if len(r) != 3:
                raise _err(ctx, node, f"value row {i} must have 3 entries")
            rows.append(
                [_scalar(ctx, node, f"value[{i}][{j}]", v, params) for j, v in enumerate(r)]
            )
        return np.array(rows, dtype=object)
    out = np.zeros((3, 3), dtype=object)
    for i, v in enumerate(value):
        out[i, i] = _scalar(ctx, node, f"value[{i}]", v, params)
    return out


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _parse_parameters(section) -> dict:
    params: dict = {}
    if section is None:
        return params
    _need_mapping("parameters", section)
    for name, spec in section.items():
        ctx = f"parameters.{name}"
        spec = _take(
            ctx, spec,
            required=("kind", "nominal", "lower", "upper", "unit"),
            optional=("angle",),
        )
        kind = spec["kind"]
        if kind not in lft.KINDS:
            raise _err(ctx, spec, f"kind must be one of {sorted(lft.KINDS)}, got {kind!r}")
        is_angle = spec.get("angle", False)
        if not isinstance(is_angle, bool):
            raise _err(ctx, spec, "'angle' must be a boolean")
        nominal, lower, upper = (
            _number(ctx, spec, k, spec[k]) for k in ("nominal", "lower", "upper")
        )
        if is_angle:
            _check_unit(ctx, spec, "angle")
            nominal, lower, upper = (_radians(spec, v) for v in (nominal, lower, upper))
        elif not isinstance(spec["unit"], str) or not spec["unit"]:
            # non-angle units are free-form (kg, m, ...) but mandatory
            raise _err(ctx, spec, "'unit' must be a non-empty string")
        make = lft.HalfTanParam.from_angle if is_angle else lft.Param
        try:
            params[name] = make(str(name), nominal, lower, upper, kind=kind)
        except ValueError as e:
            raise _err(ctx, spec, str(e)) from None
    return params


def _parse_port_ref(ctx, text) -> tuple:
    if not isinstance(text, str) or text.count(".") != 1:
        raise ModelFileError(f"{ctx}: expected 'body.port', got {text!r}")
    body, port = text.split(".")
    return body, port


def _parse_bodies(section, params) -> tuple:
    if not isinstance(section, list) or not section:
        raise ModelFileError("bodies: expected a non-empty list")
    bodies = []
    for entry in section:
        ctx = "bodies[?]"
        _need_mapping(ctx, entry)
        name = entry.get("name", "?")
        ctx = f"bodies.{name}"
        entry = _take(
            ctx, entry,
            required=("name", "role", "mass", "inertia", "cog"),
            optional=("ports", "dof_mask"),
        )
        role = entry["role"]
        if role not in ("forward", "inverse"):
            raise _err(ctx, entry, f"role must be 'forward' or 'inverse', got {role!r}")

        node, mctx = entry["mass"], f"{ctx}.mass"
        mass = _scalar(mctx, node, "value", _value(mctx, node, "mass"), params)
        node, ictx = entry["inertia"], f"{ctx}.inertia"
        inertia = _matrix33(ictx, node, _value(ictx, node, "inertia"), params)
        node, cctx = entry["cog"], f"{ctx}.cog"
        cog = _vector3(cctx, node, _value(cctx, node, "length"), params)

        ports = []
        ports_node = entry.get("ports") or {}
        _need_mapping(f"{ctx}.ports", ports_node)
        for pname, node in ports_node.items():
            pctx = f"{ctx}.ports.{pname}"
            ports.append(
                (str(pname), _vector3(pctx, node, _value(pctx, node, "length"), params))
            )

        mask = entry.get("dof_mask")
        if mask is None:
            dof_mask = tuple(range(6))
        else:
            if not isinstance(mask, list) or not mask:
                raise _err(ctx, entry, "dof_mask must be a non-empty list")
            dof_mask = []
            for m in mask:
                if isinstance(m, str) and m in _AXIS_NAMES:
                    dof_mask.append(_AXIS_NAMES[m])
                elif isinstance(m, int) and 0 <= m <= 5 and not isinstance(m, bool):
                    dof_mask.append(m)
                else:
                    raise _err(
                        ctx, entry,
                        f"dof_mask entries must be 0..5 or one of "
                        f"{sorted(_AXIS_NAMES)}, got {m!r}",
                    )
            dof_mask = tuple(sorted(set(dof_mask)))

        try:
            bodies.append(
                RigidBody(
                    name=str(entry["name"]),
                    mass=mass,
                    inertia_cog=inertia,
                    cog_offset=cog,
                    ports=tuple(ports),
                    dynamics_role=(
                        DynamicsRole.FORWARD if role == "forward" else DynamicsRole.INVERSE
                    ),
                    dof_mask=dof_mask,
                )
            )
        except ValueError as e:
            if isinstance(e.__cause__, ArithmeticError):
                raise  # finite numbers whose arithmetic fails: a numerical error
            raise _err(ctx, entry, str(e)) from None
    return tuple(bodies)


def _parse_connections(section, params) -> tuple:
    if not isinstance(section, list) or not section:
        raise ModelFileError("connections: expected a non-empty list")
    conns = []
    seen = set()
    for entry in section:
        _need_mapping("connections[?]", entry)
        name = entry.get("name", "?")
        ctx = f"connections.{name}"
        if str(name) in seen:
            raise _err(ctx, entry, f"duplicate connection name {str(name)!r}")
        seen.add(str(name))
        ctype = entry.get("type")
        if ctype == "rigid":
            entry = _take(ctx, entry, required=("type", "name", "parent", "child"),
                          optional=("orientation",))
            dcm = None
            if "orientation" in entry:
                onode = _take(f"{ctx}.orientation", entry["orientation"],
                              required=("dcm",))
                dcm = onode["dcm"]
            try:
                conns.append(
                    RigidConnection(
                        name=str(entry["name"]),
                        parent_port=_parse_port_ref(f"{ctx}.parent", entry["parent"]),
                        child_port=_parse_port_ref(f"{ctx}.child", entry["child"]),
                        fixed_dcm=dcm,
                    )
                )
            except ValueError as e:
                raise _err(ctx, entry, str(e)) from None
        elif ctype == "revolute":
            entry = _take(
                ctx, entry,
                required=("type", "name", "parent", "child", "axis", "angle"),
                optional=("shaft_inertia", "friction"),
            )
            axis = _numbers(ctx, entry, "axis", entry["axis"], 3)
            anode = entry["angle"]
            if isinstance(anode, dict):
                actx = f"{ctx}.angle"
                angle = _number(actx, anode, "value", _value(actx, anode, "angle"))
                angle_eq = _radians(anode, angle)
            elif isinstance(anode, str) and isinstance(params.get(anode), lft.HalfTanParam):
                angle_eq = params[anode]
            else:
                raise _err(
                    ctx, entry,
                    f"angle must be a {{value, unit}} mapping or name a parameter "
                    f"declared with 'angle: true', got {anode!r}",
                )
            shaft, friction = DEFAULT_SHAFT_INERTIA, 0.0
            if "shaft_inertia" in entry:
                sctx, snode = f"{ctx}.shaft_inertia", entry["shaft_inertia"]
                shaft = _number(sctx, snode, "value", _value(sctx, snode, "shaft_inertia"))
            if "friction" in entry:
                fctx, fnode = f"{ctx}.friction", entry["friction"]
                friction = _number(fctx, fnode, "value", _value(fctx, fnode, "friction"))
            try:
                conns.append(
                    RevoluteJoint(
                        name=str(entry["name"]),
                        parent_port=_parse_port_ref(f"{ctx}.parent", entry["parent"]),
                        child_port=_parse_port_ref(f"{ctx}.child", entry["child"]),
                        axis=axis,
                        angle_eq=angle_eq,
                        shaft_inertia=shaft,
                        friction=friction,
                    )
                )
            except ValueError as e:
                raise _err(ctx, entry, str(e)) from None
        else:
            raise _err(ctx, entry, f"type must be 'revolute' or 'rigid', got {ctype!r}")
    return tuple(conns)


def _parse_boundary(section, params, bodies):
    ctx = "boundary"
    section = _take(ctx, section, required=("acceleration",),
                    optional=("forces", "root_damping"))
    actx, anode = f"{ctx}.acceleration", section["acceleration"]
    accel = _numbers(actx, anode, "value", _value(actx, anode, "acceleration"), 3)

    ports = {b.name: {"ref", *dict(b.ports)} for b in bodies}
    forces = []
    for i, fnode in enumerate(section.get("forces") or []):
        fctx = f"{ctx}.forces[{i}]"
        fnode = _take(fctx, fnode, required=("body", "port"),
                      optional=("value", "unit", "balance_weight"))
        body, port = str(fnode["body"]), str(fnode["port"])
        if body not in ports:
            raise _err(fctx, fnode, f"unknown body {body!r}")
        if port not in ports[body]:
            raise _err(fctx, fnode, f"body {body!r} has no port {port!r}")
        balance = fnode.get("balance_weight", False)
        if not isinstance(balance, bool):
            raise _err(fctx, fnode, "'balance_weight' must be a boolean")
        if balance:
            if "value" in fnode:
                raise _err(fctx, fnode, "'balance_weight' excludes an explicit value")
            force = (0.0, 0.0, 0.0)
        else:
            if "value" not in fnode:
                raise _err(fctx, fnode, "a force needs 'value' or 'balance_weight: true'")
            _check_unit(fctx, fnode, "force")
            force = _vector3(fctx, fnode, fnode["value"], params)
        forces.append(
            ExternalForce(body=body, port=port, force=force, balance_weight=balance)
        )

    damping = None
    if "root_damping" in section:
        dctx = f"{ctx}.root_damping"
        dnode = _take(dctx, section["root_damping"], required=("diag", "unit"))
        _check_unit(dctx, dnode, "root_damping")
        damping = np.diag(_numbers(dctx, dnode, "diag", dnode["diag"], 6))
    return accel, tuple(forces), damping


def _parse_root(section):
    if section is None:
        return RootSpec(kind="ground")
    ctx = "root"
    section = _take(ctx, section, required=("kind",), optional=("euler", "position"))
    kind = section["kind"]
    if kind not in ("ground", "free"):
        raise _err(ctx, section, f"kind must be 'ground' or 'free', got {kind!r}")
    euler = (0.0, 0.0, 0.0)
    if "euler" in section:
        ectx, enode = f"{ctx}.euler", section["euler"]
        v = _numbers(ectx, enode, "value", _value(ectx, enode, "angle"), 3)
        euler = tuple(_radians(enode, x) for x in v)
    position = (0.0, 0.0, 0.0)
    if "position" in section:
        pctx, pnode = f"{ctx}.position", section["position"]
        position = _numbers(pctx, pnode, "value", _value(pctx, pnode, "length"), 3)
    return RootSpec(kind=kind, euler=euler, position=position)


def _parse_io(section) -> tuple:
    if section is None:
        return (), ()
    ctx = "io"
    section = _take(ctx, section, optional=("inputs", "outputs"))
    inputs = []
    for i, node in enumerate(section.get("inputs") or []):
        ictx = f"{ctx}.inputs[{i}]"
        node = _take(ictx, node, optional=("torque", "wrench"))
        if ("torque" in node) == ("wrench" in node):
            raise _err(ictx, node, "each input is either 'torque: <joint>' or "
                                   "'wrench: <body.port>'")
        if "torque" in node:
            inputs.append(("torque", str(node["torque"])))
        else:
            body, port = _parse_port_ref(ictx, node["wrench"])
            inputs.append(("wrench", body, port))
    outputs = section.get("outputs") or []
    if not isinstance(outputs, list):
        raise ModelFileError(f"{ctx}.outputs: expected a list of state names")
    return tuple(inputs), tuple(str(s) for s in outputs)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_model(doc) -> MultibodyModel:
    """Build a MultibodyModel from a parsed YAML document."""
    doc = _take(
        "model", doc,
        required=("name", "bodies", "connections", "boundary"),
        optional=("parameters", "root", "io"),
    )
    if not isinstance(doc["name"], str):
        raise ModelFileError("model.name must be a string")
    params = _parse_parameters(doc.get("parameters"))
    bodies = _parse_bodies(doc["bodies"], params)
    conns = _parse_connections(doc["connections"], params)
    accel, forces, damping = _parse_boundary(doc["boundary"], params, bodies)
    root = _parse_root(doc.get("root"))
    inputs, outputs = _parse_io(doc.get("io"))
    try:
        return MultibodyModel(
            name=doc["name"],
            bodies=bodies,
            connections=conns,
            acceleration=accel,
            root=root,
            external_forces=forces,
            root_damping=damping,
            inputs=inputs,
            outputs=outputs,
        )
    except ValueError as e:
        raise ModelFileError(f"model: {e}") from None


def load_model(path) -> MultibodyModel:
    """Load and validate a model file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_Loader)
    except yaml.YAMLError as e:
        raise ModelFileError(f"{path}: not valid YAML: {e}") from None
    except UnicodeDecodeError as e:
        raise ModelFileError(f"{path}: not UTF-8 text: {e}") from None
    except IsADirectoryError:
        raise ModelFileError(f"{path}: is a directory, not a model file") from None
    if doc is None:
        raise ModelFileError(f"{path}: empty file")
    return parse_model(doc)
