"""Tree assembly: equilibrium geometry, equilibrium wrenches, and the
linearized parameter-dependent (LFT) state-space model.

The assembly flattens the element-by-element linearized models onto the
tree's generalized coordinates. With a free root the generalized
velocities are nu = (unmasked root dual-velocity components in the root
body frame, joint rates in tree order); with a grounded root only the
joint rates remain. The state vector is

    x = [ nu ; chi ]   with   chi = (root pose components, joint angles)

in the order [root velocities, joint rates, root pose, joint angles].
Root pose position states measure body-frame displacement from the
equilibrium location.

The linearized equations of motion are accumulated as

    M d(nu)/dt + C nu + K chi + B_hat u = 0,

with [M | C | K] one Param-valued LftMatrix, from step 3's spatial
operators over the bodies in tree order (see ``_spatial_operators``).
B_hat follows by virtual work from the body Jacobians J_b: a torque
input has -1 on its joint's row, and a wrench input at port p of body b
has -(tau(-p) J_b)^T in its columns. They are realized as

    A = [[-M^-1 [C K]], [G, 0]],   B = [[-M^-1 B_hat], [0]],

where G holds the (constant) equilibrium kinematics diag(I, Gamma^-1),
and M^-1 [C K] and M^-1 B_hat are left divisions of the reduced
[M | C | K] and [M | B_hat].
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from mblft import lft
from mblft import spatial as sp
from mblft.bodies import DynamicsRole, RigidBody, direct_dynamics_at_port
from mblft.joints import RevoluteJoint, revolute_dcm_lft

__all__ = [
    "AssemblyError",
    "TrimError",
    "ExternalForce",
    "RootSpec",
    "TreeLayout",
    "MultibodyModel",
    "EquilibriumSolution",
    "LinearLftModel",
    "step1_geometry",
    "step2_wrenches",
    "step3_linearize",
    "assemble",
    "sample_model",
    "modes",
    "sample_point",
]

GROUND = "ground"


class AssemblyError(ValueError):
    pass


class TrimError(AssemblyError):
    pass


@dataclass(frozen=True)
class ExternalForce:
    """Constant-reference-frame force applied at a body port.

    ``force`` is a 3-vector in the working reference frame R (entries may
    be Param-valued). With ``balance_weight`` the force is replaced by
    (total model mass) * (frame acceleration), which exactly cancels the
    net static load of the tree (e.g. buoyancy sized to the total weight).
    """

    body: str
    port: str
    force: object = (0.0, 0.0, 0.0)
    balance_weight: bool = False


@dataclass(frozen=True)
class RootSpec:
    """Root of the tree: either the ground or a free forward-role body.

    ``euler`` / ``position`` give the numeric equilibrium pose of the
    ground attachment frame or of the free root body in R.
    """

    kind: str = GROUND
    euler: tuple = (0.0, 0.0, 0.0)
    position: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.kind not in (GROUND, "free"):
            raise AssemblyError("root kind must be 'ground' or 'free'")
        for attr in ("euler", "position"):
            v = tuple(float(x) for x in getattr(self, attr))
            if len(v) != 3:
                raise AssemblyError(f"root {attr} must have 3 entries, got {len(v)}")
            object.__setattr__(self, attr, v)


@dataclass(frozen=True)
class TreeLayout:
    """The one layout of a model's tree that the assembly steps and the
    oracle share: the walk from the root, and the columns of the state
    x = [nu; chi] and of the inputs u."""

    root: str  # root body name, or GROUND
    order: tuple  # connections, depth-first from the root
    children: dict  # body name (or GROUND) -> its outbound connections
    joints: tuple  # revolute joints in tree order
    joint_index: dict  # joint name -> index among the joints
    mask: tuple  # unmasked root DOFs (empty for a grounded root)
    nq: int  # len(mask) + number of joints
    input_names: tuple
    input_cols: dict  # ("torque", joint) | ("wrench", body, port) -> column

    @property
    def k(self) -> int:
        """Unmasked root DOF count: the joint rows start here."""
        return len(self.mask)


@dataclass(frozen=True)
class MultibodyModel:
    """Tree of rigid bodies linked by rigid connections / revolute joints."""

    name: str
    bodies: tuple
    connections: tuple
    acceleration: tuple  # frame acceleration a in R (= -gravity vector)
    root: RootSpec = field(default_factory=RootSpec)
    external_forces: tuple = ()
    root_damping: object = None  # 6x6, wrench -root_damping @ x' at root ref
    inputs: tuple = ()  # ("torque", joint) | ("wrench", body, port)
    outputs: tuple = ()  # state names; empty = all states

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        object.__setattr__(self, "connections", tuple(self.connections))
        object.__setattr__(
            self,
            "acceleration",
            tuple(float(v) for v in np.asarray(self.acceleration).reshape(3)),
        )
        if not np.all(np.isfinite(self.acceleration)):
            raise AssemblyError("acceleration entries must be finite")
        object.__setattr__(self, "external_forces", tuple(self.external_forces))
        if self.root_damping is not None:
            rd = np.asarray(self.root_damping, dtype=float)
            if rd.shape != (6, 6):
                raise AssemblyError("root_damping must be a 6x6 matrix")
            object.__setattr__(self, "root_damping", rd)
        if not self.inputs:
            ins = tuple(
                ("torque", c.name)
                for c in self.connections
                if isinstance(c, RevoluteJoint)
            )
            object.__setattr__(self, "inputs", ins)
        else:
            object.__setattr__(self, "inputs", tuple(tuple(i) for i in self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        self._validate_tree()

    # -- structure -----------------------------------------------------
    def body(self, name: str) -> RigidBody:
        for b in self.bodies:
            if b.name == name:
                return b
        raise AssemblyError(f"unknown body {name!r}")

    @property
    def root_body(self) -> RigidBody | None:
        """A free root's one forward-role body; None for a grounded model."""
        return next(
            (b for b in self.bodies if b.dynamics_role is DynamicsRole.FORWARD),
            None,
        )

    def _validate_tree(self):
        names = [b.name for b in self.bodies]
        if len(set(names)) != len(names):
            raise AssemblyError("duplicate body names")
        conn_names = [c.name for c in self.connections]
        dup = sorted({n for n in conn_names if conn_names.count(n) > 1})
        if dup:
            raise AssemblyError(f"duplicate connection name(s) {dup}")
        for c in self.connections:
            pb, pp = c.parent_port
            if pb != GROUND:
                self.body(pb).port_position(pp)
            elif self.root.kind != GROUND:
                raise AssemblyError("ground parent in a free-root model")
            self.body(c.child_port[0]).port_position(c.child_port[1])
        forward = [b for b in self.bodies if b.dynamics_role is DynamicsRole.FORWARD]
        if self.root.kind == GROUND and forward:
            raise AssemblyError("a grounded model must use inverse-role bodies only")
        if self.root.kind != GROUND and len(forward) != 1:
            raise AssemblyError("a free-root model needs exactly one forward body")
        tree = self.tree
        missing = set(names) - {c.child_port[0] for c in self.connections}
        missing.discard(tree.root)
        if missing:
            raise AssemblyError(f"disconnected bodies: {sorted(missing)}")
        # every body but the root has one parent, so a connection that the
        # walk from the root does not reach lies on a cycle
        if len(tree.order) != len(self.connections):
            raise AssemblyError("connection graph contains a cycle")
        for spec in self.inputs:
            if spec[0] == "torque":
                if spec[1] not in tree.joint_index:
                    raise AssemblyError(f"torque input on unknown joint {spec[1]!r}")
            elif spec[0] == "wrench":
                self.body(spec[1]).port_position(spec[2])
            else:
                raise AssemblyError(f"unknown input spec {spec!r}")
        for f in self.external_forces:
            if f.body not in names:
                raise AssemblyError(f"external force on unknown body {f.body!r}")
            if f.port != "ref" and f.port not in dict(self.body(f.body).ports):
                raise AssemblyError(
                    f"external force on unknown port {f.port!r} of body {f.body!r}"
                )

    @cached_property
    def tree(self) -> TreeLayout:
        """The tree's layout, walked once from the root: the model is
        frozen.  Raises AssemblyError where a body has two parents or the
        root is a child, so that the walk visits each body once."""
        root = GROUND if self.root.kind == GROUND else self.root_body.name
        children: dict[str, list] = {}
        has_parent = set()
        for c in self.connections:
            cb = c.child_port[0]
            if cb in has_parent:
                raise AssemblyError(f"body {cb!r} has two parents (not a tree)")
            if cb == root:
                raise AssemblyError("root body cannot be a child")
            has_parent.add(cb)
            children.setdefault(c.parent_port[0], []).append(c)
        order, stack = [], [root]
        while stack:
            kids = children.get(stack.pop(), [])
            order.extend(kids)
            stack.extend(c.child_port[0] for c in reversed(kids))
        joints = tuple(c for c in order if isinstance(c, RevoluteJoint))
        mask = () if root == GROUND else self.root_body.dof_mask
        input_names, input_cols = [], {}
        for spec in self.inputs:
            if spec[0] == "torque":
                input_cols["torque", spec[1]] = len(input_names)
                input_names.append(f"{spec[1]}.Cm")
            elif spec[0] == "wrench":
                input_cols["wrench", spec[1], spec[2]] = len(input_names)
                wn = ("Fx", "Fy", "Fz", "Mx", "My", "Mz")
                input_names.extend(f"{spec[1]}.{spec[2]}.{w}" for w in wn)
        return TreeLayout(
            root=root,
            order=tuple(order),
            children=children,
            joints=joints,
            joint_index={c.name: i for i, c in enumerate(joints)},
            mask=mask,
            nq=len(mask) + len(joints),
            input_names=tuple(input_names),
            input_cols=input_cols,
        )

    # -- parameters ------------------------------------------------------
    def parameters(self) -> dict:
        """Registry of every Param in the model, keyed by name."""
        return dict(self._parameters)

    @cached_property
    def _parameters(self) -> dict:
        # built once: the model and every part of it are frozen
        reg: dict[str, lft.Param] = {}

        def add(e):
            for p in lft.as_expr(e).params():
                if p.name in reg and reg[p.name] != p:
                    raise AssemblyError(
                        f"conflicting definitions of parameter {p.name!r}"
                    )
                reg[p.name] = p

        for b in self.bodies:
            add(b.mass)
            for v in b.cog_offset:
                add(v)
            for i in range(3):
                for j in range(3):
                    add(b.inertia_cog[i, j])
            for _, pos in b.ports:
                for v in pos:
                    add(v)
        for c in self.connections:
            if isinstance(c, RevoluteJoint) and isinstance(
                c.angle_eq, lft.HalfTanParam
            ):
                add(lft.Ref(c.angle_eq.param))
        for f in self.external_forces:
            for v in np.asarray(f.force, dtype=object).reshape(3):
                add(v)
        return reg


# ---------------------------------------------------------------------------
# Step 1: geometry at equilibrium
# ---------------------------------------------------------------------------


@dataclass
class _BodyGeo:
    """Equilibrium LFTs of one body, shared by steps 2 and 3 (its
    Jacobians are step 3's, see ``_spatial_operators``)."""

    body: object  # RigidBody or None for ground
    dcm: lft.LftMatrix  # body frame -> R
    abar: lft.LftMatrix  # 3 x 1 frame acceleration in body frame
    d: lft.LftMatrix | None  # 6 x 6 direct dynamics at the reference port
    loads: list  # (fbar, tau_lft(-p)) of each external force on the body


@dataclass
class _ConnGeo:
    """LFTs of one connection, shared by steps 1-3."""

    p_ab: lft.LftMatrix  # P_a/b: child frame -> parent frame
    p2: lft.LftMatrix  # p2_lft(P_a/b): child-frame 6-vectors -> parent frame
    tau_c: lft.LftMatrix  # tau_lft(cpos): joint point -> child reference port
    tau_q: lft.LftMatrix  # tau_lft(-qpos): parent reference port -> joint point


@dataclass
class GeometryContext:
    """Step 1's result: the equilibrium geometry that steps 2 and 3 read,
    without the body Jacobians, which only step 3 needs."""

    model: MultibodyModel
    geo: dict  # body name (or GROUND) -> _BodyGeo
    conn: dict  # child body name -> _ConnGeo of its inbound connection
    gamma0: np.ndarray  # root Euler-rate map at equilibrium


def _body_terms(body, dcm: lft.LftMatrix, forces: list) -> tuple:
    """A body's direct dynamics at its reference port, and the force in body
    axes and the transport from the reference port to the force's port of
    each external force on it (None and [] for the ground)."""
    if body is None:
        return None, []
    loads = [
        (
            dcm.T @ sp.as_lft(list(np.asarray(f.force, dtype=object).reshape(3))),
            sp.tau_lft(-body.port_position_lft(f.port)),
        )
        for f in forces
        if f.body == body.name
    ]
    return direct_dynamics_at_port(body, "ref"), loads


def step1_geometry(model: MultibodyModel) -> GeometryContext:
    """Root-to-leaf pass: equilibrium orientations and frame accelerations,
    and the per-body and per-connection LFTs that steps 2 and 3 share.  The
    body Jacobians are left to step 3, so that ``mblft equilibrium`` does
    not pay for them, and body positions to the report, which needs them
    at nominal only.

    Nothing here is reduced.  A DCM or frame acceleration down the tree
    takes each joint's angle channels once, through that joint's own
    rotation, and a reduction of them removed no channel on the shipped
    models or on generated chains.  An LFT is reduced once, where a later
    step builds on it: step 2's joint loads and step 3's W_sys and
    [M | B_hat]; the report reads the DCMs at nominal only."""
    forces = _resolved_forces(model)
    tree = model.tree
    euler0 = np.asarray(model.root.euler, dtype=float)
    dcm0 = sp.dcm_from_euler(euler0)
    gamma0 = sp.euler_rate_map(euler0)
    a_r = np.asarray(model.acceleration, dtype=float).reshape(3, 1)

    geo: dict[str, _BodyGeo] = {}
    conn: dict[str, _ConnGeo] = {}
    root_body = model.root_body
    dcm_root = lft.constant(dcm0)
    d_root, loads_root = _body_terms(root_body, dcm_root, forces)
    geo[tree.root] = _BodyGeo(
        body=root_body,
        dcm=dcm_root,
        abar=lft.constant(dcm0.T @ a_r),
        d=d_root,
        loads=loads_root,
    )

    for c in tree.order:
        pb, pp = c.parent_port
        cb, cp = c.child_port
        parent = geo[pb]
        body = model.body(cb)
        qpos = (
            lft.zeros(3, 1)
            if pb == GROUND
            else model.body(pb).port_position_lft(pp)
        )
        cpos = body.port_position_lft(cp)
        if isinstance(c, RevoluteJoint):
            p_ab = revolute_dcm_lft(c)
        else:
            p_ab = lft.constant(c.fixed_dcm)
        conn[cb] = _ConnGeo(
            p_ab, sp.p2_lft(p_ab), sp.tau_lft(cpos), sp.tau_lft(-qpos)
        )
        dcm = parent.dcm @ p_ab
        abar = p_ab.T @ parent.abar
        geo[cb] = _BodyGeo(body, dcm, abar, *_body_terms(body, dcm, forces))

    return GeometryContext(model=model, geo=geo, conn=conn, gamma0=gamma0)


# ---------------------------------------------------------------------------
# Step 2: wrenches at equilibrium
# ---------------------------------------------------------------------------


@dataclass
class EquilibriumSolution:
    """Equilibrium geometry and loads (Param-valued)."""

    geometry: GeometryContext
    joint_load: dict  # joint name -> 6x1 LftMatrix S_c (child frame, at joint)
    root_reaction: lft.LftMatrix  # 6x1: ground reaction or free-root residual

    @property
    def model(self) -> MultibodyModel:
        return self.geometry.model

    def _euler(self, body: str, dcm: np.ndarray) -> np.ndarray:
        """Equilibrium Euler angles of a body: a free root's as given, a
        child's from its nominal DCM, with t3 = 0 where its pitch is at
        gimbal lock (only a free root's state needs angles away from lock)."""
        root = self.model.root
        if root.kind == "free" and body == self.model.root_body.name:
            return np.asarray(root.euler, dtype=float)
        return sp.euler_from_dcm(dcm, lock_ok=True)

    @cached_property
    def _nominal_parts(self) -> list:
        """Every DCM, joint load and the root reaction at nominal, from one
        evaluation of their block diagonal (one plan, one gated solve),
        shared by the free-root trim check and every report."""
        nominal = {name: p.nominal for name, p in self.model.parameters().items()}
        blocks = [rec.dcm for rec in self.geometry.geo.values()]
        blocks += [*self.joint_load.values(), self.root_reaction]
        value = lft.blockdiag(blocks).evaluate(nominal)
        parts, row, col = [], 0, 0
        for b in blocks:
            parts.append(value[row : row + b.rows, col : col + b.cols])
            row, col = row + b.rows, col + b.cols
        return parts

    def report(self) -> dict:
        """The equilibrium at nominal only (``_nominal_parts``), so no value
        here has an LFT of its own.  Each body's reference-port position
        follows from the nominal DCMs and port positions, and each joint's
        torque (the driving C_m that holds it) is r6 . (nominal joint load)."""
        model, g = self.model, self.geometry
        nominal = {name: p.nominal for name, p in model.parameters().items()}

        def port(body: str, name: str) -> np.ndarray:
            entries = model.body(body).port_position(name)
            return np.array([lft.as_expr(v).value(nominal) for v in entries])

        parts = self._nominal_parts
        dcm = dict(zip(g.geo, parts))
        pos = {model.tree.root: np.asarray(model.root.position, dtype=float)}
        for c in model.tree.order:
            (pb, pp), (cb, cp) = c.parent_port, c.child_port
            joint = pos[pb] if pb == GROUND else pos[pb] + dcm[pb] @ port(pb, pp)
            pos[cb] = joint - dcm[cb] @ port(cb, cp)
        bodies = {
            name: {
                "euler_deg": list(np.degrees(self._euler(name, dcm[name]))),
                "position": list(pos[name]),
            }
            for name in g.geo
            if name != GROUND
        }
        joints = {}
        for name, load in zip(self.joint_load, parts[len(g.geo) : -1]):
            load = load.ravel()
            r6 = model.tree.joints[model.tree.joint_index[name]].r6
            joints[name] = {"torque": float(r6 @ load), "load": list(load)}
        return {
            "bodies": bodies,
            "joints": joints,
            "root_reaction": list(parts[-1].ravel()),
        }


def _resolved_forces(model: MultibodyModel) -> list:
    """The model's external forces, a balance weight's force resolved to
    (total mass) * (frame acceleration)."""
    out = []
    for f in model.external_forces:
        if f.balance_weight:
            total = sum((lft.as_expr(b.mass) for b in model.bodies), lft.as_expr(0.0))
            vec = [total * float(a) for a in model.acceleration]
            out.append(ExternalForce(f.body, f.port, tuple(vec), False))
        else:
            out.append(f)
    return out


def step2_wrenches(ctx: GeometryContext) -> EquilibriumSolution:
    """Leaf-to-root pass: equilibrium interface wrenches and joint torques.

    Only each revolute joint's load S_c = tau_c^T (child's wrench) is
    reduced, as step 3 multiplies it; its n-D reduction sees the whole
    subtree's channels at once.  The root's wrench is read at nominal only."""
    joint_load: dict[str, lft.LftMatrix] = {}
    model = ctx.model
    tree = model.tree

    def visit(name: str) -> lft.LftMatrix:
        rec = ctx.geo[name]
        if name == GROUND:
            ibar = lft.zeros(6, 1)
        else:
            ibar = rec.d @ lft.vstack([rec.abar, lft.zeros(3, 1)])
            for fbar, tau_p in rec.loads:
                ibar = ibar - tau_p.T @ lft.vstack([fbar, lft.zeros(3, 1)])
        for c in tree.children.get(name, []):
            cb = c.child_port[0]
            cg = ctx.conn[cb]
            s_c = cg.tau_c.T @ visit(cb)
            if isinstance(c, RevoluteJoint):
                s_c = joint_load[c.name] = lft.reduce_lft(s_c)
            ibar = ibar + cg.tau_q.T @ (cg.p2 @ s_c)
        return ibar

    sol = EquilibriumSolution(ctx, joint_load, root_reaction=visit(tree.root))
    if model.root.kind == "free":
        res = sol._nominal_parts[-1].ravel()[list(tree.mask)]
        if np.max(np.abs(res)) > 1e-6:
            raise TrimError(
                f"free root is not in equilibrium (residual {res}); balance "
                "the external forces"
            )
    return sol


# ---------------------------------------------------------------------------
# Step 3: linearized LFT model
# ---------------------------------------------------------------------------


_EXPORT_FORMAT = "mblft-linear-model"


@dataclass(frozen=True)
class LinearLftModel:
    """Parameter-dependent linear state-space model in LFT form."""

    a: lft.LftMatrix
    b: lft.LftMatrix
    c: lft.LftMatrix
    d: lft.LftMatrix
    state_names: tuple
    input_names: tuple
    output_names: tuple
    parameters: dict  # name -> Param
    equilibrium: EquilibriumSolution

    @property
    def order(self) -> int:
        return len(self.state_names)

    def delta_summary(self) -> dict:
        """Occurrence counts per parameter and per matrix."""
        out: dict[str, dict] = {}
        for tag, m in (("A", self.a), ("B", self.b)):
            for name, count in m.delta_structure:
                out.setdefault(name, {}).setdefault(tag, 0)
                out[name][tag] += count
        for name, info in out.items():
            info["kind"] = self.parameters[name].kind
        return out

    def to_export_dict(self, strict_bounds: bool = False) -> dict:
        """The JSON export that ``read_export`` reads; ``strict_bounds``
        marks it so that sampling rejects out-of-bounds points."""
        return {
            "format": _EXPORT_FORMAT,
            "version": 1,
            "euler_sequence": "xyz-intrinsic",
            "state_names": list(self.state_names),
            "input_names": list(self.input_names),
            "output_names": list(self.output_names),
            "parameters": {
                name: {
                    "nominal": p.nominal,
                    "lower": p.lower,
                    "upper": p.upper,
                    "kind": p.kind,
                }
                for name, p in self.parameters.items()
            },
            "A": self.a.to_dict(),
            "B": self.b.to_dict(),
            "C": self.c.to_dict(),
            "D": self.d.to_dict(),
            "equilibrium": self.equilibrium.report(),
            "strict_bounds": bool(strict_bounds),
        }


class ExportError(ValueError):
    """A decoded document that is not a whole version-1 export."""


def is_json_number(value) -> bool:
    """Whether a decoded JSON value is a number: an int or a float, not a
    bool or a string such as "0.6", and within the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)  # an integer past the float range overflows
    except OverflowError:
        return False
    return True


def _export_value(value, where: str, kind: str):
    """``value`` if it is a JSON ``kind``: "number" (``is_json_number``),
    "integer" or "boolean"; ExportError naming ``where`` otherwise."""
    if kind == "number":
        ok = is_json_number(value)
    else:
        ok = type(value) is (int if kind == "integer" else bool)
    if not ok:
        raise ExportError(
            f"malformed linear-model export: {where} must be a JSON {kind}, "
            f"got {value!r}"
        )
    return value


def _export_matrix(data, tag: str) -> lft.LftMatrix:
    """``LftMatrix.from_dict`` of the export's matrix ``tag``, once its
    counts are integers and its coefficients and bounds numbers."""
    for key in ("rows", "cols"):
        _export_value(data[key], f"{tag}.{key}", "integer")
    for i, entry in enumerate(data["delta_structure"]):
        where = f"{tag}.delta_structure[{i}].repetitions"
        _export_value(entry["repetitions"], where, "integer")
    for i, q in enumerate(data["parameters"]):
        for key in ("nominal", "lower", "upper"):
            _export_value(q[key], f"{tag}.parameters[{i}].{key}", "number")
    rows = data["coefficients"]
    # the writer writes floats: look for the culprit only if another type is there
    if set(map(type, itertools.chain.from_iterable(rows))) != {float}:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                _export_value(v, f"{tag}.coefficients[{i}][{j}]", "number")
    return lft.LftMatrix.from_dict(data)


def read_export(export) -> tuple:
    """The matrices (A, B, C, D), nominal point, signal names and strict
    flag of a decoded ``to_export_dict``; anything else, a number, count or
    strict flag of another JSON type included, raises ExportError."""
    if not isinstance(export, dict) or export.get("format") != _EXPORT_FORMAT:
        raise ExportError("not a linear-model export")
    version = export.get("version")
    if type(version) is not int or version != 1:
        raise ExportError(f"unsupported export version {version!r}")
    try:
        mats = tuple(_export_matrix(export[tag], tag) for tag in "ABCD")
        nominal = {
            name: _export_value(p["nominal"], f"parameters.{name}.nominal", "number")
            for name, p in export["parameters"].items()
        }
        names = {
            key: [str(n) for n in export[key]]
            for key in ("state_names", "input_names", "output_names")
        }
    except ExportError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, lft.LftError) as e:
        raise ExportError(
            f"malformed linear-model export ({type(e).__name__}: {e})"
        ) from None
    strict = export.get("strict_bounds", False)
    return mats, nominal, names, _export_value(strict, "strict_bounds", "boolean")


@dataclass
class _Operators:
    """Step 3's spatial operators, over the bodies in tree order."""

    index: dict  # body name -> its row block below: a free root, then tree order
    jac: lft.LftMatrix  # 6n x nq: each body's Jacobian J_b
    q: lft.LftMatrix  # 3n x 2nq: each body's [Phi_b | Y_b]


def _spatial_operators(ctx: GeometryContext) -> _Operators:
    """The body Jacobians J = (I - E)^-1 S and [Phi | Y] = (I - R)^-1 Z, from
    step 1's connection LFTs (Rodriguez, Jain & Kreutz-Delgado, 1991).

    J_b is body b's 6 x nq acceleration/velocity Jacobian at its reference
    port, Phi_b its 3 x nq infinitesimal-rotation map and Y_b =
    skew(abar_b) Phi_b, all in its own frame.  E holds tau_c P2^T tau_q and
    R holds P_ab^T at (child, parent).  S holds jhat0 at a free root and
    tau_c r6 e_nu at each revolute child; Z holds [phi0 | skew(abar0) phi0]
    and [axis e_nu | -skew(axis) abar_c e_nu].  Their block rows are the
    root-to-leaf recursions J_c = tau_c (P2^T tau_q J_p + r6 e_nu) and,
    since skew(P^T a) = P^T skew(a) P, Y_c = P^T Y_p - skew(axis) abar_c
    e_nu.  A left division of [I - E | S] or [I - R | Z] keeps its channels,
    so each connection's channels enter each operator once.
    """
    tree = ctx.model.tree
    nq = tree.nq
    bodies = [] if tree.root == GROUND else [tree.root]
    bodies += [c.child_port[0] for c in tree.order]
    n = len(bodies)
    index = {name: i for i, name in enumerate(bodies)}
    # I - E and I - R, filled below the diagonal
    e_grid = [[np.eye(6) * (i == j) for j in range(n)] for i in range(n)]
    r_grid = [[np.eye(3) * (i == j) for j in range(n)] for i in range(n)]
    s_rows = [np.zeros((6, nq))] * n
    z_rows = [np.zeros((3, 2 * nq))] * n
    if tree.root != GROUND:
        jhat0, phi0 = _root_maps(ctx)
        abar0 = ctx.geo[tree.root].abar.a
        s_rows[0] = jhat0
        z_rows[0] = np.hstack([phi0, sp.skew(abar0) @ phi0])
    for c in tree.order:
        cb = c.child_port[0]
        i, cg = index[cb], ctx.conn[cb]
        j = index.get(c.parent_port[0])
        if j is not None:  # a child of the ground has no parent block
            e_grid[i][j] = -(cg.tau_c @ (cg.p2.T @ cg.tau_q))
            r_grid[i][j] = -cg.p_ab.T
        if isinstance(c, RevoluteJoint):
            e_nu = _joint_row(tree, c)
            s_rows[i] = cg.tau_c @ lft.constant(c.r6.reshape(6, 1) @ e_nu)
            y_seed = lft.constant(-sp.skew(c.axis)) @ ctx.geo[cb].abar
            z_rows[i] = lft.hstack(
                [c.axis.reshape(3, 1) @ e_nu, y_seed @ lft.constant(e_nu)]
            )
    jac = lft.hstack([lft.block(e_grid), lft.vstack(s_rows)]).left_divide()
    q = lft.hstack([lft.block(r_grid), lft.vstack(z_rows)]).left_divide()
    return _Operators(index, jac, q)


def _joint_row(tree: TreeLayout, joint: RevoluteJoint) -> np.ndarray:
    """The 1 x nq unit row of a joint's generalized coordinate."""
    e = np.zeros((1, tree.nq))
    e[0, tree.k + tree.joint_index[joint.name]] = 1.0
    return e


def _root_maps(ctx: GeometryContext) -> tuple:
    """A free root's jhat0 (6 x nq) and phi0 (3 x nq): its unmasked DOFs,
    and the Euler-rate map on its rotation pose columns (phi maps pose
    coordinates, whose root columns share the nu layout)."""
    tree = ctx.model.tree
    jhat0 = np.zeros((6, tree.nq))
    phi0 = np.zeros((3, tree.nq))
    for col, dof in enumerate(tree.mask):
        jhat0[dof, col] = 1.0
        if dof >= 3:
            phi0[:, col] = ctx.gamma0[:, dof - 3]
    return jhat0, phi0


def step3_linearize(eq: EquilibriumSolution) -> LinearLftModel:
    """Assemble the linearized LFT state-space model around the equilibrium.

    An interface wrench W = M nudot + C nu + K chi is carried as one LFT,
    its 6 x 3nq coefficients over the columns [M | C | K].  Each body's
    own wrench is L_b = D_b [J_b | 0 | [Y_b; 0]] plus its root damping,
    load stiffness and the stiffness of its revolute children's turning
    loads; its inbound wrench sums L over its subtree through E^T, so the
    system rows are W_sys = S^T (I - E)^-T L = J^T L, plus the joints'
    shaft and friction terms.

    A and B are left divisions of the only LFTs step 3 reduces, W_sys and
    [M | B_hat] (J, [Phi | Y] and L enter unreduced).  A division keeps its
    channels (LFTs are closed under inversion), so neither is reduced
    again: each leaves balanced, a fixed point of ``lft.reduce_lft``.
    """
    model, ctx = eq.model, eq.geometry
    tree = model.tree
    nq, k, mask = tree.nq, tree.k, tree.mask
    if nq == 0:
        raise AssemblyError("model has no degrees of freedom")
    nu_in = len(tree.input_names)
    ops = _spatial_operators(ctx)
    index, n = ops.index, len(ops.index)

    # [J | 0 | [Y; 0]], the columns that every body's D multiplies once
    y6 = lft.constant(np.kron(np.eye(n), np.eye(6, 3))) @ ops.q.submatrix(
        range(3 * n), range(nq, 2 * nq)
    )
    x = lft.hstack([ops.jac, lft.zeros(6 * n, nq), y6])
    d = lft.blockdiag([ctx.geo[name].d for name in index])

    # the rest of L: root damping, and stiffness from loads that turn with
    # their body and from each revolute child's load turning with its joint
    damping = [np.zeros((6, nq))] * n
    stiff = [lft.zeros(6, nq)] * n
    for name, i in index.items():
        rec = ctx.geo[name]
        if rec.body is model.root_body and model.root_damping is not None:
            damping[i] = model.root_damping @ _root_maps(ctx)[0]
        phi = ops.q.submatrix(range(3 * i, 3 * i + 3), range(nq))
        for fbar, tau_p in rec.loads:
            load_k = lft.vstack([sp.skew_lft(fbar) @ phi, lft.zeros(3, nq)])
            stiff[i] = stiff[i] - tau_p.T @ load_k
    for c in tree.joints:
        i = index.get(c.parent_port[0])
        if i is None:  # the ground's wrench enters no row
            continue
        cg = ctx.conn[c.child_port[0]]
        rskew = np.kron(np.eye(2), sp.skew(c.axis))
        turned = (lft.constant(rskew) @ eq.joint_load[c.name]) @ lft.constant(
            _joint_row(tree, c)
        )
        stiff[i] = stiff[i] + cg.tau_q.T @ (cg.p2 @ turned)
    extra = lft.block(
        [[np.zeros((6, nq)), damping[i], stiff[i]] for i in range(n)]
    )
    own = d @ x + extra

    # shaft inertia (its own rate and its parent's angular acceleration
    # about the axis) and friction on each joint's row
    shaft_const = np.zeros((nq, 3 * nq))
    shaft_sel = np.zeros((nq, 6 * n))
    for c in tree.joints:
        row = k + tree.joint_index[c.name]
        shaft_const[row, row] = c.shaft_inertia
        shaft_const[row, nq + row] = c.friction
        j = index.get(c.parent_port[0])
        if j is not None:
            shaft_sel[row, 6 * j + 3 : 6 * j + 6] = c.shaft_inertia * c.axis_in_parent
    shaft = lft.hstack(
        [lft.constant(shaft_sel) @ ops.jac, lft.zeros(nq, 2 * nq)]
    ) + lft.constant(shaft_const)
    w_sys = lft.reduce_lft(ops.jac.T @ own + shaft)

    # B_hat by virtual work: a torque input acts on its joint's row, and a
    # wrench input at port p of body b through the velocity Jacobian of p,
    # (tau(-p) J_b)^T; the input enters W with a minus sign
    b_const = np.zeros((nq, nu_in))
    gains = [lft.zeros(6, nu_in)] * n
    for spec, col in tree.input_cols.items():
        if spec[0] == "torque":
            b_const[k + tree.joint_index[spec[1]], col] = -1.0
        else:
            sel = np.zeros((6, nu_in))
            sel[:, col : col + 6] = np.eye(6)
            i = index[spec[1]]
            gain = sp.tau_lft(-ctx.geo[spec[1]].body.port_position_lft(spec[2])).T
            gains[i] = gains[i] + gain @ lft.constant(sel)
    b_hat = lft.constant(b_const) - ops.jac.T @ lft.vstack(gains)
    # [M | B_hat], not [W_sys | B_hat], which brings A's channels into B; M
    # and B_hat reduced apart can keep channels only the two make redundant
    m_b = lft.reduce_lft(lft.hstack([w_sys.submatrix(range(nq), range(nq)), b_hat]))
    if np.linalg.cond(m_b.nominal[:, :nq]) > 1e13:
        raise AssemblyError("singular generalized mass matrix")

    # kinematics chi_dot = G nu
    g = np.zeros((nq, nq))
    if k:
        full = np.block(
            [
                [np.eye(3), np.zeros((3, 3))],
                [np.zeros((3, 3)), np.linalg.inv(ctx.gamma0)],
            ]
        )
        g[:k, :k] = full[np.ix_(list(mask), list(mask))]
    g[k:, k:] = np.eye(nq - k)

    a = lft.block([[-w_sys.left_divide()], [lft.constant(g), lft.zeros(nq, nq)]])
    b = lft.vstack([-m_b.left_divide(), lft.zeros(nq, nu_in)])
    a, b = a.sorted_by_kind().balanced(), b.sorted_by_kind().balanced()

    state_names = _state_names(tree)
    if model.outputs:
        idx = []
        for name in model.outputs:
            if name not in state_names:
                raise AssemblyError(f"unknown output state {name!r}")
            idx.append(state_names.index(name))
        cmat = np.eye(2 * nq)[idx, :]
        output_names = tuple(model.outputs)
    else:
        cmat = np.eye(2 * nq)
        output_names = state_names
    c_out = lft.constant(cmat)
    d_out = lft.zeros(cmat.shape[0], nu_in)

    params = model.parameters()
    return LinearLftModel(
        a=a,
        b=b,
        c=c_out,
        d=d_out,
        state_names=state_names,
        input_names=tree.input_names,
        output_names=output_names,
        parameters=params,
        equilibrium=eq,
    )


def _state_names(tree: TreeLayout) -> tuple:
    axes = ("vx", "vy", "vz", "wx", "wy", "wz")
    pose = ("x", "y", "z", "t1", "t2", "t3")
    # a grounded root has no unmasked DOFs, so no root states
    return tuple(
        [f"{tree.root}.{axes[i]}" for i in tree.mask]
        + [f"{c.name}.thetadot" for c in tree.joints]
        + [f"{tree.root}.{pose[i]}" for i in tree.mask]
        + [f"{c.name}.theta" for c in tree.joints]
    )


def assemble(model: MultibodyModel) -> LinearLftModel:
    """Run the three assembly steps and return the LFT model."""
    return step3_linearize(step2_wrenches(step1_geometry(model)))


# ---------------------------------------------------------------------------
# Sampling and modes
# ---------------------------------------------------------------------------


def full_point(nominal: Mapping, point: Mapping, index: int = 0) -> dict:
    """``point`` with every parameter it leaves out at its ``nominal``
    value.  A name ``nominal`` does not declare raises EvaluationError;
    ``index`` is the point's position in its sequence."""
    unknown = point.keys() - nominal.keys()
    if unknown:
        raise lft.EvaluationError(
            f"unknown parameter(s) {sorted(unknown)!r}; known: {sorted(nominal)}",
            index,
        )
    return {**nominal, **point}


def evaluate_points(mats: tuple, points: list, strict: bool = False) -> tuple:
    """The matrices ``mats`` stacked over the longest prefix of the full
    ``points`` where all of them evaluate (``strict``: and every value is in
    its bounds), and the EvaluationError of the point after it, or None.
    That error is the one a point-by-point loop over ``mats`` raises first:
    each failure cuts the prefix at the failing point, and it is evaluated
    again."""
    err = None
    while True:
        try:
            return tuple(m.evaluate(points, strict) for m in mats), err
        except lft.EvaluationError as exc:
            points, err = points[: exc.index], exc


def sample_model(lm: LinearLftModel, point, strict: bool = False):
    """Numeric (A, B, C, D) of the LFT model at a parameter point, or
    stacked over a sequence of points (see ``LftMatrix.evaluate``).
    Parameters a point leaves out take their nominal values
    (``full_point``).  A failure raises the EvaluationError of the earliest
    point at which any of the four matrices fails."""
    nominal = {name: p.nominal for name, p in lm.parameters.items()}
    one = isinstance(point, Mapping)
    points = [point] if one else point
    full = [full_point(nominal, pt, i) for i, pt in enumerate(points)]
    num, err = evaluate_points((lm.a, lm.b, lm.c, lm.d), full, strict)
    if err is not None:
        raise err
    return tuple(m[0] for m in num) if one else num


def modes(a: np.ndarray) -> list:
    """(eigenvalue, frequency [Hz], damping ratio) sorted by |Im|.

    A stack of matrices gives one such list per matrix, from one call of
    ``np.linalg.eigvals`` (whose values equal those of one call each).
    """
    a = np.asarray(a, dtype=float)
    eigs = np.linalg.eigvals(a)
    if a.ndim == 3:
        return [_modes_of(lams) for lams in eigs]
    return _modes_of(eigs)


def _modes_of(lams: np.ndarray) -> list:
    out = []
    for lam in lams:
        mag = abs(lam)
        zeta = 1.0 if mag == 0.0 else float(-lam.real / mag)
        out.append((complex(lam), mag / (2.0 * np.pi), zeta))
    out.sort(key=lambda t: (abs(t[0].imag), t[0].real))
    return out


def sample_point(parameters: dict, rng) -> dict:
    """Uniform random admissible parameter point."""
    return {
        name: float(rng.uniform(p.lower, p.upper))
        for name, p in parameters.items()
    }
