"""Independent nonlinear validation of assembled models.

Implements the full nonlinear equations of motion of the tree (including
all velocity-dependent terms) by a plain numeric recursive sweep, plus a
central finite-difference linearization used as ground truth for the
analytically linearized LFT model.  The sweep runs on stacks of states, so
that one finite-difference linearization is one residual evaluation.

The evaluator state matches the assembled model's convention exactly:

    x = [ nu ; chi ]

with nu the masked root body-frame dual velocity followed by the joint
rates, and chi the root pose (body-frame position displacement and Euler
angles, masked) followed by the joint angles. Inputs are the model's
declared torque/wrench inputs in absolute terms (at trim, a torque input
equals the equilibrium torque).

The evaluator reads the model as given, in two parts:

- once per model object, a plan of everything that does not depend on the
  parameter point: the tree order, joint index, DOF mask and input layout,
  read from ``MultibodyModel.tree``, the grounded root's DCM, each joint's
  skew matrices, every mass, inertia, CoG, port and force entry as an
  expression, and ``fd_linearize``'s state, input and unit-acceleration
  rows for each step scale.  Every evaluator of the same model object
  shares it;
- once per point, in the constructor: the plan's expressions evaluated at
  the point (masses, inertias, CoG offsets, port positions, force vectors
  including the balance weight, and joint angles), held to the numeric
  body rules that ``mblft.bodies`` applies when a body is built, and the
  skew matrices of the vectors fixed at the point.

This module deliberately shares no assembly step and no LFT algebra with
the assembly path: only the model classes, their tree layout and force
resolution, the numeric body rules, the numeric spatial primitives and the
numeric direct dynamics; the linearization here is purely finite-difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mblft import lft
from mblft import spatial as sp
from mblft.assembly import (
    GROUND,
    MultibodyModel,
    TrimError,
    _resolved_forces,
    full_point,
)
from mblft.bodies import (
    _d_numeric,
    check_mass_properties,
    check_port_position,
)
from mblft.joints import RevoluteJoint

__all__ = ["FdConfig", "NonlinearEvaluator", "fd_linearize"]


# (a x b)_i = a_next(i) b_prev(i) - a_prev(i) b_next(i): both products of
# each component from one take of a and one of b
_A_IDX = np.array([1, 2, 0, 2, 0, 1])
_B_IDX = np.array([2, 0, 1, 1, 2, 0])
_EYE3 = np.eye(3)


def _cross(a, b):
    """Cross product of (..., 3) arrays, broadcast over the leading axes."""
    ab = a.take(_A_IDX, -1) * b.take(_B_IDX, -1)
    return ab[..., :3] - ab[..., 3:]


def _xs(a, s):
    """a @ s for (..., 3) rows a and a (3, 3) s.  With s = skew(v) it is
    a x v, and with s = skew(v).T it is v x a: each component is the same
    two rounded products and their difference as in ``_cross`` (plus an
    exact zero term), so only the sign of a zero result can differ."""
    return np.einsum("...i,ij->...j", a, s)


def _skews(vs) -> np.ndarray:
    """skew(v) of each row of an (N, 3) array, as an (N, 3, 3) stack."""
    s = np.zeros((len(vs), 3, 3))
    s[:, 0, 1], s[:, 0, 2] = -vs[:, 2], vs[:, 1]
    s[:, 1, 0], s[:, 1, 2] = vs[:, 2], -vs[:, 0]
    s[:, 2, 0], s[:, 2, 1] = -vs[:, 1], vs[:, 0]
    return s


def _mv(m, v):
    """m @ v for a (3,3) or (K,3,3) m and a (K,3) v."""
    return (m @ v[..., None])[..., 0]


def _rows(a, width: int) -> np.ndarray:
    """A (K, width) view of a stack, or a (1, width) view of one row."""
    a = np.asarray(a, dtype=float)
    return a.reshape(len(a) if a.ndim > 1 else 1, width)


def _rows_of(a, width: int, k: int) -> np.ndarray:
    """``_rows`` of a stack of k rows, or of one row broadcast to k rows."""
    a = _rows(a, width)
    return a if len(a) == k else np.broadcast_to(a, (k, width))


@dataclass(frozen=True)
class FdConfig:
    """Central finite-difference configuration.

    Per-coordinate step h_i = scale * max(1, |x_i|).
    """

    scale: float = 1e-6
    trim_tol: float = 1e-9

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError("FD step scale must be > 0")


@dataclass
class _BodyState:
    """Kinematics of one body over a stack of K states."""

    dcm: np.ndarray  # (K,3,3) body -> R
    v: np.ndarray  # (K,3)
    w: np.ndarray
    a: np.ndarray  # linear dual-acceleration part (body frame)
    wd: np.ndarray
    p_ab: np.ndarray = None  # DCM of the inbound connection, (3,3) or (K,3,3)


class _FdStack:
    """fd_linearize's point-independent rows for one step scale: the state
    rows ``xs`` (the base state x0, x0 +/- h e_i, then x0 again for each
    input row); their unit-acceleration rows ``x``, ``u``, ``nudot``, with
    every input at 0 except the wrench steps; and the chidot of ``xs``."""

    def __init__(self, plan: "_Plan", scale: float):
        n2, nu = 2 * plan.tree.nq, plan.nu_in
        x0 = np.zeros(n2)
        self.hx = scale * np.maximum(1.0, np.abs(x0))
        dx = np.diag(self.hx)
        self.xs = np.vstack([x0, x0 + dx, x0 - dx, np.tile(x0, (2 * nu, 1))])
        us, _ = _input_rows(np.zeros(nu), 1 + 2 * n2, scale)
        self.x, self.u, self.nudot = plan.unit_rows(self.xs, us)
        self.chidot = plan.chidot(self.xs)
        # shared by every evaluator of the model: read-only
        for a in (self.hx, self.xs, self.x, self.u, self.nudot, self.chidot):
            a.setflags(write=False)


class _Plan:
    """Everything the evaluator needs that does not depend on the parameter
    point, for one model object (see ``_plan``)."""

    def __init__(self, model: MultibodyModel):
        self.nominal = {name: p.nominal for name, p in model.parameters().items()}
        tree = self.tree = model.tree
        self.free = tree.root != GROUND
        self.dofs = np.array(tree.mask, dtype=np.intp)  # index into a 6-vector
        self.nu_in = len(tree.input_names)
        self.root_euler = np.asarray(model.root.euler, dtype=float)
        self.root_pos = np.asarray(model.root.position, dtype=float)
        self.root_damping = model.root_damping if self.free else None
        # a grounded root's attitude never moves
        self.ground_dcm = None if self.free else sp.dcm_from_euler(self.root_euler)
        # per joint: the skew matrix K of its axis, and K @ K
        self.kmats = np.array([sp.skew(c.axis) for c in tree.joints]).reshape(-1, 3, 3)
        self.k2mats = self.kmats @ self.kmats
        self.axis_in_parent = [c.axis_in_parent for c in tree.joints]
        self.a_r = np.asarray(model.acceleration, dtype=float)
        # joint angles: the constant ones, and the tangent-substitution ones
        # the constructor sets at the point
        self.angles = np.array([
            0.0 if isinstance(c.angle_eq, lft.HalfTanParam) else float(c.angle_eq)
            for c in tree.joints
        ])
        self.angle_params = [
            (j, c.angle_eq) for j, c in enumerate(tree.joints)
            if isinstance(c.angle_eq, lft.HalfTanParam)
        ]
        # Every mass, inertia and force entry, then every 3-vector (a zero
        # vector for the ground and each "ref" port, then each body's CoG
        # and ports), in one row of values: the constant entries are
        # evaluated here, and the constructor evaluates ``exprs`` at the
        # point.  Bodies, connections, forces and wrench inputs hold indices.
        scalars, vectors = [], [(0.0, 0.0, 0.0)]

        def scalar(entries) -> int:
            scalars.extend(entries)
            return len(scalars) - len(entries)

        def vector(entries) -> int:
            vectors.append(tuple(entries))
            return len(vectors) - 1

        port = {}  # (body, port) -> vector index
        self.bodies = []
        for b in model.bodies:
            i_mass, i_inertia = scalar([b.mass]), scalar(b.inertia_cog.ravel())
            i_cog = vector(b.cog_offset)
            port[b.name, "ref"] = 0
            ports = [(n, vector(pos)) for n, pos in b.ports]
            port.update(((b.name, n), i) for n, i in ports)
            self.bodies.append(
                (b, i_mass, i_inertia, i_cog, ports, port[b.name, "ref"])
            )
        # per connection: vector indices of q (parent side) and cpos
        self.conns = [
            (c, 0 if c.parent_port[0] == GROUND else port[c.parent_port],
             port[c.child_port])
            for c in tree.order
        ]
        # per external force: body, port vector index, index of its vector
        self.forces = [
            (f.body, port[f.body, f.port],
             scalar(np.asarray(f.force, dtype=object).reshape(3)))
            for f in _resolved_forces(model)
        ]
        self.vec_start = len(scalars)
        entries = [lft.as_expr(v) for v in scalars + [v for vec in vectors for v in vec]]
        self.values = np.array([0.0 if x.params() else x.value({}) for x in entries])
        self.exprs = [(i, x) for i, x in enumerate(entries) if x.params()]
        # (body, input column, port vector index) of each wrench input;
        # (residual row, input column) of each torque input
        self.wrenches, self.torques = [], []
        for key, col in tree.input_cols.items():
            if key[0] == "wrench":
                self.wrenches.append((key[1], col, port[key[1], key[2]]))
            else:
                self.torques.append((tree.k + tree.joint_index[key[1]], col))
        self.torque_cols = [col for _, col in self.torques]
        self._fd: dict[float, _FdStack] = {}

    def fd_stack(self, scale: float) -> _FdStack:
        stack = self._fd.get(scale)
        if stack is None:
            stack = self._fd[scale] = _FdStack(self, scale)
        return stack

    def unit_rows(self, x, u):
        """The unit-acceleration rows of K state/input rows (Walker & Orin's
        method 1): each repeated nq + 1 times, with nudot = 0, e_1, ...,
        e_nq and every torque input at 0."""
        nq = self.tree.nq
        us = np.repeat(u, nq + 1, axis=0)
        us[:, self.torque_cols] = 0.0
        unit = np.vstack([np.zeros(nq), np.eye(nq)])
        return np.repeat(x, nq + 1, axis=0), us, np.tile(unit, (len(x), 1))

    def unpack(self, x):
        """(K, 2nq) states -> root v6, p6 (K,6) and joint theta, thetadot."""
        nq, k = self.tree.nq, self.tree.k
        x = _rows(x, 2 * nq)
        nu, chi = x[:, :nq], x[:, nq:]
        v6 = np.zeros((len(x), 6))
        p6 = np.zeros((len(x), 6))
        v6[:, self.dofs] = nu[:, :k]
        p6[:, self.dofs] = chi[:, :k]
        return v6, p6, chi[:, k:], nu[:, k:]

    def chidot(self, x) -> np.ndarray:
        """chidot of each (K, 2nq) state row: the root's Euler rate map
        applied to its masked twist, and the joint rates."""
        _, p6, _, thetadot = self.unpack(x)
        k = self.tree.k
        chidot = np.zeros((len(x), self.tree.nq))
        if self.free:
            euler = self.root_euler + p6[:, 3:]
            gamma = sp.euler_rate_map(euler)
            full = np.zeros((len(x), 6, 6))
            full[:, :3, :3] = np.eye(3)
            full[:, 3:, 3:] = np.linalg.inv(gamma)
            g = full[:, self.dofs][:, :, self.dofs]
            chidot[:, :k] = _mv(g, x[:, :k])
        chidot[:, k:] = thetadot
        return chidot


_PLAN = "_oracle_plan"


def _plan(model: MultibodyModel) -> _Plan:
    """The model's plan, built on its first evaluator.  It is kept in the
    model's instance dict, where ``functools.cached_property`` keeps the
    model's parameter registry: it lives and dies with the model object,
    and no other model object can reach it.  The model is frozen, so the
    plan never goes stale."""
    plan = model.__dict__.get(_PLAN)
    if plan is None:
        plan = model.__dict__[_PLAN] = _Plan(model)
    return plan


class NonlinearEvaluator:
    """Nonlinear equations of motion at a fixed numeric parameter point.

    ``residual``, ``accel``, ``f`` and ``energy`` evaluate a stack of K
    states at once: ``x`` is a (K, 2nq) array, and ``u`` and ``nudot`` are
    (K, .) arrays or one row shared by every state.  A 1-D ``x`` is the
    K = 1 case and gives a 1-D result.
    """

    def __init__(self, model: MultibodyModel, point=None):
        plan = self._plan = _plan(model)
        full = self.point = full_point(plan.nominal, point or {})
        self.model = model
        tree = plan.tree
        self.nq, self.k, self.nu_in = tree.nq, tree.k, plan.nu_in
        self.joint_index = tree.joint_index
        self.input_names, self.input_cols = tree.input_names, tree.input_cols
        # Every parameter-dependent constant, evaluated once at the point and
        # held to the same numeric body rules a model built at the point obeys.
        vals = plan.values.copy()
        for i, x in plan.exprs:
            vals[i] = x.value(full)
        vecs = vals[plan.vec_start :].reshape(-1, 3)
        # The vectors fixed at the point enter each pass as cross products;
        # their skew matrices turn each of those into one product (``_xs``).
        skews = _skews(vecs)
        self._body_data, self._cog_skew = {}, {}
        for b, i_mass, i_inertia, i_cog, ports, i_ref in plan.bodies:
            mass = float(vals[i_mass])
            inertia = vals[i_inertia : i_inertia + 9].reshape(3, 3)
            check_mass_properties(b, full, mass, inertia)
            for n, i in ports:
                check_port_position(b, n, vecs[i], full)
            cog = vecs[i_cog]
            d = _d_numeric(vecs[i_ref] - cog, mass, inertia)
            self._body_data[b.name] = (mass, inertia, cog, d)
            self._cog_skew[b.name] = skews[i_cog]
        self._angles = plan.angles.copy()
        for j, angle in plan.angle_params:
            self._angles[j] = angle.angle_of(full[angle.param.name])
        # per connection: q, cpos and skew(q), skew(cpos)
        self._conn_data = {
            c.name: (vecs[iq], vecs[ic], skews[iq], skews[ic])
            for c, iq, ic in plan.conns
        }
        # external forces (body, port position, vector in R); per body, its
        # external forces (vector, port skew transposed) and wrench inputs
        # (column, port skew transposed)
        self.forces = [(fb, vecs[ip], vals[i : i + 3]) for fb, ip, i in plan.forces]
        self._body_forces = {b.name: [] for b, *_ in plan.bodies}
        for fb, ip, i in plan.forces:
            self._body_forces[fb].append((vals[i : i + 3], skews[ip].T))
        self._body_wrenches = {b.name: [] for b, *_ in plan.bodies}
        for fb, col, ip in plan.wrenches:
            self._body_wrenches[fb].append((col, skews[ip].T))

    # -- forward kinematics sweep ----------------------------------------
    def _sweep(self, x, nudot) -> dict:
        plan = self._plan
        v6, p6, theta, thetadot = plan.unpack(x)
        kk = len(v6)
        nudot = _rows_of(nudot, self.nq, kk)
        thetaddot = nudot[:, self.k :]
        states: dict[str, _BodyState] = {}
        if plan.free:
            euler = plan.root_euler + p6[:, 3:]
            p0 = sp.dcm_from_euler(euler)
            v, w = v6[:, :3], v6[:, 3:]
            vd6 = np.zeros((kk, 6))
            vd6[:, plan.dofs] = nudot[:, : self.k]
            a_lin = vd6[:, :3] + _cross(w, v)
            wd = vd6[:, 3:]
            states[plan.tree.root] = _BodyState(p0, v, w, a_lin, wd)
        else:
            zero = np.zeros((kk, 3))
            states[GROUND] = _BodyState(
                np.broadcast_to(plan.ground_dcm, (kk, 3, 3)), zero, zero, zero, zero
            )
        # each joint's rotation from its zero angle, I + sin K + (1 - cos) K^2
        th = (self._angles + theta)[..., None, None]
        rots = _EYE3 + np.sin(th) * plan.kmats + (1.0 - np.cos(th)) * plan.k2mats
        for c in plan.tree.order:
            par = states[c.parent_port[0]]
            _, _, q_s, c_s = self._conn_data[c.name]
            wq = _xs(par.w, q_s)
            v_q = par.v + wq
            a_q = par.a + _xs(par.wd, q_s) + _cross(par.w, wq)
            joint = isinstance(c, RevoluteJoint)
            if joint:
                j = self.joint_index[c.name]
                p_ab = c.zero_dcm @ rots[:, j]
            else:
                p_ab = c.fixed_dcm
            # the four parent vectors in the child frame: one stacked P^T v
            rot = np.concatenate([par.w, par.wd, v_q, a_q], axis=1)
            rot = rot.reshape(kk, 4, 3) @ p_ab
            w_a, wd_a, v_j, a_j = rot[:, 0], rot[:, 1], rot[:, 2], rot[:, 3]
            if joint:
                r = c.axis
                thd = thetadot[:, j, None]
                wd_a = wd_a + thetaddot[:, j, None] * r + thd * _xs(w_a, plan.kmats[j])
                w_a = w_a + thd * r
            wc = _xs(w_a, c_s)
            v_ref = v_j - wc
            a_ref = a_j - _xs(wd_a, c_s) - _cross(w_a, wc)
            states[c.child_port[0]] = _BodyState(
                par.dcm @ p_ab, v_ref, w_a, a_ref, wd_a, p_ab
            )
        return states

    # -- residual ----------------------------------------------------------
    def residual(self, x, u, nudot) -> np.ndarray:
        """Residual of the equations of motion for candidate nudot rows.

        One recursive Newton-Euler pass (Featherstone, 2008) over the whole
        stack: kinematics root to leaves, wrenches leaves to root.
        """
        plan = self._plan
        tree = plan.tree
        single = np.ndim(x) == 1
        x = _rows(x, 2 * self.nq)
        states = self._sweep(x, nudot)
        thetadot = x[:, self.k : self.nq]
        kk = len(x)
        u = _rows_of(u, self.nu_in, kk)
        nudot = _rows_of(nudot, self.nq, kk)
        a_r = plan.a_r
        res = np.zeros((kk, self.nq))
        joint_s: dict[str, np.ndarray] = {}

        def visit(name: str) -> np.ndarray:
            st = states[name]
            if name == GROUND:
                inb = np.zeros((kk, 6))
            else:
                m, _, _, d = self._body_data[name]
                w = st.w
                x2 = np.concatenate([st.a, st.wd], axis=1)
                x2[:, :3] += a_r @ st.dcm
                # m w x (w x cog) and w x (J w), from one cross product
                nl = _cross(
                    w[:, None],
                    np.concatenate(
                        [_xs(w, self._cog_skew[name]), w @ d[3:, 3:].T], axis=1
                    ).reshape(kk, 2, 3),
                ).reshape(kk, 6)
                nl[:, :3] *= m
                inb = x2 @ d.T + nl
                for fvec, p_st in self._body_forces[name]:
                    f_body = fvec @ st.dcm
                    inb -= np.concatenate([f_body, _xs(f_body, p_st)], axis=1)
                for col, p_st in self._body_wrenches[name]:
                    wvec = u[:, col : col + 6]
                    inb -= np.concatenate(
                        [wvec[:, :3], _xs(wvec[:, :3], p_st) + wvec[:, 3:]], axis=1
                    )
                if plan.root_damping is not None and name == tree.root:
                    twist = np.concatenate([st.v, st.w], axis=1)
                    inb += twist @ plan.root_damping.T
            for c in tree.children.get(name, []):
                cb, _ = c.child_port
                child_in = visit(cb)
                _, _, q_s, c_s = self._conn_data[c.name]
                s_f = child_in[:, :3]
                s_m = child_in[:, 3:] - _xs(s_f, c_s.T)
                if isinstance(c, RevoluteJoint):
                    joint_s[c.name] = s_m
                p_ab = states[cb].p_ab
                f_b = _mv(p_ab, s_f)
                m_b = _mv(p_ab, s_m)
                inb += np.concatenate([f_b, m_b + _xs(f_b, q_s.T)], axis=1)
            return inb

        root_in = visit(tree.root)
        thetaddot = nudot[:, self.k :]
        if plan.free:
            res[:, : self.k] = root_in[:, plan.dofs]
        for i, c in enumerate(tree.joints):
            parent = states[c.parent_port[0]]
            lhs = c.shaft_inertia * (thetaddot[:, i] + parent.wd @ plan.axis_in_parent[i])
            res[:, self.k + i] = (
                lhs + c.friction * thetadot[:, i] + joint_s[c.name] @ c.axis
            )
        self._apply_torques(res, u)
        return res[0] if single else res

    def _apply_torques(self, res, u) -> None:
        """Subtract each torque input from its joint's residual row, in place.

        ``res`` is (..., nq) and ``u`` (..., nu_in), broadcast against it.
        A torque enters the residual nowhere else, so a residual computed
        with the torques at 0 takes them afterwards with the same bits.
        """
        for row, col in self._plan.torques:
            res[..., row] -= u[..., col]

    def _stack(self, x, u) -> np.ndarray:
        """Residual of the unit-acceleration stack, (K, nq+1, nq): for each
        of the K state/input rows, the rows at nudot = 0, e_1, ..., e_nq,
        with every torque input at 0.  One residual call."""
        r = self.residual(*self._plan.unit_rows(x, u))
        return r.reshape(len(x), self.nq + 1, self.nq)

    def _accel(self, r, u) -> np.ndarray:
        """nudot of each row from its ``_stack`` residual ``r``, after the
        torques of ``u`` are subtracted from ``r`` in place.  The mass
        matrix is r(e_i) - r0; one singular row fails the whole stack."""
        self._apply_torques(r, u[:, None, :])
        r0 = r[:, 0]
        m = np.swapaxes(r[:, 1:] - r0[:, None], 1, 2)
        if np.any(np.linalg.cond(m) > 1e13):
            raise TrimError("singular mass matrix in the nonlinear evaluator")
        return np.linalg.solve(m, -r0[..., None])[..., 0]

    def accel(self, x, u) -> np.ndarray:
        """Solve the coupled equations for nudot at each state/input row."""
        single = np.ndim(x) == 1
        x = _rows(x, 2 * self.nq)
        u = np.broadcast_to(_rows(u, self.nu_in), (len(x), self.nu_in))
        nudot = self._accel(self._stack(x, u), u)
        return nudot[0] if single else nudot

    def f(self, x, u) -> np.ndarray:
        """Full state derivative [nudot; chidot] of each state/input row."""
        single = np.ndim(x) == 1
        x = _rows(x, 2 * self.nq)
        out = np.concatenate([self.accel(x, u), self._plan.chidot(x)], axis=1)
        return out[0] if single else out

    # -- trim ---------------------------------------------------------------
    def _trim(self, r0) -> np.ndarray:
        """Inputs zeroing the residual row ``r0``, computed at x0 with
        nudot = 0 and every input at 0: each torque input takes its
        joint's row, and every wrench input stays 0."""
        u = np.zeros(self.nu_in)
        for row, col in self._plan.torques:
            u[col] = r0[row]
        return u

    def trim_inputs(self) -> np.ndarray:
        """Inputs holding the equilibrium: solve for the residual-zeroing u."""
        return self._trim(
            self.residual(np.zeros(2 * self.nq), np.zeros(self.nu_in), np.zeros(self.nq))
        )

    def energy(self, x):
        """Total mechanical energy (kinetic + static potential) of each row."""
        plan = self._plan
        states = self._sweep(x, np.zeros(self.nq))
        _, p6, _, _ = plan.unpack(x)
        # reference-port positions in R, root to leaves
        root_name = plan.tree.root
        root = states[root_name]
        pos = {
            root_name: plan.root_pos + _mv(root.dcm, p6[:, :3]) if plan.free
            else np.broadcast_to(plan.root_pos, p6[:, :3].shape)
        }
        for c in plan.tree.order:
            (pb, _), (cb, _) = c.parent_port, c.child_port
            q, cpos, _, _ = self._conn_data[c.name]
            pos[cb] = pos[pb] + _mv(states[pb].dcm, q) - _mv(states[cb].dcm, cpos)
        e = 0.0
        for name, st in states.items():
            if name == GROUND:
                continue
            m, j, cog, _ = self._body_data[name]
            v_cog = st.v + _cross(st.w, cog)
            e = e + 0.5 * (
                m * np.sum(v_cog * v_cog, axis=1) + np.sum(st.w * (st.w @ j.T), axis=1)
            )
            pos_cog = pos[name] + _mv(st.dcm, cog)
            e = e + m * (pos_cog @ plan.a_r)
        for fb, p, fvec in self.forces:
            st = states[fb]
            e = e - (pos[fb] + _mv(st.dcm, p)) @ fvec
        # joint shaft kinetic energy (J^J ~ 1e-10) is negligible by design
        return float(e[0]) if np.ndim(x) == 1 else e


def _input_rows(u0, n_base: int, scale: float):
    """fd_linearize's input rows about ``u0``: u0 at each of the ``n_base``
    base and state rows, then u0 + h_i e_i and u0 - h_i e_i; and the steps h."""
    hu = scale * np.maximum(1.0, np.abs(u0))
    du = np.diag(hu)
    return np.vstack([np.tile(u0, (n_base, 1)), u0 + du, u0 - du]), hu


def fd_linearize(ev: NonlinearEvaluator, cfg: FdConfig | None = None):
    """Central-difference (A, B) at the equilibrium, LFT state convention.

    Every evaluation is one row of a single stack: the base point, then
    x0 +/- h e_i for each state, then u0 +/- h e_i for each input.  The
    stack is one residual call, made with the torque inputs at 0: the trim
    leaves every wrench input at 0, so the wrench rows are known before
    u0, and the whole stack is the model's, built once per step scale.
    The base row's residual gives the trim torques u0, and each row's
    torques are subtracted from its residual afterwards.
    """
    cfg = cfg or FdConfig()
    n2, nq, nu = 2 * ev.nq, ev.nq, ev.nu_in
    st = ev._plan.fd_stack(cfg.scale)
    r = ev.residual(st.x, st.u, st.nudot).reshape(len(st.xs), nq + 1, nq)
    us, hu = _input_rows(ev._trim(r[0, 0]), 1 + 2 * n2, cfg.scale)
    fs = np.concatenate([ev._accel(r, us), st.chidot], axis=1)
    trim = np.max(np.abs(fs[0]))
    if trim > cfg.trim_tol:
        raise TrimError(f"trim residual {trim:.3e} exceeds {cfg.trim_tol:.1e}")
    fx, fu = fs[1 : 1 + 2 * n2], fs[1 + 2 * n2 :]
    a = ((fx[:n2] - fx[n2:]) / (2.0 * st.hx)[:, None]).T
    b = ((fu[:nu] - fu[nu:]) / (2.0 * hu)[:, None]).T
    return a, b
