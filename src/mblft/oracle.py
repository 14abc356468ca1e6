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

The evaluator reads the model as given: it evaluates every
parameter-dependent constant (masses, inertias, CoG offsets, port
positions, force vectors including the balance weight, and joint angles)
once at the parameter point, and holds them to the numeric body rules
that ``mblft.bodies`` applies when a body is built.

This module deliberately shares no assembly step and no LFT algebra with
the assembly path: only the model classes, their numeric accessors and
input/force layout, the numeric body rules, the numeric spatial primitives
and the numeric direct dynamics; the linearization here is purely
finite-difference.
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
    _input_layout,
    _resolved_forces,
)
from mblft.bodies import (
    _d_numeric,
    check_mass_properties,
    check_port_position,
)
from mblft.joints import RevoluteJoint

__all__ = ["FdConfig", "NonlinearEvaluator", "nonlinear_accel", "fd_linearize"]


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
_EYE3 = np.eye(3)


def _cross(a, b):
    """Cross product of (..., 3) arrays, broadcast over the leading axes."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(
        _NEXT, -1
    )


def _mv(m, v):
    """m @ v for a (3,3) or (K,3,3) m and a (K,3) v."""
    return (m @ v[..., None])[..., 0]


def _mtv(m, v):
    """m.T @ v for a (3,3) or (K,3,3) m and a (K,3) v."""
    return (v[..., None, :] @ m)[..., 0, :]


def _rows(a, width: int) -> np.ndarray:
    """A (K, width) view of a stack, or a (1, width) view of one row."""
    a = np.asarray(a, dtype=float)
    return a.reshape(len(a) if a.ndim > 1 else 1, width)


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


class NonlinearEvaluator:
    """Nonlinear equations of motion at a fixed numeric parameter point.

    ``residual``, ``accel``, ``f`` and ``energy`` evaluate a stack of K
    states at once: ``x`` is a (K, 2nq) array, and ``u`` and ``nudot`` are
    (K, .) arrays or one row shared by every state.  A 1-D ``x`` is the
    K = 1 case and gives a 1-D result.
    """

    def __init__(self, model: MultibodyModel, point=None):
        full = {name: p.nominal for name, p in model.parameters().items()}
        if point:
            full.update(point)
        self.point = full
        self.model = model
        self.order = model._tree_order()
        self.joints = [c for c in self.order if isinstance(c, RevoluteJoint)]
        self.joint_index = {c.name: i for i, c in enumerate(self.joints)}
        self.free = model.root.kind == "free"
        self.mask = model.root_body.dof_mask if self.free else ()
        self.k = len(self.mask)
        self._dofs = np.array(self.mask, dtype=np.intp)  # index into a 6-vector
        self.nq = self.k + len(self.joints)
        self.input_names, self.input_cols = _input_layout(model)
        self.nu_in = len(self.input_names)
        self.root_name = model.root_body.name if self.free else GROUND
        self.root_euler = np.asarray(model.root.euler, dtype=float)
        self.root_pos = np.asarray(model.root.position, dtype=float)
        # a grounded root's attitude never moves
        self._ground_dcm = (
            None if self.free
            else sp.dcm_from_euler(sp.EulerState(self.root_euler)).matrix
        )
        self.children: dict[str, list] = {}
        for c in self.order:
            self.children.setdefault(c.parent_port[0], []).append(c)
        # Every parameter-dependent constant, evaluated once at the point and
        # held to the same numeric body rules a model built at the point obeys.
        self._body_data = {}
        ports = {}
        for b in model.bodies:
            mass, inertia = b.mass_value(full), b.inertia_value(full)
            check_mass_properties(b, full, mass, inertia)
            ports[b.name] = {"ref": np.zeros(3)}
            for n, _ in b.ports:
                ports[b.name][n] = b.port_position_value(n, full)
                check_port_position(b, n, ports[b.name][n], full)
            cog = b.cog_offset_value(full)
            d = _d_numeric(ports[b.name]["ref"] - cog, mass, inertia)
            self._body_data[b.name] = (mass, inertia, cog, d)
        self._conn_data = {}
        for c in self.order:
            (pb, pp), (cb, cp) = c.parent_port, c.child_port
            q = np.zeros(3) if pb == GROUND else ports[pb][pp]
            self._conn_data[c.name] = (q, ports[cb][cp])
        self._joint_rot = {}
        for c in self.joints:
            angle = c.angle_eq
            if isinstance(angle, lft.HalfTanParam):
                angle = angle.angle_of(full[angle.param.name])
            kmat = sp.skew(c.axis)
            self._joint_rot[c.name] = (float(angle), kmat, kmat @ kmat)
        self._axis_in_parent = [c.axis_in_parent for c in self.joints]
        self._a_r = np.asarray(model.acceleration, dtype=float)
        # external forces (body, port position, vector in R)
        self.forces = [
            (
                f.body,
                ports[f.body][f.port],
                np.array(
                    [lft.as_expr(v).value(full)
                     for v in np.asarray(f.force, dtype=object).reshape(3)]
                ),
            )
            for f in _resolved_forces(model)
        ]
        # per body: external forces (vector in R, port position) and wrench
        # inputs (column, port position)
        self._body_forces = {b.name: [] for b in model.bodies}
        for fb, p, fvec in self.forces:
            self._body_forces[fb].append((fvec, p))
        self._body_wrenches = {b.name: [] for b in model.bodies}
        # (residual row, input column) of each torque input
        self._torques = []
        for key, col in self.input_cols.items():
            if key[0] == "wrench":
                self._body_wrenches[key[1]].append((col, ports[key[1]][key[2]]))
            else:
                self._torques.append((self.k + self.joint_index[key[1]], col))

    # -- state unpacking -------------------------------------------------
    def _unpack(self, x):
        """(K, 2nq) states -> root v6, p6 (K,6) and joint theta, thetadot."""
        x = _rows(x, 2 * self.nq)
        nu, chi = x[:, : self.nq], x[:, self.nq :]
        v6 = np.zeros((len(x), 6))
        p6 = np.zeros((len(x), 6))
        v6[:, self._dofs] = nu[:, : self.k]
        p6[:, self._dofs] = chi[:, : self.k]
        return v6, p6, chi[:, self.k :], nu[:, self.k :]

    # -- forward kinematics sweep ----------------------------------------
    def _sweep(self, x, nudot) -> dict:
        v6, p6, theta, thetadot = self._unpack(x)
        kk = len(v6)
        nudot = np.broadcast_to(_rows(nudot, self.nq), (kk, self.nq))
        thetaddot = nudot[:, self.k :]
        states: dict[str, _BodyState] = {}
        if self.free:
            euler = self.root_euler + p6[:, 3:]
            p0 = sp.dcm_from_euler(sp.EulerState(euler)).matrix
            v, w = v6[:, :3], v6[:, 3:]
            vd6 = np.zeros((kk, 6))
            vd6[:, self._dofs] = nudot[:, : self.k]
            a_lin = vd6[:, :3] + _cross(w, v)
            wd = vd6[:, 3:]
            states[self.root_name] = _BodyState(p0, v, w, a_lin, wd)
        else:
            zero = np.zeros((kk, 3))
            states[GROUND] = _BodyState(
                np.broadcast_to(self._ground_dcm, (kk, 3, 3)), zero, zero, zero, zero
            )
        for c in self.order:
            pb, _ = c.parent_port
            cb, _ = c.child_port
            par = states[pb]
            q, cpos = self._conn_data[c.name]
            wq = _cross(par.w, q)
            v_q = par.v + wq
            a_q = par.a + _cross(par.wd, q) + _cross(par.w, wq)
            if isinstance(c, RevoluteJoint):
                j = self.joint_index[c.name]
                angle, kmat, k2mat = self._joint_rot[c.name]
                th = angle + theta[:, j, None, None]
                thd = thetadot[:, j, None]
                thdd = thetaddot[:, j, None]
                p_ab = c.zero_dcm @ (
                    _EYE3 + np.sin(th) * kmat + (1.0 - np.cos(th)) * k2mat
                )
                r = c.axis
                w_par_a = _mtv(p_ab, par.w)
                w_a = w_par_a + thd * r
                wd_a = _mtv(p_ab, par.wd) + thdd * r + thd * _cross(w_par_a, r)
            else:
                p_ab = c.fixed_dcm
                w_a = _mtv(p_ab, par.w)
                wd_a = _mtv(p_ab, par.wd)
            v_j = _mtv(p_ab, v_q)
            a_j = _mtv(p_ab, a_q)
            # joint point -> child reference port (offset -cpos in child frame)
            v_ref = v_j - _cross(w_a, cpos)
            a_ref = a_j - _cross(wd_a, cpos) + _cross(w_a, _cross(w_a, -cpos))
            states[cb] = _BodyState(par.dcm @ p_ab, v_ref, w_a, a_ref, wd_a, p_ab)
        return states

    # -- residual ----------------------------------------------------------
    def residual(self, x, u, nudot) -> np.ndarray:
        """Residual of the equations of motion for candidate nudot rows.

        One recursive Newton-Euler pass (Featherstone, 2008) over the whole
        stack: kinematics root to leaves, wrenches leaves to root.
        """
        single = np.ndim(x) == 1
        x = _rows(x, 2 * self.nq)
        states = self._sweep(x, nudot)
        thetadot = x[:, self.k : self.nq]
        kk = len(x)
        u = np.broadcast_to(_rows(u, self.nu_in), (kk, self.nu_in))
        nudot = np.broadcast_to(_rows(nudot, self.nq), (kk, self.nq))
        a_r = self._a_r
        res = np.zeros((kk, self.nq))
        joint_s: dict[str, np.ndarray] = {}
        damped = self.free and self.model.root_damping is not None

        def visit(name: str) -> np.ndarray:
            st = states[name]
            if name == GROUND:
                inb = np.zeros((kk, 6))
            else:
                m, _, cog, d = self._body_data[name]
                w = st.w
                x2 = np.concatenate([st.a, st.wd], axis=1)
                x2[:, :3] += a_r @ st.dcm
                nl = np.concatenate(
                    [m * _cross(w, _cross(-cog, w)), _cross(w, w @ d[3:, 3:].T)],
                    axis=1,
                )
                inb = x2 @ d.T + nl
                for fvec, p in self._body_forces[name]:
                    f_body = fvec @ st.dcm
                    inb -= np.concatenate([f_body, _cross(p, f_body)], axis=1)
                for col, p in self._body_wrenches[name]:
                    wvec = u[:, col : col + 6]
                    inb -= np.concatenate(
                        [wvec[:, :3], _cross(p, wvec[:, :3]) + wvec[:, 3:]], axis=1
                    )
                if damped and name == self.root_name:
                    twist = np.concatenate([st.v, st.w], axis=1)
                    inb += twist @ self.model.root_damping.T
            for c in self.children.get(name, []):
                cb, _ = c.child_port
                child_in = visit(cb)
                q, cpos = self._conn_data[c.name]
                s_f = child_in[:, :3]
                s_m = child_in[:, 3:] - _cross(cpos, s_f)
                if isinstance(c, RevoluteJoint):
                    joint_s[c.name] = s_m
                p_ab = states[cb].p_ab
                f_b = _mv(p_ab, s_f)
                m_b = _mv(p_ab, s_m)
                inb += np.concatenate([f_b, m_b + _cross(q, f_b)], axis=1)
            return inb

        root_in = visit(self.root_name)
        thetaddot = nudot[:, self.k :]
        if self.free:
            res[:, : self.k] = root_in[:, self._dofs]
        for c in self.joints:
            i = self.joint_index[c.name]
            parent = states[c.parent_port[0]]
            lhs = c.shaft_inertia * (thetaddot[:, i] + parent.wd @ self._axis_in_parent[i])
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
        for row, col in self._torques:
            res[..., row] -= u[..., col]

    def _stack(self, x, u) -> np.ndarray:
        """Residual of the unit-acceleration stack, (K, nq+1, nq): for each
        of the K state/input rows, the rows at nudot = 0, e_1, ..., e_nq
        (Walker & Orin's method 1), with every torque input at 0.  One
        residual call."""
        nq = self.nq
        us = np.repeat(u, nq + 1, axis=0)
        us[:, [col for _, col in self._torques]] = 0.0
        unit = np.vstack([np.zeros(nq), np.eye(nq)])
        r = self.residual(np.repeat(x, nq + 1, axis=0), us, np.tile(unit, (len(x), 1)))
        return r.reshape(len(x), nq + 1, nq)

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

    def _chidot(self, x) -> np.ndarray:
        """chidot of each (K, 2nq) state row: the root's Euler rate map
        applied to its masked twist, and the joint rates."""
        _, p6, _, thetadot = self._unpack(x)
        chidot = np.zeros((len(x), self.nq))
        if self.free:
            euler = self.root_euler + p6[:, 3:]
            gamma = sp.euler_rate_map(sp.EulerState(euler))
            full = np.zeros((len(x), 6, 6))
            full[:, :3, :3] = np.eye(3)
            full[:, 3:, 3:] = np.linalg.inv(gamma)
            g = full[:, self._dofs][:, :, self._dofs]
            chidot[:, : self.k] = _mv(g, x[:, : self.k])
        chidot[:, self.k :] = thetadot
        return chidot

    def f(self, x, u) -> np.ndarray:
        """Full state derivative [nudot; chidot] of each state/input row."""
        single = np.ndim(x) == 1
        x = _rows(x, 2 * self.nq)
        out = np.concatenate([self.accel(x, u), self._chidot(x)], axis=1)
        return out[0] if single else out

    # -- trim ---------------------------------------------------------------
    def _trim(self, r0) -> np.ndarray:
        """Inputs zeroing the residual row ``r0``, computed at x0 with
        nudot = 0 and every input at 0: each torque input takes its
        joint's row, and every wrench input stays 0."""
        u = np.zeros(self.nu_in)
        for row, col in self._torques:
            u[col] = r0[row]
        return u

    def trim_inputs(self) -> np.ndarray:
        """Inputs holding the equilibrium: solve for the residual-zeroing u."""
        return self._trim(
            self.residual(np.zeros(2 * self.nq), np.zeros(self.nu_in), np.zeros(self.nq))
        )

    def energy(self, x):
        """Total mechanical energy (kinetic + static potential) of each row."""
        states = self._sweep(x, np.zeros(self.nq))
        _, p6, _, _ = self._unpack(x)
        # reference-port positions in R, root to leaves
        root = states[self.root_name]
        pos = {
            self.root_name: self.root_pos + _mv(root.dcm, p6[:, :3]) if self.free
            else np.broadcast_to(self.root_pos, p6[:, :3].shape)
        }
        for c in self.order:
            (pb, _), (cb, _) = c.parent_port, c.child_port
            q, cpos = self._conn_data[c.name]
            pos[cb] = pos[pb] + _mv(states[pb].dcm, q) - _mv(states[cb].dcm, cpos)
        a_r = self._a_r
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
            e = e + m * (pos_cog @ a_r)
        for fb, p, fvec in self.forces:
            st = states[fb]
            e = e - (pos[fb] + _mv(st.dcm, p)) @ fvec
        # joint shaft kinetic energy (J^J ~ 1e-10) is negligible by design
        return float(e[0]) if np.ndim(x) == 1 else e


def nonlinear_accel(ev: NonlinearEvaluator, x, u) -> np.ndarray:
    return ev.accel(x, u)


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
    u0.  The base row's residual gives the trim torques u0, and each row's
    torques are subtracted from its residual afterwards.
    """
    cfg = cfg or FdConfig()
    n2, nu = 2 * ev.nq, ev.nu_in
    x0 = np.zeros(n2)
    hx = cfg.scale * np.maximum(1.0, np.abs(x0))
    dx = np.diag(hx)
    xs = np.vstack([x0, x0 + dx, x0 - dx, np.tile(x0, (2 * nu, 1))])
    us, _ = _input_rows(np.zeros(nu), 1 + 2 * n2, cfg.scale)
    r = ev._stack(xs, us)
    us, hu = _input_rows(ev._trim(r[0, 0]), 1 + 2 * n2, cfg.scale)
    fs = np.concatenate([ev._accel(r, us), ev._chidot(xs)], axis=1)
    trim = np.max(np.abs(fs[0]))
    if trim > cfg.trim_tol:
        raise TrimError(f"trim residual {trim:.3e} exceeds {cfg.trim_tol:.1e}")
    fx, fu = fs[1 : 1 + 2 * n2], fs[1 + 2 * n2 :]
    a = ((fx[:n2] - fx[n2:]) / (2.0 * hx)[:, None]).T
    b = ((fu[:nu] - fu[nu:]) / (2.0 * hu)[:, None]).T
    return a, b
