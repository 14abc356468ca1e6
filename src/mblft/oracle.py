"""Independent nonlinear validation of assembled models.

Implements the full nonlinear equations of motion of the tree (including
all velocity-dependent terms) by a plain numeric recursive sweep, plus a
central finite-difference linearization used as ground truth for the
analytically linearized LFT model.

The evaluator state matches the assembled model's convention exactly:

    x = [ nu ; chi ]

with nu the masked root body-frame dual velocity followed by the joint
rates, and chi the root pose (body-frame position displacement and Euler
angles, masked) followed by the joint angles. Inputs are the model's
declared torque/wrench inputs in absolute terms (at trim, a torque input
equals the equilibrium torque).

This module deliberately shares no assembly step and no LFT algebra with
the assembly path: only the model classes, their numeric accessors and
input/force layout, the numeric spatial primitives and the numeric direct
dynamics at a port; the linearization here is purely finite-difference.
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
    freeze_model,
)
from mblft.bodies import _d_at_port_numeric
from mblft.joints import RevoluteJoint

__all__ = ["FdConfig", "NonlinearEvaluator", "nonlinear_accel", "fd_linearize"]


def _cross(a, b):
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


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
    body: object
    dcm: np.ndarray  # body -> R
    pos: np.ndarray  # ref-port position in R
    v: np.ndarray
    w: np.ndarray
    a: np.ndarray  # linear dual-acceleration part (body frame)
    wd: np.ndarray


class NonlinearEvaluator:
    """Nonlinear equations of motion at a fixed numeric parameter point."""

    def __init__(self, model: MultibodyModel, point=None):
        full = {name: p.nominal for name, p in model.parameters().items()}
        if point:
            full.update(point)
        self.point = full
        self.model = freeze_model(model, full)
        self.order = self.model._tree_order()
        self.joints = [c for c in self.order if isinstance(c, RevoluteJoint)]
        self.joint_index = {c.name: i for i, c in enumerate(self.joints)}
        self.free = self.model.root.kind == "free"
        self.mask = self.model.root_body.dof_mask if self.free else ()
        self.k = len(self.mask)
        self.nq = self.k + len(self.joints)
        self.input_names, self.input_cols = _input_layout(self.model)
        self.nu_in = len(self.input_names)
        self.forces = [
            (
                f.body,
                f.port,
                np.array(
                    [lft.as_expr(v).value({}) for v in np.asarray(f.force, dtype=object).reshape(3)]
                ),
            )
            for f in _resolved_forces(self.model)
        ]
        self.root_name = (
            self.model.root_body.name if self.free else GROUND
        )
        self.root_euler = np.asarray(self.model.root.euler, dtype=float)
        self.root_pos = np.asarray(self.model.root.position, dtype=float)
        self.children: dict[str, list] = {}
        for c in self.order:
            self.children.setdefault(c.parent_port[0], []).append(c)
        # numeric caches (the model is frozen, so these are constants)
        self._body_data = {}
        for b in self.model.bodies:
            self._body_data[b.name] = (
                b.mass_value({}),
                b.inertia_value({}),
                b.cog_offset_value({}),
                _d_at_port_numeric(b, "ref", {}),
            )
        self._conn_data = {}
        for c in self.order:
            pb, pp = c.parent_port
            q = (
                np.zeros(3)
                if pb == GROUND
                else self.model.body(pb).port_position_value(pp, {})
            )
            cpos = self.model.body(c.child_port[0]).port_position_value(
                c.child_port[1], {}
            )
            self._conn_data[c.name] = (q, cpos)
        self._joint_rot = {
            c.name: (sp.skew(c.axis), sp.skew(c.axis) @ sp.skew(c.axis))
            for c in self.joints
        }
        self._port_cache = {}
        for fb, fp, _ in getattr(self, "forces", []):
            self._port_cache[(fb, fp)] = self.model.body(fb).port_position_value(
                fp, {}
            )
        for key in self.input_cols:
            if key[0] == "wrench":
                self._port_cache[(key[1], key[2])] = self.model.body(
                    key[1]
                ).port_position_value(key[2], {})

    # -- state unpacking -------------------------------------------------
    def _unpack(self, x):
        x = np.asarray(x, dtype=float).reshape(2 * self.nq)
        nu, chi = x[: self.nq], x[self.nq :]
        v6 = np.zeros(6)
        p6 = np.zeros(6)
        for col, dof in enumerate(self.mask):
            v6[dof] = nu[col]
            p6[dof] = chi[col]
        theta = chi[self.k :]
        thetadot = nu[self.k :]
        return v6, p6, theta, thetadot

    def _joint_angle(self, c: RevoluteJoint, theta) -> float:
        return float(c.angle_eq) + theta[self.joint_index[c.name]]

    # -- forward kinematics sweep ----------------------------------------
    def _sweep(self, x, nudot) -> dict:
        v6, p6, theta, thetadot = self._unpack(x)
        thetaddot = np.asarray(nudot, dtype=float)[self.k :]
        states: dict[str, _BodyState] = {}
        if self.free:
            euler = self.root_euler + p6[3:]
            p0 = sp.dcm_from_euler(sp.EulerState(euler)).matrix
            v, w = v6[:3], v6[3:]
            vd6 = np.zeros(6)
            for col, dof in enumerate(self.mask):
                vd6[dof] = np.asarray(nudot)[col]
            a_lin = vd6[:3] + np.cross(w, v)
            wd = vd6[3:]
            pos = self.root_pos + p0 @ p6[:3]
            states[self.root_name] = _BodyState(
                self.model.root_body, p0, pos, v, w, a_lin, wd
            )
        else:
            p0 = sp.dcm_from_euler(sp.EulerState(self.root_euler)).matrix
            states[GROUND] = _BodyState(
                None, p0, self.root_pos, np.zeros(3), np.zeros(3),
                np.zeros(3), np.zeros(3),
            )
        for c in self.order:
            pb, _ = c.parent_port
            cb, _ = c.child_port
            par = states[pb]
            q, cpos = self._conn_data[c.name]
            v_q = par.v + _cross(par.w, q)
            a_q = par.a + _cross(par.wd, q) + _cross(par.w, _cross(par.w, q))
            if isinstance(c, RevoluteJoint):
                th = self._joint_angle(c, theta)
                thd = thetadot[self.joint_index[c.name]]
                thdd = thetaddot[self.joint_index[c.name]]
                kmat, k2mat = self._joint_rot[c.name]
                p_ab = c.zero_dcm @ (
                    np.eye(3) + np.sin(th) * kmat + (1.0 - np.cos(th)) * k2mat
                )
                r = c.axis
                w_par_a = p_ab.T @ par.w
                w_a = w_par_a + thd * r
                wd_a = p_ab.T @ par.wd + thdd * r + thd * _cross(w_par_a, r)
            else:
                p_ab = c.fixed_dcm
                w_a = p_ab.T @ par.w
                wd_a = p_ab.T @ par.wd
            v_j = p_ab.T @ v_q
            a_j = p_ab.T @ a_q
            # joint point -> child reference port (offset -cpos in child frame)
            v_ref = v_j - _cross(w_a, cpos)
            a_ref = a_j - _cross(wd_a, cpos) + _cross(w_a, _cross(w_a, -cpos))
            dcm = par.dcm @ p_ab
            pos = par.pos + par.dcm @ q - dcm @ cpos
            states[cb] = _BodyState(
                self.model.body(cb), dcm, pos, v_ref, w_a, a_ref, wd_a
            )
        return states

    # -- residual ----------------------------------------------------------
    def residual(self, x, u, nudot) -> np.ndarray:
        """Residual of the equations of motion for a candidate nudot."""
        u = np.asarray(u, dtype=float).reshape(self.nu_in)
        states = self._sweep(x, nudot)
        a_r = np.asarray(self.model.acceleration, dtype=float)
        res = np.zeros(self.nq)
        joint_s: dict[str, np.ndarray] = {}
        _, _, theta, thetadot = self._unpack(x)

        def visit(name: str) -> np.ndarray:
            st = states.get(name)
            if name == GROUND:
                inb = np.zeros(6)
            else:
                m, jmat, cog, d = self._body_data[name]
                a6 = np.concatenate([st.dcm.T @ a_r, np.zeros(3)])
                x2 = np.concatenate([st.a, st.wd])
                w = st.w
                nl = np.concatenate(
                    [
                        m * _cross(w, _cross(-cog, w)),
                        _cross(w, d[3:, 3:] @ w),
                    ]
                )
                inb = d @ (x2 + a6) + nl
                for fb, fp, fvec in self.forces:
                    if fb != name:
                        continue
                    f_body = st.dcm.T @ fvec
                    p = self._port_cache[(fb, fp)]
                    inb -= np.concatenate([f_body, _cross(p, f_body)])
                for key, col in self.input_cols.items():
                    if key[0] == "wrench" and key[1] == name:
                        wvec = u[col : col + 6]
                        p = self._port_cache[(key[1], key[2])]
                        inb -= np.concatenate(
                            [wvec[:3], _cross(p, wvec[:3]) + wvec[3:]]
                        )
                if (
                    self.free
                    and name == self.root_name
                    and self.model.root_damping is not None
                ):
                    inb += self.model.root_damping @ np.concatenate([st.v, st.w])
            for c in self.children.get(name, []):
                cb, _ = c.child_port
                child_in = visit(cb)
                q, cpos = self._conn_data[c.name]
                s_f = child_in[:3]
                s_m = child_in[3:] - _cross(cpos, s_f)
                if isinstance(c, RevoluteJoint):
                    joint_s[c.name] = np.concatenate([s_f, s_m])
                    th = self._joint_angle(c, theta)
                    kmat, k2mat = self._joint_rot[c.name]
                    p_ab = c.zero_dcm @ (
                        np.eye(3) + np.sin(th) * kmat + (1.0 - np.cos(th)) * k2mat
                    )
                else:
                    p_ab = c.fixed_dcm
                f_b = p_ab @ s_f
                m_b = p_ab @ s_m
                inb += np.concatenate([f_b, m_b + _cross(q, f_b)])
            return inb

        root_in = visit(self.root_name)
        thetaddot = np.asarray(nudot, dtype=float)[self.k :]
        if self.free:
            for row, dof in enumerate(self.mask):
                res[row] = root_in[dof]
        for c in self.joints:
            i = self.joint_index[c.name]
            parent = states[c.parent_port[0]]
            r_b = c.axis_in_parent
            s = joint_s[c.name]
            lhs = c.shaft_inertia * (thetaddot[i] + r_b @ parent.wd)
            res[self.k + i] = (
                lhs
                + c.friction * thetadot[i]
                + c.r6 @ s
                - (
                    u[self.input_cols[("torque", c.name)]]
                    if ("torque", c.name) in self.input_cols
                    else 0.0
                )
            )
        return res

    def accel(self, x, u) -> np.ndarray:
        """Solve the coupled equations for nudot at a given state/input."""
        r0 = self.residual(x, u, np.zeros(self.nq))
        m = np.zeros((self.nq, self.nq))
        for i in range(self.nq):
            e = np.zeros(self.nq)
            e[i] = 1.0
            m[:, i] = self.residual(x, u, e) - r0
        if np.linalg.cond(m) > 1e13:
            raise TrimError("singular mass matrix in the nonlinear evaluator")
        return np.linalg.solve(m, -r0)

    def f(self, x, u) -> np.ndarray:
        """Full state derivative [nudot; chidot]."""
        x = np.asarray(x, dtype=float).reshape(2 * self.nq)
        nudot = self.accel(x, u)
        v6, p6, theta, thetadot = self._unpack(x)
        chidot = np.zeros(self.nq)
        if self.free:
            euler = self.root_euler + p6[3:]
            gamma = sp.euler_rate_map(sp.EulerState(euler))
            full = np.block(
                [
                    [np.eye(3), np.zeros((3, 3))],
                    [np.zeros((3, 3)), np.linalg.inv(gamma)],
                ]
            )
            g = full[np.ix_(list(self.mask), list(self.mask))]
            chidot[: self.k] = g @ x[: self.k]
        chidot[self.k :] = thetadot
        return np.concatenate([nudot, chidot])

    # -- trim ---------------------------------------------------------------
    def trim_inputs(self) -> np.ndarray:
        """Inputs holding the equilibrium: solve for the residual-zeroing u."""
        u = np.zeros(self.nu_in)
        x0 = np.zeros(2 * self.nq)
        r0 = self.residual(x0, u, np.zeros(self.nq))
        for key, col in self.input_cols.items():
            if key[0] == "torque":
                i = self.joint_index[key[1]]
                u[col] = r0[self.k + i]
        return u

    def energy(self, x) -> float:
        """Total mechanical energy (kinetic + static potential)."""
        states = self._sweep(x, np.zeros(self.nq))
        a_r = np.asarray(self.model.acceleration, dtype=float)
        e = 0.0
        for name, st in states.items():
            if st.body is None:
                continue
            body = st.body
            cog = body.cog_offset_value({})
            v_cog = st.v + np.cross(st.w, cog)
            m = body.mass_value({})
            j = body.inertia_value({})
            e += 0.5 * (m * v_cog @ v_cog + st.w @ j @ st.w)
            pos_cog = st.pos + st.dcm @ cog
            e += m * a_r @ pos_cog
        for fb, fp, fvec in self.forces:
            st = states[fb]
            p = st.pos + st.dcm @ st.body.port_position_value(fp, {})
            e -= fvec @ p
        # joint shaft kinetic energy (J^J ~ 1e-10) is negligible by design
        return float(e)


def nonlinear_accel(ev: NonlinearEvaluator, x, u) -> np.ndarray:
    return ev.accel(x, u)


def fd_linearize(ev: NonlinearEvaluator, cfg: FdConfig | None = None):
    """Central-difference (A, B) at the equilibrium, LFT state convention."""
    cfg = cfg or FdConfig()
    n2 = 2 * ev.nq
    x0 = np.zeros(n2)
    u0 = ev.trim_inputs()
    r = ev.f(x0, u0)
    if np.max(np.abs(r)) > cfg.trim_tol:
        raise TrimError(
            f"trim residual {np.max(np.abs(r)):.3e} exceeds {cfg.trim_tol:.1e}"
        )
    a = np.zeros((n2, n2))
    for i in range(n2):
        h = cfg.scale * max(1.0, abs(x0[i]))
        dx = np.zeros(n2)
        dx[i] = h
        a[:, i] = (ev.f(x0 + dx, u0) - ev.f(x0 - dx, u0)) / (2.0 * h)
    b = np.zeros((n2, ev.nu_in))
    for i in range(ev.nu_in):
        h = cfg.scale * max(1.0, abs(u0[i]))
        du = np.zeros(ev.nu_in)
        du[i] = h
        b[:, i] = (ev.f(x0, u0 + du) - ev.f(x0, u0 - du)) / (2.0 * h)
    return a, b
