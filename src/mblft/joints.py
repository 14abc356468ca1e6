"""Interconnection elements: rigid connections and revolute joints.

This module holds the connection data and the joint DCM as an LFT; their
equilibrium relations and linearization are formulated in
``mblft.assembly`` (steps 1-3), which builds each joint's DCM once.

A connection links a *parent* body B (frame R_b) to a *child* body A
(frame R_a) at a common point P. ``P_a/b`` is the DCM from R_a to R_b
([v]_Rb = P_a/b [v]_Ra). For a revolute joint,

    P_a/b(theta) = P_a/b(0) @ R(r, theta)

with the unit axis ``r`` expressed in the child frame R_a (it has the same
components in both frames, and [r]_Rb = P_a/b(0) r is independent of theta).
Positive joint angle follows the right-hand rule about ``r``; the child
angular velocity is omega_A = omega_B + thetadot * r.

Wrench sign convention: ``W_A/J`` is the wrench that the child-side
structure applies through the joint (in R_a, at P), so the wrench the
joint transmits to the parent is W_J/B = P^x2_a/b(theta) W_A/J and the
equilibrium driving torque satisfies C_m + r6^T W_A/J = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mblft import lft
from mblft import spatial as sp

__all__ = [
    "JointError",
    "RigidConnection",
    "RevoluteJoint",
    "revolute_dcm_lft",
]

DEFAULT_SHAFT_INERTIA = 1e-10


class JointError(ValueError):
    pass


@dataclass(frozen=True)
class RigidConnection:
    """Constant-orientation rigid attachment of a child body to a parent port."""

    name: str
    parent_port: tuple  # (body name, port name)
    child_port: tuple
    fixed_dcm: object = None  # P_a/b, defaults to identity

    def __post_init__(self):
        m = np.eye(3) if self.fixed_dcm is None else sp.check_dcm(self.fixed_dcm)
        object.__setattr__(self, "fixed_dcm", m)


@dataclass(frozen=True)
class RevoluteJoint:
    """Single-axis revolute joint with a driven torque channel."""

    name: str
    parent_port: tuple
    child_port: tuple
    axis: object
    angle_eq: object = 0.0  # float (rad) or HalfTanParam
    zero_dcm: object = None  # P_a/b(0), defaults to identity
    shaft_inertia: float = DEFAULT_SHAFT_INERTIA
    friction: float = 0.0  # viscous torque C_m = -friction * thetadot

    def __post_init__(self):
        r = np.asarray(self.axis, dtype=float).reshape(3)
        if not np.all(np.isfinite(r)):
            raise JointError(f"joint {self.name!r}: axis entries must be finite")
        if abs(np.linalg.norm(r) - 1.0) > 1e-12:
            raise JointError(f"joint {self.name!r}: axis must be unit norm")
        object.__setattr__(self, "axis", r)
        m = np.eye(3) if self.zero_dcm is None else sp.check_dcm(self.zero_dcm)
        object.__setattr__(self, "zero_dcm", m)
        if not self.shaft_inertia > 0.0:
            raise JointError(f"joint {self.name!r}: shaft inertia must be > 0")
        if self.friction < 0.0:
            raise JointError(f"joint {self.name!r}: friction must be >= 0")

    @property
    def r6(self) -> np.ndarray:
        return np.concatenate([np.zeros(3), self.axis])

    @property
    def axis_in_parent(self) -> np.ndarray:
        return self.zero_dcm @ self.axis


# ---------------------------------------------------------------------------
# Revolute joint
# ---------------------------------------------------------------------------


def revolute_dcm_lft(joint: RevoluteJoint) -> lft.LftMatrix:
    """P_a/b at the equilibrium angle, Param-valued when the angle is one."""
    if isinstance(joint.angle_eq, lft.HalfTanParam):
        rot = lft.rotation_about_axis(joint.axis, joint.angle_eq)
    else:
        rot = lft.constant(sp.rotation_about_axis(joint.axis, float(joint.angle_eq)))
    return lft.constant(joint.zero_dcm) @ rot
