"""Frames, Euler kinematics, the 6-D rigid transport, and the LFT
counterparts that the assembly builds its models from.

All attitude math uses the intrinsic x-y-z (roll-pitch-yaw) Euler
sequence: P = Rx(t1) @ Ry(t2) @ Rz(t3), where P maps body coordinates to
reference coordinates ([v]_ref = P [v]_body).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dcm",
    "EulerState",
    "GimbalLockError",
    "skew",
    "rot_x",
    "rot_y",
    "rot_z",
    "rotation_about_axis",
    "dcm_from_euler",
    "euler_from_dcm",
    "euler_rate_map",
    "tau_matrix",
    "p2",
]

GIMBAL_TOL = 1e-8


class GimbalLockError(ValueError):
    def __init__(self, msg="Euler sequence singular (pitch at +/-90 deg)"):
        super().__init__(msg)


def _vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def skew(u) -> np.ndarray:
    """Skew matrix of u such that skew(u) @ v = u x v."""
    x, y, z = _vec3(u)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def tau_matrix(offset_pc) -> np.ndarray:
    """Rigid transport [[I, skew(PC)], [0, I]] between points P and C of one
    body, from the vector P -> C in the working frame."""
    m = np.eye(6)
    m[:3, 3:] = skew(offset_pc)
    return m


@dataclass(frozen=True)
class Dcm:
    """Direction cosine matrix: [v]_to = matrix @ [v]_from."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("DCM must be 3x3")
        if np.max(np.abs(m.T @ m - np.eye(3))) > 1e-10:
            raise ValueError("DCM is not orthonormal")
        if np.linalg.det(m) < 0:
            raise ValueError("DCM must be proper (det = +1)")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class EulerState:
    """Intrinsic x-y-z Euler angles (rad)."""

    angles: np.ndarray
    sequence: str = "xyz"

    def __post_init__(self):
        object.__setattr__(self, "angles", _vec3(self.angles))
        if self.sequence != "xyz":
            raise ValueError("only the intrinsic x-y-z sequence is supported")


def rot_x(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_about_axis(axis, theta: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    r = _vec3(axis)
    if abs(np.linalg.norm(r) - 1.0) > 1e-12:
        raise ValueError("axis must have unit norm")
    k = skew(r)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def dcm_from_euler(e: EulerState) -> Dcm:
    t1, t2, t3 = e.angles
    return Dcm(rot_x(t1) @ rot_y(t2) @ rot_z(t3))


def euler_from_dcm(d: Dcm | np.ndarray) -> EulerState:
    p = d.matrix if isinstance(d, Dcm) else np.asarray(d, dtype=float)
    s2 = np.clip(p[0, 2], -1.0, 1.0)
    if 1.0 - abs(s2) < GIMBAL_TOL:
        raise GimbalLockError(
            "gimbal lock: pitch within tolerance of +/-90 deg (axis y)"
        )
    t2 = np.arcsin(s2)
    t3 = np.arctan2(-p[0, 1], p[0, 0])
    t1 = np.arctan2(-p[1, 2], p[2, 2])
    return EulerState(np.array([t1, t2, t3]))


def euler_rate_map(e: EulerState) -> np.ndarray:
    """Gamma(theta): body angular velocity = Gamma @ d(theta)/dt."""
    _, t2, t3 = e.angles
    if abs(np.cos(t2)) < GIMBAL_TOL:
        raise GimbalLockError()
    c2, s2 = np.cos(t2), np.sin(t2)
    c3, s3 = np.cos(t3), np.sin(t3)
    return np.array(
        [[c2 * c3, s3, 0.0], [-c2 * s3, c3, 0.0], [s2, 0.0, 1.0]]
    )


def p2(d: Dcm | np.ndarray) -> np.ndarray:
    m = d.matrix if isinstance(d, Dcm) else np.asarray(d, dtype=float)
    out = np.zeros((6, 6))
    out[:3, :3] = m
    out[3:, 3:] = m
    return out


# ---------------------------------------------------------------------------
# Param-valued (LFT) counterparts
# ---------------------------------------------------------------------------

from mblft import lft as _lft  # noqa: E402  (keeps numeric section import-free)


def as_lft(x) -> "_lft.LftMatrix":
    """Coerce a scalar/array/Param/Expr to an LftMatrix column or matrix."""
    if isinstance(x, _lft.LftMatrix):
        return x
    if isinstance(x, (_lft.Param, _lft.Expr)):
        return _lft.lift_scalar(x)
    arr = np.asarray(x, dtype=object)
    if arr.ndim == 0:
        return _lft.lift_scalar(arr.item())
    if arr.ndim == 1:
        return _lft.lift_matrix([[v] for v in arr])
    return _lft.lift_matrix([list(row) for row in arr])


def skew_lft(v) -> "_lft.LftMatrix":
    """Skew matrix of a 3x1 LFT column."""
    v = as_lft(v)
    if v.shape != (3, 1):
        raise ValueError("skew_lft expects a 3x1 column")
    z = _lft.zeros(1, 1)
    c = [v.submatrix([i], [0]) for i in range(3)]
    return _lft.block(
        [[z, -c[2], c[1]], [c[2], z, -c[0]], [-c[1], c[0], z]]
    )


def tau_lft(offset_pc) -> "_lft.LftMatrix":
    """6x6 kinematic transport with a Param-valued P -> C offset."""
    off = as_lft(offset_pc)
    return _lft.block(
        [[_lft.eye(3), skew_lft(off)], [_lft.zeros(3, 3), _lft.eye(3)]]
    )


def p2_lft(dcm) -> "_lft.LftMatrix":
    d = as_lft(dcm)
    return _lft.blockdiag([d, d])


def rotation_about_axis_lft(axis, angle_spec) -> "_lft.LftMatrix":
    """3x3 rotation about a fixed unit axis, fixed or Param-valued angle."""
    if isinstance(angle_spec, _lft.HalfTanParam):
        return _lft.rotation_about_axis(np.asarray(axis, dtype=float), angle_spec)
    return _lft.constant(rotation_about_axis(axis, float(angle_spec)))
