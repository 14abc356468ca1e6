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
    """Direction cosine matrix: [v]_to = matrix @ [v]_from.

    ``matrix`` may be a (..., 3, 3) stack; every matrix in it is checked.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape[-2:] != (3, 3):
            raise ValueError("DCM must be 3x3")
        if np.max(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3))) > 1e-10:
            raise ValueError("DCM is not orthonormal")
        if np.any(np.linalg.det(m) < 0):
            raise ValueError("DCM must be proper (det = +1)")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class EulerState:
    """Intrinsic x-y-z Euler angles (rad), a 3-vector or a (..., 3) stack."""

    angles: np.ndarray
    sequence: str = "xyz"

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if a.ndim > 1 and a.shape[-1] != 3:
            raise ValueError(f"expected a stack of 3-vectors, got shape {a.shape}")
        object.__setattr__(self, "angles", a if a.ndim > 1 else _vec3(a))
        if self.sequence != "xyz":
            raise ValueError("only the intrinsic x-y-z sequence is supported")


def _elementary_rotation(t, axis: int) -> np.ndarray:
    """Rotation by t (scalar or array) about coordinate axis 0, 1 or 2."""
    c, s = np.cos(t), np.sin(t)
    i, j = ((1, 2), (2, 0), (0, 1))[axis]
    m = np.zeros(np.shape(t) + (3, 3))
    m[..., axis, axis] = 1.0
    m[..., i, i] = c
    m[..., j, j] = c
    m[..., i, j] = -s
    m[..., j, i] = s
    return m


def rot_x(t) -> np.ndarray:
    return _elementary_rotation(t, 0)


def rot_y(t) -> np.ndarray:
    return _elementary_rotation(t, 1)


def rot_z(t) -> np.ndarray:
    return _elementary_rotation(t, 2)


def rotation_about_axis(axis, theta: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    r = _vec3(axis)
    if abs(np.linalg.norm(r) - 1.0) > 1e-12:
        raise ValueError("axis must have unit norm")
    k = skew(r)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def dcm_from_euler(e: EulerState) -> Dcm:
    t = e.angles
    return Dcm(rot_x(t[..., 0]) @ rot_y(t[..., 1]) @ rot_z(t[..., 2]))


def euler_from_dcm(d: Dcm | np.ndarray, *, lock_ok: bool = False) -> EulerState:
    """Euler angles of a DCM.  A pitch within tolerance of +/-90 deg raises,
    unless ``lock_ok``; then at lock itself, where only t1 -/+ t3 is
    defined, t3 = 0 and t1 carries the rest of the rotation."""
    p = d.matrix if isinstance(d, Dcm) else np.asarray(d, dtype=float)
    s2 = np.clip(p[0, 2], -1.0, 1.0)
    if 1.0 - abs(s2) < GIMBAL_TOL and not lock_ok:
        raise GimbalLockError(
            "gimbal lock: pitch within tolerance of +/-90 deg (axis y)"
        )
    if np.hypot(p[0, 0], p[0, 1]) < GIMBAL_TOL:  # |cos t2|
        sign = np.sign(s2)
        t1 = np.arctan2(sign * p[1, 0], p[1, 1])
        return EulerState(np.array([t1, sign * np.pi / 2, 0.0]))
    t2 = np.arcsin(s2)
    t3 = np.arctan2(-p[0, 1], p[0, 0])
    t1 = np.arctan2(-p[1, 2], p[2, 2])
    return EulerState(np.array([t1, t2, t3]))


def euler_rate_map(e: EulerState) -> np.ndarray:
    """Gamma(theta): body angular velocity = Gamma @ d(theta)/dt.

    A stack of Euler states gives a (..., 3, 3) stack; any one at gimbal
    lock raises.
    """
    t2, t3 = e.angles[..., 1], e.angles[..., 2]
    c2, s2 = np.cos(t2), np.sin(t2)
    if np.any(np.abs(c2) < GIMBAL_TOL):
        raise GimbalLockError()
    c3, s3 = np.cos(t3), np.sin(t3)
    g = np.zeros(np.shape(t2) + (3, 3))
    g[..., 0, 0] = c2 * c3
    g[..., 0, 1] = s3
    g[..., 1, 0] = -c2 * s3
    g[..., 1, 1] = c3
    g[..., 2, 0] = s2
    g[..., 2, 2] = 1.0
    return g


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
