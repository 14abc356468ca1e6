"""Frames, Euler kinematics, the 6-D rigid transport, and the LFT
counterparts that the assembly builds its models from.

All attitude math uses the intrinsic x-y-z (roll-pitch-yaw) Euler
sequence: P = Rx(t1) @ Ry(t2) @ Rz(t3), where P maps body coordinates to
reference coordinates ([v]_ref = P [v]_body).

Angles and direction cosine matrices (DCMs, [v]_to = P [v]_from) are plain
arrays: Euler angles a 3-vector or a (..., 3) stack, DCMs a 3x3 matrix or a
(..., 3, 3) stack.  ``check_dcm`` holds the DCM rule for a matrix that
comes from outside the program; a DCM computed here is orthonormal by
construction and is not checked again.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GimbalLockError",
    "check_dcm",
    "skew",
    "rot_x",
    "rot_y",
    "rot_z",
    "rotation_about_axis",
    "dcm_from_euler",
    "euler_from_dcm",
    "euler_rate_map",
    "tau_matrix",
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


def check_dcm(m) -> np.ndarray:
    """The DCM rule: ``m`` as a float array, or ValueError unless it is a
    3x3 matrix of finite numbers that is orthonormal and proper."""
    try:
        arr = np.asarray(m)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.shape != (3, 3):
        raise ValueError("DCM must be a 3x3 matrix of numbers")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("DCM entries must be finite")
    if np.max(np.abs(arr.T @ arr - np.eye(3))) > 1e-10:
        raise ValueError("DCM is not orthonormal")
    if np.linalg.det(arr) < 0:
        raise ValueError("DCM must be proper (det = +1)")
    return arr


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


def dcm_from_euler(angles) -> np.ndarray:
    """DCM of Euler angles: a 3x3 matrix, or a (..., 3, 3) stack of a
    (..., 3) stack."""
    t = np.asarray(angles, dtype=float)
    return rot_x(t[..., 0]) @ rot_y(t[..., 1]) @ rot_z(t[..., 2])


def euler_from_dcm(d, *, lock_ok: bool = False) -> np.ndarray:
    """Euler angles of a DCM.  A pitch within tolerance of +/-90 deg raises,
    unless ``lock_ok``; then at lock itself, where only t1 -/+ t3 is
    defined, t3 = 0 and t1 carries the rest of the rotation."""
    p = np.asarray(d, dtype=float)
    s2 = np.clip(p[0, 2], -1.0, 1.0)
    if 1.0 - abs(s2) < GIMBAL_TOL and not lock_ok:
        raise GimbalLockError(
            "gimbal lock: pitch within tolerance of +/-90 deg (axis y)"
        )
    if np.hypot(p[0, 0], p[0, 1]) < GIMBAL_TOL:  # |cos t2|
        sign = np.sign(s2)
        t1 = np.arctan2(sign * p[1, 0], p[1, 1])
        return np.array([t1, sign * np.pi / 2, 0.0])
    t2 = np.arcsin(s2)
    t3 = np.arctan2(-p[0, 1], p[0, 0])
    t1 = np.arctan2(-p[1, 2], p[2, 2])
    return np.array([t1, t2, t3])


def euler_rate_map(angles) -> np.ndarray:
    """Gamma(theta): body angular velocity = Gamma @ d(theta)/dt.

    A (..., 3) stack of Euler angles gives a (..., 3, 3) stack; any one at
    gimbal lock raises.
    """
    t = np.asarray(angles, dtype=float)
    t2, t3 = t[..., 1], t[..., 2]
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
    """Skew matrix of a 3x1 LFT column; ``skew`` of a constant one.

    Column j of skew(v) is v x e_j = skew(e_j)^T v, so the LFT holds three
    copies of v's channels, one per column.  Its A block is ``skew`` of v's,
    as the constant path computes it.
    """
    v = as_lft(v)
    if v.shape != (3, 1):
        raise ValueError("skew_lft expects a 3x1 column")
    if not v.ndelta:
        return _lft.constant(skew(v.a))
    out = _lft.hstack([_lft.constant(skew(e).T) @ v for e in np.eye(3)])
    out.m[:3, :3] = skew(v.a)
    return out


def tau_lft(offset_pc) -> "_lft.LftMatrix":
    """6x6 kinematic transport with a Param-valued P -> C offset;
    ``tau_matrix`` of a constant one."""
    off = as_lft(offset_pc)
    if not off.ndelta and off.shape == (3, 1):
        return _lft.constant(tau_matrix(off.a))
    return _lft.block(
        [[np.eye(3), skew_lft(off)], [np.zeros((3, 3)), np.eye(3)]]
    )


def p2_lft(dcm) -> "_lft.LftMatrix":
    d = as_lft(dcm)
    return _lft.blockdiag([d, d])

