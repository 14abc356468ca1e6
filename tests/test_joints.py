"""Revolute joints and rigid connections: the joint DCM, and the joint
terms of the assembly (equilibrium orientation, torque balance, wrench
transfer, geometric stiffness) and of the oracle (child angular velocity)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mblft import lft
from mblft import spatial as sp
from mblft.assembly import (
    ExternalForce,
    MultibodyModel,
    RootSpec,
    assemble,
    sample_model,
    step1_geometry,
    step2_wrenches,
)
from mblft.bodies import DynamicsRole, RigidBody
from mblft.joints import (
    JointError,
    RevoluteJoint,
    RigidConnection,
    revolute_dcm_lft,
)
from mblft.oracle import FdConfig, NonlinearEvaluator, fd_linearize

AXES = [
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
    np.array([0.6, 0.8, 0.0]),
]
A_REF = np.array([0.0, 0.0, 9.81])


def _joint(axis, angle=0.4, name="j", parent=("ground", "ref"), child="b"):
    return RevoluteJoint(
        name=name,
        parent_port=parent,
        child_port=(child, "ref"),
        axis=axis,
        angle_eq=angle,
    )


def _dcm(joint, theta):
    """Numeric P_a/b(theta) of a revolute joint."""
    return joint.zero_dcm @ sp.rotation_about_axis(joint.axis, theta)


def _link(name="b"):
    return RigidBody(
        name=name,
        mass=1.5,
        inertia_cog=np.diag([0.2, 0.3, 0.1]),
        cog_offset=(0.3, -0.1, -0.8),
        ports=(("tip", (0.2, 0.4, -1.0)),),
        dynamics_role=DynamicsRole.INVERSE,
    )


def _grounded(*connections, euler=(0.0, 0.0, 0.0), forces=()):
    """A grounded chain of inverse-role links under gravity, one per
    connection, named after the connections' child bodies."""
    return MultibodyModel(
        name="chain",
        bodies=tuple(_link(c.child_port[0]) for c in connections),
        connections=connections,
        acceleration=tuple(A_REF),
        root=RootSpec(euler=euler),
        external_forces=forces,
    )


def test_axis_must_be_unit():
    with pytest.raises(JointError):
        _joint(np.array([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_axis_must_be_finite(bad):
    # abs(norm - 1) > tol is false for NaN, so finiteness is its own rule
    with pytest.raises(JointError, match="axis entries must be finite"):
        _joint(np.array([bad, 0.0, 0.0]))


def test_revolute_dcm_is_rotation_about_axis():
    for axis in AXES:
        j = _joint(axis, angle=0.7)
        np.testing.assert_allclose(
            revolute_dcm_lft(j).evaluate({}),
            sp.rotation_about_axis(axis, 0.7),
            atol=1e-14,
        )


def test_revolute_dcm_lft_matches_numeric_with_varying_angle():
    t = lft.HalfTanParam.from_angle("th", 0.5, -1.2, 1.2)
    j = _joint(AXES[2], angle=t)
    g = revolute_dcm_lft(j)
    for th in np.linspace(-1.2, 1.2, 9):
        np.testing.assert_allclose(
            g.evaluate({t.param.name: math.tan(th / 2)}),
            _dcm(j, th),
            atol=1e-12,
        )


_REFLECTION = np.diag([1.0, 1.0, -1.0])
_NAN_DCM = np.where(np.eye(3) == 1.0, np.nan, 0.0)


@pytest.mark.parametrize(
    "dcm, message",
    [
        (np.eye(2), "3x3 matrix of numbers"),
        (np.stack([np.eye(3), np.eye(3)]), "3x3 matrix of numbers"),
        ([["1", 0, 0], [0, 1, 0], [0, 0, 1]], "3x3 matrix of numbers"),
        (2.0 * np.eye(3), "not orthonormal"),
        (_REFLECTION, r"proper \(det = \+1\)"),
        (_NAN_DCM, "finite"),
    ],
)
def test_dcm_rule_on_connections(dcm, message):
    """A DCM given to a rigid connection or a revolute joint must be a
    finite, orthonormal, proper 3x3 matrix of numbers."""
    with pytest.raises(ValueError, match=message):
        RigidConnection(
            name="c", parent_port=("ground", "ref"), child_port=("b", "ref"),
            fixed_dcm=dcm,
        )
    with pytest.raises(ValueError, match=message):
        RevoluteJoint(
            name="j", parent_port=("ground", "ref"), child_port=("b", "ref"),
            axis=AXES[0], zero_dcm=dcm,
        )


def test_connection_dcm_is_kept_as_floats():
    fixed = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    conn = RigidConnection(
        name="c", parent_port=("ground", "ref"), child_port=("b", "ref"),
        fixed_dcm=fixed,
    )
    assert conn.fixed_dcm.dtype == float
    assert np.array_equal(conn.fixed_dcm, np.array(fixed, dtype=float))
    assert np.array_equal(_joint(AXES[0]).zero_dcm, np.eye(3))


# ---------------------------------------------------------------------------
# equilibrium: orientation, torque balance, wrench transfer
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_torque_balances_axial_load_component(seed):
    """C_m + r^T M = 0, with M the moment about the joint point of every
    load on the child (its weight and an external force), for any load and
    any axis."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = float(rng.uniform(-1.0, 1.0))
    force = rng.standard_normal(3)
    model = _grounded(
        _joint(axis, angle), forces=(ExternalForce("b", "tip", tuple(force)),)
    )
    eq = step2_wrenches(step1_geometry(model))
    body = model.body("b")
    p = _dcm(model.connections[0], angle)
    weight = -body.mass_value({}) * (p.T @ A_REF)
    cog = np.array([lft.as_expr(v).value({}) for v in body.cog_offset])
    tip = np.array([lft.as_expr(v).value({}) for v in body.port_position("tip")])
    moment = np.cross(cog, weight) + np.cross(tip, p.T @ force)
    torque = eq.report()["joints"]["j"]["torque"]
    assert abs(torque + float(axis @ moment)) <= 1e-12


def test_transmitted_wrench_is_frame_change_only():
    """W_J/B = P2(theta) W_A/J: the ground reaction of a grounded joint is
    the joint load in parent components."""
    rng = np.random.default_rng(9)
    force = rng.standard_normal(3)
    model = _grounded(
        _joint(AXES[0], 0.9), forces=(ExternalForce("b", "tip", tuple(force)),)
    )
    eq = step2_wrenches(step1_geometry(model))
    p = _dcm(model.connections[0], 0.9)
    p2 = np.block([[p, np.zeros((3, 3))], [np.zeros((3, 3)), p]])
    np.testing.assert_allclose(
        eq.root_reaction.evaluate({}).ravel(),
        p2 @ eq.joint_load["j"].evaluate({}).ravel(),
        atol=1e-12,
    )


def _reported_dcm(model, body="b"):
    """The DCM of the Euler angles that the equilibrium report gives."""
    rep = step2_wrenches(step1_geometry(model)).report()
    theta = np.radians(rep["bodies"][body]["euler_deg"])
    return sp.dcm_from_euler(theta)


def test_child_euler_composition():
    # the last input pitches the child to +90 deg, at gimbal lock
    for theta_b, axis, angle in (
        ((0.2, -0.1, 0.3), AXES[0], 40.0),
        ((0.0, 0.0, 0.0), np.array([0.0, 1.0, 0.0]), 90.0),
    ):
        j = _joint(axis, angle=math.radians(angle))
        p_ai = sp.dcm_from_euler(theta_b) @ _dcm(j, math.radians(angle))
        np.testing.assert_allclose(
            _reported_dcm(_grounded(j, euler=theta_b)), p_ai, atol=1e-12
        )


@pytest.mark.parametrize("pitch", [90.0, -90.0])
@pytest.mark.parametrize("roll", [0.0, 0.7])
def test_child_at_gimbal_lock_is_reported(pitch, roll):
    """A child pitched to +/-90 deg gets t2 = +/-90 deg and t3 = 0 in the
    report, and the angles give back its DCM; a free root at lock still
    raises, since its pose states are Euler angles."""
    fixed = sp.rot_x(roll) @ sp.rot_y(math.radians(pitch))
    conn = RigidConnection(
        name="c", parent_port=("ground", "ref"), child_port=("b", "ref"),
        fixed_dcm=fixed,
    )
    model = _grounded(conn)
    rep = step2_wrenches(step1_geometry(model)).report()
    t1, t2, t3 = rep["bodies"]["b"]["euler_deg"]
    assert (t2, t3) == (pitch, 0.0)
    assert abs(t1 - math.degrees(roll)) < 1e-9
    theta = np.radians([t1, t2, t3])
    np.testing.assert_allclose(sp.dcm_from_euler(theta), fixed, atol=1e-9)
    with pytest.raises(sp.GimbalLockError):
        sp.euler_from_dcm(fixed)
    free = MultibodyModel(
        name="locked_root",
        bodies=(
            RigidBody("b", 1.5, np.diag([0.2, 0.3, 0.1]), (0.0, 0.0, 0.0)),
        ),
        connections=(),
        acceleration=tuple(A_REF),
        root=RootSpec("free", euler=(roll, math.radians(pitch), 0.0)),
    )
    with pytest.raises(sp.GimbalLockError):
        step1_geometry(free)


def test_rigid_connection_equilibrium_composes_dcms():
    fixed = sp.rotation_about_axis(AXES[2], 0.8)
    conn = RigidConnection(
        name="c", parent_port=("ground", "ref"), child_port=("b", "ref"),
        fixed_dcm=fixed,
    )
    theta_b = np.array([0.3, 0.2, -0.4])
    np.testing.assert_allclose(
        _reported_dcm(_grounded(conn, euler=tuple(theta_b))),
        sp.dcm_from_euler(theta_b) @ fixed,
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# motion and stiffness across a joint
# ---------------------------------------------------------------------------


def _two_joint_chain(forces=()):
    return _grounded(
        _joint(AXES[0], 0.3, name="j1", child="b1"),
        _joint(AXES[2], 0.5, name="j2", parent=("b1", "tip"), child="b2"),
        forces=forces,
    )


def test_motion_transform_velocity_rows_match_fd_of_pose():
    """The oracle's child angular velocity omega_A = P^T omega_B +
    thetadot r equals the rate of the child's DCM, vee(P^T dP/dt)."""
    ev = NonlinearEvaluator(_two_joint_chain(), {})
    theta = np.array([0.2, -0.4])
    thetadot = np.array([0.7, -1.3])
    omega = ev._sweep(np.concatenate([thetadot, theta]), np.zeros(2))["b2"].w[0]
    h = 1e-6

    def dcm(t):
        x = np.concatenate([np.zeros(2), theta + t * thetadot])
        return ev._sweep(x, np.zeros(2))["b2"].dcm[0]

    w_x = dcm(0.0).T @ (dcm(h) - dcm(-h)) / (2 * h)
    np.testing.assert_allclose(
        omega, [w_x[2, 1], w_x[0, 2], w_x[1, 0]], atol=1e-8
    )


def test_block_wrench_stiffness_matches_fd():
    """The assembled A, which carries the geometric stiffness
    d(P2(theta) W_A/J)/dtheta of the outer joint, equals a central
    difference of the oracle."""
    rng = np.random.default_rng(11)
    force = rng.standard_normal(3)
    model = _two_joint_chain((ExternalForce("b2", "tip", tuple(force)),))
    a = sample_model(assemble(model), {})[0]
    a_fd, _ = fd_linearize(NonlinearEvaluator(model, {}), FdConfig())
    np.testing.assert_allclose(a, a_fd, rtol=1e-6, atol=1e-6 * np.abs(a_fd).max())
