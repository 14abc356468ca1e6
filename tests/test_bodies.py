"""Rigid bodies: mass-property checks, direct dynamics at a port, and the
body terms of the assembly (static wrench, gravity stiffness, forward
dynamics) and of the oracle (Newton-Euler wrench)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mblft import lft
from mblft import spatial as sp
from mblft.assembly import (
    MultibodyModel,
    RootSpec,
    _spatial_operators,
    assemble,
    sample_model,
    step1_geometry,
    step2_wrenches,
)
from mblft.bodies import (
    BodyError,
    DynamicsRole,
    RigidBody,
    _d_numeric,
    check_mass_properties,
    direct_dynamics_at_port,
    direct_dynamics_cog,
)
from mblft.joints import RevoluteJoint
from mblft.oracle import NonlinearEvaluator

FIN = st.floats(-2.0, 2.0)


def _body(mass=2.0, cog=(0.1, -0.2, 0.5), role=DynamicsRole.INVERSE):
    j = np.diag([0.4, 0.3, 0.25])
    return RigidBody(
        name="b",
        mass=mass,
        inertia_cog=j,
        cog_offset=cog,
        ports=(("p", (1.0, 0.0, 0.0)),),
        dynamics_role=role,
    )


def _values(exprs, point) -> np.ndarray:
    """Numeric values of Scalar entries (a port position, a CoG offset)."""
    return np.array([lft.as_expr(v).value(point) for v in exprs], dtype=float)


def _child():
    return RigidBody(
        name="c",
        mass=1.5,
        inertia_cog=np.diag([0.2, 0.3, 0.1]),
        cog_offset=(0.3, -0.1, -0.8),
        dynamics_role=DynamicsRole.INVERSE,
    )


def _free(*bodies, euler=(0.0, 0.0, 0.0), angle=0.4, **kw):
    """A free-root model of a forward body, with a second (inverse-role)
    body, if given, hinged at the first one's port ``p``."""
    conns = tuple(
        RevoluteJoint(
            name="j",
            parent_port=(bodies[0].name, "p"),
            child_port=(child.name, "ref"),
            axis=(0.6, 0.8, 0.0),
            angle_eq=angle,
        )
        for child in bodies[1:]
    )
    kw.setdefault("acceleration", (0.0, 0.0, 0.0))
    return MultibodyModel(
        name="free",
        bodies=bodies,
        connections=conns,
        root=RootSpec("free", euler=euler),
        **kw,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_negative_mass_rejected():
    with pytest.raises(BodyError):
        _body(mass=-1.0)


def test_zero_mass_ok_for_inverse_role_only():
    _body(mass=0.0, role=DynamicsRole.INVERSE)  # no error
    with pytest.raises(BodyError):
        RigidBody(
            name="b",
            mass=0.0,
            inertia_cog=np.zeros((3, 3)),
            cog_offset=(0, 0, 0),
            dynamics_role=DynamicsRole.FORWARD,
        )


def test_mass_rules_name_the_point():
    """The rules a body is built under are the ones the oracle applies at a
    parameter point; each message names the point."""
    fwd = _body(role=DynamicsRole.FORWARD)
    pt = {"k": 0.5}
    check_mass_properties(fwd, pt, 2.0, np.diag([0.4, 0.3, 0.25]))
    bad = [
        (-1.0, None, "mass must be positive"),
        (0.0, None, "mass must be positive"),
        (2.0, np.array([[1.0, 0.1, 0], [0, 1.0, 0], [0, 0, 1.0]]), "symmetric"),
        (2.0, np.diag([1.0, -0.1, 1.0]), "positive semidefinite"),
        (2.0, np.zeros((3, 3)), "point mass"),
    ]
    for mass, inertia, rule in bad:
        with pytest.raises(BodyError, match=rule) as err:
            check_mass_properties(fwd, pt, mass, inertia)
        assert "{'k': 0.5}" in str(err.value)
    inv = _body()
    check_mass_properties(inv, pt, 0.0, np.zeros((3, 3)))
    with pytest.raises(BodyError, match="mass must be non-negative"):
        check_mass_properties(inv, pt, -1e-9)


def test_uncertain_mass_must_stay_positive_over_box():
    m = lft.Param("m", 1.0, -0.5, 2.0, "uncertain")
    with pytest.raises(BodyError):
        RigidBody(
            name="b",
            mass=m,
            inertia_cog=np.zeros((3, 3)),
            cog_offset=(0, 0, 0),
            dynamics_role=DynamicsRole.FORWARD,
        )


def test_inertia_rules_hold_at_every_box_corner():
    """The arm's link1 with its ``J1`` range reaching below zero: the
    inertia is positive semidefinite at nominal but not at the corners
    where J1 = -0.1, and the error names the first such corner."""
    j1 = lft.Param("J1", 0.2, -0.1, 0.22, "uncertain")
    m1 = lft.Param("m1", 3.0, 2.85, 3.15, "uncertain")
    with pytest.raises(BodyError, match="positive semidefinite") as err:
        RigidBody(
            name="link1",
            mass=m1,
            inertia_cog=[[j1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, j1]],
            cog_offset=(0.0, 0.3, 0.0),
            dynamics_role=DynamicsRole.INVERSE,
        )
    assert "{'J1': -0.1, 'm1': 3.15}" in str(err.value)


# ---------------------------------------------------------------------------
# direct dynamics
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(FIN, FIN, FIN)
def test_d_at_port_symmetric_and_congruent(cx, cy, cz):
    b = _body(cog=(cx, cy, cz))
    d_cog = direct_dynamics_cog(b).evaluate({})
    d_port = direct_dynamics_at_port(b, "p").evaluate({})
    np.testing.assert_allclose(d_port, d_port.T, atol=1e-12)
    offset = _values(b.port_position("p"), {}) - _values(b.cog_offset, {})
    tau = sp.tau_matrix(offset)
    np.testing.assert_allclose(d_port, tau.T @ d_cog @ tau, atol=1e-12)
    # positive semidefinite
    assert np.min(np.linalg.eigvalsh(d_port)) > -1e-12


@pytest.mark.parametrize("reach", [30.0, 100.0, 1e3])
def test_far_cog_d_at_port_is_accepted_and_symmetric(reach):
    """D's entries grow as mass x offset^2, so its symmetry holds to round-off
    relative to its largest entry, not to an absolute bound: a CoG hundreds
    of metres from a port is an ordinary body."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = RigidBody(
            name="b",
            mass=float(rng.uniform(1.0, 50.0)),
            inertia_cog=np.diag(rng.uniform(0.0, 5.0, 3)),
            cog_offset=tuple(rng.uniform(-reach, reach, 3)),
            ports=(("p", tuple(rng.uniform(-reach, reach, 3))),),
            dynamics_role=DynamicsRole.FORWARD,
        )
        for port in ("ref", "p"):
            d = direct_dynamics_at_port(b, port).evaluate({})
            eps = np.finfo(float).eps
            assert np.max(np.abs(d - d.T)) <= 4 * eps * np.max(np.abs(d))


def test_raw_param_entries_give_the_numeric_d_at_port():
    m = lft.Param("m", 2.0, 1.5, 2.5, "uncertain")
    ln = lft.Param("l", 0.5, 0.4, 0.6, "uncertain")
    b = RigidBody(
        name="b",
        mass=m,
        inertia_cog=np.diag([0.4, 0.3, 0.25]),
        cog_offset=(0.0, 0.1, ln),
        ports=(("p", (ln, 0.0, -0.2)),),
        dynamics_role=DynamicsRole.INVERSE,
    )
    for port in ("ref", "p"):
        d = direct_dynamics_at_port(b, port)
        for pt in ({"m": 1.5, "l": 0.4}, {"m": 2.0, "l": 0.5}, {"m": 2.5, "l": 0.6}):
            offset = _values(b.port_position(port), pt) - _values(b.cog_offset, pt)
            np.testing.assert_allclose(
                d.evaluate(pt),
                _d_numeric(offset, b.mass_value(pt), b.inertia_value(pt)),
                atol=1e-12,
            )


def test_newton_euler_matches_first_principles():
    """The oracle's wrench at the reference port of a moving free body equals
    explicit CoG dynamics and moment transport, velocity terms included."""
    rng = np.random.default_rng(5)
    b = _body(role=DynamicsRole.FORWARD)
    a_ref = np.array([0.0, 0.0, 9.81])
    euler = np.array([0.3, -0.2, 0.6])
    model = _free(b, euler=tuple(euler), acceleration=tuple(a_ref))
    ev = NonlinearEvaluator(model, {})
    v, omega = rng.standard_normal(3), rng.standard_normal(3)
    nudot = rng.standard_normal(6)
    w = ev.residual(np.concatenate([v, omega, np.zeros(6)]), np.zeros(0), nudot)

    m = b.mass_value({})
    j = b.inertia_value({})
    # acceleration of the reference port a = vdot + omega x v; that of the
    # CoG adds alpha x r + w x (w x r), with r = reference port -> CoG
    r = _values(b.cog_offset, {})
    alpha = nudot[3:]
    a_port = nudot[:3] + np.cross(omega, v)
    a_cog = a_port + np.cross(alpha, r) + np.cross(omega, np.cross(omega, r))
    p = sp.dcm_from_euler(euler)
    f = m * (a_cog + p.T @ a_ref)
    t_cog = j @ alpha + np.cross(omega, j @ omega)
    t_port = t_cog + np.cross(r, f)
    np.testing.assert_allclose(w[:3], f, atol=1e-10)
    np.testing.assert_allclose(w[3:], t_port, atol=1e-10)


def test_equilibrium_wrench_is_d_times_a6():
    """Step 2's static wrench of a leaf body is D_ref [P^T a; 0]: the body
    hangs at its ref port from a turned ground, so tau_c = I and its
    joint load is that wrench."""
    child = _child()
    hinge = RevoluteJoint(
        name="j",
        parent_port=("ground", "ref"),
        child_port=("c", "ref"),
        axis=(0.6, 0.8, 0.0),
        angle_eq=0.4,
    )
    model = MultibodyModel(
        name="hinge",
        bodies=(child,),
        connections=(hinge,),
        acceleration=(0.0, 0.0, 9.81),
        root=RootSpec("ground", euler=(0.35, -0.2, 0.6)),
    )
    ctx = step1_geometry(model)
    w = step2_wrenches(ctx).joint_load["j"].evaluate({})
    p = ctx.geo["c"].dcm.evaluate({})
    a6 = np.concatenate([p.T @ np.array([0.0, 0.0, 9.81]), np.zeros(3)])
    d = direct_dynamics_at_port(child, "ref").evaluate({})
    np.testing.assert_allclose(w.ravel(), d @ a6, atol=1e-12)


# ---------------------------------------------------------------------------
# gravity stiffness: d(P^T a)/dtheta against finite differences
# ---------------------------------------------------------------------------


def test_acceleration_terms_derivative_against_fd():
    """Step 1's frame acceleration abar = P^T a of a body and its pose
    derivative skew(abar) phi, with phi from step 3's spatial operators,
    over the root Euler angles and the joint angle, against central
    differences of abar; the operators' own Y = skew(abar) phi equals it."""
    root, child = _body(role=DynamicsRole.FORWARD), _child()
    a_ref = (0.0, 0.0, 9.81)
    euler = np.array([0.35, -0.2, 0.6])

    def geometry(euler, angle):
        model = _free(
            root, child, euler=tuple(euler), angle=angle, acceleration=a_ref
        )
        return step1_geometry(model)

    def abar(euler, angle):
        return geometry(euler, angle).geo["c"].abar.evaluate({}).ravel()

    ctx = geometry(euler, 0.4)
    rec = ctx.geo["c"]
    a0 = rec.abar.evaluate({}).ravel()
    p = rec.dcm.evaluate({})
    np.testing.assert_allclose(a0, p.T @ np.array(a_ref), atol=1e-12)
    # pose columns: root position (no effect), root Euler angles, joint angle
    ops = _spatial_operators(ctx)
    i = ops.index["c"]
    phi_y = ops.q.evaluate({})[3 * i : 3 * i + 3]
    da = sp.skew(a0) @ phi_y[:, :7]
    assert da.shape == (3, 7)
    np.testing.assert_allclose(phi_y[:, 7:], da, atol=1e-12)
    np.testing.assert_allclose(da[:, :3], 0.0, atol=1e-14)
    h = 1e-7
    for col in range(3, 7):
        de, dq = np.zeros(3), 0.0
        if col < 6:
            de[col - 3] = h
        else:
            dq = h
        fd = (abar(euler + de, 0.4 + dq) - abar(euler - de, 0.4 - dq)) / (2 * h)
        np.testing.assert_allclose(da[:, col], fd, atol=1e-5)


# ---------------------------------------------------------------------------
# forward dynamics of a free body
# ---------------------------------------------------------------------------


def test_forward_block_b_matrix_is_d_inverse():
    """A wrench input at the reference port of a free body drives its
    velocities through D^-1; the velocity-velocity block of A vanishes."""
    b = _body(role=DynamicsRole.FORWARD)
    lm = assemble(_free(b, inputs=(("wrench", "b", "ref"),)))
    a, bb, _, _ = sample_model(lm, {})
    d = direct_dynamics_at_port(b, "ref").evaluate({})
    np.testing.assert_allclose(bb[:6, :], np.linalg.inv(d), atol=1e-9)
    np.testing.assert_allclose(bb[6:, :], 0.0, atol=1e-14)
    np.testing.assert_allclose(a[:6, :6], 0.0, atol=1e-12)
