"""Frames, Euler kinematics, 6-D transports, and their LFT counterparts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from mblft import lft
from mblft import spatial as sp
from mblft.bodies import DynamicsRole, RigidBody, direct_dynamics_at_port

SAFE_ANGLE = st.floats(-1.2, 1.2)  # away from the +/- pi/2 gimbal zone


# ---------------------------------------------------------------------------
# numeric kinematics
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(SAFE_ANGLE, SAFE_ANGLE, SAFE_ANGLE)
def test_dcm_matches_scipy_intrinsic_xyz(t1, t2, t3):
    d = sp.dcm_from_euler(np.array([t1, t2, t3]))
    expected = Rotation.from_euler("XYZ", [t1, t2, t3]).as_matrix()
    np.testing.assert_allclose(d, expected, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(SAFE_ANGLE, SAFE_ANGLE, SAFE_ANGLE)
def test_euler_round_trip(t1, t2, t3):
    angles = np.array([t1, t2, t3])
    d = sp.dcm_from_euler(angles)
    back = sp.euler_from_dcm(d)
    np.testing.assert_allclose(back, angles, atol=1e-10)


def test_gimbal_lock_raises():
    d = sp.dcm_from_euler(np.array([0.3, math.pi / 2, 0.1]))
    with pytest.raises(sp.GimbalLockError):
        sp.euler_from_dcm(d)


@settings(max_examples=30, deadline=None)
@given(SAFE_ANGLE, SAFE_ANGLE, SAFE_ANGLE)
def test_euler_rate_map_against_fd(t1, t2, t3):
    """[omega]_body = Gamma @ thetadot, via finite differences of the DCM."""
    angles = np.array([t1, t2, t3])
    gamma = sp.euler_rate_map(angles)
    h = 1e-7
    for j in range(3):
        dth = np.zeros(3)
        dth[j] = h
        p_plus = sp.dcm_from_euler(angles + dth)
        p_minus = sp.dcm_from_euler(angles - dth)
        p = sp.dcm_from_euler(angles)
        # Pdot = P [omega]x  =>  [omega]x = P^T Pdot
        omega_x = p.T @ (p_plus - p_minus) / (2 * h)
        omega = np.array([omega_x[2, 1], omega_x[0, 2], omega_x[1, 0]])
        np.testing.assert_allclose(omega, gamma[:, j], atol=1e-6)


def test_stacked_kinematics_equal_single_calls_bit_for_bit():
    """The oracle evaluates dcm_from_euler and euler_rate_map on (K, 3)
    stacks of states; each layer must be exactly the single-state call."""
    angles = np.random.default_rng(4).uniform(-1.2, 1.2, (7, 3))
    dcms = sp.dcm_from_euler(angles)
    gammas = sp.euler_rate_map(angles)
    assert dcms.shape == gammas.shape == (7, 3, 3)
    for a, d, g in zip(angles, dcms, gammas):
        assert np.array_equal(d, sp.dcm_from_euler(a))
        assert np.array_equal(g, sp.euler_rate_map(a))


def test_skew_is_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(sp.skew(a) @ b, np.cross(a, b), atol=1e-14)


def test_rodrigues_matches_scipy():
    axis = np.array([0.3, -0.5, 0.81])
    axis /= np.linalg.norm(axis)
    for theta in np.linspace(-3.0, 3.0, 7):
        np.testing.assert_allclose(
            sp.rotation_about_axis(axis, theta),
            Rotation.from_rotvec(theta * axis).as_matrix(),
            atol=1e-12,
        )


def test_tau_transport_duality():
    """Wrench transport is the transpose-dual of motion transport."""
    rng = np.random.default_rng(2)
    offset = rng.standard_normal(3)
    tau = sp.tau_matrix(offset)
    # structure: tau = [[I, skew(offset)], [0, I]]
    np.testing.assert_allclose(tau[:3, :3], np.eye(3), atol=1e-14)
    np.testing.assert_allclose(tau[:3, 3:], sp.skew(offset), atol=1e-14)
    np.testing.assert_allclose(tau[3:, 3:], np.eye(3), atol=1e-14)
    np.testing.assert_allclose(tau[3:, :3], np.zeros((3, 3)), atol=1e-14)
    # power invariance: w . (tau x') == (tau^T w) . x' for all pairs
    w = rng.standard_normal(6)
    xp = rng.standard_normal(6)
    np.testing.assert_allclose(w @ (tau @ xp), (tau.T @ w) @ xp, atol=1e-12)


def test_p2_blockdiag_of_dcm():
    d = sp.dcm_from_euler(np.array([0.2, -0.4, 0.9]))
    m = sp.p2_lft(d).evaluate({})
    np.testing.assert_allclose(m[:3, :3], d, atol=1e-14)
    np.testing.assert_allclose(m[3:, 3:], d, atol=1e-14)
    np.testing.assert_allclose(m[:3, 3:], 0 * m[:3, 3:], atol=1e-14)


# ---------------------------------------------------------------------------
# LFT counterparts agree with the numeric versions
# ---------------------------------------------------------------------------


def _half(name, nominal, lo, hi):
    return lft.HalfTanParam.from_angle(name, nominal, lo, hi)


def test_rotation_about_axis_lft_matches_rodrigues():
    axis = np.array([2.0, -1.0, 0.5])
    axis /= np.linalg.norm(axis)
    t = _half("th", 0.5, -1.2, 1.2)
    g = lft.rotation_about_axis(axis, t)
    assert g.occurrences(t.param.name) == 2
    for th in np.linspace(-1.2, 1.2, 9):
        np.testing.assert_allclose(
            g.evaluate({t.param.name: math.tan(th / 2)}),
            sp.rotation_about_axis(axis, th),
            atol=1e-12,
        )


def test_skew_and_tau_lft_match_numeric():
    p = lft.Param("L", 2.0, 1.0, 3.0, "design")
    v = np.array([0.0, lft.as_expr(p), 1.0], dtype=object)
    g = sp.skew_lft(v)
    tau = sp.tau_lft(v)
    for val in (1.0, 2.2, 3.0):
        num = sp.skew(np.array([0.0, val, 1.0]))
        np.testing.assert_allclose(g.evaluate({"L": val}), num, atol=1e-12)
        np.testing.assert_allclose(
            tau.evaluate({"L": val}),
            sp.tau_matrix(np.array([0.0, val, 1.0])),
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# numeric paths: input without Delta channels skips the LFT construction,
# and must give the coefficients that construction gives, bit for bit
# ---------------------------------------------------------------------------

# signed zeros, integers and wide magnitudes, where a path that computes
# differently would show
ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1, -3, 1e-300, 7.5e12]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
COLUMN = st.lists(ENTRY, min_size=3, max_size=3)


def _idle(x: lft.LftMatrix) -> lft.LftMatrix:
    """``x`` with one Delta channel that couples to nothing: the general
    construction then runs, and its A block is the value of ``x``."""
    m = np.zeros((x.rows + 1, x.cols + 1))
    m[: x.rows, : x.cols] = x.m
    return lft.LftMatrix(m, x.rows, x.cols, (lft.Param("idle", 0.0, -1.0, 1.0),))


def _lifted(entries) -> lft.LftMatrix:
    """The general lift: the block of each entry's 1x1 lift."""
    return lft.block([[lft.lift_scalar(e) for e in row] for row in entries])


def _same(fast: lft.LftMatrix, general: np.ndarray) -> None:
    assert fast.ndelta == 0
    assert np.array_equal(fast.m, general)
    # array_equal counts -0.0 == 0.0; the exported coefficients do not
    assert np.array_equal(np.signbit(fast.m), np.signbit(general))


@settings(max_examples=60, deadline=None)
@given(st.lists(COLUMN, min_size=1, max_size=4))
def test_lift_matrix_of_numbers_equals_the_general_lift(rows):
    _same(lft.lift_matrix(rows), _lifted(rows).m)
    col = [r[0] for r in rows]
    _same(sp.as_lft(col), _lifted([[v] for v in col]).m)


@settings(max_examples=60, deadline=None)
@given(COLUMN)
def test_skew_and_tau_of_a_constant_equal_the_general_construction(v):
    col = sp.as_lft(v)
    _same(sp.skew_lft(v), sp.skew_lft(_idle(col)).a)
    _same(sp.tau_lft(v), sp.tau_lft(_idle(col)).a)
    _same(sp.tau_lft(-col), sp.tau_lft(_idle(-col)).a)


@settings(max_examples=60, deadline=None)
@given(st.lists(ENTRY, min_size=12, max_size=12))
def test_constant_products_and_sums_equal_the_general_formulas(vals):
    x = lft.constant(np.reshape(vals[:6], (2, 3)))
    y = lft.constant(np.reshape(vals[6:], (3, 2)))
    _same(x @ y, (_idle(x) @ _idle(y)).a)
    _same(x @ y + x @ y, (_idle(x @ y) + _idle(x @ y)).a)
    _same(x.T - y, (_idle(x.T) - _idle(y)).a)


# body sizes whose D is symmetric to the 1e-12 that direct_dynamics_at_port
# asks of it
LENGTH = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1]), st.floats(-10.0, 10.0)),
    min_size=3,
    max_size=3,
)


@settings(max_examples=30, deadline=None)
@given(
    LENGTH,
    LENGTH,
    st.floats(0.0, 50.0),
    st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3),
)
def test_direct_dynamics_of_a_constant_body_equals_the_general_construction(
    cog, port, mass, diag
):
    body = RigidBody(
        name="b",
        mass=mass,
        inertia_cog=np.diag(diag),
        cog_offset=cog,
        ports=(("p", port),),
        dynamics_role=DynamicsRole.INVERSE,
    )
    for name in ("ref", "p"):
        offset = np.asarray(body.port_position(name), dtype=object) - body.cog_offset
        tau = sp.tau_lft(_idle(_lifted([[v] for v in offset])))
        m = _idle(lft.constant([[body.mass]]))
        d_cog = lft.blockdiag(
            [lft.blockdiag([m, m, m]), _idle(_lifted(body.inertia_cog))]
        )
        _same(direct_dynamics_at_port(body, name), (tau.T @ d_cog @ tau).a)
