"""Independent nonlinear evaluator and finite-difference linearization."""
import math
import pathlib
import time

import numpy as np
import pytest

from mblft import lft
from mblft.assembly import (
    ExternalForce,
    MultibodyModel,
    RootSpec,
    TrimError,
)
from mblft.bodies import BodyError, DynamicsRole, RigidBody
from mblft.joints import RevoluteJoint, RigidConnection
from mblft.modelfile import load_model
from mblft.oracle import FdConfig, NonlinearEvaluator, fd_linearize
from mblft.spatial import GimbalLockError, rot_z

from _chain import write_chain
from _frozen import freeze_model

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"
G = 9.81


def _pendulum(mass=1.0, length=1.0, friction=0.0, shaft=1e-10, accel=(0, 0, G)):
    bob = RigidBody(
        name="bob",
        mass=mass,
        inertia_cog=np.zeros((3, 3)),
        cog_offset=(0.0, 0.0, -length),
        dynamics_role=DynamicsRole.INVERSE,
    )
    pivot = RevoluteJoint(
        name="pivot",
        parent_port=("ground", "ref"),
        child_port=("bob", "ref"),
        axis=(1.0, 0.0, 0.0),
        angle_eq=0.0,
        friction=friction,
        shaft_inertia=shaft,
    )
    return MultibodyModel(
        name="pendulum",
        bodies=(bob,),
        connections=(pivot,),
        acceleration=tuple(float(v) for v in accel),
    )


# ---------------------------------------------------------------------------
# trim
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["pendulum.yaml", "two_link_arm.yaml", "balloon_planar.yaml"]
)
def test_trim_residual_vanishes(name):
    model = load_model(MODELS / name)
    ev = NonlinearEvaluator(model, {})
    x0 = np.zeros(2 * ev.nq)
    u0 = ev.trim_inputs()
    assert np.max(np.abs(ev.f(x0, u0))) <= 1e-9


def test_untrimmed_free_root_raises():
    from mblft.assembly import ExternalForce

    balloon = load_model(MODELS / "balloon_planar.yaml")
    lateral = ExternalForce(body="balloon", port="chain", force=(0.0, 50.0, 0.0))
    unbalanced = MultibodyModel(
        name="unbalanced",
        bodies=balloon.bodies,
        connections=balloon.connections,
        acceleration=balloon.acceleration,
        root=balloon.root,
        external_forces=balloon.external_forces + (lateral,),
        root_damping=balloon.root_damping,
    )
    ev = NonlinearEvaluator(unbalanced, {})
    with pytest.raises(TrimError, match="trim residual"):
        fd_linearize(ev, FdConfig())


# ---------------------------------------------------------------------------
# analytic small-angle pendulum
# ---------------------------------------------------------------------------


def test_pendulum_small_angle_acceleration():
    ev = NonlinearEvaluator(_pendulum(), {})
    theta = 1e-3
    x = np.array([0.0, theta])
    qdd = ev.accel(x, np.zeros(1))
    expected = -(G / 1.0) * theta
    assert abs(qdd[0] - expected) / abs(expected) <= 1e-3


def test_pendulum_large_angle_acceleration_exact():
    """qdd = -m g L sin(theta) / (m L^2 + J_shaft) for the point mass."""
    m, length, jj = 1.0, 0.8, 1e-10
    ev = NonlinearEvaluator(_pendulum(m, length, shaft=jj), {})
    for theta in (0.3, 1.0, -0.9):
        x = np.array([0.0, theta])
        qdd = ev.accel(x, np.zeros(1))
        expected = -m * G * length * math.sin(theta) / (m * length ** 2 + jj)
        assert abs(qdd[0] - expected) <= 1e-9


# ---------------------------------------------------------------------------
# energy consistency
# ---------------------------------------------------------------------------


def test_energy_conserved_along_undamped_flow():
    ev = NonlinearEvaluator(_pendulum(mass=2.0, length=0.7), {})
    x = np.array([0.3, 0.7])
    u = np.zeros(1)
    h = 1e-6
    fx = ev.f(x, u)
    de = (ev.energy(x + h * fx) - ev.energy(x - h * fx)) / (2 * h)
    scale = max(abs(ev.energy(x)), 1.0)
    assert abs(de) / scale <= 1e-8


def test_energy_rate_equals_injected_power():
    ev = NonlinearEvaluator(_pendulum(mass=2.0, length=0.7), {})
    x = np.array([0.4, -0.2])
    u = np.array([1.3])  # joint torque
    h = 1e-6
    fx = ev.f(x, u)
    de = (ev.energy(x + h * fx) - ev.energy(x - h * fx)) / (2 * h)
    power = float(u[0] * x[0])  # torque times joint rate
    assert abs(de - power) <= 1e-6 * max(abs(power), 1.0)


def test_arm_energy_conserved_along_flow():
    model = load_model(MODELS / "two_link_arm.yaml")
    ev = NonlinearEvaluator(model, {})
    x = np.array([0.2, -0.3, 0.1, 0.25])
    u = np.zeros(2)
    h = 1e-6
    fx = ev.f(x, u)
    de = (ev.energy(x + h * fx) - ev.energy(x - h * fx)) / (2 * h)
    assert abs(de) / max(abs(ev.energy(x)), 1.0) <= 1e-8


# ---------------------------------------------------------------------------
# finite-difference quality
# ---------------------------------------------------------------------------


def test_fd_exact_for_linear_system():
    """With zero frame acceleration the pendulum is a double integrator
    (in the torque channel) and central FD is exact up to round-off."""
    ev = NonlinearEvaluator(_pendulum(accel=(0, 0, 0)), {})
    a, b = fd_linearize(ev, FdConfig())
    np.testing.assert_allclose(a, [[0.0, 0.0], [1.0, 0.0]], atol=1e-9)
    np.testing.assert_allclose(b, [[1.0 / (1.0 * 1.0 ** 2)], [0.0]], atol=1e-7)


def test_richardson_ratio_of_central_scheme():
    """Halving the step divides the truncation error by ~4.  One evaluator
    takes both steps, so each step scale must get its own rows from the
    model's plan (with one shared set, the ratio would be 1)."""
    m, length, jj = 1.0, 1.0, 1e-10
    ev = NonlinearEvaluator(_pendulum(m, length, shaft=jj), {})
    exact = -m * G * length / (m * length ** 2 + jj)

    def err(scale):
        a, _ = fd_linearize(ev, FdConfig(scale=scale))
        return abs(a[0, 1] - exact)

    ratio = err(2e-3) / err(1e-3)
    assert 3.5 <= ratio <= 4.5


def test_fd_matches_lft_on_random_arm_point():
    from mblft.assembly import assemble, sample_model

    model = load_model(MODELS / "two_link_arm.yaml")
    lm = assemble(model)
    pt = {"t_t1": math.tan(math.radians(70) / 2),
          "t_t2": math.tan(math.radians(110) / 2),
          "m1": 3.1, "m3": 4.5, "L2": 1.05}
    ev = NonlinearEvaluator(model, pt)
    a_fd, b_fd = fd_linearize(ev, FdConfig())
    a, b, _, _ = sample_model(lm, pt)
    assert np.linalg.norm(a - a_fd) / np.linalg.norm(a_fd) <= 1e-6
    assert np.linalg.norm(b - b_fd) / np.linalg.norm(b_fd) <= 1e-6


# ---------------------------------------------------------------------------
# stacked evaluation
# ---------------------------------------------------------------------------


def _wrench_model():
    """A free root (all six DOF, balanced by a lift force) carrying a hinged
    arm with an oblique axis, and a tool fixed to the arm's tip through a
    rotated rigid connection; inputs are the joint torque and a wrench at the
    tool's grip.  Every CoG lies on the vertical through the lift port, so
    the model is trimmed.  The hull's mass, the lift port's height and the
    grip's offset are parameters."""
    hull = RigidBody(
        name="hull",
        mass=lft.Param("m_hull", 4.0, 3.5, 4.5, "uncertain"),
        inertia_cog=np.diag([0.5, 0.6, 0.4]),
        cog_offset=(0.0, 0.0, 0.0),
        ports=(
            ("lift", (0.0, 0.0, lft.Param("z_lift", 0.5, 0.3, 0.7, "uncertain"))),
            ("hinge", (0.0, 0.0, -1.0)),
        ),
    )
    arm = RigidBody(
        name="arm",
        mass=1.5,
        inertia_cog=np.diag([0.2, 0.3, 0.1]),
        cog_offset=(0.0, 0.0, -0.5),
        ports=(("tip", (0.0, 0.0, -1.0)),),
        dynamics_role=DynamicsRole.INVERSE,
    )
    tool = RigidBody(
        name="tool",
        mass=0.7,
        inertia_cog=np.diag([0.05, 0.04, 0.03]),
        cog_offset=(0.0, 0.0, -0.2),
        ports=(("grip", (lft.Param("x_grip", 0.1, 0.05, 0.15, "uncertain"), 0.0, -0.3)),),
        dynamics_role=DynamicsRole.INVERSE,
    )
    return MultibodyModel(
        name="wrench",
        bodies=(hull, arm, tool),
        connections=(
            RevoluteJoint(
                name="hinge",
                parent_port=("hull", "hinge"),
                child_port=("arm", "ref"),
                axis=(0.6, 0.8, 0.0),
                friction=0.3,
            ),
            RigidConnection(
                name="mount",
                parent_port=("arm", "tip"),
                child_port=("tool", "ref"),
                fixed_dcm=rot_z(0.7),
            ),
        ),
        acceleration=(0.0, 0.0, G),
        root=RootSpec("free"),
        external_forces=(ExternalForce("hull", "lift", balance_weight=True),),
        root_damping=np.diag([0.0, 0.0, 0.0, 2.0, 0.0, 0.0]),
        inputs=(("torque", "hinge"), ("wrench", "tool", "grip")),
    )


def _pushed_pendulum():
    """A pendulum whose mass, push-point height and horizontal push are
    parameters: a force vector and its port both depend on the point."""
    bob = RigidBody(
        name="bob",
        mass=lft.Param("m_bob", 1.0, 0.5, 1.5, "uncertain"),
        inertia_cog=np.diag([0.02, 0.02, 0.01]),
        cog_offset=(0.0, 0.0, -1.0),
        ports=(("push", (0.0, 0.0, lft.Param("z_push", -0.8, -1.0, -0.5, "uncertain"))),),
        dynamics_role=DynamicsRole.INVERSE,
    )
    pivot = RevoluteJoint(
        name="pivot", parent_port=("ground", "ref"), child_port=("bob", "ref"),
        axis=(1.0, 0.0, 0.0), friction=0.1,
    )
    push = lft.Ref(lft.Param("f_push", 2.0, 1.0, 3.0, "uncertain"))
    return MultibodyModel(
        name="pushed_pendulum", bodies=(bob,), connections=(pivot,),
        acceleration=(0.0, 0.0, G),
        external_forces=(ExternalForce("bob", "push", (0.0, push, 0.0)),),
    )


def _model(name):
    if name == "wrench":
        return _wrench_model()
    if name == "pushed":
        return _pushed_pendulum()
    return load_model(MODELS / name)


def _evaluator(name):
    return NonlinearEvaluator(_model(name), {})


STACK_MODELS = ["pendulum.yaml", "two_link_arm.yaml", "balloon_planar.yaml", "wrench"]


def _random_stack(ev, k, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(-0.5, 0.5, (k, 2 * ev.nq)),
        rng.standard_normal((k, ev.nu_in)),
        rng.standard_normal((k, ev.nq)),
    )


def _close(got, want, rtol=1e-14):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("name", STACK_MODELS)
def test_stack_equals_rows_alone(name):
    ev = _evaluator(name)
    x, u, nudot = _random_stack(ev, 6, seed=7)
    _close(ev.residual(x, u, nudot),
           np.array([ev.residual(*row) for row in zip(x, u, nudot)]))
    _close(ev.f(x, u), np.array([ev.f(*row) for row in zip(x, u)]))
    _close(ev.energy(x), np.array([ev.energy(row) for row in x]))


@pytest.mark.parametrize("name", STACK_MODELS)
def test_permuting_the_stack_permutes_the_outputs(name):
    ev = _evaluator(name)
    x, u, nudot = _random_stack(ev, 6, seed=8)
    perm = np.random.default_rng(9).permutation(6)
    _close(ev.residual(x[perm], u[perm], nudot[perm]), ev.residual(x, u, nudot)[perm])
    _close(ev.f(x[perm], u[perm]), ev.f(x, u)[perm])


@pytest.mark.parametrize("name", STACK_MODELS)
def test_one_row_in_gives_one_row_out(name):
    ev = _evaluator(name)
    x, u, nudot = (a[0] for a in _random_stack(ev, 1, seed=10))
    assert ev.residual(x, u, nudot).shape == (ev.nq,)
    assert ev.accel(x, u).shape == (ev.nq,)
    assert ev.f(x, u).shape == (2 * ev.nq,)
    assert isinstance(ev.energy(x), float)
    _close(ev.f(x, u), ev.f(x[None], u[None])[0])


@pytest.mark.parametrize("name", STACK_MODELS)
def test_fd_linearize_matches_columnwise_central_differences(name):
    ev = _evaluator(name)
    cfg = FdConfig()
    x0, u0 = np.zeros(2 * ev.nq), ev.trim_inputs()

    def column(f, z0, i):
        h = cfg.scale * max(1.0, abs(z0[i]))
        dz = np.zeros(len(z0))
        dz[i] = h
        return (f(z0 + dz) - f(z0 - dz)) / (2.0 * h)

    a_ref = np.column_stack(
        [column(lambda x: ev.f(x, u0), x0, i) for i in range(len(x0))]
    )
    b_ref = np.column_stack(
        [column(lambda u: ev.f(x0, u), u0, i) for i in range(len(u0))]
    )
    a, b = fd_linearize(ev, cfg)
    assert np.linalg.norm(a - a_ref) <= 1e-8 * np.linalg.norm(a_ref)
    assert np.linalg.norm(b - b_ref) <= 1e-8 * np.linalg.norm(b_ref)


def _point_mass_arm():
    """Two hinges about x carrying one point mass: the mass matrix is singular
    when the arm is stretched (theta2 = 0) and regular when it is bent."""
    link1 = RigidBody(
        name="link1",
        mass=0.0,
        inertia_cog=np.zeros((3, 3)),
        cog_offset=(0.0, 0.0, 0.0),
        ports=(("tip", (0.0, 1.0, 0.0)),),
        dynamics_role=DynamicsRole.INVERSE,
    )
    link2 = RigidBody(
        name="link2",
        mass=1.0,
        inertia_cog=np.zeros((3, 3)),
        cog_offset=(0.0, 1.0, 0.0),
        dynamics_role=DynamicsRole.INVERSE,
    )
    joints = tuple(
        RevoluteJoint(
            name=name, parent_port=parent, child_port=(child, "ref"),
            axis=(1.0, 0.0, 0.0), shaft_inertia=1e-15,
        )
        for name, parent, child in (
            ("j1", ("ground", "ref"), "link1"), ("j2", ("link1", "tip"), "link2")
        )
    )
    return MultibodyModel(
        name="point_mass_arm", bodies=(link1, link2), connections=joints,
        acceleration=(0.0, 0.0, G),
    )


def test_one_singular_row_fails_the_stack():
    ev = NonlinearEvaluator(_point_mass_arm(), {})
    # rows [thetadot1, thetadot2, theta1, theta2]
    bent = np.array([[0.1, 0.0, 0.2, 0.5], [0.0, 0.3, -0.4, -1.0], [0.0, 0.0, 1.0, 2.0]])
    u = np.zeros((3, 2))
    assert np.all(np.isfinite(ev.accel(bent, u)))
    stretched = np.array([0.0, 0.0, 0.3, 0.0])
    with pytest.raises(TrimError):
        ev.accel(np.insert(bent, 1, stretched, axis=0), np.zeros((4, 2)))
    with pytest.raises(TrimError):
        ev.f(np.insert(bent, 3, stretched, axis=0), np.zeros((4, 2)))


def test_singular_mass_at_the_equilibrium_fails_fd_linearize():
    """The stretched point-mass arm is singular at x0: its rows fail the
    mass-matrix gate inside fd_linearize's one residual stack."""
    ev = NonlinearEvaluator(_point_mass_arm(), {})
    with pytest.raises(TrimError, match="singular mass matrix"):
        fd_linearize(ev, FdConfig())


def test_one_row_at_gimbal_lock_fails_the_stack():
    ev = _evaluator("wrench")
    x, u, _ = _random_stack(ev, 4, seed=11)
    ev.f(x, u)
    # chi = [position (3), Euler angles (3), joint angle]; the pitch is chi[4]
    x[2, ev.nq + 4] = np.pi / 2
    with pytest.raises(GimbalLockError):
        ev.f(x, u)


# ---------------------------------------------------------------------------
# evaluation at a parameter point
# ---------------------------------------------------------------------------


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", STACK_MODELS + ["pushed"])
def test_evaluator_at_a_point_equals_the_frozen_model(name):
    """Evaluating each constant at the point gives bit for bit what the
    model frozen at that point gives: joint angles, masses, inertias, CoG
    offsets, port positions, force vectors and the balance weight."""
    model = _model(name)
    box = model.parameters()
    rng = np.random.default_rng(41)
    for i in range(3):
        pt = {n: float(rng.uniform(p.lower, p.upper)) for n, p in box.items()}
        ev = NonlinearEvaluator(model, pt)
        ref = NonlinearEvaluator(freeze_model(model, pt), {})
        x, u, nudot = _random_stack(ev, 5, seed=50 + i)
        _same_bits(ev.residual(x, u, nudot), ref.residual(x, u, nudot))
        _same_bits(ev.f(x, u), ref.f(x, u))
        _same_bits(ev.energy(x), ref.energy(x))
        for got, want in zip(fd_linearize(ev), fd_linearize(ref)):
            _same_bits(got, want)


@pytest.mark.parametrize(
    "point", [{"m1": -1.0}, {"m1": math.nan}, {"J1": -5.0}, {"L2": math.inf}]
)
def test_evaluator_applies_the_body_rules_at_the_point(point):
    """A point where a body's mass is negative or NaN, its inertia is not
    positive semidefinite or a port is not finite is rejected, and the
    message names the point."""
    model = load_model(MODELS / "two_link_arm.yaml")
    with pytest.raises(BodyError) as err:
        NonlinearEvaluator(model, point)
    name, value = next(iter(point.items()))
    assert f"'{name}': {value}" in str(err.value)


def test_evaluator_builds_no_frozen_model(monkeypatch):
    """Evaluators of one model object never build a model (no frozen copy),
    and build its plan, which reads the parameter registry, once between
    them."""
    from mblft import oracle

    model = load_model(MODELS / "two_link_arm.yaml")
    calls = {"model": 0, "parameters": 0, "plan": 0}
    post_init, parameters = MultibodyModel.__post_init__, MultibodyModel.parameters
    plan_init = oracle._Plan.__init__

    def counted_post_init(self):
        calls["model"] += 1
        post_init(self)

    def counted_parameters(self):
        calls["parameters"] += 1
        return parameters(self)

    def counted_plan(self, *args):
        calls["plan"] += 1
        plan_init(self, *args)

    monkeypatch.setattr(MultibodyModel, "__post_init__", counted_post_init)
    monkeypatch.setattr(MultibodyModel, "parameters", counted_parameters)
    monkeypatch.setattr(oracle._Plan, "__init__", counted_plan)
    for m1 in (3.1, 2.9, 3.0, 3.05, 2.95):
        fd_linearize(NonlinearEvaluator(model, {"m1": m1, "t_t2": 0.8}))
    assert calls == {"model": 0, "parameters": 1, "plan": 1}


def test_evaluator_rejects_undeclared_parameter_names():
    """A point naming a parameter the model does not declare (here the
    YAML's angle name t1, where the model's parameter is t_t1) is rejected
    rather than evaluated at the nominal angle."""
    model = load_model(MODELS / "two_link_arm.yaml")
    with pytest.raises(lft.EvaluationError, match=r"unknown parameter\(s\) \['t1'\]") as err:
        NonlinearEvaluator(model, {"t1": 60.0, "m1": 3.1})
    assert "known: ['J1', 'L2', 'm1', 'm3', 'rho1', 't_t1', 't_t2']" in str(err.value)


def _arm_with_m1_nominal(tmp_path, nominal):
    text = (MODELS / "two_link_arm.yaml").read_text()
    old = "m1:   {kind: uncertain, nominal: 3.0,"
    assert old in text
    path = tmp_path / "arm_m1.yaml"
    path.write_text(text.replace(old, f"m1:   {{kind: uncertain, nominal: {nominal},"))
    return load_model(path)


def test_evaluators_of_several_models_each_use_their_own_plan(tmp_path):
    """Evaluators built in turn for the arm, the balloon and the arm with
    another m1 nominal give A and B bit for bit as an evaluator that is the
    first of its model object (and so builds that object's plan) does."""
    def models():
        return {
            "arm": load_model(MODELS / "two_link_arm.yaml"),
            "balloon": load_model(MODELS / "balloon_planar.yaml"),
            "arm_m1": _arm_with_m1_nominal(tmp_path, 3.12),
        }

    shared = models()
    rng = np.random.default_rng(61)
    points = {
        name: [{}, {n: float(rng.uniform(p.lower, p.upper))
                    for n, p in model.parameters().items()}]
        for name, model in shared.items()
    }
    want = {
        (name, i): fd_linearize(NonlinearEvaluator(model, pt))
        for name, model in models().items()
        for i, pt in enumerate(points[name])
    }
    assert not np.array_equal(want["arm", 0][0], want["arm_m1", 0][0])
    for _ in range(2):
        for i in range(2):
            for name, model in shared.items():
                got = fd_linearize(NonlinearEvaluator(model, points[name][i]))
                for g, w in zip(got, want[name, i]):
                    _same_bits(g, w)


def test_plan_lives_and_dies_with_its_model():
    """A dropped model is freed with its plan, and a new model object gets
    a plan of its own even where it takes the dropped model's id."""
    import gc
    import weakref

    base = _pendulum()
    model = MultibodyModel(name="p", bodies=base.bodies,
                           connections=base.connections, acceleration=(0, 0, G))
    NonlinearEvaluator(model, {})
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None

    reused = False
    for i in range(50):
        model = MultibodyModel(name="p", bodies=base.bodies,
                               connections=base.connections, acceleration=(0, 0, G))
        NonlinearEvaluator(model, {})  # builds the model's plan
        old = id(model)
        del model  # freed at once: nothing else holds it
        g = 1.0 + i
        model = MultibodyModel(name="p", bodies=base.bodies,
                               connections=base.connections, acceleration=(0, 0, g))
        reused |= id(model) == old
        a, _ = fd_linearize(NonlinearEvaluator(model, {}))
        assert a[0, 1] == pytest.approx(-g / (1.0 + 1e-10), rel=1e-6)
        del model
    assert reused


# ---------------------------------------------------------------------------
# whole-box accuracy
# ---------------------------------------------------------------------------


def test_balloon_lft_matches_oracle_over_its_box():
    """The balloon's assembled A and B equal the oracle's finite-difference
    linearization to 1e-6 at the nominal point, 8 interior points and 8
    vertices of its 7-parameter box, within 2 s."""
    from mblft.assembly import assemble, sample_model

    t0 = time.perf_counter()
    model = load_model(MODELS / "balloon_planar.yaml")
    lm = assemble(model)
    rng = np.random.default_rng(2026)
    box = lm.parameters
    corners = rng.choice(2 ** len(box), size=8, replace=False)
    points = [{}]
    points += [{n: float(rng.uniform(p.lower, p.upper)) for n, p in box.items()}
               for _ in range(8)]
    points += [
        {n: float(p.upper if (c >> i) & 1 else p.lower)
         for i, (n, p) in enumerate(box.items())}
        for c in corners
    ]
    worst = 0.0
    for pt in points:
        a, b, _, _ = sample_model(lm, pt)
        a_fd, b_fd = fd_linearize(NonlinearEvaluator(model, pt), FdConfig())
        worst = max(worst, np.linalg.norm(a - a_fd) / np.linalg.norm(a_fd),
                    np.linalg.norm(b - b_fd) / np.linalg.norm(b_fd))
    elapsed = time.perf_counter() - t0
    assert len(box) == 7 and len(points) == 17
    assert worst <= 1e-6
    assert elapsed <= 2.0, f"{elapsed:.2f} s"


def test_arm_lft_matches_oracle_over_its_box():
    """The arm's assembled A and B equal the oracle's finite-difference
    linearization to 1e-6 at the nominal point, 8 interior points and 8
    vertices of its 7-parameter box, within 2 s."""
    from mblft.assembly import assemble, sample_model

    t0 = time.perf_counter()
    model = load_model(MODELS / "two_link_arm.yaml")
    lm = assemble(model)
    rng = np.random.default_rng(2027)
    box = lm.parameters
    corners = rng.choice(2 ** len(box), size=8, replace=False)
    points = [{}]
    points += [{n: float(rng.uniform(p.lower, p.upper)) for n, p in box.items()}
               for _ in range(8)]
    points += [
        {n: float(p.upper if (c >> i) & 1 else p.lower)
         for i, (n, p) in enumerate(box.items())}
        for c in corners
    ]
    worst = 0.0
    for pt in points:
        a, b, _, _ = sample_model(lm, pt)
        a_fd, b_fd = fd_linearize(NonlinearEvaluator(model, pt), FdConfig())
        worst = max(worst, np.linalg.norm(a - a_fd) / np.linalg.norm(a_fd),
                    np.linalg.norm(b - b_fd) / np.linalg.norm(b_fd))
    elapsed = time.perf_counter() - t0
    assert len(box) == 7 and len(points) == 17
    assert worst <= 1e-6
    assert elapsed <= 2.0, f"{elapsed:.2f} s"


def test_chain_lft_matches_oracle_over_its_box(tmp_path):
    """The 4-link chain's assembled A and B equal the oracle's
    finite-difference linearization to 1e-6 at the nominal point, 8
    interior points and 8 vertices of its 8-parameter box."""
    from mblft.assembly import assemble, sample_model

    model = load_model(write_chain(tmp_path, 4))
    lm = assemble(model)
    rng = np.random.default_rng(2028)
    box = lm.parameters
    corners = rng.choice(2 ** len(box), size=8, replace=False)
    points = [{}]
    points += [{n: float(rng.uniform(p.lower, p.upper)) for n, p in box.items()}
               for _ in range(8)]
    points += [
        {n: float(p.upper if (c >> i) & 1 else p.lower)
         for i, (n, p) in enumerate(box.items())}
        for c in corners
    ]
    worst = 0.0
    for pt in points:
        a, b, _, _ = sample_model(lm, pt)
        a_fd, b_fd = fd_linearize(NonlinearEvaluator(model, pt), FdConfig())
        worst = max(worst, np.linalg.norm(a - a_fd) / np.linalg.norm(a_fd),
                    np.linalg.norm(b - b_fd) / np.linalg.norm(b_fd))
    assert len(box) == 8 and len(points) == 17
    assert worst <= 1e-6


BALLOON_WRENCH_INPUTS = """
io:
  inputs:
    - {torque: J11}
    - {wrench: link6.bottom}
    - {wrench: telescope.ref}
    - {wrench: ballast.ref}
"""


def _balloon_with_wrench_inputs(tmp_path):
    path = tmp_path / "balloon_io.yaml"
    path.write_text((MODELS / "balloon_planar.yaml").read_text() + BALLOON_WRENCH_INPUTS)
    return load_model(path)


def test_balloon_wrench_inputs_match_oracle(tmp_path):
    """Wrench inputs deep in the balloon's masked free-root chain: A and B
    equal the oracle's finite-difference linearization to 1e-6 at the
    nominal point and 4 interior points, and B keeps its Delta counts."""
    from mblft.assembly import assemble, sample_model

    model = _balloon_with_wrench_inputs(tmp_path)
    lm = assemble(model)
    assert len(lm.input_names) == 1 + 3 * 6
    rng = np.random.default_rng(2028)
    points = [{}] + [
        {n: float(rng.uniform(p.lower, p.upper)) for n, p in lm.parameters.items()}
        for _ in range(4)
    ]
    for pt in points:
        a, b, _, _ = sample_model(lm, pt)
        a_fd, b_fd = fd_linearize(NonlinearEvaluator(model, pt), FdConfig())
        assert np.linalg.norm(a - a_fd) <= 1e-6 * np.linalg.norm(a_fd), pt
        assert np.linalg.norm(b - b_fd) <= 1e-6 * np.linalg.norm(b_fd), pt
    ceiling = {"J0": 1, "J10": 1, "J12": 1, "m0": 1, "m11": 1, "rho0": 2, "l6": 4}
    counts = dict(lm.b.delta_structure)
    assert set(counts) <= set(ceiling)
    assert all(counts[n] <= ceiling[n] for n in counts), counts


# ---------------------------------------------------------------------------
# one residual pass per linearization
# ---------------------------------------------------------------------------


def _two_call_fd(ev, cfg):
    """fd_linearize as two residual passes, each over the unit-acceleration
    stack of its rows, with the torques inside ``residual``: the first pass
    with every input at 0 gives the trim torques u0 from its base row, the
    second runs with u0 and u0 +/- h applied, and each row's mass matrix is
    solved here.  Both passes have the shape of fd_linearize's one pass, so
    each array operation takes the same code path (a one-row residual may
    round differently from a stacked one, as BLAS may pick another kernel)."""
    nq, n2, nu = ev.nq, 2 * ev.nq, ev.nu_in
    x0 = np.zeros(n2)
    hx = cfg.scale * np.maximum(1.0, np.abs(x0))
    dx = np.diag(hx)
    xs = np.vstack([x0, x0 + dx, x0 - dx, np.tile(x0, (2 * nu, 1))])
    unit = np.tile(np.vstack([np.zeros(nq), np.eye(nq)]), (len(xs), 1))

    def stack(us):
        r = ev.residual(np.repeat(xs, nq + 1, axis=0), np.repeat(us, nq + 1, axis=0), unit)
        return r.reshape(len(xs), nq + 1, nq)

    r0 = stack(np.zeros((len(xs), nu)))[0, 0]
    u0 = np.zeros(nu)
    for key, col in ev.input_cols.items():
        if key[0] == "torque":
            u0[col] = r0[ev.k + ev.joint_index[key[1]]]
    hu = cfg.scale * np.maximum(1.0, np.abs(u0))
    du = np.diag(hu)
    us = np.vstack([np.tile(u0, (1 + 2 * n2, 1)), u0 + du, u0 - du])
    r = stack(us)
    m = np.swapaxes(r[:, 1:] - r[:, :1], 1, 2)
    nudot = np.linalg.solve(m, -r[:, 0, :, None])[..., 0]
    fs = np.concatenate([nudot, ev.f(xs, us)[:, nq:]], axis=1)
    assert np.max(np.abs(fs[0])) <= cfg.trim_tol
    fx, fu = fs[1 : 1 + 2 * n2], fs[1 + 2 * n2 :]
    return u0, (
        ((fx[:n2] - fx[n2:]) / (2.0 * hx)[:, None]).T,
        ((fu[:nu] - fu[nu:]) / (2.0 * hu)[:, None]).T,
    )


@pytest.mark.parametrize("name", STACK_MODELS + ["balloon_io"])
def test_fd_linearize_equals_the_two_call_reference(name, tmp_path):
    """Applying the torques after the one residual pass changes no bit of A
    or B, at the nominal point and 3 seeded points of the box; the trim
    torques read from a stack are ``trim_inputs``' to rounding."""
    model = (
        _balloon_with_wrench_inputs(tmp_path) if name == "balloon_io" else _model(name)
    )
    rng = np.random.default_rng(12)
    points = [{}] + [
        {n: float(rng.uniform(p.lower, p.upper)) for n, p in model.parameters().items()}
        for _ in range(3)
    ]
    cfg = FdConfig()
    for pt in points:
        ev = NonlinearEvaluator(model, pt)
        u0, want = _two_call_fd(ev, cfg)
        for got, w in zip(fd_linearize(ev, cfg), want):
            _same_bits(got, w)
        assert np.allclose(u0, ev.trim_inputs(), rtol=1e-14, atol=1e-12)


@pytest.mark.parametrize("name", STACK_MODELS)
def test_fd_linearize_makes_one_residual_call(name, monkeypatch):
    ev = _evaluator(name)
    calls = []
    residual = NonlinearEvaluator.residual

    def counted(self, *args):
        calls.append(len(args[0]))
        return residual(self, *args)

    monkeypatch.setattr(NonlinearEvaluator, "residual", counted)
    fd_linearize(ev, FdConfig())
    n2 = 2 * ev.nq
    assert calls == [(1 + 2 * n2 + 2 * ev.nu_in) * (ev.nq + 1)]
