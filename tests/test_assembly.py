"""Whole-model assembly: equilibrium, linearization, sampling, reduction."""
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mblft import assembly, lft
from mblft.assembly import (
    AssemblyError,
    ExternalForce,
    MultibodyModel,
    RootSpec,
    TrimError,
    assemble,
    modes,
    sample_model,
    sample_point,
)
from mblft.bodies import DynamicsRole, RigidBody
from mblft.joints import RevoluteJoint
from mblft.modelfile import load_model

from _chain import write_chain
from _frozen import freeze_model
from test_oracle import BALLOON_WRENCH_INPUTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"
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
# analytic pendulum
# ---------------------------------------------------------------------------


def test_pendulum_undamped_eigenvalues():
    lm = assemble(_pendulum())
    lam = np.linalg.eigvals(sample_model(lm, {})[0])
    lam = sorted(lam, key=lambda z: z.imag)
    w0 = math.sqrt(G / 1.0)
    assert abs(lam[0] - (-1j * w0)) / w0 <= 1e-9
    assert abs(lam[1] - (+1j * w0)) / w0 <= 1e-9


def test_pendulum_damped_closed_form():
    m, length, kj, jj = 2.0, 0.7, 0.4, 1e-8
    lm = assemble(_pendulum(m, length, friction=kj, shaft=jj))
    lam = np.linalg.eigvals(sample_model(lm, {})[0])
    inertia = m * length ** 2 + jj
    roots = np.roots([inertia, kj, m * G * length])
    np.testing.assert_allclose(
        sorted(lam, key=lambda z: z.imag),
        sorted(roots, key=lambda z: z.imag),
        atol=1e-9,
    )


def test_pendulum_torque_gain():
    """B maps joint torque to angular acceleration 1/(m L^2)."""
    m, length = 2.0, 0.7
    lm = assemble(_pendulum(m, length))
    b = sample_model(lm, {})[1]
    np.testing.assert_allclose(b[0, 0], 1.0 / (m * length ** 2), rtol=1e-9)
    np.testing.assert_allclose(b[1, 0], 0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["two_link_arm.yaml", "balloon_planar.yaml"])
def test_assemble_builds_shared_lfts_once(name, monkeypatch):
    """One ``assemble`` builds each revolute joint's DCM and each body's
    direct dynamics once: steps 2 and 3 read them from step 1's context."""
    from mblft import assembly

    model = load_model(MODELS / name)
    built: dict[str, list] = {"dcm": [], "dyn": []}
    dcm_lft, dyn = assembly.revolute_dcm_lft, assembly.direct_dynamics_at_port

    def counted_dcm(joint):
        built["dcm"].append(joint.name)
        return dcm_lft(joint)

    def counted_dyn(body, port="ref"):
        built["dyn"].append(body.name)
        return dyn(body, port)

    monkeypatch.setattr(assembly, "revolute_dcm_lft", counted_dcm)
    monkeypatch.setattr(assembly, "direct_dynamics_at_port", counted_dyn)
    assemble(model)
    joints = [c.name for c in model.connections if isinstance(c, RevoluteJoint)]
    assert sorted(built["dcm"]) == sorted(joints)
    assert sorted(built["dyn"]) == sorted(b.name for b in model.bodies)


# ---------------------------------------------------------------------------
# the arm model: equilibrium values with hand-computed oracles
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def arm():
    return load_model(MODELS / "two_link_arm.yaml")


@pytest.fixture(scope="module")
def arm_lm(arm):
    return assemble(arm)


def test_arm_order_and_names(arm_lm):
    assert arm_lm.order == 4
    assert arm_lm.state_names == (
        "shoulder.thetadot",
        "elbow.thetadot",
        "shoulder.theta",
        "elbow.theta",
    )
    assert arm_lm.input_names == ("shoulder.Cm", "elbow.Cm")


def test_parameters_gives_each_caller_its_own_registry(arm):
    """The registry is built once per model, and a caller that edits the
    dict it gets changes no other caller's."""
    reg = arm.parameters()
    assert set(reg) == {"J1", "L2", "m1", "m3", "rho1", "t_t1", "t_t2"}
    reg.clear()
    assert arm.parameters() is not reg and len(arm.parameters()) == 7


def test_arm_equilibrium_torques(arm_lm):
    """Nominal: link1 vertical, link2 horizontal (-y).

    Elbow torque balances the gravity moment of link2 + payload:
    -(m2 rho2 + m3 L2) g.  The shoulder sees the same lever arms (link1 is
    vertical, so it adds no moment).
    """
    joints = arm_lm.equilibrium.report()["joints"]
    expected = -(2.0 * 0.5 + 5.0 * 1.0) * G
    assert abs(joints["elbow"]["torque"] - expected) <= 1e-9
    assert abs(joints["shoulder"]["torque"] - expected) <= 1e-9


def test_arm_root_reaction_supports_total_weight(arm_lm):
    r = np.asarray(arm_lm.equilibrium.root_reaction.nominal).ravel()
    assert abs(r[2] - 10.0 * G) <= 1e-9  # m1 + m2 + m3 = 10 kg
    assert abs(r[0]) <= 1e-9 and abs(r[1]) <= 1e-9


def test_arm_parameter_registry(arm_lm):
    assert set(arm_lm.parameters) == {
        "m1", "J1", "rho1", "L2", "m3", "t_t1", "t_t2"
    }


# ---------------------------------------------------------------------------
# sampling vs frozen re-assembly
# ---------------------------------------------------------------------------


def test_sample_matches_frozen_reassembly(arm, arm_lm):
    rng = np.random.default_rng(42)
    for _ in range(5):
        pt = sample_point(arm_lm.parameters, rng)
        a, b, _, _ = sample_model(arm_lm, pt)
        frozen = assemble(freeze_model(arm, pt))
        a2, b2, _, _ = sample_model(frozen, {})
        assert np.linalg.norm(a - a2) / np.linalg.norm(a2) <= 1e-8
        assert np.linalg.norm(b - b2) / np.linalg.norm(b2) <= 1e-8


def test_strict_sampling_rejects_out_of_bounds(arm_lm):
    with pytest.raises(lft.EvaluationError):
        sample_model(arm_lm, {"m1": 100.0}, strict=True)
    sample_model(arm_lm, {"m1": 100.0}, strict=False)  # extrapolates quietly


def test_sampling_rejects_undeclared_parameter_names(arm_lm):
    """The YAML's angle names t1 and t2 are not the LFT's t_t1 and t_t2: a
    point naming them is rejected, with the first bad point's index, rather
    than sampled at the nominal angles."""
    with pytest.raises(lft.EvaluationError, match=r"unknown parameter\(s\) \['t1'\]") as err:
        sample_model(arm_lm, {"t1": 60.0})
    assert err.value.index == 0
    assert "known: ['J1', 'L2', 'm1', 'm3', 'rho1', 't_t1', 't_t2']" in str(err.value)
    points = [{"m1": 3.0}, {"t_t1": 0.9}, {"t2": 1.0, "x": 0.0}, {"t1": 60.0}]
    with pytest.raises(lft.EvaluationError, match=r"\['t2', 'x'\]") as err:
        sample_model(arm_lm, points)
    assert err.value.index == 2


def test_sampling_reports_the_earliest_failing_point():
    """A = 1/(k-3) fails at k = 3 and B = 1/(k-2) at k = 2: over the points
    k = 2, k = 3 the error is B's at index 0, the one a point-by-point loop
    over A, B, C, D raises first, not A's at index 1."""
    k = lft.Param("k", 2.5, 1.0, 4.0, "uncertain")
    one = lft.constant([[1.0]])
    lm = assembly.LinearLftModel(
        a=lft.lift_scalar(1 / (lft.Ref(k) - 3)),
        b=lft.lift_scalar(1 / (lft.Ref(k) - 2)),
        c=one, d=one,
        state_names=("x",), input_names=("u",), output_names=("x",),
        parameters={"k": k}, equilibrium=None,
    )
    with pytest.raises(lft.EvaluationError, match="ill-posed") as err:
        sample_model(lm, [{"k": 2.0}, {"k": 3.0}])
    assert err.value.index == 0
    a, b, c, d = sample_model(lm, [{"k": 1.0}, {}])
    np.testing.assert_array_equal(a[:, 0, 0], [-0.5, -2.0])
    np.testing.assert_array_equal(b[:, 0, 0], [-1.0, 2.0])


def test_balloon_keel_sweep_matches_frozen_reassembly():
    # criterion 6's keel-length grid, which reaches the edges of the box
    balloon = load_model(MODELS / "balloon_planar.yaml")
    lm = assemble(balloon)
    for l6 in np.linspace(10.0, 60.0, 20):
        pt = {"l6": float(l6)}
        a, b, _, _ = sample_model(lm, pt)
        a2, b2, _, _ = sample_model(assemble(freeze_model(balloon, pt)), {})
        assert np.linalg.norm(a - a2) / np.linalg.norm(a2) <= 1e-7, l6
        assert np.linalg.norm(b - b2) / np.linalg.norm(b2) <= 1e-7, l6


# ---------------------------------------------------------------------------
# independence of the BLAS thread count
# ---------------------------------------------------------------------------

_BALLOON_PROBE = """
import json, sys
from mblft.assembly import assemble, sample_model
from mblft.modelfile import load_model
lm = assemble(load_model(sys.argv[1]))
print(json.dumps({
    "a": lm.a.delta_structure,
    "b": lm.b.delta_structure,
    "A": sample_model(lm, {"l6": 10.0})[0].tolist(),
}))
"""


def _run_at_threads(threads: str, *argv: str) -> str:
    """stdout of ``python -c argv...`` with every BLAS thread count set."""
    # the thread count is read when numpy loads BLAS, so set it before that
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _balloon_probe(threads: str) -> dict:
    return json.loads(
        _run_at_threads(threads, _BALLOON_PROBE, str(MODELS / "balloon_planar.yaml"))
    )


def test_balloon_reduction_independent_of_blas_threads():
    one, two = _balloon_probe("1"), _balloon_probe("2")
    assert one["a"] == two["a"]
    assert one["b"] == two["b"]
    a1, a2 = np.array(one["A"]), np.array(two["A"])
    assert np.linalg.norm(a1 - a2) <= 1e-12 * np.linalg.norm(a1)


_LINEARIZE_ALL = """
import contextlib, pathlib, sys
from mblft import cli
out = pathlib.Path(sys.argv[1])
(out / "equilibrium").mkdir()
for model in sys.argv[2:]:
    stem = pathlib.Path(model).stem
    if cli.main(["linearize", model, "-o", str(out / (stem + ".json"))]):
        sys.exit(1)
    with open(out / "equilibrium" / (stem + ".txt"), "w") as stdout:
        with contextlib.redirect_stdout(stdout):
            if cli.main(["equilibrium", model]):
                sys.exit(1)
grids = {
    "two_link_arm": "t_t1=0.45:1.0:5,t_t2=0.45:2.4:5",
    "balloon_planar": "l6=10:60:20",
}
for stem, grid in grids.items():
    export, target = str(out / (stem + ".json")), str(out / (stem + "_sample"))
    if cli.main(["sample", export, "--grid", grid, "-o", target]):
        sys.exit(1)
"""


def _exports_at_threads(out: pathlib.Path, threads: str) -> dict:
    out.mkdir()
    models = sorted(str(p) for p in MODELS.glob("*.yaml"))
    _run_at_threads(threads, _LINEARIZE_ALL, str(out), *models)
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def test_cli_exports_independent_of_blas_threads(tmp_path):
    """``linearize`` exports, ``equilibrium`` stdout and ``sample`` outputs
    (the arm's README grid, the balloon's l6 grid) are byte-identical at 1
    and 2 BLAS threads."""
    one = _exports_at_threads(tmp_path / "one", "1")
    two = _exports_at_threads(tmp_path / "two", "2")
    exports = ["balloon_planar.json", "pendulum.json", "two_link_arm.json"]
    assert [name for name in one if "/" not in name] == exports
    reports = [name for name in one if name.startswith("equilibrium/")]
    assert reports == [f"equilibrium/{e[:-5]}.txt" for e in exports]
    assert all(b"root_reaction: [" in one[name] for name in reports)
    assert sum(name.startswith("two_link_arm_sample/point_") for name in one) == 25
    assert sum(name.startswith("balloon_planar_sample/point_") for name in one) == 20
    assert one == two


_VALIDATE = """
import sys
from mblft import cli
sys.exit(cli.main(["validate", sys.argv[1], "--points", "3", "--seed", "1"]))
"""


@pytest.mark.parametrize("name", ["two_link_arm.yaml", "balloon_planar.yaml"])
def test_validate_independent_of_blas_threads(name):
    """``validate`` stdout, oracle digits included, is byte-identical at 1
    and 2 BLAS threads."""
    one = _run_at_threads("1", _VALIDATE, str(MODELS / name))
    two = _run_at_threads("2", _VALIDATE, str(MODELS / name))
    assert "PASS" in one
    assert one == two


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_no_reduce_evaluates_identically(arm, monkeypatch):
    """The arm assembled with every reduction left out (``lft.reduce_lft``
    the identity) evaluates as the reduced one, on no fewer channels."""
    lm_red = assemble(arm)
    with monkeypatch.context() as patch:
        patch.setattr(lft, "reduce_lft", lambda m: m)
        lm_raw = assemble(arm)
    rng = np.random.default_rng(7)
    for _ in range(10):
        pt = sample_point(lm_red.parameters, rng)
        a1, b1, _, _ = sample_model(lm_red, pt)
        a2, b2, _, _ = sample_model(lm_raw, pt)
        assert np.linalg.norm(a1 - a2) / np.linalg.norm(a2) <= 1e-8
        assert np.linalg.norm(b1 - b2) / max(np.linalg.norm(b2), 1.0) <= 1e-8
    for name in lm_red.parameters:
        assert lm_red.a.occurrences(name) <= lm_raw.a.occurrences(name)
        assert lm_red.b.occurrences(name) <= lm_raw.b.occurrences(name)


# ---------------------------------------------------------------------------
# modes helper
# ---------------------------------------------------------------------------


# Delta channels per parameter of the shipped models' reduced A and B.  A
# change may lower these, never raise them: a larger Delta block makes every
# evaluated point dearer and any robustness analysis more conservative.
_DELTA_CEILING = {
    "two_link_arm.yaml": {
        "A": {"J1": 1, "L2": 2, "m1": 1, "m3": 3, "rho1": 2, "t_t1": 4, "t_t2": 6},
        "B": {"J1": 1, "L2": 2, "m1": 1, "m3": 2, "rho1": 2, "t_t2": 4},
    },
    "balloon_planar.yaml": {
        "A": {
            "J0": 1, "J10": 1, "J12": 1, "m0": 2, "m11": 12, "rho0": 2, "l6": 10,
        },
        "B": {"J0": 1, "J10": 1, "J12": 1, "m0": 1, "m11": 1, "rho0": 2, "l6": 4},
    },
}


@pytest.mark.parametrize("name", sorted(_DELTA_CEILING))
def test_shipped_delta_structure(name):
    lm = assemble(load_model(MODELS / name))
    for tag, m in (("A", lm.a), ("B", lm.b)):
        ceiling = _DELTA_CEILING[name][tag]
        counts = dict(m.delta_structure)
        assert set(counts) <= set(ceiling), (tag, counts)
        grown = {p: n for p, n in counts.items() if n > ceiling[p]}
        assert not grown, (tag, grown)


ARM_WRENCH_INPUTS = """
io:
  inputs:
    - {torque: shoulder}
    - {torque: elbow}
    - {wrench: link2.tip}
    - {wrench: payload.ref}
"""


def _model_path(name, tmp_path):
    """A shipped model file; ``chain<N>``, the N-link chain; or ``arm_io``
    and ``balloon_io``, the arm and the balloon with wrench inputs."""
    if name.startswith("chain"):
        return write_chain(tmp_path, int(name[len("chain"):]))
    if name.endswith("_io"):
        base, io = {
            "arm_io": ("two_link_arm.yaml", ARM_WRENCH_INPUTS),
            "balloon_io": ("balloon_planar.yaml", BALLOON_WRENCH_INPUTS),
        }[name]
        path = tmp_path / f"{name}.yaml"
        path.write_text((MODELS / base).read_text() + io)
        return path
    return MODELS / name


@pytest.mark.parametrize(
    "name",
    [
        "pendulum.yaml",
        "two_link_arm.yaml",
        "balloon_planar.yaml",
        "chain4",
        "arm_io",
        "balloon_io",
    ],
)
def test_assembled_a_and_b_are_fixed_points_of_reduce_lft(name, tmp_path):
    """A and B leave step 3 as left divisions of reduced LFTs, which keep
    their channels, so a further reduction returns them bit for bit.  With
    wrench inputs this needs M and B_hat reduced together: reduced apart,
    B holds 15 channels on the arm where 12 realize it."""
    lm = assemble(load_model(_model_path(name, tmp_path)))
    for m in (lm.a, lm.b):
        again = lft.reduce_lft(m)
        assert again.delta == m.delta
        assert np.array_equal(again.m, m.m)


def test_chain_delta_size(tmp_path):
    """Each joint's and link's channels enter the 8-link chain's A and B
    about once per operator (spatial operators in step 3): A within 2x of
    its per-parameter lower bound of 134 channels, and B at most 50."""
    lm = assemble(load_model(write_chain(tmp_path, 8)))
    assert lm.a.ndelta <= 268
    assert lm.b.ndelta <= 50


@pytest.mark.parametrize(
    "name",
    [
        "pendulum.yaml",
        "two_link_arm.yaml",
        "balloon_planar.yaml",
        "arm_io",
        "balloon_io",
        "chain4",
        "chain8",
    ],
)
def test_delta_structure_holds_with_the_tolerance_ten_times_off(name, monkeypatch, tmp_path):
    """Every rank decision of an assembly has a margin of more than ten
    either way: the Delta channels per parameter of A and B stay the same
    with the reduction tolerance ten times larger or ten times smaller."""
    path = _model_path(name, tmp_path)

    def structure():
        lm = assemble(load_model(path))
        return lm.a.delta_structure, lm.b.delta_structure

    want = structure()
    rtol = lft._REDUCE_RTOL
    for factor in (10.0, 0.1):
        monkeypatch.setattr(lft, "_REDUCE_RTOL", rtol * factor)
        assert structure() == want, factor


@pytest.mark.parametrize(
    "name, calls",
    [
        ("pendulum.yaml", 3),
        ("two_link_arm.yaml", 4),
        ("balloon_planar.yaml", 13),
        ("chain4", 6),
    ],
)
def test_reduce_lft_calls_per_assemble(name, calls, monkeypatch, tmp_path):
    """The assembly reduces an LFT once, where a later step builds on it:
    step 1 makes no call, step 2 one per revolute joint (its load, which
    step 3 multiplies), and step 3 two (W_sys and [M | B_hat], which it
    divides)."""
    path = write_chain(tmp_path, 4) if name == "chain4" else MODELS / name
    model = load_model(path)
    seen = []
    reduce = lft.reduce_lft

    def counting(m):
        seen.append(m.ndelta)
        return reduce(m)

    monkeypatch.setattr(lft, "reduce_lft", counting)
    ctx = assembly.step1_geometry(model)
    assert seen == []
    eq = assembly.step2_wrenches(ctx)
    assert len(seen) == len(model.tree.joints)
    assembly.step3_linearize(eq)
    assert len(seen) == len(model.tree.joints) + 2 == calls


def test_free_root_equilibrium_is_evaluated_once(monkeypatch):
    """The free-root trim check and the report read the balloon's nominal
    equilibrium from one evaluation: one gated solve in all."""
    model = load_model(MODELS / "balloon_planar.yaml")
    ctx = assembly.step1_geometry(model)
    solves = []
    solve = lft._solve_with_cond

    def counting(*args):
        solves.append(args[0].shape)
        return solve(*args)

    monkeypatch.setattr(lft, "_solve_with_cond", counting)
    rep = assembly.step2_wrenches(ctx).report()
    assert len(solves) == 1
    assert max(map(abs, rep["root_reaction"])) <= 1e-6


def test_modes_frequency_and_damping():
    lm = assemble(_pendulum(friction=0.4, shaft=1e-8))
    md = modes(sample_model(lm, {})[0])
    assert len(md) == 2
    for lam, f, z in md:
        assert abs(f - abs(lam) / (2 * math.pi)) <= 1e-12
        assert abs(z - (-lam.real / abs(lam))) <= 1e-12
        assert z > 0  # damped


@pytest.mark.parametrize("n", [0, 1, 5, 64])
def test_modes_of_a_stack_equal_modes_of_each_matrix(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((n, 6, 6))
    stack[: n // 2, :3, 3:] = np.eye(3)  # some with a repeated structure
    stack[: n // 2, 3:, :] = 0.0
    assert modes(stack) == [modes(a) for a in stack]


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"euler": (0.1, 0.2)}, "root euler must have 3 entries, got 2"),
        ({"position": (0.0, 0.0, 0.0, 1.0)}, "root position must have 3 entries, got 4"),
    ],
)
def test_root_pose_must_be_3_vectors(kwargs, message):
    with pytest.raises(AssemblyError, match=message):
        RootSpec(**kwargs)
    assert RootSpec("free", euler=[0, 0.5, 1]).euler == (0.0, 0.5, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_acceleration_must_be_finite(bad):
    with pytest.raises(AssemblyError, match="acceleration entries must be finite"):
        _pendulum(accel=(0.0, bad, G))


def test_grounded_model_with_a_forward_body_rejected():
    """Every body of a grounded model is inverse-role: a forward body, whose
    role and DOF mask the grounded assembly would ignore, is rejected."""
    m = _pendulum()
    bob = dataclasses.replace(
        m.bodies[0], dynamics_role=DynamicsRole.FORWARD, dof_mask=(5,)
    )
    with pytest.raises(
        AssemblyError, match="a grounded model must use inverse-role bodies only"
    ):
        MultibodyModel(
            name="bad",
            bodies=(bob,),
            connections=m.connections,
            acceleration=m.acceleration,
        )


def test_two_parents_rejected():
    m = _pendulum()
    extra = RevoluteJoint(
        name="pivot2",
        parent_port=("ground", "ref"),
        child_port=("bob", "ref"),
        axis=(1.0, 0.0, 0.0),
    )
    with pytest.raises(AssemblyError):
        MultibodyModel(
            name="bad",
            bodies=m.bodies,
            connections=m.connections + (extra,),
            acceleration=m.acceleration,
        )


def _link(name):
    return RigidBody(
        name=name,
        mass=1.0,
        inertia_cog=np.zeros((3, 3)),
        cog_offset=(0.0, 0.0, -1.0),
        dynamics_role=DynamicsRole.INVERSE,
    )


@pytest.mark.parametrize(
    "edges, message",
    [
        # a and b each have one parent, but the walk from the ground
        # reaches neither of them
        ((("ground", "c"), ("a", "b"), ("b", "a")), "connection graph contains a cycle"),
        # a loop the walk from the ground does reach
        ((("ground", "a"), ("a", "b"), ("b", "a")), "body 'a' has two parents"),
    ],
)
def test_cycle_rejected(edges, message):
    conns = tuple(
        RevoluteJoint(
            name=f"{p}_{c}",
            parent_port=(p, "ref"),
            child_port=(c, "ref"),
            axis=(1.0, 0.0, 0.0),
        )
        for p, c in edges
    )
    with pytest.raises(AssemblyError, match=message):
        MultibodyModel(
            name="loop",
            bodies=tuple(_link(n) for n in "abc"),
            connections=conns,
            acceleration=(0.0, 0.0, G),
        )


def test_disconnected_body_rejected():
    m = _pendulum()
    orphan = RigidBody(
        name="orphan",
        mass=1.0,
        inertia_cog=np.zeros((3, 3)),
        cog_offset=(0, 0, 0),
        dynamics_role=DynamicsRole.INVERSE,
    )
    with pytest.raises(AssemblyError):
        MultibodyModel(
            name="bad",
            bodies=m.bodies + (orphan,),
            connections=m.connections,
            acceleration=m.acceleration,
        )


def test_duplicate_connection_names_rejected():
    m = _pendulum()
    bob2 = RigidBody(
        name="bob2",
        mass=1.0,
        inertia_cog=np.zeros((3, 3)),
        cog_offset=(0, 0, -1.0),
        dynamics_role=DynamicsRole.INVERSE,
    )
    again = RevoluteJoint(
        name="pivot",
        parent_port=("bob", "ref"),
        child_port=("bob2", "ref"),
        axis=(1.0, 0.0, 0.0),
    )
    with pytest.raises(AssemblyError, match="duplicate connection name.*'pivot'"):
        MultibodyModel(
            name="bad",
            bodies=m.bodies + (bob2,),
            connections=m.connections + (again,),
            acceleration=m.acceleration,
        )


@pytest.mark.parametrize(
    "body, port, match",
    [("bobb", "ref", "unknown body 'bobb'"), ("bob", "tip", "unknown port 'tip'")],
)
def test_force_on_unknown_body_or_port_rejected(body, port, match):
    m = _pendulum()
    with pytest.raises(AssemblyError, match=match):
        MultibodyModel(
            name="bad",
            bodies=m.bodies,
            connections=m.connections,
            acceleration=m.acceleration,
            external_forces=(ExternalForce(body, port, (0.0, 1.0, 0.0)),),
        )


def test_unbalanced_free_root_raises_trim_error():
    """A lateral force on a retained root DOF breaks the trim.

    (An imbalance along a masked-out DOF, e.g. removing the buoyancy with
    translation z not retained, is reacted by the implicit constraint and
    is therefore not a trim failure.)
    """
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
    with pytest.raises(TrimError):
        assemble(unbalanced)


def test_balance_weight_force_scales_with_parameters():
    balloon = load_model(MODELS / "balloon_planar.yaml")
    lm = assemble(balloon)
    # residual stays zero for off-nominal masses because buoyancy tracks them
    for pt in ({"m11": 0.0}, {"m11": 500.0}, {"l6": 60.0}):
        frozen = assemble(freeze_model(balloon, pt))
        r = np.asarray(frozen.equilibrium.root_reaction.nominal).ravel()
        assert np.max(np.abs(r)) <= 1e-8
    assert lm.order == 26
