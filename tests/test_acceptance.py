"""End-to-end acceptance checks.

Each test prints exactly one ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output of a failing test) and then asserts,
so the suite doubles as a human-readable acceptance report.
"""
import math
import pathlib
import time

import numpy as np
import pytest

from mblft import lft
from mblft import cli
from mblft.assembly import (
    assemble,
    sample_model,
    sample_point,
)
from mblft.joints import RevoluteJoint
from mblft.modelfile import load_model
from mblft.oracle import FdConfig, NonlinearEvaluator, fd_linearize

from _frozen import freeze_model

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"
G = 9.81


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {n}] {status}: {desc}{suffix}")
    assert ok, f"criterion {n} failed: {desc}{suffix}"


# ---------------------------------------------------------------------------
# 1. arm grid vs finite-difference oracle
# ---------------------------------------------------------------------------


def test_criterion_1_arm_grid_vs_fd_oracle():
    t0 = time.perf_counter()
    model = load_model(MODELS / "two_link_arm.yaml")
    lm = assemble(model)
    worst_a = worst_b = 0.0
    for a1 in np.linspace(math.radians(45), math.radians(90), 5):
        for a2 in np.linspace(math.radians(45), math.radians(135), 5):
            pt = {"t_t1": math.tan(a1 / 2), "t_t2": math.tan(a2 / 2)}
            a, b, _, _ = sample_model(lm, pt)
            ev = NonlinearEvaluator(model, pt)
            a_fd, b_fd = fd_linearize(ev, FdConfig())
            worst_a = max(
                worst_a, np.linalg.norm(a - a_fd) / np.linalg.norm(a_fd)
            )
            worst_b = max(
                worst_b, np.linalg.norm(b - b_fd) / np.linalg.norm(b_fd)
            )
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-5 and worst_b <= 1e-5 and elapsed <= 10.0
    _report(
        1,
        "arm 5x5 angle grid matches the nonlinear finite-difference "
        "linearization to 1e-5 within 10 s",
        ok,
        f"rel A {worst_a:.2e}, rel B {worst_b:.2e}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 2. sampling the LFT vs re-assembling a frozen model
# ---------------------------------------------------------------------------


def test_criterion_2_sample_vs_frozen_reassembly():
    model = load_model(MODELS / "two_link_arm.yaml")
    lm = assemble(model)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        pt = sample_point(lm.parameters, rng)
        a, b, _, _ = sample_model(lm, pt)
        frozen = assemble(freeze_model(model, pt))
        a2, b2, _, _ = sample_model(frozen, {})
        worst = max(
            worst,
            np.linalg.norm(a - a2) / np.linalg.norm(a2),
            np.linalg.norm(b - b2) / np.linalg.norm(b2),
        )
    _report(
        2,
        "100 random in-box points: evaluated LFT equals frozen "
        "re-assembly to 1e-8",
        worst <= 1e-8,
        f"worst rel {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. pendulum closed forms
# ---------------------------------------------------------------------------


def test_criterion_3_pendulum_closed_forms():
    lm = assemble(load_model(MODELS / "pendulum.yaml"))
    lam = np.linalg.eigvals(sample_model(lm, {})[0])
    w0 = math.sqrt(G / 1.0)
    err_und = max(
        min(abs(z - 1j * w0), abs(z + 1j * w0)) / w0 for z in lam
    )

    # the same pendulum with friction follows the quadratic closed form
    from mblft.assembly import MultibodyModel
    from mblft.bodies import DynamicsRole, RigidBody

    m, length, kj, jj = 2.0, 0.7, 0.4, 1e-8
    bob = RigidBody(
        name="bob",
        mass=m,
        inertia_cog=np.zeros((3, 3)),
        cog_offset=(0.0, 0.0, -length),
        dynamics_role=DynamicsRole.INVERSE,
    )
    pivot = RevoluteJoint(
        name="pivot",
        parent_port=("ground", "ref"),
        child_port=("bob", "ref"),
        axis=(1.0, 0.0, 0.0),
        friction=kj,
        shaft_inertia=jj,
    )
    damped = MultibodyModel(
        name="damped", bodies=(bob,), connections=(pivot,),
        acceleration=(0.0, 0.0, G),
    )
    lam_d = np.linalg.eigvals(sample_model(assemble(damped), {})[0])
    roots = np.roots([m * length ** 2 + jj, kj, m * G * length])
    err_dmp = max(
        min(abs(z - r) for r in roots) / abs(r) for z, r in
        zip(sorted(lam_d, key=lambda z: z.imag),
            sorted(roots, key=lambda z: z.imag))
    )
    ok = err_und <= 1e-9 and err_dmp <= 1e-9
    _report(
        3,
        "pendulum poles hit +/- i sqrt(g/L) and the damped quadratic "
        "closed form to 1e-9",
        ok,
        f"undamped {err_und:.2e}, damped {err_dmp:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. rotation LFT occurrence counts and accuracy
# ---------------------------------------------------------------------------


def test_criterion_4_rotation_lft_occurrences():
    span = math.pi - 1e-3
    t = lft.HalfTanParam.from_angle("th", 0.0, -3.0, 3.0)
    tq = lft.HalfTanParam.from_angle("th", 0.0, -span, span, variant="quarter")
    half = lft.rotation_lft_half(t)
    quarter = lft.rotation_lft_quarter(tq)
    name = t.param.name
    occ_ok = half.occurrences(name) == 2 and quarter.occurrences(name) == 4

    worst = 0.0
    for th in np.linspace(-span, span, 50):
        expect = np.array(
            [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        )
        worst = max(
            worst,
            np.max(np.abs(half.evaluate({name: math.tan(th / 2)}) - expect)),
            np.max(np.abs(quarter.evaluate({name: math.tan(th / 4)}) - expect)),
        )
    ok = occ_ok and worst <= 1e-12
    _report(
        4,
        "planar rotation LFTs use exactly 2 (half-angle) and 4 "
        "(quarter-angle) parameter occurrences and are exact to 1e-12 "
        "on a 50-point grid over (-pi, pi)",
        ok,
        f"occ {half.occurrences(name)}/{quarter.occurrences(name)}, "
        f"max err {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. nonlinear residual and joint torque balance for every shipped model
# ---------------------------------------------------------------------------


def test_criterion_5_trim_residual_and_torque_balance():
    worst_nom = worst_rand = worst_bal = 0.0
    rng = np.random.default_rng(5)
    for name in ("pendulum.yaml", "two_link_arm.yaml", "balloon_planar.yaml"):
        model = load_model(MODELS / name)
        lm = assemble(model)

        ev = NonlinearEvaluator(model, {})
        worst_nom = max(
            worst_nom,
            float(np.max(np.abs(ev.f(np.zeros(2 * ev.nq), ev.trim_inputs())))),
        )
        for _ in range(20):
            pt = sample_point(lm.parameters, rng)
            evp = NonlinearEvaluator(model, pt)
            worst_rand = max(
                worst_rand,
                float(
                    np.max(
                        np.abs(evp.f(np.zeros(2 * evp.nq), evp.trim_inputs()))
                    )
                ),
            )

        # with every input at 0, a joint's residual row is the torque
        # that must drive it to hold the equilibrium
        r0 = ev.residual(np.zeros(2 * ev.nq), np.zeros(ev.nu_in), np.zeros(ev.nq))
        tree = model.tree
        for name, info in lm.equilibrium.report()["joints"].items():
            row = tree.k + tree.joint_index[name]
            worst_bal = max(worst_bal, abs(info["torque"] - float(r0[row])))
    ok = worst_nom <= 1e-9 and worst_rand <= 1e-8 and worst_bal <= 1e-10
    _report(
        5,
        "all shipped models: nonlinear residual <= 1e-9 at nominal and "
        "<= 1e-8 at 20 random points; equilibrium torques equal the "
        "oracle's zero-input joint residual to 1e-10",
        ok,
        f"nominal {worst_nom:.2e}, random {worst_rand:.2e}, "
        f"balance {worst_bal:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. balloon order, stability, and design sweep
# ---------------------------------------------------------------------------


def test_criterion_6_balloon_order_stability_sweep(tmp_path):
    t0 = time.perf_counter()
    model = load_model(MODELS / "balloon_planar.yaml")
    lm = assemble(model)
    order_ok = lm.order == 26

    worst_re = -np.inf
    for l6 in np.linspace(10.0, 60.0, 20):
        a = sample_model(lm, {"l6": float(l6)})[0]
        worst_re = max(worst_re, float(np.max(np.linalg.eigvals(a).real)))
    elapsed = time.perf_counter() - t0

    export = tmp_path / "balloon.json"
    outdir = tmp_path / "sweep"
    rc1 = cli.main(
        ["linearize", str(MODELS / "balloon_planar.yaml"), "-o", str(export)]
    )
    rc2 = cli.main(
        ["sample", str(export), "--grid", "l6=10:60:20", "-o", str(outdir)]
    )
    csv = (outdir / "poles.csv").read_text().splitlines()
    csv_ok = (
        rc1 == 0 and rc2 == 0
        and csv[0] == "re,im,freq_hz,damping"
        and len(csv) == 1 + 20 * 26
    )

    ok = order_ok and worst_re <= 1e-12 and elapsed <= 60.0 and csv_ok
    _report(
        6,
        "balloon model has exactly 26 states, stays stable "
        "(Re(lambda) <= 1e-12) across a 20-point keel-length sweep "
        "finishing within 60 s, and the sweep exports a poles CSV",
        ok,
        f"order {lm.order}, max Re {worst_re:.2e}, {elapsed:.2f} s, "
        f"csv rows {len(csv) - 1}",
    )


# ---------------------------------------------------------------------------
# 7. reduction is lossless and never grows the representation
# ---------------------------------------------------------------------------


def test_criterion_7_reduction_lossless_and_monotone(monkeypatch):
    """The assembly against the same assembly with every reduction left out
    (``lft.reduce_lft`` the identity): A and B hold fewer channels, none more
    of any parameter, and evaluate alike at 100 random points."""
    counts = {}
    sizes = []
    worst = 0.0
    rng = np.random.default_rng(7)
    for name in ("two_link_arm.yaml", "balloon_planar.yaml"):
        model = load_model(MODELS / name)
        lm_red = assemble(model)
        with monkeypatch.context() as patch:
            patch.setattr(lft, "reduce_lft", lambda m: m)
            lm_raw = assemble(model)
        for red, raw in ((lm_red.a, lm_raw.a), (lm_red.b, lm_raw.b)):
            assert red.ndelta < raw.ndelta
            assert all(
                red.occurrences(p) <= raw.occurrences(p) for p in lm_red.parameters
            )
            sizes.append(f"{raw.ndelta}->{red.ndelta}")
        for _ in range(100):
            pt = sample_point(lm_red.parameters, rng)
            red_ab = sample_model(lm_red, pt)[:2]
            raw_ab = sample_model(lm_raw, pt)[:2]
            for x, y in zip(red_ab, raw_ab):
                worst = max(worst, np.linalg.norm(x - y) / np.linalg.norm(y))
        counts[model.name] = {
            p: lm_red.a.occurrences(p) for p in sorted(lm_red.parameters)
        }
    ok = worst <= 1e-8
    _report(
        7,
        "LFT reduction never increases occurrence counts and changes "
        "evaluation by <= 1e-8 at 100 random points",
        ok,
        f"worst rel {worst:.2e}; channels A, B unreduced->reduced: "
        + ", ".join(sizes),
    )
    # Non-binding: the occurrence counts achieved by the per-parameter
    # Kalman reduction.  Symbolic hand-optimized
    # factorizations can do better, so these are reported, not asserted.
    print(f"[criterion 7] achieved A-matrix occurrence counts: {counts}")


# ---------------------------------------------------------------------------
# 8. robust controller synthesis: out of scope
# ---------------------------------------------------------------------------


def test_criterion_8_controller_synthesis_out_of_scope():
    print(
        "[criterion 8] NOT REPRODUCIBLE: robust controller synthesis "
        "(H-infinity / structured-singular-value design on the exported "
        "LFT models) requires a synthesis toolchain outside this "
        "library's scope; the exported models are the interface to it"
    )
    pytest.skip("controller synthesis is out of scope for this library")
