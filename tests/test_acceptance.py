"""End-to-end gate: one test per release criterion, tolerances inline.

The heavy fixtures (demonstration corpus, one training pass of the default
hip with the 3-, 5- and 7-layer knees, evaluation) are module-scoped and
dominate the runtime; everything else is seconds. The learn step is
row-local, so each (hip, knee) pair of that pass has the bits of training
the pair alone. Criteria on landing error use the shipped defaults from
cli_io.RunConfig, so this file checks exactly what a fresh `train` +
`eval` invocation would produce; test_default_pair_is_the_cli_training
pins that to the fixture's recorded bytes.
"""

import hashlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import test_dynamics as dyn
from grpleg import grp, mulnet
from grpleg.cli_io import (
    RunConfig,
    _dump_json,
    cli,
    save_model,
    save_run_config,
    train_log_to_dict,
)
from grpleg.dynamics import (
    JointTorques,
    LegParams,
    LegState,
    accelerations,
    integrate_step,
    total_energy,
)
from grpleg.experiment import (
    evaluate,
    run_demo_episode,
    sample_tasks,
    train,
)
from grpleg.grp import GrpConfig

CFG = RunConfig()
FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixture" / "fixture.json"
# sha256 of the default `train`'s train_log.json
TRAIN_LOG_SHA256 = "9f09d6d1c5816046749ed576ba8a9a92a249649c93f2f4cf5422a84b1afc4f9b"
KNEE_SIZES = (3, 5, 7)


@pytest.fixture(scope="module")
def demo_corpus():
    t0 = time.perf_counter()
    tasks = sample_tasks(CFG.ranges, CFG.demo_count, CFG.demo_seed,
                         CFG.gains, CFG.params)
    demos = [run_demo_episode(task, init, CFG.gains, CFG.params,
                              CFG.dt, CFG.timeout)
             for task, init in tasks]
    return demos, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained(demo_corpus):
    """The default hip and a knee per KNEE_SIZES, trained in one pass, as
    (hip, {m: (knee, knee log block)}, hip log block, seconds)."""
    demos, _ = demo_corpus
    t0 = time.perf_counter()
    hip = grp.init(CFG.hip)
    knees = [grp.init(replace(CFG.knee, m=m)) for m in KNEE_SIZES]
    hip_log, *knee_logs = train(
        [(hip, "tau_h")] + [(knee, "tau_k") for knee in knees], demos, CFG.episodes)
    return (hip, dict(zip(KNEE_SIZES, zip(knees, knee_logs))), hip_log,
            time.perf_counter() - t0)


def evaluate_pair(hip, knee):
    """The fixture's 20 evaluation swings driven by (hip, knee)."""
    tasks = sample_tasks(CFG.ranges, CFG.eval_count, CFG.eval_seed,
                         CFG.gains, CFG.params)
    return evaluate(hip, knee, tasks, CFG.gains, CFG.params,
                    CFG.dt, CFG.timeout)


@pytest.fixture(scope="module")
def evaluated(trained):
    hip, knees, _, _ = trained
    t0 = time.perf_counter()
    report, trajs = evaluate_pair(hip, knees[CFG.knee.m][0])
    return report, trajs, time.perf_counter() - t0


def test_criterion_01_demonstration_fidelity():
    """Target controller on 20 seeded tasks: landing error avg <= 4 deg,
    max <= 8 deg, generated in under 10 s."""
    t0 = time.perf_counter()
    tasks = sample_tasks(CFG.ranges, 20, CFG.eval_seed, CFG.gains, CFG.params)
    errs = []
    for task, init in tasks:
        traj = run_demo_episode(task, init, CFG.gains, CFG.params,
                                CFG.dt, CFG.timeout)
        assert not traj.timed_out
        errs.append(abs(task.alpha_tgt - traj.alpha_end) / math.pi * 180.0)
    elapsed = time.perf_counter() - t0
    errs = np.array(errs)
    print(f"\ncriterion 1: demo landing error avg {errs.mean():.2f} deg "
          f"(<=4), max {errs.max():.2f} deg (<=8), {elapsed:.1f} s (<10)")
    assert errs.mean() <= 4.0
    assert errs.max() <= 8.0
    assert elapsed < 10.0


def test_criterion_02_learned_model_fidelity(demo_corpus, trained, evaluated):
    """Default training (hip m=1, knee m=3), then the models alone drive 20
    fresh tasks: avg error <= 7 deg, max <= 12 deg, whole pipeline under
    15 min."""
    _, demo_s = demo_corpus
    *_, train_s = trained
    report, _, eval_s = evaluated
    total = demo_s + train_s + eval_s
    print(f"\ncriterion 2: learned landing error avg "
          f"{report.avg_error_deg:.2f} deg (<=7), max "
          f"{report.max_error_deg:.2f} deg (<=12), "
          f"{int(report.timed_out.sum())} timeouts, {total:.0f} s (<900)")
    assert report.avg_error_deg <= 7.0
    assert report.max_error_deg <= 12.0
    assert total < 900.0


def test_criterion_03_hip_single_layer_responsibility(evaluated):
    """Trained hip RP claims its swing: pi^1 > 0.9 at >= 95% of evaluation
    steps."""
    _, trajs, _ = evaluated
    pis = np.concatenate([tr.traces["hip"].pi[:, 0] for tr in trajs])
    frac = float((pis > 0.9).mean())
    print(f"\ncriterion 3: hip pi^1 > 0.9 at {100 * frac:.1f}% of steps (>=95%)")
    assert frac >= 0.95


def test_criterion_04_knee_switching(evaluated):
    """Knee m=3: at least two distinct layers reach pi > 0.5 somewhere in
    the evaluation swings."""
    report, _, _ = evaluated
    peaks = report.peak_pi["knee"]
    hot = int((peaks > 0.5).sum())
    print(f"\ncriterion 4: knee layer peak pi {np.round(peaks, 3)}; "
          f"{hot} layers exceed 0.5 (>=2)")
    assert hot >= 2


@pytest.mark.parametrize("m", [5, 7])
def test_criterion_05_automatic_selection_report(trained, m):
    """Knee m=5 and m=7 runs: report the active-generator count (threshold
    0.1) and per-layer peak responsibilities. Reported, not asserted."""
    hip, knees, _, _ = trained
    report, _ = evaluate_pair(hip, knees[m][0])
    assert "knee" in report.active_generators
    assert report.peak_pi["knee"].shape == (m,)
    print(f"\ncriterion 5 (m={m}): active generators "
          f"{report.active_generators['knee']}, peak pi "
          f"{np.round(report.peak_pi['knee'], 3)}, landing error avg "
          f"{report.avg_error_deg:.2f} deg")


def test_criterion_06_total_output_identity():
    """1000 random (model, input, reference) triples: the feedback-completed
    combined output equals the reference to < 1e-12."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        model = grp.init(GrpConfig(m=m, seed=int(rng.integers(0, 1000))))
        for k in range(m):
            model.W[k] = model.W[k] * rng.uniform(0.2, 5.0)
            model.R[k] = model.R[k] * rng.uniform(0.2, 5.0)
        model.gamma = float(rng.uniform(0.01, 100.0))
        raw = [rng.uniform(-1, 1), rng.uniform(2, 3.9), rng.uniform(-2, 2),
               rng.uniform(2, 3.9), rng.uniform(-2, 2)]
        x = mulnet.split_input(raw)
        r_G = float(rng.uniform(-80.0, 80.0))
        worst = max(worst, abs(grp.total_output_identity(model, x, r_G) - r_G))
    print(f"\ncriterion 6: max |G_total - r_G| = {worst:.3e} (<1e-12)")
    assert worst < 1e-12


def test_criterion_07_responsibility_softmax():
    """Softmax of -gamma|e|: sums to 1 within 1e-12, exact uniformity under
    ties, and the argmin-|e| layer always takes the maximum."""
    rng = np.random.default_rng(77)
    worst_sum = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        scale = 10.0 ** rng.uniform(-3, 3)
        e = rng.standard_normal(m) * scale
        gamma = 10.0 ** rng.uniform(-3, 3)
        r = grp.responsibility_reference(e, gamma)
        worst_sum = max(worst_sum, abs(r.sum() - 1.0))
        assert r[np.argmin(np.abs(e))] == r.max()
        tied = np.concatenate([e, [-e[0]]])
        rt = grp.responsibility_reference(tied, gamma)
        assert rt[0] == rt[-1]
    r = grp.responsibility_reference(np.full(5, 0.37), 3.0)
    assert np.ptp(r) == 0.0
    print(f"\ncriterion 7: worst |sum - 1| = {worst_sum:.3e} (<1e-12), "
          "ties uniform, argmin wins")
    assert worst_sum < 1e-12


def test_criterion_08_gradient_exactness():
    """Analytic network gradient vs central finite differences on 100 random
    instances: max relative error < 1e-6, under 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        W = rng.uniform(-0.2, 0.2, size=(8, 8))
        raw = [rng.uniform(-1, 1), rng.uniform(2, 3.9), rng.uniform(-2, 2),
               rng.uniform(2, 3.9), rng.uniform(-2, 2)]
        worst = max(worst, mulnet.finite_difference_check(
            W, mulnet.split_input(raw)))
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 8: max relative gradient error {worst:.3e} (<1e-6), "
          f"{elapsed:.2f} s (<5)")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_09_dynamics_oracles():
    """Passive energy drift < 1e-6 relative over 2 s; analytic accelerations
    within 1e-6 relative of the numeric Euler-Lagrange oracle on 100 random
    states; straight-down equilibrium rests."""
    params = LegParams(knee_stop_stiffness=0.0, knee_stop_damping=0.0)
    st = LegState(math.radians(220), math.radians(175), -2.0, -4.0)
    e0 = total_energy(st, params)
    for _ in range(2000):
        st = integrate_step(st, JointTorques(), params, 1e-3)
    drift = abs(total_energy(st, params) - e0) / abs(e0)

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        q1 = rng.uniform(0, 2 * math.pi)
        q2 = rng.uniform(0.2, math.pi)
        v1, v2 = rng.uniform(-8, 8, 2)
        t1, t2 = rng.uniform(-150, 150, 2)
        ora = dyn.lagrangian_oracle_accel(q1, q2, v1, v2, t1, t2)
        ana = accelerations(LegState(q1, q2, v1, v2), JointTorques(t1, t2),
                            LegParams())
        for o, a in zip(ora, ana):
            worst = max(worst, abs(o - a) / max(1.0, abs(o)))

    eq = accelerations(LegState(math.pi, math.pi, 0, 0), JointTorques(),
                       LegParams())
    print(f"\ncriterion 9: passive drift {drift:.3e} (<1e-6), "
          f"accel vs oracle {worst:.3e} (<1e-6), "
          f"equilibrium residual {max(abs(eq[0]), abs(eq[1])):.3e}")
    assert drift < 1e-6
    assert worst < 1e-6
    assert abs(eq[0]) < 5e-14 and abs(eq[1]) < 5e-14


def test_criterion_10_byte_identical_determinism(tmp_path):
    """Same config and seeds, two fresh runs: model files, report, and
    trajectory files match byte for byte."""
    cfg = RunConfig(episodes=10, demo_count=3, eval_count=2)
    save_run_config(tmp_path / "cfg.json", cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        args = ["--config", str(tmp_path / "cfg.json"), "--out", str(out)]
        assert cli(["train"] + args) == 0
        assert cli(["eval"] + args) == 0
        outs.append(out)
    files = ("hip.json", "knee.json", "train_log.json", "report.json",
             "eval_001.csv", "eval_002.csv")
    for fname in files:
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    print(f"\ncriterion 10: {len(files)} artifact files byte-identical "
          "across repeated runs")


def test_default_pair_is_the_cli_training(trained, tmp_path):
    """The one-pass fixture's hip and m=3 knee, and their log blocks, are
    the bytes the default `grpleg train` writes, as the fixture records."""
    hip, knees, hip_log, _ = trained
    knee, knee_log = knees[CFG.knee.m]
    save_model(tmp_path / "hip.json", hip)
    save_model(tmp_path / "knee.json", knee)
    _dump_json(tmp_path / "train_log.json", train_log_to_dict(hip_log, knee_log))
    want = {**json.loads(FIXTURE.read_text())["sha256"], "train_log.json": TRAIN_LOG_SHA256}
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in want}
    assert got == want
