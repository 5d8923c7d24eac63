"""Three-phase swing controller: gain arithmetic, phase machine, and
end-to-end demonstration landing quality."""

import math
from dataclasses import replace

import numpy as np
import pytest

from grpleg.dynamics import (
    KinematicSnapshot,
    LegParams,
    LegState,
    integrate_step,
    kinematics,
    saturate,
)
from grpleg.experiment import run_demo_episode
from grpleg.target_controller import (
    ControllerGains,
    ControllerState,
    Phase,
    SwingTask,
    control_step,
    make_task,
)

P = LegParams()
G = ControllerGains()
DT = 1e-3
INIT = (math.radians(220.0), math.radians(175.0))
T = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)


def snap(alpha=0.0, alpha_dot=0.0, l=1.0, phi_k_dot=0.0, foot_y=0.0):
    return KinematicSnapshot(alpha=alpha, alpha_dot=alpha_dot, l=l, foot_y=foot_y,
                             phi_k_dot=phi_k_dot)


def tick(kin, phase=Phase.FLEXION, task=T, latched=False):
    """One control_step from a built state; FLEXION stays FLEXION at l = 1.0,
    HOLD stays HOLD above alpha_thr."""
    return control_step(kin, ControllerState(phase, latched), task, G)


def servo(kin, task):
    return G.k_p_alpha * (task.alpha_tgt - kin.alpha) - G.k_d_alpha * kin.alpha_dot


def braking(kin, task):
    """The braking term, written out as the controller's STOP_EXTEND branch has it."""
    if kin.alpha <= task.alpha_thr and kin.alpha_dot < G.alpha_dot_max:
        return -G.k_stp * (task.alpha_thr - kin.alpha) * (1.0 - kin.alpha_dot / G.alpha_dot_max)
    return 0.0


def demo_task(alpha_tgt_deg=68.0, vh=-2.0, vk=-4.0):
    st = LegState(INIT[0], INIT[1], vh, vk)
    task = make_task(math.radians(alpha_tgt_deg), G, P, st)
    return st, task


def rollout(st, task, timeout=2.0):
    """Drive the plant (saturated actuators) until contact or timeout."""
    ctrl = ControllerState()
    steps = []
    while True:
        tq, ctrl = control_step(kinematics(st, P), ctrl, task, G)
        steps.append((st, tq, ctrl))
        if ctrl.contact or st.t >= timeout:
            return st, ctrl, steps
        st = integrate_step(st, saturate(tq, P), P, DT)


# --- hip servo -----------------------------------------------------------

def test_hip_torque_zero_at_target():
    tq, _ = tick(snap(alpha=1.0))
    assert tq.tau_h == 0.0


def test_hip_torque_gains():
    task = SwingTask(alpha_tgt=1.1, alpha_thr=1.2)
    assert tick(snap(alpha=1.0), task=task)[0].tau_h == pytest.approx(11.0)
    assert tick(snap(alpha=1.0, alpha_dot=1.0), task=task)[0].tau_h == pytest.approx(2.5)


def test_hip_torque_additive_term():
    # at the target with zero rate the servo is zero; the braking torque
    # -250 * 0.035 = -8.75 reaches the hip as +17.5
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.035)
    tq, _ = tick(snap(alpha=1.0), Phase.STOP_EXTEND, task)
    assert tq.tau_h == pytest.approx(17.5)
    assert tq.tau_k == pytest.approx(-8.75)


# --- knee phase 1 --------------------------------------------------------

def test_phase1_flexes_while_swinging_forward():
    tq, ctrl = tick(snap(alpha_dot=-1.0))
    assert ctrl.phase is Phase.FLEXION
    assert tq.tau_k == pytest.approx(-23.0)


def test_phase1_silent_otherwise():
    assert tick(snap(alpha_dot=0.5))[0].tau_k == 0.0
    assert tick(snap(alpha_dot=0.0))[0].tau_k == 0.0


# --- knee phase 2 --------------------------------------------------------

def test_phase2_damps_flexion():
    tq, ctrl = tick(snap(alpha=2.0, phi_k_dot=-1.0), Phase.HOLD)
    assert ctrl.phase is Phase.HOLD
    assert tq.tau_k == pytest.approx(4.0)


def test_phase2_zero_rate():
    assert tick(snap(alpha=2.0, phi_k_dot=0.0), Phase.HOLD)[0].tau_k == 0.0


def test_phase2_modulated_extension():
    # -4 * 0.5 * 0.2 * (0.5 - 0.3) = -0.08
    kin = snap(alpha=1.2, alpha_dot=-0.3, phi_k_dot=0.5)
    assert tick(kin, Phase.HOLD)[0].tau_k == pytest.approx(-0.08)


def test_phase2_assists_lagging_extension():
    # knee extending slower than the swing advances: the modulated damping
    # flips sign and pushes the knee out
    kin = snap(alpha=1.2, alpha_dot=-0.9, phi_k_dot=0.5)
    assert tick(kin, Phase.HOLD)[0].tau_k == pytest.approx(0.16)


# --- knee phase 3 --------------------------------------------------------

def test_stopping_zero_at_threshold():
    # at l = l_0 the extension spring is zero whether or not the tick latches
    for ad in (-5.0, 0.0, 9.9):
        kin = snap(alpha=1.1, alpha_dot=ad)
        tq, _ = tick(kin, Phase.STOP_EXTEND)
        assert tq.tau_k == 0.0
        assert tq.tau_h == servo(kin, T)


def test_stopping_gain_arithmetic():
    kin = snap(alpha=1.0, alpha_dot=-5.0)
    tq, ctrl = tick(kin, Phase.STOP_EXTEND)
    assert not ctrl.extension_latched
    assert tq.tau_k == pytest.approx(-37.5)
    assert tq.tau_h == pytest.approx(servo(kin, T) + 75.0)


def test_stopping_inactive_above_rate_limit():
    kin = snap(alpha=1.0, alpha_dot=10.0)
    tq, _ = tick(kin, Phase.STOP_EXTEND)
    assert tq.tau_k == 0.0
    assert tq.tau_h == servo(kin, T)


def test_extension_spring_after_latch():
    kin = snap(alpha=1.1, alpha_dot=0.5, l=0.9)  # stopping component zero
    tq, _ = tick(kin, Phase.STOP_EXTEND, latched=True)
    assert tq.tau_k == pytest.approx(20.0)
    assert tq.tau_h == servo(kin, T)


def test_latch_sets_on_zero_rate_and_holds():
    assert not tick(snap(alpha_dot=-0.1), Phase.STOP_EXTEND)[1].extension_latched
    assert tick(snap(alpha_dot=0.0), Phase.STOP_EXTEND)[1].extension_latched
    # never releases
    assert tick(snap(alpha_dot=-3.0), Phase.STOP_EXTEND, latched=True)[1].extension_latched


def test_latch_only_in_stop_extend():
    for ph in (Phase.FLEXION, Phase.HOLD):
        _, ctrl = tick(snap(alpha=2.0, alpha_dot=0.5), ph)
        assert ctrl.phase is ph
        assert not ctrl.extension_latched


def test_latching_tick_adds_the_spring_and_can_land():
    # -250 * 0.1 * 1 + 200 * (1.0 - 0.9) = -5.0, all on the tick that latches
    for foot_y, lands in ((0.01, False), (0.0, True), (-0.01, True)):
        tq, ctrl = tick(snap(alpha=1.0, alpha_dot=0.0, l=0.9, foot_y=foot_y), Phase.STOP_EXTEND)
        assert ctrl == (Phase.STOP_EXTEND, True, lands)
        assert tq.tau_k == pytest.approx(-5.0)


def test_contact_is_tested_only_in_stop_extend():
    # a foot below the ground lands nothing before STOP_EXTEND, latched or not
    for ph in (Phase.FLEXION, Phase.HOLD):
        for latched in (False, True):
            _, ctrl = tick(snap(alpha=2.0, foot_y=-1.0), ph, latched=latched)
            assert ctrl.phase is ph
            assert not ctrl.contact


# --- phase machine -------------------------------------------------------

def test_controller_state_rejects_field_assignment():
    with pytest.raises(AttributeError):
        ControllerState().contact = True


def test_flexion_to_hold_on_clearance():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1, l_0=1.0)
    assert tick(snap(alpha=2.0, l=0.94), task=task)[1].phase is Phase.HOLD
    assert tick(snap(alpha=2.0, l=0.96), task=task)[1].phase is Phase.FLEXION


def test_hold_to_stop_on_threshold():
    assert tick(snap(alpha=1.09, l=0.9), Phase.HOLD)[1].phase is Phase.STOP_EXTEND
    assert tick(snap(alpha=1.2, l=0.9), Phase.HOLD)[1].phase is Phase.HOLD


def test_stop_extend_is_terminal():
    for kin in (snap(alpha=3.0, l=1.0), snap(alpha=0.1, l=0.2)):
        assert tick(kin, Phase.STOP_EXTEND)[1].phase is Phase.STOP_EXTEND


def test_flexion_tick_moves_one_phase_only():
    # past both the clearance and alpha_thr: the tick ends in HOLD and runs
    # HOLD's knee policy, -4 * -1.0 = 4.0
    tq, ctrl = tick(snap(alpha=1.0, l=0.9, phi_k_dot=-1.0))
    assert ctrl == (Phase.HOLD, False, False)
    assert tq.tau_k == pytest.approx(4.0)


# --- control_step --------------------------------------------------------

def test_initial_state_dispatches_flexion_policy():
    st, task = demo_task(vh=-2.0, vk=-1.0)  # alpha_dot = -1.5
    tq, ctrl = control_step(kinematics(st, P), ControllerState(), task, G)
    assert ctrl.phase is Phase.FLEXION
    kin = kinematics(st, P)
    assert tq.tau_k == pytest.approx(G.k_i * kin.alpha_dot)


def test_servo_and_hold_balance_at_target():
    # the servo is zero at the target with zero rates; HOLD cannot be asked
    # there, as the phase machine is in STOP_EXTEND at alpha <= alpha_thr
    task = SwingTask(alpha_tgt=1.2, alpha_thr=1.2 + G.delta_alpha_thr)
    tq, _ = tick(snap(alpha=1.2, alpha_dot=0.0, phi_k_dot=0.0), task=task)
    assert tq.tau_h == 0.0


def test_rollout_terminates_with_contact():
    st, task = demo_task()
    end, ctrl, steps = rollout(st, task)
    assert ctrl.contact
    assert end.t < 2.0
    phases = [c.phase for _, _, c in steps]
    assert set(phases) == {Phase.FLEXION, Phase.HOLD, Phase.STOP_EXTEND}


def test_phase_sequence_monotone():
    st, task = demo_task(alpha_tgt_deg=80.0, vh=-3.5, vk=-6.0)
    _, _, steps = rollout(st, task)
    phases = [int(c.phase) for _, _, c in steps]
    assert all(b >= a for a, b in zip(phases, phases[1:]))
    # dedup: must be a prefix of [1, 2, 3]
    seen = sorted(set(phases))
    assert seen == list(range(1, len(seen) + 1))


def test_compensation_identity_along_rollout():
    st, task = demo_task(alpha_tgt_deg=72.0)
    _, _, steps = rollout(st, task)
    checked = 0
    for state, tq, ctrl in steps:
        if ctrl.phase is not Phase.STOP_EXTEND:
            continue
        kin = kinematics(state, P)
        tau_iii = braking(kin, task)
        if tau_iii != 0.0:
            assert tq.tau_h == (G.k_p_alpha * (task.alpha_tgt - kin.alpha)
                                - G.k_d_alpha * kin.alpha_dot + -2.0 * tau_iii)
            checked += 1
    assert checked > 10


def test_extension_term_follows_latch_exactly():
    st, task = demo_task(alpha_tgt_deg=60.0)
    _, _, steps = rollout(st, task)
    latched_seen = False
    for state, tq, ctrl in steps:
        if ctrl.phase is not Phase.STOP_EXTEND:
            continue
        kin = kinematics(state, P)
        expect = braking(kin, task)
        if ctrl.extension_latched:
            expect += G.k_ext * (task.l_0 - kin.l)
            latched_seen = True
        assert tq.tau_k == expect
    assert latched_seen


def test_demo_rollout_records_the_control_steps():
    # the library rollout computes one snapshot per tick and hands it to
    # control_step; its rows must be the helper's ticks, value for value
    st, task = demo_task(alpha_tgt_deg=72.0)
    _, _, steps = rollout(st, task)
    traj = run_demo_episode(task, st, G, P, DT)
    assert len(traj) == len(steps)
    for i, (state, tq, ctrl) in enumerate(steps):
        kin = kinematics(state, P)
        applied = saturate(tq, P)
        want = (state.t, state.phi_h, state.phi_k, state.phi_h_dot, state.phi_k_dot,
                kin.alpha, kin.alpha_dot, kin.l, applied.tau_h, applied.tau_k,
                int(ctrl.phase), ctrl.contact)
        got = tuple(getattr(traj, name)[i] for name in (
            "t", "phi_h", "phi_k", "phi_h_dot", "phi_k_dot", "alpha", "alpha_dot",
            "l", "tau_h", "tau_k", "phase", "contact"))
        assert got == want, i
    assert traj.contact[-1] and not traj.timed_out


def test_contact_requires_latched_extension():
    st, task = demo_task()
    _, _, steps = rollout(st, task)
    for _, _, ctrl in steps:
        if ctrl.contact:
            assert ctrl.phase is Phase.STOP_EXTEND
            assert ctrl.extension_latched


def test_ground_is_initial_foot_height():
    st, task = demo_task()
    assert task.ground_y == pytest.approx(kinematics(st, P).foot_y)
    assert task.alpha_thr == pytest.approx(task.alpha_tgt + G.delta_alpha_thr)


# --- demonstration quality ----------------------------------------------

def test_demonstration_landing_quality():
    rng = np.random.default_rng(20240817)
    errs = []
    for _ in range(20):
        tgt = math.radians(rng.uniform(50.0, 85.0))
        vh = rng.uniform(-4.0, 0.0)
        vk = rng.uniform(-7.0, -1.0)
        st = LegState(INIT[0], INIT[1], vh, vk)
        task = make_task(tgt, G, P, st)
        end, ctrl, _ = rollout(st, task)
        assert ctrl.contact, "episode must land, not time out"
        errs.append(abs(math.degrees(tgt - kinematics(end, P).alpha)))
    assert sum(errs) / len(errs) <= 4.0
    assert max(errs) <= 8.0
