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
    hip_torque,
    knee_phase1,
    knee_phase2,
    knee_phase3,
    make_task,
    stopping_torque,
    update_latch,
    update_phase,
)

P = LegParams()
G = ControllerGains()
DT = 1e-3
INIT = (math.radians(220.0), math.radians(175.0))


def snap(alpha=0.0, alpha_dot=0.0, l=1.0, phi_k_dot=0.0):
    return KinematicSnapshot(alpha=alpha, alpha_dot=alpha_dot, l=l, foot_y=0.0,
                             phi_k_dot=phi_k_dot)


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
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    assert hip_torque(snap(alpha=1.0), task, G) == 0.0


def test_hip_torque_gains():
    task = SwingTask(alpha_tgt=1.1, alpha_thr=1.2)
    assert hip_torque(snap(alpha=1.0), task, G) == pytest.approx(11.0)
    assert hip_torque(snap(alpha=1.0, alpha_dot=1.0), task, G) == pytest.approx(2.5)


def test_hip_torque_additive_term():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    assert hip_torque(snap(alpha=1.0), task, G, tau_add=17.5) == pytest.approx(17.5)


# --- knee phase 1 --------------------------------------------------------

def test_phase1_flexes_while_swinging_forward():
    assert knee_phase1(snap(alpha_dot=-1.0), G) == pytest.approx(-23.0)


def test_phase1_silent_otherwise():
    assert knee_phase1(snap(alpha_dot=0.5), G) == 0.0
    assert knee_phase1(snap(alpha_dot=0.0), G) == 0.0


# --- knee phase 2 --------------------------------------------------------

def test_phase2_damps_flexion():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    assert knee_phase2(snap(phi_k_dot=-1.0), task, G) == pytest.approx(4.0)


def test_phase2_zero_rate():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    assert knee_phase2(snap(phi_k_dot=0.0), task, G) == 0.0


def test_phase2_modulated_extension():
    # -4 * 0.5 * 0.2 * (0.5 - 0.3) = -0.08
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    kin = snap(alpha=1.2, alpha_dot=-0.3, phi_k_dot=0.5)
    assert knee_phase2(kin, task, G) == pytest.approx(-0.08)


def test_phase2_assists_lagging_extension():
    # knee extending slower than the swing advances: the modulated damping
    # flips sign and pushes the knee out
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    kin = snap(alpha=1.2, alpha_dot=-0.9, phi_k_dot=0.5)
    assert knee_phase2(kin, task, G) == pytest.approx(0.16)


# --- knee phase 3 --------------------------------------------------------

def test_stopping_zero_at_threshold():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    for ad in (-5.0, 0.0, 9.9):
        assert stopping_torque(snap(alpha=1.1, alpha_dot=ad), task, G) == 0.0


def test_stopping_gain_arithmetic():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    kin = snap(alpha=1.0, alpha_dot=-5.0)
    tau_k, tau_add, _ = knee_phase3(kin, ControllerState(phase=Phase.STOP_EXTEND), task, G)
    assert tau_k == pytest.approx(-37.5)
    assert tau_add == pytest.approx(75.0)


def test_stopping_inactive_above_rate_limit():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    assert stopping_torque(snap(alpha=1.0, alpha_dot=10.0), task, G) == 0.0


def test_extension_spring_after_latch():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    ctrl = ControllerState(phase=Phase.STOP_EXTEND, extension_latched=True)
    kin = snap(alpha=1.1, alpha_dot=0.5, l=0.9)  # stopping component zero
    tau_k, tau_add, _ = knee_phase3(kin, ctrl, task, G)
    assert tau_k == pytest.approx(20.0)
    assert tau_add == 0.0


def test_latch_sets_on_zero_rate_and_holds():
    ctrl = ControllerState(phase=Phase.STOP_EXTEND)
    assert not update_latch(ctrl, snap(alpha_dot=-0.1)).extension_latched
    latched = update_latch(ctrl, snap(alpha_dot=0.0))
    assert latched.extension_latched
    # never releases
    assert update_latch(latched, snap(alpha_dot=-3.0)).extension_latched


def test_latch_only_in_stop_extend():
    for ph in (Phase.FLEXION, Phase.HOLD):
        ctrl = ControllerState(phase=ph)
        assert not update_latch(ctrl, snap(alpha_dot=0.5)).extension_latched


# --- phase machine -------------------------------------------------------

def test_controller_state_rejects_field_assignment():
    with pytest.raises(AttributeError):
        ControllerState().contact = True


def test_flexion_to_hold_on_clearance():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1, l_clr=0.05, l_0=1.0)
    assert update_phase(ControllerState(), snap(alpha=2.0, l=0.94), task).phase is Phase.HOLD
    assert update_phase(ControllerState(), snap(alpha=2.0, l=0.96), task).phase is Phase.FLEXION


def test_hold_to_stop_on_threshold():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    ctrl = ControllerState(phase=Phase.HOLD)
    assert update_phase(ctrl, snap(alpha=1.09, l=0.9), task).phase is Phase.STOP_EXTEND
    assert update_phase(ctrl, snap(alpha=1.2, l=0.9), task).phase is Phase.HOLD


def test_stop_extend_is_terminal():
    task = SwingTask(alpha_tgt=1.0, alpha_thr=1.1)
    ctrl = ControllerState(phase=Phase.STOP_EXTEND)
    for kin in (snap(alpha=3.0, l=1.0), snap(alpha=0.1, l=0.2)):
        assert update_phase(ctrl, kin, task).phase is Phase.STOP_EXTEND


# --- control_step --------------------------------------------------------

def test_initial_state_dispatches_flexion_policy():
    st, task = demo_task(vh=-2.0, vk=-1.0)  # alpha_dot = -1.5
    tq, ctrl = control_step(kinematics(st, P), ControllerState(), task, G)
    assert ctrl.phase is Phase.FLEXION
    kin = kinematics(st, P)
    assert tq.tau_k == pytest.approx(G.k_i * kin.alpha_dot)


def test_servo_and_hold_balance_at_target():
    # both policies are zero at the target with zero rates; evaluated
    # directly because the phase machine would already be in StopExtend
    # at alpha <= alpha_thr
    task = SwingTask(alpha_tgt=1.2, alpha_thr=1.2 + G.delta_alpha_thr)
    kin = snap(alpha=1.2, alpha_dot=0.0, phi_k_dot=0.0)
    assert hip_torque(kin, task, G) == 0.0
    assert knee_phase2(kin, task, G) == 0.0


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
        tau_iii = stopping_torque(kin, task, G)
        if tau_iii != 0.0:
            assert tq.tau_h == hip_torque(kin, task, G, -2.0 * tau_iii)
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
        expect = stopping_torque(kin, task, G)
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
