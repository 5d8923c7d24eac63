"""Demonstration swing-leg controller.

One hip policy plus three knee policies dispatched by a one-way phase
machine: flex until the leg has shortened past the clearance, hold the knee
while the hip servo advances the leg, then stop the swing and extend until
ground contact. The stopping torque is mirrored to the hip as a
compensation torque so the braking does not disturb the leg-angle servo.

Angles in radians, torques in N*m. Positive knee torque extends the leg
(drives phi_k toward pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from . import _check_fields
from .dynamics import JointTorques, KinematicSnapshot, LegParams, LegState, kinematics


class Phase(IntEnum):
    FLEXION = 1
    HOLD = 2
    STOP_EXTEND = 3


@dataclass(frozen=True)
class ControllerGains:
    """Hand-tuned control gains; errors are expressed in radians."""

    k_p_alpha: float = 110.0
    k_d_alpha: float = 8.5
    k_i: float = 23.0
    k_ii: float = 4.0
    k_stp: float = 250.0
    k_ext: float = 200.0
    alpha_dot_max: float = 10.0
    delta_alpha_thr: float = math.radians(8.0)

    def __post_init__(self):
        # stopping_torque divides by alpha_dot_max, and a negative one inverts the braking
        _check_fields(self, alpha_dot_max="> 0")


@dataclass(frozen=True)
class SwingTask:
    """One swing: target leg angle plus the geometric context of the episode.

    alpha_thr is the stopping threshold alpha_tgt + delta_alpha_thr; ground_y
    is the foot height at the episode's initial configuration; l_0 the rest
    leg length the extension torque works toward.
    """

    alpha_tgt: float
    alpha_thr: float
    l_clr: float = 0.05
    ground_y: float = 0.0
    l_0: float = 1.0


def make_task(
    alpha_tgt: float,
    gains: ControllerGains,
    params: LegParams,
    init_state: LegState,
) -> SwingTask:
    """Build a SwingTask; the ground is set at the initial foot height."""
    return SwingTask(
        alpha_tgt=alpha_tgt,
        alpha_thr=alpha_tgt + gains.delta_alpha_thr,
        ground_y=kinematics(init_state, params).foot_y,
        l_0=params.l_0,
    )


class ControllerState(NamedTuple):
    phase: Phase = Phase.FLEXION
    extension_latched: bool = False
    contact: bool = False


def hip_torque(
    kin: KinematicSnapshot, task: SwingTask, gains: ControllerGains, tau_add: float = 0.0
) -> float:
    """Leg-angle servo plus the knee-coupling compensation term."""
    return (
        gains.k_p_alpha * (task.alpha_tgt - kin.alpha)
        - gains.k_d_alpha * kin.alpha_dot
        + tau_add
    )


def knee_phase1(kin: KinematicSnapshot, gains: ControllerGains) -> float:
    """Adaptive flexion: assist only while the leg swings forward."""
    if kin.alpha_dot <= 0.0:
        return gains.k_i * kin.alpha_dot
    return 0.0


def knee_phase2(kin: KinematicSnapshot, task: SwingTask, gains: ControllerGains) -> float:
    """Hold the knee: plain rate damping while it flexes; while it extends,
    the damping is modulated by the leg-angle error and the rate mismatch
    (phi_k_dot + alpha_dot).

    The modulated term drives the extension rate toward -alpha_dot: it
    assists a knee that extends slower than the leg swings and resists one
    that outruns it, so the leg straightens while the target is approached
    instead of after.
    """
    pkd = kin.phi_k_dot
    if pkd <= 0.0:
        return -gains.k_ii * pkd
    return -gains.k_ii * pkd * (kin.alpha - task.alpha_tgt) * (pkd + kin.alpha_dot)


def stopping_torque(kin: KinematicSnapshot, task: SwingTask, gains: ControllerGains) -> float:
    """Nonlinear-contact-style braking torque; active inside the threshold
    while the leg is slower than alpha_dot_max."""
    if kin.alpha <= task.alpha_thr and kin.alpha_dot < gains.alpha_dot_max:
        return (
            -gains.k_stp
            * (task.alpha_thr - kin.alpha)
            * (1.0 - kin.alpha_dot / gains.alpha_dot_max)
        )
    return 0.0


def update_latch(ctrl: ControllerState, kin: KinematicSnapshot) -> ControllerState:
    """Arm the knee extension once the stopped leg's angular rate reaches
    zero; the latch never releases."""
    if ctrl.phase is Phase.STOP_EXTEND and not ctrl.extension_latched and kin.alpha_dot >= 0.0:
        return ctrl._replace(extension_latched=True)
    return ctrl


def knee_phase3(
    kin: KinematicSnapshot, ctrl: ControllerState, task: SwingTask, gains: ControllerGains
) -> tuple[float, float, ControllerState]:
    """Stop the swing and extend the leg.

    Returns (tau_k, tau_add_h, updated controller state). The hip receives
    -2x the stopping torque; once latched, the extension spring
    k_ext*(l_0 - l) is always on.
    """
    tau_iii = stopping_torque(kin, task, gains)
    ctrl = update_latch(ctrl, kin)
    tau_k = tau_iii
    if ctrl.extension_latched:
        tau_k += gains.k_ext * (task.l_0 - kin.l)
    return tau_k, -2.0 * tau_iii, ctrl


def update_phase(ctrl: ControllerState, kin: KinematicSnapshot, task: SwingTask) -> ControllerState:
    """One-way phase progression: flexion ends once the leg has shortened by
    the clearance; holding ends once the leg angle passes the threshold."""
    if ctrl.phase is Phase.FLEXION and kin.l <= task.l_0 - task.l_clr:
        return ctrl._replace(phase=Phase.HOLD)
    if ctrl.phase is Phase.HOLD and kin.alpha <= task.alpha_thr:
        return ctrl._replace(phase=Phase.STOP_EXTEND)
    return ctrl


def update_contact(ctrl: ControllerState, kin: KinematicSnapshot, task: SwingTask) -> ControllerState:
    """Ground contact, tested only during latched extension so mid-swing
    grazing cannot end the episode."""
    if (
        ctrl.phase is Phase.STOP_EXTEND
        and ctrl.extension_latched
        and not ctrl.contact
        and kin.foot_y <= task.ground_y
    ):
        return ctrl._replace(contact=True)
    return ctrl


def control_step(
    kin: KinematicSnapshot,
    ctrl: ControllerState,
    task: SwingTask,
    gains: ControllerGains,
) -> tuple[JointTorques, ControllerState]:
    """One control tick on the kinematic snapshot `kin` of the current state
    (`dynamics.kinematics`): phase update, knee-policy dispatch, hip
    composition, contact test."""
    ctrl = update_phase(ctrl, kin, task)
    tau_add = 0.0
    if ctrl.phase is Phase.FLEXION:
        tau_k = knee_phase1(kin, gains)
    elif ctrl.phase is Phase.HOLD:
        tau_k = knee_phase2(kin, task, gains)
    else:
        tau_k, tau_add, ctrl = knee_phase3(kin, ctrl, task, gains)
    tau_h = hip_torque(kin, task, gains, tau_add)
    ctrl = update_contact(ctrl, kin, task)
    return JointTorques(tau_h, tau_k), ctrl
