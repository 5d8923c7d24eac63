"""Demonstration swing-leg controller: one hip policy plus three knee
policies dispatched by a one-way phase machine, all in `control_step`.

- FLEXION: flex the knee while the leg swings forward, until the leg has
  shortened by L_CLR.
- HOLD: hold the knee while the hip servo advances the leg, until the leg
  angle reaches alpha_thr. An extending knee's damping is scaled by the
  leg-angle error and the rate mismatch (phi_k_dot + alpha_dot): it assists
  a knee that extends slower than the leg swings and resists one that
  outruns it, so the leg straightens while the target is approached.
- STOP_EXTEND: brake the swing, then extend the leg until ground contact.
- Hip: a leg-angle servo. The stopping torque is mirrored to it as a
  compensation torque so the braking does not disturb the servo.

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


# the leg shortening (m) that ends flexion
L_CLR = 0.05


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
        # the stopping torque divides by alpha_dot_max, and a negative one inverts the braking
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


def control_step(
    kin: KinematicSnapshot,
    ctrl: ControllerState,
    task: SwingTask,
    gains: ControllerGains,
) -> tuple[JointTorques, ControllerState]:
    """One control tick on the kinematic snapshot `kin` (`dynamics.kinematics`):
    at most one phase step, decided on the phase the tick starts in, then the
    knee policy of the phase it ends in and the hip servo. The latch and the
    contact are set only in STOP_EXTEND, so mid-swing grazing cannot land."""
    phase, latched, contact = ctrl
    if phase is Phase.FLEXION and kin.l <= task.l_0 - L_CLR:
        phase = Phase.HOLD
    elif phase is Phase.HOLD and kin.alpha <= task.alpha_thr:
        phase = Phase.STOP_EXTEND
    tau_add = 0.0
    if phase is Phase.FLEXION:
        # adaptive flexion: assist only while the leg swings forward
        tau_k = gains.k_i * kin.alpha_dot if kin.alpha_dot <= 0.0 else 0.0
    elif phase is Phase.HOLD:
        # rate damping while the knee flexes, modulated damping while it extends
        pkd = kin.phi_k_dot
        if pkd <= 0.0:
            tau_k = -gains.k_ii * pkd
        else:
            tau_k = -gains.k_ii * pkd * (kin.alpha - task.alpha_tgt) * (pkd + kin.alpha_dot)
    else:
        # braking inside the threshold, mirrored to the hip as -2x; the spring
        # k_ext*(l_0 - l) latches on once the leg's angular rate reaches zero
        tau_iii = 0.0
        if kin.alpha <= task.alpha_thr and kin.alpha_dot < gains.alpha_dot_max:
            tau_iii = (
                -gains.k_stp
                * (task.alpha_thr - kin.alpha)
                * (1.0 - kin.alpha_dot / gains.alpha_dot_max)
            )
        if kin.alpha_dot >= 0.0:
            latched = True
        tau_k = tau_iii
        if latched:
            tau_k += gains.k_ext * (task.l_0 - kin.l)
        tau_add = -2.0 * tau_iii
        if latched and kin.foot_y <= task.ground_y:
            contact = True
    # the + tau_add stays when it is 0.0: it turns a -0.0 torque into +0.0
    tau_h = (
        gains.k_p_alpha * (task.alpha_tgt - kin.alpha)
        - gains.k_d_alpha * kin.alpha_dot
        + tau_add
    )
    return JointTorques(tau_h, tau_k), ControllerState(phase, latched, contact)
