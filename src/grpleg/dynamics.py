"""Planar double-pendulum swing leg.

Hip pinned at the world origin, x forward, y up. The thigh (length l_t,
point mass m_t at midpoint) hangs from the hip; the shank (l_s, m_s at
midpoint) hangs from the knee. Generalized coordinates are the hip angle
phi_h and the interior knee angle phi_k (pi = fully extended), both in
radians. Segment angles are measured from the forward horizontal sweeping
downward, so a point at angle u and distance r sits at (r*cos u, -r*sin u).

Leg-axis quantities follow the symmetric-segment geometry:
    alpha = phi_h - phi_k/2        leg angle
    l     = 2*l_t*sin(phi_k/2)     leg length

The plant's equations of motion are one function on plain floats,
`accelerations`, which `integrate_step` calls at each of its four RK4
stages. It holds the knee's unilateral hyperextension stop: past phi_k = pi
a stiff spring-damper, -k_stop*(phi_k - pi) - c_stop*phi_k_dot clamped to
<= 0, pushes back toward flexion (never pulls) as an internal knee torque.
Joint actuators saturate at +-tau_max; the clamp is applied by `saturate`,
not inside `accelerations`, so the equations of motion stay defined for
arbitrary applied torques.

The per-tick records (`LegState`, `JointTorques`, `KinematicSnapshot`) are
immutable `NamedTuple`s: the plant builds several per 1 kHz tick, and a
tuple is about half the cost of a frozen dataclass to build. `LegParams`
stays a frozen dataclass, whose fields the config walker reads; it computes
its mass-matrix and gravity coefficients once, when built, and keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import NonFiniteError, _check_fields


@dataclass(frozen=True)
class LegParams:
    """Segment lengths/masses (SI units). Defaults are anthropomorphic
    values for a 180 cm / 80 kg human."""

    l_t: float = 0.5
    l_s: float = 0.5
    m_t: float = 7.3
    m_s: float = 4.3
    g: float = 9.81
    # knee hyperextension stop (unilateral spring-damper past phi_k = pi);
    # zero stiffness and damping disables it
    knee_stop_stiffness: float = 2.0e4
    knee_stop_damping: float = 150.0
    # actuator saturation, both joints (N*m)
    tau_max: float = 60.0

    def __post_init__(self):
        _check_fields(self, l_t="> 0", l_s="> 0", m_t="> 0", m_s="> 0", g="> 0",
                      tau_max="> 0", knee_stop_stiffness=">= 0", knee_stop_damping=">= 0")
        a, b, c, *_ = coefficients = self._mass_coefficients  # a * b: largest term of det
        if not all(map(math.isfinite, (*coefficients, a * b))):
            raise ValueError("LegParams l_t, l_s, m_t, m_s and g give a mass matrix "
                             "or gravity term that overflows a float")
        # det(M) = a*b - (c*cos(delta))^2 rounds to no less than a*b - c*c
        if not a * b - c * c > 1e-12:
            raise ValueError("singular mass matrix: LegParams l_t, l_s, m_t, m_s give det <= 1e-12")

    @property
    def l_0(self) -> float:
        """Rest leg length (fully extended)."""
        return self.l_t + self.l_s

    @cached_property
    def _mass_coefficients(self) -> tuple[float, float, float, float, float]:
        """(a, b, c, d1, d2): the mass-matrix terms a, b, c and the gravity
        terms d1, d2 of the equations of motion. __post_init__ computes and
        checks them; `dataclasses.replace` builds a new instance, so changed
        fields never see stale values."""
        lt, ls, mt, ms, g = self.l_t, self.l_s, self.m_t, self.m_s, self.g
        return ((0.25 * mt + ms) * lt * lt, 0.25 * ms * ls * ls, 0.5 * ms * lt * ls,
                (0.5 * mt + ms) * lt * g, 0.5 * ms * ls * g)


class LegState(NamedTuple):
    phi_h: float
    phi_k: float
    phi_h_dot: float
    phi_k_dot: float
    t: float = 0.0


class JointTorques(NamedTuple):
    tau_h: float = 0.0
    tau_k: float = 0.0


class KinematicSnapshot(NamedTuple):
    alpha: float
    alpha_dot: float
    l: float
    foot_y: float
    # knee joint rate, carried along for the knee policies
    phi_k_dot: float = 0.0


def _segment_angles(phi_h: float, phi_k: float) -> tuple[float, float]:
    # absolute thigh/shank angles (downward-sweep convention)
    return phi_h - 0.5 * math.pi, phi_h + 0.5 * math.pi - phi_k


def kinematics(state: LegState, params: LegParams) -> KinematicSnapshot:
    """Leg angle, rate and length and the foot's height for the current state."""
    phi_h, phi_k, phi_h_dot, phi_k_dot, _ = state
    lt, ls = params.l_t, params.l_s
    theta_t, theta_s = _segment_angles(phi_h, phi_k)
    knee_y = -lt * math.sin(theta_t)
    # positional: keyword arguments cost a NamedTuple more than the arithmetic
    return KinematicSnapshot(
        phi_h - 0.5 * phi_k,                # alpha
        phi_h_dot - 0.5 * phi_k_dot,        # alpha_dot
        2.0 * lt * math.sin(0.5 * phi_k),   # l
        knee_y - ls * math.sin(theta_s),    # foot_y
        phi_k_dot,
    )


def saturate(torques: JointTorques, params: LegParams) -> JointTorques:
    """Actuator model: clamp both joint torques to [-tau_max, +tau_max].

    Infinite torques clamp like any other; a NaN torque has no sign to
    clamp toward and raises ValueError naming the joint.
    """
    m = params.tau_max
    tau_h, tau_k = torques
    # in range, the clamp gives back the same floats (-0.0 and +-tau_max
    # included); NaN fails every comparison and falls through
    if -m <= tau_h <= m and -m <= tau_k <= m:
        return torques
    if tau_h != tau_h or tau_k != tau_k:  # only NaN is unequal to itself
        joint = "tau_h" if tau_h != tau_h else "tau_k"
        raise ValueError(f"{joint} torque is NaN; it cannot be saturated")
    return JointTorques(max(-m, min(m, tau_h)), max(-m, min(m, tau_k)))


def accelerations(
    phi_h: float,
    phi_k: float,
    phi_h_dot: float,
    phi_k_dot: float,
    tau_h: float,
    tau_k: float,
    params: LegParams,
) -> tuple[float, float]:
    """Generalized accelerations (phi_h_ddot, phi_k_ddot) under gravity, the
    applied joint torques and the knee stop, which adds to tau_k: zero while
    pen = phi_k - pi <= 0, else -k_stop*pen - c_stop*phi_k_dot clamped to <= 0,
    so it never pulls the knee into extension while it unloads.

    Derived from the Lagrangian in absolute segment angles (theta_t, theta_s)
    where the point-mass double-pendulum equations are standard:

        a*tt_dd + c*cos(d)*ts_dd + c*sin(d)*ts_d^2 - d1*cos(tt) = tau_h + tau_k
        b*ts_dd + c*cos(d)*tt_dd - c*sin(d)*tt_d^2 - d2*cos(ts) = -tau_k

    with d = theta_t - theta_s. The generalized-force mapping follows from
    phi_h = theta_t + pi/2, phi_k = theta_t - theta_s + pi (virtual work).
    """
    pen = phi_k - math.pi
    stop = 0.0 if pen <= 0.0 else min(
        -params.knee_stop_stiffness * pen - params.knee_stop_damping * phi_k_dot, 0.0)
    tau_k = tau_k + stop  # added even when 0.0, which turns a -0.0 torque into +0.0

    theta_t = phi_h - 0.5 * math.pi
    theta_s = phi_h + 0.5 * math.pi - phi_k
    tt_d = phi_h_dot
    ts_d = phi_h_dot - phi_k_dot
    a, b, c, d1, d2 = params._mass_coefficients

    delta = theta_t - theta_s
    cd, sd = math.cos(delta), math.sin(delta)

    rhs_t = (tau_h + tau_k) + d1 * math.cos(theta_t) - c * sd * ts_d * ts_d
    rhs_s = -tau_k + d2 * math.cos(theta_s) + c * sd * tt_d * tt_d

    m12 = c * cd
    det = a * b - m12 * m12
    if not det > 1e-12:  # only a NaN angle: LegParams keeps det above 1e-12
        raise ValueError("NaN joint angle in the mass matrix")

    tt_dd = (b * rhs_t - m12 * rhs_s) / det
    ts_dd = (a * rhs_s - m12 * rhs_t) / det
    return tt_dd, tt_dd - ts_dd


def integrate_step(
    state: LegState, torques: JointTorques, params: LegParams, dt: float
) -> LegState:
    """One classical 4th-order fixed step with torques held constant; raises
    NonFiniteError, naming the step's time, if the state or torque goes non-finite."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    th, tk = torques
    h = 0.5 * dt
    qh, qk, vh, vk, t = state
    # stage j evaluates the accelerations (ah_j, ak_j) at rates (vh_j, vk_j)
    try:
        ah1, ak1 = accelerations(qh, qk, vh, vk, th, tk, params)
        vh2, vk2 = vh + h * ah1, vk + h * ak1
        ah2, ak2 = accelerations(qh + h * vh, qk + h * vk, vh2, vk2, th, tk, params)
        vh3, vk3 = vh + h * ah2, vk + h * ak2
        ah3, ak3 = accelerations(qh + h * vh2, qk + h * vk2, vh3, vk3, th, tk, params)
        vh4, vk4 = vh + dt * ah3, vk + dt * ak3
        ah4, ak4 = accelerations(qh + dt * vh3, qk + dt * vk3, vh4, vk4, th, tk, params)
    except ValueError as exc:  # math.cos(inf), or a NaN angle in the mass matrix
        raise NonFiniteError(
            f"non-finite state or torque in integration step at t={t}: {exc}"
        ) from exc
    s = dt / 6.0
    out = (
        qh + s * (vh + 2.0 * vh2 + 2.0 * vh3 + vh4),
        qk + s * (vk + 2.0 * vk2 + 2.0 * vk3 + vk4),
        vh + s * (ah1 + 2.0 * ah2 + 2.0 * ah3 + ah4),
        vk + s * (ak1 + 2.0 * ak2 + 2.0 * ak3 + ak4),
    )
    if not all(map(math.isfinite, out)):
        raise NonFiniteError(f"non-finite state after integration step at t={t}")
    return LegState(*out, t + dt)


def total_energy(state: LegState, params: LegParams) -> float:
    """Kinetic plus potential energy (J); potential zero at hip height."""
    lt, ls, mt, ms, g = params.l_t, params.l_s, params.m_t, params.m_s, params.g
    theta_t, theta_s = _segment_angles(state.phi_h, state.phi_k)
    tt_d = state.phi_h_dot
    ts_d = state.phi_h_dot - state.phi_k_dot

    a, b, c, _, _ = params._mass_coefficients
    kinetic = (
        0.5 * a * tt_d * tt_d
        + 0.5 * b * ts_d * ts_d
        + c * tt_d * ts_d * math.cos(theta_t - theta_s)
    )
    # mass heights: thigh mass at l_t/2, shank mass at knee + l_s/2
    y_t = -0.5 * lt * math.sin(theta_t)
    y_s = -lt * math.sin(theta_t) - 0.5 * ls * math.sin(theta_s)
    potential = g * (mt * y_t + ms * y_s)
    return kinetic + potential
