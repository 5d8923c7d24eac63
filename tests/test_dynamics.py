"""Double-pendulum plant checks: geometry, an independent high-precision
Euler-Lagrange oracle for the accelerations, and integrator quality."""

import dataclasses
import math
import struct

import mpmath as mp
import numpy as np
import pytest

from grpleg import NonFiniteError
from grpleg.dynamics import (
    JointTorques,
    KinematicSnapshot,
    LegParams,
    LegState,
    accelerations,
    integrate_step,
    kinematics,
    knee_stop_torque,
    saturate,
    total_energy,
)

P = LegParams()
# stop disabled: probes of the smooth equations of motion use this
P_FREE = LegParams(knee_stop_stiffness=0.0, knee_stop_damping=0.0)

mp.mp.dps = 40


# --- independent oracle -------------------------------------------------
# Re-states the geometry on purpose (a point at downward-sweep angle u and
# radius r sits at (r*cos u, -r*sin u)); shares no code with the plant.

def _mass_positions(q1, q2, params):
    lt, ls = mp.mpf(params.l_t), mp.mpf(params.l_s)
    th_t = q1 - mp.pi / 2
    th_s = q1 + mp.pi / 2 - q2
    pt = (lt / 2 * mp.cos(th_t), -lt / 2 * mp.sin(th_t))
    ps = (
        lt * mp.cos(th_t) + ls / 2 * mp.cos(th_s),
        -lt * mp.sin(th_t) - ls / 2 * mp.sin(th_s),
    )
    return pt, ps


def _lagrangian(q1, q2, v1, v2, params):
    # velocities by central differences of the position map along the flow
    eps = mp.mpf(10) ** -15
    pp = _mass_positions(q1 + eps * v1, q2 + eps * v2, params)
    pm = _mass_positions(q1 - eps * v1, q2 - eps * v2, params)
    masses = (mp.mpf(params.m_t), mp.mpf(params.m_s))
    T = mp.mpf(0)
    for (xp, yp), (xm, ym), m in zip(pp, pm, masses):
        vx = (xp - xm) / (2 * eps)
        vy = (yp - ym) / (2 * eps)
        T += m / 2 * (vx * vx + vy * vy)
    V = mp.mpf(0)
    for (_, y), m in zip(_mass_positions(q1, q2, params), masses):
        V += m * mp.mpf(params.g) * y
    return T - V


def lagrangian_oracle_accel(q1, q2, v1, v2, tau1, tau2, params=P):
    """Solve M qdd = Q + dL/dq - C qd with every term taken from finite
    differences of the numeric Lagrangian (mpmath, 40 digits)."""
    pt = (mp.mpf(q1), mp.mpf(q2), mp.mpf(v1), mp.mpf(v2))
    L = lambda a, b, c, d: _lagrangian(a, b, c, d, params)
    M = mp.matrix(2, 2)
    M[0, 0] = mp.diff(L, pt, (0, 0, 2, 0))
    M[1, 1] = mp.diff(L, pt, (0, 0, 0, 2))
    M[0, 1] = M[1, 0] = mp.diff(L, pt, (0, 0, 1, 1))
    C = mp.matrix(2, 2)
    C[0, 0] = mp.diff(L, pt, (1, 0, 1, 0))
    C[0, 1] = mp.diff(L, pt, (0, 1, 1, 0))
    C[1, 0] = mp.diff(L, pt, (1, 0, 0, 1))
    C[1, 1] = mp.diff(L, pt, (0, 1, 0, 1))
    g = mp.matrix([mp.diff(L, pt, (1, 0, 0, 0)), mp.diff(L, pt, (0, 1, 0, 0))])
    rhs = mp.matrix([mp.mpf(tau1), mp.mpf(tau2)]) + g - C * mp.matrix([pt[2], pt[3]])
    acc = mp.lu_solve(M, rhs)
    return float(acc[0]), float(acc[1])


# --- kinematics ---------------------------------------------------------

def test_paper_initial_leg_angle():
    st = LegState(math.radians(220.0), math.radians(175.0), 0.0, 0.0)
    kin = kinematics(st, P)
    assert kin.alpha == pytest.approx(math.radians(132.5), abs=1e-12)


def test_leg_length_formula():
    assert kinematics(LegState(math.pi, math.pi, 0, 0), P).l == pytest.approx(1.0, abs=1e-12)
    assert kinematics(LegState(math.pi, math.pi / 3, 0, 0), P).l == pytest.approx(0.5, abs=1e-12)


def test_foot_lies_on_leg_axis():
    rng = np.random.default_rng(3)
    for _ in range(200):
        st = LegState(
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0.05, math.pi),
            rng.uniform(-10, 10),
            rng.uniform(-10, 10),
        )
        kin = kinematics(st, P)
        # the foot sits at distance l along the leg angle alpha
        assert kin.foot_y == pytest.approx(-kin.l * math.sin(kin.alpha), abs=1e-12)


def test_alpha_dot_definition():
    st = LegState(1.0, 2.0, -3.0, -4.0)
    assert kinematics(st, P).alpha_dot == pytest.approx(-3.0 + 2.0, abs=1e-15)


# --- accelerations ------------------------------------------------------

def test_straight_down_equilibrium():
    acc = accelerations(LegState(math.pi, math.pi, 0, 0), JointTorques(), P)
    # float pi is not the exact real equilibrium angle; residual is O(g*eps)
    assert abs(acc[0]) < 5e-14
    assert abs(acc[1]) < 5e-14


def test_horizontal_leg_spot_value():
    # frozen from lagrangian_oracle_accel(pi/2, pi, 0, 0, 0, 0)
    acc = accelerations(LegState(math.pi / 2, math.pi, 0, 0), JointTorques(), P)
    assert acc[0] == pytest.approx(39.24, rel=1e-9)
    assert acc[1] == pytest.approx(78.48, rel=1e-9)


def test_accelerations_match_lagrangian_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        q1 = rng.uniform(0, 2 * math.pi)
        q2 = rng.uniform(0.2, math.pi)
        v1, v2 = rng.uniform(-8, 8, 2)
        t1, t2 = rng.uniform(-150, 150, 2)
        ora = lagrangian_oracle_accel(q1, q2, v1, v2, t1, t2)
        ana = accelerations(LegState(q1, q2, v1, v2), JointTorques(t1, t2), P)
        for o, a in zip(ora, ana):
            worst = max(worst, abs(o - a) / max(1.0, abs(o)))
    assert worst < 1e-6


def test_mass_matrix_spd_everywhere():
    # accelerations must stay finite across the whole knee range
    for phi_k in np.linspace(1e-3, math.pi, 50):
        acc = accelerations(LegState(2.0, float(phi_k), 1.0, -2.0), JointTorques(5, -5), P)
        assert all(math.isfinite(a) for a in acc)


# --- integrator ---------------------------------------------------------

def test_equilibrium_is_fixed_point():
    st = LegState(math.pi, math.pi, 0, 0)
    nxt = integrate_step(st, JointTorques(), P, 1e-3)
    assert nxt.t == pytest.approx(1e-3)
    assert nxt.phi_h == pytest.approx(st.phi_h, abs=1e-12)
    assert nxt.phi_k == pytest.approx(st.phi_k, abs=1e-12)
    assert abs(nxt.phi_h_dot) < 1e-12 and abs(nxt.phi_k_dot) < 1e-12


def test_time_reversibility():
    st = LegState(math.radians(220), math.radians(175), -2.0, -4.0)
    fwd = integrate_step(st, JointTorques(), P, 1e-3)
    back = integrate_step(
        LegState(fwd.phi_h, fwd.phi_k, -fwd.phi_h_dot, -fwd.phi_k_dot), JointTorques(), P, 1e-3
    )
    assert back.phi_h == pytest.approx(st.phi_h, abs=1e-9)
    assert back.phi_k == pytest.approx(st.phi_k, abs=1e-9)
    assert -back.phi_h_dot == pytest.approx(st.phi_h_dot, abs=1e-9)
    assert -back.phi_k_dot == pytest.approx(st.phi_k_dot, abs=1e-9)


def test_rk4_convergence_order():
    start = LegState(2.0, 2.0, 1.0, -3.0)
    window = 0.16

    def run(dt):
        st = start
        for _ in range(round(window / dt)):
            st = integrate_step(st, JointTorques(), P_FREE, dt)
        return st

    ref = run(2e-2 / 64)

    def err(dt):
        st = run(dt)
        return math.hypot(
            st.phi_h - ref.phi_h,
            st.phi_k - ref.phi_k,
            st.phi_h_dot - ref.phi_h_dot,
            st.phi_k_dot - ref.phi_k_dot,
        )

    ratio = err(2e-2) / err(1e-2)
    assert 12.0 < ratio < 22.0  # ~16x, 4th-order global error


@pytest.mark.parametrize("dt", [0.0, math.inf, math.nan], ids=["zero", "inf", "nan"])
def test_rejects_nonpositive_dt(dt):
    """A dt that is not finite and positive is refused in check_swing_steps'
    words, before any stage blames the state."""
    with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {dt}$"):
        integrate_step(LegState(1, 1, 0, 0), JointTorques(), P, dt)


def test_nonfinite_step_raises_dedicated_error():
    # every stage stays finite; the weighted sum of the four stage
    # accelerations overflows, and the tiny step keeps the rates finite
    with pytest.raises(NonFiniteError, match="non-finite state"):
        integrate_step(LegState(3.8, 3.0, 0.0, 0.0), JointTorques(1e307, 0.0), P, 1e-300)


@pytest.mark.parametrize(
    "state, torques, dt",
    [
        # the stage rates overflow to inf and math.cos(inf) has no value
        (LegState(3.8, 3.0, 0.0, 0.0), JointTorques(1e308, 0.0), 1e-300),
        # NaN accelerations reach the angles by the third stage
        (LegState(3.8, 3.0, 0.0, 0.0), JointTorques(math.nan, 0.0), 1e-3),
        (LegState(math.inf, 3.0, 0.0, 0.0), JointTorques(), 1e-3),
    ],
    ids=["overflow", "nan-torque", "inf-angle"],
)
def test_plant_divergence_raises_nonfinite_error(state, torques, dt):
    with pytest.raises(NonFiniteError, match=r"non-finite state or torque .* at t=0\.0"):
        integrate_step(state, torques, P, dt)


def test_singular_mass_matrix_refused_by_leg_params():
    # a vanishing thigh mass makes det(M) = 0 up to rounding with the leg
    # straight; that is a bad plant, refused before any roll-out starts
    with pytest.raises(ValueError, match="singular mass matrix: LegParams l_t, l_s, m_t, m_s"):
        LegParams(m_t=1e-20)


def reference_rk4(state, torques, params, dt):
    """The generic RK4 step that `integrate_step` unrolls: a derivative
    closure over `accelerations` and one generator per stage."""

    def deriv(q1, q2, v1, v2):
        a1, a2 = accelerations(LegState(q1, q2, v1, v2), torques, params)
        return v1, v2, a1, a2

    y = (state.phi_h, state.phi_k, state.phi_h_dot, state.phi_k_dot)
    k1 = deriv(*y)
    k2 = deriv(*(yi + 0.5 * dt * ki for yi, ki in zip(y, k1)))
    k3 = deriv(*(yi + 0.5 * dt * ki for yi, ki in zip(y, k2)))
    k4 = deriv(*(yi + dt * ki for yi, ki in zip(y, k3)))
    out = tuple(
        yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )
    return LegState(*out, t=state.t + dt)


def test_integrate_step_matches_generic_rk4_bits():
    rng = np.random.default_rng(606)
    tau_max = P.tau_max
    stop_engaged = 0
    for i in range(400):
        # every fifth knee starts past pi, inside the stop
        knee = math.pi + rng.uniform(0.0, 0.05) if i % 5 == 0 else rng.uniform(2.0, 3.1)
        st = LegState(
            rng.uniform(2.5, 4.5),
            knee,
            rng.uniform(-10.0, 10.0),
            rng.uniform(-15.0, 15.0),
            t=rng.uniform(0.0, 2.0),
        )
        stop_engaged += st.phi_k > math.pi
        tau = rng.uniform(-tau_max, tau_max, size=2)
        tau[rng.random(2) < 0.3] = tau_max
        tau[rng.random(2) < 0.3] = -tau_max
        torques = JointTorques(float(tau[0]), float(tau[1]))
        dt = (1e-3, 2e-2)[i % 2]
        got = integrate_step(st, torques, P, dt)
        want = reference_rk4(st, torques, P, dt)
        got_bits = np.array([got.phi_h, got.phi_k, got.phi_h_dot, got.phi_k_dot, got.t])
        want_bits = np.array([want.phi_h, want.phi_k, want.phi_h_dot, want.phi_k_dot, want.t])
        assert got_bits.tobytes() == want_bits.tobytes(), (st, torques, dt)
    assert stop_engaged == 80


# --- energy -------------------------------------------------------------

def test_energy_at_rest_equilibrium():
    # static geometry: -g*(m_t*l_t/2 + m_s*(l_t + l_s/2))
    e = total_energy(LegState(math.pi, math.pi, 0, 0), P)
    assert e == pytest.approx(-49.5405, abs=1e-9)


def test_velocity_only_adds_energy():
    rest = total_energy(LegState(2.2, 2.5, 0, 0), P)
    rng = np.random.default_rng(11)
    for _ in range(50):
        v1, v2 = rng.uniform(-6, 6, 2)
        if v1 == 0 and v2 == 0:
            continue
        assert total_energy(LegState(2.2, 2.5, v1, v2), P) > rest


def test_passive_energy_conservation():
    # stop-free plant: the free pendulum sweeps past phi_k = pi where the
    # stop would (by design) dissipate
    st = LegState(math.radians(220), math.radians(175), -2.0, -4.0)
    e0 = total_energy(st, P_FREE)
    for _ in range(2000):
        st = integrate_step(st, JointTorques(), P_FREE, 1e-3)
    assert abs(total_energy(st, P_FREE) - e0) / abs(e0) < 1e-6


def test_work_energy_theorem():
    # dE/dt = tau_h*phi_h_dot + tau_k*phi_k_dot; trapezoid the power along
    # a driven rollout and compare with the energy change
    st = LegState(math.radians(220), math.radians(175), -1.0, -2.0)
    tq = JointTorques(8.0, -5.0)
    e0 = total_energy(st, P_FREE)
    dt = 1e-3
    powers = [tq.tau_h * st.phi_h_dot + tq.tau_k * st.phi_k_dot]
    for _ in range(500):
        st = integrate_step(st, tq, P_FREE, dt)
        powers.append(tq.tau_h * st.phi_h_dot + tq.tau_k * st.phi_k_dot)
    work = float(np.trapezoid(powers, dx=dt))
    de = total_energy(st, P_FREE) - e0
    assert de == pytest.approx(work, abs=1e-4 * max(1.0, abs(de)))


# --- knee stop and actuator limits ---------------------------------------

def test_stop_silent_in_physical_range():
    rng = np.random.default_rng(17)
    for _ in range(100):
        st = LegState(
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0.2, math.pi),
            rng.uniform(-8, 8),
            rng.uniform(-8, 8),
        )
        assert knee_stop_torque(st.phi_k, st.phi_k_dot, P) == 0.0
        tq = JointTorques(*rng.uniform(-60, 60, 2))
        assert accelerations(st, tq, P) == accelerations(st, tq, P_FREE)


def test_stop_resists_hyperextension():
    pen = 0.01
    tau = knee_stop_torque(math.pi + pen, 2.0, P)
    assert tau == pytest.approx(-P.knee_stop_stiffness * pen - P.knee_stop_damping * 2.0)
    assert tau < 0.0


def test_stop_never_pulls_inward():
    # retracting fast while barely penetrated: damping would turn the stop
    # into a pull; the clamp forbids that
    assert knee_stop_torque(math.pi + 1e-5, -3.0, P) == 0.0


def test_stop_is_plain_knee_torque_in_eom():
    # engaged stop must act exactly like an extra applied knee torque
    rng = np.random.default_rng(23)
    for _ in range(50):
        st = LegState(
            rng.uniform(0, 2 * math.pi),
            math.pi + rng.uniform(0.0, 0.05),
            rng.uniform(-8, 8),
            rng.uniform(-8, 8),
        )
        tq = JointTorques(*rng.uniform(-60, 60, 2))
        extra = knee_stop_torque(st.phi_k, st.phi_k_dot, P)
        via_free = accelerations(st, JointTorques(tq.tau_h, tq.tau_k + extra), P_FREE)
        assert accelerations(st, tq, P) == pytest.approx(via_free, rel=1e-12)


def test_stop_dissipates_passively():
    # falling into the stop with no applied torque: mechanical energy plus
    # the stop's elastic term must never grow
    st = LegState(math.radians(160), math.radians(177), 0.0, 4.0)
    dt = 1e-4

    def lyap(s):
        pen = max(0.0, s.phi_k - math.pi)
        return total_energy(s, P) + 0.5 * P.knee_stop_stiffness * pen * pen

    engaged = False
    prev = lyap(st)
    for _ in range(3000):
        st = integrate_step(st, JointTorques(), P, dt)
        engaged = engaged or st.phi_k > math.pi
        cur = lyap(st)
        assert cur <= prev + 1e-6
        prev = cur
    assert engaged


def test_saturate_clamps_both_joints():
    assert saturate(JointTorques(120.0, -90.0), P) == JointTorques(60.0, -60.0)
    assert saturate(JointTorques(-12.5, 3.0), P) == JointTorques(-12.5, 3.0)
    tight = LegParams(tau_max=10.0)
    assert saturate(JointTorques(-11.0, 9.0), tight) == JointTorques(-10.0, 9.0)
    assert saturate(JointTorques(math.inf, -math.inf), P) == JointTorques(60.0, -60.0)


@pytest.mark.parametrize("tau_h, tau_k", [
    (-0.0, 0.0), (0.0, -0.0), (60.0, -60.0), (-60.0, 60.0), (-12.5, math.nextafter(60.0, 0.0)),
])
def test_saturate_passes_in_range_torques_bit_for_bit(tau_h, tau_k):
    out = saturate(JointTorques(tau_h, tau_k), P)
    assert struct.pack("<2d", *out) == struct.pack("<2d", tau_h, tau_k)


@pytest.mark.parametrize("torques, joint", [
    (JointTorques(math.nan, 1.0), "tau_h"),
    (JointTorques(1.0, math.nan), "tau_k"),
    (JointTorques(math.nan, math.nan), "tau_h"),
])
def test_saturate_rejects_nan_torque(torques, joint):
    with pytest.raises(ValueError, match=f"{joint} torque is NaN"):
        saturate(torques, P)


# --- validation ---------------------------------------------------------

def test_params_reject_nonpositive():
    with pytest.raises(ValueError):
        LegParams(l_t=0.0)
    with pytest.raises(ValueError):
        LegParams(m_s=-1.0)
    with pytest.raises(ValueError):
        LegParams(knee_stop_stiffness=-1.0)
    with pytest.raises(ValueError):
        LegParams(tau_max=0.0)
    for name in ("knee_stop_stiffness", "knee_stop_damping"):  # a NaN fails the type rule first
        with pytest.raises(ValueError, match=f"^{name} has non-finite value nan"):
            LegParams(**{name: math.nan})


@pytest.mark.parametrize("record, field", [
    (LegState(1.0, 2.0, 3.0, 4.0), "phi_k"),
    (JointTorques(1.0, 2.0), "tau_h"),
    (KinematicSnapshot(*range(5)), "alpha"),
])
def test_records_reject_field_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)


def test_mass_coefficients_follow_replaced_params():
    """The coefficients are cached per LegParams instance; a replaced copy
    integrates like a freshly built one, never with the original's masses."""
    st, tq = LegState(math.radians(220), math.radians(175), -2.0, -4.0), JointTorques(8.0, -5.0)
    base = integrate_step(st, tq, P, 1e-3)  # fills P's cache first
    replaced = integrate_step(st, tq, dataclasses.replace(P, m_s=5.1), 1e-3)
    fresh = integrate_step(st, tq, LegParams(m_s=5.1), 1e-3)
    assert struct.pack("<5d", *replaced) == struct.pack("<5d", *fresh)
    assert replaced[:4] != base[:4]


def test_rest_length_property():
    assert P.l_0 == 1.0
    assert LegParams(l_t=0.4, l_s=0.45).l_0 == pytest.approx(0.85)
