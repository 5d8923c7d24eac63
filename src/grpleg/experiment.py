"""Demonstration corpus, online GRP training, and reference-free evaluation.

The protocol has three stages. First, swing tasks are sampled (target leg
angle and initial joint rates random, initial posture fixed) and rolled out
under the target controller to produce demonstration trajectories. Second,
hip and knee GRP models train online against those demonstrations: the
plant input during training equals the reference torque (the stack's
combined output with feedback errors folded in collapses to r_G exactly),
so the training-time trajectory IS the demonstration trajectory and
training replays its (sensor, torque) rows in order, one learn step per
control tick. Third, trained models drive the plant alone through the same
swing tasks; the target controller's phase/latch machine still runs
alongside as a shadow monitor, but only to decide ground contact, never to
produce torque.

Torques recorded in trajectories are the saturated values actually applied
to the plant; Generators therefore learn the delivered torque, bounded by
+-tau_max, not the controller's raw request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grp
from .dynamics import (
    JointTorques,
    LegParams,
    LegState,
    integrate_step,
    kinematics,
    saturate,
)
from .grp import GrpModel
from .mulnet import split_input
from .target_controller import (
    ControllerGains,
    ControllerState,
    SwingTask,
    control_step,
    make_task,
)

DEG = math.pi / 180.0

# Peak predicted pi above which a layer counts as an active generator in
# the evaluation report.
ACTIVE_PI = 0.1


@dataclass(frozen=True)
class SampleRanges:
    """Task distribution: uniform target angle and initial joint rates,
    fixed initial posture."""

    alpha_tgt: tuple[float, float] = (50.0 * DEG, 85.0 * DEG)
    phi_h_dot0: tuple[float, float] = (-4.0, 0.0)
    phi_k_dot0: tuple[float, float] = (-7.0, -1.0)
    phi_h0: float = 220.0 * DEG
    phi_k0: float = 175.0 * DEG

    def __post_init__(self):
        for name in ("alpha_tgt", "phi_h_dot0", "phi_k_dot0"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} range ({lo}, {hi}) not ordered")


@dataclass
class ModelTrace:
    """Per-step layer activity of one GRP model along a trajectory.

    r holds reference responsibilities where a reference torque existed
    (demonstration / training); evaluation runs record NaN there.
    """

    G: np.ndarray
    pi: np.ndarray
    r: np.ndarray


@dataclass
class Trajectory:
    """One swing at 1 kHz, column-major. Torques are post-saturation."""

    t: np.ndarray
    phi_h: np.ndarray
    phi_k: np.ndarray
    phi_h_dot: np.ndarray
    phi_k_dot: np.ndarray
    alpha: np.ndarray
    alpha_dot: np.ndarray
    l: np.ndarray
    tau_h: np.ndarray
    tau_k: np.ndarray
    phase: np.ndarray
    contact: np.ndarray
    task: SwingTask | None = None
    timed_out: bool = False
    traces: dict[str, ModelTrace] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.size

    @property
    def alpha_end(self) -> float:
        return float(self.alpha[-1])


@dataclass
class EvalReport:
    """Reference-free evaluation summary; angles in degrees."""

    alpha_tgt_deg: np.ndarray
    alpha_end_deg: np.ndarray
    error_deg: np.ndarray
    timed_out: np.ndarray
    avg_error_deg: float
    max_error_deg: float
    active_generators: dict[str, int]
    peak_pi: dict[str, np.ndarray]


@dataclass
class TrainLog:
    """Per-episode mean |e_G| per layer, one row per episode."""

    hip_mean_abs_e: np.ndarray
    knee_mean_abs_e: np.ndarray


def sample_tasks(
    ranges: SampleRanges,
    n: int,
    seed: int,
    gains: ControllerGains = ControllerGains(),
    params: LegParams = LegParams(),
) -> list[tuple[SwingTask, LegState]]:
    """n seeded swing tasks; per task the draws are alpha_tgt, then the hip
    rate, then the knee rate, from one stream."""
    if n < 1:
        raise ValueError(f"need at least one task, got n={n}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        alpha_tgt = rng.uniform(*ranges.alpha_tgt)
        vh = rng.uniform(*ranges.phi_h_dot0)
        vk = rng.uniform(*ranges.phi_k_dot0)
        init = LegState(ranges.phi_h0, ranges.phi_k0, vh, vk)
        out.append((make_task(alpha_tgt, gains, params, init), init))
    return out


def _network_input(alpha, s, alpha_tgt):
    """Network input from the five sensor channels [alpha - alpha_tgt,
    phi_h, phi_h_dot, phi_k, phi_k_dot]. `s` is a LegState with scalar
    alpha, giving one (8,) row, or a Trajectory with alpha a column,
    giving (T, 8)."""
    return split_input(
        np.asarray(
            [alpha - alpha_tgt, s.phi_h, s.phi_h_dot, s.phi_k, s.phi_k_dot]
        ).T
    )


def sensor_matrix(traj: Trajectory) -> np.ndarray:
    """(T, 8) network inputs for every row of a trajectory."""
    return _network_input(traj.alpha, traj, traj.task.alpha_tgt)


def _swing_rollout(
    init_state: LegState,
    task: SwingTask,
    gains: ControllerGains,
    params: LegParams,
    dt: float,
    timeout: float,
    stack: grp.LearnStack | None = None,
) -> Trajectory:
    """Roll one swing until ground contact or timeout.

    Without a stack the plant receives the saturated target-controller
    torque. With the stack of the (hip, knee) models it receives their
    saturated combined torques, and the controller state machine runs
    purely as a contact/phase monitor on the kinematics it observes.
    """
    state = init_state
    ctrl = ControllerState()
    # per tick: Trajectory's first ten fields in order, then phase, contact
    ticks = []
    layer_rows = []  # per tick: (hip, knee) outputs of grp.forward

    while True:
        kin = kinematics(state, params)
        demo_tq, ctrl = control_step(kin, ctrl, task, gains)

        if stack is None:
            applied = saturate(demo_tq, params)
        else:
            x = _network_input(kin.alpha, state, task.alpha_tgt)
            hip_out, knee_out = grp.forward(stack, x)
            applied = saturate(JointTorques(hip_out[2], knee_out[2]), params)
            layer_rows.append((hip_out, knee_out))

        ticks.append((
            state.t, state.phi_h, state.phi_k, state.phi_h_dot, state.phi_k_dot,
            kin.alpha, kin.alpha_dot, kin.l, applied.tau_h, applied.tau_k,
            ctrl.phase, ctrl.contact,
        ))

        if ctrl.contact or state.t >= timeout:
            break
        state = integrate_step(state, applied, params, dt)

    traces = {}
    if stack is not None:
        for name, mdl, rows in zip(("hip", "knee"), stack.models, zip(*layer_rows)):
            traces[name] = ModelTrace(
                G=np.array([G for G, _, _ in rows]),
                pi=np.array([pi for _, pi, _ in rows]),
                # no reference torque exists when models drive: r is all NaN
                r=np.full((len(rows), mdl.m), np.nan),
            )
    *floats, phases, contacts = zip(*ticks)
    return Trajectory(
        *map(np.array, floats),
        phase=np.array(phases, dtype=int),
        contact=np.array(contacts, dtype=bool),
        task=task,
        timed_out=not ctrl.contact,
        traces=traces,
    )


def run_demo_episode(
    task: SwingTask,
    init_state: LegState,
    gains: ControllerGains = ControllerGains(),
    params: LegParams = LegParams(),
    dt: float = 1e-3,
    timeout: float = 2.0,
) -> Trajectory:
    """One demonstration swing under the target controller."""
    return _swing_rollout(init_state, task, gains, params, dt, timeout)


def train(
    hip_model: GrpModel,
    knee_model: GrpModel,
    demos: list[Trajectory],
    episodes: int,
) -> TrainLog:
    """Online training: cycle over the demonstrations, one learn step per
    recorded control tick, sharpness annealed after every episode.

    The plant never re-integrates here: driving it with the stack's
    feedback-completed output is identical to driving it with the recorded
    reference torques, so each episode replays a demonstration's
    (sensor, torque) rows in order.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    if not demos:
        raise ValueError("no demonstrations to train on")
    cache = [(sensor_matrix(d), d.tau_h, d.tau_k) for d in demos]
    stack = grp.LearnStack([hip_model, knee_model])
    log = np.empty((episodes, hip_model.m + knee_model.m))
    for ep in range(episodes):
        X, r_h, r_k = cache[ep % len(cache)]
        # one reference torque per stack row, gathered once per episode
        refs = np.stack((r_h, r_k), axis=1)[:, stack.row_model]
        e_G = np.empty((X.shape[0], log.shape[1]))
        for i in range(X.shape[0]):
            grp.learn_step_joint(stack, X[i], refs[i])
            e_G[i] = stack.e_G
        # summed in tick order, as a running sum over the episode would be
        log[ep] = np.add.accumulate(np.abs(e_G, out=e_G))[-1] / X.shape[0]
        grp.end_episode(hip_model)
        grp.end_episode(knee_model)
    return TrainLog(
        hip_mean_abs_e=log[:, : hip_model.m], knee_mean_abs_e=log[:, hip_model.m :]
    )


def evaluate(
    hip_model: GrpModel,
    knee_model: GrpModel,
    tasks: list[tuple[SwingTask, LegState]],
    gains: ControllerGains = ControllerGains(),
    params: LegParams = LegParams(),
    dt: float = 1e-3,
    timeout: float = 2.0,
) -> tuple[EvalReport, list[Trajectory]]:
    """Reference-free evaluation: the models alone drive the plant through
    each task; landing error is |alpha_tgt - alpha at contact| in degrees.
    peak_pi is each layer's largest pi over every tick of every swing, and
    a layer is an active generator when its peak exceeds ACTIVE_PI. The
    models join one LearnStack for the call, which reads their weights and
    never writes them."""
    for name, mdl in (("hip", hip_model), ("knee", knee_model)):
        if not isinstance(mdl, GrpModel):
            raise ValueError(
                f"evaluation needs a {name} GrpModel, got {type(mdl).__name__}"
            )
    stack = grp.LearnStack([hip_model, knee_model])
    trajs = [
        _swing_rollout(init, task, gains, params, dt, timeout, stack)
        for task, init in tasks
    ]
    tgt = np.array([task.alpha_tgt for task, _ in tasks]) / DEG
    end = np.array([tr.alpha_end for tr in trajs]) / DEG
    err = np.abs(tgt - end)
    peak_pi = {
        name: np.concatenate([tr.traces[name].pi for tr in trajs]).max(axis=0)
        for name in ("hip", "knee")
    }
    report = EvalReport(
        alpha_tgt_deg=tgt,
        alpha_end_deg=end,
        error_deg=err,
        timed_out=np.array([tr.timed_out for tr in trajs], dtype=bool),
        avg_error_deg=float(err.mean()),
        max_error_deg=float(err.max()),
        active_generators={
            name: int((peak > ACTIVE_PI).sum()) for name, peak in peak_pi.items()
        },
        peak_pi=peak_pi,
    )
    return report, trajs


def weight_summary(model: GrpModel) -> dict:
    """Per-layer weight dump with Frobenius norms, JSON-ready. Layers whose
    Generator norm sits near zero never produce torque: passive pairs."""
    layers = [
        {
            "W_norm": float(np.linalg.norm(W)),
            "R_norm": float(np.linalg.norm(R)),
            "W": W.tolist(),
            "R": R.tolist(),
        }
        for W, R in zip(model.W, model.R)
    ]
    return {
        "m": model.m,
        "gamma": model.gamma,
        "episode_count": model.episode_count,
        "layers": layers,
    }
