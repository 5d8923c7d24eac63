"""Demonstration corpus, online GRP training, and reference-free evaluation.

The protocol has three stages. First, swing tasks are sampled (target leg
angle and initial joint rates random, initial posture fixed) and rolled out
under the target controller to produce demonstration trajectories. Second,
GRP models, each learning one joint's torque, train online together against
those demonstrations: the plant input during training equals the reference
torque (the stack's combined output with feedback errors folded in
collapses to r_G exactly), so the training-time trajectory IS the
demonstration trajectory and training replays its (sensor, torque) rows in
order, one learn step per control tick. Third, trained models drive the
plant alone through the same swing tasks; the target controller's
phase/latch machine still runs alongside as a shadow monitor, but only to
decide ground contact, never to produce torque.

Every rollout advances its swings in lockstep: one loop ticks all active
swings, and a swing that lands or times out leaves the active set. Each
swing keeps its own scalar plant and controller, so its values are the
bits of rolling it alone. With models driving, a tick stacks the active
swings' sensor rows into one block, so an evaluation makes one
`grp.forward` call per tick for all of its active swings. If several
swings fail (a NaN torque, a diverging state), the error raised is the
first in tick order, and within one tick the lowest-numbered swing's.

Torques recorded in trajectories are the saturated values actually applied
to the plant; Generators therefore learn the delivered torque, bounded by
+-tau_max, not the controller's raw request.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass, replace

import numpy as np

from . import NonFiniteError, grp
from .dynamics import (
    JointTorques,
    LegParams,
    LegState,
    integrate_step,
    kinematics,
    saturate,
)
from .grp import GrpModel
from .mulnet import split_input, split_row
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
            # rng.uniform draws lo + (hi - lo) * u and refuses a width that overflows
            if not math.isfinite(hi - lo):
                raise ValueError(f"{name} range ({lo}, {hi}) is wider than a float holds")


# The fixed columns of a trajectory file, in file order: the ten plant
# floats, then the controller phase and the ground contact flag.
FIXED_COLUMNS = ("t", "phi_h", "phi_k", "phi_h_dot", "phi_k_dot", "alpha",
                 "alpha_dot", "l", "tau_h", "tau_k", "phase", "contact")


@dataclass(frozen=True)
class ModelTrace:
    """Per-step layer activity of one GRP model along a model-driven swing:
    each layer's Generator torque G and responsibility pi, shape (T, m)."""

    G: np.ndarray
    pi: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """One swing at 1 kHz as its table, laid out as its trajectory file's
    rows: FIXED_COLUMNS, then per (name, m) of `models` G of layers 1 to m,
    then pi of layers 1 to m, the blocks grp.forward gives. Torques are
    post-saturation. The float columns (`t` ... `tau_k`) and each model's
    `traces[name].G` and `.pi` are views of the table, and `phase` and
    `contact` are columns 10 and 11 as ints and bools; a table of another
    width is refused. A swing that ends without ground contact timed out."""

    table: np.ndarray
    models: tuple[tuple[str, int], ...] = ()
    task: SwingTask | None = None

    def __post_init__(self):
        models = tuple(self.models)
        width = len(FIXED_COLUMNS) + 2 * sum(m for _, m in models)
        if self.table.shape[1:] != (width,):
            raise ValueError(f"a swing of models {models} is a table of {width} columns, "
                             f"got shape {self.table.shape}")
        bind = functools.partial(object.__setattr__, self)
        bind("models", models)
        for j, name in enumerate(FIXED_COLUMNS[:10]):
            bind(name, self.table[:, j])
        bind("phase", self.table[:, 10].astype(int))
        bind("contact", self.table[:, 11] == 1.0)
        traces, col = {}, 12
        for name, m in models:
            block = self.table[:, col:col + 2 * m]
            traces[name] = ModelTrace(block[:, :m], block[:, m:])
            col += 2 * m
        bind("traces", types.MappingProxyType(traces))

    def __len__(self) -> int:
        return len(self.table)

    @property
    def alpha_end(self) -> float:
        return float(self.alpha[-1])

    @property
    def timed_out(self) -> bool:
        return not self.contact[-1]


@dataclass
class EvalReport:
    """What a set of swings measured: target and landing leg angles in
    degrees, timeouts, and each model's per-layer peak pi (none when no
    model drove). Every summary of them is derived here and only here."""

    alpha_tgt_deg: np.ndarray
    alpha_end_deg: np.ndarray
    timed_out: np.ndarray
    peak_pi: dict[str, np.ndarray]

    @property
    def error_deg(self) -> np.ndarray:
        return np.abs(self.alpha_tgt_deg - self.alpha_end_deg)

    @property
    def avg_error_deg(self) -> float:
        return float(self.error_deg.mean())

    @property
    def max_error_deg(self) -> float:
        return float(self.error_deg.max())

    @property
    def timeout_count(self) -> int:
        return int(self.timed_out.sum())

    @property
    def active_generators(self) -> dict[str, int]:
        return {name: int((peak > ACTIVE_PI).sum()) for name, peak in self.peak_pi.items()}

    @classmethod
    def from_swings(cls, trajs: list[Trajectory]) -> EvalReport:
        """The report of rolled-out swings, each carrying its task; peak_pi
        covers each model whose traces they carry."""
        return cls(
            alpha_tgt_deg=np.array([tr.task.alpha_tgt for tr in trajs]) / DEG,
            alpha_end_deg=np.array([tr.alpha_end for tr in trajs]) / DEG,
            timed_out=np.array([tr.timed_out for tr in trajs], dtype=bool),
            peak_pi={name: np.concatenate([tr.traces[name].pi for tr in trajs]).max(axis=0)
                     for name in trajs[0].traces},
        )


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


def _sensor_channels(alpha, s, alpha_tgt) -> tuple:
    """The five sensor channels [alpha - alpha_tgt, phi_h, phi_h_dot, phi_k,
    phi_k_dot]. `s` is a LegState with scalar alpha, giving one row of
    floats, or a Trajectory with alpha a column, giving five columns."""
    return (alpha - alpha_tgt, s.phi_h, s.phi_h_dot, s.phi_k, s.phi_k_dot)


def sensor_matrix(traj: Trajectory) -> np.ndarray:
    """(T, 8) network inputs for every row of a trajectory."""
    return split_input(
        np.asarray(_sensor_channels(traj.alpha, traj, traj.task.alpha_tgt)).T
    )


def _rollout(
    swings: list[tuple[SwingTask, LegState]],
    gains: ControllerGains,
    params: LegParams,
    dt: float,
    timeout: float,
    stack: grp.LearnStack | None = None,
) -> list[Trajectory]:
    """Roll every swing in lockstep (see the module docstring) until each
    lands or times out; a finished swing leaves the active set.

    Without a stack the plant receives the saturated target-controller
    torque. With the stack of the (hip, knee) models it receives their
    saturated combined torques, and the controller state machine runs
    purely as a contact/phase monitor on the kinematics it observes. Each
    tick, every active swing's five sensor floats are split into its 8-wide
    input row on Python floats (split_row, split_input's bits), and the
    list of rows takes one grp.forward call. A swing's rows, appended in
    file layout with forward's G and pi blocks as they come, are its
    Trajectory's table. A timeout that is not finite is refused at once.
    """
    if not math.isfinite(timeout):
        raise ValueError(f"timeout must be finite, got {timeout}")
    tasks = [task for task, _ in swings]
    states = [init for _, init in swings]
    ctrls = [ControllerState()] * len(swings)
    # per swing and tick: the file row's plant columns, then with a stack each
    # model's G block and pi block as forward gives them
    ticks = [[] for _ in swings]
    models = () if stack is None else (("hip", stack.models[0].m), ("knee", stack.models[1].m))
    active = list(range(len(swings)))

    while active:
        kins, torques = [], []
        for i in active:
            kin = kinematics(states[i], params)
            demo_tq, ctrls[i] = control_step(kin, ctrls[i], tasks[i], gains)
            kins.append(kin)
            torques.append(demo_tq)
        traces = [()] * len(active)
        if stack is not None:
            rows = [split_row(*_sensor_channels(kin.alpha, states[i], tasks[i].alpha_tgt))
                    for i, kin in zip(active, kins)]
            (G_h, pi_h, tau_h), (G_k, pi_k, tau_k) = grp.forward(stack, rows)
            traces = map(tuple, np.concatenate((G_h, pi_h, G_k, pi_k), axis=1).tolist())
            torques = map(JointTorques, tau_h.tolist(), tau_k.tolist())

        still = []
        for i, kin, tq, trace in zip(active, kins, torques, traces):
            state, ctrl = states[i], ctrls[i]
            applied = saturate(tq, params)
            ticks[i].append((
                state.t, state.phi_h, state.phi_k, state.phi_h_dot, state.phi_k_dot,
                kin.alpha, kin.alpha_dot, kin.l, applied.tau_h, applied.tau_k,
                ctrl.phase, ctrl.contact,
            ) + trace)
            if not (ctrl.contact or state.t >= timeout):
                states[i] = integrate_step(state, applied, params, dt)
                still.append(i)
        active = still

    return [Trajectory(np.array(rows, dtype=float), models, task)
            for rows, task in zip(ticks, tasks)]


def run_demo_episode(
    task: SwingTask,
    init_state: LegState,
    gains: ControllerGains = ControllerGains(),
    params: LegParams = LegParams(),
    dt: float = 1e-3,
    timeout: float = 2.0,
) -> Trajectory:
    """One demonstration swing under the target controller."""
    return _rollout([(task, init_state)], gains, params, dt, timeout)[0]


# entered once per call, not per step: a diverging update is reported by
# its NonFiniteError alone, not after numpy's overflow warning
@np.errstate(over="ignore", invalid="ignore")
def train(
    models: list[tuple[GrpModel, str]],
    demos: list[Trajectory],
    episodes: int,
) -> list[np.ndarray]:
    """Online training of (model, joint) pairs: one reference torque per
    model, its demos' Trajectory torque column `joint`, "tau_h" or "tau_k".
    The models form one LearnStack and take one learn step per recorded
    control tick, episode e on demo e % len(demos), every sharpness
    annealed after each episode; the step is row-local, so each model gets
    the bits of training it alone. The plant never re-integrates: driving
    it with the stack's feedback-completed output equals driving it with
    the recorded reference torques, so an episode replays a demo's (sensor,
    torque) rows in order. Returns the (episodes, m) per-episode mean |e_G|
    of each model's layers, in input order. A demo without a task is
    refused. A learn step that diverges, or a sharpness that overflows,
    raises NonFiniteError naming each model's place in the list, from 1,
    and its joint; numpy warns of nothing on the way.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    if not demos:
        raise ValueError("no demonstrations to train on")
    joints = [joint for _, joint in models]
    if not joints or not set(joints) <= {"tau_h", "tau_k"}:
        raise ValueError(f"train takes (model, 'tau_h' or 'tau_k') pairs, got joints {joints}")
    for i, d in enumerate(demos[:episodes]):
        if d.task is None:
            raise ValueError(f"demos[{i}] carries no task, so its sensor rows have no target angle")
    stack = grp.LearnStack([mdl for mdl, _ in models])
    # each demo's (T, 8) inputs and (T, models) reference torques, built once
    cache = [(sensor_matrix(d), np.stack([getattr(d, j) for j in joints], axis=1))
             for d in demos[:episodes]]
    log = np.empty((episodes, stack.pi.size))
    for ep in range(episodes):
        X, refs = cache[ep % len(cache)]
        e_G = np.empty((X.shape[0], log.shape[1]))
        try:
            for i in range(X.shape[0]):
                grp.learn_step_joint(stack, X[i], refs[i])
                e_G[i] = stack.e_G
        except NonFiniteError as err:
            names = ", ".join(f"model {k} ({joints[k - 1]})" for k in err.models)
            raise NonFiniteError(f"{names}: {err}") from None
        # summed in tick order, as a running sum over the episode would be
        log[ep] = np.add.accumulate(np.abs(e_G, out=e_G))[-1] / X.shape[0]
        for k, (mdl, joint) in enumerate(models, 1):
            try:
                grp.end_episode(mdl)
            except NonFiniteError as err:
                raise NonFiniteError(f"model {k} ({joint}): {err}") from None
    return [log[:, sl] for sl in stack.slices]


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
    each task, and the report holds each swing's target and landing angle
    in degrees, whether it timed out, and peak_pi, each layer's largest pi
    over every tick of every swing. The models' copies join one LearnStack
    for the call, so the models themselves, and any live stack they belong
    to, are left as they were."""
    for name, mdl in (("hip", hip_model), ("knee", knee_model)):
        if not isinstance(mdl, GrpModel):
            raise ValueError(
                f"evaluation needs a {name} GrpModel, got {type(mdl).__name__}"
            )
    if not tasks:
        raise ValueError("no tasks to evaluate")
    stack = grp.LearnStack([replace(hip_model), replace(knee_model)])
    trajs = _rollout(tasks, gains, params, dt, timeout, stack)
    return EvalReport.from_swings(trajs), trajs


def _norm(M: np.ndarray, key: str) -> float:
    """M's Frobenius norm, with no square to overflow (math.hypot); one
    beyond the largest double raises ValueError naming `key`."""
    norm = math.hypot(*M.ravel().tolist())
    if norm == math.inf:
        raise ValueError(f"{key} norm exceeds the largest double")
    return norm


def weight_summary(model: GrpModel) -> dict:
    """Per-layer weight dump with Frobenius norms, JSON-ready. Layers whose
    Generator norm sits near zero never produce torque: passive pairs."""
    layers = [
        {
            "W_norm": _norm(W, f"layers[{k}].W"),
            "R_norm": _norm(R, f"layers[{k}].R"),
            "W": W.tolist(),
            "R": R.tolist(),
        }
        for k, (W, R) in enumerate(zip(model.W, model.R))
    ]
    return {
        "m": model.m,
        "gamma": model.gamma,
        "episode_count": model.episode_count,
        "layers": layers,
    }
