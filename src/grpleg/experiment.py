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

Demonstrations and evaluations roll a swing through one step function,
_advance: it saturates a tick's torques, records the tick's row, and steps
the plant unless the swing has landed or timed out. A demonstration rolls
one swing at a time. Only evaluate batches its swings, in lockstep, for
one grp.forward call per tick: one loop ticks all active swings, and a
swing that lands or times out leaves the active set. Each swing keeps its
own scalar plant and controller, so its values are the bits of rolling it
alone. If several swings fail (a NaN torque, a diverging state), the error
raised is the first in tick order, and within one tick the lowest-numbered
swing's.

Torques recorded in trajectories are the saturated values actually applied
to the plant; Generators therefore learn the delivered torque, bounded by
+-tau_max, not the controller's raw request.

The run's definition lives here too: RunConfig holds every setting of the
three stages, and demo_swings rolls its demonstration corpus.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import types
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import NonFiniteError, _check_fields, _kind, grp, uniform_stream
from .dynamics import (
    JointTorques,
    LegParams,
    LegState,
    integrate_step,
    kinematics,
    saturate,
)
from .grp import GrpConfig, GrpModel
from .mulnet import split_input, split_row
from .target_controller import (
    ControllerGains,
    ControllerState,
    SwingTask,
    control_step,
    make_task,
)

DEG = math.pi / 180.0

# Most plant steps one swing may take: a model-driven swing that never lands
# runs until its timeout, one trajectory row per step.
MAX_SWING_STEPS = 10**6

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
        _check_fields(self)  # each pair ordered, and of a width a float holds
        # a leg angle past one turn means nothing, and far past it overflows in degrees
        lo, hi = self.alpha_tgt
        if not max(-lo, hi) <= 2.0 * math.pi:
            raise ValueError(f"alpha_tgt range ({lo}, {hi}) goes beyond one turn "
                             "(|bound| > 2*pi rad)")
        for name in ("phi_h0", "phi_k0"):
            if not abs(getattr(self, name)) <= 2.0 * math.pi:
                raise ValueError(f"{name} {getattr(self, name)!r} is not a finite angle "
                                 "within one turn (|angle| <= 2*pi rad)")


# A model's name in a trajectory: one or more word characters, so that each
# of its trace columns, name_G_k or name_pi_k, splits back into name and layer.
MODEL_NAME = re.compile(r"\w+")

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
    width or of no rows, or with a phase not 1, 2 or 3 or a contact not 0
    or 1, is refused, and so is a model list its file's header cannot
    carry: a name not MODEL_NAME, a name given twice, or an m not an
    integer >= 1. A swing ending off the ground timed out."""

    table: np.ndarray
    models: tuple[tuple[str, int], ...] = ()
    task: SwingTask | None = None

    def __post_init__(self):
        models = tuple((name, m) for name, m in self.models)
        for i, (name, m) in enumerate(models):
            if not (isinstance(name, str) and MODEL_NAME.fullmatch(name)):
                raise ValueError("a swing's model name is one or more word characters, "
                                 f"got {name!r}")
            if name in (other for other, _ in models[:i]):
                raise ValueError(f"a swing's model {name!r} is given twice")
            if _kind(m, int, f"model {name!r}: m") < 1:
                raise ValueError(f"model {name!r}: m must be >= 1, got {m}")
        width = len(FIXED_COLUMNS) + 2 * sum(m for _, m in models)
        if self.table.shape[1:] != (width,) or not len(self.table):
            raise ValueError(f"a swing of models {models} is a table of {width} columns "
                             f"and one or more rows, got shape {self.table.shape}")
        bind = functools.partial(object.__setattr__, self)
        bind("models", models)
        for j, name in enumerate(FIXED_COLUMNS[:10]):
            bind(name, self.table[:, j])
        # write_trajectory writes both with '%d', which would write a phase of 2.7 as 2;
        # counted with scalar compares, which need no casting buffers
        phase, contact = self.table[:, 10], self.table[:, 11]
        for name, column, codes in (("phase", phase, (1, 2, 3)), ("contact", contact, (0, 1))):
            if sum(np.count_nonzero(column == code) for code in codes) != len(column):
                i, v = next((i, v) for i, v in enumerate(column.tolist()) if v not in codes)
                raise ValueError(f"a swing's {name} is one of {codes} in every row, "
                                 f"got {v!r} in row {i}")
        bind("phase", phase.astype(int))
        bind("contact", contact == 1.0)
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
    def from_swings(cls, trajs: Iterable[Trajectory]) -> EvalReport:
        """The report of rolled-out swings, each carrying its task, read
        once: of each swing it keeps the target and landing angles, the
        timeout and each model's per-layer peak pi, so `trajs` may be a
        generator rolling one swing at a time. peak_pi covers each model
        whose traces they carry. A swing without a task is refused, named
        by its index, and so is one whose model has another layer count
        than an earlier swing gave that name."""
        tgt, end, timed_out, peak_pi, first = [], [], [], {}, {}
        for i, tr in enumerate(trajs):
            if tr.task is None:
                raise ValueError(f"swings[{i}] carries no task, so it has no target angle")
            tgt.append(tr.task.alpha_tgt)
            end.append(tr.alpha_end)
            timed_out.append(tr.timed_out)
            for name, m in tr.models:
                j, m0 = first.setdefault(name, (i, m))
                if m != m0:
                    raise ValueError(f"swings[{i}] gives model {name!r} {m} layers, "
                                     f"but swings[{j}] gave it {m0}")
                peak = tr.traces[name].pi.max(axis=0)
                peak_pi[name] = np.maximum(peak_pi.get(name, peak), peak)
        if not tgt:
            raise ValueError("no swings to report")
        return cls(np.array(tgt) / DEG, np.array(end) / DEG,
                   np.array(timed_out, dtype=bool), peak_pi)


def sample_tasks(
    ranges: SampleRanges,
    n: int,
    seed: int,
    gains: ControllerGains = ControllerGains(),
    params: LegParams = LegParams(),
) -> list[tuple[SwingTask, LegState]]:
    """n seeded swing tasks; per task the draws are alpha_tgt, then the hip
    rate, then the knee rate, from one stream, each lo + (hi - lo) * u as
    default_rng(seed).uniform draws it."""
    if _kind(n, int, "n") < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    draws = uniform_stream(seed)
    out = []
    for _ in range(n):
        alpha_tgt, vh, vk = (lo + (hi - lo) * next(draws) for lo, hi in
                             (ranges.alpha_tgt, ranges.phi_h_dot0, ranges.phi_k_dot0))
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


def check_swing_steps(dt: float, timeout: float) -> None:
    """Refuse a dt that is not finite and positive, then a timeout of more
    than MAX_SWING_STEPS dt, then one not beyond one step."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not timeout / dt <= MAX_SWING_STEPS:
        raise ValueError(f"timeout {timeout} is more than {MAX_SWING_STEPS} steps of dt {dt}")
    if not timeout > dt:  # a swing of one row, timed out
        raise ValueError(f"timeout {timeout} not beyond one step")


DEFAULT_HIP = GrpConfig(m=1)
DEFAULT_KNEE = GrpConfig(m=3)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: physics, controller gains, task ranges,
    one GRP config per joint, and the protocol sizes/seeds."""

    params: LegParams = LegParams()
    gains: ControllerGains = ControllerGains()
    ranges: SampleRanges = SampleRanges()
    hip: GrpConfig = DEFAULT_HIP
    knee: GrpConfig = DEFAULT_KNEE
    dt: float = 1e-3
    timeout: float = 2.0
    # 40 cyclic passes over the 40-demo corpus. Reference-free landings do
    # not improve steadily with more episodes, and the count that lands
    # best differs from one init seed to the next.
    episodes: int = 1600
    demo_count: int = 40
    eval_count: int = 20
    demo_seed: int = 1
    eval_seed: int = 2

    def __post_init__(self):
        _check_fields(self, episodes=">= 1", demo_count=">= 1", eval_count=">= 1",
                      demo_seed=">= 0", eval_seed=">= 0")
        check_swing_steps(self.dt, self.timeout)


def _advance(buf, state, kin, ctrl, torques, params, dt, timeout):
    """One tick of a swing: saturate `torques` and append the tick's
    FIXED_COLUMNS values to the packed `buf`, the torques recorded being the
    saturated ones the plant receives. Returns None when the swing has
    landed or t has reached the timeout, else integrate_step's next state."""
    applied = saturate(torques, params)
    buf.extend((
        state.t, state.phi_h, state.phi_k, state.phi_h_dot, state.phi_k_dot,
        kin.alpha, kin.alpha_dot, kin.l, applied.tau_h, applied.tau_k,
        ctrl.phase, ctrl.contact,
    ))
    if ctrl.contact or state.t >= timeout:
        return None
    return integrate_step(state, applied, params, dt)


def run_demo_episode(
    task: SwingTask,
    init_state: LegState,
    gains: ControllerGains = ControllerGains(),
    params: LegParams = LegParams(),
    dt: float = RunConfig.dt,
    timeout: float = RunConfig.timeout,
) -> Trajectory:
    """One demonstration swing under the target controller, rolled alone,
    a tick at a time through _advance, until it lands or t reaches the
    timeout; its table is a view of the swing's packed array('d').
    check_swing_steps refuses dt and timeout at once."""
    check_swing_steps(dt, timeout)
    state, ctrl = init_state, ControllerState()
    buf = array("d")
    while state is not None:
        kin = kinematics(state, params)
        torques, ctrl = control_step(kin, ctrl, task, gains)
        state = _advance(buf, state, kin, ctrl, torques, params, dt, timeout)
    return Trajectory(np.frombuffer(buf).reshape(-1, len(FIXED_COLUMNS)), task=task)


def demo_swings(config: RunConfig, n: int):
    """The first n of `config`'s demonstration swings, each rolled as it is read:
    train reads them after it allocates its log, demo writes each as it comes."""
    for task, init in sample_tasks(config.ranges, n, config.demo_seed,
                                   config.gains, config.params):
        yield run_demo_episode(task, init, config.gains, config.params,
                               config.dt, config.timeout)


def train(
    models: list[tuple[GrpModel, str]],
    demos: Iterable[Trajectory],
    episodes: int,
) -> list[np.ndarray]:
    """Online training of (model, joint) pairs: one reference torque per
    model, its demos' Trajectory torque column `joint`, "tau_h" or "tau_k".
    The models form one LearnStack and take one learn step per recorded
    control tick, episode e on demo e % n, every sharpness annealed after
    each episode; the step is row-local, so each model gets the bits of
    training it alone. The plant never re-integrates: driving it with the
    stack's feedback-completed output equals driving it with the recorded
    reference torques, so an episode replays a demo's (sensor, torque)
    rows in order. Returns the (episodes, m) per-episode mean |e_G| of each
    model's layers, in input order.

    `demos` may be any iterable: a list, or a generator that rolls each
    swing when asked. Before the first learn step, train reads the first
    n of them, n at most `episodes`, each once, straight into its (T, 8)
    inputs and (T, models) reference torques, and keeps no Trajectory; a
    generator therefore rolls inside this call, under the caller's numpy
    error settings. The joints and models are checked, a model that is not
    a GrpModel named by its place and joint, and the per-episode log
    allocated before any demo is read; a log that does not fit in memory is
    refused naming `episodes`. An empty corpus, or a demo without a task,
    named by its index, is refused before any learn step and leaves the
    models unchanged. A learn step that diverges, or a sharpness that
    overflows, raises NonFiniteError naming each model's place in the list,
    from 1, and its joint, with those places as its `models`; numpy warns
    of nothing on the way.
    """
    if _kind(episodes, int, "episodes") < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    joints = [joint for _, joint in models]
    if not joints or not set(joints) <= {"tau_h", "tau_k"}:
        raise ValueError(f"train takes (model, 'tau_h' or 'tau_k') pairs, got joints {joints}")
    for k, (mdl, joint) in enumerate(models, 1):
        if not isinstance(mdl, GrpModel):
            raise ValueError(f"model {k} ({joint}) is not a GrpModel, got {type(mdl).__name__}")
    rows = sum(mdl.m for mdl, _ in models)
    try:
        log = np.empty((episodes, rows))
    except (MemoryError, ValueError) as exc:  # numpy's, for a size it cannot allocate
        raise ValueError(f"episodes = {episodes}: a log of {rows} floats per episode "
                         f"does not fit in memory ({exc})") from None
    corpus = []
    for demo in itertools.islice(demos, episodes):
        if demo.task is None:
            raise ValueError(f"demos[{len(corpus)}] carries no task, "
                             "so its sensor rows have no target angle")
        corpus.append((sensor_matrix(demo), np.stack([getattr(demo, j) for j in joints], axis=1)))
        del demo  # not kept alive while the next one rolls
    if not corpus:
        raise ValueError("no demonstrations to train on")
    stack = grp.LearnStack([mdl for mdl, _ in models])
    # entered once per call, not per step: a diverging update is reported by
    # its NonFiniteError alone, not after numpy's overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(episodes):
            X, refs = corpus[ep % len(corpus)]
            e_G = np.empty((X.shape[0], rows))
            try:
                for i in range(X.shape[0]):
                    grp.learn_step_joint(stack, X[i], refs[i])
                    e_G[i] = stack.e_G
            except NonFiniteError as err:
                names = ", ".join(f"model {k} ({joints[k - 1]})" for k in err.models)
                raise NonFiniteError(f"{names}: {err}", err.models) from None
            # summed in tick order, as a running sum over the episode would be
            log[ep] = np.add.accumulate(np.abs(e_G, out=e_G))[-1] / X.shape[0]
            for k, (mdl, joint) in enumerate(models, 1):
                try:
                    grp.end_episode(mdl)
                except NonFiniteError as err:
                    raise NonFiniteError(f"model {k} ({joint}): {err}", (k,)) from None
    return [log[:, sl] for sl in stack.slices]


def evaluate(
    hip_model: GrpModel,
    knee_model: GrpModel,
    tasks: Iterable[tuple[SwingTask, LegState]],
    gains: ControllerGains = ControllerGains(),
    params: LegParams = LegParams(),
    dt: float = RunConfig.dt,
    timeout: float = RunConfig.timeout,
) -> tuple[EvalReport, list[Trajectory]]:
    """Reference-free evaluation: the models alone drive the plant through
    each task (any iterable, read once into a list), and the report holds
    each swing's target and landing angle in degrees, whether it timed out,
    and peak_pi, each layer's largest pi over every tick of every swing.
    The models' copies join one LearnStack for the call, so the models
    themselves, and any live stack they belong to, are left as they were;
    check_swing_steps refuses dt and timeout once the stack is built.

    The swings roll in lockstep (see the module docstring), the controller
    state machine only a contact/phase monitor. Each tick, every active
    swing's sensor floats are split into its input row on Python floats
    (split_row, split_input's bits), and the rows take one grp.forward
    call. Each swing's packed array('d') gets the tick's row from _advance,
    then forward's G and pi blocks, and its table is a view of that array.
    Weights that overflow are refused by the torque check, and numpy warns
    of nothing on the way.
    """
    tasks = list(tasks)
    for name, mdl in (("hip", hip_model), ("knee", knee_model)):
        if not isinstance(mdl, GrpModel):
            raise ValueError(
                f"evaluation needs a {name} GrpModel, got {type(mdl).__name__}"
            )
    if not tasks:
        raise ValueError("no tasks to evaluate")
    stack = grp.LearnStack([replace(hip_model), replace(knee_model)])
    check_swing_steps(dt, timeout)
    swing_tasks = [task for task, _ in tasks]
    states = [init for _, init in tasks]
    ctrls = [ControllerState()] * len(tasks)
    # per swing, its rows' doubles in file order: each tick's plant columns,
    # then each model's G block and pi block as forward gives them
    bufs = [array("d") for _ in tasks]
    models = (("hip", hip_model.m), ("knee", knee_model.m))
    active = list(range(len(tasks)))

    # entered once per call, as train's: an overflow is refused by the torque check alone
    with np.errstate(over="ignore", invalid="ignore"):
        while active:
            kins = []
            for i in active:
                kin = kinematics(states[i], params)
                _, ctrls[i] = control_step(kin, ctrls[i], swing_tasks[i], gains)
                kins.append(kin)
            rows = [split_row(*_sensor_channels(kin.alpha, states[i], swing_tasks[i].alpha_tgt))
                    for i, kin in zip(active, kins)]
            (G_h, pi_h, tau_h), (G_k, pi_k, tau_k) = grp.forward(stack, rows)
            traces = np.concatenate((G_h, pi_h, G_k, pi_k), axis=1).tolist()
            torques = map(JointTorques, tau_h.tolist(), tau_k.tolist())

            still = []
            for i, kin, tq, trace in zip(active, kins, torques, traces):
                states[i] = _advance(bufs[i], states[i], kin, ctrls[i], tq, params, dt, timeout)
                # not `+ trace`: CPython 3.11 keeps every freed 20-item tuple (a
                # default eval row) in its free list, up to 2000, and reuses none
                bufs[i].extend(trace)
                if states[i] is not None:
                    still.append(i)
            active = still

    width = len(FIXED_COLUMNS) + 2 * sum(m for _, m in models)
    trajs = [Trajectory(np.frombuffer(buf).reshape(-1, width), models, task)
             for buf, task in zip(bufs, swing_tasks)]
    return EvalReport.from_swings(trajs), trajs

