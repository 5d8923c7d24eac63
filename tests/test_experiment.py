"""Protocol plumbing: task sampling, rollouts, training loop, evaluation."""

import dataclasses
import math
import re
from array import array
from pathlib import Path

import numpy as np
import pytest

from grpleg import NonFiniteError, experiment, grp, mulnet
from grpleg.cli_io import (
    FIXED_COLUMNS,
    RunConfig,
    load_model,
    read_trajectory,
    weight_summary,
    write_trajectory,
)
from grpleg.dynamics import JointTorques, LegParams, LegState, integrate_step, kinematics, saturate
from grpleg.experiment import (
    ACTIVE_PI,
    DEG,
    SampleRanges,
    Trajectory,
    _sensor_channels,
    check_swing_steps,
    evaluate,
    run_demo_episode,
    sample_tasks,
    sensor_matrix,
    train,
)
from grpleg.grp import GrpConfig
from grpleg.mulnet import split_row
from grpleg.target_controller import (
    ControllerGains,
    ControllerState,
    SwingTask,
    control_step,
    make_task,
)


@pytest.fixture(scope="module")
def demo():
    task, init = sample_tasks(SampleRanges(), 1, seed=3)[0]
    return run_demo_episode(task, init)


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"


@pytest.fixture(scope="module")
def fixture_pair():
    """The committed default-trained hip and knee models."""
    return load_model(FIXTURE_DIR / "hip.json"), load_model(FIXTURE_DIR / "knee.json")


def same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def fresh_pair(m_knee=3):
    hip = grp.init(GrpConfig(m=1, mu=1e-6, mu_rp=1e-2))
    knee = grp.init(GrpConfig(m=m_knee, mu=1e-6, mu_rp=1e-2))
    return hip, knee


# ----------------------------------------------------------------- sampling


def test_sample_tasks_deterministic():
    a = sample_tasks(SampleRanges(), 5, seed=7)
    b = sample_tasks(SampleRanges(), 5, seed=7)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert ta.alpha_tgt == tb.alpha_tgt
        assert sa == sb
    c = sample_tasks(SampleRanges(), 5, seed=8)
    assert any(x[0].alpha_tgt != y[0].alpha_tgt for x, y in zip(a, c))


def test_sample_tasks_draw_order():
    """Per task: target angle, then hip rate, then knee rate, one stream."""
    ranges = SampleRanges()
    rng = np.random.default_rng(42)
    want = []
    for _ in range(4):
        tgt = rng.uniform(*ranges.alpha_tgt)
        vh = rng.uniform(*ranges.phi_h_dot0)
        vk = rng.uniform(*ranges.phi_k_dot0)
        want.append((tgt, vh, vk))
    got = sample_tasks(ranges, 4, seed=42)
    for (tgt, vh, vk), (task, init) in zip(want, got):
        assert task.alpha_tgt == tgt
        assert init.phi_h_dot == vh
        assert init.phi_k_dot == vk


def test_sample_tasks_ranges_and_fixed_posture():
    ranges = SampleRanges()
    for task, init in sample_tasks(ranges, 200, seed=0):
        assert ranges.alpha_tgt[0] <= task.alpha_tgt <= ranges.alpha_tgt[1]
        assert ranges.phi_h_dot0[0] <= init.phi_h_dot <= ranges.phi_h_dot0[1]
        assert ranges.phi_k_dot0[0] <= init.phi_k_dot <= ranges.phi_k_dot0[1]
        assert init.phi_h == ranges.phi_h0
        assert init.phi_k == ranges.phi_k0
        assert init.t == 0.0


def test_sample_tasks_rejects_empty():
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        sample_tasks(SampleRanges(), 0, seed=0)
    for n in (True, 2.5, "3"):  # a count goes through _kind, as a config's does
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            sample_tasks(SampleRanges(), n, seed=0)


def test_ranges_must_be_ordered():
    with pytest.raises(ValueError, match="not ordered"):
        SampleRanges(alpha_tgt=(1.2, 0.9))


@pytest.mark.parametrize("bounds", [(1.0, 1e308), (-7.0, 1.0),
                                    (0.0, math.nextafter(2 * math.pi, 7))])
def test_target_range_must_stay_within_one_turn(bounds):
    """A target bound beyond 2*pi rad names no leg angle, and 1e308 rad
    overflows to inf in degrees; the range is refused naming alpha_tgt.
    One full turn either way is accepted."""
    with pytest.raises(ValueError, match=r"^alpha_tgt range .* goes beyond one turn"):
        SampleRanges(alpha_tgt=bounds)
    assert SampleRanges(alpha_tgt=(-2 * math.pi, 2 * math.pi)).alpha_tgt[1] == 2 * math.pi


@pytest.mark.parametrize("field", ["phi_h0", "phi_k0"])
@pytest.mark.parametrize("value", [1e308, -1e6, math.nextafter(2 * math.pi, 7), math.inf,
                                   -math.inf, math.nan])
def test_initial_posture_must_be_a_finite_angle_within_one_turn(field, value):
    """A fixed initial joint angle that is not finite or lies beyond 2*pi
    rad is refused naming its field, a non-finite one by the type rule;
    one full turn either way is accepted."""
    message = (rf"{field} .* is not a finite angle within one turn" if math.isfinite(value)
               else rf"{field} has non-finite value {value!r}$")
    with pytest.raises(ValueError, match=f"^{message}"):
        SampleRanges(**{field: value})
    for turn in (-2 * math.pi, 2 * math.pi):
        assert getattr(SampleRanges(**{field: turn}), field) == turn


def task_bits(tasks):
    """Every float of a task list as its hex string, so equal means bit-equal."""
    return [[v.hex() for v in (*dataclasses.astuple(task), *init)] for task, init in tasks]


@pytest.mark.parametrize("seed", [0, 1, 9])
def test_sample_tasks_first_k_do_not_depend_on_n(seed):
    """sample_tasks(r, k, s) is the first k tasks of sample_tasks(r, n, s),
    bit for bit: `grpleg train` samples only the demos its episodes use."""
    ranges = SampleRanges(alpha_tgt=(0.9, 1.4), phi_h_dot0=(-3.0, -0.5))
    for r in (SampleRanges(), ranges):
        full = task_bits(sample_tasks(r, 40, seed))
        for k in (1, 2, 3, 17, 39, 40):
            assert task_bits(sample_tasks(r, k, seed)) == full[:k], k


# ----------------------------------------------------------------- rollouts


def test_demo_rollout_structure(demo):
    assert demo.t[0] == 0.0
    assert np.all(np.diff(demo.t) > 0)
    assert np.allclose(np.diff(demo.t), 1e-3, atol=1e-12)
    assert set(np.unique(demo.phase)) <= {1, 2, 3}
    assert np.all(np.diff(demo.phase) >= 0)
    assert demo.phase[0] == 1 and demo.phase[-1] == 3
    assert not demo.timed_out
    assert demo.contact[-1] and not demo.contact[:-1].any()
    assert demo.traces == {}


def test_demo_rollout_saturation_and_kinematics(demo):
    params = LegParams()
    assert np.max(np.abs(demo.tau_h)) <= params.tau_max
    assert np.max(np.abs(demo.tau_k)) <= params.tau_max
    assert np.allclose(demo.alpha, demo.phi_h - demo.phi_k / 2, atol=1e-12)
    assert np.allclose(demo.l, 2 * params.l_t * np.sin(demo.phi_k / 2),
                       atol=1e-12)


def test_demo_rollout_deterministic(demo):
    task, init = sample_tasks(SampleRanges(), 1, seed=3)[0]
    again = run_demo_episode(task, init)
    for name in ("t", "phi_h", "phi_k", "tau_h", "tau_k"):
        assert np.array_equal(getattr(demo, name), getattr(again, name))


# The lockstep rollout that rolled demonstrations before run_demo_episode
# had its own loop, copied verbatim; run without a stack, it is the oracle
# for every demo table.
def lockstep_rollout(
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
    list of rows takes one grp.forward call. Each swing's rows are
    appended in file layout, with forward's G and pi blocks as they come,
    to one packed array('d') of that swing, with no Python float kept per
    value; its Trajectory's table is a view of that array, a row per tick.
    check_swing_steps refuses dt and timeout at once.
    """
    check_swing_steps(dt, timeout)
    tasks = [task for task, _ in swings]
    states = [init for _, init in swings]
    ctrls = [ControllerState()] * len(swings)
    # per swing, its rows' doubles in file order: each tick's plant columns,
    # then with a stack each model's G block and pi block as forward gives them
    bufs = [array("d") for _ in swings]
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
            traces = np.concatenate((G_h, pi_h, G_k, pi_k), axis=1).tolist()
            torques = map(JointTorques, tau_h.tolist(), tau_k.tolist())

        still = []
        for i, kin, tq, trace in zip(active, kins, torques, traces):
            state, ctrl = states[i], ctrls[i]
            applied = saturate(tq, params)
            bufs[i].extend((
                state.t, state.phi_h, state.phi_k, state.phi_h_dot, state.phi_k_dot,
                kin.alpha, kin.alpha_dot, kin.l, applied.tau_h, applied.tau_k,
                ctrl.phase, ctrl.contact,
            ))
            # not `+ trace`: CPython 3.11 keeps every freed 20-item tuple (a
            # default eval row) in its free list, up to 2000, and reuses none
            bufs[i].extend(trace)
            if not (ctrl.contact or state.t >= timeout):
                states[i] = integrate_step(state, applied, params, dt)
                still.append(i)
        active = still

    width = len(FIXED_COLUMNS) + 2 * sum(m for _, m in models)
    return [Trajectory(np.frombuffer(buf).reshape(-1, width), models, task)
            for buf, task in zip(bufs, tasks)]


def oracle_cases(cfg):
    """Per kind of demonstration swing, its (swings, timeout) under cfg."""
    default = sample_tasks(cfg.ranges, cfg.demo_count, cfg.demo_seed, cfg.gains, cfg.params)
    # the time of row 50, which the swing reaches exactly and stops at
    cut = 0.0
    for _ in range(50):
        cut += cfg.dt
    # starts 3 degrees into the knee stop, extending
    init = LegState(220.0 * DEG, 183.0 * DEG, -2.0, 2.0)
    stop = [(make_task(70.0 * DEG, cfg.gains, cfg.params, init), init)]
    return {"default-tasks": (default, cfg.timeout),
            "short-timeout": (default[:1], cut),
            "knee-stop": (stop, cfg.timeout)}


@pytest.mark.parametrize("case", ["default-tasks", "short-timeout", "knee-stop"])
def test_demo_episode_gives_the_lockstep_rollout_table(case):
    """run_demo_episode's table is, bit for bit, the table the lockstep
    rollout gives the same swing without a stack: over the 40 default
    tasks, a swing cut by its timeout (the last row written without a
    plant step after it) and one that runs into the knee stop."""
    cfg = RunConfig()
    swings, timeout = oracle_cases(cfg)[case]
    want = lockstep_rollout(swings, cfg.gains, cfg.params, cfg.dt, timeout)
    for (task, init), old in zip(swings, want):
        new = run_demo_episode(task, init, cfg.gains, cfg.params, cfg.dt, timeout)
        assert new.task == old.task and new.models == old.models == ()
        assert same_bits(new.table, old.table)
    if case == "short-timeout":
        assert want[0].timed_out and len(want[0]) == 51 and want[0].t[-1] == timeout
    if case == "knee-stop":
        assert np.count_nonzero(want[0].phi_k > math.pi) > 0


@pytest.mark.parametrize("cut", ["at-row-50", "between-rows-50-and-51"])
@pytest.mark.parametrize("rollout", ["run_demo_episode", "evaluate"])
def test_a_swing_cut_by_its_timeout_is_the_uncut_swing_cut_short(rollout, cut, fixture_pair):
    """The stop rule both rollouts share: a swing whose timeout comes before
    it lands is, bit for bit, the first rows of the same swing uncut, ending
    at the first row whose t reaches the timeout, off the ground."""
    task, init = sample_tasks(SampleRanges(), 1, seed=3)[0]

    def roll(timeout):
        if rollout == "run_demo_episode":
            return run_demo_episode(task, init, timeout=timeout)
        return evaluate(*fixture_pair, [(task, init)], timeout=timeout)[1][0]

    uncut = roll(2.0)
    assert not uncut.timed_out and len(uncut) > 52
    t50, t51 = uncut.t[50], uncut.t[51]
    timeout, rows = (t50, 51) if cut == "at-row-50" else (0.5 * (t50 + t51), 52)
    swing = roll(timeout)
    assert len(swing) == rows and swing.contact[-1] == 0
    assert swing.models == uncut.models and same_bits(swing.table, uncut.table[:rows])


def test_recorded_torques_replay_to_recorded_states(demo):
    """Re-integrating the plant under the recorded torques reproduces the
    recorded state columns exactly; this is what licenses training by
    replaying demonstration rows."""
    params = LegParams()
    state = LegState(demo.phi_h[0], demo.phi_k[0],
                     demo.phi_h_dot[0], demo.phi_k_dot[0])
    for i in range(len(demo) - 1):
        state = integrate_step(
            state, JointTorques(demo.tau_h[i], demo.tau_k[i]), params, 1e-3)
        assert state.phi_h == demo.phi_h[i + 1]
        assert state.phi_k == demo.phi_k[i + 1]
        assert state.phi_h_dot == demo.phi_h_dot[i + 1]
        assert state.phi_k_dot == demo.phi_k_dot[i + 1]


def test_forward_and_reference_match_per_row_loop(demo, fixture_pair):
    """Over a demonstration's rows, the joint forward and the reference
    softmax of the recorded torques equal separate Generator and RP network
    calls and a hand-written max-shifted softmax, bit for bit."""
    hip, knee = fixture_pair
    stack = grp.LearnStack([hip, knee])
    X = sensor_matrix(demo)
    for i in range(len(demo)):
        outs = grp.forward(stack, X[i:i + 1])
        for mdl, r_G, (G, pi, _) in zip((hip, knee), (demo.tau_h[i], demo.tau_k[i]), outs):
            G, pi = G[0], pi[0]
            assert same_bits(G, mulnet.net_forward(mdl.W, X[i]))
            assert same_bits(pi, mulnet.sigmoid_head(mulnet.net_forward(mdl.R, X[i]),
                                                     mdl.config.w_gain))
            z = -mdl.gamma * np.abs(r_G - G)
            z -= z.max()
            w = np.exp(z)
            assert same_bits(grp.responsibility_reference(r_G - G, mdl.gamma), w / w.sum())


def test_sensor_matrix_matches_columns(demo):
    X = sensor_matrix(demo)
    assert X.shape == (len(demo), 8)
    i = len(demo) // 2
    da = demo.alpha[i] - demo.task.alpha_tgt
    assert X[i, 0] == max(da, 0.0)
    assert X[i, 1] == max(-da, 0.0)
    assert X[i, 2] == demo.phi_h[i]
    assert X[i, 5] == demo.phi_k[i]


# ----------------------------------------------------------------- training


def synthetic_demo(T=50, alpha_tgt=1.0, seed=777):
    """Unit-scale stand-in trajectory whose torque columns come from nets
    of the same family, so a trained stack can fit them exactly."""
    t = np.arange(T) * 1e-3
    phi_h = np.linspace(3.8, 3.1, T)
    phi_k = np.linspace(3.0, 2.4, T)
    task = make_task(alpha_tgt, ControllerGains(), LegParams(),
                     LegState(phi_h[0], phi_k[0], -1.0, -2.0))
    # FIXED_COLUMNS in order: the torques, columns 8 and 9, are filled below
    table = np.column_stack([
        t, phi_h, phi_k, np.gradient(phi_h, t), np.gradient(phi_k, t),
        phi_h - phi_k / 2, np.full(T, -1.0), 2 * 0.5 * np.sin(phi_k / 2),
        np.zeros(T), np.zeros(T), np.ones(T), np.zeros(T)])
    rng = np.random.default_rng(seed)
    X = sensor_matrix(Trajectory(table, task=task))
    table[:, 8] = mulnet.net_forward(rng.uniform(-0.1, 0.1, (8, 8)), X)
    table[:, 9] = mulnet.net_forward(rng.uniform(-0.1, 0.1, (8, 8)), X)
    return Trajectory(table, task=task)


def test_train_log_shape_and_decrease():
    hip = grp.init(GrpConfig(m=1))
    knee = grp.init(GrpConfig(m=2))
    demos = [synthetic_demo(seed=777), synthetic_demo(seed=778)]
    hip_log, knee_log = train([(hip, "tau_h"), (knee, "tau_k")], demos, episodes=300)
    assert hip_log.shape == (300, 1)
    assert knee_log.shape == (300, 2)
    assert hip_log[-1].min() < 0.2 * hip_log[0].min()
    assert knee_log[-1].min() < 0.2 * knee_log[0].min()
    assert hip.episode_count == 300
    assert hip.gamma == pytest.approx(hip.config.gamma0 * hip.config.beta**300)


def test_train_cycles_demos_in_order():
    """Episode e trains on demonstration e mod len(demos): with a single
    demo, two 1-episode runs from the same init match one 2-episode run's
    first episode."""
    demos = [synthetic_demo(seed=777), synthetic_demo(seed=778)]
    a_hip, a_knee = grp.init(GrpConfig(m=1)), grp.init(GrpConfig(m=2))
    b_hip, b_knee = grp.init(GrpConfig(m=1)), grp.init(GrpConfig(m=2))
    a_hip_log, _ = train([(a_hip, "tau_h"), (a_knee, "tau_k")], demos, episodes=1)
    b_hip_log, _ = train([(b_hip, "tau_h"), (b_knee, "tau_k")], demos[:1], episodes=1)
    assert np.array_equal(a_hip_log[0], b_hip_log[0])
    assert np.array_equal(a_hip.W[0], b_hip.W[0])
    assert np.array_equal(a_knee.R[1], b_knee.R[1])


def test_train_list_gives_each_model_its_solo_bits():
    """Training a list of models in one stack gives each model the weights,
    gamma and log block of training it alone, in input order, whatever it
    shares the stack with; m=8 crosses numpy's pairwise-sum boundary."""
    demos = [synthetic_demo(seed=777), synthetic_demo(seed=778)]
    sizes = [("tau_h", 1), ("tau_k", 3), ("tau_k", 8), ("tau_h", 2)]

    def fresh(k, joint, m):
        return grp.init(GrpConfig(m=m, mu=0.05, beta=1.3, seed=k)), joint

    together = [fresh(k, joint, m) for k, (joint, m) in enumerate(sizes)]
    logs = train(together, demos, episodes=3)
    assert [log.shape for log in logs] == [(3, m) for _, m in sizes]
    for k, ((mdl, joint), log) in enumerate(zip(together, logs)):
        alone, _ = pair = fresh(k, joint, sizes[k][1])
        (solo_log,) = train([pair], demos, episodes=3)
        assert np.array_equal(log, solo_log)
        assert np.array_equal(mdl.W, alone.W) and np.array_equal(mdl.R, alone.R)
        assert (mdl.gamma, mdl.episode_count) == (alone.gamma, alone.episode_count)


def test_train_validation():
    hip, knee = fresh_pair()
    with pytest.raises(ValueError, match="episodes"):
        train([(hip, "tau_h"), (knee, "tau_k")], [synthetic_demo()], episodes=0)
    for episodes in (2.5, "3", True):  # a count goes through _kind, as a config's does
        with pytest.raises(ValueError, match=rf"^episodes must be an integer, got {episodes!r}$"):
            train([(hip, "tau_h"), (knee, "tau_k")], [synthetic_demo()], episodes)
    with pytest.raises(ValueError, match="no demonstrations"):
        train([(hip, "tau_h"), (knee, "tau_k")], [], episodes=1)
    with pytest.raises(ValueError, match=r"got joints \['tau_h', 'phi_k'\]"):
        train([(hip, "tau_h"), (knee, "phi_k")], [synthetic_demo()], episodes=1)
    with pytest.raises(ValueError, match=r"got joints \[\]"):
        train([], [synthetic_demo()], episodes=1)
    assert hip.episode_count == knee.episode_count == 0


def test_train_refuses_a_demo_without_a_task(tmp_path, demo):
    """A demo read back from its CSV carries no task, so no target angle
    for its sensor rows: train refuses it, naming its index, before any
    learn step or stack."""
    write_trajectory(tmp_path / "demo.csv", demo)
    read_back = read_trajectory(tmp_path / "demo.csv")
    assert read_back.task is None
    hip, knee = fresh_pair()
    W = hip.W
    with pytest.raises(ValueError, match=r"^demos\[1\] carries no task"):
        train([(hip, "tau_h"), (knee, "tau_k")], [demo, read_back], episodes=2)
    assert hip.W is W and hip.episode_count == knee.episode_count == 0


@pytest.mark.parametrize("knee_config, message", [
    ({"mu": 1e6}, "^model 2 \\(tau_k\\): non-finite weight update: "),
    ({"beta": 1e200}, "^model 2 \\(tau_k\\): gamma 1e\\+200 \\* beta 1e\\+200 overflows "),
], ids=["diverging-update", "overflowing-gamma"])
def test_train_keeps_the_places_of_the_models_that_went_non_finite(knee_config, message, demo):
    """train's NonFiniteError names each model by its place in the list and
    keeps those places as `models`, for a diverging learn step as for an
    overflowing sharpness."""
    hip = grp.init(GrpConfig(m=1))
    knee = grp.init(GrpConfig(m=3, **knee_config))
    with pytest.raises(NonFiniteError, match=message) as err:
        train([(hip, "tau_h"), (knee, "tau_k")], [demo], episodes=3)
    assert err.value.models == (2,)


def pulled(demos, count):
    """A generator over `demos` that appends to `count` each demo it yields."""
    for d in demos:
        count.append(d)
        yield d


@pytest.mark.parametrize("n_demos, episodes", [(3, 2), (2, 5), (1, 3)],
                         ids=["more-demos-than-episodes", "cycling", "one-demo"])
def test_train_reads_a_generator_as_it_reads_the_list(n_demos, episodes):
    """A generator of demos trains to the weights, gamma and log the same
    list gives, with more demos than episodes and cycling; train reads at
    most `episodes` of them, each once."""
    demos = [synthetic_demo(seed=777 + k) for k in range(n_demos)]
    (a_hip, a_knee), (b_hip, b_knee) = fresh_pair(), fresh_pair()
    count = []
    a_logs = train([(a_hip, "tau_h"), (a_knee, "tau_k")], demos, episodes)
    b_logs = train([(b_hip, "tau_h"), (b_knee, "tau_k")], pulled(demos, count), episodes)
    assert len(count) == min(n_demos, episodes)
    assert all(same_bits(a, b) for a, b in zip(a_logs, b_logs))
    for a, b in ((a_hip, b_hip), (a_knee, b_knee)):
        assert same_bits(a.W, b.W) and same_bits(a.R, b.R)
        assert (a.gamma, a.episode_count) == (b.gamma, b.episode_count)


def test_train_refuses_a_generator_demo_leaving_the_models_unchanged(tmp_path, demo):
    """From a generator as from a list: an empty corpus, and a demo without
    a task named by its index, are refused before any learn step."""
    write_trajectory(tmp_path / "demo.csv", demo)
    read_back = read_trajectory(tmp_path / "demo.csv")
    hip, knee = fresh_pair()
    W = hip.W
    with pytest.raises(ValueError, match="^no demonstrations to train on$"):
        train([(hip, "tau_h"), (knee, "tau_k")], iter([]), episodes=1)
    with pytest.raises(ValueError, match=r"^demos\[2\] carries no task"):
        train([(hip, "tau_h"), (knee, "tau_k")], iter([demo, demo, read_back]), episodes=5)
    assert hip.W is W and hip.episode_count == knee.episode_count == 0


# --------------------------------------------------------------- evaluation


def test_evaluate_report_consistency():
    hip, knee = fresh_pair()
    tasks = sample_tasks(SampleRanges(), 2, seed=11)
    report, trajs = evaluate(hip, knee, tasks)
    assert len(trajs) == 2
    tgt = np.array([t.alpha_tgt for t, _ in tasks]) / DEG
    end = np.array([tr.alpha_end for tr in trajs]) / DEG
    assert np.array_equal(report.alpha_tgt_deg, tgt)
    assert np.array_equal(report.error_deg, np.abs(tgt - end))
    assert report.avg_error_deg == report.error_deg.mean()
    assert report.max_error_deg == report.error_deg.max()
    # the report reads the swings once, keeping a running peak: a max is exact
    streamed = experiment.EvalReport.from_swings(iter(trajs))
    for name, peak in report.peak_pi.items():
        whole = np.concatenate([tr.traces[name].pi for tr in trajs]).max(axis=0)
        assert np.array_equal(peak, whole) and np.array_equal(streamed.peak_pi[name], whole)
    for tr in trajs:
        assert tr.timed_out == (not tr.contact[-1])
        for trace in tr.traces.values():
            assert np.all((trace.pi > 0) & (trace.pi < 1))


def test_evaluate_rejects_missing_model():
    hip, knee = fresh_pair()
    tasks = sample_tasks(SampleRanges(), 1, seed=14)
    with pytest.raises(ValueError, match="needs a hip GrpModel, got NoneType"):
        evaluate(None, knee, tasks)
    with pytest.raises(ValueError, match="needs a knee GrpModel, got NoneType"):
        evaluate(hip, None, tasks)


def test_evaluate_takes_a_generator_of_tasks(fixture_pair):
    """evaluate reads its tasks once into a list, so a generator of them
    gives the list's report and tables bit for bit."""
    tasks = sample_tasks(SampleRanges(), 2, seed=11)
    (report, trajs), (streamed, streamed_trajs) = (
        evaluate(*fixture_pair, given) for given in (tasks, (task for task in tasks)))
    for key in ("alpha_tgt_deg", "alpha_end_deg", "error_deg", "timed_out"):
        assert same_bits(getattr(streamed, key), getattr(report, key)), key
    assert report.peak_pi.keys() == streamed.peak_pi.keys()
    assert all(same_bits(streamed.peak_pi[k], peak) for k, peak in report.peak_pi.items())
    assert len(streamed_trajs) == len(trajs) == 2
    assert all(same_bits(a.table, b.table) for a, b in zip(streamed_trajs, trajs))


def test_evaluate_never_mutates_weights():
    hip, knee = fresh_pair()
    before = [(W.copy(), R.copy())
              for mdl in (hip, knee) for W, R in zip(mdl.W, mdl.R)]
    gamma = (hip.gamma, knee.gamma)
    evaluate(hip, knee, sample_tasks(SampleRanges(), 2, seed=12))
    after = [(W, R) for mdl in (hip, knee) for W, R in zip(mdl.W, mdl.R)]
    for (w0, r0), (w1, r1) in zip(before, after):
        assert np.array_equal(w0, w1)
        assert np.array_equal(r0, r1)
    assert (hip.gamma, knee.gamma) == gamma


@pytest.mark.parametrize("read", ["evaluate", "total_output_identity"])
def test_reading_models_leaves_them_in_their_live_stack(read, demo):
    """evaluate and grp.total_output_identity stack copies of the models,
    so a model in a live stack stays in it: its weights are still views of
    the stack, and the stack's next learn step moves them."""
    hip, knee = fresh_pair()
    stack = grp.LearnStack([hip, knee])
    x = sensor_matrix(demo)[0]
    if read == "evaluate":
        evaluate(hip, knee, sample_tasks(SampleRanges(), 1, seed=12))
    else:
        grp.total_output_identity(hip, x, 1.0)
        grp.total_output_identity(knee, x, 1.0)
    for mdl in (hip, knee):
        assert np.shares_memory(mdl.W, stack.S) and np.shares_memory(mdl.R, stack.S)
    before = [mdl.W.copy() for mdl in (hip, knee)]
    grp.learn_step_joint(stack, x, np.array([1.0, -1.0]))
    for mdl, W in zip((hip, knee), before):
        assert not np.array_equal(mdl.W, W)


def test_learn_stacks_stepped_together_keep_their_solo_bits(demo):
    """Two stacks stepped tick by tick in turn on demo rows, with an
    evaluate of one stack's models mid-training, each keep the records and
    weights they get when stepped alone, and the evaluate gives what it
    gives on the solo stack's models: no stack's network buffers reach
    another's."""
    def stack_a():
        return grp.LearnStack(list(fresh_pair()))

    def stack_b():
        models = [grp.init(GrpConfig(m=5, mu=2e-3, w_gain=1.5, seed=62))]
        models[0].W -= 20.0  # exponent clamps fire in this stack only
        return grp.LearnStack(models)

    X = sensor_matrix(demo)[:160]
    assert X.shape[0] == 160
    tasks = sample_tasks(SampleRanges(), 1, seed=12)
    a, b, solo_a, solo_b = stack_a(), stack_b(), stack_a(), stack_b()
    for t, x in enumerate(X):
        if t == 80:
            report, _ = evaluate(*a.models, tasks)
            want, _ = evaluate(*solo_a.models, tasks)
            assert same_bits(report.alpha_end_deg, want.alpha_end_deg)
        for live, solo in ((a, solo_a), (b, solo_b)):
            for stack in (live, solo):
                r_G = np.sin(0.1 * t + np.arange(len(stack.models)))
                grp.learn_step_joint(stack, x, r_G)
            for name in ("G", "pi", "e_G", "r_RP", "e_RP"):
                assert same_bits(getattr(live, name), getattr(solo, name)), name
    assert same_bits(a.S, solo_a.S) and same_bits(b.S, solo_b.S)
    assert not same_bits(a.S, stack_a().S)


def test_evaluate_torques_match_model_output():
    """Applied torque equals the saturated combined model output."""
    hip, knee = fresh_pair()
    tasks = sample_tasks(SampleRanges(), 1, seed=13)
    _, (traj,) = evaluate(hip, knee, tasks)
    X = sensor_matrix(traj)
    i = len(traj) // 3
    _, _, tau_h = grp.forward(grp.LearnStack([hip]), X[i:i + 1])[0]
    _, _, tau_k = grp.forward(grp.LearnStack([knee]), X[i:i + 1])[0]
    cap = LegParams().tau_max
    assert traj.tau_h[i] == np.clip(tau_h[0], -cap, cap)
    assert traj.tau_k[i] == np.clip(tau_k[0], -cap, cap)


def test_model_driven_rollout_matches_one_model_forwards(fixture_pair):
    """One joint forward per tick gives the traces, applied torques and
    exponent-clamp count of separate one-model forwards on the same rows."""
    hip, knee = fixture_pair
    tasks = sample_tasks(SampleRanges(), 1, seed=2)
    mulnet.reset_exp_clamp_count()
    _, (traj,) = evaluate(hip, knee, tasks)
    clamps = mulnet.exp_clamp_count()
    mulnet.reset_exp_clamp_count()
    X = sensor_matrix(traj)
    cap = LegParams().tau_max
    for name, mdl, applied in (("hip", hip, traj.tau_h), ("knee", knee, traj.tau_k)):
        one = grp.LearnStack([mdl])
        # each row alone, as a (1, 8) block, copied before the next call overwrites it
        rows = [[np.copy(a[0]) for a in grp.forward(one, x[None])[0]] for x in X]
        trace = traj.traces[name]
        assert same_bits(trace.G, np.array([G for G, _, _ in rows]))
        assert same_bits(trace.pi, np.array([pi for _, pi, _ in rows]))
        tau = np.array([tau for _, _, tau in rows])
        assert same_bits(applied, np.clip(tau, -cap, cap))
    assert clamps > 0
    assert mulnet.exp_clamp_count() == clamps


def test_evaluate_rejects_empty_task_list():
    hip, knee = fresh_pair()
    with pytest.raises(ValueError, match="no tasks to evaluate"):
        evaluate(hip, knee, [])
    with pytest.raises(ValueError, match="^no swings to report$"):
        experiment.EvalReport.from_swings(iter([]))


def test_report_refuses_a_swing_without_a_task(tmp_path, demo):
    """A swing read back from its CSV carries no task, so no target angle:
    the report refuses it naming its index, as train names a demo's."""
    write_trajectory(tmp_path / "demo.csv", demo)
    read_back = read_trajectory(tmp_path / "demo.csv")
    with pytest.raises(ValueError, match=r"^swings\[1\] carries no task, so it has no target angle$"):
        experiment.EvalReport.from_swings(iter([demo, read_back]))


def test_evaluate_refuses_overflowing_weights_without_numpy_warnings(fixture_pair):
    """Weights scaled by 1e300 are finite, so a model file holds them, but
    the network output overflows to a NaN torque: the rollout's torque check
    refuses it, and numpy warns of nothing (any warning fails the test)."""
    hip, knee = fixture_pair
    huge = dataclasses.replace(hip, W=hip.W * 1e300)
    with pytest.raises(ValueError, match="^tau_h torque is NaN; it cannot be saturated$"):
        evaluate(huge, knee, sample_tasks(SampleRanges(), 2, seed=2))


@pytest.mark.parametrize("timeout, dt", [(math.nan, 1e-3), (math.inf, 1e-3),
                                         (1e300, 1e-3), (2.0, 1e-300), (2.0, math.inf)],
                         ids=["nan", "inf", "huge", "dt-tiny", "dt-inf"])
@pytest.mark.parametrize("rollout", ["evaluate", "run_demo_episode"])
def test_rollouts_refuse_a_timeout_that_is_not_finite(rollout, timeout, dt, monkeypatch):
    """No swing reaches a NaN or infinite timeout, and a finite one may be
    more plant steps than any swing should take, so one that never landed
    would append rows without end: the rollout refuses a timeout of more
    than MAX_SWING_STEPS steps of dt, as RunConfig does, before any swing
    takes its first tick. An infinite dt would make that any timeout's
    zero steps, and the first plant step fail; it is refused as dt."""
    def no_tick(*args):
        raise AssertionError("a swing rolled")

    monkeypatch.setattr(experiment, "kinematics", no_tick)
    tasks = sample_tasks(SampleRanges(), 2, seed=5)
    message = f"timeout {timeout} is more than {experiment.MAX_SWING_STEPS} steps of dt {dt}"
    if dt == math.inf:
        message = "dt must be finite and positive, got inf"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if rollout == "evaluate":
            evaluate(*fresh_pair(), tasks, dt=dt, timeout=timeout)
        else:
            run_demo_episode(*tasks[0], dt=dt, timeout=timeout)


@pytest.mark.parametrize("timeout", [0.0, 1e-3, -math.inf], ids=["zero", "dt", "-inf"])
@pytest.mark.parametrize("rollout", ["evaluate", "run_demo_episode"])
def test_rollouts_refuse_a_timeout_not_beyond_one_step(rollout, timeout, monkeypatch):
    """A timeout not beyond one step of dt would roll a swing of one row,
    timed out: both rollouts refuse it in RunConfig's words, before any
    swing takes its first tick (RunConfig refuses -inf as non-finite first)."""
    def no_tick(*args):
        raise AssertionError("a swing rolled")

    monkeypatch.setattr(experiment, "kinematics", no_tick)
    tasks = sample_tasks(SampleRanges(), 2, seed=5)
    message = f"timeout {timeout} not beyond one step"
    if math.isfinite(timeout):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(timeout=timeout)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if rollout == "evaluate":
            evaluate(*fresh_pair(), tasks, dt=1e-3, timeout=timeout)
        else:
            run_demo_episode(*tasks[0], dt=1e-3, timeout=timeout)


@pytest.mark.parametrize("rates, error, message", [
    ({"phi_h_dot": math.nan}, ValueError, "tau_h torque is NaN; it cannot be saturated"),
    ({"phi_h_dot": 1e200}, NonFiniteError,
     "non-finite state or torque in integration step at t=0.0: math domain error"),
    ({"phi_k_dot": math.inf}, NonFiniteError,
     "non-finite state or torque in integration step at t=0.0: math domain error"),
], ids=["nan-hip-rate", "huge-hip-rate", "inf-knee-rate"])
def test_demo_refuses_a_bad_initial_state(rates, error, message):
    """A NaN initial rate gives the controller a NaN torque, which saturate
    refuses; a huge or infinite one fails the first plant step."""
    task, init = sample_tasks(SampleRanges(), 1, seed=3)[0]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        run_demo_episode(task, init._replace(**rates))
    assert type(raised.value) is error


def solo_evaluations(hip, knee, tasks, timeout):
    """Each task evaluated on its own: (report, trajectory) per task and
    the total exponent-clamp count."""
    mulnet.reset_exp_clamp_count()
    runs = [evaluate(hip, knee, [task], timeout=timeout) for task in tasks]
    return [(report, traj) for report, (traj,) in runs], mulnet.exp_clamp_count()


@pytest.mark.parametrize("timeouts", ["none", "one"])
def test_lockstep_swings_match_solo_evaluations(timeouts, fixture_pair):
    """Swings evaluated together, in lockstep, are each bit-identical to the
    swing evaluated alone: every column, trace and report entry, and the
    total exponent-clamp count; also when one swing times out while the
    others land and leave the active set at other ticks."""
    hip, knee = fixture_pair
    tasks = sample_tasks(SampleRanges(), 3, seed=5)
    timeout = 2.0
    if timeouts == "one":
        # between the two latest landings: only the latest swing times out
        t_end = sorted(traj.t[-1] for _, traj in solo_evaluations(hip, knee, tasks, 2.0)[0])
        timeout = 0.5 * (t_end[1] + t_end[2])
    solo, solo_clamps = solo_evaluations(hip, knee, tasks, timeout)
    mulnet.reset_exp_clamp_count()
    report, trajs = evaluate(hip, knee, tasks, timeout=timeout)
    assert mulnet.exp_clamp_count() == solo_clamps > 0
    assert report.timed_out.sum() == (timeouts == "one")
    assert len({len(traj) for traj in trajs}) == 3
    for n, (traj, (alone_report, alone)) in enumerate(zip(trajs, solo)):
        assert traj.task == alone.task and traj.timed_out == alone.timed_out
        for name in FIXED_COLUMNS:
            assert same_bits(getattr(traj, name), getattr(alone, name)), name
        assert list(traj.traces) == list(alone.traces) == ["hip", "knee"]
        for name, trace in traj.traces.items():
            for field in ("G", "pi"):
                assert same_bits(getattr(trace, field), getattr(alone.traces[name], field))
        for field in ("alpha_tgt_deg", "alpha_end_deg", "error_deg", "timed_out"):
            assert getattr(report, field)[n] == getattr(alone_report, field)[0]
    for name, peak in report.peak_pi.items():
        assert same_bits(peak, np.maximum.reduce([r.peak_pi[name] for r, _ in solo]))


@pytest.mark.parametrize("fail_ticks, raised", [((10, 5), "swing 1 at tick 5"),
                                                 ((5, 5), "swing 0 at tick 5")],
                         ids=["later-swing-first", "same-tick"])
def test_lockstep_raises_the_first_failure_in_tick_order(fail_ticks, raised, monkeypatch):
    """Of several failing swings, the one that fails at the earliest tick
    raises, whatever its place in the task list; within one tick, the
    lowest-numbered one does."""
    hip, knee = fresh_pair()
    tasks = sample_tasks(SampleRanges(), 2, seed=15)
    calls = [0, 0]

    def failing_control_step(kin, ctrl, task, gains):
        j = [t for t, _ in tasks].index(task)
        if calls[j] == fail_ticks[j]:
            raise NonFiniteError(f"swing {j} at tick {calls[j]}")
        calls[j] += 1
        return control_step(kin, ctrl, task, gains)

    monkeypatch.setattr(experiment, "control_step", failing_control_step)
    with pytest.raises(NonFiniteError, match=raised):
        evaluate(hip, knee, tasks)


# ------------------------------------------------- responsibility summaries


def test_peak_responsibilities_across_trajectories(fixture_pair):
    """peak_pi is each layer's largest pi over every tick of every swing."""
    hip, knee = fixture_pair
    report, trajs = evaluate(hip, knee, sample_tasks(SampleRanges(), 3, seed=2))
    assert list(report.peak_pi) == ["hip", "knee"]
    for name, peak in report.peak_pi.items():
        per_swing = [tr.traces[name].pi.max(axis=0) for tr in trajs]
        assert same_bits(peak, np.maximum.reduce(per_swing))


@pytest.mark.parametrize("pair", ["fixture", "one-silenced-rp"])
def test_active_generators_count_peaks_above_a_tenth(pair, fixture_pair):
    """A layer is an active generator when its peak pi exceeds 0.1."""
    if pair == "fixture":
        hip, knee = fixture_pair
    else:
        hip, knee = fresh_pair()
        knee.R[2] = np.diag(np.full(8, -10.0))  # pi^3 stays near 0
    report, _ = evaluate(hip, knee, sample_tasks(SampleRanges(), 2, seed=2))
    assert ACTIVE_PI == 0.1
    assert list(report.active_generators) == ["hip", "knee"]
    for name, peak in report.peak_pi.items():
        assert report.active_generators[name] == int((peak > 0.1).sum())
    if pair == "one-silenced-rp":
        assert report.peak_pi["knee"][2] < 0.1 < report.peak_pi["knee"][:2].min()
        assert report.active_generators == {"hip": 1, "knee": 2}


def test_weight_summary_layout():
    model = grp.init(GrpConfig(m=2))
    summary = weight_summary(model)
    assert summary["m"] == 2
    assert summary["gamma"] == model.gamma
    assert len(summary["layers"]) == 2
    entry = summary["layers"][0]
    assert entry["W_norm"] == pytest.approx(np.linalg.norm(model.W[0]))
    assert np.array(entry["W"]).shape == (8, 8)
    model.W[1][:] = 0.0
    assert weight_summary(model)["layers"][1]["W_norm"] == 0.0
    # gamma is written as a float, as the model file writes it, from an integer gamma0 too
    assert type(weight_summary(grp.init(GrpConfig(m=1, gamma0=1)))["gamma"]) is float
