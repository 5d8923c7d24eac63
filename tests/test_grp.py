"""GRP stack: responsibility softmax, output identity, gated learning."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from grpleg import NonFiniteError, grp, mulnet
from grpleg.cli_io import load_model
from grpleg.experiment import SampleRanges, evaluate, sample_tasks, sensor_matrix
from grpleg.grp import (
    GrpConfig,
    GrpModel,
    LearnStack,
    end_episode,
    forward,
    init,
    learn_step_joint,
    responsibility_reference,
    total_output_identity,
)
from grpleg.mulnet import NET_DIM


def sample_x(seed=0):
    rng = np.random.default_rng(seed)
    raw = [
        rng.uniform(-1.0, 1.0),
        rng.uniform(2.0, 3.9),
        rng.uniform(-2.0, 2.0),
        rng.uniform(2.0, 3.9),
        rng.uniform(-2.0, 2.0),
    ]
    return mulnet.split_input(raw)


def forward_one(stack, x):
    """forward at one input as a (1, 8) block: (G, pi, tau) per model, row 0,
    copied out of the stack's forward buffers, which the next call overwrites."""
    return [(G[0].copy(), pi[0].copy(), tau[0])
            for G, pi, tau in forward(stack, np.asarray(x)[None])]


# ------------------------------------------------------------------- config


def test_config_defaults_valid():
    GrpConfig(m=3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=0),
        dict(m=2.5),
        dict(m=True),
        dict(m=1, mu=0.0),
        dict(m=1, mu_rp=0.0),
        dict(m=1, lam=-1e-6),
        dict(m=1, gamma0=0.0),
        dict(m=1, beta=1.0),
        dict(m=1, beta=0.9),
        dict(m=1, init_scale=0.0),
        dict(m=1, seed=-1),
        dict(m=1, seed=1.5),
        dict(m=1, seed=True),
        dict(m=1, mu_rp=None),
        dict(m=1, mu="1e-6"),
        dict(m=1, mu=10**400),
        dict(m=1, mu=True),
        dict(m=1, lam=False),
    ],
)
def test_config_rejects_bad_fields(kwargs):
    """Each case's last field is the bad one, and the error names it."""
    with pytest.raises(ValueError, match=f"^{list(kwargs)[-1]} "):
        GrpConfig(**kwargs)


@pytest.mark.parametrize("field, value, message", [
    ("mu_rp", None, "mu_rp must be a number, got None"),
    ("mu", "1e-6", "mu must be a number, got '1e-6'"),
    ("mu", True, "mu must be a number, got True"),
    ("lam", False, "lam (lambda) must be a number, got False"),
    ("mu", 10**400, "mu is an integer too large for a float"),
    ("beta", -10**400, "beta is an integer too large for a float"),
])
def test_config_names_a_float_field_of_the_wrong_type(field, value, message):
    """A float field takes an int or a float, as in a file: a bool, a
    string or None is refused naming the field, and so is an integer too
    large for a float, not by the finiteness check's TypeError or
    OverflowError. A plain int stays accepted as it is."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GrpConfig(m=1, **{field: value})
    assert getattr(GrpConfig(m=1, **{field: 2}), field) == 2


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("lam", math.nan, "lam (lambda) has non-finite value nan"),
        ("lam", math.inf, "lam (lambda) has non-finite value inf"),
        ("mu", math.inf, "mu has non-finite value inf"),
        ("mu", math.nan, "mu has non-finite value nan"),
        ("mu_rp", math.inf, "mu_rp has non-finite value inf"),
        ("beta", math.inf, "beta has non-finite value inf"),
        ("gamma0", math.inf, "gamma0 has non-finite value inf"),
        ("init_scale", math.inf, "init_scale has non-finite value inf"),
        ("w_gain", math.nan, "w_gain has non-finite value nan"),
        ("w_gain", -math.inf, "w_gain has non-finite value -inf"),
    ],
)
def test_config_rejects_non_finite_fields(field, value, message):
    """A non-finite float field is refused in the words a file's is."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GrpConfig(m=1, **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("gamma", 0.0, "gamma must be > 0, got 0.0"),
    ("gamma", "x", "gamma must be a number, got 'x'"),
    ("episode_count", -1, "episode_count must be >= 0, got -1"),
    ("episode_count", 1.0, "episode_count must be an integer, got 1.0"),
    ("config", 5, "config must be a GrpConfig, got 5"),
])
def test_model_checks_its_fields_as_a_config_does(field, value, message):
    """A GrpModel's gamma, episode count and config are held to their
    types and bounds by the rule a config's fields are, naming the field;
    an int gamma is stored as a float."""
    model = init(GrpConfig(m=1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(model, **{field: value})
    held = dataclasses.replace(model, gamma=1)
    assert type(held.gamma) is float and held.gamma == 1.0


@pytest.mark.parametrize("W, R, message", [
    ((2, 8, 8), (2, 8, 8), "model has 2 layers but config.m = 3"),
    ((3, 7, 8), (3, 8, 8), "W must have shape (3, 8, 8), got (3, 7, 8)"),
    ((3, 8, 8), (2, 8, 8), "R must have shape (3, 8, 8), got (2, 8, 8)"),
    ((8, 8), (8, 8), "W must have shape (3, 8, 8), got (8, 8)"),
], ids=["layers", "W-rows", "R-layers", "W-2d"])
def test_model_refuses_weights_that_are_not_its_config_m_stacks(W, R, message):
    """A model's W and R are (config.m, 8, 8) stacks from construction, so
    save_model never writes a model that load_model refuses and no weights
    reach LearnStack's concatenate in another shape."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GrpModel(W=np.zeros(W), R=np.zeros(R), gamma=1.0, config=GrpConfig(m=3))


def test_config_rejects_an_init_scale_whose_draw_range_overflows():
    """init draws lo + 2*init_scale * u, so 2*init_scale must be finite;
    the largest such init_scale is accepted."""
    with pytest.raises(ValueError, match=r"^init_scale 1e\+308 gives a draw range 2\*init_scale"):
        GrpConfig(m=1, init_scale=1e308)
    largest = math.nextafter(math.inf, 0) / 2
    model = init(GrpConfig(m=1, init_scale=largest))
    assert np.isfinite(model.W).all() and np.isfinite(model.R).all()


# --------------------------------------------------------------------- init


def test_init_deterministic():
    a = init(GrpConfig(m=3, seed=42))
    b = init(GrpConfig(m=3, seed=42))
    for k in range(3):
        assert np.array_equal(a.W[k], b.W[k])
        assert np.array_equal(a.R[k], b.R[k])


def test_init_layers_pairwise_distinct():
    model = init(GrpConfig(m=3, seed=1))
    for i in range(3):
        for j in range(i + 1, 3):
            assert not np.array_equal(model.W[i], model.W[j])
            assert not np.array_equal(model.R[i], model.R[j])


def test_init_layer_stream_independent_of_m():
    small = init(GrpConfig(m=1, seed=9))
    big = init(GrpConfig(m=4, seed=9))
    assert np.array_equal(small.W[0], big.W[0])


def test_init_scale_bounds_weights():
    model = init(GrpConfig(m=2, init_scale=0.05, seed=3))
    for k in range(2):
        assert np.abs(model.W[k]).max() <= 0.05
        assert np.abs(model.R[k]).max() <= 0.05
    assert model.gamma == model.config.gamma0
    assert model.episode_count == 0


# --------------------------------------------------- responsibility softmax


def test_responsibility_uniform_under_ties():
    for gamma in (1e-3, 0.3, 1.0, 1e3, 1e9):
        r = responsibility_reference([0.4, 0.4, 0.4], gamma)
        assert np.all(r == r[0])
        assert abs(r.sum() - 1.0) < 1e-12


def test_responsibility_two_layer_point():
    r = responsibility_reference([0.0, 1.0], 1.0)
    assert math.isclose(r[0], 0.7310585786300049, rel_tol=1e-12)
    assert math.isclose(r[1], 0.2689414213699951, rel_tol=1e-12)


def test_responsibility_sharp_limit_is_one_hot():
    r = responsibility_reference([0.1, 0.2], 1e6)
    assert r[0] == 1.0 and r[1] == 0.0


def test_responsibility_sign_blind():
    assert np.array_equal(
        responsibility_reference([0.3, -0.5], 2.0),
        responsibility_reference([-0.3, 0.5], 2.0),
    )


def test_responsibility_properties_fuzz():
    rng = np.random.default_rng(8)
    for _ in range(300):
        m = int(rng.integers(1, 8))
        e = rng.normal(0.0, 3.0, m)
        gamma = 10.0 ** rng.uniform(-3, 9)
        r = responsibility_reference(e, gamma)
        assert abs(r.sum() - 1.0) < 1e-12
        assert np.all(r >= 0.0) and np.all(r <= 1.0)
        if gamma * np.ptp(np.abs(e)) < 700.0:  # below exp underflow
            assert np.all(r > 0.0)
        assert r.argmax() == np.abs(e).argmin()


# ---------------------------------------------------- forward and identity


def test_forward_zero_generators():
    model = init(GrpConfig(m=3, seed=2))
    for k in range(3):
        model.W[k] = np.zeros_like(model.W[k])
    G, pi, tau = forward_one(LearnStack([model]), sample_x())[0]
    assert np.all(G == 0.0) and tau == 0.0
    assert np.all((0.0 < pi) & (pi < 1.0))


def test_forward_single_layer_saturated_gate():
    model = init(GrpConfig(m=1, seed=4))
    R = np.zeros((8, 8))
    R[2, 2] = 10.0  # large gain on phi_h drives the head to saturation
    model.R[0] = R
    x = sample_x(1)
    G, pi, tau = forward_one(LearnStack([model]), x)[0]
    assert pi[0] > 1.0 - 1e-12
    assert math.isclose(tau, G[0], rel_tol=1e-9)


def test_forward_matches_per_layer_recomputation():
    model = init(GrpConfig(m=3, seed=5))
    x = sample_x(2)
    G, pi, tau = forward_one(LearnStack([model]), x)[0]
    manual = 0.0
    for k in range(3):
        gk = mulnet.net_forward(model.W[k], x)
        pk = mulnet.sigmoid_head(mulnet.net_forward(model.R[k], x),
                                 model.config.w_gain)
        assert gk == G[k] and pk == pi[k]
        manual += gk * pk
    assert math.isclose(tau, manual, rel_tol=1e-13)


def same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_forward_joint_stack_matches_one_model_stacks():
    """Models with different m and w_gain evaluated in one stack give, per
    model, the bits of a one-model stack."""
    models = [init(GrpConfig(m=m, w_gain=g, seed=s))
              for m, g, s in ((1, 1.0, 20), (3, 2.5, 21), (2, 0.5, 22))]
    for mdl in models:
        mdl.W *= 400.0  # large enough that exponent clamps fire
    joint = LearnStack(models)
    assert joint.S.shape == (12, 8, 8)
    assert joint.slices == (slice(0, 1), slice(1, 4), slice(4, 6))
    for seed in range(6):
        x = sample_x(seed)
        mulnet.reset_exp_clamp_count()
        together = forward_one(joint, x)
        clamps = mulnet.exp_clamp_count()
        mulnet.reset_exp_clamp_count()
        alone = [forward_one(LearnStack([mdl]), x)[0] for mdl in models]
        assert clamps > 0 and mulnet.exp_clamp_count() == clamps
        for mdl, (G, pi, tau), (G1, pi1, tau1) in zip(models, together, alone):
            assert G.shape == pi.shape == (mdl.m,)
            assert isinstance(tau1, float) and same_bits(tau1, G1 @ pi1)
            assert same_bits(G, G1) and same_bits(pi, pi1) and same_bits(tau, tau1)


@pytest.mark.parametrize("m", range(1, 10))
def test_forward_block_matches_per_row_forward(m):
    """forward on an (N, 8) block, N = 1, 2, 7 and 20, gives row by row the
    bits of forward on that row alone as a (1, 8) block: G, pi and tau per
    model, and the exponent clamps. Each tau has the bits of the 1-D
    G @ pi of its row, from m = 1 up to 9, past the 8 at which numpy's
    reductions change their summation order."""
    models = [init(GrpConfig(m=1, seed=60)), init(GrpConfig(m=m, w_gain=1.5, seed=61))]
    models[1].W *= 300.0  # large enough that exponent clamps fire
    stack = LearnStack(models)
    for n in (1, 2, 7, 20):
        X = np.stack([sample_x(seed) for seed in range(n)])
        mulnet.reset_exp_clamp_count()
        block = [tuple(a.copy() for a in out) for out in forward(stack, X)]
        clamps = mulnet.exp_clamp_count()
        mulnet.reset_exp_clamp_count()
        rows = [forward_one(stack, x) for x in X]
        assert clamps > 0 and mulnet.exp_clamp_count() == clamps
        for k, (mdl, (G, pi, tau)) in enumerate(zip(models, block)):
            assert G.shape == pi.shape == (n, mdl.m) and tau.shape == (n,)
            assert same_bits(G, [row[k][0] for row in rows])
            assert same_bits(pi, [row[k][1] for row in rows])
            assert same_bits(tau, [row[k][2] for row in rows])
            assert same_bits(tau, [np.array(G_n) @ np.array(pi_n) for G_n, pi_n in zip(G, pi)])


@pytest.mark.parametrize("shape", [(), (7,), (8,), (9,), (3, 5), (3, 16), (2, 3, 8)],
                         ids=["0-d", "7", "8", "9", "3x5", "3x16", "2x3x8"])
def test_forward_rejects_inputs_other_than_8_wide_rows(shape):
    """forward takes an (N, 8) block; anything else, a single (8,) input
    included, is refused with its shape named."""
    stack = LearnStack([init(GrpConfig(m=1, seed=25)), init(GrpConfig(m=3, seed=26))])
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        forward(stack, np.ones(shape))


def test_forward_reads_the_live_stack():
    """After a learn step, forward on the live stack gives the bits of
    forward on a fresh stack of copies of the updated models."""
    hip, knee = init(GrpConfig(m=1, seed=23)), init(GrpConfig(m=3, seed=24))
    stack = LearnStack([hip, knee])
    x = sample_x(8)
    before = forward_one(stack, x)
    learn_step_joint(stack, x, [3.0, -1.0])
    after = forward_one(stack, x)
    copies = [dataclasses.replace(mdl, W=mdl.W.copy(), R=mdl.R.copy())
              for mdl in (hip, knee)]
    fresh = forward_one(LearnStack(copies), x)
    assert not same_bits(after[1][0], before[1][0])
    for (G, pi, tau), (G1, pi1, tau1) in zip(after, fresh):
        assert same_bits(G, G1) and same_bits(pi, pi1) and same_bits(tau, tau1)


def test_responsibility_reference_broadcasts_over_rows():
    rng = np.random.default_rng(24)
    E = rng.normal(0.0, 5.0, size=(4, 6, 3))
    R = responsibility_reference(E, 0.7)
    for idx in np.ndindex(E.shape[:-1]):
        assert same_bits(R[idx], responsibility_reference(E[idx], 0.7))


def test_total_output_identity_point():
    model = init(GrpConfig(m=4, seed=6))
    x = sample_x(3)
    assert abs(total_output_identity(model, x, 3.7) - 3.7) < 1e-12
    assert abs(total_output_identity(model, x, 0.0)) < 1e-12


def test_total_output_identity_fuzz():
    rng = np.random.default_rng(13)
    for trial in range(300):
        m = int(rng.integers(1, 6))
        model = init(GrpConfig(m=m, seed=int(rng.integers(1 << 31))))
        model.gamma = 10.0 ** rng.uniform(-2, 6)
        r_G = rng.uniform(-60.0, 60.0)
        out = total_output_identity(model, sample_x(trial), r_G)
        assert abs(out - r_G) < 1e-12


# ---------------------------------------------- allocating forward oracle
#
# forward as it was before it wrote into the stack's block NetBuffers: the
# network call, the sigmoid head and each model's torques new arrays on
# every call, the inputs viewed as x[..., None, :]. Copied verbatim but for
# the clamp counter, which is the oracle's own, so the two paths' clamp
# counts can be compared.

_oracle_clamp_events = 0


def _oracle_row_products(W, xr):
    """prod_{j != i} exp(W_ij * x_j) per row, with per-argument clamping."""
    global _oracle_clamp_events
    args = np.multiply(W, xr, order="C")
    # the diagonal argument W_ii * x_i is the linear gain, never
    # exponentiated: zero it so the row sums run over off-diagonal entries
    # (C order makes the flat reshape a view, so the write lands in args)
    args.reshape(-1, NET_DIM * NET_DIM)[:, :: NET_DIM + 1].fill(0.0)
    clip = np.maximum(args, -mulnet.EXP_CLAMP)
    np.minimum(clip, mulnet.EXP_CLAMP, out=clip)
    hits = int(np.count_nonzero(np.not_equal(clip, args)))
    if hits:
        _oracle_clamp_events += hits
    prod = np.add.reduce(clip, -1)
    return np.exp(prod, out=prod)


def oracle_net_forward(W, x):
    W = np.asarray(W, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.add.reduce(W.diagonal(0, -2, -1) * x * _oracle_row_products(W, x[..., None, :]), -1)


def oracle_sigmoid_head(b, w_gain=1.0):
    z = np.asarray(np.multiply(b, w_gain, dtype=float))  # 0-d stays an array
    e = np.exp(-np.abs(z))
    e += 1.0
    np.minimum(z, 0.0, out=z)
    np.exp(z, out=z)
    z /= e
    np.maximum(z, mulnet.P_FLOOR, out=z)
    return np.minimum(z, mulnet.P_CEIL, out=z)[()]


def oracle_forward(stack, x):
    x = np.asarray(x, dtype=float)
    total = stack.w_gain.size
    # the unit axis pairs every input row with every stack row
    out = oracle_net_forward(stack.S, x[..., None, :])
    G = out[..., :total]
    pis = oracle_sigmoid_head(out[..., total:], stack.w_gain)
    return [(G[..., sl], pis[..., sl], np.vecdot(G[..., sl], pis[..., sl]))
            for sl in stack.slices]


def oracle_total_output_identity(model, x, r_G):
    (G, pi, _), = oracle_forward(LearnStack([dataclasses.replace(model)]),
                                 np.asarray(x, dtype=float)[None])
    G, pi = G[0], pi[0]
    e_G = r_G - G
    r_RP = responsibility_reference(e_G, model.gamma)
    e_RP = r_RP - pi
    return float((G + e_G) @ (pi + e_RP))


def assert_forward_matches_oracle(stack, X):
    """forward and the oracle on the same stack and block: G, pi and tau
    per model and the clamp count, bit for bit. Returns the clamp count."""
    global _oracle_clamp_events
    mulnet.reset_exp_clamp_count()
    got = forward(stack, X)
    clamps = mulnet.exp_clamp_count()
    _oracle_clamp_events = 0
    want = oracle_forward(stack, X)
    assert clamps == _oracle_clamp_events
    assert len(got) == len(want) == len(stack.models)
    for mdl, (G, pi, tau), (G1, pi1, tau1) in zip(stack.models, got, want):
        assert G.shape == pi.shape == (len(X), mdl.m) and tau.shape == (len(X),)
        assert same_bits(G, G1) and same_bits(pi, pi1) and same_bits(tau, tau1)
    return clamps


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"


@pytest.fixture(scope="module")
def fixture_eval_rows():
    """The committed default-trained hip and knee, and the network inputs
    of two of their evaluation swings, on which knee RP 3 clamps."""
    hip, knee = (load_model(FIXTURE_DIR / f"{name}.json") for name in ("hip", "knee"))
    _, trajs = evaluate(hip, knee, sample_tasks(SampleRanges(), 2, seed=2))
    return (hip, knee), np.concatenate([sensor_matrix(tr) for tr in trajs])


@pytest.mark.parametrize("n", [1, 2, 3, 20])
def test_forward_matches_allocating_oracle_bits(n, fixture_eval_rows):
    """On blocks of n consecutive rows of the fixture pair's evaluation
    inputs, forward through its reused block bundle gives the oracle's G,
    pi, tau and clamp count, bit for bit; the knee alone, as a one-model
    stack, does too."""
    (hip, knee), X = fixture_eval_rows
    clamps = 0
    for stack in (LearnStack([dataclasses.replace(hip), dataclasses.replace(knee)]),
                  LearnStack([dataclasses.replace(knee)])):
        for lo in range(0, len(X) - n, 37):
            clamps += assert_forward_matches_oracle(stack, X[lo:lo + n])
    assert clamps > 0


def test_forward_block_that_shrinks_and_grows_matches_oracle(fixture_eval_rows):
    """A lockstep rollout's block shrinks as swings land. Whatever the
    sequence of block sizes, each call gives the oracle's bits, the first
    one after a block of NaN and infinite inputs included; a call with the
    previous call's N returns the same list of views, and one with another
    N a new one."""
    (hip, knee), X = fixture_eval_rows
    stack = LearnStack([dataclasses.replace(hip), dataclasses.replace(knee)])
    poison = [math.nan, math.inf, 3.0, -math.inf, 1e300, 2.0, 0.0, 1.0]
    with np.errstate(all="ignore"):
        previous = forward(stack, np.tile(poison, (20, 1)))
    clamps = 0
    for i, n in enumerate((20, 20, 19, 7, 7, 3, 1, 1, 5, 20)):
        block = X[13 * i:13 * i + n]
        clamps += assert_forward_matches_oracle(stack, block)
        views = forward(stack, block)
        assert (views is previous) == (len(previous[0][2]) == n)
        previous = views
    assert clamps > 0


def test_forward_reads_weights_the_learn_step_changed(fixture_eval_rows):
    """The block bundle, built before a run of learn steps on the live
    stack, reads the weights those steps wrote in place: each forward
    after a step gives the oracle's bits on the stack as it then is."""
    (hip, knee), X = fixture_eval_rows
    stack = LearnStack([dataclasses.replace(hip, W=hip.W.copy(), R=hip.R.copy()),
                        dataclasses.replace(knee, W=knee.W.copy(), R=knee.R.copy())])
    block = X[:4]
    first = [tuple(a.copy() for a in out) for out in forward(stack, block)]
    rng = np.random.default_rng(31)
    for t in range(20):
        learn_step_joint(stack, X[5 + t], rng.uniform(-30.0, 30.0, 2))
        assert_forward_matches_oracle(stack, block)
    assert not same_bits(forward(stack, block)[1][0], first[1][0])


def test_total_output_identity_matches_allocating_oracle_bits(fixture_eval_rows):
    """total_output_identity's one-model stack gives the bits of the
    oracle's, on fixture and fresh models."""
    (hip, knee), X = fixture_eval_rows
    models = [hip, knee, init(GrpConfig(m=5, seed=32))]
    for i, x in enumerate(X[::97]):
        for mdl in models:
            r_G = 7.0 * math.sin(i)
            assert same_bits(total_output_identity(mdl, x, r_G),
                             oracle_total_output_identity(mdl, x, r_G))


# --------------------------------------------------------- learn_step_joint


def test_learn_step_record_fields():
    model = init(GrpConfig(m=3, seed=7))
    x = sample_x(4)
    rec = learn_step_joint(LearnStack([model]), x, [2.0])[0]
    assert abs(rec.r_RP.sum() - 1.0) < 1e-12
    assert np.array_equal(rec.e_G, 2.0 - rec.G)
    assert np.array_equal(rec.e_RP, rec.r_RP - rec.pi)


def test_learn_step_gating_freezes_nonresponsible_generator():
    model = init(GrpConfig(m=2, seed=11))
    model.gamma = 1e9  # one-hot reference: loser's Generator rate is exactly 0
    x = sample_x(5)
    G, _, _ = forward_one(LearnStack([model]), x)[0]
    r_G = G[0] + 1e-3  # layer 0 nearly exact, layer 1 clearly off
    before = [W.copy() for W in model.W]
    before_R = [R.copy() for R in model.R]
    rec = learn_step_joint(LearnStack([model]), x, [r_G])[0]
    assert rec.r_RP[0] == 1.0 and rec.r_RP[1] == 0.0
    assert not np.array_equal(model.W[0], before[0])
    assert np.array_equal(model.W[1], before[1])
    # RPs are never gated; both move
    for R, rb in zip(model.R, before_R):
        assert not np.array_equal(R, rb)


def test_learn_step_descends_generator_error():
    model = init(GrpConfig(m=1, mu=1e-3, lam=0.0, seed=12))
    x = sample_x(6)
    r_G = 5.0
    e0 = abs(r_G - forward_one(LearnStack([model]), x)[0][0][0])
    learn_step_joint(LearnStack([model]), x, [r_G])
    e1 = abs(r_G - forward_one(LearnStack([model]), x)[0][0][0])
    assert e1 < e0


def test_learn_step_descends_responsible_layer_with_m3():
    model = init(GrpConfig(m=3, mu=1e-3, lam=0.0, seed=14))
    x = sample_x(7)
    r_G = -4.0
    G, _, _ = forward_one(LearnStack([model]), x)[0]
    k = int(np.abs(r_G - G).argmin())
    learn_step_joint(LearnStack([model]), x, [r_G])
    G1, _, _ = forward_one(LearnStack([model]), x)[0]
    assert abs(r_G - G1[k]) < abs(r_G - G[k])


def test_learn_step_single_layer_reference_is_unity():
    model = init(GrpConfig(m=1, seed=15))
    for trial in range(5):
        rec = learn_step_joint(LearnStack([model]), sample_x(trial), [float(trial)])[0]
        assert rec.r_RP[0] == 1.0


def test_learn_step_update_formula():
    cfg = GrpConfig(m=2, mu=2e-3, lam=1e-4, seed=16)
    model = init(cfg)
    x = sample_x(8)
    r_G = 1.5
    W, R = model.W.copy(), model.R.copy()
    G = mulnet.net_forward(W, x)
    b = mulnet.net_forward(R, x)
    pi = mulnet.sigmoid_head(b, cfg.w_gain)
    e_G = r_G - G
    r_RP = responsibility_reference(e_G, model.gamma)
    e_RP = r_RP - pi
    want_W = [
        W[k]
        + r_RP[k] * cfg.mu * (e_G[k] * mulnet.forward_and_gradient(W[k], x)[1] - cfg.lam * W[k])
        for k in range(2)
    ]
    want_R = [
        R[k]
        + cfg.mu_rp
        * (
            e_RP[k] * cfg.w_gain * pi[k] * (1 - pi[k]) * mulnet.forward_and_gradient(R[k], x)[1]
            - cfg.lam * R[k]
        )
        for k in range(2)
    ]
    learn_step_joint(LearnStack([model]), x, [r_G])
    for k in range(2):
        assert np.allclose(model.W[k], want_W[k], rtol=1e-13, atol=0.0)
        assert np.allclose(model.R[k], want_R[k], rtol=1e-13, atol=0.0)


def test_learn_step_deterministic_sequence():
    def run():
        model = init(GrpConfig(m=3, seed=21))
        for t in range(50):
            learn_step_joint(LearnStack([model]), sample_x(t), [math.sin(0.1 * t)])
            if t % 10 == 9:
                end_episode(model)
        return model

    a, b = run(), run()
    assert a.gamma == b.gamma and a.episode_count == b.episode_count
    for k in range(3):
        assert np.array_equal(a.W[k], b.W[k])
        assert np.array_equal(a.R[k], b.R[k])


def test_learn_step_joint_matches_solo_steps():
    """Stepping an m=1 and an m=3 model together is bit-identical to
    stepping each alone: records, weights and annealed gamma."""

    def pair():
        return [init(GrpConfig(m=1, mu=1e-3, mu_rp=1e-2, seed=31)),
                init(GrpConfig(m=3, mu=2e-3, lam=1e-3, w_gain=1.5, seed=32))]

    joint, solo = pair(), pair()
    rng = np.random.default_rng(33)
    for t in range(200):
        x = sample_x(t)
        r_Gs = rng.uniform(-5.0, 5.0, 2)
        records = learn_step_joint(LearnStack(joint), x, r_Gs)
        for mdl, r_G, rec in zip(solo, r_Gs, records):
            alone = learn_step_joint(LearnStack([mdl]), x, [r_G])[0]
            for field in dataclasses.fields(rec):
                assert np.array_equal(getattr(rec, field.name),
                                      getattr(alone, field.name))
        if t % 50 == 49:
            for mdl in joint + solo:
                end_episode(mdl)
    for a, b in zip(joint, solo):
        assert np.all(np.isfinite(a.W)) and np.all(np.isfinite(a.R))
        assert np.array_equal(a.W, b.W) and np.array_equal(a.R, b.R)
        assert a.gamma == b.gamma and a.episode_count == b.episode_count == 4


def test_learn_step_rejects_nonfinite_update():
    model = init(GrpConfig(m=1, seed=22))
    model.W[0][0, 0] = 1e308  # linear gain overflows the forward pass
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            learn_step_joint(LearnStack([model]), sample_x(9), [1.0])


def reference_learn_step(models, x, r_Gs):
    """The learn step as it was before the live stack: the models' weights
    are concatenated every tick, and each model is rebound to slices of a
    newly built array."""
    S = np.concatenate([mdl.W for mdl in models] + [mdl.R for mdl in models])
    total = S.shape[0] // 2
    out, dS = mulnet.forward_and_gradient(S, x)
    records = []
    gain = np.empty(2 * total)
    decay = np.empty(2 * total)
    lo = 0
    for mdl, r_G in zip(models, r_Gs):
        cfg = mdl.config
        hi = lo + mdl.m
        G = out[lo:hi]
        pi = mulnet.sigmoid_head(out[total + lo : total + hi], cfg.w_gain)
        e_G = r_G - G
        r_RP = responsibility_reference(e_G, mdl.gamma)
        e_RP = r_RP - pi
        mu_k = r_RP * cfg.mu
        mu_rp = cfg.mu_rp
        gain[lo:hi] = mu_k * e_G
        gain[total + lo : total + hi] = mu_rp * e_RP * cfg.w_gain * pi * (1.0 - pi)
        decay[lo:hi] = mu_k * cfg.lam
        decay[total + lo : total + hi] = mu_rp * cfg.lam
        records.append(grp.StepRecord(G=G, pi=pi, e_G=e_G, r_RP=r_RP, e_RP=e_RP))
        lo = hi
    new_S = S + gain[:, None, None] * dS - decay[:, None, None] * S
    assert np.all(np.isfinite(new_S))
    lo = 0
    for mdl in models:
        hi = lo + mdl.m
        mdl.W = new_S[lo:hi]
        mdl.R = new_S[total + lo : total + hi]
        lo = hi
    return records


def test_learn_stack_matches_reference_step():
    """The live stack reproduces the concatenate-and-rebind learn step bit
    for bit over 300 ticks: records, weights, gamma and exponent clamps,
    with an m=7 model whose softmax runs past the m=3 of the default knee."""

    def models():
        hip = init(GrpConfig(m=1, mu=1e-3, mu_rp=1e-2, w_gain=0.5, seed=41))
        knee = init(GrpConfig(m=3, mu=2e-3, lam=1e-3, w_gain=1.5, beta=1.1, seed=42))
        wide = init(GrpConfig(m=7, mu=1.5e-3, lam=5e-4, gamma0=3.0, beta=1.2, seed=49))
        hip.R -= 20.0  # off-diagonal exponent arguments clamp at -EXP_CLAMP
        knee.W[1] -= 20.0
        return [hip, knee, wide]

    live, ref = models(), models()
    stack = LearnStack(live)
    rng = np.random.default_rng(43)
    clamps = 0
    for t in range(300):
        x = sample_x(t)
        r_Gs = rng.uniform(-5.0, 5.0, 3)
        mulnet.reset_exp_clamp_count()
        records = learn_step_joint(stack, x, r_Gs)
        live_clamps = mulnet.exp_clamp_count()
        mulnet.reset_exp_clamp_count()
        expected = reference_learn_step(ref, x, r_Gs)
        assert live_clamps == mulnet.exp_clamp_count()
        clamps += live_clamps
        for rec, want in zip(records, expected):
            for field in dataclasses.fields(rec):
                assert same_bits(getattr(rec, field.name), getattr(want, field.name))
        if t % 50 == 49:
            for mdl in live + ref:
                end_episode(mdl)
    assert clamps > 0
    for a, b in zip(live, ref):
        assert same_bits(a.W, b.W) and same_bits(a.R, b.R)
        assert a.gamma == b.gamma and a.episode_count == b.episode_count == 6


class ArrayFormStep:
    """The learn step as it was before its per-row half moved to Python
    floats: every per-row quantity is a numpy op over the stack's rows,
    through `sigmoid_head` and one `responsibility_reference` call per
    model. It keeps its own buffers beside a LearnStack of its own models
    and steps that stack's weights in place."""

    def __init__(self, models):
        self.stack = stack = LearnStack(models)
        self.sizes = sizes = [mdl.m for mdl in models]
        total = sum(sizes)

        def per_row(values):
            return np.repeat(np.array(values, dtype=float), sizes)

        self.mu = per_row([mdl.config.mu for mdl in models])
        self.lam = per_row([mdl.config.lam for mdl in models])
        self.mu_rp = per_row([mdl.config.mu_rp for mdl in models])
        self.w_gain = per_row([mdl.config.w_gain for mdl in models])
        self._net = mulnet.NetBuffers(stack.S)
        self.G = self._net.out[:total]
        self._b = self._net.out[total:]
        self.pi = np.empty(total)
        self.e_G = np.zeros(total)
        self.r_RP = np.empty(total)
        self.e_RP = np.empty(total)
        self.records = [
            grp.StepRecord(G=self.G[sl], pi=self.pi[sl], e_G=self.e_G[sl],
                           r_RP=self.r_RP[sl], e_RP=self.e_RP[sl])
            for sl in stack.slices
        ]
        self._row_work = np.empty(total)
        self._gain = np.empty((2 * total, 1, 1))
        self._gain_G = self._gain[:total, 0, 0]
        self._gain_RP = self._gain[total:, 0, 0]
        self._decay = np.empty((2 * total, 1, 1))
        self._decay_G = self._decay[:total, 0, 0]
        self._decay[total:, 0, 0] = self.mu_rp * self.lam
        self._new = np.empty_like(stack.S)
        self._decay_term = np.empty_like(stack.S)

    def step(self, x, r_G):
        r_G = np.asarray(r_G, dtype=float)
        assert r_G.shape == (len(self.sizes),)
        r_G = np.repeat(r_G, self.sizes)  # each model's reference on each of its rows
        S, dS = self.stack.S, self._net.grad
        mulnet.forward_and_gradient(S, x, self._net)
        self.pi[:] = mulnet.sigmoid_head(self._b, self.w_gain)
        G, pi, e_G, r_RP, e_RP = self.G, self.pi, self.e_G, self.r_RP, self.e_RP
        np.subtract(r_G, G, out=e_G)
        for mdl, rec in zip(self.stack.models, self.records):
            rec.r_RP[:] = responsibility_reference(rec.e_G, mdl.gamma)
        np.subtract(r_RP, pi, out=e_RP)

        mu_k = np.multiply(r_RP, self.mu, out=self._row_work)
        np.multiply(mu_k, e_G, out=self._gain_G)
        np.multiply(mu_k, self.lam, out=self._decay_G)
        rp_gain = np.multiply(self.mu_rp, e_RP, out=self._gain_RP)
        rp_gain *= self.w_gain
        rp_gain *= pi
        rp_gain *= np.subtract(1.0, pi, out=mu_k)

        new = np.multiply(self._gain, dS, out=self._new)
        new += S
        new -= np.multiply(self._decay, S, out=self._decay_term)
        if not np.isfinite(new).all():
            worst = [np.abs(rec.e_G).max() for rec in self.records]
            k = worst.index(max(worst))
            total = self.pi.size
            row_ok = np.isfinite(new).reshape(2 * total, -1).all(1)
            bad = [j + 1 for j, sl in enumerate(self.stack.slices)
                   if not (row_ok[sl].all() and row_ok[total + sl.start:total + sl.stop].all())]
            raise NonFiniteError(
                "non-finite weight update: "
                f"max|S|={np.abs(S).max():g} r_G={float(r_G[self.stack.slices[k].start]):g} "
                f"max|e_G|={worst[k]:g} "
                f"episodes={[mdl.episode_count for mdl in self.stack.models]}; "
                f"non-finite rows in stack models {bad}; "
                f"input row {'finite' if np.isfinite(x).all() else 'non-finite'}, "
                f"references {'finite' if np.isfinite(r_G).all() else 'non-finite'}"
            )
        np.copyto(S, new)
        return self.records


STEP_FIELDS = ("G", "pi", "e_G", "r_RP", "e_RP")


def assert_steps_agree(stack, ref, records, ref_records, clamps, ref_clamps):
    assert clamps == ref_clamps
    assert same_bits(stack.S, ref.stack.S)
    for name in STEP_FIELDS:
        assert same_bits(getattr(stack, name), getattr(ref, name)), name
    assert len(records) == len(ref_records)
    for rec, want in zip(records, ref_records):
        for name in STEP_FIELDS:
            assert same_bits(getattr(rec, name), getattr(want, name)), name


def run_both(make_models, steps, seed, scale_refs=5.0):
    """Steps a LearnStack and an ArrayFormStep of the same models through
    the same ticks, annealing every 25, and checks every buffer, record,
    weight and clamp count after each step. Returns the clamp total."""
    live = make_models()
    stack, ref = LearnStack(live), ArrayFormStep(make_models())
    rng = np.random.default_rng(seed)
    total_clamps = 0
    for t in range(steps):
        x = sample_x(1000 * seed + t)
        r_G = rng.uniform(-scale_refs, scale_refs, len(live))
        mulnet.reset_exp_clamp_count()
        records = learn_step_joint(stack, x, r_G)
        clamps = mulnet.exp_clamp_count()
        mulnet.reset_exp_clamp_count()
        ref_records = ref.step(x, r_G)
        assert_steps_agree(stack, ref, records, ref_records, clamps, mulnet.exp_clamp_count())
        total_clamps += clamps
        if t % 25 == 24:
            for mdl in live + ref.stack.models:
                end_episode(mdl)
    return total_clamps


def default_pair():
    return [init(GrpConfig(m=1, mu=2e-3, mu_rp=5e-2, seed=1)),
            init(GrpConfig(m=3, mu=2e-3, mu_rp=5e-2, seed=2))]


def hip_and_three_knees():
    return [init(GrpConfig(m=1, mu=1e-3, mu_rp=1e-2, w_gain=0.5, seed=70)),
            init(GrpConfig(m=3, mu=2e-3, lam=1e-3, w_gain=1.5, beta=1.1, seed=71)),
            init(GrpConfig(m=5, mu=1.5e-3, gamma0=3.0, beta=1.2, seed=72)),
            init(GrpConfig(m=7, mu=2e-3, lam=5e-4, gamma0=0.5, beta=1.3, seed=73))]


def test_learn_step_matches_array_form_on_the_default_pair():
    run_both(default_pair, 300, seed=80)


def test_learn_step_matches_array_form_on_hip_and_three_knees():
    run_both(hip_and_three_knees, 300, seed=81)


@pytest.mark.parametrize("m", [7, 8, 9, 16])
def test_learn_step_matches_array_form_across_the_pairwise_sum_boundary(m):
    """A softmax row of 7 is summed left to right, rows of 8 and more by
    numpy's pairwise tree; both forms must agree on either side."""
    def one_model():
        return [init(GrpConfig(m=m, mu=2e-3, gamma0=0.2, beta=1.1, seed=90 + m))]

    # small references keep many layers' e_G close, so the softmax rows
    # spread their mass and every term of the sum counts
    run_both(one_model, 200, seed=82 + m, scale_refs=0.5)


def test_learn_step_matches_array_form_where_the_guards_fire():
    """Generator weights pushed until their off-diagonal exponent
    arguments pass -EXP_CLAMP, and RP gains scaled until the sigmoid heads
    sit on their floor and ceiling: clamp counts and pinned pi agree too."""
    def pushed():
        models = default_pair()
        for mdl in models:
            mdl.W -= 20.0
        diag = np.arange(NET_DIM)
        models[1].R[0, diag, diag] = 300.0   # pi pinned at its ceiling
        models[1].R[1, diag, diag] = -300.0  # and at its floor
        return models

    live = pushed()
    stack = LearnStack(live)
    learn_step_joint(stack, sample_x(0), np.ones(2))
    assert stack.pi[1] == mulnet.P_CEIL and stack.pi[2] == mulnet.P_FLOOR
    assert run_both(pushed, 200, seed=83) > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_learn_step_matches_array_form_on_a_nonfinite_reference(bad):
    """A non-finite reference torque fails both forms with the same
    message and the same per-row buffers, NaN bits included, and leaves
    every weight as it was."""
    stack, ref = LearnStack(default_pair()), ArrayFormStep(default_pair())
    for t in range(20):
        x, r_G = sample_x(t), np.array([1.5, -2.0])
        learn_step_joint(stack, x, r_G)
        ref.step(x, r_G)
    before = stack.S.copy()
    r_G = np.array([1.5, bad])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError) as live_err:
            learn_step_joint(stack, sample_x(20), r_G)
        with pytest.raises(NonFiniteError) as ref_err:
            ref.step(sample_x(20), r_G)
    assert str(live_err.value) == str(ref_err.value)
    assert str(live_err.value).endswith(
        "; non-finite rows in stack models [2]; input row finite, references non-finite")
    assert live_err.value.models == (2,)
    assert same_bits(stack.S, before) and same_bits(ref.stack.S, before)
    for name in STEP_FIELDS:
        assert same_bits(getattr(stack, name), getattr(ref, name)), name


def test_learn_step_records_are_stack_views():
    """Every step returns the stack's own records: the same objects each
    step, views of the stack's buffers that the next step overwrites, and
    one r_RP entry per layer of the stack."""
    hip, knee = init(GrpConfig(m=1, seed=50)), init(GrpConfig(m=3, seed=51))
    stack = LearnStack([hip, knee])
    first = learn_step_joint(stack, sample_x(13), [1.0, -1.0])
    second = learn_step_joint(stack, sample_x(14), [2.0, 0.5])
    assert all(a is b for a, b in zip(first, second)) and len(second) == 2
    for rec, r_G in zip(second, (2.0, 0.5)):
        for field in dataclasses.fields(rec):
            assert np.shares_memory(getattr(rec, field.name), getattr(stack, field.name))
        assert same_bits(rec.e_G, r_G - rec.G)  # the second step's values
    assert sum(rec.r_RP.size for rec in second) == stack.w_gain.size == 4


@pytest.mark.parametrize("shape", [(4,), (1,), (2, 1)], ids=["4", "1", "2x1"])
def test_learn_step_requires_one_reference_per_model(shape):
    """A hip+knee stack takes two references, one per model: one per stack
    row, a single one or a column of two is refused with both shapes
    named, before the step writes anything, even where the update would be
    non-finite."""
    hip, knee = init(GrpConfig(m=1, seed=54)), init(GrpConfig(m=3, seed=55))
    stack = LearnStack([hip, knee])
    learn_step_joint(stack, sample_x(16), [1.0, -1.0])
    knee.W[2][2, 2] = 1e308  # the next update would be non-finite
    before = [stack.S.copy()] + [getattr(stack, name).copy() for name in STEP_FIELDS]
    with pytest.raises(ValueError, match=re.escape(
            f"learn step takes one reference per model, shape (2,), got shape {shape}")):
        learn_step_joint(stack, sample_x(17), np.ones(shape))
    after = [stack.S] + [getattr(stack, name) for name in STEP_FIELDS]
    assert all(same_bits(a, b) for a, b in zip(after, before))


def test_learn_stack_weights_are_views():
    hip, knee = init(GrpConfig(m=1, seed=44)), init(GrpConfig(m=3, seed=45))
    stack = LearnStack([hip, knee])
    learn_step_joint(stack, sample_x(10), [1.0, -1.0])
    assert stack.S.shape == (8, 8, 8)
    for mdl, lo, hi in ((hip, 0, 1), (knee, 1, 4)):
        assert mdl.W.base is stack.S and mdl.R.base is stack.S
        assert same_bits(mdl.W, stack.S[lo:hi])
        assert same_bits(mdl.R, stack.S[4 + lo : 4 + hi])


def test_learn_stack_nonfinite_update_changes_nothing():
    hip, knee = init(GrpConfig(m=1, seed=46)), init(GrpConfig(m=3, seed=47))
    stack = LearnStack([hip, knee])
    learn_step_joint(stack, sample_x(11), [1.0, -1.0])
    knee.W[2][2, 2] = 1e308  # the hip-angle gain overflows the forward pass
    before = [(mdl.W.copy(), mdl.R.copy()) for mdl in (hip, knee)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="non-finite weight update") as err:
            learn_step_joint(stack, sample_x(12), [1.0, -1.0])
    for mdl, (W, R) in zip((hip, knee), before):
        assert same_bits(mdl.W, W) and same_bits(mdl.R, R)
    # the knee's rows diverge, the hip's do not
    assert str(err.value).endswith(
        "; non-finite rows in stack models [2]; input row finite, references finite")
    assert err.value.models == (2,)


def test_learn_stack_nonfinite_input_row_names_every_model():
    """A NaN input row makes every model's rows non-finite: the failure
    path names them all and says the input row was non-finite."""
    stack = LearnStack([init(GrpConfig(m=1, seed=56)), init(GrpConfig(m=3, seed=57))])
    x = sample_x(18)
    learn_step_joint(stack, x, [1.0, -1.0])
    x[2] = math.nan
    before = stack.S.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as err:
            learn_step_joint(stack, x, [1.0, -1.0])
    assert str(err.value).startswith("non-finite weight update: max|S|=")
    assert str(err.value).endswith("episodes=[0, 0]; non-finite rows in stack models "
                                   "[1, 2]; input row non-finite, references finite")
    assert err.value.models == (1, 2)
    assert same_bits(stack.S, before)


@pytest.mark.parametrize("shape", [(2, 8), (1, 8), (5,), (9,), ()],
                         ids=["2x8", "1x8", "5", "9", "0-d"])
def test_learn_step_takes_one_8_wide_input_row(shape):
    """A block of inputs is not paired row by row with the stack's nets,
    nor is a raw 5-channel row broadcast: any x but one (8,) row is
    refused with its shape named, before the step writes anything."""
    stack = LearnStack([init(GrpConfig(m=1, seed=58))])
    learn_step_joint(stack, sample_x(19), [1.0])
    before = [stack.S.copy()] + [getattr(stack, name).copy() for name in STEP_FIELDS]
    with pytest.raises(ValueError, match=re.escape(f"one input row, shape (8,), got shape {shape}")):
        learn_step_joint(stack, np.ones(shape), [1.0])
    after = [stack.S] + [getattr(stack, name) for name in STEP_FIELDS]
    assert all(same_bits(a, b) for a, b in zip(after, before))


def test_learn_stack_rejects_no_models():
    with pytest.raises(ValueError, match="at least one model, got none"):
        LearnStack([])


def test_learn_stack_rejects_repeated_model():
    model = init(GrpConfig(m=2, seed=48))
    with pytest.raises(ValueError, match="same model appears twice"):
        LearnStack([model, model])


def test_learn_stack_rejects_a_model_whose_weights_are_not_its_config_m():
    """Each row's rates come from its model's config, so a model with 2
    layers of weights and config m=1, stacked before one with 1 layer and
    m=2, would give its second layer the other model's rate: refused,
    naming the model's place from 1. A model is built with config.m
    layers, so each config here is rebound after construction."""
    a, b = init(GrpConfig(m=2, seed=48)), init(GrpConfig(m=1, seed=49))
    a.config, b.config = GrpConfig(m=1, mu=1e-3), GrpConfig(m=2, mu=1e-6)
    with pytest.raises(ValueError, match=re.escape(
            "model 1 of the learn stack has 2 layers of weights but config.m = 1")):
        LearnStack([a, b])
    with pytest.raises(ValueError, match=re.escape(
            "model 2 of the learn stack has 1 layers of weights but config.m = 2")):
        LearnStack([init(GrpConfig(m=1, seed=50)), b])


def test_learn_stack_rejects_a_model_whose_r_stack_is_not_its_w_stack():
    """A model with 2 layers of W and 1 of R, stacked before a 1-layer
    model, would take the next model's R as its second layer and leave that
    model an empty R: refused, naming its place and both counts."""
    a = init(GrpConfig(m=2, seed=1))
    a.R = a.R[:1].copy()
    with pytest.raises(ValueError, match="^" + re.escape(
            "model 1 of the learn stack has 2 layers of W but 1 of R") + "$"):
        LearnStack([a, init(GrpConfig(m=1, seed=2))])


# -------------------------------------------------------------- end_episode


def test_end_episode_anneal_point():
    model = init(GrpConfig(m=1, gamma0=1.0, beta=1.05))
    end_episode(model)
    end_episode(model)
    assert math.isclose(model.gamma, 1.1025, rel_tol=1e-12)
    assert model.episode_count == 2


def test_end_episode_geometric_growth():
    cfg = GrpConfig(m=1, gamma0=0.5, beta=1.03)
    model = init(cfg)
    for _ in range(500):
        end_episode(model)
    assert math.isclose(model.gamma, cfg.gamma0 * cfg.beta**500, rel_tol=1e-9)
    assert model.episode_count == 500


def test_end_episode_overflowing_gamma_raises_and_changes_nothing():
    model = init(GrpConfig(m=2, gamma0=1.0, beta=1e200))
    end_episode(model)
    with pytest.raises(NonFiniteError) as excinfo:
        end_episode(model)
    assert str(excinfo.value) == "gamma 1e+200 * beta 1e+200 overflows after episode 2"
    assert model.gamma == 1e200
    assert model.episode_count == 1
