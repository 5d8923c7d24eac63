"""Multiplicative network: forward/gradient oracles and input splitting."""

import math
import re

import numpy as np
import pytest

from grpleg import mulnet
from grpleg.experiment import SampleRanges, run_demo_episode, sample_tasks, sensor_matrix
from grpleg.mulnet import (
    EXP_CLAMP,
    NET_DIM,
    exp_clamp_count,
    finite_difference_check,
    forward_and_gradient,
    net_forward,
    reset_exp_clamp_count,
    sigmoid_head,
    split_input,
    split_row,
)


def forward_oracle(W, x):
    """Literal sum-product evaluation, scalar loops only."""
    total = 0.0
    for i in range(NET_DIM):
        prod = 1.0
        for j in range(NET_DIM):
            if j == i:
                continue
            a = W[i][j] * x[j]
            a = max(-EXP_CLAMP, min(EXP_CLAMP, a))
            prod *= math.exp(a)
        total += W[i][i] * x[i] * prod
    return total


def draw_raw(rng):
    """Sensor magnitudes matching swings on this leg: angle errors within
    about a radian, joint angles a few radians, rates a few rad/s."""
    return np.array(
        [
            rng.uniform(-1.0, 1.0),
            rng.uniform(2.0, 3.9),
            rng.uniform(-2.0, 2.0),
            rng.uniform(2.0, 3.9),
            rng.uniform(-2.0, 2.0),
        ]
    )


def draw_instance(seed):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-0.2, 0.2, (NET_DIM, NET_DIM))
    x = split_input(draw_raw(rng))
    return W, x


# ---------------------------------------------------------------- splitting


def test_split_positive_error():
    x = split_input([0.3, 3.0, 0.0, 3.0, 0.0])
    assert x[0] == 0.3 and x[1] == 0.0


def test_split_negative_rate():
    x = split_input([0.0, 3.0, 0.0, 3.0, -0.2])
    assert x[6] == 0.0 and x[7] == 0.2


def test_split_zero_gives_zero_pair():
    x = split_input(np.zeros(5))
    assert np.all(x == 0.0)


def test_split_angles_pass_through():
    x = split_input([0.1, 3.84, -1.0, 3.05, 2.0])
    assert x[2] == 3.84 and x[5] == 3.05


def test_split_pair_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        raw = draw_raw(rng)
        x = split_input(raw)
        assert np.all(x >= 0.0)
        for (p, n), k in (((0, 1), 0), ((3, 4), 2), ((6, 7), 4)):
            assert x[p] * x[n] == 0.0
            assert x[p] - x[n] == raw[k]


def test_split_broadcasts():
    rng = np.random.default_rng(3)
    raws = np.stack([draw_raw(rng) for _ in range(6)])
    batch = split_input(raws)
    assert batch.shape == (6, NET_DIM)
    for r, row in zip(raws, batch):
        assert np.array_equal(split_input(r), row)


def split_reference(raw):
    """The half-wave split written out channel by channel."""
    out = np.empty(raw.shape[:-1] + (NET_DIM,))
    out[..., 0] = np.maximum(raw[..., 0], 0.0)
    out[..., 1] = np.maximum(-raw[..., 0], 0.0)
    out[..., 2] = raw[..., 1]
    out[..., 3] = np.maximum(raw[..., 2], 0.0)
    out[..., 4] = np.maximum(-raw[..., 2], 0.0)
    out[..., 5] = raw[..., 3]
    out[..., 6] = np.maximum(raw[..., 4], 0.0)
    out[..., 7] = np.maximum(-raw[..., 4], 0.0)
    return out


@pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
def test_split_matches_reference_bits(lead):
    """Bit-equal to the channel-by-channel split on signed zeros,
    infinities, subnormals and NaN, for 1-D, 2-D and 3-D input; NaN
    entries are compared as NaN only, since their sign bit is free."""
    tiny = np.finfo(float).tiny
    pool = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                     tiny / 4, -tiny / 4, tiny, -tiny, 1.5, -2.25, 3.84,
                     1e308, -1e308, math.nan])
    rng = np.random.default_rng(11)
    for _ in range(50):
        raw = rng.choice(pool, size=lead + (5,))
        got = split_input(raw)
        want = split_reference(raw)
        assert got.shape == lead + (NET_DIM,)
        assert got.flags["C_CONTIGUOUS"]
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


def test_split_row_matches_split_input_bits():
    """split_row on five Python floats gives split_input's bits, row for
    row: on random rows, with each split channel at +0.0 and at -0.0, on
    the edge values of the reference test (NaN compared as NaN only), and
    with the angles passing through as they are."""
    rng = np.random.default_rng(19)
    rows = [draw_raw(rng) for _ in range(500)]
    for k in (0, 2, 4):  # the split channels
        for zero in (0.0, -0.0):
            raw = draw_raw(rng)
            raw[k] = zero
            rows.append(raw)
    rows.append(np.array([0.0, -0.0, 0.0, -0.0, -0.0]))
    pool = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.5, -2.25,
                     1e308, -1e308, math.nan])
    rows += list(rng.choice(pool, size=(200, 5)))
    raws = np.stack(rows)
    for raw, want in zip(raws, split_input(raws)):
        args = raw.tolist()
        got = split_row(*args)
        assert len(got) == NET_DIM and all(type(v) is float for v in got)
        # the angles are the very floats passed in
        assert got[2] is args[1] and got[5] is args[3]
        got = np.array(got)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


def test_split_rejects_wrong_arity():
    with pytest.raises(ValueError):
        split_input(np.zeros(4))


# ------------------------------------------------------------------ forward


def test_forward_zero_weights():
    x = split_input(draw_raw(np.random.default_rng(0)))
    assert net_forward(np.zeros((8, 8)), x) == 0.0


def test_forward_diagonal_only_is_linear():
    rng = np.random.default_rng(5)
    W = np.diag(rng.uniform(-1.0, 1.0, NET_DIM))
    x = split_input(draw_raw(rng))
    assert math.isclose(net_forward(W, x), float(np.diag(W) @ x), rel_tol=1e-14)


def test_forward_matches_bruteforce_oracle():
    for seed in range(200):
        W, x = draw_instance(seed)
        got = net_forward(W, x)
        want = forward_oracle(W, x)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_forward_batched_weights():
    rng = np.random.default_rng(11)
    stack = rng.uniform(-0.2, 0.2, (3, NET_DIM, NET_DIM))
    x = split_input(draw_raw(rng))
    out = net_forward(stack, x)
    assert out.shape == (3,)
    for k in range(3):
        assert out[k] == net_forward(stack[k], x)


def test_forward_batched_inputs():
    rng = np.random.default_rng(12)
    W = rng.uniform(-0.2, 0.2, (NET_DIM, NET_DIM))
    xs = split_input(np.stack([draw_raw(rng) for _ in range(5)]))
    out = net_forward(W, xs)
    assert out.shape == (5,)
    for k in range(5):
        assert out[k] == net_forward(W, xs[k])


def test_silence_property():
    """A zero input leaves the output independent of its incoming weights."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        W, x = draw_instance(rng.integers(1 << 31))
        zero_js = np.flatnonzero(x == 0.0)
        assert zero_js.size > 0  # half-wave pairs guarantee zeros
        base = net_forward(W, x)
        for j in zero_js:
            Wp = W.copy()
            Wp[:, j] += rng.uniform(-5.0, 5.0, NET_DIM)
            Wp[j, j] = W[j, j]  # diagonal is j's own gain, not a modulation
            assert net_forward(Wp, x) == base


# ----------------------------------------------------------------- gradient


def test_gradient_zero_input():
    rng = np.random.default_rng(31)
    W = rng.uniform(-1.0, 1.0, (8, 8))
    assert np.all(forward_and_gradient(W, np.zeros(8))[1] == 0.0)


def test_gradient_diagonal_only_weights():
    rng = np.random.default_rng(32)
    W = np.diag(rng.uniform(-1.0, 1.0, NET_DIM))
    x = split_input(draw_raw(rng))
    g = forward_and_gradient(W, x)[1]
    for i in range(NET_DIM):
        for j in range(NET_DIM):
            want = x[i] if i == j else W[i, i] * x[i] * x[j]
            assert math.isclose(g[i, j], want, rel_tol=1e-14, abs_tol=1e-300)


def test_gradient_vs_independent_differences():
    """Central differences of the brute-force oracle, no shared code."""
    h = 1e-6
    for seed in range(50):
        W, x = draw_instance(seed)
        g = forward_and_gradient(W, x)[1]
        for i in range(NET_DIM):
            for j in range(NET_DIM):
                Wp = W.copy()
                Wp[i, j] += h
                Wm = W.copy()
                Wm[i, j] -= h
                fd = (forward_oracle(Wp, x) - forward_oracle(Wm, x)) / (2 * h)
                scale = max(1.0, abs(g[i, j]), abs(fd))
                assert abs(g[i, j] - fd) / scale < 1e-6


def test_finite_difference_check_gate():
    worst = max(finite_difference_check(*draw_instance(s), h=1e-6) for s in range(100))
    assert worst < 1e-6


def test_finite_difference_error_scales_as_h_squared():
    for seed in (1, 17, 40):
        W, x = draw_instance(seed)
        e_coarse = finite_difference_check(W, x, h=1e-2)
        e_fine = finite_difference_check(W, x, h=1e-3)
        assert 90.0 < e_coarse / e_fine < 110.0


def test_gradient_batched_matches_single():
    rng = np.random.default_rng(41)
    stack = rng.uniform(-0.2, 0.2, (4, NET_DIM, NET_DIM))
    x = split_input(draw_raw(rng))
    g = forward_and_gradient(stack, x)[1]
    assert g.shape == (4, NET_DIM, NET_DIM)
    for k in range(4):
        assert np.array_equal(g[k], forward_and_gradient(stack[k], x)[1])


def test_gradient_pass_g_matches_net_forward_to_rounding():
    """forward_and_gradient forms W_ii (x_i p_i), net_forward (W_ii x_i) p_i:
    the bits differ, the values agree to 1e-14 of sum_i |W_ii x_i p_i|,
    the scale of the sum (G itself can cancel to far below it)."""
    rng = np.random.default_rng(43)
    differ = 0
    for _ in range(2000):
        W = rng.uniform(-0.2, 0.2, (8, NET_DIM, NET_DIM))
        x = split_input(draw_raw(rng))
        G, grad = forward_and_gradient(W, x)
        G_ref = net_forward(W, x)
        # the diagonal partials are x_i p_i, so W_ii times them are the terms
        scale = np.abs(W.diagonal(0, -2, -1) * grad.diagonal(0, -2, -1)).sum(-1)
        assert np.all(np.abs(G - G_ref) <= 1e-14 * scale)
        differ += not np.array_equal(G, G_ref)
    # the two roundings are not interchangeable
    assert differ > 1000


# -------------------------------------------------------------sigmoid head


def test_sigmoid_midpoint():
    assert sigmoid_head(0.0) == 0.5


def test_sigmoid_unit_point():
    assert math.isclose(sigmoid_head(1.0, 1.0), 0.7310585786300049, rel_tol=1e-15)


def test_sigmoid_gain_scales_argument():
    assert sigmoid_head(2.0, 0.5) == sigmoid_head(1.0, 1.0)


def test_sigmoid_strictly_inside_unit_interval():
    for b in (-1e8, -700.0, -30.0, 0.0, 30.0, 700.0, 1e8):
        p = sigmoid_head(b)
        assert 0.0 < p < 1.0


def test_sigmoid_saturates_toward_one():
    assert sigmoid_head(100.0) > 1.0 - 1e-12


def test_sigmoid_monotone():
    b = np.linspace(-6.0, 6.0, 101)
    p = sigmoid_head(b)
    assert np.all(np.diff(p) > 0.0)


@pytest.mark.parametrize("gain", ["scalar", "per-row"])
def test_sigmoid_matches_two_branch_bits(gain):
    """One division of the numerator exp(min(z, 0)) gives the bits of the
    two-branch form, for 0-d and 1-d input, infinities included."""
    b = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0,
                  np.inf, -np.inf])
    w = 1.0 if gain == "scalar" else np.linspace(0.5, 2.0, b.size)

    def two_branch(b, w):
        z = np.asarray(b, dtype=float) * w
        e = np.exp(-np.abs(z))
        p = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        tiny, below_one = np.finfo(float).tiny, np.nextafter(1.0, 0.0)
        return np.minimum(np.maximum(p, tiny), below_one)

    def bits(a):
        return np.ascontiguousarray(a, dtype=float).view(np.int64)

    got = sigmoid_head(b, w)
    assert got.shape == b.shape
    assert np.array_equal(bits(got), bits(two_branch(b, w)))
    for i in range(b.size):
        wi = w if np.isscalar(w) else w[i]
        one = sigmoid_head(b[i], wi)
        assert np.ndim(one) == 0
        assert np.array_equal(bits(one), bits(two_branch(b[i], wi)))


# ------------------------------------------------------------ clamp guard


def test_exponent_clamp_keeps_forward_finite():
    W = np.zeros((8, 8))
    W[0, 0] = 1.0
    W[0, 2] = 400.0  # argument 400 * x_2 would overflow exp unguarded
    x = split_input([0.5, 3.0, 0.0, 3.0, 0.0])
    reset_exp_clamp_count()
    out = net_forward(W, x)
    assert math.isfinite(out)
    assert out == W[0, 0] * x[0] * math.exp(EXP_CLAMP)
    assert exp_clamp_count() == 1


def test_clamp_counter_accumulates_and_resets():
    W = np.zeros((8, 8))
    W[0, 2] = 1e3
    W[1, 5] = -1e3
    x = split_input([0.0, 3.0, 0.0, 3.0, 0.0])
    reset_exp_clamp_count()
    net_forward(W, x)
    assert exp_clamp_count() == 2
    net_forward(W, x)
    assert exp_clamp_count() == 4
    reset_exp_clamp_count()
    assert exp_clamp_count() == 0


def test_no_clamp_in_normal_regime():
    reset_exp_clamp_count()
    for seed in range(50):
        net_forward(*draw_instance(seed))
    assert exp_clamp_count() == 0


# ------------------------------------------- allocation-based gradient oracle
#
# The network half as it was before forward_and_gradient wrote into a stack's
# NetBuffers: every intermediate a new array, x viewed as x[..., None, :] on
# each call. Copied verbatim but for the clamp counter, which is the oracle's
# own, so the two paths' clamp counts can be compared.

_oracle_clamp_events = 0


def _oracle_row_products(W, x):
    """prod_{j != i} exp(W_ij * x_j) per row, with per-argument clamping."""
    global _oracle_clamp_events
    args = np.multiply(W, x[..., None, :], order="C")
    # the diagonal argument W_ii * x_i is the linear gain, never
    # exponentiated: zero it so the row sums run over off-diagonal entries
    # (C order makes the flat reshape a view, so the write lands in args)
    args.reshape(-1, NET_DIM * NET_DIM)[:, :: NET_DIM + 1] = 0.0
    clipped = np.minimum(np.maximum(args, -EXP_CLAMP), EXP_CLAMP)
    hits = int(np.count_nonzero(clipped != args))
    if hits:
        _oracle_clamp_events += hits
    return np.exp(np.add.reduce(clipped, -1))


def oracle_forward_and_gradient(W, x, out=None, grad=None):
    W = np.asarray(W, dtype=float)
    x = np.asarray(x, dtype=float)
    d_diag = x * _oracle_row_products(W, x)
    terms = W.diagonal(0, -2, -1) * d_diag
    grad = np.multiply(terms[..., :, None], x[..., None, :], out=grad, order="C")
    # overwrite the (i, i) slots with the exact diagonal partials
    grad.reshape(-1, NET_DIM * NET_DIM)[:, :: NET_DIM + 1] = d_diag.reshape(-1, NET_DIM)
    return np.add.reduce(terms, -1, out=out), grad


def same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def demo_rows():
    """Network input rows of five default demonstration swings."""
    swings = [run_demo_episode(task, init)
              for task, init in sample_tasks(SampleRanges(), 5, seed=5)]
    rows = np.concatenate([sensor_matrix(traj) for traj in swings])
    assert rows.shape[0] >= 1000
    return rows


def weight_stacks(nets, seed):
    """Stacks of `nets` networks: ordinary weights, weights large enough
    that exponent clamps fire, and weights holding NaN and +-inf."""
    rng = np.random.default_rng(seed)
    plain = rng.uniform(-0.2, 0.2, (nets, NET_DIM, NET_DIM))
    clamped = plain * 100.0
    bad = plain.copy()
    picks = rng.integers(0, [nets, NET_DIM, NET_DIM], size=(3, 3))
    for (k, i, j), v in zip(picks, (math.nan, math.inf, -math.inf)):
        bad[k, i, j] = v
    return {"plain": plain, "clamped": clamped, "nonfinite": bad}


def oracle_call(W, x):
    global _oracle_clamp_events
    _oracle_clamp_events = 0
    G, grad = oracle_forward_and_gradient(W, x)
    return G, grad, _oracle_clamp_events


def live_call(W, x, buffers=None):
    reset_exp_clamp_count()
    G, grad = forward_and_gradient(W, x, buffers)
    return G, grad, exp_clamp_count()


@pytest.mark.parametrize("nets", [1, 4, 8, 16])
def test_forward_and_gradient_matches_allocating_oracle_bits(nets, demo_rows):
    """On every real demo row, G, dG/dW and the clamp count equal the
    allocating oracle's bit for bit, NaN bits included: through one
    NetBuffers bundle reused for every row (so no call keeps state for the
    next) and through a call without one, on ordinary, clamping and
    non-finite weight stacks."""
    with np.errstate(all="ignore"):
        for kind, W in weight_stacks(nets, seed=nets).items():
            buffers = mulnet.NetBuffers(W)
            clamps = 0
            for x in demo_rows:
                want = oracle_call(W, x)
                for got in (live_call(W, x, buffers), live_call(W, x)):
                    assert same_bits(got[0], want[0]), kind
                    assert same_bits(got[1], want[1]), kind
                    assert got[2] == want[2], kind
                clamps += want[2]
            if kind != "plain":
                assert clamps > 0, kind


def test_forward_and_gradient_bundle_keeps_no_stale_state(demo_rows):
    """A bundle first driven through clamping, NaN and inf rows, then
    through ordinary rows in reverse order, gives each row the bits a fresh
    call gives it."""
    W = weight_stacks(8, seed=3)["plain"]
    buffers = mulnet.NetBuffers(W)
    poison = np.array([math.nan, math.inf, 3.0, -math.inf, 1e300, 2.0, 0.0, 1.0])
    with np.errstate(all="ignore"):
        forward_and_gradient(W, poison, buffers)
        forward_and_gradient(W, np.full(NET_DIM, 1e3), buffers)
    for x in demo_rows[::-7]:
        G, grad = forward_and_gradient(W, x, buffers)
        G1, grad1 = forward_and_gradient(W, x)
        want_G, want_grad = oracle_forward_and_gradient(W, x)
        assert same_bits(G, want_G) and same_bits(grad, want_grad)
        assert same_bits(G1, want_G) and same_bits(grad1, want_grad)


def test_forward_and_gradient_with_buffers_writes_them_in_place():
    rng = np.random.default_rng(51)
    W = rng.uniform(-0.2, 0.2, (4, NET_DIM, NET_DIM))
    buffers = mulnet.NetBuffers(W)
    G, dG = forward_and_gradient(W, split_input(draw_raw(rng)), buffers)
    assert G is buffers.out and dG is buffers.grad
    assert G.shape == (4,) and dG.shape == W.shape


def test_forward_and_gradient_without_buffers_returns_new_arrays():
    """Two calls without a bundle share no memory with each other or W."""
    W, x = draw_instance(52)
    W = np.stack([W, W.T])
    G1, grad1 = forward_and_gradient(W, x)
    G2, grad2 = forward_and_gradient(W, x)
    assert same_bits(G1, G2) and same_bits(grad1, grad2)
    for a in (G1, grad1):
        for b in (G2, grad2, W):
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("shape", [(), (5,), (7,), (9,), (1, 8), (2, 8), (8, 1)],
                         ids=["0-d", "5", "7", "9", "1x8", "2x8", "8x1"])
def test_forward_and_gradient_takes_one_8_wide_row(shape):
    """Any x but one (8,) row is refused with its shape named, a (2, 8)
    block included, which would otherwise pair input k with net k."""
    W = np.zeros((2, NET_DIM, NET_DIM))
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        forward_and_gradient(W, np.ones(shape))
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        forward_and_gradient(W, np.ones(shape), mulnet.NetBuffers(W))


def test_forward_and_gradient_refuses_another_stacks_buffers():
    W, x = draw_instance(53)
    with pytest.raises(ValueError, match="another weight stack"):
        forward_and_gradient(W.copy(), x, mulnet.NetBuffers(W))
