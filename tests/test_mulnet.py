"""Multiplicative network: forward/gradient oracles and input splitting."""

import math

import numpy as np
import pytest

from grpleg import mulnet
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
