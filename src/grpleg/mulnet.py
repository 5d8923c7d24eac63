"""Multiplicative sensory network: the shared primitive behind Generators
and Responsibility Predictors.

A network is one 8x8 weight matrix W over a nonnegative input vector x.
Diagonal weights are linear gains, off-diagonal weights modulate
exponentially (a presynaptic-inhibition motif: input j scales the gain of
input i without adding to it):

    G(W, x) = sum_i  W_ii * x_i * prod_{j != i} exp(W_ij * x_j)

Signed sensor channels are split into (positive, negative) half-wave pairs
before entering the network, so every x_j >= 0 and exactly one of each pair
is active. `split_input` does this as one signed gather of the raw channels
followed by one maximum against a floor row (0 for split channels, -inf for
the joint angles, which pass through); `split_row` does it for one row of
Python floats, with the same bits. A consequence worth keeping in mind:
if x_j = 0 then every exp(W_ij * x_j) = 1 and the output is independent of
W_ij entirely.

Exponent arguments are clamped to +-EXP_CLAMP before exponentiation to keep
early-training weight transients from overflowing; each clamped entry bumps
a module-level counter (`exp_clamp_count`) so a run can report whether the
guard ever fired. `forward_and_gradient` returns G with the exact partials
of the unclamped sum-product, evaluated with the same clamped row products
as the forward pass.

Weights broadcast over leading axes, so a stack of weight matrices shaped
(m, 8, 8) evaluates m networks in one call. `net_forward` takes one input
row or an (N, 8) block; `forward_and_gradient` takes exactly one row.
Both, and `sigmoid_head`, write every intermediate in place into a
`NetBuffers` bundle for one row or a block, built once for the weights
with views made once (a call without one builds one), and share one
clamped row-product path. On arrays this small
the per-call overhead outweighs the arithmetic, so sums call
`np.add.reduce` directly rather than through the ndarray method's Python
layer (the same reduction, so the same bits).
"""

from __future__ import annotations

import numpy as np

RAW_DIM = 5  # (alpha - alpha_tgt), phi_h, phi_h_dot, phi_k, phi_k_dot
NET_DIM = 8
EXP_CLAMP = 50.0
exp = np.exp  # every exponential of the model, here and in grp; not wrapped, to cost no call

# the open interval a sigmoid head's pi is pinned to, as Python floats
P_FLOOR = float(np.finfo(float).tiny)
P_CEIL = float(np.nextafter(1.0, 0.0))

# split_input's layout: source channel, sign and floor of each output entry
_SPLIT_SRC = np.array([0, 0, 1, 2, 2, 3, 4, 4])
_SPLIT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
_SPLIT_FLOOR = np.array([0.0, 0.0, -np.inf, 0.0, 0.0, -np.inf, 0.0, 0.0])

_clamp_events = 0


def exp_clamp_count() -> int:
    """Total exponent-argument clamps since the last reset."""
    return _clamp_events


def reset_exp_clamp_count() -> None:
    global _clamp_events
    _clamp_events = 0


def split_input(raw):
    """Map the raw 5-vector [(alpha - alpha_tgt), phi_h, phi_h_dot, phi_k,
    phi_k_dot] to the 8-dim network input.

    The target error and both joint rates split into half-wave pairs
    (max(v, 0), max(-v, 0)); the joint angles pass through unsplit (they
    never go negative on this leg). One signed gather and one maximum
    against a floor row do it: the floor is 0 for split channels and -inf
    for the angles. Broadcasts over leading axes. The result is written
    C-ordered, because a batched net_forward's summation order follows the
    memory layout (the gather alone returns 2-D input F-ordered).
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-1] != RAW_DIM:
        raise ValueError(f"expected {RAW_DIM} sensory channels, got {raw.shape[-1]}")
    out = np.empty(raw.shape[:-1] + (NET_DIM,))
    np.multiply(raw[..., _SPLIT_SRC], _SPLIT_SIGN, out=out)
    return np.maximum(out, _SPLIT_FLOOR, out=out)


def split_row(e: float, phi_h: float, phi_h_dot: float, phi_k: float,
              phi_k_dot: float) -> list[float]:
    """split_input for one row of five Python floats, as a list of eight.

    A rollout tick builds one input row per active swing; on a handful of
    rows numpy's per-call cost outweighs the split itself, so this does it
    with comparisons. The bits are split_input's: a split channel's
    positive half is v above 0 and +0.0 otherwise (-0.0 included), its
    negative half -v below 0 and +0.0 otherwise, and NaN passes into both
    halves, as through np.maximum.
    """
    return [
        0.0 if e <= 0.0 else e, 0.0 if e >= 0.0 else -e,
        phi_h,
        0.0 if phi_h_dot <= 0.0 else phi_h_dot, 0.0 if phi_h_dot >= 0.0 else -phi_h_dot,
        phi_k,
        0.0 if phi_k_dot <= 0.0 else phi_k_dot, 0.0 if phi_k_dot >= 0.0 else -phi_k_dot,
    ]


def _row_products(b, xr):
    """prod_{j != i} exp(W_ij * x_j) per row, with per-argument clamping,
    written into the NetBuffers `b`; xr broadcasts against W's rows."""
    global _clamp_events
    args = np.multiply(b.W, xr, out=b.args)
    # the diagonal argument W_ii * x_i is the linear gain, never
    # exponentiated: zero it so the row sums run over off-diagonal entries
    b.args_diag.fill(0.0)
    clip = np.maximum(args, -EXP_CLAMP, out=b.clip)
    np.minimum(clip, EXP_CLAMP, out=clip)
    hits = int(np.count_nonzero(np.not_equal(clip, args, out=b.hit)))
    if hits:
        _clamp_events += hits
    prod = np.add.reduce(clip, -1, out=b.prod)
    return exp(prod, out=prod)


class NetBuffers:
    """The work arrays of one weight stack W for one input row (`rows`
    None) or a block of `rows` rows, built once: the input block (`x_rows`),
    argument, clip, compare, row-product and term buffers, G (`out`), dG/dW
    (`grad`), a contiguous sigmoid head `pi` (and its work `pi_den`) over
    the outputs of W's last `heads` matrices, and persistent views: W's
    diagonal, the flat diagonals of args and grad, the input shaped to
    pair each row with every matrix, and the terms as a column."""

    def __init__(self, W, rows: int | None = None, heads: int = 0):
        self.W = W
        block = () if rows is None else (rows,)
        lead = block + W.shape[:-2]
        self.W_diag = W.diagonal(0, -2, -1)
        # the input block, each row repeated once per matrix row so that
        # W * x_rows runs over whole contiguous matrices, with a unit axis per
        # stacked axis of W; x and x_diag view the first repeat
        self.x_rows = np.empty(block + (1,) * (W.ndim - 2) + (NET_DIM, NET_DIM))
        self.x_grid = self.x_rows.reshape(block + (NET_DIM, NET_DIM))
        self.x, self.x_diag = self.x_grid[..., 0, :], self.x_rows[..., 0, :]
        self.args = np.empty(lead + (NET_DIM, NET_DIM))
        # C order makes the flat reshape a view, so writes land in args
        self.args_diag = self.args.reshape(-1, NET_DIM * NET_DIM)[:, :: NET_DIM + 1]
        self.clip = np.empty(self.args.shape)
        self.hit = np.empty(self.args.shape, dtype=bool)
        self.prod = np.empty(lead + (NET_DIM,))
        self.terms = np.empty(lead + (NET_DIM,))
        self.terms_col = self.terms[..., None]
        self.out = np.empty(lead)
        self.pi, self.pi_den = np.empty((2,) + lead[:-1] + (heads,))
        self.grad = np.empty(W.shape)
        # split back into W's leading axes, still a view of grad
        flat = self.grad.reshape(-1, NET_DIM * NET_DIM)[:, :: NET_DIM + 1]
        self.grad_diag = flat.reshape(W.shape[:-2] + (NET_DIM,))


def _bundle_for(W, buffers, rows):
    """`buffers`, refused unless built for W, or if None a new bundle."""
    if buffers is None:
        return NetBuffers(np.asarray(W, dtype=float), rows)
    if buffers.W is not W:
        raise ValueError("these NetBuffers were built for another weight stack")
    return buffers


def net_forward(W, x, buffers=None):
    """G(W, x) at one input row x, shape (8,), or at an (N, 8) block, whose
    row n pairs input n with every matrix of W: W's leading shape, preceded
    for a block by N (a scalar for one matrix at one row). An x unlike the
    bundle's input block raises ValueError naming its shape. Each term is
    (W_ii x_i) p_i, p_i row i's product. With the NetBuffers built for W
    and x's rows, G is a view of its `out`, overwritten by the next call;
    without one the call builds one, so the array returned is new.
    """
    x = np.asarray(x, dtype=float)
    b = _bundle_for(W, buffers, len(x) if x.ndim == 2 else None)
    if x.shape != b.x.shape:
        raise ValueError(f"net_forward takes an input of shape {b.x.shape}, "
                         f"got shape {x.shape}")
    np.copyto(b.x_grid, x[..., None, :])
    p = _row_products(b, b.x_rows)
    terms = np.multiply(b.W_diag, b.x_diag, out=b.terms)
    terms *= p
    return np.add.reduce(terms, -1, out=b.out)[()]


def forward_and_gradient(W, x, buffers=None):
    """(G, dG/dW) in one pass at one input row x of shape (8,), sharing the
    row products; x of any other shape raises ValueError naming it.

    The exact partials: entry (i, i) is x_i * prod_{j != i} exp(W_ij * x_j);
    entry (i, j) for j != i is term_i * x_j, where term_i is row i's
    contribution to G. Both vanish wherever x_i = 0 resp. x_j = 0. G is
    net_forward's sum rounded another way: this forms W_ii (x_i p_i) where
    net_forward forms (W_ii x_i) p_i, p_i row i's product, so the two agree
    to rounding of the terms, not bit for bit. The training loop calls this
    once per step on a whole weight stack with the one-row NetBuffers its
    stack built for W, so every intermediate is written in place and G and
    dG/dW are the bundle's `out` and `grad`, overwritten by the next call.
    Without a bundle the call builds one, so the arrays returned are new.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (NET_DIM,):
        raise ValueError(
            f"forward_and_gradient takes one input row, shape ({NET_DIM},), "
            f"got shape {x.shape}"
        )
    b = _bundle_for(W, buffers, None)
    p = _row_products(b, x)
    d_diag = np.multiply(x, p, out=p)
    terms = np.multiply(b.W_diag, d_diag, out=b.terms)
    grad = np.multiply(b.terms_col, x, out=b.grad)
    # overwrite the (i, i) slots with the exact diagonal partials
    np.copyto(b.grad_diag, d_diag)
    return np.add.reduce(terms, -1, out=b.out), grad


def sigmoid_head(b, w_gain: float = 1.0, buffers=None):
    """Responsibility head pi = 1 / (1 + exp(-w_gain * b)).

    Evaluated overflow-free with e = exp(-|z|): the numerator exp(min(z, 0))
    is 1 for z >= 0 and e below, so one division gives 1 / (1 + e) or
    e / (1 + e). The result is pinned to the open interval (0, 1) so a
    saturated head never reports exactly 0 or 1. w_gain is a scalar or
    broadcasts against b (one gain per row). With a NetBuffers bundle the
    result is a view of its `pi`; without one the arrays are new.
    """
    out = None if buffers is None else buffers.pi
    z = np.asarray(np.multiply(b, w_gain, out=out, dtype=float))  # 0-d stays an array
    e = np.empty_like(z) if buffers is None else buffers.pi_den
    np.negative(np.abs(z, out=e), out=e)
    exp(e, out=e)
    e += 1.0
    np.minimum(z, 0.0, out=z)
    exp(z, out=z)
    z /= e
    np.maximum(z, P_FLOOR, out=z)
    return np.minimum(z, P_CEIL, out=z)[()]


def finite_difference_check(W, x, h: float = 1e-6) -> float:
    """Max discrepancy between forward_and_gradient's partials and central
    differences of net_forward, entrywise over one 8x8 matrix.

    Discrepancies are scaled by max(1, |analytic|, |numeric|): relative for
    large entries, absolute for entries near zero (where central
    differences are all cancellation noise).
    """
    W = np.asarray(W, dtype=float)
    x = np.asarray(x, dtype=float)
    analytic = forward_and_gradient(W, x)[1]
    fd = np.empty_like(analytic)
    for i in range(NET_DIM):
        for j in range(NET_DIM):
            Wp = W.copy()
            Wp[i, j] += h
            Wm = W.copy()
            Wm[i, j] -= h
            fd[i, j] = (net_forward(Wp, x) - net_forward(Wm, x)) / (2.0 * h)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / scale))
