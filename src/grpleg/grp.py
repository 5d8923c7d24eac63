"""GRP stack: parallel Generator / Responsibility-Predictor pairs learning
online from a reference torque.

Each of the m layers holds two multiplicative networks over the same 8-dim
input: a Generator producing a candidate torque G^k and an RP whose sigmoid
head predicts the layer's mixing weight pi^k. The combined output is
tau_out = sum_k G^k pi^k. A model stores its weights as two (m, 8, 8)
stacks, W for the Generators and R for the RPs, layer k at index k, so a
whole stack evaluates in one network call.

Every layer of every model sees the same input, so several models evaluate
and learn together over one LearnStack: one (2M, 8, 8) array holding every
model's W stack, then every R stack, with each model's W and R views into
it. `forward` reads it with one network call and one sigmoid-head call at a
block of inputs, one row per swing in a lockstep rollout.
`learn_step_joint` updates it in place in two halves. The network half is
numpy on the whole stack: one network-and-gradient call, then the update,
its finiteness check and the commit. The per-row half between them (the
sigmoid head, e_G, each model's responsibility softmax, e_RP and the
update gains) handles one number per stack row, so it runs on Python
floats, where numpy's per-call cost would outweigh its arithmetic; it
gives the array form's bits. The stack also owns every array a step
writes (network output, pi, e_G, r_RP, e_RP, gradient and update work),
the network half's work arrays with their persistent diagonal views (one
mulnet.NetBuffers, built once), and one StepRecord of views into them per
model; each step returns those same records, overwritten. `forward`
likewise returns views of a block NetBuffers of the stack's. A single
model is a one-model stack.

Learning is supervised by one reference torque r_G per model at every
control step, which every layer of that model regresses onto. The reference
responsibility r_RP is a softmax of -gamma |e_G| over layers (sharper gamma
-> closer to winner-take-all on the smallest Generator error); gamma grows
geometrically by beta after every episode. Generator updates are gated by
r_RP: a layer that takes no responsibility for a sample learns nothing from
it, decay term included. RP updates are never gated (each RP must also
learn where it is NOT responsible) and run at their own ungated rate; see
GrpConfig.mu_rp for why the rates are split.

The sum-to-one constraint lives on the reference responsibilities only;
predicted pi^k are free sigmoids in (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import NonFiniteError, _check_fields, mulnet, uniform_stream
from .mulnet import (
    NET_DIM,
    P_CEIL,
    P_FLOOR,
    NetBuffers,
    forward_and_gradient,
    net_forward,
    sigmoid_head,
)


@dataclass(frozen=True)
class GrpConfig:
    """Stack shape and learning hyperparameters; the defaults are the
    swing run's.

    `lam` is the L2 weight-decay coefficient (serialized as "lambda").
    `mu` is the Generator learning rate and `mu_rp` the RP rate. The rates
    are split because the two regression problems live on different
    scales: reference torques reach +-60 N*m, so Generator steps must be
    ~1000x smaller than the RP steps that track responsibilities in [0, 1].
    """

    # Field order is the key order of config and model files.
    m: int
    mu: float = 1e-6
    mu_rp: float = 1e-2
    lam: float = 1e-4
    gamma0: float = 1.0
    beta: float = 1.01
    w_gain: float = 1.0
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, m=">= 1", seed=">= 0", mu="> 0", mu_rp="> 0", gamma0="> 0",
                      init_scale="> 0", lam=">= 0", beta="> 1")
        if not math.isfinite(2.0 * self.init_scale):
            raise ValueError(f"init_scale {self.init_scale} gives a draw range "
                             "2*init_scale wider than a float holds")


@dataclass
class GrpModel:
    """m Generator/RP pairs: W[k] and R[k] are layer k's (8, 8) Generator
    and RP weights, so W and R are (config.m, 8, 8) float arrays."""

    W: np.ndarray
    R: np.ndarray
    gamma: float
    config: GrpConfig
    episode_count: int = 0

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Refuse a bad field, then W or R not (config.m, 8, 8): when built, stacked, written."""
        _check_fields(self, gamma="> 0", episode_count=">= 0")
        shape = (self.config.m, NET_DIM, NET_DIM)
        for name in ("W", "R"):
            if (got := getattr(self, name).shape) != shape:
                raise ValueError(f"model has {got[0]} layers but config.m = {shape[0]}"
                                 if name == "W" and got[1:] == shape[1:]
                                 else f"{name} must have shape {shape}, got {got}")

    @property
    def m(self) -> int:
        return self.W.shape[0]


@dataclass
class StepRecord:
    """Everything one learn step produced, per layer of one model: views
    into its LearnStack's buffers, which the next step overwrites."""

    G: np.ndarray
    pi: np.ndarray
    e_G: np.ndarray
    r_RP: np.ndarray
    e_RP: np.ndarray


def init(config: GrpConfig) -> GrpModel:
    """Fresh model with i.i.d. uniform weights on [-init_scale, init_scale].

    Each layer draws from its own child stream of the config seed, so
    layers are pairwise distinct and layer k's weights do not depend on m.
    """
    W = np.empty((config.m, NET_DIM, NET_DIM))
    R = np.empty_like(W)
    lo, width = -config.init_scale, 2.0 * config.init_scale
    for k in range(config.m):
        # W[k] then R[k] in C order, as default_rng([seed, k]).uniform draws them
        u = np.fromiter(uniform_stream([config.seed, k]), float, 2 * NET_DIM**2)
        W[k], R[k] = (lo + width * u).reshape(2, NET_DIM, NET_DIM)
    return GrpModel(W=W, R=R, gamma=config.gamma0, config=config)


def responsibility_reference(errors, gamma: float) -> np.ndarray:
    """Softmax of -gamma |e_G| over layers, the last axis; broadcasts over
    leading axes.

    Max-shifted before exponentiation, so arbitrarily sharp gamma degrades
    gracefully to one-hot on the smallest |e_G| instead of underflowing to
    0/0.
    """
    z = np.abs(np.asarray(errors, dtype=float))
    z *= -gamma
    # ufunc reductions called directly, as in mulnet
    z -= np.maximum.reduce(z, -1, keepdims=True)
    mulnet.exp(z, out=z)
    z /= np.add.reduce(z, -1, keepdims=True)
    return z


class LearnStack:
    """Live weights of several models that evaluate and learn together.

    S lays out every model's W stack, then every R stack, and each model's
    W and R become views into it, so `forward` reads the current weights
    and a learn step updates all of them in place. The per-row Generator
    rate and decay, RP rate, sigmoid gain and RP decay come from the
    configs once. G, pi, e_G, r_RP and e_RP hold the last step's per-row
    values, and `records` holds one StepRecord of views into them per
    model; the step writes these and its work buffers in place. The stack
    also owns the network half's work: one mulnet.NetBuffers for S, built
    here once, whose `out` holds the network output (G is its first half)
    and whose `grad` holds the gradient, then the update. A stack takes at
    least one model, each a GrpModel its check takes, so with config.m
    layers of W and as many of R. A model belongs to one live stack at a
    time; rebinding its W or R detaches it.
    """

    def __init__(self, models: list[GrpModel]):
        models = list(models)
        if not models:
            raise ValueError("a learn stack takes at least one model, got none")
        for k, mdl in enumerate(models, start=1):
            if not isinstance(mdl, GrpModel):
                raise ValueError(f"model {k} of the learn stack is not a GrpModel, "
                                 f"got {type(mdl).__name__}")
            try:  # each row's rates come from its model's config, and S's halves line up
                mdl.check()
            except ValueError as exc:
                raise ValueError(f"model {k} of the learn stack: {exc}") from None
        if len({id(mdl) for mdl in models}) < len(models):
            raise ValueError(
                "the same model appears twice in a learn stack; "
                "its weight views would alias"
            )
        sizes = [mdl.m for mdl in models]
        total = sum(sizes)
        ends = np.cumsum(sizes).tolist()
        self.models = models
        self.slices = tuple(slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends))
        self.S = np.concatenate([mdl.W for mdl in models] + [mdl.R for mdl in models])
        for mdl, sl in zip(models, self.slices):
            mdl.W = self.S[sl]
            mdl.R = self.S[total + sl.start : total + sl.stop]

        # each row's model and (mu, lam, RP rate, sigmoid gain), for the per-row half
        self._row_model = [k for k, size in enumerate(sizes) for _ in range(size)]
        self._row_consts = [
            (cfg.mu, cfg.lam, cfg.mu_rp, cfg.w_gain)
            for cfg, size in zip((mdl.config for mdl in models), sizes) for _ in range(size)
        ]
        self.w_gain = np.array([w_gain for *_, w_gain in self._row_consts])

        # what a step writes: the network half's work arrays, its output
        # (every Generator output G, then every RP pre-activation) and the
        # gradient among them, the per-row pi, e_G, r_RP and e_RP (one
        # buffer, so one write); one StepRecord of views per model
        self._net = NetBuffers(self.S)
        self.G = self._net.out[:total]
        self._rows = np.zeros(4 * total)
        self.pi, self.e_G, self.r_RP, self.e_RP = self._rows.reshape(4, total)
        self.records = [
            StepRecord(G=self.G[sl], pi=self.pi[sl], e_G=self.e_G[sl],
                       r_RP=self.r_RP[sl], e_RP=self.e_RP[sl])
            for sl in self.slices
        ]

        # work buffer: the per-row gain and decay of the update as (2M, 1, 1)
        # columns in one buffer, whose RP decay rows never change and are
        # written here once
        self._coef = np.empty(4 * total)
        self._gain, self._decay = self._coef.reshape(2, 2 * total, 1, 1)
        self._coef[3 * total:] = [mu_rp * lam for _, lam, mu_rp, _ in self._row_consts]
        self._block = None  # forward's: NetBuffers, RP outputs, per-model views


def forward(stack: LearnStack, x) -> list[tuple]:
    """(G, pi, tau_out) per model of the stack at an (N, 8) block of inputs,
    from one network call and one sigmoid head over its current weights:
    the (N, m) Generator outputs G^k, the (N, m) RP responsibilities pi^k
    and the (N,) combined torques sum_k G^k pi^k. x may be an array or a
    list of N rows of eight floats. Row n holds the bits that input n
    alone, as a (1, 8) block, gives, so the lockstep rollout evaluates every
    active swing in one call, one row per swing. Each model's torques are
    one np.vecdot over its columns, which gives each row the bits of the
    1-D G @ pi. forward raises nothing on non-finite values; the rollout's
    torque and plant checks do, in tick order. The arrays are views of the
    stack's block NetBuffers, rebuilt only when N changes, the same list
    every call with N rows, and the next call overwrites them.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != NET_DIM:
        raise ValueError(
            f"forward takes an (N, {NET_DIM}) block of inputs, got shape {x.shape}"
        )
    if stack._block is None or len(stack._block[0].x) != len(x):
        total = stack.w_gain.size
        net = NetBuffers(stack.S, len(x), total)
        G, taus = net.out[:, :total], np.empty((len(stack.slices), len(x)))
        stack._block = net, net.out[:, total:], [
            (G[:, sl], net.pi[:, sl], tau) for sl, tau in zip(stack.slices, taus)]
    net, rp_out, views = stack._block
    net_forward(stack.S, x, net)
    sigmoid_head(rp_out, stack.w_gain, net)
    for G, pi, tau in views:
        np.vecdot(G, pi, out=tau)
    return views


def total_output_identity(model: GrpModel, x, r_G: float) -> float:
    """Combined output with feedback errors added to both factors:
    sum_k (G^k + e_G^k)(pi^k + e_RP^k). Collapses algebraically to
    r_G * sum_k r_RP^k = r_G, which is why the plant can be driven by the
    reference torque while the stack is still untrained. The model's copy
    forms the stack, so the model stays in any live stack it belongs to."""
    (G, pi, _), = forward(LearnStack([replace(model)]), np.asarray(x, dtype=float)[None])
    G, pi = G[0], pi[0]
    e_G = r_G - G
    r_RP = responsibility_reference(e_G, model.gamma)
    e_RP = r_RP - pi
    return float((G + e_G) @ (pi + e_RP))


def learn_step_joint(stack: LearnStack, x, r_G) -> list[StepRecord]:
    """One online update of every model in a live stack from one shared
    input row x, shape (8,), and one reference torque per model, shape
    (len(stack.models),); any other shape of either raises ValueError
    naming it before the step does any work. Returns one record per model.

    Generator k moves down its squared-error gradient at the gated rate
    r_RP^k * mu; its RP regresses onto the reference responsibility at the
    RP rate, through the sigmoid head. The network half (the
    network-and-gradient call, then the update) is numpy on the whole
    (2M, 8, 8) stack; the per-row half between them is `_row_half`, on
    Python floats. Every op is row-local, so the result is bit-identical to
    updating each model on its own. The new weights are checked before
    they replace the old, so a non-finite update changes nothing; its
    NonFiniteError names the models whose rows diverged.

    Every array the step writes belongs to the stack, and so do the
    records: they are `stack.records`, views of the stack's buffers, the
    same list every step, and the next step overwrites them. Copy what
    must outlive the step.
    """
    r_G = np.asarray(r_G, dtype=float)
    if r_G.shape != (len(stack.models),):
        raise ValueError(
            f"learn step takes one reference per model, shape {(len(stack.models),)}, "
            f"got shape {r_G.shape}"
        )
    S, dS = stack.S, stack._net.grad
    forward_and_gradient(S, x, stack._net)
    _row_half(stack, r_G.tolist())

    # gain * dS + S - decay * S per row, formed in the gradient's buffer
    new = np.multiply(stack._gain, dS, out=dS)
    new += S
    new -= stack._decay * S
    if not np.isfinite(new).all():
        worst = [np.abs(rec.e_G).max() for rec in stack.records]
        k = worst.index(max(worst))
        # the models whose W or R rows went non-finite, by place from 1
        rows_ok = np.isfinite(new).reshape(2, stack.pi.size, -1).all((0, 2))
        places = [j for j, sl in enumerate(stack.slices, 1) if not rows_ok[sl].all()]
        raise NonFiniteError(
            "non-finite weight update: "
            f"max|S|={np.abs(S).max():g} r_G={float(r_G[k]):g} "
            f"max|e_G|={worst[k]:g} "
            f"episodes={[mdl.episode_count for mdl in stack.models]}; "
            f"non-finite rows in stack models {places}; "
            f"input row {'finite' if np.isfinite(x).all() else 'non-finite'}, "
            f"references {'finite' if np.isfinite(r_G).all() else 'non-finite'}",
            tuple(places))
    np.copyto(S, new)
    return stack.records


def _row_half(stack: LearnStack, r_G: list[float]) -> None:
    """The learn step's per-row half on Python floats, from the network
    output in `stack._net.out`: pi, e_G, r_RP and e_RP into the stack's row
    buffers, the gains and Generator decays into its (2M, 1, 1) columns.

    Each value has the bits that `sigmoid_head`, `responsibility_reference`
    and the update's array ops give: the same operations in the same order,
    with every exponential taken in one mulnet.exp call (math.exp is not
    numpy's exp). The sigmoid needs only exp(-|z|), because its numerator
    exp(min(z, 0)) is that same value for z < 0 and 1 otherwise. A
    softmax row of 7 or fewer is summed left to right, which is numpy's
    order there; a longer row is summed by np.add.reduce, whose pairwise
    tree a plain loop would not reproduce.
    """
    total = len(stack._row_model)
    out = stack._net.out.tolist()
    G = out[:total]
    e_G = [r_G[k] - g for k, g in zip(stack._row_model, G)]
    z = [b * w_gain for b, (_, _, _, w_gain) in zip(out[total:], stack._row_consts)]
    soft_args = []
    for mdl, sl in zip(stack.models, stack.slices):
        neg_gamma = -mdl.gamma
        a = [abs(e) * neg_gamma for e in e_G[sl]]
        top = max(a)
        soft_args += [v - top for v in a]
    exps = mulnet.exp([-abs(v) for v in z] + soft_args)
    ex = exps.tolist()

    pi = []
    for zk, ek in zip(z, ex):
        p = (ek if zk < 0.0 else 1.0) / (ek + 1.0)
        if p < P_FLOOR:
            p = P_FLOOR
        elif p > P_CEIL:
            p = P_CEIL
        pi.append(p)
    r_RP = []
    soft, soft_array = ex[total:], exps[total:]
    for sl in stack.slices:
        row = soft[sl]
        if len(row) < 8:
            s = row[0]
            for v in row[1:]:
                s += v
        else:
            s = np.add.reduce(soft_array[sl]).item()
        r_RP += [v / s for v in row]

    # Generator rate is gated by the reference responsibility, decay
    # included, so a non-responsible layer is bit-exactly unchanged; RP
    # updates chain through the sigmoid at the ungated RP rate.
    e_RP, gain_G, decay_G, gain_RP = [], [], [], []
    for p, e, r, (mu, lam, mu_rp, w_gain) in zip(pi, e_G, r_RP, stack._row_consts):
        mu_k = r * mu
        gain_G.append(mu_k * e)
        decay_G.append(mu_k * lam)
        d = r - p
        e_RP.append(d)
        gain_RP.append(mu_rp * d * w_gain * p * (1.0 - p))
    stack._rows[:] = pi + e_G + r_RP + e_RP
    stack._coef[:3 * total] = gain_G + gain_RP + decay_G


def end_episode(model: GrpModel) -> GrpModel:
    """Anneal the responsibility sharpness: gamma <- beta * gamma. A gamma
    that would overflow raises NonFiniteError and leaves the model as it was."""
    gamma = model.gamma * model.config.beta
    if not math.isfinite(gamma):
        raise NonFiniteError(f"gamma {model.gamma:g} * beta {model.config.beta:g} "
                             f"overflows after episode {model.episode_count + 1}")
    model.gamma = gamma
    model.episode_count += 1
    return model
