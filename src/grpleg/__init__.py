"""Swing-leg control transfer: a three-phase swing-leg controller on a planar
double-pendulum leg, and the modular generator/responsibility-predictor (GRP)
model that learns it online from controller demonstrations.

The package holds the one rule of config fields: each config dataclass,
and GrpModel, calls _check_fields first when built, naming its fields'
bounds, and the config file walker leaves every value to them. So a field
holds a value of its annotated type (a section field, an instance of its
section) within its bound, and a value out of bounds is refused in one
wording, such as `mu must be > 0, got 0.0`."""

import dataclasses
import functools
import math
import numbers
import typing

__version__ = "0.1.0"


# The type of each JSON value a writer writes, as a refusal names it.
_KINDS = {dict: "an object", list: "a list", float: "a float", int: "an integer",
          bool: "true or false"}


def _kind(value, tp, key: str):
    """`value`, if its type is `tp`, one of _KINDS; the error names `key`, or the top level."""
    if type(value) is not tp:
        raise ValueError(f"{key or 'top level'} must be {_KINDS[tp]}, got {value!r}")
    return value


def _float(value, key: str) -> float:
    """A finite `int` or `float` (not a bool) as a float; the error names `key`."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ValueError(f"{key} is an integer too large for a float") from None
    if not math.isfinite(v):
        raise ValueError(f"{key} has non-finite value {value!r}")
    return v


@functools.cache
def _fields(cls) -> tuple:
    """(attribute, JSON key, resolved type, default) per field of a config
    dataclass, in declaration order, which is also the on-disk key order.
    `lam` is written as `lambda`, the one key that differs."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, "lambda" if f.name == "lam" else f.name,
                  hints[f.name], f.default) for f in dataclasses.fields(cls))


def _typed(tp, value, key: str):
    """`value` as a field of type `tp` holds it: an int, a finite float, an ordered [lo, hi]
    pair of them of finite width, as a tuple, or else an instance of `tp`, such as a section."""
    if tp is int:
        return _kind(value, int, key)
    if tp is float:
        return _float(value, key)
    if tp == tuple[float, float]:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"{key} must be a [lo, hi] pair, got {value!r}")
        lo, hi = _float(value[0], f"{key}[0]"), _float(value[1], f"{key}[1]")
        if not lo <= hi:
            raise ValueError(f"{key} range ({lo}, {hi}) not ordered")
        if not math.isfinite(hi - lo):  # a draw lo + (hi - lo) * u would be inf
            raise ValueError(f"{key} range ({lo}, {hi}) is wider than a float holds")
        return lo, hi
    if not isinstance(value, tp):
        raise ValueError(f"{key} must be a {tp.__name__}, got {value!r}")
    return value


def _check_fields(obj, **bounds: str) -> None:
    """Store each field of the dataclass `obj` as _typed gives it, then hold each
    field in `bounds` to its bound, "> c" or ">= c", in turn, naming the field."""
    labels = {}
    for name, key, tp, _ in _fields(type(obj)):
        labels[name] = label = name if name == key else f"{name} ({key})"
        object.__setattr__(obj, name, _typed(tp, getattr(obj, name), label))
    for name, bound in bounds.items():
        op, low = bound.split()
        value = getattr(obj, name)
        if not (value > int(low) if op == ">" else value >= int(low)):
            raise ValueError(f"{labels[name]} must be {bound}, got {value}")


class NonFiniteError(RuntimeError):
    """A numerical update went non-finite: a diverging learn step or plant
    integration step. Raised before the bad values replace the old state.
    A diverging learn step sets `models`: the places in its stack, from 1,
    of the models whose weights went non-finite; train's report of it, or
    of a sharpness that overflows, keeps them."""

    def __init__(self, message: str, models: tuple[int, ...] = ()):
        super().__init__(message)
        self.models = models


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def uniform_stream(seed):
    """The unit doubles in [0, 1) that numpy.random.default_rng(seed) draws,
    bit for bit, without importing numpy.random: so a draw on [lo, hi) is
    lo + (hi - lo) * u, as Generator.uniform computes it. `seed` is a
    nonnegative integer or a list of them. The seed is mixed into
    SeedSequence's 4-word pool, whose generate_state(4, uint64) seeds a
    PCG64 (XSL-RR 128/64) stream; each draw is (next64 >> 11) * 2**-53."""
    words = []  # the seed as 32-bit words, each integer low word first
    for s in seed if isinstance(seed, (list, tuple)) else [seed]:
        if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s < 0:
            raise ValueError(f"seed must be a nonnegative integer or a list of them, "
                             f"got {seed!r}")
        s = int(s)
        words += [s >> 32 * i & _M32 for i in range(max(1, (s.bit_length() + 31) // 32))]

    def hasher(h, mult):  # SeedSequence's hashmix, its constant h advancing by mult
        def hashmix(value):
            nonlocal h
            value ^= h
            h = h * mult & _M32
            value = value * h & _M32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)
    state = [hashmix(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = (s2 << 64 | s3) << 1 & _M128 | 1
    x = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    while True:
        x = (x * _PCG_MULT + inc) & _M128
        v, rot = (x >> 64 ^ x) & _M64, x >> 122
        yield (((v >> rot | v << (64 - rot)) & _M64) >> 11) * 2.0**-53
