"""Swing-leg control transfer: a three-phase swing-leg controller on a planar
double-pendulum leg, and the modular generator/responsibility-predictor (GRP)
model that learns it online from controller demonstrations."""

import math
import numbers

__version__ = "0.1.0"


def _int(value, key: str) -> int:
    """An `int`, not a bool or a float, as JSON gives it; the error names `key`."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
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


class NonFiniteError(RuntimeError):
    """A numerical update went non-finite: a diverging learn step or plant
    integration step. Raised before the bad values replace the old state.
    A diverging learn step sets `models`: the places in its stack, from 1,
    of the models whose weights went non-finite."""

    models: tuple[int, ...] = ()


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
