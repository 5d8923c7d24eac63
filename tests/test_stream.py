"""The seeded stream: numpy.random.default_rng's uniform bits, drawn without numpy.random."""

import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import grpleg
from grpleg import uniform_stream

RANGES = [(0.0, 1.0), (-4.0, 0.0), (50.0 * math.pi / 180, 85.0 * math.pi / 180)]
BIG_SEEDS = [2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1, int("9" * 400)]


@pytest.mark.parametrize("seeds", [range(1000), BIG_SEEDS], ids=["0-999", "big"])
def test_scalar_draws_are_default_rng_uniform_bits(seeds):
    """Scalar draws lo + (hi - lo) * u equal Generator.uniform(lo, hi)'s,
    for int seeds of one to four 32-bit words and one of 42 words, longer
    than SeedSequence's 4-word pool."""
    for seed in seeds:
        draws, rng = uniform_stream(seed), np.random.default_rng(seed)
        for _ in range(2):
            for lo, hi in RANGES:
                got, want = lo + (hi - lo) * next(draws), rng.uniform(lo, hi)
                assert got.hex() == want.hex(), (seed, lo, hi)


def test_blocks_of_list_seeds_are_default_rng_uniform_bits():
    """Two 8x8 blocks in C order from the stream seeded with [s, k], as
    grp.init draws a layer's W and R, equal Generator.uniform's blocks."""
    for s in range(100):
        for k in range(8):
            u = np.fromiter(uniform_stream([s, k]), float, 128).reshape(2, 8, 8)
            rng = np.random.default_rng([s, k])
            for block, scale in zip(u, (0.1, 0.2)):
                want = rng.uniform(-scale, scale, (8, 8))
                np.testing.assert_array_equal(-scale + 2.0 * scale * block, want)


@pytest.mark.parametrize("seed", [-1, [3, -2], 1.5, [0, 2.0], "7", None, True])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused(seed):
    """Refused at the first draw, naming the seed."""
    message = f"seed must be a nonnegative integer or a list of them, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        next(uniform_stream(seed))


def test_cli_commands_never_import_numpy_random(tmp_path):
    """demo, a one-episode train on one demo, eval and gradcheck in one
    fresh interpreter leave numpy.random unloaded and warn of nothing."""
    package_root = str(Path(grpleg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    (tmp_path / "cfg.json").write_text('{"episodes": 1, "demo_count": 1}')
    script = textwrap.dedent("""
        import sys
        from grpleg.cli_io import cli
        for argv in (["demo", "--n", "1"], ["train", "--config", "cfg.json"],
                     ["eval", "--n", "1"], ["gradcheck"]):
            assert cli(argv) == 0, argv
        assert "numpy.random" not in sys.modules, "numpy.random was imported"
    """)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "demo_001.csv", "eval_001.csv", "hip.json", "knee.json", "manifest.json",
        "report.json", "train_log.json"]
