"""Workload runs, traced passes and the result line of the grpleg benchmark.

--trace 0 repeats the workload's CLI call, each call on fresh seeded
inputs, until `seconds` of call wall have run, checks every call's
outputs, and reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median wall of SETUP_REPEATS fresh processes that import,
               stage the config and fixture, check the fixture hash, and
               stop where the first timed call would start
  ticks_per_s  median over calls of ticks / call wall
  peak_rss_mb  this process's peak resident set
Both walls are corrected for host contention (see `HostProbe`); the
uncorrected medians are printed as setup_s.wall and ticks_per_s.wall.
Quality figures (landing or fit error of call 0, exact for a seed) and
failed_frac are printed above the result line.

--trace 1 runs `trace_calls` calls four times traced, twice at the seed
and twice at seed + 1, and once untraced between the two at the seed.
Each pair must repeat its counts and quality figures exactly. The
per-layer metrics come from the first traced pass; trace_overhead_frac
compares the ticks/s of the two traced passes at the seed with the
untraced one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from grpleg import cli_io, mulnet
from tracer import Tracer
from workloads import QUALITY_UNITS, WORKLOADS, CallResult, call_seed

SETUP_REPEATS = 7
RUN_DIR_NAME = ".perfbench_run"

# Host contention correction. On a shared 2-vCPU Xeon guest, other tenants
# slow this process by up to 1.7x, in stretches of seconds. So while an
# interval is timed, a fixed reference kernel that belongs to the benchmark
# (no grpleg code, so no change to grpleg can speed it up) is timed too:
# just before, just after, and every PROBE_PERIOD_S in between from a
# SIGALRM handler. The interval's wall, less the probes' own time, is
# scaled by REF_ITERATION_S over the kernel's mean time per iteration, and
# reads as the wall the interval would take uncontended. The grpleg calls
# slow about as much as the kernel; process start-up slows less, so set-up
# time is over-corrected when contended (perfbench/NOTES.md has the
# measurements).
REF_ITERATION_S = 4.8e-6  # uncontended kernel time per iteration on that guest
BRACKET_ITERATIONS = 1000
PROBE_ITERATIONS = 50
PROBE_PERIOD_S = 0.05
_REF_A = np.linspace(-0.2, 0.2, 512).reshape(8, 8, 8)
_REF_X = np.linspace(0.1, 2.0, 8)


def ref_iteration_s(iterations: int) -> float:
    """Seconds per iteration of the reference kernel, measured now: scalar
    math like the plant's, then a small-array numpy op like the nets'."""
    xs = _REF_X.tolist()
    start = perf_counter()
    for _ in range(iterations):
        acc = 0.0
        for v in xs:
            acc += math.sin(v) * math.cos(v)
        acc += float(np.exp(_REF_A * _REF_X).sum())
    return (perf_counter() - start) / iterations


class HostProbe:
    """Samples the reference kernel around and during a timed interval;
    `probe` False keeps to the two brackets."""

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.samples: list[float] = []
        self.probe_s = 0.0

    def __enter__(self):
        self.samples.append(ref_iteration_s(BRACKET_ITERATIONS))
        if self.probe:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(ref_iteration_s(PROBE_ITERATIONS))
        self.probe_s += perf_counter() - start

    def __exit__(self, *exc):
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(ref_iteration_s(BRACKET_ITERATIONS))

    def corrected(self, wall: float) -> float:
        """`wall` (timed inside the block) as it would read uncontended."""
        return (wall - self.probe_s) * REF_ITERATION_S / statistics.fmean(self.samples)


@dataclass
class Call:
    ok: bool
    wall_s: float
    corrected_s: float
    exp_clamps: int
    result: CallResult


@dataclass
class Pass:
    calls: list[Call] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def corrected_s(self) -> float:
        return sum(c.corrected_s for c in self.calls)

    @property
    def ticks(self) -> int:
        return sum(c.result.ticks for c in self.calls)

    def fingerprint(self) -> dict:
        """Everything that must repeat exactly for a given seed."""
        results = [c.result for c in self.calls]
        fp = {"ticks": [r.ticks for r in results],
              "bytes_written": [r.bytes_written for r in results],
              "failed_units": [r.failed_units for r in results],
              "quality": [r.quality for r in results],
              "exp_clamps": [c.exp_clamps for c in self.calls]}
        if self.tracer is not None:
            fp["calls"] = self.tracer.call_counts()
            fp["counts"] = dict(self.tracer.counts)
        return fp


def write_config(run_dir: Path, config: dict) -> Path:
    path = run_dir / "config.json"
    path.write_text(json.dumps(config))
    return path


def setup(wl, seed: int, run_dir: Path) -> Path:
    """Stage the output directory, its fixture and the first call's config."""
    out = run_dir / "out"
    out.mkdir(parents=True)
    wl.stage(out)
    write_config(run_dir, wl.config(call_seed(seed, 0)))
    return out


def setup_seconds(run_py: Path, workload: str, seed: int, run_dir: Path):
    """Median (corrected, raw) wall of fresh processes that set up and stop."""
    walls = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(run_py), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(run_dir / f"setup{k}")]
        # brackets only: a probe would compete with the child for the CPU
        with HostProbe(probe=False) as host:
            start = perf_counter()
            # no timeout: with one, wait() polls in sleeps of up to 50 ms
            subprocess.run(cmd, check=True)
            wall = perf_counter() - start
        walls.append((host.corrected(wall), wall))
    return tuple(statistics.median(w) for w in zip(*walls))


def run_call(wl, config: dict, run_dir: Path, out: Path, tracer: Tracer | None) -> Call:
    """One timed CLI call, then its output checks, untimed and untraced."""
    argv = [wl.name, "--config", str(write_config(run_dir, config)), "--out", str(out)]
    staged = set(out.iterdir())
    mulnet.reset_exp_clamp_count()
    # no probes in traced calls: their time would land in the spans
    with HostProbe(probe=tracer is None) as host, \
            contextlib.redirect_stdout(io.StringIO()), (tracer or contextlib.nullcontext()):
        start = perf_counter()
        try:
            ok = cli_io.cli(argv) == 0  # looked up per call: the tracer wraps it
        except Exception:
            traceback.print_exc()
            ok = False
        wall = perf_counter() - start
    wall_corrected = host.corrected(wall)
    clamps = mulnet.exp_clamp_count()
    if ok:
        try:
            result = wl.check(out, config)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            result = CallResult(units=wl.units_per_call,
                                problems=[f"outputs unreadable: {exc!r}"])
    else:
        result = CallResult(units=wl.units_per_call, failed_units=wl.units_per_call)
    for path in set(out.iterdir()) - staged:
        path.unlink()
    return Call(ok, wall, wall_corrected, clamps, result)


def run_pass(wl, seed: int, run_dir: Path, out: Path, *, n_calls: int | None = None,
             seconds: float = 0.0, traced: bool = False) -> Pass:
    """Calls 0, 1, ... at `seed`: `n_calls` of them, or else as many as
    start before `seconds` of call wall have run."""
    p = Pass(tracer=Tracer() if traced else None)
    while (len(p.calls) < n_calls if n_calls is not None
           else not p.calls or p.wall_s < seconds):
        config = wl.config(call_seed(seed, len(p.calls)))
        p.calls.append(run_call(wl, config, run_dir, out, p.tracer))
    return p


def machine_facts(root: Path, thread_vars) -> dict:
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_dispatch_found": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD read from .git directly: the benchmark may not look outside its
    checkout, and a checkout made by export has no .git at all."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def result_metrics(root: Path, key: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under `key`, with their units;
    the computed set must match the declared set exactly."""
    spec = json.loads((root / "BENCHMARK.json").read_text())[key]
    declared = [m["name"] for m in spec]
    if set(declared) != set(values):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json {key}: "
                         f"missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def problems_of(passes: list[Pass]) -> list[str]:
    return [f"call {i}: {msg}" for p in passes
            for i, c in enumerate(p.calls) for msg in c.result.problems]


# measure() and trace() return (metric values, passes with the reported
# pass first, extra rows to print, failed output checks)


def measure(wl, seed: int, seconds: float, run_dir: Path, run_py: Path):
    setup_s, setup_wall_s = setup_seconds(run_py, wl.name, seed, run_dir)
    out = setup(wl, seed, run_dir)
    p = run_pass(wl, seed, run_dir, out, seconds=seconds)
    good = [c for c in p.calls if c.ok and not c.result.failed_units]
    rates = [c.result.ticks / c.corrected_s for c in good]
    values = {
        "setup_s": setup_s,
        "ticks_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{wl.name} seed {seed}: {len(p.calls)} calls of {wl.units_per_call} "
          f"units, {p.ticks} ticks in {p.wall_s:.3f} s of call wall")
    extra = {
        "setup_s.wall": (setup_wall_s, "s", "uncorrected"),
        "ticks_per_s.wall": (statistics.median([c.result.ticks / c.wall_s for c in good])
                             if good else 0.0, "1/s", "uncorrected"),
    }
    if len(rates) >= 4:
        q1, _, q3 = statistics.quantiles(rates, n=4)
        extra["ticks_per_s.call_spread"] = ((q3 - q1) / values["ticks_per_s"], "ratio",
                                            f"quartile distance over {len(rates)} calls")
    return values, [p], extra, problems_of([p])


def trace(wl, seed: int, run_dir: Path):
    out = setup(wl, seed, run_dir)
    n = wl.trace_calls
    # the untraced pass sits between the two traced passes it is compared with
    first = run_pass(wl, seed, run_dir, out, n_calls=n, traced=True)
    untraced = run_pass(wl, seed, run_dir, out, n_calls=n)
    passes = [first] + [run_pass(wl, s, run_dir, out, n_calls=n, traced=True)
                        for s in (seed, seed + 1, seed + 1)]
    problems = problems_of(passes + [untraced])
    for s, a, b in ((seed, passes[0], passes[1]), (seed + 1, passes[2], passes[3])):
        fa, fb = a.fingerprint(), b.fingerprint()
        diff = sorted(k for k in fa if fa[k] != fb[k])
        print(f"determinism at seed {s}: " + (f"DIFFERS in {diff}" if diff else "identical"))
        if diff:
            problems.append(f"two traced passes at seed {s} differ in {diff}")
    values = first.tracer.metrics(first.wall_s)
    values["ticks"] = first.ticks
    values["mulnet.exp_clamps"] = sum(c.exp_clamps for c in first.calls)
    values["cli_io.bytes_written"] = sum(c.result.bytes_written for c in first.calls)
    traced_rate = 2.0 * first.ticks / (first.corrected_s + passes[1].corrected_s)
    values["trace_overhead_frac"] = 1.0 - traced_rate * untraced.corrected_s / untraced.ticks
    print(f"{wl.name} seed {seed}: {n} calls of {wl.units_per_call} units, "
          f"{first.ticks} ticks; call wall {untraced.wall_s:.3f} s untraced, "
          f"{first.wall_s:.3f} s and {passes[1].wall_s:.3f} s traced")
    return values, passes + [untraced], {}, problems


def main(args, root: Path, thread_vars) -> int:
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        setup(wl, args.seed, Path(args.setup_only))
        return 0
    print("machine: " + json.dumps(machine_facts(root, thread_vars)))
    run_dir = root / RUN_DIR_NAME / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            values, passes, extra, problems = trace(wl, args.seed, run_dir)
        else:
            run_py = Path(__file__).resolve().parent / "run.py"
            values, passes, extra, problems = measure(wl, args.seed, args.seconds,
                                                      run_dir, run_py)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()  # only once no other run is using it
    metrics = result_metrics(root, "per_layer" if args.trace else "end_to_end", values)
    units = sum(c.result.units for p in passes for c in p.calls)
    failed = sum(c.result.failed_units for p in passes for c in p.calls)
    rows = {name: (m["value"], m["unit"], "") for name, m in metrics.items()}
    rows.update(extra)
    rows["failed_frac"] = (failed / units, "ratio", f"{failed} of {units} units")
    for name, value in passes[0].calls[0].result.quality.items():
        rows[name] = (value, QUALITY_UNITS[name], "call 0, exact for the seed")
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": units, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and not failed else 1
