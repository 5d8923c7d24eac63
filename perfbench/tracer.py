"""Per-layer spans for the traced benchmark run.

`Tracer` wraps grpleg's public functions in place, inside a ``with``
block: every grpleg module attribute that *is* one of the original
function objects (``grpleg.grp.forward``, ``grpleg.experiment.kinematics``,
``grpleg.target_controller.kinematics``, ...) is replaced by one timing
wrapper and restored on exit. Functions are wrapped where they are looked
up, so nothing under ``src/`` changes.

A span's self time is its duration minus the time of the spans it
directly encloses. Hooks that read counts off arguments and return values
run after the span closes and are charged to no layer, so their cost shows
as tracing overhead rather than as the caller's self time.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# module -> public functions traced; names follow the repository's modules
LAYERS = {
    "dynamics": ("kinematics", "integrate_step", "saturate"),
    "target_controller": ("control_step",),
    "mulnet": ("split_input", "forward_and_gradient", "net_forward", "sigmoid_head"),
    "grp": ("init", "forward", "learn_step_joint", "responsibility_reference",
            "end_episode"),
    "experiment": ("sample_tasks", "run_demo_episode", "train", "evaluate",
                   "sensor_matrix"),
    "cli_io": ("cli", "write_trajectory", "save_model", "load_model",
               "write_report"),
}
ROOT_SPAN = "cli_io.cli"

# Floating-point operations of one (8, 8) network in
# mulnet.forward_and_gradient, counted from its array expressions (the
# clamp compares are not counted): W * x (64 mul), off-diagonal mask
# (64 mul), eight 8-term row sums (56 add), 8 exp, x * row products
# (8 mul), diagonal * that (8 mul), gradient outer product (64 mul), sum of
# the terms (7 add).
FLOPS_PER_NET = 64 + 64 + 56 + 8 + 8 + 8 + 64 + 7

# A Generator layer-update whose reference responsibility is below this
# changes nothing: its gated rate r_RP * mu is zero to double precision.
GATED_OUT = 1e-12


def _percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if seconds else 0.0


class Tracer:
    """Spans and counts of one traced pass; enter it around each traced call."""

    def __init__(self):
        self.spans = {f"{layer}.{fn}": [0, 0.0, 0.0]  # calls, total_s, child_s
                      for layer, fns in LAYERS.items() for fn in fns}
        self.counts = defaultdict(int)
        self.demo_episode_s: list[float] = []
        self.episode_s: list[float] = []
        self._episode_ends = defaultdict(list)  # id(model) -> end times
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "dynamics.saturate": self._on_saturate,
            "grp.learn_step_joint": self._on_learn_step,
            "mulnet.forward_and_gradient": self._on_forward_and_gradient,
            "experiment.run_demo_episode": self._on_demo_episode,
            "grp.end_episode": self._on_end_episode,
        }

    def __enter__(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == "grpleg" or name.startswith("grpleg.")]
        for name in self.spans:
            layer, fn = name.split(".")
            original = getattr(sys.modules[f"grpleg.{layer}"], fn)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        self._stack.clear()
        # one episode = the interval between successive end_episode calls on
        # the same model; flushed per call because model ids get reused
        for ends in self._episode_ends.values():
            self.episode_s += [b - a for a, b in zip(ends, ends[1:])]
        self._episode_ends.clear()

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span[0] += 1
                span[1] += end - start
                span[2] += stack.pop()
                if stack:
                    stack[-1] += end - start
            if hook is not None:
                hook(args, out, end - start, end)
                if stack:
                    stack[-1] += perf_counter() - end
            return out

        return traced

    def _on_saturate(self, args, out, dur, end):
        tau_max = args[1].tau_max
        self.counts["saturate_outputs"] += 2
        self.counts["saturated"] += ((abs(out.tau_h) == tau_max)
                                     + (abs(out.tau_k) == tau_max))

    def _on_learn_step(self, args, out, dur, end):
        for record in out:
            self.counts["layer_updates"] += record.r_RP.size
            self.counts["gated_out"] += int(np.count_nonzero(record.r_RP < GATED_OUT))

    def _on_forward_and_gradient(self, args, out, dur, end):
        self.counts["nets"] += np.size(args[0]) // 64

    def _on_demo_episode(self, args, out, dur, end):
        self.demo_episode_s.append(dur)

    def _on_end_episode(self, args, out, dur, end):
        self._episode_ends[id(args[0])].append(end)

    def call_counts(self) -> dict[str, int]:
        return {name: span[0] for name, span in self.spans.items()}

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass; `wall_s` is the traced call wall."""
        out: dict[str, float] = {}
        covered = 0.0
        for name, (calls, total, child) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = total - child
            out[f"{name}.us_per_call"] = 1e6 * total / calls if calls else 0.0
            if name != ROOT_SPAN:
                covered += total - child
        c = self.counts
        out["trace.self_covered_frac"] = covered / wall_s
        out["grp.gated_out_frac"] = (c["gated_out"] / c["layer_updates"]
                                     if c["layer_updates"] else 0.0)
        out["dynamics.saturated_frac"] = (c["saturated"] / c["saturate_outputs"]
                                          if c["saturate_outputs"] else 0.0)
        fg_calls = self.spans["mulnet.forward_and_gradient"][0]
        out["mulnet.forward_and_gradient.flops_computed"] = (
            FLOPS_PER_NET * c["nets"] / fg_calls if fg_calls else 0.0)
        out["experiment.run_demo_episode.ms_p50"] = _percentile_ms(self.demo_episode_s, 50)
        out["experiment.run_demo_episode.ms_p90"] = _percentile_ms(self.demo_episode_s, 90)
        out["train.episode_ms_p50"] = _percentile_ms(self.episode_s, 50)
        out["train.episode_ms_p90"] = _percentile_ms(self.episode_s, 90)
        return out
