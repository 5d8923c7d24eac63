"""Command line surface, run configuration, and on-disk formats.

JSON carries configs, models, and evaluation reports; trajectories go to
CSV with 17 significant digits so every double survives a round trip.
Writers are deterministic (fixed key order, no timestamps): identical
config and seeds give byte-identical files. Angles are radians everywhere
except evaluation reports, which speak degrees.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import json
import math
import re
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import NonFiniteError, grp, mulnet
from .dynamics import LegParams
from .experiment import (
    ACTIVE_PI,
    FIXED_COLUMNS,
    EvalReport,
    SampleRanges,
    Trajectory,
    evaluate,
    run_demo_episode,
    sample_tasks,
    train,
    weight_summary,
)
from .grp import GrpConfig, GrpModel
from .target_controller import ControllerGains

MODEL_FORMAT = 1

# Learning rates here are swing-tuned, not the generic unit-scale module
# defaults: reference torques reach +-60 N*m, so Generator steps must be
# ~1000x smaller than the RP steps that track responsibilities in [0, 1].
DEFAULT_HIP = GrpConfig(m=1, mu=1e-6, mu_rp=1e-2, beta=1.01)
DEFAULT_KNEE = GrpConfig(m=3, mu=1e-6, mu_rp=1e-2, beta=1.01)

# Most plant steps one swing may take: a model-driven swing that never lands
# runs until its timeout, one trajectory row per step.
MAX_SWING_STEPS = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: physics, controller gains, task ranges,
    one GRP config per joint, and the protocol sizes/seeds."""

    params: LegParams = LegParams()
    gains: ControllerGains = ControllerGains()
    ranges: SampleRanges = SampleRanges()
    hip: GrpConfig = DEFAULT_HIP
    knee: GrpConfig = DEFAULT_KNEE
    dt: float = 1e-3
    timeout: float = 2.0
    # 40 cyclic passes over the 40-demo corpus.  Longer runs keep improving
    # the on-demo fit but degrade reference-free landings: the exponential
    # nets extrapolate poorly once gamma has split the layers too finely.
    episodes: int = 1600
    demo_count: int = 40
    eval_count: int = 20
    demo_seed: int = 1
    eval_seed: int = 2

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.timeout > self.dt:
            raise ValueError(f"timeout {self.timeout} not beyond one step")
        if not self.timeout / self.dt <= MAX_SWING_STEPS:
            raise ValueError(f"timeout {self.timeout} is more than "
                             f"{MAX_SWING_STEPS} steps of dt {self.dt}")
        for name, low in (("episodes", 1), ("demo_count", 1), ("eval_count", 1),
                          ("demo_seed", 0), ("eval_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def _object(data, allowed, where: str, noun: str) -> dict:
    """`data`, if it is a JSON object with no key outside `allowed` (any
    key when `allowed` is None); an unknown key is named an unknown `noun`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where[:-1] or 'top level'} must be an object, got {data!r}")
    unknown = [] if allowed is None else sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {noun} '{where}{unknown[0]}'")
    return data


def _record(data, keys, where: str) -> dict:
    """`data`, if it is a JSON object with exactly the keys `keys`."""
    _object(data, keys, where, "key")
    for key in keys:
        if key not in data:
            raise ValueError(f"{where[:-1] or 'top level'} missing key '{key}'")
    return data


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(value, key: str) -> int:
    """A JSON integer, not coerced; the error names the dotted `key`."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _bool(value, key: str) -> bool:
    """A JSON true or false, not coerced."""
    if type(value) is not bool:
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _float(value, key: str) -> float:
    """A finite JSON number (not a bool, a string or a huge integer) as a float."""
    if not _is_number(value):
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


def _value(tp, value, key: str, base):
    if tp is int:
        return _int(value, key)
    if tp is float:
        return _float(value, key)
    if tp == float | None:
        return None if value is None else _float(value, key)
    if tp == tuple[float, float]:
        if not isinstance(value, list) or len(value) != 2:
            raise ValueError(f"config key '{key}' must be a [lo, hi] pair")
        return (_float(value[0], f"{key}[0]"), _float(value[1], f"{key}[1]"))
    return _from_json(tp, value, key + ".", base)


def _from_json(cls, data, where: str = "", base=None):
    """A config dataclass from its JSON form, each value checked against
    its field's type. Keys not present keep `base`'s value (or the field
    default); every error names the dotted key, or for the dataclass's own
    check, the section."""
    fields = _fields(cls)
    _object(data, [key for _, key, _, _ in fields], where, "config key")
    kwargs = {}
    for name, key, tp, default in fields:
        current = default if base is None else getattr(base, name)
        if key in data:
            kwargs[name] = _value(tp, data[key], where + key, current)
        elif current is dataclasses.MISSING:
            raise ValueError(f"missing config key '{where}{key}'")
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except ValueError as exc:
        if not where:  # the dataclass's own check names a field, not its section
            raise
        raise ValueError(f"{where[:-1]}: {exc}") from None


def _to_json(obj):
    """The JSON form of a config dataclass (keys in declaration order) or
    of one of its field values."""
    if isinstance(obj, tuple):
        return list(obj)
    if not dataclasses.is_dataclass(obj):
        return obj
    return {key: _to_json(getattr(obj, name)) for name, key, _, _ in _fields(type(obj))}


# The entry points: every config file and model `config` goes through the walker.
grp_config_to_dict = run_config_to_dict = _to_json
grp_config_from_dict = functools.partial(_from_json, GrpConfig)
run_config_from_dict = functools.partial(_from_json, RunConfig)


def _dump_json(path, data) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _parse_file(parse, path):
    """`parse` applied to the JSON value in the file at `path`; a
    ValueError it raises, a top level that is not an object included,
    names the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} line {exc.lineno} column {exc.colno}: "
                             f"{exc.msg}") from None
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_run_config(path) -> RunConfig:
    return _parse_file(run_config_from_dict, path)


def save_run_config(path, config: RunConfig) -> None:
    _dump_json(path, run_config_to_dict(config))


def model_to_dict(model: GrpModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "config": grp_config_to_dict(model.config),
        "gamma": model.gamma,
        "episode_count": model.episode_count,
        "layers": [{"W": W.tolist(), "R": R.tolist()}
                   for W, R in zip(model.W, model.R)],
    }


_MODEL_KEYS = ("format", "config", "gamma", "episode_count", "layers")


def _matrix(value, key: str) -> np.ndarray:
    """NET_DIM lists of NET_DIM finite JSON numbers, as an array."""
    n = mulnet.NET_DIM
    if not (isinstance(value, list) and len(value) == n
            and all(isinstance(row, list) and len(row) == n for row in value)):
        raise ValueError(f"{key} must have shape ({n}, {n}): {n} lists of {n} numbers")
    return np.array([[_float(v, key) for v in row] for row in value])


def model_from_dict(data: dict) -> GrpModel:
    _record(data, _MODEL_KEYS, "")
    if _int(data["format"], "format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {data['format']!r}")
    config = _from_json(GrpConfig, data["config"], "config.")
    layers = _list(data["layers"], "layers")
    if len(layers) != config.m:
        raise ValueError(f"model has {len(layers)} layers but config.m = {config.m}")
    W = np.empty((config.m, mulnet.NET_DIM, mulnet.NET_DIM))
    R = np.empty_like(W)
    for k, entry in enumerate(layers):
        _record(entry, ("W", "R"), f"layers[{k}].")
        W[k] = _matrix(entry["W"], f"layers[{k}].W")
        R[k] = _matrix(entry["R"], f"layers[{k}].R")
    gamma = data["gamma"]
    if not (_is_number(gamma) and 0.0 < gamma < math.inf):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    episode_count = _int(data["episode_count"], "episode_count")
    if episode_count < 0:
        raise ValueError(f"episode_count must be >= 0, got {episode_count}")
    return GrpModel(W=W, R=R, gamma=_float(gamma, "gamma"), config=config,
                    episode_count=episode_count)


def save_model(path, model: GrpModel) -> None:
    _dump_json(path, model_to_dict(model))


def load_model(path) -> GrpModel:
    return _parse_file(model_from_dict, path)


def trace_columns(model_name: str, m: int) -> list[str]:
    """The trace columns of one model with m layers, in file order: G of
    layers 1 to m, then pi of layers 1 to m, the blocks grp.forward gives."""
    return [f"{model_name}_{f}_{k}" for f in ("G", "pi") for k in range(1, m + 1)]


def _header(models) -> list[str]:
    """A trajectory file's columns for the (name, m) pairs `models`."""
    return [*FIXED_COLUMNS, *(c for name, m in models for c in trace_columns(name, m))]


def write_trajectory(path, traj: Trajectory) -> None:
    """`traj`'s table as a CSV: its header, then one line per table row."""
    header = _header(traj.models)
    # '%.17g' % x is f"{x:.17g}" for every double, nan, inf and -0 included
    row = ",".join(["%.17g"] * 10 + ["%d", "%d"] + ["%.17g"] * (len(header) - 12)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([row % tuple(r) for r in traj.table.tolist()]))


def read_trajectory(path) -> Trajectory:
    """A trajectory file as write_trajectory writes it. The header must be
    FIXED_COLUMNS, then trace_columns(name, m) for each model in turn, each
    name one or more word characters and used by one block only."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trajectory file")
    header = lines[0].split(",")
    # (name, m) per model in the order of first appearance, word-character names only
    names = [col.rsplit("_", 2)[0] for col in header[len(FIXED_COLUMNS):]]
    models = {name: n // 2 for name, n in collections.Counter(names).items()
              if re.fullmatch(r"\w+", name)}
    expected = _header(models.items())
    if header != expected:
        j = next(j for j, (a, b) in enumerate(zip(header + [None], expected + [None]))
                 if a != b)
        raise ValueError(f"{path} line 1: bad trajectory header from column {j + 1}: "
                         f"got {','.join(header[j:])!r}, expected {','.join(expected[j:])!r}")
    width = len(header)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path} line {lineno}: expected {width} fields, "
                             f"got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path} line {lineno}: unparseable value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows)
    # plant values are finite when written; a trace's G may overflow to inf
    bad = np.argwhere(~np.isfinite(data[:, :10]))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path} line {i + 2}: {FIXED_COLUMNS[j]} must be finite, "
                         f"got {data[i, j]:g}")
    for j, allowed in ((10, (1, 2, 3)), (11, (0, 1))):
        bad = np.flatnonzero(~np.isin(data[:, j], allowed))
        if bad.size:
            raise ValueError(f"{path} line {bad[0] + 2}: {FIXED_COLUMNS[j]} must be one of "
                             f"{allowed}, got {data[bad[0], j]:g}")
    return Trajectory(data, models.items())


_REPORT_KEYS = ("trajectories", "avg_error_deg", "max_error_deg",
                "timeout_count", "active_generators", "peak_pi")
_SWING_KEYS = ("alpha_tgt_deg", "alpha_end_deg", "error_deg", "timed_out")


def report_to_dict(report: EvalReport) -> dict:
    # one record per swing, its keys named as the EvalReport columns they come from
    columns = zip(*(getattr(report, key).tolist() for key in _SWING_KEYS))
    return {
        "trajectories": [dict(zip(_SWING_KEYS, swing)) for swing in columns],
        "avg_error_deg": report.avg_error_deg,
        "max_error_deg": report.max_error_deg,
        "timeout_count": report.timeout_count,
        "active_generators": report.active_generators,
        "peak_pi": {name: [float(x) for x in peaks]
                    for name, peaks in report.peak_pi.items()},
    }


def report_from_dict(data: dict) -> EvalReport:
    _record(data, _REPORT_KEYS, "")
    swings = [_record(entry, _SWING_KEYS, f"trajectories[{i}].")
              for i, entry in enumerate(_list(data["trajectories"], "trajectories"))]

    def column(key, parse=_float):
        return np.array([parse(entry[key], f"trajectories[{i}].{key}")
                         for i, entry in enumerate(swings)])

    alpha_tgt, alpha_end, error_deg = (column(key) for key in _SWING_KEYS[:3])
    timed_out = column("timed_out", _bool)
    if not swings:
        raise ValueError("trajectories must not be empty")
    peak_pi = {k: np.array([_float(p, f"peak_pi.{k}") for p in _list(v, f"peak_pi.{k}")])
               for k, v in _object(data["peak_pi"], None, "peak_pi.", "key").items()}
    report = EvalReport(alpha_tgt, alpha_end, timed_out, peak_pi)
    # the writer derives every other value from the same doubles, so each matches exactly
    for i, (got, want) in enumerate(zip(error_deg.tolist(), report.error_deg.tolist())):
        if got != want:
            raise ValueError(f"trajectories[{i}].error_deg is {got!r} "
                             f"but its angles give {want!r}")
    for key, parse in (("avg_error_deg", _float), ("max_error_deg", _float),
                       ("timeout_count", _int)):
        if parse(data[key], key) != getattr(report, key):
            raise ValueError(f"{key} is {data[key]!r} but the trajectories "
                             f"give {getattr(report, key)!r}")
    # one count per model of peak_pi, each the one its peaks give
    generators = _record(data["active_generators"], list(peak_pi), "active_generators.")
    for k, want in report.active_generators.items():
        got = _int(generators[k], f"active_generators.{k}")
        if got != want:
            raise ValueError(f"active_generators.{k} is {got} but peak_pi.{k} "
                             f"gives {want} (peaks above {ACTIVE_PI})")
    return report


def write_report(path, report: EvalReport) -> None:
    _dump_json(path, report_to_dict(report))


def read_report(path) -> EvalReport:
    return _parse_file(report_from_dict, path)


def train_log_to_dict(hip_log: np.ndarray, knee_log: np.ndarray) -> dict:
    """The hip and knee blocks `train` returns, as `train_log.json` holds them."""
    return {"hip_mean_abs_e": hip_log.tolist(), "knee_mean_abs_e": knee_log.tolist()}


# --- command line -----------------------------------------------------------


def _config_from_args(args) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "episodes", None) is not None:
        config = replace(config, episodes=args.episodes)
    if getattr(args, "layers", None) is not None:
        config = replace(config, knee=replace(config.knee, m=args.layers))
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_demo(args) -> int:
    config = _config_from_args(args)
    n = args.n if args.n is not None else config.demo_count
    seed = args.seed if args.seed is not None else config.demo_seed
    out = _out_dir(args)
    tasks = sample_tasks(config.ranges, n, seed, config.gains, config.params)
    files, trajs = [], []
    for i, (task, init) in enumerate(tasks, start=1):
        trajs.append(run_demo_episode(task, init, config.gains, config.params,
                                      config.dt, config.timeout))
        files.append(f"demo_{i:03d}.csv")
        write_trajectory(out / files[-1], trajs[-1])
    report = EvalReport.from_swings(trajs)
    _dump_json(out / "manifest.json", {
        "count": n,
        "seed": seed,
        "files": files,
        "alpha_tgt_deg": report.alpha_tgt_deg.tolist(),
        "alpha_end_deg": report.alpha_end_deg.tolist(),
        "error_deg": report.error_deg.tolist(),
        "avg_error_deg": report.avg_error_deg,
        "max_error_deg": report.max_error_deg,
    })
    print(f"wrote {n} demonstrations to {out}: landing error "
          f"avg {report.avg_error_deg:.2f} deg, max {report.max_error_deg:.2f} deg")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    if args.seed is not None:
        config = replace(config,
                         hip=replace(config.hip, seed=args.seed),
                         knee=replace(config.knee, seed=args.seed))
    out = _out_dir(args)
    models = []
    for name in ("hip", "knee"):
        cfg = getattr(config, name)
        try:
            models.append(grp.init(cfg))
        except (MemoryError, ValueError) as exc:  # numpy's, for a size it cannot allocate
            raise ValueError(f"{name}: m = {cfg.m} layers do not fit in memory ({exc})") from None
    hip, knee = models
    # only the first `episodes` demos are trained on; sample_tasks' first k do not depend on n
    tasks = sample_tasks(config.ranges, min(config.episodes, config.demo_count),
                         config.demo_seed, config.gains, config.params)
    demos = [run_demo_episode(task, init, config.gains, config.params,
                              config.dt, config.timeout)
             for task, init in tasks]
    hip_log, knee_log = train([(hip, "tau_h"), (knee, "tau_k")], demos, config.episodes)
    save_model(out / "hip.json", hip)
    save_model(out / "knee.json", knee)
    _dump_json(out / "train_log.json", train_log_to_dict(hip_log, knee_log))
    print(f"trained {config.episodes} episodes on {len(demos)} demonstrations; "
          f"final mean |e_G| hip {hip_log[-1].min():.3f}, "
          f"knee {knee_log[-1].min():.3f}")
    return 0


def _load_model_pair(out: Path) -> tuple[GrpModel, GrpModel]:
    for name in ("hip.json", "knee.json"):
        if not (out / name).exists():
            raise ValueError(f"no model file at {out / name} (run train first)")
    return load_model(out / "hip.json"), load_model(out / "knee.json")


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    n = args.n if args.n is not None else config.eval_count
    seed = args.seed if args.seed is not None else config.eval_seed
    out = Path(args.out)
    hip, knee = _load_model_pair(out)
    tasks = sample_tasks(config.ranges, n, seed, config.gains, config.params)
    report, trajs = evaluate(hip, knee, tasks, config.gains, config.params,
                             config.dt, config.timeout)
    for i, traj in enumerate(trajs, start=1):
        write_trajectory(out / f"eval_{i:03d}.csv", traj)
    write_report(out / "report.json", report)
    print(f"evaluated {n} swings: landing error avg "
          f"{report.avg_error_deg:.2f} deg, max {report.max_error_deg:.2f} deg, "
          f"{report.timeout_count} timeouts")
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(100):
        W = rng.uniform(-0.2, 0.2, size=(mulnet.NET_DIM, mulnet.NET_DIM))
        raw = np.array([rng.uniform(-1.0, 1.0),
                        rng.uniform(2.0, 3.9),
                        rng.uniform(-2.0, 2.0),
                        rng.uniform(2.0, 3.9),
                        rng.uniform(-2.0, 2.0)])
        worst = max(worst, mulnet.finite_difference_check(W, mulnet.split_input(raw)))
    print(f"max relative error vs central differences: {worst:.3e}")
    return 0 if worst < 1e-6 else 1


def _cmd_dump_weights(args) -> int:
    out = Path(args.out)
    summary = {}
    for name, model in zip(("hip", "knee"), _load_model_pair(out)):
        try:
            summary[name] = weight_summary(model)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    _dump_json(out / "weights.json", summary)
    for name, entry in summary.items():
        norms = ", ".join(f"{ly['W_norm']:.3f}/{ly['R_norm']:.3f}"
                          for ly in entry["layers"])
        print(f"{name}: m={entry['m']} gamma={entry['gamma']:.3g} "
              f"W/R norms per layer: {norms}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpleg",
        description="Swing-leg demonstrations, GRP training, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def at_least(low: int):
        """An integer flag's type refusing values below `low`, so argparse names the flag."""
        def integer(text: str) -> int:
            if int(text) < low:
                raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
            return int(text)
        return integer

    seed, count = at_least(0), at_least(1)

    def common(p, n_help=None):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=seed, help="override the relevant seed")
        if n_help:
            p.add_argument("--n", type=count, help=n_help)

    p = sub.add_parser("demo", help="generate demonstration trajectories")
    common(p, "number of demonstrations")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("train", help="train hip and knee GRP models")
    common(p)
    p.add_argument("--layers", type=count, help="knee layer count (hip stays 1)")
    p.add_argument("--episodes", type=count, help="training episodes")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="run trained models without references")
    common(p, "number of evaluation swings")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="network gradients vs central differences")
    p.add_argument("--seed", type=seed, default=0, help="instance RNG seed")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("dump-weights", help="per-layer weight summary")
    p.add_argument("--out", default="out", help="directory holding the models")
    p.set_defaults(func=_cmd_dump_weights)
    return parser


def cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
