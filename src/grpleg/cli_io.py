"""Command line surface and on-disk formats.

JSON carries configs, models, evaluation reports and weight summaries (whose
layers are the model file's); trajectories go to UTF-8 CSV with 17
significant digits so every double survives a round trip. A model file, a
report or a trajectory is refused unless its writer would write it back.
Writers are deterministic (fixed key order, no timestamps): identical config
and seeds give byte-identical files. A config file is read through the
package's one field rule, the one each config dataclass and a model check
themselves by, types and bounds, so a config's float field holds a float and
is written as one. A run command's flags are config keys (FLAGS), read by
the same walker over --config's values, so the CLI holds no bound of its
own. A JSON value's kind (object, list, float, integer or bool) is checked
by the package's _kind alone, in the writer's words. Angles are radians
everywhere except evaluation reports, which speak degrees.
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
from array import array
from pathlib import Path

import numpy as np

from . import NonFiniteError, _fields, _float, _kind, grp, mulnet, uniform_stream
from .experiment import (
    DEFAULT_HIP,  # this and DEFAULT_KNEE are unused here: perfbench reads them as cli_io's
    DEFAULT_KNEE,
    FIXED_COLUMNS,
    MODEL_NAME,
    EvalReport,
    RunConfig,
    Trajectory,
    demo_swings,
    evaluate,
    sample_tasks,
    train,
)
from .grp import GrpConfig, GrpModel

MODEL_FORMAT = 1


def _object(data, allowed, where: str, noun: str) -> dict:
    """`data`, if it is a JSON object with no key outside `allowed` (any
    key when `allowed` is None); an unknown key is named an unknown `noun`."""
    _kind(data, dict, where[:-1])
    unknown = [] if allowed is None else sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {noun} '{where}{unknown[0]}'")
    return data


def _record(data, keys, where: str, others: bool = False) -> dict:
    """`data`, if it is a JSON object with the keys `keys`, and no other unless `others`."""
    _object(data, None if others else keys, where, "key")
    for key in keys:
        if key not in data:
            raise ValueError(f"{where[:-1] or 'top level'} missing key '{key}'")
    return data


def _from_json(cls, data, where: str = "", base=None):
    """A config dataclass from its JSON form: each section walked in turn, each
    other value handed to the dataclass, whose own check types and bounds it.
    Keys not present keep `base`'s value (or the field default). An unknown or
    missing key names the dotted key; the dataclass's refusal, its section."""
    fields = _fields(cls)
    _object(data, [key for _, key, _, _ in fields], where, "config key")
    kwargs = {}
    for name, key, tp, default in fields:
        current = default if base is None else getattr(base, name)
        if key in data:
            kwargs[name] = (_from_json(tp, data[key], f"{where}{key}.", current)
                            if dataclasses.is_dataclass(tp) else data[key])
        elif current is dataclasses.MISSING:
            raise ValueError(f"missing config key '{where}{key}'")
    try:
        return cls(**kwargs) if base is None else dataclasses.replace(base, **kwargs)
    except ValueError as exc:
        if not where:  # the dataclass's own check names a field, not its section
            raise
        raise ValueError(f"{where[:-1]}: {exc}") from None


def _to_json(obj):
    """The JSON form of a config dataclass (keys in declaration order) or
    of one of its field values. A float field holds a float from
    construction, so only a pair changes form: it is written as a list."""
    if dataclasses.is_dataclass(obj):
        return {key: _to_json(getattr(obj, name)) for name, key, _, _ in _fields(type(obj))}
    return list(obj) if isinstance(obj, tuple) else obj


# The entry points: every config file and model `config` goes through the walker.
grp_config_to_dict = run_config_to_dict = _to_json
grp_config_from_dict = functools.partial(_from_json, GrpConfig)
run_config_from_dict = functools.partial(_from_json, RunConfig)


def _dump_json(path, data) -> None:
    """`data` as indented JSON, serialized whole before the file is opened, so
    a value JSON refuses leaves no file and an existing one its bytes."""
    text = json.dumps(data, indent=2, allow_nan=False) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key given twice is refused."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {key!r} is given twice in one object")
        data[key] = value
    return data


def _parse_file(parse, path):
    """`parse` applied to the JSON value in the file at `path`. Text that
    is not UTF-8 JSON, a key given twice in one object, nesting too deep to
    parse, an integer too long to convert, and a ValueError `parse` raises,
    a top level that is not an object included, name the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} line {exc.lineno} column {exc.colno}: "
                             f"{exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_run_config(path) -> RunConfig:
    return _parse_file(run_config_from_dict, path)


def save_run_config(path, config: RunConfig) -> None:
    _dump_json(path, run_config_to_dict(config))


def model_to_dict(model: GrpModel) -> dict:
    model.check()  # so no file is written that load_model refuses
    return {
        "format": MODEL_FORMAT,
        "config": grp_config_to_dict(model.config),
        "gamma": float(model.gamma),  # a fresh model's is its config's gamma0
        "episode_count": model.episode_count,
        "layers": [{"W": W.tolist(), "R": R.tolist()}
                   for W, R in zip(model.W, model.R)],
    }


def _matrix(value, key: str) -> np.ndarray:
    """NET_DIM lists of NET_DIM finite JSON numbers, as an array."""
    n = mulnet.NET_DIM
    if not (isinstance(value, list) and len(value) == n
            and all(isinstance(row, list) and len(row) == n for row in value)):
        raise ValueError(f"{key} must have shape ({n}, {n}): {n} lists of {n} numbers")
    return np.array([[_float(v, key) for v in row] for row in value])


def model_from_dict(data: dict) -> GrpModel:
    """The model of `data`, parsed from what a model is made of, its config,
    layers, gamma and episode count; `data` is refused unless model_to_dict
    writes it back, so its format and every config key are the writer's."""
    _record(data, ("config", "layers", "gamma", "episode_count"), "", others=True)
    config = _from_json(GrpConfig, data["config"], "config.")
    layers = _kind(data["layers"], list, "layers")
    W, R = np.empty((2, len(layers), mulnet.NET_DIM, mulnet.NET_DIM))
    for k, entry in enumerate(layers):
        _record(entry, ("W", "R"), f"layers[{k}].")
        W[k], R[k] = (_matrix(entry[name], f"layers[{k}].{name}") for name in ("W", "R"))
    model = GrpModel(W=W, R=R, gamma=data["gamma"], config=config,
                     episode_count=data["episode_count"])
    _written_back(data, model_to_dict(model), "a model is written with")
    return model


def save_model(path, model: GrpModel) -> None:
    _dump_json(path, model_to_dict(model))


def load_model(path) -> GrpModel:
    return _parse_file(model_from_dict, path)


def _norm(rows: list, key: str) -> float:
    """The Frobenius norm of a matrix's rows, with no square to overflow
    (math.hypot); one beyond the largest double raises ValueError naming `key`."""
    norm = math.hypot(*(v for row in rows for v in row))
    if norm == math.inf:
        raise ValueError(f"{key} norm exceeds the largest double")
    return norm


def weight_summary(model: GrpModel) -> dict:
    """dump-weights' summary of a model, each layer the model file's with its W and
    R norms first. A layer whose W norm is near zero never acts: a passive pair."""
    return {"m": model.m, "gamma": float(model.gamma), "episode_count": model.episode_count,
            "layers": [{"W_norm": _norm(ly["W"], f"layers[{k}].W"),
                        "R_norm": _norm(ly["R"], f"layers[{k}].R"), **ly}
                       for k, ly in enumerate(model_to_dict(model)["layers"])]}


def trace_columns(model_name: str, m: int) -> list[str]:
    """The trace columns of one model with m layers, in file order: G of
    layers 1 to m, then pi of layers 1 to m, the blocks grp.forward gives."""
    return [f"{model_name}_{f}_{k}" for f in ("G", "pi") for k in range(1, m + 1)]


# The format write_trajectory writes each fixed column in, and each trace column in _DOUBLE.
_DOUBLE = "%.17g"
COLUMN_FORMATS = dict(zip(FIXED_COLUMNS, [_DOUBLE] * 10 + ["%d"] * 2))


def _columns(models) -> dict[str, str]:
    """A trajectory file's columns for the (name, m) pairs `models`, each with its format."""
    return {**COLUMN_FORMATS, **{c: _DOUBLE for name, m in models for c in trace_columns(name, m)}}


def _row_values(path, lineno: int, row: str, columns: dict[str, str]) -> list[float]:
    """The values of `row`, line `lineno` of `path`, as a row of `columns`. Refused,
    naming the line: a \\r in it, its field count, or else its first field whose
    format does not give back its text, or whose plant value is not finite."""
    fields = row.split(",")
    if "\r" in row:
        cr = next(j for j, text in enumerate(fields, 1) if "\r" in text)
        raise ValueError(f"{path} line {lineno} column {cr}: a \\r not ending the line")
    if len(fields) != len(columns):
        raise ValueError(f"{path} line {lineno}: expected {len(columns)} fields, "
                         f"got {len(fields)}")
    values = []  # not a tuple: CPython keeps each freed row tuple on a free list
    for j, ((name, fmt), text) in enumerate(zip(columns.items(), fields)):
        try:
            back = fmt % (value := float(text))
        except (ValueError, OverflowError):  # no float, or '%d' of nan or inf
            fault = f"which {fmt!r} never writes"
        else:
            if back == text and (j >= 10 or math.isfinite(value)):
                values.append(value)
                continue
            fault = (f"but {fmt!r} writes {value!r} as {back!r}" if back != text
                     else "expected a finite double")
        raise ValueError(f"{path} line {lineno} column {j + 1} ({name}): got {text!r}, {fault}")
    return values


# Rows write_trajectory formats per write, so no swing is held whole as text.
WRITE_BLOCK_ROWS = 128


def write_trajectory(path, traj: Trajectory) -> None:
    """`traj`'s table as a UTF-8 CSV: its header, then one line per table row,
    WRITE_BLOCK_ROWS rows per `%` and write, over a flat tuple of their values."""
    columns = _columns(traj.models)
    row = ",".join(columns.values()) + "\n"
    table = traj.table
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), WRITE_BLOCK_ROWS):
            block = table[start:start + WRITE_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_trajectory(path) -> Trajectory:
    """A trajectory file as write_trajectory writes it. The header must be
    FIXED_COLUMNS, then trace_columns(name, m) for each model in turn, each name
    one or more word characters and used by one block only. Lines end in \\n or
    \\r\\n, the last maybe in neither. Each row is read by _row_values in one pass
    into one packed array('d') the table views, so the first fault in file order
    is refused, naming line and column (a byte not UTF-8 is text no format
    writes); Trajectory refuses a bad phase or contact."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty trajectory file")
        if "\r" in (header := header.removesuffix("\r\n").removesuffix("\n")):
            _row_values(path, 1, header, {})  # refuses it, as lone \r line ends run into line 1
        header = header.split(",")
        # (name, m) per model in the order of first appearance, word-character names only
        names = [col.rsplit("_", 2)[0] for col in header[len(FIXED_COLUMNS):]]
        models = {name: n // 2 for name, n in collections.Counter(names).items()
                  if MODEL_NAME.fullmatch(name)}
        columns = _columns(models.items())
        if header != (expected := list(columns)):
            j = next(j for j, (a, b) in enumerate(zip(header + [None], expected + [None]))
                     if a != b)
            raise ValueError(f"{path} line 1: bad trajectory header from column {j + 1}: "
                             f"got {','.join(header[j:])!r}, "
                             f"expected {','.join(expected[j:])!r}")
        buf = array("d")
        for lineno, line in enumerate(fh, start=2):
            row = line.removesuffix("\r\n").removesuffix("\n")
            buf.extend(_row_values(path, lineno, row, columns))
    if not buf:
        raise ValueError(f"{path}: no data rows")
    try:
        return Trajectory(np.frombuffer(buf).reshape(-1, len(header)), models.items())
    except ValueError as exc:  # a phase or contact code
        raise ValueError(f"{path}: {exc}") from None


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


def _written_back(got, want, source: str, key: str = "") -> None:
    """Refuse `got`, a file's value at the dotted `key`, unless it is `want`,
    what the writer writes there, type included, naming the first key that
    differs (`key is got but {source} want`); keys are checked as _record does."""
    _kind(got, type(want), key)
    if isinstance(want, dict):
        _record(got, list(want), f"{key}." if key else "")
        for k, value in want.items():
            _written_back(got[k], value, source, f"{key}.{k}" if key else k)
    elif isinstance(want, list) and len(got) == len(want):
        for i, (item, value) in enumerate(zip(got, want)):
            _written_back(item, value, source, f"{key}[{i}]")
    elif isinstance(got, float) and not math.isfinite(got):
        raise ValueError(f"{key} has non-finite value {got!r}")
    elif got != want:
        raise ValueError(f"{key} is {got!r} but {source} {want!r}")


def report_from_dict(data: dict) -> EvalReport:
    """The report of `data`, parsed from what a report is made of, each
    swing's angles and timeout and peak_pi; every other value is derived,
    so `data` is refused unless report_to_dict writes it back."""
    _record(data, ("trajectories", "peak_pi"), "", others=True)
    swings = [_record(entry, _SWING_KEYS, f"trajectories[{i}].")
              for i, entry in enumerate(_kind(data["trajectories"], list, "trajectories"))]
    alpha_tgt, alpha_end, timed_out = (
        np.array([parse(entry[key], f"trajectories[{i}].{key}") for i, entry in enumerate(swings)])
        for key, parse in (("alpha_tgt_deg", _float), ("alpha_end_deg", _float),
                           ("timed_out", lambda v, k: _kind(v, bool, k))))
    if not swings:
        raise ValueError("trajectories must not be empty")
    peak_pi = {k: np.array([_float(p, f"peak_pi.{k}") for p in _kind(v, list, f"peak_pi.{k}")])
               for k, v in _object(data["peak_pi"], None, "peak_pi.", "key").items()}
    report = EvalReport(alpha_tgt, alpha_end, timed_out, peak_pi)
    with np.errstate(over="ignore"):  # an error beyond the largest double is refused as inf
        _written_back(data, report_to_dict(report), "the trajectories and peak_pi give")
    return report


def write_report(path, report: EvalReport) -> None:
    _dump_json(path, report_to_dict(report))


def read_report(path) -> EvalReport:
    return _parse_file(report_from_dict, path)


def train_log_to_dict(hip_log: np.ndarray, knee_log: np.ndarray) -> dict:
    """The hip and knee blocks `train` returns, as `train_log.json` holds them."""
    return {"hip_mean_abs_e": hip_log.tolist(), "knee_mean_abs_e": knee_log.tolist()}


# --- command line -----------------------------------------------------------


# Per run command, each flag and the dotted config keys it sets.
FLAGS = {
    "demo": {"--seed": ("demo_seed",), "--n": ("demo_count",)},
    "train": {"--seed": ("hip.seed", "knee.seed"), "--layers": ("knee.m",),
              "--episodes": ("episodes",)},
    "eval": {"--seed": ("eval_seed",), "--n": ("eval_count",)},
}


def _config_from_args(args) -> RunConfig:
    """--config's RunConfig, or the defaults, with each flag given read over it
    as the config keys FLAGS names, by the walker a config file goes through."""
    config = load_run_config(args.config) if args.config else RunConfig()
    given = {}
    for flag, keys in FLAGS[args.command].items():
        if (value := getattr(args, flag[2:])) is not None:
            for section, _, name in (key.rpartition(".") for key in keys):
                (given.setdefault(section, {}) if section else given)[name] = value
    return _from_json(RunConfig, given, base=config)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _numbered(out: Path, stem: str, count: int) -> list[str]:
    """The `count` file names a run writes to `out`, `{stem}_001.csv` on, once
    each other `{stem}_<digits>.csv` there is removed; no other file is touched."""
    names = [f"{stem}_{i:03d}.csv" for i in range(1, count + 1)]
    for path in set(out.glob(f"{stem}_*.csv")) - {out / name for name in names}:
        if re.fullmatch(rf"{stem}_[0-9]+\.csv", path.name):
            path.unlink()
    return names


def _cmd_demo(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    files = _numbered(out, "demo", config.demo_count)

    def written():  # each swing is written as it comes, so one is held at a time
        for name, traj in zip(files, demo_swings(config, config.demo_count)):
            write_trajectory(out / name, traj)
            yield traj

    report = EvalReport.from_swings(written())
    _dump_json(out / "manifest.json", {
        "count": config.demo_count,
        "seed": config.demo_seed,
        "files": files,
        "alpha_tgt_deg": report.alpha_tgt_deg.tolist(),
        "alpha_end_deg": report.alpha_end_deg.tolist(),
        "error_deg": report.error_deg.tolist(),
        "avg_error_deg": report.avg_error_deg,
        "max_error_deg": report.max_error_deg,
    })
    print(f"wrote {config.demo_count} demonstrations to {out}: landing error "
          f"avg {report.avg_error_deg:.2f} deg, max {report.max_error_deg:.2f} deg")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
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
    n = min(config.episodes, config.demo_count)
    hip_log, knee_log = train([(hip, "tau_h"), (knee, "tau_k")], demo_swings(config, n),
                              config.episodes)
    save_model(out / "hip.json", hip)
    save_model(out / "knee.json", knee)
    _dump_json(out / "train_log.json", train_log_to_dict(hip_log, knee_log))
    print(f"trained {config.episodes} episodes on {n} demonstrations; "
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
    out = Path(args.out)
    hip, knee = _load_model_pair(out)
    tasks = sample_tasks(config.ranges, config.eval_count, config.eval_seed,
                         config.gains, config.params)
    report, trajs = evaluate(hip, knee, tasks, config.gains, config.params,
                             config.dt, config.timeout)
    for name, traj in zip(_numbered(out, "eval", len(trajs)), trajs):
        write_trajectory(out / name, traj)
    write_report(out / "report.json", report)
    print(f"evaluated {config.eval_count} swings: landing error avg "
          f"{report.avg_error_deg:.2f} deg, max {report.max_error_deg:.2f} deg, "
          f"{report.timeout_count} timeouts")
    return 0


def _cmd_gradcheck(args) -> int:
    draws = uniform_stream(args.seed)
    n = mulnet.NET_DIM
    worst = 0.0
    for _ in range(100):
        # default_rng(seed).uniform's bits: an (n, n) block in C order, then five scalars
        W = (-0.2 + 0.4 * np.fromiter(draws, float, n * n)).reshape(n, n)
        raw = np.array([lo + (hi - lo) * next(draws) for lo, hi in
                        ((-1.0, 1.0), (2.0, 3.9), (-2.0, 2.0), (2.0, 3.9), (-2.0, 2.0))])
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

    for command, summary, func in (("demo", "generate demonstration trajectories", _cmd_demo),
                                   ("train", "train hip and knee GRP models", _cmd_train),
                                   ("eval", "run trained models without references", _cmd_eval)):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        for flag, keys in FLAGS[command].items():
            p.add_argument(flag, type=int, help="sets " + " and ".join(keys))
        p.set_defaults(func=func)

    p = sub.add_parser("gradcheck",
                       help="network gradients vs central differences")
    p.add_argument("--seed", type=int, default=0, help="instance RNG seed")
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
