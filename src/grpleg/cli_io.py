"""Command line surface, run configuration, and on-disk formats.

JSON carries configs, models, and evaluation reports; trajectories go to
CSV with 17 significant digits so every double survives a round trip.
Writers are deterministic (fixed key order, no timestamps): identical
config and seeds give byte-identical files. Angles are radians everywhere
except evaluation reports, which speak degrees.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import NonFiniteError, grp, mulnet
from .dynamics import LegParams
from .experiment import (
    EvalReport,
    ModelTrace,
    SampleRanges,
    TrainLog,
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

FIXED_COLUMNS = (
    "t",
    "phi_h",
    "phi_k",
    "phi_h_dot",
    "phi_k_dot",
    "alpha",
    "alpha_dot",
    "l",
    "tau_h",
    "tau_k",
    "phase",
    "contact",
)

# Learning rates here are swing-tuned, not the generic unit-scale module
# defaults: reference torques reach +-60 N*m, so Generator steps must be
# ~1000x smaller than the RP steps that track responsibilities in [0, 1].
DEFAULT_HIP = GrpConfig(m=1, mu=1e-6, mu_rp=1e-2, beta=1.01)
DEFAULT_KNEE = GrpConfig(m=3, mu=1e-6, mu_rp=1e-2, beta=1.01)


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
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.timeout <= self.dt:
            raise ValueError(f"timeout {self.timeout} not beyond one step")
        for name in ("episodes", "demo_count", "eval_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _reject_unknown(data: dict, allowed, where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config key '{where}{unknown[0]}'")


def _int(value, key: str) -> int:
    """A JSON integer, not coerced; the error names the dotted `key`."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _float(value, key: str) -> float:
    """A JSON number (not a bool or string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _float_dataclass(cls, data: dict, where: str):
    """Parse a dataclass whose fields are all floats; absent keys keep
    their defaults."""
    names = [f.name for f in dataclasses.fields(cls)]
    _reject_unknown(data, names, where)
    return cls(**{k: _float(data[k], where + k) for k in names if k in data})


def _pair(value, key: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"config key '{key}' must be a [lo, hi] pair")
    return (_float(value[0], f"{key}[0]"), _float(value[1], f"{key}[1]"))


def _ranges_from_dict(data: dict, where: str) -> SampleRanges:
    names = [f.name for f in dataclasses.fields(SampleRanges)]
    _reject_unknown(data, names, where)
    kwargs = {}
    for name in ("alpha_tgt", "phi_h_dot0", "phi_k_dot0"):
        if name in data:
            kwargs[name] = _pair(data[name], where + name)
    for name in ("phi_h0", "phi_k0"):
        if name in data:
            kwargs[name] = _float(data[name], where + name)
    return SampleRanges(**kwargs)


_GRP_KEYS = ("m", "mu", "mu_rp", "lambda", "gamma0", "beta", "w_gain",
             "init_scale", "seed")


def grp_config_to_dict(config: GrpConfig) -> dict:
    return {
        "m": config.m,
        "mu": config.mu,
        "mu_rp": config.mu_rp,
        "lambda": config.lam,
        "gamma0": config.gamma0,
        "beta": config.beta,
        "w_gain": config.w_gain,
        "init_scale": config.init_scale,
        "seed": config.seed,
    }


def grp_config_from_dict(data: dict, where: str = "",
                         base: GrpConfig | None = None) -> GrpConfig:
    """GrpConfig from its JSON form; keys not present fall back to `base`
    (or the dataclass defaults). `lambda` maps to the decay rate."""
    _reject_unknown(data, _GRP_KEYS, where)
    kwargs = {}
    if base is not None:
        kwargs = {f.name: getattr(base, f.name)
                  for f in dataclasses.fields(GrpConfig)}
    for key in ("m", "seed"):
        if key in data:
            kwargs[key] = _int(data[key], where + key)
    if "mu_rp" in data:
        mu_rp = data["mu_rp"]
        kwargs["mu_rp"] = None if mu_rp is None else _float(mu_rp, where + "mu_rp")
    if "lambda" in data:
        kwargs["lam"] = _float(data["lambda"], where + "lambda")
    for key in ("mu", "gamma0", "beta", "w_gain", "init_scale"):
        if key in data:
            kwargs[key] = _float(data[key], where + key)
    return GrpConfig(**kwargs)


def run_config_to_dict(config: RunConfig) -> dict:
    return {
        "params": dataclasses.asdict(config.params),
        "gains": dataclasses.asdict(config.gains),
        "ranges": {
            "alpha_tgt": list(config.ranges.alpha_tgt),
            "phi_h_dot0": list(config.ranges.phi_h_dot0),
            "phi_k_dot0": list(config.ranges.phi_k_dot0),
            "phi_h0": config.ranges.phi_h0,
            "phi_k0": config.ranges.phi_k0,
        },
        "hip": grp_config_to_dict(config.hip),
        "knee": grp_config_to_dict(config.knee),
        "dt": config.dt,
        "timeout": config.timeout,
        "episodes": config.episodes,
        "demo_count": config.demo_count,
        "eval_count": config.eval_count,
        "demo_seed": config.demo_seed,
        "eval_seed": config.eval_seed,
    }


def run_config_from_dict(data: dict) -> RunConfig:
    names = [f.name for f in dataclasses.fields(RunConfig)]
    _reject_unknown(data, names, "")
    kwargs = {}
    if "params" in data:
        kwargs["params"] = _float_dataclass(LegParams, data["params"], "params.")
    if "gains" in data:
        kwargs["gains"] = _float_dataclass(ControllerGains, data["gains"], "gains.")
    if "ranges" in data:
        kwargs["ranges"] = _ranges_from_dict(data["ranges"], "ranges.")
    if "hip" in data:
        kwargs["hip"] = grp_config_from_dict(data["hip"], "hip.", DEFAULT_HIP)
    if "knee" in data:
        kwargs["knee"] = grp_config_from_dict(data["knee"], "knee.", DEFAULT_KNEE)
    for name in ("dt", "timeout"):
        if name in data:
            kwargs[name] = _float(data[name], name)
    for name in ("episodes", "demo_count", "eval_count", "demo_seed", "eval_seed"):
        if name in data:
            kwargs[name] = _int(data[name], name)
    return RunConfig(**kwargs)


def _dump_json(path, data) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _load_json(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(_load_json(path))


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


def model_from_dict(data: dict) -> GrpModel:
    _reject_unknown(data, ("format", "config", "gamma", "episode_count",
                           "layers"), "")
    for key in ("format", "config", "gamma", "episode_count", "layers"):
        if key not in data:
            raise ValueError(f"model file missing key '{key}'")
    if data["format"] != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {data['format']!r}")
    if "m" not in data["config"]:
        raise ValueError("model file config missing key 'm'")
    config = grp_config_from_dict(data["config"], "config.")
    layers_raw = data["layers"]
    if len(layers_raw) != config.m:
        raise ValueError(
            f"model has {len(layers_raw)} layers but config.m = {config.m}")
    W = np.empty((config.m, mulnet.NET_DIM, mulnet.NET_DIM))
    R = np.empty_like(W)
    for k, entry in enumerate(layers_raw):
        _reject_unknown(entry, ("W", "R"), f"layers[{k}].")
        for name, stack in (("W", W), ("R", R)):
            if name not in entry:
                raise ValueError(f"layers[{k}] missing key '{name}'")
            mat = np.array(entry[name], dtype=float)
            if mat.shape != stack.shape[1:]:
                raise ValueError(
                    f"layers[{k}].{name} has shape {mat.shape}, "
                    f"expected ({mulnet.NET_DIM}, {mulnet.NET_DIM})")
            if not np.isfinite(mat).all():
                raise ValueError(f"layers[{k}].{name} has non-finite entries")
            stack[k] = mat
    gamma = _float(data["gamma"], "gamma")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    episode_count = _int(data["episode_count"], "episode_count")
    if episode_count < 0:
        raise ValueError(f"episode_count must be >= 0, got {episode_count}")
    return GrpModel(W=W, R=R, gamma=gamma, config=config,
                    episode_count=episode_count)


def save_model(path, model: GrpModel) -> None:
    _dump_json(path, model_to_dict(model))


def load_model(path) -> GrpModel:
    return model_from_dict(_load_json(path))


_TRACE_COL = re.compile(r"^(\w+)_(G|pi|r)_([1-9][0-9]*)$")


def write_trajectory(path, traj: Trajectory) -> None:
    names = list(FIXED_COLUMNS)
    cols = [traj.t, traj.phi_h, traj.phi_k, traj.phi_h_dot, traj.phi_k_dot,
            traj.alpha, traj.alpha_dot, traj.l, traj.tau_h, traj.tau_k,
            traj.phase, traj.contact]
    for model_name, trace in traj.traces.items():
        for k in range(trace.G.shape[1]):
            names += [f"{model_name}_G_{k + 1}",
                      f"{model_name}_pi_{k + 1}",
                      f"{model_name}_r_{k + 1}"]
            cols += [trace.G[:, k], trace.pi[:, k], trace.r[:, k]]
    # '%.17g' % x is f"{x:.17g}" for every double, nan, inf and -0 included
    row = ",".join(["%.17g"] * 10 + ["%d", "%d"] + ["%.17g"] * (len(cols) - 12)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.write("".join([row % r for r in zip(*[c.tolist() for c in cols])]))


def _parse_trace_header(extra: list[str], path) -> list[tuple[str, int]]:
    """Validate per-layer columns: contiguous (G, pi, r) triples per layer,
    layer indices counting up from 1 within each model block."""
    if len(extra) % 3:
        raise ValueError(
            f"{path} line 1: trace columns must come in (G, pi, r) triples, "
            f"got {len(extra)} extra columns")
    blocks: list[tuple[str, int]] = []
    for j in range(0, len(extra), 3):
        parsed = []
        for name, want in zip(extra[j:j + 3], ("G", "pi", "r")):
            mt = _TRACE_COL.match(name)
            if mt is None or mt.group(2) != want:
                raise ValueError(f"{path} line 1: bad trace column '{name}'")
            parsed.append((mt.group(1), int(mt.group(3))))
        if len({p for p in parsed}) != 1:
            raise ValueError(
                f"{path} line 1: mismatched trace triple {extra[j:j + 3]}")
        model_name, k = parsed[0]
        if blocks and blocks[-1][0] == model_name:
            if k != blocks[-1][1] + 1:
                raise ValueError(
                    f"{path} line 1: layer index jump at '{extra[j]}'")
        elif k != 1 or any(b[0] == model_name for b in blocks):
            raise ValueError(
                f"{path} line 1: trace columns for '{model_name}' out of order")
        blocks.append((model_name, k))
    return blocks


def read_trajectory(path) -> Trajectory:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trajectory file")
    header = lines[0].split(",")
    if tuple(header[:len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise ValueError(f"{path} line 1: bad trajectory header")
    blocks = _parse_trace_header(header[len(FIXED_COLUMNS):], path)
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
    contact = data[:, 11] != 0.0
    traces: dict[str, ModelTrace] = {}
    col = len(FIXED_COLUMNS)
    for model_name in dict.fromkeys(b[0] for b in blocks):
        m = sum(1 for b in blocks if b[0] == model_name)
        block = data[:, col:col + 3 * m].reshape(len(rows), m, 3)
        traces[model_name] = ModelTrace(
            G=block[:, :, 0].copy(), pi=block[:, :, 1].copy(),
            r=block[:, :, 2].copy())
        col += 3 * m
    return Trajectory(
        t=data[:, 0], phi_h=data[:, 1], phi_k=data[:, 2],
        phi_h_dot=data[:, 3], phi_k_dot=data[:, 4], alpha=data[:, 5],
        alpha_dot=data[:, 6], l=data[:, 7], tau_h=data[:, 8],
        tau_k=data[:, 9], phase=data[:, 10].astype(int), contact=contact,
        timed_out=not bool(contact[-1]), traces=traces)


def report_to_dict(report: EvalReport) -> dict:
    per = []
    for i in range(report.error_deg.size):
        per.append({
            "alpha_tgt_deg": float(report.alpha_tgt_deg[i]),
            "alpha_end_deg": float(report.alpha_end_deg[i]),
            "error_deg": float(report.error_deg[i]),
            "timed_out": bool(report.timed_out[i]),
        })
    return {
        "trajectories": per,
        "avg_error_deg": report.avg_error_deg,
        "max_error_deg": report.max_error_deg,
        "timeout_count": int(report.timed_out.sum()),
        "active_generators": dict(report.active_generators),
        "peak_pi": {name: [float(x) for x in peaks]
                    for name, peaks in report.peak_pi.items()},
    }


def report_from_dict(data: dict) -> EvalReport:
    _reject_unknown(data, ("trajectories", "avg_error_deg", "max_error_deg",
                           "timeout_count", "active_generators", "peak_pi"), "")
    per = data["trajectories"]
    return EvalReport(
        alpha_tgt_deg=np.array([e["alpha_tgt_deg"] for e in per]),
        alpha_end_deg=np.array([e["alpha_end_deg"] for e in per]),
        error_deg=np.array([e["error_deg"] for e in per]),
        timed_out=np.array([e["timed_out"] for e in per], dtype=bool),
        avg_error_deg=float(data["avg_error_deg"]),
        max_error_deg=float(data["max_error_deg"]),
        active_generators={k: int(v)
                           for k, v in data["active_generators"].items()},
        peak_pi={k: np.array(v) for k, v in data["peak_pi"].items()},
    )


def write_report(path, report: EvalReport) -> None:
    _dump_json(path, report_to_dict(report))


def read_report(path) -> EvalReport:
    return report_from_dict(_load_json(path))


def train_log_to_dict(log: TrainLog) -> dict:
    return {
        "hip_mean_abs_e": log.hip_mean_abs_e.tolist(),
        "knee_mean_abs_e": log.knee_mean_abs_e.tolist(),
    }


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
    files, tgts, ends = [], [], []
    for i, (task, init) in enumerate(tasks, start=1):
        traj = run_demo_episode(task, init, config.gains, config.params,
                                config.dt, config.timeout)
        name = f"demo_{i:03d}.csv"
        write_trajectory(out / name, traj)
        files.append(name)
        tgts.append(task.alpha_tgt)
        ends.append(traj.alpha_end)
    err = np.degrees(np.abs(np.array(tgts) - np.array(ends)))
    _dump_json(out / "manifest.json", {
        "count": n,
        "seed": seed,
        "files": files,
        "alpha_tgt_deg": [math.degrees(v) for v in tgts],
        "alpha_end_deg": [math.degrees(v) for v in ends],
        "error_deg": err.tolist(),
        "avg_error_deg": float(err.mean()),
        "max_error_deg": float(err.max()),
    })
    print(f"wrote {n} demonstrations to {out}: landing error "
          f"avg {err.mean():.2f} deg, max {err.max():.2f} deg")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    if args.seed is not None:
        config = replace(config,
                         hip=replace(config.hip, seed=args.seed),
                         knee=replace(config.knee, seed=args.seed))
    out = _out_dir(args)
    tasks = sample_tasks(config.ranges, config.demo_count, config.demo_seed,
                         config.gains, config.params)
    demos = [run_demo_episode(task, init, config.gains, config.params,
                              config.dt, config.timeout)
             for task, init in tasks]
    hip = grp.init(config.hip)
    knee = grp.init(config.knee)
    log = train(hip, knee, demos, config.episodes)
    save_model(out / "hip.json", hip)
    save_model(out / "knee.json", knee)
    _dump_json(out / "train_log.json", train_log_to_dict(log))
    print(f"trained {config.episodes} episodes on {len(demos)} demonstrations; "
          f"final mean |e_G| hip {log.hip_mean_abs_e[-1].min():.3f}, "
          f"knee {log.knee_mean_abs_e[-1].min():.3f}")
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
    out = _out_dir(args)
    hip, knee = _load_model_pair(out)
    tasks = sample_tasks(config.ranges, n, seed, config.gains, config.params)
    report, trajs = evaluate(hip, knee, tasks, config.gains, config.params,
                             config.dt, config.timeout)
    for i, traj in enumerate(trajs, start=1):
        write_trajectory(out / f"eval_{i:03d}.csv", traj)
    write_report(out / "report.json", report)
    timeouts = int(report.timed_out.sum())
    print(f"evaluated {n} swings: landing error avg "
          f"{report.avg_error_deg:.2f} deg, max {report.max_error_deg:.2f} deg, "
          f"{timeouts} timeouts")
    return 0


def _cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
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
    out = _out_dir(args)
    hip, knee = _load_model_pair(out)
    summary = {"hip": weight_summary(hip), "knee": weight_summary(knee)}
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

    def common(p, n_help=None):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="override the relevant seed")
        if n_help:
            p.add_argument("--n", type=int, help=n_help)

    p = sub.add_parser("demo", help="generate demonstration trajectories")
    common(p, "number of demonstrations")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("train", help="train hip and knee GRP models")
    common(p)
    p.add_argument("--layers", type=int, help="knee layer count (hip stays 1)")
    p.add_argument("--episodes", type=int, help="training episodes")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="run trained models without references")
    common(p, "number of evaluation swings")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="network gradients vs central differences")
    p.add_argument("--seed", type=int, help="instance RNG seed")
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
