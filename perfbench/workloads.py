"""The benchmark's three workloads: the config each CLI call receives, the
fixture it needs, and the checks its outputs must pass.

A workload run is a series of calls `grpleg <command> --config C --out D`.
Call i of a run with seed s gets its seeds from `call_seed(s, i)`, so the
same seed gives the same inputs. A *unit* is one swing (demo, eval) or one
episode (train); a *tick* is one 1 kHz plant step (demo, eval) or one learn
step (train).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from grpleg import cli_io
from grpleg.experiment import run_demo_episode, sample_tasks

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE_DIR = BENCH_DIR / "fixture"
MODEL_FILES = ("hip.json", "knee.json")
ERR_TOL_DEG = 1e-9
QUALITY_UNITS = {"landing_err_avg_deg": "deg", "landing_err_max_deg": "deg",
                 "timeout_frac": "ratio", "fit_err_hip_nm": "N*m",
                 "fit_err_knee_nm": "N*m"}


def call_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


@dataclass
class CallResult:
    """What one CLI call produced, as the checks read it back."""

    units: int
    failed_units: int = 0
    ticks: int = 0
    bytes_written: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _nested_finite(data) -> bool:
    """True when every number in a JSON-like tree is finite."""
    if isinstance(data, dict):
        return all(_nested_finite(v) for v in data.values())
    if isinstance(data, (list, tuple)):
        return all(_nested_finite(v) for v in data)
    if isinstance(data, (int, float)):
        return math.isfinite(data)
    return True


def _trajectory_finite(traj) -> bool:
    """Plant columns and model outputs finite. Evaluation traces hold NaN
    reference responsibilities by design, so `r` is not checked."""
    cols = [traj.t, traj.phi_h, traj.phi_k, traj.phi_h_dot, traj.phi_k_dot,
            traj.alpha, traj.alpha_dot, traj.l, traj.tau_h, traj.tau_k]
    cols += [a for tr in traj.traces.values() for a in (tr.G, tr.pi)]
    return all(_finite(c) for c in cols)


def _read_swing(res: CallResult, path: Path):
    """Re-read one trajectory CSV; count its rows and bytes."""
    text = path.read_bytes()
    res.bytes_written += len(text)
    rows = text.count(b"\n") - 1
    res.ticks += rows
    traj = cli_io.read_trajectory(path)
    res.require(len(traj) == rows, f"{path.name}: {len(traj)} rows read back, {rows} written")
    if not _trajectory_finite(traj):
        res.failed_units += 1
    return traj


def _landing_quality(res: CallResult, errors, timed_out) -> None:
    res.quality = {
        "landing_err_avg_deg": float(np.mean(errors)),
        "landing_err_max_deg": float(np.max(errors)),
        "timeout_frac": float(np.mean(timed_out)),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Demo:
    """`grpleg demo`: target-controller swings, one CSV each plus a manifest."""

    name = "demo"
    units_per_call = 2
    trace_calls = 50

    def config(self, seed: int) -> dict:
        return {"demo_count": self.units_per_call, "demo_seed": seed}

    def stage(self, out: Path) -> None:
        pass

    def check(self, out: Path, config: dict) -> CallResult:
        res = CallResult(units=self.units_per_call)
        manifest_path = out / "manifest.json"
        res.bytes_written += manifest_path.stat().st_size
        manifest = json.loads(manifest_path.read_text())
        n = config["demo_count"]
        files = [f"demo_{i:03d}.csv" for i in range(1, n + 1)]
        res.require(manifest["count"] == n and manifest["files"] == files,
                    "manifest does not list the requested demonstrations")
        res.require(sorted(p.name for p in out.glob("*.csv")) == files,
                    "demonstration CSVs on disk differ from the manifest")
        timed_out = []
        for k, name in enumerate(manifest["files"]):
            traj = _read_swing(res, out / name)
            err = abs(manifest["alpha_tgt_deg"][k] - math.degrees(traj.alpha_end))
            res.require(math.isclose(err, manifest["error_deg"][k], rel_tol=0.0,
                                     abs_tol=ERR_TOL_DEG),
                        f"{name}: manifest error {manifest['error_deg'][k]} deg, "
                        f"CSV gives {err} deg")
            timed_out.append(traj.timed_out)
        _landing_quality(res, manifest["error_deg"], timed_out)
        return res


class Train:
    """`grpleg train`: default hip (m=1) and knee (m=3) stacks from a fresh,
    seeded init on the default 40-demo corpus, for a reduced episode count."""

    name = "train"
    units_per_call = 40
    trace_calls = 1

    def __init__(self):
        self._corpus_rows: list[int] | None = None

    def config(self, seed: int) -> dict:
        return {"episodes": self.units_per_call,
                "hip": {"seed": seed}, "knee": {"seed": seed}}

    def stage(self, out: Path) -> None:
        pass

    def corpus_rows(self) -> list[int]:
        """Row count of each demonstration in the default training corpus,
        rolled out here so the learn steps of a call can be counted."""
        if self._corpus_rows is None:
            c = cli_io.RunConfig()
            tasks = sample_tasks(c.ranges, c.demo_count, c.demo_seed, c.gains, c.params)
            self._corpus_rows = [
                len(run_demo_episode(task, init, c.gains, c.params, c.dt, c.timeout))
                for task, init in tasks]
        return self._corpus_rows

    def check(self, out: Path, config: dict) -> CallResult:
        episodes = config["episodes"]
        res = CallResult(units=episodes)
        rows = self.corpus_rows()
        res.ticks = sum(rows[e % len(rows)] for e in range(episodes))
        for name, m in zip(MODEL_FILES, (cli_io.DEFAULT_HIP.m, cli_io.DEFAULT_KNEE.m)):
            res.bytes_written += (out / name).stat().st_size
            model = cli_io.load_model(out / name)
            res.require(model.episode_count == episodes,
                        f"{name}: episode_count {model.episode_count}, expected {episodes}")
            res.require(model.m == m and model.config.seed == config["hip"]["seed"],
                        f"{name}: not the configured m={m} stack")
            if not _nested_finite(cli_io.model_to_dict(model)):
                res.failed_units = episodes
        log_path = out / "train_log.json"
        res.bytes_written += log_path.stat().st_size
        log = json.loads(log_path.read_text())
        hip = np.array(log["hip_mean_abs_e"], dtype=float)
        knee = np.array(log["knee_mean_abs_e"], dtype=float)
        res.require(hip.shape == (episodes, 1) and knee.shape == (episodes, 3),
                    f"train_log.json shapes {hip.shape}, {knee.shape}")
        bad = ~(np.isfinite(hip).all(axis=1) & np.isfinite(knee).all(axis=1))
        res.failed_units = max(res.failed_units, int(bad.sum()))
        # mean over the last pass through the corpus of the per-episode
        # best layer's mean |e_G|
        last = slice(-min(episodes, len(rows)), None)
        res.quality = {"fit_err_hip_nm": float(hip[last].min(axis=1).mean()),
                       "fit_err_knee_nm": float(knee[last].min(axis=1).mean())}
        return res


class Eval:
    """`grpleg eval`: the committed default-trained models drive the plant
    on their own; the controller runs only as a contact monitor."""

    name = "eval"
    units_per_call = 2
    trace_calls = 10

    def config(self, seed: int) -> dict:
        return {"eval_count": self.units_per_call, "eval_seed": seed}

    def stage(self, out: Path) -> None:
        """Copy the fixture models into `out` after checking their hashes."""
        expected = json.loads((FIXTURE_DIR / "fixture.json").read_text())["sha256"]
        for name in MODEL_FILES:
            digest = sha256(FIXTURE_DIR / name)
            if digest != expected[name]:
                raise SystemExit(f"fixture {name}: sha256 {digest}, "
                                 f"fixture.json records {expected[name]}")
            shutil.copyfile(FIXTURE_DIR / name, out / name)

    def check(self, out: Path, config: dict) -> CallResult:
        n = config["eval_count"]
        res = CallResult(units=n)
        report_path = out / "report.json"
        res.bytes_written += report_path.stat().st_size
        data = json.loads(report_path.read_text())
        report = cli_io.read_report(report_path)
        res.require(cli_io.report_to_dict(report) == data,
                    "report.json does not round-trip through read_report")
        res.require(report.error_deg.size == n, f"report holds {report.error_deg.size} swings")
        files = [f"eval_{i:03d}.csv" for i in range(1, n + 1)]
        res.require(sorted(p.name for p in out.glob("*.csv")) == files,
                    "evaluation CSVs on disk differ from the report")
        for k, name in enumerate(files[:report.error_deg.size]):
            traj = _read_swing(res, out / name)
            res.require(set(traj.traces) == {"hip", "knee"}, f"{name}: model traces missing")
            err = abs(report.alpha_tgt_deg[k] - math.degrees(traj.alpha_end))
            res.require(math.isclose(err, report.error_deg[k], rel_tol=0.0,
                                     abs_tol=ERR_TOL_DEG),
                        f"{name}: report error {report.error_deg[k]} deg, CSV gives {err} deg")
            res.require(traj.timed_out == bool(report.timed_out[k]),
                        f"{name}: timeout flag differs from the report")
        _landing_quality(res, report.error_deg, report.timed_out)
        return res


WORKLOADS = {w.name: w for w in (Demo(), Train(), Eval())}
