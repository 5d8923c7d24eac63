"""File formats and command line: strict configs, exact round-trips."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import grpleg
from grpleg import cli_io, experiment, grp, mulnet
from grpleg.cli_io import (
    FIXED_COLUMNS,
    RunConfig,
    grp_config_from_dict,
    grp_config_to_dict,
    load_model,
    load_run_config,
    model_from_dict,
    model_to_dict,
    read_report,
    read_trajectory,
    report_from_dict,
    report_to_dict,
    run_config_from_dict,
    run_config_to_dict,
    save_model,
    save_run_config,
    trace_columns,
    write_report,
    write_trajectory,
)
from grpleg.dynamics import LegParams
from grpleg.experiment import (
    EvalReport,
    SampleRanges,
    Trajectory,
    evaluate,
    run_demo_episode,
    sample_tasks,
    train,
)
from grpleg.grp import GrpConfig
from grpleg.target_controller import ControllerGains


@pytest.fixture(scope="module")
def demo_traj():
    task, init = sample_tasks(SampleRanges(), 1, seed=5)[0]
    return run_demo_episode(task, init)


def trained_pair(steps=40):
    hip = grp.init(GrpConfig(m=1, mu=1e-6, mu_rp=1e-2))
    knee = grp.init(GrpConfig(m=3, mu=1e-6, mu_rp=1e-2))
    rng = np.random.default_rng(9)
    for _ in range(steps):
        raw = [rng.uniform(-1, 1), rng.uniform(2, 3.9), rng.uniform(-2, 2),
               rng.uniform(2, 3.9), rng.uniform(-2, 2)]
        x = mulnet.split_input(raw)
        r_h, r_k = rng.uniform(-60, 60, size=2)
        grp.learn_step_joint(grp.LearnStack([hip, knee]), x, [r_h, r_k])
    grp.end_episode(hip)
    grp.end_episode(knee)
    return hip, knee


def with_traces(traj, models=(("hip", 1), ("knee", 3)), seed=9):
    """A trajectory of `traj`'s plant columns carrying traces of seeded
    finite G and pi for `models`, hip (m=1) and knee (m=3) by default."""
    rng = np.random.default_rng(seed)
    blocks = [traj.table[:, :12]]
    for _, m in models:
        blocks += [rng.uniform(-60.0, 60.0, (len(traj), m)), rng.uniform(0.0, 1.0, (len(traj), m))]
    return Trajectory(np.hstack(blocks), models, traj.task)


# -------------------------------------------------------------- run config


def test_run_config_round_trip(tmp_path):
    """A config file loads to its config and saves again to its own bytes,
    an integer-valued float field included: it is written as a float."""
    for cfg in (RunConfig(episodes=7, demo_seed=11),
                RunConfig(params=LegParams(g=10), ranges=SampleRanges(alpha_tgt=(1, 1.4)),
                          hip=GrpConfig(m=1, lam=0, mu=1))):
        save_run_config(tmp_path / "cfg.json", cfg)
        back = load_run_config(tmp_path / "cfg.json")
        assert back == cfg
        save_run_config(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "cfg.json").read_bytes()


def test_run_config_defaults_match_owning_modules():
    cfg = RunConfig()
    assert cfg.params == LegParams()
    assert cfg.gains == ControllerGains()
    assert cfg.ranges == SampleRanges()
    assert (cfg.dt, cfg.timeout) == (1e-3, 2.0)
    assert (cfg.demo_count, cfg.eval_count) == (40, 20)
    assert (cfg.demo_seed, cfg.eval_seed) == (1, 2)


def test_run_config_partial_dict_keeps_defaults():
    cfg = run_config_from_dict({"episodes": 5})
    assert cfg.episodes == 5
    assert cfg.knee == cli_io.DEFAULT_KNEE


def test_run_config_partial_grp_block():
    cfg = run_config_from_dict({"knee": {"m": 5, "seed": 3}})
    assert cfg.knee.m == 5
    assert cfg.knee.seed == 3
    assert cfg.knee.mu == cli_io.DEFAULT_KNEE.mu


@pytest.mark.parametrize(
    "data, offender",
    [
        ({"bogus": 1}, "'bogus'"),
        ({"gains": {"k_nope": 2.0}}, "'gains.k_nope'"),
        ({"hip": {"momentum": 0.9}}, "'hip.momentum'"),
        ({"ranges": {"alpha": [1, 2]}}, "'ranges.alpha'"),
        ({"hip": {"lam": 1e-4}}, "'hip.lam'"),
    ],
)
def test_run_config_rejects_unknown_keys(data, offender):
    with pytest.raises(ValueError, match="unknown key") as excinfo:
        run_config_from_dict(data)
    assert offender in str(excinfo.value)


def test_run_config_range_pair_arity():
    with pytest.raises(ValueError, match="alpha_tgt"):
        run_config_from_dict({"ranges": {"alpha_tgt": [1.0, 2.0, 3.0]}})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": 0.0},
        {"timeout": 1e-3},
        {"episodes": 0},
        {"demo_count": 0},
        {"eval_count": 0},
        # NaN compares false to everything, and fails each check all the same
        {"dt": math.nan},
        {"timeout": math.nan},
        # each scalar has its field's type, as in a config file
        {"demo_count": 2.5},
        {"episodes": True},
        {"eval_seed": 1.5},
        {"demo_count": "3"},
        {"timeout": "2"},
        {"timeout": True},
        {"dt": 10**400},
    ],
)
def test_run_config_validation(kwargs):
    """Each refusal names the field it refuses."""
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        RunConfig(**kwargs)


@pytest.mark.parametrize(
    "parse, data, key",
    [
        (grp_config_from_dict, {"m": 3.7}, "m must be an integer, got 3.7"),
        (run_config_from_dict, {"episodes": 1599.7}, "episodes must be an integer"),
        (run_config_from_dict, {"params": {"g": True}},
         "params: g must be a number, got True"),
        (run_config_from_dict, {"demo_seed": "7"},
         "demo_seed must be an integer, got '7'"),
        (run_config_from_dict, {"knee": {"seed": "7"}},
         "knee: seed must be an integer, got '7'"),
        (run_config_from_dict, {"dt": "0.001"}, "dt must be a number, got '0.001'"),
        (run_config_from_dict, {"hip": {"m": True}}, "hip: m must be an integer"),
        (run_config_from_dict, {"knee": {"lambda": "1e-4"}},
         "knee: lam \\(lambda\\) must be a number"),
        (run_config_from_dict, {"ranges": {"alpha_tgt": [0.9, "1.4"]}},
         "ranges: alpha_tgt\\[1\\] must be a number"),
        (run_config_from_dict, {"params": 5}, "params must be an object, got 5"),
        (run_config_from_dict, {"timeout": math.nan}, "timeout has non-finite value nan"),
        (run_config_from_dict, {"timeout": math.inf}, "timeout has non-finite value inf"),
        (run_config_from_dict, {"gains": {"k_i": math.nan}}, "gains: k_i has non-finite"),
        (run_config_from_dict, {"params": {"l_t": math.inf}}, "params: l_t has non-finite"),
        (run_config_from_dict, {"ranges": {"phi_h0": math.nan}},
         "ranges: phi_h0 has non-finite"),
        (run_config_from_dict, {"ranges": {"alpha_tgt": [0, math.inf]}},
         "ranges: alpha_tgt\\[1\\] has non-finite value inf"),
        (run_config_from_dict, {"ranges": [1, 2]}, "ranges must be an object, got \\[1, 2\\]"),
        (run_config_from_dict, {"hip": "x"}, "hip must be an object, got 'x'"),
        (run_config_from_dict, {"dt": None}, "dt must be a number, got None"),
        (run_config_from_dict, {"knee": {"mu_rp": None}},
         "knee: mu_rp must be a number, got None"),
        (grp_config_from_dict, {"mu": 1e-3}, "missing key 'm'"),
        (run_config_from_dict, {"timeout": 1e300}, "timeout 1e\\+300 is more than"),
        (run_config_from_dict, {"dt": 10 ** 400}, "^dt is an integer too large for a float$"),
        (run_config_from_dict, {"params": {"l_t": -(10 ** 400)}},
         "^params: l_t is an integer too large for a float$"),
    ],
    ids=["m-float", "episodes-float", "g-bool", "demo_seed-str", "knee.seed-str",
         "dt-str", "hip.m-bool", "knee.lambda-str", "alpha_tgt-str",
         "params-int", "timeout-nan", "timeout-inf", "k_i-nan", "l_t-inf", "phi_h0-nan",
         "alpha_tgt-inf", "ranges-list", "hip-str", "dt-null", "knee.mu_rp-null", "m-missing",
         "timeout-huge", "dt-huge-int", "l_t-huge-int"],
)
def test_config_rejects_coercible_values(parse, data, key):
    with pytest.raises(ValueError, match=key):
        parse(data)


def test_config_accepts_json_integers_for_floats():
    cfg = run_config_from_dict({"dt": 1, "params": {"g": 10}, "hip": {"mu_rp": 1}})
    assert (cfg.dt, cfg.params.g, cfg.hip.mu_rp) == (1.0, 10.0, 1.0)
    assert all(type(v) is float for v in (cfg.dt, cfg.params.g, cfg.hip.mu_rp))


# Per section, values its fields' types refuse, each with a short tag for the
# fault, which names the test case, and the section's message.
SECTION_TYPE_FAULTS = [
    (LegParams, {"g": True}, "bool", "g must be a number, got True"),
    (LegParams, {"l_t": "0.5"}, "str", "l_t must be a number, got '0.5'"),
    (LegParams, {"g": 10**400}, "huge-int", "g is an integer too large for a float"),
    (LegParams, {"tau_max": math.nan}, "nan", "tau_max has non-finite value nan"),
    (ControllerGains, {"k_i": True}, "bool", "k_i must be a number, got True"),
    (ControllerGains, {"k_i": "x"}, "str", "k_i must be a number, got 'x'"),
    (ControllerGains, {"k_ii": 10**400}, "huge-int", "k_ii is an integer too large for a float"),
    (ControllerGains, {"k_i": math.nan}, "nan", "k_i has non-finite value nan"),
    (SampleRanges, {"phi_h0": True}, "bool", "phi_h0 must be a number, got True"),
    (SampleRanges, {"alpha_tgt": (0.9, "1.4")}, "str-hi",
     "alpha_tgt[1] must be a number, got '1.4'"),
    (SampleRanges, {"phi_h_dot0": (-10**400, 0)}, "huge-int-lo",
     "phi_h_dot0[0] is an integer too large for a float"),
    (SampleRanges, {"phi_k_dot0": (math.nan, 0.0)}, "nan-lo",
     "phi_k_dot0[0] has non-finite value nan"),
    (SampleRanges, {"alpha_tgt": (1, 1.2, 1.3)}, "three-items",
     "alpha_tgt must be a [lo, hi] pair, got (1, 1.2, 1.3)"),
    (SampleRanges, {"alpha_tgt": 1.0}, "not-a-pair",
     "alpha_tgt must be a [lo, hi] pair, got 1.0"),
]
SECTION_FIELD_FAULTS = [
    *SECTION_TYPE_FAULTS,
    (RunConfig, {"params": 5}, "int", "params must be a LegParams, got 5"),
    (RunConfig, {"hip": LegParams()}, "other-section",
     f"hip must be a GrpConfig, got {LegParams()!r}"),
    (RunConfig, {"ranges": {"phi_h0": 1.0}}, "dict",
     "ranges must be a SampleRanges, got {'phi_h0': 1.0}"),
]


@pytest.mark.parametrize("cls, kwargs, message",
                         [(cls, kw, message) for cls, kw, _, message in SECTION_FIELD_FAULTS],
                         ids=[f"{cls.__name__}-{next(iter(kw))}-{tag}"
                              for cls, kw, tag, _ in SECTION_FIELD_FAULTS])
def test_each_config_section_refuses_a_value_not_of_its_field_type(cls, kwargs, message):
    """Each config section checks its fields by their annotations, in the
    words the config walker uses for a file's values, naming the field, as
    GrpConfig's and RunConfig's own tests show of theirs. A section field
    takes only an instance of its section, so a wrong one is refused when
    the config is built, not when a rollout first reads it."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs", [(cls, kwargs) for cls, kwargs, *_ in SECTION_TYPE_FAULTS])
def test_a_config_file_value_is_refused_in_its_sections_words(tmp_path, cls, kwargs):
    """A config file's value that its section's type refuses is refused
    in the words the section gives in process, prefixed by the section
    alone, as a bound is: the walker types no value itself."""
    section = next(key for _, key, tp, _ in grpleg._fields(RunConfig) if tp is cls)
    (field, value), = json.loads(json.dumps(kwargs)).items()  # a tuple reads back as a list
    with pytest.raises(ValueError) as in_process:
        cls(**{field: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {field: value}}))
    with pytest.raises(ValueError) as from_file:
        load_run_config(path)
    assert str(from_file.value) == f"{path}: {section}: {in_process.value}"


def test_every_range_pair_field_is_ordered_and_of_a_finite_width():
    """Each [lo, hi] field of every config class refuses a pair out of
    order and one wider than a float holds, by its type alone."""
    sections = (LegParams, ControllerGains, SampleRanges, GrpConfig, RunConfig)
    pairs = [(cls, name) for cls in sections
             for name, _, tp, _ in grpleg._fields(cls) if tp == tuple[float, float]]
    assert len(pairs) >= 3  # the three of SampleRanges at least
    for cls, name in pairs:
        for pair, fault in (((1.0, 0.0), "not ordered"),
                            ((-1e308, 1e308), "is wider than a float holds")):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} range {pair} {fault}')}$"):
                cls(**{name: pair})


@pytest.mark.parametrize("cls, field, value, message", [
    *[(LegParams, name, 0.0, f"{name} must be > 0, got 0.0")
      for name in ("l_t", "l_s", "m_t", "m_s", "g", "tau_max")],
    *[(LegParams, name, -5e-324, f"{name} must be >= 0, got -5e-324")
      for name in ("knee_stop_stiffness", "knee_stop_damping")],
    (ControllerGains, "alpha_dot_max", 0.0, "alpha_dot_max must be > 0, got 0.0"),
])
def test_each_section_bound_is_refused_at_its_edge(cls, field, value, message):
    """A bound is refused at its edge in the one wording every config
    bound has, naming the field and the value; a `>= 0` bound takes 0."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**{field: value})
    if ">=" in message:
        assert getattr(cls(**{field: 0.0}), field) == 0.0


def test_config_fields_hold_their_annotated_types():
    """An int given for a float field is held as a float and a [lo, hi]
    list as a tuple of floats, so the writer converts nothing. Every field
    is annotated with a type the rule knows, so none passes unchecked."""
    assert type(LegParams(g=10).g) is float and LegParams(g=10).g == 10.0
    pair = SampleRanges(alpha_tgt=[1, 2]).alpha_tgt
    assert pair == (1.0, 2.0) and all(type(v) is float for v in pair)
    sections = (LegParams, ControllerGains, SampleRanges, GrpConfig)
    for cls in (*sections, RunConfig):
        for name, _, tp, _ in grpleg._fields(cls):
            assert tp in (int, float, tuple[float, float], *sections), (cls.__name__, name, tp)


RUN_CONFIG_KEYS = ["params", "gains", "ranges", "hip", "knee", "dt", "timeout",
                   "episodes", "demo_count", "eval_count", "demo_seed", "eval_seed"]
GRP_CONFIG_KEYS = ["m", "mu", "mu_rp", "lambda", "gamma0", "beta", "w_gain",
                   "init_scale", "seed"]
SECTION_KEYS = {
    "params": ["l_t", "l_s", "m_t", "m_s", "g", "knee_stop_stiffness",
               "knee_stop_damping", "tau_max"],
    "gains": ["k_p_alpha", "k_d_alpha", "k_i", "k_ii", "k_stp", "k_ext",
              "alpha_dot_max", "delta_alpha_thr"],
    "ranges": ["alpha_tgt", "phi_h_dot0", "phi_k_dot0", "phi_h0", "phi_k0"],
    "hip": GRP_CONFIG_KEYS,
    "knee": GRP_CONFIG_KEYS,
}


def test_config_files_keep_their_key_order():
    data = run_config_to_dict(RunConfig())
    assert list(data) == RUN_CONFIG_KEYS
    for section, keys in SECTION_KEYS.items():
        assert list(data[section]) == keys, section
    assert data["ranges"]["alpha_tgt"] == list(SampleRanges().alpha_tgt)
    assert list(grp_config_to_dict(GrpConfig(m=2))) == GRP_CONFIG_KEYS
    assert list(model_to_dict(trained_pair(steps=1)[1])["config"]) == GRP_CONFIG_KEYS


def off_default_config(hip_mu_rp) -> RunConfig:
    """A RunConfig with every field, nested ones included, off its default."""
    return RunConfig(
        params=LegParams(l_t=0.45, l_s=0.52, m_t=7.0, m_s=4.1, g=9.8,
                         knee_stop_stiffness=1e4, knee_stop_damping=120.0,
                         tau_max=55.0),
        gains=ControllerGains(k_p_alpha=100.0, k_d_alpha=8.0, k_i=20.0, k_ii=3.0,
                              k_stp=240.0, k_ext=190.0, alpha_dot_max=9.0,
                              delta_alpha_thr=0.12),
        ranges=SampleRanges(alpha_tgt=(0.9, 1.4), phi_h_dot0=(-3.0, -0.5),
                            phi_k_dot0=(-6.0, -2.0), phi_h0=3.8, phi_k0=3.0),
        hip=GrpConfig(m=2, mu=2e-6, mu_rp=hip_mu_rp, lam=2e-4, gamma0=1.5,
                      beta=1.02, w_gain=0.9, init_scale=0.2, seed=4),
        knee=GrpConfig(m=5, mu=3e-6, mu_rp=2e-2, lam=3e-4, gamma0=0.5, beta=1.03,
                       w_gain=1.1, init_scale=0.05, seed=6),
        dt=5e-4, timeout=1.5, episodes=33, demo_count=7, eval_count=9,
        demo_seed=3, eval_seed=5)


@pytest.mark.parametrize("hip_mu_rp", [3e-2])
def test_run_config_off_default_round_trip(hip_mu_rp):
    cfg = off_default_config(hip_mu_rp)
    default = RunConfig()
    for f in dataclasses.fields(RunConfig):
        value, base = getattr(cfg, f.name), getattr(default, f.name)
        if dataclasses.is_dataclass(value):
            for g in dataclasses.fields(value):
                assert getattr(value, g.name) != getattr(base, g.name), (f.name, g.name)
        else:
            assert value != base, f.name
    assert run_config_from_dict(json.loads(json.dumps(run_config_to_dict(cfg)))) == cfg


def test_grp_config_lambda_key_and_null_rp_rate():
    """mu_rp is always a rate: a null one is refused, not read as mu."""
    cfg = GrpConfig(m=2, lam=3e-5)
    data = grp_config_to_dict(cfg)
    assert data["lambda"] == 3e-5
    back = grp_config_from_dict(json.loads(json.dumps(data)))
    assert back == cfg
    with pytest.raises(ValueError, match="^mu_rp must be a number, got None$"):
        grp_config_from_dict({**data, "mu_rp": None})


# ------------------------------------------------------------- model files


def test_model_round_trip_bit_exact(tmp_path):
    """A model file loads to its model and saves again to its own bytes; a
    fresh model's gamma, its config's integer gamma0 here, is written as a float."""
    hip, knee = trained_pair()
    fresh = grp.init(GrpConfig(m=1, gamma0=1))
    for name, model in (("hip", hip), ("knee", knee), ("fresh", fresh)):
        save_model(tmp_path / f"{name}.json", model)
        back = load_model(tmp_path / f"{name}.json")
        assert back.config == model.config
        assert back.gamma == model.gamma
        assert back.episode_count == model.episode_count
        for k in range(model.m):
            assert np.array_equal(model.W[k], back.W[k])
            assert np.array_equal(model.R[k], back.R[k])
        save_model(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / f"{name}.json").read_bytes()


def test_model_file_deterministic_bytes(tmp_path):
    _, knee = trained_pair()
    save_model(tmp_path / "a.json", knee)
    save_model(tmp_path / "b.json", knee)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_a_model_rebound_to_other_layers_is_refused_before_it_is_written(tmp_path):
    """A model whose W is rebound to fewer layers than its config.m, a file
    load_model would refuse, is refused by the model's own check before
    save_model writes anything, and by dump-weights' summary."""
    model = grp.init(GrpConfig(m=3))
    model.W = model.W[:2]
    for write in (lambda: save_model(tmp_path / "m.json", model),
                  lambda: cli_io.weight_summary(model)):
        with pytest.raises(ValueError, match="^model has 2 layers but config.m = 3$"):
            write()
    assert not (tmp_path / "m.json").exists()


def test_model_loaded_forward_matches(tmp_path):
    _, knee = trained_pair()
    save_model(tmp_path / "knee.json", knee)
    back = load_model(tmp_path / "knee.json")
    x = np.linspace(-0.5, 0.5, 8)[None]
    G0, pi0, tau0 = grp.forward(grp.LearnStack([knee]), x)[0]
    G1, pi1, tau1 = grp.forward(grp.LearnStack([back]), x)[0]
    assert np.array_equal(G0, G1) and np.array_equal(pi0, pi1)
    assert np.array_equal(tau0, tau1)


@pytest.mark.parametrize(
    "mangle, message",
    [
        # the format is the writer's: a model is written with format 1
        (lambda d: d.update(format=99), "^format is 99 but a model is written"),
        (lambda d: d.update(extra=1), "unknown key 'extra'"),
        (lambda d: d.pop("gamma"), "missing key 'gamma'"),
        (lambda d: d.update(gamma=0.0), "gamma must be > 0, got 0.0"),
        (lambda d: d.update(episode_count=-1), "episode_count"),
        (lambda d: d["layers"].pop(), "layers but config.m"),
        (lambda d: d["layers"][0].update(Q=[]), "layers\\[0\\].Q"),
        (lambda d: d["layers"][1].update(W=[[0.0] * 8] * 7), "shape"),
        (lambda d: d["layers"][1].pop("R"), "missing key 'layers\\[1\\].R'"),
        (lambda d: d["layers"][2]["R"][3].__setitem__(5, math.nan),
         "layers\\[2\\].R has non-finite"),
        (lambda d: d["layers"][0]["W"][0].__setitem__(0, -math.inf),
         "layers\\[0\\].W has non-finite"),
        (lambda d: d.update(gamma=math.nan), "^gamma has non-finite value nan$"),
        (lambda d: d.update(gamma=math.inf), "^gamma has non-finite value inf$"),
        (lambda d: d.update(gamma=10 ** 400), "^gamma is an integer too large for a float$"),
        (lambda d: d.update(episode_count=1599.7),
         "episode_count must be an integer, got 1599.7"),
        (lambda d: d.update(episode_count=True),
         "episode_count must be an integer, got True"),
        (lambda d: d.update(episode_count="3"), "episode_count must be an integer"),
        (lambda d: d["config"].pop("m"), "missing key 'config.m'"),
        # a model file spells its whole config: no key falls back to a default
        (lambda d: d["config"].pop("mu"), "^missing key 'config.mu'$"),
        (lambda d: d.update(format=True), "format must be an integer, got True"),
        (lambda d: d.update(format=1.0), "format must be an integer, got 1.0"),
        (lambda d: d["layers"][0].update(W=[[True] * 8] * 8),
         "layers\\[0\\].W must be a number, got True"),
        (lambda d: d["layers"][1].update(W=[["1"] * 8] * 8),
         "layers\\[1\\].W must be a number, got '1'"),
        (lambda d: d.update(config=5), "config must be an object, got 5"),
        (lambda d: d.update(layers=5), "layers must be a list, got 5"),
        (lambda d: d["layers"].__setitem__(0, 5), "layers\\[0\\] must be an object, got 5"),
        (lambda d: d["layers"][2].update(W={"0": [0.0] * 8}),
         "layers\\[2\\].W must have shape"),
        # the model's config is a config: its keys read as every object's do
        (lambda d: d["config"].update(momentum=0.9), "unknown key 'config.momentum'"),
        # and a value its own check refuses names the section
        (lambda d: d["config"].update(beta=1.0), "^config: beta must be > 1, got 1.0$"),
    ],
)
def test_model_file_rejects_malformed(mangle, message):
    _, knee = trained_pair()
    data = model_to_dict(knee)
    mangle(data)
    with pytest.raises(ValueError, match=message):
        model_from_dict(data)


# ------------------------------------------------------------- trajectories


def test_demo_csv_has_twelve_fixed_columns(tmp_path, demo_traj):
    write_trajectory(tmp_path / "d.csv", demo_traj)
    header = (tmp_path / "d.csv").read_text().splitlines()[0].split(",")
    assert header == list(FIXED_COLUMNS)
    assert len(header) == 12


def test_knee_trace_adds_six_columns(tmp_path, demo_traj):
    traj = with_traces(demo_traj, (("knee", 3),))
    write_trajectory(tmp_path / "k.csv", traj)
    header = (tmp_path / "k.csv").read_text().splitlines()[0].split(",")
    assert len(header) == 12 + 6
    assert header[12:] == ["knee_G_1", "knee_G_2", "knee_G_3",
                           "knee_pi_1", "knee_pi_2", "knee_pi_3"]
    assert header[12:] == trace_columns("knee", 3)


def reference_csv(traj) -> bytes:
    """A trajectory CSV with every value formatted on its own: f"{v:.17g}"
    per double, the phase and contact as integers."""
    names = list(FIXED_COLUMNS)
    cols = [getattr(traj, name) for name in FIXED_COLUMNS[:10]]
    for model_name, trace in traj.traces.items():
        for f, block in (("G", trace.G), ("pi", trace.pi)):
            names += [f"{model_name}_{f}_{k + 1}" for k in range(block.shape[1])]
            cols += list(block.T)
    lines = [",".join(names)]
    for i in range(len(traj)):
        fields = [f"{c[i]:.17g}" for c in cols[:10]]
        fields += [f"{traj.phase[i]:d}", f"{int(traj.contact[i]):d}"]
        fields += [f"{c[i]:.17g}" for c in cols[10:]]
        lines.append(",".join(fields))
    return ("\n".join(lines) + "\n").encode()


SPECIAL_DOUBLES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]


def with_special_doubles(traj):
    """A copy whose float columns start with SPECIAL_DOUBLES, rotated per
    column, and whose contact column alternates."""
    table = traj.table.copy()
    floats = [j for j in range(table.shape[1]) if j not in (10, 11)]
    for k, j in enumerate(floats):
        table[:len(SPECIAL_DOUBLES), j] = np.roll(SPECIAL_DOUBLES, k)
    table[:, 11] = np.arange(len(traj)) % 2 == 0
    return Trajectory(table, traj.models, traj.task)


@pytest.mark.parametrize("driven_by", ["controller", "models"])
def test_trajectory_bytes_match_per_value_format(tmp_path, demo_traj, driven_by):
    if driven_by == "controller":
        traj = demo_traj
    else:
        hip, knee = trained_pair()
        tasks = sample_tasks(SampleRanges(), 1, seed=5)
        traj = evaluate(hip, knee, tasks)[1][0]
        assert list(traj.traces) == ["hip", "knee"]
    for case in (traj, with_special_doubles(traj)):
        write_trajectory(tmp_path / "t.csv", case)
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(case)
    first = [line.split(b",")[0] for line in reference_csv(case).splitlines()[1:7]]
    assert first == [b"nan", b"inf", b"-inf", b"-0", b"4.9406564584124654e-324", b"1e+308"]


def test_trajectory_column_texts_are_the_writers_texts(tmp_path):
    """Every double reads back from the text write_trajectory writes for it:
    in a trace column with its bits (each NaN as a NaN, '%.17g' writes every
    NaN as 'nan'), and in a plant column exactly when it is finite, a
    non-finite one refused, naming line and column; over 10^5 seeded random
    64-bit patterns viewed as doubles, and the edge doubles. A phase or
    contact code reads back exactly when it is one of its column's codes;
    Trajectory refuses any other, naming the file and the row."""
    bits = np.random.default_rng(31).integers(0, 2**64, 10**5, dtype=np.uint64)
    doubles = np.concatenate([bits.view(np.float64), [0.0, -0.0, math.inf, -math.inf,
                                                      math.nan, 5e-324, sys.float_info.max]])

    def rows(values):  # ten to a row, the last row filled up with zeros
        return np.concatenate([values, np.zeros(-len(values) % 10)]).reshape(-1, 10)

    traced, finite = rows(doubles), rows(doubles[np.isfinite(doubles)])
    codes = np.array([[1.0, 0.0]])
    trace = np.hstack([np.zeros_like(traced), codes.repeat(len(traced), 0), traced])
    plant = np.hstack([finite, codes.repeat(len(finite), 0)])
    path = tmp_path / "t.csv"
    for table, models in ((trace, (("a", 5),)), (plant, ())):
        write_trajectory(path, Trajectory(table, models))
        back = read_trajectory(path).table
        nan = np.isnan(table)
        assert np.array_equal(np.isnan(back), nan)
        assert back[~nan].tobytes() == table[~nan].tobytes()
    for x in (math.inf, -math.inf, math.nan):
        table = plant[:2].copy()
        table[1, 3] = x
        write_trajectory(path, Trajectory(table))
        with pytest.raises(ValueError, match=re.escape(
                f"{path} line 3 column 4 (phi_h_dot): got {'%.17g' % x!r}, "
                "expected a finite double") + "$"):
            read_trajectory(path)
    header, row = ",".join(FIXED_COLUMNS), ",".join(["0"] * 10)
    for j, name, values in ((10, "phase", (1, 2, 3)), (11, "contact", (0, 1))):
        for v in range(-1, 5):
            fields = ["1", "0"]
            fields[j - 10] = f"{v:d}"
            path.write_text(f"{header}\n{row},{','.join(fields)}\n")
            if v in values:
                assert read_trajectory(path).table[0, j] == v
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"{path}: a swing's {name} is one of {values} in every row, "
                        f"got {float(v)!r} in row 0") + "$"):
                    read_trajectory(path)


def test_trajectory_round_trip_value_exact(tmp_path, demo_traj):
    traj = with_traces(demo_traj)
    write_trajectory(tmp_path / "t.csv", traj)
    back = read_trajectory(tmp_path / "t.csv")
    for name in FIXED_COLUMNS[:10]:
        assert np.array_equal(getattr(traj, name), getattr(back, name)), name
    assert np.array_equal(traj.phase, back.phase)
    assert np.array_equal(traj.contact, back.contact)
    assert back.timed_out == traj.timed_out
    for model_name, trace in traj.traces.items():
        got = back.traces[model_name]
        for fname in ("G", "pi"):
            assert np.array_equal(getattr(trace, fname), getattr(got, fname))


def test_trajectory_nan_generator_torques_round_trip(tmp_path, demo_traj):
    n = len(demo_traj)
    # knee G of 2 layers, then its pi of 2 layers, as the file has them
    knee = np.repeat([[np.nan, np.nan, 0.5, 0.5]], n, axis=0)
    traj = Trajectory(np.hstack([demo_traj.table, knee]), (("knee", 2),))
    write_trajectory(tmp_path / "n.csv", traj)
    back = read_trajectory(tmp_path / "n.csv")
    assert np.all(np.isnan(back.traces["knee"].G))
    assert np.array_equal(back.traces["knee"].pi, np.full((n, 2), 0.5))


def test_trajectory_bytes_deterministic(tmp_path, demo_traj):
    write_trajectory(tmp_path / "a.csv", demo_traj)
    write_trajectory(tmp_path / "b.csv", demo_traj)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_trajectory_table_layout_is_the_file_row(tmp_path):
    """A swing's table is laid out as its file's rows, for any models:
    Trajectory takes its columns as they stand, and write_trajectory
    writes row i of the table as row i of the file, under trace_columns'
    header."""
    rng = np.random.default_rng(3)
    models = [("a", 2), ("b_c", 8)]
    T = 7
    table = np.column_stack([rng.uniform(-5.0, 5.0, (T, 10)), rng.integers(1, 4, T),
                             rng.integers(0, 2, T), rng.uniform(-60.0, 60.0, (T, 20))])
    traj = Trajectory(table, models)
    for j, name in enumerate(FIXED_COLUMNS[:10]):
        assert np.array_equal(getattr(traj, name), table[:, j]), name
        assert np.shares_memory(getattr(traj, name), table), name
    assert traj.phase.tolist() == table[:, 10].astype(int).tolist()
    assert traj.contact.tolist() == (table[:, 11] == 1.0).tolist()
    assert list(traj.traces) == ["a", "b_c"]
    col = 12
    for name, m in models:
        trace = traj.traces[name]
        assert trace.G.shape == trace.pi.shape == (T, m)
        for k in range(m):
            assert np.array_equal(trace.G[:, k], table[:, col + k]), (name, k)
            assert np.array_equal(trace.pi[:, k], table[:, col + m + k]), (name, k)
        assert np.shares_memory(trace.G, table) and np.shares_memory(trace.pi, table)
        col += 2 * m

    write_trajectory(tmp_path / "t.csv", traj)
    header, *rows = (tmp_path / "t.csv").read_text().splitlines()
    assert header.split(",") == [*FIXED_COLUMNS, *trace_columns("a", 2),
                                 *trace_columns("b_c", 8)]
    assert [[float(v) for v in row.split(",")] for row in rows] == table.tolist()


def test_trajectory_is_one_table_of_its_models_width(demo_traj):
    """A Trajectory holds one table, 12 + 2 sum(m) columns wide for its
    (name, m) models: a table one column too narrow or too wide, a
    plant-only one, a 1-D one, or one of no rows, is refused, naming the
    models. A phase other than 1, 2 or 3 or a contact other than 0 or 1,
    which write_trajectory's '%d' would truncate, is refused, naming the
    column, the value and its row. Its
    columns cannot be rebound and its traces not replaced, so no column
    can disagree with another in length."""
    models = (("hip", 1), ("knee", 3))
    traj = with_traces(demo_traj, models)
    table = traj.table
    for bad in (table[:, :-1], np.hstack([table, table[:, :1]]), table[:, :12], table[:, 0],
                table[:0]):
        with pytest.raises(ValueError, match=re.escape(
                f"a swing of models {models} is a table of 20 columns and one or more rows, "
                f"got shape {bad.shape}")):
            Trajectory(bad, models, traj.task)
    found = np.zeros((2, 12))
    found[:, 10], found[:, 11] = 2.7, 0.5
    contact_only = found.copy()
    contact_only[:, 10] = 2.0
    nan_phase = table.copy()
    nan_phase[5, 10] = np.nan
    for bad, bad_models, message in [
            (found, (), "phase is one of (1, 2, 3) in every row, got 2.7 in row 0"),
            (contact_only, (), "contact is one of (0, 1) in every row, got 0.5 in row 0"),
            (nan_phase, models, "phase is one of (1, 2, 3) in every row, got nan in row 5")]:
        with pytest.raises(ValueError, match=re.escape(f"a swing's {message}") + "$"):
            Trajectory(bad, bad_models)
    for name in ("table", "tau_k", "contact", "traces", "models"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(traj, name, getattr(demo_traj, name))
    with pytest.raises(TypeError):
        traj.traces["knee"] = demo_traj.traces.get("knee")
    assert len(traj) == len(traj.tau_k) == len(traj.traces["knee"].pi) == len(demo_traj)
    # a model list its file's header cannot carry is refused, naming the model
    plant = demo_traj.table
    for bad_models, message in [
            ((("hip x", 1),), "a swing's model name is one or more word characters, got 'hip x'"),
            ((("", 1),), "a swing's model name is one or more word characters, got ''"),
            (((1, 1),), "a swing's model name is one or more word characters, got 1"),
            ((("a", 1), ("a", 1)), "a swing's model 'a' is given twice"),
            ((("a", 1.0),), "model 'a': m must be an integer, got 1.0"),
            ((("a", True),), "model 'a': m must be an integer, got True"),
            ((("a", 0),), "model 'a': m must be >= 1, got 0")]:
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            Trajectory(np.hstack([plant, plant[:, :2]]), bad_models)
    # stored as (name, m) tuples, as read_trajectory gives them back
    assert with_traces(demo_traj, [["a", 1]]).models == (("a", 1),)


def test_trajectory_read_errors_name_lines(tmp_path, demo_traj):
    """A row is refused, naming its line, for its field count, or else for
    the first field whose text its column's format does not give back from
    the field's value, not whatever float() takes, or whose plant value is
    not finite, naming the column; a phase or contact code Trajectory
    refuses is refused naming the file and the row."""
    traj = with_traces(demo_traj)
    write_trajectory(tmp_path / "t.csv", traj)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    header = lines[0].split(",")

    short = "\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]]) + "\n"
    (tmp_path / "short.csv").write_text(short)
    with pytest.raises(ValueError, match="line 4: expected 20 fields, got 19$"):
        read_trajectory(tmp_path / "short.csv")

    (tmp_path / "hdr.csv").write_text("t,phi_h,oops\n")
    with pytest.raises(ValueError, match="line 1: bad trajectory header"):
        read_trajectory(tmp_path / "hdr.csv")

    # a byte that is not UTF-8 is text no column holds, refused by its line
    raw = (tmp_path / "t.csv").read_bytes()
    (tmp_path / "byte.csv").write_bytes(raw.replace(b"t,phi_h,", b"t,\xffhi_h,", 1))
    with pytest.raises(ValueError, match="line 1: bad trajectory header from column 2: "):
        read_trajectory(tmp_path / "byte.csv")
    field = lines[1].split(",")[1]
    (tmp_path / "byte.csv").write_bytes(raw.replace(
        f",{field},".encode(), f",\udcff{field[1:]},".encode(errors="surrogateescape"), 1))
    with pytest.raises(ValueError, match=re.escape(
            f"line 2 column 2 (phi_h): got {chr(0xdcff) + field[1:]!r}, "
            "which '%.17g' never writes") + "$"):
        read_trajectory(tmp_path / "byte.csv")

    def wrote(value, text, fmt="'%.17g'"):
        return f"but {fmt} writes {value} as {text!r}"

    never = "which '%.17g' never writes"
    plant = "expected a finite double"
    path = tmp_path / "int.csv"
    for col, value, expected in [(4, "not-a-number", never),
                                 (10, "2.7", wrote(2.7, "2", "'%d'")),
                                 (10, "1.0", wrote(1.0, "1", "'%d'")),
                                 (10, "9", None),
                                 (10, "nan", "which '%d' never writes"),
                                 (11, "0.5", wrote(0.5, "0", "'%d'")),
                                 (11, "-3", None),
                                 (0, "nan", plant), (4, "inf", plant),
                                 (7, "-inf", plant), (9, "nan", plant),
                                 # what float() takes but '%.17g' never gives
                                 (1, "1_0", wrote(10.0, "10")), (2, " 2 ", wrote(2.0, "2")),
                                 (3, "Infinity", wrote("inf", "inf")),
                                 (5, "+1e0", wrote(1.0, "1")),
                                 (6, "1E+05", wrote(100000.0, "100000")),
                                 (8, "\u0663", wrote(3.0, "3")),
                                 (12, "-nan", wrote("nan", "nan")),
                                 (13, "Infinity", wrote("inf", "inf")),
                                 (14, "1_0", wrote(10.0, "10")), (15, " 2 ", wrote(2.0, "2")),
                                 (16, "+1e0", wrote(1.0, "1")),
                                 (17, "1E+05", wrote(100000.0, "100000")),
                                 (19, "\u0663", wrote(3.0, "3")),
                                 # a leading zero, a trailing zero, more digits than 17
                                 (5, "03.8", wrote(3.8, "3.7999999999999998")),
                                 (1, "0.000", wrote(0.0, "0")), (2, "1.0", wrote(1.0, "1")),
                                 (3, "3.8397243543875250",
                                  wrote(3.839724354387525, "3.839724354387525")),
                                 (9, "1234567890123456789012345",
                                  wrote(1.2345678901234568e+24, "1.2345678901234568e+24"))]:
        parts = lines[3].split(",")
        parts[col] = value
        path.write_text("\n".join(lines[:3] + [",".join(parts)]) + "\n", encoding="utf-8")
        if expected is None:  # Trajectory's refusal, naming the row
            codes = "(1, 2, 3)" if col == 10 else "(0, 1)"
            message = (f"{path}: a swing's {header[col]} is one of {codes} in every row, "
                       f"got {float(value)!r} in row 2")
        else:
            message = f"line 4 column {col + 1} ({header[col]}): got {value!r}, {expected}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            read_trajectory(path)
    assert float("1_0") == 10.0 and float("\u0663") == 3.0 and math.isnan(float("-nan"))


def test_trajectory_refuses_the_first_fault_in_file_order(tmp_path, demo_traj):
    """A row is checked whole before the next is read, a non-finite plant
    value with the other faults: a NaN on line 3 is refused before a field
    '%.17g' does not write on line 5."""
    write_trajectory(tmp_path / "t.csv", demo_traj)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    for lineno, col, value in ((3, 0, "nan"), (5, 5, "03.8")):
        parts = lines[lineno - 1].split(",")
        parts[col] = value
        lines[lineno - 1] = ",".join(parts)
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / 't.csv'} line 3 column 1 (t): got 'nan', expected a finite double")
            + "$"):
        read_trajectory(tmp_path / "t.csv")


def test_reading_a_trajectory_keeps_no_memory_once_dropped(tmp_path):
    """A fresh interpreter writes a 20-column and a 12-column swing of 3,000
    rows, then reads each back twice and drops the tables: tracemalloc's
    current total stays within 64 KB of its value before the reads. A
    tuple of each row's values, freed, stays on CPython's tuple free lists,
    which kept about 390 KB and 265 KB here."""
    package_root = str(Path(grpleg.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH"))
                                         if p)}
    script = """if True:
        import sys, tracemalloc
        import numpy as np
        from grpleg.cli_io import read_trajectory, write_trajectory
        from grpleg.experiment import Trajectory
        rng = np.random.default_rng(4)
        paths = []
        for models in ((("hip", 1), ("knee", 3)), ()):
            table = rng.uniform(-4.0, 4.0, (3000, 12 + 2 * sum(m for _, m in models)))
            table[:, 10], table[:, 11] = 1.0, 0.0
            paths.append(path := f"{sys.argv[1]}/t{table.shape[1]}.csv")
            write_trajectory(path, Trajectory(table, models))
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for path in paths:
            for _ in range(2):
                read_trajectory(path)
        kept = tracemalloc.get_traced_memory()[0] - before
        assert kept < 64 * 1024, f"{kept / 1024:.0f} KB kept"
    """
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("ending, last", [("\r\n", "\r\n"), ("\n", ""), ("\r\n", "")],
                         ids=["crlf", "no-final-newline", "crlf-no-final-newline"])
def test_trajectory_reads_other_line_ends(tmp_path, demo_traj, ending, last):
    """A trajectory file whose lines end in \\r\\n, or whose last line has
    no line end, reads back to the table's bits and its models."""
    traj = with_traces(demo_traj)
    write_trajectory(tmp_path / "t.csv", traj)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "v.csv").write_bytes((ending.join(lines) + last).encode())
    back = read_trajectory(tmp_path / "v.csv")
    assert back.table.tobytes() == traj.table.tobytes()
    assert back.models == traj.models


@pytest.mark.parametrize("join, lineno, col", [
    (lambda lines: "\r".join(lines) + "\r", 1, 12),
    (lambda lines: "\n".join([*lines[:3], lines[3].replace(",", ",\r", 1), *lines[4:]]), 4, 2),
    (lambda lines: "\n".join(lines) + "\r", -1, 12),
], ids=["lone-cr-line-ends", "cr-in-a-row", "lone-cr-last-line-end"])
def test_trajectory_refuses_a_carriage_return_not_ending_a_line(tmp_path, demo_traj, join,
                                                               lineno, col):
    """A \\r that is not part of a \\r\\n line end is refused, naming its
    line (-1: the last) and column and quoting nothing of the file: so a
    file whose lines end in a lone \\r, which reads as one line, is
    refused at line 1."""
    write_trajectory(tmp_path / "t.csv", demo_traj)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "v.csv").write_bytes(join(lines).encode())
    lineno = lineno % (len(lines) + 1)
    with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / 'v.csv'} line {lineno} column {col}: a \\r not ending the line") + "$"):
        read_trajectory(tmp_path / "v.csv")


def test_trajectory_is_written_as_utf8_under_any_locale(tmp_path, demo_traj):
    """write_trajectory writes UTF-8, what read_trajectory reads, whatever
    the locale: under the C locale, with neither locale coercion nor UTF-8
    mode, a swing of the model 'hüft' writes and reads back to its table's
    bits, and each file, an ASCII header's too, has the bytes a UTF-8
    locale gives."""
    package_root = str(Path(grpleg.__file__).resolve().parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH"))
                                         if p)}
    table = with_traces(demo_traj, (("hip", 1),)).table
    np.save(tmp_path / "table.npy", table)
    script = """if True:
        import locale, sys
        import numpy as np
        from grpleg.cli_io import read_trajectory, write_trajectory
        from grpleg.experiment import Trajectory
        assert locale.getpreferredencoding(False) == "ANSI_X3.4-1968"
        table = np.load(sys.argv[1])
        for k, name in enumerate(("h\\u00fcft", "hip")):  # the script is ASCII
            path = f"{sys.argv[2]}/c{k}.csv"
            write_trajectory(path, Trajectory(table, ((name, 1),)))
            back = read_trajectory(path)
            assert back.table.tobytes() == table.tobytes() and back.models == ((name, 1),)
    """
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "table.npy"),
                           str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for k, name in enumerate(("hüft", "hip")):
        write_trajectory(tmp_path / f"{k}.csv", Trajectory(table, ((name, 1),)))
        assert (tmp_path / f"c{k}.csv").read_bytes() == (tmp_path / f"{k}.csv").read_bytes()
    assert (tmp_path / "0.csv").read_bytes().startswith(
        (",".join(FIXED_COLUMNS) + ",hüft_G_1,hüft_pi_1\n").encode())


@pytest.mark.parametrize("brk", ["\f", "\v", "\x1c", "\x85", "\u2028"],
                         ids=["form-feed", "vertical-tab", "file-separator", "next-line",
                              "line-separator"])
@pytest.mark.parametrize("where", ["end", "inside"])
def test_trajectory_refuses_a_line_break_inside_a_row(tmp_path, demo_traj, brk, where):
    """str.splitlines breaks a line at a form feed and the like, a text
    file's lines do not, and float() takes most of them at either end of a
    value as whitespace: a row holding one is refused, naming its line,
    its column and the field's text, not parsed."""
    assert float("1.5\f") == float("\u2028 1.5") == 1.5
    write_trajectory(tmp_path / "t.csv", demo_traj)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    parts = lines[3].split(",")
    col = 11 if where == "end" else 4
    parts[col] += brk
    (tmp_path / "b.csv").write_text("\n".join(lines[:3] + [",".join(parts)] + lines[4:]) + "\n",
                                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"line 4 column {col + 1} ({FIXED_COLUMNS[col]}): got {parts[col]!r}, ")
            + "(but|which) '%"):
        read_trajectory(tmp_path / "b.csv")


TRACE_HEADER_CASES = [
    # (trace columns, what is wrong, where the error says they go wrong)
    ("hip_G_1", "lone column", "column 13: got 'hip_G_1', expected ''"),
    ("hip_G_1,hip_q_1", "bad trace column", "column 14: got 'hip_q_1', expected 'hip_pi_1'"),
    ("hip_G_1,hip_pi_2", "mismatched trace pair",
     "column 14: got 'hip_pi_2', expected 'hip_pi_1'"),
    ("hip_G_2,hip_pi_2", "out of order", "column 13: got 'hip_G_2,.*', expected 'hip_G_1,"),
    ("hip_G_1,hip_G_3,hip_pi_1,hip_pi_3", "index jump",
     "column 14: got 'hip_G_3,.*', expected 'hip_G_2,"),
    # each model's G block comes before its pi block: a G, pi pair per layer is refused
    ("hip_G_1,hip_pi_1,hip_G_2,hip_pi_2", "interleaved",
     "column 14: got 'hip_pi_1,.*', expected 'hip_G_2,"),
    # a model name is one or more word characters, a layer index has no
    # leading zero, and each model's columns form one block
    ("_G_1,_pi_1", "empty model name", "column 13: got '_G_1,_pi_1', expected ''"),
    ("hip x_G_1,hip x_pi_1", "space in model name", "column 13: got 'hip x_G_1,"),
    ("hip_G_01,hip_pi_01", "leading zero", "column 13: got 'hip_G_01,.*', expected 'hip_G_1,"),
    ("hip_G_1,hip_G_2,knee_G_1,knee_pi_1,hip_pi_1,hip_pi_2",
     "split block", "column 15: got 'knee_G_1,.*', expected 'hip_pi_1,"),
]


@pytest.mark.parametrize("extra, case, message", TRACE_HEADER_CASES,
                         ids=[case for _, case, _ in TRACE_HEADER_CASES])
def test_trajectory_trace_header_validation(tmp_path, extra, case, message):
    header = ",".join(FIXED_COLUMNS) + "," + extra
    width = len(header.split(","))
    row = ",".join(["0"] * width)
    (tmp_path / "t.csv").write_text(header + "\n" + row + "\n")
    with pytest.raises(ValueError, match="line 1: bad trajectory header from " + message):
        read_trajectory(tmp_path / "t.csv")


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "fixture"


@pytest.mark.parametrize("name, m", [("hip", 1), ("knee", 3)])
def test_grp_config_defaults_are_the_recorded_models(name, m):
    """GrpConfig's defaults are the one set the run uses: with only m
    given, they are the config block of the committed default-trained
    model and the run's default for that joint."""
    recorded = json.loads((FIXTURE_DIR / f"{name}.json").read_text())["config"]
    assert grp_config_to_dict(GrpConfig(m=m)) == recorded
    assert getattr(RunConfig(), name) == GrpConfig(m=m)


def test_cli_trajectory_files_round_trip_byte_for_byte(tmp_path, capsys):
    """Every CSV that `demo` and `eval` write reads back into a Trajectory
    that write_trajectory turns into the same bytes: the reader and the
    writer agree on the header and on every value."""
    for name in ("hip.json", "knee.json"):
        (tmp_path / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    assert cli_io.cli(["eval", "--n", "2", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert cli_io.cli(["demo", "--n", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    names = ["eval_001.csv", "eval_002.csv", "demo_001.csv", "demo_002.csv"]
    for name in names:
        traj = read_trajectory(tmp_path / name)
        assert list(traj.traces) == (["hip", "knee"] if name.startswith("eval") else [])
        write_trajectory(tmp_path / "again.csv", traj)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / name).read_bytes(), name


def sha256_of(directory: Path, names: list[str]) -> str:
    """One sha256 over the named files' bytes, in order."""
    digest = hashlib.sha256()
    for name in names:
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


def test_cli_demo_and_fixture_eval_write_the_recorded_bytes(tmp_path, capsys):
    """The default demo and the fixture models' default eval write the
    recorded bytes; this test is the one place that pins them. The eval's
    landing errors and timeout count are perfbench/fixture/fixture.json's
    `eval_at_default_seed`, read from that file. Every CSV of both reads
    back and writes again to its own bytes. A one-swing eval writes the
    20-swing eval's first CSV byte for byte: a lone swing's (1, 8) forward
    block gives each row its bits."""
    demo, ev, ev1 = tmp_path / "demo", tmp_path / "ev", tmp_path / "ev1"
    assert cli_io.cli(["demo", "--out", str(demo)]) == 0
    demo_csvs = [f"demo_{i:03d}.csv" for i in range(1, 41)]
    assert sha256_of(demo, demo_csvs + ["manifest.json"]) == (
        "b605e72902488a1189b51f99764d2311efed238cebbbcb181becfb8518c41b4d")

    for out in (ev, ev1):
        out.mkdir()
        for name in ("hip.json", "knee.json"):
            (out / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    assert cli_io.cli(["eval", "--out", str(ev)]) == 0
    assert cli_io.cli(["eval", "--n", "1", "--out", str(ev1)]) == 0
    capsys.readouterr()
    report = json.loads((ev / "report.json").read_text())
    recorded = json.loads((FIXTURE_DIR / "fixture.json").read_text())["eval_at_default_seed"]
    assert {key: report[key] for key in ("avg_error_deg", "max_error_deg", "timeout_count",
                                         "active_generators", "peak_pi")} == {
        **{key: recorded[key] for key in ("avg_error_deg", "max_error_deg", "timeout_count")},
        "active_generators": {"hip": 1, "knee": 3},
        "peak_pi": {"hip": [0.9999999999994058],
                    "knee": [0.9999999999999999, 0.534315838093038, 0.49998614864984764]},
    }
    eval_csvs = [f"eval_{i:03d}.csv" for i in range(1, 21)]
    assert sha256_of(ev, eval_csvs + ["report.json"]) == (
        "4462adbecaa72f3aeb8a781ee9773eb26f26cdcff093df32dc1c48d0dffb993d")
    assert (ev1 / "eval_001.csv").read_bytes() == (ev / "eval_001.csv").read_bytes()

    again = tmp_path / "again.csv"
    for path in [demo / name for name in demo_csvs] + [ev / name for name in eval_csvs]:
        write_trajectory(again, read_trajectory(path))
        assert again.read_bytes() == path.read_bytes(), path.name


# ------------------------------------------------------------------ reports


def report_fixture():
    return EvalReport(
        alpha_tgt_deg=np.array([60.0, 70.0]),
        alpha_end_deg=np.array([62.0, 66.0]),
        timed_out=np.array([False, True]),
        peak_pi={"hip": np.array([0.97]), "knee": np.array([0.8, 0.6, 0.01])},
    )


def test_report_round_trip(tmp_path):
    rep = report_fixture()
    write_report(tmp_path / "r.json", rep)
    back = read_report(tmp_path / "r.json")
    assert np.array_equal(back.error_deg, rep.error_deg)
    assert np.array_equal(back.timed_out, rep.timed_out)
    assert back.avg_error_deg == 3.0 and back.max_error_deg == 4.0
    assert back.active_generators == rep.active_generators
    assert np.array_equal(back.peak_pi["knee"], rep.peak_pi["knee"])


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda d: d.update(avg_error_deg="3"), "avg_error_deg must be a float, got '3'"),
        (lambda d: d.update(max_error_deg=True), "max_error_deg must be a float, got True"),
        (lambda d: d["active_generators"].update(hip=1.7),
         "active_generators.hip must be an integer, got 1.7"),
        (lambda d: d.update(trajectories=5), "trajectories must be a list, got 5"),
        (lambda d: d["trajectories"][0].update(error_deg="2"),
         "trajectories\\[0\\].error_deg must be a float, got '2'"),
        (lambda d: d["trajectories"][1].update(timed_out=1),
         "trajectories\\[1\\].timed_out must be true or false, got 1"),
        (lambda d: d["trajectories"][1].pop("alpha_end_deg"),
         "missing key 'trajectories\\[1\\].alpha_end_deg'"),
        (lambda d: d.pop("peak_pi"), "missing key 'peak_pi'"),
        (lambda d: d["peak_pi"].update(knee=[0.5, math.nan]),
         "peak_pi.knee has non-finite value nan"),
        # aggregates are derived from the swings; one that disagrees would be
        # written back as the derived value, so it is refused
        (lambda d: d.update(timeout_count=7),
         "timeout_count is 7 but the trajectories and peak_pi give 1"),
        (lambda d: d.update(timeout_count=True), "timeout_count must be an integer, got True"),
        (lambda d: d.update(avg_error_deg=3.0000000000000004),
         "avg_error_deg is 3.0000000000000004 but the trajectories and peak_pi give 3.0"),
        (lambda d: d.update(max_error_deg=2.0),
         "max_error_deg is 2.0 but the trajectories and peak_pi give 4.0"),
        (lambda d: d["trajectories"][0].update(error_deg=2.5),
         "trajectories\\[0\\].error_deg is 2.5 but the trajectories and peak_pi give 2.0"),
        # each swing's error is its own angles' difference: swapped errors
        # keep the average and maximum but are refused
        (lambda d: [s.update(error_deg=e) for s, e in zip(d["trajectories"], (4.0, 2.0))],
         "trajectories\\[0\\].error_deg is 4.0 but the trajectories and peak_pi give 2.0"),
        (lambda d: d["trajectories"][0].update(timed_out=True),
         "timeout_count is 1 but the trajectories and peak_pi give 2"),
        (lambda d: d.update(trajectories=[]), "trajectories must not be empty"),
        # active generators are counted from peak_pi, one count per model
        (lambda d: d["active_generators"].update(knee=3),
         "active_generators.knee is 3 but the trajectories and peak_pi give 2"),
        (lambda d: d["active_generators"].update(hip=0),
         "active_generators.hip is 0 but the trajectories and peak_pi give 1"),
        (lambda d: d["peak_pi"].update(knee=[0.8, 0.1, 0.01]),
         "active_generators.knee is 2 but the trajectories and peak_pi give 1"),
        (lambda d: d["active_generators"].update(ankle=0),
         "unknown key 'active_generators.ankle'"),
        (lambda d: d["active_generators"].pop("knee"),
         "missing key 'active_generators.knee'"),
        (lambda d: d.update(active_generators={"hip": 9, "knee": 0, "ankle": 4}),
         "unknown key 'active_generators.ankle'"),
        (lambda d: d["active_generators"].update(knee=True),
         "active_generators.knee must be an integer, got True"),
        # each number has the type the writer writes it in, and every key is the writer's
        (lambda d: d.update(avg_error_deg=3), "avg_error_deg must be a float, got 3"),
        (lambda d: d["peak_pi"].update(hip=[1]), "peak_pi.hip\\[0\\] must be a float, got 1"),
        (lambda d: d["trajectories"][1].update(alpha_tgt_deg=70),
         "trajectories\\[1\\].alpha_tgt_deg must be a float, got 70"),
        (lambda d: d.update(timeout_count=1.0), "timeout_count must be an integer, got 1.0"),
        (lambda d: d.update(median_error_deg=3.0), "unknown key 'median_error_deg'"),
        (lambda d: d.pop("max_error_deg"), "missing key 'max_error_deg'"),
        (lambda d: d.pop("trajectories"), "missing key 'trajectories'"),
        (lambda d: d.update(avg_error_deg=math.nan), "avg_error_deg has non-finite value nan"),
    ],
    ids=["avg-str", "max-bool", "active-float", "trajectories-int", "error-str",
         "timed_out-int", "alpha_end-missing", "peak_pi-missing", "peak-nan",
         "timeout_count-off", "timeout_count-bool", "avg-off-by-one-ulp", "max-off",
         "swing-error-changed", "swing-errors-swapped", "swing-timed_out-changed",
         "trajectories-empty",
         "active-off", "active-hip-zero", "peak-at-threshold", "active-extra-model",
         "active-missing-model", "active-contradicting", "active-bool",
         "avg-int", "peak-int", "alpha_tgt-int", "timeout_count-float", "top-unknown",
         "max-missing", "trajectories-missing", "avg-nan"],
)
def test_report_rejects_malformed(mangle, message):
    data = report_to_dict(report_fixture())
    mangle(data)
    with pytest.raises(ValueError, match=message):
        report_from_dict(data)


@pytest.mark.parametrize("reader, fault, message", [
    (load_model, lambda d: d["config"].pop("m"), "missing key 'config.m'"),
    (load_model, lambda d: d["config"].pop("mu"), "missing key 'config.mu'"),
    (read_report, lambda d: d.pop("max_error_deg"), "missing key 'max_error_deg'"),
    (load_run_config, lambda d: d["hip"].update(foo=1), "unknown key 'hip.foo'"),
], ids=["model-config.m", "model-config.mu", "report-max_error_deg", "config-hip.foo"])
def test_a_key_fault_reads_alike_in_every_json_file(tmp_path, reader, fault, message):
    """A missing or unknown key of a config file, a model file or a report is
    refused in one wording, by its dotted path after the file's name."""
    write = {load_run_config: lambda p: save_run_config(p, RunConfig()),
             load_model: lambda p: save_model(p, trained_pair()[1]),
             read_report: lambda p: write_report(p, report_fixture())}[reader]
    path = tmp_path / "f.json"
    write(path)
    data = json.loads(path.read_text())
    fault(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}: {message}"


def test_report_refuses_derived_values_the_writer_cannot_write():
    """Finite angles whose difference overflows give an infinite error, which
    write_report cannot write: the file that holds one is refused, and numpy
    warns of nothing on the way."""
    data = report_to_dict(report_fixture())
    data["trajectories"][0].update(alpha_tgt_deg=1e308, alpha_end_deg=-1e308, error_deg=math.inf)
    data.update(avg_error_deg=math.inf, max_error_deg=math.inf)
    with pytest.raises(ValueError,
                       match=re.escape("trajectories[0].error_deg has non-finite value inf")):
        report_from_dict(data)


def test_report_aggregates_recomputable(tmp_path):
    write_report(tmp_path / "r.json", report_fixture())
    data = json.loads((tmp_path / "r.json").read_text())
    errs = [e["error_deg"] for e in data["trajectories"]]
    assert data["avg_error_deg"] == np.mean(errs)
    assert data["max_error_deg"] == max(errs)
    assert data["timeout_count"] == sum(e["timed_out"] for e in data["trajectories"])
    assert data["trajectories"][1]["timed_out"] is True


# -------------------------------------------------------------------- cli


def test_cli_demo_writes_files_and_manifest(tmp_path, capsys):
    rc = cli_io.cli(["demo", "--n", "2", "--seed", "1",
                     "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"] == ["demo_001.csv", "demo_002.csv"]
    assert all((tmp_path / f).exists() for f in manifest["files"])
    # one landing-error formula, in the report: each error is its angles'
    # difference and the average their mean, exactly
    tgt, end, err = (np.array(manifest[key])
                     for key in ("alpha_tgt_deg", "alpha_end_deg", "error_deg"))
    assert err.tolist() == np.abs(tgt - end).tolist()
    assert manifest["avg_error_deg"] == np.mean(err)
    assert "avg" in capsys.readouterr().out


@pytest.mark.parametrize("command, files", [
    ("demo", ["demo_001.csv", "manifest.json"]),
    ("eval", ["eval_001.csv", "hip.json", "knee.json", "report.json"]),
])
def test_cli_leaves_no_numbered_csv_of_an_earlier_larger_run(tmp_path, capsys, command, files):
    """demo and eval first remove each `{command}_<digits>.csv` in --out
    that the run does not write, a zero-padded other spelling included: a
    3-swing run then a 1-swing run leaves exactly the second run's files,
    and every file of another name."""
    for name in ("hip.json", "knee.json") if command == "eval" else ():
        (tmp_path / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    assert cli_io.cli([command, "--n", "3", "--out", str(tmp_path)]) == 0
    other = "eval" if command == "demo" else "demo"
    kept = ["notes.csv", f"{command}_x.csv", f"{other}_002.csv"]
    for name in [*kept, f"{command}_0002.csv"]:
        (tmp_path / name).write_text("kept\n")
    assert cli_io.cli([command, "--n", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({*files, *kept})
    assert all((tmp_path / name).read_text() == "kept\n" for name in kept)
    if command == "demo":
        assert json.loads((tmp_path / "manifest.json").read_text())["files"] == ["demo_001.csv"]
    else:
        assert len(read_report(tmp_path / "report.json").error_deg) == 1


def test_cli_train_then_eval_then_dump(tmp_path, capsys):
    cfg = RunConfig(episodes=2, demo_count=2, eval_count=1)
    save_run_config(tmp_path / "cfg.json", cfg)
    args = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]

    assert cli_io.cli(["train"] + args) == 0
    assert (tmp_path / "hip.json").exists()
    assert (tmp_path / "knee.json").exists()
    log = json.loads((tmp_path / "train_log.json").read_text())
    assert len(log["hip_mean_abs_e"]) == 2
    assert len(log["knee_mean_abs_e"][0]) == cfg.knee.m

    assert cli_io.cli(["eval"] + args) == 0
    rep = read_report(tmp_path / "report.json")
    assert rep.error_deg.size == 1
    assert (tmp_path / "eval_001.csv").exists()
    traj = read_trajectory(tmp_path / "eval_001.csv")
    assert set(traj.traces) == {"hip", "knee"}
    header = (tmp_path / "eval_001.csv").read_text().split("\n", 1)[0].split(",")
    assert header == [*FIXED_COLUMNS, "hip_G_1", "hip_pi_1", "knee_G_1", "knee_G_2",
                      "knee_G_3", "knee_pi_1", "knee_pi_2", "knee_pi_3"]
    assert header[12:] == trace_columns("hip", 1) + trace_columns("knee", 3)

    assert cli_io.cli(["dump-weights", "--out", str(tmp_path)]) == 0
    weights = json.loads((tmp_path / "weights.json").read_text())
    assert weights["knee"]["m"] == 3
    assert len(weights["knee"]["layers"]) == 3
    capsys.readouterr()


def test_cli_train_rolls_only_the_demos_its_episodes_use(tmp_path, monkeypatch, capsys):
    """Episode e trains on demo e % demo_count, so a 3-episode run rolls 3
    demonstrations of the default 40, and writes the bytes a run with
    demo_count 3 writes."""
    rolled = []

    def counted(*args, **kwargs):
        rolled.append(args[0])
        return run_demo_episode(*args, **kwargs)

    monkeypatch.setattr(experiment, "run_demo_episode", counted)
    outs = []
    for data in ({"episodes": 3}, {"episodes": 3, "demo_count": 3}):
        out = tmp_path / str(len(outs))
        out.mkdir()
        (out / "cfg.json").write_text(json.dumps(data))
        rolled.clear()
        assert cli_io.cli(["train", "--config", str(out / "cfg.json"), "--out", str(out)]) == 0
        assert len(rolled) == 3
        outs.append(out)
    capsys.readouterr()
    for name in ("hip.json", "knee.json", "train_log.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_train_writes_the_bytes_of_library_training_on_a_list(tmp_path, capsys):
    """`grpleg train` hands train a generator that rolls each demo as it is
    read; its models and log are byte for byte those of training on the
    list of the same demos, with more demos than episodes and cycling."""
    for episodes, demo_count in ((2, 3), (5, 2)):
        cfg = RunConfig(episodes=episodes, demo_count=demo_count)
        cli_dir, lib_dir = tmp_path / f"cli{episodes}", tmp_path / f"lib{episodes}"
        lib_dir.mkdir()
        save_run_config(tmp_path / "cfg.json", cfg)
        assert cli_io.cli(["train", "--config", str(tmp_path / "cfg.json"),
                           "--out", str(cli_dir)]) == 0
        demos = [run_demo_episode(task, init, cfg.gains, cfg.params, cfg.dt, cfg.timeout)
                 for task, init in sample_tasks(cfg.ranges, demo_count, cfg.demo_seed,
                                                cfg.gains, cfg.params)]
        hip, knee = grp.init(cfg.hip), grp.init(cfg.knee)
        logs = train([(hip, "tau_h"), (knee, "tau_k")], demos, episodes)
        save_model(lib_dir / "hip.json", hip)
        save_model(lib_dir / "knee.json", knee)
        cli_io._dump_json(lib_dir / "train_log.json", cli_io.train_log_to_dict(*logs))
        for name in ("hip.json", "knee.json", "train_log.json"):
            assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes(), name
    capsys.readouterr()


def test_cli_train_holds_the_corpus_once(tmp_path, capsys):
    """A 40-episode train on the default 40-demo corpus keeps each demo
    only as its input and reference rows, about 1.0 MB traced; holding
    every swing table beside them as well peaked at 2.3 MB. The first call
    warms every lazily built cache."""
    (tmp_path / "cfg.json").write_text('{"episodes": 40}')
    args = ["train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]
    assert cli_io.cli(["train", "--episodes", "1", "--out", str(tmp_path)]) == 0
    tracemalloc.start()
    try:
        assert cli_io.cli(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 1.5e6, f"traced peak {peak / 1e6:.2f} MB"


def test_cli_demo_holds_one_swing_at_a_time(tmp_path, capsys):
    """A default 40-swing demo writes each swing as it rolls and keeps of
    it only what its report reads, about 0.22 MB traced; holding every
    swing to the end peaked at 1.46 MB, and grew by about 32 KB a swing.
    The first call warms every lazily built cache."""
    assert cli_io.cli(["demo", "--n", "1", "--out", str(tmp_path)]) == 0
    tracemalloc.start()
    try:
        assert cli_io.cli(["demo", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 1e6, f"traced peak {peak / 1e6:.2f} MB"


def test_cli_eval_holds_each_swing_as_packed_doubles(tmp_path, capsys):
    """A default 20-swing eval of the fixture models keeps each swing as
    packed doubles from rollout to CSV, about 2.1 MB traced; a Python float
    per value, in the rollout's per-tick row tuples and the writer's
    whole-swing lists and text, peaked at 8.4 MB. Reading its 20 CSVs back
    one at a time peaks 0.17 MB above what was held before, one swing's
    packed table and a line; a list of float lists per file peaked at 0.88
    MB. The first calls warm every lazily built cache."""
    for name in ("hip.json", "knee.json"):
        (tmp_path / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    assert cli_io.cli(["eval", "--n", "1", "--out", str(tmp_path)]) == 0
    read_trajectory(tmp_path / "eval_001.csv")
    tracemalloc.start()
    try:
        assert cli_io.cli(["eval", "--out", str(tmp_path)]) == 0
        eval_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        for i in range(1, 21):
            read_trajectory(tmp_path / f"eval_{i:03d}.csv")
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert eval_peak < 4e6, f"eval traced peak {eval_peak / 1e6:.2f} MB"
    assert read_peak < 0.4e6, f"read traced peak {read_peak / 1e6:.2f} MB"


def test_cli_train_layers_override(tmp_path):
    cfg = RunConfig(episodes=1, demo_count=1)
    save_run_config(tmp_path / "cfg.json", cfg)
    rc = cli_io.cli(["train", "--config", str(tmp_path / "cfg.json"),
                     "--layers", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert load_model(tmp_path / "knee.json").m == 2
    assert load_model(tmp_path / "hip.json").m == 1


TRAIN_FLAGS = ["--episodes", "1", "--seed", "5", "--layers", "2"]


@pytest.mark.parametrize("command, flags, base, config", [
    pytest.param("demo", ["--n", "2", "--seed", "3"], None,
                 {"demo_count": 2, "demo_seed": 3}, id="demo"),
    pytest.param("eval", ["--n", "1", "--seed", "7"], None,
                 {"eval_count": 1, "eval_seed": 7}, id="eval"),
    pytest.param("train", TRAIN_FLAGS, None,
                 {"episodes": 1, "hip": {"seed": 5}, "knee": {"seed": 5, "m": 2}}, id="train"),
    pytest.param("train", TRAIN_FLAGS,
                 {"episodes": 3, "demo_count": 2, "hip": {"seed": 8},
                  "knee": {"seed": 8, "m": 4, "mu": 2e-6}},
                 {"episodes": 1, "demo_count": 2, "hip": {"seed": 5},
                  "knee": {"seed": 5, "m": 2, "mu": 2e-6}}, id="train-flags-over-config"),
])
def test_cli_flag_gives_the_run_of_the_config_field_it_sets(tmp_path, capsys, command,
                                                            flags, base, config):
    """Each flag sets the RunConfig field it names, over --config's value
    and leaving the file's other fields as they are: a run with the flags
    (on `base`, when given) writes every file byte for byte, and prints
    the line, of a run with `config` alone. demo's --n and --seed are
    demo_count and demo_seed, eval's eval_count and eval_seed, and train's
    --episodes, --seed and --layers episodes, both models' seed and knee.m."""
    outs = []
    for name, data, argv in (("flags", base, flags), ("config", config, [])):
        out = tmp_path / name
        out.mkdir()
        if command == "eval":
            for model in ("hip.json", "knee.json"):
                (out / model).write_bytes((FIXTURE_DIR / model).read_bytes())
        if data is not None:
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
            argv = [*argv, "--config", str(tmp_path / f"{name}.json")]
        assert cli_io.cli([command, "--out", str(out), *argv]) == 0
        outs.append((out, capsys.readouterr().out.replace(str(out), "OUT")))
    (flag_out, flag_line), (config_out, config_line) = outs
    assert flag_line == config_line
    names = sorted(path.name for path in flag_out.iterdir())
    assert names == sorted(path.name for path in config_out.iterdir())
    for name in names:
        assert (flag_out / name).read_bytes() == (config_out / name).read_bytes(), name


def test_cli_eval_without_models_fails(tmp_path, capsys):
    rc = cli_io.cli(["eval", "--out", str(tmp_path)])
    assert rc == 1
    assert "hip.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "dump-weights"])
def test_cli_model_readers_leave_a_missing_directory_missing(tmp_path, capsys, command):
    """eval and dump-weights read their models from --out: a directory
    that does not exist is refused, not made."""
    out = tmp_path / "nope"
    assert cli_io.cli([command, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: no model file at {out / 'hip.json'} (run train first)\n")
    assert not out.exists()


def write_model_pair(out, knee_weight=None):
    """Save a fresh hip (m=1) and knee (m=3) to `out`, and return the knee;
    knee_weight, if given, is the knee's layer-1 Generator weight W[0, 0]."""
    hip, knee = grp.init(GrpConfig(m=1)), grp.init(GrpConfig(m=3))
    if knee_weight is not None:
        knee.W[1][0, 0] = knee_weight
    save_model(out / "hip.json", hip)
    save_model(out / "knee.json", knee)
    return knee


def test_cli_dump_weights_norms_a_huge_weight_without_overflow(tmp_path, capsys):
    """A weight of 1e200 squares past the largest double; the layer's norm
    is still reported, finite, with no numpy warning."""
    knee = write_model_pair(tmp_path, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_io.cli(["dump-weights", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    weights = json.loads((tmp_path / "weights.json").read_text())
    norm = weights["knee"]["layers"][1]["W_norm"]
    assert math.isfinite(norm) and norm == pytest.approx(1e200, rel=1e-15)
    assert weights["knee"]["layers"][1]["R_norm"] == pytest.approx(np.linalg.norm(knee.R[1]))


def test_cli_dump_weights_writes_the_recorded_bytes(tmp_path, capsys):
    """dump-weights on the fixture models writes the recorded weights.json, its
    layers the model files' W and R after each layer's norms, and prints the
    recorded summary."""
    for name in ("hip.json", "knee.json"):
        (tmp_path / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    assert cli_io.cli(["dump-weights", "--out", str(tmp_path)]) == 0
    assert sha256_of(tmp_path, ["weights.json"]) == (
        "8955db8e828374e7a7b24d3010cb1400b0f2f7ef1859fe69417cd41b7b4a1952")
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "2944b8efaf419affdfc6bd50a53be553632025e19618698b7ebe7c73863ce476")
    weights = json.loads((tmp_path / "weights.json").read_text())
    for name in ("hip", "knee"):
        layers = json.loads((tmp_path / f"{name}.json").read_text())["layers"]
        assert [{"W": ly["W"], "R": ly["R"]} for ly in weights[name]["layers"]] == layers


def test_cli_dump_weights_names_a_norm_beyond_the_largest_double(tmp_path, capsys):
    """Every knee layer-1 Generator weight at 1e308 gives a norm of 8e308,
    which no double holds: the error names the model and the layer."""
    knee = grp.init(GrpConfig(m=3))
    knee.W[1][:] = 1e308
    save_model(tmp_path / "hip.json", grp.init(GrpConfig(m=1)))
    save_model(tmp_path / "knee.json", knee)
    assert cli_io.cli(["dump-weights", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: knee: layers[1].W norm exceeds the largest double\n")


@pytest.mark.parametrize("command, file, text, key", [
    ("demo", "cfg.json", '{"dt": 1%s}' % ("0" * 400), "dt"),
    ("demo", "cfg.json", '{"params": {"l_t": 1%s}}' % ("0" * 400), "params: l_t"),
    ("dump-weights", "knee.json", None, "gamma"),
], ids=["dt", "params.l_t", "model-gamma"])
def test_cli_refuses_an_integer_too_large_for_a_float(tmp_path, capsys, command, file, text, key):
    """A JSON integer beyond a double's range, in a config or a model
    file, ends in one error line naming the file and the key."""
    path = tmp_path / file
    if text is None:
        write_model_pair(tmp_path)
        text = path.read_text().replace('"gamma": 1.0', '"gamma": 1%s' % ("0" * 400))
    path.write_text(text)
    args = ["--config", str(path)] if command == "demo" else []
    assert cli_io.cli([command, *args, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {key} is an integer too large for a float\n"


def test_cli_bad_config_names_key(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text('{"knee": {"layers": 3}}')
    rc = cli_io.cli(["demo", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'knee.layers'" in err

    (tmp_path / "cfg.json").write_text('{"params": 5}')
    rc = cli_io.cli(["demo", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "params must be an object" in err


OVERFLOWING_PARAMS = ("LegParams l_t, l_s, m_t, m_s and g give a mass matrix "
                      "or gravity term that overflows a float")
SINGULAR_PARAMS = "singular mass matrix: LegParams l_t, l_s, m_t, m_s give det <= 1e-12"


@pytest.mark.parametrize("config, message", [
    ('{"gains": {"alpha_dot_max": 0}}', "alpha_dot_max must be > 0, got 0.0"),
    ('{"gains": {"alpha_dot_max": -10.0}}', "alpha_dot_max must be > 0, got -10.0"),
    ('{"ranges": {"phi_h_dot0": [-1e308, 1e308]}}',
     "phi_h_dot0 range (-1e+308, 1e+308) is wider than a float holds"),
    ('{"params": {"m_s": 1e308}}', OVERFLOWING_PARAMS),
    ('{"params": {"l_t": 1e200}}', OVERFLOWING_PARAMS),
    ('{"params": {"l_s": 1e-200}}', SINGULAR_PARAMS),
    ('{"params": {"m_t": 1e-20}}', SINGULAR_PARAMS),
    ('{"hip": {"m": 0}}', "m must be >= 1, got 0"),
    ('{"knee": {"m": 0}}', "m must be >= 1, got 0"),
    ('{"knee": {"beta": 1.0}}', "beta must be > 1, got 1.0"),
    ('{"demo_seed": -3}', "demo_seed must be >= 0, got -3"),
    ('{"eval_seed": -1}', "eval_seed must be >= 0, got -1"),
    ('{"ranges": {"phi_h0": 1e308}}',
     "phi_h0 1e+308 is not a finite angle within one turn (|angle| <= 2*pi rad)"),
    ('{"ranges": {"phi_k0": -1e6}}',
     "phi_k0 -1000000.0 is not a finite angle within one turn (|angle| <= 2*pi rad)"),
])
def test_cli_rejects_values_the_rollout_cannot_use(tmp_path, capsys, config, message):
    """A zero alpha_dot_max would divide by zero in the stopping torque, a
    range wider than a float holds would overflow the task sampler,
    masses or lengths whose mass matrix overflows would reach the plant as
    a NaN determinant, and an initial joint angle far beyond one turn
    would overflow the manifest's degrees. Nothing is written. A shank so
    short that the mass-matrix determinant underflows to 0, or a thigh so light that it rounds to 0 with the leg
    straight, is refused with the config. A negative seed would reach
    the seeded stream, whose error names no key. An error from a section's
    own check is prefixed with the section, the config's one key."""
    path = tmp_path / "cfg.json"
    path.write_text(config)
    rc = cli_io.cli(["demo", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    ((key, value),) = json.loads(config).items()
    section = f"{key}: " if isinstance(value, dict) else ""
    assert err == f"error: {path}: {section}{message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


FLAG_RANGE_CASES = [
    # (command, flag, value, the refusal)
    pytest.param("demo", "--seed", "-1", "demo_seed must be >= 0, got -1", id="demo"),
    pytest.param("train", "--seed", "-1", "hip: seed must be >= 0, got -1", id="train"),
    pytest.param("eval", "--seed", "-1", "eval_seed must be >= 0, got -1", id="eval"),
    pytest.param("gradcheck", "--seed", "-1",
                 "seed must be a nonnegative integer or a list of them, got -1", id="gradcheck"),
    pytest.param("demo", "--n", "0", "demo_count must be >= 1, got 0", id="demo-n"),
    pytest.param("eval", "--n", "-2", "eval_count must be >= 1, got -2", id="eval-n"),
    pytest.param("train", "--episodes", "0", "episodes must be >= 1, got 0",
                 id="train-episodes"),
    pytest.param("train", "--layers", "0", "knee: m must be >= 1, got 0", id="train-layers"),
]


@pytest.mark.parametrize("command, flag, value, message", FLAG_RANGE_CASES)
def test_cli_refuses_an_out_of_range_flag_by_its_field_rule(tmp_path, monkeypatch, capsys,
                                                            command, flag, value, message):
    """A negative --seed, and a count flag (--n, --episodes, --layers) below
    1, exits 1 before any work, refused by the rule of what it sets in that
    rule's words: a run command's by its config field's (`knee: m must be
    >= 1` for --layers 0, the hip first for train's --seed), gradcheck's
    by the seeded stream."""
    monkeypatch.chdir(tmp_path)
    assert cli_io.cli([command, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, keys", [
    pytest.param(command, flag, keys, id=f"{command}{flag}")
    for command, flags in cli_io.FLAGS.items() for flag, keys in flags.items()])
def test_cli_flag_is_refused_as_the_config_keys_it_sets(tmp_path, monkeypatch, capsys,
                                                       command, flag, keys):
    """Each flag of cli_io.FLAGS is read as the config keys it sets. -1 is
    out of range at each of those keys alone, as a --config file holding it
    there shows, and the flag at -1 is refused as a file holding -1 at all
    of them is: exit 1, the same one line less the file's path, and
    nothing written. A value that is not an integer is argparse's to
    refuse, naming the flag, with exit status 2."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"

    def config_refusal(keys) -> str:
        data = {}
        for key in keys:
            section, _, name = key.rpartition(".")
            (data.setdefault(section, {}) if section else data)[name] = -1
        path.write_text(json.dumps(data))
        assert cli_io.cli([command, "--config", str(path)]) == 1
        path.unlink()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        return err.replace(f"{path}: ", "", 1)

    for key in keys:
        config_refusal([key])
    assert cli_io.cli([command, flag, "-1"]) == 1
    assert capsys.readouterr().err == config_refusal(keys)
    with pytest.raises(SystemExit) as exc:
        cli_io.cli([command, flag, "1.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"grpleg {command}: error: argument {flag}: invalid int value: '1.5'\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, config, section, m", [
    pytest.param(["--layers", "1000000000000"], None, "knee", 10**12, id="layers-flag"),
    pytest.param([], '{"knee": {"m": 1000000000000}}', "knee", 10**12, id="knee-m"),
    pytest.param([], '{"hip": {"m": 1%s}}' % ("0" * 399), "hip", 10**399, id="hip-m-400-digits"),
])
def test_train_refuses_a_layer_count_numpy_cannot_allocate(tmp_path, capsys,
                                                           flags, config, section, m):
    """A layer count whose weights numpy cannot allocate (466 TiB for
    10**12 layers; more dimensions than it allows for 400 digits), from
    --layers or a config section's m, exits 1 with one error line naming
    the section and m, before any demo runs or file is written."""
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        flags = ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    rc = cli_io.cli(["train", "--episodes", "1", "--out", str(out), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}: m = {m} layers do not fit in memory (")
    assert err.count("\n") == 1
    assert not list(out.iterdir())


@pytest.mark.parametrize("episodes", [10**13, 10**400], ids=["291-TiB", "400-digits"])
def test_train_refuses_an_episode_count_numpy_cannot_allocate(tmp_path, monkeypatch, capsys,
                                                               episodes):
    """An --episodes count whose per-episode log numpy cannot allocate
    (291 TiB for 10**13 episodes; more than a dimension holds for 400
    digits) exits 1 with one error line naming episodes: train allocates
    its log before it reads a demo, so none is rolled and no file written."""
    rolled = []
    monkeypatch.setattr(experiment, "run_demo_episode",
                        lambda *args, **kwargs: rolled.append(1))
    out = tmp_path / "out"
    rc = cli_io.cli(["train", "--episodes", str(episodes), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: episodes = {episodes}: a log of 4 floats per episode "
                          "does not fit in memory (")
    assert err.count("\n") == 1
    assert rolled == [] and not list(out.iterdir())


@pytest.mark.parametrize("command", ["demo", "eval"])
def test_cli_refuses_a_target_range_beyond_one_turn(tmp_path, capsys, command):
    """A target bound of 1e308 rad overflows to inf in degrees, which
    manifest.json and report.json cannot hold: the config is refused,
    naming alpha_tgt, before a swing rolls or a file is written."""
    path = tmp_path / "cfg.json"
    path.write_text('{"ranges": {"alpha_tgt": [1.0, 1e308]}}')
    out = tmp_path / "out"
    out.mkdir()
    for name in ("hip.json", "knee.json"):
        (out / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    rc = cli_io.cli([command, "--n", "1", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {path}: ranges: alpha_tgt range (1.0, 1e+308) "
                                       "goes beyond one turn (|bound| > 2*pi rad)\n")
    assert sorted(p.name for p in out.iterdir()) == ["hip.json", "knee.json"]


def test_cli_train_refuses_an_init_scale_whose_draw_range_overflows(tmp_path, capsys):
    """init_scale 1e308 is finite, but the draw range 2*init_scale is not:
    one error line naming the knee and init_scale, before any demo rolls."""
    path = tmp_path / "cfg.json"
    path.write_text('{"knee": {"init_scale": 1e308}}')
    out = tmp_path / "out"
    rc = cli_io.cli(["train", "--episodes", "1", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {path}: knee: init_scale 1e+308 gives a draw "
                                       "range 2*init_scale wider than a float holds\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [math.inf, math.nan, {"x": [1.0, -math.inf]}, {1j: 0}])
def test_dump_json_refuses_before_opening_its_target(tmp_path, value):
    """A value JSON refuses leaves no file where there was none, and an
    existing file keeps its bytes: nothing is opened before the whole
    document is serialized."""
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    cli_io._dump_json(old, {"kept": [1, 2.5]})
    before = old.read_bytes()
    for path in (new, old):
        with pytest.raises((ValueError, TypeError)):
            cli_io._dump_json(path, {"a": 1.0, "b": value})
    assert not new.exists()
    assert old.read_bytes() == before == b'{\n  "kept": [\n    1,\n    2.5\n  ]\n}\n'


def test_cli_bad_json_names_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    rc = cli_io.cli(["demo", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path} line 1 column 2" in err


@pytest.mark.parametrize("data, message", [
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded while decoding"),
    (b'{"demo_count": %s}' % (b"1" * 5000), "Exceeds the limit (4300 digits) for integer"),
    (b'{"demo_count": 1\xff}', "'utf-8' codec can't decode byte 0xff in position 16"),
    (b'{"demo_count": 1, "demo_count": 2}', "key 'demo_count' is given twice in one object"),
], ids=["deep-nesting", "5000-digit-integer", "0xff-byte", "repeated-key"])
def test_cli_names_the_file_of_a_config_json_cannot_parse(tmp_path, capsys, data, message):
    """A config nested too deep for the parser, with an integer too long to
    convert, that is not UTF-8, or that repeats a key ends in one error line
    naming the file, and no demo is rolled."""
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    assert cli_io.cli(["demo", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_bad_model_names_file(tmp_path, capsys):
    """With hip.json and knee.json side by side, a bad value in one of
    them is reported with that file's path as well as the key."""
    hip, knee = trained_pair()
    save_model(tmp_path / "hip.json", hip)
    data = model_to_dict(knee)
    data["layers"][0]["W"][0][0] = "x"
    (tmp_path / "knee.json").write_text(json.dumps(data))
    rc = cli_io.cli(["eval", "--n", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{tmp_path / 'knee.json'}: layers[0].W must be a number" in err
    assert "hip.json" not in err


@pytest.mark.parametrize("reader, text, message", [
    (load_run_config, '{"dt": "x"}', "dt must be a number"),
    (read_report, '{"trajectories": 5}', "missing key"),
    *[(reader, "[1, 2]", "top level must be an object, got [1, 2]")
      for reader in (load_run_config, load_model, read_report)],
    # json.load would keep the last value of a repeated key
    (load_run_config, '{"params": {"g": 9.81, "g": 1.0}}', "key 'g' is given twice"),
    (load_model, '{"gamma": 1.0, "config": {}, "gamma": 2.0}', "key 'gamma' is given twice"),
    (read_report, '{"avg_error_deg": 1.0, "avg_error_deg": 2.0}',
     "key 'avg_error_deg' is given twice"),
    (read_trajectory, "", "empty trajectory file"),
    (read_trajectory, ",".join(FIXED_COLUMNS) + "\n", "no data rows"),
])
def test_file_readers_name_the_file(tmp_path, reader, text, message):
    path = tmp_path / "f.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        reader(path)


def test_cli_train_rejects_nan_lambda(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(
        '{"episodes": 1, "demo_count": 1, "knee": {"lambda": NaN}}')
    rc = cli_io.cli(["train", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "lambda" in err and "finite" in err


def test_cli_train_reports_diverging_update(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(
        '{"episodes": 3, "demo_count": 1, "knee": {"mu": 1e6}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_io.cli(["train", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: model 2 (tau_k): non-finite weight update: ")
    assert err.endswith("; non-finite rows in stack models [2]; "
                        "input row finite, references finite\n")
    assert not (tmp_path / "knee.json").exists()


def test_cli_train_names_the_model_that_diverges_at_default_hyperparameters(tmp_path, capsys):
    """Init seed 509009 makes the default hip diverge after 20 episodes;
    the one error line names it, its joint and its stack row's place, and
    numpy warns of nothing before it."""
    (tmp_path / "cfg.json").write_text(
        '{"episodes": 40, "hip": {"seed": 509009}, "knee": {"seed": 509009}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_io.cli(["train", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: model 1 (tau_h): non-finite weight update: ")
    assert err.endswith("episodes=[20, 20]; non-finite rows in stack models [1]; "
                        "input row finite, references finite\n")
    assert not (tmp_path / "hip.json").exists()


def test_cli_train_reports_overflowing_gamma(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(
        '{"episodes": 3, "demo_count": 2, "knee": {"beta": 1e200}}')
    rc = cli_io.cli(["train", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("error: model 2 (tau_k): "
                   "gamma 1e+200 * beta 1e+200 overflows after episode 2\n")
    assert not (tmp_path / "knee.json").exists()


def test_cli_gradcheck_passes(capsys):
    assert cli_io.cli(["gradcheck", "--seed", "0"]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_cli_module_entry_point(tmp_path):
    # The child runs in tmp_path, where a relative PYTHONPATH such as "src"
    # no longer points at the package; hand it the absolute path of the
    # grpleg this process imported, ahead of any inherited entries.
    package_root = str(Path(grpleg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "grpleg.cli_io", "gradcheck"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "max relative error" in proc.stdout
