"""Config schema: strict parsing, dotted error paths, task validation."""

import math
import re
from pathlib import Path

import pytest
import yaml

from levyfield import StableKernel, preset
from levyfield.config import TASKS, ConfigError, load_config, parse_config
from levyfield.funcs import (GaussianFunction, IndicatorFunction,
                             PolynomialDecay, ProductBump, SimpleFunction)


def base(**over):
    cfg = {
        "schema": 1,
        "seed": 42,
        "characteristics": {"preset": "balan-stable", "params": {"alpha": 1.5}},
        "sampler": {"window": [[0.0, 1.0]]},
        "tasks": [],
    }
    cfg.update(over)
    return cfg


def err(cfg):
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    return str(info.value)


def test_happy_path_defaults():
    cfg = parse_config(base(tasks=[{"kind": "sample", "replicates": 3}]))
    assert cfg.schema == 1 and cfg.seed == 42 and cfg.output == "out"
    assert cfg.sampler.eps == 1e-3 and cfg.sampler.horizon == 1.0
    assert cfg.sampler.small_jump_mode == "drop-with-bound"
    assert cfg.tasks[0] == {"kind": "sample", "replicates": 3,
                            "formats": ("jsonl",)}
    assert cfg.characteristics.dim == 1


def test_schema_and_seed_are_mandatory():
    assert "<config>.schema" in err({"seed": 1})
    assert "unsupported schema version" in err(base(schema=2))
    cfg = base()
    del cfg["seed"]
    assert "<config>.seed" in err(cfg)
    assert "expected an integer" in err(base(seed="abc"))
    assert "expected an integer" in err(base(seed=1.5))


def test_unknown_keys_carry_dotted_paths():
    assert "unknown keys: extra" in err(base(extra=1))
    msg = err(base(sampler={"window": [[0, 1]], "wat": True}))
    assert msg.startswith("sampler:") and "wat" in msg
    # tasks draw their own replicate counts; the sampler block has none
    msg = err(base(sampler={"window": [[0, 1]], "replicates": 3}))
    assert msg == "sampler: unknown keys: replicates"
    msg = err(base(tasks=[{"kind": "sample", "oops": 1}]))
    assert msg.startswith("tasks[0]:") and "oops" in msg
    msg = err(base(tasks=[{"kind": "integrate",
                           "function": {"type": "decay", "r": 1.0, "huh": 2}}]))
    assert msg.startswith("tasks[0].function:")
    # the explicit triple: each block names its own unknown keys
    triple = {"dimension": 1, "gamma": {"density": 0.5},
              "sigma": {"density": 1.0, "atoms": [{"point": [0.5], "weight": 0.2}]},
              "nu": {"kernel": {"kind": "stable", "alpha": 1.5}, "modulation": 2.0}}
    parse_config(base(characteristics=triple))
    for key, block, where in (("gama", None, "characteristics"),
                              ("modulaton", "nu", "characteristics.nu"),
                              ("bogus", "sigma", "characteristics.sigma"),
                              ("wieght", "gamma", "characteristics.gamma")):
        bad = {k: dict(v) if isinstance(v, dict) else v for k, v in triple.items()}
        (bad if block is None else bad[block])[key] = 2.0
        assert err(base(characteristics=bad)) == f"{where}: unknown keys: {key}"
    atom = {"point": [0.5], "weight": 0.2, "weigth": 0.2}
    bad = dict(triple, sigma={"density": 1.0, "atoms": [atom]})
    assert err(base(characteristics=bad)) == "characteristics.sigma.atoms[0]: unknown keys: weigth"
    del atom["weight"]
    assert err(base(characteristics=bad)) == (
        "characteristics.sigma.atoms[0].weight: required field is missing")
    # a missing kernel is named at its own path
    bad = dict(triple, nu={"modulation": 2.0})
    assert err(base(characteristics=bad)) == "characteristics.nu.kernel: required field is missing"
    # kernel and jump-law blocks: each family parses, and an unknown key is
    # rejected at the block that holds it
    laws = [{"kind": "discrete", "values": [1.0, -1.0], "probs": [0.5, 0.5]},
            {"kind": "normal"}, {"kind": "uniform", "a": -1.0, "b": 2.0}]
    kernels = [{"kind": "stable", "alpha": 1.5},
               {"kind": "tempered-stable", "alpha": 0.9, "cutoff": 1.0},
               {"kind": "tabulated", "grid": [0, 1, 2], "values": [1, 1, 0]}]
    kernels += [{"kind": "compound-poisson", "rate": 2.0, "jumps": law} for law in laws]
    for kernel in kernels:
        parse_config(base(characteristics=dict(triple, nu={"kernel": kernel})))
        bad = dict(triple, nu={"kernel": dict(kernel, bogus=3)})
        assert err(base(characteristics=bad)) == "characteristics.nu.kernel: unknown keys: bogus"
    for law in laws:
        kernel = {"kind": "compound-poisson", "rate": 2.0, "jumps": dict(law, bogus=1)}
        assert err(base(characteristics=dict(triple, nu={"kernel": kernel}))) == (
            "characteristics.nu.kernel.jumps: unknown keys: bogus")
    bad = dict(triple, nu={"kernel": {"kind": "stable", "alpha": 1.5, "q": "half"}})
    assert err(base(characteristics=bad)) == (
        "characteristics.nu.kernel.q: expected a number, got 'half'")
    bad = dict(triple, nu={"kernel": {"kind": "compound-poisson", "rate": 2.0}})
    assert err(base(characteristics=bad)) == (
        "characteristics.nu.kernel.jumps: required field is missing")
    bad = dict(triple, nu={"kernel": {"kind": "stable", "alpha": 1.5, "p": 0.7}})
    assert err(base(characteristics=bad)) == (
        "characteristics.nu.kernel: need p, q >= 0 with p + q = 1")
    # a jump law given as a preset parameter reports at its own path too
    bad = {"preset": "impulsive", "params": {"jumps": {"kind": "normal", "bogus": 1}}}
    assert err(base(characteristics=bad)) == "characteristics.params.jumps: unknown keys: bogus"
    parse_config(base(characteristics={"preset": "impulsive",
                                       "params": {"jumps": {"kind": "normal", "mu": 0.5}}}))


def test_preset_block_validation():
    msg = err(base(characteristics={"preset": "nope"}))
    assert "characteristics.preset" in msg and "nope" in msg
    msg = err(base(characteristics={"preset": "balan-stable",
                                    "params": {"alpha": 1.5, "bogus": 1}}))
    assert "characteristics.params" in msg
    msg = err(base(characteristics={"preset": "balan-stable"}))
    assert "characteristics.params" in msg  # alpha is required


def test_explicit_characteristics_round_trip():
    chars = preset("balan-stable", alpha=1.5, p=0.7, q=0.3)
    cfg = parse_config(base(characteristics=chars.to_config()))
    region = cfg.sampler.window
    got = cfg.characteristics.control_measure(region).value
    want = chars.control_measure(region).value
    assert got == pytest.approx(want, rel=1e-12)
    assert err(base(characteristics={"dimension": 1, "nu": {"kernel": {"type": "wat"}}})) == (
        "characteristics.nu.kernel.kind: required field is missing")
    msg = err(base(characteristics={"dimension": 1, "nu": {"kernel": {"kind": "wat"}}}))
    assert msg.startswith("characteristics.nu.kernel.kind: unknown kind 'wat'; known: stable")


def test_window_validation():
    assert "one per axis" in err(base(sampler={"window": []}))
    assert "sampler.window" in err(base(sampler={"window": [[1.0, 0.0]]}))
    msg = err(base(sampler={"window": [[0, 1], [0, 1]]}))
    assert "expected 1 axis spans" in msg
    msg = err(base(sampler={"window": [[0, 1]], "eps": 2.0}))
    assert "eps" in msg


def test_verify_cf_task_requirements():
    t = {"kind": "verify-cf", "u": [1.0], "n": 2000, "region": [[0, 1]]}
    cfg = parse_config(base(tasks=[t]))
    assert isinstance(cfg.tasks[0]["function"], IndicatorFunction)
    assert "needs n >= 1000" in err(base(tasks=[
        {"kind": "verify-cf", "u": [1.0], "n": 500, "region": [[0, 1]]}]))
    assert "'function' or 'region'" in err(base(tasks=[
        {"kind": "verify-cf", "u": [1.0], "n": 2000}]))
    assert "tasks[0].u" in err(base(tasks=[
        {"kind": "verify-cf", "u": [], "n": 2000, "region": [[0, 1]]}]))


def test_verify_independence_task_bounds():
    t = {"kind": "verify-independence", "region_a": [[0, 0.5]], "region_b": [[0.5, 1]]}
    task = parse_config(base(tasks=[t])).tasks[0]
    assert task["permutations"] == 200 and task["level"] == 0.01
    assert parse_config(base(tasks=[dict(t, permutations=1)])).tasks[0]["permutations"] == 1
    for perms in (0, -3):
        msg = err(base(tasks=[dict(t, permutations=perms)]))
        assert msg.startswith("tasks[0].permutations:")
    for level in (0, 0.0, 1, 1.5, -0.01):
        assert err(base(tasks=[dict(t, level=level)])).startswith("tasks[0].level:")


def test_sheet_axes_forms():
    explicit = {"kind": "sheet", "axes": [[0.25, 0.5, 0.75]]}
    cfg = parse_config(base(tasks=[explicit]))
    assert cfg.tasks[0]["axes"] == [[0.25, 0.5, 0.75]]
    ranged = {"kind": "sheet", "axes": [{"lo": 0.0, "hi": 1.0, "n": 4}]}
    cfg = parse_config(base(tasks=[ranged]))
    assert cfg.tasks[0]["axes"][0] == pytest.approx([0.25, 0.5, 0.75, 1.0])
    assert "tasks[0].axes[0]" in err(base(tasks=[
        {"kind": "sheet", "axes": [{"lo": 1.0, "hi": 0.0, "n": 4}]}]))
    assert "axis specs" in err(base(tasks=[{"kind": "sheet", "axes": []}]))


def test_duality_task_defaults_and_guards():
    t = {"kind": "verify-duality", "h": 0.05,
         "function": {"type": "bump", "center": [0.5], "radius": 0.2}}
    cfg = parse_config(base(tasks=[t]))
    task = cfg.tasks[0]
    assert task["tolerance"] == 1e-6 and task["h"] == 0.05
    assert isinstance(task["function"], ProductBump)
    bad = dict(t, h=-1.0)
    assert "must be positive" in err(base(tasks=[bad]))
    missing = {"kind": "verify-duality",
               "function": {"type": "bump", "center": [0.5], "radius": 0.2}}
    assert "tasks[0].h" in err(base(tasks=[missing]))


def test_counterexample_task_spec():
    cfg = parse_config(base(tasks=[{"kind": "counterexample"}]))
    task = cfg.tasks[0]
    assert task["n"] == 10_000 and task["level"] == 0.01
    assert task["spec"].truncation == 8 and task["spec"].shared
    custom = {"kind": "counterexample", "truncation": 4, "shared": False,
              "set_a": [0.0, 0.3], "set_b": [0.4, 0.9], "n": 500}
    task = parse_config(base(tasks=[custom])).tasks[0]
    assert task["spec"].truncation == 4 and not task["spec"].shared
    overlap = {"kind": "counterexample", "set_a": [0.0, 0.6], "set_b": [0.5, 1.0]}
    assert "disjoint" in err(base(tasks=[overlap]))


def test_counterexample_task_level_bounds():
    t = {"kind": "counterexample", "n": 500}
    assert parse_config(base(tasks=[dict(t, level=0.2)])).tasks[0]["level"] == 0.2
    for level in (0, 1, 1.5, -0.01):
        assert err(base(tasks=[dict(t, level=level)])).startswith("tasks[0].level:")


def test_besov_task_alpha_inference():
    t = {"kind": "classify-besov", "p": "inf", "tau": -1.0, "rho_growth": -3.0}
    task = parse_config(base(tasks=[t])).tasks[0]
    assert task["p"] == math.inf and task["alpha"] == 1.5
    imp = base(characteristics={"preset": "impulsive"}, tasks=[t])
    assert "tasks[0].alpha" in err(imp)
    with_alpha = dict(t, alpha=0.7, p=1.0)
    task = parse_config(base(
        characteristics={"preset": "impulsive"}, tasks=[with_alpha])).tasks[0]
    assert task["alpha"] == 0.7 and task["p"] == 1.0


def test_integrate_function_types():
    mk = lambda fn: base(tasks=[{"kind": "integrate", "function": fn}])
    cfg = parse_config(mk({"type": "gaussian", "center": [0.5], "scale": 0.2}))
    assert isinstance(cfg.tasks[0]["function"], GaussianFunction)
    cfg = parse_config(mk({"type": "decay", "r": 1.0}))
    assert isinstance(cfg.tasks[0]["function"], PolynomialDecay)
    cfg = parse_config(mk({"type": "simple", "terms": [
        {"coef": 2.0, "region": [[0.0, 0.5]]},
        {"coef": -1.0, "region": [[0.5, 1.0]]}]}))
    assert isinstance(cfg.tasks[0]["function"], SimpleFunction)
    overlap = mk({"type": "simple", "terms": [
        {"coef": 1.0, "region": [[0.0, 0.6]]},
        {"coef": 1.0, "region": [[0.5, 1.0]]}]})
    assert "tasks[0].function" in err(overlap)
    assert "unknown function type" in err(mk({"type": "mystery"}))
    # constructor rejections surface as schema errors, not bare ValueErrors
    msg = err(mk({"type": "gaussian", "center": [0.5], "scale": 0}))
    assert msg == "tasks[0].function: scale must be positive"
    assert "tasks[0].function:" in err(mk({"type": "decay", "r": 0.0}))
    assert "tasks[0].function.center" in err(
        mk({"type": "bump", "center": [0.1, 0.2], "radius": 0.3}))


def test_sample_task_formats():
    good = {"kind": "sample", "formats": ["jsonl", "frames"]}
    assert parse_config(base(tasks=[good])).tasks[0]["formats"] == ("jsonl", "frames")
    assert "jsonl, frames" in err(base(tasks=[
        {"kind": "sample", "formats": ["csv"]}]))
    assert ">= 1" in err(base(tasks=[{"kind": "sample", "replicates": 0}]))
    assert "unknown task kind" in err(base(tasks=[{"kind": "dance"}]))


def test_load_config_files(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "schema: 1\nseed: 7\n"
        "characteristics: {preset: impulsive, params: {rate: 3.0}}\n"
        "sampler: {window: [[0.0, 1.0]], eps: 0.0}\n"
        "tasks: [{kind: sample}]\n")
    cfg = load_config(str(path))
    assert cfg.seed == 7 and cfg.tasks[0]["kind"] == "sample"
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: [unterminated\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(str(bad))


def test_readme_explicit_triple_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```yaml\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    explicit = [b for b in blocks if "preset" not in b and "nu:" in b]
    assert len(explicit) == 1
    cfg = parse_config(yaml.safe_load(explicit[0]))
    chars = cfg.characteristics
    assert chars.dim == 1
    assert chars.gamma.density.const == 0.3 and chars.sigma.atoms[0].weight == 0.2
    assert chars.nu.kernel == StableKernel(1.2, 0.7, 0.3)
    assert chars.nu.modulation.const == 1.0
    assert cfg.tasks[0]["kind"] == "sample"


def test_readme_task_table_lists_every_kind():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("### Tasks\n", 1)[1].split("\n#", 1)[0]
    kinds = re.findall(r"^\| `([a-z-]+)` \|", section, re.M)
    assert kinds == list(TASKS)
