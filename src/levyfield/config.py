"""Experiment configuration: YAML schema, strict validation, construction.

Configs are YAML mappings with a ``schema`` version, a mandatory ``seed``, a
characteristics block (preset or explicit triple), a sampler block, and an
ordered task list.  Unknown keys anywhere are rejected with a dotted field
path, and every error carries the path of the offending field.

``TASKS`` is the one table of task kinds: each kind maps to the parser that
validates its fields and the runner that ``levy-field run`` calls for it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import yaml

from .analysis import besov_classify, lm_membership, tempered_test
from .characteristics import (Atom, Characteristics, Density, DiffusionComponent,
                              DriftComponent, JumpComponent)
from .funcs import (GaussianFunction, IndicatorFunction, PolynomialDecay,
                    ProductBump, SimpleFunction)
from .integrate import NotIntegrableError, integrate
from .io import (atomic_write_text, write_cf_csv, write_frames,
                 write_jump_records, write_sheet_csv)
from .kernels import (CompoundPoissonKernel, DiscreteJumps, NormalJumps, StableKernel,
                      TabulatedKernel, TemperedStableKernel, UniformJumps)
from .presets import PRESET_NAMES, preset
from .regions import Region
from .sampler import SamplerConfig, path_batches, sample_field
from .sheets import SheetRealization, duality_check
from .verify import (OnbCounterexampleSpec, cf_match_test, independence_test,
                     onb_counterexample, paired_evaluations)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Schema violation, annotated with the dotted path of the field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    schema: int
    seed: int
    output: str
    raw: dict
    characteristics: Characteristics
    sampler: SamplerConfig
    tasks: tuple[dict, ...]


# --------------------------------------------------------------------------
# Field helpers
# --------------------------------------------------------------------------

def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_nums(v) -> bool:
    return isinstance(v, list) and all(_is_num(c) for c in v)


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected a mapping")
    return dict(value)


def _pop(data: dict, key: str, path: str, check, what: str,
         required: bool = False, default=None):
    if key not in data:
        if required:
            raise ConfigError(f"{path}.{key}", "required field is missing")
        return default
    value = data.pop(key)
    if not check(value):
        raise ConfigError(f"{path}.{key}", f"expected {what}, got {value!r}")
    return value


def _num(data: dict, key: str, path: str, **kw) -> float:
    return float(_pop(data, key, path, _is_num, "a number", **kw))


def _int(data: dict, key: str, path: str, **kw):
    return _pop(data, key, path, _is_int, "an integer", **kw)


def _any(data: dict, key: str, path: str):
    """A required field whose value the caller checks itself."""
    return _pop(data, key, path, lambda v: True, "", required=True)


def _finish(data: dict, path: str) -> None:
    if data:
        keys = ", ".join(sorted(str(k) for k in data))
        raise ConfigError(path, f"unknown keys: {keys}")


def _region(data: dict, key: str, path: str, dim: int) -> Region:
    """The required field ``key``: a list of [lo, hi] spans, one per axis."""
    value, path = _any(data, key, path), f"{path}.{key}"
    if (not isinstance(value, list) or not value
            or not all(_is_nums(s) and len(s) == 2 for s in value)):
        raise ConfigError(path, "expected a list of [lo, hi] pairs, one per axis")
    if len(value) != dim:
        raise ConfigError(path, f"expected {dim} axis spans, got {len(value)}")
    try:
        return Region.from_intervals([(float(a), float(b)) for a, b in value])
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def function_from_config(value, path: str, dim: int):
    data = _mapping(value, path)
    kind = _pop(data, "type", path, lambda v: isinstance(v, str), "a string",
                required=True)
    if kind == "indicator":
        make, args = IndicatorFunction, (_region(data, "region", path, dim),)
    elif kind in ("bump", "gaussian"):
        center = _pop(data, "center", path, _is_nums, "a list of numbers",
                      required=True)
        if len(center) != dim:
            raise ConfigError(f"{path}.center", f"expected {dim} coordinates")
        if kind == "bump":
            make, args = ProductBump, (
                center,
                _pop(data, "radius", path, lambda v: _is_num(v) or _is_nums(v),
                     "a number or list of numbers", required=True),
                _pop(data, "smoothness", path, lambda v: v is None or _is_int(v),
                     "an integer or null"))
        else:
            make, args = GaussianFunction, (
                center, _pop(data, "scale", path, _is_num, "a number",
                             required=True))
    elif kind == "decay":
        make, args = PolynomialDecay, (
            _pop(data, "r", path, _is_num, "a number", required=True), dim)
    elif kind == "simple":
        terms = _pop(data, "terms", path, lambda v: isinstance(v, list) and v,
                     "a nonempty list", required=True)
        built = []
        for i, term in enumerate(terms):
            tpath = f"{path}.terms[{i}]"
            tdata = _mapping(term, tpath)
            coef = _pop(tdata, "coef", tpath, _is_num, "a number", required=True)
            built.append((float(coef), _region(tdata, "region", tpath, dim)))
            _finish(tdata, tpath)
        make, args = SimpleFunction, (tuple(built),)
    else:
        raise ConfigError(f"{path}.type", f"unknown function type {kind!r}")
    _finish(data, path)
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


# --------------------------------------------------------------------------
# Blocks
# --------------------------------------------------------------------------

# kind -> (class, required fields, optional numbers): a required field is a number, a list of
# numbers or a jump-law block (its table); an optional number left out takes the class default
_NUM, _NUMS = (_is_num, "a number"), (_is_nums, "a list of numbers")
_LAWS = {"discrete": (DiscreteJumps, {"values": _NUMS, "probs": _NUMS}, ()),
         "normal": (NormalJumps, {}, ("mu", "sigma")),
         "uniform": (UniformJumps, {"a": _NUM, "b": _NUM}, ())}
_KERNELS = {"stable": (StableKernel, {"alpha": _NUM}, ("p", "q", "scale")),
            "compound-poisson": (CompoundPoissonKernel, {"rate": _NUM, "jumps": _LAWS}, ()),
            "tempered-stable": (TemperedStableKernel, {"alpha": _NUM, "cutoff": _NUM}, ("scale",)),
            "tabulated": (TabulatedKernel, {"grid": _NUMS, "values": _NUMS}, ())}


def _family(value, path: str, table: dict):
    """A kernel or jump-law block; the inverse of its ``to_config``."""
    data = _mapping(value, path)
    kind = _pop(data, "kind", path, lambda v: isinstance(v, str), "a string", required=True)
    if kind not in table:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; known: {', '.join(table)}")
    make, required, optional = table[kind]
    args = {key: _family(_any(data, key, path), f"{path}.{key}", field) if isinstance(field, dict)
            else _pop(data, key, path, *field, required=True) for key, field in required.items()}
    args.update((key, _pop(data, key, path, *_NUM)) for key in optional if key in data)
    _finish(data, path)
    try:
        return make(**args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def kernel_from_config(value, path: str = "kernel"):
    return _family(value, path, _KERNELS)


def jump_distribution_from_config(value, path: str = "jumps"):
    return _family(value, path, _LAWS)


def _component(value, path: str, klass):
    """A gamma or Sigma block (None if absent): a constant density and point atoms."""
    if value is None:
        return None
    block, atoms = _mapping(value, path), []
    for i, atom in enumerate(_pop(block, "atoms", path, lambda v: isinstance(v, list), "a list",
                                  default=[])):
        apath, atom = f"{path}.atoms[{i}]", _mapping(atom, f"{path}.atoms[{i}]")
        point = _pop(atom, "point", apath, _is_nums, "a list of numbers", required=True)
        atoms.append(Atom(point, _num(atom, "weight", apath, required=True)))
        _finish(atom, apath)
    density = Density(_num(block, "density", path, default=0.0))
    _finish(block, path)
    return klass(density, tuple(atoms))


def characteristics_from_config(value, path: str = "characteristics") -> Characteristics:
    """A preset or the explicit triple; the inverse of ``Characteristics.to_config``."""
    data = _mapping(value, path)
    if "preset" in data:
        name = _pop(data, "preset", path, lambda v: isinstance(v, str), "a string", required=True)
        params = _mapping(_pop(data, "params", path, lambda v: isinstance(v, dict), "a mapping",
                               default={}), f"{path}.params")
        _finish(data, path)
        if name not in PRESET_NAMES:
            raise ConfigError(f"{path}.preset",
                              f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
        if isinstance(params.get("jumps"), dict):  # a jump law reports at its own path
            params["jumps"] = jump_distribution_from_config(params["jumps"], f"{path}.params.jumps")
        try:
            return preset(name, **params)
        except KeyError as exc:
            raise ConfigError(f"{path}.params", f"missing required parameter {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.params", str(exc)) from None
    try:
        dim = _int(data, "dimension", path, required=True)
        gamma = _component(data.pop("gamma", None), f"{path}.gamma", DriftComponent)
        sigma = _component(data.pop("sigma", None), f"{path}.sigma", DiffusionComponent)
        nu, npath = data.pop("nu", None), f"{path}.nu"
        if nu is not None:
            nu = _mapping(nu, npath)
            kernel = kernel_from_config(_any(nu, "kernel", npath), f"{npath}.kernel")
            mod = Density(_num(nu, "modulation", npath, default=1.0))
            _finish(nu, npath)
            nu = JumpComponent(kernel, mod)
        _finish(data, path)
        return Characteristics(dim, gamma, sigma, nu)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, f"invalid explicit characteristics: {exc}") from None


def _parse_sampler(value, path: str, seed: int, dim: int) -> SamplerConfig:
    data = _mapping(value, path)
    window = _region(data, "window", path, dim)
    horizon = _num(data, "horizon", path, default=1.0)
    eps = _num(data, "eps", path, default=1e-3)
    mode = _pop(data, "small_jump_mode", path, lambda v: isinstance(v, str),
                "a string", default="drop-with-bound")
    _finish(data, path)
    try:
        return SamplerConfig(seed=seed, window=window, horizon=horizon,
                             eps=eps, small_jump_mode=mode)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


# --------------------------------------------------------------------------
# Tasks: each kind's parser and runner side by side, joined in ``TASKS``
# --------------------------------------------------------------------------
# A parser pops its fields from ``data`` and returns them as a dict; a runner
# takes ``(cfg, task, prefix, emit, reports, failures)``, writes artifacts
# through ``emit(name, writer)`` and appends verification reports and
# ``"<prefix>: <reason>"`` failure lines.

def _function(data: dict, path: str, dim: int):
    return function_from_config(_any(data, "function", path),
                                f"{path}.function", dim)


def _emit_json(emit, name: str, payload: dict) -> None:
    emit(name, lambda p: atomic_write_text(
        p, json.dumps(payload, sort_keys=True) + "\n"))


def _record(report, prefix: str, reports: list, failures: list) -> None:
    reports.append(report)
    if not report.passed:
        failures.append(f"{prefix}: decision {report.decision}")


def _parse_sample(data, path, chars, sampler):
    reps = _int(data, "replicates", path, default=1)
    formats = _pop(data, "formats", path,
                   lambda v: isinstance(v, list)
                   and all(f in ("jsonl", "frames") for f in v),
                   "a list drawn from [jsonl, frames]", default=["jsonl"])
    if reps < 1:
        raise ConfigError(f"{path}.replicates", "must be >= 1")
    return {"replicates": reps, "formats": tuple(formats)}


def _run_sample(cfg, task, prefix, emit, reports, failures):
    for batch in path_batches(cfg.characteristics, cfg.sampler, task["replicates"]):
        for k, real in zip(batch.replicates, map(batch.member, range(len(batch.replicates)))):
            if "jsonl" in task["formats"]:
                emit(f"{prefix}-r{k}.jsonl", lambda p, r=real: write_jump_records(p, r))
            if "frames" in task["formats"]:
                emit(f"{prefix}-r{k}.bin", lambda p, r=real: write_frames(p, r))


def _parse_integrate(data, path, chars, sampler):
    return {"function": _function(data, path, chars.dim),
            "t": _num(data, "t", path, default=sampler.horizon)}


def _run_integrate(cfg, task, prefix, emit, reports, failures):
    real = sample_field(cfg.characteristics, cfg.sampler, replicate=0)
    try:
        res = integrate(real, task["function"], task["t"], check_membership=True)
    except NotIntegrableError as exc:
        failures.append(f"{prefix}: {exc}")
        return
    _emit_json(emit, f"{prefix}.json", {"value": res.value, "error": res.error})


def _parse_sheet(data, path, chars, sampler):
    dim = chars.dim
    t = _num(data, "t", path, default=sampler.horizon)
    axes_cfg = _pop(data, "axes", path,
                    lambda v: isinstance(v, list) and len(v) == dim,
                    f"a list of {dim} axis specs", required=True)
    axes = []
    for i, spec in enumerate(axes_cfg):
        apath = f"{path}.axes[{i}]"
        if isinstance(spec, list):
            if not (spec and _is_nums(spec)):
                raise ConfigError(apath, "expected a nonempty list of numbers")
            axes.append([float(c) for c in spec])
        else:
            sdata = _mapping(spec, apath)
            lo = _pop(sdata, "lo", apath, _is_num, "a number", required=True)
            hi = _pop(sdata, "hi", apath, _is_num, "a number", required=True)
            count = _int(sdata, "n", apath, required=True)
            _finish(sdata, apath)
            if not lo < hi or count < 1:
                raise ConfigError(apath, "need lo < hi and n >= 1")
            step = (hi - lo) / count
            axes.append([lo + step * (j + 1) for j in range(count)])
    return {"t": t, "axes": axes}


def _run_sheet(cfg, task, prefix, emit, reports, failures):
    real = sample_field(cfg.characteristics, cfg.sampler, replicate=0)
    values = SheetRealization(real).corner_grid(task["t"], task["axes"])
    emit(f"{prefix}.csv", lambda p: write_sheet_csv(p, task["axes"], values))


def _parse_verify_cf(data, path, chars, sampler):
    task = {"u": _pop(data, "u", path, lambda v: _is_nums(v) and v,
                      "a nonempty list of numbers", required=True),
            "n": _int(data, "n", path, required=True)}
    if task["n"] < 1000:
        raise ConfigError(f"{path}.n", "cf test needs n >= 1000")
    if "function" in data:
        task["function"] = _function(data, path, chars.dim)
    elif "region" in data:
        task["function"] = IndicatorFunction(
            _region(data, "region", path, chars.dim))
    else:
        raise ConfigError(path, "needs either 'function' or 'region'")
    return task


def _run_verify_cf(cfg, task, prefix, emit, reports, failures):
    sampler, extras = cfg.sampler, {}
    report = cf_match_test(cfg.characteristics, task["function"],
                           sampler.horizon, task["u"], task["n"], cfg.seed,
                           window=sampler.window, eps=sampler.eps,
                           small_jump_mode=sampler.small_jump_mode, artifacts=extras)
    _record(report, prefix, reports, failures)
    if extras:
        emit(f"{prefix}.csv", lambda p: write_cf_csv(
            p, extras["u"], extras["emp"], extras["target"],
            extras["radius"], extras["bias"], extras["per_u_pass"]))


def _parse_verify_independence(data, path, chars, sampler):
    task = {"region_a": _region(data, "region_a", path, chars.dim),
            "region_b": _region(data, "region_b", path, chars.dim),
            "n": _int(data, "n", path, default=2000),
            "level": _num(data, "level", path, default=0.01),
            "permutations": _int(data, "permutations", path, default=200)}
    if task["n"] < 100:
        raise ConfigError(f"{path}.n", "independence test needs n >= 100")
    if task["permutations"] < 1:
        raise ConfigError(f"{path}.permutations", "need at least 1 permutation")
    if not 0.0 < task["level"] < 1.0:
        raise ConfigError(f"{path}.level", "level must lie in (0, 1)")
    return task


def _run_verify_independence(cfg, task, prefix, emit, reports, failures):
    va, vb = paired_evaluations(cfg.characteristics, cfg.sampler,
                                task["region_a"], task["region_b"], task["n"])
    report = independence_test(va, vb, permutations=task["permutations"],
                               level=task["level"], seed=cfg.seed,
                               name="disjoint-regions",
                               provenance="paired evaluations on disjoint "
                                          "regions from common paths")
    _record(report, prefix, reports, failures)


def _parse_verify_duality(data, path, chars, sampler):
    task = {"function": _function(data, path, chars.dim),
            "t": _num(data, "t", path, default=sampler.horizon),
            "h": _num(data, "h", path, required=True),
            "tolerance": _num(data, "tolerance", path, default=1e-6)}
    if task["h"] <= 0 or task["tolerance"] <= 0:
        raise ConfigError(path, "h and tolerance must be positive")
    return task


def _run_verify_duality(cfg, task, prefix, emit, reports, failures):
    real = sample_field(cfg.characteristics, cfg.sampler, replicate=0)
    res = duality_check(real, task["function"], task["t"], task["h"])
    _emit_json(emit, f"{prefix}.json", {
        "lhs": res.lhs, "rhs": res.rhs, "error": res.error, "h": res.h,
        "cells": res.cells, "quad_estimate": res.quad_estimate})
    if not res.error <= task["tolerance"]:
        failures.append(f"{prefix}: |lhs-rhs|={res.error:.3e} "
                        f"> {task['tolerance']:.3e}")


def _parse_check_integrability(data, path, chars, sampler):
    return {"function": _function(data, path, chars.dim)}


def _run_check_integrability(cfg, task, prefix, emit, reports, failures):
    res = lm_membership(cfg.characteristics, task["function"])
    _emit_json(emit, f"{prefix}.json", {
        "verdict": res.verdict, "value": res.value, "error": res.error,
        "note": res.note, "shells": list(res.shells)})


def _parse_check_tempered(data, path, chars, sampler):
    return {"r_max": _num(data, "r_max", path, default=64.0)}


def _run_check_tempered(cfg, task, prefix, emit, reports, failures):
    res = tempered_test(cfg.characteristics, task["r_max"])
    _emit_json(emit, f"{prefix}.json", {
        "tempered": res.tempered, "r": res.r,
        "attempts": [[r, v] for r, v in res.attempts], "note": res.note})


def _parse_classify_besov(data, path, chars, sampler):
    p_raw = _pop(data, "p", path,
                 lambda v: _is_num(v) or v in ("inf", "infinity"),
                 "a number or 'inf'", required=True)
    task = {"p": math.inf if isinstance(p_raw, str) else float(p_raw),
            "tau": _num(data, "tau", path, required=True),
            "rho_growth": _num(data, "rho_growth", path, required=True)}
    alpha = _pop(data, "alpha", path, _is_num, "a number")
    if alpha is None:
        kern = chars.nu.kernel if chars.nu is not None else None
        alpha = getattr(kern, "alpha", None)
        if alpha is None:
            raise ConfigError(f"{path}.alpha",
                              "required unless the kernel has a stability index")
    task["alpha"] = float(alpha)
    return task


def _run_classify_besov(cfg, task, prefix, emit, reports, failures):
    label = besov_classify(task["alpha"], cfg.characteristics.dim, task["p"],
                           task["tau"], task["rho_growth"])
    _emit_json(emit, f"{prefix}.json", {
        "classification": label, "alpha": task["alpha"],
        "p": "inf" if task["p"] == math.inf else task["p"],
        "tau": task["tau"], "rho_growth": task["rho_growth"]})


def _parse_counterexample(data, path, chars, sampler):
    task = {"n": _int(data, "n", path, default=10_000),
            "level": _num(data, "level", path, default=0.01)}
    spec_kwargs = {}
    trunc = _int(data, "truncation", path)
    if trunc is not None:
        spec_kwargs["truncation"] = trunc
    for key in ("set_a", "set_b"):
        spans = _pop(data, key, path, lambda v: _is_nums(v) and len(v) == 2,
                     "a [lo, hi] pair")
        if spans is not None:
            spec_kwargs[key] = (float(spans[0]), float(spans[1]))
    shared = _pop(data, "shared", path, lambda v: isinstance(v, bool),
                  "a boolean")
    if shared is not None:
        spec_kwargs["shared"] = shared
    try:
        task["spec"] = OnbCounterexampleSpec(**spec_kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    if task["n"] < 100:
        raise ConfigError(f"{path}.n", "counterexample needs n >= 100")
    if not 0.0 < task["level"] < 1.0:
        raise ConfigError(f"{path}.level", "level must lie in (0, 1)")
    return task


def _run_counterexample(cfg, task, prefix, emit, reports, failures):
    spec = task["spec"]
    report = onb_counterexample(spec, task["n"], cfg.seed, level=task["level"])
    reports.append(report)
    expected = "fail" if spec.shared else "pass"
    if report.decision != expected:
        failures.append(f"{prefix}: expected decision {expected!r}, "
                        f"got {report.decision!r}")


# kind -> (parse, run); the only list of task kinds.
TASKS = {
    "sample": (_parse_sample, _run_sample),
    "integrate": (_parse_integrate, _run_integrate),
    "sheet": (_parse_sheet, _run_sheet),
    "verify-cf": (_parse_verify_cf, _run_verify_cf),
    "verify-independence": (_parse_verify_independence, _run_verify_independence),
    "verify-duality": (_parse_verify_duality, _run_verify_duality),
    "check-integrability": (_parse_check_integrability, _run_check_integrability),
    "check-tempered": (_parse_check_tempered, _run_check_tempered),
    "classify-besov": (_parse_classify_besov, _run_classify_besov),
    "counterexample": (_parse_counterexample, _run_counterexample),
}


def _parse_task(value, path: str, chars: Characteristics,
                sampler: SamplerConfig) -> dict:
    data = _mapping(value, path)
    kind = _pop(data, "kind", path, lambda v: isinstance(v, str), "a string",
                required=True)
    if kind not in TASKS:
        raise ConfigError(f"{path}.kind",
                          f"unknown task kind {kind!r}; known: {', '.join(TASKS)}")
    task = {"kind": kind, **TASKS[kind][0](data, path, chars, sampler)}
    _finish(data, path)
    return task


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be a mapping")
    data = dict(raw)
    schema = _int(data, "schema", "<config>", required=True)
    if schema != SCHEMA_VERSION:
        raise ConfigError("<config>.schema",
                          f"unsupported schema version {schema}; this build "
                          f"reads version {SCHEMA_VERSION}")
    seed = _int(data, "seed", "<config>", required=True)
    output = _pop(data, "output", "<config>",
                  lambda v: isinstance(v, str) and v, "a nonempty string",
                  default="out")
    chars = characteristics_from_config(_any(data, "characteristics", "<config>"))
    sampler = _parse_sampler(_any(data, "sampler", "<config>"), "sampler",
                             seed, chars.dim)
    tasks_raw = _pop(data, "tasks", "<config>",
                     lambda v: isinstance(v, list), "a list", default=[])
    _finish(data, "<config>")
    tasks = tuple(_parse_task(t, f"tasks[{i}]", chars, sampler)
                  for i, t in enumerate(tasks_raw))
    return ExperimentConfig(schema=schema, seed=seed, output=output, raw=raw,
                            characteristics=chars, sampler=sampler, tasks=tasks)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"invalid YAML: {exc}") from None
    return parse_config(raw)
