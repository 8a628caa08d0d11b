"""The four benchmark workloads: inputs made from a seed, operations, checks.

Each workload is a fixed list of operations.  An operation maps a library
seed to an output; its check turns the output into ``None`` (correct) or a
failure reason.  Checks never compare exact sample values, so a change of bit
generator still passes; they compare laws, decisions and closed forms.

Every workload stresses one layer and leaves the others nearly idle:

- ``marginals``: RNG fill, stable-tail transform and segment sums in
  ``sample_marginals``; no quadrature, white noise or distance covariance.
- ``paths``: ``levy-field run`` end to end; per-path sampling and
  white-noise refinement dominate, plus config parsing and artifact writing.
- ``dependence``: the distance-covariance permutation loop, plus per-path
  ``sample_field`` overhead on small paths.
- ``quadrature``: escalating Gauss-Legendre, scalar kernel calls and shell
  ladders; no random numbers at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from levyfield import (IndicatorFunction, PolynomialDecay, ProductBump, Region,
                       SamplerConfig, SimpleFunction, cylindrical_characteristics,
                       empirical_cf, lm_membership, preset, sample_marginals,
                       tempered_test)
from levyfield import cli
from levyfield.characteristics import (Characteristics, Density,
                                       DiffusionComponent, DriftComponent,
                                       JumpComponent)
from levyfield.kernels import (CompoundPoissonKernel, DiscreteJumps,
                               StableKernel, UniformJumps)
from levyfield.verify import (OnbCounterexampleSpec, embedding_inequality_check,
                              independence_test, onb_counterexample,
                              paired_evaluations, stationary_increment_test)

UNIT = Region.from_intervals([(0.0, 1.0)])


@dataclass
class Op:
    name: str
    run: Callable[[int], object]               # library seed -> output
    check: Callable[[object], "str | None"]    # output -> failure reason
    seed: int
    # A correct program misses a statistical check with small probability
    # (a 1%-level test fails 1% of seeds), so a miss is confirmed on fresh
    # seeds before it counts; see run.py.
    statistical: bool = False


@dataclass
class Workload:
    name: str
    unit: str            # what one unit of ``work`` is
    work: float          # units of work delivered by one pass
    ops: list
    inputs: dict         # JSON description of the inputs made from the seed
    warm_up: Callable[[], None]


def library_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def confirmation_seed(op_seed: int, j: int) -> int:
    return int(np.random.SeedSequence((op_seed, 0xC0F1, j)).generate_state(1)[0])


def build(name: str, seed: int, scratch: str) -> Workload:
    return BUILDERS[name](seed, scratch)


# --------------------------------------------------------------------------
# marginals
# --------------------------------------------------------------------------

MARGINAL_N = 1000
MARGINAL_EPS = 1e-3
CF_U = np.array([0.25, 0.5, 1.0, 2.0])
LAPLACE_U = (0.5, 1.0, 2.0)


def _marginal_run(chars):
    def run(seed):
        cfg = SamplerConfig(seed=seed, window=UNIT, horizon=1.0, eps=MARGINAL_EPS,
                            small_jump_mode="gaussian-substitute",
                            replicates=MARGINAL_N)
        x = sample_marginals(chars, cfg, UNIT)
        ecf, radius = empirical_cf(x, CF_U)
        ind = IndicatorFunction(UNIT)
        target = np.exp([chars.levy_symbol(ind, u, 1.0).value for u in CF_U])
        return x, ecf, radius, target
    return run


def _check_symmetric_cf(out):
    _, ecf, radius, target = out
    # criterion 1's credit for the Gaussian stand-in below eps (alpha = 3/2)
    bias = CF_U ** 3 / 6.0 * MARGINAL_EPS ** 1.5
    dev = np.abs(ecf - target)
    if np.all(dev <= radius + bias):
        return None
    return f"|ecf - exp(t psi)| = {dev.tolist()} exceeds {(radius + bias).tolist()}"


def _check_positive_laplace(out):
    x = out[0]
    for u in LAPLACE_U:
        w = np.exp(-u * x)
        se = w.std(ddof=1) / math.sqrt(w.size)
        dev = abs(w.mean() - math.exp(u ** 1.5))
        if not dev <= 3.0 * se:
            return f"Laplace transform at u={u}: deviation {dev:.4g} > 3 SE {3 * se:.4g}"
    return None


def build_marginals(seed: int, scratch: str) -> Workload:
    symmetric = preset("balan-stable", alpha=1.5)
    skewed = preset("mytnik-positive", alpha=1.5)
    s_sym, s_skew = library_seeds(seed, 2)
    ops = [Op("symmetric-cf", _marginal_run(symmetric), _check_symmetric_cf,
              s_sym, statistical=True),
           Op("skewed-laplace", _marginal_run(skewed), _check_positive_laplace,
              s_skew, statistical=True)]

    def warm_up():
        for chars in (symmetric, skewed):
            cfg = SamplerConfig(seed=seed, window=UNIT, horizon=1.0,
                                eps=MARGINAL_EPS,
                                small_jump_mode="gaussian-substitute",
                                replicates=20)
            empirical_cf(sample_marginals(chars, cfg, UNIT), CF_U)
            chars.levy_symbol(IndicatorFunction(UNIT), 1.0, 1.0)

    inputs = {"seeds": [s_sym, s_skew], "replicates": MARGINAL_N,
              "eps": MARGINAL_EPS, "alpha": 1.5}
    return Workload("marginals", "replicates", 2 * MARGINAL_N, ops, inputs, warm_up)


# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------

PATHS_EPS = 0.01
PATHS_CF_N = 1000


def paths_config(seed: int, drift: float, tasks=None) -> dict:
    """A ``levy-field run`` config on an explicit triple over [-1, 1].

    The bump stays centred: where its mesh falls against the white-noise
    planes changes the refinement cost, which would make ``wall_s`` track
    the seed rather than the code.
    """
    bump = {"type": "bump", "center": [0.0], "radius": 0.5}
    if tasks is None:
        tasks = [
            {"kind": "sample", "replicates": 2, "formats": ["jsonl", "frames"]},
            {"kind": "sheet", "axes": [{"lo": -0.9, "hi": 0.9, "n": 64}]},
            {"kind": "integrate", "function": bump},
            {"kind": "verify-cf", "u": [0.5, 1.0, 2.0], "n": PATHS_CF_N,
             "function": bump},
            {"kind": "check-integrability", "function": bump},
        ]
    return {
        "schema": 1,
        "seed": seed,
        "characteristics": {
            "dimension": 1,
            "gamma": {"density": drift},
            "sigma": {"density": 1.0},
            "nu": {"kernel": {"kind": "stable", "alpha": 1.5, "p": 0.5, "q": 0.5}},
        },
        "sampler": {"window": [[-1.0, 1.0]], "eps": PATHS_EPS},
        "tasks": tasks,
    }


def expected_artifacts(config: dict) -> list[str]:
    names = ["manifest.json"]
    for i, task in enumerate(config["tasks"]):
        prefix = f"{i:02d}-{task['kind']}"
        if task["kind"] == "sample":
            names += [f"{prefix}-r{k}.{ext}" for k in range(task["replicates"])
                      for ext in ("jsonl", "bin")]
        else:
            names.append(prefix + (".csv" if task["kind"] in ("sheet", "verify-cf")
                                   else ".json"))
        if task["kind"].startswith("verify"):
            names += ["reports.jsonl", "summary.txt"]
    return sorted(set(names))


def run_cli(config: dict, scratch: str) -> tuple[int, str]:
    """``levy-field run`` on ``config`` into a fresh directory; (exit code, dir)."""
    outdir = tempfile.mkdtemp(dir=scratch, prefix="run-")
    path = os.path.join(outdir, "config.yaml")
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(config, handle)
    artifacts = os.path.join(outdir, "artifacts")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(["run", path, "--output", artifacts])
    return code, artifacts


def _check_paths_run(config):
    expected = expected_artifacts(config)

    def check(out):
        code, artifacts = out
        try:
            if code != 0:
                return f"levy-field run exited with {code}"
            with open(os.path.join(artifacts, "manifest.json"), encoding="utf-8") as h:
                listed = json.load(h)["artifacts"]
            if listed != expected:
                return f"manifest lists {listed}, expected {expected}"
            missing = [n for n in listed if not os.path.isfile(os.path.join(artifacts, n))]
            if missing:
                return f"artifacts missing: {missing}"
            with open(os.path.join(artifacts, "reports.jsonl"), encoding="utf-8") as h:
                decisions = [json.loads(line)["decision"] for line in h if line.strip()]
            if decisions != ["pass"]:
                return f"verify-cf decisions {decisions}, expected ['pass']"
            with open(os.path.join(artifacts, "04-check-integrability.json"),
                      encoding="utf-8") as h:
                verdict = json.load(h)["verdict"]
            if verdict != "member":
                return f"bump membership verdict {verdict!r}, expected 'member'"
            return None
        finally:
            shutil.rmtree(os.path.dirname(artifacts), ignore_errors=True)
    return check


def build_paths(seed: int, scratch: str) -> Workload:
    rng = np.random.default_rng(seed)
    cfg_seed = library_seeds(seed, 1)[0]
    drift = round(float(rng.uniform(-0.5, 0.5)), 6)
    config = paths_config(cfg_seed, drift)

    def run(s):
        return run_cli(dict(config, seed=s), scratch)

    ops = [Op("levy-field-run", run, _check_paths_run(config), cfg_seed,
              statistical=True)]
    warm = paths_config(cfg_seed, drift,
                        tasks=[t for t in config["tasks"] if t["kind"] != "verify-cf"])

    def warm_up():
        code, artifacts = run_cli(warm, scratch)
        shutil.rmtree(os.path.dirname(artifacts), ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"warm-up run exited with {code}")

    inputs = {"config": config}
    return Workload("paths", "integrals", PATHS_CF_N + 1, ops, inputs, warm_up)


# --------------------------------------------------------------------------
# dependence
# --------------------------------------------------------------------------

DEP_N = 600
PERMUTATIONS = 200
LEVEL = 0.01


def _paired_test(chars, region_a, region_b):
    def run(seed):
        path_seed, test_seed = library_seeds(seed, 2)
        cfg = SamplerConfig(seed=path_seed, window=UNIT, horizon=1.0, eps=0.0,
                            small_jump_mode="gaussian-substitute")
        va, vb = paired_evaluations(chars, cfg, region_a, region_b, DEP_N)
        return independence_test(va, vb, permutations=PERMUTATIONS, level=LEVEL,
                                 seed=test_seed)
    return run


def _onb(shared):
    def run(seed):
        spec = OnbCounterexampleSpec(truncation=8, shared=shared)
        return onb_counterexample(spec, DEP_N, seed, permutations=PERMUTATIONS,
                                  level=LEVEL)
    return run


def _expect_pass(report):
    return None if report.decision == "pass" else \
        f"decision {report.decision} (p={report.statistic:.4g}), expected pass"


def _expect_reject(report):
    if report.decision == "fail" and report.statistic < 0.01:
        return None
    return f"decision {report.decision} (p={report.statistic:.4g}), expected fail with p < 0.01"


def build_dependence(seed: int, scratch: str) -> Workload:
    chars = preset("impulsive", rate=20.0)
    rng = np.random.default_rng(seed)
    s = float(rng.uniform(0.3, 0.5))
    t = float(rng.uniform(0.8, 1.0))
    halves = (Region.from_intervals([(0.0, 0.5)]), Region.from_intervals([(0.5, 1.0)]))
    overlap = (Region.from_intervals([(0.0, 0.6)]), Region.from_intervals([(0.4, 1.0)]))
    seeds = library_seeds(seed, 5)

    def stationary(op_seed):
        return stationary_increment_test(chars, UNIT, [(s, t)], DEP_N, op_seed)

    ops = [
        Op("disjoint", _paired_test(chars, *halves), _expect_pass, seeds[0], True),
        Op("overlapping", _paired_test(chars, *overlap), _expect_reject, seeds[1], True),
        Op("onb-shared", _onb(True), _expect_reject, seeds[2], True),
        Op("onb-control", _onb(False), _expect_pass, seeds[3], True),
        Op("stationary", stationary, _expect_pass, seeds[4], True),
    ]

    def warm_up():
        cfg = SamplerConfig(seed=seed, window=UNIT, horizon=1.0, eps=0.0,
                            small_jump_mode="gaussian-substitute")
        va, vb = paired_evaluations(chars, cfg, *halves, 100)
        independence_test(va, vb, permutations=5)

    # every op runs one distance-covariance test: permutations + observed
    inputs = {"seeds": seeds, "n": DEP_N, "permutations": PERMUTATIONS,
              "stationary_pair": [s, t]}
    return Workload("dependence", "permutations", len(ops) * (PERMUTATIONS + 1),
                    ops, inputs, warm_up)


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

# Criterion 9's own draws (generator seed 2024) at these indices: 2-D simple
# functions against uniform-jump kernels, the known slow case.  Their cost
# ranges from 2.7 s to over 80 s with the drawn parameters, so they are held
# fixed rather than drawn from the workload seed.
SLOW_FIXTURES = (23, 47)
FAST_FIXTURES = 15


def _criterion9_fixture(rng, i):
    """Fixture ``i`` of criterion 9's generator (same draws, same order)."""
    kind = i % 3
    if kind == 0:
        alpha = rng.uniform(0.3, 1.9)
        p = rng.uniform(0.0, 1.0)
        kern = StableKernel(alpha, p, 1.0 - p, scale=rng.uniform(0.3, 2.0))
    elif kind == 1:
        vals = rng.uniform(-2.0, 2.0, size=3)
        kern = CompoundPoissonKernel(
            rng.uniform(0.5, 4.0),
            DiscreteJumps(tuple(vals), tuple(rng.dirichlet(np.ones(3)))))
    else:
        a = rng.uniform(0.1, 1.0)
        kern = CompoundPoissonKernel(rng.uniform(0.5, 4.0),
                                     UniformJumps(a, a + rng.uniform(0.5, 2.0)))
    d = 1 + i % 2
    chars = Characteristics(
        d,
        gamma=DriftComponent(Density(rng.uniform(-1.0, 1.0))),
        sigma=DiffusionComponent(Density(rng.uniform(0.0, 1.0))),
        nu=JumpComponent(kern))
    if i % 2 == 0:
        c = rng.uniform(-0.5, 0.5, size=d)
        radius = rng.uniform(0.2, 0.8, size=d)
        f = ProductBump(center=tuple(c), radius=tuple(radius))
        domain = Region.from_intervals([(ci - ri, ci + ri) for ci, ri in zip(c, radius)])
    else:
        cuts = np.sort(rng.uniform(-1.0, 1.0, size=4))
        f = SimpleFunction(tuple(
            (float(rng.uniform(-2.0, 2.0)),
             Region.from_intervals([(cuts[j], cuts[j + 1])] * d))
            for j in range(3)))
        domain = Region.from_intervals([(cuts[0], cuts[-1])] * d)
    return chars, f, domain


def embedding_fixtures(seed: int):
    """(label, chars, f, domain): seed-drawn fast families plus the slow pair."""
    out = []
    rng = np.random.default_rng(seed)
    i = 0
    while len(out) < FAST_FIXTURES:
        fixture = _criterion9_fixture(rng, i)
        if i % 6 != 5:   # index 5 mod 6 is the slow 2-D simple x uniform family
            out.append((f"embedding-{i}", *fixture))
        i += 1
    rng = np.random.default_rng(2024)
    for i in range(max(SLOW_FIXTURES) + 1):
        fixture = _criterion9_fixture(rng, i)
        if i in SLOW_FIXTURES:
            out.append((f"embedding-slow-{i}", *fixture))
    return out


def _membership_grid():
    """Criterion 8's grid: (alpha, r, d), boundary band excluded (93 points)."""
    return [(float(alpha), float(r), d)
            for alpha in np.linspace(0.3, 1.9, 10)
            for r in np.linspace(0.2, 3.0, 5)
            for d in (1, 2)
            if abs(2.0 * r * alpha - d) > 0.2]


def _bump_reference(f, power):
    x = np.linspace(f.center[0] - f.radius[0], f.center[0] + f.radius[0], 200_001)
    return float(np.trapezoid(f(x[:, None]) ** power, x))


def build_quadrature(seed: int, scratch: str) -> Workload:
    rng = np.random.default_rng(seed)
    fixtures = embedding_fixtures(seed)
    ops = []
    for label, chars, f, domain in fixtures:
        ops.append(Op(label, lambda _s, c=chars, g=f, dom=domain:
                      embedding_inequality_check(c, g, dom),
                      _expect_pass, 0))

    for alpha, r, d in _membership_grid():
        want = "member" if 2.0 * r * alpha > d else "non-member"
        ops.append(Op(f"membership-{alpha:.3f}-{r:.2f}-{d}",
                      lambda _s, a=alpha, r=r, d=d: lm_membership(
                          preset("balan-stable", alpha=a, dim=d), PolynomialDecay(r, dim=d)),
                      lambda res, w=want: None if res.verdict == w else
                      f"verdict {res.verdict!r}, closed form says {w!r}", 0))

    alpha = float(rng.uniform(0.6, 1.9))
    if abs(alpha - 1.0) < 0.05:
        alpha = 1.2
    presets = [("gaussian-white-noise", {}),
               ("balan-stable", {"alpha": alpha}),
               ("mytnik-positive", {"alpha": float(rng.uniform(1.1, 1.9))}),
               ("impulsive", {"rate": float(rng.uniform(2.0, 20.0))})]
    for name, params in presets:
        chars = preset(name, **params)
        ops.append(Op(f"tempered-{name}", lambda _s, c=chars: tempered_test(c),
                      lambda res: None if res.tempered else
                      f"not tempered: {res.note}", 0))

    g, s_density = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.2, 1.5))
    cyl_alpha = float(rng.uniform(0.5, 1.9))
    bump = ProductBump((float(rng.uniform(-0.5, 0.5)),), (float(rng.uniform(0.2, 0.8)),))
    cyl_chars = Characteristics(1, gamma=DriftComponent(Density(g)),
                                sigma=DiffusionComponent(Density(s_density)),
                                nu=JumpComponent(StableKernel(cyl_alpha)))
    want_a, want_q = g * _bump_reference(bump, 1), s_density * _bump_reference(bump, 2)

    def check_cyl(cc):
        if (math.isclose(cc.a, want_a, rel_tol=1e-6, abs_tol=1e-12)
                and math.isclose(cc.qf, want_q, rel_tol=1e-6, abs_tol=1e-12)):
            return None
        return f"(a, qf) = ({cc.a:.10g}, {cc.qf:.10g}), closed form ({want_a:.10g}, {want_q:.10g})"

    ops.append(Op("cylindrical", lambda _s: cylindrical_characteristics(cyl_chars, bump),
                  check_cyl, 0))

    # criterion 4: (|beta alpha / (1 - alpha)| + 2 / (2 - alpha)) * leb(A)
    measures = []
    for k in range(20):
        a = float(rng.uniform(0.2, 1.95))
        if abs(a - 1.0) < 0.05:
            a = 1.4
        p = float(rng.uniform(0.0, 1.0))
        d = int(rng.integers(1, 4))
        spans = [(float(lo), float(lo + w)) for lo, w in
                 zip(rng.uniform(-3.0, 1.0, d), rng.uniform(0.1, 3.0, d))]
        leb = math.prod(hi - lo for lo, hi in spans)
        want = (abs((2.0 * p - 1.0) * a / (1.0 - a)) + 2.0 / (2.0 - a)) * leb
        chars = preset("balan-stable", alpha=a, p=p, q=1.0 - p, dim=d)
        region = Region.from_intervals(spans)
        measures.append([a, p, spans])
        ops.append(Op(f"control-measure-{k}",
                      lambda _s, c=chars, reg=region: c.control_measure(reg).value,
                      lambda got, w=want: None if math.isclose(got, w, rel_tol=1e-9,
                                                               abs_tol=1e-9)
                      else f"control measure {got!r}, closed form {w!r}", 0))

    def warm_up():
        _, chars, f, domain = fixtures[0]
        embedding_inequality_check(chars, f, domain)
        lm_membership(preset("balan-stable", alpha=1.5, dim=2), PolynomialDecay(1.0, dim=2))

    inputs = {"embedding_fixtures": [
                  [label, chars.nu.kernel.to_config(),
                   [[list(b.lo), list(b.hi)] for b in domain.boxes]]
                  for label, chars, _, domain in fixtures],
              "presets": presets, "cylindrical": [g, s_density, cyl_alpha,
                                                  bump.center.tolist(),
                                                  bump.radius.tolist()],
              "control_measures": measures}
    return Workload("quadrature", "fixtures", len(ops), ops, inputs, warm_up)


BUILDERS = {
    "marginals": build_marginals,
    "paths": build_paths,
    "dependence": build_dependence,
    "quadrature": build_quadrature,
}
