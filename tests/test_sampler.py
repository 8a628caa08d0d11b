"""Path sampler: Levy-Ito structure, laws of marginals, reproducibility."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.stats as sps

from levyfield import (Box, Characteristics, Density, InfiniteActivityError,
                       JumpComponent, Region, SamplerConfig, StableKernel, TabulatedKernel,
                       TemperedStableKernel, interval, preset,
                       sample_field, sample_fields, sample_marginals,
                       sample_stable_marginal_oracle,
                       stable_symbol_constant)
from levyfield import gaussian, kernels, sampler
from levyfield.characteristics import DiffusionComponent
from levyfield.sampler import OutOfWindowError

WIN = Region.from_intervals([(0.0, 1.0)])
IMP = preset("impulsive", rate=20.0)


def cfg(seed, **kw):
    kw.setdefault("window", WIN)
    kw.setdefault("eps", 0.0)
    return SamplerConfig(seed=seed, **kw)


def test_jump_counts_are_poisson():
    counts = np.array([len(sample_field(IMP, cfg(0), replicate=k).jump_times)
                       for k in range(600)])
    mean, var = counts.mean(), counts.var(ddof=1)
    assert abs(mean - 20.0) < 4 * math.sqrt(20.0 / 600)
    # index of dispersion ~ 1 for Poisson
    assert 0.8 < var / mean < 1.25


def test_jump_times_and_locations_uniform():
    times, locs = [], []
    for k in range(300):
        real = sample_field(IMP, cfg(1), replicate=k)
        times.extend(real.jump_times)
        locs.extend(real.jump_locations[:, 0])
    assert sps.kstest(times, "uniform").pvalue > 0.01
    assert sps.kstest(locs, "uniform").pvalue > 0.01


def test_evaluate_additive_over_disjoint_regions():
    real = sample_field(IMP, cfg(2))
    a = Region.from_intervals([(0.0, 0.37)])
    b = Region.from_intervals([(0.37, 1.0)])
    both = Region(1, (interval(0.0, 0.37), interval(0.37, 1.0)))
    assert real.evaluate(1.0, a) + real.evaluate(1.0, b) == pytest.approx(
        real.evaluate(1.0, both), abs=1e-12)


def test_components_sum_to_evaluate():
    chars = preset("balan-stable", alpha=1.5)
    config = cfg(3, eps=1e-2)
    real = sample_field(chars, config)
    parts = real.components(0.8, WIN)
    total = (parts["drift"] + parts["large_jumps"] + parts["small_jumps"]
             - parts["compensator"] + parts["gaussian"] + parts["substitute"])
    assert total == pytest.approx(real.evaluate(0.8, WIN), abs=1e-12)
    assert parts["small_jump_bound"] >= 0.0


@pytest.mark.parametrize("query", ["components", "evaluate"])
def test_an_empty_region_query_draws_no_white_noise(query):
    chars = preset("gaussian-white-noise")
    half = Region.from_intervals([(0.0, 0.5)])
    want = sample_field(chars, cfg(3)).evaluate(1.0, half)
    real = sample_field(chars, cfg(3))
    got = getattr(real, query)(0.37, Region(1, ()))
    if query == "evaluate":
        assert got == 0.0
    else:
        assert got["gaussian"] == 0.0 and got["substitute"] == 0.0
    assert real.evaluate(1.0, half) == want


def test_time_slicing():
    real = sample_field(IMP, cfg(4))
    full = real.evaluate(1.0, WIN)
    real.evaluate(0.4, WIN)  # a cut at 0.4 leaves M(1, .) as it was
    assert real.evaluate(1.0, WIN) == pytest.approx(full, abs=1e-12)


def test_out_of_window_rejected():
    real = sample_field(IMP, cfg(5))
    with pytest.raises(OutOfWindowError):
        real.evaluate(1.0, Region.from_intervals([(0.5, 1.5)]))
    with pytest.raises(OutOfWindowError):
        sample_marginals(IMP, cfg(5, replicates=10),
                         Region.from_intervals([(-1.0, 0.5)]))


def test_infinite_activity_needs_truncation():
    tempered = Characteristics(1, nu=JumpComponent(TemperedStableKernel(1.2, 2.0)))
    for chars in (preset("balan-stable", alpha=1.2), tempered):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert chars.nu.kernel.tail_mass(0.0) == math.inf
            with pytest.raises(InfiniteActivityError):
                sample_field(chars, cfg(6, eps=0.0))
            with pytest.raises(InfiniteActivityError):
                sample_marginals(chars, cfg(6, eps=0.0, replicates=10))
    assert StableKernel(1.2, 1.0, 0.0).tail_masses(0.0) == (math.inf, 0.0)


def test_replicates_deterministic_and_distinct():
    r1 = sample_field(IMP, cfg(7), replicate=3)
    r2 = sample_field(IMP, cfg(7), replicate=3)
    r3 = sample_field(IMP, cfg(7), replicate=4)
    np.testing.assert_array_equal(r1.jump_times, r2.jump_times)
    np.testing.assert_array_equal(r1.jump_sizes, r2.jump_sizes)
    assert not np.array_equal(r1.jump_times, r3.jump_times)


def test_impulsive_marginal_is_skellam():
    # +-1 jumps with p=1/2 at rate 20: M(1,(0,1]) = N+ - N-, Skellam(10,10)
    vals = sample_marginals(IMP, cfg(8, replicates=4000))
    k = np.arange(-30, 31)
    pmf = sps.skellam.pmf(k, 10.0, 10.0)
    obs = np.array([(vals == ki).sum() for ki in k])
    keep = pmf * len(vals) >= 5
    stat = ((obs[keep] - len(vals) * pmf[keep]) ** 2 / (len(vals) * pmf[keep])).sum()
    # add the tail bucket implicitly via dof slack
    assert sps.chi2(df=keep.sum() - 1).sf(stat) > 0.005


def test_marginals_match_paths_in_law():
    chars = preset("balan-stable", alpha=1.5)
    fast = sample_marginals(chars, cfg(9, eps=1e-2, replicates=1500))
    slow = np.array([sample_field(chars, cfg(10, eps=1e-2), replicate=k)
                     .evaluate(1.0, WIN) for k in range(1500)])
    assert sps.ks_2samp(fast, slow).pvalue > 0.01


def test_gaussian_substitute_adds_back_small_jump_variance():
    chars = preset("balan-stable", alpha=1.5)
    kern = chars.nu.kernel
    dropped = sample_marginals(chars, cfg(11, eps=0.1, replicates=6000))
    repaired = sample_marginals(
        chars, cfg(11, eps=0.1, replicates=6000,
                   small_jump_mode="gaussian-substitute"))
    extra = np.var(repaired) - np.var(dropped)
    want = kern.second_moment_below(0.1)
    # variances of heavy-tailed sums are noisy; clip the tails first
    lo, hi = np.quantile(np.concatenate([dropped, repaired]), [0.001, 0.999])
    dv = np.var(np.clip(repaired, lo, hi)) - np.var(np.clip(dropped, lo, hi))
    assert dv == pytest.approx(want, rel=0.25)


def test_small_jump_bound_shrinks_with_eps():
    chars = preset("balan-stable", alpha=1.5)
    bounds = [sample_field(chars, cfg(12, eps=e)).small_jump_bound(1.0, WIN)
              for e in (0.1, 0.01, 0.001)]
    assert bounds[0] > bounds[1] > bounds[2] > 0.0


def test_oracle_alpha_two_is_gaussian():
    x = sample_stable_marginal_oracle(2.0, 0.0, 1.0, 5000, seed=13)
    assert sps.kstest(x, "norm", args=(0.0, math.sqrt(2.0))).pvalue > 0.01


def test_oracle_stability_under_convolution():
    # (X1 + X2) / 2^{1/a} has the same law as X for a symmetric stable law
    a = 1.3
    x = sample_stable_marginal_oracle(a, 0.0, 1.0, 20000, seed=14)
    y = sample_stable_marginal_oracle(a, 0.0, 1.0, 20000, seed=15)
    z = (x + y) / 2 ** (1 / a)
    w = sample_stable_marginal_oracle(a, 0.0, 1.0, 20000, seed=16)
    assert sps.ks_2samp(z, w).pvalue > 0.01


def test_oracle_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_stable_marginal_oracle(2.5, 0.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_stable_marginal_oracle(1.0, 0.5, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_stable_marginal_oracle(1.5, 0.0, -1.0, 10, seed=0)


def test_marginal_stream_is_separate_from_paths():
    # same seed: marginal draws must not be pathwise coupled to sample_field
    chars = preset("impulsive", rate=5.0)
    m = sample_marginals(chars, cfg(18, replicates=1))
    p = sample_field(chars, cfg(18)).evaluate(1.0, WIN)
    # equality would hint the streams collide; allow the fluke of equal values
    # only through the discrete atom at equal jump counts
    assert m.shape == (1,)
    assert np.isfinite(m[0]) and np.isfinite(p)


def test_spectrally_positive_path_has_only_positive_jumps_above_eps():
    real = sample_field(preset("mytnik-positive", alpha=1.5), cfg(19, eps=0.01))
    assert real.jump_sizes.size > 100
    assert np.all(real.jump_sizes > 0.01)


def _one_call_marginals(chars, config):
    """sample_marginals' draws with every jump from one sample_tail call."""
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, sampler._STREAM_MARGINALS)))
    kern = chars.nu.kernel
    counts = rng.poisson(kern.tail_mass(config.eps), size=config.replicates)
    y = kern.sample_tail(rng, int(counts.sum()), config.eps)
    # np.add.reduceat sums a segment the same way wherever it sits in an array
    live = counts > 0
    sums = np.zeros(counts.size)
    sums[live] = np.add.reduceat(y, (np.cumsum(counts) - counts)[live])
    return sums, counts


@pytest.mark.parametrize("chars, eps", [(preset("balan-stable", alpha=1.5), 0.2),
                                        (preset("balan-stable", alpha=0.8, p=0.7, q=0.3), 0.1),
                                        (preset("mytnik-positive", alpha=1.3), 0.05)])
@pytest.mark.parametrize("chunk", [1, 7, 10 ** 9])
def test_marginal_chunks_split_only_replicates_bigger_than_a_chunk(monkeypatch, chars,
                                                                  eps, chunk):
    # about 10 jumps a replicate: a chunk of 7 splits some replicates, not all
    config = cfg(20, eps=eps, replicates=40)
    want, counts = _one_call_marginals(chars, config)
    want += chars.gamma_measure(WIN) - chars.nu.kernel.annulus_first_moment(eps, 1.0)
    monkeypatch.setattr(sampler, "_CHUNK_JUMPS", chunk)
    got = sample_marginals(chars, config)
    split = counts > chunk
    assert split.any() == (chunk < 10 ** 9)
    if chunk == 7:
        assert not split.all()
    np.testing.assert_array_equal(got[~split], want[~split])
    np.testing.assert_allclose(got[split], want[split], rtol=1e-12)


# --------------------------------------------------------------------------
# One decomposition per config, shared by its paths
# --------------------------------------------------------------------------

TWO_BOXES = Region(2, (Box((0.0, 0.0), (1.0, 0.5)), Box((1.0, 0.0), (2.0, 1.0))))
PROBES = {1: Region.from_intervals([(0.2, 0.65)]),
          2: Region.from_box(Box((0.3, 0.1), (1.5, 0.4)))}


def _plan_case(dim, densities, mode):
    window = WIN if dim == 1 else TWO_BOXES
    if densities == "constant":
        sigma, modulation = Density(0.8), Density(1.5)
    else:
        sigma = Density(lambda x: 1.0 + x[:, 0])
        modulation = Density(lambda x: 2.0 - x[:, -1])
    chars = Characteristics(dim, sigma=DiffusionComponent(sigma),
                            nu=JumpComponent(StableKernel(1.5), modulation))
    return chars, cfg(31, window=window, eps=0.1, small_jump_mode=mode)


def _queried(real):
    """Jump records, then white-noise values and M after a fixed query sequence."""
    out = [real.jump_times, real.jump_locations, real.jump_sizes]
    probe, window = PROBES[real.chars.dim], real.config.window
    for t in (0.7, 1.0, 0.45):
        for region in (probe, window):
            gauss, sub = (0.0 if w is None else w.value(t, region)[0]
                          for w in (real.gaussian, real.substitute))
            out.append(np.array([gauss, sub, real.evaluate(t, region)]))
    return out


@pytest.mark.parametrize("mode", ["drop-with-bound", "gaussian-substitute"])
@pytest.mark.parametrize("densities", ["constant", "callable"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_path_does_not_depend_on_the_paths_drawn_before_it(dim, densities, mode):
    chars, config = _plan_case(dim, densities, mode)
    first = _queried(sample_field(chars, config, 3))
    others = [sample_field(chars, config, k) for k in range(3)]
    after_draws = _queried(sample_field(chars, config, 3))
    for k, real in enumerate(others):  # refine the others on other planes
        cut = Region.from_box(Box((0.05 * (k + 1),) * dim, (0.9, 0.45)[:dim]))
        real.evaluate(0.2 * (k + 1), cut)
        real.evaluate(0.95, config.window)
        if dim == 1:
            real.gaussian.grid_values(0.8, WIN.boxes[0], [np.linspace(0.0, 1.0, 9)])
    after_queries = _queried(sample_field(chars, config, 3))
    assert (sample_field(chars, config, 3).substitute is None) == (mode == "drop-with-bound")
    for got in (after_draws, after_queries):
        assert len(got) == len(first)
        assert all(np.array_equal(a, b) for a, b in zip(first, got))


def test_a_config_is_set_up_once_for_all_its_paths(monkeypatch):
    chars, config = _plan_case(2, "callable", "gaussian-substitute")
    calls = Counter()

    def count(owner, name, label):
        original = getattr(owner, name)

        def counted(*args):
            calls[label(*args)] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)

    count(StableKernel, "tail_mass", lambda kern, c: ("tail", c))
    count(Characteristics, "control_measure", lambda chars, region: ("lambda", region))
    count(JumpComponent, "spatial_mass", lambda nu, region: ("modulation", region))
    count(gaussian, "_space_mass",
          lambda sigma, box: ("root", sigma is chars.sigma, box))
    for k in range(100):
        sample_field(chars, config, k)
    assert calls[("tail", config.eps)] == 1
    assert calls[("lambda", TWO_BOXES)] == calls[("modulation", TWO_BOXES)] == 1
    # the white-noise root cells of sigma and of the small-jump substitute
    assert sum(1 for key in calls if key[0] == "root") == 2 * len(TWO_BOXES.boxes)
    assert set(calls.values()) == {1}


# --------------------------------------------------------------------------
# Batches of paths
# --------------------------------------------------------------------------

BATCH_WINDOWS = {1: Region(1, (interval(0.0, 0.4), interval(0.4, 1.0))), 2: TWO_BOXES}


def _batch_case(kind, dim):
    """A triple of each kind over a window of two boxes."""
    config = cfg(32, window=BATCH_WINDOWS[dim], eps=0.1, small_jump_mode="gaussian-substitute")
    if kind == "stable":
        return Characteristics(dim, sigma=DiffusionComponent(Density(0.8)),
                               nu=JumpComponent(StableKernel(1.5), Density(1.5))), config
    if kind == "compound-poisson":
        return preset("impulsive", rate=20.0, dim=dim), config
    return Characteristics(dim, sigma=DiffusionComponent(Density(1.2))), config


def _queried_members(batch):
    """What ``_queried`` gives each member alone, from queries of the whole batch."""
    probe, window = PROBES[batch.chars.dim], batch.config.window
    rows = []
    for t in (0.7, 1.0, 0.45):
        for region in (probe, window):
            c = batch.components(t, region)
            rows.append(np.stack([c["gaussian"], c["substitute"],
                                  batch.evaluate(t, region)], axis=1))
    edges = zip(batch.offsets[:-1], batch.offsets[1:])
    return [[batch.jump_times[a:b], batch.jump_locations[a:b], batch.jump_sizes[a:b]]
            + [row[i] for row in rows] for i, (a, b) in enumerate(edges)]


@pytest.mark.parametrize("kind", ["stable", "compound-poisson", "gaussian"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_batch_member_is_the_lone_path_bit_for_bit(kind, dim):
    chars, config = _batch_case(kind, dim)
    members = _queried_members(sample_fields(chars, config, range(10)))
    assert len(members) == 10
    for k, got in enumerate(members):
        want = _queried(sample_field(chars, config, k))
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    counts = [len(m[0]) for m in members]
    assert (sum(counts) > 0) == (kind != "gaussian")
    assert len({m[0].tobytes() + m[-1].tobytes() for m in members}) == 10  # distinct paths


def test_a_batch_answers_after_a_member_was_queried_alone():
    # a member holds a copy of its white noises: its queries leave the batch alone
    chars, config = _batch_case("stable", 1)
    batch = sample_fields(chars, config, range(5))
    member = batch.member(2)
    first = member.evaluate(0.5, PROBES[1])  # new planes in the member only
    got = batch.evaluate(0.7, config.window)
    lone = sample_field(chars, config, 2)
    assert lone.evaluate(0.5, PROBES[1]) == first
    assert member.evaluate(0.7, config.window) == lone.evaluate(0.7, config.window)
    for k in range(5):
        assert sample_field(chars, config, k).evaluate(0.7, config.window) == got[k]


def test_jump_times_ascend_within_each_member():
    batch = sample_fields(IMP, cfg(33, window=BATCH_WINDOWS[1]), range(40))
    edges = list(zip(batch.offsets[:-1], batch.offsets[1:]))
    assert sum(b - a for a, b in edges) > 500
    for a, b in edges:
        assert np.all(np.diff(batch.jump_times[a:b]) >= 0.0)
    # a member keeps its own rows of the flat arrays
    real = batch.member(7)
    a, b = edges[7]
    assert real.replicate == 7 and np.array_equal(real.jump_sizes, batch.jump_sizes[a:b])


def test_a_one_box_window_picks_no_boxes():
    rng = np.random.default_rng(3)
    pts = sampler._sample_locations(rng, Density(1.0), WIN, (1.0,), 500)
    want = np.random.default_rng(3)
    want.random(500)  # the pick's uniforms, every jump in box 0: seeded paths keep their locations
    np.testing.assert_array_equal(pts, want.random((500, 1)))


def test_a_multi_box_pick_draws_as_rng_choice():
    # the box of each jump, then its location in the box, as rng.choice drew them
    rng, want = np.random.default_rng(11), np.random.default_rng(11)
    pts = sampler._sample_locations(rng, Density(1.0), BATCH_WINDOWS[1], (0.4, 0.6), 50)
    pick = want.choice(2, size=50, p=(0.4, 0.6))
    for i, (lo, hi) in enumerate(((0.0, 0.4), (0.4, 1.0))):
        k = int(np.count_nonzero(pick == i))
        np.testing.assert_array_equal(pts[pick == i, 0], lo + want.random((k, 1))[:, 0] * (hi - lo))
    assert rng.random() == want.random()


def _mask_sums(batch, t, region):
    """``jump_sums`` gathered through a boolean mask of the jumps."""
    mask = (batch.jump_times <= t) & region.contains(batch.jump_locations)
    sizes = batch.jump_sizes[mask]
    label = 2 * batch._owner[mask] + (np.abs(sizes) <= 1.0)
    sums = np.bincount(label, sizes, 2 * len(batch.replicates))
    return sums[0::2], sums[1::2]


def test_kept_rows_gather_as_the_mask():
    batch = sample_fields(preset("balan-stable", alpha=1.5), cfg(41, eps=0.05), range(8))
    n = batch.jump_times.size
    sliver = Region.from_intervals([(0.5, 0.5 + 1e-12)])
    for t, region, count in ((1.0, WIN, n), (1.0, sliver, 0), (0.6, interval(0.2, 0.7), None)):
        rows = batch._kept(t, region)
        assert rows.dtype.kind == "i" and np.all(np.diff(rows) > 0)
        assert count is None or rows.size == count
        got, want = batch.jump_sums(t, region), _mask_sums(batch, t, region)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert 0 < batch._kept(0.6, interval(0.2, 0.7)).size < n


# --------------------------------------------------------------------------
# Streams and draw order
# --------------------------------------------------------------------------

SIGMA = DiffusionComponent(Density(0.5))


def _pin_case(name, dim):
    """(characteristics, window, eps) of each kernel and window kind."""
    unit = Region.from_box(Box((0.0,) * dim, (1.0,) * dim))
    windows = {1: BATCH_WINDOWS[1], 2: TWO_BOXES}
    stable = {"stable-1.5": StableKernel(1.5), "stable-0.8": StableKernel(0.8),
              "skewed": StableKernel(1.3, 0.7, 0.3),
              "tempered": TemperedStableKernel(1.2, 2.0),
              "tabulated": TabulatedKernel([-2.0, -0.5, 0.0, 0.5, 2.0], [1.0, 3.0, 0.0, 3.0, 1.0])}
    if name in stable:
        return Characteristics(dim, sigma=SIGMA, nu=JumpComponent(stable[name])), unit, 0.1
    if name == "mytnik-positive":
        return preset(name, alpha=1.5, dim=dim), unit, 0.1
    if name == "impulsive":
        return preset(name, rate=20.0, dim=dim), unit, 0.0
    nu = JumpComponent(StableKernel(1.5), Density(lambda x: 2.0 - x[:, -1]) if name == "callable"
                       else Density(1.5))
    return (Characteristics(dim, sigma=SIGMA, nu=nu),
            unit if name == "callable" else windows[dim], 0.1)


def _one_path_as_drawn(chars, config, k):
    """Path k drawn one call at a time, in the documented order, with its
    white noises: default_rng(SeedSequence((seed, k, stream))) per stream."""
    spec = sampler.levy_ito_spec(chars, config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, k, 1)))
    n = int(rng.poisson(spec.jump_rate))
    times = rng.uniform(0.0, config.horizon, n)
    times.sort()
    locs = sampler._sample_locations(rng, chars.nu.modulation, config.window, spec.box_p, n)
    sizes = chars.nu.kernel.sample_tail(rng, n, config.eps) if n else np.empty(0)
    noises = [None if sigma is None else gaussian.WhiteNoiseField(
                  sigma, config.window, config.horizon,
                  [np.random.SeedSequence((config.seed, k, stream))])
              for sigma, stream in ((chars.sigma, 2), (spec.substitute, 3))]
    return times, locs, sizes, noises


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 40 + 3])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", ["stable-1.5", "stable-0.8", "mytnik-positive", "skewed",
                                  "impulsive", "tempered", "tabulated", "two-boxes", "callable"])
def test_a_batch_draws_each_path_as_one_call_at_a_time(name, dim, seed):
    chars, window, eps = _pin_case(name, dim)
    config = cfg(seed, window=window, eps=eps, small_jump_mode="gaussian-substitute")
    replicates = [0, 1, 2, 5, 2 ** 32 + 1]
    batch = sample_fields(chars, config, replicates)
    values = [None if s is None else s.value(0.6, PROBES[dim]) for s in
              (batch.gaussian, batch.substitute)]
    assert batch.jump_times.size > 0
    for i, k in enumerate(replicates):
        times, locs, sizes, noises = _one_path_as_drawn(chars, config, k)
        a, b = batch.offsets[i], batch.offsets[i + 1]
        assert np.array_equal(batch.jump_times[a:b], times)
        assert np.array_equal(batch.jump_locations[a:b], locs)
        assert np.array_equal(batch.jump_sizes[a:b], sizes)
        for got, lone in zip(values, noises):
            assert (got is None) == (lone is None)
            assert got is None or got[i] == lone.value(0.6, PROBES[dim])[0]


SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 96 + 5, np.int64(7)]


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_streams_are_the_seed_sequences_of_each_replicate(seed):
    replicates = [*range(50), 2 ** 32 + 1]
    for stream in (1, 2, 3):
        for k, got in zip(replicates, sampler._streams(seed, replicates, stream), strict=True):
            want = np.random.default_rng(np.random.SeedSequence((seed, k, stream)))
            assert got.bit_generator.state == want.bit_generator.state
            assert got.random(5).tobytes() == want.random(5).tobytes()


def test_a_negative_seed_is_refused_as_by_seed_sequence():
    with pytest.raises(ValueError):
        np.random.SeedSequence((-1, 0, 1))
    with pytest.raises(ValueError):
        list(sampler._streams(-1, range(3), 1))


def test_a_batch_maps_its_jump_sizes_once(monkeypatch):
    # one map of a batch's uniforms, not a sample_tail call per path
    from levyfield.kernels import CompoundPoissonKernel, DiscreteJumps
    maps, tail_map = [], CompoundPoissonKernel.tail_map

    def counted(kern, eps):
        to_tail = tail_map(kern, eps)

        def mapped(u):
            maps.append(u.size)
            return to_tail(u)
        return mapped

    def no_sample_tail(*args):
        raise AssertionError("sample_tail was called")

    monkeypatch.setattr(CompoundPoissonKernel, "tail_map", counted)
    monkeypatch.setattr(DiscreteJumps, "sample_tail", no_sample_tail)
    batches = list(sampler.path_batches(IMP, cfg(12), 600))
    assert len(maps) == len(batches) >= 1
    assert maps == [b.jump_sizes.size for b in batches]


def test_a_stable_batch_maps_by_blocks_not_by_path(monkeypatch):
    calls, inverse_cdf = [], StableKernel._inverse_cdf

    def counted(kern, u, buf, eps):
        calls.append(u.size)
        return inverse_cdf(kern, u, buf, eps)

    monkeypatch.setattr(StableKernel, "_inverse_cdf", counted)
    chars = Characteristics(1, nu=JumpComponent(StableKernel(1.5)))
    batch = sample_fields(chars, cfg(13, eps=0.05), range(200))
    total = batch.jump_sizes.size
    assert total > 2 * 200
    assert calls == [min(kernels._TRANSFORM_BLOCK, total - lo)
                     for lo in range(0, total, kernels._TRANSFORM_BLOCK)]
