"""Sampling of field realizations and exact stable marginal oracles.

A realization carries the retained jumps (all of size > eps), the Gaussian
white-noise component on a refinable cell grid, and exact accessors for the
deterministic drift and the compensator of the retained small jumps, so that
set evaluations are finitely additive by construction.  Small jumps below eps
are either dropped (with a reported L2 bound) or replaced by an independent
white noise of matching variance.

Every constant of the decomposition depends on the characteristics and the
config but not on the seed: ``levy_ito_spec`` builds them once per config,
and the paths, ``sample_marginals``, ``integrate`` and the sheets read them.

``sample_fields`` draws a batch of paths, ``sample_field`` its batch of one.
Replicate k draws from its own streams ``default_rng(SeedSequence((seed, k,
stream)))``, all seeds of a batch hashed at once (``_streams``): the count n;
n uniform times, sorted in place; each jump's box (as ``rng.choice`` draws
it, n uniforms even for one box); n locations; n sizes (uniforms where the
kernel has a ``tail_map``).  Scaling the times, mapping a one-box
window's locations and the sizes run once per batch.  The marks stay in draw
order: iid and independent of the times, whose sort gives the uniform order
statistics, they keep the Poisson law (Devroye, "Non-Uniform Random Variate
Generation", 1986, ch. V).  A batch query gathers its jumps by ascending row
index (``PathBatch._kept``), not by mask.

``sample_marginals`` is a law-identical fast path for replicated one-set
marginals M(T, A): it skips jump records entirely and reduces each replicate
to a segment sum of its jump sizes, which is what makes 1e5 replicates of an
alpha = 1.5 run at eps = 1e-3 (about 3e9 jumps) feasible.  The jumps of all
replicates form one flat stream, drawn by the kernel's own ``sample_tail`` in
chunks of at most ``_CHUNK_JUMPS`` (2^20) that hold whole replicates (only a
bigger replicate is split), so memory grows with the chunk, not with the
number of jumps.  A stable kernel maps each chunk 2^14 jumps at a time, and
splits a chunk of a PCG64 stream into one part per CPU (at least 8 blocks
each): the calling thread maps the first, helper threads the rest from copies
advanced to their offsets, so the jumps and the generator's state after are
bit for bit those of one pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .characteristics import Characteristics, Density, DiffusionComponent
from .gaussian import WhiteNoiseField, root_masses
from .kernels import choice_indices
from .regions import Region

# stream tags appended to (seed, replicate) so sub-streams never collide
_STREAM_JUMPS = 1
_STREAM_GAUSS = 2
_STREAM_SUBSTITUTE = 3
_STREAM_MARGINALS = 4
_CHUNK_JUMPS = 1 << 20  # jumps per sample_tail call of sample_marginals; bounds its memory
_BLOCK_JUMPS = 1 << 16  # expected jumps per batch of path_batches; bounds its memory
# decompositions kept by levy_ito_spec, most recently used first
_SPECS = 8


class InfiniteActivityError(ValueError):
    """Raised when the requested truncation leaves infinitely many jumps."""


class OutOfWindowError(ValueError):
    """Raised when a query region is not covered by the sampled window."""


@dataclass(frozen=True, eq=False)
class LevyItoSpec:
    """The Levy-Ito decomposition of one sampler config, shared by its paths.

    Built only where the control measure of the window is finite, as it is
    for a random measure.  Per unit of modulation: ``tail`` ``nu(|y| > eps)``,
    ``compensator_rate`` ``int_{eps < |y| <= 1} y nu`` and ``small_moment``
    ``int_{|y| <= eps} y^2 nu``.  Over the window: the mean jump count ``jump_rate`` of a path,
    the box probabilities ``box_p`` of jump locations, and the white-noise
    root masses of Sigma and of the ``substitute`` for the small jumps.
    """

    chars: Characteristics
    tail: float = 0.0
    compensator_rate: float = 0.0
    small_moment: float = 0.0
    jump_rate: float = 0.0
    box_p: tuple | None = None
    sigma_roots: tuple = ()
    substitute: DiffusionComponent | None = None
    substitute_roots: tuple = ()


def levy_ito_spec(chars: Characteristics, config: SamplerConfig) -> LevyItoSpec:
    """The decomposition of ``chars`` on the config's window, horizon, eps and
    small-jump mode; the last ``_SPECS`` are kept, whatever their seeds."""
    return _decompose(chars, config.window, config.horizon, config.eps,
                      config.small_jump_mode)


@functools.lru_cache(maxsize=_SPECS)
def _decompose(chars: Characteristics, window: Region, horizon: float, eps: float,
               mode: str) -> LevyItoSpec:
    if window.dim != chars.dim:
        raise ValueError("window dimension does not match characteristics")
    chars.control_measure(window)   # raises unless lambda(window) < infinity
    sigma_roots = root_masses(chars.sigma, window)
    if chars.nu is None:
        return LevyItoSpec(chars, sigma_roots=sigma_roots)
    kern, mod = chars.nu.kernel, chars.nu.modulation
    mod_mass, _ = chars.nu.spatial_mass(window)
    tail = kern.tail_mass(eps)
    rate = horizon * mod_mass * tail
    if not np.isfinite(rate):
        raise InfiniteActivityError(
            "infinitely many jumps above the requested truncation; "
            "use eps > 0 (e.g. 1e-3) for infinite-activity kernels")
    weights = np.array([mod.integral(Region.from_box(b))[0] for b in window.boxes])
    # with no mass on the window a path cannot place its jumps; marginals need none
    box_p = tuple(weights / weights.sum()) if weights.sum() > 0.0 else None
    s2 = kern.second_moment_below(eps)
    substitute = None
    if mode == "gaussian-substitute" and eps > 0.0:
        substitute = DiffusionComponent(Density(mod.const * s2) if mod.is_constant
                                        else Density(lambda x: mod(x) * s2))
    return LevyItoSpec(chars, tail,
                       kern.annulus_first_moment(eps, 1.0) if eps < 1.0 else 0.0, s2,
                       rate, box_p, sigma_roots, substitute,
                       root_masses(substitute, window))


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    window: Region
    horizon: float = 1.0
    eps: float = 1e-3
    small_jump_mode: str = "drop-with-bound"
    replicates: int = 1

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")
        if not isinstance(self.window, Region):
            raise ValueError("window must be a Region")
        if not all(np.isfinite(b.lo).all() and np.isfinite(b.hi).all()
                   for b in self.window.boxes):
            raise ValueError("window must be bounded")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.small_jump_mode not in ("drop-with-bound", "gaussian-substitute"):
            raise ValueError("small_jump_mode must be drop-with-bound or gaussian-substitute")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    def check_times(self, t: float) -> None:
        """The one check of a query's time span (0, t] against the horizon."""
        if not 0.0 <= t <= self.horizon * (1 + 1e-12):
            raise ValueError("need 0 <= t <= horizon")


class PathBatch:
    """Paths ``replicates`` of one sampler config over (0, horizon] x window.
    Member i has rows ``offsets[i]:offsets[i + 1]`` of the jump arrays (times
    ascending) and field i of the white-noise stacks ``gaussian``, ``substitute``
    (or None).  A query covers (0, t] and gives each member the value it
    would give alone."""

    def __init__(self, spec: LevyItoSpec, config: SamplerConfig, replicates, offsets,
                 times, locations, sizes, gaussian, substitute):
        self.spec, self.chars, self.config = spec, spec.chars, config
        self.replicates, self.offsets = tuple(replicates), offsets
        self._owner = np.repeat(np.arange(len(self.replicates)), np.diff(offsets))  # row's member
        for a in (offsets, times, locations, sizes, self._owner):
            a.setflags(write=False)
        self.jump_times, self.jump_locations, self.jump_sizes = times, locations, sizes
        self.gaussian, self.substitute = gaussian, substitute
        self._mod_cache: dict[Region, float] = {}

    def member(self, i: int) -> FieldRealization:
        """Member i as a path of its own, with a copy of its white noises:
        from here on the member and the batch are queried independently."""
        a, b = self.offsets[i], self.offsets[i + 1]
        return FieldRealization(self.spec, self.config, self.replicates[i:i + 1],
                                np.array([0, b - a]), self.jump_times[a:b],
                                self.jump_locations[a:b], self.jump_sizes[a:b],
                                *(None if s is None else s.rows(i, i + 1)
                                  for s in (self.gaussian, self.substitute)))

    # -- structure -------------------------------------------------------
    def _check_query(self, t: float, region: Region) -> None:
        self.config.check_times(t)
        if region.dim != self.chars.dim:
            raise ValueError("region dimension mismatch")
        if not region.is_empty and not self.config.window.covers_region(region):
            raise OutOfWindowError("query region is not covered by the sampled window")

    def _per_modulation(self, rate: float, t: float, region: Region) -> float:
        """``t m(region) rate``; m(region) is kept for this batch only."""
        if not rate:
            return 0.0
        if region not in self._mod_cache:
            self._mod_cache[region] = self.chars.nu.spatial_mass(region)[0]
        return t * self._mod_cache[region] * rate

    def _kept(self, t: float, region: Region) -> np.ndarray:
        """The rows, ascending, of the jumps in (0, t] x region."""
        return np.flatnonzero((self.jump_times <= t) & region.contains(self.jump_locations))

    def _jump_integrals(self, f, t: float, region: Region) -> np.ndarray:
        """Per member, the sum in jump order of ``f(x) y`` over its jumps in
        (0, t] x region; the gathered rows are freed on return."""
        keep = self._kept(t, region)
        locs = self.jump_locations.take(keep, axis=0)
        jumps = f(locs) * self.jump_sizes.take(keep) if len(locs) else np.empty(0)
        return np.bincount(self._owner.take(keep), jumps, len(self.replicates))

    # -- exact accessors, the same for every member ----------------------
    def drift(self, t: float, region: Region) -> float:
        return t * self.chars.gamma_measure(region)

    def compensator(self, t: float, region: Region) -> float:
        """Subtracted mean of the retained compensated jumps (eps < |y| <= 1)."""
        return self._per_modulation(self.spec.compensator_rate, t, region)

    def small_jump_bound(self, t: float, region: Region) -> float:
        """L2 bound on the dropped small-jump part: t int_{|y|<=eps} y^2 nu."""
        return self._per_modulation(self.spec.small_moment, t, region)

    # -- evaluation ------------------------------------------------------
    def jump_sums(self, t: float, region: Region) -> tuple[np.ndarray, ...]:
        """Per member: (large-jump sum, retained-small-jump sum) over (0, t] x region."""
        keep = self._kept(t, region)
        sizes = self.jump_sizes.take(keep)
        label = 2 * self._owner.take(keep) + (np.abs(sizes) <= 1.0)  # 2i: large, 2i + 1: small
        sums = np.bincount(label, sizes, 2 * len(self.replicates))  # in jump order
        return sums[0::2], sums[1::2]

    def evaluate(self, t: float, region: Region) -> np.ndarray:
        """M over (0, t] x region per member: the sum of its components."""
        c = PathBatch.components(self, t, region)  # arrays, in a FieldRealization too
        return (c["drift"] + c["large_jumps"] + c["small_jumps"] - c["compensator"]
                + c["gaussian"] + c["substitute"])

    def components(self, t: float, region: Region) -> dict:
        """Per member; drift, compensator and bound are one float for all."""
        self._check_query(t, region)
        big, small = self.jump_sums(t, region)
        noise = [np.zeros(len(self.replicates)) if s is None else s.value(t, region)
                 for s in (self.gaussian, self.substitute)]
        return {
            "drift": self.drift(t, region),
            "gaussian": noise[0], "substitute": noise[1],
            "large_jumps": big, "small_jumps": small,
            "compensator": self.compensator(t, region),
            "small_jump_bound": self.small_jump_bound(t, region),
        }


class FieldRealization(PathBatch):
    """One sampled path of the random measure: a batch of one, queried as floats."""

    replicate = property(lambda self: self.replicates[0])

    def evaluate(self, t: float, region: Region) -> float:
        return float(PathBatch.evaluate(self, t, region)[0])

    def components(self, t: float, region: Region) -> dict:
        parts = PathBatch.components(self, t, region)
        return {k: float(np.ravel(v)[0]) for k, v in parts.items()}


# --------------------------------------------------------------------------
# Path sampling
# --------------------------------------------------------------------------

def _sample_locations(rng: np.random.Generator, modulation: Density,
                      window: Region, box_p: tuple, n: int) -> np.ndarray:
    if box_p is None:
        raise ValueError("jump modulation has no mass on the window")
    pick = choice_indices(box_p, rng.random(n))
    pts = np.empty((n, window.dim))
    for i, b in enumerate(window.boxes):
        sel = pick == i
        k = int(np.count_nonzero(sel))
        if k == 0:
            continue
        lo, hi = np.asarray(b.lo), np.asarray(b.hi)
        if modulation.is_constant:
            pts[sel] = lo + rng.random((k, b.dim)) * (hi - lo)
            continue
        # rejection against a probed envelope
        probe = lo + rng.random((256, b.dim)) * (hi - lo)
        env = 1.5 * float(modulation(probe).max()) + 1e-12
        got = np.empty((0, b.dim))
        for _ in range(10_000):
            cand = lo + rng.random((max(64, 2 * (k - len(got))), b.dim)) * (hi - lo)
            dens = modulation(cand)
            if np.any(dens > env):
                env = 1.5 * float(dens.max())
                continue
            keep = rng.random(len(cand)) * env < dens
            got = np.concatenate([got, cand[keep]])
            if len(got) >= k:
                break
        else:
            raise RuntimeError("location rejection sampling failed to converge")
        pts[sel] = got[:k]
    return pts


# NumPy's SeedSequence (O'Neill's seed_seq; NEP 19 keeps its output fixed): the
# first constant and multiplier of its pool and output hashes, and its mix's
_HASH_POOL, _HASH_OUT = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX = (0xCA01F9DD, 0x4973F715)


def _words32(n) -> tuple:
    """``n`` as SeedSequence reads an integer: little-endian 32-bit words."""
    if (n := operator.index(n)) < 0:
        raise ValueError("expected non-negative integer")
    return tuple(n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32))


def _hash(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays, its constant moving on at each call."""
    def step(v):
        nonlocal const
        v = (v ^ np.uint32(const)) * np.uint32(const := const * mult & 0xFFFFFFFF)
        return v ^ v >> np.uint32(16)
    return step


def _mix(x, y):
    r = x * np.uint32(_MIX[0]) - y * np.uint32(_MIX[1])
    return r ^ r >> np.uint32(16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """Per column of ``entropy`` (words x entropies, uint32): the four words
    of ``SeedSequence(entropy).generate_state(4, np.uint64)``."""
    pool_hash = _hash(*_HASH_POOL)
    pool = [pool_hash(w) for w in (*entropy[:4], *[np.zeros_like(entropy[0])] * (4 - len(entropy)))]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], pool_hash(pool[src]))
    for word in entropy[4:]:  # words past the pool mix into every pool word
        pool = [_mix(w, pool_hash(word)) for w in pool]
    out_hash = _hash(*_HASH_OUT)
    state = np.stack([out_hash(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _given_state():
    from numpy.random.bit_generator import ISeedSequence  # numpy.random loads on first use

    @dataclass
    class GivenState(ISeedSequence):
        """PCG64's seed words, hashed in advance (it asks once, for 4 uint64)."""
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words
    return GivenState


def _streams(seed, replicates, stream: int):
    """``default_rng(SeedSequence((seed, k, stream)))`` for each k of
    ``replicates``, built one at a time from seeds hashed all at once: the
    entropies of one word count as one array."""
    head, tail = _words32(seed), _words32(stream)
    entropy = [head + _words32(k) + tail for k in replicates]
    states = np.empty((len(entropy), 4), np.uint64)
    for width in {len(e) for e in entropy}:
        rows = [i for i, e in enumerate(entropy) if len(e) == width]
        states[rows] = _seed_states(np.array([entropy[i] for i in rows], np.uint32).T)
    given = _given_state()
    return (np.random.Generator(np.random.PCG64(given(words))) for words in states)


def sample_fields(chars: Characteristics, config: SamplerConfig, replicates) -> PathBatch:
    """Paths ``replicates`` (indices) of the config's Levy-Ito decomposition:
    Poisson jumps above eps + white noise + drift.  Each draws from its own
    streams, so member i is ``sample_field(chars, config, replicates[i])``."""
    spec = levy_ito_spec(chars, config)
    T, window, eps, dim = config.horizon, config.window, config.eps, chars.dim
    counts = np.zeros(len(replicates) + 1, dtype=np.intp)
    times, locs, sizes = [np.empty(0)], [np.empty((0, dim))], [np.empty(0)]
    # one box at constant intensity: raw uniforms, mapped into the box below (a
    # window without modulation mass has no box_p and raises in _sample_locations)
    box = window.boxes[0] if (spec.box_p is not None and len(window.boxes) == 1
                              and chars.nu.modulation.is_constant) else None
    to_tail = chars.nu.kernel.tail_map(eps) if spec.jump_rate else None
    paths = _streams(config.seed, replicates if chars.nu is not None else (), _STREAM_JUMPS)
    for i, rng in enumerate(paths):
        n = counts[i + 1] = int(rng.poisson(spec.jump_rate))
        times.append(rng.random(n))
        times[-1].sort()
        # after the n uniforms that a pick of the one box spends
        locs.append(rng.random((dim + 1) * n)[n:].reshape(n, dim) if box is not None else
                    _sample_locations(rng, chars.nu.modulation, window, spec.box_p, n))
        sizes.append(rng.random(n) if to_tail is not None else
                     chars.nu.kernel.sample_tail(rng, n, eps) if n else np.empty(0))
    times, locs, sizes = (np.concatenate(a) for a in (times, locs, sizes))
    times *= T  # T u sorted is uniform(0, T) sorted
    if box is not None:
        locs *= np.subtract(box.hi, box.lo)
        locs += box.lo
    if to_tail is not None:
        to_tail(sizes)

    def noise(sigma, roots, stream):
        return None if sigma is None else WhiteNoiseField(
            sigma, window, T, list(_streams(config.seed, replicates, stream)), roots)

    return PathBatch(spec, config, replicates, np.cumsum(counts), times, locs, sizes,
                     noise(chars.sigma, spec.sigma_roots, _STREAM_GAUSS),
                     noise(spec.substitute, spec.substitute_roots, _STREAM_SUBSTITUTE))


def sample_field(chars: Characteristics, config: SamplerConfig,
                 replicate: int = 0) -> FieldRealization:
    """Path ``replicate`` of the config's Levy-Ito decomposition: the batch of
    one of ``sample_fields``."""
    return sample_fields(chars, config, (replicate,)).member(0)


def path_batches(chars: Characteristics, config: SamplerConfig, n: int,
                 sampler=sample_fields):
    """Paths 0..n-1 in batches ``sampler(chars, config, replicates)`` of at most
    ``_BLOCK_JUMPS`` expected jumps (a path counts 64 at least; a bigger one alone)."""
    step = max(1, int(_BLOCK_JUMPS // max(levy_ito_spec(chars, config).jump_rate, 64.0)))
    for k in range(0, n, step):
        yield sampler(chars, config, range(k, min(n, k + step)))


# --------------------------------------------------------------------------
# Fast replicated marginals
# --------------------------------------------------------------------------

def _segment_sums(y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts))
    mask = counts > 0
    if not mask.any():
        return out
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[mask]
    out[mask] = np.add.reduceat(y, starts)
    return out


def sample_marginals(chars: Characteristics, config: SamplerConfig,
                     region: Region | None = None) -> np.ndarray:
    """Replicated M(horizon, region) values, one per replicate.

    Law-identical to evaluating ``sample_field`` paths but without jump
    records; uses its own dedicated stream (replicates here do not correspond
    pathwise to ``sample_field(.., replicate=k)``).
    """
    region = config.window if region is None else region
    if not config.window.covers_region(region):
        raise OutOfWindowError("marginal region is not covered by the window")
    spec = levy_ito_spec(chars, config)
    T, eps, N = config.horizon, config.eps, config.replicates
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, _STREAM_MARGINALS)))
    out = np.zeros(N)
    mod_mass = 0.0
    if chars.nu is not None:
        mod_mass = chars.nu.spatial_mass(region)[0]
        counts = rng.poisson(T * mod_mass * spec.tail, size=N)
        edges = np.concatenate([[0], np.cumsum(counts)])
        lo, total = 0, int(edges[-1])
        while lo < total:
            # the whole replicates that fit, or a slice of one that does not fit
            hi = int(edges[np.searchsorted(edges, lo + _CHUNK_JUMPS, side="right") - 1])
            if hi <= lo:
                hi = lo + _CHUNK_JUMPS
            r0 = np.searchsorted(edges, lo, side="right") - 1
            r1 = np.searchsorted(edges, hi)
            seg = np.minimum(edges[r0 + 1:r1 + 1], hi) - np.maximum(edges[r0:r1], lo)
            out[r0:r1] += _segment_sums(chars.nu.kernel.sample_tail(rng, hi - lo, eps), seg)
            lo = hi
    out += T * chars.gamma_measure(region) - T * mod_mass * spec.compensator_rate
    # draw order: the white noise of Sigma, then the small-jump substitute
    for var in (T * chars.sigma_measure(region),
                T * mod_mass * spec.small_moment if spec.substitute is not None else 0.0):
        if var > 0.0:
            out += math.sqrt(var) * rng.standard_normal(N)
    return out


# --------------------------------------------------------------------------
# Exact stable oracles (Chambers-Mallows-Stuck)
# --------------------------------------------------------------------------

def _cms(rng: np.random.Generator, alpha: float, beta: float, n: int) -> np.ndarray:
    if alpha == 1.0 and beta != 0.0:
        raise ValueError("alpha = 1 supported only with beta = 0")
    V = (rng.random(n) - 0.5) * np.pi
    W = np.maximum(rng.exponential(1.0, n), 1e-300)
    if alpha == 1.0:
        return np.tan(V)
    bt = beta * math.tan(math.pi * alpha / 2.0)
    B = math.atan(bt) / alpha
    S = (1.0 + bt * bt) ** (1.0 / (2.0 * alpha))
    return (S * np.sin(alpha * (V + B)) / np.cos(V) ** (1.0 / alpha)
            * (np.cos(V - alpha * (V + B)) / W) ** ((1.0 - alpha) / alpha))


def sample_stable_marginal_oracle(alpha: float, beta: float, scale: float,
                                  n: int, seed: int) -> np.ndarray:
    """n draws of the stable law with CF exp(-scale^a |u|^a (1 - i beta tan(pi a/2) sgn u)).

    Independent of the path sampler: a direct Chambers-Mallows-Stuck
    transform.  alpha = 2 degenerates to N(0, 2 scale^2).
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if not -1.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [-1, 1]")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0)))
    return scale * _cms(rng, alpha, beta, n)
