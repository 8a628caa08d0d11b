"""Statistical and numerical verification harness.

Four families of checks: characteristic-function agreement between simulated
integrals and their analytic law, permutation independence tests built on
distance covariance, the numerical form of the membership-modular bound, and
two-sample tests of temporal increment stationarity.  Every report carries
the seed and sample size that produced it, so a failing check replays
bit-exactly from its report line.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import modular_integrals
from .characteristics import Characteristics, Density, DivergentControlMeasureError
from .funcs import IndicatorFunction, effective_domain
from .integrate import _integrate_paths, empirical_cf
from .kernels import DiscreteJumps, JumpSizeDistribution
from .regions import Region
from .sampler import SamplerConfig, _segment_sums, path_batches, sample_fields, sample_marginals

_DECISIONS = ("pass", "fail", "indeterminate")


@dataclass(frozen=True)
class VerificationReport:
    name: str
    statistic: float
    threshold: float
    decision: str
    sample_size: int
    seed: int | None
    provenance: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.decision not in _DECISIONS:
            raise ValueError(f"decision must be one of {_DECISIONS}")

    @property
    def passed(self) -> bool:
        return self.decision == "pass"

    def to_dict(self) -> dict:
        return dict(asdict(self), notes=list(self.notes))


def summary_table(reports) -> str:
    """Fixed-width human-readable summary, one line per report."""
    lines = [f"{'test':<28} {'decision':<14} {'statistic':>12} {'threshold':>12}"]
    for r in reports:
        lines.append(f"{r.name:<28} {r.decision:<14} "
                     f"{r.statistic:>12.5g} {r.threshold:>12.5g}")
    return "\n".join(lines)


def _child_seed(*parts) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


# --------------------------------------------------------------------------
# Characteristic-function agreement
# --------------------------------------------------------------------------

def cf_match_test(chars: Characteristics, f, t: float, u_grid, n: int,
                  seed: int, *, window: Region | None = None,
                  eps: float = 1e-3, small_jump_mode: str = "drop-with-bound",
                  artifacts: dict | None = None) -> VerificationReport:
    """Empirical CF of ``int f dM(t, .)`` against ``exp(t Psi(u))``.

    Acceptance combines the Monte Carlo radius ``2/sqrt(n)`` with the exact
    bias of the sampled law per frequency, ``|exp(t Psi_eps) - exp(t Psi)|``
    when small jumps are dropped, so they are accounted for analytically
    rather than blamed on the sampler.  Their ``gaussian-substitute`` adds a
    white noise of variance ``t s2_eps int f^2 m`` (s2_eps: the second moment
    of the jumps below eps) inside the first exp.  Simple functions route
    through the fast marginal sampler; anything else samples paths in
    batches, keeps their jump sums and white noises, and pairs the white
    noises of many paths as one stack.
    """
    if n < 1000:
        raise ValueError("cf test needs at least 1000 replicates")
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    terms = ((1.0, f.region),) if isinstance(f, IndicatorFunction) else getattr(f, "terms", None)
    if window is None:
        sup = effective_domain(f)
        if sup is None or sup.is_empty:
            raise ValueError("cannot infer a window; pass one explicitly")
        window = Region.from_box(sup.bounding_box())

    if terms is not None:
        samples = np.zeros(n)
        for k, (coef, region) in enumerate(terms):
            cfg = SamplerConfig(seed=_child_seed(seed, k), window=window, horizon=t,
                                eps=eps, small_jump_mode=small_jump_mode, replicates=n)
            samples += coef * sample_marginals(chars, cfg, region)
    else:
        cfg = SamplerConfig(seed=seed, window=window, horizon=t, eps=eps,
                            small_jump_mode=small_jump_mode)
        samples = _integrate_paths(chars, cfg, path_batches(chars, cfg, n), f, t)[0]

    emp, radius = empirical_cf(samples, u)
    notes = []
    substitute = small_jump_mode == "gaussian-substitute"
    try:
        var = 0.0   # of the white noise that stands in for the jumps below eps
        if substitute and chars.nu is not None and eps > 0.0:
            mod = chars.nu.modulation
            f2m = (sum(c * c * mod.integral(r)[0] for c, r in terms) if terms is not None else
                   mod.integral(effective_domain(f, window), lambda x: np.asarray(f(x)) ** 2)[0])
            var = t * chars.nu.kernel.second_moment_below(eps) * f2m
        target = np.empty(u.shape, dtype=complex)
        bias = np.empty(u.shape)
        for j, uj in enumerate(u):
            target[j] = np.exp(chars.levy_symbol(f, uj, t, eps=0.0).value)
            biased = np.exp(chars.levy_symbol(f, uj, t, eps=eps).value - uj * uj * var / 2.0)
            bias[j] = abs(biased - target[j])
            notes.append(f"u={uj:g}: |emp-target|={abs(emp[j] - target[j]):.3e} "
                         f"bias={bias[j]:.3e}")
    except ArithmeticError as exc:
        return VerificationReport("cf-match", math.nan, radius, "indeterminate", n,
                                  seed, "analytic CF quadrature did not converge",
                                  (str(exc),))
    deviations = np.abs(emp - target) - bias
    worst = float(deviations.max())
    if artifacts is not None:
        artifacts.update(u=u, emp=emp, target=target, bias=bias, radius=radius,
                         per_u_pass=(deviations <= radius))
    decision = "pass" if worst <= radius else "fail"
    prov = "target exp(t*Psi(u)) from the characteristic triple; " + (
        "small-jump mode gaussian-substitute, per-u bias "
        "|exp(t*Psi_eps-u^2*t*s2_eps*int f^2 m/2)-exp(t*Psi)| credited" if substitute
        else "per-u truncation bias |exp(t*Psi_eps)-exp(t*Psi)| credited")
    return VerificationReport("cf-match", float(worst), float(radius), decision, n,
                              seed, prov, tuple(notes))


# --------------------------------------------------------------------------
# Distance-covariance independence test
# --------------------------------------------------------------------------

# Rows times points per chunk of ``_dcov_v_statistics``: a few MB whatever n.
_DCOV_CHUNK = 1 << 15


def _mean_abs_differences(v: np.ndarray) -> np.ndarray:
    """``mean_j |v_i - v_j|`` for every i, from one sort and a cumulative sum."""
    order = np.argsort(v, kind="stable")
    vs = v[order]
    n = vs.size
    out = np.empty(n)
    out[order] = (vs * (2.0 * np.arange(n) - (n - 2)) + (vs.sum() - 2.0 * np.cumsum(vs))) / n
    return out


def _dominance_sums(rank: np.ndarray, z: np.ndarray, width: int) -> np.ndarray:
    """Per column of the (n, p) ``rank`` and ``z``: the count ``c_i`` of the j < i
    with ``rank_j < rank_i`` and the sum ``s_i`` of their ``z_j``, as (2, n, p).

    With steps cut into blocks and ranks into buckets of ``width``, such a j
    is in an earlier block and a lower bucket (a 2-D prefix sum of the
    (block, bucket, column) histogram, by whole rows over blocks and then
    over buckets: a ``cumsum``'s additions along each axis), in the same
    block (step order), or in an earlier block and the same bucket (rank
    order).  Both orders lie (order, offset, block, column) with int32 keys
    and counts, so one loop over the offsets d within a block serves both;
    sums add in the order d = 1, 2, ...  About (n/width)^2 + 2 n width work
    per column.
    """
    n, p = rank.shape
    nb = -(-n // width)
    col = np.arange(p)
    block = np.arange(n) // width
    bucket, offset = np.divmod(rank, width)
    # 1-based cells: the prefix sum at cell - (nb + 2) p skips the own block and bucket
    cell = (((block + 1)[:, None] * (nb + 1) + bucket + 1) * p + col).ravel()
    size = (nb + 1) ** 2 * p
    hist = np.stack([np.bincount(cell, minlength=size),
                     np.bincount(cell, z.ravel(), size)]).reshape(2, nb + 1, nb + 1, p)
    for rows in (hist.transpose(1, 0, 2, 3), hist.transpose(2, 0, 1, 3)):
        for k in range(1, nb + 1):
            rows[k] += rows[k - 1]
    # step order, then rank order (``at``: each point's place); padding precedes no point
    at = ((offset * nb + bucket) * p + col).ravel()
    key = np.zeros((2, width, nb, p), dtype=np.int32)
    w = np.zeros(key.shape)
    for a, by_step, by_rank in ((key, rank, np.repeat(block, p)), (w, z, z.ravel())):
        a[0] = np.pad(by_step, ((0, nb * width - n), (0, 0))).reshape(nb, width, p).swapaxes(0, 1)
        a[1].ravel()[at] = by_rank
    count = np.zeros(key.shape, dtype=np.int32)
    total = np.zeros(key.shape)
    for d in range(1, width):
        hit = key[:, d:] > key[:, :-d]
        count[:, d:] += hit
        total[:, d:] += hit * w[:, :-d]
    out = np.take(hist.reshape(2, -1), cell - (nb + 2) * p, axis=1).reshape(2, n, p)
    for acc, part in ((count, out[0]), (total, out[1])):
        part += acc[0].swapaxes(0, 1).reshape(-1, p)[:n]
        part += acc[1].ravel()[at].reshape(n, p)
    return out


def _dcov_v_statistics(x: np.ndarray, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """dcov^2 V-statistic of the pairs ``(x_i, y[rows[p, i]])`` for each row p.

    With a, b the distance matrices of x and of y reordered by the row r,
    the statistic is ``S1 + S2 - 2 S3`` (Huo & Szekely, Technometrics 58(4),
    2016): ``S2 = mean(a) mean(b)`` and ``S3 = mean_i abar_i bbar_{r(i)}``
    come from the row means.  With xs ascending and z the y values in its
    order, ``n^2 S1 / 2 = sum_{j<i} (xs_i - xs_j)|z_i - z_j|
    = sum_i xs_i (2 L_i - n bbar_{y(i)})``, and ``L_i = sum_{j<i} |z_i - z_j|``
    needs only the two sums of ``_dominance_sums``.  Rows go in chunks, so
    no array grows like n^2.
    """
    n = x.size
    abar = _mean_abs_differences(x)
    bbar = _mean_abs_differences(y)
    s2 = abar.mean() * bbar.mean()
    order = np.argsort(x, kind="stable")
    xs = (x - x.mean())[order, None]
    yc = y - y.mean()
    rank = np.empty(n, dtype=np.int32)
    rank[np.argsort(y, kind="stable")] = np.arange(n)
    width = int(2.0 * n ** (1.0 / 3.0))          # fastest near this for n = 600..4000
    out = np.empty(rows.shape[0])
    chunk = max(1, _DCOV_CHUNK // n)
    for lo in range(0, rows.shape[0], chunk):
        block = rows[lo:lo + chunk]
        steps = block[:, order].T                   # (n, p): y index at each step
        z = yc[steps]
        c, s = _dominance_sums(rank[steps], z, width)
        # a tie in z may count as lower or not: its term is 0 either way
        lsum = z * (2.0 * c - np.arange(n)[:, None]) + (np.cumsum(z, axis=0) - z) - 2.0 * s
        s1 = (xs * (2.0 * lsum - n * bbar[steps])).sum(axis=0)
        s3 = (abar * bbar[block]).mean(axis=1)
        out[lo:lo + chunk] = 2.0 * s1 / (n * n) + s2 - 2.0 * s3
    return out


def independence_test(x, y, *, permutations: int = 200, level: float = 0.01,
                      seed: int = 0, name: str = "independence",
                      provenance: str = "distance-covariance permutation test"
                      ) -> VerificationReport:
    """Permutation test of independence between two paired samples.

    Distance covariance is sensitive to nonlinear and tail dependence, which
    correlation-based tests miss for heavy-tailed laws.  The observed and
    all permuted statistics come from blocked dominance sums over all n
    pairs: about P n^(4/3) work, memory linear in n (P = permutations + 1).
    A NaN or an infinity in either sample gives ``indeterminate``, as
    does a test that cannot reject, ``(1 + permutations) * level < 1`` (the
    smallest p-value is 1/(1 + permutations)); it keeps its p-value and a
    note.  Passing means independence was *not* rejected.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("paired samples must have equal length")
    if x.size < 100:
        raise ValueError("need at least 100 pairs")
    if permutations < 0:
        raise ValueError("permutations must be >= 0")
    n = x.size
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return VerificationReport(name, math.nan, level, "indeterminate",
                                  n, seed, provenance,
                                  ("non-finite value in a sample; dcov undefined",))
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return VerificationReport(name, math.nan, level, "indeterminate",
                                  n, seed, provenance, ("constant marginal; dcov undefined",))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x1ce)))
    rows = np.tile(np.arange(n), (permutations + 1, 1))
    shuffled = rows[1:]  # each row as rng.permutation(n) draws it, in one call
    rng.permuted(shuffled, axis=1, out=shuffled)
    stats = _dcov_v_statistics(x, y, rows)
    obs = float(stats[0])
    exceed = int(np.count_nonzero(stats[1:] >= obs))
    pvalue = (1.0 + exceed) / (1.0 + permutations)
    decision = "pass" if pvalue > level else "fail"
    notes = []
    if (1.0 + permutations) * level < 1.0:
        decision = "indeterminate"
        notes.append(f"cannot reject: min p-value 1/{1 + permutations} > level {level:g}")
    return VerificationReport(name, float(pvalue), float(level), decision, n,
                              seed, provenance,
                              (f"dcov2={obs:.4e} permutations={permutations}", *notes))


def _evaluations(path_sampler, chars, config: SamplerConfig, n: int, queries) -> np.ndarray:
    """``M(t, region)`` of paths 0..n-1 (columns) per query ``(t, region)`` (rows)."""
    return np.concatenate([[b.evaluate(t, r) for t, r in queries]
                           for b in path_batches(chars, config, n, path_sampler)], axis=1)


def paired_evaluations(chars: Characteristics, config: SamplerConfig,
                       region_a: Region, region_b: Region, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n paired values (M(T, A), M(T, B)) from common paths."""
    t = config.horizon
    return tuple(_evaluations(sample_fields, chars, config, n, ((t, region_a), (t, region_b))))


# --------------------------------------------------------------------------
# Shared-basis dependence fixture
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OnbCounterexampleSpec:
    """Truncated basis expansion of a set-indexed process from scalar parts.

    Each scalar part is a compound Poisson process; the indicator of a set is
    expanded in the trigonometric orthonormal basis on (0,1) whose first
    element is the constant 1, so any two sets with positive measure load on
    the same first part.  With ``shared=True`` both sets use one family of
    parts (the dependent construction); ``shared=False`` is the control arm
    with independent families.
    """

    jumps: JumpSizeDistribution = field(
        default_factory=lambda: DiscreteJumps((1.0, -1.0), (0.5, 0.5)))
    rate: float = 1.0
    truncation: int = 8
    set_a: tuple[float, float] = (0.0, 0.5)
    set_b: tuple[float, float] = (0.5, 1.0)
    shared: bool = True
    t: float = 1.0

    def __post_init__(self):
        if self.truncation < 2:
            raise ValueError("need at least two basis elements")
        if self.rate <= 0.0 or self.t <= 0.0:
            raise ValueError("rate and horizon must be positive")
        for lo, hi in (self.set_a, self.set_b):
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError("sets must be nondegenerate intervals in (0,1)")
        a, b = sorted((self.set_a, self.set_b))
        if b[0] < a[1]:
            raise ValueError("sets must be disjoint (equal sets are forbidden)")


def _trig_coefficients(lo: float, hi: float, k_max: int) -> np.ndarray:
    """``<1_(lo,hi], e_k>`` for the trig basis 1, sqrt2 cos, sqrt2 sin, ..."""
    out = np.empty(k_max)
    out[0] = hi - lo
    for k in range(2, k_max + 1):
        m = k // 2
        w = 2.0 * math.pi * m
        if k % 2 == 0:
            out[k - 1] = math.sqrt(2.0) * (math.sin(w * hi) - math.sin(w * lo)) / w
        else:
            out[k - 1] = math.sqrt(2.0) * (math.cos(w * lo) - math.cos(w * hi)) / w
    return out


def _scalar_parts(rng: np.random.Generator, spec: OnbCounterexampleSpec,
                  n: int) -> np.ndarray:
    """(truncation, n) matrix of independent compound Poisson values at t."""
    k = spec.truncation
    counts = rng.poisson(spec.rate * spec.t, size=(k, n))
    total = int(counts.sum())
    flat = spec.jumps.sample_tail(rng, total, 0.0) if total else np.empty(0)
    return _segment_sums(flat, counts.ravel()).reshape(k, n)


def onb_counterexample(spec: OnbCounterexampleSpec, n: int, seed: int,
                       *, permutations: int = 200,
                       level: float = 0.01) -> VerificationReport:
    """Independence test on the truncated shared-basis construction.

    The shared arm is expected to FAIL the independence test: both set
    evaluations load with positive weight on the first scalar part, so
    disjointness of the sets does not decouple them.
    """
    ca = _trig_coefficients(*spec.set_a, spec.truncation)
    cb = _trig_coefficients(*spec.set_b, spec.truncation)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x0b)))
    parts = _scalar_parts(rng, spec, n)
    la = ca @ parts
    if spec.shared:
        lb = cb @ parts
    else:
        lb = cb @ _scalar_parts(rng, spec, n)
    arm = "shared" if spec.shared else "independent"
    prov = (f"trig-basis truncation K={spec.truncation}, {arm} scalar parts; "
            "dependence enters through the constant basis element")
    return independence_test(la, lb, permutations=permutations, level=level,
                             seed=_child_seed(seed, 0x0b2), name="onb-counterexample",
                             provenance=prov)


# --------------------------------------------------------------------------
# Membership-modular bound
# --------------------------------------------------------------------------

def embedding_inequality_check(chars: Characteristics, f,
                               domain: Region | None = None) -> VerificationReport:
    """Numerical check of the membership-modular bound on a finite domain.

    Both sides of ``int Phi(|f|, x) lambda(dx) <= ||f||_L1(lambda)
    + 11 ||f||_L2(lambda)^2 + 9 int (1 ^ |f y|^2) nu + int_{|y|>1} |f y|
    1{|f y| <= 1} nu`` are evaluated by quadrature where f can be nonzero in
    the domain (f's support by default), which must be bounded; where f
    vanishes on the domain both sides are 0.  The last right-hand term bounds
    the large-jump part of the modular's drift ``U`` (its small jumps: the L2 term).
    """
    domain = effective_domain(f, domain)
    if domain is None:
        raise ValueError("f has no bounded support: give a bounded domain")
    prov = ("modular bound with proof constants 1, 11, 9 plus the "
            "large-jump linear tail term")
    nu = chars.nu

    def rhs_rows(x):
        """|f| and f^2 against lambda's density, then the two jump terms against m."""
        u = np.abs(np.asarray(f(x)))
        ell = chars.control.density.at(x)
        rows = np.zeros((4, len(u)))
        np.multiply(u, ell, out=rows[0])
        np.multiply(u ** 2, ell, out=rows[1])
        if nu is not None:
            m = nu.modulation.at(x)
            cut = np.where(u > 0.0, 1.0 / np.maximum(u, 1e-300), 1.0)
            np.multiply(nu.kernel.compact_moment(u), m, out=rows[2])
            np.multiply(u * nu.kernel.abs_annulus_first_moment(cut), m, out=rows[3])
        return rows

    try:
        lam = chars.control_measure(domain)
        # the modular alone: its drift sup (NonConvergenceError) sees only its own nodes
        lhs, err = modular_integrals(chars, f, (domain,))[0]
        (l1, e1), (l2, e2), (t3, e3), (t4, e4) = (   # the rows hold their densities
            Density(1.0).integral(domain, rhs_rows) if domain.boxes else [(0.0, 0.0)] * 4)
        l1 += chars.control.atom_sum(lambda x: np.abs(np.asarray(f(x))), domain)
        l2 += chars.control.atom_sum(lambda x: np.abs(np.asarray(f(x))) ** 2, domain)
        if not (np.isfinite(l1) and np.isfinite(l2)):
            raise DivergentControlMeasureError("control measure is not finite on the region")
        err = err + (e1 + e2) + e3 + e4
        rhs = l1 + 11.0 * l2 + 9.0 * t3 + t4
    except ArithmeticError as exc:
        return VerificationReport("embedding-inequality", math.nan, math.nan, "indeterminate",
                                  0, None, prov, (str(exc),))
    tol = 1e-8 * (1.0 + abs(rhs)) + 10.0 * err
    decision = "pass" if lhs <= rhs + tol else "fail"
    notes = (f"lhs={lhs:.6g} rhs={rhs:.6g} lambda(domain & supp f)={lam.value:.6g}",)
    return VerificationReport("embedding-inequality", float(lhs - rhs), float(tol), decision,
                              0, None, prov, notes)


# --------------------------------------------------------------------------
# Temporal increment stationarity
# --------------------------------------------------------------------------

MAX_EXACT_KS_N = 10_000   # ks_2samp's exact limit in its default method="auto"


def _smirnov_exact(a: np.ndarray, b: np.ndarray) -> float:
    """P(D >= observed D) for two sorted samples of one size n: Hodges' alternating
    sum (Ark. Mat. 3, 1958) over the largest gap h between the ECDF counts, in
    scipy's Horner form and operation order."""
    n, pooled = len(a), np.concatenate([a, b])
    h = int(np.abs(np.searchsorted(a, pooled, side="right")
                   - np.searchsorted(b, pooled, side="right")).max())
    if h == 0:
        return 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return 2 * p


def _ks_pvalue(a, b) -> float:
    """Two-sided two-sample KS p-value, bit for bit ``scipy.stats.ks_2samp(a, b).pvalue``.

    Two samples of one size n <= ``MAX_EXACT_KS_N`` get the exact p-value here,
    and a NaN in either sample gives NaN.  Other sizes, and an exact sum that
    rounds outside [0, 1] (a few n = 5 cases), take scipy's own path: the only
    place the package imports ``scipy.stats``.
    """
    a, b = np.sort(a), np.sort(b)
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    exact = len(b) == len(a) and 0 < len(a) <= MAX_EXACT_KS_N
    p = _smirnov_exact(a, b) if exact else math.nan
    if 0.0 <= p <= 1.0:
        return p
    from scipy.stats import ks_2samp  # slow to import; off the exact path only
    return float(ks_2samp(a, b).pvalue)


def stationary_increment_test(chars: Characteristics, region: Region, pairs,
                              n: int, seed: int, *, level: float = 0.01,
                              eps: float = 1e-3,
                              small_jump_mode: str = "drop-with-bound",
                              path_sampler=sample_fields) -> VerificationReport:
    """KS + independence checks of temporal increments over a fixed region.

    For each (s, t) pair: a two-sample KS test between M(t,A) - M(s,A) from
    one batch of paths and M(t-s, A) from an independent batch, plus a
    distance-covariance test between M(s,A) and the increment.  Thresholds
    are Bonferroni-corrected across all sub-tests, and one undecided
    sub-test (e.g. a constant sample) makes the report indeterminate.  The
    batch sampler ``path_sampler`` (``sample_fields``) is injectable so
    planted time-inhomogeneous samplers can exercise the fail arm.
    """
    pairs = [(float(s), float(t)) for s, t in pairs]
    if not pairs:
        raise ValueError("need at least one (s, t) pair")
    for s, t in pairs:
        if not 0.0 < s < t:
            raise ValueError("pairs must satisfy 0 < s < t")
    n_tests = 2 * len(pairs)
    cutoff = level / n_tests
    worst = 1.0
    undecided = False
    notes = []
    for i, (s, t) in enumerate(pairs):
        # two seeds of one config: both batches share its decomposition
        cfg1, cfg2 = (SamplerConfig(seed=_child_seed(seed, i, j), window=region, horizon=t,
                                    eps=eps, small_jump_mode=small_jump_mode) for j in (0, 1))
        at_s, at_t = _evaluations(path_sampler, chars, cfg1, n, ((s, region), (t, region)))
        fresh = _evaluations(path_sampler, chars, cfg2, n, ((t - s, region),))[0]
        incr = at_t - at_s
        ks_p = _ks_pvalue(incr, fresh)
        # enough permutations that the smallest p-value is below the cutoff
        dep = independence_test(at_s, incr, permutations=max(200, math.ceil(1.0 / cutoff)),
                                level=cutoff, seed=_child_seed(seed, i, 2))
        undecided = undecided or math.isnan(ks_p) or dep.decision == "indeterminate"
        worst = min(worst, ks_p, dep.statistic)
        notes.append(f"(s,t)=({s:g},{t:g}): ks_p={ks_p:.4g} indep_p={dep.statistic:.4g}")
    if undecided:
        # min() skips a NaN p-value, so an undecided sub-test decides the report
        decision, worst = "indeterminate", math.nan
    else:
        decision = "pass" if worst > cutoff else "fail"
    prov = ("two-sample KS of increments vs fresh horizon plus dcov of "
            "increment against the past; Bonferroni over "
            f"{n_tests} sub-tests")
    return VerificationReport("stationary-increments", float(worst),
                              float(cutoff), decision, n, seed, prov,
                              tuple(notes))
