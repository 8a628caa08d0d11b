"""Pathwise stochastic integrals against a sampled field and their laws.

``integrate_simple`` is the defining linear combination over disjoint regions;
``integrate`` extends it to smooth integrands pathwise: drift and compensator
by quadrature, jumps by direct summation, and the white-noise pairing by a
midpoint sum over a dyadic cell mesh of fixed level per dimension
(``PAIRING_LEVELS``).  The mesh is exactly a simple-function approximation,
and cell values stay additive under refinement, so the limit is the
defining one.  The pairing's reported error is the random difference
between the sums at the last two levels, not a bound.

``_integrate_paths`` integrates the paths of batches of one sampler config
(``sampler.sample_fields``), computing drift and compensator once, the jump
sums of a batch from its kept rows and one evaluation of f, and pairing the
white noises of consecutive paths, across batches, as one stack.  A pairing
refines its stack through every level but sums only the last two: one
``grid_values`` call reads level L - 1 after refining through the coarser
ones, a second reads level L.
Deterministic terms integrate f against their measures over
``effective_domain(f)``, or over R^d by ``ladder_integral``.

``cylindrical_characteristics`` gives the triple of the scalar noise ``f . M``
by the same quadratures.  Its image measure of the jumps, ``Pushforward``, is
computed by quadrature too, for every integrand and at each ``s`` asked for:
there is no table of tail masses.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .analysis import lm_membership
from .characteristics import Characteristics
from .funcs import SimpleFunction, effective_domain
from .gaussian import WhiteNoiseField
from .quadrature import ladder_integral
from .regions import Box, Region
from .sampler import levy_ito_spec

# dyadic mesh level of white-noise pairings per dimension (4 above 2-D)
PAIRING_LEVELS = {1: 8, 2: 6}
# finest-level cells of the white noises paired as one stack: 128 paths in
# 1-D, 8 in 2-D: 256 KB of values per time cell at the finest level
_STACK_CELLS = 1 << 15


class NotIntegrableError(ValueError):
    """The integrand is not in the membership class of the measure."""


@dataclass(frozen=True)
class IntegralValue:
    value: float
    error: float

    def __float__(self) -> float:
        return self.value


def integrate_simple(real, f: SimpleFunction, t: float,
                     region: Region | None = None) -> float:
    """``sum_k coef_k M(t, region & A_k)`` evaluated pathwise-exactly."""
    region = real.config.window if region is None else region
    real.config.check_times(t)  # also when no piece meets the region
    total = 0.0
    for coef, part in f.terms:
        piece = region.intersect(part)
        if not piece.is_empty:
            total += coef * real.evaluate(t, piece)
    return total


def _pairing(stack: WhiteNoiseField, f, t: float, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint pairing sums of a stack of white-noise fields at one dyadic level.

    Every coarser level refines the grid first: that order fixes the draws.
    The next coarser level is read before the last splits its cells, as split
    shares need not add back bit for bit.  The error is the difference to
    that level's sum, a random number and not a bound.
    """
    if t <= 0.0:
        return np.zeros(len(stack)), np.zeros(len(stack))
    top = PAIRING_LEVELS.get(box.dim, 4)
    meshes = [[np.linspace(lo, hi, 2 ** level + 1) for lo, hi in zip(box.lo, box.hi)]
              for level in range(top + 1)]
    sums = []
    for edges, through in ((meshes[top - 1], meshes[:top - 1]), (meshes[top], ())):
        cells = stack.grid_values(t, box, edges, through=through)
        centers = [0.5 * (e[:-1] + e[1:]) for e in edges]
        pts = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1).reshape(-1, box.dim)
        sums.append((f(pts) * cells.reshape(len(stack), -1)).sum(axis=1))
    return sums[-1], np.abs(sums[-1] - sums[-2])


def _integrate_paths(chars: Characteristics, config, batches, f, t: float,
                     region: Region | None = None, *, check_membership: bool = False):
    """Values and errors of ``int f dM(t, .)`` for the members of path batches
    of one sampler config, in order.  ``batches`` may be a generator: of a
    batch only the white noises are kept, until their stack is paired.  Per
    path the terms add as a lone call adds them, so its bits hold in any batch."""
    domain = effective_domain(f, config.window if region is None else region)
    if check_membership:
        # f of unbounded support must be a member on all of R^d
        verdict = lm_membership(chars, f, None if effective_domain(f) is None else domain)
        if verdict.verdict == "non-member":
            raise NotIntegrableError(f"integrand is not integrable: {verdict.note}")
    if domain.is_empty:
        config.check_times(t)
        n = sum(len(batch.replicates) for batch in batches)
        return np.zeros(n), np.zeros(n)

    value = err = comp = 0.0
    # drift
    if chars.gamma is not None:
        v, e = chars.gamma.integral(domain, f)
        value += t * v
        err += t * e
    # compensator of the retained jumps up to size 1
    rate = levy_ito_spec(chars, config).compensator_rate
    if rate != 0.0:
        v, e = chars.nu.modulation.integral(domain, f)
        comp = t * rate * v
        err += t * abs(rate) * e
    # jump sums batch by batch; white noises in stacks of ``step`` paths
    step = max(1, _STACK_CELLS >> (PAIRING_LEVELS.get(chars.dim, 4) * chars.dim))
    values, pairings, pending = [], [], []
    for batch in itertools.chain(batches, (None,)):
        if batch is not None:
            batch._check_query(t, domain)
            # value is never -0.0, so a 0.0 jump sum or compensator leaves it exact
            values.append(value + batch._jump_integrals(f, t, domain) - comp)
            pending.append([s for s in (batch.gaussian, batch.substitute) if s is not None])
        count = sum(len(p[0]) for p in pending if p)
        cut = count if batch is None else count - count % step
        if cut:
            stacks = [WhiteNoiseField.join(kind) for kind in zip(*pending)]
            pending = [[s.rows(cut, count) for s in stacks]] if cut < count else []
            for lo in range(0, cut, step):  # one piece needs no copy
                part = stacks if count <= step else [s.rows(lo, lo + step) for s in stacks]
                pairings.append([_pairing(s, f, t, b) for s in part for b in domain.boxes])
    values = np.concatenate(values)
    errors = np.full(values.size, err)
    for terms in zip(*pairings):  # term by term (field, then box), as a lone path adds them
        values += np.concatenate([v for v, _ in terms])
        errors += np.concatenate([e for _, e in terms])
    return values, errors


def integrate(real, f, t: float, region: Region | None = None, *,
              check_membership: bool = False) -> IntegralValue:
    """Pathwise ``int f dM(t, .)`` over the window (or a sub-region)."""
    values, errors = _integrate_paths(real.chars, real.config, (real,), f, t, region,
                                      check_membership=check_membership)
    return IntegralValue(float(values[0]), float(errors[0]))


# --------------------------------------------------------------------------
# Cylindrical characteristics
# --------------------------------------------------------------------------

def _over_support(chars: Characteristics, f, integral) -> tuple[float, float]:
    """``integral(region) -> (value, error)`` over f's effective domain, or over
    R^d by ``ladder_integral`` when f's support is unbounded."""
    support = effective_domain(f)
    return (integral(support) if support is not None
            else ladder_integral(integral, chars.dim, chars.atom_reach))


@dataclass(frozen=True)
class Pushforward:
    """Image of the jump measure ``m(x) dx k(dy)`` under ``(x, y) -> f(x) y``;
    each mass is one quadrature of m against a kernel integral at ``f(x)``."""

    chars: Characteristics
    f: object

    def _integral(self, g) -> float:
        """``int m(x) g(k, f(x)) dx`` for the kernel k, or 0 without a jump part."""
        nu = self.chars.nu
        if nu is None:
            return 0.0
        return _over_support(self.chars, self.f, lambda r: nu.modulation.integral(
            r, lambda x: g(nu.kernel, self.f(x))))[0]

    def tail_mass(self, s: float) -> float:
        """``mu(|v| > s) = int m(x) k(|y| > s/|f(x)|) dx``."""

        def tail(kern, fx):
            out = np.zeros(len(fx))
            nz = fx != 0.0
            with np.errstate(over="ignore"):  # s/|f| -> inf means tail 0
                out[nz] = kern.tail_mass(s / np.abs(fx[nz]))
            return out

        return self._integral(tail)

    def compact_mass(self) -> float:
        """``int (1 ^ v^2) d mu = int m(x) compact_moment(f(x)) dx``."""
        return self._integral(lambda kern, fx: kern.compact_moment(fx))


@dataclass(frozen=True)
class CylindricalCharacteristics:
    a: float
    qf: float
    pushforward: Pushforward
    a_error: float = 0.0
    qf_error: float = 0.0


def cylindrical_characteristics(chars: Characteristics, f) -> CylindricalCharacteristics:
    """The triple (a(f), <Qf,f>, image of nu under (x,y) -> f(x)y)."""
    total = functools.partial(_over_support, chars, f)
    # a(f) = int f d gamma + int m(x) G(f(x)) dx, G the kernel's truncation drift
    a_val = a_err = 0.0
    if chars.gamma is not None:
        a_val, a_err = total(lambda r: chars.gamma.integral(r, f))
    if chars.nu is not None:
        kern, mod = chars.nu.kernel, chars.nu.modulation
        v, e = total(lambda r: mod.integral(r, lambda x: kern.truncation_drift(f(x))))
        a_val += v
        a_err += e
    # qf
    qf_val = qf_err = 0.0
    if chars.sigma is not None:
        qf_val, qf_err = total(lambda r: chars.sigma.integral(r, lambda x: f(x) ** 2))
    if qf_val < -1e-9:
        raise ArithmeticError("quadratic form came out negative")
    qf_val = max(qf_val, 0.0)
    push = Pushforward(chars, f)
    try:  # the quadrature raises where the moment is not finite
        push.compact_mass()
    except ArithmeticError as exc:
        raise ArithmeticError(f"pushforward's truncated second moment: {exc}") from exc
    return CylindricalCharacteristics(a_val, qf_val, push, a_err, qf_err)


# --------------------------------------------------------------------------
# Empirical characteristic function
# --------------------------------------------------------------------------

def empirical_cf(samples, u_grid) -> tuple[np.ndarray, float]:
    """``(1/n) sum exp(i u X_j)`` per u, with Hoeffding-type radius 2/sqrt(n)."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least two samples")
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    out = np.empty(u.shape, dtype=complex)
    step = max(1, int(2e7 // max(x.size, 1)))
    for j0 in range(0, u.size, step):
        block = u[j0:j0 + step]
        out[j0:j0 + step] = np.exp(1j * block[:, None] * x[None, :]).mean(axis=1)
    return out, 2.0 / np.sqrt(x.size)
