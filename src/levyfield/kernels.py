"""One-dimensional jump kernels.

A jump kernel is a Levy measure on R \\ {0}: nonnegative, finite outside every
neighbourhood of the origin, and integrating ``1 ^ y^2``.  Kernels carry the
jump-size structure of a measure-valued noise; the spatial part multiplies in
separately.  Four parametric families are provided:

* ``stable(alpha, p, q)`` with density ``p*alpha*y^(-alpha-1)`` on y > 0 and
  ``q*alpha*(-y)^(-alpha-1)`` on y < 0 (optionally scaled),
* compound Poisson: ``rate`` times a proper jump-size distribution,
* tempered stable: symmetric ``(alpha/2)*|y|^(-alpha-1)*exp(-cutoff*|y|)``,
* tabulated: piecewise-linear density on a user grid.

Every kernel exposes the handful of integrals the rest of the package needs
(tail masses, truncated moments, characteristic-function integrands, the
truncation drift and its supremum).  Tails and truncated moments take scalar
or array cuts, bit for bit alike, in closed form: powers (stable), incomplete
gamma functions (tempered stable), atom sums, normal CDF or clipped
polynomials (compound Poisson), Simpson's rule on linear pieces plus prefix
sums (tabulated; its CF integrand is exact per piece too).  Quadrature is
left only in the tempered-stable CF integrand, the stable small-jump CF
beyond ``1/|c|`` and the normal jump law's CF tail.

The scalar Gamma is ``math.gamma``: every argument is a scalar off the poles,
and it differs from ``scipy.special.gamma`` by at most 9 ULP on (-2, 3)
(median 1 ULP).  ``scipy.special`` (and ``scipy.integrate``) are slow to
import, so the functions that need them import them when called.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

SUP_TOL = 1e-9
SUP_MAX_LEVEL = 11


class NonConvergenceError(ArithmeticError):
    """A refinement reached its level limit before successive levels agreed."""


def stable_symbol_constant(alpha: float) -> float:
    """The constant C with  int (cos y - 1) nu_alpha(dy) = -C  for the
    symmetric unit-mass stable kernel.

    ``C = Gamma(2-alpha)/(1-alpha) * cos(pi*alpha/2)`` away from alpha = 1 and
    ``pi/2`` at alpha = 1 (the removable singularity).  At alpha = 1.5 this is
    sqrt(2*pi).
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    if alpha == 1.0:
        return math.pi / 2.0
    return math.gamma(2.0 - alpha) / (1.0 - alpha) * math.cos(math.pi * alpha / 2.0)


def upper_gamma(s: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma ``Gamma(s, x)`` for s possibly <= 0 (x > 0).

    Uses the recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s to
    reach the regularized scipy implementation, which needs s > 0.
    """
    from scipy.special import exp1, gammaincc  # slow to import; see the module docstring
    x = np.asarray(x, dtype=float)
    if s > 0:
        return math.gamma(s) * gammaincc(s, x)
    if s == 0:
        return exp1(x)
    return (upper_gamma(s + 1.0, x) - x ** s * np.exp(-x)) / s


def choice_indices(p, u: np.ndarray) -> np.ndarray:
    """The indices ``rng.choice(len(p), size=n, p=p)`` makes of its uniforms
    ``u = rng.random(n)``, without its checks of ``p`` on every call: the same
    normalized CDF, searched, so ``choice_indices(p, rng.random(n))`` leaves
    the generator as ``rng.choice`` does.  ``p`` is nonnegative with a
    positive sum."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def copy_rng(rng: np.random.Generator, draws: int = 0) -> np.random.Generator:
    """The generator that draws what ``rng`` draws after ``draws`` 64-bit draws,
    on a bit generator of its own: a fresh one of the same type given ``rng``'s
    state (cheaper than ``copy.deepcopy``), then ``advance``d.  ``advance``
    clears the buffered 32-bit half, which 64-bit draws leave alone, so it is
    put back."""
    bits = type(rng.bit_generator)()
    bits.state = state = rng.bit_generator.state
    if draws:
        bits.advance(draws)
        bits.state = dict(bits.state, has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    return np.random.Generator(bits)


def _cpu_width() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_REJECTION_CAP = 1 << 20  # most draws in one rejection block of JumpSizeDistribution.sample_tail
_TRANSFORM_BLOCK = 1 << 14  # stable jumps per fill-and-map pass: 128 KiB stays in L2
# Fewest blocks per part of a split StableKernel.sample_tail.  A helper
# thread's start and join cost about 0.13 ms, a block's fill and map about
# 0.17 ms; on 2 vCPUs two parts of 4 blocks broke even with one pass, and two
# of 8 took 0.78 of its time.
_SPLIT_BLOCKS = 8

SMALL_CF_RTOL = 1e-10
# Terms m = 1..12 of the cosine and sine series; at |c y| <= 1 the first
# omitted term is below 1e-25 of the leading one.
_M = np.arange(1, 13)
_EVEN, _ODD, _SIGN = 2.0 * _M, 2.0 * _M + 1.0, (-1.0) ** _M
_FACT_EVEN = np.array([math.factorial(2 * m) for m in _M], dtype=float)
_FACT_ODD = np.array([math.factorial(2 * m + 1) for m in _M], dtype=float)


def _quad_checked(f, a, b):
    """``quad`` of a one-signed integrand to ``SMALL_CF_RTOL``, or ``ArithmeticError``."""
    from scipy import integrate  # slow to import; only the quadrature fallbacks need it
    val, err, *_ = integrate.quad(f, a, b, limit=400, epsabs=0.0,
                                  epsrel=SMALL_CF_RTOL / 100, full_output=1)
    if not err <= SMALL_CF_RTOL * abs(val):
        raise ArithmeticError(f"quad on ({a:g}, {b:g}] reached error {err:.3g} "
                              f"on a value of {val:.6g}")
    return val


def _phi(z):
    """The standard normal density, as ``scipy.stats.norm.pdf`` computes it."""
    return np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)


def _ndtr(z):
    """The standard normal CDF, ``scipy.special.ndtr``."""
    from scipy.special import ndtr  # slow to import; see the module docstring
    return ndtr(z)


def _reciprocal(u: np.ndarray) -> np.ndarray:
    """``1/u`` elementwise for u >= 0; ``inf`` where it overflows (and at 0)."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / u


def _pow(x, e):
    """``x ** e`` elementwise by libm's ``pow``; overflow gives inf silently."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.float_power(x, e)


def _value(x):
    """A 0-d result as a Python float; arrays pass through."""
    return x if np.ndim(x) else float(x)


class JumpKernel:
    """Interface shared by all jump kernels."""

    symmetric: bool = False

    def density(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quad_mass(self) -> float:
        """``int (1 ^ y^2) k(dy)`` — the jump part of the control measure."""
        return self.second_moment_below(1.0) + self.tail_mass(1.0)

    def tail_mass(self, c):
        """``k({|y| > c})`` for c >= 0."""
        pos, neg = self.tail_masses(c)
        return pos + neg

    def tail_masses(self, c):
        """Masses of the positive and negative tails beyond ``c``."""
        raise NotImplementedError

    def second_moment_below(self, c):
        """``int_{|y| <= c} y^2 k(dy)``."""
        raise NotImplementedError

    def annulus_first_moment(self, r1, r2):
        """``int_{r1 < |y| <= r2} y k(dy)`` (signed), 0 < r1 < r2 <= inf."""
        raise NotImplementedError

    def compact_moment(self, u) -> np.ndarray:
        """``int (1 ^ |u y|^2) k(dy)``, vectorized over u."""
        u = np.abs(np.asarray(u, dtype=float))
        out = np.zeros(u.shape)
        live = u != 0.0
        ul = u[live]
        r = _reciprocal(ul)
        out[live] = ul * ul * self.second_moment_below(r) + self.tail_mass(r)
        return _value(out)

    def indicator_moment_diff(self, v) -> np.ndarray:
        """``int y (1{|v y| <= 1} - 1{|y| <= 1}) k(dy)``, vectorized over v.

        0 at v = 0, else finite, but it may grow without bound as v -> 0
        (like ``|v|^(alpha - 1)`` for a stable kernel with alpha < 1).
        """
        v = np.asarray(v, dtype=float)
        a = np.abs(v)
        out = np.zeros(v.shape)
        inner, outer = (a > 0.0) & (a < 1.0), a > 1.0
        out[inner] = self.annulus_first_moment(1.0, _reciprocal(a[inner]))
        out[outer] = -self.annulus_first_moment(_reciprocal(a[outer]), 1.0)
        return _value(out)

    def cf_integrand(self, c, eps: float = 0.0) -> np.ndarray:
        """``int_{|y| > eps} (e^{i c y} - 1 - i c y 1{|y| <= 1}) k(dy)``.

        The ``eps`` truncation matches the sampler's small-jump cut, so the
        truncation bias of a simulated field is this quantity at eps > 0
        versus eps = 0.
        """
        raise NotImplementedError

    def truncation_drift(self, v) -> np.ndarray:
        """``G(v) = v int y (1{|v y| <= 1} - 1{|y| <= 1}) k(dy) = v indicator_moment_diff(v)``:
        the jumps' part of the drift of ``v M`` under the symbol's indicator truncation.

        Odd in v, and identically zero for symmetric kernels.  Finite for every
        Levy kernel: the indicator mismatch lives on an annulus away from 0.
        """
        v = np.asarray(v, dtype=float)
        return _value(np.zeros(v.shape) if self.symmetric else v * self.indicator_moment_diff(v))

    def drift_sup(self, a0: np.ndarray, mod: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``sup_{0 <= v <= u} |a0 v + mod G(v)|`` elementwise over 1-d arrays.

        Generic route: the maximum over a dyadic grid of [0, u], refined until
        successive levels agree to ``SUP_TOL`` (at most to ``SUP_MAX_LEVEL``).
        A grid settles on an interior maximum only quadratically, or stalls on
        it, so rows whose best point is interior, or that still move, then zoom
        in on it, 16 times finer a step, until steps agree and the best point's
        grid neighbours lie within ``SUP_TOL`` of it, else
        ``NonConvergenceError``.  A non-finite maximum is returned as is.  Each
        row refines until its own levels (and steps) agree, so its value does
        not depend on the rows evaluated beside it.
        """
        out = np.zeros_like(u)
        for start in range(0, u.size, 256):
            a, b, w = a0[start:start + 256], mod[start:start + 256], u[start:start + 256]
            cur, best = np.full(w.size, np.nan), np.zeros(w.size)
            level, settled = np.zeros(w.size, dtype=int), np.zeros(w.size, dtype=bool)
            live = np.arange(w.size)
            for m in range(4, SUP_MAX_LEVEL + 1):
                new, best[live], _ = self._grid_sup(
                    a[live], b[live], w[live, None] * np.linspace(0.0, 1.0, 2 ** m + 1)[1:])
                settled[live] = np.abs(new - cur[live]) <= SUP_TOL * (1.0 + new)
                cur[live], level[live] = new, m
                live = live[~settled[live] & np.isfinite(new)]
                if not live.size:
                    break
            z = ((best < w) | ~settled) & np.isfinite(cur)
            if z.any():
                cur[z] = self._zoom_sup(a[z], b[z], w[z], best[z], cur[z], w[z] / 2.0 ** level[z])
            out[start:start + 256] = cur
        return out

    def _grid_sup(self, a0, mod, v):
        """Row maxima of ``|a0 v + mod G(v)|`` over the grid rows of ``v``, their
        points, and how far the lower of their grid neighbours falls below them."""
        g = np.asarray(self.truncation_drift(v.ravel())).reshape(v.shape)
        h = np.abs(a0[:, None] * v + mod[:, None] * g)
        rows, i = np.arange(v.shape[0]), h.argmax(axis=1)
        near = np.minimum(h[rows, np.maximum(i - 1, 0)], h[rows, np.minimum(i + 1, v.shape[1] - 1)])
        return h[rows, i], v[rows, i], h[rows, i] - near

    def _zoom_sup(self, a0, mod, u, best, cur, width):
        """Per row, grids of 33 points around ``best``, 16 times narrower each
        step, until two steps agree and ``best``'s grid neighbours lie as close
        (at a kink of G a step may not move); updates ``best``, ``cur`` and ``width``."""
        live = np.arange(cur.size)
        for _ in range(SUP_MAX_LEVEL):
            v = np.clip(best[live, None] + width[live, None] * np.linspace(-1.0, 1.0, 33),
                        0.0, u[live, None])
            new, best[live], drop = self._grid_sup(a0[live], mod[live], v)
            moved = np.maximum(np.abs(new - cur[live]), drop)
            cur[live], width[live] = new, width[live] / 16.0
            unsettled = ~(moved <= SUP_TOL * (1.0 + new))
            live = live[unsettled]
            if not live.size:
                return cur
        raise NonConvergenceError(f"drift sup still moved by {np.max(moved[unsettled]):.3g} "
                                  f"after {SUP_MAX_LEVEL} zoom steps")

    def abs_annulus_first_moment(self, c) -> np.ndarray:
        """``int_{1 < |y| <= c} |y| k(dy)`` for an array of cutoffs c >= 1."""
        c = np.asarray(c, dtype=float)
        out = np.zeros(c.shape)
        live = c > 1.0
        out[live] = self._abs_annulus_first_moment(c[live])
        return out

    def sample_tail(self, rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
        """Draw n sizes from the kernel conditioned on ``|y| > eps``."""
        raise NotImplementedError

    def tail_map(self, eps: float):
        """The in-place map f of uniforms to sizes with ``f(rng.random(n))`` bit
        for bit ``sample_tail(rng, n, eps)``; None for a rejection sampler."""
        return None


@dataclass(frozen=True)
class StableKernel(JumpKernel):
    """Stable kernel ``scale * alpha * (p 1{y>0} + q 1{y<0}) |y|^(-alpha-1)``.

    p + q = 1; at alpha = 1 only the symmetric case p = q = 1/2 is supported
    and the (singular) drift coefficient of the associated noise is dropped.
    """

    alpha: float
    p: float = 0.5
    q: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise ValueError("alpha must lie in (0, 2)")
        if self.p < 0 or self.q < 0 or abs(self.p + self.q - 1.0) > 1e-12:
            raise ValueError("need p, q >= 0 with p + q = 1")
        if self.alpha == 1.0 and self.p != self.q:
            raise ValueError("alpha = 1 is supported only with p = q = 1/2")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def symmetric(self) -> bool:
        return self.p == self.q

    @property
    def beta(self) -> float:
        return self.p - self.q

    def density(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            mag = self.scale * self.alpha * np.abs(y) ** (-self.alpha - 1.0)
        return np.where(y > 0, self.p * mag, np.where(y < 0, self.q * mag, 0.0))

    def tail_masses(self, c):
        t = self.scale * _pow(c, -self.alpha)  # a side without mass stays 0 where t is inf
        return tuple(_value(w * t if w else np.zeros(t.shape)) for w in (self.p, self.q))

    def second_moment_below(self, c):
        a = self.alpha
        return _value(self.scale * a / (2.0 - a) * _pow(c, 2.0 - a))

    def annulus_first_moment(self, r1, r2):
        a, b = self.alpha, self.beta
        if b == 0.0:
            return _value(np.zeros(np.broadcast(r1, r2).shape))
        if a <= 1.0 and np.any(np.isinf(r2)):
            raise ValueError("first tail moment diverges for alpha <= 1")
        return _value(self.scale * b * a / (1.0 - a) * (_pow(r2, 1.0 - a) - _pow(r1, 1.0 - a)))

    def indicator_moment_diff(self, v):
        """``s beta alpha/(1 - alpha) (|v|^(alpha - 1) - 1)`` on either annulus, 0 at v = 0."""
        a = np.abs(np.asarray(v, dtype=float))
        out = np.zeros(a.shape)
        if self.beta != 0.0:
            live = a != 0.0
            coef = self.scale * self.beta * self.alpha / (1.0 - self.alpha)
            out[live] = coef * (_pow(a[live], self.alpha - 1.0) - 1.0)
        return _value(out)

    def compact_moment(self, u):
        val = np.abs(np.asarray(u, dtype=float))
        val **= self.alpha
        val *= self.scale * 2.0 / (2.0 - self.alpha)
        return val if val.shape else float(val)

    def cf_integrand(self, c, eps: float = 0.0):
        c_arr = np.asarray(c, dtype=float)
        a, b, s = self.alpha, self.beta, self.scale
        C = stable_symbol_constant(a)
        mag = np.abs(c_arr) ** a
        if a == 1.0:
            full = -s * C * mag + 0.0j
        else:
            skew = b * math.tan(math.pi * a / 2.0) * np.sign(c_arr)
            full = -s * C * mag * (1.0 - 1j * skew) - 1j * c_arr * s * b * a / (1.0 - a)
        if eps > 0.0:
            full = full - self._small_cf_part(c_arr, eps)
        return full if full.shape else complex(full)

    def _small_cf_part(self, c_arr, eps):
        """``int_{|y| <= eps} (e^{icy} - 1 - icy) k(dy)``.

        The Taylor series of the integrand integrates term by term over
        ``(0, e]`` with ``e = min(eps, 1/|c|)``; beyond ``1/|c|`` the
        integrand no longer cancels and ``quad`` takes ``(1/|c|, eps]``,
        raising ``ArithmeticError`` when its error estimate exceeds
        ``SMALL_CF_RTOL``.
        """
        a, b, s = self.alpha, self.beta, self.scale
        c = np.asarray(c_arr, dtype=float).ravel()
        e = eps / np.maximum(1.0, np.abs(c) * eps)
        x = (c * e)[:, None]
        re = a * e ** -a * (x ** _EVEN @ (_SIGN / (_FACT_EVEN * (_EVEN - a))))
        im = a * e ** -a * (x ** _ODD @ (_SIGN / (_FACT_ODD * (_ODD - a))))
        for i in np.flatnonzero(e < eps):
            ci = float(c[i])
            re[i] += _quad_checked(lambda y: (np.cos(ci * y) - 1.0) * a * y ** (-a - 1.0),
                                   1.0 / abs(ci), eps)
            if b != 0.0:
                im[i] += _quad_checked(lambda y: (np.sin(ci * y) - ci * y) * a * y ** (-a - 1.0),
                                       1.0 / abs(ci), eps)
        out = s * (re + 1j * b * im)
        return out.reshape(np.shape(c_arr)) if np.ndim(c_arr) else complex(out[0])

    def drift_sup(self, a0, mod, u):
        """Exact sup of |A v + B v^alpha| on [0, u]: endpoint or stationary point."""
        a = self.alpha
        b_coef = mod * self.scale * self.beta * a / (1.0 - a) if a != 1.0 else np.zeros_like(mod)
        a_coef = a0 - b_coef
        best = np.abs(a_coef * u + b_coef * u ** a)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(b_coef != 0.0, -a_coef / (a * b_coef), -1.0)
            vstar = np.where(ratio > 0.0, ratio ** (1.0 / (a - 1.0)), 0.0)
        keep = (vstar > 0.0) & (vstar < u)
        inner = np.where(keep, np.abs(a_coef * vstar + b_coef * vstar ** a), 0.0)
        return np.maximum(best, inner)

    def _abs_annulus_first_moment(self, c):
        a = self.alpha
        mass = self.scale * (self.p + self.q)
        if a == 1.0:
            return mass * np.log(c)
        return mass * a * (c ** (1.0 - a) - 1.0) / (1.0 - a)

    def sample_tail(self, rng, n, eps):
        """Inverse-CDF map of n uniforms, filled and mapped in cache-sized blocks.

        With a jumpable bit generator and at least ``_SPLIT_BLOCKS`` blocks per
        CPU part, the parts run at once: this thread maps the first with
        ``rng``, and a helper thread each later one with a copy of ``rng``
        advanced to its start.  The map is elementwise and each uniform is one
        64-bit draw, so the jumps and ``rng``'s state after the call are bit for
        bit those of one pass, whatever the number of parts.
        """
        out = np.empty(n)
        blocks = -(-n // _TRANSFORM_BLOCK)
        parts = 1
        # PCG64's advance(k) skips k 64-bit draws (Philox's skips k blocks of
        # four; SFC64 and MT19937 have none); np.random is named here, not at
        # import, where it would load 2 MB
        if blocks >= 2 * _SPLIT_BLOCKS and isinstance(
                getattr(rng, "bit_generator", None), (np.random.PCG64, np.random.PCG64DXSM)):
            parts = min(_cpu_width(), blocks // _SPLIT_BLOCKS)
        if parts < 2:
            self._map_blocks(rng, out, eps)
            return out
        cuts = [blocks * i // parts * _TRANSFORM_BLOCK for i in range(parts)] + [n]
        gens = [copy_rng(rng, lo) for lo in cuts[1:-1]]
        errors = []

        def helper(gen, part):
            try:
                self._map_blocks(gen, part, eps)
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)

        threads = []
        try:
            for gen, lo, hi in zip(gens, cuts[1:], cuts[2:]):
                t = threading.Thread(target=helper, args=(gen, out[lo:hi]))
                t.start()
                threads.append(t)
            self._map_blocks(rng, out[:cuts[1]], eps)
        finally:
            for t in threads:
                t.join()
        if errors:
            raise errors[0]
        rng.bit_generator.state = gens[-1].bit_generator.state
        return out

    def _map_blocks(self, rng, out, eps):
        """Map ``out``, filled from ``rng`` first (if any), ``_TRANSFORM_BLOCK`` at a time."""
        buf = np.empty(min(out.size, _TRANSFORM_BLOCK))
        for lo in range(0, out.size, _TRANSFORM_BLOCK):
            u = out[lo:lo + _TRANSFORM_BLOCK]
            if rng is not None:
                rng.random(out=u)
            self._inverse_cdf(u, buf[:u.size], eps)

    def tail_map(self, eps):
        return lambda u: self._map_blocks(None, u, eps)

    def _inverse_cdf(self, u, buf, eps):
        """Map uniforms ``u`` to jumps in place, ``buf`` a scratch of its size."""
        inv = -1.0 / self.alpha
        if self.p == 1.0 or (self.q == 1.0 and self.p == 0.0):
            # one-sided: every u < p = 1, or none < p = 0, so the sign is fixed
            # and the magnitude's uniform is 1 - u or u, bit for bit the
            # general (p - u)/p and (u - p)/q below
            if self.p == 1.0:
                np.subtract(1.0, u, out=u)
            np.clip(u, 1e-300, 1.0, out=u)
            np.power(u, inv, out=u)
            u *= eps if self.p == 1.0 else -eps
            return
        if self.symmetric:
            # |2(u - 1/2)|^(-1/a) * eps with the factor 2 folded into the scale;
            # a = 3/2 avoids np.power: |c|^(-2/3) = 1 / cbrt(c^2).
            u -= 0.5
            scale, sign = eps * 2.0 ** inv, u
            if self.alpha == 1.5:
                np.multiply(u, u, out=buf)
                np.maximum(buf, 1e-300, out=buf)
                np.cbrt(buf, out=buf)
                np.divide(scale, buf, out=buf)
                np.copysign(buf, u, out=u)
                return
            np.abs(u, out=buf)
        else:
            # positive exactly where u < p, so a side without mass gets no jumps
            scale, sign = eps, np.where(u < self.p, max(self.p, 1e-300), -max(self.q, 1e-300))
            np.subtract(self.p, u, out=buf)
            np.divide(buf, sign, out=buf)
        np.clip(buf, 1e-300, 1.0, out=buf)
        np.power(buf, inv, out=buf)
        buf *= scale
        np.copysign(buf, sign, out=u)

    def to_config(self):
        cfg = {"kind": "stable", "alpha": self.alpha, "p": self.p, "q": self.q}
        if self.scale != 1.0:
            cfg["scale"] = self.scale
        return cfg


# --------------------------------------------------------------------------
# Jump-size distributions for the compound-Poisson kernel
# --------------------------------------------------------------------------

class JumpSizeDistribution:
    """Proper law of a single jump (no mass at 0); tails elementwise over cuts."""

    symmetric: bool = False

    def pdf(self, y):
        """Lebesgue density; laws with atoms have none."""
        raise NotImplementedError

    def prob_tails(self, c):
        """(P(Y > c), P(Y < -c))."""
        raise NotImplementedError

    def _partial_mean(self, lo, hi):
        """``E[Y; lo < Y <= hi]``."""
        raise NotImplementedError

    def mean_annulus(self, r1, r2):
        """``E[Y; r1 < |Y| <= r2]``."""
        return _value(self._partial_mean(r1, r2) + self._partial_mean(-r2, -r1))

    def abs_mean_annulus(self, r1, r2):
        """``E[|Y|; r1 < |Y| <= r2]``."""
        return _value(self._partial_mean(r1, r2) - self._partial_mean(-r2, -r1))

    def second_moment_below(self, c):
        """``E[Y^2; |Y| <= c]``."""
        raise NotImplementedError

    def char_fn_tail(self, c, eps: float) -> np.ndarray:
        """``E[e^{icY} 1{|Y| > eps}]``."""
        raise NotImplementedError

    def tail_map(self, eps):  # as JumpKernel.tail_map
        return None

    def sample_tail(self, rng, n, eps):
        """Rejection sampling of Y given |Y| > eps, in at most 10,000 blocks."""
        acc = sum(self.prob_tails(eps))
        if acc <= 0.0:
            raise ValueError(f"jump distribution has no mass beyond {eps}")
        out = np.empty(0)
        for _ in range(10_000):
            if out.size >= n:
                break
            block = self.sample(rng, min(_REJECTION_CAP, max(64, int(1.3 * (n - out.size) / acc))))
            out = np.concatenate([out, block[np.abs(block) > eps]])
        if out.size < n:
            raise RuntimeError(f"{self!r}: rejection kept {out.size} of {n} jumps beyond "
                               f"eps={eps} in 10000 blocks")
        return out[:n]


def _window_sum(w, x, lo, hi):
    """``w[(x > lo) & (x <= hi)].sum()`` per cut: cuts that take the same atoms
    share one sum, so a scalar cut costs one sum."""
    lo, hi = np.broadcast_arrays(lo, hi)
    s = np.sort(x)  # a window's atoms are the sorted ones from the first past lo to the last <= hi
    key = np.searchsorted(s, lo, side="right") * (s.size + 1) + np.searchsorted(s, hi, side="right")
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    sums = np.array([w[(x > lo.flat[i]) & (x <= hi.flat[i])].sum() for i in first])
    return _value(sums[inverse].reshape(lo.shape))


@dataclass(frozen=True)
class DiscreteJumps(JumpSizeDistribution):
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        p = tuple(float(x) for x in self.probs)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)
        if len(v) != len(p) or not v:
            raise ValueError("values and probs must be nonempty and aligned")
        if any(x == 0.0 for x in v):
            raise ValueError("jump sizes must be nonzero")
        if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probs must be a probability vector")

    @property
    def symmetric(self) -> bool:
        """Each value's total probability equals its mirror's (0 when absent)."""
        law = {}
        for v, p in zip(self.values, self.probs):
            law[v] = law.get(v, 0.0) + p
        return all(law.get(-v, 0.0) == p for v, p in law.items())

    def _arr(self):
        return np.asarray(self.values), np.asarray(self.probs)

    def sample(self, rng, n):
        v, p = self._arr()
        return v[choice_indices(p, rng.random(n))]

    def prob_tails(self, c):
        v, p = self._arr()
        return _window_sum(p, v, c, np.inf), _window_sum(p, -v, c, np.inf)

    def mean_annulus(self, r1, r2):
        v, p = self._arr()
        return _window_sum(v * p, np.abs(v), r1, r2)

    def abs_mean_annulus(self, r1, r2):
        v, p = self._arr()
        return _window_sum(np.abs(v) * p, np.abs(v), r1, r2)

    def second_moment_below(self, c):
        v, p = self._arr()
        return _window_sum(v * v * p, np.abs(v), -np.inf, c)

    def char_fn(self, c):
        v, p = self._arr()
        c = np.asarray(c, dtype=float)
        return np.exp(1j * np.multiply.outer(c, v)) @ p

    def char_fn_tail(self, c, eps):
        v, p = self._arr()
        m = np.abs(v) > eps
        return np.exp(1j * np.multiply.outer(c, v[m])) @ p[m]

    def sample_tail(self, rng, n, eps):
        return self.tail_map(eps)(rng.random(n))

    def tail_map(self, eps):
        """The atoms beyond eps, picked as ``choice_indices`` picks them."""
        v, p = self._arr()
        m = np.abs(v) > eps
        if not m.any():
            raise ValueError(f"jump distribution has no mass beyond {eps}")
        return lambda u: v[m].take(choice_indices(p[m] / p[m].sum(), u), out=u)

    def to_config(self):
        return {"kind": "discrete", "values": list(self.values), "probs": list(self.probs)}


@dataclass(frozen=True)
class NormalJumps(JumpSizeDistribution):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def symmetric(self) -> bool:
        return self.mu == 0.0

    def sample(self, rng, n):
        return rng.normal(self.mu, self.sigma, n)

    def pdf(self, y):
        return _phi((y - self.mu) / self.sigma) / self.sigma

    def prob_tails(self, c):
        return (_value(_ndtr(-((c - self.mu) / self.sigma))),
                _value(_ndtr((-c - self.mu) / self.sigma)))

    def _partial_mean(self, a, b):
        # E[Y; a < Y <= b] for a normal, via the standard truncated identities.
        za, zb = (a - self.mu) / self.sigma, (b - self.mu) / self.sigma
        with np.errstate(over="ignore"):  # phi(z) at huge |z| is 0
            return self.mu * (_ndtr(zb) - _ndtr(za)) - self.sigma * (_phi(zb) - _phi(za))

    def second_moment_below(self, c):
        # E[Y^2; -c < Y <= c] from the second truncated moment; z phi(z) is 0 at infinite z
        za, zb = (-c - self.mu) / self.sigma, (c - self.mu) / self.sigma
        with np.errstate(over="ignore", invalid="ignore"):
            dphi = _phi(zb) - _phi(za)
            zphi = (np.where(np.isfinite(zb), zb * _phi(zb), 0.0)
                    - np.where(np.isfinite(za), za * _phi(za), 0.0))
        dPhi = _ndtr(zb) - _ndtr(za)
        return _value((self.mu ** 2 + self.sigma ** 2) * dPhi
                      - 2.0 * self.mu * self.sigma * dphi - self.sigma ** 2 * zphi)

    def char_fn(self, c):
        c = np.asarray(c, dtype=float)
        return np.exp(1j * c * self.mu - 0.5 * (self.sigma * c) ** 2)

    def char_fn_tail(self, c, eps):
        """``char_fn`` less its smooth part on [-eps, eps], one ``quad_vec``."""
        from scipy.integrate import quad_vec  # slow to import; see _quad_checked
        c = np.asarray(c, dtype=float)
        inner, _, info = quad_vec(lambda y: np.exp(1j * c * y) * self.pdf(y), -eps, eps,
                                  epsabs=1e-13, epsrel=1e-11, full_output=True)
        if not info.success:
            raise ArithmeticError(f"quad_vec on [-{eps:g}, {eps:g}]: {info.message}")
        out = self.char_fn(c) - inner
        return out if np.ndim(c) else complex(out)

    def to_config(self):
        return {"kind": "normal", "mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class UniformJumps(JumpSizeDistribution):
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")

    def _len(self):
        return self.b - self.a

    @property
    def symmetric(self) -> bool:
        return self.a == -self.b

    def sample(self, rng, n):
        return rng.uniform(self.a, self.b, n)

    def pdf(self, y):
        return _value(np.where((self.a <= y) & (y <= self.b), 1.0 / self._len(), 0.0))

    def prob_tails(self, c):
        pos = np.maximum(0.0, self.b - np.maximum(self.a, c)) / self._len()
        neg = np.maximum(0.0, np.minimum(self.b, -c) - self.a) / self._len()
        return _value(pos), _value(neg)

    def _partial_mean(self, lo, hi):
        lo, hi = np.clip(lo, self.a, self.b), np.clip(hi, self.a, self.b)
        return np.where(lo < hi, 0.5 * (hi * hi - lo * lo) / self._len(), 0.0)

    def second_moment_below(self, c):
        lo, hi = np.clip(-c, self.a, self.b), np.clip(c, self.a, self.b)
        return _value(np.where(lo < hi, (_pow(hi, 3) - _pow(lo, 3)) / (3.0 * self._len()), 0.0))

    def char_fn(self, c):
        """``e^{icm} j0(cL/2)``, m the midpoint: no cancellation at small c."""
        from scipy.special import spherical_jn  # slow to import; see the module docstring
        c = np.asarray(c, dtype=float)
        res = np.exp(0.5j * c * (self.a + self.b)) * spherical_jn(0, 0.5 * c * self._len())
        return res if np.ndim(c) else complex(res)

    def char_fn_tail(self, c, eps):
        """``(1/L) int e^{icy} dy`` off [-eps, eps]: ``2h j0(ch) e^{icm}`` per piece [m-h, m+h]."""
        from scipy.special import spherical_jn  # slow to import; see the module docstring
        c = np.asarray(c, dtype=float)
        out = np.zeros(c.shape, dtype=complex)
        for lo, hi in ((max(self.a, eps), self.b), (self.a, min(self.b, -eps))):
            h = 0.5 * max(hi - lo, 0.0)
            out += 2.0 * h * spherical_jn(0, c * h) * np.exp(0.5j * c * (lo + hi)) / self._len()
        return out if np.ndim(c) else complex(out)

    def to_config(self):
        return {"kind": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class CompoundPoissonKernel(JumpKernel):
    """Finite-activity kernel ``rate * law(jumps)``."""

    rate: float
    jumps: JumpSizeDistribution

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def symmetric(self) -> bool:
        return self.jumps.symmetric

    def tail_masses(self, c):
        pos, neg = self.jumps.prob_tails(c)
        return self.rate * pos, self.rate * neg

    def second_moment_below(self, c):
        return self.rate * self.jumps.second_moment_below(c)

    def annulus_first_moment(self, r1, r2):
        return self.rate * self.jumps.mean_annulus(r1, r2)

    def cf_integrand(self, c, eps: float = 0.0):
        c = np.asarray(c, dtype=float)
        if eps == 0.0:
            phi, mass = self.jumps.char_fn(c), 1.0
        else:  # drop jumps of size <= eps entirely
            phi, mass = self.jumps.char_fn_tail(c, eps), sum(self.jumps.prob_tails(eps))
        val = self.rate * (phi - mass) - 1j * c * self.rate * self.jumps.mean_annulus(eps, 1.0)
        return val if np.ndim(c) else complex(val)

    # Discrete jumps: exact sums over the atoms; other laws use the generic routes.
    def compact_moment(self, u):
        if not isinstance(self.jumps, DiscreteJumps):
            return super().compact_moment(u)
        u = np.asarray(u, dtype=float)
        sizes, probs = self.jumps._arr()
        val = self.rate * (np.minimum(1.0, np.multiply.outer(u, sizes) ** 2) @ probs)
        return val if val.shape else float(val)

    @functools.cached_property
    def _pieces(self):
        """Discrete jumps: the pieces ``(left, right]`` between the breakpoints ``1/|size|``
        and ``G(v)/v`` on each, read inside it (at a computed breakpoint it may read the next)."""
        breaks = np.unique(1.0 / np.abs(self.jumps._arr()[0]))
        left = np.append(0.0, breaks)
        inside = np.append(0.5 * (left[:-1] + breaks), 2.0 * breaks[-1])
        return left, np.append(breaks, np.inf), self.indicator_moment_diff(inside)

    def drift_sup(self, a0, mod, u):
        """Discrete jumps: each piece's sup is its left limit at ``min(right, u)``."""
        if not isinstance(self.jumps, DiscreteJumps):
            return super().drift_sup(a0, mod, u)
        left, right, ratio = self._pieces
        slope = np.abs(a0[:, None] + mod[:, None] * ratio)
        return np.where(left < u[:, None], np.minimum(right, u[:, None]) * slope, 0.0).max(axis=1)

    def _abs_annulus_first_moment(self, c):
        return self.rate * self.jumps.abs_mean_annulus(1.0, c)

    def sample_tail(self, rng, n, eps):
        return self.jumps.sample_tail(rng, n, eps)

    def tail_map(self, eps):
        return self.jumps.tail_map(eps)

    def to_config(self):
        return {"kind": "compound-poisson", "rate": self.rate,
                "jumps": self.jumps.to_config()}


@dataclass(frozen=True)
class TemperedStableKernel(JumpKernel):
    """Symmetric tempered-stable kernel ``scale*(alpha/2)|y|^(-alpha-1) e^{-cutoff|y|}``.

    Letting cutoff -> 0 recovers the symmetric stable kernel of the same alpha.
    """

    alpha: float
    cutoff: float
    scale: float = 1.0

    symmetric = True

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise ValueError("alpha must lie in (0, 2)")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def density(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            mag = np.abs(y)
            return np.where(mag > 0,
                            self.scale * 0.5 * self.alpha * mag ** (-self.alpha - 1.0)
                            * np.exp(-self.cutoff * mag), 0.0)

    def tail_masses(self, c):
        a, th = self.alpha, self.cutoff
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = np.where(c == 0.0, math.inf, upper_gamma(-a, th * c))
        t = self.scale * 0.5 * a * th ** a * _value(g)
        return t, t

    def second_moment_below(self, c):
        from scipy.special import gammainc  # slow to import; see the module docstring
        a, th = self.alpha, self.cutoff
        # int_0^c y^{1-alpha} e^{-th y} dy, two sides
        low = math.gamma(2.0 - a) * gammainc(2.0 - a, th * c)
        return self.scale * a * th ** (a - 2.0) * _value(low)

    def annulus_first_moment(self, r1, r2):
        return _value(np.zeros(np.broadcast(r1, r2).shape))  # symmetric

    def _abs_annulus_first_moment(self, c):
        # a int_1^c y^{-alpha} e^{-th y} dy, two sides
        a, th = self.alpha, self.cutoff
        return self.scale * a * th ** (a - 1.0) * (
            upper_gamma(1.0 - a, th) - upper_gamma(1.0 - a, th * c))

    def cf_integrand(self, c, eps: float = 0.0):
        from scipy import integrate  # slow to import; see _quad_checked
        c_arr = np.atleast_1d(np.asarray(c, dtype=float))
        a, th = self.alpha, self.cutoff
        out = np.empty(c_arr.shape, dtype=complex)
        for i, ci in enumerate(c_arr):
            f = lambda y: (np.cos(ci * y) - 1.0) * a * y ** (-a - 1.0) * np.exp(-th * y)
            v = integrate.quad(f, max(eps, 0.0), 1.0, limit=400)[0] if eps < 1.0 else 0.0
            v += integrate.quad(f, max(eps, 1.0), np.inf, limit=400)[0]
            out[i] = self.scale * v  # symmetric: purely real
        return out if np.ndim(c) else complex(out[0])

    def sample_tail(self, rng, n, eps):
        """Rejection from the stable tail with acceptance ``e^{-cutoff(|y|-eps)}``."""
        th = self.cutoff
        out = np.empty(0)
        for _ in range(10_000):
            if out.size >= n:
                break
            m = max(256, 2 * (n - out.size))
            w = 2.0 * rng.random(m) - 1.0
            mag = eps * np.abs(w) ** (-1.0 / self.alpha)
            keep = rng.random(m) < np.exp(-th * (mag - eps))
            out = np.concatenate([out, np.copysign(mag, w)[keep]])
        else:
            raise RuntimeError("tempered tail rejection sampler failed to converge")
        return out[:n]

    def to_config(self):
        cfg = {"kind": "tempered-stable", "alpha": self.alpha, "cutoff": self.cutoff}
        if self.scale != 1.0:
            cfg["scale"] = self.scale
        return cfg


class TabulatedKernel(JumpKernel):
    """Piecewise-linear Levy density on a finite grid (zero outside).

    The grid must be strictly increasing and avoid straddling 0 within a
    segment; a segment is the interval between consecutive grid points.
    """

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise ValueError("need matching 1-d grid and values with >= 2 points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite and nonnegative")
        if np.any((grid[:-1] < 0) & (grid[1:] > 0)):
            raise ValueError("a segment may not straddle 0; add a grid point at 0")
        self.grid, self.values = grid, values
        # prefix sums of int y^k f(y) dy over whole segments, k = 0, 1, 2
        seg = [self._piece(grid[:-1], grid[1:], k) for k in range(3)]
        self._prefix = np.concatenate([np.zeros((3, 1)), np.cumsum(seg, axis=1)], axis=1)
        if not np.all(np.isfinite(self._prefix)):
            raise ValueError("tabulated kernel has non-integrable segments")

    def _interp(self, y):
        return np.interp(y, self.grid, self.values, left=0.0, right=0.0)

    def _piece(self, p, q, k):
        """``int_p^q y^k f(y) dy``, k <= 2, f linear on [p, q]: Simpson, exact."""
        fp, fq = self._interp(p), self._interp(q)
        m = 0.5 * (p + q)
        return (q - p) / 6.0 * (p ** k * fp + 2.0 * m ** k * (fp + fq) + q ** k * fq)

    def _between(self, lo, hi, k):
        """``int_{lo < y <= hi} y^k f(y) dy`` elementwise (0 where hi <= lo)."""
        g = self.grid
        lo = np.clip(lo, g[0], g[-1])
        hi = np.clip(hi, lo, g[-1])
        i = np.clip(np.searchsorted(g, lo, side="right") - 1, 0, g.size - 2)
        j = np.clip(np.searchsorted(g, hi, side="left") - 1, 0, g.size - 2)
        # when lo and hi lie in different segments, whole ones lie between
        out = (self._piece(lo, np.minimum(hi, g[i + 1]), k)
               + np.where(j > i, self._prefix[k, j] - self._prefix[k, i + 1]
                          + self._piece(g[j], hi, k), 0.0))
        return _value(out)

    density = _interp

    def tail_masses(self, c):
        return self._between(c, np.inf, 0), self._between(-np.inf, -c, 0)

    def second_moment_below(self, c):
        return self._between(-c, c, 2)

    def annulus_first_moment(self, r1, r2):
        return self._between(r1, r2, 1) + self._between(-r2, -r1, 1)

    def _abs_annulus_first_moment(self, c):
        return self._between(1.0, c, 1) - self._between(-c, -1.0, 1)

    def cf_integrand(self, c, eps: float = 0.0):
        """Exact on the pieces between grid points, ``±eps`` and ``±1``: with
        midpoint m, half-width h, density f_m at m and slope s, ``int e^{icy} f
        = 2h e^{icm} (f_m j0(ch) + i s h j1(ch))`` (spherical Bessel j0, j1)."""
        from scipy.special import spherical_jn  # slow to import; see the module docstring
        cuts = np.clip([-1.0, -eps, eps, 1.0], self.grid[0], self.grid[-1])
        pts = np.union1d(self.grid, cuts)
        m, h = 0.5 * (pts[1:] + pts[:-1]), 0.5 * (pts[1:] - pts[:-1])
        m, h = m[np.abs(m) > eps], h[np.abs(m) > eps]
        fp, fq = self._interp(m - h), self._interp(m + h)
        fm, slope = 0.5 * (fp + fq), (fq - fp) / (2.0 * h)
        cc = np.asarray(c, dtype=float)[..., None]
        full = 2.0 * h * np.exp(1j * cc * m) * (fm * spherical_jn(0, cc * h)
                                                + 1j * slope * h * spherical_jn(1, cc * h))
        mass = 2.0 * h * fm
        first = m * mass + slope * 2.0 * h ** 3 / 3.0
        out = (full - mass - 1j * cc * first * (np.abs(m) < 1.0)).sum(axis=-1)
        return out if np.ndim(c) else complex(out)

    def sample_tail(self, rng, n, eps):
        # the part of each segment beyond eps (segments keep one sign)
        a, b = self.grid[:-1], self.grid[1:]
        lo = np.where(a >= 0.0, np.clip(eps, a, b), a)
        hi = np.where(a >= 0.0, b, np.clip(-eps, a, b))
        masses = self._piece(lo, hi, 0)
        total = masses.sum()
        if total <= 0:
            raise ValueError(f"no tabulated mass beyond {eps}")
        seg = choice_indices(masses / total, rng.random(n))
        lo, hi = lo[seg], hi[seg]
        # rejection against the larger end of the (linear) piece: half pass or more
        out = np.empty(n)
        cap = np.maximum(self._interp(lo), self._interp(hi))
        todo = np.arange(n)
        for _ in range(10_000):
            y = rng.uniform(lo[todo], hi[todo])
            acc = rng.random(todo.size) * cap[todo] < self._interp(y)
            out[todo[acc]] = y[acc]
            todo = todo[~acc]
            if not todo.size:
                return out
        raise RuntimeError(f"TabulatedKernel: rejection left {todo.size} of {n} jumps "
                           f"beyond eps={eps} undrawn in 10000 rounds")

    def to_config(self):
        return {"kind": "tabulated", "grid": self.grid.tolist(),
                "values": self.values.tolist()}

    def __eq__(self, other):
        return (isinstance(other, TabulatedKernel)
                and np.array_equal(self.grid, other.grid)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((tuple(self.grid), tuple(self.values)))
