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
truncation drift and its supremum).  Where a closed form exists it is used; a
quadrature fallback backs the generic case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sint
from scipy.special import gamma as _gamma, gammainc as _gammainc, gammaincc as _gammaincc
from scipy.stats import norm as _norm

from .quadrature import _rule

SUP_TOL = 1e-9
SUP_MAX_LEVEL = 11


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
    return _gamma(2.0 - alpha) / (1.0 - alpha) * math.cos(math.pi * alpha / 2.0)


def upper_gamma(s: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma ``Gamma(s, x)`` for s possibly <= 0 (x > 0).

    Uses the recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s to
    reach the regularized scipy implementation, which needs s > 0.
    """
    x = np.asarray(x, dtype=float)
    if s > 0:
        return _gamma(s) * _gammaincc(s, x)
    return (upper_gamma(s + 1.0, x) - x ** s * np.exp(-x)) / s


def _quad(f, a, b, **kw):
    val, _ = _sint.quad(f, a, b, limit=400, **kw)
    return val


SMALL_CF_RTOL = 1e-10
# Terms m = 1..12 of the cosine and sine series; at |c y| <= 1 the first
# omitted term is below 1e-25 of the leading one.
_M = np.arange(1, 13)
_EVEN, _ODD, _SIGN = 2.0 * _M, 2.0 * _M + 1.0, (-1.0) ** _M
_FACT_EVEN = np.array([math.factorial(2 * m) for m in _M], dtype=float)
_FACT_ODD = np.array([math.factorial(2 * m + 1) for m in _M], dtype=float)


def _quad_checked(f, a, b):
    """``quad`` of a one-signed integrand to ``SMALL_CF_RTOL``, or ``ArithmeticError``."""
    val, err, *_ = _sint.quad(f, a, b, limit=400, epsabs=0.0,
                              epsrel=SMALL_CF_RTOL / 100, full_output=1)
    if not err <= SMALL_CF_RTOL * abs(val):
        raise ArithmeticError(f"quad on ({a:g}, {b:g}] reached error {err:.3g} "
                              f"on a value of {val:.6g}")
    return val


def _reciprocal(u: np.ndarray) -> np.ndarray:
    """``1/u`` elementwise for u >= 0; ``inf`` where it overflows (and at 0)."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / u


class JumpKernel:
    """Interface shared by all jump kernels."""

    symmetric: bool = False

    # --- densities -----------------------------------------------------
    def density(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # --- scalar integrals ----------------------------------------------
    def quad_mass(self) -> float:
        """``int (1 ^ y^2) k(dy)`` — the jump part of the control measure."""
        return self.second_moment_below(1.0) + self.tail_mass(1.0)

    def tail_mass(self, c: float) -> float:
        """``k({|y| > c})`` for c > 0."""
        pos, neg = self.tail_masses(c)
        return pos + neg

    def tail_masses(self, c: float) -> tuple[float, float]:
        """Masses of the positive and negative tails beyond ``c``."""
        raise NotImplementedError

    def second_moment_below(self, c: float) -> float:
        """``int_{|y| <= c} y^2 k(dy)``."""
        raise NotImplementedError

    def annulus_first_moment(self, r1: float, r2: float) -> float:
        """``int_{r1 < |y| <= r2} y k(dy)`` (signed), 0 < r1 < r2 <= inf."""
        raise NotImplementedError

    def compact_moment(self, u) -> np.ndarray:
        """``int (1 ^ |u y|^2) k(dy)``, vectorized over u."""
        u = np.abs(np.asarray(u, dtype=float))
        out = np.empty_like(u)
        inv = _reciprocal(u)
        for i, ui in np.ndenumerate(u):
            if ui == 0.0:
                out[i] = 0.0
            else:
                r = inv[i]
                out[i] = ui * ui * self.second_moment_below(r) + self.tail_mass(r)
        return out if out.shape else float(out)

    def indicator_moment_diff(self, v) -> np.ndarray:
        """``int y (1{|v y| <= 1} - 1{|y| <= 1}) k(dy)``, vectorized over v.

        Always finite: the two indicators differ only on an annulus bounded
        away from the origin.
        """
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        inv = _reciprocal(np.abs(v))
        for i, vi in np.ndenumerate(v):
            a = abs(vi)
            if a == 0.0 or a == 1.0:
                out[i] = 0.0
            elif a < 1.0:
                out[i] = self.annulus_first_moment(1.0, inv[i])
            else:
                out[i] = -self.annulus_first_moment(inv[i], 1.0)
        return out if out.shape else float(out)

    # --- characteristic-function integrand ------------------------------
    def cf_integrand(self, c, eps: float = 0.0) -> np.ndarray:
        """``int_{|y| > eps} (e^{i c y} - 1 - i c y 1{|y| <= 1}) k(dy)``.

        The ``eps`` truncation matches the sampler's small-jump cut, so the
        truncation bias of a simulated field is this quantity at eps > 0
        versus eps = 0.
        """
        raise NotImplementedError

    def laplace_integrand(self, u) -> np.ndarray:
        """``int (e^{-u y} - 1 + u y 1{|y| <= 1}) k(dy)`` for u >= 0.

        Finite only when the negative tail is light; kernels raise otherwise.
        """
        raise NotImplementedError

    # --- drift correction -------------------------------------------------
    def truncation_drift(self, v) -> np.ndarray:
        """``G(v) = int (tau(v y) - v tau(y)) k(dy)`` with ``tau(y) = y ^ sgn(y)``.

        Odd in v, and identically zero for symmetric kernels.  Finite for every
        Levy kernel: the indicator mismatch lives on an annulus away from 0.
        """
        v = np.asarray(v, dtype=float)
        scalar = v.ndim == 0
        v = np.atleast_1d(v)
        out = np.zeros_like(v) if self.symmetric else self._truncation_drift(v)
        return float(out[0]) if scalar else out

    def _truncation_drift(self, v: np.ndarray) -> np.ndarray:
        """``G`` of an asymmetric kernel on an array of at least one dimension."""
        out = v * self.indicator_moment_diff(v)
        tp1, tn1 = self.tail_masses(1.0)
        inv = _reciprocal(np.abs(v))
        for i, vi in np.ndenumerate(v):
            if vi != 0.0:
                tp, tn = self.tail_masses(inv[i])
                out[i] += np.sign(vi) * (tp - tn) - vi * (tp1 - tn1)
        return out

    def drift_sup(self, a0: np.ndarray, mod: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``sup_{0 <= v <= u} |a0 v + mod G(v)|`` elementwise over 1-d arrays.

        Generic route: the maximum over a dyadic grid of [0, u], refined until
        successive levels agree to ``SUP_TOL``.
        """
        out = np.zeros_like(u)
        for start in range(0, u.size, 256):
            sl = slice(start, start + 256)
            prev = None
            cur = np.zeros(u[sl].shape)
            for m in range(4, SUP_MAX_LEVEL + 1):
                c = np.linspace(0.0, 1.0, 2 ** m + 1)[1:]
                v = u[sl, None] * c[None, :]
                g = np.asarray(self.truncation_drift(v.ravel())).reshape(v.shape)
                cur = np.abs(a0[sl, None] * v + mod[sl, None] * g).max(axis=1)
                if prev is not None and np.all(np.abs(cur - prev) <= SUP_TOL * (1.0 + cur)):
                    break
                prev = cur
            out[sl] = cur
        return out

    def abs_annulus_first_moment(self, c) -> np.ndarray:
        """``int_{1 < |y| <= c} |y| k(dy)`` for an array of cutoffs c >= 1."""
        c = np.asarray(c, dtype=float)
        out = np.zeros(c.shape)
        live = c > 1.0
        if live.any():
            out[live] = self._abs_annulus_first_moment(c[live])
        return out

    def _abs_annulus_first_moment(self, c: np.ndarray) -> np.ndarray:
        """``abs_annulus_first_moment`` on a 1-d array of cutoffs c > 1."""
        out = np.empty(c.shape)
        for i, ci in enumerate(c):
            ci = float(ci)
            tail_int, _ = _sint.quad(lambda s: float(self.tail_mass(s)), 1.0, ci, limit=200)
            out[i] = float(self.tail_mass(1.0)) - ci * float(self.tail_mass(ci)) + tail_int
        return out

    # --- sampling --------------------------------------------------------
    def sample_tail(self, rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
        """Draw n sizes from the kernel conditioned on ``|y| > eps``."""
        raise NotImplementedError

    # --- structure -------------------------------------------------------
    def scale_image(self, c: float) -> "JumpKernel":
        """Pushforward of the kernel under ``y -> c y`` (c != 0)."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


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
        if c == 0.0:
            return (math.inf if self.p else 0.0), (math.inf if self.q else 0.0)
        t = self.scale * c ** (-self.alpha)
        return self.p * t, self.q * t

    def second_moment_below(self, c):
        a = self.alpha
        return self.scale * a / (2.0 - a) * c ** (2.0 - a)

    def annulus_first_moment(self, r1, r2):
        a, b = self.alpha, self.beta
        if b == 0.0:
            return 0.0
        if a == 1.0:  # unreachable: alpha = 1 forces symmetry
            return self.scale * b * math.log(r2 / r1)
        if np.isinf(r2):
            if a <= 1.0:
                raise ValueError("first tail moment diverges for alpha <= 1")
            r2_term = 0.0
        else:
            r2_term = r2 ** (1.0 - a)
        return self.scale * b * a / (1.0 - a) * (r2_term - r1 ** (1.0 - a))

    def compact_moment(self, u):
        u = np.abs(np.asarray(u, dtype=float))
        val = self.scale * 2.0 / (2.0 - self.alpha) * u ** self.alpha
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

    def laplace_integrand(self, u):
        if self.q != 0.0:
            raise ValueError("Laplace integrand diverges: kernel has negative jumps")
        u = np.asarray(u, dtype=float)
        a, s = self.alpha, self.scale * self.p
        if a == 1.0:
            raise ValueError("alpha = 1 one-sided Laplace form not supported")
        if a > 1.0:
            val = s * (a * _gamma(-a) * u ** a - u * a / (a - 1.0))
        else:
            val = s * (-_gamma(1.0 - a) * u ** a + u * a / (1.0 - a))
        return val if val.shape else float(val)

    def _truncation_drift(self, v):
        a = self.alpha
        mag = np.abs(v)
        return self.scale * self.beta / (1.0 - a) * np.sign(v) * (mag ** a - mag)

    def drift_sup(self, a0, mod, u):
        """Exact sup of |A v + B v^alpha| on [0, u]: endpoint or stationary point."""
        a = self.alpha
        b_coef = mod * self.scale * self.beta / (1.0 - a) if a != 1.0 else np.zeros_like(mod)
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
        u = rng.random(n)
        if self.symmetric:
            w = 2.0 * u - 1.0
            mag = eps * np.abs(w) ** (-1.0 / self.alpha)
            return np.copysign(mag, w)
        w = u - self.p
        v = np.abs(w) * np.where(w < 0.0, 1.0 / self.p, 1.0 / self.q)
        np.clip(v, np.finfo(float).tiny, 1.0, out=v)
        mag = eps * v ** (-1.0 / self.alpha)
        return np.copysign(mag, -w)

    def scale_image(self, c):
        if c == 0.0:
            raise ValueError("cannot push a kernel forward by 0")
        p, q = (self.p, self.q) if c > 0 else (self.q, self.p)
        return StableKernel(self.alpha, p, q, self.scale * abs(c) ** self.alpha)

    def to_config(self):
        cfg = {"kind": "stable", "alpha": self.alpha, "p": self.p, "q": self.q}
        if self.scale != 1.0:
            cfg["scale"] = self.scale
        return cfg


# --------------------------------------------------------------------------
# Jump-size distributions for the compound-Poisson kernel
# --------------------------------------------------------------------------

class JumpSizeDistribution:
    """Proper probability law of a single jump (no mass at 0)."""

    symmetric: bool = False

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, y: float) -> float:
        """Lebesgue density at a point; laws with atoms have none."""
        raise NotImplementedError

    def prob_tails(self, c: float) -> tuple[float, float]:
        """(P(Y > c), P(Y < -c))."""
        raise NotImplementedError

    def mean_annulus(self, r1: float, r2: float) -> float:
        """``E[Y; r1 < |Y| <= r2]``."""
        raise NotImplementedError

    def second_moment_below(self, c: float) -> float:
        """``E[Y^2; |Y| <= c]``."""
        raise NotImplementedError

    def char_fn(self, c) -> np.ndarray:
        raise NotImplementedError

    def char_fn_tail(self, c, eps: float) -> np.ndarray:
        """``E[e^{icY} 1{|Y| > eps}]``, by quadrature against ``pdf``."""
        out = np.empty(np.shape(c), dtype=complex)
        for i, ci in np.ndenumerate(np.atleast_1d(c)):
            re = _quad(lambda y: np.cos(ci * y) * self.pdf(y), eps, np.inf) \
                + _quad(lambda y: np.cos(ci * y) * self.pdf(y), -np.inf, -eps)
            im = _quad(lambda y: np.sin(ci * y) * self.pdf(y), eps, np.inf) \
                + _quad(lambda y: np.sin(ci * y) * self.pdf(y), -np.inf, -eps)
            val = re + 1j * im
            if out.shape:
                out[i] = val
            else:
                return val
        return out

    def mgf_neg(self, u) -> np.ndarray:
        """``E[e^{-u Y}]`` for u >= 0."""
        raise NotImplementedError

    def scale_image(self, c: float) -> "JumpSizeDistribution":
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    def sample_tail(self, rng, n, eps):
        """Rejection sampling of Y given |Y| > eps."""
        acc = sum(self.prob_tails(eps))
        if acc <= 0.0:
            raise ValueError(f"jump distribution has no mass beyond {eps}")
        out = np.empty(0)
        while out.size < n:
            block = self.sample(rng, max(64, int(1.3 * (n - out.size) / acc)))
            out = np.concatenate([out, block[np.abs(block) > eps]])
        return out[:n]


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
        pairs = dict(zip(self.values, self.probs))
        return all(pairs.get(-v) == p for v, p in pairs.items())

    def _arr(self):
        return np.asarray(self.values), np.asarray(self.probs)

    def sample(self, rng, n):
        v, p = self._arr()
        return rng.choice(v, size=n, p=p)

    def prob_tails(self, c):
        v, p = self._arr()
        return float(p[v > c].sum()), float(p[v < -c].sum())

    def mean_annulus(self, r1, r2):
        v, p = self._arr()
        m = (np.abs(v) > r1) & (np.abs(v) <= r2)
        return float((v * p)[m].sum())

    def second_moment_below(self, c):
        v, p = self._arr()
        m = np.abs(v) <= c
        return float((v * v * p)[m].sum())

    def char_fn(self, c):
        v, p = self._arr()
        c = np.asarray(c, dtype=float)
        return np.exp(1j * np.multiply.outer(c, v)) @ p

    def char_fn_tail(self, c, eps):
        v, p = self._arr()
        m = np.abs(v) > eps
        return np.exp(1j * np.multiply.outer(c, v[m])) @ p[m]

    def mgf_neg(self, u):
        v, p = self._arr()
        u = np.asarray(u, dtype=float)
        return np.exp(np.multiply.outer(-u, v)) @ p

    def sample_tail(self, rng, n, eps):
        v, p = self._arr()
        m = np.abs(v) > eps
        if not m.any():
            raise ValueError(f"jump distribution has no mass beyond {eps}")
        return rng.choice(v[m], size=n, p=p[m] / p[m].sum())

    def scale_image(self, c):
        return DiscreteJumps(tuple(c * x for x in self.values), self.probs)

    def to_config(self):
        return {"kind": "discrete", "values": list(self.values), "probs": list(self.probs)}


def _z_pdf(z):
    """``z * phi(z)`` for the standard normal density, 0 at infinite ``z``."""
    return z * _norm.pdf(z) if math.isfinite(z) else 0.0


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
        return _norm(self.mu, self.sigma).pdf(y)

    def prob_tails(self, c):
        d = _norm(self.mu, self.sigma)
        return float(d.sf(c)), float(d.cdf(-c))

    def _partial_mean(self, a, b):
        # E[Y; a < Y <= b] for a normal, via the standard truncated identities.
        za, zb = (a - self.mu) / self.sigma, (b - self.mu) / self.sigma
        return self.mu * (_norm.cdf(zb) - _norm.cdf(za)) - self.sigma * (
            _norm.pdf(zb) - _norm.pdf(za))

    def mean_annulus(self, r1, r2):
        return self._partial_mean(r1, r2) + self._partial_mean(-r2, -r1)

    def second_moment_below(self, c):
        # E[Y^2; -c < Y <= c] from the second truncated moment.
        za, zb = (-c - self.mu) / self.sigma, (c - self.mu) / self.sigma
        dphi = _norm.pdf(zb) - _norm.pdf(za)
        dPhi = _norm.cdf(zb) - _norm.cdf(za)
        zphi = _z_pdf(zb) - _z_pdf(za)
        return ((self.mu ** 2 + self.sigma ** 2) * dPhi
                - 2.0 * self.mu * self.sigma * dphi - self.sigma ** 2 * zphi)

    def char_fn(self, c):
        c = np.asarray(c, dtype=float)
        return np.exp(1j * c * self.mu - 0.5 * (self.sigma * c) ** 2)

    def mgf_neg(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(-u * self.mu + 0.5 * (self.sigma * u) ** 2)

    def scale_image(self, c):
        return NormalJumps(c * self.mu, abs(c) * self.sigma)

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
        return (1.0 / self._len()) * float(self.a <= y <= self.b)

    def prob_tails(self, c):
        pos = max(0.0, self.b - max(self.a, c)) / self._len()
        neg = max(0.0, min(self.b, -c) - self.a) / self._len()
        return pos, neg

    def _mean_piece(self, lo, hi):
        lo, hi = max(self.a, lo), min(self.b, hi)
        if lo >= hi:
            return 0.0
        return 0.5 * (hi * hi - lo * lo) / self._len()

    def mean_annulus(self, r1, r2):
        return self._mean_piece(r1, r2) + self._mean_piece(-r2, -r1)

    def _m2_piece(self, lo, hi):
        lo, hi = max(self.a, lo), min(self.b, hi)
        if lo >= hi:
            return 0.0
        return (hi ** 3 - lo ** 3) / (3.0 * self._len())

    def second_moment_below(self, c):
        return self._m2_piece(-c, c)

    def char_fn(self, c):
        c = np.asarray(c, dtype=float)
        flat = np.atleast_1d(c)
        res = np.where(
            flat == 0.0, 1.0 + 0.0j,
            (np.exp(1j * flat * self.b) - np.exp(1j * flat * self.a))
            / np.where(flat == 0.0, 1.0, 1j * flat * self._len()))
        return res.reshape(np.shape(c)) if np.ndim(c) else complex(res[0])

    def mgf_neg(self, u):
        u = np.asarray(u, dtype=float)
        res = np.where(
            u == 0.0, 1.0,
            (np.exp(-u * self.a) - np.exp(-u * self.b)) / np.where(u == 0.0, 1.0, u * self._len()))
        return res if res.shape else float(res)

    def scale_image(self, c):
        lo, hi = sorted((c * self.a, c * self.b))
        return UniformJumps(lo, hi)

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

    @property
    def total_mass(self) -> float:
        return self.rate

    def density(self, y):
        raise NotImplementedError("compound-Poisson kernels may carry atoms; no density")

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
            val = self.rate * (self.jumps.char_fn(c) - 1.0) \
                - 1j * c * self.rate * self.jumps.mean_annulus(0.0, 1.0)
        else:
            # drop jumps of size <= eps entirely
            phi_tail = self.jumps.char_fn_tail(c, eps)
            p_tail = sum(self.jumps.prob_tails(eps))
            val = self.rate * (phi_tail - p_tail) \
                - 1j * c * self.rate * self.jumps.mean_annulus(eps, 1.0)
        return val if np.ndim(c) else complex(val)

    def laplace_integrand(self, u):
        u = np.asarray(u, dtype=float)
        val = self.rate * (self.jumps.mgf_neg(u) - 1.0) \
            + u * self.rate * self.jumps.mean_annulus(0.0, 1.0)
        return val if val.shape else float(val)

    # Discrete jumps: exact sums over the atoms; other laws use the generic routes.
    def compact_moment(self, u):
        if not isinstance(self.jumps, DiscreteJumps):
            return super().compact_moment(u)
        u = np.asarray(u, dtype=float)
        sizes, probs = self.jumps._arr()
        val = self.rate * (np.minimum(1.0, np.multiply.outer(u, sizes) ** 2) @ probs)
        return val if val.shape else float(val)

    def _truncation_drift(self, v):
        if not isinstance(self.jumps, DiscreteJumps):
            return super()._truncation_drift(v)
        sizes, probs = self.jumps._arr()
        prod = v[:, None] * sizes[None, :]
        gap = np.clip(prod, -1.0, 1.0) - v[:, None] * np.clip(sizes, -1.0, 1.0)[None, :]
        return self.rate * gap @ probs

    def drift_sup(self, a0, mod, u):
        """Discrete jumps: G is linear between the breakpoints ``1/|size|``."""
        if not isinstance(self.jumps, DiscreteJumps):
            return super().drift_sup(a0, mod, u)
        sizes, _ = self.jumps._arr()
        breaks = np.unique(1.0 / np.abs(sizes[sizes != 0.0]))
        cand = np.minimum(np.concatenate([breaks, [np.inf]])[None, :], u[:, None])
        g = np.asarray(self.truncation_drift(cand.ravel())).reshape(cand.shape)
        return np.abs(a0[:, None] * cand + mod[:, None] * g).max(axis=1)

    def _abs_annulus_first_moment(self, c):
        if not isinstance(self.jumps, DiscreteJumps):
            return super()._abs_annulus_first_moment(c)
        sizes, probs = self.jumps._arr()
        v = np.abs(sizes)
        sel = (v[None, :] > 1.0) & (v[None, :] <= c[:, None])
        return self.rate * (sel * (v * probs)[None, :]).sum(axis=1)

    def sample_tail(self, rng, n, eps):
        return self.jumps.sample_tail(rng, n, eps)

    def scale_image(self, c):
        return CompoundPoissonKernel(self.rate, self.jumps.scale_image(c))

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
        if c == 0.0:
            return math.inf, math.inf
        a, th = self.alpha, self.cutoff
        t = self.scale * 0.5 * a * th ** a * float(upper_gamma(-a, th * c))
        return t, t

    def second_moment_below(self, c):
        a, th = self.alpha, self.cutoff
        # int_0^c y^{1-alpha} e^{-th y} dy, two sides
        low = _gamma(2.0 - a) * _gammainc(2.0 - a, th * c)
        return self.scale * a * th ** (a - 2.0) * float(low)

    def annulus_first_moment(self, r1, r2):
        return 0.0  # symmetric

    def compact_moment(self, u):
        u = np.abs(np.asarray(u, dtype=float))
        safe = np.where(u > 0, u, 1.0)
        r = _reciprocal(safe)
        a, th = self.alpha, self.cutoff
        small = self.scale * a * th ** (a - 2.0) * _gamma(2.0 - a) * _gammainc(2.0 - a, th * r)
        tail = self.scale * a * th ** a * upper_gamma(-a, th * r)
        val = np.where(u > 0, safe * safe * small + tail, 0.0)
        return val if val.shape else float(val)

    def cf_integrand(self, c, eps: float = 0.0):
        c_arr = np.atleast_1d(np.asarray(c, dtype=float))
        a, th = self.alpha, self.cutoff
        out = np.empty(c_arr.shape, dtype=complex)
        for i, ci in enumerate(c_arr):
            f = lambda y: (np.cos(ci * y) - 1.0) * a * y ** (-a - 1.0) * np.exp(-th * y)
            v = _quad(f, max(eps, 0.0), 1.0) if eps < 1.0 else 0.0
            v += _quad(f, max(eps, 1.0), np.inf)
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

    def scale_image(self, c):
        ac = abs(c)
        return TemperedStableKernel(self.alpha, self.cutoff / ac,
                                    self.scale * ac ** self.alpha)

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
        for a, b in zip(grid[:-1], grid[1:]):
            if a < 0 < b:
                raise ValueError("a segment may not straddle 0; add a grid point at 0")
        self.grid = grid
        self.values = values
        self._seg_mass = self._segment_integrals(lambda y: np.ones_like(y))
        if not np.all(np.isfinite(self._seg_mass)):
            raise ValueError("tabulated kernel has non-integrable segments")

    symmetric = False

    def _segment_integrals(self, f, order: int = 16):
        """Integral of f * density per segment with Gauss-Legendre of ``order``."""
        nodes, weights = _rule(order)
        a, b = self.grid[:-1], self.grid[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ys = mid[:, None] + half[:, None] * nodes[None, :]
        dens = self._interp(ys)
        return (f(ys) * dens * weights[None, :]).sum(axis=1) * half

    def _interp(self, y):
        return np.interp(y, self.grid, self.values, left=0.0, right=0.0)

    def density(self, y):
        return self._interp(np.asarray(y, dtype=float))

    def tail_masses(self, c):
        pos = float(self._segment_integrals(lambda y: (y > c).astype(float)).sum())
        neg = float(self._segment_integrals(lambda y: (y < -c).astype(float)).sum())
        return pos, neg

    def second_moment_below(self, c):
        return float(self._segment_integrals(
            lambda y: y * y * (np.abs(y) <= c)).sum())

    def annulus_first_moment(self, r1, r2):
        hi = np.inf if not np.isfinite(r2) else r2
        return float(self._segment_integrals(
            lambda y: y * ((np.abs(y) > r1) & (np.abs(y) <= hi))).sum())

    def cf_integrand(self, c, eps: float = 0.0):
        c_arr = np.atleast_1d(np.asarray(c, dtype=float))
        out = np.empty(c_arr.shape, dtype=complex)
        for i, ci in enumerate(c_arr):
            def f(y):
                keep = np.abs(y) > eps
                return keep * (np.exp(1j * ci * y) - 1.0 - 1j * ci * y * (np.abs(y) <= 1.0))
            out[i] = self._segment_integrals(f, 32).sum()
        return out if np.ndim(c) else complex(out[0])

    def sample_tail(self, rng, n, eps):
        masses = self._segment_integrals(
            lambda y: (np.abs(y) > eps).astype(float))
        total = masses.sum()
        if total <= 0:
            raise ValueError(f"no tabulated mass beyond {eps}")
        seg = rng.choice(masses.size, size=n, p=masses / total)
        # within a segment, draw by rejection against the max of the density
        lo = np.maximum(self.grid[:-1][seg], np.where(self.grid[:-1][seg] >= 0, eps, -np.inf))
        hi = np.minimum(self.grid[1:][seg], np.where(self.grid[1:][seg] <= 0, -eps, np.inf))
        lo = np.where(np.abs(lo) < eps, np.copysign(eps, hi), lo)
        hi = np.where(np.abs(hi) < eps, np.copysign(eps, lo), hi)
        out = np.empty(n)
        cap = np.maximum(self._interp(self.grid[:-1]), self._interp(self.grid[1:]))
        todo = np.arange(n)
        while todo.size:
            y = rng.uniform(lo[todo], hi[todo])
            acc = rng.random(todo.size) * cap[seg[todo]] < self._interp(y)
            out[todo[acc]] = y[acc]
            todo = todo[~acc]
        return out

    def scale_image(self, c):
        if c == 0.0:
            raise ValueError("cannot push a kernel forward by 0")
        g = self.grid * c
        v = self.values / abs(c)
        if c < 0:
            g, v = g[::-1], v[::-1]
        return TabulatedKernel(g, v)

    def to_config(self):
        return {"kind": "tabulated", "grid": self.grid.tolist(),
                "values": self.values.tolist()}

    def __eq__(self, other):
        return (isinstance(other, TabulatedKernel)
                and np.array_equal(self.grid, other.grid)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((tuple(self.grid), tuple(self.values)))


def jump_distribution_from_config(cfg: dict) -> JumpSizeDistribution:
    kind = cfg.get("kind")
    body = {k: v for k, v in cfg.items() if k != "kind"}
    if kind == "discrete":
        return DiscreteJumps(tuple(body["values"]), tuple(body["probs"]))
    if kind == "normal":
        return NormalJumps(**body)
    if kind == "uniform":
        return UniformJumps(**body)
    raise ValueError(f"unknown jump distribution kind: {kind!r}")


def kernel_from_config(cfg: dict) -> JumpKernel:
    """Inverse of ``JumpKernel.to_config`` (used by the config layer)."""
    kind = cfg.get("kind")
    body = {k: v for k, v in cfg.items() if k != "kind"}
    if kind == "stable":
        return StableKernel(**body)
    if kind == "compound-poisson":
        dist = jump_distribution_from_config(body.pop("jumps"))
        return CompoundPoissonKernel(jumps=dist, **body)
    if kind == "tempered-stable":
        return TemperedStableKernel(**body)
    if kind == "tabulated":
        return TabulatedKernel(cfg["grid"], cfg["values"])
    raise ValueError(f"unknown kernel kind: {kind!r}")
