"""Integrability and classification analytics built on the characteristics triple.

The central object is the pointwise modular

    Phi(u, x) = sup_{|c| <= 1} |U(c u, x)| + u^2 g(x) + int (1 ^ |u y|^2) rho(x, dy)

with densities taken against the control measure and the drift of ``v M`` under
the symbol's indicator truncation ``y 1{|y| <= 1}``, ``U(v, x) = gamma(x) v +
m(x) v int y (1{|v y| <= 1} - 1{|y| <= 1}) k(dy)``: pointwise the density of
the cylindrical drift a(f) at f(x) = v.  A function f is integrable against the
random measure exactly when ``int Phi(|f(x)|, x) lambda(dx)`` is finite, so
membership testing reduces to quadrature with divergence detection.
Internally everything is computed unnormalized (against Lebesgue), which avoids
dividing by the control density under the integral sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import Characteristics
from .funcs import PolynomialDecay, effective_domain
from .kernels import JumpKernel, NonConvergenceError
from .quadrature import last_rung, region_integrals, shell_region
from .regions import Region


class UndefinedDensityError(ValueError):
    """The control measure has no mass at the queried point."""


# --------------------------------------------------------------------------
# The modular
# --------------------------------------------------------------------------

def modular_integrand(chars: Characteristics, f):
    """Vectorized ``x -> Phi(|f(x)|, x) * control_density(x)``.

    Integrating this against Lebesgue gives the membership integral
    ``int Phi(|f|, x) lambda(dx)`` off the atoms (``modular_integrals`` adds them).
    The drift sup, ``u^2 Sigma`` and ``m(x) int (1 ^ |u y|^2) k(dy)`` are added in place
    in that order; constant densities enter as floats, and the term of an absent gamma
    or Sigma (0 where |f| is finite) is skipped: the full sum's bits where it is finite.
    """
    kern = chars.nu.kernel if chars.nu is not None else None

    def integrand(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u = np.abs(np.asarray(f(x), dtype=float))
        mod = chars.nu.modulation.at(x) if kern is not None else None
        terms = []
        if kern is not None and not kern.symmetric:
            a0 = chars.gamma.density.at(x) if chars.gamma is not None else 0.0
            rows, back = (np.unique(u, return_inverse=True) if np.ndim(a0) == np.ndim(mod) == 0
                          else (u, slice(None)))  # constants: one sup per distinct |f|
            terms.append(kern.drift_sup(*np.broadcast_arrays(a0, mod, rows))[back])
        elif chars.gamma is not None:
            terms.append(np.abs(chars.gamma.density.at(x)) * u)
        if chars.sigma is not None:
            terms.append(u * u * chars.sigma.density.at(x))
        if kern is not None:
            terms.append(mod * kern.compact_moment(u))
        out = terms[0]
        for term in terms[1:]:
            out += term
        return out

    return integrand


def modular_integrals(chars: Characteristics, f, regions) -> list[tuple[float, float]]:
    """Per region, ``(int_region Phi(|f|, x) lambda(dx), quadrature error)``: the
    quadrature of ``modular_integrand`` plus ``|f w_gamma| + f^2 w_sigma`` at each atom
    in the region.  The boxes of all the regions share each integrand call."""
    atoms = [0.0] * len(regions)
    for i, region in enumerate(regions):
        if chars.gamma is not None:
            atoms[i] += chars.gamma.atom_sum(lambda p: np.abs(f(p)), region, absolute=True)
        if chars.sigma is not None:
            atoms[i] += chars.sigma.atom_sum(lambda p: f(p) ** 2, region)
    quad = region_integrals(modular_integrand(chars, f), regions)
    return [(val + a, err) for (val, err), a in zip(quad, atoms)]


def phi_m(chars: Characteristics, u: float, x) -> float:
    """The modular ``Phi(u, x)`` with densities taken against the control measure."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape != (1, chars.dim):
        raise ValueError("x must be a single point of the right dimension")
    point = tuple(float(c) for c in x[0])
    wg = sum(a.weight for a in (chars.gamma.atoms if chars.gamma else ()) if a.point == point)
    ws = sum(a.weight for a in (chars.sigma.atoms if chars.sigma else ()) if a.point == point)
    mass = abs(wg) + ws
    if mass > 0.0:
        # At an atom the jump part carries no mass; only drift/Gaussian weights.
        return (abs(u * wg) + u * u * ws) / mass
    ell = float(chars.control_density(x)[0])
    if not np.isfinite(ell) or ell <= 0.0:
        raise UndefinedDensityError(f"control measure has no density at {point}")
    return float(modular_integrand(chars, lambda p: np.full(len(p), u))(x)[0]) / ell


# --------------------------------------------------------------------------
# Membership
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipResult:
    """Verdict of the membership integral, with the evidence that produced it."""

    verdict: str                      # member | non-member | indeterminate
    value: float | None = None        # the integral, when finite
    error: float | None = None
    shells: tuple[float, ...] = ()
    note: str = ""

    def __bool__(self) -> bool:
        return self.verdict == "member"


MAX_SHELLS = 48
MIN_SHELLS = 6
DECAY_RATIO = 0.98
GROWTH_RATIO = 1.02


def lm_membership(chars: Characteristics, f,
                  domain: Region | None = None) -> MembershipResult:
    """Decide whether ``int Phi(|f|, x) lambda(dx)`` over the domain is finite.

    ``domain=None`` means all of R^d; unbounded integrals are resolved shell by
    shell over dyadic sup-norm annuli, at most ``MAX_SHELLS``, declaring
    membership only when the shell ratios stay at most ``DECAY_RATIO`` (after
    ``MIN_SHELLS`` shells; the tail is then bounded by a geometric series) and
    non-membership only when they stay at least ``GROWTH_RATIO``.  Anything
    less clear-cut is reported as indeterminate, never silently as member.
    """
    if getattr(f, "dim", chars.dim) != chars.dim:
        raise ValueError("function dimension does not match characteristics")
    bounded = effective_domain(f, domain)
    if bounded is not None:
        if bounded.is_empty:
            return MembershipResult("member", 0.0, 0.0, note="empty effective domain")
        try:
            val, err = modular_integrals(chars, f, (bounded,))[0]
        except NonConvergenceError as exc:
            return MembershipResult("indeterminate", note=str(exc))
        except ArithmeticError:
            return MembershipResult("indeterminate", note="integrand not finite on the domain")
        if err > max(1e-6 * abs(val), 1e-8):
            return MembershipResult("indeterminate", note=(
                f"quadrature did not converge (value {val:.6g}, error {err:.3g})"))
        return MembershipResult("member", val, err)

    # Unbounded domain: the ladder of R^d; an atom counts in the rung holding it.
    # The core cube and shells 0 .. MIN_SHELLS - 1 are one batch; if it fails, they
    # are walked one rung at a time like every later shell, so the failing rung is named.
    def rung(k: int) -> tuple[float, float]:
        return first[k + 1] if k + 1 < len(first) else modular_integrals(
            chars, f, (shell_region(chars.dim, k),))[0]

    try:
        first = modular_integrals(chars, f, [shell_region(chars.dim, k)
                                             for k in range(-1, MIN_SHELLS)])
    except ArithmeticError:   # NonConvergenceError included
        first = []
    try:
        total, err = rung(-1)
    except ArithmeticError as exc:   # not finite, or NonConvergenceError
        return MembershipResult("indeterminate", note=f"core cube: {exc}")
    shells: list[float] = []
    ratios: list[float] = []
    atoms_end = last_rung(chars.atom_reach)
    for k in range(MAX_SHELLS):
        try:
            sk, e = rung(k)
            err += e
        except NonConvergenceError as exc:
            # an unsettled value is no evidence of divergence
            return MembershipResult("indeterminate", shells=tuple(shells),
                                    note=f"shell {k}: {exc}")
        except ArithmeticError:
            sk = np.inf
        shells.append(sk)
        if not np.isfinite(sk):
            if len(ratios) >= 2 and min(ratios[-2:]) > GROWTH_RATIO:
                return MembershipResult("non-member", shells=tuple(shells), note=(
                    f"integrand overflowed at shell {k} after geometric growth"))
            return MembershipResult("indeterminate", shells=tuple(shells),
                                    note=f"integrand not finite on shell {k}")
        if len(shells) >= 2:
            prev = shells[-2]
            ratios.append(sk / prev if prev > 0.0 else (np.inf if sk > 0.0 else 0.0))
        total += sk
        if k < atoms_end:
            continue  # no member verdict before the ladder has passed every atom
        if len(shells) >= 2 and max(shells[-2:]) <= 1e-12 * (1.0 + total):
            return MembershipResult("member", total, err + sk, tuple(shells),
                                    note="tail numerically zero")
        if len(ratios) >= 4:
            last = ratios[-4:]
            if max(last) <= DECAY_RATIO and k + 1 >= MIN_SHELLS:
                r = max(last)
                tail = sk * r / (1.0 - r)
                return MembershipResult("member", total + tail, err + tail,
                                        tuple(shells), note="geometric tail bound")
            if min(last) >= GROWTH_RATIO:
                return MembershipResult("non-member", shells=tuple(shells), note=(
                    f"shell integrals grow geometrically (last ratio {last[-1]:.3g})"))
    return MembershipResult("indeterminate", shells=tuple(shells),
                            note=f"no verdict after {MAX_SHELLS} shells")


# --------------------------------------------------------------------------
# Temperedness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TemperedResult:
    tempered: bool
    r: float | None
    membership: MembershipResult | None
    attempts: tuple[tuple[float, str], ...]
    note: str = ""


def tempered_test(chars: Characteristics, r_max: float = 64.0) -> TemperedResult:
    """Search ``r in {1/2, 1, 2, 4, ...}`` for ``(1 + |x|^2)^{-r}`` membership.

    A miss is reported as "not tempered up to r_max" — the bounded search can
    never prove non-temperedness.
    """
    attempts: list[tuple[float, str]] = []
    r = 0.5
    while r <= r_max:
        res = lm_membership(chars, PolynomialDecay(r, chars.dim))
        attempts.append((r, res.verdict))
        if res.verdict == "member":
            return TemperedResult(True, r, res, tuple(attempts))
        r *= 2.0
    return TemperedResult(False, None, None, tuple(attempts),
                          note=f"not tempered up to r_max={r_max:g}")


# --------------------------------------------------------------------------
# Stationarity
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StationarityResult:
    stationary: bool
    drift: float | None = None
    gaussian_variance: float | None = None
    modulation: float | None = None
    kernel: JumpKernel | None = None
    witness: tuple | None = None      # (point a, point b, component name)


def _probe_points(dim: int) -> np.ndarray:
    vals = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0] if dim <= 3 else [0.0, 1.0, -2.0]
    grids = np.meshgrid(*([np.asarray(vals)] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def stationarity_check(chars: Characteristics) -> StationarityResult:
    """Constant densities and no atoms <=> spatially homogeneous law."""
    for comp, name in ((chars.gamma, "gamma atom"), (chars.sigma, "sigma atom")):
        if comp is not None and comp.atoms:
            p = comp.atoms[0].point
            return StationarityResult(False, witness=(p, p, name))
    pts = _probe_points(chars.dim)
    fields = (("drift density", chars.drift_density),
              ("gaussian density", chars.diffusion_density),
              ("jump modulation", chars.jump_modulation))
    consts = []
    for name, fn in fields:
        vals = fn(pts)
        lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
        if vals[hi] - vals[lo] > 1e-9 * (1.0 + np.abs(vals).max()):
            return StationarityResult(
                False, witness=(tuple(pts[lo]), tuple(pts[hi]), name))
        consts.append(float(vals[0]))
    return StationarityResult(
        True, drift=consts[0], gaussian_variance=consts[1], modulation=consts[2],
        kernel=chars.nu.kernel if chars.nu is not None else None)


# --------------------------------------------------------------------------
# Besov classification
# --------------------------------------------------------------------------

def besov_classify(alpha: float, dim: int, p: float, tau: float,
                   rho_growth: float) -> str:
    """Weighted-Besov verdict for the stationary symmetric stable field.

    Inside iff tau < d(1/alpha - 1) and rho_growth < -d/(p ^ alpha), outside
    on a strict violation of either, boundary-indeterminate on equality.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if dim < 1 or int(dim) != dim:
        raise ValueError("dim must be a positive integer")
    if not (p == np.inf or 0.0 < p < 2.0 or (p > 0 and p == int(p) and int(p) % 2 == 0)):
        raise ValueError("p must lie in (0,2), be a positive even integer, or be inf")
    if not (np.isfinite(tau) and np.isfinite(rho_growth)):
        raise ValueError("tau and rho_growth must be finite")
    smooth_edge = dim * (1.0 / alpha - 1.0)
    weight_edge = -dim / min(p, alpha)
    if tau > smooth_edge or rho_growth > weight_edge:
        return "outside"
    if tau < smooth_edge and rho_growth < weight_edge:
        return "inside"
    return "boundary-indeterminate"
