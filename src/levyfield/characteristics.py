"""Characteristics of a time-homogeneous measure-valued Levy noise.

The noise is described by a triple (gamma, Sigma, nu) over a spatial domain:

* ``gamma`` — a signed drift measure: Lebesgue density plus finitely many
  signed atoms,
* ``Sigma`` — a nonnegative diffusion measure of the same shape,
* ``nu``   — a jump intensity ``m(x) dx (x) kernel(dy)``: a spatially
  modulated one-dimensional jump kernel.

Set evaluations of the noise at time t are infinitely divisible with triple
``(t gamma(A), t Sigma(A), t nu(A, .))``.  The module computes the control
measure and the Levy symbol of set/function evaluations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .funcs import effective_domain
from .kernels import JumpKernel
from .quadrature import region_integral
from .regions import Region


class DivergentControlMeasureError(ArithmeticError):
    """The control measure of the requested region is not finite."""


class SymbolDivergentError(ArithmeticError):
    """The jump integral of a Levy symbol failed to converge absolutely."""


@dataclass(frozen=True)
class Atom:
    point: tuple[float, ...]
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(float(c) for c in self.point))
        object.__setattr__(self, "weight", float(self.weight))
        if not all(np.isfinite(self.point)) or not np.isfinite(self.weight):
            raise ValueError("atom point and weight must be finite")


class Density:
    """Spatial density: a nonnegative-or-signed constant or a callable on (n, d)."""

    def __init__(self, value: float | Callable):
        if callable(value):
            self.fn = value
            self.const = None
        else:
            self.const = float(value)
            self.fn = None

    @property
    def is_constant(self) -> bool:
        return self.const is not None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.is_constant:
            return np.full(x.shape[0], self.const)
        return np.asarray(self.fn(x), dtype=float).reshape(x.shape[0])

    def at(self, x: np.ndarray):
        """The density at the (n, d) points ``x``; a constant density as the float itself."""
        return self.const if self.is_constant else self(x)

    def integral(self, region: Region, g=None):
        """``(int_region g density dx, quadrature error)``, one per row of a k-row ``g``
        (shape (k, n)); ``g=None`` stands for 1."""
        if g is None and self.is_constant:
            return self.const * region.volume, 0.0
        return region_integral(self if g is None else (lambda p: g(p) * self.at(p)), region)

    def to_config(self):
        if not self.is_constant:
            raise ValueError("callable densities are code-only; cannot serialize")
        return self.const


def _as_density(value) -> Density:
    return value if isinstance(value, Density) else Density(value)


@dataclass(frozen=True)
class DriftComponent:
    """Signed measure: density + atoms."""

    density: Density = field(default_factory=lambda: Density(0.0))
    atoms: tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "density", _as_density(self.density))
        merged: dict[tuple[float, ...], float] = {}
        for a in self.atoms:  # one atom per point, so |w| sums to the total variation
            merged[a.point] = merged.get(a.point, 0.0) + a.weight
        object.__setattr__(self, "atoms", tuple(Atom(p, w) for p, w in merged.items()))

    def atom_sum(self, g=None, region: Region | None = None, *,
                 absolute: bool = False) -> float:
        """``sum g(p) w`` over the atoms in the region (all atoms when None).

        ``g=None`` stands for 1; ``absolute`` uses ``|w|`` in place of ``w``.
        """
        if not self.atoms:
            return 0.0
        pts = np.array([a.point for a in self.atoms])
        w = np.array([a.weight for a in self.atoms])
        if region is not None:
            inside = region.contains(pts)
            pts, w = pts[inside], w[inside]
        if absolute:
            w = np.abs(w)
        if g is not None and w.size:
            w = np.asarray(g(pts), dtype=float).reshape(w.size) * w
        return float(w.sum())

    def integral(self, region: Region, g=None) -> tuple[float, float]:
        """``(int_region g d mu, quadrature error)``, density part first, then atoms.

        ``g=None`` integrates 1 (the measure of the region).
        """
        val, err = self.density.integral(region, g)
        return val + self.atom_sum(g, region), err


@dataclass(frozen=True)
class DiffusionComponent(DriftComponent):
    """Nonnegative measure: density + atoms with weights >= 0."""

    def __post_init__(self):
        super().__post_init__()
        if any(a.weight < 0 for a in self.atoms):
            raise ValueError("diffusion atoms must have nonnegative weights")
        if self.density.is_constant and self.density.const < 0:
            raise ValueError("diffusion density must be nonnegative")


@dataclass(frozen=True)
class JumpComponent:
    """Jump intensity ``modulation(x) dx (x) kernel(dy)``."""

    kernel: JumpKernel
    modulation: Density = field(default_factory=lambda: Density(1.0))

    def __post_init__(self):
        object.__setattr__(self, "modulation", _as_density(self.modulation))
        if self.modulation.is_constant and self.modulation.const < 0:
            raise ValueError("jump modulation must be nonnegative")

    def spatial_mass(self, region: Region) -> tuple[float, float]:
        return self.modulation.integral(region)


@dataclass(frozen=True)
class ControlMeasureValue:
    """``int_A g d lambda`` and its quadrature error."""

    value: float
    error_bound: float = 0.0


@dataclass(frozen=True)
class LevySymbolValue:
    """Levy symbol of an integral evaluation, with tracked contributions.

    ``value = t * (i u drift_integral - u^2/2 gaussian_integral + jump_integral)``.
    """

    value: complex
    drift_integral: float
    gaussian_integral: float
    jump_integral: complex
    u: float
    t: float

    @property
    def cf(self) -> complex:
        """Characteristic-function value ``exp(value)``."""
        return complex(np.exp(self.value))


@dataclass(frozen=True)
class Characteristics:
    """The (gamma, Sigma, nu) triple over R^d."""

    dim: int
    gamma: DriftComponent | None = None
    sigma: DiffusionComponent | None = None
    nu: JumpComponent | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.gamma is None and self.sigma is None and self.nu is None:
            raise ValueError("at least one characteristic component is required")

    # --- densities -----------------------------------------------------
    def drift_density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.gamma is None:
            return np.zeros(x.shape[0])
        return self.gamma.density(x)

    def diffusion_density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.sigma is None:
            return np.zeros(x.shape[0])
        return self.sigma.density(x)

    def jump_modulation(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.nu is None:
            return np.zeros(x.shape[0])
        return self.nu.modulation(x)

    @functools.cached_property
    def control(self) -> DiffusionComponent:
        """The control measure ``lambda = |gamma| + Sigma + (int 1 ^ y^2 k(dy)) m(x) dx``.

        Its density is ``(|gamma| + Sigma) + quad_mass * m``, a constant when all
        three parts are; its atoms are gamma's ``|w|`` and Sigma's ``w``, merged by
        point.  Built once per triple (a frozen dataclass: its fields never change).
        """
        gamma = self.gamma if self.gamma is not None else DriftComponent()
        sigma = self.sigma if self.sigma is not None else DiffusionComponent()
        drift, diff = gamma.density, sigma.density
        mod, mass = ((self.nu.modulation, self.nu.kernel.quad_mass()) if self.nu is not None
                     else (Density(0.0), 0.0))
        if drift.is_constant and diff.is_constant and mod.is_constant:
            density = Density(abs(drift.const) + diff.const + mod.const * mass)
        else:
            density = Density(lambda x: np.abs(drift(x)) + diff(x) + mod(x) * mass)
        return DiffusionComponent(density, tuple(Atom(a.point, abs(a.weight))
                                                 for a in gamma.atoms) + sigma.atoms)

    def control_density(self, x: np.ndarray) -> np.ndarray:
        """Lebesgue density of the control measure (atoms excluded)."""
        return self.control.density(x)

    @property
    def atom_reach(self) -> float:
        """Largest sup-norm of a gamma or Sigma atom: walks over R^d stop only past it."""
        return max((abs(c) for comp in (self.gamma, self.sigma) if comp is not None
                    for a in comp.atoms for c in a.point), default=0.0)

    # --- measures ------------------------------------------------------
    def gamma_measure(self, region: Region) -> float:
        return 0.0 if self.gamma is None else self.gamma.integral(region)[0]

    def sigma_measure(self, region: Region) -> float:
        return 0.0 if self.sigma is None else self.sigma.integral(region)[0]

    def control_measure(self, region: Region, g=None) -> ControlMeasureValue:
        """``int_A g d lambda`` (g=None: 1): one integral against ``control``."""
        if region.dim != self.dim:
            raise ValueError("region dimension mismatch")
        try:
            value, err = self.control.integral(region, g)
        except ArithmeticError as exc:
            raise DivergentControlMeasureError(str(exc)) from exc
        if not np.isfinite(value):
            raise DivergentControlMeasureError("control measure is not finite on the region")
        return ControlMeasureValue(value, err)

    # --- symbols -------------------------------------------------------
    def levy_symbol(self, f, u: float, t: float = 1.0,
                    eps: float = 0.0) -> LevySymbolValue:
        """Levy symbol of ``int f dM(t, .)`` at frequency u.

        ``f`` is a simple function (terms of (coefficient, region)) or a test
        function with bounded support.  With ``eps > 0`` the jump integral is
        restricted to ``|y| > eps``, matching a truncated simulation.
        """
        u = float(u)
        t = float(t)
        drift = gauss = 0.0
        jump = 0.0 + 0.0j
        terms = getattr(f, "terms", None)
        if terms is not None:
            for coef, region in terms:
                drift += coef * self.gamma_measure(region)
                gauss += coef * coef * self.sigma_measure(region)
                if self.nu is not None and u != 0.0:
                    mass, _ = self.nu.spatial_mass(region)
                    jump += mass * self.nu.kernel.cf_integrand(u * coef, eps)
        else:
            support = effective_domain(f)
            if support is None or support.is_empty:
                raise ValueError(
                    "levy_symbol needs a simple function or a test function "
                    "with bounded support")
            if self.gamma is not None:
                drift += self.gamma.integral(support, f)[0]
            if self.sigma is not None:
                gauss += self.sigma.integral(support, lambda p: np.asarray(f(p)) ** 2)[0]
            if self.nu is not None and u != 0.0:
                kern, mod = self.nu.kernel, self.nu.modulation

                def cf(p):  # an asymmetric CF's two parts: two rows, one call per node
                    val = kern.cf_integrand(u * np.asarray(f(p)), eps)
                    return np.real(val) if kern.symmetric else np.stack([val.real, val.imag])

                rows = mod.integral(support, cf)
                jump += rows[0] if kern.symmetric else rows[0][0] + 1j * rows[1][0]
        if not (np.isfinite(drift) and np.isfinite(gauss)
                and np.isfinite(jump.real) and np.isfinite(jump.imag)):
            raise SymbolDivergentError("symbol integrals failed to converge")
        value = t * (1j * u * drift - 0.5 * u * u * gauss + jump)
        return LevySymbolValue(complex(value), drift, gauss, complex(jump), u, t)

    # --- serialization -------------------------------------------------
    def to_config(self) -> dict:
        def comp(c: DriftComponent | None):
            if c is None:
                return None
            out = {"density": c.density.to_config()}
            if c.atoms:
                out["atoms"] = [{"point": list(a.point), "weight": a.weight}
                                for a in c.atoms]
            return out

        cfg: dict = {"dimension": self.dim}
        if self.gamma is not None:
            cfg["gamma"] = comp(self.gamma)
        if self.sigma is not None:
            cfg["sigma"] = comp(self.sigma)
        if self.nu is not None:
            cfg["nu"] = {"kernel": self.nu.kernel.to_config(),
                         "modulation": self.nu.modulation.to_config()}
        return cfg
