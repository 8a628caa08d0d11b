"""Named characteristic triples used throughout the tests and the CLI.

Four families:

- ``gaussian-white-noise``: (0, leb, 0).
- ``balan-stable``: alpha-stable noise with tail weights (p, q); drift density
  ``beta*alpha/(1-alpha)`` with beta = p - q, zero Gaussian part.  alpha = 1
  forces p = q = 1/2 (and the singular drift coefficient vanishes with beta).
- ``mytnik-positive``: spectrally positive alpha-stable, alpha in (1, 2),
  normalized so the Laplace exponent of M(t, A) is ``t * u^alpha * leb(A)``,
  that is, its Levy symbol is ``t * (-iu)^alpha * leb(A)``.
- ``impulsive``: compound-Poisson impulses with a fully compensated symbol;
  the truncated-convention drift therefore carries ``-int_{|y|>1} y mu(dy)``.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristics import Characteristics, Density, DiffusionComponent, DriftComponent, JumpComponent
from .kernels import CompoundPoissonKernel, DiscreteJumps, JumpSizeDistribution, StableKernel

PRESET_NAMES = ("gaussian-white-noise", "balan-stable", "mytnik-positive", "impulsive")


def spectrally_positive_scale(alpha: float) -> float:
    """Kernel scale making the spectrally positive Laplace exponent exactly u^alpha,
    the Levy symbol ``(-iu)^alpha``."""
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    return -1.0 / math.gamma(1.0 - alpha)


def preset(name: str, **params) -> Characteristics:
    if name == "gaussian-white-noise":
        dim = int(params.pop("dim", 1))
        _reject_extras(name, params)
        return Characteristics(dim, sigma=DiffusionComponent(Density(1.0)))

    if name == "balan-stable":
        alpha = float(params.pop("alpha"))
        p = float(params.pop("p", 0.5))
        q = float(params.pop("q", 0.5))
        dim = int(params.pop("dim", 1))
        _reject_extras(name, params)
        kernel = StableKernel(alpha, p, q)
        gamma = None
        if alpha != 1.0 and p != q:
            beta = p - q
            gamma = DriftComponent(Density(beta * alpha / (1.0 - alpha)))
        return Characteristics(dim, gamma=gamma, nu=JumpComponent(kernel))

    if name == "mytnik-positive":
        alpha = float(params.pop("alpha"))
        dim = int(params.pop("dim", 1))
        _reject_extras(name, params)
        s = spectrally_positive_scale(alpha)
        kernel = StableKernel(alpha, 1.0, 0.0, scale=s)
        gamma = DriftComponent(Density(-s * alpha / (alpha - 1.0)))
        return Characteristics(dim, gamma=gamma, nu=JumpComponent(kernel))

    if name == "impulsive":
        rate = float(params.pop("rate", 1.0))
        jumps = params.pop("jumps", None)
        zeta = params.pop("zeta", 1.0)
        dim = int(params.pop("dim", 1))
        _reject_extras(name, params)
        if jumps is None:
            jumps = DiscreteJumps((1.0, -1.0), (0.5, 0.5))
        elif isinstance(jumps, dict):
            from .config import jump_distribution_from_config  # config imports this module
            jumps = jump_distribution_from_config(jumps)
        elif not isinstance(jumps, JumpSizeDistribution):
            raise ValueError("jumps must be a distribution or a config mapping")
        kernel = CompoundPoissonKernel(rate, jumps)
        zeta_density = Density(zeta)
        tail_mean = kernel.annulus_first_moment(1.0, np.inf)
        gamma = None
        if tail_mean != 0.0:
            if zeta_density.is_constant:
                drift = Density(-tail_mean * zeta_density.const)
            else:
                drift = Density(lambda x: -tail_mean * zeta_density(x))
            gamma = DriftComponent(drift)
        return Characteristics(dim, gamma=gamma,
                               nu=JumpComponent(kernel, modulation=zeta_density))

    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


def _reject_extras(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"unexpected parameters for preset {name!r}: {sorted(params)}")
