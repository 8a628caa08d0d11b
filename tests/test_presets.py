"""Named characteristic triples and their normalizations."""

import math

import numpy as np
import pytest

from levyfield import IndicatorFunction, Region, preset
from levyfield.kernels import (CompoundPoissonKernel, DiscreteJumps,
                               StableKernel)
from levyfield.presets import PRESET_NAMES, spectrally_positive_scale

UNIT = Region.from_intervals([(0.0, 1.0)])


def test_preset_names_and_shapes():
    assert set(PRESET_NAMES) == {"gaussian-white-noise", "balan-stable",
                                 "mytnik-positive", "impulsive"}
    gw = preset("gaussian-white-noise")
    assert gw.nu is None and gw.gamma is None
    assert gw.sigma.density.const == 1.0
    bal = preset("balan-stable", alpha=1.5)
    assert bal.sigma is None and isinstance(bal.nu.kernel, StableKernel)
    assert bal.gamma is None  # symmetric: p == q kills the drift
    imp = preset("impulsive", rate=2.0)
    assert isinstance(imp.nu.kernel, CompoundPoissonKernel)
    assert imp.gamma is None  # +-1 jumps have zero tail mean


def test_presets_reject_unknown_parameters():
    for name, kw in (("balan-stable", {"alpha": 1.5, "frequency": 2}),
                     ("mytnik-positive", {"alpha": 1.5, "beta": 1}),
                     ("gaussian-white-noise", {"scale": 2.0}),
                     ("impulsive", {"rate": 1.0, "color": "red"})):
        with pytest.raises((TypeError, ValueError)):
            preset(name, **kw)
    with pytest.raises(ValueError):
        preset("ornstein-uhlenbeck")


def test_asymmetric_stable_drift_coefficient():
    chars = preset("balan-stable", alpha=1.5, p=0.8, q=0.2)
    beta = 0.8 - 0.2
    want = beta * 1.5 / (1.0 - 1.5)
    got = float(chars.drift_density(np.array([[0.0]]))[0])
    assert got == pytest.approx(want, rel=1e-14)


def test_mytnik_scale_gives_unit_laplace_exponent():
    chars = preset("mytnik-positive", alpha=1.5)
    s = spectrally_positive_scale(1.5)
    assert chars.nu.kernel.scale == pytest.approx(s, rel=1e-14)
    assert chars.nu.kernel.q == 0.0  # spectrally positive: no negative jumps
    # the normalization is the whole point: log E e^{-u M(1,[0,1])} = u^1.5,
    # so the symbol of M(t, A) is t leb(A) (-iu)^1.5
    for u in (0.5, 1.0, 2.0, -1.0):
        got = chars.levy_symbol(IndicatorFunction(UNIT), u).value
        assert got == pytest.approx((-1j * u) ** 1.5, rel=1e-9)
    two = Region.from_intervals([(0.0, 2.0)])
    got = chars.levy_symbol(IndicatorFunction(two), 1.0, t=3.0).value
    assert got == pytest.approx(6.0 * (-1j) ** 1.5, rel=1e-9)


def test_spectrally_positive_scale_domain():
    assert spectrally_positive_scale(1.5) == pytest.approx(
        -1.0 / math.gamma(-0.5), rel=1e-14)
    for bad in (0.5, 1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            spectrally_positive_scale(bad)


def test_impulsive_compensates_asymmetric_jumps():
    jumps = DiscreteJumps((2.0, -0.5), (0.5, 0.5))
    chars = preset("impulsive", rate=3.0, jumps=jumps)
    # drift must cancel the large-jump mean: -rate * E[y 1{|y|>1}]
    tail_mean = 3.0 * 2.0 * 0.5
    got = float(chars.drift_density(np.array([[0.7]]))[0])
    assert got == pytest.approx(-tail_mean, rel=1e-14)
    # so the symbol is fully compensated: Psi'(0) = 0, i.e. E M(t, A) = 0
    h = 1e-5
    sym = chars.levy_symbol
    from levyfield.funcs import IndicatorFunction
    f = IndicatorFunction(UNIT)
    deriv = (sym(f, h, 1.0).value - sym(f, -h, 1.0).value) / (2 * h)
    assert abs(deriv.imag) < 1e-6 and abs(deriv.real) < 1e-10


def test_impulsive_jump_config_mapping():
    chars = preset("impulsive", rate=2.0,
                   jumps={"kind": "discrete", "values": [1.0, -1.0],
                          "probs": [0.5, 0.5]})
    assert isinstance(chars.nu.kernel.jumps, DiscreteJumps)
    with pytest.raises(ValueError):
        preset("impulsive", rate=2.0, jumps=3.5)
    with pytest.raises(ValueError, match="jumps: unknown keys: bogus"):
        preset("impulsive", jumps={"kind": "normal", "sigma": 0.5, "bogus": 1})


def test_impulsive_modulated_drift_follows_zeta():
    jumps = DiscreteJumps((2.0, -0.5), (0.5, 0.5))
    zeta = lambda x: 1.0 + x[:, 0] ** 2
    chars = preset("impulsive", rate=3.0, jumps=jumps, zeta=zeta)
    pts = np.array([[0.0], [1.0]])
    drift = chars.drift_density(pts)
    assert drift[1] == pytest.approx(2.0 * drift[0], rel=1e-12)
