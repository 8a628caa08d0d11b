"""Characteristic triples: control measure, symbols, serialization."""

import cmath
import math
import warnings

import numpy as np
import pytest

from levyfield import (Atom, Characteristics, ControlMeasureValue, Density,
                       DiffusionComponent, DivergentControlMeasureError, DriftComponent,
                       IndicatorFunction, JumpComponent, ProductBump, Region,
                       SamplerConfig, SimpleFunction, StableKernel, TemperedStableKernel,
                       interval, preset, sample_field, stable_symbol_constant)
from levyfield.analysis import lm_membership
from levyfield.config import characteristics_from_config
from levyfield.funcs import GaussianFunction, effective_domain
from levyfield.kernels import CompoundPoissonKernel, UniformJumps
from levyfield.integrate import cylindrical_characteristics, integrate
from levyfield.quadrature import region_integral
from levyfield.sampler import levy_ito_spec
from levyfield.verify import embedding_inequality_check

UNIT = Region.from_intervals([(0.0, 1.0)])


def test_control_measure_stable_constant():
    # |beta a/(1-a)| + 2/(2-a) per unit volume, exactly
    chars = preset("balan-stable", alpha=1.5)
    assert chars.control_measure(UNIT).value == pytest.approx(4.0, abs=1e-12)
    big = Region.from_intervals([(-2.0, 3.0)])
    assert chars.control_measure(big).value == pytest.approx(20.0, abs=1e-11)


def test_control_measure_white_noise_is_lebesgue():
    chars = preset("gaussian-white-noise", dim=2)
    r = Region.from_intervals([(0.0, 2.0), (0.0, 1.5)])
    assert chars.control_measure(r).value == pytest.approx(3.0)


def test_control_measure_counts_atoms():
    chars = Characteristics(
        1,
        gamma=DriftComponent(Density(0.0), (Atom((0.5,), -2.0),)),
        sigma=DiffusionComponent(Density(0.0), (Atom((0.25,), 1.5),)),
    )
    # the total variation of the gamma atom plus the sigma atom
    assert chars.control_measure(UNIT).value == pytest.approx(2.0 + 1.5)
    outside = Region.from_intervals([(2.0, 3.0)])
    assert chars.control_measure(outside).value == 0.0


def test_control_measure_divergent_modulation():
    chars = Characteristics(
        1, nu=JumpComponent(StableKernel(1.5, 0.5, 0.5),
                            modulation=Density(lambda x: np.exp(x))))
    with np.errstate(over="ignore"), pytest.raises(DivergentControlMeasureError):
        chars.control_measure(Region.from_intervals([(0.0, 2000.0)]))


def test_control_measure_reports_quadrature_error():
    # a near-singular modulation cannot be integrated reliably; the value must
    # come back with an honest nonzero error bound rather than silently clean
    chars = Characteristics(
        1, nu=JumpComponent(StableKernel(1.5, 0.5, 0.5),
                            modulation=Density(lambda x: 1.0 / np.abs(x))))
    cm = chars.control_measure(Region.from_intervals([(-1.0, 1.0)]))
    assert cm.error_bound > 0.01 * cm.value


def test_symbol_vanishes_at_zero_frequency():
    f = IndicatorFunction(UNIT)
    for name, kw in (("balan-stable", {"alpha": 1.3}),
                     ("mytnik-positive", {"alpha": 1.5}),
                     ("gaussian-white-noise", {}),
                     ("impulsive", {"rate": 3.0})):
        assert preset(name, **kw).levy_symbol(f, 0.0).value == 0.0


def test_symbol_conjugate_symmetry():
    f = IndicatorFunction(UNIT)
    chars = preset("impulsive", rate=2.0,
                   jumps={"kind": "discrete", "values": [1.0, -0.3],
                          "probs": [0.7, 0.3]})
    for u in (0.3, 1.0, 2.7):
        a = chars.levy_symbol(f, u).value
        b = chars.levy_symbol(f, -u).value
        assert b == pytest.approx(a.conjugate(), abs=1e-12)


def test_symbol_symmetric_stable_closed_form():
    chars = preset("balan-stable", alpha=1.5)
    f = IndicatorFunction(UNIT)
    C = stable_symbol_constant(1.5)
    for u in (0.25, 1.0, 2.0):
        v = chars.levy_symbol(f, u, t=2.0).value
        assert v.imag == pytest.approx(0.0, abs=1e-12)
        assert v.real == pytest.approx(-2.0 * C * u ** 1.5, rel=1e-12)


@pytest.mark.parametrize("chars", [
    preset("mytnik-positive", alpha=1.5),
    Characteristics(1, nu=JumpComponent(StableKernel(0.8, 0.7, 0.3))),
    Characteristics(1, nu=JumpComponent(CompoundPoissonKernel(2.0, UniformJumps(0.3, 1.7))))],
    ids=["mytnik-positive", "stable", "uniform"])
def test_symbol_integrates_both_parts_of_an_asymmetric_cf_in_one_batch(chars, monkeypatch):
    # the real and imaginary parts are two rows of one integrand: the values of
    # two integrals, bit for bit, from one cf_integrand call per node
    kern, mod = chars.nu.kernel, chars.nu.modulation
    calls = []
    cf = type(kern).cf_integrand

    def counted(self, c, eps=0.0):
        calls.append(1)
        return cf(self, c, eps)

    monkeypatch.setattr(type(kern), "cf_integrand", counted)
    for f in (ProductBump((0.0,), (0.5,)), ProductBump((0.2,), (0.7,))):
        support = effective_domain(f)
        for u in (0.5, 1.0, 2.0):
            for eps in (0.0, 0.01):
                counts = []
                for part in (None, np.real, np.imag):   # the symbol, then each part alone
                    calls.clear()
                    if part is None:
                        jump = chars.levy_symbol(f, u, eps=eps).jump_integral
                    else:
                        got = mod.integral(support,
                                           lambda p: part(kern.cf_integrand(u * f(p), eps)))[0]
                        want = got if part is np.real else want + 1j * got
                    counts.append(len(calls))
                assert jump.imag != 0.0 and jump == 0.0 + want, (u, eps)
                assert counts[0] == max(counts[1:]) < sum(counts[1:]), (u, eps)


def test_tempered_symbol_of_a_bump_raises_no_warning():
    # the tempered-stable CF is a closed form: at eps = 0 no quadrature warns
    chars = Characteristics(1, nu=JumpComponent(TemperedStableKernel(1.5, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (0.0, 0.01):
            assert chars.levy_symbol(ProductBump((0.0,), (0.5,)), 1.0, eps=eps).value.real < 0.0


def test_symbol_simple_function_two_terms():
    # disjoint terms add: Psi(u) = sum_k leb(A_k) psi(c_k u) for stationary noise
    chars = preset("balan-stable", alpha=1.2)
    A = Region.from_intervals([(0.0, 0.5)])
    B = Region.from_intervals([(0.5, 2.0)])
    f = SimpleFunction(((2.0, A), (-1.0, B)))
    C = stable_symbol_constant(1.2)
    u = 0.7
    want = -C * (0.5 * abs(2 * u) ** 1.2 + 1.5 * abs(-u) ** 1.2)
    assert chars.levy_symbol(f, u).value == pytest.approx(want, rel=1e-12)


def test_symbol_gaussian_case():
    chars = preset("gaussian-white-noise")
    f = IndicatorFunction(UNIT)
    v = chars.levy_symbol(f, 1.5, t=3.0).value
    assert v == pytest.approx(-3.0 * 0.5 * 1.5 ** 2)


def test_symbol_smooth_test_function_vs_simple_approx():
    # a bump approximated by a fine simple function gives nearly the same symbol
    chars = preset("impulsive", rate=5.0)
    bump = ProductBump((0.5,), (0.4,), smoothness=2)
    edges = np.linspace(0.1, 0.9, 201)
    mids = 0.5 * (edges[:-1] + edges[1:])
    heights = bump(mids[:, None])
    terms = tuple((float(h), Region(1, (interval(a, b),)))
                  for h, a, b in zip(heights, edges[:-1], edges[1:]))
    stepped = SimpleFunction(terms)
    u = 1.3
    exact = chars.levy_symbol(bump, u).value
    approx = chars.levy_symbol(stepped, u).value
    assert abs(exact - approx) < 5e-4


def test_atom_sum_leaves_out_atoms_outside_the_region():
    gamma = DriftComponent(Density(0.0), (Atom((0.5,), -1.0), Atom((2.0,), 4.0)))
    sigma = DiffusionComponent(Density(0.0), (Atom((0.5,), 0.25),))
    assert gamma.atom_sum(None, UNIT) == -1.0
    assert gamma.atom_sum(None, UNIT, absolute=True) == 1.0
    assert gamma.atom_sum() == 3.0
    assert gamma.atom_sum(lambda p: 3.0 * p[:, 0], UNIT) == -1.5
    assert gamma.atom_sum(lambda p: 3.0 * p[:, 0]) == -1.5 + 24.0
    assert sigma.atom_sum(None, UNIT) == 0.25
    assert sigma.atom_sum(None, Region.from_intervals([(1.0, 3.0)])) == 0.0
    assert DriftComponent(Density(1.0)).atom_sum(lambda p: 1 / 0) == 0.0


def test_integral_adds_atoms_to_the_density_part():
    gamma = DriftComponent(Density(-2.0), (Atom((0.5,), 0.75), Atom((2.0,), 4.0)))
    assert gamma.integral(UNIT) == (-2.0 + 0.75, 0.0)
    val, err = gamma.integral(UNIT, lambda p: p[:, 0])
    assert val == pytest.approx(-1.0 + 0.375, abs=1e-12) and err < 1e-9
    # |gamma| is the control measure of a drift-only triple
    tv = Characteristics(1, gamma=gamma)
    assert tv.control_measure(UNIT) == ControlMeasureValue(2.0 + 0.75, 0.0)
    assert tv.control_measure(UNIT, lambda p: p[:, 0]).value == pytest.approx(
        1.0 + 0.375, abs=1e-12)


@pytest.mark.parametrize("density", [Density(-0.7), Density(lambda p: np.cos(3.0 * p[:, 0]))],
                         ids=["constant", "callable"])
def test_density_integral_takes_the_integrand(density):
    def g(p):
        return np.exp(p[:, 0]) - 1.5

    two_boxes = Region(1, (interval(-1.0, 0.25), interval(0.5, 2.0)))
    for region in (two_boxes, Region(1, ())):
        assert density.integral(region, g) == region_integral(
            lambda p: g(p) * density(p), region)
    if density.is_constant:
        assert density.integral(two_boxes) == (-0.7 * 2.75, 0.0)


def test_same_point_atoms_merge_into_one():
    # +1 and -1 at one point are the zero measure, whose total variation is 0
    gamma = DriftComponent(Density(0.0), (Atom((0.5,), 1.0), Atom((0.5,), -1.0),
                                          Atom((0.25,), 2.0)))
    assert gamma.atoms == (Atom((0.5,), 0.0), Atom((0.25,), 2.0))
    chars = Characteristics(1, gamma=gamma)
    assert chars.gamma_measure(Region.from_intervals([(0.4, 0.6)])) == 0.0
    assert chars.control_measure(Region.from_intervals([(0.4, 0.6)])).value == 0.0
    assert chars.control_measure(UNIT).value == 2.0


# One triple with a gamma and a sigma atom inside (0, 1] and a gamma atom at
# 2, outside; BARE has the same densities and no atoms, so every consumer's
# value with ATOMS is its BARE value plus the atom terms worked out by hand.
ATOMS = Characteristics(
    1,
    gamma=DriftComponent(Density(0.3), (Atom((0.25,), 0.7), Atom((2.0,), 5.0))),
    sigma=DiffusionComponent(Density(0.5), (Atom((0.75,), 0.4),)),
)
BARE = Characteristics(1, gamma=DriftComponent(Density(0.3)),
                       sigma=DiffusionComponent(Density(0.5)))
BUMP = ProductBump(center=(0.5,), radius=(0.5,))
WIDE = GaussianFunction(center=(0.5,), scale=1.0)   # nonzero at the outside atom


def at(f, x):
    return float(f(np.array([[x]]))[0])


def test_atom_terms_in_the_symbol():
    b1, b2 = at(BUMP, 0.25), at(BUMP, 0.75)
    got, want = ATOMS.levy_symbol(BUMP, 1.3), BARE.levy_symbol(BUMP, 1.3)
    assert got.drift_integral == want.drift_integral + 0.7 * b1
    assert got.gaussian_integral == want.gaussian_integral + 0.4 * b2 ** 2


def test_atom_terms_in_the_control_measure():
    assert ATOMS.control_measure(UNIT).value == pytest.approx(
        (0.3 + 0.7) + (0.5 + 0.4), abs=1e-15)
    wide = ATOMS.control_measure(Region.from_intervals([(0.0, 3.0)]))
    assert wide.value == pytest.approx((0.9 + 0.7 + 5.0) + (1.5 + 0.4), abs=1e-12)


def test_atom_terms_in_the_drift_of_integrate():
    drift = Characteristics(1, gamma=ATOMS.gamma)
    real = sample_field(drift, SamplerConfig(seed=3, window=UNIT, eps=0.0))
    bare = sample_field(Characteristics(1, gamma=BARE.gamma),
                        SamplerConfig(seed=3, window=UNIT, eps=0.0))
    got, want = integrate(real, WIDE, 0.8), integrate(bare, WIDE, 0.8)
    assert got.value == pytest.approx(want.value + 0.8 * 0.7 * at(WIDE, 0.25), abs=1e-14)


def test_atom_terms_in_the_cylindrical_characteristics():
    b1, b2 = at(BUMP, 0.25), at(BUMP, 0.75)
    got = cylindrical_characteristics(ATOMS, BUMP)
    want = cylindrical_characteristics(BARE, BUMP)
    assert got.a == want.a + 0.7 * b1
    assert got.qf == want.qf + 0.4 * b2 ** 2


def test_atom_terms_in_membership_and_the_embedding_bound():
    g1, g2 = at(WIDE, 0.25), at(WIDE, 0.75)
    got = lm_membership(ATOMS, WIDE, UNIT).value
    assert got == pytest.approx(lm_membership(BARE, WIDE, UNIT).value
                                + 0.7 * g1 + 0.4 * g2 ** 2, abs=1e-14)
    lhs = 0.7 * g1 + 0.4 * g2 ** 2
    rhs = (0.7 * g1 + 0.4 * g2) + 11.0 * (0.7 * g1 ** 2 + 0.4 * g2 ** 2)
    got = embedding_inequality_check(ATOMS, WIDE, UNIT)
    want = embedding_inequality_check(BARE, WIDE, UNIT)
    assert got.decision == want.decision == "pass"
    assert got.statistic == pytest.approx(want.statistic + lhs - rhs, abs=1e-13)


def test_atoms_count_in_the_rung_of_the_ladder_that_holds_them():
    # over R^d each part of the ladder (core cube, then the shells) adds its
    # own atoms: the one at 2 falls in shell 0, not in the core cube
    g1, g2, g3 = at(WIDE, 0.25), at(WIDE, 0.75), at(WIDE, 2.0)
    got, want = lm_membership(ATOMS, WIDE), lm_membership(BARE, WIDE)
    assert got.verdict == want.verdict == "member"
    assert got.shells[0] == pytest.approx(want.shells[0] + 5.0 * g3, abs=1e-13)
    assert got.value == pytest.approx(want.value + 0.7 * g1 + 5.0 * g3 + 0.4 * g2 ** 2,
                                      abs=1e-12)
    got, want = cylindrical_characteristics(ATOMS, WIDE), cylindrical_characteristics(BARE, WIDE)
    assert got.a == pytest.approx(want.a + 0.7 * g1 + 5.0 * g3, abs=1e-12)
    assert got.qf == pytest.approx(want.qf + 0.4 * g2 ** 2, abs=1e-12)


def test_walks_over_r_d_pass_every_atom_before_they_stop():
    # densities 0: every rung before the atoms' is 0, and a walk that stopped
    # at the first negligible rung would miss both atoms
    far = Characteristics(1, gamma=DriftComponent(Density(0.0), (Atom((5.0,), 2.0),)),
                          sigma=DiffusionComponent(Density(0.0), (Atom((-9.0,), 3.0),)))
    assert far.atom_reach == 9.0 and BARE.atom_reach == 0.0
    f = GaussianFunction(center=(5.0,), scale=3.0)
    cyl = cylindrical_characteristics(far, f)
    assert (cyl.a, cyl.qf) == (2.0, 3.0 * at(f, -9.0) ** 2)
    res = lm_membership(far, f)
    assert res.verdict == "member" and res.value == 2.0 + 3.0 * at(f, -9.0) ** 2
    # an atom at -2^j lies in the shell past the one whose outer cube reaches 2^j
    for point in (-2.0, -8.0):
        edge = Characteristics(1, gamma=DriftComponent(Density(0.0), (Atom((point,), 2.0),)))
        assert cylindrical_characteristics(edge, f).a == 2.0 * at(f, point)
        res = lm_membership(edge, f)
        assert res.verdict == "member" and res.value == 2.0 * at(f, point)


def test_control_measure_integrates_a_function_against_each_part():
    g = lambda x: 1.0 + x[:, 0]
    cm = ATOMS.control_measure(UNIT, g)
    # |gamma|: 0.3 * 1.5 + 0.7 * 1.25; Sigma: 0.5 * 1.5 + 0.4 * 1.75
    assert cm.value == pytest.approx((0.45 + 0.875) + (0.75 + 0.7), abs=1e-14)
    chars = preset("balan-stable", alpha=1.5, p=0.7, q=0.3)
    whole = chars.control_measure(UNIT)
    weighted = chars.control_measure(UNIT, g)
    assert weighted.value == pytest.approx(1.5 * whole.value, rel=1e-13)


# lambda against four triples: constant parts with p != q, constant parts with
# atoms, callable parts with a gamma and a sigma atom at one point, and gamma
# alone with same-point atoms that merge (0.5: +1 and -1; 0.25: -2 and 0.5)
LAMBDA_TRIPLES = {
    "balan-stable": preset("balan-stable", alpha=1.5, p=0.7, q=0.3),
    "atoms": ATOMS,
    "callable": Characteristics(
        1,
        gamma=DriftComponent(Density(lambda p: np.sin(3.0 * p[:, 0])), (Atom((0.25,), -0.6),)),
        sigma=DiffusionComponent(Density(0.5), (Atom((0.25,), 0.4), Atom((0.75,), 0.2))),
        nu=JumpComponent(StableKernel(1.5, 0.7, 0.3),
                         modulation=Density(lambda p: 1.0 + p[:, 0] ** 2))),
    "gamma-merged": Characteristics(1, gamma=DriftComponent(
        Density(-0.4), (Atom((0.5,), 1.0), Atom((0.5,), -1.0), Atom((0.25,), -2.0),
                        Atom((0.25,), 0.5)))),
}


def three_part_control_measure(chars, region, g):
    """``int_A g d lambda`` as the sum of its three parts, each against its own measure."""
    total = 0.0
    if chars.gamma is not None:
        dens = chars.gamma.density
        total += (abs(dens.const) * region.volume if g is None and dens.is_constant
                  else region_integral(lambda p: (1.0 if g is None else g(p))
                                       * np.abs(dens(p)), region)[0])
        total += chars.gamma.atom_sum(g, region, absolute=True)
    if chars.sigma is not None:
        total += chars.sigma.integral(region, g)[0]
    if chars.nu is not None:
        total += chars.nu.modulation.integral(region, g)[0] * chars.nu.kernel.quad_mass()
    return total


@pytest.mark.parametrize("name", LAMBDA_TRIPLES)
def test_lambda_is_one_measure_of_the_three_parts(name):
    chars = LAMBDA_TRIPLES[name]
    two_boxes = Region(1, (interval(-1.0, 0.25), interval(0.5, 2.0)))
    for region in (UNIT, two_boxes):
        for g in (None, lambda p: 1.0 + p[:, 0]):
            want = three_part_control_measure(chars, region, g)
            assert chars.control_measure(region, g).value == pytest.approx(want, rel=1e-12)
    x = np.linspace(-1.0, 2.0, 31)[:, None]
    mass = chars.nu.kernel.quad_mass() if chars.nu is not None else 0.0
    want = (np.abs(chars.drift_density(x)) + chars.diffusion_density(x)) \
        + chars.jump_modulation(x) * mass
    assert np.array_equal(chars.control_density(x), want)
    assert chars.control is chars.control   # built once per triple


def test_lambda_merges_the_atoms_of_gamma_and_sigma_by_point():
    lam = LAMBDA_TRIPLES["callable"].control
    assert lam.atoms == (Atom((0.25,), 0.6 + 0.4), Atom((0.75,), 0.2))
    assert LAMBDA_TRIPLES["gamma-merged"].control.atoms == (Atom((0.5,), 0.0),
                                                            Atom((0.25,), 1.5))
    assert LAMBDA_TRIPLES["balan-stable"].control.density.is_constant
    assert not LAMBDA_TRIPLES["callable"].control.density.is_constant


def test_the_sampler_needs_a_finite_lambda_on_its_window():
    chars = Characteristics(1, sigma=DiffusionComponent(Density(np.inf)))
    with pytest.raises(DivergentControlMeasureError):
        levy_ito_spec(chars, SamplerConfig(seed=1, window=UNIT))


def test_config_round_trip():
    chars = preset("balan-stable", alpha=1.4, p=0.6, q=0.4)
    back = characteristics_from_config(chars.to_config())
    assert back.dim == chars.dim
    r = Region.from_intervals([(0.0, 2.0)])
    assert back.control_measure(r).value == pytest.approx(
        chars.control_measure(r).value, rel=1e-12)
    f = IndicatorFunction(r)
    assert back.levy_symbol(f, 1.1).value == pytest.approx(
        chars.levy_symbol(f, 1.1).value, rel=1e-12)


def test_dimension_mismatch_raises():
    chars = preset("gaussian-white-noise", dim=2)
    with pytest.raises(ValueError):
        chars.control_measure(UNIT)
