"""Modular/membership machinery, temperedness, stationarity, Besov rules."""

import hashlib
import math
import time

import numpy as np
import pytest
import scipy.integrate as spi

from levyfield import (Characteristics, Density, JumpComponent, Region,
                       StableKernel, analysis, preset)
from levyfield.analysis import (TemperedResult, UndefinedDensityError, besov_classify,
                                lm_membership,
                                modular_integrand, phi_m, stationarity_check,
                                tempered_test)
from levyfield.characteristics import Atom, DiffusionComponent, DriftComponent
from levyfield.funcs import GaussianFunction, PolynomialDecay, ProductBump
from levyfield.kernels import (CompoundPoissonKernel, DiscreteJumps, JumpKernel,
                               NonConvergenceError, TabulatedKernel, UniformJumps)
from levyfield.quadrature import ORDERS
from levyfield.verify import embedding_inequality_check


def test_truncation_drift_vanishes_for_symmetric_kernels():
    v = np.array([-2.0, -0.3, 0.0, 0.7, 5.0])
    assert np.all(StableKernel(1.5, 0.5, 0.5).truncation_drift(v) == 0.0)
    cp = CompoundPoissonKernel(3.0, DiscreteJumps((1.0, -1.0), (0.5, 0.5)))
    assert np.all(cp.truncation_drift(v) == 0.0)


def test_truncation_drift_stable_closed_form_vs_quadrature():
    kern = StableKernel(1.5, 0.8, 0.2)

    def dens(y):
        side = 0.8 if y > 0 else 0.2
        return 1.5 * side * abs(y) ** -2.5

    for v in (0.3, 1.7, -2.5):
        # G(v) = v int y (1{|v y| <= 1} - 1{|y| <= 1}) k(dy): the indicators
        # differ on 1 < |y| <= 1/|v| (|v| < 1, +) or 1/|v| < |y| <= 1 (|v| > 1, -)
        lo, hi = sorted((1.0, 1.0 / abs(v)))
        val = sum(spi.quad(lambda y: y * dens(y), a, b)[0] for a, b in ((lo, hi), (-hi, -lo)))
        want = v * val * (1.0 if abs(v) < 1.0 else -1.0)
        assert kern.truncation_drift(v) == pytest.approx(want, rel=1e-6)


def test_truncation_drift_discrete_by_hand():
    kern = CompoundPoissonKernel(3.0, DiscreteJumps((2.0, -0.5), (0.6, 0.4)))
    # v = 0.4: the +2 jump joins the truncated ones; v = 2.5: the -0.5 jump
    # leaves them; v = 0.8: neither moves
    v = np.array([0.4, 0.8, 2.5, -0.4])
    want = [0.4 * 3.0 * 0.6 * 2.0, 0.0, 2.5 * 3.0 * 0.4 * 0.5, -0.4 * 3.0 * 0.6 * 2.0]
    assert kern.truncation_drift(v) == pytest.approx(want, rel=1e-12)
    assert kern.truncation_drift(0.4) == pytest.approx(want[0], rel=1e-12)


def test_truncation_drift_generic_kernel_vs_quadrature():
    kern = CompoundPoissonKernel(2.0, UniformJumps(0.5, 2.0))
    for v in (0.4, 1.3):
        val, _ = spi.quad(
            lambda y: y * (float(abs(v * y) <= 1.0) - float(abs(y) <= 1.0)) / 1.5,
            0.5, 2.0, points=[1.0, 1.0 / v])
        assert kern.truncation_drift(v) == pytest.approx(2.0 * v * val, rel=1e-9)


def test_drift_sup_linear_when_jumps_symmetric():
    chars = Characteristics(1, gamma=DriftComponent(Density(-0.7)),
                            nu=JumpComponent(StableKernel(1.5, 0.5, 0.5)))
    x = np.array([[0.2], [0.9]])
    # the modular's drift term is |a0| u: the rest is the same triple's without gamma
    def two(p):
        return np.full(len(p), 2.0)
    out = (modular_integrand(chars, two)(x)
           - modular_integrand(Characteristics(1, nu=chars.nu), two)(x))
    assert out == pytest.approx([1.4, 1.4], rel=1e-14)


def test_drift_sup_matches_brute_force_stable():
    chars = preset("balan-stable", alpha=1.5, p=0.8, q=0.2)
    kern = chars.nu.kernel
    a0 = float(chars.drift_density(np.array([[0.3]]))[0])
    u = 2.0
    grid = np.linspace(0.0, u, 20001)
    brute = np.abs(a0 * grid + kern.truncation_drift(grid)).max()
    mod = chars.jump_modulation(np.array([[0.3]]))
    got = float(kern.drift_sup(np.array([a0]), mod, np.array([u]))[0])
    assert got == pytest.approx(brute, rel=1e-6)
    assert got >= brute - 1e-12


def test_drift_sup_matches_brute_force_discrete():
    kern = CompoundPoissonKernel(3.0, DiscreteJumps((2.0, -0.5), (0.7, 0.3)))
    chars = Characteristics(1, gamma=DriftComponent(Density(0.4)),
                            nu=JumpComponent(kern))
    u = 3.0
    breaks = np.array([0.5, 2.0])  # 1/|jump|
    grid = np.union1d(np.linspace(0.0, u, 10001), breaks)
    brute = np.abs(0.4 * grid + kern.truncation_drift(grid)).max()
    a0 = chars.drift_density(np.array([[0.0]]))
    got = float(kern.drift_sup(a0, chars.jump_modulation(np.array([[0.0]])), np.array([u]))[0])
    assert got == pytest.approx(brute, rel=1e-12)


def test_discrete_drift_sup_takes_each_piece_s_left_limit():
    # G(v)/v is constant on each piece between the breakpoints 1/|y|, and here
    # 1/(1/y) < y: at the computed breakpoint G already reads the next (zero) piece
    kern = CompoundPoissonKernel(1.0, DiscreteJumps((1.4806461292258453,), (1.0,)))
    assert kern.drift_sup(np.zeros(1), np.ones(1), np.ones(1)) == pytest.approx([1.0], rel=1e-15)
    assert kern.drift_sup(np.zeros(2), np.ones(2), np.array([0.0, 0.5])) == pytest.approx(
        [0.0, 0.5 * 1.4806461292258453], rel=1e-15)


def test_discrete_drift_sup_matches_a_grid_with_each_breakpoint_s_left_neighbour():
    rng = np.random.default_rng(34)
    for _ in range(200):
        vals = rng.uniform(-2.0, 2.0, 3)
        kern = CompoundPoissonKernel(rng.uniform(0.5, 4.0),
                                     DiscreteJumps(tuple(vals), tuple(rng.dirichlet(np.ones(3)))))
        a0, mod, u = rng.uniform(-1.0, 1.0, 5), rng.uniform(0.5, 2.0, 5), rng.uniform(0.05, 3.0, 5)
        got = kern.drift_sup(a0, mod, u)
        left = (1.0 - 1e-14) / np.abs(vals)   # |a0 v + mod G(v)| is linear on each piece
        for i in range(5):
            v = np.concatenate([np.linspace(0.0, u[i], 2001), left[left <= u[i]]])
            brute = np.abs(a0[i] * v + mod[i] * kern.truncation_drift(v)).max()
            assert got[i] == pytest.approx(brute, rel=1e-13)


ASYMMETRIC_STABLE = [("mytnik-positive", {"alpha": 1.2}), ("mytnik-positive", {"alpha": 1.5}),
                     ("balan-stable", {"alpha": 1.5, "p": 0.8, "q": 0.2}),
                     ("balan-stable", {"alpha": 0.8, "p": 0.9, "q": 0.1}),
                     ("balan-stable", {"alpha": 0.4, "p": 0.0, "q": 1.0})]


@pytest.mark.parametrize("name, params", ASYMMETRIC_STABLE)
def test_drift_term_of_a_strictly_stable_preset_is_c_u_to_the_alpha(name, params):
    # gamma = s beta alpha/(1 - alpha) cancels G's linear term: U(v) = c v^alpha,
    # so the modular is ~u^alpha as for the symmetric law
    chars = preset(name, **params)
    kern, alpha = chars.nu.kernel, params["alpha"]
    c = abs(kern.scale * kern.beta * alpha / (1.0 - alpha))
    x = np.array([[0.3]])
    for u in 10.0 ** -np.arange(1.0, 7.0):
        drift = modular_integrand(chars, lambda p, u=u: np.full(len(p), u))(x)[0] \
            - kern.compact_moment(u)
        assert drift == pytest.approx(c * u ** alpha, rel=1e-12)


MEMBERSHIP_TRIPLES = [("mytnik-positive", {"alpha": 1.2}), ("mytnik-positive", {"alpha": 1.5}),
                      ("balan-stable", {"alpha": 0.8, "p": 0.8, "q": 0.2}),
                      ("balan-stable", {"alpha": 1.5, "p": 0.8, "q": 0.2}),
                      ("balan-stable", {"alpha": 0.8}), ("balan-stable", {"alpha": 1.5})]


@pytest.mark.parametrize("name, params", MEMBERSHIP_TRIPLES)
def test_polynomial_decay_is_a_member_iff_2_r_alpha_exceeds_d(name, params):
    # the paper's integrability condition for a strictly stable noise: f in L^alpha,
    # closer to the boundary than criterion 8's band (r = 0.36 in 1-D: 2 r alpha = 1.08)
    alpha = params["alpha"]
    for d in (1, 2):
        chars = preset(name, dim=d, **params)
        for r in (0.2, 0.3, 0.36, 0.45, 0.55, 0.6, 0.65, 0.75, 1.0, 1.5):
            want = "member" if 2.0 * r * alpha > d else "non-member"
            assert lm_membership(chars, PolynomialDecay(r, dim=d)).verdict == want, (d, r)


def test_drift_sup_zooms_in_on_an_interior_maximum():
    # a dyadic grid settles on an interior maximum (here G's kink at 1/1.7)
    # only slowly, or stalls (two levels with the same maximum)
    kern = CompoundPoissonKernel(2.0, UniformJumps(0.3, 1.7))
    u = np.array([0.8, 1.1, 1.4, 1.9])
    got = kern.drift_sup(np.full(4, 0.4), np.ones(4), u)
    for ui, g in zip(u, got):
        kinks = np.array([1.0 / 1.7, 1.0 / 0.3])
        grid = np.union1d(np.linspace(0.0, ui, 2_000_001), kinks[kinks <= ui])
        brute = np.abs(0.4 * grid + kern.truncation_drift(grid)).max()
        assert g == pytest.approx(brute, rel=1e-9)


def test_drift_sup_of_a_row_does_not_depend_on_the_rows_beside_it():
    # rows that settle at different levels, at the endpoint or inside [0, u]:
    # quadrature stacks the nodes of several boxes into one call
    kern = CompoundPoissonKernel(2.0, UniformJumps(0.3, 1.7))
    rng = np.random.default_rng(5)
    u = np.concatenate([rng.uniform(0.05, 3.0, 300), [0.0, 0.8, 1.9]])
    a0 = np.concatenate([rng.uniform(-1.0, 1.0, 300), [0.4, 0.4, 0.4]])
    mod = np.concatenate([rng.uniform(0.5, 2.0, 300), [1.0, 1.0, 1.0]])
    batch = kern.drift_sup(a0, mod, u)
    alone = [kern.drift_sup(a0[i:i + 1], mod[i:i + 1], u[i:i + 1])[0] for i in range(u.size)]
    assert np.array_equal(batch, alone)
    tail = kern.drift_sup(a0[::-1], mod[::-1], u[::-1])
    assert np.array_equal(tail[::-1], batch)


def test_drift_sup_refines_each_distinct_row_once(monkeypatch):
    # constant densities repeat rows; rows that share u but not a0 or mod stay apart
    kern = CompoundPoissonKernel(2.0, UniformJumps(0.3, 1.7))
    rng = np.random.default_rng(3)
    u = np.repeat(rng.uniform(0.05, 3.0, 10), 2)
    a0, mod = np.tile([0.4, -0.2], 10), np.tile([1.0, 1.5], 10)
    pick = rng.permutation(np.repeat(np.arange(20), 3))
    points = []
    drift = CompoundPoissonKernel.truncation_drift
    monkeypatch.setattr(CompoundPoissonKernel, "truncation_drift",
                        lambda self, v: points.append(np.size(v)) or drift(self, v))
    distinct = kern.drift_sup(a0, mod, u)
    alone = sum(points)
    points.clear()
    assert np.array_equal(kern.drift_sup(a0[pick], mod[pick], u[pick]), distinct[pick])
    assert sum(points) == alone


class UnsettledKernel(JumpKernel):
    """Unit mass whose truncation drift below v = 0.1 flips sign at every call.

    With drift density 1 the sup of ``|v + G(v)|`` over [0, u] sits at the
    endpoint for u > 0.11 and settles at once; for smaller u each finer grid,
    dyadic or zoomed, sees the other drift, so the refinement never settles.
    """

    def __init__(self):
        self.calls = 0

    def quad_mass(self):
        return 1.0

    def compact_moment(self, u):
        return np.minimum(1.0, np.asarray(u, dtype=float) ** 2)

    def truncation_drift(self, v):
        self.calls += 1
        return np.where(v < 0.1, (-1.0) ** self.calls * 0.1 * v, 0.0)


UNSETTLED = Characteristics(1, gamma=DriftComponent(Density(1.0)),
                            nu=JumpComponent(UnsettledKernel()))


def test_drift_sup_reports_non_convergence():
    kern = UNSETTLED.nu.kernel
    ones = np.ones(3)
    settled = kern.drift_sup(ones, ones, np.array([0.2, 0.5, 2.0]))
    assert settled == pytest.approx([0.2, 0.5, 2.0], rel=1e-15)
    u = np.linspace(0.02, 0.09, 40)
    with pytest.raises(NonConvergenceError, match="after 11 zoom steps") as info:
        kern.drift_sup(np.ones(u.size), np.ones(u.size), u)
    assert isinstance(info.value, ArithmeticError)


def test_unsettled_drift_sup_makes_membership_indeterminate():
    # before: the shell loop read any ArithmeticError as a divergent shell
    res = lm_membership(UNSETTLED, PolynomialDecay(1.0, dim=1))
    assert res.verdict == "indeterminate" and len(res.shells) == 1
    assert res.note.startswith("shell 1: drift sup still moved by")
    res = lm_membership(UNSETTLED, PolynomialDecay(4.0, dim=1))
    assert res.verdict == "indeterminate" and res.note.startswith("core cube: ")
    res = lm_membership(UNSETTLED, PolynomialDecay(1.0, dim=1), Region.from_intervals([(2.5, 3.5)]))
    assert res.verdict == "indeterminate" and "drift sup" in res.note
    assert tempered_test(UNSETTLED, r_max=1.0).attempts == ((0.5, "indeterminate"),
                                                           (1.0, "indeterminate"))


def test_unsettled_drift_sup_makes_embedding_check_indeterminate():
    rep = embedding_inequality_check(UNSETTLED, ProductBump(center=(0.0,), radius=(0.5,)))
    assert rep.decision == "indeterminate" and "drift sup" in rep.notes[0]


def test_tempered_test_on_a_one_sided_tabulated_kernel_is_prompt():
    # once a hang: every tail of the generic drift sup was a scalar call
    chars = Characteristics(1, gamma=DriftComponent(Density(0.3)),
                            nu=JumpComponent(TabulatedKernel([0, 1, 2], [1, 1, 0])))
    start = time.perf_counter()
    res = tempered_test(chars)
    assert time.perf_counter() - start < 2.0
    assert isinstance(res, TemperedResult) and res.tempered


def test_phi_m_symmetric_stable_is_the_stable_power():
    chars = preset("balan-stable", alpha=1.5)
    x = [[0.3]]
    for u in (0.5, 1.0, 2.0):
        assert phi_m(chars, u, x) == pytest.approx(u ** 1.5, rel=1e-12)
    with pytest.raises(ValueError):
        phi_m(chars, -1.0, x)
    with pytest.raises(ValueError):
        phi_m(chars, 1.0, [[0.3, 0.4]])


def test_membership_on_a_domain_counts_only_its_atoms():
    # the gamma atom at 2 lies outside the domain (0, 1] and must not count
    unit = Region.from_intervals([(0.0, 1.0)])
    f = GaussianFunction([0.5], 0.3)
    base = preset("balan-stable", alpha=1.5)
    atom = Characteristics(1, gamma=DriftComponent(Density(0.0), (Atom((2.0,), 5.0),)),
                           nu=base.nu)
    got = lm_membership(atom, f, unit)
    assert got.verdict == "member"
    assert got.value == lm_membership(base, f, unit).value


def test_phi_m_atom_branch():
    chars = Characteristics(
        1, gamma=DriftComponent(Density(0.0), atoms=(Atom((0.5,), -2.0),)),
        nu=JumpComponent(StableKernel(1.5, 0.5, 0.5)))
    # at the atom only the drift weight contributes: |u w| / |w| = u
    assert phi_m(chars, 0.7, [[0.5]]) == pytest.approx(0.7, rel=1e-14)


def test_phi_m_undefined_where_control_vanishes():
    zeta = lambda x: np.where(x[:, 0] > 0.5, 1.0, 0.0)
    chars = preset("impulsive", rate=4.0, zeta=zeta)
    with pytest.raises(UndefinedDensityError):
        phi_m(chars, 1.0, [[0.2]])
    # where the modulation is positive: rate cancels, Phi = u^2 ^ 1
    assert phi_m(chars, 0.5, [[0.7]]) == pytest.approx(0.25, rel=1e-12)
    assert phi_m(chars, 3.0, [[0.7]]) == pytest.approx(1.0, rel=1e-12)


def test_modular_integrand_is_phi_times_control_density():
    chars = preset("balan-stable", alpha=1.5, p=0.7, q=0.3)
    f = GaussianFunction(center=(0.0,), scale=1.0)
    pts = np.array([[-1.2], [0.1], [0.8]])
    vec = modular_integrand(chars, f)(pts)
    ell = chars.control_density(pts)
    for i, x in enumerate(pts):
        want = phi_m(chars, float(abs(f(x[None, :]))[0]), x[None, :]) * ell[i]
        assert vec[i] == pytest.approx(want, rel=1e-12)


def test_membership_follows_the_power_rule():
    # (1+|x|^2)^(-r) is in the class iff 2 r alpha > d
    cases = [(1.5, 0.5, "member"), (0.8, 0.5, "non-member"),
             (1.9, 0.2, "non-member"), (1.9, 0.3, "member")]
    for alpha, r, want in cases:
        chars = preset("balan-stable", alpha=alpha)
        res = lm_membership(chars, PolynomialDecay(r, 1))
        assert res.verdict == want, (alpha, r, res.note)


def test_membership_bounded_support_is_direct():
    chars = preset("balan-stable", alpha=1.5)
    res = lm_membership(chars, ProductBump(center=(0.0,), radius=(1.0,)))
    assert res.verdict == "member"
    assert res.value is not None and 0.0 < res.value < math.inf


def test_tempered_symmetric_stable_at_first_try():
    res = tempered_test(preset("balan-stable", alpha=1.5))
    assert res.tempered and res.r == 0.5
    assert res.attempts[0] == (0.5, "member")


def test_tempered_search_climbs_past_growing_modulation():
    zeta = lambda x: (1.0 + x[:, 0] ** 2) ** 3
    chars = preset("impulsive", rate=5.0, zeta=zeta)
    res = tempered_test(chars, r_max=4.0)
    assert res.tempered and res.r == 2.0
    verdicts = dict(res.attempts)
    assert verdicts[0.5] == "non-member" and verdicts[1.0] == "non-member"


def test_stationarity_of_presets():
    for name, kw in (("balan-stable", {"alpha": 1.3}), ("mytnik-positive", {"alpha": 1.5}),
                     ("gaussian-white-noise", {}), ("impulsive", {"rate": 2.0})):
        res = stationarity_check(preset(name, **kw))
        assert res.stationary, name
    res = stationarity_check(preset("impulsive", rate=2.0))
    assert res.modulation == 1.0 and res.kernel is not None


def test_stationarity_witnesses():
    mod = preset("impulsive", rate=2.0, zeta=lambda x: 1.0 + x[:, 0] ** 2)
    res = stationarity_check(mod)
    assert not res.stationary and res.witness[2] == "jump modulation"
    atomic = Characteristics(
        1, gamma=DriftComponent(Density(1.0), atoms=(Atom((0.25,), 1.0),)))
    res = stationarity_check(atomic)
    assert not res.stationary and res.witness[2] == "gamma atom"


def test_besov_classification_rules():
    # alpha = 0.5, d = 1: smoothness edge 1, weight edge -1/min(p, alpha)
    assert besov_classify(0.5, 1, 1.0, 0.5, -2.5) == "inside"
    assert besov_classify(0.5, 1, 1.0, 1.5, -2.5) == "outside"
    assert besov_classify(0.5, 1, 1.0, 0.5, -2.0) == "boundary-indeterminate"
    assert besov_classify(0.5, 1, 1.0, 1.0, -2.5) == "boundary-indeterminate"
    assert besov_classify(0.5, 1, np.inf, 0.5, -2.5) == "inside"
    assert besov_classify(1.5, 2, 4.0, -1.0, -2.0) == "inside"


def test_besov_rejects_bad_parameters():
    with pytest.raises(ValueError):
        besov_classify(2.0, 1, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        besov_classify(1.5, 0, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        besov_classify(1.5, 1, 3.0, 0.0, -1.0)  # odd integer > 2
    with pytest.raises(ValueError):
        besov_classify(1.5, 1, 1.0, np.inf, -1.0)


def test_besov_monotone_in_smoothness():
    order = {"inside": 0, "boundary-indeterminate": 1, "outside": 2}
    for alpha, dim, p, rho in ((0.7, 1, 1.0, -3.0), (1.5, 2, np.inf, -4.0)):
        taus = np.linspace(-2.0, 2.0, 41)
        ranks = [order[besov_classify(alpha, dim, p, t, rho)] for t in taus]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))


# --------------------------------------------------------------------------
# the ladder's first block (core cube and shells 0 .. MIN_SHELLS - 1) is one
# quadrature batch, with the verdict of walking it one rung at a time
# --------------------------------------------------------------------------

def rung_by_rung(monkeypatch, chars, f):
    """``lm_membership`` with every batch of several regions refused, so the ladder
    falls back to integrating one rung at a time."""
    batched = analysis.modular_integrals

    def one_at_a_time(chars, f, regions):
        if len(regions) > 1:
            raise ArithmeticError("batch refused")
        return batched(chars, f, regions)

    with monkeypatch.context() as m:
        m.setattr(analysis, "modular_integrals", one_at_a_time)
        return lm_membership(chars, f)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name, params", [
    ("balan-stable", {"alpha": 1.3}), ("balan-stable", {"alpha": 0.7, "p": 0.8, "q": 0.2}),
    ("mytnik-positive", {"alpha": 1.6}), ("impulsive", {"rate": 4.0})])
def test_the_batched_ladder_is_the_rung_by_rung_walk(monkeypatch, dim, name, params):
    chars = preset(name, dim=dim, **params)
    verdicts = set()
    for r in (0.2, 0.5, 1.0, 3.0):
        f = PolynomialDecay(r, dim)
        got = lm_membership(chars, f)
        assert got == rung_by_rung(monkeypatch, chars, f), r
        verdicts.add(got.verdict)
    assert "member" in verdicts


def test_the_batched_ladder_counts_atoms_outside_the_core_in_their_rungs(monkeypatch):
    chars = Characteristics(
        1, gamma=DriftComponent(Density(0.2), (Atom((3.0,), -4.0), Atom((0.5,), 1.0))),
        sigma=DiffusionComponent(Density(0.5), (Atom((-20.0,), 2.0),)),
        nu=JumpComponent(StableKernel(1.5)))
    for r in (0.5, 2.0):
        got = lm_membership(chars, PolynomialDecay(r, 1))
        assert got == rung_by_rung(monkeypatch, chars, PolynomialDecay(r, 1))
        assert got.verdict == "member" and len(got.shells) >= 6
    # the atom at -20 lies in shell 4: |f| w at 3 and f^2 w at -20 count there
    f = PolynomialDecay(0.5, 1)
    bare = lm_membership(Characteristics(1, gamma=DriftComponent(Density(0.2)),
                                         sigma=DiffusionComponent(Density(0.5)),
                                         nu=chars.nu), f)
    core, shells = bare.shells, lm_membership(chars, f).shells
    assert shells[1] - core[1] == pytest.approx(4.0 / math.sqrt(10.0), rel=1e-12)
    assert shells[4] - core[4] == pytest.approx(2.0 / 401.0, rel=1e-9)


def test_a_non_finite_shell_in_the_batch_is_named_by_the_walk(monkeypatch):
    def zeta(x):   # infinite jump intensity on shell 3 only
        r = np.abs(x).max(axis=1)
        return np.where((r > 8.0) & (r <= 16.0), np.inf, 1.0)

    for dim in (1, 2):
        chars = preset("impulsive", rate=3.0, zeta=zeta, dim=dim)
        for r in (0.3, 2.0):
            got = lm_membership(chars, PolynomialDecay(r, dim))
            assert got == rung_by_rung(monkeypatch, chars, PolynomialDecay(r, dim))
            assert got.note.endswith("shell 3") or "at shell 3" in got.note
            assert len(got.shells) == 4 and got.shells[3] == np.inf


def test_a_non_finite_core_cube_is_indeterminate():
    # over R^d as on a bounded domain: once an ArithmeticError out of lm_membership
    infinite = Characteristics(1, gamma=DriftComponent(Density(
        lambda x: np.where(np.abs(x[:, 0]) < 0.5, np.inf, 1.0))))
    f = PolynomialDecay(1.0)
    res = lm_membership(infinite, f)
    assert res.verdict == "indeterminate" and res.note == "core cube: integral is not finite"
    assert lm_membership(infinite, f, Region.from_intervals([(-1.0, 1.0)])).verdict \
        == "indeterminate"
    res = tempered_test(infinite, r_max=1.0)
    assert not res.tempered and res.attempts == ((0.5, "indeterminate"), (1.0, "indeterminate"))


def test_a_non_converging_drift_sup_in_the_batch_is_named_by_the_walk(monkeypatch):
    for r in (1.0, 4.0):
        want = rung_by_rung(monkeypatch, UNSETTLED, PolynomialDecay(r, 1))
        got = lm_membership(UNSETTLED, PolynomialDecay(r, 1))
        assert got == want
        assert got.note.startswith("shell 1: " if r == 1.0 else "core cube: ")


@pytest.mark.parametrize("dim", [1, 2])
def test_a_six_shell_verdict_takes_one_call_per_order(monkeypatch, dim):
    calls = []
    base = PolynomialDecay(1.0, dim)

    class Counted(PolynomialDecay):
        def __call__(self, x):
            calls.append(len(x))
            return base(x)

    chars = preset("balan-stable", alpha=1.5, dim=dim)
    got = lm_membership(chars, Counted(1.0, dim))
    assert got.verdict == "member" and len(got.shells) == analysis.MIN_SHELLS
    assert got == lm_membership(chars, base)
    assert 2 <= len(calls) <= len(ORDERS)
    calls.clear()
    rung_by_rung(monkeypatch, chars, Counted(1.0, dim))
    assert len(calls) >= 2 * (1 + analysis.MIN_SHELLS)


# sha256 of criterion 8's 93 membership results (verdict, value, error, shells;
# floats as float.hex), pinned at fe23670: the quadrature's order of operations
_CRITERION_8_SHA256 = "37a74a3d7330d99ad02e1678b2018c20b121028e14045bd23ef9ea463dbb1b50"


def _hex(x):
    return None if x is None else float(x).hex()


def test_criterion_8_results_are_pinned_bit_for_bit():
    lines = []
    for alpha in np.linspace(0.3, 1.9, 10):
        for r in np.linspace(0.2, 3.0, 5):
            for d in (1, 2):
                if abs(2.0 * r * alpha - d) <= 0.2:
                    continue
                res = lm_membership(preset("balan-stable", alpha=float(alpha), dim=d),
                                    PolynomialDecay(float(r), dim=d))
                lines.append(" ".join([res.verdict, str(_hex(res.value)), str(_hex(res.error)),
                                       *map(_hex, res.shells)]))
    assert len(lines) == 93
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _CRITERION_8_SHA256
