import math

import numpy as np
import pytest

from rkhslab import (WILSON_Z, KernelVectorFamily, PolynomialDecay,
                     SobolevDecay, SphereVectorFamily, SpectralKernelModel,
                     TailExperiment, TwoPointVectorFamily, chernoff_c,
                     chernoff_d, default_t_grid, deviation_threshold,
                     deviation_trial, eig_tail_envelopes, get_basis,
                     spectral_budget, tail_envelope, wilson_interval)
from rkhslab.densities import trial_rng


def test_chernoff_constants():
    assert chernoff_c(0.5) == pytest.approx(1.1658219907985623, rel=1e-14)
    assert chernoff_c(1.0) == pytest.approx(math.e, rel=1e-14)
    # both rate constants exceed 1 for t > 0: their logs are the tail
    # exponents
    ts = np.linspace(0.05, 1.0, 12)
    for t in ts:
        assert chernoff_d(float(t)) > 1.0
        assert chernoff_c(float(t)) > 1.0


def test_eig_tail_envelope_arithmetic():
    n, m, t, n_eff = 2000, 8, 0.5, 100.0
    lo, hi = eig_tail_envelopes(n, m, t, n_eff)
    c = 1.1658219907985623
    assert lo == pytest.approx(min(1.0, m * math.exp(-n * math.log(c)
                                                     / n_eff)), rel=1e-12)
    assert hi <= 1.0 and lo <= 1.0


def test_tail_envelope_formula_and_cap():
    n, t, M = 10_000, 1.0, 1.0
    val = tail_envelope(n, t, M)
    assert val == pytest.approx(2 ** 0.75 * n * math.exp(-n / 21.0)
                                if 2 ** 0.75 * n * math.exp(-n / 21.0) < 1
                                else 1.0)
    assert tail_envelope(100, 0.1, 1.0) == 1.0


def test_two_point_deviation_is_exactly_half():
    fam = TwoPointVectorFamily()
    dev = deviation_trial(fam, 1, trial_rng(0))
    assert dev == pytest.approx(0.5, abs=1e-14)


def test_understated_norm_bound_raises():
    fam = TwoPointVectorFamily(a=2.0, m_bound=1.0)
    with pytest.raises(ValueError):
        deviation_trial(fam, 64, trial_rng(1))


def test_kernel_family_expectation_matches_spectrum():
    model = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0))
    fam = KernelVectorFamily(model, 16)
    lam = model.eigenvalues(np.arange(1, 17))
    np.testing.assert_allclose(np.diag(fam.expectation()), lam)
    Y = fam.sample(trial_rng(3), 10_000)
    emp = np.mean(np.abs(Y) ** 2, axis=0)
    se = np.std(np.abs(Y) ** 2, axis=0) / 100.0
    assert np.all(np.abs(emp - lam) <= 3.0 * se + 1e-12)


def test_kernel_family_norm_bound_is_attained():
    model = SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))
    fam = KernelVectorFamily(model, 64)
    Y = fam.sample(trial_rng(4), 5000)
    norms = np.sqrt(np.einsum("ij,ij->i", Y.conj(), Y).real)
    assert norms.max() <= fam.m_bound * (1 + 1e-12)
    # the sup is attained at x = 0, so draws get close
    assert norms.max() >= 0.95 * fam.m_bound


def test_sphere_family_scaling():
    fam = SphereVectorFamily(8, radius=2.0)
    Y = fam.sample(trial_rng(5), 200)
    norms = np.linalg.norm(Y, axis=1)
    np.testing.assert_allclose(norms, 2.0 * np.ones(200), rtol=1e-12)
    assert fam.lambda_op == pytest.approx(4.0 / 8)


def test_default_t_grid_vacuous_cases():
    fam = TwoPointVectorFamily()
    assert default_t_grid(fam, 100).size == 0
    grid = default_t_grid(fam, 1000, points=10)
    assert grid.size == 10
    assert 0.0 < grid[0] <= 1.0 and grid[-1] == pytest.approx(1.0)
    for t in grid:
        assert tail_envelope(1000, float(t), fam.m_bound) < 1.0


def test_deviation_threshold_value():
    thr = deviation_threshold(1000, 2.0, 1.5, 0.25)
    kappa_sq = (3 + math.sqrt(5)) / 2
    assert thr == pytest.approx(
        max(8 * 2 * math.log(1000) / 1000 * 1.5 ** 2 * kappa_sq, 0.25),
        rel=1e-12)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    # z matches the two-sided 99% quantile convention baked into WILSON_Z
    assert WILSON_Z == pytest.approx(2.5758293035489004, rel=1e-12)
    z = WILSON_Z
    phat, total = 0.5, 100
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * 0.5 / total + z * z / (4 * total * total))
    half /= denom
    assert lo == pytest.approx(center - half, rel=1e-12)
    assert hi == pytest.approx(center + half, rel=1e-12)
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 > 0.0


def test_spectral_budget_by_density_kind():
    model = SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))
    assert spectral_budget(model, "plain", 4) == pytest.approx(
        model.spectral_function(4))
    assert spectral_budget(model, "spectral-mix", 4) == pytest.approx(6.0)
    assert spectral_budget(model, "spectral-mix-atom", 4) == pytest.approx(
        9.0)


def test_tail_experiment_deterministic_and_inside_envelope():
    fam = SphereVectorFamily(6)
    grid = default_t_grid(fam, 600, points=5)
    exp = TailExperiment(family=fam, n=600, t_grid=grid, trials=150, seed=31)
    devs = exp.run()
    exp2 = TailExperiment(family=fam, n=600, t_grid=grid, trials=150, seed=31)
    np.testing.assert_array_equal(devs, exp2.run())
    for t, rate, lo, hi, env in exp.curve():
        assert lo <= rate <= hi
        assert rate <= env + 3 * math.sqrt(max(rate * (1 - rate), 0.0) / 150)


def test_envelope_monotone_in_t_and_n():
    for t1, t2 in ((0.3, 0.5), (0.5, 0.9)):
        assert tail_envelope(5000, t2, 1.0) <= tail_envelope(5000, t1, 1.0)
    assert tail_envelope(10_000, 0.5, 1.0) <= tail_envelope(2000, 0.5, 1.0)


def explicit_deviation(fam, n, rng):
    """||(1/n) Y*Y - Lambda|| from the explicit n x dim block of draws."""
    Y = fam.sample(rng, n)
    E = Y.conj().T @ Y / n - fam.expectation()
    eigs = np.linalg.eigvalsh(0.5 * (E + E.conj().T))
    return float(max(abs(eigs[0]), abs(eigs[-1])))


@pytest.mark.parametrize("basis", ["cosine", "fourier"])
@pytest.mark.parametrize("dim", [1, 2, 64, 257])
def test_kernel_deviation_from_moment_gram_matches_explicit_block(basis,
                                                                  dim):
    model = SpectralKernelModel(get_basis(basis), SobolevDecay(1.0))
    fam = KernelVectorFamily(model, dim)
    n = 1000
    for t in range(3):
        dev = deviation_trial(fam, n, trial_rng(171, t))
        ref = explicit_deviation(fam, n, trial_rng(171, t))
        # at dim = 1 the deviation is about zero, so scale by ||Lambda||
        assert abs(dev - ref) <= 1e-12 * max(dev, fam.lambda_op)
        # the per-node norms the check reads are the block's row norms
        x = trial_rng(171, t).random(n)
        Y = fam.sample(trial_rng(171, t), n)
        np.testing.assert_allclose(
            model.basis.head_and_gram(model.rule, dim, x)[0],
            np.sum(np.abs(Y) ** 2, axis=1), rtol=1e-13)


def test_two_point_count_matches_explicit_block():
    fam = TwoPointVectorFamily()
    for n in (1, 2, 1000):
        for t in range(20):
            assert (deviation_trial(fam, n, trial_rng(9, t))
                    == explicit_deviation(fam, n, trial_rng(9, t)))
    for a in (0.5, 2.0):
        fam = TwoPointVectorFamily(a=a, m_bound=max(a, 1.0))
        for n in (1, 2, 1000):
            for t in range(20):
                assert deviation_trial(fam, n, trial_rng(9, t)) \
                    == pytest.approx(explicit_deviation(fam, n,
                                                        trial_rng(9, t)),
                                     rel=0.0, abs=1e-15)


def test_understated_kernel_norm_bound_raises():
    model = SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))
    fam = KernelVectorFamily(model, 64)
    deviation_trial(fam, 200, trial_rng(2))
    fam.m_bound *= 0.9
    with pytest.raises(ValueError, match="exceeds the stated bound"):
        deviation_trial(fam, 200, trial_rng(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_norm_check_rejects_non_finite_norms(bad):
    from rkhslab.concentration import _check_norms
    _check_norms(np.array([1.0, 0.25]), 1.0)
    # NaN fails every comparison, so a bare "exceeds" test lets it through
    with pytest.raises(ValueError, match="not finite"):
        _check_norms(np.array([1.0, bad]), 1.0)
    with pytest.raises(ValueError, match="not finite"):
        _check_norms(np.array([bad]), math.inf)


def test_two_point_norm_check_reads_the_drawn_vectors():
    # one draw each: stream `with_e1` picks a e_1, stream `without_e1` e_2
    picks = [bool(trial_rng(0, t).random(1)[0] < 0.5) for t in range(20)]
    with_e1, without_e1 = picks.index(True), picks.index(False)
    wide = TwoPointVectorFamily(a=2.0, m_bound=1.5)
    with pytest.raises(ValueError, match="norm 2 exceeds the stated bound "
                                         "1.5"):
        deviation_trial(wide, 1, trial_rng(0, with_e1))
    assert deviation_trial(wide, 1, trial_rng(0, without_e1)) == 2.0
    narrow = TwoPointVectorFamily(a=0.5, m_bound=0.75)
    with pytest.raises(ValueError, match="norm 1 exceeds the stated bound "
                                         "0.75"):
        deviation_trial(narrow, 1, trial_rng(0, without_e1))
    assert deviation_trial(narrow, 1, trial_rng(0, with_e1)) == 0.5
