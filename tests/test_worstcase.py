import math
import warnings

import numpy as np
import pytest

from rkhslab import (BOUND_NAMES, FAIL_MULT, KAPPA, KAPPA_SQ,
                     ExplicitEigenvalues, GeometricDecay, PolynomialDecay,
                     SamplingDensity,
                     SobolevDecay, SpectralKernelModel, assemble_design,
                     bound, choose_m, draw_nodes, exact_wce_discretization,
                     exact_wce_recovery, fail_prob, get_basis, max_m_under,
                     mc_sup_quadratic, mc_sup_singular, model_bound_inputs,
                     nodes_from_points, power_iteration_norm,
                     recovery_error_matrix, spectral_budget,
                     wce_nullspace_component)
from rkhslab import RankDeficientError, worstcase
from rkhslab.densities import trial_rng


def fourier_poly():
    return SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0))


def cosine_sob():
    return SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))


def test_constants():
    assert KAPPA == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)
    assert KAPPA_SQ == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-15)
    assert FAIL_MULT == pytest.approx(2.0 ** 0.75 + 1.0, rel=1e-15)


def test_fail_prob():
    assert fail_prob(1000, 2.0) == pytest.approx(0.001, rel=1e-12)
    assert fail_prob(100, 3.0, mult=2.0) == pytest.approx(2e-4, rel=1e-12)


def test_choose_m_arithmetic():
    assert choose_m(1000, 2.0) == 5
    for n, r in ((50, 2.0), (797, 3.5), (16384, 2.0)):
        assert choose_m(n, r) == int(n / (14.0 * r * math.log(n)))
    with pytest.raises(ValueError):
        choose_m(2, 2.0)


def test_max_m_under_budgets():
    model = cosine_sob()
    assert max_m_under(model, 2000, 2.0, c=7.0, density_kind="plain") == 10
    assert max_m_under(model, 2000, 2.0, c=10.0, density_kind="plain") == 8
    # with the mixture density the budget counts 2(m-1)
    m_mix = max_m_under(model, 2000, 2.0, c=7.0,
                        density_kind="spectral-mix")
    budget = 2000 / (7.0 * 2.0 * math.log(2000))
    assert 2.0 * (m_mix - 1) <= budget < 2.0 * m_mix


@pytest.mark.parametrize("kind", ["plain", "spectral-mix",
                                  "spectral-mix-atom"])
def test_max_m_under_is_largest_m_within_spectral_budget(kind):
    model = cosine_sob()
    budget = 2000 / (7.0 * 2.0 * math.log(2000))
    m = max_m_under(model, 2000, 2.0, c=7.0, density_kind=kind)
    assert spectral_budget(model, kind, m) <= budget
    assert spectral_budget(model, kind, m + 1) > budget


def test_max_m_under_rejects_unknown_density_kind():
    with pytest.raises(ValueError):
        max_m_under(cosine_sob(), 2000, 2.0, density_kind="kernel-diag")


def test_pinned_bound_values():
    rep = bound("recovery-tail-sup", n=1000, r=2.0, sigma_m_sq=0.01,
                tail_weighted_sup=0.5)
    assert rep.value == pytest.approx(0.7233895242536699, rel=1e-12)
    inputs = model_bound_inputs(fourier_poly(), 1000, 2.0, 5)
    assert bound("recovery-tail-sum", **inputs).value == pytest.approx(
        0.6404108306283516, rel=1e-12)


# one input set for every bound; values, constants and notes as computed by
# the per-name evaluation that the bound table replaced
_PIN_INPUTS = dict(n=1000, r=2.0, m=5, sigma_m_sq=0.004, tail_weighted_sup=0.3,
                   tail_sum=0.2, half_tail_sum=0.5, atom_mass=5.0, m0_sq=0.3,
                   trace=1.7, embedding_norm=1.0, sup_norm=1.3, sup_diag=1.69,
                   m_sq=1.3, lambda_op_norm=0.01)
_KSQ = 2.618033988749895
_PINNED_BOUNDS = {
    "recovery-tail-sup": (0.4340337145522019,
                          {"lead": 5.0, "log_coef": 8.0, "kappa_sq": _KSQ}, {}),
    "recovery-tail-sum": (0.578711619402936,
                          {"lead": 5.0, "log_coef": 16.0, "kappa_sq": _KSQ}, {}),
    "recovery-half-tail": (1.5, {"lead": 15.0}, {}),
    "recovery-atom": (2.205, {"lead": 441.0}, {}),
    "discretize-sup": (0.7002231570736234, {"inside": 21.0},
                       {"threshold_ok": True, "threshold": 70.98}),
    "discretize-trace": (0.702291767657378, {"inside": 21.0}, {}),
    "discretize-sup-final": (1.5891326883223165, {"lead": 8.0}, {}),
    "discretize-trace-final": (1.5985358403242236, {"lead": 8.0}, {}),
    "deviation-threshold": (0.37616255261190834,
                            {"log_coef": 8.0, "kappa_sq": _KSQ,
                             "fail_mult": 1.681792830507429}, {}),
    "baseline-scan": (0.026964462809917353, {}, {"argmin": 11}),
    "baseline-p2": (0.107525, {}, {"argmin": 32}),
    "choose-m": (5.0, {"denom_coef": 14.0}, {}),
}


def test_every_bound_is_pinned():
    assert set(BOUND_NAMES) == set(_PINNED_BOUNDS)
    inputs = dict(_PIN_INPUTS, rule=PolynomialDecay(1.0))
    for name in BOUND_NAMES:
        value, constants, notes = _PINNED_BOUNDS[name]
        rep = bound(name, **inputs)
        assert rep.value == pytest.approx(value, rel=1e-14, abs=0), name
        assert rep.constants == pytest.approx(constants, rel=1e-14, abs=0), name
        assert rep.notes == pytest.approx(notes, rel=1e-14, abs=0), name


def test_bound_reports_are_auditable():
    model = cosine_sob()
    density = SamplingDensity(model, "plain")
    inputs = model_bound_inputs(model, 500, 2.0, 4, density=density)
    for name in BOUND_NAMES:
        if name == "deviation-threshold":
            rep = bound(name, n=500, r=2.0, m_sq=2.0, lambda_op_norm=1.0)
        else:
            rep = bound(name, **inputs)
        assert rep.name == name
        assert rep.value > 0.0
        assert rep.inputs["n"] == 500
        assert isinstance(rep.constants, dict)


def test_baseline_scan_beats_class_envelope():
    # sigma_l^2 = l^(-2) lies below the p=2 majorant tr/l for every l
    for n in (256, 1024, 10000):
        inputs = model_bound_inputs(fourier_poly(), n, 2.0,
                                    max(2, choose_m(n, 2.0)))
        scan = bound("baseline-scan", **inputs)
        p2 = bound("baseline-p2", **inputs)
        assert scan.value <= p2.value + 1e-12
        assert scan.notes["argmin"] >= 1


def test_unknown_bound_name():
    with pytest.raises(ValueError):
        bound("no-such-bound", n=10, r=2.0)


def wce_setup(n=40, m=4, seed=1):
    model = fourier_poly()
    density = SamplingDensity(model, "spectral-mix", m=m)
    nodes = draw_nodes(density, n, seed=seed)
    return model, density, nodes


def test_recovery_dense_vs_secular():
    model, density, nodes = wce_setup(n=30, m=4)
    dense = exact_wce_recovery(model, nodes, 4, trunc=550)
    secular = exact_wce_recovery(model, nodes, 4, trunc=700)
    em = recovery_error_matrix(model, nodes, 4, trunc=700)
    top = float(np.linalg.svd(em.matrix, compute_uv=False)[0])
    assert secular.value_sq == pytest.approx(top * top, rel=1e-10)
    # value grows with truncation, residual shrinks
    assert secular.value_sq >= dense.value_sq - 1e-12
    assert secular.residual <= dense.residual
    assert secular.upper_sq >= secular.value_sq


@pytest.mark.parametrize("case, m, trunc", [
    # top eigenvalue ~1e-14, within 1e-13 of the largest tail eigenvalue
    ("geometric", 8, 20), ("geometric", 8, 700),
    ("poly-spectral-mix", 4, 450),
    # N = m-1: the fit is exact, so the value is zero
    ("geometric", 8, 7), ("poly-spectral-mix", 4, 3),
])
def test_recovery_secular_matches_dense_oracle(case, m, trunc):
    if case == "geometric":
        model = SpectralKernelModel(get_basis("fourier"), GeometricDecay(0.01))
        density = SamplingDensity(model, "plain")
        nodes = draw_nodes(density, 100, seed=1)
    else:
        model, density, nodes = wce_setup(n=40, m=m, seed=2)
    wce = exact_wce_recovery(model, nodes, m, trunc=trunc)
    em = recovery_error_matrix(model, nodes, m, trunc=trunc)
    top = float(np.linalg.svd(em.matrix, compute_uv=False)[0])
    assert wce.trunc_dim == trunc
    if trunc == m - 1:
        assert wce.value_sq <= 1e-25
    else:
        assert abs(wce.value_sq - top * top) <= 1e-10 * top * top


@pytest.mark.parametrize("seed", [0, 5])
def test_recovery_secular_near_the_cost_cliff(seed):
    # m - 1 = 120 next to N = 128, where every secular step costs most
    model = fourier_poly()
    density = SamplingDensity(model, "plain")
    nodes = draw_nodes(density, 400, seed=seed)
    wce = exact_wce_recovery(model, nodes, 121, trunc=128)
    em = recovery_error_matrix(model, nodes, 121, trunc=128)
    top_sq = float(np.linalg.svd(em.matrix, compute_uv=False)[0]) ** 2
    assert abs(wce.value_sq - top_sq) <= 1e-10 * top_sq
    # the upper bracket end is returned; the SVD carries a few eps of its
    # own rounding (seed 5 lands 2.5e-16 relative under it)
    assert wce.value_sq >= top_sq * (1.0 - 4.0 * np.finfo(float).eps)


def test_recovery_value_bounded_by_single_function():
    # the first excluded eigenfunction gives a lower bound on the sup
    model, density, nodes = wce_setup(n=50, m=5)
    wce = exact_wce_recovery(model, nodes, 5, trunc=400)
    em = recovery_error_matrix(model, nodes, 5, trunc=400)
    e = np.zeros(em.matrix.shape[1])
    e[4] = 1.0  # unit coefficient on eta_m, H-norm 1
    val = float(np.linalg.norm(em.matrix @ e) ** 2)
    assert wce.value_sq >= val - 1e-12


def test_recovery_mc_power_iteration_oracle():
    model, density, nodes = wce_setup(n=45, m=4, seed=3)
    wce = exact_wce_recovery(model, nodes, 4, trunc=300)
    em = recovery_error_matrix(model, nodes, 4, trunc=300)
    raw, refined = mc_sup_singular(em.matrix, 10_000, trial_rng(77))
    assert raw <= math.sqrt(wce.value_sq) + 1e-10
    assert refined >= 0.99 * math.sqrt(wce.value_sq)


def test_discretization_identity_on_equispaced_fourier():
    # truncation below the aliasing limit makes the deviation exactly zero
    model = fourier_poly()
    x = np.arange(16) / 16.0
    val = exact_wce_discretization(model, x, trunc=7)
    assert val.value <= 1e-13
    assert val.trunc_dim == 7


def test_discretization_mc_oracle():
    rng = trial_rng(123)
    lam = np.sort(rng.random(24))[::-1]
    model = SpectralKernelModel(get_basis("cosine"),
                                ExplicitEigenvalues(lam.tolist()))
    x = rng.random(30)
    out = exact_wce_discretization(model, x)
    assert out.residual == 0.0  # finite rank, fully covered
    sig = model.singular_values(np.arange(1, 25))
    G = model.basis.eval_block(np.arange(1, 25), x) * sig[None, :]
    Y = np.diag(sig ** 2) - G.conj().T @ G / x.size
    raw, refined = mc_sup_quadratic(Y, 10_000, trial_rng(99))
    assert raw <= out.value + 1e-10
    assert refined == pytest.approx(out.value, rel=0.01)


def test_discretization_weighted_matches_manual():
    model = cosine_sob()
    density = SamplingDensity(model, "kernel-diag")
    nodes = draw_nodes(density, 60, seed=8)
    w = 1.0 / nodes.density_values
    out = exact_wce_discretization(model, nodes, weights=w, trunc=64)
    sig = model.singular_values(np.arange(1, 65))
    G = model.basis.eval_block(np.arange(1, 65), nodes.x) * sig[None, :]
    Gw = G * np.sqrt(w)[:, None]
    Y = np.diag(sig ** 2) - Gw.conj().T @ Gw / 60
    eigs = np.linalg.eigvalsh(0.5 * (Y + Y.conj().T))
    assert out.value == pytest.approx(max(abs(eigs[0]), abs(eigs[-1])),
                                      rel=1e-12)


@pytest.mark.parametrize("weights", [
    np.full(30, math.nan), np.r_[np.ones(29), math.inf],
    np.r_[np.ones(29), -1.0], np.ones(29)],
    ids=["nan", "inf", "negative", "wrong-length"])
def test_discretization_rejects_weights_not_finite_and_non_negative(weights):
    # trunc above the dense cutoff: nothing may reach the Lanczos solve
    x = trial_rng(4).random(30)
    with pytest.raises(ValueError, match="weights"):
        exact_wce_discretization(cosine_sob(), x, weights=weights, trunc=64)


def test_discretization_lanczos_agrees_with_dense():
    model = cosine_sob()
    rng = trial_rng(55)
    x = rng.random(200)
    # trunc above the dense cutoff takes the iterative path
    out = exact_wce_discretization(model, x, trunc=1100)
    sig = model.singular_values(np.arange(1, 1101))
    G = model.basis.eval_block(np.arange(1, 1101), x) * sig[None, :]
    Y = np.diag(sig ** 2) - G.conj().T @ G / x.size
    eigs = np.linalg.eigvalsh(0.5 * (Y + Y.conj().T))
    assert out.value == pytest.approx(max(abs(eigs[0]), abs(eigs[-1])),
                                      rel=1e-8)


def test_nullspace_identity_gram():
    model = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0),
                                atom_mass=0.4)
    density = SamplingDensity(model, "plain")
    nodes = nodes_from_points(density, np.arange(20) / 20.0)
    ds = assemble_design(model, nodes, 5)
    rep = wce_nullspace_component(0.4, ds)
    assert rep.component == pytest.approx(0.4 / 20, rel=1e-10)
    assert rep.envelope == pytest.approx(2 * 0.4 / 20, rel=1e-12)
    assert rep.within_envelope is True


@pytest.mark.parametrize("name", ["fourier", "cosine"])
@pytest.mark.parametrize("kind", ["plain", "spectral-mix-atom"])
@pytest.mark.parametrize("m", [2, 5, 9])
def test_nullspace_component_matches_the_dense_formula(name, kind, m):
    # reference: a lambda_max(M M*) with M = (L*L)^-1 L* W from the whole
    # design, against the component read from the w^4 moment Gram
    model = SpectralKernelModel(get_basis(name), SobolevDecay(1.0),
                                atom_mass=0.3)
    density = SamplingDensity(model, kind, m=m)
    nodes = draw_nodes(density, 60, seed=3)
    ds = assemble_design(model, nodes, m)
    if name == "cosine" and kind != "plain":
        assert np.ptp(ds.weights) > 0.1
    M = ds.solve(ds.matrix.conj().T) * ds.weights[None, :]
    want = 0.3 * float(np.linalg.eigvalsh(M @ M.conj().T)[-1])
    rep = wce_nullspace_component(0.3, ds)
    assert rep.component == pytest.approx(want, rel=1e-12, abs=0.0)


def test_power_iteration_norm():
    rng = trial_rng(7)
    A = rng.standard_normal((18, 12))
    exact = float(np.linalg.svd(A, compute_uv=False)[0])
    assert power_iteration_norm(A, rng=trial_rng(8)) == pytest.approx(
        exact, rel=1e-7)


def test_wce_residual_is_conservative():
    model, density, nodes = wce_setup(n=35, m=4, seed=5)
    small = exact_wce_recovery(model, nodes, 4, trunc=80)
    big = exact_wce_recovery(model, nodes, 4, trunc=2000)
    # the small truncation's upper estimate must cover the larger value
    assert small.upper_sq >= big.value_sq - 1e-12


def test_deviation_threshold_bound_name():
    rep = bound("deviation-threshold", n=1000, r=2.0, m_sq=1.3,
                lambda_op_norm=0.5)
    direct = max(8 * 2.0 * math.log(1000) / 1000 * 1.3 * KAPPA_SQ, 0.5)
    assert rep.value == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("name", ["fourier", "cosine"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_discretization_at_the_smallest_truncations(name, N):
    # N <= 2 sits below what ARPACK accepts, N = 3 is its first size
    model = SpectralKernelModel(get_basis(name), SobolevDecay(1.0))
    rng = trial_rng(61)
    x = rng.random(40)
    w = rng.random(40) + 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = exact_wce_discretization(model, x, weights=w, trunc=N)
    assert out.trunc_dim == N
    sig = model.singular_values(np.arange(1, N + 1))
    G = model.basis.eval_block(np.arange(1, N + 1), x) * sig[None, :]
    Gw = G * np.sqrt(w)[:, None]
    Y = np.diag(sig ** 2) - Gw.conj().T @ Gw / 40
    eigs = np.linalg.eigvalsh(0.5 * (Y + Y.conj().T))
    assert out.value == pytest.approx(max(abs(eigs[0]), abs(eigs[-1])),
                                      rel=1e-12)


@pytest.mark.parametrize("steps", [0, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_secular_step_cap_stays_conservative(monkeypatch, steps, seed):
    # a cap that ends Newton early still returns the upper bracket end
    monkeypatch.setattr(worstcase, "_SECULAR_STEPS", steps)
    model = fourier_poly()
    density = SamplingDensity(model, "plain")
    nodes = draw_nodes(density, 400, seed=seed)
    wce = exact_wce_recovery(model, nodes, 121, trunc=128)
    em = recovery_error_matrix(model, nodes, 121, trunc=128)
    top_sq = float(np.linalg.svd(em.matrix, compute_uv=False)[0]) ** 2
    assert wce.value_sq >= top_sq


def test_nullspace_component_on_a_rank_deficient_design_raises():
    model = SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0),
                                atom_mass=0.2)
    density = SamplingDensity(model, "plain")
    x = np.array([0.3, 0.3 + 1e-13, 0.30000001 + 1e-13])
    nodes = nodes_from_points(density, x)
    ds = assemble_design(model, nodes, 4)
    assert not ds.full_rank
    with pytest.raises(RankDeficientError):
        wce_nullspace_component(0.2, ds)


_CAP_CONFIGS = {
    # criterion 4: auto truncation N = 4096, trials 0-7
    "recover": ("kind = recover\nbasis = fourier\ndecay = poly\ns = 1.0\n"
                "density = spectral-mix-atom\natom_mass = 0.3\nn = 1000\n"
                "r = 2.0\nm_rule = auto\ntrials = 8\nseed = 104\n"),
    # criterion 8 (sweep-dense): trial 0 at every grid point, N = 512
    "sweep": ("kind = sweep\nbasis = fourier\ndecay = poly\ns = 1.0\n"
              "density = spectral-mix\n"
              "n_grid = 256,512,1024,2048,4096,8192,16384\nr = 2.0\n"
              "m_rule = auto\ntrials = 1\nseed = 108\ntrunc = 512\n"),
}


def _cap_config_wces(monkeypatch, text, steps):
    from rkhslab import experiment as ex
    monkeypatch.setattr(worstcase, "_SECULAR_STEPS", steps)
    cfg = ex.build_config(ex.parse_config(text))
    model = ex.build_model(cfg)
    out = []
    for g, n in enumerate(cfg.n_grid or (cfg.n,)):
        m = ex.resolve_m(cfg, model, n)
        density = SamplingDensity(model, cfg.density, m=m)
        for t in range(cfg.trials):
            nodes = draw_nodes(density, n, cfg.seed,
                               g * ex._SWEEP_STREAM_STRIDE + t)
            out.append(exact_wce_recovery(model, nodes, m,
                                          trunc=cfg.trunc))
    return out


def _capped_value_sq_bits(monkeypatch, text, steps):
    return [wce.value_sq.hex()
            for wce in _cap_config_wces(monkeypatch, text, steps)]


@pytest.mark.parametrize("name", sorted(_CAP_CONFIGS))
def test_secular_step_cap_is_not_reached_on_benchmark_configs(monkeypatch,
                                                              name):
    # the 90-step cap ends the solve silently; on these configs the bracket
    # closes within 12 steps, so the cap never decides a value
    text = _CAP_CONFIGS[name]
    at_cap = _capped_value_sq_bits(monkeypatch, text, 90)
    assert _capped_value_sq_bits(monkeypatch, text, 12) == at_cap


@pytest.mark.parametrize("name", sorted(_CAP_CONFIGS))
def test_secular_step_cap_flag_is_clear_on_benchmark_configs(monkeypatch,
                                                             name):
    wces = _cap_config_wces(monkeypatch, _CAP_CONFIGS[name], 90)
    assert wces
    for wce in wces:
        assert not wce.secular_capped
        assert 0.0 <= wce.secular_width <= worstcase._SECULAR_WIDTH


def _secular_replay(d, C, steps):
    """Oracle: the secular solve of _lowrank_plus_diag_norm with at most
    ``steps`` probes, as (upper bracket end, relative bracket width)."""
    gram_small = C @ C.conj().T
    big = float(np.linalg.eigvalsh(0.5 * (gram_small
                                          + gram_small.conj().T))[-1])
    d_max = float(d.max())

    def top(mu):
        scaled = C * (1.0 / (mu - d))[None, :]
        w = scaled @ C.conj().T
        vals, vecs = np.linalg.eigh(0.5 * (w + w.conj().T))
        return (float(vals[-1]),
                float(np.sum(np.abs(vecs[:, -1].conj() @ scaled) ** 2)))

    lo = d_max + 1e-13 * max(d_max, big)
    val, slope = top(lo)
    assert val >= 1.0
    hi = d_max + big + 1e-30
    nudge_rel = 0.1 * worstcase._SECULAR_WIDTH
    for _ in range(steps):
        if hi - lo <= worstcase._SECULAR_WIDTH * hi:
            break
        if slope > 0.0:
            mu = min(max(lo + val * (val - 1.0) / slope,
                         lo + nudge_rel * hi), hi - nudge_rel * hi)
        else:
            mu = 0.5 * (lo + hi)
        v, sl = top(mu)
        if v >= 1.0:
            lo, val, slope = mu, v, sl
        else:
            hi = mu
    return hi, (hi - lo) / hi


@pytest.mark.parametrize("steps", [0, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_secular_step_cap_is_reported(monkeypatch, steps, seed):
    # the flag and the width are reported beside the value, which keeps the
    # bits of the capped solve
    model = fourier_poly()
    density = SamplingDensity(model, "plain")
    nodes = draw_nodes(density, 400, seed=seed)
    C, d, _, _, _ = worstcase._recovery_parts(model, nodes, 121,
                                              128, None)
    monkeypatch.setattr(worstcase, "_SECULAR_STEPS", steps)
    wce = exact_wce_recovery(model, nodes, 121, trunc=128)
    value, width = _secular_replay(d, C, steps)
    assert wce.value_sq.hex() == value.hex()
    assert wce.secular_capped
    assert wce.secular_width == width > worstcase._SECULAR_WIDTH
    monkeypatch.setattr(worstcase, "_SECULAR_STEPS", 90)
    closed = exact_wce_recovery(model, nodes, 121, trunc=128)
    assert not closed.secular_capped
    assert closed.secular_width <= worstcase._SECULAR_WIDTH
    assert closed.value_sq.hex() == _secular_replay(d, C, 90)[0].hex()


def test_secular_step_cap_after_the_upper_end_moved(monkeypatch):
    # on this case the upper bracket end first moves at the fourth probe
    # and leaves a bracket 1.9e-11 wide, so a cap of 4 steps returns a
    # moved upper end that the bracket has not closed on
    model = fourier_poly()
    density = SamplingDensity(model, "plain")
    nodes = draw_nodes(density, 2000, seed=2)
    monkeypatch.setattr(worstcase, "_SECULAR_STEPS", 0)
    start = exact_wce_recovery(model, nodes, 30, trunc=512)
    monkeypatch.setattr(worstcase, "_SECULAR_STEPS", 4)
    wce = exact_wce_recovery(model, nodes, 30, trunc=512)
    em = recovery_error_matrix(model, nodes, 30, trunc=512)
    top_sq = float(np.linalg.svd(em.matrix, compute_uv=False)[0]) ** 2
    assert wce.secular_capped
    assert 1e-12 < wce.secular_width < 1e-10
    assert wce.value_sq != start.value_sq
    # the dense SVD and the solve's eigh sign tests each round at about
    # N eps, so the value may sit a few ulps under the SVD's top^2 (the
    # closed bracket does too); an allowance of 1e-13 is far narrower than
    # the bracket, whose lower end falls outside it
    assert wce.value_sq >= top_sq * (1.0 - 1e-13)
    assert wce.value_sq * (1.0 - wce.secular_width) < top_sq * (1.0 - 1e-13)
