import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, solve_triangular

from rkhslab import leastsq
from rkhslab import (PolynomialDecay, RankDeficientError, SamplingDensity,
                     SobolevDecay, SpectralKernelModel, assemble_design,
                     draw_nodes, dump_design, exact_wce_recovery, get_basis,
                     gram_eig_check, nodes_from_points, recover,
                     wce_nullspace_component)


def fourier_model():
    return SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0))


def cosine_model():
    return SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))


def equispaced(density, n):
    return nodes_from_points(density, np.arange(n) / n)


def sample_vector(model, coef, x):
    block = model.basis.eval_block(np.arange(1, coef.size + 1), x)
    return block @ coef


def test_equispaced_fourier_gram_is_identity():
    model = fourier_model()
    density = SamplingDensity(model, "plain")
    nodes = equispaced(density, 16)
    ds = assemble_design(model, nodes, m=6)
    np.testing.assert_allclose(ds.gram, np.eye(5), atol=1e-12)
    assert ds.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert ds.lambda_max == pytest.approx(1.0, abs=1e-12)
    assert ds.pinv_norm() == pytest.approx(1.0 / math.sqrt(16), rel=1e-12)


def test_pinv_norm_two_ways():
    model = cosine_model()
    density = SamplingDensity(model, "spectral-mix", m=5)
    nodes = draw_nodes(density, 120, seed=21)
    ds = assemble_design(model, nodes, m=5)
    assert ds.pinv_norm() == pytest.approx(1.0 / ds.singular_values()[-1],
                                           rel=1e-10)


def test_known_coefficients_recovered():
    model = cosine_model()
    density = SamplingDensity(model, "spectral-mix", m=6)
    nodes = draw_nodes(density, 80, seed=2)
    rng = np.random.default_rng(8)
    coef = rng.standard_normal(5)
    samples = sample_vector(model, coef, nodes.x)
    out = recover(model, nodes, 6, samples)
    np.testing.assert_allclose(out.values, coef, atol=1e-10)
    assert out.residual_norm < 1e-10


def test_recovery_is_linear():
    model = fourier_model()
    density = SamplingDensity(model, "spectral-mix", m=4)
    nodes = draw_nodes(density, 50, seed=3)
    ds = assemble_design(model, nodes, 4)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    g = rng.standard_normal(50)
    a, b = 1.7, -0.3 + 0.2j
    left = recover(model, nodes, 4, a * f + b * g, design=ds).values
    right = (a * recover(model, nodes, 4, f, design=ds).values
             + b * recover(model, nodes, 4, g, design=ds).values)
    np.testing.assert_allclose(left, right, atol=1e-10)


def test_recovery_is_idempotent():
    # fitting the fitted function returns the same coefficients
    model = cosine_model()
    density = SamplingDensity(model, "spectral-mix", m=5)
    nodes = draw_nodes(density, 60, seed=5)
    rng = np.random.default_rng(6)
    samples = rng.standard_normal(60)
    first = recover(model, nodes, 5, samples)
    again = recover(model, nodes, 5,
                    sample_vector(model, first.values, nodes.x))
    np.testing.assert_allclose(again.values, first.values, atol=1e-10)


def test_normal_equations_hold():
    model = cosine_model()
    density = SamplingDensity(model, "kernel-diag")
    nodes = draw_nodes(density, 70, seed=7)
    ds = assemble_design(model, nodes, 6)
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(70)
    coef = recover(model, nodes, 6, samples, design=ds).values
    g = samples * ds.weights
    grad = ds.matrix.conj().T @ (ds.matrix @ coef - g)
    assert float(np.linalg.norm(grad)) < 1e-8 * max(
        1.0, float(np.linalg.norm(g)))


def test_first_excluded_function_maps_to_zero():
    # f = eta_m on equispaced nodes: sampled column is orthogonal to the
    # design columns, so the fit is exactly zero
    model = fourier_model()
    density = SamplingDensity(model, "plain")
    nodes = equispaced(density, 12)
    m = 4
    samples = model.basis.eval(m, nodes.x)
    out = recover(model, nodes, m, samples)
    np.testing.assert_allclose(out.values, np.zeros(m - 1), atol=1e-12)


def test_single_node_constant_fit():
    model = cosine_model()
    density = SamplingDensity(model, "plain")
    nodes = nodes_from_points(density, np.array([0.42]))
    out = recover(model, nodes, 2, np.array([3.5]))
    assert out.values[0] == pytest.approx(3.5, rel=1e-12)


def test_near_duplicate_nodes_rank_deficient():
    model = cosine_model()
    density = SamplingDensity(model, "plain")
    x = np.array([0.3, 0.3 + 1e-13, 0.30000001 + 1e-13])
    nodes = nodes_from_points(density, x)
    ds = assemble_design(model, nodes, 4)
    assert not ds.full_rank
    with pytest.raises(RankDeficientError):
        recover(model, nodes, 4, np.zeros(3), design=ds)


def test_exact_duplicates_rejected():
    model = cosine_model()
    density = SamplingDensity(model, "plain")
    with pytest.raises(ValueError):
        nodes_from_points(density, np.array([0.3, 0.3, 0.5]))


def test_shape_validation():
    model = cosine_model()
    density = SamplingDensity(model, "plain")
    nodes = nodes_from_points(density, np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        assemble_design(model, nodes, 4)  # m-1 > n
    with pytest.raises(ValueError):
        assemble_design(model, nodes, 1)  # empty span


def test_gram_eig_check_report():
    model = cosine_model()
    density = SamplingDensity(model, "spectral-mix", m=4)
    nodes = draw_nodes(density, 400, seed=12)
    ds = assemble_design(model, nodes, 4)
    chk = gram_eig_check(ds)
    assert chk["eig_ok"] == (chk["lambda_min"] >= 0.5)
    assert chk["norm_lo"] == pytest.approx(math.sqrt(2.0 / (3 * 400)))
    assert chk["norm_hi"] == pytest.approx(math.sqrt(2.0 / 400))
    assert chk["norm_ok"] == (chk["norm_lo"] <= chk["pinv_norm"]
                              <= chk["norm_hi"])


def assert_spectrum_matches_design(model, nodes, m):
    got = gram_eig_check(leastsq.gram_spectrum(model, nodes, m))
    want = gram_eig_check(assemble_design(model, nodes, m))
    for key in ("lambda_min", "lambda_max", "pinv_norm"):
        assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0.0)
    # the predicates and the window are the same
    assert got == {**want, "lambda_min": got["lambda_min"],
                   "lambda_max": got["lambda_max"],
                   "pinv_norm": got["pinv_norm"]}


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
@pytest.mark.parametrize("kind", ["plain", "spectral-mix"])
@pytest.mark.parametrize("m", [2, 3, 10, 33])
def test_moment_gram_spectrum_matches_the_factored_design(model_of, kind, m):
    # the QR path is the oracle: R's singular values give the same extreme
    # Gram eigenvalues as eigvalsh of the moment Gram with weights 1/rho
    model = model_of()
    density = SamplingDensity(model, kind, m=m)
    nodes = draw_nodes(density, 300, seed=m)
    # |eta_k|^2 = 1 makes Fourier's spectral-mix density uniform
    if kind == "spectral-mix" and model_of is cosine_model:
        assert np.ptp(nodes.density_values) > 0.1
    assert_spectrum_matches_design(model, nodes, m)


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
@pytest.mark.parametrize("m", [3, 10])
def test_moment_gram_spectrum_reads_any_node_weights(model_of, m):
    # density values far from 1, a tenth of them zero (a zero design row)
    model = model_of()
    density = SamplingDensity(model, "plain")
    nodes = draw_nodes(density, 300, seed=m)
    rng = np.random.default_rng(m)
    nodes.density_values = (rng.uniform(0.2, 3.0, 300)
                            * (rng.random(300) > 0.1))
    assert_spectrum_matches_design(model, nodes, m)


def test_moment_gram_spectrum_clamps_lambda_min_at_zero(monkeypatch):
    model = fourier_model()
    density = SamplingDensity(model, "plain")
    nodes = equispaced(density, 8)
    # eigvalsh of a singular Gram can dip below zero
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: np.array([-1e-17, 1.0]))
    spectrum = leastsq.gram_spectrum(model, nodes, 3)
    assert spectrum.lambda_min == 0.0 and spectrum.pinv_norm() == math.inf
    monkeypatch.undo()
    # zero density at every node: the zero Gram, as the zero design
    nodes.density_values = np.zeros(8)
    spectrum = leastsq.gram_spectrum(model, nodes, 3)
    chk = gram_eig_check(spectrum)
    assert (spectrum.lambda_min, spectrum.lambda_max) == (0.0, 0.0)
    assert chk["pinv_norm"] == math.inf and not chk["norm_ok"]
    assert not chk["eig_ok"] and not any(
        isinstance(v, float) and math.isnan(v) for v in chk.values())
    assert assemble_design(model, nodes, 3).pinv_norm() == math.inf
    with pytest.raises(ValueError):
        leastsq.gram_spectrum(model, nodes, 1)  # empty span
    with pytest.raises(ValueError):
        leastsq.gram_spectrum(model, nodes, 10)  # m-1 > n


def test_dump_design_writes_csv(tmp_path):
    model = cosine_model()
    density = SamplingDensity(model, "plain")
    nodes = nodes_from_points(density, np.array([0.2, 0.4, 0.8]))
    ds = assemble_design(model, nodes, 3)
    coef = recover(model, nodes, 3, np.ones(3), design=ds)
    path = tmp_path / "design.csv"
    dump_design(ds, coef, path)
    text = path.read_text()
    assert text.startswith("section,row,col,real,imag")
    assert "coef" in text


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
def test_lambda_min_on_a_near_singular_square_design(model_of):
    # condition number about 1e6: the formed Gram would lose half the digits
    model = model_of()
    density = SamplingDensity(model, "plain")
    nodes = nodes_from_points(density, np.array([0.1, 0.3, 0.3 + 1e-6, 0.8]))
    ds = assemble_design(model, nodes, 5)
    smin = np.linalg.svd(ds.matrix, compute_uv=False)[-1]
    assert ds.full_rank
    assert ds.lambda_min == pytest.approx(smin ** 2 / 4, rel=1e-8, abs=0.0)


def test_recover_matches_lstsq_on_an_ill_conditioned_design():
    model = fourier_model()
    density = SamplingDensity(model, "plain")
    nodes = nodes_from_points(density, 0.1 + 0.1 * np.arange(8) / 8)
    ds = assemble_design(model, nodes, 6)
    assert 1e4 < np.linalg.cond(ds.matrix) < 1e5
    rng = np.random.default_rng(3)
    # random samples: far from the span of the five columns
    samples = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    got = recover(model, nodes, 6, samples, design=ds)
    want, resid, _, _ = np.linalg.lstsq(ds.matrix, samples * ds.weights,
                                        rcond=None)
    assert math.sqrt(float(resid[0])) > 1.0
    assert np.linalg.norm(got.values - want) <= 1e-10 * np.linalg.norm(want)


def test_solve_matches_dense_solve():
    model = fourier_model()
    density = SamplingDensity(model, "spectral-mix", m=8)
    nodes = draw_nodes(density, 200, seed=31)
    ds = assemble_design(model, nodes, 8)
    rng = np.random.default_rng(32)
    rhs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    normal = ds.matrix.conj().T @ ds.matrix
    assert np.linalg.cond(normal) < 10.0
    np.testing.assert_allclose(ds.solve(rhs), np.linalg.solve(normal, rhs),
                               rtol=1e-12, atol=1e-12 * np.abs(rhs).max())


@pytest.mark.parametrize("atom_mass", [-0.1, math.nan, math.inf])
def test_atom_mass_must_be_non_negative_and_finite(atom_mass):
    model = fourier_model()
    density = SamplingDensity(model, "plain")
    nodes = equispaced(density, 16)
    ds = assemble_design(model, nodes, 6)
    with pytest.raises(ValueError, match="atom mass"):
        SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0),
                            atom_mass=atom_mass)
    with pytest.raises(ValueError, match="atom mass"):
        wce_nullspace_component(atom_mass, ds)
@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
def test_solve_keeps_its_rhs_and_the_bits_of_two_triangular_solves(model_of):
    # solve overwrites only its own intermediate: every rhs, a Fortran block
    # of the factor's dtype too, comes back unchanged
    model = model_of()
    density = SamplingDensity(model, "spectral-mix", m=8)
    nodes = draw_nodes(density, 200, seed=31)
    rng = np.random.default_rng(33)
    designs = (assemble_design(model, nodes, 8),
               leastsq.gram_design(model, nodes, 8))
    assert designs[1] is not None
    for ds in designs:
        for rhs in (rng.standard_normal(7), rng.standard_normal((7, 3)),
                    np.asfortranarray(rng.standard_normal((7, 3))
                                      .astype(ds.factor.dtype))):
            kept = rhs.copy()
            got = ds.solve(rhs)
            assert np.array_equal(rhs, kept)
            want = solve_triangular(
                ds.factor, solve_triangular(ds.factor, kept, trans="C",
                                            lower=False), lower=False)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
def test_recover_is_backward_stable_near_the_rank_cutoff(model_of):
    # two node pairs 1e-10 apart: condition number in (1e9, 1e10), still
    # full rank, where the formed normal equations keep no digits
    model = model_of()
    density = SamplingDensity(model, "plain")
    x = np.array([0.05, 0.3, 0.3 + 1e-10, 0.45, 0.6, 0.6 + 1e-10, 0.8])
    nodes = nodes_from_points(density, x)
    ds = assemble_design(model, nodes, 7)
    cond = np.linalg.cond(ds.matrix)
    assert ds.full_rank and 1e9 < cond < 1e10
    samples = ds.matrix @ np.ones(6) / ds.weights
    got = recover(model, nodes, 7, samples, design=ds).values
    want = np.linalg.lstsq(ds.matrix, samples * ds.weights, rcond=None)[0]
    assert (np.linalg.norm(got - want)
            <= 10.0 * cond * np.finfo(float).eps * np.linalg.norm(want))


def block_rows(k, dtype):
    row_bytes = k * np.dtype(dtype).itemsize
    return max(2 * k, leastsq._QR_BLOCK_BYTES // row_bytes)


# n = blocks * rows + extra.  One block at rows - 1, rows and rows + 1 (a
# remainder under k rows joins the block before it); two blocks, the last
# with a 4-row remainder; k = 256 has rows = 2k, so its 4 blocks stack to
# 1024 rows, which take two blocks more and then a third level
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k, blocks, extra, calls", [
    (9, 1, -1, 1), (9, 1, 0, 1), (9, 1, 1, 1), (9, 2, 4, 3),
    (256, 4, 3, 7)])
def test_blocked_triangle_matches_svd(monkeypatch, dtype, k, blocks, extra,
                                      calls):
    rows = block_rows(k, dtype)
    n = blocks * rows + extra
    rng = np.random.default_rng(k + n)
    a = rng.standard_normal((n, k)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal((n, k))
    seen = []

    def spy(names, arrays):
        geqrf, = get_lapack_funcs(names, arrays)

        def counted(block, **kw):
            seen.append(block.shape[0])
            return geqrf(block, **kw)
        return (counted,)

    monkeypatch.setattr(leastsq, "get_lapack_funcs", spy)
    r = leastsq._triangle(a)
    # every block holds k to rows + k - 1 rows, so none outgrows the budget
    assert len(seen) == calls and all(k <= s < rows + k for s in seen)
    assert r.shape == (k, k) and np.array_equal(r, np.triu(r))
    scale = np.linalg.norm(a, 2) ** 2
    np.testing.assert_allclose(r.conj().T @ r, a.conj().T @ a, rtol=0.0,
                               atol=1e-13 * scale)
    np.testing.assert_allclose(np.linalg.svd(r, compute_uv=False),
                               np.linalg.svd(a, compute_uv=False),
                               rtol=1e-13)
    if n < rows + k:
        work = np.array(a, order="F")
        geqrf, = get_lapack_funcs(("geqrf",), (work,))
        assert np.array_equal(r, np.triu(geqrf(work)[0][:k]))


def clustered_nodes(density, gap):
    # the rank-cutoff construction with every node widened into a cluster
    # of 6400 (2.5e-16 apart, away from its pair partner), 44800 in all
    base = np.array([0.05, 0.3, 0.3 + gap, 0.45, 0.6, 0.6 + gap, 0.8])
    away = np.array([1, -1, 1, 1, -1, 1, 1])
    x = base[:, None] + away[:, None] * 2.5e-16 * np.arange(6400)
    return nodes_from_points(density, x.ravel())


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
def test_blocked_recover_is_backward_stable_near_the_rank_cutoff(model_of):
    model = model_of()
    density = SamplingDensity(model, "plain")
    nodes = clustered_nodes(density, 1e-10)
    ds = assemble_design(model, nodes, 7)
    # [L g] has 7 columns and spans at least three row blocks
    assert nodes.n > 2 * block_rows(7, ds.matrix.dtype) + 7
    cond = np.linalg.cond(ds.matrix)
    assert ds.full_rank and 1e9 < cond < 1e10
    samples = ds.matrix @ np.ones(6) / ds.weights
    got = recover(model, nodes, 7, samples, design=ds).values
    want = np.linalg.lstsq(ds.matrix, samples * ds.weights, rcond=None)[0]
    assert (np.linalg.norm(got - want)
            <= 10.0 * cond * np.finfo(float).eps * np.linalg.norm(want))


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
def test_blocked_design_with_pairs_1e12_apart_is_rank_deficient(model_of):
    model = model_of()
    density = SamplingDensity(model, "plain")
    nodes = clustered_nodes(density, 1e-12)
    ds = assemble_design(model, nodes, 7)
    assert nodes.n > 2 * block_rows(6, ds.matrix.dtype)
    assert not ds.full_rank
    with pytest.raises(RankDeficientError):
        recover(model, nodes, 7, np.zeros(nodes.n), design=ds)


def test_design_is_never_held_whole():
    # the 16384 x 59 complex design is 15.5 MB; its row blocks are 1 MiB
    model = fourier_model()
    density = SamplingDensity(model, "plain")
    nodes = draw_nodes(density, 16384, seed=4)
    tracemalloc.start()
    try:
        ds = assemble_design(model, nodes, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.full_rank
    assert peak < 4 * 2**20


def spied_geqrf(monkeypatch):
    seen = []

    def spy(names, arrays):
        geqrf, = get_lapack_funcs(names, arrays)

        def counted(block, **kw):
            seen.append((block.shape[0], block.flags.f_contiguous))
            return geqrf(block, **kw)
        return (counted,)

    monkeypatch.setattr(leastsq, "get_lapack_funcs", spy)
    return seen


# k = 6 columns; n = blocks * rows + extra: one block, two blocks whose
# 3-row remainder joins the second, and four blocks, the last of 10 rows
@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
@pytest.mark.parametrize("blocks, extra, calls", [
    (1, -1, 1), (2, 3, 2), (3, 10, 4)])
def test_streamed_design_factor_matches_the_whole_design(
        monkeypatch, model_of, blocks, extra, calls):
    model = model_of()
    density = SamplingDensity(model, "spectral-mix", m=7)
    rows = block_rows(6, model.basis.dtype)
    nodes = draw_nodes(density, blocks * rows + extra, seed=blocks)
    seen = spied_geqrf(monkeypatch)
    ds = assemble_design(model, nodes, 7)
    # the design's row blocks, then (past one block) their stacked triangles;
    # each block is factored in place
    assert len(seen) == calls + (calls > 1)
    assert all(6 <= size < rows + 6 for size, _ in seen[:calls])
    assert all(fortran for _, fortran in seen)
    matrix = ds.matrix
    assert matrix.dtype == model.basis.dtype
    assert np.array_equal(matrix, model.basis.eval_block(np.arange(1, 7),
                                                         nodes.x)
                          * ds.weights[:, None])
    assert np.array_equal(ds.factor, leastsq._triangle(matrix))
    # recover streams [L g] through the same blocks
    samples = np.cos(5.0 * nodes.x)
    g = samples * ds.weights
    aug = leastsq._triangle(np.column_stack([matrix, g]))
    got = recover(model, nodes, 7, samples, design=ds)
    want = solve_triangular(aug[:6, :6], aug[:6, 6], lower=False)
    assert np.array_equal(got.values, want)
    assert got.residual_norm == pytest.approx(
        np.linalg.norm(matrix @ got.values - g), rel=1e-12)


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
@pytest.mark.parametrize("kind", ["plain", "spectral-mix"])
@pytest.mark.parametrize("n, m", [(300, 10), (16384, 60)])
def test_gram_design_matches_the_factored_design(model_of, kind, n, m):
    # the streamed QR is the oracle: the Cholesky factor of the moment Gram
    # gives the same spectrum, solves, worst-case value and nullspace part
    model = model_of()
    density = SamplingDensity(model, kind, m=m)
    nodes = draw_nodes(density, n, seed=m)
    got = leastsq.gram_design(model, nodes, m)
    want = assemble_design(model, nodes, m)
    assert got is not None and got.full_rank
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.factor, np.triu(got.factor))
    for key in ("lambda_min", "lambda_max"):
        assert getattr(got, key) == pytest.approx(getattr(want, key),
                                                  rel=1e-12, abs=0.0)
    assert got.pinv_norm() == pytest.approx(want.pinv_norm(), rel=1e-12,
                                            abs=0.0)
    assert got.singular_values()[-1] == pytest.approx(
        want.singular_values()[-1], rel=1e-12, abs=0.0)
    np.testing.assert_allclose(got.gram, want.gram, rtol=0.0, atol=1e-12)
    rhs = np.random.default_rng(m).standard_normal((m - 1, 3))
    solved = want.solve(rhs)
    assert (np.linalg.norm(got.solve(rhs) - solved)
            <= 1e-12 * np.linalg.norm(solved))
    wces = [exact_wce_recovery(model, nodes, m, trunc=512,
                               design=ds) for ds in (got, want)]
    assert wces[0].value_sq == pytest.approx(wces[1].value_sq, rel=1e-12,
                                             abs=0.0)
    assert wces[0].upper_sq == pytest.approx(wces[1].upper_sq, rel=1e-12,
                                             abs=0.0)
    nulls = [wce_nullspace_component(0.3, ds) for ds in (got, want)]
    assert nulls[0].component == pytest.approx(nulls[1].component,
                                               rel=1e-12, abs=0.0)
    assert nulls[0].within_envelope == nulls[1].within_envelope


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
@pytest.mark.parametrize("gap", [1e-10, 1e-12])
def test_clustered_designs_fall_back_to_the_streamed_qr(model_of, gap):
    # pairs 1e-10 apart pass the QR's rank test at a condition number near
    # 1e9, and pairs 1e-12 apart fail it; the moment Gram certifies neither,
    # so recovery reads the QR's bits or raises, as with the QR alone
    model = model_of()
    density = SamplingDensity(model, "plain")
    nodes = clustered_nodes(density, gap)
    assert leastsq.gram_design(model, nodes, 7) is None
    qr = assemble_design(model, nodes, 7)
    assert qr.full_rank == (gap == 1e-10)
    if not qr.full_rank:
        with pytest.raises(RankDeficientError):
            exact_wce_recovery(model, nodes, 7, trunc=64)
        return
    got = exact_wce_recovery(model, nodes, 7, trunc=64)
    want = exact_wce_recovery(model, nodes, 7, trunc=64, design=qr)
    assert got == want
    assert got.value_sq.hex() == want.value_sq.hex()


@pytest.mark.parametrize("scale, cholesky", [(0.5, False), (0.79, False),
                                            (0.795, True)])
def test_cholesky_selection_at_the_gram_rtol_edge(scale, cholesky):
    # 40 sorted uniform nodes squeezed into [0, scale): at 0.5 the Gram's
    # eigenvalue ratio is about 1.8e-6, and it crosses GRAM_RTOL = 1e-2
    # between 0.79 (9.9e-3) and 0.795 (1.1e-2)
    model = cosine_model()
    density = SamplingDensity(model, "plain")
    x = scale * np.sort(np.random.default_rng(2).random(40))
    nodes = nodes_from_points(density, x)
    spectrum = leastsq.gram_spectrum(model, nodes, 6)
    ratio = spectrum.lambda_min / spectrum.lambda_max
    if scale == 0.5:
        assert 1e-6 < ratio < 1e-5
    else:
        assert 0.5 < ratio / leastsq.GRAM_RTOL < 2.0
    got = leastsq.gram_design(model, nodes, 6)
    assert (got is not None) == cholesky
    assert (ratio > leastsq.GRAM_RTOL) == cholesky
    qr = assemble_design(model, nodes, 6)
    if not cholesky:
        # recovery then reads the QR's bits
        assert (exact_wce_recovery(model, nodes, 6, trunc=64)
                == exact_wce_recovery(model, nodes, 6, trunc=64, design=qr))
        return
    rhs = np.random.default_rng(0).standard_normal((5, 3))
    want = qr.solve(rhs)
    assert np.linalg.norm(got.solve(rhs) - want) <= 1e-10 * np.linalg.norm(
        want)
    wces = [exact_wce_recovery(model, nodes, 6, trunc=64, design=ds)
            for ds in (got, qr)]
    assert wces[0].value_sq == pytest.approx(wces[1].value_sq, rel=1e-10,
                                             abs=0.0)


def test_gram_design_checks_its_nodes_as_the_factored_design():
    model = cosine_model()
    density = SamplingDensity(model, "plain")
    nodes = nodes_from_points(density, np.array([0.1, 0.5, 0.7]))
    for m in (1, 5):  # empty span, m-1 > n
        with pytest.raises(ValueError):
            leastsq.gram_design(model, nodes, m)
    nodes.x = np.array([0.1, 0.5, 0.5])
    with pytest.raises(ValueError, match="distinct"):
        leastsq.gram_design(model, nodes, 3)
    with pytest.raises(ValueError, match="distinct"):
        assemble_design(model, nodes, 3)


def test_recover_evaluates_each_row_block_once(monkeypatch):
    # the residual ||Lc - g|| is the last diagonal entry of R of [L g], so
    # the fit's one pass over the row blocks is the only one
    model = fourier_model()
    density = SamplingDensity(model, "plain")
    nodes = draw_nodes(density, 20000, seed=5)
    ds = assemble_design(model, nodes, 7)
    seen = []
    rows = leastsq.DesignSystem.rows

    def spied(self, lo, hi):
        seen.append((lo, hi))
        return rows(self, lo, hi)

    monkeypatch.setattr(leastsq.DesignSystem, "rows", spied)
    recover(model, nodes, 7, np.cos(5.0 * nodes.x), design=ds)
    spans = leastsq._spans(nodes.n, 7, model.basis.dtype.itemsize)
    assert len(spans) > 1
    assert seen == spans


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
def test_square_design_fits_its_samples_exactly(model_of):
    # n = m - 1: R of [L g] has no row below R, and the residual is 0
    model = model_of()
    density = SamplingDensity(model, "plain")
    nodes = nodes_from_points(density, (np.arange(6) + 0.5) / 6.5)
    ds = assemble_design(model, nodes, 7)
    samples = np.random.default_rng(4).standard_normal(6)
    got = recover(model, nodes, 7, samples, design=ds)
    assert got.residual_norm == 0.0
    want = np.linalg.solve(ds.matrix, samples * ds.weights)
    np.testing.assert_allclose(got.values, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("model_of", [fourier_model, cosine_model])
@pytest.mark.parametrize("kind", ["plain", "spectral-mix"])
def test_gram_design_shares_its_moment_block_without_changing_answers(
        model_of, kind):
    # the design made at N keeps weighted_gram(1..m-1, 1..N, x, w^2), which
    # the worst-case value reads as its cross Gram; the Gram is its head
    model = model_of()
    m, N = 10, 128
    density = SamplingDensity(model, kind, m=m)
    nodes = draw_nodes(density, 300, seed=m)
    got = leastsq.gram_design(model, nodes, m, N)
    want = leastsq.gram_design(model, nodes, m)
    assert got.moments.shape == (m - 1, N)
    assert want.moments.shape == (m - 1, m - 1)
    for key in ("lambda_min", "lambda_max"):
        assert getattr(got, key) == pytest.approx(getattr(want, key),
                                                  rel=1e-12, abs=0.0)
    rhs = np.random.default_rng(m).standard_normal((m - 1, 3))
    solved = want.solve(rhs)
    assert (np.linalg.norm(got.solve(rhs) - solved)
            <= 1e-12 * np.linalg.norm(solved))
    kept = got.moments.copy()
    wces = [exact_wce_recovery(model, nodes, m, trunc=N, design=ds)
            for ds in (got, got, want)]
    # the kept block is read, never scaled in place
    assert np.array_equal(got.moments, kept)
    assert wces[0] == wces[1]
    assert wces[0].value_sq.hex() == wces[1].value_sq.hex()
    assert wces[0].value_sq == pytest.approx(wces[2].value_sq, rel=1e-12,
                                             abs=0.0)
    assert wces[0].upper_sq == pytest.approx(wces[2].upper_sq, rel=1e-12,
                                             abs=0.0)
