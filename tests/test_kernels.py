import math
from fractions import Fraction

import numpy as np
import pytest

from rkhslab import (DomainError, ExplicitEigenvalues, GeometricDecay,
                     PolynomialDecay, SamplingDensity, SobolevDecay,
                     SpectralKernelModel, get_basis, nodes_from_points)
from rkhslab.kernels import (_NODE_BLOCK, TWO_PI, _trig_series,
                             _weighted_moments, grid_maximum)

PI_COTH_PI = math.pi / math.tanh(math.pi)


def sobolev_cosine(atom=0.0):
    return SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0),
                               atom_mass=atom)


def poly_fourier(atom=0.0):
    return SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0),
                               atom_mass=atom)


def test_diag_value_closed_form():
    model = sobolev_cosine()
    val = model.diag_value(np.array([0.0]))[0]
    assert val == pytest.approx(PI_COTH_PI, rel=1e-12)


def test_trace_closed_form():
    model = sobolev_cosine()
    assert model.trace == pytest.approx((1.0 + PI_COTH_PI) / 2.0, rel=1e-12)


def test_trace_against_partial_sums():
    model = sobolev_cosine()
    ks = np.arange(1, 200001)
    partial = float(model.eigenvalues(ks).sum())
    assert partial < model.trace
    assert model.trace - partial < 2.0 / 200000


def test_spectral_function_small_values():
    model = sobolev_cosine()
    assert model.spectral_function(2) == pytest.approx(1.0, abs=1e-12)
    assert model.spectral_function(3) == pytest.approx(3.0, abs=1e-12)
    # fourier columns are unimodular so the sup is just the count
    assert poly_fourier().spectral_function(4) == pytest.approx(3.0,
                                                               abs=1e-12)


def test_spectral_function_grid_agrees():
    model = sobolev_cosine()
    closed = model.spectral_function(5)
    grid, _ = model.spectral_function_grid(5, npts=20001)
    assert grid <= closed + 1e-10
    assert grid == pytest.approx(closed, rel=1e-8)


def test_eigenfunction_values():
    cos = get_basis("cosine")
    x = np.array([0.0, 0.25, 0.5])
    np.testing.assert_allclose(cos.eval(1, x), np.ones(3))
    np.testing.assert_allclose(cos.eval(2, x),
                               math.sqrt(2.0) * np.cos(math.pi * x))
    fb = get_basis("fourier")
    np.testing.assert_allclose(fb.eval(1, x), np.ones(3), atol=1e-15)
    # frequency map: k=2 is +1, k=3 is -1
    assert fb.eval(2, np.array([0.25]))[0] == pytest.approx(1j, abs=1e-14)
    assert fb.eval(3, np.array([0.25]))[0] == pytest.approx(-1j, abs=1e-14)


@pytest.mark.parametrize("name", ["cosine", "fourier"])
def test_orthonormality_quadrature(name):
    # midpoint rule is exact for trig polynomials below the grid frequency
    basis = get_basis(name)
    npts = 4096
    x = (np.arange(npts) + 0.5) / npts
    block = basis.eval_block(np.arange(1, 26), x)
    gram = block.conj().T @ block / npts
    np.testing.assert_allclose(gram, np.eye(25), atol=1e-12)


@pytest.mark.parametrize("name", ["cosine", "fourier"])
def test_eval_block_windows_consistent(name):
    basis = get_basis(name)
    rng = np.random.default_rng(5)
    x = rng.random(37)
    whole = basis.eval_block(np.arange(1, 41), x)
    for lo, hi in ((1, 3), (7, 19), (30, 41)):
        part = basis.eval_block(np.arange(lo, hi), x)
        np.testing.assert_allclose(part, whole[:, lo - 1:hi - 1], atol=1e-14)


def _phase(x, f, period):
    """f * x mod period in exact rational arithmetic, so the reference values
    carry no argument-reduction error at high frequency."""
    return np.array([[float(Fraction(xi) * int(fi) % period) for fi in f]
                     for xi in x])


@pytest.mark.parametrize("lo, hi", [(1, 2101), (1025, 1031), (1500, 2101)])
def test_eval_block_wide_blocks_match_closed_forms(lo, hi):
    # one rotation table spans the whole window, past 1024 columns
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0, 0.5, 1.0], rng.random(9)])
    ks = np.arange(lo, hi)
    fb = get_basis("fourier")
    want = np.exp(2j * math.pi * _phase(x, fb.frequency(ks), 1))
    np.testing.assert_allclose(fb.eval_block(ks, x), want,
                               rtol=0.0, atol=1e-12)
    # 1e-12 relative to the sup norm sqrt(2): rounding pi * x alone moves
    # cos(pi f x) by up to pi f eps, about 7e-13 at f = 2100
    f = ks - 1
    want = np.where(f == 0, 1.0,
                    math.sqrt(2.0) * np.cos(math.pi * _phase(x, f, 2)))
    np.testing.assert_allclose(get_basis("cosine").eval_block(ks, x), want,
                               rtol=0.0, atol=1e-12 * math.sqrt(2.0))


@pytest.mark.parametrize("m", [1, 2, 3, 20, 200])
def test_cosine_spectral_sum_at_matches_cosine_squares(m):
    rng = np.random.default_rng(12)
    x = np.concatenate([[0.0, 0.5, 1.0], rng.random(9)]).reshape(3, 4)
    want = np.zeros(x.shape)
    if m >= 2:
        want += 1.0
        for j in range(1, m - 1):
            want += 2.0 * np.cos(math.pi * j * x) ** 2
    got = get_basis("cosine").spectral_sum_at(m, x)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 64, 257])
def test_cosine_spectral_sum_at_matches_the_explicit_block(m):
    basis = get_basis("cosine")
    x = np.concatenate([[0.0, 0.5, 1.0],
                        np.random.default_rng(31).random(997)])
    want = np.zeros(x.size)
    if m >= 2:
        want = np.sum(basis.eval_block(np.arange(1, m), x) ** 2, axis=1)
    np.testing.assert_allclose(basis.spectral_sum_at(m, x), want,
                               rtol=1e-12, atol=0.0)
    assert np.shape(basis.spectral_sum_at(m, 0.3)) == ()
    with pytest.raises(DomainError):
        basis.spectral_sum_at(m, 1.5)


def test_tail_sums_pinned():
    assert poly_fourier().tail_sum(5) == pytest.approx(
        0.22132295573711533, rel=1e-12)
    geo = SpectralKernelModel(get_basis("fourier"), GeometricDecay(0.5))
    assert geo.tail_sum(1) == pytest.approx(2.0, rel=1e-14)
    assert geo.tail_sum(5) == pytest.approx(0.125, rel=1e-14)
    sob = sobolev_cosine()
    assert sob.tail_sum(1) == pytest.approx(sob.trace, rel=1e-12)


@pytest.mark.parametrize("rule", [PolynomialDecay(0.8), SobolevDecay(1.0),
                                  GeometricDecay(0.3, 2.0),
                                  ExplicitEigenvalues([1.0, 0.4, 0.1])])
def test_eigenvalue_rules_behave(rule):
    ks = np.arange(1, 30)
    vals = rule.values(ks)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 1e-15)
    # tail telescopes against single values
    for m in (1, 3, 7):
        assert rule.tail(m) - rule.tail(m + 1) == pytest.approx(
            float(rule.values(np.array([m]))[0]), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("rule", [PolynomialDecay(1.0), SobolevDecay(1.0),
                                  GeometricDecay(0.5),
                                  ExplicitEigenvalues([1.0, 0.4, 0.1])])
def test_tail_below_index_one_is_the_trace(rule):
    # every rule sums from k = 1, and the Fourier tail energy reads the
    # rule's tail at any m unguarded
    model = SpectralKernelModel(get_basis("fourier"), rule)
    x = np.array([0.1, 0.7])
    for m in (0, -3):
        assert rule.tail(m) == rule.total()
        value, _ = model.tail_energy_at(m, x)
        assert np.array_equal(value, np.full(2, rule.total()))


def test_hurwitz_zeta_port_gives_the_bits_of_scipy():
    # x = 2s for s on a grid in (1/2, 6] and at 1.5, 2; q across the
    # Euler-Maclaurin cut-off (k + q > 9) and both sides of the q > 1e8
    # expansion
    from scipy.special import zeta

    from rkhslab.kernels import _hurwitz_zeta
    xs = [2.0 * s for s in np.linspace(0.5, 6.0, 41)[1:]] + [3.0, 4.0]
    qs = [float(q) for q in range(1, 71)] + [
        4096.0, 4097.0, 1e8 - 1.0, 1e8, 1e8 + 1.0, 2.0 ** 40, 2.0 ** 62]
    for x in xs:
        for q in qs:
            assert _hurwitz_zeta(x, q) == float(zeta(x, q)), (x, q)


def test_index_for_tail_is_tight():
    # smallest truncation length N with tail(N+1) <= bound
    rule = GeometricDecay(0.5)
    for bound in (0.5, 0.125, 1e-6, 1e-12):
        k = rule.index_for_tail(bound)
        assert rule.tail(k + 1) <= bound
        assert k == 0 or rule.tail(k) > bound


def test_weighted_tail_max_cosine():
    model = sobolev_cosine()
    for m in (2, 3, 6):
        # attained at x = 0 where every squared cosine is 2
        assert model.tail_function(m) == pytest.approx(
            2.0 * model.tail_sum(m), rel=1e-12)
        grid, _ = model.tail_function_grid(m, npts=20001)
        assert grid <= model.tail_function(m) + 1e-10
        assert grid == pytest.approx(model.tail_function(m), rel=1e-6)


def test_tail_monotone_in_m():
    model = sobolev_cosine()
    sums = [model.tail_sum(m) for m in range(1, 10)]
    assert all(a >= b >= 0.0 for a, b in zip(sums, sums[1:]))
    tfun = [model.tail_function(m) for m in range(1, 10)]
    assert all(a >= b >= 0.0 for a, b in zip(tfun, tfun[1:]))


def test_kernel_matrix_psd_and_hermitian():
    rng = np.random.default_rng(11)
    geo = SpectralKernelModel(get_basis("fourier"), GeometricDecay(0.4),
                              atom_mass=0.2)
    for model in (sobolev_cosine(), geo):
        xs = rng.random(14)
        K = model.kernel_matrix(xs)
        np.testing.assert_allclose(K, K.conj().T, atol=1e-12)
        eigs = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
        assert eigs.min() >= -1e-10


def test_eval_kernel_matches_truncated_series():
    model = sobolev_cosine()
    x, y = 0.13, 0.57
    ks = np.arange(1, 50001)
    lam = model.eigenvalues(ks)
    series = float(np.sum(
        lam * model.basis.eval_block(ks, np.array([x]))[0]
        * model.basis.eval_block(ks, np.array([y]))[0].conj()).real)
    exact = float(np.real(model.eval_kernel(x, y)))
    # discarded terms are bounded by the weighted tail at 50001
    assert abs(exact - series) <= model.tail_function(50001) + 1e-12


def test_eval_kernel_without_closed_form_raises():
    from rkhslab import TruncationError
    with pytest.raises(TruncationError):
        poly_fourier().eval_kernel(0.1, 0.7)


def test_cosine_kernel_without_closed_form():
    # no closed form for an explicit list: its series is summed term by term
    vals = [1.0, 0.5, 0.3, 0.2, 0.05]
    model = SpectralKernelModel(get_basis("cosine"), ExplicitEigenvalues(vals))
    x, y = 0.13, 0.57
    direct = vals[0] + sum(
        2.0 * lam * math.cos(math.pi * j * x) * math.cos(math.pi * j * y)
        for j, lam in enumerate(vals[1:], start=1))
    assert model.eval_kernel(x, y) == pytest.approx(direct, rel=1e-13)
    # the cosine series of k^-2 leaves a residual far above eps
    from rkhslab import TruncationError
    poly = SpectralKernelModel(get_basis("cosine"), PolynomialDecay(1.0))
    with pytest.raises(TruncationError):
        poly.eval_kernel(0.1, 0.7)


def test_atom_mass_sits_on_the_diagonal():
    plain = SpectralKernelModel(get_basis("fourier"), GeometricDecay(0.5))
    bumped = SpectralKernelModel(get_basis("fourier"), GeometricDecay(0.5),
                                 atom_mass=0.3)
    x, y = 0.31, 0.72
    assert bumped.diag_value(np.array([x]))[0] - plain.diag_value(
        np.array([x]))[0] == pytest.approx(0.3, rel=1e-12)
    assert bumped.eval_kernel(x, y) == pytest.approx(plain.eval_kernel(x, y),
                                                     rel=1e-12)
    assert bumped.atom_mass == 0.3
    assert bumped.trace == pytest.approx(plain.trace + 0.3, rel=1e-12)


def test_explicit_rule_rank_edges():
    model = SpectralKernelModel(get_basis("cosine"),
                                ExplicitEigenvalues([1.0, 0.5, 0.25]))
    assert model.rank == 3
    assert model.eigenvalues(np.array([4]))[0] == 0.0
    assert model.tail_sum(4) == 0.0
    assert model.tail_sum(1) == pytest.approx(1.75, rel=1e-14)


def test_domain_guard():
    model = sobolev_cosine()
    with pytest.raises(DomainError):
        model.diag_value(np.array([1.5]))
    with pytest.raises(DomainError):
        model.eval_kernel(np.array([-0.1]), np.array([0.5]))


def test_grid_maximum_finds_interior_peak():
    val, res = grid_maximum(lambda x: np.sin(math.pi * x), npts=4001)
    assert val == pytest.approx(1.0, abs=1e-8)
    assert res < 1e-6


def test_get_basis_rejects_unknown():
    with pytest.raises((KeyError, ValueError)):
        get_basis("chebyshev")


@pytest.mark.parametrize("name", ["fourier", "cosine"])
@pytest.mark.parametrize("rows, cols", [
    # recovery shape: rows 1..m-1, cols 1..N; the top moment index F is not
    # a multiple of the rotation block B (1053 vs 33, 2105 vs 46)
    (np.arange(1, 8), np.arange(1, 2101)),
    # discretization shape: square, with the constant column inside
    (np.arange(1, 301), np.arange(1, 301)),
])
def test_weighted_gram_matches_explicit_products(name, rows, cols):
    basis = get_basis(name)
    rng = np.random.default_rng(31)
    x = rng.random(250)
    v = rng.random(250) * 4.0 + 0.1
    v[7] = 0.0
    got = basis.weighted_gram(rows, cols, x, v)
    want = basis.eval_block(rows, x).conj().T @ (
        v[:, None] * basis.eval_block(cols, x))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(v))
    if name == "cosine":
        with pytest.raises(DomainError):
            basis.weighted_gram(rows, cols, np.append(x, 1.5),
                                np.append(v, 1.0))


@pytest.mark.parametrize("name", ["fourier", "cosine"])
@pytest.mark.parametrize("N", [1, 2, 7, 300, 1100])
def test_gram_matvec_matches_weighted_gram(name, N):
    basis = get_basis(name)
    rng = np.random.default_rng(41)
    x = rng.random(250)
    v = rng.random(250) * 4.0 + 0.1
    v[11] = 0.0
    ks = np.arange(1, N + 1)
    gram = basis.weighted_gram(ks, ks, x, v)
    apply = basis.gram_matvec(N, x, v)
    for u in (rng.standard_normal(N),
              rng.standard_normal(N) + 1j * rng.standard_normal(N)):
        got = apply(u)
        assert got.shape == (N,)
        assert (np.max(np.abs(got - gram @ u))
                <= 1e-12 * np.sum(np.abs(v)) * np.linalg.norm(u))
    if name == "cosine":
        with pytest.raises(DomainError):
            basis.gram_matvec(N, np.append(x, 1.5), np.append(v, 1.0))


def test_weighted_moments_at_a_large_top():
    top = 2 ** 16
    step = math.isqrt(top) + 1
    rng = np.random.default_rng(43)
    # angles on a 2^-30 grid make f * theta exact for f <= top, so the
    # direct sums below carry only the rounding of exp itself
    theta = rng.integers(0, int(TWO_PI * 2 ** 30), 50) / 2.0 ** 30
    v = rng.random(50) * 4.0 + 0.1
    v[5] = 0.0
    freqs = np.unique(np.concatenate([
        [0, 1, step - 1, step, 2 * step, 100 * step, (top // step) * step,
         top - 1, top],
        rng.integers(0, top + 1, 11)]))
    got = _weighted_moments(theta, v, top)
    assert got.shape == (top + 1,)
    want = np.exp(1j * np.outer(freqs, theta)) @ v
    assert np.max(np.abs(got[freqs] - want)) <= 1e-12 * np.sum(np.abs(v))


@pytest.mark.parametrize("n", [_NODE_BLOCK - 1, _NODE_BLOCK, _NODE_BLOCK + 1,
                               5 * _NODE_BLOCK // 2])
@pytest.mark.parametrize("scalar_v", [False, True])
def test_blocked_contractions_match_direct_sums(n, scalar_v):
    # node counts around and past one block of split tables, on the 2^-30
    # angle grid of test_weighted_moments_at_a_large_top
    top = 1022
    rng = np.random.default_rng(45)
    theta = rng.integers(0, int(TWO_PI * 2 ** 30), n) / 2.0 ** 30
    v = 2.5 if scalar_v else rng.random(n) * 4.0 + 0.1
    got = _weighted_moments(theta, np.asarray(v), top)
    assert got.shape == (top + 1,)
    want = np.exp(1j * np.outer(np.arange(top + 1), theta)) @ np.broadcast_to(
        v, theta.shape)
    assert (np.max(np.abs(got - want))
            <= 1e-12 * np.sum(np.abs(np.broadcast_to(v, theta.shape))))

    coef = rng.standard_normal(top + 1)
    got = _trig_series(theta, coef)
    assert got.shape == (n,)
    want = np.exp(1j * np.outer(theta, np.arange(top + 1))) @ coef
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(coef))


@pytest.mark.parametrize("top", [16, 126])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("scalar_v", [False, True])
def test_real_cosine_moments_match_explicit_blocks(top, offset, scalar_v):
    # node counts around one block of the tables at the tops of eig-check's
    # 9 x 9 Gram and the kernel family's 64 x 64 one: above 1024 nodes the
    # block is sized by table cells
    from rkhslab import kernels
    count, step = kernels._split_shape(top)
    block = kernels._TABLE_CELLS // (step + 1 + count)
    assert block > _NODE_BLOCK
    n = block + offset
    theta = math.pi * np.random.default_rng(top + n).random(n)
    blocks = sum(1 for _ in kernels._split_tables(theta, 1.0, top))
    assert blocks == (2 if offset > 0 else 1)

    cb = get_basis("cosine")
    rng = np.random.default_rng(47)
    x = rng.random(n)
    v = 2.5 if scalar_v else rng.random(n) * 4.0 + 0.1
    scale = np.sum(np.abs(np.broadcast_to(v, x.shape)))
    ks = np.arange(1, top // 2 + 2)
    got = cb.weighted_gram(ks, ks, x, v)
    block_eta = cb.eval_block(ks, x)
    want = block_eta.T @ (np.broadcast_to(v, x.shape)[:, None] * block_eta)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale

    # the series that rides on the same tables, v_i sum_f coef[f] cos(f th)
    coef = rng.standard_normal(top + 1)
    _, series = kernels._cosine_moments(math.pi * x, np.asarray(v), top,
                                        coef)
    want = np.broadcast_to(v, x.shape) * (
        np.cos(np.outer(math.pi * x, np.arange(top + 1))) @ coef)
    assert (np.max(np.abs(series - want))
            <= 1e-12 * np.sum(np.abs(coef)) * np.max(np.abs(v)))

    # the kernel family's per-node norms are the block's weighted row norms
    rule = SobolevDecay(1.0)
    norms, gram = cb.head_and_gram(rule, ks.size, x)
    lam = rule.values(ks)
    np.testing.assert_allclose(norms, block_eta ** 2 @ lam, rtol=1e-13)
    assert np.max(np.abs(gram - block_eta.T @ block_eta)) <= 1e-12 * n


def _grid_points(rng, count):
    """Points of [0, 1) on a 2^-30 grid, so f * x is exact for f < 2^23."""
    return rng.integers(0, 2 ** 30, count) / 2.0 ** 30


def test_cosine_generic_tail_matches_direct_sum():
    # Sobolev s = 2 has no closed-form cosine series: the tail energy is a
    # partial sum to 2^17 plus a reported residual
    model = SpectralKernelModel(get_basis("cosine"), SobolevDecay(2.0))
    x = np.concatenate([[0.0, 0.5, 1.0],
                        _grid_points(np.random.default_rng(21), 6)])
    ks = np.arange(1, (1 << 17) + 1)
    lam = model.eigenvalues(ks)
    # |eta_k(x)|^2 = 1 + cos(2 pi (k-1) x) for k >= 2, and 1 for k = 1
    energy = 1.0 + np.cos(TWO_PI * np.mod(np.outer(x, ks - 1), 1.0))
    energy[:, 0] = 1.0
    for m in (1, 2, 5, 40):
        got, res = model.tail_energy_at(m, x)
        want = energy[:, m - 1:] @ lam[m - 1:]
        assert np.max(np.abs(got - want)) <= res + 1e-13
    _, res = model.tail_energy_at(1, x)
    assert np.max(np.abs(model.diag_value(x) - energy @ lam)) <= res + 1e-13


def test_fourier_generic_kernel_matches_direct_sum():
    # polynomial decay has no closed-form Fourier kernel: the series runs
    # over the first 2^20 eigenvalues and reports the rest as residual
    model = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(2.0))
    cut = 1 << 20
    ks = np.arange(1, cut + 1)
    lam = model.eigenvalues(ks)
    freqs = model.basis.frequency(ks)
    pairs = np.concatenate([[0.0, 0.5, 0.125, 0.875],
                            _grid_points(np.random.default_rng(22), 4)])
    for x, y in pairs.reshape(-1, 2):
        # x - y and f * (x - y) are exact on the grid
        want = np.sum(lam * np.exp(2j * math.pi
                                   * np.mod(freqs * (x - y), 1.0)))
        got = model.eval_kernel(x, y)
        assert abs(got - want) <= model.tail_sum(cut + 1) + 1e-13


@pytest.mark.parametrize("n, lo, hi", [(2000, 1, 1), (2000, 1, 2),
                                       (2000, 1, 9), (1000, 1, 64),
                                       (1000, 30, 41)])
def test_eval_block_narrow_many_node_blocks(n, lo, hi):
    x = _grid_points(np.random.default_rng(n + hi), n)
    ks = np.arange(lo, hi + 1)
    fb = get_basis("fourier")
    want = np.exp(2j * math.pi * np.mod(np.outer(x, fb.frequency(ks)), 1.0))
    np.testing.assert_allclose(fb.eval_block(ks, x), want,
                               rtol=0.0, atol=1e-13)
    f = ks - 1
    want = np.where(f == 0, 1.0, math.sqrt(2.0)
                    * np.cos(math.pi * np.mod(np.outer(x, f), 2.0)))
    np.testing.assert_allclose(get_basis("cosine").eval_block(ks, x), want,
                               rtol=0.0, atol=1e-13 * math.sqrt(2.0))


@pytest.mark.parametrize("top", [0, 1, 7, 2 ** 16])
def test_trig_series_matches_direct_sums(top):
    rng = np.random.default_rng(44)
    # angles on a 2^-30 grid make f * theta exact for f <= top
    theta = rng.integers(0, int(TWO_PI * 2 ** 30), 50) / 2.0 ** 30
    coef = rng.standard_normal(top + 1)
    coef[rng.integers(0, top + 1, 5)] = 0.0
    got = _trig_series(theta.reshape(5, 10), coef)
    assert got.shape == (5, 10)
    want = np.zeros(theta.shape, dtype=complex)
    for lo in range(0, top + 1, 4096):
        f = np.arange(lo, min(lo + 4096, top + 1))
        want += np.exp(1j * np.outer(theta, f)) @ coef[f]
    assert np.max(np.abs(got.ravel() - want)) <= 1e-12 * np.sum(np.abs(coef))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_torus_rejects_non_finite_points(bad):
    fb = get_basis("fourier")
    x = np.array([0.1, bad, 0.7])
    with pytest.raises(DomainError):
        fb.eval_block([1, 2, 3], x)
    with pytest.raises(DomainError):
        fb.weighted_gram([1, 2], [1, 2, 3], x, np.ones(3))
    density = SamplingDensity(poly_fourier(), "spectral-mix", m=3)
    with pytest.raises(DomainError):
        nodes_from_points(density, x)


def test_eval_block_high_window_matches_closed_forms():
    # the rows start at the lowest requested frequency, not at 0
    x = _grid_points(np.random.default_rng(1025), 12)
    ks = np.arange(1025, 1031)
    fb = get_basis("fourier")
    want = np.exp(2j * math.pi * np.mod(np.outer(x, fb.frequency(ks)), 1.0))
    np.testing.assert_allclose(fb.eval_block(ks, x), want,
                               rtol=0.0, atol=1e-13)
    want = math.sqrt(2.0) * np.cos(math.pi * np.mod(np.outer(x, ks - 1), 2.0))
    np.testing.assert_allclose(get_basis("cosine").eval_block(ks, x), want,
                               rtol=0.0, atol=1e-13 * math.sqrt(2.0))


def _sobolev_integral(s, t):
    """int_t^inf (1+u^2)^(-s) du for s = 2, 3 from the elementary
    antiderivatives, written in y = 1/t so that nothing cancels:

        s = 2:  (atan y - y/(1+y^2)) / 2
        s = 3:  3/8 (atan y - y/(1+y^2)) - 1/4 y^3/(1+y^2)^2

    with atan y = sum (-1)^k y^(2k+1)/(2k+1), y/(1+y^2) = sum (-1)^k
    y^(2k+1) and y^3/(1+y^2)^2 = sum (-1)^(k-1) k y^(2k+1)."""
    y = 1.0 / t
    terms = []
    for k in range(10):
        atan_minus_frac = (-1) ** k * (Fraction(1, 2 * k + 1) - 1)
        if s == 2:
            c = atan_minus_frac / 2
        else:
            c = Fraction(3, 8) * atan_minus_frac - (-1) ** (k - 1) * Fraction(
                k, 4)
        terms.append(float(c) * y ** (2 * k + 1))
    return math.fsum(terms)


def _sobolev_sum(s, j0, head=20000):
    """sum_{j >= j0} (1+j^2)^(-s): a direct head, then Euler-Maclaurin from
    t = j0 + head with the integral above; the next correction is of
    relative size t^-4."""
    j = np.arange(j0, j0 + head, dtype=float)
    t = float(j0 + head)
    f_t = (1.0 + t * t) ** (-s)
    fp_t = -2.0 * s * t * (1.0 + t * t) ** (-s - 1)
    return math.fsum(list((1.0 + j * j) ** (-s))
                     + [_sobolev_integral(s, t), 0.5 * f_t, -fp_t / 12.0])


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("m", [2, 3, 50, 4097, 10 ** 5, 10 ** 7])
def test_sobolev_tail_matches_elementary_antiderivatives(s, m):
    want = _sobolev_sum(s, m - 1)
    assert SobolevDecay(float(s)).tail(m) == pytest.approx(want, rel=1e-13,
                                                           abs=0.0)


def _binomial_integral(s, t, terms=8):
    """int_t^inf (1+u^2)^(-s) du for t > 1 from the binomial series
    (1+u^2)^(-s) = sum_k C(-s, k) u^(-2s-2k), integrated term by term."""
    out, coef = [], 1.0
    for k in range(terms):
        out.append(coef * t ** (1.0 - 2.0 * s - 2.0 * k)
                   / (2.0 * s + 2.0 * k - 1.0))
        coef *= -(s + k) / (k + 1)
    return math.fsum(out)


@pytest.mark.parametrize("s", [0.6, 0.75, 2.5])
@pytest.mark.parametrize("m", [4097, 10 ** 5, 10 ** 7])
def test_sobolev_tail_lies_in_the_integral_bracket(s, m):
    # f decreasing: int_J^inf f <= sum_{j >= J} f(j) <= f(J) + int_J^inf f
    j0 = m - 1
    lower = _binomial_integral(s, float(j0))
    upper = (1.0 + float(j0) ** 2) ** (-s) + lower
    assert lower <= SobolevDecay(s).tail(m) <= upper


def test_cosine_distribution_series_raises_at_its_cap():
    # poly s = 0.8 leaves tail(cut+1)/(2 pi cut) at 6.7e-12 at cut = 2^22
    from rkhslab import TruncationError
    model = SpectralKernelModel(get_basis("cosine"), PolynomialDecay(0.8))
    with pytest.raises(TruncationError):
        model.basis.weighted_tail_cdf(model.rule, 3, np.array([0.3]))


def test_import_leaves_scipy_integrate_unloaded():
    import os
    import subprocess
    import sys

    import rkhslab
    src = os.path.dirname(os.path.dirname(os.path.abspath(rkhslab.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rkhslab; print(sorted(m for m in "
         "sys.modules if m.startswith('scipy.integrate')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _fresh_python(code):
    """stdout lines of ``code`` run in a new interpreter on this package."""
    import os
    import subprocess
    import sys

    import rkhslab
    src = os.path.dirname(os.path.dirname(os.path.abspath(rkhslab.__file__)))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


_SCIPY_LOADS = """
import sys
import rkhslab
from rkhslab import experiment as ex

def loaded():
    names = ("scipy.special", "scipy.sparse", "scipy.sparse.linalg")
    print(sorted(p for p in names
                 if any(m == p or m.startswith(p + ".") for m in sys.modules)))

def run(text):
    ex.run(ex.build_config(ex.parse_config(
        text + "basis = cosine\\ndecay = sobolev\\ns = 1.0\\nr = 2.0\\n"
        "trials = 2\\n")))

loaded()
run("kind = eig-check\\ndensity = plain\\nn = 200\\nm_rule = max-cond-7\\n")
for family in ("kernel", "two-point"):
    run("kind = concentration\\nfamily = %s\\ndim = 8\\nn = 100\\n"
        "t_points = 3\\n" % family)
loaded()
run("kind = discretize\\nn = 60\\ntrunc = 64\\n")
loaded()
rkhslab.PolynomialDecay(1.0).tail(5)
loaded()
"""


def test_scipy_special_and_sparse_load_only_where_called():
    # Sobolev s = 1 eig-check and concentration runs never load either;
    # the discretization's Lanczos solve loads scipy.sparse.linalg, a
    # polynomial tail (the ported Hurwitz zeta) loads nothing, and only a
    # Sobolev s != 1 tail loads scipy.special
    assert _fresh_python(_SCIPY_LOADS) == [
        "[]", "[]", "['scipy.sparse', 'scipy.sparse.linalg']",
        "['scipy.sparse', 'scipy.sparse.linalg']"]
    assert _fresh_python(
        "import sys, rkhslab; rkhslab.SobolevDecay(1.5).tail(5); "
        "print('scipy.special' in sys.modules)") == ["True"]


_LINALG_LOADS = """
import sys
import numpy as np
import rkhslab
from rkhslab import experiment as ex, leastsq

def loaded():
    print("loaded", "scipy.linalg" in sys.modules)

def run(text):
    return ex.run(ex.build_config(ex.parse_config(
        text + "decay = sobolev\\ns = 1.0\\nr = 2.0\\ntrials = 2\\n")))

loaded()
run("kind = eig-check\\nbasis = cosine\\ndensity = plain\\nn = 200\\n"
    "m_rule = max-cond-7\\n")
run("kind = eig-check\\nbasis = fourier\\ndensity = spectral-mix\\n"
    "n = 200\\nm_rule = fixed\\nm = 6\\n")
for family in ("kernel", "two-point"):
    run("kind = concentration\\nbasis = cosine\\nfamily = %s\\ndim = 8\\n"
        "n = 100\\nt_points = 3\\n" % family)
loaded()
print(repr(run("kind = recover\\nbasis = fourier\\ndensity = spectral-mix\\n"
               "n = 120\\nm_rule = auto\\n").rows))
loaded()
a = np.random.default_rng(5).standard_normal((300, 7))
print(leastsq._triangle(a).tobytes().hex())
print(leastsq._triangle(a + 1j * a[::-1]).tobytes().hex())
loaded()
"""


def test_scipy_linalg_loads_at_the_first_factorization():
    # eig-check reads the moment Gram and the concentration families their
    # own Grams, and recovery on certified designs solves with R^(-1), so
    # none of them loads scipy.linalg; the first QR loads it, and gives the
    # bits of the calls made here
    import contextlib
    import io

    lines = _fresh_python(_LINALG_LOADS)
    assert [s for s in lines if s.startswith("loaded")] == [
        "loaded False", "loaded False", "loaded False", "loaded True"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(_LINALG_LOADS, {})
    assert ([s for s in lines if not s.startswith("loaded")]
            == [s for s in buf.getvalue().splitlines()
                if not s.startswith("loaded")])


_FIRST_CALLS = """
import numpy as np
from rkhslab import (PolynomialDecay, SobolevDecay, SpectralKernelModel,
                     exact_wce_discretization, get_basis)

for s, m in [(1.0, 5), (0.75, 2), (2.5, 4097)]:
    print(repr(PolynomialDecay(s).tail(m)))
for m in [1, 5, 10 ** 5]:
    print(repr(SobolevDecay(1.5).tail(m)))
model = SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))
x = np.random.default_rng(3).random(200)
print(repr(exact_wce_discretization(model, x, trunc=64)))
"""


def test_first_lazy_calls_return_the_in_process_values():
    # the first call in a new interpreter imports scipy inside the call;
    # its value is the same bits as the call made here
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(_FIRST_CALLS, {})
    assert _fresh_python(_FIRST_CALLS) == buf.getvalue().splitlines()


@pytest.mark.parametrize("name", ["fourier", "cosine"])
@pytest.mark.parametrize("beyond", [1, 2, 3])
def test_explicit_model_beyond_its_rank_is_exactly_zero(name, beyond):
    # m = rank + 1, rank + 2 and 3 rank: every tail quantity is an exact
    # zero with a zero residual
    vals = [1.0, 0.5, 0.25]
    m = {1: 4, 2: 5, 3: 9}[beyond]
    rule = ExplicitEigenvalues(vals)
    basis = get_basis(name)
    model = SpectralKernelModel(basis, rule)
    x = np.linspace(0.0, 1.0, 37)
    assert model.tail_function(m) == 0.0
    energy, residual = model.tail_energy_at(m, x)
    np.testing.assert_array_equal(energy, np.zeros(x.shape))
    assert residual == 0.0
    np.testing.assert_array_equal(basis.weighted_tail_cdf(rule, m, x),
                                  np.zeros(x.shape))


def test_explicit_rule_rejects_an_empty_list():
    with pytest.raises(ValueError, match="non-empty"):
        ExplicitEigenvalues([])


def test_trunc_index_is_searched_on_first_read(monkeypatch):
    rule = SobolevDecay(1.0)
    calls = []
    search = rule.index_for_tail

    def spy(bound):
        calls.append(bound)
        return search(bound)
    monkeypatch.setattr(rule, "index_for_tail", spy)
    model = SpectralKernelModel(get_basis("cosine"), rule)
    assert calls == []
    assert model.trunc_index == search(model.eps_trunc)
    assert model.trunc_index == search(model.eps_trunc)
    assert calls == [model.eps_trunc]


@pytest.mark.parametrize("m", [1, 2])
def test_empty_cosine_series_builds_no_tables(monkeypatch, m):
    from rkhslab import kernels
    rule = SobolevDecay(1.0)
    basis = get_basis("cosine")
    x = np.concatenate([[0.0, 0.25, 0.5, 1.0],
                        np.random.default_rng(12).random(3000)])
    # the formulas with the empty (m - 1 < 2) series summed through tables
    theta = TWO_PI * x
    want_at = rule.tail(2) + (kernels._cos_series_inverse_sq(theta)
                              - _trig_series(theta, np.zeros(1)).real)
    if m == 1:
        want_at = rule.value(1) + want_at
    theta = TWO_PI * (x % 1.0)
    full = (0.5 * (math.pi - theta) - 0.5 * math.pi
            * np.sinh(math.pi - theta) / math.sinh(math.pi))
    osc = full - _trig_series(theta, np.zeros(1)).imag
    want_cdf = rule.tail(m) * x + osc / TWO_PI
    calls = []
    tables = kernels._split_tables

    def spy(*args):
        calls.append(args)
        return tables(*args)
    monkeypatch.setattr(kernels, "_split_tables", spy)
    got_at, residual = basis.weighted_tail_at(rule, m, x)
    got_cdf = basis.weighted_tail_cdf(rule, m, x)
    assert calls == []
    assert residual == 0.0
    assert got_at.tobytes() == want_at.tobytes()
    assert got_cdf.tobytes() == want_cdf.tobytes()


@pytest.mark.parametrize("n, top", [(1000, 2050), (5000, 1022), (0, 8)])
def test_split_tables_share_one_block(n, top):
    # Two separate ~0.7 MB tables go back to the system on free and fault in
    # again on the next call: about 1,700 minor faults per recover-secular
    # run and 900-1,900 per discretize-dense run (in-process, after warm-up),
    # against 0-4 and 1-500 with both tables in one block.
    from rkhslab import kernels
    theta = TWO_PI * np.random.default_rng(19).random(n)
    pairs = 0
    for _, anchors, rotations in kernels._split_tables(theta, 1.0, top):
        assert anchors.base is not None
        assert anchors.base is rotations.base
        pairs += 1
    assert pairs == max(1, -(-n // _NODE_BLOCK))


def test_fourier_canonical_reduces_mod_one():
    fb = get_basis("fourier")
    x = np.array([0.25, -0.25, 1.5, 3.0, -2.75])
    np.testing.assert_array_equal(fb.canonical(x),
                                  [0.25, 0.75, 0.5, 0.0, 0.25])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="torus-1d"):
            fb.canonical(np.array([0.1, bad]))


def test_cosine_canonical_keeps_the_unit_interval():
    cb = get_basis("cosine")
    x = np.array([0.0, 0.3, 1.0, 5e-324])
    got = cb.canonical(x)
    assert got.dtype == float
    np.testing.assert_array_equal(got, x)
    for bad in (-1e-300, 1.0 + 2.0 ** -52, 1.5, np.nan, np.inf):
        with pytest.raises(DomainError, match="unit-interval"):
            cb.canonical(np.array([0.5, bad]))


def test_sobolev_tail_cache_is_shared_by_s_and_keeps_no_rule_alive():
    import gc
    import weakref
    from rkhslab import kernels
    rule = SobolevDecay(1.0)
    first = rule.tail(5)
    ref = weakref.ref(rule)
    del rule
    gc.collect()
    assert ref() is None
    hits = kernels._sobolev_tail.cache_info().hits
    assert SobolevDecay(1.0).tail(5) == first
    assert kernels._sobolev_tail.cache_info().hits == hits + 1
