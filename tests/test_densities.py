import math

import numpy as np
import pytest
from scipy.integrate import quad

from rkhslab import (DegenerateDensityError, ExplicitEigenvalues,
                     GeometricDecay, PolynomialDecay, SamplingDensity,
                     SobolevDecay, SpectralKernelModel, TruncationError,
                     draw_nodes, get_basis, nodes_from_points, trial_rng)
from rkhslab.densities import (_TAIL_TABLE_CAP, _TAIL_TABLE_START,
                               BUDGET_KINDS, NormalizedKernelView,
                               invert_cosine_component_cdf, spectral_budget)


def sob():
    return SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))


def sob_atom():
    return SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0),
                               atom_mass=0.25)


def density_cases():
    return [
        SamplingDensity(sob(), "plain"),
        SamplingDensity(sob(), "spectral-mix", m=3),
        SamplingDensity(sob(), "spectral-mix", m=6),
        SamplingDensity(sob(), "kernel-diag"),
        SamplingDensity(sob_atom(), "spectral-mix-atom", m=4),
        SamplingDensity(
            SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0)),
            "spectral-mix", m=5),
    ]


def integrate_density(d, tol=1e-11):
    val, err = quad(lambda t: float(d.evaluate(np.array([t]))[0]),
                    0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    return val, err


@pytest.mark.parametrize("idx", range(6))
def test_normalization(idx):
    d = density_cases()[idx]
    val, err = integrate_density(d)
    assert val == pytest.approx(1.0, abs=1e-8)
    assert err < 1e-8


def test_pinned_mix_value_at_origin():
    d = SamplingDensity(sob(), "spectral-mix", m=3)
    assert d.evaluate(np.array([0.0]))[0] == pytest.approx(1.75, rel=1e-10)


def test_plain_density_is_flat():
    d = SamplingDensity(sob(), "plain")
    x = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(d.evaluate(x), np.ones(17))
    assert d.sup_inverse() == 1.0


def test_fourier_mixture_is_flat():
    d = SamplingDensity(
        SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0)),
        "spectral-mix", m=5)
    x = np.linspace(0.0, 1.0, 13)
    np.testing.assert_allclose(d.evaluate(x), np.ones(13), atol=1e-12)


def test_mixture_weights_and_term_dropping():
    d = SamplingDensity(sob_atom(), "spectral-mix-atom", m=4)
    w = d.mixture_weights()
    assert w == pytest.approx({"spectral": 1 / 3, "tail": 1 / 3,
                               "atom": 1 / 3})
    assert d.sup_inverse() == pytest.approx(3.0)
    # atomless model: the atom term carries no mass and is dropped
    d0 = SamplingDensity(sob(), "spectral-mix-atom", m=4)
    w0 = d0.mixture_weights()
    assert math.isclose(sum(w0.values()), 1.0)
    assert "atom" not in w0
    val, _ = integrate_density(d0)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_degenerate_rank_raises():
    model = SpectralKernelModel(get_basis("cosine"),
                                ExplicitEigenvalues([1.0, 0.5]))
    with pytest.raises(DegenerateDensityError):
        SamplingDensity(model, "spectral-mix", m=5)


def test_kind_validation():
    with pytest.raises(ValueError):
        SamplingDensity(sob(), "no-such-kind")
    with pytest.raises(ValueError):
        SamplingDensity(sob(), "spectral-mix", m=1)


def test_cdf_matches_integral():
    d = SamplingDensity(sob(), "spectral-mix", m=3)
    assert d.cdf(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert d.cdf(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-10)
    for a, b in ((0.0, 0.2), (0.35, 0.4), (0.7, 1.0)):
        cell, _ = quad(lambda t: float(d.evaluate(np.array([t]))[0]), a, b,
                       epsabs=1e-12, epsrel=1e-12, limit=200)
        jump = float(d.cdf(np.array([b]))[0] - d.cdf(np.array([a]))[0])
        assert jump == pytest.approx(cell, abs=1e-9)


@pytest.mark.parametrize("rule", [SobolevDecay(2.0), GeometricDecay(0.6)])
def test_cdf_of_other_tails_matches_integral(rule):
    # Sobolev s = 2 sums its tail series term by term; geometric decay has
    # closed forms of its own
    model = SpectralKernelModel(get_basis("cosine"), rule)
    d = SamplingDensity(model, "spectral-mix", m=3)
    assert d.cdf(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert d.cdf(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-10)
    for a, b in ((0.0, 0.2), (0.35, 0.4), (0.7, 1.0)):
        cell, _ = quad(lambda t: float(d.evaluate(np.array([t]))[0]), a, b,
                       epsabs=1e-12, epsrel=1e-12, limit=200)
        jump = float(d.cdf(np.array([b]))[0] - d.cdf(np.array([a]))[0])
        assert jump == pytest.approx(cell, abs=1e-9)


def test_cdf_monotone():
    d = SamplingDensity(sob(), "kernel-diag")
    x = np.linspace(0.0, 1.0, 301)
    c = d.cdf(x)
    assert np.all(np.diff(c) >= -1e-14)


def test_component_inverse_cdf_ks():
    # |eta_2|^2 coordinate law has cdf x + sin(2 pi x)/(2 pi)
    rng = trial_rng(314, 0)
    u = rng.random(1_000_000)
    x = invert_cosine_component_cdf(np.ones_like(u), u)
    x.sort()
    f = x + np.sin(2 * math.pi * x) / (2 * math.pi)
    grid = (np.arange(x.size) + 0.5) / x.size
    ks = float(np.abs(f - grid).max()) + 0.5 / x.size
    assert ks < 0.002


def _bisection_inverse(freqs, u):
    """Oracle: 60 bisection halvings of F_j(x) = x + sin(2 pi j x)/(2 pi j)
    = u on [0, 1], with F evaluated in floats."""
    j = np.asarray(freqs, dtype=float)
    lo = np.zeros(u.shape)
    hi = np.ones(u.shape)
    wj = 2 * math.pi * j
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        high = mid + np.sin(wj * mid) / wj > u
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)


NEWTON_FREQS = [1, 2, 7, 500, 2 ** 20]


@pytest.mark.parametrize("j", NEWTON_FREQS)
def test_component_inverse_cdf_matches_bisection(j):
    u = np.concatenate([[0.0, 1.0], np.random.default_rng(j).random(4000)])
    x = invert_cosine_component_cdf(np.full(u.size, j), u)
    assert np.all((x >= 0.0) & (x <= 1.0))
    want = _bisection_inverse(np.full(u.size, j), u)
    assert np.max(np.abs(x - want)) <= 1e-13


@pytest.mark.parametrize("j", NEWTON_FREQS)
def test_component_inverse_cdf_at_flat_points(j):
    # F_j is flat at x = (l + 1/2)/j, which it maps to u = (l + 1/2)/j; near
    # there a change of u by eps moves the root by about eps^(1/3), and the
    # bisection's float predicate cannot tell F(x) from u on such a window.
    # With g' >= 8 s^2 in the reduced variable, predicate noise delta = 8 eps
    # bounds the window by (1.5 j delta)^(1/3) / j.
    l = np.unique(np.linspace(0, j - 1, 50).astype(np.int64))
    images = (l + 0.5) / j
    u = np.clip(np.concatenate([images, images - 1e-9, images + 1e-9,
                                images - 1e-12, images + 1e-12]), 0.0, 1.0)
    freqs = np.full(u.size, j)
    x = invert_cosine_component_cdf(freqs, u)
    assert np.all((x >= 0.0) & (x <= 1.0))
    window = np.cbrt(1.5 * j * 8 * np.finfo(float).eps) / j
    assert np.max(np.abs(x - _bisection_inverse(freqs, u))) <= 1e-13 + window
    if j & (j - 1) == 0:
        # the images are binary fractions: F_j(image) = image exactly
        np.testing.assert_array_equal(x[: images.size], images)


def test_draw_nodes_deterministic_and_distinct():
    d = SamplingDensity(sob(), "spectral-mix", m=3)
    a = draw_nodes(d, 500, seed=42, stream=7)
    b = draw_nodes(d, 500, seed=42, stream=7)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.density_values, b.density_values)
    c = draw_nodes(d, 500, seed=42, stream=8)
    assert not np.array_equal(a.x, c.x)
    assert np.unique(a.x).size == 500
    assert np.all(a.density_values > 0.0)


def test_component_frequencies_three_way():
    d = SamplingDensity(sob_atom(), "spectral-mix-atom", m=4)
    nodes = draw_nodes(d, 100_000, seed=9)
    counts = nodes.component_counts
    total = sum(counts.values())
    assert total == 100_000
    se = math.sqrt((1 / 3) * (2 / 3) / total)
    for key in ("spectral", "tail", "atom"):
        assert abs(counts[key] / total - 1 / 3) <= 3 * se


def test_empirical_cdf_against_analytic():
    d = SamplingDensity(sob(), "spectral-mix", m=3)
    nodes = draw_nodes(d, 100_000, seed=17)
    x = np.sort(nodes.x)
    f = d.cdf(x)
    grid = (np.arange(x.size) + 0.5) / x.size
    ks = float(np.abs(f - grid).max()) + 0.5 / x.size
    # exact sampler: KS fluctuates like 1/sqrt(n)
    assert ks < 0.006


def test_nodes_roundtrip(tmp_path):
    d = SamplingDensity(sob(), "kernel-diag")
    nodes = draw_nodes(d, 64, seed=3, stream=2)
    path = tmp_path / "nodes.csv"
    nodes.save(path)
    back = type(nodes).load(path, kind=nodes.kind)
    np.testing.assert_array_equal(nodes.x, back.x)
    np.testing.assert_array_equal(nodes.density_values, back.density_values)
    assert back.kind == nodes.kind and back.n == nodes.n


def test_nodes_from_points_evaluates_density():
    d = SamplingDensity(sob(), "spectral-mix", m=3)
    x = np.array([0.0, 0.25, 0.9])
    nodes = nodes_from_points(d, x)
    np.testing.assert_allclose(nodes.density_values, d.evaluate(x))
    assert nodes.n == 3


@pytest.mark.parametrize("kind", ["spectral-mix", "spectral-mix-atom",
                                  "kernel-diag"])
def test_tail_terms_raise_on_residual_above_eps(kind):
    # the cosine tail series of k^-2 has no closed form; its pointwise
    # residual (7.6e-6 from m = 5) is far above eps_trunc
    model = SpectralKernelModel(get_basis("cosine"), PolynomialDecay(1.0))
    d = SamplingDensity(model, kind, m=5)
    with pytest.raises(TruncationError):
        d.evaluate(np.array([0.1, 0.6]))


class _FixedUniforms:
    """A generator stand-in whose uniforms the test chooses."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, count):
        return self.u[:count]


def test_deep_tail_draws_invert_the_eigenvalue_tail():
    # Fourier k^-1.6 tail from m = 5: u this close to 1 lies past the cached
    # cumulative table, so the draw takes the search on the closed-form tail
    model = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(0.8))
    d = SamplingDensity(model, "spectral-mix", m=5)
    u = 1.0 - 1e-6
    (k,) = d._sample_tail_indices(_FixedUniforms([u]), 1, 5)
    target = (1.0 - u) * model.tail_sum(5)
    assert k > d._tail_index_table(5)[1][-1]
    assert k == model.rule.index_for_tail(target)
    assert model.tail_sum(k + 1) <= target < model.tail_sum(k)
    # the largest uniform below 1 needs an index past 2^62: no silent cap
    with pytest.raises(TruncationError):
        d._sample_tail_indices(_FixedUniforms([1.0 - 2.0 ** -53]), 1, 5)


def _indexed_sample(density, rng, count):
    """Oracle: the mixture sampler with every tail-shaped term mapping its
    index uniforms to eigen indices, whatever the basis."""
    model = density.model
    terms = list(density.mixture_weights().items())
    edges = np.cumsum([w for _, w in terms])
    choice = np.minimum(np.searchsorted(edges, rng.random(count),
                                        side="right"), len(terms) - 1)
    x = np.empty(count)
    for t_i, (term, _w) in enumerate(terms):
        mask = choice == t_i
        k = int(np.count_nonzero(mask))
        if k == 0:
            continue
        if term == "atom":
            x[mask] = rng.random(k)
        elif term == "spectral":
            idx = rng.integers(1, density.m, size=k)
            x[mask] = density._coordinate_for_indices(rng, idx)
        else:
            start, atom = density._tail_term(term)
            is_atom = np.zeros(k, dtype=bool)
            if term != "tail":
                is_atom = rng.random(k) < atom / (model.tail_sum(start) + atom)
            vals = np.empty(k)
            vals[is_atom] = rng.random(int(np.count_nonzero(is_atom)))
            rest = int(np.count_nonzero(~is_atom))
            if rest:
                idx = density._sample_tail_indices(rng, rest, start)
                vals[~is_atom] = density._coordinate_for_indices(rng, idx)
            x[mask] = vals
    return x


@pytest.mark.parametrize("kind,m,atom", [
    ("spectral-mix", 5, 0.0), ("spectral-mix", 33, 0.3),
    ("spectral-mix-atom", 5, 0.0), ("spectral-mix-atom", 12, 0.3),
    ("kernel-diag", None, 0.3)])
def test_fourier_draws_keep_the_bits_of_the_index_path(kind, m, atom):
    # a Fourier tail term draws its index uniforms but never maps them, so
    # no table is built; the nodes are those of the mapped index path
    model = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0),
                                atom_mass=atom)
    for seed in (0, 3, 104):
        for stream in (0, 7, 2 ** 33):
            for n in (1, 40, 1500):
                d = SamplingDensity(model, kind, m=m)
                nodes = draw_nodes(d, n, seed, stream)
                want = _indexed_sample(SamplingDensity(model, kind, m=m),
                                       trial_rng(seed, stream), n)
                # no collision, so draw_nodes made no second draw
                assert np.unique(want).size == n
                np.testing.assert_array_equal(nodes.x, want)
                assert d._tail_table is None


def _full_cap_indices(model, m0, u):
    """Oracle: the indices a table built whole to its cap gives, with the
    closed-form tail search past it."""
    cap = model.rank if model.rank is not None else m0 + _TAIL_TABLE_CAP
    ks = np.arange(m0, cap + 1)
    total = model.tail_sum(m0)
    cum = np.cumsum(model.eigenvalues(ks)) / total
    pos = np.searchsorted(cum, u, side="left")
    out = [ks[p] if p < ks.size
           else model.rule.index_for_tail((1.0 - v) * total)
           for p, v in zip(pos, u)]
    return np.asarray(out, dtype=np.int64), cum


def _table_size_for(cum, u):
    """The size a grown table reaches for the largest uniform u."""
    size = min(_TAIL_TABLE_START, cum.size)
    while size < cum.size and cum[size - 1] < u:
        size = min(2 * size, cum.size)
    return size


def _cosine_tail_cases():
    cosine = get_basis("cosine")
    return {
        "sobolev": SpectralKernelModel(cosine, SobolevDecay(1.0)),
        "poly": SpectralKernelModel(cosine, PolynomialDecay(0.8)),
        # rank 300, below the first table size
        "finite-rank": SpectralKernelModel(
            cosine, ExplicitEigenvalues(1.0 / np.arange(1, 301) ** 2)),
    }


@pytest.mark.parametrize("name", sorted(_cosine_tail_cases()))
@pytest.mark.parametrize("kind,m", [("kernel-diag", None),
                                    ("spectral-mix", 6)])
def test_grown_cosine_table_gives_the_full_cap_indices(name, kind, m):
    model = _cosine_tail_cases()[name]
    m0 = 1 if kind == "kernel-diag" else m
    _, cum = _full_cap_indices(model, m0, np.zeros(0))
    grid = np.linspace(0.0, 1.0, 201)[:-1]
    # the last value of each smaller table, and one ulp either side
    ends = cum[[s - 1 for s in (_TAIL_TABLE_START << np.arange(5))
                if s < cum.size]]
    edges = np.concatenate([np.nextafter(ends, 0.0), ends,
                            np.nextafter(ends, 1.0)])
    # past the cap's last value: the closed-form tail search
    past = np.array([np.nextafter(cum[-1], 1.0), 0.5 * (cum[-1] + 1.0),
                     1.0 - 1e-9])
    past = past[past < 1.0]
    u = np.concatenate([grid, edges, past])
    want, _ = _full_cap_indices(model, m0, u)
    if name == "finite-rank":
        assert cum.size == 301 - m0 < _TAIL_TABLE_START
    else:
        assert past.size and ends.size == 5
    for v, k in zip(u, want):
        d = SamplingDensity(model, kind, m=m)
        assert d._sample_tail_indices(_FixedUniforms([v]), 1, m0) == [k]
        assert d._tail_table[1].size == _table_size_for(cum, v)
        np.testing.assert_array_equal(d._tail_table[2],
                                      cum[: d._tail_table[1].size])
    # all at once, on one density
    d = SamplingDensity(model, kind, m=m)
    np.testing.assert_array_equal(
        d._sample_tail_indices(_FixedUniforms(u), u.size, m0), want)


def test_cached_tail_table_grows_across_calls_and_never_shrinks():
    model = _cosine_tail_cases()["poly"]
    d = SamplingDensity(model, "kernel-diag")
    _, cum = _full_cap_indices(model, 1, np.zeros(0))
    second = np.nextafter(cum[2 * _TAIL_TABLE_START - 1], 1.0)
    first = np.nextafter(cum[_TAIL_TABLE_START - 1], 1.0)
    sizes = []
    for v in (0.2, second, 0.1, first, np.nextafter(cum[-1], 1.0), 0.3):
        (k,) = d._sample_tail_indices(_FixedUniforms([v]), 1, 1)
        assert k == _full_cap_indices(model, 1, [v])[0][0]
        sizes.append(d._tail_table[1].size)
    s = _TAIL_TABLE_START
    assert sizes == [s, 4 * s, 4 * s, 4 * s, cum.size, cum.size]


@pytest.mark.parametrize("kind", ["spectral-mix", "kernel-diag"])
def test_cosine_draw_past_two_to_the_62_raises_through_sample(kind):
    # a cosine draw reads its index, so an index past 2^62 still raises;
    # a Fourier draw computes no index, and the same uniform is its node
    u = _FixedUniforms([1.0 - 2.0 ** -53])
    m = 5 if kind == "spectral-mix" else None
    cosine = SpectralKernelModel(get_basis("cosine"), PolynomialDecay(0.8))
    with pytest.raises(TruncationError):
        SamplingDensity(cosine, kind, m=m)._sample(u, 1)
    fourier = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(0.8))
    x, _ = SamplingDensity(fourier, kind, m=m)._sample(u, 1)
    np.testing.assert_array_equal(x, u.u)


def test_normalized_view_budgets():
    model = sob()
    for m in (3, 5):
        d = SamplingDensity(model, "spectral-mix", m=m)
        view = NormalizedKernelView(model, d)
        top, _ = view.spectral_sum_grid_max(m, npts=20001)
        assert top <= 2.0 * (m - 1) + 1e-9
        tail_top, _ = view.tail_energy_grid_max(m, npts=20001)
        assert tail_top <= 2.0 * model.tail_sum(m) / min(
            d.mixture_weights().values()) + 1e-9


def test_trial_rng_streams_are_independent_counters():
    a = trial_rng(5, 0).random(4)
    b = trial_rng(5, 0).random(4)
    c = trial_rng(5, 1).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_nodes_redraws_the_later_copy_of_a_collision(monkeypatch):
    d = SamplingDensity(sob(), "plain")
    sample = d._sample
    calls = []

    def colliding(rng, count):
        x, tally = sample(rng, count)
        if not calls:
            x[[5, 9]] = x[2]
        calls.append(count)
        return x, tally

    monkeypatch.setattr(d, "_sample", colliding)
    nodes = draw_nodes(d, 20, seed=4)
    assert calls == [20, 2]
    rng = trial_rng(4)
    first, _ = sample(rng, 20)
    redraw, _ = sample(rng, 2)
    first[[5, 9]] = redraw
    np.testing.assert_array_equal(nodes.x, first)


def _budget_models():
    fourier, cosine = get_basis("fourier"), get_basis("cosine")
    return {
        "fourier": SpectralKernelModel(fourier, PolynomialDecay(1.0)),
        "fourier-atom": SpectralKernelModel(fourier, PolynomialDecay(1.0),
                                            atom_mass=0.4),
        "cosine": sob(),
        "cosine-atom": sob_atom(),
        "finite-rank": SpectralKernelModel(
            cosine, ExplicitEigenvalues([1.0, 0.5, 0.25, 0.125])),
    }


@pytest.mark.parametrize("name", sorted(_budget_models()))
def test_spectral_budget_bounds_every_budget_kind(name):
    model = _budget_models()[name]
    for kind in SamplingDensity.KINDS:
        for m in (2, 3, 5):
            if kind not in BUDGET_KINDS:
                with pytest.raises(ValueError):
                    spectral_budget(model, kind, m)
                continue
            view = NormalizedKernelView(model, SamplingDensity(model, kind,
                                                               m=m))
            top, _ = view.spectral_sum_grid_max(m, npts=20001)
            assert top <= spectral_budget(model, kind, m) + 1e-9


@pytest.mark.parametrize("kind,m,atom", [
    ("plain", None, 0.0), ("spectral-mix", 4, 0.0),
    ("spectral-mix-atom", 4, 0.3), ("kernel-diag", None, 0.3)])
def test_fourier_distribution_function_is_the_identity(kind, m, atom):
    # every |eta_k|^2 is 1 on the torus, so every Fourier density is flat
    model = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0),
                                atom_mass=atom)
    d = SamplingDensity(model, kind, m=m)
    x = np.linspace(0.0, 1.0, 29)
    np.testing.assert_allclose(d.cdf(x), x, rtol=0.0, atol=1e-14)


def test_node_set_size_is_read_from_its_points(tmp_path):
    density = SamplingDensity(sob(), "spectral-mix", m=3)
    drawn = draw_nodes(density, 37, seed=2)
    path = tmp_path / "nodes.csv"
    drawn.save(path)
    loaded = type(drawn).load(path)
    chosen = nodes_from_points(density, [0.1, 0.5, 0.9])
    assert (drawn.n, loaded.n, chosen.n) == (37, 37, 3)
    chosen.x = chosen.x[:2]
    assert chosen.n == 2
