"""Sampling densities adapted to a spectral kernel model, with exact samplers.

Densities are expressed w.r.t. the uniform base measure of the model's 1-d
domain and written as flat mixtures whose components are the normalized
squared basis functions |eta_j|^2 (plus a uniform component for the diagonal
atom).  Each kind is an equal-weight mixture of its terms (``KIND_TERMS``);
a term that carries no mass is dropped and the rest share its weight:

  plain             constant 1 (sample from the base measure itself)
  spectral-mix      [mean of |eta_j|^2, j < m]
                    and [(K(x,x) - sum_{j<m} lambda_j |eta_j|^2) / remaining trace]
  spectral-mix-atom spectral part, eigenvalue tail part, atom part
  kernel-diag       K(x, x) / trace

Sampling is exact mixture sampling with a fixed RNG consumption order so that
identical (seed, stream) pairs reproduce identical nodes bit for bit.  A
tail-shaped term draws one uniform per node for its eigen index, then one
for the coordinate.  On the Fourier basis every |eta_k|^2 is uniform, so the
index uniforms are drawn (the stream depends on them) but never mapped.  On
the cosine basis the index comes from a cached cumulative table, grown only
as far as the largest uniform needs; the rare draws past the table's cap are
resolved by binary search on the closed-form eigenvalue tail, so slow decay
does not bias the sampler, and one whose index would pass 2^62 raises
TruncationError instead of being capped.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDensityError, TruncationError
from .kernels import TWO_PI, grid_maximum

_TAIL_TABLE_START = 1 << 12
_TAIL_TABLE_CAP = 1 << 16
_NEWTON_STEPS = 4  # in invert_cosine_component_cdf

# density kind -> its mixture terms: "spectral" is the mean of |eta_k|^2 over
# k < m, "rest" the eigenvalue tail from m with the atom, "tail" the tail
# alone, "diag" K(x, x), and "plain" and "atom" are constant
KIND_TERMS = {
    "plain": ("plain",),
    "spectral-mix": ("spectral", "rest"),
    "spectral-mix-atom": ("spectral", "tail", "atom"),
    "kernel-diag": ("diag",),
}
# the kinds that have a ``spectral_budget``
BUDGET_KINDS = ("plain",) + tuple(k for k, terms in KIND_TERMS.items()
                                  if "spectral" in terms)


@dataclass
class NodeSet:
    """Random nodes with the density values at the nodes."""

    x: np.ndarray
    density_values: np.ndarray
    kind: str
    n: int
    seed: int = 0
    stream: int = 0
    component_counts: dict = field(default_factory=dict)

    def save(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "x", "density"])
            for i, (xi, di) in enumerate(zip(self.x, self.density_values)):
                w.writerow([i, repr(float(xi)), repr(float(di))])

    @classmethod
    def load(cls, path, kind="loaded"):
        xs, ds = [], []
        with open(path, newline="", encoding="utf-8") as fh:
            r = csv.reader(fh)
            next(r)
            for row in r:
                xs.append(float(row[1]))
                ds.append(float(row[2]))
        x = np.asarray(xs)
        return cls(x=x, density_values=np.asarray(ds), kind=kind, n=x.size)


class SamplingDensity:
    """A node-drawing density tied to a model (and a mode count for the
    m-adapted kinds)."""

    KINDS = tuple(KIND_TERMS)

    def __init__(self, model, kind, m=None):
        if kind not in KIND_TERMS:
            raise ValueError("unknown density kind %r" % (kind,))
        self.model = model
        self.kind = kind
        self.m = None if m is None else int(m)
        self._tail_table = None
        if "spectral" in KIND_TERMS[kind]:
            if self.m is None or self.m < 2:
                raise ValueError("%s needs m >= 2" % kind)
            if model.rank is not None and self.m - 1 > model.rank:
                raise DegenerateDensityError(
                    "density requests %d modes but the kernel has rank %d"
                    % (self.m - 1, model.rank))
        # terms that carry mass share the weight equally
        terms = [t for t in KIND_TERMS[kind] if self._term_mass(t) > 0.0]
        if not terms:
            raise DegenerateDensityError("%s has no term with positive mass"
                                         % kind)
        self._weights = dict.fromkeys(terms, 1.0 / len(terms))

    # -- mixture structure ---------------------------------------------------

    def _tail_term(self, term):
        """(first eigen index, bundled atom mass) of a tail-shaped term: the
        eigenvalue tail from that index plus an atom.  The "tail" term of
        spectral-mix-atom bundles none; its atom is a term of its own."""
        atom = 0.0 if term == "tail" else self.model.atom_mass
        return (1 if term == "diag" else self.m), atom

    def _term_mass(self, term):
        if term in ("plain", "spectral"):
            return 1.0
        if term == "atom":
            return self.model.atom_mass
        start, atom = self._tail_term(term)
        return self.model.tail_sum(start) + atom

    def mixture_weights(self):
        return dict(self._weights)

    def evaluate(self, x):
        """The weighted sum of each term's own probability density at x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        model = self.model
        total = np.zeros(x.shape)
        for term, w in self._weights.items():
            if term in ("plain", "atom"):
                value = 1.0
            elif term == "spectral":
                value = model.basis.spectral_sum_at(self.m, x) / (self.m - 1)
            else:
                start, atom = self._tail_term(term)
                v, res = model.tail_energy_at(start, x)
                if res > model.eps_trunc:
                    raise TruncationError(
                        "tail series residual %.3e > eps" % res)
                value = (v + atom) / (model.tail_sum(start) + atom)
            total += w * value
        return total

    def sup_inverse(self):
        """Analytic upper bound on sup_x 1/rho(x), used by envelope checks.

        The constant terms (plain, atom) bound the density from below by
        their weight; without one a grid bound is returned (built-in
        densities are bounded away from zero through the constant basis
        function eta_1).
        """
        floor = sum(w for t, w in self._weights.items()
                    if t in ("plain", "atom"))
        if floor > 0.0:
            return 1.0 / floor
        val, _ = grid_maximum(lambda x: 1.0 / self.evaluate(x), npts=20001)
        return val

    # -- distribution function ----------------------------------------------

    def cdf(self, x):
        """Distribution function of the density on [0, 1]."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        model = self.model
        total = np.zeros(x.shape)
        for term, w in self._weights.items():
            if term in ("plain", "atom"):
                total += w * x
            elif term == "spectral":
                total += w * model.basis.spectral_sum_cdf(self.m, x) / (
                    self.m - 1)
            else:
                start, atom = self._tail_term(term)
                tail = model.basis.weighted_tail_cdf(model.rule, start, x)
                total += w * (atom * x + tail) / (model.tail_sum(start) + atom)
        return total

    # -- sampling ------------------------------------------------------------

    def _tail_index_table(self, m_start, u_max=0.0):
        """Cached cumulative tail-eigenvalue table starting at m_start.

        The table holds _TAIL_TABLE_START entries and doubles until its last
        value reaches u_max or it holds every index up to the model's rank,
        or to m_start + _TAIL_TABLE_CAP; it never shrinks.  Each growth sums
        again from m_start, so every entry, and every position a search
        finds below u_max, has the bits of the table at its cap.
        """
        model = self.model
        cap = model.rank if model.rank is not None else m_start + _TAIL_TABLE_CAP
        full = max(cap - m_start + 1, 0)

        def build(size, total):
            ks = np.arange(m_start, m_start + size)
            return m_start, ks, np.cumsum(model.eigenvalues(ks)) / total, total

        table = self._tail_table
        if table is None or table[0] != m_start:
            table = build(min(_TAIL_TABLE_START, full), model.tail_sum(m_start))
        while table[1].size < full and table[2][-1] < u_max:
            table = build(min(2 * table[1].size, full), table[3])
        self._tail_table = table
        return table

    def _sample_tail_indices(self, rng, count, m_start):
        u = rng.random(count)
        m0, ks, cum, total = self._tail_index_table(m_start,
                                                    u.max(initial=0.0))
        pos = np.searchsorted(cum, u, side="left")
        out = np.empty(count, dtype=np.int64)
        inside = pos < ks.size
        out[inside] = ks[pos[inside]]
        # a draw past the table inverts the closed-form tail: the smallest K
        # with tail(K+1) <= (1 - u) tail(m_start)
        for i in np.nonzero(~inside)[0]:
            out[i] = self.model.rule.index_for_tail((1.0 - u[i]) * total)
        return out

    def _coordinate_for_indices(self, rng, eigen_idx):
        """Draw x from |eta_k|^2 for each eigen index (vectorized)."""
        count = eigen_idx.size
        u = rng.random(count)
        if self.model.basis.name == "fourier":
            return u
        freqs = (eigen_idx - 1).astype(np.int64)
        return invert_cosine_component_cdf(freqs, u)

    def _sample(self, rng, count):
        model = self.model
        if "plain" in self._weights:
            return rng.random(count), {"plain": count}
        terms = list(self._weights.items())
        edges = np.cumsum([w for _, w in terms])
        choice = np.searchsorted(edges, rng.random(count), side="right")
        choice = np.minimum(choice, len(terms) - 1)
        x = np.empty(count)
        tally = {}
        for t_i, (term, _w) in enumerate(terms):
            mask = choice == t_i
            k = int(np.count_nonzero(mask))
            tally[term] = k
            if k == 0:
                continue
            if term in ("plain", "atom"):
                x[mask] = rng.random(k)
            elif term == "spectral":
                idx = rng.integers(1, self.m, size=k)
                x[mask] = self._coordinate_for_indices(rng, idx)
            else:
                start, atom = self._tail_term(term)
                is_atom = np.zeros(k, dtype=bool)
                # every term that bundles an atom draws its coin, even at
                # mass 0: the node stream of a seed depends on it
                if term != "tail":
                    is_atom = rng.random(k) < atom / (model.tail_sum(start)
                                                      + atom)
                ka = int(np.count_nonzero(is_atom))
                vals = np.empty(k)
                vals[is_atom] = rng.random(ka)
                if k - ka and self.model.basis.name == "fourier":
                    # every |eta_k|^2 is uniform: the index uniforms keep
                    # the stream as it is, but no index is computed
                    rng.random(k - ka)
                    vals[~is_atom] = rng.random(k - ka)
                elif k - ka:
                    idx = self._sample_tail_indices(rng, k - ka, start)
                    vals[~is_atom] = self._coordinate_for_indices(rng, idx)
                x[mask] = vals
        return x, tally


def spectral_budget(model, density_kind, m):
    """A-priori bound on sup_x sum_{k < m} |eta_k(x)|^2 / rho(x).

    The plain density (also ``None``) keeps the model's spectral function.
    A mixture's spectral term, the mean of |eta_k|^2 over k < m, has weight
    at least one over the number of terms, so that number times m - 1 bounds
    the ratio; a kind without a spectral term has no bound."""
    if density_kind in (None, "plain"):
        return model.spectral_function(m)
    if density_kind not in BUDGET_KINDS:
        raise ValueError("no spectral-function bound for density %r"
                         % (density_kind,))
    return float(len(KIND_TERMS[density_kind]) * (m - 1))


def invert_cosine_component_cdf(freqs, u):
    """Solve F_j(x) = x + sin(2 pi j x)/(2 pi j) = u on [0, 1], vectorized.

    Reduced form: with j u = l + v (l integer, v in [0, 1)) the root is
    x = (l + 1/2 + s)/j, where s in [-1/2, 1/2] solves
    g(s) = s - sin(2 pi s)/(2 pi) = v - 1/2.  g is increasing with one flat
    point, at s = 0, where it behaves like (2 pi)^2 s^3 / 6.  Newton steps
    on g start from that cube root; across [-1/2, 1/2] three of them reach
    1e-10 in s, and the fourth is margin.  A step that is not finite
    (g' = 0 at s = 0) keeps the previous iterate.  Frequency 0 means the
    uniform component.
    """
    freqs = np.asarray(freqs, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    uniform = freqs == 0
    out[uniform] = u[uniform]
    act = ~uniform
    if np.any(act):
        j = freqs[act]
        ju = j * u[act]
        whole = np.floor(ju)
        rhs = (ju - whole) - 0.5
        s = np.cbrt(6.0 / TWO_PI ** 2 * rhs)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                # g'(s) = 1 - cos(2 pi s) = 2 sin^2(pi s), without cancellation
                step = ((s - np.sin(TWO_PI * s) / TWO_PI - rhs)
                        / (2.0 * np.sin(math.pi * s) ** 2))
                s = np.where(np.isfinite(step), s - step, s)
        # s in [-1/2, 1/2] keeps x in [0, 1] whatever the last rounding
        out[act] = (whole + 0.5 + np.clip(s, -0.5, 0.5)) / j
    return out


def trial_rng(seed, stream=0):
    """Counter-based per-trial generator: streams never overlap."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def draw_nodes(density, count, seed, stream=0):
    """Draw ``count`` i.i.d. nodes from the density.

    Collisions (probability zero under the continuous densities, but finite
    floats) are resampled; all returned density values are strictly positive.
    """
    count = int(count)
    if count < 1:
        raise ValueError("need at least one node")
    rng = trial_rng(seed, stream)
    x, tally = density._sample(rng, count)
    for _ in range(64):
        # a plain sort finds whether any value repeats; only a round that
        # finds one pays for the stable argsort that marks the later copies
        if not np.any(np.diff(np.sort(x)) == 0.0):
            break
        order = np.argsort(x, kind="stable")
        dup_sorted = np.zeros(count, dtype=bool)
        dup_sorted[1:] = np.diff(x[order]) == 0.0
        dup = np.zeros(count, dtype=bool)
        dup[order] = dup_sorted
        redraw, _ = density._sample(rng, int(dup.sum()))
        x[dup] = redraw
    else:
        raise RuntimeError("node collisions persisted after resampling")
    vals = density.evaluate(x)
    if np.any(vals <= 0.0):
        raise DegenerateDensityError("drew a node with non-positive density")
    return NodeSet(x=x, density_values=vals, kind=density.kind, n=count,
                   seed=int(seed), stream=int(stream),
                   component_counts=tally)


def nodes_from_points(density, x):
    """Wrap explicitly chosen points (tests, reproductions) as a NodeSet."""
    x = np.asarray(x, dtype=float)
    x = density.model.domain.canonical(x)
    if np.unique(x).size != x.size:
        raise ValueError("points must be distinct")
    vals = density.evaluate(x)
    return NodeSet(x=x, density_values=vals, kind=density.kind, n=x.size)


class NormalizedKernelView:
    """The model seen through a density: K~(x,y) = K(x,y)/sqrt(rho(x) rho(y)).

    The system eta_k / sqrt(rho) is orthonormal w.r.t. the sampling measure
    rho dmu, so the view exposes the same spectral quantities with the
    density folded in.  Used for eigenvalue tail experiments under importance
    sampling and for checking the density-design bounds on grids.
    """

    def __init__(self, model, density):
        self.model = model
        self.density = density

    def spectral_sum(self, m, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (self.model.basis.spectral_sum_at(m, x)
                / self.density.evaluate(x))

    def tail_energy(self, m, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v, res = self.model.tail_energy_at(m, x)
        rho = self.density.evaluate(x)
        return v / rho, res

    def spectral_sum_grid_max(self, m, npts=100001):
        return grid_maximum(lambda x: self.spectral_sum(m, x), npts)

    def tail_energy_grid_max(self, m, npts=100001):
        def f(x):
            v, _ = self.tail_energy(m, x)
            return v
        return grid_maximum(f, npts)
