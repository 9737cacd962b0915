"""Kernels defined by an explicit singular system on 1-d reference domains.

A model couples an orthonormal function system (Fourier exponentials on the
torus, or the cosine system on the unit interval, both orthonormal w.r.t. the
uniform probability measure) with a summable non-increasing eigenvalue
sequence lambda_1 >= lambda_2 >= ... > 0, plus an optional diagonal atom of
mass ``atom_mass`` modelling the component of the space that is invisible in
L2.  The kernel is

    K(x, y) = sum_k lambda_k eta_k(x) conj(eta_k(y)) + atom_mass * 1{x == y}

and the spectral quantities driving the bounds are

    N(m) = sup_x sum_{k < m} |eta_k(x)|^2        (partial supremum)
    T(m) = sup_x sum_{k >= m} lambda_k |eta_k(x)|^2   (tail energy supremum)

For the built-in rule/basis combinations these are available in closed form;
every truncated evaluation carries an explicit residual bound and raises when
the model tolerance cannot be met.

Every value exp(i*f*theta) at a set of angles comes from one recurrence:
``_geometric_rows`` takes powers of the one exact ``exp(i*theta)``, one
n-vector multiply per frequency.  Basis blocks gather its rows, started at
the exact exp(i*lo*theta) of their lowest frequency; weighted moments and
trigonometric series split f = c*B + b with B near sqrt(top) and contract a
rotation table (b < B) with an anchor table (steps of exp(i*B*theta)), one
block of nodes at a time, a block sized so that its tables hold about 2^16
complex cells.  The cosine basis reads only the real parts of the moments:
one real product of the interleaved tables, and in the same pass the
per-node series of a kernel family's norms.  Only closed forms (geometric
sums, the cosine series of 1/(1+j^2) and its sine companion) evaluate
trigonometric functions directly; exp(i*theta) itself is written from cos
and sin, the bits of a complex ``exp``.
"""

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, TruncationError

TWO_PI = 2.0 * math.pi
_EPS_TRUNC_REL = 1e-10  # truncation tolerance relative to the trace
_TERNARY_STEPS = 40  # refinement steps after the grid scan of grid_maximum
_NODE_BLOCK = 1024  # fewest nodes per pair of split tables
_TABLE_CELLS = 1 << 16  # complex cells (1 MiB) of a pair of wider ones


# ---------------------------------------------------------------------------
# eigenvalue rules
# ---------------------------------------------------------------------------


class EigenvalueRule:
    """Non-increasing positive sequence with exact tail sums.

    Indices are 1-based.  ``tail(m)`` returns sum_{k >= m} lambda_k, the
    trace ``total()`` for every m < 1; for the built-in rules this is exact
    (closed form or Euler-Maclaurin with a remainder far below float
    resolution), which is what makes deep truncation-residual bookkeeping
    cheap.
    """

    name = "abstract"
    rank = None  # finite rank, or None for an infinite sequence

    def values(self, k):
        raise NotImplementedError

    def tail(self, m):
        raise NotImplementedError

    def value(self, k):
        return float(self.values(np.asarray([k], dtype=np.int64))[0])

    def total(self):
        return self.tail(1)

    def index_for_tail(self, bound):
        """Smallest N with tail(N+1) <= bound."""
        if self.tail(1) <= bound:
            return 0
        if self.rank is not None:
            lo, hi = 1, self.rank
        else:
            hi = 1
            while self.tail(hi + 1) > bound:
                hi *= 2
                if hi > 2 ** 62:
                    raise TruncationError("tail bound unreachable")
            lo = hi // 2
        while lo < hi:
            mid = (lo + hi) // 2
            if self.tail(mid + 1) <= bound:
                hi = mid
            else:
                lo = mid + 1
        return lo


_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz_zeta(x, q):
    """sum_{k >= 0} (k + q)^(-x) for x > 1, q >= 1: Cephes ``zeta``, the
    routine behind scipy.special.zeta, step for step (so bit for bit).

    Past q = 1e8 the first two terms of the expansion in 1/q (DLMF
    25.11.43); below it the sum runs until a term falls under MACHEP, at
    least ten terms and up to k + q > 9, and Euler-Maclaurin with up to
    twelve Bernoulli terms (A[i] = (2i+2)! / B_{2i+2}) closes it."""
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for c in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / c
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


class PolynomialDecay(EigenvalueRule):
    """lambda_k = k^(-2s); summable for s > 1/2.

    The tail is the Hurwitz zeta zeta(2s, m), from a port of the Cephes
    routine (Moshier, Methods and Programs for Mathematical Functions,
    1989) that gives scipy.special.zeta's bits without loading scipy."""

    name = "poly"

    def __init__(self, s):
        if not 0.5 < s < math.inf:
            raise ValueError("polynomial decay needs a finite s > 1/2")
        self.s = float(s)

    def values(self, k):
        k = np.asarray(k, dtype=float)
        return k ** (-2.0 * self.s)

    def tail(self, m):
        return _hurwitz_zeta(2.0 * self.s, float(max(m, 1)))

    def describe(self):
        return {"name": self.name, "s": self.s}


@lru_cache(maxsize=4096)
def _sobolev_tail(s, j0):
    """sum_{j >= j0} (1+j^2)^(-s) by partial sum + Euler-Maclaurin.

    The integral from t on is 1/2 B(s - 1/2, 1/2) I_w(s - 1/2, 1/2) at
    w = 1/(1+t^2) (substitute w = 1/(1+u^2)), in closed form at s = 1.
    """
    if j0 <= 0:
        return 1.0 + _sobolev_tail(s, 1)
    cut = j0 + 4096
    j = np.arange(j0, cut, dtype=float)
    head = float(np.sum((1.0 + j * j) ** (-s)))
    t = float(cut)
    if s == 1.0:
        integral = math.atan2(1.0, t)  # arctan(1/t), exact
    else:
        from scipy.special import beta, betainc
        integral = 0.5 * float(beta(s - 0.5, 0.5)
                               * betainc(s - 0.5, 0.5, 1.0 / (1.0 + t * t)))
    f_t = (1.0 + t * t) ** (-s)
    fp_t = -2.0 * s * t * (1.0 + t * t) ** (-s - 1.0)
    # remainder of the correction is O(f'''(t)), far below 1e-16 here
    return head + integral + 0.5 * f_t - fp_t / 12.0


class SobolevDecay(EigenvalueRule):
    """lambda_k = (1 + (k-1)^2)^(-s); the constant mode carries weight 1."""

    name = "sobolev"

    def __init__(self, s):
        if not 0.5 < s < math.inf:
            raise ValueError("sobolev decay needs a finite s > 1/2")
        self.s = float(s)

    def values(self, k):
        j = np.asarray(k, dtype=float) - 1.0
        return (1.0 + j * j) ** (-self.s)

    def tail(self, m):
        return _sobolev_tail(self.s, int(m) - 1)

    def describe(self):
        return {"name": self.name, "s": self.s}


class GeometricDecay(EigenvalueRule):
    """lambda_k = scale * q^(k-1), 0 < q < 1."""

    name = "geometric"

    def __init__(self, q, scale=1.0):
        if not 0.0 < q < 1.0:
            raise ValueError("geometric ratio must lie in (0, 1)")
        if not 0.0 < scale < math.inf:
            raise ValueError("geometric scale must be positive and finite")
        self.q = float(q)
        self.scale = float(scale)

    def values(self, k):
        k = np.asarray(k, dtype=float)
        return self.scale * self.q ** (k - 1.0)

    def tail(self, m):
        return self.scale * self.q ** (max(m, 1) - 1.0) / (1.0 - self.q)

    def describe(self):
        return {"name": self.name, "q": self.q, "scale": self.scale}


class ExplicitEigenvalues(EigenvalueRule):
    """Finite list of eigenvalues; indices past the rank carry zero mass."""

    name = "explicit"

    def __init__(self, values):
        vals = np.asarray(list(values), dtype=float)
        if (not vals.size or not np.all((vals > 0.0) & (vals < math.inf))
                or np.any(np.diff(vals) > 1e-15)):
            raise ValueError("explicit eigenvalues must be a non-empty, "
                             "positive, finite, non-increasing list")
        self._values = vals
        self.rank = int(vals.size)
        self._suffix = np.concatenate([np.cumsum(vals[::-1])[::-1], [0.0]])

    def values(self, k):
        k = np.asarray(k, dtype=np.int64)
        out = np.zeros(k.shape, dtype=float)
        inside = (k >= 1) & (k <= self.rank)
        out[inside] = self._values[k[inside] - 1]
        return out

    def tail(self, m):
        m = int(m)
        if m < 1:
            m = 1
        if m > self.rank:
            return 0.0
        return float(self._suffix[m - 1])

    def describe(self):
        return {"name": self.name, "values": [float(v) for v in self._values]}


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def _geometric_rows(first, ratio, out):
    """Fill the rows of ``out`` with first * ratio**k, each one row-vector
    multiply, and return it."""
    out[0] = first
    for k in range(1, out.shape[0]):
        np.multiply(out[k - 1], ratio, out=out[k])
    return out


def _power_rows(x, period, lo, hi):
    """Rows exp(2*pi*i*f*x/period) for f = lo..hi, from the exact first row
    (lo*x reduced modulo the period) by ``_geometric_rows`` steps."""
    scale = TWO_PI / period
    first = 1.0 if lo == 0 else np.exp(1j * (scale * np.mod(lo * x, period)))
    return _geometric_rows(first, np.exp(1j * (scale * x)),
                           np.empty((hi - lo + 1, x.size), dtype=complex))


def _split_shape(top):
    """(C, B) of the split f = c*B + b <= top: B = isqrt(top) + 1 rotations
    and C = ceil((top + 1) / B) anchors."""
    step = math.isqrt(top) + 1
    return -(-(top + 1) // step), step


def _split_tables(theta, v, top):
    """Anchor and rotation tables for the frequencies f = c*B + b <= top,
    one block of nodes at a time.

    Yields (node slice, A, R) per block in node order, with the shapes of
    ``_split_shape``.  The rotation table R holds exp(i*b*theta_i) for b < B
    and the anchor table A holds v_i exp(i*c*B*theta_i) (a scalar v weights
    every node alike); both are powers of the one exact ``exp(i*theta)``,
    written from cos and sin into row 1 of R with no complex temporary,
    e^{iB theta} being one more step of R, so each row costs one
    block-vector multiply.  A block holds ``_TABLE_CELLS`` / (B + 1 + C)
    nodes, and at least ``_NODE_BLOCK``, so few frequencies take many nodes
    per block.  Every block refills the same two tables, views of one
    buffer, so a block's tables hold until the next block is drawn and
    memory is O(block sqrt(top)) whatever the node count.  Each node's
    entries are the bits unblocked tables would hold.
    """
    count, step = _split_shape(top)
    rows = step + 1 + count
    block = max(_NODE_BLOCK, _TABLE_CELLS // rows)
    # one block: two ~0.7 MB ones go back to the OS and fault in per call
    tables = np.empty((rows, min(theta.size, block)), dtype=complex)
    rotations, anchors = tables[: step + 1], tables[step + 1:]
    # an empty theta still yields one (empty) block
    for lo in range(0, max(theta.size, 1), block):
        part = slice(lo, lo + block)
        chunk = theta[part]
        ratio = rotations[1, : chunk.size]
        np.cos(chunk, out=ratio.real)
        np.sin(chunk, out=ratio.imag)
        # row 1 is the ratio itself: its step is 1 * ratio in place
        rot = _geometric_rows(1.0, ratio, rotations[:, : chunk.size])
        anc = _geometric_rows(v[part] if np.ndim(v) else v, rot[step],
                              anchors[:, : chunk.size])
        yield part, anc, rot[:step]


def _coef_table(coef, top):
    """coef[f] for f = 0..top laid out as the C x B table of
    ``_split_shape``, entry (c, b) at f = c*B + b, zero past top."""
    count, step = _split_shape(top)
    table = np.zeros(count * step, dtype=coef.dtype)
    table[: coef.size] = coef
    return table.reshape(count, step)


def _weighted_moments(theta, v, top):
    """S(f) = sum_i v_i exp(i*f*theta_i) for f = 0..top.

    With f = c*B + b, S(f) is entry (c, b) of the sum over node blocks of
    A R^T for the tables of ``_split_tables``, both powers of exp(i*theta)
    by the one recurrence of ``_geometric_rows``.  The blocks are added in
    node order to the first block's product, so up to one block of nodes
    gives the one product of the unblocked tables bit for bit; memory is
    O(block sqrt(top)).  The recurrence steps add (B + C) * eps of drift; the
    rounding of exp(i*theta) itself grows with f to about top * eps, the
    order of the rounding of the argument f*theta in a direct ``exp``.
    """
    blocks = _split_tables(theta, v, top)
    _, anchors, rotations = next(blocks)
    total = anchors @ rotations.T
    for _, anchors, rotations in blocks:
        total += anchors @ rotations.T
    return total.ravel()[: top + 1]


def _cosine_moments(theta, v, top, coef=None):
    """Re S(f) = sum_i v_i cos(f*theta_i) for f = 0..top and, given coef
    for f = 0..top, the series v_i sum_f coef[f] cos(f*theta_i) at each
    node (else None), from one pass of ``_split_tables``.

    Re(A R^T) is one real product of the interleaved (re, im) tables, conj(A)
    against R, at half the flops of the complex one; conj(A) is written over
    A in place.  The series is Re sum_c A[c, i] (M R)[c, i], coef laid out
    as the table M of ``_coef_table``, in the same real arithmetic.  Each
    moment sums its node terms in another order than the real part of
    ``_weighted_moments``, within a few eps of it.
    """
    total = 0.0
    series = None if coef is None else np.empty(theta.size)
    table = None if coef is None else _coef_table(coef, top)
    for part, anchors, rotations in _split_tables(theta, v, top):
        conj = np.conjugate(anchors, out=anchors).view(float)
        rot = rotations.view(float)
        total = total + conj @ rot.T
        if table is not None:
            terms = table @ rot
            terms *= conj
            pairs = terms.sum(axis=0)
            np.add(pairs[0::2], pairs[1::2], out=series[part])
    return total.ravel()[: top + 1], series


def _trig_series(theta, coef):
    """sum_f coef[f] exp(i*f*theta) at each theta, f = 0..len(coef) - 1.

    The transposed contraction of ``_weighted_moments``: with coef laid out
    as the C x B table M of ``_coef_table``, the series at theta_i is
    sum_c A[c, i] (M R)[c, i], written block by block of nodes.
    """
    theta = np.asarray(theta, dtype=float)
    top = coef.size - 1
    table = _coef_table(coef, top)
    out = np.empty(theta.size, dtype=complex)
    for part, anchors, rotations in _split_tables(theta.ravel(), 1.0, top):
        np.sum(anchors * (table @ rotations), axis=0, out=out[part])
    return out.reshape(theta.shape)


def _eval_one(basis, k, x):
    """eta_k at x through the basis's ``eval_block``; a scalar x gives a
    scalar.  Both bases bind it as their ``eval``."""
    scalar = np.isscalar(x)
    out = basis.eval_block([int(k)], np.atleast_1d(x))[:, 0]
    return out[0] if scalar else out


class FourierBasis:
    """Complex exponentials on the 1-d torus, rank-ordered by |frequency|.

    Index 1 is the constant; even indices carry frequency +k/2, odd indices
    frequency -(k-1)/2.  |eta_k| == 1 everywhere, so partial suprema and tail
    energies collapse to plain eigenvalue sums.
    """

    name = "fourier"
    sup_eta_sq = 1.0
    dtype = np.dtype(complex)  # of eval_block's values

    @staticmethod
    def canonical(x):
        """Points reduced mod 1; a non-finite one raises DomainError."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DomainError("point outside the torus-1d domain")
        return np.mod(x, 1.0)

    @staticmethod
    def frequency(k):
        k = np.asarray(k, dtype=np.int64)
        return np.where(k % 2 == 0, k // 2, -((k - 1) // 2))

    def eval_block(self, ks, x):
        ks = np.atleast_1d(np.asarray(ks, dtype=np.int64))
        x = self.canonical(np.atleast_1d(x))
        freqs = self.frequency(ks)
        mags = np.abs(freqs)
        lo = int(mags.min())
        out = _power_rows(x, 1.0, lo, int(mags.max()))[mags - lo].T
        # negative frequencies are the conjugates of their |f| columns
        out.imag *= np.where(freqs < 0, -1.0, 1.0)
        return out

    def weighted_gram(self, rows, cols, x, v):
        """sum_i v_i conj(eta_j(x_i)) eta_k(x_i) for j in rows, k in cols.

        The entry is the moment S(f_k - f_j) at theta = 2 pi x; the real
        weights make S(-f) the conjugate of S(f).
        """
        x = self.canonical(np.atleast_1d(x))
        diff = (self.frequency(np.atleast_1d(cols))[None, :]
                - self.frequency(np.atleast_1d(rows))[:, None])
        moments = _weighted_moments(TWO_PI * x, np.asarray(v, dtype=float),
                                    int(np.abs(diff).max()))
        out = np.take(moments, np.abs(diff))
        np.conjugate(out, out=out, where=diff < 0)
        return out

    def gram_matvec(self, N, x, v):
        """u -> weighted_gram(1..N, 1..N, x, v) @ u through a circulant.

        In frequency order the Gram is Hermitian Toeplitz with entry (j, k) =
        S(k - j).  Its first column conj(S(0..N-1)) and first row S(0..N-1)
        wrap into a circulant of power-of-two size L >= 2N - 1 (Strang 1986),
        so each product is one FFT pair.
        """
        x = self.canonical(np.atleast_1d(x))
        pos = self.frequency(np.arange(1, N + 1)) + (N - 1) // 2
        size = 1 << (2 * N - 2).bit_length()
        moments = _weighted_moments(TWO_PI * x, np.asarray(v, dtype=float),
                                    N - 1)
        col = np.zeros(size, dtype=complex)
        col[:N] = moments.conj()
        col[size - N + 1:] = moments[:0:-1]
        spectrum = np.fft.fft(col)

        def apply(u):
            ordered = np.zeros(size, dtype=complex)
            ordered[pos] = u
            return np.fft.ifft(spectrum * np.fft.fft(ordered))[pos]
        return apply

    eval = _eval_one

    def spectral_sum_max(self, m):
        # |eta_k|^2 == 1
        return float(m - 1)

    def spectral_sum_at(self, m, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, float(m - 1))

    def spectral_sum_cdf(self, m, x):
        """sum_{k < m} F_k(x), F_k the distribution function of |eta_k|^2."""
        return (m - 1) * np.asarray(x, dtype=float)

    def weighted_tail_at(self, rule, m, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, rule.tail(m)), 0.0

    def weighted_tail_max(self, rule, m):
        return rule.tail(m)

    def head_and_gram(self, rule, dim, x):
        """(sum_{k <= dim} lambda_k |eta_k(x_i)|^2 at each node, the same at
        every node, and weighted_gram(1..dim, 1..dim, x, 1))."""
        ks = np.arange(1, dim + 1)
        head = float(np.sum(rule.values(ks)))
        return np.full(np.shape(x), head), self.weighted_gram(ks, ks, x, 1.0)

    def weighted_tail_cdf(self, rule, m, x):
        """sum_{k >= m} lambda_k F_k(x); every |eta_k|^2 is uniform."""
        return rule.tail(m) * np.asarray(x, dtype=float)

    def kernel_sum_at(self, rule, x, y, eps):
        """sum_k lambda_k eta_k(x) conj(eta_k(y)) with residual control."""
        delta = float(x) - float(y)
        if rule.name == "geometric":
            z = np.exp(TWO_PI * 1j * delta)
            q = rule.q
            val = rule.scale * (1.0 + q * z / (1.0 - q * q * z)
                                + q * q * np.conj(z) / (1.0 - q * q * np.conj(z)))
            return complex(val), 0.0
        cut = rule.rank if rule.rank is not None else 1 << 20
        cut = min(cut, 1 << 20)
        residual = rule.tail(cut + 1)
        if residual > eps:
            raise TruncationError(
                "off-diagonal kernel series for rule %r cannot reach eps=%.3e"
                % (rule.name, eps))
        lam = rule.values(np.arange(1, cut + 1))
        # frequency f >= 0 carries lambda_{2f} (lambda_1 at f = 0) and
        # frequency -f carries lambda_{2f+1}
        theta = TWO_PI * delta
        val = (_trig_series(theta, np.concatenate([lam[:1], lam[1::2]]))
               + _trig_series(-theta, np.concatenate([[0.0], lam[2::2]])))
        return complex(val), residual


class CosineBasis:
    """Cosine system on [0, 1]: eta_1 = 1, eta_k = sqrt(2) cos(pi (k-1) x).

    All |eta_k(x)|^2 are maximal simultaneously at x = 0, which gives exact
    closed forms for the partial suprema and tail energy suprema.
    """

    name = "cosine"
    sup_eta_sq = 2.0
    dtype = np.dtype(float)  # of eval_block's values

    @staticmethod
    def canonical(x):
        """Points of [0, 1] as they are; one outside raises DomainError."""
        x = np.asarray(x, dtype=float)
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise DomainError("point outside the unit-interval domain")
        return x

    def eval_block(self, ks, x):
        ks = np.atleast_1d(np.asarray(ks, dtype=np.int64))
        x = self.canonical(np.atleast_1d(x))
        freqs = ks - 1
        lo = int(freqs.min())
        out = _power_rows(x, 2.0, lo, int(freqs.max())).real[freqs - lo].T
        out *= np.where(freqs == 0, 1.0, math.sqrt(2.0))
        return out

    def weighted_gram(self, rows, cols, x, v):
        """sum_i v_i eta_j(x_i) eta_k(x_i) for j in rows, k in cols.

        With a = j-1, b = k-1, s_0 = 1/sqrt(2) and s_a = 1 otherwise,
        2 cos cos = cos(difference) + cos(sum) makes the entry
        s_a s_b (Cm(|a-b|) + Cm(a+b)), where Cm = Re S at theta = pi x.
        """
        x = self.canonical(np.atleast_1d(x))
        a = np.atleast_1d(np.asarray(rows, dtype=np.int64)) - 1
        b = np.atleast_1d(np.asarray(cols, dtype=np.int64)) - 1
        cm, _ = _cosine_moments(math.pi * x, np.asarray(v, dtype=float),
                                int(a.max() + b.max()))
        return _cosine_gram(cm, a, b)

    def head_and_gram(self, rule, dim, x):
        """(sum_{k <= dim} lambda_k |eta_k(x_i)|^2 at each node, and
        weighted_gram(1..dim, 1..dim, x, 1)) from one table pass at pi x.

        |eta_k|^2 = 1 + cos(2 (k-1) pi x) for k >= 2 makes the norms the
        eigenvalue sum plus a series at the even frequencies 2 (k-1) of the
        Gram's moments, up to their top 2 (dim - 1).
        """
        x = self.canonical(np.atleast_1d(x))
        lam = rule.values(np.arange(1, dim + 1))
        coef = np.zeros(2 * dim - 1)
        coef[2::2] = lam[1:]
        cm, series = _cosine_moments(math.pi * x, 1.0, 2 * dim - 2, coef)
        freqs = np.arange(dim)
        return float(np.sum(lam)) + series, _cosine_gram(cm, freqs, freqs)

    def gram_matvec(self, N, x, v):
        """u -> weighted_gram(1..N, 1..N, x, v) @ u through a circulant.

        With y = s o u, the Toeplitz part sum_b Cm(|a-b|) y_b and the Hankel
        part sum_b Cm(a+b) y_b are both circular convolutions with
        (Cm(0..2N-2), 0, ..., Cm(N-1..1)) of power-of-two size L >= 3N - 2,
        the Hankel one with y_b moved to L - b.  The sum of y and its mirror
        takes one rfft and one irfft per product.
        """
        x = self.canonical(np.atleast_1d(x))
        size = 1 << (3 * N - 3).bit_length()
        # the complex moments: at a discretization's top 2N - 2 = 1022 the
        # real product of _cosine_moments measured no faster
        cm = _weighted_moments(math.pi * x, np.asarray(v, dtype=float),
                               2 * N - 2).real
        col = np.zeros(size)
        col[: 2 * N - 1] = cm
        col[size - N + 1:] = cm[N - 1:0:-1]
        spectrum = np.fft.rfft(col)
        s = np.where(np.arange(N) == 0, math.sqrt(0.5), 1.0)

        def apply(u):
            if np.iscomplexobj(u):
                return apply(u.real) + 1j * apply(u.imag)
            y = s * u
            mirrored = np.zeros(size)
            mirrored[:N] = y
            mirrored[0] *= 2.0
            mirrored[size - N + 1:] = y[:0:-1]
            return s * np.fft.irfft(spectrum * np.fft.rfft(mirrored),
                                    size)[:N]
        return apply

    eval = _eval_one

    def spectral_sum_max(self, m):
        # at x = 0: 1 + 2 (m - 2) for m >= 2
        if m <= 1:
            return 0.0
        return float(2 * m - 3)

    def spectral_sum_at(self, m, x):
        """sum_{k < m} |eta_k(x)|^2 = (m - 1) + sum_{f=1}^{m-2} cos(2 pi f x),
        from |eta_k|^2 = 1 + cos(2 pi (k-1) x) for k >= 2."""
        x = self.canonical(x)
        if m <= 1:
            return np.zeros(x.shape)
        coef = np.concatenate([[0.0], np.ones(m - 2)])
        return (m - 1) + _trig_series(TWO_PI * x, coef).real

    def spectral_sum_cdf(self, m, x):
        """sum_{k < m} F_k(x) for m >= 2, F_k the distribution function of
        |eta_k|^2 (see ``weighted_tail_cdf``)."""
        x = np.asarray(x, dtype=float)
        coef = np.concatenate([[0.0], 1.0 / np.arange(1, m - 1)])
        return (m - 1) * x + _trig_series(TWO_PI * x, coef).imag / TWO_PI

    def _osc_tail(self, rule, m, theta):
        """sum_{k >= m} lambda_k cos((k-1) theta) for m >= 2, with residual."""
        if rule.name == "geometric":
            w = rule.q * np.exp(1j * np.asarray(theta, dtype=float))
            return rule.scale * np.real(w ** (m - 1) / (1.0 - w)), 0.0
        if rule.name == "sobolev" and rule.s == 1.0:
            return (_cos_series_inverse_sq(theta)
                    - _freq_series(rule, 2, m - 1, theta).real), 0.0
        cut = rule.rank if rule.rank is not None else 1 << 17
        cut = max(cut, m)
        return (_freq_series(rule, m, cut, theta).real,
                rule.tail(cut + 1))

    def _osc_cdf(self, rule, m, theta):
        """sum_{k >= m} lambda_k sin((k-1) theta) / (k-1) for m >= 2 and
        theta in [0, 2 pi]."""
        if rule.name == "sobolev" and rule.s == 1.0:
            # sum_{j>=1} sin(j t)/(j(1+j^2))
            #   = (pi - t)/2 - (pi/2) sinh(pi - t)/sinh(pi) on [0, 2 pi]
            full = (0.5 * (math.pi - theta) - 0.5 * math.pi
                    * np.sinh(math.pi - theta) / math.sinh(math.pi))
        elif rule.name == "geometric":
            # sum_{j>=1} q^j sin(j t)/j = arg(1 - q e^{it})^{-1}
            full = rule.scale * np.arctan2(rule.q * np.sin(theta),
                                           1.0 - rule.q * np.cos(theta))
        else:
            # the remainder of the distribution function, this series over
            # 2 pi, is at most tail(cut+1) / (2 pi cut)
            cut = rule.rank if rule.rank is not None else 1 << 16
            while (rule.rank is None
                   and rule.tail(cut + 1) / (TWO_PI * cut) > 1e-12):
                if cut >= 1 << 22:
                    raise TruncationError(
                        "distribution series for rule %r cannot reach 1e-12 "
                        "within 2^22 terms" % rule.name)
                cut *= 2
            return _freq_series(rule, m, cut, theta, sine=True).imag
        return full - _freq_series(rule, 2, m - 1, theta, sine=True).imag

    def weighted_tail_at(self, rule, m, x):
        """(sum_{k >= m} lambda_k |eta_k(x)|^2, residual bound)."""
        x = self.canonical(np.atleast_1d(x))
        if m <= 1:
            v, r = self.weighted_tail_at(rule, 2, x)
            return rule.value(1) + v, r
        # |eta_k|^2 = 1 + cos(2 pi (k-1) x) for k >= 2
        osc, res = self._osc_tail(rule, m, TWO_PI * x)
        return rule.tail(m) + osc, res

    def weighted_tail_max(self, rule, m):
        if m <= 1:
            return rule.value(1) + 2.0 * rule.tail(2)
        return 2.0 * rule.tail(m)

    def weighted_tail_cdf(self, rule, m, x):
        """sum_{k >= m} lambda_k F_k(x), F_k the distribution function of
        |eta_k|^2: F_1(x) = x, F_k(x) = x + sin(2 pi f x) / (2 pi f) with
        f = k - 1."""
        x = np.asarray(x, dtype=float)
        osc = self._osc_cdf(rule, max(m, 2), TWO_PI * (x % 1.0))
        return rule.tail(m) * x + osc / TWO_PI

    def kernel_sum_at(self, rule, x, y, eps):
        """Product expansion: 2 cos(a) cos(b) = cos(a-b) + cos(a+b)."""
        x = float(x)
        y = float(y)
        osc, res = self._osc_tail(rule, 2, np.asarray([math.pi * (x - y),
                                                       math.pi * (x + y)]))
        residual = 2.0 * res
        if residual > eps:
            raise TruncationError(
                "off-diagonal kernel series for rule %r cannot reach eps=%.3e"
                % (rule.name, eps))
        return complex(rule.value(1) + osc[0] + osc[1]), residual


def _cosine_gram(cm, a, b):
    """The cosine Gram at frequencies a (rows) and b (cols) from the real
    moments cm: s_a s_b (cm(|a-b|) + cm(a+b)), s_0 = 1/sqrt(2), else 1."""
    index = a[:, None] - b[None, :]
    out = cm.take(np.abs(index, out=index))
    out += cm.take(np.add(a[:, None], b[None, :], out=index))
    out[a == 0] *= math.sqrt(0.5)
    out[:, b == 0] *= math.sqrt(0.5)
    return out


def _freq_series(rule, lo, hi, theta, sine=False):
    """sum_{k=lo}^{hi} lambda_k exp(i f theta) at each theta, f = k - 1 >= 1;
    with ``sine`` each term is divided by f.  An empty range gives zeros."""
    if hi < lo:
        return np.zeros(np.shape(theta), dtype=complex)
    f = np.arange(lo - 1, hi)
    coef = np.zeros(hi)
    coef[lo - 1:] = rule.values(f + 1)
    if sine:
        coef[lo - 1:] /= f
    return _trig_series(theta, coef)


def _cos_series_inverse_sq(theta):
    """sum_{j >= 1} cos(j theta) / (1 + j^2), exactly.

    Classical Fourier series: on [0, 2 pi] the sum equals
    pi cosh(pi - theta) / (2 sinh pi) - 1/2; extended by symmetry and period.
    """
    t = np.abs(np.asarray(theta, dtype=float)) % TWO_PI
    return math.pi * np.cosh(math.pi - t) / (2.0 * math.sinh(math.pi)) - 0.5


BASES = {"fourier": FourierBasis(), "cosine": CosineBasis()}


def get_basis(name):
    try:
        return BASES[name]
    except KeyError:
        raise ValueError("unknown basis %r" % (name,)) from None


# ---------------------------------------------------------------------------
# grid maximization
# ---------------------------------------------------------------------------


def grid_maximum(f, npts=100001):
    """Maximize a vectorized function on [0, 1] by grid + local ternary refine.

    Returns (value, resolution) where resolution is the final bracket width.
    """
    npts = int(min(npts, 100001))
    xs = np.linspace(0.0, 1.0, npts)
    vals = np.asarray(f(xs), dtype=float)
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, npts - 1)]
    best = float(vals[i])
    for _ in range(_TERNARY_STEPS):
        a = lo + (hi - lo) / 3.0
        b = hi - (hi - lo) / 3.0
        fa = float(f(np.asarray([a]))[0])
        fb = float(f(np.asarray([b]))[0])
        best = max(best, fa, fb)
        if fa < fb:
            lo = a
        else:
            hi = b
    return best, float(hi - lo)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class SpectralKernelModel:
    """Kernel with explicit eigenvalue sequence, basis, and diagonal atom.

    Immutable after construction.  ``eps_trunc`` is the absolute truncation
    tolerance (``_EPS_TRUNC_REL`` times the eigenvalue trace);
    ``trunc_index`` is the smallest N with tail_sum(N+1) <= eps_trunc,
    searched on first read and kept as a number (it may be astronomically
    large for slow decay; operations that materialize arrays use their own
    caps and report residuals instead).
    """

    def __init__(self, basis, rule, atom_mass=0.0):
        if isinstance(basis, str):
            basis = get_basis(basis)
        if not 0.0 <= atom_mass < math.inf:
            raise ValueError("atom mass must be non-negative and finite")
        self.basis = basis
        self.rule = rule
        self.atom_mass = float(atom_mass)
        self.eps_trunc = _EPS_TRUNC_REL * rule.total()

    @cached_property
    def trunc_index(self):
        # only the automatic truncation reads it, and for a Sobolev rule the
        # search costs dozens of partial sums
        return self.rule.index_for_tail(self.eps_trunc)

    # -- scalar spectral data ------------------------------------------------

    @property
    def rank(self):
        return self.rule.rank

    @property
    def trace(self):
        """Integral of K(x, x) over the domain."""
        return self.rule.total() + self.atom_mass

    @property
    def embedding_norm(self):
        """Operator norm of the embedding into L2: the top singular value."""
        return math.sqrt(self.rule.value(1))

    @property
    def sup_diag(self):
        """sup_x K(x, x); the squared sup-norm bound for the kernel."""
        return self.basis.weighted_tail_max(self.rule, 1) + self.atom_mass

    def eigenvalues(self, ks):
        return self.rule.values(ks)

    def singular_values(self, ks):
        return np.sqrt(self.rule.values(ks))

    # -- pointwise evaluation ------------------------------------------------

    def diag_value(self, x):
        """K(x, x), vectorized; exact for the built-in combinations."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vals, res = self.basis.weighted_tail_at(self.rule, 1, x)
        if res > self.eps_trunc:
            raise TruncationError("diagonal series residual %.3e > eps" % res)
        return vals + self.atom_mass

    def eval_kernel(self, x, y):
        """K(x, y) at a pair of points (scalar).  The atom sits on x == y."""
        xs = self.basis.canonical(np.asarray([x], dtype=float))[0]
        ys = self.basis.canonical(np.asarray([y], dtype=float))[0]
        if xs == ys:
            return complex(self.diag_value(xs)[0])
        val, _res = self.basis.kernel_sum_at(self.rule, xs, ys, self.eps_trunc)
        return val

    def kernel_matrix(self, xs):
        xs = np.asarray(xs, dtype=float)
        n = xs.size
        out = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                out[i, j] = self.eval_kernel(xs[i], xs[j])
                out[j, i] = np.conj(out[i, j])
        return out

    # -- spectral functions --------------------------------------------------

    def spectral_function(self, m):
        """N(m) = sup_x sum_{k < m} |eta_k(x)|^2, exact."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return self.basis.spectral_sum_max(m)

    def spectral_function_grid(self, m, npts=100001):
        return grid_maximum(lambda x: self.basis.spectral_sum_at(m, x), npts)

    def tail_function(self, m):
        """T(m) = sup_x sum_{k >= m} lambda_k |eta_k(x)|^2, exact."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return self.basis.weighted_tail_max(self.rule, m)

    def tail_function_grid(self, m, npts=100001):
        def f(x):
            v, _ = self.basis.weighted_tail_at(self.rule, m, x)
            return v
        return grid_maximum(f, npts)

    def tail_sum(self, m):
        """sum_{k >= m} lambda_k, exact."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return self.rule.tail(m)

    def tail_energy_at(self, m, x):
        """Pointwise tail energy with its residual bound."""
        return self.basis.weighted_tail_at(self.rule, m, x)
