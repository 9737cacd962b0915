"""Weighted least-squares recovery from random nodes.

The approximant lives in span{eta_1, ..., eta_{m-1}}.  Rows of the design L
are the basis functions at the nodes divided by sqrt(density); a node with
zero density contributes a zero row (same convention for the samples).  The
Gram H = (1/n) L* L concentrates around the identity for a suitable density.
H itself comes from the weighted moments of ``weighted_gram`` with weights
1/density, without forming L, and ``_moment_gram`` takes its eigenvalues.
The eigenvalue check reads no more than those (``gram_spectrum``).
Recovery solves with L* L = R* R for an upper triangle R, in one of two
ways.  Where the moment Gram's spectrum certifies the rank test
(``gram_design``: lambda_min > GRAM_RTOL lambda_max), R is its Cholesky
factor; the Gram is then well conditioned, and the Cholesky factor is as
accurate as the QR triangle (CholeskyQR, Yamamoto, Nakatsukasa, Yanagisawa
& Fukaya 2015), so no design row is evaluated; its moments for columns 1..N
hold n H in the first m-1 and serve as the worst-case cross Gram.  Elsewhere
(``assemble_design``) L is factored, L = QR, and R's singular values, those
of L, give the rank test at a ratio the Gram, with its squared condition
number, cannot resolve.  That R comes from a row-blocked tall-skinny QR
(Demmel, Grigori, Hoemmen & Langou 2012): Householder QR (Golub & Van Loan
5.2) of cache-sized row blocks, then of their stacked triangles; Q is never
formed.  L itself is never held whole: each row block is evaluated,
weighted and factored in turn, and ``DesignSystem.matrix`` builds L only
for ``dump_design`` and the tests.
The fit alone factors again, whichever R the design holds: R of [L g] holds
R of L and, in its last column, Q* g for the implicit Q of the block
reflectors (Golub 1965), so it stays backward stable at any condition
number the rank test accepts; no design keeps Q.  Its last diagonal entry
is the residual norm ||Lc - g||, so each design row is evaluated once per
fit.  Solves with R*R take two products with R^(-1), formed once per
design, so scipy.linalg is imported only by the first QR: a run whose
designs are all certified never loads it.
"""

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RankDeficientError

# columns below this singular-value ratio make the trial unusable
RANK_RTOL = 1e-10
# moment Grams whose eigenvalue ratio exceeds this are factored by Cholesky
GRAM_RTOL = 1e-2
_QR_BLOCK_BYTES = 1 << 20  # bytes per row block of the blocked QR


def get_lapack_funcs(names, arrays):
    """scipy.linalg's, imported at the first factorization."""
    from scipy.linalg import get_lapack_funcs as lapack_funcs
    return lapack_funcs(names, arrays)


@dataclass
class DesignSystem:
    """Design L, an upper triangle R with R*R = L*L, and R's singular
    values, which are those of L, descending.

    L is kept as what makes its rows, the basis functions ``indices`` at
    the nodes ``x`` scaled by ``weights``.  Unless a factor is given (the
    Cholesky factor of ``gram_design``), R is that of L = QR, factored
    from those rows."""

    basis: object
    indices: np.ndarray
    x: np.ndarray
    weights: np.ndarray
    factor: np.ndarray = None
    svals: np.ndarray = None
    moments: np.ndarray = None  # gram_design's block, L*L in its head

    def __post_init__(self):
        if self.factor is None:
            self.factor = _streamed_triangle(self.rows, self.n,
                                             self.indices.size,
                                             self.basis.dtype)
            self.svals = np.linalg.svd(self.factor, compute_uv=False)

    @property
    def n(self):
        return self.x.size

    def rows(self, lo, hi):
        """Rows [lo, hi) of L, a new Fortran-ordered array (eval_block
        returns a transposed gather), so geqrf factors it in place."""
        block = self.basis.eval_block(self.indices, self.x[lo:hi])
        block *= self.weights[lo:hi, None]
        return block

    @property
    def matrix(self):
        """L, built whole on each request (``dump_design``, tests)."""
        return self.rows(0, self.n)

    @property
    def gram(self):
        return self.factor.conj().T @ self.factor / self.n

    @property
    def lambda_min(self):
        return float(self.svals[-1]) ** 2 / self.n

    @property
    def lambda_max(self):
        return float(self.svals[0]) ** 2 / self.n

    def singular_values(self):
        return self.svals

    @property
    def full_rank(self):
        return float(self.svals[-1]) > RANK_RTOL * float(self.svals[0])

    def pinv_norm(self):
        """Operator norm of (L*L)^(-1) L*, the reciprocal smallest singular
        value of L: 1 / sqrt(n lambda_min)."""
        smin = math.sqrt(self.n * self.lambda_min)
        return 1.0 / smin if smin > 0.0 else math.inf

    def _require_full_rank(self):
        if not self.full_rank:
            raise RankDeficientError(
                "design matrix is rank deficient (lambda_min=%.3e)"
                % self.lambda_min)

    @cached_property
    def _inverse(self):
        """R^(-1), formed once per design.  The LU of a triangle makes no
        row swap, so ``inv`` is a back substitution on the identity."""
        return np.linalg.inv(self.factor)

    def solve(self, rhs):
        """(L*L)^(-1) rhs as R^(-1) (R^(-*) rhs), two products with the
        design's R^(-1); raises RankDeficientError on a rank-deficient
        design, which the runner flags.  A product with an inverse is not
        backward stable in general (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 14), but the backward error of L*L x = rhs
        stays within a few eps up to the rank cutoff (tested to
        cond(L) = 1e10)."""
        self._require_full_rank()
        inv = self._inverse
        return inv @ (inv.conj().T @ rhs)


@dataclass(frozen=True)
class GramSpectrum:
    """Extreme eigenvalues of the Gram (1/n) L*L of an n-node design, and
    the design's ``pinv_norm``."""

    n: int
    lambda_min: float
    lambda_max: float

    pinv_norm = DesignSystem.pinv_norm


@dataclass
class Coefficients:
    values: np.ndarray
    residual_norm: float


def _spans(n, k, itemsize):
    """Row ranges [lo, hi) of the blocked QR of an n x k matrix.

    Blocks have max(2k, _QR_BLOCK_BYTES // row bytes) rows, and a last
    block shorter than k rows joins the one before it, so every block has
    at least k rows and fewer than rows + k."""
    rows = max(2 * k, _QR_BLOCK_BYTES // (k * itemsize))
    starts = range(0, max(n - k, 0) + 1, rows)
    return list(zip(starts, list(starts[1:]) + [n]))


def _streamed_triangle(rows, n, k, dtype):
    """R of a = QR for the n x k matrix a whose rows [lo, hi) are
    ``rows(lo, hi)``, a new Fortran-ordered array of ``dtype``.

    Row-blocked tall-skinny QR.  LAPACK geqrf factors each block of
    ``_spans`` in place, and the triangles of the blocks are stacked and
    factored by ``_triangle`` until one block is left; every level has
    fewer rows than the one below it.  R*R = a*a, and when a is one block
    (n < rows + k) R is that of a single geqrf of a, bit for bit.
    """
    geqrf, = get_lapack_funcs(("geqrf",), (np.empty(0, dtype),))
    tops = []
    for lo, hi in _spans(n, k, np.dtype(dtype).itemsize):
        qr, _, _, info = geqrf(rows(lo, hi), overwrite_a=True)
        if info != 0:
            raise ValueError("geqrf failed with info=%d" % info)
        tops.append(np.triu(qr[:k]))
        del qr  # free the block before the next one is made
    return tops[0] if len(tops) == 1 else _triangle(np.vstack(tops))


def _triangle(a):
    """R of a = QR for an n x k matrix a: upper triangular, min(n, k) rows;
    ``_streamed_triangle`` fed Fortran copies of a's row blocks."""
    return _streamed_triangle(lambda lo, hi: np.array(a[lo:hi], order="F"),
                              *a.shape, a.dtype)


def _weighted_span(nodes, m):
    """m, n and the row weights 1/sqrt(rho), 0 where rho = 0, once
    1 <= m-1 <= n holds."""
    m = int(m)
    n = int(nodes.n)
    # n = m-1 (square system) is allowed: the single-node constant-column
    # case is the smallest legal instance
    if not (1 <= m - 1 <= n):
        raise ValueError("need n >= m-1 >= 1, got n=%d m=%d" % (n, m))
    rho = np.asarray(nodes.density_values, dtype=float)
    return m, n, np.where(rho > 0.0,
                          1.0 / np.sqrt(np.where(rho > 0.0, rho, 1.0)), 0.0)


def _distinct_span(nodes, m):
    """``_weighted_span`` of a design, whose nodes must be distinct."""
    m, n, weights = _weighted_span(nodes, m)
    if np.unique(nodes.x).size != n:
        raise ValueError("nodes must be distinct")
    return m, n, weights


def assemble_design(model, nodes, m):
    """Make the weighted design system; its rows are factored as they are
    evaluated.

    Never raises on rank deficiency; callers inspect ``full_rank`` and flag
    the trial."""
    m, n, weights = _distinct_span(nodes, m)
    return DesignSystem(basis=model.basis, indices=np.arange(1, m),
                        x=nodes.x, weights=weights)


def _moment_gram(model, x, m, n, weights, N=0):
    """weighted_gram(1..m-1, 1..max(N, m-1), x, weights^2), the Gram (1/n)
    L*L of the design with rows weighted by ``weights``, its first m-1
    columns over n, and the Gram's eigenvalues, ascending."""
    ks = np.arange(1, max(N + 1, m))
    block = model.basis.weighted_gram(ks[: m - 1], ks, x, weights * weights)
    gram = block[:, : m - 1] / n
    return block, gram, np.linalg.eigvalsh(gram)


def gram_spectrum(model, nodes, m):
    """GramSpectrum of the design that ``assemble_design`` makes, without
    making it, from ``_moment_gram``.  eigvalsh of a singular Gram can
    return -1e-17, so lambda_min is clamped at 0."""
    m, n, weights = _weighted_span(nodes, m)
    _, _, eigs = _moment_gram(model, nodes.x, m, n, weights)
    low = float(eigs[0])
    return GramSpectrum(n=n, lambda_min=low if low > 0.0 else 0.0,
                        lambda_max=float(eigs[-1]))


def gram_design(model, nodes, m, N=0):
    """The design of ``assemble_design`` with R the Cholesky factor of the
    moment Gram, or None where its spectrum does not certify the rank test;
    the caller then factors L (``gram_design(...) or assemble_design(...)``).
    It keeps the moments of columns 1..max(N, m-1) for a recovery at N.

    The moments and ``eigvalsh`` put an error of about (top + k) eps
    lambda_max on each eigenvalue of the Gram, for k = m - 1 columns and
    ``top`` the highest frequency of the moments.  Above lambda_min >
    GRAM_RTOL lambda_max = 1e-2 lambda_max that error is far below
    lambda_min, so sigma_min / sigma_max > 0.1 and the QR's rank test at
    RANK_RTOL = 1e-10 would pass too: no trial's flag changes.  The
    Cholesky factor's backward error is about k eps lambda_max (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10), so a solve
    with R*R moves by about (top + k) eps / GRAM_RTOL relative, far inside
    the 1e-10 to which outputs are compared."""
    m, n, weights = _distinct_span(nodes, m)
    block, gram, eigs = _moment_gram(model, nodes.x, m, n, weights, N)
    if not eigs[0] > GRAM_RTOL * eigs[-1]:
        return None
    return DesignSystem(basis=model.basis, indices=np.arange(1, m),
                        x=nodes.x, weights=weights,
                        factor=np.linalg.cholesky(gram).conj().T
                        * math.sqrt(n),
                        svals=np.sqrt(n * eigs[::-1]), moments=block)


def recover(model, nodes, m, samples, design=None):
    """Least-squares coefficients from samples f(x_i).

    ``design`` can be passed to reuse an assembled system.  Raises
    RankDeficientError on a rank-deficient design.
    """
    from scipy.linalg import solve_triangular
    ds = design if design is not None else assemble_design(model, nodes, m)
    ds._require_full_rank()
    g = np.asarray(samples) * ds.weights
    k = ds.indices.size
    # R of [L g] is [R h; 0 rho] with R*R = L*L, h = Q* g for Q the implicit
    # product of the block reflectors, and |rho| = ||Lc - g||; a square
    # design (n = k) has no row rho, and fits g exactly
    aug = _streamed_triangle(
        lambda lo, hi: np.array(np.column_stack([ds.rows(lo, hi), g[lo:hi]]),
                                order="F"),
        ds.n, k + 1, np.result_type(ds.basis.dtype, g.dtype))
    coef = solve_triangular(aug[:k, :k], aug[:k, k], lower=False)
    residual = float(abs(aug[k, k])) if ds.n > k else 0.0
    return Coefficients(values=coef, residual_norm=residual)


def gram_eig_check(ds):
    """Spectral predicates used by the failure-rate experiments.

    ``ds`` is anything with ``n``, ``lambda_min``, ``lambda_max`` and
    ``pinv_norm()``: a ``DesignSystem``, or the ``GramSpectrum`` that the
    eig-check experiment reads from the moment Gram.
    eig_ok: smallest Gram eigenvalue at least one half.
    norm_ok: pseudo-inverse norm inside [sqrt(2/(3n)), sqrt(2/n)].
    """
    n = ds.n
    norm = ds.pinv_norm()
    lo = math.sqrt(2.0 / (3.0 * n))
    hi = math.sqrt(2.0 / n)
    return {
        "lambda_min": ds.lambda_min,
        "lambda_max": ds.lambda_max,
        "pinv_norm": norm,
        "eig_ok": bool(ds.lambda_min >= 0.5),
        "norm_lo": lo,
        "norm_hi": hi,
        "norm_ok": bool(lo <= norm <= hi),
    }


def dump_design(ds, coef, path):
    """Debug CSV with the design matrix, Gram, and coefficients."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["section", "row", "col", "real", "imag"])
        for name, arr in (("design", ds.matrix), ("gram", ds.gram)):
            a = np.atleast_2d(arr)
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    z = complex(a[i, j])
                    w.writerow([name, i, j, repr(z.real), repr(z.imag)])
        if coef is not None:
            for j, z in enumerate(np.asarray(coef.values)):
                z = complex(z)
                w.writerow(["coef", 0, j, repr(z.real), repr(z.imag)])
