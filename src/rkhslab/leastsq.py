"""Weighted least-squares recovery from random nodes.

The approximant lives in span{eta_1, ..., eta_{m-1}}.  Rows of the design
matrix are the basis functions at the nodes divided by sqrt(density); a node
with zero density contributes a zero row (same convention for the sample
vector).  The normalized Gram H = (1/n) L* L concentrates around the identity
when the nodes come from a suitable density, and everything downstream keys
off its extreme eigenvalues.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import RankDeficientError

# columns below this singular-value ratio make the trial unusable
RANK_RTOL = 1e-10


@dataclass
class DesignSystem:
    matrix: np.ndarray
    gram: np.ndarray
    eigs: np.ndarray
    n: int
    m: int
    weights: np.ndarray
    nodes: object = None
    _svals: np.ndarray = None

    @property
    def lambda_min(self):
        return float(self.eigs[0])

    @property
    def lambda_max(self):
        return float(self.eigs[-1])

    def singular_values(self):
        if self._svals is None:
            self._svals = np.linalg.svd(self.matrix, compute_uv=False)
        return self._svals

    @property
    def full_rank(self):
        # the Gram eigenvalues bottom out at eps*lambda_max, which hides
        # near-coincident nodes; rank decisions need the singular values
        sv = self.singular_values()
        return float(sv[-1]) > RANK_RTOL * float(sv[0])

    def pinv_norm(self, method="eig"):
        """Operator norm of (L*L)^(-1) L*, equal to the reciprocal smallest
        singular value of L."""
        if method == "eig":
            val = self.n * self.lambda_min
            if val <= 0.0:
                return math.inf
            return 1.0 / math.sqrt(val)
        if method == "svd":
            smin = float(self.singular_values()[-1])
            return 1.0 / smin if smin > 0.0 else math.inf
        raise ValueError("method must be 'eig' or 'svd'")


@dataclass
class Coefficients:
    values: np.ndarray
    residual_norm: float


def assemble_design(model, density, nodes, m):
    """Build the weighted design and its Gram spectral data.

    Never raises on rank deficiency; callers inspect ``full_rank`` and flag
    the trial."""
    m = int(m)
    n = int(nodes.n)
    # n = m-1 (square system) is allowed: the single-node constant-column
    # case is the smallest legal instance
    if not (1 <= m - 1 <= n):
        raise ValueError("need n >= m-1 >= 1, got n=%d m=%d" % (n, m))
    if np.unique(nodes.x).size != n:
        raise ValueError("nodes must be distinct")
    rho = np.asarray(nodes.density_values, dtype=float)
    weights = np.where(rho > 0.0, 1.0 / np.sqrt(np.where(rho > 0.0, rho, 1.0)),
                       0.0)
    matrix = model.basis.eval_block(np.arange(1, m), nodes.x)
    matrix *= weights[:, None]
    gram = matrix.conj().T @ matrix / n
    gram = 0.5 * (gram + gram.conj().T)
    eigs = np.linalg.eigvalsh(gram)
    return DesignSystem(matrix=matrix, gram=gram, eigs=eigs, n=n, m=m,
                        weights=weights, nodes=nodes)


def recover(model, density, nodes, m, samples, design=None):
    """Least-squares coefficients from samples f(x_i).

    ``design`` can be passed to reuse an assembled system.  Raises
    RankDeficientError on a rank-deficient design; the experiment runner
    converts that into a flagged trial.
    """
    ds = design if design is not None else assemble_design(model, density,
                                                           nodes, m)
    if not ds.full_rank:
        raise RankDeficientError(
            "design matrix is rank deficient (lambda_min=%.3e)"
            % ds.lambda_min)
    g = np.asarray(samples) * ds.weights
    q, rr = np.linalg.qr(ds.matrix)
    coef = solve_triangular(rr, q.conj().T @ g, lower=False)
    residual = float(np.linalg.norm(ds.matrix @ coef - g))
    return Coefficients(values=coef, residual_norm=residual)


def gram_eig_check(ds, r=None):
    """Spectral predicates used by the failure-rate experiments.

    eig_ok: smallest Gram eigenvalue at least one half.
    norm_ok: pseudo-inverse norm inside [sqrt(2/(3n)), sqrt(2/n)].
    """
    n = ds.n
    norm = ds.pinv_norm()
    lo = math.sqrt(2.0 / (3.0 * n))
    hi = math.sqrt(2.0 / n)
    report = {
        "lambda_min": ds.lambda_min,
        "lambda_max": ds.lambda_max,
        "pinv_norm": norm,
        "eig_ok": bool(ds.lambda_min >= 0.5),
        "norm_lo": lo,
        "norm_hi": hi,
        "norm_ok": bool(lo <= norm <= hi),
    }
    if r is not None:
        report["fail_prob_bound"] = float(n) ** (1.0 - float(r))
    return report


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
