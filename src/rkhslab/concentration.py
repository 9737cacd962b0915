"""Monte Carlo checks of spectral-norm concentration for random rank-one sums.

Families of bounded random vectors with known expectation operator feed a
deviation statistic ||(1/n) sum y y* - Lambda||.  The validation is
one-sided: empirical tail rates must stay under the theoretical envelopes
(plus Monte Carlo slack); nothing asserts sharpness.  All deviations are
computed on the truncated coordinate block, which is itself a family the
tail bound applies to, so no truncation residual enters the comparison.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import trial_rng

# 99% two-sided normal quantile for Wilson intervals
WILSON_Z = 2.5758293035489004
KAPPA = (1.0 + math.sqrt(5.0)) / 2.0
KAPPA_SQ = KAPPA * KAPPA
# the matrix-Chernoff tail CHERNOFF_MULT n exp(-t^2 n / (CHERNOFF_DENOM M^2))
CHERNOFF_MULT = 2.0 ** 0.75
CHERNOFF_DENOM = 21.0
# the all-in-one deviation level; fail_mult is its failure-probability
# multiplier fail_mult * n^(1-r)
DEVIATION_CONSTANTS = {"log_coef": 8.0, "kappa_sq": KAPPA_SQ,
                       "fail_mult": CHERNOFF_MULT}

_NORM_SLACK = 1.0 + 1e-12


class KernelVectorFamily:
    """y = (sigma_k eta_k(x))_{k<=dim} with x drawn from the base measure."""

    def __init__(self, model, dim):
        self.model = model
        self.dim = int(dim)
        self.sig = model.singular_values(np.arange(1, self.dim + 1))
        self.lambda_op = float(np.max(self.sig ** 2)) if dim else 0.0
        # partial sups of the weighted sums are attained at the same point
        # as the full ones for both built-in bases, so the truncated sup is
        # an exact difference of tail functions
        m_sq = model.tail_function(1) - model.tail_function(self.dim + 1)
        self.m_bound = math.sqrt(m_sq)
        # every trial scales its Gram by sigma_j sigma_k / n, less Lambda
        self._outer = np.outer(self.sig, self.sig)
        self._lambda = self.expectation()

    def describe(self):
        return {"kind": "kernel", "basis": self.model.basis.name,
                "dim": self.dim}

    def sample(self, rng, count):
        x = rng.random(count)
        block = self.model.basis.eval_block(np.arange(1, self.dim + 1), x)
        return block * self.sig[None, :]

    def expectation(self):
        return np.diag(self.sig ** 2)

    def deviation(self, rng, n):
        """The deviation at the nodes ``sample`` would draw, from the exact
        moment Gram sum_i conj(eta_j(x_i)) eta_k(x_i); no n x dim block.

        Each vector's squared norm is the finite sum of lambda_k |eta_k(x)|^2
        over k <= dim, read per node from the basis in the pass that forms
        the Gram, and checked before the deviation matrix is.
        """
        x = rng.random(n)
        norms_sq, E = self.model.basis.head_and_gram(self.model.rule,
                                                     self.dim, x)
        _check_norms(norms_sq, self.m_bound)
        E *= self._outer / n
        E -= self._lambda
        return _spectral_norm(E)


class SphereVectorFamily:
    """Uniform on the sphere of radius M in R^dim; Lambda = (M^2/dim) I."""

    def __init__(self, dim, radius=1.0):
        self.dim = int(dim)
        self.m_bound = float(radius)
        self.lambda_op = radius ** 2 / dim

    def describe(self):
        return {"kind": "sphere", "dim": self.dim, "radius": self.m_bound}

    def sample(self, rng, count):
        v = rng.standard_normal((count, self.dim))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return v * self.m_bound

    def expectation(self):
        return np.eye(self.dim) * (self.m_bound ** 2 / self.dim)

    def deviation(self, rng, n):
        """The deviation from the explicit n x dim block of draws."""
        Y = self.sample(rng, n)
        _check_norms(np.einsum("ij,ij->i", Y, Y), self.m_bound)
        E = Y.T @ Y / n - self.expectation()
        return _spectral_norm(0.5 * (E + E.T))


class TwoPointVectorFamily:
    """a e_1 or e_2, each with probability 1/2; everything is closed form."""

    def __init__(self, a=1.0, m_bound=None):
        self.a = float(a)
        self.dim = 2
        # an understated m_bound is allowed on purpose: the negative-control
        # tests need a family whose declared bound is wrong
        self.m_bound = max(abs(a), 1.0) if m_bound is None else float(m_bound)
        self.lambda_op = max(0.5 * a * a, 0.5)

    def describe(self):
        return {"kind": "two-point", "a": self.a, "b": 1.0, "p": 0.5}

    def sample(self, rng, count):
        pick = rng.random(count) < 0.5
        out = np.zeros((count, 2))
        out[pick, 0] = self.a
        out[~pick, 1] = 1.0
        return out

    def expectation(self):
        return np.diag([0.5 * self.a ** 2, 0.5])

    def deviation(self, rng, n):
        """The deviation of the picks ``sample`` would draw, by counting.

        With k draws of a e_1, the deviation matrix is the diagonal
        diag(a^2 k/n - a^2/2, (n - k)/n - 1/2); only the vectors actually
        drawn have their norms checked.
        """
        k = int(np.count_nonzero(rng.random(n) < 0.5))
        a_sq = self.a * self.a
        drawn = np.array([k > 0, k < n])
        _check_norms(np.array([a_sq, 1.0])[drawn], self.m_bound)
        return max(abs(a_sq * k / n - 0.5 * a_sq), abs((n - k) / n - 0.5))


def _check_norms(norms_sq, m_bound):
    """Raise if a squared vector norm is not finite or exceeds the stated
    bound; such a vector is a generation bug."""
    within = np.isfinite(norms_sq) & (norms_sq <= (m_bound ** 2)
                                      * _NORM_SLACK ** 2)
    if not np.all(within):
        worst = float(np.max(np.abs(norms_sq[~within])))
        raise ValueError(
            "sampled vector norm %.6g exceeds the stated bound %.6g or is "
            "not finite" % (math.sqrt(worst), m_bound))


def _spectral_norm(E):
    """||E|| of a Hermitian matrix from its extreme eigenvalues."""
    eigs = np.linalg.eigvalsh(E)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def deviation_trial(family, n, rng):
    """One realization of ||(1/n) sum y y* - Lambda||, by the family's own
    exact Gram.

    A vector exceeding the family's stated norm bound, or of a non-finite
    norm, is a generation bug and raises before the deviation matrix is
    formed.
    """
    return family.deviation(rng, int(n))


def fail_prob(n, r, mult=1.0):
    """mult * n^(1-r), the generic failure-probability envelope."""
    return mult * float(n) ** (1.0 - float(r))


def tail_envelope(n, t, m_bound):
    """min(1, 2^(3/4) n exp(-t^2 n / (21 M^2)))."""
    val = CHERNOFF_MULT * n * math.exp(-t * t * n
                                       / (CHERNOFF_DENOM * m_bound ** 2))
    return min(1.0, val)


def deviation_level(k, m_sq, lambda_op_norm, n, r):
    """max(8 r log(n) / n * M^2 kappa^2, ||Lambda||) with the constants k."""
    return max(k["log_coef"] * r * math.log(n) / n * m_sq * k["kappa_sq"],
               lambda_op_norm)


def deviation_threshold(n, r, m_bound, lambda_op):
    """The all-in-one deviation level exceeded with prob <= 2^(3/4) n^(1-r)."""
    return deviation_level(DEVIATION_CONSTANTS, m_bound ** 2, lambda_op, n, r)


def default_t_grid(family, n, points=10):
    """Levels in (0, 1] where the tail envelope is informative (< 1).

    Empty when even t = 1 leaves the envelope at 1; callers report such a
    configuration as vacuous instead of asserting anything.
    """
    m_sq = family.m_bound ** 2
    thr_sq = CHERNOFF_DENOM * m_sq * math.log(CHERNOFF_MULT * n) / n
    t_min = math.sqrt(thr_sq) if thr_sq > 0 else 0.0
    if t_min >= 1.0:
        return np.empty(0)
    return np.linspace(t_min, 1.0, points + 1)[1:]


def wilson_interval(successes, total):
    if total <= 0:
        raise ValueError("need at least one observation")
    z = WILSON_Z
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total
                         + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def binom_se(phat, total):
    return math.sqrt(max(phat * (1.0 - phat), 0.0) / total)


@dataclass
class TailExperiment:
    family: object
    n: int
    t_grid: np.ndarray
    trials: int
    seed: int

    deviations: np.ndarray = field(default=None, repr=False)

    def run(self):
        devs = np.empty(self.trials)
        for i in range(self.trials):
            devs[i] = deviation_trial(self.family, self.n,
                                      trial_rng(self.seed, i))
        self.deviations = devs
        return devs

    def curve(self):
        """Rows (t, rate, wilson_lo, wilson_hi, envelope) after ``run``."""
        rows = []
        for t in map(float, np.atleast_1d(self.t_grid)):
            hits = int(np.count_nonzero(self.deviations >= t))
            rows.append((t, hits / self.trials,
                         *wilson_interval(hits, self.trials),
                         tail_envelope(self.n, t, self.family.m_bound)))
        return rows


def chernoff_c(t):
    """(1-t)^(1-t) e^t for 0 <= t <= 1."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 1.0:
        return math.e
    return (1.0 - t) ** (1.0 - t) * math.exp(t)


def chernoff_d(t):
    """(1+t)^(1+t) e^(-t) for t >= 0."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return (1.0 + t) ** (1.0 + t) * math.exp(-t)


def eig_tail_envelopes(n, m, t, n_eff):
    """Chernoff envelopes for lambda_min < 1-t and lambda_max > 1+t."""
    lo = min(1.0, m * math.exp(-n * math.log(chernoff_c(t)) / n_eff))
    hi = min(1.0, m * math.exp(-n * math.log(chernoff_d(t)) / n_eff))
    return lo, hi

