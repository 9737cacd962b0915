"""Worst-case recovery and discretization errors as operator norms.

The sup of the squared L2 error over the unit ball of the source space is the
squared largest singular value of an explicit error operator.  Truncating the
spectral expansion at N makes it a matrix; everything dropped is covered by a
residual bound reported next to the value, added on the conservative side
when the value is compared against a theoretical bound.

The error matrix has the block form [[A, B], [0, D]] with m-1 dense rows and
a diagonal tail, so its Gram is diagonal-plus-low-rank.  The largest
eigenvalue then comes from a one-dimensional secular equation at every
truncation order (Golub 1973); the dense matrix itself is only built by
``recovery_error_matrix``, the oracle the tests take the SVD of.

Both operators come from weighted trigonometric moments
S(f) = sum_i v_i exp(i f theta_i): the m-1 dense rows are gathered from about
N + m moments of the squared node weights (``weighted_gram``), and the
discretization operator diag(lambda) - (sigma sigma^T o Gram) / n is applied
inside one Lanczos solve through FFT products on about 2N moments of the
weights (``gram_matvec``).  Neither an n x N design nor an N x N
discretization matrix is formed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .concentration import (CHERNOFF_DENOM, CHERNOFF_MULT,
                            DEVIATION_CONSTANTS, KAPPA_SQ, deviation_level)
from .densities import spectral_budget
from .leastsq import assemble_design, gram_design

# multiplier in the recovery failure probability FAIL_MULT * n^(1-r)
FAIL_MULT = CHERNOFF_MULT + 1.0

_TRUNC_CAP = 4096
# relative bracket width at which the secular solve stops, and its step cap
_SECULAR_WIDTH = 1e-14
_SECULAR_STEPS = 90
# power iteration: step cap and relative change at which it stops; Monte
# Carlo oracles draw their unit vectors in chunks of _MC_CHUNK
_POWER_STEPS = 200
_POWER_TOL = 1e-9
_MC_CHUNK = 2048


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass
class WceValue:
    """Squared worst-case recovery error over the truncated unit ball."""

    value_sq: float
    residual: float
    trunc_dim: int
    lambda_min: float
    pinv_norm: float
    # whether the secular solve's step cap ended it before its bracket
    # closed, and the bracket's relative width when it stopped; in memory
    # only, no output file carries them
    secular_capped: bool
    secular_width: float

    @property
    def value(self):
        return math.sqrt(max(self.value_sq, 0.0))

    @property
    def upper_sq(self):
        """Conservative squared value covering the truncated modes."""
        return (self.value + self.residual) ** 2


@dataclass
class DiscretizationValue:
    """Spectral-norm deviation between the exact and sampled quadratic form."""

    value: float
    residual: float
    trunc_dim: int

    @property
    def upper(self):
        return self.value + self.residual


@dataclass
class ErrorMatrix:
    """Dense error operator for small instances (oracle cross-checks)."""

    matrix: np.ndarray
    residual: float


@dataclass
class NullspaceReport:
    component: float
    envelope: float
    lambda_min: float
    within_envelope: object  # bool when lambda_min >= 1/2, else None


@dataclass
class BoundReport:
    name: str
    value: float
    inputs: dict
    constants: dict
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _pick_trunc(model, trunc, lowest):
    if trunc is None:
        n = min(model.trunc_index, _TRUNC_CAP)
    else:
        n = int(trunc)
    n = max(n, lowest)
    if model.rank is not None:
        n = min(n, max(model.rank, lowest))
    return n


def _lowrank_plus_diag_norm(d, C):
    """(value, capped, width): the largest eigenvalue of diag(d) + C* C with C
    short and wide, whether the _SECULAR_STEPS cap ended the solve before
    the bracket closed, and the bracket's relative width when it stopped.

    Eigenvalues above max(d) solve lam(mu) = lambda_max(C (mu I - diag d)^{-1}
    C*) = 1.  lam decreases and is convex, with lam'(mu) = -sum_k |(u* C)_k|^2
    / (mu - d_k)^2 for its top eigenvector u, and 1/lam is concave (Cauchy-
    Schwarz), so Newton steps on 1/lam = 1 from the lower end of the bracket
    stay left of the root and are nearly exact next to a pole (Bunch, Nielsen
    & Sorensen 1978).  Every probe keeps 1e-15 relative inside the bracket,
    which certifies the upper end once Newton has converged; a step that is
    not finite falls back to the midpoint.  The upper end is returned once
    the bracket is 1e-14 relative wide, or after _SECULAR_STEPS probes.
    What is certified is that upper end, up to the rounding of the ``eigh``
    sign test that places each probe: the value can sit a few eps below the
    exact eigenvalue.
    The first probe sits 1e-13 above max(d) relative to the larger of max(d)
    and ||C||^2, never in absolute terms, so a top eigenvalue far below 1 is
    not rounded down to max(d).
    """
    d = np.asarray(d, dtype=float)
    gram_small = C @ C.conj().T
    gram_small = 0.5 * (gram_small + gram_small.conj().T)
    big = float(np.linalg.eigvalsh(gram_small)[-1])
    d_max = float(d.max())
    if big <= 0.0:
        return d_max, False, 0.0

    def top(mu):
        """lam(mu) and -lam'(mu)."""
        scaled = C * (1.0 / (mu - d))[None, :]
        w = scaled @ C.conj().T
        vals, vecs = np.linalg.eigh(0.5 * (w + w.conj().T))
        return (float(vals[-1]),
                float(np.sum(np.abs(vecs[:, -1].conj() @ scaled) ** 2)))

    scale = max(d_max, big)
    lo = d_max + 1e-13 * scale
    val, slope = top(lo)
    if val < 1.0:
        return d_max, False, 0.0
    hi = d_max + big + 1e-30
    for _ in range(_SECULAR_STEPS):
        if hi - lo <= _SECULAR_WIDTH * hi:
            break
        if slope > 0.0:
            nudge = 0.1 * _SECULAR_WIDTH * hi
            mu = min(max(lo + val * (val - 1.0) / slope, lo + nudge),
                     hi - nudge)
        else:
            mu = 0.5 * (lo + hi)
        v, s = top(mu)
        if v >= 1.0:
            lo, val, slope = mu, v, s
        else:
            hi = mu
    return hi, hi - lo > _SECULAR_WIDTH * hi, (hi - lo) / hi


def _recovery_parts(model, density, nodes, m, trunc, design):
    ds = design if design is not None else (
        gram_design(model, density, nodes, m)
        or assemble_design(model, density, nodes, m))
    w = ds.weights
    N = _pick_trunc(model, trunc, m - 1)
    sig = model.singular_values(np.arange(1, N + 1))
    # L* G with G the design scaled by sig: sum_i w_i^2 conj(eta_j) eta_k sig_k
    cross = model.basis.weighted_gram(np.arange(1, m), np.arange(1, N + 1),
                                      nodes.x, w ** 2)
    cross *= sig[None, :]
    C = -ds.solve(cross)
    head = np.arange(m - 1)
    C[head, head] += sig[head]
    d = np.concatenate([np.zeros(m - 1), sig[m - 1:] ** 2])

    tail = model.tail_sum(N + 1)
    pinv = ds.pinv_norm()
    wsum = float(np.sum(w ** 2))
    resid = math.sqrt(model.rule.value(N + 1)
                      + pinv ** 2 * model.basis.sup_eta_sq * tail * wsum)
    return ds, C, d, sig, N, resid


# ---------------------------------------------------------------------------
# worst-case values
# ---------------------------------------------------------------------------


def recovery_error_matrix(model, density, nodes, m, trunc=None):
    """Dense error operator; meant for small N (tests and oracles)."""
    _, C, _, sig, N, resid = _recovery_parts(model, density, nodes, m,
                                             trunc, None)
    if N > 2000:
        raise ValueError("dense error matrix capped at N=2000, got %d" % N)
    E = np.zeros((N, N), dtype=C.dtype)
    E[: m - 1, :] = C
    idx = np.arange(m - 1, N)
    E[idx, idx] = sig[idx]
    return ErrorMatrix(matrix=E, residual=resid)


def exact_wce_recovery(model, density, nodes, m, trunc=None, design=None):
    """Exact squared worst-case L2 recovery error over the truncated ball."""
    ds, C, d, sig, N, resid = _recovery_parts(model, density, nodes, m,
                                              trunc, design)
    value_sq, capped, width = _lowrank_plus_diag_norm(d, C)
    return WceValue(value_sq=value_sq, residual=resid, trunc_dim=N,
                    lambda_min=ds.lambda_min, pinv_norm=ds.pinv_norm(),
                    secular_capped=capped, secular_width=width)


_EIGSH_SEED = np.random.SeedSequence(9001)


def exact_wce_discretization(model, nodes, weights=None, trunc=None):
    """Spectral norm of diag(lambda) - (1/n) G* G at the given nodes.

    ``weights``: per-node multipliers for the sampled quadratic form (the
    reciprocal sampling density for importance-weighted discretization);
    omitted means the plain equal-weight average.  One Lanczos solve
    (``eigsh``) finds the eigenvalue of largest modulus from the basis' FFT
    Gram products, so no N x N array is formed; only N <= 2, below what
    ARPACK accepts, is solved densely.
    """
    x = np.asarray(getattr(nodes, "x", nodes), dtype=float)
    n = x.size
    if n < 1:
        raise ValueError("need at least one node")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != x.shape or np.any(w < 0.0):
        raise ValueError("weights must be non-negative, one per node")
    N = _pick_trunc(model, trunc, 1)
    sig = model.singular_values(np.arange(1, N + 1))
    gram = model.basis.gram_matvec(N, x, w)

    def apply(u):
        # Y u, Y = diag(lambda) - (sig sig^T o sum_i w_i conj(eta_j) eta_k) / n
        return sig ** 2 * u - sig * gram(sig * u) / n

    if N <= 2:
        # ARPACK needs k < N - 1, so Y is applied to the identity columns
        eigs = np.linalg.eigvalsh(np.column_stack([apply(e)
                                                   for e in np.eye(N)]))
        value = float(np.max(np.abs(eigs)))
    else:
        # imported here, so that only discretizations load scipy.sparse
        from scipy.sparse.linalg import LinearOperator, eigsh
        v0 = np.random.Generator(np.random.Philox(_EIGSH_SEED)).standard_normal(N)
        vals = eigsh(LinearOperator((N, N), matvec=apply), k=1, which="LM",
                     v0=v0, tol=0, return_eigenvectors=False)
        value = float(abs(vals[0]))

    lam_next = model.rule.value(N + 1)
    q2 = model.basis.sup_eta_sq * model.tail_sum(N + 1) * float(w.max())
    resid = lam_next + q2 + math.sqrt((model.rule.value(1) + value) * q2)
    return DiscretizationValue(value=value, residual=resid, trunc_dim=N)


def wce_nullspace_component(atom_mass, nodes, design):
    """Worst-case L2 mass the solver picks up from the kernel's diagonal
    part: sup over the nullspace unit ball of ||fitted function||^2.

    At distinct nodes the nullspace Gram is atom_mass I, so the sup is
    atom_mass lambda_max(H^-1 L* W^2 L H^-1) with H = L* L, and L* W^2 L is
    the moment Gram of node weights w^4: no design row is evaluated.  With
    Gram eigenvalues at least one half it provably stays below
    2 atom_mass max(1/rho) / n, the report's envelope.  Raises
    RankDeficientError on a rank-deficient design.
    """
    atom_mass = float(atom_mass)
    if atom_mass < 0.0:
        raise ValueError("atom mass must be non-negative")
    if np.unique(nodes.x).size != np.size(nodes.x):
        raise ValueError("nodes must be distinct")
    n, w = design.n, design.weights
    gram = design.basis.weighted_gram(design.indices, design.indices,
                                      design.x, w ** 4)
    small = design.solve(design.solve(gram).conj().T)
    small = 0.5 * (small + small.conj().T)
    component = atom_mass * float(np.linalg.eigvalsh(small)[-1])
    envelope = 2.0 * atom_mass * float(np.max(w ** 2)) / n
    within = None
    if design.lambda_min >= 0.5:
        within = bool(component <= envelope + 1e-12)
    return NullspaceReport(component=component, envelope=envelope,
                           lambda_min=design.lambda_min,
                           within_envelope=within)


# ---------------------------------------------------------------------------
# oracle helpers (Monte Carlo + power iteration)
# ---------------------------------------------------------------------------


def _random_units(rng, dim, count, dtype):
    if np.issubdtype(dtype, np.complexfloating):
        v = rng.standard_normal((dim, count)) + 1j * rng.standard_normal(
            (dim, count))
    else:
        v = rng.standard_normal((dim, count))
    return v / np.linalg.norm(v, axis=0)[None, :]


def power_iteration_norm(mat, start=None, rng=None):
    """Largest singular value of ``mat`` by power iteration on mat* mat."""
    mat = np.asarray(mat)
    dim = mat.shape[1]
    if start is not None:
        v = np.asarray(start, dtype=mat.dtype).copy()
    else:
        rng = rng or np.random.default_rng(0)
        v = _random_units(rng, dim, 1, mat.dtype)[:, 0]
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(_POWER_STEPS):
        u = mat @ v
        s = np.linalg.norm(u)
        if s == 0.0:
            return 0.0
        v = mat.conj().T @ u
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return float(s)
        v /= nv
        est = math.sqrt(nv)
        if abs(est - last) <= _POWER_TOL * max(est, 1.0):
            return float(est)
        last = est
    return float(last)


def _mc_sup(stat, dim, dtype, trials, rng):
    """(largest stat, its unit vector) over ``trials`` random unit vectors,
    drawn in chunks; ``stat`` maps a dim x k block to k values."""
    best = 0.0
    best_v = None
    done = 0
    while done < trials:
        take = min(_MC_CHUNK, trials - done)
        V = _random_units(rng, dim, take, dtype)
        vals = stat(V)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            best_v = V[:, i].copy()
        done += take
    return best, best_v


def mc_sup_singular(mat, trials, rng):
    """(raw Monte Carlo sup, power-iteration refinement) of ||mat a||."""
    mat = np.asarray(mat)
    best, best_v = _mc_sup(lambda V: np.linalg.norm(mat @ V, axis=0),
                           mat.shape[1], mat.dtype, trials, rng)
    return best, max(best, power_iteration_norm(mat, start=best_v))


def mc_sup_quadratic(Y, trials, rng):
    """(raw Monte Carlo sup, refinement) of |a* Y a| for Hermitian Y."""
    Y = np.asarray(Y)
    best, best_v = _mc_sup(
        lambda V: np.abs(np.einsum("ij,ij->j", V.conj(), Y @ V).real),
        Y.shape[0], Y.dtype, trials, rng)
    # power iteration on the Hermitian matrix itself converges to the
    # eigenvalue of largest modulus
    v = best_v
    last = best
    for _ in range(_POWER_STEPS):
        u = Y @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        v = u / nu
        est = abs(float((v.conj() @ (Y @ v)).real))
        if abs(est - last) <= _POWER_TOL * max(est, 1.0):
            last = est
            break
        last = est
    return best, max(best, float(last))


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def mode_budget(n, r, c):
    """n / (c r log n): the spectral budget that a mode count may use."""
    return n / (c * float(r) * math.log(n))


_CHOOSE_M = {"denom_coef": 14.0}


def choose_m(n, r):
    """Default mode count floor(n / (14 r log n))."""
    n = int(n)
    if n < 3:
        raise ValueError("n must be at least 3")
    return int(mode_budget(n, r, _CHOOSE_M["denom_coef"]))


def max_m_under(model, n, r, c=7.0, density_kind=None):
    """Largest m in [2, n + 1] whose spectral budget for density_kind (see
    ``densities.spectral_budget``) stays below n / (c r log n)."""
    budget = mode_budget(n, r, c)
    best = None
    m = 2
    while m <= n + 1 and spectral_budget(model, density_kind, m) <= budget:
        best = m
        m += 1
    if best is None:
        raise ValueError("no m >= 2 satisfies the spectral budget %.3f"
                         % budget)
    return best


# Each bound formula takes its constants k, then the inputs it needs by name,
# and returns (value, notes).


def _discretize_sup(k, embedding_norm, sup_norm, n, r):
    value = embedding_norm * sup_norm * math.sqrt(k["inside"] * r
                                                  * math.log(n) / n)
    thr = (k["inside"] * r * sup_norm ** 2 / embedding_norm ** 2
           if embedding_norm > 0 else math.inf)
    return value, {"threshold_ok": bool(n / math.log(n) >= thr),
                   "threshold": thr}


def _baseline_scan(k, rule, trace, n):
    """min over l of sigma_l^2 + trace * l / n, scanned until the linear
    term alone exceeds the best value."""
    best = math.inf
    arg = 1
    ell = 1
    while True:
        linear = trace * ell / n
        if linear >= best:
            break
        cand = rule.value(ell) + linear
        if cand < best:
            best = cand
            arg = ell
        ell += 1
    return best, {"argmin": arg}


def _baseline_p2(k, trace, n):
    center = max(1, int(round(math.sqrt(n))))
    cands = {max(1, center + d) for d in range(-2, 3)} | {1}
    value, arg = min((trace / ell + trace * ell / n, ell) for ell in cands)
    return value, {"argmin": arg}


_BOUNDS = {
    "recovery-tail-sup": (
        {"lead": 5.0, "log_coef": 8.0, "kappa_sq": KAPPA_SQ},
        lambda k, sigma_m_sq, tail_weighted_sup, n, r: (k["lead"] * max(
            sigma_m_sq, k["log_coef"] * r * math.log(n) / n
            * tail_weighted_sup * k["kappa_sq"]), {})),
    "recovery-tail-sum": (
        {"lead": 5.0, "log_coef": 16.0, "kappa_sq": KAPPA_SQ},
        lambda k, sigma_m_sq, tail_sum, n, r: (k["lead"] * max(
            sigma_m_sq, k["log_coef"] * r * k["kappa_sq"] * math.log(n) / n
            * tail_sum), {})),
    "recovery-half-tail": (
        {"lead": 15.0},
        lambda k, m, half_tail_sum: (k["lead"] / m * half_tail_sum, {})),
    "recovery-atom": (
        {"lead": 441.0},
        lambda k, sigma_m_sq, tail_sum, atom_mass, n, r: (k["lead"] * max(
            sigma_m_sq, r * math.log(n) / n * tail_sum, atom_mass / n), {})),
    "discretize-sup": ({"inside": CHERNOFF_DENOM}, _discretize_sup),
    "discretize-trace": (
        {"inside": CHERNOFF_DENOM},
        lambda k, trace, embedding_norm, n, r: (math.sqrt(
            k["inside"] * trace * embedding_norm ** 2 * r * math.log(n) / n),
            {})),
    "discretize-sup-final": (
        {"lead": 8.0},
        lambda k, sup_diag, n, r: (
            k["lead"] * math.sqrt(r * math.log(n) / n) * sup_diag, {})),
    "discretize-trace-final": (
        {"lead": 8.0},
        lambda k, trace, n, r: (
            k["lead"] * trace * math.sqrt(r * math.log(n) / n), {})),
    "deviation-threshold": (
        DEVIATION_CONSTANTS,
        lambda k, m_sq, lambda_op_norm, n, r: (
            deviation_level(k, m_sq, lambda_op_norm, n, r), {})),
    "baseline-scan": ({}, _baseline_scan),
    "baseline-p2": ({}, _baseline_p2),
    "choose-m": (
        _CHOOSE_M, lambda k, n, r: (float(choose_m(int(n), r)), {})),
}
BOUND_NAMES = tuple(_BOUNDS)


def bound(name, **inputs):
    """Evaluate a named bound formula; natural logs throughout."""
    if name not in _BOUNDS:
        raise ValueError("unknown bound name %r" % (name,))
    constants, formula = _BOUNDS[name]
    # the formula's parameters after k name the inputs it needs
    code = formula.__code__
    needs = code.co_varnames[1:code.co_argcount]
    missing = [key for key in needs if inputs.get(key) is None]
    if missing:
        raise ValueError("bound %r needs inputs %s" % (name, missing))
    value, notes = formula(constants, *[inputs[key] for key in needs])
    if value < 0.0:
        raise AssertionError("bound %r evaluated negative" % name)
    return BoundReport(name=name, value=float(value), inputs=dict(inputs),
                       constants=dict(constants), notes=notes)


def model_bound_inputs(model, n, r, m, density=None):
    """Collect every spectral input the named bounds can ask for."""
    m = int(m)
    half_start = max(1, m // 2)
    inputs = {
        "n": int(n),
        "r": float(r),
        "m": m,
        "sigma_m_sq": model.rule.value(m),
        "tail_weighted_sup": model.tail_function(m),
        "tail_sum": model.tail_sum(m),
        "half_tail_sum": model.tail_sum(half_start),
        "atom_mass": model.atom_mass,
        "trace": model.trace,
        "embedding_norm": model.embedding_norm,
        "sup_norm": math.sqrt(model.sup_diag),
        "sup_diag": model.sup_diag,
        "rule": model.rule,
    }
    if density is not None:
        # no bound reads m0_sq; it is kept because summaries echo every input
        inputs["m0_sq"] = model.atom_mass * density.sup_inverse()
    return inputs
