"""Config-driven experiment runner with reproducible CSV/JSON outputs.

Configs are plain ``key = value`` text (``#`` comments).  Identical config
plus seed reproduces byte-identical trials.csv: trials derive their
generators from (seed, stream) counters, rows are written in trial order,
and floats are serialized with repr (shortest round trip).
"""

import csv
import functools
import hashlib
import json
import math
import statistics
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import __version__
from .concentration import (DEVIATION_CONSTANTS, KernelVectorFamily,
                            SphereVectorFamily, TailExperiment,
                            TwoPointVectorFamily, binom_se, default_t_grid,
                            deviation_threshold, fail_prob)
from .densities import (BUDGET_KINDS, SamplingDensity, draw_nodes,
                        spectral_budget)
from .errors import ConfigError, DegenerateDensityError, RankDeficientError
from .kernels import (BASES, ExplicitEigenvalues, GeometricDecay,
                      PolynomialDecay, SobolevDecay, SpectralKernelModel)
from .leastsq import (assemble_design, gram_design, gram_eig_check,
                      gram_spectrum)
from .worstcase import (FAIL_MULT, bound, choose_m, exact_wce_discretization,
                        exact_wce_recovery, max_m_under, mode_budget,
                        model_bound_inputs, pick_trunc,
                        wce_nullspace_component)

_SWEEP_STREAM_STRIDE = 1_000_000


@dataclass
class ExperimentConfig:
    kind: str
    basis: str = "fourier"
    decay: str = "poly"
    s: float = 1.0
    q: float = 0.5
    scale: float = 1.0
    values: tuple = None
    atom_mass: float = 0.0
    density: str = "plain"
    n: int = None
    n_grid: tuple = None
    r: float = 2.0
    m_rule: str = "auto"
    m: int = None
    trials: int = 100
    seed: int = 0
    trunc: int = None
    weighted: bool = False
    dim: int = 64
    family: str = "kernel"
    t_points: int = 10
    out: str = None
    threads: int = 0

    # fields that do not change results are left out of the hash
    _NON_SEMANTIC = ("out", "threads")

    def semantic_dict(self):
        d = {}
        for f in fields(self):
            if f.name in self._NON_SEMANTIC:
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            d[f.name] = v
        return d

    def config_hash(self):
        blob = json.dumps(self.semantic_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_config(text):
    """key = value lines; '#' starts a comment; later keys win."""
    raw = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r"
                              % (ln, line))
        key, val = line.split("=", 1)
        raw[key.strip()] = val.strip()
    return raw


def _conv(raw, key, kind, default):
    if key not in raw:
        return default
    text = raw[key]
    try:
        if kind is bool:
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if kind is tuple:
            return tuple(float(p) for p in text.split(",") if p.strip())
        if text == "auto" and kind is int:
            return default
        return kind(text)
    except (TypeError, ValueError):
        raise ConfigError("%s: cannot parse %r" % (key, text)) from None


# keys whose parser is not their field's type
_PARSERS = {"n_grid": lambda text: tuple(int(p) for p in text.split(",")
                                         if p.strip())}


def build_config(raw, **overrides):
    """Validated ExperimentConfig from a raw dict plus CLI overrides.

    Each key is parsed by its field's type; ``auto`` on an integer key means
    the field's default."""
    known = {f.name: f for f in fields(ExperimentConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError("%s: unknown key" % key)
    cfg = ExperimentConfig(**{
        name: _conv(raw, name, _PARSERS.get(name, f.type),
                    None if f.default is MISSING else f.default)
        for name, f in known.items()})
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    _validate(cfg)
    return cfg


# decay -> (its rule built from a config, the key a rule's ValueError is
# reported on); geometric checks its ratio q before its scale
_DECAYS = {
    "poly": (lambda cfg: PolynomialDecay(cfg.s), lambda cfg: "s"),
    "sobolev": (lambda cfg: SobolevDecay(cfg.s), lambda cfg: "s"),
    "geometric": (lambda cfg: GeometricDecay(cfg.q, cfg.scale),
                  lambda cfg: "scale" if 0.0 < cfg.q < 1.0 else "q"),
    "explicit": (lambda cfg: ExplicitEigenvalues(cfg.values),
                 lambda cfg: "values"),
}
# m rule -> the c of the spectral budget n / (c r log n) it fills, or None
# for the rules that take no budget
_M_RULES = {"fixed": None, "auto": None, "max-cond-7": 7.0,
            "max-cond-10": 10.0}


def _separable_model(cfg, what):
    model = build_model(cfg)
    if model.atom_mass > 0.0:
        raise ConfigError("atom_mass: %s the separable part only; set "
                          "atom_mass = 0" % what)
    return model


_FAMILIES = {
    "kernel": lambda cfg: KernelVectorFamily(
        _separable_model(cfg, "concentration families use"), cfg.dim),
    "sphere": lambda cfg: SphereVectorFamily(cfg.dim),
    "two-point": lambda cfg: TwoPointVectorFamily(),
}


def _validate(cfg):
    for key, allowed in (("kind", KINDS), ("basis", BASES),
                         ("decay", _DECAYS),
                         ("density", SamplingDensity.KINDS),
                         ("m_rule", _M_RULES), ("family", _FAMILIES)):
        if getattr(cfg, key) not in allowed:
            raise ConfigError("%s: must be one of %s, got %r"
                              % (key, "/".join(allowed), getattr(cfg, key)))
    if cfg.decay == "explicit" and not cfg.values:
        raise ConfigError("values: explicit decay needs a value list")
    if not 0.0 <= cfg.atom_mass < math.inf:
        raise ConfigError("atom_mass: must be non-negative and finite")
    if not 1.0 < cfg.r < math.inf:
        raise ConfigError("r: must be finite and greater than 1")
    if cfg.trials < 1:
        raise ConfigError("trials: must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed: must be non-negative")
    if cfg.kind == "sweep":
        if not cfg.n_grid or len(set(cfg.n_grid)) < 4:
            raise ConfigError("n_grid: sweep needs at least 4 distinct n")
        if any(n < 3 for n in cfg.n_grid):
            raise ConfigError("n_grid: every n must be at least 3")
    else:
        if cfg.n is None:
            raise ConfigError("n: required for kind %r" % cfg.kind)
        if cfg.n < 3:
            raise ConfigError("n: must be at least 3")
    if cfg.m_rule == "fixed":
        if cfg.m is None or cfg.m < 2:
            raise ConfigError("m: fixed rule needs an integer m >= 2")
    if cfg.density not in BUDGET_KINDS and (
            cfg.kind == "eig-check" or cfg.kind in ("recover", "sweep")
            and _M_RULES[cfg.m_rule] is not None):
        raise ConfigError("density: %s has no spectral budget, which "
                          "eig-check and max-cond m_rules need" % cfg.density)
    if cfg.trunc is not None and cfg.trunc < 1:
        raise ConfigError("trunc: must be positive or auto")
    if cfg.kind == "concentration":
        if cfg.dim < 1:
            raise ConfigError("dim: must be positive")
        if cfg.t_points < 1:
            raise ConfigError("t_points: must be positive")


def build_model(cfg):
    # the rules own their parameter ranges; a rule's ValueError becomes a
    # ConfigError on the key it was built from
    make, key = _DECAYS[cfg.decay]
    try:
        rule = make(cfg)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (key(cfg), exc)) from None
    return SpectralKernelModel(cfg.basis, rule, atom_mass=cfg.atom_mass)


def resolve_m(cfg, model, n):
    if cfg.m_rule == "fixed":
        if cfg.m - 1 > n:
            raise ConfigError("m: fixed m = %d needs n >= m - 1, got n = %d"
                              % (cfg.m, n))
        return cfg.m
    if cfg.m_rule == "auto":
        return max(2, choose_m(n, cfg.r))
    try:
        return max_m_under(model, n, cfg.r, c=_M_RULES[cfg.m_rule],
                           density_kind=cfg.density)
    except ValueError as exc:
        raise ConfigError("m_rule: %s at n = %d" % (exc, n)) from None


def three_se_slack(rate, trials):
    return 3.0 * binom_se(rate, trials)


def within_budget(count, trials, budget):
    """(rate, ok): the failure rate of count in trials, and whether it stays
    within budget plus three binomial standard errors."""
    rate = count / trials
    return rate, rate <= budget + three_se_slack(rate, trials)


class TrialTable(Sequence):
    """A read-only table of numeric rows, held as one NumPy record array
    whose int64 and float64 fields are the columns.

    Every cell is a number: an int (a flag too, as 0 or 1) or a float, and
    each column holds one of the two.  Indexing and iteration give tuples of
    Python ``int`` and ``float``.
    """

    __slots__ = ("_rows",)

    def __init__(self, columns):
        """``columns``: each column's cells, in header order; a column of
        ints (bools included) becomes an int64 field, one of floats a
        float64 field, and any other column raises TypeError."""
        is_int = []
        for cells in columns:
            types = set(map(type, cells))
            if all(issubclass(t, (int, np.integer)) for t in types):
                is_int.append(True)
            elif all(issubclass(t, (float, np.floating)) for t in types):
                is_int.append(False)
            else:
                raise TypeError("a table column must hold only ints or only "
                                "floats, not %s" % ", ".join(
                                    sorted(t.__name__ for t in types)))
        self._rows = np.empty(len(columns[0]) if columns else 0,
                              dtype=_row_dtype(tuple(is_int)))
        for name, cells in zip(self._rows.dtype.names, columns):
            self._rows[name] = cells

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        # a record's tolist() is its tuple, a slice's the list of them
        return self._rows[i].tolist()

    def columns(self):
        """(cells, is_int) of each column in header order, the cells as
        Python numbers."""
        return [(self._rows[name].tolist(), self._rows.dtype[name].kind == "i")
                for name in self._rows.dtype.names]

    def __iter__(self):
        return iter(self._rows.tolist())

    def __eq__(self, other):
        """Same column kinds and cells; a nan cell equals a nan cell."""
        if not isinstance(other, TrialTable):
            return NotImplemented
        return (self._rows.dtype == other._rows.dtype
                and all(np.array_equal(self._rows[name], other._rows[name],
                                       equal_nan=True)
                        for name in self._rows.dtype.names))

    def __repr__(self):
        return repr(list(self))


@functools.lru_cache(maxsize=None)
def _row_dtype(is_int):
    """The record dtype of a table's rows, an int64 field for each column
    where ``is_int`` holds and a float64 one elsewhere; one shared dtype per
    column layout, as every run's tables of one kind share it."""
    return np.dtype([("", np.int64 if flag else np.float64)
                     for flag in is_int])


def write_rows_csv(path, header, rows):
    """A header line, then one line per row of the TrialTable ``rows``:
    int cells as ``str``, float cells as ``repr`` (shortest round trip)."""
    text = [map(str if is_int else repr, cells)
            for cells, is_int in rows.columns()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*text))


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    config_hash: str
    header: list
    rows: TrialTable
    summary: dict
    extra_tables: dict = field(default_factory=dict)

    def write(self, out_dir):
        import os
        os.makedirs(out_dir, exist_ok=True)
        trials_path = os.path.join(out_dir, "trials.csv")
        summary_path = os.path.join(out_dir, "summary.json")
        write_rows_csv(trials_path, self.header, self.rows)
        for name, (header, rows) in sorted(self.extra_tables.items()):
            write_rows_csv(os.path.join(out_dir, name), header, rows)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(self.summary_payload(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        return trials_path, summary_path

    def summary_payload(self):
        return _json_safe({
            "kind": self.kind,
            "config": self.config,
            "config_hash": self.config_hash,
            "version": __version__,
            "summary": self.summary,
        })

    @property
    def passed(self):
        return bool(self.summary.get("pass", False))


def _json_safe(obj):
    """Nested dicts and lists of plain values for strict JSON: a rule as its
    ``describe()``, a NaN (a wholly flagged sweep point's median) as null."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    if hasattr(obj, "describe"):
        return obj.describe()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _table(header, records):
    return TrialTable([[rec[k] for rec in records] for k in header])


def _report(cfg, header, records, summary, extra_tables=None):
    """The run's report; each table row is a record's fields in order."""
    tables = {name: (head, _table(head, recs))
              for name, (head, recs) in (extra_tables or {}).items()}
    return ExperimentReport(kind=cfg.kind, config=cfg.semantic_dict(),
                            config_hash=cfg.config_hash(), header=header,
                            rows=_table(header, records), summary=summary,
                            extra_tables=tables)


def _trials(cfg, density, n, trial, flagged=None, g=0):
    """The one trial loop: ``trial(nodes)`` gives the kind's fields of trial
    t, whose nodes come from stream g * _SWEEP_STREAM_STRIDE + t at sweep grid
    point g (g = 0 for the other kinds).  A RankDeficientError or
    DegenerateDensityError flags the trial with the kind's ``flagged``
    record, which exceeds every bound, or re-raises if the kind has none."""
    recs = []
    for t in range(cfg.trials):
        stream = g * _SWEEP_STREAM_STRIDE + t
        try:
            rec, flag = trial(draw_nodes(density, n, cfg.seed, stream)), 0
        except (RankDeficientError, DegenerateDensityError):
            if flagged is None:
                raise
            rec, flag = flagged, 1
        recs.append(dict(rec, trial=t, stream=stream, n=n, flagged=flag))
    return recs


_RECOVER_HEADER = [
    "trial", "stream", "n", "m", "flagged", "lambda_min", "lambda_max",
    "pinv_norm", "wce_sq", "wce_residual", "wce_upper_sq", "bound_value",
    "exceeded", "nullspace", "nullspace_envelope", "nullspace_ok",
    "triangle_upper_sq", "atom_bound_value", "atom_exceeded",
]


def _recovery_point(cfg, model, n, names, g=0):
    """(m, {name: bound report}, trial records) of recovery at n samples,
    checked against recovery-tail-sum and recovery-atom, which ``names``
    holds; recover is the one point g = 0 of a sweep."""
    m = resolve_m(cfg, model, n)
    density = SamplingDensity(model, cfg.density, m=m)
    # only recover's summary echoes m0_sq, whose sup_inverse is a grid scan
    inputs = model_bound_inputs(model, n, cfg.r, m, density=density
                                if cfg.kind == "recover" else None)
    reps = {name: bound(name, **inputs) for name in names}
    bound_val = reps["recovery-tail-sum"].value
    atom_val = reps["recovery-atom"].value
    flagged = dict(dict.fromkeys(_RECOVER_HEADER, 0.0), m=m,
                   bound_value=bound_val, exceeded=1, nullspace_ok=-1,
                   atom_bound_value=atom_val, atom_exceeded=1)
    N = pick_trunc(model, cfg.trunc, m - 1)[0]

    def trial(nodes):
        ds = (gram_design(model, nodes, m, N)
              or assemble_design(model, nodes, m))
        wce = exact_wce_recovery(model, nodes, m, trunc=cfg.trunc, design=ds)
        # without an atom, the flagged record's nullspace fields stand
        rec = dict(flagged, lambda_min=ds.lambda_min, lambda_max=ds.lambda_max,
                   pinv_norm=ds.pinv_norm(), wce_sq=wce.value_sq,
                   wce_residual=wce.residual, wce_upper_sq=wce.upper_sq,
                   exceeded=int(wce.upper_sq > bound_val),
                   triangle_upper_sq=wce.upper_sq)
        if model.atom_mass > 0.0:
            null = wce_nullspace_component(model.atom_mass, ds)
            rec.update(nullspace=null.component,
                       nullspace_envelope=null.envelope,
                       nullspace_ok=-1 if null.within_envelope is None
                       else int(null.within_envelope),
                       triangle_upper_sq=(math.sqrt(wce.upper_sq)
                                          + math.sqrt(null.component)) ** 2)
        rec["atom_exceeded"] = int(rec["triangle_upper_sq"] > atom_val)
        return rec

    return m, reps, _trials(cfg, density, n, trial, flagged, g)


def run_recover(cfg):
    model = build_model(cfg)
    n = cfg.n
    m, reps, recs = _recovery_point(cfg, model, n, (
        "recovery-tail-sum", "recovery-tail-sup", "recovery-half-tail",
        "recovery-atom"))
    usable = [r for r in recs if not r["flagged"]]
    exceed = sum(r["exceeded"] for r in recs)
    budget = fail_prob(n, cfg.r, FAIL_MULT)
    rate, ok = within_budget(exceed, cfg.trials, budget)
    summary = {
        "n": n, "m": m, "trials": cfg.trials,
        "flagged": cfg.trials - len(usable),
        "exceed_count": exceed, "exceed_rate": rate,
        "fail_prob_bound": budget,
        "slack_3se": three_se_slack(rate, cfg.trials),
        "median_wce_sq": statistics.median(
            r["wce_sq"] for r in usable) if usable else None,
        "max_wce_upper_sq": max(
            (r["wce_upper_sq"] for r in usable), default=None),
        "bounds": {name: vars(rep) for name, rep in reps.items()},
        "pass": bool(ok),
    }
    if model.atom_mass > 0.0:
        atom_rate, atom_ok = within_budget(
            sum(r["atom_exceeded"] for r in recs), cfg.trials, budget)
        env_viol = sum(1 for r in recs if r["nullspace_ok"] == 0)
        summary["atom_exceed_rate"] = atom_rate
        summary["nullspace_envelope_violations"] = env_viol
        summary["pass"] = bool(ok and atom_ok and env_viol == 0)
    return _report(cfg, _RECOVER_HEADER, recs, summary)


_DISCRETIZE_HEADER = [
    "trial", "stream", "n", "weighted", "flagged", "value", "residual",
    "upper", "bound_value", "exceeded", "final_bound_value",
    "final_exceeded", "trunc_dim",
]


def run_discretize(cfg):
    model = _separable_model(cfg, "discretization treats")
    n = cfg.n
    inputs = model_bound_inputs(model, n, cfg.r, 2)
    kind, name = (("kernel-diag", "discretize-trace") if cfg.weighted
                  else ("plain", "discretize-sup"))
    density = SamplingDensity(model, kind)
    rep_main, rep_final = (bound(name + end, **inputs)
                           for end in ("", "-final"))

    def trial(nodes):
        weights = 1.0 / nodes.density_values if cfg.weighted else None
        val = exact_wce_discretization(model, nodes, weights=weights,
                                       trunc=cfg.trunc)
        return {"weighted": int(cfg.weighted), "value": val.value,
                "residual": val.residual, "upper": val.upper,
                "bound_value": rep_main.value,
                "exceeded": int(val.upper > rep_main.value),
                "final_bound_value": rep_final.value,
                "final_exceeded": int(val.upper > rep_final.value),
                "trunc_dim": val.trunc_dim}

    recs = _trials(cfg, density, n, trial)
    exceed = sum(r["exceeded"] for r in recs)
    budget = fail_prob(n, cfg.r, 2.0)
    rate, ok = within_budget(exceed, cfg.trials, budget)
    summary = {
        "n": n, "trials": cfg.trials, "weighted": cfg.weighted,
        "trunc": recs[0]["trunc_dim"],
        "exceed_count": exceed, "exceed_rate": rate,
        "fail_prob_bound": budget,
        "slack_3se": three_se_slack(rate, cfg.trials),
        "median_value": statistics.median(r["value"] for r in recs),
        "max_upper": max(r["upper"] for r in recs),
        "bounds": {rep.name: vars(rep) for rep in (rep_main, rep_final)},
        "pass": bool(ok),
    }
    return _report(cfg, _DISCRETIZE_HEADER, recs, summary)


_EIGCHECK_HEADER = [
    "trial", "stream", "n", "m", "flagged", "lambda_min", "lambda_max",
    "pinv_norm", "eig_ok", "norm_ok",
]


def run_eigcheck(cfg):
    model = build_model(cfg)
    n = cfg.n
    m = resolve_m(cfg, model, n)
    density = SamplingDensity(model, cfg.density, m=m)

    def trial(nodes):
        return dict(gram_eig_check(gram_spectrum(model, nodes, m)), m=m)

    recs = _trials(cfg, density, n, trial)
    eig_budget = fail_prob(n, cfg.r)
    norm_budget = fail_prob(n, cfg.r, 2.0)
    eig_rate, eig_ok = within_budget(sum(1 for r in recs if not r["eig_ok"]),
                                     cfg.trials, eig_budget)
    norm_rate, norm_ok = within_budget(
        sum(1 for r in recs if not r["norm_ok"]), cfg.trials, norm_budget)
    # the norm window is only guaranteed under the tighter spectral budget
    window_applicable = (spectral_budget(model, cfg.density, m)
                         <= mode_budget(n, cfg.r, 10.0))
    summary = {
        "n": n, "m": m, "trials": cfg.trials,
        "eig_fail_rate": eig_rate, "eig_fail_bound": eig_budget,
        "norm_fail_rate": norm_rate, "norm_fail_bound": norm_budget,
        "window_applicable": bool(window_applicable),
        "min_lambda_min": min(r["lambda_min"] for r in recs),
        "pass": bool(eig_ok and (norm_ok or not window_applicable)),
    }
    return _report(cfg, _EIGCHECK_HEADER, recs, summary)


_CONCENTRATION_HEADER = ["trial", "deviation"]
_CURVE_HEADER = ["t", "rate", "wilson_lo", "wilson_hi", "envelope",
                 "vacuous"]


def run_concentration(cfg):
    family = _FAMILIES[cfg.family](cfg)
    n = cfg.n
    grid = default_t_grid(family, n, points=cfg.t_points)
    exp = TailExperiment(family=family, n=n, t_grid=grid, trials=cfg.trials,
                         seed=cfg.seed)
    devs = exp.run()
    recs = [{"trial": i, "deviation": float(d)} for i, d in enumerate(devs)]
    curve = [dict(zip(_CURVE_HEADER, (t, rate, lo, hi, env, int(env >= 1.0))))
             for t, rate, lo, hi, env in exp.curve()]
    live = [c for c in curve if not c["vacuous"]]
    worst_excess = max([0.0] + [
        c["rate"] - c["envelope"] - three_se_slack(c["rate"], cfg.trials)
        for c in live])
    ok = all(within_budget(int(np.count_nonzero(devs >= c["t"])), cfg.trials,
                           c["envelope"])[1] for c in live)
    thr = deviation_threshold(n, cfg.r, family.m_bound, family.lambda_op)
    thr_budget = fail_prob(n, cfg.r, DEVIATION_CONSTANTS["fail_mult"])
    thr_rate, thr_ok = within_budget(int(np.count_nonzero(devs >= thr)),
                                     cfg.trials, thr_budget)
    summary = {
        "n": n, "trials": cfg.trials, "family": family.describe(),
        "m_bound": family.m_bound, "lambda_op": family.lambda_op,
        "t_grid": [float(t) for t in grid],
        "vacuous": len(grid) == 0,
        "max_deviation": float(devs.max()),
        "median_deviation": float(np.median(devs)),
        "worst_excess": worst_excess,
        "threshold": thr, "threshold_rate": thr_rate,
        "threshold_bound": thr_budget,
        "pass": bool(ok and thr_ok),
    }
    return _report(cfg, _CONCENTRATION_HEADER, recs, summary,
                   {"curve.csv": (_CURVE_HEADER, curve)})


_SWEEP_HEADER = ["grid_n", "trial", "stream", "m", "flagged", "wce_sq",
                 "wce_upper_sq"]
# table column -> the named bound it holds at each grid point
_SWEEP_BOUNDS = {"bound_tail_sum": "recovery-tail-sum",
                 "bound_atom": "recovery-atom",
                 "baseline_scan": "baseline-scan",
                 "baseline_p2": "baseline-p2"}
_SWEEP_TABLE_HEADER = ["n", "m", "median_wce_sq", "median_upper_sq",
                      *_SWEEP_BOUNDS]


def _error_scale_slope(ns, values):
    xs = np.log(np.asarray(ns, dtype=float))
    ys = 0.5 * np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def run_sweep(cfg):
    model = build_model(cfg)
    recs = []
    table = []
    for g, n in enumerate(cfg.n_grid):
        m, reps, point = _recovery_point(cfg, model, n,
                                         _SWEEP_BOUNDS.values(), g)
        recs += [dict(r, grid_n=n) for r in point]
        usable = [r for r in point if not r["flagged"]]
        table.append({
            "n": n, "m": m,
            "median_wce_sq": statistics.median(
                r["wce_sq"] for r in usable) if usable else math.nan,
            "median_upper_sq": statistics.median(
                r["wce_upper_sq"] for r in usable) if usable else math.nan,
            **{col: reps[name].value for col, name in _SWEEP_BOUNDS.items()}})
    ns = [row["n"] for row in table]
    slopes = {key: _error_scale_slope(ns, [row[key] for row in table])
              for key in _SWEEP_BOUNDS}
    slopes["median_upper"] = _error_scale_slope(
        ns, [row["median_upper_sq"] for row in table])
    ok = (-1.2 <= slopes["bound_tail_sum"] <= -0.45
          and abs(slopes["baseline_p2"] + 0.25) <= 0.05
          and slopes["bound_atom"] <= -0.45)
    summary = {
        "n_grid": list(cfg.n_grid), "trials": cfg.trials,
        "slopes_error_scale": slopes, "table": table, "pass": bool(ok),
    }
    return _report(cfg, _SWEEP_HEADER, recs, summary,
                   {"table.csv": (_SWEEP_TABLE_HEADER, table)})


_RUNNERS = {"recover": run_recover, "discretize": run_discretize,
            "eig-check": run_eigcheck, "concentration": run_concentration,
            "sweep": run_sweep}
KINDS = tuple(_RUNNERS)


def run(cfg):
    if cfg.kind not in _RUNNERS:
        raise ConfigError("kind: unknown %r" % cfg.kind)
    return _RUNNERS[cfg.kind](cfg)
