import csv
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rkhslab
from rkhslab import ConfigError, RankDeficientError
from rkhslab import experiment as ex

RECOVER_CFG = """
# smallest useful recovery run
kind = recover
basis = fourier
decay = poly
s = 1.0
density = spectral-mix
n = 120
r = 2.0
m_rule = auto
trials = 4
seed = 13
trunc = 256
"""


def build(text, **overrides):
    return ex.build_config(ex.parse_config(text), **overrides)


def test_parse_config_basics():
    raw = ex.parse_config("a = 1\n# comment\n b = two words # trailing\n")
    assert raw == {"a": "1", "b": "two words"}
    with pytest.raises(ConfigError):
        ex.parse_config("not a pair")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        build(RECOVER_CFG + "bogus = 3\n")


def test_field_diagnostics_carry_the_key():
    bad = RECOVER_CFG.replace("n = 120", "n = 2")
    with pytest.raises(ConfigError, match="^n:"):
        build(bad)
    with pytest.raises(ConfigError, match="^r:"):
        build(RECOVER_CFG.replace("r = 2.0", "r = 1.0"))
    with pytest.raises(ConfigError, match="^trials:"):
        build(RECOVER_CFG.replace("trials = 4", "trials = 0"))
    with pytest.raises(ConfigError, match="^n_grid:"):
        build("kind = sweep\nn_grid = 100,200,300\n")
    with pytest.raises(ConfigError, match="^m:"):
        build(RECOVER_CFG.replace("m_rule = auto", "m_rule = fixed"))
    with pytest.raises(ConfigError, match="cannot parse"):
        build(RECOVER_CFG.replace("n = 120", "n = twelve"))


def test_build_config_parses_by_field_type():
    cfg = build(RECOVER_CFG + "threads = auto\nvalues = 1, 0.5\n")
    assert cfg.threads == 0
    assert cfg.values == (1.0, 0.5)
    assert cfg.trunc == 256 and cfg.weighted is False
    sweep = build("kind = sweep\nn_grid = 64,128,256,512\n")
    assert sweep.n_grid == (64, 128, 256, 512)


def test_within_budget_boundary():
    # 8 of 16: rate 1/2, three standard errors 3/8, all exact in binary
    assert ex.within_budget(8, 16, 0.125) == (0.5, True)
    rate, ok = ex.within_budget(9, 16, 0.125)
    assert rate == 9 / 16 and not ok


def test_config_hash_semantics():
    cfg = build(RECOVER_CFG)
    assert cfg.config_hash() == build(RECOVER_CFG).config_hash()
    assert cfg.config_hash() != build(
        RECOVER_CFG.replace("seed = 13", "seed = 14")).config_hash()
    assert cfg.config_hash() != build(
        RECOVER_CFG.replace("n = 120", "n = 121")).config_hash()
    # output location and thread count do not change results
    assert cfg.config_hash() == build(RECOVER_CFG, out="bbb",
                                      threads=4).config_hash()


def test_resolve_m_rules():
    cfg = build(RECOVER_CFG)
    model = ex.build_model(cfg)
    assert ex.resolve_m(cfg, model, 1000) == 5
    assert ex.resolve_m(cfg, model, 120) == 2  # floor clamps at 2
    fixed = build(RECOVER_CFG.replace("m_rule = auto",
                                      "m_rule = fixed\nm = 7"))
    assert ex.resolve_m(fixed, model, 120) == 7


def test_run_recover_report_shape():
    rep = ex.run(build(RECOVER_CFG))
    assert len(rep.rows) == 4
    assert rep.header[0] == "trial"
    assert all(len(row) == len(rep.header) for row in rep.rows)
    s = rep.summary
    assert s["trials"] == 4
    assert set(s["bounds"]) == {"recovery-tail-sum", "recovery-tail-sup",
                                "recovery-half-tail", "recovery-atom"}
    for payload in s["bounds"].values():
        assert "inputs" in payload and "value" in payload
    assert rep.summary_payload()["version"]


def test_run_is_deterministic():
    a = ex.run(build(RECOVER_CFG))
    b = ex.run(build(RECOVER_CFG))
    assert a.rows == b.rows
    assert a.summary_payload() == b.summary_payload()


def test_flagged_trials_count_as_failures():
    # two nodes cannot carry a 4-dimensional span: every trial flags
    cfg = build(RECOVER_CFG.replace("m_rule = auto",
                                    "m_rule = fixed\nm = 7"))
    cfg.n = 3
    with pytest.raises(Exception):
        ex.run(cfg)


def _flag_alternate_calls(monkeypatch):
    """Make every other exact_wce_recovery call (the first included) raise
    RankDeficientError, as a rank-deficient design does."""
    real = ex.exact_wce_recovery
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) % 2 == 1:
            raise RankDeficientError("forced flag")
        return real(*args, **kwargs)

    monkeypatch.setattr(ex, "exact_wce_recovery", flaky)


def test_flagged_recover_trials_exceed_both_bounds(monkeypatch):
    _flag_alternate_calls(monkeypatch)
    rep = ex.run(build(RECOVER_CFG.replace("density = spectral-mix",
                                           "density = spectral-mix-atom\n"
                                           "atom_mass = 0.3")))
    recs = [dict(zip(rep.header, row)) for row in rep.rows]
    assert [r["flagged"] for r in recs] == [1, 0, 1, 0]
    for r in recs:
        if r["flagged"]:
            assert r["exceeded"] == 1 and r["atom_exceeded"] == 1
            assert r["nullspace_ok"] == -1
        else:
            assert r["wce_sq"] > 0.0
    assert rep.summary["flagged"] == 2
    assert rep.summary["exceed_count"] >= 2
    assert rep.summary["median_wce_sq"] == statistics.median(
        r["wce_sq"] for r in recs if not r["flagged"])


@pytest.mark.parametrize("basis", ["fourier", "cosine"])
def test_nullspace_cells_need_no_whole_design(monkeypatch, basis):
    # a Sobolev tail has an exact cosine density; poly's is truncated
    text = (RECOVER_CFG.replace("basis = fourier", "basis = " + basis)
            .replace("decay = poly", "decay = sobolev")
            .replace("density = spectral-mix",
                     "density = spectral-mix-atom\natom_mass = 0.3")
            .replace("n = 120", "n = 300").replace("trials = 4", "trials = 3"))
    want = ex.run(build(text))

    def whole(self):
        raise AssertionError("the design was built whole")

    monkeypatch.setattr(rkhslab.leastsq.DesignSystem, "matrix",
                        property(whole))
    got = ex.run(build(text))
    col = want.header.index("nullspace")
    cells = [row[col] for row in want.rows]
    assert all(cell > 0.0 for cell in cells)
    np.testing.assert_allclose([row[col] for row in got.rows], cells,
                               rtol=1e-13, atol=0.0)


def test_sweep_point_with_all_trials_flagged_has_nan_medians(monkeypatch,
                                                             tmp_path):
    # one trial per grid point: points 0 and 2 flag entirely, 1 and 3 not
    _flag_alternate_calls(monkeypatch)
    sweep = ex.run(build("""
kind = sweep
basis = fourier
decay = poly
s = 1.0
density = spectral-mix
n_grid = 128,256,512,1024
r = 2.0
trials = 1
seed = 6
trunc = 128
"""))
    assert [row[sweep.header.index("flagged")] for row in sweep.rows] == [
        1, 0, 1, 0]
    sweep.write(tmp_path / "sweep")
    with open(tmp_path / "sweep" / "table.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    for gi, row in enumerate(table):
        for key in ("median_wce_sq", "median_upper_sq"):
            assert math.isnan(float(row[key])) == (gi % 2 == 0), (gi, key)


def test_write_outputs(tmp_path):
    rep = ex.run(build(RECOVER_CFG))
    trials_path, summary_path = rep.write(tmp_path / "out")
    data = open(trials_path, "rb").read()
    assert data.count(b"\r\n") == len(rep.rows) + 1  # header + each row
    text = data.decode("utf-8")
    assert text.splitlines()[0] == ",".join(rep.header)
    payload = json.loads(open(summary_path).read())
    assert payload["config_hash"] == rep.config_hash
    assert payload["kind"] == "recover"
    # float cells round trip exactly through repr
    cell = text.splitlines()[1].split(",")[5]
    assert repr(float(cell)) == cell


def test_discretize_runner_weighted_flag():
    cfg = build("""
kind = discretize
basis = cosine
decay = sobolev
s = 1.0
n = 200
r = 2.0
trials = 3
seed = 2
trunc = 96
weighted = true
""")
    rep = ex.run(cfg)
    assert rep.summary["weighted"] is True
    assert {r[3] for r in rep.rows} == {1}
    assert "discretize-trace" in rep.summary["bounds"]


def test_concentration_runner_rows_per_trial():
    cfg = build("""
kind = concentration
family = sphere
dim = 6
n = 500
r = 2.0
trials = 40
seed = 4
t_points = 5
""")
    rep = ex.run(cfg)
    assert len(rep.rows) == 40
    assert "curve.csv" in rep.extra_tables
    header, curve = rep.extra_tables["curve.csv"]
    assert header[0] == "t" and len(curve) == 5


def test_sweep_needs_four_points():
    with pytest.raises(ConfigError, match="n_grid"):
        build("kind = sweep\nn_grid = 64,128,256\n")


def test_sweep_runner_table_and_slopes():
    cfg = build("""
kind = sweep
basis = fourier
decay = poly
s = 1.0
density = spectral-mix
n_grid = 128,256,512,1024
r = 2.0
trials = 2
seed = 6
trunc = 128
""")
    rep = ex.run(cfg)
    assert len(rep.rows) == 8
    slopes = rep.summary["slopes_error_scale"]
    assert set(slopes) >= {"bound_tail_sum", "baseline_p2", "baseline_scan"}
    assert len(rep.summary["table"]) == 4
    assert "table.csv" in rep.extra_tables


def run_cli(args, cwd):
    # Put the package under test first on the child's path by absolute
    # directory, so the CLI runs the same code from any working directory.
    pkg_root = str(Path(rkhslab.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_root] + ([inherited] if inherited else [])))
    return subprocess.run([sys.executable, "-m", "rkhslab.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_exit_codes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RECOVER_CFG.replace("kind = recover\n", ""))
    good = run_cli(["recover", "--config", str(cfg), "--out",
                    str(tmp_path / "o1")], tmp_path)
    assert good.returncode == 0, good.stderr
    assert "PASS recover" in good.stdout

    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 2\nr = 2.0\n")
    out = run_cli(["recover", "--config", str(bad)], tmp_path)
    assert out.returncode == 2, out.stderr
    assert "config error" in out.stderr and "n:" in out.stderr

    missing = run_cli(["recover", "--config", str(tmp_path / "nope.cfg")],
                      tmp_path)
    assert missing.returncode == 2, missing.stderr


def test_cli_unusable_out_exits_2_before_the_run(tmp_path):
    # exit 1 is a failed predicate; an --out under a regular file is an
    # error in the invocation and stops before any trial runs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RECOVER_CFG.replace("kind = recover\n", ""))
    (tmp_path / "afile").write_text("")
    out = run_cli(["recover", "--config", str(cfg), "--out",
                   str(tmp_path / "afile" / "sub")], tmp_path)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and "afile" in lines[0], out.stderr


def test_cli_seed_override_changes_hash(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RECOVER_CFG.replace("kind = recover\n", ""))
    a = run_cli(["recover", "--config", str(cfg), "--out",
                 str(tmp_path / "a")], tmp_path)
    b = run_cli(["recover", "--config", str(cfg), "--seed", "99", "--out",
                 str(tmp_path / "b")], tmp_path)
    assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
    ha = [ln for ln in a.stdout.splitlines() if "config hash" in ln]
    hb = [ln for ln in b.stdout.splitlines() if "config hash" in ln]
    assert ha and hb and ha != hb


_KERNEL_DIAG_EIG = """
basis = cosine
decay = sobolev
s = 1.0
density = kernel-diag
n = 200
r = 2.0
trials = 2
"""

BAD_RUNS = [
    # fixed m needs n >= m - 1
    pytest.param("recover", "m:", "basis = fourier\ndecay = poly\ns = 1.0\n"
                 "n = 5\nr = 2.0\nm_rule = fixed\nm = 10\ntrials = 2\n",
                 id="fixed-m-above-n"),
    # no m >= 2 fits n / (7 r log n) at n = 20
    pytest.param("eig-check", "m_rule:", "basis = cosine\ndecay = sobolev\n"
                 "s = 1.0\nn = 20\nr = 2.0\nm_rule = max-cond-7\n"
                 "trials = 2\n", id="max-cond-without-m"),
    # kernel-diag has no spectral budget, whatever the m rule
    pytest.param("eig-check", "density:", _KERNEL_DIAG_EIG + "m_rule = auto\n",
                 id="kernel-diag-auto"),
    pytest.param("eig-check", "density:",
                 _KERNEL_DIAG_EIG + "m_rule = fixed\nm = 3\n",
                 id="kernel-diag-fixed"),
    pytest.param("eig-check", "density:",
                 _KERNEL_DIAG_EIG + "m_rule = max-cond-10\n",
                 id="kernel-diag-max-cond"),
]


@pytest.mark.parametrize("kind,key,text", BAD_RUNS)
def test_bad_configs_raise_config_error(tmp_path, kind, key, text):
    with pytest.raises(ConfigError, match="^" + key):
        ex.run(build("kind = %s\n" % kind + text))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = run_cli([kind, "--config", str(cfg), "--out", str(tmp_path / "o")],
                  tmp_path)
    assert out.returncode == 2, out.stderr
    assert "config error: " + key in out.stderr
    assert "Traceback" not in out.stderr


_RECOVER_RULE = """
basis = fourier
n = 50
r = 2.0
trials = 1
trunc = 64
"""


@pytest.mark.parametrize("key,rule", [
    pytest.param("scale:", "decay = geometric\nq = 0.5\nscale = -1\n",
                 id="negative-scale"),
    pytest.param("values:", "decay = explicit\nvalues = 1.0, 2.0\n",
                 id="increasing-values"),
    pytest.param("s:", "decay = poly\ns = 0.5\n", id="poly-s"),
    pytest.param("q:", "decay = geometric\nq = 1.5\n", id="ratio-above-1"),
])
def test_invalid_rule_parameters_are_config_errors(tmp_path, key, rule):
    text = _RECOVER_RULE + rule
    with pytest.raises(ConfigError, match="^" + key):
        ex.run(build("kind = recover\n" + text))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = run_cli(["recover", "--config", str(cfg), "--out",
                   str(tmp_path / "o")], tmp_path)
    assert out.returncode == 2, out.stderr
    assert "config error: " + key in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("key,rule,cli", [
    pytest.param("atom_mass:", "atom_mass = nan\n", True, id="atom-mass-nan"),
    pytest.param("atom_mass:", "atom_mass = inf\n", False, id="atom-mass-inf"),
    pytest.param("r:", "r = inf\n", False, id="r-inf"),
    pytest.param("s:", "decay = poly\ns = inf\n", False, id="poly-s-inf"),
    pytest.param("s:", "decay = sobolev\ns = inf\n", False,
                 id="sobolev-s-inf"),
    pytest.param("scale:", "decay = geometric\nq = 0.5\nscale = nan\n",
                 False, id="scale-nan"),
    pytest.param("scale:", "decay = geometric\nq = 0.5\nscale = inf\n",
                 False, id="scale-inf"),
    pytest.param("values:", "decay = explicit\nvalues = 1.0, nan\n", False,
                 id="values-nan"),
    pytest.param("values:", "decay = explicit\nvalues = inf, 1.0\n", False,
                 id="values-inf"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, key, rule, cli):
    text = _RECOVER_RULE + rule
    with pytest.raises(ConfigError, match="^" + key):
        ex.run(build("kind = recover\n" + text))
    if cli:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = run_cli(["recover", "--config", str(cfg), "--out",
                       str(tmp_path / "o")], tmp_path)
        assert out.returncode == 2, out.stderr
        assert "config error: " + key in out.stderr
def test_discretize_without_trunc_uses_the_automatic_truncation():
    cfg = build("""
kind = discretize
basis = cosine
decay = sobolev
s = 1.0
n = 40
r = 2.0
trials = 1
seed = 3
""")
    rep = ex.run(cfg)
    model = ex.build_model(cfg)
    density = rkhslab.SamplingDensity(model, "plain")
    nodes = rkhslab.draw_nodes(density, 40, 3, stream=0)
    want = rkhslab.exact_wce_discretization(model, nodes, trunc=None)
    assert rep.summary["trunc"] == want.trunc_dim
    assert rep.rows[0][-1] == want.trunc_dim
    assert rep.rows[0][5] == want.value


_RECOVER_TINY = """
kind = recover
basis = fourier
n = 50
r = 2.0
trials = 1
trunc = 64
"""


@pytest.mark.parametrize("decay", [
    "decay = poly\ns = 1.0\n", "decay = sobolev\ns = 1.5\n",
    "decay = geometric\nq = 0.5\nscale = 2.0\n",
    "decay = explicit\nvalues = 1.0, 0.5, 0.25\n"])
def test_recover_summary_echoes_the_rule(tmp_path, decay):
    cfg = build(_RECOVER_TINY + decay)
    rep = ex.run(cfg)
    rep.write(str(tmp_path))
    with open(tmp_path / "summary.json", encoding="utf-8") as fh:
        bounds = json.load(fh)["summary"]["bounds"]
    want = ex.build_model(cfg).rule.describe()
    assert want["name"] == cfg.decay
    assert bounds and all(b["inputs"]["rule"] == want
                          for b in bounds.values())


_CONCENTRATION_TINY = "kind = concentration\nn = 50\ntrials = 2\n"

CONFIG_ERRORS = [
    pytest.param("atom_mass:", _RECOVER_TINY + "atom_mass = -1\n",
                 id="negative-atom-mass"),
    pytest.param("seed:", _RECOVER_TINY + "seed = -1\n", id="negative-seed"),
    pytest.param("n_grid:", "kind = sweep\nn_grid = 2, 10, 20, 40\n",
                 id="n-grid-point-below-3"),
    pytest.param("n_grid:", "kind = sweep\nn_grid = 64, 64, 64, 64\n",
                 id="n-grid-fewer-than-4-distinct"),
    pytest.param("n:", "kind = recover\n", id="missing-n"),
    pytest.param("trunc:", _RECOVER_TINY + "trunc = 0\n", id="trunc-zero"),
    pytest.param("dim:", _CONCENTRATION_TINY + "dim = 0\n", id="dim-zero"),
    pytest.param("t_points:", _CONCENTRATION_TINY + "t_points = 0\n",
                 id="t-points-zero"),
    pytest.param("weighted:", "kind = discretize\nn = 50\nweighted = maybe\n",
                 id="weighted-maybe"),
    pytest.param("basis:", _RECOVER_TINY + "basis = chebyshev\n",
                 id="unknown-basis"),
    pytest.param("values:", _RECOVER_TINY + "decay = explicit\n",
                 id="explicit-without-values"),
    pytest.param("density:", _RECOVER_TINY
                 + "density = kernel-diag\nm_rule = max-cond-7\n",
                 id="kernel-diag-max-cond-recover"),
    pytest.param("atom_mass:", "kind = discretize\nn = 50\natom_mass = 0.1\n",
                 id="discretize-with-atom"),
    pytest.param("atom_mass:", _CONCENTRATION_TINY + "atom_mass = 0.1\n",
                 id="kernel-family-with-atom"),
]


@pytest.mark.parametrize("key,text", CONFIG_ERRORS)
def test_config_errors_start_with_their_key(key, text):
    with pytest.raises(ConfigError, match="^" + key):
        ex.run(build(text))


_SWEEP_SMALL = """
kind = sweep
basis = fourier
decay = poly
s = 1.0
density = spectral-mix
n_grid = 128,256,512,1024
r = 2.0
trials = 2
seed = 6
trunc = 128
"""


def _strict_json(text):
    def reject(token):
        raise ValueError("not strict JSON: %s" % token)
    return json.loads(text, parse_constant=reject)


def test_wholly_flagged_sweep_point_writes_strict_json(monkeypatch,
                                                      tmp_path):
    # one trial per grid point: points 0 and 2 flag entirely
    _flag_alternate_calls(monkeypatch)
    sweep = ex.run(build(_SWEEP_SMALL.replace("trials = 2", "trials = 1")))
    sweep.write(tmp_path)
    summary = _strict_json((tmp_path / "summary.json").read_text())["summary"]
    for gi, row in enumerate(summary["table"]):
        for key in ("median_wce_sq", "median_upper_sq"):
            assert (row[key] is None) == (gi % 2 == 0), (gi, key)
    assert summary["slopes_error_scale"]["median_upper"] is None
    # table.csv keeps the float nan
    assert "nan" in (tmp_path / "table.csv").read_text()


def _columns(rep, *names):
    return [[row[rep.header.index(k)] for k in names] for row in rep.rows]


def test_trial_streams_follow_one_rule():
    # a sweep's trial t at grid point g reads stream g * 1e6 + t
    sweep = ex.run(build(_SWEEP_SMALL))
    assert _columns(sweep, "stream") == [
        [g * 1_000_000 + t] for g in range(4) for t in range(2)]
    # every other kind's trial t reads stream t
    for text in [RECOVER_CFG,
                 "kind = discretize\nbasis = cosine\ndecay = sobolev\n"
                 "s = 1.0\nn = 60\nr = 2.0\ntrials = 3\nseed = 2\n"
                 "trunc = 64\n",
                 "kind = eig-check\nbasis = cosine\ndecay = sobolev\n"
                 "s = 1.0\ndensity = plain\nn = 200\nr = 2.0\n"
                 "m_rule = fixed\nm = 5\ntrials = 3\nseed = 8\n"]:
        rep = ex.run(build(text))
        assert _columns(rep, "trial", "stream") == [
            [t, t] for t in range(len(rep.rows))]
    # concentration has no stream column: its trial t is stream t too
    cfg = build("kind = concentration\nfamily = sphere\ndim = 4\nn = 50\n"
                "trials = 3\nseed = 4\nt_points = 2\n")
    family = rkhslab.SphereVectorFamily(4)
    assert [row[1] for row in ex.run(cfg).rows] == [
        rkhslab.deviation_trial(family, 50, rkhslab.trial_rng(4, t))
        for t in range(3)]


def test_recover_is_sweep_grid_point_zero():
    shared = ("trial", "stream", "m", "flagged", "wce_sq", "wce_upper_sq")
    sweep = ex.run(build(_SWEEP_SMALL))
    point = [row for row, n in zip(_columns(sweep, *shared),
                                   _columns(sweep, "grid_n")) if n == [128]]
    recover = ex.run(build(
        _SWEEP_SMALL.replace("kind = sweep", "kind = recover")
        .replace("n_grid = 128,256,512,1024", "n = 128")))
    assert len(point) == 2
    assert _columns(recover, *shared) == point


@pytest.mark.parametrize("kind,target,text", [
    ("discretize", "exact_wce_discretization",
     "basis = cosine\ndecay = sobolev\ns = 1.0\nn = 60\nr = 2.0\n"
     "trials = 2\ntrunc = 64\n"),
    ("eig-check", "gram_eig_check",
     "basis = cosine\ndecay = sobolev\ns = 1.0\ndensity = plain\nn = 200\n"
     "r = 2.0\nm_rule = fixed\nm = 5\ntrials = 2\n"),
])
def test_kinds_without_a_flagged_record_reraise(monkeypatch, kind, target,
                                                 text):
    def rank_deficient(*args, **kwargs):
        raise RankDeficientError("forced")

    monkeypatch.setattr(ex, target, rank_deficient)
    with pytest.raises(RankDeficientError):
        ex.run(build("kind = %s\n" % kind + text))


def test_eig_check_fails_past_the_stability_edge():
    # negative control: m = 64 at n = 500 is far past the Gram stability
    # edge, so most trials see lambda_min < 1/2 and the gate must fail; a
    # Gram that lifted lambda_min would pass here
    rep = ex.run(build("kind = eig-check\nbasis = cosine\ndecay = sobolev\n"
                       "s = 1.0\ndensity = plain\nn = 500\nr = 2.0\n"
                       "m_rule = fixed\nm = 64\ntrials = 200\nseed = 0\n"))
    rows = _columns(rep, "eig_ok", "lambda_min")
    assert len(rows) == 200
    assert all(ok == (low >= 0.5) for ok, low in rows)
    assert rep.summary["eig_fail_rate"] > 0.9
    assert rep.summary["eig_fail_rate"] > rep.summary["eig_fail_bound"]
    assert rep.summary["pass"] is False


def test_report_holds_about_ten_cells_per_eig_check_row():
    # an eig-check row is 7 int and 3 float cells, 80 B in the two typed
    # blocks; a list of boxed cells held about 321 B
    import gc
    import tracemalloc

    cfg = build("kind = eig-check\nbasis = cosine\ndecay = sobolev\n"
                "s = 1.0\ndensity = plain\nn = 200\nr = 2.0\n"
                "m_rule = fixed\nm = 5\ntrials = 2000\nseed = 8\n")
    ex.run(cfg)  # the warm-up fills lazy imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = ex.run(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 2000
    assert held / len(rep.rows) <= 120, held


_CELL_HEADER = ["trial", "stream", "flagged", "value", "ratio"]
_CELL_ROWS = [(0, 2 ** 31 + 7, 0, -0.0, math.nan),
              (1, 2 ** 40, 1, math.inf, 5e-324),
              (2, 2 ** 62 + 1, 0, -math.inf, 0.1)]


def test_tables_keep_every_cell_as_written(tmp_path):
    # numpy scalars and a bool flag are cells too; each reads back as the
    # Python int or float it holds
    recs = [dict(zip(_CELL_HEADER, row)) for row in _CELL_ROWS]
    recs[1].update(stream=np.int64(2 ** 40), flagged=True,
                   ratio=np.float64(5e-324))
    curve = [{"t": 0.5, "count": 3}, {"t": -0.0, "count": -1}]
    rep = ex._report(build(RECOVER_CFG), _CELL_HEADER, recs, {},
                     {"curve.csv": (["t", "count"], curve)})
    rows = list(rep.rows)
    # repr tells -0.0 from 0.0 and prints nan alike on both sides
    assert repr(rows) == repr(_CELL_ROWS) == repr(rep.rows)
    assert [tuple(map(type, row)) for row in rows] == [
        (int, int, int, float, float)] * 3
    assert len(rep.rows) == 3
    assert repr([rep.rows[i] for i in range(3)]) == repr(rows)
    assert rep.rows[-1] == rows[-1] and rep.rows[1:] == rows[1:]
    # == compares the cells, a nan cell equal to a nan cell
    assert rep.rows == ex._report(build(RECOVER_CFG), _CELL_HEADER, recs,
                                  {}).rows
    recs[2]["value"] = 1.0
    assert rep.rows != ex._report(build(RECOVER_CFG), _CELL_HEADER, recs,
                                  {}).rows
    rep.write(tmp_path)

    def text(header, table):
        lines = [header] + [[str(c) if type(c) is int else repr(c)
                             for c in row] for row in table]
        return "".join(",".join(line) + "\r\n" for line in lines)

    with open(tmp_path / "trials.csv", newline="") as fh:
        assert fh.read() == text(_CELL_HEADER, _CELL_ROWS)
    with open(tmp_path / "curve.csv", newline="") as fh:
        assert fh.read() == text(["t", "count"], [(0.5, 3), (-0.0, -1)])


def test_a_column_mixing_ints_and_floats_is_refused():
    recs = [{"trial": 0, "x": 1}, {"trial": 1, "x": 1.0}]
    with pytest.raises(TypeError, match="only ints or only floats"):
        ex._report(build(RECOVER_CFG), ["trial", "x"], recs, {})


@pytest.mark.parametrize("basis", ["fourier", "cosine"])
def test_recovery_trials_factor_the_certified_moment_gram(monkeypatch, basis):
    # every trial's Gram is certified, so no design row is evaluated, and
    # each cell is that of the streamed QR's run within 1e-12
    text = (RECOVER_CFG.replace("basis = fourier", "basis = " + basis)
            .replace("decay = poly", "decay = sobolev")
            .replace("density = spectral-mix",
                     "density = spectral-mix-atom\natom_mass = 0.3")
            .replace("n = 120", "n = 300").replace("trials = 4", "trials = 3"))
    monkeypatch.setattr(ex, "gram_design", lambda *args: None)
    want = ex.run(build(text))
    monkeypatch.undo()

    def rows(self, lo, hi):
        raise AssertionError("a design row was evaluated")

    monkeypatch.setattr(rkhslab.leastsq.DesignSystem, "rows", rows)
    got = ex.run(build(text))
    assert got.header == want.header
    for (cells, is_int), (ref, _) in zip(got.rows.columns(),
                                         want.rows.columns()):
        if is_int:
            assert cells == ref
        else:
            np.testing.assert_allclose(cells, ref, rtol=1e-12, atol=0.0)
    assert not any(row[got.header.index("flagged")] for row in got.rows)


def test_tables_of_one_layout_share_a_row_dtype():
    a = ex.TrialTable([[0, 1], [0.5, 1.5], [True, False]])
    b = ex.TrialTable([[np.int64(7)], [np.float64(2.0)], [3]])
    assert a._rows.dtype is b._rows.dtype
    assert a._rows.dtype is not ex.TrialTable([[0], [1], [0.5]])._rows.dtype
    assert list(b) == [(7, 2.0, 3)]


@pytest.mark.parametrize("columns", [[], [[], []]])
def test_an_empty_table_reads_back_empty(tmp_path, columns):
    table = ex.TrialTable(columns)
    assert len(table) == 0
    assert list(table) == [] and table[:] == []
    assert [cells for cells, _ in table.columns()] == columns
    assert table == ex.TrialTable(columns)
    header = ["a", "b"][:len(columns)]
    ex.write_rows_csv(tmp_path / "empty.csv", header, table)
    assert (tmp_path / "empty.csv").read_bytes() == (
        ",".join(header) + "\r\n").encode()


SLOW_DECAY_CFG = """
basis = fourier
decay = poly
s = 0.75
r = 2.0
seed = 13
"""


@pytest.mark.parametrize("text", [
    "kind = recover\ndensity = spectral-mix\nn = 300\ntrials = 2",
    "kind = sweep\ndensity = spectral-mix\nn_grid = 60,120,240,480\n"
    "trials = 1",
    "kind = discretize\nn = 200\ntrials = 2",
], ids=["recover", "sweep", "discretize"])
def test_auto_truncation_caps_slow_decay(monkeypatch, text):
    # at poly s = 0.75 the model's truncation index lies past 2^62, where
    # its search gives up; the automatic N is the cap, read first
    dims = []
    for name in ("exact_wce_recovery", "exact_wce_discretization"):
        def traced(*args, _fn=getattr(ex, name), **kwargs):
            value = _fn(*args, **kwargs)
            dims.append(value.trunc_dim)
            return value
        monkeypatch.setattr(ex, name, traced)
    cfg = build(SLOW_DECAY_CFG + text)
    assert cfg.trunc is None
    ex.run(cfg)
    assert dims and set(dims) == {4096}


@pytest.mark.parametrize("basis,decay", [("fourier", "poly"),
                                         ("cosine", "sobolev")])
def test_a_certified_recovery_trial_forms_one_moment_block(monkeypatch, basis,
                                                           decay):
    # without an atom a trial's moments are those of the squared weights,
    # for the design's Gram and the error operator's cross Gram alike
    text = (RECOVER_CFG.replace("basis = fourier", "basis = " + basis)
            .replace("decay = poly", "decay = " + decay)
            .replace("n = 120", "n = 500")
            .replace("m_rule = auto", "m_rule = fixed\nm = 12"))
    certified = []
    gram_design = ex.gram_design

    def counted_design(*args):
        ds = gram_design(*args)
        certified.append(ds is not None)
        return ds

    calls = []
    for cls in (rkhslab.kernels.FourierBasis, rkhslab.kernels.CosineBasis):
        def counted(self, rows, cols, x, v, _fn=cls.weighted_gram):
            calls.append(np.size(cols))
            return _fn(self, rows, cols, x, v)
        monkeypatch.setattr(cls, "weighted_gram", counted)
    monkeypatch.setattr(ex, "gram_design", counted_design)
    ex.run(build(text))
    # one call per trial, of N = trunc columns
    assert certified == [True] * 4
    assert calls == [256] * 4
