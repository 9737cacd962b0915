"""End-to-end checks, one test per shipped guarantee.

Every test prints a single PASS/FAIL line so a full run reads as a
checklist.  All tolerances are one-sided Monte Carlo budgets plus three
binomial standard errors; sharpness of the constants is not asserted.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import rkhslab
from rkhslab import (FAIL_MULT, ExplicitEigenvalues, PolynomialDecay,
                     SamplingDensity, SobolevDecay, SpectralKernelModel,
                     assemble_design, draw_nodes, exact_wce_discretization,
                     get_basis, mc_sup_quadratic, recover)
from rkhslab import experiment as ex
from rkhslab.densities import trial_rng


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL",
                                         detail))
    assert ok, detail


def run_cfg(text, **overrides):
    return ex.run(ex.build_config(ex.parse_config(text), **overrides))


EIG_CFG = """
kind = eig-check
basis = cosine
decay = sobolev
s = 1.0
density = plain
n = 2000
r = 2.0
trials = 500
"""


def test_criterion_1_gram_eigenvalue_control(capsys):
    t0 = time.time()
    rep = run_cfg(EIG_CFG + "m_rule = max-cond-7\nseed = 101\n")
    s = rep.summary
    slack = ex.three_se_slack(s["eig_fail_rate"], 500)
    ok = (s["m"] == 10 and s["eig_fail_rate"] <= 0.0005 + slack
          and s["pass"])
    report(capsys, 1, ok,
           "m=%d eig_fail_rate=%.4g budget=%.4g+%.4g %.0fs"
           % (s["m"], s["eig_fail_rate"], 0.0005, slack, time.time() - t0))


def test_criterion_2_pinv_norm_window(capsys):
    rep = run_cfg(EIG_CFG + "m_rule = max-cond-10\nseed = 102\n")
    s = rep.summary
    slack = ex.three_se_slack(s["norm_fail_rate"], 500)
    ok = (s["m"] == 8 and s["window_applicable"]
          and s["norm_fail_rate"] <= 0.001 + slack and s["pass"])
    report(capsys, 2, ok,
           "m=%d window_fail_rate=%.4g budget=%.4g+%.4g"
           % (s["m"], s["norm_fail_rate"], 0.001, slack))


RECOVER_CFG = """
kind = recover
basis = fourier
decay = poly
s = 1.0
density = spectral-mix
n = 1000
r = 2.0
m_rule = auto
trials = 300
"""


def test_criterion_3_recovery_bound(capsys):
    t0 = time.time()
    rep = run_cfg(RECOVER_CFG + "seed = 103\n")
    s = rep.summary
    val = s["bounds"]["recovery-tail-sum"]["value"]
    budget = FAIL_MULT * 1000.0 ** (-1.0)
    slack = ex.three_se_slack(s["exceed_rate"], 300)
    ok = (s["m"] == 5 and val == pytest.approx(0.6404108306283516, rel=1e-12)
          and s["exceed_rate"] <= budget + slack and s["pass"])
    report(capsys, 3, ok,
           "m=%d bound=%.6g exceed_rate=%.4g budget=%.4g+%.4g %.0fs"
           % (s["m"], val, s["exceed_rate"], budget, slack,
              time.time() - t0))


def test_criterion_4_atom_recovery_and_nullspace(capsys):
    rep = run_cfg(RECOVER_CFG.replace("density = spectral-mix",
                                      "density = spectral-mix-atom\n"
                                      "atom_mass = 0.3") + "seed = 104\n")
    s = rep.summary
    budget = FAIL_MULT * 1000.0 ** (-1.0)
    slack = ex.three_se_slack(s["atom_exceed_rate"], 300)
    ok = (s["atom_exceed_rate"] <= budget + slack
          and s["nullspace_envelope_violations"] == 0 and s["pass"])
    report(capsys, 4, ok,
           "atom_exceed_rate=%.4g budget=%.4g+%.4g nullspace_violations=%d"
           % (s["atom_exceed_rate"], budget, slack,
              s["nullspace_envelope_violations"]))


def test_criterion_5_discretization_oracle_equivalence(capsys):
    worst = 0.0
    for i in range(20):
        rng = trial_rng(500 + i)
        rank = int(rng.integers(8, 41))
        n = int(rng.integers(rank, 51))
        lam = np.sort(rng.random(rank))[::-1] + 0.05
        basis = get_basis("fourier" if i % 2 else "cosine")
        model = SpectralKernelModel(basis, ExplicitEigenvalues(lam.tolist()))
        x = rng.random(n)
        out = exact_wce_discretization(model, x)
        assert out.residual == 0.0
        sig = model.singular_values(np.arange(1, rank + 1))
        G = basis.eval_block(np.arange(1, rank + 1), x) * sig[None, :]
        Y = np.diag(sig ** 2) - G.conj().T @ G / n
        raw, refined = mc_sup_quadratic(Y, 10_000, trial_rng(900 + i))
        assert raw <= out.value + 1e-10
        rel = abs(refined - out.value) / out.value
        worst = max(worst, rel)
        assert rel <= 0.01
    report(capsys, 5, True, "20 instances, worst MC/PI gap %.3g" % worst)


DISCRETIZE_CFG = """
kind = discretize
basis = cosine
decay = sobolev
s = 1.0
n = 5000
r = 2.0
trials = 300
trunc = 512
"""


def test_criterion_6_discretization_bounds(capsys):
    t0 = time.time()
    plain = run_cfg(DISCRETIZE_CFG + "seed = 106\n")
    sp = plain.summary
    sup = sp["bounds"]["discretize-sup"]
    weighted = run_cfg(DISCRETIZE_CFG + "seed = 107\nweighted = true\n")
    sw = weighted.summary
    tr = sw["bounds"]["discretize-trace"]
    ok = (sup["value"] == pytest.approx(0.47497838831325684, rel=1e-12)
          and sup["notes"]["threshold_ok"]
          and tr["value"] == pytest.approx(0.3854535589228328, rel=1e-12)
          and sp["pass"] and sw["pass"])
    report(capsys, 6, ok,
           "sup_rate=%.4g trace_rate=%.4g budget=%.4g bounds=(%.4g, %.4g) "
           "%.0fs" % (sp["exceed_rate"], sw["exceed_rate"],
                      sp["fail_prob_bound"], sup["value"], tr["value"],
                      time.time() - t0))


CONC_CFG = """
kind = concentration
basis = cosine
decay = sobolev
s = 1.0
r = 2.0
trials = 1000
t_points = 10
dim = 64
"""


def test_criterion_7_concentration_tails(capsys):
    t0 = time.time()
    details = []
    ok = True
    seed = 170
    for family in ("kernel", "two-point"):
        for n in (100, 1000, 10000):
            rep = run_cfg(CONC_CFG + "family = %s\nn = %d\nseed = %d\n"
                          % (family, n, seed))
            seed += 1
            s = rep.summary
            if n == 100:
                ok = ok and s["vacuous"]
            else:
                ok = ok and not s["vacuous"] and len(s["t_grid"]) == 10
            ok = ok and s["pass"]
            details.append("%s/n=%d%s excess=%.3g"
                           % (family, n, " vacuous" if s["vacuous"] else "",
                              s["worst_excess"]))
    report(capsys, 7, ok, "; ".join(details) +
           " %.0fs" % (time.time() - t0))


SWEEP_CFG = """
kind = sweep
basis = fourier
decay = poly
s = 1.0
density = spectral-mix
n_grid = 256,512,1024,2048,4096,8192,16384
r = 2.0
m_rule = auto
trials = 6
seed = 108
trunc = 512
"""


def test_criterion_8_rate_comparison(capsys):
    t0 = time.time()
    rep = run_cfg(SWEEP_CFG)
    sl = rep.summary["slopes_error_scale"]
    ok = (abs(sl["baseline_p2"] + 0.25) <= 0.05
          and sl["bound_atom"] <= -0.45
          and -1.2 <= sl["bound_tail_sum"] <= -0.45
          and rep.summary["pass"])
    report(capsys, 8, ok,
           "baseline_p2=%.4f bound_atom=%.3f bound_tail_sum=%.3f %.0fs"
           % (sl["baseline_p2"], sl["bound_atom"], sl["bound_tail_sum"],
              time.time() - t0))


REPRO_CFG = """
basis = fourier
decay = poly
s = 1.0
density = spectral-mix
n = 200
r = 2.0
m_rule = auto
trials = 8
seed = 9
trunc = 256
"""


def _cli(args, cwd):
    # Put the package under test first on the child's path by absolute
    # directory, so the CLI runs the same code from any working directory.
    pkg_root = str(Path(rkhslab.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_root] + ([inherited] if inherited else [])))
    return subprocess.run([sys.executable, "-m", "rkhslab.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


def _density_suite():
    sob = SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))
    pol = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0))
    atom = SpectralKernelModel(get_basis("fourier"), PolynomialDecay(1.0),
                               atom_mass=0.3)
    return [SamplingDensity(sob, "plain"),
            SamplingDensity(sob, "kernel-diag"),
            SamplingDensity(sob, "spectral-mix", m=4),
            SamplingDensity(pol, "spectral-mix", m=5),
            SamplingDensity(atom, "spectral-mix-atom", m=5)]


def _random_fit_instance(i):
    rng = np.random.default_rng(7000 + i)
    if i % 2:
        model = SpectralKernelModel(get_basis("fourier"),
                                    PolynomialDecay(1.0))
    else:
        model = SpectralKernelModel(get_basis("cosine"), SobolevDecay(1.0))
    m = int(rng.integers(2, 9))
    n = int(rng.integers(max(10, 4 * m), 61))
    density = SamplingDensity(model, "spectral-mix", m=m)
    nodes = draw_nodes(density, n, seed=7100 + i)
    return model, density, nodes, m, n, rng


def test_criterion_9_determinism_and_invariants(capsys, tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(REPRO_CFG)
    first = _cli(["recover", "--config", str(cfg), "--out",
                  str(tmp_path / "a")], tmp_path)
    second = _cli(["recover", "--config", str(cfg), "--out",
                   str(tmp_path / "b")], tmp_path)
    assert first.returncode == 0 and second.returncode == 0, \
        first.stderr + second.stderr
    same = ((tmp_path / "a" / "trials.csv").read_bytes()
            == (tmp_path / "b" / "trials.csv").read_bytes()
            and (tmp_path / "a" / "summary.json").read_bytes()
            == (tmp_path / "b" / "summary.json").read_bytes())
    assert same

    worst_norm = 0.0
    for d in _density_suite():
        val, err = quad(lambda t: float(d.evaluate(np.array([t]))[0]),
                        0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=200)
        worst_norm = max(worst_norm, abs(val - 1.0))
        assert abs(val - 1.0) <= 1e-8

    for i in range(100):
        model, density, nodes, m, n, rng = _random_fit_instance(i)
        ds = assemble_design(model, nodes, m)
        s1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = complex(rng.standard_normal(), 1.0), complex(0.5, -2.0)
        c1 = recover(model, nodes, m, s1, design=ds).values
        c2 = recover(model, nodes, m, s2, design=ds).values
        mix = recover(model, nodes, m, a * s1 + b * s2,
                      design=ds).values
        np.testing.assert_allclose(mix, a * c1 + b * c2, atol=1e-10 * max(
            1.0, float(np.abs(c1).max() + np.abs(c2).max())))
        refit = model.basis.eval_block(np.arange(1, m), nodes.x) @ c1
        again = recover(model, nodes, m, refit, design=ds).values
        np.testing.assert_allclose(again, c1, atol=1e-10 * max(
            1.0, float(np.abs(c1).max())))
        g = s1 * ds.weights
        grad = ds.matrix.conj().T @ (ds.matrix @ c1 - g)
        assert float(np.linalg.norm(grad)) <= 1e-8 * max(
            1.0, float(np.linalg.norm(g)))
    report(capsys, 9, True,
           "byte-identical reruns, densities within %.2g, 100 fit "
           "instances" % worst_norm)
