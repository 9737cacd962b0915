"""Workload configs for the benchmark, derived from tests/test_acceptance.py.

Each workload is a list of (name, config text) pairs.  One run of a
workload calls ``experiment.run(cfg)`` and ``ExperimentReport.write(dir)``
for each pair in order, the same public calls ``rkhslab.cli.main`` makes.

Trial counts are cut down from the acceptance configs so that one run takes
about a second (three for ``sweep-dense``) on a 2-core machine; the sizes
that decide which code path runs (n, m, truncation, density) are kept.

The benchmark seed is added to each acceptance seed, so seed 0 reproduces
the acceptance seeds and the committed reference outputs.
"""

DEFAULT_SEED = 0

_RECOVER = """
kind = recover
basis = fourier
decay = poly
s = 1.0
density = spectral-mix-atom
atom_mass = 0.3
n = 1000
r = 2.0
m_rule = auto
trials = {trials}
seed = {seed}
"""

_SWEEP = """
kind = sweep
basis = fourier
decay = poly
s = 1.0
density = spectral-mix
n_grid = {n_grid}
r = 2.0
m_rule = auto
trials = {trials}
seed = {seed}
trunc = 512
"""

_DISCRETIZE = """
kind = discretize
basis = cosine
decay = sobolev
s = 1.0
n = {n}
r = 2.0
trials = {trials}
trunc = 512
seed = {seed}
weighted = {weighted}
"""

_EIGCHECK = """
kind = eig-check
basis = cosine
decay = sobolev
s = 1.0
density = plain
n = {n}
r = 2.0
m_rule = max-cond-7
trials = {trials}
seed = {seed}
"""

_CONCENTRATION = """
kind = concentration
basis = cosine
decay = sobolev
s = 1.0
r = 2.0
t_points = 10
dim = 64
family = {family}
n = {n}
trials = {trials}
seed = {seed}
"""

# Full size first, then the tiny size the self-test uses.
_SIZES = {
    "recover-secular": [
        # criterion 4: auto trunc gives N=4096 > 600, the secular path
        ("recover", _RECOVER, 104, {"trials": (4, 1)}),
    ],
    "sweep-dense": [
        # criterion 8: dense SVD path, design up to 16384 x 512 complex
        ("sweep", _SWEEP, 108, {
            "n_grid": ("256,512,1024,2048,4096,8192,16384",
                       "256,512,1024,2048"),
            "trials": (1, 1)}),
    ],
    "discretize-dense": [
        # criterion 6: real cosine block, Gram product, dense eigvalsh
        ("plain", _DISCRETIZE, 106,
         {"n": (5000, 200), "trials": (3, 1), "weighted": ("false",) * 2}),
        ("weighted", _DISCRETIZE, 107,
         {"n": (5000, 200), "trials": (3, 1), "weighted": ("true",) * 2}),
    ],
    "small-trials": [
        # criterion 1 and criterion 7 at n=1000: many cheap trials
        ("eig-check", _EIGCHECK, 101, {"n": (2000, 200), "trials": (500, 5)}),
        ("conc-kernel", _CONCENTRATION, 171,
         {"family": ("kernel",) * 2, "n": (1000, 1000),
          "trials": (200, 5)}),
        ("conc-two-point", _CONCENTRATION, 174,
         {"family": ("two-point",) * 2, "n": (1000, 1000),
          "trials": (1000, 5)}),
    ],
}

NAMES = tuple(_SIZES)


def config_texts(workload, seed, tiny=False):
    """[(name, config text)] for one workload at a benchmark seed."""
    if workload not in _SIZES:
        raise ValueError("unknown workload %r; choose from %s"
                         % (workload, ", ".join(NAMES)))
    if seed < 0:
        raise ValueError("seed must be non-negative")
    out = []
    for name, template, base_seed, sizes in _SIZES[workload]:
        params = {key: val[1 if tiny else 0] for key, val in sizes.items()}
        out.append((name, template.format(seed=base_seed + seed, **params)))
    return out
