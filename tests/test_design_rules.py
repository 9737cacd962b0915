"""Rules of design that hold for the whole of ``src/rkhslab``.

No parameter that nothing reads: a parameter that a function's body never
loads gives its callers an argument with no effect, and lets a wrong value
pass without a word.
"""

import ast
from pathlib import Path

from rkhslab import worstcase

SRC = Path(__file__).resolve().parents[1] / "src" / "rkhslab"


def _exempt():
    """(function name, parameter) pairs that are not read on purpose:
    ``bound`` passes its constants as the first argument of every
    ``_BOUNDS`` formula, and a formula without constants ignores them."""
    return {(f.__name__, f.__code__.co_varnames[0])
            for _, f in worstcase._BOUNDS.values()}


def unread_parameters(source, module, exempt=()):
    """'module.function: parameter' for every parameter of a def in
    ``source`` that the def's body never loads."""
    tree = ast.parse(source)
    out = []
    for fn in ast.walk(tree):
        # lambdas are not scanned: the _BOUNDS formulas share one signature
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or all(
                isinstance(stmt, ast.Raise) for stmt in fn.body):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [p for p in (a.vararg, a.kwarg) if p is not None]]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        out += ["%s.%s: %s" % (module, fn.name, p) for p in params
                if p not in read and p not in ("self", "cls")
                and (fn.name, p) not in exempt]
    return out


def test_the_scan_finds_an_unread_parameter():
    source = (
        "def f(self, a, b=1, *rest, c, **extra):\n"
        "    def g(d):\n"
        "        return a + rest[0]\n"
        "    b = 2\n"
        "    return g, lambda e: c\n"
        "def h(x):\n"
        "    raise NotImplementedError\n")
    # b is stored, never loaded; lambdas have no def, and h only raises
    assert unread_parameters(source, "m") == [
        "m.f: b", "m.f: extra", "m.g: d"]


def test_every_parameter_in_src_is_read():
    exempt = _exempt()
    unread = [line for path in sorted(SRC.glob("*.py"))
              for line in unread_parameters(path.read_text(encoding="utf-8"),
                                            path.stem, exempt)]
    assert unread == []
