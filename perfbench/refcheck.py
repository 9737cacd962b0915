"""Cell-by-cell comparison of experiment outputs against a reference.

Integer, flag and text cells must match exactly; float cells must agree
within REL_TOL relative.  Byte equality is not the rule because BLAS
thread counts change the last bits of some cells.

    python3 perfbench/refcheck.py DIR_A DIR_B

compares every output file under two directories written by the
benchmark (for instance a parent and a changed commit run at the same
seed) and exits 1 on the first difference.
"""

import csv
import hashlib
import json
import math
import os
import sys

REL_TOL = 1e-10
OUTPUT_FILES = ("trials.csv", "summary.json", "table.csv", "curve.csv")


def _is_int_text(text):
    t = text[1:] if text[:1] in "+-" else text
    return t.isdigit()


def floats_agree(a, b, rel_tol=REL_TOL):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def _cell_diff(ref, got, where):
    if ref == got:
        return None
    if _is_int_text(ref) or _is_int_text(got):
        return "%s: %r != %r" % (where, ref, got)
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return "%s: %r != %r" % (where, ref, got)
    if floats_agree(a, b):
        return None
    return "%s: %r vs %r" % (where, ref, got)


def diff_csv(ref_path, got_path):
    with open(ref_path, newline="", encoding="utf-8") as fh:
        ref = list(csv.reader(fh))
    with open(got_path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    name = os.path.basename(ref_path)
    if len(ref) != len(got):
        return "%s: %d rows != %d" % (name, len(ref), len(got))
    for i, (r, g) in enumerate(zip(ref, got)):
        if len(r) != len(g):
            return "%s row %d: %d cells != %d" % (name, i, len(r), len(g))
        for j, (a, b) in enumerate(zip(r, g)):
            msg = _cell_diff(a, b, "%s row %d col %d" % (name, i, j))
            if msg:
                return msg
    return None


def diff_json(ref, got, where="summary.json"):
    if isinstance(ref, bool) or isinstance(got, bool):
        return None if ref is got else "%s: %r != %r" % (where, ref, got)
    if isinstance(ref, float) or isinstance(got, float):
        if (isinstance(ref, (int, float)) and isinstance(got, (int, float))
                and type(ref) is type(got) and floats_agree(ref, got)):
            return None
        return "%s: %r vs %r" % (where, ref, got)
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return "%s: keys %s != %s" % (where, sorted(ref), sorted(got))
        for key in sorted(ref):
            msg = diff_json(ref[key], got[key], "%s.%s" % (where, key))
            if msg:
                return msg
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return "%s: length %d != %d" % (where, len(ref), len(got))
        for i, (a, b) in enumerate(zip(ref, got)):
            msg = diff_json(a, b, "%s[%d]" % (where, i))
            if msg:
                return msg
        return None
    return None if ref == got else "%s: %r != %r" % (where, ref, got)


def diff_dir(ref_dir, got_dir):
    """First difference between the outputs of one run, or None."""
    ref_files = sorted(f for f in OUTPUT_FILES
                       if os.path.exists(os.path.join(ref_dir, f)))
    got_files = sorted(f for f in OUTPUT_FILES
                       if os.path.exists(os.path.join(got_dir, f)))
    if ref_files != got_files:
        return "files %s != %s" % (ref_files, got_files)
    for f in ref_files:
        ref_path, got_path = os.path.join(ref_dir, f), os.path.join(got_dir, f)
        if f.endswith(".csv"):
            msg = diff_csv(ref_path, got_path)
        else:
            with open(ref_path, encoding="utf-8") as fh:
                ref = json.load(fh)
            with open(got_path, encoding="utf-8") as fh:
                got = json.load(fh)
            msg = diff_json(ref, got)
        if msg:
            return "%s: %s" % (os.path.basename(got_dir), msg)
    return None


def sha256_files(out_dir):
    """{file name: sha256} for the outputs in one run directory."""
    sums = {}
    for f in OUTPUT_FILES:
        path = os.path.join(out_dir, f)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                sums[f] = hashlib.sha256(fh.read()).hexdigest()
    return sums


def main(argv):
    if len(argv) != 2:
        print("usage: refcheck.py DIR_A DIR_B", file=sys.stderr)
        return 2
    a, b = argv
    pairs = []
    for root, _dirs, files in os.walk(a):
        if any(f in OUTPUT_FILES for f in files):
            pairs.append((root, os.path.join(b, os.path.relpath(root, a))))
    if not pairs:
        print("no outputs under %s" % a, file=sys.stderr)
        return 2
    bad = 0
    for ref_dir, got_dir in sorted(pairs):
        msg = (diff_dir(ref_dir, got_dir) if os.path.isdir(got_dir)
               else "missing %s" % got_dir)
        print("%s %s" % ("DIFF" if msg else "same", msg or ref_dir))
        bad += bool(msg)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
