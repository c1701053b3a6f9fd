"""The verification suites catch the defects they exist to catch.

Each mutant below changes one line of one sdlap module. A fresh
interpreter compiles the changed source in memory, installs it as that
module before anything imports it, and runs `verify.run_all()` at its
default seed; src/ itself is never edited. Every killed mutant must make
the suites named with it fail. The surviving mutants are listed with the
reason `verify all` cannot see them; tier-1 tests elsewhere catch each.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_RUN_MUTANT = """
import importlib.util, json, sys

name, old, new = sys.argv[1:]
spec = importlib.util.find_spec(name)
source = spec.loader.get_source(name)
assert source.count(old) == 1, (name, old)
module = importlib.util.module_from_spec(spec)
sys.modules[name] = module
exec(compile(source.replace(old, new), spec.origin, "exec"), module.__dict__)
setattr(sys.modules["sdlap"], name.rpartition(".")[2], module)

from sdlap import verify

print(json.dumps([report.suite for report in verify.run_all() if not report.passed]))
"""

# (module, line as written, mutant line, suites that must fail)
KILLED = {
    "sigma-max-always-positive": (
        "sdlap.distance", "sig = np.where(table.pos, 1, -1)", "sig = np.where(table.pos, 1, 1)",
        {"balance-equivalence", "cospectrality", "transmission-shift"}),
    "sigma-min-always-negative": (
        "sdlap.distance", "sig = np.where(table.neg, -1, 1)", "sig = np.where(table.neg, -1, -1)",
        {"balance-equivalence", "transmission-shift"}),
    "sigma-max-and-min-swapped": (
        "sdlap.distance", 'if kind == "min":', 'if kind == "max":',
        {"balance-equivalence"}),
    "negative-cycle-weighted-2": (
        "sdlap.balance", "[(w, 4 * w, 0) for w in weights]", "[(w, 2 * w, 0) for w in weights]",
        {"forest-theorem"}),
    "transmission-plus-one": (
        "sdlap.distance", "return table.dist.sum(axis=-1)", "return table.dist.sum(axis=-1) + 1",
        {"transmission-shift"}),
    "laplacian-off-diagonal-plus-sw": (
        "sdlap.matrices", "[-w for values, _ in checked for w in values]",
        "[w for values, _ in checked for w in values]",
        {"forest-theorem", "incidence-factorization"}),
    "bareiss-plus-one": (
        "sdlap.exact", "return sign * a[n - 1][n - 1]", "return sign * a[n - 1][n - 1] + 1",
        {"forest-theorem", "balance-equivalence"}),
}

# (module, line as written, mutant line, why verify all passes with it)
SURVIVORS = {
    "bareiss-row-swap-keeps-sign": (
        "sdlap.exact", "sign = -sign", "sign = sign",
        "every matrix the suites build is a positive semidefinite Laplacian, where "
        "a zero pivot has a zero column below it, so Bareiss never swaps rows; "
        "test_det_exact_handles_zero_pivots catches it"),
    "symmetric-residue-off-by-one": (
        "sdlap.exact", "return x - m if 2 * x > m else x",
        "return x - m + 1 if 2 * x > m else x",
        "it changes only negative determinants on the modular route, which starts "
        "at order 26 (_PADIC_MIN_ORDER), beyond the suites' default sizes, and every "
        "determinant the suites take is of a positive semidefinite Laplacian; "
        "test_det_exact_matches_permutation_expansion catches it"),
    "modular-divisor-dropped": (
        "sdlap.exact", "return d * _crt(", "return _crt(",
        "the modular route starts at order 26 (_PADIC_MIN_ORDER), and at their "
        "default sizes the suites' instances have at most 12 vertices; "
        "test_census_reaches_k9_and_the_necklace and the modular-route tests of "
        "test_exact.py catch it"),
}


def _sources() -> dict[str, str]:
    return {name: (ROOT / "src" / "sdlap" / f"{name.split('.')[1]}.py").read_text()
            for name in ("sdlap.distance", "sdlap.matrices", "sdlap.balance", "sdlap.exact")}


@pytest.mark.parametrize("mutants", [KILLED, SURVIVORS], ids=["killed", "survivors"])
def test_every_listed_mutant_changes_one_line_of_the_source(mutants):
    # keeps the lists from going stale when the source changes
    sources = _sources()
    for module, old, new, _ in mutants.values():
        assert sources[module].count(old) == 1, (module, old)
        assert old != new


def test_verify_all_kills_every_killable_mutant():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    runs = {name: subprocess.Popen([sys.executable, "-c", _RUN_MUTANT, module, old, new],
                                   env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                   text=True)
            for name, (module, old, new, _) in KILLED.items()}
    failed = {}
    for name, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (name, err)
        failed[name] = set(json.loads(out))
    assert failed == {name: failed[name] | must for name, (*_, must) in KILLED.items()}
