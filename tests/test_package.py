import ast
import contextlib
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest

import sdlap
from sdlap import verify
from sdlap.cli import main

ROOT = Path(__file__).resolve().parents[1]
# A fresh interpreter that finds sdlap and perfbench; pytest's own process
# has loaded every sdlap module through conftest, so it cannot show what a
# command loads by itself.
FRESH_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))


def _fresh(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=FRESH_ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "sdlap").glob("*.py")}


def test_package_imports_only_at_module_level():
    nested = [f"{name}.py:{node.lineno}" for name, tree in _modules().items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert nested == []


def _names(node: ast.AST) -> Counter:
    """How often each identifier is named in a subtree: as a variable, an
    attribute, an imported name or a string (the CLI loads some by name)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def test_every_private_function_and_class_is_used():
    # A private helper that nothing names outside its own definition is dead.
    modules = _modules()
    everywhere = sum((_names(tree) for tree in modules.values()), Counter())
    private = [(name, node) for name, tree in modules.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and re.fullmatch(r"_[^_].*", node.name)]
    assert len(private) > 50
    assert [f"{name}.py:{node.lineno} {node.name}" for name, node in private
            if everywhere[node.name] == _names(node)[node.name]] == []


def _edges(tree: ast.Module, siblings) -> set[str]:
    """The siblings a module imports: `from .x import` and `from . import x`,
    function bodies included. A module that imports importlib loads siblings
    by name, as the package's __getattr__ and the CLI's stubs do, so every
    string constant in it that names a sibling counts as an edge too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
    if any(isinstance(node, ast.Import) and any(a.name.startswith("importlib")
                                                for a in node.names)
           for node in ast.walk(tree)):
        names |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return names & siblings


# What the oracles of tests/conftest.py may take from sdlap: the graph
# model and the result types they build, never an algorithm or encoder.
_ORACLE_IMPORTS = {"POSITIVE", "DisconnectedGraphError", "SignedGraph", "generate", "switch",
                   "ForestComponent", "OneForest"}


def test_oracles_borrow_no_encoder_or_algorithm_from_sdlap():
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    borrowed = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("to_json_obj", "to_csv", "write")):
            borrowed.append(f"conftest.py:{node.lineno} calls {node.func.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sdlap"):
            borrowed += [f"conftest.py:{node.lineno} imports {a.name}"
                         for a in node.names if a.name not in _ORACLE_IMPORTS]
        elif isinstance(node, ast.Import):
            borrowed += [f"conftest.py:{node.lineno} imports {a.name}"
                         for a in node.names if a.name.split(".")[0] == "sdlap"]
    assert borrowed == []


def _imported_roots(tree: ast.Module) -> set[str]:
    """Top-level names of every absolute import in a module, function bodies
    included, and of every module it loads by a constant name."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__", "importorskip")):
            roots.add(node.args[0].value.split(".")[0])
    return roots


def test_package_needs_only_the_standard_library_and_numpy():
    # numpy is the one declared dependency; scipy and sympy may be installed
    # beside it, so an import of either would pass here and fail elsewhere
    allowed = sys.stdlib_module_names | {"numpy", "sdlap"}
    found = {name: _imported_roots(tree) - allowed for name, tree in _modules().items()}
    assert {name: roots for name, roots in found.items() if roots} == {}
    assert _imported_roots(ast.parse("import a.b\nfrom c.d import e\nfrom . import f\n"
                                     "def g():\n    importlib.import_module('h.i')")) == {
        "a", "c", "h"}


def test_tests_use_neither_scipy_nor_sympy():
    found = {p.name: _imported_roots(ast.parse(p.read_text())) & {"scipy", "sympy"}
             for p in (ROOT / "tests").glob("*.py")}
    assert {name: roots for name, roots in found.items() if roots} == {}


def test_package_import_graph_has_no_cycle():
    modules = _modules()
    edges = {name: _edges(tree, modules.keys()) for name, tree in modules.items()}
    done, stack = set(), []

    def visit(name):
        if name in stack:
            cycle = stack[stack.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name not in done:
            stack.append(name)
            for target in sorted(edges[name]):
                visit(target)
            stack.pop()
            done.add(name)

    for name in sorted(edges):
        visit(name)
    assert edges["core"] == set()
    assert edges["matrices"] == {"core"}
    assert edges["exact"] == set()
    assert edges["spectra"] == set()
    # the lazily loaded edges are seen
    assert edges["__init__"] == modules.keys() - {"__init__"}
    assert edges["cli"] == {"core", "balance", "distance", "exact", "matrices", "spectra",
                            "verify"}


PUBLIC_NAMES = {
    "BalanceReport", "DisconnectedGraphError", "DistanceTable", "ForestComponent",
    "GenerationError", "GraphFormatError", "IncidenceMatrix", "IncompatibleGraphError",
    "NEGATIVE", "OneForest", "POSITIVE", "SignedGraph", "SizeBoundError", "Spectrum",
    "SquareMatrix", "adjacency_matrix", "associated_complete", "canonical_orientation",
    "closed_form_det", "components", "cycle_spectrum", "det_exact", "distance_laplacian",
    "distance_matrix", "distance_summary", "distance_table", "enumerate_spanning_1forests", "forest_census",
    "forest_det", "generate", "incidence_matrix", "is_balanced_det", "is_balanced_forest",
    "is_balanced_switching", "is_compatible", "odd_cycle_formula_spectrum",
    "parse_edge_list", "path_sign", "serialize", "switch", "sym_eig", "transmission",
    "weighted_degree_matrix", "weighted_laplacian",
}


def test_package_public_names_are_pinned():
    # dir() rather than vars(), so that a package that loads lazily and
    # lists its names through __dir__ is held to the same set
    names = {name for name in dir(sdlap) if not name.startswith("_")
             and not isinstance(getattr(sdlap, name), types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_readme_library_quick_start_runs_as_written():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 6
    assert lines[:2] == ["84", "False"]
    eigenvalues = ast.literal_eval(lines[2])
    assert len(eigenvalues) == 4 and list(eigenvalues) == sorted(eigenvalues)
    assert lines[3:] == ["4", "120", "120"]


def test_readme_cli_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## CLI quick start"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    runs: dict[str, list[str]] = {}  # verb -> [its stdout, the lines shown below it]
    for line in block.splitlines():
        if line.startswith("sdlap "):
            argv = shlex.split(line, comments=True)[1:]
            assert main(argv) == 0, line
            run = runs.setdefault(argv[0], [])
            run.append(capsys.readouterr().out)
        elif line.startswith("# "):
            run.append(line[2:])
    matrix_out, *matrix_rows = runs["matrix"]
    assert matrix_rows[-1] == "..." and len(matrix_rows) == 3
    assert matrix_out.splitlines()[:2] == matrix_rows[:2]
    balance_out, balance_json = runs["balance"]
    assert json.loads(balance_out) == json.loads(balance_json)
    spectrum_out, spectrum_csv = runs["spectrum"]
    assert spectrum_out.strip() == spectrum_csv == "1,1,4"


def _imported(stderr: str) -> set[str]:
    # -X importtime lists on stderr every module the process imports
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


# an unbalanced graph on 6 vertices with 8 edges
_UNBALANCED = "6\n1 2 +\n2 3 -\n3 4 +\n4 5 +\n5 6 -\n1 6 +\n1 4 -\n2 5 +\n"


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("gen", "cycle:5:allneg"),
    ("gen", "random:60:seed=1"),
    ("forests", "F"),
    ("forests", "F", "--list"),
    ("balance", "F", "--method", "switching"),
    ("balance", "F", "--method", "forest"),
], ids=["help", "gen-cycle", "gen-random", "forests", "forests-list", "balance-switching",
        "balance-forest"])
def test_help_and_gen_start_without_numpy(argv, tmp_path):
    (tmp_path / "F").write_text(_UNBALANCED)
    proc = _fresh("-X", "importtime", "-m", "sdlap.cli", *argv, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stdout
    imported = _imported(proc.stderr)
    assert "sdlap.core" in imported
    assert "numpy" not in imported
    assert "decimal" not in imported  # parse_edge_list needs it for integral weights only


def test_switching_refuses_a_disconnected_graph_without_numpy(tmp_path):
    # DisconnectedGraphError lives in core, so the oracle raises it without distance
    (tmp_path / "D").write_text("4\n1 2 +\n3 4 -\n")
    proc = _fresh("-X", "importtime", "-m", "sdlap.cli", "balance", "D", "--method",
                  "switching", cwd=tmp_path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "sdlap: graph is disconnected: vertex index 2 is unreachable from vertex index 0")
    assert "numpy" not in _imported(proc.stderr)


def test_balance_binds_real_sibling_modules_without_the_cli():
    # the CLI's lazy stubs are made by the CLI alone; a plain import of
    # sdlap.balance loads distance and exact through the import system
    proc = _fresh("-c", "import sys, types; import sdlap.balance as b; "
                  "print(type(b.distance) is types.ModuleType, "
                  "type(b.exact) is types.ModuleType, "
                  "b.distance is sys.modules['sdlap.distance'], "
                  "b.exact is sys.modules['sdlap.exact'], "
                  "'sdlap.cli' in sys.modules, 'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 4 + ["False", "True"]


_TRACED_BALANCE = """
import sys

import sdlap.cli

loaded = {name for name in sys.modules if name.startswith("sdlap")}
assert "numpy" not in sys.modules
from perfbench import spans

missing = [layer for layer in spans.LAYERS if f"sdlap.{layer}" not in loaded]
assert missing == [], missing
assert sdlap.cli.main(["gen", "cycle:4:+++-", "--out", "c4.sg"]) == 0
with spans.Tracer() as tracer:
    code = sdlap.cli.main(["balance", "c4.sg"])
assert code == 0, code
print(tracer.calls["balance.det"], tracer.calls["balance.switching"])
"""


def test_benchmark_tracer_finds_every_layer_in_a_fresh_process(tmp_path):
    # perfbench/spans.py reads sys.modules["sdlap.<layer>"] right after
    # `import sdlap.cli` and wraps the functions it finds there
    proc = _fresh("-c", _TRACED_BALANCE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    det_calls, switching_calls = map(int, proc.stdout.splitlines()[-1].split())
    assert det_calls == 2 and switching_calls == 1


_LOADED_BY_VERB = """
import sys
import types

import sdlap.cli

code = sdlap.cli.main(sys.argv[1:])
# a lazy stub stays an importlib.util._LazyModule until its first use
print(code, *sorted(name[6:] for name, module in sys.modules.items()
                    if name.startswith("sdlap.") and type(module) is types.ModuleType))
"""


@pytest.mark.parametrize("argv, executed", [
    (("matrix", "F", "--kind", "lmin"), {"distance", "matrices"}),
    (("matrix", "F", "--kind", "laplacian"), {"matrices"}),
    (("spectrum", "F", "--kind", "lmax"), {"distance", "matrices", "spectra"}),
    (("info", "F"), {"balance"}),
    (("balance", "F"), {"balance", "distance", "exact", "matrices"}),
    (("forests", "F"), {"balance"}),
    (("verify", "transmission-shift", "--n", "3"),
     {"balance", "distance", "matrices", "spectra", "verify"}),
], ids=["matrix-lmin", "matrix-laplacian", "spectrum-lmax", "info", "balance", "forests",
        "verify"])
def test_each_verb_executes_only_the_modules_it_uses(argv, executed, tmp_path):
    (tmp_path / "F").write_text(_UNBALANCED)
    proc = _fresh("-c", _LOADED_BY_VERB, *argv, "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code == "0" and (tmp_path / "out").read_text()
    assert set(modules) == executed | {"cli", "core"}


def test_a_stdout_closed_early_ends_the_command_quietly(tmp_path):
    # matrix streams its rows; a reader that stops after 100 bytes, as
    # `| head -c 100` does, leaves it writing to a closed pipe
    assert main(["gen", "cycle:300:allneg", "--out", str(tmp_path / "C")]) == 0
    proc = subprocess.Popen([sys.executable, "-m", "sdlap.cli", "matrix", "C", "--kind", "dmax"],
                            env=FRESH_ENV, cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b'{\n  "n": 300,') and len(head) == 100
    assert proc.returncode == 1 and err == b""


def test_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    # only the process entry freezes the heap; tests and library callers
    # that call main() keep a normal collector
    frozen = gc.get_freeze_count()
    (tmp_path / "F").write_text(_UNBALANCED)
    for argv in (["spectrum", str(tmp_path / "F"), "--kind", "lmax"], ["gen", "cycle:x"],
                 ["--help"]):
        main(argv)
        assert gc.get_freeze_count() == frozen, argv
    capsys.readouterr()


_FREEZE_PROBE = """
import atexit, gc, os, runpy
atexit.register(lambda: os.write(2, b"frozen %d" % gc.get_freeze_count()))
runpy.run_module("sdlap.cli", run_name="__main__")
"""


def test_a_command_process_freezes_its_heap_before_exit(tmp_path):
    # an atexit handler runs after sys.exit, so it sees what the
    # interpreter's shutdown collections would otherwise walk
    (tmp_path / "F").write_text(_UNBALANCED)
    proc = _fresh("-c", _FREEZE_PROBE, "spectrum", "F", "--kind", "lmax", cwd=tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("{")
    assert int(proc.stderr.removeprefix("frozen ")) > 1000


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("gen", "random:12:p=0.4:seed=3", "--out", "OUT"), 0),
    (("gen", "cycle:x"), 2),
    (("info", "F"), 0),
    (("balance", "D"), 1),
    (("matrix", "F", "--kind", "lmin", "--format", "csv", "--out", "OUT"), 0),
    (("matrix", "F", "--kind", "incidence"), 0),
    (("balance", "F"), 0),
    (("spectrum", "F", "--kind", "lmax"), 0),
    (("forests", "F", "--list"), 0),
    (("verify", "all", "--n", "4", "--format", "json"), 0),
], ids=["help", "gen-out", "gen-bad-spec", "info", "balance-disconnected", "matrix-csv-out",
        "matrix-incidence", "balance", "spectrum", "forests-list", "verify-all"])
def test_a_command_process_prints_what_main_prints(argv, code, tmp_path, monkeypatch, capsys):
    # the process entry adds nothing to main's output; a stdout closed
    # early is covered by the test above, which runs the process entry too
    (tmp_path / "F").write_text(_UNBALANCED)
    (tmp_path / "D").write_text("4\n1 2 +\n3 4 -\n")
    proc = _fresh("-m", "sdlap.cli", *argv, cwd=tmp_path)
    out_file = tmp_path / "OUT"
    child = proc.returncode, proc.stdout, proc.stderr, out_file.exists() and out_file.read_text()
    out_file.unlink(missing_ok=True)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert child == (code, captured.out, captured.err,
                     out_file.exists() and out_file.read_text())


# The process entry under a probe: it counts the forks that its own process
# makes and, at exit, writes that count and whether a child of it is left to
# the file "probe", so that stdout and stderr stay the command's.
_FORK_PROBE = """
import atexit, os, runpy
forks = []
os.register_at_fork(before=lambda: forks.append(1))

def write_probe():
    try:
        os.waitpid(-1, os.WNOHANG)
        left = "a child left"
    except ChildProcessError:
        left = "no child"
    with open("probe", "w") as f:
        f.write(f"{len(forks)} {left}")

atexit.register(write_probe)
runpy.run_module("sdlap.cli", run_name="__main__")
"""
# verify all forks where os.fork exists and two CPUs or more are usable
_FORKS = int(hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) >= 2)

# Stand-ins for suites, each defining a function named as the suite it
# replaces, which may call the real suite.
_FAILS_ITS_CHECK = """
import sdlap.verify
def cospectrality_suite(real=sdlap.verify.cospectrality_suite, **kwargs):
    report = real(**kwargs)
    report.record_failure("instance 0: rebound to fail")
    return report
"""
_RAISES_IN_A_CHILD = """
import os, sdlap.verify
def transmission_shift_suite(real=sdlap.verify.transmission_shift_suite,
                             parent=os.getpid(), **kwargs):
    if os.getpid() != parent:
        raise RuntimeError("raised in a child process")
    return real(**kwargs)
"""
_UNREADABLE_FROM_A_CHILD = """
import os, sdlap.verify
class Unreadable:
    def __reduce__(self):
        return int, ("not a number",)
def cospectrality_suite(real=sdlap.verify.cospectrality_suite, parent=os.getpid(), **kwargs):
    report = real(**kwargs)
    if os.getpid() != parent:
        report.details["unreadable"] = Unreadable()
    return report
"""
# forest-theorem runs in the parent process either way and takes seconds at
# --n 10 (its fourth graph at seed 1 alone takes 3 s), so this one checks three
_SHORT_FOREST_THEOREM = """
import functools, sdlap.verify
forest_theorem_suite = functools.partial(sdlap.verify.forest_theorem_suite, count=3)
"""


def _entry_and_main(argv, tmp_path, monkeypatch, capsys, stand_in=("", "")):
    """(exit code, stdout, stderr) of the process entry and of main() on
    argv, with the suite that stand_in = (name, code) defines in place of
    verify's in both, and the entry's probe line."""
    name, code = stand_in
    setup = f"{code}\nsdlap.verify.{name} = {name}\n" if name else ""
    proc = _fresh("-c", setup + _FORK_PROBE, *argv, cwd=tmp_path)
    if name:
        defined = {}
        exec(code, defined)
        monkeypatch.setattr(verify, name, defined[name])
    in_process = main(list(argv))
    captured = capsys.readouterr()
    return ((proc.returncode, proc.stdout, proc.stderr),
            (in_process, captured.out, captured.err), (tmp_path / "probe").read_text())


@pytest.mark.parametrize("argv", [
    ("--seed", "1"),
    ("--seed", "1", "--format", "json"),
    ("--seed", "901"),
    ("--seed", "901", "--format", "json"),
    ("--seed", "1530816428"),
    ("--seed", "1530816428", "--format", "json"),
    ("--n", "4"),
    ("--n", "4", "--format", "json"),
])
def test_verify_all_in_two_processes_prints_what_main_prints(argv, tmp_path, monkeypatch,
                                                            capsys):
    entry, in_process, probe = _entry_and_main(("verify", "all", *argv), tmp_path,
                                               monkeypatch, capsys)
    assert probe == f"{_FORKS} no child"
    assert entry == in_process and entry[0] == 0 and entry[2] == ""


@pytest.mark.parametrize("argv, stand_in, code", [
    (("--n", "10"), ("forest_theorem_suite", _SHORT_FOREST_THEOREM), 0),
    ((), ("cospectrality_suite", _FAILS_ITS_CHECK), 1),
    ((), ("transmission_shift_suite", _RAISES_IN_A_CHILD), 0),
    ((), ("cospectrality_suite", _UNREADABLE_FROM_A_CHILD), 0),
], ids=["n-10", "child-suite-fails", "child-suite-raises", "child-report-unreadable"])
def test_verify_all_in_two_processes_with_a_suite_stand_in(argv, stand_in, code, tmp_path,
                                                           monkeypatch, capsys):
    # a failed check crosses the pipe as a FAIL report; where a child raises
    # (and exits without a word) or sends a report that cannot be read, the
    # parent runs the child's suites itself
    entry, in_process, probe = _entry_and_main(("verify", "all", *argv), tmp_path,
                                               monkeypatch, capsys, stand_in)
    assert probe == f"{_FORKS} no child"
    assert entry == in_process and entry[0] == code and entry[2] == ""
    if code:
        assert "FAIL cospectrality: 100 instances" in entry[1]


def _never_fork():
    raise AssertionError("forked")


def test_main_and_run_all_stay_in_one_process(monkeypatch, capsys):
    # only the process entry forks; tests and library callers that call
    # main() or run_all() run every suite in their own process
    monkeypatch.setattr(os, "fork", _never_fork)
    assert main(["verify", "all"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert all(report.passed for report in verify.run_all())


def test_run_all_stays_in_one_process_without_fork_or_a_second_cpu(monkeypatch):
    expected = verify.run_all(n_max=4)
    monkeypatch.setattr(os, "fork", _never_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert verify.run_all(n_max=4, _fork=True) == expected
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify.run_all(n_max=4, _fork=True) == expected
    monkeypatch.delattr(os, "fork")
    assert verify.run_all(n_max=4, _fork=True) == expected


def _raises(message):
    def suite(**kwargs):
        raise ValueError(message)
    return suite


def test_forked_run_all_raises_what_one_process_raises(monkeypatch):
    # balance-equivalence, a child's suite, comes before the parent's last
    # suite, incidence-factorization, so its error is the one reported
    monkeypatch.setattr(verify, "balance_equivalence_suite", _raises("second suite"))
    monkeypatch.setattr(verify, "incidence_factorization_suite", _raises("last suite"))
    for fork in (False, True):
        with pytest.raises(ValueError, match="second suite"):
            verify.run_all(n_max=4, _fork=fork)
    monkeypatch.setattr(verify, "forest_theorem_suite", _raises("first suite"))
    with pytest.raises(ValueError, match="first suite"):
        verify.run_all(n_max=4, _fork=True)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupted_run_all_kills_and_reaps_its_child(monkeypatch):
    parent = os.getpid()

    def sleeps_in_a_child(**kwargs):
        if os.getpid() != parent:
            time.sleep(60)

    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "balance_equivalence_suite", sleeps_in_a_child)
    monkeypatch.setattr(verify, "forest_theorem_suite", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_all(_fork=True)
    assert time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_console_script_runs_what_the_module_runs():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entry = next(node for node in _modules()["cli"].body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    [call] = [node.value for node in entry.body if isinstance(node, ast.Expr)]
    assert scripts == {"sdlap": f"sdlap.cli:{call.func.id}"}
