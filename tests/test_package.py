import ast
import contextlib
import io
import json
import re
import shlex
import types
from pathlib import Path

import sdlap
from sdlap.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "sdlap").glob("*.py")}


def test_package_imports_only_at_module_level():
    nested = [f"{name}.py:{node.lineno}" for name, tree in _modules().items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert nested == []


def test_package_import_graph_has_no_cycle():
    modules = _modules()
    # `from .x import`, function bodies included
    edges = {name: {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1} & modules.keys()
             for name, tree in modules.items()}
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
    assert edges["matrices"] == {"core"}
    assert edges["exact"] == set()
    assert edges["spectra"] == set()


PUBLIC_NAMES = {
    "BalanceReport", "DisconnectedGraphError", "DistanceTable", "ForestComponent",
    "GenerationError", "GraphFormatError", "IncidenceMatrix", "IncompatibleGraphError",
    "NEGATIVE", "OneForest", "POSITIVE", "SignedGraph", "SizeBoundError", "Spectrum",
    "SquareMatrix", "adjacency_matrix", "associated_complete", "canonical_orientation",
    "closed_form_det", "components", "cycle_spectrum", "det_exact", "distance_laplacian",
    "distance_matrix", "distance_table", "enumerate_spanning_1forests", "forest_census",
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
