import itertools
import json
import random
import warnings
from pathlib import Path

import pytest

from sdlap import DisconnectedGraphError, IncompatibleGraphError, parse_edge_list
from sdlap.cli import MATRIX_KINDS, _build_matrix, main

from conftest import (
    oracle_1forests,
    oracle_forest_sum,
    oracle_matrix_csv,
    oracle_matrix_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c4_one_negative(tmp_path):
    path = tmp_path / "c4-oneneg.sg"
    assert main(["gen", "cycle:4:+++-", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def c3_all_negative(tmp_path):
    path = tmp_path / "c3-allneg.sg"
    assert main(["gen", "cycle:3:allneg", "--out", str(path)]) == 0
    return str(path)


# ---------------------------------------------------------------- gen


def test_gen_writes_spec_format(tmp_path, capsys):
    out = tmp_path / "tri.sg"
    code, _, _ = run(capsys, "gen", "cycle:3:allneg", "--out", str(out))
    assert code == 0
    assert out.read_text() == "3\n1 2 -\n2 3 -\n1 3 -\n"


def test_gen_is_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    run(capsys, "gen", "random:6:p=0.5:seed=7", "--out", str(a))
    run(capsys, "gen", "random:6:p=0.5:seed=7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_round_trip_through_parse_and_serialize(tmp_path, capsys):
    from sdlap import parse_edge_list, serialize

    path = tmp_path / "r.sg"
    run(capsys, "gen", "random:8:p=0.4:seed=3", "--out", str(path))
    text = path.read_text()
    assert serialize(parse_edge_list(text)) == text


def test_gen_rejects_malformed_specs(capsys):
    assert run(capsys, "gen", "path:3:+++")[0] == 2
    assert run(capsys, "gen", "path")[0] == 2
    assert run(capsys, "gen", "cycle:x:allneg")[0] == 2
    assert run(capsys, "gen", "wheel:4")[0] == 2
    code, _, err = run(capsys, "gen", "cycle:2:allneg")
    assert code == 2 and "cycle" in err


def test_gen_connectivity_failure_is_computation_error(capsys):
    code, _, err = run(capsys, "gen", "random:3:p=0:seed=1")
    assert code == 1
    assert "connected" in err


# ---------------------------------------------------------------- matrix


def test_matrix_lmax_csv(capsys, c4_one_negative):
    code, out, _ = run(capsys, "matrix", c4_one_negative, "--kind", "lmax",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "4,-1,-2,1"


def test_matrix_json_and_csv_carry_identical_numbers(capsys, c4_one_negative):
    _, out_json, _ = run(capsys, "matrix", c4_one_negative, "--kind", "lmax")
    _, out_csv, _ = run(capsys, "matrix", c4_one_negative, "--kind", "lmax",
                        "--format", "csv")
    rows_json = json.loads(out_json)["rows"]
    rows_csv = [[int(x) for x in line.split(",")] for line in out_csv.splitlines()]
    assert rows_json == rows_csv


def test_matrix_pm_on_incompatible_graph_exits_1(capsys, c4_one_negative):
    code, _, err = run(capsys, "matrix", c4_one_negative, "--kind", "lpm")
    assert code == 1
    assert "compatible" in err


def test_matrix_incidence_json(capsys, c3_all_negative):
    code, out, _ = run(capsys, "matrix", c3_all_negative, "--kind", "incidence")
    obj = json.loads(out)
    assert code == 0
    assert obj["orientation"] == [[1, 2], [2, 3], [1, 3]]


def _random_graph_text(rng, n, p, weight):
    lines = [str(n)]
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                lines.append(f"{u} {v} {rng.choice('+-')} {weight(rng)}")
    return "\n".join(lines) + "\n"


def _expected_matrix(wg, kind, fmt):
    """Exit code and text of `sdlap matrix` by the oracle encoders."""
    try:
        matrix = _build_matrix(wg, kind)
    except ValueError:
        return 1, ""
    if fmt == "csv":
        return 0, oracle_matrix_csv(matrix.entries)
    return 0, oracle_matrix_json(matrix)


def _assert_matrix_outputs_match_oracle(capsys, tmp_path, path, kinds=MATRIX_KINDS):
    target = tmp_path / "matrix.out"
    wg = parse_edge_list(Path(path).read_text(encoding="utf-8"))
    for kind in kinds:
        for fmt in ("json", "csv"):
            code, text = _expected_matrix(wg, kind, fmt)
            assert run(capsys, "matrix", path, "--kind", kind, "--format", fmt)[:2] \
                == (code, text), (kind, fmt)
            target.unlink(missing_ok=True)
            got = run(capsys, "matrix", path, "--kind", kind, "--format", fmt,
                      "--out", str(target))
            assert got[:2] == (code, ""), (kind, fmt)
            written = target.read_bytes() if target.exists() else None
            assert written == (text.encode("utf-8") if code == 0 else None), (kind, fmt)


GOLDEN_GRAPHS = {
    "integer-weights": _random_graph_text(random.Random(3), 25, 0.25,
                                          lambda rng: rng.randint(1, 40)),
    "unit-weights": _random_graph_text(random.Random(4), 12, 0.4, lambda rng: 1),
    "float-weights": "5\n1 2 + 0.3333333333333333\n2 3 - 1e-7\n3 4 + 123456.789\n"
                     "4 5 - 2.5\n1 5 + 7\n2 4 - 1e22\n",
    "random-float-weights": _random_graph_text(
        random.Random(5), 20, 0.3,
        lambda rng: repr(rng.choice([1 / 3, 1e-7, 123456.789, 2.5])
                         * rng.randint(1, 9))),
    "float-overflow": "3\n1 2 + 1e308\n1 3 + 1e308\n2 3 + 0.5\n",
    "edgeless": "4\n",
    "single-vertex": "1\n",
    "disconnected": "6\n1 2 +\n2 3 - 4\n4 5 - 2.5\n",
    "compatible": "4\n1 2 +\n2 3 -\n3 4 +\n",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_matrix_output_is_byte_identical_to_the_oracle(capsys, tmp_path, name):
    path = tmp_path / f"{name}.sg"
    path.write_text(GOLDEN_GRAPHS[name], encoding="utf-8")
    _assert_matrix_outputs_match_oracle(capsys, tmp_path, str(path))


def test_large_matrix_output_is_byte_identical_to_the_oracle(capsys, tmp_path):
    # This graph's incidence matrix has 4e6 float entries, which the
    # json.dumps oracle takes seconds to encode; the graphs above run the
    # same encoder on incidence matrices.
    path = tmp_path / "large.sg"
    path.write_text(_random_graph_text(random.Random(8), 1000, 0.008,
                                       lambda rng: rng.randint(1, 9)), encoding="utf-8")
    kinds = [kind for kind in MATRIX_KINDS if kind != "incidence"]
    _assert_matrix_outputs_match_oracle(capsys, tmp_path, str(path), kinds)


@pytest.mark.parametrize("existing", [True, False])
@pytest.mark.parametrize("graph, kind", [
    ("4\n1 2 +\n2 3 +\n3 4 +\n1 4 -\n", "lpm"),
    ("4\n1 2 +\n3 4 -\n", "dmax"),
])
def test_failed_matrix_command_leaves_out_path_alone(capsys, tmp_path, graph, kind,
                                                      existing):
    path = tmp_path / "g.sg"
    path.write_text(graph)
    target = tmp_path / "out.json"
    if existing:
        target.write_text("earlier output\n")
    code, out, err = run(capsys, "matrix", str(path), "--kind", kind, "--out", str(target))
    assert code == 1 and out == "" and err.startswith("sdlap: ")
    if existing:
        assert target.read_text() == "earlier output\n"
    else:
        assert not target.exists()


@pytest.mark.parametrize("kind", ["adjacency", "degree", "laplacian"])
def test_matrix_rejects_float_weight_sums_that_overflow(capsys, tmp_path, kind):
    path = tmp_path / "g.sg"
    path.write_text(GOLDEN_GRAPHS["float-overflow"])
    target = tmp_path / "out.json"
    target.write_text("earlier output\n")
    code, out, err = run(capsys, "matrix", str(path), "--kind", kind, "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("sdlap: ") and "vertex index 0" in err
    assert target.read_text() == "earlier output\n"
    # 1e308 is integral, so the weights must include 0.5 to stay float.
    path.write_text("3\n1 2 + 1e308\n2 3 + 0.5\n")
    code, out, _ = run(capsys, "matrix", str(path), "--kind", kind)
    assert code == 0 and "1e+308" in out and "Infinity" not in out


def test_matrix_prints_every_digit_of_large_integer_entries(capsys, tmp_path):
    path = tmp_path / "big.sg"
    path.write_text("3\n1 2 + 999999999999999\n2 3 - 1000000000000001\n1 3 + 3\n")
    rows = [
        [1000000000000002, -999999999999999, -3],
        [-999999999999999, 2000000000000000, 1000000000000001],
        [-3, 1000000000000001, 1000000000000004],
    ]
    code, out, _ = run(capsys, "matrix", str(path), "--kind", "laplacian",
                       "--format", "csv")
    assert code == 0
    assert out == "".join(",".join(map(str, row)) + "\n" for row in rows)
    assert "e+" not in out
    code, out, _ = run(capsys, "matrix", str(path), "--kind", "laplacian")
    assert code == 0 and json.loads(out)["rows"] == rows


@pytest.mark.parametrize("args", [
    ("matrix", "--kind", "lmax", "--format", "csv"),
    ("balance",),
    ("balance", "--method", "det", "--kind", "pm"),
    ("balance", "--method", "forest"),
    ("forests", "--list"),
], ids=["matrix", "balance", "balance-det-pm", "balance-forest", "forests-list"])
def test_benchmark_tracer_finds_every_entry_point(capsys, monkeypatch, c3_all_negative,
                                                   args):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import spans

    argv = (args[0], c3_all_negative) + args[1:]
    untraced = run(capsys, *argv)
    with spans.Tracer():
        traced = run(capsys, *argv)
    assert traced == untraced and untraced[0] == 0


# ---------------------------------------------------------------- balance


def test_balance_both_matches_documented_output(capsys, c4_one_negative):
    code, out, _ = run(capsys, "balance", c4_one_negative, "--method", "both")
    assert code == 0
    assert json.loads(out) == {
        "balanced": False,
        "det_lmax": "84",
        "det_lmin": "84",
        "switching": "unbalanced",
    }


@pytest.mark.parametrize("args", [
    (),
    ("--method", "det", "--kind", "pm"),
    ("--method", "forest"),
], ids=["both", "det-pm", "forest"])
def test_balance_both_builds_one_table_and_one_switching_run(
        capsys, monkeypatch, c4_one_negative, args):
    import sdlap.balance
    import sdlap.cli

    calls = {"table": 0, "switching": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (sdlap.cli, sdlap.balance):
        monkeypatch.setattr(module, "distance_table",
                            counted("table", module.distance_table))
        monkeypatch.setattr(module, "is_balanced_switching",
                            counted("switching", module.is_balanced_switching))
    code, out, _ = run(capsys, "balance", c4_one_negative, *args)
    assert code == 0
    assert json.loads(out)["balanced"] is False
    assert calls["table"] <= 1 and calls["switching"] == 1


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
def test_balance_output_passes_the_benchmark_check(capsys, monkeypatch, tmp_path, balanced):
    # perfbench/workloads.py imports its oracle as a top-level module
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    # at n = 40 an unbalanced graph's determinants take the modular route
    # with a certified divisor, as the benchmark's do
    make = workloads._balanced_spec if balanced else workloads._unbalanced_spec
    spec = make("g", 40, random.Random(40))
    text = spec.build()
    path = tmp_path / "g.sg"
    path.write_text(text)
    graph = workloads.InputGraph(spec, path, text)
    check, controls = workloads._check_balance(graph)
    code, out, _ = run(capsys, "balance", str(path))
    assert code == 0 and json.loads(out)["balanced"] is balanced
    assert check(out) is None
    assert check(controls["determinant off by one"](out)) is not None


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
def test_distance_outputs_pass_the_benchmark_checks(capsys, monkeypatch, tmp_path, balanced):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    make = workloads._balanced_spec if balanced else workloads._unbalanced_spec
    spec = make("g", 60, random.Random(60))
    text = spec.build()
    path = tmp_path / "g.sg"
    path.write_text(text)
    graph = workloads.InputGraph(spec, path, text)
    # balanced graphs are compatible, so their pm Laplacian exists
    kind = "pm" if balanced else "max"
    cases = [
        (["info"], workloads._check_info(graph)),
        (["matrix", "--kind", "lmin", "--format", "csv"],
         workloads._check_matrix_csv(graph, "lmin")),
        (["matrix", "--kind", "dmax"], workloads._check_matrix_json(graph, "dmax")),
        (["spectrum", "--kind", "l" + kind], workloads._check_spectrum(graph, kind)),
    ]
    for argv, (check, controls) in cases:
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0, argv
        assert check(out) is None, argv
        for name, corrupt in controls.items():
            assert check(corrupt(out)) is not None, (argv, name)


BALANCED_5 = "5\n1 2 -\n2 3 -\n3 4 +\n4 5 -\n1 5 -\n1 3 +\n2 4 -\n"


def test_balance_outputs_on_a_balanced_graph_are_unchanged(capsys, tmp_path):
    path = tmp_path / "balanced5.sg"
    path.write_text(BALANCED_5)
    code, out, _ = run(capsys, "balance", str(path), "--method", "det")
    assert code == 0
    assert out == (
        '{\n  "balanced": true,\n  "method": "det-max",\n  "determinant": "0",\n'
        '  "certificate": {\n    "type": "switching",\n    "zeta": [\n'
        '      1,\n      -1,\n      1,\n      1,\n      -1\n    ]\n  }\n}\n'
    )
    code, out, _ = run(capsys, "balance", str(path))
    assert code == 0
    assert out == (
        '{\n  "balanced": true,\n  "det_lmax": "0",\n  "det_lmin": "0",\n'
        '  "switching": "balanced"\n}\n'
    )


@pytest.mark.parametrize("n", [40, 80])
@pytest.mark.parametrize("balanced", [True, False])
def test_balance_json_matches_bareiss_above_the_order_threshold(
        capsys, tmp_path, n, balanced):
    import random

    from sdlap import distance_laplacian, distance_table, generate, serialize, switch
    from sdlap.balance import _PADIC_MIN_ORDER, _det_bareiss

    assert n >= _PADIC_MIN_ORDER
    if balanced:
        rng = random.Random(n)
        g = switch(generate("random", n, "allpos", seed=n, p=8 / n),
                   [rng.choice((1, -1)) for _ in range(n)])
    else:
        g = generate("random", n, 0.5, seed=n, p=8 / n)
    path = tmp_path / "g.sg"
    path.write_text(serialize(g))
    dets = {kind: _det_bareiss(distance_laplacian(distance_table(g), kind).entries.tolist())
            for kind in ("max", "min")}
    assert (dets["max"] == 0) is balanced
    expected = json.dumps({
        "balanced": balanced,
        "det_lmax": str(dets["max"]),
        "det_lmin": str(dets["min"]),
        "switching": "balanced" if balanced else "unbalanced",
    }, indent=2) + "\n"
    code, out, _ = run(capsys, "balance", str(path))
    assert code == 0
    assert out == expected


def test_balance_switching_report(capsys, tmp_path):
    path = tmp_path / "p3.sg"
    run(capsys, "gen", "path:3:+-", "--out", str(path))
    code, out, _ = run(capsys, "balance", str(path), "--method", "switching")
    obj = json.loads(out)
    assert code == 0
    assert obj["balanced"] is True
    assert obj["certificate"]["type"] == "switching"


def test_balance_forest_report(capsys, c3_all_negative):
    code, out, _ = run(capsys, "balance", c3_all_negative, "--method", "forest")
    obj = json.loads(out)
    assert code == 0
    assert obj["balanced"] is False
    assert obj["determinant"] == "4"
    assert obj["method"] == "forest-sum"


@pytest.mark.parametrize("text, total", [
    ("3\n1 2 - 1e308\n1 3 - 1e308\n2 3 - 0.5\n", 4),
    ("4\n1 2 + 2.5\n2 3 - 3\n3 4 + 0.25\n1 4 + 7\n1 3 - 1.5\n", 12),
], ids=["overflowing-weights", "fractional-weights"])
def test_balance_forest_sums_at_unit_weights(capsys, tmp_path, text, total):
    from sdlap import is_balanced_forest

    path = tmp_path / "weighted.sg"
    path.write_text(text)
    code, out, err = run(capsys, "balance", str(path), "--method", "forest")
    assert code == 0 and err == ""
    assert json.loads(out)["determinant"] == str(total)
    report = is_balanced_forest(parse_edge_list(text))
    assert report.determinant == total and type(report.determinant) is int


# ---------------------------------------------------------------- spectrum


def test_spectrum_csv_output(capsys, c3_all_negative):
    code, out, _ = run(capsys, "spectrum", c3_all_negative, "--kind", "lpm",
                       "--format", "csv")
    assert code == 0
    assert out.strip() == "1,1,4"


def test_spectrum_json_groups(capsys, c3_all_negative):
    code, out, _ = run(capsys, "spectrum", c3_all_negative, "--kind", "lpm")
    obj = json.loads(out)
    assert code == 0
    assert [g["multiplicity"] for g in obj["groups"]] == [2, 1]


NEAR_FLOAT_LIMIT = "3\n1 2 - 1e308\n1 3 - 0.5\n2 3 - 0.5\n"


@pytest.mark.parametrize("text, expected", [
    (NEAR_FLOAT_LIMIT, [-1e308, 0.0, 1e308]),
    # the eigenvalues are finite, but their plain sum overflows
    ("4\n1 2 + 1e308\n3 4 + 1e308\n2 3 + 0.5\n", [-1e308, -1e308, 1e308, 1e308]),
], ids=["one-huge-edge", "sum-overflows"])
def test_spectrum_of_entries_near_the_float_limit(capsys, tmp_path, text, expected):
    path = tmp_path / "huge.sg"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "spectrum", str(path), "--kind", "adjacency")
    assert code == 0
    assert json.loads(out)["eigenvalues"] == pytest.approx(expected, rel=1e-12, abs=1.0)


def test_spectrum_that_overflows_exits_1(capsys, tmp_path):
    # the largest eigenvalue of this Laplacian is about 2e308
    path = tmp_path / "huge.sg"
    path.write_text(NEAR_FLOAT_LIMIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "spectrum", str(path), "--kind", "laplacian")
    assert (code, out) == (1, "")
    assert err == "sdlap: an eigenvalue overflows a 64-bit float\n"


# ---------------------------------------------------------------- info & forests


def test_info_reports_basic_facts(capsys, c4_one_negative):
    code, out, _ = run(capsys, "info", c4_one_negative)
    obj = json.loads(out)
    assert code == 0
    assert obj["n"] == 4 and obj["m"] == 4
    assert obj["negative_edges"] == 1
    assert obj["connected"] is True
    assert obj["compatible"] is False
    assert obj["incompatible_pair"] == [1, 3]
    assert obj["balanced"] is False
    assert obj["transmissions"] == [4, 4, 4, 4]


def test_forests_census(capsys, c3_all_negative):
    code, out, _ = run(capsys, "forests", c3_all_negative, "--list")
    obj = json.loads(out)
    assert code == 0
    assert obj["count"] == 1
    assert obj["forest_sum"] == "4"
    assert obj["forests"][0]["components"][0]["cycle"] == [1, 2, 3]


def test_forests_contrabalanced_census(capsys, tmp_path, c4_one_negative):
    # the only spanning 1-forest of a cycle is the cycle itself
    code, out, _ = run(capsys, "forests", c4_one_negative)
    assert code == 0
    assert json.loads(out)["count"] == 1
    code, out, _ = run(capsys, "forests", c4_one_negative,
                       "--kind", "contrabalanced")
    assert code == 0
    assert json.loads(out)["count"] == 1  # its cycle is negative

    allpos = tmp_path / "c4-allpos.sg"
    run(capsys, "gen", "cycle:4:allpos", "--out", str(allpos))
    code, out, _ = run(capsys, "forests", str(allpos), "--kind", "contrabalanced")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 0 and obj["forest_sum"] == "0"


@pytest.mark.parametrize("kind", ["all", "contrabalanced"])
def test_forests_scans_once_and_sums_like_forest_det(capsys, tmp_path, monkeypatch, kind):
    import sdlap.cli
    from sdlap import SignedGraph, forest_det, generate, serialize

    g = generate("complete", 5, 0.5, seed=3)
    wg = SignedGraph(g.n, g.edges, tuple(0.1 * (i + 1) for i in range(10)))
    path = tmp_path / "k5.sg"
    path.write_text(serialize(wg))
    expected = forest_det(wg)
    scan, as_one_forest = sdlap.cli._scan_1forests, sdlap.cli._as_one_forest
    for listed in (False, True):
        scans, built = [], []

        def counted(g, negative_only=False):
            scans.append(negative_only)
            return scan(g, negative_only)

        def counted_build(g, leaf):
            built.append(leaf)
            return as_one_forest(g, leaf)

        monkeypatch.setattr(sdlap.cli, "_scan_1forests", counted)
        monkeypatch.setattr(sdlap.cli, "_as_one_forest", counted_build)
        code, out, _ = run(capsys, "forests", str(path), "--kind", kind,
                           *(["--list"] if listed else []))
        # one search, for only the kind asked for
        assert code == 0 and scans == [kind == "contrabalanced"]
        # components and cycles are built for --list only, once per forest
        obj = json.loads(out)
        assert len(built) == (obj["count"] if listed else 0)
        # float weights: the same terms, added in the same order
        assert obj["forest_sum"] == expected


def _render_forests(wg, forests, total) -> dict:
    """The `forests --list` document for a list of OneForest values."""
    return {
        "count": len(forests),
        "forest_sum": str(total) if isinstance(total, int) else total,
        "forests": [
            {
                "edges": [[wg.edges[ei][0] + 1, wg.edges[ei][1] + 1] for ei in f.edges],
                "components": [
                    {"vertices": [v + 1 for v in c.vertices],
                     "cycle": [v + 1 for v in c.cycle],
                     "sign": c.sign}
                    for c in f.components
                ],
            }
            for f in forests
        ],
    }


def test_forests_list_matches_the_subset_oracle(capsys, tmp_path):
    from sdlap import SignedGraph, components, serialize

    rng = random.Random(2024)
    disconnected = multi = floats = 0
    for i in range(60):
        # one random piece, or two on disjoint vertex sets, shuffled together
        sizes = [rng.randint(3, 7)] if i % 3 == 0 else [rng.randint(3, 4), rng.randint(3, 4)]
        n = sum(sizes)
        label = rng.sample(range(n), n)
        edges, first = [], 0
        for size in sizes:
            p = rng.uniform(0.3, 0.7) if len(sizes) == 1 else rng.uniform(0.5, 1.0)
            edges += [(label[first + u], label[first + v], rng.choice((1, -1)))
                      for u, v in itertools.combinations(range(size), 2) if rng.random() < p]
            first += size
        rng.shuffle(edges)
        if i % 2:
            weights = tuple(round(rng.uniform(0.1, 3.0), 3) for _ in edges)
        else:
            weights = tuple(float(rng.randint(1, 5)) for _ in edges)
        path = tmp_path / f"g{i}.sg"
        path.write_text(serialize(SignedGraph(n, tuple(edges), weights)))
        wg = parse_edge_list(path.read_text())
        expected = oracle_1forests(wg)
        disconnected += len(components(wg)) > 1
        multi += any(len(f.components) > 1 for f in expected)
        floats += not wg.integer_weights
        for kind, keep in (("all", expected),
                           ("contrabalanced", [f for f in expected if f.contrabalanced])):
            code, out, err = run(capsys, "forests", str(path), "--kind", kind, "--list")
            assert code == 0 and err == ""
            total = oracle_forest_sum(wg, expected)
            assert json.loads(out) == _render_forests(wg, keep, total)
    assert disconnected >= 40 and multi >= 15 and floats >= 25


@pytest.mark.parametrize("argv", [["info"], ["forests"],
                                  ["forests", "--kind", "contrabalanced", "--list"]])
def test_float_forest_sums_that_overflow_exit_1(capsys, tmp_path, argv):
    path = tmp_path / "huge.sg"
    path.write_text("3\n1 2 - 1e308\n1 3 - 1e308\n2 3 - 0.5\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err == "sdlap: 1-forest sum overflows a 64-bit float\n"


# ---------------------------------------------------------------- verify


def test_verify_suite_passes_and_is_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "verify", "forest-theorem",
                           "--n", "5", "--seed", "1")
    code_b, out_b, _ = run(capsys, "verify", "forest-theorem",
                           "--n", "5", "--seed", "1")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.startswith("PASS forest-theorem")


def test_verify_forest_theorem_skips_graphs_the_search_refuses(capsys, monkeypatch):
    import sdlap.balance

    code, out, _ = run(capsys, "verify", "forest-theorem", "--n", "5")
    assert code == 0 and "skipped" not in out
    # Dense graphs on 9 to 11 vertices exceed a 2000-node budget.
    monkeypatch.setattr(sdlap.balance, "ENUMERATION_MAX_NODES", 2000)
    code, out, _ = run(capsys, "verify", "forest-theorem", "--n", "11", "--format", "json")
    (report,) = json.loads(out)
    assert code == 0 and report["passed"] and report["instances"] == 200
    assert 0 < report["details"]["skipped"] < 200
    monkeypatch.setattr(sdlap.balance, "ENUMERATION_MAX_NODES", 0)
    code, out, _ = run(capsys, "verify", "forest-theorem", "--n", "5")
    assert code == 1
    assert out.startswith("FAIL forest-theorem: 200 instances, max_abs_difference=0, "
                          "skipped=200 (forest_det refused every instance)")


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "transmission-shift", "--n", "6",
                       "--format", "json")
    reports = json.loads(out)
    assert code == 0
    assert reports[0]["suite"] == "transmission-shift"
    assert reports[0]["passed"] is True


@pytest.mark.parametrize("bound", ["-1", "0", "1", "2"])
def test_verify_rejects_vertex_bounds_below_three(capsys, bound):
    code, out, err = run(capsys, "verify", "all", "--n", bound)
    assert code == 2
    assert out == ""
    assert "at least 3" in err


def test_run_suite_rejects_vertex_bounds_below_three():
    from sdlap.verify import run_suite

    with pytest.raises(ValueError, match="at least 3"):
        run_suite("transmission-shift", n_max=2)


@pytest.mark.parametrize("suite, sizes, message", [
    ("forest_theorem_suite", {"count": 0}, "at least 1"),
    ("balance_equivalence_suite", {"count": 0}, "at least 1"),
    ("cospectrality_suite", {"count": 0}, "at least 1"),
    ("incidence_factorization_suite", {"count": 0}, "at least 1"),
    ("cospectrality_suite", {"n_max": 1}, "at least 3"),
    ("transmission_shift_suite", {"n_max": 2}, "at least 3"),
], ids=["forest-theorem-count", "balance-equivalence-count", "cospectrality-count",
        "incidence-factorization-count", "cospectrality-n", "transmission-shift-n"])
def test_suites_refuse_sizes_that_test_nothing(suite, sizes, message):
    import sdlap.verify

    with pytest.raises(ValueError, match=message):
        getattr(sdlap.verify, suite)(**sizes)


def test_transmission_shift_suite_builds_one_table_per_cycle(monkeypatch):
    import sdlap.verify

    calls = {"distance_table": 0, "sym_eig": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sdlap.verify, name, counted(getattr(sdlap.verify, name)))
    report = sdlap.verify.transmission_shift_suite(n_max=12)
    assert report.passed and report.instances == 40
    assert calls == {"distance_table": 20, "sym_eig": 40}


def _drop_the_sign_rule(monkeypatch):
    """Make every module that binds distance_matrix get unsigned distances."""
    import sys

    import numpy as np

    from sdlap.matrices import SquareMatrix

    def unsigned(table, kind):
        return SquareMatrix(np.array(table.dist, dtype=np.int64), f"d{kind}")

    for name, module in list(sys.modules.items()):
        if name.startswith("sdlap") and hasattr(module, "distance_matrix"):
            monkeypatch.setattr(module, "distance_matrix", unsigned)


def test_transmission_shift_suite_fails_without_the_sign_rule(monkeypatch):
    from sdlap.verify import transmission_shift_suite

    assert transmission_shift_suite(n_max=12).passed
    _drop_the_sign_rule(monkeypatch)
    report = transmission_shift_suite(n_max=12)
    assert not report.passed
    assert report.failures[0] == "C3 allneg max: deviation 2 from cycle_spectrum"


def test_cospectrality_suite_fails_without_the_sign_rule(monkeypatch):
    from sdlap.verify import cospectrality_suite

    report = cospectrality_suite()
    assert report.passed and report.details["max_deviation"] == 0
    _drop_the_sign_rule(monkeypatch)
    report = cospectrality_suite()
    assert not report.passed and report.details["max_deviation"] > 0
    assert "differs from Z·L·Z" in report.failures[0]


@pytest.mark.parametrize("suite", ["balance-equivalence", "cospectrality",
                                   "transmission-shift"])
def test_spectral_suites_fail_on_a_negative_eigenvalue(monkeypatch, suite):
    import sdlap.verify
    from sdlap.spectra import Spectrum

    real = sdlap.verify.sym_eig
    monkeypatch.setattr(sdlap.verify, "sym_eig", lambda m: Spectrum.from_values(
        v - 1 for v in real(m).eigenvalues))
    report = sdlap.verify.run_suite(suite)
    assert not report.passed and report.details["min_eigenvalue"] < -0.9
    assert any("negative eigenvalue" in failure for failure in report.failures)


def test_benchmark_runs_every_verify_suite_in_order():
    import ast

    from sdlap.verify import SUITES

    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    (listed,) = [ast.literal_eval(node.value) for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_SUITES"]]
    assert listed == tuple(SUITES)


def test_benchmark_tracer_times_each_verify_suite(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import spans

    from sdlap.verify import SUITES

    with spans.Tracer() as tracer:
        code, out, _ = run(capsys, "verify", "all", "--n", "4")
    assert code == 0 and out.count("PASS") == len(SUITES)
    assert [tracer.calls[spans.GROUPS[fn.__name__]] for fn in SUITES.values()] == [1] * 5


def test_verify_all_prints_one_pass_line_per_suite(capsys):
    from sdlap.verify import SUITES

    code, out, _ = run(capsys, "verify", "all", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in SUITES]


def test_verify_accepts_the_smallest_vertex_bound(capsys):
    code, out, _ = run(capsys, "verify", "transmission-shift", "--n", "3")
    assert code == 0
    assert out.startswith("PASS transmission-shift: 4 instances")


def test_verify_rejects_unknown_suite(capsys):
    assert run(capsys, "verify", "everything")[0] == 2


# ---------------------------------------------------------------- errors


def test_unknown_flag_exits_2(capsys, c3_all_negative):
    assert run(capsys, "spectrum", c3_all_negative, "--frobnicate")[0] == 2


def test_balance_kind_all_exits_2(capsys, c3_all_negative):
    code, out, err = run(capsys, "balance", c3_all_negative, "--method", "det",
                         "--kind", "all")
    assert code == 2
    assert out == "" and "invalid choice" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "info", "/nonexistent/file.sg")
    assert code == 2
    assert "cannot read" in err


def test_bad_file_contents_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.sg"
    bad.write_text("2\n1 1 +\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "line 2" in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.sg"
    path.write_bytes(b"# caf\xe9\n2\n1 2 +\n")
    code, out, err = run(capsys, "info", str(path))
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err


def test_out_into_missing_directory_exits_2(tmp_path, capsys, c3_all_negative):
    target = tmp_path / "missing" / "out.json"
    for argv in (["info"], ["matrix", "--kind", "lmax", "--format", "csv"]):
        code, out, err = run(capsys, *argv, c3_all_negative, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"sdlap: cannot write {target}")
        assert "Traceback" not in err and not target.exists()


def test_non_finite_weight_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.sg"
    path.write_text("3\n1 2 + inf\n2 3 -\n")
    code, out, err = run(capsys, "matrix", str(path), "--kind", "laplacian")
    assert code == 2
    assert out == ""
    assert "line 2" in err and "non-finite weight" in err


def test_weight_sum_beyond_int64_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.sg"
    path.write_text("3\n1 2 + 5000000000000000000\n2 3 + 5000000000000000000\n"
                    "1 3 + 1\n")
    code, out, err = run(capsys, "matrix", str(path), "--kind", "degree",
                         "--format", "csv")
    assert code == 1
    assert out == ""
    assert "vertex index 1" in err


def test_disconnected_input_exits_1(tmp_path, capsys):
    path = tmp_path / "disc.sg"
    path.write_text("4\n1 2 +\n3 4 -\n")
    code, _, err = run(capsys, "matrix", str(path), "--kind", "lmax")
    assert code == 1
    assert "disconnected" in err


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "matrix", "--help")[0] == 0


def test_documented_flags_appear_in_help(capsys):
    _, out, _ = run(capsys, "verify", "--help")
    for flag in ("--n", "--seed", "--format", "--out"):
        assert flag in out
    _, out, _ = run(capsys, "spectrum", "--help")
    for flag in ("--kind", "--format", "--tolerance", "--out"):
        assert flag in out


def test_spectrum_tolerance_controls_grouping(capsys, c3_all_negative):
    _, out, _ = run(capsys, "spectrum", c3_all_negative, "--tolerance", "10")
    obj = json.loads(out)
    assert [g["multiplicity"] for g in obj["groups"]] == [3]


@pytest.mark.parametrize("bad", ["-1", "-1e-9", "nan", "inf", "-inf"])
def test_spectrum_rejects_bad_tolerances(capsys, c3_all_negative, bad):
    code, out, err = run(capsys, "spectrum", c3_all_negative, "--tolerance", bad)
    assert code == 2
    assert out == ""
    assert "--tolerance" in err
