import itertools
import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from sdlap import (DisconnectedGraphError, IncompatibleGraphError, forest_det, generate,
                   is_balanced_switching, parse_edge_list, transmission)
from sdlap.cli import MATRIX_KINDS, main
from sdlap.matrices import _incidence_stack

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


@pytest.mark.parametrize("signs, message", [
    ("+", "sign string has length 1"),
    ("-", "sign string has length 1"),
    ("all-positive", "unrecognized sign spec"),
    ("all_negative", "unrecognized sign spec"),
    ("ALLPOS", "unrecognized sign spec"),
    ("AllNeg", "unrecognized sign spec"),
])
def test_gen_rejects_removed_sign_spellings(capsys, signs, message):
    code, out, err = run(capsys, "gen", f"cycle:4:{signs}")
    assert (code, out) == (2, "") and message in err
    with pytest.raises(ValueError, match=message):
        generate("cycle", 4, signs)


def test_gen_one_edge_takes_a_one_sign_string(capsys):
    assert run(capsys, "gen", "path:2:+") == (0, "2\n1 2 +\n", "")
    assert run(capsys, "gen", "path:2:-") == (0, "2\n1 2 -\n", "")


def test_gen_takes_a_sign_probability(capsys):
    from sdlap import serialize

    expected = serialize(generate("random", 12, 0.3, seed=4))
    assert run(capsys, "gen", "random:12:q=0.3:seed=4") == (0, expected, "")
    assert run(capsys, "gen", "cycle:4:q=1") == (0, "4\n1 2 -\n2 3 -\n3 4 -\n1 4 -\n", "")


@pytest.mark.parametrize("token, message", [
    ("q=1.5", "sign probability 1.5 outside [0, 1]"),
    ("q=x", "bad sign probability"),
])
def test_gen_rejects_bad_sign_probabilities(capsys, token, message):
    code, out, err = run(capsys, "gen", f"cycle:4:{token}")
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("spec, message", [
    ("cycle:5:allneg:q=0.3", "gives signs more than once"),
    ("cycle:5:allneg:allpos", "gives signs more than once"),
    ("cycle:4:+++-:allneg", "gives signs more than once"),
    ("random:5:q=0.2:q=0.3", "gives signs more than once"),
    ("random:5:seed=1:seed=2", "gives seed more than once"),
    ("random:5:p=0.4:p=0.5", "gives p more than once"),
    ("cycle:5:p=0.3", "p= is for random graphs only"),
    ("random:5:seed=x", "bad seed"),
    ("random:5:p=x", "bad probability"),
])
def test_gen_rejects_repeated_and_misplaced_tokens(capsys, spec, message):
    code, out, err = run(capsys, "gen", spec)
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("kind, n, tokens, fields", [
    ("random", 7, ("seed=5", "p=0.6", "q=0.3"), {"seed": 5, "p": 0.6, "signs": 0.3}),
    ("cycle", 5, ("+-+--", "seed=2"), {"signs": "+-+--", "seed": 2}),
])
def test_gen_fields_may_come_in_any_order(capsys, kind, n, tokens, fields):
    from sdlap import serialize

    expected = serialize(generate(kind, n, **fields))
    for order in itertools.permutations(tokens):
        assert run(capsys, "gen", ":".join((kind, str(n), *order))) == (0, expected, "")


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
        matrix = MATRIX_KINDS[kind](wg)
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
    # integer entries near 1e12 span far more values than a matrix has entries
    "wide-integer-weights": _random_graph_text(
        random.Random(6), 20, 0.3, lambda rng: rng.randint(1, 9) * 10**12 + rng.randint(0, 999)),
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


@pytest.mark.parametrize("args, det_calls", [
    (("matrix", "--kind", "lmax", "--format", "csv"), 0),
    (("balance",), 2),
    (("balance", "--method", "det", "--kind", "pm"), 1),
    (("balance", "--method", "forest"), 0),
    (("forests", "--list"), 0),
], ids=["matrix", "balance", "balance-det-pm", "balance-forest", "forests-list"])
def test_benchmark_tracer_finds_every_entry_point(capsys, monkeypatch, c3_all_negative,
                                                   args, det_calls):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import spans

    argv = (args[0], c3_all_negative) + args[1:]
    untraced = run(capsys, *argv)
    with spans.Tracer() as tracer:
        traced = run(capsys, *argv)
    assert traced == untraced and untraced[0] == 0
    # the determinant spans find det_exact where the benchmark looks for it
    assert tracer.calls["balance.det"] == det_calls
    if "--list" in args:
        # the forest counter reads the lister
        assert tracer.counts["forests_found"] == len(json.loads(traced[1])["forests"]) == 1


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
    import sdlap.distance

    calls = {"table": 0, "switching": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the CLI and balance both call distance_table through its module
    monkeypatch.setattr(sdlap.distance, "distance_table",
                        counted("table", sdlap.distance.distance_table))
    monkeypatch.setattr(sdlap.balance, "is_balanced_switching",
                        counted("switching", sdlap.balance.is_balanced_switching))
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
    from sdlap.exact import _PADIC_MIN_ORDER, _det_bareiss

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


@pytest.mark.parametrize("method", ["switching", "forest", "both"])
def test_balance_rejects_kind_without_method_det(capsys, c3_all_negative, method):
    code, out, err = run(capsys, "balance", c3_all_negative, "--method", method, "--kind", "pm")
    assert (code, out) == (2, "") and "--kind is for --method det only" in err
    assert run(capsys, "balance", c3_all_negative, "--method", method)[0] == 0


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


# 6000 digits, past the 4300 that str() and json.dumps() write by default
# from Python 3.11 on; int() reads at most as many, so the halves are read
_DIGITS = "1234567890" * 600
_HUGE = int(_DIGITS[:3000]) * 10 ** 3000 + int(_DIGITS[3000:])


def test_exact_integers_print_every_digit_however_long(monkeypatch, capsys, c3_all_negative):
    import io

    import numpy as np

    import sdlap.balance
    from sdlap.balance import BalanceReport
    from sdlap.matrices import SquareMatrix

    # C3 all negative is unbalanced and compatible, so each kind takes a
    # determinant, and it has m = n, so info gives the closed form
    monkeypatch.setattr(sdlap.balance, "det_exact", lambda m: _HUGE)
    monkeypatch.setattr(sdlap.balance, "forest_det", lambda g: _HUGE)
    monkeypatch.setattr(sdlap.balance, "forest_census", lambda g, contrabalanced: (3, _HUGE))
    commands = [(["balance"], ("det_lmax", "det_lmin")),
                (["balance", "--method", "det"], ("determinant",)),
                (["balance", "--method", "forest"], ("determinant",)),
                (["info"], ("closed_form_det",)),
                (["forests", "--kind", "all"], ("forest_sum",)),
                (["forests", "--kind", "contrabalanced"], ("forest_sum",))]
    commands += [(["balance", "--method", "det", "--kind", kind], ("determinant",))
                 for kind in ("max", "min", "pm")]
    for (verb, *options), keys in commands:
        code, out, err = run(capsys, verb, c3_all_negative, *options)
        assert (code, err) == (0, ""), (verb, options, err)
        assert [json.loads(out)[key] for key in keys] == [_DIGITS] * len(keys), (verb, options)
    report = BalanceReport(False, "det-max", (0, 1, 2), -_HUGE)
    assert report.to_json_obj()["determinant"] == "-" + _DIGITS
    # an object block writes as the same block with a short integer would
    marker = 987654321
    for fmt in ("csv", "json"):
        texts = [SquareMatrix(np.array([[x, 1], [1, -x]], dtype=object), "custom").write(
            io.StringIO(), fmt).getvalue() for x in (_HUGE, marker)]
        assert texts[0] == texts[1].replace(str(marker), _DIGITS), fmt


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


def test_info_gives_the_exact_zero_of_a_sparse_disconnected_graph(capsys, tmp_path):
    # a negative triangle plus a disjoint edge: 4 edges on 5 vertices, no
    # spanning 1-forest, so det L = 0
    path = tmp_path / "mixed.sg"
    path.write_text("5\n1 2 -\n2 3 -\n1 3 -\n4 5 +\n")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0 and '"closed_form_det": "0"' in out


def test_integer_weight_float64_cannot_hold_exits_2(capsys, tmp_path):
    path = tmp_path / "big.sg"
    path.write_text("3\n1 2 - 9007199254740993\n2 3 -\n1 3 -\n")
    code, out, err = run(capsys, "forests", str(path), "--kind", "contrabalanced")
    assert (code, out) == (2, "")
    assert err == "sdlap: line 2: integer weight 9007199254740993 is not a float64 value\n"


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
    import sdlap.balance
    from sdlap import SignedGraph, forest_det, generate, serialize

    g = generate("complete", 5, 0.5, seed=3)
    wg = SignedGraph(g.n, g.edges, tuple(0.1 * (i + 1) for i in range(10)))
    path = tmp_path / "k5.sg"
    path.write_text(serialize(wg))
    expected = forest_det(wg)
    census = sdlap.balance.forest_census
    enumerate_forests = sdlap.balance.enumerate_spanning_1forests
    for listed in (False, True):
        censuses, scans, built = [], [], []

        def counted_census(g, contrabalanced_only=False):
            censuses.append(contrabalanced_only)
            return census(g, contrabalanced_only)

        def counted_scan(g, contrabalanced_only=False):
            scans.append(contrabalanced_only)
            forests = enumerate_forests(g, contrabalanced_only)
            built.extend(forests)
            return forests

        monkeypatch.setattr(sdlap.balance, "forest_census", counted_census)
        monkeypatch.setattr(sdlap.balance, "enumerate_spanning_1forests", counted_scan)
        code, out, _ = run(capsys, "forests", str(path), "--kind", kind,
                           *(["--list"] if listed else []))
        # one census, and one search for --list only, of the kind asked for
        assert code == 0 and censuses == [kind == "contrabalanced"]
        assert scans == ([kind == "contrabalanced"] if listed else [])
        # the census counts the forests that --list lists
        obj = json.loads(out)
        assert len(built) == (obj["count"] if listed else 0)
        # float weights: the exact sum, rounded once
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
    import sdlap.verify
    from sdlap import SizeBoundError

    code, out, _ = run(capsys, "verify", "forest-theorem", "--n", "5")
    assert code == 0 and "skipped" not in out
    # Dense graphs on 9 to 11 vertices exceed a 2000-state cap.
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", 2000)
    code, out, _ = run(capsys, "verify", "forest-theorem", "--n", "11", "--format", "json")
    (report,) = json.loads(out)
    assert code == 0 and report["passed"] and report["instances"] == 200
    assert 0 < report["details"]["skipped"] < 200

    def refuse(g):
        raise SizeBoundError("refused")

    # trees never reach the cap, so every refusal is forced here
    monkeypatch.setattr(sdlap.verify, "forest_det", refuse)
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


# verify all --format json at the benchmark's small-exact verify seed:
# suite -> (instances, exact details, float details)
_VERIFY_ALL_AT_1530816428 = {
    "forest-theorem": (200, {"max_abs_difference": 0}, {}),
    "balance-equivalence": (500, {"balanced": 266, "unbalanced": 234},
                            {"min_eigenvalue": -7.985365840790237e-15}),
    "cospectrality": (100, {"max_deviation": 0}, {"min_eigenvalue": -5.923884158817033e-15}),
    "transmission-shift": (40, {}, {"max_deviation": 4.263256414560601e-14,
                                    "min_eigenvalue": -9.020562075079397e-15,
                                    "printed_formula_max_deviation": 42.34747589537596}),
    "incidence-factorization": (500, {}, {"max_deviation": 3.552713678800501e-15}),
}


def test_verify_all_json_is_pinned_at_one_seed(capsys):
    # a suite that drops a check or draws its random graphs differently
    # changes these counts or figures
    code, out, err = run(capsys, "verify", "all", "--seed", "1530816428", "--format", "json")
    assert code == 0 and err == ""
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == list(_VERIFY_ALL_AT_1530816428)
    for report in reports:
        instances, exact, floats = _VERIFY_ALL_AT_1530816428[report["suite"]]
        assert report["passed"] is True and report["failures"] == []
        assert report["instances"] == instances
        assert report["details"].keys() == exact.keys() | floats.keys()  # no "skipped"
        assert {k: report["details"][k] for k in exact} == exact
        for key, value in floats.items():
            assert report["details"][key] == pytest.approx(value, rel=0, abs=1e-9), key


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
    # the 20 cycles' tables come from one stacked BFS, and the four
    # Laplacians of each order's two cycles from one stacked eigensolve; the
    # one-graph routes are refused
    import sdlap.distance
    import sdlap.spectra
    import sdlap.verify

    tables, solves = [], []
    real_tables, real_eigenvalues = sdlap.verify._tables, sdlap.verify._eigenvalues

    def refused(*args, **kwargs):
        raise AssertionError("one-graph route called")

    monkeypatch.setattr(sdlap.verify, "_tables",
                        lambda gs: tables.append([g.n for g in gs]) or real_tables(gs))
    monkeypatch.setattr(sdlap.verify, "_eigenvalues",
                        lambda stack: solves.append(stack.shape) or real_eigenvalues(stack))
    monkeypatch.setattr(sdlap.distance, "distance_table", refused)
    monkeypatch.setattr(sdlap.spectra, "sym_eig", refused)
    report = sdlap.verify.transmission_shift_suite(n_max=12)
    assert report.passed and report.instances == 40
    assert tables == [[n for n in range(3, 13) for _ in range(2)]]
    assert solves == [(4, n, n) for n in range(3, 13)]


@pytest.mark.parametrize("suite, graphs_per_instance",
                         [("balance_equivalence_suite", 1), ("cospectrality_suite", 2),
                          ("transmission_shift_suite", 1)])
def test_stacked_suites_build_each_runs_tables_in_one_call(monkeypatch, suite,
                                                           graphs_per_instance):
    import sdlap.distance
    import sdlap.verify
    from sdlap.distance import DistanceTable, _tables, distance_table

    assert not hasattr(sdlap.verify, "distance_table") and not hasattr(sdlap.verify, "sym_eig")
    # the cycles of transmission-shift are fixed: a bound of 100 splits them
    sizes = {"n_max": 100} if suite == "transmission_shift_suite" else {
        "count": 60, "n_max": 70, "seed": 2}

    def run():
        return getattr(sdlap.verify, suite)(**sizes).to_json_obj()

    def one_by_one_tables(gs):
        tables = {}
        for g in gs:
            tables.setdefault(g.n, []).append(distance_table(g))
        return {n: DistanceTable(*(np.stack([getattr(t, a) for t in ts])
                                   for a in ("dist", "pos", "neg")))
                for n, ts in tables.items()}

    # the same report with one distance_table call per graph
    monkeypatch.setattr(sdlap.verify, "_tables", one_by_one_tables)
    one_by_one = run()
    orders, runs = [], []
    real_runs = sdlap.verify._runs

    def counted_runs(*args):
        for instances in real_runs(*args):
            runs.append(len(instances))
            yield instances

    def refused(g):
        raise AssertionError("distance_table called")

    monkeypatch.setattr(sdlap.verify, "_tables",
                        lambda gs: orders.append([g.n for g in gs]) or _tables(gs))
    monkeypatch.setattr(sdlap.verify, "_runs", counted_runs)
    monkeypatch.setattr(sdlap.distance, "distance_table", refused)
    report = run()
    assert report == one_by_one and report["passed"]
    assert len(runs) > 1 and [len(o) for o in orders] == [graphs_per_instance * k for k in runs]
    # a run mixes one-word and two-word frontier rows
    assert any(min(o) <= 64 < max(o) for o in orders)


def test_balance_equivalence_suite_checks_compatibility_once_per_order(monkeypatch):
    # each order's members are signed once per kind, and D^pm on the stack
    # of exactly the order's compatible members; is_compatible, which checks
    # one graph's table, is never called
    import sys

    import sdlap.verify

    def refused(table):
        raise AssertionError("is_compatible called")

    for name, module in list(sys.modules.items()):
        if name.startswith("sdlap") and hasattr(module, "is_compatible"):
            monkeypatch.setattr(module, "is_compatible", refused)
    real = sdlap.verify._signed
    signed, verdicts = {"max": [], "min": [], "pm": []}, []

    def counted(table, kind):
        signed[kind].append(len(table.dist))
        compatible = (~(table.pos & table.neg).any(axis=(1, 2))).tolist()
        if kind == "max":
            verdicts.extend(compatible)
        if kind == "pm":
            assert all(compatible)
        return real(table, kind)

    monkeypatch.setattr(sdlap.verify, "_signed", counted)
    report = sdlap.verify.balance_equivalence_suite(count=60)
    assert report.passed
    assert len(verdicts) == 60 and True in verdicts and False in verdicts
    assert len(signed["max"]) == len(signed["min"]) == 7 and signed["max"] == signed["min"]
    assert sum(signed["pm"]) == verdicts.count(True)


def _rebind_signed(monkeypatch, replace):
    """Make every module that binds distance._signed, the sign rule behind
    distance_matrix, call replace(real, table, kind) instead."""
    import sys

    from sdlap.distance import _signed

    def replaced(table, kind):
        return replace(_signed, table, kind)

    for name, module in list(sys.modules.items()):
        if name.startswith("sdlap") and hasattr(module, "_signed"):
            monkeypatch.setattr(module, "_signed", replaced)


def _drop_the_sign_rule(monkeypatch):
    """Make every module that binds the sign rule get unsigned distances."""
    _rebind_signed(monkeypatch, lambda real, table, kind: np.array(table.dist, dtype=np.int64))


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

    real = sdlap.verify._eigenvalues
    monkeypatch.setattr(sdlap.verify, "_eigenvalues", lambda stack: real(stack) - 1)
    report = sdlap.verify.run_suite(suite)
    assert not report.passed and report.details["min_eigenvalue"] < -0.9
    assert any("negative eigenvalue" in failure for failure in report.failures)


@pytest.mark.parametrize("column", [0, 1, -1])
@pytest.mark.parametrize("suite", ["balance-equivalence", "cospectrality",
                                   "transmission-shift"])
def test_spectral_suites_fail_on_a_nan_eigenvalue(monkeypatch, suite, column):
    # NaN compares false both ways, so a check written as "fail if worse"
    # passes it, and min or max over a NaN may drop it from the report; a
    # NaN extreme is reported as a NaN eigenvalue, never as a negative one
    import sdlap.verify

    real = sdlap.verify._eigenvalues

    def with_nan(stack):
        values = real(stack).copy()
        values[:, column] = np.nan
        return values

    monkeypatch.setattr(sdlap.verify, "_eigenvalues", with_nan)
    report = sdlap.verify.run_suite(suite)
    assert not report.passed
    # transmission-shift sees column 1 through its deviation from the closed
    # form; the others take each spectrum's extremes, which NaN makes NaN
    carried = ("max_deviation" if suite == "transmission-shift" and column == 1
               else "min_eigenvalue")
    assert np.isnan(report.details[carried])
    assert not any("negative eigenvalue" in failure for failure in report.failures)
    if carried == "min_eigenvalue":
        assert any(failure.endswith(": NaN eigenvalue") for failure in report.failures)


def test_balance_equivalence_fails_with_sigma_max_and_min_swapped(monkeypatch):
    # Balance and the spectra are symmetric in max and min, so only the
    # D^max >= D^min check sees D^max built by the sigma_min rule and D^min
    # by the sigma_max rule.
    from sdlap.verify import balance_equivalence_suite

    assert balance_equivalence_suite().passed
    _rebind_signed(monkeypatch, lambda real, table, kind: real(
        table, {"max": "min", "min": "max"}.get(kind, kind)))
    report = balance_equivalence_suite()
    assert not report.passed
    assert report.failures[0] == ("instance 13: D^max - D^min is not 2d on the pairs "
                                  "with shortest paths of both signs and 0 elsewhere")
    assert all("D^max - D^min" in failure for failure in report.failures)


def test_balance_equivalence_fails_when_lpm_is_not_lmax(monkeypatch):
    import numpy as np

    from sdlap.verify import balance_equivalence_suite

    def unsigned_pm(real, table, kind):
        d = real(table, kind)
        return np.abs(d) if kind == "pm" else d

    _rebind_signed(monkeypatch, unsigned_pm)
    report = balance_equivalence_suite(count=60)
    assert not report.passed
    assert any(failure.endswith(": L^pm != L^max on a compatible graph")
               for failure in report.failures)


def test_verify_all_solves_each_distinct_laplacian_once(monkeypatch):
    # At the benchmark's verify seed: forest-theorem takes 200 determinants;
    # balance-equivalence 500 for L^max and 127 for the L^min that differ
    # from it, L^pm being L^max on every compatible instance. Those 627
    # Laplacians and cospectrality's 100 are solved in 14 stacked calls, one
    # per order and suite; transmission-shift solves its 40 in 10 calls, one
    # per order of its cycles.
    import sdlap.verify

    calls = {"det_exact": 0, "_eigenvalues": 0}
    stacked = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            if fn.__name__ == "_eigenvalues":
                stacked.append(len(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sdlap.verify, name, counted(getattr(sdlap.verify, name)))
    assert all(r.passed for r in sdlap.verify.run_all(seed=1530816428))
    assert calls == {"det_exact": 827, "_eigenvalues": 24}
    assert sum(stacked) == 767


@pytest.mark.parametrize("injection", [None, "det-always-1", "eigenvalues-minus-1",
                                       "certificate-and-eigenvalues-minus-1"])
def test_stacked_checks_report_the_same_wherever_runs_end(monkeypatch, injection):
    # A run of stacked checks ends once its instances may test _CHUNK_ENTRIES
    # Laplacian entries; at the default sizes one run holds every instance.
    # Smaller bounds end runs amid instances of mixed orders, and a bound of
    # 1 makes every instance a run of its own. The last injection fails a
    # check of one instance at a time and a stacked check on each instance,
    # so it pins the order of the failures within an instance too.
    import sdlap.verify

    real = sdlap.verify._eigenvalues
    shift = 1 if injection in ("eigenvalues-minus-1", "certificate-and-eigenvalues-minus-1") else 0
    solves = []

    def counted(stack):
        solves.append(len(stack))
        return real(stack) - shift

    monkeypatch.setattr(sdlap.verify, "_eigenvalues", counted)
    if injection == "det-always-1":
        monkeypatch.setattr(sdlap.verify, "det_exact", lambda m: 1)
    if injection == "certificate-and-eigenvalues-minus-1":
        monkeypatch.setattr("sdlap.balance.BalanceReport.verify", lambda report, g: False)
    # transmission-shift at n_max = 100 splits its cycles into 19 runs at the
    # default bound too, with one solve per order of a run: 98 orders, 5 of
    # them split between two runs, and one solve per cycle at a bound of 1
    suites = (("balance-equivalence", None), ("cospectrality", None), ("transmission-shift", 100))
    expected = [sdlap.verify.run_suite(s, n).to_json_obj() for s, n in suites]
    assert len(solves) == 14 + 103 and expected[0]["passed"] == (injection is None)
    assert expected[2]["passed"] == (shift == 0)
    for bound in (1, 97, 2000):
        monkeypatch.setattr(sdlap.verify, "_CHUNK_ENTRIES", bound)
        solves.clear()
        assert [sdlap.verify.run_suite(s, n).to_json_obj() for s, n in suites] == expected
        assert len(solves) > 14 + 103 and (bound > 1 or len(solves) == 600 + 196)


@pytest.mark.parametrize("injection", [None, "forest-sum-plus-one", "incidence-doubled"])
def test_forest_and_incidence_checks_report_the_same_wherever_runs_end(monkeypatch, injection):
    # forest-theorem and incidence-factorization build the matrices of a run
    # in stacks, one per order; a bound of 1 makes every instance a run
    import sdlap.verify

    real = sdlap.verify._laplacian_stack
    stacked = []
    monkeypatch.setattr(sdlap.verify, "_laplacian_stack",
                        lambda graphs: stacked.append(len(graphs)) or real(graphs))
    if injection == "forest-sum-plus-one":
        monkeypatch.setattr(sdlap.verify, "forest_det", lambda g: forest_det(g) + 1)
    if injection == "incidence-doubled":
        monkeypatch.setattr(sdlap.verify, "_incidence_stack",
                            lambda graphs, ends: 2 * _incidence_stack(graphs, ends))
    suites = ("forest-theorem", "incidence-factorization")
    expected = [sdlap.verify.run_suite(s).to_json_obj() for s in suites]
    assert [r["passed"] for r in expected] == [injection != "forest-sum-plus-one",
                                               injection != "incidence-doubled"]
    checked = sum(stacked)  # the kept forest-theorem instances, then 500
    assert checked == 200 - expected[0]["details"].get("skipped", 0) + 500
    default = len(stacked)
    for bound in (1, 97, 2000):
        monkeypatch.setattr(sdlap.verify, "_CHUNK_ENTRIES", bound)
        stacked.clear()
        assert [sdlap.verify.run_suite(s).to_json_obj() for s in suites] == expected
        assert sum(stacked) == checked and len(stacked) > default
        assert bound > 1 or len(stacked) == checked


@pytest.fixture(scope="module")
def c200000(tmp_path_factory):
    from sdlap import serialize

    path = tmp_path_factory.mktemp("large") / "c200000.sg"
    path.write_text(serialize(generate("cycle", 200_000, "allneg")))
    return path


def _run_within_3_gib(*argv):
    """The CLI's process on argv in a child that may use at most 3 GiB of
    address space, and its wall time. One BLAS thread keeps numpy's own
    start-up far below that limit."""
    import os
    import resource
    import subprocess
    import sys
    import time

    limit = 3 * 2**30
    src = str(Path(__file__).resolve().parents[1] / "src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sdlap.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return proc, time.perf_counter() - start


def test_out_of_memory_ends_in_one_line_without_a_traceback(c200000):
    # the 9.31 GiB frontier of this cycle's distance table cannot be
    # allocated within the child's 3 GiB
    proc, _ = _run_within_3_gib("matrix", str(c200000), "--kind", "dmax")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("sdlap: out of memory: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_info_refuses_a_distance_pass_that_cannot_fit_before_building_it(c200000):
    # Without the size guard, the pass would build 200,000 ints of 200,000
    # bits for the unseen sources alone, and the child would run out of
    # memory after seconds instead.
    proc, seconds = _run_within_3_gib("info", str(c200000))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("sdlap: the distance pass on 200000 vertices needs about "
                           "15,000,000,000 bytes, more than the cap of 1,073,741,824\n")
    assert seconds < 30


def test_info_refuses_a_distance_pass_above_the_cap(capsys, monkeypatch, c4_one_negative):
    import sdlap.core

    # three 4-bit ints for each of 4 vertices: 3 * 4**2 // 8 = 6 bytes
    monkeypatch.setattr(sdlap.core, "MAX_SUMMARY_BYTES", 5)
    assert run(capsys, "info", c4_one_negative) == (
        1, "", "sdlap: the distance pass on 4 vertices needs about 6 bytes, "
               "more than the cap of 5\n")
    monkeypatch.setattr(sdlap.core, "MAX_SUMMARY_BYTES", 6)
    code, out, _ = run(capsys, "info", c4_one_negative)
    assert code == 0 and json.loads(out)["transmissions"] == [4, 4, 4, 4]


def test_a_memory_error_without_a_message_is_named(capsys, monkeypatch):
    import sdlap.cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(sdlap.cli, "_cmd_info", exhausted)
    code, out, err = run(capsys, "info", "nowhere.sg")
    assert (code, out, err) == (1, "", "sdlap: out of memory\n")


@pytest.mark.parametrize("suite, target, replacement, first, also", [
    ("forest-theorem", "sdlap.verify.forest_det", lambda g: forest_det(g) + 1,
     "instance 0: det 0 != forest sum 1", None),
    ("balance-equivalence", "sdlap.balance.BalanceReport.verify", lambda report, g: False,
     "instance 0: certificate failed to verify", None),
    ("balance-equivalence", "sdlap.verify.det_exact", lambda m: 1,
     "instance 0: verdicts (True, False, False, False) disagree "
     "(det_max=1, det_min=1, compatible=True)", None),
    ("balance-equivalence", "sdlap.verify.det_exact", lambda m: -1,
     "instance 0: verdicts (True, False, False, False) disagree "
     "(det_max=-1, det_min=-1, compatible=True)", "instance 0: negative determinant"),
    ("transmission-shift", "sdlap.verify.transmission", lambda table: transmission(table) + 1,
     "C3 allpos: transmissions [3] != 2", None),
    ("incidence-factorization", "sdlap.verify._incidence_stack",
     lambda graphs, ends: 2 * _incidence_stack(graphs, ends),
     "instance 0: factorization deviation 15", None),
], ids=["forest-sum-off-by-one", "certificate-rejected", "det-always-1", "det-always-minus-1",
        "transmission-off-by-one", "incidence-doubled"])
def test_suites_report_each_kind_of_failure(monkeypatch, suite, target, replacement,
                                            first, also):
    from sdlap.verify import run_suite

    monkeypatch.setattr(target, replacement)
    report = run_suite(suite)
    assert report.passed is False
    assert report.failures[0] == first
    assert also is None or also in report.failures
    # ten failures are kept, so the summary names the first and counts the rest
    assert report.summary().startswith(f"FAIL {suite}: ")
    assert report.summary().endswith(f"({first} and 9 more)")


def test_incidence_factorization_fails_a_nan_product_without_a_warning(monkeypatch):
    from sdlap.verify import incidence_factorization_suite

    calls = []

    def one_nan(graphs, ends):
        h = _incidence_stack(graphs, ends)
        if not calls:  # the first stack starts with the first instance
            h[0, 1, 0, 0] = np.nan  # one orientation of the first instance
        calls.extend(graphs)
        return h

    monkeypatch.setattr("sdlap.verify._incidence_stack", one_nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = incidence_factorization_suite(count=20, seed=1)
    assert report.passed is False
    assert len(calls) == 20
    assert report.failures == ["instance 0: factorization deviation nan"]
    assert np.isnan(report.details["max_deviation"])


def test_run_suite_rejects_an_unknown_name():
    from sdlap.verify import run_suite

    with pytest.raises(ValueError, match="unknown suite 'no-such-suite'"):
        run_suite("no-such-suite")


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


def test_file_with_a_byte_order_mark_reads_like_one_without(tmp_path, capsys):
    # Windows editors start UTF-8 text with a byte-order mark
    text = b"3\r\n1 2 +\r\n2 3 -\r\n1 3 +\r\n"
    plain, marked = tmp_path / "plain.sg", tmp_path / "marked.sg"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    for verb in ("info", "balance"):
        expected = run(capsys, verb, str(plain))
        assert expected[0] == 0
        assert run(capsys, verb, str(marked)) == expected, verb


def test_out_into_missing_directory_exits_2(tmp_path, capsys, c3_all_negative):
    target = tmp_path / "missing" / "out.json"
    for argv in (["info"], ["matrix", "--kind", "lmax", "--format", "csv"]):
        code, out, err = run(capsys, *argv, c3_all_negative, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"sdlap: cannot write {target}")
        assert "Traceback" not in err and not target.exists()


@pytest.mark.parametrize("argv", [
    ("info", "{g}"),
    ("matrix", "{g}", "--kind", "lmax"),
    ("matrix", "{g}", "--kind", "incidence", "--format", "csv"),
    *(("balance", "{g}", "--method", method)
      for method in ("switching", "det", "forest", "both")),
    ("spectrum", "{g}", "--kind", "lmin"),
    ("spectrum", "{g}", "--kind", "lmax", "--format", "csv"),
    ("forests", "{g}", "--list"),
    ("verify", "forest-theorem", "--n", "4"),
    ("verify", "transmission-shift", "--n", "6", "--format", "json"),
    ("gen", "random:8:p=0.4:seed=3"),
], ids=lambda argv: "-".join(a for a in argv if a != "{g}").replace("--", ""))
def test_out_gets_exactly_the_bytes_of_stdout(tmp_path, capsys, c4_one_negative, argv):
    argv = [a.format(g=c4_one_negative) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    target = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_failing_suite_still_writes_its_report(tmp_path, capsys, monkeypatch, fmt):
    import sdlap.verify

    def failing(n_max=12, seed=1):
        report = sdlap.verify.SuiteReport("transmission-shift", True, 1)
        report.record_failure("instance 0: rebound to fail")
        return report

    monkeypatch.setattr(sdlap.verify, "transmission_shift_suite", failing)
    argv = ["verify", "transmission-shift", "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert code == 1 and "instance 0: rebound to fail" in out and err == ""
    target = tmp_path / "report"
    assert run(capsys, *argv, "--out", str(target)) == (1, "", "")
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv, expected", [
    (("balance", "{disconnected}"), 1),
    (("matrix", "{g}", "--kind", "dpm"), 1),
    (("gen", "wheel:4"), 2),
], ids=["disconnected-balance", "incompatible-dpm", "bad-gen-spec"])
def test_a_failed_command_leaves_out_untouched(tmp_path, capsys, c4_one_negative, argv,
                                              expected):
    disconnected = tmp_path / "disconnected.sg"
    disconnected.write_text("4\n1 2 +\n3 4 -\n")
    argv = [a.format(g=c4_one_negative, disconnected=disconnected) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (expected, "") and err.startswith("sdlap: ")
    existing, missing = tmp_path / "existing", tmp_path / "missing"
    existing.write_bytes(b"kept\n")
    for target in (existing, missing):
        assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
    assert existing.read_bytes() == b"kept\n" and not missing.exists()


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
    code, out, err = run(capsys, "balance", str(path), "--method", "switching")
    assert (code, out) == (1, "") and "disconnected" in err
    with pytest.raises(DisconnectedGraphError):
        is_balanced_switching(parse_edge_list(path.read_text()))


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
