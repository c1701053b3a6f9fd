import io
import itertools
import json
import math
import random

import numpy as np
import pytest

from sdlap import (
    IncompatibleGraphError,
    SignedGraph,
    adjacency_matrix,
    associated_complete,
    distance_laplacian,
    distance_matrix,
    distance_table,
    generate,
    incidence_matrix,
    weighted_degree_matrix,
    weighted_laplacian,
)
from sdlap.matrices import (
    IncidenceMatrix,
    SquareMatrix,
    _incidence_stack,
    _laplacian_stack,
    _write_tokens,
)

from conftest import (
    classic_laplacian,
    oracle_matrix_csv,
    oracle_matrix_json,
    random_connected_graph,
    random_weighted_graph,
)


def weighted_negative_triangle():
    g = generate("cycle", 3, "allneg")
    return SignedGraph(g.n, g.edges, (2.0, 3.0, 5.0))


# ---------------------------------------------------------------- builders


def test_adjacency_of_all_negative_triangle():
    m = adjacency_matrix(generate("cycle", 3, "allneg"))
    assert m.entries.tolist() == [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]
    assert m.exact


def test_adjacency_of_weighted_negative_edge():
    wg = SignedGraph(2, ((0, 1, -1),), (3.0,))
    assert adjacency_matrix(wg).entries.tolist() == [[0, -3], [-3, 0]]


def test_adjacency_of_empty_graph_is_zero():
    m = adjacency_matrix(SignedGraph(2, ()))
    assert m.entries.tolist() == [[0, 0], [0, 0]]


def test_degree_matrix_examples():
    tri = weighted_degree_matrix(generate("cycle", 3, "allneg"))
    assert tri.entries.tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    star = SignedGraph(4, ((0, 1, 1), (0, 2, -1), (0, 3, 1)))
    assert np.diagonal(weighted_degree_matrix(star).entries).tolist() == [3, 1, 1, 1]
    halves = SignedGraph(2, ((0, 1, 1),), (2.5,))
    m = weighted_degree_matrix(halves)
    assert m.entries.tolist() == [[2.5, 0.0], [0.0, 2.5]]
    assert not m.exact


@pytest.mark.parametrize("builder", [adjacency_matrix, weighted_degree_matrix,
                                     weighted_laplacian])
def test_integer_builders_reject_weight_sums_beyond_int64(builder):
    triangle = generate("cycle", 3, "allpos")
    wrapping = SignedGraph(triangle.n, triangle.edges, (5e18, 5e18, 1.0))
    with pytest.raises(ValueError, match="vertex index 1"):
        builder(wrapping)
    with pytest.raises(ValueError, match="64-bit"):
        builder(SignedGraph(triangle.n, triangle.edges, (2.0 ** 63, 1.0, 1.0)))
    below = 2 ** 63 - 1024  # the largest float below 2**63
    m = builder(SignedGraph(2, ((0, 1, -1),), (float(below),)))
    assert m.exact and int(np.abs(m.entries).max()) == below


def test_laplacian_examples():
    tri = weighted_laplacian(generate("cycle", 3, "allneg"))
    assert tri.entries.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    k2 = weighted_laplacian(generate("path", 2, "allpos"))
    assert k2.entries.tolist() == [[1, -1], [-1, 1]]
    w = weighted_laplacian(weighted_negative_triangle())
    assert np.diagonal(w.entries).tolist() == [7, 5, 8]
    assert w.entries[0].tolist() == [7, 2, 5]


def test_weighted_laplacian_sums_the_weights_once(monkeypatch):
    import sdlap.matrices

    calls = []
    real = sdlap.matrices._weight_values
    monkeypatch.setattr(sdlap.matrices, "_weight_values",
                        lambda g: calls.append(g) or real(g))
    g = weighted_negative_triangle()
    lap = weighted_laplacian(g)
    assert len(calls) == 1
    expected = weighted_degree_matrix(g).entries - adjacency_matrix(g).entries
    assert lap.entries.dtype == expected.dtype
    assert np.array_equal(lap.entries, expected)


def graphs_of_order_six(rng, weight):
    """Graphs of order 6 with from 0 to 15 edges, each weight drawn by weight(rng)."""
    shapes = [SignedGraph(6, ()), generate("path", 6, "allneg"),
              generate("complete", 6, 0.5, seed=4)]
    shapes += [generate("random", 6, seed=rng.getrandbits(32), p=p) for p in (0.3, 0.6, 0.9)]
    return [SignedGraph(g.n, g.edges, tuple(weight(rng) for _ in range(g.m))) for g in shapes]


@pytest.mark.parametrize("weights, dtype", [
    (lambda rng: float(rng.randint(1, 9)), np.int64),
    (lambda rng: rng.choice((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 2.5)), np.float64),
], ids=["integral", "integral-and-not"])
def test_laplacian_stack_holds_each_graphs_weighted_laplacian(weights, dtype):
    graphs = graphs_of_order_six(random.Random(31), weights)
    assert len({g.m for g in graphs}) >= 4  # mixed m, 0 and 15 among them
    assert any(g.integer_weights for g in graphs[1:])  # with edges, in both stacks
    stack = _laplacian_stack(graphs)
    assert stack.shape == (len(graphs), 6, 6) and stack.dtype == dtype
    for g, lap in zip(graphs, stack):
        single = weighted_laplacian(g).entries
        assert np.array_equal(lap, single)
        assert single.dtype == (np.int64 if g.integer_weights else np.float64)


@pytest.mark.parametrize("bad, message", [
    ((5e18, 5e18, 1.0), "weight sum 10000000000000000000 at vertex index 1 does not fit "
                        "in a 64-bit integer matrix"),
    ((1e308, 1e308, 0.5), "weight sum at vertex index 1 overflows a 64-bit float"),
], ids=["int64", "float"])
def test_laplacian_stack_refuses_a_graph_in_its_middle_as_alone(bad, message):
    triangle = generate("cycle", 3, "allpos")
    ok = SignedGraph(3, triangle.edges, (1.0, 2.0, 3.0))
    wrapping = SignedGraph(3, triangle.edges, bad)
    for build in (lambda: _laplacian_stack([ok, wrapping, ok]),
                  lambda: weighted_laplacian(wrapping)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_incidence_stack_holds_each_orientations_incidence_matrix():
    rng = random.Random(37)
    graphs = graphs_of_order_six(rng, lambda rng: float(rng.randint(1, 9)))
    orientations = [[tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v, _ in g.edges)
                     for _ in range(3)] for g in graphs]
    h = _incidence_stack(graphs, orientations)
    assert h.shape == (len(graphs), 3, 6, 15)
    for g, layers, stacked in zip(graphs, orientations, h):
        for orientation, block in zip(layers, stacked):
            assert np.array_equal(block[:, :g.m], incidence_matrix(g, orientation).entries)
            assert not block[:, g.m:].any()


def test_laplacian_row_sums_count_negative_weight():
    rng = random.Random(17)
    for _ in range(30):
        wg = random_weighted_graph(rng, 2, 7)
        lap = weighted_laplacian(wg).entries
        expected = [0.0] * wg.n
        for (u, v, s), w in zip(wg.edges, wg.weights):
            expected[u] += w * (1 - s)
            expected[v] += w * (1 - s)
        assert np.allclose(lap.sum(axis=1), expected)


def test_all_positive_laplacian_matches_textbook_construction():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = generate("random", n, signs="allpos", seed=rng.getrandbits(32), p=0.7)
        weights = tuple(float(rng.randint(1, 6)) for _ in range(g.m))
        wg = SignedGraph(g.n, g.edges, weights)
        expected = classic_laplacian(n, [(u, v, w) for (u, v, _), w in zip(g.edges, weights)])
        assert np.array_equal(weighted_laplacian(wg).entries, np.array(expected))


# ---------------------------------------------------------------- incidence


def test_incidence_columns():
    pos = SignedGraph(2, ((0, 1, 1),), (4.0,))
    assert incidence_matrix(pos).entries[:, 0].tolist() == [2.0, -2.0]
    neg = SignedGraph(2, ((0, 1, -1),), (1.0,))
    assert incidence_matrix(neg).entries[:, 0].tolist() == [-1.0, -1.0]


@pytest.mark.parametrize("sign", [1, -1])
def test_flipping_an_edge_negates_its_column_only_when_positive(sign):
    # the flipped edge (1, 2) has weight 9, so its column holds +-3
    g = SignedGraph(3, ((0, 1, -1), (1, 2, sign), (0, 2, 1)), (4.0, 9.0, 1.0))
    h = incidence_matrix(g, ((0, 1), (1, 2), (0, 2))).entries
    flipped = incidence_matrix(g, ((0, 1), (2, 1), (0, 2))).entries
    assert h[:, 1].tolist() == [0.0, 3.0 * sign, -3.0]
    assert flipped[:, 1].tolist() == (-h[:, 1] if sign > 0 else h[:, 1]).tolist()
    assert np.array_equal(flipped[:, [0, 2]], h[:, [0, 2]])
    assert np.array_equal(flipped @ flipped.T, h @ h.T)


def test_incidence_determinant_of_all_negative_triangle():
    h = incidence_matrix(generate("cycle", 3, "allneg"))
    assert h.orientation == ((0, 1), (1, 2), (0, 2))
    assert np.linalg.det(h.entries) == pytest.approx(-2.0)


def test_incidence_rejects_mismatched_orientation():
    g = generate("path", 3, "allpos")
    with pytest.raises(ValueError, match="does not match edge"):
        incidence_matrix(g, ((0, 1), (0, 2)))
    with pytest.raises(ValueError, match="orientation pairs"):
        incidence_matrix(g, ((0, 1),))
    for bad in (((0, 1), (1, 1.9)), ((0.0, 1), (1, 2))):
        with pytest.raises(ValueError, match="non-integer vertex index"):
            incidence_matrix(g, bad)
    h = incidence_matrix(g, ((np.int64(1), np.int64(0)), (1, 2)))
    assert h.orientation == ((1, 0), (1, 2))
    assert all(type(x) is int for pair in h.orientation for x in pair)


@pytest.mark.parametrize("entries, orientation, message", [
    (np.array([[10 ** 5000], [0]], dtype=object), [(0, 1)],
     "matrix entries must fit in a 64-bit float: int too large to convert to float"),
    (np.zeros(3), [], "incidence matrix must be 2-D, got shape (3,)"),
    (np.zeros((2, 3)), [(0, 1)], "1 orientation pairs for 3 columns"),
    (np.zeros((2, 1)), [(0, 1, 2)], "orientation needs pairs of integer vertex indices: "
     "too many values to unpack (expected 2)"),
    (np.zeros((2, 1)), [(0, 1.0)], "orientation needs pairs of integer vertex indices: "
     "'float' object cannot be interpreted as an integer"),
    (np.zeros((2, 1)), [(0, 2)], "orientation pair (0, 2) is not in vertex indices 0..1"),
    (np.zeros((2, 1)), [(-1, 0)], "orientation pair (-1, 0) is not in vertex indices 0..1"),
], ids=["huge-int", "1-D", "too-few-pairs", "triple", "float-index", "past-n", "negative"])
def test_incidence_matrix_refuses_what_it_cannot_describe(entries, orientation, message):
    # these raised OverflowError, built a matrix whose .m raised IndexError,
    # wrote "m": 3 beside one orientation pair, or failed only when written
    with pytest.raises(ValueError) as err:
        IncidenceMatrix(entries, orientation)
    assert str(err.value) == message


def test_incidence_matrix_stores_orientation_indices_as_python_ints():
    h = IncidenceMatrix(np.zeros((3, 2)), np.array([[0, 2], [2, 1]]))
    assert h.orientation == ((0, 2), (2, 1))
    assert all(type(x) is int for pair in h.orientation for x in pair)


def test_every_orientation_factorizes_the_laplacian():
    g = generate("cycle", 4, "+-+-")
    wg = SignedGraph(g.n, g.edges, (1.0, 2.0, 3.0, 4.0))
    lap = weighted_laplacian(wg).entries
    for flips in itertools.product((False, True), repeat=wg.m):
        orientation = tuple(
            (v, u) if flip else (u, v)
            for (u, v, _), flip in zip(wg.edges, flips)
        )
        h = incidence_matrix(wg, orientation).entries
        assert np.allclose(h @ h.T, lap, atol=1e-12)


def test_random_incidence_factorization_is_exact_for_integer_weights():
    rng = random.Random(29)
    for _ in range(40):
        wg = random_weighted_graph(rng, 2, 7)
        lap = weighted_laplacian(wg).entries
        orientation = tuple(
            (u, v) if rng.random() < 0.5 else (v, u) for u, v, _ in wg.edges
        )
        h = incidence_matrix(wg, orientation).entries
        product = h @ h.T
        assert np.abs(product - lap).max() < 1e-9
        assert np.array_equal(np.rint(product).astype(np.int64), lap)


# ---------------------------------------------------------------- distance Laplacians


def test_distance_laplacian_of_all_negative_triangle():
    m = distance_laplacian(distance_table(generate("cycle", 3, "allneg")), "pm")
    assert m.entries.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert m.exact and m.kind == "lpm"


def test_distance_laplacian_of_signed_path():
    m = distance_laplacian(distance_table(generate("path", 3, "+-")), "pm")
    assert m.entries.tolist() == [[3, -1, 2], [-1, 2, 1], [2, 1, 3]]


def test_distance_laplacian_of_mixed_square():
    g = generate("cycle", 4, "+++-")
    lmax = distance_laplacian(distance_table(g), "max")
    assert lmax.entries[0].tolist() == [4, -1, -2, 1]
    with pytest.raises(IncompatibleGraphError):
        distance_laplacian(distance_table(g), "pm")


def test_distance_laplacian_bridge_to_associated_complete():
    rng = random.Random(31)
    for _ in range(30):
        g = random_connected_graph(rng, 2, 7)
        table = distance_table(g)
        for kind in ("max", "min"):
            direct = distance_laplacian(distance_table(g), kind)
            completed = weighted_laplacian(associated_complete(table, kind))
            assert np.array_equal(direct.entries, completed.entries)


def test_pm_matches_max_and_min_on_compatible_graphs():
    rng = random.Random(37)
    seen = 0
    while seen < 15:
        g = random_connected_graph(rng, 2, 7)
        from sdlap import is_compatible

        if not is_compatible(distance_table(g))[0]:
            continue
        seen += 1
        pm = distance_laplacian(distance_table(g), "pm").entries
        assert np.array_equal(pm, distance_laplacian(distance_table(g), "max").entries)
        assert np.array_equal(pm, distance_laplacian(distance_table(g), "min").entries)


def test_matrices_are_symmetric_and_distance_laplacians_psd():
    rng = random.Random(41)
    for _ in range(40):
        g = random_connected_graph(rng, 2, 8)
        wg = random_weighted_graph(rng, 2, 8)
        for m in (
            adjacency_matrix(wg),
            weighted_degree_matrix(wg),
            weighted_laplacian(wg),
            distance_laplacian(distance_table(g), "max"),
            distance_laplacian(distance_table(g), "min"),
        ):
            assert np.array_equal(m.entries, m.entries.T)
        for kind in ("max", "min"):
            eigs = np.linalg.eigvalsh(
                distance_laplacian(distance_table(g), kind).entries.astype(float)
            )
            assert eigs.min() >= -1e-9
        lap_eigs = np.linalg.eigvalsh(weighted_laplacian(wg).entries.astype(float))
        assert lap_eigs.min() >= -1e-9


# ---------------------------------------------------------------- exports


def test_square_matrix_exports():
    m = distance_laplacian(distance_table(generate("cycle", 4, "+++-")), "max")
    assert m.to_csv().splitlines()[0] == "4,-1,-2,1"
    obj = m.to_json_obj()
    assert obj == {"n": 4, "kind": "lmax", "rows": m.entries.tolist()}
    json.dumps(obj)


def test_square_matrix_exports_nan_and_infinities_like_json_dumps():
    # no builder yields these entries, but a caller-built matrix may hold them
    m = SquareMatrix(np.array([[np.nan, np.inf, 1.5], [-np.inf, 0.0, -2.0],
                               [1e308, np.nan, -np.inf]]), "custom")
    assert m.write(io.StringIO(), "json").getvalue() == oracle_matrix_json(m)
    assert m.to_csv() == oracle_matrix_csv(m.entries)
    assert m.to_csv().splitlines()[0] == "nan,inf,1.5"


def test_square_matrix_writes_bools_as_json_literals():
    m = SquareMatrix(np.array([[True, False], [False, True]]), "custom")
    text = m.write(io.StringIO(), "json").getvalue()
    assert json.loads(text)["rows"] == [[True, False], [False, True]]
    assert text == oracle_matrix_json(m)
    assert m.write(io.StringIO(), "csv").getvalue() == "1,0\n0,1\n"


# Entry bounds for the chunks of the writer's table route: None keeps the
# default. A bound of 1 writes one row per chunk; at 7 a 3 x 3 block goes
# out as two rows and then one, and an m x 2 block three rows at a time.
CHUNK_BOUNDS = (None, 1, 7)


def _both_formats(matrix):
    return (matrix.write(io.StringIO(), "json").getvalue(),
            matrix.write(io.StringIO(), "csv").getvalue())


_INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("entries", [
    np.zeros((0, 0), dtype=np.int64),
    np.array([[7]]),
    np.array([[-3, -1, -7], [-1, -2, -1], [-7, -1, -3]]),
    # the span overflows int64, so every entry is formatted on its own
    np.array([[_INT64.min, 0], [0, _INT64.max]]),
    np.array([[5, -70000, 5], [-70000, 12, 0], [5, 0, 5]], dtype=np.int32),
    np.array([[0, 255, 3], [255, 3, 3], [3, 3, 0]], dtype=np.uint8),
    # every int8 value once: value - min wraps in int8
    np.arange(-128, 128, dtype=np.int8).reshape(16, 16),
    np.array([[2**64 - 1, 2**64 - 2], [2**64 - 2, 2**64 - 1]], dtype=np.uint64),
    # Python ints that fit neither int64 nor uint64, of both signs
    np.array([[2**70, 1], [1, 3]], dtype=object),
    np.array([[-2**64 - 1, 2**64], [-(3**50), 0]], dtype=object),
    # numpy scalars, which json.dumps cannot encode, among Python ints
    np.array([[np.int64(2), 1], [1, 3]], dtype=object),
    np.array([[np.uint64(2**64 - 1), np.int8(-7)], [np.int8(-7), 2**70]], dtype=object),
    # each of 3600 values once, shuffled: the span is the size, and every
    # chunk holds values no earlier chunk held
    (np.random.default_rng(5).permutation(3600) - 1000).astype(np.int16).reshape(60, 60),
    # blocks whose tokens repeat, so that they take the table route: every
    # int8 value 16 times, where value - min wraps in int8, and the top two
    # uint64 values
    np.random.default_rng(6).permutation(np.arange(-128, 128).repeat(16)).astype(
        np.int8).reshape(64, 64),
    np.where(np.eye(8, dtype=bool), 2**64 - 2, 2**64 - 1).astype(np.uint64),
], ids=["0x0", "1x1", "negative", "int64-min-and-max", "int32", "uint8", "int8-all",
        "uint64-top", "object-past-uint64", "object-both-signs", "object-numpy-int64",
        "object-numpy-mixed", "span-equals-size", "int8-repeated", "uint64-top-repeated"])
def test_square_matrix_writes_integer_blocks_like_the_oracle(monkeypatch, entries):
    m = SquareMatrix(entries, "custom")
    expected = oracle_matrix_json(m), oracle_matrix_csv(m.entries)
    for bound in CHUNK_BOUNDS:
        if bound is not None:
            monkeypatch.setattr("sdlap.matrices._CHUNK_ENTRIES", bound)
        assert _both_formats(m) == expected, bound



@pytest.mark.parametrize("entries", [
    np.array([[-0.0, 0.0], [0.0, -0.0]]),
    np.array([[0.1, -2.5], [1 / 3, 7.0]], dtype=np.float32),
    np.array([[0.1, -2.5], [65504.0, 6e-8]], dtype=np.float16),
    # the least subnormal, one of the largest and the least normal
    np.array([[5e-324, -1e-310], [2.2250738585072014e-308, -5e-324]]),
    np.array([[1e308, -1e308], [1.7976931348623157e308, 1e-308]]),
    np.zeros((0, 0)),
    np.zeros((3, 0)),
], ids=["negative-zero", "float32", "float16", "subnormal", "1e308", "0x0", "3x0"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_blocks_write_like_the_oracle_at_every_chunk_bound(monkeypatch, entries, fmt):
    # an n x 0 block is an incidence matrix without edges
    m = (SquareMatrix(entries, "custom") if entries.shape[0] == entries.shape[1]
         else IncidenceMatrix(entries, []))
    expected = oracle_matrix_json(m) if fmt == "json" else oracle_matrix_csv(m.entries)
    for bound in CHUNK_BOUNDS:
        if bound is not None:
            monkeypatch.setattr("sdlap.matrices._CHUNK_ENTRIES", bound)
        assert m.write(io.StringIO(), fmt).getvalue() == expected, bound

def test_large_distance_matrices_write_like_the_oracle_at_every_chunk_bound(monkeypatch):
    # 3000 entries are three rows of 1000, so the last chunk holds row 999 alone
    table = distance_table(generate("random", 1000, 0.5, seed=11, p=0.008))
    for m in (distance_laplacian(table, "min"), distance_matrix(table, "max")):
        expected = oracle_matrix_json(m), oracle_matrix_csv(m.entries)
        for bound in CHUNK_BOUNDS + (3000,):
            if bound is not None:
                monkeypatch.setattr("sdlap.matrices._CHUNK_ENTRIES", bound)
            assert _both_formats(m) == expected, (m.kind, bound)


@pytest.mark.parametrize("n", [14, 13], ids=["last-chunk-one-row", "whole-chunks"])
def test_incidence_orientation_block_writes_like_the_oracle_at_every_chunk_bound(
        monkeypatch, n):
    # K_n's orientation block has n(n - 1)/2 rows of two values in 1..n,
    # 91 or 78 rows, so it takes the table route, three rows a chunk at a
    # bound of 7; its float rows go entry by entry
    h = incidence_matrix(generate("complete", n, 0.5, seed=n))
    for bound in CHUNK_BOUNDS:
        if bound is not None:
            monkeypatch.setattr("sdlap.matrices._CHUNK_ENTRIES", bound)
        assert h.write(io.StringIO(), "json").getvalue() == oracle_matrix_json(h), bound


def test_table_route_is_taken_only_where_tokens_repeat(monkeypatch):
    routes = []
    monkeypatch.setattr("sdlap.matrices._write_tokens",
                        lambda *args: routes.append(_write_tokens(*args)) or routes[-1])
    # 490,000 distinct values, shuffled: the span is the size, but each
    # entry has a token of its own, so every entry is formatted on its own
    distinct = SquareMatrix(np.random.default_rng(7).permutation(700 * 700).reshape(700, 700),
                            "custom")
    assert _both_formats(distinct) == (oracle_matrix_json(distinct),
                                       oracle_matrix_csv(distinct.entries))
    assert routes == [False, False]
    # the L^min of a 1000-vertex graph holds a few hundred distinct values
    routes.clear()
    table = distance_table(generate("random", 1000, 0.5, seed=11, p=0.008))
    _both_formats(distance_laplacian(table, "min"))
    assert routes == [True, True]


class _Pieces(io.StringIO):
    """A text file that keeps each piece it is handed."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


# Each entry's text ends in exactly one of these marks, which no header
# or trailer holds: a CSV entry in a comma or a row end, a JSON entry in
# its separator or in a closing bracket on a line of its own.
ENTRY_ENDS = {"csv": (",", "\n"), "json": (",\n      ", "\n    ]")}


@pytest.mark.parametrize("fmt", sorted(ENTRY_ENDS))
@pytest.mark.parametrize("bound, rows_per_chunk", [(1, 1), (7, 1), (20, 2), (64, 6)])
def test_no_write_holds_more_than_one_chunk(monkeypatch, fmt, bound, rows_per_chunk):
    # 10 x 10 entries in 0..6: the table route, at most bound // 10 rows a chunk
    monkeypatch.setattr("sdlap.matrices._CHUNK_ENTRIES", bound)
    m = SquareMatrix(np.arange(100).reshape(10, 10) % 7, "custom")
    out = _Pieces()
    m.write(out, fmt)
    assert out.getvalue() == (oracle_matrix_json(m) if fmt == "json"
                              else oracle_matrix_csv(m.entries))
    entries = [sum(map(piece.count, ENTRY_ENDS[fmt])) for piece in out.pieces]
    chunks = [count for count in entries if count]
    assert max(chunks) <= 10 * rows_per_chunk
    assert len(chunks) == -(-10 // rows_per_chunk) and sum(chunks) == 100


def test_object_block_of_numpy_scalars_writes_like_python_numbers():
    m = SquareMatrix(np.array([[np.int64(2), 1], [1, 3]], dtype=object), "custom")
    assert json.loads(m.write(io.StringIO(), "json").getvalue())["rows"] == [[2, 1], [1, 3]]
    assert m.write(io.StringIO(), "csv").getvalue() == "2,1\n1,3\n"
    floats = SquareMatrix(np.array([[np.float64(0.1), np.float32(1.5)],
                                    [np.float16(np.inf), 2]], dtype=object), "custom")
    text = floats.write(io.StringIO(), "json").getvalue()
    assert text == oracle_matrix_json(floats)
    assert json.loads(text)["rows"] == [[0.1, 1.5], [math.inf, 2]]


def test_incidence_export_includes_orientation():
    h = incidence_matrix(generate("path", 3, "+-"))
    text = h.write(io.StringIO(), "json").getvalue()
    obj = json.loads(text)
    assert obj["orientation"] == [[1, 2], [2, 3]]
    assert obj["n"] == 3 and obj["m"] == 2 and obj["kind"] == "incidence"
    assert text == oracle_matrix_json(h)


@pytest.mark.parametrize("fmt", ["CSV", "Json", "xml", "", "csv "])
def test_writers_refuse_a_format_other_than_csv_or_json(fmt):
    # a misspelt format must fail, not print JSON the caller did not ask for
    g = generate("path", 3, "+-")
    for matrix in (weighted_laplacian(g), incidence_matrix(g)):
        out = io.StringIO()
        with pytest.raises(ValueError) as err:
            matrix.write(out, fmt)
        assert str(err.value) == f"unknown matrix format {fmt!r}, expected 'csv' or 'json'"
        assert out.getvalue() == ""


def test_square_matrix_requires_square_input():
    with pytest.raises(ValueError, match="square"):
        SquareMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("entries", [
    np.array([[1 + 2j, 0], [0, 1]]),
    [[1 + 2j, 0], [0, 1]],
    np.array([["1", "0"], ["0", "1"]]),
    np.array([["2020-01-01"] * 2] * 2, dtype="datetime64[D]"),
], ids=["complex", "complex-list", "string", "datetime"])
def test_matrix_types_refuse_entries_that_are_not_real_numbers(entries):
    # complex entries printed JSON that json.loads rejects, and the incidence
    # matrix dropped their imaginary part; strings and dates were kept
    dtype = np.asarray(entries).dtype
    for make in (SquareMatrix, lambda e: IncidenceMatrix(e, [(0, 1), (0, 1)])):
        with pytest.raises(ValueError) as err:
            make(entries)
        assert str(err.value) == f"matrix entries must be real numbers, got dtype {dtype}"



@pytest.mark.parametrize("entries, message", [
    (np.array([[None]], dtype=object), "must be real numbers, got None in an object array"),
    (np.array([[1j, 0], [0, 1]], dtype=object),
     "must be real numbers, got 1j in an object array"),
    (np.array([[1, "a"], ["a", 1]], dtype=object),
     "must be real numbers, got 'a' in an object array"),
    (np.full((2, 2), 0.1, dtype=np.longdouble),
     f"must be at most 64 bits wide, got dtype {np.dtype(np.longdouble)}"),
    (np.array([[2, np.longdouble(2)], [1, 1]], dtype=object),
     "must be at most 64 bits wide, got np.longdouble('2.0') in an object array"),
], ids=["none", "complex", "string", "longdouble", "longdouble-object"])
def test_matrix_types_refuse_entries_that_they_cannot_write(entries, message):
    # these wrote JSON null, np.longdouble(...) text that json.loads rejects,
    # or failed only when written
    for make in (SquareMatrix, lambda e: IncidenceMatrix(e, [(0, 1), (0, 1)])):
        with pytest.raises(ValueError) as err:
            make(entries)
        assert str(err.value) == f"matrix entries {message}"

def test_square_matrix_entries_are_read_only():
    m = adjacency_matrix(generate("cycle", 3, "allneg"))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5


def test_square_matrix_follows_the_array_protocol():
    source = np.array([[2, -1], [-1, 2]])
    m = SquareMatrix(source, "laplacian")
    assert not np.shares_memory(m.entries, source)
    view = np.asarray(m)
    assert np.shares_memory(view, m.entries) and not view.flags.writeable
    copy = np.array(m)
    assert not np.shares_memory(copy, m.entries) and copy.flags.writeable
    copy[0, 0] = 5
    assert m.entries[0, 0] == 2
    floats = np.asarray(m, dtype=float)
    assert floats.dtype == np.float64 and floats.tolist() == [[2.0, -1.0], [-1.0, 2.0]]
    assert np.shares_memory(np.array(m, copy=False), m.entries)
    with pytest.raises(ValueError, match="copy"):
        np.array(m, dtype=float, copy=False)
