import io
import itertools
import json
import random

import numpy as np
import pytest

from sdlap import (
    IncompatibleGraphError,
    SignedGraph,
    adjacency_matrix,
    associated_complete,
    distance_laplacian,
    distance_table,
    generate,
    incidence_matrix,
    weighted_degree_matrix,
    weighted_laplacian,
)
from sdlap.matrices import SquareMatrix

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
    m = distance_laplacian(generate("cycle", 3, "allneg"), "pm")
    assert m.entries.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert m.exact and m.kind == "lpm"


def test_distance_laplacian_of_signed_path():
    m = distance_laplacian(generate("path", 3, "+-"), "pm")
    assert m.entries.tolist() == [[3, -1, 2], [-1, 2, 1], [2, 1, 3]]


def test_distance_laplacian_of_mixed_square():
    g = generate("cycle", 4, "+++-")
    lmax = distance_laplacian(g, "max")
    assert lmax.entries[0].tolist() == [4, -1, -2, 1]
    with pytest.raises(IncompatibleGraphError):
        distance_laplacian(g, "pm")


def test_distance_laplacian_bridge_to_associated_complete():
    rng = random.Random(31)
    for _ in range(30):
        g = random_connected_graph(rng, 2, 7)
        table = distance_table(g)
        for kind in ("max", "min"):
            direct = distance_laplacian(g, kind)
            completed = weighted_laplacian(associated_complete(g, table, kind))
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
        pm = distance_laplacian(g, "pm").entries
        assert np.array_equal(pm, distance_laplacian(g, "max").entries)
        assert np.array_equal(pm, distance_laplacian(g, "min").entries)


def test_matrices_are_symmetric_and_distance_laplacians_psd():
    rng = random.Random(41)
    for _ in range(40):
        g = random_connected_graph(rng, 2, 8)
        wg = random_weighted_graph(rng, 2, 8)
        for m in (
            adjacency_matrix(wg),
            weighted_degree_matrix(wg),
            weighted_laplacian(wg),
            distance_laplacian(g, "max"),
            distance_laplacian(g, "min"),
        ):
            assert np.array_equal(m.entries, m.entries.T)
        for kind in ("max", "min"):
            eigs = np.linalg.eigvalsh(
                distance_laplacian(g, kind).entries.astype(float)
            )
            assert eigs.min() >= -1e-9
        lap_eigs = np.linalg.eigvalsh(weighted_laplacian(wg).entries.astype(float))
        assert lap_eigs.min() >= -1e-9


# ---------------------------------------------------------------- exports


def test_square_matrix_exports():
    m = distance_laplacian(generate("cycle", 4, "+++-"), "max")
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


def test_incidence_export_includes_orientation():
    h = incidence_matrix(generate("path", 3, "+-"))
    obj = h.to_json_obj()
    assert obj["orientation"] == [[1, 2], [2, 3]]
    assert obj["n"] == 3 and obj["m"] == 2
    json.dumps(obj)


def test_square_matrix_requires_square_input():
    with pytest.raises(ValueError, match="square"):
        SquareMatrix(np.zeros((2, 3)))


def test_square_matrix_entries_are_read_only():
    m = adjacency_matrix(generate("cycle", 3, "allneg"))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5
