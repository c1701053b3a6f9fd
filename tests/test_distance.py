import random

import numpy as np
import pytest

from sdlap import (
    DisconnectedGraphError,
    DistanceTable,
    IncompatibleGraphError,
    SignedGraph,
    associated_complete,
    distance_matrix,
    distance_table,
    generate,
    is_compatible,
    switch,
    transmission,
)

from conftest import all_signed_graphs, brute_table, random_connected_graph, sssp_signs


def c4_one_negative():
    # signs 12:+, 23:+, 34:+, 41:-
    return generate("cycle", 4, "+++-")


def entries(table):
    """The table as rows of (d, exists_pos, exists_neg) tuples."""
    return [list(zip(*row))
            for row in zip(table.dist.tolist(), table.pos.tolist(), table.neg.tolist())]


# ---------------------------------------------------------------- sssp


def test_sssp_on_all_negative_triangle():
    g = generate("cycle", 3, "allneg")
    row = sssp_signs(g, 0)
    assert row == [(0, True, False), (1, False, True), (1, False, True)]


def test_sssp_sees_both_signs_on_mixed_square():
    row = sssp_signs(c4_one_negative(), 0)
    assert row[2] == (2, True, True)


def test_sssp_on_positive_path():
    g = generate("path", 3, "allpos")
    assert sssp_signs(g, 0)[2] == (2, True, False)


def test_sssp_rejects_disconnected_graphs():
    g = SignedGraph(3, ((0, 1, 1),))
    with pytest.raises(DisconnectedGraphError) as err:
        sssp_signs(g, 0)
    assert err.value.vertex == 2


def test_sssp_validates_source():
    g = generate("path", 2, "allpos")
    with pytest.raises(ValueError, match="source"):
        sssp_signs(g, 5)


# ---------------------------------------------------------------- table


def test_table_of_all_negative_triangle():
    rows = entries(distance_table(generate("cycle", 3, "allneg")))
    for u in range(3):
        for v in range(3):
            if u != v:
                assert rows[u][v] == (1, False, True)


def test_table_antipodal_pairs_of_mixed_square():
    table = distance_table(c4_one_negative())
    both = {
        (u, v)
        for u in range(4)
        for v in range(4)
        if table.pos[u, v] and table.neg[u, v]
    }
    assert both == {(0, 2), (2, 0), (1, 3), (3, 1)}


def test_table_of_single_positive_edge():
    table = distance_table(generate("path", 2, "allpos"))
    assert entries(table)[0][1] == (1, True, False)


def test_tables_match_brute_force_enumeration_exhaustively():
    for n in range(1, 5):
        for g in all_signed_graphs(n):
            assert entries(distance_table(g)) == brute_table(g), g


def test_tables_match_brute_force_enumeration_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(150):
        g = random_connected_graph(rng, 5, 6)
        assert entries(distance_table(g)) == brute_table(g), g


def test_table_symmetry_and_triangle_inequality():
    rng = random.Random(5)
    for _ in range(50):
        g = random_connected_graph(rng, 2, 7)
        table = distance_table(g)
        d = table.dist
        assert np.array_equal(d, d.T)
        assert np.array_equal(table.pos, table.pos.T)
        assert np.array_equal(table.neg, table.neg.T)
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    assert d[u, v] <= d[u, w] + d[w, v]


def assert_rows_match_sssp(g):
    table = distance_table(g)
    assert table.dist.shape == (g.n, g.n) and table.dist.dtype == np.int64
    assert table.pos.dtype == bool and table.neg.dtype == bool
    for s, row in enumerate(entries(table)):
        assert row == sssp_signs(g, s), (g, s)


def test_table_rows_match_single_source_bfs():
    rng = random.Random(77)
    graphs = [
        SignedGraph(1, ()),
        generate("path", 2, "allpos"),
        generate("path", 2, "allneg"),
        generate("path", 3, "+-"),
        generate("cycle", 3, "allneg"),
        generate("complete", 3, "+--"),
    ]
    for n in (5, 7, 9, 63, 65):
        graphs.append(generate("cycle", n, "allneg"))
    for _ in range(10):
        graphs.append(generate("path", rng.randint(2, 70), 0.5, seed=rng.getrandbits(32)))
        n = rng.randint(2, 70)
        graphs.append(SignedGraph(n, tuple(
            (rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n))))
    for _ in range(60):
        n = rng.randint(2, 70)
        signs = rng.choice((0.5, 1.0))
        graphs.append(generate("random", n, signs, seed=rng.getrandbits(32),
                               p=rng.uniform(min(1.0, 2.5 / n), 0.6)))
    # multi-word frontiers, and distances that need more than 8 bits
    graphs.append(generate("random", 200, 0.5, seed=11, p=0.04))
    graphs.append(generate("path", 300, 0.5, seed=12))
    for g in graphs:
        assert_rows_match_sssp(g)


def test_table_reports_the_same_unreachable_pair_as_single_source_bfs():
    graphs = [
        SignedGraph(2, ()),
        SignedGraph(4, ((1, 2, 1), (2, 3, -1))),
        SignedGraph(5, ((0, 3, -1), (1, 2, 1), (3, 4, 1))),
        SignedGraph(6, ((0, 1, 1), (2, 3, -1), (4, 5, 1))),
        SignedGraph(5, ((0, 1, -1), (2, 3, 1))),
        SignedGraph(70, tuple((v, v + 1, 1) for v in range(68))),
    ]
    for g in graphs:
        with pytest.raises(DisconnectedGraphError) as expected:
            sssp_signs(g, 0)
        with pytest.raises(DisconnectedGraphError) as err:
            distance_table(g)
        assert (err.value.vertex, err.value.source) == (
            expected.value.vertex, expected.value.source), g


def test_table_never_aliases_caller_arrays():
    fresh = distance_table(c4_one_negative())
    arrays = [np.array(fresh.dist), np.array(fresh.pos), np.array(fresh.neg)]
    frozen_views = [a.view() for a in arrays]
    for v in frozen_views:
        v.setflags(write=False)
    for given in (arrays, frozen_views):
        table = DistanceTable(*given)
        for mine, theirs in zip((table.dist, table.pos, table.neg), arrays):
            assert not mine.flags.writeable
            assert not np.shares_memory(mine, theirs)
    arrays[0][0, 1] = 7
    arrays[1][0, 1] = False
    assert table.dist[0, 1] == 1 and table.pos[0, 1]


def test_table_keeps_the_frozen_arrays_distance_table_builds():
    table = distance_table(generate("random", 80, 0.5, seed=3, p=0.1))
    for arr in (table.dist, table.pos, table.neg):
        assert arr.flags.owndata and not arr.flags.writeable
    again = DistanceTable(table.dist, table.pos, table.neg)
    assert again.dist is table.dist and again.neg is table.neg


# ---------------------------------------------------------------- matrices


def test_distance_matrix_of_all_negative_triangle():
    table = distance_table(generate("cycle", 3, "allneg"))
    m = distance_matrix(table, "pm")
    assert m.entries.tolist() == [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]
    assert m.exact


def test_distance_matrix_rows_of_mixed_square():
    table = distance_table(c4_one_negative())
    assert distance_matrix(table, "max").entries[0].tolist() == [0, 1, 2, -1]
    assert distance_matrix(table, "min").entries[0].tolist() == [0, 1, -2, -1]


def test_distance_matrix_pm_requires_compatibility():
    table = distance_table(c4_one_negative())
    with pytest.raises(IncompatibleGraphError) as err:
        distance_matrix(table, "pm")
    assert err.value.pair == (0, 2)


def test_distance_matrix_rejects_unknown_kind():
    table = distance_table(generate("path", 2, "allpos"))
    with pytest.raises(ValueError, match="kind"):
        distance_matrix(table, "med")


def test_entry_magnitude_is_hop_distance():
    rng = random.Random(9)
    for _ in range(30):
        g = random_connected_graph(rng, 2, 7)
        table = distance_table(g)
        for kind in ("max", "min"):
            m = distance_matrix(table, kind)
            assert np.array_equal(np.abs(m.entries), table.dist)


def test_dmin_at_most_dmax_with_equality_iff_compatible():
    rng = random.Random(10)
    for _ in range(60):
        g = random_connected_graph(rng, 2, 7)
        table = distance_table(g)
        dmax = distance_matrix(table, "max").entries
        dmin = distance_matrix(table, "min").entries
        assert (dmin <= dmax).all()
        compatible, witness = is_compatible(table)
        assert compatible == np.array_equal(dmin, dmax)
        if not compatible:
            u, v = witness
            assert dmin[u, v] < dmax[u, v]


# ---------------------------------------------------------------- compatibility


def test_signed_trees_are_compatible():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = generate("path", n, rng.choice((0.0, 0.5, 1.0)), seed=rng.getrandbits(32))
        ok, witness = is_compatible(distance_table(g))
        assert ok and witness is None


def test_all_negative_c5_is_compatible():
    ok, _ = is_compatible(distance_table(generate("cycle", 5, "allneg")))
    assert ok


def test_incompatibility_witness_is_least_pair():
    ok, witness = is_compatible(distance_table(c4_one_negative()))
    assert not ok
    assert witness == (0, 2)


# ---------------------------------------------------------------- transmission


@pytest.mark.parametrize(
    "n, signs, expected",
    [
        (3, "allneg", [2, 2, 2]),
        (3, "allpos", [2, 2, 2]),
        (4, "+++-", [4, 4, 4, 4]),
        (4, "allpos", [4, 4, 4, 4]),
    ],
)
def test_cycle_transmissions(n, signs, expected):
    table = distance_table(generate("cycle", n, signs))
    assert transmission(table).tolist() == expected


def test_path_transmissions():
    table = distance_table(generate("path", 3, "allpos"))
    assert transmission(table).tolist() == [3, 2, 3]


def test_cycle_transmission_formula():
    for n in range(3, 13):
        table = distance_table(generate("cycle", n, "allneg"))
        k = n // 2
        expected = k * (k + 1) if n % 2 else k * k
        assert transmission(table).tolist() == [expected] * n


# ---------------------------------------------------------------- completion


def test_associated_complete_of_mixed_square():
    g = c4_one_negative()
    table = distance_table(g)
    kmax = associated_complete(g, table, "max")
    assert {(u, v): s for u, v, s in kmax.edges} == {
        (0, 1): 1, (0, 2): 1, (0, 3): -1, (1, 2): 1, (1, 3): 1, (2, 3): 1,
    }
    assert dict(zip([(u, v) for u, v, _ in kmax.edges], kmax.weights)) == {
        (0, 1): 1.0, (0, 2): 2.0, (0, 3): 1.0, (1, 2): 1.0, (1, 3): 2.0, (2, 3): 1.0,
    }
    kmin = associated_complete(g, table, "min")
    assert {(u, v): s for u, v, s in kmin.edges} == {
        (0, 1): 1, (0, 2): -1, (0, 3): -1, (1, 2): 1, (1, 3): -1, (2, 3): 1,
    }
    assert kmin.weights == kmax.weights


def test_associated_complete_of_complete_graph_is_itself():
    g = generate("complete", 4, 0.5, seed=3)
    table = distance_table(g)
    for kind in ("max", "min"):
        assert associated_complete(g, table, kind) == g


def test_associated_complete_rejects_pm():
    g = generate("path", 2, "allpos")
    with pytest.raises(ValueError, match="kind"):
        associated_complete(g, distance_table(g), "pm")


# ---------------------------------------------------------------- switching


def test_per_pair_sign_sets_transform_under_switching():
    rng = random.Random(21)
    for _ in range(40):
        g = random_connected_graph(rng, 2, 7)
        zeta = [rng.choice((1, -1)) for _ in range(g.n)]
        table = distance_table(g)
        switched_table = distance_table(switch(g, zeta))
        # off the diagonal, the sign of a distance matrix entry is sigma(u, v)
        sigma = [np.sign(distance_matrix(t, kind).entries)
                 for t in (table, switched_table) for kind in ("max", "min")]
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                original = sorted(
                    (zeta[u] * zeta[v] * sigma[0][u, v], zeta[u] * zeta[v] * sigma[1][u, v])
                )
                assert original == sorted((sigma[2][u, v], sigma[3][u, v]))
                assert table.dist[u, v] == switched_table.dist[u, v]


def test_table_json_export():
    # `sdlap matrix --kind dmax|dmin` encodes a table through distance_matrix
    table = distance_table(c4_one_negative())
    obj = distance_matrix(table, "max").to_json_obj()
    assert obj["n"] == 4 and obj["kind"] == "dmax"
    assert obj["rows"][0] == [0, 1, 2, -1]
    obj = distance_matrix(table, "min").to_json_obj()
    assert obj["kind"] == "dmin" and obj["rows"][0] == [0, 1, -2, -1]


def test_table_csv_export():
    table = distance_table(c4_one_negative())
    assert distance_matrix(table, "max").to_csv().splitlines()[0] == "0,1,2,-1"
    assert distance_matrix(table, "min").to_csv().splitlines()[0] == "0,1,-2,-1"
