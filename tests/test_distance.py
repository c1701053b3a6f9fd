import math
import random

import numpy as np
import pytest

from sdlap import (
    DisconnectedGraphError,
    DistanceTable,
    IncompatibleGraphError,
    SignedGraph,
    associated_complete,
    distance,
    distance_matrix,
    distance_summary,
    distance_table,
    generate,
    is_compatible,
    switch,
    transmission,
    weighted_laplacian,
)

from conftest import all_signed_graphs, brute_table, random_connected_graph, sssp_signs


@pytest.fixture(params=[None, 0, 64], ids=["default", "0", "64"])
def table_of(request):
    """distance_table, or the graph's table from a stack (distance._tables)
    in which its rows start at offset 0 or 64: first, or behind a member of
    order 64; a member of order 65 follows, which widens every row to two
    frontier words."""
    offset = request.param
    if offset is None:
        return distance_table
    lead = [generate("cycle", 64, "allneg")] if offset else []
    trail = [generate("path", 65, 0.5, seed=1)]
    return lambda g: stacked_member(lead + [g] + trail, len(lead))


def stacked_member(graphs, i):
    """The table of graphs[i] from the stacked table of its order that
    distance._tables(graphs) builds, as a table of its own."""
    n = graphs[i].n
    stack = distance._tables(graphs)[n]
    j = sum(g.n == n for g in graphs[:i])
    return DistanceTable(stack.dist[j], stack.pos[j], stack.neg[j])


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


def test_tables_match_brute_force_enumeration_exhaustively(table_of):
    for n in range(1, 5):
        for g in all_signed_graphs(n):
            assert entries(table_of(g)) == brute_table(g), g


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


def assert_rows_match_sssp(g, table_of=distance_table):
    table = table_of(g)
    assert table.dist.shape == (g.n, g.n) and table.dist.dtype == np.int64
    assert table.pos.dtype == bool and table.neg.dtype == bool
    for s, row in enumerate(entries(table)):
        assert row == sssp_signs(g, s), (g, s)


def test_table_rows_match_single_source_bfs(table_of):
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
        assert_rows_match_sssp(g, table_of)


DISCONNECTED = [
    SignedGraph(2, ()),
    SignedGraph(4, ((1, 2, 1), (2, 3, -1))),
    SignedGraph(5, ((0, 3, -1), (1, 2, 1), (3, 4, 1))),
    SignedGraph(6, ((0, 1, 1), (2, 3, -1), (4, 5, 1))),
    SignedGraph(5, ((0, 1, -1), (2, 3, 1))),
    SignedGraph(70, tuple((v, v + 1, 1) for v in range(68))),
]


def test_table_reports_the_same_unreachable_pair_as_single_source_bfs(table_of):
    for g in DISCONNECTED:
        with pytest.raises(DisconnectedGraphError) as expected:
            sssp_signs(g, 0)
        with pytest.raises(DisconnectedGraphError) as err:
            table_of(g)
        assert (err.value.vertex, err.value.source) == (
            expected.value.vertex, expected.value.source), g


def test_stacked_tables_match_the_single_source_oracles():
    rng = random.Random(36)
    exhaustive = [g for n in range(1, 5) for g in all_signed_graphs(n)]
    graphs = [generate("random", n, rng.choice((0.5, 1.0)), seed=rng.getrandbits(32),
                       p=rng.uniform(min(1.0, 2.5 / n), 0.6)) for n in range(1, 71)]
    graphs += [generate("cycle", 64, "allneg"), generate("path", 65, 0.5, seed=2),
               generate("path", 300, 0.5, seed=12)]  # distances of 9 bits
    oracle = {id(g): [sssp_signs(g, s) for s in range(g.n)] for g in exhaustive + graphs}
    # one frontier word filled to its last bit, two words, and five words,
    # the last with orders 64, 65 and 300 in one call; every order from 1
    # on, interleaved, and orders 1 to 4, 64 and 65 repeated
    for top in (64, 65, 300):
        stack = [g for g in graphs if g.n <= top] + rng.sample(exhaustive, 100)
        rng.shuffle(stack)
        assert max(g.n for g in stack) == top
        tables = distance._tables(stack)
        assert sorted(tables) == sorted({g.n for g in stack})
        for n, table in tables.items():
            members = [g for g in stack if g.n == n]
            for arr, dtype in zip((table.dist, table.pos, table.neg), (np.int64, bool, bool)):
                assert arr.shape == (len(members), n, n) and arr.dtype == dtype
                assert arr.flags.owndata and not arr.flags.writeable
            for j, g in enumerate(members):
                alone = distance_table(g)
                for mine, theirs in zip((table.dist, table.pos, table.neg),
                                        (alone.dist, alone.pos, alone.neg)):
                    assert mine[j].dtype == theirs.dtype and np.array_equal(mine[j], theirs), g
                member = DistanceTable(table.dist[j], table.pos[j], table.neg[j])
                assert entries(member) == oracle[id(g)], g
                if n <= 4:
                    assert entries(member) == brute_table(g), g
    for i, g in enumerate(exhaustive):
        assert entries(stacked_member(exhaustive, i)) == brute_table(g), g
    # a disconnected member is named in its own numbering; the first one wins
    lost = [SignedGraph(4, ((1, 2, 1), (2, 3, -1))),
            SignedGraph(70, tuple((v, v + 1, 1) for v in range(68))),
            SignedGraph(6, ((0, 1, 1), (2, 3, -1), (4, 5, 1)))]
    for g in lost:
        with pytest.raises(DisconnectedGraphError) as expected:
            sssp_signs(g, 0)
        for at in (0, 5, 72):
            stack = graphs[:at] + [g] + graphs[at:72] + [SignedGraph(3, ())]
            with pytest.raises(DisconnectedGraphError) as err:
                distance._tables(stack)
            assert (err.value.vertex, err.value.source) == (
                expected.value.vertex, expected.value.source), (g, at)


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


@pytest.mark.parametrize("dist, pos, neg, message", [
    (np.zeros((2, 2), int), np.zeros((3, 3), bool), np.zeros((1, 1), bool),
     "three square arrays of one shape, got (2, 2), (3, 3) and (1, 1)"),
    (np.zeros((2, 3), int), np.zeros((2, 3), bool), np.zeros((2, 3), bool),
     "three square arrays of one shape, got (2, 3), (2, 3) and (2, 3)"),
    (np.zeros(4, int), np.zeros(4, bool), np.zeros(4, bool),
     "three square arrays of one shape, got (4,), (4,) and (4,)"),
    (np.array([[0, 1.5], [1.5, 0]]), np.eye(2, dtype=bool), np.zeros((2, 2), bool),
     "integer distances and bool flags, got float64, bool and bool"),
    (np.zeros((2, 2), int), np.eye(2, dtype=int), np.zeros((2, 2), bool),
     "integer distances and bool flags, got int64, int64 and bool"),
    (np.zeros((3, 2, 3), int), np.zeros((3, 2, 3), bool), np.zeros((3, 2, 3), bool),
     "three square arrays of one shape, got (3, 2, 3), (3, 2, 3) and (3, 2, 3)"),
    (np.zeros((1, 1, 2, 2), int), np.zeros((1, 1, 2, 2), bool), np.zeros((1, 1, 2, 2), bool),
     "three square arrays of one shape, got (1, 1, 2, 2), (1, 1, 2, 2) and (1, 1, 2, 2)"),
], ids=["three-shapes", "not-square", "1-D", "float-dist", "int-flags", "stack-not-square",
        "4-D"])
def test_table_refuses_arrays_that_are_not_one_table(dist, pos, neg, message):
    # each constructed: the first with n == 2, and a float dist gave
    # distance_matrix entries of 1.5
    with pytest.raises(ValueError) as err:
        DistanceTable(dist, pos, neg)
    assert str(err.value) == f"distance table needs {message}"


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
            # the witness is the least pair, in row-major order, where they differ
            assert witness == tuple(int(i) for i in np.argwhere(dmin < dmax)[0])


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


def test_empty_table_is_compatible():
    empty = np.zeros((0, 0), dtype=bool)
    table = DistanceTable(np.zeros((0, 0), dtype=np.int64), empty, empty)
    assert is_compatible(table) == (True, None)


def test_compatibility_refuses_a_stacked_table():
    # a stack of as many members as vertices would have its witness read
    # from the flat index of the whole stack
    for k in (2, 3):
        stack = distance._tables([generate("cycle", 3, "allneg")] * k)[3]
        assert stack.dist.shape == (k, 3, 3)
        with pytest.raises(ValueError, match=rf"table of one graph, got \({k}, 3, 3\)"):
            is_compatible(stack)
        with pytest.raises(ValueError, match="table of one graph"):
            distance_matrix(stack, "pm")


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


# ---------------------------------------------------------------- numpy-free summary


def summary_graphs():
    """n = 1 and 2; random graphs of 1 to 300 vertices, most with
    incompatible pairs and some weighted; cycles of both parities, all
    negative, all positive or with one negative edge, up to n = 1001;
    paths and complete graphs."""
    rng = random.Random(49)
    graphs = [SignedGraph(1, ()), generate("path", 2, "allpos"), generate("path", 2, "allneg")]
    for n in [*range(1, 71), 100, 150, 200, 250, 300]:
        g = generate("random", n, rng.choice((0.1, 0.5, 1.0)), seed=rng.getrandbits(32),
                     p=min(1.0, rng.uniform(1.5, 4.0) * math.log(n + 1) / n))
        if n % 5 == 0:
            g = SignedGraph(n, g.edges, tuple(rng.choice((0.5, 3.0, 7)) for _ in g.edges))
        graphs.append(g)
    for n in (3, 4, 5, 6, 7, 8, 63, 64, 65, 128, 129):
        graphs += [generate("cycle", n, signs) for signs in ("allneg", "allpos", "+" * (n - 1) + "-")]
    graphs += [generate("cycle", 1000, "+" * 999 + "-"), generate("cycle", 1001, "allneg")]
    graphs += [generate("path", 65, "allneg"), generate("path", 300, 0.5, seed=12)]
    graphs += [generate("complete", n, 0.5, seed=n) for n in range(1, 13)]
    return graphs


def test_numpy_free_summary_matches_the_distance_table():
    incompatible = 0
    for g in summary_graphs():
        table = distance_table(g)
        transmissions, witness = distance_summary(g)
        assert transmissions == transmission(table).tolist(), (g.n, g.edges[:4])
        assert witness == is_compatible(table)[1], (g.n, g.edges[:4])
        incompatible += witness is not None
    assert incompatible >= 50


def test_numpy_free_summary_reports_the_unreachable_pair_of_the_distance_table():
    for g in DISCONNECTED:
        with pytest.raises(DisconnectedGraphError) as expected:
            distance_table(g)
        with pytest.raises(DisconnectedGraphError) as err:
            distance_summary(g)
        assert (err.value.vertex, err.value.source) == (
            expected.value.vertex, expected.value.source), g


# ---------------------------------------------------------------- completion


def test_associated_complete_of_mixed_square():
    g = c4_one_negative()
    table = distance_table(g)
    kmax = associated_complete(table, "max")
    assert {(u, v): s for u, v, s in kmax.edges} == {
        (0, 1): 1, (0, 2): 1, (0, 3): -1, (1, 2): 1, (1, 3): 1, (2, 3): 1,
    }
    assert dict(zip([(u, v) for u, v, _ in kmax.edges], kmax.weights)) == {
        (0, 1): 1.0, (0, 2): 2.0, (0, 3): 1.0, (1, 2): 1.0, (1, 3): 2.0, (2, 3): 1.0,
    }
    kmin = associated_complete(table, "min")
    assert {(u, v): s for u, v, s in kmin.edges} == {
        (0, 1): 1, (0, 2): -1, (0, 3): -1, (1, 2): 1, (1, 3): -1, (2, 3): 1,
    }
    assert kmin.weights == kmax.weights


def test_associated_complete_of_complete_graph_is_itself():
    g = generate("complete", 4, 0.5, seed=3)
    table = distance_table(g)
    for kind in ("max", "min"):
        assert associated_complete(table, kind) == g


def test_associated_complete_takes_its_order_from_the_table():
    # a graph argument could disagree with the table on the vertex count
    table = distance_table(generate("cycle", 5, "allneg"))
    completion = associated_complete(table, "max")
    assert (completion.n, completion.m) == (5, 10)
    d = distance_matrix(table, "max").entries
    for (u, v, s), w in zip(completion.edges, completion.weights):
        assert s * w == d[u, v]
    with pytest.raises(TypeError):
        associated_complete(generate("cycle", 3, "allpos"), table, "max")


@pytest.mark.parametrize("kind", ["max", "min"])
def test_associated_complete_equals_the_validated_graph(kind):
    # built without the constructor's checks, it must be the graph they
    # would build, with float weights that integer_weights can read
    table = distance_table(generate("random", 30, 0.5, seed=3, p=0.15))
    d = distance_matrix(table, kind).entries.tolist()
    pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
    validated = SignedGraph(30, tuple((u, v, 1 if d[u][v] > 0 else -1) for u, v in pairs),
                            tuple(abs(d[u][v]) for u, v in pairs))
    completion = associated_complete(table, kind)
    assert completion == validated and completion.m == 30 * 29 // 2
    assert all(type(w) is float for w in completion.weights)
    assert all(type(x) is int for edge in completion.edges for x in edge)
    assert completion.integer_weights
    lap = weighted_laplacian(completion).entries
    assert np.diagonal(lap).tolist() == transmission(table).tolist()


def test_associated_complete_rejects_pm():
    g = generate("path", 2, "allpos")
    with pytest.raises(ValueError, match="kind"):
        associated_complete(distance_table(g), "pm")


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
