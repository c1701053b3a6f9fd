import itertools
import json
import random

import numpy as np
import pytest

from sdlap import (
    SignedGraph,
    SizeBoundError,
    associated_complete,
    closed_form_det,
    components,
    det_exact,
    distance_laplacian,
    distance_table,
    enumerate_spanning_1forests,
    forest_census,
    forest_det,
    generate,
    is_balanced_det,
    is_balanced_forest,
    is_balanced_switching,
    is_compatible,
    path_sign,
    serialize,
    switch,
    weighted_laplacian,
)
from sdlap.cli import main

import sdlap.balance
import sdlap.distance
from sdlap import BalanceReport, ForestComponent
from sdlap.exact import _PADIC_MIN_ORDER

from conftest import (
    oracle_1forests,
    oracle_forest_sum,
    random_connected_graph,
    random_weighted_graph,
)


def weighted_negative_triangle():
    g = generate("cycle", 3, "allneg")
    return SignedGraph(g.n, g.edges, (2.0, 3.0, 5.0))


# ---------------------------------------------------------------- switching


def test_switching_oracle_on_balanced_square():
    report = is_balanced_switching(generate("cycle", 4, "allpos"))
    assert report.balanced and report.method == "switching"
    assert report.certificate == (1, 1, 1, 1)
    assert report.verify(generate("cycle", 4, "allpos"))


def test_switching_oracle_on_all_negative_triangle():
    g = generate("cycle", 3, "allneg")
    report = is_balanced_switching(g)
    assert not report.balanced
    assert sorted(report.certificate) == [0, 1, 2]
    assert path_sign(g, tuple(report.certificate) + (report.certificate[0],)) == -1
    assert report.verify(g)


@pytest.mark.parametrize("balanced, certificate, valid", [
    (False, (), False),  # no cycle at all
    (False, (0, 2), False),  # not adjacent
    (False, (0, 9), False),  # no such vertex
    (True, (1, 1), False),  # a switching function of the wrong length
    (True, (1, 0, 1, 1), False),  # a switching value that is not +-1
    (False, (0, 1, 2, 3), True),
    (False, (0, 1, 0, 1, 2, 3), True),  # a closed negative walk proves unbalance too
])
def test_malformed_certificates_fail_without_raising(balanced, certificate, valid):
    g = generate("cycle", 4, "+++-")
    assert BalanceReport(balanced, "switching", certificate).verify(g) is valid


def test_trees_are_always_balanced():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = generate("path", n, rng.choice((0.0, 0.5, 1.0)), seed=rng.getrandbits(32))
        assert is_balanced_switching(g).balanced


def test_switching_certificates_verify_on_random_graphs():
    rng = random.Random(13)
    for _ in range(80):
        g = random_connected_graph(rng, 2, 8)
        report = is_balanced_switching(g)
        assert report.verify(g)
        if report.balanced:
            switched = switch(g, report.certificate)
            assert all(s == 1 for _, _, s in switched.edges)


def test_balance_verdict_is_switching_invariant():
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_graph(rng, 2, 7)
        zeta = [rng.choice((1, -1)) for _ in range(g.n)]
        assert (
            is_balanced_switching(g).balanced
            == is_balanced_switching(switch(g, zeta)).balanced
        )


# ---------------------------------------------------------------- 1-forests


def test_all_negative_triangle_has_one_forest():
    forests = enumerate_spanning_1forests(generate("cycle", 3, "allneg"))
    assert len(forests) == 1
    (forest,) = forests
    assert forest.contrabalanced
    assert forest.edges == (0, 1, 2)
    (component,) = forest.components
    assert component.vertices == (0, 1, 2)
    assert component.sign == -1


def test_trees_have_no_spanning_1forests():
    assert enumerate_spanning_1forests(generate("path", 4, "allpos")) == []


def test_mixed_square_completion_forest_census():
    g = generate("cycle", 4, "+++-")
    completion = associated_complete(distance_table(g), "max")
    forests = enumerate_spanning_1forests(completion)
    assert len(forests) == 15
    contra = enumerate_spanning_1forests(completion, contrabalanced_only=True)
    assert len(contra) == 8
    four_cycles = [f for f in contra if len(f.components[0].cycle) == 4]
    assert len(four_cycles) == 2
    assert len(contra) - len(four_cycles) == 6


def test_forest_cycles_match_path_sign():
    rng = random.Random(43)
    for _ in range(15):
        wg = random_weighted_graph(rng, 3, 6)
        for forest in enumerate_spanning_1forests(wg):
            for component in forest.components:
                cycle = component.cycle
                assert len(set(cycle)) == len(cycle) >= 3
                assert path_sign(wg, cycle + (cycle[0],)) == component.sign
            covered = sorted(
                v for component in forest.components for v in component.vertices
            )
            assert covered == list(range(wg.n))
            assert len(forest.edges) == wg.n


def test_disjoint_negative_triangles_form_one_forest():
    # each component's cycle is traced over the tree edges of its own
    # component only, so many components cost time linear in n
    triangles = [(3 * c, 3 * c + 1, 3 * c + 2) for c in range(50)]
    edges = tuple((t[a], t[b], -1) for t in triangles for a, b in ((0, 1), (1, 2), (0, 2)))
    [forest] = enumerate_spanning_1forests(SignedGraph(150, edges))
    assert forest.edges == tuple(range(150))
    assert forest.components == tuple(ForestComponent(t, t, -1) for t in triangles)


def test_search_matches_the_subset_oracle():
    rng = random.Random(97)

    def random_graphs(count):
        for _ in range(count):
            n = rng.randint(2, 7)
            p = rng.uniform(0.2, 0.7)
            yield SignedGraph(n, tuple((u, v, rng.choice((1, -1)))
                                       for u, v in itertools.combinations(range(n), 2)
                                       if rng.random() < p))

    # a negative triangle with pendant trees, and a triangle beside a tree,
    # which has no spanning 1-forest: both lists strip pendant vertices
    pendant_trees = SignedGraph(8, ((0, 1, -1), (1, 2, 1), (0, 2, 1), (2, 3, 1),
                                    (3, 4, -1), (3, 5, 1), (0, 6, -1), (6, 7, 1)))
    beside_a_tree = SignedGraph(7, ((0, 1, 1), (1, 2, -1), (0, 2, -1),
                                    (3, 4, 1), (4, 5, -1), (4, 6, 1)))
    disconnected = nonzero = 0
    for i, g in enumerate(itertools.chain(random_graphs(220), (pendant_trees, beside_a_tree))):
        if i % 2:
            weights = tuple(rng.uniform(0.1, 3.0) for _ in g.edges)
        else:
            weights = tuple(float(rng.randint(1, 5)) for _ in g.edges)
        wg = SignedGraph(g.n, g.edges, weights)
        disconnected += len(components(g)) > 1
        expected = oracle_1forests(g)
        assert enumerate_spanning_1forests(g) == expected
        contra = enumerate_spanning_1forests(g, contrabalanced_only=True)
        assert contra == [f for f in expected if f.contrabalanced]
        nonzero += bool(contra)
        # float weights: the exact sum, rounded once
        total = forest_det(wg)
        assert type(total) is type(oracle_forest_sum(wg, expected))
        assert repr(total) == repr(oracle_forest_sum(wg, expected))
    assert disconnected > 40 and nonzero > 40
    assert len(enumerate_spanning_1forests(pendant_trees, contrabalanced_only=True)) == 1
    assert enumerate_spanning_1forests(beside_a_tree) == []


def with_pendant_tree(rng, g, size):
    """g with a random tree of size new vertices hung from its vertices."""
    edges = list(g.edges)
    for v in range(g.n, g.n + size):
        edges.append((rng.randrange(v), v, rng.choice((1, -1))))
    weights = g.weights + tuple(float(rng.randint(1, 5)) for _ in range(size))
    return SignedGraph(g.n + size, tuple(edges), weights)


def test_census_matches_the_subset_oracle():
    rng = random.Random(71)
    graphs = [random_weighted_graph(rng, 2, 6) for _ in range(60)]
    for g in graphs[:20]:
        graphs.append(SignedGraph(g.n + 1, g.edges, g.weights))  # isolated vertex
        graphs.append(with_pendant_tree(rng, g, rng.randint(1, 3)))
    for g in graphs[-20:]:
        graphs.append(SignedGraph(g.n, g.edges, tuple(w / 4 for w in g.weights)))
    for g in graphs:
        expected = oracle_1forests(g)
        total = oracle_forest_sum(g, expected)
        contrabalanced = sum(f.contrabalanced for f in expected)
        census = forest_census(g)
        assert census == (len(expected), total) and type(census[1]) is type(total)
        assert forest_census(g, contrabalanced_only=True) == (contrabalanced, total)


def necklace(rng, beads=5, size=18):
    """beads signed cycles of size vertices, each tied to the next by one edge."""
    edges = []
    for b in range(beads):
        ring = [b * size + i for i in range(size)]
        edges += [(u, v, rng.choice((1, -1))) for u, v in zip(ring, ring[1:] + ring[:1])]
        edges.append((b * size, (b + 1) % beads * size + size // 2, rng.choice((1, -1))))
    return SignedGraph(beads * size, tuple(edges),
                       tuple(float(rng.randint(1, 5)) for _ in edges))


def test_census_reaches_k9_and_the_necklace():
    rng = random.Random(43)
    k9 = generate("complete", 9, 0.5, seed=5)
    k9 = SignedGraph(9, k9.edges, tuple(float(rng.randint(1, 3)) for _ in range(k9.m)))
    ring = necklace(rng)
    assert (ring.n, ring.m) == (90, 95)
    for g in (k9, ring):
        det = det_exact(weighted_laplacian(g))
        assert det > 0 and forest_det(g) == det


def test_state_cap_refuses_dense_graphs_at_every_entry_point(monkeypatch, tmp_path):
    # the census's state cap bounds every sum, count and listing
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", 1000)
    for n in (10, 12):
        big = generate("complete", n, "allneg")
        for contrabalanced_only in (False, True):
            with pytest.raises(SizeBoundError, match="more than 1000 states"):
                forest_census(big, contrabalanced_only)
            with pytest.raises(SizeBoundError, match="more than 1000 states"):
                enumerate_spanning_1forests(big, contrabalanced_only)
        with pytest.raises(SizeBoundError):
            forest_det(big)
        with pytest.raises(SizeBoundError):
            is_balanced_forest(big)
        path = tmp_path / f"k{n}.sg"
        path.write_text(serialize(big))
        for kind in ("all", "contrabalanced"):
            assert main(["forests", str(path), "--kind", kind]) == 1
            assert main(["forests", str(path), "--kind", kind, "--list"]) == 1


def test_state_cap_refuses_a_listing_by_its_count(monkeypatch):
    # K5 here has 222 spanning 1-forests and peaks at 40 live states: a
    # cap of 221 admits its census but refuses to list it.
    k5 = generate("complete", 5, 0.5, seed=1)
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", 222)
    assert len(enumerate_spanning_1forests(k5)) == 222
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", 221)
    assert forest_census(k5) == (222, 0)
    with pytest.raises(SizeBoundError, match="has 222 forests, more than 221"):
        enumerate_spanning_1forests(k5)
    # C11 has one spanning 1-forest, itself, and peaks at 4 states like
    # the triangle: the cap counts states, not subsets or path length
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", 4)
    c11 = generate("cycle", 11, "allneg")
    (forest,) = enumerate_spanning_1forests(c11)
    assert forest.contrabalanced and forest.components[0].cycle == tuple(range(11))


@pytest.mark.parametrize("g, contrabalanced_only, peak, expected", [
    # The negative triangle peaks at 4 states, after its second edge: each
    # of the first two edges is taken or skipped.
    (generate("cycle", 3, "allneg"), False, 4, (1, 4)),
    # The peaks of denser graphs pin how many states the labels merge.
    (generate("complete", 8, 0.5, seed=1), False, 7630, (1456875, 2858240)),
    (generate("complete", 8, 0.5, seed=1), True, 6688, (702596, 2858240)),
    (generate("random", 20, 0.5, seed=0, p=0.3), False, 5804,
     (472426107831, 1053768785300)),
    (generate("random", 20, 0.5, seed=0, p=0.3), True, 4912,
     (229965951896, 1053768785300)),
], ids=["triangle", "k8-all", "k8-contrabalanced", "random20-all", "random20-contrabalanced"])
def test_state_cap_counts_live_states_after_each_edge(monkeypatch, g, contrabalanced_only,
                                                      peak, expected):
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", peak)
    assert forest_census(g, contrabalanced_only) == expected
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", peak - 1)
    with pytest.raises(SizeBoundError, match=f"more than {peak - 1} states"):
        forest_census(g, contrabalanced_only)


@pytest.mark.parametrize("shape", ["cycle", "unicyclic"])
def test_large_1forests_need_no_recursion(shape, capsys, tmp_path):
    n = 3000
    if shape == "cycle":
        g = generate("cycle", n, "allneg")
    else:
        rng = random.Random(5)
        edges = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
        edges.append((0, n - 1, -1) if edges[-1][0] else (1, n - 1, -1))
        g = SignedGraph(n, tuple(edges))
    expected = 0 if is_balanced_switching(g).balanced else 4
    assert closed_form_det(g) == forest_det(g) == expected
    # g is its own only spanning 1-forest, listed by one walk of n links
    (forest,) = enumerate_spanning_1forests(g)
    assert forest.edges == tuple(range(n))
    assert len(enumerate_spanning_1forests(g, contrabalanced_only=True)) == (expected == 4)
    path = tmp_path / "big.sg"
    path.write_text(serialize(g))
    assert main(["info", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["closed_form_det"] == str(expected)


# ---------------------------------------------------------------- forest_det


def test_forest_det_golden_values():
    assert forest_det(generate("cycle", 3, "allneg")) == 4
    assert forest_det(weighted_negative_triangle()) == 120
    g = generate("cycle", 4, "+++-")
    table = distance_table(g)
    assert forest_det(associated_complete(table, "max")) == 84
    assert forest_det(associated_complete(table, "min")) == 84


@pytest.mark.parametrize("kind", ["max", "min"])
def test_forest_sum_of_the_associated_complete_graph_is_det_l(kind):
    # the paper's proof route: det L^kind(g) is the 1-forest sum of the
    # complete graph whose edges carry the signs and distances of D^kind
    rng = random.Random(41)
    for n in range(4, 9):
        for balanced in (True, False):
            g = switch(generate("random", n, "allpos", seed=rng.getrandbits(32), p=0.6),
                       [rng.choice((1, -1)) for _ in range(n)])
            while is_balanced_switching(g).balanced is not balanced:
                g = generate("random", n, 0.5, seed=rng.getrandbits(32), p=0.6)
            table = distance_table(g)
            det = det_exact(distance_laplacian(table, kind))
            assert (det == 0) is balanced
            assert forest_det(associated_complete(table, kind)) == det


def test_forest_det_contributions_of_mixed_square_completion():
    g = generate("cycle", 4, "+++-")
    completion = associated_complete(distance_table(g), "max")
    weights = completion.weights

    def contribution(f):
        return 4 ** len(f.components) * int(np.prod([weights[ei] for ei in f.edges]))

    contra = enumerate_spanning_1forests(completion, contrabalanced_only=True)
    spanning_cycles = [f for f in contra if len(f.components[0].cycle) == 4]
    pendants = [f for f in contra if len(f.components[0].cycle) == 3]
    assert sorted(contribution(f) for f in spanning_cycles) == [4, 16]
    assert sum(contribution(f) for f in pendants) == 64
    assert sum(contribution(f) for f in contra) == 84


def test_forest_det_equals_exact_laplacian_determinant():
    rng = random.Random(71)
    for _ in range(60):
        wg = random_weighted_graph(rng, 2, 6)
        assert forest_det(wg) == det_exact(weighted_laplacian(wg))


def test_float_forest_sums_that_overflow_are_rejected():
    g = generate("cycle", 3, "allneg")
    huge = SignedGraph(g.n, g.edges, (1e308, 1e308, 0.5))
    with pytest.raises(ValueError, match="1-forest sum overflows a 64-bit float"):
        forest_det(huge)
    with pytest.raises(ValueError, match="overflows"):
        closed_form_det(huge)
    assert forest_det(SignedGraph(g.n, g.edges, (1e308, 0.5, 0.5))) == 1e308


def test_forest_det_on_disconnected_graphs():
    # block-diagonal Laplacians keep the identity without connectivity
    two_triangles = SignedGraph(
        6,
        (
            (0, 1, -1), (1, 2, -1), (0, 2, -1),
            (3, 4, -1), (4, 5, -1), (3, 5, -1),
        ),
    )
    assert forest_det(two_triangles) == det_exact(weighted_laplacian(two_triangles)) == 16
    rng = random.Random(73)
    checked = 0
    while checked < 25:
        n = rng.randint(4, 7)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        ]
        edges = tuple((u, v, rng.choice((1, -1))) for u, v in pairs)
        g = SignedGraph(n, edges)
        from sdlap import components

        if len(components(g)) == 1:
            continue
        checked += 1
        weights = tuple(float(rng.randint(1, 4)) for _ in range(g.m))
        wg = SignedGraph(g.n, g.edges, weights)
        assert forest_det(wg) == det_exact(weighted_laplacian(wg))


def test_forest_det_float_weights():
    g = generate("cycle", 3, "allneg")
    wg = SignedGraph(g.n, g.edges, (0.5, 2.0, 3.0))
    assert forest_det(wg) == pytest.approx(4 * 0.5 * 2.0 * 3.0)
    assert forest_det(wg) == pytest.approx(np.linalg.det(weighted_laplacian(wg).entries), rel=1e-9)


# ---------------------------------------------------------------- closed forms


def test_closed_form_on_trees():
    assert closed_form_det(generate("path", 5, "++-+")) == 0
    g = generate("path", 3, "+-")
    wg = SignedGraph(g.n, g.edges, (2.0, 7.0))
    assert closed_form_det(wg) == 0


def test_closed_form_on_unicyclic_graph():
    tadpole = SignedGraph(4, ((0, 1, -1), (1, 2, -1), (0, 2, -1), (2, 3, 1)))
    assert closed_form_det(tadpole) == 4


def test_closed_form_on_disjoint_negative_triangles():
    two_triangles = SignedGraph(
        6,
        (
            (0, 1, -1), (1, 2, -1), (0, 2, -1),
            (3, 4, -1), (4, 5, -1), (3, 5, -1),
        ),
    )
    assert closed_form_det(two_triangles) == 16


def test_closed_form_weighted_cycle():
    assert closed_form_det(weighted_negative_triangle()) == 120
    g = generate("cycle", 4, "allpos")
    positive = SignedGraph(g.n, g.edges, (1.0, 2.0, 3.0, 4.0))
    assert closed_form_det(positive) == 0


def test_closed_form_not_applicable_elsewhere():
    assert closed_form_det(generate("complete", 4, "allpos")) is None
    # a tree component plus a 1-tree component has no spanning 1-forest
    mixed = SignedGraph(5, ((0, 1, -1), (1, 2, -1), (0, 2, -1), (3, 4, 1)))
    assert closed_form_det(mixed) == 0


def test_closed_form_agrees_with_det_exact_on_matching_shapes():
    rng = random.Random(83)
    shapes = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        kind = rng.choice(("path", "cycle", "complete", "random"))
        if kind == "cycle" and n < 3:
            continue
        signs, seed = rng.choice((0.0, 0.3, 0.6, 1.0)), rng.getrandbits(32)
        p = rng.uniform(0.3, 0.9)
        # p is drawn for every kind, which keeps the random stream fixed
        g = generate(kind, n, signs, seed=seed, p=p if kind == "random" else None)
        wg = SignedGraph(g.n, g.edges, tuple(float(rng.randint(1, 5)) for _ in range(g.m)))
        value = closed_form_det(wg)
        if value is None:
            continue
        shapes += 1
        assert value == det_exact(weighted_laplacian(wg))
    assert shapes > 30


def test_closed_form_on_constructed_unicyclic_and_1forest_instances():
    rng = random.Random(89)
    for _ in range(40):
        # unicyclic: random tree plus one closing edge
        n = rng.randint(3, 8)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        extra = None
        while extra is None or extra in pairs:
            a, b = rng.sample(range(n), 2)
            extra = (min(a, b), max(a, b))
        edges = tuple((u, v, rng.choice((1, -1))) for u, v in pairs + [extra])
        wg = SignedGraph(n, edges, tuple(float(rng.randint(1, 5)) for _ in edges))
        assert closed_form_det(wg) == det_exact(weighted_laplacian(wg))
    for _ in range(20):
        # 1-forest: disjoint union of two signed cycles
        a = rng.randint(3, 4)
        b = rng.randint(3, 4)
        edges = []
        for offset, size in ((0, a), (a, b)):
            ring = [(offset + i, offset + (i + 1) % size) for i in range(size)]
            edges.extend(
                (min(u, v), max(u, v), rng.choice((1, -1))) for u, v in ring
            )
        wg = SignedGraph(a + b, tuple(edges), tuple(float(rng.randint(1, 5)) for _ in edges))
        assert closed_form_det(wg) == det_exact(weighted_laplacian(wg))


def graphs_with_at_most_n_edges(n):
    """Every signed graph on n vertices with at most n edges."""
    pairs = list(itertools.combinations(range(n), 2))
    for m in range(min(n, len(pairs)) + 1):
        for chosen in itertools.combinations(pairs, m):
            for signs in itertools.product((1, -1), repeat=m):
                yield tuple((u, v, s) for (u, v), s in zip(chosen, signs))


def test_closed_form_is_exact_on_every_graph_with_at_most_n_edges(monkeypatch):
    # Pendant stripping leaves disjoint cycles, and the census walks each
    # one holding at most 4 states.
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", 4)
    rng = random.Random(19)
    count = 0
    for n in range(1, 6):
        for edges in graphs_with_at_most_n_edges(n):
            wg = SignedGraph(n, edges, tuple(rng.randint(1, 5) for _ in edges))
            assert closed_form_det(wg) == det_exact(weighted_laplacian(wg))
            count += 1
    assert count == 13089


def test_closed_form_census_stays_within_4_states(monkeypatch):
    monkeypatch.setattr(sdlap.balance, "FOREST_MAX_STATES", 4)
    rng = random.Random(23)
    for n in (6, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(300):
            chosen = rng.sample(pairs, rng.randint(n - 1, n))
            g = SignedGraph(n, tuple((u, v, rng.choice((1, -1))) for u, v in chosen))
            assert closed_form_det(g) == det_exact(weighted_laplacian(g))


def test_closed_form_with_float_weights_and_above_n_edges():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(4, 7)
        pairs = rng.sample(list(itertools.combinations(range(n), 2)), n + 1)
        edges = tuple((u, v, rng.choice((1, -1))) for u, v in pairs)
        assert closed_form_det(SignedGraph(n, edges)) is None
        m = rng.randint(n - 1, n)
        g = SignedGraph(n, edges[:m], tuple(rng.uniform(0.1, 5.0) for _ in range(m)))
        value = closed_form_det(g)
        assert type(value) is float and value == forest_det(g)
        assert value == pytest.approx(np.linalg.det(weighted_laplacian(g).entries),
                                      rel=1e-9, abs=1e-6)


def test_closed_form_has_no_size_bound():
    odd = generate("cycle", 41, "allneg")
    assert closed_form_det(odd) == 4
    even = generate("cycle", 40, "allneg")  # even all-negative cycle is positive
    assert closed_form_det(even) == 0


# ---------------------------------------------------------------- det_exact


def test_det_exact_golden_values():
    assert det_exact(distance_laplacian(distance_table(generate("cycle", 3, "allneg")), "pm")) == 4
    assert det_exact(distance_laplacian(distance_table(generate("path", 3, "+-")), "pm")) == 0
    assert det_exact(distance_laplacian(distance_table(generate("cycle", 4, "+++-")), "max")) == 84


def test_det_exact_handles_zero_pivots():
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_exact([[0, 1, 2], [0, 2, 4], [1, 1, 1]]) == 0


def test_det_exact_singular_and_trivial_cases():
    assert det_exact([[2, 4], [1, 2]]) == 0
    assert det_exact([[7]]) == 7
    assert det_exact(np.eye(4, dtype=np.int64)) == 1


def test_det_exact_accepts_integral_floats_only():
    assert det_exact([[2.0, 0.0], [0.0, 3.0]]) == 6
    with pytest.raises(ValueError, match="non-integer"):
        det_exact([[0.5, 0.0], [0.0, 1.0]])


def test_det_exact_avoids_overflow():
    rng = random.Random(7)
    rows = [[rng.randint(-50, 50) for _ in range(12)] for _ in range(12)]
    value = det_exact(rows)
    assert value == pytest.approx(np.linalg.det(np.array(rows, dtype=float)), rel=1e-9)


def test_det_float_tracks_det_exact_on_random_integer_matrices():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        exact = det_exact(rows)
        approx = float(np.linalg.det(np.array(rows, dtype=float)))
        if exact == 0:
            assert abs(approx) <= max(1e-6, 1e-9 * n)
        else:
            assert approx == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------- deciders


def test_det_decider_on_signed_path():
    report = is_balanced_det(generate("path", 3, "+-"), "max")
    assert report.balanced
    assert report.determinant == 0
    assert report.method == "det-max"


def test_det_decider_on_all_negative_triangle():
    report = is_balanced_det(generate("cycle", 3, "allneg"), "pm")
    assert not report.balanced
    assert report.determinant == 4


def test_det_decider_on_mixed_square():
    g = generate("cycle", 4, "+++-")
    for kind in ("max", "min"):
        report = is_balanced_det(g, kind)
        assert not report.balanced
        assert report.determinant == 84
        assert report.method == f"det-{kind}"
    pm = is_balanced_det(g, "pm")
    assert not pm.balanced and pm.determinant is None


def balanced_graph(n, seed):
    rng = random.Random(seed)
    base = generate("random", n, "allpos", seed=seed, p=min(1.0, 8 / n))
    return switch(base, [rng.choice((1, -1)) for _ in range(n)])


def counted_det_exact(monkeypatch):
    calls = []
    real = sdlap.balance.det_exact

    def det_exact_counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(sdlap.balance, "det_exact", det_exact_counted)
    return calls


def test_balanced_verdicts_are_proved_by_the_switching_function(monkeypatch):
    calls = counted_det_exact(monkeypatch)
    for n in (3, 12, _PADIC_MIN_ORDER + 5):
        g = balanced_graph(n, n)
        for kind in ("max", "min", "pm"):
            report = is_balanced_det(g, kind)
            assert report.balanced and report.determinant == 0
            assert report.certificate == is_balanced_switching(g).certificate
    assert calls == []


def test_all_kinds_build_each_laplacian_once(monkeypatch, capsys, tmp_path):
    built = []
    real = sdlap.distance.distance_laplacian

    def counted(table, kind):
        built.append(kind)
        return real(table, kind)

    # balance calls it through the distance module
    monkeypatch.setattr(sdlap.distance, "distance_laplacian", counted)
    g = balanced_graph(10, 7)
    for kind in ("max", "min", "pm"):
        built.clear()
        is_balanced_det(g, kind)
        assert built == [kind]
    # unbalanced and incompatible (antipodes of an even cycle), above the
    # Bareiss orders: the default det method eliminates L^max alone
    n = _PADIC_MIN_ORDER + 4
    h = generate("cycle", n, "-" + "+" * (n - 1))
    assert not is_compatible(distance_table(h))[0]
    path = tmp_path / "cycle.sg"
    path.write_text(serialize(h))
    calls = counted_det_exact(monkeypatch)
    assert main(["balance", str(path), "--method", "det"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "det-max"
    assert len(calls) == 1


def test_det_decider_rejects_kind_all():
    with pytest.raises(ValueError, match="kind must be one of"):
        is_balanced_det(generate("cycle", 4, "+++-"), "all")


def test_certificate_that_misses_the_kernel_falls_back_to_the_determinant(monkeypatch):
    g = balanced_graph(9, 3)
    true_zeta = is_balanced_switching(g).certificate
    bogus = tuple(-z if i == 4 else z for i, z in enumerate(true_zeta))
    calls = counted_det_exact(monkeypatch)
    report = is_balanced_det(g, "max", switching=BalanceReport(True, "switching", bogus))
    assert report.balanced and report.determinant == 0
    assert len(calls) == 1


@pytest.mark.parametrize("spoil", [
    lambda zeta: zeta[:-1],
    lambda zeta: (0,) * len(zeta),
    lambda zeta: tuple(2 * z for z in zeta),
    lambda zeta: (1,) * len(zeta),
    lambda zeta: (1.5 * zeta[0],) + zeta[1:],
], ids=["short", "zero-entries", "two-entries", "outside-kernel", "fractional-entry"])
def test_only_a_unit_kernel_vector_certifies_det_zero(monkeypatch, spoil):
    # _in_kernel checks the length and the +-1 entries in Python before the
    # product. The zero and doubled vectors lie in the kernel, and an int64
    # cast would truncate 1.5 to 1, so only that check keeps them from
    # certifying; every case must leave det = 0 to det_exact
    g = balanced_graph(9, 3)
    zeta = is_balanced_switching(g).certificate
    bogus = spoil(zeta)
    assert bogus != zeta and not all(z == 1 for z in zeta)
    calls = counted_det_exact(monkeypatch)
    for kind in ("max", "min", "pm"):
        report = is_balanced_det(g, kind, switching=BalanceReport(True, "switching", bogus))
        assert report.balanced and report.determinant == 0
    assert len(calls) == 3


@pytest.mark.parametrize("zeta", [(1, 1, 1, 1), (0, 0, 0, 0), (1, -1, 1)])
def test_claimed_balance_on_unbalanced_graph_still_raises(zeta):
    g = generate("cycle", 4, "+++-")
    claim = BalanceReport(True, "switching", zeta)
    for kind in ("max", "min"):
        with pytest.raises(ArithmeticError, match="contradicts"):
            is_balanced_det(g, kind, switching=claim)


def test_claimed_balance_on_incompatible_graph_raises():
    g = generate("cycle", 4, "+++-")
    claim = BalanceReport(True, "switching", (1,) * g.n)
    with pytest.raises(ArithmeticError, match="balanced graph found incompatible"):
        is_balanced_det(g, "pm", switching=claim)


def test_forest_sum_that_contradicts_switching_raises(monkeypatch):
    monkeypatch.setattr(sdlap.balance, "forest_det", lambda g: 0)
    with pytest.raises(ArithmeticError, match="forest sum 0 contradicts the switching verdict"):
        is_balanced_forest(generate("cycle", 3, "allneg"))


def test_claimed_imbalance_on_balanced_graph_still_raises():
    g = balanced_graph(_PADIC_MIN_ORDER + 2, 5)
    claim = BalanceReport(False, "switching", (0, 1, 2))
    for kind in ("max", "min", "pm"):
        with pytest.raises(ArithmeticError, match="contradicts"):
            is_balanced_det(g, kind, switching=claim)


def test_forest_decider_matches_switching():
    rng = random.Random(91)
    for _ in range(30):
        g = random_connected_graph(rng, 2, 6)
        report = is_balanced_forest(g)
        assert report.method == "forest-sum"
        assert report.balanced == is_balanced_switching(g).balanced
        assert report.verify(g)
        assert report.determinant >= 0


def test_tri_equivalence_on_random_graphs():
    rng = random.Random(97)
    for _ in range(120):
        g = random_connected_graph(rng, 2, 8)
        sw = is_balanced_switching(g).balanced
        table = distance_table(g)
        det_max = det_exact(distance_laplacian(distance_table(g), "max"))
        det_min = det_exact(distance_laplacian(distance_table(g), "min"))
        compatible, _ = is_compatible(table)
        pm_verdict = compatible and det_exact(distance_laplacian(distance_table(g), "pm")) == 0
        assert sw == (det_max == 0) == (det_min == 0) == pm_verdict
        assert det_max >= 0 and det_min >= 0


def test_nonnegative_determinants_on_weighted_graphs():
    rng = random.Random(103)
    for _ in range(40):
        wg = random_weighted_graph(rng, 2, 6)
        assert det_exact(weighted_laplacian(wg)) >= 0


def test_decider_verdicts_are_switching_invariant():
    rng = random.Random(107)
    for _ in range(25):
        g = random_connected_graph(rng, 2, 6)
        zeta = [rng.choice((1, -1)) for _ in range(g.n)]
        h = switch(g, zeta)
        assert is_balanced_det(g, "max").balanced == is_balanced_det(h, "max").balanced
        assert is_balanced_forest(g).balanced == is_balanced_forest(h).balanced


def test_balance_report_json_shape():
    report = is_balanced_det(generate("cycle", 4, "+++-"), "max")
    obj = report.to_json_obj()
    json.dumps(obj)
    assert obj["determinant"] == "84"
    assert obj["balanced"] is False
    assert obj["certificate"]["type"] == "negative-cycle"
    assert min(obj["certificate"]["cycle"]) >= 1

    balanced = is_balanced_switching(generate("path", 3, "+-")).to_json_obj()
    assert balanced["certificate"]["type"] == "switching"
    assert balanced["determinant"] is None
    assert set(balanced["certificate"]["zeta"]) <= {1, -1}
