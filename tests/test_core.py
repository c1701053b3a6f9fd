import hashlib
import itertools
import math
import random
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlap import (
    GenerationError,
    GraphFormatError,
    SignedGraph,
    components,
    generate,
    parse_edge_list,
    path_sign,
    serialize,
    switch,
)

from sdlap.core import SignedForest

from conftest import random_connected_graph


@st.composite
def signed_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    signs = draw(
        st.lists(st.sampled_from((1, -1)), min_size=len(pairs), max_size=len(pairs))
    )
    edges = tuple(
        (u, v, s) for (u, v), keep, s in zip(pairs, mask, signs) if keep
    )
    return SignedGraph(n, edges)


@st.composite
def weighted_graphs(draw, max_n=6):
    g = draw(signed_graphs(max_n))
    weights = draw(
        st.lists(
            st.one_of(st.integers(1, 9).map(float), st.floats(0.25, 8.0)),
            min_size=g.m,
            max_size=g.m,
        )
    )
    return SignedGraph(g.n, g.edges, tuple(weights))


# ---------------------------------------------------------------- parsing


def test_parse_all_negative_triangle():
    wg = parse_edge_list("3\n1 2 -\n2 3 -\n1 3 -")
    assert wg.n == 3 and wg.m == 3
    assert wg.edges == ((0, 1, -1), (1, 2, -1), (0, 2, -1))
    assert wg.weights == (1.0, 1.0, 1.0)


def test_parse_weighted_edge():
    wg = parse_edge_list("2\n1 2 + 2.5")
    assert wg.edges == ((0, 1, 1),)
    assert wg.weights == (2.5,)
    assert not wg.integer_weights


def test_parse_accepts_comments_and_numeric_signs():
    wg = parse_edge_list("# a triangle\n3\n1 2 1\n2 3 -1\n\n1 3 - 4\n")
    assert [s for _, _, s in wg.edges] == [1, -1, -1]
    assert wg.weights == (1.0, 1.0, 4.0)
    assert wg.integer_weights


@pytest.mark.parametrize("token, weight", [("1_000", 1000.0), ("2_5", 25.0)])
def test_parse_reads_integral_weights_with_underscores(token, weight):
    # float() takes underscores on every supported Python, Fraction only from 3.11 on
    wg = parse_edge_list(f"2\n1 2 + {token}")
    assert wg.weights == (weight,) and wg.integer_weights


@pytest.mark.parametrize("text", [
    "3\n2 1 -\n3 2 +\n1 3 -",  # reversed endpoints
    "3\n1 2 + 2.5\n3 1 - 4",  # weights
    "# header\n3\n# edges\n1 2 +\n# done",  # comment lines
    "4",  # no edges
])
def test_parsed_graph_equals_the_validated_graph(text):
    g = parse_edge_list(text)
    assert g == SignedGraph(g.n, g.edges, g.weights)


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("2\n1 1 +", 2, "loop"),
        ("2\n1 2 *", 2, "sign token"),
        ("2\n1 2 + -3", 2, "nonpositive weight"),
        ("2\n1 2 + 0", 2, "nonpositive weight"),
        ("2\n1 2 + inf", 2, "non-finite weight"),
        ("2\n1 2 + 1e400", 2, "non-finite weight"),
        ("2\n1 2 + nan", 2, "non-finite weight"),
        ("3\n1 2 - 3\n2 3 - 9007199254740993", 3, "integer weight 9007199254740993 is not"),
        ("2\n1 2 + 1e23", 2, "integer weight 1e23 is not a float64 value"),
        ("2\n1 2 + -Infinity", 2, "non-finite weight"),
        ("2\n1 x +", 2, "non-integer vertex"),
        ("2\n1 2 + abc", 2, "bad weight 'abc'"),
        ("2\n1 2 +\n2 1 -", 3, "duplicate"),
        ("2\n1 3 +", 2, "vertex outside"),
        ("x\n1 2 +", 1, "vertex count"),
        ("2\n1 2", 2, "fields"),
        ("", None, "missing vertex count"),
        ("0", 1, "positive"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_serialize_omits_unit_weights():
    wg = parse_edge_list("3\n1 2 + 2\n2 3 -\n1 3 - 0.5")
    assert serialize(wg) == "3\n1 2 + 2\n2 3 -\n1 3 - 0.5\n"


@settings(max_examples=150)
@given(weighted_graphs())
def test_serialize_parse_round_trip(wg):
    assert parse_edge_list(serialize(wg)) == wg


def test_round_trip_unweighted_graph():
    g = generate("cycle", 5, "allneg")
    assert parse_edge_list(serialize(g)) == g


# ---------------------------------------------------------------- graph type


def test_graph_normalizes_endpoint_order_and_rejects_bad_input():
    g = SignedGraph(3, ((2, 0, 1),))
    assert g.edges == ((0, 2, 1),)
    with pytest.raises(ValueError, match="loop"):
        SignedGraph(2, ((0, 0, 1),))
    with pytest.raises(ValueError, match="duplicate"):
        SignedGraph(2, ((0, 1, 1), (1, 0, -1)))
    with pytest.raises(ValueError, match="sign"):
        SignedGraph(2, ((0, 1, 2),))
    with pytest.raises(ValueError, match="outside"):
        SignedGraph(2, ((0, 5, 1),))
    with pytest.raises(ValueError, match="positive integer"):
        SignedGraph(0, ())
    for count in (3.0, 1.5, "3"):
        with pytest.raises(ValueError, match="positive integer"):
            SignedGraph(count, ())
    for edges in (((0, 1.5, 1), (1, 2, 1), (0, 2, -1)), ((0.0, 1, 1),)):
        with pytest.raises(ValueError, match=re.escape(f"edge {edges[0]!r} has a non-integer")):
            SignedGraph(3, edges)
    g = SignedGraph(np.int64(3), ((np.int64(2), np.int64(0), 1),))
    assert g == SignedGraph(3, ((0, 2, 1),))
    assert type(g.n) is int and all(type(x) is int for x in g.edges[0])


def test_graph_stores_edge_signs_as_python_ints():
    g = SignedGraph(3, ((0, 1, 1.0), (1, 2, True), (0, 2, np.int64(-1))))
    assert g.edges == ((0, 1, 1), (1, 2, 1), (0, 2, -1))
    assert all(type(x) is int for edge in g.edges for x in edge)
    assert serialize(g) == "3\n1 2 +\n2 3 +\n1 3 -\n"


def test_weighted_graph_validation():
    edges = ((0, 1, 1),)
    with pytest.raises(ValueError, match="^2 weights for 1 edges$"):
        SignedGraph(2, edges, (1.0, 2.0))
    with pytest.raises(ValueError, match="^0 weights for 1 edges$"):
        SignedGraph(2, edges, ())
    for weight in (0.0, -2.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError) as err:
            SignedGraph(2, edges, (weight,))
        assert str(err.value) == (
            f"weight {weight!r} at edge 0 is not finite and strictly positive"
        )


@pytest.mark.parametrize("weight", [2**53 + 1, np.int64(2**53 + 1), 10**400],
                         ids=["int", "np.int64", "beyond-float64"])
def test_integer_weights_float64_cannot_hold_are_rejected(weight):
    with pytest.raises(ValueError, match=re.escape(f"integer weight {weight!r} at edge 0 is")):
        SignedGraph(2, ((0, 1, 1),), (weight,))


@pytest.mark.parametrize("weight", ["9007199254740992", "1e20", str(2**60)])
def test_integer_weights_that_are_float64_values_round_trip(weight):
    g = parse_edge_list(f"2\n1 2 + {weight}\n")
    assert g.weights == (float(weight),) and g.integer_weights
    assert parse_edge_list(serialize(g)) == g == SignedGraph(2, ((0, 1, 1),), (int(float(weight)),))


def test_inexact_integer_token_beside_a_float_weight_is_read_as_a_float():
    g = parse_edge_list("3\n1 2 + 9007199254740993\n2 3 + 0.5\n")
    assert g.weights == (2.0**53, 0.5)


def test_each_weight_is_checked_in_one_pass():
    # the first bad weight is reported, whatever is wrong after it, and
    # before a count that does not match the edges
    edges = ((0, 1, 1), (1, 2, 1))
    for weights, message in [
        ((0.0, 2**53 + 1), "weight 0.0 at edge 0 is not finite and strictly positive"),
        ((2**53 + 1, 0.0), f"integer weight {2**53 + 1} at edge 0 is not a float64 value"),
        ((1.0, math.nan, 2.0), "weight nan at edge 1 is not finite and strictly positive"),
        ((-1.0,), "weight -1.0 at edge 0 is not finite and strictly positive"),
        ((1.0, 1.0, 0.0), "weight 0.0 at edge 2 is not finite and strictly positive"),
    ]:
        with pytest.raises(ValueError) as err:
            SignedGraph(3, edges, weights)
        assert str(err.value) == message


def test_omitted_weights_are_unit_weights():
    g = generate("cycle", 4, "+-+-")
    assert g.weights == (1.0,) * 4 and g.integer_weights
    assert SignedGraph(g.n, g.edges) == SignedGraph(g.n, g.edges, (1.0,) * g.m)
    assert SignedGraph(g.n, g.edges) == SignedGraph(g.n, g.edges, (1,) * g.m)
    assert SignedGraph(g.n, g.edges) == SignedGraph(g.n, g.edges, [1, 1, 1, 1])
    assert _field_types(SignedGraph(g.n, g.edges)) == _field_types(
        SignedGraph(g.n, g.edges, (1,) * g.m)) == (int, {int}, {float}, tuple, tuple)
    assert SignedGraph(g.n, g.edges) != SignedGraph(g.n, g.edges, (1.0, 1.0, 2.0, 1.0))


def test_weights_follow_their_edges():
    g = SignedGraph(3, ((2, 0, -1), (1, 0, 1)), (2, 0.5))
    assert g.edges == ((0, 2, -1), (0, 1, 1))
    assert g.weights == (2.0, 0.5) and not g.integer_weights
    assert parse_edge_list(serialize(g)) == g


# ---------------------------------------------------------------- switching


def test_switch_keeps_weights():
    g = SignedGraph(3, ((0, 1, -1), (1, 2, -1), (0, 2, 1)), (3.0, 0.25, 7.0))
    switched = switch(g, (1, -1, 1))
    assert switched.edges == ((0, 1, 1), (1, 2, 1), (0, 2, 1))
    assert switched.weights == g.weights
    assert switch(switched, (1, -1, 1)) == g


def test_switch_example_on_triangle():
    g = generate("cycle", 3, "allneg")
    switched = switch(g, (-1, 1, 1))
    assert {(u, v): s for u, v, s in switched.edges} == {
        (0, 1): 1,
        (0, 2): 1,
        (1, 2): -1,
    }


@settings(max_examples=100)
@given(signed_graphs(), st.randoms(use_true_random=False))
def test_switch_identity_and_involution(g, rnd):
    assert switch(g, (1,) * g.n) == g
    zeta = tuple(rnd.choice((1, -1)) for _ in range(g.n))
    assert switch(switch(g, zeta), zeta) == g


def test_switch_rejects_bad_zeta():
    g = generate("path", 3, "allpos")
    with pytest.raises(ValueError, match="length"):
        switch(g, (1, -1))
    with pytest.raises(ValueError, match="not \\+1 or -1"):
        switch(g, (1, 0, 1))


def _field_types(g):
    return (type(g.n), {type(x) for edge in g.edges for x in edge},
            {type(w) for w in g.weights}, type(g.edges), type(g.weights))


def _revalidated(g):
    """The graph the validating constructor builds from g's fields."""
    return SignedGraph(g.n, g.edges, g.weights)


@pytest.mark.parametrize("kind", ["cycle", "path", "complete", "random"])
def test_generated_graphs_equal_their_validated_copies(kind):
    # generate builds its graphs without re-checking edges that are valid
    # by construction; the checks must have nothing to change
    for seed in range(51):
        n = 3 + seed % 9
        for signs in (None, "allneg", 0.3):
            g = generate(kind, np.int64(n) if seed % 2 else n, signs, seed=seed,
                         p=0.6 if kind == "random" else None)
            copy = _revalidated(g)
            assert g == copy and _field_types(g) == _field_types(copy)
            assert _field_types(g) == (int, {int}, {float}, tuple, tuple)
            assert g.n == n and g.edges == copy.edges and g.adjacency == copy.adjacency


@pytest.mark.parametrize("plus, minus", [(np.int64(1), np.int64(-1)), (True, -1),
                                         (1.0, -1.0), (np.float64(1.0), np.int8(-1))])
def test_switched_graphs_equal_their_validated_copies(plus, minus):
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng, 2, 8)
        if rng.random() < 0.5:
            g = SignedGraph(g.n, g.edges, tuple(float(rng.randint(1, 9)) for _ in g.edges))
        zeta = [rng.choice((plus, minus)) for _ in range(g.n)]
        switched = switch(g, zeta)
        copy = _revalidated(switched)
        assert switched == copy and _field_types(switched) == _field_types(copy)
        assert _field_types(switched) == (int, {int}, {float}, tuple, tuple)
        assert switched.weights == g.weights
        assert switch(switched, zeta) == g


def test_switch_preserves_cycle_signs_on_complete_graphs():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 5)
        g = generate("complete", n, rng.choice((0.3, 0.5, 0.8)), seed=rng.getrandbits(32))
        zeta = tuple(rng.choice((1, -1)) for _ in range(n))
        switched = switch(g, zeta)
        for size in (3, 4):
            if size > n:
                continue
            for cyc in itertools.permutations(range(n), size):
                walk = cyc + (cyc[0],)
                assert path_sign(g, walk) == path_sign(switched, walk)


# ---------------------------------------------------------------- path sign


def test_path_sign_examples():
    tri = generate("cycle", 3, "allneg")
    assert path_sign(tri, (0, 1, 2)) == 1
    assert path_sign(tri, (0, 1, 2, 0)) == -1
    k2 = generate("path", 2, "allpos")
    assert path_sign(k2, (0, 1)) == 1


def test_path_sign_is_multiplicative_under_concatenation():
    rng = random.Random(3)
    for _ in range(25):
        g = generate("complete", 5, 0.5, seed=rng.getrandbits(32))
        walk1 = [rng.randrange(5)]
        for _ in range(4):
            walk1.append(rng.choice([v for v, _ in g.adjacency[walk1[-1]]]))
        walk2 = [walk1[-1]]
        for _ in range(4):
            walk2.append(rng.choice([v for v, _ in g.adjacency[walk2[-1]]]))
        combined = walk1 + walk2[1:]
        assert path_sign(g, combined) == path_sign(g, walk1) * path_sign(g, walk2)


def test_path_sign_rejects_non_adjacent_steps():
    g = generate("path", 3, "allpos")
    with pytest.raises(ValueError, match="not adjacent"):
        path_sign(g, (0, 2))
    with pytest.raises(ValueError, match="empty"):
        path_sign(g, ())


# ---------------------------------------------------------------- generators


def test_generate_cycle_all_negative():
    g = generate("cycle", 5, "allneg")
    assert g.n == 5 and g.m == 5
    assert all(s == -1 for _, _, s in g.edges)
    degrees = [len(g.adjacency[v]) for v in range(5)]
    assert degrees == [2] * 5


def test_generate_path_all_positive():
    g = generate("path", 3, "allpos")
    assert g.edges == ((0, 1, 1), (1, 2, 1))


def test_generate_random_is_deterministic():
    a = generate("random", 6, seed=7, p=0.5)
    b = generate("random", 6, seed=7, p=0.5)
    assert a == b
    assert len(components(a)) == 1


def test_generate_sign_string_and_negative_sets():
    g = generate("cycle", 4, "+++-")
    assert [s for _, _, s in g.edges] == [1, 1, 1, -1]
    assert generate("cycle", 4, "-+--") == SignedGraph(
        4, ((0, 1, -1), (1, 2, 1), (2, 3, -1), (0, 3, -1)))
    assert generate("cycle", 4, "++++") == generate("cycle", 4, "allpos")
    # Negative edges are named by a +/- string, not by a set of indices or pairs.
    for negative_set in ([3], [(0, 3)]):
        with pytest.raises(ValueError, match="unrecognized sign spec"):
            generate("cycle", 4, signs=negative_set)


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError, match="cycle needs"):
        generate("cycle", 2)
    with pytest.raises(ValueError, match="n must be positive"):
        generate("path", 0)
    with pytest.raises(ValueError, match="unknown generator"):
        generate("wheel", 4)
    with pytest.raises(ValueError, match="sign string"):
        generate("path", 3, "+++")
    with pytest.raises(ValueError, match="probability"):
        generate("random", 4, p=1.5)
    with pytest.raises(GenerationError):
        generate("random", 3, seed=1, p=0.0)


@pytest.mark.parametrize("kind", ["cycle", "path", "complete"])
def test_generate_rejects_p_for_kinds_other_than_random(kind):
    with pytest.raises(ValueError, match="p= is for random graphs only"):
        generate(kind, 5, p=0.3)


def test_generate_random_resamples_as_before():
    # Near the connectivity threshold many samples are rejected, so the
    # connectivity check decides which sample each seed returns. The digest
    # pins the edge lists the union-find without signs produced.
    digest = hashlib.sha256()
    for seed in range(30):
        for n in (4, 9, 30, 120):
            p = min(1.0, 1.1 * math.log(n) / n)
            digest.update(serialize(generate("random", n, seed=seed, p=p)).encode())
    assert digest.hexdigest() == (
        "a7ba8a12c9b4303f6f61c3e849e2f72861e383567c881173a686b78e0a23cbca"
    )


@pytest.mark.parametrize("n, p, seed, digest", [
    (1000, 0.008, 3, "f90de0aa1e833a26e553239a16dd22fe3279efe4e6366d63663b9cf68a0769e1"),
    (3000, 0.0027, 5, "e1fea435944001456533eb812fb26318ce0f654fe4e6d2d829381a70e64e766e"),
])
def test_generate_random_pins_large_graphs(n, p, seed, digest):
    # one draw per vertex pair in lexicographic order, on graphs as large
    # as the benchmark's; CI checks the first digest on each Python version
    text = serialize(generate("random", n, p=p, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generate_random_graphs_are_connected():
    rng = random.Random(11)
    for _ in range(25):
        g = random_connected_graph(rng, 2, 8)
        assert len(components(g)) == 1


# ---------------------------------------------------------------- components


def test_components_examples():
    c4 = generate("cycle", 4, "allpos")
    assert components(c4) == [[0, 1, 2, 3]]
    two_edges = SignedGraph(4, ((0, 1, 1), (2, 3, -1)))
    assert components(two_edges) == [[0, 1], [2, 3]]
    empty = SignedGraph(3, ())
    assert components(empty) == [[0], [1], [2]]


def bfs_components(g):
    seen = [False] * g.n
    out = []
    for v0 in range(g.n):
        if seen[v0]:
            continue
        seen[v0] = True
        comp, queue = [v0], deque([v0])
        while queue:
            for y, _ in g.adjacency[queue.popleft()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        out.append(sorted(comp))
    return out


def random_signed_graph(rng, n_max):
    n = rng.randint(1, n_max)
    q = rng.uniform(0.05, 0.9)
    return SignedGraph(n, tuple(
        (u, v, rng.choice((1, -1)))
        for u, v in itertools.combinations(range(n), 2) if rng.random() < q))


def test_components_match_breadth_first_search():
    rng = random.Random(29)
    for _ in range(200):
        g = random_signed_graph(rng, 12)
        assert components(g) == bfs_components(g), g


# ---------------------------------------------------------------- SignedForest


def tree_path(tree, u, v):
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in tree[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path[::-1]


def test_signed_forest_cycle_signs_match_path_sign():
    rng = random.Random(31)
    closed = 0
    for _ in range(150):
        g = random_signed_graph(rng, 10)
        edges = list(g.edges)
        rng.shuffle(edges)
        forest = SignedForest(g.n)
        tree = [[] for _ in range(g.n)]
        for u, v, s in edges:
            sign = forest.union(u, v, s)
            if sign == 0:
                tree[u].append(v)
                tree[v].append(u)
                continue
            closed += 1
            cycle = tree_path(tree, u, v) + [u]
            assert sign == path_sign(g, cycle), (g, u, v)
        for x in range(g.n):
            root, sign = forest.find(x)
            assert sign == path_sign(g, tree_path(tree, x, root)), (g, x)
        assert sorted(forest.classes().values()) == bfs_components(g)
    assert closed > 400
