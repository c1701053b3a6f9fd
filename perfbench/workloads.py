"""The four workloads: their seeded inputs, their commands, and the check
of every command's output against the references in ``oracle``.

Inputs are ``generate("random", n, p≈8/n)`` graphs. A balanced graph is
an all-positive graph switched by a seeded zeta, so its verdict is known
from how it was built; an unbalanced graph has each sign negative with
probability 0.5.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

VERIFY_SUITES = ("forest-theorem", "balance-equivalence", "cospectrality",
                 "transmission-shift", "incidence-factorization")


@dataclass
class GraphSpec:
    """How one input graph is generated; ``zeta`` is set for a balanced
    graph (an all-positive graph switched by zeta)."""

    name: str
    n: int
    p: float
    seed: int
    zeta: tuple[int, ...] | None = None

    def build(self) -> str:
        """Generate and serialize with the program's own generator."""
        from sdlap.core import SignedGraph, generate, serialize

        if self.zeta is None:
            return serialize(generate("random", self.n, 0.5, seed=self.seed, p=self.p))
        g = generate("random", self.n, "allpos", seed=self.seed, p=self.p)
        z = self.zeta
        return serialize(SignedGraph(g.n, tuple((u, v, s * z[u] * z[v]) for u, v, s in g.edges)))


@dataclass
class InputGraph:
    """A written input file; checks add what they learn about the input
    (determinant bit lengths, 1-forest counts) to ``facts``."""

    spec: GraphSpec
    path: Path
    text: str
    facts: dict = field(default_factory=dict)

    @cached_property
    def graph(self) -> oracle.SignedGraphFile:
        return oracle.SignedGraphFile(self.text)

    @cached_property
    def ref(self) -> oracle.Reference:
        ref = oracle.Reference(self.graph)
        if self.spec.zeta is not None and not ref.balanced:
            raise RuntimeError(f"{self.spec.name}: switched graph is not balanced")
        return ref


@dataclass
class Command:
    """One CLI call. ``check`` gets the output text (the --out file when
    ``out`` is set, else stdout) and returns an error message or None.
    Each entry of ``controls`` turns a correct output into a wrong one
    that ``check`` must reject."""

    argv: list[str]
    check: Callable[[str], str | None]
    out: Path | None = None
    controls: dict[str, Callable[[str], str]] = field(default_factory=dict)


def _command(argv, check_and_controls, out=None) -> Command:
    check, controls = check_and_controls
    return Command(argv, check, out, controls)


@dataclass
class Workload:
    name: str
    # Pass time at the seed commit on the reference host (2 cores,
    # Python 3.11). It fixes how many passes a run makes, so every commit
    # measures the same commands.
    pass_s: float
    plan: Callable[[random.Random], tuple[list[GraphSpec], dict]]
    commands: Callable[[dict[str, InputGraph], dict, Path], list[Command]]


def _balanced_spec(name, n, rng) -> GraphSpec:
    return GraphSpec(name, n, 8 / n, rng.getrandbits(32),
                     tuple(rng.choice((1, -1)) for _ in range(n)))


def _unbalanced_spec(name, n, rng) -> GraphSpec:
    return GraphSpec(name, n, 8 / n, rng.getrandbits(32))


def _mixed_plan(sizes):
    def plan(rng):
        specs = []
        for n in sizes:
            specs.append(_balanced_spec(f"balanced-{n}", n, rng))
            specs.append(_unbalanced_spec(f"unbalanced-{n}", n, rng))
        return specs, {}
    return plan


# ---------------------------------------------------------------- checks

def _check_balance(graph: InputGraph):
    ref = graph.ref
    residues = {kind: [oracle.det_mod(ref.laplacian(kind), p) for p in oracle.PRIMES]
                for kind in ("max", "min")}

    def check(text):
        out = json.loads(text)
        if out["balanced"] is not ref.balanced:
            return f"verdict {out['balanced']}, built {ref.balanced}"
        if out["switching"] != ("balanced" if ref.balanced else "unbalanced"):
            return f"switching verdict {out['switching']!r}"
        for key, kind in (("det_lmax", "max"), ("det_lmin", "min")):
            det = int(out[key])
            if ref.balanced and det != 0:
                return f"{key} = {det} on a balanced graph"
            for p, r in zip(oracle.PRIMES, residues[kind]):
                if det % p != r:
                    return f"{key} is {det % p} mod {p}, reference {r}"
        graph.facts["det_bits"] = [abs(int(out[k])).bit_length()
                                   for k in ("det_lmax", "det_lmin")]
        return None

    def det_off_by_one(text):
        out = json.loads(text)
        out["det_lmax"] = str(int(out["det_lmax"]) + 1)
        return json.dumps(out)

    return check, {"determinant off by one": det_off_by_one}


def _check_spectrum(graph: InputGraph, kind: str):
    lap = graph.ref.laplacian(kind)
    n = lap.shape[0]
    expected = np.linalg.eigvalsh(lap.astype(float))
    tol = 1e-8 * n * max(1.0, float(np.abs(lap).max()))

    def check(text):
        out = json.loads(text)
        values = np.array(out["eigenvalues"], dtype=float)
        if values.shape != (n,):
            return f"{values.size} eigenvalues, expected {n}"
        if (np.diff(values) < 0).any():
            return "eigenvalues not ascending"
        dev = float(np.abs(values - expected).max())
        if dev > tol:
            return f"eigenvalue deviation {dev:.3g} > {tol:.3g}"
        if sum(grp["multiplicity"] for grp in out["groups"]) != n:
            return "multiplicities do not sum to n"
        return None

    def perturbed_eigenvalue(text):
        out = json.loads(text)
        out["eigenvalues"][n // 2] += 10 * tol
        return json.dumps(out)

    return check, {"perturbed eigenvalue": perturbed_eigenvalue}


def _check_info(graph: InputGraph):
    g, ref = graph.graph, graph.ref

    def check(text):
        out = json.loads(text)
        if (out["n"], out["m"], out["components"]) != (g.n, g.m, 1):
            return f"n, m, components = {out['n']}, {out['m']}, {out['components']}"
        if out["compatible"] is not ref.compatible:
            return f"compatible {out['compatible']}, reference {ref.compatible}"
        if not ref.compatible:
            u, v = (x - 1 for x in out["incompatible_pair"])
            if not (ref.pos[u, v] and ref.neg[u, v]):
                return f"pair {out['incompatible_pair']} is not incompatible"
        if out["transmissions"] != ref.transmissions.tolist():
            return "transmissions differ"
        if out["balanced"] is not ref.balanced:
            return f"balanced {out['balanced']}, reference {ref.balanced}"
        return None

    return check, {}


def _sign_flip_json(text):
    out = json.loads(text)
    out["rows"][0][1] = -out["rows"][0][1]
    return json.dumps(out)


def _check_matrix_json(graph: InputGraph, kind: str):
    expected = graph.ref.distance(kind[1:])

    def check(text):
        out = json.loads(text)
        if out["kind"] != kind or out["n"] != graph.graph.n:
            return f"header kind={out['kind']!r} n={out['n']}"
        if not np.array_equal(np.array(out["rows"], dtype=np.int64), expected):
            return f"{kind} entries differ"
        return None

    return check, {"matrix entry sign flipped": _sign_flip_json}


def _check_matrix_csv(graph: InputGraph, kind: str):
    expected = graph.ref.laplacian(kind[1:])
    n = graph.graph.n

    def check(text):
        lines = text.rstrip("\n").split("\n")
        if len(lines) != n:
            return f"{len(lines)} rows, expected {n}"
        cells = ",".join(lines).split(",")
        if len(cells) != n * n:
            return f"{len(cells)} cells, expected {n * n}"
        if not np.array_equal(np.array(cells, dtype=np.int64).reshape(n, n), expected):
            return f"{kind} entries differ"
        return None

    return check, {}


def _check_gen(graph: InputGraph):
    def check(text):
        if text != graph.text:
            return "gen output differs from the library's generate + serialize"
        g = oracle.SignedGraphFile(text)
        if g.n != graph.spec.n:
            return f"gen wrote n={g.n}"
        return None

    return check, {}


def _check_forests(graph: InputGraph):
    g = graph.graph
    forest_sum = oracle.det_fraction(oracle.signed_laplacian(g))
    candidates, accepted = oracle.count_1forests(g)
    graph.facts.update(forest_candidates=candidates, forests_accepted=accepted,
                       det_bits=[abs(forest_sum).bit_length()])

    def check(text):
        out = json.loads(text)
        if int(out["forest_sum"]) != forest_sum:
            return f"forest_sum {out['forest_sum']}, Laplacian determinant {forest_sum}"
        if out["count"] != accepted:
            return f"count {out['count']}, reference {accepted}"
        return None

    def sum_off_by_one(text):
        out = json.loads(text)
        out["forest_sum"] = str(int(out["forest_sum"]) + 1)
        return json.dumps(out)

    return check, {"forest sum off by one": sum_off_by_one}


def _check_verify(text):
    lines = text.strip().split("\n")
    passed = {line.split()[1].rstrip(":") for line in lines if line.startswith("PASS ")}
    if len(lines) != len(VERIFY_SUITES) or passed != set(VERIFY_SUITES):
        return f"suites not all PASS: {lines!r}"
    return None


def _verify_failed(text):
    return text.replace("PASS", "FAIL", 1)


def input_properties(graphs: dict[str, InputGraph]) -> dict:
    """The input properties a later claim may need to quote."""
    rows = [{"graph": name, "n": g.graph.n, "m": g.graph.m, "balanced": g.ref.balanced,
             **g.facts} for name, g in graphs.items()]
    share = sum(row["balanced"] for row in rows) / len(rows)
    return {"balanced_share": share, "graphs": rows}


# ------------------------------------------------------------- workloads

def _balance_commands(graphs, params, work):
    return [_command(["balance", str(g.path)], _check_balance(g)) for g in graphs.values()]


def _spectrum_commands(graphs, params, work):
    commands = []
    for g in graphs.values():
        # balanced graphs are compatible, so their pm Laplacian exists
        kind = "pm" if g.spec.zeta is not None else "max"
        commands.append(_command(["spectrum", str(g.path), "--kind", "l" + kind],
                                 _check_spectrum(g, kind)))
    return commands


def _export_plan(rng):
    n, p = 1000, 0.008
    seed = rng.getrandbits(32)
    # generate() resamples until the graph is connected, and each resample
    # costs as much as the first. Keep a seed whose first sample is
    # connected, so set-up and `gen` do the same work on every workload
    # seed. This mirrors the generator's sampling order; if that order
    # changes the inputs stay valid, only without that guarantee.
    while not _first_sample_connected(seed, n, p):
        seed = rng.getrandbits(32)
    return [GraphSpec("random-1000", n, p, seed)], {"gen_spec": f"random:{n}:p={p}:seed={seed}"}


def _first_sample_connected(seed, n, p) -> bool:
    draw = random.Random(seed).random
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v in itertools.combinations(range(n), 2):
        if draw() < p:
            ru, rv = root(u), root(v)
            if ru != rv:
                parent[rv] = ru
                parts -= 1
    return parts == 1


def _export_commands(graphs, params, work):
    g = graphs["random-1000"]
    gen_out, csv_out, json_out = work / "gen.txt", work / "lmin.csv", work / "dmax.json"
    return [
        _command(["gen", params["gen_spec"], "--out", str(gen_out)], _check_gen(g), gen_out),
        _command(["info", str(g.path)], _check_info(g)),
        _command(["matrix", str(g.path), "--kind", "lmin", "--format", "csv",
                  "--out", str(csv_out)], _check_matrix_csv(g, "lmin"), csv_out),
        _command(["matrix", str(g.path), "--kind", "dmax", "--out", str(json_out)],
                 _check_matrix_json(g, "dmax"), json_out),
    ]


def _small_plan(rng):
    n, m = 8, 18
    # The 1-forest scan visits C(m, n) subsets, so m is held fixed.
    while True:
        spec = GraphSpec("forest-8", n, m / math.comb(n, 2), rng.getrandbits(32))
        if oracle.SignedGraphFile(spec.build()).m == m:
            return [spec], {"verify_seed": rng.getrandbits(31)}


def _small_commands(graphs, params, work):
    g = graphs["forest-8"]
    return [
        Command(["verify", "all", "--seed", str(params["verify_seed"])], _check_verify,
                controls={"verify suite reported FAIL": _verify_failed}),
        _command(["forests", str(g.path)], _check_forests(g)),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("balance-mixed", 7.2, _mixed_plan((60, 100, 140)), _balance_commands),
        Workload("spectrum-mid", 6.5, _mixed_plan((100, 140)), _spectrum_commands),
        Workload("export-large", 7.0, _export_plan, _export_commands),
        Workload("small-exact", 4.5, _small_plan, _small_commands),
    )
}
