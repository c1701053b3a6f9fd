"""Per-layer timing by wrapping the program's public functions.

The wrappers live in the benchmark, not in the program: installing them
rebinds each public function of an ``sdlap`` module in every ``sdlap``
module that holds a reference to it (``distance_table``, for example, is
bound in ``cli``, ``balance``, ``spectra`` and ``verify``, and imported
lazily from ``distance`` by ``matrices``). Each wrapper records a span;
a span's self time is its duration minus the spans nested inside it.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Span group of public functions with a metric of their own. Every
# public function of matrices builds a matrix ("matrices.build"); the rest
# of a module's public functions fall into "<module>.other".
GROUPS = {
    "parse_edge_list": "core.parse",
    "generate": "core.generate",
    "serialize": "core.serialize",
    "distance_table": "distance.table",
    "det_exact": "balance.det",
    "is_balanced_switching": "balance.switching",
    "forest_det": "balance.forest",
    "enumerate_spanning_1forests": "balance.forest",
    "sym_eig": "spectra.eig",
    "forest_theorem_suite": "verify.forest_theorem",
    "balance_equivalence_suite": "verify.balance_equivalence",
    "cospectrality_suite": "verify.cospectrality",
    "transmission_shift_suite": "verify.transmission_shift",
    "incidence_factorization_suite": "verify.incidence_factorization",
}
LAYERS = ("core", "distance", "matrices", "balance", "spectra", "verify")
# Output encoders: the CLI's own helpers and the result types' exporters.
ENCODER_FUNCTIONS = ("_json_dump", "_emit")
ENCODER_METHODS = {
    "SquareMatrix": ("to_csv", "to_json_obj"),
    "Spectrum": ("to_csv", "to_json_obj"),
    "BalanceReport": ("to_json_obj",),
}


# Per-layer metrics reported by a traced run: name -> (unit, better).
PER_LAYER = {
    "core.parse_s": ("s", "lower"),
    "core.parse_calls": ("count", "lower"),
    "core.generate_s": ("s", "lower"),
    "core.serialize_s": ("s", "lower"),
    "core.other_s": ("s", "lower"),
    "distance.table_s": ("s", "lower"),
    "distance.table_calls": ("count", "lower"),
    "distance.tables_per_cmd": ("count", "lower"),
    "distance.pairs_per_s": ("1/s", "higher"),
    "distance.other_s": ("s", "lower"),
    "matrices.build_s": ("s", "lower"),
    "matrices.build_calls": ("count", "lower"),
    "balance.det_s": ("s", "lower"),
    "balance.det_calls": ("count", "lower"),
    "balance.det_order_sum": ("count", "lower"),
    "balance.det_bits_max": ("bits", "lower"),
    "balance.switching_s": ("s", "lower"),
    "balance.switching_calls": ("count", "lower"),
    "balance.forest_s": ("s", "lower"),
    "balance.forest_calls": ("count", "lower"),
    "balance.forest_candidates": ("count", "lower"),
    "balance.forests_found": ("count", "lower"),
    "balance.balanced_share": ("ratio", "higher"),
    "balance.other_s": ("s", "lower"),
    "spectra.eig_s": ("s", "lower"),
    "spectra.eig_calls": ("count", "lower"),
    "spectra.eig_order_sum": ("count", "lower"),
    "spectra.max_dev_vs_ref": ("abs", "lower"),
    "spectra.other_s": ("s", "lower"),
    "verify.forest_theorem_s": ("s", "lower"),
    "verify.balance_equivalence_s": ("s", "lower"),
    "verify.cospectrality_s": ("s", "lower"),
    "verify.transmission_shift_s": ("s", "lower"),
    "verify.incidence_factorization_s": ("s", "lower"),
    "verify.other_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.encode_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "cli.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "host.ref_loop_s": ("s", "lower"),
}


def _order(m) -> int:
    return int(np.shape(getattr(m, "entries", m))[0])


class Tracer:
    """Span and counter recorder; use as a context manager around calls
    into ``sdlap.cli.main``. Wrappers are removed on exit."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.det_bits_max = 0
        self.eig_inputs = []
        self._children = []
        self._undo = []

    def _span(self, group, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.self_s[group] += duration - self._children.pop()
                self.calls[group] += 1
                if self._children:
                    self._children[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_det(self, args, result):
        self.counts["det_order_sum"] += _order(args[0])
        self.det_bits_max = max(self.det_bits_max, abs(result).bit_length())

    def _after_eig(self, args, result):
        a = np.array(getattr(args[0], "entries", args[0]), dtype=float)
        self.eig_inputs.append((a, np.array(result.eigenvalues)))

    def _after_table(self, args, result):
        self.counts["table_pairs"] += result.n * result.n

    def _after_emit(self, args, result):
        self.counts["output_bytes"] += len(args[0])

    def _counted_scan(self, scan):
        @functools.wraps(scan)
        def wrapper(g, *args, **kwargs):
            found = 0
            for item in scan(g, *args, **kwargs):
                found += 1
                yield item
            self.counts["forest_candidates"] += math.comb(g.m, g.n)
            self.counts["forests_found"] += found

        return wrapper

    def _rebind(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def __enter__(self):
        import sdlap.cli  # noqa: F401  (loads every sdlap module)

        modules = [m for name, m in sys.modules.items()
                   if name == "sdlap" or name.startswith("sdlap.")]
        after = {
            "det_exact": self._after_det,
            "sym_eig": self._after_eig,
            "distance_table": self._after_table,
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"sdlap.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    group = GROUPS.get(name, f"{layer}.other")
                    if layer == "matrices":
                        group = "matrices.build"
                    wrappers[fn] = self._span(group, fn, after.get(name))
        cli = sys.modules["sdlap.cli"]
        wrappers[cli.main] = self._span("cli.main", cli.main)
        for name in ENCODER_FUNCTIONS:
            fn = getattr(cli, name)
            wrappers[fn] = self._span(
                "cli.encode", fn, self._after_emit if name == "_emit" else None)
        balance = sys.modules["sdlap.balance"]
        wrappers[balance._scan_1forests] = self._counted_scan(balance._scan_1forests)

        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(module, name, wrappers[value])
        for module in modules:
            for cls_name, methods in ENCODER_METHODS.items():
                cls = vars(module).get(cls_name)
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    for name in methods:
                        self._rebind(cls, name, self._span("cli.encode", vars(cls)[name]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        return False

    def metrics(self, commands: int) -> dict[str, float]:
        """The span-derived part of PER_LAYER; eigenvalue reference checks
        run here, after all spans are closed."""
        s, c, k = self.self_s, self.calls, self.counts
        max_dev = max((float(np.abs(np.linalg.eigvalsh(a) - values).max())
                       for a, values in self.eig_inputs if a.size), default=0.0)
        out = {
            "core.parse_s": s["core.parse"],
            "core.parse_calls": c["core.parse"],
            "core.generate_s": s["core.generate"],
            "core.serialize_s": s["core.serialize"],
            "core.other_s": s["core.other"],
            "distance.table_s": s["distance.table"],
            "distance.table_calls": c["distance.table"],
            "distance.tables_per_cmd": c["distance.table"] / commands,
            "distance.pairs_per_s": (k["table_pairs"] / s["distance.table"]
                                     if s["distance.table"] else 0.0),
            "distance.other_s": s["distance.other"],
            "matrices.build_s": s["matrices.build"],
            "matrices.build_calls": c["matrices.build"],
            "balance.det_s": s["balance.det"],
            "balance.det_calls": c["balance.det"],
            "balance.det_order_sum": k["det_order_sum"],
            "balance.det_bits_max": self.det_bits_max,
            "balance.switching_s": s["balance.switching"],
            "balance.switching_calls": c["balance.switching"],
            "balance.forest_s": s["balance.forest"],
            "balance.forest_calls": c["balance.forest"],
            "balance.forest_candidates": k["forest_candidates"],
            "balance.forests_found": k["forests_found"],
            "balance.other_s": s["balance.other"],
            "spectra.eig_s": s["spectra.eig"],
            "spectra.eig_calls": c["spectra.eig"],
            "spectra.eig_order_sum": sum(a.shape[0] for a, _ in self.eig_inputs),
            "spectra.max_dev_vs_ref": max_dev,
            "spectra.other_s": s["spectra.other"],
        }
        for suite in ("forest_theorem", "balance_equivalence", "cospectrality",
                      "transmission_shift", "incidence_factorization"):
            out[f"verify.{suite}_s"] = s[f"verify.{suite}"]
        out["verify.other_s"] = s["verify.other"]
        out["cli.encode_s"] = s["cli.encode"]
        out["cli.output_bytes"] = k["output_bytes"]
        out["cli.untraced_s"] = s["cli.main"]
        return out
