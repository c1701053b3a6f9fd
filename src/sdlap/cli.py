"""Command-line front end.

Exit codes: 0 success, 1 computation error (disconnected input,
incompatible pair for a pm matrix, a 1-forest or distance-pass size
bound, an int64 or float64 vertex weight sum or a float 1-forest sum
that overflows, verification failure, memory that runs out, a stdout
that its reader closed early, which stops the command without a
message), 2 usage or input-format error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

from .core import (
    DISTANCE_KINDS,
    MIN_VERIFY_N,
    SUITE_NAMES,
    GenerationError,
    GraphFormatError,
    SignedGraph,
    _int_text,
    components,
    distance_summary,
    generate,
    parse_edge_list,
    serialize,
)


def _stub(*names: str) -> None:
    """Register each sdlap.<name> that is not loaded yet as a stub that runs
    the module on its first attribute access, so that a verb loads only the
    modules it uses (gen and --help load no numpy). The stubs sit in
    sys.modules, where perfbench/spans.py finds every layer.

    They are made here, not in the package: a stub runs its module without
    the import lock, so code that imports sdlap but not the CLI keeps the
    import system's thread-safe loading."""
    package = sys.modules[__package__]
    for name in names:
        fullname = f"{__package__}.{name}"
        if fullname in sys.modules:
            continue
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(package, name, module)


_stub("balance", "distance", "exact", "matrices", "spectra", "verify")
from . import balance, distance, matrices, spectra, verify  # noqa: E402

# Each matrix kind and its builder. A builder reaches distance and matrices
# only when it is called, so that building the parser loads no numpy.
MATRIX_KINDS = {
    **{f"d{k}": lambda g, k=k: distance.distance_matrix(distance.distance_table(g), k)
       for k in DISTANCE_KINDS},
    **{f"l{k}": lambda g, k=k: distance.distance_laplacian(distance.distance_table(g), k)
       for k in DISTANCE_KINDS},
    "adjacency": lambda g: matrices.adjacency_matrix(g),
    "degree": lambda g: matrices.weighted_degree_matrix(g),
    "laplacian": lambda g: matrices.weighted_laplacian(g),
    "incidence": lambda g: matrices.incidence_matrix(g),
}
SPECTRUM_KINDS = (*(f"l{k}" for k in DISTANCE_KINDS), "adjacency", "laplacian")


class _UsageError(ValueError):
    """Bad generator spec or similar user-input problem: exit code 2."""


def _load(path: str) -> SignedGraph:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a byte-order mark is dropped
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_edge_list(text)


@contextlib.contextmanager
def _output(out: str | None):
    if not out:
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8") as f:
            yield f
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    with _output(out) as f:
        f.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _cmd_info(args):
    g = _load(args.file)
    comps = components(g)
    info = {
        "n": g.n,
        "m": g.m,
        "positive_edges": sum(1 for _, _, s in g.edges if s > 0),
        "negative_edges": sum(1 for _, _, s in g.edges if s < 0),
        "integer_weights": g.integer_weights,
        "components": len(comps),
        "connected": len(comps) == 1,
    }
    if info["connected"]:
        transmissions, witness = distance_summary(g)
        info["compatible"] = witness is None
        if witness is not None:
            info["incompatible_pair"] = [witness[0] + 1, witness[1] + 1]
        info["transmissions"] = transmissions
        info["balanced"] = balance.is_balanced_switching(g).balanced
    cf = balance.closed_form_det(g)
    info["closed_form_det"] = cf if cf is None or isinstance(cf, float) else _int_text(cf)
    return 0, info


def _cmd_matrix(args):
    return 0, MATRIX_KINDS[args.kind](_load(args.file))


def _cmd_balance(args):
    if args.kind is not None and args.method != "det":
        raise _UsageError(f"--kind is for --method det only, not {args.method}")
    g = _load(args.file)
    if args.method == "switching":
        return 0, balance.is_balanced_switching(g).to_json_obj()
    if args.method == "det":
        return 0, balance.is_balanced_det(g, args.kind or "max").to_json_obj()
    if args.method == "forest":
        return 0, balance.is_balanced_forest(g).to_json_obj()
    sw = balance.is_balanced_switching(g)
    table = distance.distance_table(g)
    det_max = balance.is_balanced_det(g, "max", table=table, switching=sw)
    det_min = balance.is_balanced_det(g, "min", table=table, switching=sw)
    return 0, {
        "balanced": sw.balanced,
        "det_lmax": _int_text(det_max.determinant),
        "det_lmin": _int_text(det_min.determinant),
        "switching": "balanced" if sw.balanced else "unbalanced",
    }


def _cmd_spectrum(args):
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = spectra.MULTIPLICITY_TOL
    elif not 0 <= tolerance < math.inf:
        raise _UsageError(f"--tolerance must be finite and nonnegative, got {tolerance}")
    spectrum = spectra.sym_eig(MATRIX_KINDS[args.kind](_load(args.file)),
                               grouping_tol=tolerance)
    return 0, spectrum.to_csv() if args.format == "csv" else spectrum.to_json_obj()


def _cmd_forests(args):
    g = _load(args.file)
    contrabalanced = args.kind == "contrabalanced"
    count, total = balance.forest_census(g, contrabalanced)
    result = {
        "count": count,
        "forest_sum": _int_text(total) if isinstance(total, int) else total,
    }
    if args.list:
        result["forests"] = [
            {
                "edges": [[g.edges[ei][0] + 1, g.edges[ei][1] + 1] for ei in f.edges],
                "components": [
                    {
                        "vertices": [v + 1 for v in c.vertices],
                        "cycle": [v + 1 for v in c.cycle],
                        "sign": c.sign,
                    }
                    for c in f.components
                ],
            }
            for f in balance.enumerate_spanning_1forests(g, contrabalanced)
        ]
    return 0, result


def _cmd_verify(args):
    if args.n is not None and args.n < MIN_VERIFY_N:
        raise _UsageError(f"--n must be at least {MIN_VERIFY_N}, got {args.n}")
    if args.suite == "all":
        reports = verify.run_all(n_max=args.n, seed=args.seed, _fork=args.fork)
    else:
        reports = [verify.run_suite(args.suite, n_max=args.n, seed=args.seed)]
    code = 0 if all(r.passed for r in reports) else 1
    if args.format == "json":
        return code, [r.to_json_obj() for r in reports]
    return code, "".join(r.summary() + "\n" for r in reports)


# Each optional field of a gen spec: the prefix that names it, the generate
# keyword it sets, the reader of its value and the word a bad value is
# reported by. The empty prefix, last, takes any other token as the signs.
_GEN_FIELDS = {
    "seed=": ("seed", int, "seed"),
    "p=": ("p", float, "probability"),
    "q=": ("signs", float, "sign probability"),
    "": ("signs", str, "signs"),
}


def _parse_gen_spec(spec: str):
    parts = spec.split(":")
    if len(parts) < 2:
        raise _UsageError(f"generator spec {spec!r} needs at least kind:n")
    kind = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise _UsageError(f"generator spec {spec!r}: bad vertex count {parts[1]!r}")
    fields = {}
    for token in parts[2:]:
        prefix = next(prefix for prefix in _GEN_FIELDS if token.startswith(prefix))
        keyword, read, word = _GEN_FIELDS[prefix]
        if keyword in fields:
            raise _UsageError(f"generator spec {spec!r} gives {keyword} more than once")
        try:
            fields[keyword] = read(token[len(prefix):])
        except ValueError:
            raise _UsageError(f"bad {word} in {spec!r}")
    return kind, n, fields


def _cmd_gen(args):
    kind, n, fields = _parse_gen_spec(args.spec)
    try:
        g = generate(kind, n, **fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return 0, serialize(g)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdlap",
        description="Signed distance matrices, signed distance Laplacians, "
        "balance certificates, and spectra of signed graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, summary, func, positional, *options, **positional_kw):
        p = sub.add_parser(name, help=summary)
        p.add_argument(positional, **positional_kw)
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)

    verb("info", "basic facts about a graph file", _cmd_info, "file")
    verb("matrix", "emit a matrix of the graph", _cmd_matrix, "file",
         ("--kind", dict(required=True, choices=MATRIX_KINDS)),
         ("--format", dict(choices=("json", "csv"), default="json")))
    verb("balance", "decide balance", _cmd_balance, "file",
         ("--method", dict(choices=("switching", "det", "forest", "both"), default="both")),
         ("--kind", dict(choices=DISTANCE_KINDS,
                         help="which determinant to use with --method det (default max)")))
    verb("spectrum", "eigenvalues of a matrix", _cmd_spectrum, "file",
         ("--kind", dict(choices=SPECTRUM_KINDS, default="lpm")),
         ("--format", dict(choices=("json", "csv"), default="json")),
         ("--tolerance", dict(type=float, default=None,
                              help="multiplicity grouping tolerance")))
    verb("forests", "spanning 1-forest census", _cmd_forests, "file",
         ("--kind", dict(choices=("all", "contrabalanced"), default="all",
                         help="which spanning 1-forests to count")),
         ("--list", dict(action="store_true", help="include each forest in the output")))
    verb("verify", "run a verification suite", _cmd_verify, "suite",
         ("--n", dict(type=int, default=None,
                      help=f"vertex count bound, at least {MIN_VERIFY_N}")),
         ("--seed", dict(type=int, default=1)),
         ("--format", dict(choices=("text", "json"), default="text")),
         choices=(*SUITE_NAMES, "all"))
    verb("gen", "write a generated graph file", _cmd_gen, "spec",
         help="kind:n[:signs][:p=F][:seed=N], e.g. cycle:5:allneg or "
         "random:8:p=0.4:seed=3; signs may be allpos, allneg, a +/- string, "
         "or q=F, each edge negative with probability F")
    return parser


def main(argv=None, *, _fork: bool = False) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.fork = _fork
    try:
        code, result = args.func(args)
        # the result is complete before --out is opened: text is written as
        # is, a matrix streams itself and anything else is a JSON document
        if isinstance(result, str):
            _emit(result, args.out)
        elif hasattr(result, "write"):
            with _output(args.out) as f:
                result.write(f, args.format)
        else:
            _emit(_json_dump(result), args.out)
        sys.stdout.flush()
        return code
    except (GraphFormatError, _UsageError) as exc:
        print(f"sdlap: {exc}", file=sys.stderr)
        return 2
    except (GenerationError, ValueError, ArithmeticError) as exc:
        print(f"sdlap: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation that failed; Python's is empty
        print(f"sdlap: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. Point fd 1 at
        # devnull so that the interpreter's last flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def run() -> None:
    """The process entry: run main() on sys.argv, then freeze the heap and
    exit with its code.

    Only here may `verify all` fork: after its imports, a child process
    runs three of the five suites while this one runs the other two
    (verify.run_all), about 40 and 45 ms of work at seed 1530816428. It
    stays in one process without os.fork or os.sched_getaffinity, or with
    fewer than two usable CPUs.

    gc.freeze() moves every object tracked so far, numpy's included, to
    the permanent generation, which the collections at interpreter
    shutdown skip; atexit handlers, stream flushes and module teardown
    still run. main() itself never forks or freezes, so tests and library
    callers that call it stay in one process with a normal collector."""
    code = main(_fork=True)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
