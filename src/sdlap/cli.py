"""Command-line front end.

Exit codes: 0 success, 1 computation error (disconnected input,
incompatible pair for a pm matrix, enumeration size bound, an int64 or
float64 vertex weight sum or a float 1-forest sum that overflows,
verification failure), 2 usage or input-format error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from .balance import (
    SizeBoundError,
    _as_one_forest,
    _forest_sum,
    _scan_1forests,
    closed_form_det,
    is_balanced_det,
    is_balanced_forest,
    is_balanced_switching,
)
from .core import (
    GenerationError,
    GraphFormatError,
    SignedGraph,
    components,
    generate,
    parse_edge_list,
    serialize,
)
from .distance import (
    DISTANCE_KINDS,
    DisconnectedGraphError,
    IncompatibleGraphError,
    distance_matrix,
    distance_table,
    is_compatible,
    transmission,
)
from .matrices import (
    adjacency_matrix,
    distance_laplacian_from_table,
    incidence_matrix,
    weighted_degree_matrix,
    weighted_laplacian,
)
from .spectra import MULTIPLICITY_TOL, sym_eig
from .verify import MIN_VERIFY_N, SUITES, run_all, run_suite

MATRIX_KINDS = (
    "dmax", "dmin", "dpm", "lmax", "lmin", "lpm",
    "adjacency", "degree", "laplacian", "incidence",
)
SPECTRUM_KINDS = ("lmax", "lmin", "lpm", "adjacency", "laplacian")


class _UsageError(ValueError):
    """Bad generator spec or similar user-input problem: exit code 2."""


def _load(path: str) -> SignedGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
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


def _build_matrix(g: SignedGraph, kind: str):
    if kind in ("dmax", "dmin", "dpm"):
        return distance_matrix(distance_table(g), kind[1:])
    if kind in ("lmax", "lmin", "lpm"):
        return distance_laplacian_from_table(distance_table(g), kind[1:])
    if kind == "adjacency":
        return adjacency_matrix(g)
    if kind == "degree":
        return weighted_degree_matrix(g)
    if kind == "laplacian":
        return weighted_laplacian(g)
    return incidence_matrix(g)


def _cmd_info(args) -> int:
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
        table = distance_table(g)
        compatible, witness = is_compatible(table)
        info["compatible"] = compatible
        if witness is not None:
            info["incompatible_pair"] = [witness[0] + 1, witness[1] + 1]
        info["transmissions"] = [int(t) for t in transmission(table)]
        info["balanced"] = is_balanced_switching(g).balanced
    cf = closed_form_det(g)
    info["closed_form_det"] = cf if cf is None or isinstance(cf, float) else str(cf)
    _emit(_json_dump(info), args.out)
    return 0


def _cmd_matrix(args) -> int:
    matrix = _build_matrix(_load(args.file), args.kind)
    with _output(args.out) as f:
        matrix.write(f, args.format)
    return 0


def _cmd_balance(args) -> int:
    g = _load(args.file)
    if args.method == "switching":
        _emit(_json_dump(is_balanced_switching(g).to_json_obj()), args.out)
    elif args.method == "det":
        _emit(_json_dump(is_balanced_det(g, args.kind).to_json_obj()), args.out)
    elif args.method == "forest":
        _emit(_json_dump(is_balanced_forest(g).to_json_obj()), args.out)
    else:
        sw = is_balanced_switching(g)
        table = distance_table(g)
        det_max = is_balanced_det(g, "max", table=table, switching=sw)
        det_min = is_balanced_det(g, "min", table=table, switching=sw)
        result = {
            "balanced": sw.balanced,
            "det_lmax": str(det_max.determinant),
            "det_lmin": str(det_min.determinant),
            "switching": "balanced" if sw.balanced else "unbalanced",
        }
        _emit(_json_dump(result), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise _UsageError(
            f"--tolerance must be finite and nonnegative, got {args.tolerance}"
        )
    spectrum = sym_eig(_build_matrix(_load(args.file), args.kind), grouping_tol=args.tolerance)
    if args.format == "csv":
        _emit(spectrum.to_csv(), args.out)
    else:
        _emit(_json_dump(spectrum.to_json_obj()), args.out)
    return 0


def _cmd_forests(args) -> int:
    g = _load(args.file)
    leaves = list(_scan_1forests(g, args.kind == "contrabalanced"))
    total = _forest_sum(g, leaves)
    result = {
        "count": len(leaves),
        "forest_sum": str(total) if isinstance(total, int) else total,
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
            for f in (_as_one_forest(g, leaf) for leaf in leaves)
        ]
    _emit(_json_dump(result), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.n is not None and args.n < MIN_VERIFY_N:
        raise _UsageError(f"--n must be at least {MIN_VERIFY_N}, got {args.n}")
    if args.suite == "all":
        reports = run_all(n_max=args.n, seed=args.seed)
    else:
        reports = [run_suite(args.suite, n_max=args.n, seed=args.seed)]
    if args.format == "json":
        _emit(_json_dump([r.to_json_obj() for r in reports]), args.out)
    else:
        _emit("".join(r.summary() + "\n" for r in reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _parse_gen_spec(spec: str):
    parts = spec.split(":")
    if len(parts) < 2:
        raise _UsageError(f"generator spec {spec!r} needs at least kind:n")
    kind = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise _UsageError(f"generator spec {spec!r}: bad vertex count {parts[1]!r}")
    signs = None
    seed = None
    p = 0.5
    for token in parts[2:]:
        if token.startswith("seed="):
            try:
                seed = int(token[5:])
            except ValueError:
                raise _UsageError(f"bad seed in {spec!r}")
        elif token.startswith("p="):
            try:
                p = float(token[2:])
            except ValueError:
                raise _UsageError(f"bad probability in {spec!r}")
        else:
            signs = token
    return kind, n, signs, seed, p


def _cmd_gen(args) -> int:
    kind, n, signs, seed, p = _parse_gen_spec(args.spec)
    try:
        g = generate(kind, n, signs, seed=seed, p=p)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(serialize(g), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdlap",
        description="Signed distance matrices, signed distance Laplacians, "
        "balance certificates, and spectra of signed graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_info = sub.add_parser("info", help="basic facts about a graph file")
    p_info.add_argument("file")
    add_common(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_matrix = sub.add_parser("matrix", help="emit a matrix of the graph")
    p_matrix.add_argument("file")
    p_matrix.add_argument("--kind", required=True, choices=MATRIX_KINDS)
    p_matrix.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p_matrix)
    p_matrix.set_defaults(func=_cmd_matrix)

    p_balance = sub.add_parser("balance", help="decide balance")
    p_balance.add_argument("file")
    p_balance.add_argument(
        "--method", choices=("switching", "det", "forest", "both"), default="both"
    )
    p_balance.add_argument(
        "--kind", choices=DISTANCE_KINDS, default="max",
        help="which determinant to use with --method det",
    )
    add_common(p_balance)
    p_balance.set_defaults(func=_cmd_balance)

    p_spectrum = sub.add_parser("spectrum", help="eigenvalues of a matrix")
    p_spectrum.add_argument("file")
    p_spectrum.add_argument("--kind", choices=SPECTRUM_KINDS, default="lpm")
    p_spectrum.add_argument("--format", choices=("json", "csv"), default="json")
    p_spectrum.add_argument(
        "--tolerance", type=float, default=MULTIPLICITY_TOL,
        help="multiplicity grouping tolerance",
    )
    add_common(p_spectrum)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_forests = sub.add_parser("forests", help="spanning 1-forest census")
    p_forests.add_argument("file")
    p_forests.add_argument(
        "--kind", choices=("all", "contrabalanced"), default="all",
        help="which spanning 1-forests to count",
    )
    p_forests.add_argument("--list", action="store_true",
                           help="include each forest in the output")
    add_common(p_forests)
    p_forests.set_defaults(func=_cmd_forests)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--n", type=int, default=None,
                          help=f"vertex count bound, at least {MIN_VERIFY_N}")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="write a generated graph file")
    p_gen.add_argument(
        "spec",
        help="kind:n[:signs][:p=F][:seed=N], e.g. cycle:5:allneg or "
        "random:8:p=0.4:seed=3; signs may be allpos, allneg, or a +/- string",
    )
    add_common(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (GraphFormatError, _UsageError) as exc:
        print(f"sdlap: {exc}", file=sys.stderr)
        return 2
    except (DisconnectedGraphError, IncompatibleGraphError, SizeBoundError,
            GenerationError, ValueError, ArithmeticError) as exc:
        print(f"sdlap: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
