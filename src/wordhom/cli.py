"""Command-line front end: ingestion -> filtration -> persistence ->
clustering -> export.

Exit codes: 0 success, 1 usage error, 2 data error. Every output file
starts with a `#` header echoing the effective configuration, and
identical inputs always produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

from . import __version__
from .clustering import (
    SWEEP_METHODS,
    markov_clusters,
    modularity,
    persistence_clusters,
    sweep,
    threshold_clusters,
)
from .complexes import VERTEX_BIRTH_MODES, SimplexBudgetError, build_vr_filtration
from .corpus import DataFormatError, parse_edge_list, parse_stimulus_counts
from .exports import (
    read_barcode_tsv,
    read_filtration_tsv,
    write_barcode_tsv,
    write_clustering_tsv,
    write_cycles_tsv,
    write_filtration_tsv,
    write_sweep_tsv,
)
from .fields import PrimeField
from .reduction import reduce_filtration
from .svg import render_barcode_svg

DEFAULT_SIMPLEX_BUDGET = 50_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextmanager
def _open_out(path: str):
    """Stdout for '-', else the file; :func:`_check_paths` has vetted its directory."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _check_paths(args, *out_attrs) -> None:
    """Fail before any work if a named path cannot resolve."""
    if getattr(args, "input", None) is not None and not os.path.isfile(args.input):
        raise DataFormatError(None, f"input file not found: {args.input}")
    for attr in out_attrs:
        path = getattr(args, attr, None)
        if path is None or path == "-":
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise DataFormatError(None, f"output directory does not exist: {parent}")


def _config(args) -> dict:
    # the effective arguments: a listed complex ignores the complex options,
    # and a clustering method those of the other methods
    skip = ("func",) + (_COMPLEX_KEYS if getattr(args, "format", None) == "filtration" else ())
    if getattr(args, "method", None) is not None:  # sweep --jobs spreads only mcl points
        skip += tuple(k for m, keys in _METHOD_KEYS.items() if m != args.method for k in keys)
        skip += ("jobs",) if args.method != "mcl" else ()
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    cfg["version"] = __version__
    return cfg


def _load_corpus(args):
    with open(args.input, encoding="utf-8") as fh:
        if args.format == "stimulus":
            return parse_stimulus_counts(fh)
        return parse_edge_list(fh)


def _load_filtration(args):
    if args.format == "filtration":
        with open(args.input, encoding="utf-8") as fh:
            return read_filtration_tsv(fh)
    corpus = _load_corpus(args)
    return build_vr_filtration(
        corpus.to_weighted_graph(),
        max_dim=args.max_dim,
        max_eps=args.max_eps,
        vertex_birth=args.vertex_birth,
        max_simplices=args.max_simplices,
    )


def _add_input_args(p, formats=("edges", "stimulus")):
    p.add_argument("--in", dest="input", required=True, help="input TSV path")
    p.add_argument("--format", choices=formats, default="edges", help="input format")


_COMPLEX_KEYS = ("max_dim", "max_eps", "vertex_birth", "max_simplices")  # the dests below


def _add_complex_args(p):
    p.add_argument("--max-dim", type=int, default=3, help="largest simplex dimension")
    p.add_argument("--max-eps", type=float, default=1.0, help="largest dissimilarity scale")
    p.add_argument(
        "--vertex-birth",
        choices=VERTEX_BIRTH_MODES,
        default="zero",
        help="vertex birth convention",
    )
    p.add_argument(
        "--max-simplices",
        type=int,
        default=DEFAULT_SIMPLEX_BUDGET,
        help="refuse expansions beyond this many simplices",
    )


def _add_homology_args(p):
    _add_input_args(p, formats=("edges", "stimulus", "filtration"))
    _add_complex_args(p)
    p.add_argument("--field", type=int, default=2, help="prime coefficient field")


# the dests each clustering method reads: its parameter (a cluster option),
# then the keyword arguments it takes from the options below
_METHOD_KEYS = {
    "threshold": ("eps",),
    "persistence": ("tau", "vertex_birth"),
    "mcl": ("inflation", "expansion", "prune", "max_iter", "tol", "self_loop"),
}


def _add_clustering_args(p):
    _add_input_args(p)
    p.add_argument("--method", choices=SWEEP_METHODS, required=True)
    p.add_argument(
        "--vertex-birth",
        choices=VERTEX_BIRTH_MODES,
        default="first-edge",
        help="persistence method: vertex birth convention",
    )
    p.add_argument("--expansion", type=int, default=2, help="mcl: matrix power")
    p.add_argument("--prune", type=float, default=1e-5, help="mcl: drop entries below this")
    p.add_argument("--max-iter", type=int, default=200, help="mcl: iteration cap")
    p.add_argument("--tol", type=float, default=1e-8, help="mcl: convergence tolerance")
    p.add_argument("--self-loop", type=float, default=1.0, help="mcl: self-loop weight")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wordhom", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"wordhom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filtrate", help="export the Vietoris-Rips filtration as TSV")
    _add_input_args(p)
    _add_complex_args(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_filtrate)

    p = sub.add_parser("persist", help="compute persistence barcodes")
    _add_homology_args(p)
    p.add_argument("--out", default="-", help="barcode TSV path")
    p.add_argument("--svg", default=None, help="also render the barcode to this SVG path")
    p.add_argument("--cycles", default=None, help="also export representative cycles to this TSV path")
    p.add_argument("--include-zero-length", action="store_true", help="keep zero-length bars in exports")
    p.set_defaults(func=cmd_persist)

    p = sub.add_parser("betti", help="print Betti numbers at a fixed scale")
    _add_homology_args(p)
    p.add_argument("--at", type=float, required=True, help="scale at which to evaluate")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("cluster", help="cluster the corpus and print modularity")
    _add_clustering_args(p)
    p.add_argument("--eps", type=float, default=0.5, help="threshold method: dissimilarity cutoff")
    p.add_argument("--tau", type=float, default=0.2, help="persistence method: lifetime cutoff")
    p.add_argument("--inflation", type=float, default=2.0, help="mcl: entrywise power")
    p.add_argument("--out", default="-", help="clustering TSV path")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="score one method over a parameter grid")
    _add_clustering_args(p)
    p.add_argument(
        "--grid",
        default=None,
        help="comma-separated parameter values; defaults to the edge-dissimilarity events",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="mcl: worker processes for grid points (threshold and persistence "
        "sweeps run in one process, in one pass)",
    )
    p.add_argument("--out", default="-", help="sweep TSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="render a barcode TSV as SVG")
    p.add_argument("--in", dest="input", required=True, help="barcode TSV path")
    p.add_argument("--out", default="-", help="SVG output path")
    p.add_argument("--axis-max", type=float, default=None, help="x-axis upper bound")
    p.add_argument("--title", default=None, help="chart title")
    p.add_argument("--include-zero-length", action="store_true", help="draw zero-length bars")
    p.set_defaults(func=cmd_render)

    return parser


def cmd_filtrate(args) -> int:
    _check_paths(args, "out")
    filtration = _load_filtration(args)
    with _open_out(args.out) as out:
        write_filtration_tsv(out, filtration, config=_config(args))
    return 0


def cmd_persist(args) -> int:
    _check_paths(args, "out", "svg", "cycles")
    field = PrimeField(args.field)
    filtration = _load_filtration(args)
    reduced = reduce_filtration(filtration, field)
    barcode = reduced.barcode()
    cfg = _config(args)
    with _open_out(args.out) as out:
        write_barcode_tsv(out, barcode, config=cfg, include_zero_length=args.include_zero_length)
    if args.svg:
        with _open_out(args.svg) as out:
            out.write(
                render_barcode_svg(
                    barcode, include_zero_length=args.include_zero_length, config=cfg
                )
            )
    if args.cycles:
        with _open_out(args.cycles) as out:
            write_cycles_tsv(out, reduced, config=cfg, include_zero_length=args.include_zero_length)
    return 0


def cmd_betti(args) -> int:
    _check_paths(args)
    field = PrimeField(args.field)
    # a listed complex is whole, so --max-eps does not bound it; inf is
    # refused because no bar, essential ones included, is alive there
    if args.format == "filtration":
        if not (math.isfinite(args.at) and args.at >= 0):
            raise DataFormatError(None, f"--at {args.at} must be finite and >= 0")
    elif not 0 <= args.at <= args.max_eps:
        raise DataFormatError(None, f"--at {args.at} outside the built range [0, {args.max_eps}]")
    barcode = reduce_filtration(_load_filtration(args), field).barcode()
    numbers = [barcode.alive_count(k, args.at) for k in range(args.max_dim + 1)]
    print(" ".join(map(str, numbers)))
    return 0


def cmd_cluster(args) -> int:
    _check_paths(args, "out")
    corpus = _load_corpus(args)
    graph = corpus.to_weighted_graph()
    if args.method == "mcl":
        result = markov_clusters(graph, args.inflation, **_method_params(args))
        clustering = result.clustering
        if not result.converged:
            _warn(f"mcl did not converge within --max-iter {args.max_iter} iterations")
    elif args.method == "threshold":
        clustering = threshold_clusters(graph, args.eps)
    else:
        clustering = persistence_clusters(graph, args.tau, args.vertex_birth)
    q = modularity(graph, clustering)
    with _open_out(args.out) as out:
        write_clustering_tsv(out, corpus, clustering, config=_config(args))
    print(f"Q\t{q!r}")
    return 0


def _warn(message: str) -> None:
    print(f"wordhom: warning: {message}", file=sys.stderr)


def _method_params(args) -> dict:
    return {k: getattr(args, k) for k in _METHOD_KEYS[args.method][1:]}


def cmd_sweep(args) -> int:
    _check_paths(args, "out")
    corpus = _load_corpus(args)
    graph = corpus.to_weighted_graph()
    if args.grid is not None:
        try:
            grid = [float(v) for v in args.grid.split(",") if v.strip()]
        except ValueError:
            raise DataFormatError(None, f"malformed --grid {args.grid!r}")
    elif args.method in ("threshold", "persistence"):
        grid = list(graph.dissimilarity_events())
    else:
        raise DataFormatError(None, "mcl sweeps need an explicit --grid of inflation values")
    if not grid:
        raise DataFormatError(None, "empty parameter grid")
    result = sweep(graph, args.method, grid, jobs=args.jobs, **_method_params(args))
    with _open_out(args.out) as out:
        write_sweep_tsv(out, result, config=_config(args))
    if result.unconverged:
        _warn(
            f"mcl did not converge within --max-iter {args.max_iter} iterations at "
            f"{len(result.unconverged)} of {len(grid)} grid points: "
            + ",".join(map(repr, result.unconverged))
        )
    return 0


def cmd_render(args) -> int:
    _check_paths(args, "out")
    with open(args.input, encoding="utf-8") as fh:
        barcode = read_barcode_tsv(fh)
    doc = render_barcode_svg(
        barcode,
        include_zero_length=args.include_zero_length,
        axis_max=args.axis_max,
        title=args.title,
        config=_config(args),
    )
    with _open_out(args.out) as out:
        out.write(doc)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, SimplexBudgetError, OSError) as exc:  # DataFormatError is a ValueError
        print(f"wordhom: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
