"""Seeded inputs, timed operations and output checks of the library workloads,
plus the in-process steps of the CLI section of the traced ``vr-dense`` run.

Imported by worker.py only after the worker has timed ``import wordhom``.
Every operation takes a tracer; with tracing off it is a NullTracer and
spans cost one ``nullcontext`` each.
"""

from __future__ import annotations

import io
import itertools
import random
import string
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import wordhom as wh
from wordhom import cli
from wordhom.clustering import markov_clusters, modularity, persistence_clusters, sweep, threshold_clusters
from wordhom.exports import write_barcode_tsv, write_cycles_tsv, write_sweep_tsv

DENSITY = 0.5
MCL_GRID = tuple(round(1.2 + 0.2 * k, 1) for k in range(8))
VR_DENSE = dict(vertices=(60, 14), max_dim=3, field=2)  # vertices: full, smoke
CORPUS_WORDS = (500, 100)  # full, smoke
CLI_GRAPH_VERTICES = (20, 10)


@dataclass
class Outcome:
    outputs: dict[str, str]
    facts: dict


def _words(rng: random.Random, n: int) -> list[str]:
    out: list[str] = []
    seen = set()
    while len(out) < n:
        w = "".join(rng.choice(string.ascii_uppercase) for _ in range(8))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _random_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Exactly round(DENSITY * n(n-1)/2) edges, strengths from U(0.01, 1]."""
    pairs = list(itertools.combinations(range(n), 2))
    chosen = sorted(rng.sample(pairs, round(DENSITY * len(pairs))))
    return [(i, j, 1.0 - 0.99 * rng.random()) for i, j in chosen]


def vr_text(name: str, seed: int, n: int) -> str:
    """Edge list of the workload's dense random graph, as the seed presents it.

    The edge set, edge order and strength order come from a fixed
    per-workload structure seed; ``seed`` picks the words and an
    order-preserving remap of the strengths within (0.01, 1]. Reduction
    work at n=60 depends on the structure and on vertex order (its
    spread across random graphs is about 40% of the median), so keeping
    them fixed is what lets one run's time stand for the workload.
    """
    rng = random.Random(f"{name}/{seed}")
    words = _words(rng, n)
    power = rng.uniform(0.8, 1.25)
    lines = []
    for i, j, s in _random_edges(random.Random(f"{name}/structure"), n):
        s = min(1.0, 0.01 + 0.99 * ((s - 0.01) / 0.99) ** power)
        lines.append(f"{words[i]}\t{words[j]}\t{s!r}\n")
    return "".join(lines)


def corpus_text(seed: int, n_words: int) -> str:
    buf = io.StringIO()
    wh.synthetic_corpus(n_words=n_words, seed=seed).write_edge_list(buf)
    return buf.getvalue()


def cli_graph_text(seed: int, n: int) -> str:
    rng = random.Random(f"cli-graph/{seed}")
    words = _words(rng, n)
    return "".join(f"{words[i]}\t{words[j]}\t{s!r}\n" for i, j, s in _random_edges(rng, n))


def make_input(workload: str, seed: int, smoke: bool) -> dict:
    if workload == "vr-dense":
        max_dim, p = VR_DENSE["max_dim"], VR_DENSE["field"]
        config = {"workload": workload, "max_dim": max_dim, "field": p}
        text = vr_text(workload, seed, VR_DENSE["vertices"][smoke])
        return dict(text=text, max_dim=max_dim, p=p, config=config)
    if workload == "sweep-corpus":
        return dict(text=corpus_text(seed, CORPUS_WORDS[smoke]))
    raise ValueError(f"no library operation for workload {workload!r}")


# ---------------------------------------------------------------- operations


def vr_op(inp: dict, tr, keep: bool = False) -> Outcome:
    with tr.span("corpus.parse"):
        corpus = wh.parse_edge_list(io.StringIO(inp["text"]))
    with tr.span("corpus.convert"):
        graph = corpus.to_dissimilarity()
    with tr.span("complexes.build"):
        filt = wh.build_vr_filtration(graph, max_dim=inp["max_dim"])
    with tr.span("reduction.reduce"):
        reduced = wh.reduce_filtration(filt, wh.PrimeField(inp["p"]))
    with tr.span("reduction.barcode"):
        barcode = reduced.barcode()
    outputs = {}
    with tr.span("exports.barcode_tsv"):
        buf = io.StringIO()
        write_barcode_tsv(buf, barcode, config=inp["config"])
        outputs["barcode.tsv"] = buf.getvalue()
    with tr.span("svg.render"):
        outputs["barcode.svg"] = wh.render_barcode_svg(barcode, config=inp["config"])
    if not (keep or tr.enabled):
        return Outcome(outputs, {})
    sizes = [0] * (inp["max_dim"] + 1)
    for s, _ in filt:
        sizes[s.dim] += 1
    if tr.enabled:
        zero = sum(1 for i, j in reduced.pairs if filt.entries[i][1] == filt.entries[j][1])
        for k in range(4):
            tr.count(f"complexes.simplices_d{k}", sizes[k] if k < len(sizes) else 0)
        tr.count("reduction.pairs", len(reduced.pairs))
        tr.count("reduction.essentials", len(reduced.essentials))
        tr.count("reduction.zero_length_pairs", zero)
        tr.count("reduction.zero_length_frac", zero / len(reduced.pairs) if reduced.pairs else 0.0)
        tr.count("exports.bytes", len(outputs["barcode.tsv"].encode()))
        tr.count("svg.bytes", len(outputs["barcode.svg"].encode()))
    return Outcome(outputs, {"barcode": barcode, "sizes": sizes})


def sweep_op(inp: dict, tr, keep: bool = False) -> Outcome:
    with tr.span("corpus.parse"):
        corpus = wh.parse_edge_list(io.StringIO(inp["text"]))
    with tr.span("corpus.convert"):
        graph = corpus.to_weighted_graph()
    events = graph.dissimilarity_events()
    results = {}
    with tr.span("clustering.sweep_threshold"):
        results["threshold"] = sweep(graph, "threshold", events)
    with tr.span("clustering.sweep_persistence"):
        results["persistence"] = sweep(graph, "persistence", events)
    with tr.span("clustering.sweep_mcl"):
        results["mcl"] = sweep(graph, "mcl", MCL_GRID)
    outputs = {}
    with tr.span("exports.sweep_tsv"):
        for method, result in results.items():
            buf = io.StringIO()
            write_sweep_tsv(buf, result, config={"method": method})
            outputs[f"sweep-{method}.tsv"] = buf.getvalue()
    if tr.enabled:
        tr.count("exports.bytes", sum(len(v.encode()) for v in outputs.values()))
    return Outcome(outputs, {"results": results, "graph": graph} if keep else {})


def sweep_breakdown(inp: dict, tr) -> dict:
    """The sweeps' grids again, one public per-point call at a time, so the
    trace can split each sweep into clustering and modularity."""
    corpus = wh.parse_edge_list(io.StringIO(inp["text"]))
    graph = corpus.to_weighted_graph()
    events = graph.dissimilarity_events()
    rows: dict[str, list] = {"threshold": [], "persistence": [], "mcl": []}
    iters = unconverged = 0
    for method, grid in (("threshold", events), ("persistence", events), ("mcl", MCL_GRID)):
        for param in grid:
            with tr.span(f"clustering.{method}"):
                if method == "threshold":
                    clustering = threshold_clusters(graph, param)
                elif method == "persistence":
                    clustering = persistence_clusters(graph, param)
                else:
                    result = markov_clusters(graph, param)
                    clustering = result.clustering
                    iters += result.n_iter
                    unconverged += not result.converged
            with tr.span("clustering.modularity"):
                q = modularity(graph, clustering)
            rows[method].append((param, q, clustering.n_clusters))
    tr.count("clustering.grid_points", sum(len(r) for r in rows.values()))
    tr.count("clustering.mcl_iters", iters)
    tr.count("clustering.mcl_unconverged", unconverged)
    return rows


OPS = {"vr-dense": vr_op, "sweep-corpus": sweep_op}


# ---------------------------------------------------------------- checks


class _UnionFind:
    def __init__(self, items):
        self.parent = {v: v for v in items}
        self.components = len(self.parent)

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.components -= 1


def _edges_of(text: str) -> list[tuple[float, str, str]]:
    """(dissimilarity, word, word) rows sorted by dissimilarity."""
    rows = []
    for line in text.splitlines():
        a, b, s = line.split("\t")
        rows.append((1.0 - float(s), a, b))
    rows.sort()
    return rows


def _components_at(edges, thresholds):
    """Connected-component count at each threshold (ascending)."""
    uf = _UnionFind({w for _, a, b in edges for w in (a, b)})
    out, k = [], 0
    for eps in thresholds:
        while k < len(edges) and edges[k][0] <= eps:
            uf.union(edges[k][1], edges[k][2])
            k += 1
        out.append(uf.components)
    return out


def check_vr(inp: dict, ref: Outcome) -> tuple[list[str], list[str]]:
    problems = []
    barcode, sizes = ref.facts["barcode"], ref.facts["sizes"]
    edges = _edges_of(inp["text"])
    events = sorted({d for d, _, _ in edges})
    counts = _components_at(edges, events)
    for eps, n_comp in zip(events, counts):
        alive = barcode.alive_count(0, eps)
        if alive != n_comp:
            problems.append(f"dim-0 alive count {alive} != {n_comp} components at {eps!r}")
            break
    euler = sum((-1) ** k * n for k, n in enumerate(sizes))
    infinite = sum((-1) ** iv.dim for iv in barcode.all_intervals() if iv.is_infinite)
    if euler != infinite:
        problems.append(f"Euler characteristic {euler} != alternating infinite-bar count {infinite}")
    return problems, []


def check_cycles(text: str, p: int) -> list[str]:
    """Every representative cycle in a cycles TSV has zero boundary over Z/p."""
    field = wh.PrimeField(p)
    cycles = _cycles_of(text)
    if not cycles:
        return ["cycles TSV holds no cycle"]
    for dim, terms in cycles:
        chain = wh.Chain(dim, {wh.Simplex(v): c for v, c in terms.items()})
        if not wh.boundary_chain(chain, field).is_zero:
            return [f"exported dim-{dim} cycle has nonzero boundary"]
    return []


def _cycles_of(text: str):
    cycles = []
    for line in text.splitlines():
        if line.startswith("# interval"):
            cycles.append([int(line.split("k=")[1].split()[0]), {}])
        elif not line.startswith("#"):
            k, coeff, verts = line.split("\t")
            cycles[-1][1][tuple(int(v) for v in verts.split(","))] = int(coeff)
    return cycles


def check_sweep(inp: dict, ref: Outcome) -> tuple[list[str], list[str]]:
    problems, skipped = [], []
    results, graph = ref.facts["results"], ref.facts["graph"]
    edges = _edges_of(inp["text"])
    rows = results["threshold"].rows
    counts = _components_at(edges, [r.param for r in rows])
    bad = [r.param for r, n in zip(rows, counts) if r.n_clusters != n]
    if bad:
        problems.append(f"threshold cluster counts differ from components at {len(bad)} grid points")
    best = {m: r.best for m, r in results.items()}
    if not best["persistence"].q > best["threshold"].q:
        problems.append(f"best persistence Q {best['persistence'].q!r} <= best threshold Q {best['threshold'].q!r}")
    try:
        import networkx as nx
    except ImportError:
        skipped.append("networkx modularity of the best rows (networkx not installed)")
        return problems, skipped
    words = wh.parse_edge_list(io.StringIO(inp["text"])).words
    g = nx.Graph()
    g.add_nodes_from(words)
    for line in inp["text"].splitlines():
        a, b, s = line.split("\t")
        g.add_edge(a, b, weight=float(s))
    partitions = {
        "threshold": threshold_clusters(graph, best["threshold"].param),
        "persistence": persistence_clusters(graph, best["persistence"].param),
        "mcl": markov_clusters(graph, best["mcl"].param).clustering,
    }
    for method, clustering in partitions.items():
        groups: dict[int, set] = {}
        for v, label in enumerate(clustering.labels):
            groups.setdefault(label, set()).add(words[v])
        q = nx.community.modularity(g, list(groups.values()), weight="weight")
        if abs(q - best[method].q) > 1e-9:
            problems.append(f"best {method} Q {best[method].q!r} != networkx {q!r}")
    return problems, skipped


def check_breakdown(ref: Outcome, rows: dict) -> list[str]:
    """The per-point calls must reproduce the sweeps' rows exactly."""
    problems = []
    for method, result in ref.facts["results"].items():
        mine = [(r.param, r.q, r.n_clusters) for r in result.rows]
        if mine != rows[method]:
            problems.append(f"per-point {method} rows differ from sweep()")
    return problems


CHECKS = {"vr-dense": check_vr, "sweep-corpus": check_sweep}


# ---------------------------------------------------------------- CLI section


def cli_prepare(seed: int, smoke: bool, persist_argv: list[str]) -> dict[str, str]:
    """The CLI section's input files, and the barcode rows the library
    path gives for its ``persist`` call."""
    files = {
        "graph.tsv": cli_graph_text(seed, CLI_GRAPH_VERTICES[smoke]),
        "corpus.tsv": corpus_text(seed, CORPUS_WORDS[smoke]),
    }
    args = cli.build_parser().parse_args(persist_argv)
    corpus = wh.parse_edge_list(io.StringIO(files["graph.tsv"]))
    filt = wh.build_vr_filtration(corpus.to_dissimilarity(), max_dim=args.max_dim, max_eps=args.max_eps)
    buf = io.StringIO()
    write_barcode_tsv(buf, wh.reduce_filtration(filt, wh.PrimeField(args.field)).barcode())
    files["expected-barcode.tsv"] = buf.getvalue()
    return files


def cli_check(sequence: list[list[str]]) -> list[str]:
    """Checks of the files the CLI calls left in the current directory:
    the ``persist`` call's representative cycles have zero boundary."""
    argv = next(a for a in sequence if a[0] == "persist")
    args = cli.build_parser().parse_args(argv)
    with open(args.cycles, encoding="utf-8") as fh:
        return check_cycles(fh.read(), args.field)


def cli_breakdown(sequence: list[list[str]], tr) -> None:
    """Each CLI call in-process, after one import, plus the library route
    of the ``persist`` call's cycle export and of the ``betti`` call.

    Only the CLI's own layers get spans here: parsing, building and
    reducing the 20-word graph stay untraced, so that they do not mix
    into the ``vr-dense`` figures of the same traced run."""
    sink = io.StringIO()
    for i, argv in enumerate(sequence):
        tr.op = f"main-{i}"
        with redirect_stdout(sink), redirect_stderr(sink), tr.span("cli.main"):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"in-process wordhom {' '.join(argv)} exited {code}")
        if argv[0] not in ("persist", "betti"):
            continue
        args = cli.build_parser().parse_args(argv)
        with open(args.input, encoding="utf-8") as fh:
            corpus = wh.parse_edge_list(fh)
        filt = wh.build_vr_filtration(corpus.to_dissimilarity(), max_dim=args.max_dim, max_eps=args.max_eps)
        field = wh.PrimeField(args.field)
        if argv[0] == "persist":
            reduced = wh.reduce_filtration(filt, field)
            with tr.span("exports.cycles_tsv"):
                buf = io.StringIO()
                write_cycles_tsv(buf, reduced)
            rows = buf.getvalue().splitlines()
            tr.count("exports.cycle_terms", sum(1 for line in rows if not line.startswith("#")))
        else:
            with tr.span("homology.betti"):
                for k in range(args.max_dim + 1):
                    wh.betti_at(filt, args.at, k, field)
