"""Byte-identity guard for the persistence and sweep exports.

The files under ``data/identity`` hold the barcode and cycles TSVs of
three fixtures over Z/2 and Z/3, written by the boundary-column
reduction that preceded the cohomology reduction; the sweep TSVs of
every method on a 120-word synthetic corpus, written by the per-point
Markov iteration that preceded in-place column scaling; and the
filtration TSVs of the n=12 VR graph under both vertex-birth modes, of
the shell_arm complex and of a shuffled filtration file read back and
written out again, written by the ``Simplex``-backed filtration that
preceded the array-backed one; and the Markov flow points (iterations,
convergence and labels) of the 500-word corpus the benchmark sweeps,
written by the ``@`` expansion product that preceded the direct call
of scipy's numeric product kernel; and the pair and essential indices
of a denser n=30 VR graph over Z/2 and Z/3, written by the dict-column
reduction that preceded the Z/2 bitset columns. Any change to the
filtrations, the reduction or the clustering must reproduce them byte
for byte. To rewrite them after a deliberate change of output, run
``python tests/test_identity.py``.
"""

import hashlib
import io
import random
from pathlib import Path

import pytest

from wordhom import (
    Filtration,
    PrimeField,
    build_vr_filtration,
    reduce_filtration,
    render_barcode_svg,
    sweep,
    synthetic_corpus,
)
from wordhom.clustering import markov_clusters
from wordhom.exports import (
    read_filtration_tsv,
    write_barcode_tsv,
    write_cycles_tsv,
    write_filtration_tsv,
    write_sweep_tsv,
)
from conftest import circle_filtration, random_dissimilarity_graph, shell_arm_complex, vr60_graph

DATA = Path(__file__).parent / "data" / "identity"
FIELDS = (2, 3)


def vr12_filtration(vertex_birth="zero"):
    g = random_dissimilarity_graph(random.Random(12), n_min=12, n_max=12, p_edge=0.7)
    return build_vr_filtration(g, max_dim=3, max_eps=1.0, vertex_birth=vertex_birth)


def vr30_filtration():
    g = random_dissimilarity_graph(random.Random(30), n_min=30, n_max=30, p_edge=0.5)
    return build_vr_filtration(g, max_dim=3, max_eps=1.0)


FIXTURES = {
    "shell_arm": lambda: Filtration([(s, 0.0) for s in shell_arm_complex()]),
    "circle": circle_filtration,
    "vr12": vr12_filtration,
}


def render(name: str, p: int) -> dict[str, str]:
    """Barcode and cycles TSVs of one fixture, zero-length bars included."""
    reduced = reduce_filtration(FIXTURES[name](), PrimeField(p))
    config = {"fixture": name, "field": p}
    out = {}
    buf = io.StringIO()
    write_barcode_tsv(buf, reduced.barcode(), config=config, include_zero_length=True)
    out["barcode"] = buf.getvalue()
    buf = io.StringIO()
    write_cycles_tsv(buf, reduced, config=config, include_zero_length=True)
    out["cycles"] = buf.getvalue()
    return out


def render_indices(p: int) -> str:
    """The vr30 reduction's pairs (birth and death positions, by death)
    and essential positions; ``-`` stands for no death."""
    reduced = reduce_filtration(vr30_filtration(), PrimeField(p))
    rows = [f"# fixture=vr30 field={p}\n", "birth\tdeath\n"]
    rows += (f"{i}\t{j}\n" for i, j in reduced.pairs)
    rows += (f"{i}\t-\n" for i in reduced.essentials)
    return "".join(rows)


def shuffled_filtration():
    """The first-edge vr12 filtration's rows in a shuffled order, read back."""
    buf = io.StringIO()
    write_filtration_tsv(buf, vr12_filtration("first-edge"))
    rows = buf.getvalue().splitlines(keepends=True)
    random.Random(7).shuffle(rows)
    return read_filtration_tsv(io.StringIO("# shuffled\n" + "".join(rows)))


FILTRATIONS = {
    "vr12-zero": vr12_filtration,
    "vr12-first-edge": lambda: vr12_filtration("first-edge"),
    "shell_arm": FIXTURES["shell_arm"],
    "shuffled": shuffled_filtration,
}


def render_filtration(name: str) -> str:
    buf = io.StringIO()
    write_filtration_tsv(buf, FILTRATIONS[name](), config={"filtration": name})
    return buf.getvalue()


MCL_GRID = (1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6)
SWEEPS = {
    "threshold": ("threshold", {}),
    "persistence-first-edge": ("persistence", {"vertex_birth": "first-edge"}),
    "persistence-zero": ("persistence", {"vertex_birth": "zero"}),
    "mcl": ("mcl", {}),
    "mcl-max-iter-3": ("mcl", {"max_iter": 3}),
}


def sweep_grid(method: str, graph) -> list[float]:
    """Every dissimilarity event plus the grid's edges, in a shuffled
    order; persistence also gets points past every lifetime."""
    if method == "mcl":
        return list(MCL_GRID)
    grid = list(graph.dissimilarity_events()) + [0.0, 1.0]
    if method == "persistence":
        grid += [1.5, float("inf")]
    random.Random(7).shuffle(grid)
    return grid


def render_sweep(name: str) -> str:
    """Sweep TSV of one method on ``synthetic_corpus(n_words=120, seed=7)``."""
    method, params = SWEEPS[name]
    graph = synthetic_corpus(n_words=120, seed=7).to_weighted_graph()
    result = sweep(graph, method, sweep_grid(method, graph), **params)
    buf = io.StringIO()
    write_sweep_tsv(buf, result, config={"corpus": "synthetic-120-seed-7", "sweep": name})
    return buf.getvalue()


def render_mcl_points() -> str:
    """One row per MCL point on ``synthetic_corpus(n_words=500, seed=1)``:
    the grid at the default ``max_iter``, then at ``max_iter=3``."""
    graph = synthetic_corpus(n_words=500, seed=1).to_weighted_graph()
    lines = ["# corpus=synthetic-500-seed-1\n", "max_iter\tinflation\tn_iter\tconverged\tn_clusters\tlabels\n"]
    for max_iter in (200, 3):
        for inflation in MCL_GRID:
            r = markov_clusters(graph, inflation, max_iter=max_iter)
            labels = ",".join(map(str, r.clustering.labels))
            lines.append(
                f"{max_iter}\t{inflation!r}\t{r.n_iter}\t{int(r.converged)}\t{r.clustering.n_clusters}\t{labels}\n"
            )
    return "".join(lines)


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_exports_match_recorded_bytes(name, p):
    for kind, text in render(name, p).items():
        expected = (DATA / f"{name}-p{p}.{kind}.tsv").read_text(encoding="utf-8")
        assert text == expected, f"{name} over Z/{p}: {kind} TSV differs from the recorded one"


@pytest.mark.parametrize("p", FIELDS)
def test_pair_indices_match_recorded(p):
    expected = (DATA / f"vr30-p{p}.indices.tsv").read_text(encoding="utf-8")
    assert render_indices(p) == expected, f"vr30 over Z/{p}: pairs or essentials differ from the recorded ones"


# sha256 of the vr60 barcode TSV and SVG at max-dim 3, keyed by
# (field, zero-length bars included), written by the reduction whose
# coboundaries were read through per-simplex face positions.
VR60_DIGESTS = {
    (2, False): (
        "a6e0a0274603fbcbf5df1c4070ab9853acd3ed389d7c7c452f55ee716f0e79fd",
        "5bdc9d50033532407879c97e1a23492c796e9f8888d7bc4b3d855fb00ba1353e",
    ),
    (2, True): (
        "65d910b455d716c146a295461274105b25c4f62f54e3788093f9b9ab5f0c0705",
        "bb816fdbd0088162d7766eee2fc14517619004148f7e33f2780c231555d2b3f9",
    ),
    (3, False): (
        "f4ba47c6d613945ab93fce0e948efbdac2c5f30a4b4cdb33781720e91dc949ba",
        "06f81de352bcab309aeacf3d86c219259d3021e7ebd104a2077fe531e81f8056",
    ),
    (3, True): (
        "179278ef4e1bd789c633c76274c5e78c99967131a1d6e3abe7f0b12dfc51dca7",
        "d17afdd47f42106a94068befbf0b55998f6cbbcc788accaee699a705e840292f",
    ),
}


def vr60_digests(p: int) -> dict[bool, tuple[str, str]]:
    """Digests of the vr60 barcode TSV and SVG over Z/p, keyed by whether
    zero-length bars are included. Its thousands of repeated infinite H3
    bars are what the vr12 and vr30 fixtures do not reach."""
    barcode = reduce_filtration(build_vr_filtration(vr60_graph(), max_dim=3), PrimeField(p)).barcode()
    config = {"fixture": "vr60", "field": p}
    out = {}
    for zero in (False, True):
        buf = io.StringIO()
        write_barcode_tsv(buf, barcode, config=config, include_zero_length=zero)
        svg = render_barcode_svg(barcode, include_zero_length=zero, config=config)
        out[zero] = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (buf.getvalue(), svg))
    return out


@pytest.mark.parametrize("p", FIELDS)
def test_vr60_outputs_match_recorded_digests(p):
    for zero, digests in vr60_digests(p).items():
        assert digests == VR60_DIGESTS[p, zero], f"vr60 over Z/{p} (zero-length bars {zero}): TSV or SVG differs"


# sha256 of the vr30 cycles TSV at max-dim 3, keyed by (field, zero-length
# bars included), written by the export that read each cycle through
# representative()'s Simplex-keyed Chain.
VR30_CYCLE_DIGESTS = {
    (2, False): "4368a36809921cd6b24e90936662199a5afb07416bfb4c5ea560dcc4538c05d0",
    (2, True): "4877966be28aa1e1d5ffb46a26616a3a2d9e8bc57d44f45ed33d64861d97b0d0",
    (3, False): "c7562370a1c67cf0d956905e9aae6873bcb651689635a38ec94954a5e02473d1",
    (3, True): "4d65c7854f8f47227a5f3dce840306514803693b9dcc68d3de62aaecb5c2acfe",
}


@pytest.mark.parametrize("p", FIELDS)
def test_vr30_cycles_match_recorded_digests(p):
    """Cycles of hundreds of bars in dims 0-3, which the identity files'
    small fixtures do not reach."""
    reduced = reduce_filtration(vr30_filtration(), PrimeField(p))
    for zero in (False, True):
        buf = io.StringIO()
        write_cycles_tsv(buf, reduced, config={"fixture": "vr30", "field": p}, include_zero_length=zero)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == VR30_CYCLE_DIGESTS[p, zero], f"vr30 over Z/{p} (zero-length bars {zero}): cycles TSV differs"


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweeps_match_recorded_bytes(name):
    expected = (DATA / f"sweep-{name}.tsv").read_text(encoding="utf-8")
    assert render_sweep(name) == expected, f"{name} sweep TSV differs from the recorded one"


@pytest.mark.parametrize("name", sorted(FILTRATIONS))
def test_filtrations_match_recorded_bytes(name):
    expected = (DATA / f"filtration-{name}.tsv").read_text(encoding="utf-8")
    assert render_filtration(name) == expected, f"{name} filtration TSV differs from the recorded one"


def test_mcl_points_match_recorded_bytes():
    expected = (DATA / "mcl-points-corpus500.tsv").read_text(encoding="utf-8")
    assert render_mcl_points() == expected, "MCL points on the 500-word corpus differ from the recorded ones"


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name in sorted(FIXTURES):
        for p in FIELDS:
            for kind, text in render(name, p).items():
                (DATA / f"{name}-p{p}.{kind}.tsv").write_text(text, encoding="utf-8", newline="\n")
    for p in FIELDS:
        (DATA / f"vr30-p{p}.indices.tsv").write_text(render_indices(p), encoding="utf-8", newline="\n")
    for name in sorted(SWEEPS):
        (DATA / f"sweep-{name}.tsv").write_text(render_sweep(name), encoding="utf-8", newline="\n")
    for name in sorted(FILTRATIONS):
        (DATA / f"filtration-{name}.tsv").write_text(render_filtration(name), encoding="utf-8", newline="\n")
    (DATA / "mcl-points-corpus500.tsv").write_text(render_mcl_points(), encoding="utf-8", newline="\n")
