import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import wordhom
from wordhom import Filtration, PrimeField, build_vr_filtration, parse_edge_list
from wordhom.cli import main
from wordhom.exports import read_filtration_tsv
from oracle import betti_at
from conftest import nan_flow_graph

EDGES = "CAT\tDOG\t0.4\nDOG\tEEL\t0.75\nCAT\tEEL\t0.7\nFOX\tGNU\t0.9\n"


@pytest.fixture
def edges_tsv(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text(EDGES)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert "wordhom" in out


def test_usage_error_exit_code_1(capsys):
    code, _, err = run(["persist"], capsys)
    assert code == 1
    assert "error" in err
    code, _, err = run(["persist", "--bogus"], capsys)
    assert code == 1


def test_missing_input_is_data_error(capsys, tmp_path):
    code, _, err = run(
        ["persist", "--in", str(tmp_path / "nope.tsv"), "--out", "-"], capsys
    )
    assert code == 2
    assert "not found" in err


def test_malformed_input_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("CAT\tDOG\t7.5\n")
    code, _, err = run(["persist", "--in", str(bad), "--out", "-"], capsys)
    assert code == 2
    assert "line 1" in err


def test_filtrate_writes_header_and_rows(edges_tsv, tmp_path, capsys):
    out = tmp_path / "filt.tsv"
    code, _, _ = run(["filtrate", "--in", edges_tsv, "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert any("command=filtrate" in l for l in lines if l.startswith("#"))
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].split("\t")[1] == "0"  # first vertex row


def test_persist_barcode_svg_cycles(edges_tsv, tmp_path, capsys):
    out = tmp_path / "barcode.tsv"
    svg = tmp_path / "barcode.svg"
    cycles = tmp_path / "cycles.tsv"
    code, _, _ = run(
        [
            "persist",
            "--in",
            edges_tsv,
            "--max-dim",
            "2",
            "--field",
            "2",
            "--out",
            str(out),
            "--svg",
            str(svg),
            "--cycles",
            str(cycles),
        ],
        capsys,
    )
    assert code == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    ks = {int(l.split("\t")[0]) for l in data}
    assert 0 in ks
    assert svg.read_text().startswith("<?xml")
    assert cycles.read_text().count("# interval") == len(data)


def test_betti_on_explicit_filtration(tmp_path, capsys):
    # hollow tetrahedral shell plus unfilled arm, all born at 0
    rows = []
    for v in range(5):
        rows.append(f"0.0\t{v}")
    edges = ["0,1", "0,2", "0,3", "0,4", "1,2", "1,3", "2,3", "2,4"]
    rows += [f"0.0\t{e}" for e in edges]
    rows += [f"0.0\t{t}" for t in ("0,1,2", "0,1,3", "0,2,3", "1,2,3")]
    filt = tmp_path / "complex.tsv"
    filt.write_text("\n".join(rows) + "\n")
    code, out, _ = run(
        [
            "betti",
            "--in",
            str(filt),
            "--format",
            "filtration",
            "--at",
            "1.0",
            "--max-dim",
            "2",
        ],
        capsys,
    )
    assert code == 0
    assert out.strip() == "1 1 1"


def test_betti_cat_dog(edges_tsv, capsys):
    code, out, _ = run(
        ["betti", "--in", edges_tsv, "--at", "0.5", "--max-dim", "1"], capsys
    )
    assert code == 0
    # at 0.5: edges DOG-EEL (0.25) and CAT-EEL (0.3) present, CAT-DOG
    # (0.6) and FOX-GNU (0.1)... FOX-GNU d=0.1 present: components
    # {CAT,DOG,EEL}, {FOX,GNU} -> 2; no cycle
    assert out.strip() == "2 0"


def test_betti_matches_dense_oracle(tmp_path, capsys):
    # the CLI reads Betti numbers off the barcode; the oracle's betti_at
    # ranks the boundary matrices of the complex at --at, top dimension
    # included
    rng = random.Random(14)
    words = [f"W{i:02d}" for i in range(14)]
    text = "".join(
        f"{a}\t{b}\t{round(rng.uniform(0.05, 1.0), 2)}\n"
        for a, b in itertools.combinations(words, 2)
        if rng.random() < 0.5
    )
    path = tmp_path / "graph.tsv"
    path.write_text(text)
    graph = parse_edge_list(io.StringIO(text)).to_weighted_graph()
    for max_dim in (1, 2, 3):
        filt = build_vr_filtration(graph, max_dim=max_dim)
        for p in (2, 3):
            for at in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
                argv = ["betti", "--in", str(path), "--at", str(at), "--max-dim", str(max_dim), "--field", str(p)]
                code, out, _ = run(argv, capsys)
                assert code == 0
                expected = [betti_at(filt, at, k, PrimeField(p)) for k in range(max_dim + 1)]
                assert out.split() == [str(b) for b in expected], argv


def test_betti_rejects_scale_outside_built_range(edges_tsv, capsys):
    for at in ("-0.1", "1.5", "nan"):
        code, out, err = run(["betti", "--in", edges_tsv, "--at", at], capsys)
        assert code == 2
        assert out == ""
        assert "outside the built range" in err


def test_betti_on_filtration_accepts_any_finite_scale(tmp_path, capsys):
    # --max-eps bounds only a VR build; a listed complex is whole
    path = tmp_path / "complex.tsv"
    path.write_text("0.0\t0\n0.0\t1\n0.0\t2\n1.5\t0,1\n1.5\t1,2\n2.0\t0,2\n")
    with open(path) as fh:
        filt = read_filtration_tsv(fh)
    argv = ["betti", "--in", str(path), "--format", "filtration", "--at"]
    for at, expected in (("1.7", "1 0 0 0"), ("2.0", "1 1 0 0")):
        code, out, _ = run(argv + [at], capsys)
        assert code == 0
        assert out.strip() == expected
        assert out.split() == [str(betti_at(filt, float(at), k, PrimeField(2))) for k in range(4)]
    for at in ("inf", "nan", "-0.1"):
        code, out, err = run(argv + [at], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite and >= 0" in err


def test_betti_on_filtration_missing_faces_is_data_error(tmp_path, capsys):
    filt = tmp_path / "broken.tsv"
    filt.write_text("0.0\t0\n0.0\t1\n0.5\t0,1,2\n")
    code, out, err = run(
        ["betti", "--in", str(filt), "--format", "filtration", "--at", "0.6", "--max-dim", "2"], capsys
    )
    assert code == 2
    assert out == ""
    assert "without its face" in err


def test_cluster_threshold_prints_q(edges_tsv, tmp_path, capsys):
    out = tmp_path / "clusters.tsv"
    code, stdout, _ = run(
        [
            "cluster",
            "--in",
            edges_tsv,
            "--method",
            "threshold",
            "--eps",
            "0.5",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    assert stdout.startswith("Q\t")
    float(stdout.split("\t")[1])
    rows = [l.split("\t") for l in out.read_text().splitlines() if not l.startswith("#")]
    assert [r[0] for r in rows] == ["CAT", "DOG", "EEL", "FOX", "GNU"]
    labels = {word: int(c) for word, c in rows}
    assert labels["CAT"] == labels["DOG"] == labels["EEL"]
    assert labels["FOX"] == labels["GNU"] != labels["CAT"]


@pytest.fixture
def cliques_tsv(tmp_path):
    """Two 5-cliques of unit strength joined by one weak bridge."""
    rows = []
    for base in ("A", "B"):
        for i in range(5):
            for j in range(i + 1, 5):
                rows.append(f"{base}{i}\t{base}{j}\t1.0")
    rows.append("A4\tB0\t0.05")
    path = tmp_path / "cliques.tsv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_cluster_mcl_two_cliques(cliques_tsv, tmp_path, capsys):
    out = tmp_path / "mcl.tsv"
    code, stdout, err = run(
        [
            "cluster",
            "--in",
            cliques_tsv,
            "--method",
            "mcl",
            "--inflation",
            "2.0",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    labels = {
        w: int(c)
        for w, c in (
            l.split("\t") for l in out.read_text().splitlines() if not l.startswith("#")
        )
    }
    assert len(set(labels.values())) == 2
    assert len({labels[f"A{i}"] for i in range(5)}) == 1
    assert len({labels[f"B{i}"] for i in range(5)}) == 1
    assert "warning" not in err


def test_mcl_non_convergence_warns(cliques_tsv, tmp_path, capsys):
    out = tmp_path / "mcl.tsv"
    argv = ["cluster", "--in", cliques_tsv, "--method", "mcl", "--out", str(out)]
    code, stdout, err = run(argv + ["--inflation", "2", "--max-iter", "1"], capsys)
    assert code == 0
    assert stdout.startswith("Q\t")
    assert err.startswith("wordhom: warning: mcl did not converge within --max-iter 1")
    assert len([l for l in out.read_text().splitlines() if not l.startswith("#")]) == 10

    argv = ["sweep", "--in", cliques_tsv, "--method", "mcl", "--out", str(out)]
    code, _, err = run(argv + ["--grid", "2,3", "--max-iter", "1"], capsys)
    assert code == 0
    assert "warning: mcl did not converge within --max-iter 1 iterations at 2 of 2 grid points" in err
    assert len([l for l in out.read_text().splitlines() if not l.startswith("#")]) == 2
    code, _, err = run(argv + ["--grid", "2,3"], capsys)
    assert code == 0 and err == ""


def test_sweep_rejects_nan_tau(edges_tsv, capsys):
    argv = ["sweep", "--in", edges_tsv, "--method", "persistence", "--out", "-"]
    code, stdout, err = run(argv + ["--grid", "nan,0.1"], capsys)
    assert code == 2
    assert "tau must be >= 0" in err
    assert stdout == ""


def test_mcl_rejects_bad_parameters(edges_tsv, capsys):
    cluster = ["cluster", "--in", edges_tsv, "--method", "mcl", "--out", "-"]
    sweep = ["sweep", "--in", edges_tsv, "--method", "mcl", "--out", "-"]
    cases = [
        (cluster + ["--inflation", "nan"], "inflation"),
        (cluster + ["--inflation", "inf"], "inflation"),
        (cluster + ["--tol", "nan"], "tol"),
        (cluster + ["--self-loop", "-1"], "self_loop"),
        (cluster + ["--prune", "1"], "prune"),
        (cluster + ["--max-iter", "0"], "max_iter"),
        (sweep + ["--grid", "2.0,nan"], "inflation"),
        (sweep + ["--grid", "2.0,3.0", "--self-loop", "nan"], "self_loop"),
    ]
    for argv, name in cases:
        code, stdout, err = run(argv, capsys)
        assert code == 2, argv
        assert err.startswith("wordhom: error: ") and name in err, argv
        assert stdout == "", argv


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the refusal prints its error line and no numpy warning
def test_mcl_flow_that_holds_nan_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"W{i:02d}\tW{j:02d}\t{w!r}\n" for i, j, w in nan_flow_graph().pair_sorted_edges()))
    argv = ["--in", str(path), "--method", "mcl", "--prune", "0", "--max-iter", "30", "--out", "-"]
    for command in (["cluster", "--inflation", "400"], ["sweep", "--grid", "2,400"]):
        code, stdout, err = run(command + argv, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("wordhom: error: the Markov flow at inflation 400.0 holds NaN after round 1: ")


def test_sweep_default_grid_and_argmax(edges_tsv, tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    code, _, _ = run(
        ["sweep", "--in", edges_tsv, "--method", "threshold", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("# argmax param=")
    data = [l for l in lines if not l.startswith("#")]
    # default grid = distinct edge dissimilarities (exact 1 - w floats)
    assert [float(l.split("\t")[0]) for l in data] == pytest.approx([0.1, 0.25, 0.3, 0.6])


def test_sweep_refuses_zero_jobs(edges_tsv, capsys):
    argv = ["sweep", "--in", edges_tsv, "--method", "mcl", "--grid", "2", "--out", "-"]
    for jobs in ("0", "-3"):
        code, stdout, err = run(argv + ["--jobs", jobs], capsys)
        assert code == 2
        assert f"jobs must be >= 1, got {jobs}" in err
        assert stdout == ""


def test_sweep_mcl_requires_grid(edges_tsv, capsys):
    code, _, err = run(
        ["sweep", "--in", edges_tsv, "--method", "mcl", "--out", "-"], capsys
    )
    assert code == 2
    assert "--grid" in err


def test_sweep_byte_identical_across_runs(edges_tsv, tmp_path, capsys):
    outs = []
    out = tmp_path / "sweep.tsv"
    for _ in range(2):
        code, _, _ = run(
            [
                "sweep",
                "--in",
                edges_tsv,
                "--method",
                "persistence",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_render_from_barcode_tsv(edges_tsv, tmp_path, capsys):
    barcode = tmp_path / "barcode.tsv"
    code, _, _ = run(
        ["persist", "--in", edges_tsv, "--out", str(barcode)], capsys
    )
    assert code == 0
    svg = tmp_path / "out.svg"
    code, _, _ = run(["render", "--in", str(barcode), "--out", str(svg)], capsys)
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")


@pytest.mark.parametrize(
    "row", ["0\tnan\t1", "0\t0.5\tnan", "0\tinf\tinf", "0\t-0.5\t1", "-1\t0.0\t1", "1\t0.5\t0.25"]
)
def test_render_refuses_a_bad_barcode_row(row, tmp_path, capsys):
    barcode = tmp_path / "barcode.tsv"
    barcode.write_text(f"0\t0.0\tinf\n{row}\n")
    code, out, err = run(["render", "--in", str(barcode)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("wordhom: error: line 2: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_render_refuses_an_axis_max_not_finite_and_positive(value, tmp_path, capsys):
    barcode = tmp_path / "barcode.tsv"
    barcode.write_text("0\t0.0\tinf\n0\t0.0\t0.5\n")
    code, out, err = run(["render", "--in", str(barcode), f"--axis-max={value}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("wordhom: error: axis_max must be finite and > 0")


def test_persist_simplex_budget_guard(edges_tsv, capsys):
    code, _, err = run(
        ["persist", "--in", edges_tsv, "--max-simplices", "3", "--out", "-"],
        capsys,
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("command", ["filtrate", "persist"])
def test_negative_simplex_budget_is_refused(command, edges_tsv, capsys):
    code, out, err = run([command, "--in", edges_tsv, "--max-simplices", "-1", "--out", "-"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("wordhom: error: max_simplices must be an integer >= 0, got -1")


def test_output_headers_embed_configuration(edges_tsv, tmp_path, capsys):
    out = tmp_path / "barcode.tsv"
    run(
        ["persist", "--in", edges_tsv, "--field", "3", "--max-dim", "2", "--out", str(out)],
        capsys,
    )
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    joined = "\n".join(header)
    for needle in ("command=persist", "field=3", "max_dim=2", "version="):
        assert needle in joined



def test_listed_complex_headers_leave_out_the_complex_options(edges_tsv, tmp_path, capsys):
    filt, out, svg, cycles = (tmp_path / name for name in ("f.tsv", "b.tsv", "b.svg", "c.tsv"))
    run(["filtrate", "--in", edges_tsv, "--max-dim", "2", "--max-eps", "0.5", "--out", str(filt)], capsys)
    argv = ["persist", "--in", str(filt), "--format", "filtration", "--out", str(out)]
    assert run(argv + ["--svg", str(svg), "--cycles", str(cycles)], capsys)[0] == 0
    for path in (out, svg, cycles):
        text = path.read_text()
        assert "format=filtration" in text
        for key in ("max_dim", "max_eps", "vertex_birth", "max_simplices"):
            assert key not in text
    assert "max_dim=2" in filt.read_text()


HEADER_KEYS = {  # beside command, format, input, method, out and version
    "cluster": {
        "threshold": ["eps"],
        "persistence": ["tau", "vertex_birth"],
        "mcl": ["expansion", "inflation", "max_iter", "prune", "self_loop", "tol"],
    },
    "sweep": {
        "threshold": [],
        "persistence": ["vertex_birth"],
        "mcl": ["expansion", "grid", "jobs", "max_iter", "prune", "self_loop", "tol"],
    },
}


@pytest.mark.parametrize("command", ["cluster", "sweep"])
@pytest.mark.parametrize("method", ["threshold", "persistence", "mcl"])
def test_clustering_headers_echo_only_the_options_of_their_method(command, method, edges_tsv, tmp_path, capsys):
    out = tmp_path / "out.tsv"
    argv = [command, "--in", edges_tsv, "--method", method, "--out", str(out)]
    assert run(argv + (["--grid", "1.5,2"] if (command, method) == ("sweep", "mcl") else []), capsys)[0] == 0
    keys = [l[2:].split("=", 1)[0] for l in out.read_text().splitlines() if l.startswith("# ") and "=" in l]
    common = ["command", "format", "input", "method", "out", "version"]
    assert [k for k in keys if k != "argmax param"] == sorted(common + HEADER_KEYS[command][method])


@pytest.mark.parametrize("fmt, walks", [("filtration", 1), ("edges", 0)])
def test_persist_walks_the_closure_once_per_outside_filtration(fmt, walks, edges_tsv, tmp_path, capsys, monkeypatch):
    path = edges_tsv
    if fmt == "filtration":
        path = str(tmp_path / "f.tsv")
        run(["filtrate", "--in", edges_tsv, "--out", path], capsys)
    calls = []
    violations = Filtration._violations

    def counting(self):
        calls.append(len(self))
        return violations(self)

    monkeypatch.setattr(Filtration, "_violations", counting)
    assert run(["persist", "--in", path, "--format", fmt, "--cycles", str(tmp_path / "c.tsv")], capsys)[0] == 0
    assert len(calls) == walks


# Modules `import wordhom` must not load: numpy and scipy (imported where
# they compute), the network stack behind xml.sax.saxutils, and
# dataclasses/inspect.
HEAVY_MODULES = ("numpy", "scipy", "xml.sax", "urllib", "ssl", "email", "socket", "dataclasses", "inspect")


def heavy_modules_loaded_by(script: str, watched: tuple[str, ...] = HEAVY_MODULES) -> list[str]:
    """Modules of ``watched`` (or below them) that running ``script``
    in a fresh interpreter newly loads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordhom.__file__)))
    code = "\n".join(
        [
            "import json, sys",
            "before = set(sys.modules)",
            script,
            f"heavy = {watched!r}",
            "new = [m for m in set(sys.modules) - before if m in heavy or m.startswith(tuple(h + '.' for h in heavy))]",
            "print(json.dumps(sorted(new)))",
        ]
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_heavy_modules():
    assert heavy_modules_loaded_by("import wordhom, wordhom.cli") == []


PUBLIC_NAMES = [
    "AssociationCorpus", "Barcode", "Chain", "Clustering", "DataFormatError", "Filtration", "Interval",
    "MarkovClustering", "MarkovResult", "PersistenceClustering", "PrimeField", "ReducedFiltration", "Simplex",
    "SimplexBudgetError", "SweepResult", "SweepRow", "ThresholdClustering", "UnionFind", "VietorisRipsPersistence",
    "WeightedGraph", "betti_at", "betti_of_complex", "boundary_chain", "build_vr_filtration", "markov_clusters",
    "modularity", "parse_edge_list", "parse_stimulus_counts", "persistence_clusters", "reduce_filtration",
    "render_barcode_svg", "sweep", "synthetic_corpus", "threshold_clusters",
]


def test_readme_quick_start_runs(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_import_loads_no_submodule():
    assert heavy_modules_loaded_by("import wordhom", ("wordhom",)) == ["wordhom"]


def test_import_leaves_the_name_table_unloaded():
    """The table of public names is compiled on the first lookup of a
    name the package does not hold, not by ``import wordhom``."""
    script = "import wordhom\nassert wordhom.__version__"
    assert heavy_modules_loaded_by(script, ("wordhom._names",)) == []
    script = "import wordhom\nassert len(wordhom.__all__) == 34"
    assert heavy_modules_loaded_by(script, ("wordhom._names",)) == ["wordhom._names"]


def test_public_names_are_their_modules_objects():
    assert wordhom.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(wordhom, name)
        assert obj.__module__.startswith("wordhom.")
        assert vars(sys.modules[obj.__module__])[name] is obj
    with pytest.raises(AttributeError, match="module 'wordhom' has no attribute 'nope'"):
        wordhom.nope
    assert set(PUBLIC_NAMES) | {"__all__", "__version__"} <= set(dir(wordhom))


def test_submodule_names_resolve_in_a_fresh_interpreter():
    script = "import wordhom\nassert wordhom.clustering.sweep is wordhom.sweep"
    assert "wordhom.clustering" in heavy_modules_loaded_by(script, ("wordhom",))


def test_vr_commands_leave_numpy_unloaded(tmp_path):
    rng = random.Random(10)
    lines = [
        f"W{a}\tW{b}\t{rng.uniform(0.05, 1.0):.3f}"
        for a, b in itertools.combinations(range(10), 2)
        if rng.random() < 0.6
    ]
    graph = tmp_path / "graph.tsv"
    graph.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    calls = [
        ["filtrate", "--in", str(graph), "--out", f"{out}.filt.tsv"],
        ["persist", "--in", str(graph), "--out", f"{out}.bar.tsv", "--svg", f"{out}.svg", "--cycles", f"{out}.cyc.tsv"],
        ["betti", "--in", str(graph), "--at", "0.5"],
    ]
    script = "\n".join(
        ["import contextlib, io", "from wordhom import cli", "with contextlib.redirect_stdout(io.StringIO()):"]
        + [f"    assert cli.main({argv!r}) == 0" for argv in calls]
    )
    loaded = heavy_modules_loaded_by(script)
    assert not [m for m in loaded if m == "numpy" or m.startswith("numpy.")], loaded
    assert (tmp_path / "out.cyc.tsv").read_text().count("\n") > 1


def test_public_betti_leaves_numpy_unloaded():
    script = "\n".join(
        [
            "import wordhom as wh",
            "g = wh.WeightedGraph.from_dissimilarities(3, {(0, 1): 0.2, (1, 2): 0.3, (0, 2): 0.4})",
            "filt = wh.build_vr_filtration(g, max_dim=1)",
            "assert [wh.betti_at(filt, 0.35, k, wh.PrimeField(3)) for k in (0, 1)] == [1, 0]",
            "cx = [wh.Simplex(vs) for vs in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]]",
            "assert [wh.betti_of_complex(cx, k, wh.PrimeField(2)) for k in (0, 1)] == [1, 1]",
        ]
    )
    assert heavy_modules_loaded_by(script, ("numpy",)) == []


def test_per_point_clustering_leaves_numpy_unloaded():
    """Per-point threshold and persistence clustering relabel the
    union-find roots once, in ``Clustering``, with no numpy array."""
    script = "\n".join(
        [
            "import wordhom as wh",
            "g = wh.synthetic_corpus(n_words=60).to_weighted_graph()",
            "assert 1 < wh.threshold_clusters(g, 0.3).n_clusters < g.n",
            "assert 1 < wh.persistence_clusters(g, 0.1).n_clusters < g.n",
        ]
    )
    assert heavy_modules_loaded_by(script, ("numpy",)) == []


def test_markov_flow_leaves_scipy_sparse_unloaded(cliques_tsv, tmp_path):
    """Markov flow calls scipy's compiled sparse kernels without running
    ``scipy.sparse``'s ``__init__``: the kernel extension is the only
    module under ``scipy.sparse`` that a flow, an MCL sweep and
    ``wordhom cluster --method mcl`` load."""
    out = str(tmp_path / "mcl.tsv")
    script = "\n".join(
        [
            "from wordhom import cli, markov_clusters, sweep, synthetic_corpus",
            "g = synthetic_corpus(n_words=60).to_dissimilarity()",
            "assert markov_clusters(g, 2.0).converged",
            "assert len(sweep(g, 'mcl', [1.4, 2.0], prune=0.3, self_loop=0.0).rows) == 2",
            f"assert cli.main(['cluster', '--in', {cliques_tsv!r}, '--method', 'mcl', '--out', {out!r}]) == 0",
        ]
    )
    assert heavy_modules_loaded_by(script, ("scipy.sparse",)) == ["scipy.sparse._sparsetools"]
    assert (tmp_path / "mcl.tsv").read_text().count("\n") > 10
