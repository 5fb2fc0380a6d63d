"""Self-test of the benchmark, at smoke size.

    python -m pytest perfbench/selftest.py

It is named so that the repository's own test run does not collect it:
it starts a few dozen interpreters and takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_passes_its_output_checks(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        r = result(workload, 11, trace)
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert list(r["metrics"]) == [m["name"] for m in SPEC[group]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = result(workload, 5, 1), result(workload, 5, 1)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_inputs_depend_only_on_the_seed():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    for name in ("vr-dense", "sweep-corpus"):
        a = workloads.make_input(name, 3, smoke=True)["text"]
        assert a == workloads.make_input(name, 3, smoke=True)["text"]
        assert a != workloads.make_input(name, 4, smoke=True)["text"]


def test_checks_reject_a_wrong_barcode():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from tracer import NullTracer

    inp = workloads.make_input("vr-dense", 3, smoke=True)
    ref = workloads.vr_op(inp, NullTracer(), keep=True)
    assert workloads.check_vr(inp, ref) == ([], [])
    other = workloads.vr_op(dict(inp, text=workloads.cli_graph_text(3, 14)), NullTracer(), keep=True)
    wrong = workloads.Outcome(ref.outputs, dict(ref.facts, barcode=other.facts["barcode"]))
    assert workloads.check_vr(inp, wrong)[0]


def test_cycle_check_rejects_a_wrong_coefficient():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import io

    import workloads
    import wordhom as wh
    from wordhom.exports import write_cycles_tsv

    corpus = wh.parse_edge_list(io.StringIO(workloads.cli_graph_text(3, 10)))
    filt = wh.build_vr_filtration(corpus.to_dissimilarity(), max_dim=2)
    buf = io.StringIO()
    write_cycles_tsv(buf, wh.reduce_filtration(filt, wh.PrimeField(3)))
    assert workloads.check_cycles(buf.getvalue(), 3) == []
    lines = buf.getvalue().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("1\t"))
    k, coeff, verts = lines[i].split("\t")
    lines[i] = f"{k}\t{3 - int(coeff)}\t{verts}"  # negate one term over Z/3
    assert workloads.check_cycles("\n".join(lines), 3)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("vr-dense", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
