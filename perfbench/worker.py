"""Child process of the benchmark; run.py starts it, one at a time.

    python perfbench/worker.py probe
    python perfbench/worker.py lib|prepare|check|breakdown JOB.json RESULT.json

Every mode first times ``import wordhom`` in this fresh interpreter, so
that only modules the interpreter loads at start-up are imported before
it. ``probe`` prints that timing; the other modes read a job written by
run.py and write their result next to it:

- ``lib`` runs a library workload: one untimed warm-up pass, timed passes
  until the job's seconds are spent, then the output checks;
- ``prepare`` writes the input files of the CLI section (part of the
  traced ``vr-dense`` run) into the current directory;
- ``check`` checks the files the CLI section's calls wrote there;
- ``breakdown`` runs the CLI section's calls in-process, traced.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
_t0 = time.perf_counter()
import wordhom  # noqa: E402

_t1 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402


def _digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name].encode() + b"\0")
    return h.hexdigest()


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_lib(job: dict) -> dict:
    workload, trace = job["workload"], job["trace"]
    inp = workloads.make_input(workload, job["seed"], job["smoke"])
    op = workloads.OPS[workload]
    null, tracer = NullTracer(), Tracer()
    out = {"ops": [], "problems": [], "skipped": []}
    try:
        t0 = time.perf_counter()
        ref = op(inp, null, keep=True)
        out["warmup_s"] = time.perf_counter() - t0
    except Exception:
        out["problems"].append("warm-up pass raised:\n" + traceback.format_exc())
        return out
    ref_digest = _digest(ref.outputs)

    # A pass starts only if a pass of median length ends by the deadline,
    # so a run lasts about --seconds however long a pass is.
    deadline = time.perf_counter() + job["seconds"]
    walls = []
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() + statistics.median(walls) <= deadline:
        traced = trace and i % 2 == 1
        tr = tracer if traced else null
        tracer.op = f"op-{i}"
        error = None
        c0, t0 = _cpu(), time.perf_counter()
        try:
            with tr.span("op"):
                result = op(inp, tr)
        except Exception:
            result, error = None, traceback.format_exc()
        t1, c1 = time.perf_counter(), _cpu()
        if result is not None and _digest(result.outputs) != ref_digest:
            error = "outputs differ from the warm-up pass"
        out["ops"].append({"wall": t1 - t0, "cpu": c1 - c0, "traced": traced, "error": error})
        walls.append(t1 - t0)
        i += 1
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    try:
        problems, skipped = workloads.CHECKS[workload](inp, ref)
        if trace and workload == "sweep-corpus":
            tracer.op = "breakdown"
            problems += workloads.check_breakdown(ref, workloads.sweep_breakdown(inp, tracer))
    except Exception:
        problems, skipped = ["output check raised:\n" + traceback.format_exc()], []
    out["problems"] += problems
    out["skipped"] += skipped
    out["spans"], out["counts"] = tracer.spans, tracer.counts
    return out


def main(argv: list) -> int:
    mode = argv[0]
    span = [_t0, _t1]
    if mode == "probe":
        print(json.dumps({"import_span": span}))
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"import_span": span}
    if mode == "lib":
        result.update(run_lib(job))
    elif mode == "prepare":
        persist = next(a for a in job["sequence"] if a[0] == "persist")
        for name, text in workloads.cli_prepare(job["seed"], job["smoke"], persist).items():
            with open(name, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    elif mode == "check":
        result["problems"] = workloads.cli_check(job["sequence"])
    elif mode == "breakdown":
        tracer = Tracer()
        workloads.cli_breakdown(job["sequence"], tracer)
        result.update(spans=tracer.spans, counts=tracer.counts)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "wordhom": wordhom.__version__,
    }
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
