#!/usr/bin/env python3
"""wordhom benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md next to this file) from the root of a
checkout that holds ``src/wordhom`` and ``BENCHMARK.json``. It starts one
child process at a time: import probes, then a library worker
(``worker.py``); the traced run of ``vr-dense`` then also makes the CLI's
calls (``python -m wordhom``) to time and check the CLI layers. The last
line of standard output is the result object; the line before it records
the environment and details.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics. Exit status is 0 when a result was
printed, and nonzero without a result when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("vr-dense", "sweep-corpus")
SETUP_PROBES = 4  # fresh `import wordhom` samples per run, besides the workers
RUN_LIMIT_S = 170  # a run that is still going then is killed and reports no result
CLI_SEQUENCE = [
    ["--version"],
    ["filtrate", "--in", "graph.tsv", "--max-dim", "2", "--out", "filtration.tsv"],
    ["persist", "--in", "graph.tsv", "--max-dim", "2", "--field", "3", "--out", "barcode.tsv",
     "--svg", "barcode.svg", "--cycles", "cycles.tsv"],
    ["betti", "--in", "graph.tsv", "--max-dim", "2", "--at", "0.5"],
    ["cluster", "--in", "corpus.tsv", "--method", "threshold", "--eps", "0.3", "--out", "threshold.tsv"],
    ["cluster", "--in", "corpus.tsv", "--method", "persistence", "--tau", "0.2", "--out", "persistence.tsv"],
    ["cluster", "--in", "corpus.tsv", "--method", "mcl", "--inflation", "2.0", "--out", "mcl.tsv"],
    ["render", "--in", "barcode.tsv", "--out", "render.svg"],
]
OUTPUT_FLAGS = ("--out", "--svg", "--cycles")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


@dataclass
class Child:
    code: int
    start: float
    end: float
    stdout: bytes
    stderr: str


class Runner:
    """Starts children one at a time and waits for each to end."""

    def __init__(self, work: Path):
        self.work = work
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def run(self, argv: list[str]) -> Child:
        out, err = self.work / "child.out", self.work / "child.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=fo, stderr=fe)
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        return Child(code, start, end, out.read_bytes(), err.read_text(errors="replace"))

    def python(self, *args: str) -> Child:
        return self.run([sys.executable, *args])

    def worker(self, mode: str, job: dict) -> dict:
        job_path, result_path = self.work / "job.json", self.work / "result.json"
        job_path.write_text(json.dumps(job))
        result_path.unlink(missing_ok=True)
        child = self.python(str(BENCH / "worker.py"), mode, str(job_path), str(result_path))
        if child.code != 0:
            raise BenchError(f"worker {mode} exited {child.code}:\n{child.stderr[-2000:]}")
        return json.loads(result_path.read_text())


def import_probe(runner: Runner, tracer: Tracer | None) -> float:
    """Seconds of `import wordhom` in a fresh interpreter."""
    child = runner.python(str(BENCH / "worker.py"), "probe")
    if child.code != 0:
        raise BenchError(f"import probe exited {child.code}:\n{child.stderr[-2000:]}")
    start, end = json.loads(child.stdout)["import_span"]
    if tracer is not None:
        with_child_span(tracer, "cli.probe", child, [("cli.import", start, end)])
    return end - start


def import_probes(runner: Runner, n: int, tracer: Tracer | None) -> list[float]:
    """n import probes, after one untimed one that leaves the byte-code
    cache written."""
    import_probe(runner, None)
    samples = []
    for k in range(n):
        if tracer is not None:
            tracer.op = f"probe-{k}"
        samples.append(import_probe(runner, tracer))
    return samples


def with_child_span(tracer: Tracer, name: str, child: Child, inner=()) -> None:
    idx = tracer.add(name, child.start, child.end)
    for sub, start, end in inner:
        tracer.add(sub, start, end, parent=idx)


def run_lib(args, runner: Runner, tracer: Tracer | None) -> dict:
    imports = import_probes(runner, args.probes, tracer)
    job = dict(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, smoke=args.smoke)
    res = runner.worker("lib", job)
    imports.append(res["import_span"][1] - res["import_span"][0])
    if tracer is not None:
        tracer.merge(res["spans"], res["counts"])
    ops = res["ops"]
    if not ops:
        raise BenchError("no operation ran:\n" + "\n".join(res["problems"]))
    return dict(
        imports=imports,
        walls=[o["wall"] for o in ops if not o["traced"]],
        traced_walls=[o["wall"] for o in ops if o["traced"]],
        cpus=[o["cpu"] for o in ops if not o["traced"]],
        peak_rss_kb=res.get("peak_rss_kb", 0),
        warmup_s=res.get("warmup_s"),
        errors=[o["error"] for o in ops if o["error"]],
        attempted=len(ops),
        problems=res["problems"],
        skipped=res["skipped"],
        versions=res["versions"],
    )


def _call_digest(child: Child, argv: list[str], work: Path) -> str:
    h = hashlib.sha256(child.stdout)
    for flag, value in zip(argv, argv[1:]):
        if flag in OUTPUT_FLAGS:
            h.update(b"\0" + (work / value).read_bytes())
    return h.hexdigest()


def _data_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def cli_section(runner: Runner, tracer: Tracer, seed: int, smoke: bool) -> dict:
    """The CLI's calls, run once each in a fresh interpreter, then again.

    Part of the traced run of ``vr-dense``: it gives the CLI layers
    (interpreter start, import, each command in-process, cycle export and
    Betti numbers) and checks the CLI's outputs. Each call is followed by
    ``python -c pass`` and an import probe, so that the call's time can be
    split into those parts.
    """
    job = dict(seed=seed, smoke=smoke, sequence=CLI_SEQUENCE)
    prep = runner.worker("prepare", job)
    imports = [prep["import_span"][1] - prep["import_span"][0]]
    errors, problems = [], []
    first_digest: dict[int, str] = {}
    for rep in range(2):
        for i, argv in enumerate(CLI_SEQUENCE):
            tracer.op = f"rep{rep}-call{i}"
            child = runner.python("-m", "wordhom", *argv)
            if child.code != 0:
                errors.append(f"wordhom {' '.join(argv)} exited {child.code}: {child.stderr[-500:]}")
                continue
            digest = _call_digest(child, argv, runner.work)
            if first_digest.setdefault(i, digest) != digest:
                errors.append(f"wordhom {' '.join(argv)}: outputs differ from the first pass")
            with_child_span(tracer, "cli.call", child)
            with_child_span(tracer, "cli.interp", runner.python("-c", "pass"))
            imports.append(import_probe(runner, tracer))

    expected = _data_rows((runner.work / "expected-barcode.tsv").read_text())
    produced = _data_rows((runner.work / "barcode.tsv").read_text())
    if produced != expected:
        problems.append("persist barcode rows differ from the library path")
    check = runner.worker("check", job)
    imports.append(check["import_span"][1] - check["import_span"][0])
    problems += check["problems"]
    res = runner.worker("breakdown", job)
    tracer.merge(res["spans"], res["counts"])
    return dict(imports=imports, errors=errors, problems=problems, calls=2 * len(CLI_SEQUENCE))


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11], "percentile": round(100 * (n - 10) / n, 1), "samples": n}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def calibration_s() -> float:
    """Median seconds of three runs of a fixed pure-Python loop.

    Load average cannot show other tenants of a shared host, and their
    load changes a VM's speed by a fifth within minutes. This loop shows
    some of that: compare it across runs to spot a slow period.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs and one probe, for the self-test")
    args = parser.parse_args(argv)
    args.probes = 1 if args.smoke else SETUP_PROBES

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wordhom" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: no wordhom source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    signal.signal(signal.SIGALRM, _timeout)
    # On SIGTERM, unwind so that the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.alarm(RUN_LIMIT_S)

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    load_start, calibration_start = os.getloadavg(), calibration_s()
    try:
        runner = Runner(work)
        r = run_lib(args, runner, tracer)
        if tracer is not None and args.workload == "vr-dense":
            cli = cli_section(runner, tracer, args.seed, args.smoke)
            r["imports"] += cli["imports"]
            r["errors"] += cli["errors"]
            r["problems"] += cli["problems"]
            r["attempted"] += cli["calls"]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    load_end, calibration_end = os.getloadavg(), calibration_s()

    attempted = max(r["attempted"], 1)
    failed = attempted if r["problems"] else min(len(r["errors"]), attempted)
    if args.trace:
        layers = layer_metrics(tracer.spans, tracer.counts)
        traced, untraced = statistics.median(r["traced_walls"]), statistics.median(r["walls"])
        layers["trace.wall_s"] = traced
        layers["trace.overhead_s"] = traced - untraced
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(r["imports"]),
            "wall_s": statistics.median(r["walls"]),
            "cpu_s": statistics.median(r["cpus"]),
            "peak_rss_mb": r["peak_rss_kb"] / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not r["problems"] and not r["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            **r["versions"],
            "git_commit": git_commit(),
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "calibration_s_start": calibration_start,
            "calibration_s_end": calibration_end,
        },
        "fail_frac": failed / attempted,
        "wall_tail_s": tail(r["walls"]),
        "warmup_s": r["warmup_s"],
        "walls": r["walls"],
        "traced_walls": r["traced_walls"],
        "setup_samples": r["imports"],
        "problems": r["problems"],
        "errors": r["errors"][:5],
        "checks_skipped": r["skipped"],
        "result": result,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k not in ("walls", "traced_walls", "result")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
