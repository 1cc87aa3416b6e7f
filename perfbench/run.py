"""corpusforge benchmark: one workload, one seed, a closed loop of jobs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mine,select,score,train}
        --seed N --seconds S --trace {0,1}

Set-up generates the workload's inputs from the seed three times (the
same seed twice, to check the generator is deterministic, and another
seed once, to check it depends on the seed). Then one client runs one job
at a time, each in a fresh process that imports corpusforge from this
checkout's ``src``, until S seconds have passed. Every job's outputs are
checked (see check.py), and the bundled demo is run twice and its trees
compared.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` jobs
alternate between untraced and traced, and the metrics are the per-layer
ones; the spans go to ``.perfbench_work/trace-<workload>-seed<N>.jsonl``.
Everything the run writes stays under ``.perfbench_work`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
JOB_TIMEOUT_S = 30
# Median time of job.py's calibration loop on the host the baseline was
# recorded on (2-core Intel Xeon VM, Python 3.11.7).
REFERENCE_LOOP_S = 0.17
# For mine, the per-document spans of a traced run come from the 1-worker
# reference job: spans recorded in pool children are lost.
SERIAL_KEYS = (
    "mine.score_matrix_s", "mine.nw_s", "mine.doc_pair_p50_ms",
    "mine.doc_pair_p99_ms", "mine.cells_per_s",
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_process(cmd: list[str], timeout: float, env=None) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; on timeout kill the whole group
    (including pool workers) and wait for it."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env=env,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout} s"
    finally:
        # pool workers left behind by a crashed job die with their group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_job(workload, inputs: Path, out: Path, workers: int, trace: Path | None, job: int):
    """One job in a fresh process; its measurements, or None if it failed."""
    cmd = [sys.executable, str(BENCH / "job.py"), workload, str(inputs), str(out)]
    cmd += ["--workers", str(workers)]
    if trace is not None:
        cmd += ["--trace", str(trace), "--job", str(job)]
    proc = run_process(cmd, JOB_TIMEOUT_S)
    if proc.returncode != 0:
        log(f"job {job} failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def setup(workload: str, seed: int, run_dir: Path):
    """Generate the inputs three times; return (inputs, items, bytes, times, problems)."""
    times = []
    trees = []
    for k, s in enumerate((seed, seed, seed + 1)):
        target = run_dir / f"inputs{k}"
        start = time.perf_counter()
        items = gen.generate(workload, s, target)
        times.append(time.perf_counter() - start)
        trees.append(check.tree_digests(target))
        if k:
            shutil.rmtree(target)
    problems = []
    if trees[0] != trees[1]:
        problems.append("generator: the same seed gave different inputs")
    if trees[0] == trees[2]:
        problems.append("generator: a different seed gave the same inputs")
    inputs = run_dir / "inputs0"
    size = sum(p.stat().st_size for p in inputs.rglob("*") if p.is_file())
    return inputs, items, size, times, problems


def demo_check(seed: int, run_dir: Path) -> list[str]:
    """Run the bundled demo twice with one seed; the trees must be identical
    and, for the default seed, match the recorded digests."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    trees = []
    for k in (1, 2):
        workdir = run_dir / f"demo{k}"
        cmd = [sys.executable, "-m", "corpusforge.cli", "demo", "--workdir", str(workdir)]
        proc = run_process(cmd + ["--seed", str(seed)], JOB_TIMEOUT_S, env)
        if proc.returncode != 0:
            return [f"demo exited with {proc.returncode}: {proc.stderr[-500:]}"]
        trees.append(check.tree_digests(workdir))
    problems = [] if trees[0] == trees[1] else ["demo: two runs with one seed differ"]
    if seed == check.DEFAULT_SEED:
        problems += check.compare_digests(trees[0], check.recorded_digests("demo"), "demo tree")
    return problems


def job_context(workload: str, inputs: Path, items: int) -> dict:
    ctx = {"items": items, "rate": gen.SELECT_RATE}
    if workload == "score":
        lines = (inputs / "docmap.tsv").read_text("utf-8").splitlines()
        ctx["doc_ids"] = sorted({line.split("\t")[1] for line in lines})
    return ctx


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_time_table(trace: Path) -> list[str]:
    """Mean self time per span name over the traced loop jobs, largest first
    (job 0, the 1-worker reference job of mine, is left out)."""
    totals: dict[str, float] = defaultdict(float)
    jobs = set()
    for line in trace.read_text("utf-8").splitlines():
        row = json.loads(line)
        if row["job"] == 0:
            continue
        jobs.add(row["job"])
        totals[row.get("name") or row["counted"]] += row["self_s"]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    return [f"  {name:<40} {seconds / len(jobs):10.4f} s" for name, seconds in ranked]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corpusforge benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that running jobs are killed and files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "corpusforge" / "__init__.py").is_file():
        log(f"error: no corpusforge sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

    workload, seed = args.workload, args.seed
    run_dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    trace_file = WORK / f"trace-{workload}-seed{seed}.jsonl" if args.trace else None
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    if trace_file is not None and trace_file.exists():
        trace_file.unlink()
    try:
        return measure(args, spec, run_dir, trace_file)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, spec, run_dir: Path, trace_file: Path | None) -> int:
    workload, seed = args.workload, args.seed
    workers = 2 if workload == "mine" else 1
    inputs, items, input_bytes, setup_times, problems = setup(workload, seed, run_dir)
    ctx = job_context(workload, inputs, items)

    serial = None
    if workload == "mine":
        # the reference for the worker-count invariant; traced, it also
        # gives the per-document spans
        serial = run_job(workload, inputs, run_dir / "serial", 1, trace_file, 0)
        if serial is None:
            problems.append("1-worker reference job failed")
        else:
            ctx["one_worker"] = check.tree_digests(run_dir / "serial")
            problems += check.check_job(workload, seed, run_dir / "serial", ctx)

    jobs = []
    deadline = time.perf_counter() + args.seconds
    min_jobs = 2 if args.trace else 1
    while not (jobs and len(jobs) >= min_jobs and time.perf_counter() >= deadline):
        k = len(jobs) + 1
        traced = bool(args.trace) and k % 2 == 0
        out = run_dir / f"out{k}"
        result = run_job(workload, inputs, out, workers, trace_file if traced else None, k)
        if result is not None:
            job_problems = (
                ["1-worker reference job failed"]
                if workload == "mine" and serial is None
                else check.check_job(workload, seed, out, ctx)
            )
            if job_problems:
                log(f"job {k} failed its output check: {'; '.join(job_problems)}")
                result = None
        jobs.append((traced, result))
        shutil.rmtree(out, ignore_errors=True)

    problems += demo_check(seed, run_dir)
    failed = sum(result is None for _, result in jobs)
    ok = [(traced, r) for traced, r in jobs if r is not None]
    untraced = [r for traced, r in ok if not traced]

    def ips(results) -> float:
        return items / median(r["job_s"] for r in results) if results else 0.0

    def ref_ips(results) -> float:
        """Items per second at the reference host speed.

        The host's speed moves by up to a third within a minute as its
        other tenants' load changes; every job process runs a fixed loop
        just before its job, and the run's job time is expressed in those
        loops, then converted to seconds at the loop's reference time.
        """
        if not results:
            return 0.0
        loops = sum(r["job_s"] for r in results) / sum(r["calibration_s"] for r in results)
        return items / (loops * REFERENCE_LOOP_S)

    log(f"host: nproc={os.cpu_count()} machine={platform.machine()} python={platform.python_version()}")
    log("mine runs with 2 workers; scaling to more workers is not measured")
    log(f"workload={workload} seed={seed} items={items} input_bytes={input_bytes}")
    log(f"jobs attempted={len(jobs)} failed={failed} error_rate={failed / len(jobs):.4f} ratio")
    for problem in problems:
        log(f"check failed: {problem}")

    if not args.trace:
        values = {
            "setup_s": median(setup_times) + median(r["import_s"] for r in untraced),
            "items_per_ref_s": ref_ips(untraced),
            "peak_rss_mb": median(max(r["rss_kb"], r["children_rss_kb"]) / 1024 for r in untraced),
        }
        names = spec["end_to_end"]
    else:
        traced = [r for t, r in ok if t]
        values = {
            key: median(r["layers"][key] for r in traced) for key in (traced[0]["layers"] if traced else ())
        }
        if serial is not None:
            for key in SERIAL_KEYS:
                values[key] = serial["layers"][key]
            values["mine.serial_s"] = serial["layers"]["mine.collection_s"]
            collection = values.get("mine.collection_s", 0.0)
            values["mine.speedup_2w"] = values["mine.serial_s"] / collection if collection else 0.0
            values["mine.pool_overhead_s"] = collection - values["mine.serial_s"] / 2
        values["trace.items_per_ref_s"] = ref_ips(traced)
        values["trace.untraced_items_per_ref_s"] = ref_ips(untraced)
        values["trace.slowdown"] = (
            values["trace.untraced_items_per_ref_s"] / values["trace.items_per_ref_s"]
            if values["trace.items_per_ref_s"] else 0.0
        )
        names = spec["per_layer"]
        if trace_file.exists():
            log(f"self time per traced job ({trace_file}):")
            for line in self_time_table(trace_file):
                log(line)

    metrics = {}
    for metric in names:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<34} {value:>16.6f} {metric['unit']}")
    print(f"{'items_per_s':<34} {ips(untraced):>16.6f} 1/s (raw, median job)")
    print(f"{'error_rate':<34} {failed / len(jobs):>16.6f} ratio")
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
