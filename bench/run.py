"""Benchmark of idealdensity: CLI jobs and library calls, end to end.

    python3 bench/run.py --workload arith --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass runs the workload's jobs one at a time, each in a fresh
interpreter, and the run repeats passes while the next one is expected to
end within ``--seconds``; it reports the times as trimmed means over passes,
scaled by a reference job timed before each pass.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates plain and traced passes
and ends with an untimed tracemalloc pass, and prints the per-layer
metrics.  Every output is checked against
golden digests and oracles; a mismatch counts as a failed operation and
never aborts the run.  The last line of standard output is the JSON
result.  See ``bench/README.md`` for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import sweep

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
JOB_TIMEOUT_S = 90
#: Median wall time of ``reference.py`` on the 2-vCPU Xeon host the
#: benchmark was written on.  The ``norm_*`` metrics scale each pass's
#: times by REFERENCE_S over the reference time just before the pass, so
#: they read as seconds on that host.  The host is shared, and its speed drifts by 15-30% over
#: minutes; the reference drifts with it, and the scaled times spread less
#: between runs than the raw ones.
REFERENCE_S = 0.65

#: CLI argument lists; ``{out}`` is a path in the run's work directory.
CLI_JOBS = {
    "count-qi": ["count", "--field", "Q(sqrt -1)", "--max-norm", "1000000",
                 "--out", "{out}"],
    "mertens-q5": ["mertens", "--field", "Q(sqrt 5)", "--cutoff", "1000000",
                   "--out", "{out}"],
    "ppfree-q": ["experiment", "primepower-free", "--field", "Q", "--l", "2",
                 "--out", "{out}"],
}

WORKLOADS = {
    "arith": ("count-qi", "mertens-q5", "ppfree-q"),
    "family-sweep": ("sweep",),
}

END_TO_END = {"norm_wall_s": "s", "norm_cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {**spans.LAYER_METRICS,
             **{f"{name}.peak_mb": "MB" for _, _, name in spans.MEMORY_TARGETS},
             "trace_overhead_s": "s", "trace.wall_s": "s",
             "trace.self_sum_s": "s", "trace.uncovered_s": "s"}


@dataclass
class JobRun:
    name: str
    out: Path
    exit_code: int
    cpu_s: float
    maxrss_mb: float
    report: dict | None


@dataclass
class Pass:
    mode: str
    wall_s: float
    jobs: list[JobRun]
    #: Wall time of ``reference.py`` just before the pass; plain passes only.
    ref_s: float | None = None
    failures: list[str] = field(default_factory=list)
    attempted: int = 0

    @property
    def cpu_s(self) -> float:
        return sum(j.cpu_s for j in self.jobs)

    @property
    def setup_s(self) -> float:
        return sum(j.report["setup_s"] for j in self.jobs if j.report)

    @property
    def peak_rss_mb(self) -> float:
        return max(j.maxrss_mb for j in self.jobs)


class Bench:
    """One run of one workload in the checkout at ``root``."""

    def __init__(self, root: Path, workload: str, seed: int, workdir: Path,
                 golden: dict):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.golden = golden
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        sys.path.insert(0, str(root / "src"))
        from idealdensity import ideals
        self.lattice_H = ideals.gaussian_lattice_H(10**6)

    def job_spec(self, name: str, out: Path) -> dict:
        if name == "sweep":
            return {"sweep": self.seed}
        return {"cli": [a.format(out=out) for a in CLI_JOBS[name]]}

    def run_job(self, name: str, mode: str) -> JobRun:
        out = self.workdir / f"{name}.csv"
        report_path = self.workdir / f"{name}.report.json"
        report_path.unlink(missing_ok=True)
        with open(self.workdir / f"{name}.log", "w") as log:
            env = dict(self.env, BENCH_LAUNCH_NS=str(time.time_ns()))
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"),
                 json.dumps(self.job_spec(name, out)), mode,
                 str(report_path)],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT)
            exit_code, usage = wait_for(proc)
        report = (json.loads(report_path.read_text())
                  if report_path.exists() else None)
        return JobRun(name=name, out=out, exit_code=exit_code,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      maxrss_mb=usage.ru_maxrss / 1024, report=report)

    def run_reference(self) -> float:
        start = time.perf_counter()
        exit_code, _ = wait_for(subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py")],
            cwd=self.root, env=self.env))
        wall = time.perf_counter() - start
        if exit_code != 0:
            raise RuntimeError(f"reference.py exited with code {exit_code}")
        return wall

    def run_pass(self, mode: str) -> Pass:
        ref_s = self.run_reference() if mode == "plain" else None
        start = time.perf_counter()
        jobs = [self.run_job(name, mode) for name in WORKLOADS[self.workload]]
        p = Pass(mode=mode, wall_s=time.perf_counter() - start, jobs=jobs,
                 ref_s=ref_s)
        for job in jobs:
            self.check(job, p)
        return p

    # -- correctness ----------------------------------------------------
    def check(self, job: JobRun, p: Pass) -> None:
        """Count the job's operations and record each failed one."""
        if job.name == "sweep":
            ops = (job.report or {}).get("ops") or []
            expected = len(sweep.family_docs(self.seed)) + 1
            p.attempted += max(len(ops), expected)
            if len(ops) != expected:
                p.failures.append(f"sweep: {len(ops)} operations reported")
                return
            for op in ops:
                failed = list(op["failed"])
                if "digest" in op and op["digest"] != self.golden["squarefree"]:
                    failed.append("digest")
                if failed:
                    p.failures.append(f"sweep {op['name']}: {failed}")
            return
        p.attempted += 1
        failed = self.check_cli(job)
        if failed:
            p.failures.append(f"{job.name}: {failed}")

    def check_cli(self, job: JobRun) -> list[str]:
        gold = self.golden["cli"][job.name]
        failed = []
        if job.exit_code != gold["exit_code"]:
            failed.append(f"exit code {job.exit_code}")
        if job.report is None:
            failed.append("no report")
        try:
            csv_sha, summary_sha, summary = output_digests(job.out)
        except (OSError, ValueError) as exc:
            return failed + [f"outputs unreadable: {exc}"]
        if csv_sha != gold["csv_sha256"]:
            failed.append("csv digest")
        if summary_sha != gold["summary_sha256"]:
            failed.append("summary digest")
        result = summary.get("summary", {})
        if job.name == "count-qi" and result.get("H") != self.lattice_H:
            failed.append("H(10^6) differs from the Gaussian lattice count")
        return failed


def wait_for(proc: subprocess.Popen) -> tuple[int, object]:
    """Exit code and rusage of ``proc``, killed after JOB_TIMEOUT_S.

    ``os.wait4`` blocks until the exit, where ``Popen.wait(timeout)`` would
    poll and round the wall time up to its 50 ms sleeps.
    """
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def output_digests(out: Path) -> tuple[str, str, dict]:
    """sha256 of the CSV bytes and of the summary with paths normalised.

    The summary's ``config`` embeds the output path, which differs between
    checkouts, so it is replaced by a placeholder.
    """
    csv_sha = hashlib.sha256(out.read_bytes()).hexdigest()
    doc = json.loads(out.with_suffix(".summary.json").read_text())
    config = doc.get("config", {})
    if config.get("out") is not None:
        config["out"] = "<out>"
    summary_sha = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return csv_sha, summary_sha, doc


def environment() -> dict:
    import numpy
    import sympy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _median(values):
    return statistics.median(values) if values else 0.0


def _trimmed_mean(values):
    """Mean without the smallest and the largest of three or more values.

    Over the 5 to 8 passes of a run it spread less between runs than the
    median did, and one stalled pass still cannot move it far.
    """
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) > 2 else values)


def _sum_totals(jobs: list[JobRun]) -> dict:
    totals: dict = {}
    for job in jobs:
        for key, value in (job.report or {}).get("totals", {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def untraced_metrics(passes: list[Pass]) -> dict:
    return {"norm_wall_s": _trimmed_mean([p.wall_s * REFERENCE_S / p.ref_s
                                          for p in passes]),
            "norm_cpu_s": _trimmed_mean([p.cpu_s * REFERENCE_S / p.ref_s
                                         for p in passes]),
            "wall_s": _trimmed_mean([p.wall_s for p in passes]),
            "cpu_s": _trimmed_mean([p.cpu_s for p in passes]),
            "setup_s": _median([p.setup_s for p in passes]),
            # The largest over every job process of the run: a job's peak
            # moves between two allocation patterns 6 MB apart, which made
            # the median over passes flip between them.
            "peak_rss_mb": max(p.peak_rss_mb for p in passes)}


def traced_metrics(plain: list[Pass], traced: list[Pass],
                   memory: Pass) -> tuple[dict, list[str]]:
    """Per-layer metrics and any broken span-accounting invariant."""
    rows, problems = [], []
    for p in traced:
        totals = _sum_totals(p.jobs)
        wall = p.wall_s - sum(j.report["summarize_s"]
                              for j in p.jobs if j.report)
        row = spans.layer_metrics(
            totals, [j.report["cache_info"] for j in p.jobs if j.report])
        row["trace.wall_s"] = wall
        row["trace.self_sum_s"] = totals.get("trace.self_sum_s", 0.0)
        row["trace.uncovered_s"] = wall - totals.get("trace.root_s", 0.0)
        if abs(row["trace.self_sum_s"] + row["trace.uncovered_s"]
               - wall) > 1e-6 or row["trace.uncovered_s"] < 0:
            problems.append("span self times do not add up to the wall time")
        rows.append(row)
    metrics = {name: _median([row[name] for row in rows])
               for name in rows[0]}
    metrics["trace_overhead_s"] = (metrics["trace.wall_s"]
                                   - _median([p.wall_s for p in plain]))
    for _, _, name in spans.MEMORY_TARGETS:
        metrics[f"{name}.peak_mb"] = max(
            (j.report or {}).get("peak_mb", {}).get(name, 0.0)
            for j in memory.jobs)
    return {name: metrics[name] for name in PER_LAYER}, problems


def run(bench: Bench, seconds: float, traced: bool) -> dict:
    passes: list[Pass] = []
    start = time.perf_counter()
    modes = ("plain", "trace") if traced else ("plain",)
    longest = 0.0
    while True:
        mode = modes[len(passes) % len(modes)]
        pass_start = time.perf_counter()
        passes.append(bench.run_pass(mode))
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        # Stop before a pass that could end after ``seconds``, so that a run
        # lasts at most about ``seconds`` however long its passes are.
        if len(passes) >= len(modes) and now - start + longest > seconds:
            break
    plain = [p for p in passes if p.mode == "plain"]
    problems: list[str] = []
    unscaled = {}
    if traced:
        memory = bench.run_pass("memory")
        passes.append(memory)
        metrics, problems = traced_metrics(
            plain, [p for p in passes if p.mode == "trace"], memory)
        units = PER_LAYER
    else:
        metrics, units = untraced_metrics(plain), END_TO_END
        unscaled = {name: metrics[name] for name in ("wall_s", "cpu_s")}
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures] + problems
    return {
        "workload": bench.workload, "seed": bench.seed, "trace": traced,
        "environment": environment(),
        "unscaled": unscaled,
        "passes": [{"mode": p.mode, "ref_s": p.ref_s, "wall_s": p.wall_s,
                    "cpu_s": p.cpu_s, "setup_s": p.setup_s,
                    "peak_rss_mb": p.peak_rss_mb,
                    "cache_info": {j.name: (j.report or {}).get("cache_info")
                                   for j in p.jobs}}
                   for p in passes],
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": sum(len(p.failures) for p in passes),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "idealdensity" / "__init__.py").is_file():
        print(f"error: no idealdensity sources under {root / 'src'}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    run_dir = root / ".bench_run"
    workdir = run_dir / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        golden = json.loads(GOLDEN.read_text())
        record = run(Bench(root, args.workload, args.seed, workdir, golden),
                     args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (run_dir / name).write_text(json.dumps(record, indent=2) + "\n")

    result = record["result"]
    print(f"workload {args.workload} seed {args.seed} "
          f"passes {len(record['passes'])} env {json.dumps(record['environment'])}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    for metric, value in record["unscaled"].items():
        print(f"{metric} {value:.6g} s (unscaled)")
    print(f"failed_ops {result['failed']}/{result['attempted']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
