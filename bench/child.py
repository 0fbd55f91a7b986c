"""One benchmark job in a fresh interpreter.

    python3 bench/child.py JOB_JSON MODE REPORT_PATH

JOB_JSON is ``{"cli": [argv...]}`` or ``{"sweep": seed}``; MODE is
``plain``, ``trace`` (spans around the public calls) or ``memory``
(tracemalloc peaks).  The launching process puts its wall clock in
``BENCH_LAUNCH_NS`` just before the launch, so set-up time runs from
launch until ``import idealdensity.cli`` returns.  The report is a JSON file;
the exit code is the CLI's.
"""

import os
import time

_LAUNCH_NS = int(os.environ["BENCH_LAUNCH_NS"])

import idealdensity.cli  # noqa: E402  (timed import, with the CLI module)

_SETUP_S = (time.time_ns() - _LAUNCH_NS) / 1e9

import json  # noqa: E402
import sys  # noqa: E402

from idealdensity import ideals  # noqa: E402

import spans  # noqa: E402
import sweep  # noqa: E402


def _counter_H(K, X):
    # Uncached sieve, so the layers' cache statistics stay untouched.
    counter = ideals.count_ideals.__wrapped__(K, X)
    return counter.H_of


def run_job(job: dict):
    if "cli" in job:
        return idealdensity.cli.main(job["cli"]), None
    return 0, sweep.run_sweep(idealdensity, job["sweep"])


def main(argv) -> int:
    job, mode, report_path = json.loads(argv[1]), argv[2], argv[3]
    report = {"setup_s": _SETUP_S}
    probe = None
    if mode == "trace":
        probe = spans.Tracer().install()
    elif mode == "memory":
        probe = spans.MemoryProbe().install()
    try:
        code, ops = run_job(job)
    finally:
        if probe is not None:
            probe.uninstall()
    job_end = time.perf_counter()
    report["exit_code"], report["ops"] = code, ops
    if mode == "trace":
        report["cache_info"] = probe.cache_info()
        report["totals"] = probe.totals(_counter_H)
    elif mode == "memory":
        report["peak_mb"] = probe.peak_mb
    report["summarize_s"] = time.perf_counter() - job_end
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
