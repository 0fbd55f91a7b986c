"""Write ``bench/golden.json`` from the outputs of the current sources.

    python3 bench/make_golden.py

Run from the root of a source checkout, only at a commit whose outputs are
known to be right: every later benchmark run is checked against these
digests and exit codes.
"""

import json
import shutil
from pathlib import Path

import run


def main() -> None:
    root = Path.cwd()
    workdir = root / ".bench_run" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = run.Bench(root, "family-sweep", 0, workdir, golden={})
        golden = {"cli": {}}
        for name in run.CLI_JOBS:
            job = bench.run_job(name, "plain")
            csv_sha, summary_sha, _ = run.output_digests(job.out)
            golden["cli"][name] = {"exit_code": job.exit_code,
                                   "csv_sha256": csv_sha,
                                   "summary_sha256": summary_sha}
        ops = bench.run_job("sweep", "plain").report["ops"]
        golden["squarefree"] = ops[-1]["digest"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(json.dumps(golden, indent=2))


if __name__ == "__main__":
    main()
