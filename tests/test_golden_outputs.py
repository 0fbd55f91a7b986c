"""The benchmark's CLI jobs reproduce the digests in ``bench/golden.json``.

The argument lists are read from ``CLI_JOBS`` in ``bench/run.py`` and the
digests are normalised as its ``output_digests`` does, so this is the
benchmark's output check run in-process.  Only files under ``bench/`` are
read; nothing there is imported or written.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path

import pytest

from idealdensity import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _cli_jobs() -> dict:
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "CLI_JOBS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError("CLI_JOBS not found in bench/run.py")


CLI_JOBS = _cli_jobs()
GOLDEN = json.loads((BENCH / "golden.json").read_text())["cli"]


def _digests(out: Path) -> tuple[str, str]:
    csv_sha = hashlib.sha256(out.read_bytes()).hexdigest()
    doc = json.loads(out.with_suffix(".summary.json").read_text())
    config = doc.get("config", {})
    if config.get("out") is not None:
        config["out"] = "<out>"
    summary_sha = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return csv_sha, summary_sha


@pytest.mark.parametrize("name", sorted(CLI_JOBS))
def test_cli_job_matches_golden_digests(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    code = cli.main([a.format(out=out) for a in CLI_JOBS[name]])
    gold = GOLDEN[name]
    assert code == gold["exit_code"]
    assert _digests(out) == (gold["csv_sha256"], gold["summary_sha256"])
