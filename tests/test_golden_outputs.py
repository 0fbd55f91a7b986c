"""The benchmark's CLI jobs and its squarefree sweep operation reproduce
the digests in ``bench/golden.json``.

The argument lists are read from ``CLI_JOBS`` in ``bench/run.py`` and the
digests are normalised as its ``output_digests`` does; the squarefree
digest is computed as ``bench/sweep.py`` computes it.  So these are the
benchmark's output checks run in-process.  Only files under ``bench/`` are
read; nothing there is imported or written.  The lcm-term path over
quadratic fields and the CSV of ``experiment main-theorem``, which no
benchmark job digests, are pinned inline.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path

import pytest

import idealdensity as idd
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
GOLDEN_DOC = json.loads((BENCH / "golden.json").read_text())
GOLDEN = GOLDEN_DOC["cli"]


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


def test_squarefree_sweep_matches_golden_digest():
    # bench/sweep.py: SQUAREFREE_R = 168 and SWEEP_X = 3 * 10**5; the
    # digest is the sha256 of the repr of the tuple of A_168 and B_168 as
    # strings, the member counts and the log ratios of the profile.
    fam = idd.parse_family({"field": "Q", "kind": "prime_powers", "l": 2})
    seq = idd.a_limit(fam, r_max=168)
    mult = idd.multiplicative_density(fam, k=168)
    report = idd.density_profile(fam, X=3 * 10**5)
    parts = (str(seq[-1]), str(mult.b_k), report.member_counts,
             report.log_ratios)
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == GOLDEN_DOC[
        "squarefree"]


def test_quadratic_lcm_term_profiles_match_pinned_digest():
    # Prime-power profiles over quadratic fields count their multiples
    # from lcm terms and the counter's H and L; every float is pinned.
    rows = []
    for m, l in [(-1, 2), (5, 2), (-5, 3)]:
        fam = idd.PrimePowerFamily(idd.make_quadratic_field(m), l)
        r = idd.density_profile(fam, X=10**6)
        rows.append((r.member_counts, [x.hex() for x in r.log_ratios]))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "066abc2cf094fb24e592a2771159292211f06d9f39bf33446dbdde5751dc4b6c")


@pytest.mark.parametrize("doc,argv,csv_sha", [
    ({"field": "Q(sqrt -1)", "kind": "prime_powers", "l": 2},
     ["--field", "Q(sqrt -1)", "--max-norm", "100000"],
     "3389146d8d4f07aa039f963c95b229c45a45f3add95c9ba494c5a61916e5fb75"),
    # A_r, B_k and the profile have 2, 3 and 30 rows: the rest is blank.
    ({"field": "Q", "kind": "explicit", "members": [2, 3]},
     ["--max-norm", "100000", "--k-max", "3", "--r-max", "5"],
     "62e7e0fd860a485a8cf8fab211709ea0534463e16d4ba15cc6533434acf61055"),
])
def test_main_theorem_csv_matches_pinned_digest(doc, argv, csv_sha, tmp_path):
    aset, out = tmp_path / "aset.json", tmp_path / "main.csv"
    aset.write_text(json.dumps(doc))
    code = cli.main(["experiment", "main-theorem", "--aset", str(aset),
                     *argv, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
