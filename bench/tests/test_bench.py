"""Tests of the benchmark's own code: span arithmetic, patching, checks.

    python3 -m pytest bench/tests -q
"""

import json
from fractions import Fraction

import pytest

import idealdensity as idd
from idealdensity import cli, density, families, fields, ideals, zeta

import run
import spans
import sweep


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_synthetic_span_tree():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        leaf_w()
        clock.now += 0.5
        leaf_w()

    def root():
        clock.now += 3.0
        mid_w()
        clock.now += 0.25

    leaf_w, mid_w = tracer.wrap("leaf", leaf), tracer.wrap("mid", mid)
    tracer.wrap("root", root)()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert [s.self_time for s in by_name["leaf"]] == [2.0, 2.0]
    assert by_name["mid"][0].self_time == 1.5
    assert by_name["mid"][0].duration == 5.5
    assert by_name["root"][0].self_time == 3.25
    totals = tracer.totals()
    assert totals["leaf.self_s"] == 4.0 and totals["leaf.calls"] == 2
    assert totals["trace.root_s"] == 8.75
    assert totals["trace.self_sum_s"] == 8.75


def _bindings():
    return {
        "zeta.count_ideals": zeta.count_ideals,
        "ideals.count_ideals": ideals.count_ideals,
        "cli.count_ideals": cli.count_ideals,
        "idd.count_ideals": idd.count_ideals,
        "cli.density_profile": cli.density_profile,
        "density.minimal_members": density.minimal_members,
        "ideals.primes_up_to_norm": ideals.primes_up_to_norm,
        "cli.main": cli.main,
        "ExplicitFamily.members_up_to": families.ExplicitFamily.members_up_to,
    }


@pytest.mark.parametrize("probe_class", [spans.Tracer, spans.MemoryProbe])
def test_wrappers_restore_the_originals(probe_class):
    before = _bindings()
    probe = probe_class().install()
    try:
        during = _bindings()
    finally:
        probe.uninstall()
    assert _bindings() == before
    assert during["ideals.count_ideals"] is during["zeta.count_ideals"]
    assert during["ideals.count_ideals"] is not before["ideals.count_ideals"]
    assert during["ideals.count_ideals"].__wrapped__ is before["ideals.count_ideals"]
    if probe_class is spans.Tracer:
        assert all(during[k] is not before[k] for k in before)


def test_nested_calls_record_their_parent():
    tracer = spans.Tracer().install()
    try:
        zeta.dedekind_zeta(idd.make_rational_field(), 2.0, 1009)
    finally:
        tracer.uninstall()
    (count,) = [s for s in tracer.spans if s.name == "ideals.count_ideals"]
    assert count.parent.name == "zeta.dedekind_zeta"


def _traced(fn):
    tracer = spans.Tracer().install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def _counter_H(K, X):
    return ideals.count_ideals.__wrapped__(K, X).H_of


def test_layer_counts_by_hand_at_small_x():
    Q, Qi = idd.make_rational_field(), idd.make_quadratic_field(-1)
    fields.primes_up_to_norm.cache_clear()
    ideals.count_ideals.cache_clear()
    density._ideal_table.cache_clear()
    fam23 = idd.ExplicitFamily(field=Q, members=(idd.integer_ideal(Q, 2),
                                                 idd.integer_ideal(Q, 3)))
    fam46 = idd.ExplicitFamily(field=Q, members=(idd.integer_ideal(Q, 4),
                                                 idd.integer_ideal(Q, 6)))
    fam_i = idd.parse_family({"field": "Q(sqrt -1)", "kind": "explicit",
                              "members": [[[2, 0, 1]]]})

    def work():
        idd.count_ideals(Q, 10)
        idd.count_ideals(Qi, 10)
        idd.count_ideals(Q, 10)
        idd.finite_ie_density(fam23)
        idd.finite_ie_density(fam46)
        idd.density_profile(fam23, X=100)
        idd.sieve_multiples_density(fam_i, 100)
        idd.sieve_multiples_density(fam_i, 100)

    tracer = _traced(work)
    totals = tracer.totals(_counter_H)
    # Q up to 10: 2, 3, 5, 7.  Q(i) up to 10: (1+i), two of norm 5, (3).
    # Q(i) up to 100 for the table: (1+i), two above each of the 11 primes
    # p = 1 (mod 4) below 100, and (3), (7).
    assert totals["fields.prime_ideals_built"] == 4 + 4 + 25
    assert totals["ideals.sieve_updates"] == (5 + 3 + 2 + 1) + (5 + 2 + 2 + 1)
    assert totals["ideals.count_ideals.calls"] == 3
    # {2, 3}: two coprime blocks of one; {4, 6}: one block of two.
    assert totals["density.ie_terms"] == 1 + 1 + 3
    # Multiples of 2 or 3 up to 100: 50 + 33 marks, 50 + 33 - 16 distinct.
    # Multiples of (1+i) up to norm 100: H(50) = 39 marks per call, all distinct.
    assert totals["density.marks_attempted"] == 83 + 40 + 40
    assert totals["density.distinct_multiples"] == 67 + 40 + 40
    # One Q(i) table at X = 100: 316 lattice points / 4 units.
    assert totals["density.table_ideals"] == 79
    sieve = [s for s in tracer.spans
             if s.name == "density.sieve_multiples_density"]
    assert [s.cold for s in sieve] == [True, False]
    metrics = spans.layer_metrics(totals, [tracer.cache_info()])
    assert metrics["ideals.count_ideals.hit_ratio"] == pytest.approx(1 / 3)
    assert metrics["density.mark_useful_ratio"] == pytest.approx(147 / 163)
    assert set(metrics) == set(spans.LAYER_METRICS)


def test_kept_ratio_counts_pruned_members():
    Q = idd.make_rational_field()
    members = [idd.integer_ideal(Q, n) for n in (2, 4, 3)]
    tracer = _traced(lambda: families.minimal_members(members))
    metrics = spans.layer_metrics(tracer.totals(), [])
    assert metrics["families.minimal_members.kept_ratio"] == pytest.approx(2 / 3)


def test_sweep_oracles_match_the_library():
    Qi_doc = {"field": "Q(sqrt -1)", "kind": "explicit",
              "members": [[[2, 0, 1]], [[5, 0, 1]], [[5, 0, 1], [2, 0, 1]]]}
    fam = idd.parse_family(Qi_doc)
    assert sweep.exact_density(Qi_doc) == idd.finite_ie_density(fam)
    assert sweep.sieve_ratio(Qi_doc, 5000) == idd.sieve_multiples_density(fam, 5000)
    assert sweep.lattice_H(100) == ideals.gaussian_lattice_H(100) == 79
    four_coprime = {"field": "Q(sqrt -1)", "kind": "explicit",
                    "members": [[[2, 0, 1]], [[5, 0, 1], [5, 1, 1]],
                                [[13, 1, 2]], [[3, 0, 1]]]}
    assert sweep.exact_density(four_coprime) == Fraction(2433, 4225)


def test_family_docs_are_seeded_and_deal_each_pool_once():
    docs = sweep.family_docs(7)
    assert docs == sweep.family_docs(7) != sweep.family_docs(8)
    for field, pool in (("Q(sqrt -1)", sweep.gaussian_pool(50)),
                        ("Q", list(range(2, 51)))):
        dealt = [m for d in docs if d["field"] == field for m in d["members"]]
        assert sorted(map(str, dealt)) == sorted(map(str, pool))
    assert all(1 <= len(d["members"]) <= 5 for d in docs)


def _bench(tmp_path, golden):
    return run.Bench(tmp_path, "arith", 1, tmp_path, golden)


def _fake_count_job(tmp_path, lattice):
    out = tmp_path / "count-qi.csv"
    out.write_text("x,H,H_over_x\n1,1,1\n")
    out.with_suffix(".summary.json").write_text(json.dumps(
        {"config": {"out": str(out)}, "summary": {"H": lattice}}))
    return run.JobRun(name="count-qi", out=out, exit_code=0, cpu_s=1.0,
                      maxrss_mb=1.0, report={"setup_s": 0.1})


def test_wrong_digest_counts_as_one_failed_operation(tmp_path):
    lattice = ideals.gaussian_lattice_H(10**6)
    job = _fake_count_job(tmp_path, lattice)
    csv_sha, summary_sha, _ = run.output_digests(job.out)
    gold = {"exit_code": 0, "csv_sha256": csv_sha,
            "summary_sha256": summary_sha}
    good = _bench(tmp_path, {"cli": {"count-qi": gold}})
    p = run.Pass(mode="plain", wall_s=1.0, jobs=[job])
    good.check(job, p)
    assert (p.attempted, p.failures) == (1, [])

    bad = _bench(tmp_path, {"cli": {"count-qi": dict(gold, csv_sha256="0")}})
    p = run.Pass(mode="plain", wall_s=1.0, jobs=[job])
    bad.check(job, p)
    assert p.attempted == 1 and len(p.failures) == 1
    assert "csv digest" in p.failures[0]


def test_wrong_sweep_digest_fails_only_that_operation(tmp_path):
    bench = _bench(tmp_path, {"squarefree": "right"})
    n = len(sweep.family_docs(1))
    ops = [{"name": f"family{i}", "failed": []} for i in range(n)]
    ops.append({"name": "squarefree:Q", "failed": [], "digest": "wrong"})
    job = run.JobRun(name="sweep", out=tmp_path / "x", exit_code=0,
                     cpu_s=1.0, maxrss_mb=1.0,
                     report={"setup_s": 0.1, "ops": ops})
    p = run.Pass(mode="plain", wall_s=1.0, jobs=[job])
    bench.check(job, p)
    assert p.attempted == n + 1 and len(p.failures) == 1


def test_summary_digest_ignores_output_paths(tmp_path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        out.write_text("x\n1\n")
        out.with_suffix(".summary.json").write_text(json.dumps(
            {"config": {"out": str(out)},
             "summary": {"A": 0.5}}))
        digests.append(run.output_digests(out)[:2])
    assert digests[0] == digests[1]


def test_norm_metrics_scale_each_pass_by_its_reference():
    job = run.JobRun(name="x", out=None, exit_code=0, cpu_s=3.0,
                     maxrss_mb=5.0, report={"setup_s": 0.5})
    passes = [run.Pass(mode="plain", wall_s=wall, jobs=[job], ref_s=ref)
              for wall, ref in ((4.0, 1.0), (9.0, 2.0), (5.0, 0.5),
                                (6.0, 1.0), (2.0, 1.0))]
    metrics = run.untraced_metrics(passes)
    # Walls 4, 5, 6 without the extremes; ratios 4, 4.5, 6 without 10 and 2.
    assert (metrics["wall_s"], metrics["cpu_s"]) == (5.0, 3.0)
    assert metrics["norm_wall_s"] == pytest.approx(
        (4.0 + 4.5 + 6.0) / 3 * run.REFERENCE_S)
    # cpu_s / ref: 3, 1.5, 6, 3, 3; without 1.5 and 6.
    assert metrics["norm_cpu_s"] == pytest.approx(3.0 * run.REFERENCE_S)
    assert (metrics["setup_s"], metrics["peak_rss_mb"]) == (0.5, 5.0)
