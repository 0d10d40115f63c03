"""The perfbench A/B driver's pairing, verdict and digest logic.

Every test works on canned perfbench output; nothing here runs the
benchmark or touches git.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.harness import perfab
from repro.harness.perfab import BASE, CHANGE


def canned(rate, digests=None, correct=True, rtt=5.5, source="a" * 64):
    """stdout of one perfbench run, reduced to the lines the driver reads."""
    digests = digests or {0: "d0", 1: "d1"}
    record = {"workload": "soak_per_char", "seed": 0,
              "digests": {f"soak_per_char/seed0/u{u}/0123456789ab/{source[:12]}":
                          value for u, value in digests.items()}}
    result = {"correct": correct, "attempted": len(digests), "failed": 0,
              "metrics": {
                  "station_sim_s_per_wall_s": {"value": rate,
                                               "unit": "station-s/s"},
                  "ping_rtt_p50_s": {"value": rtt, "unit": "s"}}}
    return "\n".join([
        f"soak_per_char  station_sim_s_per_wall_s {rate:14.6f} station-s/s",
        "perfbench-record " + json.dumps(record, sort_keys=True),
        json.dumps(result)])


DIRECTIONS = {"station_sim_s_per_wall_s": "higher", "ping_rtt_p50_s": "lower"}


def fake_runner(outputs):
    """A runner that replays ``outputs[tree]`` in order, logging calls."""
    calls = []

    def run(root):
        calls.append(root)
        return outputs[root].pop(0)

    return run, calls


def test_parse_run_keys_digests_by_workload_seed_universe():
    run = perfab.parse_run(canned(100.0, {0: "x", 3: "y"}))
    assert run.correct
    assert run.metrics == {"station_sim_s_per_wall_s": 100.0,
                           "ping_rtt_p50_s": 5.5}
    assert run.digests == {"soak_per_char/seed0/u0": "x",
                           "soak_per_char/seed0/u3": "y"}


def test_parse_run_without_result_line_is_incorrect():
    assert not perfab.parse_run("Traceback ...\nboom").correct
    assert not perfab.parse_run("").correct


def test_pairs_alternate_which_tree_goes_first():
    trees = {BASE: Path("/base"), CHANGE: Path("/change")}
    outputs = {trees[BASE]: [canned(100.0 + i) for i in range(4)],
               trees[CHANGE]: [canned(200.0 + i) for i in range(4)]}
    runner, calls = fake_runner(outputs)
    runs = perfab.run_pairs(trees, 4, runner)
    assert calls == [Path("/base"), Path("/change"), Path("/change"),
                     Path("/base"), Path("/base"), Path("/change"),
                     Path("/change"), Path("/base")]
    assert [(side, index) for side, index, _run in runs] == [
        (BASE, 0), (CHANGE, 0), (CHANGE, 1), (BASE, 1),
        (BASE, 2), (CHANGE, 2), (CHANGE, 3), (BASE, 3)]


def runs_of(*rates, rtt=5.5):
    return [perfab.parse_run(canned(rate, rtt=rtt)) for rate in rates]


BASE_RATES = (100, 104, 96, 102, 98, 100, 104, 96, 102, 98)
CHANGE_RATES = (150, 149, 152, 148, 151, 150, 149, 152, 148, 151)


def test_rows_report_medians_quartiles_ratio_and_wins():
    base = runs_of(*BASE_RATES)
    change = runs_of(*CHANGE_RATES)
    rows = {row.name: row for row in perfab.metric_rows(base, change, DIRECTIONS)}
    rate = rows["station_sim_s_per_wall_s"]
    assert rate.base_median == 100 and rate.change_median == 150
    assert rate.base_quartiles == (98, 102)
    assert rate.change_quartiles == (149, 151)
    assert rate.median_ratio == 1.5
    assert (rate.wins, rate.losses, rate.pairs) == (10, 0, perfab.PAIRS)
    assert rate.verdict == "better"
    rtt = rows["ping_rtt_p50_s"]
    assert (rtt.wins, rtt.losses, rtt.verdict, rtt.median_ratio) == \
        (0, 0, "same", 1.0)


def test_verdict_needs_nine_tenths_of_the_pairs():
    base = runs_of(*BASE_RATES)
    one_loss = runs_of(150, 90, *CHANGE_RATES[2:])  # pair 1: 90 < 104
    (row, _rtt) = perfab.metric_rows(base, one_loss, DIRECTIONS)
    assert (row.wins, row.losses) == (9, 1)
    assert row.verdict == "better"
    two_losses = runs_of(150, 90, 90, *CHANGE_RATES[3:])
    (row, _rtt) = perfab.metric_rows(base, two_losses, DIRECTIONS)
    assert (row.wins, row.losses) == (8, 2)
    assert row.verdict == "noise"


def test_verdict_needs_ten_pairs():
    (row, _rtt) = perfab.metric_rows(runs_of(*BASE_RATES[:9]),
                                     runs_of(*CHANGE_RATES[:9]), DIRECTIONS)
    assert (row.wins, row.pairs) == (9, 9)
    assert row.verdict == "noise"
    (row, _rtt) = perfab.metric_rows(runs_of(100), runs_of(101), DIRECTIONS)
    assert row.verdict == "noise"


def test_verdict_needs_more_than_the_base_quartile_spread():
    base = runs_of(*(90, 100, 110) * 3, 100)
    within = runs_of(*(95, 105, 115) * 3, 105)
    (row, _rtt) = perfab.metric_rows(base, within, DIRECTIONS)
    assert row.wins == 10
    assert row.verdict == "noise"
    slower = runs_of(*(60, 70, 80) * 3, 70)
    (row, _rtt) = perfab.metric_rows(base, slower, DIRECTIONS)
    assert row.verdict == "worse"
    higher_rtt = runs_of(*(100,) * 10, rtt=9.0)
    rows = perfab.metric_rows(base, higher_rtt, DIRECTIONS)
    assert rows[1].verdict == "worse"  # lower is better for a latency


def test_identical_digests_pass():
    runs = [(BASE, 0, perfab.parse_run(canned(100, source="a" * 64))),
            (CHANGE, 0, perfab.parse_run(canned(150, source="b" * 64)))]
    _table, problems = perfab.report(runs, DIRECTIONS)
    assert problems == []


def test_digest_mismatch_is_reported_per_universe():
    runs = [(BASE, 0, perfab.parse_run(canned(100))),
            (CHANGE, 0, perfab.parse_run(canned(150, {0: "d0", 1: "XX"}))),
            (CHANGE, 1, perfab.parse_run(canned(150))),
            (BASE, 1, perfab.parse_run(canned(100, {0: "d0", 1: "d1", 2: "d2"})))]
    problems = perfab.digest_problems(runs)
    assert len(problems) == 2
    assert "change run of pair 0: soak_per_char/seed0/u1 digest" in problems[0]
    assert "base run of pair 1: soak_per_char/seed0/u2 has no base digest" \
        in problems[1]


def test_incorrect_or_empty_runs_fail():
    runs = [(BASE, 0, perfab.parse_run(canned(100))),
            (CHANGE, 0, perfab.parse_run(canned(150, correct=False))),
            (CHANGE, 1, perfab.parse_run("crashed"))]
    problems = perfab.digest_problems(runs)
    assert problems == [
        "change run of pair 0: perfbench reported correct: false",
        "change run of pair 1: perfbench reported correct: false",
        "change run of pair 1: no universe digests"]


def test_benchmark_fingerprint_sees_benchmark_files_only(tmp_path):
    trees = []
    for name in ("one", "two"):
        root = tmp_path / name
        (root / "perfbench" / "__pycache__").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("print('bench')\n")
        (root / "BENCHMARK.json").write_text("{}\n")
        (root / "src").mkdir()
        (root / "src" / f"{name}.py").write_text("x = 1\n")
        trees.append(root)
    one, two = trees
    (two / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"x")
    assert perfab.benchmark_fingerprint(one) == perfab.benchmark_fingerprint(two)
    (two / "perfbench" / "run.py").write_text("print('other bench')\n")
    assert perfab.benchmark_fingerprint(one) != perfab.benchmark_fingerprint(two)
    (two / "perfbench" / "run.py").write_text("print('bench')\n")
    (two / "BENCHMARK.json").write_text('{"changed": true}\n')
    assert perfab.benchmark_fingerprint(one) != perfab.benchmark_fingerprint(two)


def test_differing_benchmark_refuses_before_any_run(tmp_path, capsys, monkeypatch):
    for name, text in (("base", "a"), ("change", "b")):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(text)
        (tmp_path / name / "BENCHMARK.json").write_text("{}")
    monkeypatch.setattr(perfab, "compile_tree", lambda root: 1 / 0)
    args = argparse.Namespace(against="HEAD~1", workload="soak_per_char",
                              seed=0)
    code = perfab._compare({BASE: tmp_path / "base",
                            CHANGE: tmp_path / "change"}, args)
    assert code == 2
    assert "differ between HEAD~1 and this tree" in capsys.readouterr().err
