"""Tests for the CI gates and their shared runner (repro.harness.gate).

Covers the four shared steps on fake runs (layout parity for sweeps and
shards, crash handling, the verdict and its BENCH ``failures`` list),
every gate's own checks on synthetic records, the option errors that
must exit 2 before any run starts, and one tiny end-to-end scale gate.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.__main__ import (
    check_chaos_run,
    check_mc_mutation,
    check_mc_por,
    check_mc_world,
    check_obs_run,
    check_obs_shard,
    check_scale_fidelity,
    check_scale_pings,
    check_span_conservation,
    check_tournament_headline,
    main,
)
from repro.analysis.cli import check_agreement
from repro.harness import gate
from repro.harness.runner import RunRecord, SweepResult
from repro.metrics.stats import aggregate
from repro.scale.regions import ScaleLayout


def record(seed=1, params=None, **metrics) -> RunRecord:
    return RunRecord(bench="fake", params=params or {"n": 1}, seed=seed,
                     metrics={k: float(v) for k, v in metrics.items()},
                     pid=1, wall_seconds=0.0)


def fake_sweeps(monkeypatch, by_procs):
    """Make ``run_sweep`` return canned results keyed by ``spec.procs``."""
    def run_sweep(spec, progress=None):
        records = by_procs[spec.procs]
        if isinstance(records, Exception):
            raise records
        result = SweepResult(spec=spec, records=records, wall_seconds=0.0)
        result.compute_aggregates()
        return result
    monkeypatch.setattr(gate, "run_sweep", run_sweep)


def forbid_runs(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the options were checked")
    monkeypatch.setattr(gate, "run_sweep", no_run)
    monkeypatch.setattr(gate, "run_sharded", no_run)


# --- shared steps -----------------------------------------------------------

def test_sweep_parity_reports_the_exact_digest_mismatch(monkeypatch):
    fake_sweeps(monkeypatch, {1: [record(x=1)], 2: [record(x=2)]})
    checked = []
    run = gate.Gate("fake")
    inline, document = run.sweep_parity(
        (1,), procs=2, banner="fake", check=lambda r: checked.append(r) or [])
    inline_digest = document["digests"]["procs1"]['{"n": 1}|seed=1']
    parallel_digest = document["digests"]["procs2"]['{"n": 1}|seed=1']
    assert run.failures == [
        f'digest mismatch at {{"n": 1}}|seed=1: procs=1 {inline_digest[:12]} '
        f"!= procs=2 {parallel_digest[:12]}"]
    assert document["digests"]["identical"] is False
    assert checked == inline.records
    assert document["spec"]["procs"] == 2


def test_sweep_parity_names_a_cell_missing_from_the_parallel_layout(
        monkeypatch):
    fake_sweeps(monkeypatch, {1: [record(seed=1), record(seed=2)],
                              3: [record(seed=1)]})
    run = gate.Gate("fake")
    _, document = run.sweep_parity((1, 2), procs=3, banner="fake")
    assert len(run.failures) == 1
    assert run.failures[0].endswith("!= procs=3 missing")
    assert set(document["digests"]) == {"procs1", "procs3", "identical"}


def test_identical_layouts_pass_and_checks_follow_parity(monkeypatch):
    fake_sweeps(monkeypatch, {1: [record(x=1)], 2: [record(x=1)]})
    run = gate.Gate("fake")
    run.sweep_parity((1,), procs=2, banner="fake",
                     check=lambda r: [f"seed={r.seed}: bad"])
    assert run.failures == ["seed=1: bad"]


def test_shard_parity_checks_first_run_then_merged_digests(monkeypatch):
    calls = []

    def run_sharded(layout, procs):
        calls.append((layout.seed, procs))
        return {"total/x": float(procs == 4)}
    monkeypatch.setattr(gate, "run_sharded", run_sharded)
    run = gate.Gate("fake")
    runs, digests = run.shard_parity(
        ScaleLayout(regions=2), seeds=(5,), procs=(1, 2, 4), label="shard ",
        check=lambda seed, metrics: [f"seed={seed}: checked"])
    assert calls == [(5, 1), (5, 2), (5, 4)]
    assert runs[5][4] == {"total/x": 1.0}
    first = digests["procs1"]["seed=5"]
    last = digests["procs4"]["seed=5"]
    assert run.failures == [
        "seed=5: checked",
        "shard seed=5: merged digests differ across process counts "
        f"procs=1:{first[:12]} procs=2:{first[:12]} procs=4:{last[:12]}"]
    assert digests["identical"] is False


def test_finish_writes_failures_and_returns_the_exit_code(tmp_path, capsys):
    out = tmp_path / "BENCH_fake.json"
    run = gate.Gate("fake", str(out))
    assert run.finish({"runs": []}, "all good") == 0
    assert json.loads(out.read_text())["failures"] == []
    assert capsys.readouterr().out.strip() == (
        f"fake gate passed: all good; wrote {out}")

    run.failures.append("seed=1: broken")
    assert run.finish({"runs": []}, "all good") == 1
    document = json.loads(out.read_text())
    assert document["failures"] == ["seed=1: broken"]
    assert document["bench"] == "fake"
    assert capsys.readouterr().out.splitlines()[1:] == [
        "fake gate FAILED:", "  - seed=1: broken", f"wrote {out}"]


def test_a_crashed_layout_fails_the_gate_and_is_recorded(
        monkeypatch, tmp_path, capsys):
    fake_sweeps(monkeypatch, {1: [record()], 2: RuntimeError("worker died")})
    out = tmp_path / "BENCH_chaos.json"
    assert main(["repro", "chaos", "--seeds", "1", "--out", str(out)]) == 1
    failure = "run crashed under procs=2: RuntimeError('worker died')"
    assert json.loads(out.read_text())["failures"] == [failure]
    assert f"  - {failure}" in capsys.readouterr().out.splitlines()


# --- each gate's checks -------------------------------------------------------

def test_chaos_checks():
    healthy = dict(watchdog_recoveries=1, watchdog_last_recovery_s=12.0,
                   post_fault_pings_ok=2)
    assert check_chaos_run(record(**healthy), 60.0) == []
    assert check_chaos_run(
        record(**{**healthy, "post_fault_pings_ok": 0}), 60.0) == [
        "seed=1: no post-recovery ping succeeded"]
    assert check_chaos_run(
        record(seed=2, **{**healthy, "watchdog_last_recovery_s": 75.0}),
        60.0) == ["seed=2: recovery took 75.0s (bound 60s)"]
    assert check_chaos_run(record(seed=3), 60.0) == [
        "seed=3: watchdog never recovered the TNC",
        "seed=3: no post-recovery ping succeeded"]


def test_obs_checks():
    params = {"variant": "e3"}
    assert check_obs_run(record(params=params, obs_conservation_ok=1,
                                obs_born_total=9)) == []
    assert check_obs_run(record(params=params)) == [
        "seed=1 {'variant': 'e3'}: span conservation violated",
        "seed=1 {'variant': 'e3'}: no packets born (dead scenario)"]
    assert check_obs_shard(2, {"total/obs_sharded_conservation_ok": 1.0,
                               "total/obs_born_total": 4.0}) == []
    assert check_obs_shard(2, {}) == [
        "shard seed=2: cross-shard span conservation violated",
        "shard seed=2: no packets born"]


def test_tournament_checks():
    params = {"plan": "storm"}
    assert check_span_conservation(record(params=params,
                                          obs_conservation_ok=1)) == []
    assert check_span_conservation(record(params=params)) == [
        "seed=1 {'plan': 'storm'}: span conservation violated"]
    fast, slow = aggregate([30.0, 32.0]), aggregate([20.0, 21.0])
    assert check_tournament_headline(fast, slow) == []
    assert check_tournament_headline(slow, fast) == [
        "§4.1 headline violated: AdaptiveRto+Reno goodput 20.5 B/s does "
        "not beat FixedRto+NoCongestion 31.0 B/s under the storm plan"]


def test_scale_checks():
    assert check_scale_pings("seed=1", {"total/pings_received": 3.0}) == []
    assert check_scale_pings("seed=4", {}) == [
        "seed=4: no cross-region ping completed"]
    assert check_scale_fidelity({"per_char": "a", "frame": "a"}) == []
    assert check_scale_fidelity({"per_char": "a", "frame": "b"}) == [
        "frame fidelity digest differs from per_char on a fault-free line"]
    assert check_scale_pings("headline run", {}) == [
        "headline run: no cross-region ping completed"]


def test_mc_checks():
    violation = SimpleNamespace(
        render=lambda: "safety: window conservation\n  path ...")
    assert check_mc_world("lapb2", SimpleNamespace(violations=[])) == []
    assert check_mc_world("lapb2", SimpleNamespace(
        violations=[violation])) == ["lapb2: safety: window conservation"]
    assert check_mc_por(True, 19.0) == []
    assert check_mc_por(False, 1.5) == [
        "POR tree walk of lapb2 hit its budget; ratio is not meaningful",
        "POR ratio 1.50x < 2x on lapb2"]
    mutation = SimpleNamespace(name="drop_ack", description="skip acks",
                               expected_invariant="window")
    assert check_mc_mutation(mutation, None, False) == [
        "mutation drop_ack: no violation found (skip acks)"]
    caught = SimpleNamespace(invariant="window")
    assert check_mc_mutation(mutation, caught, True) == []
    assert check_mc_mutation(mutation, SimpleNamespace(invariant="stuck"),
                             False) == [
        "mutation drop_ack: expected window, caught by stuck",
        "mutation drop_ack: counterexample did not replay"]


def test_lint_agreement_check():
    agree = {"static_findings": 0, "dynamic_failures": 0, "agree": True}
    disagree = {"static_findings": 0, "dynamic_failures": 1, "agree": False}
    assert check_agreement({"fidelity": agree, "isolation": agree}) == []
    assert check_agreement({"fidelity": agree, "isolation": disagree}) == [
        f"isolation: static and dynamic analyses disagree ({disagree})"]


# --- option errors: exit 2, one stderr line, no run ----------------------------

@pytest.mark.parametrize("argv, message", [
    (["chaos", "--seeds", "0"], "--seeds must be >= 1"),
    (["report", "--bench", "--seeds", "0"], "--seeds must be >= 1"),
    (["scale", "--seeds", "0"], "--seeds must be >= 1"),
    (["tournament", "--seeds", "0"], "--seeds must be >= 1"),
    (["lint", "src", "--deep", "--bench", "--seeds", "0"],
     "--seeds must be >= 1"),
    (["tournament", "--speeds", "abc"],
     "bad --speeds 'abc': want comma-separated positive bit rates"),
    (["tournament", "--speeds", ","],
     "bad --speeds ',': want comma-separated positive bit rates"),
    (["tournament", "--procs", "1"],
     "--procs must be >= 2: the parallel layout is compared against "
     "procs=1"),
    (["tournament", "--procs", "0"],
     "--procs must be >= 2: the parallel layout is compared against "
     "procs=1"),
    (["tournament", "--plans", ","],
     "unknown plan(s) []; known: storm, noise, fade, partition, wedge"),
    (["mc", "--worlds", "nope"],
     "unknown world(s): nope (known: hidden3, lapb2, shedworld, tcpxfer)"),
])
def test_bad_options_exit_2_before_any_run(monkeypatch, capsys, argv,
                                           message):
    forbid_runs(monkeypatch)
    assert main(["repro", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


# --- end to end ---------------------------------------------------------------

def test_tiny_scale_gate_passes_end_to_end(tmp_path, capsys):
    out = tmp_path / "BENCH_scale.json"
    assert main(["repro", "scale", "--seeds", "1", "--flow", "0",
                 "--headline-flow", "0", "--duration", "10",
                 "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["failures"] == []
    assert document["digests"]["identical"] is True
    assert document["fidelity"]["identical"] is True
    assert set(document["runs"]) == {"seed=1"}
    assert "scale gate passed" in capsys.readouterr().out
