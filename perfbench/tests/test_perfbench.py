"""The benchmark's own tests: smoke runs, metric names, spans, pinning.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import hostspeed
import run as bench
import tracing
import workloads
from repro.scale.regions import ScaleLayout
from repro.workload.scenario import GeneratorMix, Scenario

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Simulated seconds of load / drain per workload for the smoke runs:
#: long enough that every operation kind completes at least once.
TINY = {"soak_per_char": (120.0, 30.0), "tcp_bbs_frame": (900.0, 120.0),
        "regions_frame": (60.0, 30.0)}


def tiny(name):
    duration, drain = TINY[name]
    return dataclasses.replace(workloads.WORKLOADS[name], universes=1,
                               duration_s=duration, drain_s=drain)


@pytest.fixture(autouse=True)
def private_state(tmp_path, monkeypatch):
    """Keep the smoke runs' digests and spans out of the real store."""
    monkeypatch.setattr(bench, "STATE", tmp_path / "state")


def test_metric_names_are_valid_and_unique():
    names = END_TO_END + PER_LAYER
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert set(END_TO_END) == set(bench.END_TO_END_UNITS)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == bench.END_TO_END_UNITS[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_timed_smoke_run_emits_every_end_to_end_metric(name):
    result = bench.timed_run(tiny(name), 7, 0.0, bench.source_fingerprint())
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for value, _unit in result["metrics"].values():
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_smoke_run_emits_every_per_layer_metric(name):
    wl = tiny(name)
    result = bench.traced_run(wl, 7, bench.source_fingerprint())
    assert result["problems"] == []
    assert set(result["metrics"]) == set(PER_LAYER)
    assert all(NAME.fullmatch(metric) for metric in result["metrics"])
    scale_used = result["metrics"]["scale.windows"][0] > 0
    assert scale_used == (wl.kind == "sharded")

    names, name_ids, parents, starts, ends = tracing.load_spans(
        bench.STATE / f"spans-{name}.bin")
    assert len(starts) == len(ends) == len(parents) == len(name_ids) > 0
    children = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        assert ends[index] >= starts[index]
        assert 0 <= name_ids[index] < len(names)
        if parent >= 0:
            assert parent < index
            assert starts[parent] <= starts[index]
            assert ends[index] <= ends[parent]
            children[parent] += ends[index] - starts[index]
    assert any(parent >= 0 for parent in parents)
    for index in range(len(starts)):
        assert ends[index] - starts[index] - children[index] >= -1e-9


def test_every_program_knob_is_pinned():
    """A knob the program adds later must be pinned here explicitly."""
    per_universe = {"name", "seed", "duration_seconds", "drain_seconds"}
    for wl in workloads.WORKLOADS.values():
        owner = Scenario if wl.kind == "scenario" else ScaleLayout
        knobs = {f.name for f in dataclasses.fields(owner)} - per_universe
        assert knobs == set(wl.knobs), wl.name
        assert wl.procs >= 1
        assert wl.knobs["fidelity"] in ("per_char", "frame")
        for component in wl.knobs.get("mix", ()):
            assert isinstance(component, GeneratorMix)
    assert workloads.WORKLOADS["soak_per_char"].knobs["fidelity"] == "per_char"
    regions = workloads.WORKLOADS["regions_frame"]
    assert regions.procs == 1 and regions.check_procs == 2


def test_metered_run_matches_the_plain_run():
    """Chunked Simulator.run calls and calibration slices change nothing."""
    wl = tiny("soak_per_char")
    meter = hostspeed.Meter()
    metered = workloads.run_universe(wl, 7, 0, meter=meter)
    plain = workloads.run_universe(wl, 7, 0)
    assert metered.digest() == plain.digest()
    assert meter.slices > 0 and meter.calibration_s() > 0
    assert 0 < metered.wall_s
    with pytest.raises(ValueError):
        workloads.run_universe(tiny("regions_frame"), 7, 0, procs=2,
                               meter=meter)


def test_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 201))
    assert bench.percentile(samples, 0.5) == (100.0, 0.5)
    assert bench.percentile(samples, 0.9) == (180.0, 0.9)
    value, used = bench.percentile(list(range(1, 51)), 0.9)
    assert used == pytest.approx(0.8) and value == 40.0
    assert math.isnan(bench.percentile([], 0.5)[0])


def test_digest_store_flags_a_changed_digest():
    assert bench.check_digests({"w/seed0/u0/x": "a"}) == []
    assert bench.check_digests({"w/seed0/u0/x": "a"}) == []
    assert bench.check_digests({"w/seed0/u0/x": "b"}) == ["w/seed0/u0/x"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "soak_per_char",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
