"""Tests for the workload-generation subsystem (repro.workload).

The subsystem's core promise is determinism: the offered load is a pure
function of (scenario, seed), drawn only from named RandomStreams.  So
the tests here assert byte-identical arrival schedules and end-of-run
counters -- twice in-process, and once against a fresh subprocess to
catch accidental dependence on interpreter state (hash randomisation,
import order, leftover globals).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.clock import SECOND, seconds
from repro.sim.rand import RandomStreams
from repro.workload import (
    BurstArrivals,
    FixedArrivals,
    GeneratorMix,
    Scenario,
    arrival_schedule,
    build_scenario,
    make_arrivals,
    run_scenario,
)

RANDOM_KINDS = ("poisson", "onoff", "pareto")


@pytest.mark.parametrize("kind", RANDOM_KINDS)
def test_same_seed_same_arrival_schedule(kind):
    def schedule(seed):
        rng = RandomStreams(seed=seed).stream(f"workload/{kind}/0")
        process = make_arrivals(kind, rng, rate_per_minute=30.0)
        return arrival_schedule(process, duration=600 * SECOND)

    assert schedule(42) == schedule(42)
    assert schedule(42) != schedule(43)


@pytest.mark.parametrize("kind", RANDOM_KINDS)
def test_mean_rate_parameterisation(kind):
    # All shapes share the rate_per_minute contract: over a long window
    # the arrival count approaches rate * duration.
    rng = RandomStreams(seed=7).stream("workload/rate-check")
    process = make_arrivals(kind, rng, rate_per_minute=60.0)
    times = arrival_schedule(process, duration=3600 * SECOND)
    assert 0.6 * 3600 < len(times) < 1.5 * 3600


def test_fixed_and_burst_arrivals():
    fixed = FixedArrivals(seconds(2.0))
    assert arrival_schedule(fixed, duration=10 * SECOND) == [
        2 * SECOND, 4 * SECOND, 6 * SECOND, 8 * SECOND,
    ]
    burst = BurstArrivals(count=3)
    assert arrival_schedule(burst, duration=SECOND) == [0, 0, 0]
    # Exhausted bursts go silent instead of re-arming.
    assert burst.next_gap() == BurstArrivals.SILENT


def test_arrival_schedule_limit_and_start():
    times = arrival_schedule(FixedArrivals(SECOND), duration=100 * SECOND,
                             start=5 * SECOND, limit=3)
    assert times == [6 * SECOND, 7 * SECOND, 8 * SECOND]


def test_station_allocation_largest_remainder():
    scenario = Scenario(
        stations=10,
        mix=(GeneratorMix("ping", fraction=1),
             GeneratorMix("chatter", fraction=3)),
    )
    kinds = [component.kind for component in scenario.station_allocation()]
    assert len(kinds) == 10
    assert kinds.count("ping") == 3 and kinds.count("chatter") == 7


def _small_scenario(seed: int = 5) -> Scenario:
    return Scenario(
        name="determinism-check",
        stations=4,
        duration_seconds=60.0,
        mix=(GeneratorMix("ping", rate_per_minute=4.0),
             GeneratorMix("chatter", rate_per_minute=12.0),
             GeneratorMix("udp", rate_per_minute=3.0)),
        seed=seed,
    )


def test_same_seed_identical_end_of_run_counters():
    first = run_scenario(_small_scenario())
    second = run_scenario(_small_scenario())
    assert first == second
    # The run did real work on the channel.
    assert first["channel_transmissions"] > 0
    assert first["frames_offered"] > 0


def test_different_seed_different_offered_load():
    first = run_scenario(_small_scenario(seed=5))
    other = run_scenario(_small_scenario(seed=6))
    assert first != other


def test_counters_identical_across_subprocess():
    # Guard against interpreter-state leaks (hash seeds, global RNG):
    # a fresh python process must reproduce the in-process metrics.
    in_process = run_scenario(_small_scenario())
    script = (
        "import json\n"
        "from tests.test_workload import _small_scenario\n"
        "from repro.workload import run_scenario\n"
        "print(json.dumps(run_scenario(_small_scenario()), sort_keys=True))\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "random"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env, cwd=root,
    )
    assert json.loads(proc.stdout) == in_process


def test_ping_mean_weights_every_reply():
    """Two pingers with unequal reply counts: the scenario's mean RTT is
    every reply's RTT over the number of replies, not a mean of the two
    pingers' means."""
    run = build_scenario(Scenario(
        name="two-pingers", stations=2, duration_seconds=120.0,
        mix=(GeneratorMix("ping", rate_per_minute=4.0),), seed=1))
    metrics = run.run()
    rtts = [generator.pinger.rtts_us for generator in run.generators]
    assert len(rtts[0]) != len(rtts[1]) and all(rtts)
    replies = sum(len(samples) for samples in rtts)
    assert metrics["pings_received"] == replies
    assert metrics["ping_rtt_total_us"] == sum(map(sum, rtts))
    assert metrics["ping_mean_rtt_s"] == (
        sum(map(sum, rtts)) / replies / SECOND)
    mean_of_means = sum(sum(s) / len(s) for s in rtts) / 2 / SECOND
    assert metrics["ping_mean_rtt_s"] != pytest.approx(mean_of_means)
