"""The benchmark's workloads: every behaviour knob pinned explicitly.

A workload is a batch of ``universes`` independent simulations (seeded
from the run seed and the universe index), each offering open-loop
Poisson load for ``duration_s`` simulated seconds and then draining for
``drain_s`` more, so in-flight operations can finish.  Every knob a
later change might flip as a default -- fidelity, the TNC address
filter, the TCP and LAPB recovery policies, the process count -- is
spelled out here, so a new default never silently changes what a
workload measures.  ``tests/test_perfbench.py`` fails when the program
grows a scenario or layout knob this file does not pin.

Timed universes run under a :class:`hostspeed.Meter`: ``Simulator.run``
is patched for the universe so calibration slices interleave with the
simulation, on the same core, and their time is taken off the wall time.

Samples the program does not keep (per-transfer TCP times, per-ping RTTs
from shard workers, completed BBS sessions) are recorded from outside
the program by :mod:`probes`.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.scale.regions import ScaleLayout
from repro.scale.shard import run_sharded_full
from repro.sim.clock import MS, SECOND, seconds
from repro.sim.engine import Simulator
from repro.workload.scenario import GeneratorMix, Scenario, build_scenario

import probes


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``knobs`` are passed to the program verbatim."""

    name: str
    kind: str  # "scenario" (one in-process testbed) or "sharded"
    universes: int
    duration_s: float
    drain_s: float
    #: Worker processes of the sharded runner in timed runs (1 = inline).
    procs: int
    #: Every Scenario / ScaleLayout field, explicitly.
    knobs: Dict[str, object] = field(default_factory=dict)
    #: Process count whose merged digest must equal the timed one (0: none).
    check_procs: int = 0

    @property
    def foreground_stations(self) -> int:
        """Stations simulated packet by packet (the rate numerator)."""
        if self.kind == "sharded":
            return int(self.knobs["regions"]) * int(
                self.knobs["stations_per_region"])
        return int(self.knobs["stations"])


def _mix(*parts: Tuple[str, float, float, str, int]) -> Tuple[GeneratorMix, ...]:
    return tuple(
        GeneratorMix(kind, fraction=fraction, arrivals=arrivals,
                     rate_per_minute=rate, payload_bytes=payload)
        for kind, fraction, rate, arrivals, payload in parts)


def _scenario_knobs(**overrides: object) -> Dict[str, object]:
    """Every Scenario field except name/seed/duration, pinned."""
    knobs: Dict[str, object] = dict(
        topology="gateway",
        bit_rate=1200,
        serial_baud=9600,
        tnc_address_filter=False,
        fault_plan=None,
        watchdog=False,
        shed_threshold_bytes=None,
        observe=False,
        snapshot_cadence_seconds=10.0,
        sanitize=False,
        order_salt=None,
        flow_stations=0,
        flow_rate_per_minute=0.5,
        regions=1,
        tcp_rto="adaptive",
        tcp_cc="reno",
        lapb_timer="fixed",
    )
    knobs.update(overrides)
    return knobs


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (
        # The paper's section 3 path: a promiscuous TNC pushes every frame
        # on a busy channel up a 9600-baud line, one interrupt per byte.
        Workload(
            name="soak_per_char",
            kind="scenario",
            universes=16,
            duration_s=300.0,
            drain_s=60.0,
            procs=1,
            knobs=_scenario_knobs(
                stations=45,
                fidelity="per_char",
                tnc_address_filter=False,
                mix=_mix(("ping", 4, 0.25, "poisson", 64),
                         ("chatter", 2, 0.1, "onoff", 96),
                         ("udp", 1, 0.2, "poisson", 64),
                         ("bbs", 1, 0.02, "poisson", 64)),
            ),
        ),
        # The stream side beside the datagram soak; fault-free, because
        # the chaos gate is red and the storm plan collapses this cell.
        # A universe stays in one contention regime for its whole length,
        # so twenty one-hour universes left the simulated work per run
        # spreading 0.14 from seed to seed; sixty of 20 minutes, 0.056.
        Workload(
            name="tcp_bbs_frame",
            kind="scenario",
            universes=60,
            duration_s=1200.0,
            drain_s=300.0,
            procs=1,
            knobs=_scenario_knobs(
                stations=8,
                fidelity="frame",
                tnc_address_filter=False,
                mix=_mix(("tcp", 2, 0.25, "poisson", 2048),
                         ("bbs", 2, 0.1, "poisson", 64),
                         ("ping", 4, 0.5, "poisson", 64)),
            ),
        ),
        # The multi-region headline, at a ping rate below congestion
        # collapse (the layout default of 4/min answers ~5% of pings).
        # Timed inline: two workers on two cores put the wall time at the
        # mercy of both cores' states, which no calibration in this
        # process can follow; every run proves procs=2 gives the same
        # merged result.
        Workload(
            name="regions_frame",
            kind="sharded",
            universes=6,
            duration_s=300.0,
            drain_s=60.0,
            procs=1,
            check_procs=2,
            knobs=dict(
                regions=16,
                stations_per_region=25,
                flow_stations=0,
                flow_rate_per_minute=0.5,
                flow_frame_bytes=96,
                fidelity="frame",
                bit_rate=1200,
                serial_baud=9600,
                link_latency=250 * MS,
                ping_rate_per_minute=0.25,
                ping_payload_bytes=64,
                fault_plan=None,
                observe=False,
                capture=False,
            ),
        ),
    )
}


def universe_seed(seed: int, universe: int) -> int:
    """The program seed of one universe: a pure function of (seed, index)."""
    digest = hashlib.sha256(f"perfbench/{seed}/{universe}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def scenario_for(wl: Workload, seed: int, universe: int) -> Scenario:
    """The fully pinned Scenario of one universe."""
    return Scenario(name=wl.name, seed=universe_seed(seed, universe),
                    duration_seconds=wl.duration_s, **wl.knobs)


def layout_for(wl: Workload, seed: int, universe: int,
               duration_s: float = 0.0, drain_s: float = -1.0) -> ScaleLayout:
    """The fully pinned ScaleLayout of one universe."""
    return ScaleLayout(seed=universe_seed(seed, universe),
                       duration_seconds=duration_s or wl.duration_s,
                       drain_seconds=wl.drain_s if drain_s < 0 else drain_s,
                       **wl.knobs)


@dataclass
class Universe:
    """What one simulated universe produced."""

    sim_metrics: Dict[str, float]
    samples: probes.Samples
    ops: probes.Ops
    #: Host seconds of the run phase (load plus drain; for the sharded
    #: runner this includes worker start-up and region build).
    wall_s: float
    worker_rss_kb: List[int] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    def digest(self) -> str:
        """Digest of everything simulated-time about this universe."""
        return probes.digest({"metrics": self.sim_metrics,
                              "samples": self.samples.as_dict(),
                              "ops": self.ops.as_dict()})


#: Simulated microseconds per chunk of a metered ``Simulator.run`` call.
METER_STEP_US = SECOND


@contextmanager
def metered(meter):
    """Patch ``Simulator.run`` so ``meter`` ticks between chunks of work.

    A call with a horizon runs as back-to-back calls of at most
    ``METER_STEP_US`` simulated time each, which the engine guarantees
    compose to the same run (the run digests check it).
    """
    if meter is None:
        yield
        return
    original = Simulator.__dict__["run"]

    def run(self, until=None, max_events=None):
        if until is None or max_events is not None:
            executed = original(self, until, max_events)
            meter.tick()
            return executed
        executed = 0
        while True:
            horizon = min(until, self.now + METER_STEP_US)
            executed += original(self, until=horizon)
            meter.tick()
            if horizon >= until:
                return executed

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original


def run_universe(wl: Workload, seed: int, universe: int,
                 procs: int = 0, tracer=None, meter=None) -> Universe:
    """Run one universe untraced (or under ``tracer``, a tracing.Tracer).

    With ``meter`` (a hostspeed.Meter) calibration slices interleave
    with the run; ``wall_s`` excludes them.
    """
    if wl.kind == "sharded":
        procs = procs or wl.procs
        if meter is not None and procs > 1:
            raise ValueError("a metered run must stay in this process")
        return _run_sharded(wl, seed, universe, procs, tracer, meter)
    return _run_scenario(wl, seed, universe, tracer, meter)


def _timed(tracer, layer: str, label: str, phase, meter=None) -> float:
    """Host seconds of ``phase``, run as a top-level span when traced.

    Calibration slices ``meter`` runs inside the phase are not counted.
    """
    sliced = meter.slice_s if meter is not None else 0.0
    started = time.perf_counter()
    if tracer is None:
        with metered(meter):
            phase()
    else:
        tracer.measure(layer, label, phase)
    wall = time.perf_counter() - started
    return wall - (meter.slice_s - sliced if meter is not None else 0.0)


def _run_scenario(wl: Workload, seed: int, universe: int, tracer,
                  meter) -> Universe:
    scenario = scenario_for(wl, seed, universe)
    with tracer or nullcontext():
        run = build_scenario(scenario)
        watch = probes.ScenarioWatch(run)

        def phase() -> None:
            run.run()
            run.sim.run(until=run.sim.now + seconds(wl.drain_s))

        wall = _timed(tracer, "other", "run", phase, meter)
    metrics = run.results()
    samples, ops, violations = watch.collect()
    if tracer is not None:
        tracer.finish_scenario(wall)
    return Universe(sim_metrics=metrics, samples=samples, ops=ops,
                    wall_s=wall, violations=violations)


def _run_sharded(wl: Workload, seed: int, universe: int, procs: int,
                 tracer, meter) -> Universe:
    layout = layout_for(wl, seed, universe)
    results = []
    with probes.ShardHarvest() as harvest, tracer or nullcontext():
        wall = _timed(tracer, "scale", "runner", lambda: results.append(
            run_sharded_full(layout, procs=procs)), meter)
    metrics = results[0].metrics
    samples, ops, violations = probes.shard_outcome(
        metrics, harvest, payload_bytes=layout.ping_payload_bytes)
    if tracer is not None:
        tracer.finish_sharded(metrics, wall)
    return Universe(sim_metrics=metrics, samples=samples, ops=ops,
                    wall_s=wall, worker_rss_kb=harvest.worker_rss_kb(),
                    violations=violations)


def setup_world(wl: Workload, seed: int) -> None:
    """Set-up as a user pays it: build universe 0 and dispatch one event.

    For the sharded runner, which builds its regions itself, this runs
    the real runner over a single lookahead window at the workload's
    process count: region build and one barrier (plus worker start-up
    when procs > 1).
    """
    if wl.kind == "sharded":
        window_s = int(wl.knobs["link_latency"]) / SECOND
        run_sharded_full(layout_for(wl, seed, 0, duration_s=window_s,
                                    drain_s=0.0), procs=wl.procs)
        return
    run = build_scenario(scenario_for(wl, seed, 0))
    for generator in run.generators:
        generator.start()
    run.sim.step()
