"""Paired measurement of the flight recorder's runtime cost.

"How much does observability cost?" is a differential question, and the
naive A/B answer -- time N disabled sessions, then N enabled sessions,
subtract -- is noise-dominated at this workload size: the §2.3 session
runs in tens of milliseconds, while CPU frequency scaling, cache state
and allocator warmth drift by more than the recorder's cost between the
two batches.  (An earlier version of the perf bench reported *negative*
overhead this way.)

This module measures instead with **interleaved paired rounds**: each
round times disabled / enabled / disabled back-to-back, so every arm
sees the same drift, and the two disabled timings bracket the enabled
one.  Each round yields overhead percentages against its *own* baseline
(the mean of the bracketing disabled runs); the rounds are then
summarised as mean plus a Student-t 95% confidence interval.  The disabled-vs-disabled column is the noise
floor: if its magnitude rivals the enabled overhead, the measurement --
not the recorder -- is the story.

``benchmarks/test_perf_microbench.py`` asserts the enabled median stays
under the 10% budget; ``python -m repro report --bench`` records the
same columns into ``BENCH_obs.json``.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from repro.metrics.stats import aggregate, percentile


def _session(observe: bool, seed: int) -> None:
    """One busy §2.3 ping exchange, optionally with a recorder attached.

    Ten echoes over ~400 simulated seconds: long enough (~20ms wall)
    that recorder construction amortises and single-session jitter
    stays small relative to the recorder's per-event cost.
    """
    from repro.apps.ping import Pinger
    from repro.core.topology import build_gateway_testbed
    from repro.obs.spans import FlightRecorder
    from repro.sim.clock import SECOND

    tb = build_gateway_testbed(seed=seed)
    if observe:
        FlightRecorder(tb.tracer)
    pinger = Pinger(tb.pc.stack)
    pinger.send("128.95.1.2", count=10, interval=15 * SECOND)
    tb.sim.run(until=400 * SECOND)
    if pinger.received != 10:
        raise RuntimeError(
            f"overhead session degenerated: {pinger.received}/10 replies")


def _timed(observe: bool, seed: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time for one arm (timeit's min trick:
    scheduler preemption only ever adds time, so the min is the least
    contaminated sample).  The collector is drained before and disabled
    during each sample -- otherwise whichever arm happens to trip a
    collection pays for garbage the *other* arms produced.
    """
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            _session(observe, seed)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        best = min(best, elapsed)
    return best


def measure(rounds: int = 5, seed: int = 1,
            isolate: bool = True) -> Dict[str, float]:
    """Run the paired-round measurement; returns the BENCH column dict.

    Columns: mean per-arm session seconds, the recorder's overhead
    percentage (mean, median and CI95 half-width, against the per-round
    disabled baseline), and the disabled-vs-disabled noise floor
    measured the same way.

    With ``isolate=True`` (the default) the measurement runs in a fresh
    subprocess: a percent-level differential is unrecoverable inside a
    fat host process (pytest plus its plugins), where allocator and
    collector state inflate whichever arm allocates most.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if isolate:
        import json
        import subprocess
        import sys

        code = (
            "import json, sys\n"
            f"sys.path[:0] = {sys.path!r}\n"
            "from repro.obs.overhead import measure\n"
            f"print(json.dumps(measure(rounds={rounds}, seed={seed}, "
            "isolate=False)))\n"
        )
        proc = subprocess.run(  # reprolint: disable=SIM001 -- wall-clock benchmark harness, not simulation code; isolation is the methodology
            [sys.executable, "-c", code],
            check=True, capture_output=True, text=True)
        return {key: float(value)
                for key, value in json.loads(proc.stdout).items()}
    _session(False, seed)  # warm imports/caches outside the timings

    disabled_s: List[float] = []
    ring_s: List[float] = []
    ring_pct: List[float] = []
    noise_pct: List[float] = []
    for _ in range(rounds):
        d1 = _timed(False, seed)
        ring = _timed(True, seed)
        d2 = _timed(False, seed)
        baseline = (d1 + d2) / 2.0
        disabled_s.append(baseline)
        ring_s.append(ring)
        ring_pct.append(100.0 * (ring - baseline) / baseline)
        noise_pct.append(100.0 * (d2 - d1) / baseline)

    ring = aggregate(ring_pct)
    noise = aggregate(noise_pct)
    return {
        "rounds": float(rounds),
        "session_disabled_s": aggregate(disabled_s).mean,
        "session_enabled_ring_s": aggregate(ring_s).mean,
        "obs_enabled_overhead_pct": ring.mean,
        "obs_enabled_overhead_median_pct": percentile(sorted(ring_pct), 0.5),
        "obs_enabled_overhead_ci95_pct": ring.ci95,
        "obs_disabled_overhead_pct": noise.mean,
        "obs_disabled_overhead_ci95_pct": noise.ci95,
    }
