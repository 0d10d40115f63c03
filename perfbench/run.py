"""The repo benchmark: one workload per invocation, or all of them.

Usage (from the repository root)::

    python3 perfbench/run.py --workload soak_per_char --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs universe 0 untraced and then traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and sample count, and a
``perfbench-record`` line with the provenance (commit, Python, nproc,
source fingerprint, digests).  ``--workload all`` runs every workload in
its own process and exits non-zero if any correctness check failed.

Correctness checks (a failed check makes the run incorrect; nothing is
dropped): every universe's simulated-time digest must repeat within the
run, across runs of the same (workload, seed, source) -- kept in
``.perfbench/digests.json`` -- and between timed and traced runs; the
sharded workload's digest must be equal at procs=1 and procs=2; after
the drain window every offered operation must be completed or failed.

Host seconds are rescaled to a reference host by calibration slices
interleaved with the simulation (``hostspeed.Meter``); the raw figures
are in the record line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

#: Fresh-process set-up measurements per timed run (median reported).
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "station_sim_s_per_wall_s": "station-s/s",
    "peak_rss_mb": "MB",
    "ping_rtt_p50_s": "s",
    "ping_rtt_p90_s": "s",
    "goodput_Bps": "B/s",
    "ops_completed_ratio": "fraction",
}


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"perfbench: no program source at {package.parent}; "
                         "run from a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> Tuple[float, float]:
    """Nearest-rank ``q`` percentile, lowered until >= 10 samples lie beyond.

    Returns (value, percentile actually used); (nan, 0) with no samples.
    """
    if not samples:
        return math.nan, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    if n * (1.0 - q) < 10 and q > 0.5:
        q = max(0.5, 1.0 - 10.0 / n)
    rank = max(1, math.ceil(q * n))
    return float(ordered[rank - 1]), q


# ----------------------------------------------------------------------
# provenance and the digest store
# ----------------------------------------------------------------------

def source_fingerprint() -> str:
    """Digest of the program and benchmark sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_digests(entries: Dict[str, str]) -> List[str]:
    """Keys whose digest differs from an earlier run; records new keys."""
    STATE.mkdir(exist_ok=True)
    path = STATE / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    changed = [key for key, value in entries.items()
               if key in known and known[key] != value]
    known.update({k: v for k, v in entries.items() if k not in known})
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(known, indent=0, sort_keys=True))
    os.replace(scratch, path)
    return changed


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------

def setup_probe(workload: str, seed: int, t0: float) -> None:
    """Child side: imports plus world build plus first event.

    The calibration runs in the child right after, on the core that
    did the set-up.
    """
    import workloads

    workloads.setup_world(workloads.WORKLOADS[workload], seed)
    elapsed = time.perf_counter() - t0
    print(f"perfbench-setup {elapsed!r} {hostspeed.calibration_s()!r}",
          flush=True)


def measure_setup(workload: str, seed: int) -> Tuple[List[float], List[float]]:
    """Set-up times, each in a fresh interpreter, and calibrations."""
    times, calibrations = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--t0", repr(t0)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = [line for line in done.stdout.splitlines()
                 if line.startswith("perfbench-setup ")]
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        _, elapsed, calibration = lines[-1].split()
        times.append(float(elapsed))
        calibrations.append(float(calibration))
    return times, calibrations


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def digest_key(wl, seed: int, universe: int, source: str) -> str:
    """Store key: the workload definition and sources are part of it."""
    definition = hashlib.sha256(repr(wl).encode()).hexdigest()
    return f"{wl.name}/seed{seed}/u{universe}/{definition[:12]}/{source[:12]}"


def timed_run(wl, seed: int, seconds: float, source: str) -> dict:
    import probes
    import workloads

    raw_setup, setup_calibrations = measure_setup(wl.name, seed)
    problems: List[str] = []
    attempted = 0
    failed_runs = set()  # (pass, universe) of every run that failed a check
    first: List = []
    walls: List[float] = []
    meter = hostspeed.Meter()
    worker_rss: List[int] = []
    station_s = wl.foreground_stations * (wl.duration_s + wl.drain_s)
    started = time.perf_counter()
    passes = 0
    # Whole passes over the universes until the time is spent; a later
    # pass must reproduce every digest of the first.
    while passes == 0 or (time.perf_counter() - started) * (passes + 1) \
            <= seconds * passes:
        for index in range(wl.universes):
            universe = workloads.run_universe(wl, seed, index, meter=meter)
            gc.collect()  # no world outlives its universe: steadier peaks
            attempted += 1
            bad = list(universe.violations)
            if passes and universe.digest() != first[index].digest():
                bad.append(f"universe {index}: digest changed between passes")
            if not passes:
                first.append(universe)
            if bad:
                failed_runs.add((passes, index))
                problems.extend(bad)
            walls.append(universe.wall_s)
            for position, rss in enumerate(universe.worker_rss_kb):
                if position < len(worker_rss):
                    worker_rss[position] = max(worker_rss[position], rss)
                else:
                    worker_rss.append(rss)
        passes += 1
    # All station-seconds over all host seconds, per reference second:
    # the slices sampled the host in the same moments as the universes.
    raw_rate = station_s * len(walls) / sum(walls)
    calibration = meter.calibration_s()
    rate = raw_rate / hostspeed.normalised(1.0, calibration)
    digests = {digest_key(wl, seed, index, source): u.digest()
               for index, u in enumerate(first)}
    if wl.check_procs:
        other = workloads.run_universe(wl, seed, 0, procs=wl.check_procs)
        attempted += 1
        if other.digest() != first[0].digest() or other.violations:
            failed_runs.add(f"procs={wl.check_procs}")
            problems.append(f"procs={wl.procs} and procs={wl.check_procs} "
                            "digests differ")
    for key in check_digests(digests):
        failed_runs.add((0, int(key.split("/")[2][1:])))
        problems.append(f"digest of {key} differs from an earlier run")

    samples = probes.Samples()
    ops = probes.Ops()
    for universe in first:
        samples.extend(universe.samples)
        ops.extend(universe.ops)
    rtts_s = [rtt / 1e6 for rtt in samples.ping_rtt_us]
    p50, _ = percentile(rtts_s, 0.5)
    p90, q90 = percentile(rtts_s, 0.9)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    offered = ops.total("offered")
    metrics = {
        "setup_s": statistics.median(map(hostspeed.normalised, raw_setup,
                                         setup_calibrations)),
        "station_sim_s_per_wall_s": rate,
        "peak_rss_mb": (own_kb + sum(worker_rss)) / 1024.0,
        "ping_rtt_p50_s": p50,
        "ping_rtt_p90_s": p90,
        "goodput_Bps": samples.payload_bytes / (wl.universes * wl.duration_s),
        "ops_completed_ratio": (ops.total("completed") / offered
                                if offered else math.nan),
    }
    counts = {
        "setup_s": len(raw_setup),
        "station_sim_s_per_wall_s": len(walls),
        "peak_rss_mb": 1 + len(worker_rss),
        "ping_rtt_p50_s": len(rtts_s),
        "ping_rtt_p90_s": len(rtts_s),
        "goodput_Bps": ops.total("completed"),
        "ops_completed_ratio": offered,
    }
    problems.extend(f"{name} has no positive value ({value})"
                    for name, value in metrics.items()
                    if not (math.isfinite(value) and value > 0))
    return {
        "metrics": {name: (value, END_TO_END_UNITS[name])
                    for name, value in metrics.items()},
        "counts": counts,
        "attempted": attempted,
        "failed": len(failed_runs),
        "problems": problems,
        "extra": {"ping_rtt_p90_percentile_used": q90,
                  "passes": passes,
                  "raw_station_sim_s_per_wall_s": raw_rate,
                  "raw_setup_s": statistics.median(raw_setup),
                  "calibration_s": calibration,
                  "calibration_slices": meter.slices,
                  "calibration_share": meter.slice_s / (meter.slice_s
                                                        + sum(walls)),
                  "ops": ops.as_dict(),
                  "digests": digests},
    }


def traced_run(wl, seed: int, source: str) -> dict:
    import tracing
    import workloads

    procs = 1  # the traced sharded run goes inline; digests prove equality
    problems: List[str] = []
    # The first run warms the interpreter (lazy imports, caches); the
    # second is the untraced wall-time reference.
    warm = workloads.run_universe(wl, seed, 0, procs=procs)
    reference = workloads.run_universe(wl, seed, 0, procs=procs)
    tracer = tracing.Tracer()
    traced = workloads.run_universe(wl, seed, 0, procs=procs, tracer=tracer)
    failed_runs = set()
    if warm.digest() != reference.digest():
        failed_runs.add("reference")
        problems.append("untraced digest changed between runs")
    for name, universe in (("reference", reference), ("traced", traced)):
        if universe.violations:
            failed_runs.add(name)
            problems.extend(universe.violations)
    if traced.digest() != reference.digest():
        failed_runs.add("traced")
        problems.append("traced and untraced digests differ")
    if tracer.negative_self_spans:
        failed_runs.add("traced")
        problems.append(f"{tracer.negative_self_spans} spans with negative "
                        "self time")
    for key in check_digests({digest_key(wl, seed, 0, source):
                              reference.digest()}):
        failed_runs.add("reference")
        problems.append(f"digest of {key} differs from an earlier run")

    STATE.mkdir(exist_ok=True)
    spans_path = STATE / f"spans-{wl.name}.bin"
    tracer.write(spans_path)
    per_layer = dict(tracer.metrics)
    per_layer["workload.ops_offered"] = float(reference.ops.total("offered"))
    transfer_s = [t / 1e6 for t in reference.samples.tcp_transfer_us]
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        value = percentile(transfer_s, q)[0] if transfer_s else 0.0
        per_layer[f"workload.tcp_transfer_{name}_s"] = value
    per_layer["trace.overhead_ratio"] = traced.wall_s / reference.wall_s
    counts = {name: 1 for name in per_layer}
    counts["workload.tcp_transfer_p50_s"] = len(transfer_s)
    counts["workload.tcp_transfer_p90_s"] = len(transfer_s)
    counts["sim.self_s"] = len(tracer.span_start)
    return {
        "metrics": {name: (value, per_layer_unit(name))
                    for name, value in sorted(per_layer.items())},
        "counts": counts,
        "attempted": 3,
        "failed": len(failed_runs),
        "problems": problems,
        "extra": {"spans": len(tracer.span_start),
                  "spans_file": os.path.relpath(spans_path, ROOT),
                  "untraced_wall_s": reference.wall_s,
                  "traced_wall_s": traced.wall_s},
    }


def per_layer_unit(name: str) -> str:
    if name == "sim.events_per_sim_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "radio.utilisation":
        return "fraction"
    if name.endswith("_bytes") or name == "serialio.bytes":
        return "B"
    return "count"


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    wl = workloads.WORKLOADS[workload]
    source = source_fingerprint()
    if trace:
        result = traced_run(wl, seed, source)
    else:
        result = timed_run(wl, seed, seconds, source)
    correct = result["failed"] == 0 and not result["problems"]
    for problem in result["problems"]:
        print(f"CHECK FAILED {wl.name}: {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{wl.name:14s} {name:30s} {value:14.6f} {unit:12s} "
              f"n={result['counts'].get(name, 1)}")
    record = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "commit": commit(), "source_sha256": source,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "sample_counts": result["counts"], **result["extra"],
    }
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; non-zero on any failure."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith("perfbench-record "):
                print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(done.stderr)
            result = {"correct": False}
        if done.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"{name}: FAILED")
    print("all workloads correct" if ok else "some workload FAILED")
    return 0 if ok else 1


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(list(argv) or None)
    bootstrap()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.t0)
        return 0
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
