"""Conservative time-windowed sharded execution.

Each :class:`~repro.scale.regions.Region` is an independent simulator;
the only coupling between regions is the inter-region gateway link,
whose one-way latency ``W`` (``ScaleLayout.link_latency``) is the
**lookahead** of a classic conservative parallel-simulation protocol:

* time advances in windows of width ``W``;
* a packet handed to the link during window ``k`` (send time in
  ``(kW, (k+1)W]``) arrives at ``send + W``, which is strictly inside
  window ``k+1`` or later -- so running every region to the next
  barrier *before* exchanging messages can never violate causality;
* at each barrier the runner drains every region's link outbox, sorts
  the messages by the layout-independent key ``(send_time, src_region,
  seq)``, and injects each into its destination region's twin
  interface at ``send + W``.

Because regions are seeded independently of the process layout
(:func:`~repro.scale.regions.derive_region_seed`) and the message
exchange is a deterministic function of the drained sets, the merged
metrics are a pure function of (layout, seed): running with 1, 2 or 4
worker processes yields byte-identical digests, which the scale gate
(``python -m repro scale``) asserts.

The multi-process path forks one worker per shard; workers hold their
regions for the whole run and speak a tiny message protocol over a
pipe (``("window", window, inbound)`` -> outbound list,
``("finish",)`` -> per-region dumps).  A worker that fails answers with
a :class:`ShardWorkerError` (region, window, traceback) instead, which
the parent raises.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import sum_metrics
from repro.obs.merge import MergedFlightView, merge_pcaps
from repro.obs.spans import SpanContext
from repro.scale.regions import (
    Region,
    ScaleLayout,
    build_region,
    region_dump,
)
from repro.sim.clock import seconds

#: (send_time, seq, next_hop, packet, span_context) as drained from a
#: link outbox; the context is None unless the layout is observed.
OutboxEntry = Tuple[int, int, str, bytes, Optional[SpanContext]]

#: (arrival_time, packet, span_context) ready to inject into a
#: destination region.
InboundEntry = Tuple[int, bytes, Optional[SpanContext]]


def window_count(layout: ScaleLayout) -> int:
    """Number of barriers needed to cover load plus drain time."""
    horizon = seconds(layout.duration_seconds + layout.drain_seconds)
    return max(1, -(-horizon // layout.link_latency))


def _route(
    layout: ScaleLayout,
    outbound: Sequence[Tuple[int, OutboxEntry]],
) -> Dict[int, List[InboundEntry]]:
    """Turn drained (src_region, entry) pairs into per-region inboxes.

    The global sort key (send_time, src_region, seq) depends only on
    simulation state, never on which worker drained the entry first --
    this is the line that makes shard counts interchangeable.
    """
    table = layout.ip_to_region()
    keyed = []
    for src, (send_time, seq, next_hop, packet, context) in outbound:
        dest = table.get(next_hop)
        if dest is None or dest == src:
            # Unroutable next hops die on the link, like any wire.
            continue
        keyed.append((send_time, src, seq, dest, packet, context))
    keyed.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    inbound: Dict[int, List[InboundEntry]] = {}
    for send_time, _src, _seq, dest, packet, context in keyed:
        inbound.setdefault(dest, []).append(
            (send_time + layout.link_latency, packet, context))
    return inbound


def _inject(region: Region, entries: Sequence[InboundEntry]) -> None:
    """Schedule a window's inbound packets; all arrivals are >= now."""
    for arrival, packet, context in entries:
        region.sim.at(arrival, region.link.inject, packet, context,
                      label=f"irl0 arrival region{region.index}")


def _step_window(
    region: Region,
    barrier: int,
    entries: Sequence[InboundEntry],
) -> List[Tuple[int, OutboxEntry]]:
    """Advance one region to ``barrier`` and drain what it sent."""
    _inject(region, entries)
    region.sim.run(until=barrier)
    return [(region.index, entry) for entry in region.link.drain_outbox()]


def merge_metrics(
    layout: ScaleLayout,
    per_region: Dict[int, Dict[str, float]],
) -> Dict[str, float]:
    """Merge per-region metrics into one flat, digestable dict.

    Every region keeps its own namespaced copy (``region0/...``); the
    ``total/...`` entries are :func:`~repro.metrics.stats.sum_metrics`
    of the regions, so merged means are weighted by their samples.
    """
    merged: Dict[str, float] = {}
    for index in sorted(per_region):
        for key in sorted(per_region[index]):
            merged[f"region{index}/{key}"] = float(per_region[index][key])
    totals = sum_metrics(per_region[index] for index in sorted(per_region))
    for key in sorted(totals):
        merged[f"total/{key}"] = totals[key]
    merged["total/regions"] = float(layout.regions)
    if "total/obs_born_total" in merged:
        # The merged conservation invariant.  Per-region books balance
        # by construction (born + adopted == delivered + dropped + shed
        # + handed_off + in_flight); what can actually break across
        # shards is a contradictory terminal or a handoff that no
        # region adopted -- so that is what the gate metric checks, and
        # the run-wide "born == delivered + dropped + shed + in_flight"
        # identity follows.
        ok = (merged.get("total/obs_conservation_violations", 0.0) == 0.0
              and merged.get("total/obs_handed_off", 0.0)
              == merged.get("total/obs_adopted", 0.0))
        merged["total/obs_sharded_conservation_ok"] = 1.0 if ok else 0.0
    return merged


# ----------------------------------------------------------------------
# inline execution (procs=1, also the in-worker step loop)
# ----------------------------------------------------------------------


def _barrier(layout: ScaleLayout, window: int) -> int:
    """The sim time at which ``window`` ends."""
    return (window + 1) * layout.link_latency


def _run_inline(layout: ScaleLayout) -> Dict[int, Dict[str, object]]:
    regions = [build_region(layout, index)
               for index in range(layout.regions)]
    inbound: Dict[int, List[InboundEntry]] = {}
    for window in range(window_count(layout)):
        outbound: List[Tuple[int, OutboxEntry]] = []
        for region in regions:
            outbound.extend(
                _step_window(region, _barrier(layout, window),
                             inbound.get(region.index, ())))
        inbound = _route(layout, outbound)
    return {region.index: region_dump(region) for region in regions}


# ----------------------------------------------------------------------
# multi-process execution
# ----------------------------------------------------------------------


class ShardWorkerError(RuntimeError):
    """A shard worker failed: the region and window it was working on
    (``region`` is None when the worker died without reporting, and
    ``window`` is None while building) and the worker's traceback."""

    def __init__(self, region: Optional[int], window: Optional[int],
                 detail: str) -> None:
        super().__init__(region, window, detail)
        self.region = region
        self.window = window
        self.detail = detail

    def __str__(self) -> str:
        where = ("an unknown region" if self.region is None
                 else f"region {self.region}")
        when = ("while building" if self.window is None
                else f"in window {self.window}")
        return f"shard worker failed on {where} {when}:\n{self.detail}"


def _worker_main(layout: ScaleLayout, owned: Tuple[int, ...], conn) -> None:
    """One shard worker: builds its regions, then follows barriers.

    A failure goes back to the parent as a :class:`ShardWorkerError`;
    the worker then stays up, reading, so the parent's next send cannot
    fail before it has read the error, and exits when the parent
    terminates it.  A pipe the parent has dropped ends the worker
    quietly.
    """
    index: int = owned[0]
    window: Optional[int] = None
    try:
        regions: Dict[int, Region] = {}
        for index in owned:
            regions[index] = build_region(layout, index)
        while True:
            message = conn.recv()
            if message[0] == "finish":
                dumps: Dict[int, Dict[str, object]] = {}
                for index in owned:
                    dumps[index] = region_dump(regions[index])
                conn.send(dumps)
                return
            _, window, inbound = message
            outbound: List[Tuple[int, OutboxEntry]] = []
            for index in owned:
                outbound.extend(
                    _step_window(regions[index], _barrier(layout, window),
                                 inbound.get(index, ())))
            conn.send(outbound)
    except (EOFError, ConnectionError):
        return
    except Exception:
        failure = ShardWorkerError(index, window, traceback.format_exc())
    try:
        conn.send(failure)
        while True:
            conn.recv()
    except (EOFError, ConnectionError):
        return


def _receive(conn) -> Any:
    reply = conn.recv()
    if isinstance(reply, ShardWorkerError):
        raise reply
    return reply


def _run_processes(layout: ScaleLayout,
                   procs: int) -> Dict[int, Dict[str, object]]:
    workers = min(procs, layout.regions)
    ownership = [
        tuple(index for index in range(layout.regions)
              if index % workers == worker)
        for worker in range(workers)
    ]
    links = []
    for owned in ownership:
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(layout, owned, child_conn),
            name=f"shard-{owned[0]}")
        process.start()
        child_conn.close()
        links.append((owned, parent_conn, process))
    window: Optional[int] = None
    finished = False
    try:
        inbound: Dict[int, List[InboundEntry]] = {}
        for window in range(window_count(layout)):
            for owned, conn, _process in links:
                conn.send(("window", window,
                           {index: inbound[index] for index in owned
                            if index in inbound}))
            outbound: List[Tuple[int, OutboxEntry]] = []
            for _owned, conn, _process in links:
                outbound.extend(_receive(conn))
            inbound = _route(layout, outbound)
        per_region: Dict[int, Dict[str, object]] = {}
        for _owned, conn, _process in links:
            conn.send(("finish",))
            per_region.update(_receive(conn))
        finished = True
    except (EOFError, ConnectionError) as exc:
        raise ShardWorkerError(
            None, window,
            f"a worker exited without reporting ({exc!r})") from None
    finally:
        for _owned, conn, process in links:
            conn.close()
            if not finished:
                # Forked workers hold copies of each other's pipe ends,
                # so closing ours never reaches them as EOF.
                process.terminate()
            process.join(timeout=60)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join()
    return per_region


@dataclass
class ShardedRun:
    """Merged artifacts of one sharded run.

    ``metrics`` is always populated; ``view`` (the cross-region span
    view) exists when the layout observed, ``pcap`` (one time-ordered
    merged capture) when it captured.
    """

    metrics: Dict[str, float]
    view: Optional[MergedFlightView] = None
    pcap: Optional[bytes] = None


def run_sharded_full(layout: ScaleLayout, procs: int = 1) -> ShardedRun:
    """Run a partitioned layout and return every merged artifact.

    ``procs`` caps the worker-process count (clamped to the region
    count); ``procs=1`` runs every region inline in this process.  The
    merged result is identical for every ``procs`` value -- that is the
    contract the scale gate digests -- and the same holds for the
    merged trace view and capture, because workers ship picklable
    per-region dumps and the merge is a sorted pure function of them.
    """
    if procs < 1:
        raise ValueError("procs must be at least 1")
    if procs == 1 or layout.regions == 1:
        dumps = _run_inline(layout)
    else:
        dumps = _run_processes(layout, procs)
    metrics = merge_metrics(
        layout, {index: dump["metrics"]  # type: ignore[misc]
                 for index, dump in dumps.items()})
    view: Optional[MergedFlightView] = None
    if layout.observe:
        view = MergedFlightView(
            {index: dump["spans"]  # type: ignore[misc]
             for index, dump in dumps.items()})
    pcap: Optional[bytes] = None
    if layout.capture:
        pcap = merge_pcaps([dumps[index]["pcap"]  # type: ignore[misc]
                            for index in sorted(dumps)])
    return ShardedRun(metrics=metrics, view=view, pcap=pcap)


def run_sharded(layout: ScaleLayout, procs: int = 1) -> Dict[str, float]:
    """Run a partitioned layout and return merged metrics only."""
    return run_sharded_full(layout, procs).metrics
