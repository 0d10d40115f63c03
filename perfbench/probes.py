"""Samples and operation accounting, recorded from outside the program.

The program keeps aggregate metrics (means, totals); the benchmark needs
per-operation samples for percentiles and an independent count of what
happened to every offered operation.  Everything here reads public state
after the run or wraps a callback on a single object, so the simulation
itself is untouched (the run digests prove it).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

import repro.scale.shard as shard
from repro.workload.generators import (
    BbsTerminalGenerator,
    PingGenerator,
    TcpTransferGenerator,
    UdpBlastGenerator,
)

#: What the BBS prints when a terminal user's ``B`` (bye) lands: a
#: session that sees it was served to the end.
BBS_BYE = b"73!"


def digest(value: object) -> str:
    """Stable digest of a JSON-able value (floats by repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Samples:
    """Per-operation samples in simulated microseconds."""

    ping_rtt_us: List[int] = field(default_factory=list)
    tcp_transfer_us: List[int] = field(default_factory=list)
    #: Application payload delivered to the sinks (TCP discard, UDP
    #: sink, echo payload), excluding headers and retransmissions.
    payload_bytes: int = 0

    def extend(self, other: "Samples") -> None:
        self.ping_rtt_us.extend(other.ping_rtt_us)
        self.tcp_transfer_us.extend(other.tcp_transfer_us)
        self.payload_bytes += other.payload_bytes

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class Ops:
    """Offered / completed / failed application operations per kind."""

    offered: Dict[str, int] = field(default_factory=dict)
    completed: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, offered: int, completed: int, failed: int) -> None:
        for book, value in ((self.offered, offered),
                            (self.completed, completed),
                            (self.failed, failed)):
            book[kind] = book.get(kind, 0) + int(value)

    def extend(self, other: "Ops") -> None:
        for kind in other.offered:
            self.add(kind, other.offered[kind], other.completed[kind],
                     other.failed[kind])

    def total(self, book: str) -> int:
        return sum(getattr(self, book).values())

    def balance_violations(self) -> List[str]:
        """Offered must equal completed plus failed, kind by kind."""
        return [f"{kind}: offered {self.offered[kind]} != completed "
                f"{self.completed[kind]} + failed {self.failed[kind]}"
                for kind in sorted(self.offered)
                if self.offered[kind]
                != self.completed[kind] + self.failed[kind]]

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def _count(generator, name: str) -> int:
    return int(generator.counters.snapshot().get(name, 0))


class ScenarioWatch:
    """Outside-the-program probes on one built scenario.

    Per-transfer TCP times are taken by wrapping each transfer
    generator's ``fire`` on the instance: the new socket's close callback
    is chained to record connect-to-FIN-close time.
    """

    def __init__(self, run) -> None:
        self.run = run
        self.transfer_us: List[int] = []
        for generator in run.generators:
            if isinstance(generator, TcpTransferGenerator):
                generator.fire = self._timed_fire(generator)

    def _timed_fire(self, generator: TcpTransferGenerator):
        original = generator.fire
        sim = generator.sim
        samples = self.transfer_us

        def fire() -> None:
            before = len(generator._open)
            original()
            if len(generator._open) == before:
                return  # skipped: too many transfers already in flight
            socket = generator._open[-1]
            started = sim.now
            chained = socket.on_close

            def on_close(reason: str) -> None:
                if reason == "closed":
                    samples.append(sim.now - started)
                chained(reason)

            socket.on_close = on_close

        return fire

    def collect(self) -> Tuple[Samples, Ops, List[str]]:
        """Samples, op accounting and consistency violations after drain."""
        run = self.run
        samples = Samples(tcp_transfer_us=list(self.transfer_us))
        ops = Ops()
        problems: List[str] = []
        kinds = {kind: [g for g in run.generators if isinstance(g, cls)]
                 for kind, cls in (("ping", PingGenerator),
                                   ("udp", UdpBlastGenerator),
                                   ("tcp", TcpTransferGenerator),
                                   ("bbs", BbsTerminalGenerator))}

        pings = kinds["ping"]
        if pings:
            offered = sum(_count(g, "arrivals") for g in pings)
            sent = sum(g.pinger.sent for g in pings)
            received = sum(g.pinger.received for g in pings)
            for generator in pings:
                samples.ping_rtt_us.extend(generator.pinger.rtts_us)
                samples.payload_bytes += (generator.pinger.received
                                          * generator.payload_size)
            if offered != sent:
                problems.append(f"ping: {offered} arrivals but {sent} sent")
            if received != len(samples.ping_rtt_us):
                problems.append("ping: reply count != RTT sample count")
            ops.add("ping", offered, received, offered - received)

        udps = kinds["udp"]
        if udps:
            offered = sum(_count(g, "arrivals") for g in udps)
            sent = sum(_count(g, "datagrams_sent") for g in udps)
            unroutable = sum(_count(g, "datagrams_unroutable") for g in udps)
            delivered = run.udp_sink.datagrams
            samples.payload_bytes += run.udp_sink.bytes
            if offered != sent + unroutable:
                problems.append("udp: arrivals != sent + unroutable")
            if delivered > sent:
                problems.append("udp: sink saw more datagrams than sent")
            ops.add("udp", offered, delivered,
                    unroutable + (sent - delivered))

        tcps = kinds["tcp"]
        if tcps:
            offered = sum(_count(g, "arrivals") for g in tcps)
            started = sum(_count(g, "transfers_started") for g in tcps)
            skipped = sum(_count(g, "transfers_skipped_busy") for g in tcps)
            completed = sum(_count(g, "transfers_completed") for g in tcps)
            failed = sum(_count(g, "transfers_failed") for g in tcps)
            still_open = sum(len(g._open) for g in tcps)
            samples.payload_bytes += run.discard.bytes
            if offered != started + skipped:
                problems.append("tcp: arrivals != started + skipped")
            if started != completed + failed + still_open:
                problems.append("tcp: started != completed + failed + open")
            if completed != len(samples.tcp_transfer_us):
                problems.append("tcp: completed != transfer sample count")
            if run.discard.bytes < completed * min(
                    g.transfer_bytes for g in tcps):
                problems.append("tcp: discard sink short of completed bytes")
            ops.add("tcp", offered, completed, skipped + failed + still_open)

        bbss = kinds["bbs"]
        if bbss:
            offered = sum(_count(g, "arrivals") for g in bbss)
            started = sum(_count(g, "sessions_started") for g in bbss)
            skipped = sum(_count(g, "sessions_skipped_busy") for g in bbss)
            served = sum(bytes(g.terminal.screen).count(BBS_BYE)
                         for g in bbss)
            if offered != started + skipped:
                problems.append("bbs: arrivals != started + skipped")
            if served > started:
                problems.append("bbs: more sessions served than started")
            ops.add("bbs", offered, served, skipped + (started - served))

        problems.extend(ops.balance_violations())
        return samples, ops, problems


class ShardHarvest:
    """Ship per-ping RTTs and worker peak RSS back from shard workers.

    While active, the runner's per-region dump carries one extra entry
    (every pinger's ``rtts_us`` plus the dumping process's peak RSS),
    which is taken off again before the runner merges metrics.  Workers
    are forked, so they inherit the patched module.
    """

    KEY = "perfbench"

    def __init__(self) -> None:
        self.by_region: Dict[int, Dict[str, object]] = {}
        self._saved: Dict[str, object] = {}

    def __enter__(self) -> "ShardHarvest":
        parent = os.getpid()
        region_dump = shard.region_dump

        def dump_with_samples(region):
            dump = region_dump(region)
            rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   if os.getpid() != parent else 0)
            dump[self.KEY] = {
                "rtts": [rtt for generator in region.generators
                         for rtt in generator.pinger.rtts_us],
                "pid": os.getpid(),
                "rss_kb": rss,
            }
            return dump

        def harvesting(runner):
            def run(*args, **kwargs):
                dumps = runner(*args, **kwargs)
                for index, dump in dumps.items():
                    self.by_region[index] = dump.pop(self.KEY)
                return dumps
            return run

        self._saved = {name: getattr(shard, name) for name in
                       ("region_dump", "_run_inline", "_run_processes")}
        shard.region_dump = dump_with_samples
        shard._run_inline = harvesting(self._saved["_run_inline"])
        shard._run_processes = harvesting(self._saved["_run_processes"])
        return self

    def __exit__(self, *_exc) -> None:
        for name, value in self._saved.items():
            setattr(shard, name, value)

    def rtts(self) -> List[int]:
        return [rtt for index in sorted(self.by_region)
                for rtt in self.by_region[index]["rtts"]]  # type: ignore[union-attr]

    def worker_rss_kb(self) -> List[int]:
        """Peak RSS of each distinct worker process (empty when inline)."""
        per_pid: Dict[int, int] = {}
        for entry in self.by_region.values():
            if entry["rss_kb"]:
                per_pid[int(entry["pid"])] = int(entry["rss_kb"])  # type: ignore[arg-type]
        return [per_pid[pid] for pid in sorted(per_pid)]


def shard_outcome(metrics: Dict[str, float], harvest: ShardHarvest,
                  payload_bytes: int) -> Tuple[Samples, Ops, List[str]]:
    """Samples, op accounting and violations of one sharded run."""
    problems: List[str] = []
    regions = int(metrics["total/regions"])
    if sorted(harvest.by_region) != list(range(regions)):
        problems.append("shard: samples missing for some regions")
    offered = int(metrics.get("total/arrivals", 0))
    sent = int(metrics.get("total/pings_sent", 0))
    received = int(metrics.get("total/pings_received", 0))
    samples = Samples(ping_rtt_us=harvest.rtts(),
                      payload_bytes=received * payload_bytes)
    if offered != sent:
        problems.append(f"ping: {offered} arrivals but {sent} sent")
    if received != len(samples.ping_rtt_us):
        problems.append("ping: reply count != RTT sample count")
    ops = Ops()
    ops.add("ping", offered, received, offered - received)
    problems.extend(ops.balance_violations())
    return samples, ops, problems
