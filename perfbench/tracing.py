"""The traced run: spans at layer boundaries, recorded from outside.

:class:`Tracer` patches the program's classes for the length of one
run and restores them afterwards; nothing under ``src/`` changes.

* ``Simulator.at`` wraps every scheduled callback so that dispatching it
  opens a span named by ``repro.obs.profile.attribute(fn)``; the
  scheduling call itself is a ``sim`` span.
* Nested spans wrap the public codec and queue entry points and the
  interrupt handlers each layer registers (``ENTRY_POINTS``).
* ``__init__`` of the classes that keep public counters is wrapped to
  register every instance, so the counts come from the layers' own
  counters at the end of the run.

A span records name, start, end and parent in four flat arrays, kept in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import array
import json
import time
from collections import defaultdict
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import repro.kiss.framing as framing
import repro.scale.shard as shard
from repro.ax25.address import AX25Address
from repro.ax25.frames import AX25Frame
from repro.ax25.lapb import LapbConnection, LapbEndpoint
from repro.core.driver import PacketRadioInterface
from repro.ethernet.lan import EthernetLan
from repro.inet.ip import IPv4Datagram
from repro.inet.netstack import NetStack
from repro.inet.tcp import TcpConnection, TcpProtocol, TcpSegment
from repro.kiss.framing import KissDeframer
from repro.netif.queues import IfQueue
from repro.obs.profile import attribute
from repro.radio.channel import RadioChannel
from repro.serialio.line import SerialEndpoint
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.tnc.kiss_tnc import KissTnc

#: Layers reported per run, in report order.  ``ax25`` is split into its
#: codecs and the LAPB state machine; ``apps`` counts as ``workload``.
LAYERS = ("sim", "serialio", "kiss", "tnc", "radio", "ax25.codec",
          "ax25.lapb", "core", "netif", "inet", "ethernet", "workload",
          "scale")

#: Labels of the top-level spans around a measured run phase.
ROOTS = ("run", "runner")

#: Spans of world building inside the sharded runner: neither a layer's
#: work nor unattributed, so excluded from every total.
SETUP = "setup"

#: (owner, attribute, layer, kind) of every nested span.  ``kind`` is
#: "method", "classmethod" or "function" (a module attribute).
ENTRY_POINTS: Tuple[Tuple[object, str, str, str], ...] = (
    (Simulator, "run", "sim", "method"),
    (SerialEndpoint, "write", "serialio", "method"),
    (framing, "escape", "kiss", "function"),
    (KissDeframer, "push", "kiss", "method"),
    (KissDeframer, "push_byte", "kiss", "method"),
    (KissTnc, "_frame_from_air", "tnc", "method"),
    (KissTnc, "_byte_from_host", "tnc", "method"),
    (KissTnc, "_burst_from_host", "tnc", "method"),
    (RadioChannel, "begin_transmission", "radio", "method"),
    (AX25Frame, "decode", "ax25.codec", "classmethod"),
    (AX25Frame, "encode", "ax25.codec", "method"),
    (AX25Address, "decode", "ax25.codec", "classmethod"),
    (LapbEndpoint, "handle_frame", "ax25.lapb", "method"),
    (PacketRadioInterface, "_rx_char_interrupt", "core", "method"),
    (PacketRadioInterface, "_rx_burst", "core", "method"),
    (PacketRadioInterface, "if_output", "core", "method"),
    (IfQueue, "enqueue", "netif", "method"),
    (NetStack, "ip_output", "inet", "method"),
    (NetStack, "_drain_ip_input", "inet", "method"),
    (TcpProtocol, "input", "inet", "method"),
    (IPv4Datagram, "encode", "inet", "method"),
    (IPv4Datagram, "decode", "inet", "classmethod"),
    (TcpSegment, "encode", "inet", "method"),
    (TcpSegment, "decode", "inet", "classmethod"),
    (shard, "build_region", SETUP, "function"),
)

#: Classes whose instances are registered for their public counters.
COUNTED = (Simulator, SerialEndpoint, KissDeframer, KissTnc, RadioChannel,
           PacketRadioInterface, IfQueue, NetStack, TcpConnection,
           LapbConnection, EthernetLan)


def event_layer(fn: Callable) -> Tuple[str, str]:
    """(layer, label) of one event callback."""
    if isinstance(fn, partial):
        fn = fn.func
    layer, component, site = attribute(fn)
    if layer == "ax25":
        layer = "ax25.lapb" if component == "lapb" else "ax25.codec"
    elif layer == "apps":
        layer = "workload"
    elif layer not in LAYERS:
        layer = "other"
    return layer, f"{component}.{site}"


class Tracer:
    """Span recorder plus the patches that feed it, for one run."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.current = -1
        self.instances: Dict[type, list] = defaultdict(list)
        self.calls: Dict[str, int] = defaultdict(int)
        self.scheduled = 0
        self.backlog_max = 0
        #: (until, seconds) of every Simulator.run call.
        self.run_calls: List[Tuple[Optional[int], float]] = []
        self.metrics: Dict[str, float] = {}
        self.negative_self_spans = 0
        self._run_started = 0.0
        self._restore: List[Tuple[object, str, object]] = []
        self._record = self._recorder()

    # -- span primitives -------------------------------------------------

    def name_id(self, layer: str, label: str) -> int:
        key = (layer, label)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _recorder(self) -> Callable:
        """``record(nid, fn, *args)``: call ``fn`` inside a span ``nid``."""
        names, parents = self.span_name.append, self.span_parent
        starts, ends = self.span_start, self.span_end
        add_parent, add_start, add_end = (parents.append, starts.append,
                                          ends.append)
        now = time.perf_counter
        tracer = self

        def record(nid, fn, *args, **kwargs):
            index = len(starts)
            names(nid)
            add_parent(tracer.current)
            add_start(now())
            add_end(0.0)
            tracer.current = index
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                tracer.current = parents[index]

        return record

    def _spanned(self, fn: Callable, nid: int,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``nid``, with optional hooks."""
        record = self._record

        def spanned(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = record(nid, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return spanned

    def measure(self, layer: str, label: str, phase: Callable) -> None:
        """Run ``phase`` inside a top-level span: the measured run phase."""
        self._record(self.name_id(layer, label), phase)

    # -- patching --------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Patch the program; undone by :meth:`uninstall`."""
        hooks = self._hooks()
        for owner, attr, layer, kind in ENTRY_POINTS:
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            nid = self.name_id(layer, label)
            before, after = hooks.get(label, (None, None))
            if kind == "classmethod":
                fn = owner.__dict__[attr].__func__
                self._patch(owner, attr, classmethod(
                    self._spanned(fn, nid, before, after)))
            else:
                fn = (owner.__dict__[attr] if kind == "method"
                      else getattr(owner, attr))
                self._patch(owner, attr, self._spanned(fn, nid, before, after))
        self._patch(Simulator, "at", self._traced_at(Simulator.__dict__["at"]))
        for cls in COUNTED:
            self._patch(cls, "__init__", self._registering(cls))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable], Optional[Callable]]]:
        calls = self.calls

        def count(name: str, size: Callable = lambda args: 1):
            def before(args, _kwargs) -> None:
                calls[name] += size(args)
            return before

        def backlog(args, _kwargs, _result) -> None:
            depth = args[0].tx_backlog_bytes
            if depth > self.backlog_max:
                self.backlog_max = depth

        def run_started(_args, _kwargs) -> None:
            self._run_started = time.perf_counter()

        def run_done(args, kwargs, _result) -> None:
            until = kwargs.get("until", args[1] if len(args) > 1 else None)
            self.run_calls.append(
                (until, time.perf_counter() - self._run_started))

        return {
            "Simulator.run": (run_started, run_done),
            "SerialEndpoint.write": (None, backlog),
            "repro.kiss.framing.escape": (
                count("escape_bytes", lambda args: len(args[0])), None),
            "KissDeframer.push": (
                count("deframe_bytes", lambda args: len(args[1])), None),
            "KissDeframer.push_byte": (count("deframe_bytes"), None),
            "AX25Frame.decode": (count("frames_decoded"), None),
            "AX25Address.decode": (count("addr_decodes"), None),
        }

    def _traced_at(self, at: Callable) -> Callable:
        """``Simulator.at`` scheduling each callback inside its own span."""
        event_ids: Dict[object, int] = {}
        record = self._record
        tracer = self

        def schedule(sim, when, fn, *args, label="", **kwargs):
            tracer.scheduled += 1
            target = getattr(fn, "__func__", fn)
            key = getattr(target, "__code__", target)
            nid = event_ids.get(key)
            if nid is None:
                nid = event_ids[key] = tracer.name_id(*event_layer(fn))
            return at(sim, when, partial(record, nid, fn), *args,
                      label=label, **kwargs)

        return self._spanned(schedule, self.name_id("sim", "Simulator.at"))

    def _registering(self, cls: type) -> Callable:
        init = cls.__dict__["__init__"]
        registry = self.instances[cls]

        def registering(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)

        return registering

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Per-layer self seconds, per-label span counts, setup seconds.

        Spans recorded while the world was built (outside any root span)
        and spans under a ``setup`` span are excluded.
        """
        count = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        layer_of = [layer for layer, _label in self.names]
        root_ids = {nid for nid, (_layer, label) in enumerate(self.names)
                    if label in ROOTS}
        included = bytearray(count)
        child = array.array("d", bytes(8 * count))
        for index in range(count):
            parent = parents[index]
            if parent < 0:
                included[index] = names[index] in root_ids
            else:
                child[parent] += ends[index] - starts[index]
                included[index] = (included[parent]
                                   and layer_of[names[index]] != SETUP)
        per_layer: Dict[str, float] = defaultdict(float)
        per_label: Dict[str, int] = defaultdict(int)
        setup_s = 0.0
        for index in range(count):
            nid = names[index]
            duration = ends[index] - starts[index]
            if layer_of[nid] == SETUP:
                setup_s += duration
            if not included[index]:
                continue
            own = duration - child[index]
            if own < -1e-9:
                self.negative_self_spans += 1
            per_layer[layer_of[nid]] += own
            per_label[self.names[nid][1]] += 1
        return per_layer, per_label, setup_s

    def _common(self, per_layer: Dict[str, float], per_label: Dict[str, int],
                traced_s: float) -> Dict[str, float]:
        inst = self.instances
        out: Dict[str, float] = {}
        sims = inst[Simulator]
        events = sum(sim.events_executed for sim in sims)
        horizon = max((sim.now for sim in sims), default=0) / SECOND
        pending = sum(len(sim.pending_events()) for sim in sims)
        out["sim.events"] = float(events)
        out["sim.events_per_sim_s"] = events / horizon if horizon else 0.0
        out["sim.cancelled_ratio"] = (
            (self.scheduled - events - pending) / self.scheduled
            if self.scheduled else 0.0)

        endpoints = inst[SerialEndpoint]
        out["serialio.bytes"] = float(sum(e.bytes_sent for e in endpoints))
        out["serialio.rx_interrupts"] = float(
            per_label.get("line.SerialEndpoint._deliver", 0)
            + per_label.get("line.SerialEndpoint._deliver_burst", 0))
        out["serialio.backlog_max_bytes"] = float(self.backlog_max)

        out["kiss.escape_bytes"] = float(self.calls["escape_bytes"])
        out["kiss.deframe_bytes"] = float(self.calls["deframe_bytes"])
        out["kiss.errors"] = float(sum(d.errors for d in inst[KissDeframer]))

        tncs = inst[KissTnc]
        out["tnc.frames_to_host"] = float(sum(t.frames_to_host for t in tncs))
        out["tnc.frames_filtered"] = float(
            sum(t.frames_filtered for t in tncs))

        channels = inst[RadioChannel]
        sent = sum(c.total_transmissions for c in channels)
        out["radio.transmissions"] = float(sent)
        out["radio.collision_ratio"] = (
            sum(c.total_collisions for c in channels) / sent if sent else 0.0)
        out["radio.utilisation"] = (
            sum(c.utilisation() for c in channels) / len(channels)
            if channels else 0.0)

        # i_sent counts first transmissions only; the ratio is the share
        # of I-frame transmissions that were go-back-N resends.
        links = inst[LapbConnection]
        i_rexmit = sum(link.stats["i_rexmit"] for link in links)
        i_total = i_rexmit + sum(link.stats["i_sent"] for link in links)
        out["ax25.frames_decoded"] = float(self.calls["frames_decoded"])
        out["ax25.addr_decodes"] = float(self.calls["addr_decodes"])
        out["ax25.lapb_rexmit_ratio"] = i_rexmit / i_total if i_total else 0.0

        drivers = inst[PacketRadioInterface]
        frames_in = sum(d.frames_from_tnc for d in drivers)
        out["core.frames_in"] = float(frames_in)
        out["core.not_for_us_ratio"] = (
            sum(d.frames_not_for_us for d in drivers) / frames_in
            if frames_in else 0.0)
        out["core.sheds"] = float(sum(d.osheds for d in drivers))

        queues = inst[IfQueue]
        out["netif.enqueued"] = float(sum(q.enqueued for q in queues))
        out["netif.drops"] = float(sum(q.drops for q in queues))
        out["netif.depth_max"] = float(
            max((q.high_watermark for q in queues), default=0))

        stacks = inst[NetStack]
        conns = inst[TcpConnection]
        segments = sum(c.stats["segments_sent"] for c in conns)
        out["inet.ip_datagrams"] = float(
            sum(s.counters["ip_received"] for s in stacks))
        out["inet.ip_forwarded"] = float(
            sum(s.counters["ip_forwarded"] for s in stacks))
        out["inet.tcp_segments"] = float(segments)
        out["inet.tcp_rexmit_ratio"] = (
            sum(c.stats["retransmissions"] for c in conns) / segments
            if segments else 0.0)

        out["ethernet.frames"] = float(
            sum(lan.frames_carried for lan in inst[EthernetLan]))

        for layer in LAYERS:
            key = {"ax25.codec": "ax25.codec_self_s",
                   "ax25.lapb": "ax25.lapb_self_s"}.get(layer,
                                                      f"{layer}.self_s")
            out[key] = per_layer.get(layer, 0.0)
        attributed = sum(per_layer.get(layer, 0.0) for layer in LAYERS)
        out["trace.unattributed_s"] = max(0.0, traced_s - attributed)
        return out

    def finish_scenario(self, wall_s: float) -> None:
        per_layer, per_label, _setup = self.self_times()
        self.metrics = self._common(per_layer, per_label, wall_s)
        self.metrics.update({"scale.windows": 0.0, "scale.link_packets": 0.0,
                             "scale.window_overhead_s": 0.0,
                             "scale.straggler_ratio": 0.0})

    def finish_sharded(self, metrics: Dict[str, float], wall_s: float) -> None:
        per_layer, per_label, setup_s = self.self_times()
        out = self._common(per_layer, per_label, wall_s - setup_s)
        windows: Dict[int, List[float]] = defaultdict(list)
        for until, seconds in self.run_calls:
            windows[int(until or 0)].append(seconds)
        run_s = sum(sum(times) for times in windows.values())
        mean_s = sum(sum(t) / len(t) for t in windows.values())
        out["scale.windows"] = float(len(windows))
        out["scale.link_packets"] = float(
            metrics.get("total/link_packets_out", 0.0))
        out["scale.window_overhead_s"] = max(0.0, wall_s - setup_s - run_s)
        out["scale.straggler_ratio"] = (
            sum(max(t) for t in windows.values()) / mean_s if mean_s else 0.0)
        self.metrics = out

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span: a JSON header line, then the four arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)


def load_spans(path) -> Tuple[List[Tuple[str, str]], array.array,
                              array.array, array.array, array.array]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array.array(code)
            column.fromfile(handle, count)
            columns.append(column)
    names = [tuple(pair) for pair in header["names"]]
    return (names, *columns)  # type: ignore[return-value]
