"""The shared radio channel.

Models one simplex frequency.  Every attached station that can "hear"
a transmitter senses carrier while it transmits; two transmissions
audible at the same receiver that overlap in time destroy each other
there (no capture effect).  A half-duplex station cannot receive while
its own transmitter is keyed.

Propagation is a boolean hearing relation.  By default the channel is
fully connected (everyone in simplex range); hidden-terminal and
digipeater topologies set explicit links, e.g. Seattle and Tacoma both
hear a mid-point digipeater but not each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.sim.clock import MS
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import Tracer

#: How long a transmission must be on the air before other stations'
#: carrier-detect circuits register it.  1200-baud AFSK DCD was slow --
#: tens of milliseconds -- which is the "vulnerable window" that makes
#: collisions possible and p-persistent CSMA necessary.
DEFAULT_CARRIER_DETECT_DELAY = 20 * MS


@dataclass
class Transmission:
    """One frame in flight on the channel."""

    sender: "ChannelPort"
    payload: bytes
    start: int
    end: int
    #: Receivers at which this transmission has been destroyed by overlap.
    corrupted_at: Set[str] = field(default_factory=set)
    #: Flow-fidelity occupancy (see :meth:`RadioChannel.occupy`): sensed
    #: as carrier and able to corrupt overlapping real frames, but never
    #: delivered to any receiver itself.
    carrier_only: bool = False


class ChannelPort:
    """A station's attachment point to the channel.

    Created by :meth:`RadioChannel.attach`.  The owner supplies a frame
    delivery callback and (for bit errors) a name used to key the RNG
    stream.
    """

    def __init__(self, channel: "RadioChannel", name: str,
                 on_receive: Callable[[bytes], None]) -> None:
        self.channel = channel
        self.name = name
        self.on_receive = on_receive
        #: Relative received signal strength (topology-assigned); only
        #: consulted when the channel's capture effect is enabled.
        self.signal_strength = 1.0
        #: End time of this port's own current transmission (half duplex).
        self.tx_until = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_corrupted = 0

    # -- sensing -------------------------------------------------------

    def carrier_sensed(self) -> bool:
        """True if any audible station (or this one) is transmitting now."""
        return self.channel.carrier_sensed_at(self)

    @property
    def transmitting(self) -> bool:
        """True while this port's transmitter is keyed."""
        return self.tx_until > self.channel.sim.now

    # -- transmission ---------------------------------------------------

    def transmit(self, payload: bytes, airtime: int) -> Transmission:
        """Key up for ``airtime`` microseconds carrying ``payload``.

        The caller (CSMA layer) is responsible for deciding *when*; the
        channel just models the physics, including collisions if the
        caller transmits into a busy channel.
        """
        return self.channel.begin_transmission(self, payload, airtime)


class RadioChannel:
    """One simplex radio frequency shared by all attached stations."""

    def __init__(self, sim: Simulator, streams: Optional[RandomStreams] = None,
                 tracer: Optional[Tracer] = None, name: str = "145.01MHz",
                 carrier_detect_delay: int = DEFAULT_CARRIER_DETECT_DELAY,
                 capture_ratio: Optional[float] = None) -> None:
        self.sim = sim
        self.streams = streams or RandomStreams()
        self.tracer = tracer
        self.name = name
        self.carrier_detect_delay = carrier_detect_delay
        #: FM capture effect: when set (e.g. 4.0 for ~6 dB), a signal at
        #: least this factor stronger than an overlapping one survives at
        #: receivers that hear both.  None = any overlap destroys both.
        self.capture_ratio = capture_ratio
        self.ports: Dict[str, ChannelPort] = {}
        self.active: List[Transmission] = []
        #: None => fully connected; else a set of (hearer, speaker) pairs.
        self._links: Optional[Set[Tuple[str, str]]] = None
        #: Fault-injection state (installed by :mod:`repro.faults`).
        #: Receivers listed in ``fade_probability`` lose frames with that
        #: probability, drawn from the seeded ``fault/fade/<port>``
        #: stream; ``blocked_pairs`` (hearer, speaker) are deaf to each
        #: other regardless of the hearing relation (a partition).
        self.fade_probability: Dict[str, float] = {}
        self.blocked_pairs: Set[Tuple[str, str]] = set()
        #: Optional deterministic loss hook consulted before fade/BER:
        #: ``loss_gate(payload, port_name) -> bool`` returning False drops
        #: the frame.  reprocheck's worlds install a choice-oracle-driven
        #: gate here to make frame loss an explorable branch instead of a
        #: random draw.
        self.loss_gate: Optional[Callable[[bytes, str], bool]] = None
        self.frames_faded = 0
        self.total_transmissions = 0
        self.total_collisions = 0
        #: Accumulated channel-busy time (for utilisation measurement).
        self._busy_accumulated = 0
        self._busy_since: Optional[int] = None

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def attach(self, name: str, on_receive: Callable[[bytes], None]) -> ChannelPort:
        """Attach a station; ``name`` must be unique on the channel."""
        if name in self.ports:
            raise ValueError(f"station {name!r} already attached to {self.name}")
        port = ChannelPort(self, name, on_receive)
        self.ports[name] = port
        return port

    def use_explicit_links(self) -> None:
        """Switch from fully-connected to explicit hearing relation."""
        if self._links is None:
            self._links = set()

    def add_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Declare that station ``a`` hears station ``b`` (and vice versa)."""
        self.use_explicit_links()
        assert self._links is not None
        self._links.add((a, b))
        if bidirectional:
            self._links.add((b, a))

    def hears(self, hearer: ChannelPort, speaker: ChannelPort) -> bool:
        """Does ``hearer`` receive energy from ``speaker``?"""
        if hearer is speaker:
            return False
        if (hearer.name, speaker.name) in self.blocked_pairs:
            return False
        if self._links is None:
            return True
        return (hearer.name, speaker.name) in self._links

    # ------------------------------------------------------------------
    # carrier sense
    # ------------------------------------------------------------------

    def carrier_sensed_at(self, port: ChannelPort) -> bool:
        """Does this port detect any (detectable) carrier now?"""
        now = self.sim.now
        if port.tx_until > now:
            return True
        for tx in self.active:
            if (tx.end > now
                    and now >= tx.start + self.carrier_detect_delay
                    and self.hears(port, tx.sender)):
                return True
        return False

    # ------------------------------------------------------------------
    # transmission lifecycle
    # ------------------------------------------------------------------

    def occupy(self, sender: ChannelPort, airtime: int) -> Transmission:
        """Key up aggregate background energy (flow fidelity).

        A carrier-only transmission models the combined airtime of many
        analytically-simulated stations in one event: every hearer
        senses carrier for ``airtime`` microseconds and any overlapping
        real frame collides with it at shared receivers, but nothing is
        ever delivered for it -- the flow model accounts its own frames.
        """
        return self.begin_transmission(sender, b"", airtime,
                                       carrier_only=True)

    def begin_transmission(self, sender: ChannelPort, payload: bytes,
                           airtime: int,
                           carrier_only: bool = False) -> Transmission:
        """Key a transmitter: create the in-flight transmission."""
        now = self.sim.now
        tx = Transmission(sender=sender, payload=payload, start=now,
                          end=now + airtime, carrier_only=carrier_only)
        # Any already-active transmission audible alongside this one at a
        # common receiver collides with it there.
        for other in self.active:
            if other.end <= now:
                continue
            self._mark_mutual_collisions(tx, other)
        self.active.append(tx)
        sender.tx_until = max(sender.tx_until, tx.end)
        sender.frames_sent += 1
        self.total_transmissions += 1
        self._note_busy_start(now)
        if self.tracer is not None:
            self.tracer.log("radio.tx", sender.name, "keyed",
                            bytes=len(payload), airtime=airtime)
        recorder = self.tracer.flight if self.tracer is not None else None
        if recorder is not None:
            probe = recorder.probe(payload)
            if probe is not None:
                recorder.enter_key(probe[1], "radio.tx", sender.name)
        self.sim.at(tx.end, self._complete_transmission, tx,
                    label=f"radio-end {sender.name}")
        return tx

    def _mark_mutual_collisions(self, new: Transmission, old: Transmission) -> None:
        collided_somewhere = False
        for port in self.ports.values():
            hears_new = self.hears(port, new.sender)
            hears_old = self.hears(port, old.sender)
            if hears_new and hears_old:
                survivor = self._capture_survivor(new, old)
                if survivor is not new:
                    new.corrupted_at.add(port.name)
                if survivor is not old:
                    old.corrupted_at.add(port.name)
                collided_somewhere = True
        # Half-duplex: each sender cannot hear the other's frame at all;
        # mark the overlapping frame corrupted at the opposite sender so
        # it is not delivered there.
        new.corrupted_at.add(old.sender.name)
        old.corrupted_at.add(new.sender.name)
        if collided_somewhere:
            self.total_collisions += 1
            if self.tracer is not None:
                self.tracer.log("radio.collision", new.sender.name,
                                f"with {old.sender.name}")

    def _capture_survivor(self, new: Transmission,
                          old: Transmission) -> Optional[Transmission]:
        """Which overlapping transmission (if either) survives capture.

        With no capture ratio configured, or with signals too close in
        strength, both are destroyed -- the classic collision.  Capture
        additionally requires the survivor to have *started first*: an
        FM discriminator already locked to a strong signal ignores a
        weak latecomer, but a strong latecomer still ruins a weak
        frame's tail.
        """
        if self.capture_ratio is None:
            return None
        s_new = new.sender.signal_strength
        s_old = old.sender.signal_strength
        if s_old >= self.capture_ratio * s_new and old.start <= new.start:
            return old
        return None

    def _complete_transmission(self, tx: Transmission) -> None:
        self.active.remove(tx)
        self._note_busy_maybe_end()
        if tx.carrier_only:
            # Aggregate background energy: it occupied the channel and
            # corrupted what it overlapped, but there is no frame to
            # deliver -- the flow model accounts its own traffic.
            if self.tracer is not None:
                self.tracer.log("radio.done", tx.sender.name,
                                "flow burst unkeyed")
            return
        recorder = self.tracer.flight if self.tracer is not None else None
        probe = recorder.probe(tx.payload) if recorder is not None else None
        for port in self.ports.values():
            # Losses are span-relevant only at the addressed station:
            # everyone hears everything on the shared channel, but only
            # the intended receiver losing the frame loses the packet.
            watched = probe is not None and port.name == probe[0]
            if not self.hears(port, tx.sender):
                continue
            # Half-duplex receivers that were transmitting during any part
            # of this frame missed it.
            if port.tx_until > tx.start:
                if watched:
                    recorder.lost_key(probe[1], "radio.rx", port.name,
                                      "halfduplex_miss")
                continue
            if port.name in tx.corrupted_at:
                port.frames_corrupted += 1
                if watched:
                    recorder.lost_key(probe[1], "radio.rx", port.name,
                                      "collision")
                continue
            payload = self._maybe_corrupt(tx.payload, port)
            if payload is None:
                port.frames_corrupted += 1
                if watched:
                    recorder.lost_key(probe[1], "radio.rx", port.name,
                                      "fade")
                continue
            port.frames_received += 1
            if watched:
                recorder.enter_key(probe[1], "radio.rx", port.name)
            port.on_receive(payload)
        if self.tracer is not None:
            self.tracer.log("radio.done", tx.sender.name, "unkeyed",
                            corrupted_at=len(tx.corrupted_at))

    def _maybe_corrupt(self, payload: bytes, port: ChannelPort) -> Optional[bytes]:
        """Apply the receiver modem's bit-error model (channel-level BER)."""
        if self.loss_gate is not None and not self.loss_gate(payload, port.name):
            self.frames_faded += 1
            return None
        fade = self.fade_probability.get(port.name, 0.0)
        if fade > 0.0:
            rng = self.streams.stream(f"fault/fade/{port.name}")
            if rng.random() < fade:
                self.frames_faded += 1
                return None
        ber = getattr(port, "bit_error_rate", 0.0)
        if ber <= 0.0:
            return payload
        rng = self.streams.stream(f"ber/{port.name}")
        # P(frame survives) = (1 - ber) ** bits; sample once per frame.
        bits = len(payload) * 8
        survival = (1.0 - ber) ** bits
        if rng.random() < survival:
            return payload
        return None

    # ------------------------------------------------------------------
    # utilisation accounting
    # ------------------------------------------------------------------

    def _note_busy_start(self, now: int) -> None:
        if self._busy_since is None:
            self._busy_since = now

    def _note_busy_maybe_end(self) -> None:
        if self._busy_since is not None and not self.active:
            self._busy_accumulated += self.sim.now - self._busy_since
            self._busy_since = None

    def busy_time(self) -> int:
        """Total microseconds the channel has carried at least one signal."""
        total = self._busy_accumulated
        if self._busy_since is not None:
            total += self.sim.now - self._busy_since
        return total

    def utilisation(self, since: int = 0) -> float:
        """Fraction of elapsed time the channel was busy (from t=0)."""
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time() / elapsed)
