"""The KISS TNC.

"This code, which may be downloaded into the TNC, sends and receives
data and calculates the necessary checksums.  Unlike the normal code
that resides in the ROM of the TNC, the KISS TNC code does not worry
about the packet format at all."

The model therefore does three things and only three things:

* **Host → air**: deframe the KISS byte stream arriving on the serial
  line; DATA records go onto the CSMA transmit queue verbatim; command
  records retune TXDELAY / PERSIST / SLOTTIME / TXTAIL / FULLDUP.
* **Air → host**: wrap every received frame in KISS and clock it up the
  serial line.  By default the TNC is *promiscuous* -- it passes every
  frame regardless of destination, which is exactly the §3 performance
  problem.  ``address_filter=True`` enables the paper's proposed fix.
* **Checksums**: the modem/channel model validates frames physically,
  standing in for the HDLC FCS the real TNC computes.
"""

from __future__ import annotations

from typing import Optional

from repro.ax25.address import AX25Address
from repro.kiss import commands
from repro.kiss.framing import KissDeframer, frame as kiss_frame
from repro.radio.channel import RadioChannel
from repro.radio.csma import CsmaParameters
from repro.radio.modem import ModemProfile
from repro.radio.station import RadioStation
from repro.serialio.line import SerialEndpoint
from repro.sim.clock import MS
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.tnc.filtering import frame_is_for_station

#: How long the TNC firmware takes to reboot after a KISS exit/reset.
DEFAULT_REBOOT_DELAY = 1500 * MS


class KissTnc:
    """A TNC running the KISS firmware.

    ``serial`` is the TNC-side endpoint of the RS-232 line to the host;
    ``callsign`` is only consulted when ``address_filter`` is on (the
    stock KISS code has no notion of its own address).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: RadioChannel,
        serial: SerialEndpoint,
        name: str,
        callsign: Optional[AX25Address] = None,
        modem: Optional[ModemProfile] = None,
        csma: Optional[CsmaParameters] = None,
        address_filter: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.serial = serial
        self.name = name
        self.callsign = callsign
        self.address_filter = address_filter
        self.tracer = tracer
        self.station = RadioStation(
            sim,
            channel,
            name,
            modem=modem,
            csma=csma,
            on_frame=self._frame_from_air,
        )
        self._deframer = KissDeframer(on_frame=self._record_from_host)
        serial.on_receive(self._byte_from_host)
        serial.on_receive_burst(self._burst_from_host)

        # counters
        self.frames_to_air = 0
        self.frames_to_host = 0
        self.frames_filtered = 0
        self.command_records = 0
        self.bad_records = 0

        # fault/recovery state (§3: "the TNC locks up under load").
        # A wedge models the firmware main loop hanging: the radio side
        # goes deaf and mute, but the serial RX interrupt still runs, so
        # a KISS return/reset record from the host can reboot it.
        self.wedged = False
        self.wedged_drops = 0
        self.resets = 0
        self.reboot_delay = DEFAULT_REBOOT_DELAY
        self._rebooting = False

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _obs(self):
        """The attached flight recorder, if any (see repro.obs.spans)."""
        tracer = self.tracer
        return tracer.flight if tracer is not None else None

    def _span_target(self) -> str:
        """The callsign text span probes compare frame destinations to."""
        return str(self.callsign) if self.callsign is not None else self.name

    # ------------------------------------------------------------------
    # host -> air
    # ------------------------------------------------------------------

    def _byte_from_host(self, byte: int) -> None:
        if self._rebooting:
            return  # firmware is restarting; the UART is dead to the host
        self._deframer.push_byte(byte)

    def _burst_from_host(self, data: bytes) -> None:
        """Frame-fidelity receive: a whole host write in one event."""
        if self._rebooting:
            return
        self._deframer.push(data)

    def _record_from_host(self, type_byte: int, payload: bytes) -> None:
        command, _port = commands.split_type_byte(type_byte)
        if self.wedged:
            # The hung main loop never services the record -- except that
            # a KISS return still reaches the reset vector.
            if command == commands.CMD_RETURN:
                self.command_records += 1
                self.reboot()
            else:
                self.wedged_drops += 1
                recorder = self._obs()
                if recorder is not None and command == commands.CMD_DATA:
                    # Origin-side wedge: our own outbound frame died here,
                    # so this is an unambiguous terminal.
                    probe = recorder.probe(payload)
                    if probe is not None:
                        recorder.drop_key(probe[1], "tnc.tx", self.name,
                                          "tnc_wedged")
            return
        if command == commands.CMD_DATA:
            if not payload:
                self.bad_records += 1
                if self.tracer is not None:
                    self.tracer.log("tnc.drop", self.name,
                                    "empty KISS data record")
                return
            self.frames_to_air += 1
            recorder = self._obs()
            if recorder is not None:
                probe = recorder.probe(payload)
                if probe is not None:
                    recorder.enter_key(probe[1], "tnc.tx", self.name)
            self.station.send_frame(payload)
            return
        self.command_records += 1
        self._apply_command(command, payload)

    def _apply_command(self, command: int, payload: bytes) -> None:
        value = payload[0] if payload else 0
        if command == commands.CMD_TXDELAY:
            self.station.modem = self.station.modem.with_kiss_txdelay(value)
        elif command == commands.CMD_TXTAIL:
            self.station.modem = self.station.modem.with_kiss_txtail(value)
        elif command == commands.CMD_PERSIST:
            self.station.csma = self.station.csma.with_persist_byte(value)
        elif command == commands.CMD_SLOTTIME:
            self.station.csma = self.station.csma.with_slottime_units(value)
        elif command == commands.CMD_FULLDUP:
            self.station.csma = self.station.csma.with_full_duplex(bool(value))
        elif command == commands.CMD_RETURN:
            # Exit KISS: the real TNC reboots (our model reloads KISS).
            if self.tracer is not None:
                self.tracer.log("tnc.return", self.name, "exit KISS mode")
            self.reboot()
        else:
            self.bad_records += 1
            if self.tracer is not None:
                self.tracer.log("tnc.drop", self.name,
                                f"unknown KISS command {command:#04x}")

    # ------------------------------------------------------------------
    # air -> host
    # ------------------------------------------------------------------

    def _frame_from_air(self, payload: bytes) -> None:
        if self.wedged or self._rebooting:
            self.wedged_drops += 1
            recorder = self._obs()
            if recorder is not None:
                # RX-side wedge: other stations also heard this frame, so
                # only the intended recipient records the (observational)
                # loss; finalize settles it if nothing better happened.
                probe = recorder.probe(payload)
                if probe is not None and probe[0] == self._span_target():
                    recorder.lost_key(probe[1], "tnc.up", self.name,
                                      "tnc_wedged")
            return
        if self.address_filter and self.callsign is not None:
            if not frame_is_for_station(payload, self.callsign):
                self.frames_filtered += 1
                return
        self.frames_to_host += 1
        recorder = self._obs()
        if recorder is not None:
            probe = recorder.probe(payload)
            if probe is not None and probe[0] == self._span_target():
                recorder.enter_key(probe[1], "tnc.up", self.name)
        record = kiss_frame(commands.type_byte(commands.CMD_DATA), payload)
        self.serial.write(record)
        if self.tracer is not None:
            self.tracer.log("tnc.to_host", self.name, "frame up serial",
                            bytes=len(payload))

    # ------------------------------------------------------------------
    # faults and recovery
    # ------------------------------------------------------------------

    def wedge(self) -> None:
        """Hang the firmware main loop (the §3 lockup under load).

        While wedged the TNC neither transmits host DATA records nor
        passes received frames up; only a KISS return record (or
        :meth:`reboot`) brings it back.  Idempotent.
        """
        if self.wedged:
            return
        self.wedged = True
        if self.tracer is not None:
            self.tracer.log("tnc.wedge", self.name, "firmware hung")

    def reboot(self) -> None:
        """Restart the firmware: deaf and mute for :attr:`reboot_delay`.

        Clears a wedge and all deframer state.  Counted in
        :attr:`resets` when the reboot completes.
        """
        if self._rebooting:
            return
        self.wedged = False
        self._rebooting = True
        self._deframer = KissDeframer(on_frame=self._record_from_host)
        if self.tracer is not None:
            self.tracer.log("tnc.reboot", self.name, "firmware restarting")
        self.sim.schedule(self.reboot_delay, self._finish_reboot,
                          label=f"tnc-reboot {self.name}")

    def _finish_reboot(self) -> None:
        self._rebooting = False
        self.resets += 1
        if self.tracer is not None:
            self.tracer.log("tnc.reset", self.name, "KISS reloaded")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def serial_backlog_bytes(self) -> int:
        """Bytes queued toward the host (the §3 bottleneck measure)."""
        return self.serial.tx_backlog_bytes
