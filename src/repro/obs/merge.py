"""Merging per-region observability into one cross-shard view.

The sharded runner gives every region its own :class:`FlightRecorder`
(trace ids salted by region) and, optionally, its own pcap-writing
:class:`~repro.tools.axdump.ChannelMonitor`.  This module stitches the
per-region exports back into run-wide artifacts:

* :class:`MergedFlightView` joins span dumps by trace id, so a packet
  that was born in one region, handed off over the inter-region link
  and delivered in another reads as *one* trace, with each event tagged
  by the region that saw it.  It is the one query surface for spans --
  ``timeline()``, ``why_dropped()``, ``counts()`` -- and a single
  recorder is queried as ``MergedFlightView({0: recorder.export_spans()})``.
  The merged conservation invariant is checked here: every span settles
  in exactly one of delivered / dropped / shed / in-flight, and no
  handoff is left dangling (serialized out of one region but never
  adopted by another).

* :func:`merge_pcaps` interleaves the regions' captures into one
  time-ordered classic pcap.  There is nothing to deduplicate by
  construction -- inter-region packets travel the wireline link, not
  any radio channel, so no frame is ever heard by two monitors -- and
  the merge asserts that.

Both consume only picklable dumps (what the shard workers ship over
their pipes), never live recorders or monitors, so merging works
identically for inline and multi-process runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.pcap import PcapWriter, read_pcap
from repro.obs.spans import EventTuple

_TERMINAL_STATES = ("delivered", "dropped", "shed")


@dataclass
class MergedSpan:
    """One logical packet trace assembled from per-region segments."""

    pkt_id: int
    origin: str
    kind: str
    born_at: int
    state: str = "in_flight"
    reason: str = ""
    done_at: Optional[int] = None
    #: (time, region, stage, event, source, reason), time-ordered with
    #: the region index as tie-break.
    events: List[Tuple[int, int, str, str, str, str]] = field(
        default_factory=list)
    #: Region indexes that held a segment of this span, in merge order.
    regions: List[int] = field(default_factory=list)
    truncated_events: int = 0
    #: More than one region claimed a contradictory terminal.
    conflicting: bool = False


class MergedFlightView:
    """Cross-region span queries over exported recorder dumps.

    ``dumps`` maps region index to that region's
    :meth:`FlightRecorder.export_spans` list.  Segment states merge by
    one rule: a real terminal (delivered / dropped / shed) wins;
    otherwise a span any region still holds in flight is ``in_flight``;
    only a span whose segments are all ``handed_off`` is a dangling
    handoff.  Two different real terminals for one trace id mark the
    span conflicting -- which, like a dangling handoff, fails
    :meth:`conservation_ok`.
    """

    def __init__(self, dumps: Dict[int, Sequence[tuple]]) -> None:
        self._spans: Dict[int, MergedSpan] = {}
        self.segments = 0
        for region in sorted(dumps):
            for (pkt_id, _key, origin, kind, born_at, _broadcast, state,
                 reason, done_at, events, truncated) in dumps[region]:
                self.segments += 1
                span = self._spans.get(pkt_id)
                if span is None:
                    # Dangling until some segment settles the span or
                    # still holds it in flight.
                    span = MergedSpan(pkt_id=pkt_id, origin=origin,
                                      kind=kind, born_at=born_at,
                                      state="handed_off")
                    self._spans[pkt_id] = span
                span.regions.append(region)
                span.truncated_events += truncated
                segment: Sequence[EventTuple] = events
                span.events.extend(
                    (time, region, stage, event, source, event_reason)
                    for time, stage, event, source, event_reason in segment)
                if state in _TERMINAL_STATES:
                    if span.state in _TERMINAL_STATES and span.state != state:
                        span.conflicting = True
                    else:
                        span.state = state
                        span.reason = reason
                        span.done_at = done_at
                elif state == "in_flight" and span.state == "handed_off":
                    span.state = "in_flight"
        for span in self._spans.values():
            span.events.sort(key=lambda event: (event[0], event[1]))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def span(self, pkt_id: int) -> Optional[MergedSpan]:
        return self._spans.get(pkt_id)

    def __len__(self) -> int:
        return len(self._spans)

    def iter_spans(self):
        return iter(self._spans.values())

    def timeline(self, pkt_id: int) -> List[str]:
        """Cross-region hop timeline, each event tagged by its region."""
        span = self._spans.get(pkt_id)
        if span is None:
            return []
        crossed = ",".join(str(region) for region in span.regions)
        lines = [f"pkt {span.pkt_id} {span.kind} from {span.origin} "
                 f"born@{span.born_at} state={span.state}"
                 + (f" reason={span.reason}" if span.reason else "")
                 + f" regions={crossed}"]
        for time, region, stage, event, source, reason in span.events:
            suffix = f" ({reason})" if reason else ""
            lines.append(f"{time:>12} us  [r{region}] {event:<7} "
                         f"{stage:<12} at {source}{suffix}")
        if span.truncated_events:
            lines.append(f"  ... {span.truncated_events} events truncated")
        return lines

    def why_dropped(self, pkt_id: int) -> Optional[str]:
        span = self._spans.get(pkt_id)
        if span is None:
            return None
        if span.state == "in_flight":
            return f"pkt {pkt_id}: still in flight"
        if span.state == "handed_off":
            return f"pkt {pkt_id}: handed off but never adopted (dangling)"
        if span.state == "delivered":
            return (f"pkt {pkt_id}: delivered after "
                    f"{(span.done_at or 0) - span.born_at} us")
        last = span.events[-1] if span.events else None
        where = (f" at {last[2]} ({last[4]}, region {last[1]})"
                 if last is not None else "")
        return f"pkt {pkt_id}: {span.state} -- {span.reason}{where}"

    # ------------------------------------------------------------------
    # the merged conservation invariant
    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Merged span population by final state, plus anomaly counts."""
        out = {"spans": len(self._spans), "delivered": 0, "dropped": 0,
               "shed": 0, "in_flight": 0, "dangling_handoff": 0,
               "conflicting": 0, "cross_region": 0}
        for span in self._spans.values():
            if span.conflicting:
                out["conflicting"] += 1
            if span.state == "handed_off":
                out["dangling_handoff"] += 1
            else:
                out[span.state] += 1
            if len(span.regions) > 1:
                out["cross_region"] += 1
        return out

    def conservation_ok(self) -> bool:
        """born == delivered + dropped + shed + in-flight, merged.

        Every merged span settles in exactly one real bucket, no span
        carries contradictory terminals, and no handoff dangles.
        """
        counts = self.counts()
        return (counts["conflicting"] == 0
                and counts["dangling_handoff"] == 0
                and counts["spans"] == (counts["delivered"]
                                        + counts["dropped"] + counts["shed"]
                                        + counts["in_flight"]))


def merge_pcaps(blobs: Sequence[bytes]) -> bytes:
    """Interleave per-region captures into one time-ordered pcap.

    Frames are merge-sorted by (timestamp, region index); a frame
    appearing in two captures with the same timestamp would be a
    duplicated gateway frame, which the regional topology makes
    impossible -- asserted here rather than silently deduplicated.
    """
    frames: List[Tuple[int, int, bytes]] = []
    for index, blob in enumerate(blobs):
        frames.extend((time_us, index, frame)
                      for time_us, frame in read_pcap(blob))
    frames.sort(key=lambda entry: (entry[0], entry[1]))
    writer = PcapWriter()
    seen = set()
    for time_us, _index, frame in frames:
        stamp = (time_us, frame)
        if stamp in seen:
            raise ValueError(
                f"duplicated frame at {time_us} us across region captures")
        seen.add(stamp)
        writer.add_frame(time_us, frame)
    return writer.getvalue()
