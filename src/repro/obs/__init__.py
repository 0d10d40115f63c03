"""Cross-layer observability: packet spans, instruments, pcap export.

``obs`` answers the questions the paper's authors could only answer by
watching datagrams cross layers (sections 2.2-3): where did packet N spend
its time, why was it dropped, and what do the latency/queue distributions
look like under load.  See DESIGN.md section 7 for the span lifecycle and
the conservation invariant the ``obs`` gate enforces.

Beyond the per-run recorder, the package carries the multi-region merge
view (``merge``), the fixed-cadence snapshot series (``timeseries``),
the sim-time profiler (``profile``), and the paired-round overhead
measurement (``overhead``).
"""

from repro.obs.instruments import Gauge, Histogram, Instruments, Rate
from repro.obs.merge import MergedFlightView, MergedSpan, merge_pcaps
from repro.obs.pcap import LINKTYPE_AX25_KISS, PcapWriter, read_pcap
from repro.obs.profile import SimProfiler
from repro.obs.report import ReportError, render_report, require_reportable
from repro.obs.spans import (
    HOP_PAIRS,
    REASONS,
    FlightRecorder,
    PacketSpan,
    ip_flow_key,
    probe_ax25,
)
from repro.obs.timeseries import TimeSeries

__all__ = [
    "FlightRecorder",
    "Gauge",
    "HOP_PAIRS",
    "Histogram",
    "Instruments",
    "LINKTYPE_AX25_KISS",
    "MergedFlightView",
    "MergedSpan",
    "PacketSpan",
    "PcapWriter",
    "REASONS",
    "Rate",
    "ReportError",
    "SimProfiler",
    "TimeSeries",
    "ip_flow_key",
    "merge_pcaps",
    "probe_ax25",
    "read_pcap",
    "render_report",
    "require_reportable",
]
