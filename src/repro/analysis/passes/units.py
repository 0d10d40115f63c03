"""UNIT: units-of-measure checking over the whole program.

The paper's serial path mixed three unit systems — microsecond event
timestamps, float-second durations, and baud/bit/byte line arithmetic —
and kept them straight by convention alone.  This pass runs the
abstract interpretation in :mod:`repro.analysis.absint` over the
project call graph and reports:

* **UNIT001 unit-mixing-arithmetic** — an addition, subtraction, or
  comparison whose operands carry two different concrete dimensions
  (``duration_seconds + link_latency`` adds float seconds to integer
  microseconds: off by a factor of one million).
* **UNIT002 dimension-into-wrong-sink** — a dimensioned value reaching
  a sink that demands a different dimension: scheduler delays, rate
  ``tick`` clocks, counter bumps without a unit-declaring name, the
  ``seconds()`` converter, and bits/bytes-confused stores.  Includes
  the interprocedural laundering case where a helper forwards its
  parameter into the scheduler and the caller passes seconds.

Both rules print the provenance chain — seed, propagation, sink — so a
report is an argument, not an assertion.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.absint import UnitEngine
from repro.analysis.callgraph import CallGraph, ProjectInfo
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectPass, Rule, register_deep_pass

RULE_UNIT_MIX = Rule(
    id="UNIT001", name="unit-mixing-arithmetic", severity="error",
    summary="arithmetic or comparison mixes two units of measure "
            "(e.g. sim_seconds + sim_us); convert through repro.sim.clock",
)
RULE_UNIT_SINK = Rule(
    id="UNIT002", name="dimension-into-wrong-sink", severity="error",
    summary="dimensioned value reaches a sink expecting another dimension "
            "(seconds into a us scheduler delay, time into a bare counter, "
            "bits stored as bytes)",
)

_RULES_BY_ID = {rule.id: rule for rule in (RULE_UNIT_MIX, RULE_UNIT_SINK)}


@register_deep_pass
class UnitsPass(ProjectPass):
    name = "units"
    rules = (RULE_UNIT_MIX, RULE_UNIT_SINK)

    def check_project(self, project: ProjectInfo,
                      graph: CallGraph) -> Iterator[Finding]:
        engine = UnitEngine(project, graph)
        engine.run()
        for fn in project.functions.values():
            for hit in engine.hits(fn.qualname):
                yield self.finding(
                    fn.module_info, hit.node, _RULES_BY_ID[hit.rule],
                    f"{hit.message} (in {fn.qualname})",
                    provenance=hit.provenance)
