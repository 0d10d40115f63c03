"""SNAP001: sim state must survive a snapshot.

The model checker (:mod:`repro.check`) freezes whole worlds with
``copy.deepcopy`` and branches execution from the copies.  Deepcopy
rebinds *bound methods* through its memo -- a scheduled
``self._flush`` in the copy points at the copied object -- but three
idioms silently break that contract:

* a **lambda or generator expression stored on an object** deepcopies
  *by reference*: the closure cells still point into the live world,
  so every "frozen" snapshot aliases the state it was meant to freeze
  (a generator additionally cannot be copied at all once started);
* an **OS handle stored on an object** -- ``open()`` files,
  ``threading`` primitives, ``socket.socket()`` -- either raises
  ``TypeError`` under deepcopy or duplicates a kernel object whose
  identity the copy cannot share;
* a **lambda handed to the scheduler** (``schedule`` / ``call_soon`` /
  ``at``) is captured inside a pending event; the restored event then
  calls back into the *original* world, which is the worst possible
  place for a restored schedule to land.

The fix is the same in every case: make the callback a bound method
(deepcopy-safe by construction) and keep handles off simulated
objects.  Harness, analysis, and CLI code never gets snapshotted and
is allowlisted in the engine.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.dataflow import SCHEDULER_METHODS
from repro.analysis.findings import Finding
from repro.analysis.imports import ImportMap, call_qualname
from repro.analysis.registry import (
    LintPass,
    ModuleInfo,
    Rule,
    register_pass,
)

RULE_SNAPSHOT = Rule(
    id="SNAP001", name="un-snapshotable-sim-state", severity="error",
    summary="lambda/generator/OS handle stored on sim state (or lambda "
            "scheduled as an event) aliases the live world under "
            "deepcopy snapshot; use a bound method / keep handles off "
            "sim objects",
)

#: Resolved call-target prefixes that return OS-level handles.
#: Matching on the *resolved* name means ``from threading import Lock``
#: still hits, while the repo's own ``Event`` (sim.engine) never
#: false-positives.
_HANDLE_PREFIXES = ("threading.", "socket.", "mmap.", "subprocess.")

#: Bare builtins returning handles.
_HANDLE_BUILTINS = frozenset({"open"})


@register_pass
class SnapshotSafetyPass(LintPass):
    """Flags state the model checker's StateCapturer cannot freeze."""

    name = "snapshot"
    rules = (RULE_SNAPSHOT,)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = ImportMap.collect(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_assignment(module, imports, node)
            elif isinstance(node, ast.Call):
                yield from self._check_scheduler_call(module, node)

    # -- stored state --------------------------------------------------

    def _check_assignment(self, module: ModuleInfo, imports: ImportMap,
                          node: ast.stmt) -> Iterator[Finding]:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        attribute = next(
            (target for target in targets
             if isinstance(target, ast.Attribute)
             and isinstance(target.value, ast.Name)
             and target.value.id == "self"),
            None)
        value = getattr(node, "value", None)
        if attribute is None or value is None:
            return
        stored = f"self.{attribute.attr}"
        if isinstance(value, ast.Lambda):
            yield self.finding(
                module, node, RULE_SNAPSHOT,
                f"lambda stored on {stored} deepcopies by reference -- "
                f"a snapshot's closure cells still point into the live "
                f"world; store a bound method instead",
            )
        elif isinstance(value, ast.GeneratorExp):
            yield self.finding(
                module, node, RULE_SNAPSHOT,
                f"generator expression stored on {stored} cannot be "
                f"deepcopied once started; materialise it or iterate "
                f"it where it is built",
            )
        elif isinstance(value, ast.Call):
            handle = self._handle_call(imports, value)
            if handle is not None:
                yield self.finding(
                    module, node, RULE_SNAPSHOT,
                    f"OS handle from {handle}() stored on {stored} does "
                    f"not survive deepcopy snapshot; keep handles off "
                    f"sim objects",
                )

    @staticmethod
    def _handle_call(imports: ImportMap, node: ast.Call) -> Optional[str]:
        resolved = call_qualname(node, imports)
        if resolved is None:
            return None
        if resolved in _HANDLE_BUILTINS:
            return resolved
        if resolved.startswith(_HANDLE_PREFIXES):
            return resolved
        return None

    # -- scheduled callbacks -------------------------------------------

    def _check_scheduler_call(self, module: ModuleInfo,
                              node: ast.Call) -> Iterator[Finding]:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULER_METHODS):
            return
        callbacks = list(node.args)
        callbacks += [keyword.value for keyword in node.keywords
                      if keyword.arg != "label"]
        for argument in callbacks:
            if isinstance(argument, (ast.Lambda, ast.GeneratorExp)):
                what = ("lambda" if isinstance(argument, ast.Lambda)
                        else "generator expression")
                yield self.finding(
                    module, argument, RULE_SNAPSHOT,
                    f"{what} scheduled through .{node.func.attr}() is "
                    f"captured inside a pending event; a restored "
                    f"snapshot would call back into the original "
                    f"world -- schedule a bound method",
                )
