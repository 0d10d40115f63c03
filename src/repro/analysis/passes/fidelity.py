"""FID: fidelity branches must emit symmetrically on every arm.

The multi-fidelity serial models (``per_char`` vs ``frame`` vs
``flow``) are interchangeable only because their observable metric
streams agree on everything :func:`repro.scale.fidelity.fidelity_comparable`
compares.  That equivalence is *tested* dynamically; FID001 makes the
structural half a proved obligation: any ``if`` that branches on a
fidelity level and emits counters/spans on one arm must emit the same
instrument set on every arm (including the implicit empty ``else``).
A fidelity branch that emits nothing anywhere — pure behavioural
dispatch, validation raises — is fine; asymmetric emission is exactly
the shape that makes one fidelity's digest silently richer than
another's.

Emission keys are collected per arm from direct calls (``bump``,
``record``, ``sample``, ``tick``, ``histogram``/``gauge``/``rate``
lookups with a literal name) and through project-resolved callees up to
two hops deep, so pushing the emission into a helper does not hide the
asymmetry — or falsely create one.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, ProjectInfo
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectPass, Rule, register_deep_pass

RULE_FIDELITY_PARITY = Rule(
    id="FID001", name="fidelity-emission-parity", severity="error",
    summary="branch on a fidelity level emits counters/spans on some "
            "arms but not others; digest comparability needs symmetric "
            "emission",
)

#: The fidelity level literals a branch may compare against.
_FIDELITY_LITERALS = frozenset({"per_char", "frame", "flow"})

#: Instrument methods whose call is an emission.
_EMIT_METHODS = frozenset({"bump", "record", "sample", "tick"})

#: Instrument lookups whose literal first argument names a metric.
_LOOKUP_METHODS = frozenset({"histogram", "gauge", "rate", "counter"})

#: How many project-call hops emission collection follows.
_MAX_HOPS = 2


def _mentions_fidelity(test: ast.expr) -> bool:
    """Does a branch condition inspect a fidelity level?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and "fidelity" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) \
                and "fidelity" in node.attr.lower():
            return True
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and node.value in _FIDELITY_LITERALS:
            # A bare literal match is only meaningful inside a compare.
            return True
    return False


@register_deep_pass
class FidelityParityPass(ProjectPass):
    name = "fidelity-parity"
    rules = (RULE_FIDELITY_PARITY,)

    def check_project(self, project: ProjectInfo,
                      graph: CallGraph) -> Iterator[Finding]:
        for fn in project.functions.values():
            for node in ast.walk(fn.node):
                if isinstance(node, ast.If) \
                        and _mentions_fidelity(node.test):
                    yield from self._check_branch(project, graph, fn, node)

    def _check_branch(self, project: ProjectInfo, graph: CallGraph,
                      fn: FunctionInfo, branch: ast.If) -> Iterator[Finding]:
        arms: List[Tuple[str, List[ast.stmt]]] = [("if-arm", branch.body)]
        orelse: List[ast.stmt] = branch.orelse
        index = 1
        while len(orelse) == 1 and isinstance(orelse[0], ast.If):
            arms.append((f"elif-arm-{index}", orelse[0].body))
            orelse = orelse[0].orelse
            index += 1
        arms.append(("else-arm", orelse))

        emissions = [
            (label, self._emissions(project, graph, fn, statements,
                                    _MAX_HOPS))
            for label, statements in arms
        ]
        union: Set[str] = set()
        for _, keys in emissions:
            union |= keys
        if not union:
            return  # pure dispatch / validation: nothing to pair
        for label, keys in emissions:
            missing = sorted(union - keys)
            if missing:
                yield self.finding(
                    fn.module_info, branch, RULE_FIDELITY_PARITY,
                    f"fidelity branch in {fn.qualname} emits "
                    f"{sorted(union)} on some arms but its {label} "
                    f"misses {missing}; emit the same instruments on "
                    "every fidelity level (or none) so digests stay "
                    "comparable",
                    provenance=(f"fidelity branch at line {branch.lineno}",)
                    + tuple(f"{arm}: emits {sorted(k) or 'nothing'}"
                            for arm, k in emissions),
                )
                return  # one report per branch is enough evidence

    def _emissions(self, project: ProjectInfo, graph: CallGraph,
                   fn: FunctionInfo, statements: List[ast.stmt],
                   hops: int) -> Set[str]:
        keys: Set[str] = set()
        for statement in statements:
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                keys |= self._call_emissions(project, graph, fn, node,
                                             hops)
        return keys

    def _call_emissions(self, project: ProjectInfo, graph: CallGraph,
                        fn: FunctionInfo, node: ast.Call,
                        hops: int) -> Set[str]:
        keys: Set[str] = set()
        func = node.func
        if isinstance(func, ast.Attribute):
            literal = self._literal_arg(node)
            if func.attr in _EMIT_METHODS:
                receiver = self._receiver_text(func.value)
                if func.attr == "bump" and literal is not None:
                    keys.add(f"bump:{literal}")
                else:
                    keys.add(f"{func.attr}:{receiver}")
            elif func.attr in _LOOKUP_METHODS and literal is not None:
                keys.add(f"{func.attr}:{literal}")
        if hops > 0:
            resolved = graph.resolve_call(node, fn.module, fn.cls)
            if resolved is not None:
                callee = project.functions.get(resolved)
                if callee is not None:
                    keys |= self._emissions(
                        project, graph, callee,
                        list(getattr(callee.node, "body", [])), hops - 1)
        return keys

    @staticmethod
    def _literal_arg(node: ast.Call) -> Optional[str]:
        if node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            return node.args[0].value
        return None

    @staticmethod
    def _receiver_text(node: ast.expr) -> str:
        # ``instruments.histogram("rtt_us").record(...)`` names itself
        # through the lookup; a bare receiver is named by its attribute
        # chain tail so arms calling the same instrument agree.
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _LOOKUP_METHODS \
                and node.args and isinstance(node.args[0], ast.Constant):
            return f"{node.func.attr}:{node.args[0].value}"
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return "<expr>"
