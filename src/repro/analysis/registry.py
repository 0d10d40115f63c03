"""Rule metadata and the pluggable pass registry.

A *pass* bundles related rules and walks one parsed module at a time;
the engine iterates registered passes over every file.  Passes register
themselves at import with :func:`register_pass`, so adding a fourth
pass is: write the module, import it from ``passes/__init__``, done.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Type

from repro.analysis.findings import SEVERITIES, Finding


@dataclass(frozen=True)
class Rule:
    """Static description of one checkable property."""

    id: str         #: short stable id, e.g. ``DET001``
    name: str       #: kebab-case slug, e.g. ``global-random-call``
    severity: str   #: default severity for findings of this rule
    summary: str    #: one-line description for ``--list-rules``

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


@dataclass
class ModuleInfo:
    """One parsed source file handed to every pass."""

    path: Path                      #: absolute path on disk
    display: str                    #: stable posix path used in findings
    source: str                     #: raw text
    tree: ast.Module                #: parsed AST
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, display: str) -> "ModuleInfo":
        source = path.read_text()
        return cls(path=path, display=display, source=source,
                   tree=ast.parse(source, filename=str(path)),
                   lines=source.splitlines())


class _Pass:
    """What every pass shares: a name, its rules, and :meth:`finding`."""

    name: str = "pass"
    rules: tuple = ()

    def finding(self, module: ModuleInfo, node: ast.AST, rule: Rule,
                message: str, provenance: Tuple[str, ...] = ()) -> Finding:
        return Finding(
            file=module.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule.id,
            severity=rule.severity,
            message=message,
            provenance=provenance,
        )


class LintPass(_Pass):
    """Base class for a family of rules.

    Subclasses set :attr:`name` and :attr:`rules` and implement
    :meth:`check`, yielding findings.  Use :meth:`finding` so the rule
    id, severity, and node location are filled in consistently.
    """

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectPass(_Pass):
    """Base class for whole-program (deep) passes.

    Deep passes see the full :class:`~repro.analysis.callgraph.ProjectInfo`
    symbol table and its call graph at once, instead of one module at a
    time.  They run only under ``--deep`` because building the project
    index costs a parse of every file plus a fixpoint — cheap enough for
    CI, too slow for an editor keystroke.
    """

    name: str = "project-pass"

    def check_project(self, project, graph) -> Iterator[Finding]:
        """Yield findings over the whole project.

        ``project`` is a :class:`~repro.analysis.callgraph.ProjectInfo`,
        ``graph`` a :class:`~repro.analysis.callgraph.CallGraph` (typed
        loosely here to keep registry import-light).
        """
        raise NotImplementedError


#: All registered pass classes, in registration order.
PASS_REGISTRY: List[Type[LintPass]] = []

#: Whole-program passes, run only in ``--deep`` mode.
DEEP_PASS_REGISTRY: List[Type[ProjectPass]] = []


def register_pass(cls: Type[LintPass]) -> Type[LintPass]:
    """Class decorator adding a pass to the global registry."""
    PASS_REGISTRY.append(cls)
    return cls


def register_deep_pass(cls: Type[ProjectPass]) -> Type[ProjectPass]:
    """Class decorator adding a whole-program pass to the registry."""
    DEEP_PASS_REGISTRY.append(cls)
    return cls


def rule_table() -> Dict[str, Rule]:
    """All rules of all registered passes, keyed by rule id."""
    table: Dict[str, Rule] = {}
    for pass_cls in list(PASS_REGISTRY) + list(DEEP_PASS_REGISTRY):
        for rule in pass_cls.rules:
            if rule.id in table:
                raise ValueError(f"duplicate rule id {rule.id}")
            table[rule.id] = rule
    return table
