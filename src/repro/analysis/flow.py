"""One forward-analysis core for the whole-program abstract domains.

The taint engine (:mod:`repro.analysis.dataflow`), the units engine
(:mod:`repro.analysis.absint`) and SHARD002's Simulator-identity walk
(:mod:`repro.analysis.passes.shard`) ask the same question of a
function body — what abstract value does each local hold at each
statement — and differ only in the values.  This module owns what they
share: :class:`ForwardWalker`, the one statement walker (``if`` arms
joined afterwards, loop bodies scanned twice, nested scopes left to
their own walk) with one hit dedupe, and :func:`fixpoint`, the one
summary iteration.  A domain supplies only the lattice
(:meth:`~ForwardWalker.bottom`, :meth:`~ForwardWalker.join`) and the
transfer functions (:meth:`~ForwardWalker.expr`,
:meth:`~ForwardWalker.assign`, :meth:`~ForwardWalker.augmented`,
:meth:`~ForwardWalker.element`).
"""

from __future__ import annotations

import ast
from typing import (Callable, Collection, Dict, Generic, Hashable,
                    Iterable, List, Tuple, TypeVar)

from repro.analysis.callgraph import FunctionInfo

#: Abstract value of one local name.
V = TypeVar("V")
#: One rule hit recorded by a domain.
H = TypeVar("H")
#: Per-function summary iterated to the project fixpoint.
S = TypeVar("S")

#: Fixpoint safety valve; summaries for this codebase settle in 2-3.
_MAX_ITERATIONS = 10


class ForwardWalker(Generic[V, H]):
    """One forward pass over one function body in one abstract domain."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.env: Dict[str, V] = {}
        self.returns: V = self.bottom()
        self._hits: Dict[Hashable, H] = {}

    # -- the domain ----------------------------------------------------

    def bottom(self) -> V:
        """The value of a name nothing is known about."""
        raise NotImplementedError

    def join(self, a: V, b: V) -> V:
        """Least upper bound, used where control flow merges."""
        raise NotImplementedError

    def expr(self, node: ast.expr) -> V:
        """Evaluate one expression (recording any hits it causes)."""
        raise NotImplementedError

    def assign(self, target: ast.expr, value: V,
               statement: ast.stmt) -> None:
        """Bind (or store through) one assignment target."""
        raise NotImplementedError

    def augmented(self, node: ast.AugAssign) -> None:
        """Transfer for ``x op= y``."""
        raise NotImplementedError

    def element(self, iterable: V) -> V:
        """Value bound to a ``for`` target, given the iterable's value."""
        return iterable

    # -- hits ----------------------------------------------------------

    def report(self, key: Hashable, hit: H) -> None:
        """Record a hit once per ``key``; a re-find is folded in."""
        old = self._hits.get(key)
        self._hits[key] = hit if old is None else self.fold(old, hit)

    def fold(self, old: H, new: H) -> H:
        """Combine a hit with a re-find under the same key."""
        return old

    # -- statements ----------------------------------------------------

    def run(self) -> List[H]:
        """Walk the whole function body; returns the deduped hits."""
        self.block(getattr(self.fn.node, "body", []))
        return list(self._hits.values())

    def block(self, statements: Iterable[ast.stmt]) -> None:
        for statement in statements:
            self.statement(statement)

    def statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(node, ast.Assign):
            value = self.expr(node.value)
            for target in node.targets:
                self.assign(target, value, node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.assign(node.target, self.expr(node.value), node)
        elif isinstance(node, ast.AugAssign):
            self.augmented(node)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.returns = self.join(self.returns,
                                         self.expr(node.value))
        elif isinstance(node, ast.Expr):
            self.expr(node.value)
        elif isinstance(node, ast.If):
            self.expr(node.test)
            before = dict(self.env)
            self.block(node.body)
            after_body = self.env
            self.env = before
            self.block(node.orelse)
            self._merge(after_body)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            element = self.element(self.expr(node.iter))
            for _ in range(2):
                self.assign(node.target, element, node)
                self.block(node.body)
            self.block(node.orelse)
        elif isinstance(node, ast.While):
            for _ in range(2):
                self.expr(node.test)
                self.block(node.body)
            self.block(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self.expr(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, value, node)
            self.block(node.body)
        elif isinstance(node, ast.Try):
            self.block(node.body)
            for handler in node.handlers:
                self.block(handler.body)
            self.block(node.orelse)
            self.block(node.finalbody)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.expr(child)
        # Pass/Break/Continue/Import/Global/Nonlocal/Delete: no flow.

    def _merge(self, other: Dict[str, V]) -> None:
        for name, value in other.items():
            if name in self.env:
                self.env[name] = self.join(self.env[name], value)
            else:
                self.env[name] = value


def fixpoint(functions: Collection[FunctionInfo],
             analyze: Callable[[FunctionInfo], Tuple[S, List[H]]],
             summaries: Dict[str, S]) -> Dict[str, List[H]]:
    """Re-analyze every function until no summary changes.

    ``analyze`` walks one function against the current ``summaries``
    and returns its new summary and hits; ``summaries`` is updated in
    place.  Returns each function's hits from the final round.
    """
    hits: Dict[str, List[H]] = {}
    for _ in range(_MAX_ITERATIONS):
        changed = False
        for fn in functions:
            summary, hits[fn.qualname] = analyze(fn)
            if summaries.get(fn.qualname) != summary:
                summaries[fn.qualname] = summary
                changed = True
        if not changed:
            break
    return hits
