"""Forward dataflow/taint engine: the taint domain of the flow core.

:mod:`repro.analysis.flow` walks each function body and iterates the
project fixpoint; this module supplies the values.  The lattice is
small on purpose: each local name maps to a *set of origins* (powerset
lattice, join = union), where an origin is either a true
nondeterminism source (``time.time()`` observed somewhere along the
chain) or one of the function's own parameters.  Parameter origins
never become findings directly — they exist so a fixpoint over the
whole project can compute per-function summaries:

* ``returns`` — origins that can flow into a return value,
* ``params_to_state`` — parameter indices whose value can reach sim
  object state (a ``self.attr`` store or a scheduler argument), with
  the attribute/callee it reaches,

and the caller-side analysis can then turn "I passed a tainted value
into parameter 2 of ``netstack.NetStack.set_stamp``" into a finding at
the call site.

Control flow is approximated as the core approximates it (branches
join by union, loop bodies are scanned twice), and attribute state is
deliberately untracked — a taint *dies* at the ``self.attr`` store,
which is exactly the point where DETFLOW reports it.  A store a loop's
second pass reaches again is one hit, its origins joined.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, ProjectInfo
from repro.analysis.flow import ForwardWalker, fixpoint
from repro.analysis.imports import ImportMap, call_qualname

#: Method names that hand a value to the discrete-event scheduler.
SCHEDULER_METHODS = frozenset({"schedule", "at", "call_soon", "call_at"})


@dataclass(frozen=True)
class Origin:
    """Where a tainted value ultimately came from."""

    kind: str       #: ``source`` (true nondeterminism) or ``param``
    detail: str     #: e.g. ``time.perf_counter()`` or the param name
    line: int = 0   #: line of the source call (param origins: 0)
    param: int = -1  #: parameter index for ``param`` origins
    via: str = ""   #: qualname chain hint for the report

    def described(self) -> str:
        chain = f" via {self.via}" if self.via else ""
        return f"{self.detail}{chain}"


Taint = FrozenSet[Origin]
_CLEAN: Taint = frozenset()


@dataclass(frozen=True)
class SinkHit:
    """A tainted value reaching sim state, with the evidence."""

    node: ast.AST          #: the store / call the taint reached
    sink: str              #: ``state-store`` | ``event-schedule`` | ``call-arg``
    target: str            #: attribute name, scheduler method, or callee
    origins: Taint


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural facts about one function."""

    returns: Taint = _CLEAN
    params_to_state: Mapping[int, str] = field(default_factory=dict)


class TaintEngine:
    """Runs the per-function analysis to a whole-project fixpoint."""

    def __init__(self, project: ProjectInfo, graph: CallGraph,
                 sources: Mapping[str, str]) -> None:
        """``sources`` maps qualified call names to a short description."""
        self.project = project
        self.graph = graph
        self.sources = dict(sources)
        self.summaries: Dict[str, FunctionSummary] = {}
        self._hits: Dict[str, List[SinkHit]] = {}

    # ------------------------------------------------------------------

    def run(self) -> None:
        """Iterate summaries to fixpoint, then record final sink hits."""
        self._hits = fixpoint(self.project.functions.values(),
                              self._analyze, self.summaries)

    def hits(self, qualname: str) -> List[SinkHit]:
        """Sink hits of one function (source origins only are findings)."""
        return self._hits.get(qualname, [])

    def source_hits(self, qualname: str) -> List[SinkHit]:
        """Sink hits carrying at least one true-source origin."""
        out = []
        for hit in self.hits(qualname):
            sources = frozenset(o for o in hit.origins if o.kind == "source")
            if sources:
                out.append(replace(hit, origins=sources))
        return out

    # ------------------------------------------------------------------

    def _analyze(self, fn: FunctionInfo) -> Tuple[FunctionSummary,
                                                  List[SinkHit]]:
        walker = _TaintWalker(self, fn)
        hits = walker.run()
        return walker.summary(), hits


class _TaintWalker(ForwardWalker[Taint, SinkHit]):
    """The taint domain: origin sets, joined by union."""

    def __init__(self, engine: TaintEngine, fn: FunctionInfo) -> None:
        super().__init__(fn)
        self.engine = engine
        self.imports: ImportMap = engine.project.imports.get(fn.module,
                                                             ImportMap())
        self.env = {
            name: frozenset({Origin(kind="param", detail=name, param=index)})
            for index, name in enumerate(fn.params)
        }
        self.params_to_state: Dict[int, str] = {}

    def summary(self) -> FunctionSummary:
        return FunctionSummary(returns=self.returns,
                               params_to_state=dict(self.params_to_state))

    # -- domain --------------------------------------------------------

    def bottom(self) -> Taint:
        return _CLEAN

    def join(self, a: Taint, b: Taint) -> Taint:
        return a | b

    def augmented(self, node: ast.AugAssign) -> None:
        taint = self.expr(node.value) | self._read(node.target)
        self.assign(node.target, taint, node)

    def fold(self, old: SinkHit, new: SinkHit) -> SinkHit:
        return replace(old, origins=old.origins | new.origins)

    def _hit(self, hit: SinkHit) -> None:
        self.report((hit.node, hit.sink, hit.target), hit)

    # -- assignment targets --------------------------------------------

    def assign(self, target: ast.expr, value: Taint,
               statement: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, value, statement)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value, statement)
        elif isinstance(target, ast.Attribute):
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self" and value):
                self._record_state_hit(target, target.attr, value)
        elif isinstance(target, ast.Subscript):
            # ``container[k] = tainted``: the container becomes tainted.
            if isinstance(target.value, ast.Name) and value:
                base = self.env.get(target.value.id, _CLEAN)
                self.env[target.value.id] = base | value
            elif (isinstance(target.value, ast.Attribute)
                  and isinstance(target.value.value, ast.Name)
                  and target.value.value.id == "self" and value):
                self._record_state_hit(target, target.value.attr, value)

    def _read(self, target: ast.expr) -> Taint:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, _CLEAN)
        return _CLEAN

    def _record_state_hit(self, node: ast.AST, attr: str,
                          taint: Taint) -> None:
        self._hit(SinkHit(node=node, sink="state-store",
                          target=f"self.{attr}", origins=taint))
        for origin in taint:
            if origin.kind == "param" and origin.param >= 0:
                self.params_to_state.setdefault(origin.param, f"self.{attr}")

    # -- expressions ---------------------------------------------------

    def expr(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _CLEAN)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            return self.expr(node.value)
        if isinstance(node, ast.Lambda):
            return _CLEAN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            taint = _CLEAN
            for generator in node.generators:
                taint |= self.expr(generator.iter)
            return taint
        # Everything else: join over child expressions.
        taint = _CLEAN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                taint |= self.expr(child)
        return taint

    def _call(self, node: ast.Call) -> Taint:
        arg_taints = [self.expr(arg) for arg in node.args]
        kw_taints = [self.expr(kw.value) for kw in node.keywords]
        joined_args = _CLEAN
        for taint in arg_taints + kw_taints:
            joined_args |= taint

        self._check_scheduler(node, arg_taints, kw_taints)

        qual = call_qualname(node, self.imports)
        if qual is not None and qual in self.engine.sources:
            description = self.engine.sources[qual]
            return joined_args | frozenset({Origin(
                kind="source", detail=description, line=node.lineno)})

        resolved = self.engine.graph.resolve_call(node, self.fn.module,
                                                  self.fn.cls)
        if resolved is not None:
            self._check_callee_params(node, resolved, arg_taints)
            summary = self.engine.summaries.get(resolved)
            if summary is not None and summary.returns:
                out = set(joined_args)
                for origin in summary.returns:
                    if origin.kind == "source":
                        via = origin.via or resolved
                        out.add(replace(origin, via=via))
                    # param origins of the callee map to our arg taints
                    elif 0 <= origin.param < len(arg_taints):
                        out |= arg_taints[origin.param]
                return frozenset(out)
            return joined_args

        # Unknown call: taint flows through (str(t), int(t), t.method()).
        func_taint = (self.expr(node.func.value)
                      if isinstance(node.func, ast.Attribute) else _CLEAN)
        return joined_args | func_taint

    def _check_callee_params(self, node: ast.Call, callee: str,
                             arg_taints: List[Taint]) -> None:
        summary = self.engine.summaries.get(callee)
        if summary is None:
            return
        for index, reaches in summary.params_to_state.items():
            if index >= len(arg_taints):
                continue
            taint = arg_taints[index]
            if taint:
                self._hit(SinkHit(
                    node=node, sink="call-arg",
                    target=f"{callee} -> {reaches}", origins=taint))
                for origin in taint:
                    if origin.kind == "param" and origin.param >= 0:
                        self.params_to_state.setdefault(
                            origin.param, f"{callee} -> {reaches}")

    def _check_scheduler(self, node: ast.Call, arg_taints: List[Taint],
                         kw_taints: List[Taint]) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in SCHEDULER_METHODS):
            return
        joined = _CLEAN
        for taint in arg_taints + kw_taints:
            joined |= taint
        if joined:
            self._hit(SinkHit(node=node, sink="event-schedule",
                              target=func.attr, origins=joined))
            for origin in joined:
                if origin.kind == "param" and origin.param >= 0:
                    self.params_to_state.setdefault(
                        origin.param, f"scheduler .{func.attr}()")
