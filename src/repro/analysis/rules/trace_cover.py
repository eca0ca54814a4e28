"""TRC002 — trace coverage of public state-mutating methods (graph-aware).

The `no-job-lost` invariant and the golden-trace battery can only audit
what was *emitted*: a scheduler/health/elasticity mutation that never
produces a trace event is invisible to both, and the divergence it
causes surfaces many events later with no breadcrumb.  This rule proves
the positive: every public method that mutates object state on the
audited control-plane classes must be able to reach a ``tracer.emit``
call — directly, through a private helper, or through an observer
callback the project registers.

Mutation evidence (per method, including transitive ``self._helper()``
calls): a write to ``self.<attr>``, a subscript store or known mutator
call on one, or the same through a *self-derived local* (``health =
self._health[name]; health.state = ...``).  Emit evidence: any
``.emit(...)`` call in the method's transitive call closure (direct,
self, and observer edges).

This is a may-emit proof, deliberately: requiring an emit on *every*
path would flag early-return guards (idempotent no-ops return before
both mutating and emitting), while a method with **no** emit reachable
at all can never trace the mutation — that is the gap worth failing CI
over.  The rule is scoped by config to the audited packages (pbs/winhpc
schedulers, health, elasticity); counters-only host classes stay out.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.project import Project
from repro.analysis.flow.symbols import (
    MUTATOR_METHODS,
    ClassInfo,
    FunctionInfo,
    SymbolTable,
)
from repro.analysis.registry import FlowRule, register

_MAX_DEPTH = 8
_MAX_FUNCS = 300


def _alias_root(expr: ast.expr) -> str | None:
    """The root name of an *alias* expression, or ``None``.

    Only plain ``Name`` / ``Attribute`` / ``Subscript`` chains alias
    existing objects (``health = self._health[name]``); anything else —
    a comprehension, a literal, ``list(self.jobs)``, arithmetic —
    constructs a fresh value, and mutating a fresh container is not a
    state mutation even when it was built *from* self's data.
    """
    node = expr
    while True:
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif (
            # dict-get aliasing: ``self.nodes.get(h)`` hands out the
            # stored record, exactly like ``self.nodes[h]``
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
        ):
            node = node.func.value
        else:
            break
    if isinstance(node, ast.Name):
        return node.id
    return None


def _self_derived_locals(fn: FunctionInfo) -> Set[str]:
    """Local names that *alias* (part of) self's state, transitively."""
    derived: Set[str] = set()
    for _ in range(2):
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if not (isinstance(node, ast.Assign) or isinstance(node, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            root = _alias_root(value)
            if root != "self" and root not in derived:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    derived.add(target.id)
    return derived


def _is_state_ref(expr: ast.expr, derived: Set[str]) -> bool:
    """Does *expr* denote (part of) self's state?"""
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and (node.id == "self" or node.id in derived)


def _mutates_locally(fn: FunctionInfo) -> bool:
    """Does *fn*'s own body write object state (no calls followed)?"""
    derived = _self_derived_locals(fn)
    for node in ast.walk(fn.node):  # type: ignore[arg-type]
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and _is_state_ref(
                    target, derived
                ):
                    return True
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and _is_state_ref(
                    target, derived
                ):
                    return True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
            and _is_state_ref(node.func.value, derived)
        ):
            return True
    return False


def _emits_locally(fn: FunctionInfo) -> bool:
    for node in ast.walk(fn.node):  # type: ignore[arg-type]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            return True
    return False


def _lineage(symbols: SymbolTable, qualname: str | None) -> Set[str]:
    """*qualname* plus every project base class it inherits from."""
    out: Set[str] = set()
    pending = [qualname] if qualname is not None else []
    while pending:
        current = pending.pop()
        info = symbols.classes.get(current)
        if current in out or info is None:
            continue
        out.add(current)
        pending.extend(info.bases)
    return out


@register
class TraceCoverageRule(FlowRule):
    id = "TRC002"
    summary = "public state-mutating method with no reachable trace emit"
    rationale = (
        "Control-plane mutations must leave a trace: the golden-trace "
        "comparison and the no-job-lost audit reason only about emitted "
        "events, so a silent mutation path is an unauditable one.  A "
        "public method that mutates state but cannot reach any "
        "tracer.emit() — through helpers or registered observers — "
        "needs an event (register the kind in repro.trace.events) or an "
        "explicit justification."
    )
    default_severity = Severity.ERROR

    def check_project(self, project: Project) -> Iterator[Finding]:
        symbols = project.symbols
        for qualname in sorted(symbols.classes):
            info = symbols.classes[qualname]
            for name in sorted(info.methods):
                method = info.methods[name]
                finding = self._check_method(project, info, method)
                if finding is not None:
                    yield finding

    def _check_method(
        self, project: Project, info: ClassInfo, method: FunctionInfo
    ) -> Finding | None:
        if method.name.startswith("_") or method.is_property:
            return None
        mutates, emits = self._closure_facts(project, method)
        if not mutates or emits:
            return None
        sf = project.modules.get(method.module)
        path = sf.path if sf is not None else method.module
        return self.project_finding(
            path,
            getattr(method.node, "lineno", 1),
            getattr(method.node, "col_offset", 0),
            f"public method {info.name}.{method.name}() mutates state "
            "but no tracer.emit() is reachable from it — the mutation "
            "is invisible to the trace oracle",
        )

    def _closure_facts(
        self, project: Project, method: FunctionInfo
    ) -> Tuple[bool, bool]:
        """(mutates, emits) over the method's transitive call closure.

        Mutation only counts in the method itself and the helpers of its
        own class or a base class (the same object either way; a call
        into *another* object's mutator is that class's obligation);
        emits count anywhere reachable.
        """
        symbols = project.symbols
        callgraph = project.callgraph
        own = _lineage(symbols, method.class_qualname)
        mutates = False
        emits = False
        seen: Set[str] = set()
        worklist: List[Tuple[str, int]] = [(method.qualname, 0)]
        while worklist and len(seen) < _MAX_FUNCS:
            qualname, depth = worklist.pop()
            if qualname in seen or depth > _MAX_DEPTH:
                continue
            seen.add(qualname)
            fn = symbols.functions.get(qualname)
            if fn is None:
                continue
            if fn.class_qualname in own and _mutates_locally(fn):
                mutates = True
            if _emits_locally(fn):
                # any reachable emit decides the verdict (no finding)
                return mutates, True
            for edge in callgraph.callees_of(qualname):
                if edge.kind in ("direct", "self", "observer"):
                    worklist.append((edge.callee, depth + 1))
        return mutates, emits
