"""PERF002 — epoch-cache safety (graph-aware).

The ``mutation_epoch`` contract (docs/PERFORMANCE.md): a function may
cache its result keyed on an object's ``mutation_epoch`` **iff** every
piece of that object's state the function reads is guarded by the
epoch — i.e. every method that writes the state also bumps the epoch.
Otherwise an un-epoch'd write leaves the cache serving stale answers,
and because the caches feed rendered text and detector reports, the
staleness is byte-visible in traces.

The rule finds each epoch-cache site (an assignment reading
``<expr>.mutation_epoch`` plus a ``self.<attr> = (key..., value)``
store in the same function), resolves the *epoch-source class* from the
static type of ``<expr>``, then walks the cached function's transitive
call closure collecting every attribute read on values of that class or
of any of its project base classes.  The epoch read may also sit one
``self.<hook>()`` call away: a base-class cache loop (``epoch =
self._epoch()``) is one site per subclass whose override of the hook
reads the epoch, walked with ``self`` calls dispatched to that
subclass and reported at its hook.  Each read attribute must only be
written — by the source class or any of its bases — by epoch-safe
methods:

* ``__init__``, or
* a method that also bumps ``mutation_epoch``, or
* a private method whose every in-class caller is epoch-safe
  (fixpoint — covers ``_requeue``-style helpers whose callers bump), or
* a method that resets *this* cache attribute (``self._cache = None``),
  the sanctioned escape hatch for rewiring methods like ``connect()``.

Attributes named in the cache key, the epoch counter itself, and other
epoch-cache storage attributes (which carry their own guarantee) are
exempt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.project import Project
from repro.analysis.flow.symbols import ClassInfo, FunctionInfo, SymbolTable, TypeEnv
from repro.analysis.registry import FlowRule, register

EPOCH_ATTR = "mutation_epoch"

#: closure bounds: the cached functions are control-cycle entry points,
#: not arbitrary roots — a small bounded walk is plenty.
_MAX_DEPTH = 8
_MAX_FUNCS = 300


@dataclass
class CacheSite:
    """One epoch-cached function."""

    fn: FunctionInfo
    source_class: str          # qualname of the epoch-source class
    cache_attr: Optional[str]  # self.<attr> the (key, value) pair is stored in
    #: the class ``self`` is (a subclass inheriting *fn*, or fn's own)
    self_class: Optional[str]
    #: where findings are reported: the epoch hook of an inherited
    #: site, else *fn* itself
    anchor: FunctionInfo
    key_attrs: Set[str] = field(default_factory=set)  # source-class attrs in the key


def _epoch_read_bases(expr: ast.expr) -> List[ast.expr]:
    """Every ``<base>.mutation_epoch`` read inside *expr* → the bases."""
    out: List[ast.expr] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == EPOCH_ATTR:
            out.append(node.value)
    return out


def _ancestors(symbols: SymbolTable, qualname: str) -> List[ClassInfo]:
    """*qualname* and its project base classes, nearest first."""
    out: List[ClassInfo] = []
    frontier = [qualname]
    while frontier:
        info = symbols.classes.get(frontier.pop(0))
        if info is not None and info not in out:
            out.append(info)
            frontier.extend(info.bases)
    return out


def _inherited_methods(
    symbols: SymbolTable, class_name: str
) -> List[FunctionInfo]:
    """Methods *class_name* inherits from project bases unoverridden."""
    out: List[FunctionInfo] = []
    for base in _ancestors(symbols, class_name)[1:]:
        for name in sorted(base.methods):
            fn = symbols.find_method(class_name, name)
            if fn is base.methods[name] and fn not in out:
                out.append(fn)
    return out


def _epoch_hooks(
    symbols: SymbolTable,
    expr: ast.expr,
    self_class: Optional[str],
    fn: FunctionInfo,
) -> Iterator[Tuple[FunctionInfo, List[ast.expr]]]:
    """``self.<hook>()`` calls in *expr*, resolved on *self_class*, whose
    ``return`` values read ``mutation_epoch`` → (hook, returned exprs)."""
    if self_class is None:
        return
    for node in ast.walk(expr):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            continue
        hook = symbols.find_method(self_class, node.func.attr)
        if hook is None or hook is fn:
            continue
        returned = [
            ret.value
            for ret in ast.walk(hook.node)  # type: ignore[arg-type]
            if isinstance(ret, ast.Return) and ret.value is not None
        ]
        if any(_epoch_read_bases(value) for value in returned):
            yield hook, returned


@register
class EpochCacheSafetyRule(FlowRule):
    id = "PERF002"
    summary = "mutation_epoch cache reads state not guarded by the epoch"
    rationale = (
        "A cache keyed on mutation_epoch is a proof obligation: every "
        "attribute the cached computation reads must be invalidated by "
        "the key, which means every writer of that attribute bumps the "
        "epoch (or resets the cache).  A writer that forgets leaves the "
        "cache byte-stale — the 10-100x caching speedups on the roadmap "
        "are only safe if this invariant is machine-checked."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        sites = self.sites(project.symbols)
        # storage attrs of *all* epoch caches are exempt reads: each one
        # carries its own (separately checked) epoch guarantee
        cache_attrs: Dict[str, Set[str]] = {}
        for site in sites:
            if site.fn.class_qualname is not None and site.cache_attr is not None:
                cache_attrs.setdefault(site.fn.class_qualname, set()).add(
                    site.cache_attr
                )
        for site in sites:
            yield from self._check_site(project, site, cache_attrs)

    # -- site discovery ------------------------------------------------------

    def sites(self, symbols: SymbolTable) -> List[CacheSite]:
        """Every epoch-cache site: each function on its own class, then
        each inherited method whose epoch comes from a subclass hook."""
        sites: List[CacheSite] = []
        for qualname in sorted(symbols.functions):
            fn = symbols.functions[qualname]
            site = self._cache_site(symbols, fn, fn.class_qualname)
            if site is not None:
                sites.append(site)
        anchors: Set[str] = set()
        for class_name in sorted(symbols.classes):
            for fn in _inherited_methods(symbols, class_name):
                site = self._cache_site(symbols, fn, class_name)
                if (
                    site is not None
                    and site.anchor.class_qualname != fn.class_qualname
                    and site.anchor.qualname not in anchors
                ):
                    anchors.add(site.anchor.qualname)
                    sites.append(site)
        return sites

    def _cache_site(
        self, symbols: SymbolTable, fn: FunctionInfo, self_class: Optional[str]
    ) -> Optional[CacheSite]:
        env = TypeEnv(symbols, fn)
        epoch_vars: Set[str] = set()
        source_class: Optional[str] = None
        anchor = fn
        key_attrs: Set[str] = set()
        key_exprs: List[Tuple[ast.AST, TypeEnv]] = []
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if not isinstance(node, ast.Assign):
                continue
            reads = [(base, env) for base in _epoch_read_bases(node.value)]
            for hook, returned in _epoch_hooks(
                symbols, node.value, self_class, fn
            ):
                hook_env = TypeEnv(symbols, hook)
                anchor = hook
                for value in returned:
                    key_exprs.append((value, hook_env))
                    reads.extend(
                        (base, hook_env) for base in _epoch_read_bases(value)
                    )
            if not reads:
                continue
            for base, base_env in reads:
                resolved = base_env.type_of(base)
                if resolved is not None and source_class is None:
                    source_class = resolved
            for target in node.targets:
                if isinstance(target, ast.Name):
                    epoch_vars.add(target.id)
            key_exprs.append((node.value, env))
        if source_class is None:
            return None
        cache_attr: Optional[str] = None
        stores = False
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            mentions = {
                n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)
            }
            if mentions & epoch_vars or _epoch_read_bases(node.value):
                stores = True
                cache_attr = target.attr
                key_exprs.append((node.value, env))
        if not stores:
            return None
        # attributes of the source class referenced inside the key are
        # part of the invalidation condition — exempt from the read check
        for expr, expr_env in key_exprs:
            for node in ast.walk(expr):
                if (
                    isinstance(node, ast.Attribute)
                    and expr_env.type_of(node.value) == source_class
                ):
                    key_attrs.add(node.attr)
        return CacheSite(
            fn=fn,
            source_class=source_class,
            cache_attr=cache_attr,
            key_attrs=key_attrs,
            self_class=self_class,
            anchor=anchor,
        )

    # -- safety check --------------------------------------------------------

    def _check_site(
        self,
        project: Project,
        site: CacheSite,
        cache_attrs: Dict[str, Set[str]],
    ) -> Iterator[Finding]:
        symbols = project.symbols
        chain = _ancestors(symbols, site.source_class)
        if not chain:
            return
        source = chain[0]
        reads = self._closure_reads(project, site, {c.qualname for c in chain})
        exempt = {EPOCH_ATTR} | site.key_attrs
        for cls in chain:
            exempt |= cache_attrs.get(cls.qualname, set())
        if site.fn.class_qualname == site.source_class and site.cache_attr:
            exempt.add(site.cache_attr)
        safe_methods = self._epoch_safe_methods(project, chain)
        anchor = site.anchor
        sf = project.modules.get(anchor.module)
        path = sf.path if sf is not None else anchor.module
        owner = symbols.classes.get(site.self_class or "")
        label = f"{owner.name}.{site.fn.name}" if owner else site.fn.name
        for attr in sorted(reads - exempt):
            unsafe = sorted({
                (cls.name, w.method)
                for cls in chain
                for w in cls.writes_to(attr)
                if f"{cls.qualname}.{w.method}" not in safe_methods
                and not self._resets_cache(source, w.method, site)
            })
            if not unsafe:
                continue
            writer_class, writer = unsafe[0]
            yield self.project_finding(
                path,
                getattr(anchor.node, "lineno", 1),
                getattr(anchor.node, "col_offset", 0),
                f"epoch-cached {label}() reads "
                f"{source.name}.{attr}, but writer "
                f"{writer_class}.{writer}() neither bumps "
                "mutation_epoch nor resets this cache — the cache can "
                "serve stale state",
            )

    def _closure_reads(
        self, project: Project, site: CacheSite, chain: Set[str]
    ) -> Set[str]:
        """Attribute names read on expressions typed as the source class
        (or one of its bases) across the cached function's transitive
        (direct/self) call closure.  ``self`` calls made by the site's
        own class chain dispatch to the site's ``self`` class."""
        symbols = project.symbols
        callgraph = project.callgraph
        self_chain = {
            c.qualname for c in _ancestors(symbols, site.self_class or "")
        }
        reads: Set[str] = set()
        seen: Set[str] = set()
        worklist: List[Tuple[str, int]] = [(site.fn.qualname, 0)]
        while worklist and len(seen) < _MAX_FUNCS:
            qualname, depth = worklist.pop()
            if qualname in seen or depth > _MAX_DEPTH:
                continue
            seen.add(qualname)
            fn = symbols.functions.get(qualname)
            if fn is None:
                continue
            env = TypeEnv(symbols, fn)
            for node in ast.walk(fn.node):  # type: ignore[arg-type]
                if not isinstance(node, ast.Attribute):
                    continue
                typed = env.type_of(node.value)
                if typed not in chain:
                    continue
                method = symbols.find_method(typed, node.attr)
                if method is not None:
                    if method.is_property:
                        worklist.append((method.qualname, depth + 1))
                    continue  # plain methods are covered by call edges
                reads.add(node.attr)
            for edge in callgraph.callees_of(qualname):
                if edge.kind not in ("direct", "self"):
                    continue
                callee = edge.callee
                if edge.kind == "self" and fn.class_qualname in self_chain:
                    override = symbols.find_method(
                        site.self_class or "", callee.rsplit(".", 1)[1]
                    )
                    if override is not None:
                        callee = override.qualname
                worklist.append((callee, depth + 1))
        return reads

    def _epoch_safe_methods(
        self, project: Project, chain: List[ClassInfo]
    ) -> Set[str]:
        """Qualnames of the methods (of the source class and its bases)
        whose writes are guarded: they bump the epoch, are __init__, or
        are private helpers only reachable from guarded methods
        (iterated to fixpoint).

        The bump may live in a callee: ``qdel()`` removes from the queue
        and then calls ``_finish()``, which bumps.  The simulation is
        single-threaded, so any bump within the same call — before or
        after the write — invalidates the cache before its next read;
        a method that (transitively, within the chain) calls a textual
        bumper is therefore safe too.
        """
        callgraph = project.callgraph
        methods = {
            m.qualname: m for cls in chain for m in cls.methods.values()
        }
        bumps: Set[str] = {
            cls.methods[name].qualname
            for cls in chain
            for name in cls.epoch_bumpers
        }
        changed = True
        while changed:
            changed = False
            for qualname in methods:
                if qualname in bumps:
                    continue
                if any(
                    edge.kind in ("direct", "self") and edge.callee in bumps
                    for edge in callgraph.callees_of(qualname)
                ):
                    bumps.add(qualname)
                    changed = True
        safe: Set[str] = bumps | {
            q for q, m in methods.items() if m.name == "__init__"
        }
        changed = True
        while changed:
            changed = False
            for qualname, method in methods.items():
                if qualname in safe or not method.name.startswith("_"):
                    continue
                callers = [
                    edge.caller
                    for edge in callgraph.callers_of(qualname)
                    if edge.kind in ("direct", "self")
                ]
                if callers and all(caller in safe for caller in callers):
                    safe.add(qualname)
                    changed = True
        return safe

    def _resets_cache(
        self, source: ClassInfo, method: str, site: CacheSite
    ) -> bool:
        """Writer *method* also resets the cache attribute (only possible
        when the cached function lives on the source class itself)."""
        if site.fn.class_qualname != site.source_class or site.cache_attr is None:
            return False
        return any(
            w.method == method for w in source.writes_to(site.cache_attr)
        )
