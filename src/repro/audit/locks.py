"""Static lock-order analysis of the service layer.

The bulk-job service (PR 7) holds several locks — ``FilterService._lock``
(with its ``_all_done`` condition alias), ``FilterRegistry._lock``, each
entry's ``op_lock`` and ``JobJournal._lock`` — and its deadlock freedom
rests on an implicit rule: whenever two of them nest, the per-filter
``op_lock`` is taken first and the bookkeeping locks are taken inside it,
never the other way round.  This module recovers that rule from the AST and
checks it stays true.

What it does:

1. **Lock discovery** — find attributes initialised to ``threading.Lock``
   / ``RLock`` / ``Condition`` (assignments in methods and dataclass
   fields).  A ``Condition(existing_lock)`` is recorded as an *alias* of
   the lock it wraps, so ``with self._all_done:`` and ``with self._lock:``
   count as the same acquisition.
2. **Acquisition graph** — an edge ``A -> B`` means somewhere the code
   acquires ``B`` while holding ``A``: lexically nested ``with`` blocks,
   plus interprocedural edges (a call made while holding ``A`` to a
   function whose transitive acquisition set contains ``B``).
3. **Checks** — the graph must be acyclic (a cycle is a deadlock recipe),
   no lock may nest inside itself (``threading.Lock`` is not reentrant),
   and lock objects must only be used via ``with`` — a bare
   ``.acquire()``/``.release()`` pair can leak the lock on an exception.
4. **Artifact** — the discovered hierarchy is serialised (see
   :func:`hierarchy_artifact`) and committed as ``docs/lock_hierarchy.json``;
   ``repro audit`` recomputes it and fails if the committed artifact is
   stale, so lock-order changes show up in review as a diff of that file.
   Sites are keyed by ``path::Class.method`` with a count of acquisitions,
   not by line, so an edit that only moves lines leaves the artifact as it
   is.
"""

from __future__ import annotations

import ast
import json
import pathlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .lint import iter_python_files

#: Default analysis roots: the threaded service layer and the sharded-filter
#: wrapper (whose per-filter lock nests inside the service's op_lock).
DEFAULT_LOCK_PATHS = ("src/repro/service", "src/repro/sharding")

_LOCK_FACTORIES = {"Lock", "RLock"}
_CONDITION_FACTORY = "Condition"


@dataclass(frozen=True)
class LockDef:
    """One discovered lock object (or condition alias)."""

    lock_id: str  # "ClassName.attr"
    kind: str  # "Lock" | "RLock" | "Condition"
    path: str
    scope: str  # "ClassName.method" that creates it, or "ClassName" for a field
    alias_of: Optional[str] = None  # Condition wrapping an existing lock


@dataclass(frozen=True)
class LockSite:
    """One source location participating in an edge or violation."""

    path: str
    line: int
    function: str

    def render(self) -> str:
        return f"{self.path}:{self.line} ({self.function})"


@dataclass
class LockOrderReport:
    """Everything the lock-order analysis discovered."""

    locks: List[LockDef] = field(default_factory=list)
    #: canonical edges: (held, acquired) -> sites proving the edge.
    edges: Dict[Tuple[str, str], List[LockSite]] = field(default_factory=dict)
    #: acquisition-order cycles, each a list of lock ids (deadlock recipes).
    cycles: List[List[str]] = field(default_factory=list)
    #: locks in acquisition order, outermost first, grouped into levels.
    hierarchy: List[List[str]] = field(default_factory=list)
    #: bare .acquire()/.release() on lock objects outside ``with``.
    violations: List[Tuple[LockSite, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.cycles and not self.violations


def _attr_chain(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _is_threading(call: ast.AST, factory_names: Set[str]) -> Optional[str]:
    """Return the factory name when ``call`` constructs a threading primitive."""
    if not isinstance(call, ast.Call):
        return None
    chain = _attr_chain(call.func)
    if chain.startswith("threading.") and chain.split(".")[-1] in factory_names:
        return chain.split(".")[-1]
    return None


class _ClassLocks:
    """Lock definitions discovered while scanning one class body."""

    def __init__(self, class_name: str, path: str) -> None:
        self.class_name = class_name
        self.path = path
        self.defs: List[LockDef] = []

    def _lock_id(self, attr: str) -> str:
        return f"{self.class_name}.{attr}"

    def scan(self, node: ast.ClassDef) -> None:
        for item in node.body:
            scope = self.class_name
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{self.class_name}.{item.name}"
            for stmt in ast.walk(item):
                if isinstance(stmt, ast.Assign):
                    self._scan_assign(stmt, scope)
                elif isinstance(stmt, ast.AnnAssign):
                    self._scan_annassign(stmt, scope)

    def _scan_assign(self, stmt: ast.Assign, scope: str) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return
        factory = _is_threading(stmt.value, _LOCK_FACTORIES | {_CONDITION_FACTORY})
        if factory is None:
            return
        alias_of = None
        if factory == _CONDITION_FACTORY and stmt.value.args:  # type: ignore[union-attr]
            wrapped = stmt.value.args[0]  # type: ignore[union-attr]
            if isinstance(wrapped, ast.Attribute) and isinstance(wrapped.value, ast.Name):
                if wrapped.value.id == "self":
                    alias_of = self._lock_id(wrapped.attr)
        self.defs.append(
            LockDef(
                lock_id=self._lock_id(target.attr),
                kind=factory,
                path=self.path,
                scope=scope,
                alias_of=alias_of,
            )
        )

    def _scan_annassign(self, stmt: ast.AnnAssign, scope: str) -> None:
        """Dataclass-field form: ``op_lock: threading.Lock = field(...)``."""
        if not isinstance(stmt.target, ast.Name):
            return
        annotation = _attr_chain(stmt.annotation)
        if not annotation.startswith("threading."):
            return
        factory = annotation.split(".")[-1]
        if factory not in _LOCK_FACTORIES | {_CONDITION_FACTORY}:
            return
        self.defs.append(
            LockDef(
                lock_id=self._lock_id(stmt.target.id),
                kind=factory,
                path=self.path,
                scope=scope,
            )
        )


@dataclass
class _FunctionSummary:
    """Per-function facts feeding the interprocedural fixpoint."""

    qualname: str
    path: str
    #: canonical locks this function itself acquires (any nesting depth).
    local_acquires: Set[str] = field(default_factory=set)
    #: (held locks, callee name, receiver hint, site) for candidate calls.
    call_sites: List[Tuple[FrozenSet[str], str, Optional[str], LockSite]] = field(
        default_factory=list
    )
    #: local (held, acquired, site) triples from lexically nested ``with``.
    local_edges: List[Tuple[str, str, LockSite]] = field(default_factory=list)


class _FunctionScanner(ast.NodeVisitor):
    """Walk one function, tracking the lexically held lock set."""

    def __init__(
        self,
        summary: _FunctionSummary,
        resolve_lock,  # Callable[[ast.expr], Optional[str]]
        known_methods: Dict[str, List[str]],
    ) -> None:
        self.summary = summary
        self.resolve_lock = resolve_lock
        self.known_methods = known_methods
        self.held: List[str] = []

    def _site(self, node: ast.AST) -> LockSite:
        return LockSite(
            path=self.summary.path,
            line=getattr(node, "lineno", 0),
            function=self.summary.qualname,
        )

    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            lock = self.resolve_lock(item.context_expr)
            if lock is not None:
                self.summary.local_acquires.add(lock)
                for held in self.held:
                    self.summary.local_edges.append((held, lock, self._site(item.context_expr)))
                self.held.append(lock)
                acquired.append(lock)
            else:
                # The context expression itself may call lock-taking code.
                self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        callee = node.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
        if isinstance(callee, ast.Attribute) and name in ("acquire", "release"):
            lock = self.resolve_lock(callee.value)
            if lock is not None:
                site = self._site(node)
                self.summary.violations_hook(lock, site, name)  # type: ignore[attr-defined]
        if name in self.known_methods:
            hint: Optional[str] = None
            if isinstance(callee, ast.Attribute):
                receiver = callee.value
                if isinstance(receiver, ast.Name):
                    hint = receiver.id
                elif isinstance(receiver, ast.Attribute):
                    hint = receiver.attr
                else:
                    hint = "?"  # dynamic receiver: never resolves
            self.summary.call_sites.append(
                (frozenset(self.held), name, hint, self._site(node))
            )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs get their own summary via the outer driver; don't
        # double-count their bodies under the current held set.
        return

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]


def analyze_lock_order(paths: Iterable[object] = DEFAULT_LOCK_PATHS) -> LockOrderReport:
    """Recover the lock-acquisition graph of ``paths`` and check it."""
    report = LockOrderReport()
    modules: List[Tuple[pathlib.Path, ast.Module]] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        modules.append((file_path, ast.parse(source, filename=str(file_path))))

    # ---- pass 1: lock discovery ------------------------------------------
    for file_path, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                scanner = _ClassLocks(node.name, file_path.as_posix())
                scanner.scan(node)
                report.locks.extend(scanner.defs)

    alias_map = {d.lock_id: d.alias_of for d in report.locks if d.alias_of}

    def canonical(lock_id: str) -> str:
        seen = set()
        while lock_id in alias_map and lock_id not in seen:
            seen.add(lock_id)
            lock_id = alias_map[lock_id]
        return lock_id

    by_attr: Dict[str, List[str]] = {}
    for d in report.locks:
        by_attr.setdefault(d.lock_id.split(".")[-1], []).append(d.lock_id)

    # ---- pass 2: per-function scan ---------------------------------------
    summaries: Dict[str, _FunctionSummary] = {}
    known_methods: Dict[str, List[str]] = {}
    functions: List[Tuple[pathlib.Path, Optional[str], ast.FunctionDef]] = []
    for file_path, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((file_path, None, node))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        functions.append((file_path, node.name, sub))
    for _path, class_name, func in functions:
        qual = f"{class_name}.{func.name}" if class_name else func.name
        known_methods.setdefault(func.name, []).append(qual)

    for file_path, class_name, func in functions:
        qual = f"{class_name}.{func.name}" if class_name else func.name
        summary = _FunctionSummary(qualname=qual, path=file_path.as_posix())

        def resolve_lock(expr: ast.expr, _cls=class_name) -> Optional[str]:
            if not isinstance(expr, ast.Attribute):
                return None
            attr = expr.attr
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and _cls is not None
                and f"{_cls}.{attr}" in {d.lock_id for d in report.locks}
            ):
                return canonical(f"{_cls}.{attr}")
            candidates = by_attr.get(attr, [])
            if len(candidates) == 1:
                return canonical(candidates[0])
            return None

        def violations_hook(lock: str, site: LockSite, op: str) -> None:
            report.violations.append(
                (
                    site,
                    f"direct {lock}.{op}() outside 'with'; use the context "
                    f"manager so the lock cannot leak on an exception",
                )
            )

        summary.violations_hook = violations_hook  # type: ignore[attr-defined]
        scanner = _FunctionScanner(summary, resolve_lock, known_methods)
        for stmt in func.body:
            scanner.visit(stmt)
        summaries[qual] = summary

    flat = summaries

    def resolve_call(caller_qual: str, name: str, hint: Optional[str]) -> Optional[str]:
        """Pick the callee qualname a ``receiver.name(...)`` call means.

        ``self.name()`` resolves within the caller's class.  A plain
        ``name()`` resolves to a module-level function.  For other
        receivers the receiver's identifier must name the owning class
        (``self.registry.acquire`` -> ``FilterRegistry.acquire``); a
        receiver like ``self._fh`` matches nothing, so incidental calls to
        common method names (``close``, ``flush``) on unrelated objects
        never create edges.
        """
        quals = known_methods.get(name, [])
        if hint == "self":
            cls = caller_qual.split(".")[0] if "." in caller_qual else None
            qual = f"{cls}.{name}" if cls else None
            return qual if qual in quals else None
        if hint is None:
            module_level = [q for q in quals if "." not in q]
            return module_level[0] if len(module_level) == 1 else None
        token = hint.lower().strip("_").split("_")[-1]
        if not token:
            return None
        matches = [
            q
            for q in quals
            if "." in q
            and (
                q.split(".")[0].lower().lstrip("_").endswith(token)
                or token.endswith(q.split(".")[0].lower().lstrip("_"))
            )
        ]
        return matches[0] if len(matches) == 1 else None

    # ---- pass 3: transitive acquisition fixpoint -------------------------
    acquires: Dict[str, Set[str]] = {q: set(s.local_acquires) for q, s in flat.items()}
    changed = True
    while changed:
        changed = False
        for qual, summary in flat.items():
            for _held, callee_name, hint, _site in summary.call_sites:
                callee_qual = resolve_call(qual, callee_name, hint)
                if callee_qual is None:
                    continue
                callee_acq = acquires.get(callee_qual, set())
                if not callee_acq <= acquires[qual]:
                    acquires[qual] |= callee_acq
                    changed = True

    # ---- pass 4: edges ----------------------------------------------------
    def add_edge(held: str, acquired: str, site: LockSite) -> None:
        report.edges.setdefault((held, acquired), [])
        if site not in report.edges[(held, acquired)]:
            report.edges[(held, acquired)].append(site)

    for summary in flat.values():
        for held, acquired, site in summary.local_edges:
            add_edge(held, acquired, site)
        for held_set, callee_name, hint, site in summary.call_sites:
            if not held_set:
                continue
            target = resolve_call(summary.qualname, callee_name, hint)
            if target is None:
                continue
            for acquired in acquires.get(target, set()):
                for held in held_set:
                    add_edge(held, acquired, site)

    # ---- pass 5: cycles + hierarchy --------------------------------------
    graph: Dict[str, Set[str]] = {}
    nodes = {canonical(d.lock_id) for d in report.locks}
    for (held, acquired) in report.edges:
        nodes.update((held, acquired))
        graph.setdefault(held, set()).add(acquired)

    report.cycles = _find_cycles(nodes, graph)
    if not report.cycles:
        report.hierarchy = _topological_levels(nodes, graph)
    return report


def _find_cycles(nodes: Set[str], graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Every elementary cycle reachable by DFS (including self-edges)."""
    cycles: List[List[str]] = []
    seen_keys: Set[Tuple[str, ...]] = set()

    def dfs(node: str, path: List[str], on_path: Set[str]) -> None:
        for succ in sorted(graph.get(node, ())):
            if succ in on_path:
                cycle = path[path.index(succ):] + [succ]
                # Canonicalise rotation so each cycle reports once.
                body = cycle[:-1]
                pivot = body.index(min(body))
                key = tuple(body[pivot:] + body[:pivot])
                if key not in seen_keys:
                    seen_keys.add(key)
                    cycles.append(list(key) + [key[0]])
            elif len(path) < 16:
                dfs(succ, path + [succ], on_path | {succ})

    for start in sorted(nodes):
        dfs(start, [start], {start})
    return cycles


def _topological_levels(nodes: Set[str], graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Group locks into acquisition levels, outermost (acquired first) first."""
    preds: Dict[str, Set[str]] = {n: set() for n in nodes}
    for held, succs in graph.items():
        for acquired in succs:
            preds[acquired].add(held)
    level: Dict[str, int] = {}

    def depth(node: str, trail: Set[str]) -> int:
        if node in level:
            return level[node]
        if node in trail:  # defensive; callers ensured acyclicity
            return 0
        value = (
            max((depth(p, trail | {node}) for p in preds[node]), default=-1) + 1
        )
        level[node] = value
        return value

    for node in nodes:
        depth(node, set())
    levels: List[List[str]] = []
    for node, lvl in level.items():
        while len(levels) <= lvl:
            levels.append([])
        levels[lvl].append(node)
    return [sorted(group) for group in levels]


# --------------------------------------------------------------------------
# Artifact


def _site_counts(sites: List[LockSite]) -> Dict[str, int]:
    """``path::function`` -> how many of ``sites`` lie in that function."""
    return dict(sorted(Counter(f"{site.path}::{site.function}" for site in sites).items()))


def hierarchy_artifact(report: LockOrderReport) -> Dict[str, object]:
    """Stable JSON form of the discovered hierarchy (committed to docs/).

    Every lock, every edge and every function holding an edge's sites is
    recorded, keyed by ``path::Class.method``; positions inside a function
    are not, so a pure line shift regenerates the same artifact.
    """
    return {
        "locks": [
            {
                "id": d.lock_id,
                "kind": d.kind,
                "defined_in": f"{d.path}::{d.scope}",
                **({"alias_of": d.alias_of} if d.alias_of else {}),
            }
            for d in sorted(report.locks, key=lambda d: d.lock_id)
        ],
        "edges": [
            {"held": held, "acquires": acquired, "sites": _site_counts(sites)}
            for (held, acquired), sites in sorted(report.edges.items())
        ],
        "hierarchy": report.hierarchy,
    }


def check_artifact(report: LockOrderReport, artifact_path) -> Optional[str]:
    """Compare the committed artifact to the freshly computed hierarchy.

    Returns an error message when the artifact is missing or stale, else
    ``None``.
    """
    path = pathlib.Path(artifact_path)
    if not path.exists():
        return (
            f"lock hierarchy artifact {path} is missing; run "
            f"'python -m repro audit --write-lock-artifact'"
        )
    try:
        committed = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return f"lock hierarchy artifact {path} is unreadable: {exc}"
    current = hierarchy_artifact(report)
    if committed != current:
        return (
            f"lock hierarchy artifact {path} is stale (the service's lock "
            f"graph changed); review the new ordering and refresh it with "
            f"'python -m repro audit --write-lock-artifact'"
        )
    return None
