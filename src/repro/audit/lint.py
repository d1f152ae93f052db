"""Custom AST lint engine: repo-specific invariants as machine-checked rules.

The rules under :mod:`repro.audit.rules` encode invariants this repository
established in earlier PRs but until now only enforced by example — bulk
paths stay vectorized, deterministic modules stay wall-clock- and ambient-
RNG-free, persistence fsyncs before it renames, capacity errors carry
occupancy context, worker loops never swallow exceptions silently, and bulk
APIs validate their ``values`` like the point APIs do.

Engine model
------------
Every rule is a :class:`Rule` with a stable ID (``AUD1xx``), a severity
(``error`` gates the ``repro audit`` exit code; ``warning`` is advisory),
and a set of module *roles* it applies to.  Roles are inferred from a
file's path inside the package (:data:`ROLE_PATTERNS`) and can be forced by
a ``# audit: module-role=...`` directive (how the test fixtures opt in).
Findings are suppressed line by line with ``# audit: ignore[RULE]``
comments — every suppression names the rule it waives, so the waiver is
grep-able and reviewable.  A waiver whose rule ran on its line and found
nothing there is stale and is itself reported (AUD100), so waivers leave
with the code they excused.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .ignores import Directives, parse_directives

Severity = str  # "error" | "warning"

#: Role classification by path inside the package, first match wins per
#: pattern; a file can hold several roles.  Paths are matched against the
#: POSIX-style path suffix starting at ``repro/`` (or the bare filename for
#: files outside the package, e.g. fixtures, which instead use the
#: ``module-role`` directive).
ROLE_PATTERNS: Tuple[Tuple[str, str], ...] = (
    # Modules whose behaviour must be a pure function of their inputs so
    # seeded chaos schedules and the simulated GPU replay deterministically.
    ("deterministic", "repro/gpusim/"),
    ("deterministic", "repro/core/"),
    ("deterministic", "repro/service/faults.py"),
    # Modules owning the vectorized bulk paths (PRs 1-4).
    ("bulk-api", "repro/core/"),
    ("bulk-api", "repro/baselines/"),
    # Crash-safe persistence (PR 6 snapshots, PR 7 journal, PR 10 shard sets).
    ("persistence", "repro/lifecycle/snapshot.py"),
    ("persistence", "repro/lifecycle/shardset.py"),
    ("persistence", "repro/service/journal.py"),
    # The threaded service (PR 7): worker loops, locks, retries.
    ("service", "repro/service/"),
    # Process-parallel sharding (PR 10): routing and the worker entry point
    # must replay deterministically; the wrapper owns bulk paths and a lock
    # + pool lifecycle, so it carries the bulk-api and service disciplines.
    ("deterministic", "repro/sharding/router.py"),
    ("deterministic", "repro/sharding/worker.py"),
    ("bulk-api", "repro/sharding/sharded.py"),
    ("service", "repro/sharding/sharded.py"),
)

#: Meta-rule ID for malformed (bare) and stale suppression directives.
WAIVER_RULE = "AUD100"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: {self.rule} [{self.severity}] {self.message}{mark}"


@dataclass
class AuditModule:
    """One parsed source file handed to every applicable rule."""

    path: pathlib.Path
    source: str
    tree: ast.Module
    directives: Directives
    roles: FrozenSet[str]
    _parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    @property
    def display_path(self) -> str:
        return self.path.as_posix()

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        if not self._parents:
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents.get(node)


#: A rule's checker yields ``(line, message)`` pairs.
Checker = Callable[[AuditModule], Iterator[Tuple[int, str]]]


@dataclass(frozen=True)
class Rule:
    """One registered audit rule."""

    rule_id: str
    name: str
    severity: Severity
    description: str
    #: Roles the rule applies to; ``None`` applies everywhere.
    roles: Optional[FrozenSet[str]]
    check: Checker
    #: PR that established the invariant (documentation cross-link).
    established_by: str = ""


_REGISTRY: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate audit rule ID {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return rule


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by ID (importing the built-in set)."""
    from . import rules as _builtin  # noqa: F401 - registration side effect

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def infer_roles(path: pathlib.Path) -> FrozenSet[str]:
    """Role set of ``path`` by its location inside the package."""
    posix = path.as_posix()
    anchor = posix.rfind("repro/")
    suffix = posix[anchor:] if anchor >= 0 else posix
    return frozenset(
        role for role, pattern in ROLE_PATTERNS if suffix.startswith(pattern)
    )


def load_module(path: pathlib.Path) -> AuditModule:
    """Parse one file into the form rules consume.

    Raises ``SyntaxError`` for unparsable files — the audit refuses to
    certify a tree it cannot read.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    directives = parse_directives(source)
    roles = directives.roles or infer_roles(path)
    return AuditModule(
        path=path, source=source, tree=tree, directives=directives, roles=roles
    )


def iter_python_files(paths: Iterable[object]) -> Iterator[pathlib.Path]:
    for raw in paths:
        path = pathlib.Path(raw) if not isinstance(raw, pathlib.Path) else raw
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            yield path


def run_lint(
    paths: Iterable[pathlib.Path],
    rules: Optional[Iterable[Rule]] = None,
    keep_suppressed: bool = False,
) -> List[Finding]:
    """Run every applicable rule over ``paths``; returns active findings.

    ``keep_suppressed=True`` additionally returns findings silenced by
    ``# audit: ignore[...]`` directives, flagged ``suppressed=True`` — the
    JSON report keeps them visible so waivers stay auditable.
    """
    selected = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        module = load_module(file_path)
        for line in module.directives.malformed:
            findings.append(
                _waiver_finding(
                    module,
                    line,
                    "bare '# audit: ignore' without a rule list; name the "
                    "rule being waived, e.g. '# audit: ignore[AUD101]'",
                )
            )
        ran: Set[str] = set()
        hits: Set[Tuple[str, int]] = set()
        for rule in selected:
            if rule.roles is not None and not (rule.roles & module.roles):
                continue
            ran.add(rule.rule_id)
            for line, message in rule.check(module):
                hits.add((rule.rule_id, line))
                finding = Finding(
                    rule=rule.rule_id,
                    severity=rule.severity,
                    path=module.display_path,
                    line=line,
                    message=message,
                )
                ignored = module.directives.ignores.get(line, frozenset())
                if rule.rule_id in ignored:
                    if keep_suppressed:
                        findings.append(replace(finding, suppressed=True))
                else:
                    findings.append(finding)
        for line, waived in module.directives.ignores.items():
            for rule_id in sorted(waived & ran):
                if (rule_id, line) not in hits:
                    findings.append(
                        _waiver_finding(
                            module,
                            line,
                            f"stale waiver: {rule_id} finds nothing on this line; "
                            f"delete its '# audit: ignore[{rule_id}]'",
                        )
                    )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _waiver_finding(module: AuditModule, line: int, message: str) -> Finding:
    return Finding(
        rule=WAIVER_RULE,
        severity="error",
        path=module.display_path,
        line=line,
        message=message,
    )


def gating(findings: Iterable[Finding]) -> List[Finding]:
    """The subset of findings that should fail the audit (active errors)."""
    return [f for f in findings if f.severity == "error" and not f.suppressed]
