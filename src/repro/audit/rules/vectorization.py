"""AUD101: bulk paths must stay vectorized.

PRs 1-4 replaced every per-item ``for`` loop in the ``bulk_*`` hot paths of
``core/`` and ``baselines/`` with whole-batch numpy algorithms — the whole
point of the reproduction's performance story.  This rule keeps them that
way: inside a ``bulk_*`` method it flags any loop or comprehension that
iterates the batch arguments per item (``for k in keys``,
``enumerate(keys)``, ``zip(keys, values)``, ``range(keys.size)``,
``range(len(keys))``; a ``range`` with a step other than 1, such as
``range(0, keys.size, CHUNK)``, walks chunks and passes) unless the loop is
the per-item branch of a
documented dispatch (an ``if`` testing one of :data:`GUARD_MARKERS`), or
carries an explicit ``# audit: ignore[AUD101]`` waiver explaining itself.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..lint import AuditModule, Rule, register

#: Identifiers whose presence in an ``if`` test marks a documented per-item
#: branch: the quotient filters' size rule
#: (``QuotientFilterCore.prefers_sequential``) and the bulk TCF's fallback
#: for (block, word) keys that do not pack into 64 bits
#: (``table.flat_key_shift is None``).
GUARD_MARKERS = ("prefers_sequential", "flat_key_shift")

_WRAPPERS = {"enumerate", "zip", "reversed", "iter", "sorted"}
_LOOP_NODES = (ast.For, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _batch_params(func: ast.FunctionDef) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [name for name in names if name not in ("self", "cls")]


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


def _walks_chunks(call: ast.Call) -> bool:
    """``range(start, stop, step)`` with a step other than a literal 1 walks
    a batch in chunks (``range(0, keys.size, CHUNK)``), not item by item."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "range"):
        return False
    if len(call.args) != 3:
        return False
    step = call.args[2]
    return not (isinstance(step, ast.Constant) and step.value == 1)


def _iterates_batch(iter_node: ast.expr, params: List[str]) -> Optional[str]:
    """Return the batch parameter ``iter_node`` walks per item, if any."""
    if isinstance(iter_node, ast.Name) and iter_node.id in params:
        return iter_node.id
    if isinstance(iter_node, ast.Call):
        callee = iter_node.func
        if _walks_chunks(iter_node):
            return None
        if isinstance(callee, ast.Name) and callee.id in _WRAPPERS | {"range"}:
            for arg in iter_node.args:
                for name in _names_in(arg):
                    if name in params:
                        return name
    return None


def _is_guard_if(node: ast.AST) -> bool:
    if not isinstance(node, ast.If):
        return False
    test_src = ast.unparse(node.test)
    return any(marker in test_src for marker in GUARD_MARKERS)


def _statement_path(module: AuditModule, node: ast.AST, func: ast.AST) -> List[ast.AST]:
    """Ancestor chain from ``func`` (exclusive) down to ``node`` (inclusive)."""
    path = [node]
    current = node
    while current is not func:
        parent = module.parent(current)
        if parent is None:
            break
        path.append(parent)
        current = parent
    path.reverse()
    return path


def _is_guarded(module: AuditModule, node: ast.AST, func: ast.FunctionDef) -> bool:
    """True when the loop sits behind a documented dispatch: it is
    lexically inside a guard ``if``'s branch (the shape of
    ``BulkTCF.bulk_delete``)."""
    path = _statement_path(module, node, func)
    return any(_is_guard_if(ancestor) for ancestor in path[:-1])


def _check(module: AuditModule) -> Iterator[Tuple[int, str]]:
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not func.name.startswith("bulk_"):
            continue
        params = _batch_params(func)
        if not params:
            continue
        for node in ast.walk(func):
            if not isinstance(node, _LOOP_NODES):
                continue
            iters = (
                [node.iter]
                if isinstance(node, ast.For)
                else [gen.iter for gen in node.generators]
            )
            for iter_node in iters:
                param = _iterates_batch(iter_node, params)
                if param is None:
                    continue
                if _is_guarded(module, node, func):
                    continue
                yield (
                    node.lineno,
                    f"per-item loop over batch argument {param!r} in "
                    f"{func.name}(); bulk paths must stay vectorized — gate a "
                    f"per-item branch behind one of {', '.join(GUARD_MARKERS)} "
                    f"or justify with an ignore comment",
                )
                break


register(
    Rule(
        rule_id="AUD101",
        name="bulk-loop",
        severity="error",
        description=(
            "no per-item loops over batch arrays inside bulk_* methods of "
            "core/ and baselines/ (vectorization regression)"
        ),
        roles=frozenset({"bulk-api"}),
        check=_check,
        established_by="PRs 1-4",
    )
)
