"""AUD107: bulk and deterministic modules sort through ``stable_argsort``.

The bulk TCF and GQF are "sort, then merge" designs whose permutations must
be stable (ties in batch order) for positional spill tracking and bit-exact
replay.  NumPy's stable ``argsort`` and ``lexsort`` are several times slower
than one plain sort of ``key << idx_bits | idx`` words, which
:func:`repro.gpusim.sorting.stable_argsort` performs with the identical
permutation.  This rule flags ``np.lexsort(...)`` and
``argsort(..., kind="stable")`` (or its ``"mergesort"`` alias) so new bulk
code routes through the primitive; genuine packed-key fallbacks carry an
``# audit: ignore[AUD107]`` naming why the key cannot be packed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..lint import AuditModule, Rule, register

_STABLE_KINDS = {"stable", "mergesort"}


def _stable_kind(call: ast.Call) -> bool:
    return any(
        kw.arg == "kind"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value in _STABLE_KINDS
        for kw in call.keywords
    )


def _check(module: AuditModule) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        if (
            func.attr == "lexsort"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            yield (
                node.lineno,
                "np.lexsort in a bulk/deterministic module; pack the keys into "
                "one integer and call repro.gpusim.sorting.stable_argsort",
            )
        elif func.attr == "argsort" and _stable_kind(node):
            yield (
                node.lineno,
                "stable argsort in a bulk/deterministic module; "
                "repro.gpusim.sorting.stable_argsort returns the same "
                "permutation from one packed-index sort",
            )


register(
    Rule(
        rule_id="AUD107",
        name="stable-sort",
        severity="error",
        description=(
            "no np.lexsort or argsort(kind='stable') in bulk-api and "
            "deterministic modules; use gpusim.sorting.stable_argsort"
        ),
        roles=frozenset({"bulk-api", "deterministic"}),
        check=_check,
        established_by="the packed-index stable sort",
    )
)
