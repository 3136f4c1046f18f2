"""RNG discipline rules.

The reproduction's headline numbers are only comparable across runs,
lanes, and resumed campaigns because every random draw flows from an
explicitly threaded seed.  Two rules guard that:

* ``RNG001`` — the stdlib ``random`` module and numpy's legacy
  module-level API (``np.random.rand``, ``np.random.seed``, the
  ``RandomState`` singleton) are hidden global state; one call makes a
  result depend on import order and thread scheduling.
* ``RNG002`` — ``np.random.default_rng()`` with no seed draws fresh OS
  entropy, and a literal-constant seed buried in a function that
  exposes no ``seed``/``rng`` parameter pins callers to one stream
  they cannot vary.  Library call paths must accept the generator or
  the seed from above.  A builtin ``hash(...)`` anywhere in the seed
  is flagged too: string hashes are salted per process
  (``PYTHONHASHSEED``), so the stream would differ from run to run.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding, WARNING
from repro.lint.rules import FileContext, Rule, function_parameters

#: Construction-side names of numpy's seeded Generator API — everything
#: else under ``numpy.random`` is the legacy global-state surface.
NUMPY_RANDOM_ALLOWED: Set[str] = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Parameters whose presence shows a function takes randomness (or the
#: seed it derives from) from its caller.
SEED_BEARING_PARAMS: Set[str] = {
    "seed",
    "rng",
    "generator",
    "cfg",
    "config",
    "self",
    "cls",
}

DEFAULT_RNG = "numpy.random.default_rng"


def _is_test_module(ctx: FileContext) -> bool:
    parts = ctx.module.split(".")
    return parts[0] in ("tests", "test") or any(
        part.startswith("test_") for part in parts
    )


class LegacyRandomRule(Rule):
    """RNG001: no stdlib ``random`` or numpy legacy RNG calls in src."""

    rule_id = "RNG001"
    name = "rng-legacy"
    description = (
        "library code must not call the stdlib random module or numpy's "
        "legacy global-state random API; thread a seeded "
        "numpy.random.Generator instead"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if _is_test_module(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = ctx.imports.resolve(node.func)
            if full is None:
                continue
            if full == "random" or full.startswith("random."):
                yield ctx.finding(
                    self,
                    node,
                    f"call to stdlib '{full}' uses hidden global RNG state; "
                    "draw from an explicitly seeded "
                    "numpy.random.Generator parameter instead",
                )
            elif full.startswith("numpy.random."):
                leaf = full.split(".")[2]
                if leaf not in NUMPY_RANDOM_ALLOWED:
                    yield ctx.finding(
                        self,
                        node,
                        f"legacy numpy.random.{leaf} mutates the module-level "
                        "RandomState singleton; use a seeded Generator from "
                        "numpy.random.default_rng(seed)",
                    )


class FreshGeneratorRule(Rule):
    """RNG002: no fresh-entropy or caller-invisible Generator construction."""

    rule_id = "RNG002"
    name = "rng-fresh"
    description = (
        "default_rng() without a seed draws OS entropy and breaks "
        "reproducibility; a literal seed inside a function with no "
        "seed/rng parameter hides the stream from callers; a builtin "
        "hash() in the seed is salted per process"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if _is_test_module(ctx):
            return
        for call, enclosing in _calls_with_enclosing_function(ctx.tree):
            if ctx.imports.resolve(call.func) != DEFAULT_RNG:
                continue
            if not call.args and not call.keywords:
                yield ctx.finding(
                    self,
                    call,
                    "default_rng() with no seed draws fresh OS entropy; "
                    "every library call path must derive its stream from "
                    "an explicit seed or Generator parameter",
                )
                continue
            salted = _builtin_hash_call(call, ctx)
            if salted is not None:
                yield ctx.finding(
                    self,
                    salted,
                    "builtin hash() in a default_rng seed is salted per "
                    "process (PYTHONHASHSEED), so the stream changes from "
                    "run to run; derive the seed from a stable digest such "
                    "as zlib.crc32(key.encode('utf-8'))",
                )
                continue
            seed_arg: Optional[ast.expr] = call.args[0] if call.args else None
            if not isinstance(seed_arg, ast.Constant):
                continue
            params = function_parameters(enclosing) if enclosing else set()
            if enclosing is not None and params & SEED_BEARING_PARAMS:
                continue
            yield ctx.finding(
                self,
                call,
                "default_rng with a literal constant seed pins callers to "
                "one stream; accept a seed=/rng= parameter (or derive from "
                "config) so campaigns can vary it",
                severity=WARNING,
            )


def _builtin_hash_call(call: ast.Call, ctx: FileContext) -> Optional[ast.Call]:
    """The first builtin ``hash(...)`` call inside ``call``'s arguments."""
    if "hash" in ctx.imports.aliases:
        return None  # an imported ``hash`` is not the salted builtin
    for arg in [*call.args, *(kw.value for kw in call.keywords)]:
        for node in ast.walk(arg):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                return node
    return None


def _calls_with_enclosing_function(
    tree: ast.Module,
) -> List[Tuple[ast.Call, Optional[ast.AST]]]:
    """Every call in the file, paired with its innermost enclosing def."""
    found: List[Tuple[ast.Call, Optional[ast.AST]]] = []

    def walk(node: ast.AST, enclosing: Optional[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child
            if isinstance(child, ast.Call):
                found.append((child, inner))
            walk(child, inner)

    walk(tree, None)
    return found
