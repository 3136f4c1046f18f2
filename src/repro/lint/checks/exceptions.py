"""EXC001 — exception taxonomy in the recovery and measurement packages.

``repro.runner`` and ``repro.faults`` are the layers whose whole job
is deciding what a failure *means*: retry, quarantine, open the
breaker, degrade the job.  The measurement packages (``repro.cdn``,
``repro.availability``, ``repro.cloudtiers``, ``repro.edgefabric``,
``repro.netmodel``) decide what counts as data: an unreachable client
is a :class:`~repro.errors.RoutingError` turned into a mask, never a
swallowed bug.  A broad handler (``except:`` / ``except Exception``)
that silently swallows turns an unknown defect into a wrong campaign
report or a wrong figure.  Broad catches stay legal there in exactly
two shapes:

* the handler **re-raises** (possibly a typed error chained with
  ``from``), keeping the taxonomy intact, or
* the handler **counts** what it ate via an ``obs`` counter, so the
  swallow shows up in telemetry instead of vanishing.

Everything else must name the exceptions it expects.  Other packages
are out of scope — analysis code legitimately skips unparseable rows
without ceremony.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, catches_broadly

#: Packages where failure handling is the product, not a nuisance.
SCOPED_PREFIXES: Tuple[str, ...] = (
    "repro.runner",
    "repro.faults",
    "repro.cdn",
    "repro.availability",
    "repro.cloudtiers",
    "repro.edgefabric",
    "repro.netmodel",
)


def _handler_accounts(handler: ast.ExceptHandler) -> bool:
    """True when the handler body re-raises or increments a counter."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "counter":
                return True
            if isinstance(func, ast.Attribute) and func.attr == "counter":
                return True
    return False


class SwallowedExceptionRule(Rule):
    """EXC001: broad catches in the scoped packages must re-raise or count."""

    rule_id = "EXC001"
    name = "exception-taxonomy"
    description = (
        "bare except / except Exception in repro.runner, repro.faults and "
        "the measurement packages must re-raise or increment an obs "
        "counter; silent swallows hide recovery decisions and bugs"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith(SCOPED_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not catches_broadly(node):
                continue
            if _handler_accounts(node):
                continue
            caught = "bare except" if node.type is None else "except Exception"
            yield ctx.finding(
                self,
                node,
                f"{caught} swallows without re-raising or counting; name "
                "the expected exceptions, chain a typed error, or record "
                "the swallow with obs.counter(...)",
            )
