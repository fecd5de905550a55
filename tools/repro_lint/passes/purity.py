"""Plan-cache consumer purity audit (R015).

The serving-layer plan (ROADMAP) caches the output of
``PTPMiner.plan_root`` — the encoded database, level-1 counters, and
root candidate map — and replays ``search_shard`` against it many
times. That is only sound if every consumer treats the cached
structures as immutable. This pass enforces it by *inference*: starting
from the declared cache-consumer entry points, it tracks each protected
parameter through the call graph (strict resolution only) and flags

* any direct mutation of a protected parameter (attribute / item
  stores, ``del``, mutating method calls such as ``.append`` /
  ``.update`` — see :data:`tools.repro_lint.dataflow.MUTATING_METHODS`),
  including through simple local aliases (``m = param``); and
* mutations in callees the parameter is passed into, propagated
  positionally and by keyword until the worklist fixes.

Unresolvable calls receiving a protected parameter are *not* flagged
(strict resolution prefers precision); the runtime bit-for-bit
equivalence tests remain the backstop for those edges.

The pass fails closed on its own configuration: a declared consumer
that its module no longer defines, or a protected parameter the
consumer no longer takes, is itself a finding. Otherwise a rename would
silently leave the structure unprotected. A consumer whose module is
not in the analyzed set is skipped.
"""

from __future__ import annotations

import ast

from tools.repro_lint.dataflow import effects_of
from tools.repro_lint.engine import Violation
from tools.repro_lint.graph import ProjectGraph

__all__ = ["CACHE_CONSUMERS", "PurityPass"]

#: (function qualname, protected parameter names). These are the seams
#: the serving layer will replay against cached plan structures.
CACHE_CONSUMERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "repro.core.ptpminer.PTPMiner.plan_root",
        ("db", "weights"),
    ),
    (
        "repro.core.ptpminer.PTPMiner.search_shard",
        ("encoded", "weights", "candidates"),
    ),
    (
        "repro.engine._run_shard",
        ("task",),
    ),
)


class PurityPass:
    """R015: cached plan structures may only meet pure readers."""

    name = "purity"
    rules = {
        "R015": (
            "plan-cached structure is mutated by an inferred-impure "
            "consumer, or a declared consumer no longer exists"
        ),
    }

    def run(self, graph: ProjectGraph) -> list[Violation]:
        """Chase every protected parameter to a fixpoint."""
        out = self._stale_consumers(graph)
        worklist: list[tuple[str, str]] = [
            (qual, param)
            for qual, params in CACHE_CONSUMERS
            if qual in graph.functions
            for param in params
            if param in graph.functions[qual].params
        ]
        seen: set[tuple[str, str]] = set(worklist)
        while worklist:
            qual, param = worklist.pop()
            fn = graph.functions[qual]
            effects = effects_of(fn.node)
            for site in effects.mutated_params.get(param, []):
                out.append(
                    fn.ctx.violation(
                        site.node,
                        "R015",
                        f"{fn.qualname}() mutates plan-cached parameter "
                        f"{param!r} ({site.why}); cache consumers must "
                        "be pure readers",
                    )
                )
            for callee_qual, callee_param in self._flows(
                graph, qual, param
            ):
                key = (callee_qual, callee_param)
                if key not in seen:
                    seen.add(key)
                    worklist.append(key)
        out.sort(key=lambda v: (v.path, v.line, v.col))
        return out

    @staticmethod
    def _stale_consumers(graph: ProjectGraph) -> list[Violation]:
        """Declared consumers or parameters the analyzed code lacks."""
        out: list[Violation] = []
        for qual, params in CACHE_CONSUMERS:
            fn = graph.functions.get(qual)
            if fn is None:
                module, head = None, qual
                while module is None and "." in head:
                    head = head.rsplit(".", 1)[0]
                    module = graph.modules.get(head)
                if module is not None:
                    out.append(
                        module.ctx.violation(
                            module.ctx.tree,
                            "R015",
                            f"declared cache consumer {qual}() does not "
                            "exist; update CACHE_CONSUMERS so the plan-"
                            "cached structures stay protected",
                        )
                    )
                continue
            for param in params:
                if param not in fn.params:
                    out.append(
                        fn.ctx.violation(
                            fn.node,
                            "R015",
                            f"{fn.qualname}() has no protected parameter "
                            f"{param!r}; update CACHE_CONSUMERS so the "
                            "plan-cached structure stays protected",
                        )
                    )
        return out

    def _flows(
        self, graph: ProjectGraph, qual: str, param: str
    ) -> list[tuple[str, str]]:
        """(callee, callee-param) pairs the protected value flows into."""
        fn = graph.functions[qual]
        flows: list[tuple[str, str]] = []
        for call in graph.calls_in(fn):
            positions = [
                i
                for i, arg in enumerate(call.args)
                if isinstance(arg, ast.Name) and arg.id == param
            ]
            keywords = [
                kw.arg
                for kw in call.keywords
                if kw.arg is not None
                and isinstance(kw.value, ast.Name)
                and kw.value.id == param
            ]
            if not positions and not keywords:
                continue
            for target_qual in graph.resolve_call(fn, call):
                target = graph.functions[target_qual]
                callee_params = target.positional_params()
                for pos in positions:
                    if pos < len(callee_params):
                        flows.append((target_qual, callee_params[pos]))
                for kw_name in keywords:
                    if kw_name in target.params:
                        flows.append((target_qual, kw_name))
        return flows
