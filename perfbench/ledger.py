"""An outside-in wall-clock ledger over the serving stack's layers.

:class:`Ledger` wraps each layer's public entry points from outside the
package (class or module attributes, restored on exit) and keeps one
stack of open frames, so every wall second inside ``serve()`` lands in
exactly one layer's *self* time: a frame's duration minus the time its
child frames cover.  A layer re-entered while it is already open (the
evaluator's recursion, ``HybridCostModel.check`` calling the oracle)
counts the call but opens no new frame.  Wall time under ``serve()``
covered by no frame is ``other``; the self times plus ``other`` add up
to the measured wall time, which is the ledger's closure check.

Entry points are named by import path, so a refactor that moves or
removes one leaves its layer reading zero (listed in
:attr:`Ledger.missing`) instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

#: layer -> the entry points it is timed at, as ``module:attribute.path``.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", ("repro.engine.scheduler:Scheduler.drain",)),
    ("session.plan", ("repro.session:Session.plan_job",)),
    ("core.expand", ("repro.core.strategies:SearchSpace.expand",)),
    ("core.cost_analytic", ("repro.core.costmodel:AnalyticCostModel.score",)),
    (
        "core.cost_oracle",
        (
            "repro.core.costmodel:HybridCostModel.check",
            "repro.core.costmodel:OracleCostModel.score",
        ),
    ),
    ("xquery.parse", ("repro.xquery:Query.__init__",)),
    (
        "xquery.decompose",
        ("repro.session:push_selection", "repro.core.rules:push_selection"),
    ),
    ("xquery.run", ("repro.xquery:Query.run", "repro.xquery:Query.__call__")),
    ("core.eval", ("repro.core.evaluator:ExpressionEvaluator.eval",)),
    ("net.route", ("repro.net.network:Network.route",)),
    ("net.deliver", ("repro.net.network:Network.deliver",)),
    ("peers.clone", ("repro.peers.system:AXMLSystem.clone",)),
    ("writes.apply", ("repro.writes:DocumentWriter.apply",)),
    ("placement.tick", ("repro.placement:PlacementActor.on_tick",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)


def _resolve(site: str):
    """``module:Owner.attribute`` -> (owner object, attribute name)."""
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attribute)  # the entry point itself must exist too
    return owner, attribute


class Ledger:
    """Per-layer call counts, inclusive and self wall seconds.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        #: Wall seconds of each layer's outermost frames, children included.
        self.inclusive: Dict[str, float] = defaultdict(float)
        #: Wall seconds of each layer's frames minus their child frames.
        self.self_time: Dict[str, float] = defaultdict(float)
        #: Wall seconds covered by frames opened with no frame around them.
        self.covered = 0.0
        self._open: Dict[str, int] = defaultdict(int)
        #: One ``[child seconds]`` cell per open frame, innermost last.
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: Entry points that no longer exist; their layers read zero.
        self.missing: List[str] = []

    def __enter__(self) -> "Ledger":
        for layer, sites in LAYERS:
            for site in sites:
                try:
                    owner, attribute = _resolve(site)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    continue
                original = getattr(owner, attribute)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @property
    def balanced(self) -> bool:
        """True when every frame opened was closed again."""
        return not self._stack and not any(self._open.values())

    def _wrap(self, layer: str, fn):
        calls, open_frames, stack = self.calls, self._open, self._stack
        inclusive, self_time = self.inclusive, self.self_time

        def timed(*args, **kwargs):
            calls[layer] += 1
            if open_frames[layer]:
                return fn(*args, **kwargs)
            open_frames[layer] += 1
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                open_frames[layer] -= 1
                inclusive[layer] += elapsed
                self_time[layer] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.covered += elapsed

        return functools.update_wrapper(timed, fn)
