"""Spans and counters recorded around the program's public functions.

The benchmark never edits the program. For a traced unit it swaps a
timing wrapper into the module attribute each caller looks the function
up through (``instrument``), records one span per call, and restores the
original attributes afterwards, so untraced units run the program
exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional


class Recorder:
    """In-memory spans (name, start, end, parent) plus named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def _under(self, index: Optional[int], ancestor: str) -> bool:
        while index is not None:
            if self.spans[index][0] == ancestor:
                return True
            index = self.spans[index][3]
        return False

    def durations(self, name: str, under: Optional[str] = None) -> List[float]:
        """Durations of every closed span called ``name`` (optionally only
        those with an enclosing span called ``under``)."""
        return [
            end - start
            for span_name, start, end, parent in self.spans
            if span_name == name
            and end is not None
            and (under is None or self._under(parent, under))
        ]

    def seconds(self, name: str, under: Optional[str] = None) -> float:
        return sum(self.durations(name, under))

    def calls(self, name: str, under: Optional[str] = None) -> int:
        return len(self.durations(name, under))


def _wrap(
    recorder: Recorder,
    name: str,
    fn: Callable,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        context = before(*args, **kwargs) if before is not None else None
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, context)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Record spans around the layers' public functions while active.

    A wrapped function that a later version of the program no longer has
    is skipped, and the layers it fed read 0.
    """
    count = recorder.count

    def two_paths_tried(graph, tree, *args, **kwargs):
        return len(tree.two_paths())

    def optimize_done(changed, tried):
        count("core.two_path.changed", changed)
        count("core.two_path.tried", tried)

    def search_done(path, _):
        if path is None:
            count("core.two_path.search_misses")

    def rescue_entering(graph, routes, failing, *args, **kwargs):
        return len(failing)

    def rescue_done(still_failing, entering):
        count("core.rescue.entering", entering)
        count("core.rescue.fixed", entering - len(still_failing))

    # (module, attribute looked up by the caller, span, before, after)
    targets = [
        ("repro.core.rabid", "RabidPlanner.stage1", "core.rabid.stage1", None, None),
        ("repro.core.rabid", "RabidPlanner.stage2", "core.rabid.stage2", None, None),
        ("repro.core.rabid", "RabidPlanner.stage3", "core.rabid.stage3", None, None),
        ("repro.core.rabid", "RabidPlanner.stage4", "core.rabid.stage4", None, None),
        ("repro.core.rabid", "optimize_two_paths", "core.two_path.optimize",
         two_paths_tried, optimize_done),
        ("repro.core.two_path", "best_buffered_path", "core.two_path.search",
         None, search_done),
        ("repro.core.rabid", "assign_buffers_to_net", "core.assignment.rebuffer",
         None, None),
        ("repro.core.rescue", "rescue_failing_nets", "core.rescue.rescue",
         rescue_entering, rescue_done),
        ("repro.core.rabid", "delay_summary", "timing.elmore.delay", None, None),
        ("repro.routing.ripup", "route_net_on_tiles", "routing.maze.route", None, None),
        ("repro.service.engine", "route_net_on_tiles", "routing.maze.route", None, None),
        ("repro.service.engine", "full_plan", "service.engine.full_plan", None, None),
        ("repro.service.engine", "run_buffer_walk", "service.engine.buffer_walk",
         None, None),
        ("repro.service.incremental", "run_buffer_walk", "service.engine.buffer_walk",
         None, None),
        ("repro.service.incremental", "incremental_replan",
         "service.incremental.replan", None, None),
        ("repro.bounds.pricing", "PathPricer.price", "bounds.pricing.price", None, None),
        ("repro.bounds.oracle", "compute_bound", "bounds.oracle.compute", None, None),
    ]
    saved = []
    try:
        for module, path, name, before, after in targets:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, before, after))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
