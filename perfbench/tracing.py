"""In-memory spans and counts recorded around calls into the engine.

The tracer leaves the program's source alone: :meth:`Tracer.patch` swaps a public
method (on an instance or a class) for a wrapper that opens a span, and
:meth:`Tracer.restore` puts every original back.  Spans nest through a
stack, so a layer's *self time* is its spans' duration minus the part
covered by child spans (an LM call inside an executor step is charged to
the LM, not twice).

Spans are recorded for synchronous calls only; the service workload's
asynchronous client calls are timed by the workload itself.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.lm.base import LanguageModel


@dataclass
class Span:
    """One timed call: ``layer``/``name``, bounds, and its parent span."""

    span_id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Spans and counters for one traced pass."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[Span] = field(default_factory=list)
    _patched: list[tuple[Any, str, Any, bool]] = field(default_factory=list)

    def begin(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, layer, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_time += span.duration

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """*fn* inside a span, counting calls as ``<layer>.<name>``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.counts[f"{layer}.{name}"] += 1
            span = self.begin(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def patch(self, owner: Any, attr: str, layer: str, name: str | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, self.wrap(getattr(owner, attr), layer, name or attr))
        self._patched.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def iterate(self, iterator: Iterator, layer: str, name: str) -> Iterator:
        """Re-yield *iterator*, timing each ``next`` as a span."""
        while True:
            span = self.begin(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(span)
            yield item

    def self_ms(self, layer: str) -> float:
        """Total self time of *layer*'s spans, in milliseconds."""
        return 1e3 * sum(s.self_time for s in self.spans if s.layer == layer)

    def busy_ms(self, layer: str, name: str | None = None) -> float:
        """Wall time inside *layer* (or one of its span names), counting
        nested spans of the same layer once."""
        by_id = {s.span_id: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s.layer != layer or (name is not None and s.name != name):
                continue
            parent = by_id.get(s.parent) if s.parent is not None else None
            nested = False
            while parent is not None:
                if parent.layer == layer and (name is None or parent.name == name):
                    nested = True
                    break
                parent = by_id.get(parent.parent) if parent.parent is not None else None
            if not nested:
                total += s.duration
        return 1e3 * total


class TracedModel(LanguageModel):
    """Delegating model whose scoring calls run inside ``lm`` spans.

    Counts batched calls and the contexts they carried.  The inner
    model's prefix-state cache stays visible, so the engine's KV counters
    read the same with and without the wrapper.
    """

    def __init__(self, inner: LanguageModel, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length

    @property
    def prefix_cache(self) -> Any:  # type: ignore[override]
        return self.inner.prefix_cache

    def enable_prefix_cache(self, max_bytes: int | None = None) -> Any:
        return self.inner.enable_prefix_cache(max_bytes)

    def disable_prefix_cache(self) -> None:
        self.inner.disable_prefix_cache()

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        self.tracer.counts["lm.contexts"] += 1
        span = self.tracer.begin("lm", "logprobs")
        try:
            return self.inner.logprobs(context)
        finally:
            self.tracer.end(span)

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        self.tracer.counts["lm.batch_calls"] += 1
        self.tracer.counts["lm.contexts"] += len(contexts)
        span = self.tracer.begin("lm", "logprobs_batch")
        try:
            return self.inner.logprobs_batch(contexts)
        finally:
            self.tracer.end(span)
