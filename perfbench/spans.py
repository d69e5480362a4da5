"""In-memory span tracer that times kinktrap's layers from outside the package.

The package modules bind their collaborators with ``from .x import f``, so a
layer boundary is the name *in the calling module*: wrapping
``scattering.integrate`` times the integrations that ``run_scattering`` starts,
while ``integrator.integrate`` would time nothing.  ``Tracer.wrap`` replaces
one such name, ``Tracer.restore`` puts every original back.

Spans are appended to a list while the run goes and only summarised or
written out afterwards, so the timed region does no I/O.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    layer: str
    trace_id: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    steps: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped call sites; one trace id per run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        span = Span(name, layer, self.trace_id, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(
        self,
        module,
        attr: str,
        layer: str,
        steps_of: Optional[Callable[[object], int]] = None,
    ) -> None:
        """Replace ``module.attr`` with a timing wrapper; the span is named
        ``<module tail>.<attr>`` and booked to ``layer``."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def timed(*args, **kwargs):
            with self.span(name, layer) as span:
                result = original(*args, **kwargs)
            if steps_of is not None:
                span.steps = steps_of(result)
            return result

        setattr(module, attr, timed)
        self._installed.append((module, attr, original))

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_self(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            totals[s.layer] = totals.get(s.layer, 0.0) + own
        return totals

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
