"""In-memory span tracer that wraps tinyhar's functions from outside.

A span records its name, start and end (``perf_counter_ns``), the span that
was open when it started (its parent) and the request it belongs to. Self
time is a span's duration minus the time its direct children cover; calls
are single-threaded and strictly nested, so children never overlap.

Wrapping replaces a module attribute, so it sees every call that resolves
that attribute at call time, including names bound by ``from ... import``.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None  # index into Tracer.spans
    request: str | None


@dataclass(frozen=True)
class Target:
    """Functions of one module recorded under one span name.

    ``everywhere`` wraps every module attribute bound to the same function
    object; otherwise only ``module``'s own binding is wrapped. ``count``
    maps the call's bound arguments and result to a count added to the
    counter of the same name. ``request`` names the request a call opens.
    """

    module: str
    functions: tuple[str, ...]
    span: str
    everywhere: bool = True
    count: tuple[str, Callable] | None = None
    request: Callable | None = None
    prepare: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._request: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    @contextlib.contextmanager
    def request(self, request_id: str):
        previous, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = previous

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent,
                               self._request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter_ns()

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    # ------------------------------------------------------------- wrapping

    def _wrapper(self, original, target: Target):
        needs_args = target.count is not None or target.request is not None
        signature = inspect.signature(original) if needs_args else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if target.prepare is not None:
                args, kwargs = target.prepare(args, kwargs)
            bound = (signature.bind(*args, **kwargs).arguments
                     if needs_args else None)
            request = (contextlib.nullcontext() if target.request is None
                       else self.request(target.request(bound)))
            with request, self.span(target.span):
                result = original(*args, **kwargs)
            if target.count is not None:
                counter, fn = target.count
                self.add(counter, int(fn(bound, result)))
            return result

        return traced

    def install(self, targets, modules: dict[str, object]) -> None:
        """Wrap every target; ``modules`` maps short names to the modules
        whose attributes are searched for bindings."""
        for target in targets:
            home = modules[target.module]
            owners = list(modules.values()) if target.everywhere else [home]
            for name in target.functions:
                original = getattr(home, name)
                wrapper = self._wrapper(original, target)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapper)
                            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets, modules):
        try:
            self.install(targets, modules)
            yield self
        finally:
            self.restore()


def self_times(spans: list[Span]) -> list[int]:
    """Per-span duration minus the durations of its direct children (ns)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
