"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start, end, the span open when
it began (its parent) and the trial it belongs to. Spans stay in memory
until the run ends; `self_times` and `aggregate` turn them into per-layer
counts and busy times.

Functions are wrapped where the calling module looks them up: a function
imported with `from .seeding import derive_rng` lives on in every importing
module's namespace, so `Recorder.installed` patches each of those names,
not only the defining module's.
"""
from __future__ import annotations

import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator, Sequence

# Span fields, kept as a list per span so the wrapper can fill in the end.
NAME, START, END, PARENT, TRIAL = range(5)


@contextmanager
def patched(module: Any, attr: str, replacement: Any) -> Iterator[None]:
    """Set `module.attr` to `replacement` for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


def lookup_sites(package: str, module: Any, attr: str) -> list[Any]:
    """Every loaded module of `package` whose `attr` is `module.attr`."""
    original = getattr(module, attr)
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None
        and (name == package or name.startswith(package + "."))
        and vars(mod).get(attr) is original
    ]


class Recorder:
    """Records spans around wrapped calls and around explicit blocks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.observed: dict[str, list] = {}
        self._stack: list[int] = []
        self._trial: Any = None

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._trial]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        trial_kwarg: str | None = None,
        observe: Callable[[Any], Any] | None = None,
    ) -> Callable:
        """`fn` inside a span. With `trial_kwarg`, that keyword argument
        becomes the trial id of the span and of every span under it. With
        `observe`, `observe(result)` is kept under the span's name."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            outer_trial = self._trial
            if trial_kwarg is not None:
                self._trial = kwargs.get(trial_kwarg)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                self._trial = outer_trial
            if observe is not None:
                self.observed.setdefault(name, []).append(observe(result))
            return result

        return traced

    @contextmanager
    def installed(
        self,
        package: str,
        points: Sequence[tuple[str, str]],
        trial_kwargs: dict[str, str] | None = None,
        observers: dict[str, Callable[[Any], Any]] | None = None,
    ) -> Iterator[None]:
        """Wrap each `(module, function)` of `package` at every lookup site
        while the block runs. The span is named `module.function`."""
        trial_kwargs = trial_kwargs or {}
        observers = observers or {}
        with ExitStack() as stack:
            for module_name, attr in points:
                home = sys.modules[f"{package}.{module_name}"]
                name = f"{module_name}.{attr}"
                wrapper = self.wrap(
                    getattr(home, attr),
                    name,
                    trial_kwarg=trial_kwargs.get(name),
                    observe=observers.get(name),
                )
                for site in lookup_sites(package, home, attr):
                    stack.enter_context(patched(site, attr, wrapper))
            yield


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover. Children are clipped to the parent, and overlapping
    children are counted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def aggregate(
    spans: Sequence[Sequence], own: Sequence[float] | None = None
) -> dict[str, dict[str, float]]:
    """Per span name: `calls`, inclusive `total_s` and `self_s`. `own` is
    `self_times(spans)` when the caller already has it."""
    out: dict[str, dict[str, float]] = {}
    for span, own_s in zip(spans, self_times(spans) if own is None else own):
        entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own_s
    return out
