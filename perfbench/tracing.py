"""Layer tracing for the benchmark's traced runs.

A :class:`LayerTracer` wraps public functions of the simulator from the
outside (``setattr`` on a class or module, undone by :meth:`restore`), so
nothing in ``src/`` knows it is being traced.  It keeps two kinds of data:

* **Aggregates** for the hot per-load layers: per ``(layer, parent)`` a
  call count, total time and self time.  ``parent`` is the innermost
  wrapped call active when the layer was entered (``"-"`` at top level).
  A layer's self time is its duration minus the durations of the wrapped
  calls made directly beneath it.
* **Whole spans** only for operations (one attack run, campaign cell,
  study workload or HTTP request): name, start, end, parent span and
  arguments, written out at the end as JSON plus a Chrome trace.

All times are ``time.perf_counter`` seconds.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter  # repro: noqa[RL003] — tracing measures host time
from typing import Any, Callable, Iterator

#: Parent label of a call made with no wrapped call active.
TOP = "-"


class LayerTracer:
    """In-memory aggregates per (layer, parent) plus whole operation spans."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: (layer, parent) -> [count, total seconds, self seconds]
        self.aggregates: dict[tuple[str, str], list[float]] = {}
        #: Free-form counters fed by result hooks (hit levels, bytes, ...).
        self.counters: dict[str, float] = {}
        #: Whole operation spans: dicts with name/start/end/parent/args.
        self.spans: list[dict[str, Any]] = []
        # Active frames, innermost last: [layer, seconds spent in children].
        self._stack: list[list[Any]] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- #
    # Recording                                                          #
    # ----------------------------------------------------------------- #

    def enter(self, layer: str) -> None:
        """Open a frame for ``layer`` (paired with :meth:`exit`)."""
        self._stack.append([layer, 0.0])

    def exit(self, duration: float) -> None:
        """Close the innermost frame, which lasted ``duration`` seconds."""
        layer, children = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else TOP
        if self._stack:
            self._stack[-1][1] += duration
        entry = self.aggregates.get((layer, parent))
        if entry is None:
            entry = self.aggregates[(layer, parent)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[dict[str, Any]]:
        """Record one whole operation span; it also acts as a layer frame."""
        record: dict[str, Any] = {
            "name": name,
            "parent": self._open_spans[-1] if self._open_spans else None,
            "args": args,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._open_spans.append(index)
        self.enter(name)
        start = record["start"] = self.clock()
        try:
            yield record
        finally:
            end = record["end"] = self.clock()
            self.exit(end - start)
            self._open_spans.pop()

    # ----------------------------------------------------------------- #
    # Wrapping                                                           #
    # ----------------------------------------------------------------- #

    def timed(
        self,
        fn: Callable[..., Any],
        layer: str,
        before: Callable[[tuple[Any, ...]], Any] | None = None,
        after: Callable[[Any, tuple[Any, ...], Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a ``layer`` frame per call.

        ``before(args)`` runs before the frame opens and ``after(result,
        args, token)`` after it closes, ``token`` being what ``before``
        returned; work the hooks do is charged to the caller's self time,
        not to ``layer``.
        """
        clock = self.clock
        enter, exit_ = self.enter, self.exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            enter(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(clock() - start)
            if after is not None:
                after(result, args, token)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by
        ``make(original)`` until :meth:`restore`."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no attribute {attr!r} of its own")
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        before: Callable[[tuple[Any, ...]], Any] | None = None,
        after: Callable[[Any, tuple[Any, ...], Any], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` frame."""
        self.patch(owner, attr, lambda fn: self.timed(fn, layer, before, after))

    def wrap_span(self, owner: Any, attr: str, name: str, describe: Callable[..., dict]) -> None:
        """Keep every call of ``owner.attr`` as a whole operation span whose
        arguments are ``describe(*args)``."""

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name, **describe(*args)):
                    return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------- #
    # Reading                                                            #
    # ----------------------------------------------------------------- #

    def layer(self, layer: str, parent: str | None = None) -> tuple[int, float, float]:
        """(count, total s, self s) of ``layer``, summed over parents or for
        one ``parent``."""
        count, total, self_time = 0, 0.0, 0.0
        for (name, caller), (n, t, s) in self.aggregates.items():
            if name == layer and (parent is None or caller == parent):
                count += int(n)
                total += t
                self_time += s
        return count, total, self_time

    def as_dict(self) -> dict[str, Any]:
        return {
            "aggregates": [
                {"layer": layer, "parent": parent, "count": int(n), "total_s": t, "self_s": s}
                for (layer, parent), (n, t, s) in sorted(self.aggregates.items())
            ],
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
        }

    def write(self, json_path: Path, chrome_path: Path) -> None:
        """Dump everything as JSON and the spans as a Chrome trace."""
        json_path.write_text(json.dumps(self.as_dict(), indent=1, default=str) + "\n")
        chrome_path.write_text(json.dumps(chrome_events(self.spans)) + "\n")


def chrome_events(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Complete ("X") events in microseconds."""
    events = [
        {
            "name": span["name"],
            "ph": "X",
            "ts": span["start"] * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {k: str(v) for k, v in span.get("args", {}).items()},
        }
        for span in spans
        if "end" in span
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
