"""Outside-in span recording: wrap public callables, fold self times.

A :class:`SpanRecorder` replaces named attributes (class methods or
module globals) with timing wrappers, keeps every span in memory as
``[id, name, start, end, parent, op, thread, attrs]`` and restores the
original attributes on :meth:`SpanRecorder.restore`. Nothing inside
the program under test changes: the wrappers sit where the program
*looks names up*, so a module that imported a function by name is
wrapped in that module's globals, not where the function is defined.

:func:`fold` turns the span list into per-name totals: outermost wall
time, self time (duration minus the union of the child spans'
intervals clipped to the parent), call counts and summed attributes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Span record field positions.
ID, NAME, START, END, PARENT, OP, THREAD, ATTRS = range(8)


class SpanRecorder:
    """In-memory span store plus attribute patching with exact restore."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- span stack ----------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][NAME] if stack else None

    def set_op(self, op: Optional[int]) -> None:
        """Tag spans opened on this thread with an op id."""
        self._local.op = op

    def open(self, name: str, attrs: Optional[dict] = None) -> list:
        stack = self._stack()
        parent = stack[-1][ID] if stack else None
        record = [next(self._ids), name, self.clock(), None, parent,
                  getattr(self._local, "op", None),
                  threading.get_ident(), attrs or {}]
        stack.append(record)
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = self.clock()
        stack = self._stack()
        # Pop through the record even if an inner span leaked open.
        while stack:
            if stack.pop() is record:
                break

    def detached(self, name: str, attrs: Optional[dict] = None) -> list:
        """A root span not pushed on any stack (ends elsewhere)."""
        record = [next(self._ids), name, self.clock(), None, None,
                  getattr(self._local, "op", None),
                  threading.get_ident(), attrs or {}]
        self.spans.append(record)
        return record

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        pass_through_under: Iterable[str] = (),
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or ``callable(args, kwargs) -> name``.
        ``before(args, kwargs) -> (args, kwargs, attrs)`` runs first
        (it may materialize an iterable argument it needs to count);
        ``after(args, kwargs, result, attrs)`` may add attributes.
        A call made while the innermost open span is named in
        ``pass_through_under`` runs unwrapped (no span, no hooks).
        The attribute must be defined on ``owner`` itself, so that
        :meth:`restore` puts back exactly what was there.
        """
        if attr not in vars(owner):
            raise AttributeError(
                f"{owner!r} does not define {attr!r} itself")
        original = vars(owner)[attr]
        skip = frozenset(pass_through_under)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if skip and recorder.top_name() in skip:
                return original(*args, **kwargs)
            attrs = {}
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            record = recorder.open(span_name, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(record)
            if after is not None:
                after(args, kwargs, result, record[ATTRS])
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- output --------------------------------------------------------
    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "thread",
                "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record)),
                                        default=str) + "\n")


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval first, so a child
    that outlives its parent (or overlaps a sibling) is never counted
    twice or outside the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        parent = record[PARENT]
        if parent is not None and record[END] is not None:
            children.setdefault(parent, []).append(
                (record[START], record[END]))
    result = {}
    for record in spans:
        if record[END] is None:
            continue
        start, end = record[START], record[END]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(record[ID], ())
            if min(e, end) > max(s, start)
        ]
        result[record[ID]] = (end - start) - union_length(clipped)
    return result


class Fold:
    """Per-name totals folded from a span list."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Summed durations of spans with no same-named ancestor.
        self.wall_s: Dict[str, float] = {}
        self.attrs: Dict[str, Dict[str, float]] = {}

    def get_attr(self, name: str, key: str) -> float:
        return self.attrs.get(name, {}).get(key, 0.0)


def fold(spans: Sequence[list]) -> Fold:
    """Fold spans into per-name calls, self time, wall and attributes."""
    by_id = {record[ID]: record for record in spans}
    selfs = self_times(spans)
    out = Fold()
    for record in spans:
        if record[END] is None:
            continue
        name = record[NAME]
        out.calls[name] = out.calls.get(name, 0) + 1
        out.self_s[name] = out.self_s.get(name, 0.0) + selfs[record[ID]]
        if not _has_ancestor_named(record, name, by_id):
            out.wall_s[name] = out.wall_s.get(name, 0.0) + (
                record[END] - record[START])
        bucket = out.attrs.setdefault(name, {})
        for key, value in record[ATTRS].items():
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                bucket[key] = bucket.get(key, 0.0) + value
    return out


def _has_ancestor_named(record, name, by_id) -> bool:
    parent = by_id.get(record[PARENT])
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = by_id.get(parent[PARENT])
    return False
