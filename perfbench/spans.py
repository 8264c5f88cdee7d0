"""In-memory span recorder that instruments macsort from the outside.

Each probe replaces one public function in the namespace of the module that
calls it (for example ``macsort.tracker.build_cost_matrix``), so the program
itself is unchanged. A span is ``[name, start_ns, end_ns, parent, seq,
attrs]``: ``parent`` is the index of the enclosing span (or -1) and ``seq``
the sequence being processed. Spans stay in memory until ``write_jsonl`` is
called at the end of a run. While ``enabled`` is false a probe only forwards
the call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Span sink plus the probes that feed it; ``remove()`` undoes them."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    @property
    def seq(self) -> str:
        return getattr(self._local, "seq", "")

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", -1)

    def adopt(self, parent: int, seq: str) -> None:
        """Make spans opened later on this thread children of ``parent``."""
        self._local.root = parent
        self._local.seq = seq

    def open(self, name: str) -> int:
        span = [name, time.perf_counter_ns(), 0, self.current(), self.seq, {}]
        with self._lock:  # the index must be the slot this append fills
            idx = len(self.spans)
            self.spans.append(span)
        self._stack().append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- probes ------------------------------------------------------------

    def probe(self, owner, attr: str, name: str, record=None, log=None) -> None:
        """Wrap ``owner.attr`` so that each call records a ``name`` span.

        ``record(attrs, args, result)`` may add counts to the span's attrs.
        ``log(args, result, seconds)``, if given, sees every call, traced or
        not. On a class the attribute is read from the class dict, so class
        methods stay class methods.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                if log is None:
                    return func(*args, **kwargs)
                start = time.perf_counter_ns()
                result = func(*args, **kwargs)
                log(args, result, (time.perf_counter_ns() - start) / 1e9)
                return result
            idx = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            span = tracer.spans[idx]
            if record is not None:
                record(span[5], args, result)
            if log is not None:
                log(args, result, (span[2] - span[1]) / 1e9)
            return result

        self.replace(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``remove()``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- reading the spans back --------------------------------------------
    # ``since`` restricts a query to spans opened at or after that index.

    def named(self, name: str, since: int = 0) -> list[list]:
        return [s for s in self.spans[since:] if s[0] == name]

    def calls(self, name: str, since: int = 0) -> int:
        return len(self.named(name, since))

    def total_s(self, name: str, since: int = 0) -> float:
        return sum(s[2] - s[1] for s in self.named(name, since)) / 1e9

    def attr_sum(self, name: str, key: str, since: int = 0) -> float:
        return sum(s[5].get(key, 0) for s in self.named(name, since))

    def self_s(self, name: str, since: int = 0) -> float:
        """Summed duration of ``name`` spans minus the time their children cover."""
        children = defaultdict(list)
        for s in self.spans[since:]:
            children[s[3]].append((s[1], s[2]))
        total = 0
        for idx in range(since, len(self.spans)):
            name_, start, end = self.spans[idx][:3]
            if name_ != name:
                continue
            covered, reach = 0, start
            for c_start, c_end in sorted(children[idx]):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total / 1e9

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, seq, attrs) in enumerate(self.spans):
                row = {"id": idx, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "seq": seq, **attrs}
                fh.write(json.dumps(row) + "\n")
