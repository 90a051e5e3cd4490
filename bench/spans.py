"""In-memory span recorder for the traced benchmark run.

Spans are recorded at layer boundaries by rebinding module attributes of
the package (``sinkhornlab.engine.sinkhorn`` and so on) to thin wrappers;
no source file of the package changes. Each span holds a name, a start
and an end (``perf_counter_ns``), the index of the span that caused it and
the benchmark op it belongs to. Observers may attach a small dict of facts
read from a call's arguments and result (matrix size, steps taken, ...),
so counts are taken at the same boundary as the times.
"""

from __future__ import annotations

import csv
import functools
import gzip
from array import array
from time import perf_counter_ns


class Tracer:
    """Single-threaded span stack; spans stay in memory until written out."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self.op = -1

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, start: int | None = None) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(perf_counter_ns() if start is None else start)
        self.ends.append(-1)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self._stack.append(sid)
        return sid

    def end(self, sid: int, end: int | None = None) -> None:
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} ended while span {top} was open")
        self.ends[sid] = perf_counter_ns() if end is None else end

    def wrap(self, fn, name: str, observe=None):
        """Return fn wrapped in a span; observe(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if observe is not None:
                self.attrs[sid] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, observe=None) -> bool:
        """Rebind module.attr to a traced wrapper; False if it does not exist."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        setattr(module, attr, self.wrap(fn, name, observe))
        return True

    def write_csv_gz(self, path) -> None:
        """Write every span as one CSV row: id,name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "op"))
            for sid, name in enumerate(self.names):
                out.writerow(
                    (sid, name, self.starts[sid], self.ends[sid], self.parents[sid], self.ops[sid])
                )


def check_nesting(starts, ends, parents) -> None:
    """Raise ValueError unless every span is closed and lies inside its parent."""
    for sid, parent in enumerate(parents):
        if ends[sid] < starts[sid]:
            raise ValueError(f"span {sid} is not closed or ends before it starts")
        if parent >= 0 and not (starts[parent] <= starts[sid] and ends[sid] <= ends[parent]):
            raise ValueError(f"span {sid} exceeds its parent span {parent}")


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of its interval that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so a self time is never negative.
    """
    children: dict[int, list[int]] = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(sid)
    out = [ends[sid] - starts[sid] for sid in range(len(parents))]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0
        cur_start = cur_end = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[parent] -= covered
    return out
