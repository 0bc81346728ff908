"""Self time of spans recorded by ``launcher.py``.

A span's self time is its duration minus the part of it its children
cover.  Spans of one process can overlap when they run on different
threads or in interleaved coroutines (the server), so time is
attributed by a sweep: at each instant the wall-clock time is shared
equally by the open spans that have no open child.  Single-threaded
nesting reduces to the usual definition, and the self times of one
process always add up to the time covered by at least one span, never
more, so ``sum(self) + untraced == wall`` holds exactly.
"""

from __future__ import annotations

from collections import defaultdict


class SpanSet:
    """The spans of one traced process, with their derived times."""

    def __init__(self, dump: dict):
        self.names: list[str] = dump["names"]
        #: sid -> (name index, start, end, parent sid or -1)
        self.spans = {sid: (index, start, end, parent)
                      for sid, index, start, end, parent in dump["spans"]}
        for sid, (_, start, end, _) in self.spans.items():
            if end < start:
                raise ValueError(f"span {sid} ends before it starts")
        self.self_s, self.calls, self.covered_s = self._sweep()

    def _sweep(self):
        events = []
        for sid, (_, start, end, parent) in self.spans.items():
            events.append((start, 1, sid))
            events.append((end, 0, sid))  # ends sort before starts
        events.sort()
        open_children: dict[int, int] = {}
        leaves: set[int] = set()
        self_by_sid: dict[int, float] = defaultdict(float)
        covered = 0.0
        previous = events[0][0] if events else 0.0
        for when, is_start, sid in events:
            if when > previous and leaves:
                share = (when - previous) / len(leaves)
                for leaf in leaves:
                    self_by_sid[leaf] += share
                covered += when - previous
            previous = when
            parent = self.spans[sid][3]
            parent_open = parent in open_children
            if is_start:
                open_children[sid] = 0
                leaves.add(sid)
                if parent_open:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                del open_children[sid]
                leaves.discard(sid)
                if parent_open:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, (index, _, _, _) in self.spans.items():
            name = self.names[index]
            self_s[name] += self_by_sid[sid]
            calls[name] += 1
        return dict(self_s), dict(calls), covered

    def bounds(self) -> tuple[float, float] | None:
        """(first start, last end), or None without spans."""
        if not self.spans:
            return None
        return (min(span[1] for span in self.spans.values()),
                max(span[2] for span in self.spans.values()))

    def ancestor_start(self, sid: int, name: str) -> float | None:
        """Start of the nearest enclosing span called ``name``."""
        parent = self.spans[sid][3]
        while parent in self.spans:
            index, start, _, grand = self.spans[parent]
            if self.names[index] == name:
                return start
            parent = grand
        return None

    def of(self, name: str):
        """sids of the spans called ``name``."""
        return [sid for sid, span in self.spans.items()
                if self.names[span[0]] == name]
