"""In-memory spans and counters around the program's layer entry points.

The tracer patches attributes as their callers look them up (for example
``pingpong3.certificate.verify_pingpong``, which the certificate module
imported by name), so nothing in the program changes.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span or None; counters only count calls, for hot kernels where a span per
call would cost more than the call.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def span(self, owner, attr, name):
        """Record a span named ``name`` around every call of owner.attr."""
        orig = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None])
            stack.append(sid)
            try:
                return orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = perf_counter()

        self._patch(owner, attr, orig, traced)

    def count(self, owner, attr, name):
        """Count the calls of owner.attr under ``name``."""
        orig = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, orig, counted)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def totals(self, first=0):
        """Per span name, from span index ``first`` on: (seconds, self
        seconds, calls).  Self seconds subtract the time covered by direct
        children."""
        spans = self.spans
        child_time = Counter()
        for name, start, end, parent in spans[first:]:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for sid in range(first, len(spans)):
            name, start, end, parent = spans[sid]
            seconds, self_seconds, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (
                seconds + (end - start),
                self_seconds + (end - start) - child_time[sid],
                calls + 1,
            )
        return out

    def write_jsonl(self, path, header, calls):
        """One line for ``header``, one per traced call (its per-layer
        numbers), one per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"record": "run", **header}) + "\n")
            for call in calls:
                f.write(json.dumps({"record": "call", **call}) + "\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                span = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                f.write(json.dumps({"record": "span", **span}) + "\n")
