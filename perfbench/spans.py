"""In-memory span tracer for the traced run.

``Tracer.install`` replaces the public functions of kcanon's ``graph``,
``solver`` and ``signatures`` modules, and the ``Fingerprint.to_json`` /
``digest`` methods, with wrappers that record a span per call: name, start,
end, parent span and op id.  A function bound under several module names
(``signatures.build_system`` is ``solver.build_system``) gets one wrapper and
one span name.  Spans stay in memory until ``write``.  Nothing in kcanon is
edited; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter, defaultdict

NAME, START, END, PARENT, OP = range(5)


def _solve_all_pairs(counts, args, result):
    n = args[0].graph.n
    cols = n * (n - 1) // 2
    counts["rhs_columns"] += cols
    counts["dense_bytes"] += 2 * n * cols * 8  # computed: float64 B and V, n x cols each


def _solve_pair(counts, args, result):
    counts["rhs_columns"] += 1
    counts["dense_bytes"] += 2 * args[0].graph.n * 8


def _signature_values(rows):
    def count(counts, args, result):
        g = args[0]
        counts["values_materialized"] += rows(g) * g.n * (g.n - 1)
    return count


# Work counted at the layer boundary from the call's own arguments.
COUNTERS = {
    "graph.parse_edge_list": lambda counts, args, result: counts.update(input_bytes=len(args[0])),
    "solver.solve_all_pairs": _solve_all_pairs,
    "solver.solve_pair": _solve_pair,
    "signatures.fingerprint": _signature_values(lambda g: g.n + g.m),
    "signatures.all_node_signatures": _signature_values(lambda g: g.n),
    "signatures.all_edge_signatures": _signature_values(lambda g: g.m),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.paused = False
        self._stack: list[int] = []
        self._op = None
        self._restore: list = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._root = self._open("op")

    def end_op(self) -> None:
        self._close(self._root)
        self._op = None

    def _wrap(self, name: str, fn):
        tracer, count = self, COUNTERS.get(name)

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        traced.__name__, traced.__doc__, traced.__wrapped__ = fn.__name__, fn.__doc__, fn
        return traced

    def install(self, modules, methods) -> None:
        """Wrap public module functions and the given (class, method name) pairs."""
        wrappers = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("kcanon."):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{fn.__module__[len('kcanon.'):]}.{fn.__name__}", fn)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
        for cls, attr in methods:
            fn = vars(cls)[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{cls.__module__[len('kcanon.'):]}.{cls.__name__}.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def totals(self) -> tuple[dict, dict]:
        """Per span name: inclusive seconds, and self seconds (duration minus
        the time its child spans cover)."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        inclusive, self_time = defaultdict(float), defaultdict(float)
        for sid, s in enumerate(self.spans):
            dur = s[END] - s[START]
            inclusive[s[NAME]] += dur
            self_time[s[NAME]] += dur - child[sid]
        return inclusive, self_time

    def outermost(self, names: set) -> float:
        """Seconds in spans of ``names`` whose parent is not in ``names``."""
        return sum(
            s[END] - s[START] for s in self.spans
            if s[NAME] in names and (s[PARENT] is None or self.spans[s[PARENT]][NAME] not in names)
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP]}) + "\n")
