"""Counters and spans recorded around the library's public functions.

The benchmark wraps the library from the outside and never edits it.  A
wrapper replaces every module-level binding of the original function inside
the ``uhlmann`` package, so calls made within a module (which look the name
up in that module's globals at call time) are recorded as well as calls from
other modules.  ``numpy.linalg.svd/eigh/eigvalsh`` are wrapped the same way;
the library always reaches them through the ``np.linalg`` attribute.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from collections import Counter
from time import perf_counter_ns

import numpy as np

DECOMPOSITIONS = ("svd", "eigh", "eigvalsh")

# Called so often that a span would dominate what it measures: count only.
COUNT_ONLY = {"matcore.as_matrix", "matcore.dagger"}
# Not in matcore.__all__, but they are the cmjson parser and formatter.
EXTRA_MATCORE = ("cmjson_to_matrix", "matrix_to_cmjson", "matrix_json_text")


class Recorder:
    """Call counts always; spans only while ``spans_on`` is true.

    A span is ``(op, id, parent, name, start_ns, end_ns)``; ``op`` is the
    id shared by every span of one benchmark operation.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.spans: list = []
        self.spans_on = False
        self.op = -1
        self._stack: list = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        rec = self
        count_only = name in COUNT_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[name] += 1
            if count_only or not rec.spans_on:
                return fn(*args, **kwargs)
            sid = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                rec._stack.pop()
                rec.spans.append((rec.op, sid, parent, name, start, end))

        return wrapper

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _targets(lib):
    """(layer-qualified name, module, attribute) of every wrapped function."""
    out = [("cli.main", lib.cli, "main")]
    for layer, mod in (
        ("matcore", lib.matcore),
        ("states", lib.states),
        ("uhlmann", lib.core),
        ("certificate", lib.certificate),
        ("protocol", lib.protocol),
        ("grouprep", lib.grouprep),
    ):
        names = list(mod.__all__) + (list(EXTRA_MATCORE) if layer == "matcore" else [])
        for attr in names:
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", mod, attr))
    for attr in DECOMPOSITIONS:
        out.append((f"linalg.{attr}", np.linalg, attr))
    return out


class Instrumentation:
    """Installs a Recorder's wrappers into the library and removes them."""

    def __init__(self, lib, rec: Recorder) -> None:
        self.lib = lib
        self.rec = rec
        self._undo: list = []

    def __enter__(self) -> Recorder:
        modules = [m for n, m in sys.modules.items() if n == "uhlmann" or n.startswith("uhlmann.")]
        for name, mod, attr in _targets(self.lib):
            orig = getattr(mod, attr)
            wrapped = self.rec.wrap(name, orig)
            owners = [mod] + [m for m in modules if m is not mod]
            for owner in owners:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        self._undo.append((owner, key, orig))
                        setattr(owner, key, wrapped)
        # A classmethod is bound through the class, not through a module global.
        params = self.lib.protocol.ProtocolParams
        orig_cm = params.__dict__["for_instance"]
        self._undo.append((params, "for_instance", orig_cm))
        params.for_instance = classmethod(self.rec.wrap("protocol.for_instance", orig_cm.__func__))
        return self.rec

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def span_totals(spans: list, groups: dict) -> dict:
    """Totals in nanoseconds (times) or calls (counts) derived from spans.

    ``self:<layer>`` is the time in the layer's spans minus the part covered
    by their children; the layer is the name's prefix (``linalg`` is the
    numpy decompositions).  For each group, ``group:<key>`` is the time
    inside outermost calls of the group's names: a call made while another
    call of the same group is on the stack is not counted twice.
    ``calls:<name>`` counts calls, and ``overlaps_in_walks`` counts the
    ``states.overlap`` calls made inside ``uhlmann.near_optimal_unitary``.
    """
    by_id = {s[1]: s for s in spans}
    child_ns: Counter = Counter()
    for s in spans:
        if s[2] >= 0:
            child_ns[s[2]] += s[5] - s[4]
    out: Counter = Counter()
    for _op, sid, parent, name, start, end in spans:
        out["self:" + name.split(".", 1)[0]] += (end - start) - child_ns[sid]
        out["calls:" + name] += 1
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(by_id[p][3])
            p = by_id[p][2]
        for key, names in groups.items():
            if name in names and not ancestors & names:
                out["group:" + key] += end - start
        if name == "states.overlap" and "uhlmann.near_optimal_unitary" in ancestors:
            out["overlaps_in_walks"] += 1
    return out
