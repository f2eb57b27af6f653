"""Spans and counters for the traced benchmark runs.

A span is recorded around each call of a public function named in SPANS.
The wrapper is bound in place of the function under every name that refers
to it in a loaded triality module (``trilie`` and ``trialitarian`` import
``null_space`` by name, for instance), and on the class for ``Echelon``
methods.  Nothing in ``src/`` changes.

Each span keeps a name, a start, an end and its parent span, in flat arrays
held in memory until the run ends.  Scalar arithmetic gets counters, not
spans: a span around millions of calls would measure the tracer.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

# <module>.<function> or <module>.<class>.<method>, as in the per-layer
# metric names.
SPANS = (
    "linalg.Echelon.insert",
    "linalg.Echelon.reduce",
    "linalg.null_space",
    "composition.okubo_sl3",
    "composition.is_hurwitz",
    "composition.is_symmetric_composition",
    "classify.models",
    "classify.build",
    "classify.similar_params",
    "classify.canonical_key",
    "classify.okubo_orientation",
    "cyclic.verify_cyclic_axioms",
    "trialitarian.end_algebra",
    "trialitarian.clifford_even",
    "trialitarian.kappa",
    "trialitarian.alpha",
    "trialitarian.lie_of_E",
    "trilie.tri_basis",
    "trilie.root_datum",
    "trilie.der_cyclic",
    "trilie.induce_tri_grading",
    "trilie.graded_module_check",
    "brauer.related_triple",
    "brauer.verify_brauer_relations",
    "brauer.division_params",
    "brauer.commutation_factor",
    "grading.verify_grading",
    "grading.universal_group",
    "fgab.smith_normal_form",
    "fgab.subgroup_elements",
    "albert.verify_jordan",
    "albert.verify_degree3",
)

MODULES = (
    "scalars", "linalg", "fgab", "grading", "composition", "cyclic", "trilie",
    "trialitarian", "classify", "brauer", "albert", "cli",
)

COUNTERS = (
    "scalars.mul.calls",
    "scalars.mul.rational",
    "scalars.add.calls",
    "scalars.inverse.calls",
    "linalg.Echelon.insert.useful",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = bytearray()  # 1 if no enclosing span has the same name
        self._open = []           # open spans per name id
        self._stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack, opened = self._stack, self._open
        names, parents, starts, ends, outer = self.name, self.parent, self.start, self.end, self.outer

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(opened[nid] == 0)
            opened[nid] += 1
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                opened[nid] -= 1

        return traced

    # ------------------------------------------------------------ install

    def install(self):
        """Bind the span wrappers and scalar counters into the loaded
        triality modules.  ``uninstall`` puts the originals back."""
        mods = {m: importlib.import_module(f"triality.{m}") for m in MODULES}
        everywhere = list(mods.values()) + [importlib.import_module("triality")]
        for spec in SPANS:
            parts = spec.split(".")
            owner = mods[parts[0]]
            if len(parts) == 3:
                owner = getattr(owner, parts[1])
            attr = parts[-1]
            original = owner.__dict__[attr]
            fn = original
            if spec == "linalg.Echelon.insert":
                fn = self._count_useful(original)
            wrapped = self.wrap(spec, fn)
            if len(parts) == 3:
                self._set(owner, attr, wrapped)
                continue
            for mod in everywhere:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapped)
        self._count_scalars(mods["scalars"].CycloScalar)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _count_useful(self, insert):
        counts = self.counts

        def counted_insert(ech, vec):
            grew = insert(ech, vec)
            if grew:
                counts["linalg.Echelon.insert.useful"] += 1
            return grew

        return counted_insert

    def _count_scalars(self, cls):
        counts = self.counts
        mul, add, sub, inverse = cls.__mul__, cls.__add__, cls.__sub__, cls.inverse

        def counted_mul(a, b):
            counts["scalars.mul.calls"] += 1
            # the rational fast path of CycloScalar.__mul__
            if isinstance(b, cls) and (not any(b.coeffs[1:]) or not any(a.coeffs[1:])):
                counts["scalars.mul.rational"] += 1
            return mul(a, b)

        def counted_add(a, b):
            counts["scalars.add.calls"] += 1
            return add(a, b)

        def counted_sub(a, b):
            counts["scalars.add.calls"] += 1
            return sub(a, b)

        def counted_inverse(a):
            counts["scalars.inverse.calls"] += 1
            return inverse(a)

        self._set(cls, "__mul__", counted_mul)
        self._set(cls, "__add__", counted_add)
        self._set(cls, "__sub__", counted_sub)
        self._set(cls, "inverse", counted_inverse)

    # ------------------------------------------------------------ results

    def write(self, prefix):
        """Write the spans as ``<prefix>.spans`` (int32 name ids, int32
        parents, float64 starts, float64 ends, one byte per span that is 1
        when no enclosing span has the same name) and the names and
        counters as ``<prefix>.json``."""
        with open(f"{prefix}.spans", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
            fh.write(self.outer)
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump({"span_count": len(self.start), "names": self.names, "counters": self.counts}, fh, indent=1)


class Trace:
    """Spans and counters read back from ``Tracer.write``."""

    def __init__(self, prefix):
        with open(f"{prefix}.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        n = meta["span_count"]
        self.names, self.counts = meta["names"], meta["counters"]
        self.name, self.parent, self.start, self.end = array("i"), array("i"), array("d"), array("d")
        with open(f"{prefix}.spans", "rb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.fromfile(fh, n)
            self.outer = fh.read(n)


def summarize(traces, clock) -> dict:
    """Per span name over all traces: calls, total_s (outermost spans of
    the name, so a nested call is not counted twice) and self_s (duration
    minus the time the span's children cover), in reference seconds of
    ``clock`` (see clock.py); and the counters, summed."""
    spans, counters = {}, dict.fromkeys(COUNTERS, 0)
    for tr in traces:
        n = len(tr.start)
        dur = [clock.reference_s(tr.start[i], tr.end[i]) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                child[p] += dur[i]
        for i in range(n):
            row = spans.setdefault(tr.names[tr.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if tr.outer[i]:
                row["total_s"] += dur[i]
        for k, v in tr.counts.items():
            counters[k] += v
    return {"spans": spans, "counters": counters}
