"""Spans and counters recorded around the package's layer boundaries.

``install`` swaps timing wrappers into the loaded ``structrand`` modules at run
time, without editing them.  A function imported with ``from ... import`` has
one binding per importing module, so every ``structrand.*`` namespace that
holds the original object gets the wrapper; methods are swapped on their class.
``uninstall`` puts the originals back.

Spans are ``(name, start, end, parent, op)`` rows kept in memory; self time
of a span is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.counts = Counter()
        self.op = None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of its children's
    intervals, clipped to its own."""
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans) -> dict:
    totals = defaultdict(float)
    for (name, *_), value in zip(spans, self_times(spans)):
        totals[name] += value
    return dict(totals)


def wrap(tracer: Tracer, fn, span: str, after=None, calls=()):
    """``fn`` inside a span; each counter in ``calls`` counts the call, and
    ``after(result, args)`` updates counters on return."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        for name in calls:
            tracer.count(name)
        index = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.count(f"{span}.raised.{type(exc).__name__}")
            raise
        finally:
            tracer.close(index)
        if after is not None:
            after(result, args)
        return result

    return traced


def targets(t: Tracer) -> list:
    """(module, attribute, span name, after hook, call counters) per boundary;
    an attribute "Class.method" is swapped on the class."""
    c = t.count

    def io_load(_, args):
        c("io.bytes_read", os.path.getsize(args[0]))

    def arith(report, _):
        c("arithreg.calls")
        c("arithreg.codim", report.codimension)
        c("arithreg.cosets", len(report.entries))

    def pair(verdict, _):
        c("graphs.irregular", verdict.status == "irregular")
        # szemeredi_regularize relabels these as "regular" before reporting
        c("graphs.unrefuted", verdict.status == "unrefuted")

    def recovered(result, _):
        c("inverse.recovered", result is not None)

    def cut_scan(_, args):
        c("graphs.cut_scan.exact", bool(args[0].exact))

    scan = ("hilbert.candidates.calls",)
    return [
        ("structrand.io", "load_vector_json", "io.load", io_load, ("io.load.calls",)),
        ("structrand.io", "load_edge_list", "io.load", io_load, ("io.load.calls",)),
        ("structrand.io", "load_subset", "io.load", io_load, ("io.load.calls",)),
        ("structrand.io", "load_adjacency_binary", "io.load", io_load, ("io.load.calls",)),
        ("structrand.cube", "walsh_hadamard", "cube.wht",
         lambda _, a: c("cube.wht.points", int(np.size(a[0]))), ("cube.wht.calls",)),
        ("structrand.cube", "CharacterAtomSet.candidates", "cube.char_scan", None,
         ("cube.char_scan.calls",) + scan),
        ("structrand.cube", "CharacterAtomSet.scan", "cube.char_scan", None,
         ("cube.char_scan.calls",)),
        ("structrand.cube", "ReedMullerAtomSet.__init__", "cube.rm",
         lambda _, a: c("cube.rm.cells", a[0].matrix.size), ()),
        ("structrand.cube", "ReedMullerAtomSet.candidates", "cube.rm", None, scan),
        ("structrand.cube", "ReedMullerAtomSet.scan", "cube.rm", None, ()),
        ("structrand.gowers", "gowers_norm", "gowers.norm", None, ("gowers.norm.calls",)),
        ("structrand.gowers", "gowers_norm_u2_fft", "gowers.u2_fft", None, ()),
        ("structrand.inverse", "inverse_99", "inverse.inv99", recovered,
         ("inverse.inv99.calls", "inverse.calls")),
        ("structrand.inverse", "inverse_100", "inverse.inv100", recovered, ("inverse.calls",)),
        ("structrand.hilbert", "strong_decompose", "hilbert.strong",
         lambda d, _: c("hilbert.stages", len(d.stages or [])), ()),
        ("structrand.hilbert", "orthogonal_weak_decompose", "hilbert.orth",
         lambda d, _: c("hilbert.atoms", len(d.atoms)), ("hilbert.orth.calls",)),
        ("structrand.hilbert", "weak_decompose", "hilbert.weak",
         lambda d, _: c("hilbert.atoms", len(d.atoms)), ()),
        ("structrand.hilbert", "Decomposition.verify", "hilbert.verify", None, ()),
        ("structrand.graphs", "CutAtomSet.candidates", "graphs.cut_scan", cut_scan,
         ("graphs.cut_scan.calls",) + scan),
        ("structrand.graphs", "CutAtomSet.scan", "graphs.cut_scan", cut_scan,
         ("graphs.cut_scan.calls",)),
        ("structrand.graphs", "regular_pair_check", "graphs.pair_check", pair,
         ("graphs.pair_check.calls",)),
        ("structrand.graphs", "szemeredi_regularize", "graphs.partition", None, ()),
        ("structrand.factors", "conditional_expectation", "factors.cond_exp",
         lambda _, a: c("factors.cond_exp.points", int(np.size(a[1]))), ("factors.cond_exp.calls",)),
        ("structrand.factors", "Factor.__init__", "factors.factor", None, ()),
        ("structrand.factors", "sparse_decompose", "factors.sparse", None, ()),
        ("structrand.factors", "strong_factor_decompose", "factors.strong",
         lambda d, _: c("factors.joins", sum(s["joins"] for s in d.stages)), ()),
        ("structrand.factors", "FactorDecomposition.verify", "factors.verify", None, ()),
        ("structrand.arithreg", "arithmetic_regularize", "arithreg", arith, ()),
    ]


def install(tracer: Tracer) -> list:
    """Swap wrappers in; returns what ``uninstall`` needs to undo it."""
    undo = []
    for module_name, attr, span, after, calls in targets(tracer):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, wrap(tracer, orig, span, after, calls))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(module, attr)
        wrapped = wrap(tracer, orig, span, after, calls)
        for name, mod in list(sys.modules.items()):
            if name != "structrand" and not name.startswith("structrand."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)
