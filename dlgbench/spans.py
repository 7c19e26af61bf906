"""Span recording around the program's public functions, for traced runs.

A Rebinder replaces each traced function with a timing wrapper in every
dlg2k namespace that holds it, so calls made by the program itself (the
CLI calling factor_triple, dlg_truncated calling validate_root) are
recorded as child spans. Nothing under src/ changes, and an untraced run
never constructs a Rebinder.

Spans live in flat arrays while the run lasts and are written out once
it ends. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import gzip
import statistics
from array import array
from time import perf_counter

OP = "op"  # the benchmark's own root span around one operation

# (span name, owner attribute path, kind, key) for each traced function.
# kind says how the attribute is bound; key maps the call's arguments to
# the identity a cache would use, and its first element is the width.
TARGETS = (
    ("kbit_core.parse", ("kbit_core", "Residue", "parse"), "classmethod", None),
    ("kbit_core.hex", ("kbit_core", "Residue", "hex"), "method", None),
    ("root_theory.validate_root", ("root_theory", "validate_root"), "function",
     lambda h: (h.k, h.value)),
    ("dlg_engine.factor_triple", ("dlg_engine", "factor_triple"), "function", None),
    ("dlg_engine.decode_triple", ("dlg_engine", "decode_triple"), "function", None),
    ("dlg_engine.decode_pair", ("dlg_engine", "decode_pair"), "function", None),
    ("dlg_engine.log_multiply", ("dlg_engine", "log_multiply"), "function", None),
    ("dlg_engine.rebase", ("dlg_engine", "rebase"), "function",
     lambda pair, src, dst: (pair.k, src.h.value, dst.h.value)),
    ("dlg_engine.dlg_truncated", ("dlg_engine", "dlg_truncated"), "function", None),
    ("oracle.generate_vectors", ("oracle", "generate_vectors"), "generator", None),
    ("cli.main", ("cli", "main"), "function", None),
)
TRACED = tuple(t[0] for t in TARGETS)
VALIDATE_WIDTHS = (64, 256, 1024)

# Every metric a traced run reports, in order; BENCHMARK.json lists the same.
# .calls is per traced operation, so it counts work and not throughput.
PER_LAYER = tuple(
    [(f"{fn}.{stat}", unit, better)
     for fn in TRACED
     for stat, unit, better in (("calls", "1/op", "lower"), ("errors", "count", "lower"),
                                ("busy_s", "s", "lower"), ("p50_us", "us", "lower"))]
    + [(f"root_theory.validate_root.p50_us.k{k}", "us", "lower") for k in VALIDATE_WIDTHS]
    + [
        ("root_theory.validate_root.repeat_ratio", "ratio", "lower"),
        ("dlg_engine.rebase.repeat_pair_ratio", "ratio", "lower"),
        ("dlg_engine.muls_per_log", "count", "lower"),
        ("bench.op_busy_s", "s", "lower"),
        ("bench.layer_share", "ratio", "higher"),
        ("tracing_overhead_ratio", "ratio", "higher"),
    ]
)


class Tracer:
    """Spans of one run: name, parent, operation id, tag, start, end, error."""

    def __init__(self):
        self.names = [OP, *TRACED]
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.tag = array("l")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.op_id = -1
        self._stack = [-1]
        self.seen = {name: set() for name in self.names}
        self.repeats = {name: [0, 0] for name in self.names}  # [keyed calls, repeats]

    def open(self, nid: int, tag: int = 0) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.tag.append(tag)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def note_key(self, name: str, key) -> None:
        counts = self.repeats[name]
        counts[0] += 1
        seen = self.seen[name]
        if key in seen:
            counts[1] += 1
        else:
            seen.add(key)

    def summary(self) -> dict:
        """Per span name: calls, errors, self seconds and durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "errors": 0, "busy_s": 0.0, "durations": [], "by_tag": {}}
               for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["errors"] += self.error[i]
            agg["busy_s"] += dur[i] - child[i]
            agg["durations"].append(dur[i])
            agg["by_tag"].setdefault(self.tag[i], []).append(dur[i])
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped TSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as f:
            f.write("span\tparent\top\tname\ttag\tstart_s\tend_s\terror\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                        f"{self.tag[i]}\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                        f"{self.error[i]}\n")


def _wrap_call(tracer: Tracer, name: str, fn, key):
    nid = tracer.names.index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tag = 0
        if key is not None:
            k = key(*args, **kwargs)
            tracer.note_key(name, k)
            tag = k[0]
        i = tracer.open(nid, tag)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            tracer.error[i] = 1
            raise
        finally:
            tracer.close(i)

    return traced


class _TracedIterator:
    """One span per record pulled from a traced generator."""

    __slots__ = ("_tracer", "_nid", "_it")

    def __init__(self, tracer: Tracer, nid: int, it):
        self._tracer, self._nid, self._it = tracer, nid, it

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.open(self._nid)
        try:
            return next(self._it)
        except StopIteration:
            raise
        except BaseException:
            self._tracer.error[i] = 1
            raise
        finally:
            self._tracer.close(i)


def _wrap_generator(tracer: Tracer, name: str, fn):
    nid = tracer.names.index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _TracedIterator(tracer, nid, fn(*args, **kwargs))

    return traced


class Rebinder:
    """Swaps the traced functions for their wrappers and back.

    Wrappers are built once, so a generator that captured one while
    installed keeps recording into the same tracer.
    """

    def __init__(self, tracer: Tracer, modules: dict):
        namespaces = [modules[m] for m in ("cli", "dlg_engine", "oracle", "root_theory", "kbit_core")]
        self._swaps = []  # (owner, attribute, original, wrapper)
        for name, path, kind, key in TARGETS:
            if kind in ("classmethod", "method"):
                cls = getattr(modules[path[0]], path[1])
                original = cls.__dict__[path[2]]
                if kind == "classmethod":
                    wrapper = classmethod(_wrap_call(tracer, name, original.__func__, key))
                else:
                    wrapper = _wrap_call(tracer, name, original, key)
                self._swaps.append((cls, path[2], original, wrapper))
                continue
            original = getattr(modules[path[0]], path[1])
            if kind == "generator":
                wrapper = _wrap_generator(tracer, name, original)
            else:
                wrapper = _wrap_call(tracer, name, original, key)
            for ns in namespaces:
                for attr, value in vars(ns).items():
                    if value is original:
                        self._swaps.append((ns, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """The span-derived part of PER_LAYER, keyed by metric name."""
    summary = tracer.summary()
    ops = summary[OP]["calls"]
    out = {}
    for fn in TRACED:
        agg = summary[fn]
        out[f"{fn}.calls"] = _ratio(agg["calls"], ops)
        out[f"{fn}.errors"] = agg["errors"]
        out[f"{fn}.busy_s"] = agg["busy_s"]
        out[f"{fn}.p50_us"] = _median_us(agg["durations"])
    by_width = summary["root_theory.validate_root"]["by_tag"]
    for k in VALIDATE_WIDTHS:
        out[f"root_theory.validate_root.p50_us.k{k}"] = _median_us(by_width.get(k, []))
    calls, repeats = tracer.repeats["root_theory.validate_root"]
    out["root_theory.validate_root.repeat_ratio"] = _ratio(repeats, calls)
    calls, repeats = tracer.repeats["dlg_engine.rebase"]
    out["dlg_engine.rebase.repeat_pair_ratio"] = _ratio(repeats, calls)
    op = summary[OP]
    op_total = sum(op["durations"])
    out["bench.op_busy_s"] = op["busy_s"]
    out["bench.layer_share"] = 1.0 - _ratio(op["busy_s"], op_total)
    return out


def _median_us(durations: list) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
