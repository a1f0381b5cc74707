"""Function-boundary spans around devex, recorded from outside the library.

`Tracer.install()` replaces every public function of the six devex modules
in every namespace that binds it (the package itself included, so
`devex.compare_report` and `devex.exponents.log_mgf` are both caught), and
wraps `numpy.random.Philox` to count the simulator's RNG streams. Spans live
in memory as [name, parent, op, start, end, ok, cpu] records and are written
out once, at the end. Self time is a span's duration minus its direct
children's; every wrapped call runs in the thread that made it, so children
never overlap their parent's other children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time

MODULES = ("cli", "probdist", "concentration", "exponents", "fisher", "montecarlo")
# process CPU time is read only where it is reported, to keep overhead low
CPU_TIMED = frozenset({"montecarlo.simulate_test"})


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.rng_streams = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def install(self):
        if not self._patches:
            self._patches = self._build_patches()
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def _build_patches(self):
        import numpy.random

        package = importlib.import_module("devex")
        modules = [importlib.import_module(f"devex.{m}") for m in MODULES]
        namespaces = [package] + modules
        patches = []
        for short, mod in zip(MODULES, modules):
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{name}", obj)
                patches.extend((ns, name, obj, wrapper) for ns in namespaces
                               if vars(ns).get(name) is obj)
        philox = numpy.random.Philox

        def counted_philox(*args, **kwargs):
            with self._lock:
                self.rng_streams += 1
            return philox(*args, **kwargs)

        patches.append((numpy.random, "Philox", philox, counted_philox))
        return patches

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        tracer = self
        cpu = name in CPU_TIMED
        perf = time.perf_counter
        proc = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            rec = [name, stack[-1] if stack else None, tracer.op, 0.0, 0.0, True, 0.0]
            spans.append(rec)
            stack.append(rec)
            c0 = proc() if cpu else 0.0
            rec[3] = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = False
                raise
            finally:
                rec[4] = perf()
                if cpu:
                    rec[6] = proc() - c0
                stack.pop()

        return wrapper

    def records(self):
        """Spans as (op, name, start, end, parent index or -1, ok, cpu)."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [(op, name, start, end, -1 if parent is None else index[id(parent)], ok, cpu)
                for name, parent, op, start, end, ok, cpu in self.spans]

    def write(self, path):
        write(path, self.records(), self.rng_streams)


def write(path, spans, rng_streams):
    """Write spans given as (op, name, start, end, parent, ok, cpu) tuples."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#rng_streams\t{rng_streams}\n")
        for op, name, start, end, parent, ok, cpu in spans:
            fh.write(f"{op}\t{name}\t{start!r}\t{end!r}\t{parent}\t{int(ok)}\t{cpu!r}\n")


def read(path):
    """(spans, rng_streams); spans as tuples (op, name, start, end, parent,
    ok, cpu), parents indexing into the same list."""
    out = []
    with open(path, encoding="utf-8") as fh:
        rng_streams = int(fh.readline().split("\t")[1])
        for line in fh:
            op, name, start, end, parent, ok, cpu = line.rstrip("\n").split("\t")
            out.append((int(op), name, float(start), float(end), int(parent),
                        ok == "1", float(cpu)))
    return out, rng_streams


def summarize(spans):
    """Per-name calls and self time, plus per-parent descendant counts.

    Returns {"calls": {name: n}, "self_s": {name: s}, "total_s": {name: s},
    "descendants": {(ancestor, name): [count per ok ancestor span]}}.
    """
    calls, self_s, total_s = {}, {}, {}
    child_time = [0.0] * len(spans)
    for op, name, start, end, parent, ok, cpu in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (op, name, start, end, parent, ok, cpu) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
    watched = {"exponents.compare_report": "exponents.check_admissible",
               "exponents.chernoff_information": "probdist.log_mgf"}
    counts = {i: 0 for i, s in enumerate(spans) if s[1] in watched and s[5]}
    for op, name, start, end, parent, ok, cpu in spans:
        while parent >= 0:
            if parent in counts and watched[spans[parent][1]] == name:
                counts[parent] += 1
            parent = spans[parent][4]
    descendants = {}
    for i, n in counts.items():
        key = (spans[i][1], watched[spans[i][1]])
        descendants.setdefault(key, []).append(n)
    return {"calls": calls, "self_s": self_s, "total_s": total_s,
            "descendants": descendants}


def mean_or_zero(values):
    return statistics.fmean(values) if values else 0.0
