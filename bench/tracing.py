"""Spans around the public functions of every `wps` module, from outside.

`Tracer(wps)` wraps each public module-level function and each public
method; `enable()` rebinds every name under which a `wps` module imported
it (`wps.cli.eq_geometric` is bound apart from `wps.geometry.eq_geometric`)
and `disable()` restores the originals.  Spans live in flat arrays with a
parent id; self time is a span's duration minus the time its child spans
cover.  Nothing under src/ is changed.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("exactmath", "weights", "wpoly", "parser", "truncation", "geometry", "curves", "hilbert", "oracle", "cli")

# Dunder methods traced under a plain name.
DUNDERS = {"wpoly.WPolynomial.__mul__": "wpoly.WPolynomial.mul"}

# Accessors called once per coordinate or coefficient: a span each would
# cost more than the work it times, so their time stays in the caller.
# build_parser stays in cli.main's self time (argparse build).
SKIP = {
    "weights.check_weight", "wpoly.monomial_degree", "wpoly.monomial_key", "wpoly.monomial_string",
    "wpoly.variable_names", "wpoly.WPolynomial.nvars", "wpoly.WPolynomial.is_zero",
    "wpoly.WPolynomial.support", "exactmath.PrimeField.coerce", "exactmath.RationalField.coerce",
    "exactmath.UPolynomial.is_zero", "exactmath.UPolynomial.degree", "exactmath.UPolynomial.leading",
    "exactmath.UPolynomial.constant", "exactmath.FpElem.inverse", "geometry.WPoint.support",
    "weights.WellFormTrace.is_empty", "cli.build_parser",
}


def _enumerate_hook(tracer, sid, args, result):
    a, p = args[0], args[1]
    tracer.count[sid] = p ** len(a) - 1
    tracer.tally["oracle.enumerate.reps"] += len(result)


def _equal_hook(tracer, sid, args, result):
    tracer.tally["oracle.pairs.equal"] += bool(result)


def _len_hook(tracer, sid, args, result):
    tracer.count[sid] = len(result)


HOOKS = {
    "oracle.enumerate_wps_points": _enumerate_hook,
    "oracle.ClosureEquality.equal": _equal_hook,
    "truncation.graded_piece_basis": _len_hook,
    "truncation.veronese_generators": _len_hook,
}


class Tracer:
    def __init__(self, wps):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.count = array("d")
        self.tally: Counter = Counter()
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, attr, original, traced
        self._op_index = self._name_index("op")
        self._wrap_all(wps)

    # --- recording ---

    def _open(self, idx: int) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1])
        self.name.append(idx)
        self.count.append(0.0)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = perf_counter()
        self._stack.pop()

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def request(self, fn, *args):
        """Run one benchmark operation under a root span."""
        sid = self._open(self._op_index)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        idx = self._name_index(name)
        hook = HOOKS.get(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            sid = opened(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(sid)
            if hook is not None:
                hook(self, sid, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation ---

    def _wrap_all(self, wps) -> None:
        mods = {m: sys.modules[f"wps.{m}"] for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    if f"{short}.{attr}" not in SKIP:
                        wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    self._wrap_class(short, obj)
        for mod in [wps, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._bind(mod, attr, wrapped[id(obj)])
        fp = mods["exactmath"].FpElem
        init = fp.__init__
        tally = self.tally

        def counted_init(elem, *args, **kwargs):
            tally["exactmath.fpelem.created"] += 1
            init(elem, *args, **kwargs)

        self._bind(fp, "__init__", counted_init)

    def _wrap_class(self, short: str, cls) -> None:
        by_function: dict[int, object] = {}
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if id(obj) not in by_function:
                name = f"{short}.{cls.__name__}.{attr}"
                name = DUNDERS.get(name, name)
                if name.rsplit(".", 1)[1].startswith("_") or name in SKIP:
                    continue
                by_function[id(obj)] = self._wrap(name, obj)
            self._bind(cls, attr, by_function[id(obj)])

    def _bind(self, owner, attr: str, traced) -> None:
        self._bindings.append((owner, attr, vars(owner)[attr], traced))

    def enable(self) -> None:
        for owner, attr, _, traced in self._bindings:
            setattr(owner, attr, traced)

    def disable(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # --- results ---

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed count."""
        n = len(self.t0)
        child = [0.0] * n
        parent, t0, t1 = self.parent, self.t0, self.t1
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0})
            dur = t1[i] - t0[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            row["count"] += self.count[i]
        return out

    def child_count(self, parent_name: str, child_name: str) -> float:
        """Summed count of child_name spans opened directly under parent_name."""
        pidx = {i for i, n in enumerate(self.names) if n == parent_name}
        cidx = {i for i, n in enumerate(self.names) if n == child_name}
        return sum(
            self.count[i]
            for i in range(len(self.t0))
            if self.name[i] in cidx and self.parent[i] >= 0 and self.name[self.parent[i]] in pidx
        )

    def write(self, path: Path) -> None:
        """Gzipped, one span per line: id, parent id, name, start and end
        seconds, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tcount\n")
            for i in range(len(self.t0)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.t0[i]:.9f}\t{self.t1[i]:.9f}\t{self.count[i]:g}\n"
                )
