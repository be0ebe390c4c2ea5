"""Span tracing of urm's layers, from outside the package.

`Tracer.install` wraps each traced public function and puts the wrapper in
every urm module namespace that holds the function, because the modules
import each other's functions by name (`evaluator` calls the `zr` it
imported, not `machine.zr`).  Nothing under `src/` changes.  A span is
(id, parent id, job id, name, start, end); spans stay in memory and are
summarised, or written out, when the caller asks.  Generator functions get
one span per resumption.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import time

# layer -> public functions traced; `_closure` is the memo behind `entails`.
TARGETS = {
    "textio": ("parse_program", "parse_cert", "parse_config"),
    "machine": ("is_standard_form", "rho", "zr", "sc", "mv", "restrict", "include"),
    "evaluator": ("run", "run_finite", "step", "trace", "decide_abstract"),
    "constraints": ("entails", "decide_eq", "_closure"),
    "certificates": ("sym_step", "check_divergence", "check_termination"),
    "cli": ("main",),
}
MODULES = ("urm", *(f"urm.{layer}" for layer in TARGETS))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # name -> [calls, calls returning None, steps reported, text lines parsed]
        self.stats: dict[str, list[int]] = {}
        self.job = [-1]
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"urm.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        spans, stack, ids, job, clock = self.spans, self._stack, self._ids, self.job, time.perf_counter
        parses = name.startswith("textio.")

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                stats[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid, parent = next(ids), (stack[-1] if stack else 0)
                    stack.append(sid)
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans.append((sid, parent, job[0], name, start, end))
                    stats[2] += 1
                    yield value

            return traced_gen

        def traced(*args, **kwargs):
            stats[0] += 1
            if parses:
                stats[3] += args[0].count("\n") + 1
            sid, parent = next(ids), (stack[-1] if stack else 0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, job[0], name, start, end))
            if result is None:
                stats[1] += 1
            steps = getattr(result, "steps", 0)
            if isinstance(steps, int):
                stats[2] += steps
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        for row in self.stats.values():
            row[:] = [0, 0, 0, 0]


def summarise(spans: list[tuple], stats: dict[str, list[int]]) -> dict[str, dict]:
    """Per name: calls, busy (inclusive) and self seconds, plus the counters."""
    child: dict[int, float] = {}
    for sid, parent, _, _, start, end in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    out = {name: {"calls": row[0], "none": row[1], "steps": row[2], "lines": row[3], "busy": 0.0, "self": 0.0}
           for name, row in stats.items()}
    for sid, _, _, name, start, end in spans:
        entry = out[name]
        entry["busy"] += end - start
        entry["self"] += end - start - child.get(sid, 0.0)
    return out


def per_job_busy(spans: list[tuple], name: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for _, _, job, span_name, start, end in spans:
        if span_name == name:
            out[job] = out.get(job, 0.0) + end - start
    return out


def pooled_slope(groups: dict[str, list[tuple[float, float]]]) -> float:
    """Log-log slope of y on x, pooled within groups (one intercept each).

    0.0 when no group has two distinct x values: the workload has no such
    scaling series.
    """
    sxy = sxx = 0.0
    for rows in groups.values():
        pts = [(math.log(x), math.log(y)) for x, y in rows if x > 0 and y > 0]
        if len({x for x, _ in pts}) < 2:
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx else 0.0
