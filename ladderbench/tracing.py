"""Spans around the calls into each gridres layer, recorded from outside
the package.

A ``Tracer`` replaces a fixed list of module attributes with timing
wrappers while it is installed, and puts every original back when it is
removed. A function is wrapped wherever a gridres module binds it
(``from .lp import solve_simplex`` makes ``benders.solve_simplex`` its own
attribute), so calls from every layer are seen. Names that no longer exist
are recorded in ``Tracer.missing`` and the metrics that need them come out
as ``None``.

Spans are kept in memory. Each has an id, the id of the span that caused
it, and the id of the ladder it belongs to; ``write_spans`` puts them on
disk when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    ladder: int | None
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (defining module, attribute). The span is named "<module>.<attribute>".
WRAPPED = (
    ("pipeline", "run_case"),
    ("pipeline", "resolve_partition"),
    ("temporal", "cluster_timesteps"),
    ("benders", "solve_benders"),
    ("translate", "translate_solution"),
    ("expansion", "build_operations_lp"),
    ("metrics", "build_report"),
    ("metrics", "write_report"),
    ("lp", "solve_simplex"),
    ("lp", "linprog"),
    ("lp", "kkt_residuals"),
    ("expansion", "build_lp"),
    ("expansion", "extract_solution"),
    ("caseio", "write_case"),
    ("caseio", "load_system"),
    ("syngen", "generate"),
    ("spatial", "aggregate_spatial"),
)

# A call of one of these directly inside pipeline.run_case opens its stage;
# the stage lasts until the next one opens or run_case returns.
STAGE_MARKERS = {
    "pipeline.resolve_partition": "aggregate",
    "temporal.cluster_timesteps": "cluster",
    "benders.solve_benders": "expand",
    "translate.translate_solution": "translate",
    "expansion.build_operations_lp": "operate",
    "metrics.build_report": "metrics",
}
STAGES = tuple(STAGE_MARKERS.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = defaultdict(list)
        self._main = threading.main_thread().ident
        self._patches: list[tuple] = []
        self._ladder: int | None = None
        # Benders bookkeeping: LPs built by build_lp while solve_benders is
        # open are its subproblems; every other LP it solves is a master.
        self._benders_depth = 0
        self._sub_lps: dict[int, object] = {}

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks[tid]
            if stack:
                parent = stack[-1].id
            elif tid != self._main and self._stacks[self._main]:
                # a pool thread: the main thread is blocked in the call
                # that handed it this work
                parent = self._stacks[self._main][-1].id
            else:
                parent = None
            span = Span(next(self._ids), parent, self._ladder, name, time.perf_counter(), thread=tid)
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].remove(span)
            self.spans.append(span)

    @contextmanager
    def ladder(self, **attrs):
        """The root span of one ladder; spans opened inside carry its id."""
        span = self.open("ladder")
        span.ladder = self._ladder = span.id
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self.close(span)
            self._ladder = None

    # -- installing wrappers ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gridres" or n.startswith("gridres."))]
        for mod_name, attr in WRAPPED:
            name = f"{mod_name}.{attr}"
            try:
                home = importlib.import_module(f"gridres.{mod_name}")
                original = getattr(home, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            m, attr, original = self._patches.pop()
            setattr(m, attr, original)

    def _wrap(self, name: str, fn):
        before, after, finish = _HOOKS.get(name, (None, None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                _run_hook(before, span, self, span, args)
                result = fn(*args, **kwargs)
                _run_hook(after, span, self, span, result)
                return result
            except BaseException:
                span.attrs["failed"] = True
                raise
            finally:
                _run_hook(finish, span, self)
                self.close(span)

        return wrapper


# -- per-name hooks: before(tracer, span, args), after(tracer, span, result),
# finish(tracer) ------------------------------------------------------------


def _run_hook(hook, span: Span, *args) -> None:
    if hook is None:
        return
    try:
        hook(*args)
    except Exception as e:  # a changed argument or return type must not fail the ladder
        span.attrs["hook_error"] = repr(e)


def _enter_benders(tracer: Tracer, span: Span, args) -> None:
    with tracer._lock:
        tracer._benders_depth += 1


def _leave_benders(tracer: Tracer) -> None:
    with tracer._lock:
        tracer._benders_depth -= 1
        if tracer._benders_depth == 0:
            tracer._sub_lps.clear()


def _benders_done(tracer: Tracer, span: Span, result) -> None:
    span.attrs["iterations"] = result.iterations
    span.attrs["converged"] = result.converged


def _built_lp(tracer: Tracer, span: Span, result) -> None:
    lp = result[0]
    span.attrs["nnz"] = int(lp.a_matrix.nnz)
    if tracer._benders_depth:
        tracer._sub_lps[id(lp)] = lp  # the reference keeps the id unique


def _classify_solve(tracer: Tracer, span: Span, args) -> None:
    lp = args[0]
    if id(lp) in tracer._sub_lps:
        span.attrs["role"] = "sub"
    elif tracer._benders_depth:
        span.attrs["role"] = "master"
    else:
        span.attrs["role"] = "other"


def _solved(tracer: Tracer, span: Span, result) -> None:
    if not result.is_optimal:
        span.attrs["failed"] = True


_HOOKS = {
    "benders.solve_benders": (_enter_benders, _benders_done, _leave_benders),
    "expansion.build_lp": (None, _built_lp, None),
    "lp.solve_simplex": (_classify_solve, _solved, None),
}


# -- metrics -----------------------------------------------------------------

# metric -> (unit, wrapped names it needs)
LAYER_METRICS = {
    "pipeline.aggregate_s": ("s", ("pipeline.run_case", "pipeline.resolve_partition")),
    "pipeline.cluster_s": ("s", ("pipeline.run_case", "temporal.cluster_timesteps")),
    "pipeline.expand_s": ("s", ("pipeline.run_case", "benders.solve_benders")),
    "pipeline.translate_s": ("s", ("pipeline.run_case", "translate.translate_solution")),
    "pipeline.operate_s": ("s", ("pipeline.run_case", "expansion.build_operations_lp")),
    "pipeline.metrics_s": ("s", ("pipeline.run_case", "metrics.build_report")),
    "pipeline.other_s": ("s", ("pipeline.run_case",)),
    "pipeline.stage_sum_frac": ("ratio", ("pipeline.run_case", *STAGE_MARKERS)),
    "lp.solve_s": ("s", ("lp.solve_simplex",)),
    "lp.solve_calls": ("count", ("lp.solve_simplex",)),
    "lp.linprog_s": ("s", ("lp.linprog",)),
    "lp.kkt_s": ("s", ("lp.kkt_residuals",)),
    "lp.overhead_s": ("s", ("lp.solve_simplex", "lp.linprog", "lp.kkt_residuals")),
    "lp.failures": ("count", ("lp.solve_simplex",)),
    "benders.solve_s": ("s", ("benders.solve_benders",)),
    "benders.iterations": ("count", ("benders.solve_benders",)),
    "benders.master_s": ("s", ("benders.solve_benders", "lp.solve_simplex", "expansion.build_lp")),
    "benders.master_calls": ("count", ("benders.solve_benders", "lp.solve_simplex", "expansion.build_lp")),
    "benders.sub_s": ("s", ("benders.solve_benders", "lp.solve_simplex", "expansion.build_lp")),
    "benders.sub_wall_s": ("s", ("benders.solve_benders", "lp.solve_simplex", "expansion.build_lp")),
    "benders.other_s": ("s", ("benders.solve_benders", "lp.solve_simplex", "expansion.build_lp")),
    "expansion.build_lp_s": ("s", ("expansion.build_lp",)),
    "expansion.build_lp_calls": ("count", ("expansion.build_lp",)),
    "expansion.lp_nnz": ("count", ("expansion.build_lp",)),
    "expansion.extract_s": ("s", ("expansion.extract_solution",)),
    "caseio.write_case_s": ("s", ("caseio.write_case",)),
    "caseio.write_case_calls": ("count", ("caseio.write_case",)),
    "translate.translate_s": ("s", ("translate.translate_solution",)),
    "metrics.build_report_s": ("s", ("metrics.build_report",)),
    "spatial.aggregate_spatial_s": ("s", ("spatial.aggregate_spatial",)),
    "temporal.cluster_s": ("s", ("temporal.cluster_timesteps",)),
}


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def ladder_metrics(spans: list[Span], root: Span, missing=frozenset()) -> dict:
    """Per-layer numbers for one traced ladder, from its spans."""
    mine = [s for s in spans if s.ladder == root.ladder and s is not root]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in mine:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    stages = dict.fromkeys(STAGES, 0.0)
    other = 0.0
    for s in children[root.id]:
        if s.name != "pipeline.run_case":
            other += s.duration
            continue
        marks = sorted((c for c in children[s.id] if c.name in STAGE_MARKERS), key=lambda c: c.start)
        other += (marks[0].start if marks else s.end) - s.start
        for m, nxt in zip(marks, marks[1:] + [None]):
            stages[STAGE_MARKERS[m.name]] += (nxt.start if nxt else s.end) - m.start

    solves = by_name["lp.solve_simplex"]
    master = [s for s in solves if s.attrs.get("role") == "master"]
    subs = [s for s in solves if s.attrs.get("role") == "sub"]
    benders_s = total("benders.solve_benders")
    sub_wall = _union_length((s.start, s.end) for s in subs)
    out = {f"pipeline.{st}_s": v for st, v in stages.items()}
    out.update({
        "pipeline.other_s": other,
        "pipeline.stage_sum_frac": (sum(stages.values()) + other) / root.duration,
        "lp.solve_s": total("lp.solve_simplex"),
        "lp.solve_calls": len(solves),
        "lp.linprog_s": total("lp.linprog"),
        "lp.kkt_s": total("lp.kkt_residuals"),
        "lp.overhead_s": total("lp.solve_simplex") - total("lp.linprog") - total("lp.kkt_residuals"),
        "lp.failures": sum(1 for s in solves if s.attrs.get("failed")),
        "benders.solve_s": benders_s,
        "benders.iterations": sum(s.attrs.get("iterations", 0) for s in by_name["benders.solve_benders"]),
        "benders.master_s": sum(s.duration for s in master),
        "benders.master_calls": len(master),
        "benders.sub_s": sum(s.duration for s in subs),
        "benders.sub_wall_s": sub_wall,
        "benders.other_s": benders_s - sum(s.duration for s in master) - sub_wall,
        "expansion.build_lp_s": total("expansion.build_lp"),
        "expansion.build_lp_calls": len(by_name["expansion.build_lp"]),
        "expansion.lp_nnz": sum(s.attrs.get("nnz", 0) for s in by_name["expansion.build_lp"]),
        "expansion.extract_s": total("expansion.extract_solution"),
        "caseio.write_case_s": total("caseio.write_case"),
        "caseio.write_case_calls": len(by_name["caseio.write_case"]),
        "translate.translate_s": total("translate.translate_solution"),
        "metrics.build_report_s": total("metrics.build_report"),
        "spatial.aggregate_spatial_s": total("spatial.aggregate_spatial"),
        "temporal.cluster_s": total("temporal.cluster_timesteps"),
    })
    for metric, (_unit, needs) in LAYER_METRICS.items():
        if any(n in missing for n in needs):
            out[metric] = None
    return out


def span_total(spans: list[Span], root: Span, name: str) -> float:
    """Summed duration of the spans called ``name`` in ``root``'s ladder."""
    return sum(s.duration for s in spans if s.ladder == root.ladder and s.name == name)


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w") as fh:
        for s in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps({
                "id": s.id, "parent": s.parent, "ladder": s.ladder, "name": s.name,
                "start": s.start, "end": s.end, "thread": s.thread, "attrs": s.attrs,
            }) + "\n")
