"""Spans recorded from outside the program, around calls into its layers.

The operation's own layer calls (flatten, prover, proofcore.parse, pipeline)
get spans from workloads.explain. Deeper layers are wrapped in place only
while a traced operation runs: Engine.add_constraint (engine.compile),
Engine.solve (engine.search), Oracle.solve (oracle) and the pipeline's
extract_mus_indices (mus). Calls made outside a traced operation, such as
instance generation or checking, are not recorded.

A span is [name, start, end, parent, op, count, busy, tag]. Compile calls are
many and short, so each parent span gets one aggregate engine.compile span:
count is the number of calls and busy their summed duration. For every other
span count is 1 and busy is end - start. tag holds the conflict count of an
engine.search span and the outcome of an oracle span.

One thread runs everything, so the children of a span never overlap and a
span's self time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from proofseq import pipeline as _pipeline
from proofseq.engine import Engine
from proofseq.oracle import Oracle

NAME, START, END, PARENT, OP, COUNT, BUSY, TAG = range(8)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._compile_of: dict[int, int] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op, 1, 0.0, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, tag=None):
        rec = self.spans[idx]
        rec[END] = self.clock()
        rec[BUSY] = rec[END] - rec[START]
        rec[TAG] = tag
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add_compile(self, t0: float, t1: float):
        parent = self.stack[-1]
        idx = self._compile_of.get(parent)
        if idx is None:
            idx = self._compile_of[parent] = len(self.spans)
            self.spans.append(["engine.compile", t0, t1, parent, self.op, 0, 0.0, None])
        rec = self.spans[idx]
        rec[END] = t1
        rec[COUNT] += 1
        rec[BUSY] += t1 - t0

    def write(self, path):
        base = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps([i, s[NAME], round(s[START] - base, 7), round(s[END] - base, 7),
                                    s[PARENT], s[OP], s[COUNT], round(s[BUSY], 7), s[TAG]]))
                f.write("\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap the deeper layers for the duration of the block, which must run
    inside an open span."""
    clock = tracer.clock
    orig_add, orig_solve = Engine.add_constraint, Engine.solve
    orig_oracle, orig_mus = Oracle.solve, _pipeline.extract_mus_indices

    def add_constraint(eng, cid, c):
        t0 = clock()
        try:
            return orig_add(eng, cid, c)
        finally:
            tracer.add_compile(t0, clock())

    def engine_solve(eng):
        idx, conflicts = tracer.begin("engine.search"), None
        try:
            res = orig_solve(eng)
            conflicts = res.conflicts
            return res
        finally:
            tracer.end(idx, conflicts)

    def oracle_solve(oracle, *args, **kwargs):
        idx, outcome = tracer.begin("oracle"), None
        try:
            res = orig_oracle(oracle, *args, **kwargs)
            outcome = type(res).__name__
            return res
        finally:
            tracer.end(idx, outcome)

    def extract_mus_indices(*args, **kwargs):
        idx = tracer.begin("mus")
        try:
            return orig_mus(*args, **kwargs)
        finally:
            tracer.end(idx)

    Engine.add_constraint, Engine.solve = add_constraint, engine_solve
    Oracle.solve, _pipeline.extract_mus_indices = oracle_solve, extract_mus_indices
    try:
        yield tracer
    finally:
        Engine.add_constraint, Engine.solve = orig_add, orig_solve
        Oracle.solve, _pipeline.extract_mus_indices = orig_oracle, orig_mus


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    child_busy = [0.0] * len(spans)
    mus_oracle_calls = 0
    for s in spans:
        if s[PARENT] >= 0:
            child_busy[s[PARENT]] += s[BUSY]
            if s[NAME] == "oracle" and spans[s[PARENT]][NAME] == "mus":
                mus_oracle_calls += 1

    def total(name, field=BUSY):
        return sum(s[field] for s in spans if s[NAME] == name)

    def self_s(name):
        return sum(s[BUSY] - child_busy[i] for i, s in enumerate(spans) if s[NAME] == name)

    def count(name, tag=None):
        return sum(1 for s in spans if s[NAME] == name and (tag is None or s[TAG] == tag))

    def ms_per_conflict(lo, hi):
        calls = [s for s in spans if s[NAME] == "engine.search" and s[TAG] is not None
                 and lo <= s[TAG] < hi]
        conflicts = sum(s[TAG] for s in calls)
        return 1000.0 * sum(s[BUSY] for s in calls) / conflicts if conflicts else 0.0

    ops = [i for i, s in enumerate(spans) if s[NAME] == "op"]
    op_busy = sum(spans[i][BUSY] for i in ops)
    queries = count("mus")
    return {
        "engine.compile_ms": (1000.0 * total("engine.compile"), "ms"),
        "engine.constraints_compiled": (total("engine.compile", COUNT), "count"),
        "engine.search_ms": (1000.0 * total("engine.search"), "ms"),
        "engine.conflicts": (sum(s[TAG] or 0 for s in spans if s[NAME] == "engine.search"),
                             "count"),
        "engine.ms_per_conflict.lt100": (ms_per_conflict(1, 100), "ms/conflict"),
        "engine.ms_per_conflict.ge100": (ms_per_conflict(100, float("inf")), "ms/conflict"),
        "oracle.calls.sat": (count("oracle", "Sat"), "count"),
        "oracle.calls.unsat": (count("oracle", "Unsat"), "count"),
        "oracle.calls.budget": (count("oracle", "BudgetExceeded"), "count"),
        "oracle.ms.sat": (1000.0 * sum(s[BUSY] for s in spans
                                       if s[NAME] == "oracle" and s[TAG] == "Sat"), "ms"),
        "oracle.ms.unsat": (1000.0 * sum(s[BUSY] for s in spans
                                         if s[NAME] == "oracle" and s[TAG] == "Unsat"), "ms"),
        "oracle.self_ms": (1000.0 * self_s("oracle"), "ms"),
        "mus.queries": (queries, "count"),
        "mus.ms": (1000.0 * total("mus"), "ms"),
        "mus.self_ms": (1000.0 * self_s("mus"), "ms"),
        "mus.calls_per_query": (mus_oracle_calls / queries if queries else 0.0, "calls"),
        "prover.ms": (1000.0 * total("prover"), "ms"),
        "proofcore.parse_ms": (1000.0 * total("proofcore.parse"), "ms"),
        "trace.coverage": (sum(child_busy[i] for i in ops) / op_busy if op_busy else 0.0,
                           "ratio"),
    }
