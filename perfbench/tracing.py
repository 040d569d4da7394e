"""Spans and counters around calls into each layer, for the traced run.

The tracer replaces functions and methods of the loaded ``duploss`` modules
with wrappers; the library's own files are not touched.  A module-level
function is replaced in every ``duploss`` module that holds it, so calls
made through ``from .x import f`` bindings are seen too.  Spans are kept in
memory (the first ``SPAN_CAP`` of them) and written out when the run ends;
a layer's self time is its span minus the time its child spans cover.
Wrappers record only while ``active`` is set, which the runner does around
timed jobs, so set-up and checks stay out of the figures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

SPAN_CAP = 20_000

# span name -> (module, attribute path); self time and calls of each are reported.
SPANS = {
    "steps.apply": ("steps", "apply_step_to_list"),
    "steps.step_new": ("steps", "DupLossStep.__init__"),
    "steps.to_json": ("steps", "step_to_json"),
    "steps.successor_values": ("steps", "successor_values"),
    "scenarios.bucket": ("scenarios", "bucket_scenario"),
    "scenarios.replay": ("scenarios", "replay"),
    "scenarios.to_json": ("scenarios", "scenario_to_json"),
    "permutation.construct": ("permutation", "Permutation.__init__"),
    "permutation.inversions": ("permutation", "inversions"),
    "permutation.contains_pattern": ("permutation", "contains_pattern"),
    "permutation.delete": ("permutation", "delete"),
    "classes.search": ("classes", "_LayeredSearch._expand_layer"),
    "classes.enumerate": ("classes", "enumerate_class"),
    "bench.run_benchmark": ("bench", "run_benchmark"),
    "cli.main": ("cli", "main"),
}

# Queries that may be answered from the classes search memo.
QUERIES = (("classes", "enumerate_class"), ("classes", "is_member"), ("classes", "bfs_min_steps"))


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.active = False
        self.job = -1
        self.jobs = 0
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            self._replace(module, path, self._span(name, self._lookup(module, path)))
        self._replace("steps", "successor_values", self._after(
            self._lookup("steps", "successor_values"),
            lambda result: self.counts.update({"successor_tuples": len(result)})))
        self._replace("permutation", "contains_pattern", self._after(
            self._lookup("permutation", "contains_pattern"),
            lambda found: self.counts.update({"contains_found": bool(found)})))
        self._replace("scenarios", "bucket_phases", self._after(
            self._lookup("scenarios", "bucket_phases"),
            lambda phases: self.counts.update(
                {"convoy_steps": len(phases[0]), "radix_steps": len(phases[1])})))
        self._replace("bench", "run_benchmark", self._after(
            self._lookup("bench", "run_benchmark"),
            lambda rows: self.counts.update({"bench_rows": len(rows)})))
        for module, path in QUERIES:
            self._replace(module, path, self._query(self._lookup(module, path)))

    def _lookup(self, module: str, path: str):
        owner = getattr(self.lib, module)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    def _replace(self, module: str, path: str, wrapper) -> None:
        head, _, attr = path.rpartition(".")
        if head:  # a method: replace it on its class
            setattr(self._lookup(module, head), attr, wrapper)
            return
        original = wrapper.__wrapped__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "duploss" or mod_name.startswith("duploss."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], parent, tracer.job, name, start, end))

        return traced

    def _after(self, fn, record):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                record(result)
            return result

        return counted

    def _query(self, fn):
        tracer = self

        @functools.wraps(fn)
        def query(*args, **kwargs):
            expansions = tracer.calls["classes.search"]
            result = fn(*args, **kwargs)
            if tracer.active and tracer.calls["classes.search"] == expansions:
                tracer.counts["queries_from_cache"] += 1
            return result

        return query

    # -- jobs and results -------------------------------------------------

    def start_job(self, index: int) -> None:
        self.job = index
        self.active = True

    def end_job(self) -> None:
        self.active = False
        self.jobs += 1
        searches = list(self.lib.classes._searches.values())
        self.counts["states"] += sum(len(s.dist) for s in searches)
        self.counts["new_states"] += sum(len(s.dist) - 1 for s in searches)
        self.counts["depth"] += max((s.depth for s in searches), default=0)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as means per traced job: name -> (value, unit)."""
        jobs = max(self.jobs, 1)
        calls, counts = self.calls, self.counts

        def self_ms(name):
            return (self.self_ns[name] / 1e6 / jobs, "ms")

        def per_job(value):
            return (value / jobs, "count")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        return {
            "steps.apply.calls": per_job(calls["steps.apply"]),
            "steps.apply.self_ms": self_ms("steps.apply"),
            "steps.step_new.calls": per_job(calls["steps.step_new"]),
            "steps.step_new.self_ms": self_ms("steps.step_new"),
            "steps.to_json.self_ms": self_ms("steps.to_json"),
            "scenarios.bucket.self_ms": self_ms("scenarios.bucket"),
            "scenarios.replay.self_ms": self_ms("scenarios.replay"),
            "scenarios.to_json.self_ms": self_ms("scenarios.to_json"),
            "scenarios.convoy_steps": per_job(counts["convoy_steps"]),
            "scenarios.radix_steps": per_job(counts["radix_steps"]),
            "permutation.inversions.calls": per_job(calls["permutation.inversions"]),
            "permutation.inversions.self_ms": self_ms("permutation.inversions"),
            "bench.rows": per_job(counts["bench_rows"]),
            "bench.inversions_per_row": (
                calls["permutation.inversions"] / counts["bench_rows"] if counts["bench_rows"]
                else 0.0, "count"),
            "bench.run_benchmark.self_ms": self_ms("bench.run_benchmark"),
            "cli.main.self_ms": self_ms("cli.main"),
            "steps.successor_values.calls": per_job(calls["steps.successor_values"]),
            "steps.successor_values.self_ms": self_ms("steps.successor_values"),
            "classes.search.self_ms": self_ms("classes.search"),
            "classes.states": per_job(counts["states"]),
            "classes.depth": per_job(counts["depth"]),
            "classes.new_per_successor": ratio(counts["new_states"], counts["successor_tuples"]),
            "classes.enumerate.self_ms": self_ms("classes.enumerate"),
            "classes.queries_from_cache": per_job(counts["queries_from_cache"]),
            "permutation.construct.calls": per_job(calls["permutation.construct"]),
            "permutation.construct.self_ms": self_ms("permutation.construct"),
            "permutation.contains_pattern.calls": per_job(calls["permutation.contains_pattern"]),
            "permutation.contains_pattern.self_ms": self_ms("permutation.contains_pattern"),
            "permutation.contains_pattern.found_ratio": ratio(
                counts["contains_found"], calls["permutation.contains_pattern"]),
            "permutation.delete.self_ms": self_ms("permutation.delete"),
        }

    def write(self, path, header: dict) -> None:
        """Write the kept spans and the per-name totals as one JSON document."""
        doc = dict(header)
        doc["jobs"] = self.jobs
        doc["span_cap"] = SPAN_CAP
        doc["spans_recorded"] = self._next_id
        doc["span_fields"] = ["id", "parent", "job", "name", "start_ns", "end_ns"]
        doc["spans"] = self.spans
        doc["calls"] = dict(self.calls)
        doc["self_ms"] = {k: v / 1e6 for k, v in self.self_ns.items()}
        doc["counts"] = dict(self.counts)
        with open(path, "w") as f:
            json.dump(doc, f)
