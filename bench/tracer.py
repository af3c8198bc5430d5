"""Per-layer spans for an in-process run of the CLI, taken from outside.

``Tracer.install`` replaces each public function in ``WRAP_TARGETS`` at
the module attribute its caller looks up, so the package itself carries
no tracing code. Spans (name, start, end, parent, job) live in compact
arrays while the jobs run and are written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

# (module the caller looks the name up in, attribute, span name). A span
# name is "<layer>.<function>"; the layer is the module that defines the
# function, so one function wrapped at two call sites shares one name.
WRAP_TARGETS = (
    ("cli", "load_instance", "graph.load_instance"),
    ("cli", "run_single", "suite.run_single"),
    ("suite", "scale_and_prune", "graph.scale_and_prune"),
    ("suite", "run_mcm", "mcm.run_mcm"),
    ("suite", "run_mwm", "mwm.run_mwm"),
    ("suite", "run_mcbm", "mcbm.run_mcbm"),
    ("suite", "run_reduced_mwm", "weight_reduction.run_reduced_mwm"),
    ("suite", "stream_mwm", "streaming.stream_mwm"),
    ("suite", "stream_mcbm", "streaming.stream_mcbm"),
    ("suite", "exact_mcm", "oracles.exact_mcm"),
    ("suite", "exact_mwm", "oracles.exact_mwm"),
    ("suite", "exact_mcbm", "oracles.exact_mcbm"),
    ("mwm", "demand_set_mwm", "mwm.demand_set_mwm"),
    ("mwm", "bucket_ordered_maximal", "kernels.bucket_ordered_maximal"),
    ("mcm", "demand_set_mcm", "mcm.demand_set_mcm"),
    ("mcm", "greedy_maximal", "kernels.greedy_maximal"),
    ("mcm", "randomized_proposal_mm", "kernels.randomized_proposal_mm"),
    ("mcbm", "find_demand_set", "mcbm.find_demand_set"),
    ("mcbm", "nondup_maximal", "kernels.nondup_maximal"),
    ("weight_reduction", "build_partition", "weight_reduction.build_partition"),
    ("weight_reduction", "combine_levels", "weight_reduction.combine_levels"),
    ("weight_reduction", "scale_and_prune", "graph.scale_and_prune"),
    ("weight_reduction", "run_mwm", "mwm.run_mwm"),
    ("streaming", "stream_mwm", "streaming.stream_mwm"),
)
ROOT = "cli.main"
KERNELS = ("kernels.bucket_ordered_maximal", "kernels.greedy_maximal",
           "kernels.randomized_proposal_mm", "kernels.nondup_maximal")
# layer: (engine span, demand-set span, counter of the engine's rounds)
ENGINES = {
    "mwm": ("mwm.run_mwm", "mwm.demand_set_mwm", "mwm.phases"),
    "mcm": ("mcm.run_mcm", "mcm.demand_set_mcm", "mcm.rounds"),
    "mcbm": ("mcbm.run_mcbm", "mcbm.find_demand_set", "mcbm.rounds"),
}
STREAMS = ("streaming.stream_mwm", "streaming.stream_mcbm")

# The per-layer metrics a traced run reports, in output order.
METRICS = (
    ("graph.load_s", "s"), ("graph.edges_loaded", "count"),
    ("graph.scale_s", "s"), ("graph.edges_kept", "count"),
    ("mwm.run_s", "s"), ("mwm.self_s", "s"), ("mwm.demand_s", "s"),
    ("mwm.demand_calls", "count"), ("mwm.demanded_items", "count"),
    ("mwm.phases", "count"),
    ("mcm.run_s", "s"), ("mcm.self_s", "s"), ("mcm.demand_s", "s"),
    ("mcm.demand_calls", "count"), ("mcm.rounds", "count"),
    ("mcbm.run_s", "s"), ("mcbm.self_s", "s"), ("mcbm.demand_s", "s"),
    ("mcbm.demand_calls", "count"), ("mcbm.rounds", "count"),
    ("kernels.match_s", "s"), ("kernels.calls", "count"),
    ("kernels.pairs", "count"), ("kernels.proposal_rounds", "count"),
    ("kernels.evictions", "count"), ("kernels.commit_ratio", "ratio"),
    ("weight_reduction.run_s", "s"), ("weight_reduction.self_s", "s"),
    ("weight_reduction.partition_s", "s"), ("weight_reduction.combine_s", "s"),
    ("weight_reduction.level_solves", "count"),
    ("streaming.run_s", "s"), ("streaming.passes", "count"),
    ("streaming.edge_visits", "count"), ("streaming.ns_per_edge_visit", "ns"),
    ("streaming.peak_words", "words"),
    ("oracles.mcm_s", "s"), ("oracles.mwm_s", "s"), ("oracles.mcbm_s", "s"),
    ("suite.self_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Span recorder for one traced run; use ``install`` as a context."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter[str] = Counter()
        self.job_id = -1
        self._stack = [-1]
        self._claimed: dict[int, set[int]] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._main = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, observe=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        # Local names keep the per-call cost down: demand-set functions are
        # called hundreds of thousands of times in one traced pass.
        name_ids, parents, jobs = self.name_id, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(sid, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target; a missing target raises ``AttributeError``."""
        modules = {mod: importlib.import_module(f"auctionmatch.{mod}")
                   for mod, _, _ in WRAP_TARGETS}
        observers = self._observers()
        try:
            for mod, attr, name in WRAP_TARGETS:
                module = modules[mod]
                original = getattr(module, attr)
                if not callable(original):
                    raise TypeError(f"auctionmatch.{mod}.{attr} is not callable")
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, observers.get(name)))
        except BaseException:
            self.uninstall()
            raise
        self._main = self._wrap(modules["cli"].main, ROOT)
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def run_cli(self, job_id: int, argv: list[str]) -> int:
        """Call ``auctionmatch.cli.main`` inside a root span for one job."""
        self.job_id = job_id
        return self._main(argv)

    # -- counters taken from return values ---------------------------------

    def _observers(self):
        """Span name -> callback taking (span id, args, return value)."""
        observers = {
            "graph.load_instance": self._loaded,
            "graph.scale_and_prune": self._scaled,
            "mwm.demand_set_mwm": self._demanded,
        }
        observers.update({name: self._kernel for name in KERNELS})
        observers.update({name: self._stream for name in STREAMS})
        observers.update({engine: functools.partial(self._engine, counter)
                          for engine, _, counter in ENGINES.values()})
        return observers

    def _loaded(self, sid, args, inst):
        self.counts["graph.edges_loaded"] += inst.m

    def _scaled(self, sid, args, sg):
        self.counts["graph.edges_kept"] += len(sg.edges)

    def _demanded(self, sid, args, spec):
        self.counts["mwm.demanded_items"] += len(spec.items)

    def _kernel(self, sid, args, got):
        # A kernel is called straight from its engine, so the parent span
        # is the engine run; an item claimed earlier in it is an eviction.
        claimed = self._claimed.setdefault(self.parent[sid], set())
        for _, j in got.pairs:
            if j in claimed:
                self.counts["kernels.evictions"] += 1
            else:
                claimed.add(j)
        self.counts["kernels.pairs"] += len(got.pairs)
        self.counts["kernels.proposal_rounds"] += got.proposal_rounds

    def _engine(self, counter, sid, args, out):
        self._claimed.pop(sid, None)
        self.counts[counter] += out[1].rounds_executed

    def _stream(self, sid, args, out):
        trace = out[1]
        self.counts["streaming.passes"] += trace.passes
        self.counts["streaming.edge_visits"] += trace.passes * args[0].m
        self.counts["streaming.peak_words"] = max(
            self.counts["streaming.peak_words"], trace.peak_words)

    # -- results -----------------------------------------------------------

    def _columns(self):
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return parent, dur, dur - covered, names

    def check_nesting(self) -> None:
        """Raise when a kernel span runs inside another kernel span."""
        parent, _, _, names = self._columns()
        kernel_ids = [self._ids[k] for k in KERNELS if k in self._ids]
        is_kernel = np.isin(names, kernel_ids)
        nested = is_kernel & (parent >= 0)
        nested[nested] = is_kernel[parent[nested]]
        if nested.any():
            raise RuntimeError(f"{int(nested.sum())} kernel spans nest in kernel spans")

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Aggregate spans and counters into the per-layer metrics."""
        parent, dur, self_ns, names = self._columns()
        total = Counter()
        self_total = Counter()
        calls = Counter()
        for nid, name in enumerate(self.names):
            mask = names == nid
            total[name] = int(dur[mask].sum())
            self_total[name] = int(self_ns[mask].sum())
            calls[name] = int(mask.sum())
        reduction = self._ids.get("weight_reduction.run_reduced_mwm", -1)
        solver_ids = [self._ids[n] for n in ("mwm.run_mwm", "streaming.stream_mwm")
                      if n in self._ids]
        under = (parent >= 0) & np.isin(names, solver_ids)
        under[under] = names[parent[under]] == reduction

        s = 1e-9
        out = {
            "graph.load_s": total["graph.load_instance"] * s,
            "graph.scale_s": total["graph.scale_and_prune"] * s,
            "kernels.match_s": sum(total[k] for k in KERNELS) * s,
            "kernels.calls": sum(calls[k] for k in KERNELS),
            "weight_reduction.run_s": total["weight_reduction.run_reduced_mwm"] * s,
            "weight_reduction.self_s": self_total["weight_reduction.run_reduced_mwm"] * s,
            "weight_reduction.partition_s": total["weight_reduction.build_partition"] * s,
            "weight_reduction.combine_s": total["weight_reduction.combine_levels"] * s,
            "weight_reduction.level_solves": int(under.sum()),
            "streaming.run_s": sum(total[n] for n in STREAMS) * s,
            "oracles.mcm_s": total["oracles.exact_mcm"] * s,
            "oracles.mwm_s": total["oracles.exact_mwm"] * s,
            "oracles.mcbm_s": total["oracles.exact_mcbm"] * s,
            "suite.self_s": self_total["suite.run_single"] * s,
            "cli.self_s": self_total[ROOT] * s,
            "trace.overhead_frac": overhead_frac,
        }
        for layer, (engine, demand, _) in ENGINES.items():
            out[f"{layer}.run_s"] = total[engine] * s
            out[f"{layer}.self_s"] = self_total[engine] * s
            out[f"{layer}.demand_s"] = total[demand] * s
            out[f"{layer}.demand_calls"] = calls[demand]
        for name in ("graph.edges_loaded", "graph.edges_kept", "mwm.demanded_items",
                     "mwm.phases", "mcm.rounds", "mcbm.rounds", "kernels.pairs",
                     "kernels.proposal_rounds", "kernels.evictions",
                     "streaming.passes", "streaming.edge_visits",
                     "streaming.peak_words"):
            out[name] = self.counts[name]
        attempts = sum(calls[demand] for _, demand, _ in ENGINES.values())
        out["kernels.commit_ratio"] = out["kernels.pairs"] / attempts if attempts else 0.0
        visits = out["streaming.edge_visits"]
        out["streaming.ns_per_edge_visit"] = (
            sum(total[n] for n in STREAMS) / visits if visits else 0.0)
        return {name: out[name] for name, _ in METRICS}

    def write_spans(self, path) -> int:
        """Write one tab-separated line per span; returns the span count."""
        parent, _, _, names = self._columns()
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{parent[sid]}\t{self.job[sid]}\t"
                         f"{self.names[names[sid]]}\t{self.start[sid]}\t{self.end[sid]}\n")
        return len(self.start)
