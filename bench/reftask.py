"""A fixed task whose time is the benchmark's unit of machine speed.

On a shared machine the jobs' wall time drifts by a quarter or more over
minutes as other tenants load the shared cache and memory, and that
drift moves whole runs. This task does the same kind of work as the
jobs, interpreted Python over tens of megabytes, in two parts: it follows
one cycle of a seeded random permutation of 2^21 Python ints (about
75 MB, so nearly every step misses the cache), and it builds a seeded
random bipartite graph, writes it as text, parses it back into dicts and
searches it breadth-first. ``run.py`` times it in its own process after
every job, for a fixed share of the job's time, and reports the jobs'
wall time in units of the task's mean time; a run on a slowed machine
then reads slow on both sides. The task uses nothing from the package,
so no change to the package moves its time.
"""

from __future__ import annotations

import gc
import random
import time

SIZE = 1 << 21
STEPS = 40_000
NODES = 1500
DEGREE = 8
SEED = 20230718


class RefTask:
    def __init__(self):
        import numpy as np

        order = np.random.default_rng(SEED).permutation(SIZE)
        successor = np.empty(SIZE, dtype=np.int64)
        successor[order] = np.roll(order, -1)
        self.successor = successor.tolist()

    def _chase(self) -> int:
        successor, i = self.successor, 0
        for _ in range(STEPS):
            i = successor[i]
        return i

    @staticmethod
    def _graph() -> int:
        rng = random.Random(SEED)
        seen, edges = set(), []
        while len(edges) < NODES * DEGREE:
            edge = (rng.randrange(NODES), rng.randrange(NODES))
            if edge not in seen:
                seen.add(edge)
                edges.append((*edge, rng.randint(1, 100)))
        text = "\n".join(f"{i} {j} {w}" for i, j, w in edges)
        adj = [dict() for _ in range(2 * NODES)]
        for line in text.splitlines():
            i, j, w = map(int, line.split())
            adj[i][NODES + j] = w
            adj[NODES + j][i] = w
        reached = 0
        for source in range(0, NODES, NODES // 4):
            dist, queue = {source: 0}, [source]
            for u in queue:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            reached += len(dist)
        return reached

    def sample(self) -> float:
        """Seconds for one run of both parts, with the collector off so that
        the benchmark's own heap does not weigh on it."""
        gc.disable()
        try:
            start = time.perf_counter()
            self._chase()
            self._graph()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def run_for(self, seconds: float) -> list[float]:
        """Samples, at least one, until ``seconds`` have gone by."""
        times = [self.sample()]
        while sum(times) < seconds:
            times.append(self.sample())
        return times
