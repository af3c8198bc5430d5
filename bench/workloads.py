"""Workloads: seeded instance families and the CLI jobs run on them.

Every family has more bidders than items, mostly an eighth more
(n_l = 9/8 n_r). On square random instances the number of auction phases
is heavy-tailed across seeds (coefficient of variation 0.3 to 1.2 from
one seed to the next), so totals over a handful of jobs would not
repeat; with a few surplus bidders the phase counts vary by 3 to 10 %
while the engines still run price wars over every item.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    """``count`` instances from ``generate_random``, one CLI job each."""

    name: str
    count: int
    n_l: int
    n_r: int
    degree: int  # expected neighbours per bidder; density is degree / n_r
    args: tuple[str, ...]
    w_range: tuple[int, int] = (1, 1)
    caps: tuple[int, int] = (1, 1)

    @property
    def algo(self) -> str:
        return self.args[self.args.index("--algo") + 1]

    @property
    def k(self) -> int:
        return int(self.args[self.args.index("--eps") + 1].split("/")[1])

    def _option(self, flag: str, default: str) -> str:
        return self.args[self.args.index(flag) + 1] if flag in self.args else default

    @property
    def mode(self) -> str:
        return self._option("--mode", "memory")

    @property
    def kernel(self) -> str:
        return self._option("--kernel", "det")


@dataclass(frozen=True)
class Workload:
    why: str
    families: tuple[Family, ...]


W100 = (1, 100)
WIDE = (1, 10 ** 6)
CAPS = (1, 4)

WORKLOADS = {
    "memory-large": Workload(
        why="in-memory engines without --verify, so engine time dominates: "
            "the per-round bidder scan, commit and snapshot cost sit here",
        families=(
            Family("mwm-det", 2, 2304, 2048, 16, ("--algo", "mwm", "--eps", "1/8"), W100),
            Family("mcbm", 1, 1152, 1024, 8, ("--algo", "mcbm", "--eps", "1/8"), caps=CAPS),
            Family("mwm-rand", 1, 1152, 1024, 16,
                   ("--algo", "mwm", "--eps", "1/8", "--kernel", "rand"), W100),
            # eps = 1/(n_l + 1): exact mode, thousands of cheap rounds with
            # few active bidders, against the few heavy phases above.
            Family("mcm-exact", 2, 576, 512, 4, ("--algo", "mcm", "--eps", "1/577")),
            Family("gp", 1, 576, 512, 16, ("--algo", "mwm", "--eps", "1/4", "--mode", "gp"),
                   WIDE),
            # One small streamed job, so that passes and peak words are
            # never 0 here. It nearly always spends its whole 2 / eps^2
            # round budget (65 passes), so its pass count barely varies.
            Family("mcbm-stream", 1, 288, 256, 8,
                   ("--algo", "mcbm", "--eps", "1/4", "--mode", "stream"), caps=CAPS),
        )),
    "stream-large": Workload(
        why="streamed engines, where the per-edge cost of each pass dominates "
            "and the CLI loads the whole file before it streams",
        families=(
            Family("mwm-stream", 2, 2304, 2048, 16,
                   ("--algo", "mwm", "--eps", "1/8", "--mode", "stream"), W100),
            Family("mcbm-stream", 1, 1152, 1024, 8,
                   ("--algo", "mcbm", "--eps", "1/4", "--mode", "stream"), caps=CAPS),
            Family("gp-sequential", 1, 576, 512, 16,
                   ("--algo", "mwm", "--eps", "1/4", "--mode", "gp",
                    "--gp-schedule", "sequential"), WIDE),
            # The only source of blackboard bits; about 7 % of the time.
            Family("mwm-rand", 1, 576, 512, 16,
                   ("--algo", "mwm", "--eps", "1/8", "--kernel", "rand"), W100),
        )),
    # n_l * n_r stays within ORACLE_SIZE_LIMIT (2^20) for every job.
    "verify-limit": Workload(
        why="every engine with --verify at the oracle size limit, so the exact "
            "oracles and the parser dominate and engine changes barely show",
        families=(
            Family("mcm-rand", 1, 1088, 960, 16,
                   ("--algo", "mcm", "--eps", "1/8", "--kernel", "rand", "--verify")),
            Family("mwm-det", 1, 1088, 960, 16,
                   ("--algo", "mwm", "--eps", "1/8", "--verify"), W100),
            # Degree 4 halves the exact max-flow's time, so that no one job
            # holds most of a pass and its own jitter.
            Family("mcbm", 1, 1088, 960, 4,
                   ("--algo", "mcbm", "--eps", "1/8", "--verify"), caps=CAPS),
            Family("gp", 1, 1088, 960, 16,
                   ("--algo", "mwm", "--eps", "1/4", "--mode", "gp", "--verify"), WIDE),
            # Small, and nearly always spends its whole round budget (65
            # passes), which keeps the pass total steady across seeds.
            Family("mcbm-stream", 1, 288, 256, 8,
                   ("--algo", "mcbm", "--eps", "1/4", "--mode", "stream", "--verify"),
                   caps=CAPS),
        )),
}


def instance_plan(workload: str, seed: int):
    """(family, file name, generator seed) for every job, in run order.

    Generator seeds are ``seed * 1000 + position``, so one benchmark seed
    fixes every instance and two seeds share none.
    """
    plan = []
    for family in WORKLOADS[workload].families:
        for i in range(family.count):
            plan.append((family, f"{family.name}-{i}.gr", seed * 1000 + len(plan)))
    return plan


def generate(family: Family, gen_seed: int):
    from auctionmatch.graph import generate_random

    return generate_random(
        n_l=family.n_l, n_r=family.n_r, density=family.degree / family.n_r,
        w_range=family.w_range, b_l_range=family.caps, b_r_range=family.caps,
        seed=gen_seed)
