"""Auction-based bipartite matching with exact epsilon arithmetic.

Approximate engines for maximum-cardinality, maximum-weight, and
capacitated (b-matching) bipartite matching, a weight-range reduction,
semi-streaming execution with pass/space accounting, and exact oracles
for verifying every approximation bound.
"""

import importlib

# Public name -> submodule that defines it. Names resolve on first access
# (PEP 562), so that a CLI child imports only the engines it runs.
_EXPORTS = {
    "auction": ("phase_budget",),
    "errors": ("AuctionMatchError", "InstanceFormatError", "InvariantViolation"),
    "graph": ("BipartiteInstance", "Epsilon", "ScaledGraph", "dumps_instance",
              "generate_random", "load_instance", "loads_instance",
              "save_instance", "scale_and_prune"),
    "mcbm": ("expand_copies", "find_demand_set", "mcbm_round_budget", "run_mcbm"),
    "mcm": ("demand_set_mcm", "mcm_round_budget", "run_mcm"),
    "mwm": ("demand_set_mwm", "run_mwm"),
    "oracles": ("ORACLE_SIZE_LIMIT", "check_oracle_size", "exact_mcbm",
                "exact_mcm", "exact_mwm"),
    "results": ("BlackboardTrace", "MatchingResult", "RunTrace"),
    "streaming": ("STREAM_MCBM_SPACE_FACTOR", "EdgeStream", "SpaceAccountant",
                  "stream_mcbm", "stream_mwm"),
    "weight_reduction": ("build_partition", "combine_levels", "run_reduced_mwm",
                         "weight_bucket"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
