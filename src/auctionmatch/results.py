"""Result and trace records returned by the matching engines."""

from __future__ import annotations

from typing import NamedTuple


class MatchingResult(NamedTuple):
    """A matching captured at some round of an engine run.

    pairs are (bidder, item) indices sorted by bidder. ``value`` is the
    cardinality for ``mcm`` and ``mcbm`` runs (the number of pairs) and the
    total weight in original (unscaled) units for ``mwm`` runs.
    ``round_captured`` is the 1-based round/phase whose end-of-round state
    produced this matching, ties on value keeping the earliest round; it is
    0 for the weight reduction, whose matching combines several runs.
    """

    pairs: tuple[tuple[int, int], ...]
    value: int
    round_captured: int


class BlackboardTrace(NamedTuple):
    """Communication cost of a randomized-kernel run on a shared blackboard.

    One proposal costs ceil(log2 n_r) bits, one price announcement costs
    ceil(log2 (k * w_max)) bits. Every executed phase contributes its kernel
    proposal rounds plus two fixed coordination rounds.
    """

    proposal_rounds: int
    coordination_rounds: int
    proposals: int
    price_announcements: int
    proposal_bits_each: int
    price_bits_each: int

    @property
    def rounds(self) -> int:
        return self.proposal_rounds + self.coordination_rounds

    @property
    def total_bits(self) -> int:
        return (self.proposals * self.proposal_bits_each
                + self.price_announcements * self.price_bits_each)


class RunTrace:
    """Cost accounting for one engine run.

    ``rounds_executed`` counts rounds/phases that actually ran, including a
    final round that made no reassignment and triggered early exit.
    ``round_budget`` is the nominal bound the engine would have honored.
    ``passes`` and ``peak_words`` are zero for in-memory runs. Two traces
    are equal when every field is.
    """

    def __init__(self, rounds_executed: int, round_budget: int,
                 passes: int = 0, peak_words: int = 0,
                 blackboard: BlackboardTrace | None = None,
                 notes: dict | None = None) -> None:
        self.rounds_executed = rounds_executed
        self.round_budget = round_budget
        self.passes = passes
        self.peak_words = peak_words
        self.blackboard = blackboard
        self.notes = {} if notes is None else notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)
