"""Contribution values from per-subset utilities, plus the sample-skip accelerator.

A round's utility table maps every client subset (including the empty
set, which stands for the incoming global model) to a utility.  Exact
single-round values follow the classic weighted-marginal formula; the
per-round vectors sum into final per-client contributions.

The skip accelerator exploits one observation: a sample predicted
correctly by both halves of any bipartition of S is very likely to be
predicted correctly by the model aggregated from S, so it need not be
evaluated again.  The rule is a heuristic.  For a linear classifier it
is exact only when S's aggregate is an exact convex combination of its
halves' aggregates, and the grid weights of ``RoundModels.weights_for``
are not (ROADMAP item 2 holds the mend).  Its state is integers: a subset
is its bitmask over the round's sorted players, and a set of samples a
bitset over their positions 0..total-1, which is also what the
evaluation hook takes and returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "UtilityTable",
    "SampleSkipResult",
    "IncompleteTableError",
    "subsets_ascending",
    "ssv_exact",
    "fsv_aggregate",
    "fsv_error",
    "find_skippable",
    "sample_skip_round",
    "permutation_sampling_ssv",
]


class IncompleteTableError(KeyError):
    """A subset utility needed for exact computation is missing."""


def subsets_ascending(players) -> list[frozenset]:
    """All subsets of the players, ordered by size then lexicographically.

    The ordering guarantees both halves of any bipartition appear before
    their union, which the skip accelerator depends on.  Calls with the
    same players share the subset objects, so the utility tables of many
    reports hold one copy of their keys.
    """
    return list(_subsets_ascending(tuple(sorted(players))))


@lru_cache(maxsize=64)
def _subsets_ascending(players: tuple) -> tuple[frozenset, ...]:
    out = [frozenset()]
    for size in range(1, len(players) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(players, size))
    return tuple(out)


@dataclass
class UtilityTable:
    """Utilities v(S) for one round; complete when every subset is present."""

    round_index: int
    players: frozenset
    values: dict = field(default_factory=dict)  # frozenset -> float

    def set(self, subset, value: float) -> None:
        self.values[frozenset(subset)] = float(value)

    def get(self, subset) -> float:
        key = frozenset(subset)
        if key not in self.values:
            raise IncompleteTableError(f"no utility recorded for subset {sorted(key)}")
        return self.values[key]

    def is_complete(self) -> bool:
        return all(s in self.values for s in subsets_ascending(self.players))


def ssv_exact(table: UtilityTable) -> dict[int, float]:
    """Exact per-client values for one round from a complete table.

    The marginal terms read a list indexed by player bitmask (bit k for
    the k-th sorted player), summed in the order of sizes and combinations.
    """
    players = sorted(table.players)
    n = len(players)
    if not table.is_complete():
        missing = [s for s in subsets_ascending(players) if s not in table.values]
        raise IncompleteTableError(
            f"utility table incomplete: missing {len(missing)} subsets, "
            f"first {sorted(missing[0])}"
        )
    bit = {p: 1 << k for k, p in enumerate(players)}
    value = [0.0] * (1 << n)
    for s in subsets_ascending(players):
        value[sum(bit[p] for p in s)] = table.values[s]
    fact = math.factorial
    out = {}
    for i in players:
        others = [bit[p] for p in players if p != i]
        total = 0.0
        for size in range(n):
            weight = fact(size) * fact(n - size - 1) / fact(n)
            for combo in itertools.combinations(others, size):
                s = sum(combo)
                total += weight * (value[s | bit[i]] - value[s])
        out[i] = total
    return out


def fsv_aggregate(round_values: list[dict[int, float]]) -> dict[int, float]:
    """Sum per-round vectors; a client absent from a round contributes 0 there."""
    out: dict[int, float] = {}
    for values in round_values:
        for client, v in values.items():
            out[client] = out.get(client, 0.0) + v
    return out


def fsv_error(estimate: dict[int, float], exact: dict[int, float]) -> float:
    """Euclidean distance between two contribution vectors."""
    if set(estimate) != set(exact):
        raise ValueError(
            f"client sets differ: {sorted(estimate)} vs {sorted(exact)}"
        )
    keys = sorted(exact)
    a = np.array([estimate[k] for k in keys])
    b = np.array([exact[k] for k in keys])
    return float(np.linalg.norm(a - b))


def find_skippable(mask: int, correct: dict) -> int:
    """Sample positions safe to skip for the aggregate of the players in ``mask``.

    ``correct`` maps a player bitmask to the bitset of its correctly
    predicted sample positions.  The result is the union, over every
    bipartition (h, mask ^ h) with both halves recorded, of their
    intersection; bipartitions with an unrecorded half are ignored.
    Each bipartition is walked once, as the half h that holds the
    lowest player.
    """
    if mask & (mask - 1) == 0:
        raise ValueError("skippable samples are defined for aggregates of >= 2 clients")
    anchor = mask & -mask
    rest = mask ^ anchor
    skippable = 0
    sub = rest
    while sub:
        sub = (sub - 1) & rest  # every proper submask of rest, 0 last
        half = correct.get(sub | anchor)
        if half is not None:
            other = correct.get(rest ^ sub)
            if other is not None:
                skippable |= half & other
    return skippable


@dataclass
class SampleSkipResult:
    utilities: dict  # frozenset -> float, all non-empty subsets
    skipped: dict  # frozenset -> number of skipped sample evaluations
    evaluated: dict  # frozenset -> number of securely evaluated samples


def sample_skip_round(round_index, players, total, evaluate_hook) -> SampleSkipResult:
    """Drive one round of subset testing with sample skipping, a level at a time.

    The round's samples are the positions 0..total-1, and a set of them
    is a bitset: bit k for position k.  Locals are tested on every
    position; aggregates only on positions no bipartition already
    settled.  A subset's skip set reads only smaller subsets, so each
    cardinality is one call: ``evaluate_hook(subsets, bitsets)`` gets the
    level's subsets that have positions left (``subsets_ascending``
    order), each with its bitset, and must return, per subset, the
    bitset of its correctly predicted positions among exactly those.  A
    fully skippable aggregate is not evaluated at all.
    """
    if total < 1:
        raise ValueError(f"round {round_index}: needs at least one sample, got total={total}")
    players = sorted(players)
    everything = (1 << total) - 1
    bit = {p: 1 << k for k, p in enumerate(players)}
    correct: dict[int, int] = {}  # player bitmask -> bitset of correct positions
    utilities: dict = {}
    skipped: dict = {}
    evaluated: dict = {}
    for size, level in itertools.groupby(subsets_ascending(players)[1:], key=len):
        masks = {subset: sum(bit[p] for p in subset) for subset in level}
        skips = {subset: find_skippable(mask, correct) if size > 1 else 0
                 for subset, mask in masks.items()}
        asked = [subset for subset, skip in skips.items() if skip != everything]
        bitsets = [everything ^ skips[subset] for subset in asked]
        found = evaluate_hook(asked, bitsets) if asked else []
        if len(found) != len(asked):
            raise ValueError(f"round {round_index}, cardinality {size}: the hook returned "
                             f"{len(found)} bitsets for {len(asked)} subsets")
        if any(got & ~bits for got, bits in zip(found, bitsets)):
            raise ValueError(f"round {round_index}, cardinality {size}: the hook returned "
                             "positions it was not asked for")
        hits = dict(zip(asked, found))
        for subset, skip in skips.items():
            full = skip | hits.get(subset, 0)
            correct[masks[subset]] = full
            utilities[subset] = full.bit_count() / total
            evaluated[subset] = (everything ^ skip).bit_count()
            skipped[subset] = skip.bit_count()
    return SampleSkipResult(utilities, skipped, evaluated)


def permutation_sampling_ssv(
    utility,
    players,
    budget: int,
    rng: np.random.Generator | None = None,
) -> dict[int, float]:
    """Monte-Carlo estimate: average marginal contribution over ``budget`` random permutations.

    ``utility`` maps a frozenset to a value (typically a table lookup).
    """
    players = sorted(players)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    totals = {i: 0.0 for i in players}
    for _ in range(budget):
        prefix: frozenset = frozenset()
        prev = utility(prefix)
        for i in rng.permutation(players):
            prefix = prefix | {int(i)}
            cur = utility(prefix)
            totals[int(i)] += cur - prev
            prev = cur
    return {i: totals[i] / budget for i in players}
