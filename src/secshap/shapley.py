"""Contribution values from per-subset utilities, plus the sample-skip accelerator.

A round's utility table maps every client subset (including the empty
set, which stands for the incoming global model) to a utility.  Exact
single-round values follow the classic weighted-marginal formula; the
per-round vectors sum into final per-client contributions.

The skip accelerator exploits one observation: a sample predicted
correctly by both halves of any bipartition of S is very likely (for
linear classifiers: certain) to be predicted correctly by the model
aggregated from S, so it need not be evaluated again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "UtilityTable",
    "SkipState",
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


@dataclass
class SkipState:
    """Correctly-predicted sample ids per already-tested subset."""

    round_index: int
    correct_ids: dict = field(default_factory=dict)  # frozenset -> frozenset of ids

    def record(self, subset, ids) -> None:
        self.correct_ids[frozenset(subset)] = frozenset(ids)


def ssv_exact(table: UtilityTable) -> dict[int, float]:
    """Exact per-client values for one round from a complete table."""
    players = sorted(table.players)
    n = len(players)
    if not table.is_complete():
        missing = [s for s in subsets_ascending(players) if s not in table.values]
        raise IncompleteTableError(
            f"utility table incomplete: missing {len(missing)} subsets, "
            f"first {sorted(missing[0])}"
        )
    fact = math.factorial
    out = {}
    for i in players:
        others = [p for p in players if p != i]
        total = 0.0
        for size in range(len(others) + 1):
            weight = fact(size) * fact(n - size - 1) / fact(n)
            for combo in itertools.combinations(others, size):
                s = frozenset(combo)
                total += weight * (table.get(s | {i}) - table.get(s))
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


def find_skippable(subset, state: SkipState) -> frozenset:
    """Ids safe to skip for the aggregate of ``subset``.

    Union over every bipartition (S', S \\ S') with both halves already
    recorded of the intersection of their correct-id sets.  Bipartitions
    with an unrecorded half are silently ignored.
    """
    subset = frozenset(subset)
    if len(subset) < 2:
        raise ValueError("skippable ids are defined for aggregates of >= 2 clients")
    anchor = min(subset)
    members = sorted(subset - {anchor})
    skippable: frozenset = frozenset()
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            half = frozenset(combo) | {anchor}
            if half == subset:
                continue
            other = subset - half
            if half in state.correct_ids and other in state.correct_ids:
                skippable |= state.correct_ids[half] & state.correct_ids[other]
    return skippable


@dataclass
class SampleSkipResult:
    utilities: dict  # frozenset -> float, all non-empty subsets
    state: SkipState
    skipped: dict  # frozenset -> number of skipped sample evaluations
    evaluated: dict  # frozenset -> number of securely evaluated samples


def sample_skip_round(
    round_index: int,
    players,
    sample_ids,
    evaluate_hook,
    total_samples: int | None = None,
) -> SampleSkipResult:
    """Drive one round of subset testing with sample skipping.

    ``evaluate_hook(subset, ids)`` must evaluate the subset's aggregate
    model on exactly the given sample ids and return the correctly
    predicted ones.  Locals are tested on the full id list; aggregates
    (ascending size) only on ids no bipartition already settled.  A
    fully skippable aggregate is not evaluated at all.
    """
    players = sorted(players)
    sample_ids = list(sample_ids)
    total = len(sample_ids) if total_samples is None else total_samples
    state = SkipState(round_index)
    utilities: dict = {}
    skipped: dict = {}
    evaluated: dict = {}
    for i in players:
        subset = frozenset({i})
        correct = frozenset(evaluate_hook(subset, tuple(sample_ids)))
        state.record(subset, correct)
        utilities[subset] = len(correct) / total
        evaluated[subset] = len(sample_ids)
        skipped[subset] = 0
    for subset in subsets_ascending(players):
        if len(subset) < 2:
            continue
        skip_ids = find_skippable(subset, state)
        remaining = tuple(s for s in sample_ids if s not in skip_ids)
        correct = frozenset(evaluate_hook(subset, remaining)) if remaining else frozenset()
        full = correct | skip_ids
        state.record(subset, full)
        utilities[subset] = len(full) / total
        evaluated[subset] = len(remaining)
        skipped[subset] = len(skip_ids)
    return SampleSkipResult(utilities, state, skipped, evaluated)


def permutation_sampling_ssv(
    utility,
    players,
    budget: int,
    rng: np.random.Generator | None = None,
    exhaustive: bool = False,
) -> dict[int, float]:
    """Monte-Carlo estimate: average marginal contribution over permutations.

    ``utility`` maps a frozenset to a value (typically a table lookup).
    With ``exhaustive`` every permutation is walked once and the result
    is exact; otherwise ``budget`` random permutations are sampled.
    """
    players = sorted(players)
    if not exhaustive and budget < 1:
        raise ValueError("budget must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    totals = {i: 0.0 for i in players}
    if exhaustive:
        perms = itertools.permutations(players)
        count = math.factorial(len(players))
    else:
        perms = (rng.permutation(players) for _ in range(budget))
        count = budget
    for perm in perms:
        prefix: frozenset = frozenset()
        prev = utility(prefix)
        for i in perm:
            prefix = prefix | {int(i)}
            cur = utility(prefix)
            totals[int(i)] += cur - prev
            prev = cur
    return {i: totals[i] / count for i in players}
