import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secshap.models import aggregate, arch_logistic, predict, random_model
from secshap.shapley import (
    IncompleteTableError,
    UtilityTable,
    find_skippable,
    fsv_aggregate,
    fsv_error,
    permutation_sampling_ssv,
    sample_skip_round,
    ssv_exact,
    subsets_ascending,
)


def table_from(round_index, players, mapping):
    t = UtilityTable(round_index, frozenset(players))
    for subset, v in mapping.items():
        t.set(frozenset(subset), v)
    return t


def random_table(rng, players):
    t = UtilityTable(0, frozenset(players))
    for s in subsets_ascending(players):
        t.set(s, float(rng.uniform(0, 1)))
    return t


class TestSubsetsAscending:
    def test_order(self):
        got = subsets_ascending([2, 1, 3])
        assert got[0] == frozenset()
        assert got[1:4] == [frozenset({1}), frozenset({2}), frozenset({3})]
        assert got[4] == frozenset({1, 2})
        assert len(got) == 8


class TestSsvExact:
    def test_two_player_hand_case(self):
        t = table_from(0, [1, 2], {(): 0.0, (1,): 1.0, (2,): 0.0, (1, 2): 1.0})
        got = ssv_exact(t)
        assert got[1] == pytest.approx(1.0)
        assert got[2] == pytest.approx(0.0)

    def test_symmetric_utilities_give_equal_values(self):
        t = table_from(0, [1, 2, 3], {
            (): 0.1, (1,): 0.4, (2,): 0.4, (3,): 0.4,
            (1, 2): 0.6, (1, 3): 0.6, (2, 3): 0.6, (1, 2, 3): 0.9,
        })
        got = ssv_exact(t)
        assert got[1] == pytest.approx(got[2]) == pytest.approx(got[3])

    def test_constant_utility_gives_zeros(self):
        players = [1, 2, 3]
        t = table_from(0, players, {s: 0.7 for s in subsets_ascending(players)})
        assert all(v == pytest.approx(0.0) for v in ssv_exact(t).values())

    def test_incomplete_table_raises(self):
        t = table_from(0, [1, 2], {(): 0.0, (1,): 1.0, (1, 2): 1.0})
        with pytest.raises(IncompleteTableError):
            ssv_exact(t)

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_efficiency_symmetry_null_player(self, n, seed):
        rng = np.random.default_rng(seed)
        players = list(range(n))
        t = random_table(rng, players)
        got = ssv_exact(t)
        # efficiency
        assert sum(got.values()) == pytest.approx(
            t.get(frozenset(players)) - t.get(frozenset()), abs=1e-9
        )
        # null player: duplicate utilities so that player 0 adds nothing
        for s in subsets_ascending(players):
            if 0 in s:
                t.set(s, t.get(s - {0}))
        assert ssv_exact(t)[0] == pytest.approx(0.0, abs=1e-12)


# The frozenset-lookup ``ssv_exact`` that the bitmask one replaced, kept as the reference.

def reference_ssv_exact(table) -> dict:
    players = sorted(table.players)
    n = len(players)
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


class TestSsvExactMatchesFrozensetReference:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bit_identical_on_random_tables(self, n):
        # bit-identical, not approximate: the same float operations in the same order
        rng = np.random.default_rng(n)
        for _ in range(40):
            players = sorted(rng.choice(50, size=n, replace=False).tolist())
            t = random_table(rng, players)
            for s in subsets_ascending(players)[::3]:
                t.set(s, float(rng.normal(0.0, 10.0 ** rng.integers(-6, 4))))
            got = ssv_exact(t)
            assert got == reference_ssv_exact(t)
            assert list(got) == players


class TestFsv:
    def test_single_round_identity(self):
        assert fsv_aggregate([{1: 0.3, 2: 0.7}]) == {1: 0.3, 2: 0.7}

    def test_absent_client_is_zero(self):
        got = fsv_aggregate([{1: 1.0}, {2: 1.0}])
        assert got == {1: 1.0, 2: 1.0}

    def test_two_round_sum(self):
        got = fsv_aggregate([{1: 1.0, 2: 0.0}, {1: 0.0, 2: 1.0}])
        assert got == {1: 1.0, 2: 1.0}

    def test_error_metric(self):
        assert fsv_error({1: 1.0, 2: 0.0}, {1: 1.0, 2: 0.0}) == 0.0
        assert fsv_error({1: 1.0, 2: 0.0}, {1: 0.0, 2: 1.0}) == pytest.approx(np.sqrt(2))
        rng = np.random.default_rng(0)
        a = {i: float(rng.normal()) for i in range(4)}
        b = {i: float(rng.normal()) for i in range(4)}
        hand = np.sqrt(sum((a[i] - b[i]) ** 2 for i in range(4)))
        assert fsv_error(a, b) == pytest.approx(hand)
        with pytest.raises(ValueError):
            fsv_error({1: 0.0}, {2: 0.0})


def in_bits(players, ids, recorded):
    """``recorded`` (player subset -> correct ids) as ``find_skippable`` takes it.

    Returns the subset-to-bitmask map, the bitsets and the bitset-to-ids map.
    """
    bit = {p: 1 << k for k, p in enumerate(sorted(players))}
    position = {sid: k for k, sid in enumerate(ids)}

    def mask(subset):
        return sum(bit[p] for p in subset)

    def ids_of(bits):
        return frozenset(sid for k, sid in enumerate(ids) if bits >> k & 1)

    correct = {mask(half): sum(1 << position[sid] for sid in got)
               for half, got in recorded.items()}
    return mask, correct, ids_of


def skippable_ids(subset, recorded, ids) -> frozenset:
    """``find_skippable`` in ids."""
    mask, correct, ids_of = in_bits(set(subset).union(*recorded), ids, recorded)
    return ids_of(find_skippable(mask(subset), correct))


class TestFindSkippable:
    def test_worked_three_client_example(self):
        recorded = {
            (1,): {1, 2}, (2, 3): {1, 2},
            (2,): {2, 3}, (1, 3): {2, 3},
            (3,): {3, 4}, (1, 2): {3, 4},
        }
        got = skippable_ids({1, 2, 3}, recorded, [1, 2, 3, 4])
        assert got == frozenset({1, 2, 3, 4})

    def test_disjoint_sets_skip_nothing(self):
        recorded = {(1,): {1}, (2,): {2}}
        assert skippable_ids({1, 2}, recorded, [1, 2]) == frozenset()

    def test_pair_is_single_bipartition(self):
        recorded = {(1,): {1, 2, 3}, (2,): {2, 3, 4}}
        assert skippable_ids({1, 2}, recorded, [1, 2, 3, 4]) == frozenset({2, 3})

    def test_missing_halves_ignored(self):
        recorded = {(1,): {1}}
        assert skippable_ids({1, 2}, recorded, [1]) == frozenset()

    def test_singletons_rejected(self):
        with pytest.raises(ValueError):
            find_skippable(0b1, {})
        with pytest.raises(ValueError):
            find_skippable(0, {})


def members(bits) -> tuple:
    """The set positions of a bitset, ascending."""
    return tuple(k for k in range(bits.bit_length()) if bits >> k & 1)


def bitset(positions) -> int:
    return sum(1 << k for k in set(positions))


def level_hook(per_subset):
    """A level hook that answers each of its subsets with ``per_subset(subset, bits)``, in turn."""
    return lambda subsets, bitsets: [per_subset(s, bits) for s, bits in zip(subsets, bitsets)]


class TestSampleSkipRound:
    def test_matches_full_evaluation_when_hook_is_consistent(self):
        # a fixed truth assignment per subset: the skip path must
        # reproduce exactly the same utilities as full evaluation
        rng = np.random.default_rng(1)
        players = [1, 2, 3]
        ids = list(range(30))
        # correctness must respect the pair rule for consistency: use a
        # linear threshold world where sample s is correct for S iff
        # its score under the aggregate is positive
        weights = {i: rng.normal(size=10) for i in players}
        feats = rng.normal(size=(10, 30))

        def correct_for(subset):
            w = np.mean([weights[i] for i in sorted(subset)], axis=0)
            return {s for s in ids if (w @ feats[:, s]) > 0}

        calls = {}

        def hook(subset, bits):
            calls[subset] = bits.bit_count()
            truth = correct_for(subset)
            return bitset(s for s in members(bits) if s in truth)

        res = sample_skip_round(0, players, len(ids), level_hook(hook))
        for subset, v in res.utilities.items():
            assert v == len(correct_for(subset)) / 30 or len(subset) >= 2

    def test_fully_skippable_subset_not_evaluated(self):
        players = [1, 2]
        seen = []

        def hook(subset, bits):
            seen.append((subset, members(bits)))
            return bits  # everything correct

        res = sample_skip_round(0, players, 2, level_hook(hook))
        # the pair {1,2} is fully covered by the singleton intersection
        assert res.utilities[frozenset({1, 2})] == 1.0
        assert res.evaluated[frozenset({1, 2})] == 0
        assert all(len(s) == 1 for s, _ in seen)  # hook never called for the pair

    def test_skip_counts_recorded(self):
        players = [1, 2]

        def hook(subset, bits):
            return bits & 0b0011  # samples 0,1 always correct

        res = sample_skip_round(0, players, 4, level_hook(hook))
        pair = frozenset({1, 2})
        assert res.skipped[pair] == 2
        assert res.evaluated[pair] == 2
        assert res.utilities[pair] == pytest.approx(0.5)

    def test_each_level_handed_over_once_without_its_fully_skippable_subsets(self):
        # {1} and {2} get everything right, so {1, 2} and then {1, 2, 3} are fully skippable
        truth = {frozenset({1}): 0b1111, frozenset({2}): 0b1111, frozenset({3}): 0b0011,
                 frozenset({1, 3}): 0b1111, frozenset({2, 3}): 0b0111}
        calls = []

        def hook(subsets, bitsets):
            calls.append(list(zip(subsets, bitsets)))
            return [truth[s] & bits for s, bits in zip(subsets, bitsets)]

        res = sample_skip_round(0, [1, 2, 3], 4, hook)
        assert calls == [
            [(frozenset({1}), 0b1111), (frozenset({2}), 0b1111), (frozenset({3}), 0b1111)],
            [(frozenset({1, 3}), 0b1100), (frozenset({2, 3}), 0b1100)],
        ]
        assert res.evaluated[frozenset({1, 2})] == res.evaluated[frozenset({1, 2, 3})] == 0
        assert res.utilities == {s: 1.0 for s in res.utilities} | {
            frozenset({3}): 0.5, frozenset({2, 3}): 0.75}

    @pytest.mark.parametrize("cardinality", [1, 2])
    def test_hook_returning_the_wrong_count_rejected(self, cardinality):
        def hook(subsets, bitsets):
            return bitsets[:-1] if len(subsets[0]) == cardinality else [0] * len(subsets)

        with pytest.raises(ValueError, match=f"round 3, cardinality {cardinality}: "
                                             "the hook returned 2 bitsets for 3 subsets"):
            sample_skip_round(3, [1, 2, 3], 4, hook)

    @pytest.mark.parametrize("cardinality", [1, 2])
    def test_hook_returning_positions_it_was_not_asked_for_rejected(self, cardinality):
        # the singletons get 0b0011 right, so each pair is asked for 0b1100 only
        extra = 0b10000 if cardinality == 1 else 0b0011

        def hook(subsets, bitsets):
            return [0b0011 | extra * (len(s) == cardinality) for s in subsets]

        with pytest.raises(ValueError, match=f"round 7, cardinality {cardinality}: "
                                             ".* positions it was not asked for"):
            sample_skip_round(7, [1, 2, 3], 4, hook)

    def test_no_samples_rejected(self):
        calls = []

        def hook(subset, bits):
            calls.append(subset)
            return bits

        with pytest.raises(ValueError, match="at least one sample"):
            sample_skip_round(0, [1, 2], -1, hook)
        with pytest.raises(ValueError, match="at least one sample"):
            sample_skip_round(0, [1, 2], 0, hook)
        assert calls == []


# The frozenset algorithm that the bitmask one replaced, kept as the reference.

def reference_find_skippable(subset, correct_ids) -> frozenset:
    subset = frozenset(subset)
    anchor = min(subset)
    members = sorted(subset - {anchor})
    skippable: frozenset = frozenset()
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            half = frozenset(combo) | {anchor}
            if half == subset:
                continue
            other = subset - half
            if half in correct_ids and other in correct_ids:
                skippable |= correct_ids[half] & correct_ids[other]
    return skippable


def reference_sample_skip_round(players, sample_ids, evaluate_hook):
    players = sorted(players)
    sample_ids = list(sample_ids)
    total = len(sample_ids)
    correct_ids: dict = {}
    utilities: dict = {}
    skipped: dict = {}
    evaluated: dict = {}
    for i in players:
        subset = frozenset({i})
        correct = frozenset(evaluate_hook(subset, tuple(sample_ids)))
        correct_ids[subset] = correct
        utilities[subset] = len(correct) / total
        evaluated[subset] = len(sample_ids)
        skipped[subset] = 0
    for subset in subsets_ascending(players):
        if len(subset) < 2:
            continue
        skip_ids = reference_find_skippable(subset, correct_ids)
        remaining = tuple(s for s in sample_ids if s not in skip_ids)
        correct = frozenset(evaluate_hook(subset, remaining)) if remaining else frozenset()
        full = correct | skip_ids
        correct_ids[subset] = full
        utilities[subset] = len(full) / total
        evaluated[subset] = len(remaining)
        skipped[subset] = len(skip_ids)
    return utilities, skipped, evaluated


def random_skip_world(seed):
    """Players (2-8 of 0..19), unique ids (0-300 of 0..9999), a correct-id set per subset."""
    rng = np.random.default_rng(seed)
    players = sorted(rng.choice(20, size=2 + seed % 7, replace=False).tolist())
    ids = rng.choice(10_000, size=int(rng.integers(0, 301)), replace=False).tolist()
    truth = {}
    for subset in subsets_ascending(players)[1:]:
        keep = rng.random(len(ids)) < rng.uniform(0.3, 1.0)
        truth[subset] = frozenset(itertools.compress(ids, keep.tolist()))
    return rng, players, ids, truth


class TestSkipMatchesFrozensetReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_find_skippable_with_unrecorded_halves(self, seed):
        rng, players, ids, truth = random_skip_world(seed)
        recorded = {s: got for s, got in truth.items() if rng.random() < 0.8}
        mask, correct, ids_of = in_bits(players, ids, recorded)
        for subset in subsets_ascending(players):
            if len(subset) >= 2:
                assert (ids_of(find_skippable(mask(subset), correct))
                        == reference_find_skippable(subset, recorded))

    @pytest.mark.parametrize("seed", range(60))
    def test_round_makes_the_same_hook_calls_and_counts(self, seed):
        # the reference speaks ids, the round positions in ``ids``
        _, players, ids, truth = random_skip_world(seed)
        position = {sid: k for k, sid in enumerate(ids)}
        calls = {"bits": [], "reference": []}

        def reference_hook(subset, batch_ids):
            calls["reference"].append((subset, tuple(position[s] for s in batch_ids)))
            return {s for s in batch_ids if s in truth[subset]}

        def hook(subset, bits):
            calls["bits"].append((subset, members(bits)))
            return bitset(position[s] for s in truth[subset]) & bits

        levels = []  # the subset sizes handed over in each hook call

        def per_level(subsets, bitsets):
            levels.append({len(s) for s in subsets})
            return level_hook(hook)(subsets, bitsets)

        if not ids:
            with pytest.raises(ZeroDivisionError):
                reference_sample_skip_round(players, ids, reference_hook)
            with pytest.raises(ValueError, match="at least one sample"):
                sample_skip_round(0, players, len(ids), per_level)
            return
        want = reference_sample_skip_round(players, ids, reference_hook)
        res = sample_skip_round(0, players, len(ids), per_level)
        assert (res.utilities, res.skipped, res.evaluated) == want
        assert list(res.utilities) == list(want[0])
        assert calls["bits"] == calls["reference"]
        # one call per cardinality that has subsets to evaluate, in ascending size
        assert levels == [{size} for size in sorted({len(s) for s, _ in calls["reference"]})]
        assert sum(res.skipped.values()) > 0 or len(ids) < 10


class TestLinearAggregationRule:
    def test_pairwise_correctness_survives_aggregation(self):
        # single-layer models: if two models classify a sample
        # identically and correctly, so does any non-negative mixture
        rng = np.random.default_rng(3)
        arch = arch_logistic(6, 3)
        hits = 0
        for _ in range(200):
            m1 = random_model(arch, rng, scale=1.0)
            m2 = random_model(arch, rng, scale=1.0)
            x = rng.normal(size=(6, 1))
            y1 = int(predict(m1, x)[0])
            y2 = int(predict(m2, x)[0])
            if y1 != y2:
                continue
            w = float(rng.uniform(0, 1))
            mix = aggregate({1: m1, 2: m2}, {1: w, 2: 1.0 - w})
            assert int(predict(mix, x)[0]) == y1
            hits += 1
        assert hits > 20  # the property was actually exercised


class TestPermutationSampling:
    def test_converges_on_two_player_table(self):
        t = table_from(0, [1, 2], {(): 0.0, (1,): 1.0, (2,): 0.0, (1, 2): 1.0})
        got = permutation_sampling_ssv(t.get, [1, 2], budget=4000,
                                       rng=np.random.default_rng(0))
        assert got[1] == pytest.approx(1.0, abs=0.05)
        assert got[2] == pytest.approx(0.0, abs=0.05)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(5)
        t = random_table(rng, [1, 2, 3])
        a = permutation_sampling_ssv(t.get, [1, 2, 3], 50, np.random.default_rng(9))
        b = permutation_sampling_ssv(t.get, [1, 2, 3], 50, np.random.default_rng(9))
        assert a == b

    def test_exhaustive_matches_exact_on_three_players(self):
        rng = np.random.default_rng(6)
        t = random_table(rng, [1, 2, 3])
        exact = ssv_exact(t)

        class EveryOrder:  # a generator whose permutations are the 3! orders in turn
            orders = itertools.permutations([1, 2, 3])

            def permutation(self, players):
                return np.array(next(self.orders))

        got = permutation_sampling_ssv(t.get, [1, 2, 3], budget=6, rng=EveryOrder())
        for i in exact:
            assert got[i] == pytest.approx(exact[i], abs=1e-12)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            permutation_sampling_ssv(lambda s: 0.0, [1], budget=0)
