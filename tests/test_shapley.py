import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secshap.models import aggregate, arch_logistic, predict, random_model
from secshap.shapley import (
    IncompleteTableError,
    SampleSkipResult,
    SkipState,
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


class TestFindSkippable:
    def test_worked_three_client_example(self):
        state = SkipState(0)
        state.record({1}, {1, 2})
        state.record({2, 3}, {1, 2})
        state.record({2}, {2, 3})
        state.record({1, 3}, {2, 3})
        state.record({3}, {3, 4})
        state.record({1, 2}, {3, 4})
        got = find_skippable({1, 2, 3}, state)
        assert got == frozenset({1, 2, 3, 4})

    def test_disjoint_sets_skip_nothing(self):
        state = SkipState(0)
        state.record({1}, {1})
        state.record({2}, {2})
        assert find_skippable({1, 2}, state) == frozenset()

    def test_pair_is_single_bipartition(self):
        state = SkipState(0)
        state.record({1}, {1, 2, 3})
        state.record({2}, {2, 3, 4})
        assert find_skippable({1, 2}, state) == frozenset({2, 3})

    def test_missing_halves_ignored(self):
        state = SkipState(0)
        state.record({1}, {1})
        assert find_skippable({1, 2}, state) == frozenset()

    def test_singletons_rejected(self):
        with pytest.raises(ValueError):
            find_skippable({1}, SkipState(0))


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

        def hook(subset, batch_ids):
            calls[subset] = len(batch_ids)
            truth = correct_for(subset)
            return {s for s in batch_ids if s in truth}

        res = sample_skip_round(0, players, ids, hook)
        for subset, v in res.utilities.items():
            assert v == len(correct_for(subset)) / 30 or len(subset) >= 2

    def test_fully_skippable_subset_not_evaluated(self):
        players = [1, 2]
        ids = [0, 1]
        seen = []

        def hook(subset, batch_ids):
            seen.append((subset, tuple(batch_ids)))
            return set(batch_ids)  # everything correct

        res = sample_skip_round(0, players, ids, hook)
        # the pair {1,2} is fully covered by the singleton intersection
        assert res.utilities[frozenset({1, 2})] == 1.0
        assert res.evaluated[frozenset({1, 2})] == 0
        assert all(len(s) == 1 for s, _ in seen)  # hook never called for the pair

    def test_skip_counts_recorded(self):
        players = [1, 2]
        ids = [0, 1, 2, 3]

        def hook(subset, batch_ids):
            return {s for s in batch_ids if s < 2}  # samples 0,1 always correct

        res = sample_skip_round(0, players, ids, hook)
        pair = frozenset({1, 2})
        assert res.skipped[pair] == 2
        assert res.evaluated[pair] == 2
        assert res.utilities[pair] == pytest.approx(0.5)


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
        got = permutation_sampling_ssv(t.get, [1, 2, 3], budget=0, exhaustive=True)
        for i in exact:
            assert got[i] == pytest.approx(exact[i], abs=1e-12)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            permutation_sampling_ssv(lambda s: 0.0, [1], budget=0)
