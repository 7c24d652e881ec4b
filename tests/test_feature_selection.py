import numpy as np
import pytest
from scipy import stats

from latefuse.feature_selection import (
    BorutaParams,
    FeatureSelectionError,
    _binomial_half_tails,
    aggregate_boosted_importance,
    boruta_select,
    select_signature,
    stability_cwrel,
)
from latefuse.learners import GbmParams


def _planted(seed, n=150, informative=2, noise=8, separation=2.5):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, informative + noise))
    for j in range(informative):
        X[:, j] += np.where(y == j % 2, separation, -separation)
    return X, y


class TestBoruta:
    def test_constant_feature_never_confirmed(self):
        X, y = _planted(0)
        X[:, -1] = 3.0
        res = boruta_select(X, y, seed=1)
        assert res.statuses[-1] in ("rejected", "tentative")

    def test_informative_confirmed_noise_rejected(self):
        X, y = _planted(3)
        res = boruta_select(X, y, seed=3)
        assert res.statuses[0] == "confirmed" and res.statuses[1] == "confirmed"
        rejected = sum(1 for s in res.statuses[2:] if s == "rejected")
        assert rejected >= 6

    def test_duplicating_confirmed_feature_keeps_it(self):
        # all-relevant semantics: adding a correlated copy never converts the
        # confirmed original to rejected
        X, y = _planted(5)
        res = boruta_select(X, y, seed=5)
        assert res.statuses[0] == "confirmed"
        X2 = np.column_stack([X, X[:, 0]])
        res2 = boruta_select(X2, y, seed=5)
        assert res2.statuses[0] != "rejected"

    def test_noisy_copy_of_confirmed_feature_is_kept(self):
        # a correlated (not bitwise-identical) relevant feature competes on
        # its own and must not be rejected either
        X, y = _planted(5)
        noisy = X[:, 0] + 0.05 * np.random.default_rng(99).normal(size=len(X))
        X2 = np.column_stack([X, noisy])
        res = boruta_select(X2, y, seed=5)
        assert res.statuses[0] != "rejected"
        assert res.statuses[-1] != "rejected"

    def test_hit_counts_bounded_by_iterations(self):
        X, y = _planted(7)
        res = boruta_select(X, y, seed=7)
        assert (res.hit_counts <= res.n_iterations).all()

    def test_statuses_partition_features(self):
        X, y = _planted(11)
        res = boruta_select(X, y, seed=11)
        assert len(res.statuses) == X.shape[1]
        assert set(res.statuses) <= {"confirmed", "rejected", "tentative"}
        n = len(res.confirmed_indices) + len(res.rejected_indices) + len(res.tentative_indices)
        assert n == X.shape[1]

    def test_empty_errors(self):
        with pytest.raises(FeatureSelectionError):
            boruta_select(np.empty((0, 3)), np.empty(0, dtype=int))


class TestBinomialHalfTails:
    @pytest.mark.parametrize("n, at_least, at_most", [
        (0, [1.0], [1.0]),
        (1, [1.0, 0.5], [0.5, 1.0]),
        (3, [1.0, 7 / 8, 4 / 8, 1 / 8], [1 / 8, 4 / 8, 7 / 8, 1.0]),
        (4, [1.0, 15 / 16, 11 / 16, 5 / 16, 1 / 16], [1 / 16, 5 / 16, 11 / 16, 15 / 16, 1.0]),
    ])
    def test_hand_summed(self, n, at_least, at_most):
        up, down = _binomial_half_tails(n)
        assert up.tolist() == at_least
        assert down.tolist() == at_most

    def test_matches_scipy(self):
        h = np.arange(301)
        for n in range(1, 301):
            up, down = _binomial_half_tails(n)
            np.testing.assert_allclose(up, stats.binom.sf(h[: n + 1] - 1, n, 0.5), rtol=1e-13)
            np.testing.assert_allclose(down, stats.binom.cdf(h[: n + 1], n, 0.5), rtol=1e-13)


class TestAggregateImportance:
    def test_equal_weight_mean(self):
        out = aggregate_boosted_importance(
            [(1.0, np.array([0.2, 0.8])), (1.0, np.array([0.4, 0.6]))]
        )
        np.testing.assert_allclose(out, [0.3, 0.7], atol=1e-12)

    def test_single_round_identity(self):
        out = aggregate_boosted_importance([(2.5, np.array([0.1, 0.9]))])
        np.testing.assert_allclose(out, [0.1, 0.9], atol=1e-12)

    def test_weighted_formula(self):
        out = aggregate_boosted_importance(
            [(3.0, np.array([1.0, 0.0])), (1.0, np.array([0.0, 1.0]))]
        )
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)

    def test_all_zero_weights_error(self):
        with pytest.raises(FeatureSelectionError, match="all-zero"):
            aggregate_boosted_importance([(0.0, np.array([1.0])), (0.0, np.array([2.0]))])

    def test_uniform_weight_scaling_invariance(self, rng):
        rounds = [(float(rng.uniform(0.1, 2)), rng.uniform(size=4)) for _ in range(5)]
        a = aggregate_boosted_importance(rounds)
        b = aggregate_boosted_importance([(w * 8.0, s) for w, s in rounds])
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSelectSignature:
    def _folds(self, n_folds, always_score=0.9, sometimes_in=18, sometimes_score=0.9,
               weak_score=0.35):
        folds = []
        for i in range(n_folds):
            fold = {("m", "strong"): always_score, ("m", "top"): 1.0,
                    ("m", "weak"): weak_score}
            if i < sometimes_in:
                fold[("m", "f72")] = sometimes_score
            folds.append(fold)
        return folds

    def test_high_frequency_high_score_included(self):
        sig = select_signature(self._folds(25), n_folds=25)
        names = {e.feature for e in sig}
        assert "strong" in names and "top" in names

    def test_72_percent_frequency_excluded(self):
        sig = select_signature(self._folds(25), n_folds=25)
        assert "f72" not in {e.feature for e in sig}

    def test_low_score_excluded_despite_full_frequency(self):
        sig = select_signature(self._folds(25), n_folds=25)
        assert "weak" not in {e.feature for e in sig}

    def test_scores_max_scaled_per_fold_per_modality(self):
        folds = [{("m", "a"): 0.5, ("m", "b"): 1.0, ("other", "c"): 0.2}] * 4
        sig = select_signature(folds, n_folds=4)
        by_name = {e.feature: e for e in sig}
        assert by_name["a"].score == pytest.approx(0.5)
        assert by_name["b"].score == pytest.approx(1.0)
        assert by_name["c"].score == pytest.approx(1.0)  # max of its own modality

    def test_deterministic(self):
        folds = self._folds(8, sometimes_in=8)
        a = select_signature(folds, 8)
        b = select_signature(folds, 8)
        assert [ (e.modality, e.feature, e.score, e.frequency) for e in a ] == \
               [ (e.modality, e.feature, e.score, e.frequency) for e in b ]


class TestStability:
    def test_identical_subsets_score_one(self):
        r = stability_cwrel([{"a", "b", "c"}] * 5, universe_size=50)
        assert r.cw_rel == 1.0

    def test_disjoint_minimum_scores_zero(self):
        r = stability_cwrel([{0, 1, 2}, {3, 4, 5}], universe_size=10)
        assert r.cw_rel == pytest.approx(0.0, abs=1e-12)

    def test_random_subsets_score_low(self, rng):
        values = []
        for _ in range(100):
            subsets = [set(rng.choice(1000, 10, replace=False).tolist()) for _ in range(25)]
            values.append(stability_cwrel(subsets, 1000).cw_rel)
        assert float(np.mean(values)) < 0.1

    def test_renaming_invariance(self, rng):
        subsets = [set(rng.choice(40, 8, replace=False).tolist()) for _ in range(6)]
        renamed = [{f"feat_{i}" for i in s} for s in subsets]
        assert stability_cwrel(subsets, 40).cw_rel == pytest.approx(
            stability_cwrel(renamed, 40).cw_rel
        )

    def test_subset_order_invariance(self, rng):
        subsets = [set(rng.choice(30, 6, replace=False).tolist()) for _ in range(5)]
        a = stability_cwrel(subsets, 30).cw_rel
        b = stability_cwrel(list(reversed(subsets)), 30).cw_rel
        assert a == pytest.approx(b)

    def test_range_bounds(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 10))
            subsets = [
                set(rng.choice(25, k, replace=False).tolist())
                for _ in range(int(rng.integers(2, 8)))
            ]
            v = stability_cwrel(subsets, 25).cw_rel
            assert 0.0 <= v <= 1.0

    def test_full_universe_every_fold_is_stable_one(self):
        full = set(range(12))
        r = stability_cwrel([full] * 4, universe_size=12)
        assert r.cw_rel == 1.0

    def test_too_few_subsets_error(self):
        with pytest.raises(FeatureSelectionError):
            stability_cwrel([{1, 2}], universe_size=5)

    def test_union_exceeding_universe_errors(self):
        with pytest.raises(FeatureSelectionError, match="universe"):
            stability_cwrel([{1, 2}, {3, 4}], universe_size=3)

    def test_all_empty_subsets_score_zero(self):
        r = stability_cwrel([set(), set(), set()], universe_size=5)
        assert r.cw_rel == 0.0
