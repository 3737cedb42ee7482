"""Tests for feature extraction, the trained scorer, and oracle reweighting."""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from collapseguard import expfam, filtering
from collapseguard.contraction import LyapunovMetric
from collapseguard.errors import (
    CollapseGuardError,
    DegenerateSelectionError,
    InputValidationError,
    SimulationOverflowError,
)
from collapseguard.expfam import (
    GAUSSIAN,
    ExpFamilyModel,
    Parameter,
    estimate,
    weighted_estimate,
)
from collapseguard.filtering import (
    FilterHandle,
    FilterParams,
    LabeledDataset,
    TrainConfig,
    TrainingSpec,
    adam_step,
    anchors_from_dataset,
    content_hash,
    fit_pca,
    forward_batch,
    init_filter_params,
    label_by_distance,
    load_filter_checkpoint,
    loss_gradient,
    oracle_pullback_weights,
    save_filter_checkpoint,
    simulate_drift_training_data,
    train_filter,
)
from collapseguard.numerics import RngState


def _gaussian(dim: int = 1):
    model = ExpFamilyModel(GAUSSIAN, dim)
    return model, Parameter(np.zeros(dim), model)


def _zero_params(feature_dim: int = 1, hidden_dim: int = 2) -> FilterParams:
    return FilterParams(
        w1=np.zeros((hidden_dim, feature_dim)),
        b1=np.zeros(hidden_dim),
        w2=np.zeros(hidden_dim),
        b2=0.0,
    )


def _bits(*values) -> bytes:
    """The float64 bytes of the values, so -0.0 and 0.0 (or two NaNs) compare as bits."""
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in values)


def _param_bits(params: FilterParams) -> bytes:
    return _bits(params.w1, params.b1, params.w2, params.b2)


def _dataset(points, labels) -> LabeledDataset:
    pts = np.asarray(points, dtype=float)
    return LabeledDataset(pts, np.asarray(labels), features=pts)


def _unproject(pca, feats) -> np.ndarray:
    """Map PCA features back to points; exact when k equals the input dimension."""
    return feats @ pca.projection.T * pca.scale + pca.mean


class TestFitPca:
    def test_collinear_data_gives_full_first_ratio(self):
        """Points on a line have one informative direction."""
        x = np.linspace(-1.0, 1.0, 30)
        data = np.column_stack([x, 3.0 * x + 1.0])
        pca = fit_pca(data, k=1)
        np.testing.assert_allclose(pca.explained_variance_ratio[0], 1.0, atol=1e-9)

    def test_first_ratio_matches_correlation_identity(self):
        """For standardized 2-d data the top ratio is (1 + |r|) / 2 exactly."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=500)
        data = np.column_stack([x, x + 0.5 * rng.normal(size=500)])
        pca = fit_pca(data, k=2)
        r = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        np.testing.assert_allclose(pca.explained_variance_ratio[0], (1.0 + abs(r)) / 2.0, atol=1e-10)
        np.testing.assert_allclose(np.abs(pca.projection[:, 0]), np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-10)

    def test_full_rank_transform_round_trips(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(50, 3)) @ np.diag([2.0, 1.0, 0.5]) + np.array([1.0, -2.0, 0.0])
        pca = fit_pca(data, k=3)
        np.testing.assert_allclose(_unproject(pca, pca.transform(data)), data, atol=1e-8)

    def test_single_vector_transform_is_refused(self):
        data = np.random.default_rng(3).normal(size=(20, 4))
        pca = fit_pca(data, k=2)
        with pytest.raises(InputValidationError, match=r"got shape \(4,\)"):
            pca.transform(data[5])

    def test_projection_columns_are_orthonormal(self):
        rng = np.random.default_rng(19)
        pca = fit_pca(rng.normal(size=(80, 5)), k=3)
        gram = pca.projection.T @ pca.projection
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_explained_ratios_are_nonincreasing(self):
        rng = np.random.default_rng(23)
        data = rng.normal(size=(100, 4)) @ rng.normal(size=(4, 4))
        pca = fit_pca(data, k=4)
        assert np.all(np.diff(pca.explained_variance_ratio) <= 1e-12)

    def test_constant_column_is_flagged_and_left_unscaled(self):
        rng = np.random.default_rng(29)
        data = np.column_stack([rng.normal(size=40), rng.normal(size=40), np.full(40, 7.0)])
        pca = fit_pca(data, k=2)
        assert pca.zero_variance.tolist() == [False, False, True]
        feats = pca.transform(data)
        assert np.all(np.isfinite(feats))
        np.testing.assert_allclose(_unproject(pca, feats)[:, 2], 7.0, atol=1e-8)

    def test_k_outside_valid_range_is_rejected(self):
        data = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(InputValidationError):
            fit_pca(data, k=3)
        with pytest.raises(InputValidationError):
            fit_pca(data, k=0)

    def test_too_few_points_are_rejected(self):
        data = np.random.default_rng(0).normal(size=(3, 3))
        with pytest.raises(InputValidationError):
            fit_pca(data, k=3)

    def test_non_finite_data_is_rejected(self):
        data = np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 3.0]])
        with pytest.raises(InputValidationError):
            fit_pca(data, k=1)

    @pytest.mark.parametrize("data, moment", [
        ([[0.0, 1.0], [1e200, 2.0], [1.0, 3.0]], "standard deviation"),
        ([[1.7e308, 1.0], [1.7e308, 2.0], [1.0, 3.0]], "mean"),
    ], ids=["std", "mean"])
    def test_a_moment_beyond_the_float_range_is_refused_by_name(self, data, moment):
        # tier-1 turns a numpy RuntimeWarning into an error, so none is raised on the way
        with pytest.raises(SimulationOverflowError,
                           match=f"^the PCA {moment} of the data is beyond the float range$"):
            fit_pca(np.array(data), k=1)

    def test_transform_rejects_wrong_dimension(self):
        pca = fit_pca(np.random.default_rng(0).normal(size=(10, 3)), k=2)
        with pytest.raises(InputValidationError):
            pca.transform(np.zeros((4, 2)))


class TestLabelByDistance:
    def test_nearest_fraction_is_labeled_good(self):
        _, reference = _gaussian(1)
        candidates = np.arange(1.0, 11.0)[:, None]
        ds = label_by_distance(candidates, reference, good_fraction=0.7)
        assert ds.labels.tolist() == [1] * 7 + [0] * 3

    def test_good_count_uses_ceiling(self):
        _, reference = _gaussian(2)
        candidates = np.random.default_rng(5).normal(size=(1000, 2))
        ds = label_by_distance(candidates, reference, good_fraction=0.3)
        assert int(ds.labels.sum()) == 300

    def test_distance_ties_resolve_to_lower_index(self):
        _, reference = _gaussian(1)
        ds = label_by_distance(np.array([[1.0], [-1.0], [2.0]]), reference, good_fraction=1 / 3)
        assert ds.labels.tolist() == [1, 0, 0]

    def test_a_distance_beyond_the_float_range_sorts_last(self):
        _, reference = _gaussian(2)
        candidates = np.array([[1e200, 1e200], [0.0, 0.0], [1.0, 1.0]])
        ds = label_by_distance(candidates, reference, good_fraction=2 / 3)
        assert ds.labels.tolist() == [0, 1, 1]

    def test_labels_follow_a_permutation_of_the_candidates(self):
        _, reference = _gaussian(2)
        rng = np.random.default_rng(13)
        candidates = rng.normal(size=(40, 2))
        perm = rng.permutation(40)
        base = label_by_distance(candidates, reference, good_fraction=0.4)
        shuffled = label_by_distance(candidates[perm], reference, good_fraction=0.4)
        assert shuffled.labels.tolist() == base.labels[perm].tolist()

    def test_fraction_one_keeps_everything(self):
        _, reference = _gaussian(1)
        ds = label_by_distance(np.arange(5.0)[:, None], reference, good_fraction=1.0)
        assert int(ds.labels.sum()) == 5

    def test_fraction_outside_unit_interval_is_rejected(self):
        _, reference = _gaussian(1)
        candidates = np.arange(4.0)[:, None]
        with pytest.raises(InputValidationError):
            label_by_distance(candidates, reference, good_fraction=0.0)
        with pytest.raises(InputValidationError):
            label_by_distance(candidates, reference, good_fraction=1.2)

    def test_dimension_mismatch_is_rejected(self):
        _, reference = _gaussian(1)
        with pytest.raises(InputValidationError):
            label_by_distance(np.zeros((4, 2)), reference, good_fraction=0.5)

    def test_labeled_dataset_rejects_non_binary_labels(self):
        with pytest.raises(InputValidationError):
            LabeledDataset(np.zeros((2, 1)), np.array([0, 2]))

    def test_labeled_dataset_rejects_misaligned_features(self):
        with pytest.raises(InputValidationError):
            LabeledDataset(np.zeros((2, 1)), np.array([0, 1]), features=np.zeros((3, 1)))


class TestForward:
    def test_zero_parameters_score_one_half(self):
        params = _zero_params(feature_dim=2, hidden_dim=3)
        assert forward_batch(params, np.array([[0.4, -1.0]]))[0] == 0.5

    def test_dead_hidden_layer_reduces_to_output_bias(self):
        params = FilterParams(np.zeros((2, 1)), np.full(2, -1.0), np.ones(2), -1.5)
        expected = 1.0 / (1.0 + math.exp(1.5))
        np.testing.assert_allclose(forward_batch(params, np.array([[3.0]])), [expected], rtol=1e-12)

    def test_scores_lie_in_the_open_unit_interval(self):
        params = init_filter_params(3, 8, np.random.default_rng(2))
        feats = np.random.default_rng(4).normal(size=(64, 3))
        weights = forward_batch(params, feats)
        assert weights.shape == (64,)
        assert np.all((weights > 0.0) & (weights < 1.0))

    def test_saturated_logits_do_not_overflow(self):
        low = FilterParams(np.zeros((2, 1)), np.zeros(2), np.zeros(2), -1000.0)
        high = FilterParams(np.zeros((2, 1)), np.zeros(2), np.zeros(2), 1000.0)
        feats = np.zeros((3, 1))
        np.testing.assert_array_equal(forward_batch(low, feats), np.zeros(3))
        np.testing.assert_array_equal(forward_batch(high, feats), np.ones(3))

    def test_one_pass_sigmoid_matches_the_two_branch_formula(self):
        special = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 700.0, -700.0, 745.0, -745.0]
        logits = np.concatenate(
            [special, [np.inf, -np.inf], np.random.default_rng(3).normal(scale=30.0, size=2000)]
        )
        expected = np.empty_like(logits)
        pos = logits >= 0.0
        expected[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
        exp_neg = np.exp(logits[~pos])
        expected[~pos] = exp_neg / (1.0 + exp_neg)
        got = filtering._sigmoid(logits)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_batch_scores_match_single_calls(self):
        params = init_filter_params(2, 4, np.random.default_rng(8))
        feats = np.random.default_rng(9).normal(size=(10, 2))
        batch = forward_batch(params, feats)
        singles = np.array([forward_batch(params, row[None, :])[0] for row in feats])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_wrong_feature_dimension_is_rejected(self):
        params = _zero_params(feature_dim=2)
        with pytest.raises(InputValidationError):
            forward_batch(params, np.zeros((1, 3)))
        with pytest.raises(InputValidationError):
            forward_batch(params, np.zeros((4, 3)))

    def test_init_respects_shapes_bounds_and_seed(self):
        params = init_filter_params(3, 5, np.random.default_rng(42))
        assert params.w1.shape == (5, 3) and params.w2.shape == (5,)
        assert params.hidden_dim == 5 and params.feature_dim == 3
        np.testing.assert_array_equal(params.b1, np.zeros(5))
        assert params.b2 == 0.0
        assert np.all(np.abs(params.w1) <= math.sqrt(6.0 / 8.0))
        replay = init_filter_params(3, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(params.w1, replay.w1)
        np.testing.assert_array_equal(params.w2, replay.w2)

    def test_init_rejects_non_positive_dimensions(self):
        with pytest.raises(InputValidationError):
            init_filter_params(0, 4, np.random.default_rng(0))
        with pytest.raises(InputValidationError):
            init_filter_params(2, 0, np.random.default_rng(0))

    def test_params_reject_mismatched_layer_shapes(self):
        with pytest.raises(InputValidationError):
            FilterParams(np.zeros((2, 1)), np.zeros(3), np.zeros(2), 0.0)
        with pytest.raises(InputValidationError):
            FilterParams(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)


class TestLosses:
    def _config(self, e_est, **training):
        model, theta_good = _gaussian(1)
        return TrainConfig(
            theta_good=theta_good,
            metric=LyapunovMetric.identity(1),
            e_est=np.array([e_est]),
            training=TrainingSpec(**training),
        )

    def test_uninformative_scores_give_log_two_cross_entropy(self):
        ds = _dataset([[0.0], [1.0], [2.0], [3.0]], [1, 0, 1, 0])
        np.testing.assert_allclose(
            loss_gradient(_zero_params(), ds, self._config(e_est=1.0))[0].class_part,
            math.log(2.0),
            rtol=1e-12,
        )

    def test_confident_correct_scores_give_tiny_cross_entropy(self):
        params = FilterParams(np.zeros((2, 1)), np.zeros(2), np.zeros(2), 40.0)
        ds = _dataset([[0.0], [1.0]], [1, 1])
        assert loss_gradient(params, ds, self._config(e_est=1.0))[0].class_part < 1e-10

    def test_classification_loss_requires_features(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.array([0, 1]))
        with pytest.raises(InputValidationError):
            loss_gradient(_zero_params(), ds, self._config(e_est=1.0))

    def test_contraction_hinge_value_is_exact(self):
        """Uniform half weights on {0, 2 sqrt 2} re-estimate to sqrt 2, so the
        certified level (1 - 1/2) * 3 = 1.5 is violated by exactly 0.5."""
        config = self._config(e_est=math.sqrt(3.0))
        ds = _dataset([[0.0], [2.0 * math.sqrt(2.0)]], [1, 0])
        np.testing.assert_allclose(
            loss_gradient(_zero_params(), ds, config)[0].contract_part, 0.5, rtol=1e-12
        )

    def test_contraction_hinge_is_zero_when_satisfied(self):
        config = self._config(e_est=math.sqrt(3.0))
        ds = _dataset([[0.0], [2.0]], [1, 0])
        assert loss_gradient(_zero_params(), ds, config)[0].contract_part == 0.0

    def test_symmetric_candidates_have_zero_contraction_loss(self):
        config = self._config(e_est=math.sqrt(3.0))
        ds = _dataset([[-1.0], [1.0]], [1, 0])
        assert loss_gradient(_zero_params(), ds, config)[0].contract_part == 0.0

    def test_total_loss_combines_parts_with_configured_weights(self):
        config = self._config(e_est=0.05, lambda_contract=2.5, ess_weight=0.1)
        rng = np.random.default_rng(31)
        pts = rng.normal(loc=1.0, size=(20, 1))
        ds = _dataset(pts, rng.integers(0, 2, size=20))
        params = init_filter_params(1, 4, rng)
        parts = loss_gradient(params, ds, config)[0]
        assert parts.total == parts.class_part + 2.5 * parts.contract_part + 0.1 * parts.ess_part
        # the parts recomputed from their definitions, one forward pass each
        weights = forward_batch(params, ds.features)
        p = np.clip(weights, 1e-12, 1.0 - 1e-12)
        y = ds.labels.astype(float)
        assert parts.class_part == float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
        e_new = weighted_estimate(config.model, ds.points, weights).theta - config.theta_good.theta
        v_new = config.metric.value(e_new)
        assert parts.contract_part == max(0.0, v_new - config.threshold)

    def test_uniform_weights_have_zero_ess_penalty(self):
        config = self._config(e_est=1.0, ess_weight=0.5)
        ds = _dataset([[0.0], [1.0], [2.0]], [1, 0, 1])
        assert loss_gradient(_zero_params(), ds, config)[0].ess_part == 0.0

    def test_ess_penalty_matches_direct_formula(self):
        config = self._config(e_est=1.0, lambda_contract=0.0, ess_weight=1.0)
        rng = np.random.default_rng(37)
        pts = rng.normal(size=(15, 1))
        ds = _dataset(pts, rng.integers(0, 2, size=15))
        params = init_filter_params(1, 3, rng)
        weights = forward_batch(params, ds.features)
        expected = 1.0 - (weights.sum() ** 2 / (weights**2).sum()) / 15
        parts = loss_gradient(params, ds, config)[0]
        np.testing.assert_allclose(parts.ess_part, expected, rtol=1e-12)

    def test_threshold_is_the_hinge_level_of_the_configs_own_anchor(self):
        from dataclasses import FrozenInstanceError, replace

        config = self._config(e_est=0.05)
        for cfg in (config, replace(config, e_est=np.array([0.3]))):
            v_est = cfg.metric.value(cfg.e_est)
            c_est = cfg.c_fn.value(cfg.metric, cfg.e_est)
            assert _bits(cfg.threshold) == _bits((1.0 - c_est) * v_est)
        assert config.threshold != replace(config, e_est=np.array([0.3])).threshold
        with pytest.raises(FrozenInstanceError):
            config.threshold = 0.0

    def test_config_rejects_metric_model_dimension_mismatch(self):
        _, theta_good = _gaussian(2)
        with pytest.raises(InputValidationError):
            TrainConfig(
                theta_good=theta_good, metric=LyapunovMetric.identity(3), e_est=np.zeros(3)
            )


class TestLossGradient:
    def _flatten(self, params: FilterParams) -> np.ndarray:
        return np.concatenate(
            [params.w1.ravel(), params.b1, params.w2, np.array([params.b2])]
        )

    def _unflatten(self, flat: np.ndarray, like: FilterParams) -> FilterParams:
        h, f = like.w1.shape
        return FilterParams(
            w1=flat[: h * f].reshape(h, f),
            b1=flat[h * f : h * f + h],
            w2=flat[h * f + h : h * f + 2 * h],
            b2=float(flat[-1]),
        )

    def _numeric_grad(self, params, ds, config) -> np.ndarray:
        flat = self._flatten(params)
        grad = np.empty_like(flat)
        for i in range(flat.size):
            h = 1e-6 * max(1.0, abs(flat[i]))
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            f_up = loss_gradient(self._unflatten(up, params), ds, config)[0].total
            f_down = loss_gradient(self._unflatten(down, params), ds, config)[0].total
            grad[i] = (f_up - f_down) / (2.0 * h)
        return grad

    def _random_case(self, seed: int, active_hinge: bool):
        rng = np.random.default_rng(seed)
        model, theta_good = _gaussian(2)
        pts = rng.normal(loc=[1.0, -0.5], scale=0.8, size=(24, 2))
        labels = np.tile([0, 1], 12)
        ds = _dataset(pts, labels)
        e_est = np.array([0.02, 0.01]) if active_hinge else np.array([50.0, 0.0])
        config = TrainConfig(
            theta_good=theta_good,
            metric=LyapunovMetric(np.array([[2.0, 0.3], [0.3, 1.0]])),
            e_est=e_est,
            training=TrainingSpec(lambda_contract=1.7, ess_weight=0.3),
        )
        params = init_filter_params(2, 3, rng)
        return params, ds, config

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences_with_active_hinge(self, seed):
        params, ds, config = self._random_case(seed, active_hinge=True)
        assert loss_gradient(params, ds, config)[0].contract_part > 0.0
        analytic = self._flatten(loss_gradient(params, ds, config)[1])
        numeric = self._numeric_grad(params, ds, config)
        scale = max(float(np.linalg.norm(numeric)), 1e-12)
        assert float(np.linalg.norm(analytic - numeric)) / scale < 1e-5

    @pytest.mark.parametrize("seed", range(10, 20))
    def test_gradient_matches_finite_differences_with_inactive_hinge(self, seed):
        params, ds, config = self._random_case(seed, active_hinge=False)
        assert loss_gradient(params, ds, config)[0].contract_part == 0.0
        analytic = self._flatten(loss_gradient(params, ds, config)[1])
        numeric = self._numeric_grad(params, ds, config)
        scale = max(float(np.linalg.norm(numeric)), 1e-12)
        assert float(np.linalg.norm(analytic - numeric)) / scale < 1e-5

    def test_inactive_hinge_gradient_equals_classification_only_gradient(self):
        from dataclasses import replace

        params, ds, config = self._random_case(99, active_hinge=False)
        config = replace(config, training=replace(config.training, ess_weight=0.0))
        with_hinge = loss_gradient(params, ds, config)[1]
        no_hinge = replace(config.training, lambda_contract=0.0)
        without = loss_gradient(params, ds, replace(config, training=no_hinge))[1]
        np.testing.assert_array_equal(with_hinge.w1, without.w1)
        np.testing.assert_array_equal(with_hinge.w2, without.w2)
        assert with_hinge.b2 == without.b2

    def test_zero_parameters_with_balanced_labels_sit_at_a_stationary_point(self):
        model, theta_good = _gaussian(1)
        config = TrainConfig(
            theta_good=theta_good,
            metric=LyapunovMetric.identity(1),
            e_est=np.array([10.0]),
            training=TrainingSpec(lambda_contract=0.0, ess_weight=0.0),
        )
        ds = _dataset([[0.5], [1.5], [2.5], [3.5]], [1, 0, 1, 0])
        grad = loss_gradient(_zero_params(), ds, config)[1]
        np.testing.assert_array_equal(grad.w1, np.zeros((2, 1)))
        np.testing.assert_array_equal(grad.b1, np.zeros(2))
        np.testing.assert_array_equal(grad.w2, np.zeros(2))
        assert grad.b2 == 0.0

    @pytest.mark.parametrize("active_hinge", [True, False], ids=["hinge-on", "hinge-off"])
    def test_workspace_pass_gives_the_bits_of_an_allocating_pass(self, active_hinge):
        params, ds, config = self._random_case(7, active_hinge)
        fresh = loss_gradient(params, ds, config)
        work = filtering._Workspace.for_run(ds, params.hidden_dim)
        for buf in (work.hidden, work.dpre):
            buf.fill(np.nan)
        work.active.fill(True)
        for _ in range(2):  # stale contents, then the previous pass's, must not leak
            parts, grad = loss_gradient(params, ds, config, work)
            assert _bits(*parts) == _bits(*fresh[0])
            assert _param_bits(grad) == _param_bits(fresh[1])

    @staticmethod
    def _reference_gradient(params, ds, config) -> FilterParams:
        """loss_gradient's gradient with the backward pass in its literal form,
        ``dlogit[:, None] * w2 * (pre > 0)``, and a separate pre-activation."""
        feats, y, n = ds.features, ds.labels.astype(float), len(ds)
        lam, mu = config.training.lambda_contract, config.training.ess_weight
        pre = feats @ params.w1.T + params.b1
        hidden = np.maximum(pre, 0.0)
        weights = filtering._sigmoid(hidden @ params.w2 + params.b2)
        theta_new = weighted_estimate(config.model, ds.points, weights)
        e_new = theta_new.theta - config.theta_good.theta
        s1, s2 = float(weights.sum()), float((weights * weights).sum())
        dlogit = (weights - y) / n
        if lam > 0.0 and config.metric.value(e_new) - config.threshold > 0.0:
            tbar = expfam._mean_statistic(ds.points[None], weights[None])[0]
            g_theta = 2.0 * (config.metric.p_matrix @ e_new)
            g_tbar = g_theta / expfam._mean_slope(config.model.family, theta_new.theta)
            g_w = (ds.points - tbar[None, :]) @ g_tbar / s1
            dlogit = dlogit + lam * g_w * weights * (1.0 - weights)
        if mu > 0.0:
            g_w = -(2.0 * s1 * s2 - s1 * s1 * 2.0 * weights) / (n * s2 * s2)
            dlogit = dlogit + mu * g_w * weights * (1.0 - weights)
        dpre = dlogit[:, None] * params.w2 * (pre > 0)
        return FilterParams(dpre.T @ feats, dpre.sum(axis=0), hidden.T @ dlogit, dlogit.sum())

    @pytest.mark.parametrize("zero_w2", [False, True], ids=["w2-nonzero", "w2-zero-entry"])
    @pytest.mark.parametrize("active_hinge", [True, False], ids=["hinge-on", "hinge-off"])
    def test_backward_pass_gives_the_bits_of_the_literal_products(self, active_hinge, zero_w2):
        """Unit 0 is dead (its pre-activation is negative at every point), and
        label-1 points give negative dlogit, so the masked products are -0.0
        there; an exactly zero output weight makes the products of a live
        unit zeros of both signs, which the outer product writes as +0.0."""
        params, ds, config = self._random_case(11, active_hinge)
        w1, b1, w2 = params.w1.copy(), params.b1.copy(), params.w2.copy()
        w1[0], b1[0] = 0.0, -1.0
        if zero_w2:
            w2[1] = 0.0
        params = FilterParams(w1, b1, w2, params.b2)
        pre = ds.features @ w1.T + b1
        assert (pre[:, 0] < 0.0).all() and (pre[:, 1:] > 0.0).any()
        parts, grad = loss_gradient(params, ds, config)
        assert (parts.contract_part > 0.0) == active_hinge
        assert _param_bits(grad) == _param_bits(self._reference_gradient(params, ds, config))

    def test_all_zero_weights_under_hinge_term_are_rejected(self):
        params, ds, config = self._random_case(5, active_hinge=True)
        dead = FilterParams(np.zeros_like(params.w1), params.b1 * 0.0, params.w2 * 0.0, -1000.0)
        with pytest.raises(DegenerateSelectionError):
            loss_gradient(dead, ds, config)


class TestAdamStep:
    @staticmethod
    def _fresh_state(x):
        return np.zeros_like(x), np.zeros_like(x), 0

    def test_zero_gradient_leaves_parameters_unchanged(self):
        x = np.random.default_rng(1).uniform(-1.0, 1.0, size=13)
        new_x, (_, _, step) = adam_step(x, np.zeros_like(x), self._fresh_state(x), 0.01)
        np.testing.assert_array_equal(new_x, x)
        assert step == 1

    def test_first_step_moves_by_learning_rate_in_sign_direction(self):
        x = np.zeros(7)
        grad = np.array([0.5, -0.25, 0.0, 0.0, 0.0, 0.0, 0.75])
        new_x, _ = adam_step(x, grad, self._fresh_state(x), 0.01)
        np.testing.assert_allclose(new_x, -0.01 * np.sign(grad), atol=1e-8)

    def test_step_is_deterministic(self):
        rng = np.random.default_rng(17)
        x, grad = rng.uniform(-1.0, 1.0, size=(2, 9))
        once, _ = adam_step(x, grad, self._fresh_state(x), 0.01)
        again, _ = adam_step(x, grad, self._fresh_state(x), 0.01)
        np.testing.assert_array_equal(once, again)


class TestTrainFilter:
    def _separable_dataset(self, n_per_side: int = 100):
        rng = np.random.default_rng(101)
        good = rng.normal(loc=-2.0, scale=0.3, size=(n_per_side, 1))
        bad = rng.normal(loc=2.0, scale=0.3, size=(n_per_side, 1))
        points = np.vstack([good, bad])
        labels = np.concatenate([np.ones(n_per_side, dtype=int), np.zeros(n_per_side, dtype=int)])
        return _dataset(points, labels)

    def _config(self, ds, **overrides):
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta_good = Parameter(np.array([-2.0]), model)
        training = dict(
            lambda_contract=0.0, ess_weight=0.0, learning_rate=0.05, epochs=150, hidden_dim=8
        )
        training.update(overrides)
        return TrainConfig(
            theta_good=theta_good,
            metric=LyapunovMetric.identity(1),
            e_est=estimate(model, ds.points).theta - theta_good.theta,
            training=TrainingSpec(**training),
        )

    def test_separable_clusters_are_classified_nearly_perfectly(self):
        ds = self._separable_dataset()
        params, log = train_filter(ds, self._config(ds), np.random.default_rng(0))
        scores = forward_batch(params, ds.features)
        accuracy = float(np.mean((scores >= 0.5) == (ds.labels == 1)))
        assert accuracy >= 0.99
        assert log[-1].total < log[0].total

    def test_zero_epochs_return_untrained_params_and_empty_log(self):
        ds = self._separable_dataset(10)
        params, log = train_filter(ds, self._config(ds, epochs=0), np.random.default_rng(0))
        assert log == []
        assert params.w1.shape == (8, 1)

    def test_log_has_one_row_per_update_and_rows_recombine_exactly(self):
        ds = self._separable_dataset(10)
        config = self._config(ds, epochs=5, lambda_contract=2.5, ess_weight=0.1)
        _, log = train_filter(ds, config, np.random.default_rng(2))
        assert len(log) == 5
        for row in log:
            assert row.total == row.class_part + 2.5 * row.contract_part + 0.1 * row.ess_part

    def test_last_log_row_is_the_loss_of_the_returned_parameters(self):
        ds = self._separable_dataset(10)
        config = self._config(ds, epochs=7, lambda_contract=2.5, ess_weight=0.1)
        params, log = train_filter(ds, config, np.random.default_rng(4))
        assert log[-1] == loss_gradient(params, ds, config)[0]

    @pytest.mark.parametrize("epochs", [0, 1, 6])
    def test_each_update_costs_one_forward_pass(self, monkeypatch, epochs):
        calls = []
        forward = filtering._forward_cache

        def counting_forward(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(filtering, "_forward_cache", counting_forward)
        ds = self._separable_dataset(10)
        train_filter(ds, self._config(ds, epochs=epochs), np.random.default_rng(5))
        assert len(calls) == epochs + 1

    @staticmethod
    def _reference_training(ds, config, rng):
        """train_filter's loop, spelled out with the public, allocating loss_gradient."""
        spec = config.training
        params = init_filter_params(ds.features.shape[1], spec.hidden_dim, rng)
        h, f = params.w1.shape
        flat = lambda p: np.concatenate([p.w1.ravel(), p.b1, p.w2, [p.b2]])  # noqa: E731
        x = flat(params)
        state = (np.zeros_like(x), np.zeros_like(x), 0)
        _, grad = loss_gradient(params, ds, config)
        log = []
        for _ in range(spec.epochs):
            x, state = adam_step(x, flat(grad), state, spec.learning_rate)
            params = FilterParams(x[: h * f].reshape(h, f), x[h * f : h * f + h],
                                  x[h * f + h : -1], x[-1])
            parts, grad = loss_gradient(params, ds, config)
            log.append(parts)
        return params, log

    @pytest.mark.parametrize("epochs", [0, 1, 9])
    def test_training_matches_a_reference_loop_bit_for_bit(self, epochs):
        """Every gradient branch runs: the hinge is on and the ESS term is weighted."""
        rng = np.random.default_rng(23)
        pts = rng.normal(loc=[1.0, -0.5], scale=0.8, size=(300, 2))
        ds = _dataset(pts, rng.integers(0, 2, size=300))
        config = TrainConfig(
            theta_good=_gaussian(2)[1],
            metric=LyapunovMetric(np.array([[2.0, 0.3], [0.3, 1.0]])),
            e_est=np.array([0.02, 0.01]),
            training=TrainingSpec(
                lambda_contract=1.7, ess_weight=0.3, epochs=epochs, hidden_dim=6,
                learning_rate=0.05,
            ),
        )
        params, log = train_filter(ds, config, np.random.default_rng(11))
        ref_params, ref_log = self._reference_training(ds, config, np.random.default_rng(11))
        assert _param_bits(params) == _param_bits(ref_params)
        assert [_bits(*row) for row in log] == [_bits(*row) for row in ref_log]
        assert len(log) == epochs
        first = loss_gradient(init_filter_params(2, 6, np.random.default_rng(11)), ds, config)[0]
        assert first.contract_part > 0.0 and all(row.contract_part > 0.0 for row in log)

    def test_training_is_deterministic_for_a_fixed_seed(self):
        ds = self._separable_dataset(10)
        config = self._config(ds, epochs=20)
        params_a, log_a = train_filter(ds, config, np.random.default_rng(9))
        params_b, log_b = train_filter(ds, config, np.random.default_rng(9))
        np.testing.assert_array_equal(params_a.w1, params_b.w1)
        assert log_a == log_b

    def test_single_class_data_is_rejected(self):
        ds = _dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(InputValidationError):
            train_filter(ds, self._config(ds), np.random.default_rng(0))

    def test_missing_features_are_rejected(self):
        ds = LabeledDataset(np.zeros((4, 1)), np.array([0, 1, 0, 1]))
        with pytest.raises(InputValidationError):
            train_filter(ds, self._config(ds), np.random.default_rng(0))


class TestOraclePullback:
    def test_zero_pull_keeps_uniform_weights(self):
        _, theta_good = _gaussian(1)
        result = oracle_pullback_weights(np.arange(5.0)[:, None] + 1.0, theta_good, gamma=0.0)
        np.testing.assert_array_equal(result.weights, np.ones(5))
        assert result.achieved_gamma == 0.0 and result.target_reached

    def test_centered_candidates_need_no_tilt(self):
        _, theta_good = _gaussian(1)
        result = oracle_pullback_weights(np.array([[-1.0], [1.0]]), theta_good, gamma=0.8)
        np.testing.assert_array_equal(result.weights, np.ones(2))
        assert result.target_reached

    def test_half_pull_halves_the_offset(self):
        """The tilt can move the mean by a fraction of the cloud spread, so
        the offset must be small relative to the scale for a full pull."""
        _, theta_good = _gaussian(1)
        pts = np.random.default_rng(3).normal(loc=0.8, scale=1.0, size=(200, 1))
        result = oracle_pullback_weights(pts, theta_good, gamma=0.5)
        assert result.target_reached
        np.testing.assert_allclose(result.achieved_gamma, 0.5, atol=1e-6)
        pulled = float((pts[:, 0] * result.weights).sum() / result.weights.sum())
        np.testing.assert_allclose(pulled, 0.5 * pts.mean(), atol=1e-6)
        assert np.all((result.weights >= 0.0) & (result.weights <= 1.0))

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9, 1.0])
    def test_pulled_energy_follows_the_squared_schedule(self, gamma):
        model, theta_good = _gaussian(2)
        metric = LyapunovMetric.identity(2)
        pts = np.random.default_rng(7).normal(loc=[0.4, -0.3], scale=1.2, size=(150, 2))
        result = oracle_pullback_weights(pts, theta_good, gamma=gamma)
        assert result.target_reached
        e_est = estimate(model, pts).theta - theta_good.theta
        e_new = weighted_estimate(model, pts, result.weights).theta - theta_good.theta
        np.testing.assert_allclose(
            metric.value(e_new), (1.0 - gamma) ** 2 * metric.value(e_est), atol=1e-6
        )

    def test_reported_pull_matches_projection_of_the_weighted_mean(self):
        _, theta_good = _gaussian(2)
        pts = np.random.default_rng(21).normal(loc=[2.0, 1.0], size=(60, 2))
        result = oracle_pullback_weights(pts, theta_good, gamma=0.6)
        mean = pts.mean(axis=0)
        wmean = (pts * result.weights[:, None]).sum(axis=0) / result.weights.sum()
        expected = 1.0 - float(wmean @ mean) / float(mean @ mean)
        np.testing.assert_allclose(result.achieved_gamma, expected, atol=1e-12)

    def test_far_tight_cluster_reports_partial_pull(self):
        _, theta_good = _gaussian(1)
        pts = 10.0 + np.random.default_rng(11).normal(scale=0.05, size=(30, 1))
        result = oracle_pullback_weights(pts, theta_good, gamma=1.0)
        assert not result.target_reached
        assert 0.0 < result.achieved_gamma < 0.2
        assert float(result.weights.sum()) > 0.0

    @pytest.mark.parametrize(
        "constant, achieved, reached", [(0.0, 0.5, True), (0.75, 0.17382997189999294, False)]
    )
    def test_a_singular_spread_takes_the_least_squares_tilt(self, constant, achieved, reached):
        """A 2-d cloud with one constant coordinate, whose spread the stacked solve
        refuses, against pinned values. With the constant at the anchor's coordinate
        the target is reachable; off it, the pull is partial."""
        model, _ = _gaussian(2)
        theta_good = Parameter(np.array([0.3, 0.0]), model)
        pts = RngState(seed=31).generator().standard_normal((50, 2))
        pts[:, 1] = constant
        _assert_the_stacked_solve_refuses(np.stack([pts, pts[::-1]]))
        result = oracle_pullback_weights(pts, theta_good, gamma=0.5)
        assert hashlib.sha256(_bits(result.weights)).hexdigest() == (
            "ea9f386091b58e9ad3c6bbc6df4295fb0644fd4152a0990ccee08e6e24299482"
        )
        assert result.achieved_gamma == achieved and result.target_reached == reached
        chunk = FilterHandle.oracle_pullback(theta_good, 0.5).weights(np.stack([pts, pts[::-1]]))
        flipped = oracle_pullback_weights(pts[::-1], theta_good, gamma=0.5)
        assert _bits(chunk) == _bits(result.weights, flipped.weights)

    def test_candidates_without_spread_are_rejected(self):
        _, theta_good = _gaussian(1)
        with pytest.raises(DegenerateSelectionError, match="no spread"):
            oracle_pullback_weights(np.full((5, 1), 2.0), theta_good, gamma=0.5)

    def test_invalid_inputs_are_rejected(self):
        _, theta_good = _gaussian(1)
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(InputValidationError):
            oracle_pullback_weights(pts, theta_good, gamma=-0.1)
        with pytest.raises(InputValidationError):
            oracle_pullback_weights(pts, theta_good, gamma=1.0001)
        with pytest.raises(InputValidationError):
            oracle_pullback_weights(np.array([[1.0]]), theta_good, gamma=0.5)
        with pytest.raises(InputValidationError):
            oracle_pullback_weights(np.array([[np.inf], [1.0]]), theta_good, gamma=0.5)
        with pytest.raises(InputValidationError):
            oracle_pullback_weights(np.zeros((4, 2)), theta_good, gamma=0.5)


def _assert_the_stacked_solve_refuses(pts):
    """The stacked solve of the oracle's first step raises on the spreads of ``pts`` (rows, n, d)."""
    centered = pts - pts.mean(axis=1, keepdims=True)
    spread = np.matmul(centered.transpose(0, 2, 1), centered) / pts.shape[1]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(spread, np.ones(pts.shape[::2] + (1,)))


def _count_finished_rows(monkeypatch, pts) -> list[int]:
    """The rows of ``pts`` that the oracle kernel finishes one at a time, in call order."""
    finished = []
    continuation = filtering.oracle_pullback_weights

    def counting(row, *args):
        finished.append(next(r for r, p in enumerate(pts) if np.shares_memory(row, p)))
        return continuation(row, *args)

    monkeypatch.setattr(filtering, "oracle_pullback_weights", counting)
    return finished


class TestFilterHandle:
    def test_all_ones_handle_keeps_every_candidate(self):
        handle = FilterHandle.all_ones()
        np.testing.assert_array_equal(handle.weights(np.zeros((1, 7, 2)))[0], np.ones(7))

    def test_mlp_handle_matches_direct_scoring(self):
        rng = np.random.default_rng(33)
        data = rng.normal(size=(50, 3))
        pca = fit_pca(data, k=2)
        params = init_filter_params(2, 4, rng)
        handle = FilterHandle.mlp(params, pca)
        pts = rng.normal(size=(12, 3))
        np.testing.assert_array_equal(
            handle.weights(pts[None])[0], forward_batch(params, pca.transform(pts))
        )

    def test_oracle_handle_matches_direct_pullback(self):
        _, theta_good = _gaussian(2)
        pts = np.random.default_rng(35).normal(loc=[1.0, 1.0], size=(30, 2))
        handle = FilterHandle.oracle_pullback(theta_good, gamma=0.5)
        np.testing.assert_array_equal(
            handle.weights(pts[None])[0], oracle_pullback_weights(pts, theta_good, 0.5).weights
        )

    def test_mlp_handle_rejects_feature_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        pca = fit_pca(rng.normal(size=(20, 3)), k=2)
        params = init_filter_params(3, 4, rng)
        with pytest.raises(InputValidationError):
            FilterHandle.mlp(params, pca)

    def test_oracle_handle_requires_a_real_pull(self):
        _, theta_good = _gaussian(1)
        with pytest.raises(InputValidationError):
            FilterHandle.oracle_pullback(theta_good, gamma=0.0)
        with pytest.raises(InputValidationError):
            FilterHandle.oracle_pullback(theta_good, gamma=1.5)

    def test_unknown_kind_and_bad_points_are_rejected(self):
        with pytest.raises(InputValidationError):
            FilterHandle(kind="nope").weights(np.zeros((2, 1)))
        with pytest.raises(InputValidationError):
            FilterHandle.all_ones().weights(np.zeros(3))
        for kind in ("all-ones", "oracle-pullback", "mlp"):  # one (n, d) set is not a chunk
            with pytest.raises(InputValidationError, match="stack"):
                self._handle(kind, 2).weights(np.ones((5, 2)))

    @staticmethod
    def _handle(kind, dim, gamma=0.5):
        rng = np.random.default_rng(50 + dim)
        if kind == "all-ones":
            return FilterHandle.all_ones()
        if kind == "oracle-pullback":
            return FilterHandle.oracle_pullback(_gaussian(dim)[1], gamma)
        pca = fit_pca(rng.normal(size=(40, dim)), k=min(dim, 2))
        return FilterHandle.mlp(init_filter_params(pca.k, 8, rng), pca)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["all-ones", "oracle-pullback", "mlp"])
    def test_a_chunk_gives_each_row_the_bits_of_its_own_call(self, kind, dim):
        handle = self._handle(kind, dim)
        pts = np.random.default_rng(60 + dim).normal(loc=0.4, size=(7, 50, dim))
        chunk = handle.weights(pts)
        assert chunk.shape == (7, 50)
        assert _bits(chunk) == _bits(*(handle.weights(p[None])[0] for p in pts))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_oracle_chunk_mixes_batched_and_fallback_rows_bitwise(self, monkeypatch, dim, gamma):
        _, theta_good = _gaussian(dim)
        rng = np.random.default_rng(70 + dim)
        # near rows meet the tolerance at the first residual; far ones clip and need Newton steps
        locs = np.array([0.1, 3.0, 0.2, 6.0, 0.05, 0.3])[:, None, None]
        pts = rng.normal(size=(6, 40, dim)) + locs
        # integer points and their negatives: a mean of exactly zero, the anchor's
        half = rng.integers(-3, 4, size=(20, dim)).astype(float)
        pts = np.concatenate([pts, np.concatenate([half, -half])[None]])
        handle = FilterHandle.oracle_pullback(theta_good, gamma)
        finished = _count_finished_rows(monkeypatch, pts)
        chunk = handle.weights(pts)
        assert 0 < len(finished) < len(pts) and finished[-1] == len(pts) - 1
        rows = [oracle_pullback_weights(p, theta_good, gamma).weights for p in pts]
        assert _bits(chunk) == _bits(*rows)
        np.testing.assert_array_equal(rows[-1], np.ones(40))

    @pytest.mark.parametrize("family, singular", [("gaussian", 2), ("bernoulli", 0)])
    def test_a_singular_spread_sends_the_chunk_per_row_with_the_same_bits(
        self, monkeypatch, family, singular
    ):
        """One row with a constant coordinate makes the stacked solve raise, so
        no row is batched; every row then gets the bits of its own call."""
        model = ExpFamilyModel(family, 2)
        theta_good = Parameter(np.array([0.2, -0.1]), model)
        rng = np.random.default_rng(95)
        if family == "bernoulli":
            pts = (rng.random((6, 40, 2)) < 0.45).astype(float)
            pts[singular, :, 1] = 1.0
        else:
            pts = rng.normal(loc=0.3, size=(6, 40, 2))
            pts[singular, :, 0] = 0.5
        _assert_the_stacked_solve_refuses(pts)
        finished = _count_finished_rows(monkeypatch, pts)
        chunk = FilterHandle.oracle_pullback(theta_good, 0.5).weights(pts)
        assert finished == list(range(len(pts)))
        rows = [oracle_pullback_weights(p, theta_good, 0.5).weights for p in pts]
        assert _bits(chunk) == _bits(*rows)

    def test_oracle_chunk_raises_the_lowest_failing_rows_own_error(self):
        _, theta_good = _gaussian(2)
        pts = np.random.default_rng(80).normal(loc=0.5, size=(5, 30, 2))
        pts[1] = 1.0  # no spread
        pts[3, 0, 0] = np.nan
        handle = FilterHandle.oracle_pullback(theta_good, 0.5)
        with pytest.raises(DegenerateSelectionError) as chunk_error:
            handle.weights(pts)
        with pytest.raises(DegenerateSelectionError) as row_error:
            handle.weights(pts[1:2])
        assert str(chunk_error.value) == str(row_error.value)
        with pytest.raises(InputValidationError, match="finite"):
            handle.weights(pts[2:])

    def test_forward_batch_on_a_stack_matches_its_row_calls(self):
        rng = np.random.default_rng(90)
        params = init_filter_params(2, 16, rng)
        feats = rng.normal(size=(4, 33, 2))
        stacked = forward_batch(params, feats)
        assert stacked.shape == (4, 33)
        assert _bits(stacked) == _bits(*(forward_batch(params, f) for f in feats))
        with pytest.raises(InputValidationError):
            forward_batch(params, feats[..., :1])


class TestTrainingSpec:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("lambda_contract", -0.1),
            ("ess_weight", -0.5),
            ("learning_rate", 0.0),
            ("epochs", -1),
            ("epochs", 2.5),
            ("hidden_dim", 0),
            ("hidden_dim", 1.5),
            ("rounds", 0),
            ("contamination", 1.0),
            ("drift_scale", -0.5),
            ("candidates_per_round", 1),
        ],
    )
    def test_out_of_range_fields_are_rejected(self, field, value):
        with pytest.raises(InputValidationError):
            TrainingSpec(**{field: value})

    @pytest.mark.parametrize(
        "field, message",
        [
            ("drift_scale", "training.drift_scale must be nonnegative"),
            ("lambda_contract", "training loss weights must be nonnegative"),
            ("ess_weight", "training loss weights must be nonnegative"),
            ("learning_rate", "training.learning_rate must be positive"),
        ],
        ids=["drift_scale", "lambda_contract", "ess_weight", "learning_rate"],
    )
    def test_a_nan_field_is_rejected(self, field, message):
        with pytest.raises(InputValidationError, match=f"^{re.escape(message)}$"):
            TrainingSpec(**{field: math.nan})


class TestDriftTrainingData:
    def _run(self, **overrides):
        model, theta_star = _gaussian(2)
        rng = overrides.pop("rng", RngState(seed=123))
        training = dict(rounds=3, candidates_per_round=50, contamination=0.3)
        training.update(overrides)
        spec = TrainingSpec(**training)
        return simulate_drift_training_data(model, theta_star, spec, rng), model, theta_star

    def test_shapes_and_label_counts_per_round(self):
        (pool, trace), model, theta_star = self._run()
        assert pool.points.shape == (150, 2) and trace.shape == (4, 2)
        np.testing.assert_array_equal(trace[0], theta_star.theta)
        for r in range(3):
            assert int(pool.labels[50 * r : 50 * (r + 1)].sum()) == 35

    def test_rounds_are_pooled_in_round_order(self):
        (pool, _), _, _ = self._run()
        (first, _), _, _ = self._run(rounds=1)
        np.testing.assert_array_equal(pool.points[:50], first.points)
        np.testing.assert_array_equal(pool.labels[:50], first.labels)

    def test_clean_rounds_label_everything_good(self):
        (pool, _), _, _ = self._run(contamination=0.0)
        assert pool.labels.tolist() == [1] * 150

    def test_contaminated_rounds_drag_the_chain_along_the_drift_direction(self):
        (_, trace), model, _ = self._run(
            rounds=4, candidates_per_round=400, contamination=0.4, drift_scale=2.0
        )
        direction = np.ones(2) / math.sqrt(2.0)
        assert float((trace[-1] - trace[0]) @ direction) > 1.0

    def test_same_state_replays_identically(self):
        (pool_a, trace_a), _, _ = self._run(rng=RngState(seed=77))
        (pool_b, trace_b), _, _ = self._run(rng=RngState(seed=77))
        np.testing.assert_array_equal(trace_a, trace_b)
        np.testing.assert_array_equal(pool_a.points, pool_b.points)
        np.testing.assert_array_equal(pool_a.labels, pool_b.labels)

    def test_a_plain_generator_is_rejected(self):
        with pytest.raises(InputValidationError):
            self._run(rng=np.random.default_rng(0))

    def test_model_mismatch_is_rejected(self):
        model, _ = _gaussian(1)
        other = ExpFamilyModel(GAUSSIAN, 2)
        with pytest.raises(InputValidationError):
            simulate_drift_training_data(
                model,
                Parameter(np.zeros(2), other),
                TrainingSpec(rounds=1, candidates_per_round=4, contamination=0.0),
                RngState(seed=0),
            )


class TestAnchors:
    def test_anchors_match_direct_estimates(self):
        model, _ = _gaussian(2)
        rng = np.random.default_rng(41)
        pts = rng.normal(size=(30, 2))
        labels = rng.integers(0, 2, size=30)
        ds = LabeledDataset(pts, labels)
        theta_est, theta_good = anchors_from_dataset(model, ds)
        np.testing.assert_array_equal(theta_est.theta, estimate(model, pts).theta)
        np.testing.assert_array_equal(
            theta_good.theta, estimate(model, pts[labels == 1]).theta
        )

    def test_anchors_require_at_least_one_good_point(self):
        model, _ = _gaussian(1)
        ds = LabeledDataset(np.zeros((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(InputValidationError):
            anchors_from_dataset(model, ds)


class TestCheckpoint:
    def _artifacts(self):
        rng = np.random.default_rng(55)
        data = rng.normal(size=(40, 3))
        pca = fit_pca(data, k=2)
        params = init_filter_params(2, 4, rng)
        meta = {"seed": 7, "epochs": 12, "hidden_dim": 4}
        return params, pca, meta

    def test_round_trip_preserves_every_field_exactly(self, tmp_path):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)
        loaded_params, loaded_pca, loaded_meta = load_filter_checkpoint(path)

        def bits(value):
            return np.asarray(value, dtype=float).view(np.int64)

        for name in ("mean", "scale", "projection", "explained_variance_ratio"):
            np.testing.assert_array_equal(bits(getattr(loaded_pca, name)), bits(getattr(pca, name)))
        assert loaded_pca.zero_variance.dtype == bool
        np.testing.assert_array_equal(loaded_pca.zero_variance, pca.zero_variance)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(
                bits(getattr(loaded_params, name)), bits(getattr(params, name))
            )
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert payload.pop("content_hash") == content_hash(payload)
        assert loaded_meta == meta

    @pytest.mark.parametrize(
        "section, key",
        [("pca", key) for key in
         ("mean", "scale", "projection", "explained_variance_ratio", "zero_variance")]
        + [("params", key) for key in ("hidden_dim", "feature_dim", "w1", "b1", "w2", "b2")],
    )
    def test_a_missing_stored_key_is_reported_as_malformed(self, tmp_path, section, key):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)
        self._tamper(path, lambda p: p[section].pop(key))
        with pytest.raises(InputValidationError, match=f"malformed checkpoint: '{key}'"):
            load_filter_checkpoint(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_weight_is_a_runtime_failure_naming_the_file(self, tmp_path, value):
        params, pca, meta = self._artifacts()
        broken = FilterParams(params.w1, params.b1, params.w2, value)
        path = tmp_path / "checkpoint.json"
        with pytest.raises(CollapseGuardError, match=f"^cannot write {re.escape(str(path))} ") as info:
            save_filter_checkpoint(path, broken, pca, meta)
        assert not isinstance(info.value, InputValidationError)  # exit 3, not 1
        assert list(tmp_path.iterdir()) == []

    def _tamper(self, path, mutate):
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("version", [1, 99])
    def test_unsupported_version_is_rejected(self, tmp_path, version):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)
        self._tamper(path, lambda p: p.update(format_version=version))
        with pytest.raises(InputValidationError, match=f"format_version {version};"):
            load_filter_checkpoint(path)

    def test_inconsistent_scorer_shape_is_rejected(self, tmp_path):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)
        self._tamper(path, lambda p: p["params"]["w1"].pop())
        with pytest.raises(InputValidationError):
            load_filter_checkpoint(path)

    def test_tampered_config_echo_fails_the_hash_check(self, tmp_path):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)
        self._tamper(path, lambda p: p["train_config"].update(seed=999))
        with pytest.raises(InputValidationError, match="hash"):
            load_filter_checkpoint(path)

    @pytest.mark.parametrize(
        "keys", [("params", "w1", 0, 0), ("params", "b2"), ("pca", "mean", 0)]
    )
    def test_tampered_weights_or_pca_fail_the_hash_check(self, tmp_path, keys):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)

        def nudge(payload):
            *parents, last = keys
            for key in parents:
                payload = payload[key]
            payload[last] += 0.5

        self._tamper(path, nudge)
        with pytest.raises(InputValidationError, match="hash"):
            load_filter_checkpoint(path)

    def test_missing_sections_are_reported_as_malformed(self, tmp_path):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)
        self._tamper(path, lambda p: p.pop("params"))
        with pytest.raises(InputValidationError, match="malformed"):
            load_filter_checkpoint(path)

    def test_non_object_config_echo_is_reported_as_malformed(self, tmp_path):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)

        def rehash_with_list_echo(payload):
            payload.pop("content_hash")
            payload["train_config"] = [1, 2]
            payload["content_hash"] = content_hash(payload)

        self._tamper(path, rehash_with_list_echo)
        with pytest.raises(InputValidationError, match="train_config must be a JSON object"):
            load_filter_checkpoint(path)

    @pytest.mark.parametrize("failure", ["unencodable-meta", "failed-rename"])
    def test_a_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch, failure):
        params, pca, meta = self._artifacts()
        path = tmp_path / "checkpoint.json"
        save_filter_checkpoint(path, params, pca, meta)
        before = path.read_bytes()
        if failure == "unencodable-meta":
            meta, expected = {**meta, "note": object()}, TypeError
        else:
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", refuse)
            meta, expected = {**meta, "seed": 8}, OSError
        with pytest.raises(expected):
            save_filter_checkpoint(path, params, pca, meta)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]

    def test_config_hash_ignores_key_order_but_not_values(self):
        a = content_hash({"alpha": 1, "beta": [1, 2]})
        b = content_hash({"beta": [1, 2], "alpha": 1})
        c = content_hash({"alpha": 2, "beta": [1, 2]})
        assert a == b and a != c
        assert len(a) == 64 and all(ch in "0123456789abcdef" for ch in a)
