"""Tests for the WCRT pipeline: normalisation, PCA, K-means, subsetting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    NormalizationModel,
    choose_k_bic,
    fit_kmeans,
    fit_pca,
    gaussian_normalize,
    reduce_workloads,
)
from repro.core.kmeans import bic_score


def blobs(n_clusters=3, per_cluster=20, dims=5, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(n_clusters, dims))
    points = np.vstack(
        [
            center + rng.normal(0, spread, size=(per_cluster, dims))
            for center in centers
        ]
    )
    labels = np.repeat(np.arange(n_clusters), per_cluster)
    return points, labels


class TestNormalize:
    def test_zero_mean_unit_std(self):
        matrix = np.random.default_rng(1).normal(5, 3, size=(40, 6))
        normalized, _model = gaussian_normalize(matrix)
        assert np.allclose(normalized.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(normalized.std(axis=0), 1, atol=1e-9)

    def test_constant_column_safe(self):
        matrix = np.ones((10, 3))
        matrix[:, 0] = np.arange(10)
        normalized, _model = gaussian_normalize(matrix)
        assert np.all(np.isfinite(normalized))
        assert np.allclose(normalized[:, 1], 0)

    def test_inverse_roundtrip(self):
        matrix = np.random.default_rng(2).normal(0, 2, size=(20, 4))
        normalized, model = gaussian_normalize(matrix)
        assert np.allclose(model.inverse(normalized), matrix)

    def test_transform_shape_check(self):
        matrix = np.random.default_rng(3).normal(size=(10, 4))
        _, model = gaussian_normalize(matrix)
        with pytest.raises(ValueError):
            model.transform(np.zeros((5, 3)))

    def test_rejects_nonfinite(self):
        matrix = np.zeros((5, 2))
        matrix[0, 0] = np.nan
        with pytest.raises(ValueError):
            gaussian_normalize(matrix)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            gaussian_normalize(np.zeros((1, 3)))

    @given(
        arrays(
            np.float64, (12, 4),
            elements=st.floats(min_value=-1e4, max_value=1e4),
        ).filter(lambda m: m.std(axis=0).min() > 1e-6)
    )
    @settings(max_examples=20, deadline=None)
    def test_normalization_idempotent_statistics(self, matrix):
        normalized, _ = gaussian_normalize(matrix)
        renormalized, _ = gaussian_normalize(normalized)
        assert np.allclose(normalized, renormalized, atol=1e-6)


class TestPca:
    def test_explained_variance_descending(self):
        matrix = np.random.default_rng(4).normal(size=(50, 8))
        model = fit_pca(matrix, n_components=5)
        variances = model.explained_variance
        assert all(a >= b - 1e-12 for a, b in zip(variances, variances[1:]))

    def test_components_orthonormal(self):
        matrix = np.random.default_rng(5).normal(size=(60, 6))
        model = fit_pca(matrix, n_components=4)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_variance_threshold_selects_few_for_lowrank_data(self):
        rng = np.random.default_rng(6)
        basis = rng.normal(size=(2, 10))
        coefficients = rng.normal(size=(100, 2))
        matrix = coefficients @ basis + rng.normal(0, 1e-4, size=(100, 10))
        model = fit_pca(matrix, variance_to_keep=0.95)
        assert model.n_components <= 3

    def test_projection_reconstruction(self):
        matrix = np.random.default_rng(7).normal(size=(30, 5))
        model = fit_pca(matrix, n_components=5)
        projected = model.transform(matrix)
        reconstructed = model.inverse_transform(projected)
        assert np.allclose(reconstructed, matrix, atol=1e-8)

    def test_rejects_flat_matrix(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((10, 3)))


class TestKMeans:
    def test_recovers_separated_blobs(self):
        points, truth = blobs(n_clusters=4, seed=8)
        model = fit_kmeans(points, k=4, seed=1)
        # Each true cluster maps to exactly one predicted label.
        for cluster in range(4):
            labels = set(model.labels[truth == cluster])
            assert len(labels) == 1

    def test_inertia_decreases_with_k(self):
        points, _ = blobs(n_clusters=4, seed=9)
        coarse = fit_kmeans(points, k=2, seed=1)
        fine = fit_kmeans(points, k=8, seed=1)
        assert fine.inertia < coarse.inertia

    def test_predict_consistent_with_labels(self):
        points, _ = blobs(seed=10)
        model = fit_kmeans(points, k=3, seed=2)
        assert np.array_equal(model.predict(points), model.labels)

    def test_k_bounds(self):
        points, _ = blobs(seed=11)
        with pytest.raises(ValueError):
            fit_kmeans(points, k=0)
        with pytest.raises(ValueError):
            fit_kmeans(points, k=len(points) + 1)

    def test_k_equals_n(self):
        points = np.random.default_rng(12).normal(size=(6, 3))
        model = fit_kmeans(points, k=6, seed=1)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)

    def test_bic_prefers_true_k(self):
        points, _ = blobs(n_clusters=3, per_cluster=30, seed=13)
        chosen = choose_k_bic(points, k_min=2, k_max=8, seed=1)
        assert chosen == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_bic_recovers_a_planted_seventeen(self, seed):
        """The paper's K: 77 points in 6 dimensions around 17 centres
        drawn from N(0, 5), sigma 0.5, over the default range 2-30."""
        rng = np.random.default_rng(seed)
        centres = rng.normal(0, 5, size=(17, 6))
        labels = np.arange(77) % 17
        points = centres[labels] + rng.normal(0, 0.5, size=(77, 6))
        assert abs(choose_k_bic(points) - 17) <= 2

    def test_bic_score_finite(self):
        points, _ = blobs(seed=14)
        model = fit_kmeans(points, k=3, seed=1)
        assert np.isfinite(bic_score(points, model))


class TestReduceWorkloads:
    def test_representatives_cover_population(self):
        points, _ = blobs(n_clusters=5, per_cluster=10, seed=15)
        names = [f"w{i}" for i in range(len(points))]
        result = reduce_workloads(names, points, k=5, seed=3)
        assert result.n_clusters == 5
        covered = sorted(
            name for members in result.clusters.values() for name in members
        )
        assert covered == sorted(names)

    def test_represents_counts(self):
        points, _ = blobs(n_clusters=2, per_cluster=8, seed=16)
        names = [f"w{i}" for i in range(len(points))]
        result = reduce_workloads(names, points, k=2, seed=3)
        assert sum(result.represents(r) for r in result.representatives) == 16

    def test_representative_is_member(self):
        points, _ = blobs(seed=17)
        names = [f"w{i}" for i in range(len(points))]
        result = reduce_workloads(names, points, k=3, seed=3)
        for representative, members in result.clusters.items():
            assert representative in members

    def test_cluster_of(self):
        points, _ = blobs(seed=18)
        names = [f"w{i}" for i in range(len(points))]
        result = reduce_workloads(names, points, k=3, seed=3)
        assert result.cluster_of("w0") in result.representatives
        with pytest.raises(KeyError):
            result.cluster_of("missing")

    def test_duplicate_names_rejected(self):
        points, _ = blobs(seed=19)
        with pytest.raises(ValueError):
            reduce_workloads(["dup"] * len(points), points, k=3)

    def test_bic_mode(self):
        points, _ = blobs(n_clusters=3, per_cluster=15, seed=20)
        names = [f"w{i}" for i in range(len(points))]
        result = reduce_workloads(names, points, k=None, seed=3)
        assert result.n_clusters == 3

    def test_ordered_by_cluster_size(self):
        rng = np.random.default_rng(21)
        big = rng.normal(0, 0.05, size=(20, 4))
        small = rng.normal(10, 0.05, size=(5, 4))
        points = np.vstack([big, small])
        names = [f"w{i}" for i in range(25)]
        result = reduce_workloads(names, points, k=2, seed=3)
        sizes = [result.represents(r) for r in result.representatives]
        assert sizes == sorted(sizes, reverse=True)

