"""Tests for the Sobol design generator and design scaling."""

import numpy as np
import pytest
from scipy.stats import qmc

from toolwear.design import (
    _N_BITS,
    _SCALE,
    DesignBounds,
    _direction_integers,
    _sobol_state,
    augmentation_plan,
    scale_design,
    sobol_unit,
)
from toolwear.errors import DomainError, UnsupportedDimensionError


def sobol_unit_direct(dim, n, skip=0):
    """The direct binary construction, one point at a time; the scipy
    comparisons below are the independent check of the sequence itself."""
    v = _direction_integers(dim)
    return np.array([_sobol_state(skip + i, v).astype(float) * _SCALE for i in range(n)])


def scipy_sobol(dim, n, skip=0):
    gen = qmc.Sobol(d=dim, scramble=False)
    if skip:
        gen.fast_forward(skip)
    return gen.random(n)


class TestSobolUnit:
    def test_first_points_1d(self):
        pts = sobol_unit(1, 4)
        assert np.allclose(pts[:, 0], [0.0, 0.5, 0.75, 0.25])

    def test_first_points_2d(self):
        pts = sobol_unit(2, 4)
        expected = np.array([[0.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.25, 0.75]])
        assert np.allclose(pts, expected)

    def test_matches_scipy_all_supported_dims(self):
        for dim in range(1, 17):
            ours = sobol_unit(dim, 64)
            ref = scipy_sobol(dim, 64)
            assert np.allclose(ours, ref, atol=1e-15), f"dim {dim}"

    def test_matches_direct_binary_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dim = int(rng.integers(1, 17))
            skip = int(rng.integers(0, 40))
            n = int(rng.integers(1, 50))
            assert np.array_equal(
                sobol_unit(dim, n, skip=skip), sobol_unit_direct(dim, n, skip=skip)
            )

    def test_skip_matches_scipy_fast_forward(self):
        for skip in (1, 7, 32):
            assert np.allclose(sobol_unit(3, 16, skip=skip), scipy_sobol(3, 16, skip=skip))

    def test_prefix_property(self):
        """The first n points never depend on how many were requested."""
        long = sobol_unit(5, 128)
        for n in (1, 17, 64):
            assert np.array_equal(sobol_unit(5, n), long[:n])

    def test_values_in_unit_cube(self):
        pts = sobol_unit(16, 512)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    def test_balance_of_dyadic_blocks(self):
        """Each power-of-two block has mean near 1/2 in every coordinate."""
        pts = sobol_unit(4, 256)
        assert np.allclose(pts.mean(axis=0), 0.5, atol=1 / 256)

    def test_lower_discrepancy_than_pseudorandom(self):
        """2-D Sobol beats the average of 100 iid-uniform sets at n=1024."""
        n = 1024
        sob = qmc.discrepancy(sobol_unit(2, n, skip=1))
        rng = np.random.default_rng(0)
        rand = np.mean([qmc.discrepancy(rng.random((n, 2))) for _ in range(100)])
        assert sob < rand

    def test_coverage_refines_with_n(self):
        """Max nearest-neighbor gap in the unit square shrinks as n grows."""
        from scipy.spatial.distance import cdist

        gaps = []
        for n in (8, 16, 32, 64):
            pts = sobol_unit(2, n, skip=1)
            d = cdist(pts, pts)
            np.fill_diagonal(d, np.inf)
            gaps.append(d.min(axis=1).max())
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            sobol_unit(17, 4)
        with pytest.raises(UnsupportedDimensionError):
            sobol_unit(0, 4)

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            sobol_unit(2, -1)
        with pytest.raises(DomainError):
            sobol_unit(2, 4, skip=-2)

    def test_zero_points_rejected(self):
        with pytest.raises(DomainError):
            sobol_unit(3, 0)

    def test_last_index_of_the_direction_integers(self):
        """Index 2^32 - 1 is the last the 32-bit direction integers reach; its
        gray code is 2^31, so its first coordinate is 2^-32."""
        last = 2 ** _N_BITS - 1
        assert sobol_unit(1, 1, skip=last)[0, 0] == 2.0 ** -_N_BITS
        assert np.array_equal(sobol_unit(2, 2, skip=last - 1), sobol_unit_direct(2, 2, last - 1))
        with pytest.raises(DomainError, match="indices below 2\\^32, got skip=4294967295, n=2"):
            sobol_unit(2, 2, skip=last)
        with pytest.raises(DomainError, match="indices below 2\\^32"):
            sobol_unit(2, 1, skip=last + 1)

    def test_origin_and_skip_one(self):
        assert sobol_unit(1, 1)[0, 0] == 0.0
        assert np.allclose(sobol_unit(2, 2, skip=1), [[0.5, 0.5], [0.75, 0.25]])


class TestScaleDesign:
    def test_affine_map(self):
        bounds = DesignBounds(20.0, 60.0, 20.0, 50.0)
        pts = scale_design(np.array([[0.0, 0.0], [0.5, 0.5], [0.25, 0.75]]), bounds)
        assert (pts[0].v_c, pts[0].f) == (20.0, 20.0)
        assert (pts[1].v_c, pts[1].f) == (40.0, 35.0)
        assert (pts[2].v_c, pts[2].f) == (30.0, 42.5)
        ident = scale_design(np.array([[0.25, 0.75]]), DesignBounds(1e-9, 1.0, 1e-9, 1.0))
        assert np.allclose([ident[0].v_c, ident[0].f], [0.25, 0.75], atol=1e-8)

    def test_indices_follow_start(self):
        bounds = DesignBounds(1.0, 2.0, 1.0, 2.0)
        pts = scale_design(np.zeros((3, 2)), bounds, start_index=5)
        assert [p.index for p in pts] == [5, 6, 7]

    def test_rejects_points_outside_unit_cube(self):
        bounds = DesignBounds(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            scale_design(np.array([[1.0, 0.5]]), bounds)
        with pytest.raises(DomainError):
            scale_design(np.array([[0.5, -0.1]]), bounds)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(DomainError):
            DesignBounds(60.0, 20.0, 20.0, 50.0)
        with pytest.raises(DomainError):
            DesignBounds(20.0, 60.0, 50.0, 50.0)

    @pytest.mark.parametrize("bounds", [(20.0, np.inf, 20.0, 50.0), (20.0, 60.0, 20.0, np.inf),
                                        (np.nan, 60.0, 20.0, 50.0), (20.0, 60.0, -np.inf, 50.0)])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(DomainError, match="< inf, got"):
            DesignBounds(*bounds)


class TestAugmentationPlan:
    def test_concatenation_equals_single_request(self):
        """initial + reserve is the same sequence as one combined request."""
        bounds = DesignBounds(20.0, 60.0, 20.0, 50.0)
        initial, reserve = augmentation_plan(bounds, 8, n_reserve=4)
        combined, _ = augmentation_plan(bounds, 12)
        both = initial + reserve
        assert len(both) == 12
        for a, b in zip(both, combined):
            assert (a.v_c, a.f) == (b.v_c, b.f)

    def test_origin_skipped_by_default(self):
        bounds = DesignBounds(20.0, 60.0, 20.0, 50.0)
        initial, _ = augmentation_plan(bounds, 1)
        assert (initial[0].v_c, initial[0].f) != (20.0, 20.0)
        raw, _ = augmentation_plan(bounds, 1, skip=0)
        assert (raw[0].v_c, raw[0].f) == (20.0, 20.0)

    def test_points_inside_bounds(self):
        bounds = DesignBounds(20.0, 60.0, 20.0, 50.0)
        initial, reserve = augmentation_plan(bounds, 21, n_reserve=11)
        for p in initial + reserve:
            assert bounds.v_min <= p.v_c <= bounds.v_max
            assert bounds.f_min <= p.f <= bounds.f_max

    def test_invalid_sizes(self):
        bounds = DesignBounds(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            augmentation_plan(bounds, 0)
        with pytest.raises(DomainError):
            augmentation_plan(bounds, 3, n_reserve=-1)
