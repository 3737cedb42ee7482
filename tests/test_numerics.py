"""Tests for the dense linear-algebra and seeded-randomness primitives."""

import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from collapseguard import expfam
from collapseguard.contraction import RegulatorFn, recurrence_simulate
from collapseguard.dynamics import NoiseSchedule, SampleSchedule
from collapseguard.errors import InputValidationError
from collapseguard.expfam import GAUSSIAN, ExpFamilyModel, Parameter
from collapseguard.filtering import TrainingSpec, fit_pca
from collapseguard.numerics import (
    STACK_LIMIT,
    RngState,
    as_generator,
    check_fits,
    check_int,
    point_sums,
    sym_eig,
)


def _assert_sign_convention(vectors):
    """Each column's largest-magnitude entry is positive; entries within 8 ulps
    of the largest count as tied, and the first of them is the one checked."""
    mags = np.abs(vectors)
    pivots = np.argmax(mags >= mags.max(axis=0) * (1.0 - 8.0 * np.finfo(float).eps), axis=0)
    assert np.all(vectors[pivots, np.arange(vectors.shape[1])] > 0.0)


class TestSymEig:
    """Symmetric eigendecomposition through numpy, with a fixed column sign."""

    def test_diagonal_matrix_returns_its_entries(self):
        values, vectors = sym_eig(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(values, [2.0, 3.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-12)

    def test_identity_has_unit_spectrum(self):
        values, _ = sym_eig(np.eye(4))
        np.testing.assert_allclose(values, np.ones(4), rtol=0, atol=1e-12)

    def test_two_by_two_hand_solved_spectrum(self):
        """[[2,1],[1,2]] has characteristic roots 1 and 3."""
        values, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(values, [1.0, 3.0], atol=1e-12)

    def test_matches_reference_solver_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for dim in (2, 3, 5, 8, 16, 32):
            g = rng.normal(size=(dim, dim))
            m = 0.5 * (g + g.T)
            values, vectors = sym_eig(m)
            np.testing.assert_allclose(values, np.linalg.eigvalsh(m), atol=1e-9)
            # Ascending order and orthonormal columns.
            assert np.all(np.diff(values) >= -1e-12)
            gram_err = np.abs(vectors.T @ vectors - np.eye(dim)).max()
            assert gram_err <= 1e-10
            # Reconstruction within 1e-10 of the input scale.
            recon = vectors @ np.diag(values) @ vectors.T
            scale = max(np.abs(m).max(), 1.0)
            assert np.abs(recon - m).max() <= 1e-10 * scale

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_columns_follow_the_sign_convention(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            g = rng.normal(size=(dim, dim))
            m = 0.5 * (g + g.T)
            values, vectors = sym_eig(m)
            _assert_sign_convention(vectors)
            assert np.all(np.diff(values) >= 0.0)
            assert np.abs(vectors @ np.diag(values) @ vectors.T - m).max() <= 1e-10

    def test_a_tie_in_magnitude_makes_the_first_entry_positive(self, monkeypatch):
        # exact ties, which a solver's rounding need not produce
        s = np.sqrt(0.5)
        raw = np.array([[-s, s], [s, s]])
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 3.0]), raw.copy()))
        _, vectors = sym_eig(np.eye(2))
        np.testing.assert_array_equal(vectors, np.array([[s, s], [-s, s]]))

    def test_a_near_tie_in_magnitude_makes_the_first_entry_positive(self, monkeypatch):
        # the second entry is larger by 1 ulp, as rounding leaves a 45-degree eigenvector
        s = np.sqrt(0.5)
        raw = np.array([[s, s], [-np.nextafter(s, 1.0), np.nextafter(s, 1.0)]])
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 3.0]), raw.copy()))
        _, vectors = sym_eig(np.eye(2))
        np.testing.assert_array_equal(vectors, raw)
        assert np.all(vectors[0] > 0.0)

    def test_pca_projection_follows_the_sign_convention(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(200, 5)) @ rng.normal(size=(5, 5))
        _assert_sign_convention(fit_pca(data, k=3).projection)

    def test_nonfinite_input_rejected(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InputValidationError):
            sym_eig(bad)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(InputValidationError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRngState:
    def test_same_key_same_sequence(self):
        a = RngState(seed=9, stream=4).generator().standard_normal(16)
        b = RngState(seed=9, stream=4).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngState(seed=9, stream=0).generator().standard_normal(16)
        b = RngState(seed=9, stream=1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_distinct(self):
        root = RngState(seed=5)
        first = root.derive(3)
        again = root.derive(3)
        assert first == again
        others = {root.derive(i) for i in range(64)}
        assert len(others) == 64

    def test_invalid_seed_rejected(self):
        with pytest.raises(InputValidationError):
            RngState(seed=-1)
        with pytest.raises(InputValidationError):
            RngState(seed=2**64)

    @pytest.mark.parametrize(
        "seed, stream",
        [(0, 0), (2**64 - 1, 2**64 - 1)]
        + [tuple(map(int, key)) for key in np.random.default_rng(8).integers(
            0, 2**64, size=(4, 2), dtype=np.uint64, endpoint=False
        )],
    )
    def test_the_stream_is_philox_keyed_by_seed_and_stream(self, seed, stream):
        """Key, counter and buffer state equal those ``Philox(key=...)`` builds."""
        got = RngState(seed, stream).generator()
        keyed = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        a, b = got.bit_generator.state, keyed.state
        assert a["bit_generator"] == b["bit_generator"] == "Philox"
        for name in ("counter", "key"):
            np.testing.assert_array_equal(a["state"][name], b["state"][name])
        np.testing.assert_array_equal(a["buffer"], b["buffer"])
        assert (a["buffer_pos"], a["has_uint32"], a["uinteger"]) == (
            b["buffer_pos"], b["has_uint32"], b["uinteger"]
        )
        np.testing.assert_array_equal(
            got.standard_normal(9), np.random.Generator(keyed).standard_normal(9)
        )

    def test_importing_the_package_does_not_load_numpy_random(self):
        code = "import sys, collapseguard.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": ":".join(sys.path)},
        )
        assert out.stdout == "False\n"

    def test_as_generator_accepts_state_and_generator(self):
        state = RngState(seed=21)
        gen = state.generator()
        assert isinstance(as_generator(state), np.random.Generator)
        assert as_generator(gen) is gen


class TestCheckFits:
    def test_a_small_array_passes(self):
        check_fits("a vector", (1000,), "use a shorter one")

    @pytest.mark.parametrize("shape", [(2**62, 2), (2**30, 2**10)], ids=["index-range", "memory"])
    def test_an_array_beyond_the_index_range_or_memory_is_refused(self, shape):
        with pytest.raises(
            InputValidationError, match=rf"^a vector of shape \({shape[0]}, {shape[1]}\) need "
        ) as info:
            check_fits("a vector", shape, "use a shorter one")
        assert str(info.value).endswith("; use a shorter one")


class TestPointSums:
    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("rows", [1, 2, 131])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_gives_the_bits_of_sum_over_axis_one(self, d, rows, n):
        """Magnitudes over 600 decades make every addition round, and zeros of
        both signs (an all -0.0 column among them) check the sign of zero."""
        rng = np.random.default_rng(1000 * d + rows + n)
        x = rng.normal(size=(rows, n, d)) * 10.0 ** rng.integers(-300, 300, size=(rows, n, d))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = -0.0
        x[0, :, -1] = -0.0
        want = x.sum(axis=1)
        np.testing.assert_array_equal(point_sums(x).view(np.int64), want.view(np.int64))
        other = np.asfortranarray(x)  # another layout sets another order: numpy's own
        np.testing.assert_array_equal(
            point_sums(other).view(np.int64), other.sum(axis=1).view(np.int64)
        )
        wide = np.zeros((rows, 3 * n, d))  # a slice of a window: C-ordered rows, apart
        wide[:, n : 2 * n] = x
        np.testing.assert_array_equal(
            point_sums(wide[:, n : 2 * n]).view(np.int64), want.view(np.int64)
        )

    def test_a_stack_over_the_limit_adds_no_stack_sized_array(self):
        """Above ``STACK_LIMIT`` values the helper is numpy's ``sum``, whose peak
        is the (rows, d) result, not a cumsum as large as the stack."""
        x = np.random.default_rng(3).normal(size=(2, STACK_LIMIT // 4 + 1, 2))
        tracemalloc.start()
        try:
            got = point_sums(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 8
        np.testing.assert_array_equal(got.view(np.int64), x.sum(axis=1).view(np.int64))


class TestCheckInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint64(3), np.int8(3)])
    def test_python_and_numpy_integers_pass_as_int(self, value):
        checked = check_int(value, "x", 1)
        assert checked == 3 and type(checked) is int

    @pytest.mark.parametrize(
        "value, minimum, message",
        [
            (True, None, "x must be an integer"),
            (np.bool_(True), None, "x must be an integer"),
            (2.0, None, "x must be an integer"),
            ("2", None, "x must be an integer"),
            (False, 0, "x must be a nonnegative integer"),
            (-1, 0, "x must be a nonnegative integer"),
            (0, 1, "x must be a positive integer"),
            (True, 1, "x must be a positive integer"),
        ],
    )
    def test_bools_other_types_and_small_values_are_refused(self, value, minimum, message):
        with pytest.raises(InputValidationError, match=f"^{message}$"):
            check_int(value, "x", minimum)


_GAUSSIAN_1 = ExpFamilyModel(GAUSSIAN, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SampleSchedule(base=True), "base sample size must be a positive integer"),
        (lambda: ExpFamilyModel(GAUSSIAN, dim=True), "dim must be a positive integer"),
        (lambda: RngState(True, False), "seed must be an integer"),
        (lambda: RngState(1, False), "stream must be an integer"),
        (lambda: expfam.sample(_GAUSSIAN_1, Parameter(np.zeros(1), _GAUSSIAN_1), True, 1),
         "n must be a positive integer"),
        (lambda: recurrence_simulate(RegulatorFn("power-law"), 1.0, NoiseSchedule("zero"), True),
         "steps must be a nonnegative integer"),
        (lambda: fit_pca(np.arange(8.0).reshape(4, 2), k=True), "k must be a positive integer"),
        (lambda: TrainingSpec(epochs=True), "training.epochs must be an integer"),
    ],
    ids=["schedule-base", "model-dim", "rng-seed", "rng-stream", "sample-n", "recurrence-steps",
         "pca-k", "training-epochs"],
)
def test_an_entry_point_refuses_a_bool_for_an_integer(call, message):
    with pytest.raises(InputValidationError, match=f"^{re.escape(message)}$"):
        call()
