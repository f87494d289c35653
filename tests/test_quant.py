import itertools

import numpy as np
import pytest

from oxcim.errors import ConfigError, DomainError, ShapeError
from oxcim.quant import (Precision, TernaryTensor, act_binary, act_ternary,
                         popcount_oracle, quantize_weights)

TRITS = (-1, 0, 1)


def gated_xnor(x, w):
    """Reference trit product as the gate computes it: 0 when either input
    is 0, else +1 when the signs agree (XNOR) and -1 when they differ."""
    if x == 0 or w == 0:
        return 0
    return 1 if (x > 0) == (w > 0) else -1


class TestActivations:
    def test_binary_cases(self):
        assert act_binary(0.7) == 1
        assert act_binary(0.0) == 1      # boundary is inclusive on the +1 side
        assert act_binary(-0.3) == -1

    def test_binary_rejects_nonfinite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DomainError):
                act_binary(bad)

    @pytest.mark.parametrize("bad", [np.array(["0.5"]), np.array([0.5 + 1j]),
                                     np.array([True]), np.array([None])])
    def test_non_real_arrays_rejected(self, bad):
        # a string array used to end in a ValueError, a complex one to lose
        # its imaginary part with only a ComplexWarning, and True to read 1
        for call in (act_binary, lambda x: act_ternary(x, 0.5),
                     lambda x: quantize_weights(x, Precision.BINARY)):
            with pytest.raises(DomainError, match="must be real numbers"):
                call(bad)

    def test_ternary_cases(self):
        assert act_ternary(0.9, 0.5) == 1
        assert act_ternary(0.0, 0.5) == 0
        assert act_ternary(-0.5, 0.5) == 0   # |x| = r stays in the dead band
        assert act_ternary(0.5, 0.5) == 0
        assert act_ternary(-0.51, 0.5) == -1

    def test_ternary_partitions_the_reals(self):
        xs = np.linspace(-2, 2, 4001)
        out = act_ternary(xs, 0.5)
        assert np.all(np.isin(out, TRITS))
        # exactly one case applies everywhere: recompute by definition
        expect = np.where(xs > 0.5, 1, np.where(xs < -0.5, -1, 0))
        np.testing.assert_array_equal(out, expect)

    def test_ternary_needs_positive_r(self):
        for bad in (0.0, -0.5, float("nan")):
            with pytest.raises(DomainError):
                act_ternary(0.1, bad)

    @pytest.mark.parametrize("r", [True, None, "0.5"])
    def test_ternary_needs_a_real_r(self, r):
        # True used to quantize with r = 1, None and "0.5" raised a TypeError
        with pytest.raises(DomainError, match="ternary threshold must be"):
            act_ternary(0.1, r)
        with pytest.raises(DomainError, match="ternary threshold must be"):
            quantize_weights(np.array([0.1]), Precision.TERNARY, r=r)

    def test_ternary_approaches_binary_for_small_r(self):
        xs = np.linspace(-3, 3, 601)
        xs = xs[np.abs(xs) > 1e-6]
        np.testing.assert_array_equal(act_ternary(xs, 1e-9), act_binary(xs))

    def test_ragged_nest_rejected(self):
        # used to end in numpy's ValueError ("inhomogeneous shape")
        for act in (act_binary, lambda x: act_ternary(x, 0.5)):
            with pytest.raises(DomainError, match="activation input must be "
                                                  "one array"):
                act([[1.0], [1.0, 2.0]])


class TestGatedXnor:
    def test_cases(self):
        assert gated_xnor(1, -1) == -1
        assert gated_xnor(0, 1) == 0
        assert gated_xnor(-1, -1) == 1

    def test_full_table(self):
        for x, w in itertools.product(TRITS, TRITS):
            assert gated_xnor(x, w) == x * w


class TestPopcount:
    def test_cases(self):
        assert popcount_oracle([-1, 0, 0, 1], [1, 1, 1, 1]) == 0
        assert popcount_oracle([1, 1], [1, 1]) == 2
        assert popcount_oracle([-1, 0, 0, 1], [1, 1, -1, -1]) == -2

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            popcount_oracle([1, 1], [1, 1, 1])

    def test_equals_gated_xnor_sum_exhaustive(self):
        # all 3^n x 3^n ternary pairs for short vectors
        for n in (1, 2, 3, 4):
            for x in itertools.product(TRITS, repeat=n):
                for w in itertools.product(TRITS, repeat=n):
                    expect = sum(gated_xnor(a, b) for a, b in zip(x, w))
                    assert popcount_oracle(list(x), list(w)) == expect

    def test_binary_parity(self):
        # for +/-1 vectors of length n the dot takes values -n, -n+2, ..., n
        gen = np.random.default_rng(0)
        for n in (3, 4, 7, 8):
            seen = set()
            for _ in range(200):
                x = gen.choice([-1, 1], size=n)
                w = gen.choice([-1, 1], size=n)
                seen.add(popcount_oracle(x, w))
            assert seen <= set(range(-n, n + 1, 2))

    def test_magnitude_bound(self):
        gen = np.random.default_rng(1)
        for _ in range(200):
            n = int(gen.integers(1, 20))
            x = gen.choice([-1, 0, 1], size=n)
            w = gen.choice([-1, 0, 1], size=n)
            both = np.count_nonzero((x != 0) & (w != 0))
            assert abs(popcount_oracle(x, w)) <= both


class TestTernaryTensor:
    def test_binary_rejects_zero(self):
        with pytest.raises(DomainError):
            TernaryTensor(np.array([1, 0, -1]), Precision.BINARY)

    def test_ternary_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            TernaryTensor(np.array([2, 0]), Precision.TERNARY)

    def test_values_checked_before_the_int8_cast(self):
        # 257 and -255 share their low byte with +1; 0.5 truncates to 0
        for bad in ([257, -255], [257], [0.5], [np.nan, 1], [-np.inf]):
            for precision in Precision:
                with pytest.raises(DomainError, match="not allowed"):
                    TernaryTensor(np.array(bad), precision)
        with pytest.raises(DomainError):
            popcount_oracle([257], [1])

    def test_integral_floats_are_trits_and_bools_are_not(self):
        t = TernaryTensor(np.array([1.0, -1.0, 0.0]), Precision.TERNARY)
        assert t.data.dtype == np.int8
        np.testing.assert_array_equal(t.data, [1, -1, 0])
        for precision in Precision:
            with pytest.raises(DomainError, match="must be numbers"):
                TernaryTensor(np.array([True, False]), precision)

    def test_ragged_nest_rejected(self):
        # used to end in numpy's ValueError ("inhomogeneous shape")
        with pytest.raises(DomainError, match="trits must be one array"):
            TernaryTensor([[1], [1, 0]], Precision.TERNARY)
        with pytest.raises(DomainError, match="must be one array"):
            popcount_oracle([[1], [1, 0]], [1, 1])

    @pytest.mark.parametrize("precision", ["binary", "ternary", None])
    def test_precision_that_is_not_a_precision_rejected(self, precision):
        # a name used to end in an AttributeError on .allowed_values
        with pytest.raises(ConfigError, match="must be a Precision"):
            TernaryTensor(np.ones(2, dtype=np.int8), precision)
        with pytest.raises(ConfigError, match="must be a Precision"):
            quantize_weights(np.ones(2), precision)

    def test_shape_and_reshape(self):
        t = TernaryTensor(np.ones((2, 3), dtype=np.int8), Precision.BINARY)
        assert t.shape == (2, 3)


class TestQuantizeWeights:
    def test_binary(self):
        q = quantize_weights(np.array([0.8, 0.0, -0.2]), Precision.BINARY)
        np.testing.assert_array_equal(q.data, [1, 1, -1])

    def test_ternary(self):
        q = quantize_weights(np.array([0.3, -0.7, 0.9]), Precision.TERNARY, r=0.5)
        np.testing.assert_array_equal(q.data, [0, -1, 1])

    def test_binary_never_zero(self):
        gen = np.random.default_rng(4)
        q = quantize_weights(gen.normal(size=1000), Precision.BINARY)
        assert 0 not in np.unique(q.data)
