"""Reference Bessel evaluator and the package's truncation rule: values, identities, stability."""

from __future__ import annotations

import numpy as np
import pytest

from spinchain.bessel import truncation_order

from bessel_reference import bessel_j, bessel_j_sequence, start_order

# High-precision reference values (30-digit arbitrary-precision evaluation).
REFERENCE = [
    (0, 1.0, 0.76519768655796655),
    (1, 1.0, 0.44005058574493352),
    (5, 10.0, -0.23406152818679364),
    (12, 3.5, 1.3580962085685697e-6),
    (50, 30.0, 2.0581656631564178e-8),
    (200, 400.5, -0.0017764005593349131),
]


@pytest.mark.parametrize("order,argument,expected", REFERENCE)
def test_reference_values(order, argument, expected):
    got = bessel_j(order, argument)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_deep_evanescent_orders_truncate_to_clean_zero():
    # far beyond the turning point the value (< 1e-80) is below every physics
    # tolerance; the evaluator documents and returns an exact 0 there
    assert bessel_j(150, 30.0) == 0.0
    assert bessel_j(300, 100.0) == 0.0


def test_sequence_matches_scalar_evaluator():
    for z in (0.3, 2.0, 17.5, 201.0):
        seq = bessel_j_sequence(40, z)
        assert seq.shape == (41,)
        for order in (0, 1, 7, 23, 40):
            assert seq[order] == pytest.approx(bessel_j(order, z), rel=1e-12, abs=1e-280)


def test_zero_argument_is_kronecker_delta():
    seq = bessel_j_sequence(200, 0.0)
    assert seq[0] == 1.0
    assert np.all(seq[1:] == 0.0)


def test_three_term_recurrence():
    for z in (0.7, 5.0, 60.0):
        seq = bessel_j_sequence(30, z)
        orders = np.arange(1, 30)
        residual = seq[orders - 1] + seq[orders + 1] - (2 * orders / z) * seq[orders]
        assert np.max(np.abs(residual)) < 1e-12


def test_normalization_sum():
    # J_0^2 + 2 sum_{n>=1} J_n^2 = 1 once orders run past the truncation point
    for z in (1.0, 12.0, 80.0):
        seq = bessel_j_sequence(truncation_order(z) + 10, z)
        total = seq[0] ** 2 + 2 * np.sum(seq[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_uniform_accuracy_across_order_argument_sweep():
    # downward recurrence and the small-argument series must agree where they meet
    for z in (0.5, 1.0, 4.0, 9.0):
        for order in range(0, 25):
            a = bessel_j(order, z)
            seq = bessel_j_sequence(order, z)
            assert seq[order] == pytest.approx(a, rel=1e-11, abs=1e-220)


def test_huge_order_underflows_to_zero_without_overflow():
    seq = bessel_j_sequence(3000, 10.0)
    assert np.all(np.isfinite(seq))
    assert seq[3000] == 0.0  # below double-precision range
    assert seq[0] == pytest.approx(bessel_j(0, 10.0), rel=1e-12)


def test_start_order_exceeds_requested_order():
    assert start_order(50, 10.0) > 50
    assert truncation_order(40.0) > 40


def test_negative_orders_use_parity_symmetry():
    assert bessel_j(-3, 2.5) == pytest.approx(-bessel_j(3, 2.5), abs=1e-15)
    assert bessel_j(-4, 2.5) == pytest.approx(bessel_j(4, 2.5), abs=1e-15)


def test_domain_validation():
    with pytest.raises(ValueError):
        bessel_j(5, -1.0)
    with pytest.raises(ValueError):
        bessel_j(2, float("nan"))
    with pytest.raises(ValueError):
        bessel_j_sequence(-1, 1.0)
