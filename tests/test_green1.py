"""One-magnon propagator: dense-route goldens, unitarity, method agreement."""

from __future__ import annotations

import numpy as np
import pytest

from spinchain.bessel import bessel_j
from spinchain.chain import ChainSpec
from spinchain.green1 import (
    choose_method,
    reduced_hop_amplitudes,
    reduced_profile,
)


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_momentum_sum_matches_dense_golden(golden, boundary):
    record = golden("green1_n12")
    spec = ChainSpec(12, boundary, 0.5, 1.0)
    for t in record["inputs"]["times"]:
        got = reduced_profile(1, t, spec, method="momentum_sum")
        want = record["values"][f"{boundary}_t{t}"]
        assert np.max(np.abs(got - want)) <= record["tolerance"]


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_profile_is_unitary(boundary):
    spec = ChainSpec(30, boundary, 0.5, 1.0)
    for t in (0.0, 0.9, 4.4, 21.0):
        profile = reduced_profile(1, t, spec)
        assert np.sum(np.abs(profile) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_time_zero_is_delta():
    spec = ChainSpec(17, "open", 0.5, 1.0)
    profile = reduced_profile(5, 0.0, spec)
    expected = np.zeros(17)
    expected[4] = 1.0
    assert np.max(np.abs(profile - expected)) < 1e-12


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_bessel_route_matches_momentum_sum_on_large_chains(boundary):
    spec = ChainSpec(120, boundary, 0.5, 1.0)
    for x, t in ((1, 5.0), (60, 11.0)):
        fast = reduced_profile(x, t, spec, method="bessel")
        exact = reduced_profile(x, t, spec, method="momentum_sum")
        assert np.max(np.abs(fast - exact)) < 1e-12


def test_ring_propagation_reaches_targets_both_ways_round():
    # site 85 from site 1 is 16 hops the short way; the image sum must carry it
    spec = ChainSpec(100, "closed", 0.5, 1.0)
    t = 9.0
    fast = reduced_profile(1, t, spec, method="bessel")
    exact = reduced_profile(1, t, spec, method="momentum_sum")
    assert abs(fast[84] - exact[84]) < 1e-10
    assert abs(exact[84]) > 1e-3  # the target really is inside the light cone
    assert np.max(np.abs(fast - exact)) < 1e-10


def test_hop_amplitudes_phase_and_parity():
    z = 3.2
    values = reduced_hop_amplitudes([-2, -1, 0, 1, 2], z)
    j0, j1, j2 = bessel_j(0, z), bessel_j(1, z), bessel_j(2, z)
    assert values[2] == pytest.approx(j0, abs=1e-14)
    assert values[3] == pytest.approx(1j * j1, abs=1e-14)
    assert values[0] == pytest.approx(-j2, abs=1e-14)
    # left and right hops carry identical amplitudes (reflection symmetry)
    assert values[1] == pytest.approx(values[3], abs=1e-15)
    assert values[4] == pytest.approx(values[0], abs=1e-15)


def test_method_chooser_prefers_exact_sums_on_small_chains():
    assert choose_method(ChainSpec(99, "open", 0.5, 1.0)) == "momentum_sum"
    assert choose_method(ChainSpec(100, "open", 0.5, 1.0)) == "bessel"


def test_site_validation():
    spec = ChainSpec(10, "open", 0.5, 1.0)
    with pytest.raises(ValueError):
        reduced_profile(0, 1.0, spec)
    with pytest.raises(ValueError):
        reduced_profile(11, 1.0, spec)
    with pytest.raises(ValueError):
        reduced_profile(1, -0.5, spec)
    with pytest.raises(ValueError):
        reduced_profile(1, 1.0, spec, method="saddle")
