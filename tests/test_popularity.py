import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdd2d import build_zipf, hitting_probability
from oracles import sample_request


def test_uniform_two_contents():
    profile = build_zipf(2, 0.0)
    np.testing.assert_allclose(profile.rho, [0.5, 0.5], atol=0)


def test_hand_summed_zipf():
    # 1/(1 + 1/2 + 1/3) = 6/11
    profile = build_zipf(3, 1.0)
    assert profile.rho[0] == pytest.approx(6 / 11, abs=1e-15)
    assert profile.rho[1] == pytest.approx(3 / 11, abs=1e-15)
    assert profile.rho[2] == pytest.approx(2 / 11, abs=1e-15)


def test_large_library_shape():
    profile = build_zipf(1000, 1.2)
    assert np.all(np.diff(profile.rho) <= 0)
    assert abs(profile.rho.sum() - 1.0) < 1e-12
    assert abs(profile.p_hit_prefix[-1] - 1.0) < 1e-12


@pytest.mark.parametrize("m", [1000, 2 * (1 << 16) + 7])
def test_prefix_matches_straight_long_double_cumsum(m):
    # the second size puts two chunk boundaries inside the library
    profile = build_zipf(m, 1.2)
    np.testing.assert_array_equal(profile.p_hit_prefix, np.cumsum(profile.rho.astype(np.longdouble)).astype(np.float64))


def test_build_peaks_near_its_kept_arrays():
    import tracemalloc

    tracemalloc.start()
    try:
        profile = build_zipf(10**6, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (profile.rho.nbytes + profile.p_hit_prefix.nbytes)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_zipf(0, 1.0)
    with pytest.raises(ValueError):
        build_zipf(10, -0.1)
    with pytest.raises(ValueError):
        build_zipf(10, float("nan"))
    with pytest.raises(ValueError):
        build_zipf(10, float("inf"))
    for bad in (True, 2.5, np.float64(3.0), "3"):
        with pytest.raises(ValueError):
            build_zipf(bad, 1.0)
    np.testing.assert_array_equal(build_zipf(np.int64(3), 1.0).rho, build_zipf(3, 1.0).rho)


def test_profile_arrays_are_immutable():
    profile = build_zipf(10, 1.0)
    with pytest.raises(ValueError):
        profile.rho[0] = 0.5


def test_hitting_probability_hand_value():
    profile = build_zipf(3, 1.0)
    assert hitting_probability(profile, 2) == pytest.approx(9 / 11, abs=1e-12)


def test_hitting_probability_full_library():
    for gamma in (0.0, 0.7, 2.5):
        profile = build_zipf(17, gamma)
        assert hitting_probability(profile, 17) == pytest.approx(1.0, abs=1e-12)


def test_hitting_probability_matches_independent_sum():
    profile = build_zipf(1000, 1.2)
    # independent summation: recompute the normalizer and the partial sum by loop
    norm = sum(k ** -1.2 for k in range(1, 1001))
    expected = sum(k ** -1.2 for k in range(1, 21)) / norm
    assert hitting_probability(profile, 20) == pytest.approx(expected, abs=1e-12)


def test_hitting_probability_rejects_out_of_range():
    profile = build_zipf(5, 1.0)
    with pytest.raises(ValueError):
        hitting_probability(profile, 6)
    with pytest.raises(ValueError):
        hitting_probability(profile, 0)
    for bad in (True, 2.5, 3.0, "3"):
        with pytest.raises(ValueError):
            hitting_probability(profile, bad)
    assert hitting_probability(profile, np.int64(3)) == hitting_probability(profile, 3)


def test_hitting_probability_monotone_in_n():
    profile = build_zipf(50, 0.9)
    values = [hitting_probability(profile, n) for n in range(1, 51)]
    assert np.all(np.diff(values) >= 0)


def test_sample_request_single_content():
    profile = build_zipf(1, 3.0)
    rng = np.random.default_rng(0)
    assert all(sample_request(profile, rng) == 1 for _ in range(100))


def test_sample_request_uniform_frequency():
    profile = build_zipf(2, 0.0)
    rng = np.random.default_rng(1)
    draws = sample_request(profile, rng, size=1_000_000)
    freq = np.mean(draws == 1)
    assert 0.4985 <= freq <= 0.5015  # 3 sigma band around 1/2


def test_sample_request_zipf_frequency():
    profile = build_zipf(3, 1.0)
    rng = np.random.default_rng(2)
    draws = sample_request(profile, rng, size=1_000_000)
    p = 6 / 11
    sigma = np.sqrt(p * (1 - p) / 1_000_000)
    assert abs(np.mean(draws == 1) - p) < 3 * sigma


def test_request_histogram_l1_convergence():
    m, trials = 50, 200_000
    profile = build_zipf(m, 1.1)
    rng = np.random.default_rng(3)
    draws = sample_request(profile, rng, size=trials)
    hist = np.bincount(draws - 1, minlength=m) / trials
    assert np.abs(hist - profile.rho).sum() < 5 * np.sqrt(m / trials)


@given(m=st.integers(1, 3000), gamma_r=st.floats(0.0, 4.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_rho_normalization_property(m, gamma_r):
    profile = build_zipf(m, gamma_r)
    assert abs(profile.rho.sum() - 1.0) < 1e-12
    assert abs(profile.p_hit_prefix[-1] - 1.0) < 1e-12
    assert np.all(np.diff(profile.p_hit_prefix) >= 0)


@given(m=st.integers(1, 2000))
@settings(max_examples=30, deadline=None)
def test_zero_skew_is_exactly_uniform(m):
    profile = build_zipf(m, 0.0)
    assert np.all(np.abs(profile.rho - 1.0 / m) <= 1e-15)
