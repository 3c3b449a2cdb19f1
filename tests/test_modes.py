import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdd2d import build_zipf, compute_mode_probabilities

IDENTITY_TOL = 1e-12


def test_two_user_uniform_hand_table():
    # rho = (1/2, 1/2), hitting probability 1: evaluating each closed form by
    # hand gives 1/4 for SR, SR-HDTX, FDTR (all of it bi-directional), HDRX.
    mp = compute_mode_probabilities(build_zipf(2, 0.0), 2)
    assert mp.p_sr == pytest.approx(0.25, abs=IDENTITY_TOL)
    assert mp.p_sr_hdtx == pytest.approx(0.25, abs=IDENTITY_TOL)
    assert mp.p_fdtr == pytest.approx(0.25, abs=IDENTITY_TOL)
    assert mp.p_bfd == pytest.approx(0.25, abs=IDENTITY_TOL)
    assert mp.p_tnfd == pytest.approx(0.0, abs=IDENTITY_TOL)
    assert mp.p_hdrx == pytest.approx(0.25, abs=IDENTITY_TOL)
    assert mp.p_hdtx == pytest.approx(0.0, abs=IDENTITY_TOL)
    assert mp.p_ho == pytest.approx(0.0, abs=IDENTITY_TOL)


def test_single_user_degenerates():
    for gamma in (0.0, 1.2):
        mp = compute_mode_probabilities(build_zipf(100, gamma), 1)
        assert mp.p_fdtr == mp.p_bfd == mp.p_tnfd == 0.0
        assert mp.p_hdrx == mp.p_hdtx == 0.0
        assert mp.p_sr + mp.p_ho == pytest.approx(1.0, abs=IDENTITY_TOL)
        assert mp.p_tx == 0.0


def test_rejects_more_users_than_contents():
    profile = build_zipf(5, 1.0)
    with pytest.raises(ValueError):
        compute_mode_probabilities(profile, 6)


def _check_identities(mp, p_hit):
    top_level = mp.p_sr + mp.p_sr_hdtx + mp.p_fdtr + mp.p_hdtx + mp.p_hdrx + mp.p_ho
    assert top_level == pytest.approx(1.0, abs=IDENTITY_TOL)
    assert mp.p_fdtr == pytest.approx(mp.p_bfd + mp.p_tnfd, abs=IDENTITY_TOL)
    assert mp.p_tx == pytest.approx(mp.p_sr_hdtx + mp.p_hdtx + mp.p_fdtr, abs=IDENTITY_TOL)
    assert mp.p_sr + mp.p_sr_hdtx == pytest.approx(p_hit / mp.n_users, abs=IDENTITY_TOL)
    for name in ("p_sr", "p_sr_hdtx", "p_fdtr", "p_bfd", "p_tnfd", "p_hdrx", "p_hdtx", "p_ho", "p_tx"):
        value = getattr(mp, name)
        assert 0.0 <= value <= 1.0, f"{name}={value}"


@given(
    m=st.integers(1, 4000),
    gamma_r=st.floats(0.0, 3.0, allow_nan=False),
    n_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_identities_property(m, gamma_r, n_frac):
    profile = build_zipf(m, gamma_r)
    n_users = 1 + int(n_frac * (m - 1))
    mp = compute_mode_probabilities(profile, n_users)
    _check_identities(mp, profile.p_hit_prefix[n_users - 1])


def test_pmf_hand_binomial():
    from oracles import package_count_sum

    # the transmitter count is Binomial(2, 1/2): pmf = (1/4, 1/2, 1/4), so the
    # count sum G(x) = sum_{n>=1} pmf[n] x^(n-1) is 1/2 + x/4, and the pmf
    # reads back as (1 - G(1), G(0), G(1) - G(0))
    x = np.array([0.0, 5e-324, 1e-200, 1e-3, 0.5, 1.0])
    np.testing.assert_allclose(package_count_sum(x, 0.5, 2), 0.5 + 0.25 * x, rtol=1e-15, atol=0)
    g0, g1 = package_count_sum(np.array([0.0, 1.0]), 0.5, 2)
    np.testing.assert_allclose([1.0 - g1, g0, g1 - g0], [0.25, 0.5, 0.25], atol=1e-15)


def test_transmit_probability_hand_values():
    assert compute_mode_probabilities(build_zipf(7, 2.0), 1).p_tx == 0.0
    assert compute_mode_probabilities(build_zipf(2, 0.0), 2).p_tx == pytest.approx(0.5, abs=IDENTITY_TOL)


def test_transmit_probability_consistency():
    profile = build_zipf(1000, 1.2)
    mp = compute_mode_probabilities(profile, 20)
    # by definition: some other user requests the content a user caches
    p_tx = float(np.mean(1.0 - (1.0 - profile.rho[:20]) ** 19))
    assert p_tx == pytest.approx(mp.p_sr_hdtx + mp.p_hdtx + mp.p_fdtr, abs=IDENTITY_TOL)
    assert p_tx == pytest.approx(mp.p_tx, abs=IDENTITY_TOL)
