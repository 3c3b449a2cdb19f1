import numpy as np
import pytest

from fdd2d import DiskConfig, link_distance_nodes
from oracles import (
    integrate_1d,
    marginal_link_cdf,
    pdf_interferer_distance,
    pdf_link_distance,
    sample_interferer_distance,
    sample_link_distance,
    sample_uniform_disk,
)

DISK = DiskConfig(30.0)


def test_disk_config_rejects_bad_radius():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            DiskConfig(bad)


def test_disk_samples_stay_inside():
    rng = np.random.default_rng(0)
    pts = sample_uniform_disk(DISK, rng, size=10_000)
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= DISK.radius)
    point = sample_uniform_disk(DISK, rng)
    assert np.hypot(point.x, point.y) <= DISK.radius


def test_disk_mean_norm():
    # E||y|| = 2R/3 for a uniform disk; Var = R^2/18
    rng = np.random.default_rng(1)
    n = 1_000_000
    pts = sample_uniform_disk(DISK, rng, size=n)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    sigma = DISK.radius / np.sqrt(18 * n)
    assert abs(norms.mean() - 2 * DISK.radius / 3) < 3 * sigma


def test_disk_area_fraction():
    rng = np.random.default_rng(2)
    n = 1_000_000
    pts = sample_uniform_disk(DISK, rng, size=n)
    frac = np.mean(np.hypot(pts[:, 0], pts[:, 1]) <= DISK.radius / 2)
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(frac - 0.25) < 3 * sigma


def test_link_pdf_zero_at_origin():
    for q in (0.0, 10.0, 29.0):
        assert pdf_link_distance(0.0, q, DISK) == 0.0


def test_link_pdf_center_case():
    # from the disk center the law is 2z/R^2 with no rim branch
    assert pdf_link_distance(0.5, 0.0, DiskConfig(1.0)) == pytest.approx(1.0, abs=1e-15)


def test_link_pdf_outside_support_is_zero():
    assert pdf_link_distance(40.0, 5.0, DISK) == 0.0


def test_link_pdf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pdf_link_distance(1.0, DISK.radius + 1.0, DISK)
    with pytest.raises(ValueError):
        pdf_link_distance(-1.0, 5.0, DISK)
    with pytest.raises(ValueError):
        pdf_link_distance(1.0, -0.5, DISK)


def test_link_pdf_branches_join_continuously():
    for q in (9.0, 21.0):
        junction = DISK.radius - q
        left = pdf_link_distance(junction, q, DISK)
        right = pdf_link_distance(junction + 1e-9, q, DISK)
        assert right == pytest.approx(left, abs=1e-6)


def test_link_pdf_normalizes():
    for q in (0.0, 0.3 * DISK.radius, 0.9 * DISK.radius):
        near = integrate_1d(lambda z: pdf_link_distance(z, q, DISK), 0.0, DISK.radius - q, 200)
        rim = 0.0
        if q > 0:
            # plain z-space integration converges like n**-3 through the
            # square-root cusp at the branch point; 1024 nodes reaches ~1e-10
            rim = integrate_1d(
                lambda z: pdf_link_distance(z, q, DISK), DISK.radius - q, DISK.radius + q, 1024
            )
        assert near + rim == pytest.approx(1.0, abs=1e-8)


def test_link_nodes_normalize_and_match_sampling():
    rng = np.random.default_rng(3)
    for q in (0.0, 0.3 * DISK.radius, 0.99 * DISK.radius):
        z, wts = link_distance_nodes(q, DISK, 24)
        assert wts.sum() == pytest.approx(1.0, abs=1e-10)
        mean_quad = np.dot(wts, z)
        n = 400_000
        draws = sample_link_distance(q, DISK, rng, size=n)
        sem = draws.std() / np.sqrt(n)
        assert abs(mean_quad - draws.mean()) < 3.5 * sem


def test_interferer_pdf_support():
    assert pdf_interferer_distance(0.5, 1.0, 2.0) == 0.0
    assert pdf_interferer_distance(3.5, 1.0, 2.0) == 0.0
    assert pdf_interferer_distance(1.0, 1.0, 2.0) == 0.0  # endpoints excluded
    assert pdf_interferer_distance(3.0, 1.0, 2.0) == 0.0


def test_interferer_pdf_hand_value():
    # right angle between the two offsets: the cosine term vanishes
    assert pdf_interferer_distance(np.sqrt(2.0), 1.0, 1.0) == pytest.approx(np.sqrt(2.0) / np.pi, abs=1e-15)


def test_interferer_pdf_rejects_degenerate_offsets():
    with pytest.raises(ValueError):
        pdf_interferer_distance(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        pdf_interferer_distance(1.0, 1.0, 0.0)


def test_interferer_pdf_normalizes_via_angle_substitution():
    # with w(phi) = sqrt(v^2 + t^2 - 2 v t cos(phi)), the pushforward of the
    # density is exactly uniform in phi, so f(w) dw/dphi must equal 1/pi
    for v, t in ((1.0, 1.0), (0.2, 0.9)):
        def integrand(phi):
            w = np.sqrt(v**2 + t**2 - 2 * v * t * np.cos(phi))
            return pdf_interferer_distance(w, v, t) * (v * t * np.sin(phi) / w)

        assert integrate_1d(integrand, 1e-12, np.pi - 1e-12, 64) == pytest.approx(1.0, abs=1e-8)


def test_interferer_change_of_variables_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v, t = rng.uniform(0.05, 1.0, size=2)
        phi = rng.uniform(1e-6, np.pi - 1e-6)
        w = np.sqrt(v**2 + t**2 - 2 * v * t * np.cos(phi))
        density = pdf_interferer_distance(w, v, t) * (v * t * np.sin(phi) / w)
        assert density == pytest.approx(1.0 / np.pi, abs=1e-12)


def test_interferer_sampling_support_and_median():
    rng = np.random.default_rng(5)
    draws = sample_interferer_distance(1.0, 1.0, rng, size=1_000_000)
    assert np.all(draws > 0) and np.all(draws < 2)
    # phi = pi/2 is the median angle, mapping to w = sqrt(2)
    frac = np.mean(draws <= np.sqrt(2.0))
    assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / draws.size)


def test_interferer_sampler_matches_pdf_histogram():
    rng = np.random.default_rng(6)
    v, t = 1.0, 1.0
    n = 1_000_000
    draws = sample_interferer_distance(v, t, rng, size=n)
    edges = np.linspace(0.0, 2.0, 101)
    hist = np.histogram(draws, bins=edges)[0] / n
    # exact bin masses via the angle CDF: P(W <= w) = arccos((v^2+t^2-w^2)/(2vt))/pi
    cdf = np.arccos(np.clip((v**2 + t**2 - edges**2) / (2 * v * t), -1.0, 1.0)) / np.pi
    assert np.abs(hist - np.diff(cdf)).sum() < 0.01


def test_two_point_distance_matches_marginalized_law():
    rng = np.random.default_rng(7)
    n = 1_000_000
    a = sample_uniform_disk(DISK, rng, size=n)
    b = sample_uniform_disk(DISK, rng, size=n)
    d = np.sort(np.hypot(*(a - b).T))
    cdf = marginal_link_cdf(d, DISK.radius)
    ecdf_hi = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(ecdf_hi - 1 / n - cdf)))
    assert ks < 0.002
