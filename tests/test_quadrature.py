import numpy as np
import pytest

from fdd2d import DiskConfig, QuadratureSpec, QuadratureWarning
from fdd2d.quadrature import gauss_legendre
from oracles import QuadratureError, _gauss_legendre, integrate_1d, pdf_link_distance, refine_until

DISK = DiskConfig(30.0)


def test_constant_is_exact():
    # exact up to the rounding of the tabulated weights (a couple of ulp)
    assert integrate_1d(lambda x: np.ones_like(x), 0.0, 1.0, 8) == pytest.approx(1.0, abs=1e-15)


def test_cubic_polynomial_exactness():
    assert integrate_1d(lambda x: x**3, 0.0, 1.0, 4) == pytest.approx(0.25, abs=1e-14)


def test_triangular_density_normalizes():
    r = DISK.radius
    assert integrate_1d(lambda z: 2 * z / r**2, 0.0, r, 16) == pytest.approx(1.0, abs=1e-12)


def test_empty_interval_is_zero():
    assert integrate_1d(lambda x: x, 2.0, 2.0, 8) == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 0.0, 8)


def test_non_finite_integrand_names_abscissa():
    def f(x):
        return np.where(x > 0.5, np.inf, 1.0)

    with pytest.raises(QuadratureError) as err:
        integrate_1d(f, 0.0, 1.0, 8)
    assert "inf" in str(err.value)
    assert "x=" in str(err.value)


def test_package_rule_matches_scipy_rule():
    # the package's numpy rule against the oracle's scipy rule
    for n in (4, 24, 32, 48, 64):
        x, w = gauss_legendre(n)
        x_ref, w_ref = _gauss_legendre(n)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_level={"v": 3})
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_level={"bogus": 8})
    with pytest.raises(ValueError):
        refine_until(lambda spec: 1.0, QuadratureSpec(), rel_tol=0.0)
    spec = QuadratureSpec(nodes_per_level={"v": 8})
    assert spec.nodes("v") == 8
    assert spec.nodes("angle") == 32  # unspecified levels keep defaults
    assert spec.doubled().nodes("v") == 16


def test_refine_constant_converges_immediately():
    value, delta = refine_until(lambda spec: 2.5, QuadratureSpec())
    assert value == 2.5
    assert delta == 0.0


def test_refine_link_law_normalization():
    q = 0.4 * DISK.radius

    def estimate(spec):
        n = spec.nodes("zi")
        near = integrate_1d(lambda z: pdf_link_distance(z, q, DISK), 0.0, DISK.radius - q, n)
        rim = integrate_1d(
            lambda z: pdf_link_distance(z, q, DISK), DISK.radius - q, DISK.radius + q, n
        )
        return near + rim

    value, delta = refine_until(estimate, QuadratureSpec(), levels=("zi",), rel_tol=1e-8)
    assert delta < 1e-8
    assert value == pytest.approx(1.0, abs=1e-8)


def test_refine_budget_exhaustion_reports_both_estimates():
    calls = []

    def never_converges(spec):
        calls.append(spec.node_items())
        return float(len(calls))  # keeps moving, never within tolerance

    with pytest.warns(QuadratureWarning, match="last estimates"):
        value, delta = refine_until(never_converges, QuadratureSpec(), rel_tol=1e-12, max_evaluations=10**8)
    assert value == float(len(calls))
    assert delta > 0


def test_panel_splitting_matches_unsplit():
    def f(x):
        return np.exp(-x) * np.sin(3 * x) + x**2

    whole = integrate_1d(f, 0.0, 2.0, 48)
    for cut in (0.3, 1.0, 1.7):
        split = integrate_1d(f, 0.0, cut, 48) + integrate_1d(f, cut, 2.0, 48)
        assert split == pytest.approx(whole, rel=1e-12)


def test_deterministic_bit_identical():
    def f(x):
        return np.cos(x) / (1.0 + x**2)

    a = integrate_1d(f, 0.0, 3.0, 33)
    b = integrate_1d(f, 0.0, 3.0, 33)
    assert a == b
