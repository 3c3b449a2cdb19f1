import threading

import numpy as np
import pytest
from scipy import stats

from fdd2d import (
    FDTR,
    HDRX,
    SI_MODELS,
    SI_SINGLE,
    ChannelConfig,
    DiskConfig,
    ModelConfig,
    QuadratureSpec,
    QuadratureWarning,
    build_zipf,
    compute_mode_probabilities,
    laplace_interference,
    success_curve,
    success_probability,
    success_probability_cache,
)
from oracles import mc_laplace, mc_sir_success

CFG = ModelConfig(
    n_users=10,
    disk=DiskConfig(30.0),
    profile=build_zipf(1000, 1.2),
    channel=ChannelConfig(alpha=4.0, beta=1e-5),
)


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(alpha=2.0)
    with pytest.raises(ValueError):
        ChannelConfig(alpha=4.0, beta=-0.1)
    with pytest.raises(ValueError):
        ChannelConfig(alpha=4.0, beta=1.5)


def test_model_config_rejects_non_integral_user_count():
    # a float N once passed here and failed deep inside success_curve
    profile = build_zipf(100, 1.0)
    for n_users in (10.0, np.float64(10), True, "10"):
        with pytest.raises(ValueError, match="n_users must be an integer"):
            ModelConfig(n_users, DiskConfig(10.0), profile, ChannelConfig())
    assert ModelConfig(np.int64(10), DiskConfig(10.0), profile, ChannelConfig()).n_users == 10


def test_model_config_validation():
    profile = build_zipf(5, 1.0)
    with pytest.raises(ValueError):
        ModelConfig(6, DiskConfig(10.0), profile, ChannelConfig())
    with pytest.raises(ValueError):
        ModelConfig(0, DiskConfig(10.0), profile, ChannelConfig())


@pytest.mark.parametrize("radius, alpha", [(1e80, 4.0), (1e300, 4.0), (1e-200, 4.0), (30.0, 1000.0)])
def test_model_config_rejects_distance_powers_out_of_float64(radius, alpha):
    # the simulator raises distances up to the diameter to +-alpha
    with pytest.raises(ValueError, match="float64"):
        ModelConfig(5, DiskConfig(radius), CFG.profile, ChannelConfig(alpha=alpha))


def test_laplace_at_zero_is_one():
    for delta in (HDRX, FDTR):
        for n_t in (1, 3):
            assert laplace_interference(0.0, delta, n_t, CFG) == pytest.approx(1.0, abs=1e-6)


def test_laplace_single_transmitter_is_one():
    for delta in (HDRX, FDTR):
        for s in (0.3, 7.0):
            assert laplace_interference(s, delta, 1, CFG) == pytest.approx(1.0, abs=1e-6)


def test_laplace_zero_si_collapses_fdtr_to_hdrx():
    cfg = ModelConfig(CFG.n_users, CFG.disk, CFG.profile, ChannelConfig(alpha=4.0, beta=0.0))
    for s in (0.5, 5.0):
        hd = laplace_interference(s, HDRX, 4, cfg)
        fd = laplace_interference(s, FDTR, 4, cfg)
        assert fd == pytest.approx(hd, abs=1e-6)


def test_laplace_monotone_in_s_and_count():
    s_grid = [0.1, 1.0, 10.0]
    n_grid = [1, 2, 4]
    for delta in (HDRX, FDTR):
        values = np.array([[laplace_interference(s, delta, n, CFG) for n in n_grid] for s in s_grid])
        assert np.all(np.diff(values, axis=0) <= 1e-12)  # larger s never helps
        assert np.all(np.diff(values, axis=1) <= 1e-12)  # more interferers never help


def test_laplace_fdtr_below_hdrx_with_si():
    for s in (0.5, 5.0):
        assert laplace_interference(s, FDTR, 4, CFG) <= laplace_interference(s, HDRX, 4, CFG) + 1e-12


def test_laplace_rejects_bad_arguments():
    with pytest.raises(ValueError):
        laplace_interference(-1.0, HDRX, 2, CFG)
    with pytest.raises(ValueError):
        laplace_interference(True, HDRX, 2, CFG)
    with pytest.raises(ValueError):
        laplace_interference(1.0, "XYZ", 2, CFG)
    with pytest.raises(ValueError):
        laplace_interference(1.0, HDRX, 0, CFG)
    with pytest.raises(ValueError):
        laplace_interference(1.0, HDRX, True, CFG)
    with pytest.raises(ValueError):
        laplace_interference(1.0, HDRX, 2, CFG, si_model="bogus")


def test_laplace_against_integrand_oracle_quick():
    # lighter version of the acceptance run: 1e6 samples, two corners
    for delta, n_t, s in ((HDRX, 2, 1.0), (FDTR, 5, 0.1)):
        value = laplace_interference(s, delta, n_t, CFG)
        mean, sem = mc_laplace(s, delta, n_t, 30.0, 4.0, 1e-5, 1_000_000, seed=11)
        assert abs(value - mean) < 3 * sem


def test_laplace_single_si_model_differs():
    # with one transmitter there is no interferer: the literal per-interferer
    # accounting has no self-interference left, the single model keeps one term
    per = laplace_interference(1.0, FDTR, 1, CFG)
    single = laplace_interference(1.0, FDTR, 1, CFG, si_model=SI_SINGLE)
    assert per == pytest.approx(1.0, abs=1e-6)
    assert single < per - 0.1


def test_cache_success_closed_forms():
    profile = build_zipf(8, 0.9)
    cfg = ModelConfig(8, DiskConfig(10.0), profile, ChannelConfig())
    assert success_probability_cache(cfg) == pytest.approx(1.0 / 8, abs=1e-12)
    cfg2 = ModelConfig(2, DiskConfig(10.0), build_zipf(2, 0.0), ChannelConfig())
    assert success_probability_cache(cfg2) == pytest.approx(0.5, abs=1e-12)


def test_cache_success_matches_mode_probabilities():
    mp = compute_mode_probabilities(CFG.profile, CFG.n_users)
    assert success_probability_cache(CFG) == pytest.approx(mp.p_sr + mp.p_sr_hdtx, abs=1e-12)


def test_success_probability_single_user():
    cfg = ModelConfig(1, DiskConfig(30.0), build_zipf(100, 1.2), ChannelConfig())
    result = success_probability(cfg, 1.0)
    assert result.p_sir == 0.0
    assert result.p_total == result.p_cache == pytest.approx(cfg.profile.rho[0], abs=1e-12)


def test_success_probability_bounds():
    mp = compute_mode_probabilities(CFG.profile, CFG.n_users)
    for theta in (0.1, 1.0, 100.0):
        result = success_probability(CFG, theta)
        assert result.p_cache <= result.p_total <= result.p_cache + mp.p_hdrx + mp.p_fdtr + 1e-12


def test_success_probability_rejects_bad_theta():
    with pytest.raises(ValueError):
        success_probability(CFG, 0.0)
    with pytest.raises(ValueError):
        success_probability(CFG, float("inf"))
    with pytest.raises(ValueError):
        success_probability(CFG, True)


def test_curve_wrapper_consistency():
    theta = 2.0
    curve = success_curve(CFG, [theta])
    point = success_probability(CFG, theta)
    assert curve.p_total[0] == pytest.approx(point.p_total, abs=1e-12)
    assert curve.p_cache == pytest.approx(point.p_cache, abs=1e-12)
    assert curve.p_total[0] == pytest.approx(curve.p_cache + curve.p_sir[0], abs=1e-12)


def test_curve_monotone_and_additive():
    thetas = 10.0 ** (np.arange(-10, 31, 5) / 10.0)
    curve = success_curve(CFG, thetas)
    assert np.all(np.diff(curve.p_sir) <= 1e-12)
    np.testing.assert_allclose(curve.p_total, curve.p_cache + curve.p_sir, atol=1e-12)
    assert np.all(curve.p_total >= 0) and np.all(curve.p_total <= 1)


def test_curve_rejects_bad_grids():
    with pytest.raises(ValueError):
        success_curve(CFG, [])
    with pytest.raises(ValueError):
        success_curve(CFG, [2.0, 1.0])
    with pytest.raises(ValueError):
        success_curve(CFG, [-1.0, 2.0])
    with pytest.raises(ValueError):
        success_curve(CFG, [True])


def test_high_threshold_approaches_interference_free_floor():
    # L -> 0 for every multi-transmitter term, leaving the cache part plus the
    # lone-transmitter binomial mass (whose transform is identically 1)
    mp = compute_mode_probabilities(CFG.profile, CFG.n_users)
    pmf = stats.binom.pmf(np.arange(CFG.n_users + 1), CFG.n_users, mp.p_tx)
    floor = success_probability_cache(CFG) + pmf[1] * (mp.p_hdrx + mp.p_fdtr)
    result = success_probability(CFG, 1e9)
    assert result.p_total == pytest.approx(floor, abs=1e-3)


def test_sir_success_matches_event_oracle_n2():
    # brute-force replacement of the transmitter-count mixture and the
    # transform by direct simulation of the conditional success event (N = 2)
    profile = build_zipf(40, 1.0)
    cfg = ModelConfig(2, DiskConfig(30.0), profile, ChannelConfig(alpha=4.0, beta=1e-5))
    mp = compute_mode_probabilities(profile, 2)
    for theta in (0.5, 4.0):
        analytic = success_probability(cfg, theta).p_sir
        mean, sem = mc_sir_success(
            theta, 2, mp.p_tx, mp.p_hdrx, mp.p_fdtr, 30.0, 4.0, 1e-5,
            n_samples=400_000, seed=23,
        )
        assert abs(analytic - mean) < 3 * max(sem, 1e-4)


def test_transform_over_evaluation_budget_warns_and_still_computes(monkeypatch):
    import fdd2d.analytic

    expected = laplace_interference(1.0, FDTR, 3, CFG)
    monkeypatch.setattr(fdd2d.analytic, "_EVALUATION_BUDGET", 1000)
    with pytest.warns(QuadratureWarning, match="over the budget of 1000"):
        value = laplace_interference(1.0, FDTR, 3, CFG)
    assert value == expected


def test_quadrature_spec_override_converges():
    coarse = QuadratureSpec(nodes_per_level={"v": 8, "t": 8, "z0": 8, "angle": 12, "zi": 8})
    a = laplace_interference(1.0, HDRX, 3, CFG, coarse)
    b = laplace_interference(1.0, HDRX, 3, CFG)
    assert a == pytest.approx(b, rel=1e-3)


def test_refinement_over_transform_at_zero():
    from oracles import refine_until

    spec = QuadratureSpec(nodes_per_level={"v": 8, "t": 8, "z0": 8, "angle": 12, "zi": 8})
    value, delta = refine_until(lambda sp: laplace_interference(0.0, FDTR, 3, CFG, sp), spec, rel_tol=1e-8)
    assert delta < 1e-8
    assert value == pytest.approx(1.0, abs=1e-8)


def test_wide_disk_sweep_is_monotone():
    cfg = ModelConfig(20, DiskConfig(40.0), CFG.profile, CFG.channel)
    thetas = 10.0 ** (np.arange(-10, 31, 10) / 10.0)
    curve = success_curve(cfg, thetas)
    assert np.all(np.diff(curve.p_total) <= 1e-12)
    assert np.all((curve.p_total >= 0) & (curve.p_total <= 1))


EIGHT_CPUS = set(range(8))


def _cold_curve(cfg, thetas, si_model):
    """``success_curve`` on a fresh shared evaluator, so that it builds every kernel."""
    from fdd2d.analytic import _unit_evaluator

    _unit_evaluator.cache_clear()
    return success_curve(cfg, thetas, si_model=si_model)


def _per_count_mixture(cfg, thetas, si_model):
    """Reference SIR part: sum over every transmitter count n of pmf[n] times the per-count transforms."""
    mp = compute_mode_probabilities(cfg.profile, cfg.n_users)
    pmf = stats.binom.pmf(np.arange(cfg.n_users + 1), cfg.n_users, mp.p_tx)
    return np.array([
        sum(
            pmf[n] * (
                mp.p_hdrx * laplace_interference(theta, HDRX, n, cfg, si_model=si_model)
                + mp.p_fdtr * laplace_interference(theta, FDTR, n, cfg, si_model=si_model)
            )
            for n in range(1, cfg.n_users + 1)
        )
        for theta in thetas
    ])


@pytest.mark.parametrize("alpha", [2.2, 4.0, 6.0])
@pytest.mark.parametrize("si_model", SI_MODELS)
def test_curve_matches_per_count_mixture(alpha, si_model):
    thetas = 10.0 ** (np.array([-10.0, 0.0, 10.0, 30.0]) / 10.0)
    for n_users in (1, 2, 10, 40, 1000):
        cfg = ModelConfig(n_users, DiskConfig(30.0), CFG.profile, ChannelConfig(alpha, 1e-5))
        curve = success_curve(cfg, thetas, si_model=si_model)
        np.testing.assert_allclose(curve.p_sir, _per_count_mixture(cfg, thetas, si_model), rtol=0, atol=1e-12)


@pytest.mark.parametrize("si_model", SI_MODELS)
def test_curve_matches_per_count_mixture_at_underflow_edges(si_model):
    # uniform demand at N = 1000 makes (1 - p_tx)**N underflow; beta*R**alpha
    # = 2.9e5 at +30 dB drives the SI factor through subnormals to 0
    cases = [
        (ModelConfig(1000, DiskConfig(30.0), build_zipf(1000, 0.0), ChannelConfig(4.0, 1e-5)), [0.1, 1.0, 1000.0]),
        (ModelConfig(40, DiskConfig(73.3), CFG.profile, ChannelConfig(4.0, 1e-2)), [1000.0]),
    ]
    for cfg, thetas in cases:
        curve = success_curve(cfg, thetas, si_model=si_model)
        np.testing.assert_allclose(curve.p_sir, _per_count_mixture(cfg, thetas, si_model), rtol=0, atol=1e-12)


@pytest.mark.parametrize("si_model", SI_MODELS)
@pytest.mark.parametrize("alpha", [120.0, 150.0, 170.0])
def test_curve_is_finite_at_large_distance_powers(alpha, si_model):
    # zi**alpha and wi**alpha both underflow here; (zi/wi)**alpha is 0, finite or inf
    cfg = ModelConfig(CFG.n_users, DiskConfig(30.0), CFG.profile, ChannelConfig(alpha, 1e-5))
    curve = success_curve(cfg, 10.0 ** (np.arange(-10, 31) / 10.0), si_model=si_model)
    assert np.all(np.isfinite(curve.p_total))
    assert np.all(curve.p_cache <= curve.p_total) and np.all(curve.p_total <= 1.0)
    assert np.all(np.diff(curve.p_total) <= 0)


@pytest.mark.parametrize("si_model", SI_MODELS)
def test_curve_depends_on_radius_and_beta_only_through_scale(si_model):
    # (R, beta) and (2R, beta/2**alpha) give the same beta*R**alpha bit for bit at alpha = 4
    thetas = 10.0 ** (np.arange(-10, 31, 10) / 10.0)
    base = ModelConfig(20, DiskConfig(30.0), CFG.profile, ChannelConfig(4.0, 1e-3))
    scaled = ModelConfig(20, DiskConfig(60.0), CFG.profile, ChannelConfig(4.0, 1e-3 / 16.0))
    np.testing.assert_array_equal(
        success_curve(base, thetas, si_model=si_model).p_total,
        success_curve(scaled, thetas, si_model=si_model).p_total,
    )


def test_count_sum_matches_binomial_polynomial():
    from oracles import package_count_sum

    x = np.array([0.0, 5e-324, 1e-200, 1e-3, 0.5, 1.0])
    for n_users in (1, 2, 7):
        for p_tx in (0.0, 0.3, 1.0):
            pmf = stats.binom.pmf(np.arange(n_users + 1), n_users, p_tx)
            expected = sum(pmf[n] * x ** (n - 1) for n in range(1, n_users + 1))
            np.testing.assert_allclose(package_count_sum(x, p_tx, n_users), expected, rtol=1e-14, atol=0)


def test_count_sum_stable_for_large_n():
    from oracles import package_count_sum

    # nonnegative coefficients: G is finite, nonnegative and nondecreasing on
    # [0, 1], and G(1) = 1 - pmf[0]
    x = np.concatenate([[0.0], np.logspace(-300, 0, 601)])
    g = package_count_sum(x, 0.3456, 10_000)
    assert np.all(np.isfinite(g)) and np.all(g >= 0)
    assert np.all(np.diff(g) >= 0)
    assert abs(g[-1] - 1.0) < 1e-10


def test_count_sum_in_place_matches_reference():
    from oracles import count_sum, package_count_sum

    # the edges of test_count_sum_matches_binomial_polynomial, the sides of the
    # 1e-150 switch, and a (v, t, z0)-shaped block whose mask is not a whole
    # number of floats
    edges = [0.0, 5e-324, 1e-200, np.nextafter(1e-150, 0.0), 1e-150, np.nextafter(1e-150, 1.0), 1e-3, 1.0]
    block = np.random.default_rng(5).choice(np.concatenate([edges, np.logspace(-300, 0, 41)]), (3, 5, 7))
    for x in (np.array(edges), block):
        for n_users in (1, 2, 7, 1000, 10_000):
            for p_tx in (0.0, 0.3, 1.0):
                np.testing.assert_array_equal(package_count_sum(x, p_tx, n_users), count_sum(x, p_tx, n_users))


@pytest.mark.parametrize("si_model", SI_MODELS)
def test_per_count_transform_matches_point_mass_count_average(si_model):
    # laplace_interference factorizes (K*e_k)**m = K**m * e_k**m; the count
    # average evaluates the same point-mass law on the (v, t, z0) grid
    from fdd2d.analytic import _evaluator

    ev, scale = _evaluator(CFG, None, si_model)
    work = ev.work_buffer()
    for n_t in (1, 2, 5, 40, 1000):
        # Binomial(n_t, 1) is the point mass at n_t
        for s in (0.0, 0.1, 1.0, 10.0, 1000.0):
            hdrx, fdtr = ev.count_average(ev.kernels([s])[s], s, scale, 1.0, n_t, si_model, work)
            assert abs(laplace_interference(s, HDRX, n_t, CFG, si_model=si_model) - hdrx) <= 1e-12
            assert abs(laplace_interference(s, FDTR, n_t, CFG, si_model=si_model) - fdtr) <= 1e-12


def test_cold_curve_memory_is_bounded(monkeypatch):
    # kernels build on the calling thread in tiles cut from one work buffer,
    # and the count average runs in v-chunks of another, taken once the first
    # is freed: memory grows with neither the node counts nor the CPU count
    import tracemalloc

    from fdd2d.analytic import _unit_evaluator

    monkeypatch.delenv("FD_D2D_THREADS", raising=False)
    for cpus in (None, EIGHT_CPUS):
        if cpus is not None:
            monkeypatch.setattr("os.sched_getaffinity", lambda pid: cpus, raising=False)
        for nodes, bound_mib in (({}, 8.6), ({"v": 400, "angle": 128}, 8.0)):
            _unit_evaluator.cache_clear()
            tracemalloc.start()
            try:
                success_curve(CFG, [1.0, 10.0], QuadratureSpec(nodes))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, (cpus, nodes, peak / 2**20)


def test_cold_kernels_build_on_the_calling_thread(monkeypatch):
    # on 64 CPUs a cold 41-threshold curve builds every kernel in one build,
    # on the calling thread, and starts no thread
    from fdd2d import analytic

    builds = []
    build = analytic._LaplaceEvaluator._build_kernels

    def traced_build(self, ss, work):
        builds.append((threading.get_ident(), len(ss), work.size))
        return build(self, ss, work)

    monkeypatch.delenv("FD_D2D_THREADS", raising=False)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(analytic._LaplaceEvaluator, "_build_kernels", traced_build)
    before = threading.active_count()
    _cold_curve(CFG, 10.0 ** (np.arange(-10, 31) / 10.0), SI_MODELS[0])
    assert threading.active_count() == before
    assert len(builds) == 1
    thread, count, work_floats = builds[0]
    assert thread == threading.get_ident()
    assert count == 41
    ev = analytic._unit_evaluator(CFG.channel.alpha, QuadratureSpec().node_items())
    assert work_floats == ev.work_buffer().size


def test_concurrent_curves_match_serial_calls():
    # the shared evaluator holds no per-call scratch: curves computed at once
    # on it, each computing kernels it has not cached, equal serial calls
    import sys
    import threading

    from fdd2d.analytic import _unit_evaluator

    jobs = [
        (ModelConfig(n_users, CFG.disk, CFG.profile, CFG.channel), np.geomspace(lo, hi, 9), si_model)
        for n_users, lo, hi, si_model in (
            (10, 0.1, 10.0, SI_MODELS[0]),
            (40, 0.3, 30.0, SI_MODELS[1]),
            (2, 1.0, 1000.0, SI_MODELS[0]),
            (1000, 0.05, 50.0, SI_MODELS[1]),
        )
    ]
    _unit_evaluator.cache_clear()
    serial = [success_curve(cfg, thetas, si_model=si_model) for cfg, thetas, si_model in jobs]
    _unit_evaluator.cache_clear()
    success_curve(CFG, [1.0])  # build the shared evaluator before the threads start
    results = [None] * len(jobs)

    def run(i):
        cfg, thetas, si_model = jobs[i]
        results[i] = success_curve(cfg, thetas, si_model=si_model)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, serial):
        np.testing.assert_array_equal(got.p_sir, want.p_sir)
        np.testing.assert_array_equal(got.p_total, want.p_total)


def test_warm_kernels_return_cached_arrays_without_building(monkeypatch):
    # with every kernel cached nothing is built, and no work buffer is taken
    from fdd2d import analytic

    ev = analytic._LaplaceEvaluator(4.0, QuadratureSpec({"v": 5, "t": 7, "angle": 6, "zi": 4, "z0": 4}).node_items())
    cold = ev.kernels([0.5, 2.0])

    def no_build(ss, work):
        raise AssertionError(f"built kernels {ss}")

    def no_buffer():
        raise AssertionError("took a work buffer")

    monkeypatch.setattr(ev, "_build_kernels", no_build)
    monkeypatch.setattr(ev, "work_buffer", no_buffer)
    warm = ev.kernels([0.5, 2.0])
    assert warm.keys() == cold.keys()
    assert all(warm[s] is cold[s] for s in cold)


def test_transform_reads_kernels_a_curve_cached(monkeypatch):
    # success_curve and laplace_interference share one kernel cache, read and
    # filled by kernels() alone
    from fdd2d.analytic import _LaplaceEvaluator

    built = []
    build = _LaplaceEvaluator._build_kernels

    def traced_build(self, ss, work):
        built.append(list(ss))
        return build(self, ss, work)

    thetas = np.geomspace(0.1, 1000.0, 7)
    _cold_curve(CFG, thetas, SI_MODELS[0])
    monkeypatch.setattr(_LaplaceEvaluator, "_build_kernels", traced_build)
    for si_model in SI_MODELS:
        for delta in (HDRX, FDTR):
            for theta in thetas:
                laplace_interference(float(theta), delta, 3, CFG, si_model=si_model)
    assert built == []
    # a threshold the curve did not see is built, once
    laplace_interference(0.5, HDRX, 3, CFG)
    laplace_interference(0.5, FDTR, 3, CFG)
    assert built == [[0.5]]


@pytest.mark.parametrize("alpha", [2.2, 4.0])
@pytest.mark.parametrize("nodes", [{}, {"v": 5, "t": 7, "angle": 6, "zi": 4, "z0": 4}], ids=["default", "small"])
def test_tiled_kernel_matches_v_major_reference(nodes, alpha, monkeypatch):
    # the small uneven grid runs in tiles of two v rows, so its last tile is short
    from fdd2d import analytic
    from oracles import reference_k_grid

    spec = QuadratureSpec(nodes)
    if nodes:
        # two v rows of 6 angles, each with a ratio and an integrand block of
        # 3 * 4 zi nodes and two angle rows
        monkeypatch.setattr(analytic, "_WORK_BYTES", 2 * 8 * 6 * (2 * 3 * 4 + 2))
    ev = analytic._LaplaceEvaluator(alpha, spec.node_items())
    assert ev.tile_rows == (2 if nodes else spec.nodes("v"))
    # s = 0 takes the all-ones integrand
    for s in (0.0, 1e-3, 1.0, 1e3):
        want = reference_k_grid(alpha, spec.nodes_per_level, s)
        got = ev.kernels([s])[s]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("si_model", SI_MODELS)
def test_curve_is_bit_identical_for_any_thread_count(si_model, monkeypatch):
    from fdd2d.analytic import _LaplaceEvaluator

    builders = set()
    build = _LaplaceEvaluator._build_kernels

    def traced_build(self, ss, work):
        builders.add(threading.get_ident())
        return build(self, ss, work)

    monkeypatch.setattr(_LaplaceEvaluator, "_build_kernels", traced_build)
    thetas = np.geomspace(0.1, 1000.0, 9)
    monkeypatch.setenv("FD_D2D_THREADS", "1")
    want = _cold_curve(CFG, thetas, si_model)
    monkeypatch.setenv("FD_D2D_THREADS", "2")
    two = _cold_curve(CFG, thetas, si_model)
    monkeypatch.delenv("FD_D2D_THREADS")
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: EIGHT_CPUS, raising=False)
    eight = _cold_curve(CFG, thetas, si_model)
    # every build runs on the calling thread
    assert builders == {threading.get_ident()}
    for got in (two, eight):
        np.testing.assert_array_equal(got.p_sir, want.p_sir)
        np.testing.assert_array_equal(got.p_total, want.p_total)


def test_curve_in_kernel_batches_matches_serial_curve(monkeypatch):
    # batches of three kernels; the cache, three kernels large and warm with
    # every other threshold, is cleared under a batch
    # whose kernels are partly cached, so the batch must hold its own
    from fdd2d import analytic

    thetas = np.geomspace(0.1, 1000.0, 10)
    monkeypatch.setenv("FD_D2D_THREADS", "1")
    want = _cold_curve(CFG, thetas, SI_MODELS[0])
    monkeypatch.delenv("FD_D2D_THREADS")
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: EIGHT_CPUS, raising=False)
    monkeypatch.setattr(analytic, "_KERNEL_CACHE_BYTES", 3 * 8 * 24 * 24)
    _cold_curve(CFG, thetas[::2], SI_MODELS[0])
    got = success_curve(CFG, thetas, si_model=SI_MODELS[0])
    np.testing.assert_array_equal(got.p_total, want.p_total)


def test_kernel_cache_stays_within_its_byte_budget():
    # at v = t = 200 a kernel is 320 KB, so the budget holds 58 of them and a
    # 70-threshold curve builds in two batches
    from fdd2d import analytic

    spec = QuadratureSpec({"v": 200, "t": 200, "angle": 4, "zi": 4, "z0": 4})
    thetas = np.geomspace(0.1, 1000.0, 70)
    ev = analytic._unit_evaluator(CFG.channel.alpha, spec.node_items())
    assert ev.cached_kernels() < thetas.size
    success_curve(CFG, thetas, spec, SI_SINGLE)
    assert 0 < sum(k.nbytes for k in ev._k_cache.values()) <= analytic._KERNEL_CACHE_BYTES


def test_cold_curve_leaves_no_thread_running(monkeypatch):
    monkeypatch.delenv("FD_D2D_THREADS", raising=False)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: EIGHT_CPUS, raising=False)
    before = threading.active_count()
    _cold_curve(CFG, np.geomspace(0.1, 1000.0, 9), SI_MODELS[0])
    assert threading.active_count() == before
