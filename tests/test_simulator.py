import multiprocessing
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fdd2d import (
    ChannelConfig,
    DiskConfig,
    Mode,
    ModeFrequencyReport,
    ModelConfig,
    SimConfig,
    build_zipf,
    classify_modes,
    compute_mode_probabilities,
    simulate_points,
)
from fdd2d.simulator import (
    _BLOCK_BYTES, _IS_CACHE, RECEIVING_MODES, _add, _block_stats, _fold, _pcg64_seeds, _seed_words, _simulate_block, _Tally,
    _task_config, resolve_workers,
)
from oracles import block_stats, link_sir, reference_modes, run_trial, sample_realization, trial_rng, trial_success

CFG = ModelConfig(
    n_users=10,
    disk=DiskConfig(30.0),
    profile=build_zipf(1000, 1.2),
    channel=ChannelConfig(alpha=4.0, beta=1e-5),
)


def expected_mode_vector(profile, n_users):
    mp = compute_mode_probabilities(profile, n_users)
    return np.array([mp.p_sr, mp.p_sr_hdtx, mp.p_bfd, mp.p_tnfd, mp.p_hdrx, mp.p_hdtx, mp.p_ho])


def test_classify_mutual_exchange():
    modes, tx = classify_modes([2, 1], 2)
    assert list(modes) == [Mode.BFD, Mode.BFD]
    assert tx.all()


def test_classify_three_user_chain():
    # user 1 fetches from user 2 (undemanded itself -> HDRX); user 2 serves
    # user 1 while fetching from user 3 (not a mutual pair -> TNFD); user 3
    # wants its own cache and serves user 2 -> SR-HDTX
    modes, tx = classify_modes([2, 3, 3], 3)
    assert list(modes) == [Mode.HDRX, Mode.TNFD, Mode.SR_HDTX]
    assert list(tx) == [False, True, True]


def test_classify_out_of_library_requests():
    # request 4 is cached by nobody (N = 3)
    modes, tx = classify_modes([2, 4, 4], 3)
    assert list(modes) == [Mode.HDRX, Mode.HDTX, Mode.HO]
    assert list(tx) == [False, True, False]


def test_classify_rejects_zero_based():
    with pytest.raises(ValueError):
        classify_modes([0, 1], 2)


@pytest.mark.parametrize(
    "requests", [np.array([[1.5, 2.0]]), np.array([[1.0, 2.0]]), [[True, True]], [1.0, 2.0]],
    ids=["fractional", "integral-float", "bool", "float-list"],
)
def test_classify_rejects_non_integer_requests(requests):
    # 1.5 was read as content 1, and True as content 1
    with pytest.raises(ValueError, match="integer content indices"):
        classify_modes(requests, 2)


@pytest.mark.parametrize("requests", [[2, 1], np.array([2, 1], dtype=np.int32), np.array([2, 1], dtype=np.uint64)])
def test_classify_takes_integer_requests_of_any_width(requests):
    modes, tx = classify_modes(requests, 2)
    assert list(modes) == [Mode.BFD, Mode.BFD]
    assert tx.all()


@pytest.mark.parametrize("n_users", [1, 2, 3, 10, 40])
def test_classify_matches_per_user_reference(n_users):
    # requests over 1..N+3, so some miss every cache; one batch dimension and two
    rng = np.random.default_rng(20 + n_users)
    seen = set()
    for shape in ((300, n_users), (2, 3, n_users)):
        requests = rng.integers(1, n_users + 4, size=shape)
        modes, tx = classify_modes(requests, n_users)
        assert modes.shape == tx.shape == shape
        for row, row_modes, row_tx in zip(requests.reshape(-1, n_users), modes.reshape(-1, n_users), tx.reshape(-1, n_users)):
            want_modes, want_tx = reference_modes(row, n_users)
            np.testing.assert_array_equal(row_modes, want_modes, err_msg=str(row))
            np.testing.assert_array_equal(row_tx, want_tx, err_msg=str(row))
        seen.update(modes.ravel().tolist())
    if n_users >= 3:
        assert seen == set(Mode)


def test_classify_frequencies_match_closed_forms():
    rng = np.random.default_rng(10)
    n_trials, n = 200_000, 20
    profile = build_zipf(1000, 1.2)
    requests = rng.random((n_trials, n))
    requests = np.searchsorted(profile.p_hit_prefix, requests) + 1
    modes, tx = classify_modes(requests, n)
    picked = modes[np.arange(n_trials), rng.integers(0, n, n_trials)]
    freq = np.bincount(picked, minlength=7) / n_trials
    expected = expected_mode_vector(profile, n)
    for k in range(7):
        sigma = np.sqrt(expected[k] * (1 - expected[k]) / n_trials)
        assert abs(freq[k] - expected[k]) < 3.5 * sigma, Mode(k).name


def test_classify_invariant_under_cache_permutation():
    # permuting which user caches which content relabels requests but leaves
    # the averaged mode frequencies at the same closed-form values
    rng = np.random.default_rng(11)
    n_trials, n = 150_000, 12
    profile = build_zipf(200, 1.0)
    perm = rng.permutation(n) + 1  # user k caches content perm[k]
    inverse = np.empty(n + 1, dtype=np.int64)
    inverse[perm] = np.arange(1, n + 1)
    requests = np.searchsorted(profile.p_hit_prefix, rng.random((n_trials, n))) + 1
    relabeled = np.where(requests <= n, inverse[np.minimum(requests, n)], requests)
    modes, _ = classify_modes(relabeled, n)
    picked = modes[np.arange(n_trials), rng.integers(0, n, n_trials)]
    freq = np.bincount(picked, minlength=7) / n_trials
    expected = expected_mode_vector(profile, n)
    for k in range(7):
        sigma = np.sqrt(max(expected[k] * (1 - expected[k]), 1e-12) / n_trials)
        assert abs(freq[k] - expected[k]) < 4 * sigma, Mode(k).name


def test_realization_structure():
    rng = np.random.default_rng(12)
    real = sample_realization(CFG, rng)
    n = CFG.n_users
    assert real.positions.shape == (n, 2)
    assert np.all(np.hypot(*real.positions.T) <= CFG.disk.radius)
    # a transmitter's chosen receiver really requests its content
    for mu in np.flatnonzero(real.transmitters):
        target = real.serve_target[mu]
        assert target != mu
        assert real.requests[target] == mu + 1
    # transmitter set equals the demanded set
    demanded = np.array([np.any(np.delete(real.requests, k) == k + 1) for k in range(n)])
    np.testing.assert_array_equal(real.transmitters, demanded)


def test_tiny_threshold_lets_every_receiver_succeed():
    rng = np.random.default_rng(13)
    for _ in range(50):
        real = sample_realization(CFG, rng)
        ok = trial_success(real, CFG.channel, 1e-12)[0]
        receiving = np.isin(real.modes, RECEIVING_MODES)
        assert np.all(ok[receiving])


def test_single_transmitter_receiver_is_interference_free():
    # N=3, m>3: user 1 fetches from user 2; user 2's own request misses the
    # caches, so user 2 is the only transmitter and user 1 sees no
    # interference: with noise ignored the SIR is infinite at any threshold
    rng = np.random.default_rng(14)
    cfg = ModelConfig(3, DiskConfig(30.0), build_zipf(10, 1.0), ChannelConfig(4.0, 1e-5))
    real = sample_realization(cfg, rng)
    real.requests = np.array([2, 5, 6])
    real.modes, real.transmitters = classify_modes(real.requests, 3)
    real.server_of = np.array([1, -1, -1])
    real.serve_target = np.array([-1, 0, -1])
    sir = link_sir(real, cfg.channel)
    assert np.isinf(sir[0])
    assert trial_success(real, cfg.channel, 1e9)[0][0]


def test_zero_si_makes_duplex_irrelevant():
    channel = ChannelConfig(alpha=4.0, beta=0.0)
    rng = np.random.default_rng(15)
    for _ in range(20):
        real = sample_realization(CFG, rng)
        base = link_sir(real, channel)
        relabeled = sample_realization(CFG, np.random.default_rng(0))  # fresh object
        for field in ("positions", "requests", "transmitters", "serve_target", "server_of", "fading"):
            setattr(relabeled, field, getattr(real, field))
        relabeled.modes = np.where(np.isin(real.modes, (Mode.BFD, Mode.TNFD)), Mode.HDRX, real.modes).astype(np.int8)
        swapped = link_sir(relabeled, channel)
        receiving = np.isin(real.modes, RECEIVING_MODES)
        np.testing.assert_allclose(swapped[receiving], base[receiving], rtol=1e-12)


def test_scaling_positions_and_radius_preserves_sir():
    # channel inversion cancels the path-loss scale in every interference
    # term, so half-duplex SIRs are scale-free; the residual
    # self-interference beta*Z0**alpha carries the scale (that is how the
    # disk radius enters the model at all), so full-duplex SIRs are only
    # scale-free when beta = 0
    rng = np.random.default_rng(16)
    for channel, check_fd in ((CFG.channel, False), (ChannelConfig(4.0, 0.0), True)):
        real = sample_realization(CFG, rng)
        scaled = sample_realization(CFG, np.random.default_rng(0))
        for field in ("requests", "modes", "transmitters", "serve_target", "server_of", "fading"):
            setattr(scaled, field, getattr(real, field))
        scaled.positions = real.positions * 7.3
        a = link_sir(real, channel)
        b = link_sir(scaled, channel)
        mask = ~np.isnan(a) if check_fd else (real.modes == Mode.HDRX)
        np.testing.assert_allclose(b[mask], a[mask], rtol=1e-9)


def test_success_monotone_in_threshold():
    rng = np.random.default_rng(17)
    thetas = 10.0 ** (np.arange(-10, 31, 2) / 10.0)
    for _ in range(20):
        real = sample_realization(CFG, rng)
        ok = trial_success(real, CFG.channel, thetas)
        assert np.all(ok[:-1] >= ok[1:])  # per-user indicator can only switch off


def test_run_trial_single_user():
    cfg = ModelConfig(1, DiskConfig(10.0), build_zipf(5, 1.0), ChannelConfig())
    sim = SimConfig(trials=1)
    rng = np.random.default_rng(18)
    result = run_trial(cfg, sim, 1.0, rng)
    assert result.success.shape == (1,)
    assert result.success[0] == (result.realization.modes[0] == Mode.SR)


def force_workers(monkeypatch, count):
    # the pool is sized by resolve_workers, so this runs two workers on a
    # one-CPU host too
    monkeypatch.setattr("fdd2d.simulator.resolve_workers", lambda: count)


def test_simulate_points_single_trial_single_user(monkeypatch):
    cfg = ModelConfig(1, DiskConfig(10.0), build_zipf(5, 1.0), ChannelConfig())
    force_workers(monkeypatch, 1)
    for seed in range(8):
        with simulate_points([cfg], SimConfig(trials=1, master_seed=seed), [1.0]) as points:
            curve, report = next(points)
        assert curve.p_total[0] in (0.0, 1.0)
        assert curve.p_total[0] == report.mode_counts[Mode.SR]


def test_simulate_points_deterministic_across_workers(monkeypatch):
    sim = SimConfig(trials=600, master_seed=42)
    thetas = [0.5, 2.0]
    force_workers(monkeypatch, 1)
    with simulate_points([CFG], sim, thetas) as points:
        c1, r1 = next(points)
    force_workers(monkeypatch, 2)
    with simulate_points([CFG], sim, thetas) as points:
        c2, r2 = next(points)
    np.testing.assert_array_equal(c1.p_total, c2.p_total)
    np.testing.assert_array_equal(c1.ci_halfwidth, c2.ci_halfwidth)
    np.testing.assert_array_equal(r1.mode_counts, r2.mode_counts)
    np.testing.assert_array_equal(r1.tx_count_hist, r2.tx_count_hist)


def test_simulate_points_repeatable(monkeypatch):
    sim = SimConfig(trials=300, master_seed=7)
    force_workers(monkeypatch, 1)
    with simulate_points([CFG], sim, [1.0]) as points:
        a, _ = next(points)
    with simulate_points([CFG], sim, [1.0]) as points:
        b, _ = next(points)
    np.testing.assert_array_equal(a.p_total, b.p_total)


@pytest.mark.parametrize(
    "thetas", [[], [[0.5, 2.0]], [2.0, 0.5], [0.0, 1.0], [1.0, np.inf], np.array([True])],
    ids=["empty", "2-D", "unsorted", "zero", "inf", "bool"],
)
def test_simulate_points_rejects_bad_thresholds_before_any_pool(thetas, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    force_workers(monkeypatch, 2)
    with pytest.raises(ValueError, match="thetas"):
        with simulate_points([CFG], SimConfig(trials=3000), thetas):
            pass


def test_simulate_points_gives_each_point_its_lone_result(monkeypatch):
    other = ModelConfig(6, DiskConfig(20.0), build_zipf(500, 0.8), ChannelConfig(alpha=3.0, beta=1e-2))
    sim = SimConfig(trials=1500, master_seed=11)
    thetas = [0.5, 2.0]
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        with simulate_points([CFG, other], sim, thetas) as points:
            pair = list(points)
        for cfg, (curve, report) in zip((CFG, other), pair):
            with simulate_points([cfg], sim, thetas) as points:
                (alone, alone_report), = points
            for name in ("thetas", "p_cache", "p_sir", "p_total", "ci_halfwidth"):
                np.testing.assert_array_equal(getattr(curve, name), getattr(alone, name))
            np.testing.assert_array_equal(report.mode_counts, alone_report.mode_counts)
            np.testing.assert_array_equal(report.tx_count_hist, alone_report.tx_count_hist)
            assert (report.trials, report.n_users) == (alone_report.trials, alone_report.n_users)


def test_simulate_points_joins_the_pool_when_left_early(monkeypatch):
    # the blocks still queued are cancelled and the workers joined
    force_workers(monkeypatch, 2)
    with simulate_points([CFG, CFG], SimConfig(trials=3000, master_seed=3), [1.0]) as points:
        next(points)
    assert multiprocessing.active_children() == []


def test_pool_task_size_does_not_grow_with_the_library(monkeypatch):
    sizes = {}
    force_workers(monkeypatch, 1)
    for m in (1000, 10**6):
        tasks = []
        monkeypatch.setattr("fdd2d.simulator._block_stats", lambda task: tasks.append(task) or _block_stats(task))
        with simulate_points([replace(CFG, profile=build_zipf(m, 1.2))], SimConfig(trials=10), [1.0]) as points:
            next(points)
        sizes[m] = len(pickle.dumps(tasks[0]))
    assert sizes[10**6] == sizes[1000]


@pytest.mark.parametrize("m", [4, 5, 6, 1000])
@pytest.mark.parametrize("gamma_r", [0.0, 1.2])
def test_task_config_keeps_every_outcome(m, gamma_r):
    # at m = N the profile is kept whole, above it the uncached contents are one
    cfg = ModelConfig(4, DiskConfig(30.0), build_zipf(m, gamma_r), ChannelConfig())
    cut = _task_config(cfg)
    assert cut.profile.m == min(m, 5) and cut.n_users == 4
    assert cut.profile.p_hit_prefix[-1] == cfg.profile.p_hit_prefix[-1]
    for got, want in zip(_simulate_block(cut, SimConfig(), 0, 300), _simulate_block(cfg, SimConfig(), 0, 300)):
        np.testing.assert_array_equal(got, want)


def test_mode_report_matches_theorem(monkeypatch):
    sim = SimConfig(trials=60_000, master_seed=5)
    force_workers(monkeypatch, 2)
    with simulate_points([CFG], sim, [1.0]) as points:
        _, report = next(points)
    expected = expected_mode_vector(CFG.profile, CFG.n_users)
    n_samples = sim.trials * CFG.n_users
    freq = report.mode_frequencies
    for k in range(7):
        sigma = np.sqrt(expected[k] * (1 - expected[k]) / n_samples)
        # user labels within one trial are correlated, allow slack over the
        # i.i.d. binomial band
        assert abs(freq[k] - expected[k]) < 6 * sigma, Mode(k).name


def test_transmitter_count_mean_and_marginals(monkeypatch):
    # the per-user transmit probability and hence the mean count are exact;
    # the joint count is NOT binomial (requests couple the transmit events:
    # empirically P(N_t=0) sits far below (1-p_tx)**N), so only the moments
    # backed by linearity are asserted here
    sim = SimConfig(trials=60_000, master_seed=6)
    force_workers(monkeypatch, 2)
    with simulate_points([CFG], sim, [1.0]) as points:
        _, report = next(points)
    p_tx = compute_mode_probabilities(CFG.profile, CFG.n_users).p_tx
    counts = np.arange(CFG.n_users + 1)
    freq = report.tx_count_hist / report.trials
    mean = float(np.dot(counts, freq))
    var = float(np.dot(counts**2, freq) - mean**2)
    assert abs(mean - CFG.n_users * p_tx) < 3 * np.sqrt(var / sim.trials)

    rng = np.random.default_rng(60)
    n_trials = 200_000
    reqs = np.searchsorted(CFG.profile.p_hit_prefix, rng.random((n_trials, CFG.n_users))) + 1
    _, tx = classify_modes(reqs, CFG.n_users)
    marginal = 1.0 - (1.0 - CFG.profile.rho[: CFG.n_users]) ** (CFG.n_users - 1)
    emp = tx.mean(axis=0)
    sigma = np.sqrt(marginal * (1 - marginal) / n_trials)
    assert np.all(np.abs(emp - marginal) < 4 * sigma)


def test_mode_chi_square_not_rejected():
    # one uniformly chosen user per trial keeps the draws i.i.d. categorical
    rng = np.random.default_rng(19)
    n_trials, n = 1_000_000, 20
    profile = build_zipf(1000, 1.2)
    counts = np.zeros(7, dtype=np.int64)
    for start in range(0, n_trials, 200_000):
        b = min(200_000, n_trials - start)
        reqs = np.searchsorted(profile.p_hit_prefix, rng.random((b, n))) + 1
        modes, _ = classify_modes(reqs, n)
        picked = modes[np.arange(b), rng.integers(0, n, b)]
        counts += np.bincount(picked, minlength=7)
    expected = expected_mode_vector(profile, n) * n_trials
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p_value = stats.chi2.sf(chi2, df=6)
    assert p_value > 0.01


GATE_THETAS = 10.0 ** (np.arange(-10, 31, 1) / 10.0)


def gate_config(n_users, gamma_r, beta):
    return ModelConfig(n_users, DiskConfig(30.0), build_zipf(1000, gamma_r), ChannelConfig(4.0, beta))


def assert_tallies_equal(got, want):
    # every field of the package's tally, so a field that want lacks fails
    for name in _Tally._fields:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def assert_counts_equal(got, want):
    """The package's tally equals the oracle's counts, and so do the cache hits _fold derives from it."""
    assert_tallies_equal(got, want)
    assert got.mode_counts[_IS_CACHE].sum() == want.cache


@pytest.mark.parametrize("si_model", ["per-interferer", "single"])
@pytest.mark.parametrize("n_users", [1, 2, 3, 10, 40, 200])
def test_block_counts_equal_per_trial_oracle(n_users, si_model):
    # the kernel keeps every trial's seed stream and arithmetic, so its
    # integer counts equal the one-network-at-a-time oracle's exactly
    trials = 12 if n_users == 200 else 40
    for gamma_r in (0.0, 1.2, 2.5):
        for beta in (0.0, 1e-2):
            cfg = gate_config(n_users, gamma_r, beta)
            sim = SimConfig(trials=trials, master_seed=31, si_model=si_model)
            args = (cfg, sim, GATE_THETAS, 5, 5 + trials)
            assert_counts_equal(_block_stats(args), block_stats(*args))


@pytest.mark.parametrize("si_model", ["per-interferer", "single"])
def test_block_counts_equal_oracle_over_unaligned_range(si_model):
    # [5, 1030) spans a pool task's worth of trials in kernel blocks whose
    # size does not divide it
    cfg = gate_config(40, 1.2, 1e-2)
    args = (cfg, SimConfig(trials=1, master_seed=32, si_model=si_model), GATE_THETAS, 5, 1030)
    assert_counts_equal(_block_stats(args), block_stats(*args))


def test_block_counts_at_thresholds_equal_to_sirs():
    # a receiver whose SIR equals the threshold succeeds, as in the oracle
    cfg = gate_config(10, 1.2, 1e-2)
    sim = SimConfig(trials=1, master_seed=35)
    sir = _simulate_block(cfg, sim, 0, 40).sir
    thetas = np.unique(sir[np.isfinite(sir)])[::5]
    args = (cfg, sim, thetas, 0, 40)
    assert_counts_equal(_block_stats(args), block_stats(*args))


# N = 256 is the largest lone trial whose whole fading array fits
# _BLOCK_BYTES; N = 257 draws its transmitter rows in chunks.  Either visits
# its stream once
@pytest.mark.parametrize("n_users", [1, 2, 3, 10, 40, 200, 256, 257])
def test_block_of_one_replays_oracle_trial_bitwise(n_users):
    for si_model in ("per-interferer", "single"):
        for gamma_r in (0.0, 1.2, 2.5):
            for beta in (0.0, 1e-2):
                cfg = gate_config(n_users, gamma_r, beta)
                sim = SimConfig(trials=1, master_seed=33, si_model=si_model)
                for trial in (0, 7):
                    block = _simulate_block(cfg, sim, trial, trial + 1)
                    real = sample_realization(cfg, trial_rng(sim.master_seed, trial))
                    sir = link_sir(real, cfg.channel, si_model)
                    np.testing.assert_array_equal(block.modes[0], real.modes)
                    np.testing.assert_array_equal(block.transmitters[0], real.transmitters)
                    np.testing.assert_array_equal(block.serve_target[0], real.serve_target)
                    # same bits, so NaN and inf sit in the same places
                    np.testing.assert_array_equal(block.sir[0].view(np.uint64), sir.view(np.uint64))


@pytest.mark.parametrize("n_users", [256, 257])
def test_block_counts_equal_oracle_on_either_draw_path(n_users):
    assert 8 * 256 * 256 == _BLOCK_BYTES
    for si_model in ("per-interferer", "single"):
        cfg = gate_config(n_users, 1.2, 1e-2)
        args = (cfg, SimConfig(trials=1, master_seed=36, si_model=si_model), GATE_THETAS, 3, 7)
        assert_counts_equal(_block_stats(args), block_stats(*args))


def test_block_over_budget_holds_one_trial():
    # only a lone trial may draw its fading in chunks
    cfg = gate_config(257, 1.2, 1e-2)
    with pytest.raises(ValueError, match="holds one trial"):
        _simulate_block(cfg, SimConfig(trials=2, master_seed=36), 0, 2)


def test_block_cut_leaves_task_counts_unchanged(monkeypatch):
    # blocks of 7 trials read other slices of the task's one seed list than
    # blocks of 40; the counts must not notice
    cfg = gate_config(40, 1.2, 1e-2)
    args = (cfg, SimConfig(trials=1, master_seed=38), GATE_THETAS, 5, 1030)
    default = _block_stats(args)
    monkeypatch.setattr("fdd2d.simulator._BLOCK_TRIALS", 7)
    assert_tallies_equal(_block_stats(args), default)


def test_task_cut_leaves_counts_unchanged():
    # two pool tasks add up, field by field, to the tally of one task over
    # both of their trials
    cfg = gate_config(40, 1.2, 1e-2)
    sim = SimConfig(trials=1, master_seed=38)
    whole = _block_stats((cfg, sim, GATE_THETAS, 5, 1030))
    parts = [_block_stats((cfg, sim, GATE_THETAS, a, b)) for a, b in ((5, 517), (517, 1030))]
    assert_tallies_equal(_add(*parts), whole)


def test_fold_divides_by_the_oracle_cache_and_sample_counts():
    # _fold derives the cache hits from the mode counts and the user samples
    # as trials * N; over two pool tasks both equal the oracle's own counts
    cfg = gate_config(10, 1.2, 1e-2)
    sim = SimConfig(trials=200, master_seed=40)
    want = block_stats(cfg, sim, GATE_THETAS, 0, sim.trials)
    tasks = [(cfg, sim, GATE_THETAS, a, b) for a, b in ((0, 77), (77, 200))]
    curve, _ = _fold(cfg, sim, GATE_THETAS, map(_block_stats, tasks))
    np.testing.assert_array_equal(curve.p_cache, want.cache / want.samples)
    np.testing.assert_array_equal(curve.p_sir, (want.succ - want.cache) / want.samples)
    np.testing.assert_array_equal(curve.p_total, want.succ / want.samples)


def test_tally_fields_are_integer_counts():
    # a float statistic would make the sum depend on how trials are cut
    # among workers
    tally = _block_stats((gate_config(10, 1.2, 1e-2), SimConfig(trials=1, master_seed=39), GATE_THETAS, 0, 300))
    for name in _Tally._fields:
        assert np.issubdtype(getattr(tally, name).dtype, np.integer), name


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
TRIAL_EDGES = [0, 1, 1023, 2**32 - 1, 2**32, 2**40]


@pytest.mark.parametrize("master_seed", SEED_EDGES)
def test_block_seeds_equal_seed_sequence(master_seed):
    # one and two 32-bit words of entropy on either side; each block also
    # holds the trials next to the edge
    for trial in TRIAL_EDGES:
        start = max(0, trial - 1)
        seeds = _pcg64_seeds(_seed_words(master_seed, start, trial + 2))
        assert len(seeds) == trial + 2 - start
        for t, seed in zip(range(start, trial + 2), seeds):
            state = np.random.PCG64(np.random.SeedSequence((master_seed, t))).state["state"]
            assert seed == (state["state"], state["inc"]), (master_seed, t)


def test_block_counts_equal_oracle_across_trial_2_to_the_32():
    # the trial index grows from one entropy word to two inside the block
    cfg = gate_config(10, 1.2, 1e-2)
    args = (cfg, SimConfig(trials=1, master_seed=2**63), GATE_THETAS, 2**32 - 20, 2**32 + 20)
    assert_counts_equal(_block_stats(args), block_stats(*args))


def test_workers_follow_cpu_affinity(monkeypatch):
    # a process pinned to one CPU of a larger host runs one worker
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.delenv("FD_D2D_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("FD_D2D_THREADS", "4")
    assert resolve_workers() == 1
    # without an affinity call, the CPU count
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setenv("FD_D2D_THREADS", "4")
    assert resolve_workers() == 4
    monkeypatch.delenv("FD_D2D_THREADS")
    assert resolve_workers() == 64


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_network_replay_within_oracle_peak_memory():
    # one trial at N = 2000: the kernel keeps only the transmitter rows of
    # the fading matrix, drawn many rows at a time, and still reproduces the
    # oracle's SIRs bit for bit
    cfg = ModelConfig(2000, DiskConfig(30.0), build_zipf(3000, 1.2), ChannelConfig(4.0, 1e-5))
    sim = SimConfig(trials=1, master_seed=34)

    def oracle_trial():
        real = sample_realization(cfg, trial_rng(sim.master_seed, 0))
        return real, link_sir(real, cfg.channel, sim.si_model)

    block, kernel_peak = traced_peak(_simulate_block, cfg, sim, 0, 1)
    (real, sir), oracle_peak = traced_peak(oracle_trial)
    np.testing.assert_array_equal(block.serve_target[0], real.serve_target)
    np.testing.assert_array_equal(block.sir[0].view(np.uint64), sir.view(np.uint64))
    assert kernel_peak <= oracle_peak


@pytest.mark.parametrize(
    "n_users,count", [(10, 128), (40, 40), (256, 1), (257, 1)], ids=["N10x128", "N40x40", "N256x1", "N257x1"],
)
def test_block_memory_stays_within_twice_the_budget(n_users, count):
    # the whole fading array of a block is at most _BLOCK_BYTES, and only its
    # transmitter rows outlive the draws
    cfg = gate_config(n_users, 1.2, 1e-2)
    _, peak = traced_peak(_simulate_block, cfg, SimConfig(trials=1, master_seed=37), 0, count)
    assert peak <= 2 * _BLOCK_BYTES


def test_task_memory_holds_one_running_tally():
    # at N > 256 each kernel block is one trial; the task adds every block's
    # tally in as it is made, so thousands of thresholds cost one tally, not
    # one per block
    cfg = gate_config(257, 1.2, 1e-2)
    sim = SimConfig(trials=1, master_seed=37)
    # a first call outside the trace loads numpy's lazily imported modules
    _block_stats((cfg, sim, GATE_THETAS, 0, 1))
    _, peak = traced_peak(_block_stats, (cfg, sim, np.geomspace(0.1, 1000.0, 4001), 0, 32))
    assert peak <= 2 * _BLOCK_BYTES


@pytest.mark.parametrize(
    "field,value",
    [("trials", 2.5), ("trials", 600.0), ("trials", True), ("master_seed", 1.5), ("master_seed", np.float64(3)),
     ("master_seed", False), ("master_seed", "7")],
)
def test_sim_config_rejects_non_integral_counts_and_seeds(field, value):
    # a float seed once ran as its floor, and a float trial count failed
    # inside simulate_points
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(**{field: value})


def test_sim_config_takes_numpy_integers():
    sim = SimConfig(trials=np.int32(5), master_seed=np.uint64(2**64 - 1))
    assert (sim.trials, int(sim.master_seed)) == (5, 2**64 - 1)


def test_configs_store_numpy_integers_as_int():
    # a numpy count wrapped in the product trials * n_users
    sim = SimConfig(trials=np.int32(300_000_000), master_seed=np.uint64(2**64 - 1))
    cfg = ModelConfig(np.int32(10), DiskConfig(30.0), build_zipf(1000, 1.2), ChannelConfig())
    assert [type(v) for v in (sim.trials, sim.master_seed, cfg.n_users)] == [int, int, int]
    report = ModeFrequencyReport(np.ones(7, np.int64), np.ones(11, np.int64), sim.trials, cfg.n_users)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(report.mode_frequencies, 1 / 3_000_000_000)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(trials=0)
    with pytest.raises(ValueError):
        SimConfig(si_model="nope")
    with pytest.raises(ValueError):
        SimConfig(master_seed=-1)
