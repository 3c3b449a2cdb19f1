"""Monte Carlo ground truth: network drops, mode classification and SIR success, a block of trials at a time."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import reduce
from itertools import islice
from typing import NamedTuple

import numpy as np

from .analytic import SI_MODELS, SI_PER_INTERFERER, ModelConfig, SuccessCurve, _check_thresholds
from .popularity import PopularityProfile, request_of_uniform
from .quadrature import _checked

__all__ = [
    "Mode",
    "ModeFrequencyReport",
    "SimConfig",
    "classify_modes",
    "simulate_points",
]

# Trials per pool task.
_TRIALS_PER_TASK = 1024
# Memory of a kernel block.  A block runs at most _BLOCK_TRIALS trials and,
# beyond one trial, no more than keep its whole float64 fading array
# (trials, n_users, n_users) within _BLOCK_BYTES.  Every trial's stream is
# visited once; a lone trial over the budget (N > 256) draws its fading in
# chunks of _BLOCK_BYTES, keeping the transmitter rows, so no block holds the
# full fading matrix of a large network.
_BLOCK_BYTES = 512 << 10
_BLOCK_TRIALS = 128


class Mode(IntEnum):
    """Operating mode of a user given everyone's cache contents and requests."""

    SR = 0        # wants its own cached content, nobody wants its cache
    SR_HDTX = 1   # wants its own cached content while serving someone
    BFD = 2       # exchanging content with its own server
    TNFD = 3      # receiving from one user while serving another
    HDRX = 4      # receiving only
    HDTX = 5      # serving only, own request unserved
    HO = 6        # request not cached anywhere, nobody wants its cache


CACHE_MODES = (Mode.SR, Mode.SR_HDTX)
RECEIVING_MODES = (Mode.BFD, Mode.TNFD, Mode.HDRX)
FD_MODES = (Mode.BFD, Mode.TNFD)

# Membership tables indexed by Mode value.
_IS_CACHE = np.array([mode in CACHE_MODES for mode in Mode])
_IS_RECEIVING = np.array([mode in RECEIVING_MODES for mode in Mode])
_IS_FD = np.array([mode in FD_MODES for mode in Mode])


def _mode_of_flags(self_req, demanded, cached, mutual) -> Mode:
    """A user's mode from its request flags; a self-request is not a hit, and only a hit can be mutual."""
    if self_req:
        return Mode.SR_HDTX if demanded else Mode.SR
    if cached:
        return Mode.BFD if mutual else Mode.TNFD if demanded else Mode.HDRX
    return Mode.HDTX if demanded else Mode.HO


# Mode of each code self_req | demanded << 1 | cached << 2 | mutual << 3.
_MODE_OF_CODE = np.array([_mode_of_flags(code & 1, code & 2, code & 4, code & 8) for code in range(16)], dtype=np.int8)


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seeding, and self-interference accounting of a simulation run."""

    trials: int = 10_000
    master_seed: int = 0
    si_model: str = SI_PER_INTERFERER

    def __post_init__(self):
        object.__setattr__(self, "trials", _checked(int, self.trials, "trials", 1))
        object.__setattr__(self, "master_seed", _checked(int, self.master_seed, "master_seed", 0, 2**64 - 1))
        if self.si_model not in SI_MODELS:
            raise ValueError(f"si_model must be one of {SI_MODELS}, got {self.si_model!r}")


@dataclass
class ModeFrequencyReport:
    """Empirical mode counts and transmitter-count histogram over the run."""

    mode_counts: np.ndarray      # length 7, indexed by Mode
    tx_count_hist: np.ndarray    # length n_users + 1
    trials: int
    n_users: int

    @property
    def mode_frequencies(self) -> np.ndarray:
        return self.mode_counts / (self.trials * self.n_users)


def classify_modes(requests, n_users: int):
    """Label every user with its operating mode and flag the transmitters.

    Parameters
    ----------
    requests : array_like, shape (..., n_users)
        1-based integer content indices requested by each user; leading batch
        dimensions are allowed.  User ``k`` (0-based) caches content
        ``k + 1``.
    n_users : int

    Returns
    -------
    (modes, transmitters)
        ``modes`` is an int8 array of :class:`Mode` values and
        ``transmitters`` a boolean mask (users whose cached content someone
        else requests), both shaped like ``requests``.
    """
    r = np.asarray(requests)
    if r.dtype.kind not in "iu":
        raise ValueError(f"requests must be integer content indices, got dtype {r.dtype}")
    if r.ndim == 0 or r.shape[-1] != n_users:
        raise ValueError(f"requests must have trailing dimension n_users={n_users}, got shape {r.shape}")
    batch_shape = r.shape[:-1]
    r0 = r.reshape(-1, n_users).astype(np.int64) - 1
    if np.any(r0 < 0):
        raise ValueError("requests must be 1-based content indices")
    n_rows = r0.shape[0]
    users = np.arange(n_users)

    self_req = r0 == users
    cached = r0 < n_users
    demanded = np.zeros(n_rows * n_users, dtype=bool)
    demanded[(np.arange(n_rows)[:, None] * n_users + r0)[cached & ~self_req]] = True
    demanded = demanded.reshape(n_rows, n_users)
    # the user caching one's request wants one's content back; the table reads this only for a hit
    mutual = np.take_along_axis(r0, np.minimum(r0, n_users - 1), axis=1) == users
    code = self_req.view(np.uint8) | demanded.view(np.uint8) << 1 | cached.view(np.uint8) << 2 | mutual.view(np.uint8) << 3
    modes = _MODE_OF_CODE[code].reshape(*batch_shape, n_users)
    transmitters = demanded.reshape(*batch_shape, n_users)
    return modes, transmitters


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(xor, multiply) constants of ``count`` successive SeedSequence hash steps, shape (2, count, 1)."""
    steps = []
    for _ in range(count):
        steps.append((init, init * mult & _MASK32))
        init = steps[-1][1]
    return np.array(steps, dtype=np.uint32).T[:, :, None]


# numpy's SeedSequence with its default pool of 4 words: the constants of
# the 16 hash steps that mix the entropy into the pool, the 8 that expand
# the pool into PCG64's four 64-bit seed words, and the mix multipliers.
# A hash step's constants do not depend on the data, so every trial of a
# block takes the same steps at once.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(words, constants):
    words = (words ^ constants[0]) * constants[1]
    return words ^ (words >> 16)


def _seed_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Rows ``(seed_hi, seed_lo, inc_hi, inc_lo)`` of trials ``[start, stop)``, as ``SeedSequence((master_seed, t))`` makes them.

    The entropy is the 32-bit little-endian words of ``master_seed`` then
    of ``t`` (one word for 0), at most four, so it fits the pool, and a
    missing word hashes as 0.  Then the pool is mixed and expanded by
    ``generate_state(4, uint64)`` into one uint64 column per trial.
    """
    trials = np.arange(start, stop, dtype=np.uint64)
    entropy = [master_seed & _MASK32, master_seed >> 32] if master_seed >> 32 else [master_seed]
    pool = np.zeros((4, trials.size), dtype=np.uint32)
    pool[:len(entropy)] = np.array(entropy, dtype=np.uint32)[:, None]
    pool[len(entropy)] = trials & _MASK32
    pool[len(entropy) + 1] = trials >> 32
    pool = _hashmix(pool, _POOL_HASH[:, :4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], _POOL_HASH[:, 4 + 3 * src:7 + 3 * src]) * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH).astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)


def _pcg64_seeds(words: np.ndarray) -> list:
    """PCG64's ``(state, inc)`` of each column of :func:`_seed_words`, after PCG64's set-seed step."""
    seed_hi, seed_lo, inc_hi, inc_lo = words.tolist()
    incs = [(i_hi << 65 | i_lo << 1 | 1) & _MASK128 for i_hi, i_lo in zip(inc_hi, inc_lo)]
    return [(((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc) for s_hi, s_lo, inc in zip(seed_hi, seed_lo, incs)]


class _Block(NamedTuple):
    """Per-user outcomes of a block of trials, one row per trial."""

    modes: np.ndarray          # Mode values, int8
    transmitters: np.ndarray   # users whose cached content someone else requests
    serve_target: np.ndarray   # receiver each transmitter power-controls toward, -1 otherwise
    sir: np.ndarray            # SIR of receiving users; NaN for others, inf when nothing interferes


def _simulate_block(cfg: ModelConfig, sim: SimConfig, start: int, stop: int, words=None, rng=None) -> _Block:
    """Drop and evaluate the networks of trials ``[start, stop)``.

    Trial ``t`` draws from its own ``SeedSequence((master_seed, t))`` PCG64
    stream in a fixed order: radii, angles and requests (``n`` uniforms
    each), the fading matrix ``fading[i, j]`` of the directed link from user
    ``i`` to user ``j`` (unit-mean exponential, row by row), then the
    serve-target picks.  One generator ``rng`` serves the block, set to each
    trial's seeded state from its column of ``words`` once for all of them; a
    task passes every block its slice of the task's seed words and its one
    generator.  Only the rows of transmitters are kept, since only they carry
    signal or interference.  Every trial's stream is visited once: a block
    whose fading array exceeds _BLOCK_BYTES holds one trial (more are a
    ``ValueError``), which is classified after its uniforms and then draws
    its transmitter rows in chunks, and its picks, from where the uniforms
    left the generator.  Everything else runs once for the whole block, and
    one distance matrix, transmitter rows by users, gives the interfering,
    the target and the serving link distances.

    User ``k`` (0-based) caches content ``k + 1``.  Each transmitter serves
    one of the users requesting its content, picked uniformly, and inverts
    the path loss toward it, so it contributes ``fading * Z**alpha *
    W**-alpha`` at every other user.  A receiver's own server is taken to
    power-control toward it (unit-mean numerator), and full-duplex receivers
    add the residual self-interference ``beta * Z0**alpha``: once per
    interferer under the ``per-interferer`` accounting, once in total under
    ``single``.  A single trial is replayed as the block ``[t, t + 1)``.
    """
    n = cfg.n_users
    alpha = cfg.channel.alpha
    count = stop - start
    # true in every block of _block_stats but a lone trial at N > 256
    whole = count * n * n * 8 <= _BLOCK_BYTES
    if not whole and count > 1:
        raise ValueError(f"a block over the fading budget holds one trial, got {count} at n_users={n}")
    seeds = _pcg64_seeds(_seed_words(sim.master_seed, start, stop) if words is None else words)
    rng = np.random.Generator(np.random.PCG64(0)) if rng is None else rng
    seeded = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
    uniforms = np.empty((count, 3, n))
    full = np.empty((count, n, n)) if whole else None
    picks = np.empty((count, n))
    for b in range(count):
        seeded["state"], seeded["inc"] = seeds[b]
        rng.bit_generator.state = state
        rng.random(out=uniforms[b])
        if whole:
            rng.standard_exponential(out=full[b])
            rng.random(out=picks[b])
    radii = cfg.disk.radius * np.sqrt(uniforms[:, 0])
    angles = 2.0 * np.pi * uniforms[:, 1]
    requests = request_of_uniform(cfg.profile, uniforms[:, 2])
    del uniforms
    x = (radii * np.cos(angles)).ravel()
    y = (radii * np.sin(angles)).ravel()

    modes, transmitters = classify_modes(requests, n)
    # Transmitter rows of the block, trial by trial and by user within a trial.
    tx_flat = np.flatnonzero(transmitters)
    row_trial, row_user = np.divmod(tx_flat, n)
    tx_count = transmitters.sum(axis=1)

    if whole:
        fading = full.reshape(count * n, n)[tx_flat]
        del full
    else:
        # the lone trial's generator stands where its uniforms left it
        fading = np.empty((tx_flat.size, n))
        chunk = max(1, _BLOCK_BYTES // (8 * n))
        for lo in range(0, n, chunk):
            drawn = rng.standard_exponential((min(chunk, n - lo), n))
            a, z = np.searchsorted(row_user, (lo, lo + chunk))
            fading[a:z] = drawn[row_user[a:z] - lo]
        rng.random(out=picks[0])

    # Each transmitter's requesters in ascending user order, grouped by the
    # flat index of the server they request from.
    r0 = requests - 1
    server_flat = (np.arange(count)[:, None] * n + r0).ravel()
    requester = np.flatnonzero((r0 < n) & (r0 != np.arange(n)))
    requester = requester[np.argsort(server_flat[requester], kind="stable")]
    requested = server_flat[requester]
    left = np.searchsorted(requested, tx_flat, side="left")
    n_req = np.searchsorted(requested, tx_flat, side="right") - left
    target = requester[left + np.minimum((picks.ravel()[tx_flat] * n_req).astype(np.int64), n_req - 1)]
    serve_target = np.full(count * n, -1, dtype=np.int64)
    serve_target[tx_flat] = target - row_trial * n

    rec = np.flatnonzero(_IS_RECEIVING[modes.ravel()])
    rec_trial, rec_user = np.divmod(rec, n)
    srv = server_flat[rec]
    srv_row = np.searchsorted(tx_flat, srv)
    # read before the fading rows turn into interference terms in place
    numer = fading[srv_row, rec_user]

    # each transmitter row minus the positions of its trial's users,
    # computed in the gathered arrays
    w = x.reshape(count, n)[row_trial]
    np.subtract(x[tx_flat][:, None], w, out=w)
    dy = y.reshape(count, n)[row_trial]
    np.subtract(y[tx_flat][:, None], dy, out=dy)
    np.hypot(w, dy, out=w)
    del dy
    rows = np.arange(tx_flat.size)
    # the target and serving link distances are entries of the same matrix
    z_pow = w[rows, serve_target[tx_flat]] ** alpha
    z0_pow = w[srv_row, rec_user] ** alpha
    own = (rows, row_user)
    w[own] = 1.0
    np.power(w, -alpha, out=w)
    contrib = fading
    contrib *= z_pow[:, None]
    contrib *= w
    del w
    contrib[own] = 0.0
    # summed from 0 in transmitter-row order within each (trial, user) bin
    total = np.bincount((row_trial[:, None] * n + np.arange(n)).ravel(), contrib.ravel(), count * n)

    interference = np.maximum(total[rec] - contrib[srv_row, rec_user], 0.0)
    n_interferers = tx_count[rec_trial] - 1 - transmitters.ravel()[rec].astype(np.int64)
    si_count = n_interferers if sim.si_model == SI_PER_INTERFERER else 1
    fd = _IS_FD[modes.ravel()[rec]]
    denom = interference + np.where(fd, cfg.channel.beta * z0_pow * si_count, 0.0)
    sir = np.full(count * n, np.nan)
    with np.errstate(divide="ignore"):
        sir[rec] = np.where(denom > 0, numer / denom, np.inf)
    return _Block(modes, transmitters, serve_target.reshape(count, n), sir.reshape(count, n))


class _Tally(NamedTuple):
    """Integer counts over a range of trials; tallies of disjoint ranges add field by field (:func:`_add`)."""

    succ: np.ndarray          # users succeeding at each threshold, cache hits included
    mode_counts: np.ndarray   # users in each Mode
    tx_hist: np.ndarray       # trials by transmitter count


def _add(a: _Tally, b: _Tally) -> _Tally:
    return _Tally._make(map(np.add, a, b))


def _block_stats(args) -> _Tally:
    """Integer counts over trials ``[start, stop)``, run in kernel blocks within the memory budget."""
    cfg, sim, thetas, start, stop = args
    n = cfg.n_users
    per_block = min(_BLOCK_TRIALS, max(1, _BLOCK_BYTES // (8 * n * n)))
    words = _seed_words(sim.master_seed, start, stop)
    rng = np.random.Generator(np.random.PCG64(0))
    tally = _Tally(np.zeros(len(thetas), np.int64), np.zeros(len(Mode), np.int64), np.zeros(n + 1, np.int64))
    for lo in range(start, stop, per_block):
        hi = min(stop, lo + per_block)
        block = _simulate_block(cfg, sim, lo, hi, words[:, lo - start:hi - start], rng)
        mode_counts = np.bincount(block.modes.ravel(), minlength=len(Mode))
        # NaN marks a user without an SIR; it fails every threshold
        sir = np.sort(block.sir[~np.isnan(block.sir)])
        tally = _add(tally, _Tally(
            succ=mode_counts[_IS_CACHE].sum() + sir.size - np.searchsorted(sir, thetas, side="left"),
            mode_counts=mode_counts,
            tx_hist=np.bincount(block.transmitters.sum(axis=1), minlength=n + 1),
        ))
    return tally


def _fold(cfg: ModelConfig, sim: SimConfig, thetas: np.ndarray, tallies):
    """Add up one point's task tallies into its curve and mode report, with the cache hits and samples they imply."""
    tally = reduce(_add, tallies)
    cache = int(tally.mode_counts[_IS_CACHE].sum())
    samples = sim.trials * cfg.n_users
    p_total = tally.succ / samples
    ci = 1.96 * np.sqrt(p_total * (1.0 - p_total) / samples)
    curve = SuccessCurve(
        thetas=thetas,
        p_cache=cache / samples,
        p_sir=(tally.succ - cache) / samples,
        p_total=p_total,
        ci_halfwidth=ci,
    )
    report = ModeFrequencyReport(
        mode_counts=tally.mode_counts,
        tx_count_hist=tally.tx_hist,
        trials=sim.trials,
        n_users=cfg.n_users,
    )
    return curve, report


def _task_config(cfg: ModelConfig) -> ModelConfig:
    """``cfg`` with its library cut to the N cached contents and one for the rest of the mass, so a task's size does not grow with m.

    A trial reads a request only for which cached content, if any, it asks
    for, and the cut prefix maps every uniform to the same cached content,
    or to an uncached one.  At m <= N + 1 the profile is kept: at m = N, a
    uniform just under 1 maps to content m, which a user caches.
    """
    n, profile = cfg.n_users, cfg.profile
    if profile.m <= n + 1:
        return cfg
    rho = np.append(profile.rho[:n], profile.rho[n:].sum())
    prefix = np.append(profile.p_hit_prefix[:n], profile.p_hit_prefix[-1])
    return replace(cfg, profile=PopularityProfile(n + 1, profile.gamma_r, rho, prefix))


def resolve_workers() -> int:
    """Worker count of the task pool: the CPUs this process may run on, capped by FD_D2D_THREADS, a positive integer."""
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        available = os.cpu_count() or 1
    cap = os.environ.get("FD_D2D_THREADS")
    if cap:
        if not cap.strip().isdecimal() or int(cap) < 1:
            raise ValueError(f"FD_D2D_THREADS must be a positive integer, got {cap!r}")
        available = min(available, int(cap))
    return available


@contextmanager
def simulate_points(configs, sim: SimConfig, thetas):
    """Estimate the success curve and mode statistics of each config over ``sim.trials`` networks.

    A context manager.  On entry it checks the thresholds and builds one
    flat task list, points in order, of _TRIALS_PER_TASK trials each and the
    point's config cut to its cached contents (:func:`_task_config`).  Above
    one worker it opens a process pool that maps ``_block_stats`` over the
    list, every task queued at once, so the workers simulate while the
    caller does other work; at one worker the built-in ``map`` runs each
    task here when the iterator reaches it.  It yields an iterator of
    ``(SuccessCurve, ModeFrequencyReport)``, one per config, in order, each
    point folding the next tallies of the mapped stream as it reads them.
    On exit, tasks not yet started are cancelled and the workers are joined.

    Every trial is seeded from ``(master_seed, trial_index)`` and the
    aggregation is exact integer counting, so results are bit-identical for
    any worker count and any execution order.  Curves carry 95% normal
    confidence half-widths; a report carries the empirical operating-mode
    counts and the transmitter-count histogram.
    """
    configs, thetas = list(configs), _check_thresholds(thetas)
    starts = range(0, sim.trials, _TRIALS_PER_TASK)
    tasks = [(cut, sim, thetas, a, min(a + _TRIALS_PER_TASK, sim.trials)) for cut in map(_task_config, configs) for a in starts]
    size, pool = min(resolve_workers(), len(tasks)), None
    if size > 1:
        # analytic and one-worker runs never open a pool, and importing it costs about 20 ms and 2 MB
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=size)
    try:
        tallies = (pool.map if pool else map)(_block_stats, tasks)
        yield (_fold(cfg, sim, thetas, islice(tallies, len(starts))) for cfg in configs)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
