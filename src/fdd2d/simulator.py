"""Monte Carlo ground truth: network drops, mode classification, per-trial SIR success."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from .analytic import SI_MODELS, SI_PER_INTERFERER, ModelConfig, SuccessCurve
from .popularity import sample_request

__all__ = [
    "Mode",
    "ModeFrequencyReport",
    "NetworkRealization",
    "SimConfig",
    "classify_modes",
    "link_sir",
    "run_experiment",
    "sample_realization",
    "trial_success",
]

_TRIALS_PER_BLOCK = 1024


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


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seeding, and self-interference accounting of a simulation run."""

    trials: int = 10_000
    master_seed: int = 0
    si_model: str = SI_PER_INTERFERER

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError(f"master_seed must be a 64-bit nonnegative integer, got {self.master_seed}")
        if self.si_model not in SI_MODELS:
            raise ValueError(f"si_model must be one of {SI_MODELS}, got {self.si_model!r}")


@dataclass
class NetworkRealization:
    """One sampled network: geometry, requests, modes, link structure, fading.

    User ``k`` (0-based) caches content ``k + 1``; ``requests`` holds 1-based
    content indices.  ``serve_target[k]`` is the receiver the transmitter
    ``k`` power-controls toward (-1 for non-transmitters); ``server_of[k]``
    is the user caching ``k``'s requested content (-1 when the request is not
    cached by another user).  ``fading[i, j]`` is the unit-mean exponential
    gain of the directed link from user ``i`` to user ``j``; directions are
    drawn independently, so bi-directional pairs see independent gains.
    """

    positions: np.ndarray
    requests: np.ndarray
    modes: np.ndarray
    transmitters: np.ndarray
    serve_target: np.ndarray
    server_of: np.ndarray
    fading: np.ndarray


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

    @property
    def tx_count_frequencies(self) -> np.ndarray:
        return self.tx_count_hist / self.trials


def classify_modes(requests, n_users: int):
    """Label every user with its operating mode and flag the transmitters.

    Parameters
    ----------
    requests : array_like, shape (..., n_users)
        1-based content indices requested by each user; leading batch
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
    if r.ndim == 0 or r.shape[-1] != n_users:
        raise ValueError(f"requests must have trailing dimension n_users={n_users}, got shape {r.shape}")
    batch_shape = r.shape[:-1]
    r0 = r.reshape(-1, n_users).astype(np.int64) - 1
    if np.any(r0 < 0):
        raise ValueError("requests must be 1-based content indices")
    n_rows = r0.shape[0]
    users = np.arange(n_users)

    self_req = r0 == users
    hit = (r0 < n_users) & ~self_req
    cached = r0 < n_users
    flat = (np.arange(n_rows)[:, None] * n_users + r0)[cached]
    counts = np.bincount(flat, minlength=n_rows * n_users).reshape(n_rows, n_users)
    demanded = (counts - self_req) > 0

    server = np.where(hit, r0, 0)
    server_request = np.take_along_axis(r0, server, axis=1)
    bfd = hit & demanded & (server_request == users)
    modes = np.select(
        [self_req & ~demanded, self_req & demanded, bfd, hit & demanded, hit, demanded],
        [Mode.SR, Mode.SR_HDTX, Mode.BFD, Mode.TNFD, Mode.HDRX, Mode.HDTX],
        default=Mode.HO,
    ).astype(np.int8)

    modes = modes.reshape(*batch_shape, n_users)
    transmitters = demanded.reshape(*batch_shape, n_users)
    return modes, transmitters


def sample_realization(cfg: ModelConfig, rng: np.random.Generator) -> NetworkRealization:
    """Draw one full network: positions, requests, fading, and link structure.

    The draw order (positions, requests, fading, serve-target picks) is fixed
    so a given generator state always yields the same realization.
    """
    n = cfg.n_users
    radius = cfg.disk.radius
    radii = radius * np.sqrt(rng.random(n))
    angles = 2.0 * np.pi * rng.random(n)
    positions = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    requests = sample_request(cfg.profile, rng, size=n)
    fading = rng.standard_exponential((n, n))
    picks = rng.random(n)

    modes, transmitters = classify_modes(requests, n)
    r0 = requests - 1
    users = np.arange(n)
    server_of = np.where((r0 < n) & (r0 != users), r0, -1)
    serve_target = np.full(n, -1, dtype=np.int64)
    for mu in np.flatnonzero(transmitters):
        requesters = np.flatnonzero(r0 == mu)
        requesters = requesters[requesters != mu]
        serve_target[mu] = requesters[min(int(picks[mu] * requesters.size), requesters.size - 1)]
    return NetworkRealization(
        positions=positions,
        requests=requests,
        modes=modes,
        transmitters=transmitters,
        serve_target=serve_target,
        server_of=server_of,
        fading=fading,
    )


def link_sir(real: NetworkRealization, channel, si_model: str = SI_PER_INTERFERER) -> np.ndarray:
    """SIR of every receiving user; NaN for non-receivers, inf when nothing interferes.

    Each transmitter inverts the path loss toward its chosen target, so it
    contributes ``fading * Z**alpha * W**-alpha`` at other receivers.  The
    evaluated receiver's own server is taken to power-control toward it
    (unit-mean numerator), and full-duplex receivers add the residual
    self-interference ``beta * Z0**alpha`` -- once per interferer under the
    ``per-interferer`` accounting, once in total under ``single``.
    """
    if si_model not in SI_MODELS:
        raise ValueError(f"si_model must be one of {SI_MODELS}, got {si_model!r}")
    n = real.positions.shape[0]
    sir = np.full(n, np.nan)
    receiving = np.isin(real.modes, RECEIVING_MODES)
    tx_idx = np.flatnonzero(real.transmitters)
    if not receiving.any():
        return sir
    rec_idx = np.flatnonzero(receiving)
    pos = real.positions
    alpha = channel.alpha

    targets = real.serve_target[tx_idx]
    z_pow = np.hypot(*(pos[tx_idx] - pos[targets]).T) ** alpha
    diff = pos[tx_idx][:, None, :] - pos[None, :, :]
    w = np.hypot(diff[..., 0], diff[..., 1])
    self_rows = tx_idx[:, None] == np.arange(n)[None, :]
    w_safe = np.where(self_rows, 1.0, w)
    contrib = real.fading[tx_idx] * z_pow[:, None] * w_safe**-alpha
    contrib[self_rows] = 0.0
    total = contrib.sum(axis=0)

    srv = real.server_of[rec_idx]
    tx_row = np.full(n, -1, dtype=np.int64)
    tx_row[tx_idx] = np.arange(tx_idx.size)
    interference = np.maximum(total[rec_idx] - contrib[tx_row[srv], rec_idx], 0.0)

    z0_pow = np.hypot(*(pos[srv] - pos[rec_idx]).T) ** alpha
    n_interferers = tx_idx.size - 1 - real.transmitters[rec_idx].astype(np.int64)
    si_count = n_interferers if si_model == SI_PER_INTERFERER else 1
    fd = np.isin(real.modes[rec_idx], FD_MODES)
    denom = interference + np.where(fd, channel.beta * z0_pow * si_count, 0.0)

    numer = real.fading[srv, rec_idx]
    with np.errstate(divide="ignore"):
        sir[rec_idx] = np.where(denom > 0, numer / denom, np.inf)
    return sir


def trial_success(real: NetworkRealization, channel, thetas, si_model: str = SI_PER_INTERFERER):
    """Per-user success indicators over a grid of thresholds, shape (n_thetas, n_users).

    Users serving from their own cache succeed outright; receiving users
    succeed when their SIR clears the threshold; transmit-only and outage
    users fail.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    sir = link_sir(real, channel, si_model)
    sir = np.where(np.isnan(sir), -np.inf, sir)
    cache_ok = np.isin(real.modes, CACHE_MODES)
    return cache_ok[None, :] | (sir[None, :] >= thetas[:, None])


def _trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial_index)))


def _block_stats(args):
    cfg, sim, thetas, start, stop = args
    n = cfg.n_users
    succ = np.zeros(len(thetas), dtype=np.int64)
    cache_succ = 0
    mode_counts = np.zeros(len(Mode), dtype=np.int64)
    tx_hist = np.zeros(n + 1, dtype=np.int64)
    for trial in range(start, stop):
        real = sample_realization(cfg, _trial_rng(sim.master_seed, trial))
        mode_counts += np.bincount(real.modes, minlength=len(Mode))
        tx_hist[int(real.transmitters.sum())] += 1
        succ += trial_success(real, cfg.channel, thetas, sim.si_model).sum(axis=1)
        cache_succ += int(np.isin(real.modes, CACHE_MODES).sum())
    return succ, cache_succ, (stop - start) * n, mode_counts, tx_hist


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count for trial blocks; FD_D2D_THREADS, a positive integer, caps the default."""
    if workers is not None:
        return max(1, int(workers))
    available = os.cpu_count() or 1
    cap = os.environ.get("FD_D2D_THREADS")
    if cap:
        if not cap.strip().isdecimal() or int(cap) < 1:
            raise ValueError(f"FD_D2D_THREADS must be a positive integer, got {cap!r}")
        available = min(available, int(cap))
    return available


def run_experiment(cfg: ModelConfig, sim: SimConfig, thetas, workers: Optional[int] = None):
    """Estimate the success curve and mode statistics over ``sim.trials`` networks.

    Every trial is seeded from ``(master_seed, trial_index)`` and the
    aggregation is exact integer counting, so results are bit-identical for
    any worker count and any execution order.

    Returns
    -------
    (SuccessCurve, ModeFrequencyReport)
        Curve with 95% normal confidence half-widths; the report carries the
        empirical operating-mode counts and the transmitter-count histogram.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    if thetas.size == 0 or np.any(~np.isfinite(thetas)) or np.any(thetas <= 0):
        raise ValueError("thetas must be positive and finite")
    if np.any(np.diff(thetas) < 0):
        raise ValueError("thetas must be sorted ascending")

    bounds = list(range(0, sim.trials, _TRIALS_PER_BLOCK)) + [sim.trials]
    tasks = [(cfg, sim, thetas, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    n_workers = min(resolve_workers(workers), len(tasks))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_block_stats, tasks, chunksize=1))
    else:
        results = [_block_stats(t) for t in tasks]

    succ = np.zeros(len(thetas), dtype=np.int64)
    cache_succ = 0
    samples = 0
    mode_counts = np.zeros(len(Mode), dtype=np.int64)
    tx_hist = np.zeros(cfg.n_users + 1, dtype=np.int64)
    for b_succ, b_cache, b_samples, b_modes, b_tx in results:
        succ += b_succ
        cache_succ += b_cache
        samples += b_samples
        mode_counts += b_modes
        tx_hist += b_tx

    p_total = succ / samples
    p_cache = cache_succ / samples
    ci = 1.96 * np.sqrt(p_total * (1.0 - p_total) / samples)
    curve = SuccessCurve(
        thetas=thetas,
        p_cache=p_cache,
        p_sir=(succ - cache_succ) / samples,
        p_total=p_total,
        source="simulated",
        ci_halfwidth=ci,
    )
    report = ModeFrequencyReport(
        mode_counts=mode_counts,
        tx_count_hist=tx_hist,
        trials=sim.trials,
        n_users=cfg.n_users,
    )
    return curve, report
