"""Closed-form operating-mode probabilities of a uniformly chosen user.

Their transmit probability ``p_tx`` sets the model's Binomial(N, p_tx) count
of concurrent transmitters, which the analytic success curve sums in closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .popularity import PopularityProfile, hitting_probability

__all__ = ["ModeProbabilities", "compute_mode_probabilities"]

MODE_FIELDS = ("p_sr", "p_sr_hdtx", "p_fdtr", "p_bfd", "p_tnfd", "p_hdrx", "p_hdtx", "p_ho")


@dataclass(frozen=True)
class ModeProbabilities:
    """Probabilities of the operating modes of a uniformly chosen user.

    ``p_fdtr`` splits into ``p_bfd + p_tnfd``; the six top-level modes
    (SR, SR-HDTX, FDTR, HDTX, HDRX, HO) sum to one; ``p_tx`` is the
    probability of being in any transmitting mode (SR-HDTX, HDTX, or FDTR).
    """

    p_sr: float
    p_sr_hdtx: float
    p_fdtr: float
    p_bfd: float
    p_tnfd: float
    p_hdrx: float
    p_hdtx: float
    p_ho: float
    p_tx: float


def _undemanded(rho: np.ndarray, n_users: int) -> np.ndarray:
    """(1 - rho)**(n_users - 1): no other user requests the cached content."""
    if n_users == 1:
        return np.ones_like(rho)
    # log1p keeps tiny rho exact and avoids premature underflow in sweeps
    return np.exp((n_users - 1) * np.log1p(-rho))


def _snap_unit(x: float) -> float:
    """Clear sub-epsilon excursions outside [0, 1] left by cancellation."""
    if -1e-15 < x < 0.0:
        return 0.0
    if 1.0 < x < 1.0 + 1e-15:
        return 1.0
    return x


def compute_mode_probabilities(profile: PopularityProfile, n_users: int) -> ModeProbabilities:
    """Evaluate the closed-form mode probabilities for ``n_users`` caching users.

    User ``k`` caches content ``k`` (the ``n_users`` most popular contents,
    one each); every user draws an independent request from ``profile``.
    The returned probabilities average over a uniformly chosen user.
    """
    p_hit = hitting_probability(profile, n_users)  # checks n_users
    rho = profile.rho[:n_users]
    undem = _undemanded(rho, n_users)
    dem = 1.0 - undem

    p_sr = float(np.mean(rho * undem))
    p_sr_hdtx = float(np.mean(rho * dem))
    p_fdtr = float(np.mean((p_hit - rho) * dem))
    p_bfd = float(np.mean((p_hit - rho) * rho))
    p_tnfd = float(np.mean((p_hit - rho) * (1.0 - rho - undem)))
    p_hdrx = float(np.mean((p_hit - rho) * undem))
    p_hdtx = float(np.mean((1.0 - p_hit) * dem))
    p_ho = float(np.mean((1.0 - p_hit) * undem))
    p_tx = float(np.mean(dem))

    return ModeProbabilities(
        p_sr=_snap_unit(p_sr),
        p_sr_hdtx=_snap_unit(p_sr_hdtx),
        p_fdtr=_snap_unit(p_fdtr),
        p_bfd=_snap_unit(p_bfd),
        p_tnfd=_snap_unit(p_tnfd),
        p_hdrx=_snap_unit(p_hdrx),
        p_hdtx=_snap_unit(p_hdtx),
        p_ho=_snap_unit(p_ho),
        p_tx=_snap_unit(p_tx),
    )
