"""Content popularity: Zipf request distribution, requests of uniform variates, hitting probability."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PopularityProfile",
    "build_zipf",
    "hitting_probability",
    "request_of_uniform",
]

# Contents per long-double chunk of the prefix sums, so build_zipf holds no
# more than rho, the prefix and one chunk at once.
_PREFIX_CHUNK = 1 << 16


@dataclass(frozen=True)
class PopularityProfile:
    """Request popularity over a library of ``m`` contents, most popular first.

    Attributes
    ----------
    m : int
        Library size.
    gamma_r : float
        Skew exponent of the power-law popularity; 0 gives a uniform library.
    rho : ndarray, shape (m,)
        Request probability of each content.
    p_hit_prefix : ndarray, shape (m,)
        Partial sums ``rho[0] + ... + rho[n-1]``.  Entry ``n-1`` is the
        probability that a random request falls in the ``n`` most popular
        contents, i.e. the hitting probability when those are the contents
        cached across ``n`` users.
    """

    m: int
    gamma_r: float
    rho: np.ndarray
    p_hit_prefix: np.ndarray

    def __post_init__(self):
        self.rho.setflags(write=False)
        self.p_hit_prefix.setflags(write=False)


def build_zipf(m: int, gamma_r: float) -> PopularityProfile:
    """Build a Zipf popularity profile over ``m`` contents.

    Content ``k`` (1-based rank) is requested with probability
    ``k**-gamma_r / sum(j**-gamma_r for j in 1..m)``.

    Parameters
    ----------
    m : int
        Library size, an integer of at least 1; anything else is a ValueError.
    gamma_r : float
        Skew exponent, finite and nonnegative.  0 yields the uniform library.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"library size must be an integer of at least 1, got m={m!r}")
    if not math.isfinite(gamma_r) or gamma_r < 0:
        raise ValueError(f"skew exponent must be finite and nonnegative, got gamma_r={gamma_r}")
    rho = np.arange(1, m + 1, dtype=np.float64)
    rho **= -float(gamma_r)
    rho /= np.sum(rho)
    # plain float64 cumsum can drift past the 1e-12 budget for m near 1e6; the
    # carry joins each chunk's first term, so the additions are a straight cumsum's
    prefix = np.empty(m)
    carry = np.longdouble(0.0)
    for lo in range(0, m, _PREFIX_CHUNK):
        part = rho[lo : lo + _PREFIX_CHUNK].astype(np.longdouble)
        part[0] += carry
        np.cumsum(part, out=part)
        carry = part[-1]
        prefix[lo : lo + part.size] = part
    return PopularityProfile(m=int(m), gamma_r=float(gamma_r), rho=rho, p_hit_prefix=prefix)


def hitting_probability(profile: PopularityProfile, n_users: int) -> float:
    """Probability that a random request falls in the contents cached by ``n_users``.

    Users cache the ``n_users`` most popular contents, one distinct content
    each, so this is the prefix sum ``rho[0] + ... + rho[n_users-1]``.
    """
    if isinstance(n_users, bool) or not isinstance(n_users, (int, np.integer)) or not 1 <= n_users <= profile.m:
        raise ValueError(
            f"n_users must be an integer in [1, m={profile.m}] (each user caches a distinct "
            f"content), got {n_users!r}"
        )
    return float(profile.p_hit_prefix[n_users - 1])


def request_of_uniform(profile: PopularityProfile, u):
    """1-based content indices of uniform variates ``u`` in [0, 1).

    Inverse-CDF lookup over the stored prefix sums, O(log m) per variate.
    """
    idx = np.searchsorted(profile.p_hit_prefix, u, side="left")
    # prefix[-1] may round a hair below 1; u just under 1 must still map to m
    return np.minimum(idx, profile.m - 1) + 1
