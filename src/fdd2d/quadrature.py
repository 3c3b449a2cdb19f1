"""Gauss-Legendre panel rules and the per-level node counts of the nested transform.

Nodes and weights come from :func:`numpy.polynomial.legendre.leggauss`.  A
:class:`QuadratureSpec` fixes how many nodes each level of the interference
integral uses; :meth:`QuadratureSpec.doubled` gives the finer rule that an
error estimate compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

__all__ = [
    "DEFAULT_NODES",
    "QuadratureSpec",
    "QuadratureWarning",
    "gauss_legendre",
    "panel_rule",
]

# Levels of the nested interference integral: receiver offset v, interferer
# offset t, serving distance z0, interferer bearing angle, interferer link zi.
DEFAULT_NODES = {"v": 24, "t": 24, "z0": 24, "angle": 32, "zi": 24}


class QuadratureWarning(UserWarning):
    """The node counts ask for more integrand evaluations than the soft budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts per integration level; levels left out keep :data:`DEFAULT_NODES`."""

    nodes_per_level: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_NODES))

    def __post_init__(self):
        object.__setattr__(self, "nodes_per_level", dict(self.nodes_per_level))
        unknown = set(self.nodes_per_level) - set(DEFAULT_NODES)
        if unknown:
            raise ValueError(f"unknown quadrature levels {sorted(unknown)}; valid: {sorted(DEFAULT_NODES)}")
        for level, count in self.nodes_per_level.items():
            if not isinstance(count, (int, np.integer)) or count < 4:
                raise ValueError(f"node count for level {level!r} must be an integer >= 4, got {count}")
        for level, count in DEFAULT_NODES.items():
            self.nodes_per_level.setdefault(level, count)

    def nodes(self, level: str) -> int:
        return self.nodes_per_level[level]

    def node_items(self) -> tuple:
        return tuple(sorted(self.nodes_per_level.items()))

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec({k: 2 * v for k, v in self.nodes_per_level.items()})


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] (read-only arrays)."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_rule(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to the interval [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w
