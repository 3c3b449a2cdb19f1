"""Gauss-Legendre panel rules and the per-level node counts of the nested transform.

Nodes and weights come from :func:`numpy.polynomial.legendre.leggauss`.  A
:class:`QuadratureSpec` fixes how many nodes each level of the interference
integral uses; :meth:`QuadratureSpec.doubled` gives the finer rule that an
error estimate compares against.  The module imports nothing from the
package, so it also holds ``_checked``, the one check of every scalar input.
"""

from __future__ import annotations

import math
import numbers
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


def _checked(kind, value, name: str, low, high=math.inf, low_open=False):
    """``value`` as a Python ``kind``, ``int`` or ``float``, if it is a finite number of that kind in range.

    An ``int`` takes any integer type and a ``float`` any real one, in
    ``[low, high]``, or ``(low, high]`` if ``low_open``.  A bool, a
    non-number, NaN, an infinity or a value out of range is a ``ValueError``
    naming ``name``.  Every scalar input of the public API is checked here.
    """
    number = None
    if isinstance(value, numbers.Integral if kind is int else numbers.Real) and not isinstance(value, bool):
        try:
            number = kind(value)
        except OverflowError:  # an integer past the float range
            pass
    # NaN fails every comparison, so only the upper bound lets an infinity through
    in_range = number is not None and (low < number if low_open else low <= number) and number <= high
    if not (in_range and number < math.inf):
        span = f" in {'(' if low_open else '['}{low}, {high}]" if high < math.inf else f" {'>' if low_open else '>='} {low}"
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite number'}{span}, got {value!r}")
    return number


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
            self.nodes_per_level[level] = _checked(int, count, f"node count for level {level!r}", 4)
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
