"""Every scalar input of the public API: a bool, a non-number, NaN, an infinity or a value out of
range is a ValueError, and an in-range numpy scalar is kept as a Python ``int`` or ``float``."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fdd2d import (
    DEFAULT_NODES,
    HDRX,
    ChannelConfig,
    DiskConfig,
    ModelConfig,
    QuadratureSpec,
    SimConfig,
    build_zipf,
    compute_mode_probabilities,
    hitting_probability,
    laplace_interference,
    link_distance_nodes,
    simulate_points,
    success_curve,
)

PROFILE = build_zipf(20, 1.0)
DISK = DiskConfig(2.0)
CFG = ModelConfig(3, DiskConfig(30.0), PROFILE, ChannelConfig())
# four nodes per level keep a transform at a new argument cheap
SMALL = QuadratureSpec({level: 4 for level in DEFAULT_NODES})


def rule_sum(q, nodes):
    z, w = link_distance_nodes(q, DISK, nodes)
    return float(z @ w)


# entry point: (call on the value, kind, in-range bounds to draw from, out-of-range values,
# whether the call returns the value as stored)
ENTRY_POINTS = {
    "DiskConfig.radius": (lambda v: DiskConfig(v).radius, float, (1e-3, 1e3), [0, -1.0], True),
    "ChannelConfig.alpha": (lambda v: ChannelConfig(alpha=v).alpha, float, (2.5, 8.0), [2, 1.5], True),
    "ChannelConfig.beta": (lambda v: ChannelConfig(beta=v).beta, float, (0.0, 1.0), [-1e-9, 1.5], True),
    "ModelConfig.n_users": (lambda v: ModelConfig(v, DISK, PROFILE, ChannelConfig()).n_users, int, (1, 20), [0, -3], True),
    "SimConfig.trials": (lambda v: SimConfig(trials=v).trials, int, (1, 10**6), [0, -1], True),
    "SimConfig.master_seed": (lambda v: SimConfig(master_seed=v).master_seed, int, (0, 2**63 - 1), [-1, 2**64], True),
    "build_zipf.m": (lambda v: build_zipf(v, 1.0).m, int, (1, 50), [0, -1], True),
    "build_zipf.gamma_r": (lambda v: build_zipf(10, v).gamma_r, float, (0.0, 5.0), [-0.5], True),
    "hitting_probability.n_users": (lambda v: hitting_probability(PROFILE, v), int, (1, 20), [0, 21], False),
    "compute_mode_probabilities.n_users": (lambda v: compute_mode_probabilities(PROFILE, v), int, (1, 20), [0, 21], False),
    "QuadratureSpec.count": (lambda v: QuadratureSpec({"t": v}).nodes("t"), int, (4, 64), [3, 0], True),
    "link_distance_nodes.q": (lambda v: rule_sum(v, 8), float, (0.0, 2.0), [-0.1, 2.5], False),
    "link_distance_nodes.nodes": (lambda v: rule_sum(0.5, v), int, (1, 64), [0, -2], False),
    "laplace_interference.s": (lambda v: laplace_interference(v, HDRX, 2, CFG, SMALL), float, (0.0, 100.0), [-1.0], False),
    "laplace_interference.n_t": (lambda v: laplace_interference(1.0, HDRX, v, CFG, SMALL), int, (1, 50), [0], False),
}

NOT_NUMBERS = st.one_of(
    st.sampled_from([True, False, np.True_, np.False_, None, "1", b"1", [1], 1 + 0j, np.complex128(2),
                     math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"), np.float32("-inf")]),
    st.text(max_size=4),
    st.complex_numbers(),
)


def rejected(kind, out_of_range):
    # an integer input rejects every float, integral or not; a float one an int past the float range
    extra = st.floats() if kind is int else st.just(10**400)
    return st.one_of(NOT_NUMBERS, st.sampled_from(out_of_range), extra)


def accepted(kind, low, high):
    ints = st.integers(math.ceil(low), math.floor(high)).map(np.int64)
    return ints if kind is int else st.one_of(ints, st.floats(low, high).map(np.float32))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@seed(20180611)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_scalar_input_rejects_bools_non_numbers_and_out_of_range(entry, data):
    call, kind, _, out_of_range, _ = ENTRY_POINTS[entry]
    value = data.draw(rejected(kind, out_of_range))
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@seed(20180611)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_scalar_input_takes_numpy_numbers_as_python_ones(entry, data):
    call, kind, (low, high), _, stores = ENTRY_POINTS[entry]
    value = data.draw(accepted(kind, low, high))
    result = call(value)
    assert result == call(kind(value))
    if stores:
        assert type(result) is kind


@pytest.mark.parametrize(
    "thetas",
    [["1", "2"], np.array([1, 2], dtype=complex), np.array([1.0, 2.0], dtype=object), [None, 2.0], [True, True]],
    ids=["str", "complex", "object", "none", "bool"],
)
def test_threshold_grid_must_have_integer_or_float_dtype(thetas):
    with pytest.raises(ValueError, match="thetas"):
        success_curve(CFG, thetas, SMALL)
    with pytest.raises(ValueError, match="thetas"):
        with simulate_points([CFG], SimConfig(trials=1), thetas):
            pass


def test_threshold_grid_takes_integer_and_float32_dtypes():
    reference = success_curve(CFG, [1.0, 2.0], SMALL).p_total
    for thetas in (np.array([1, 2], dtype=np.int32), np.array([1, 2], dtype=np.uint8), np.array([1, 2], dtype=np.float32)):
        np.testing.assert_array_equal(success_curve(CFG, thetas, SMALL).p_total, reference)
