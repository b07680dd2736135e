"""The array formatter of window.csv against repr(float(x)), byte for byte."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synstdp import _dtoa


def _kernel(x) -> bytes:
    return _dtoa.rows([_dtoa.float_field(np.asarray(x, dtype=np.float64)), b"\n"])


def _reference(x) -> bytes:
    return "".join(f"{float(v)!r}\n" for v in x).encode()


def _assert_reprs(x):
    got, want = _kernel(x).split(b"\n"), _reference(x).split(b"\n")
    bad = [(v, g, w) for v, g, w in zip(x, got, want) if g != w]
    assert not bad, bad[:5]
    assert len(got) == len(want)


def _neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), -x])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_any_floats_match_repr(values):
    """NaN, infinities and subnormals among them take repr itself."""
    _assert_reprs(values)


# a tie between the two nearest candidates of the shortest length, at 16
# digits (x * 10 ends in .5 in [2**49, 2**50), where the half-gap is 1/16)
# and at 17 (x * 10 ends in .5 in [2**50, 2**51), where it is 1/8)
TIES = [2.0**49 + 0.25, 2.0**49 + 0.75, 2.0**49 + 12345.25, 2.0**50 - 0.25,
        2.0**50 + 0.25, 2.0**50 + 0.75, 2.0**50 + 1000.25]
# the digits round up through a run of nines: 0.3 is 0.29999999999999998...
CARRIES = [0.3, 0.7, 1.1, 2.675, 999999.9999999999, 0.1 + 0.2, 9999999999999998.0]

DETERMINISTIC = {
    "powers-of-two": _neighbours([2.0**e for e in range(-60, 61)]),
    "powers-of-ten": _neighbours([10.0**e for e in range(-7, 18)]),
    "short-decimals": _neighbours([a * 10.0**b for a in range(1, 1000) for b in range(-7, 18)]),
    "notation-edges": _neighbours([1e-4, 1e16, 9.999999999999999e-05, 9999999999999998.0]),
    "specials": [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
                 -sys.float_info.max, float("nan"), float("inf"), float("-inf")],
    "ties": _neighbours(TIES),
    "carries": _neighbours(CARRIES),
}


@pytest.mark.parametrize("name", sorted(DETERMINISTIC))
def test_deterministic_sets_match_repr(name):
    _assert_reprs(DETERMINISTIC[name])


def test_random_values_match_repr_and_are_certified():
    """Sums of draws like delta_g's, wide log-uniform values and raw bit
    patterns; nearly every fixed-notation value is certified, not handed
    to repr."""
    rng = np.random.default_rng(20181)
    sums = np.cumsum(rng.normal(0.0, 1.0, 20_000))
    wide = np.exp(rng.uniform(np.log(1e-6), np.log(1e18), 20_000))
    bits = rng.integers(0, 2**63, 20_000, dtype=np.int64).view(np.float64)
    for x in (sums, wide, bits):
        _assert_reprs(x)
    fixed = np.abs(sums)[np.abs(sums) >= 1e-4]
    assert _dtoa._shortest(fixed)[3].mean() > 0.999


def test_ties_take_repr():
    """Gay's dtoa breaks a tie to the even digit; the kernel leaves it to repr."""
    assert not _dtoa._shortest(np.array(TIES))[3].any()


def test_uint_field_matches_str():
    v = np.array([0, 7, 9, 10, 99, 100, 9999, 10_000, 123_456_789, 10**16 - 1])
    assert _dtoa.rows([_dtoa.uint_field(v), b"\n"]) == "".join(f"{i}\n" for i in v).encode()
