"""repr of float arrays in numpy: Python's shortest round-trip digits, byte
for byte, without a Python call per value.

For |x| in [1e-4, 1e16), where repr writes fixed notation, the digits are
found exactly in array arithmetic.  |x| * 10**k is A + f with A a 17-digit
int64 and f in [0, 1), exactly: 10**k is an exact double for k <= 22, and
Dekker's TwoProduct (Dekker 1971) gives the rounding error of the product.
The reals that round to x lie within a half-gap of it, a half ulp from
frexp (a quarter ulp below a power of two).  The shortest digits are the
multiple of 10**j inside that interval with the largest j, and the nearest
one to A + f when two of that length are inside, as in Gay's dtoa (Gay 1990).

A value is certified only if every comparison it takes is more than 1e-9
half-gaps from its edge and it is no exact tie.  Everything else (zero aside:
subnormals, scientific notation, NaN, infinities, ties, margin cases) is
formatted by repr itself, in the same call.

Rows of text are built as fields side by side.  A field is a pair (chars,
keep) of (width, rows) arrays, so that each step runs over all rows at once;
a row's text is its kept chars, in order.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)  # their upper 26 bits
_POW10_LO = _POW10 - _POW10_HI
_MARGIN = 1e-9  # in half-gaps: a decision nearer its edge falls back to repr
_LO, _HI = 10**16, 10**17  # A's range: 17 digits


@lru_cache(maxsize=1)
def _quads():
    """The four ASCII digits of 0..9999, one uint32 each (built on first use)."""
    n = np.arange(10_000)
    digits = (n[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    quads = digits.view(np.uint32).ravel()
    quads.flags.writeable = False
    return quads


def _digit_quads(v: np.ndarray, quads: int) -> np.ndarray:
    """(len(v), quads) uint32: the 4 * quads ASCII digits of the non-negative
    int64 v < 10**(4 * quads), zero-padded on the left."""
    out = np.empty((len(v), quads), dtype=np.uint32)
    for i in range(quads - 1, -1, -1):
        rest = v // 10_000
        out[:, i] = _quads().take(v - rest * 10_000)
        v = rest
    return out


def uint_field(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The field of the non-negative integers v: their decimal digits."""
    v = v.astype(np.int64)
    width = len(str(int(v.max())))
    quads = -(-width // 4)
    chars = _digit_quads(v, quads).view(np.uint8)[:, 4 * quads - width:].T
    # digit i of width is written from v >= 10**(width - 1 - i) on; the last always
    return chars, v >= np.append(_POW10_INT[width - 1:0:-1], 0)[:, None]


def _scaled(y: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, f): y * 10**k = A + f exactly, with A an int64 and 0 <= f < 1,
    for y * 10**k >= 2**53 (so that its rounding is an integer).  The
    rounding error of the product is Dekker's TwoProduct (Dekker 1971)."""
    b, b_hi, b_lo = _POW10.take(k), _POW10_HI.take(k), _POW10_LO.take(k)
    p = y * b
    t = _SPLIT * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    e = ((y_hi * b_hi - p) + y_hi * b_lo + y_lo * b_hi) + y_lo * b_lo
    whole = np.floor(e)
    return p.astype(np.int64) + whole.astype(np.int64), e - whole


def _shortest(y: np.ndarray):
    """(c, k, length, sure) for 1e-4 <= y < 1e16: where sure, repr's digits
    of y are the first `length` of the 17-digit int64 c, and y rounds to
    c * 10**-k."""
    k = 16 - np.floor(np.log10(y)).astype(np.int64)
    a, f = _scaled(y, k)
    for _ in range(2):  # log10 may miss the decade by one next to a power of ten
        step = (a < _LO).view(np.int8) - (a >= _HI).view(np.int8)
        if not step.any():
            break
        k += step
        a, f = _scaled(y, k)
    sure = (a >= _LO) & (a < _HI)
    mant, e2 = np.frexp(y)
    hi = np.ldexp(_POW10.take(k), e2 - 54)  # half an ulp, in units of 10**-k
    lo = np.where(mant == 0.5, hi / 2, hi)  # the gap below a power of two is half
    lo_m, hi_m = _MARGIN * lo, _MARGIN * hi
    # both gaps exceed 1/2, so the integer nearest A + f is inside; f is exact
    c = a + (f > 0.5)
    sure &= f != 0.5
    length = np.full(len(a), 17)
    r2 = a % 100
    for j, r in ((1, r2 % 10), (2, r2)):
        # the multiples of 10**j just below and above A + f, at d_lo and d_hi
        d_lo = r + f
        d_hi = 10**j - d_lo
        sure &= (np.abs(d_lo - lo) > lo_m) & (np.abs(d_hi - hi) > hi_m)
        in_lo, in_hi = d_lo < lo, d_hi < hi
        # the interval (< 23 units) may hold three multiples of 10: of these two
        # the lower is the nearer if r < 10**j / 2, a tie if A + f is 10**j / 2;
        # it holds one multiple of 100 at most
        half = 10**j // 2
        both = in_lo & in_hi
        sure &= ~(both & (r == half) & (f == 0.0))
        up = (in_hi & ~(both & (r < half))).astype(np.int64)
        inside = in_lo | in_hi
        c = np.where(inside, a - r + up * 10**j, c)
        length[inside] = 17 - j
    deep = np.flatnonzero(length == 15)  # a multiple of 100: cut all its zeros
    if deep.size:
        tail = _digit_quads(c[deep], 5).view(np.uint8)[:, :2:-1] != ord("0")
        length[deep] = 17 - np.argmax(tail, axis=1)
    return c, k, length, sure


def float_field(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The field of the float array x: repr(float(v)) of each value."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    ax = np.abs(x)
    fixed = (ax >= 1e-4) & (ax < 1e16)
    c, k, length, sure = _shortest(np.where(fixed, ax, 1.0))
    sure &= fixed
    plain = ~sure | (ax == 0.0)  # "0.0" here; repr's text is written over the rest
    sure |= ax == 0.0
    c = np.where(plain, 0, c)
    point = np.where(plain, 1, 17 - k)  # digits before the decimal point; <= 0 below 1
    length = np.where(plain, 1, length)
    # the integer digits (one "0" below 1), the point, the zeros after it
    # below 0.1, and the fraction digits (one "0" for a whole number)
    whole = np.maximum(point, 0)
    cut = _POW10_INT.take(17 - whole)
    zeros = np.maximum(-point, 0)
    frac = np.maximum(length - whole, 1)
    int_w, zero_w, frac_w = max(int(whole.max()), 1), int(zeros.max()), int(frac.max())
    int_q = -(-int_w // 4)
    back = np.flatnonzero(~sure)
    text = [repr(v).encode() for v in x[back].tolist()]
    width = max(3 + int_w + zero_w + frac_w, max(map(len, text), default=0))
    chars = np.empty((width, n), dtype=np.uint8)
    keep = np.zeros((width, n), dtype=bool)
    chars[0], keep[0] = ord("-"), np.signbit(x)
    col = 1 + int_w
    chars[1:col] = _digit_quads(c // cut, int_q).view(np.uint8)[:, 4 * int_q - int_w:].T
    keep[1:col] = np.arange(int_w)[:, None] >= int_w - np.maximum(whole, 1)
    chars[col], keep[col] = ord("."), True
    chars[col + 1:col + 1 + zero_w] = ord("0")
    keep[col + 1:col + 1 + zero_w] = np.arange(zero_w)[:, None] < zeros
    col += 1 + zero_w
    digits = _digit_quads(c % cut * _POW10_INT.take(whole), 5).view(np.uint8)
    chars[col:col + frac_w] = digits[:, 3:3 + frac_w].T
    keep[col:col + frac_w] = np.arange(frac_w)[:, None] < frac
    if back.size:
        chars[:, back] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width).T
        keep[:, back] = np.arange(width)[:, None] < np.array(list(map(len, text)))
    return chars, keep


def rows(fields: list) -> bytes:
    """The bytes of rows laid side by side from fields: (chars, keep) pairs
    and bytes constants, written on every row."""
    n = next(f[0].shape[1] for f in fields if isinstance(f, tuple))
    slabs = [f if isinstance(f, tuple) else
             (np.broadcast_to(np.frombuffer(f, dtype=np.uint8)[:, None], (len(f), n)),
              np.broadcast_to(True, (len(f), n))) for f in fields]
    chars = np.concatenate([c for c, _ in slabs])
    keep = np.concatenate([k for _, k in slabs])
    return np.compress(keep.T.ravel(), chars.T.ravel()).tobytes()
