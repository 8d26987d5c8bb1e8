"""Exact numpy spelling of float arrays: ``%.12g`` rows and ``float.__repr__``.

``g12_chunk`` writes a block of CSV rows and ``repr_chunk`` a run of JSON
array items, byte for byte as Python's ``"%.12g" %`` and ``json`` write
them, for ``io.float_csv`` and ``io.json_array``.

Each value becomes a row of 8-byte words: a prefix ("-", "0.000"), digit
words and a tail (exponent, separator).  Unused bytes are NUL and are
dropped from the whole chunk at once by ``bytes.translate``.  A digit word
is a group of four digits "d?d?d?d?" from a table; each "?" slot becomes the
decimal point or NUL by one mask per (exponent, digit count) layout.

A value leaves the kernel when its spelling is not certain from the
arithmetic: it is written as a marker byte and replaced by Python's own
spelling of it, all markers of a chunk in one splice.  Zeros are spelled
from the tables.  The tables are built on first use.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Sequence

import numpy as np

# |v| the kernels spell: |v| 10**(16 - e) and its split products stay normal
# and finite.  Other values (subnormal, huge, non-finite) go to Python.
_LOW, _HIGH = 1e-280, 1e280
# Decimal exponents of the power and exponent tables.  The spelled values
# have exponents e in [-282, 281] and are scaled by 10**(11 - e) or
# 10**(16 - e); 10**300 (2**27 + 1) is still finite.
_E_MIN, _E_MAX = -290, 300
_FALLBACK = "\x01"
JSON_SEPARATOR = ",\n    "
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)
_MANTISSA_BITS = np.uint64(0x000FFFFFFFFFFFFF)
_ULP_EXPONENT = np.uint64(52 << 52)   # exponent bits of |v| less these: ulp(|v|)
# Powers 10**d, d = 0..4, and their inverses, one row each.
_TENS = np.array([[1.0], [10.0], [100.0], [1000.0], [10000.0]])
_INV_TENS = np.array([[1.0], [0.1], [0.01], [0.001], [0.0001]])


def _words_of(texts: Sequence[str]) -> np.ndarray:
    """Each text of up to 8 bytes NUL-padded to one uint64 word."""
    return np.frombuffer(b"".join(text.encode("latin-1").ljust(8, b"\0") for text in texts),
                         dtype=np.uint64)


_JSON_SEPARATOR_WORD = _words_of([JSON_SEPARATOR])[0]
# The words after the prefix of a value outside the kernel: the %.12g
# separator byte stays; the JSON digits and exponent go, its separator stays.
_G12_CLEAR = np.array([0, 0, 0, _words_of(["\0" * 7 + "\xff"])[0]], dtype=np.uint64)
_REPR_CLEAR = np.array([0, 0, 0, 0, 0, ~np.uint64(0)], dtype=np.uint64)


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For k in [_E_MIN, _E_MAX]: 10**k correctly rounded (as Python reads
    "1e<k>"), the high half of its 2**27 + 1 split, and 10**k minus it,
    rounded once."""
    exponents = range(_E_MIN, _E_MAX + 1)
    p = np.array([float(f"1e{k}") for k in exponents])
    remainders = []
    for k, (num, den) in zip(exponents, map(float.as_integer_ratio, p.tolist())):
        ten = 10 ** abs(k)
        # k >= 0: p is an integer.  k < 0: den is a power of two and
        # 10**k - p = (den - num 10**-k) / 10**-k / den, one correctly
        # rounded division of integers, then an exact scaling.
        remainders.append(float(ten - num) if k >= 0
                          else math.ldexp((den - num * ten) / ten, 1 - den.bit_length()))
    big = p * 134217729.0
    return p, big - (big - p), np.array(remainders)


@functools.cache
def _groups() -> np.ndarray:
    """"d\\xffd\\xffd\\xffd\\xff" for the groups 0000 to 9999, as uint64 words.

    The 0xFF bytes are the slots after each digit: a layout mask turns one
    into the decimal point and the others into NUL.
    """
    text = np.full((10000, 8), 0xFF, dtype=np.uint8)
    group = np.arange(10000)
    for j, power in enumerate((1000, 100, 10, 1)):
        text[:, 2 * j] = group // power % 10 + ord("0")
    return text.view(np.uint64).ravel()


@functools.cache
def _exponents() -> np.ndarray:
    """"e+XX", "e-XX" or "e+XXX" for e in [_E_MIN, _E_MAX], as NUL-padded (n, 8) uint8 rows."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    size = np.abs(e)
    wide = size >= 100
    text = np.zeros((e.size, 8), dtype=np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    text[:, 2] = np.where(wide, size // 100, size // 10) + ord("0")
    text[:, 3] = np.where(wide, size // 10 % 10, size % 10) + ord("0")
    text[:, 4] = np.where(wide, size % 10 + ord("0"), 0)
    return text


class _Spelling:
    """The tables of one number spelling for the kernels.

    ``layout(e, nd)`` gives, for decimal exponent e and nd significant
    digits, the digits shown (trailing zeros of an integer part included)
    and the digit the point follows (None: no point among the digits).
    Values with ``-4 <= e < fixed_below`` are written without exponent,
    those below 0 as "0.", zeros and the digits.  A layout code stands for
    e clipped to [-5, fixed_below] and the index of nd in ``digit_counts``;
    the prefix table holds two words per code, unsigned and signed.
    ``exponent_at`` is the byte of the tail word where "e+XX" starts.
    """

    def __init__(self, n_groups, fixed_below, layout, digit_counts, zeros, exponent_at):
        self.clip = (-5, fixed_below)
        self.digit_counts = digit_counts
        clipped = range(-5, fixed_below + 1)
        layouts = [layout(e, nd) for e in clipped for nd in digit_counts]
        keep = np.array([shown for shown, _ in layouts])
        masks = np.zeros((len(layouts), 4 * n_groups, 2), dtype=np.uint8)
        masks[:, :, 0] = np.where(np.arange(4 * n_groups) < keep[:, None], 0xFF, 0)
        points = [(row, point) for row, (_, point) in enumerate(layouts) if point is not None]
        masks[[row for row, _ in points], [point for _, point in points], 1] = ord(".")
        # one row of masks per digit word
        self.mask = np.ascontiguousarray(masks.reshape(len(layouts), -1).view(np.uint64).T)
        leads = ["0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in clipped]
        self.prefix = np.repeat(_words_of([sign + lead for lead in leads for sign in ("", "-")])
                                .reshape(len(leads), 2), len(digit_counts), axis=0).ravel()
        suffix = np.zeros((_E_MAX - _E_MIN + 1, 8), dtype=np.uint8)
        suffix[:, exponent_at:] = _exponents()[:, :8 - exponent_at]
        e = np.arange(_E_MIN, _E_MAX + 1)
        suffix[(e >= -4) & (e < fixed_below)] = 0
        self.suffix = suffix.view(np.uint64).ravel()
        # zero, negative zero, the marker of a value spelled by Python
        self.special = _words_of(list(zeros) + [_FALLBACK])

    def code(self, e: np.ndarray, nd_index: np.ndarray) -> np.ndarray:
        low, high = self.clip
        return (np.minimum(np.maximum(e, low), high) - low) * len(self.digit_counts) + nd_index


def _g12_layout(e: int, nd: int) -> tuple[int, int | None]:
    if 0 <= e < 12:   # "1200", "12.5"
        return max(nd, e + 1), (e if nd > e + 1 else None)
    if -4 <= e < 0:   # "0.0012": the point is in the prefix
        return nd, None
    return nd, (0 if nd > 1 else None)   # "1e+12", "1.5e-05"


def _repr_layout(e: int, nd: int) -> tuple[int, int | None]:
    if 0 <= e < 16:   # "1200.0", "12.5": a digit always follows the point
        return max(nd, e + 2), e
    if -4 <= e < 0:
        return nd, None
    return nd, 0      # the kernel spells 14 digits or more, so a point always shows


@functools.cache
def _g12_spelling() -> _Spelling:
    # the tail word holds the exponent from byte 0 and the separator in byte 7
    return _Spelling(3, 12, _g12_layout, range(13), ("0", "-0"), 0)


@functools.cache
def _repr_spelling() -> _Spelling:
    # the last digit word holds the 17th digit and, from byte 2, the exponent
    return _Spelling(5, 16, _repr_layout, (17, 16, 15, 14), ("0.0", "-0.0"), 2)


@functools.cache
def _significant() -> np.ndarray:
    """Per position j of a four-digit group g in a 12-digit integer, the
    significant digits up to g's last non-zero one (0 when g == 0)."""
    group = np.arange(10000)
    shown = np.where(group % 10 > 0, 4, np.where(group % 100 > 0, 3,
                                                   np.where(group % 1000 > 0, 2, 1)))
    return np.where(group > 0, shown + 4 * np.arange(3)[:, None], 0).astype(np.int8)


def _magnitudes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|v| (1.0 where the kernels do not spell v), floor(log10 |v|) (it can
    miss by one next to a power of ten) and the mask of spelled values."""
    a = np.abs(values)
    spelled = (a >= _LOW) & (a < _HIGH)
    a[~spelled] = 1.0
    return a, np.floor(np.log10(a)).astype(np.int64), spelled


def _four_digit_groups(n: np.ndarray, count: int) -> list[np.ndarray]:
    """The ``count`` four-digit groups of int64 n < 10**(4 count), the first first."""
    groups = []
    for power in (10 ** (4 * j) for j in range(count - 1, 0, -1)):
        head = n // power
        groups.append(head)
        n = n - head * power
    return groups + [n]


def _words(spelling: _Spelling, values: np.ndarray, groups: Sequence[np.ndarray],
           code: np.ndarray, n_words: int) -> np.ndarray:
    """(n_words, values) uint64: the prefix word, then the digit words of each
    value in layout ``code``; the words after them are left to the caller."""
    words = np.empty((n_words, values.size), dtype=np.uint64)
    words[0] = spelling.prefix[2 * code + np.signbit(values)]
    digits = _groups()
    for j, group in enumerate(groups):
        np.bitwise_and(digits[group], spelling.mask[j][code], out=words[1 + j])
    return words


def _text(words: np.ndarray, ok: np.ndarray, values: np.ndarray, spelling: _Spelling,
          clear: np.ndarray, spell) -> str:
    """The text of the words, a value per column; each value outside ``ok``
    is a zero spelled by the tables or takes ``spell(value)``.

    ``clear`` masks the words after the prefix of a value outside ``ok``:
    its digits and exponent go, its separator stays.
    """
    if ok.all():
        return words.T.tobytes().translate(None, b"\0").decode("ascii")
    odd = values[~ok]
    words[0, ~ok] = spelling.special[np.where(odd == 0.0, np.signbit(odd), 2)]
    words[1:, ~ok] &= clear[:, None]
    pieces = words.T.tobytes().translate(None, b"\0").decode("ascii").split(_FALLBACK)
    spelled = map(spell, odd[odd != 0.0].tolist())
    return "".join(itertools.chain.from_iterable(zip(pieces, spelled))) + pieces[-1]


def python_g12(value: float) -> str:
    """A value the %.12g kernel leaves to Python."""
    return "%.12g" % value


def python_json(value: float) -> str:
    """A value the repr kernel leaves to Python, as json writes it ("NaN", "Infinity")."""
    return json.dumps(value)


def _g12_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e, ok): "%.12g" of v has the digits of the int64 n in [1e11, 1e12)
    and decimal exponent e, wherever ok.

    n = rint(|v| 10**(11 - e)).  The product of |v| and the rounded power is
    within 2.5e-4 of the exact one below 2**40 (half an ulp of the product,
    1.3e-4, plus the power's rounding, 1.1e-4), so only a product that close
    to a half can round the other way: that value is left out of ok.
    """
    power = _powers()[0]
    a, e, ok = _magnitudes(values)
    scaled = a * power[11 - _E_MIN - e]
    off = (scaled < 1e11) | (scaled >= 1e12)
    if off.any():
        e[off] += np.where(scaled[off] >= 1e12, 1, -1)
        scaled[off] = a[off] * power[11 - _E_MIN - e[off]]
    n = np.rint(scaled)
    ok &= np.abs(scaled - n) < 0.49975
    carry = n == 1e12   # rounded up to a 13th digit: 10**11 at the next exponent
    if carry.any():
        e += carry
        n[carry] = 1e11
    return n.astype(np.int64), e, ok


def g12_chunk(block: np.ndarray) -> str:
    """The CSV rows of a C-contiguous (rows, cols) float64 block, each value
    as "%.12g" writes it."""
    spelling = _g12_spelling()
    # the separator after each column, in byte 7 of its tail word
    seps = _words_of(["\0" * 7 + ","] * (block.shape[1] - 1) + ["\0" * 7 + "\n"])
    values = block.ravel()
    n, e, ok = _g12_digits(values)
    groups = _four_digit_groups(n, 3)
    significant = _significant()
    nd = np.maximum(np.maximum(significant[0][groups[0]], significant[1][groups[1]]),
                    significant[2][groups[2]])
    words = _words(spelling, values, groups, spelling.code(e, nd), 5)
    np.bitwise_or(spelling.suffix[e - _E_MIN].reshape(block.shape), seps,
                  out=words[4].reshape(block.shape))
    return _text(words, ok, values, spelling, _G12_CLEAR, python_g12)


def _scaled_exactly(values: np.ndarray) -> tuple:
    """(whole, lo, half, e, ok): |v| 10**(16 - e) = whole + lo, whole an int64
    of 17 digits wherever ok, and half an ulp of v scaled alike.

    The product of |v| and the rounded power p is taken exactly as the
    double s plus its error (Dekker's TwoProduct); |v| times the power's
    remainder is added to the error.  s >= 1e16 > 2**53 is an integer.  A
    mantissa that is a power of two is left out of ok: its gap below is half
    the one above.
    """
    rounded, head, remainder = _powers()
    a, e, ok = _magnitudes(values)
    k = 16 - _E_MIN - e
    p = rounded[k]
    s = a * p
    off = (s < 1e16) | (s >= 1e17)
    if off.any():
        step = np.where(s[off] >= 1e17, 1, -1)
        e[off] += step
        k[off] -= step
        p = rounded[k]
        s = a * p
    big = a * 134217729.0
    a_hi = big - (big - a)
    a_lo = a - a_hi
    p_hi = head[k]
    p_lo = p - p_hi
    lo = ((((a_hi * p_hi - s) + a_hi * p_lo) + a_lo * p_hi) + a_lo * p_lo) + a * remainder[k]
    whole = s.astype(np.int64)
    bits = a.view(np.uint64)
    half = ((bits & _EXPONENT_BITS) - _ULP_EXPONENT).view(np.float64) * p * 0.5
    ok &= ((whole > 10**16) & (whole < 10**17)
           & ((bits & _MANTISSA_BITS) != np.uint64(0)))
    return whole, lo, half, e, ok


def _shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(m, dropped, e, ok): repr(v) has the first 17 - dropped digits of the
    int64 m in (1e16, 1e17) and decimal exponent e, wherever ok.

    repr is the shortest decimal that reads back as v (Steele and White, PLDI
    1990; Gay, AT&T NA Report 90-10).  With s = |v| 10**(16 - e) it is the
    nearest multiple of 10**d to s, for the largest d whose nearest multiple
    lies within half an ulp of v, scaled alike (at least 0.555, so d = 0
    always does).  Left out of ok: values of 13 digits or fewer (a multiple
    of 10**4 fits) and a decision within 1e-9 of its boundary.
    """
    whole, lo, half, e, ok = _scaled_exactly(values)
    low = whole % 10000
    f = low + lo   # s = (whole - low) + f, f in (-9, 10009)
    multiple = np.rint(f * _INV_TENS) * _TENS   # nearest multiple of 10**d, d = 0..4
    distance = np.abs(f - multiple)
    fits = distance[1:] < half
    margin = np.minimum(np.abs(distance[1:] - half).min(axis=0),
                        np.minimum(np.abs(distance[0] - 0.5), np.abs(distance[1] - 5.0)))
    ok &= (margin >= 1e-9) & ~fits[3]
    dropped = fits[:3].sum(axis=0)
    m = whole - low + np.take_along_axis(multiple, dropped[None], axis=0)[0].astype(np.int64)
    m[~ok] = 10**16
    return m, dropped, e, ok


def repr_chunk(values: np.ndarray) -> str:
    """``float.__repr__`` of each value of a 1-D float64 array as ``json``
    writes it, each followed by JSON_SEPARATOR."""
    spelling = _repr_spelling()
    m, dropped, e, ok = _shortest(values)
    top = m // 1000000000   # the first 8 digits, then the last 9 and 3 zeros
    groups = (_four_digit_groups(top, 2)
              + _four_digit_groups((m - top * 1000000000) * 1000, 3))
    words = _words(spelling, values, groups, spelling.code(e, dropped), 7)
    words[5] |= spelling.suffix[e - _E_MIN]
    words[6] = _JSON_SEPARATOR_WORD
    return _text(words, ok, values, spelling, _REPR_CLEAR, python_json)

