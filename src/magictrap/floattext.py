"""The '%.17g' text of a float table, computed in numpy with the same bytes.

Each finite double x = M 2^E (M a 53-bit integer) with decimal exponent
X = floor(log10|x|) in [-11, 14] gets its 17 significant digits exactly:
D = round-half-even(M 5^k 2^(E+k)) with k = 16 - X, where 5^k fits 64
bits, so D is one 128-bit product, built from 32-bit pieces in uint64
arithmetic and held as two 64-bit halves, and one right shift
(fixed-precision digits from integer products, as in Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019). X comes from log10 and is
corrected by one where the truncated product falls outside [1e16, 1e17).
CPython's '%.17g' rounds the same exact binary value half-even (Gay's dtoa),
so the digits agree. No D rounds up to 1e17 in this range: the largest
double below each power of ten 1e-10 ... 1e15 lies at least 4.5 units of
its 17th digit below it.

The text follows '%g': fixed notation for -4 <= X < 17, else 'e-XX', with
trailing zeros and a bare '.' dropped. Each number gets a row of six 8-byte
words in a zero-padded matrix, with fixed places for the sign, a '0.000'
prefix, the 17 digits each followed by a slot for the '.', the exponent
and the separator; cells a number does not use stay 0, and one
bytes.translate pass removes them. Every other value (0, -0, subnormals,
|x| <= 1e-11, |x| >= 1e15; the double 1e-11 lies just below 10^-11) skips
the kernel: one '%' operation formats them all, each padded to its row's
cells.
"""

from __future__ import annotations

import numpy as np

_LOW, _HIGH = 1e-11, 1e15  # the kernel takes _LOW < |x| < _HIGH
_XMIN, _XMAX = -11, 14

# The words of one number: [sign, '0.000' prefix, first digit, slot], four
# words of four digits each followed by a slot, [exponent, separator]. The
# '.' after digit p (0 for the first) goes in byte 7 + 2p.
_WORDS, _CELLS = 6, 44  # a number's own text fits its first 44 bytes

# Every operand mixed with a uint64 array is itself uint64: numpy before 2.0
# turns uint64 with a Python or int64 scalar into float64.
_U0, _U1, _U32, _U64 = (np.uint64(n) for n in (0, 1, 32, 64))
_LOW32 = np.uint64(0xFFFFFFFF)
_E16, _E17 = 10**16, 10**17
_Q16, _Q17 = np.uint64(_E16), np.uint64(_E17)


def _words(cells: np.ndarray) -> np.ndarray:
    """Rows of 8-byte cells as uint64 words: each word keeps its bytes in
    memory order, whatever the byte order."""
    return np.ascontiguousarray(cells, np.uint8).view(np.uint64)


def _tables():
    """Words by X - _XMIN for the prefix and the exponent, by the first
    digit, by a 4-digit group and by the count of digits shown; and the
    count of trailing zero digits of each group (4 for 0)."""
    head = np.zeros((_XMAX - _XMIN + 1, 8), np.uint8)
    tail = np.zeros_like(head)
    for x in range(-4, 0):  # '0.' and zeros before the digits
        text = ("0." + "0" * (-x - 1)).encode()
        head[x - _XMIN, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
    for x in range(_XMIN, -4):
        tail[x - _XMIN, :4] = np.frombuffer(b"e-%02d" % -x, np.uint8)
    lead = np.zeros((10, 8), np.uint8)
    lead[:, 6] = np.arange(ord("0"), ord("9") + 1)
    n = np.arange(10_000, dtype=np.uint16)
    group = np.zeros((10_000, 8), np.uint8)
    for j, power in enumerate((1000, 100, 10, 1)):
        group[:, 2 * j] = n // power % 10 + ord("0")
    zeros = np.zeros(10_000, np.uint8)
    for power in (10, 100, 1000, 10_000):
        zeros += n % power == 0
    shown = np.zeros((18, 32), np.uint8)  # digits 2..17 kept, for 0..17 shown
    shown[:, ::2] = (np.arange(2, 18) <= np.arange(18)[:, None]) * 255
    return (_words(head).ravel(), _words(tail).ravel(), _words(lead).ravel(),
            _words(group).ravel(), zeros, _words(shown))


_HEAD, _TAIL, _LEAD, _GROUP, _ZEROS, _SHOWN = _tables()
_MINUS = _words(np.frombuffer(b"-" + bytes(7), np.uint8))[0]
_POW5 = np.array([5**(16 - x) for x in range(_XMIN, _XMAX + 1)], np.uint64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _U32
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _scaled(m: np.ndarray, shift: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m 5^(16 - x) / 2^shift truncated, and rounded half-even, for m < 2^53,
    x in [_XMIN, _XMAX] and shift in [1, 63]."""
    lo5, hi5 = _POW5_LO[x - _XMIN], _POW5_HI[x - _XMIN]
    mlo, mhi = m & _LOW32, m >> _U32
    ll, lh, hl = mlo * lo5, mlo * hi5, mhi * lo5
    mid = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    lo = (mid << _U32) | (ll & _LOW32)  # the 128-bit product is hi 2^64 + lo
    hi = mhi * hi5 + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    q = (hi << (_U64 - shift)) | (lo >> shift)
    below = (_U1 << shift) - _U1
    # up when rest + (q & 1) > half, that is when rest + (q & 1) + half - 1
    # carries into bit `shift`
    up = ((lo & below) + (q & _U1) + (below >> _U1)) >> shift
    return q, q + up


def _digits(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D in [1e16, 1e17) and X with mag = D 10^(X - 16) rounded half-even,
    for doubles with _LOW < mag < _HIGH."""
    bits = mag.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    exponent = (bits >> np.uint64(52)).view(np.int64)
    x = np.clip(np.floor(np.log10(mag)), _XMIN, _XMAX).astype(np.int64)
    # mag = m 2^(exponent - 1075) and 10^(16 - x) = 5^(16 - x) 2^(16 - x)
    q, d = _scaled(m, (x + 1059 - exponent).view(np.uint64), x)
    off = np.flatnonzero((q < _Q16) | (q >= _Q17))  # log10 is off by one near 10^X
    if off.size:
        x[off] += np.where(q[off] < _Q16, -1, 1)
        d[off] = _scaled(m[off], (x[off] + 1059 - exponent[off]).view(np.uint64), x[off])[1]
    return d.view(np.int64), x


def _number_words(values: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each double with _LOW < |x| < _HIGH as a row of
    _WORDS words, the separator bytes of its last word left 0."""
    d, x = _digits(np.abs(values))
    lead = d // _E16
    rest = d - lead * _E16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = np.empty((values.size, 4), np.int64)  # digits 2-5, 6-9, 10-13, 14-17
    for j, half in ((0, high), (2, low)):  # a // and a product beat np.divmod
        np.floor_divide(half, 10_000, out=groups[:, j])
        np.subtract(half, groups[:, j] * 10_000, out=groups[:, j + 1])
    trailing = _ZEROS[groups[:, 3]]
    zero_run = np.flatnonzero(trailing == 4)  # the few whose last group is 0
    for g in (2, 1, 0):
        more = _ZEROS[groups[zero_run, g]]
        trailing[zero_run] += more
        zero_run = zero_run[more == 4]
    significant = 17 - trailing
    fixed = x >= 0
    shown = np.where(fixed, np.maximum(significant, x + 1), significant)

    row_x = x - _XMIN
    words = np.empty((values.size, _WORDS), np.uint64)
    words[:, 0] = _HEAD[row_x] | _LEAD[lead] | np.where(np.signbit(values), _MINUS, _U0)
    words[:, 1:5] = _GROUP[groups]
    short = np.flatnonzero(shown < 17)
    words[short, 1:5] &= _SHOWN[shown[short]]
    words[:, 5] = _TAIL[row_x]
    point = np.where(fixed, x, 0)  # the digit the '.' follows
    dotted = np.flatnonzero((fixed | (x < -4)) & (significant > point + 1))
    words.view(np.uint8).reshape(-1)[dotted * 8 * _WORDS + 7 + 2 * point[dotted]] = ord(".")
    return words


def table_text(rows: np.ndarray, row: str, sep: str) -> str:
    """Rows of floats as row.format(cells joined by ','), joined by sep,
    each cell '%.17g' % value: the text of that format, computed in numpy.
    ``row`` holds one '{}'."""
    head, tail = row.split("{}")
    count, columns = rows.shape
    ends = np.zeros((columns, 8), np.uint8)  # ',' after a cell, tail + sep + head after a row
    for j, text in enumerate([b","] * (columns - 1) + [(tail + sep + head).encode()]):
        ends[j, 4:4 + len(text)] = np.frombuffer(text, np.uint8)
    values = np.asarray(rows, np.float64).ravel()
    mag = np.abs(values)
    fast = (mag > _LOW) & (mag < _HIGH)
    slow = np.flatnonzero(~fast)
    if slow.size:
        words = np.zeros((values.size, _WORDS), np.uint64)
        words[fast] = _number_words(values[fast])
        # one '%' operation pads each number with spaces to _CELLS bytes
        text = (f"%-{_CELLS}.17g" * slow.size) % tuple(values[slow].tolist())
        words.view(np.uint8)[slow, :_CELLS] = np.frombuffer(
            text.encode().translate(_SPACE_TO_NUL), np.uint8).reshape(-1, _CELLS)
    else:
        words = _number_words(values)
    words.reshape(count, columns, _WORDS)[:, :, 5] |= _words(ends).ravel()
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    return head + text[:len(text) - len(sep + head)]
