"""Numbers as text, a block of rows at a time: the one renderer behind every writer.

Contract: a float64 value becomes exactly the characters ``repr(float(v))``
gives, an integer those of ``str(int(v))``, and a row of cells exactly
``start + sep.join(cells) + end`` for any ``str`` separators (UTF-8).

Floats take the shortest decimal that reads back to the same double,
the one closest to it, ties to an even last digit: the digits of
CPython's ``repr``.  They come from a vectorized Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020; the algorithm of OpenJDK's
``Double.toString``) over ``x.view(uint64)``, with one 126-bit power of
ten per decimal exponent and round-to-odd 64x128-bit products.  The
digits are then laid out the way CPython does: positional when
``-4 < decpt <= 16`` (``x = 0.d1..dn 10**decpt``), with ``.0`` after an
integral value, else ``d.ddde+XX`` with at least two exponent digits.
Zeros are laid out directly; subnormal, infinite and nan lanes are
rendered by ``repr`` one lane at a time.

A column renders to :class:`Cells`: a fixed-width ``uint8`` matrix plus
the mask of the characters that are text rather than padding, so one
boolean compress per block turns a row matrix into the file's bytes.
The writers import this module when they run, so a command that writes
no file never loads it, and the power and layout tables (about 60 kB)
are built by the first float rendered.  Cost, in blocks of 16,384 values on a 2-core
x86-64 machine: about 0.25 us a float, 0.35 us with its row assembled,
against 0.8-1.3 us for ``repr`` and a join.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

__all__: list[str] = []

_K_MIN, _K_MAX = -324, 292  # decimal exponents of the power table
_DIGITS = 17  # a double needs at most 17 significant digits
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_BILLION = np.uint64(10**9)
_TEN = np.uint32(10)
_MASK52 = np.uint64((1 << 52) - 1)
_MASK63 = np.uint64((1 << 63) - 1)
_LOW32 = np.uint64(0xFFFFFFFF)
_U1, _U2, _U32, _U52, _U63 = (np.uint64(s) for s in (1, 2, 32, 52, 63))
# A float cell holds every character any layout can need, in order; its
# layout keeps some of them.  Digit i of the 17 right-aligned digits sits
# at column 6 + 2i, with a decimal point slot after it.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * _DIGITS + b"0" * 15 + b".0e+-000", dtype=np.uint8)
_DIGIT_COL, _ZEROS_COL, _E_COL = 6, 6 + 2 * _DIGITS, 6 + 2 * _DIGITS + 17
# Layout forms: positional for decpt = -3 .. 16, then the four exponent
# forms (exponent sign, two or three exponent digits).
_POSITIONAL = 20
_FORMS = _POSITIONAL + 4


class Cells(NamedTuple):
    """One text cell per row: ``chars[i][keep[i]]`` is row i's text."""

    chars: np.ndarray  # (rows, width) uint8
    keep: np.ndarray  # (rows, width) bool

    def take(self, codes) -> "Cells":
        """The cells of rows ``codes``, as for a categorical column."""
        return Cells(self.chars[codes], self.keep[codes])


def _layout(sign: int, form: int, n: int) -> list[int]:
    """Columns of :data:`_TEMPLATE` one float layout keeps."""
    digits = [_DIGIT_COL + 2 * i for i in range(_DIGITS - n, _DIGITS)]
    out = [0] if sign else []
    if form < _POSITIONAL:
        decpt = form - 3
        if decpt <= 0:
            return out + [1, 2] + list(range(3, 3 - decpt)) + digits
        if decpt < n:
            return out + digits[:decpt] + [digits[decpt - 1] + 1] + digits[decpt:]
        return out + digits + list(range(_ZEROS_COL, _ZEROS_COL + decpt - n)) + [_E_COL - 2, _E_COL - 1]
    negative, wide = divmod(form - _POSITIONAL, 2)
    point = [digits[0] + 1] if n > 1 else []
    exponent = list(range(_E_COL + 3 + 1 - wide, _E_COL + 6))
    return out + digits[:1] + point + digits[1:] + [_E_COL, _E_COL + 1 + negative] + exponent


@functools.cache
def _tables():
    """The power table ``g = g1 2**63 + g0`` with ``(g - 1) 2**r <= 10**-k < g 2**r``
    and ``2**125 <= g < 2**126`` for k = _K_MIN .. _K_MAX, and the layout
    table: the template columns each (sign, form, digit count) keeps."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            p = 10**k
            g = (1 << (p.bit_length() + 125)) // p + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    layouts = np.zeros((2 * _FORMS * _DIGITS, _TEMPLATE.size), dtype=bool)
    for i, (s, f, n) in enumerate(itertools.product((0, 1), range(_FORMS), range(1, _DIGITS + 1))):
        layouts[i, _layout(s, f, n)] = True
    tables = np.array(g1, np.uint64), np.array(g0, np.uint64), layouts
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _mulhilo(a, b):
    """Low and high 64-bit words of the 128-bit products ``a * b`` of two
    uint64 arrays, by 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _U32
    b_lo, b_hi = b & _LOW32, b >> _U32
    cross_lo, cross_hi = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U32) + (cross_lo & _LOW32) + (cross_hi & _LOW32)
    hi = a_hi * b_hi + (cross_lo >> _U32) + (cross_hi >> _U32) + (mid >> _U32)
    return a * b, hi


def _round_to_odd(g1, g0, cp):
    """``floor(g cp / 2**127)`` with its lowest bit or'ed with the lost bits'."""
    _, x1 = _mulhilo(g0, cp)
    y0, y1 = _mulhilo(g1, cp)
    z = (y0 >> _U1) + x1
    return (y1 + (z >> _U63)) | (((z & _MASK63) + _MASK63) >> _U63)


def _shortest(bits):
    """``(f, k)``: the shortest decimal ``f 10**k`` that reads back to each
    normal double ``bits``, closest to it, ties to even (Schubfach)."""
    g1, g0, _ = _tables()
    biased = ((bits >> _U52) & np.uint64(0x7FF)).astype(np.int64)
    t = bits & _MASK52
    c = t | (_MASK52 + _U1)
    q = np.maximum(biased, 1) - 1075
    # Just above a power of two the next double down sits half as far away.
    irregular = (t == 0) & (biased > 1)
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    out = c & _U1
    cb = c << _U2
    g1, g0 = g1[k - _K_MIN], g0[k - _K_MIN]
    vb = _round_to_odd(g1, g0, cb << h)
    vbl = _round_to_odd(g1, g0, (cb - _U2 + irregular) << h)
    vbr = _round_to_odd(g1, g0, (cb + _U2) << h)
    # One multiple of 10**(k+1) inside the rounding interval is the answer;
    # else the multiple of 10**k inside it, the nearer if both are.
    s = vb >> _U2
    sp = s // np.uint64(10) * np.uint64(10)
    upin = vbl + out <= sp << _U2
    wpin = ((sp + np.uint64(10)) << _U2) + out <= vbr
    uin = vbl + out <= s << _U2
    win = ((s + _U1) << _U2) + out <= vbr
    mid = (s << _U2) + _U2
    lower = np.where(uin == win, (vb < mid) | ((vb == mid) & (s & _U1 == 0)), uin)
    f = np.where(upin != wpin, np.where(upin, sp, sp + np.uint64(10)), np.where(lower, s, s + _U1))
    return f, k


def _digits(u, width: int) -> np.ndarray:
    """ASCII digits of the uint64 values ``u`` below ``10**width``, right-aligned:
    row i of the result is digit column i."""
    out = np.empty((width, u.size), dtype=np.uint8)
    for top in range(width, 0, -9):  # nine digits at a time in uint32, lowest first
        if top > 9:
            u, limb = np.divmod(u, _BILLION)
            limb = limb.astype(np.uint32)
        else:
            limb = u.astype(np.uint32)
        for row in range(top - 1, max(top - 9, 0) - 1, -1):
            q = limb // _TEN
            out[row] = limb - q * _TEN
            limb = q
    out += ord("0")
    return out


def float_cells(x, nonfinite: dict | None = None) -> Cells:
    """Cells of ``repr(float(v))`` for each value of ``x``; with ``nonfinite``,
    the text of a nan or infinite lane is looked up in it by its repr."""
    x = np.ascontiguousarray(x, dtype=float).ravel()
    bits = x.view(np.uint64)
    f, k = _shortest(bits)
    # Trailing zeros off: f 10**k = 0.d1..dn 10**decpt.
    more = np.flatnonzero(f % np.uint64(10) == 0)
    while more.size:
        f[more] //= np.uint64(10)
        k[more] += 1
        more = more[f[more] % np.uint64(10) == 0]
    zero = (bits << _U1) == 0
    f[zero] = 0
    n = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    decpt = np.where(zero, 1, k + n)
    exponent = np.abs(decpt - 1)
    form = np.where(
        (decpt > -4) & (decpt <= 16),
        decpt + 3,
        _POSITIONAL + 2 * (decpt < 1) + (exponent >= 100),
    )
    layouts = _tables()[2]
    layout = ((bits >> _U63).astype(np.intp) * _FORMS + form) * _DIGITS + n - 1
    biased = (bits >> _U52) & np.uint64(0x7FF)
    fallback = np.flatnonzero(((biased == 0) & ~zero) | (biased == 0x7FF)).tolist()
    if fallback:
        columns = np.arange(_TEMPLATE.size)
    else:  # only the columns some layout of the block keeps
        columns = np.flatnonzero(layouts[np.bincount(layout, minlength=len(layouts)) > 0].any(axis=0))
        layouts = layouts[:, columns]
    chars = np.empty((x.size, columns.size), dtype=np.uint8)
    chars[:] = _TEMPLATE[columns]
    digits = _digits(f, _DIGITS)
    exponents = None
    for j, col in enumerate(columns.tolist()):
        if _DIGIT_COL <= col < _ZEROS_COL and col % 2 == 0:
            chars[:, j] = digits[(col - _DIGIT_COL) // 2]
        elif col > _E_COL + 2:
            if exponents is None:
                exponents = _digits(exponent.astype(np.uint64), 3)
            chars[:, j] = exponents[col - _E_COL - 3]
    keep = layouts[layout]
    # Subnormal, infinite and nan lanes.
    for i in fallback:
        text = repr(float(x[i]))
        if nonfinite is not None:
            text = nonfinite.get(text, text)
        chars[i, : len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
        keep[i] = np.arange(_TEMPLATE.size) < len(text)
    return Cells(chars, keep)


def int_cells(x) -> Cells:
    """Cells of ``str(int(v))`` for each value of the integer array ``x``."""
    x = np.asarray(x, dtype=np.int64).ravel()
    magnitude = np.abs(x).astype(np.uint64)
    n = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    minus = x < 0
    width = int(n.max(initial=1)) + bool(minus.any())
    chars = _digits(magnitude, width).T.copy()
    first = width - n - minus
    chars[np.flatnonzero(minus), first[minus]] = ord("-")
    return Cells(chars, np.arange(width) >= first[:, None])


def str_cells(strings) -> Cells:
    """Cells of the given strings (UTF-8), packed to the left."""
    data = [s.encode() for s in strings]
    lengths = np.array([len(d) for d in data], dtype=np.intp)
    keep = np.arange(max(lengths, default=0)) < lengths[:, None]
    chars = np.zeros(keep.shape, dtype=np.uint8)
    chars[keep] = np.frombuffer(b"".join(data), dtype=np.uint8)
    return Cells(chars, keep)


def _as_cells(column, nonfinite) -> Cells:
    if isinstance(column, Cells):
        return column
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return int_cells(column)
    return float_cells(column, nonfinite)


def rows_text(columns, sep: str, start: str = "", end: str = "\n", nonfinite=None) -> np.ndarray:
    """Every row's ``start + sep.join(cells) + end``, concatenated, as a uint8
    array of UTF-8 bytes that a binary file writes as it is.  A column is a
    :class:`Cells`, an integer array or a float array; ``nonfinite`` is
    passed to :func:`float_cells`."""
    cells = [_as_cells(column, nonfinite) for column in columns]
    pieces = [start.encode()]
    for column in cells:
        pieces += [column, sep.encode()]
    pieces[-1] = end.encode()
    widths = [len(p) if isinstance(p, bytes) else p.chars.shape[1] for p in pieces]
    chars = np.empty((cells[0].chars.shape[0], sum(widths)), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    col = 0
    for piece, width in zip(pieces, widths):
        part = slice(col, col + width)
        if isinstance(piece, bytes):
            chars[:, part] = np.frombuffer(piece, dtype=np.uint8)
            keep[:, part] = True
        else:
            chars[:, part], keep[:, part] = piece
        col += width
    return np.compress(keep.ravel(), chars.ravel())
