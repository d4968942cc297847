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

A block of rows renders into one ``uint8`` matrix with a fixed-width
slot per column, whose bytes past each cell's text are :data:`_PAD`
(0xFF, a byte no UTF-8 text holds); dropping those bytes, a slice of
rows at a time, leaves the block's text.  Each column is measured first
(a float column by its shortest digits and layouts), then writes its
cells straight into its slot.  A categorical column is a :class:`Cells`
table read through row codes: a slice of rows at a time, its text is
gathered and copied into its slot, so the gather holds at most
:data:`_COMPRESS_BYTES` besides.  The writers import this module when
they run, so a command that writes no file never loads it, and the power
and layout tables (about 60 kB) are built by the first float rendered.

Cost, in blocks of 4,096 rows on a 2-core x86-64 machine: 1.0-1.6 us a
CSV row of three or four columns (medians on a shared host), against
0.8-1.3 us a float for ``repr`` and a join.  Besides its text, a block holds about 120-150 B of
scratch a row: the slot matrix, about as wide as the text, and the
Schubfach pass over one float column, about 170 B a value.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, NamedTuple

import numpy as np

__all__: list[str] = []

_K_MIN, _K_MAX = -324, 292  # decimal exponents of the power table
_DIGITS = 17  # a double needs at most 17 significant digits
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_BILLION = np.uint64(10**9)
_TEN = np.uint32(10)
_ZERO = np.uint32(ord("0"))
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


_PAD = np.uint8(0xFF)  # fills a slot past its cell's text
_COMPRESS_BYTES = 1 << 14  # block bytes compressed at once


class Cells(NamedTuple):
    """A column's text cells: row i's text is ``text[codes[i]]`` (``text[i]``
    without codes), less its :data:`_PAD` bytes."""

    text: np.ndarray  # (cells, width) uint8
    codes: np.ndarray | None = None

    def take(self, codes) -> "Cells":
        """The cells of rows ``codes``, as for a categorical column; no text is copied."""
        return Cells(self.text, codes if self.codes is None else self.codes[codes])


class _Column(NamedTuple):
    """A measured column: ``fill(out)`` writes its ``rows`` cells into a
    ``(rows, width)`` uint8 view."""

    rows: int
    width: int
    fill: Callable[[np.ndarray], None]


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
    # Just above a power of two the next double down sits half as far away.
    irregular = (t == 0) & (biased > 1)
    c = t | (_MASK52 + _U1)
    del t
    q = np.maximum(biased, 1) - 1075
    del biased
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    del q
    out = c & _U1
    cb = c << _U2
    del c
    g1, g0 = g1[k - _K_MIN], g0[k - _K_MIN]
    vb = _round_to_odd(g1, g0, cb << h)
    vbl = _round_to_odd(g1, g0, (cb - _U2 + irregular) << h)
    vbr = _round_to_odd(g1, g0, (cb + _U2) << h)
    del g1, g0, cb, h, irregular
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


def _digits(u, width: int):
    """ASCII digits of the uint64 values ``u`` below ``10**width``, right-aligned:
    yields ``(i, row)`` with ``row`` the digit column i, lowest digit first."""
    for top in range(width, 0, -9):  # nine digits at a time in uint32, lowest first
        if top > 9:
            u, limb = np.divmod(u, _BILLION)
            limb = limb.astype(np.uint32)
        else:
            limb = u.astype(np.uint32)
        for i in range(top - 1, max(top - 9, 0) - 1, -1):
            q = limb // _TEN
            limb -= q * _TEN
            limb += _ZERO
            yield i, limb
            limb = q


def _float_column(x, nonfinite) -> _Column:
    """The cells of ``repr(float(v))`` for each value of ``x``; with ``nonfinite``,
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
    del k, zero
    exponent = np.abs(decpt - 1).astype(np.uint32)
    form = np.where(
        (decpt > -4) & (decpt <= 16),
        decpt + 3,
        _POSITIONAL + 2 * (decpt < 1) + (exponent >= 100),
    )
    del decpt
    layouts = _tables()[2]
    layout = (((bits >> _U63).astype(np.int16) * _FORMS + form) * _DIGITS + n - 1).astype(np.int16)
    del form, n
    # Subnormal, infinite and nan lanes take repr's text (or nonfinite's) in place of a layout.
    biased = (bits >> _U52) & np.uint64(0x7FF)
    fallback = np.flatnonzero((biased == 0) & (bits << _U1 != 0) | (biased == 0x7FF))
    del biased
    texts = [(nonfinite or {}).get(text, text).encode() for text in map(repr, x[fallback].tolist())]
    layout[fallback] = 0
    # Only the columns some layout of the block keeps, and room for the texts.
    used = layouts[np.bincount(layout, minlength=len(layouts)) > 0].any(axis=0)
    used[: max(map(len, texts), default=0)] = True
    columns = np.flatnonzero(used)
    slot = {col: j for j, col in enumerate(columns.tolist())}

    def fill(out):
        out[:] = _TEMPLATE[columns]
        for i, digit in _digits(f, _DIGITS):
            if _DIGIT_COL + 2 * i in slot:
                out[:, slot[_DIGIT_COL + 2 * i]] = digit
        if _E_COL + 5 in slot:
            for i, digit in _digits(exponent, 3):
                if _E_COL + 3 + i in slot:
                    out[:, slot[_E_COL + 3 + i]] = digit
        out |= (_PAD * ~layouts[:, columns])[layout]  # 0xFF | byte is 0xFF
        for i, text in zip(fallback.tolist(), texts):
            out[i] = _PAD
            out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)

    return _Column(x.size, columns.size, fill)


def float_cells(x, nonfinite: dict | None = None) -> Cells:
    """:class:`Cells` of ``repr(float(v))`` for each value of ``x`` (see :func:`rows_text`
    for ``nonfinite``)."""
    column = _float_column(x, nonfinite)
    text = np.empty((column.rows, column.width), dtype=np.uint8)
    column.fill(text)
    return Cells(text)


def _int_column(x) -> _Column:
    """The cells of ``str(int(v))`` for each value of the integer array ``x``."""
    x = np.asarray(x, dtype=np.int64).ravel()
    magnitude = np.abs(x).astype(np.uint64)
    n = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    minus = x < 0
    width = int(n.max(initial=1)) + bool(minus.any())
    first = width - n - minus

    def fill(out):
        for i, digit in _digits(magnitude, width):
            out[:, i] = digit
        out |= _PAD * (np.arange(width) < first[:, None])
        out[np.flatnonzero(minus), first[minus]] = ord("-")

    return _Column(x.size, width, fill)


def str_cells(strings) -> Cells:
    """:class:`Cells` of the given strings (UTF-8), packed to the left."""
    data = [s.encode() for s in strings]
    lengths = np.array([len(d) for d in data], dtype=np.intp)
    keep = np.arange(max(lengths, default=0)) < lengths[:, None]
    text = np.full(keep.shape, _PAD, dtype=np.uint8)
    text[keep] = np.frombuffer(b"".join(data), dtype=np.uint8)
    return Cells(text)


def _as_column(column, nonfinite) -> _Column:
    if isinstance(column, Cells):
        text, codes = column

        def fill(out):
            if codes is None:
                out[:] = text
                return
            step = max(1, _COMPRESS_BYTES // max(text.shape[1], 1))
            for lo in range(0, len(codes), step):  # the gather's copy stays one slice
                out[lo : lo + step] = text[codes[lo : lo + step]]

        return _Column(len(text) if codes is None else len(codes), text.shape[1], fill)
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return _int_column(column)
    return _float_column(column, nonfinite)


def rows_text(columns, sep: str, start: str = "", end: str = "\n", nonfinite=None) -> np.ndarray:
    """Every row's ``start + sep.join(cells) + end``, concatenated, as a uint8
    array of UTF-8 bytes that a binary file writes as it is.  A column is a
    :class:`Cells`, an integer array or a float array; ``nonfinite`` maps the
    repr of a nan or infinite float to the text it is written as."""
    pieces = [start.encode()]
    for column in columns:
        pieces += [_as_column(column, nonfinite), sep.encode()]
    pieces[-1] = end.encode()
    widths = [len(p) if isinstance(p, bytes) else p.width for p in pieces]
    chars = np.empty((pieces[1].rows, sum(widths)), dtype=np.uint8)
    col = 0
    for i, width in enumerate(widths):
        piece, pieces[i] = pieces[i], None  # a column's measures go once it is written
        part = chars[:, col : col + width]
        if isinstance(piece, bytes):
            part[:] = np.frombuffer(piece, dtype=np.uint8)
        else:
            piece.fill(part)
        col += width
    # A slice of rows at a time: np.compress holds an 8-byte index per byte it keeps.
    rows = range(0, chars.shape[0], max(1, _COMPRESS_BYTES // max(chars.shape[1], 1)))
    sizes = [np.count_nonzero(chars[lo : lo + rows.step] != _PAD) for lo in rows]
    text, at = np.empty(sum(sizes), dtype=np.uint8), 0
    for lo, size in zip(rows, sizes):
        part = chars[lo : lo + rows.step].ravel()
        np.compress(part != _PAD, part, out=text[at : at + size])
        at += size
    return text
