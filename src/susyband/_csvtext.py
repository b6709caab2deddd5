"""The one path from a float table to CSV text: `"%.12g" % value` per field.

Every CSV writer of the package calls `write_table`, which hands BLOCK_ROWS
rows at a time to `format_rows`: fields joined by `,`, rows ended by
newlines, byte for byte as `%` would.  The fast case is all numpy: one
multiply by a tabulated power of ten and a floor give the correctly rounded
12-digit mantissa M in [1e11, 1e12), whose three 4-digit groups index an
ASCII table.  Each field is laid out in four little-endian `uint64` words,
padded with NUL bytes that `bytes.translate` drops:

    word 0   sign, then "0." and up to three zeros for 1e-4 <= |v| < 1
    words 1-2  the 12 digits, their trailing fraction zeros cleared, with
             the decimal point moved in after digit X (fixed) or 0 (exponent)
    word 3   "e+XX" or "e-XXX" in exponent form; the separator in byte 7

An empty field is its separator alone.  A mask with one flag per column drops
up to two empty last columns before the numeric passes, and a mask with no
flag set is no mask; the separators of the dropped columns end the row in the
free bytes 5-6 of the last field's word 3.

Every value whose rounding is in doubt goes through `%` itself, which rounds
correctly (Steele & White, PLDI 1990; Gay, 1990): zero, inf, nan, |v|
outside [1e-290, 1e290], and every scaled value whose fraction lies within
2^-9 of 1/2.  The scaled value, |v| times a power of ten that is at most
1 ulp off, rounded once, is off by less than 2^-11 in [1e11, 1e12), so every
other value rounds the same either way.
"""

from __future__ import annotations

import sys

import numpy as np

#: rows per `format_rows` call of `write_table`; with six columns, a block's
#: temporaries stay near 25 KB and its text under 100 KB
BLOCK_ROWS = 512

# the word layout is that of a little-endian uint64; elsewhere the empty
# fast range sends every value down the `%` path
_TINY, _HUGE = (1e-290, 1e290) if sys.byteorder == "little" else (np.inf, 0.0)
_DOUBT = 2.0**-9
_P0 = 295  # exponents X in [-_P0, _P0]; the fast range needs [-291, 291]


def _bytes_to_words(table):
    """Rows of up to 8 bytes (0 = nothing) as uint64 words."""
    out = np.zeros((len(table), 8), dtype=np.uint8)
    out[:, : table.shape[1]] = table
    return out.view(np.uint64)[:, 0]


def _digit_tables():
    """_ASCII4[g], the 4 digits of g < 10^4, and _SIG4[g], how many of them to
    keep: those up to the last nonzero one, 0 for g = 0."""
    # the digits of g, most significant first, along four broadcast axes
    d = [np.arange(10).reshape((10,) + (1,) * (3 - k)) for k in range(4)]
    ascii4 = sum((48 + dk).astype(np.uint64) << np.uint64(8 * k) for k, dk in enumerate(d))
    sig = np.maximum(np.maximum(d[0] > 0, 2 * (d[1] > 0)), np.maximum(3 * (d[2] > 0), 4 * (d[3] > 0)))
    return ascii4.ravel(), sig.astype(np.uint8).ravel()


_ASCII4, _SIG4 = _digit_tables()
# the same count for the groups of digits 8-11 and 4-7, as digits of all 12
_KEPT8, _KEPT4 = (np.where(_SIG4 > 0, _SIG4 + k, 0).astype(np.uint8) for k in (8, 4))


def _exponent_tables():
    """Tables at index 2 (X + _P0) + sign, for decimal exponent X and sign bit."""
    x = np.repeat(np.arange(-_P0, _P0 + 1), 2)
    fixed = (x >= 0) & (x < 12)
    small = (x >= -4) & (x < 0)
    scale = 10.0 ** (11 - x)  # correctly rounded or 1 ulp off
    # digit after which the point goes; 12 is none (small: it is in word 0)
    point = np.where(fixed, x, np.where(small, 12, 0)).astype(np.uint8)
    least = np.where(fixed, x + 1, 1).astype(np.uint8)  # digits kept in any case
    head = np.zeros((x.size, 6), dtype=np.uint8)
    head[1::2, 0] = ord("-")
    head[small, 1:3] = (ord("0"), ord("."))
    head[:, 3:6] = np.where(np.arange(3) < np.where(small, -x - 1, 0)[:, None], ord("0"), 0)
    ax = np.abs(x)
    tail = np.stack([np.full_like(x, ord("e")), np.where(x < 0, ord("-"), ord("+")),
                     np.where(ax >= 100, 48 + ax // 100, 0), 48 + ax // 10 % 10, 48 + ax % 10,
                     0 * x, 0 * x, np.full_like(x, ord(","))], axis=1)
    tail[fixed | small, :5] = 0
    return scale, point, least, _bytes_to_words(head), _bytes_to_words(tail)


_SCALE, _POINT, _LEAST, _HEAD, _TAIL = _exponent_tables()
# word 3 of a field with no exponent, and the XOR that ends a row instead, after
# 0, 1 or 2 empty fields, whose separators go in the free bytes 6 and 5
_COMMA = np.uint64(ord(",") << 56)
_ENDS = [np.uint64(int.from_bytes(bytes(7 - t) + b"," * t + bytes([ord(",") ^ ord("\n")]), "little"))
         for t in range(3)]


def _digit_masks():
    """[stay_lo, stay_hi, move_lo, move_hi, dot_lo, dot_hi] at kept * 13 + point.

    Of the first `kept` of 16 digit bytes, `stay` marks bytes 0..point and
    `move` the rest, which shift one byte up to make room for the '.' that
    `dot` puts at byte point + 1; point 12 moves nothing and adds no '.'."""
    byte = np.arange(16)
    kept, point = np.divmod(np.arange(13 * 13), 13)
    keep = byte < kept[:, None]
    stay = keep & (byte <= point[:, None])
    # a '.' only where a kept digit follows it
    dot = np.where((byte == point[:, None] + 1) & (kept[:, None] > byte), ord("."), 0)
    rows = [np.where(mask, 0xFF, 0) for mask in (stay, keep & ~stay)] + [dot]
    words = [_bytes_to_words(r.reshape(-1, 8)).reshape(-1, 2) for r in rows]
    return np.ascontiguousarray(np.concatenate(words, axis=1))


_MASKS = _digit_masks()


def format_rows(block, blank=None) -> str:
    """`"%.12g"` of every field of the 2-D float `block`, rows joined by ',' and
    ended by newlines; a field where `blank`, a bool array broadcast to the
    block's shape, is set stays empty; with one flag per column, up to two
    empty last columns skip the numeric passes."""
    end = 0
    if blank is not None and np.shape(blank) == block.shape[1:]:
        while end < 2 and len(blank) > 1 and blank[-1]:
            block, blank, end = block[:, :-1], blank[:-1], end + 1
        if not np.any(blank):
            blank = None
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    fast = a >= _TINY
    fast &= a <= _HUGE
    if blank is not None:
        blank = np.broadcast_to(blank, block.shape).ravel()
        fast &= ~blank
    a[~fast] = 1.0
    # the decimal exponent X, corrected once where log10 lands on the wrong
    # side of a power of ten, as e = 2 (X + _P0) + sign; s = |v| 10^(11 - X)
    e = np.log10(a)
    np.floor(e, out=e)
    e *= 2
    e += np.signbit(v)
    e = e.astype(np.intp)
    e += 2 * _P0
    s = a * _SCALE.take(e)
    off = np.flatnonzero((s < 1e11) | (s >= 1e12))
    if off.size:
        e[off] += np.where(s[off] >= 1e12, 2, -2)
        s[off] = a[off] * _SCALE.take(e[off])
    m = np.floor(s)
    s -= m
    up = s > 0.5
    s -= 0.5
    np.abs(s, out=s)
    fast &= s >= _DOUBT
    m += up
    # 999999999999.6 rounds to 1e12: the mantissa of the next power of ten
    carry = np.flatnonzero(m >= 1e12)
    m[carry] = 1e11
    e[carry] += 2
    # the 4-digit groups of the mantissa: m = (g0 10^4 + g1) 10^4 + g2
    g2 = m.astype(np.intp)
    g1 = g2 // 10000
    g2 -= g1 * 10000
    g0 = g1 // 10000
    g1 -= g0 * 10000
    kept = np.maximum(_KEPT8.take(g2), _KEPT4.take(g1))
    np.maximum(kept, _SIG4.take(g0), out=kept)
    np.maximum(kept, _LEAST.take(e), out=kept)
    kept *= 13
    kept += _POINT.take(e)
    masks = _MASKS.take(kept, axis=0)
    lo = _ASCII4.take(g1)
    lo <<= 32
    lo |= _ASCII4.take(g0)
    hi = _ASCII4.take(g2)
    words = np.empty((v.size, 4), dtype=np.uint64)
    words[:, 0] = _HEAD.take(e)
    move = lo & masks[:, 2]
    np.bitwise_and(lo, masks[:, 0], out=words[:, 1])
    words[:, 1] |= masks[:, 4]
    np.bitwise_and(hi, masks[:, 1], out=words[:, 2])
    hi &= masks[:, 3]
    hi <<= 8
    words[:, 2] |= hi
    words[:, 2] |= masks[:, 5]
    np.right_shift(move, 56, out=hi)
    words[:, 2] |= hi
    move <<= 8
    words[:, 1] |= move
    words[:, 3] = _TAIL.take(e)
    slow = np.flatnonzero(~fast)
    if slow.size:
        words[slow] = (0, 0, 0, _COMMA)
        if blank is not None:
            slow = slow[~blank[slow]]
        text = b"".join(("%.12g" % value).encode().ljust(24, b"\0") for value in v[slow].tolist())
        words[slow, :3] = np.frombuffer(text, dtype=np.uint64).reshape(-1, 3)
    words.reshape(rows, cols, 4)[:, -1, 3] ^= _ENDS[end]
    return words.tobytes().translate(None, b"\0").decode()


def write_table(stream, header, columns, blank=None, text=None):
    """The `header` line, then the float `columns` as CSV rows; `blank(block)`
    marks a block's empty fields, `text(block)` gives each row a last field."""
    stream.write(header + "\n")
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        block = np.column_stack([col[lo : lo + BLOCK_ROWS] for col in columns])
        rows = format_rows(block, None if blank is None else blank(block))
        if text is not None:
            rows = "".join(map("{},{}\n".format, rows.splitlines(), text(block)))
        stream.write(rows)
