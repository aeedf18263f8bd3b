"""CSV rows of float and integer columns, byte-identical to Python's repr.

`csv_chunks(blocks)` yields the text that writing `",".join(map(repr, row))`
and a newline for every row of the blocks would give, as bytes, a few
thousand values at a time. A float prints as CPython's repr: the shortest
decimal that reads back to the same double and, among those, the closest
to it, laid out as `0.000ddd`, `dd.ddd`, `ddd00.0` or `d.ddde±XX`. An
integer prints plainly.

The shortest decimal is Schubfach's (R. Giulietti, "The Schubfach way to
render doubles", 2020), run on whole arrays in `np.uint64` arithmetic: each
double is scaled by a 128-bit power of ten, taken in 32-bit limbs, and
rounded to odd. The digits then come four at a time from a table, and the
layout of every value is a row of a small table of byte positions, keyed on
its form and its number of significant digits. One boolean mask drops the
unused bytes of a chunk. Every constant of the unsigned arithmetic is an
explicit `np.uint64`, so the results do not depend on numpy's promotion
rules for Python scalars.
"""

import itertools

import numpy as np

_U = np.uint64
_LO32 = _U(0xFFFFFFFF)
_LO64 = _U(0xFFFFFFFFFFFFFFFF)
_FRAC = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_MAGNITUDE = _U((1 << 63) - 1)
_INF = _U(0x7FF0000000000000)
_ONE_BITS = _U(0x3FF0000000000000)
_P10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)

# values per chunk: the chunk's temporaries stay near 1 MB
CHUNK_VALUES = 4096
_E_MIN, _E_MAX = -292, 324  # the powers of ten that scale a double


def _power_table():
    """Rows e = _E_MIN .. _E_MAX: the 128-bit g(e) = floor(10**e * 2**(127 - r)) + 1,
    with r = floor(log2(10**e)), as four 32-bit limbs and two 64-bit words
    (least significant first), and r itself."""
    g, r = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        p = 10 ** abs(e)
        if e >= 0:
            r.append(p.bit_length() - 1)
            g.append((p << (127 - r[-1]) if r[-1] <= 127 else p >> (r[-1] - 127)) + 1)
        else:
            r.append(-p.bit_length())  # 10**-e is never a power of two
            g.append((1 << (127 - r[-1])) // p + 1)
    lo = np.array([x & 0xFFFFFFFFFFFFFFFF for x in g], dtype=np.uint64)
    hi = np.array([x >> 64 for x in g], dtype=np.uint64)
    limbs = [lo & _LO32, lo >> _U(32), hi & _LO32, hi >> _U(32)]
    return np.stack([*limbs, lo, hi]), np.array(r, dtype=np.int64)


_G, _FLOOR_LOG2_P10 = _power_table()


def _mul(a0, a1, b0, b1):
    """High and low 64-bit words of a * b, from 32-bit limbs; b < 2**59."""
    p00 = a0 * b0
    p10 = a1 * b0
    mid = (p00 >> _U(32)) + (p10 & _LO32) + a0 * b1
    lo = (mid << _U(32)) | (p00 & _LO32)
    hi = a1 * b1 + (p10 >> _U(32)) + (mid >> _U(32))
    return hi, lo


def _shifted(lo, hi, s):
    """The three 64-bit words of the 128-bit (hi, lo) shifted left by s in 1 .. 5."""
    return lo << s, (hi << s) | (lo >> (_U(64) - s)), hi >> (_U(64) - s)


def _shortest(bits):
    """(d, e) with d * 10**e the shortest decimal that rounds to each positive
    finite double of the given bit patterns and, among those, the closest.

    Each value c * 2**q and the ends of its rounding interval are scaled by
    10**-k with the 128-bit g(-k) and rounded to odd: vb = 4 c 2**q 10**-k,
    and vbl, vbr for the ends, each with its lowest bit set when inexact.
    The three come from one exact 192-bit product and two exact 192-bit
    sums with it.
    """
    frac = bits & _FRAC
    biased = (bits >> _U(52)).astype(np.int64)
    c = np.where(biased != 0, frac | _HIDDEN, frac)
    q = np.maximum(biased, 1) - 1075
    lower_closer = (frac == _U(0)) & (biased > 1)
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when the lower
    # neighbour is closer
    k = (q * 1262611 - np.where(lower_closer, 524031, 0)) >> 22
    row = -k - _E_MIN
    g0, g1, g2, g3, g_lo, g_hi = np.take(_G, row, axis=1)
    h = (q + _FLOOR_LOG2_P10[row] + 1).astype(np.uint64)
    # the 192-bit product g * (4 c << h), as words p2, p1, p0
    cp = c << (h + _U(2))
    b0, b1 = cp & _LO32, cp >> _U(32)
    x1, p0 = _mul(g0, g1, b0, b1)
    y1, y0 = _mul(g2, g3, b0, b1)
    p1 = y0 + x1
    p2 = y1 + (p1 < y0)
    vb = p2 | (p1 > _U(1))
    # the ends add g * (2 << h) and subtract g * ((2 - lower_closer) << h)
    d0, d1, d2 = _shifted(g_lo, g_hi, h + _U(1))
    carry0 = p0 + d0 < p0
    r1 = p1 + d1
    carry = (r1 < p1) | ((r1 == _LO64) & carry0)
    r1 += carry0
    vbr = (p2 + d2 + carry) | (r1 > _U(1))
    d0, d1, d2 = _shifted(g_lo, g_hi, h + _U(1) - lower_closer)
    borrow0 = p0 < d0
    r1 = p1 - d1
    borrow = (p1 < d1) | ((r1 == _U(0)) & borrow0)
    r1 -= borrow0
    vbl = (p2 - d2 - borrow) | (r1 > _U(1))
    odd = c & _U(1)  # the rounding interval is closed for an even significand
    lower, upper = vbl + odd, vbr - odd
    # Giulietti's choice: the one multiple of 10 * 10**k or of 10**k in the
    # interval, else the nearer of s and s + 1, ties to even
    s = vb >> _U(2)
    sp = s // _U(10)
    up_in = lower <= _U(40) * sp
    wp_in = _U(40) * sp + _U(40) <= upper
    use_sp = up_in != wp_in
    u_in = lower <= s << _U(2)
    w_in = (s << _U(2)) + _U(4) <= upper
    nearer_up = (vb & _U(3)) + (s & _U(1)) > _U(2)
    d = np.where(use_sp, sp + wp_in, s + np.where(u_in != w_in, w_in, nearer_up))
    return d, k + use_sp


# Each value is rendered into a record of _WIDTH bytes gathered from its own
# source row of _SOURCE bytes, and the NUL bytes of the records are dropped.
# A source row holds, as 32-bit words, the 20 zero-padded decimal digits of
# an unsigned integer and the four of a decimal exponent's magnitude; then
# the constant characters, the sign ("-" or NUL), the separator that
# follows the value, and NULs.
_DIGITS = 20
_EXP = 20
_TAIL_CHARS = b"-.0e+infa\0,\0\0\0\0\0"
_MINUS, _DOT, _ZERO, _E, _PLUS, _I, _N, _F, _A, _SIGN, _SEP, _NUL = range(24, 36)
_TAIL = np.frombuffer(_TAIL_CHARS, dtype=np.uint64)
_SOURCE = 24 + len(_TAIL_CHARS)
_WIDTH = 25  # sign, the longest body (1.2345678901234567e-308) and separator
_FLOAT_FIRST = _DIGITS - 17  # a float's significand is scaled to 17 digits

# Layout classes: the fixed forms with the decimal point after digit
# p = -3 .. 16 (0.000ddd to ddd00.0), then the exponent forms (sign of the
# exponent, two or three digits), zero, inf, nan and integers. A key is
# cls * _MAX_DIGITS + n - 1, for n significant digits of a float or n
# digits of an integer.
_FIXED_MIN, _FIXED_MAX = -3, 16
_EXP_CLASS = _FIXED_MAX - _FIXED_MIN + 1
_INF_CLASS, _NAN_CLASS, _INT_CLASS = _EXP_CLASS + 4, _EXP_CLASS + 5, _EXP_CLASS + 6
_ZERO_CLASS = 1 - _FIXED_MIN  # 0.0 is the digit 0 with its point after it
_MAX_DIGITS = 20
# the class of a finite float 0.ddd * 10**p, for p = -_P_OFFSET .. _P_OFFSET
_P_OFFSET = 330
_CLASS_OF_POINT = np.array([p - _FIXED_MIN if _FIXED_MIN <= p <= _FIXED_MAX
                            else _EXP_CLASS + 2 * (p < 1) + (abs(p - 1) >= 100)
                            for p in range(-_P_OFFSET, _P_OFFSET + 1)], dtype=np.intp)


def _body(cls, n):
    """Source positions of the text of a value of layout class cls with n
    digits, or None if no value has that key."""
    if cls == _INT_CLASS:
        return list(range(_DIGITS - n, _DIGITS))
    if cls == _INF_CLASS:
        return [_I, _N, _F]
    if cls == _NAN_CLASS:
        return [_N, _A, _N]
    if n > 17:
        return None
    digits = list(range(_FLOAT_FIRST, _FLOAT_FIRST + n))
    if cls >= _EXP_CLASS:
        negative, three = divmod(cls - _EXP_CLASS, 2)
        point = [_DOT, *digits[1:]] if n > 1 else []
        return [digits[0], *point, _E, _MINUS if negative else _PLUS,
                *range(_EXP + 2 - three, _EXP + 4)]
    p = cls + _FIXED_MIN
    if p <= 0:
        return [_ZERO, _DOT, *[_ZERO] * -p, *digits]
    if p < n:
        return [*digits[:p], _DOT, *digits[p:]]
    return [*digits, *[_ZERO] * (p - n), _DOT, _ZERO]


def _layout_table():
    """The source position of every record byte, for every key."""
    rows = bytearray()
    for cls, n in itertools.product(range(_INT_CLASS + 1), range(1, _MAX_DIGITS + 1)):
        body = _body(cls, n)
        row = [] if body is None else [_SIGN, *body, _SEP]
        rows += bytes(row + [_NUL] * (_WIDTH - len(row)))
    return np.frombuffer(rows, dtype=np.uint8).astype(np.intp).reshape(-1, _WIDTH)


_LAYOUT = _layout_table()
# the four ASCII digits of 0000 .. 9999, each as one 32-bit word, and the
# number of trailing zero digits of each (4 for 0000)
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                  axis=-1).reshape(-1, 4)
_TRAILING = np.cumprod(_QUADS[:, ::-1] == ord("0"), axis=1, dtype=np.int8).sum(
    axis=1, dtype=np.int8)
_QUADS = _QUADS.view(np.uint32).reshape(-1)


def _groups(u, src):
    """Write the 20 zero-padded decimal digits of each u into its source row;
    return the five four-digit groups, most significant first."""
    top = u // _U(10 ** 16)
    rest = u - top * _U(10 ** 16)
    high = rest // _U(10 ** 8)
    low = rest - high * _U(10 ** 8)
    groups = [top]
    for part in (high, low):
        upper = part // _U(10 ** 4)
        groups += [upper, part - upper * _U(10 ** 4)]
    words = src.view(np.uint32)
    for i, group in enumerate(groups):
        words[:, i] = _QUADS.take(group)
    return groups


def _float_keys(values, src):
    """Fill the source rows of 1-D float64 values; return their keys."""
    bits = values.view(np.uint64)
    mag = bits & _MAGNITUDE
    zero = mag == _U(0)
    regular = ~zero & (mag < _INF)
    d, e = _shortest(np.where(regular, mag, _ONE_BITS))
    length = np.searchsorted(_P10[:18], d, side="right")
    groups = _groups(np.where(zero, _U(0), d * _P10.take(17 - length)), src)
    # the significand fills groups 0 (its first digit) to 4; a group's zeros
    # trail only when every group after it is 0000
    trailing = _TRAILING.take(groups[4])
    for i in (3, 2, 1):
        trailing += (trailing == 4 * (4 - i)) * _TRAILING.take(groups[i])
    n = 17 - trailing
    point = e + length  # the value is 0.ddd * 10**point
    src.view(np.uint32)[:, 5] = _QUADS.take(np.abs(point - 1))
    special = np.where(mag > _INF, _NAN_CLASS, np.where(zero, _ZERO_CLASS, _INF_CLASS))
    cls = np.where(regular, _CLASS_OF_POINT.take(point + _P_OFFSET), special)
    src[:, _SIGN] = np.where((bits > _MAGNITUDE) & (mag <= _INF), ord("-"), 0)
    return cls * _MAX_DIGITS + n - 1


def _int_keys(values, src):
    """Fill the source rows of 1-D int64 values; return their keys."""
    negative = values < 0
    u = values.view(np.uint64)
    u = np.where(negative, _U(0) - u, u)
    _groups(u, src)
    src[:, _SIGN] = np.where(negative, ord("-"), 0)
    n = np.maximum(np.searchsorted(_P10, u, side="right"), 1)
    return _INT_CLASS * _MAX_DIGITS + n - 1


_KINDS = {"f": (np.float64, _float_keys), "i": (np.int64, _int_keys)}


def _records(keys, values, ends_row):
    """The (rows, columns, _WIDTH) records of a 2-D block of one kind, NUL-padded;
    keys fills the source rows of the kind and returns their layout keys."""
    rows, width = values.shape
    src = np.empty((values.size, _SOURCE), dtype=np.uint8)
    src.view(np.uint64)[:, 3:] = _TAIL
    if ends_row:
        src[width - 1::width, _SEP] = ord("\n")
    index = _LAYOUT.take(keys(values.reshape(-1), src), axis=0)
    index += np.arange(0, src.size, _SOURCE).reshape(-1, 1)
    return src.reshape(-1).take(index).reshape(rows, width, _WIDTH)


def csv_chunks(blocks):
    """Yield the CSV rows of the blocks as bytes, a few thousand values at a time.

    Each block is a 2-D array of float or integer columns, and all have the
    same number of rows. Row i is the values of row i of every block in
    order, each as its Python repr, joined by commas and ended by a newline.
    """
    runs = []
    for kind, group in itertools.groupby(blocks, key=lambda block: block.dtype.kind):
        if kind not in _KINDS:
            raise TypeError(f"cannot write a column of dtype {next(group).dtype}")
        dtype, keys = _KINDS[kind]
        runs.append((keys, [block.astype(dtype, copy=False) for block in group]))
    step = max(1, CHUNK_VALUES // sum(block.shape[1] for block in blocks))
    for start in range(0, len(blocks[0]), step):
        records = [_records(keys, np.concatenate([block[start:start + step] for block in group],
                                                 axis=1), i == len(runs) - 1)
                   for i, (keys, group) in enumerate(runs)]
        record = records[0] if len(records) == 1 else np.concatenate(records, axis=1)
        yield record[record != 0].tobytes()
