"""Shared gridded-field container, sample: the one sampler of a model
callable, format_floats: the one float-to-text kernel for CSVs and SVGs,
and aitken_limit: the one extrapolation toward a singular end.

Used by both 2D solvers; coordinates are stored per node so the container
handles mapped (non-rectangular) grids as well as tensor-product ones.

The number formats are a contract: a CSV value is repr(float), the shortest
string that reads back to the double, and an SVG coordinate is '%.6g' % v.
format_floats writes both with whole-array arithmetic.  It scales each |x|
into [1e16, 2e17) with a double-double product (Dekker, Numer. Math. 18,
1971) by a power of ten built from exact integers, takes the digits from
that integer part and fraction, and assembles the text from a table of
layouts.  A value whose digits it cannot certify goes to repr or '%.6g' on
its own, the fast path with an exact fallback of Loitsch's Grisu3 (PLDI
2010): an interval end or rounding midpoint within _MARGIN of a decimal
(the product is good to about 1e-14 there), a non-finite value, or |x|
outside [_TINY, _HUGE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = "x,y,psi"
PROFILE_CSV_HEADER = "x1,u,E,rho,p,Phi,phi_bar"
FORMAT_BLOCK_ROWS = 2048  # rows per block of format_floats and format_rows; bounds their memory


@dataclass(frozen=True)
class Field2D:
    """Node coordinates and values on a structured grid, plus solver metadata."""

    x: np.ndarray  # (n1, n2)
    y: np.ndarray  # (n1, n2)
    values: np.ndarray  # (n1, n2)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.x.shape == self.y.shape == self.values.shape):
            raise ValueError("x, y, values must share one shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @property
    def shape(self):
        return self.values.shape


def sample(fn, *coords) -> np.ndarray:
    """fn at every point of the coordinate arrays (broadcast together), one
    scalar call each, so that callables written with math.* work."""
    return np.frompyfunc(fn, len(coords), 1)(*coords).astype(float)


# ---------------------------------------------------------------------------
# float to text

_TINY, _HUGE = 1e-300, 1e300  # the kernel's range of |x|; zero is written too
_MARGIN = 1e-6  # in units of the scaled value's last integer digit
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for Dekker's product
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)
_EXP_MAX = 400  # above the largest |decimal exponent| of |x| in [_TINY, _HUGE)
_EXP3 = np.frombuffer("".join(f"{i:03d}\0" for i in range(_EXP_MAX)).encode(), dtype=np.uint32)


def _scale_table():
    """Per frexp exponent e of |x| in [_TINY, _HUGE): the decimal scale q with
    2**(e-1) 10**q in [1e16, 1e17), and the spacing U = 2**(e-53) 10**q of
    the binade's doubles scaled by it, as U_hi + U_lo with U_hi split in two
    26-bit halves.  Each 10**q is rounded from exact integers, twice."""
    e = np.arange(math.frexp(_TINY)[1], math.frexp(_HUGE)[1] + 1)
    q = 16 - np.floor((e - 1) * math.log10(2.0)).astype(np.int64)
    hi, lo, shift = [], [], []
    for qq in range(int(q.min()), int(q.max()) + 1):
        num, den = (10 ** qq, 1) if qq >= 0 else (1, 10 ** -qq)
        s = num.bit_length() - den.bit_length()  # num / den / 2**s in [1/2, 2)
        num, den = num << max(-s, 0), den << max(s, 0)
        if num < den:
            num, s = num << 1, s - 1
        h = num / den  # int / int: correctly rounded
        hi.append(h)
        lo.append((num * 2 ** 52 - int(h * 2 ** 52) * den) / (den * 2 ** 52))
        shift.append(s)
    k = q - int(q.min())
    u_shift = e - 53 + np.array(shift)[k]
    u_hi = np.ldexp(np.array(hi)[k], u_shift)
    split = _SPLIT * u_hi
    u_hi_h = split - (split - u_hi)
    return e[0], q, u_hi, np.ldexp(np.array(lo)[k], u_shift), u_hi_h, u_hi - u_hi_h


_E_LO, _Q, _U_HI, _U_LO, _U_HI_H, _U_HI_L = _scale_table()


def _trailing_zeros(t, steps):
    """Number of trailing decimal zeros of each positive t, up to sum(steps)."""
    tz = np.zeros(t.shape, dtype=np.int64)
    for j in steps:
        d = t // _POW10[j]
        z = d * _POW10[j] == t
        t = np.where(z, d, t)
        tz += j * z
    return tz


def _near_integer(t):
    return np.abs(t - np.rint(t)) < _MARGIN


def _shortest(N, f, i, m):
    """repr's digits: the shortest decimal inside x's rounding interval
    [v - U/2, v + U/2] (its lower half halved at a power of two), the
    nearest to v = N + f when the interval holds several.  Returns it as 17
    digits C with k significant, its decimal exponent, and where unsure."""
    u = _U_HI[i] + _U_LO[i]
    up = f + 0.5 * u
    down = f - np.where(m == 0.5, 0.25, 0.5) * u
    unsure = _near_integer(up) | _near_integer(down)
    B = N + np.floor(up).astype(np.int64)  # the integers in the interval are A..B
    A = N + np.ceil(down).astype(np.int64)
    W = B - A  # below 100 (U < 45), so for p >= 2 one multiple of 10**p at most fits
    t = B // 100
    r1, r2 = B - B // 10 * 10, B - t * 100
    # p, the most trailing zeros a decimal in A..B can have
    p = np.where(r2 <= W, 2 + _trailing_zeros(t, (8, 4, 2, 1)), r1 <= W)
    # for p = 0 and 1, the multiple of 10**p in A..B nearest v; mid is 2 (v - midpoint)
    n10 = N // 10
    lo1, hi1 = -(-A // 10) * 10, B - r1
    mid0 = 2.0 * f - 1.0
    mid1 = (2 * (N - 10 * n10) - 10) + 2.0 * f
    C = np.where(p >= 2, B - r2, np.where(p == 1, np.clip(10 * (n10 + (mid1 > 0)), lo1, hi1),
                                          np.clip(N + (mid0 > 0), A, B)))
    unsure |= np.where(p == 1, (np.abs(mid1) < 2 * _MARGIN) & (10 * n10 >= lo1) & (10 * n10 < hi1),
                       (p == 0) & (np.abs(mid0) < 2 * _MARGIN) & (N >= A) & (N < B))
    big = C >= _POW10[17]  # then p >= 1: v in [1e17, 2e17) spans more than 10
    return np.where(big, C // 10, C), 17 + big - p, 16 + big - _Q[i], unsure


def _six_digits(N, f, i, m):
    """'%.6g''s digits: v = N + f correctly rounded to six significant
    digits, ties to even (decided only where v is exact).  Returns them with
    the count k left after trailing zeros, the decimal exponent, and where
    unsure."""
    big = N >= _POW10[17]
    d = np.where(big, _POW10[12], _POW10[11])
    t = np.where(big, N // _POW10[12], N // _POW10[11])
    mid = (2 * (N - t * d) - d) + 2.0 * f  # 2 (v - (t + 1/2) d)
    exact = _U_LO[i] == 0.0  # 10**q is one double, so v = N + f holds exactly
    unsure = (np.abs(mid) < 2 * _MARGIN) & ~exact
    c = t + ((mid > 0) | ((mid == 0) & (t & 1 == 1)))
    carry = c == _POW10[6]
    c = np.where(carry, _POW10[5], c)
    return c, 6 - _trailing_zeros(c, (4, 2, 1)), 16 + big + carry - _Q[i], unsure


# one source row per value: 18 digit columns (the digits right-aligned),
# three exponent digits, the separator, then constant characters
_SRC_WIDTH, _EXP_COL, _SEP_COL, _CONST_COL = 32, 20, 23, 24
_CONSTS = np.frombuffer(b"-.0e+\x01\0\0", dtype=np.uint8)
_MINUS, _DOT, _ZERO, _E, _PLUS, _MARK, _NUL = range(_CONST_COL, _CONST_COL + 7)


def _layouts(ndigits: int, positional_max: int, point_zero: bool):
    """Source columns of each output character, NUL-padded, one row per key
    (sign, k significant digits, code); k = 0 marks a fallback.  Codes 0 ..
    positional_max + 3 are the positional exponents -4 .. positional_max - 1,
    the next four the exponent forms (negative, three exponent digits).
    Also the code of each exponent in -_EXP_MAX .. _EXP_MAX - 1."""
    npos = positional_max + 4
    rows = []
    for sign in (0, 1):
        for k in range(ndigits + 1):
            digits = list(range(18 - ndigits, 18 - ndigits + k))
            for code in range(npos + 4):
                cols = [_MINUS] if sign else []
                E = code - 4
                if k == 0:
                    cols = [_MARK]
                elif code >= npos:
                    neg, wide = divmod(code - npos, 2)
                    cols += digits[:1] + ([_DOT] + digits[1:] if k > 1 else [])
                    cols += [_E, _MINUS if neg else _PLUS] + list(range(_EXP_COL + 1 - wide, _EXP_COL + 3))
                elif E < 0:
                    cols += [_ZERO, _DOT] + [_ZERO] * (-E - 1) + digits
                elif E < k - 1:
                    cols += digits[:E + 1] + [_DOT] + digits[E + 1:]
                else:
                    cols += digits + [_ZERO] * (E - k + 1) + ([_DOT, _ZERO] if point_zero else [])
                rows.append(cols + [_SEP_COL])
    width = max(map(len, rows))
    E = np.arange(-_EXP_MAX, _EXP_MAX)
    codes = np.where((E >= -4) & (E < positional_max), E + 4, npos + 2 * (E < 0) + (abs(E) >= 100))
    return np.array([r + [_NUL] * (width - len(r)) for r in rows], dtype=np.intp), npos + 4, codes


@dataclass(frozen=True)
class FloatStyle:
    """One number format: its digit rule, the NUL-padded layouts of its
    text, and the Python formatter that writes what the rule cannot certify."""

    digits: object
    ndigits: int
    layouts: np.ndarray
    ncodes: int
    codes: np.ndarray
    fallback: object


# repr: 17 digits, positional for exponents -4..15, a ".0" on integers;
# '%.6g': 6 digits, positional for -4..5
REPR = FloatStyle(_shortest, 17, *_layouts(17, 16, True), repr)
G6 = FloatStyle(_six_digits, 6, *_layouts(6, 6, False), "%.6g".__mod__)


def _scaled(a):
    """Each a in [_TINY, _HUGE) scaled into [1e16, 2e17) as N + f, N an int64
    and f in [0, 1), with its scale-table index i and frexp mantissa m."""
    m, e = np.frexp(a)
    i = e - _E_LO
    M = m * 2.0 ** 53  # a = M 2**(e - 53), so v = M U
    U_hi = _U_HI[i]
    p = M * U_hi
    split = _SPLIT * M
    mh = split - (split - M)
    ml = M - mh
    uhh, uhl = _U_HI_H[i], _U_HI_L[i]
    lo = ((mh * uhh - p) + mh * uhl + ml * uhh) + ml * uhl + M * _U_LO[i]
    floor = np.floor(lo)
    return p.astype(np.int64) + floor.astype(np.int64), lo - floor, i, m  # p >= 2**53 is an integer


def _text(x, sep, style: FloatStyle) -> str:
    """The rows of a table, raveled to x, as style writes each value followed
    by its column's separator byte in sep."""
    n = len(x)
    a = np.abs(x)
    ok = (a >= _TINY) & (a < _HUGE)
    c, k, E, unsure = style.digits(*_scaled(np.where(ok, a, 1.0)))
    good = ok & ~unsure
    fallback = ~good & (a != 0.0)
    c, k, E = np.where(good, c, 0), np.where(good, k, ~fallback), np.where(good, E, 0)

    src = np.empty((n, _SRC_WIDTH), dtype=np.uint8)
    npairs = (style.ndigits + 1) // 2
    pairs = np.empty((npairs, n), dtype=np.uint16)
    for j in range(npairs - 1, -1, -1):
        nxt = c // 100
        pairs[j] = _PAIRS[c - 100 * nxt]
        c = nxt
    src[:, 18 - 2 * npairs:18].view(np.uint16)[:] = pairs.T
    src[:, _EXP_COL:_EXP_COL + 4].view(np.uint32)[:, 0] = _EXP3[np.abs(E)]
    src[:, _SEP_COL].reshape(-1, len(sep))[:] = sep
    src[:, _CONST_COL:] = _CONSTS

    key = (np.signbit(x) * (style.ndigits + 1) + k) * style.ncodes + style.codes[E + _EXP_MAX]
    idx = style.layouts.take(key, axis=0)
    idx += np.arange(0, n * _SRC_WIDTH, _SRC_WIDTH)[:, None]
    chars = src.ravel()[idx]
    del idx  # the largest temporary, 8 bytes per character
    text = chars[chars != 0].tobytes().decode("ascii")
    if not fallback.any():
        return text
    parts = text.split("\x01")
    spelled = map(style.fallback, x[fallback].tolist())
    return "".join(part + s for part, s in zip(parts, spelled)) + parts[-1]


def format_floats(table, seps: str, style: FloatStyle) -> str:
    """The rows of a 2-D float array as text: each value as style writes it,
    then the separator of its column (one character per column), one
    kernel pass per block of FORMAT_BLOCK_ROWS rows."""
    table = np.asarray(table, dtype=float)
    sep = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    blocks = (table[i:i + FORMAT_BLOCK_ROWS] for i in range(0, len(table), FORMAT_BLOCK_ROWS))
    return "".join(_text(block.ravel(), sep, style) for block in blocks)


def format_rows(template: str, table) -> str:
    """Each row of a 2-D array through one %-template: one % per block of
    rows, on Python values.  For rows of strings and integers; floats go
    through format_floats."""
    blocks = (table[i:i + FORMAT_BLOCK_ROWS] for i in range(0, len(table), FORMAT_BLOCK_ROWS))
    return "".join(template * len(block) % tuple(block.ravel().tolist()) for block in blocks)


def csv_text(header: str, columns) -> str:
    """One row per index of the equal-length columns, each value written as
    repr(float): full double precision, locale-independent."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if header.count(",") + 1 != len(cols) or len({len(c) for c in cols}) > 1:
        raise ValueError(f"CSV header {header!r} does not fit columns of lengths {[len(c) for c in cols]}")
    return header + "\n" + format_floats(np.column_stack(cols), "," * (len(cols) - 1) + "\n", REPR)


def field_csv_text(fld: Field2D) -> str:
    return csv_text(CSV_HEADER, (fld.x.ravel(), fld.y.ravel(), fld.values.ravel()))


def profile_csv_text(profile) -> str:
    """A profile1d.Profile1D's reconstructed fields, one row per node."""
    if not profile.fields_filled:
        raise ValueError("reconstruct_fields must run before CSV export")
    return csv_text(PROFILE_CSV_HEADER, (profile.x1, profile.u, profile.E, profile.rho,
                                         profile.p, profile.Phi, profile.phi_bar))


def aitken_limit(seq, max_ratio: float, fallback):
    """Aitken's delta-squared limit of each sequence along the last axis of seq.

    From a row's last three terms, with d1, d2 the last two differences and
    r = d2/d1, the limit is s[-1] + d2 r / (1 - r).  A row with fewer than
    three terms, d1 = 0 or |r| >= max_ratio (a trend too slow or too
    irregular to extrapolate) gets fallback instead.
    """
    s = np.asarray(seq, dtype=float)
    if s.shape[-1] < 3:
        return np.asarray(fallback, dtype=float)
    d1 = s[..., -2] - s[..., -3]
    d2 = s[..., -1] - s[..., -2]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = d2 / d1
        limit = s[..., -1] + d2 * r / (1.0 - r)
    return np.where((d1 != 0.0) & (np.abs(r) < max_ratio), limit, fallback)
