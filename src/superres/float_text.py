"""Float arrays to text at numpy speed for sweep emit: ``'%.16e' % v`` (CSV)
and ``repr(v)`` (JSON) into 24-byte slots, where an error bound proves a
cell's text (Python formats the others), and ``write_rows``, which lays each
column's slots out with its key and separator, one byte matrix per chunk,
and writes the bytes that are not ``DROP``.

A column given as values and a row index (a sweep field that is constant or
varies along one axis alone, such as ``sigma``, ``s``, ``d`` or the
nuisance request) is formatted once per value, not once per row; a column
blank on every row is given no slot."""

from __future__ import annotations

import functools
from typing import IO

import numpy as np

# the byte of a slot or row that no text writes: UTF-8 never holds it
DROP = 0xFF
# a cell's slot: the longest text of either format, "-1.2345678901234567e-308"
SLOT = 24
# A chunk holds 144 kB of cell slots (512 rows of 12 slots, more rows of
# fewer), and its temporaries 1-2 MB, which the allocator reuses from chunk to
# chunk: JSON's the most, as repr_cells gathers its text by an int64 index.
# 4096-row CSV chunks (a whole 50 x 50 preset) raised the peak memory of
# `superres figure` by 15 % and were slower for the fresh pages they touch.
CHUNK_BYTES = 512 * 12 * SLOT


def chunk_rows(slots: int) -> int:
    """The rows ``write_rows`` writes per chunk for rows of ``slots`` slots."""
    return max(1, CHUNK_BYTES // (max(1, slots) * SLOT))


def write_rows(fh: IO[str], columns: list, reach: np.ndarray, cells,
               prefixes: list[bytes], sep: bytes, head: bytes, status: list[bytes],
               drop_blank: bool = False, lead: int = 0) -> None:
    """Write rows a chunk at a time, as one ``(rows, width)`` byte matrix.
    A row holds ``head``; per column its prefix, a ``SLOT``-byte slot for
    ``cells``' text of a finite cell, and ``sep``; then ``status[1]``
    where the bool ``reach`` holds, else ``status[0]``.  A non-finite cell
    writes none of its slot, with ``drop_blank`` neither its prefix nor its
    separator, and the first row not the first ``lead`` bytes of its head.

    A column is a float array, or a pair ``(values, index)`` that stands for
    ``values[index]``: its values are formatted once, in the first chunk's
    call of ``cells``, and each chunk gathers their prefix, slot and
    separator by ``index``.  A column with no finite value has no slot:
    with ``drop_blank`` it writes nothing, else its prefix and separator
    open the next slotted column's prefix, or the status."""
    slotted, slot_prefixes, carry = [], [], b""
    for column, prefix in zip(columns, prefixes):
        if np.isfinite(column[0] if isinstance(column, tuple) else column).any():
            slotted.append(column)
            slot_prefixes.append(carry + prefix)
            carry = b""
        elif not drop_blank:
            carry += prefix + sep
    per_cell = [j for j, column in enumerate(slotted) if not isinstance(column, tuple)]
    on_axis = [j for j, column in enumerate(slotted) if isinstance(column, tuple)]
    # each slotted column is one segment of the row, edges[j]:edges[j + 1]:
    # its prefix, its slot from slots[j] on, and the separator
    segments = [np.frombuffer(prefix + b"\xff" * SLOT + sep, np.uint8)
                for prefix in slot_prefixes]
    edges = np.cumsum([len(head)] + [seg.size for seg in segments]).tolist()
    slots = [edges[j] + len(prefix) for j, prefix in enumerate(slot_prefixes)]
    row = np.concatenate([np.frombuffer(head, np.uint8)] + segments)
    encoded = [carry + text for text in status]
    width = max(map(len, encoded))
    texts = np.frombuffer(b"".join(raw.ljust(width, b"\xff") for raw in encoded),
                          np.uint8).reshape(-1, width)
    gathered = []                             # (j, each value's segment, index) per axis column

    def chunk_text(rows: slice) -> str:
        reach_here = reach[rows]
        # one column after another, so that each column's text is one run
        values = np.empty((len(per_cell), reach_here.size))
        for i, j in enumerate(per_cell):
            values[i] = slotted[j][rows]
        finite = np.isfinite(values)
        fresh = values[finite]
        if rows.start == 0:
            # the axis values go with the first chunk's cells: a kernel call
            # of their own costs more than they do on a small table
            axis_shown = [np.isfinite(slotted[j][0]) for j in on_axis]
            text, _ = cells(np.concatenate(
                [fresh] + [slotted[j][0][ok] for j, ok in zip(on_axis, axis_shown)]))
            at = fresh.size
            for j, ok in zip(on_axis, axis_shown):
                axis_values, index = slotted[j]
                seg = np.repeat(segments[j][None], axis_values.size, axis=0)
                lo = slots[j] - edges[j]
                seg[ok, lo:lo + SLOT] = text[at:at + np.count_nonzero(ok)]
                at += np.count_nonzero(ok)
                if drop_blank:
                    seg[~ok] = DROP
                gathered.append((j, _runs(seg), index))
        else:
            text, _ = cells(fresh)
        # bytes.translate drops a byte value faster than a masked copy drops
        # a run, and reads a bytearray in place
        buffer = bytearray(reach_here.size * (row.size + width))
        matrix = np.frombuffer(buffer, np.uint8).reshape(reach_here.size, -1)
        if row.size:                          # a CSV row of blank columns has none
            _runs(matrix[:, :row.size])[:] = _runs(row)
        at = 0
        for i, j in enumerate(per_cell):
            shown = finite[i]
            count = np.count_nonzero(shown)
            cell = _runs(matrix[:, slots[j]:slots[j] + SLOT])
            if count == shown.size:           # a plain copy is faster than a masked one
                cell[:] = _runs(text[at:at + count])
            else:
                cell[shown] = _runs(text[at:at + count])
                if drop_blank:
                    matrix[~shown, edges[j]:edges[j + 1]] = DROP
            at += count
        del text                              # before the text is copied out
        for j, seg, index in gathered:
            _runs(matrix[:, edges[j]:edges[j + 1]])[:] = seg.take(index[rows])
        _runs(matrix[:, row.size:])[:] = _runs(texts).take(reach_here)
        if rows.start == 0:
            matrix[0, :lead] = DROP
        return buffer.translate(None, b"\xff").decode()

    step = chunk_rows(len(slotted))
    for lo in range(0, reach.size, step):
        fh.write(chunk_text(slice(lo, lo + step)))


def _runs(a: np.ndarray) -> np.ndarray:
    """``a`` without its last, contiguous axis, each run along it one void
    item: numpy copies such an item whole, a strided byte axis byte by byte."""
    return a.view(np.dtype((np.void, a.shape[-1] * a.itemsize)))[..., 0]


# The fast path covers |x| in [1e-280, 1e280]: there 10**(16 - k) and its
# rounding error are normal floats, and no partial product of the Dekker
# split overflows or underflows.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TEN16, _TEN17 = 10**16, 10**17
_SPLIT = 134217729.0      # 2**27 + 1, Dekker's splitter
# y = |x| 10**(16 - k) lies in [1e15, 1e18) when k is within one of x's
# decade.  With p + q = |x| hi exact, |lo| <= 2**-53 hi, |q| <= ulp(p) / 2
# <= 2**6 and y < 2**60:
#   |x| lo is below 2**7, so its rounding and lo's own each err <= 2**-46;
#   r = q + |x| lo is below 2**8 and its rounding errs <= 2**-46;
#   frac = r - floor(r) is exact for r >= 0 and errs <= 2**-53 for r < 0.
# So the computed fraction of y is within 2**-44 of the true one, and a
# fraction more than 2**-40 away from 1/2 rounds the same way for both.
# p is an integer wherever y >= 2**52, which holds for every y in [1e16,
# 1e17); below, the digits come out under 1e16 and the cell runs again.
# The tests of _shortest_digits add whole parts below 100 to the fraction
# (2**-47 more) and compare with interval half-widths of at most 12,
# computed to a relative 2**-51: the same margin covers them.
_MARGIN = 2.0**-40
# repr_cells gathers a cell's text from the '%.16e' slot of its shortest
# digits (digit i at byte 1 if i = 0, else i + 2; the point at 2, "e" at 19,
# the exponent's sign at 20 and its digits at 22-23, or 21-23), followed by
# a "0" byte and a DROP byte, which a layout's unwritten bytes read.
_ZERO, _UNWRITTEN = SLOT, SLOT + 1
_MANTISSA = 2**52 - 1


def _scaled(values: np.ndarray):
    """``(mag, k, whole, frac, zero, fast)``: ``y = |x| 10**(16 - k)`` in
    ``[1e16, 1e17 + 1/2)`` as int64 ``whole`` and ``frac``.  Zeros and cells off
    the fast range carry ``mag = 1.0``; ``fast`` marks zeros and settled cells."""
    mag = np.abs(values)
    zero = mag == 0.0
    fast = (mag >= _FAST_MIN) & (mag <= _FAST_MAX)
    mag = np.where(fast, mag, 1.0)
    fast |= zero
    k = np.floor(np.log10(mag)).astype(np.int64)
    whole, frac = _scaled_round(mag, k)
    # log10 may put x in the neighbouring decade: where y rounds above 1e17
    # or lies below 1e16, the cell runs once more with k moved by one
    shift = (whole + (frac > 0.5) > _TEN17).astype(np.int64) - (whole < _TEN16)
    redo = np.flatnonzero(shift)
    if redo.size:
        k[redo] += shift[redo]
        whole[redo], frac[redo] = _scaled_round(mag[redo], k[redo])
        fast[redo] &= (whole[redo] >= _TEN16) & (whole[redo] + (frac[redo] > 0.5) <= _TEN17)
    return mag, k, whole, frac, zero, fast


def e16_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.16e' % v`` of each float in the 1-D ``values`` as ``(n, 24)`` slots
    ``[-]d.dddddddddddddddde{+,-}[d]dd``, and the mask of the cells whose 17
    digits the fast path proved (Grisu-style: Loitsch, PLDI 2010); ``%``
    formats ties, ``|x|`` outside ``[1e-280, 1e280]`` and non-finite values."""
    _, k, whole, frac, zero, sure = _scaled(values)
    sure &= _clear(frac, 0.5)
    digits = whole + (frac > 0.5)
    top = digits == _TEN17                    # 1.0000000000000000e+(k + 1)
    digits[top] = _TEN16
    k += top
    text = np.empty((values.size, SLOT), np.uint8)
    _write_e16(text, values, digits, k, zero)
    _format_rest(values, ~sure, "%.16e".__mod__, text)
    return text, sure


def _write_e16(text: np.ndarray, values: np.ndarray, digits, k, zero) -> None:
    """``'%.16e'`` of the 17 ``digits`` times ``10**(k - 16)``, signed as
    ``values`` (the ``zero`` cells' digits read 1e16), into the first ``SLOT``
    bytes of each row of ``text``, the bytes no text writes ``DROP``."""
    text[:, 0] = np.where(np.signbit(values), ord("-"), DROP)
    text[:, 1] = digits // _TEN16 + (ord("0") - zero)
    text[:, 2], text[:, 19] = ord("."), ord("e")
    _runs(text[:, 3:19])[:] = _runs(_digit_quads().take(_quad_groups(digits)))
    _runs(text[:, 20:SLOT])[:] = _runs(_digit_quads().take(np.abs(k))[:, None])  # "0ddd"
    text[:, 20] = np.where(k < 0, ord("-"), ord("+"))
    text[:, 21] |= (np.abs(k) < 100) * np.uint8(DROP)


def repr_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``repr(v)`` of every float in the 1-D ``values``, as ``e16_cells``
    gives ``'%.16e' % v``, but left-aligned in its slot: ``(n, 24)`` slots and
    the mask of the certified cells, with the digits of ``_shortest_digits``
    in repr's layout: fixed notation for ``1e-4 <= |x| < 1e16``, else
    ``1e-05`` and ``1.5e+16``."""
    digits, k, n, zero, sure = _shortest_digits(values)
    source = np.empty((values.size, _UNWRITTEN + 1), np.uint8)
    _write_e16(source, values, digits, k, zero)
    source[:, _ZERO], source[:, _UNWRITTEN] = ord("0"), DROP
    layout = np.where((k >= -4) & (k < 16), k, 16 + (np.abs(k) >= 100))
    row = (np.signbit(values) * 22 + layout + 4) * 17 + n - 1
    index = _repr_layouts().take(row, axis=0)
    index += np.arange(0, source.size, source.shape[1])[:, None]
    text = source.ravel().take(index)
    _format_rest(values, ~sure, repr, text)
    return text, sure


def _shortest_digits(values: np.ndarray):
    """The shortest digits that read back as each ``x`` (Ryu: Adams, PLDI
    2018; Grisu3: Loitsch, PLDI 2010), ``(digits, k, n, zero, sure)``: the
    first ``n`` of the 17 ``digits``, times ``10**(k - 16)``.  A decimal within
    ``u``, half the float spacing at ``x``, of ``y`` (``_scaled``) reads back
    as ``x``, and no such interval holds two 15-digit decimals: so ``y``
    rounded to 15 digits less its trailing zeros is the answer if inside, else
    ``y`` rounded to 16 if inside, else 17 digits.  ``sure`` marks the cells
    whose tests clear ``_MARGIN``; below a power of two, ``u / 2`` at 15."""
    mag, k, whole, frac, zero, sure = _scaled(values)
    bits = mag.view(np.int64)
    # half the spacing of the floats at x (2**-53 |x| rounded down to a
    # power of two), in units of y
    u = np.ldexp(whole / mag, (bits >> 52) - 1076)
    pow2 = (bits & _MANTISSA) == 0
    hundreds, tens = whole // 100, whole // 10
    rem15 = (whole - hundreds * 100) + frac
    rem16 = (whole - tens * 10) + frac
    # the nearest 15- and 16-digit decimals; at a power of two the 15-digit
    # one is tested against u / 2 on both sides and the rest go to repr
    dist15 = np.minimum(rem15, 100 - rem15)
    bound15 = u / (1 + pow2)
    in15 = dist15 < bound15
    dist16 = np.minimum(rem16, 10 - rem16)
    in16 = dist16 < u                         # implied by in15
    # a near tie of the rounding matters only where that rounding is taken
    sure &= _clear(dist15, bound15) & (in15 | ~pow2 & _clear(dist16, u) & np.where(
        in16, _clear(dist16, 5), _clear(frac, 0.5)))
    digits = np.where(in15, (hundreds + (rem15 > 50)) * 100, np.where(
        in16, (tens + (rem16 > 5)) * 10, whole + (frac > 0.5)))
    top = digits == _TEN17
    digits[top] = _TEN16
    k += top
    # 16 and 17 digits end in a nonzero one (else the shorter decimal would
    # lie inside too); 15 lose their trailing zeros
    n = 17 - in15 - in16
    short = np.flatnonzero(in15)
    rest, zeros = digits[short] // 100, 0
    for p in (8, 4, 2, 1):
        cut = rest // 10**p * 10**p == rest
        rest = np.where(cut, rest // 10**p, rest)
        zeros = zeros + cut * p
    n[short] -= zeros
    return digits, k, n, zero, sure


def _clear(a: np.ndarray, b) -> np.ndarray:
    return np.abs(a - b) > _MARGIN


@functools.cache
def _repr_layouts() -> np.ndarray:
    """The source offsets (``_ZERO``) of each layout's text in order, then
    ``_UNWRITTEN``: row ``(sign * 22 + e + 4) * 17 + n - 1`` for ``n`` digits,
    without or with the sign, in fixed notation with decimal exponent ``e`` in
    ``[-4, 15]``, or scientific with a two- (``e = 16``) or three-digit (``e =
    17``) exponent.  Built from the three notations' closed forms, in a few
    array operations: every ``superres`` command imports afresh."""
    e = np.arange(-4, 18)[:, None, None]
    n = np.arange(1, 18)[:, None]
    j = np.arange(SLOT)                               # the text's bytes
    small, fixed, sci = e[:4], e[4:20], e[20:]
    # "0.", then -1 - e zeros, then the digits (digit i at i + 2, the first at 1)
    below = np.where(j == 1, 2, np.where(j < 1 - small, _ZERO, j + 1 + small - (j == 1 - small)))
    # the digits with a point after the (e + 1)th
    point = np.where(j == fixed + 1, 2, j + 2 - (j > fixed) - (j == 0))
    # a digit, the point and the others if n > 1, then "e+dd" or "e+ddd"
    m = np.where(n > 1, n + 1, 1)
    tail = np.array([[19, 20, 22, 23, _UNWRITTEN], [19, 20, 21, 22, 23]])
    exp = np.where(j < m, j + 1, tail[:, np.clip(j - m, 0, 4)])
    offsets = np.concatenate([np.broadcast_to(below, (4, 17, SLOT)),
                              np.broadcast_to(point, (16, 17, SLOT)), exp])
    # fixed notation writes at least one digit past the point: "123.0"
    length = np.concatenate([np.broadcast_to(n + 1 - small, (4, 17, 1)),
                             np.maximum(n + 1, fixed + 3), m + 4 + (sci == 17)])
    offsets = np.where(j < length, offsets, _UNWRITTEN).reshape(-1, SLOT)
    # with the sign: "-", then the same bytes one place on
    signed = np.concatenate([np.zeros_like(offsets[:, :1]), offsets[:, :-1]], axis=1)
    return np.concatenate([offsets, signed])


def _format_rest(values: np.ndarray, todo: np.ndarray, fmt, text: np.ndarray) -> None:
    """``fmt(v)`` into the slots of the cells in ``todo``, left-aligned,
    one ``fmt`` call per distinct bit pattern among them."""
    at = np.flatnonzero(todo)
    if not at.size:
        return
    bits, inverse = np.unique(values[at].view(np.int64), return_inverse=True)
    raw = b"".join(fmt(v).encode().ljust(text.shape[1], b"\xff")
                   for v in bits.view(np.float64).tolist())
    text[at] = np.frombuffer(raw, np.uint8).reshape(bits.size, -1)[inverse]


def _scaled_round(mag: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mag * 10**(16 - k)`` as its int64 whole part and its fraction (see
    ``_MARGIN`` for the error)."""
    hi, hi_hi, hi_lo, lo = _powers_of_ten(16 - k)
    # p + q = mag hi exactly: Dekker's product (numpy has no fused multiply-add)
    p = mag * hi
    c = _SPLIT * mag
    mag_hi = c - (c - mag)
    mag_lo = mag - mag_hi
    q = ((mag_hi * hi_hi - p) + mag_hi * hi_lo + mag_lo * hi_hi) + mag_lo * hi_lo
    r = q + mag * lo
    r_whole = np.floor(r)
    return p.astype(np.int64) + r_whole.astype(np.int64), r - r_whole


def _quad_groups(x: np.ndarray) -> np.ndarray:
    """The last 16 decimal digits of each integer as four groups of four."""
    upper = x // 10**8
    halves = np.stack([upper - upper // 10**8 * 10**8, x - upper * 10**8], axis=1)
    fours = halves // 10**4
    return np.stack([fours, halves - fours * 10**4], axis=2).reshape(-1, 4)


def _powers_of_ten(e: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_power_of_ten`` of each element, as four arrays."""
    if not e.size:
        return (np.empty(0),) * 4
    lo = int(e.min())
    table = np.array([_power_of_ten(p) for p in range(lo, int(e.max()) + 1)])
    return tuple(table.take(e - lo, axis=0).T)


@functools.cache
def _power_of_ten(power: int) -> tuple[float, float, float, float]:
    """``10**power`` as a double-double ``hi + lo`` with ``hi``'s Dekker halves,
    from Python ints, whose true division rounds correctly."""
    num, den = (10**power, 1) if power >= 0 else (1, 10**-power)
    hi = num / den
    m, q = hi.as_integer_ratio()
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, (num * q - m * den) / (den * q)


@functools.cache
def _digit_quads() -> np.ndarray:
    """The ASCII text of 0000..9999, one uint32 (four bytes) per number."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        text[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    quads = text.view(np.uint32).ravel()
    quads.flags.writeable = False             # one table shared by every call
    return quads
