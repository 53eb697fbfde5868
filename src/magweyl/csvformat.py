"""Exact ``'%.18e' %`` formatting of float tables in NumPy, and the package's CSV writer.

``format_e18`` writes a block of finite floats as ``'%.18e'`` text, byte
for byte what Python's ``%`` (and so ``np.savetxt``) writes, without a
Python-level conversion per value: CPython needs big-integer arithmetic for
19 correctly rounded digits, about 1 us a value.  ``_write_csv``, the one
CSV writer of the package, feeds it one block of rows at a time.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# |v| strictly inside this range is scaled to 19 digits in double-double arithmetic
_FAST = (1e-280, 1e280)
# exponents of %.18e, subnormals included, lie in [-_EXP, _EXP]
_EXP = 330
# 2^27 + 1: multiplying by it splits a double into two halves of 26 bits
_DEKKER = 134217729.0


@cache
def _tables():
    """Lookup tables of ``format_e18``, built on its first call.

    ``(k0, hi, lo, head, tail)``: ``hi[i] + lo[i]`` is ``10^(k0 + i)`` to
    about ``2^-106`` of itself, for the scales ``10^(18 - e)`` of every
    ``e = floor(log10|v|)`` of the fast range and one either side.  ``hi``
    is the correctly rounded power (``float`` of an int, or int true
    division) and ``lo`` the correctly rounded exact remainder, from Python
    ints; ``head + tail`` is Dekker's split of ``hi``.  Then the words of
    the output (little-endian ``uint32``, zero bytes dropped):
    ``lead[100 s + q]`` is the optional sign, the first digit, the point
    and the second digit of a mantissa with leading digits ``q``;
    ``quad[q]`` the four digits of ``q < 10^4``; ``exp_a[e + _EXP]`` the
    ``e``, exponent sign and hundreds digit, and ``exp_b`` its last two
    digits, above them the separator byte.
    """
    k0 = 18 - 281
    hi, lo = [], []
    for k in range(k0, 18 + 282):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            m = 10 ** -k
            h = 1 / m
            a, b = h.as_integer_ratio()
            hi.append(h)
            lo.append((b - a * m) / (b * m))
    hi = np.array(hi)
    t = hi * _DEKKER
    head = t - (t - hi)
    q = np.arange(10000)
    quad = (48 + q // 1000) | (48 + q // 100 % 10) << 8 | (48 + q // 10 % 10) << 16 \
        | (48 + q % 10) << 24
    q = np.arange(100)
    lead = (48 + q // 10) << 8 | ord(".") << 16 | (48 + q % 10) << 24
    lead = np.concatenate([lead, lead | ord("-")])
    e = np.arange(-_EXP, _EXP + 1)
    ae = np.abs(e)
    exp_a = ord("e") << 8 | np.where(e < 0, ord("-"), ord("+")) << 16 \
        | np.where(ae >= 100, 48 + ae // 100, 0) << 24
    exp_b = (48 + ae // 10 % 10) | (48 + ae % 10) << 8
    tables = [hi, np.array(lo), head, hi - head]
    tables += [np.asarray(w, dtype="<u4") for w in (lead, quad, exp_a, exp_b)]
    for t in tables:
        t.flags.writeable = False
    return (k0, *tables)


def format_e18(values: np.ndarray, seps) -> bytes:
    """``'%.18e' % v`` of each finite ``v`` of a ``(rows, cols)`` block, then its column's separator.

    ``seps`` holds one byte per column (``,`` or a newline).  Each value is
    ``D * 10^(e - 18)`` rounded half to even, with ``10^18 <= D < 10^19``
    (``D = 0, e = 0`` for a zero), written as seven ``uint32`` words of
    which the zero bytes (no minus sign, a two-digit exponent, the padding)
    are dropped, in one ``bytes.translate``.

    The fast path takes the finite nonzero ``1e-280 < |v| < 1e280``.  With
    ``e = floor(log10|v|)`` it scales ``|v|`` by ``10^(18 - e) = hi + lo``
    (``_tables``): Dekker's ``TwoProduct`` gives ``|v| hi = p + r``
    exactly (the range keeps every product of the split finite and normal),
    and ``s = r + |v| lo`` carries the rest.  ``p`` is an integer (it is
    above ``2^53``).  With ``X < 10^19 < 2^64``, ``X = p + s`` differs from
    ``|v| 10^(18 - e)`` by at most the table's ``2^-106 X <= 2^-42``, the
    rounding of ``|v| lo`` (below ``2^11``, so ``2^-42``) and that of the sum
    (below ``2^12``, so ``2^-41``): ``2^-40 < 1e-12`` in all.  Rounding to
    the nearest integer can change only within that distance of a half, so
    ``floor(s)`` and the rounding of ``s - floor(s)`` are exact whenever
    that fraction is more than ``1e-6`` from ``1/2``.  The value takes the
    fast path when it also has ``10^18 <= p < 10^19`` on the float (so its
    ``uint64`` conversion is exact), ``floor(X) >= 10^18`` and
    ``D < 10^19`` (so ``e`` was the exponent, not one off from ``log10``).
    Every other value, ties included, is formatted by ``'%.18e' %`` and its
    digits and exponent are read back; zeros keep their sign bit.
    """
    k0, hi, lo, head, tail, lead, quad, exp_a, exp_b = _tables()
    v = values.ravel()
    a = np.abs(v)
    fast = (a > _FAST[0]) & (a < _FAST[1])
    a[~fast] = 1.0
    e = np.floor(np.log10(a))
    i = (18 - k0 - e).astype(np.intp)
    hh, ht = head[i], tail[i]
    ah = a * _DEKKER
    ah -= ah - a
    al = a - ah
    p = a * hi[i]
    s = ah * hh
    s -= p
    s += ah * ht
    s += al * hh
    s += al * ht
    s += a * lo[i]
    floor = np.floor(s)
    s -= floor
    fast &= (p >= 1e18) & (p < 1e19) & (np.abs(s - 0.5) > 1e-6)
    p[~fast] = 1e18
    whole = p.astype(np.uint64) + floor.astype(np.int64).view(np.uint64)
    digits = whole + (s > 0.5)
    fast &= (whole >= 10 ** 18) & (digits < 10 ** 19)
    digits[~fast] = 0
    e[~fast] = 0
    e = e.astype(np.intp)
    for j in np.flatnonzero(~fast & (v != 0)):
        text = "%.18e" % abs(v[j])
        digits[j] = int(text[0] + text[2:20])
        e[j] = int(text[21:])
    top = digits // 10 ** 17
    rest = (digits - top * 10 ** 17).view(np.int64)  # below 10^17, so each as int64
    tens = rest // 10
    last = rest - tens * 10
    upper = tens // 10 ** 8
    lower = tens - upper * 10 ** 8
    out = np.empty(values.shape + (7,), dtype="<u4")
    words = out.reshape(-1, 7)
    words[:, 0] = lead[top.view(np.int64) + 100 * np.signbit(v)]
    words[:, 1] = quad[upper // 10000]
    words[:, 2] = quad[upper % 10000]
    words[:, 3] = quad[lower // 10000]
    words[:, 4] = quad[lower % 10000]
    e += _EXP
    words[:, 5] = exp_a[e] | (48 + last.astype("<u4"))
    out[..., 6] = exp_b[e].reshape(values.shape) | np.asarray(seps, dtype="<u4") << 16
    return out.tobytes().translate(None, b"\0")


# rows per formatted block of _write_csv
_CSV_ROWS = 2048


def _write_csv(path, columns, header: str) -> None:
    """Write float ``columns`` (each raveled) side by side as a CSV table.

    The bytes are those of ``np.savetxt(path, table, delimiter=",", header=header)``:
    ``%.18e`` per value, ``,`` between columns and a ``# `` comment header.
    Each block of ``_CSV_ROWS`` rows is copied from the columns and
    formatted exactly in NumPy (``format_e18``, which falls back
    to ``%`` for the values it cannot prove); a block holding a non-finite
    value is one ``%``-format over its flat values.
    """
    columns = [np.asarray(c) for c in columns]
    rows, cols = columns[0].size, len(columns)
    seps = [ord(",")] * (cols - 1) + [ord("\n")]
    line = ",".join(["%.18e"] * cols) + "\n"
    with open(path, "wb") as fh:
        fh.write(("# " + header.replace("\n", "\n# ") + "\n").encode())
        for r0 in range(0, rows, _CSV_ROWS):
            block = np.empty((min(_CSV_ROWS, rows - r0), cols))
            for c, col in enumerate(columns):
                block[:, c] = col.flat[r0:r0 + _CSV_ROWS]
            if np.isfinite(block).all():
                fh.write(format_e18(block, seps))
            else:
                fh.write((line * len(block) % tuple(block.ravel().tolist())).encode())
