"""Gaussian-integer arithmetic, on one layout: a Gaussian integer is a pair
(re, im) of ints, a ZiPoly a list of them, highest power first with a
nonzero lead ([] is zero), a matrix a list of such rows.

Besides exact division, GCDs and Kronecker packing (_pack, _unpack: signed
entries below 2**(slot - 1) in size as one integer in base 2**slot), it
holds the one pseudo-remainder (zi_prem) of the GCD chain and the reduced
resultant, and the one fraction-free elimination (bareiss, Bareiss 1968),
which tracks the row-swap sign and returns the pivot columns: it gives the
determinant of the resultant's Sylvester matrix, whose entries are packed
at t = 2**S with S above an a-priori bound on every value tested for zero
or unpacked (elimination._res_rows), and discovery's certified nullspace.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import InexactDivision
from .scalars import ExactScalar

ZiPoly = list[tuple[int, int]]
_ZERO = Fraction(0)


def gaussian_integers(values) -> tuple[int, list[int], list[int]]:
    """(D, re, im) with values[k] = (re[k] + i im[k]) / D for ExactScalar
    values, D > 0 the lcm of their denominators."""
    D = math.lcm(*{x.denominator for c in values for x in (c.re, c.im)})
    return (D, [c.re.numerator * (D // c.re.denominator) for c in values],
            [c.im.numerator * (D // c.im.denominator) for c in values])


def gaussian_scalar(x: int, y: int, D: int) -> ExactScalar:
    """The ExactScalar (x + i y) / D, D nonzero."""
    return ExactScalar.of_fractions(Fraction(x, D) if x else _ZERO,
                                    Fraction(y, D) if y else _ZERO)


def gauss_divexact(xr: int, xi: int, q: tuple[int, int]) -> tuple[int, int]:
    """(xr + i xi) / q in Z[i]; InexactDivision unless the division is exact."""
    qr, qi = q
    if qi:
        n = qr * qr + qi * qi
        xr, xi = xr * qr + xi * qi, xi * qr - xr * qi
    else:
        n = qr
    a, ra = divmod(xr, n)
    b, rb = divmod(xi, n)
    if ra or rb:
        raise InexactDivision(f"{q} does not divide ({xr}, {xi}) in Z[i]")
    return a, b


def gauss_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A GCD of two Gaussian integers (Euclid with the nearest quotient, so
    each remainder has at most half the norm of the divisor)."""
    (ar, ai), (br, bi) = a, b
    while br or bi:
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def gauss_pow(a: tuple[int, int], e: int) -> tuple[int, int]:
    """a**e for e >= 0, by squaring."""
    (ar, ai), (pr, pi) = a, (1, 0)
    while e:
        if e & 1:
            pr, pi = pr * ar - pi * ai, pr * ai + pi * ar
        ar, ai, e = ar * ar - ai * ai, 2 * ar * ai, e >> 1
    return pr, pi


# -- Kronecker packing -----------------------------------------------------------

def _pack(vals: list[int], slot: int) -> int:
    """Kronecker substitution: sum vals[k] * 2**(k*slot), signed entries.
    A long list is packed by halves, which keeps the cost near linear."""
    if len(vals) > 32:
        h = len(vals) // 2
        return _pack(vals[:h], slot) + (_pack(vals[h:], slot) << h * slot)
    x = 0
    for v in reversed(vals):
        x = (x << slot) + v
    return x


def _unpack(x: int, n: int, slot: int) -> list[int]:
    """Inverse of _pack for n entries that each fit in slot - 1 bits."""
    full = 1 << slot
    mask, half = full - 1, full >> 1
    out = []
    for _ in range(n):
        v = x & mask
        if v >= half:
            v -= full
        out.append(v)
        x = (x - v) >> slot
    return out


def _max_bits(rows) -> int:
    """The bit length of the largest absolute entry of rows, an iterable of
    iterables of ints."""
    return max(map(abs, chain.from_iterable(rows)), default=0).bit_length()


# -- univariate polynomials --------------------------------------------------------

def zi_derivative(c: ZiPoly) -> ZiPoly:
    return [(xr * e, xi * e) for (xr, xi), e in zip(c, range(len(c) - 1, 0, -1))]


def zi_primitive(c: ZiPoly) -> ZiPoly:
    """c divided by the Gaussian-integer GCD of its coefficients."""
    g = (functools.reduce(gauss_gcd, c, (0, 0)) if any(xi for _, xi in c)
         else (math.gcd(*(xr for xr, _ in c)), 0))
    return c if g[0] ** 2 + g[1] ** 2 == 1 else [gauss_divexact(*x, g) for x in c]


def zi_prem(a: ZiPoly, b: ZiPoly) -> ZiPoly:
    """The pseudo-remainder lc(b)^(da-db+1) a mod b of a by a nonzero b,
    exactly that power of lc(b) whatever the number of reduction steps; a
    itself when da < db (MultiPoly.pseudo_rem on one variable)."""
    (lr, li), tail, owed = b[0], len(b), len(a) - len(b) + 1
    r = a
    while len(r) >= tail:          # r <- lc(b) r - lc(r) x^k b, lead dropped
        cr, ci = r[0]
        r = [(lr * xr - li * xi - cr * yr + ci * yi, lr * xi + li * xr - cr * yi - ci * yr)
             for (xr, xi), (yr, yi) in zip(r[1:tail], b[1:])] + \
            [(lr * xr - li * xi, lr * xi + li * xr) for xr, xi in r[tail:]]
        r = r[next((k for k, x in enumerate(r) if x != (0, 0)), len(r)):]
        owed -= 1
    if owed > 0 and r:
        pr, pi = gauss_pow(b[0], owed)
        r = [(xr * pr - xi * pi, xr * pi + xi * pr) for xr, xi in r]
    return r


def zi_gcd(a: ZiPoly, b: ZiPoly) -> ZiPoly:
    """Primitive GCD of two nonzero ZiPolys (unique up to a unit of Z[i]):
    the primitive pseudo-remainder chain."""
    if len(a) < len(b):
        a, b = b, a
    b = zi_primitive(b)
    while len(b) > 1:
        r = zi_prem(a, b)
        if not r:
            return b
        a, b = b, zi_primitive(r)
    return [(1, 0)]


def zp_gcd(a: list[int], b: list[int]) -> list[int]:
    """A GCD modulo _P of two polynomials given as residue lists, highest
    power first, a with a nonzero lead: its length minus one is its degree."""
    while any(b):
        b = b[next(k for k, x in enumerate(b) if x):]
        inv = pow(b[0], -1, _P)
        while len(a) >= len(b):        # a <- a - (a_0 / b_0) x^k b, lead dropped
            q = a[0] * inv % _P
            a = [(x - q * y) % _P for x, y in zip(a[1:len(b)], b[1:])] + a[len(b):]
        a, b = b, a
    return a


def zi_divexact(a: ZiPoly, b: ZiPoly) -> ZiPoly:
    """The quotient a / b in Z[i][x]; InexactDivision unless it is exact
    (by Gauss's lemma it is whenever b is primitive and divides a over Q(i))."""
    q, r = [], list(a)
    while len(r) >= len(b):
        c = gauss_divexact(*r[0], b[0])
        q.append(c)
        r = [(xr - c[0] * yr + c[1] * yi, xi - c[0] * yi - c[1] * yr)
             for (xr, xi), (yr, yi) in zip(r[1:len(b)], b[1:])] + r[len(b):]
    if any(x != (0, 0) for x in r):
        raise InexactDivision("polynomial division left a remainder in Z[i]")
    return q


def zi_horner(c: ZiPoly, w: tuple[int, int], m: int = 1) -> tuple[int, int]:
    """m^d c(w / m) for c of degree d, a Gaussian integer w and an integer
    m > 0, by Horner's rule (c(w) when m = 1)."""
    (wr, wi), ar, ai, mk = w, 0, 0, 1
    for xr, xi in c:
        ar, ai, mk = ar * wr - ai * wi + xr * mk, ar * wi + ai * wr + xi * mk, mk * m
    return ar, ai


def zi_shift(c: ZiPoly, w: tuple[int, int], m: int = 1) -> ZiPoly:
    """m^d c(w / m + y) as a ZiPoly in y, for c of length d + 1, a Gaussian
    integer w and an integer m > 0: the Taylor shift by w of Q(y) =
    m^d c(y / m), by repeated synthetic division, then y^l scaled by m^l."""
    (wr, wi), d = w, len(c) - 1
    q = [(xr * m ** k, xi * m ** k) for k, (xr, xi) in enumerate(c)]
    for k in range(d):
        for j in range(1, d - k + 1):
            (xr, xi), (yr, yi) = q[j], q[j - 1]
            q[j] = (xr + wr * yr - wi * yi, xi + wr * yi + wi * yr)
    return [(xr * m ** l, xi * m ** l) for l, (xr, xi) in zip(range(d, -1, -1), q)]


# -- fraction-free elimination ------------------------------------------------------

def bareiss(rows: list[ZiPoly], ncols: int) -> tuple[list[ZiPoly], list[int], int]:
    """(echelon rows, pivot columns, sign) of a Gaussian-integer matrix, by
    fraction-free elimination on a copy: the first row nonzero in the next
    column moves up (flipping the sign), each row x below becomes
    (p x - l y) / prev for pivot p, x's entry l and the pivot row y, exact
    by Sylvester's identity, and zero rows are dropped.  Every entry is a
    minor and the pivot columns are the column rank profile.  A real matrix
    is updated on the integers."""
    rows = [list(r) for r in rows]
    real = not any(y for r in rows for _, y in r)
    pivots: list[int] = []
    sign, prev = 1, (1, 0)
    for c in range(ncols):
        k = len(pivots)
        if k == len(rows):
            break
        p = next((i for i in range(k, len(rows)) if rows[i][c] != (0, 0)), None)
        if p is None:
            continue
        if p != k:
            rows[k], rows[p], sign = rows[p], rows[k], -sign
        pr, pi = rows[k][c]
        top, live = rows[k][c + 1:], []
        for x in rows[k + 1:]:
            lr, li = x[c]
            x[c] = (0, 0)
            if real:
                tail = [gauss_divexact(pr * ar - lr * br, 0, prev)
                        for (ar, _), (br, _) in zip(x[c + 1:], top)]
            else:
                tail = [gauss_divexact(pr * ar - pi * ai - lr * br + li * bi,
                                       pr * ai + pi * ar - lr * bi - li * br, prev)
                        for (ar, ai), (br, bi) in zip(x[c + 1:], top)]
            x[c + 1:] = tail
            if any(map(any, tail)):
                live.append(x)
        rows[k + 1:] = live
        pivots.append(c)
        prev = (pr, pi)
    return rows, pivots, sign


def determinant(m: list[ZiPoly]) -> tuple[int, int]:
    """det m: sign times the last pivot, zero below full rank."""
    rows, pivots, sign = bareiss(m, len(m))
    if len(pivots) < len(m):
        return 0, 0
    xr, xi = rows[-1][-1]
    return sign * xr, sign * xi


def _kernel(rows: list[ZiPoly], pivots: list[int], ncols: int) -> list[list[ExactScalar]]:
    """The reduced kernel basis of bareiss's echelon rows: for each free
    column f, 1 at f, 0 at the other free columns, and y / Delta at the
    pivots left of f, y solved in integers (Cramer: Delta, the last of those
    pivots, times the solution is integral)."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        s = sum(1 for pc in pivots if pc < fc)
        dr, di = rows[s - 1][pivots[s - 1]] if s else (1, 0)
        y: ZiPoly = [(0, 0)] * s
        for t in range(s - 1, -1, -1):
            row = rows[t]
            er, ei = row[fc]
            xr, xi = -dr * er + di * ei, -dr * ei - di * er
            for u in range(t + 1, s):
                (ar, ai), (yr, yi) = row[pivots[u]], y[u]
                xr -= ar * yr - ai * yi
                xi -= ar * yi + ai * yr
            y[t] = gauss_divexact(xr, xi, row[pivots[t]])
        vec = [ExactScalar.zero()] * ncols
        vec[fc] = ExactScalar.one()
        norm = dr * dr + di * di
        for pc, (yr, yi) in zip(pivots, y):
            vec[pc] = gaussian_scalar(yr * dr + yi * di, yi * dr - yr * di, norm)
        basis.append(vec)
    return basis


# -- the certified nullspace --------------------------------------------------------

_P, _I = 2147483629, 629208553         # _P = 1 (mod 4) and _I**2 = -1 (mod _P)


def nullspace(rows: list[ZiPoly], ncols: int) -> list[list[ExactScalar]]:
    """The reduced kernel basis (_kernel) of a Gaussian-integer matrix.

    Bareiss runs on the pivot rows of an elimination modulo _P < 2**31 on
    int64 residues, i -> _I mapping Z[i] onto the field F_p.  Those rows are
    independent over Q(i), so their kernel holds the true one, and is it
    once each of its vectors passes the exact check M v = 0 on all rows;
    should one fail (_P divides a minor the choice relied on), Bareiss runs
    on all rows."""
    A = np.array([[(x + _I * y) % _P for x, y in r] for r in rows],
                 dtype=np.int64).reshape(len(rows), ncols)
    keep, k = list(range(len(rows))), 0
    for c in range(ncols):
        nz = np.flatnonzero(A[k:, c])
        if nz.size:
            p = k + int(nz[0])
            A[[k, p]], keep[k], keep[p] = A[[p, k]], keep[p], keep[k]
            A[k + 1:] = (A[k + 1:] * A[k, c] - np.outer(A[k + 1:, c], A[k])) % _P
            k += 1
    if k == ncols:                      # full column rank: the kernel is zero
        return []
    basis = _kernel(*bareiss([rows[i] for i in keep[:k]], ncols)[:2], ncols)
    if _annihilates(rows, basis, ncols):
        return basis
    return _kernel(*bareiss(rows, ncols)[:2], ncols)


def _annihilates(rows: list[ZiPoly], basis: list[list[ExactScalar]], ncols: int) -> bool:
    """M v = 0 exactly for every v in basis, with w = v scaled to Z[i] and
    each column of M packed into one integer per part (Kronecker): an entry
    of M w sums ncols terms, each below 2**(bits_M + bits_w + 1)."""
    ws = [gaussian_integers(v)[1:] for v in basis]
    cols = list(zip(*rows))
    re, im = [[x for x, _ in c] for c in cols], [[y for _, y in c] for c in cols]
    slot = _max_bits(re + im) + _max_bits(chain(*ws)) + ncols.bit_length() + 2
    cr, ci = ([_pack(c, slot) for c in m] for m in (re, im))
    return not any(sum(a * x - b * y for a, b, x, y in zip(cr, ci, wr, wi))
                   or sum(a * y + b * x for a, b, x, y in zip(cr, ci, wr, wi))
                   for wr, wi in ws)
