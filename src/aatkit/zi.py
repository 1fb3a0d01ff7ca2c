"""Gaussian-integer arithmetic, on one layout: a Gaussian integer is a pair
(re, im) of ints, a ZiPoly a list of them, highest power first with a
nonzero lead ([] is zero), a matrix a list of such rows.

Besides exact division, GCDs and Kronecker packing (_pack, _unpack: signed
entries below 2**(slot - 1) in size as one integer in base 2**slot), it
holds the one pseudo-remainder (zi_prem) of the GCD chain and the reduced
resultant, and the one fraction-free elimination (bareiss, Bareiss 1968),
which tracks the row-swap sign: it gives the determinant of the resultant's
Sylvester matrix, whose entries are packed at t = 2**S with S above an
a-priori bound on every value tested for zero or unpacked
(elimination._res_rows).  The residue side is the list of residue primes
(prime), one reduced echelon form modulo a prime (rref_mod), rational
reconstruction (rational_lift) and on them the one exact kernel engine
(modular_kernel: images modulo primes, Chinese remaindering, lifting and
the caller's proof) of discovery and algebraic_relation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain, count

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
    A long list is packed by halves, which keeps the cost near linear; an
    all-zero list is 0 at once."""
    if not any(vals):
        return 0
    if len(vals) > 32:
        h = len(vals) // 2
        return _pack(vals[:h], slot) + (_pack(vals[h:], slot) << h * slot)
    x = 0
    for v in reversed(vals):
        x = (x << slot) + v
    return x


def _unpack(x: int, n: int, slot: int) -> list[int]:
    """Inverse of _pack for n entries that each fit in slot - 1 bits."""
    if not x:
        return [0] * n
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
    """The bit length of the largest absolute entry of rows, a list of lists
    of ints; 0 at once when every entry is zero."""
    if not any(map(any, rows)):
        return 0
    return max(map(abs, chain.from_iterable(rows))).bit_length()


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
    """A GCD modulo the first residue prime of two polynomials given as
    residue lists, highest power first, a with a nonzero lead: its length
    minus one is its degree."""
    p = prime(0)[0]
    while any(b):
        b = b[next(k for k, x in enumerate(b) if x):]
        inv = pow(b[0], -1, p)
        while len(a) >= len(b):        # a <- a - (a_0 / b_0) x^k b, lead dropped
            q = a[0] * inv % p
            a = [(x - q * y) % p for x, y in zip(a[1:len(b)], b[1:])] + a[len(b):]
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
            if real:                # gauss_divexact by a real prev, inline
                tail = []
                for (ar, _), (br, _) in zip(x[c + 1:], top):
                    q, r = divmod(pr * ar - lr * br, prev[0])
                    if r:
                        raise InexactDivision(f"{prev} does not divide "
                                              f"({pr * ar - lr * br}, 0) in Z[i]")
                    tail.append((q, 0))
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


# -- residues -----------------------------------------------------------------------

_PRIMES: list[tuple[int, int]] = []


def prime(k: int) -> tuple[int, int]:
    """The k-th residue prime (p, iota): the primes p = 1 (mod 4) below 2**25
    (so n products of residues sum below 2**63 for n < 2**13), descending
    from 33554393, and iota**2 = -1 (mod p), by which i -> iota maps Z[i]
    onto F_p.  The list grows on demand by trial division; it depends on
    nothing but k."""
    while len(_PRIMES) <= k:
        p = _PRIMES[-1][0] - 4 if _PRIMES else 33554393
        while any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            p -= 4
        c = next(c for c in range(2, p) if pow(c, p // 2, p) == p - 1)   # a non-square
        _PRIMES.append((p, pow(c, p // 4, p)))
    return _PRIMES[k]


def rref_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """(R, pivots) for an int64 matrix A of residues modulo a prime p <
    2**31: R the nonzero rows of the reduced row echelon form of A, pivots
    their pivot columns.  Each step keeps every product below p**2 < 2**62."""
    A = A % p
    pivots: list[int] = []
    for c in range(A.shape[1]):
        k = len(pivots)
        nz = np.flatnonzero(A[k:, c])
        if not nz.size:
            continue
        r = k + int(nz[0])
        A[[k, r]] = A[[r, k]]
        A[k] = A[k] * pow(int(A[k, c]), -1, p) % p
        live = np.flatnonzero(A[:, c])
        live = live[live != k]
        A[live] = (A[live] - np.outer(A[live, c], A[k])) % p
        pivots.append(c)
    return A[:len(pivots)], pivots


def rational_lift(r: int, p: int, bound: int) -> Fraction | None:
    """The fraction a / b with a = b r (mod p), |a| <= bound and 0 < b <=
    bound, by the half-extended Euclidean algorithm (Wang, Guy and Davenport,
    SIGSAM Bull. 1982); None when there is none.  It is unique when 2
    bound**2 < p."""
    r0, r1, t0, t1 = p, r % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def modular_kernel(image, proves, gaussian: bool) -> list[list[ExactScalar]]:
    """The reduced kernel basis of a matrix M over Q(i): for each free column
    f, 1 at f, 0 at the other free columns and minus the reduced row echelon
    entries of column f at the pivots.

    image(p, iota) is M modulo the residue prime p under i -> iota, as an
    int64 array, or None when p divides a denominator of M; proves(vecs) is
    the caller's exact check M v = 0 of every vector.  For each prime in
    turn, rref_mod runs on the image, or for Gaussian data on the images
    under i -> iota and i -> -iota, which must share their pivots; the
    entries x = a + b i then come back as a = (r+ + r-) / 2 and b = (r+ -
    r-) / (2 iota).  Only primes with the best pivot list seen are kept: the
    rank modulo p of every prefix of columns is at most the true one, so
    the true list has the most pivots in every prefix, and
    (len(pivots), -pivots) orders it above every other.  The kept residues
    are combined by Chinese remaindering to a modulus m, each entry lifted
    by rational_lift with the bound isqrt(m // 2), and the answer returned
    once proves accepts it.

    That answer is the true one: a proved vector for a free column f modulo
    p is 1 at f and supported on pivots left of f, so column f depends on
    earlier columns over Q(i), and the free columns modulo p are free; as
    the nullity modulo p is at least the true one, the free sets are equal
    and each vector is the unique reduced one.  The loop ends: a prime with
    the true pivots and no denominator of M (a lucky one) gives the image of
    the true echelon form, since some pivot minor is a unit modulo it, and
    all other primes divide one of finitely many nonzero minors or
    denominators.  Past those, every kept prime is lucky, and once their
    product m exceeds 2 H**2, H a bound on the numerators and denominators
    of the entries (Cramer: ratios of minors, so Hadamard's bound gives H),
    every entry lifts to itself."""
    best = None                     # the kept primes' pivot key, product and residues
    for k in count():
        p, iota = prime(k)
        images = [image(p, t) for t in ((iota, p - iota) if gaussian else (iota,))]
        if images[0] is None:
            continue
        forms = [rref_mod(A, p) for A in images]
        pivots = forms[0][1]
        key = (len(pivots), [-c for c in pivots])
        if any(f[1] != pivots for f in forms) or best and key < best:
            continue
        ncols = images[0].shape[1]
        free = [c for c in range(ncols) if c not in pivots]
        res = [(-R[:, free] % p).ravel() for R, _ in forms]
        if gaussian:
            res = [(res[0] + res[1]) * pow(2, -1, p) % p,
                   (res[0] - res[1]) * pow(2 * iota, -1, p) % p]
        if key != best:
            best, m, acc = key, 1, [[0] * len(r) for r in res]
        c = pow(m, -1, p)
        acc = [[a + m * ((b - a) * c % p) for a, b in zip(ra, rb.tolist())]
               for ra, rb in zip(acc, res)]
        m *= p
        bound = math.isqrt(m // 2)
        lifts = [[rational_lift(x, m, bound) if x else _ZERO for x in r] for r in acc]
        if any(q is None for r in lifts for q in r):
            continue
        re, im = lifts if gaussian else (lifts[0], [_ZERO] * len(lifts[0]))
        vecs = []
        for t, fc in enumerate(free):
            vec = [ExactScalar.zero()] * ncols
            vec[fc] = ExactScalar.one()
            for s, pc in enumerate(pivots):
                vec[pc] = ExactScalar.of_fractions(re[s * len(free) + t], im[s * len(free) + t])
            vecs.append(vec)
        if proves(vecs):
            return vecs
