"""The Gaussian-integer kernel: exact division and GCD of Gaussian integers,
the univariate helpers, the one pseudo-remainder against MultiPoly's, the
one Bareiss determinant against sympy and the residue primes and kernel
engine."""

from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from aatkit.errors import InexactDivision
from aatkit.poly import MultiPoly, pseudo_rem, zi_coeffs
from aatkit.scalars import ExactScalar
from aatkit import zi
from aatkit.zi import (bareiss, determinant, gauss_divexact, gauss_gcd, zi_derivative,
                       zi_divexact, zi_gcd, zi_prem, zi_primitive, zi_shift)

UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_gauss_gcd_and_exact_division():
    g = gauss_gcd((3, 4), (5, 0))                # 3 + 4i = (2 + i)^2, 5 = (2 + i)(2 - i)
    assert g[0] ** 2 + g[1] ** 2 == 5
    assert gauss_divexact(3, 4, g) and gauss_divexact(5, 0, g)   # no remainder
    assert gauss_gcd((0, 0), (1, 2)) == (1, 2) and gauss_gcd((1, 2), (0, 0)) == (1, 2)
    assert gauss_gcd((6, 0), (4, 0)) in [(2 * a, 2 * b) for a, b in UNITS]
    with pytest.raises(InexactDivision):
        gauss_divexact(1, 0, (1, 1))


def test_zi_gcd_is_primitive_and_divides():
    x = MultiPoly.variable("x")
    i = MultiPoly.constant(ExactScalar(0, 1), ("x",))
    D, a = zi_coeffs((2 + 2 * i) * (x - i) ** 2 * (x + 3), "x")
    _, b = zi_coeffs(6 * (x - i) * (x - 5), "x")
    assert D == 1 and a[0] == (2, 2)
    x_minus_i = [(1, 0), (0, -1)]
    for g in (zi_gcd(a, b), zi_gcd(b, a), zi_gcd(a, zi_derivative(a))):
        assert len(g) == 2 and g[0] in UNITS          # primitive, degree 1
        assert zi_divexact(g, x_minus_i) == [g[0]]
    assert zi_gcd(b, [(7, 0)]) == [(1, 0)]
    assert zi_primitive([(4, 0), (6, 0)]) == [(2, 0), (3, 0)]
    # 2 + 2i and 4i share (1 + i)^3; what is left is a unit times (1, 1 + i)
    (ur, ui), rest = zi_primitive([(2, 2), (0, 4)])
    assert (ur, ui) in UNITS and rest == (ur - ui, ur + ui)
    with pytest.raises(InexactDivision):
        zi_divexact(b, [(1, 0), (1, 0)])


# zeros are frequent, so that remainders drop several degrees at once (the
# owed power of lc(b)) and pivots are missing (row swaps, singular matrices)
gauss = st.tuples(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 2 ** 40]),
                  st.sampled_from([0, 0, 0, 1, -2, 5]))


zipoly = st.lists(gauss, min_size=1, max_size=7).filter(lambda c: c[0] != (0, 0))


def as_poly(c):
    return MultiPoly.from_univariate("x", [ExactScalar(*z) for z in reversed(c)])


@settings(max_examples=200, deadline=None)
@given(zipoly | st.just([]), zipoly)
def test_zi_prem_matches_pseudo_rem(a, b):
    want = pseudo_rem(as_poly(a), as_poly(b), "x")
    D, c = zi_coeffs(want.with_vars(("x",)), "x") if not want.is_zero() else (1, [])
    assert D == 1 and zi_prem(a, b) == c


@settings(max_examples=200, deadline=None)
@given(zipoly, st.sampled_from([(0, 0, 1), (1, 0, 1), (-3, 0, 1), (0, 1, 1), (1, 2, 3),
                                (-5, 1, 4), (0, -1, 2), (6, 3, 9)]))
def test_zi_shift_matches_shift_var(c, center):
    # m^d c(w / m + y), centers 0, integers and Gaussian w / m
    wr, wi, m = center
    want = as_poly(c).shift_var("x", ExactScalar(Fraction(wr, m), Fraction(wi, m)))
    D, shifted = zi_coeffs(want.scale(ExactScalar(m ** (len(c) - 1))).with_vars(("x",)), "x")
    assert D == 1 and zi_shift(c, (wr, wi), m) == shifted


@st.composite
def gaussian_matrix(draw):
    """A square matrix of Gaussian integers; every third one gets a row
    that is a combination of two others, so it is singular."""
    n = draw(st.integers(1, 5))
    m = [draw(st.lists(gauss, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 3 and draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(n)))[:3]
        (pr, pi), (qr, qi) = draw(gauss), draw(gauss)
        m[k] = [(pr * ar - pi * ai + qr * br - qi * bi, pr * ai + pi * ar + qr * bi + qi * br)
                for (ar, ai), (br, bi) in zip(m[i], m[j])]
    return m


@settings(max_examples=200, deadline=None)
@given(gaussian_matrix())
def test_determinant_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    want = sympy.expand(sympy.Matrix([[re + sympy.I * im for re, im in row]
                                      for row in m]).det())
    assert determinant(m) == (int(sympy.re(want)), int(sympy.im(want)))


def test_determinant_row_swaps_and_rank():
    # a zero leading entry forces one swap (sign -1), a second one another
    assert determinant([[(0, 0), (1, 0)], [(2, 1), (3, 0)]]) == (-2, -1)
    assert determinant([[(0, 0), (0, 0), (1, 0)], [(0, 0), (1, 0), (0, 0)],
                        [(1, 0), (0, 0), (0, 0)]]) == (-1, 0)
    assert determinant([[(1, 1), (2, 2)], [(0, 1), (0, 2)]]) == (0, 0)


def _gaussian_bareiss(rows, ncols):
    """bareiss with every update on Gaussian integers (gauss_divexact), as
    it ran before real matrices took the integer path: the reference."""
    rows = [list(r) for r in rows]
    pivots, sign, prev = [], 1, (1, 0)
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
            x[c + 1:] = tail = [gauss_divexact(pr * ar - pi * ai - lr * br + li * bi,
                                               pr * ai + pi * ar - lr * bi - li * br, prev)
                                for (ar, ai), (br, bi) in zip(x[c + 1:], top)]
            if any(map(any, tail)):
                live.append(x)
        rows[k + 1:] = live
        pivots.append(c)
        prev = (pr, pi)
    return rows, pivots, sign


@st.composite
def real_matrix(draw):
    """A rectangular integer matrix (zero imaginary parts), often rank
    deficient: a repeated combination of two rows and zero columns."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 2 ** 40, -(3 ** 30)])
    m = [[(draw(entry), 0) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        p, q = draw(entry), draw(entry)
        m[k] = [(p * a + q * b, 0) for (a, _), (b, _) in zip(m[i], m[j])]
    return m


@settings(max_examples=300, deadline=None)
@given(real_matrix())
def test_real_bareiss_matches_gaussian_path(m):
    ncols = len(m[0])
    assert bareiss(m, ncols) == _gaussian_bareiss(m, ncols)


def _engine_kernel(rows, ncols):
    """modular_kernel of a Gaussian-integer matrix, proved by ExactScalar
    products: image and certificate written here."""
    def image(p, iota):
        return np.array([[(x + iota * y) % p for x, y in r] for r in rows],
                        dtype=np.int64).reshape(len(rows), ncols)

    def proves(vecs):
        zero = ExactScalar.zero()
        return all(sum((ExactScalar(*a) * x for a, x in zip(r, v)), zero).is_zero()
                   for v in vecs for r in rows)

    return zi.modular_kernel(image, proves, any(y for r in rows for _, y in r))


def _sympy_kernel(rows):
    """sympy's nullspace basis (free column 1, pivots read off the reduced
    echelon form) as ExactScalar lists."""
    sympy = pytest.importorskip("sympy")
    vecs = sympy.Matrix([[re + sympy.I * im for re, im in r] for r in rows]).nullspace()
    return [[ExactScalar(Fraction(int(sympy.re(x).p), int(sympy.re(x).q)),
                         Fraction(int(sympy.im(x).p), int(sympy.im(x).q))) for x in v]
            for v in vecs]


@settings(max_examples=150, deadline=None)
@given(real_matrix())
def test_real_nullspace_unchanged(m):
    # the engine's kernel basis of a real matrix (entries up to 3**30, so
    # often several primes) is sympy's
    ncols = len(m[0])
    got = _engine_kernel(m, ncols)
    want = _sympy_kernel(m)
    assert got == want


def test_residue_primes():
    sympy = pytest.importorskip("sympy")
    got = [zi.prime(k) for k in range(16)]
    assert got[0] == (33554393, got[0][1]) and all(p < 2 ** 25 for p, _ in got)
    assert [p for p, _ in got] == sorted({p for p, _ in got}, reverse=True)
    for p, iota in got:
        assert sympy.isprime(p) and p % 4 == 1 and iota * iota % p == p - 1
    # every prime = 1 (mod 4) between two entries is in the list
    assert [q for q in sympy.primerange(got[-1][0], 2 ** 25) if q % 4 == 1] == \
        [p for p, _ in reversed(got)]


def _parent_pack(vals, slot):
    """_pack without the zero shortcut."""
    if len(vals) > 32:
        h = len(vals) // 2
        return _parent_pack(vals[:h], slot) + (_parent_pack(vals[h:], slot) << h * slot)
    x = 0
    for v in reversed(vals):
        x = (x << slot) + v
    return x


def _parent_unpack(x, n, slot):
    """_unpack without the zero shortcut."""
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


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 90), st.data())
def test_pack_unpack_zero_shortcuts(slot, data):
    # an all-zero list packs to 0 and 0 unpacks to zeros, as without the shortcut
    part = st.integers(-(1 << (slot - 1)) + 1, (1 << (slot - 1)) - 1)
    vals = data.draw(st.one_of(st.lists(part, max_size=70),
                               st.integers(0, 70).map(lambda n: [0] * n)))
    x = zi._pack(vals, slot)
    assert x == _parent_pack(vals, slot)
    assert zi._unpack(x, len(vals), slot) == _parent_unpack(x, len(vals), slot) == vals


def _gauss_jordan_mod(rows, p):
    """Reduced row echelon form modulo p by plain Gauss-Jordan on lists."""
    rows, pivots = [[x % p for x in r] for r in rows], []
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        r = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[k], rows[r] = rows[r], rows[k]
        inv = pow(rows[k][c], -1, p)
        rows[k] = [x * inv % p for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[k])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


@pytest.mark.parametrize("p", [7, 33554393, 2147483629])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rref_mod_matches_gauss_jordan(p, data):
    m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    rank = data.draw(st.integers(0, min(m, n)))
    entry = st.integers(-(p - 1), p - 1)
    B = data.draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=m, max_size=m))
    C = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=rank, max_size=rank))
    rows = [[sum(b[k] * C[k][j] for k in range(rank)) % p for j in range(n)] for b in B]
    A = np.array(rows, dtype=np.int64).reshape(m, n)
    R, pivots = zi.rref_mod(A, p)
    want, want_pivots = _gauss_jordan_mod(rows, p)
    assert (R.tolist(), pivots) == (want, want_pivots)


@given(st.integers(-4095, 4095), st.integers(1, 4095), st.integers(-10 ** 6, 10 ** 6))
def test_rational_lift(a, b, big):
    p, bound = 33554393, 4095
    want = Fraction(a, b)
    r = want.numerator * pow(want.denominator, -1, p) % p
    assert zi.rational_lift(r, p, bound) == want
    assert zi.rational_lift(r - p, p, bound) == want        # any representative
    # 4097 and 1/4097 have no fraction within the bound
    assert zi.rational_lift(4097, p, bound) is None
    assert zi.rational_lift(pow(4097, -1, p), p, bound) is None
    if abs(big) > bound:               # a value past the bound never lifts to itself
        assert zi.rational_lift(big % p, p, bound) != big
