"""Sparse multivariate polynomials over Gaussian rationals.

A MultiPoly stores an ordered tuple of variable names and a map from
exponent vectors to ExactScalar coefficients.  Zero coefficients are never
stored, exponent vectors always have one entry per variable, and all
arithmetic is exact.  Two polynomials over different variable universes are
aligned by name (sorted union) before combining.

Division, GCD and square-free reduction are the classical primitive
pseudo-remainder constructions (Collins 1967).  The multivariate GCD recurses
through contents down to one live variable, and there it runs on dense
Gaussian-integer coefficient lists (aatkit.zi's ZiPoly): the denominators
are cleared once, the remainder chain (zi_prem) is made primitive by a
Gaussian-integer Euclid on its coefficients, and only the monic result
becomes ExactScalars again.  poly_squarefree_content first tries a
certificate on images modulo zi._P (W. S. Brown 1971): constant image GCDs
that keep the leading coefficient prove p content-free and square-free, and
monic_lex(p) is the answer; any other input (a vanishing lead, a nonconstant
GCD, _P in a denominator) runs the chain.  Resultants (aatkit.elimination)
read each coefficient in the eliminated variable as one Gaussian integer:
its other variables packed into t = 2^S, S above an a-priori bound.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

import numpy as np

from .errors import (DegreeZero, InexactDivision, MissingVariable, PolyDomainError,
                     SchemaError)
from .scalars import ExactScalar
from .zi import _I, _P, ZiPoly, gaussian_integers, gaussian_scalar, zi_gcd, zp_gcd

Exponents = tuple[int, ...]


class MultiPoly:
    """Sparse polynomial: vars + {exponent vector: ExactScalar}."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, ExactScalar]):
        self.vars = tuple(vars)
        clean: dict[Exponents, ExactScalar] = {}
        nv = len(self.vars)
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv:
                raise PolyDomainError(f"exponent vector {exps} has wrong length for {self.vars}")
            if any(e < 0 for e in exps):
                raise PolyDomainError(f"negative exponent in {exps}")
            coeff = ExactScalar.coerce(coeff)
            if exps in clean:               # a repeated exponent: merge in place
                coeff = clean[exps] + coeff
            if not coeff.is_zero():
                clean[exps] = coeff
            elif exps in clean:
                del clean[exps]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str] = ()) -> "MultiPoly":
        return MultiPoly(vars, {})

    @staticmethod
    def constant(value, vars: Sequence[str] = ()) -> "MultiPoly":
        c = ExactScalar.coerce(value)
        if c.is_zero():
            return MultiPoly.zero(vars)
        return MultiPoly(vars, {(0,) * len(vars): c})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): ExactScalar.one()})

    @staticmethod
    def from_univariate(var: str, coeffs: Sequence) -> "MultiPoly":
        """coeffs[k] is the coefficient of var**k."""
        return MultiPoly((var,), {(k,): ExactScalar.coerce(c)
                                  for k, c in enumerate(coeffs)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> ExactScalar:
        if not self.is_constant():
            raise PolyDomainError("polynomial is not constant")
        return next(iter(self.terms.values()), ExactScalar.zero())

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if var not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        return max((exps[i] for exps in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(exps) for exps in self.terms), default=-1)

    def align(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        """Bring both polynomials onto the sorted union of their variables."""
        if self.vars == other.vars:
            return self, other
        union = tuple(sorted(set(self.vars) | set(other.vars)))
        return self.with_vars(union), other.with_vars(union)

    def with_vars(self, vars: Sequence[str]) -> "MultiPoly":
        vars = tuple(vars)
        if vars == self.vars:
            return self
        missing = set(self.vars) - set(vars)
        if missing:
            for v in missing:
                if self.degree(v) > 0:
                    raise PolyDomainError(f"cannot drop variable {v} of positive degree")
        index = {v: i for i, v in enumerate(self.vars)}
        terms: dict[Exponents, ExactScalar] = {}
        for exps, coeff in self.terms.items():
            new = tuple(exps[index[v]] if v in index else 0 for v in vars)
            terms[new] = terms.get(new, ExactScalar.zero()) + coeff
        return MultiPoly(vars, terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _coerce_poly(other, self.vars)
        a, b = self.align(other)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            terms[exps] = terms.get(exps, ExactScalar.zero()) + coeff
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_coerce_poly(other, self.vars))

    def __rsub__(self, other) -> "MultiPoly":
        return _coerce_poly(other, self.vars) - self

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce_poly(other, self.vars)
        a, b = self.align(other)
        terms: dict[Exponents, ExactScalar] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                acc = terms.get(exps)
                prod = ca * cb
                terms[exps] = prod if acc is None else acc + prod
        return MultiPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise PolyDomainError("negative polynomial power")
        result = MultiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "MultiPoly":
        c = ExactScalar.coerce(c)
        return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self.align(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and evaluation --------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        if var not in self.vars:
            return MultiPoly.zero(self.vars)
        i = self.vars.index(var)
        terms: dict[Exponents, ExactScalar] = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            terms[new] = terms.get(new, ExactScalar.zero()) + coeff * exps[i]
        return MultiPoly(self.vars, terms)

    def eval(self, assignment: Mapping[str, complex]) -> complex:
        """Horner evaluation; exact coefficients become floats at the leaf.
        Values may also be complex ndarrays of one shape (elementwise)."""
        for v in self.vars:
            if self.degree(v) > 0 and v not in assignment:
                raise MissingVariable(f"assignment missing variable {v!r}")
        vals = {v: x if isinstance(x := assignment[v], np.ndarray) else complex(x)
                for v in self.vars if v in assignment}
        return _eval_horner(list(self.terms.items()), 0, self.vars, vals)

    def substitute(self, values: Mapping[str, object], one) -> object:
        """Evaluate in an arbitrary commutative ring.

        `values` maps every live variable to a ring element; `one` is the
        ring's multiplicative identity.  Coefficients enter through
        ``coeff * one`` so the target ring controls the embedding.
        """
        live = [v for v in self.vars if self.degree(v) > 0]
        if not live:
            return one * self.constant_value()
        v = live[0]
        x = values[v]
        top = self.degree(v)
        acc = self.coefficient_wrt(v, top).substitute(values, one)
        for k in range(top - 1, -1, -1):
            acc = acc * x + self.coefficient_wrt(v, k).substitute(values, one)
        return acc

    # -- univariate views ----------------------------------------------------

    def coefficient_wrt(self, var: str, k: int) -> "MultiPoly":
        """Coefficient of var**k, as a polynomial in the remaining variables."""
        if var not in self.vars:
            return self if k == 0 else MultiPoly.zero(self.vars)
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {exps[:i] + exps[i + 1:]: coeff
                 for exps, coeff in self.terms.items() if exps[i] == k}
        return MultiPoly(rest, terms)

    def coefficients_wrt(self, var: str) -> list["MultiPoly"]:
        """List [c_0, ..., c_d] with self = sum c_k var**k."""
        d = self.degree(var)
        return [self.coefficient_wrt(var, k) for k in range(max(d, 0) + 1)]

    def leading_wrt(self, var: str) -> "MultiPoly":
        return self.coefficient_wrt(var, self.degree(var))

    def univariate_coeffs(self, var: str) -> list[ExactScalar]:
        """Coefficients as scalars; requires all other variables absent."""
        cs = []
        for c in self.coefficients_wrt(var):
            if not c.is_constant():
                raise PolyDomainError(f"polynomial is not univariate in {var}")
            cs.append(c.constant_value())
        return cs

    def substitute_var(self, var: str, replacement: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial for one variable (Horner)."""
        if var not in self.vars or self.degree(var) <= 0:
            return self.coefficient_wrt(var, 0) if var in self.vars else self
        coeffs = self.coefficients_wrt(var)
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * replacement + c
        return acc

    def shift_var(self, var: str, offset) -> "MultiPoly":
        """Recenter one variable: var -> var + offset (exact)."""
        repl = MultiPoly.variable(var) + MultiPoly.constant(ExactScalar.coerce(offset), (var,))
        return self.substitute_var(var, repl)

    def rename_var(self, old: str, new: str) -> "MultiPoly":
        if old not in self.vars:
            return self
        if new in self.vars:
            raise PolyDomainError(f"variable {new!r} already present")
        vars = tuple(new if v == old else v for v in self.vars)
        return MultiPoly(vars, dict(self.terms))

    # -- printing ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, ExactScalar]]:
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps) if e > 0
            )
            if mono:
                if coeff.is_one():
                    parts.append(mono)
                elif coeff == ExactScalar(-1):
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"({coeff})*{mono}")
            else:
                parts.append(f"({coeff})")
        return " + ".join(parts)

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for exps, coeff in self.sorted_terms():
            terms.append({
                "exps": list(exps),
                "re": [str(coeff.re.numerator), str(coeff.re.denominator)],
                "im": [str(coeff.im.numerator), str(coeff.im.denominator)],
            })
        return {"vars": list(self.vars), "terms": terms}

    @staticmethod
    def from_json_dict(data: dict) -> "MultiPoly":
        vars = data["vars"]
        if not (isinstance(vars, list) and all(isinstance(v, str) for v in vars)
                and len(set(vars)) == len(vars)):
            raise SchemaError(f"vars must be a list of distinct names, got {vars!r}")
        terms: dict[Exponents, ExactScalar] = {}
        for t in data["terms"]:
            if not all(type(e) is int for e in t["exps"]):
                raise SchemaError(f"exponents must be integers, got {t['exps']!r}")
            if len(t["exps"]) != len(vars):
                raise SchemaError(f"exponent vector {t['exps']} does not match vars {vars}")
            terms[tuple(t["exps"])] = ExactScalar.from_json(t["re"], t.get("im", ["0", "1"]))
        return MultiPoly(vars, terms)


def _eval_horner(items: list, start: int, vars: Sequence[str],
                 assignment: Mapping[str, complex]) -> complex:
    """Horner in the first live variable from position `start` on, over the
    terms grouped by its power; exact coefficients become floats at the
    leaf (a constant group has at most one term)."""
    i = next((i for i in range(start, len(vars)) if any(e[i] for e, _ in items)), None)
    if i is None:
        return complex(items[0][1]) if items else 0j
    groups: list[list] = [[] for _ in range(max(e[i] for e, _ in items) + 1)]
    for item in items:
        groups[item[0][i]].append(item)
    acc = 0j
    for g in reversed(groups):
        acc = acc * assignment[vars[i]] + _eval_horner(g, i + 1, vars, assignment)
    return acc


def _coerce_poly(value, vars: Sequence[str]) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.constant(ExactScalar.coerce(value), vars)


# -- spec operation surface ---------------------------------------------------

def poly_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact product; variable universes are aligned by name."""
    return a * b


def poly_eval(p: MultiPoly, assignment: Mapping[str, complex]) -> complex:
    """Numeric evaluation with exact coefficients floated at the last moment."""
    return p.eval(assignment)


def poly_squarefree_content(p: MultiPoly, var: str) -> MultiPoly:
    """Content-free square-free part of p with respect to one variable.

    Repeated factors in `var` collapse to multiplicity one and the GCD of the
    coefficients (the content) is divided out.  Output is normalized so its
    lex-leading coefficient is 1, hence "up to scalar" comparisons are exact.
    """
    if p.degree(var) <= 0:
        raise DegreeZero(f"{var!r} has degree {p.degree(var)} in {p!r}")
    if _certified(p, var):
        return monic_lex(p)
    prim = divexact(p, content_wrt(p, var))
    g = poly_gcd(prim, prim.derivative(var))
    return monic_lex(divexact(prim, g))


def _certified(p: MultiPoly, var: str) -> bool:
    """Whether images of p modulo _P (i -> _I, the variable at index j -> 2j
    + 3 unless kept) prove p content-free and square-free in `var`: an image
    keeping the leading coefficient of p keeps that of each factor (Gauss's
    lemma), so constant image GCDs bound the true GCD's degree by 0."""
    i, res = p.vars.index(var), []
    for exps, c in p.terms.items():
        (xr, dr), (xi, di) = c.re.as_integer_ratio(), c.im.as_integer_ratio()
        if dr % _P == 0 or di % _P == 0:
            return False
        res.append((exps, (xr * pow(dr, -1, _P) + _I * xi * pow(di, -1, _P)) % _P))

    def image(j: int) -> list[list[int]]:   # per power of var: its image in u_j, top first
        rows: dict = {}
        for exps, x in res:
            for v, e in enumerate(exps):
                if e and v not in (i, j):
                    x *= pow(2 * v + 3, e, _P)
            row = rows.setdefault(exps[i], {})
            row[exps[j]] = (row.get(exps[j], 0) + x) % _P
        return [[row.get(e, 0) for e in range(max(row), -1, -1)] for row in rows.values()]

    for j in set(range(len(p.vars))) - {i}:
        cs = sorted(image(j), key=lambda c: not c[0])      # one keeping its lead first
        if min(map(len, cs)) > 1 and (                      # else the content is free of u_j
                not cs[0][0] or len(functools.reduce(zp_gcd, cs)) > 1):
            return False
    d, lead = p.degree(var), {len(r) - 1: r[0] for r in image(i)}
    c = [lead.get(k, 0) for k in range(d, -1, -1)]
    return c[0] != 0 and len(zp_gcd(c, [x * (d - k) % _P for k, x in enumerate(c[:-1])])) <= 1


# -- division, content, gcd ----------------------------------------------------

def lex_leading(p: MultiPoly) -> tuple[Exponents, ExactScalar]:
    exps = max(p.terms)
    return exps, p.terms[exps]


def monic_lex(p: MultiPoly) -> MultiPoly:
    """Scale so the lex-greatest monomial has coefficient 1."""
    if p.is_zero():
        return p
    _, lead = lex_leading(p)
    return p if lead.is_one() else p.scale(ExactScalar.one() / lead)


def divexact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact division a / b; raises InexactDivision if b does not divide a
    (in particular when b is the zero polynomial)."""
    if b.is_zero():
        raise InexactDivision("division by the zero polynomial")
    a, b = a.align(b)
    if b.is_constant():
        c = b.constant_value()
        return a if c.is_one() else a.scale(ExactScalar.one() / c)
    quot_terms: dict[Exponents, ExactScalar] = {}
    rem = a
    lead_b, cb = lex_leading(b)
    while not rem.is_zero():
        lead_r, cr = lex_leading(rem)
        diff = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            raise InexactDivision(f"{b!r} does not divide {a!r}")
        c = cr / cb
        quot_terms[diff] = quot_terms.get(diff, ExactScalar.zero()) + c
        rem = rem - MultiPoly(rem.vars, {diff: c}) * b
    return MultiPoly(a.vars, quot_terms)


def pseudo_rem(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    """Pseudo-remainder of a by b in `var`: lc(b)^(da-db+1) * a mod b, so
    exactly that power of lc(b) whatever the number of reduction steps;
    a itself when da < db.  Raises InexactDivision when b is zero."""
    da, db = a.degree(var), b.degree(var)
    if db < 0:
        raise InexactDivision("pseudo-remainder by the zero polynomial")
    if da < db:
        return a
    lc_b = b.leading_wrt(var)
    x = MultiPoly.variable(var)
    rem = a
    missing = da - db + 1       # factors of lc(b) still owed to the result
    while not rem.is_zero() and rem.degree(var) >= db:
        dr = rem.degree(var)
        lc_r = rem.leading_wrt(var)
        rem = rem * lc_b - b * lc_r * x ** (dr - db)
        missing -= 1
    return rem * lc_b ** missing if missing and not rem.is_zero() else rem


def content_wrt(p: MultiPoly, var: str) -> MultiPoly:
    """GCD of the coefficients of p viewed as a polynomial in `var`."""
    coeffs = [c for c in p.coefficients_wrt(var) if not c.is_zero()]
    if not coeffs:
        return MultiPoly.zero(p.vars)
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g.is_constant():
            break
    return monic_lex(g).with_vars(p.vars) if not g.is_zero() else g


# -- the univariate core on Gaussian integers (aatkit.zi) ------------------------

def zi_coeffs(p: MultiPoly, var: str) -> tuple[int, ZiPoly]:
    """(D, c) with p = (sum_k c[k] var^(d-k)) / D, D > 0, for a nonzero p
    whose only live variable is `var`."""
    d, i = p.degree(var), p.vars.index(var)
    vals = [ExactScalar.zero()] * (d + 1)
    for exps, coeff in p.terms.items():
        vals[d - exps[i]] = coeff
    D, re, im = gaussian_integers(vals)
    return D, list(zip(re, im))


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """GCD over Gaussian rationals via the primitive pseudo-remainder chain,
    on ZiPolys once a single variable is live.

    Normalized so the lex-leading coefficient is 1 (canonical up to units).
    """
    a, b = a.align(b)
    if a.is_zero():
        return monic_lex(b)
    if b.is_zero():
        return monic_lex(a)
    if a.is_constant() or b.is_constant():
        return MultiPoly.constant(1, a.vars)
    live = [v for v in a.vars if a.degree(v) > 0 or b.degree(v) > 0]
    if len(live) == 1:
        var = live[0]
        g = zi_gcd(zi_coeffs(a, var)[1], zi_coeffs(b, var)[1])
        (lr, li), n, d = g[0], g[0][0] ** 2 + g[0][1] ** 2, len(g) - 1
        i = a.vars.index(var)
        return MultiPoly(a.vars, {
            (0,) * i + (d - k,) + (0,) * (len(a.vars) - i - 1):
            gaussian_scalar(xr * lr + xi * li, xi * lr - xr * li, n)
            for k, (xr, xi) in enumerate(g) if xr or xi})
    var = live[0]
    cont_a, cont_b = content_wrt(a, var), content_wrt(b, var)
    g_cont = poly_gcd(cont_a, cont_b)
    if a.degree(var) == 0 or b.degree(var) == 0:
        return g_cont   # one input is free of `var`: gcd lives in the contents
    pa, pb = divexact(a, cont_a), divexact(b, cont_b)
    if pa.degree(var) < pb.degree(var):
        pa, pb = pb, pa
    while True:   # pb stays primitive, so the last one is the primitive gcd
        r = pseudo_rem(pa, pb, var)
        if r.is_zero() or r.degree(var) == 0:
            break
        pa, pb = pb, divexact(r, content_wrt(r, var))
    return monic_lex(g_cont * pb) if r.is_zero() else g_cont
