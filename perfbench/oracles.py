"""Reference answers that do not come from the code under test.

Closed-form Taylor data is built here with `fractions.Fraction`, closed-form
relations are written out by hand, and exact elimination results are
recomputed with sympy (imported only when a check runs, after timing).
"""

from __future__ import annotations

import math
from fractions import Fraction

from aatkit.aat import normalize_relation
from aatkit.poly import MultiPoly

U, V, W = (MultiPoly.variable(v) for v in "UVW")
X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")

# closed-form addition polynomials G(U, V, W) = 0 for phi(u), phi(v), phi(u+v)
ADDITION = {
    "sin": (W ** 2 + U ** 2 - V ** 2) ** 2 - 4 * U ** 2 * W ** 2 * (1 - V ** 2),
    "cos": W ** 2 - 2 * U * V * W + U ** 2 + V ** 2 - 1,
    "tan": W * (1 - U * V) - (U + V),
    "exp": W - U * V,
}
PERIOD = {"tan": math.pi, "sin": 2 * math.pi, "cos": 2 * math.pi, "exp": 2j * math.pi}
# Schwarz reduction of ADDITION[name]: W-degree sequence and H(X, Y) = 0
# with X = phi, Y = psi (psi itself: psi_reference)
SCHWARZ = {
    "sin": ([4, 2], X ** 2 - Y),
    "cos": ([2, 1], X - Y),
    "tan": ([1], X - Y),
    "exp": ([1], X - Y),
}


def mobius_relation(a: int, b: int, c: int, d: int) -> MultiPoly:
    """g(U) + g(V) = g(W) for g the inverse of (a u + b) / (c u + d), cleared."""
    return ((d * U - b) * (a - c * V) * (a - c * W)
            + (d * V - b) * (a - c * U) * (a - c * W)
            - (d * W - b) * (a - c * U) * (a - c * V))


def _sin_cos(n: int) -> tuple[list[Fraction], list[Fraction]]:
    s = [Fraction(0)] * n
    c = [Fraction(0)] * n
    for k in range(n):
        sign = -1 if (k // 2) % 2 else 1
        (s if k % 2 else c)[k] = Fraction(sign, math.factorial(k))
    return s, c


def taylor(name: str, n: int) -> list[Fraction]:
    """First n Taylor coefficients at 0 of exp, cos, tan or sin^2."""
    s, c = _sin_cos(n)
    if name == "exp":
        return [Fraction(1, math.factorial(k)) for k in range(n)]
    if name == "cos":
        return c
    if name == "tan":  # long division s / c
        q = [Fraction(0)] * n
        for k in range(n):
            q[k] = s[k] - sum(q[j] * c[k - j] for j in range(k))
        return q
    if name == "sin2":
        return [sum(s[j] * s[k - j] for j in range(k + 1)) for k in range(n)]
    raise ValueError(name)


def psi_reference(name: str, n: int) -> list[Fraction]:
    """The invariant psi the Schwarz chain must extract for ADDITION[name]."""
    return taylor("sin2" if name == "sin" else name, n)


def same_relation(got: MultiPoly, want: MultiPoly) -> bool:
    return got == normalize_relation(want).with_vars(got.vars)


def sin_root_error(r: complex, C: float) -> float:
    """Distance of r from the closed-form solution set of sin(v) = C."""
    a = math.asin(C)
    best = math.inf
    for base in (a, math.pi - a):
        k = round((r.real - base) / (2 * math.pi))
        best = min(best, abs(r - (base + 2 * math.pi * k)))
    return best


# -- sympy references (deferred: run after timing) ---------------------------

def _to_sympy(p: MultiPoly):
    import sympy
    syms = {v: sympy.Symbol(v) for v in p.vars}
    expr = 0
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.re.numerator, coeff.re.denominator) + \
            sympy.I * sympy.Rational(coeff.im.numerator, coeff.im.denominator)
        for v, e in zip(p.vars, exps):
            term *= syms[v] ** e
        expr += term
    return sympy.expand(expr), syms


def sympy_discriminant_matches(F: MultiPoly, got: MultiPoly, var: str = "z") -> bool:
    import sympy
    f, syms = _to_sympy(F)
    want = sympy.discriminant(f, syms[var])
    g, _ = _to_sympy(got)
    return sympy.expand(want - g) == 0


def sympy_chain(f: MultiPoly, m: int, half: str = "z", full: str = "x"):
    """The half-argument chain by sympy resultants, each step made
    square-free (the same elimination, redone independently)."""
    import sympy
    fx, syms = _to_sympy(f)
    x = sympy.Symbol(full)
    gamma = fx.subs(syms[half], sympy.Symbol(f"{full}1"))
    for k in range(2, m + 1):
        mid, new = sympy.Symbol(f"{full}{k - 1}"), sympy.Symbol(f"{full}{k}")
        link = fx.subs({syms[half]: new, x: mid}, simultaneous=True)
        step = sympy.resultant(gamma, link, mid)
        gamma = sympy.sqf_part(sympy.Poly(step, new, x)).as_expr()
    return gamma, (sympy.Symbol(f"{full}{m}"), x)


def sympy_chain_matches(f: MultiPoly, m: int, got: MultiPoly) -> bool:
    """got and the sympy chain agree up to a constant factor."""
    import sympy
    want, gens = sympy_chain(f, m)
    g, _ = _to_sympy(got)
    pw, pg = sympy.Poly(want, *gens), sympy.Poly(g, *gens)
    return sympy.expand(pw.LC() * pg.as_expr() - pg.LC() * pw.as_expr()) == 0


def sympy_singular_locations(F: MultiPoly, u: str = "u", z: str = "z") -> list[complex]:
    """Distinct roots of p0(u) and of the discriminant, numerically."""
    import sympy
    f, syms = _to_sympy(F)
    poly = sympy.Poly(f, syms[z])
    parts = [poly.LC(), sympy.discriminant(f, syms[z])]
    out: list[complex] = []
    for part in parts:
        part = sympy.Poly(sympy.expand(part), syms[u])
        if part.degree() < 1:
            continue
        for r in sympy.Poly(sympy.sqf_part(part.as_expr()), syms[u]).nroots(n=30):
            r = complex(r)
            if all(abs(r - s) > 1e-8 * max(1.0, abs(s)) for s in out):
                out.append(r)
    return out


def locations_match(got: list[complex], want: list[complex], rel: float = 1e-7) -> bool:
    if len(got) != len(want):
        return False
    return all(min(abs(g - w) for w in want) < rel * max(1.0, abs(g)) for g in got)
