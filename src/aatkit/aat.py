"""Addition-theorem engines.

verify_aat substitutes three series elements of one function into a
candidate polynomial G(U, V, W) and decides whether
G(phi(u), phi(v), phi(u+v)) vanishes: identically to the working order in
exact mode, or below tolerance on a random sample in numeric mode.

discover_aat inverts that: it builds the linear system satisfied by the
coefficients of G over a monomial box and returns a basis of its kernel,
exactly (fraction-free elimination) whenever the function's Taylor data is
rational, by thresholded SVD otherwise.

koebe_normalize runs the classical elimination chain that turns a relation
between three different elements into one relation for a single element;
schwarz_reduce iterates GCDs of the relation against its
(u+k, v-k)-shifted copies until the W-degree stabilizes, yielding
coefficients that depend on u+v alone (the meromorphic invariant psi_r);
algebraic_relation finds a polynomial relation between two functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .elimination import PolyInW, gcd_in_w, monic_in_w, resultant
from .errors import (
    AatkitError,
    ChainCollapse,
    InvariantViolation,
    MissingVariable,
    OrderTooLow,
    OrderTooLowForDegree,
    PreconditionFailed,
    ShiftDegenerate,
    SingularBasePoint,
)
from .functions import (
    FunctionSpec,
    _add_shift,
    _to_complex,
    builtin_taylor,
    rational_taylor,
)
from .poly import MultiPoly, monic_lex, poly_squarefree_content
from .scalars import ExactScalar, gaussian_integers
from .series import (
    PREC_BITS,
    BiSeries,
    FixedBiSeries,
    TruncSeries,
    _line_powers,
    compose_shift,
    radius_estimate,
)

DEFAULT_SCHWARZ_ORDER = 24


# ---------------------------------------------------------------------------
# reports

@dataclass
class AatCertificate:
    G: MultiPoly
    order_checked: int
    status: str                       # "verified" | "refuted"
    mode: str                         # "exact" | "numeric"
    base: complex
    residual_valuation: int | None = None   # exact mode
    residual_max: float | None = None       # numeric mode (sample residual)
    first_failure: int | None = None        # total degree of first bad term

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "mode": self.mode,
            "order_checked": self.order_checked,
            "base": [self.base.real, self.base.imag],
            "residual_valuation": self.residual_valuation,
            "residual_max": self.residual_max,
            "first_failure": self.first_failure,
            "poly": self.G.to_json_dict(),
        }


@dataclass
class ReductionReport:
    shifts: list[complex]
    final_degree: int
    reduced: PolyInW
    invariance_residual: float
    psi: TruncSeries
    H: MultiPoly | None = None
    degrees: list[int] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        coeffs = []
        for c in self.reduced.coeffs:
            scale = max(c.max_abs(), 1.0)
            terms = []
            for i, j in _bi_keys(c.order):
                v = complex(c.coefficient(i, j))
                if abs(v) > 1e-12 * scale:
                    terms.append([i, j, v.real, v.imag])
            coeffs.append({"order": c.order, "terms": terms})
        return {
            "shifts": [[k.real, k.imag] for k in self.shifts],
            "degrees": self.degrees,
            "final_degree": self.final_degree,
            "invariance_residual": self.invariance_residual,
            "reduced_coeffs": coeffs,
            "psi": self.psi.to_json_dict(),
            "relation": None if self.H is None else self.H.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# shared element plumbing

def _check_uvw_vars(G: MultiPoly):
    extra = [v for v in G.vars if v not in ("U", "V", "W") and G.degree(v) > 0]
    if extra:
        raise MissingVariable(f"G must be a polynomial in (U, V, W); got {extra}")


def _elements_uvw(f: FunctionSpec, base, order: int) -> tuple[BiSeries, BiSeries, BiSeries]:
    """BiSeries for U = phi(u), V = phi(v), W = phi(u+v) around a base point."""
    two_base = _add_shift(base, base)
    if not f.is_regular(_to_complex(base)) or not f.is_regular(_to_complex(two_base)):
        raise SingularBasePoint(f"function singular at base {base} or {two_base}")
    su = f.element_at(base, order)
    sw = f.element_at(two_base, order)
    U = BiSeries.from_univariate(su, slot=0, order=order)
    V = BiSeries.from_univariate(su, slot=1, order=order)
    W = compose_shift(sw).truncate(order)
    if not (U.exact and V.exact and W.exact):
        U, V, W = U.to_numeric(), V.to_numeric(), W.to_numeric()
    return U, V, W


def relation_residual(G: MultiPoly, U: BiSeries, V: BiSeries, W: BiSeries) -> BiSeries:
    """G evaluated on three bivariate series (the addition-theorem residual)."""
    one = BiSeries.const(1, min(U.order, V.order, W.order), U.exact, U.center)
    return G.substitute({"U": U, "V": V, "W": W}, one)


def element_relation_residual(G: MultiPoly, p1: TruncSeries, p2: TruncSeries,
                              p3: TruncSeries) -> BiSeries:
    """G(P1(x), P2(y), P3(x+y)) as a bivariate series."""
    order = min(p1.order, p2.order, p3.order)
    U = BiSeries.from_univariate(p1, slot=0, order=order)
    V = BiSeries.from_univariate(p2, slot=1, order=order)
    W = compose_shift(p3).truncate(order)
    if not (U.exact and V.exact and W.exact):
        U, V, W = U.to_numeric(), V.to_numeric(), W.to_numeric()
    return relation_residual(G, U, V, W)


# ---------------------------------------------------------------------------
# verification

def verify_aat(G: MultiPoly, f: FunctionSpec, order: int = 16, base=None,
               tol: float = 1e-9, samples: int = 50,
               seed: int = 0) -> AatCertificate:
    """Decide whether G(phi(u), phi(v), phi(u+v)) = 0 for the given function.

    Exact mode (rational Taylor data): the bivariate residual must vanish
    identically to the working order.  Numeric mode: the residual is also
    sampled at `samples` random regular (u, v) pairs and must stay below
    `tol`.  Refutations report the first failing total degree.
    """
    _check_uvw_vars(G)
    if order <= G.total_degree():
        raise OrderTooLowForDegree(
            f"order {order} must exceed deg G = {G.total_degree()}")
    if base is None:
        base = f.default_base()
    U, V, W = _elements_uvw(f, base, order)
    residual = relation_residual(G, U, V, W)
    base_c = _to_complex(base)
    if residual.exact:
        val = residual.valuation()
        status = "verified" if val is None else "refuted"
        return AatCertificate(G, order, status, "exact", base_c,
                              residual_valuation=order if val is None else val,
                              first_failure=val)
    # numeric: series screen plus random sampling
    val = residual.valuation(tol=1e-7)
    rng = np.random.default_rng(seed)
    worst = 0.0
    got = 0
    tries = 0
    gscale = max(abs(complex(c)) for c in G.terms.values())
    while got < samples and tries < samples * 20:
        tries += 1
        u = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)) + base_c
        v = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)) + base_c
        if not (f.is_regular(u) and f.is_regular(v) and f.is_regular(u + v)):
            continue
        fu, fv, fw = f.eval(u), f.eval(v), f.eval(u + v)
        if max(abs(fu), abs(fv), abs(fw)) > 1e6:
            continue
        r = abs(G.eval({"U": fu, "V": fv, "W": fw}))
        scale = gscale * max(1.0, abs(fu), abs(fv), abs(fw)) ** G.total_degree()
        worst = max(worst, r / scale)
        got += 1
    if got == 0:
        raise SingularBasePoint("no regular sample points found")
    status = "verified" if (worst < tol and val is None) else "refuted"
    return AatCertificate(G, order, status, "numeric", base_c,
                          residual_max=worst, first_failure=val)


# ---------------------------------------------------------------------------
# discovery

def _grlex_monomials(bounds: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Monomial box in graded-lex order with U < V < W."""
    monos = [(i, j, k)
             for i in range(bounds[0] + 1)
             for j in range(bounds[1] + 1)
             for k in range(bounds[2] + 1)]
    monos.sort(key=lambda m: (sum(m), tuple(-e for e in m)))
    return monos


def normalize_relation(p: MultiPoly) -> MultiPoly:
    """Scale so the first nonzero coefficient in graded-lex order is 1."""
    if p.is_zero():
        return p
    vars = p.vars
    items = sorted(p.terms.items(), key=lambda t: (sum(t[0]),
                                                   tuple(-e for e in t[0])))
    lead = items[0][1]
    return p.scale(ExactScalar.one() / lead)


def _exact_nullspace(rows: list[list[ExactScalar]], ncols: int) -> list[list[ExactScalar]]:
    """Reduced kernel basis: one vector per free column f, with 1 at f and 0
    at the other free columns (the basis read off the reduced row echelon form).

    Fraction-free: each row is scaled to Gaussian integers by the lcm of its
    denominators, then Bareiss elimination divides every update exactly by
    the previous pivot, so entries stay minors of the matrix.  The pivot
    columns are its column rank profile.  Each kernel vector is solved in
    integers over the triangle of the pivots left of f, times that triangle's
    last pivot Delta (Cramer: Delta x is integral), and only its entries
    x = y / Delta become ExactScalars.
    """
    re: list[list[int]] = []
    im: list[list[int]] = []
    for row in rows:
        _, rr, ri = gaussian_integers(row)
        if any(rr) or any(ri):
            re.append(rr)
            im.append(ri)
    pivots: list[int] = []
    prev = (1, 0)
    for c in range(ncols):
        k = len(pivots)
        if k == len(re):
            break
        p = next((i for i in range(k, len(re)) if re[i][c] or im[i][c]), None)
        if p is None:
            continue
        re[k], re[p], im[k], im[p] = re[p], re[k], im[p], im[k]
        pr, pi, kr, ki = re[k][c], im[k][c], re[k], im[k]
        live = []
        for i in range(k + 1, len(re)):
            xr, xi = re[i], im[i]
            lr, li = xr[c], xi[c]
            xr[c] = xi[c] = 0
            for j in range(c + 1, ncols):
                ar, ai, br, bi = xr[j], xi[j], kr[j], ki[j]
                xr[j], xi[j] = _gauss_divexact(pr * ar - pi * ai - lr * br + li * bi,
                                               pr * ai + pi * ar - lr * bi - li * br,
                                               prev)
            if any(xr) or any(xi):
                live.append(i)
        re[k + 1:] = [re[i] for i in live]
        im[k + 1:] = [im[i] for i in live]
        pivots.append(c)
        prev = (pr, pi)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        s = sum(1 for pc in pivots if pc < fc)
        dr, di = (re[s - 1][pivots[s - 1]], im[s - 1][pivots[s - 1]]) if s else (1, 0)
        y: list[tuple[int, int]] = [(0, 0)] * s
        for t in range(s - 1, -1, -1):
            xr, xi = -dr * re[t][fc] + di * im[t][fc], -dr * im[t][fc] - di * re[t][fc]
            for u in range(t + 1, s):
                ar, ai = re[t][pivots[u]], im[t][pivots[u]]
                yr, yi = y[u]
                xr -= ar * yr - ai * yi
                xi -= ar * yi + ai * yr
            y[t] = _gauss_divexact(xr, xi, (re[t][pivots[t]], im[t][pivots[t]]))
        vec = [ExactScalar.zero()] * ncols
        vec[fc] = ExactScalar.one()
        norm = dr * dr + di * di
        for pc, (yr, yi) in zip(pivots, y):
            vec[pc] = ExactScalar.of_fractions(Fraction(yr * dr + yi * di, norm),
                                               Fraction(yi * dr - yr * di, norm))
        basis.append(vec)
    return basis


def _gauss_divexact(xr: int, xi: int, q: tuple[int, int]) -> tuple[int, int]:
    """(xr + i xi) / q in Z[i]; InvariantViolation unless the division is exact."""
    qr, qi = q
    if qi:
        n = qr * qr + qi * qi
        xr, xi = xr * qr + xi * qi, xi * qr - xr * qi
    else:
        n = qr
    a, ra = divmod(xr, n)
    b, rb = divmod(xi, n)
    if ra or rb:
        raise InvariantViolation("inexact division in fraction-free elimination")
    return a, b


def _numeric_nullspace(A: np.ndarray, rel: float = 1e-8) -> list[np.ndarray]:
    """Thresholded-SVD kernel, reduced to row-echelon form over the columns.

    The echelon pass makes the basis canonical (each vector supported on a
    distinct leading monomial), so minimal relations surface as-is instead
    of arbitrary rotations of the kernel.
    """
    if A.size == 0:
        return []
    _u, s, vh = np.linalg.svd(A)
    smax = s[0] if len(s) else 0.0
    ncols = A.shape[1]
    basis = []
    for idx in range(ncols):
        sv = s[idx] if idx < len(s) else 0.0
        if sv <= rel * max(smax, 1e-300):
            basis.append(vh[idx].conj())
    if len(basis) <= 1:
        return basis
    rows = np.array(basis)
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        col = np.abs(rows[r:, c])
        p = int(np.argmax(col))
        if col[p] <= 1e-8:
            continue
        rows[[r, r + p]] = rows[[r + p, r]]
        rows[r] = rows[r] / rows[r, c]
        for i in range(len(rows)):
            if i != r:
                rows[i] = rows[i] - rows[i, c] * rows[r]
        r += 1
    return [rows[i] for i in range(r)]


def discover_aat(f: FunctionSpec, degree_bounds: tuple[int, int, int],
                 order: int = 16, base=None) -> list[MultiPoly]:
    """Basis of addition-theorem polynomials within the degree bounds.

    Builds the linear system over the bivariate series coefficients of all
    monomials U^i V^j W^k in the box and returns its kernel as normalized
    polynomials; an empty list means no relation at these bounds.
    """
    d_u, d_v, d_w = degree_bounds
    min_order = 2 * (d_u + d_v + d_w) + 4
    if order < min_order:
        raise OrderTooLow(f"order {order} < required {min_order} for bounds "
                          f"{degree_bounds}")
    if base is None:
        base = f.default_base()
    U, V, W = _elements_uvw(f, base, order)
    monos = _grlex_monomials(degree_bounds)
    upow = _powers(U, d_u)
    vpow = _powers(V, d_v)
    wpow = _powers(W, d_w)
    columns = [upow[i] * vpow[j] * wpow[k] for (i, j, k) in monos]
    n_rows_order = min(c.order for c in columns)
    rows = [[col.coefficient(p, q) for col in columns]
            for p in range(n_rows_order) for q in range(n_rows_order - p)]
    return _kernel_relations(rows, U.exact, monos, ("U", "V", "W"))


def _kernel_relations(rows: list[list], exact: bool, monos: list[tuple],
                      vars: tuple[str, ...]) -> list[MultiPoly]:
    """The kernel of the coefficient matrix `rows` (one column per monomial)
    as normalized relations: exactly when the data is exact, else by the
    thresholded SVD with rationalized entries."""
    if exact:
        vecs = _exact_nullspace(rows, len(monos))
    else:
        A = np.array([[complex(c) for c in row] for row in rows], dtype=complex)
        vecs = [_clean_numeric_vec(v) for v in _numeric_nullspace(A)]
    polys = []
    for vec in vecs:
        terms = {m: c for m, c in zip(monos, vec) if c is not None and not c.is_zero()}
        if terms:
            polys.append(normalize_relation(MultiPoly(vars, terms)))
    return polys


def _powers(s, top: int) -> list:
    """[1, s, ..., s^top] of a TruncSeries or BiSeries by repeated products."""
    out = [s ** 0]
    for _ in range(top):
        out.append(out[-1] * s)
    return out


def _clean_numeric_vec(vec: np.ndarray) -> list[ExactScalar | None]:
    """Rationalize a numeric kernel vector for readable output.

    The vector is scaled by its largest entry first; entries that refuse a
    small rational form are kept as float-backed rationals.
    """
    from .scalars import rationalize
    scale = max(abs(x) for x in vec)
    if scale == 0:
        return [None] * len(vec)
    idx = int(np.argmax(np.abs(vec)))
    v = vec / vec[idx]
    out: list[ExactScalar | None] = []
    for x in v:
        if abs(x) < 1e-9:
            out.append(None)
            continue
        re = rationalize(x.real, 10 ** 6)
        im = rationalize(x.imag, 10 ** 6)
        if re is None:
            re = Fraction(x.real).limit_denominator(10 ** 12)
        if im is None:
            im = Fraction(x.imag).limit_denominator(10 ** 12)
        out.append(ExactScalar(re, im))
    return out


# ---------------------------------------------------------------------------
# Koebe normalization

def koebe_normalize(G: MultiPoly, p1, p2, p3, order: int | None = None) -> MultiPoly:
    """Reduce a relation between three elements to one for the first element.

    Input: G(P1(x), P2(y), P3(x+y)) = 0 to the working order.  The chain
    specializes x = 0 and y = 0, eliminates the P3 slots by resultants, then
    the P2 slot, and returns Gbar with Gbar(P1(x), P1(y), P1(x+y)) = 0,
    verified to the working order before returning.
    """
    _check_uvw_vars(G)
    s1, s2, s3 = (_as_series(p) for p in (p1, p2, p3))
    if order is not None:
        s1, s2, s3 = (s.truncate(order) for s in (s1, s2, s3))
    work_order = min(s1.order, s2.order, s3.order)
    pre = element_relation_residual(G, s1, s2, s3)
    if not _residual_ok(pre):
        raise PreconditionFailed("G does not annihilate (P1(x), P2(y), P3(x+y))")
    c1, c2 = s1.coefficient(0), s2.coefficient(0)
    G1 = _subst_const(G, "U", c1, s1.exact)           # relates P2(y), P3(y)
    G2 = _subst_const(G, "V", c2, s2.exact)           # relates P1(x), P3(x)
    if G1.degree("W") < 1 or G2.degree("W") < 1:
        raise ChainCollapse("W disappeared after specialization")
    G3 = resultant(G1, G2, "W")                        # relates P1(y), P2(y)
    if G3.is_zero():
        raise ChainCollapse("eliminating the shared-argument slot collapsed")
    G3 = _cleanup(G3, ("U", "V"))
    g2plus = G2.rename_var("U", "Wbar")                # relates P1(x+y), P3(x+y)
    G4 = resultant(G, g2plus, "W")                     # relates P1(x), P2(y), P1(x+y)
    if G4.is_zero():
        raise ChainCollapse("eliminating the P3(x+y) slot collapsed")
    G4 = _cleanup(G4, ("U", "V", "Wbar"))
    g3y = G3.rename_var("U", "Y")                      # slots (P1(y), P2(y))
    if G4.degree("V") < 1 or g3y.degree("V") < 1:
        # P2 never entered; the relation is already in one element
        gbar = G4.rename_var("Wbar", "W").rename_var("Y", "V")
    else:
        gbar = resultant(G4, g3y, "V")
        if gbar.is_zero():
            raise ChainCollapse("eliminating the P2(y) slot collapsed")
        gbar = gbar.rename_var("Y", "V").rename_var("Wbar", "W")
    gbar = _cleanup(gbar, ("U", "V", "W")).with_vars(("U", "V", "W"))
    res = element_relation_residual(gbar, s1, s1, s1.truncate(work_order))
    if not _residual_ok(res):
        raise ChainCollapse("chain result fails the substitution check")
    return normalize_relation(gbar)


def _as_series(p) -> TruncSeries:
    if isinstance(p, TruncSeries):
        return p
    if isinstance(p, FunctionSpec):
        if p.kind == "element":
            return p.series
        base = p.default_base()
        return p.element_at(base, 16)
    raise TypeError("expected a TruncSeries or FunctionSpec element")


def _subst_const(G: MultiPoly, var: str, value, exact: bool) -> MultiPoly:
    if exact:
        c = ExactScalar.coerce(value)
    else:
        from .scalars import rationalize
        re = rationalize(complex(value).real)
        im = rationalize(complex(value).imag)
        if re is None or im is None:
            raise ChainCollapse(
                "numeric specialization value has no exact representation; "
                "supply exact elements")
        c = ExactScalar(re, im)
    return G.substitute_var(var, MultiPoly.constant(c, (var,)))


def _cleanup(p: MultiPoly, keep: tuple[str, ...]) -> MultiPoly:
    for v in keep:
        if p.degree(v) > 0:
            try:
                p = poly_squarefree_content(p, v)
            except AatkitError:
                pass        # keep p as it is; the final residual check decides
    return monic_lex(p)


def _residual_ok(res: BiSeries, rel: float = 1e-7) -> bool:
    if res.exact:
        return res.valuation() is None
    return res.valuation(tol=rel) is None


# ---------------------------------------------------------------------------
# Schwarz reduction

def schwarz_reduce(G: MultiPoly, f: FunctionSpec,
                   shifts: list[complex] | None = None,
                   order: int = DEFAULT_SCHWARZ_ORDER, base=None,
                   zero_tol: float = 1e-8,
                   relation_bounds_cap: int = 4) -> ReductionReport:
    """Iterated GCD of the relation against its (u+k, v-k)-shifted copies.

    Stops when the W-degree stabilizes (or reaches 1).  The surviving
    coefficients depend on u+v alone; the report carries the translation
    invariance residual, the extracted invariant psi_r (first non-constant
    monic coefficient, negated, with v = 0), and, when found, the relation
    H(X, Y) = 0 between phi and psi_r.

    The intermediate Euclid quotients are badly conditioned series, so when
    the relation has W-degree above one the chain runs on FixedBiSeries
    (PREC_BITS-bit fixed-point Gaussian integers) instead of doubles.
    """
    _check_uvw_vars(G)
    if shifts is not None:
        for k in shifts:
            if complex(k) == 0:
                raise ShiftDegenerate("zero shift supplied")
    if base is None:
        base = f.default_base()
    cert = verify_aat(G, f, order=min(order, 16), base=base)
    if not cert.verified:
        raise PreconditionFailed("G is not a verified addition theorem for f")
    if shifts is None:
        scale = _shift_scale(f, base)
        shifts = [0.3 * scale / 2 ** i for i in range(6)]
    carrier, used, degrees = _schwarz_chain(G, f, base, shifts, order, zero_tol,
                                            force_hp=G.degree("W") > 1)
    psi = _extract_psi(carrier, base)
    H = _relation_against_psi(f, psi, base, relation_bounds_cap)
    return ReductionReport(shifts=used, final_degree=carrier.degree,
                           reduced=carrier,
                           invariance_residual=_invariance_residual(carrier),
                           psi=psi, H=H, degrees=degrees)


def _schwarz_chain(G: MultiPoly, f: FunctionSpec, base, shifts, order: int,
                   zero_tol: float, force_hp: bool):
    family = [0j]
    carrier = _family_gcd(G, f, base, family, order, zero_tol, force_hp)
    degrees = [carrier.degree]
    used: list[complex] = []
    for k in shifts:
        if carrier.degree <= 1:
            break
        k = complex(k)
        shifted_family = [s + k for s in family]
        shifted = _family_gcd(G, f, base, shifted_family, order, zero_tol,
                              force_hp)
        trial = gcd_in_w(carrier, shifted)
        if trial.degree == carrier.degree:
            break
        if trial.degree < 1:
            raise ChainCollapse("GCD degenerated to degree zero")
        carrier = trial
        family = family + shifted_family
        used.append(k)
        degrees.append(carrier.degree)
    return monic_in_w(carrier), used, degrees


def _shift_scale(f: FunctionSpec, base) -> float:
    try:
        r = radius_estimate(f.element_at(base, 32))
    except AatkitError:
        r = math.inf
    return 1.0 if not math.isfinite(r) else min(1.0, 0.5 * r)


def _family_gcd(G: MultiPoly, f: FunctionSpec, base, family: list[complex],
                order: int, zero_tol: float, force_hp: bool = False) -> PolyInW:
    polys = [_shifted_poly_in_w(G, f, base, sigma, order, zero_tol, force_hp)
             for sigma in family]
    acc = polys[0]
    for p in polys[1:]:
        acc = gcd_in_w(acc, p)
    return monic_in_w(acc)


def _shifted_poly_in_w(G: MultiPoly, f: FunctionSpec, base, sigma: complex,
                       order: int, zero_tol: float,
                       force_hp: bool = False) -> PolyInW:
    """G expanded in W with U <- phi(base+sigma+x), V <- phi(base-sigma+y).

    Intermediate Euclid quotients have small convergence radii, so when GCD
    steps are coming (`force_hp`), or the Taylor data is not exact, U and V
    are FixedBiSeries: fixed-point Gaussian integers with PREC_BITS-bit
    mantissas, which reach the working order where doubles cannot.
    Otherwise they are exact BiSeries.
    """
    bu = _add_shift(base, sigma) if sigma == 0 else _to_complex(base) + sigma
    bv = _add_shift(base, -sigma) if sigma == 0 else _to_complex(base) - sigma
    su = f.element_at(bu, order)   # also rejects singular centers
    sv = f.element_at(bv, order)
    if not su.exact or force_hp:
        return _fixed_poly_in_w(G, _hp_element(f, bu, su, slot=0),
                                _hp_element(f, bv, sv, slot=1), order, zero_tol)
    U = BiSeries.from_univariate(su, slot=0, order=order)
    V = BiSeries.from_univariate(sv, slot=1, order=order)
    if not (U.exact and V.exact):
        U, V = U.to_numeric(), V.to_numeric()
    one = BiSeries.const(1, order, U.exact, U.center)
    return PolyInW([c.substitute({"U": U, "V": V}, one)
                    for c in G.coefficients_wrt("W")], zero_tol)


def _fixed_poly_in_w(G: MultiPoly, U: FixedBiSeries, V: FixedBiSeries,
                     order: int, zero_tol: float) -> PolyInW:
    """G(U, V, W) as a polynomial in W over FixedBiSeries, for U a series in
    x only and V one in y only.

    The W^k coefficient, sum of c_pq U^p V^q, is the sum over q of the outer
    products R_q(x) V^q(y) with R_q = sum_p c_pq U^p.  U^p and V^q are exact
    univariate Gaussian-integer rows and each c_pq is rounded to the budget
    as a scalar product would round it, so each coefficient is summed
    exactly and rounded once; no bivariate product is needed.
    """
    G = G.with_vars(("U", "V", "W"))
    ups = _line_powers(*U.line(0), G.degree("U"), order)
    vqs = _line_powers(*V.line(1), G.degree("V"), order)
    coeffs = []
    for c in G.coefficients_wrt("W"):
        terms = []
        for (p, q), value in c.terms.items():
            k = FixedBiSeries.const(value, 1)
            terms.append((p, q, k.re[0][0], k.im[0][0],
                          k.exp + p * U.exp + q * V.exp))
        E = min((t[4] for t in terms), default=0)
        rows: dict[int, tuple[list[int], list[int]]] = {}
        for p, q, kr, ki, e in terms:
            kr, ki = kr << e - E, ki << e - E
            rr, ri = rows.setdefault(q, ([0] * order, [0] * order))
            for i, (x, y) in enumerate(zip(*ups[p])):
                rr[i] += kr * x - ki * y
                ri[i] += kr * y + ki * x
        coeffs.append(FixedBiSeries.from_outer(
            [(r, vqs[q]) for q, r in rows.items()], E, order))
    return PolyInW(coeffs, zero_tol)


def _hp_element(f: FunctionSpec, center, element: TruncSeries,
                slot: int) -> FixedBiSeries:
    """phi(center + t) as a FixedBiSeries in t = x (slot 0) or t = y (slot 1).

    exp, sin and cos need one or two transcendental values at the center,
    taken from mpmath with guard bits and then scaled by 1/k! exactly; tan
    and rational functions are fixed-point quotients of such series.  Other
    specs convert `element`, their own Taylor data at the center.
    """
    order = element.order

    def fixed(values) -> FixedBiSeries:
        return FixedBiSeries.from_univariate(values, slot, order)

    if f.kind != "builtin":
        return fixed([element.coefficient(k) for k in range(order)])
    eff = _to_complex(center) + _to_complex(f.shift)
    if f.name == "rational":
        # exact Taylor shift of P and Q to the (binary, hence exact) center
        c = ExactScalar(Fraction(eff.real), Fraction(eff.imag))
        num, den = (fixed(cs) for cs in rational_taylor(f, c))
        return num * den.inverse()
    import mpmath as mp
    with mp.workprec(PREC_BITS + 32):
        z = mp.mpc(eff.real, eff.imag)
        consts = [mp.exp(z)] if f.name == "exp" else [mp.sin(z), mp.cos(z)]
        consts = [ExactScalar(_mpf_fraction(v.real), _mpf_fraction(v.imag))
                  for v in consts]
    if f.name != "tan":
        return fixed(builtin_taylor(f.name, consts, order))
    sin_t, cos_t = (fixed(builtin_taylor(g, consts, order)) for g in ("sin", "cos"))
    return sin_t * cos_t.inverse()


def _mpf_fraction(x) -> Fraction:
    """The exact binary value of an mpmath real."""
    man, exp = x.man_exp            # man is |mantissa|
    if x < 0:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _bi_keys(order: int):
    """(i, j) with i + j < order, in lexicographic order."""
    return ((i, j) for i in range(order) for j in range(order - i))


def _invariance_residual(p: PolyInW) -> float:
    worst = 0.0
    for c in p.coeffs:
        diff = c.derivative(0) - c.derivative(1)
        scale = max(c.max_abs(), 1.0)
        worst = max(worst, diff.max_abs() / scale)
    return worst


def _extract_psi(p: PolyInW, base) -> TruncSeries:
    """psi_r := -(first non-constant monic coefficient), restricted to v=0."""
    for j in range(p.degree - 1, -1, -1):
        c = p.coeffs[j]
        nonconst = [c.coefficient(i, k) for i, k in _bi_keys(c.order) if i + k]
        if c.exact:
            significant = any(not v.is_zero() for v in nonconst)
        else:
            scale = max(c.max_abs(), 1.0)
            significant = any(abs(v) > 1e-9 * scale for v in nonconst)
        if significant:
            s = (-c).restrict_y0()
            center = _add_shift(base, base)
            if s.exact and isinstance(center, ExactScalar):
                return TruncSeries(center, s.coeffs, low=s.low,
                                   order=s.order, exact=True)
            return TruncSeries(_to_complex(center),
                               [complex(x) for x in s.coeffs],
                               low=s.low, order=s.order, exact=False)
    # all coefficients constant: psi is a constant function
    c0 = p.coeffs[0]
    val = -c0.coefficient(0, 0)
    return TruncSeries(_to_complex(_add_shift(base, base)),
                       [complex(val)] + [0j] * 7, exact=False)


def _relation_against_psi(f: FunctionSpec, psi: TruncSeries, base,
                          cap: int) -> MultiPoly | None:
    """Lowest-degree H(phi, psi) = 0 with degrees up to `cap`, or None.

    Only the toolkit's own failures (e.g. OrderTooLow, a singular base)
    mean "no relation"; anything else is a defect and propagates.
    """
    center = psi.center
    try:
        for d in range(1, cap + 1):
            rel = algebraic_relation(f, FunctionSpec.element(psi, "psi"),
                                     (d, d), order=max(16, 4 * d + 6),
                                     base=center)
            if rel is not None:
                return rel
    except AatkitError:
        return None
    return None


# ---------------------------------------------------------------------------
# algebraic relation between two functions

def algebraic_relation(f, g, bounds: tuple[int, int], order: int = 16,
                       base=None) -> MultiPoly | None:
    """Polynomial H(X, Y) with H(f(u), g(u)) = 0, or None if none exists
    within the degree bounds.  X is the first function, Y the second."""
    d_f, d_g = bounds
    if order < 2 * (d_f + d_g) + 4:
        raise OrderTooLow(f"order {order} too small for bounds {bounds}")
    fs = _as_spec(f)
    gs = _as_spec(g)
    if base is None:
        base = fs.default_base()
        if not gs.is_regular(_to_complex(base)):
            base = next((b for b in (0, 0.5, 1, 0.25)
                         if fs.is_regular(complex(b)) and gs.is_regular(complex(b))),
                        base)
    sx = fs.element_at(base, order)
    sy = gs.element_at(base, order)
    if sx.exact != sy.exact:
        sx, sy = sx.to_numeric(), sy.to_numeric()
    monos = [(i, j) for i in range(d_f + 1) for j in range(d_g + 1)]
    monos.sort(key=lambda m: (sum(m), tuple(-e for e in m)))
    xp = _powers(sx, d_f)
    yp = _powers(sy, d_g)
    columns = [xp[i] * yp[j] for (i, j) in monos]
    n_rows = min(c.order for c in columns)
    rows = [[col.coefficient(k) for col in columns] for k in range(n_rows)]
    polys = _kernel_relations(rows, sx.exact, monos, ("X", "Y"))
    if not polys:
        return None
    polys.sort(key=lambda p: (p.total_degree(), len(p.terms)))
    return polys[0]


def _as_spec(f) -> FunctionSpec:
    if isinstance(f, FunctionSpec):
        return f
    if isinstance(f, TruncSeries):
        return FunctionSpec.element(f)
    raise TypeError("expected FunctionSpec or TruncSeries")
