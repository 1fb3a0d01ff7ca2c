"""Addition-theorem engines.

verify_aat substitutes three series elements of one function into a
candidate polynomial G(U, V, W) and decides whether
G(phi(u), phi(v), phi(u+v)) vanishes: identically to the working order in
exact mode, or below tolerance on a random sample in numeric mode.

discover_aat inverts that: it builds the linear system satisfied by the
coefficients of G over a monomial box and returns a basis of its kernel:
for exact Taylor data from the residue engine (zi.modular_kernel: images
modulo primes, lifted to Q(i) and proved by exact residuals), by
thresholded SVD otherwise.

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
from itertools import product

import numpy as np

from .elimination import PolyInW, _gcd_series, gcd_in_w, monic_in_w, resultant
from .errors import (
    AatkitError,
    ChainCollapse,
    InvariantViolation,
    MissingVariable,
    OrderTooLow,
    OrderTooLowForDegree,
    PreconditionFailed,
    SchemaError,
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
from .scalars import ExactScalar, rationalize
from .series import (
    PREC_BITS,
    BiSeries,
    TruncSeries,
    coefficient_rows,
    compose_shift,
    outer_sums,
    radius_estimate,
)
from .zi import gaussian_integers, modular_kernel

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
    return U, V, W


def relation_residual(G: MultiPoly, U: BiSeries, V: BiSeries, W: BiSeries) -> BiSeries:
    """G evaluated on three bivariate series (the addition-theorem residual),
    for U a series in x only and V one in y only: its W-coefficients from
    _poly_in_w, then a Horner scheme in W."""
    coeffs = _poly_in_w(G, U, V, min(U.order, V.order, W.order))
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * W + c
    return acc


def element_relation_residual(G: MultiPoly, p1: TruncSeries, p2: TruncSeries,
                              p3: TruncSeries) -> BiSeries:
    """G(P1(x), P2(y), P3(x+y)) as a bivariate series."""
    order = min(p1.order, p2.order, p3.order)
    U = BiSeries.from_univariate(p1, slot=0, order=order)
    V = BiSeries.from_univariate(p2, slot=1, order=order)
    W = compose_shift(p3).truncate(order)
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
    `tol`: pairs are drawn in chunks of the number still needed, at most
    `samples * 20`, and kept where phi is regular at u, v and u + v with the
    three values finite and at most 1e6 in modulus.  Refutations report the
    first failing total degree.  The order checked, the smallest order of
    the three elements, must exceed deg G.
    """
    _check_uvw_vars(G)
    if G.is_zero():
        raise PreconditionFailed("G is the zero polynomial, which relates nothing")
    _check_degree(G, order)
    if base is None:
        base = f.default_base()
    return _verify_elements(G, f, base, _elements_uvw(f, base, order), tol, samples, seed)


def _verify_elements(G: MultiPoly, f: FunctionSpec, base, uvw: tuple, tol: float = 1e-9,
                     samples: int = 50, seed: int = 0) -> AatCertificate:
    """verify_aat on the elements (U, V, W) of f at the base, for a nonzero
    G in (U, V, W)."""
    U, V, W = uvw
    n = min(U.order, V.order, W.order)
    _check_degree(G, n)
    residual = relation_residual(G, U, V, W)
    base_c = _to_complex(base)
    if residual.exact:
        val = residual.valuation()
        status = "verified" if val is None else "refuted"
        return AatCertificate(G, n, status, "exact", base_c,
                              residual_valuation=n if val is None else val,
                              first_failure=val)
    # numeric: series screen plus random sampling
    val = residual.valuation(tol=1e-7)
    rng = np.random.default_rng(seed)
    worst, got, drawn = 0.0, 0, 0
    gscale = max(abs(complex(c)) for c in G.terms.values())
    half = np.array([0.6, 0.3, 0.6, 0.3])  # re u, im u, re v, im v
    with np.errstate(all="ignore"):
        while got < samples and drawn < samples * 20:
            k = min(samples - got, samples * 20 - drawn)
            drawn += k
            uv = rng.uniform(-half, half, size=(k, 4)).view(complex) + base_c
            u, v = uv[:, 0], uv[:, 1]
            ok = f.is_regular_many(u) & f.is_regular_many(v) & f.is_regular_many(u + v)
            u, v = u[ok], v[ok]
            fu, fv, fw = f.eval_many(u), f.eval_many(v), f.eval_many(u + v)
            big = np.maximum(np.maximum(np.abs(fu), np.abs(fv)), np.abs(fw))
            keep = big <= 1e6
            r = np.abs(G.eval({"U": fu[keep], "V": fv[keep], "W": fw[keep]}))
            scale = gscale * np.maximum(1.0, big[keep]) ** G.total_degree()
            worst = float(np.max(r / scale, initial=worst))
            got += int(np.count_nonzero(keep))
    if got == 0:
        raise SingularBasePoint("no regular sample points found")
    status = "verified" if (worst < tol and val is None) else "refuted"
    return AatCertificate(G, n, status, "numeric", base_c,
                          residual_max=worst, first_failure=val)


def _check_degree(G: MultiPoly, order: int):
    """OrderTooLowForDegree unless the order exceeds the total degree of G."""
    if order <= G.total_degree():
        raise OrderTooLowForDegree(
            f"order {order} must exceed deg G = {G.total_degree()}")


# ---------------------------------------------------------------------------
# discovery

def _grlex_monomials(bounds: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Monomial box in graded-lex order (U < V < W, X < Y)."""
    return sorted(product(*(range(b + 1) for b in bounds)),
                  key=lambda m: (sum(m), tuple(-e for e in m)))


def normalize_relation(p: MultiPoly) -> MultiPoly:
    """Scale so the first nonzero coefficient in graded-lex order is 1."""
    if p.is_zero():
        return p
    items = sorted(p.terms.items(), key=lambda t: (sum(t[0]),
                                                   tuple(-e for e in t[0])))
    lead = items[0][1]
    return p.scale(ExactScalar.one() / lead)


_SVD_GAP = 1e4      # the least ratio s_(k-1) / s_k that separates a kernel
_DROP_REL = 1e-9    # kernel coefficients below this share of the largest are zero


def _numeric_nullspace(A: np.ndarray, rel: float = 1e-8) -> list[list[ExactScalar | None]]:
    """SVD kernel at the largest singular-value gap, reduced to row-echelon
    form and rationalized.

    With singular values s_0 >= s_1 >= ... (zeros for the columns beyond
    the rows) relative to s_0 and floored at the double precision eps, the
    kernel is spanned by the right singular vectors k, k + 1, ... for the
    boundary k with the largest ratio s_(k-1) / s_k among those with s_k at
    most rel and a ratio of at least _SVD_GAP; it is empty when there is
    none, and everything when A is zero.  A cluster of small singular
    values with no gap is noise at the elements' precision, not a kernel.
    A kernel vector is then known to about s_k / s_(k-1) (Wedin's bound),
    so coefficients below that share of the largest are dropped as noise.
    The echelon pass makes the basis canonical (each vector supported on a
    distinct leading monomial), so minimal relations surface as-is instead
    of arbitrary rotations of the kernel.
    """
    if A.size == 0:
        return []
    _u, s, vh = np.linalg.svd(A)
    ncols = A.shape[1]
    k, floor = 0, _DROP_REL
    if len(s) and s[0] > 0:
        rs = np.maximum(np.pad(s / s[0], (0, ncols - len(s))), np.finfo(float).eps)
        gaps = np.where(rs[1:] <= rel, rs[:-1] / rs[1:], 0.0)
        if not len(gaps) or gaps.max() < _SVD_GAP:
            return []
        k = 1 + int(np.argmax(gaps))
        floor = max(floor, 1.0 / gaps[k - 1])
    basis = [vh[idx].conj() for idx in range(k, ncols)]
    if len(basis) <= 1:
        return [_clean_numeric_vec(v, floor) for v in basis]
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
    return [_clean_numeric_vec(rows[i], floor) for i in range(r)]


def discover_aat(f: FunctionSpec, degree_bounds: tuple[int, int, int],
                 order: int = 16, base=None) -> list[MultiPoly]:
    """Basis of addition-theorem polynomials within the degree bounds.

    The coefficients of G over the monomials U^i V^j W^k of the box solve
    a linear system over the bivariate series coefficients of U = phi(u),
    V = phi(v) and W = phi(u+v); its reduced kernel basis comes back as
    normalized polynomials, and an empty list means no relation at these
    bounds.  Exact Taylor data gives the exact kernel, from residues modulo
    primes proved by exact residuals (_residue_kernel); other data a
    numeric one (_column_kernel).  The three bounds must be nonnegative;
    the order and the smallest element order must reach 2 (d_u + d_v +
    d_w) + 4.
    """
    _check_bounds(degree_bounds, 3)
    min_order = 2 * sum(degree_bounds) + 4
    if order < min_order:
        raise OrderTooLow(f"order {order} < required {min_order} for bounds "
                          f"{degree_bounds}")
    if base is None:
        base = f.default_base()
    return _discover_elements(_elements_uvw(f, base, order), degree_bounds)


def _check_bounds(bounds: tuple[int, ...], k: int):
    """PreconditionFailed unless there are k degree bounds, all nonnegative."""
    if len(bounds) != k or min(bounds) < 0:
        raise PreconditionFailed(f"expected {k} nonnegative degree bounds; got {tuple(bounds)}")


def _discover_elements(uvw: tuple, degree_bounds: tuple[int, int, int]) -> list[MultiPoly]:
    """discover_aat on the elements (U, V, W), whose order must reach
    2 (d_u + d_v + d_w) + 4: the exact kernel (_residue_kernel) when all
    three are on the rational scale, else the numeric one (_column_kernel)."""
    U, V, W = uvw
    min_order = 2 * sum(degree_bounds) + 4
    monos = _grlex_monomials(degree_bounds)
    n = min(U.order, V.order, W.order)
    if n < min_order:
        raise OrderTooLow(f"element order {n} < required {min_order} for bounds "
                          f"{degree_bounds}")
    if U.exact and V.exact and W.exact:
        return _residue_kernel(U, V, W, monos, n)
    return _column_kernel(U, V, W, monos, n)


def _column_kernel(U: BiSeries, V: BiSeries, W: BiSeries, monos: list[tuple],
                   n: int) -> list[MultiPoly]:
    """The numeric route: the columns U^i V^j W^k as series on one scale
    (binary if W is), and the thresholded SVD kernel of their coefficient
    matrix to order n."""
    # each distinct U^i V^j is one outer product, and W^k enters by one
    # product if k > 0
    keys = sorted({m[:2] for m in monos})
    uvs = outer_sums(U, V, [{k: 1} for k in keys], n)
    if not W.exact:
        uvs = [uv.to_binary() for uv in uvs]
    uv = dict(zip(keys, uvs))
    wps = _powers(W.truncate(n), max(m[2] for m in monos))
    cols = [uv[i, j] * wps[k] if k else uv[i, j] for i, j, k in monos]
    rows = np.array(coefficient_rows(cols, n), dtype=complex)
    return _kernel_relations(_numeric_nullspace(rows), monos, ("U", "V", "W"))


def _residue_kernel(U: BiSeries, V: BiSeries, W: BiSeries, monos: list[tuple],
                    n: int) -> list[MultiPoly]:
    """The relations of the box for rational U = u(x), V = v(y) and W =
    w(x + y), by zi.modular_kernel, each proved by relation_residual.

    Column U^i V^j W^k modulo p is T_(u^i) W_k T_(v^j)^T, T_a the lower
    triangular Toeplitz matrix of a line a and W_k[p, q] = C(p + q, p)
    (w^k)_(p+q), reduced after each int64 product."""
    at = np.add.outer(np.arange(n), np.arange(n))             # total degree
    top = [max(m[t] for m in monos) for t in range(3)]
    rows = np.nonzero(at < n)

    def image(p: int, iota: int) -> np.ndarray | None:
        res = [s.residues(p, iota) for s in (U, V, W)]
        if any(r is None for r in res):
            return None
        u, v, w = (np.where(at < n, r[:n, :n], 0) for r in res)
        binom = np.array([[math.comb(i + j, i) % p for j in range(n)] for i in range(n)],
                         dtype=np.int64)
        wks = _line_powers_mod(w[:, 0], max(top[2], 1), p)
        wks = binom * np.pad(wks, ((0, 0), (0, n)))[:, at] % p      # (w^k)(x + y)
        if u[:, 1:].any() or v[1:].any() or not np.array_equal(wks[1], w):
            raise InvariantViolation("discovery needs elements u(x), v(y) and w(x + y)")
        tu = _toeplitz(_line_powers_mod(u[:, 0], top[0], p))
        tv = _toeplitz(_line_powers_mod(v[0], top[1], p)).transpose(0, 2, 1)
        left = np.matmul(tu[:, None], wks[None, :top[2] + 1]) % p       # [i, k]
        cols = np.matmul(left[:, None], tv[None, :, None]) % p          # [i, j, k]
        return np.stack([cols[m][rows] for m in monos], axis=1)

    rels: list[MultiPoly] = []      # those of the vectors last proposed

    def proves(vecs: list) -> bool:
        rels[:] = _kernel_relations(vecs, monos, ("U", "V", "W"))
        return all(relation_residual(G, U, V, W).valuation() is None for G in rels)

    modular_kernel(image, proves, not (U.real and V.real and W.real))
    return rels


def _line_powers_mod(a: np.ndarray, top: int, p: int) -> np.ndarray:
    """Rows a^0 .. a^top modulo p of a line of n residues, n entries each."""
    out = [np.eye(1, len(a), dtype=np.int64)[0]]
    for _ in range(top):
        out.append(np.convolve(out[-1], a)[:len(a)] % p)
    return np.array(out)


def _toeplitz(lines: np.ndarray) -> np.ndarray:
    """Per line a of n entries, the n x n lower triangular Toeplitz matrix
    with entry [i, j] = a[i - j]: the product by a on coefficient vectors."""
    n = lines.shape[1]
    d = np.subtract.outer(np.arange(n), np.arange(n))
    return np.where(d >= 0, lines[:, d], 0)


def _kernel_relations(vecs: list[list], monos: list[tuple],
                      vars: tuple[str, ...]) -> list[MultiPoly]:
    """Kernel vectors (entries per monomial, None if dropped) as relations."""
    terms = ({m: c for m, c in zip(monos, v) if c is not None and not c.is_zero()}
             for v in vecs)
    return [normalize_relation(MultiPoly(vars, t)) for t in terms if t]


def _powers(s, top: int) -> list:
    """[1, s, ..., s^top] of a TruncSeries or BiSeries by repeated products."""
    out = [s ** 0]
    for _ in range(top):
        out.append(out[-1] * s)
    return out


def _clean_numeric_vec(vec: np.ndarray, floor: float = _DROP_REL) -> list[ExactScalar | None]:
    """Rationalize a numeric kernel vector for readable output.

    The vector is scaled by its largest entry first; entries below floor
    are dropped (None), and those that refuse a small rational form are
    kept as float-backed rationals.
    """
    scale = max(abs(x) for x in vec)
    if scale == 0:
        return [None] * len(vec)
    idx = int(np.argmax(np.abs(vec)))
    v = vec / vec[idx]
    out: list[ExactScalar | None] = []
    for x in v:
        if abs(x) < floor:
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
    verified to the working order (the smallest element order, which must
    exceed deg G) before returning.
    """
    _check_uvw_vars(G)
    s1, s2, s3 = (_as_series(p) for p in (p1, p2, p3))
    if order is not None:
        s1, s2, s3 = (s.truncate(order) for s in (s1, s2, s3))
    work_order = min(s1.order, s2.order, s3.order)
    _check_degree(G, work_order)
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
    raise SchemaError("expected a TruncSeries or FunctionSpec element")


def _subst_const(G: MultiPoly, var: str, value, exact: bool) -> MultiPoly:
    if exact:
        c = ExactScalar.coerce(value)
    else:
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
    the relation has W-degree above one the chain runs on binary-scale
    BiSeries (PREC_BITS-bit fixed-point Gaussian integers) instead of doubles.
    """
    _check_uvw_vars(G)
    if shifts is not None:
        for k in shifts:
            if complex(k) == 0:
                raise ShiftDegenerate("zero shift supplied")
    if base is None:
        base = f.default_base()
    cert = verify_aat(G, f, order=min(order, 16), base=base)
    if not cert.verified or G.degree("W") < 1:      # G = 0 verifies trivially
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
        trial = _gcd_series(carrier, shifted)     # normalized only if kept
        if trial.degree == carrier.degree:
            break
        trial = monic_in_w(trial)
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
    are on the binary scale: fixed-point Gaussian integers with
    PREC_BITS-bit mantissas, which reach the working order where doubles
    cannot.  Otherwise they are exact (rational scale).
    """
    bu = _add_shift(base, sigma) if sigma == 0 else _to_complex(base) + sigma
    bv = _add_shift(base, -sigma) if sigma == 0 else _to_complex(base) - sigma
    su = f.element_at(bu, order)   # also rejects singular centers
    sv = f.element_at(bv, order)
    if not su.exact or force_hp:
        U, V = _hp_element(f, bu, su, slot=0), _hp_element(f, bv, sv, slot=1)
    else:
        U = BiSeries.from_univariate(su, 0, order)
        V = BiSeries.from_univariate(sv, 1, order)
    return PolyInW(_poly_in_w(G, U, V, order), zero_tol)


def _poly_in_w(G: MultiPoly, U: BiSeries, V: BiSeries, order: int) -> list[BiSeries]:
    """The coefficients of G(U, V, W) as a polynomial in W, to the given
    order, for U a series in x only and V one in y only (outer_sums)."""
    G = G.with_vars(("U", "V", "W"))
    return outer_sums(U, V, [c.terms for c in G.coefficients_wrt("W")], order)


def _hp_element(f: FunctionSpec, center, element: TruncSeries,
                slot: int) -> BiSeries:
    """phi(center + t) on the binary scale in t = x (slot 0) or t = y (slot 1).

    exp, sin and cos need one or two transcendental values at the center,
    taken from mpmath with guard bits as integers over one power of two:
    their exact Taylor line (TruncSeries.taylor) is rounded once.  tan and
    rational functions are fixed-point quotients of such series.  Other
    specs round `element`, their own Taylor data at the center.
    """
    order = element.order

    def fixed(s: TruncSeries) -> BiSeries:
        return BiSeries.from_univariate(s, slot).to_binary()

    if f.kind != "builtin":
        return fixed(element)
    eff = _to_complex(center) + _to_complex(f.shift)
    if f.name == "rational":
        # exact Taylor shift of P and Q to the (binary, hence exact) center
        c = ExactScalar(Fraction(eff.real), Fraction(eff.imag))
        num, den = (fixed(s) for s in rational_taylor(f, c, order))
        return num * den.inverse()
    import mpmath as mp
    with mp.workprec(PREC_BITS + 32):
        z = mp.mpc(eff.real, eff.imag)
        values = [mp.exp(z)] if f.name == "exp" else [mp.sin(z), mp.cos(z)]
    parts = [(-m if x < 0 else m, e) for v in values for x in (v.real, v.imag)
             for m, e in [x.man_exp]]              # x = m 2^e
    low = min(0, *(e for _, e in parts))
    ints = [m << e - low for m, e in parts]        # over 2^-low
    re, im = ints[::2], ints[1::2]

    def taylor(g: str) -> BiSeries:
        return fixed(TruncSeries.taylor(0, 1 << -low, builtin_taylor(g, re, order),
                                        builtin_taylor(g, im, order)))

    if f.name != "tan":
        return taylor(f.name)
    return taylor("sin") * taylor("cos").inverse()


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
                return s.with_center(center)
            return s.to_numeric().with_center(_to_complex(center))
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
    within the two degree bounds, which must be nonnegative.  X is the
    first function, Y the second."""
    _check_bounds(bounds, 2)
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
    monos = _grlex_monomials(bounds)
    xp = _powers(sx, d_f)
    yp = _powers(sy, d_g)
    columns = [xp[i] * yp[j] for (i, j) in monos]
    n_rows = min(c.order for c in columns)
    rows = [[col.coefficient(k) for col in columns] for k in range(n_rows)]
    if sx.exact:            # each row over its denominators' lcm, proved exactly
        zrows = [list(zip(*gaussian_integers(row)[1:])) for row in rows]

        def image(p: int, iota: int) -> np.ndarray:
            return np.array([[(x + iota * y) % p for x, y in r] for r in zrows], dtype=np.int64)

        def proves(vecs: list) -> bool:
            ws = [gaussian_integers(v)[1:] for v in vecs]
            return not any(sum(a * x - b * y for (a, b), x, y in zip(r, wr, wi)) or
                           sum(a * y + b * x for (a, b), x, y in zip(r, wr, wi))
                           for wr, wi in ws for r in zrows)

        vecs = modular_kernel(image, proves, any(y for r in zrows for _, y in r))
    else:
        vecs = _numeric_nullspace(np.array(rows, dtype=complex))
    polys = _kernel_relations(vecs, monos, ("X", "Y"))
    if not polys:
        return None
    polys.sort(key=lambda p: (p.total_degree(), len(p.terms)))
    return polys[0]


def _as_spec(f) -> FunctionSpec:
    if isinstance(f, FunctionSpec):
        return f
    if isinstance(f, TruncSeries):
        return FunctionSpec.element(f)
    raise SchemaError("expected FunctionSpec or TruncSeries")
