"""T-duality verification for reductive groups with Cartan 3-form flux.

Assembles the direct sum of a Lie algebra and the algebra of its Langlands
dual, the coroot-preserving isomorphism between them (ADE only), the
dualizing 2-form with its central correction, and runs every condition of
the T-duality definition as an exact algebraic identity.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import ceforms, exactlin, rootdatum
from .ceforms import InvariantForm
from .chevalley import ReductiveLieAlgebra, build_lie_algebra
from .rootdatum import RootDatum


class NotADEError(ValueError):
    """The coroot-preserving isomorphism only exists for ADE-type data."""


@dataclass
class ProductPair:
    """g + g_dual as one object: the basis indices of L, then those of Ldual
    at offset L.dim.  F, dF and phi are forms on the pair itself."""
    datum: RootDatum
    dual_datum: RootDatum
    L: ReductiveLieAlgebra
    Ldual: ReductiveLieAlgebra
    iso: dict                   # label of g -> label of g_dual
    inverse: tuple              # _cartan_inverse(L): (X, d)
    dual_inverse: tuple         # _cartan_inverse(Ldual): (Y, d)
    fiber_pairing: list         # F = F0 + F_P on (z, h) x (zdual, hdual)
    spanning_set: list          # B: (name, {pair index: 1})
    owner: dict                 # index -> position in B

    @property
    def blocks(self):
        """The factors' bracket tables, each with its index offset: L's at
        0, Ldual's at L.dim."""
        return (0, self.L.table), (self.L.dim, self.Ldual.table)


def good_isomorphism(L: ReductiveLieAlgebra, Ldual: ReductiveLieAlgebra):
    """Coroot-preserving isomorphism g -> g_dual for ADE data.

    The dual algebra is built on the same simple indices, because
    positive_system commutes with dualization; the map sending
    each basis vector to its namesake (h_i to h_i^dual, x_alpha to
    x_alpha^dual, radical to the dual radical basis) does the job; it is
    certified as a bracket homomorphism by comparing structure tables.
    ``build_pair`` builds an ADE pair on one N-table, so the two tables
    hold one set of entries and the comparison is of equal dicts.
    """
    witness = rootdatum.ade_symmetry_witness(L.datum)
    if witness is not None:
        raise NotADEError(
            f"no coroot-preserving isomorphism for non-ADE datum (witness root pair {witness})"
        )
    if L.labels != Ldual.labels or L.table != Ldual.table:
        raise NotADEError("basis-wise identification is not a bracket homomorphism")
    return {lab: lab for lab in L.labels}


def build_pair(d: RootDatum) -> ProductPair:
    """Build g, g_dual on a shared simple system, check the isomorphism,
    invert each factor's Cartan basis, build the fiber pairing of the
    dualizing 2-form F = F0 + F_P, and the basis B of the fiber-product
    tangent space span(S) that the flux check runs on.  The two builds
    share their N-tables, so an ADE pair builds one bracket table, which
    the dual copies; each build still certifies its own copy."""
    tables = []
    L = build_lie_algebra(d, tables=tables)
    dd = rootdatum.dualize(d)
    Ldual = build_lie_algebra(dd, tables=tables)
    iso = good_isomorphism(L, Ldual)
    inverse, dual_inverse = _cartan_inverse(L), _cartan_inverse(Ldual)
    fiber_pairing = dualizing_pairing(L, Ldual, *inverse)

    # S = {h[alpha], x+phix[alpha], hdual[alpha] for every root, z, zdual};
    # h_alpha = sum_s (coroot coords of alpha)_s h_s, likewise in g_dual, so
    # B = {h[simple], hdual[simple], x+phix[alpha], z, zdual}, in the order
    # these have in S, spans S.  The members of B partition the pair's
    # indices, each with coefficient 1 (a simple coroot is the basis vector
    # at its simple position), so owner maps each index to its one member.
    B, owner = [], {}

    def add(name, vec):
        owner.update(dict.fromkeys(vec, len(B)))
        B.append((name, vec))

    n = L.dim
    h0, hd0 = len(L.radical_basis), n + len(Ldual.radical_basis)
    simple = {ri: s for s, ri in enumerate(L.simple_indices)}
    for ri in range(d.nroots):
        if ri in simple:
            add(f"h[{ri}]", {h0 + simple[ri]: 1})
        # X_xi + phi(X_xi); the Y-vector of xi is the X-vector of -xi.
        add(f"x+phix[{ri}]", {L.index[("x", ri)]: 1, n + Ldual.index[("x", ri)]: 1})
        if ri in simple:
            add(f"hdual[{ri}]", {hd0 + simple[ri]: 1})
    for k in range(len(L.radical_basis)):
        add(f"z[{k}]", {L.index[("z", k)]: 1})
        add(f"zdual[{k}]", {n + Ldual.index[("z", k)]: 1})
    return ProductPair(d, dd, L, Ldual, iso, inverse, dual_inverse, fiber_pairing, B, owner)


# ---------------------------------------------------------------------------
# The dualizing 2-form


def dualizing_pairing(L: ReductiveLieAlgebra, Ldual: ReductiveLieAlgebra, X, d):
    """The matrix of F = F0 + F_P on the Cartan bases (z, h) of g and
    (zdual, hdual) of g_dual; F vanishes off these two blocks.  (X, d) is
    _cartan_inverse(L).

    F_P(lambda, mu) = e <pi_z lambda, pi_zdual mu> on the radical block:
    pi_z projects onto the radical z along the coroots, pi_zdual onto the
    dual radical along the roots, and e is the exponent of
    Lambda / ((Lambda cap span_Q coroots) + (Lambda cap z)), the lcm of the
    denominators of the z-rows of X/d, the (z, h) coordinates of the unit
    vectors of Lambda.  So entry (k, j) is e (z_k . zdual_j): integral
    (e pi_z lambda lies in Lambda cap z, orthogonal to the roots) and
    independent of the lattice basis (README, "The radical block of F").
    F0 = sum over roots of (q* alpha) wedge (qdual* alpha-dual) is read off
    the pairing P of the datum: alpha(h_s) = P[s][alpha] and
    alpha-dual(hdual_t) = P[alpha][t] on the simple coroots, and both
    vanish on the radical, so F0(h_s, hdual_t) = sum_alpha P[s][alpha] P[alpha][t].
    The blocks between the radical of one factor and the simple coroots of
    the other are zero."""
    P = L.datum.pairing
    nz = len(L.radical_basis)
    cols = [[row[t] for row in P] for t in Ldual.simple_indices]
    e = lcm(*(d // gcd(x, d) for row in X[:nz] for x in row))
    radical = [[e * sum(map(mul, z, zdual)) for zdual in Ldual.radical_basis] + [0] * len(cols)
               for z in L.radical_basis]
    return radical + [[0] * nz + [sum(map(mul, P[s], col)) for col in cols] for s in L.simple_indices]


def flux_residual_form(pairobj: ProductPair) -> InvariantForm:
    """phi = dF - (q*H - qdual*Hdual) as a stored 3-form on the whole pair;
    identically zero only after restriction to span(S).  F is the 2-form
    with the fiber pairing entry (a, b) on the term (a, L.dim + b).  H and
    Hdual (shifted to the second factor) are summed into dF's own dict.
    phi is linear in (F, H, Hdual) together, so the residual at scale n is
    phi.scale(n)."""
    n = pairobj.L.dim
    F = InvariantForm(pairobj, 2, {
        (a, n + b): v for a, row in enumerate(pairobj.fiber_pairing) for b, v in enumerate(row)
    })
    dF = ceforms.ce_differential(F)
    H = ceforms.cartan_three_form(pairobj.L)
    Hd = ceforms.cartan_three_form(pairobj.Ldual)
    terms = dF.terms
    for key, v in H.terms.items():
        terms[key] = terms.get(key, 0) - v
    for (i, j, k), v in Hd.terms.items():
        key = (i + n, j + n, k + n)
        terms[key] = terms.get(key, 0) + v
    return InvariantForm(pairobj, 3, terms)


def check_flux_equation(pairobj: ProductPair, phi: InvariantForm):
    """phi = 0 on span(S), checked on the basis B of span(S).

    The residual phi is trilinear, so it vanishes on S^3 iff it vanishes on
    B^3.  The members of B partition the indices with coefficient 1, so a
    term e_i^e_j^e_k of phi contributes to phi(b_p, b_q, b_r) only when
    i, j, k have the three distinct owners p, q, r, and then with the sign
    of that permutation.  One pass over phi.terms thus gives phi on every
    triple of B; a failure names the smallest nonzero triple.
    """
    owner = pairobj.owner
    sums = {}
    for (i, j, k), v in phi.terms.items():
        triple, sign = ceforms.sort_sign((owner[i], owner[j], owner[k]))
        if sign:
            sums[triple] = sums.get(triple, 0) + sign * v
    bad = min((t for t, r in sums.items() if r), default=None)
    if bad is None:
        return CheckRecord("flux_equation", True)
    return CheckRecord("flux_equation", False, [pairobj.spanning_set[p][0] for p in bad], frac_str(sums[bad]))


# ---------------------------------------------------------------------------
# The remaining checks


@dataclass
class CheckRecord:
    name: str
    passed: bool
    witness: object = None
    residual: str = None
    seconds: float = 0.0        # set by verify_all, which times each check call

    def as_dict(self, timing=True):
        out = {"name": self.name, "pass": self.passed, "witness": self.witness, "residual": self.residual}
        if timing:
            out["seconds"] = round(self.seconds, 3)
        return out


def frac_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def check_nondegeneracy(pairobj: ProductPair):
    """det of the fiber pairing is nonzero, and the eigen-relation
    2 sum_alpha alpha(h_beta) h_alpha = K(h_beta,h_beta) h_beta holds for
    every coroot; a failure carries the first nonzero lattice coordinate of
    the difference of the two sides."""
    det = exactlin.det_exact(pairobj.fiber_pairing)
    if det == 0:
        return CheckRecord("nondegeneracy", False, "fiber pairing matrix is singular", "0/1")
    d = pairobj.datum
    # T = sum_alpha alpha^vee (x) alpha maps h to sum_alpha alpha(h) h_alpha
    # in lattice coordinates; K(h_beta, h_beta) is kappa[beta], the root sum
    # of the N-table.
    T = [[sum(map(mul, col, row)) for row in zip(*d.roots)] for col in zip(*d.coroots)]
    for ri, (coroot, c) in enumerate(zip(d.coroots, pairobj.L.kappa)):
        diff = [2 * sum(map(mul, row, coroot)) - c * y for row, y in zip(T, coroot)]
        if any(diff):
            return CheckRecord(
                "nondegeneracy", False, f"eigen-relation fails for coroot {ri}", frac_str(next(filter(None, diff)))
            )
    return CheckRecord("nondegeneracy", True, None, frac_str(det))


def lattice_pairing_matrix(pairobj: ProductPair):
    """Values of F on the lattice bases of the two fibers: rows over the
    standard basis of the weight lattice, columns over its dual.

    The unit vectors of Lambda have (z, h) coordinates X/dx, the columns of
    the pair's integer inverse of the (z, h) basis matrix, and those of the
    dual lattice Y/dy likewise.  F is bilinear, so M = X^T P Y / (dx dy),
    with P the fiber pairing matrix."""
    (X, dx), (Y, dy) = pairobj.inverse, pairobj.dual_inverse
    XtP = [[sum(map(mul, x, p)) for p in zip(*pairobj.fiber_pairing)] for x in zip(*X)]
    return [[Fraction(sum(map(mul, row, y)), dx * dy) for y in zip(*Y)] for row in XtP]


def _cartan_inverse(L: ReductiveLieAlgebra):
    """(X, d): column t of X/d is the unit vector e_t of Lambda in the
    (z, h) basis of the Cartan subalgebra (the radical basis, then the
    simple coroots)."""
    cols = L.radical_basis + [L.datum.coroots[i] for i in L.simple_indices]
    return exactlin.integer_inverse([list(row) for row in zip(*cols)])


def check_integrality(M):
    """Every entry of the lattice pairing matrix M is an integer."""
    for a, row in enumerate(M):
        for b, v in enumerate(row):
            if v.denominator != 1:
                return CheckRecord("integrality", False, f"lattice pairing ({a},{b})", frac_str(v))
    return CheckRecord("integrality", True)


def check_angle_positivity(pairobj: ProductPair):
    """alpha(h_beta) beta(h_alpha) lies in {0,...,4} for all root pairs.
    On a symmetric P (is_ade) each product is the square P[i][j]^2, so the
    check passes exactly when every |P[i][j]| <= 2, read off the two
    extremes of P.  Otherwise row i holds the products P[j][i] P[i][j] over
    j, one map of column i, drawn one at a time, with row i; only a row
    whose minimum or maximum is out of range is scanned for its first j."""
    P = pairobj.datum.pairing
    if rootdatum.is_ade(pairobj.datum) and min(map(min, P), default=0) >= -2 and max(map(max, P), default=0) <= 2:
        return CheckRecord("angle_positivity", True)
    for i, (col, row) in enumerate(zip(zip(*P), P)):
        values = list(map(mul, col, row))
        if min(values) < 0 or max(values) > 4:
            j, v = next((j, v) for j, v in enumerate(values) if v < 0 or v > 4)
            return CheckRecord("angle_positivity", False, [i, j], frac_str(v))
    return CheckRecord("angle_positivity", True)


def check_ade_symmetry(d: RootDatum):
    w = rootdatum.ade_symmetry_witness(d)
    if w is None:
        return CheckRecord("ade_symmetry", True)
    i, j = w
    return CheckRecord(
        "ade_symmetry",
        False,
        {
            "roots": [i, j],
            "alpha(h_beta)": frac_str(d.pairing[j][i]),
            "beta(h_alpha)": frac_str(d.pairing[i][j]),
        },
    )


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class VerificationReport:
    """The data as verified, in their input order, and the checks.  as_dict
    writes each datum in canonical order; its type and pi1 do not depend
    on the order of the pairs, so the source's chamber serves."""
    datum: RootDatum
    dual: RootDatum = None
    phi: object = None
    checks: list = field(default_factory=list)
    scaled_n: list = field(default_factory=list)

    @property
    def overall(self):
        return bool(self.checks) and all(c.passed for c in self.checks)

    @staticmethod
    def _datum_dict(d):
        out = rootdatum.to_json_dict(d)
        out["type"] = rootdatum.classify_label(d)
        out["pi1"] = rootdatum.fundamental_group(d)
        return out

    def as_dict(self, timing=True):
        return {
            "datum": self._datum_dict(self.datum),
            "dual": self._datum_dict(self.dual) if self.dual is not None else None,
            "phi": self.phi,
            "checks": [c.as_dict(timing) for c in self.checks],
            "overall": self.overall,
            "scaled_n": list(self.scaled_n),
        }


def verify_all(d: RootDatum, scales=()) -> VerificationReport:
    """Run the full T-duality check pipeline on a root datum.

    Order: ADE symmetry (abort on failure), nondegeneracy, integrality,
    angle positivity, flux equation, then the flux and integrality checks
    again for each requested nonzero integer scale n, on n*phi and n*M.
    phi is walked once: its failing triple and value give those of n*phi.
    A zero scale is refused before anything is validated or built.
    """
    if 0 in scales:
        raise ValueError("scale must be a nonzero integer")
    rep = rootdatum.validate(d)
    if not rep.ok:
        raise ValueError(f"invalid root datum: {rep.as_dict()}")
    report = VerificationReport(datum=d)

    def run(check, *args):
        """The record of check(*args), timed and appended to the report."""
        t0 = time.monotonic()
        rec = check(*args)
        rec.seconds = time.monotonic() - t0
        report.checks.append(rec)
        return rec

    if not run(check_ade_symmetry, d).passed:
        return report
    pairobj = build_pair(d)
    report.dual = pairobj.dual_datum
    report.phi = {f"{a[0]}{a[1]}": f"{b[0]}{b[1]}" for a, b in pairobj.iso.items()}
    run(check_nondegeneracy, pairobj)
    M = lattice_pairing_matrix(pairobj)
    run(check_integrality, M)
    run(check_angle_positivity, pairobj)
    flux = run(check_flux_equation, pairobj, flux_residual_form(pairobj))
    for n in scales:
        report.scaled_n.append(n)
        # n*phi has the nonzero terms of phi (n != 0), each n times the value.
        residual = None if flux.passed else frac_str(n * Fraction(flux.residual))
        report.checks.append(CheckRecord(f"flux_equation[scale={n}]", flux.passed, flux.witness, residual))
        rec = run(check_integrality, [[n * v for v in row] for row in M])
        rec.name = f"integrality[scale={n}]"
    return report
