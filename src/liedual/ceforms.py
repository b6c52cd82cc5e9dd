"""Left-invariant differential forms as alternating multilinear forms on a
Lie algebra: wedge products, the invariant-form differential, the Cartan
3-form, and the flat-torus duality transform.

Forms are stored sparsely on sorted index subsets with exact coefficients
(ints on a Chevalley basis) and hold nothing else.  The flux equation is
linear, so the prefactor -1/(4 pi^2) that F, dF, H, Hdual and phi share
cancels out of phi = 0: they are all stored as integers in units of
-1/(4 pi^2).
"""

from fractions import Fraction

from . import exactlin


class AbelianAlgebra:
    """Abelian Lie algebra of a given dimension (flat-torus model)."""

    def __init__(self, dim):
        self.dim = dim

    blocks = ()


def sort_sign(idx):
    """Sort an index tuple; return (sorted tuple, permutation sign) or
    (None, 0) when an index repeats."""
    if len(idx) == 3:
        # The hot case (3-forms, and the differential of 2-forms), branched.
        a, b, c = idx
        if a == b or b == c or a == c:
            return None, 0
        if a < b:
            if b < c:
                return (a, b, c), 1
            return ((a, c, b), -1) if a < c else ((c, a, b), 1)
        if a < c:
            return (b, a, c), -1
        return ((b, c, a), 1) if b < c else ((c, b, a), -1)
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class InvariantForm:
    """Degree-k alternating form, sparse over sorted k-subsets of basis
    indices.  Degree 0 is a single scalar stored under the empty tuple."""

    def __init__(self, algebra, degree, terms=None):
        self.algebra = algebra
        self.degree = degree
        clean = {}
        for key, val in (terms or {}).items():
            if len(key) != degree:
                raise ValueError("term arity does not match the degree")
            if list(key) != sorted(set(key)):
                raise ValueError("term keys must be sorted and distinct")
            if val:
                clean[tuple(key)] = val
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def scale(self, c):
        return InvariantForm(
            self.algebra, self.degree, {k: c * v for k, v in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, InvariantForm)
            and self.algebra is other.algebra
            and self.degree == other.degree
            and self.terms == other.terms
        )


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    if a.algebra is not b.algebra:
        raise ValueError("wedge requires forms on the same algebra")
    out = {}
    for ka, va in a.terms.items():
        sa = set(ka)
        for kb, vb in b.terms.items():
            if sa & set(kb):
                continue
            key, sign = sort_sign(ka + kb)
            out[key] = out.get(key, 0) + sign * va * vb
    return InvariantForm(a.algebra, a.degree + b.degree, out)


def ce_differential(w: InvariantForm) -> InvariantForm:
    """Invariant-form differential:
    dw(x_0..x_k) = sum_{a<b} (-1)^{a+b} w([x_a,x_b], ..hat a..hat b..).

    The terms of w are indexed by basis index, so each bracket
    [e_i, e_j] = sum_k c e_k acts only on the terms whose key holds k, with
    w(e_k, rest) = (-1)^(position of k) w(key).  Such a term adds to dw on
    the sorted key of (i, j, rest); (-1)^{a+b} there is minus the sign that
    sorts (i, j, rest), whatever the order of i and j.  The brackets are
    read from each bracket table of alg.blocks in place, at its offset."""
    alg = w.algebra
    if w.degree == 0:
        return InvariantForm(alg, 1)
    by_index = {}                   # k -> [(rest of key, w(e_k, rest))]
    for key, v in w.terms.items():
        for pos, k in enumerate(key):
            by_index.setdefault(k, []).append((key[:pos] + key[pos + 1 :], -v if pos % 2 else v))
    out = {}
    for off, table in alg.blocks:
        local = {k - off: hits for k, hits in by_index.items()}
        for (i, j), outs in table.items():
            for k, c in outs.items():
                for rest, v in local.get(k, ()):
                    cand, sign = sort_sign((i + off, j + off) + rest)
                    if sign:
                        out[cand] = out.get(cand, 0) - sign * c * v
    return InvariantForm(alg, w.degree + 1, out)


def cartan_three_form(L) -> InvariantForm:
    """H(x,y,z) = K(x,[y,z]) on each basis triple, in units of -1/(4 pi^2): the
    Cartan 3-form is -1/(4 pi^2) K(x,[y,z]), and F, dF and phi share that
    unit (module docstring).  Each bracket [e_j, e_k] = sum_m c_m e_m is read
    against only the nonzero entries of column m of K, which is its row m, as
    K is symmetric.  Total antisymmetry is verified while filling."""
    K = L.killing_matrix()
    terms = {}
    for (j, k), outs in L.table.items():
        vals = {}
        for m, c in outs.items():
            for i, v in K[m].items():
                vals[i] = vals.get(i, 0) + c * v
        for i, v in vals.items():
            if not v or i == j or i == k:
                continue
            # Table keys have j < k, so i sorts in at one of three places.
            if i < j:
                key = (i, j, k)
            elif i < k:
                key, v = (j, i, k), -v
            else:
                key = (j, k, i)
            if terms.setdefault(key, v) != v:
                raise ValueError(f"K(x,[y,z]) is not totally antisymmetric at {key}")
    return InvariantForm(L, 3, terms)


# ---------------------------------------------------------------------------
# Flat-torus duality transform


def torus_fm_transform(w: InvariantForm, pairing) -> InvariantForm:
    """Form-level Fourier-Mukai transform on a flat torus.

    w lives on an abelian algebra t of dimension n; pairing is a
    nondegenerate n x n rational matrix coupling t to the dual torus t^dual.
    The transform wedges w with exp of the pairing 2-form on t + t^dual and
    integrates out t (extracts the coefficient of the full t-volume, with
    the ordered basis of t as positive orientation).  Degree k maps to n-k.
    """
    alg = w.algebra
    n = alg.dim
    if any(table for _, table in alg.blocks):
        raise ValueError("torus transform requires an abelian base")
    if len(pairing) != n or any(len(row) != n for row in pairing):
        raise ValueError("pairing must be an n x n matrix")
    if exactlin.det_exact(pairing) == 0:
        raise ValueError("pairing form is degenerate")

    product = AbelianAlgebra(2 * n)
    lifted = InvariantForm(product, w.degree, dict(w.terms))
    f0 = InvariantForm(
        product,
        2,
        {(i, n + j): pairing[i][j] for i in range(n) for j in range(n) if pairing[i][j]},
    )
    # w ^ exp(F0): graded pieces of every degree, truncated at 2n.
    pieces = [lifted]
    power = lifted
    fact = 1
    for k in range(1, n + 1):
        power = wedge(power, f0)
        fact *= k
        if power.is_zero():
            break
        pieces.append(power.scale(Fraction(1, fact)))
    # Fiber integration: keep terms containing the whole t-block 0..n-1;
    # those indices are the leading block of every sorted key, so no sign.
    fiber = tuple(range(n))
    out = {}
    for piece in pieces:
        for key, v in piece.terms.items():
            if key[:n] == fiber:
                out[tuple(i - n for i in key[n:])] = v
    dual = AbelianAlgebra(n)
    return InvariantForm(dual, n - w.degree, out)
