"""Reference implementations that only the tests use.

Each is an independent or older way to compute something the verifier
computes, kept to cross-check it: the sl(n) matrix model, the coroot
identity, the bilinear bracket, the flux residual off span(S), closedness
and invariance of forms, the Cartan-matrix ADE test, the N-table with
Fraction ratio steps and the pairwise structure-table builder, the
eigen-relation loop over every pairing entry, the Fraction rref, the
Gram solve of integer coordinates, the per-unit Cartan solve and lattice
pairing, the gathering differential, phi composed from pullbacks, F summed
from extended-root 1-forms, F from its two builders (the tautological form
and the lattice Poincare correction, its exponent from a Smith form) with
its matrix read back entry by entry, the name-paired radical block of F
(the negative control of the lattice one), the 2-form of a fiber pairing
matrix, the dense and the sparse spanning set S with the owners of its
basis, the N-table keyed by root vectors, the Jacobi certificate that
scanned every basis element for each generator, the brackets of the pair
g + g_dual read from its two factors, the double loop of angle
positivity, two small matrix helpers, the Cartan matrices divided out of
a Euclidean realization of the simple roots, and the datum routines that
worked entry by entry: the reflection closure that recomputed both
pairings per reflection, the coordinate type walk, the dot-product
pairing, the functional chamber with its pairwise simple-root search, the
functional order of canonicalize, exact quotients one dot product at a
time, and the reflection test on every root column, negative twins
included.  The
trace of ad e_i ad e_j over the bracket table is the oracle of the Killing
matrix read off the N-table's root sums kappa, and of the eigen-relation's
K(h, h), the stdlib's JSON encoder is the oracle of
the CLI's writer, and the Smith form with its pivot searched twice is that
of the one search.  A form's value on basis indices and on coefficient
vectors, the key contract every stored form meets, the sum and the
difference of two forms, the bracket of two basis elements, and the coroot
vector h_alpha, solved off the datum's coroots, are helpers the tests alone
use.  The Frenkel-Kac table of a simply-laced datum, built from its sign
cocycle eps and a sign per root (read off a built table by cocycle_signs),
is the bracket oracle of D and E that is no extraspecial-pair recursion.
"""

import json
import weakref
from fractions import Fraction
from functools import cache
from itertools import combinations, repeat
from math import gcd
from operator import mul, sub

from liedual.ceforms import InvariantForm, cartan_three_form, ce_differential, sort_sign
from liedual.chevalley import ReductiveLieAlgebra, _generators, _involution
from liedual import exactlin
from liedual.exactlin import det_exact, integer_inverse, integer_kernel, smith_normal_form, solve_exact
from liedual.rootdatum import (
    DynkinDescriptor,
    RootDatum,
    _descriptor_label,
    _injective_values,
    _max_abs,
    _require_int,
    cartan_matrix,
    family_cartan,
    pair,
    positive_system,
)
from liedual.tduality import ProductPair, flux_residual_form, frac_str


# ---------------------------------------------------------------------------
# Matrices


def mat_vec(A, v):
    if A and len(A[0]) != len(v):
        raise ValueError("dimension mismatch in mat_vec")
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def rref(M):
    """Reduced row echelon form over Fraction, as exactlin computed it
    before its eliminations ran on integer rows.  Returns (rows, pivot
    column indices)."""
    R = [[Fraction(x) for x in row] for row in M]
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def rref_solve(A, b):
    """solve_exact as it was: one Fraction rref of [A | b]."""
    if not A:
        return []
    ncols = len(A[0])
    R, pivots = rref([list(row) + [bv] for row, bv in zip(A, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = R[r][ncols]
    return x


def integer_coordinates(V, targets):
    """Integer coordinates x of each target t in the rows of V (t = sum_i
    x_i V_i), or None for a target outside their integer span: the Gram
    solve that the coroot coordinates and build_from_dynkin used before
    they read one integer inverse of a square basis.

    The rows of V must be independent.  One integer elimination inverts the
    Gram matrix G = V V^T, scaled to ints by |det G|; each target is then
    solved in ints from G x = V t, and the x found is kept
    only when it gives back t.  That test decides membership on its own:
    the solution is unique, so a quotient that is not exact, or the
    projection of a target outside the span of V, cannot give back t.
    """
    inv, den = [], 1
    if V:
        G = [[sum(map(mul, u, v)) for v in V] for u in V]
        try:
            inv, den = integer_inverse(G)                  # den * G^-1
        except ValueError:
            raise ValueError("basis rows are linearly dependent") from None
    cols = list(zip(*V))
    out = []
    for t in targets:
        Vt = [sum(map(mul, v, t)) for v in V]
        x = tuple(sum(map(mul, row, Vt)) // den for row in inv)
        back = [sum(map(mul, x, col)) for col in cols] if V else [0] * len(t)
        out.append(x if back == list(t) else None)
    return out


def nested_search_snf(A, want_v=False):
    """exactlin._snf as it was: the first pivot of each block found by a
    nested loop over its entries, later ones by min; both pick the first
    smallest nonzero |entry| in row-major order."""
    M = [[int(x) for x in row] for row in A]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] if want_v else None
    diag = []
    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if M[i][j] != 0:
                    if piv is None or abs(M[i][j]) < abs(M[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        while True:
            i, j = piv
            M[t], M[i] = M[i], M[t]
            if j != t:
                for row in M:
                    row[t], row[j] = row[j], row[t]
                if want_v:
                    for row in V:
                        row[t], row[j] = row[j], row[t]
            done = True
            for i in range(t + 1, nrows):
                q = M[i][t] // M[t][t]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                if M[i][t] != 0:
                    done = False
            for j in range(t + 1, ncols):
                q = M[t][j] // M[t][t]
                if q:
                    for row in M:
                        row[j] -= q * row[t]
                    if want_v:
                        for row in V:
                            row[j] -= q * row[t]
                if M[t][j] != 0:
                    done = False
            if done:
                break
            piv = min(
                ((i, j) for i in range(t, nrows) for j in range(t, ncols) if M[i][j] != 0),
                key=lambda ij: abs(M[ij[0]][ij[1]]),
            )
        diag.append(abs(M[t][t]))
        t += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            l = diag[i] * diag[j] // g if g else 0
            diag[i], diag[j] = g, l
    diag += [0] * (min(nrows, ncols) - len(diag))
    return diag, V


# ---------------------------------------------------------------------------
# Root data


def _simple_euclidean_roots(family, n):
    """Simple roots of one family in an ambient Euclidean space (Bourbaki),
    doubled so that every coordinate is an integer."""

    def e(i, dim):
        v = [0] * dim
        v[i] = 2
        return v

    if family == "A":
        dim = n + 1
        return [[a - b for a, b in zip(e(i, dim), e(i + 1, dim))] for i in range(n)]
    if family in ("B", "C", "D"):
        dim = n
        out = [[a - b for a, b in zip(e(i, dim), e(i + 1, dim))] for i in range(n - 1)]
        if family == "B":
            out.append(e(n - 1, dim))
        elif family == "C":
            out.append([2 * x for x in e(n - 1, dim)])
        else:
            out.append([a + b for a, b in zip(e(n - 2, dim), e(n - 1, dim))])
        return out
    if family == "E":
        simples = [[1, *([-1] * 6), 1], [2, 2] + [0] * 6]
        for i in range(6):
            v = [0] * 8
            v[i] = -2
            v[i + 1] = 2
            simples.append(v)
        return simples[:n]
    if family == "F":
        return [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]]
    if family == "G":
        return [[2, -2, 0], [-4, 2, 2]]
    raise ValueError(family)


def euclidean_cartan(family, n):
    """Cartan matrix A[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)
    of one simple family, from its simple roots in Euclidean space."""
    simples = _simple_euclidean_roots(family, n)
    A = []
    for i in range(n):
        row = []
        for j in range(n):
            val, rem = divmod(2 * pair(simples[i], simples[j]), pair(simples[i], simples[i]))
            if rem:
                raise RuntimeError("non-integer Cartan entry")
            row.append(val)
        A.append(row)
    return A


def generate_root_pairs(cartan):
    """The reflection closure that recomputed both pairings of every
    (root, coroot) pair for each simple reflection: a sorted list of pairs,
    the root in simple-root and the coroot in simple-coroot coordinates."""
    n = len(cartan)
    pairs = set()
    for i in range(n):
        r = tuple(1 if j == i else 0 for j in range(n))
        pairs.add((r, r))
    frontier = list(pairs)
    while frontier:
        new = []
        for root, coroot in frontier:
            for i in range(n):
                rv = sum(c * cartan[i][j] for j, c in enumerate(root))
                root2 = tuple(c - rv * (1 if j == i else 0) for j, c in enumerate(root))
                cv = sum(m * cartan[j][i] for j, m in enumerate(coroot))
                coroot2 = tuple(m - cv * (1 if j == i else 0) for j, m in enumerate(coroot))
                item = (root2, coroot2)
                if item not in pairs:
                    pairs.add(item)
                    new.append(item)
        frontier = new
    return sorted(pairs)


@cache
def coweight_pairs(family, n):
    """(root, coroot labels) of one simple family, sorted: the pairing
    closure's roots in simple-root coordinates, and each coroot's pairings
    with the simple roots, its coordinates in the fundamental coweights.
    Cached per family and rank; the list is read, never changed."""
    A = family_cartan(family, n)
    return [(root, tuple(sum(m * A[i][j] for i, m in enumerate(coroot)) for j in range(n)))
            for root, coroot in generate_root_pairs(A)]


def inverse_build_from_dynkin(desc: DynkinDescriptor) -> RootDatum:
    """build_from_dynkin as it read every datum off one integer inverse of
    the lattice basis B, rows in coweight coordinates: the Cartan matrix of
    each factor (sc), the identity (adj) or the custom basis.  A coroot
    with coweight coordinates b is b B^-1, one exact division of them all,
    and a root with simple-root coordinates c is B c in the dual basis."""
    ss_rank = sum(n for _, n, _ in desc.factors)
    B, coweights, root_coords = [], [], []
    off = 0
    for fam, n, iso in desc.factors:
        A = family_cartan(fam, n)
        left, right = (0,) * off, (0,) * (ss_rank - off - n)
        rows = A if iso == "sc" else [[int(i == j) for j in range(n)] for i in range(n)]
        B += [left + tuple(row) + right for row in rows]
        for root_c, labels in coweight_pairs(fam, n):
            coweights.append(left + labels + right)
            root_coords.append(left + root_c + right)
        off += n
    if desc.custom_basis is not None:
        B = [[_require_int(x, "custom basis entry") for x in row] for row in desc.custom_basis]
        if len(B) != ss_rank or any(len(r) != ss_rank for r in B):
            raise ValueError("custom basis must be square of semisimple rank")
    try:
        X, den = integer_inverse(B)
    except ValueError:
        raise ValueError("custom basis is singular") from None
    coroots = exactlin.exact_quotients(list(zip(*X)), den, coweights,
                                       lambda i: "custom lattice does not contain the coroot lattice")
    torus = (0,) * desc.torus_rank
    roots = [y + torus for y in zip(*exactlin.column_products(B, root_coords))]
    coroots = [x + torus for x in coroots]
    return RootDatum(rank=ss_rank + desc.torus_rank, roots=tuple(roots), coroots=tuple(coroots),
                     label=_descriptor_label(desc))


def checked_coordinates(key, vectors):
    """The coordinate check that walked every coordinate: int tuples, or
    ValueError naming the first non-int coordinate."""
    return tuple(tuple(_require_int(x, f"{key} coordinate") for x in v) for v in vectors)


def dot_pairing(d: RootDatum):
    """P[i][j] = <coroot_i, root_j>, one dot product per entry."""
    return tuple(tuple(sum(map(mul, c, r)) for r in d.roots) for c in d.coroots)


def functional(vectors):
    """Generic linear functional v -> sum_k M^k v_k on a finite vector set,
    M = 1 + max |coordinate|, evaluated one vector at a time."""
    M = 1 + max((abs(x) for v in vectors for x in v), default=0)
    return lambda v: sum((M ** k) * x for k, x in enumerate(v))


def _swap_key(d, i):
    # Key invariant under exchanging the root and coroot lists.
    a, b = d.roots[i], d.coroots[i]
    return (min(a, b), max(a, b))


def functional_positive_system(d: RootDatum):
    """(positive, simple) root indices as _positive_system found them: the
    two functional chambers, and a simple root found by testing every
    difference of positive root vectors against the positive set."""
    if d.nroots == 0:
        return (), ()
    f = functional(d.roots)
    g = functional(d.coroots)
    cand_root = frozenset(i for i in range(d.nroots) if f(d.roots[i]) > 0)
    cand_co = frozenset(i for i in range(d.nroots) if g(d.coroots[i]) > 0)
    chamber = min({cand_root, cand_co}, key=lambda P: sorted(_swap_key(d, i) for i in P))
    pos = sorted(chamber)
    pos_set = {d.roots[i] for i in pos}
    simple = []
    for i in pos:
        r = d.roots[i]
        if not any(tuple(a - b for a, b in zip(r, d.roots[j])) in pos_set for j in pos if d.roots[j] != r):
            simple.append(i)
    simple.sort(key=lambda i: _swap_key(d, i))
    return tuple(pos), tuple(simple)


def canonical_order(d: RootDatum):
    """The index order of canonicalize: the functional of the roots,
    descending, then the root vectors."""
    f = functional(d.roots)
    return sorted(range(d.nroots), key=lambda i: (-f(d.roots[i]), d.roots[i]))


def exact_quotients(X, den, vectors, refusal):
    """X v / den for each v in turn, one dot product per coordinate;
    ValueError(refusal(i)) at the first vector with a remainder."""
    out = []
    for i, v in enumerate(vectors):
        q = [divmod(sum(map(mul, row, v)), den) for row in X]
        if any(r for _, r in q):
            raise ValueError(refusal(i))
        out.append(tuple(x for x, _ in q))
    return out


def all_columns_reflection_witness(d: RootDatum):
    """The first (i, j) at which reflecting coroot i in root j or root i in
    coroot j leaves the coroots or roots, or None: the reflection loop of
    _check_axioms that tested every root column j, including the negative
    twin of an earlier column."""
    P = d.pairing
    reach = 1 + _max_abs(P)
    fc = _injective_values(d.coroots, reach)
    fr = _injective_values(d.roots, reach)
    coroot_set, root_set = set(fc), set(fr)
    for j, col in enumerate(zip(*P)):
        if not (coroot_set.issuperset(map(sub, fc, map(mul, col, repeat(fc[j]))))
                and root_set.issuperset(map(sub, fr, map(mul, P[j], repeat(fr[j]))))):
            return next((i, j) for i, (n, m) in enumerate(zip(col, P[j]))
                        if fc[i] - n * fc[j] not in coroot_set or fr[i] - m * fr[j] not in root_set)
    return None


def simple_coords(vectors, simple_indices, targets):
    """Integer coordinates of each target in the simple members of vectors
    (the roots or the coroots of a datum), from one Gram solve for the
    batch; raises ValueError unless every target lies in their integer
    span.  The reference for the coordinates _NTable reads off the
    pairing."""
    coords = integer_coordinates([vectors[s] for s in simple_indices], targets)
    for t, x in zip(targets, coords):
        if x is None:
            raise ValueError(f"{t} is not an integral combination of the simple vectors")
    return coords


def cartan_is_ade(d: RootDatum) -> bool:
    """ADE-type test: the pairing is symmetric in root pairs.

    Equivalent to a symmetric Cartan matrix; vacuously true for a torus.
    """
    A = cartan_matrix(d)
    return all(A[i][j] == A[j][i] for i in range(len(A)) for j in range(len(A)))


# ---------------------------------------------------------------------------
# Lie algebras


def bracket(L, x, y):
    """Bilinear extension of the basis table to coefficient vectors."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("vectors must have length dim")
    out = [0] * L.dim
    nz_x = [(i, c) for i, c in enumerate(x) if c]
    nz_y = [(j, c) for j, c in enumerate(y) if c]
    for i, a in nz_x:
        for j, b in nz_y:
            for k, c in bracket_basis(L, i, j).items():
                out[k] += a * b * c
    return out


_COROOT_COORDS = weakref.WeakKeyDictionary()


def coroot_coordinates(L):
    """The coordinates of every coroot of L's datum in its simple coroots,
    by root index, from one Gram solve per algebra (simple_coords), kept
    while L lives.  Neither the N-table nor the bracket table enters, so
    the oracles built on h_alpha do not agree with a wrong coroot list."""
    coords = _COROOT_COORDS.get(L)
    if coords is None:
        d = L.datum
        coords = _COROOT_COORDS[L] = simple_coords(d.coroots, L.simple_indices, d.coroots)
    return coords


def coroot_vector(L, root_index):
    """h_alpha as a basis coefficient vector of L, solved off the coroots."""
    out = [0] * L.dim
    nz = len(L.radical_basis)
    out[nz : nz + len(L.simple_indices)] = coroot_coordinates(L)[root_index]
    return out


def root_vector(L, root_index):
    out = [0] * L.dim
    out[L.index[("x", root_index)]] = 1
    return out


def trace_killing_matrix(L):
    """Tr(ad e_i ad e_j) summed over the table's entries: K[i][j] sums
    [e_i, e_m]_k [e_j, e_k]_m, grouped by (m, k), where each group of
    [e_i, e_m]_k meets the group of [e_j, e_k]_m.  Valid on any table,
    Jacobi or not."""
    meets = {}                      # (m, k) -> [(i, [e_i, e_m]_k)]
    for (i, j), out in L.table.items():
        for k, c in out.items():
            meets.setdefault((j, k), []).append((i, c))
            meets.setdefault((i, k), []).append((j, -c))
    K = [[0] * L.dim for _ in range(L.dim)]
    for (m, k), left in meets.items():
        right = meets.get((k, m))
        if right:
            for i, c in left:
                K_i = K[i]
                for j, v in right:
                    K_i[j] += c * v
    return K


def trace_kappa(L):
    """K(h_a, h_a) for every root index a, read off trace_killing_matrix(L)
    at the full coroot vector of h_a: the trace form of the table, which
    neither kappa nor killing_matrix enters."""
    K = trace_killing_matrix(L)
    out = []
    for ri in range(L.datum.nroots):
        h = [(i, a) for i, a in enumerate(coroot_vector(L, ri)) if a]
        out.append(sum(a * b * K[i][j] for i, a in h for j, b in h))
    return out


def dense_killing(L):
    """The nonzero rows of L.killing_matrix() as a dense dim x dim matrix."""
    K = [[0] * L.dim for _ in range(L.dim)]
    for i, row in enumerate(L.killing_matrix()):
        for j, v in row.items():
            K[i][j] = v
    return K


def killing_form(L, x, y):
    """K(x, y) for basis coefficient vectors x, y, from the nonzero rows of
    the Killing matrix."""
    K = L.killing_matrix()
    return sum(a * y[j] * v for i, a in enumerate(x) if a for j, v in K[i].items())


def root_value(L, root_index, basis_index):
    """alpha(e_b) for a Cartan-block basis element, 0 on root vectors."""
    lab = L.labels[basis_index]
    if lab[0] == "h":
        return pair(L.datum.coroots[L.simple_indices[lab[1]]], L.datum.roots[root_index])
    return 0


def cartan_vector(L, t_vec):
    """A vector of Lambda (x) Q in the (z, h) basis, as a basis coefficient
    vector, from one Fraction solve; raises if it is not in the Cartan
    span."""
    cols = L.radical_basis + [L.datum.coroots[i] for i in L.simple_indices]
    A = [[col[r] for col in cols] for r in range(L.datum.rank)]
    sol = solve_exact(A, t_vec)
    if sol is None:
        raise ValueError("vector outside the Cartan subalgebra")
    return sol + [0] * (L.dim - len(sol))


def verify_coroot_identity(L: ReductiveLieAlgebra):
    """Check alpha(h) K(h_a,h_a) = 2 K(h, h_a) for every root and every
    Cartan-block basis vector; returns the list of failing pairs."""
    failures = []
    nz = len(L.radical_basis)
    ns = len(L.simple_indices)
    for ri in range(L.datum.nroots):
        ha = coroot_vector(L, ri)
        kaa = killing_form(L, ha, ha)
        for b in range(nz + ns):
            hvec = [0] * L.dim
            hvec[b] = 1
            lhs = root_value(L, ri, b) * kaa
            rhs = 2 * killing_form(L, hvec, ha)
            if lhs != rhs:
                failures.append((ri, L.labels[b]))
    return failures


class FractionNTable:
    """The N-table as it was built before the triple walk: the
    extraspecial-pair values of the positive pairs, and every other pair
    reached by the recursive get() over Fraction ratio steps.  A standalone
    copy, so it does not move with the table it checks."""

    def __init__(self, datum, pos_indices, simple_indices):
        self.datum = datum
        self.by_vec = {datum.roots[i]: i for i in range(datum.nroots)}
        self.pos = set(datum.roots[i] for i in pos_indices)
        self.K = {datum.roots[i]: sum(v * v for v in datum.pairing[i]) for i in range(datum.nroots)}
        pos = list(self.pos)
        self.coords = dict(zip(pos, simple_coords(datum.roots, simple_indices, pos)))
        self.order = {v: (sum(self.coords[v]), self.coords[v]) for v in self.pos}
        self.table = {}
        self._fill()

    def _p(self, a, b):
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while cur in self.by_vec:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def _fill(self):
        positives = sorted(self.pos, key=lambda v: self.order[v])
        for gamma in positives:
            specials = []
            for a in positives:
                if 2 * self.order[a][0] > self.order[gamma][0]:
                    break
                b = tuple(x - y for x, y in zip(gamma, a))
                if b in self.pos and self.order[a] < self.order[b]:
                    specials.append((a, b))
            if not specials:
                continue
            a1, b1 = specials[0]
            self._set(a1, b1, self._p(a1, b1) + 1)
            for a, b in specials[1:]:
                self._derive(a, b, a1, b1, gamma)

    def _set(self, a, b, val):
        self.table[(a, b)] = val
        self.table[(b, a)] = -val

    def _derive(self, a, b, a1, b1, gamma):
        neg = lambda v: tuple(-x for x in v)
        t1 = 0
        d = tuple(x - y for x, y in zip(a1, a))
        if d in self.by_vec:
            t1 = self.get(a1, neg(a)) * self.get(d, neg(b))
        t2 = 0
        d2 = tuple(x - y for x, y in zip(a1, b))
        if d2 in self.by_vec:
            t2 = self.get(neg(b), a1) * self.get(d2, neg(a))
        coeff = self.table[(a1, b1)] * Fraction(self.K[gamma], self.K[b1])
        self._set(a, b, (t1 + t2) / coeff)

    def get(self, a, b):
        s = tuple(x + y for x, y in zip(a, b))
        if s not in self.by_vec:
            raise ValueError("a+b is not a root")
        if (a, b) in self.table:
            return self.table[(a, b)]
        neg = lambda v: tuple(-x for x in v)
        if a not in self.pos and b not in self.pos:
            return -self.get(neg(a), neg(b))
        if a in self.pos and b in self.pos:
            raise KeyError((a, b))
        if b in self.pos:
            return -self.get(b, a)
        c = neg(s)
        if s in self.pos:
            return -self.get(neg(b), neg(c)) * Fraction(self.K[a], self.K[c])
        return self.get(c, a) * Fraction(self.K[b], self.K[c])

    def constant(self, a, b):
        """N_{a,b} as an int; a table value that is not integral means the
        table is wrong."""
        n = self.get(a, b)
        if n.denominator != 1:
            raise ValueError(f"non-integral structure constant N{a, b} = {n}")
        return n.numerator


class VectorNTable:
    """The int N-table as it was keyed by root vectors: sums, differences
    and root strings are tuple arithmetic, simple-root coordinates come
    from a solve on the root vectors, and K(h_a, h_a) is summed per root.
    Same fill order, closed-form triples and exact ratio steps as the
    index-keyed table, whose keys map to these through d.roots."""

    def __init__(self, datum, pos_indices, simple_indices):
        self.by_vec = {datum.roots[i]: i for i in range(datum.nroots)}
        self.pos = set(datum.roots[i] for i in pos_indices)
        self.K = {datum.roots[i]: sum(v * v for v in datum.pairing[i]) for i in range(datum.nroots)}
        pos = list(self.pos)
        self.coords = dict(zip(pos, simple_coords(datum.roots, simple_indices, pos)))
        self.order = {v: (sum(self.coords[v]), self.coords[v]) for v in self.pos}
        self.table = {}     # (a, b) -> N_{a,b}, both orders, all signs
        self.triples = []   # (a, b, N_{a,b}, N_{b,-(a+b)}, N_{-(a+b),a}) for positive a < b
        self._fill()

    def _p(self, a, b):
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while cur in self.by_vec:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def _fill(self):
        positives = sorted(self.pos, key=lambda v: self.order[v])
        for gamma in positives:
            specials = []
            for a in positives:
                if 2 * self.order[a][0] > self.order[gamma][0]:
                    break
                b = tuple(x - y for x, y in zip(gamma, a))
                if b in self.pos and self.order[a] < self.order[b]:
                    specials.append((a, b))
            if not specials:
                continue
            a1, b1 = specials[0]
            self._set(a1, b1, self._p(a1, b1) + 1)
            for a, b in specials[1:]:
                self._derive(a, b, a1, b1, gamma)

    def _set(self, a, b, n):
        s = tuple(x + y for x, y in zip(a, b))
        na, nb, c = (tuple(-x for x in v) for v in (a, b, s))
        K = self.K
        n_bc = self._ratio(b, c, n * K[c], K[a])
        n_ca = self._ratio(c, a, n * K[c], K[b])
        T = self.table
        T[a, b], T[b, a], T[na, nb], T[nb, na] = n, -n, -n, n
        T[b, c], T[c, b], T[nb, s], T[s, nb] = n_bc, -n_bc, -n_bc, n_bc
        T[c, a], T[a, c], T[s, na], T[na, s] = n_ca, -n_ca, -n_ca, n_ca
        self.triples.append((a, b, n, n_bc, n_ca))

    def _derive(self, a, b, a1, b1, gamma):
        T = self.table
        na, nb = tuple(-x for x in a), tuple(-x for x in b)
        t1 = 0
        d = tuple(x - y for x, y in zip(a1, a))
        if d in self.by_vec:
            t1 = T[a1, na] * T[d, nb]
        t2 = 0
        d2 = tuple(x - y for x, y in zip(a1, b))
        if d2 in self.by_vec:
            t2 = T[nb, a1] * T[d2, na]
        self._set(a, b, self._ratio(a, b, (t1 + t2) * self.K[b1], T[a1, b1] * self.K[gamma]))

    def _ratio(self, a, b, num, den):
        q, r = divmod(num, den)
        if r:
            raise ValueError(f"non-integral structure constant N{a, b} = {num}/{den}")
        return q


def pairwise_structure_table(d: RootDatum):
    """(labels, table) of build_lie_algebra as it was before the triple
    walk: every pair of root vectors from combinations(), a sum tuple for
    each, and N from the recursive FractionNTable.constant."""
    pos_indices, simple_indices = positive_system(d)
    nz = len(integer_kernel([list(r) for r in d.roots])) if d.nroots else d.rank
    ntab = FractionNTable(d, pos_indices, simple_indices) if d.nroots else None
    pos_sorted = sorted(pos_indices, key=lambda i: ntab.order[d.roots[i]])
    neg_of = {}
    for i in pos_sorted:
        neg = tuple(-x for x in d.roots[i])
        neg_of[i] = next(j for j in range(d.nroots) if d.roots[j] == neg)
    root_order = pos_sorted + [neg_of[i] for i in pos_sorted]
    labels = (
        [("z", k) for k in range(nz)]
        + [("h", i) for i in range(len(simple_indices))]
        + [("x", ri) for ri in root_order]
    )
    index = {lab: i for i, lab in enumerate(labels)}
    coroots = [d.coroots[ri] for ri in root_order]
    coroot_coords = dict(zip(root_order, simple_coords(d.coroots, simple_indices, coroots)))

    table = {}

    def put(i, j, out):
        out = {k: v for k, v in out.items() if v}
        if not out:
            return
        if i < j:
            table[(i, j)] = out
        else:
            table[(j, i)] = {k: -v for k, v in out.items()}

    for s, si in enumerate(simple_indices):
        for ri in root_order:
            v = d.pairing[si][ri]
            if v:
                put(nz + s, index[("x", ri)], {index[("x", ri)]: v})

    by_vec = {d.roots[i]: i for i in range(d.nroots)}
    for ri, rj in combinations(root_order, 2):
        a, b = d.roots[ri], d.roots[rj]
        s = tuple(x + y for x, y in zip(a, b))
        i, j = index[("x", ri)], index[("x", rj)]
        if all(x == 0 for x in s):
            put(i, j, {nz + c: v for c, v in enumerate(coroot_coords[ri])})
        elif s in by_vec:
            put(i, j, {index[("x", by_vec[s])]: ntab.constant(a, b)})
    return labels, table


def cocycle_eps(A, a, b):
    """eps(a, b) = (-1)^(sum_i a_i b_i + sum_(i<j, A_ij=-1) a_i b_j) on the
    simple-root coordinates a, b: the bimultiplicative sign of Frenkel-Kac
    with eps(a_i, a_j) = -1 when i = j, or i < j and A_ij = -1."""
    r = len(A)
    e = sum(a[i] * b[i] for i in range(r)) + sum(a[i] * b[j] for i in range(r) for j in range(i + 1, r) if A[i][j] == -1)
    return -1 if e % 2 else 1


def _cocycle_roots(d):
    """(simple, A, coordinates, root index by coordinates, positives by height
    then coordinates, negative of each root index) of d, the coordinates from
    the Gram solve."""
    pos, simple = positive_system(d)
    A = [[d.pairing[s][t] for t in simple] for s in simple]
    c = simple_coords(d.roots, simple, d.roots)
    by_vec = {tuple(v): i for i, v in enumerate(c)}
    neg = [by_vec[tuple(-x for x in v)] for v in c]
    return simple, A, c, by_vec, sorted(pos, key=lambda i: (sum(c[i]), tuple(c[i]))), neg


def cocycle_table(d: RootDatum, signs=None):
    """(labels, table) of the Frenkel-Kac Lie algebra of a simply-laced datum
    d (Kac, Infinite-dimensional Lie algebras, 7.8), in the basis order of
    build_lie_algebra, with x_a = s_a E_a for signs = {root index: s_a}, or
    s = 1 (the untwisted table) when signs is None:
    [h_s, x_a] = (a_s, a) x_a, [x_a, x_-a] = -s_a s_-a h_a and
    [x_a, x_b] = s_a s_b s_(a+b) eps(a, b) x_(a+b), with (a_s, a) and h_a
    read off the simple-root coordinates of a and the Cartan matrix.  Built
    from eps and s alone: no N-table and no pairing beyond A."""
    simple, A, c, by_vec, positives, neg = _cocycle_roots(d)
    nz = len(integer_kernel([list(r) for r in d.roots])) if d.nroots else d.rank
    order = positives + [neg[i] for i in positives]
    labels = [("z", k) for k in range(nz)] + [("h", i) for i in range(len(simple))] + [("x", ri) for ri in order]
    x = {ri: k for k, ri in enumerate(order, nz + len(simple))}
    s = signs or dict.fromkeys(range(d.nroots), 1)
    table = {}
    for t, row in enumerate(A):
        for ri in order:
            v = sum(map(mul, row, c[ri]))
            if v:
                table[nz + t, x[ri]] = {x[ri]: v}
    for a, b in combinations(order, 2):
        g = by_vec.get(tuple(p + q for p, q in zip(c[a], c[b])))
        if b == neg[a]:
            table[x[a], x[b]] = {nz + k: -s[a] * s[b] * v for k, v in enumerate(c[a]) if v}
        elif g is not None:
            table[x[a], x[b]] = {x[g]: s[a] * s[b] * s[g] * cocycle_eps(A, c[a], c[b])}
    return labels, table


def cocycle_signs(L):
    """{root index: s_a} read off L.table going up by height: s = 1 on the
    simple roots, s_g = s_i s_b eps(a_i, b) N(a_i, b) for g = a_i + b with
    a_i the last simple root that fits, and s_-a = -s_a."""
    simple, A, c, by_vec, positives, neg = _cocycle_roots(L.datum)
    s = {}
    for g in positives:
        for k in reversed(range(len(simple))):
            b = by_vec.get(tuple(v - (i == k) for i, v in enumerate(c[g])))
            if b is not None:               # a positive root: g is not simple
                xa, xb, xg = (L.index["x", ri] for ri in (simple[k], b, g))
                s[g] = s[simple[k]] * s[b] * cocycle_eps(A, c[simple[k]], c[b]) * bracket_basis(L, xa, xb)[xg]
                break
        else:
            s[g] = 1
        s[neg[g]] = -s[g]
    return s


# ---------------------------------------------------------------------------
# The Jacobi certificate as it was


def signed_rows(table, dim):
    """ad[a][b]: [e_a, e_b] as ((k, c), ...), for both orders of each entry."""
    ad = [{} for _ in range(dim)]
    for (i, j), out in table.items():
        ad[i][j] = tuple(out.items())
        ad[j][i] = tuple((k, -c) for k, c in out.items())
    return ad


def is_automorphism(table, sigma):
    """True when omega maps every table entry [e_i, e_j] = sum c e_k to the
    entry of its image pair: [e_si, e_sj] = -sum c e_sk."""
    for (i, j), out in table.items():
        si, sj = sigma[i], sigma[j]
        key, sign = ((si, sj), -1) if si < sj else ((sj, si), 1)
        if table.get(key) != {sigma[k]: sign * c for k, c in out.items()}:
            return False
    return True


def generates(ad, gens):
    """True when every basis index is reached from gens by bracketing with
    a generator, counting only brackets that are one nonzero term c e_k."""
    reached = set(gens)
    todo = list(gens)
    while todo:
        r = todo.pop()
        for g in gens:
            out = [k for k, c in ad[g].get(r, ()) if c]
            if len(out) == 1 and out[0] not in reached:
                reached.add(out[0])
                todo.append(out[0])
    return len(reached) == len(ad)


def derivations(ad, gens):
    """First (g, j, k) with j < k where ad g is not a derivation, or None:
    J(g, e_j, e_k) = [g, [e_j, e_k]] - [e_j, [g, e_k]] - [[g, e_j], e_k]
    is nonzero there.  For each j the three terms are summed over the k > j
    where [e_j, e_k], [g, e_k] or [[g, e_j], e_k] is nonzero, scanning every
    basis element j for each g."""
    for g in gens:
        ad_g = ad[g]
        for j, ad_j in enumerate(ad):
            acc = {}                        # (k, n) -> J(g, e_j, e_k)_n
            for k, out in ad_j.items():
                if k > j:
                    for m, cm in out:
                        for n, cn in ad_g.get(m, ()):
                            acc[k, n] = acc.get((k, n), 0) + cm * cn
            for k, out in ad_g.items():
                if k > j:
                    for m, cm in out:
                        for n, cn in ad_j.get(m, ()):
                            acc[k, n] = acc.get((k, n), 0) - cm * cn
            for m, cm in ad_g.get(j, ()):
                for k, out in ad[m].items():
                    if k > j:
                        for n, cn in out:
                            acc[k, n] = acc.get((k, n), 0) - cm * cn
            if any(acc.values()):
                return g, j, min(k for (k, _), v in acc.items() if v)
    return None


def ordered_sweep(L):
    """jacobi_witness's sweep as it was: derivations on every basis element."""
    return derivations(signed_rows(L.table, L.dim), range(L.dim))


def generator_certificate(L):
    """(generated, omega, derivations) of the certificate on L.table as it
    was: the generators span the algebra, the Chevalley involution is an
    automorphism, and derivations, which scans every basis element for each
    generator, finds no failure on one generator of each omega orbit (z_k
    and x_a, a simple)."""
    ad = signed_rows(L.table, L.dim)
    sigma = _involution(L)
    gens = _generators(L, sigma)
    return (generates(ad, gens), is_automorphism(L.table, sigma),
            derivations(ad, [g for g in gens if g <= sigma[g]]) is None)


def all_brackets(alg):
    """(i, j, {k: c}) for each bracket of alg's table, i < j; on the pair
    g + g_dual, L's brackets, then a copy of each of Ldual's shifted by
    L.dim."""
    if not isinstance(alg, ProductPair):
        yield from ((i, j, out) for (i, j), out in getattr(alg, "table", {}).items())
        return
    yield from all_brackets(alg.L)
    n = alg.L.dim
    for i, j, out in all_brackets(alg.Ldual):
        yield i + n, j + n, {k + n: c for k, c in out.items()}


def algebra_dim(alg):
    """The dimension of alg; the pair's is L.dim + Ldual.dim."""
    return alg.L.dim + alg.Ldual.dim if isinstance(alg, ProductPair) else alg.dim


def bracket_basis(alg, i, j):
    """[e_i, e_j] on alg as {k: c}, read from its table {(i, j) i<j: {k: c}}
    (an abelian algebra has none); on the pair g + g_dual, read from the
    factor holding both indices, Ldual's at offset L.dim, and zero across
    the two factors."""
    if isinstance(alg, ProductPair):
        n = alg.L.dim
        if i < n and j < n:
            return bracket_basis(alg.L, i, j)
        if i >= n and j >= n:
            return {k + n: c for k, c in bracket_basis(alg.Ldual, i - n, j - n).items()}
        return {}
    table = getattr(alg, "table", {})
    if i <= j:
        return table.get((i, j), {})
    return {k: -c for k, c in table.get((j, i), {}).items()}


# ---------------------------------------------------------------------------
# sl(n) matrix oracle


class SlnOracle:
    """Traceless-matrix realization of sl(n), 2 <= n <= 4.

    Basis: H_1..H_{n-1} (E_ii - E_{i+1,i+1}) then E_ij (i != j) ordered so
    positive root vectors (i < j) precede negatives, matching the Chevalley
    basis of the A_{n-1} simply-connected datum under h_i -> H_i and
    x_{e_i - e_j} -> E_ij.
    """

    def __init__(self, n):
        if not 2 <= n <= 4:
            raise ValueError("sl(n) oracle supports 2 <= n <= 4")
        self.n = n
        ij_pos = sorted(
            ((i, j) for i in range(n) for j in range(n) if i < j),
            key=lambda p: (p[1] - p[0], p),
        )
        self.pairs = ij_pos + [(j, i) for i, j in ij_pos]
        self.labels = [("h", i) for i in range(n - 1)] + [("e", p) for p in self.pairs]
        self.dim = len(self.labels)

    def matrix(self, b):
        n = self.n
        M = [[0] * n for _ in range(n)]
        lab = self.labels[b]
        if lab[0] == "h":
            i = lab[1]
            M[i][i] = 1
            M[i + 1][i + 1] = -1
        else:
            i, j = lab[1]
            M[i][j] = 1
        return M

    def _from_matrix(self, M):
        """Coordinates of a traceless matrix in the basis."""
        out = [0] * self.dim
        for k, (i, j) in enumerate(self.pairs):
            out[self.n - 1 + k] = M[i][j]
        # Diagonal part: partial sums give H-coordinates.
        acc = 0
        for i in range(self.n - 1):
            acc += M[i][i]
            out[i] = acc
        return out

    def bracket(self, x, y):
        Mx = self._lincomb(x)
        My = self._lincomb(y)
        comm = [
            [
                sum(Mx[i][k] * My[k][j] - My[i][k] * Mx[k][j] for k in range(self.n))
                for j in range(self.n)
            ]
            for i in range(self.n)
        ]
        return self._from_matrix(comm)

    def _lincomb(self, x):
        M = [[0] * self.n for _ in range(self.n)]
        for b, c in enumerate(x):
            if c:
                Mb = self.matrix(b)
                for i in range(self.n):
                    for j in range(self.n):
                        M[i][j] += c * Mb[i][j]
        return M

    def killing_matrix(self):
        """K(X, Y) = 2n Tr(XY), the trace form of sl(n)."""
        K = [[0] * self.dim for _ in range(self.dim)]
        mats = [self.matrix(b) for b in range(self.dim)]
        for a in range(self.dim):
            for b in range(a, self.dim):
                tr = sum(
                    mats[a][i][j] * mats[b][j][i]
                    for i in range(self.n)
                    for j in range(self.n)
                )
                K[a][b] = K[b][a] = 2 * self.n * tr
        return K


def sl_n_oracle(n) -> SlnOracle:
    return SlnOracle(n)


def sln_matching_killing(L: ReductiveLieAlgebra, oracle: SlnOracle):
    """Killing matrix of the Chevalley algebra of A_{n-1} (sc), re-indexed
    through the generator-matching map onto the oracle basis order."""
    n = oracle.n
    d = L.datum
    chain = _chain_order(L)
    # Each root of A_{n-1} is an interval sum of chain-ordered simple
    # roots: coords with c_k = 1 for a <= k < b give the matrix unit E_ab.
    coords_all = simple_coords(d.roots, L.simple_indices, d.roots)
    perm = []
    for lab in oracle.labels:
        if lab[0] == "h":
            perm.append(L.index[("h", chain[lab[1]])])
        else:
            i, j = lab[1]
            target = None
            for ri in range(d.nroots):
                raw = coords_all[ri]
                coords = [raw[chain[k]] for k in range(len(raw))]
                lo = [k for k, c in enumerate(coords) if c == 1]
                hi = [k for k, c in enumerate(coords) if c == -1]
                if i < j and not hi and lo == list(range(i, j)):
                    target = ri
                    break
                if i > j and not lo and hi == list(range(j, i)):
                    target = ri
                    break
            perm.append(L.index[("x", target)])
    K = dense_killing(L)
    return [[K[perm[a]][perm[b]] for b in range(oracle.dim)] for a in range(oracle.dim)]


def _chain_order(L):
    """Order the simple system of an A-type algebra along its Dynkin path."""
    d = L.datum
    ns = len(L.simple_indices)
    adj = {a: [] for a in range(ns)}
    for a in range(ns):
        for b in range(a + 1, ns):
            if pair(d.coroots[L.simple_indices[a]], d.roots[L.simple_indices[b]]):
                adj[a].append(b)
                adj[b].append(a)
    if ns == 1:
        return [0]
    ends = sorted(a for a in range(ns) if len(adj[a]) == 1)
    if len(ends) != 2 or any(len(v) > 2 for v in adj.values()):
        raise ValueError("simple system is not an A-type chain")
    chain = [ends[0]]
    while len(chain) < ns:
        nxt = [b for b in adj[chain[-1]] if b not in chain]
        chain.append(nxt[0])
    return chain


# ---------------------------------------------------------------------------
# Invariant forms and the flux residual


def value_on_indices(w: InvariantForm, idx):
    """w on a tuple of basis indices (any order)."""
    key, sign = sort_sign(idx)
    if sign == 0:
        return 0
    return sign * w.terms.get(key, 0)


def evaluate(w: InvariantForm, *vectors):
    """Multilinear evaluation of w on coefficient vectors."""
    if len(vectors) != w.degree:
        raise ValueError("wrong number of arguments")
    supports = [[(i, c) for i, c in enumerate(v) if c] for v in vectors]
    total = 0

    def rec(pos, chosen, coeff):
        nonlocal total
        if pos == len(supports):
            total += coeff * value_on_indices(w, chosen)
            return
        for i, c in supports[pos]:
            rec(pos + 1, chosen + (i,), coeff * c)

    rec(0, (), 1)
    return total


def assert_stored_form(w: InvariantForm):
    """The key contract that InvariantForm takes on trust from its
    builders: every key a tuple of w.degree strictly increasing int basis
    indices in [0, dim), and no value 0."""
    dim = algebra_dim(w.algebra)
    for key, v in w.terms.items():
        assert type(key) is tuple and len(key) == w.degree, f"key {key!r} is not a {w.degree}-tuple"
        assert all(type(i) is int and 0 <= i < dim for i in key), f"key {key!r} leaves [0, {dim})"
        assert all(a < b for a, b in zip(key, key[1:])), f"key {key!r} is not strictly increasing"
        assert v != 0, f"key {key!r} holds a zero"


def add_forms(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """a + b, for forms of equal degree on the same algebra."""
    if b.algebra is not a.algebra or b.degree != a.degree:
        raise ValueError("can only add forms of equal degree on the same algebra")
    out = dict(a.terms)
    for k, v in b.terms.items():
        out[k] = out.get(k, 0) + v
    return InvariantForm(a.algebra, a.degree, out)


def subtract(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """a - b, as the sum of a and b scaled by -1."""
    return add_forms(a, b.scale(-1))


def gathered_ce_differential(w: InvariantForm) -> InvariantForm:
    """ce_differential as it was: collect every candidate support (a term
    of w with one index replaced by a bracket pair, scanning all terms for
    every bracket output), then sum dw over the pairs of each candidate."""
    alg = w.algebra
    if w.degree == 0:
        return InvariantForm(alg, 1)
    candidates = set()
    for i, j, outs in all_brackets(alg):
        for k in outs:
            for key in w.terms:
                if k in key:
                    cand = set(key)
                    cand.discard(k)
                    cand.add(i)
                    cand.add(j)
                    if len(cand) == w.degree + 1:
                        candidates.add(tuple(sorted(cand)))
    out = {}
    for cand in candidates:
        total = 0
        for a, b in combinations(range(len(cand)), 2):
            rest = tuple(cand[t] for t in range(len(cand)) if t != a and t != b)
            sgn = (-1) ** (a + b)
            for k, c in bracket_basis(alg, cand[a], cand[b]).items():
                total += sgn * c * value_on_indices(w, (k,) + rest)
        if total:
            out[cand] = total
    return InvariantForm(alg, w.degree + 1, out)


def sorted_sign(idx):
    """sort_sign's insertion sort for every length: (sorted tuple, sign)
    or (None, 0) when an index repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    if any(a == b for a, b in zip(idx, idx[1:])):
        return None, 0
    return tuple(idx), sign


def is_closed(w: InvariantForm) -> bool:
    return ce_differential(w).is_zero()


def is_invariant(w: InvariantForm) -> bool:
    """Infinitesimal invariance: sum_a w(.., [z, x_a], ..) = 0 for every
    basis generator z and every basis tuple."""
    alg = w.algebra
    for g in range(algebra_dim(alg)):
        rev = {}
        for j in range(algebra_dim(alg)):
            for k, c in bracket_basis(alg, g, j).items():
                rev.setdefault(k, {})[j] = c
        candidates = set()
        for key in w.terms:
            for k in key:
                for j in rev.get(k, ()):
                    cand = set(key)
                    cand.discard(k)
                    cand.add(j)
                    if len(cand) == w.degree:
                        candidates.add(tuple(sorted(cand)))
        for cand in candidates:
            total = 0
            for a in range(len(cand)):
                for k, c in bracket_basis(alg, g, cand[a]).items():
                    replaced = cand[:a] + (k,) + cand[a + 1 :]
                    total += c * value_on_indices(w, replaced)
            if total:
                return False
    return True


def full_space_residual(pairobj: ProductPair):
    """The flux residual on a triple outside span(S): (h, X, Y) of the
    first root, embedded in the first factor only.  Nonzero whenever the
    group is nonabelian — the restriction to E0 is essential."""
    if pairobj.datum.nroots == 0:
        return None
    phi = flux_residual_form(pairobj)
    L = pairobj.L
    ri = L.simple_indices[0]
    neg = next(
        j
        for j in range(pairobj.datum.nroots)
        if pairobj.datum.roots[j] == tuple(-x for x in pairobj.datum.roots[ri])
    )
    h = embed_left(pairobj, coroot_vector(L, ri))
    x = embed_left(pairobj, root_vector(L, ri))
    y = embed_left(pairobj, root_vector(L, neg))
    return evaluate(phi, h, x, y)


def loop_nondegeneracy(pairobj: ProductPair):
    """check_nondegeneracy as it was: the determinant of F read back from the
    two builders, K(h_beta, h_beta) from trace_kappa, the trace form of the
    table at the full coroot vector (kappa and killing_matrix enter it
    nowhere), and the eigen-relation summed over every pairing entry, zeros
    included.  Returns (passed, witness, residual); the residual of a
    failed eigen-relation is its first nonzero coordinate."""
    M = fiber_pairing_matrix(pairobj, dualizing_form(pairobj))
    det = det_exact(M)
    if det == 0:
        return False, "fiber pairing matrix is singular", "0/1"
    d = pairobj.datum
    for ri, c in enumerate(trace_kappa(pairobj.L)):
        lhs = [0] * d.rank
        for rj, a_on_hb in enumerate(d.pairing[ri]):
            for t in range(d.rank):
                lhs[t] += a_on_hb * d.coroots[rj][t]
        for x, y in zip(lhs, d.coroots[ri]):
            if 2 * x != c * y:
                return False, f"eigen-relation fails for coroot {ri}", frac_str(2 * x - c * y)
    return True, None, frac_str(det)


def extended_root_form(L, root_index) -> InvariantForm:
    """The root alpha as a 1-form: alpha on the Cartan block, zero on all
    root vectors and the radical."""
    terms = {}
    for b in range(len(L.radical_basis) + len(L.simple_indices)):
        v = root_value(L, root_index, b)
        if v:
            terms[(b,)] = v
    return InvariantForm(L, 1, terms)


def tautological_two_form(pairobj: ProductPair) -> InvariantForm:
    """F0 as build_pair built it before the fiber pairing was a matrix:
    F0 = sum over roots of (q* alpha) wedge (qdual* alpha-dual), read off
    the pairing P of the datum: alpha(h_s) = P[s][alpha] and
    alpha-dual(hdual_t) = P[alpha][t] on the simple coroots, and both vanish
    elsewhere, so F0(h_s, hdual_t) = sum_alpha P[s][alpha] P[alpha][t]."""
    L, Ld = pairobj.L, pairobj.Ldual
    P = pairobj.datum.pairing
    h0, hd0 = len(L.radical_basis), pairobj.L.dim + len(Ld.radical_basis)
    cols = [[row[t] for row in P] for t in Ld.simple_indices]
    terms = {
        (h0 + s, hd0 + t): sum(map(mul, P[si], col))
        for s, si in enumerate(L.simple_indices)
        for t, col in enumerate(cols)
    }
    return InvariantForm(pairobj, 2, terms)


def poincare_correction(pairobj: ProductPair) -> InvariantForm:
    """F_P = sum_k z_k wedge z_k-dual over the radical basis, pairing each
    central basis vector with its namesake in the dual algebra: the
    name-paired block, kept as the negative control of the lattice one
    (it fails integrality on GL_n and on (Spin(8) x G_m)/mu_2)."""
    n = pairobj.L.dim
    terms = {}
    for k in range(len(pairobj.L.radical_basis)):
        i = pairobj.L.index[("z", k)]
        j = pairobj.Ldual.index[("z", k)]
        terms[(i, n + j)] = 1
    return InvariantForm(pairobj, 2, terms)


def lattice_exponent(pairobj: ProductPair):
    """The exponent e of Lambda / ((Lambda cap span_Q coroots) + (Lambda cap z)),
    the last Smith invariant factor of the two sublattices' stacked bases:
    Lambda cap z is the integer kernel of the roots, and Lambda cap
    span_Q coroots that of the dual radical basis."""
    L, Ld = pairobj.L, pairobj.Ldual
    if not L.radical_basis:
        return 1
    ss = integer_kernel(Ld.radical_basis) if L.datum.nroots else []
    return smith_normal_form(ss + [list(z) for z in L.radical_basis])[-1]


def lattice_poincare_correction(pairobj: ProductPair) -> InvariantForm:
    """F_P(lambda, mu) = e <pi_z lambda, pi_zdual mu> on the radical bases:
    e (z_k . zdual_j) on (z_k, zdual_j), with e from the Smith form."""
    L, Ld = pairobj.L, pairobj.Ldual
    e = lattice_exponent(pairobj)
    terms = {}
    for k, z in enumerate(L.radical_basis):
        for j, zd in enumerate(Ld.radical_basis):
            if pair(z, zd):
                terms[(L.index[("z", k)], L.dim + Ld.index[("z", j)])] = e * pair(z, zd)
    return InvariantForm(pairobj, 2, terms)


def name_paired_pairing(L: ReductiveLieAlgebra, Ldual: ReductiveLieAlgebra, *_inverse):
    """dualizing_pairing with the name-paired radical block: the identity
    on (z, zdual), F0 on the simple coroots.  It takes dualizing_pairing's
    arguments, so it can stand in for it, but needs no exponent and so
    ignores L's Cartan inverse."""
    P = L.datum.pairing
    nz = len(L.radical_basis)
    cols = [[row[t] for row in P] for t in Ldual.simple_indices]
    radical = [[int(k == j) for j in range(nz)] + [0] * len(cols) for k in range(nz)]
    return radical + [[0] * nz + [sum(map(mul, P[s], col)) for col in cols] for s in L.simple_indices]


def dualizing_form(pairobj: ProductPair) -> InvariantForm:
    """F = F0 + F_P on the product, the sum of the tautological form and
    the lattice F_P."""
    return add_forms(tautological_two_form(pairobj), lattice_poincare_correction(pairobj))


def loop_angle_positivity(pairobj: ProductPair):
    """check_angle_positivity as the double loop over root pairs, i then
    j: the first (i, j) with alpha_i(h_j) alpha_j(h_i) outside 0..4, as
    (passed, witness, residual)."""
    P = pairobj.datum.pairing
    for i in range(len(P)):
        for j in range(len(P)):
            v = P[j][i] * P[i][j]
            if v < 0 or v > 4:
                return False, [i, j], frac_str(v)
    return True, None, None


def fiber_pairing_matrix(pairobj: ProductPair, F: InvariantForm):
    """Matrix of F on the Cartan bases of the two factors, read back one
    value_on_indices per entry."""
    L = pairobj.L
    n_cartan = len(L.radical_basis) + len(L.simple_indices)
    n = pairobj.L.dim
    return [
        [value_on_indices(F, (a, n + b)) for b in range(n_cartan)]
        for a in range(n_cartan)
    ]


def pairing_form(pairobj: ProductPair) -> InvariantForm:
    """The 2-form on the product whose matrix on the Cartan bases is the
    pair's fiber pairing, and which vanishes elsewhere."""
    n = pairobj.L.dim
    terms = {}
    for a, row in enumerate(pairobj.fiber_pairing):
        for b, v in enumerate(row):
            terms[a, n + b] = v
    return InvariantForm(pairobj, 2, terms)


def per_root_tautological_two_form(pairobj: ProductPair) -> InvariantForm:
    """tautological_two_form as it was: one extended-root 1-form of each
    factor per root, and the products of their terms summed."""
    n = pairobj.L.dim
    terms = {}
    for ri in range(pairobj.datum.nroots):
        a = extended_root_form(pairobj.L, ri)
        b = extended_root_form(pairobj.Ldual, ri)
        for (i,), va in a.terms.items():
            for (j,), vb in b.terms.items():
                terms[i, n + j] = terms.get((i, n + j), 0) + va * vb
    return InvariantForm(pairobj, 2, terms)


def embed_left(pairobj: ProductPair, v):
    """A coefficient vector of the first factor in the product."""
    return list(v) + [0] * pairobj.Ldual.dim


def embed_right(pairobj: ProductPair, v):
    """A coefficient vector of the second factor in the product."""
    return [0] * pairobj.L.dim + list(v)


def densify(S, dim):
    """The members (name, {index: coeff}) of a spanning set as (name,
    coefficient vector of length dim)."""
    out = []
    for name, vec in S:
        dense = [0] * dim
        for i, c in vec.items():
            dense[i] = c
        out.append((name, dense))
    return out


def dense_spanning_set(pairobj: ProductPair):
    """The spanning set S as build_pair built it before its members were
    sparse: dense product vectors from embedded coroot vectors, a repeated
    vector kept once."""
    L, Ldual = pairobj.L, pairobj.Ldual
    dim = algebra_dim(pairobj)
    S, seen = [], set()

    def add(name, vec):
        if tuple(vec) not in seen:
            seen.add(tuple(vec))
            S.append((name, vec))

    for ri in range(pairobj.datum.nroots):
        add(f"h[{ri}]", embed_left(pairobj, coroot_vector(L, ri)))
        xv = [0] * dim
        xv[L.index[("x", ri)]] = 1
        xv[L.dim + Ldual.index[("x", ri)]] = 1
        add(f"x+phix[{ri}]", xv)
        add(f"hdual[{ri}]", embed_right(pairobj, coroot_vector(Ldual, ri)))
    for k in range(len(L.radical_basis)):
        zv = [0] * dim
        zv[L.index[("z", k)]] = 1
        add(f"z[{k}]", zv)
        wv = [0] * dim
        wv[L.dim + Ldual.index[("z", k)]] = 1
        add(f"zdual[{k}]", wv)
    return S


def spanning_set_with_basis(pairobj: ProductPair):
    """(S, basis) as build_pair built them before it built B alone: the
    sparse members (name, {index: coeff}) of S, a repeated vector kept once,
    and the positions in S of the members of B."""
    L, Ldual, d = pairobj.L, pairobj.Ldual, pairobj.datum
    S, basis, seen = [], [], set()

    def add(name, vec, in_basis):
        key = frozenset(vec.items())
        if key not in seen:
            seen.add(key)
            if in_basis:
                basis.append(len(S))
            S.append((name, vec))

    n = L.dim
    h0, hd0 = len(L.radical_basis), n + len(Ldual.radical_basis)
    simple = set(L.simple_indices)
    for ri in range(d.nroots):
        add(f"h[{ri}]", {h0 + c: v for c, v in enumerate(coroot_coordinates(L)[ri]) if v}, ri in simple)
        add(f"x+phix[{ri}]", {L.index[("x", ri)]: 1, n + Ldual.index[("x", ri)]: 1}, True)
        add(f"hdual[{ri}]", {hd0 + c: v for c, v in enumerate(coroot_coordinates(Ldual)[ri]) if v}, ri in simple)
    for k in range(len(L.radical_basis)):
        add(f"z[{k}]", {L.index[("z", k)]: 1}, True)
        add(f"zdual[{k}]", {n + Ldual.index[("z", k)]: 1}, True)
    return S, basis


def basis_owners(S, basis, dim):
    """Map each of the dim product indices to (position in S, coefficient)
    of the one member of B = [S[p] for p in basis] whose support holds it;
    each member of S is (name, {index: nonzero coefficient}).

    Raises unless the supports in B are disjoint and cover every index, and
    every other member of S is supported on indices owned by single-index
    members of B, so that B is a basis of span(S).
    """
    owner = {}
    for p in basis:
        for i, c in S[p][1].items():
            if i in owner:
                raise RuntimeError(f"{S[p][0]} and {S[owner[i][0]][0]} share index {i}")
            owner[i] = (p, c)
    if len(owner) != dim:
        raise RuntimeError(f"B covers {len(owner)} of {dim} indices")
    single = {p for p in basis if len(S[p][1]) == 1}
    in_basis = set(basis)
    for p, (name, vec) in enumerate(S):
        if p not in in_basis and any(owner[i][0] not in single for i in vec):
            raise RuntimeError(f"{name} is not spanned by the single-index members of B")
    return owner


def pullback_first(pairobj: ProductPair, w: InvariantForm) -> InvariantForm:
    return InvariantForm(pairobj, w.degree, dict(w.terms))


def pullback_second(pairobj: ProductPair, w: InvariantForm) -> InvariantForm:
    n = pairobj.L.dim
    return InvariantForm(
        pairobj,
        w.degree,
        {tuple(i + n for i in key): v for key, v in w.terms.items()},
    )


def composed_phi(pairobj: ProductPair) -> InvariantForm:
    """phi = dF - q*H + qdual*Hdual as it was built: each pullback, the
    sign flip, the difference and the sum a new, validated form."""
    dF = ce_differential(pairing_form(pairobj))
    H = cartan_three_form(pairobj.L)
    Hd = cartan_three_form(pairobj.Ldual)
    return add_forms(subtract(dF, pullback_first(pairobj, H)), pullback_second(pairobj, Hd))


def per_unit_lattice_pairing(pairobj: ProductPair):
    """lattice_pairing_matrix as it was: one Fraction solve per unit vector
    of each lattice, and the 2-form of the fiber pairing evaluated on every
    pair of the embedded vectors."""
    rank = pairobj.datum.rank
    units = [[1 if t == a else 0 for t in range(rank)] for a in range(rank)]
    lams = [embed_left(pairobj, cartan_vector(pairobj.L, u)) for u in units]
    mus = [embed_right(pairobj, cartan_vector(pairobj.Ldual, u)) for u in units]
    F = pairing_form(pairobj)
    return [[evaluate(F, lam, mu) for mu in mus] for lam in lams]


# ---------------------------------------------------------------------------
# The CLI's JSON text


def stdlib_emit(obj):
    """The text every CLI command writes before its final newline."""
    return json.dumps(obj, indent=2, sort_keys=True)


def structure_constant_dump(L: ReductiveLieAlgebra) -> dict:
    """The structure constants as JSON-ready data, each basis label named
    once, by basis index, and each constant as a fraction "n/d": the object
    export-algebra built before it wrote its text from the table."""
    names = [f"{lab[0]}{lab[1]}" for lab in L.labels]
    pairs = []
    for (i, j), out in sorted(L.table.items()):
        pairs.append(
            {
                "x": names[i],
                "y": names[j],
                "out": [[names[k], f"{v.numerator}/{v.denominator}"] for k, v in sorted(out.items())],
            }
        )
    return {"pairs": pairs}


def export_algebra_object(L: ReductiveLieAlgebra) -> dict:
    """The object whose stdlib text export-algebra writes: the dump, the
    dimension and the basis names."""
    dump = structure_constant_dump(L)
    dump["dim"] = L.dim
    dump["basis"] = [f"{lab[0]}{lab[1]}" for lab in L.labels]
    return dump
