"""Reductive Lie algebras from root data: Chevalley basis, bracket,
adjoint action, Killing form, and the structural identity checks.

Basis labels are tuples: ("z", k) for the radical block, ("h", i) for the
i-th simple coroot, ("x", ri) for the root vector of root index ri.
Structure constants, Killing values and coroot coordinates are exact ints
(integral by the Chevalley basis theorem); the sign convention comes from the
extraspecial-pair method.  The N-table is the one writer of the bracket
table: each positive triple a + b = s writes the six brackets of its roots
and their negatives, and an algebra holds a copy of the table's top-level
dict.  Jacobi is certified post hoc, each step run only when the one before
fails: a simply-laced table is read entry by entry against the Frenkel-Kac
cocycle table twisted by signs, h_a checked against P; then the simple root
vectors and the radical generate the algebra, the Chevalley involution is an
automorphism of the table, and ad z_k, ad x_a (a simple) are derivations; then
that last test runs on every basis element, naming the first failing triple.
"""

from collections import defaultdict
from operator import mul

from . import exactlin, rootdatum
from .rootdatum import RootDatum


class JacobiError(RuntimeError):
    """Raised when the constructed structure constants violate Jacobi."""


class ReductiveLieAlgebra:
    def __init__(self, datum, labels, table, radical_basis, simple_indices, kappa):
        self.datum = datum
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.dim = len(labels)
        self.table = table                      # {(i, j) i<j: {k: int}}
        self.radical_basis = radical_basis      # integer vectors in Lambda
        self.simple_indices = tuple(simple_indices)
        self.kappa = kappa                      # root index -> K(h_a, h_a), the N-table's root sums
        self._killing = None

    # -- bracket ----------------------------------------------------------

    @property
    def blocks(self):
        """The bracket table {(i, j) i<j: {k: c}} with its index offset, 0."""
        return ((0, self.table),)

    # -- Killing form -----------------------------------------------------

    def killing_matrix(self):
        """The Killing form K(X, Y) = Tr(ad X ad Y) on the basis, cached, and
        stored as its nonzero rows: row i is {j: K(e_i, e_j)} for the
        nonzero entries only.

        Its one source is kappa, kappa[a] = K(h_a, h_a) = sum_b P[a][b]^2
        (ad h_a is diagonal with b(h_a) = P[a][b] on x_b), the root sums of
        the N-table.  ad x_a ad x_b shifts weights by a + b, so x_a pairs
        only with x_-a, and the radical is central, so its rows are empty.
        Invariance, which Jacobi gives (the table is certified before any K
        is read), reads the rest off kappa and P:
        K(h_a, h_a) = K(h_a, [x_a, x_-a]) = a(h_a) K(x_a, x_-a) gives
        K(x_a, x_-a) = kappa[a] / 2, and likewise
        K(h_s, h_t) = t(h_s) K(x_t, x_-t) = P[s][t] kappa[t] / 2 on the
        simple coroots.  kappa[a] is even, as b and -b give equal squares."""
        if self._killing is None:
            P, kappa, nz = self.datum.pairing, self.kappa, len(self.radical_basis)
            K = [{} for _ in range(nz)]
            K += [{t: P[s][ti] * kappa[ti] // 2 for t, ti in enumerate(self.simple_indices, nz) if P[s][ti]}
                  for s in self.simple_indices]
            sigma = _involution(self)
            K += [{sigma[x]: kappa[self.labels[x][1]] // 2} for x in range(len(K), self.dim)]
            self._killing = K
        return self._killing


# ---------------------------------------------------------------------------
# Structure constants


class _NTable:
    """The bracket table {(i, j) i<j: {k: c}} of the Chevalley basis, the one
    store of its structure constants.  It fixes the basis order: the radical
    and the simple coroots, rank in all, then the root vectors, x_a at rank + t
    for a = positives[t] (by height, then coordinates) and x_-a at rank + npos + t.

    The simple-root coordinates c of each root b are read off the pairing,
    c = A^-1 (P[s][b])_s with A = (P[s][t]) the Cartan matrix over the
    simple s, t, and so are the simple-coroot coordinates of the coroot of
    each positive b, (A^-1)^T (P[b][s])_s, kept by root index: the simple
    coroots of a valid datum are a base of its coroot system, so they span
    every coroot, and only h_b for b positive is written.  The root is
    coded as the int sum_k M^k c_k, so -a, a + b and root strings are int
    sums and dict lookups.  The codes are rootdatum._injective_values at
    reach 3, which tell a root from every b - n a with |n| <= 4: b - 4a,
    ending a root string in _p, is the longest combination looked up.

    [h_s, x_a] = a(h_s) x_a and [x_a, x_-a] = h_a are read off the pairing
    and the coroot coordinates.  Positive-pair values N_{a,b} are fixed by
    the extraspecial-pair method in order of height.  Each one fixes the
    other five pairs of its triple in closed form, through N_{-a,-b} =
    -N_{a,b} and the cyclic relation N_{a,b} K(h_c,h_c) = N_{b,c} K(h_a,h_a)
    for a+b+c = 0, with K(h_a,h_a) = sum_b <h_a, b>^2 (the root-sum formula),
    kept as kappa by root index; _n reads N_{a,b} back off the brackets.
    kappa also feeds the Killing form and the eigen-relation: nothing else
    computes K(h_a, h_a).
    """

    def __init__(self, datum, pos_indices, simple_indices):
        P = self.pairing = datum.pairing
        self.rank, self.chamber = datum.rank, (pos_indices, simple_indices)
        self.roots = datum.roots
        X, den = exactlin.integer_inverse([[P[s][t] for t in simple_indices] for s in simple_indices])
        refuse = "{} is not an integral combination of the simple vectors".format
        coords = exactlin.exact_quotients(X, den, zip(*(P[s] for s in simple_indices)),
                                          lambda i: refuse(datum.roots[i]))
        self.coroot_coords = dict(zip(pos_indices, exactlin.exact_quotients(
            list(zip(*X)), den, ([P[a][s] for s in simple_indices] for a in pos_indices),
            lambda i: refuse(datum.coroots[pos_indices[i]]))))
        self.code = rootdatum._injective_values(coords, 3)
        self.by_code = {x: i for i, x in enumerate(self.code)}
        self.neg = [self.by_code[-x] for x in self.code]
        self.kappa = [sum(map(mul, row, row)) for row in P]
        self.height = [sum(c) for c in coords]
        # The positive roots in order of height, then of coordinates; the
        # root vectors in basis order, and the basis index x[a] of x_a.
        self.positives = sorted(pos_indices, key=lambda i: (self.height[i], coords[i]))
        self.order = self.positives + [self.neg[a] for a in self.positives]
        self.x = {a: x for x, a in enumerate(self.order, datum.rank)}
        # [h_s, x_a] = a(h_s) x_a ; the radical brackets to zero.  Then
        # [x_a, x_-a] = h_a for a positive; _fill writes each positive triple.
        nz, npos = datum.rank - len(simple_indices), len(self.positives)
        self.table = {(h, x): {x: P[s][a]} for h, s in enumerate(simple_indices, nz)
                      for x, a in enumerate(self.order, datum.rank) if P[s][a]}
        for x, a in enumerate(self.positives, datum.rank):
            self.table[x, x + npos] = {h: v for h, v in enumerate(self.coroot_coords[a], nz) if v}
        self._fill()

    def _p(self, a, b):
        """Largest p with b - p a a root."""
        p, step = 0, self.code[a]
        cur = self.code[b] - step
        while cur in self.by_code:
            p += 1
            cur -= step
        return p

    def _fill(self):
        code, by_code, height = self.code, self.by_code, self.height
        place = {a: t for t, a in enumerate(self.positives)}
        for gamma in self.positives:
            specials = []               # (a, b) with a + b = gamma, a < b, in order of a
            for a in self.positives:
                if 2 * height[a] > height[gamma]:
                    break               # a < b forces ht(a) <= ht(gamma) / 2
                b = by_code.get(code[gamma] - code[a])
                if b is not None and place[a] < place.get(b, -1):
                    specials.append((a, b))
            if not specials:
                continue
            a1, b1 = specials[0]
            self._set(a1, b1, self._p(a1, b1) + 1)
            for a, b in specials[1:]:
                self._derive(a, b, a1, b1, gamma)

    def _set(self, a, b, n):
        """N_{a,b} = n for positive a before b: the six brackets of the
        triple a + b = s, with c = -s,
        [x_a, x_b] = N_ab x_s, [x_-a, x_-b] = -N_ab x_-s, [x_b, x_c] = N_bc x_-a,
        [x_-b, x_s] = -N_bc x_a, [x_c, x_a] = N_ca x_-b, [x_s, x_-a] = -N_ca x_b.
        Positives precede negatives, so each key below has i < j."""
        s = self.by_code[self.code[a] + self.code[b]]
        c, kappa = self.neg[s], self.kappa
        n_bc = self._ratio(b, c, n * kappa[c], kappa[a])
        n_ca = self._ratio(c, a, n * kappa[c], kappa[b])
        x, neg = self.x, self.neg
        xa, xb, xs = x[a], x[b], x[s]
        ya, yb, ys = x[neg[a]], x[neg[b]], x[c]
        T = self.table
        T[xa, xb], T[ya, yb] = {xs: n}, {ys: -n}
        T[xb, ys], T[xs, yb] = {ya: n_bc}, {xa: n_bc}
        T[xa, ys], T[xs, ya] = {yb: -n_ca}, {xb: -n_ca}

    def _n(self, a, b):
        """N_{a,b} for roots a, b with a + b a root, off the one term of
        [x_a, x_b] = N_{a,b} x_{a+b}."""
        i, j = self.x[a], self.x[b]
        (n,) = self.table[i, j].values() if i < j else self.table[j, i].values()
        return n if i < j else -n

    def _derive(self, a, b, a1, b1, gamma):
        # Jacobi on (x_{a1}, x_{-a}, x_{-b}); all terms land in g_{-b1}.
        N, code, by_code = self._n, self.code, self.by_code
        na, nb = self.neg[a], self.neg[b]
        d, d2 = by_code.get(code[a1] - code[a]), by_code.get(code[a1] - code[b])
        t1 = 0 if d is None else N(a1, na) * N(d, nb)
        t2 = 0 if d2 is None else N(nb, a1) * N(d2, na)
        # N(-gamma, a1) = N(a1, b1) K_gamma / K_{b1}  (cycle -gamma+a1+b1=0),
        # and N(a, b) = (t1 + t2) / N(-gamma, a1).
        self._set(a, b, self._ratio(a, b, (t1 + t2) * self.kappa[b1], N(a1, b1) * self.kappa[gamma]))

    def _ratio(self, a, b, num, den):
        """N_{a,b} = num / den, refused unless the division is exact."""
        q, r = divmod(num, den)
        if r:
            raise ValueError(f"non-integral structure constant N{self.roots[a], self.roots[b]} = {num}/{den}")
        return q


def build_lie_algebra(d: RootDatum, tables=None) -> ReductiveLieAlgebra:
    """Construct the reductive Lie algebra of a valid root datum.

    The radical block is the integral kernel of the roots on Lambda; the
    bracket table is the N-table's, read off the pairing on the chamber and
    the rank alone, and the algebra holds a copy of its top-level dict.
    Jacobi is certified by ``jacobi_witness`` before returning.  ``tables``,
    when given, is a list of the N-tables built so far: one with d's
    pairing, chamber and rank is read instead of building d's own, which is
    appended otherwise.  An ADE datum and its dual have one P (it is
    symmetric), one chamber and one rank, so they share one: the whole table.
    """
    rep = rootdatum.validate(d)
    if not rep.ok:
        raise ValueError(f"invalid root datum: {rep.as_dict()}")

    pos_indices, simple_indices = rootdatum.positive_system(d)

    if not d.nroots:
        radical_basis = [[1 if i == j else 0 for j in range(d.rank)] for i in range(d.rank)]
    elif len(simple_indices) == d.rank:
        # d is valid, so its simple roots are a base of the root system and
        # independent: rank of them leave an integer kernel of 0.
        radical_basis = []
    else:
        radical_basis = exactlin.integer_kernel([list(r) for r in d.roots])

    # The table's basis offsets hang on the rank: A1:sc and A1xT1:sc have
    # one P and one chamber, but not one table.
    chamber = (pos_indices, simple_indices)
    ntab = next((t for t in tables or () if (t.rank, t.chamber, t.pairing) == (d.rank, chamber, d.pairing)), None)
    if ntab is None:
        ntab = _NTable(d, pos_indices, simple_indices)
        if tables is not None:
            tables.append(ntab)

    # Basis order: radical, simple coroots, root vectors in ntab.order.
    labels = (
        [("z", k) for k in range(len(radical_basis))]
        + [("h", i) for i in range(len(simple_indices))]
        + [("x", ri) for ri in ntab.order]
    )

    L = ReductiveLieAlgebra(d, labels, dict(ntab.table), radical_basis, simple_indices, ntab.kappa)
    bad = jacobi_witness(L)
    if bad is not None:
        raise JacobiError(f"Jacobi identity fails on basis triple {bad}")
    return L


def jacobi_witness(L: ReductiveLieAlgebra):
    """First basis triple violating Jacobi, in combinations order, or None.

    The cocycle certificate of ``_cocycle_certificate`` (simply-laced tables)
    runs first, then the generator certificate of ``_certificate``.  If both
    fail, each basis element g in turn is tested as a generator is: the
    first g where ad g is not a derivation, with its first failing pair
    j < k, is the first failing triple, since the Jacobiator is alternating."""
    if _cocycle_certificate(L):
        return None
    rows, into, certified = _certificate(L)
    if certified:
        return None
    for g in range(L.dim):
        bad = _jacobiator(rows, into, g)
        if bad:
            return (g, *min(bad))
    return None


def _cocycle_certificate(L):
    """True when the simple Cartan block A is symmetric, so that its
    off-diagonal entries are 0 or -1 (a_ij a_ji < 4 on a valid datum), and
    L.table is the Frenkel-Kac table twisted by signs
    (Frenkel-Kac, Invent. Math. 62, 1980; Kac, Infinite-dimensional Lie
    algebras, 7.8).  That table, [h, E_a] = (h, a) E_a, [E_a, E_-a] = -h_a and
    [E_a, E_b] = eps(a, b) E_(a+b) for a + b a root, is a Lie algebra when
    eps(a_i, a_j) = -1 for i = j, or i < j and A_ij = -1, else 1, extended
    bimultiplicatively: eps reads the root coordinates mod 2, packed in an
    int.  x_a = s_a E_a with s_a = +-1 and s_-a = -s_a is an isomorphism, so
    Jacobi holds when [h_s, x_a] = P[s][a] x_a, [x_a, x_-a] = h_a and
    [x_a, x_b] = s_a s_b s_(a+b) eps(a, b) x_(a+b).  A valid datum with such
    an A is simply laced, so P[a][b] = (a, b) is symmetric: a + b is a root
    exactly when P[a][b] = -1.  Only P, the chamber, the layout and the table
    are read: A c_a = (P[s][a])_s, c_a the h_a of [x_a, x_-a], makes c_a a's
    root and coroot coordinates (A is invertible and symmetric), coded by
    rootdatum._injective_values at reach 2, which tells a root from every
    difference of two roots; -a is coded -c_a.  s = 1 on the simple roots,
    and s_g = s_i s_b eps(a_i, b) N(a_i, b) for g = a_i + b, going up by
    height.  Every nonzero entry of a key i < j is then read once, and
    their count must be exact, so no bracket is missing: an N read wrong
    fails there."""
    P, simple, table = L.datum.pairing, L.simple_indices, L.table
    r, nz = len(simple), len(L.radical_basis)
    A = [[P[s][t] for t in simple] for s in simple]
    if any(A[i][j] != A[j][i] for i in range(r) for j in range(i)):
        return False
    first, roots = nz + r, [lab[1] for lab in L.labels[nz + r:]]
    npos = len(roots) // 2
    coords = [list(map(table.get((x, x + npos), {}).get, range(nz, first), [0] * r)) for x in range(first, first + npos)]
    if exactlin.column_products(A, coords) != [[P[s][a] for a in roots[:npos]] for s in simple]:
        return False                    # h_a is not a's coroot
    code = rootdatum._injective_values(coords, 2)
    bits = rootdatum._functional_values([[c & 1 for c in v] for v in coords], 2)
    masks = [sum(1 << j for j in range(k, r) if j == k or A[k][j]) for k in range(r)]
    up = [0] * first + [sum(((b & m).bit_count() & 1) << k for k, m in enumerate(masks)) for b in bits] * 2
    code, bits = [0] * first + code + [-x for x in code], [0] * first + bits * 2
    by_code, xs = dict(zip(code[first:], range(first, L.dim))), [L.index[("x", a)] for a in simple]
    sign = [0] * L.dim                  # s_x = (-1) ** sign[x]
    for g in range(first, first + npos):
        for x in xs:                    # g = a_i + b, a_i the first simple root that fits
            y = by_code.get(code[g] - code[x])
            if y is not None:
                n = table.get((min(x, y), max(x, y)), {}).get(g, 0) * (1 if x < y else -1)
                sign[g] = (sign[x] ^ sign[y] ^ (bits[x] & up[y]).bit_count() ^ (n < 0)) & 1
                break
        sign[g + npos] = sign[g] ^ 1
    count = 0
    for (i, j), out in table.items():
        if i >= j:                                      # the formulas read [e_i, e_j] with i < j
            return False
        for k, c in out.items():
            if not c:
                continue
            count += 1
            if i >= first and j - i == npos:            # [x_a, x_-a] = h_a
                ok = nz <= k < first
            elif i >= first:                            # [x_a, x_b] = N x_(a+b)
                parity = sign[i] ^ sign[j] ^ sign[k] ^ (bits[i] & up[j]).bit_count()
                ok = code[i] + code[j] == code[k] and c == 1 - 2 * (parity & 1)
            else:                                       # [h_s, x_a] = P[s][a] x_a
                ok = nz <= i and k == j >= first and c == P[simple[i - nz]][roots[j - first]]
            if not ok:
                return False
    return count == (sum(len(P[s]) - P[s].count(0) for s in simple)
                     + sum(len(v) - v.count(0) for v in coords) + sum(row.count(-1) for row in P) // 2)


def _certificate(L):
    """(rows, into, passed) for the generator certificate: the simple root
    vectors x_a, x_-a and the radical basis z_k generate the algebra, the
    Chevalley involution omega (x_a -> -x_-a, h -> -h, z -> -z) is an
    automorphism of the table, and ad z_k and ad x_a (a simple) are
    derivations.  Jacobi then holds: ad x_-a = -omega ad x_a omega^-1 is a
    derivation too, and the x whose ad x is a derivation form a subalgebra
    (ad [x, y] = [ad x, ad y]).  One pass over ``L.table``, read on every
    call, builds the signed rows and the index by output, and checks omega."""
    table, sigma = L.table, _involution(L)
    rows = [[] for _ in range(L.dim)]   # rows[a]: (b, k, [e_a, e_b]_k), both orders
    into = [[] for _ in range(L.dim)]   # into[m]: (j, k, [e_j, e_k]_m), j < k
    omega = True
    for (i, j), out in table.items():
        # omega maps [e_i, e_j] = sum c e_k to [e_si, e_sj] = -sum c e_sk;
        # it permutes the pairs, so zero brackets then map to zero ones.
        row_i, row_j, si, sj = rows[i], rows[j], sigma[i], sigma[j]
        sign, image = (-1 if si < sj else 1), {}
        for k, c in out.items():
            row_i.append((j, k, c))
            row_j.append((i, k, -c))
            into[k].append((i, j, c))
            image[sigma[k]] = sign * c
        if omega and table.get((si, sj) if si < sj else (sj, si)) != image:
            omega = False
    gens = _generators(L, sigma)
    passed = (omega and _generates(rows, gens)
              and not any(_jacobiator(rows, into, g) for g in gens if g <= sigma[g]))
    return rows, into, passed


def _generators(L, sigma):
    """Basis indices of z_k and of x_a, x_-a for each simple root a."""
    xs = [L.index[("x", ri)] for ri in L.simple_indices]
    return list(range(len(L.radical_basis))) + xs + [sigma[x] for x in xs]


def _involution(L):
    """sigma with omega(e_i) = -e_sigma(i): it fixes the Cartan block and
    swaps x_a = e_(first_x + t) with x_-a = e_(first_x + npos + t)."""
    first_x = len(L.radical_basis) + len(L.simple_indices)
    npos = (L.dim - first_x) // 2
    return [*range(first_x), *range(first_x + npos, L.dim), *range(first_x, first_x + npos)]


def _generates(rows, gens):
    """True when every basis index is reached from gens by bracketing with
    a generator, counting only brackets that are one nonzero term c e_k."""
    terms = {}                          # (g, r) -> [k with [e_g, e_r]_k nonzero]
    for g in gens:
        for r, k, c in rows[g]:
            if c:
                terms.setdefault((g, r), []).append(k)
    step = {}                           # r -> [e_k that one bracket takes e_r to]
    for (g, r), ks in terms.items():
        if len(ks) == 1:
            step.setdefault(r, []).append(ks[0])
    reached, todo = set(gens), list(gens)
    while todo:
        for k in step.get(todo.pop(), ()):
            if k not in reached:
                reached.add(k)
                todo.append(k)
    return len(reached) == len(rows)


def _jacobiator(rows, into, g):
    """The pairs j < k where J(g, e_j, e_k) = [g, [e_j, e_k]] -
    [e_j, [g, e_k]] - [[g, e_j], e_k] is nonzero, so ad g is no derivation.
    J is summed from the terms of ad g alone: each [g, e_m] combines with the
    entries [e_j, e_k] whose output holds e_m, and each [g, e_j] = sum c e_m
    the row of e_m; with A(j, k) = [[g, e_j], e_k], the last two terms of J
    are A(k, j) - A(j, k)."""
    dim = len(rows)
    acc = defaultdict(int)              # (j dim + k) dim + n -> J(g, e_j, e_k)_n, j < k
    for m, n, c in rows[g]:
        for j, k, cm in into[m]:
            acc[(j * dim + k) * dim + n] += cm * c
    for j, m, c in rows[g]:
        for k, n, cn in rows[m]:
            if j < k:
                acc[(j * dim + k) * dim + n] -= c * cn
            elif k < j:
                acc[(k * dim + j) * dim + n] += c * cn
    return [divmod(key // dim, dim) for key, v in acc.items() if v]
