"""Reductive Lie algebras from root data: Chevalley basis, bracket,
adjoint action, Killing form, and the structural identity checks.

Basis labels are tuples: ("z", k) for the radical block, ("h", i) for the
i-th simple coroot, ("x", ri) for the root vector of root index ri.
Structure constants, Killing values and coroot coordinates are exact ints
(integral by the Chevalley basis theorem); the sign convention comes from the
extraspecial-pair method, and each positive triple a + b = s of the N-table
gives the six brackets of its roots and their negatives.  The table is
certified post hoc on the generators: the simple root vectors and the
radical generate the algebra, the Chevalley involution is an automorphism of
the table, and ad z_k and ad x_a (a simple) are derivations.  A table that
fails this is checked the same way on every basis element, which names the
first failing triple.
"""

from . import exactlin, rootdatum
from .rootdatum import RootDatum


class JacobiError(RuntimeError):
    """Raised when the constructed structure constants violate Jacobi."""


class ReductiveLieAlgebra:
    def __init__(self, datum, labels, table, radical_basis, simple_indices, coroot_coords):
        self.datum = datum
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.dim = len(labels)
        self.table = table                      # {(i, j) i<j: {k: int}}
        self.radical_basis = radical_basis      # integer vectors in Lambda
        self.simple_indices = tuple(simple_indices)
        self.coroot_coords = coroot_coords      # root index -> coords in simple coroots
        self._killing = None

    # -- bracket ----------------------------------------------------------

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse {index: coefficient} dict."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def brackets(self):
        """Iterate nonzero basis brackets as (i, j, {k: c}) with i < j."""
        for (i, j), out in self.table.items():
            yield i, j, out

    # -- Killing form -----------------------------------------------------

    def killing_matrix(self):
        """Exact trace form Tr(ad X ad Y) on the basis, cached.

        K[i][j] sums [e_i, e_m]_k [e_j, e_k]_m over the table's entries,
        grouped by (m, k): each group of [e_i, e_m]_k meets the group of
        [e_j, e_k]_m."""
        if self._killing is None:
            meets = {}                      # (m, k) -> [(i, [e_i, e_m]_k)]
            for (i, j), out in self.table.items():
                for k, c in out.items():
                    meets.setdefault((j, k), []).append((i, c))
                    meets.setdefault((i, k), []).append((j, -c))
            K = [[0] * self.dim for _ in range(self.dim)]
            for (m, k), left in meets.items():
                right = meets.get((k, m))
                if right:
                    for i, c in left:
                        K_i = K[i]
                        for j, v in right:
                            K_i[j] += c * v
            self._killing = K
        return self._killing

    # -- coordinates ------------------------------------------------------

    def coroot_vector(self, root_index):
        """h_alpha as a basis coefficient vector."""
        out = [0] * self.dim
        nz = len(self.radical_basis)
        out[nz : nz + len(self.simple_indices)] = self.coroot_coords[root_index]
        return out


# ---------------------------------------------------------------------------
# Structure constants


def _simple_coords(vectors, simple_indices, targets):
    """Integer coordinates of each target in the simple members of vectors
    (the roots or the coroots of a datum), from one integer solve for the
    batch; raises ValueError unless every target lies in their integer
    span."""
    coords = exactlin.integer_coordinates([vectors[s] for s in simple_indices], targets)
    for t, x in zip(targets, coords):
        if x is None:
            raise ValueError(f"{t} is not an integral combination of the simple vectors")
    return coords


def _root_sum_sq(datum, i):
    """K(h_alpha, h_alpha) computed by the root-sum formula (exact int)."""
    return sum(v * v for v in datum.pairing[i])


class _NTable:
    """Chevalley constants N_{a,b} for every root pair with a+b a root,
    keyed by root vectors.

    Positive-pair values are fixed by the extraspecial-pair method in order
    of height.  Each one fixes the other five pairs of its triple in closed
    form, through N_{-a,-b} = -N_{a,b} and the cyclic relation
    N_{a,b} K(h_c,h_c) = N_{b,c} K(h_a,h_a) for a+b+c = 0.
    """

    def __init__(self, datum, pos_indices, simple_indices):
        self.by_vec = {datum.roots[i]: i for i in range(datum.nroots)}
        self.pos = set(datum.roots[i] for i in pos_indices)
        self.K = {datum.roots[i]: _root_sum_sq(datum, i) for i in range(datum.nroots)}
        # Simple-root coordinates for height and ordering.
        pos = list(self.pos)
        self.coords = dict(zip(pos, _simple_coords(datum.roots, simple_indices, pos)))
        self.order = {
            v: (sum(self.coords[v]), self.coords[v]) for v in self.pos
        }
        self.table = {}     # (a, b) -> N_{a,b}, both orders, all signs
        self.triples = []   # (a, b, N_{a,b}, N_{b,-(a+b)}, N_{-(a+b),a}) for positive a < b
        self._fill()

    def _p(self, a, b):
        """Largest p with b - p a a root."""
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while cur in self.by_vec:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    def _fill(self):
        positives = sorted(self.pos, key=lambda v: self.order[v])
        for gamma in positives:
            specials = []               # (a, b) with a + b = gamma, a < b, in order of a
            for a in positives:
                if 2 * self.order[a][0] > self.order[gamma][0]:
                    break               # a < b forces ht(a) <= ht(gamma) / 2
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
        """N_{a,b} = n for positive a, b, and the other pairs of the triple
        a + b + c = 0 and of its negative."""
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
        # Jacobi on (x_{a1}, x_{-a}, x_{-b}); all terms land in g_{-b1}.
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
        # N(-gamma, a1) = N(a1, b1) K_gamma / K_{b1}  (cycle -gamma+a1+b1=0),
        # and N(a, b) = (t1 + t2) / N(-gamma, a1).
        self._set(a, b, self._ratio(a, b, (t1 + t2) * self.K[b1], T[a1, b1] * self.K[gamma]))

    def _ratio(self, a, b, num, den):
        """N_{a,b} = num / den, refused unless the division is exact."""
        q, r = divmod(num, den)
        if r:
            raise ValueError(f"non-integral structure constant N{a, b} = {num}/{den}")
        return q


def build_lie_algebra(d: RootDatum) -> ReductiveLieAlgebra:
    """Construct the reductive Lie algebra of a valid root datum.

    The radical block is the integral kernel of the roots on Lambda; the
    semisimple block is built on the simple coroots and one root vector per
    root.  Jacobi is certified by ``jacobi_witness`` before returning.
    """
    rep = rootdatum.validate(d)
    if not rep.ok:
        raise ValueError(f"invalid root datum: {rep.as_dict()}")

    pos_indices, simple_indices = rootdatum.positive_system(d)

    if d.nroots:
        radical_basis = exactlin.integer_kernel([list(r) for r in d.roots])
    else:
        radical_basis = [[1 if i == j else 0 for j in range(d.rank)] for i in range(d.rank)]

    ntab = _NTable(d, pos_indices, simple_indices) if d.nroots else None

    # Basis order: radical, simple coroots, root vectors (positives by
    # height/lex, then the matching negatives).
    pos_sorted = sorted(pos_indices, key=lambda i: ntab.order[d.roots[i]])
    neg_sorted = [ntab.by_vec[tuple(-x for x in d.roots[i])] for i in pos_sorted]
    root_order = pos_sorted + neg_sorted
    nz, ns = len(radical_basis), len(simple_indices)
    labels = (
        [("z", k) for k in range(nz)]
        + [("h", i) for i in range(ns)]
        + [("x", ri) for ri in root_order]
    )

    # Coroot coordinates in the simple-coroot basis.
    coroots = [d.coroots[ri] for ri in root_order]
    coroot_coords = dict(zip(root_order, _simple_coords(d.coroots, simple_indices, coroots)))

    table = {}
    # [h, x_alpha] = alpha(h) x_alpha ; the radical brackets to zero.
    first_x = nz + ns
    for s, si in enumerate(simple_indices):
        row = d.pairing[si]
        for x, ri in enumerate(root_order, first_x):
            if row[ri]:
                table[nz + s, x] = {x: row[ri]}

    # [x_alpha, x_{-alpha}] = h_alpha for alpha positive; x_a (x_-a) is the
    # basis element first_x + t (first_x + npos + t) for a = pos_sorted[t].
    npos = len(pos_sorted)
    for t, ri in enumerate(pos_sorted):
        table[first_x + t, first_x + npos + t] = {nz + c: v for c, v in enumerate(coroot_coords[ri]) if v}

    # Each positive triple a + b = s gives its six brackets, with c = -s:
    # [x_a, x_b] = N_ab x_s, [x_-a, x_-b] = -N_ab x_-s, [x_b, x_c] = N_bc x_-a,
    # [x_-b, x_s] = -N_bc x_a, [x_c, x_a] = N_ca x_-b, [x_s, x_-a] = -N_ca x_b.
    # Positives precede negatives, so each key below has i < j.
    x_pos = {d.roots[ri]: first_x + t for t, ri in enumerate(pos_sorted)}
    for a, b, n, n_bc, n_ca in ntab.triples if ntab else ():
        xa, xb = x_pos[a], x_pos[b]
        xs = x_pos[tuple(x + y for x, y in zip(a, b))]
        ya, yb, ys = xa + npos, xb + npos, xs + npos
        table[xa, xb] = {xs: n}
        table[ya, yb] = {ys: -n}
        table[xb, ys] = {ya: n_bc}
        table[xs, yb] = {xa: n_bc}
        table[xa, ys] = {yb: -n_ca}
        table[xs, ya] = {xb: -n_ca}

    L = ReductiveLieAlgebra(d, labels, table, radical_basis, simple_indices, coroot_coords)
    bad = jacobi_witness(L)
    if bad is not None:
        raise JacobiError(f"Jacobi identity fails on basis triple {bad}")
    return L


def jacobi_witness(L: ReductiveLieAlgebra):
    """First basis triple violating Jacobi, in combinations order, or None.

    A generator certificate runs first.  If the simple root vectors x_a,
    x_-a and the radical basis z_k generate the algebra, the Chevalley
    involution omega (x_a -> -x_-a, h -> -h, z -> -z) is an automorphism of
    the table, and ad z_k and ad x_a (a simple) are derivations, Jacobi
    holds: ad x_-a = -omega ad x_a omega^-1 is then a derivation too, and
    the x whose ad x is a derivation form a subalgebra (ad [x, y] =
    [ad x, ad y]).  Otherwise the witness is the first failure of the same
    test on every basis element.  The signed rows are built from
    ``L.table`` on every call, so an edited table is read as it is."""
    ad = _signed_rows(L.table, L.dim)
    sigma = _involution(L)
    gens = _generators(L, sigma)
    if (_generates(ad, gens) and _is_automorphism(L.table, sigma)
            and _derivations(ad, [g for g in gens if g <= sigma[g]]) is None):
        return None
    return _derivations(ad, range(L.dim))


def _signed_rows(table, dim):
    """ad[a][b]: [e_a, e_b] as ((k, c), ...), for both orders of each entry."""
    ad = [{} for _ in range(dim)]
    for (i, j), out in table.items():
        ad[i][j] = tuple(out.items())
        ad[j][i] = tuple((k, -c) for k, c in out.items())
    return ad


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


def _is_automorphism(table, sigma):
    """True when omega maps every table entry [e_i, e_j] = sum c e_k to the
    entry of its image pair: [e_si, e_sj] = -sum c e_sk.  omega permutes
    the pairs, so zero brackets then map to zero brackets."""
    for (i, j), out in table.items():
        si, sj = sigma[i], sigma[j]
        key, sign = ((si, sj), -1) if si < sj else ((sj, si), 1)
        if table.get(key) != {sigma[k]: sign * c for k, c in out.items()}:
            return False
    return True


def _generates(ad, gens):
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


def _derivations(ad, gens):
    """First (g, j, k) with j < k where ad g is not a derivation, or None:
    J(g, e_j, e_k) = [g, [e_j, e_k]] - [e_j, [g, e_k]] - [[g, e_j], e_k]
    is nonzero there.  For each j the three terms are summed over the k > j
    where [e_j, e_k], [g, e_k] or [[g, e_j], e_k] is nonzero.  J is the
    alternating Jacobiator, so on gens = range(dim) the first failure is
    the first failing triple i < j < k in combinations order."""
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


def structure_constant_dump(L: ReductiveLieAlgebra) -> dict:
    """Debug dump of the structure constants as JSON-ready data."""

    def name(lab):
        return f"{lab[0]}{lab[1]}"

    pairs = []
    for (i, j), out in sorted(L.table.items()):
        pairs.append(
            {
                "x": name(L.labels[i]),
                "y": name(L.labels[j]),
                "out": [[name(L.labels[k]), f"{v.numerator}/{v.denominator}"] for k, v in sorted(out.items())],
            }
        )
    return {"pairs": pairs}
