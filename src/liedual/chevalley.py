"""Reductive Lie algebras from root data: Chevalley basis, bracket,
adjoint action, Killing form, and the structural identity checks.

Basis labels are tuples: ("z", k) for the radical block, ("h", i) for the
i-th simple coroot, ("x", ri) for the root vector of root index ri.
Structure constants, Killing values and coroot coordinates are exact ints
(integral by the Chevalley basis theorem); the sign convention comes from the
extraspecial-pair method and is certified post hoc on the generators: the
simple root vectors and the radical generate the algebra, and the ad of
each is a derivation.  A table that fails this is swept for a witness.
"""

from bisect import bisect_right
from itertools import combinations

from . import exactlin, rootdatum
from .rootdatum import RootDatum, pair


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

    def killing_form(self, x, y):
        K = self.killing_matrix()
        out = 0
        for i, a in enumerate(x):
            if not a:
                continue
            row = K[i]
            for j, b in enumerate(y):
                if b:
                    out += a * b * row[j]
        return out

    # -- coordinates ------------------------------------------------------

    def cartan_vector(self, t_vec):
        """Express a vector of Lambda (x) Q in the (z, h) basis, as a basis
        coefficient vector; raises if it is not in the Cartan span."""
        cols = self.radical_basis + [self.datum.coroots[i] for i in self.simple_indices]
        A = [[col[r] for col in cols] for r in range(self.datum.rank)]
        sol = exactlin.solve_exact(A, t_vec)
        if sol is None:
            raise ValueError("vector outside the Cartan subalgebra")
        return sol + [0] * (self.dim - len(sol))

    def coroot_vector(self, root_index):
        """h_alpha as a basis coefficient vector."""
        out = [0] * self.dim
        nz = len(self.radical_basis)
        out[nz : nz + len(self.simple_indices)] = self.coroot_coords[root_index]
        return out

    def root_value(self, root_index, basis_index):
        """alpha(e_b) for a Cartan-block basis element, 0 on root vectors."""
        lab = self.labels[basis_index]
        if lab[0] == "z":
            return 0
        if lab[0] == "h":
            return pair(self.datum.coroots[self.simple_indices[lab[1]]], self.datum.roots[root_index])
        return 0


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
    """Chevalley constants N_{a,b} for all root pairs with a+b a root.

    Positive-pair values are fixed by the extraspecial-pair method; mixed
    and negative pairs reduce through N_{-a,-b} = -N_{a,b} and the cyclic
    relation N_{a,b} K(h_c,h_c) = N_{b,c} K(h_a,h_a) for a+b+c = 0.
    """

    def __init__(self, datum, pos_indices, simple_indices):
        self.datum = datum
        self.by_vec = {datum.roots[i]: i for i in range(datum.nroots)}
        self.pos = set(datum.roots[i] for i in pos_indices)
        self.K = {datum.roots[i]: _root_sum_sq(datum, i) for i in range(datum.nroots)}
        # Simple-root coordinates for height and ordering.
        pos = list(self.pos)
        self.coords = dict(zip(pos, _simple_coords(datum.roots, simple_indices, pos)))
        self.order = {
            v: (sum(self.coords[v]), self.coords[v]) for v in self.pos
        }
        self.table = {}
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

    def _set(self, a, b, val):
        self.table[(a, b)] = val
        self.table[(b, a)] = -val

    def _derive(self, a, b, a1, b1, gamma):
        # Jacobi on (x_{a1}, x_{-a}, x_{-b}); all terms land in g_{-b1}.
        neg = lambda v: tuple(-x for x in v)
        t1 = 0
        d = tuple(x - y for x, y in zip(a1, a))
        if d in self.by_vec:
            t1 = self.get(a1, neg(a)) * self.get(d, neg(b))
        t2 = 0
        d2 = tuple(x - y for x, y in zip(a1, b))
        if d2 in self.by_vec:
            t2 = self.get(neg(b), a1) * self.get(d2, neg(a))
        # N(-gamma, a1) = N(a1, b1) K_gamma / K_{b1}  (cycle -gamma+a1+b1=0),
        # and N(a, b) = (t1 + t2) / N(-gamma, a1).
        self._set(a, b, self._ratio(a, b, (t1 + t2) * self.K[b1], self.table[(a1, b1)] * self.K[gamma]))

    def _ratio(self, a, b, num, den):
        """N_{a,b} = num / den, refused unless the division is exact."""
        q, r = divmod(num, den)
        if r:
            raise ValueError(f"non-integral structure constant N{a, b} = {num}/{den}")
        return q

    def get(self, a, b):
        """N_{a,b} for roots a, b with a+b a root."""
        s = tuple(x + y for x, y in zip(a, b))
        if s not in self.by_vec:
            raise ValueError("a+b is not a root")
        if (a, b) in self.table:
            return self.table[(a, b)]
        neg = lambda v: tuple(-x for x in v)
        if a not in self.pos and b not in self.pos:
            return -self.get(neg(a), neg(b))
        if a in self.pos and b in self.pos:
            raise KeyError((a, b))  # must already be tabulated
        if b in self.pos:
            return -self.get(b, a)
        # Mixed: a positive, b negative.  c = -a-b closes the cycle.
        c = neg(s)
        if s in self.pos:
            # (-b, -c) are positive with sum a.
            return self._ratio(a, b, -self.get(neg(b), neg(c)) * self.K[a], self.K[c])
        # (c, a) are positive with sum -b.
        return self._ratio(a, b, self.get(c, a) * self.K[b], self.K[c])


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
    neg_of = {}
    for i in pos_sorted:
        neg = tuple(-x for x in d.roots[i])
        neg_of[i] = next(j for j in range(d.nroots) if d.roots[j] == neg)
    root_order = pos_sorted + [neg_of[i] for i in pos_sorted]
    labels = (
        [("z", k) for k in range(len(radical_basis))]
        + [("h", i) for i in range(len(simple_indices))]
        + [("x", ri) for ri in root_order]
    )
    index = {lab: i for i, lab in enumerate(labels)}
    nz = len(radical_basis)

    # Coroot coordinates in the simple-coroot basis.
    coroots = [d.coroots[ri] for ri in root_order]
    coroot_coords = dict(zip(root_order, _simple_coords(d.coroots, simple_indices, coroots)))

    table = {}

    def put(i, j, out):
        out = {k: v for k, v in out.items() if v}
        if not out:
            return
        if i < j:
            table[(i, j)] = out
        else:
            table[(j, i)] = {k: -v for k, v in out.items()}

    # [h, x_alpha] = alpha(h) x_alpha ; the radical brackets to zero.
    for s, si in enumerate(simple_indices):
        hi = nz + s
        for ri in root_order:
            v = d.pairing[si][ri]
            if v:
                put(hi, index[("x", ri)], {index[("x", ri)]: v})

    by_vec = {d.roots[i]: i for i in range(d.nroots)}
    for ri, rj in combinations(root_order, 2):
        a, b = d.roots[ri], d.roots[rj]
        s = tuple(x + y for x, y in zip(a, b))
        i, j = index[("x", ri)], index[("x", rj)]
        if all(x == 0 for x in s):
            # [x_alpha, x_{-alpha}] = h_alpha; orientation: alpha = roots[ri].
            put(i, j, {nz + c: v for c, v in enumerate(coroot_coords[ri])})
        elif s in by_vec:
            put(i, j, {index[("x", by_vec[s])]: ntab.get(a, b)})

    L = ReductiveLieAlgebra(d, labels, table, radical_basis, simple_indices, coroot_coords)
    bad = jacobi_witness(L)
    if bad is not None:
        raise JacobiError(f"Jacobi identity fails on basis triple {bad}")
    return L


def jacobi_witness(L: ReductiveLieAlgebra):
    """First basis triple violating Jacobi, in combinations order, or None.

    A generator certificate runs first: if the simple root vectors
    x_a, x_-a and the radical basis z_k generate the algebra, and the ad of
    each of them is a derivation, Jacobi holds.  (The x whose ad x is a
    derivation form a subalgebra: ad [x, y] = [ad x, ad y].)  Otherwise the
    sweep over every triple that meets a nonzero bracket supplies the
    witness.  The signed rows are built from ``L.table`` on every call, so an
    edited table is read as it is."""
    ad = _signed_rows(L.table, L.dim)
    gens = _generators(L)
    if _generates(ad, gens) and _derivations(ad, gens):
        return None
    return _jacobi_sweep(ad)


def _signed_rows(table, dim):
    """ad[a][b]: [e_a, e_b] as ((k, c), ...), for both orders of each entry."""
    ad = [{} for _ in range(dim)]
    for (i, j), out in table.items():
        ad[i][j] = tuple(out.items())
        ad[j][i] = tuple((k, -c) for k, c in out.items())
    return ad


def _generators(L):
    """Basis indices of z_k and of x_a, x_-a for each simple root a."""
    roots = L.datum.roots
    gens = list(range(len(L.radical_basis)))
    for ri in L.simple_indices:
        neg = roots.index(tuple(-x for x in roots[ri]))
        gens += [L.index[("x", ri)], L.index[("x", neg)]]
    return gens


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
    """True when ad g is a derivation for every g in gens:
    J(g, e_j, e_k) = [g, [e_j, e_k]] - [e_j, [g, e_k]] - [[g, e_j], e_k]
    vanishes for every j < k.  For each j the three terms are summed over
    the k > j where [e_j, e_k], [g, e_k] or [[g, e_j], e_k] is nonzero."""
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
                return False
    return True


def _jacobi_sweep(ad):
    """First triple i < j < k with J(e_i, e_j, e_k) != 0, or None.  Only
    triples that meet a nonzero bracket are visited: a triple whose three
    brackets all vanish cannot fail."""
    dim = len(ad)
    nbrs = [sorted(row) for row in ad]
    for i in range(dim):
        ad_i = ad[i]
        for j in range(i + 1, dim):
            ad_j = ad[j]
            ij = ad_i.get(j)
            if ij is None:
                ks = sorted(set(nbrs[i][bisect_right(nbrs[i], j):]).union(nbrs[j][bisect_right(nbrs[j], j):]))
            else:
                ks = range(j + 1, dim)
            for k in ks:
                acc = {}
                for m, cm in ij or ():
                    for n, cn in ad[m].get(k, ()):
                        acc[n] = acc.get(n, 0) + cm * cn
                for m, cm in ad_j.get(k, ()):
                    for n, cn in ad[m].get(i, ()):
                        acc[n] = acc.get(n, 0) + cm * cn
                for m, cm in ad[k].get(i, ()):
                    for n, cn in ad[m].get(j, ()):
                        acc[n] = acc.get(n, 0) + cm * cn
                if any(acc.values()):
                    return (i, j, k)
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
