"""Abstract root data: validation, construction from Dynkin descriptors,
Langlands dualization, Cartan matrices, and lattice invariants.

Coordinate conventions: the cocharacter lattice is always Z^rank in a fixed
basis; the character lattice is its dual basis; the pairing is the standard
dot product.  Coroots are stored in the primal basis, roots in the dual
basis, and the two lists are index-aligned (roots[i] <-> coroots[i]).
"""

import json
import re
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from math import gcd
from operator import add, gt, itemgetter, mul, neg, sub

from . import exactlin


@dataclass(frozen=True)
class RootDatum:
    rank: int
    roots: tuple          # tuple of int tuples, coordinates in the dual basis
    coroots: tuple        # tuple of int tuples, coordinates in the primal basis
    label: str | None = None

    def __post_init__(self):
        if _require_int(self.rank, "rank") < 0:
            raise ValueError(f"rank must be nonnegative, got {self.rank}")
        for key in ("roots", "coroots"):
            vecs = tuple(map(tuple, getattr(self, key)))
            if not set(map(type, chain.from_iterable(vecs))) <= {int}:
                for x in chain.from_iterable(vecs):     # name the first offender
                    _require_int(x, f"{key} coordinate")
            object.__setattr__(self, key, vecs)
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots must be index-aligned lists of equal length")
        for v in self.roots + self.coroots:
            if len(v) != self.rank:
                raise ValueError("root/coroot length must equal the lattice rank")

    @property
    def nroots(self):
        return len(self.roots)

    # The four derived facts (P, its asymmetry, the axioms, the chamber),
    # cached once per datum in the __dict__ that equality, hashing and JSON never read.

    @cached_property
    def pairing(self):
        """P[i][j] = <coroot_i, root_j>."""
        return _pairing(self.coroots, self.roots, self.rank)

    @cached_property
    def asymmetry(self):
        """The first root pair (i, j), row by row, with P[j][i] != P[i][j], or None.
        Row i meets column i, the columns drawn one at a time: P^T is never held."""
        P = self.pairing
        for i, (row, col) in enumerate(zip(P, zip(*P))):
            if row != col:
                return i, next(j for j, (x, y) in enumerate(zip(row, col)) if x != y)
        return None

    @cached_property
    def axioms(self):
        """The AxiomReport of validate."""
        return _check_axioms(self)

    @cached_property
    def chamber(self):
        """(positive, simple) root indices of positive_system, as tuples."""
        return _positive_system(self)


def _require_int(x, what):
    if type(x) is not int:   # rejects bool, float, str and Fraction alike
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def pair(coroot, root):
    """The canonical lattice pairing <coroot, root> (standard dot product)."""
    return sum(map(mul, coroot, root))


_SLOT = 0x8000      # 2^15: the offset that makes a 16-bit slot nonnegative


def _pairing(coroots, roots, rank):
    """The rows (<c, r> for r in roots) for c in coroots.

    Each |<c, r>| is at most rank * max|x|^2.  Below 2^14, column k of the
    roots is packed into one int, r_k of root j in 16-bit slot j, so the
    row of c is the one int sum_k c_k packed_k.  Adding 2^15 to every slot
    makes each slot nonnegative, so the sum has no borrows across slots,
    and flipping bit 15 of each slot again leaves <c, r_j> in two's
    complement, read off by array("h").  Packing and unpacking both use
    the native byte order, so slot j is item j.  Wider data take the dot
    product of each pair."""
    m = max(_max_abs(roots), _max_abs(coroots))
    if rank * m * m >= 1 << 14:
        return tuple(tuple(sum(map(mul, c, r)) for r in roots) for c in coroots)
    n = len(roots)
    bias = int.from_bytes(array("H", repeat(_SLOT, n)).tobytes(), sys.byteorder)
    packed = [int.from_bytes(array("H", map(add, col, repeat(_SLOT))).tobytes(), sys.byteorder) - bias
              for col in zip(*roots)]
    return tuple(tuple(array("h", ((sum(map(mul, c, packed)) + bias) ^ bias).to_bytes(2 * n, sys.byteorder)))
                 for c in coroots)


def _max_abs(vectors):
    """The largest |x| over the entries of a list of equally long vectors;
    0 when there are none."""
    if not vectors or not vectors[0]:
        return 0
    return max(max(map(max, vectors)), -min(map(min, vectors)))


def _functional_values(vectors, M):
    """The values sum_k M^k v_k of the vectors, by Horner's rule over the
    coordinate columns, highest first: one C-level map per column."""
    values = [0] * len(vectors)
    for col in reversed(list(zip(*vectors))):
        values = list(map(add, map(mul, values, repeat(M)), col))
    return values


@dataclass
class AxiomReport:
    """Per-axiom validation record: an axiom holds exactly when its witness
    indices are None."""
    pairing_witness: int | None = None
    reflection_witness: tuple | None = None
    reduced_witness: tuple | None = None
    nonzero_witness: int | None = None

    @property
    def ok(self):
        return (self.pairing_witness is None and self.reflection_witness is None
                and self.reduced_witness is None and self.nonzero_witness is None)

    def as_dict(self):
        return {
            "pairing_two": self.pairing_witness is None,
            "reflection": self.reflection_witness is None,
            "reduced": self.reduced_witness is None,
            "nonzero": self.nonzero_witness is None,
            "witnesses": {
                "pairing_two": self.pairing_witness,
                "reflection": self.reflection_witness,
                "reduced": self.reduced_witness,
                "nonzero": self.nonzero_witness,
            },
        }


def validate(d: RootDatum) -> AxiomReport:
    """Check the root-datum axioms exactly; failures are reported, not raised.
    The report is computed once per datum and shared by every caller."""
    return d.axioms


def _check_axioms(d):
    """The AxiomReport of d.  The reflection certificate decides validity
    alone: it holds on every valid datum, and a datum it passes satisfies
    all four axioms (see _reflections_certified).  Only a datum it refuses
    is scanned, axiom by axiom, for the first witness of each."""
    if _reflections_certified(d):
        return AxiomReport()
    P = d.pairing
    # Reducedness: if x and c*x are both coroots then c = +-1, i.e. two
    # nonzero coroots on one line have the same content; a zero coroot is
    # 0 times every other.
    prim = list(map(_primitive, d.coroots))
    return AxiomReport(
        pairing_witness=next((i for i, row in enumerate(P) if row[i] != 2), None),
        reflection_witness=_reflection_scan(d),
        reduced_witness=next(((i, j) for i, pi in enumerate(prim) if pi is not None
                              for j, pj in enumerate(prim)
                              if pj is None or (pj[0] == pi[0] and pj[1] != pi[1])), None),
        nonzero_witness=next((i for i, r in enumerate(d.roots) if not any(r)), None),
    )


def _reflection_scan(d):
    """The first (i, j), column by column, at which reflecting coroot i in
    root j (cocharacter lattice) or root i in coroot j (character lattice)
    leaves the coroots or the roots, or None; a zero pairing is the
    identity.  Membership is tested on an integer functional that is
    injective on every vector involved, so each reflection costs two int
    operations, and each column j is tested as a whole; only a failing
    column is scanned for its first failing i."""
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


def _reflections_certified(d):
    """True exactly when d is a root datum: every axiom of validate holds.

    For j in the simple indices of d.chamber, s_j maps a pair (r, c) to
    (r - <c_j, r> r_j, c - <c, r_j> c_j).  The certificate holds when
    P[j][j] = 2 for every simple j, each s_j sends every (root, coroot) pair
    to a pair, and the s_j carry the simple pairs to every pair.  Then each
    s_j preserves the pairing and permutes the pairs, and so does every
    product w of them.  Every pair is (r, c) = w(r_t, c_t) with t simple:
    - pairing_two and nonzero: <c, r> = <c_t, r_t> = 2, so r is not zero.
    - reflection: s_(r, c) = w s_t w^-1, as
      w s_t w^-1 x = x - <c_t, w^-1 x> w r_t = x - <c, x> r
      and likewise on the coroots: a product of permutations of the pairs,
      so column (r, c) of the scan passes.
    - reduced: the pairs are finitely many, so a root has one coroot (were
      (r, c) and (r, c') pairs, the coroot reflections of the two would
      send c to c + 2k(c' - c) for every k), and d is a root datum.  It is
      reduced exactly when its dual is (Springer, Linear Algebraic Groups,
      7.4), and a line of a root system holds +-v alone or +-v and +-2v
      (Bourbaki, Lie Groups and Lie Algebras, VI 1.3).  Were 2v = w r_t a
      root with v a root, then r_t = 2u with u = w^-1 v a root, and u is
      positive in either candidate chamber of _positive_system, as r_t is:
      the root code of u is half that of r_t, and the code of its coroot
      twice that of c_t.  So r_t = u + u is a sum of two positive roots,
      and t is not simple.
    Conversely, in a root datum the simple reflections generate W and every
    root is W-conjugate to a simple one (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.3), so the certificate holds.

    A pair is looked up in one dict by the codes of its root and coroot,
    injective on every u - n v with |n| at most the largest |entry| of the
    simple rows and columns of P, the only entries read: |Phi| rank work,
    where the scan reads all of P."""
    P, simple = d.pairing, d.chamber[1]
    if any(P[j][j] != 2 for j in simple):
        return False
    rows = [P[j] for j in simple]
    cols = [list(map(itemgetter(j), P)) for j in simple]
    reach = 1 + max(_max_abs(rows), _max_abs(cols))
    fr, fc = _injective_values(d.roots, reach), _injective_values(d.coroots, reach)
    pairs = list(zip(fr, fc))
    index = dict(zip(pairs, range(d.nroots)))
    images = []
    for j, row, col in zip(simple, rows, cols):
        image = list(map(index.get, zip(map(sub, fr, map(mul, row, repeat(fr[j]))),
                                        map(sub, fc, map(mul, col, repeat(fc[j]))))))
        if None in image:
            return False
        images.append(image)
    frontier = {index[pairs[j]] for j in simple}
    reached = set(frontier)
    while frontier:
        frontier = set(chain.from_iterable(map(image.__getitem__, frontier) for image in images)) - reached
        reached |= frontier
    return len(reached) == len(index)


def _injective_values(vectors, reach):
    """v -> sum_k M^k v_k on each vector, with M = 2 reach m + 1 and m the
    largest |entry| of vectors.  It tells x from y whenever
    |x_k| + |y_k| <= 2 reach m for every k: it is injective on the vectors
    and on every u - n v with |n| < reach, and tells a vector from every
    u - n v with |n| <= 2 reach - 2."""
    return _functional_values(vectors, 2 * reach * _max_abs(vectors) + 1)


def _primitive(v):
    """(primitive direction, content) of a nonzero integer vector, the
    direction's first nonzero entry positive; None for the zero vector."""
    g = gcd(*v)
    if g == 0:
        return None
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v), abs(g)


def dualize(d: RootDatum) -> RootDatum:
    """Langlands dualization: swap roots <-> coroots and the two lattices.

    Pure data transposition in coordinates, so dualize(dualize(d)) == d
    entry for entry (the label wraps and unwraps in step).  The dual copies
    the facts its source has already computed.  A computed P brings its
    asymmetry along, settled on the source if need be: the dual's P is the
    transpose, and a symmetric P is shared, not copied."""
    if d.label is None:
        label = None
    elif d.label.startswith("dual(") and d.label.endswith(")"):
        label = d.label[5:-1]
    else:
        label = f"dual({d.label})"
    dd = RootDatum(rank=d.rank, roots=d.coroots, coroots=d.roots, label=label)
    if "pairing" in d.__dict__:
        # <coroot'_i, root'_j> = <root_i, coroot_j>: the transpose.  The
        # asymmetry P[j][i] != P[i][j] reads the same on P^T.
        dd.__dict__["asymmetry"] = d.asymmetry
        dd.__dict__["pairing"] = d.pairing if d.asymmetry is None else tuple(zip(*d.pairing))
    if "chamber" in d.__dict__:
        # _positive_system commutes with dualization: the same indices.
        dd.__dict__["chamber"] = d.chamber
    # The axioms are self-dual, and a datum is reduced exactly when its dual
    # is (Springer, Linear Algebraic Groups, 7.4): an ok report carries over.
    if "axioms" in d.__dict__ and d.axioms.ok:
        dd.__dict__["axioms"] = AxiomReport()
    return dd


# ---------------------------------------------------------------------------
# Dynkin descriptors and construction


_LEGAL = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True)
class DynkinDescriptor:
    # Each factor is (family, rank, isogeny) with isogeny "sc" or "adj".
    factors: tuple
    torus_rank: int = 0
    # Optional explicit lattice basis for the whole semisimple block, rows in
    # coweight coordinates; overrides the per-factor isogeny tags.
    custom_basis: tuple | None = None

    def __post_init__(self):
        for fam, n, iso in self.factors:
            if fam not in _LEGAL or not _LEGAL[fam](n):
                raise ValueError(f"illegal Dynkin family/rank: {fam}{n}")
            if iso not in ("sc", "adj"):
                raise ValueError(f"unknown isogeny tag: {iso}")
        if self.torus_rank < 0:
            raise ValueError("torus rank must be nonnegative")


# Factors FAMILY rank [:sc|:adj] or T rank [:sc] joined by "x", spaces only around an "x".  A
# rank has no leading zero ("A01", "T00"), and a token matches whole ("A2\n", "A 2", " A2").
_DESC_TOKEN = re.compile(r"([A-G])([1-9][0-9]*)(?::(sc|adj))?|T(0|[1-9][0-9]*)(?::(sc|adj))?")


def parse_descriptor(text: str) -> DynkinDescriptor:
    """Parse strings like "A2", "B3:sc", "A1xT1", "D4:adj x T2".  A torus
    factor takes :sc, its default, but no :adj."""
    factors = []
    torus = 0
    for tok in re.split(r" *x *", text):
        m = _DESC_TOKEN.fullmatch(tok)
        if not m:
            raise ValueError(f"cannot parse descriptor factor: {tok!r}")
        if m.group(4) is not None:
            if m.group(5) == "adj":
                # A torus has no isogeny; the tag belongs on a semisimple factor.
                raise ValueError(f"a torus factor takes no :adj, got {tok!r}; tag the semisimple "
                                 "factor instead, as in A2:adjxT1")
            torus += int(m.group(4))
        else:
            factors.append((m.group(1), int(m.group(2)), m.group(3) or "sc"))
    return DynkinDescriptor(factors=tuple(factors), torus_rank=torus)


def family_cartan(family, n):
    """Cartan matrix A[i][j] = <h_i, alpha_j> of one simple family, read off
    its Dynkin diagram in Bourbaki's numbering from 0.  A, B, C, F and G
    are chains, D moves the last edge to (n-3, n-1), and E joins 0 to 2
    and 1 to 3, then chains from node 2 on.  An edge of multiplicity m puts
    -m at (short node, long node)."""
    if family not in _LEGAL or not _LEGAL[family](n):
        raise ValueError(f"illegal Dynkin family/rank: {family}{n}")
    if family == "E":
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
        if family == "D":
            edges[-1] = (n - 3, n - 1)
    A = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        A[i][j] = A[j][i] = -1
    multiple = {"B": (n - 1, n - 2, 2), "C": (n - 2, n - 1, 2), "F": (2, 1, 2), "G": (0, 1, 3)}
    if family in multiple:
        short, long_, m = multiple[family]
        A[short][long_] = -m
    return A


def generate_root_pairs(cartan):
    """Reflection closure from the simple roots of a Cartan matrix.

    Returns the sorted list of quadruples (c, a, b, e), one per root: c its
    simple-root coordinates, a its Dynkin labels (its pairings with the
    simple coroots), b its coroot's labels (the coroot's pairings with the
    simple roots, which are its coordinates in the fundamental coweights)
    and e its coroot's simple-coroot coordinates.

    The reflection s_i subtracts a_i from c_i and a_i times column i of the
    Cartan matrix from a; on the coroot it subtracts b_i from e_i and b_i
    times row i from b.  It fixes the root when a_i = 0, and a root fixes
    its coroot.
    """
    n = len(cartan)
    rows = [tuple(row) for row in cartan]     # row i: labels of the simple coroot i
    cols = list(zip(*cartan))                 # column i: labels of the simple root i
    found = {}                                # root c -> (a, b, e)
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        found[e] = (cols[i], rows[i], e)
    frontier = list(found)
    while frontier:
        new = []
        for root in frontier:
            a, b, e = found[root]
            for i in compress(range(n), a):
                root2 = root[:i] + (root[i] - a[i],) + root[i + 1:]
                if root2 not in found:
                    bi = b[i]
                    found[root2] = (tuple(map(sub, a, map(mul, cols[i], repeat(a[i])))),
                                    tuple(map(sub, b, map(mul, rows[i], repeat(bi)))),
                                    e[:i] + (e[i] - bi,) + e[i + 1:])
                    new.append(root2)
        frontier = new
    return sorted((c, *v) for c, v in found.items())


def build_from_dynkin(desc: DynkinDescriptor) -> RootDatum:
    """Construct the root datum of a reductive group from a descriptor.

    The semisimple block is assembled factor by factor, its coordinates
    read off the closure; the isogeny choice fixes the lattice basis.  An sc
    factor has the simple coroots as its basis, so a coroot's coordinates
    are its simple-coroot coordinates e and a root's, in the dual basis, its
    Dynkin labels a.  An adj factor has the fundamental coweights, so a
    coroot's coordinates are its labels b and a root's its simple-root
    coordinates c.  A central torus contributes rank with no roots.
    """
    ss_rank = sum(n for _, n, _ in desc.factors)
    rank = ss_rank + desc.torus_rank
    custom = desc.custom_basis is not None
    torus = (0,) * desc.torus_rank
    roots, coroots = [], []
    off = 0
    for fam, n, iso in desc.factors:
        # A custom basis starts from the coweight coordinates, as adj does;
        # zeros place each factor in the semisimple block.
        coweight = custom or iso == "adj"
        left, right = (0,) * off, (0,) * (ss_rank - off - n) + (() if custom else torus)
        for c, a, b, e in generate_root_pairs(family_cartan(fam, n)):
            roots.append(left + (c if coweight else a) + right)
            coroots.append(left + (b if coweight else e) + right)
        off += n
    if custom:
        # A custom basis B, rows in coweight coordinates: a coweight vector b
        # is x B with x = b X / den, X = den B^-1 from one integer inverse,
        # and a root with simple-root coordinates c is B c, column by column.
        # Every coroot is an integral combination of the simple coroots,
        # which are coroots themselves, so the coroots are integral in B
        # exactly when the lattice contains the coroot lattice: the one
        # division checks it.
        B = [[_require_int(x, "custom basis entry") for x in row] for row in desc.custom_basis]
        if len(B) != ss_rank or any(len(r) != ss_rank for r in B):
            raise ValueError("custom basis must be square of semisimple rank")
        try:
            X, den = exactlin.integer_inverse(B)
        except ValueError:
            raise ValueError("custom basis is singular") from None
        coroots = [x + torus for x in exactlin.exact_quotients(
            list(zip(*X)), den, coroots, lambda i: "custom lattice does not contain the coroot lattice")]
        roots = [y + torus for y in zip(*exactlin.column_products(B, roots))]
    label = _descriptor_label(desc)
    return RootDatum(rank=rank, roots=tuple(roots), coroots=tuple(coroots), label=label)


def _descriptor_label(desc):
    parts = [f"{fam}{n}:{iso}" for fam, n, iso in desc.factors]
    if desc.torus_rank:
        parts.append(f"T{desc.torus_rank}")
    return " x ".join(parts) if parts else "T0"


# ---------------------------------------------------------------------------
# Positive systems, Cartan matrices, invariants


def positive_system(d: RootDatum):
    """Indices of positive roots and of simple roots, as fresh lists of the
    chamber computed once per datum."""
    pos, simple = d.chamber
    return list(pos), list(simple)


def _positive_system(d):
    """Indices of positive roots and of simple roots.

    Two candidate chambers are cut out by the generic functional
    v -> sum_k M^k v_k (M = 1 + max coordinate magnitude), applied once to
    the root coordinates and once to the coroot coordinates; both sign
    patterns are genuine chambers of the same root system.  The candidate
    with the smaller swap-invariant key is kept, so the choice commutes
    with dualization and cartan_matrix(dualize(d)) is an exact transpose.

    A positive root is simple when it is no sum of two positive roots.
    That is read off the int codes of _injective_values at reach 2,
    injective on the roots and their differences, so code_i - code_j is
    the code of a root exactly when r_i - r_j is that root.  A zero
    difference counts for no root: the zero vector, which a malformed
    datum can hold, has code 0 and is dropped from the targets.
    """
    n = d.nroots
    if n == 0:
        return (), ()
    swap = list(zip(map(min, d.roots, d.coroots), map(max, d.roots, d.coroots)))
    candidates = {frozenset(compress(range(n), map(gt, _functional_values(v, 1 + _max_abs(v)), repeat(0))))
                  for v in (d.roots, d.coroots)}
    chamber = min(candidates, key=lambda P: sorted(map(swap.__getitem__, P)))
    pos = sorted(chamber)
    code = _injective_values(d.roots, 2)
    pos_codes = set(map(code.__getitem__, pos))
    targets = pos_codes - {0}
    simple = [i for i in pos if targets.isdisjoint(map(sub, repeat(code[i]), pos_codes))]
    simple.sort(key=swap.__getitem__)
    return tuple(pos), tuple(simple)


def cartan_matrix(d: RootDatum):
    """Cartan matrix A[i][j] = <h_{beta_i}, alpha_j> over the simple roots."""
    _, simple = d.chamber
    P = d.pairing
    return [[P[i][j] for j in simple] for i in simple]


def is_ade(d: RootDatum) -> bool:
    """ADE-type test: the pairing is symmetric in root pairs, which for a
    valid datum is a symmetric Cartan matrix; vacuously true for a torus."""
    return d.asymmetry is None


def ade_symmetry_witness(d: RootDatum):
    """First root pair (i, j) with alpha_i(h_j) != alpha_j(h_i), or None."""
    return d.asymmetry


def fundamental_group(d: RootDatum):
    """Invariant factors (>1) of Lambda_ss / Z-span(coroots).  Every coroot
    is an integral combination of the simple coroots, so their rows span
    the same lattice and the Smith form runs on them alone."""
    if not d.coroots:
        return []
    diag = exactlin.smith_normal_form([list(d.coroots[i]) for i in d.chamber[1]])
    return [x for x in diag if x > 1]


def central_free_rank(d: RootDatum) -> int:
    """Rank of the free central part: rank - rank(coroot span).  The simple
    coroots are a basis of the coroot span, so that rank is |simple|."""
    return d.rank - len(d.chamber[1])


# ---------------------------------------------------------------------------
# Canonical serialization


def canonicalize(d: RootDatum) -> RootDatum:
    """Sort index-aligned (root, coroot) pairs by the generic functional of
    the roots, descending (positive roots first), then lexicographically;
    this is the writer order of the JSON schema."""
    f = _functional_values(d.roots, 1 + _max_abs(d.roots))
    order = sorted(range(d.nroots), key=list(zip(map(neg, f), d.roots)).__getitem__)
    return RootDatum(
        rank=d.rank,
        roots=tuple(d.roots[i] for i in order),
        coroots=tuple(d.coroots[i] for i in order),
        label=d.label,
    )


def to_json_dict(d: RootDatum) -> dict:
    c = canonicalize(d)
    out = {"rank": c.rank, "roots": [list(r) for r in c.roots], "coroots": [list(x) for x in c.coroots]}
    if c.label:
        out["label"] = c.label
    return out


def to_json(d: RootDatum) -> str:
    return json.dumps(to_json_dict(d), sort_keys=True)


def _json_vectors(obj, key):
    if not isinstance(obj[key], list) or not all(isinstance(v, list) for v in obj[key]):
        raise ValueError(f"{key} must be a list of integer lists")
    return obj[key]


def from_json_dict(obj: dict) -> RootDatum:
    """Strict reader of the root-datum schema: raises ValueError on unknown
    or missing keys, a non-str label, vectors that are not lists and a
    (root, coroot) pair listed twice; RootDatum itself rejects a non-int
    rank or coordinate (bool included)."""
    if not isinstance(obj, dict):
        raise ValueError("root datum must be a JSON object")
    unknown = sorted(set(obj) - {"rank", "roots", "coroots", "label"})
    if unknown:
        raise ValueError(f"unknown root datum keys: {unknown}")
    missing = sorted({"rank", "roots", "coroots"} - set(obj))
    if missing:
        raise ValueError(f"missing root datum keys: {missing}")
    label = obj.get("label")
    if "label" in obj and not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    d = RootDatum(
        rank=obj["rank"],
        roots=_json_vectors(obj, "roots"),
        coroots=_json_vectors(obj, "coroots"),
        label=label,
    )
    seen = set()
    for r, c in zip(d.roots, d.coroots):
        if (r, c) in seen:
            raise ValueError(f"(root, coroot) pair ({list(r)}, {list(c)}) is listed twice")
        seen.add((r, c))
    return d


def _unique_keys(pairs):
    """The object of the (key, value) pairs; a repeated key is a ValueError,
    where json.loads would keep its last value."""
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"root datum key {k!r} is listed twice")
        obj[k] = v
    return obj


def from_json(text: str) -> RootDatum:
    """from_json_dict of the text; a repeated key in any object and too
    deeply nested JSON are ValueErrors."""
    try:
        return from_json_dict(json.loads(text, object_pairs_hook=_unique_keys))
    except RecursionError:
        raise ValueError("root datum JSON is nested too deeply") from None


# ---------------------------------------------------------------------------
# Type classification (labels for reports)


def classify_label(d: RootDatum) -> str:
    """Human-readable type string recovered from the Cartan matrix."""
    A = cartan_matrix(d)
    comps = _components(A)
    names = [_classify_component(A, comp) for comp in comps]
    free = central_free_rank(d)
    if free:
        names.append(f"T{free}")
    return " x ".join(names) if names else "T0"


def _components(A):
    n = len(A)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and A[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _classify_component(A, comp):
    """Dynkin type of one connected component, read off its diagram.

    A triple edge is G.  A double edge is B when its short node is an end
    of the chain, C when its long node is, and F when neither is.  A branch
    node is D when two of its neighbours are ends, E otherwise.  A chain is
    A.  Exact for every finite-type Cartan matrix, at every rank.
    """
    k = len(comp)
    nbrs = {i: [j for j in comp if j != i and A[i][j]] for i in comp}
    ends = {i for i in comp if len(nbrs[i]) == 1}
    # A[i][j] = <h_i, alpha_j> is -2 or -3 only when alpha_i is the short
    # node of a multiple edge to alpha_j.
    multi = [(i, j) for i in comp for j in nbrs[i] if A[i][j] < -1]
    branch = [i for i in comp if len(nbrs[i]) > 2]
    if multi:
        short, long_ = multi[0]
        fam = "G" if A[short][long_] == -3 else "B" if short in ends else "C" if long_ in ends else "F"
    elif branch:
        fam = "D" if len(ends.intersection(nbrs[branch[0]])) > 1 else "E"
    else:
        fam = "A"
    return f"{fam}{k}" if _LEGAL[fam](k) else f"?{k}"
