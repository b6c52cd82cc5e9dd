"""The integer datum layer against the code it replaced, kept as oracles:
build_from_dynkin with one Fraction solve per root and with one integer
inverse of the lattice basis (in oracles.py), the N-table with Fraction
ratio steps and the Gram solve of simple coordinates (in oracles.py), and
central_free_rank from a Fraction rank.  All must agree on every A-G type
up to rank 8, on every descriptor up to rank 10 (one or two factors in
every sc/adj tag mix, and drawn products), on tori and custom lattices,
and under changes of lattice basis."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import chevalley, exactlin, rootdatum
from oracles import FractionNTable, generate_root_pairs, inverse_build_from_dynkin, simple_coords
from test_exactlin import rank_exact
from test_rootdatum import FAMILY_RANKS, RANK8_TYPES, change_basis, small_data, unimodular_pair


def legacy_build_from_dynkin(desc):
    """build_from_dynkin as it was: one Fraction solve_exact per root, and
    one per simple coroot in the custom-lattice check."""
    blocks = []
    for fam, n, iso in desc.factors:
        A = rootdatum.family_cartan(fam, n)
        blocks.append((fam, n, iso, A, generate_root_pairs(A)))
    ss_rank = sum(n for _, n, _, _, _ in blocks)
    rank = ss_rank + desc.torus_rank
    if desc.custom_basis is not None:
        B = [list(map(int, row)) for row in desc.custom_basis]
        if len(B) != ss_rank or any(len(r) != ss_rank for r in B):
            raise ValueError("custom basis must be square of semisimple rank")
        legacy_check_between_lattices(B, blocks, ss_rank)
    else:
        B = [[0] * ss_rank for _ in range(ss_rank)]
        off = 0
        for fam, n, iso, A, _ in blocks:
            for i in range(n):
                for j in range(n):
                    B[off + i][off + j] = A[i][j] if iso == "sc" else (1 if i == j else 0)
            off += n
    roots, coroots = [], []
    off = 0
    for fam, n, iso, A, rc_pairs in blocks:
        for root_c, coroot_m in rc_pairs:
            cw = [sum(m * A[i][j] for i, m in enumerate(coroot_m)) for j in range(n)]
            cw_full = [0] * ss_rank
            rt_full = [0] * ss_rank
            for j in range(n):
                cw_full[off + j] = cw[j]
                rt_full[off + j] = root_c[j]
            x = exactlin.solve_exact(
                [[Fraction(B[i][j]) for i in range(ss_rank)] for j in range(ss_rank)],
                [Fraction(v) for v in cw_full],
            )
            if x is None or any(v.denominator != 1 for v in x):
                raise ValueError("coroot does not lie in the chosen lattice")
            y = [sum(B[i][j] * rt_full[j] for j in range(ss_rank)) for i in range(ss_rank)]
            coroots.append(tuple(int(v) for v in x) + (0,) * desc.torus_rank)
            roots.append(tuple(int(v) for v in y) + (0,) * desc.torus_rank)
        off += n
    return rootdatum.RootDatum(rank=rank, roots=tuple(roots), coroots=tuple(coroots),
                               label=rootdatum._descriptor_label(desc))


def legacy_check_between_lattices(B, blocks, ss_rank):
    Bq = [[Fraction(x) for x in row] for row in B]
    if exactlin.det_exact(Bq) == 0:
        raise ValueError("custom basis is singular")
    off = 0
    for fam, n, iso, A, _ in blocks:
        for i in range(n):
            cw = [Fraction(0)] * ss_rank
            for j in range(n):
                cw[off + j] = Fraction(A[i][j])
            x = exactlin.solve_exact([[Bq[r][c] for r in range(ss_rank)] for c in range(ss_rank)], cw)
            if x is None or any(v.denominator != 1 for v in x):
                raise ValueError("custom lattice does not contain the coroot lattice")
        off += n


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_build_from_dynkin_matches_one_fraction_solve_per_root(typ):
    desc = rootdatum.parse_descriptor(typ)
    assert rootdatum.build_from_dynkin(desc) == legacy_build_from_dynkin(desc)


# Every simple family up to rank 10, and every unordered pair of them with
# ranks summing to at most 10.
FACTORS = [(fam, n) for fam in "ABCDEFG" for n in range(1, 11) if rootdatum._LEGAL[fam](n)]
FACTOR_PAIRS = [(f, g) for k, f in enumerate(FACTORS) for g in FACTORS[k:] if f[1] + g[1] <= 10]


def assert_closure_build_is_the_inverse_build(factors, torus):
    desc = rootdatum.DynkinDescriptor(tuple(factors), torus)
    d = rootdatum.build_from_dynkin(desc)
    assert (d.rank, d.roots, d.coroots, d.label) == attrs(inverse_build_from_dynkin(desc))
    assert all(type(x) is int for v in d.roots + d.coroots for x in v)


def attrs(d):
    return d.rank, d.roots, d.coroots, d.label


@pytest.mark.parametrize("torus", [0, 1, 2])
@pytest.mark.parametrize("iso", ["sc", "adj"])
@pytest.mark.parametrize("fam,n", FACTORS)
def test_the_closure_build_equals_the_inverse_build_on_one_factor(fam, n, iso, torus):
    # sc reads the roots' labels a and the coroots' simple-coroot
    # coordinates off the closure, adj the roots' simple-root coordinates
    # and the coroots' labels b; the oracle divides by the lattice basis.
    assert_closure_build_is_the_inverse_build([(fam, n, iso)], torus)


@pytest.mark.parametrize("torus", [0, 1, 2])
def test_the_closure_build_equals_the_inverse_build_on_two_factors(torus):
    # All four tag mixes: the zeros around a factor, in either block.
    for f, g in FACTOR_PAIRS:
        for tags in (("sc", "sc"), ("sc", "adj"), ("adj", "sc"), ("adj", "adj")):
            assert_closure_build_is_the_inverse_build([(*f, tags[0]), (*g, tags[1])], torus)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_closure_build_equals_the_inverse_build_on_any_product(data):
    factors, rank = [], 0
    while rank < 10 and (not factors or data.draw(st.booleans())):
        fam, n = data.draw(st.sampled_from([f for f in FACTORS if f[1] <= 10 - rank]))
        factors.append((fam, n, data.draw(st.sampled_from(["sc", "adj"]))))
        rank += n
    assert_closure_build_is_the_inverse_build(factors, data.draw(st.integers(0, 2)))


def lattice_basis(gens):
    """A Z-basis of the integer span of gens (rows), by integer row echelon."""
    rows = [list(g) for g in gens]
    basis = []
    for c in range(len(rows[0])):
        while len([r for r in rows if r[c]]) > 1:
            nz = [r for r in rows if r[c]]
            p = min(nz, key=lambda r: abs(r[c]))
            for r in nz:
                if r is not p:
                    q = r[c] // p[c]
                    r[:] = [a - q * b for a, b in zip(r, p)]
        pivot = next((r for r in rows if r[c]), None)
        if pivot is not None:
            basis.append(pivot)
            rows.remove(pivot)
    return basis


def intermediate(typ, *coweights):
    """Descriptor of the lattice spanned by the coroots and the given sums of
    fundamental coweights (tuples of coweight indices), in coweight
    coordinates of the semisimple block."""
    desc = rootdatum.parse_descriptor(typ)
    ss_rank = sum(n for _, n, _ in desc.factors)
    gens, off = [], 0
    for fam, n, _ in desc.factors:
        gens += [[0] * off + row + [0] * (ss_rank - off - n) for row in rootdatum.family_cartan(fam, n)]
        off += n
    gens += [[int(i in ks) for i in range(ss_rank)] for ks in coweights]
    return rootdatum.DynkinDescriptor(desc.factors, desc.torus_rank, tuple(map(tuple, lattice_basis(gens))))


# (descriptor, pi1): SL4/mu2, SL6/mu2, SL6/mu3, SO(8), the two half-spin
# quotients of Spin(8), SO(10), SO(4), SO(4) x T1, and the simply connected
# and adjoint lattices written out.
CUSTOM_LATTICES = [
    (intermediate("A3", (1,)), [2]),
    (intermediate("A5", (2,)), [2]),
    (intermediate("A5", (1,)), [3]),
    (intermediate("D4", (0,)), [2]),
    (intermediate("D4", (2,)), [2]),
    (intermediate("D4", (3,)), [2]),
    (intermediate("D5", (0,)), [2]),
    (intermediate("A1xA1", (0, 1)), [2]),
    (intermediate("A1xA1xT1", (0, 1)), [2]),
    (intermediate("B3xG2"), []),
    (intermediate("C3", (0,), (1,), (2,)), [2]),
    (rootdatum.DynkinDescriptor((("A", 1, "sc"), ("A", 1, "sc")), 0, ((1, 0), (0, 1))), [2, 2]),
]


@pytest.mark.parametrize("desc,pi1", CUSTOM_LATTICES)
def test_custom_lattices_match_the_fraction_build(desc, pi1):
    d = rootdatum.build_from_dynkin(desc)
    assert d == legacy_build_from_dynkin(desc)
    assert rootdatum.validate(d).ok
    assert rootdatum.fundamental_group(d) == pi1


@pytest.mark.parametrize(
    "typ,basis,message",
    [
        ("A2", ((3, 0), (0, 1)), "custom lattice does not contain the coroot lattice"),
        ("A1xA1", ((1, 0), (0, 4)), "custom lattice does not contain the coroot lattice"),
        ("A2", ((1, 1), (2, 2)), "custom basis is singular"),
        ("A2", ((1, 0),), "custom basis must be square"),
    ],
)
def test_a_bad_custom_basis_gives_the_fraction_builds_error(typ, basis, message):
    desc = rootdatum.parse_descriptor(typ)
    desc = rootdatum.DynkinDescriptor(desc.factors, desc.torus_rank, basis)
    for builder in (rootdatum.build_from_dynkin, legacy_build_from_dynkin):
        with pytest.raises(ValueError, match=message):
            builder(desc)


@pytest.mark.parametrize(
    "basis",
    [
        ((1.9, 0), (0, 1.5)),
        ((1.0, 0), (0, 1)),
        ((True, 0), (0, 1)),
        (("1", 0), (0, 1)),
        ((Fraction(1), 0), (0, 1)),
        ((1, 0), (0, Fraction(2, 2))),
    ],
    ids=["float", "integral-float", "bool", "str", "Fraction", "integral-Fraction"],
)
def test_a_non_int_custom_basis_entry_is_refused(basis):
    # int() would read ((1.9, 0), (0, 1.5)) as the identity: the adjoint
    # lattice of A1xA1, pi1 = [2, 2].
    desc = rootdatum.parse_descriptor("A1xA1")
    with pytest.raises(ValueError, match="custom basis entry must be an integer"):
        rootdatum.build_from_dynkin(rootdatum.DynkinDescriptor(desc.factors, desc.torus_rank, basis))
    d = rootdatum.build_from_dynkin(rootdatum.DynkinDescriptor(desc.factors, desc.torus_rank, ((1, 0), (0, 1))))
    assert rootdatum.fundamental_group(d) == [2, 2]


@settings(max_examples=60, deadline=None)
@given(d=small_data(), data=st.data())
def test_central_free_rank_matches_the_rank_of_the_coroots(d, data):
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    for x in (d, e):
        assert rootdatum.central_free_rank(x) == x.rank - rank_exact([list(c) for c in x.coroots])
    assert rootdatum.central_free_rank(e) == rootdatum.central_free_rank(d)


@pytest.mark.parametrize("typ", [t for t in RANK8_TYPES if t[0] != "T"])
def test_int_n_table_matches_the_fraction_steps(typ):
    # The bracket table holds one entry [x_a, x_b] for each unordered pair
    # with a+b a root, and N_{a,b} read off it, in either order, is an int
    # equal to the recursive Fraction oracle's value.
    d = build(typ)
    pos, simple = rootdatum.positive_system(d)
    new = chevalley._NTable(d, pos, simple)
    old = FractionNTable(d, pos, simple)
    npos = len(new.positives)
    root_keys = [(i, j) for i, j in new.table if i >= d.rank and j != i + npos]
    pairs = [(a, b) for a in range(d.nroots) for b in range(d.nroots)
             if tuple(x + y for x, y in zip(d.roots[a], d.roots[b])) in old.by_vec]
    assert len(pairs) == 2 * len(root_keys)
    for a, b in pairs:
        n = new._n(a, b)
        assert type(n) is int and n == old.constant(d.roots[a], d.roots[b])


def test_a_non_integral_ratio_step_is_refused():
    d = build("B2:sc")
    pos, simple = rootdatum.positive_system(d)
    ntab = chevalley._NTable(d, pos, simple)
    # Each positive pair fixes the mixed pairs of its triple through a ratio
    # of Killing values; with N = +-1, a ratio of 1/2 has no integral image.
    pairs = [(a, b) for t, a in enumerate(ntab.positives) for b in ntab.positives[t + 1:]
             if ntab.code[a] + ntab.code[b] in ntab.by_code]
    outcomes = []
    for a, b in pairs:
        n, s = ntab._n(a, b), ntab.by_code[ntab.code[a] + ntab.code[b]]
        try:
            ntab._set(a, b, 1 if n > 0 else -1)
            outcomes.append(int)
        except ValueError as exc:
            # The refused pair (b, c) or (c, a), c = -(a + b), is named by
            # its root vectors.
            ra, rb, rc = d.roots[a], d.roots[b], d.roots[ntab.neg[s]]
            assert any(f"non-integral structure constant N{pair} = " in str(exc) for pair in ((rb, rc), (rc, ra)))
            outcomes.append(ValueError)
    assert set(outcomes) == {int, ValueError}


# ---------------------------------------------------------------------------
# One integer inverse per basis: the coroot coordinates read off the pairing
# and build_from_dynkin's lattice coordinates against the Gram solve


def all_coroot_coords(ntab, d):
    """The N-table's coroot coordinates of the positive roots, by root
    index, with h_-a = -h_a for the negative ones."""
    coords = ntab.coroot_coords
    return [coords[a] if a in coords else tuple(-x for x in coords[ntab.neg[a]]) for a in range(d.nroots)]


def assert_coroot_coords_match_the_gram_solve(d):
    # The N-table solves the positive half only; the Gram solve covers all.
    pos, simple = rootdatum.positive_system(d)
    ntab = chevalley._NTable(d, pos, simple)
    assert sorted(ntab.coroot_coords) == sorted(pos)
    assert all_coroot_coords(ntab, d) == simple_coords(d.coroots, simple, d.coroots)
    assert all(type(x) is int for c in ntab.coroot_coords.values() for x in c)


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_coroot_coordinates_match_the_gram_solve(typ):
    d = build(typ)
    for x in (d, rootdatum.dualize(d), rootdatum.canonicalize(d), rootdatum.canonicalize(rootdatum.dualize(d))):
        assert_coroot_coords_match_the_gram_solve(x)


@settings(max_examples=60, deadline=None)
@given(d=small_data(), data=st.data())
def test_coroot_coordinates_match_the_gram_solve_in_any_lattice_basis(d, data):
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    for x in (e, rootdatum.dualize(e)):
        assert_coroot_coords_match_the_gram_solve(x)


@pytest.mark.parametrize("typ", ["A2:sc", "D4:adj x T2", "B3xG2", "E6:sc", "A1xT1:sc", "T1"])
def test_the_algebra_takes_the_coroot_coordinates_of_its_n_table(typ):
    # [x_a, x_-a] = h_a for each positive a, x_-a npos places after x_a:
    # the table's h block is the N-table's coroot list and the Gram solve.
    d = build(typ)
    L = chevalley.build_lie_algebra(d)
    nz, first = len(L.radical_basis), len(L.radical_basis) + len(L.simple_indices)
    npos = (L.dim - first) // 2
    positives = [L.labels[x][1] for x in range(first, first + npos)]
    read = [tuple(L.table[x, x + npos].get(h, 0) for h in range(nz, first)) for x in range(first, first + npos)]
    ntab = chevalley._NTable(d, *rootdatum.positive_system(d))
    assert read == [ntab.coroot_coords[ri] for ri in positives]
    assert read == simple_coords(d.coroots, L.simple_indices, [d.coroots[ri] for ri in positives])
    assert all(set(L.table[x, x + npos]) <= set(range(nz, first)) for x in range(first, first + npos))


def test_coroots_off_a_root_system_never_reach_the_pairing_coordinates():
    # h_-a = (-1, 0) is not -h_a = (-1, -1), but every pairing matches A1's,
    # so the coordinates read off the pairing would call it -h_a (the
    # N-table solves h_a only, and negation gives the rest); the Gram solve
    # sees that it is off the span of h_a.  validate refuses the datum
    # (reflecting h_-a in a gives (1, 2)), so no algebra is built.
    bad = rootdatum.RootDatum(rank=2, roots=((2, 0), (-2, 0)), coroots=((1, 1), (-1, 0)))
    assert bad.pairing == ((2, -2), (-2, 2))
    rep = rootdatum.validate(bad)
    assert not rep.ok and rep.reflection_witness is not None
    with pytest.raises(ValueError, match="invalid root datum"):
        chevalley.build_lie_algebra(bad)
    pos, simple = rootdatum.positive_system(bad)
    ntab = chevalley._NTable(bad, pos, simple)
    assert list(ntab.coroot_coords.values()) == [(1,)]
    assert sorted(all_coroot_coords(ntab, bad)) == [(-1,), (1,)]
    with pytest.raises(ValueError, match="is not an integral combination"):
        simple_coords(bad.coroots, simple, bad.coroots)


def test_a_custom_lattice_off_the_coroot_lattice_is_refused_by_the_coroot_division():
    # A2 on the basis (3 w1, w2): the coroot a1 = 2 w1 - w2 has coordinate
    # 2/3 on 3 w1, so the one division of the coroots by the basis refuses.
    desc = rootdatum.DynkinDescriptor((("A", 2, "sc"),), 0, ((3, 0), (0, 1)))
    with pytest.raises(ValueError, match="^custom lattice does not contain the coroot lattice$"):
        rootdatum.build_from_dynkin(desc)


@pytest.mark.parametrize("desc", [rootdatum.parse_descriptor(t) for t in ("E6:sc", "D4:adj x T2", "B3xG2", "T2")]
                         + [desc for desc, _ in CUSTOM_LATTICES])
def test_build_from_dynkin_runs_one_elimination_and_no_determinant(desc):
    # The isogeny tags read every coordinate off the closure: no
    # elimination.  A custom lattice inverts its basis once.
    with mock.patch.object(exactlin, "_eliminate", wraps=exactlin._eliminate) as spy, \
            mock.patch.object(exactlin, "det_exact", wraps=exactlin.det_exact) as dets:
        rootdatum.build_from_dynkin(desc)
    assert (spy.call_count, dets.call_count) == (int(desc.custom_basis is not None), 0)


def built_or_refused(builder, desc):
    try:
        return builder(desc)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_custom_basis_builds_as_the_fraction_build(data):
    # Random integer bases of rank <= 3: singular ones, ones that miss the
    # coroot lattice and intermediate lattices, each with or without a torus.
    factors, rank = [], 0
    while rank == 0 or (rank < 3 and data.draw(st.booleans())):
        fam, n = data.draw(st.sampled_from([fr for fr in FAMILY_RANKS if fr[1] <= 3 - rank]))
        factors.append((fam, n, "sc"))
        rank += n
    basis = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                               min_size=rank, max_size=rank))
    desc = rootdatum.DynkinDescriptor(tuple(factors), data.draw(st.integers(0, 1)), tuple(map(tuple, basis)))
    assert built_or_refused(rootdatum.build_from_dynkin, desc) == built_or_refused(legacy_build_from_dynkin, desc)
