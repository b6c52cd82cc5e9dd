"""The datum layer at row speed against the entry-by-entry routines it
replaced, kept in oracles.py: the Cartan matrices of a Euclidean
realization, the reflection closure, the coordinate type walk, the
dot-product pairing, the functional chamber with its pairwise simple-root
search, the functional order of canonicalize, exact quotients one dot
product at a time, the double loop of angle positivity, and the
reflection test on every root column.  The simple-reflection certificate
must hold exactly where the axioms as first written all hold.  They must
agree on every RANK8_TYPES datum, under GL_n(Z) changes of basis, on the
non-reduced BC_n, and on malformed data: zero and repeated roots, non-int
coordinates, and coordinates of 2^7 and more, which take the wide pairing
path."""

from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import exactlin, rootdatum, tduality
from oracles import (
    all_columns_reflection_witness,
    canonical_order,
    checked_coordinates,
    dot_pairing,
    euclidean_cartan,
    exact_quotients,
    functional_positive_system,
    generate_root_pairs,
    loop_angle_positivity,
)
from test_rootdatum import (
    RANK8_TYPES,
    ade_symmetry_scan,
    arbitrary_data,
    change_basis,
    fresh,
    oracle_validate,
    perturbed_data,
    small_data,
    unimodular_pair,
)


# The oracle's report of a datum, computed once for the checks that read it.
oracle_report = lru_cache(maxsize=64)(oracle_validate)


def wide(d):
    """True when the pairing of d takes the dot-product path."""
    m = max((abs(x) for v in d.roots + d.coroots for x in v), default=0)
    return d.rank * m * m >= 1 << 14


def assert_agrees(d):
    """Pairing, axiom report, chamber and canonical order of a fresh copy
    of d, against the oracles."""
    d = fresh(d)
    assert d.pairing == dot_pairing(d)
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in d.pairing)
    assert rootdatum.validate(d) == oracle_report(d)
    assert rootdatum.validate(d).reflection_witness == all_columns_reflection_witness(d)
    assert_the_certificate_agrees(d)
    assert d.chamber == functional_positive_system(d)
    order = canonical_order(d)
    c = rootdatum.canonicalize(d)
    assert c.roots == tuple(d.roots[i] for i in order)
    assert c.coroots == tuple(d.coroots[i] for i in order)
    pairobj = SimpleNamespace(datum=d)
    rec = tduality.check_angle_positivity(pairobj)
    assert (rec.passed, rec.witness, rec.residual) == loop_angle_positivity(pairobj)


def assert_the_certificate_agrees(d):
    """The reflection certificate on a fresh copy of d returns a bool
    without raising, and is True exactly where all four axioms of the
    oracle hold; validate, which decides on it alone, gives the oracle's
    report."""
    d = fresh(d)
    certified = rootdatum._reflections_certified(d)
    assert type(certified) is bool
    assert certified == oracle_report(d).ok
    assert rootdatum.validate(d) == oracle_report(d)


def bc_datum(n):
    """The non-reduced BC_n in Z^n: +-e_i with coroot +-2e_i, +-2e_i with
    coroot +-e_i, and +-e_i +-e_j (i < j) with itself as its coroot."""
    def e(*terms):
        return tuple(sum(c for i, c in terms if i == k) for k in range(n))
    pairs = [(e((i, s)), e((i, 2 * s))) for i in range(n) for s in (1, -1)]
    pairs += [(e((i, 2 * s)), e((i, s))) for i in range(n) for s in (1, -1)]
    pairs += [(e((i, s), (j, t)),) * 2 for i in range(n) for j in range(i + 1, n) for s in (1, -1) for t in (1, -1)]
    return rootdatum.RootDatum(rank=n, roots=[r for r, _ in pairs], coroots=[c for _, c in pairs])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_certificate_refuses_the_non_reduced_bc(n):
    # Every reflection of BC_n permutes its pairs and every pairing is 2,
    # so reducedness alone fails: 2e_i is W-conjugate to no simple root.
    d = bc_datum(n)
    assert d.nroots == 2 * n * n + 2 * n
    assert rootdatum._reflections_certified(d) is False
    rep = rootdatum.validate(d)
    assert rep == oracle_report(d)
    assert rep.reduced_witness is not None
    assert (rep.pairing_witness, rep.reflection_witness, rep.nonzero_witness) == (None, None, None)
    assert_the_certificate_agrees(d)


@pytest.mark.parametrize("roots,coroots", [
    (((0, 1),), ((1, 0),)),
    (((2, 0, 0), (-2, 0, 0), (0, 1, 0)), ((1, 0, 0), (-1, 0, 0), (0, 0, 1))),
], ids=["alone", "beside-A1"])
def test_a_simple_pair_of_pairing_zero_is_refused(roots, coroots):
    # The pair (r, c) with <c, r> = 0 is simple, and s_(r, c) fixes every
    # pair: only the P[j][j] = 2 guard of the certificate refuses it.
    d = rootdatum.RootDatum(rank=len(roots[0]), roots=roots, coroots=coroots)
    j = len(roots) - 1
    assert j in d.chamber[1] and d.pairing[j][j] == 0
    rep = rootdatum.validate(d)
    assert rep == oracle_report(d) == rootdatum.AxiomReport(pairing_witness=j)
    assert_the_certificate_agrees(d)


FAMILIES = [(fam, n) for fam, ranks in (("A", range(1, 11)), ("B", range(2, 11)), ("C", range(2, 11)),
                                        ("D", range(3, 11)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,)))
            for n in ranks]


@pytest.mark.parametrize("fam,n", [(fam, n) for fam in "ABCD" for n in range(1, 41) if rootdatum._LEGAL[fam](n)]
                         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_the_diagram_cartan_matches_the_euclidean_cartan(fam, n):
    assert rootdatum.family_cartan(fam, n) == euclidean_cartan(fam, n)


@pytest.mark.parametrize("fam,n", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("X", 2)])
def test_the_diagram_cartan_refuses_an_illegal_family_or_rank(fam, n):
    # B1 and D2 would index off the diagram; E5 would be D5 under another name.
    with pytest.raises(ValueError, match=f"^illegal Dynkin family/rank: {fam}{n}$"):
        rootdatum.family_cartan(fam, n)


@pytest.mark.parametrize("fam,n", FAMILIES)
def test_the_label_closure_matches_the_pairing_closure(fam, n):
    A = rootdatum.family_cartan(fam, n)
    pairs = rootdatum.generate_root_pairs(A)
    # The carried labels are the root's pairings with the simple coroots
    # and the coroot's with the simple roots; the coroot's coordinates are
    # the oracle's own.
    assert pairs == [(root, tuple(sum(A[i][j] * c for j, c in enumerate(root)) for i in range(n)),
                      tuple(sum(m * A[i][j] for i, m in enumerate(coroot)) for j in range(n)), coroot)
                     for root, coroot in generate_root_pairs(A)]
    for quadruple in pairs:
        assert all(type(v) is tuple and all(type(x) is int for x in v) for v in quadruple)


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_datum_rows_match_the_oracles(typ):
    d = build(typ)
    assert not wide(d)
    for x in (d, rootdatum.dualize(d)):
        assert_agrees(x)


@settings(max_examples=60, deadline=None)
@given(typ=st.sampled_from([t for t in RANK8_TYPES if "8" not in t]), dual=st.booleans(), data=st.data())
def test_datum_rows_match_the_oracles_under_a_change_of_basis(typ, dual, data):
    d = build(typ)
    d = rootdatum.dualize(d) if dual else d
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    assert_agrees(e)
    assert e.pairing == d.pairing


@settings(max_examples=100, deadline=None)
@given(typ=st.sampled_from(RANK8_TYPES), dual=st.booleans(), data=st.data())
def test_the_reflection_certificate_never_passes_a_datum_the_scan_refuses(typ, dual, data):
    # A GL_n(Z) rebasing of a valid datum is certified.  With one root or
    # coroot coordinate moved, the certificate must still agree with the
    # scan: a moved coroot leaves the roots, and the simple rows of P that
    # reflect them, as they were.
    d = build(typ)
    d = rootdatum.dualize(d) if dual else d
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    assert rootdatum._reflections_certified(e)
    assert_the_certificate_agrees(e)
    if not e.nroots:
        return
    vecs = {"roots": list(e.roots), "coroots": list(e.coroots)}
    moved = vecs[data.draw(st.sampled_from(sorted(vecs)))]
    i, k = data.draw(st.integers(0, e.nroots - 1)), data.draw(st.integers(0, e.rank - 1))
    moved[i] = tuple(x + data.draw(st.sampled_from([-2, -1, 1, 2])) * (t == k) for t, x in enumerate(moved[i]))
    assert_the_certificate_agrees(rootdatum.RootDatum(rank=e.rank, **vecs))


@st.composite
def sheared(draw, data):
    """A datum of data in a basis changed by the shear row i += k row j,
    |k| >= 2^7, with every coordinate of the result kept."""
    d = draw(data)
    assume(d.rank >= 2)
    i, j = draw(st.permutations(range(d.rank)))[:2]
    k = draw(st.integers(1 << 7, 1 << 10)) * draw(st.sampled_from([-1, 1]))
    U = [[int(a == b) + (k if (a, b) == (i, j) else 0) for b in range(d.rank)] for a in range(d.rank)]
    V = [[int(a == b) - (k if (a, b) == (i, j) else 0) for b in range(d.rank)] for a in range(d.rank)]
    return d, change_basis(d, U, V)


@settings(max_examples=60, deadline=None)
@given(pair=sheared(small_data()))
def test_wide_coordinates_take_the_dot_product_path_and_keep_the_pairing(pair):
    d, e = pair
    assume(wide(e))
    assert_agrees(e)
    assert e.pairing == d.pairing


@settings(max_examples=60, deadline=None)
@given(pair=sheared(st.one_of(perturbed_data(), arbitrary_data())))
def test_wide_malformed_data_match_the_oracles(pair):
    d, e = pair
    assume(wide(e))
    assert_agrees(e)


def test_the_packed_rows_hold_the_largest_narrow_values():
    # rank m^2 just below 2^14 stays packed: +-127^2 and +-2 * 90^2 are exact.
    for rank, m in ((1, 127), (2, 90), (4, 63)):
        roots = ((m,) * rank, (-m,) * rank, (m, *([0] * (rank - 1))))
        coroots = ((m,) * rank, (m,) * rank, (-m,) * rank)
        d = rootdatum.RootDatum(rank=rank, roots=roots, coroots=coroots)
        assert not wide(d)
        assert d.pairing == dot_pairing(d)
        assert d.pairing[0][0] == rank * m * m and d.pairing[0][1] == -rank * m * m
    d = rootdatum.RootDatum(rank=1, roots=((128,), (-128,)), coroots=((128,), (1,)))
    assert wide(d) and d.pairing == dot_pairing(d) == ((16384, -16384), (128, -128))


def test_e8_under_a_wide_shear_keeps_its_pairing_and_chamber_oracles():
    d = build("E8:sc")
    U = [[int(a == b) + (300 if (a, b) == (0, 7) else 0) for b in range(8)] for a in range(8)]
    V = [[int(a == b) - (300 if (a, b) == (0, 7) else 0) for b in range(8)] for a in range(8)]
    e = change_basis(d, U, V)
    assert wide(e)
    assert_agrees(e)
    assert e.pairing == d.pairing


@settings(max_examples=150, deadline=None)
@given(d=st.one_of(perturbed_data(), arbitrary_data()))
def test_malformed_data_match_the_oracles(d):
    # Zeroed, repeated, scaled and negated roots and coroots.
    assert_agrees(d)


@pytest.mark.parametrize("typ", ["A2:sc", "B3:adj", "A1xT1:sc"])
@pytest.mark.parametrize("move", ["zero", "repeat"])
def test_zero_and_repeated_roots_give_the_oracle_witnesses(typ, move):
    d = build(typ)
    roots = list(d.roots)
    roots[1] = (0,) * d.rank if move == "zero" else roots[0]
    broken = rootdatum.RootDatum(rank=d.rank, roots=roots, coroots=d.coroots)
    rep = rootdatum.validate(broken)
    assert not rep.ok and rep == oracle_validate(broken)
    assert_agrees(broken)


def twin_perturbations(typ):
    """(case, datum, j, k) for each +- root pair a < b of typ: root j of the
    pair perturbed (doubled, shifted by another root, or its (root, coroot)
    pair replaced by another root's, which repeats that pair), and column k
    set to the negation of the new pair j: k = b, a, or None for no twin."""
    d = build(typ)
    index = {r: i for i, r in enumerate(d.roots)}
    for a, r in enumerate(d.roots):
        b = index[tuple(-x for x in r)]
        if a > b:
            continue
        other = next(i for i in range(d.nroots) if i not in (a, b))
        for case in ("after", "before", "none"):
            j, k = {"after": (a, b), "before": (b, a), "none": (a, None)}[case]
            for move in ("double", "shift", "repeat"):
                roots, coroots = list(d.roots), list(d.coroots)
                if move == "double":
                    roots[j] = tuple(2 * x for x in roots[j])
                elif move == "shift":
                    roots[j] = tuple(map(sum, zip(roots[j], roots[other])))
                else:
                    roots[j], coroots[j] = roots[other], coroots[other]
                if k is not None:
                    roots[k] = tuple(-x for x in roots[j])
                    coroots[k] = tuple(-x for x in coroots[j])
                yield f"{case}-{move}", rootdatum.RootDatum(rank=d.rank, roots=roots, coroots=coroots), j, k


@pytest.mark.parametrize("typ", ["A2:sc", "B3:sc"])
def test_a_perturbed_root_gives_the_all_columns_witness_with_or_without_its_twin(typ):
    # Pair j perturbed, with or without its negation at column k: the
    # scan names the all-columns witness either way.
    for case, d, j, k in twin_perturbations(typ):
        rep = rootdatum.validate(d)
        assert rep.reflection_witness is not None, case
        assert rep == oracle_validate(d), case
        assert rep.reflection_witness == all_columns_reflection_witness(d), case
        assert_agrees(d)


@pytest.mark.parametrize("typ", ["A2:sc", "B3:sc", "G2:sc"])
def test_repeated_pairs_and_their_twins_keep_the_witness(typ):
    # Every (root, coroot) pair listed twice, in place or at the end: each
    # column has a twin, and a repeat, before or after it.
    d = build(typ)
    for roots, coroots in ((d.roots * 2, d.coroots * 2),
                           (sum(zip(d.roots, d.roots), ()), sum(zip(d.coroots, d.coroots), ()))):
        e = rootdatum.RootDatum(rank=d.rank, roots=roots, coroots=coroots)
        assert rootdatum.validate(e).ok
        for i in range(e.nroots):
            for k in (0, e.rank - 1):
                broken = list(e.roots)
                broken[i] = tuple(x + (t == k) for t, x in enumerate(broken[i]))
                f = rootdatum.RootDatum(rank=e.rank, roots=broken, coroots=e.coroots)
                assert rootdatum.validate(f) == oracle_validate(f)
                assert rootdatum.validate(f).reflection_witness == all_columns_reflection_witness(f)
                assert_the_certificate_agrees(f)


@settings(max_examples=100, deadline=None)
@given(d=small_data(), data=st.data())
def test_a_non_int_coordinate_is_named_as_the_walk_names_it(d, data):
    assume(d.nroots)
    vecs = {"roots": [list(v) for v in d.roots], "coroots": [list(v) for v in d.coroots]}
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from(sorted(vecs)))
        i = data.draw(st.integers(0, d.nroots - 1))
        k = data.draw(st.integers(0, d.rank - 1))
        vecs[key][i][k] = data.draw(st.sampled_from([2.7, "2", True, False, Fraction(5, 2), 2.0, None]))
    with pytest.raises(ValueError) as walk:
        checked_coordinates("roots", vecs["roots"])
        checked_coordinates("coroots", vecs["coroots"])
    with pytest.raises(ValueError) as new:
        rootdatum.RootDatum(rank=d.rank, roots=vecs["roots"], coroots=vecs["coroots"])
    assert str(new.value) == str(walk.value)


@st.composite
def quotient_cases(draw):
    k = draw(st.integers(0, 3))
    X = draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), min_size=k, max_size=k))
    den = draw(st.integers(-6, 6).filter(bool))
    vectors = draw(st.lists(st.lists(st.integers(-20, 20), min_size=k, max_size=k), max_size=6))
    return X, den, vectors


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"refused: {exc}"


@settings(max_examples=300, deadline=None)
@given(case=quotient_cases())
def test_exact_quotients_match_one_dot_product_per_coordinate(case):
    X, den, vectors = case
    got = outcome(exactlin.exact_quotients, X, den, vectors, str)
    assert got == outcome(exact_quotients, X, den, vectors, str)
    if not isinstance(got, str):
        assert all(type(v) is tuple and all(type(x) is int for x in v) for v in got)


def test_exact_quotients_refuse_the_smallest_failing_vector_across_rows():
    # Vector 2 fails in row 0 and vector 1 in row 1: vector 1 is refused.
    X = [[1, 0], [0, 1]]
    vectors = [(2, 2), (2, 1), (1, 2)]
    assert outcome(exactlin.exact_quotients, X, 2, vectors, str) == "refused: 1" == \
        outcome(exact_quotients, X, 2, vectors, str)


@settings(max_examples=150, deadline=None)
@given(typ=st.sampled_from(["A2:sc", "B2:sc", "G2", "A1xT1:sc", "D4:sc", "C3:adj"]), symmetric=st.booleans(),
       data=st.data())
def test_angle_positivity_gives_the_loop_witness_on_a_seeded_defect(typ, symmetric, data):
    d = build(typ)
    P = [list(row) for row in d.pairing]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, d.nroots - 1))
        j = data.draw(st.integers(0, d.nroots - 1))
        if symmetric:
            # A symmetric P stays symmetric, with one |P[i][j]| = 3 > 2: the
            # extremes refuse it, and the scan names the witness.
            P[i][j] = P[j][i] = data.draw(st.sampled_from([-3, 3]))
        else:
            P[i][j] = data.draw(st.integers(-6, 6))
    seeded = fresh(d)
    seeded.__dict__["pairing"] = tuple(map(tuple, P))
    pairobj = SimpleNamespace(datum=seeded)
    rec = tduality.check_angle_positivity(pairobj)
    assert (rec.passed, rec.witness, rec.residual) == loop_angle_positivity(pairobj)
    if symmetric:
        assert not rec.passed


def test_an_angle_product_of_five_is_refused():
    # The bound is exact: on G2 the products P[i][j] P[j][i] run over 0..4,
    # and a long-short product raised from 3 to 5 is refused, with the
    # loop's witness.
    d = build("G2")
    assert tduality.check_angle_positivity(SimpleNamespace(datum=d)).passed
    P = [list(row) for row in d.pairing]
    i, j = next((i, j) for i, row in enumerate(P) for j, v in enumerate(row) if v == -3)
    assert P[j][i] == -1
    P[i][j] = -5
    seeded = fresh(d)
    seeded.__dict__["pairing"] = tuple(map(tuple, P))
    pairobj = SimpleNamespace(datum=seeded)
    rec = tduality.check_angle_positivity(pairobj)
    assert (rec.passed, rec.residual) == (False, "5/1")
    assert (rec.passed, rec.witness, rec.residual) == loop_angle_positivity(pairobj)


@settings(max_examples=100, deadline=None)
@given(typ=st.sampled_from(["A2:sc", "D4:sc", "E6:sc"]), data=st.data())
def test_the_asymmetry_of_a_seeded_pairing_is_the_ordered_scan(typ, data):
    # The negative control of the cached symmetry fact: 1-3 off-diagonal
    # entries of an ADE pairing are patched, each to its mirror entry plus a
    # nonzero step, so the pair patched last stays asymmetric.
    d = build(typ)
    P = [list(row) for row in d.pairing]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, d.nroots - 1))
        j = data.draw(st.integers(0, d.nroots - 1).filter(lambda j: j != i))
        P[i][j] = P[j][i] + data.draw(st.sampled_from([-2, -1, 1, 2]))
    seeded = fresh(d)
    seeded.__dict__["pairing"] = tuple(map(tuple, P))
    w = rootdatum.ade_symmetry_witness(seeded)
    assert w == ade_symmetry_scan(seeded) is not None
    assert not rootdatum.is_ade(seeded)
    rec = tduality.check_ade_symmetry(seeded)
    i, j = w
    assert (rec.passed, rec.witness) == (False, {"roots": [i, j], "alpha(h_beta)": f"{P[j][i]}/1",
                                                 "beta(h_alpha)": f"{P[i][j]}/1"})
    pairobj = SimpleNamespace(datum=seeded)
    rec = tduality.check_angle_positivity(pairobj)
    assert (rec.passed, rec.witness, rec.residual) == loop_angle_positivity(pairobj)
    # The dual carries the witness over and transposes P.
    dual = rootdatum.dualize(seeded)
    assert dual.pairing == tuple(zip(*seeded.pairing))
    assert dual.asymmetry == w == ade_symmetry_scan(dual)
