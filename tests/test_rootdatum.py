import json
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import rootdatum, tduality
from liedual.exactlin import smith_normal_form
from oracles import cartan_is_ade, transpose

ALL_TYPES = [
    "A1:sc", "A1:adj", "A2:sc", "A2:adj", "A3:sc", "A3:adj",
    "B2:sc", "B3:sc", "C3:sc", "D4:sc", "D4:adj", "D5:sc",
    "E6:sc", "E6:adj", "F4", "G2", "T1", "T2", "A1xT1:sc", "B2xA1:sc",
]

ROOT_COUNTS = {"A1": 2, "A2": 6, "A3": 12, "B2": 8, "B3": 18, "C3": 18,
               "D4": 24, "D5": 40, "E6": 72, "F4": 48, "G2": 12}


@pytest.mark.parametrize("typ", ALL_TYPES)
def test_axioms_hold(typ):
    d = build(typ)
    rep = rootdatum.validate(d)
    assert rep.ok, rep.as_dict()


@pytest.mark.parametrize("family,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(family, count):
    suffix = "" if family in ("F4", "G2") else ":sc"
    assert build(family + suffix).nroots == count


def test_e8_has_240_roots():
    assert build("E8:sc").nroots == 240


@pytest.mark.parametrize("typ", ALL_TYPES)
def test_dualize_is_an_involution(typ):
    d = build(typ)
    assert rootdatum.to_json(rootdatum.dualize(rootdatum.dualize(d))) == rootdatum.to_json(d)


@pytest.mark.parametrize("typ", ALL_TYPES)
def test_dual_cartan_matrix_is_the_transpose(typ):
    d = build(typ)
    A = rootdatum.cartan_matrix(d)
    B = rootdatum.cartan_matrix(rootdatum.dualize(d))
    assert B == transpose(A)


def test_dual_swaps_b_and_c():
    d = build("B3:sc")
    dual = rootdatum.dualize(d)
    assert rootdatum.classify_label(d) == "B3"
    assert rootdatum.classify_label(dual) == "C3"
    assert rootdatum.cartan_matrix(dual) == rootdatum.cartan_matrix(build("C3:sc"))
    assert rootdatum.fundamental_group(dual) == [2]


@pytest.mark.parametrize(
    "typ,pi1",
    [
        ("A1:sc", []), ("A1:adj", [2]), ("A2:adj", [3]), ("A3:adj", [4]),
        ("D4:adj", [2, 2]), ("E6:adj", [3]), ("E8:sc", []), ("T2", []),
    ],
)
def test_fundamental_groups(typ, pi1):
    assert rootdatum.fundamental_group(build(typ)) == pi1


def test_sc_dual_is_adjoint_of_dual_type():
    dual = rootdatum.dualize(build("A1:sc"))
    assert rootdatum.fundamental_group(dual) == [2]


@pytest.mark.parametrize("typ", ALL_TYPES + ["E7:sc", "E8:sc", "A9:sc", "B9:sc", "C9:sc", "D9:sc"])
def test_classification_recovers_the_type(typ):
    d = build(typ)
    expected = typ.split(":")[0].replace("x", " x ")
    assert rootdatum.classify_label(d) == expected


def test_is_ade():
    for typ in ("A2:sc", "D4:adj", "E6:sc", "T2", "A1xT1:sc"):
        assert rootdatum.is_ade(build(typ))
    for typ in ("B2:sc", "C3:sc", "F4", "G2", "B2xA1:sc"):
        assert not rootdatum.is_ade(build(typ))


def test_ade_symmetry_witness():
    d = build("B3:sc")
    w = rootdatum.ade_symmetry_witness(d)
    assert w is not None
    i, j = w
    assert rootdatum.pair(d.coroots[j], d.roots[i]) != rootdatum.pair(d.coroots[i], d.roots[j])
    assert rootdatum.ade_symmetry_witness(build("D4:sc")) is None


RANK8_TYPES = [
    f"{fam}{n}:{iso}"
    for fam, ranks in (("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(3, 9)),
                       ("E", range(6, 9)), ("F", (4,)), ("G", (2,)))
    for n in ranks
    for iso in ("sc", "adj")
] + ["T1", "T2", "A1xT1:sc", "A2xT1:sc", "B2xA1:sc", "G2xT1", "A1xA1:sc", "A1:adjxA1:adj",
     "A1xA2:adj", "D4:adj x T2"]


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_positive_system_commutes_with_dualize(typ):
    # build_pair builds the dual algebra on its own positive system and
    # relies on it being the one of the datum, index for index.
    # dualize carries the chamber over, so the fresh copy is the check.
    d = build(typ)
    assert rootdatum.positive_system(fresh(rootdatum.dualize(d))) == rootdatum.positive_system(d)


def test_simple_system_size_is_semisimple_rank():
    for typ, n in (("A2:sc", 2), ("D4:sc", 4), ("A1xT1:sc", 1), ("T2", 0)):
        _, simples = rootdatum.positive_system(build(typ))
        assert len(simples) == n


def test_json_round_trip():
    d = build("D4:adj")
    text = rootdatum.to_json(d)
    back = rootdatum.from_json(text)
    assert rootdatum.to_json(back) == text
    obj = json.loads(text)
    assert set(obj) >= {"rank", "roots", "coroots"}


@pytest.mark.parametrize(
    "bad",
    [{"rank": 1.0}, {"rank": "1"}, {"rank": True}, {"roots": [[2.0], [-2]]}, {"coroots": [[1], [False]]},
     {"label": 5}, {"label": None}, {"isogeny": "sc"}, {"roots": [2, -2]}],
)
def test_from_json_dict_is_strict(bad):
    obj = {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "label": "A1"}
    assert rootdatum.from_json_dict(obj).roots == ((2,), (-2,))
    with pytest.raises(ValueError):
        rootdatum.from_json_dict({**obj, **bad})
    with pytest.raises(ValueError):
        rootdatum.from_json_dict([obj])


@pytest.mark.parametrize("missing", [["rank"], ["roots"], ["coroots"], ["coroots", "rank", "roots"]])
def test_from_json_dict_names_missing_keys(missing):
    obj = {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "label": "A1"}
    with pytest.raises(ValueError) as exc:
        rootdatum.from_json_dict({k: v for k, v in obj.items() if k not in missing})
    assert str(exc.value) == f"missing root datum keys: {missing}"


@pytest.mark.parametrize("bad", [2.7, "2", True, Fraction(5, 2)])
def test_root_datum_rejects_non_int_values(bad):
    assert rootdatum.RootDatum(rank=1, roots=[[2], [-2]], coroots=[[1], [-1]]).roots == ((2,), (-2,))
    with pytest.raises(ValueError, match="must be an integer"):
        rootdatum.RootDatum(rank=1, roots=((bad,), (-2,)), coroots=((1,), (-1,)))
    with pytest.raises(ValueError, match="must be an integer"):
        rootdatum.RootDatum(rank=1, roots=((2,), (-2,)), coroots=((1,), (bad,)))
    with pytest.raises(ValueError, match="must be an integer"):
        rootdatum.RootDatum(rank=bad, roots=(), coroots=())


def test_from_json_dict_rejects_a_repeated_pair():
    obj = {"rank": 1, "roots": [[2], [-2], [2], [-2]], "coroots": [[1], [-1], [1], [-1]]}
    assert rootdatum.RootDatum(rank=1, roots=obj["roots"], coroots=obj["coroots"]).nroots == 4
    with pytest.raises(ValueError, match=r"^\(root, coroot\) pair \(\[2\], \[1\]\) is listed twice$"):
        rootdatum.from_json_dict(obj)
    # The same root with two different coroots is not a repeated pair.
    assert rootdatum.from_json_dict({**obj, "coroots": [[1], [-1], [3], [-3]]}).nroots == 4


@pytest.mark.parametrize("text, key", [
    ('{"rank":1,"roots":[[2],[-2]],"coroots":[[1],[-1]],"rank":1}', "rank"),
    ('{"rank":1,"roots":[[2],[-2]],"coroots":[[1],[-1]],"roots":[[2],[-2]]}', "roots"),
    ('{"label":"A1","rank":1,"roots":[[2],[-2]],"coroots":[[1],[-1]],"label":"B1"}', "label"),
    ('{"rank":1,"roots":[[2],[-2]],"coroots":[[1],[-1]],"extra":{"a":1,"a":2}}', "a"),
], ids=["same-value", "roots", "label", "nested"])
def test_from_json_refuses_a_repeated_key(text, key):
    # json.loads alone keeps the last value of a repeated key; the strict
    # reader names the key instead.
    with pytest.raises(ValueError, match=rf"^root datum key '{key}' is listed twice$"):
        rootdatum.from_json(text)
    assert rootdatum.from_json('{"rank":1,"roots":[[2],[-2]],"coroots":[[1],[-1]]}').nroots == 2


def test_json_nested_near_the_recursion_limit_is_a_value_error():
    # Just below the limit json.loads can succeed and the repr of the nested
    # coordinate in the error message overflow instead; both are bad input.
    limit = sys.getrecursionlimit()
    for n in range(limit - 60, limit + 10):
        text = '{"rank": 1, "roots": [[' + "[" * n + "]" * n + ']], "coroots": [[1]]}'
        with pytest.raises(ValueError):
            rootdatum.from_json(text)


def test_root_datum_rejects_a_negative_rank():
    assert rootdatum.RootDatum(rank=0, roots=(), coroots=()).rank == 0
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        rootdatum.RootDatum(rank=-1, roots=(), coroots=())
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        rootdatum.from_json_dict({"rank": -1, "roots": [], "coroots": []})


def test_derived_facts_are_cached_outside_equality_hash_and_json():
    d = build("B2xT1:sc")
    e = build("B2xT1:sc")
    text = rootdatum.to_json(d)
    assert rootdatum.validate(d) is rootdatum.validate(d) is d.axioms
    assert rootdatum.positive_system(d) == rootdatum.positive_system(d) == tuple(map(list, d.chamber))
    assert rootdatum.positive_system(d)[0] is not rootdatum.positive_system(d)[0]
    assert d.pairing == tuple(tuple(rootdatum.pair(c, r) for r in d.roots) for c in d.coroots)
    assert {"axioms", "chamber", "pairing"} <= set(vars(d)) and not {"axioms", "chamber", "pairing"} & set(vars(e))
    assert d == e and hash(d) == hash(e) and rootdatum.to_json(d) == text == rootdatum.to_json(e)


def test_validation_rejects_broken_data():
    d = build("A1:sc")
    broken = rootdatum.RootDatum(rank=d.rank, roots=d.roots, coroots=tuple((3,) for _ in d.coroots))
    assert not rootdatum.validate(broken).ok


def oracle_validate(d):
    """The root-datum axioms as first written: both reflections for every
    pair, and reducedness through exact Fraction ratios of coroot pairs."""
    rep = rootdatum.AxiomReport()
    for i, r in enumerate(d.roots):
        if all(x == 0 for x in r):
            rep.nonzero_witness = i
            break
    for i in range(d.nroots):
        if rootdatum.pair(d.coroots[i], d.roots[i]) != 2:
            rep.pairing_witness = i
            break
    coroot_set = set(d.coroots)
    root_set = set(d.roots)
    for j in range(d.nroots):
        if rep.reflection_witness is not None:
            break
        for i in range(d.nroots):
            n = rootdatum.pair(d.coroots[i], d.roots[j])
            refl_c = tuple(a - n * b for a, b in zip(d.coroots[i], d.coroots[j]))
            m = rootdatum.pair(d.coroots[j], d.roots[i])
            refl_r = tuple(a - m * b for a, b in zip(d.roots[i], d.roots[j]))
            if refl_c not in coroot_set or refl_r not in root_set:
                rep.reflection_witness = (i, j)
                break
    for i, c in enumerate(d.coroots):
        for j, c2 in enumerate(d.coroots):
            if i == j:
                continue
            ratio = _scalar_ratio(c2, c)
            if ratio is not None and ratio not in (1, -1):
                rep.reduced_witness = (i, j)
                break
        if rep.reduced_witness is not None:
            break
    return rep


def _scalar_ratio(v, w):
    """Return c with v = c*w (exact rational), or None."""
    if all(x == 0 for x in w):
        return None
    c = None
    for a, b in zip(v, w):
        if b == 0:
            if a != 0:
                return None
            continue
        r = Fraction(a, b)
        if c is None:
            c = r
        elif c != r:
            return None
    if c is None:
        return None
    return c if all(Fraction(a) == c * b for a, b in zip(v, w)) else None


@pytest.mark.parametrize(
    "coroots,reduced_witness",
    [
        (((1,), (-1,), (1,)), None),           # a duplicate coroot: ratio 1 is allowed
        (((1,), (-1,), (0,)), (0, 2)),         # a zero coroot is 0 times the first
        (((1,), (-1,), (-2,)), (0, 2)),        # ratio -2
        (((0,), (0,)), None),                  # zero against zero has no ratio
    ],
)
def test_validate_reducedness_edge_cases_match_the_oracle(coroots, reduced_witness):
    d = rootdatum.RootDatum(rank=1, roots=tuple((2,) for _ in coroots), coroots=coroots)
    rep = rootdatum.validate(d)
    assert rep == oracle_validate(d)
    assert rep.reduced_witness == reduced_witness


def test_descriptor_errors():
    # A rank with a leading zero is refused: int() would read "A01" as A1
    # and "T00" as no torus.  A trailing newline in a factor is refused, as
    # a tab is: "$" once matched before it, reading "A2\n" as A2.  A space
    # stands only around an "x": every space was once deleted first, so
    # "A 2", "A2 :sc" and " A2" read as A2.
    for bad in ("NOPE", "A0", "E9", "B1:sc", "A1:weird", "", "A01", "E06", "A1xT00", "T01", "B03:adj",
                "A2\n", "A1\nxT1", "A2\t", "A 2", "A2 :sc", " A2", "A2 ", "A2: sc", "A2 x T1 "):
        with pytest.raises(ValueError):
            rootdatum.parse_descriptor(bad)


def test_descriptor_products_and_tori():
    desc = rootdatum.parse_descriptor("A2xT1xB2:sc")
    d = rootdatum.build_from_dynkin(desc)
    assert d.rank == 5
    assert d.nroots == 6 + 8
    assert rootdatum.parse_descriptor("T3").torus_rank == 3
    assert rootdatum.parse_descriptor("A10xT0xT10") == rootdatum.DynkinDescriptor((("A", 10, "sc"),), 10)
    # Spaces may stand around an "x", on either side or both.
    for text in ("D4:adj x T2", "D4:adjx T2", "D4:adj  xT2"):
        assert rootdatum.parse_descriptor(text) == rootdatum.DynkinDescriptor((("D", 4, "adj"),), 2)
    assert rootdatum.parse_descriptor("A2 x T1 x B2:sc") == desc


# ---------------------------------------------------------------------------
# Properties over descriptors of rank <= 4

FAMILY_RANKS = [("A", n) for n in range(1, 5)] + [
    (fam, n) for fam in "BC" for n in range(2, 5)
] + [("D", 3), ("D", 4), ("F", 4), ("G", 2)]


@st.composite
def small_data(draw):
    """A root datum from build_from_dynkin with total rank <= 4."""
    factors, rank = [], 0
    for _ in range(draw(st.integers(0, 3))):
        fam, n = draw(st.sampled_from([fr for fr in FAMILY_RANKS if fr[1] <= 4 - rank]))
        factors.append((fam, n, draw(st.sampled_from(["sc", "adj"]))))
        rank += n
        if rank == 4:
            break
    torus = draw(st.integers(0, 4 - rank))
    return rootdatum.build_from_dynkin(rootdatum.DynkinDescriptor(tuple(factors), torus))


@settings(max_examples=60, deadline=None)
@given(d=small_data())
def test_dualize_twice_is_the_identity(d):
    assert rootdatum.dualize(rootdatum.dualize(d)) == d


@settings(max_examples=60, deadline=None)
@given(d=small_data(), data=st.data())
def test_to_json_ignores_the_order_of_root_pairs(d, data):
    order = data.draw(st.permutations(range(d.nroots)))
    shuffled = rootdatum.RootDatum(
        rank=d.rank,
        roots=tuple(d.roots[i] for i in order),
        coroots=tuple(d.coroots[i] for i in order),
        label=d.label,
    )
    assert rootdatum.to_json(shuffled) == rootdatum.to_json(d)


@settings(max_examples=60, deadline=None)
@given(d=small_data())
def test_json_round_trip_is_canonicalize(d):
    assert rootdatum.from_json(rootdatum.to_json(d)) == rootdatum.canonicalize(d)


@st.composite
def unimodular_pair(draw, n):
    """U in GL_n(Z) and its inverse V, built from drawn elementary moves."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [row[:] for row in U]
    for _ in range(draw(st.integers(0, 6))):
        if n > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            k = draw(st.sampled_from([-2, -1, 1, 2]))
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]   # row i += k row j
            for row in V:                                     # column j -= k column i
                row[j] -= k * row[i]
        elif n:
            i = draw(st.integers(0, n - 1))
            U[i] = [-a for a in U[i]]
            for row in V:
                row[i] = -row[i]
    return U, V


def change_basis(d, U, V):
    """d in the lattice basis changed by U in GL_n(Z) with inverse V:
    coroots x -> U x and roots y -> V^T y, which keeps every pairing."""
    n = d.rank
    return rootdatum.RootDatum(
        rank=n,
        roots=[[sum(V[k][i] * r[k] for k in range(n)) for i in range(n)] for r in d.roots],
        coroots=[[sum(U[i][k] * c[k] for k in range(n)) for i in range(n)] for c in d.coroots],
    )


def fresh(d):
    """The same lists as d in a new RootDatum, with nothing cached."""
    return rootdatum.RootDatum(rank=d.rank, roots=d.roots, coroots=d.coroots, label=d.label)


@settings(max_examples=60, deadline=None)
@given(d=small_data(), data=st.data())
def test_derived_data_inherit_the_pairing(d, data):
    d = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    d.pairing
    dual, canon = rootdatum.dualize(d), rootdatum.canonicalize(d)
    for derived in (dual, canon):
        assert derived.pairing == fresh(derived).pairing
        assert all(type(row) is tuple for row in derived.pairing)
    assert rootdatum.dualize(dual).pairing == d.pairing
    assert rootdatum.canonicalize(dual).pairing == fresh(rootdatum.canonicalize(dual)).pairing


@pytest.mark.parametrize("typ", ["A2:sc", "D4:adj", "E6:sc", "A1xT1:sc", "B3:sc", "G2"])
def test_a_computed_pairing_brings_its_asymmetry_to_the_dual(typ):
    # With P computed and its asymmetry not yet asked, as after validate,
    # dualize settles the asymmetry itself: a symmetric P is shared.
    d = fresh(build(typ))
    d.pairing
    dual = rootdatum.dualize(d)
    assert dual.__dict__["asymmetry"] == d.__dict__["asymmetry"] == ade_symmetry_scan(d)
    if rootdatum.is_ade(d):
        assert dual.pairing is d.pairing
    else:
        assert dual.pairing == tuple(zip(*d.pairing)) and dual.pairing is not d.pairing


@pytest.mark.parametrize("typ", ["B3:sc", "G2xT1", "A2:adj"])
def test_derived_pairings_are_read_off_the_source(typ):
    # A marked source pairing shows through: the dual transposes what the
    # source holds instead of computing its own.
    d = fresh(build(typ))
    marked = tuple(tuple(10 * i + j for j in range(d.nroots)) for i in range(d.nroots))
    d.__dict__["pairing"] = marked
    assert rootdatum.dualize(d).pairing == tuple(zip(*marked))


@settings(max_examples=30, deadline=None)
@given(d=small_data(), data=st.data())
def test_a_source_without_a_pairing_leaves_it_lazy(d, data):
    d = fresh(change_basis(d, *data.draw(unimodular_pair(d.rank))))
    for derived in (rootdatum.dualize(d), rootdatum.canonicalize(d)):
        if derived is not d:
            assert derived.pairing == tuple(
                tuple(sum(x * y for x, y in zip(c, r)) for r in derived.roots) for c in derived.coroots)
    assert "pairing" not in d.__dict__


def shuffled(d, order):
    """d with its (root, coroot) pairs listed in the given order."""
    return rootdatum.RootDatum(
        rank=d.rank,
        roots=tuple(d.roots[i] for i in order),
        coroots=tuple(d.coroots[i] for i in order),
        label=d.label,
    )


def assert_chambers_are_fresh(d):
    """Every datum derived from d by dualize and canonicalize, once or
    composed, carries the chamber a fresh _positive_system finds."""
    dual, canon = rootdatum.dualize(d), rootdatum.canonicalize(d)
    for derived in (dual, canon, rootdatum.canonicalize(dual), rootdatum.dualize(canon),
                    rootdatum.dualize(dual), rootdatum.canonicalize(canon)):
        assert derived.chamber == rootdatum._positive_system(fresh(derived))


@settings(max_examples=80, deadline=None)
@given(d=small_data(), data=st.data())
def test_derived_data_carry_the_chamber(d, data):
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    e = shuffled(e, data.draw(st.permutations(range(e.nroots))))
    if data.draw(st.booleans()):
        e.chamber                   # a source that already holds its chamber
    assert_chambers_are_fresh(e)


@pytest.mark.parametrize("typ", ["A1:sc", "A2xT1:sc", "D4:adj", "B3:sc"])
def test_a_pair_listed_twice_keeps_the_chamber_of_a_fresh_datum(typ):
    # The two copies tie on _swap_key; the simple roots are then ordered
    # by index, in the source and in every re-indexed datum alike.
    d = build(typ)
    for i in (0, d.nroots - 1):
        twice = rootdatum.RootDatum(d.rank, d.roots + (d.roots[i],), d.coroots + (d.coroots[i],))
        assert rootdatum.validate(twice).ok
        for order in (range(twice.nroots), reversed(range(twice.nroots))):
            assert_chambers_are_fresh(shuffled(twice, list(order)))


@pytest.mark.parametrize("typ", ["B3:sc", "G2xT1", "A2:adj"])
def test_derived_chambers_are_read_off_the_source(typ):
    # A marked source chamber shows through: the dual copies it.
    d = fresh(build(typ))
    d.__dict__["chamber"] = marked = ((0, 1), (1,))
    assert rootdatum.dualize(d).chamber == marked


@pytest.mark.parametrize("typ", ["A2:sc", "A1xT1:sc", "A3:adj", "D4:sc", "E6:sc"])
def test_verify_all_finds_one_positive_system(typ):
    d = fresh(build(typ))
    with mock.patch.object(rootdatum, "_positive_system", wraps=rootdatum._positive_system) as spy:
        rep = tduality.verify_all(d, scales=(2,))
        json.dumps(rep.as_dict(timing=False))
    assert rep.overall and spy.call_count == 1


def coroot_smith_factors(d):
    """fundamental_group as it was: the Smith form of every coroot."""
    return [x for x in smith_normal_form([list(c) for c in d.coroots]) if x > 1] if d.coroots else []


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_fundamental_group_of_the_simple_coroots_is_that_of_all(typ):
    d = build(typ)
    assert rootdatum.fundamental_group(d) == coroot_smith_factors(d)
    dual = rootdatum.dualize(d)
    assert rootdatum.fundamental_group(dual) == coroot_smith_factors(dual)


@settings(max_examples=60, deadline=None)
@given(d=small_data(), data=st.data())
def test_fundamental_group_of_the_simple_coroots_survives_a_change_of_basis(d, data):
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    assert rootdatum.fundamental_group(e) == coroot_smith_factors(e) == coroot_smith_factors(d)


def test_canonicalize_is_idempotent():
    c = rootdatum.canonicalize(fresh(build("D4:adj")))
    assert rootdatum.canonicalize(c) == c


@st.composite
def perturbed_data(draw):
    """A rank <= 4 datum with some coroots and roots scaled, duplicated,
    zeroed or negated."""
    d = draw(small_data())
    roots, coroots = list(d.roots), list(d.coroots)
    for _ in range(draw(st.integers(1, 3)) if d.nroots else 0):
        key = draw(st.sampled_from(["roots", "coroots"]))
        vecs = roots if key == "roots" else coroots
        i = draw(st.integers(0, d.nroots - 1))
        move = draw(st.sampled_from(["scale", "duplicate", "zero", "negate"]))
        if move == "scale":
            k = draw(st.sampled_from([-3, -2, 2, 3]))
            vecs[i] = tuple(k * x for x in vecs[i])
        elif move == "duplicate":
            vecs[i] = vecs[draw(st.integers(0, d.nroots - 1))]
        elif move == "zero":
            vecs[i] = (0,) * d.rank
        else:
            vecs[i] = tuple(-x for x in vecs[i])
    return rootdatum.RootDatum(rank=d.rank, roots=tuple(roots), coroots=tuple(coroots))


@settings(max_examples=150, deadline=None)
@given(d=perturbed_data())
def test_validate_matches_the_oracle_on_perturbed_data(d):
    assert rootdatum.validate(d) == oracle_validate(d)


@st.composite
def arbitrary_data(draw):
    """Root and coroot lists of rank <= 3 with entries in [-2, 2], closed
    under negation and not otherwise constrained."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    pairs = draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=3))
    pairs += [(tuple(-x for x in r), tuple(-x for x in c)) for r, c in pairs]
    return rootdatum.RootDatum(rank=n, roots=tuple(r for r, _ in pairs), coroots=tuple(c for _, c in pairs))


# Data whose reflection witness a weaker functional (base reach * max + 1
# in place of 2 * reach * max + 1) gets wrong: a reflected vector outside
# the list then collides with a member of it.
COLLIDING_DATA = [
    (((2, 0), (-2, 0), (1, -1), (-2, 0), (2, 0), (-1, 1)), ((0, 0), (0, -1), (0, 0), (0, 0), (0, 1), (0, 0))),
    (((1, -1), (1, 0), (-1, 1), (-1, 0)), ((-1, -1), (1, 1), (1, 1), (-1, -1))),
    (((-2, 0), (-2, 0), (1, -1), (2, 0), (2, 0), (-1, 1)), ((2, 0), (-1, 2), (-1, 1), (-2, 0), (1, -2), (1, -1))),
    (((-1, -1), (2, -1), (1, 1), (-2, 1)), ((0, 0), (0, -1), (0, 0), (0, 1))),
]


@pytest.mark.parametrize("roots,coroots", COLLIDING_DATA)
def test_validate_matches_the_oracle_where_a_weak_functional_collides(roots, coroots):
    d = rootdatum.RootDatum(rank=2, roots=roots, coroots=coroots)
    assert rootdatum.validate(d) == oracle_validate(d)


@settings(max_examples=300, deadline=None)
@given(d=arbitrary_data())
def test_validate_matches_the_oracle_on_arbitrary_data(d):
    assert rootdatum.validate(d) == oracle_validate(d)


def _checks(d):
    return [(c.name, c.passed) for c in tduality.verify_all(d).checks]


@settings(max_examples=25, deadline=None)
@given(d=small_data(), data=st.data())
def test_verdicts_and_invariants_survive_a_change_of_lattice_basis(d, data):
    n = d.rank
    U, V = data.draw(unimodular_pair(n))
    assert [[sum(U[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [int(i == j) for j in range(n)] for i in range(n)]
    e = change_basis(d, U, V)
    assert rootdatum.fundamental_group(e) == rootdatum.fundamental_group(d)
    # The label lists the factors in the order of the simple roots, which
    # follows the lattice coordinates; the factors themselves are invariant.
    assert sorted(rootdatum.classify_label(e).split(" x ")) == sorted(rootdatum.classify_label(d).split(" x "))
    assert _checks(e) == _checks(d)


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_is_ade_matches_the_cartan_matrix_oracle(typ):
    d = build(typ)
    assert rootdatum.is_ade(d) == cartan_is_ade(d) == (not any(f in typ for f in "BCFG"))


@settings(max_examples=60, deadline=None)
@given(d=small_data(), data=st.data())
def test_is_ade_matches_the_cartan_matrix_oracle_after_a_change_of_lattice_basis(d, data):
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    assert rootdatum.is_ade(e) == cartan_is_ade(e) == cartan_is_ade(d)


def carried_axioms(d):
    """The axiom report dualize(d) holds before anything reads it, or None."""
    return vars(rootdatum.dualize(d)).get("axioms")


@settings(max_examples=80, deadline=None)
@given(d=small_data(), data=st.data())
def test_the_carried_report_is_the_duals_own(d, data):
    d = fresh(change_basis(d, *data.draw(unimodular_pair(d.rank))))
    assert rootdatum.validate(d).ok
    carried = carried_axioms(d)
    assert carried is not None and carried == rootdatum._check_axioms(fresh(rootdatum.dualize(d)))


@settings(max_examples=150, deadline=None)
@given(d=st.one_of(perturbed_data(), arbitrary_data()))
def test_only_an_ok_report_is_carried(d):
    # Never computed: nothing to carry.  Computed: carried exactly when ok,
    # and then it is what the dual's own check finds.
    d = fresh(d)
    assert carried_axioms(d) is None
    rep = rootdatum.validate(d)
    carried = carried_axioms(d)
    if rep.ok:
        assert carried == rootdatum._check_axioms(fresh(rootdatum.dualize(d)))
    else:
        assert carried is None


@pytest.mark.parametrize("typ", ["A2:sc", "B2:sc", "D4:adj"])
def test_a_failing_report_is_not_carried(typ):
    d = build(typ)
    broken = rootdatum.RootDatum(rank=d.rank, roots=d.roots, coroots=tuple(tuple(3 * x for x in c) for c in d.coroots))
    assert not rootdatum.validate(broken).ok
    assert carried_axioms(broken) is None


def ade_symmetry_scan(d):
    """ade_symmetry_witness as it was: the ordered scan of every root pair."""
    P = d.pairing
    for i in range(d.nroots):
        for j in range(d.nroots):
            if P[j][i] != P[i][j]:
                return (i, j)
    return None


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_ade_symmetry_witness_matches_the_ordered_scan(typ):
    d = build(typ)
    for x in (d, rootdatum.dualize(d), rootdatum.canonicalize(d)):
        assert rootdatum.ade_symmetry_witness(x) == ade_symmetry_scan(x)
    assert (ade_symmetry_scan(d) is None) == (not any(f in typ for f in "BCFG"))
    rec = tduality.check_ade_symmetry(d)
    assert rec.passed == (ade_symmetry_scan(d) is None)
    if not rec.passed:
        assert rec.witness["roots"] == list(ade_symmetry_scan(d))


@settings(max_examples=60, deadline=None)
@given(d=st.one_of(small_data(), perturbed_data(), arbitrary_data()), data=st.data())
def test_ade_symmetry_witness_matches_the_ordered_scan_after_a_change_of_basis(d, data):
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    assert rootdatum.ade_symmetry_witness(e) == ade_symmetry_scan(e) == ade_symmetry_scan(d)
