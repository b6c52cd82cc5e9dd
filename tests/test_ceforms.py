from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import ceforms, tduality
from liedual.ceforms import (
    AbelianAlgebra,
    InvariantForm,
    ce_differential,
    cartan_three_form,
    torus_fm_transform,
    wedge,
)
from liedual.chevalley import build_lie_algebra
from oracles import (
    assert_stored_form,
    coroot_vector,
    embed_left,
    embed_right,
    evaluate,
    extended_root_form,
    gathered_ce_differential,
    is_closed,
    is_invariant,
    killing_form,
    pairing_form,
    pullback_first,
    pullback_second,
    root_vector,
    sorted_sign,
    subtract,
    value_on_indices,
)
from test_flux_basis import doubled_F


def _sl2():
    d = build("A1:sc")
    L = build_lie_algebra(d)
    ri = L.simple_indices[0]
    neg = d.roots.index(tuple(-x for x in d.roots[ri]))
    return d, L, ri, neg


def test_wedge_of_a_one_form_with_itself_vanishes():
    _, L, ri, _ = _sl2()
    a = extended_root_form(L, ri)
    assert wedge(a, a).is_zero()


def test_wedge_on_a_torus():
    T = AbelianAlgebra(2)
    dx = InvariantForm(T, 1, {(0,): Fraction(1)})
    dy = InvariantForm(T, 1, {(1,): Fraction(1)})
    w = wedge(dx, dy)
    assert_stored_form(w)
    assert value_on_indices(w, (0, 1)) == 1
    assert value_on_indices(w, (1, 0)) == -1


def test_wedge_of_root_with_dual_root_in_product_context():
    pair = tduality.build_pair(build("A1:sc"))
    ri = pair.L.simple_indices[0]
    a = pullback_first(pair, extended_root_form(pair.L, ri))
    av = pullback_second(pair, extended_root_form(pair.Ldual, ri))
    w = wedge(a, av)
    assert_stored_form(w)
    h = embed_left(pair, coroot_vector(pair.L, ri))
    hv = embed_right(pair, coroot_vector(pair.Ldual, ri))
    assert evaluate(w, h, hv) == 4


def test_differential_on_abelian_algebra_is_zero():
    T = AbelianAlgebra(3)
    w = InvariantForm(T, 2, {(0, 1): Fraction(5), (1, 2): Fraction(-1)})
    assert ce_differential(w).is_zero()


def test_differential_of_extended_root_in_sl2():
    _, L, ri, neg = _sl2()
    da = ce_differential(extended_root_form(L, ri))
    xi, yi = L.index[("x", ri)], L.index[("x", neg)]
    assert value_on_indices(da, (xi, yi)) == -2


@pytest.mark.parametrize("typ", ["A2:sc", "D4:sc", "A1xT1:sc"])
def test_d_squared_is_zero_on_one_form_basis(typ):
    L = build_lie_algebra(build(typ))
    for b in range(L.dim):
        e = InvariantForm(L, 1, {(b,): Fraction(1)})
        assert ce_differential(ce_differential(e)).is_zero()


def test_leibniz_rule_sample():
    L = build_lie_algebra(build("A2:sc"))
    a = extended_root_form(L, L.simple_indices[0])
    b = extended_root_form(L, L.simple_indices[1])
    for w in (wedge(a, b), wedge(ce_differential(a), b), wedge(a, ce_differential(b))):
        assert_stored_form(w)
    lhs = ce_differential(wedge(a, b))
    rhs = subtract(wedge(ce_differential(a), b), wedge(a, ce_differential(b)))
    assert lhs == rhs


def test_cartan_three_form_values_in_sl2():
    _, L, ri, neg = _sl2()
    H = cartan_three_form(L)
    hi, xi, yi = L.index[("h", 0)], L.index[("x", ri)], L.index[("x", neg)]
    assert value_on_indices(H, (hi, xi, yi)) == 8


def test_cartan_three_form_kills_the_radical():
    L = build_lie_algebra(build("A1xT1:sc"))
    H = cartan_three_form(L)
    zi = L.index[("z", 0)]
    assert all(zi not in key for key in H.terms)


def test_cartan_three_form_of_a_torus_is_zero():
    L = build_lie_algebra(build("T2"))
    assert cartan_three_form(L).is_zero()


@pytest.mark.parametrize("typ", ["A2:sc", "D4:sc", "B2:sc", "G2"])
def test_cartan_three_form_closed_and_invariant(typ):
    H = cartan_three_form(build_lie_algebra(build(typ)))
    assert is_closed(H)
    assert is_invariant(H)


def test_a_non_closed_form_is_detected():
    _, L, ri, _ = _sl2()
    # The dual of a root vector: d picks up -2 on (h, X).
    w = InvariantForm(L, 1, {(L.index[("x", ri)],): Fraction(1)})
    assert not is_closed(w)
    # And a non-closed 2-form one rank up.
    L2 = build_lie_algebra(build("A2:sc"))
    xi = L2.index[("x", L2.simple_indices[0])]
    w2 = InvariantForm(L2, 2, {tuple(sorted((L2.index[("h", 0)], xi))): Fraction(1)})
    assert not is_closed(w2)
    assert_stored_form(ce_differential(w2))


def test_top_degree_forms_are_closed():
    L = build_lie_algebra(build("A1:sc"))
    w = InvariantForm(L, 3, {(0, 1, 2): Fraction(7)})
    assert is_closed(w)


def test_extended_root_form_values():
    d, L, ri, _ = _sl2()
    a = extended_root_form(L, ri)
    assert evaluate(a, coroot_vector(L, ri)) == 2
    for rj in range(d.nroots):
        assert evaluate(a, root_vector(L, rj)) == 0


@pytest.mark.parametrize("typ", ["A2:sc", "A1xT1:sc"])
def test_extended_root_form_matches_killing_formula(typ):
    d = build(typ)
    L = build_lie_algebra(d)
    for ri in range(d.nroots):
        a = extended_root_form(L, ri)
        h = coroot_vector(L, ri)
        khh = killing_form(L, h, h)
        for b in range(L.dim):
            e = [Fraction(int(i == b)) for i in range(L.dim)]
            assert evaluate(a, e) == 2 * killing_form(L, e, h) / khh


def test_torus_transform_first_order():
    T = AbelianAlgebra(1)
    one = InvariantForm(T, 0, {(): Fraction(1)})
    out = torus_fm_transform(one, [[Fraction(3)]])
    assert_stored_form(out)
    assert out.degree == 1 and out.terms == {(0,): Fraction(3)}


def test_torus_transform_degree_count():
    T = AbelianAlgebra(2)
    vol = InvariantForm(T, 2, {(0, 1): Fraction(1)})
    I = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert torus_fm_transform(vol, I).degree == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_transform_degree_reversal_and_involutivity(n):
    T = AbelianAlgebra(n)
    I = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n + 1):
        signs = set()
        for key in combinations(range(n), k):
            w = InvariantForm(T, k, {key: Fraction(1)})
            t1 = torus_fm_transform(w, I)
            assert t1.degree == n - k
            t2 = torus_fm_transform(t1, I)
            assert_stored_form(t1)
            assert_stored_form(t2)
            assert t2.degree == k
            assert t2.terms in ({key: Fraction(1)}, {key: Fraction(-1)})
            signs.add(t2.terms[key])
        assert len(signs) == 1  # one scalar per graded piece


def test_torus_transform_rejects_bad_input():
    with pytest.raises(ValueError):
        torus_fm_transform(
            InvariantForm(AbelianAlgebra(2), 0, {(): Fraction(1)}),
            [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
        )
    L = build_lie_algebra(build("A1:sc"))
    with pytest.raises(ValueError):
        torus_fm_transform(InvariantForm(L, 0, {(): Fraction(1)}), [[1]])


# ---------------------------------------------------------------------------
# The indexed differential and the branched sort against their old forms


def test_sort_sign_matches_the_insertion_sort_on_short_tuples():
    for n in range(5):
        for idx in product(range(4), repeat=n):
            assert ceforms.sort_sign(idx) == sorted_sign(idx), idx
            assert ceforms.sort_sign(list(idx)) == sorted_sign(idx), idx


@pytest.mark.parametrize("typ", ["A1:sc", "A2xT1:sc", "A3:adj", "D4:sc"])
def test_indexed_differential_matches_the_gathering_one_on_f_and_h(typ):
    pair = tduality.build_pair(build(typ))
    H = cartan_three_form(pair.L)
    for w in (pairing_form(pair), pairing_form(doubled_F(pair)), H, extended_root_form(pair.L, pair.L.simple_indices[0])):
        assert ce_differential(w) == gathered_ce_differential(w)
        assert_stored_form(ce_differential(w))


@settings(max_examples=80, deadline=None)
@given(typ=st.sampled_from(["A2:sc", "A1xT1:sc", "B2:sc"]), degree=st.integers(0, 3), data=st.data())
def test_indexed_differential_matches_the_gathering_one_on_random_forms(typ, degree, data):
    L = _algebra(typ)
    keys = st.sets(st.integers(0, L.dim - 1), min_size=degree, max_size=degree).map(lambda s: tuple(sorted(s)))
    terms = data.draw(st.dictionaries(keys, st.integers(-3, 3), max_size=6))
    w = InvariantForm(L, degree, terms)
    assert ce_differential(w) == gathered_ce_differential(w)
    assert_stored_form(ce_differential(w))


@lru_cache(maxsize=None)
def _algebra(typ):
    return build_lie_algebra(build(typ))


# ---------------------------------------------------------------------------
# The key contract, which InvariantForm leaves to its builders


@pytest.mark.parametrize("terms,fault", [
    ({(2, 0, 1): 1}, "not strictly increasing"),
    ({(0, 0, 1): 1}, "not strictly increasing"),
    ({(0, 1): 1}, "not a 3-tuple"),
    ({(0, 1, 3): 1}, r"leaves \[0, 3\)"),
    ({(0, 1, 2): 0}, "holds a zero"),
])
def test_the_stored_form_check_fails_on_a_seeded_key_or_zero(terms, fault):
    w = InvariantForm(AbelianAlgebra(3), 3, {(0, 1, 2): 1})
    assert_stored_form(w)
    # Seeded past the constructor, which would drop the zero.
    w.terms.update(terms)
    with pytest.raises(AssertionError, match=fault):
        assert_stored_form(w)
