from fractions import Fraction

import pytest

from conftest import build
from liedual import chevalley, exactlin, rootdatum
from liedual.chevalley import build_lie_algebra
from oracles import (
    bracket,
    coroot_vector,
    killing_form,
    root_vector,
    sl_n_oracle,
    sln_matching_killing,
    structure_constant_dump,
    verify_coroot_identity,
)
from test_rootdatum import RANK8_TYPES


DIMS = {"A1:sc": 3, "A1:adj": 3, "A2:sc": 8, "B2:sc": 10, "G2": 14,
        "A3:adj": 15, "D4:sc": 28, "A1xT1:sc": 4, "T2": 2}


@pytest.mark.parametrize("typ,dim", sorted(DIMS.items()))
def test_dimension(typ, dim):
    assert build_lie_algebra(build(typ)).dim == dim


@pytest.mark.parametrize("typ", sorted(DIMS))
def test_jacobi_certified(typ):
    # build_lie_algebra raises on a Jacobi failure; re-assert explicitly.
    L = build_lie_algebra(build(typ))
    assert chevalley.jacobi_witness(L) is None


def test_sl2_relations():
    d = build("A1:sc")
    L = build_lie_algebra(d)
    ri = L.simple_indices[0]
    neg = d.roots.index(tuple(-x for x in d.roots[ri]))
    h = coroot_vector(L, ri)
    x = root_vector(L, ri)
    y = root_vector(L, neg)
    assert bracket(L, x, y) == h
    assert bracket(L, h, x) == [2 * v for v in x]
    assert bracket(L, h, y) == [-2 * v for v in y]
    assert killing_form(L, h, h) == 8


def test_a2_killing_value():
    L = build_lie_algebra(build("A2:sc"))
    h1 = [Fraction(0)] * L.dim
    h1[L.index[("h", 0)]] = Fraction(1)
    assert killing_form(L, h1, h1) == 12


def test_killing_form_kills_the_radical():
    L = build_lie_algebra(build("A1xT1:sc"))
    z = [Fraction(0)] * L.dim
    z[L.index[("z", 0)]] = Fraction(1)
    assert L.killing_matrix()[L.index[("z", 0)]] == {}
    assert killing_form(L, z, z) == 0


@pytest.mark.parametrize("typ", ["A2:sc", "B2:sc", "G2", "D4:sc"])
def test_structure_constants_are_pm_p_plus_one(typ):
    d = build(typ)
    L = build_lie_algebra(d)
    by_vec = {d.roots[i]: i for i in range(d.nroots)}
    for (i, j), out in L.table.items():
        li, lj = L.labels[i], L.labels[j]
        if li[0] != "x" or lj[0] != "x":
            continue
        a, b = d.roots[li[1]], d.roots[lj[1]]
        s = tuple(x + y for x, y in zip(a, b))
        if s not in by_vec:
            continue
        (k, n), = out.items()
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while cur in by_vec:
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        assert n.denominator == 1 and abs(n) == p + 1, (typ, a, b)


@pytest.mark.parametrize("typ", sorted(DIMS))
def test_coroot_identity(typ):
    L = build_lie_algebra(build(typ))
    assert verify_coroot_identity(L) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_n_oracle_matches(n):
    oracle = sl_n_oracle(n)
    L = build_lie_algebra(build(f"A{n-1}:sc"))
    assert sln_matching_killing(L, oracle) == oracle.killing_matrix()


def test_sl_n_oracle_is_a_lie_algebra():
    orc = sl_n_oracle(3)
    e = lambda b: [Fraction(int(i == b)) for i in range(orc.dim)]
    # Jacobi spot check in the matrix model.
    for a, b, c in [(0, 2, 5), (1, 3, 6), (2, 4, 7)]:
        lhs = orc.bracket(e(a), orc.bracket(e(b), e(c)))
        m1 = orc.bracket(e(b), orc.bracket(e(c), e(a)))
        m2 = orc.bracket(e(c), orc.bracket(e(a), e(b)))
        assert lhs == [-(u + v) for u, v in zip(m1, m2)]


def test_dual_algebra_shares_the_structure_table_for_ade():
    for typ in ("A2:sc", "D4:sc", "E6:sc"):
        d = build(typ)
        L = build_lie_algebra(d)
        Ld = build_lie_algebra(rootdatum.dualize(d))
        assert L.labels == Ld.labels
        assert L.table == Ld.table


def test_invalid_datum_is_rejected():
    d = build("A1:sc")
    broken = rootdatum.RootDatum(rank=1, roots=d.roots, coroots=((3,), (-3,)))
    with pytest.raises(ValueError):
        build_lie_algebra(broken)


def spin32_z2():
    """D16 on the lattice spanned by the half-spin coweight and the simple
    coroots 2..16, the gauge group Spin(32)/Z2 of the heterotic string."""
    A = rootdatum.family_cartan("D", 16)
    basis = [[int(j == 15) for j in range(16)]] + A[1:]
    return rootdatum.build_from_dynkin(rootdatum.DynkinDescriptor((("D", 16, "sc"),), custom_basis=tuple(map(tuple, basis))))


@pytest.mark.parametrize("typ", RANK8_TYPES + ["T0", "T3", "A3xT2:sc", "Spin(32)/Z2"])
def test_the_radical_is_the_integer_kernel_of_the_roots(typ):
    # A semisimple datum skips the Smith form: rank simple roots leave no
    # radical.  A torus, with no roots, has the whole lattice as radical.
    d = spin32_z2() if typ == "Spin(32)/Z2" else build(typ)
    kernel = exactlin.integer_kernel([list(r) for r in d.roots] or [[0] * d.rank])
    assert build_lie_algebra(d).radical_basis == kernel


def test_structure_constant_dump_schema():
    # The oracle of export-algebra's text; the CLI tests compare the two.
    L = build_lie_algebra(build("A1:sc"))
    dump = structure_constant_dump(L)
    assert set(dump) == {"pairs"}
    for rec in dump["pairs"]:
        assert set(rec) == {"x", "y", "out"}
        for lab, coeff in rec["out"]:
            num, den = coeff.split("/")
            int(num), int(den)
