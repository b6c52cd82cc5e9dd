"""The sparse Jacobi certificate and the sparse Cartan 3-form against the
loops they replaced, kept here as oracles: all must agree on passing types
and on seeded defects.  Also checks that the Chevalley core stores plain
ints, that a non-integral value is refused rather than truncated, and that
the batched simple-coordinate solve matches one solve per vector."""

import copy
import re
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import ceforms, chevalley, exactlin, rootdatum, tduality
from liedual.chevalley import build_lie_algebra
from test_rootdatum import RANK8_TYPES

ORACLE_TYPES = ["A2:sc", "D4:sc", "A3:adj", "B3:sc", "G2:sc", "A1xT1:sc"]


def dense_jacobi_witness(L):
    """First basis triple violating Jacobi, over every triple."""
    for i, j, k in combinations(range(L.dim), 3):
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in L.bracket_basis(a, b).items():
                for n, cn in L.bracket_basis(m, c).items():
                    acc[n] = acc.get(n, Fraction(0)) + cm * cn
        if any(v for v in acc.values()):
            return (i, j, k)
    return None


def streaming_jacobi_witness(L):
    """First basis triple violating Jacobi, over every triple, skipping those
    whose three brackets are all absent from the table."""
    T = L.table
    for i, j, k in combinations(range(L.dim), 3):
        if (i, j) not in T and (j, k) not in T and (i, k) not in T:
            continue
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in L.bracket_basis(a, b).items():
                for n, cn in L.bracket_basis(m, c).items():
                    acc[n] = acc.get(n, 0) + cm * cn
        if any(v for v in acc.values()):
            return (i, j, k)
    return None


def dense_cartan_three_form(L):
    """H(x,y,z) = K(x,[y,z]) with a range(dim) sum for every bracket."""
    K = L.killing_matrix()
    terms = {}
    for j, k, outs in L.brackets():
        vals = {}
        for i in range(L.dim):
            v = sum((c * K[i][m] for m, c in outs.items()), Fraction(0))
            if v:
                vals[i] = v
        for i, v in vals.items():
            if i == j or i == k:
                continue
            key, sign = ceforms.sort_sign((i, j, k))
            stored = sign * v
            prev = terms.get(key)
            if prev is None:
                terms[key] = stored
            elif prev != stored:
                raise ValueError(f"K(x,[y,z]) is not totally antisymmetric at {key}")
    return terms


@pytest.mark.parametrize("typ", ORACLE_TYPES)
def test_sparse_loops_match_the_dense_oracles(typ):
    L = build_lie_algebra(build(typ))
    assert chevalley.jacobi_witness(L) is None
    assert streaming_jacobi_witness(L) is None
    assert dense_jacobi_witness(L) is None
    assert ceforms.cartan_three_form(L).terms == dense_cartan_three_form(L)


@pytest.mark.parametrize("typ", ["D5:sc", "E6:sc"])
def test_jacobi_sweep_matches_the_streaming_oracle(typ):
    L = build_lie_algebra(build(typ))
    assert chevalley.jacobi_witness(L) is None
    assert streaming_jacobi_witness(L) is None


BRACKET_SHAPES = {"weight": ("h", "x", "x"), "coroot": ("x", "x", "h"), "N": ("x", "x", "x")}


def _first_entry(L, kind):
    """The first table key (i, j) whose bracket has the given shape:
    [h, x_a] = a(h) x_a, [x_a, x_-a] = h_a, or [x_a, x_b] = N x_(a+b)."""
    for (i, j), out in sorted(L.table.items()):
        k = next(iter(out))
        if (L.labels[i][0], L.labels[j][0], L.labels[k][0]) == BRACKET_SHAPES[kind]:
            return i, j
    raise LookupError(kind)


# Rank >= 2: in sl(2), flipping [x, y] = h is the rescaling y -> -y.
@pytest.mark.parametrize("typ", ["A2:sc", "A3:adj", "B3:sc", "G2:sc"])
@pytest.mark.parametrize("kind", ["weight", "coroot", "N"])
def test_a_flipped_structure_constant_gives_the_same_witness(typ, kind):
    L = build_lie_algebra(build(typ))
    key = _first_entry(L, kind)
    L.table = dict(L.table)
    L.table[key] = {k: -c for k, c in L.table[key].items()}
    table = copy.deepcopy(L.table)
    witness = chevalley.jacobi_witness(L)
    assert L.table == table
    assert witness is not None
    assert witness == streaming_jacobi_witness(L) == dense_jacobi_witness(L)


@pytest.fixture(scope="module")
def perturbation_bases():
    return {typ: build_lie_algebra(build(typ)) for typ in ["A2:sc", "A3:adj", "B3:sc", "G2:sc"]}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_perturbed_table_entry_gives_the_same_witness_from_all_sweeps(perturbation_bases, data):
    base = perturbation_bases[data.draw(st.sampled_from(sorted(perturbation_bases)))]
    key = data.draw(st.sampled_from(sorted(base.table)))
    k = data.draw(st.sampled_from(sorted(base.table[key])))
    change = data.draw(st.sampled_from(["flip", 1, -1]))
    out = dict(base.table[key])
    out[k] = -out[k] if change == "flip" else out[k] + change
    L = copy.copy(base)
    L.table = {**base.table, key: out}
    witness = chevalley.jacobi_witness(L)
    assert witness is not None
    assert witness == streaming_jacobi_witness(L) == dense_jacobi_witness(L)


@pytest.mark.parametrize("typ", ["A2:sc", "D4:sc", "A1xT1:sc"])
@pytest.mark.parametrize("entry", ["cartan-diagonal", "root-one-sided"])
def test_a_corrupted_killing_entry_fails_antisymmetry_in_both(typ, entry):
    L = build_lie_algebra(build(typ))
    K = copy.deepcopy(L.killing_matrix())
    a = L.simple_indices[0]
    if entry == "cartan-diagonal":
        h = L.index[("h", 0)]
        K[h][h] += 1
    else:
        neg = L.datum.roots.index(tuple(-x for x in L.datum.roots[a]))
        K[L.index[("x", neg)]][L.index[("x", a)]] += 1
    L._killing = K
    with pytest.raises(ValueError, match="antisymmetric"):
        ceforms.cartan_three_form(L)
    with pytest.raises(ValueError, match="antisymmetric"):
        dense_cartan_three_form(L)


@pytest.mark.parametrize("typ", ["D4:sc", "A1xT1:sc"])
def test_the_chevalley_core_stores_plain_ints(typ):
    pair = tduality.build_pair(build(typ))
    L = pair.L
    assert all(type(c) is int for out in L.table.values() for c in out.values())
    assert all(type(c) is int for coords in L.coroot_coords.values() for c in coords)
    assert all(type(v) is int for row in L.killing_matrix() for v in row)
    assert all(type(v) is int for v in ceforms.cartan_three_form(L).terms.values())
    assert all(type(v) is int for v in pair.F.terms.values())
    assert all(type(v) is int for v in tduality.flux_residual_form(pair).terms.values())


def test_a_non_integral_structure_constant_is_refused():
    d = build("A2:sc")
    pos, simple = rootdatum.positive_system(d)
    ntab = chevalley._NTable(d, pos, simple)
    a, b = next(iter(ntab.table))
    assert type(ntab.constant(a, b)) is int
    ntab.table[(a, b)] = Fraction(1, 2)
    with pytest.raises(ValueError, match="non-integral"):
        ntab.constant(a, b)


def test_simple_coordinates_are_ints_or_refused():
    d = build("A2:sc")
    _, simple = rootdatum.positive_system(d)
    assert all(type(c) is int for coords in chevalley._simple_coords(d.roots, simple, d.roots) for c in coords)
    # (1, 0) is a weight of A2:sc but not in the root lattice: coordinates 2/3, 1/3.
    with pytest.raises(ValueError, match=re.escape("(1, 0) is not an integral combination")):
        chevalley._simple_coords(d.roots, simple, [d.roots[0], (1, 0), d.roots[1]])
    t = build("A1xT1:sc")
    _, simple = rootdatum.positive_system(t)
    # (1, 0) is non-integral, (0, 1) lies outside the span of the roots.
    for v in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match=re.escape(f"{v} is not an integral combination")):
            chevalley._simple_coords(t.roots, simple, list(t.roots) + [v])
    assert chevalley._simple_coords(t.roots, simple, []) == []


def per_vector_simple_coords(vectors, simple_indices, v):
    """One exact solve per vector, as before the batched elimination."""
    A = [[vectors[s][r] for s in simple_indices] for r in range(len(v))]
    sol = exactlin.solve_exact(A, v)
    if sol is None or any(c.denominator != 1 for c in sol):
        raise ValueError(f"{v} is not an integral combination of the simple vectors")
    return tuple(c.numerator for c in sol)


@pytest.mark.parametrize("typ", [t for t in RANK8_TYPES if "x" not in t and t[0] != "T"])
def test_batched_simple_coordinates_match_one_solve_per_vector(typ):
    d = build(typ)
    _, simple = rootdatum.positive_system(d)
    for vectors in (d.roots, d.coroots):
        expected = [per_vector_simple_coords(vectors, simple, v) for v in vectors]
        assert chevalley._simple_coords(vectors, simple, vectors) == expected


def test_build_lie_algebra_runs_one_elimination_per_coordinate_batch():
    d = build("E6:sc")
    with mock.patch.object(exactlin, "rref", wraps=exactlin.rref) as spy:
        build_lie_algebra(d)
    assert spy.call_count == 2
