import contextlib
import dataclasses
import json
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import ceforms, chevalley, exactlin, rootdatum, tduality
from liedual.chevalley import build_lie_algebra
from liedual.tduality import (
    NotADEError,
    build_pair,
    check_angle_positivity,
    check_flux_equation,
    check_integrality,
    check_nondegeneracy,
    flux_residual_form,
    frac_str,
    good_isomorphism,
    lattice_pairing_matrix,
    verify_all,
)
from oracles import (
    algebra_dim,
    basis_owners,
    bracket,
    coroot_vector,
    dense_killing,
    dense_spanning_set,
    densify,
    dualizing_form,
    embed_left,
    embed_right,
    evaluate,
    fiber_pairing_matrix,
    full_space_residual,
    killing_form,
    loop_nondegeneracy,
    name_paired_pairing,
    per_root_tautological_two_form,
    per_unit_lattice_pairing,
    poincare_correction,
    root_vector,
    spanning_set_with_basis,
    tautological_two_form,
    trace_killing_matrix,
)
from test_rootdatum import RANK8_TYPES, ade_symmetry_scan, change_basis, fresh, shuffled, small_data, unimodular_pair

PASSING = ["T1", "T2", "A1:sc", "A1:adj", "A2:sc", "A3:adj", "A1xT1:sc", "D4:sc"]


@pytest.mark.parametrize("typ", PASSING)
def test_verify_all_passes(typ):
    rep = verify_all(build(typ))
    assert rep.overall, [c.as_dict() for c in rep.checks if not c.passed]


@pytest.mark.parametrize("typ", ["B2:sc", "B3:sc", "C3:sc"])
def test_non_ade_fails_fast_with_witness(typ):
    rep = verify_all(build(typ))
    assert not rep.overall
    assert len(rep.checks) == 1
    sym = rep.checks[0]
    assert sym.name == "ade_symmetry" and not sym.passed
    assert "roots" in sym.witness


def test_good_isomorphism_refuses_non_ade():
    d = build("B3:sc")
    with pytest.raises(NotADEError):
        build_pair(d)


def test_good_isomorphism_fixes_coroots_and_generators():
    pair = build_pair(build("A1:sc"))
    phi = good_isomorphism(pair.L, pair.Ldual)
    assert phi == pair.iso
    assert all(a == b for a, b in phi.items())
    # h_alpha = [x_alpha, x_-alpha] goes to the dual coroot through the
    # index-identity map, and both are the coroot solved off the datum.
    ri = pair.L.simple_indices[0]
    neg = pair.datum.roots.index(tuple(-c for c in pair.datum.roots[ri]))
    h, hdual = (bracket(M, root_vector(M, ri), root_vector(M, neg)) for M in (pair.L, pair.Ldual))
    assert h == hdual == coroot_vector(pair.L, ri) == coroot_vector(pair.Ldual, ri)


@pytest.mark.parametrize("typ", ["A2:sc", "A1xT1:sc", "D4:adj"])
def test_each_algebra_computes_its_own_killing_matrix(typ):
    # Each algebra reads K off its own pairing; build_pair shares none.  On
    # ADE data the pairing is symmetric, so the two matrices are equal.
    pair = build_pair(build(typ))
    assert pair.L._killing is None and pair.Ldual._killing is None
    K, Kdual = pair.L.killing_matrix(), pair.Ldual.killing_matrix()
    assert Kdual is not K
    assert dense_killing(pair.L) == trace_killing_matrix(pair.L)
    assert dense_killing(pair.Ldual) == trace_killing_matrix(pair.Ldual)
    assert Kdual == K


def test_phi_commutes_with_dualize():
    # The preferred bijection alpha -> alpha-dual squares to the identity.
    d = build("D4:sc")
    dd = rootdatum.dualize(rootdatum.dualize(d))
    assert d.roots == dd.roots and d.coroots == dd.coroots


def test_tautological_form_a1_value():
    pair = build_pair(build("A1:sc"))
    F = tautological_two_form(pair)
    ri = pair.L.simple_indices[0]
    h = embed_left(pair, coroot_vector(pair.L, ri))
    hv = embed_right(pair, coroot_vector(pair.Ldual, ri))
    assert evaluate(F, h, hv) == 8  # both roots contribute 2*2
    # Two vectors from the same factor pair to zero.
    h2 = embed_left(pair, coroot_vector(pair.L, ri))
    assert evaluate(F, h, h2) == 0


def test_poincare_correction_cases():
    assert poincare_correction(build_pair(build("A2:sc"))).is_zero()
    torus = poincare_correction(build_pair(build("T1")))
    assert len(torus.terms) == 1
    mixed = poincare_correction(build_pair(build("A1xT1:sc")))
    assert len(mixed.terms) == 1


def test_flux_equation_a1_detail():
    pair = build_pair(build("A1:sc"))
    d = pair.datum
    ri = pair.L.simple_indices[0]
    h_a = coroot_vector(pair.L, ri)
    # Untagged q*H on (h, X, Y) equals Sum over roots xi of xi(h) zeta(h) = 8.
    total = sum(
        rootdatum.pair(d.coroots[ri], d.roots[rj]) ** 2 for rj in range(d.nroots)
    ) // 2 * 2
    assert total == 8
    rec = check_flux_equation(pair, flux_residual_form(pair))
    assert rec.passed


@pytest.mark.parametrize("typ", PASSING)
def test_flux_equation_passes(typ):
    pair = build_pair(build(typ))
    assert check_flux_equation(pair, flux_residual_form(pair)).passed


@pytest.mark.parametrize("typ", ["A1:sc", "A2:sc", "A3:adj", "D4:sc"])
def test_full_space_residual_is_nonzero(typ):
    assert full_space_residual(build_pair(build(typ))) != 0


def test_full_space_residual_value_is_minus_killing():
    pair = build_pair(build("A1:sc"))
    assert full_space_residual(pair) == -8


def test_nondegeneracy_and_eigen_relation():
    for typ in ("A1:sc", "A2:sc", "A1xT1:sc", "T2"):
        rec = check_nondegeneracy(build_pair(build(typ)))
        assert rec.passed, (typ, rec.as_dict())


def _record(rec):
    return rec.passed, rec.witness, rec.residual


@pytest.mark.parametrize("typ", PASSING + ["D5:sc", "E6:sc", "A2xT1:sc", "D4:adj x T2"])
def test_nondegeneracy_matches_the_loop_over_every_pairing_entry(typ):
    pair = build_pair(build(typ))
    rec = check_nondegeneracy(pair)
    assert rec.passed
    assert _record(rec) == loop_nondegeneracy(pair)


def kappa_bumped(kappa, ri, bump):
    """kappa with kappa[ri] raised by bump, as a new list: an ADE pair's two
    algebras share the one of their N-table."""
    return [c + bump * (i == ri) for i, c in enumerate(kappa)]


def kappa_defect_record(d, ri, bump):
    """The record of the eigen-relation with K(h_ri, h_ri) raised by bump
    and nothing else moved: coroot ri fails first and alone, and its
    difference is -bump h_ri, whose first nonzero coordinate is the
    residual."""
    return False, f"eigen-relation fails for coroot {ri}", frac_str(-bump * next(filter(None, d.coroots[ri])))


@pytest.mark.parametrize("typ", ["A2:sc", "D4:sc", "A2xT1:sc"])
@pytest.mark.parametrize("defect", ["cartan-killing", "coroot-coords", "coroot-vector"])
def test_a_seeded_eigen_relation_defect_gives_the_loop_witness(typ, defect):
    # The check reads K(h_beta, h_beta) off kappa; the loop reads it off the
    # trace form of the table, which a defect in kappa leaves alone, so the
    # loop passes there and the check gives the loop's record with
    # K(h_beta, h_beta) moved: cartan-killing raises K(h_s, h_s) of the
    # second simple coroot, the Cartan entry of K that kappa[s] gives, by
    # 1; coroot-coords reads the last coroot at doubled coordinates,
    # K(2 h, 2 h) = 4 kappa.
    pair = build_pair(build(typ))
    L, d = pair.L, pair.datum
    if defect == "coroot-vector":
        # One coroot vector moved off the datum the pair was built from: the
        # eigen-relation reads every coroot vector, through T.
        coroots = [list(c) for c in d.coroots]
        coroots[2][0] += 1
        pair = dataclasses.replace(pair, datum=dataclasses.replace(d, coroots=coroots))
        expected = loop_nondegeneracy(pair)
    else:
        ri = L.simple_indices[1] if defect == "cartan-killing" else d.nroots - 1
        bump = 1 if defect == "cartan-killing" else 3 * L.kappa[ri]
        L.kappa = kappa_bumped(L.kappa, ri, bump)
        assert loop_nondegeneracy(pair)[0]
        expected = kappa_defect_record(d, ri, bump)
    rec = check_nondegeneracy(pair)
    assert not rec.passed
    assert rec.witness.startswith("eigen-relation fails for coroot ")
    assert Fraction(rec.residual) != 0 and rec.residual == tduality.frac_str(rec.residual)
    assert _record(rec) == expected


@pytest.mark.parametrize("typ", ["A2:sc", "D4:sc", "A2xT1:sc"])
def test_a_kappa_bump_at_any_root_names_that_coroot(typ):
    pair = build_pair(build(typ))
    L, d = pair.L, pair.datum
    kappa = L.kappa
    for ri in range(d.nroots):
        for bump in (1, -2):
            L.kappa = kappa_bumped(kappa, ri, bump)
            assert _record(check_nondegeneracy(pair)) == kappa_defect_record(d, ri, bump), (ri, bump)
    L.kappa = kappa
    assert check_nondegeneracy(pair).passed


def test_the_eigen_relation_residual_is_the_first_nonzero_coordinate():
    # On A1:sc (rank 1) the coroots are h = +-1 and K(h, h) = kappa = 8:
    # with kappa[0] raised to 9, 2 sum_alpha alpha(h) h_alpha =
    # 2 (2 h + (-2)(-h)) = 8 h and K(h, h) h = 9 h, so the first coroot
    # leaves -h.  The loop reads the trace form, which kappa does not
    # enter, and passes.
    pair = build_pair(build("A1:sc"))
    h = pair.datum.coroots[0]
    assert h in ((1,), (-1,))
    L = pair.L
    assert L.kappa == [8, 8]
    L.kappa = [9, 8]
    rec = check_nondegeneracy(pair)
    assert (rec.passed, rec.witness, rec.residual) == (False, "eigen-relation fails for coroot 0", f"{-h[0]}/1")
    assert loop_nondegeneracy(pair)[0]


def test_eigen_constant_values():
    for typ, c in (("A1:sc", 4), ("A2:sc", 6)):
        pair = build_pair(build(typ))
        L, d = pair.L, pair.datum
        for ri in range(d.nroots):
            h = coroot_vector(L, ri)
            assert killing_form(L, h, h) / 2 == c


def test_pairing_is_singular_without_the_correction():
    pair = build_pair(build("A2xT1:sc"))
    nz = len(pair.L.radical_basis)
    M = [[0 if a < nz and b < nz else v for b, v in enumerate(row)] for a, row in enumerate(pair.fiber_pairing)]
    assert M == fiber_pairing_matrix(pair, tautological_two_form(pair))
    assert exactlin.det_exact(M) == 0
    rec = check_nondegeneracy(dataclasses.replace(pair, fiber_pairing=M))
    assert (rec.passed, rec.witness, rec.residual) == (False, "fiber pairing matrix is singular", "0/1")
    assert exactlin.det_exact(pair.fiber_pairing) != 0


@pytest.mark.parametrize("typ", PASSING)
def test_lattice_pairing_is_integral(typ):
    for row in lattice_pairing_matrix(build_pair(build(typ))):
        for v in row:
            assert v.denominator == 1


def test_torus_lattice_pairing_is_the_identity():
    assert lattice_pairing_matrix(build_pair(build("T1"))) == [[1]]


@pytest.mark.parametrize("typ", ["A1xT1:sc", "A3:adj", "E6:sc"])
def test_lattice_pairing_solves_once_per_lattice_basis_vector(typ):
    # All the unit vectors of one lattice come from one integer inverse of
    # the (z, h) basis matrix: build_pair takes exactly one per side, and
    # the lattice pairing reads them off the pair, with no elimination and
    # no Fraction solve of its own.
    with mock.patch.object(tduality, "_cartan_inverse", wraps=tduality._cartan_inverse) as inverses:
        pair = build_pair(build(typ))
    with mock.patch.object(exactlin, "_eliminate", wraps=exactlin._eliminate) as spy, \
            mock.patch.object(exactlin, "solve_exact", wraps=exactlin.solve_exact) as solves:
        lattice_pairing_matrix(pair)
    assert (inverses.call_count, spy.call_count, solves.call_count) == (2, 0, 0)


def any_pair(typ):
    """build_pair without the isomorphism check, so that non-ADE types
    give a pair with F = F0 + F_P too."""
    return any_pair_of(build(typ))


def any_pair_of(d):
    with mock.patch.object(tduality, "good_isomorphism", lambda L, Ld: {}):
        return build_pair(d)


@pytest.mark.parametrize("typ", RANK8_TYPES + ["T0"])
def test_lattice_pairing_matches_one_solve_per_unit_vector(typ):
    pair = any_pair(typ)
    M = lattice_pairing_matrix(pair)
    assert M == per_unit_lattice_pairing(pair)
    assert all(type(v) is Fraction for row in M for v in row)
    # Under F/5, entries become fractional exactly where the oracle's do.
    fifth = dataclasses.replace(pair, fiber_pairing=[[Fraction(v, 5) for v in row] for row in pair.fiber_pairing])
    assert lattice_pairing_matrix(fifth) == per_unit_lattice_pairing(fifth) == [
        [v / 5 for v in row] for row in M]


@pytest.mark.parametrize("typ", RANK8_TYPES + ["T0"])
def test_tautological_form_read_off_the_pairing_matches_the_per_root_sum(typ):
    pair = any_pair(typ)
    F = tautological_two_form(pair)
    assert F == per_root_tautological_two_form(pair)
    assert all(type(v) is int for v in F.terms.values())


# ---------------------------------------------------------------------------
# The fiber pairing and B, built directly, against the two form builders,
# the read-back of F, the spanning set S and basis_owners they replaced


def assert_agrees_with_the_builders(pair):
    assert pair.fiber_pairing == fiber_pairing_matrix(pair, dualizing_form(pair))
    assert all(type(v) is int for row in pair.fiber_pairing for v in row)
    dim, d = algebra_dim(pair), pair.datum
    S, basis = spanning_set_with_basis(pair)
    dense = dense_spanning_set(pair)
    assert densify(S, dim) == dense
    nz = len(pair.L.radical_basis)
    assert len(S) == 3 * d.nroots + 2 * nz           # S repeats no vector
    assert pair.spanning_set == [S[p] for p in basis]
    assert densify(pair.spanning_set, dim) == [dense[p] for p in basis]
    assert {i: (basis[p], 1) for i, p in pair.owner.items()} == basis_owners(S, basis, dim)
    # Every member of S is the combination of B that owner reads off it.
    for name, vec in dense:
        coeffs = {}
        for i, c in enumerate(vec):
            if c:
                coeffs[pair.owner[i]] = c
        combo = [0] * dim
        for p, k in coeffs.items():
            for i, c in pair.spanning_set[p][1].items():
                combo[i] += k * c
        assert combo == vec, name


AGREEMENT_TYPES = [t for t in RANK8_TYPES if rootdatum.is_ade(build(t))] + ["T0", "T3", "A3xT2:sc"]


@pytest.mark.parametrize("typ", AGREEMENT_TYPES)
def test_pairing_and_basis_agree_with_the_builders(typ):
    d = build(typ)
    assert_agrees_with_the_builders(build_pair(d))
    assert_agrees_with_the_builders(build_pair(rootdatum.dualize(d)))


@settings(max_examples=40, deadline=None)
@given(d=small_data(), dual=st.booleans(), data=st.data())
def test_pairing_and_basis_agree_with_the_builders_under_basis_changes(d, dual, data):
    # Any datum, ADE or not, with the isomorphism check skipped.
    d = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    assert_agrees_with_the_builders(any_pair_of(rootdatum.dualize(d) if dual else d))


# ---------------------------------------------------------------------------
# One N-table for an ADE pair, against a fresh build of the dual


def assert_matches_a_fresh_build(L, d):
    """L equals the algebra built on a copy of d with nothing cached."""
    oracle = build_lie_algebra(fresh(d))
    assert L.labels == oracle.labels
    assert L.table == oracle.table
    assert L.radical_basis == oracle.radical_basis


def assert_dual_matches_a_fresh_build(d, pair_of):
    """pair_of(d) gives the pair; its dual algebra is built on the source's
    N-table exactly when d is ADE (P symmetric), and either way equals a
    build of the dual on a copy of it with nothing cached."""
    with mock.patch.object(chevalley, "_NTable", wraps=chevalley._NTable) as tables:
        pair = pair_of(d)
    assert tables.call_count == (1 if rootdatum.is_ade(d) else 2)
    assert_matches_a_fresh_build(pair.Ldual, pair.dual_datum)


@pytest.mark.parametrize("typ", [t for t in RANK8_TYPES if rootdatum.is_ade(build(t))])
def test_the_dual_built_on_the_shared_n_table_equals_a_fresh_build(typ):
    assert_dual_matches_a_fresh_build(build(typ), build_pair)


@pytest.mark.parametrize("typ", ["B2:sc", "B2:adj", "G2"])
def test_a_non_ade_pair_builds_two_n_tables(typ):
    assert_dual_matches_a_fresh_build(build(typ), any_pair_of)


@pytest.mark.parametrize("typ", [t for t in RANK8_TYPES if rootdatum.is_ade(build(t))] + ["D16:sc"])
def test_an_ade_dual_shares_the_source_pairing(typ):
    # A symmetric P is its own transpose: the dual holds the source's P
    # object, not a copy, and the share guard meets the same rows.
    pair = build_pair(build(typ))
    assert pair.dual_datum.pairing is pair.datum.pairing
    assert pair.dual_datum.asymmetry is pair.datum.asymmetry is None


@pytest.mark.parametrize("typ", ["A2:sc", "D4:sc", "A1xT1:sc"])
def test_an_ade_verify_shares_the_source_pairing(typ):
    rep = verify_all(build(typ))
    assert rep.overall and rep.dual.pairing is rep.datum.pairing


@pytest.mark.parametrize("typ", ["B2:sc", "B2:adj", "G2"])
def test_a_non_ade_dual_transposes_the_source_pairing(typ):
    d = build(typ)
    pair = any_pair_of(d)
    P, dual = d.pairing, pair.dual_datum
    assert dual.pairing == tuple(zip(*P)) == rootdatum.dualize(d).pairing
    assert dual.pairing is not P
    # The witness carries over, uncomputed: P[j][i] != P[i][j] reads the
    # same on P^T.
    assert dual.__dict__["asymmetry"] == d.asymmetry == ade_symmetry_scan(fresh(dual)) is not None
    assert rootdatum.dualize(dual).pairing == P


@pytest.mark.parametrize("typ", ["B2:sc", "A2:sc"])
def test_good_isomorphism_makes_one_symmetry_query(typ):
    pair = any_pair(typ)
    with mock.patch.object(rootdatum, "ade_symmetry_witness", wraps=rootdatum.ade_symmetry_witness) as witness, \
            mock.patch.object(rootdatum, "is_ade", wraps=rootdatum.is_ade) as ade:
        with contextlib.suppress(NotADEError):
            good_isomorphism(pair.L, pair.Ldual)
    assert witness.call_count + ade.call_count == 1


@settings(max_examples=40, deadline=None)
@given(d=small_data(), data=st.data())
def test_the_dual_built_on_the_shared_n_table_equals_a_fresh_build_under_basis_changes(d, data):
    # ADE or not: only an ADE datum, whose dual has the same P, shares.
    d = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    assert_dual_matches_a_fresh_build(d, any_pair_of)


@settings(max_examples=40, deadline=None)
@given(d=small_data(), data=st.data())
def test_an_n_table_is_read_only_on_its_pairing_and_chamber(d, data):
    # A change of basis keeps P but may move the chamber; the dual of a
    # non-ADE datum keeps the chamber but transposes P.  A table is read
    # only where both agree, and the build equals a fresh one either way.
    moved = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    for other in (moved, rootdatum.dualize(d)):
        tables = []
        build_lie_algebra(d, tables=tables)
        L = build_lie_algebra(other, tables=tables)
        shared = (other.rank, other.chamber, other.pairing) == (d.rank, d.chamber, d.pairing)
        assert len(tables) == (1 if shared else 2)
        assert_matches_a_fresh_build(L, other)


@pytest.mark.parametrize("typ,other", [("A1:sc", "A1xT1:sc"), ("D4:sc", "D4xT2:sc")])
def test_an_n_table_is_not_read_at_another_rank(typ, other):
    # One P and one chamber, but the radical, rank - |simple| long, moves
    # every root vector's basis index: the second build makes its own table.
    d, e = build(typ), build(other)
    assert (e.chamber, e.pairing) == (d.chamber, d.pairing) and e.rank != d.rank
    tables = []
    build_lie_algebra(d, tables=tables)
    L = build_lie_algebra(e, tables=tables)
    assert len(tables) == 2
    assert_matches_a_fresh_build(L, e)


@settings(max_examples=40, deadline=None)
@given(d=small_data(), dual=st.booleans(), data=st.data())
def test_the_eigen_relation_agrees_with_the_loop_under_basis_changes(d, dual, data):
    # T = sum alpha^vee (x) alpha is formed in lattice coordinates, which a
    # change of basis moves together with the coroots.  With one coroot
    # vector moved off the pair, the check is handed the fiber pairing that
    # the loop rebuilds from the moved datum, so both read one determinant.
    d = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    pair = any_pair_of(rootdatum.dualize(d) if dual else d)
    assert _record(check_nondegeneracy(pair)) == loop_nondegeneracy(pair)
    if pair.datum.nroots:
        coroots = [list(c) for c in pair.datum.coroots]
        ri, t = data.draw(st.integers(0, d.nroots - 1)), data.draw(st.integers(0, d.rank - 1))
        coroots[ri][t] += data.draw(st.sampled_from([1, -1]))
        moved = dataclasses.replace(pair, datum=dataclasses.replace(pair.datum, coroots=coroots))
        moved.fiber_pairing = fiber_pairing_matrix(moved, dualizing_form(moved))
        assert _record(check_nondegeneracy(moved)) == loop_nondegeneracy(moved)


def gl(*ns):
    """GL_n1 x GL_n2 x ... as data: roots = coroots = e_i - e_j in Z^(n1 + n2 + ...),
    i and j in one block."""
    rank, roots, off = sum(ns), [], 0
    for n in ns:
        roots += [[int(k == off + i) - int(k == off + j) for k in range(rank)]
                  for i in range(n) for j in range(n) if i != j]
        off += n
    return rootdatum.RootDatum(rank=rank, roots=roots, coroots=roots)


def spin8_gm_mod_mu2(k):
    """(Spin(8) x G_m)/mu_2 for the end node k of D4: D4:sc with <varpi_k,
    alpha>, the coefficient of the simple root k in alpha, as a fifth root
    coordinate, and coroots (c, 0)."""
    d = build("D4:sc")
    A = rootdatum.family_cartan("D", 4)
    pairs = rootdatum.generate_root_pairs(A)
    # build_from_dynkin lists the roots in closure order, at y = A c.
    assert all(list(r) == [sum(map(mul, row, c)) for row in A] for r, (c, *_) in zip(d.roots, pairs))
    return rootdatum.RootDatum(rank=5, roots=[r + (c[k],) for r, (c, *_) in zip(d.roots, pairs)],
                               coroots=[x + (0,) for x in d.coroots])


# Non-split reductive data: the radical is not a direct summand of the
# lattice next to the coroot span.  name -> (datum, type, radical block of
# the fiber pairing).
NON_SPLIT = {
    "GL2": (gl(2), "A1 x T1", [[4]]),
    "GL3": (gl(3), "A2 x T1", [[9]]),
    "GL4": (gl(4), "A3 x T1", [[16]]),
    "GL5": (gl(5), "A4 x T1", [[25]]),
    "GL2xGL3": (gl(2, 3), "A1 x A2 x T2", [[12, 0], [0, 18]]),
    **{f"(Spin8xGm)/mu2[{k}]": (spin8_gm_mod_mu2(k), "D4 x T1", [[-4]]) for k in (0, 2, 3)},
}


@pytest.mark.parametrize("name", NON_SPLIT)
@pytest.mark.parametrize("dual", [False, True])
def test_non_split_data_pass_verify_all_with_the_lattice_radical_block(name, dual):
    d, typ, block = NON_SPLIT[name]
    d = rootdatum.dualize(d) if dual else d
    rep = verify_all(d)
    assert rep.overall, [c.as_dict(timing=False) for c in rep.checks if not c.passed]
    assert rootdatum.classify_label(d) == typ
    pair = build_pair(d)
    nz = len(pair.L.radical_basis)
    assert [row[:nz] for row in pair.fiber_pairing[:nz]] == block
    assert pair.fiber_pairing == fiber_pairing_matrix(pair, dualizing_form(pair))


@pytest.mark.parametrize("typ", ["T1", "T3", "A1xT1:sc", "A2xT1:sc", "A3xT2:sc", "G2xT1", "D4:adj x T2"])
def test_descriptor_data_are_split_and_keep_the_identity_radical_block(typ):
    # e = 1 and the two radical bases are dual on every descriptor, so the
    # lattice block is the name-paired one there, and no report changes.
    d = build(typ)
    for x in (d, rootdatum.dualize(d)):
        pair = any_pair_of(x)
        assert pair.fiber_pairing == name_paired_pairing(pair.L, pair.Ldual)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gl_n_passes_verify_all(n):
    rep = verify_all(gl(n))
    assert rep.overall, [c.as_dict(timing=False) for c in rep.checks if not c.passed]


@pytest.mark.parametrize("n,residual", [(2, "9/4"), (3, "37/9"), (4, "97/16")])
def test_gl_n_fails_only_integrality_at_the_radical_corner(n, residual):
    # Negative control: the name-paired radical block pairs z_k with
    # zdual_k by name; e_1 has z-coordinate 1/n, so the corner of M is off
    # by a fraction.
    with mock.patch.object(tduality, "dualizing_pairing", name_paired_pairing):
        rep = verify_all(gl(n))
    assert rootdatum.classify_label(gl(n)) == f"A{n - 1} x T1"
    failed = [(c.name, c.witness, c.residual) for c in rep.checks if not c.passed]
    assert failed == [("integrality", "lattice pairing (0,0)", residual)]


@pytest.mark.parametrize("k,residual", [(0, "25/2"), (2, "25/4"), (3, "25/4")])
def test_the_name_paired_block_fails_integrality_on_spin8_gm_mod_mu2(k, residual):
    # Negative control on the three mu_2 data and their duals: the first
    # fractional entry of M is in the radical row (column) of the lattice
    # pairing.
    d = spin8_gm_mod_mu2(k)
    with mock.patch.object(tduality, "dualizing_pairing", name_paired_pairing):
        for x, witness in ((d, "lattice pairing (4,0)"), (rootdatum.dualize(d), "lattice pairing (0,4)")):
            failed = [(c.name, c.witness, c.residual) for c in verify_all(x).checks if not c.passed]
            assert failed == [("integrality", witness, residual)]


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(NON_SPLIT)), dual=st.booleans(), data=st.data())
def test_non_split_verdicts_survive_a_change_of_lattice_basis(name, dual, data):
    d = NON_SPLIT[name][0]
    d = rootdatum.dualize(d) if dual else d
    e = change_basis(d, *data.draw(unimodular_pair(d.rank)))
    rep = verify_all(e)
    assert rep.overall, [c.as_dict(timing=False) for c in rep.checks if not c.passed]
    assert rootdatum.fundamental_group(e) == rootdatum.fundamental_group(d)
    # The radical block is e times the Gram matrix of the two radical
    # bases; a change of basis changes those bases by unimodular maps, so
    # the block's determinant keeps its absolute value.
    blocks = []
    for x in (d, e):
        pair = build_pair(x)
        nz = len(pair.L.radical_basis)
        blocks.append(abs(exactlin.det_exact([row[:nz] for row in pair.fiber_pairing[:nz]])))
    assert blocks[0] == blocks[1]


def test_the_rank_zero_lattice_pairing_is_empty():
    pair = build_pair(build("T0"))
    assert lattice_pairing_matrix(pair) == []
    assert check_integrality(lattice_pairing_matrix(pair)).passed
    assert verify_all(build("T0"), scales=(2,)).overall


def test_integrality_names_the_first_fractional_entry():
    rec = check_integrality([[Fraction(1), Fraction(2)], [Fraction(3, 2), Fraction(1, 3)]])
    assert not rec.passed and rec.witness == "lattice pairing (1,0)" and rec.residual == "3/2"
    assert check_integrality([[Fraction(-4)]]).passed


def test_angle_positivity_values():
    d = build("A2:sc")
    vals = {
        rootdatum.pair(d.coroots[j], d.roots[i]) * rootdatum.pair(d.coroots[i], d.roots[j])
        for i in range(d.nroots)
        for j in range(d.nroots)
    }
    assert vals <= {0, 1, 2, 3, 4}
    assert 4 in vals and 1 in vals
    assert check_angle_positivity(build_pair(d)).passed


@pytest.mark.parametrize("typ", ["A1:sc", "A2:sc", "A1xT1:sc"])
def test_scaled_runs_preserve_verdicts(typ):
    rep = verify_all(build(typ), scales=(-2, -1, 2, 3))
    assert rep.overall
    assert rep.scaled_n == [-2, -1, 2, 3]


@pytest.mark.parametrize("scales", [(), (2,), (-2, -1, 2, 3)])
def test_verify_all_builds_each_derived_object_once(scales):
    targets = [
        (tduality, "dualizing_pairing"),
        (tduality, "good_isomorphism"),
        (tduality, "flux_residual_form"),
        (ceforms, "cartan_three_form"),
    ]
    with contextlib.ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(mod, name, wraps=getattr(mod, name)))
            for mod, name in targets
        ]
        assert verify_all(build("A1xT1:sc"), scales=scales).overall
    assert [spy.call_count for spy in spies] == [1, 1, 1, 2]


@pytest.mark.parametrize("typ", ["A1xT1:sc", "E6:sc"])
def test_verify_all_inverts_each_cartan_basis_once(typ):
    # One integer inverse for the N-table, which an ADE datum and its dual
    # share (one pairing, one chamber), and one for each factor's (z, h)
    # basis, which build_pair stores on the pair for the fiber pairing and
    # the lattice pairing to share.
    d = build(typ)
    with mock.patch.object(exactlin, "integer_inverse", wraps=exactlin.integer_inverse) as inverses:
        assert verify_all(d, scales=(2,)).overall
    assert inverses.call_count == 3


def test_scale_zero_is_rejected():
    with pytest.raises(ValueError):
        verify_all(build("A1:sc"), scales=(0,))


@pytest.mark.parametrize("typ,scales", [("E8:sc", (0,)), ("A1xT1:sc", (2, 0, -1)), ("B2:sc", (0,))])
def test_a_zero_scale_is_refused_before_anything_is_validated_or_built(typ, scales):
    # B2 stops at ade_symmetry, and E8 builds two algebras and phi: the
    # scales are read before either.
    d = build(typ)
    with mock.patch.object(rootdatum, "validate", wraps=rootdatum.validate) as validates, \
            mock.patch.object(tduality, "build_lie_algebra", wraps=tduality.build_lie_algebra) as builds:
        with pytest.raises(ValueError, match="^scale must be a nonzero integer$"):
            verify_all(d, scales=scales)
    assert (validates.call_count, builds.call_count) == (0, 0)
    assert "axioms" not in d.__dict__


def test_report_schema_and_determinism():
    rep1 = verify_all(build("A2:sc")).as_dict(timing=False)
    rep2 = verify_all(build("A2:sc")).as_dict(timing=False)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert set(rep1) == {"datum", "dual", "phi", "checks", "overall", "scaled_n"}
    for c in rep1["checks"]:
        assert set(c) == {"name", "pass", "witness", "residual"}


def canonical_report(d):
    return json.dumps(verify_all(d, scales=(2,)).as_dict(timing=False), sort_keys=True)


@settings(max_examples=16, deadline=None)
@given(typ=st.sampled_from(["T2", "A1:sc", "A2xT2:sc", "A1:adjxA1:adj", "A3:adj", "D4:adj", "E6:sc"]),
       data=st.data())
def test_a_passing_report_does_not_depend_on_the_order_of_the_pairs(typ, data):
    d = build(typ)
    e = shuffled(d, data.draw(st.permutations(range(d.nroots))))
    assert canonical_report(e) == canonical_report(d)


@pytest.mark.parametrize("typ", ["B2:sc", "G2:sc"])
def test_the_ade_symmetry_witness_indexes_the_input_order(typ):
    # The report prints the datum in canonical order, but the witness
    # indices name pairs of the datum as it was given: a rotation of the
    # pairs moves the witness and leaves the printed datum as it was.
    d = build(typ)
    reports = []
    for e in (d, shuffled(d, [*range(1, d.nroots), 0])):
        rep = verify_all(e)
        w = rep.checks[0].witness
        i, j = w["roots"]
        assert (w["alpha(h_beta)"], w["beta(h_alpha)"]) == (frac_str(e.pairing[j][i]), frac_str(e.pairing[i][j]))
        assert e.pairing[j][i] != e.pairing[i][j]
        reports.append(rep.as_dict(timing=False))
    assert reports[0]["datum"] == reports[1]["datum"]
    assert reports[0]["checks"][0]["witness"] != reports[1]["checks"][0]["witness"]
    printed = [tuple(r) for r in reports[0]["datum"]["roots"]]
    i, j = reports[0]["checks"][0]["witness"]["roots"]
    assert (printed[i], printed[j]) != (d.roots[i], d.roots[j])


def test_report_names_su2_so3_pair():
    rep = verify_all(build("A1:sc")).as_dict(timing=False)
    assert rep["overall"]
    assert rep["dual"]["type"] == "A1"
    assert rep["dual"]["pi1"] == [2]


def test_invalid_datum_is_rejected():
    d = build("A1:sc")
    broken = rootdatum.RootDatum(rank=1, roots=d.roots, coroots=((3,), (-3,)))
    with pytest.raises(ValueError):
        verify_all(broken)
