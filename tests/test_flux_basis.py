"""The flux check on the basis B of span(S) against the full triple sweep
over S, kept here as the reference implementation: both must agree on the
true residual, on seeded defects and on random perturbations of phi.  The
scaled checks on n*phi and n*M are compared with phi and M rebuilt from
n*F, n*H and n*Hdual, the way each scale was checked before."""

import contextlib
import dataclasses
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from oracles import (
    add_forms,
    algebra_dim,
    assert_stored_form,
    basis_owners,
    composed_phi,
    dense_spanning_set,
    densify,
    dualizing_form,
    evaluate,
    extended_root_form,
    gathered_ce_differential,
    lattice_poincare_correction,
    pairing_form,
    per_root_tautological_two_form,
    poincare_correction,
    pullback_first,
    pullback_second,
    spanning_set_with_basis,
    subtract,
    tautological_two_form,
)
from liedual import ceforms, rootdatum, tduality
from liedual.tduality import (
    build_pair,
    check_flux_equation,
    check_integrality,
    lattice_pairing_matrix,
)
from test_rootdatum import RANK8_TYPES

ORACLE_TYPES = ["T2", "A1xT1:sc", "A1:sc", "A2:sc", "A3:adj", "D4:sc"]
DEFECT_TYPES = [t for t in ORACLE_TYPES if t != "T2"]
SUITE_TYPES = ["T1", "T2", "A1:sc", "A1:adj", "A2:sc", "A2xT1:sc", "A3:adj", "A1xT1:sc", "D4:sc", "D5:sc"]


def sweep_range(phi_terms, vectors):
    """Evaluate the 3-form on all triples (u, v, w) of vectors with
    u < v < w; return the first nonzero triple or None."""
    supports = [{i: c for i, c in enumerate(v) if c} for v in vectors]
    nvec = len(vectors)
    for u in range(nvec):
        su = supports[u]
        # Rows of the contraction iota_u Phi: row[j][k] = (iota_u Phi)(e_j, e_k).
        row = {}

        def put(j, k, x):
            rj = row.setdefault(j, {})
            rj[k] = rj.get(k, Fraction(0)) + x
            rk = row.setdefault(k, {})
            rk[j] = rk.get(j, Fraction(0)) - x

        for (a, b, c), v in phi_terms.items():
            if a in su:
                put(b, c, su[a] * v)
            if b in su:
                put(a, c, -su[b] * v)
            if c in su:
                put(a, b, su[c] * v)
        if not row:
            continue
        for v_i in range(u + 1, nvec):
            one = {}
            for j, cj in supports[v_i].items():
                for k, val in row.get(j, {}).items():
                    one[k] = one.get(k, Fraction(0)) + cj * val
            one = {k: v for k, v in one.items() if v}
            if not one:
                continue
            for w_i in range(v_i + 1, nvec):
                total = Fraction(0)
                for k, ck in supports[w_i].items():
                    t = one.get(k)
                    if t is not None:
                        total += ck * t
                if total:
                    return (u, v_i, w_i, total)
    return None


@lru_cache(maxsize=None)
def pair_and_phi(typ):
    pair = build_pair(build(typ))
    return pair, tduality.flux_residual_form(pair)


def both_checks(pair, phi):
    """(basis check record, oracle hit) for a given residual form."""
    rec = check_flux_equation(pair, phi)
    return rec, sweep_range(phi.terms, [v for _, v in dense_spanning_set(pair)])


@pytest.mark.parametrize("typ", ORACLE_TYPES)
def test_true_phi_passes_both(typ):
    rec, hit = both_checks(*pair_and_phi(typ))
    assert rec.passed and rec.witness is None and hit is None


def doubled_F(pair):
    """The pair with the seeded defect F = 2 F0 + F_P: the F0 block of the
    fiber pairing (simple coroots by dual simple coroots) doubled."""
    nz = len(pair.L.radical_basis)
    M = [[2 * v if a >= nz and b >= nz else v for b, v in enumerate(row)] for a, row in enumerate(pair.fiber_pairing)]
    return dataclasses.replace(pair, fiber_pairing=M)


# The flux witness and residual of the doubled F0, as the form-built F gave
# them; how F is stored must not change them.
DOUBLED_F_RECORDS = {
    "A1xT1:sc": (["x+phix[0]", "h[1]", "x+phix[1]"], "8/1"),
    "A1:sc": (["x+phix[0]", "h[1]", "x+phix[1]"], "8/1"),
    "A2:sc": (["x+phix[0]", "h[1]", "x+phix[5]"], "-6/1"),
    "A3:adj": (["x+phix[0]", "h[2]", "x+phix[11]"], "-8/1"),
    "D4:sc": (["x+phix[0]", "h[7]", "x+phix[23]"], "-12/1"),
}


@pytest.mark.parametrize("typ", DEFECT_TYPES)
def test_doubled_F_is_twice_the_tautological_form_plus_the_correction(typ):
    pair = doubled_F(pair_and_phi(typ)[0])
    F = add_forms(tautological_two_form(pair).scale(2), lattice_poincare_correction(pair))
    assert pairing_form(pair) == F
    rec = check_flux_equation(pair, tduality.flux_residual_form(pair))
    assert (rec.witness, rec.residual) == DOUBLED_F_RECORDS[typ]


@pytest.mark.parametrize("typ", DEFECT_TYPES)
def test_doubled_F_fails_both(typ):
    pair = doubled_F(pair_and_phi(typ)[0])
    phi = tduality.flux_residual_form(pair)
    rec, hit = both_checks(pair, phi)
    assert hit is not None and not rec.passed
    names = [n for n, _ in pair.spanning_set]
    assert len(rec.witness) == 3 and set(rec.witness) <= set(names)
    assert Fraction(rec.residual) != 0 and rec.residual == tduality.frac_str(rec.residual)
    # The witness is phi on the three named members of S, exactly.
    dense = densify(pair.spanning_set, algebra_dim(pair))
    vecs = [dense[names.index(n)][1] for n in rec.witness]
    assert evaluate(phi, *vecs) == Fraction(rec.residual)


def rebuilt_phi(pair, n):
    """phi at scale n rebuilt from n*F, n*H and n*Hdual, with F the 2-form
    of the fiber pairing."""
    dF = ceforms.ce_differential(pairing_form(pair).scale(n))
    H = ceforms.cartan_three_form(pair.L).scale(n)
    Hd = ceforms.cartan_three_form(pair.Ldual).scale(n)
    return add_forms(subtract(dF, pullback_first(pair, H)), pullback_second(pair, Hd))


@pytest.mark.parametrize("n", [2, -1])
@pytest.mark.parametrize("typ", DEFECT_TYPES)
@pytest.mark.parametrize("defect", [False, True])
def test_scaled_phi_matches_the_rebuilt_oracle(typ, n, defect):
    pair = pair_and_phi(typ)[0]
    if defect:
        pair = doubled_F(pair)
    phi = tduality.flux_residual_form(pair)
    oracle = rebuilt_phi(pair, n)
    assert phi.scale(n).terms == oracle.terms
    rec = check_flux_equation(pair, phi.scale(n))
    want = check_flux_equation(pair, oracle)
    assert (rec.passed, rec.witness, rec.residual) == (want.passed, want.witness, want.residual)
    assert rec.passed != defect
    if defect:
        unscaled = check_flux_equation(pair, phi)
        assert rec.witness == unscaled.witness
        assert Fraction(rec.residual) == n * Fraction(unscaled.residual)


@pytest.mark.parametrize("n", [2, -1, 5])
@pytest.mark.parametrize("typ", ["A3:adj", "A1xT1:sc"])
@pytest.mark.parametrize("defect", [False, True])
def test_scaled_lattice_pairing_matches_the_rebuilt_oracle(typ, n, defect):
    pair = pair_and_phi(typ)[0]
    if defect:
        # F/5 has fractional lattice values (5 divides no entry of M), which
        # only a scale divisible by 5 clears.
        pair = dataclasses.replace(pair, fiber_pairing=[[Fraction(v, 5) for v in row] for row in pair.fiber_pairing])
    M = lattice_pairing_matrix(pair)
    scaled = dataclasses.replace(pair, fiber_pairing=[[n * v for v in row] for row in pair.fiber_pairing])
    oracle = lattice_pairing_matrix(scaled)
    assert [[n * v for v in row] for row in M] == oracle
    rec = check_integrality([[n * v for v in row] for row in M])
    want = check_integrality(oracle)
    assert (rec.passed, rec.witness, rec.residual) == (want.passed, want.witness, want.residual)
    assert rec.passed == (not defect or n % 5 == 0)


def bumped(phi, deltas):
    """phi plus delta * e_i^e_j^e_k for each ((i, j, k), delta)."""
    out = ceforms.InvariantForm(phi.algebra, 3, dict(phi.terms))
    for idx, delta in deltas:
        key, sign = ceforms.sort_sign(idx)
        out.terms[key] = out.terms.get(key, Fraction(0)) + sign * delta
    return out


def perturbations(pair, phi):
    """One or two +-1 terms: on existing keys of phi, on any index triple, or
    one index from each of three members of B, where terms of opposite
    permutation sign can cancel on span(S)."""
    supports = {}
    for i, p in sorted(pair.owner.items()):
        supports.setdefault(p, []).append(i)
    on_trio = st.lists(st.sampled_from(sorted(supports)), min_size=3, max_size=3, unique=True).flatmap(
        lambda trio: st.lists(st.tuples(*(st.sampled_from(supports[p]) for p in trio)), min_size=1, max_size=2)
    )
    anywhere = st.lists(
        st.one_of(
            st.sampled_from(sorted(phi.terms)),
            st.sets(st.integers(0, algebra_dim(pair) - 1), min_size=3, max_size=3).map(lambda s: tuple(sorted(s))),
        ),
        min_size=1,
        max_size=2,
    )
    return st.one_of(on_trio, anywhere).flatmap(
        lambda keys: st.lists(st.sampled_from([1, -1]), min_size=len(keys), max_size=len(keys)).map(
            lambda deltas: list(zip(keys, deltas))
        )
    )


@settings(max_examples=100, deadline=None)
@given(typ=st.sampled_from(["A1:sc", "A1xT1:sc", "A2:sc"]), data=st.data())
def test_perturbed_phi_same_verdict(typ, data):
    pair, phi = pair_and_phi(typ)
    rec, hit = both_checks(pair, bumped(phi, data.draw(perturbations(pair, phi))))
    assert rec.passed == (hit is None)


@pytest.mark.parametrize("typ", ["A1:sc", "A2:sc", "A1xT1:sc"])
def test_perturbations_vanishing_on_span_pass_both(typ):
    pair, phi = pair_and_phi(typ)
    L = pair.L
    ri = L.simple_indices[0]
    h, xl = L.index[("h", 0)], L.index[("x", ri)]
    hd, xr = L.dim + pair.Ldual.index[("h", 0)], L.dim + pair.Ldual.index[("x", ri)]
    # (x_alpha^L, x_alpha^R, h): both root-vector indices belong to the one
    # member x+phix[alpha] of S, so this term is zero on span(S).
    rec, hit = both_checks(pair, bumped(phi, [((xl, xr, h), 1)]))
    assert rec.passed and hit is None
    # On (h, x+phix, hdual) the two halves of x+phix add up: the difference
    # cancels, the sum does not.  Stored on sorted keys, (h, xr, hd) becomes
    # (h, hd, xr) with the opposite sign, so the check must undo that sign.
    rec, hit = both_checks(pair, bumped(phi, [((h, xl, hd), 1), ((h, xr, hd), -1)]))
    assert rec.passed and hit is None
    rec, hit = both_checks(pair, bumped(phi, [((h, xl, hd), 1), ((h, xr, hd), 1)]))
    assert not rec.passed and hit is not None and rec.residual == "2/1"


@pytest.mark.parametrize("typ", SUITE_TYPES)
def test_basis_size_and_coverage(typ):
    pair = build_pair(build(typ))
    d = pair.datum
    ss_rank = len(pair.L.simple_indices)
    radical = len(pair.L.radical_basis)
    assert len(set(pair.owner.values())) == 2 * ss_rank + d.nroots + 2 * radical
    assert sorted(pair.owner) == list(range(algebra_dim(pair)))


@pytest.mark.parametrize("typ", SUITE_TYPES)
def test_the_sparse_spanning_set_densifies_to_the_dense_one(typ):
    # B is sparse and densifies to the members of the dense S that the
    # sparse S marks as its basis.
    pair = build_pair(build(typ))
    assert all(vec and all(vec.values()) for _, vec in pair.spanning_set)
    S, basis = spanning_set_with_basis(pair)
    dense = dense_spanning_set(pair)
    assert densify(S, algebra_dim(pair)) == dense
    assert densify(pair.spanning_set, algebra_dim(pair)) == [dense[p] for p in basis]


def test_basis_owners_refuses_a_weaker_basis():
    pair = build_pair(build("D4:sc"))
    S, basis = spanning_set_with_basis(pair)
    dim = algebra_dim(pair)
    owners = basis_owners(S, basis, dim)
    # Each member of B has coefficient 1 on every index it owns.
    assert {c for _, c in owners.values()} == {1}
    assert owners == {i: (basis[p], 1) for i, p in pair.owner.items()}
    names = [n for n, _ in S]
    # A non-simple coroot overlaps the simple coroots it is a sum of.
    non_simple = next(f"h[{ri}]" for ri in range(pair.datum.nroots) if ri not in pair.L.simple_indices)
    with pytest.raises(RuntimeError, match="share index"):
        basis_owners(S, basis + [names.index(non_simple)], dim)
    # Dropping a member leaves indices uncovered.
    with pytest.raises(RuntimeError, match="covers"):
        basis_owners(S, basis[1:], dim)
    # A vector on one half of x+phix[alpha] is outside the span of B.
    xv = {pair.L.index[("x", pair.L.simple_indices[0])]: 1}
    with pytest.raises(RuntimeError, match="not spanned"):
        basis_owners(S + [("x[L]", xv)], basis, dim)


# ---------------------------------------------------------------------------
# verify_all walks phi once: the scaled records reuse its triple sums


def bumped_key(pair, phi):
    """The smallest term of phi on three distinct members of B: bumping it
    by one makes phi nonzero on that triple of B."""
    return min(k for k in phi.terms if len({pair.owner[i] for i in k}) == 3)


@pytest.mark.parametrize("typ", DEFECT_TYPES)
@pytest.mark.parametrize("defect", ["doubled_F", "bumped_term"])
def test_scaled_records_of_verify_all_match_the_rescaled_phi(typ, defect):
    scales = (2, 3, -1)
    seen = {}
    real_build, real_phi = tduality.build_pair, tduality.flux_residual_form

    def defective_pair(d):
        seen["pair"] = real_build(d)
        if defect == "doubled_F":
            seen["pair"] = doubled_F(seen["pair"])
        return seen["pair"]

    def defective_phi(pair):
        phi = real_phi(pair)
        if defect == "bumped_term":
            seen["key"] = bumped_key(pair, phi)
            phi = bumped(phi, [(seen["key"], 1)])
        seen["phi"] = phi
        return phi

    with mock.patch.object(tduality, "build_pair", defective_pair), \
            mock.patch.object(tduality, "flux_residual_form", defective_phi):
        rep = tduality.verify_all(build(typ), scales=scales)
    pair, phi = seen["pair"], seen["phi"]
    records = {c.name: (c.passed, c.witness, c.residual) for c in rep.checks}
    unscaled = check_flux_equation(pair, phi)
    assert records["flux_equation"] == (False, unscaled.witness, unscaled.residual)
    for n in scales:
        oracle = rebuilt_phi(pair, n)
        if defect == "bumped_term":
            oracle = bumped(oracle, [(seen["key"], n)])
        for want in (check_flux_equation(pair, phi.scale(n)), check_flux_equation(pair, oracle)):
            assert records[f"flux_equation[scale={n}]"] == (want.passed, want.witness, want.residual)
        assert Fraction(records[f"flux_equation[scale={n}]"][2]) == n * Fraction(unscaled.residual)


CHECKS = ["check_ade_symmetry", "check_nondegeneracy", "check_integrality", "check_angle_positivity",
          "check_flux_equation"]


def test_verify_all_calls_each_check_once_and_times_it_in_one_place():
    # E6:sc with a seeded failing phi: the scaled flux records copy the one
    # flux record, so only integrality runs again per scale.
    real_phi = tduality.flux_residual_form
    seen = {}

    def failing_phi(pair):
        phi = real_phi(pair)
        seen["args"] = pair, bumped(phi, [(bumped_key(pair, phi), 1)])
        return seen["args"][1]

    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(tduality, name, wraps=getattr(tduality, name)))
                 for name in CHECKS}
        stack.enter_context(mock.patch.object(tduality, "flux_residual_form", failing_phi))
        rep = tduality.verify_all(build("E6:sc"), scales=(2, -1, 3))
    assert {name: spy.call_count for name, spy in spies.items()} == {**dict.fromkeys(CHECKS, 1), "check_integrality": 4}
    assert [c.name for c in rep.checks if not c.passed] == [
        "flux_equation", "flux_equation[scale=2]", "flux_equation[scale=-1]", "flux_equation[scale=3]"]
    for c in rep.checks:
        seconds = c.as_dict(timing=True)["seconds"]
        assert type(seconds) is float and seconds >= 0
        assert "seconds" not in c.as_dict(timing=False)
    # A check called directly reads no clock.
    pair, phi = seen["args"]
    direct = [tduality.check_ade_symmetry(pair.datum), tduality.check_nondegeneracy(pair),
              check_integrality(lattice_pairing_matrix(pair)), tduality.check_angle_positivity(pair),
              check_flux_equation(pair, phi)]
    assert [rec.seconds for rec in direct] == [0.0] * 5
    assert [rec.passed for rec in direct] == [True, True, True, True, False]


@pytest.mark.parametrize("typ", SUITE_TYPES)
@pytest.mark.parametrize("defect", [False, True])
def test_phi_in_one_dict_equals_the_composed_pullbacks(typ, defect):
    pair = build_pair(build(typ))
    if defect:
        pair = doubled_F(pair)
    assert tduality.flux_residual_form(pair) == composed_phi(pair)


# ---------------------------------------------------------------------------
# The key contract, which InvariantForm leaves to its builders


@pytest.mark.parametrize("typ", [t for t in RANK8_TYPES if rootdatum.is_ade(build(t))] + ["A2xT2:sc"])
def test_every_form_of_the_flux_stage_keeps_the_key_contract(typ):
    # F, dF, H and Hdual are checked as they are built, since phi is
    # summed into dF's own dict afterwards.
    degrees = []

    def checked(builder):
        def call(arg):
            out = builder(arg)
            for w in (arg, out) if isinstance(arg, ceforms.InvariantForm) else (out,):
                assert_stored_form(w)
                degrees.append(w.degree)
            return out
        return call

    pair = build_pair(build(typ))
    with mock.patch.object(ceforms, "ce_differential", checked(ceforms.ce_differential)), \
            mock.patch.object(ceforms, "cartan_three_form", checked(ceforms.cartan_three_form)):
        phi = tduality.flux_residual_form(pair)
    assert degrees == [2, 3, 3, 3]
    for w in (phi, phi.scale(2), phi.scale(-3)):
        assert_stored_form(w)


@pytest.mark.parametrize("typ", ["A1xT1:sc", "A3:adj", "A2xT2:sc", "D4:adj x T2"])
@pytest.mark.parametrize("defect", [False, True])
def test_every_form_the_oracles_build_keeps_the_key_contract(typ, defect):
    pair = build_pair(build(typ))
    if defect:
        pair = doubled_F(pair)
    H = ceforms.cartan_three_form(pair.L)
    forms = [
        extended_root_form(pair.L, pair.L.simple_indices[0]),
        extended_root_form(pair.Ldual, pair.Ldual.simple_indices[-1]),
        tautological_two_form(pair),
        poincare_correction(pair),
        lattice_poincare_correction(pair),
        dualizing_form(pair),
        pairing_form(pair),
        per_root_tautological_two_form(pair),
        pullback_first(pair, H),
        pullback_second(pair, ceforms.cartan_three_form(pair.Ldual)),
        subtract(H, H.scale(2)),
        gathered_ce_differential(pairing_form(pair)),
        composed_phi(pair),
    ]
    for w in forms:
        assert_stored_form(w)
