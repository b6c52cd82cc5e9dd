"""The flux check on the basis B of span(S) against the full triple sweep
over S, kept here as the reference implementation: both must agree on the
true residual, on seeded defects and on random perturbations of phi."""

from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import ceforms, tduality
from liedual.tduality import basis_owners, build_pair, check_flux_equation

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
    with mock.patch.object(tduality, "flux_residual_form", lambda p, scale=1: phi):
        rec = check_flux_equation(pair)
    return rec, sweep_range(phi.terms, [v for _, v in pair.spanning_set])


@pytest.mark.parametrize("typ", ORACLE_TYPES)
def test_true_phi_passes_both(typ):
    rec, hit = both_checks(*pair_and_phi(typ))
    assert rec.passed and rec.witness is None and hit is None


@pytest.mark.parametrize("typ", DEFECT_TYPES)
def test_doubled_F_fails_both(typ):
    pair = pair_and_phi(typ)[0]
    F = tduality.tautological_two_form
    with mock.patch.object(tduality, "tautological_two_form", lambda p: F(p).scale(2)):
        phi = tduality.flux_residual_form(pair)
    rec, hit = both_checks(pair, phi)
    assert hit is not None and not rec.passed
    names = [n for n, _ in pair.spanning_set]
    assert len(rec.witness) == 3 and set(rec.witness) <= set(names)
    assert Fraction(rec.residual) != 0 and rec.residual == tduality.frac_str(rec.residual)
    # The witness is phi on the three named members of S, exactly.
    vecs = [pair.spanning_set[names.index(n)][1] for n in rec.witness]
    assert phi.evaluate(*vecs) == Fraction(rec.residual)


def bumped(phi, deltas):
    """phi plus delta * e_i^e_j^e_k for each ((i, j, k), delta)."""
    out = ceforms.InvariantForm(phi.algebra, 3, dict(phi.terms), phi.tag)
    for idx, delta in deltas:
        key, sign = ceforms.sort_sign(idx)
        out.terms[key] = out.terms.get(key, Fraction(0)) + sign * delta
    return out


def perturbations(pair, phi):
    """One or two +-1 terms: on existing keys of phi, on any index triple, or
    one index from each of three members of B, where terms of opposite
    permutation sign can cancel on span(S)."""
    supports = {}
    for i, (p, _) in sorted(pair.owner.items()):
        supports.setdefault(p, []).append(i)
    on_trio = st.lists(st.sampled_from(sorted(supports)), min_size=3, max_size=3, unique=True).flatmap(
        lambda trio: st.lists(st.tuples(*(st.sampled_from(supports[p]) for p in trio)), min_size=1, max_size=2)
    )
    anywhere = st.lists(
        st.one_of(
            st.sampled_from(sorted(phi.terms)),
            st.sets(st.integers(0, pair.product.dim - 1), min_size=3, max_size=3).map(lambda s: tuple(sorted(s))),
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
    assert len({p for p, _ in pair.owner.values()}) == 2 * ss_rank + d.nroots + 2 * radical
    assert sorted(pair.owner) == list(range(pair.product.dim))


def test_basis_owners_refuses_a_weaker_basis():
    pair = build_pair(build("D4:sc"))
    S = pair.spanning_set
    basis = sorted({p for p, _ in pair.owner.values()})
    assert basis_owners(S, basis) == pair.owner
    names = [n for n, _ in S]
    # A non-simple coroot overlaps the simple coroots it is a sum of.
    non_simple = next(f"h[{ri}]" for ri in range(pair.datum.nroots) if ri not in pair.L.simple_indices)
    with pytest.raises(RuntimeError, match="share index"):
        basis_owners(S, basis + [names.index(non_simple)])
    # Dropping a member leaves indices uncovered.
    with pytest.raises(RuntimeError, match="covers"):
        basis_owners(S, basis[1:])
    # A vector on one half of x+phix[alpha] is outside the span of B.
    xv = [Fraction(0)] * pair.product.dim
    xv[pair.L.index[("x", pair.L.simple_indices[0])]] = Fraction(1)
    with pytest.raises(RuntimeError, match="not spanned"):
        basis_owners(S + [("x[L]", xv)], basis)
