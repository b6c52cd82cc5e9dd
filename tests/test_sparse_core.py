"""The Jacobi certificates, the sparse Cartan 3-form, the Killing matrix
and the N-table against the loops and tables they replaced, kept here or
in oracles.py: all must agree on passing types and on seeded defects.
Also checks that the Chevalley core stores plain ints, that a non-integral
value is refused rather than truncated, and that the Gram solve of simple
coordinates (the oracle for the coordinates read off the pairing) matches
one solve per vector."""

import contextlib
import copy
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build
from liedual import ceforms, chevalley, exactlin, rootdatum, tduality
from liedual.chevalley import build_lie_algebra
import oracles
from oracles import (FractionNTable, VectorNTable, bracket_basis, cartan_is_ade, cocycle_signs, cocycle_table,
                     dense_killing, generates, generator_certificate, ordered_sweep, pairwise_structure_table,
                     signed_rows, trace_kappa, trace_killing_matrix)
from test_rootdatum import RANK8_TYPES, change_basis, small_data, unimodular_pair
from test_tduality import NON_SPLIT, any_pair_of

ORACLE_TYPES = ["A2:sc", "D4:sc", "A3:adj", "B3:sc", "G2:sc", "A1xT1:sc"]


def dense_jacobi_witness(L):
    """First basis triple violating Jacobi, over every triple."""
    for i, j, k in combinations(range(L.dim), 3):
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in bracket_basis(L, a, b).items():
                for n, cn in bracket_basis(L, m, c).items():
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
            for m, cm in bracket_basis(L, a, b).items():
                for n, cn in bracket_basis(L, m, c).items():
                    acc[n] = acc.get(n, 0) + cm * cn
        if any(v for v in acc.values()):
            return (i, j, k)
    return None


def dense_cartan_three_form(L):
    """H(x,y,z) = K(x,[y,z]) with a range(dim) sum for every bracket."""
    K = dense_killing(L)
    terms = {}
    for (j, k), outs in L.table.items():
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


def dense_killing_matrix(L):
    """Tr(ad e_i ad e_j), with ad e_i built from a bracket_basis call for
    every basis element."""

    def ad_entries(i):
        out = {}
        for j in range(L.dim):
            for k, c in bracket_basis(L, i, j).items():
                out[(k, j)] = out.get((k, j), 0) + c
        return out

    ads = [ad_entries(i) for i in range(L.dim)]
    K = [[0] * L.dim for _ in range(L.dim)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            s = 0
            for (r, c), v in ads[j].items():
                w = ads[i].get((c, r))
                if w is not None:
                    s += v * w
            K[i][j] = K[j][i] = s
    return K


def legacy_fill(ntab):
    """VectorNTable._fill as it was: gamma - a is built three times for
    every pair of positive roots."""
    positives = sorted(ntab.pos, key=lambda v: ntab.order[v])
    for gamma in positives:
        specials = sorted(
            (
                (a, tuple(x - y for x, y in zip(gamma, a)))
                for a in ntab.pos
                if tuple(x - y for x, y in zip(gamma, a)) in ntab.pos
                and ntab.order[a] < ntab.order[tuple(x - y for x, y in zip(gamma, a))]
            ),
            key=lambda ab: ntab.order[ab[0]],
        )
        if not specials:
            continue
        a1, b1 = specials[0]
        ntab._set(a1, b1, ntab._p(a1, b1) + 1)
        for a, b in specials[1:]:
            ntab._derive(a, b, a1, b1, gamma)


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
    assert witness == ordered_sweep(L) == streaming_jacobi_witness(L) == dense_jacobi_witness(L)


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
    assert witness == ordered_sweep(L) == streaming_jacobi_witness(L) == dense_jacobi_witness(L)


def perturbed(base, key, k, change):
    """A shallow copy of base whose table entry key has coefficient k
    flipped or moved by +-1, with no cached Killing matrix."""
    out = dict(base.table[key])
    out[k] = -out[k] if change == "flip" else out[k] + change
    L = copy.copy(base)
    L.table = {**base.table, key: out}
    L._killing = None
    return L


def omega_perturbed(base, key, k, change):
    """perturbed(base, key, k, change) with the omega image of the changed
    coefficient changed to match: omega(e_i) = -e_sigma(i), so
    [e_si, e_sj] = -sum c e_sk.  A coefficient that is its own image
    ([x_a, x_-a] = h_a, read in the other order) is changed once."""
    sigma = chevalley._involution(base)
    L = perturbed(base, key, k, change)
    si, sj = sigma[key[0]], sigma[key[1]]
    image, sign = ((si, sj), -1) if si < sj else ((sj, si), 1)
    if (image, sigma[k]) != (key, k):
        L.table[image] = {**L.table[image], sigma[k]: sign * L.table[key][k]}
    return L


CERTIFIED_TYPES = [t for t in RANK8_TYPES if "x" not in t and t[0] != "T"] + ["A1xT1:sc", "T2"]


@pytest.mark.parametrize("typ", CERTIFIED_TYPES)
def test_the_generator_certificate_passes_without_the_sweep(typ):
    # A simply-laced table (a torus's included) passes the cocycle
    # certificate, and no Jacobiator runs.  On B, C, F and G, one
    # Jacobiator per half generator (z_k and x_a, a simple) and none on any
    # other basis element: the sweep does not run.  The generator
    # certificate passes on every type.
    with mock.patch.object(chevalley, "jacobi_witness", wraps=chevalley.jacobi_witness) as witness, \
            mock.patch.object(chevalley, "_jacobiator", wraps=chevalley._jacobiator) as jacobiator:
        L = build_lie_algebra(build(typ))
    assert witness.call_count == 1
    sigma = chevalley._involution(L)
    half = [g for g in chevalley._generators(L, sigma) if g <= sigma[g]]
    ade = cartan_is_ade(L.datum)
    assert [call.args[2] for call in jacobiator.call_args_list] == ([] if ade else half)
    assert chevalley._cocycle_certificate(L) is ade
    assert chevalley._certificate(L)[2] is True


COCYCLE_TYPES = [t for t in RANK8_TYPES if not set("BCFG") & set(t)]


def untwisted(L):
    """A shallow copy of L holding the untwisted cocycle table of its datum."""
    labels, table = cocycle_table(L.datum)
    assert labels == list(L.labels)
    U = copy.copy(L)
    U.table, U._killing = table, None
    return U


@pytest.mark.parametrize("typ", COCYCLE_TYPES + ["D16:sc"])
def test_the_untwisted_cocycle_table_is_a_lie_algebra(typ):
    # Frenkel-Kac: the table of eps alone satisfies Jacobi, on every triple
    # (the streaming oracle skips only those with three absent brackets,
    # whose Jacobiator is 0).  Its involution is E_a -> E_-a, h -> -h, so
    # the Chevalley involution omega (x_a -> -x_-a) is no automorphism of
    # it once a root pair brackets to a root; it is of the twisted table,
    # where s_-a = -s_a.
    U = untwisted(build_lie_algebra(build(typ)))
    generated, omega, derivations = generator_certificate(U)
    assert generated and derivations
    root_to_root = any(U.labels[i][0] == U.labels[next(iter(out))][0] == "x" for (i, _), out in U.table.items())
    assert omega is not root_to_root
    assert streaming_jacobi_witness(U) is None


def assert_twisted_cocycle_table(d):
    """The built table of d is the cocycle table twisted by the signs read
    off it, entry for entry, with the same labels."""
    L = build_lie_algebra(d)
    assert cocycle_table(d, cocycle_signs(L)) == (list(L.labels), L.table)


@pytest.mark.parametrize("typ", COCYCLE_TYPES + ["D16:sc", "E8xE8:sc"])
def test_the_built_table_is_the_twisted_cocycle_table(typ):
    assert_twisted_cocycle_table(build(typ))


@settings(max_examples=30, deadline=None)
@given(d=small_data(), dual=st.booleans(), data=st.data())
def test_the_twisted_cocycle_table_survives_a_change_of_lattice_basis(d, dual, data):
    assume(cartan_is_ade(d))
    d = rootdatum.dualize(d) if dual else d
    assert_twisted_cocycle_table(change_basis(d, *data.draw(unimodular_pair(d.rank))))


def parent_witness(L):
    """jacobi_witness(L) with the cocycle certificate refusing every table:
    the generator certificate, then the sweep."""
    with mock.patch.object(chevalley, "_cocycle_certificate", return_value=False):
        return chevalley.jacobi_witness(L)


def test_the_cocycle_certificate_agrees_with_the_dense_oracle(omega_bases, central_bases):
    passes = Counter()
    for typ, kind, detail, L in perturbation_families(omega_bases, central_bases):
        witness = chevalley.jacobi_witness(L)
        if chevalley._cocycle_certificate(L):
            passes[kind] += 1
            assert dense_jacobi_witness(L) is None, (typ, kind, detail)
        assert witness == parent_witness(L), (typ, kind, detail)
    # No perturbation is a sign twist of the table: each is refused.
    assert passes == {}
    for typ, base in sorted({**omega_bases, **central_bases}.items()):
        assert chevalley._cocycle_certificate(base) is cartan_is_ade(base.datum), typ


def moved_weight(L):
    """L with one nonzero [h_s, x_a] = c x_a moved to a key [h_s, x_b]
    whose bracket is 0, as c x_b: the nonzero count stays the same."""
    key = _first_entry(L, "weight")
    (c,) = L.table[key].values()
    new = next((key[0], j) for j in range(key[1] + 1, L.dim) if (key[0], j) not in L.table)
    L.table = {k: v for k, v in L.table.items() if k != key}
    L.table[new] = {new[1]: c}
    return L


def moved_output(L):
    """L with one [x_a, x_b] = c x_(a+b) written as c x_g, for another root g
    with the sign s_(a+b): the value is the twisted cocycle's, the output
    root is not a + b."""
    s = cocycle_signs(L)
    # The last such entry brackets two negative roots, so no sign is read off it.
    key = max(key for key, out in L.table.items() if {L.labels[x][0] for x in (*key, *out)} == {"x"})
    ((k, c),) = L.table[key].items()
    g = next(x for x in range(L.dim) if L.labels[x][0] == "x" and x != k and s[L.labels[x][1]] == s[L.labels[k][1]])
    L.table = {**L.table, key: {g: c}}
    return L


def moved_to_the_radical(L):
    """L with one [h_s, x_a] = c x_a (s the last simple root) moved to
    [z_0, x_a] = c x_a: the radical is central, so no key starts at z."""
    key = next(key for key in sorted(L.table) if L.labels[key[0]] == ("h", len(L.simple_indices) - 1))
    L.table = {k: v for k, v in L.table.items() if k != key}
    L.table[L.index["z", 0], key[1]] = {key[1]: L.datum.pairing[L.simple_indices[-1]][L.labels[key[1]][1]]}
    return L


def reversed_key(L):
    """L with one [h_s, x_a] = x_a written under the key (x_a, h_s): same
    entry and count, but read in key order it says [h_s, x_a] = -x_a.  Read
    as [x_a, x_b] with x_b = h_s, the value 1 looks like an N of sign +1."""
    key = min(key for key, out in L.table.items() if L.labels[key[0]][0] == "h" and out == {key[1]: 1})
    L.table = {(k[::-1] if k == key else k): v for k, v in L.table.items()}
    return L


MOVES = {"moved-weight": moved_weight, "moved-output": moved_output, "radical": moved_to_the_radical,
         "reversed": reversed_key}


@pytest.mark.parametrize("typ", ["A3:sc", "D4:sc", "E6:sc"])
@pytest.mark.parametrize("kind", ["N", "coroot", "weight", "zeroed-N", *MOVES])
def test_a_cocycle_control_falls_through_to_the_same_witness(typ, kind):
    L = build_lie_algebra(build(typ.replace(":sc", "xT1:sc") if kind == "radical" else typ))
    assert chevalley._cocycle_certificate(L)
    if kind in MOVES:
        L = MOVES[kind](L)
    else:
        key = _first_entry(L, "N" if kind == "zeroed-N" else kind)
        # A zeroed N keeps its key with a zero-valued term, which the
        # count of nonzero terms does not take for the bracket.
        change = (lambda c: 0) if kind == "zeroed-N" else (lambda c: -c)
        L.table = {**L.table, key: {k: change(c) for k, c in L.table[key].items()}}
    assert not chevalley._cocycle_certificate(L)
    witness = chevalley.jacobi_witness(L)
    assert witness is not None
    assert witness == parent_witness(L)
    # The sweep reads a key (i, j) as i < j, as every built table writes it,
    # so on a reversed key its witness need not be the dense one.
    assert dense_jacobi_witness(L) == witness if kind != "reversed" else dense_jacobi_witness(L) is not None


def shift_coroot(c):
    """c with twice its last coordinate added to its first: the same mod 2,
    so the parity bits of the cocycle do not see it."""
    return (c[0] + 2 * c[-1], *c[1:])


@contextlib.contextmanager
def shifted_coroot_builder():
    """_NTable built with its coroot coordinates moved by shift_coroot: the
    second exact_quotients call of each build, after the roots', is the
    coroot one, so the table's [x_a, x_-a] is the shifted h_a."""
    init, quotients = chevalley._NTable.__init__, exactlin.exact_quotients
    calls = []

    def shifted(*args):
        calls.append(quotients(*args))
        return [shift_coroot(c) for c in calls[-1]] if len(calls) == 2 else calls[-1]

    def shifted_init(self, *args):
        calls.clear()
        with mock.patch.object(exactlin, "exact_quotients", shifted):
            init(self, *args)

    with mock.patch.object(chevalley._NTable, "__init__", shifted_init):
        yield


SHIFT_TYPES = ["A1xA1:sc", "D4:sc", "E6:sc", "A2xT1:sc"]


@pytest.mark.parametrize("typ", SHIFT_TYPES)
def test_a_builder_that_shifts_each_coroot_is_refused_with_the_streaming_witness(typ):
    # The certificate reads h_a off the table it certifies and checks it
    # against P: a coroot list built wrong writes a table that is no Lie
    # algebra, and the generator certificate and the sweep name its triple.
    d = build(typ)
    with shifted_coroot_builder(), mock.patch.object(chevalley, "jacobi_witness", return_value=None):
        L = build_lie_algebra(d)
    assert L.table != build_lie_algebra(d).table
    assert not chevalley._cocycle_certificate(L)
    witness = streaming_jacobi_witness(L)
    assert witness is not None
    with shifted_coroot_builder(), pytest.raises(chevalley.JacobiError) as err:
        build_lie_algebra(d)
    assert str(err.value) == f"Jacobi identity fails on basis triple {witness}"
    assert chevalley.jacobi_witness(L) == witness == parent_witness(L)


@pytest.mark.parametrize("typ", SHIFT_TYPES)
def test_every_coroot_entry_shifted_in_the_table_is_refused_with_the_streaming_witness(typ):
    L = build_lie_algebra(build(typ))
    nz, first = len(L.radical_basis), len(L.radical_basis) + len(L.simple_indices)
    npos = (L.dim - first) // 2
    L.table = dict(L.table)
    for x in range(first, first + npos):
        c = shift_coroot([L.table[x, x + npos].get(h, 0) for h in range(nz, first)])
        L.table[x, x + npos] = {h: v for h, v in enumerate(c, nz) if v}
    assert not chevalley._cocycle_certificate(L)
    witness = chevalley.jacobi_witness(L)
    assert witness is not None
    assert witness == streaming_jacobi_witness(L) == parent_witness(L)


def test_the_certificate_refuses_every_single_coefficient_perturbation(perturbation_bases):
    seen = cut_off = keep_omega = 0
    for base in perturbation_bases.values():
        for key, out in base.table.items():
            for k in out:
                for change in ("flip", 1, -1):
                    generated, omega, derivations = generator_certificate(perturbed(base, key, k, change))
                    assert not (generated and omega and derivations)
                    seen += 1
                    cut_off += not generated
                    keep_omega += omega
    assert (seen, cut_off, keep_omega) == (786, 18, 126)


@pytest.fixture(scope="module")
def omega_bases(perturbation_bases):
    return {**perturbation_bases, **{typ: build_lie_algebra(build(typ)) for typ in ["D4:sc", "A1xT1:sc"]}}


@pytest.fixture(scope="module")
def central_bases():
    return {typ: build_lie_algebra(build(typ)) for typ in ["A1xT1:sc", "A2xT1:sc"]}


def central_perturbations(base):
    """base with one zero bracket [e_i, e_j] set to +-z_0.  On A2xT1,
    [x_-theta, x_-a] = z_0 (theta the highest root, a simple) keeps ad z_0
    and ad x_b (b simple) derivations and generation intact, but breaks
    Jacobi on (h, x_-theta, x_-a); omega maps the pair to one whose bracket
    is 0."""
    z = base.index[("z", 0)]
    for i in range(base.dim):
        for j in range(i + 1, base.dim):
            if (i, j) not in base.table:
                for c in (1, -1):
                    L = copy.copy(base)
                    L.table = {**base.table, (i, j): {z: c}}
                    L._killing = None
                    yield (i, j), c, L


def perturbation_families(bases, central):
    """(type, kind, detail, L) for every single coefficient perturbation
    of bases ("single", detail (key, k, change)), one omega-symmetric
    perturbation per omega orbit of coefficients and change ("symmetric"),
    and every central perturbation of central ("central", detail
    (key, c))."""
    for typ, base in sorted(bases.items()):
        sigma = chevalley._involution(base)
        orbits = set()
        for key, out in base.table.items():
            for k in out:
                si, sj = sigma[key[0]], sigma[key[1]]
                orbit = frozenset([(key, k), ((min(si, sj), max(si, sj)), sigma[k])])
                first = orbit not in orbits
                orbits.add(orbit)
                for change in ("flip", 1, -1):
                    yield typ, "single", (key, k, change), perturbed(base, key, k, change)
                    if first:
                        yield typ, "symmetric", (key, k, change), omega_perturbed(base, key, k, change)
    for typ, base in sorted(central.items()):
        for key, c, L in central_perturbations(base):
            yield typ, "central", (key, c), L


def certificate_faults(bases, central):
    """Every perturbation of perturbation_families, checked against
    dense_jacobi_witness.  Returns the counts and the faults: a passing
    certificate on a table that fails Jacobi, an omega-symmetric table
    that satisfies Jacobi and generates but fails the certificate, or a
    central perturbation whose jacobi_witness differs from the dense one."""
    counts = dict.fromkeys(["single", "single_omega", "single_pass", "symmetric", "symmetric_pass",
                            "symmetric_jacobi", "central", "central_pass"], 0)
    faults = []
    for typ, kind, detail, L in perturbation_families(bases, central):
        generated, omega, derivations = generator_certificate(L)
        counts[kind] += 1
        if kind == "single":
            passed = generated and omega and derivations
            counts["single_omega"] += omega
            counts["single_pass"] += passed
            if passed and dense_jacobi_witness(L) is not None:
                faults.append((typ, kind, *detail))
        elif kind == "symmetric":
            assert omega
            jacobi = dense_jacobi_witness(L) is None
            counts["symmetric_pass"] += generated and derivations
            counts["symmetric_jacobi"] += jacobi
            if (generated and derivations) != jacobi and (generated or not jacobi):
                faults.append((typ, kind, *detail))
        else:
            passed = generated and omega and derivations
            witness = dense_jacobi_witness(L)
            counts["central_pass"] += passed
            if (passed and witness is not None) or chevalley.jacobi_witness(L) != witness:
                faults.append((typ, kind, *detail))
    return counts, faults


def test_the_one_pass_certificate_agrees_with_the_old_one(omega_bases, central_bases):
    verdicts = Counter()
    for typ, kind, detail, L in perturbation_families(omega_bases, central_bases):
        old = all(generator_certificate(L))
        assert chevalley._certificate(L)[2] is old, (typ, kind, detail)
        verdicts[kind, old] += 1
    assert verdicts == {("single", True): 2, ("single", False): 1378, ("symmetric", True): 5,
                        ("symmetric", False): 790, ("central", False): 36}
    for typ, base in sorted({**omega_bases, **central_bases}.items()):
        assert chevalley._certificate(base)[2] is all(generator_certificate(base)) is True, typ


def test_the_halved_certificate_agrees_with_the_dense_oracle(omega_bases, central_bases):
    counts, faults = certificate_faults(omega_bases, central_bases)
    assert faults == []
    # Two single perturbations pass: [x, y] = h of A1xT1 rescaled to -h or
    # 2h, a rescaling of y.  Of the omega-symmetric ones, A1xT1 with
    # [x, y] = 0 satisfies Jacobi but no longer generates h.
    assert counts == {"single": 1380, "single_omega": 210, "single_pass": 2,
                      "symmetric": 795, "symmetric_pass": 5, "symmetric_jacobi": 6,
                      "central": 36, "central_pass": 0}


def test_a_certificate_without_the_omega_step_passes_broken_tables(central_bases):
    # No single coefficient perturbation of the omega bases that breaks
    # Jacobi passes generation and the half derivations even without omega,
    # and an omega-symmetric one keeps omega by construction, so the
    # central entries are where the omega step is needed.
    with mock.patch.object(oracles, "is_automorphism", lambda table, sigma: True):
        _, faults = certificate_faults({}, central_bases)
    # [x_-theta, x_-a] = +-z_0 on A2xT1, for both simple roots a.
    assert [(typ, kind) for typ, kind, *_ in faults] == [("A2xT1:sc", "central")] * 4
    base = central_bases["A2xT1:sc"]
    theta = base.labels[base.dim - 1]
    assert all(base.labels[key[1]] == theta for _, _, key, _ in faults)


def test_generation_reaches_only_through_one_nonzero_term():
    # [e_0, e_1] = e_2 + e_1 puts e_1 + e_2 in the generated subalgebra,
    # not e_2; a zero coefficient is no term.  The rows of the certificate
    # and the signed rows of the old one agree.
    def both(out):
        rows = [[(1, k, c) for k, c in out.items()], [(0, k, -c) for k, c in out.items()], []]
        new, old = chevalley._generates(rows, [0, 1]), generates(signed_rows({(0, 1): out}, 3), [0, 1])
        assert new == old
        return new

    assert both({2: 1})
    assert both({2: -2, 1: 0})
    assert not both({2: 1, 1: 1})
    assert not both({2: 0})


def test_a_zeroed_constant_that_cuts_a_root_vector_off_is_refused():
    # [x_a1, x_a2] = x_(a1+a2) for the simple roots of A2: with the
    # constant at 0, no bracket with a generator reaches x_(a1+a2).
    base = build_lie_algebra(build("A2:sc"))
    key = tuple(sorted(base.index[("x", ri)] for ri in base.simple_indices))
    ((theta, c),) = base.table[key].items()
    assert c == 1
    L = perturbed(base, key, theta, -1)
    assert generator_certificate(L)[0] is False
    # Generation fails first, so no half generator is tested; the sweep
    # tests each basis element in order up to the witness's first.
    with mock.patch.object(chevalley, "_jacobiator", wraps=chevalley._jacobiator) as jacobiator:
        witness = chevalley.jacobi_witness(L)
    assert witness is not None
    assert [call.args[2] for call in jacobiator.call_args_list] == list(range(witness[0] + 1))
    assert witness == ordered_sweep(L) == streaming_jacobi_witness(L) == dense_jacobi_witness(L)


def assert_killing_rows_are_the_trace_form(L):
    """killing_matrix() is dim rows holding no zero, and densifies to the
    trace form summed over the table."""
    K = L.killing_matrix()
    assert len(K) == L.dim and all(type(row) is dict and all(row.values()) for row in K)
    assert dense_killing(L) == trace_killing_matrix(L)


@pytest.mark.parametrize("typ", ORACLE_TYPES + ["D5:sc", "E6:sc"])
def test_killing_matrix_matches_the_dense_trace(typ):
    L = build_lie_algebra(build(typ))
    assert dense_killing(L) == dense_killing_matrix(L)
    assert_killing_rows_are_the_trace_form(L)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_killing_matrix_of_a_perturbed_table_matches_the_dense_trace(perturbation_bases, data):
    # The two trace oracles agree on tables that fail Jacobi, where the
    # closed form of killing_matrix does not apply.
    base = perturbation_bases[data.draw(st.sampled_from(sorted(perturbation_bases)))]
    key = data.draw(st.sampled_from(sorted(base.table)))
    k = data.draw(st.sampled_from(sorted(base.table[key])))
    L = perturbed(base, key, k, data.draw(st.sampled_from(["flip", 1, -1])))
    assert trace_killing_matrix(L) == dense_killing_matrix(L)


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_the_killing_matrix_read_off_the_pairing_is_the_trace_form(typ):
    d = build(typ)
    for x in (d, rootdatum.dualize(d)):
        assert_killing_rows_are_the_trace_form(build_lie_algebra(x))


@pytest.mark.parametrize("name", NON_SPLIT)
def test_the_killing_matrix_of_non_split_data_is_the_trace_form(name):
    d = NON_SPLIT[name][0]
    for x in (d, rootdatum.dualize(d)):
        assert_killing_rows_are_the_trace_form(build_lie_algebra(x))


@settings(max_examples=30, deadline=None)
@given(d=st.one_of(small_data(), st.sampled_from([d for d, _, _ in NON_SPLIT.values()])),
       dual=st.booleans(), data=st.data())
def test_the_killing_matrix_survives_a_change_of_lattice_basis(d, dual, data):
    d = rootdatum.dualize(d) if dual else d
    L = build_lie_algebra(change_basis(d, *data.draw(unimodular_pair(d.rank))))
    assert_killing_rows_are_the_trace_form(L)


def assert_kappa_is_the_trace_diagonal(L):
    """L.kappa is K(h_a, h_a) of the trace form at every root index a, and
    even."""
    assert L.kappa == trace_kappa(L)
    assert all(c % 2 == 0 for c in L.kappa)


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_kappa_is_the_diagonal_of_the_trace_form(typ):
    d = build(typ)
    for x in (d, rootdatum.dualize(d)):
        assert_kappa_is_the_trace_diagonal(build_lie_algebra(x))


@pytest.mark.parametrize("name", NON_SPLIT)
def test_kappa_of_non_split_data_is_the_diagonal_of_the_trace_form(name):
    d = NON_SPLIT[name][0]
    for x in (d, rootdatum.dualize(d)):
        assert_kappa_is_the_trace_diagonal(build_lie_algebra(x))


@pytest.mark.parametrize("typ", ["B2:sc", "G2"])
def test_each_algebra_of_a_non_ade_pair_has_its_own_kappa(typ):
    # Long and short roots trade places under dualization, so the two
    # N-tables sum different squares at one root index.
    pair = any_pair_of(build(typ))
    assert_kappa_is_the_trace_diagonal(pair.L)
    assert_kappa_is_the_trace_diagonal(pair.Ldual)
    assert pair.L.kappa != pair.Ldual.kappa


@settings(max_examples=30, deadline=None)
@given(d=st.one_of(small_data(), st.sampled_from([d for d, _, _ in NON_SPLIT.values()])),
       dual=st.booleans(), data=st.data())
def test_kappa_is_the_trace_diagonal_under_a_change_of_lattice_basis(d, dual, data):
    d = rootdatum.dualize(d) if dual else d
    assert_kappa_is_the_trace_diagonal(build_lie_algebra(change_basis(d, *data.draw(unimodular_pair(d.rank)))))


@pytest.mark.parametrize("typ", ["A2:sc", "D4:sc", "A1xT1:sc"])
def test_a_kappa_bump_at_a_simple_root_moves_the_killing_matrix_off_the_trace_form(typ):
    # kappa[a] + 2 stays even.  It moves K(x_a, x_-a) = kappa[a] / 2 and
    # the Cartan column of h_a, K(h_s, h_a) = P[s][a] kappa[a] / 2, and
    # nothing else: the row of x_-a reads kappa at -a.
    L = build_lie_algebra(build(typ))
    a, t = L.simple_indices[0], L.index[("h", 0)]
    L.kappa = [c + 2 * (i == a) for i, c in enumerate(L.kappa)]
    K, trace = dense_killing(L), trace_killing_matrix(L)
    moved = {(i, j) for i in range(L.dim) for j in range(L.dim) if K[i][j] != trace[i][j]}
    xa, x_a = L.index[("x", a)], chevalley._involution(L)[L.index[("x", a)]]
    cartan = {(L.index[("h", s)], t) for s, si in enumerate(L.simple_indices) if L.datum.pairing[si][a]}
    assert moved == cartan | {(xa, x_a)}


@pytest.mark.parametrize("typ", RANK8_TYPES)
def test_the_triple_walk_matches_the_pairwise_builder(typ):
    d = build(typ)
    L = build_lie_algebra(d)
    labels, table = pairwise_structure_table(d)
    assert list(L.labels) == labels
    assert L.table == table


def by_vectors(d, ntab):
    """N_{a,b} read off ntab's bracket table for every ordered pair with
    a + b a root, keyed by root vectors, in the layout of VectorNTable."""
    r, code = d.roots, ntab.code
    return {(r[a], r[b]): ntab._n(a, b) for a in range(d.nroots) for b in range(d.nroots)
            if code[a] + code[b] in ntab.by_code}


@pytest.mark.parametrize("typ", [t for t in RANK8_TYPES if t[0] != "T"])
def test_fill_matches_the_three_difference_sweep(typ):
    d = build(typ)
    pos, simple = rootdatum.positive_system(d)
    ntab = chevalley._NTable(d, pos, simple)
    old = VectorNTable(d, pos, simple)
    old.table = {}
    legacy_fill(old)
    assert old.table == by_vectors(d, ntab)


@pytest.mark.parametrize("typ", [t for t in RANK8_TYPES if t[0] != "T"])
def test_the_index_table_matches_the_vector_table(typ):
    # Same constants and the same positive order; the output of each
    # [x_a, x_b] with b != -a is x_{a+b}.
    d = build(typ)
    pos, simple = rootdatum.positive_system(d)
    new, old = chevalley._NTable(d, pos, simple), VectorNTable(d, pos, simple)
    assert by_vectors(d, new) == old.table
    assert [d.roots[i] for i in new.positives] == sorted(old.pos, key=old.order.get)
    root_of = {x: a for a, x in new.x.items()}
    for (i, j), out in new.table.items():
        if i in root_of and j != new.x[new.neg[root_of[i]]]:
            (k,) = out
            assert d.roots[root_of[k]] == tuple(map(sum, zip(d.roots[root_of[i]], d.roots[root_of[j]])))
    assert [d.roots[i] for i in new.neg] == [tuple(-x for x in r) for r in d.roots]


@pytest.mark.parametrize("typ", ["A2:sc", "B3:sc", "C4:adj", "D5:sc", "F4:sc", "G2:sc", "E8:sc", "B2xA1:sc"])
def test_root_codes_are_exact_on_every_lookup(typ):
    # The fill looks up a +- b and the string b - p a up to p = 4: each code
    # is a root's code exactly when the vector is that root.
    d = build(typ)
    pos, simple = rootdatum.positive_system(d)
    ntab = chevalley._NTable(d, pos, simple)
    by_vec = {r: i for i, r in enumerate(d.roots)}
    for a, ra in enumerate(d.roots):
        for b, rb in enumerate(d.roots):
            for p in (-1, 1, 2, 3, 4):
                v = tuple(y - p * x for x, y in zip(ra, rb))
                assert ntab.by_code.get(ntab.code[b] - p * ntab.code[a]) == by_vec.get(v), (typ, ra, rb, p)


def test_a_root_off_the_simple_lattice_is_refused():
    # Root 2 pairs to 1 with the simple coroot of A = [[2]]: coordinate 1/2.
    d = rootdatum.RootDatum(rank=1, roots=((2,), (-2,), (1,)), coroots=((1,), (-1,), (1,)))
    with pytest.raises(ValueError, match=re.escape("(1,) is not an integral combination")):
        chevalley._NTable(d, [0], [0])


@pytest.mark.parametrize("typ", ["A2:sc", "D4:sc", "A1xT1:sc"])
@pytest.mark.parametrize("entry", ["cartan-diagonal", "root-one-sided"])
def test_a_corrupted_killing_entry_fails_antisymmetry_in_both(typ, entry):
    L = build_lie_algebra(build(typ))
    K = [dict(row) for row in L.killing_matrix()]
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
    ntab = chevalley._NTable(L.datum, *rootdatum.positive_system(L.datum))
    assert all(type(c) is int for coords in ntab.coroot_coords.values() for c in coords)
    assert all(type(v) is int for row in L.killing_matrix() for v in row.values())
    assert all(type(v) is int for v in ceforms.cartan_three_form(L).terms.values())
    assert all(type(v) is int for row in pair.fiber_pairing for v in row)
    assert all(type(v) is int for v in tduality.flux_residual_form(pair).terms.values())


def test_a_non_integral_structure_constant_is_refused():
    # The bracket table holds only ints, which build_lie_algebra copies as they
    # are; the Fraction oracle's constant() refuses a non-integral value.
    d = build("A2:sc")
    pos, simple = rootdatum.positive_system(d)
    ntab = chevalley._NTable(d, pos, simple)
    a, b = ntab.positives[:2]
    assert type(ntab._n(a, b)) is int
    old = FractionNTable(d, pos, simple)
    ra, rb = d.roots[a], d.roots[b]
    assert old.constant(ra, rb) == ntab._n(a, b)
    old.table[(ra, rb)] = Fraction(1, 2)
    with pytest.raises(ValueError, match="non-integral"):
        old.constant(ra, rb)


def test_simple_coordinates_are_ints_or_refused():
    d = build("A2:sc")
    _, simple = rootdatum.positive_system(d)
    assert all(type(c) is int for coords in oracles.simple_coords(d.roots, simple, d.roots) for c in coords)
    # (1, 0) is a weight of A2:sc but not in the root lattice: coordinates 2/3, 1/3.
    with pytest.raises(ValueError, match=re.escape("(1, 0) is not an integral combination")):
        oracles.simple_coords(d.roots, simple, [d.roots[0], (1, 0), d.roots[1]])
    t = build("A1xT1:sc")
    _, simple = rootdatum.positive_system(t)
    # (1, 0) is non-integral, (0, 1) lies outside the span of the roots.
    for v in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match=re.escape(f"{v} is not an integral combination")):
            oracles.simple_coords(t.roots, simple, list(t.roots) + [v])
    assert oracles.simple_coords(t.roots, simple, []) == []


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
        assert oracles.simple_coords(vectors, simple, vectors) == expected


def test_build_lie_algebra_runs_one_elimination_per_coordinate_batch():
    # One integer inverse of the Cartan matrix gives the simple-root
    # coordinates of every root and the simple-coroot coordinates of every
    # coroot; no Fraction solve.
    d = build("E6:sc")
    with mock.patch.object(exactlin, "_eliminate", wraps=exactlin._eliminate) as spy, \
            mock.patch.object(exactlin, "solve_exact", wraps=exactlin.solve_exact) as solves:
        build_lie_algebra(d)
    assert (spy.call_count, solves.call_count) == (1, 0)
