"""Seeded mutants of src, each with the tests that must fail on it, and the
stdlib runner that checks they still do.

A mutant names a module under src/liedual, an exact source snippet that
occurs there once, its replacement, and the pytest node ids of which at
least one must fail once the snippet is replaced.  The runner copies src
to a temporary directory, runs the union of the ids on the unmodified copy
(every one must pass), then, for each mutant, applies it to a fresh copy and
runs its ids with PYTHONPATH pointing at that copy: the mutant must fail at
least one of them.  A snippet that no longer occurs exactly once fails the
run, so a change that rewrites checked code restates its mutants here.

    python tests/mutants.py            # from the repository root

It exits 0 when every mutant is killed, 1 otherwise, and prints the time
each run took.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str         # file name under src/liedual
    snippet: str        # occurs exactly once in the module
    replacement: str
    tests: tuple        # pytest node ids; at least one must fail on the mutant


MUTANTS = [
    # The N-table writes [x_a, x_-a] = h_a with twice the last coroot
    # coordinate added to the first: the same mod 2, so only the check of
    # h_a against P in the cocycle certificate sees it, and the build names
    # the streaming oracle's triple.
    Mutant(
        "coroot shifted by 2 c_last",
        "chevalley.py",
        "            lambda i: refuse(datum.coroots[pos_indices[i]]))))\n",
        "            lambda i: refuse(datum.coroots[pos_indices[i]]))))\n"
        "        self.coroot_coords = {a: (c[0] + 2 * c[-1], *c[1:]) for a, c in self.coroot_coords.items()}\n",
        ("tests/test_sparse_core.py::test_jacobi_sweep_matches_the_streaming_oracle[E6:sc]",
         "tests/test_sparse_core.py::test_the_generator_certificate_passes_without_the_sweep[D4:sc]"),
    ),
    # A key (x_a, h_s) read as a bracket of two root vectors passes as an N
    # of sign +1 unless keys i >= j are refused.
    Mutant(
        "cocycle certificate reads reversed keys",
        "chevalley.py",
        "        if i >= j:",
        "        if i == j:",
        ("tests/test_sparse_core.py::test_a_cocycle_control_falls_through_to_the_same_witness[reversed-D4:sc]",),
    ),
    # A1:sc and A1xT1:sc have one P and one chamber but not one table.
    Mutant(
        "share guard without the rank",
        "chevalley.py",
        "(t.rank, t.chamber, t.pairing) == (d.rank, chamber, d.pairing)",
        "(t.chamber, t.pairing) == (chamber, d.pairing)",
        ("tests/test_tduality.py::test_an_n_table_is_not_read_at_another_rank[A1:sc-A1xT1:sc]",),
    ),
    # kappa feeds the N ratios and the Killing form; off by one root it
    # moves both wherever root lengths differ.
    Mutant(
        "kappa read one root off",
        "chevalley.py",
        "self.kappa = [sum(map(mul, row, row)) for row in P]",
        "self.kappa = [sum(map(mul, row, row)) for row in P[1:] + P[:1]]",
        ("tests/test_sparse_core.py::test_killing_matrix_matches_the_dense_trace[B3:sc]",
         "tests/test_sparse_core.py::test_killing_matrix_matches_the_dense_trace[G2:sc]"),
    ),
    # Row against row is always equal, so every datum would look ADE.
    Mutant(
        "asymmetry compares row with row",
        "rootdatum.py",
        "for i, (row, col) in enumerate(zip(P, zip(*P))):",
        "for i, (row, col) in enumerate(zip(P, P)):",
        ("tests/test_tduality.py::test_good_isomorphism_refuses_non_ade",
         "tests/test_cli.py::test_info_b3_not_ade"),
    ),
    # alpha(h_beta) beta(h_alpha) lies in 0..4; a bound of 5 lets 5 through.
    Mutant(
        "angle bound > 5",
        "tduality.py",
        "if min(values) < 0 or max(values) > 4:",
        "if min(values) < 0 or max(values) > 5:",
        ("tests/test_datum_rows.py::test_an_angle_product_of_five_is_refused",),
    ),
    # The reflection certificate keyed on the root code alone: a coroot
    # that the simple reflections move off the coroots goes unseen, and a
    # datum whose roots alone close up passes validate.
    Mutant(
        "reflection certificate keyed on the root alone",
        "rootdatum.py",
        "    pairs = list(zip(fr, fc))\n"
        "    index = dict(zip(pairs, range(d.nroots)))\n"
        "    images = []\n"
        "    for j, row, col in zip(simple, rows, cols):\n"
        "        image = list(map(index.get, zip(map(sub, fr, map(mul, row, repeat(fr[j]))),\n"
        "                                        map(sub, fc, map(mul, col, repeat(fc[j]))))))\n",
        "    pairs = fr\n"
        "    index = dict(zip(pairs, range(d.nroots)))\n"
        "    images = []\n"
        "    for j, row, col in zip(simple, rows, cols):\n"
        "        image = list(map(index.get, map(sub, fr, map(mul, row, repeat(fr[j])))))\n",
        ("tests/test_integer_datum.py::test_coroots_off_a_root_system_never_reach_the_pairing_coordinates",
         "tests/test_datum_rows.py::test_the_reflection_certificate_never_passes_a_datum_the_scan_refuses"),
    ),
    # The certificate without its P[j][j] = 2 guard: a simple pair with
    # <c, r> = 0 reflects every pair to itself, so it passes.
    Mutant(
        "reflection certificate without the pairing-two guard",
        "rootdatum.py",
        "    if any(P[j][j] != 2 for j in simple):\n        return False\n",
        "",
        ("tests/test_datum_rows.py::test_a_simple_pair_of_pairing_zero_is_refused[alone]",
         "tests/test_datum_rows.py::test_a_simple_pair_of_pairing_zero_is_refused[beside-A1]"),
    ),
    # The witness scans run only on a datum the certificate refuses; each
    # names the oracle's first witness of its axiom.  A zero root with a
    # nonzero coroot is missed when the coroots are scanned.
    Mutant(
        "nonzero scan reads the coroots",
        "rootdatum.py",
        "nonzero_witness=next((i for i, r in enumerate(d.roots) if not any(r)), None),",
        "nonzero_witness=next((i for i, r in enumerate(d.coroots) if not any(r)), None),",
        ("tests/test_datum_rows.py::test_zero_and_repeated_roots_give_the_oracle_witnesses[zero-A2:sc]",),
    ),
    # A doubled root pairs 4 with its coroot.
    Mutant(
        "pairing scan passes a diagonal above 2",
        "rootdatum.py",
        "pairing_witness=next((i for i, row in enumerate(P) if row[i] != 2), None),",
        "pairing_witness=next((i for i, row in enumerate(P) if row[i] < 2), None),",
        ("tests/test_datum_rows.py::test_a_perturbed_root_gives_the_all_columns_witness_with_or_without_its_twin[A2:sc]",),
    ),
    # A1xT1 with root 1 repeating root 0: column 0 fails on the roots alone,
    # so a column test of the coroots alone names column 1 first.
    Mutant(
        "reflection scan tests the coroots alone",
        "rootdatum.py",
        "        if not (coroot_set.issuperset(map(sub, fc, map(mul, col, repeat(fc[j]))))\n"
        "                and root_set.issuperset(map(sub, fr, map(mul, P[j], repeat(fr[j]))))):\n",
        "        if not coroot_set.issuperset(map(sub, fc, map(mul, col, repeat(fc[j])))):\n",
        ("tests/test_datum_rows.py::test_zero_and_repeated_roots_give_the_oracle_witnesses[repeat-A1xT1:sc]",),
    ),
    # BC_1's coroots 2e, -2e, e, -e: only a longer coroot j on the line of
    # coroot i counts, so the witness (0, 2) becomes (2, 0).
    Mutant(
        "reducedness flags only a longer coroot",
        "rootdatum.py",
        "if pj is None or (pj[0] == pi[0] and pj[1] != pi[1])), None),",
        "if pj is None or (pj[0] == pi[0] and pj[1] > pi[1])), None),",
        ("tests/test_datum_rows.py::test_the_certificate_refuses_the_non_reduced_bc[1]",),
    ),
    # An sc factor's coroots written in the fundamental coweights, as adj
    # writes them, while its roots stay the Dynkin labels.
    Mutant(
        "sc coroots taken as the coroot labels",
        "rootdatum.py",
        "coroots.append(left + (b if coweight else e) + right)",
        "coroots.append(left + b + right)",
        ("tests/test_integer_datum.py::test_the_closure_build_equals_the_inverse_build_on_one_factor[A-2-sc-0]",
         "tests/test_cli.py::test_info_a1"),
    ),
]


def snippet_count(mutant, src):
    with open(os.path.join(src, "liedual", mutant.module), encoding="utf-8") as fh:
        return fh.read().count(mutant.snippet)


def copy_src(into, mutant=None):
    """src copied under into, with mutant applied when given; its path."""
    src = os.path.join(into, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = os.path.join(src, "liedual", mutant.module)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.snippet, mutant.replacement))
    return src


def run_tests(src, ids, first_failure):
    """(returncode, output) of pytest on ids with liedual imported from src
    alone, and no bytecode written next to it."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run([sys.executable, "-c", "import liedual; print(liedual.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    if not probe.stdout.startswith(src):
        raise RuntimeError(f"liedual is imported from {probe.stdout.strip() or probe.stderr}, not {src}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *(["-x"] * first_failure), *ids]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def main():
    start, failures = time.perf_counter(), []
    stale = [m.name for m in MUTANTS if snippet_count(m, os.path.join(ROOT, "src")) != 1]
    if stale:
        print(f"snippets that do not occur exactly once in src: {stale}")
        return 1
    ids = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_tests(copy_src(tmp), ids, first_failure=False)
    print(f"unmutated copy: {len(ids)} tests, pytest exit {code} ({time.perf_counter() - start:.1f} s)")
    if code != 0:
        print(out)
        return 1
    for m in MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_tests(copy_src(tmp, m), m.tests, first_failure=True)
        # Exit 1 is a failed test; anything else (a collection or usage
        # error) is not a kill.
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        print(f"{m.name}: {verdict} ({time.perf_counter() - t0:.1f} s)")
        if code != 1:
            failures.append(m.name)
            print(out)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
