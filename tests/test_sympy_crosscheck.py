"""Root counts and Cartan matrices of every A-G type up to rank 8 against
sympy.liealgebras, an independent implementation.  sympy writes the Cartan
matrix as the transpose of ours (its entry (i, j) is <h_j, alpha_i>).  It
has no C2, which is checked as the dual of B2 (same root count, transposed
Cartan matrix), and its A1 Cartan matrix raises, so A1 is checked against
[[2]]."""

import pytest

from conftest import build
from liedual import rootdatum
from test_rootdatum import RANK8_TYPES

pytest.importorskip("sympy")
from sympy.liealgebras.cartan_matrix import CartanMatrix  # noqa: E402
from sympy.liealgebras.root_system import RootSystem  # noqa: E402

SIMPLE_TYPES = [t for t in RANK8_TYPES if "x" not in t and t[0] != "T"]


def sympy_cartan(name):
    """Our Cartan matrix of the Bourbaki-ordered simple roots, from sympy."""
    if name == "A1":
        return [[2]]
    if name == "C2":
        return [list(row) for row in zip(*sympy_cartan("B2"))]
    return [list(map(int, row)) for row in CartanMatrix(name).T.tolist()]


def sympy_root_count(name):
    return len(RootSystem("B2" if name == "C2" else name).all_roots())


def relabeling(A, B):
    """A permutation p with B[i][j] == A[p[i]][p[j]], or None."""
    n = len(A)

    def extend(p):
        i = len(p)
        if i == n:
            return p
        for c in range(n):
            if c not in p and A[c][c] == B[i][i] and all(
                A[c][p[k]] == B[i][k] and A[p[k]][c] == B[k][i] for k in range(i)
            ):
                found = extend(p + [c])
                if found:
                    return found
        return None

    return extend([]) if len(B) == n else None


@pytest.mark.parametrize("typ", SIMPLE_TYPES)
def test_root_count_and_cartan_matrix_match_sympy(typ):
    name = typ.split(":")[0]
    d = build(typ)
    assert d.nroots == sympy_root_count(name)
    assert rootdatum.family_cartan(name[0], int(name[1:])) == sympy_cartan(name)
    assert relabeling(sympy_cartan(name), rootdatum.cartan_matrix(d)) is not None


def test_relabeling_refuses_a_different_matrix():
    assert relabeling(sympy_cartan("B3"), sympy_cartan("C3")) is None
    assert relabeling(sympy_cartan("A3"), sympy_cartan("A3")[::-1]) is None
    assert relabeling(sympy_cartan("D4"), rootdatum.cartan_matrix(build("D4:adj"))) is not None
