import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual import exactlin
from oracles import integer_coordinates, mat_vec, nested_search_snf, rref, rref_solve


def rank_exact(A):
    """Rank of a matrix from one Fraction rref: the oracle for
    rootdatum.central_free_rank, which reads the simple system instead."""
    if not A:
        return 0
    return len(rref(A)[1])


def _perm_det(A):
    n = len(A)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= A[i][perm[i]]
        total += sign * prod
    return total


@st.composite
def square_matrices(draw):
    """Square int or Fraction matrices of size 0-5: often singular (a row
    copied or scaled) and often with a zero leading entry, so that the
    elimination has to swap rows."""
    n = draw(st.integers(0, 5))
    small = st.integers(-4, 4)
    entry = st.one_of(small, st.builds(Fraction, small, st.integers(1, 3))) if draw(st.booleans()) else small
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        A[i] = [draw(st.sampled_from([-1, 0, 2, Fraction(1, 2)])) * x for x in A[j]]
    if n and draw(st.booleans()):
        A[0][0] = 0
    return A


@settings(max_examples=400, deadline=None)
@given(A=square_matrices())
def test_det_matches_permutation_expansion(A):
    assert exactlin.det_exact(A) == _perm_det(A)


def test_det_sign_follows_the_row_swaps():
    assert exactlin.det_exact([[0, 1], [1, 0]]) == -1
    assert exactlin.det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert exactlin.det_exact([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert exactlin.det_exact([[0, 2], [0, 3]]) == 0
    assert exactlin.det_exact([]) == 1


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        exactlin.det_exact([[1, 2, 3], [4, 5, 6]])


def test_solve_exact_consistent_and_inconsistent():
    A = [[2, 1], [1, 3]]
    x = exactlin.solve_exact(A, [Fraction(5), Fraction(10)])
    assert mat_vec([[Fraction(v) for v in row] for row in A], x) == [5, 10]
    assert exactlin.solve_exact([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_exact_underdetermined_sets_free_vars_to_zero():
    x = exactlin.solve_exact([[1, 1]], [Fraction(3)])
    assert x == [3, 0]


def test_rank_and_rref():
    assert rank_exact([[1, 2], [2, 4]]) == 1
    R, pivots = rref([[0, 2], [3, 0]])
    assert pivots == [0, 1]
    assert R == [[1, 0], [0, 1]]


def test_smith_normal_form_known_values():
    assert exactlin.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert exactlin.smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert exactlin.smith_normal_form([[1, 0], [0, 0]]) == [1, 0]


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        diag = exactlin.smith_normal_form(A)
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        det = exactlin.det_exact(A)
        prod = 1
        for d in nonzero:
            prod *= d
        if len(nonzero) == n:
            assert prod == abs(det)
        else:
            assert det == 0


def test_integer_kernel():
    A = [[1, 2, 3]]
    for k in exactlin.integer_kernel(A):
        assert sum(a * b for a, b in zip(A[0], k)) == 0
    assert len(exactlin.integer_kernel(A)) == 2
    assert exactlin.integer_kernel([[1, 0], [0, 1]]) == []


@st.composite
def small_int_matrices(draw):
    """Integer matrices up to 5 x 6 with entries -9..9, some of their rows
    and columns zeroed."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    A = draw(st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)] for i, row in enumerate(A)]


@settings(max_examples=300, deadline=None)
@given(A=small_int_matrices())
def test_one_pivot_search_gives_the_smith_form_and_transform_of_two(A):
    # The kernel basis integer_kernel returns reaches the printed
    # nondegeneracy determinant, so V must be the same matrix, not only a
    # basis of the same lattice.
    assert exactlin._snf(A) == nested_search_snf(A)
    assert exactlin._snf(A, want_v=True) == nested_search_snf(A, want_v=True)


def solve_exact_coordinates(V, t):
    """Integer coordinates of t in the rows of V from one Fraction solve of
    V^T x = t, or None: the oracle for the Gram solve integer_coordinates."""
    x = exactlin.solve_exact([list(col) for col in zip(*V)], t) if V else ([] if not any(t) else None)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return tuple(c.numerator for c in x)


@st.composite
def basis_and_targets(draw):
    """Independent integer rows V (k <= n <= 4) and integer targets, half of
    them integral combinations of V."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    entry = st.integers(-3, 3)
    V = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    if rank_exact(V) < k:
        V = []
    targets = []
    for _ in range(draw(st.integers(0, 5))):
        if V and draw(st.booleans()):
            x = draw(st.lists(entry, min_size=len(V), max_size=len(V)))
            targets.append(tuple(sum(c * v[i] for c, v in zip(x, V)) for i in range(n)))
        else:
            targets.append(tuple(draw(st.lists(entry, min_size=n, max_size=n))))
    return V, targets


@settings(max_examples=300, deadline=None)
@given(case=basis_and_targets())
def test_integer_coordinates_match_one_fraction_solve_per_target(case):
    V, targets = case
    assert integer_coordinates(V, targets) == [solve_exact_coordinates(V, t) for t in targets]


def test_integer_coordinates_refuse_non_integral_and_outside_targets():
    V = [[2, 0, 0], [0, 1, 1]]
    assert integer_coordinates(V, [(4, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 0)]) == [
        (2, -1), None, None, (0, 0)]
    assert integer_coordinates([], [(0, 0), (1, 0)]) == [(), None]
    assert integer_coordinates(V, []) == []
    with pytest.raises(ValueError, match="linearly dependent"):
        integer_coordinates([[1, 2], [2, 4]], [(1, 2)])


# ---------------------------------------------------------------------------
# The integer eliminations against the Fraction rref they replaced


@st.composite
def linear_systems(draw):
    """(A, b) with int or Fraction entries: empty, square, wide or tall,
    often rank-deficient (a row copied or scaled) and so often inconsistent,
    with negative pivots as likely as positive ones."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    small = st.integers(-4, 4)
    entry = st.one_of(small, st.builds(Fraction, small, st.integers(1, 4))) if draw(st.booleans()) else small
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        k = draw(st.sampled_from([-2, -1, 1, Fraction(1, 2), 3]))
        A[i] = [k * x for x in A[j]]
    b = draw(st.lists(entry, min_size=m, max_size=m))
    return A, b


@settings(max_examples=400, deadline=None)
@given(case=linear_systems())
def test_solve_exact_matches_the_fraction_rref(case):
    A, b = case
    x = exactlin.solve_exact(A, b)
    assert x == rref_solve(A, b)
    assert x is None or all(type(v) is Fraction for v in x)


def rref_inverse_coordinates(V, targets):
    """integer_coordinates as it was: den * G^-1 read off one Fraction rref
    of [G | I], den the lcm of its denominators."""
    k = len(V)
    inv, den = [], 1
    if k:
        G = [[sum(a * b for a, b in zip(u, v)) for v in V] for u in V]
        R, pivots = rref([row + [int(i == j) for j in range(k)] for i, row in enumerate(G)])
        if pivots[:k] != list(range(k)):
            raise ValueError("basis rows are linearly dependent")
        den = lcm(*(x.denominator for row in R for x in row[k:]))
        inv = [[x.numerator * (den // x.denominator) for x in row[k:]] for row in R]
    out = []
    for t in targets:
        Vt = [sum(a * b for a, b in zip(v, t)) for v in V]
        x = tuple(sum(a * b for a, b in zip(row, Vt)) // den for row in inv)
        back = [sum(xi * v[c] for xi, v in zip(x, V)) for c in range(len(t))]
        out.append(x if back == list(t) else None)
    return out


@settings(max_examples=300, deadline=None)
@given(case=basis_and_targets())
def test_integer_coordinates_match_the_fraction_rref_inverse(case):
    V, targets = case
    assert integer_coordinates(V, targets) == rref_inverse_coordinates(V, targets)


@settings(max_examples=300, deadline=None)
@given(case=linear_systems())
def test_integer_inverse_matches_the_fraction_rref(case):
    A = [[x.numerator for x in row] for row in case[0]]
    n = len(A)
    if any(len(row) != n for row in A):
        return
    if rank_exact(A) < n:
        with pytest.raises(ValueError, match="singular"):
            exactlin.integer_inverse(A)
        return
    X, den = exactlin.integer_inverse(A)
    assert den == abs(exactlin.det_exact(A)) > 0 and all(type(x) is int for row in X for x in row)
    R, _ = rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(A)])
    assert [[Fraction(x, den) for x in row] for row in X] == [row[n:] for row in R]


def test_integer_inverse_scales_by_the_absolute_determinant():
    # X A = den I with den = |det A| > 0: X is the adjugate up to the sign
    # of det A.  On diag(2, 2) this is den 4, not the pivots' lcm 2.
    assert exactlin.integer_inverse([[2, 0], [0, -3]]) == ([[3, 0], [0, -2]], 6)
    assert exactlin.integer_inverse([[2, 0], [0, 2]]) == ([[2, 0], [0, 2]], 4)
    assert exactlin.integer_inverse([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    assert exactlin.integer_inverse([]) == ([], 1)


@pytest.mark.parametrize("A", [[[1, 0, 0]], [[1, 2, 3], [0, 1, 4]], [[1], [0]], [[1, 0], [0, 1], [1, 1]], [[]]],
                         ids=["wide-1x3", "wide-2x3", "tall-2x1", "tall-3x2", "1x0"])
def test_integer_inverse_refuses_a_non_square_matrix(A):
    # Unchecked, the elimination of [A | I] reads a wide A's pivots as an
    # "inverse", e.g. ([[0, 0, 1]], 1) for [[1, 0, 0]].
    with pytest.raises(ValueError, match="integer_inverse requires a square matrix"):
        exactlin.integer_inverse(A)


@settings(max_examples=300, deadline=None)
@given(case=linear_systems())
def test_exact_quotients_solve_in_the_integer_inverse(case):
    # Coordinates x of t in the rows of a square int basis B (x B = t) are
    # t (den B^-1) / den; a target off the integer span is refused, exactly
    # where the Gram oracle gives None.
    B = [[x.numerator for x in row] for row in case[0]]
    n = len(B)
    if any(len(row) != n for row in B) or rank_exact(B) < n:
        return
    X, den = exactlin.integer_inverse(B)
    Bt = [list(col) for col in zip(*X)]
    targets = [[x.numerator for x in row] for row in case[0]] + [[x.numerator for x in case[1]]]
    for t, expected in zip(targets, integer_coordinates(B, targets)):
        if expected is None:
            with pytest.raises(ValueError, match="off the lattice 0"):
                exactlin.exact_quotients(Bt, den, [t], lambda i: f"off the lattice {i}")
        else:
            (x,) = exactlin.exact_quotients(Bt, den, [t], lambda i: "unreachable")
            assert x == expected and all(type(v) is int for v in x)


def test_an_inexact_quotient_is_refused_with_the_index_of_its_vector():
    X, den = exactlin.integer_inverse([[2, 0], [0, 1]])          # ([[1, 0], [0, 2]], 2)
    assert exactlin.exact_quotients(X, den, [(4, 3), (-2, 0)], str) == [(2, 3), (-1, 0)]
    with pytest.raises(ValueError, match="^1$"):
        exactlin.exact_quotients(X, den, [(4, 3), (1, 0), (3, 0)], str)
    assert exactlin.exact_quotients([], 1, [(), ()], str) == [(), ()]
