"""Exact rational linear algebra over arbitrary-precision integers.

Inputs are ints or ``fractions.Fraction``s; every elimination runs on
integer rows (denominators cleared, fraction-free steps), and Fractions are
built only for returned quotients.  Inverse, determinant and solve share
one fraction-free Gauss-Jordan sweep (Bareiss-Jordan), whose every division
is exact by Sylvester's identity.  Coordinates in a square integer basis
come from one ``integer_inverse`` of it and ``exact_quotients``, which
refuses a remainder.  Matrices and vectors are plain lists; nothing here
ever rounds.
"""

from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd, lcm, prod
from operator import add, floordiv, mod, mul


def _integer_rows(M):
    """Each row of ints and Fractions times the lcm of its denominators,
    as a list of ints; a row scaled by a nonzero constant keeps its
    solutions."""
    out = []
    for row in M:
        d = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out


def _eliminate(R):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of the int rows R,
    in place.

    At pivot (r, c) with value p every other row, the earlier pivot rows
    included, becomes (p * row - row[c] * R[r]) // prev, prev the previous
    pivot (1 at the start); by Sylvester's identity each entry is then a
    minor of the input, so the division is exact.  Returns (pivots, p,
    sign): the pivot column indices, the value every pivot row ends
    holding at its pivot, so that R / p is the reduced row echelon form,
    and the parity of the row swaps.  For a square matrix of full rank,
    det = sign * p."""
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    prev, sign = 1, 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if R[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            R[r], R[pr] = R[pr], R[r]
            sign = -sign
        prow = R[r]
        p = prow[c]
        for i in range(nrows):
            if i != r:
                f = R[i][c]
                R[i] = [(p * x - f * y) // prev for x, y in zip(R[i], prow)]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, prev, sign


def solve_exact(A, b):
    """Solve A x = b exactly; entries are ints or Fractions.

    Returns the solution vector of Fractions, or None when the system is
    inconsistent.  When solutions form an affine space, free variables are
    set to zero.  The elimination runs on integer rows.
    """
    if len(A) != len(b):
        raise ValueError("A must have as many rows as b has entries")
    if not A:
        return []
    ncols = len(A[0])
    R = _integer_rows([list(row) + [bv] for row, bv in zip(A, b)])
    pivots, p, _ = _eliminate(R)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = Fraction(R[r][ncols], p)
    return x


def integer_inverse(A):
    """(X, den) with X = den * A^-1 an int matrix and den = |det A|, from
    one fraction-free elimination of [A | I]: X is the adjugate of A up to
    the sign of det A.  A is a square int matrix, and ValueError is raised
    when it is not square or is singular."""
    k = len(A)
    if any(len(row) != k for row in A):
        raise ValueError("integer_inverse requires a square matrix")
    R = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(A)]
    pivots, p, _ = _eliminate(R)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    u = 1 if p > 0 else -1
    return [[u * x for x in row[k:]] for row in R], u * p


def exact_quotients(X, den, vectors, refusal):
    """The int tuples X v / den for v in vectors.  A quotient with a
    remainder raises ValueError(refusal(i)), i the smallest index of a
    vector with one.  Row k of X v over all vectors is summed column by
    column, one C-level map per nonzero X[k][j]."""
    vectors = list(vectors)
    if not X:
        return [()] * len(vectors)
    rows = column_products(X, vectors)
    if den != 1:
        rems = [list(map(mod, r, repeat(den))) for r in rows]
        if any(map(any, rems)):
            # The first nonzero remainder of each row; the smallest is the vector refused.
            raise ValueError(refusal(min(next(compress(count(), r)) for r in rems if any(r))))
        rows = [list(map(floordiv, r, repeat(den))) for r in rows]
    return list(zip(*rows))


def column_products(X, vectors):
    """The rows of X V^T for the vectors V: row k lists (X v)_k over v, as
    sum_j X[k][j] (column j of the vectors), one C-level map per nonzero
    entry of X."""
    cols = list(zip(*vectors))
    out = []
    for row in X:
        acc = [0] * len(vectors)
        for x, col in zip(row, cols):
            if x:
                acc = list(map(add, acc, map(mul, col, repeat(x))))
        out.append(acc)
    return out


def det_exact(A):
    """Exact determinant: sign * p from one fraction-free elimination."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("det_exact requires a square matrix")
    # Clear denominators row by row so the elimination stays in integers.
    scale = prod(lcm(*(x.denominator for x in row)) for row in A)
    pivots, p, sign = _eliminate(_integer_rows(A))
    return Fraction(sign * p if len(pivots) == n else 0, scale)


def smith_normal_form(A):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Returns the full diagonal of the Smith normal form: nonzero factors
    first, then zeros for the free part.  The empty matrix gives [].
    """
    return _snf(A)[0]


def _snf(A, want_v=False):
    """Smith normal form diagonal; optionally the right transform V.

    V is unimodular with A V in column-reduced form, so the columns of V
    beyond the rank span the integer kernel of A.
    """
    M = [[int(x) for x in row] for row in A]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] if want_v else None
    diag = []
    t = 0
    while t < min(nrows, ncols):
        # The first smallest nonzero |entry| of the remaining block in
        # row-major order: (|entry|, i, j) tuples break ties by position.
        piv = min(
            ((abs(x), i, j) for i in range(t, nrows) for j, x in enumerate(M[i][t:], t) if x),
            default=None,
        )
        if piv is None:
            break
        _, i, j = piv
        M[t], M[i] = M[i], M[t]
        if j != t:
            for row in M:
                row[t], row[j] = row[j], row[t]
            if want_v:
                for row in V:
                    row[t], row[j] = row[j], row[t]
        # Reduce column t then row t by the pivot; a remainder left in
        # either sends the block back to the pivot search at the same t.
        done = True
        for i in range(t + 1, nrows):
            q = M[i][t] // M[t][t]
            if q:
                M[i] = [a - q * b for a, b in zip(M[i], M[t])]
            if M[i][t] != 0:
                done = False
        for j in range(t + 1, ncols):
            q = M[t][j] // M[t][t]
            if q:
                for row in M:
                    row[j] -= q * row[t]
                if want_v:
                    for row in V:
                        row[j] -= q * row[t]
            if M[t][j] != 0:
                done = False
        if done:
            diag.append(abs(M[t][t]))
            t += 1
    # Enforce the divisibility chain d_i | d_{i+1}.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            l = diag[i] * diag[j] // g if g else 0
            diag[i], diag[j] = g, l
    diag += [0] * (min(nrows, ncols) - len(diag))
    return diag, V


def integer_kernel(A):
    """Z-basis of the integer kernel {x : A x = 0} of an integer matrix.

    A is given as a list of rows; kernel vectors have one entry per column.
    """
    if not A:
        return []
    diag, V = _snf(A, want_v=True)
    r = sum(1 for d in diag if d != 0)
    ncols = len(A[0])
    return [[V[i][j] for i in range(ncols)] for j in range(r, ncols)]
