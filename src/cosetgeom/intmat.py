"""Exact integer matrix helpers for small square matrices.

Everything here works on tuples of tuples of Python ints, so results are
exact at any magnitude.  Sizes are tiny (the rank of a base group), which
keeps the cubic and quintic algorithms comfortably cheap.
"""

from __future__ import annotations

from operator import mul
from typing import List, Sequence, Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]
IntVector = Tuple[int, ...]


def identity_matrix(k: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_vec(A: IntMatrix, v: Sequence[int]) -> IntVector:
    return tuple([sum(map(mul, row, v)) for row in A])


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    k = len(A)
    return tuple(
        tuple(sum(A[i][l] * B[l][j] for l in range(k)) for j in range(k))
        for i in range(k)
    )


def mat_pow(A: IntMatrix, e: int) -> IntMatrix:
    if e < 0:
        raise ValueError("negative matrix power")
    result = identity_matrix(len(A))
    base = A
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def determinant(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    k = len(A)
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for i in range(k - 1):
        if M[i][i] == 0:
            for r in range(i + 1, k):
                if M[r][i] != 0:
                    M[i], M[r] = M[r], M[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
            M[r][i] = 0
        prev = M[i][i]
    return sign * M[k - 1][k - 1]


def _minor(A: IntMatrix, i: int, j: int) -> IntMatrix:
    return tuple(
        tuple(row[c] for c in range(len(A)) if c != j)
        for r, row in enumerate(A)
        if r != i
    )


def adjugate(A: IntMatrix) -> IntMatrix:
    """Adjugate matrix, satisfying adj(A) * A = det(A) * I."""
    k = len(A)
    if k == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * determinant(_minor(A, j, i)) for j in range(k))
        for i in range(k)
    )


def solve_exact(A: IntMatrix, v: Sequence[int], det: int, adj: IntMatrix):
    """Solve A w = v over the integers; return w or None if no integer solution."""
    num = mat_vec(adj, v)
    w = []
    for x in num:
        if x % det:
            return None
        w.append(x // det)
    return tuple(w)


def column_hnf(A: IntMatrix) -> IntMatrix:
    """Lower-triangular column Hermite form of a nonsingular integer matrix.

    The columns of the result generate the same lattice as the columns of A,
    and the diagonal entries are positive.  Used to pick canonical coset
    representatives modulo the lattice.
    """
    k = len(A)
    cols = [[A[i][j] for i in range(k)] for j in range(k)]
    for i in range(k):
        # gcd-eliminate row i across columns i..k-1 until one pivot remains
        while True:
            nonzero = [j for j in range(i, k) if cols[j][i] != 0]
            if not nonzero:
                raise ValueError("matrix is singular")
            pivot = min(nonzero, key=lambda j: abs(cols[j][i]))
            cols[i], cols[pivot] = cols[pivot], cols[i]
            done = True
            for j in range(i + 1, k):
                if cols[j][i] != 0:
                    q = cols[j][i] // cols[i][i]
                    for r in range(k):
                        cols[j][r] -= q * cols[i][r]
                    if cols[j][i] != 0:
                        done = False
            if done:
                break
        if cols[i][i] < 0:
            for r in range(k):
                cols[i][r] = -cols[i][r]
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def reduce_mod_lattice(H: IntMatrix, v: Sequence[int]) -> IntVector:
    """Canonical representative of v modulo the lattice spanned by H's columns.

    H must be a lower-triangular column Hermite form.  Coordinates are folded
    top to bottom into [0, H[i][i]).
    """
    k = len(H)
    r = list(v)
    for i in range(k):
        c = r[i] // H[i][i]
        if c:
            for row in range(i, k):
                r[row] -= c * H[row][i]
    return tuple(r)


def _l1_shell(k: int, radius: int) -> List[IntVector]:
    """Every integer vector of length k with l1 norm exactly radius."""
    if k == 1:
        return [(radius,), (-radius,)] if radius else [(0,)]
    return [
        (head,) + tail
        for head in range(-radius, radius + 1)
        for tail in _l1_shell(k - 1, radius - abs(head))
    ]


def l1_covering_radius(H: IntMatrix) -> int:
    """Largest l1 distance from a point of Z^k to the lattice of H's columns.

    H must be a lower-triangular column Hermite form, so the lattice has
    |det H| residue classes.  Shells of growing l1 norm are walked until
    every class has appeared; the shell that shows the last class is the
    largest minimal norm of a class, which is the covering radius.
    """
    index = 1
    for i in range(len(H)):
        index *= H[i][i]
    seen = set()
    radius = 0
    while True:
        seen.update(reduce_mod_lattice(H, v) for v in _l1_shell(len(H), radius))
        if len(seen) == index:
            return radius
        radius += 1
