"""Fraction-free exact linear algebra over Laurent-polynomial matrices.

Bareiss determinants and adjugates, kept as a reference for the tests only:
no module of the package imports this one. The two-site weight sectors are
inverted by orthogonal duals (`cgproj`), and the top eigenvector of the
equal-index transfer block has a closed form (`transfercorr`).
"""

from __future__ import annotations

from .qnum import LaurentQ


def bareiss_det(matrix):
    """Exact determinant of a square LaurentQ matrix (Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return LaurentQ.one()
    m = [row[:] for row in matrix]
    prev = LaurentQ.one()
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return LaurentQ.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).divide_exact(prev)
            m[i][k] = LaurentQ.zero()
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def _minor(matrix, drop_row, drop_col):
    return [
        [v for j, v in enumerate(row) if j != drop_col]
        for i, row in enumerate(matrix)
        if i != drop_row
    ]


def adjugate(matrix):
    """Exact adjugate: adj(M) @ M = M @ adj(M) = det(M) * I."""
    n = len(matrix)
    if n == 1:
        return [[LaurentQ.one()]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            d = bareiss_det(_minor(matrix, j, i))
            adj[i][j] = -d if (i + j) % 2 else d
    return adj

