"""Matrix product tensors for the chain states and their contractions.

Entry (i, j) of a site tensor carries the single physical vector |S, j-i>, so
an auxiliary path fixes the physical configuration and vice versa; exact
contraction is a walk over (S+1)^L paths with radical scalars that collapse
to Laurent polynomials along the way.
"""

from __future__ import annotations

import numpy as np

from .cgproj import check_budget
from .qnum import LaurentQ, RadScalar, q_binomial
from .weylrep import StateVector, weight_radicand


class MPSTensor:
    """(S+1) x (S+1) matrix of physical vectors, indices 1-based.

    `entry(i, j)` returns the monomial-gauge scalar of the only basis vector
    the entry touches (m = j - i); `spin_scalar(i, j)` dresses it with the
    sqrt-factorial normalization of the physical basis.
    """

    def __init__(self, S, scalars):
        self.S = S
        self._scalars = scalars  # dict (i, j) -> RadScalar, 1-based

    @property
    def dim(self):
        return self.S + 1

    def entry(self, i, j):
        return self._scalars[(i, j)]

    def spin_scalar(self, i, j):
        return self._scalars[(i, j)] * RadScalar.sqrt_of(
            weight_radicand(self.S, j - i))

    def phys_matrices(self, q0):
        """Spin-gauge entries as floats: array [m_index, i-1, j-1].

        m_index runs over the digit convention S - m.
        """
        S = self.S
        out = np.zeros((2 * S + 1, S + 1, S + 1))
        for (i, j), sc in self._scalars.items():
            m = j - i
            out[S - m, i - 1, j - 1] = self.spin_scalar(i, j).eval_float(q0)
        return out


def _site_tensor(S, e2, signed):
    """Site tensor with entry sign * q^(e2/2) * sqrt([S, i-1] [S, j-1]).

    e2(i, j) is twice the q exponent; when it is odd, one factor q stays under
    the radical, so scalars stay exact (such factors pair away in any closed
    contraction). The sign is (-1)^(S-i+1) when `signed`, else +1.
    """
    if S < 1:
        raise ValueError("need S >= 1")
    scalars = {}
    for i in range(1, S + 2):
        for j in range(1, S + 2):
            e = e2(i, j)
            sign = -1 if signed and (S - i + 1) % 2 else 1
            factors = (q_binomial(S, i - 1), q_binomial(S, j - 1))
            if e % 2:
                factors += (LaurentQ.q_power(1),)
            scalars[(i, j)] = RadScalar(LaurentQ.q_power(e // 2, sign), factors)
    return MPSTensor(S, scalars)


def tensor_g(S):
    """Site tensor with the q-power carried on the row index."""
    return _site_tensor(S, lambda i, j: (2 * i - 2 - S) * (S + 1), True)


def tensor_g_start(S):
    """Boundary tensor: no sign, no q-power, same radicals as g."""
    return _site_tensor(S, lambda i, j: 0, False)


def tensor_f(S):
    """Gauge-rotated site tensor with the q-power split over both indices."""
    return _site_tensor(S, lambda i, j: (i + j - 2 - S) * (S + 1), True)


def _state_from_radscalars(S, L, rad_amps):
    """Pull the common radical out as the state prefactor."""
    factor_keys = {rs._factor_key() for rs in rad_amps.values() if not rs.is_zero}
    if not factor_keys:
        return StateVector(S, L)
    if len(factor_keys) > 1:
        raise AssertionError("contraction produced mixed radicands")
    amps = {}
    common = None
    for k, rs in rad_amps.items():
        if rs.is_zero:
            continue
        common = rs.factors
        if not isinstance(rs.rat, LaurentQ):
            raise AssertionError("contraction produced a non-Laurent amplitude")
        amps[k] = rs.rat
    pref = RadScalar(LaurentQ.one(), common) if common else RadScalar.one()
    return StateVector(S, L, amps, pref)


def _walk(tensors, first, last, amps):
    """Add to amps, keyed by the m string, the product of entries along each
    auxiliary path from index `first` through `tensors` to index `last`."""
    n = len(tensors)

    def step(pos, idx, scalar, ms):
        if pos == n:
            key = tuple(ms)
            prev = amps.get(key)
            amps[key] = scalar if prev is None else prev + scalar
            return
        t = tensors[pos]
        for j in (last,) if pos == n - 1 else range(1, t.dim + 1):
            step(pos + 1, j, scalar * t.entry(idx, j), ms + [j - idx])

    step(0, first, RadScalar.one(), [])


def contract_pbc(tensor, L):
    """Trace over the auxiliary chain of one repeated site tensor."""
    if L < 1:
        raise ValueError("need L >= 1")
    S = tensor.S
    check_budget((2 * S + 1) ** L * 256, "contract_pbc(S=%d, L=%d)" % (S, L))
    amps = {}
    for start in range(1, tensor.dim + 1):
        _walk([tensor] * L, start, start, amps)
    return _state_from_radscalars(S, L, amps)


def contract_open(S, L, p1, p2):
    """Matrix element (p1, p2) of start tensor times L-1 bulk tensors."""
    if not (1 <= p1 <= S + 1 and 1 <= p2 <= S + 1):
        raise ValueError("boundary labels must lie in 1..S+1")
    if L < 1:
        raise ValueError("need L >= 1")
    check_budget((2 * S + 1) ** L * 256, "contract_open(S=%d, L=%d)" % (S, L))
    amps = {}
    _walk([tensor_g_start(S)] + [tensor_g(S)] * (L - 1), p1, p2, amps)
    return _state_from_radscalars(S, L, amps)


# -- numeric oracles ----------------------------------------------------


def dense_pbc_state(S, L, q0):
    """Physical amplitudes of the periodic chain as a dense float vector.

    Contracts the two chain halves separately and joins them with one GEMM
    over the (S+1)^2 pairs of auxiliary indices where they meet.
    """
    if L < 1:
        raise ValueError("need L >= 1")
    check_budget((2 * S + 1) ** L * 8 * 3, "dense_pbc_state(S=%d, L=%d)" % (S, L))
    W = tensor_g(S).phys_matrices(q0)  # [digit, i, j]

    def half(n):
        acc = np.eye(S + 1).reshape(S + 1, S + 1, 1)
        for _ in range(n):
            # acc[i, t, sigma], W[digit, t, j] -> [i, j, sigma*digit]
            acc = np.einsum("its,mtj->ijsm", acc, W)
            acc = acc.reshape(S + 1, S + 1, -1)
        return acc

    A = half(L // 2)
    B = half(L - L // 2)
    # amp[s, t] = sum over (i, j) of A[i, j, s] B[j, i, t], one GEMM
    return np.tensordot(A, B, axes=([0, 1], [1, 0])).reshape(-1)


def dense_pbc_two_point_sz(S, L, q0, r):
    """Brute-force <S^z_1 S^z_r> on the periodic chain from the dense state.

    Site 1 is the leading digit, so the joint distribution of sites 1 and r
    sums the squared amplitudes over the digits after r, then over those
    between, one column of r at a time to keep numpy's pairwise summation.
    """
    if not (2 <= r <= L):
        raise ValueError("need 2 <= r <= L")
    d = 2 * S + 1
    vec = dense_pbc_state(S, L, q0)
    rest = (vec * vec).reshape(d, d ** (r - 2), d, d ** (L - r)).sum(axis=3)
    joint = np.stack([rest[:, :, b].sum(axis=1) for b in range(d)], axis=1)
    m = S - np.arange(d, dtype=float)
    return float(m @ joint @ m / joint.sum())
