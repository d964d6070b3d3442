"""Matrix product tensors for the chain states and their contractions.

Entry (i, j) of a site tensor carries the single physical vector |S, j-i>, so
an auxiliary path fixes the physical configuration and vice versa. Along a
path every interior radicand [S, i-1] occurs twice and the half-integer q
powers pair up, so exact contraction is a walk over (S+1)^L paths in plain
Laurent polynomials; only an open chain's two end radicands stay under one
square root, the state's prefactor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cgproj import check_budget
from .qnum import LaurentQ, q_binomial, q_factorials
from .weylrep import StateVector


class MPSTensor:
    """(S+1) x (S+1) site tensor, indices 1-based.

    Entry (i, j) is sign * q^(e2/2) * sqrt([S, i-1] [S, j-1]) times the
    monomial-gauge basis vector m = j - i; `entry(i, j)` returns (sign, e2),
    since the radicand is fixed by the indices.
    """

    def __init__(self, S, entries):
        self.S = S
        self._entries = entries  # dict (i, j) -> (sign, e2), 1-based

    @property
    def dim(self):
        return self.S + 1

    def entry(self, i, j):
        return self._entries[(i, j)]

    def phys_matrices(self, q0):
        """Spin-gauge entries as floats: array [m_index, i-1, j-1], each
        entry dressed with the sqrt-factorial normalization of its basis
        vector. m_index runs over the digit convention S - m.

        Each entry is radical_float of its factors: the paired part rounded
        once from its exact value, then times each kept factor's root in
        the normal form's order. The normal forms do not depend on q, so
        they come from _radical_layout, and each distinct radicand is
        evaluated once per call, from its q-factorials."""
        S = self.S
        q0 = Fraction(q0)
        radicands, rows = _radical_layout(S, tuple(self._entries.items()))
        table = q_factorials(q0)
        ratios = [table.ratio(*name) for name in radicands]
        # every radicand is kept in some entry; each root is that of the
        # radicand's eval_float
        roots = [math.sqrt(num / den) for num, den in ratios]
        out = np.zeros((2 * S + 1, S + 1, S + 1))
        n, d = q0.numerator, q0.denominator
        for slot, i, j, sign, k, paired, kept in rows:
            # sign * q0^k, as LaurentQ.q_power(k, sign).eval_ratio gives it
            num, den = ((sign * n ** k, d ** k) if k >= 0
                        else (sign * d ** -k, n ** -k))
            for t in paired:
                num, den = num * ratios[t][0], den * ratios[t][1]
            acc = num / den
            for t in kept:
                acc *= roots[t]
            out[slot, i, j] = acc
        return out


@lru_cache(maxsize=None)
def _radical_layout(S, entries):
    """The q-free part of phys_matrices for the site tensor with these
    entries ((i, j), (sign, e2)), as (radicands, rows).

    A row holds an entry's slot S - m, i-1 and j-1, its sign, its q exponent
    e2 // 2 and the radical_form of its factors [S, i-1], [S, j-1], the
    weight radicand [S+m]! [S-m]! of m = j - i and, for odd e2, q, as
    (paired, kept) indices into the distinct radicands. Each radicand is
    named by the arguments of QFactorials.ratio that give it, never
    expanded: [S, k] = [S, S-k] as ((S,), (k, S-k)) with k <= S-k, the
    weight as ((S+|m|, S-|m|),) and q as ((), (), 1); units drop out.

    Only the two binomials can be equal, so they pair when they are. The
    kept factors come in radical_form's order, by lowest exponent: the
    weight's -(S^2+m^2-S) lies below every binomial's -k(S-k) for S >= 2,
    binomials follow by decreasing k(S-k), and q's is 1.
    """
    index = {}  # name -> its position among the distinct radicands
    rows = []
    for (i, j), (sign, e2) in entries:
        m = abs(j - i)
        binom = [((S,), (k, S - k)) for k in sorted(
            (min(k, S - k) for k in (i - 1, j - 1) if 0 < k < S), reverse=True)]
        paired = binom[:1] if len(binom) == 2 and binom[0] == binom[1] else []
        # an odd e2 leaves one factor q under the radical
        kept = ([((S + m, S - m),)] * (S + m > 1) + binom * (not paired)
                + [((), (), 1)] * (e2 % 2))
        rows.append((S + i - j, i - 1, j - 1, sign, e2 // 2,
                     *(tuple(index.setdefault(f, len(index)) for f in fs)
                       for fs in (paired, kept))))
    return tuple(index), tuple(rows)


def _site_tensor(S, e2, signed):
    """Site tensor with entry sign * q^(e2/2) * sqrt([S, i-1] [S, j-1]).

    e2(i, j) is twice the q exponent. The sign is (-1)^(S-i+1) when
    `signed`, else +1.
    """
    if S < 1:
        raise ValueError("need S >= 1")
    return MPSTensor(S, {
        (i, j): (-1 if signed and (S - i + 1) % 2 else 1, e2(i, j))
        for i in range(1, S + 2) for j in range(1, S + 2)})


def tensor_g(S):
    """Site tensor with the q-power carried on the row index."""
    return _site_tensor(S, lambda i, j: (2 * i - 2 - S) * (S + 1), True)


def tensor_g_start(S):
    """Boundary tensor: no sign, no q-power, same radicals as g."""
    return _site_tensor(S, lambda i, j: 0, False)


def tensor_f(S):
    """Gauge-rotated site tensor with the q-power split over both indices."""
    return _site_tensor(S, lambda i, j: (i + j - 2 - S) * (S + 1), True)


def _walk(tensors, first, last, scalar, amps):
    """Add to amps, keyed by the m string, the product of entries along each
    auxiliary path from index `first` through `tensors` to index `last`,
    times `scalar`, without the end radicands sqrt([S, first-1] [S, last-1])."""
    n = len(tensors)
    S = tensors[0].S
    binom = {j: q_binomial(S, j - 1) for j in range(1, S + 2)}

    def step(pos, idx, scalar, sign, e2, ms):
        if pos == n:
            if e2 % 2:
                raise AssertionError("half-integer q power on an auxiliary path")
            key = tuple(ms)
            amp = scalar.shift(e2 // 2) if sign > 0 else -scalar.shift(e2 // 2)
            prev = amps.get(key)
            amps[key] = amp if prev is None else prev + amp
            return
        t = tensors[pos]
        for j in (last,) if pos == n - 1 else range(1, t.dim + 1):
            s, e = t.entry(idx, j)
            # an interior index meets its radicand twice
            step(pos + 1, j, scalar if pos == n - 1 else scalar * binom[j],
                 sign * s, e2 + e, ms + [j - idx])

    step(0, first, scalar, 1, 0, [])


def contract_pbc(tensor, L):
    """Trace over the auxiliary chain of one repeated site tensor."""
    if L < 1:
        raise ValueError("need L >= 1")
    S = tensor.S
    check_budget((2 * S + 1) ** L * 256, "contract_pbc(S=%d, L=%d)" % (S, L))
    amps = {}
    for start in range(1, tensor.dim + 1):
        # the trace closes the path, so its end radicands are one full factor
        _walk([tensor] * L, start, start, q_binomial(S, start - 1), amps)
    return StateVector(S, L, amps)


def contract_open(S, L, p1, p2):
    """Matrix element (p1, p2) of start tensor times L-1 bulk tensors; the
    end radicands [S, p1-1] [S, p2-1] are the state's prefactor."""
    if not (1 <= p1 <= S + 1 and 1 <= p2 <= S + 1):
        raise ValueError("boundary labels must lie in 1..S+1")
    if L < 1:
        raise ValueError("need L >= 1")
    check_budget((2 * S + 1) ** L * 256, "contract_open(S=%d, L=%d)" % (S, L))
    amps = {}
    _walk([tensor_g_start(S)] + [tensor_g(S)] * (L - 1), p1, p2,
          LaurentQ.one(), amps)
    return StateVector(S, L, amps, (q_binomial(S, p1 - 1), q_binomial(S, p2 - 1)))


# -- numeric oracles ----------------------------------------------------


_BLOCK = 1 << 18  # amplitudes per block of the streamed two-point pass, 2 MB


def _dense_halves(S, L, q0):
    """Sites 1..h and h+1..L, h = L // 2, contracted as A (K x d^h) and
    B (K x d^(L-h)) over the K = (S+1)^2 auxiliary pairs where they meet, so
    A.T @ B holds the amplitudes with site 1 as the leading digit."""
    W = tensor_g(S).phys_matrices(q0)  # [digit, i, j]

    def half(n):
        acc = np.eye(S + 1).reshape(S + 1, S + 1, 1)
        for _ in range(n):
            # acc[i, t, sigma], W[digit, t, j] -> [i, j, sigma*digit]
            acc = np.einsum("its,mtj->ijsm", acc, W)
            acc = acc.reshape(S + 1, S + 1, -1)
        return acc

    # amp[s, t] = sum over (i, j) of A[i, j, s] B[j, i, t]
    K = (S + 1) ** 2
    return (half(L // 2).transpose(1, 0, 2).reshape(K, -1),
            half(L - L // 2).reshape(K, -1))


def dense_pbc_state(S, L, q0):
    """Physical amplitudes of the periodic chain as a dense float vector: the
    two `_dense_halves` joined by one GEMM. Raises ValueError when an
    amplitude is not finite in floats (q far from 1)."""
    if L < 1:
        raise ValueError("need L >= 1")
    check_budget((2 * S + 1) ** L * 8 * 3, "dense_pbc_state(S=%d, L=%d)" % (S, L))
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = _dense_halves(S, L, q0)
        vec = (A.T @ B).reshape(-1)
    if not np.isfinite(vec).all():
        raise ValueError("dense state is not finite in floats at S=%d, L=%d, "
                         "q=%s" % (S, L, q0))
    return vec


def dense_pbc_two_point_sz(S, L, q0, r):
    """Brute-force <S^z_1 S^z_r> on the periodic chain from the dense state.

    Every amplitude is formed and squared, but the d^L state is never held:
    the halves' join A.T @ B runs d^k rows (fixing sites 1..h) at a time,
    about `_BLOCK` amplitudes within one site-1 digit, and each squared
    block is reduced at once, to row sums when r <= h, else to column sums
    keyed by the site-1 digit. The joint of sites 1 and r is one reshape-sum
    of that marginal. Memory is O(K d^(L/2) + block).
    """
    if not (2 <= r <= L):
        raise ValueError("need 2 <= r <= L")
    d = 2 * S + 1
    h = L // 2
    ncols = d ** (L - h)
    rows = d ** max((k for k in range(h) if d ** k * ncols <= _BLOCK),
                    default=0)
    # the two halves, one block and the weight arrays
    check_budget(8 * ((S + 1) ** 2 * (d ** h + ncols) + rows * ncols
                      + d ** h + d * ncols),
                 "dense_pbc_two_point_sz(S=%d, L=%d)" % (S, L))
    marg = np.zeros(d ** h) if r <= h else np.zeros((d, ncols))
    # far from q = 1 the squares overflow or the marginals underflow; only
    # the scalar result is checked
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A, B = _dense_halves(S, L, q0)
        for lo in range(0, d ** h, rows):
            blk = A[:, lo:lo + rows].T @ B
            np.square(blk, out=blk)
            if r <= h:
                marg[lo:lo + rows] = blk.sum(axis=1)
            else:
                marg[lo // d ** (h - 1)] += blk.sum(axis=0)
        skip = r - 2 if r <= h else r - h - 1
        joint = marg.reshape(d, d ** skip, d, -1).sum(axis=(1, 3))
        m = S - np.arange(d, dtype=float)
        val = float(m @ joint @ m / joint.sum())
    if not math.isfinite(val):
        raise ValueError("<S^z S^z> is not finite in floats at S=%d, L=%d, q=%s"
                         % (S, L, q0))
    return val
