"""Matrix product tensors for the chain states and their contractions.

Entry (i, j) of a site tensor carries the single physical vector |S, j-i>, so
an auxiliary path fixes the physical configuration and vice versa. Along a
path every interior radicand [S, i-1] occurs twice and the half-integer q
powers pair up, so exact contraction is a walk over (S+1)^L paths in plain
Laurent polynomials; only an open chain's two end radicands stay under one
square root, the state's prefactor.

The dense float oracles contract the chain's two halves from the same
entries. The two-point one forms and squares every amplitude that the site
tensor's S^z support allows, and the rest are zero by a support check: each
call checks that W[m] is zero off j - i = m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cgproj import charge_chain_state, check_budget, open_prefactor
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
    charge_chain_state("contract_pbc", S, L)
    amps = {}
    for start in range(1, tensor.dim + 1):
        # the trace closes the path, so its end radicands are one full factor
        _walk([tensor] * L, start, start, q_binomial(S, start - 1), amps)
    return StateVector(S, L, amps)


def contract_open(S, L, p1, p2):
    """Matrix element (p1, p2) of start tensor times L-1 bulk tensors; the
    end radicands [S, p1-1] [S, p2-1] are the state's prefactor."""
    prefactor = open_prefactor(S, p1, p2)
    if L < 1:
        raise ValueError("need L >= 1")
    charge_chain_state("contract_open", S, L)
    amps = {}
    _walk([tensor_g_start(S)] + [tensor_g(S)] * (L - 1), p1, p2,
          LaurentQ.one(), amps)
    return StateVector(S, L, amps, prefactor)


# -- numeric oracles ----------------------------------------------------


_BLOCK = 1 << 18  # amplitudes per block of the streamed two-point pass, 2 MB


def _dense_halves(W, L):
    """Sites 1..h and h+1..L, h = L // 2, of the site matrices W [digit, i, j]
    contracted as F (K x d^h) and B (K x d^(L-h)), K = (S+1)^2: row
    i (S+1) + j of a half holds its strings that enter at auxiliary index i
    and leave at j, its first site the leading digit. The amplitude of s t
    is the sum over (i, j) of F[i (S+1) + j, s] B[j (S+1) + i, t]. For even
    L both are the one h-site half."""
    S = W.shape[1] - 1

    def half(n):
        acc = np.eye(S + 1).reshape(S + 1, S + 1, 1)
        for _ in range(n):
            # acc[i, t, sigma], W[digit, t, j] -> [i, j, sigma*digit]
            acc = np.einsum("its,mtj->ijsm", acc, W, order="C")
            acc = acc.reshape(S + 1, S + 1, -1)
        return acc.reshape((S + 1) ** 2, -1)

    h = L // 2
    B = half(L - h)
    return B if 2 * h == L else half(h), B


def dense_pbc_state(S, L, q0):
    """Physical amplitudes of the periodic chain as a dense float vector: the
    two `_dense_halves` joined by one GEMM. Raises ValueError when an
    amplitude is not finite in floats (q far from 1)."""
    if L < 1:
        raise ValueError("need L >= 1")
    check_budget((2 * S + 1) ** L * 8 * 3, "dense_pbc_state(S=%d, L=%d)" % (S, L))
    with np.errstate(over="ignore", invalid="ignore"):
        F, B = _dense_halves(tensor_g(S).phys_matrices(q0), L)
        # F's rows in B's order: row j (S+1) + i of A is row i (S+1) + j of F
        A = F.reshape(S + 1, S + 1, -1).transpose(1, 0, 2).reshape(len(B), -1)
        vec = (A.T @ B).reshape(-1)
    if not np.isfinite(vec).all():
        raise ValueError("dense state is not finite in floats at S=%d, L=%d, "
                         "q=%s" % (S, L, q0))
    return vec


def _check_charge_support(W):
    """Raise AssertionError unless every entry of the site matrices W
    [digit, i, j] off j - i = m, m = S - digit, is exactly 0.

    W is checked rather than the halves: far from q = 1 the halves' zero
    entries can be 0 * inf = NaN. W's nonzero entries are counted against
    those on its bands, diagonal m of W[S - m], so no mask or copy of W is
    formed (a mask's broadcast comparison held 2.2 times W in numpy)."""
    S = W.shape[1] - 1
    band = sum(np.count_nonzero(W[S - m].diagonal(m)) for m in range(-S, S + 1))
    if np.count_nonzero(W) != band:
        raise AssertionError("site tensor has an entry off j - i = m at S=%d"
                             % S)


def _charges(S, n):
    """Total m of each n-site digit string, site 1 the leading digit."""
    tot = np.zeros(1, dtype=int)
    for _ in range(n):
        tot = np.add.outer(tot, S - np.arange(2 * S + 1)).ravel()
    return tot


def _charge_counts(S, n):
    """Number of n-site digit strings of each total m = -nS..nS, as ints."""
    counts = [1]
    for _ in range(n):
        counts = [sum(counts[max(0, k - 2 * S):k + 1])
                  for k in range(len(counts) + 2 * S)]
    return counts


def dense_pbc_two_point_sz(S, L, q0, r):
    """Brute-force <S^z_1 S^z_r> on the periodic chain from the dense state.

    Every amplitude that the site tensor's S^z support allows is formed and
    squared, and the rest are zero by a support check. Entry (i, j) of W[m]
    is nonzero only where j - i = m (`_check_charge_support`, on every call),
    so with h = L // 2 an amplitude joins half strings s and t of total m
    M(s) = delta and M(t) = -delta over the S+1-|delta| auxiliary pairs
    (j, i) with j - i = delta, and its total S^z is 0. For each delta in
    -S..S the pairs' rows of the two `_dense_halves` are gathered once, and
    their join runs in chunks of at most `_BLOCK` amplitudes (one row at
    least) that stay within one site-1 digit; each squared chunk is reduced
    at once, to row sums when r <= h, else to column sums keyed by the
    site-1 digit. The joint of sites 1 and r is one reshape-sum of that
    marginal. Memory is O(K d^(L/2) + block).
    """
    if not (2 <= r <= L):
        raise ValueError("need 2 <= r <= L")
    d = 2 * S + 1
    h = L // 2
    K = (S + 1) ** 2
    ncols = d ** (L - h)
    cs, ct = _charge_counts(S, h), _charge_counts(S, L - h)
    # rows under one site-1 digit and one delta: at most the most strings of
    # one total m on sites 2..h
    group = max(_charge_counts(S, h - 1))
    # what the pass holds, in floats: the halves and their charges, one of
    # each for even L; the marginal; for one delta its pairs' rows of the
    # halves, its indices, its largest chunk of c rows and that chunk's sums,
    # or, while the h-site half is built, that half at h-1 sites; W; and 2048
    # for the arrays' headers
    block = max((S + 2 - abs(delta)) * (ns + nt) + c * nt
                + (2 * nt if r > h else c)
                for delta in range(-S, S + 1)
                for ns, nt in [(cs[h * S + delta], ct[(L - h) * S - delta])]
                for c in [min(max(1, _BLOCK // nt), group)])
    # and W's exact evaluation, in bytes: per entry, its q-free layout (at
    # most 256 B) and its share of the q-factorial integers, O(S) of about
    # S^2 log2(nd) bits at q = n/d (measured below 0.6 S log2(nd) B)
    n, dq = Fraction(q0).as_integer_ratio()
    exact = K * (256 + S * (n * dq).bit_length())
    check_budget(8 * ((K + 1) * (d ** h + ncols * (L % 2))
                      + (d ** h if r <= h else d * ncols)
                      + max(block, K * d ** (h - 1)) + d * K + 2048) + exact,
                 "dense_pbc_two_point_sz(S=%d, L=%d)" % (S, L))
    W = tensor_g(S).phys_matrices(q0)
    _check_charge_support(W)
    ms = _charges(S, h)
    mt = ms if 2 * h == L else _charges(S, L - h)
    marg = np.zeros(d ** h) if r <= h else np.zeros((d, ncols))
    # far from q = 1 the squares overflow or the marginals underflow; only
    # the scalar result is checked
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        F, B = _dense_halves(W, L)
        for delta in range(-S, S + 1):
            # the n pairs (j, i) with j - i = delta, j ascending from j0:
            # rows j (S+2) - delta of B and j (S+2) - delta (S+1) of F
            n, j0 = S + 1 - abs(delta), max(delta, 0)
            sidx = np.flatnonzero(ms == delta)
            tidx = np.flatnonzero(mt == -delta)
            As = F[j0 * (S + 2) - delta * (S + 1)::S + 2][:n, sidx]
            Bt = B[j0 * (S + 2) - delta::S + 2][:n, tidx]
            rows = max(1, _BLOCK // len(tidx))
            edges = np.searchsorted(sidx, np.arange(d + 1) * d ** (h - 1))
            for digit in range(d):
                for lo in range(edges[digit], edges[digit + 1], rows):
                    hi = min(lo + rows, edges[digit + 1])
                    blk = As[:, lo:hi].T @ Bt
                    np.square(blk, out=blk)
                    if r <= h:
                        marg[sidx[lo:hi]] = blk.sum(axis=1)
                    else:
                        marg[digit, tidx] += blk.sum(axis=0)
                    del blk  # before the next chunk's product is formed
            del sidx, tidx, As, Bt  # before the next delta's are gathered
        skip = r - 2 if r <= h else r - h - 1
        joint = marg.reshape(d, d ** skip, d, -1).sum(axis=(1, 3))
        m = S - np.arange(d, dtype=float)
        val = float(m @ joint @ m / joint.sum())
    if not math.isfinite(val):
        raise ValueError("<S^z S^z> is not finite in floats at S=%d, L=%d, q=%s"
                         % (S, L, q0))
    return val
