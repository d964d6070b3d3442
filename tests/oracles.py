"""Oracles kept beside the code they check: exact dict oracles for the
spectrum certificate, and the per-amplitude float loop of chain states.

`power_sums_match` checks the closed-form spectrum of one core block by its
power sums, as exact Laurent products, so the tests can compare verdicts
with `transfercorr.conjecture_exact_certificate`, which proves the same
spectrum through a lowering operator. `factors_annihilate` and
`conjecture_moment_identity` check what the proof implies (Cayley-Hamilton
and the summed moment rule) by an independent route. They read
`transfercorr` through the module, so a test that patches its core or its
eigenvalues patches them here too.

`float_amplitudes` rounds every amplitude of a state on its own, with no
sharing between equal amplitudes, so the tests can compare it bit for bit
with `StateVector.float_values` and with the CLI's cached chains.

`dense_pbc_two_point_sz` is the brute-force <S^z_1 S^z_r> that joins the
two `mpscore._dense_halves` over every auxiliary pair and every amplitude,
the zeros that S^z conservation forces included, `_BLOCK` amplitudes at a
time, so the tests can compare the charge-blocked pass of `mpscore` with it.

`transfer_diag_block` is the equal-index block of G as D0 N0 D0^-1, the
delta = 0 block N0 of the rational similar core conjugated by
D0 = diag([S,a]) with exact divisions, so the tests can compare it key for
key with `transfercorr.transfer_diag_block_exact`, which reads the entry
rule's a = b rows instead.

`two_point_finite` and `two_point_thermo` are the per-r correlators: each r
looks up the spectral data, forms both images and, on the finite chain,
sum_n w_n^L anew, so the tests can compare the one-pass r ranges of
`transfercorr` with them bit for bit.

`sector_duals` builds the dual rows of the two-site change of basis the
way `cgproj.sector_system` built them before it kept its orbit vectors
primitive: the orbit lowered with no content removed, the full pair weights,
then each row W o B over the gcd of its entries; the tests compare the two
key for key.

`radical_layout` pairs the site-tensor radicands as expanded polynomials,
sorted by their coefficients, so the tests can compare it with
`mpscore._radical_layout`, which names each radicand by its q-factorials
and orders them by a proof instead. `eval_ratio` forms each term's powers
of n and d once per call, in a table, and sums the terms one by one, so the
tests can compare it with `LaurentQ.eval_ratio`'s Horner pass.
"""

import math
from fractions import Fraction

import numpy as np

from qvbs import mpscore, transfercorr
from qvbs.cgproj import _divide_content, highest_weight
from qvbs.qnum import LaurentQ, q_binomial, radical_float
from qvbs.weylrep import XMINUS, coproduct_apply, poly_to_spin, weight_radicand


def float_amplitudes(state, q0):
    """Physical amplitudes of state at q0 as floats keyed by basis state,
    each exact amplitude evaluated anew and multiplied, in site order, by
    the per-site roots; a non-finite value raises ValueError."""
    q0 = Fraction(q0)
    pref = radical_float(state.prefactor, q0)
    root = {m: math.sqrt(weight_radicand(state.S, m).eval_float(q0))
            for m in range(-state.S, state.S + 1)}
    out = {}
    for k, a in state.amps.items():
        val = a.eval_float(q0) * pref
        for m in k:
            val *= root[m]
        if not math.isfinite(val):
            raise ValueError("amplitude of %s is not finite at q=%s" % (k, q0))
        out[k] = val
    return out


def sector_duals(S):
    """{w: dual rows, J ascending} of the two-site change of basis: orbit
    vector t of spin J is DX-^t hw_J as lowered, with no content removed,
    and the dual of its column is W o B[:, J] over the gcd of its entries,
    W the full pair weights [S+m1]! [S-m1]! [S+m2]! [S-m2]!."""
    amps = {}
    for J in range(2 * S + 1):
        v = highest_weight(S, J)
        for t in range(2 * J + 1):
            amps[(J, t)] = poly_to_spin(v, S, (1, 2)).amps
            v = coproduct_apply(v, XMINUS, (1, 2))
    out = {}
    for w in range(-2 * S, 2 * S + 1):
        pairs = [(m1, w - m1)
                 for m1 in range(min(S, w + S), max(-S, w - S) - 1, -1)]
        weights = [weight_radicand(S, m1) * weight_radicand(S, m2)
                   for m1, m2 in pairs]
        out[w] = [_divide_content([f * amps[(J, J - w)].get(p, LaurentQ.zero())
                                   for f, p in zip(weights, pairs)])
                  for J in range(abs(w), 2 * S + 1)]
    return out


def radical_layout(S, entries):
    """Per entry ((i, j), (sign, e2)) of a site tensor: its slot S - m, i-1,
    j-1, sign, q exponent e2 // 2 and the square root of its factors
    [S, i-1], [S, j-1], [S+m]! [S-m]! and, for odd e2, q, as (paired, kept)
    polynomials: units dropped, each equal pair once in paired, the rest in
    kept, all sorted by key()."""
    q = LaurentQ.q_power(1)
    weight = {m: weight_radicand(S, m) for m in range(-S, S + 1)}
    rows = []
    for (i, j), (sign, e2) in entries:
        factors = ((q_binomial(S, i - 1), q_binomial(S, j - 1), weight[j - i])
                   + (q,) * (e2 % 2))
        fs = sorted((f for f in factors if f != 1), key=LaurentQ.key)
        paired, kept = [], []
        while fs:
            f = fs.pop(0)
            if fs and fs[0] == f:
                paired.append(fs.pop(0))
            else:
                kept.append(f)
        rows.append((S - j + i, i - 1, j - 1, sign, e2 // 2, paired, kept))
    return rows


def eval_ratio(poly, q0):
    """LaurentQ.eval_ratio term by term: sum v n^(e-lo) d^(hi-e), the
    powers n^k and d^k for k = 0..hi-lo read from two tables built once
    per call, joined with n^lo / d^hi."""
    if poly.is_zero:
        return 0, 1
    n, d = q0.numerator, q0.denominator
    lo, hi = poly.min_exp(), poly.max_exp()
    npow, dpow = [1], [1]
    for _ in range(hi - lo):
        npow.append(npow[-1] * n)
        dpow.append(dpow[-1] * d)
    acc = sum(v * npow[e - lo] * dpow[hi - e] for e, v in poly.items())
    return (acc * n ** max(lo, 0) * d ** max(-hi, 0),
            n ** max(-lo, 0) * d ** max(hi, 0))


def dense_pbc_two_point_sz(S, L, q0, r):
    """<S^z_1 S^z_r> from the whole join A.T @ B of the two dense halves,
    A the first half with its auxiliary pairs in B's order, d^k rows
    (fixing sites 1..h) at a time, about `mpscore._BLOCK` amplitudes within
    one site-1 digit, each squared block reduced to row sums when r <= h,
    else to column sums keyed by the site-1 digit."""
    if not (2 <= r <= L):
        raise ValueError("need 2 <= r <= L")
    d = 2 * S + 1
    h = L // 2
    ncols = d ** (L - h)
    rows = d ** max((k for k in range(h) if d ** k * ncols <= mpscore._BLOCK),
                    default=0)
    marg = np.zeros(d ** h) if r <= h else np.zeros((d, ncols))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        F, B = mpscore._dense_halves(mpscore.tensor_g(S).phys_matrices(q0), L)
        A = F.reshape(S + 1, S + 1, -1).transpose(1, 0, 2).reshape(len(B), -1)
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


def transfer_diag_block(S):
    """D0 N0 D0^-1, N0 the delta = 0 block of the rational similar core and
    D0 = diag([S,a]): entry (a, c) is N0[a][c] [S,a] / [S,c], by exact
    division."""
    binom = [q_binomial(S, k) for k in range(S + 1)]
    return [[(e * binom[a]).divide_exact(binom[c]) for c, e in enumerate(row)]
            for a, row in enumerate(transfercorr._rational_similar_core(S)[S])]


def two_point_finite(A, B, S, q0, L, r):
    """sum_{n,m} a_nm w_m^(r-2) b_mn w_n^(L-r) / sum_n w_n^L at one r."""
    if not (2 <= r <= L):
        raise ValueError("need 2 <= r <= L")
    q0 = Fraction(q0)
    data = transfercorr.spectral_data(S, q0, require_gap=False)
    a = transfercorr._image(data, S, q0, A)
    b = transfercorr._image(data, S, q0, B)
    w = data.w
    num = np.sum(a * w ** (r - 2) * b.T * (w ** (L - r))[:, None])
    return transfercorr._finite(num / np.sum(w ** L), "two-point function",
                                S, q0)


def two_point_thermo(A, B, S, q0, r):
    """sum_n a_1n w_n^(r-2) b_n1 at one r."""
    if r < 2:
        raise ValueError("need r >= 2")
    q0 = Fraction(q0)
    data = transfercorr.spectral_data(S, q0)
    a = transfercorr._image(data, S, q0, A)
    b = transfercorr._image(data, S, q0, B)
    return transfercorr._finite(a[0] @ (data.w ** (r - 2) * b[:, 0]),
                                "two-point function", S, q0)


def power_sums_match(block, roots):
    """True when Tr block^k equals the sum of r^k over the first n roots for
    k = 1..n, n the block's size, with exact `_mat_mul` powers."""
    n = len(block)
    power = None
    for k in range(1, n + 1):
        power = block if power is None else transfercorr._mat_mul(power, block)
        if sum(power[i][i] for i in range(n)) != sum(math.prod([r] * k)
                                                     for r in roots[:n]):
            return False
    return True


def factors_annihilate(block, roots):
    """True when prod_r (block - r I) is the zero matrix.

    The factors commute, and once the running product is zero every further
    factor keeps it zero, so the loop stops there.
    """
    work = None
    for r in roots:
        factor = [[e - r if i == j else e for j, e in enumerate(row)]
                  for i, row in enumerate(block)]
        work = factor if work is None else transfercorr._mat_mul(work, factor)
        if all(e.is_zero for row in work for e in row):
            return True
    return False


def conjecture_moment_identity(S, k):
    """Exact sum rule: sum_l (2l+1) lambda(l)^k equals Tr G^k.

    Holds identically in q when the closed-form spectrum (with multiplicities
    2l+1) is the true spectrum; one exact identity per moment order.
    """
    lhs = LaurentQ.zero()
    for l in range(S + 1):
        lhs = lhs + (2 * l + 1) * math.prod(
            [transfercorr.conjectured_eigenvalue(S, l)] * k)
    return lhs == transfercorr.exact_trace_power(S, k)
