"""Transfer matrices, spectra, and correlation functions of the chain states.

The double-layer transfer matrix G is built two independent ways (from the
site tensor, and from its printed closed form) and the two are compared on
every construction. The printed entry rule is written once, in _entry_rule,
and the exact similar core and the exact equal-index block read that same
rule. The spectrum certificate proves the closed-form spectrum on the core's
blocks with a lowering operator, by exact block products and traces alone.
Each (S, q) is built, checked and diagonalized once and kept in a bounded
cache with the S^z insertion in the eigenbasis, so every numeric correlator
is a short sum in the eigenvalue ratios. An exact symbolic path exists for
the equal-index block, which is all the spin-resolved probabilities need:
its top eigenvector has the closed form v_a = q^a, proved by exact matrix
products, so no elimination is needed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cgproj import check_budget, exact_dot
from .mpscore import tensor_f
from .qnum import (Q_CACHE_SIZE, LaurentQ, RatQ, q_binomial, q_factorial,
                   q_factorials, q_integer)

_GAP_TOL = 1e-9
_CROSS_TOL = 1e-12
CONJECTURE_TOL = 1e-9


def sz_operator(S):
    """S^z in the |S,m> basis, m descending (index p holds m = S - p)."""
    return np.diag([float(S - p) for p in range(2 * S + 1)])


def _site_op(S, A):
    """The one operator vocabulary, as a (2S+1) x (2S+1) array in the |S,m>
    basis, m descending: None (no insertion, the identity), the tag "sz", or
    such an array itself."""
    if A is None:
        return np.eye(2 * S + 1)
    if isinstance(A, str):
        if A == "sz":
            return sz_operator(S)
        raise ValueError("unknown operator tag %r" % A)
    A = np.asarray(A, dtype=float)
    if A.shape != (2 * S + 1, 2 * S + 1):
        raise ValueError("operator must be (2S+1) x (2S+1)")
    if not np.isfinite(A).all():
        raise ValueError("operator entries are not finite")
    return A


@lru_cache(maxsize=Q_CACHE_SIZE)
def _f_spin_scalars(S, q0):
    """s[i, j]: the spin-gauge scalar of entry (i+1, j+1) of the site tensor
    f; each entry sits in one m slot of phys_matrices, so the m sum picks it."""
    s = tensor_f(S).phys_matrices(q0).sum(axis=0)
    s.flags.writeable = False
    return s


@lru_cache(maxsize=Q_CACHE_SIZE)
def _q_floats(S, q0):
    """[n]! for n = 0..2S and [S, k] for k = 0..S at q0, as read-only arrays,
    each rounded once from its factored exact value."""
    t = q_factorials(q0)
    fact = np.array([t.eval_float((n,)) for n in range(2 * S + 1)])
    binom = np.array([t.eval_float((S,), (k, S - k)) for k in range(S + 1)])
    fact.flags.writeable = binom.flags.writeable = False
    return fact, binom


@lru_cache(maxsize=None)
def _entry_rule(S):
    """The printed closed form of G, written once for every consumer.

    G couples (a, b) to (c, d) only when a - b = c - d, and then
    G[(a,b),(c,d)] = sign q^e [m]! [n]! sqrt([S,a][S,b][S,c][S,d]) with
    indices from 0, sign = (-1)^(a+b), e = (a+b+c+d-2S)(S+1)/2 (a+b+c+d is
    even), m = S-a+c and n = S+a-c. Returned as a read-only int array of
    rows a, b, c, d, sign, e, m, n, one column per coupled entry.
    """
    # its index arrays peak at about 86 B per (a, b, c)
    check_budget(88 * (S + 1) ** 3, "_entry_rule(S=%d)" % S)
    a, b, c = np.indices((S + 1,) * 3).reshape(3, -1)
    d = c - a + b
    a, b, c, d = (x[(0 <= d) & (d <= S)] for x in (a, b, c, d))
    rule = np.array([a, b, c, d, 1 - 2 * ((a + b) % 2),
                     (a + b + c + d - 2 * S) * (S + 1) // 2, S - a + c, S + a - c])
    rule.flags.writeable = False
    return rule


def _transfer_generic(S, q0, op):
    """G^A[a, b, c, d] = s_ac op[m, m'] s_bd in one broadcast; row[a, c] =
    S + a - c is the op index of m = c - a. Adding 0.0 turns the -0.0 of a
    negative scalar times a zero into 0.0."""
    s = _f_spin_scalars(S, q0)
    n = np.arange(S + 1)
    row = S + n[:, None] - n[None, :]
    G = (s[:, None, :, None] * op[row[:, None, :, None], row[None, :, None, :]]
         * s[None, :, None, :]) + 0.0
    return G.reshape((S + 1) ** 2, (S + 1) ** 2)


def _transfer_explicit(S, q0, with_sz):
    """G, or G^sz (each entry times d - b), from _entry_rule in floats."""
    fact, binom = _q_floats(S, q0)
    a, b, c, d, sign, e, m, n = _entry_rule(S)
    G = np.zeros(((S + 1) ** 2,) * 2)
    G[a * (S + 1) + b, c * (S + 1) + d] = (
        sign * float(q0) ** e * fact[m] * fact[n]
        * np.sqrt(binom[a] * binom[b] * binom[c] * binom[d])
        * (d - b if with_sz else 1))
    return G


# bytes charged per entry of G: the broadcast, the closed-form cross-check
# and eigh on the result peak at about 48 B per entry by tracemalloc, and
# eigh's LAPACK workspace, 2 doubles per entry, is outside its view
_BYTES_PER_ENTRY = 64


def transfer_matrix(S, q0, A=None):
    """Double-layer transfer matrix G^A[(a,b),(c,d)] = s_ac A[m, m'] s_bd as
    a (S+1)^2 x (S+1)^2 array, with s the site tensor's spin scalars,
    m = c - a, m' = d - b, and A a site operator as _site_op reads it (None
    gives the plain G).

    Built generically from the site tensor; when a printed closed form exists
    (plain G and the S^z insertion) the two constructions are compared and a
    mismatch aborts, guarding the entry rule the exact certificate reads too.
    G must be symmetric and G^sz antisymmetric (d - b = c - a flips sign).
    The build, with the eigendecomposition it feeds, is charged to
    QVBS_BUDGET_MB first.
    """
    if S < 1:
        raise ValueError("need S >= 1")
    q0 = Fraction(q0)
    if q0 <= 0:
        raise ValueError("q must be positive")
    check_budget(_BYTES_PER_ENTRY * (S + 1) ** 4, "transfer_matrix(S=%d)" % S)
    printed = A is None or isinstance(A, str)
    with np.errstate(over="ignore", invalid="ignore"):
        G = _transfer_generic(S, q0, _site_op(S, A))
        ref = _transfer_explicit(S, q0, with_sz=A is not None) if printed else None
    if not np.isfinite(G).all():
        # far from q = 1 the entries leave the float range; a NaN would also
        # pass every tolerance comparison below
        raise OverflowError("transfer matrix of S=%d is not finite in floats" % S)
    if not printed:
        return G
    if not np.isfinite(ref).all():
        raise OverflowError(
            "closed-form transfer matrix of S=%d is not finite in floats" % S)
    scale = max(np.abs(ref).max(), 1e-300)
    if np.abs(G - ref).max() > _CROSS_TOL * scale:
        raise AssertionError(
            "transfer matrix constructions disagree beyond %g" % _CROSS_TOL)
    parity = 1 if A is None else -1
    if np.abs(G - parity * G.T).max() > _CROSS_TOL * scale:
        raise AssertionError("transfer matrix is not %ssymmetric"
                             % ("" if A is None else "anti"))
    return G


@dataclass
class EigenSystem:
    eigenvalues: np.ndarray      # descending |lambda|
    vectors: np.ndarray          # columns aligned with eigenvalues
    groups: list                 # (representative value, multiplicity)

    @property
    def top(self):
        return self.eigenvalues[0]


class SpectralGapError(ValueError):
    pass


def _require_gap(es):
    scale = abs(es.top)
    if es.groups[0][1] != 1 or (len(es.groups) > 1 and
                                scale - abs(es.groups[1][0]) <= _GAP_TOL * scale):
        raise SpectralGapError("no spectral gap: top eigenvalue not isolated")


def eigensystem(G):
    """Orthonormal eigensystem of a symmetric transfer matrix G, an array.

    Eigenvalues are sorted by descending magnitude and grouped at relative
    tolerance 1e-9. The thermodynamic formulas assume a spectral gap, which
    spectral_data checks (_require_gap).
    """
    if np.abs(G - G.T).max() > _CROSS_TOL * max(np.abs(G).max(), 1e-300):
        raise ValueError("eigensystem expects a symmetric matrix")
    w, v = np.linalg.eigh(G)
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), -w[i]))
    w = w[order]
    v = v[:, order]
    scale = abs(w[0])
    groups = []
    for val in w:
        if groups and abs(val - groups[-1][0]) <= _GAP_TOL * scale:
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((float(val), 1))
    return EigenSystem(w, v, groups)


@lru_cache(maxsize=None)
def conjectured_eigenvalue(S, l):
    """Closed-form transfer-matrix eigenvalue of level l, exact (and q-free,
    so cached): (-1)^l [2S+1]! [S,l] / ([S+1] [S+l+1,l]), the q-integer
    product (-1)^l [S+l+2]...[2S+1] [S-l+1]...[S] [S]!, formed by an exact
    division that raises ValueError were it not one."""
    if not 0 <= l <= S:
        raise ValueError("need 0 <= l <= S")
    num = q_factorial(2 * S + 1) * q_binomial(S, l)
    lam = num.divide_exact(q_integer(S + 1) * q_binomial(S + l + 1, l))
    return lam if l % 2 == 0 else -lam


def conjectured_eigenvalue_float(S, l, q0):
    """conjectured_eigenvalue(S, l) at q0, rounded once from its factorial
    form (-1)^l [2S+1]! [S]!^2 / ([S-l]! [S+l+1]!), the same rational."""
    if not 0 <= l <= S:
        raise ValueError("need 0 <= l <= S")
    value = q_factorials(q0).eval_float((2 * S + 1, S, S), (S - l, S + l + 1))
    return -value if l % 2 else value


@lru_cache(maxsize=Q_CACHE_SIZE)
def _conjectured_floats(S, q0):
    """The closed-form eigenvalues of levels 0..S at q0, each rounded once,
    kept per (S, q) like _closed_form_terms; a failure is not cached."""
    return tuple(conjectured_eigenvalue_float(S, l, q0) for l in range(S + 1))


def level_check(S, q0, values, tol):
    """Compare the diagonalized spectrum of G at (S, q0) against the level
    values[l], l = 0..S, each with multiplicity 2l+1.

    Both spectra are sorted and paired value by value at tol times the top
    eigenvalue, so every eigenvalue is compared, and the multiplicities are
    checked wherever the levels lie further apart than that. The spectrum
    spans a factor of order q^(2 S^2): far from the isotropic point the
    lowest levels sink below the tolerance, where they are compared as the
    near-zero values they are rather than having to group apart."""
    q0 = Fraction(q0)
    es = spectral_data(S, q0).es
    bound = tol * abs(es.top)
    expected = sorted((values[l], l) for l in range(S + 1) for _ in range(2 * l + 1))
    worst = [0.0] * (S + 1)
    for (ev, l), cv in zip(expected, np.sort(es.eigenvalues)):
        worst[l] = max(worst[l], abs(ev - float(cv)))
    details = [{"l": l, "expected": values[l], "mult": 2 * l + 1,
                "max_abs_diff": worst[l], "match": bool(worst[l] <= bound)}
               for l in range(S + 1)]
    return {"S": S, "q": str(q0), "match": bool(max(worst) <= bound),
            "levels": details}


def conjecture_check(S, q0):
    """level_check of the closed-form eigenvalues of every level at one
    numeric point, at CONJECTURE_TOL."""
    q0 = Fraction(q0)
    return level_check(S, q0, _conjectured_floats(S, q0), CONJECTURE_TOL)


# -- correlation functions ----------------------------------------------
#
# Every correlator is a finitely correlated state sum in the eigenbasis of G:
# with G = V diag(lambda) V^T, ratios w = lambda / lambda_1 and operator
# images a = V^T G^A V / lambda_1, a trace Tr(G^A G^k ...) / lambda_1^L
# becomes a sum over products of a-entries and powers w^k. Since |w| <= 1,
# no power overflows, and each (r, L) costs O(d^2) once (S, q) is cached.


@dataclass(frozen=True)
class Spectral:
    """Validated transfer data of one (S, q): the eigensystem of G, the
    ratios w = lambda / lambda_1 and the S^z image V^T G^sz V / lambda_1.

    G^sz is antisymmetric, so its image is too: each diagonal entry, <S^z>
    at one level, is exactly zero. The image is stored antisymmetrized, as
    the float rounding residues there would otherwise square into a floor
    of about 1e-36 under every long-range correlator."""
    es: EigenSystem
    w: np.ndarray
    sz: np.ndarray


@lru_cache(maxsize=Q_CACHE_SIZE)
def _spectral(S, q0):
    es = eigensystem(transfer_matrix(S, q0))
    V = es.vectors
    sz = V.T @ transfer_matrix(S, q0, "sz") @ V / es.top
    data = Spectral(es, es.eigenvalues / es.top, (sz - sz.T) / 2)
    for arr in (es.eigenvalues, es.vectors, data.w, data.sz):
        arr.flags.writeable = False
    return data


def spectral_data(S, q0, require_gap=True):
    """The cached Spectral of (S, q); unless require_gap is false, a top
    eigenvalue that is not isolated raises SpectralGapError."""
    data = _spectral(S, Fraction(q0))
    if require_gap:
        _require_gap(data.es)
    return data


def _image(data, S, q0, A):
    """The site operator A in the eigenbasis, V^T G^A V / lambda_1.

    G^A transposed is G^(P R A R P), R the flip m -> -m and P the sign
    diag((-1)^m): the site scalar on entry (i, j) carries (-1)^(i-j) against
    the one on (j, i). V is orthogonal; so the part of A that A -> P R A R P
    keeps has a symmetric image and the part it negates an antisymmetric one.
    Each part's image is stored exactly so: the diagonal of an odd operator's
    image such as S^z's is exactly zero, where floats leave a rounding
    residue whose square floors the correlators.
    """
    if A is None:
        return np.diag(data.w)
    if isinstance(A, str) and A == "sz":
        return data.sz
    V = data.es.vectors
    A = _site_op(S, A)
    p = np.arange(2 * S + 1)
    flipped = (-1.0) ** np.add.outer(p, p) * A[::-1, ::-1]
    out = np.zeros_like(V)
    for part, sign in (((A + flipped) / 2, 1), ((A - flipped) / 2, -1)):
        image = V.T @ transfer_matrix(S, q0, part) @ V / data.es.top
        out += (image + sign * image.T) / 2
    return out


def _finite(value, what, S, q0):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("%s is not finite at S=%d, q=%s" % (what, S, q0))
    return value


def two_point_finite_range(A, B, S, q0, L, rs):
    """two_point_finite at each r of rs in turn, lazily, from one cached
    Spectral, one pair of images and one sum_n w_n^L. An r outside 2..L
    raises when it is reached, and before the spectral data only when it
    comes first."""
    data = None
    for r in rs:
        if not (2 <= r <= L):
            raise ValueError("need 2 <= r <= L")
        if data is None:
            q0 = Fraction(q0)
            data = spectral_data(S, q0, require_gap=False)
            a, b = _image(data, S, q0, A), _image(data, S, q0, B)
            w = data.w
            z = np.sum(w ** L)
        num = np.sum(a * w ** (r - 2) * b.T * (w ** (L - r))[:, None])
        yield _finite(num / z, "two-point function", S, q0)


def two_point_finite(A, B, S, q0, L, r):
    """Two-point function with the operators r-1 sites apart on L sites,
    sum_{n,m} a_nm w_m^(r-2) b_mn w_n^(L-r) / sum_n w_n^L."""
    return next(two_point_finite_range(A, B, S, q0, L, (r,)))


def _thermo_terms(A, B, S, q0):
    """a_1n, w_n and b_n1, the factors of the infinite-chain sums."""
    data = spectral_data(S, q0)
    a, b = _image(data, S, q0, A), _image(data, S, q0, B)
    return a[0], data.w, b[:, 0]


def two_point_thermo_range(A, B, S, q0, rs):
    """two_point_thermo at each r of rs in turn, lazily, from one cached
    Spectral and one pair of images; r < 2 raises when it is reached."""
    first = None
    for r in rs:
        if r < 2:
            raise ValueError("need r >= 2")
        if first is None:
            q0 = Fraction(q0)
            first, w, b0 = _thermo_terms(A, B, S, q0)
        yield _finite(first @ (w ** (r - 2) * b0), "two-point function", S, q0)


def two_point_thermo(A, B, S, q0, r):
    """Infinite-chain two-point function, sum_n a_1n w_n^(r-2) b_n1.

    This is the L -> infinity limit of two_point_finite: the site-1 matrix
    element runs over the full eigenbasis, <e1|G^A|e_n><e_n|G^B|e1>.
    """
    return next(two_point_thermo_range(A, B, S, q0, (r,)))


def two_point_thermo_printed_form(A, B, S, q0, r):
    """The printed variant with an n-independent site-1 factor a_11, kept for
    the discrepancy report; it does not reduce to the finite-size formula."""
    if r < 2:
        raise ValueError("need r >= 2")
    q0 = Fraction(q0)
    first, w, b0 = _thermo_terms(A, B, S, q0)
    return _finite(first[0] * (w ** (r - 2) * b0).sum(), "two-point function",
                   S, q0)


def sz_distribution(S, q0):
    """Probabilities of S^z = m on the infinite chain, m ascending.

    P(m) = <e1|G^(P_m)|e1> / lambda_1, where G^(P_m) couples (a, b) to
    (a+m, b+m) with weight s_(a,a+m) s_(b,b+m), s the site tensor's spin
    scalars; so with E the top eigenvector as a (S+1) x (S+1) array, each
    P(m) is one contraction of a shifted block of E with the m-th diagonal
    of s.
    """
    q0 = Fraction(q0)
    es = spectral_data(S, q0).es
    E = es.vectors[:, 0].reshape(S + 1, S + 1)
    s = _f_spin_scalars(S, q0)
    probs = []
    for m in range(-S, S + 1):
        lo, hi = max(0, -m), min(S + 1, S + 1 - m)
        diag = np.diagonal(s, offset=m)
        block = E[lo:hi, lo:hi] * E[lo + m:hi + m, lo + m:hi + m]
        probs.append(_finite(diag @ block @ diag / es.top,
                             "probability", S, q0))
    return probs


# -- exact trace identities --------------------------------------------


def _mat_mul(A, B):
    cols = list(zip(*B))
    return [[exact_dot(row, col) for col in cols] for row in A]


def exact_trace_power(S, k):
    """Tr G^k = sum_delta Tr N_delta^k as an exact Laurent polynomial, each
    power of a block of the rational similar core a direct product."""
    if k < 1:
        raise ValueError("need k >= 1")
    acc = LaurentQ.zero()
    for block in _rational_similar_core(S):
        power = block
        for _ in range(k - 1):
            power = _mat_mul(power, block)
        for i, row in enumerate(power):
            acc = acc + row[i]
    return acc


def _rational_similar_core(S):
    """A rational matrix exactly similar to G, as its diagonal blocks.

    G = D M D with D = diag(sqrt([S,a][S,b])) and M rational, so N = M D^2
    shares G's spectrum; N's entries are _entry_rule's sign q^e [m]! [n]!
    times [S,c][S,d], plain Laurent polynomials. Both couple (a, b) to (c, d)
    only when a - b = c - d, so N is block-diagonal in delta = a - b; the
    blocks N_delta come for delta = -S..S, each indexed by its pairs
    (a, a - delta) with a ascending.
    """
    binom = [q_binomial(S, k) for k in range(S + 1)]
    blocks = [[[None] * (S + 1 - abs(delta)) for _ in range(S + 1 - abs(delta))]
              for delta in range(-S, S + 1)]
    for a, b, c, d, sign, e, m, n in _entry_rule(S).T.tolist():
        lo = max(0, a - b)
        blocks[S + a - b][a - lo][c - lo] = (
            LaurentQ.q_power(e, sign) * q_factorial(m) * q_factorial(n)
            * binom[c] * binom[d])
    return blocks


# -- spectrum certificate ------------------------------------------------
#
# The tests hold the exact power sums, the annihilation products and the
# summed moment rule (on `exact_trace_power` above) as oracles.

# bytes charged per coefficient an entry's exponent span allows: about half
# of the slots hold one, at a tracemalloc peak of about 120 B each, so this
# bounds the certificate's peak with a margin of about 1.6 at S = 3..12
_BYTES_PER_COEFF = 96


def _lowering(S, delta):
    """F_delta, the quantum-group lowering operator on the auxiliary space
    (Kluemper, Schadschneider and Zittartz), from core block delta to block
    delta-1 for 1 <= delta <= S. Its rows are the pairs (a, a-delta+1) and
    its columns the pairs (a, a-delta), a ascending, so row i has b = i. Row
    (a, b) has q^(b-2a) [S-a] in column (a+1, b) and -q^(2b-3a) [b] in
    column (a, b-1), where those exist."""
    n = S + 1 - delta
    F = [[LaurentQ.zero()] * n for _ in range(n + 1)]
    for i in range(n + 1):
        a = delta - 1 + i
        if i < n:
            F[i][i] = LaurentQ.q_power(i - 2 * a) * q_integer(S - a)
        if i:
            F[i][i - 1] = LaurentQ.q_power(2 * i - 3 * a, -1) * q_integer(i)
    return F


def _injective(F):
    """Whether the top n x n part of the (n+1) x n matrix F is lower
    triangular with a nonzero diagonal, which gives F rank n over Q(q)."""
    return all(not F[i][i].is_zero and all(e.is_zero for e in F[i][i + 1:])
               for i in range(len(F) - 1))


def conjecture_exact_certificate(S):
    """Exact proof of the closed-form spectrum at one S.

    On the blocks N_delta of the rational similar core it checks, in Q(q):
    for delta = 1..S, N_{delta-1} F_delta = F_delta N_delta with F_delta
    injective (see _lowering and _injective); for delta = 0..S,
    Tr N_delta - Tr N_{delta+1} = lambda_delta, with Tr N_{S+1} = 0; and for
    delta = 1..S, N_{-delta} = N_delta entry for entry. The image of F_delta
    is then an N_{delta-1}-invariant copy of N_delta, so char(N_{delta-1}) =
    char(N_delta) (x - lambda_{delta-1}), and induction from N_S = (lambda_S)
    gives each block delta >= 0, and by the mirror each -delta, the
    characteristic polynomial prod_{l >= |delta|} (x - lambda_l). So
    lambda_l has algebraic multiplicity 2l+1, the number of blocks with
    |delta| <= l, with no distinctness or Vandermonde step; G is symmetric
    for real q > 0, so that is also its geometric multiplicity.

    The core is charged to the memory budget before it is built. The report
    carries the counts of commutations and trace identities checked.
    """
    if S < 1:
        raise ValueError("need S >= 1")
    _, _, c, d, _, _, m, n = _entry_rule(S)
    span = m * (m - 1) + n * (n - 1) + 2 * c * (S - c) + 2 * d * (S - d)
    check_budget(_BYTES_PER_COEFF * int((span + 1).sum()),
                 "conjecture_exact_certificate(S=%d)" % S)
    blocks = _rational_similar_core(S)
    commutes = []
    for delta in range(1, S + 1):
        F = _lowering(S, delta)
        commutes.append(_injective(F) and _mat_mul(blocks[S + delta - 1], F)
                        == _mat_mul(F, blocks[S + delta]))
    traces = [sum((row[i] for i, row in enumerate(N)), LaurentQ.zero())
              for N in blocks[S:]] + [LaurentQ.zero()]
    levels = [traces[delta] - traces[delta + 1]
              == conjectured_eigenvalue(S, delta) for delta in range(S + 1)]
    mirrored = all(blocks[S - delta] == blocks[S + delta]
                   for delta in range(1, S + 1))
    return {"S": S, "proved": all(commutes) and all(levels) and mirrored,
            "commutations": len(commutes), "trace_identities": len(levels)}


# -- exact symbolic path for the equal-index block -----------------------


@lru_cache(maxsize=None)
def transfer_diag_block_exact(S):
    """The a=b block of G as exact Laurent entries, read from the a = b rows
    of _entry_rule: there the radicals pair, so entry (a, c) is
    sign q^e [m]! [n]! [S,a] [S,c], with sign = (-1)^(2a) = +1."""
    binom = [q_binomial(S, k) for k in range(S + 1)]
    rule = _entry_rule(S)
    block = [[None] * (S + 1) for _ in range(S + 1)]
    for a, _, c, _, sign, e, m, n in rule[:, rule[0] == rule[1]].T.tolist():
        block[a][c] = (LaurentQ.q_power(e, sign) * q_factorial(m)
                       * q_factorial(n) * binom[a] * binom[c])
    return block


@lru_cache(maxsize=None)
def top_eigenvector_exact(S):
    """Exact top eigenvalue and (unnormalized) eigenvector of the diagonal block.

    The eigenvector is the closed form v_a = q^a, a = 0..S, proved by two
    exact checks that need no elimination: the eigenvalue equation
    block v = lambda_1 v, and every block entry being a nonzero Laurent
    polynomial with positive coefficients. The latter makes the block
    entrywise positive at every q > 0, so by Perron-Frobenius its positive
    eigenvector v belongs to the simple top eigenvalue, and a wrong
    closed-form eigenvalue cannot slip through.
    """
    lam1 = conjectured_eigenvalue(S, 0)
    block = transfer_diag_block_exact(S)
    if not all(not e.is_zero and e.nonneg_coeffs() for row in block for e in row):
        raise AssertionError("diagonal block is not entrywise positive")
    vec = [LaurentQ.q_power(a) for a in range(S + 1)]
    if _mat_mul(block, [[v] for v in vec]) != [[lam1 * v] for v in vec]:
        raise AssertionError("exact eigenvalue equation failed")
    return lam1, vec


def sz_distribution_exact(S):
    """Exact infinite-chain probabilities of S^z = m, as rational functions."""
    lam1, v = top_eigenvector_exact(S)
    block = transfer_diag_block_exact(S)
    norm = LaurentQ.zero()
    for a in range(S + 1):
        norm = norm + v[a] * v[a]
    out = {}
    for m in range(-S, S + 1):
        num = LaurentQ.zero()
        for a in range(S + 1):
            c = a + m
            if 0 <= c <= S:
                num = num + v[a] * v[c] * block[a][c]
        out[m] = RatQ(num, lam1 * norm)
    return out


def sz_probabilities_reference_spin2():
    """Printed S=2 probabilities as exact rational functions of q."""
    one = LaurentQ.one()
    i2, i3, i4, i5 = (q_integer(n) for n in (2, 3, 4, 5))
    i8, i12 = q_integer(8), q_integer(12)
    p2 = RatQ(one, i5)
    p1 = RatQ(i2 * i8, i5 * i4 * i4)
    p0 = RatQ(i2, i5 * i4) * (1 + RatQ(i12, i3 * i4))
    return {-2: p2, -1: p1, 0: p0, 1: p1, 2: p2}


# -- printed closed-form spin-spin correlators ---------------------------


def closed_form_szsz(S, q0, r):
    """Printed closed-form <S^z_1 S^z_r> on the infinite chain, S in {2, 3}.

    The prefactor's r-th power is folded into each term c * b^r, so every
    base has |b| < 1 for q > 0 and large r underflows instead of overflowing.
    A non-finite value raises OverflowError, and a term that matters to the
    value but went through a power below the normal float range raises
    FloatingPointError.
    """
    if r < 2:
        raise ValueError("closed forms are used for separations r >= 2 only")
    pref, terms = _closed_form_terms(S, Fraction(q0))
    tiny = sys.float_info.min
    powers = [b ** r for _, b in terms]
    value = pref * sum(c * p for (c, _), p in zip(terms, powers))
    if not math.isfinite(value):
        raise OverflowError("closed form is not finite at r=%d" % r)
    # a power below the normal range has lost digits; that matters when its
    # term, sized by logarithms, is not negligible against the value
    floor = math.log(max(abs(value) * sys.float_info.epsilon, tiny))
    for (c, b), p in zip(terms, powers):
        if abs(p) < tiny and c and (math.log(abs(pref)) + math.log(abs(c))
                                    + r * math.log(abs(b))) > floor:
            raise FloatingPointError("closed form underflows at r=%d" % r)
    return value


@lru_cache(maxsize=Q_CACHE_SIZE)
def _closed_form_terms(S, q0):
    """The r-free part of closed_form_szsz: the prefactor and the (c, b)
    pairs of its terms at q0, each q-integer evaluated once."""
    if S not in (2, 3):
        raise ValueError("closed forms are available for S = 2 and S = 3 only")
    qv = float(q0)
    qi = {n: q_integer(n).eval_float(q0) for n in range(2, 3 * S + 1)}
    if S == 2:
        pref = -(qi[2] * qi[3] / qi[4])
        terms = (((qv - 1 / qv) * (qv ** 3 - qv ** -3)
                  * qi[6] ** 2 / (qi[3] ** 2 * qi[2] ** 2),
                  qi[2] / (qi[5] * qi[4])),
                 (qi[2] ** 2, -qi[2] / qi[4]))
    else:
        pref = -(qi[2] / (qi[6] * qi[5] * qi[3]))
        beta = qi[3] / (qi[7] * qi[6] * qi[5])
        terms = (((qv - 1 / qv) ** 2 * (qv ** 3 - qv ** -3) ** 2
                  * (qi[9] - (qv ** 2 - qv ** -2) ** 2) ** 2
                  * qi[4] ** 2 / qi[2] ** 2, -qi[2] * beta),
                 ((qv ** 3 - qv ** -3) ** 2 * qi[8] ** 2 * qi[5] / qi[4] ** 2,
                  qi[7] * qi[2] * beta),
                 ((qi[2] ** 4 - 2 * qi[3]) ** 2 * qi[6] * qi[2] / qi[3],
                  -qi[7] * qi[6] * beta))
    return pref, terms


def isotropic_szsz_limit(S, r):
    """The q = 1 reductions of the closed forms."""
    if S == 2:
        return -6.0 * (-2.0) ** (-r)
    if S == 3:
        return -80.0 * (-3.0) ** (r - 2) * 5.0 ** (-r)
    raise ValueError("limits printed for S = 2 and S = 3 only")
