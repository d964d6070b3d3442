"""Two-site decomposition of V_S (x) V_S: highest-weight vectors, the full
orbit bases, orthogonal spin-J projectors, Hamiltonian assembly, and the
divisibility checker for the bond product.

Everything exact runs per weight sector: a fixed total weight w selects one
vector from each total spin J >= |w|. The q-Clebsch-Gordan vectors are
orthogonal under the pair weights W, so each row of the inverse change of
basis is a weighted orbit vector (a dual row over its norm n_J), and each
spin-J block is built on its own when read (`sector_system(S, J)`); the
Hamiltonian and the two-site lemma read J > S alone. The orthogonality is
proved once per S: Delta(X-) and Delta(X+) are adjoint under W and satisfy
[X+, X-] = [H] on every pair monomial, and each highest-weight vector is
annihilated by raising. Orbit vectors are kept primitive, over the gcd of
their coefficients, so the products that build the duals stay small.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qnum import LaurentQ, laurent_gcd, q_binomial, q_factorials, q_integer
from .weylrep import (
    XMINUS,
    XPLUS,
    SitePoly,
    bond_factor,
    coproduct_apply,
    poly_to_spin,
    weight_radicand,
)


class BudgetError(RuntimeError):
    pass


def check_budget(bytes_needed, what):
    raw = os.environ.get("QVBS_BUDGET_MB", "1024")
    try:
        limit_mb = float(raw)
    except ValueError:
        limit_mb = math.nan
    # nan would compare false against every need and inf would pass them
    # all, so either would lift the cap without a word
    if not 0 <= limit_mb < math.inf:
        raise ValueError("QVBS_BUDGET_MB must be a finite number of MB >= 0, "
                         "not %r" % raw)
    if bytes_needed > limit_mb * 2 ** 20:
        raise BudgetError(
            "%s needs ~%.0f MB, over the QVBS_BUDGET_MB limit of %.0f MB"
            % (what, bytes_needed / 2 ** 20, limit_mb))


def highest_weight(S, J):
    """Highest-weight vector of total spin J in V_S (x) V_S, as a polynomial
    on sites (1, 2), fixed only up to overall scale.

    Built two independent ways and cross-checked: the closed product form
    and the raising-condition recursion must agree up to scale, and the
    result must be annihilated by the two-site raising action.
    """
    if not 0 <= J <= 2 * S:
        raise ValueError("J=%d outside the Clebsch-Gordan range [0, %d]" % (J, 2 * S))
    closed = SitePoly.monomial({1: (J, 0), 2: (J, 0)})
    for m in range(1, 2 * S - J + 1):
        closed = closed * (SitePoly.monomial({1: (1, 0), 2: (0, 1)})
                           - SitePoly.monomial({1: (0, 1), 2: (1, 0)},
                                               LaurentQ.q_power(2 * m - 2 - 2 * S)))
    # C_{m+1} = -q^(J+1) [S - m] / [S - J + m + 1] C_m, cleared so every
    # coefficient is a plain Laurent polynomial; m runs from J - S to S
    ms = range(J - S, S + 1)
    ups = [(-LaurentQ.q_power(J + 1)) * q_integer(S - j) for j in ms[:-1]]
    downs = [q_integer(S - J + j + 1) for j in ms[:-1]]
    rec = SitePoly.zero()
    for i, m in enumerate(ms):
        c = LaurentQ.one()
        for f in ups[:i] + downs[i:]:
            c = c * f
        rec = rec + SitePoly.monomial({1: (S + m, S - m), 2: (S + J - m, S - J + m)}, c)
    if not rec.proportional_to(closed):
        raise AssertionError("recursion and closed form disagree for J=%d" % J)
    if not coproduct_apply(closed, XPLUS, (1, 2)).is_zero:
        raise AssertionError("closed form not annihilated by raising for J=%d" % J)
    return closed


@lru_cache(maxsize=None)
def rep_basis(S, J):
    """Lowering orbit (2J+1 vectors) generated from the highest-weight vector.

    Vector t spans the line of Delta(X-)^t hw_J and is primitive: hw_J is a
    monomial times bond factors with unit coefficients, primitive by Gauss's
    lemma, and each lowered vector is put over the gcd of its coefficients
    before it is lowered again.
    """
    v = highest_weight(S, J)
    orbit = [v]
    for _ in range(2 * J):
        v = coproduct_apply(v, XMINUS, (1, 2))
        if v.is_zero:
            raise AssertionError("orbit of J=%d collapsed early" % J)
        v = SitePoly(dict(zip(v.terms, _divide_content(list(v.terms.values())))))
        orbit.append(v)
    if not coproduct_apply(orbit[-1], XMINUS, (1, 2)).is_zero:
        raise AssertionError("orbit of J=%d did not terminate" % J)
    return orbit


def _pair_weight(S, pair):
    """Radicand weight W of a monomial-gauge pair (m1, m2)."""
    return weight_radicand(S, pair[0]) * weight_radicand(S, pair[1])


def exact_dot(row, vec):
    """sum_i row_i vec_i over Laurent entries, skipping the zero terms."""
    acc = LaurentQ.zero()
    for d, v in zip(row, vec):
        if not (d.is_zero or v.is_zero):
            acc = acc + d * v
    return acc


def _divide_content(row):
    """The row over the gcd of its entries.

    Orbit vectors, sector weights and dual rows all go through it: a nonzero
    rescaling of any of them changes no projector (a norm scales with its
    dual) and no zero test, while every product built from them shrinks.
    """
    order = sorted((i for i, e in enumerate(row) if not e.is_zero),
                   key=lambda i: row[i].max_exp() - row[i].min_exp())
    if not order:
        return list(row)
    # the gcd of the two shortest entries is usually the whole content
    g = row[order[0]]
    if len(order) > 1:
        g = laurent_gcd(g, row[order[1]])
    while True:
        out = list(row)
        for i in order:
            quot, rem = row[i].divmod_by(g)
            if not rem.is_zero:
                g = laurent_gcd(g, row[i])
                break
            out[i] = quot
        else:
            return out


def _act(op, vec):
    """op applied to vec, both keyed by pair; op[p] is the image of e_p."""
    out = {}
    for p, c in vec.items():
        for p2, a in op[p].items():
            out[p2] = out.get(p2, LaurentQ.zero()) + a * c
    return out


def _certify_orthogonality(S):
    """Prove that the orbit vectors of distinct J are orthogonal under the
    pair weights W, from two identities of DX+- = Delta(X+-) checked exactly
    on every pair monomial e_p, p = (m1, m2):

    - adjointness: W_p' (DX-)_p'p = W_p (DX+)_pp' for every p', with the
      weights of a site that both pairs share cancelled;
    - the commutator: [DX+, DX-] e_p = [2(m1 + m2)] e_p.

    With DX+ hw_J = 0 (`highest_weight`) the commutator gives
    DX+ DX-^b hw_J = c DX-^(b-1) hw_J, so for K > J in one sector (a > b)
    <DX-^a hw_K, DX-^b hw_J>_W = <hw_K, DX+^a DX-^b hw_J>_W
    = c' <hw_K, DX+^(a-b) hw_J>_W = 0.
    """
    ms = range(-S, S + 1)
    pairs = [(m1, m2) for m1 in ms for m2 in ms]

    def images(gen):
        """DX e_p for every pair p, each keyed by pair."""
        out = {}
        for m1, m2 in pairs:
            e = SitePoly.monomial({1: (S + m1, S - m1), 2: (S + m2, S - m2)})
            out[(m1, m2)] = poly_to_spin(coproduct_apply(e, gen, (1, 2)),
                                         S, (1, 2)).amps
        return out

    lower, upper = images(XMINUS), images(XPLUS)
    site_weight = {m: weight_radicand(S, m) for m in ms}
    zero = LaurentQ.zero()
    for p2, p in ({(p2, p) for p in pairs for p2 in lower[p]}
                  | {(p2, p) for p2 in pairs for p in upper[p2]}):
        lhs, rhs = lower[p].get(p2, zero), upper[p2].get(p, zero)
        for a, b in zip(p2, p):
            if a != b:
                lhs = lhs * site_weight[a]
                rhs = rhs * site_weight[b]
        if lhs != rhs:
            raise AssertionError(
                "orbit vectors not orthogonal by proof: DX- and DX+ are not "
                "adjoint under the pair weights at %s -> %s" % (p, p2))
    for p in pairs:
        raised, lowered = _act(upper, lower[p]), _act(lower, upper[p])
        h = 2 * sum(p)  # [h] = (q^h - q^-h) / (q - 1/q), odd in h
        bracket = {p: q_integer(h) if h >= 0 else -q_integer(-h)}
        if any(raised.get(k, zero) - lowered.get(k, zero)
               != bracket.get(k, zero)
               for k in raised.keys() | lowered.keys() | {p}):
            raise AssertionError("[DX+, DX-] is not [H] on the pair %s" % (p,))


@lru_cache(maxsize=None)
def _sector_frame(S):
    """{w: (pairs, weights)} for w = -2S..2S: the pairs (m1, w - m1), m1
    descending, and their `_pair_weight`s over the gcd of the sector's,
    formed after the orthogonality that every spin block relies on."""
    _certify_orthogonality(S)
    frame = {}
    for w in range(-2 * S, 2 * S + 1):
        pairs = [(m1, w - m1)
                 for m1 in range(min(S, w + S), max(-S, w - S) - 1, -1)]
        frame[w] = pairs, _divide_content([_pair_weight(S, p) for p in pairs])
    return frame


@lru_cache(maxsize=None)
def sector_system(S, J):
    """The spin-J block of the change of basis between the pair basis and
    the J basis: {w: (pairs, col, dual, norm)} for w = J..-J.

    The squared norm of the physical basis on a monomial-gauge pair (m1, m2)
    is the radicand weight W = [S+m1]! [S-m1]! [S+m2]! [S-m2]!, and orbit
    vectors of distinct J are orthogonal under W (`_certify_orthogonality`,
    run by the frame before any block); so with B a sector's orbit columns,
    B^T W B is diagonal and row J of B^-1 is the dual row W o col over its
    norm n_J, which needs no other J. The weights come over their gcd and
    the dual over the gcd of its entries; n_J scales with it and is checked
    nonzero, so the spin-J projector is well defined.
    """
    frame = _sector_frame(S)
    block = {}
    for t, poly in enumerate(rep_basis(S, J)):
        pairs, weights = frame[J - t]
        amps = poly_to_spin(poly, S, (1, 2)).amps
        col = [amps.get(p, LaurentQ.zero()) for p in pairs]
        dual = _divide_content([f * c for f, c in zip(weights, col)])
        norm = exact_dot(dual, col)
        if norm.is_zero:
            raise AssertionError("sector w=%d: orbit vector J=%d has zero "
                                 "norm" % (J - t, J))
        block[J - t] = pairs, col, dual, norm
    return block


class Projector:
    """Orthogonal projector onto the total-spin-J block of the two-site space.

    Exact data is the spin-J block `sector_system(S, J)`, one rank-one core
    per sector: the orbit column of J times its dual row over the norm n_J.
    Physical-basis entries carry the usual sqrt-normalization dressing;
    `to_dense` evaluates them at a point q0.
    """

    def __init__(self, S, J):
        self.S = S
        self.J = J
        self._cores = sector_system(S, J)

    def pair_index(self, pair):
        m1, m2 = pair
        return (self.S - m1) * (2 * self.S + 1) + (self.S - m2)

    def to_dense(self, q0):
        """Physical-basis matrix at a numeric point q0."""
        S = self.S
        d = 2 * S + 1
        out = np.zeros((d * d, d * d))
        table = q_factorials(q0)
        for w, (pairs, col, dual, norm) in self._cores.items():
            # the _pair_weight of each pair, from its q-factorials
            roots = np.array([math.sqrt(table.eval_float(
                (S + m1, S - m1, S + m2, S - m2))) for m1, m2 in pairs])
            u = np.array([c.eval_float(q0) for c in col]) * roots
            v = np.array([c.eval_float(q0) for c in dual]) / roots
            idx = [self.pair_index(p) for p in pairs]
            out[np.ix_(idx, idx)] = np.outer(u, v) / norm.eval_float(q0)
        return out


def upper_dual_rows(S):
    """Per-sector dual rows selecting the J > S components.

    A two-site vector is annihilated by every projector with J > S exactly
    when all these rows pair to zero against its monomial-gauge amplitudes.
    """
    blocks = {J: sector_system(S, J) for J in range(S + 1, 2 * S + 1)}
    return {w: (pairs, [(J, block[w][2]) for J, block in blocks.items()
                        if w in block])
            for w, (pairs, _) in _sector_frame(S).items()}


def bond_list(L, boundary):
    """Nearest-neighbour bonds (k, k+1) of an L-site chain, 1-based; the
    periodic chain adds the wrap bond (L, 1)."""
    bonds = [(k, k + 1) for k in range(1, L)]
    if boundary == "periodic":
        bonds.append((L, 1))
    elif boundary != "open":
        raise ValueError("boundary must be 'periodic' or 'open'")
    return bonds


def charge_chain_state(what, S, L):
    """Charge an exact chain state of L spin-S sites to the budget: 256 B, a
    rough per-amplitude bookkeeping cost, per basis state of (2S+1)^L."""
    check_budget((2 * S + 1) ** L * 256, "%s(S=%d, L=%d)" % (what, S, L))


def open_prefactor(S, p1, p2):
    """The end radicands ([S, p1-1], [S, p2-1]) of an open chain, its
    state's prefactor, for boundary labels p1 and p2 in 1..S+1."""
    if not (1 <= p1 <= S + 1 and 1 <= p2 <= S + 1):
        raise ValueError("boundary labels must lie in 1..S+1")
    return q_binomial(S, p1 - 1), q_binomial(S, p2 - 1)


@dataclass
class BondHamiltonian:
    """Sum over bonds (k, l) of the local h on sites k and l; only H @ v is
    defined, for v of length d^L or a (d^L, n) block. Bond (k, k+1) is one
    GEMM of h as a (d^2, d^2) matrix on the view (d^(k-1), d^2, rest) of v;
    the wrap bond (L, 1) gathers its two axes in front first."""

    h: np.ndarray  # [a', b', a, b] with a on the bond's first site
    L: int
    bonds: list

    def __matmul__(self, v):
        v = np.ascontiguousarray(v, dtype=float)
        d, L = self.h.shape[0], self.L
        # held at once: input, accumulator and one bond's product, or the
        # wrap bond's gathered copy and a d-th of its product
        check_budget(4 * 8 * v.size, "hamiltonian(S=%d, L=%d)" % (d // 2, L))
        if v.shape[:1] != (d ** L,):
            raise ValueError("H @ v needs %d rows, not %s" % (d ** L, v.shape))
        h2, n = self.h.reshape(d * d, d * d), v.size // d ** L
        out = np.zeros(v.size)
        for k, l in self.bonds:
            rest = d ** (L - l) * n
            if l != k + 1:
                # the wrap bond: axes (site L, site 1) in front, as h reads
                # them, and the product formed one site-1 digit at a time
                pair = v.reshape(d, -1, d, n).transpose(2, 0, 1, 3)
                pair = pair.reshape(d * d, -1)
                acc = out.reshape(d, -1, d, n)
                for a in range(d):
                    acc[a] += (h2[a::d] @ pair).reshape(d, -1, n).swapaxes(0, 1)
            elif rest == 1:
                acc = out.reshape(-1, d * d)
                acc += v.reshape(-1, d * d) @ h2.T
            else:
                acc = out.reshape(-1, d * d, rest)
                acc += np.matmul(h2, v.reshape(-1, d * d, rest))
        return out.reshape(v.shape)


def hamiltonian(S, L, q0, boundary="periodic", coeffs=None):
    """Sum of two-site projector embeddings as an operator at numeric q0.

    coeffs maps J in (S, 2S] to a finite weight >= 0; missing entries get 1.
    Only the spin blocks J = S+1..2S are built. Site 1 is the most
    significant digit of the basis index.
    """
    if S < 1:
        raise ValueError("need S >= 1")
    if L < 2:
        raise ValueError("need L >= 2")
    d = 2 * S + 1
    cs = {J: 1.0 for J in range(S + 1, 2 * S + 1)}
    for J, c in (coeffs or {}).items():
        if J not in cs:
            raise ValueError("projector coefficient for J=%s outside (S, 2S] = "
                             "(%d, %d]" % (J, S, 2 * S))
        if not 0 <= c < math.inf:
            # NaN fails every comparison, so c < 0 alone would let it in
            raise ValueError("projector coefficients must be finite and >= 0")
        cs[int(J)] = float(c)
    local = sum((c * Projector(S, J).to_dense(q0) for J, c in cs.items() if c),
                np.zeros((d * d, d * d)))
    return BondHamiltonian(local.reshape(d, d, d, d), L, bond_list(L, boundary))


# -- divisibility of the orbit vectors by the bond product -------------


def bond_product(S, site_a=1, site_b=2):
    """The bond product prod_{m=1..S} (q^m x_a y_b - q^-m y_a x_b)."""
    p = SitePoly.one()
    for m in range(1, S + 1):
        p = p * bond_factor(m, site_a, site_b)
    return p


def _reduces_to_zero(poly, m):
    """True when the one-step remainder of poly modulo f_m is zero."""
    rem = {}
    for key, v in poly.terms.items():
        (a, b), (c, d) = poly.exponents_at(key, 1), poly.exponents_at(key, 2)
        t = min(a, d)
        k = (a - t, b + t, c + t, d - t, tuple(e for e in key if e[0] > 2))
        rem[k] = rem.get(k, LaurentQ.zero()) + v * LaurentQ.q_power(-2 * m * t)
    return all(v.is_zero for v in rem.values())


def divisible_by_bond_product(poly, S):
    """True when B = prod_{m=1..S} f_m, f_m = q^m x_1 y_2 - q^-m y_1 x_2,
    divides poly. Modulo f_m, x_1 y_2 = q^-2m y_1 x_2, so with t = min(a, d)
    x_1^a y_1^b x_2^c y_2^d reduces in one step to
    q^-2mt x_1^(a-t) y_1^(b+t) x_2^(c+t) y_2^(d-t). The test is exact:
    - Monomials with no x_1 y_2 factor form a basis modulo (f_m): in lex order
      with x_1 first, a nonzero g f_m leads with the leading monomial of g
      times x_1 y_2. So a zero remainder means f_m divides poly.
    - f_m has degree 1 in x_1, coprime coefficients q^m y_2 and q^-m y_1 x_2
      and a unit of Z[q, 1/q] as content: it is primitive and irreducible.
    - The units are +-q^k, so f_m for different m are not associates; in the
      UFD Z[q, 1/q][x, y], divisibility by every f_m is divisibility by B.
    """
    return all(_reduces_to_zero(poly, m) for m in range(1, S + 1))


def check_divisibility(S):
    """Whether the bond product divides each orbit vector of spin j <= S:
    one row {S, j, t, remainder_zero} per vector, t its lowering step."""
    if S < 1:
        raise ValueError("need S >= 1")
    return [{"S": S, "j": j, "t": t,
             "remainder_zero": divisible_by_bond_product(poly, S)}
            for j in range(0, S + 1) for t, poly in enumerate(rep_basis(S, j))]


def spin2_reference_quotients():
    """Published list of the S=2 orbit vectors with the bond product removed."""
    x1 = SitePoly.var(1, "x")
    y1 = SitePoly.var(1, "y")
    x2 = SitePoly.var(2, "x")
    y2 = SitePoly.var(2, "y")
    qp = LaurentQ.q_power
    cross_plus = x1 * y2 * qp(-2) + x2 * y1 * qp(2)
    cross_zero = x1 * y2 - x2 * y1
    cross_minus = x1 * y2 * qp(-1) - x2 * y1 * qp(1)
    two = LaurentQ({1: 1, -1: 1})
    middle = (x1 * x1 * y2 * y2) * qp(-4) + (x1 * x2 * y1 * y2) * (two * two) \
        + (x2 * x2 * y1 * y1) * qp(4)
    return {
        (2, 0): x1 * x1 * x2 * x2,
        (2, 1): x1 * x2 * cross_plus,
        (2, 2): middle,
        (2, 3): y1 * y2 * cross_plus,
        (2, 4): y1 * y1 * y2 * y2,
        (1, 0): x1 * x2 * cross_zero,
        (1, 1): cross_plus * cross_zero,
        (1, 2): y1 * y2 * cross_zero,
        (0, 0): cross_minus * cross_zero,
    }
