"""Valence-bond chain states built from commuting boson variables.

Creation operators commute, so the bond products expand as ordinary
polynomials; conversion to the spin product basis then happens in one step.
Exact mode is the default at desk scale, floats only enter downstream.
"""

from __future__ import annotations

import itertools
import random

from .cgproj import (bond_list, bond_product, check_budget, exact_dot,
                     upper_dual_rows)
from .qnum import LaurentQ, q_binomial
from .weylrep import SitePoly, StateVector, poly_to_spin


def _check_state_args(S, L):
    if S < 1:
        raise ValueError("need S >= 1")
    if L < 2:
        raise ValueError("need L >= 2")
    dim = (2 * S + 1) ** L
    # rough per-amplitude bookkeeping cost of the exact representation
    check_budget(dim * 256, "state(S=%d, L=%d)" % (S, L))


def build_pbc(S, L):
    """Periodic chain ground state: the product of one bond product per link."""
    _check_state_args(S, L)
    poly = SitePoly.one()
    for k in range(1, L + 1):
        poly = poly * bond_product(S, k, k % L + 1)
    return poly_to_spin(poly, S, range(1, L + 1))


def build_open(S, L, p1, p2):
    """Open chain state with boundary monomials selected by (p1, p2)."""
    _check_state_args(S, L)
    if not (1 <= p1 <= S + 1 and 1 <= p2 <= S + 1):
        raise ValueError("boundary labels must lie in 1..S+1")
    poly = SitePoly.monomial({1: (S - p1 + 1, p1 - 1)})
    for k in range(1, L):
        poly = poly * bond_product(S, k, k + 1)
    poly = poly * SitePoly.monomial({L: (p2 - 1, S - p2 + 1)})
    state = poly_to_spin(poly, S, range(1, L + 1))
    state.prefactor = (q_binomial(S, p1 - 1), q_binomial(S, p2 - 1))
    return state


def random_weight_zero_state(S, L, seed=0):
    """Seeded random total-weight-zero state; the negative control."""
    _check_state_args(S, L)
    rng = random.Random(seed)
    amps = {}
    # the first site is the fastest digit
    for digits in itertools.product(range(2 * S + 1), repeat=L):
        mvec = tuple(S - k for k in reversed(digits))
        if sum(mvec) != 0:
            continue
        c = rng.randint(-9, 9)
        if c:
            amps[mvec] = LaurentQ.const(c)
    if not amps:
        raise AssertionError("empty control state; change the seed")
    return StateVector(S, L, amps)


def verify_annihilation(state, boundary="periodic", bonds=None):
    """Exact residuals of every high-spin projector on every bond.

    For each bond (k, l) and each J in S+1..2S the J-component of the two-site
    restriction is paired against the dual rows of the sector decomposition;
    an exact zero means the projector annihilates the state on that bond.
    """
    S, L = state.S, state.L
    duals = upper_dual_rows(S)
    if bonds is None:
        bonds = bond_list(L, boundary)
    report = {"S": S, "L": L, "boundary": boundary, "bonds": {}, "all_zero": True}
    for (k, l) in bonds:
        pk, pl = k - 1, l - 1
        groups = {}
        for mvec, amp in state.amps.items():
            rest = tuple(m for i, m in enumerate(mvec) if i not in (pk, pl))
            groups.setdefault(rest, {})[(mvec[pk], mvec[pl])] = amp
        residual = {}
        for rest, pair_amps in groups.items():
            by_w = {}
            for pair, amp in pair_amps.items():
                by_w.setdefault(pair[0] + pair[1], {})[pair] = amp
            for w, amps_w in by_w.items():
                pairs, rows = duals[w]
                vec = [amps_w.get(p, LaurentQ.zero()) for p in pairs]
                for J, row in rows:
                    if not exact_dot(row, vec).is_zero:
                        residual[J] = residual.get(J, 0) + 1
        zero = {J: residual.get(J, 0) == 0 for J in range(S + 1, 2 * S + 1)}
        report["bonds"]["%d-%d" % (k, l)] = {
            "residual_zero": zero,
            "nonzero_components": sum(residual.values()),
        }
        if not all(zero.values()):
            report["all_zero"] = False
    return report


def two_site_kernel_dimension(S):
    """Dimension of the joint kernel of all J > S projectors on two sites.

    Counted sector by sector from the verified change of basis; the expected
    value is (S+1)^2.
    """
    total = 0
    for w, (pairs, rows) in upper_dual_rows(S).items():
        total += len(pairs) - len(rows)
    return total


def verify_two_site_lemma(S):
    """Exact two-site solution-space check at the physical degree.

    Every multiple of the bond product by a complementary-degree monomial is
    annihilated by all J > S projectors (inclusion), and the joint kernel has
    dimension (S+1)^2 (counting); together these identify the kernel with the
    bond-product multiples exactly.
    """
    prod = bond_product(S)
    inclusion = True
    for a in range(S + 1):
        for b in range(S + 1):
            f = SitePoly.monomial({1: (a, S - a), 2: (b, S - b)})
            state = poly_to_spin(f * prod, S, (1, 2))
            rep = verify_annihilation(state, "open", bonds=[(1, 2)])
            inclusion = inclusion and rep["all_zero"]
    dim = two_site_kernel_dimension(S)
    return {
        "S": S,
        "inclusion": inclusion,
        "kernel_dimension": dim,
        "dimension_matches": dim == (S + 1) ** 2,
        "solution_space_identified": inclusion and dim == (S + 1) ** 2,
    }
