"""Valence-bond chain states built from commuting boson variables.

Creation operators commute, so the bond products expand as ordinary
polynomials; conversion to the spin product basis then happens in one step.
Exact mode is the default at desk scale, floats only enter downstream. The
bond annihilation check decides each of its zero tests exactly, by
evaluation modulo primes under proved degree and height bounds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cgproj import (bond_list, bond_product, charge_chain_state, check_budget,
                     open_prefactor, upper_dual_rows)
from .qnum import PRIMES, Batch, LaurentQ, primes_for_height
from .weylrep import SitePoly, StateVector, poly_to_spin


def _check_state_args(S, L):
    if S < 1:
        raise ValueError("need S >= 1")
    if L < 2:
        raise ValueError("need L >= 2")
    charge_chain_state("state", S, L)


def build_pbc(S, L):
    """Periodic chain ground state: the product of one bond product per link."""
    _check_state_args(S, L)
    poly = SitePoly.one()
    for k, l in bond_list(L, "periodic"):
        poly = poly * bond_product(S, k, l)
    return poly_to_spin(poly, S, range(1, L + 1))


def build_open(S, L, p1, p2):
    """Open chain state with boundary monomials selected by (p1, p2)."""
    _check_state_args(S, L)
    prefactor = open_prefactor(S, p1, p2)
    poly = SitePoly.monomial({1: (S - p1 + 1, p1 - 1)})
    for k, l in bond_list(L, "open"):
        poly = poly * bond_product(S, k, l)
    poly = poly * SitePoly.monomial({L: (p2 - 1, S - p2 + 1)})
    state = poly_to_spin(poly, S, range(1, L + 1))
    state.prefactor = prefactor
    return state


def random_weight_zero_state(S, L, seed=0):
    """Seeded random total-weight-zero state; the negative control."""
    _check_state_args(S, L)
    rng = random.Random(seed)
    amps = {}
    # every m tuple with the first site the fastest digit, weight zero kept,
    # each drawing one coefficient in that order
    d = 2 * S + 1
    mvecs = S - np.indices((d,) * L).reshape(L, -1)[::-1].T
    for mvec in mvecs[mvecs.sum(axis=1) == 0].tolist():
        c = rng.randint(-9, 9)
        if c:
            amps[tuple(mvec)] = LaurentQ.const(c)
    if not amps:
        raise AssertionError("empty control state; change the seed")
    return StateVector(S, L, amps)


# The screen point: 16807 = 7**5 generates the multiplicative group of
# GF(2**31 - 1), so q**(2n) - 1, and with it every q-integer [n], vanishes
# there only when 2n is a multiple of 2**31 - 2; q = +-1 are the points where
# the q-deformation collapses.
_SCREEN_PRIME, _SCREEN_POINT = PRIMES[0], 16807

# terms times points that one step of the pairing holds at once (two int64
# arrays of this size, 256 KiB each)
_BLOCK = 1 << 15


@dataclass(frozen=True)
class _DualLayout:
    """The J > S dual rows of every sector, flattened for batched pairing.

    `entries` holds the nonzero dual entries row by row, as a qnum.Batch;
    `row` the row of each entry and `row_J` the J of each row. `at[c]`
    lists the entries on the pair with code c = (S - m1)(2S+1) + (S - m2),
    -1 padded to S, the most rows with J > S that one sector has.
    """

    entries: Batch
    row: np.ndarray
    row_J: np.ndarray
    at: np.ndarray


@lru_cache(maxsize=8)
def _dual_layout(S):
    d = 2 * S + 1
    entries, row, row_J = [], [], []
    at = np.full((d * d, S), -1, dtype=np.int64)
    used = np.zeros(d * d, dtype=np.int64)
    for pairs, rows in upper_dual_rows(S).values():
        for J, dual in rows:
            for (m1, m2), e in zip(pairs, dual):
                if e.is_zero:
                    continue
                c = (S - m1) * d + S - m2
                at[c, used[c]] = len(entries)
                used[c] += 1
                entries.append(e)
                row.append(len(row_J))
            row_J.append(J)
    row, row_J = np.array(row), np.array(row_J)
    row.flags.writeable = row_J.flags.writeable = at.flags.writeable = False
    return _DualLayout(Batch(entries), row, row_J, at)


@lru_cache(maxsize=16)
def _dual_residues(S, p, points):
    """The dual entries of S at the given points mod p, one column a point,
    read-only."""
    values = _dual_layout(S).entries.eval_mod(points, p)
    values.flags.writeable = False
    return values


def _components(S, digits, bonds, layout):
    """Every (rest, w, J) component of every bond as a run of terms.

    `digits` holds each amplitude key's site digits S - m, one row a key.
    The component pairs the J dual row of sector w with the amplitudes that
    read `rest` on the sites off the bond; each term is one (amplitude, dual
    entry) product with both factors nonzero. The terms come sorted so that
    every component is one contiguous run; a component with no term is zero
    and is left out. Returns the key row and entry index of each term, the
    run boundaries (run i is terms bounds[i]:bounds[i+1]), and the bond
    index and J of each run.
    """
    L = digits.shape[1]
    d = 2 * S + 1
    n_rows, n_bonds = len(layout.row_J), len(bonds)
    k, l = (np.array(bonds, dtype=np.int64).reshape(-1, 2) - 1).T
    # one row of bytes per bond and amplitude: the bond, then the digits
    # with the bond's two cleared. Equal rows read one rest on one bond;
    # their rank among the distinct rows keys the rest in an int64 below
    # bonds x amplitudes, however large d**L
    rest = np.empty((n_bonds, len(digits), L + 1),
                    np.min_scalar_type(max(d, n_bonds)))
    rest[:, :, 0] = np.arange(n_bonds)[:, None]
    rest[:, :, 1:] = digits
    rest[np.arange(n_bonds), :, k + 1] = 0
    rest[np.arange(n_bonds), :, l + 1] = 0
    rows = rest.view(np.dtype((np.void, rest.itemsize * (L + 1))))
    rank = np.unique(rows.reshape(-1), return_inverse=True)[1]
    at = layout.at[digits[:, k].T * d + digits[:, l].T]
    bond, amp, slot = np.nonzero(at >= 0)
    entry = at[bond, amp, slot]
    rank = rank.reshape(n_bonds, len(digits))
    key = rank[bond, amp] * n_rows + layout.row[entry]
    order = np.argsort(key, kind="stable")
    key = key[order]
    edges = np.ones(len(key) + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    first = bounds[:-1]
    return (amp[order], entry[order], bounds, bond[order][first],
            layout.row_J[key[first] % n_rows])


def _nonzero_runs(amps, S, L, amp, entry, starts, points, primes):
    """Which runs have a nonzero sum at some point modulo some prime.

    Run i sums amplitude times dual entry over the terms from starts[i] to
    the next start, in residues, so no sum leaves int64. The memory,
    eval_mod's work arrays for the amplitude batch amps at the points, the
    terms, and one block of terms x points, is counted against the budget.
    """
    n = len(amps.lo)
    width = int(amps.hi.max(initial=0) - amps.lo.min(initial=0)) + 1
    check_budget(8 * (len(points) * (5 * n + 3 * width) + n * width
                      + 4 * len(amp) + 2 * _BLOCK),
                 "verify_annihilation(S=%d, L=%d)" % (S, L))
    step = max(1, _BLOCK // max(len(amp), 1))
    nonzero = np.zeros(len(starts), dtype=bool)
    for p in primes:
        a, dv = amps.eval_mod(points, p), _dual_residues(S, p, points)
        for k in range(0, len(points), step):
            terms = a[amp, k:k + step]
            terms *= dv[entry, k:k + step]
            terms %= p
            nonzero |= (np.add.reduceat(terms, starts) % p).any(axis=1)
    return nonzero


def verify_annihilation(state, boundary="periodic", bonds=None):
    """Exact residuals of every high-spin projector on every bond.

    For each bond (k, l) and each J in S+1..2S the J-component of the two-site
    restriction is paired against the dual rows of the sector decomposition;
    an exact zero means the projector annihilates the state on that bond.
    The pairings are zero tests mod primes: every component is screened at
    one point, where a nonzero residue proves it nonzero. A component that
    vanishes there is a Laurent polynomial whose exponent span and l1 norm
    are bounded through its terms' spans; with D and H the largest of these
    bounds, those components are evaluated at the D+1 points 1..D+1 modulo
    enough primes that their product exceeds 2H, so one that vanishes at
    all of them is zero (see qnum).
    """
    S, L = state.S, state.L
    chain_bonds = bond_list(L, boundary)  # checks the label in any case
    bonds = chain_bonds if bonds is None else bonds
    for k, l in bonds:
        if not (1 <= k <= L and 1 <= l <= L and k != l):
            raise ValueError("bond (%s, %s) is not two sites of 1..%d"
                             % (k, l, L))
    # a key off the digits 0..2S would read as another pair on the bond
    allowed = set(range(-S, S + 1))
    if not (set(map(len, state.amps)) <= {L}
            and allowed.issuperset(itertools.chain.from_iterable(state.amps))):
        bad = next(k for k in state.amps
                   if len(k) != L or not allowed.issuperset(k))
        raise ValueError("amplitude key %r is not %d integers in -%d..%d"
                         % (bad, L, S, S))
    layout = _dual_layout(S)
    distinct, which, digits = state.layout()
    amps = Batch(distinct)
    amp, entry, bounds, comp_bond, comp_J = _components(S, digits, bonds,
                                                        layout)
    amp = which[amp]  # from each term's key row to its distinct amplitude
    nonzero = _nonzero_runs(amps, S, L, amp, entry, bounds[:-1],
                            (_SCREEN_POINT,), (_SCREEN_PRIME,))
    left = ~nonzero
    if left.any():
        sizes = np.diff(bounds)
        terms = np.repeat(left, sizes)
        amp, entry, sizes = amp[terms], entry[terms], sizes[left]
        starts = np.cumsum(sizes) - sizes
        duals = layout.entries
        hi = np.maximum.reduceat(amps.hi[amp] + duals.hi[entry], starts)
        lo = np.minimum.reduceat(amps.lo[amp] + duals.lo[entry], starts)
        D = int((hi - lo).max())
        H = int(np.add.reduceat(amps.l1[amp] * duals.l1[entry], starts).max())
        primes = primes_for_height(H, "verify_annihilation(S=%d)" % S)
        nonzero[left] = _nonzero_runs(amps, S, L, amp, entry, starts,
                                      range(1, D + 2), primes)
    bad = np.zeros((len(bonds), S), dtype=bool)
    bad[comp_bond[nonzero], comp_J[nonzero] - S - 1] = True
    counts = np.bincount(comp_bond[nonzero], minlength=len(bonds)).tolist()
    report = {"S": S, "L": L, "boundary": boundary, "bonds": {},
              "all_zero": not nonzero.any()}
    for (k, l), row, count in zip(bonds, bad.tolist(), counts):
        zero = {J: not flag for J, flag in zip(range(S + 1, 2 * S + 1), row)}
        report["bonds"]["%d-%d" % (k, l)] = {"residual_zero": zero,
                                             "nonzero_components": count}
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

    The inclusion is one check: each multiple sits on sites 1, 2 of a
    four-site state whose sites 3, 4 hold its monomial's labels (a, b), so
    on bond (1, 2) every component belongs to exactly one multiple.
    """
    prod = bond_product(S)
    amps = {}
    for a in range(S + 1):
        for b in range(S + 1):
            f = SitePoly.monomial({1: (a, S - a), 2: (b, S - b)})
            for mvec, amp in poly_to_spin(f * prod, S, (1, 2)).amps.items():
                amps[mvec + (a, b)] = amp
    rep = verify_annihilation(StateVector(S, 4, amps), "open", bonds=[(1, 2)])
    inclusion = rep["all_zero"]
    dim = two_site_kernel_dimension(S)
    return {
        "S": S,
        "inclusion": inclusion,
        "kernel_dimension": dim,
        "dimension_matches": dim == (S + 1) ** 2,
        "solution_space_identified": inclusion and dim == (S + 1) ** 2,
    }
