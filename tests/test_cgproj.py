import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import oracles

from qvbs.cgproj import (
    BudgetError,
    Projector,
    _reduces_to_zero,
    bond_product,
    check_divisibility,
    divisible_by_bond_product,
    exact_dot,
    hamiltonian,
    highest_weight,
    rep_basis,
    sector_system,
    spin2_reference_quotients,
)
from qvbs.qnum import LaurentQ, laurent_gcd
from qvbs.weylrep import (XPLUS, SitePoly, bond_factor, coproduct_apply,
                          poly_to_spin, weight_radicand)

Q0 = Fraction(4, 5)


def test_highest_weight_top_is_monomial():
    for S in (1, 2, 3):
        hw = highest_weight(S, 2 * S)
        assert hw == SitePoly.monomial({1: (2 * S, 0), 2: (2 * S, 0)})


def test_highest_weight_s2_j2_matches_published_form():
    hw = highest_weight(2, 2)
    ref = SitePoly.monomial({1: (2, 0), 2: (2, 0)}) \
        * bond_factor(1, 1, 2) * bond_factor(2, 1, 2)
    assert hw.proportional_to(ref)


def test_highest_weight_singlet_annihilated():
    for S in (1, 2):
        hw = highest_weight(S, 0)
        assert coproduct_apply(hw, XPLUS, (1, 2)).is_zero


def test_highest_weight_range_errors():
    with pytest.raises(ValueError):
        highest_weight(2, 5)
    with pytest.raises(ValueError):
        highest_weight(2, -1)


def test_rep_basis_dimensions():
    for S in (1, 2):
        for J in range(0, 2 * S + 1):
            orbit = rep_basis(S, J)
            assert len(orbit) == 2 * J + 1
            assert all(not v.is_zero for v in orbit)


def test_rep_basis_vectors_are_primitive():
    # every orbit vector is over the gcd of its coefficients: their q-content
    # is a unit, and a vector with one coefficient holds 1 there
    for S in (1, 2, 3):
        for J in range(0, 2 * S + 1):
            for v in rep_basis(S, J):
                assert reduce(laurent_gcd, v.terms.values()) == LaurentQ.one()


def test_sector_duals_match_unreduced_construction():
    # primitive orbit vectors and sector weights over their gcd change no
    # dual row: each equals, key for key, W o B over its content as formed
    # from the orbit lowered with no content removed and the full weights
    for S in (1, 2, 3):
        ref = oracles.sector_duals(S)
        got = {w: sec.duals for w, sec in sector_system(S).items()}
        assert got.keys() == ref.keys()
        for w, rows in ref.items():
            assert [[e.key() for e in row] for row in got[w]] \
                == [[e.key() for e in row] for row in rows], (S, w)


def test_rep_basis_s2_lowered_vector_matches_published():
    v = rep_basis(2, 2)[1]
    ref = (SitePoly.monomial({1: (1, 0)}) * SitePoly.monomial({2: (1, 0)})
           * (SitePoly.monomial({1: (1, 0), 2: (0, 1)}, LaurentQ.q_power(-2))
              + SitePoly.monomial({1: (0, 1), 2: (1, 0)}, LaurentQ.q_power(2)))
           * bond_factor(1, 1, 2) * bond_factor(2, 1, 2))
    assert v.proportional_to(ref)


def _pair(row, col):
    acc = LaurentQ.zero()
    for d, c in zip(row, col):
        acc = acc + d * c
    return acc


def test_sector_inverse_identity():
    # rows D_J / n_J invert B = [cols] from both sides: D @ B = diag(n) and
    # sum_J cols_J D_J prod_{K != J} n_K = prod_K n_K * I
    for S in (1, 2):
        for w, sec in sector_system(S).items():
            n = len(sec.pairs)
            assert len(sec.Js) == n
            for j in range(n):
                for k in range(n):
                    acc = _pair(sec.duals[j], sec.cols[k])
                    assert acc == (sec.norms[j] if j == k else LaurentQ.zero())
            full = LaurentQ.one()
            for nj in sec.norms:
                full = full * nj
            for p in range(n):
                for r in range(n):
                    acc = LaurentQ.zero()
                    for j in range(n):
                        others = LaurentQ.one()
                        for k in range(n):
                            if k != j:
                                others = others * sec.norms[k]
                        acc = acc + sec.cols[j][p] * sec.duals[j][r] * others
                    assert acc == (full if p == r else LaurentQ.zero())


def test_projector_idempotent_orthogonal_complete_exact():
    # rank-one cores: pi_J^2 = pi_J  <=>  D_J . col_J = n_J, and
    # pi_J pi_K = 0  <=>  D_J . col_K = 0; completeness is D @ B = diag(n)
    # with every n_J nonzero; the full Gram matrix is the reference for the
    # orthogonality that sector_system proves instead of forming it
    for S in (1, 2, 3, 4):
        for w, sec in sector_system(S).items():
            n = len(sec.pairs)
            assert all(not nj.is_zero for nj in sec.norms)
            for j in range(n):
                for k in range(n):
                    acc = _pair(sec.duals[j], sec.cols[k])
                    assert acc == (sec.norms[j] if j == k else LaurentQ.zero())


def test_sector_orthogonality_check_rejects_wrong_weight(monkeypatch):
    # with unit radicand weights the orbit vectors are not orthogonal, and
    # the exact check inside sector_system must refuse the sector
    import qvbs.cgproj as cgproj
    monkeypatch.setattr(cgproj, "weight_radicand", lambda S, m: LaurentQ.one())
    with pytest.raises(AssertionError, match="not orthogonal"):
        cgproj.sector_system.__wrapped__(2)


@pytest.mark.parametrize("m", (-2, 0, 1))
def test_sector_proof_rejects_a_weight_off_by_q(monkeypatch, m):
    # the radicand weight times q at one m breaks the adjointness of the
    # lowering and raising actions at that m's neighbours
    import qvbs.cgproj as cgproj
    real = cgproj.weight_radicand
    monkeypatch.setattr(cgproj, "weight_radicand",
                        lambda S, k: real(S, k).shift(int(k == m)))
    with pytest.raises(AssertionError, match="not adjoint"):
        cgproj.sector_system.__wrapped__(2)


def test_sector_proof_checks_the_commutator(monkeypatch):
    # doubling both two-site actions keeps them adjoint but makes
    # [DX+, DX-] four times [H]
    import qvbs.cgproj as cgproj
    real = cgproj.coproduct_apply
    monkeypatch.setattr(cgproj, "coproduct_apply",
                        lambda p, gen, sites: real(p, gen, sites).scale(2))
    with pytest.raises(AssertionError, match=r"\[DX\+, DX-\] is not \[H\]"):
        cgproj.sector_system.__wrapped__(1)


def test_sector_system_spin4_frontier():
    # the orthogonality certificate holds at S=4 and the two-site kernel of
    # the J > 4 projectors has dimension (S+1)^2
    from qvbs.vbsstate import two_site_kernel_dimension
    secs = sector_system(4)
    assert sum(len(sec.Js) for sec in secs.values()) == 81
    assert two_site_kernel_dimension(4) == 25


def test_projector_defining_property_exact():
    # n_J P_J v = col_J (dual_J . v) on the orbit vectors v of every K: it is
    # n_J v for K = J and zero otherwise
    for S in (1, 2):
        for K in range(0, 2 * S + 1):
            for poly in rep_basis(S, K):
                amps = poly_to_spin(poly, S, (1, 2)).amps
                sec = sector_system(S)[sum(next(iter(amps)))]
                v = [amps.get(p, LaurentQ.zero()) for p in sec.pairs]
                for j, J in enumerate(sec.Js):
                    s = exact_dot(sec.duals[j], v)
                    out = [c * s for c in sec.cols[j]]
                    norm = sec.norms[j] if J == K else LaurentQ.zero()
                    assert out == [norm * a for a in v], (S, J, K)


def test_projector_dense_idempotent_numeric():
    for S in (1, 2):
        for J in range(S + 1, 2 * S + 1):
            P = Projector(S, J).to_dense(Q0)
            assert np.abs(P @ P - P).max() < 1e-9
    total = sum(Projector(2, J).to_dense(Q0) for J in range(0, 5))
    assert np.abs(total - np.eye(25)).max() < 1e-9


def test_projector_dense_entries_match_sector_data():
    # entry (v, w) = col_J[v] dual_J[w] / (n_J W_w) * sqrt(W_v W_w), W the
    # pair radicand weights, evaluated in exact rationals up to one sqrt
    S, J = 2, 3
    P = Projector(S, J)
    D = P.to_dense(Q0)
    for w, sec in sector_system(S).items():
        if J not in sec.Js:
            continue
        j = sec.Js.index(J)
        W = [(weight_radicand(S, a) * weight_radicand(S, b)).eval_fraction(Q0)
             for a, b in sec.pairs]
        for iv, vp in enumerate(sec.pairs):
            for iw, wp in enumerate(sec.pairs):
                rat = (sec.cols[j][iv] * sec.duals[j][iw]).eval_fraction(Q0) / (
                    sec.norms[j].eval_fraction(Q0) * W[iw])
                ref = float(rat) * math.sqrt(W[iv] * W[iw])
                got = D[P.pair_index(vp), P.pair_index(wp)]
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_low_spin_projector_rank():
    total = sum(Projector(2, J).to_dense(Q0) for J in (0, 1, 2))
    assert np.linalg.matrix_rank(total) == 9


def test_hamiltonian_kernel_dims():
    H = hamiltonian(1, 2, Q0, "open") @ np.eye(9)
    sv = np.linalg.svd(H, compute_uv=False)
    assert int((sv < 1e-10 * sv.max()).sum()) == 4


def test_hamiltonian_kills_low_spin_blocks():
    # any two-site vector of total spin <= S is in the kernel
    H = hamiltonian(2, 2, Q0, "open") @ np.eye(25)
    for j in (0, 1, 2):
        for poly in rep_basis(2, j):
            v = poly_to_spin(poly, 2, (1, 2)).to_dense(Q0)
            assert np.abs(H @ v).max() < 1e-9 * np.abs(v).max()


def test_hamiltonian_h2_same_kernel():
    H = hamiltonian(1, 4, Q0, "periodic") @ np.eye(81)
    s1 = np.linalg.svd(H, compute_uv=False)
    s2 = np.linalg.svd(H @ H, compute_uv=False)
    k1 = int((s1 < 1e-10 * s1.max()).sum())
    k2 = int((s2 < 1e-10 * s2.max()).sum())
    assert k1 == k2


def test_hamiltonian_weight_conserving():
    rows, cols = np.nonzero(hamiltonian(2, 3, Q0, "periodic") @ np.eye(125))

    def wt(i):
        out = 0
        for _ in range(3):
            out += 2 - i % 5
            i //= 5
        return out

    assert len(rows) > 125
    assert all(wt(i) == wt(j) for i, j in zip(rows, cols))


def test_hamiltonian_coefficients_and_budget(monkeypatch):
    H0 = hamiltonian(1, 2, Q0, "open", coeffs={2: 0.0}) @ np.eye(9)
    assert np.abs(H0).max() == 0.0
    with pytest.raises(ValueError):
        hamiltonian(1, 2, Q0, "open", coeffs={2: -1.0})
    # NaN passed the old c < 0 test and gave a NaN operator
    for c in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            hamiltonian(1, 4, Q0, coeffs={2: c})
    # J = 0 once gave a wrong operator with no error
    for J in (0, 1, 3):
        with pytest.raises(ValueError, match="outside"):
            hamiltonian(1, 4, Q0, coeffs={J: 1.0})
    for L, boundary in ((1, "periodic"), (0, "open")):
        with pytest.raises(ValueError, match="need L >= 2"):
            hamiltonian(1, L, Q0, boundary)
    for S in (0, -1):
        with pytest.raises(ValueError, match="need S >= 1"):
            hamiltonian(S, 3, Q0)
    monkeypatch.setenv("QVBS_BUDGET_MB", "0")
    H = hamiltonian(2, 6, Q0)
    with pytest.raises(BudgetError):
        H @ np.zeros(5 ** 6)


@pytest.mark.parametrize("boundary", ("periodic", "open"))
@pytest.mark.parametrize("S, L", ((1, 5), (2, 3), (3, 2)))
def test_hamiltonian_matches_bondwise_tensordot(S, L, boundary):
    # an independent dense build: bond (k, k+1) is I (x) h (x) I with site 1
    # the leading digit; the deformed projector is not swap-symmetric, so the
    # wrap bond (L, 1) is bond (L-1, L) under the digit rotation that moves
    # site 1 to the end, which puts site L first
    d = 2 * S + 1
    dim = d ** L
    coeffs = {2 * S: 2.5}
    local = sum(coeffs.get(J, 1.0) * Projector(S, J).to_dense(Q0)
                for J in range(S + 1, 2 * S + 1))

    def on_bond(k):
        return np.kron(np.eye(d ** (k - 1)),
                       np.kron(local, np.eye(d ** (L - k - 1))))

    ref = sum(on_bond(k) for k in range(1, L))
    if boundary == "periodic":
        rot = np.arange(dim).reshape(d ** (L - 1), d).T.reshape(-1)
        ref = ref + on_bond(L - 1)[rot][:, rot]
    H = hamiltonian(S, L, Q0, boundary, coeffs)
    v = np.random.default_rng(5).standard_normal(dim)
    assert np.abs(H @ v - ref @ v).max() <= 1e-12 * np.abs(ref @ v).max()
    block = H @ np.eye(dim)
    assert block.shape == (dim, dim)
    assert np.abs(block - ref).max() <= 1e-12 * np.abs(ref).max()


def test_divisibility_all_low_spin():
    for S in (1, 2, 3):
        rep = check_divisibility(S)
        assert len(rep) == (S + 1) ** 2
        assert all(r["remainder_zero"] for r in rep)


def test_divisibility_rejects_spin_below_one():
    for S in (0, -1):
        with pytest.raises(ValueError, match="need S >= 1"):
            check_divisibility(S)


def test_divisibility_negative_control():
    # an orbit vector is a bond-product multiple exactly when J <= S: the
    # top blocks J > S are the controls
    assert all(divisible_by_bond_product(v, S) == (J <= S)
               for S in (1, 2, 3, 4) for J in range(2 * S + 1)
               for v in rep_basis(S, J))


def test_spin2_quotients_match_published():
    # divisible with a quotient proportional to ref, as one product check
    B = bond_product(2)
    for (j, t), ref in spin2_reference_quotients().items():
        assert rep_basis(2, j)[t].proportional_to(ref * B)


def test_bond_product_divides_itself():
    g = SitePoly.monomial({1: (2, 1), 2: (0, 3)})
    assert divisible_by_bond_product(bond_product(3) * g, 3)
    assert not divisible_by_bond_product(g, 1)


def _cofactor():
    return (SitePoly.monomial({1: (2, 1), 2: (0, 3)})
            + SitePoly.monomial({1: (0, 1), 2: (2, 0)}, LaurentQ.q_power(3))
            + SitePoly.monomial({1: (1, 0), 2: (1, 1)}, 2))


def test_divisibility_rejects_a_repeated_or_foreign_factor():
    # f_1^2 g has f_1 twice but no f_2; f_1 f_3 has the right count of
    # factors but not the right ones
    f1, f3 = bond_factor(1, 1, 2), bond_factor(3, 1, 2)
    assert not divisible_by_bond_product(f1 * f1 * _cofactor(), 2)
    assert not divisible_by_bond_product(f1 * f3, 2)
    assert divisible_by_bond_product(f1 * bond_factor(2, 1, 2) * f3, 2)


def test_reduction_matches_the_bond_factor_of_weylrep():
    # the reduction rule x_1 y_2 -> q^-2m y_1 x_2 must be the one written
    # in weylrep.bond_factor: f_m g passes for m and fails for every other m'
    for m in (1, 2, 3):
        p = bond_factor(m, 1, 2) * _cofactor()
        assert [_reduces_to_zero(p, k) for k in (1, 2, 3)] \
            == [k == m for k in (1, 2, 3)]


def test_divisibility_keeps_other_sites_apart():
    # x_3 x_1 y_2 - q^-2 y_3 y_1 x_2 reduces to two terms that cancel only
    # when the site-3 variables are dropped
    x3, y3 = SitePoly.var(3, "x"), SitePoly.var(3, "y")
    p = (x3 * SitePoly.monomial({1: (1, 0), 2: (0, 1)})
         - y3 * SitePoly.monomial({1: (0, 1), 2: (1, 0)}, LaurentQ.q_power(-2)))
    assert not divisible_by_bond_product(p, 1)
    assert divisible_by_bond_product((x3 + y3) * bond_factor(1, 1, 2), 1)


def test_raising_cancellation_up_to_spin4():
    # the closed form and the recursion agree, and the raising action kills
    # the result, for every block up to two spin-4 sites (asserted inside)
    for J in range(0, 9):
        highest_weight(4, J)


def test_hamiltonian_annihilates_pbc_state():
    from qvbs.vbsstate import build_pbc
    H = hamiltonian(2, 4, Q0, "periodic")
    v = build_pbc(2, 4).to_dense(Q0)
    assert np.abs(H @ v).max() < 1e-10 * np.abs(v).max()
