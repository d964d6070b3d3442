import gc
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qvbs import transfercorr
from qvbs.cgproj import BudgetError
from qvbs.linalg import adjugate
from qvbs.mpscore import dense_pbc_two_point_sz, tensor_f
from qvbs.qnum import PRIMES, LaurentQ, RatQ, q_factorial, q_integer
from qvbs.transfercorr import (
    CONJECTURE_TOL,
    EigenSystem,
    Q_CACHE_SIZE,
    Spectral,
    SpectralGapError,
    conjecture_exact_certificate,
    exact_trace_power,
    closed_form_szsz,
    conjecture_check,
    conjectured_eigenvalue,
    conjectured_eigenvalue_float,
    eigensystem,
    isotropic_szsz_limit,
    level_check,
    sz_distribution,
    sz_distribution_exact,
    sz_operator,
    sz_probabilities_reference_spin2,
    top_eigenvector_exact,
    transfer_diag_block_exact,
    transfer_matrix,
    two_point_finite,
    two_point_finite_range,
    two_point_thermo,
    two_point_thermo_printed_form,
    two_point_thermo_range,
)

import oracles
from oracles import (conjecture_moment_identity, factors_annihilate,
                     power_sums_match)

Q_GRID = (Fraction(1, 2), Fraction(4, 5), Fraction(1), Fraction(5, 4), Fraction(2))


def test_spectrum_s2_isotropic():
    es = eigensystem(transfer_matrix(2, 1))
    vals = [(round(v), m) for v, m in es.groups]
    assert vals == [(40, 1), (-20, 3), (4, 5)]


def test_spectrum_s1():
    es = eigensystem(transfer_matrix(1, 1))
    assert [(round(v), m) for v, m in es.groups] == [(3, 1), (-1, 3)]


def test_transfer_selection_rule_and_symmetry():
    for S in (1, 2, 3, 4, 5):
        G = transfer_matrix(S, Fraction(4, 5))
        d = S + 1
        assert np.abs(G - G.T).max() < 1e-12 * np.abs(G).max()
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    for e in range(d):
                        if a - b != c - e:
                            assert G[a * d + b, c * d + e] == 0.0


def test_transfer_sz_factor():
    # the sz-sandwiched matrix vanishes on entries with d == b
    S = 2
    G = transfer_matrix(S, Fraction(4, 5), "sz")
    d = S + 1
    for a in range(d):
        for b in range(d):
            for c in range(d):
                if G[a * d + b, c * d + b] != 0.0:
                    raise AssertionError("sz insertion must kill d == b entries")


def test_transfer_custom_operator_matches_tagged():
    S = 2
    a = transfer_matrix(S, Fraction(4, 5), "sz")
    b = transfer_matrix(S, Fraction(4, 5), sz_operator(S))
    assert np.abs(a - b).max() == 0.0
    with pytest.raises(ValueError, match="unknown operator tag"):
        transfer_matrix(S, Fraction(4, 5), "id")


@pytest.mark.parametrize("S", (1, 2, 3, 4, 5))
def test_transfer_non_diagonal_operator_matches_einsum(S):
    # independent route: contract the physical index of both layers through A
    q0 = Fraction(4, 5)
    A = np.random.default_rng(S).standard_normal((2 * S + 1, 2 * S + 1))
    F = tensor_f(S).phys_matrices(q0)
    d = (S + 1) ** 2
    ref = np.einsum("mac,mn,nbd->abcd", F, A, F).reshape(d, d)
    G = transfer_matrix(S, q0, A)
    assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()


def test_transfer_rejects_nonpositive_q():
    with pytest.raises(ValueError):
        transfer_matrix(2, 0)


@pytest.mark.parametrize("A", (None, "sz", np.diag(np.arange(7.0))))
def test_transfer_matrix_rejects_non_finite_entries(A):
    # at q = 1e20 the S=3 broadcast overflows: inf and NaN entries, and a NaN
    # passed the constructions' cross-check since nan > tol is False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="S=3 is not finite"):
            transfer_matrix(3, Fraction(10 ** 20), A)


@pytest.mark.parametrize("row, change", ((4, lambda sign: -sign),
                                         (5, lambda e: e + 1)),
                         ids=("sign", "exponent"))
@pytest.mark.parametrize("col", (0, 22, -1))  # S=3 has 44 coupled entries
def test_slip_in_the_entry_rule_fails_cross_check_and_certificate(
        slipped_rule, row, change, col):
    # the float cross-check and the exact certificate read one entry rule,
    # so one wrong sign or q exponent there must fail both
    slipped_rule(3, row, col, change)
    with pytest.raises(AssertionError, match="constructions disagree"):
        transfer_matrix(3, Fraction(4, 5))
    assert conjecture_exact_certificate(3)["proved"] is False


def test_sz_transfer_matrix_antisymmetry_is_checked(monkeypatch):
    # both constructions wrong in the same way pass the cross-check; a
    # symmetric G^sz still fails the antisymmetry check
    fake = np.ones((9, 9))
    monkeypatch.setattr(transfercorr, "_transfer_generic", lambda S, q0, op: fake)
    monkeypatch.setattr(transfercorr, "_transfer_explicit",
                        lambda S, q0, with_sz: fake)
    transfer_matrix(2, Fraction(4, 5))
    with pytest.raises(AssertionError, match="not antisymmetric"):
        transfer_matrix(2, Fraction(4, 5), "sz")


def test_eigensystem_properties():
    G = transfer_matrix(2, Fraction(4, 5))
    es = eigensystem(G)
    E = es.vectors
    assert np.abs(E.T @ E - np.eye(9)).max() < 1e-12
    recon = E @ np.diag(es.eigenvalues) @ E.T
    assert np.abs(recon - G).max() < 1e-10 * np.abs(G).max()
    assert sum(m for _, m in es.groups) == 9


def test_eigensystem_gap_error():
    # a degenerate top eigenvalue, then one of equal magnitude: eigensystem
    # groups them and the spectral data's gap check rejects both
    for fake in (np.diag([2.0, 2.0, 1.0, 0.5]), np.diag([2.0, -2.0, 1.0, 0.5])):
        es = eigensystem(fake)
        with pytest.raises(SpectralGapError):
            transfercorr._require_gap(es)


def test_conjectured_eigenvalue_exact_s2():
    i2, i4, i5 = q_integer(2), q_integer(4), q_integer(5)
    assert conjectured_eigenvalue(2, 0) == RatQ(i5 * i4 * i2)
    assert conjectured_eigenvalue(2, 1) == RatQ(-(i5 * i2 * i2))
    assert conjectured_eigenvalue(2, 2) == RatQ(i2 * i2)


def test_conjectured_eigenvalue_s1_isotropic():
    assert conjectured_eigenvalue_float(1, 0, 1) == pytest.approx(3.0)
    assert conjectured_eigenvalue_float(1, 1, 1) == pytest.approx(-1.0)


@pytest.mark.parametrize("S", (1, 2, 3, 4, 5))
def test_conjecture_against_diagonalization(S):
    for q0 in (Fraction(1, 2), Fraction(9, 10), Fraction(13, 10)):
        assert conjecture_check(S, q0)["match"]


def test_conjectured_eigenvalue_is_a_q_integer_product():
    # [2S+1]! [S,l] / ([S+1] [S+l+1,l]) cancels down to
    # (-1)^l [S+l+2]...[2S+1] [S-l+1]...[S] [S]!
    for S in range(1, 9):
        for l in range(S + 1):
            want = LaurentQ.const((-1) ** l) * q_factorial(S)
            for n in [*range(S + l + 2, 2 * S + 2), *range(S - l + 1, S + 1)]:
                want = want * q_integer(n)
            lam = conjectured_eigenvalue(S, l)
            assert isinstance(lam, LaurentQ)
            assert lam == want


def test_conjectured_eigenvalue_range():
    with pytest.raises(ValueError):
        conjectured_eigenvalue(2, 3)


def test_two_point_finite_matches_dense():
    for r in range(2, 9):
        a = two_point_finite("sz", "sz", 2, Fraction(9, 10), 8, r)
        b = dense_pbc_two_point_sz(2, 8, Fraction(9, 10), r)
        assert abs(a - b) < 1e-11


def test_two_point_finite_r_range():
    with pytest.raises(ValueError):
        two_point_finite("sz", "sz", 2, 1, 10, 1)
    with pytest.raises(ValueError):
        two_point_finite("sz", "sz", 2, 1, 10, 11)


def test_finite_converges_to_thermo():
    q0 = Fraction(9, 10)
    t = two_point_thermo("sz", "sz", 2, q0, 5)
    assert abs(two_point_finite("sz", "sz", 2, q0, 200, 5) - t) < 1e-10


def test_printed_thermo_variant_disagrees():
    # the n-independent first factor collapses the sum to zero here; this is
    # the flagged discrepancy against the finite-size route
    q0 = Fraction(9, 10)
    printed = two_point_thermo_printed_form("sz", "sz", 2, q0, 5)
    finite = two_point_finite("sz", "sz", 2, q0, 200, 5)
    assert abs(printed) < 1e-12
    assert abs(finite) > 1e-3


def test_sz_distribution_isotropic_uniform():
    probs = sz_distribution(2, 1)
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_sz_distribution_sums_to_one():
    for q0 in (Fraction(1, 2), Fraction(3, 4), Fraction(3, 2), Fraction(2)):
        assert abs(sum(sz_distribution(2, q0)) - 1) < 1e-14


def test_sz_distribution_planar_preference():
    probs = sz_distribution(2, Fraction(1, 2))
    assert probs[2] > 0.2  # P(m=0) grows away from the isotropic point


def test_sz_distribution_exact_matches_printed():
    exact = sz_distribution_exact(2)
    ref = sz_probabilities_reference_spin2()
    for m in range(-2, 3):
        assert exact[m] == ref[m]
    assert sum(exact.values(), RatQ(0)) == RatQ(1)


def test_sz_distribution_exact_matches_numeric():
    for S in (1, 2, 3, 4, 5):
        exact = sz_distribution_exact(S)
        numeric = sz_distribution(S, Fraction(4, 5))
        for m, p in zip(range(-S, S + 1), numeric):
            assert abs(exact[m].eval_float(Fraction(4, 5)) - p) < 1e-13


def test_top_eigenvector_exact_s2_isotropic():
    lam1, v = top_eigenvector_exact(2)
    assert lam1 == q_integer(5) * q_integer(4) * q_integer(2)
    vals = [c.eval_fraction(Fraction(1)) for c in v]
    assert vals[0] == vals[1] == vals[2] != 0


@pytest.mark.parametrize("S", (1, 2, 3))
def test_top_eigenvector_matches_adjugate_column(S):
    # reference: a nonzero column of adj(block - lambda_1 I) spans the
    # eigenspace of a simple eigenvalue
    lam1, v = top_eigenvector_exact(S)
    assert v == [LaurentQ.q_power(a) for a in range(S + 1)]
    block = transfer_diag_block_exact(S)
    n = S + 1
    adj = adjugate([[block[i][j] - (lam1 if i == j else 0) for j in range(n)]
                    for i in range(n)])
    cols = [[adj[i][j] for i in range(n)] for j in range(n)]
    col = next(c for c in cols if any(not e.is_zero for e in c))
    assert all(col[i] * v[j] == col[j] * v[i]
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("scale, match", ((-1, "positive"), (2, "eigenvalue")))
def test_top_eigenvector_checks_reject_a_wrong_block(monkeypatch, scale, match):
    # a negated entry fails the positivity check; a doubled one stays
    # positive and fails the eigenvalue equation
    bad = [list(row) for row in transfer_diag_block_exact(2)]
    bad[0][1] = bad[0][1] * scale
    monkeypatch.setattr(transfercorr, "transfer_diag_block_exact", lambda S: bad)
    top_eigenvector_exact.cache_clear()
    try:
        with pytest.raises(AssertionError, match=match):
            top_eigenvector_exact(2)
    finally:
        top_eigenvector_exact.cache_clear()


def test_top_eigenvector_exact_up_to_spin6():
    for S in range(1, 7):
        lam1, v = top_eigenvector_exact(S)
        assert lam1 == conjectured_eigenvalue(S, 0)
        assert len(v) == S + 1


def test_diag_block_values_isotropic():
    block = transfer_diag_block_exact(2)
    at1 = [[float(e.eval_fraction(Fraction(1))) for e in row] for row in block]
    assert at1 == [[4.0, 12.0, 24.0], [12.0, 16.0, 12.0], [24.0, 12.0, 4.0]]


@pytest.mark.parametrize("S", range(1, 7))
def test_diag_block_matches_the_conjugated_core_block(S):
    # the entry rule's a = b rows, key for key D0 N0 D0^-1 of the core
    assert ([[e.key() for e in row] for row in transfer_diag_block_exact(S)]
            == [[e.key() for e in row] for row in oracles.transfer_diag_block(S)])


def test_closed_form_vs_thermo():
    for S in (2, 3):
        for q0 in (Fraction(7, 10), Fraction(1), Fraction(13, 10)):
            for r in range(2, 9):
                a = closed_form_szsz(S, q0, r)
                b = two_point_thermo("sz", "sz", S, q0, r)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_closed_form_isotropic_limits():
    for r in range(2, 9):
        assert abs(closed_form_szsz(2, 1, r) - isotropic_szsz_limit(2, r)) < 1e-12
        assert abs(closed_form_szsz(3, 1, r) - isotropic_szsz_limit(3, r)) < 1e-12
        assert isotropic_szsz_limit(2, r) == pytest.approx(-6 * (-2.0) ** (-r))


def test_closed_form_finite_at_large_separation():
    # (2, 1, 441) gave nan from 0 * inf; the others raised OverflowError
    # although the spectral value is finite
    for S, q0, r in ((2, 1, 441), (3, 1, 189), (2, Fraction(1, 2), 232),
                     (3, Fraction(1, 2), 86)):
        assert math.isfinite(closed_form_szsz(S, q0, r))
    for q0 in (Fraction(1, 2), 1, 2):
        for r in (1000, 3000):
            assert math.isfinite(closed_form_szsz(2, q0, r))
            assert math.isfinite(closed_form_szsz(3, q0, r))
    for r in (189, 441):
        assert closed_form_szsz(2, 1, r) == pytest.approx(
            isotropic_szsz_limit(2, r), rel=1e-12)
    assert closed_form_szsz(3, 1, 189) == pytest.approx(
        isotropic_szsz_limit(3, 189), rel=1e-12)


def test_closed_form_matches_exact_evaluation_of_printed_form():
    # the S = 2 printed form, pref * brace, in exact rationals: the folded
    # float evaluation keeps full precision far past the old overflow
    def printed(q, r):
        def qi(n):
            return q_integer(n).eval_fraction(q)
        pref = -(qi(2) * qi(3) / qi(4)) * (qi(2) / (qi(5) * qi(4))) ** r
        brace = ((q - 1 / q) * (q ** 3 - q ** -3) * qi(6) ** 2
                 / (qi(3) ** 2 * qi(2) ** 2) + qi(2) ** 2 * (-qi(5)) ** r)
        return pref * brace
    for q, r in ((Fraction(1, 2), 232), (Fraction(7, 10), 300), (Fraction(2), 441)):
        assert closed_form_szsz(2, q, r) == pytest.approx(
            float(printed(q, r)), rel=1e-12)


def test_closed_form_at_far_q_raises_instead_of_printing():
    # at q = 1e20 the r = 8 term passes through a subnormal power and keeps
    # five digits; at q = 1e-30 a coefficient overflows and the value is nan
    with pytest.raises(FloatingPointError):
        closed_form_szsz(2, Fraction(10 ** 20), 8)
    with pytest.raises(OverflowError):
        closed_form_szsz(2, Fraction(1, 10 ** 30), 2)


@pytest.mark.parametrize("S, distinct", ((2, 5), (3, 8)))
def test_closed_form_evaluates_q_integers_once_per_q(monkeypatch, S, distinct):
    # the q-only terms sit in a cache keyed by (S, q): an r sweep evaluates
    # each q-integer [2]..[6] (S=2) or [2]..[9] (S=3) once, a repeat none
    seen = []
    real = LaurentQ.eval_float

    def spy(self, q0):
        seen.append(self)
        return real(self, q0)

    monkeypatch.setattr(LaurentQ, "eval_float", spy)
    transfercorr._closed_form_terms.cache_clear()
    for q0 in (Fraction(1, 2), Fraction(9, 7)):
        seen.clear()
        values = [closed_form_szsz(S, q0, r) for r in range(2, 61)]
        assert len(seen) == len(set(seen)) == distinct
        assert [closed_form_szsz(S, q0, r) for r in range(2, 61)] == values
        assert len(seen) == distinct


def test_closed_form_errors_are_not_cached():
    # the cache holds no failure, so a repeat raises again, with the text
    # of the first
    transfercorr._closed_form_terms.cache_clear()
    for S, q0, r, exc in ((2, Fraction(10 ** 20), 8, FloatingPointError),
                          (2, Fraction(1, 10 ** 30), 2, OverflowError),
                          (3, Fraction(10 ** 80), 2, OverflowError),
                          (4, Fraction(1), 3, ValueError)):
        texts = []
        for _ in range(2):
            with pytest.raises(exc) as info:
                closed_form_szsz(S, q0, r)
            texts.append(str(info.value))
        assert texts[0] == texts[1]
    assert transfercorr._closed_form_terms.cache_info().currsize == 2


def test_closed_form_restrictions():
    with pytest.raises(ValueError):
        closed_form_szsz(2, 1, 1)
    with pytest.raises(ValueError):
        closed_form_szsz(4, 1, 3)


def test_bar_symmetry_of_spectrum_and_correlator():
    for S in (1, 2, 3):
        e1 = eigensystem(transfer_matrix(S, Fraction(4, 5)))
        e2 = eigensystem(transfer_matrix(S, Fraction(5, 4)))
        assert np.abs(e1.eigenvalues - e2.eigenvalues).max() < 1e-9 * abs(e1.top)
    for S in (2, 3):
        a = two_point_thermo("sz", "sz", S, Fraction(4, 5), 4)
        b = two_point_thermo("sz", "sz", S, Fraction(5, 4), 4)
        assert abs(a - b) < 1e-9 * max(1, abs(a))


def test_decay_rate_matches_gap():
    q0 = Fraction(9, 10)
    es = eigensystem(transfer_matrix(2, q0))
    lam_ratio = es.groups[1][0] / es.groups[0][0]
    v1 = two_point_thermo("sz", "sz", 2, q0, 12)
    v2 = two_point_thermo("sz", "sz", 2, q0, 13)
    assert abs(v2 / v1 - lam_ratio) < 1e-6


def test_spin3_isotropic_adjacent_value():
    # the printed r=2 value at the isotropic point is -80/25
    assert two_point_thermo("sz", "sz", 3, 1, 2) == pytest.approx(-3.2, abs=1e-9)
    assert isotropic_szsz_limit(3, 2) == pytest.approx(-3.2)


def test_exact_trace_matches_numeric():
    # the float transfer matrix is the independent route to Tr G^k; the
    # error scale is sum |lambda|^k, since odd moments cancel between signs
    for S in (1, 2, 3, 4):
        for q0 in (Fraction(4, 5), Fraction(7, 4)):
            G = transfer_matrix(S, q0)
            ev = np.abs(np.linalg.eigvalsh(G))
            for k in range(1, S + 2):
                t = exact_trace_power(S, k).eval_float(q0)
                ref = np.trace(np.linalg.matrix_power(G, k))
                assert abs(t - ref) < 1e-9 * (ev ** k).sum()
    with pytest.raises(ValueError):
        exact_trace_power(2, 0)


def test_conjecture_moment_identities_exact():
    for S in (1, 2, 3, 4):
        for k in (1, 2, 3):
            assert conjecture_moment_identity(S, k)


def test_conjecture_exact_certificates():
    # identity-level proof of the closed-form spectrum with multiplicities;
    # S=4 runs in the certificates suite, the rest here, larger S through
    # `qvbs verify --suite certificates --spin S`
    for S in (1, 2, 3, 5, 6, 8):
        rep = conjecture_exact_certificate(S)
        assert rep == {"S": S, "proved": True, "commutations": S,
                       "trace_identities": S + 1}


@pytest.mark.parametrize("S", (0, -1))
def test_conjecture_exact_certificate_rejects_spin_below_one(S):
    # with no level to check, the certificate used to report proved: True
    with pytest.raises(ValueError, match="need S >= 1"):
        conjecture_exact_certificate(S)


def test_certificate_keeps_no_core_alive():
    # the core is built per call and dropped with it; what stays are the
    # small per-S caches of the entry rule and the closed-form eigenvalues.
    # S=7 is certified by no other test, so no earlier call has built it
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert conjecture_exact_certificate(7)["proved"] is True
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a kept core held 1.9 of the 2.5 MB peak; without it 0.15 MB stays
    assert current - before < (peak - before) / 4


def test_certificate_rejects_uncoverable_spin_before_the_core(monkeypatch):
    # the core's estimate at S=30 is 50.6 million coefficient slots, about
    # 4.6 GB, past the default budget of 1024 MB (S=23 is the first spin
    # past it), so the core is never built
    def core(S):
        raise AssertionError("core built")

    monkeypatch.delenv("QVBS_BUDGET_MB", raising=False)
    monkeypatch.setattr(transfercorr, "_rational_similar_core", core)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"conjecture_exact_certificate\(S=30\)"):
        conjecture_exact_certificate(30)
    # far past that, the entry rule's own index arrays are refused first
    with pytest.raises(BudgetError, match=r"_entry_rule\(S=10000\)"):
        conjecture_exact_certificate(10 ** 4)
    assert time.perf_counter() - start < 1


def test_certificate_moduli_are_prime():
    assert len(set(PRIMES)) == len(PRIMES)
    for p in PRIMES:
        assert 2 ** 30 < p < 2 ** 31
        assert all(p % d for d in range(2, math.isqrt(p) + 1))


@pytest.fixture
def patched_inputs(monkeypatch):
    """Run the certificate and its power-sum oracle on given core blocks and
    eigenvalues, through the module functions both paths read."""
    def verdicts(S, blocks, lams):
        monkeypatch.setattr(transfercorr, "_rational_similar_core",
                            lambda S: blocks)
        monkeypatch.setattr(transfercorr, "conjectured_eigenvalue",
                            lambda S, l: lams[l])
        rep = conjecture_exact_certificate(S)
        roots = lams[::-1]
        return rep["proved"], all(power_sums_match(b, roots) for b in blocks)
    return verdicts


@pytest.mark.parametrize("S", (1, 2, 3, 4))
def test_certificate_and_power_sum_oracle_verdicts_agree(patched_inputs, S):
    rng = random.Random(S)
    blocks = transfercorr._rational_similar_core(S)
    lams = [conjectured_eigenvalue(S, l) for l in range(S + 1)]
    assert patched_inputs(S, blocks, lams) == (True, True)

    def bump(l, poly):
        return [lam + poly if i == l else lam for i, lam in enumerate(lams)]

    assert patched_inputs(S, blocks, bump(rng.randrange(S + 1), 1)) \
        == (False, False)
    assert patched_inputs(
        S, blocks, bump(rng.randrange(S + 1), LaurentQ.q_power(3))) \
        == (False, False)
    d = rng.randrange(len(blocks))
    i, j = rng.randrange(len(blocks[d])), rng.randrange(len(blocks[d]))
    mutant = [[list(row) for row in b] for b in blocks]
    mutant[d][i][j] = mutant[d][i][j] + LaurentQ.q_power(2)
    assert patched_inputs(S, mutant, lams) == (False, False)


@pytest.mark.parametrize("S", (1, 2, 3, 4))
def test_certificate_rejects_trace_preserving_block(patched_inputs, S):
    # +c and -c on the diagonal keep Tr N; only k = n can see it in a block
    # of size 2, so a check that stopped at k = n-1 would pass this one
    blocks = transfercorr._rational_similar_core(S)
    lams = [conjectured_eigenvalue(S, l) for l in range(S + 1)]
    # delta = 1 - S (size 2) and delta = 0 (size S+1)
    for d in sorted({1, S}):
        mutant = [[list(row) for row in b] for b in blocks]
        c = LaurentQ.q_power(1)
        mutant[d][0][0] = mutant[d][0][0] + c
        mutant[d][1][1] = mutant[d][1][1] - c
        assert sum(mutant[d][i][i] for i in range(len(mutant[d]))) \
            == sum(blocks[d][i][i] for i in range(len(blocks[d])))
        assert patched_inputs(S, mutant, lams) == (False, False)


@pytest.mark.parametrize("S", (1, 2, 3, 4))
def test_certificate_rejects_misplaced_levels(patched_inputs, S):
    # lambda_0 and lambda_S swapped: the same values, with the wrong
    # multiplicities, so the delta = 0 block alone would still pass
    blocks = transfercorr._rational_similar_core(S)
    lams = [conjectured_eigenvalue(S, l) for l in range(S + 1)]
    swapped = [lams[S]] + lams[1:S] + [lams[0]]
    assert power_sums_match(blocks[S], swapped[::-1])
    assert patched_inputs(S, blocks, swapped) == (False, False)
    # every block reading its roots from the wrong end, lambda_0 upwards
    assert patched_inputs(S, blocks, lams[::-1]) == (False, False)


@pytest.fixture
def patched_lowering(monkeypatch):
    """Run the certificate with each F_delta replaced by change(delta, F)."""
    lowering = transfercorr._lowering

    def verdict(S, change):
        monkeypatch.setattr(transfercorr, "_lowering",
                            lambda S, delta: change(delta, lowering(S, delta)))
        return conjecture_exact_certificate(S)["proved"]
    return verdict


@pytest.mark.parametrize("S", (2, 3, 4))
def test_certificate_rejects_a_lowering_exponent_off_by_one(patched_lowering, S):
    # one q exponent off in any entry of any F_delta breaks its commutation
    for delta in range(1, S + 1):
        n = S + 1 - delta
        for i, j in [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n + 1)]:
            def change(d, F):
                if d == delta:
                    F[i][j] = F[i][j] * LaurentQ.q_power(1)
                return F
            assert patched_lowering(S, change) is False


@pytest.mark.parametrize("S", (2, 3, 4))
def test_certificate_checks_the_lowering_diagonal(patched_lowering, S):
    # F = 0 commutes with every block, so the rank of F_delta rests on its
    # diagonal, which must be checked rather than assumed
    zero = LaurentQ.zero()
    for delta in range(1, S + 1):
        assert patched_lowering(S, lambda d, F: [[zero] * len(row) for row in F]
                                if d == delta else F) is False
        for i in range(S + 1 - delta):
            def change(d, F):
                if d == delta:
                    F[i][i] = zero
                return F
            assert patched_lowering(S, change) is False


@pytest.mark.parametrize("S", (2, 3, 4))
def test_certificate_checks_the_mirror(patched_inputs, S):
    # the blocks of delta < 0 enter the proof only through the mirror, so a
    # change to one of them, its mirror left as it was, must fail
    blocks = transfercorr._rational_similar_core(S)
    lams = [conjectured_eigenvalue(S, l) for l in range(S + 1)]
    for d in range(S):
        mutant = [[list(row) for row in b] for b in blocks]
        mutant[d][0][-1] = mutant[d][0][-1] + LaurentQ.q_power(1)
        assert patched_inputs(S, mutant, lams)[0] is False


def test_certificate_counts_its_arrays_against_the_budget(monkeypatch):
    # the estimate is about 0.08 MB at S=3 and 0.3 MB at S=4
    monkeypatch.setenv("QVBS_BUDGET_MB", "0.1")
    conjecture_exact_certificate(3)
    with pytest.raises(BudgetError, match="conjecture_exact_certificate"):
        conjecture_exact_certificate(4)


def test_characteristic_factors_need_every_level():
    # negative control for the blockwise annihilation check: the delta = 0
    # block carries every level, so dropping one factor must leave it nonzero
    S = 3
    roots = [conjectured_eigenvalue(S, l) for l in range(S, -1, -1)]
    blocks = transfercorr._rational_similar_core(S)
    assert all(factors_annihilate(b, roots) for b in blocks)
    for drop in range(S + 1):
        assert not factors_annihilate(blocks[S], roots[:drop] + roots[drop + 1:])


# -- the cached eigenbasis layer ------------------------------------------

Q_NEAR = Fraction(9, 10)


def test_thermo_finite_beyond_former_overflow():
    # lambda^(r-2) / lambda_1^r overflowed here: S=5 gave 0.0, nan, nan at
    # r = 44..46 and S=6 gave nan from r = 40
    for S, rs in ((5, range(44, 47)), (6, range(40, 61))):
        vals = [two_point_thermo("sz", "sz", S, Q_NEAR, r) for r in rs]
        assert all(np.isfinite(vals)) and all(v != 0.0 for v in vals)
        # the decay keeps its sign pattern and shrinks in magnitude
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("S,L", ((2, 3000), (2, 4000), (5, 1000), (5, 3000)))
def test_finite_large_length_matches_thermo(S, L):
    # scaling by the largest entry of G instead of lambda_1 made these NaN
    for r in (2, 5, 30):
        fin = two_point_finite("sz", "sz", S, Q_NEAR, L, r)
        th = two_point_thermo("sz", "sz", S, Q_NEAR, r)
        assert np.isfinite(fin)
        assert abs(fin - th) <= 1e-12 * max(1.0, abs(th))


def test_thermo_matches_closed_form_at_long_range():
    # the squared rounding residues of <S^z> once stopped the decay: S=2,
    # q=1/2 gave 1.602784e-36 for every r from 100 on
    cases = ((2, Q_NEAR, (60,)), (3, Q_NEAR, (60,)),
             (2, Fraction(1, 2), range(98, 103)), (3, Fraction(2), range(98, 103)),
             (2, Fraction(1, 10 ** 5), (7, 8)))
    for S, q0, rs in cases:
        for r in rs:
            cf = closed_form_szsz(S, q0, r)
            assert abs(two_point_thermo("sz", "sz", S, q0, r) - cf) <= 1e-9 * abs(cf)


def test_sz_image_has_exactly_zero_diagonal():
    # G^sz is antisymmetric, so <S^z> vanishes at every level
    for S in (1, 2, 3):
        G = transfer_matrix(S, Fraction(1, 2), "sz")
        assert np.array_equal(G, -G.T)
        sz = transfercorr.spectral_data(S, Fraction(1, 2)).sz
        assert np.array_equal(sz, -sz.T)


def test_sz_array_gives_the_sz_tag_image():
    # S^z passed as an array once kept the rounding residue on the diagonal
    # of its image: S=2, q=1/2 gave 1.4499e-36 at r=60 and 1.6028e-36 at
    # r=100, where the tag gives -1.5287e-37 and -1.1188e-62
    sz, q0 = sz_operator(2), Fraction(1, 2)
    for r in (60, 100):
        assert two_point_thermo(sz, sz, 2, q0, r) \
            == two_point_thermo("sz", "sz", 2, q0, r)
    assert two_point_finite(sz, sz, 2, q0, 400, 100) \
        == two_point_finite("sz", "sz", 2, q0, 400, 100)
    # with an even part too, the odd part adds exactly nothing on the
    # diagonal and its image elsewhere
    data = transfercorr.spectral_data(2, q0)
    even = np.diag([1.0, 0.0, 2.0, 0.0, 1.0])
    mixed = transfercorr._image(data, 2, q0, sz + even)
    alone = transfercorr._image(data, 2, q0, even)
    assert np.array_equal(np.diag(mixed), np.diag(alone))
    assert np.abs(mixed - alone - data.sz).max() < 1e-14


def _spin_raise(S):
    """S^+ in the |S,m> basis, m descending."""
    m = S - np.arange(2 * S + 1)
    return np.diag(np.sqrt(S * (S + 1) - m[1:] * (m[1:] + 1)), 1)


@pytest.mark.parametrize("S", (1, 2))
def test_off_diagonal_operator_images(S):
    # operators coupling m and m' of opposite parity: the eigenbasis image
    # must equal the plain V^T G^A V / lambda_1, not a symmetrized part of it
    sp = _spin_raise(S)
    sx = (sp + sp.T) / 2
    rng = np.random.default_rng(S)
    for q0 in (Fraction(1, 2), Fraction(1), Fraction(5, 4)):
        data = transfercorr.spectral_data(S, q0)
        V = data.es.vectors
        for A in (sp, sp.T, sx, rng.standard_normal((2 * S + 1,) * 2)):
            plain = V.T @ transfer_matrix(S, q0, A) @ V / data.es.top
            got = transfercorr._image(data, S, q0, A)
            assert np.abs(got - plain).max() < 1e-12 * np.abs(plain).max()
    # SU(2) at q = 1: <S^x S^x> = <S^z S^z>; for S = 1 this is the AKLT
    # value (4/3)(-1/3)^r at distance r
    for r in (2, 3, 6):
        want = two_point_thermo("sz", "sz", S, 1, r)
        assert two_point_thermo(sx, sx, S, 1, r) == pytest.approx(want, rel=1e-12)
        if S == 1:
            assert want == pytest.approx(4 / 3 * (-1 / 3) ** (r - 1), rel=1e-12)


def test_finite_eigenbasis_sum_matches_matrix_powers():
    # independent route: the trace of matrix powers, scaled by lambda_1
    S, q0, L = 2, Fraction(4, 5), 30
    G = transfer_matrix(S, q0)
    lam1 = eigensystem(G).top
    Gs = G / lam1
    Gz = transfer_matrix(S, q0, "sz") / lam1
    den = np.trace(np.linalg.matrix_power(Gs, L))
    for r in (2, 7, 16, 30):
        num = np.trace(Gz @ np.linalg.matrix_power(Gs, r - 2)
                       @ Gz @ np.linalg.matrix_power(Gs, L - r))
        assert abs(two_point_finite("sz", "sz", S, q0, L, r) - num / den) < 1e-13


def test_non_finite_results_raise():
    bad = np.full((3, 3), np.nan)
    with pytest.raises(ValueError, match="not finite"):
        two_point_finite(bad, "sz", 1, Q_NEAR, 10, 3)
    with pytest.raises(ValueError, match="not finite"):
        two_point_thermo("sz", bad, 1, Q_NEAR, 3)


def test_thermo_requires_gap(monkeypatch):
    es = EigenSystem(np.array([2.0, 2.0, 1.0, 0.5]), np.eye(4),
                     [(2.0, 2), (1.0, 1), (0.5, 1)])
    fake = Spectral(es, es.eigenvalues / 2.0, np.eye(4))
    monkeypatch.setattr(transfercorr, "_spectral", lambda S, q0: fake)
    with pytest.raises(SpectralGapError):
        two_point_thermo("sz", "sz", 1, Q_NEAR, 3)
    with pytest.raises(SpectralGapError):
        two_point_thermo_printed_form("sz", "sz", 1, Q_NEAR, 3)
    with pytest.raises(SpectralGapError):
        sz_distribution(1, Q_NEAR)
    # the finite-chain trace needs no gap
    assert np.isfinite(two_point_finite("sz", "sz", 1, Q_NEAR, 6, 3))


def test_two_transfer_matrices_per_spin_and_q(monkeypatch):
    built = []
    original = transfercorr.transfer_matrix

    def counting(S, q0, A=None):
        built.append((S, Fraction(q0), A))
        return original(S, q0, A)

    monkeypatch.setattr(transfercorr, "transfer_matrix", counting)
    transfercorr._spectral.cache_clear()
    q0 = Fraction(7, 9)
    for r in range(2, 40):
        two_point_thermo("sz", "sz", 3, q0, r)
        two_point_thermo_printed_form("sz", "sz", 3, q0, r)
        two_point_finite("sz", "sz", 3, q0, 50, r)
    sz_distribution(3, q0)
    conjecture_check(3, q0)
    assert len(built) == 2
    assert set(built) == {(3, q0, None), (3, q0, "sz")}


def test_q_keyed_caches_are_bounded():
    assert Q_CACHE_SIZE > 96  # six spins on the sixteen-point grid fit
    caches = (transfercorr._spectral, transfercorr._f_spin_scalars,
              transfercorr._q_floats, transfercorr._closed_form_terms,
              transfercorr._conjectured_floats)
    for k in range(300):
        q0 = Fraction(1000 + k, 1001)
        two_point_thermo("sz", "sz", 1, q0, 3)
        closed_form_szsz(2, q0, 3)
        conjecture_check(1, q0)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == Q_CACHE_SIZE
        assert info.currsize <= Q_CACHE_SIZE
        cache.cache_clear()


def test_sz_distribution_matches_projector_route():
    # independent route: p_m = v G^(P_m) v / lambda_1, one generic transfer
    # matrix per one-hot projector P_m, v the top eigenvector of G
    for S in range(1, 7):
        for q0 in (Fraction(1, 2), Fraction(4, 5), Fraction(2)):
            es = eigensystem(transfer_matrix(S, q0))
            v = es.vectors[:, 0]
            probs = sz_distribution(S, q0)
            for m, p in zip(range(-S, S + 1), probs):
                P = np.zeros((2 * S + 1, 2 * S + 1))
                P[S - m, S - m] = 1.0
                assert abs(v @ transfer_matrix(S, q0, P) @ v / es.top - p) < 1e-13


def test_conjecture_check_resolves_spin6_far_from_isotropic():
    # the two lowest S=6 levels lie below 1e-9 lambda_1 at q = 1/2 and 2
    for q0 in (Fraction(1, 2), Fraction(2)):
        rep = conjecture_check(6, q0)
        assert rep["match"] is True
        assert [lvl["mult"] for lvl in rep["levels"]] == [1, 3, 5, 7, 9, 11, 13]


def test_level_check_rejects_a_misplaced_s2_level():
    # the comparison the S=2 spectrum suite runs at 1e-10 of the top
    # eigenvalue: level 1 moved by 5e-10 of itself fails there, though not
    # at CONJECTURE_TOL, and levels 1 and 2 swapped fail on multiplicity
    q0 = Fraction(4, 5)
    true = [conjectured_eigenvalue_float(2, l, q0) for l in range(3)]
    assert level_check(2, q0, true, 1e-10)["match"] is True
    moved = [true[0], true[1] * (1 + 5e-10), true[2]]
    rep = level_check(2, q0, moved, 1e-10)
    assert rep["match"] is False
    assert [lvl["l"] for lvl in rep["levels"] if not lvl["match"]] == [1]
    assert level_check(2, q0, moved, CONJECTURE_TOL)["match"] is True
    swapped = [true[0], true[2], true[1]]
    assert level_check(2, q0, swapped, CONJECTURE_TOL)["match"] is False


def test_conjecture_check_rejects_wrong_level(monkeypatch):
    true_value = transfercorr.conjectured_eigenvalue_float
    monkeypatch.setattr(
        transfercorr, "conjectured_eigenvalue_float",
        lambda S, l, q0: true_value(S, l, q0) * (1.001 if l == 1 else 1.0))
    # floats cached before the patch would hide it, and the patched ones
    # must not outlive it
    transfercorr._conjectured_floats.cache_clear()
    try:
        for S in (1, 2, 3, 4, 5):
            rep = conjecture_check(S, Fraction(4, 5))
            assert rep["match"] is False
            assert [lvl["l"] for lvl in rep["levels"]
                    if not lvl["match"]] == [1]
    finally:
        transfercorr._conjectured_floats.cache_clear()


def test_conjectured_floats_cache_no_failure():
    cache = transfercorr._conjectured_floats
    before = cache.cache_info().currsize
    for _ in range(2):
        with pytest.raises(OverflowError):
            cache(3, Fraction(10 ** 40))
        assert cache.cache_info().currsize == before
    assert cache(3, Fraction(4, 5)) == tuple(
        transfercorr.conjectured_eigenvalue_float(3, l, Fraction(4, 5))
        for l in range(4))


# -- correlator r ranges in one pass --------------------------------------

# the benchmark's sixteen-point grid, then two points far from q = 1
RANGE_Q = tuple(map(Fraction, (
    "1/2", "4/7", "3/5", "2/3", "5/7", "4/5", "9/10", "1", "10/9", "5/4",
    "7/5", "3/2", "5/3", "7/4", "9/5", "2", "1/1000000000000000000000000000000",
    "1000000000000000000000000000000")))


def _yielded(values):
    """The hex of each value in turn, then the type and text of the error
    that stops them, if one does."""
    out = []
    try:
        for v in values:
            out.append(v.hex())
    except (ArithmeticError, ValueError) as exc:
        out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("S", range(1, 7))
def test_correlator_ranges_match_the_per_r_oracle(S):
    # bit for bit the per-r sums, and the same error at the same r: an r
    # past L after the rows before it, an overflow at the first r
    rs = range(2, 61)
    far_errors = 0
    for q0 in RANGE_Q:
        got = _yielded(two_point_thermo_range("sz", "sz", S, q0, rs))
        assert got == _yielded(oracles.two_point_thermo("sz", "sz", S, q0, r)
                               for r in rs), q0
        assert got == _yielded(two_point_thermo("sz", "sz", S, q0, r)
                               for r in rs)
        for L in (2, 9, 60, 700, 4000):
            got = _yielded(two_point_finite_range("sz", "sz", S, q0, L, rs))
            assert got == _yielded(oracles.two_point_finite(
                "sz", "sz", S, q0, L, r) for r in rs), (q0, L)
            assert got == _yielded(two_point_finite("sz", "sz", S, q0, L, r)
                                   for r in rs)
            if q0 in RANGE_Q[:16]:
                # on the grid every row up to r = L is finite
                n = min(L, 60) - 1
                assert all(isinstance(v, str) for v in got[:n])
                assert got[n:] == [(ValueError, "need 2 <= r <= L")] * (L < 60)
            else:
                far_errors += isinstance(got[-1], tuple)
    assert far_errors


def test_correlator_range_builds_once(monkeypatch):
    q0 = Fraction(4, 5)
    # one spectral lookup, one pair of images and one sum_n w^L per range
    calls = {"spectral_data": 0, "_image": 0, "sum": 0}
    for name in ("spectral_data", "_image"):
        real = getattr(transfercorr, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(transfercorr, name, spy)
    real_sum = np.sum

    def counted_sum(a, *args, **kwargs):
        calls["sum"] += 1
        return real_sum(a, *args, **kwargs)

    monkeypatch.setattr(transfercorr.np, "sum", counted_sum)
    rs = range(2, 41)
    values = list(two_point_finite_range("sz", "sz", 3, q0, 40, rs))
    assert calls == {"spectral_data": 1, "_image": 2, "sum": 1 + len(rs)}
    assert len(values) == len(rs)
    calls.update(dict.fromkeys(calls, 0))
    list(two_point_thermo_range("sz", "sz", 3, q0, rs))
    assert calls == {"spectral_data": 1, "_image": 2, "sum": 0}


def test_correlator_range_is_lazy():
    # nothing is built before the first r is asked for, and an invalid
    # first r raises before the spectral data would
    q0 = Fraction(4, 5)
    values = two_point_finite_range("sz", "sz", -1, q0, 1, range(2, 4))
    with pytest.raises(ValueError, match=r"need 2 <= r <= L"):
        next(values)
    values = two_point_finite_range("sz", "sz", -1, q0, 30, range(25, 41))
    with pytest.raises(ValueError, match=r"need S >= 1"):
        next(values)
    with pytest.raises(ValueError, match=r"need r >= 2"):
        next(two_point_thermo_range("sz", "sz", -1, q0, range(1, 3)))
