import hashlib
import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from fractions import Fraction

import oracles
from qvbs import mpscore, qnum, transfercorr, weylrep
from qvbs.cgproj import BudgetError
from qvbs.mpscore import (
    contract_open,
    contract_pbc,
    dense_pbc_state,
    dense_pbc_two_point_sz,
    tensor_f,
    tensor_g,
    tensor_g_start,
)
from qvbs.qnum import (LaurentQ, QFactorials, q_binomial, q_factorial,
                       radical_float)
from qvbs.weylrep import site_roots, weight_radicand
from qvbs.transfercorr import two_point_finite
from qvbs.vbsstate import build_open, build_pbc

Q0 = Fraction(4, 5)


def test_g_spin1_structure():
    # (sign, twice the q exponent); the radicands [1, i-1] are all 1
    g = tensor_g(1)
    assert [g.entry(i, j) for i in (1, 2) for j in (1, 2)] == [
        (-1, -2), (-1, -2), (1, 2), (1, 2)]


def test_g_start_has_no_sign_or_power():
    for S in (1, 2, 3):
        gs = tensor_g_start(S)
        for i in range(1, S + 2):
            for j in range(1, S + 2):
                assert gs.entry(i, j) == (1, 0)
                # the float entry is the bare radical sqrt([S,i-1] [S,j-1])
                # times the basis normalization sqrt([S+m]! [S-m]!)
                m = j - i
                rad = (q_binomial(S, i - 1) * q_binomial(S, j - 1)
                       * q_factorial(S + m) * q_factorial(S - m))
                got = gs.phys_matrices(Q0)[S - m, i - 1, j - 1]
                assert got == pytest.approx(float(rad.eval_fraction(Q0)) ** 0.5,
                                            rel=1e-14)


def test_f_g_gauge_ratio():
    # f(i,j) / g(i,j) = q^((S+1)(j-i)/2): same sign, exponents apart by that
    for S in (1, 2, 3):
        f, g = tensor_f(S), tensor_g(S)
        for i in range(1, S + 2):
            for j in range(1, S + 2):
                (sf, ef), (sg, eg) = f.entry(i, j), g.entry(i, j)
                assert sf == sg and ef - eg == (S + 1) * (j - i), (S, i, j)
        pf, pg = f.phys_matrices(Q0), g.phys_matrices(Q0)
        for i in range(1, S + 2):
            for j in range(1, S + 2):
                k = (S - (j - i), i - 1, j - 1)
                assert pf[k] / pg[k] == pytest.approx(
                    float(Q0) ** ((S + 1) * (j - i) / 2), rel=1e-13)


def test_odd_exponent_keeps_q_under_the_radical():
    # S=2 f has odd e2 on entries with i + j odd: one sqrt(q) per entry
    f = tensor_f(2)
    assert f.entry(1, 2) == (1, -3)
    rad = q_binomial(2, 1) * q_factorial(3) * q_factorial(1)
    expect = float(Q0) ** -1.5 * float(rad.eval_fraction(Q0)) ** 0.5
    assert f.phys_matrices(Q0)[1, 0, 1] == pytest.approx(expect, rel=1e-14)


# sha256 of phys_matrices(q).tobytes() over S = 1..6 and PINNED_Q in order;
# every entry is a correctly rounded exact value times correctly rounded
# roots, so the bytes do not depend on the platform
PINNED_Q = ("1/2", "4/5", "1", "7/4", "1/1000")
PHYS_DIGESTS = {
    "f": "ad4bf6f68e4df313f4780995a55361ca7ec3392f45eec060ccaf161708c08ccb",
    "g": "d3489f8f3e5f053236b58dd8d4fabd756f28b0ffa733db9d7152771465b780db",
}


@pytest.mark.parametrize("name, tensor", (("f", tensor_f), ("g", tensor_g)))
def test_phys_matrices_bytes_are_pinned(name, tensor):
    h = hashlib.sha256()
    for S in range(1, 7):
        for q in PINNED_Q:
            h.update(tensor(S).phys_matrices(Fraction(q)).tobytes())
    assert h.hexdigest() == PHYS_DIGESTS[name]


# sha256 over S = 1..8 and PINNED_Q, in order, of the per-(S, q) floats that
# the q-factorial table serves: `_q_floats` ([n]! then [S, k]),
# `_conjectured_floats` and `site_roots`, each as float64 bytes or, where it
# raises (at S = 8, q = 1/1000), as its error's type and text. The
# digests were taken from the expanded polynomials' eval_float; every value
# is one correctly rounded division, or the math.sqrt of one, which IEEE 754
# also rounds correctly, so the bytes do not depend on the platform
FLOAT_DIGESTS = {
    "q_floats": "0b8cad38e138def590a055457de5fc5825deb512a0c90e40174e7dfb8409c782",
    "conjectured": "b1960ac0562b815740f6e01fe07230959b776f4435a029a17242c54578adad70",
    "roots": "6e67d5d7c63a890a45d5de1256e9bc1218e3525444133c518df33e507148f9b8",
}


@pytest.mark.parametrize("name, floats", (
    ("q_floats", lambda S, q0: np.concatenate(transfercorr._q_floats(S, q0))),
    ("conjectured", lambda S, q0: transfercorr._conjectured_floats(S, q0)),
    ("roots", site_roots),
))
def test_factorial_floats_are_pinned(name, floats):
    h = hashlib.sha256()
    for S in range(1, 9):
        for q in PINNED_Q:
            try:
                out = floats(S, Fraction(q))
            except ArithmeticError as exc:
                h.update(("%s: %s" % (type(exc).__name__, exc)).encode())
            else:
                h.update(np.asarray(out, dtype=float).tobytes())
    assert h.hexdigest() == FLOAT_DIGESTS[name]


@pytest.mark.parametrize("tensor", (tensor_f, tensor_g, tensor_g_start))
@pytest.mark.parametrize("q", ("1/1000", "3/7", "1", "13/4", "1000"))
def test_phys_matrices_entry_is_radical_float(tensor, q):
    # bit for bit sign times the radical_float of the entry's factors and
    # the square of its q power; where one overflows, the call raises the
    # error of the first such entry
    q0 = Fraction(q)
    for S in range(1, 9):
        t = tensor(S)
        refs = {}
        for (i, j), (sign, e2) in t._entries.items():
            factors = ((q_binomial(S, i - 1), q_binomial(S, j - 1),
                        weight_radicand(S, j - i))
                       + (LaurentQ.q_power(1),) * (e2 % 2))
            try:
                refs[S - j + i, i - 1, j - 1] = (sign * radical_float(
                    factors + (LaurentQ.q_power(e2 // 2),) * 2, q0)).hex()
            except OverflowError as exc:
                refs[S - j + i, i - 1, j - 1] = (str(exc),)
        try:
            phys = t.phys_matrices(q0)
        except OverflowError as exc:
            assert next(v for v in refs.values()
                        if isinstance(v, tuple)) == (str(exc),)
            assert S > 4 and q0 in (Fraction(1, 1000), 1000)
            continue
        assert {k: phys[k].hex() for k in refs} == refs


def test_phys_matrices_evaluates_each_radicand_once(monkeypatch):
    # the normal forms are cached per tensor; a call evaluates each distinct
    # radicand once, whether it is paired in one entry and kept in another
    seen = []
    real = QFactorials.ratio

    def spy(self, top=(), bottom=(), e=0):
        seen.append(_named_radicand(top, bottom, e))
        return real(self, top, bottom, e)

    monkeypatch.setattr(QFactorials, "ratio", spy)
    for S in range(1, 7):
        for tensor in (tensor_f, tensor_g):
            t = tensor(S)
            distinct = {f for (i, j), (_, e2) in t._entries.items()
                        for f in (q_binomial(S, i - 1), q_binomial(S, j - 1),
                                  weight_radicand(S, j - i))
                        + (LaurentQ.q_power(1),) * (e2 % 2) if f != 1}
            for q in ("1/2", "5/3"):
                seen.clear()
                t.phys_matrices(Fraction(q))
                assert len(seen) == len(distinct) and set(seen) == distinct


@lru_cache(maxsize=None)
def _named_radicand(top=(), bottom=(), e=0):
    """The radicand that QFactorials.ratio arguments name, as a polynomial."""
    return (math.prod(map(q_factorial, top), start=LaurentQ.one())
            .divide_exact(math.prod(map(q_factorial, bottom),
                                    start=LaurentQ.one())).shift(e))


@pytest.mark.parametrize("tensor", (tensor_f, tensor_g, tensor_g_start))
def test_radical_layout_matches_the_expanded_pairing(tensor):
    # the named radicands pair and order as the expanded polynomials do
    for S in range(1, 17):
        entries = tuple(tensor(S)._entries.items())
        names, rows = mpscore._radical_layout(S, entries)
        polys = [_named_radicand(*name) for name in names]
        assert len(set(polys)) == len(polys)
        got = [row[:5] + tuple([polys[t] for t in ts] for ts in row[5:])
               for row in rows]
        assert got == oracles.radical_layout(S, entries)


def test_phys_matrices_expands_no_radicand(monkeypatch):
    # a cold layout names each radicand by its q-factorials: it multiplies
    # no polynomials and expands no q-factorial, even at S = 30
    calls = []
    mul = LaurentQ.__mul__

    def spy_mul(self, other):
        calls.append("mul")
        return mul(self, other)

    def spy_factorial(n):
        calls.append(n)
        return q_factorial(n)

    monkeypatch.setattr(LaurentQ, "__mul__", spy_mul)
    for module in (qnum, weylrep, transfercorr):
        monkeypatch.setattr(module, "q_factorial", spy_factorial)
    mpscore._radical_layout.cache_clear()
    phys = tensor_f(30).phys_matrices(Fraction(9, 10))
    assert calls == [] and np.isfinite(phys).all()


def test_trace_single_site_only_m0():
    st = contract_pbc(tensor_g(1), 1)
    assert set(st.amps) == {(0,)}


def test_pbc_proportional_to_boson():
    for S, L in ((1, 3), (1, 6), (2, 3), (2, 6), (3, 2), (3, 3), (3, 4)):
        mps = contract_pbc(tensor_g(S), L)
        assert mps.proportional_to(build_pbc(S, L))


def test_pbc_f_equals_g_exactly():
    for S, L in ((1, 4), (2, 4), (3, 3)):
        f = contract_pbc(tensor_f(S), L)
        g = contract_pbc(tensor_g(S), L)
        assert f.amps == g.amps
        assert f.prefactor == g.prefactor == ()


def test_open_matches_boson_with_constant_ratio():
    # the two constructions agree amplitude for amplitude, end radicands
    # sqrt([S, p1-1] [S, p2-1]) included, so the ratio is the constant 1
    for S in (2, 3):
        for p1 in range(1, S + 2):
            for p2 in range(1, S + 2):
                m = contract_open(S, 3, p1, p2)
                b = build_open(S, 3, p1, p2)
                assert m.weights() == [p2 - p1]
                assert m.amps == b.amps
                assert m.prefactor == b.prefactor == (
                    q_binomial(S, p1 - 1), q_binomial(S, p2 - 1))


def test_open_classical_limit_spin1():
    # the q=1 open chain matches the isotropic construction up to scale
    for p1 in (1, 2):
        for p2 in (1, 2):
            m = contract_open(1, 3, p1, p2)
            b = build_open(1, 3, p1, p2)
            vm, vb = m.to_dense(Fraction(1)), b.to_dense(Fraction(1))
            i = int(np.argmax(np.abs(vb)))
            ratio = vm[i] / vb[i]
            assert np.abs(vm - ratio * vb).max() < 1e-12 * np.abs(vm).max()


def test_open_boundary_errors():
    with pytest.raises(ValueError):
        contract_open(2, 3, 0, 1)
    with pytest.raises(ValueError):
        contract_open(2, 3, 1, 5)


def test_dense_state_matches_exact():
    # odd L joins halves of unequal length
    for S, L in ((1, 5), (2, 4), (2, 5), (3, 3)):
        st = build_pbc(S, L)
        for q0 in (Q0, Fraction(7, 4)):
            v = st.to_dense(q0)
            d = dense_pbc_state(S, L, q0)
            i = int(np.argmax(np.abs(v)))
            ratio = d[i] / v[i]
            assert np.abs(d - ratio * v).max() < 1e-10 * np.abs(d).max()


# sha256 of dense_pbc_state(S, L, q).tobytes() over q = 1/2, 7/4 in order,
# taken when each half was contracted anew for A and for B; contracting the
# h-site half once for even L leaves every byte as it was
DENSE_DIGESTS = {
    (1, 10): "36e21a15f11f81bd0097a7040030aeef3ce09190a1389d4218c7aa7a350f8104",
    (2, 6): "e139e47b853fe17541257ed9ef3f8578801edac5f40d9da9ac481225e4d749a9",
    (2, 5): "248dcff9fe1d59d51c6b55eda9816730ab196629e3428f1f3948d5e095034145",
    (3, 4): "15cda6ebbcc6651965d8a343772aa1ebb68b27199553de862e698740a54e7308",
}


@pytest.mark.parametrize("S, L", sorted(DENSE_DIGESTS))
def test_dense_state_bytes_are_pinned(S, L):
    h = hashlib.sha256()
    for q in ("1/2", "7/4"):
        h.update(dense_pbc_state(S, L, Fraction(q)).tobytes())
    assert h.hexdigest() == DENSE_DIGESTS[(S, L)]


def test_dense_state_far_q_raises_instead_of_nan():
    # the join overflowed and the vector came back with NaN entries
    for q0 in (1e-80, 1e80):
        with pytest.raises(ValueError, match=r"S=1, L=10, q=") as info:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dense_pbc_state(1, 10, q0)
        assert "not finite" in str(info.value)


def test_dense_state_rejects_short_chains():
    for L in (0, -2):
        with pytest.raises(ValueError, match="need L >= 1"):
            dense_pbc_state(1, L, Q0)


def test_dense_two_point_range():
    with pytest.raises(ValueError):
        dense_pbc_two_point_sz(1, 4, Q0, 1)
    val = dense_pbc_two_point_sz(1, 6, Q0, 3)
    assert isinstance(val, float)


def test_dense_two_point_far_q_raises_instead_of_nan():
    # at q = 1e-30 the squared amplitudes overflow and the sum turned to NaN
    for q0 in (1e-30, 1e30):
        with pytest.raises(ValueError, match=r"S=1, L=10, q=") as info:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dense_pbc_two_point_sz(1, 10, q0, 4)
        assert "not finite" in str(info.value)


def _full_vector_two_point(S, L, q0, r):
    """<S^z_1 S^z_r> from the whole squared state vector: the marginal over
    the digits after r, then over those between, one column of r at a time."""
    d = 2 * S + 1
    vec = dense_pbc_state(S, L, q0)
    rest = (vec * vec).reshape(d, d ** (r - 2), d, d ** (L - r)).sum(axis=3)
    joint = np.stack([rest[:, :, b].sum(axis=1) for b in range(d)], axis=1)
    m = S - np.arange(d, dtype=float)
    return float(m @ joint @ m / joint.sum())


@pytest.mark.parametrize("block", (None, 200, 1))
def test_streamed_two_point_matches_full_vector(monkeypatch, block):
    # every r in 2..L takes both reductions and the r = h / h + 1 boundary;
    # a small block makes the pass take many blocks, one row each at 1
    if block is not None:
        monkeypatch.setattr(mpscore, "_BLOCK", block)
    for S in (1, 2, 3):
        for L in range(2, 8 if S < 3 else 7):
            for q0 in (Fraction(1, 2), Fraction(1), Fraction(7, 4)):
                for r in range(2, L + 1):
                    expected = _full_vector_two_point(S, L, q0, r)
                    assert dense_pbc_two_point_sz(S, L, q0, r) == \
                        pytest.approx(expected, rel=1e-12)


# S = 1..3 up to L = 10, 9, 7: every r, both reductions and odd L
BLOCKED_CASES = [(S, L) for S, top in ((1, 10), (2, 9), (3, 7))
                 for L in range(2, top + 1)]


def _outcome(f, *args):
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_charge_blocked_two_point_matches_unblocked():
    # the unblocked reference forms every amplitude, the zeros included
    for S, L in BLOCKED_CASES:
        for q in ("1/2", "5/7", "1", "7/4"):
            q0 = Fraction(q)
            for r in range(2, L + 1):
                assert dense_pbc_two_point_sz(S, L, q0, r) == pytest.approx(
                    oracles.dense_pbc_two_point_sz(S, L, q0, r), rel=1e-12)


def test_charge_blocked_two_point_far_q_keeps_the_outcome():
    # far from q = 1 the halves hold inf and 0 * inf = NaN off the charge
    # support; the blocked pass raises where the unblocked one does, with
    # the same error, and agrees where neither raises
    errors = 0
    for S, L in BLOCKED_CASES:
        for q0 in (1e3, 1e-3, 1e8, 1e-8, 1e30, 1e-30):
            for r in range(2, L + 1):
                got = _outcome(dense_pbc_two_point_sz, S, L, q0, r)
                ref = _outcome(oracles.dense_pbc_two_point_sz, S, L, q0, r)
                if isinstance(ref, tuple):
                    errors += 1
                    assert got == ref, (S, L, q0, r)
                else:
                    assert abs(got - ref) <= 1e-12, (S, L, q0, r)
    assert errors == 306


def test_two_point_rejects_an_off_charge_entry(monkeypatch):
    # one nonzero entry of W[m] off j - i = m breaks the support that lets
    # the pass skip amplitudes; the check must see it at every S
    phys = mpscore.MPSTensor.phys_matrices

    def leaky(self, q0):
        W = phys(self, q0)
        W[0, self.S, 0] = 1e-300  # m = S, j - i = -S
        return W

    monkeypatch.setattr(mpscore.MPSTensor, "phys_matrices", leaky)
    for S in (1, 2, 3):
        with pytest.raises(AssertionError, match="off j - i = m"):
            dense_pbc_two_point_sz(S, 4, Q0, 3)


@pytest.mark.parametrize("S", range(1, 7))
def test_two_point_blocks_hold_exactly_their_pairs(monkeypatch, S):
    # row i (S+1) + j of a half is zero off j - i = M(s), s its strings; with
    # those entries NaN a block row of another pair would make the value NaN,
    # and with one of its S+1-|delta| rows missing it would move off the
    # join over every pair
    q0 = Fraction(9, 10)
    cases = [(L, r) for L in range(2, 6) for r in range(2, L + 1)]
    refs = [oracles.dense_pbc_two_point_sz(S, L, q0, r) for L, r in cases]
    halves = mpscore._dense_halves
    aux = np.arange(S + 1)
    moves = (aux - aux[:, None]).ravel()

    def poisoned(W, L):
        return tuple(np.where(moves[:, None] == mpscore._charges(S, n), X, np.nan)
                     for X, n in zip(halves(W, L), (L // 2, L - L // 2)))

    monkeypatch.setattr(mpscore, "_dense_halves", poisoned)
    for (L, r), ref in zip(cases, refs):
        assert dense_pbc_two_point_sz(S, L, q0, r) == pytest.approx(
            ref, rel=1e-12), (L, r)


@pytest.mark.parametrize("S, L", ((2, 10), (3, 8), (1, 14), (2, 9), (3, 7),
                                  (1, 13), *((S, 2) for S in range(6, 13))))
def test_dense_two_point_budget_bounds_the_peak(monkeypatch, S, L):
    # the charge counts what the blocked pass holds: the halves, the largest
    # charge block and the marginal; tracemalloc sees numpy's buffers, and
    # the charge is within 10% of them. At L = 2 the site tensor's exact
    # evaluation sets the peak, measured with its caches cold, which the
    # charge bounds with room for warm ones
    charged = []
    monkeypatch.setattr(mpscore, "check_budget",
                        lambda nbytes, what: charged.append(nbytes))
    q0 = Fraction(9, 10)
    for r in sorted({2, L // 2 + 1}):
        dense_pbc_two_point_sz(S, L, q0, r)  # the site tensor's caches
        if L == 2:
            mpscore._radical_layout.cache_clear()
            qnum.q_factorials.cache_clear()
        charged.clear()
        tracemalloc.start()
        try:
            dense_pbc_two_point_sz(S, L, q0, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        low = 0.9 if L > 2 else 0.5
        assert low * charged[0] <= peak <= charged[0], (r, peak, charged)


def test_dense_two_point_budget_counts_halves_not_state(monkeypatch):
    # the 5^10-float state needs ~234 MB; the streamed pass holds ~2 MB
    monkeypatch.setenv("QVBS_BUDGET_MB", "16")
    q0 = Fraction(9, 10)
    assert abs(dense_pbc_two_point_sz(2, 10, q0, 5)
               - two_point_finite("sz", "sz", 2, q0, 10, 5)) < 1e-10
    with pytest.raises(BudgetError, match=r"dense_pbc_state\(S=2, L=10\)"):
        dense_pbc_state(2, 10, q0)
