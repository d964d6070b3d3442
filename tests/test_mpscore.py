import numpy as np
import pytest
from fractions import Fraction

from qvbs.mpscore import (
    contract_open,
    contract_pbc,
    dense_pbc_state,
    dense_pbc_two_point_sz,
    tensor_f,
    tensor_g,
    tensor_g_start,
)
from qvbs.qnum import LaurentQ, RadScalar, q_binomial, sign_at_positive
from qvbs.vbsstate import build_open, build_pbc

Q0 = Fraction(4, 5)


def test_g_spin1_structure():
    g = tensor_g(1)
    assert g.entry(1, 1).value_eq(RadScalar(LaurentQ.q_power(-1, -1)))
    assert g.entry(1, 2).value_eq(RadScalar(LaurentQ.q_power(-1, -1)))
    assert g.entry(2, 2).value_eq(RadScalar(LaurentQ.q_power(1)))
    assert g.entry(2, 1).value_eq(RadScalar(LaurentQ.q_power(1)))


def test_g_start_has_no_sign_or_power():
    for S in (1, 2, 3):
        gs = tensor_g_start(S)
        for i in range(1, S + 2):
            for j in range(1, S + 2):
                e = gs.entry(i, j)
                assert e.value_eq(RadScalar.sqrt_of(
                    q_binomial(S, i - 1), q_binomial(S, j - 1)))


def test_f_g_gauge_ratio():
    # f(i,j) / g(i,j) = q^((S+1)(j-i)/2): compare squares and signs
    for S in (1, 2, 3):
        f, g = tensor_f(S), tensor_g(S)
        for i in range(1, S + 2):
            for j in range(1, S + 2):
                lhs = f.entry(i, j).square()
                rhs = g.entry(i, j).square() * LaurentQ.q_power((S + 1) * (j - i))
                assert lhs == rhs, (S, i, j)
                assert sign_at_positive(f.entry(i, j).rat) == \
                    sign_at_positive(g.entry(i, j).rat)


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
        assert f.prefactor.value_eq(g.prefactor)


def test_open_matches_boson_with_constant_ratio():
    ratios = []
    for p1 in (1, 2, 3):
        for p2 in (1, 2, 3):
            m = contract_open(2, 3, p1, p2)
            b = build_open(2, 3, p1, p2)
            assert m.proportional_to(b)
            assert m.weights() == [p2 - p1]
            ratios.append(m.ratio_to(b))
    n0, d0 = ratios[0]
    for n, d in ratios[1:]:
        assert (n * d0).value_eq(n0 * d)


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


def test_dense_state_rejects_short_chains():
    for L in (0, -2):
        with pytest.raises(ValueError, match="need L >= 1"):
            dense_pbc_state(1, L, Q0)


def test_dense_two_point_range():
    with pytest.raises(ValueError):
        dense_pbc_two_point_sz(1, 4, Q0, 1)
    val = dense_pbc_two_point_sz(1, 6, Q0, 3)
    assert isinstance(val, float)
