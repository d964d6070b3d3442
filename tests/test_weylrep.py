import math
from fractions import Fraction

import pytest

from qvbs.qnum import LaurentQ, q_factorial, q_factorials, q_integer
from qvbs.weylrep import (
    HGEN,
    QH,
    QH_INV,
    XMINUS,
    XPLUS,
    SitePoly,
    StateVector,
    apply_boson,
    apply_generator,
    bond_factor,
    coproduct_apply,
    poly_to_spin,
    site_roots,
    weight_radicand,
)


def test_raising_on_lowest_weight():
    # X+ on y^2 for a spin-1 site gives [2] x y
    r = apply_generator(SitePoly.var(1, "y", 2), XPLUS, 1)
    assert r == SitePoly.monomial({1: (1, 1)}, q_integer(2))


def test_raising_kills_highest_weight():
    for S in (1, 2, 3):
        assert apply_generator(SitePoly.var(1, "x", 2 * S), XPLUS, 1).is_zero


def test_qh_weight():
    # q^H multiplies x^(S+m) y^(S-m) by q^(2m)
    for S, m in ((1, 0), (2, 1), (3, -2)):
        p = SitePoly.monomial({1: (S + m, S - m)})
        assert apply_generator(p, QH, 1) == p.scale(LaurentQ.q_power(2 * m))
        assert apply_generator(p, QH_INV, 1) == p.scale(LaurentQ.q_power(-2 * m))


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        apply_generator(SitePoly.one(), "Z", 1)
    # each entry point accepts only its own names; H acts through the
    # coproduct alone
    for bad in (HGEN, "a"):
        with pytest.raises(ValueError):
            apply_generator(SitePoly.one(), bad, 1)
    with pytest.raises(ValueError):
        apply_boson(SitePoly.one(), XPLUS, 1)
    # the name is checked before the polynomial is read, so zero is no escape
    with pytest.raises(ValueError):
        apply_boson(SitePoly.zero(), "c", 1)
    with pytest.raises(ValueError):
        coproduct_apply(SitePoly.zero(), "Z", (1, 2))


@pytest.mark.parametrize("a,b", [(a, b) for a in range(0, 9) for b in range(0, 9 - a)])
def test_algebra_relations_per_monomial(a, b):
    p = SitePoly.monomial({1: (a, b)})
    lhs = (apply_generator(apply_generator(p, XMINUS, 1), XPLUS, 1)
           - apply_generator(apply_generator(p, XPLUS, 1), XMINUS, 1))
    w = a - b
    rhs = SitePoly.zero() if w == 0 else p.scale(
        q_integer(abs(w)) * (1 if w > 0 else -1))
    assert lhs == rhs


@pytest.mark.parametrize("a,b", [(a, b) for a in range(0, 9) for b in range(0, 9 - a)])
def test_q_boson_relations(a, b):
    p = SitePoly.monomial({1: (a, b)})
    lhs = (apply_boson(apply_boson(p, "adag", 1), "a", 1)
           - apply_boson(apply_boson(p, "a", 1), "adag", 1).scale(LaurentQ.q_power(1)))
    assert lhs == p.scale(LaurentQ.q_power(-a))
    lhs = (apply_boson(apply_boson(p, "bdag", 1), "b", 1)
           - apply_boson(apply_boson(p, "b", 1), "bdag", 1).scale(LaurentQ.q_power(1)))
    assert lhs == p.scale(LaurentQ.q_power(-b))
    # number operators count
    assert apply_boson(p, "Na", 1) == (p.scale(a) if a else SitePoly.zero())
    assert apply_boson(p, "Nb", 1) == (p.scale(b) if b else SitePoly.zero())


def test_singlet_annihilated_by_coproduct():
    # the invariant two-site vector for one boson per site:
    # x_k y_l - q^-1 y_k x_l
    v = (SitePoly.monomial({1: (1, 0), 2: (0, 1)})
         - SitePoly.monomial({1: (0, 1), 2: (1, 0)}, LaurentQ.q_power(-1)))
    # spin-1/2 weights are odd, so integer-weight machinery must refuse
    with pytest.raises(ValueError):
        coproduct_apply(v, XPLUS, (1, 2))
    # the integer-spin singlet (two bosons per site) is annihilated
    s = (SitePoly.monomial({1: (1, 0), 2: (0, 1)})
         - SitePoly.monomial({1: (0, 1), 2: (1, 0)}, LaurentQ.q_power(-2))) * \
        (SitePoly.monomial({1: (1, 0), 2: (0, 1)})
         - SitePoly.monomial({1: (0, 1), 2: (1, 0)}))
    assert coproduct_apply(s, XPLUS, (1, 2)).is_zero
    assert coproduct_apply(s, XMINUS, (1, 2)).is_zero


def test_coproduct_weight_additivity():
    for S in (1, 2, 3):
        p = SitePoly.monomial({1: (2 * S, 0), 2: (2 * S, 0)})
        assert coproduct_apply(p, HGEN, (1, 2)) == p.scale(4 * S)
        assert coproduct_apply(p, QH, (1, 2)) == p.scale(LaurentQ.q_power(4 * S))


def test_coproduct_diagonal_generators_on_mixed_weights():
    # H (X) 1 + 1 (X) H and q^H (X) q^H, including weights that cancel
    # between the two sites
    for e1, e2, w in (((3, 1), (0, 2), 0), ((4, 0), (1, 1), 4),
                      ((0, 3), (1, 0), -2)):
        p = SitePoly.monomial({1: e1, 2: e2}, q_integer(3))
        assert coproduct_apply(p, HGEN, (1, 2)) == p.scale(w)
        assert coproduct_apply(p, QH, (1, 2)) == p.scale(LaurentQ.q_power(w))
        assert coproduct_apply(p, QH_INV, (2, 1)) == p.scale(
            LaurentQ.q_power(-w))
    mixed = (SitePoly.monomial({1: (3, 1), 2: (0, 2)})
             + SitePoly.monomial({1: (4, 0), 2: (1, 1)}))
    assert coproduct_apply(mixed, HGEN, (1, 2)) == SitePoly.monomial(
        {1: (4, 0), 2: (1, 1)}, 4)


def test_poly_to_spin_highest_weight():
    st = poly_to_spin(SitePoly.var(1, "x", 4), 2, (1,))
    assert set(st.amps) == {(2,)}
    assert st.amps[(2,)] == LaurentQ.one() and st.prefactor == ()
    # bookkeeping: coefficient 1 times sqrt([4]! [0]!)
    q0 = Fraction(4, 5)
    assert st.float_values(q0).tolist() == pytest.approx([
        q_factorial(4).eval_float(q0) ** 0.5], rel=1e-15)


def test_site_roots_are_correctly_rounded():
    # math.sqrt of the radicand's float, which IEEE 754 rounds correctly; a
    # pow(x, 0.5) from libm need not be, and then bytes depend on the platform
    for q in ("1/2", "5/7", "1", "7/5", "7/3"):
        q0 = Fraction(q)
        table = q_factorials(q0)
        for S in range(1, 9):
            assert site_roots(S, q0).tolist() == [
                math.sqrt(table.eval_float((S + m, S - m)))
                for m in range(-S, S + 1)]


def test_poly_to_spin_zero_and_errors():
    assert poly_to_spin(SitePoly.zero(), 2, (1, 2)).is_zero
    with pytest.raises(ValueError):
        poly_to_spin(SitePoly.var(1, "x", 3), 2, (1,))  # inhomogeneous
    with pytest.raises(ValueError):
        poly_to_spin(SitePoly.var(3, "x", 4), 2, (1, 2))  # stray site


def test_statevector_dense_ordering():
    st = StateVector(1, 2, {(1, -1): LaurentQ.one()})
    v = st.to_dense(Fraction(1))
    # digits are S-m: (1,-1) -> (0,2) -> index 2
    assert v[2] != 0 and abs(v[2] - 2.0) < 1e-12  # sqrt([2]!)^2 at q=1 is 2
    assert (v != 0).sum() == 1


def test_norm_squared_collapses_radicals():
    # <psi|psi> = prefactor * sum_m amp^2 prod_l [S+m_l]! [S-m_l]!, radical-free
    st = StateVector(1, 2, {(1, -1): LaurentQ.one(), (0, 0): q_integer(2)},
                     (q_integer(3),))
    expect = q_integer(3) * (q_factorial(2) * q_factorial(2)
                             + q_integer(2) * q_integer(2))
    for q0 in (Fraction(1), Fraction(4, 5), Fraction(7, 3)):
        v = st.to_dense(q0)
        assert v @ v == pytest.approx(expect.eval_float(q0), rel=1e-14)


def test_proportionality_and_translation():
    st = StateVector(1, 2, {(1, -1): q_integer(2), (0, 0): q_integer(3)})
    scaled = StateVector(1, 2, {k: v * q_integer(5) for k, v in st.amps.items()})
    assert st.proportional_to(scaled)
    other = StateVector(1, 2, {(1, -1): q_integer(2), (0, 0): q_integer(4)})
    assert not st.proportional_to(other)
    tr = st.translated()
    assert tr.amps[(-1, 1)] == q_integer(2)


def test_bond_factor_shape():
    f = bond_factor(2, 1, 2)
    assert f == (SitePoly.monomial({1: (1, 0), 2: (0, 1)}, LaurentQ.q_power(2))
                 - SitePoly.monomial({1: (0, 1), 2: (1, 0)}, LaurentQ.q_power(-2)))


def test_sitepoly_text_dump_deterministic():
    p = bond_factor(1, 2, 1) * SitePoly.var(1, "x")
    assert str(p) == str(bond_factor(1, 2, 1) * SitePoly.var(1, "x"))
    assert "x1" in str(p)


def test_weight_radicand():
    assert weight_radicand(2, 1) == q_factorial(3) * q_factorial(1)
