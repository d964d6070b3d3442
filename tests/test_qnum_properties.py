"""Property tests of the Laurent kernel against sympy as an independent
oracle; the module skips when hypothesis or sympy is not installed."""

import pytest

from qvbs.qnum import LaurentQ, laurent_gcd

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

_X = sympy.Symbol("x")


def _laurent(coeffs, low):
    return LaurentQ({low + i: c for i, c in enumerate(coeffs)})


def _sympy_poly(p):
    """The ordinary polynomial q^(-min exponent) p as a sympy Poly."""
    low = p.min_exp()
    return sympy.Poly(sum(v * _X ** (e - low) for e, v in p.items()), _X,
                      domain="ZZ")


def _divides_over_zz(pa, pb):
    if pa.is_zero:
        return True
    quot, rem = _sympy_poly(pa).div(_sympy_poly(pb))
    return rem.is_zero and all(c.is_integer for c in quot.coeffs())


_coeff_lists = st.lists(st.integers(-6, 6), min_size=1, max_size=7)
_nonzero = _coeff_lists.filter(any)


@settings(max_examples=150, deadline=None)
@given(_coeff_lists, _nonzero, _nonzero, st.booleans(), st.integers(-4, 4),
       st.integers(-4, 4))
def test_divmod_identity_property(a, b, c, multiple, la, lb):
    # half the dividends are multiples of the divisor, so both outcomes of
    # the zero test are exercised
    pb = _laurent(b, lb)
    pa = _laurent(a, la) * (pb if multiple else _laurent(c, 0))
    quot, rem = pa.divmod_by(pb)
    assert quot * pb + rem == pa
    assert rem.is_zero == _divides_over_zz(pa, pb)


@settings(max_examples=150, deadline=None)
@given(_nonzero, _nonzero, _nonzero, st.integers(-4, 4), st.integers(-4, 4))
def test_laurent_gcd_matches_sympy(a, b, common, la, lb):
    pc = _laurent(common, 0)
    pa, pb = _laurent(a, la) * pc, _laurent(b, lb) * pc
    g = laurent_gcd(pa, pb)
    ref = sympy.gcd(_sympy_poly(pa), _sympy_poly(pb)).primitive()[1]
    if ref.LC() < 0:
        ref = -ref
    assert g.min_exp() == 0
    assert _sympy_poly(g) == ref


@settings(max_examples=150, deadline=None)
@given(_coeff_lists, _nonzero.map(lambda b: b[:-1] + [1]), st.sampled_from((1, -1)),
       st.integers(-4, 4))
def test_unit_leading_divisor_keeps_ints(a, b, sign, low):
    pb = _laurent([c * sign for c in b], low)
    quot, rem = _laurent(a, 0).divmod_by(pb)
    assert all(type(v) is int for _, v in quot.items())
    assert all(type(v) is int for _, v in rem.items())
