import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

import oracles
from qvbs.qnum import (
    PRIMES,
    Q_CACHE_SIZE,
    Batch,
    LaurentQ,
    QFactorials,
    RatQ,
    primes_for_height,
    laurent_gcd,
    parse_q,
    q_binomial,
    q_factorial,
    q_factorials,
    q_integer,
    radical_float,
    radical_form,
)
from qvbs.vbsstate import build_pbc


def test_q_integer_basics():
    assert q_integer(0).is_zero
    assert q_integer(2) == LaurentQ({1: 1, -1: 1})
    assert q_integer(4).eval_float(1) == 4.0


def test_q_factorial_3():
    assert q_factorial(3) == LaurentQ({3: 1, 1: 2, -1: 2, -3: 1})


def test_q_binomial_4_2():
    assert q_binomial(4, 2) == LaurentQ({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


@pytest.mark.parametrize("n", range(0, 8))
def test_q_binomial_edges(n):
    assert q_binomial(n, 0) == LaurentQ.one()
    assert q_binomial(n, n) == LaurentQ.one()


def test_q_binomial_symmetry_and_bar():
    for n in range(0, 10):
        for k in range(0, n + 1):
            b = q_binomial(n, k)
            assert b == q_binomial(n, n - k)
            assert b.bar() == b
    assert q_integer(5).bar() == q_integer(5)
    assert q_factorial(6).bar() == q_factorial(6)


def test_pascal_classical_limit():
    for n in range(0, 13):
        for k in range(0, n + 1):
            assert q_binomial(n, k).eval_float(1) == math.comb(n, k)


def test_q_binomial_rejects_bad_range():
    with pytest.raises(ValueError):
        q_binomial(3, -1)
    with pytest.raises(ValueError):
        q_binomial(3, 4)


def test_eval_at_examples():
    assert q_integer(2).eval_float(Fraction(2)) == 2.5
    assert q_integer(5).eval_float(1) == 5.0
    assert q_binomial(4, 2).eval_float(1) == 6.0
    assert RatQ(q_integer(3), q_integer(2)).eval_float(2) == 2.1
    with pytest.raises(ValueError):
        q_integer(2).eval_float(-1)


def test_eval_fraction_matches_termwise_sum():
    # the evaluation sums over a common denominator; the reference adds
    # coefficient times power term by term
    rng = random.Random(11)
    for _ in range(300):
        coeffs = {rng.randint(-12, 12): rng.randint(-30, 30)
                  for _ in range(rng.randint(0, 6))}
        q0 = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        ref = sum((Fraction(v) * q0 ** e for e, v in coeffs.items()), Fraction(0))
        got = LaurentQ(coeffs).eval_fraction(q0)
        assert isinstance(got, Fraction) and got == ref


def test_eval_ratio_matches_the_per_term_sum():
    # the Horner pass gives the very integers of the term-by-term sum, so
    # every float and error text built on them is unchanged
    amps = build_pbc(3, 4).amps.values()
    polys = ([q_factorial(n) for n in range(17)]
             + [q_factorial(16) * q_factorial(8) * q_factorial(8), LaurentQ.zero(),
                LaurentQ.q_power(-3, 5)] + list(dict.fromkeys(amps)))
    for q0 in (Fraction(1, 10 ** 400), Fraction(7, 3), Fraction(1),
               Fraction(10 ** 400)):
        for p in polys:
            assert p.eval_ratio(q0) == oracles.eval_ratio(p, q0)


def _outcome(fn):
    """The float fn returns, as hex so that -0.0 and 0.0 differ, or the type
    and text of the ArithmeticError it raises."""
    try:
        return fn().hex()
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _kind(outcome):
    if not isinstance(outcome, str):
        return outcome[0].__name__
    v = abs(float.fromhex(outcome))
    return "zero" if v == 0 else "subnormal" if v < sys.float_info.min else "normal"


def _far_point(rng):
    """A positive rational from about 1e-200 to 1e200."""
    return (Fraction(rng.randint(1, 999), rng.randint(1, 999))
            * Fraction(10) ** rng.randint(-200, 200))


def _random_laurent(rng, terms=5, span=6):
    return LaurentQ({rng.randint(-span, span):
                     rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 30))
                     for _ in range(rng.randint(0, terms))})


def test_eval_float_is_float_of_eval_fraction():
    # one int division: bit for bit float(Fraction), through subnormals,
    # signed zeros and the same OverflowError text
    rng = random.Random(23)
    kinds = set()
    for _ in range(3000):
        p = _random_laurent(rng)
        q0 = _far_point(rng)
        got = _outcome(lambda: p.eval_float(q0))
        assert got == _outcome(lambda: float(p.eval_fraction(q0)))
        kinds.add(_kind(got))
    assert kinds == {"OverflowError", "zero", "subnormal", "normal"}


def test_radical_float_matches_fraction_reference():
    # the reference rounds the Laurent part from its Fraction value and
    # takes each kept factor's root of float(Fraction)
    def reference(factors, q0):
        r, kept = radical_form(factors)
        acc = float(r.eval_fraction(q0))
        for f in kept:
            acc *= math.sqrt(f.eval_fraction(q0))
        return acc

    rng = random.Random(31)
    pool = [q_integer(n) for n in range(2, 9)] + [
        LaurentQ({rng.randint(-8, 8): rng.randint(1, 10 ** 20)
                  for _ in range(rng.randint(1, 4))}) for _ in range(8)]
    kinds = set()
    for _ in range(1500):
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        factors += rng.sample(factors, rng.randint(0, len(factors)))
        q0 = _far_point(rng)
        got = _outcome(lambda: radical_float(factors, q0))
        assert got == _outcome(lambda: reference(factors, q0))
        kinds.add(_kind(got))
    # a Laurent part in the subnormal range, which the draws seldom reach
    q4 = (LaurentQ.q_power(1),) * 4
    got = _outcome(lambda: radical_float(q4, Fraction(1, 10 ** 155)))
    assert got == _outcome(lambda: reference(q4, Fraction(1, 10 ** 155)))
    kinds.add(_kind(got))
    assert kinds == {"OverflowError", "zero", "subnormal", "normal"}


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_poly():
        return LaurentQ({rng.randint(-5, 5): rng.randint(-4, 4)
                         for _ in range(rng.randint(0, 5))})

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero


def test_coefficients_are_integers_only():
    with pytest.raises(TypeError):
        LaurentQ({0: Fraction(1, 2)})
    with pytest.raises(TypeError):
        LaurentQ.const(0.5)
    # a rational constant goes through RatQ's integer parts
    r = RatQ(Fraction(3, 4))
    assert (r.num, r.den) == (LaurentQ.const(3), LaurentQ.const(4))


def test_canonical_form_no_zero_coeffs():
    p = LaurentQ({2: 1, 0: 0, -1: 0})
    assert dict(p.items()) == {2: 1}
    q = LaurentQ({1: 1}) - LaurentQ({1: 1})
    assert q.is_zero and not dict(q.items())


def test_divide_exact_and_remainder():
    a = q_factorial(4)
    b = q_integer(3)
    quot = a.divide_exact(b)
    assert quot * b == a
    with pytest.raises(ValueError):
        (q_integer(2) + 1).divide_exact(q_integer(3))


def test_laurent_gcd():
    a = q_integer(2) * q_integer(3)
    b = q_integer(2) * q_integer(4)
    g = laurent_gcd(a, b)
    assert a.divide_exact(g) * g == a
    assert b.divide_exact(g) * g == b
    # [2] divides both, so the gcd is [2] up to normalization
    assert g.divide_exact(LaurentQ({0: g.coeff(g.max_exp())})) is not None


def test_ratq_arithmetic_and_eq():
    half = RatQ(q_integer(2), q_integer(4))
    assert half == RatQ(q_integer(2) * q_integer(3), q_integer(4) * q_integer(3))
    s = half + half
    assert s == RatQ(q_integer(2) * 2, q_integer(4))
    assert (half - half).is_zero
    v = RatQ(q_integer(3), q_integer(2)).eval_fraction(Fraction(1))
    assert v == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        RatQ(q_integer(2), LaurentQ.zero())


def test_ratq_monomial_denominator_folds():
    # the q-power moves into the numerator; the integer 4 stays below
    r = RatQ(q_integer(3), LaurentQ.q_power(2, 4))
    assert r.den == LaurentQ.const(4)
    assert r.num == q_integer(3).shift(-2)
    assert r.eval_fraction(1) == Fraction(3, 4)


def test_ratq_normal_form_integer_content_and_sign():
    r = RatQ(6, 4)
    assert (r.num, r.den) == (LaurentQ.const(3), LaurentQ.const(2))
    x = q_integer(3) * 6
    y = LaurentQ({3: 4, 1: -2})
    a, b = RatQ(x, -y), RatQ(-x, y)
    assert a == b
    assert (a.num, a.den) == (b.num, b.den)
    assert a.den == LaurentQ({2: 2, 0: -1})
    assert a.num == -3 * q_integer(3).shift(-1)


def test_ratq_pole():
    r = RatQ(LaurentQ.one(), LaurentQ({1: 1, 0: -1}), reduce=False)  # 1/(q-1)
    with pytest.raises(ZeroDivisionError):
        r.eval_fraction(1)


def test_radical_form_pairs_equal_factors():
    r, kept = radical_form((q_integer(3), LaurentQ.one(), q_integer(2),
                            q_integer(2)))
    assert r == q_integer(2)
    assert kept == (q_integer(3),)
    assert radical_form((q_integer(3), q_integer(3))) == (q_integer(3), ())
    assert radical_form(()) == (LaurentQ.one(), ())
    # the kept factors come sorted by key(), whatever the input order
    a, b = q_integer(2), q_integer(3)
    assert radical_form((a, b)) == radical_form((b, a))


def test_radical_float_matches_sqrt():
    v = radical_float((q_integer(2), q_integer(2), q_integer(3)), Fraction(1))
    assert abs(v - 2 * math.sqrt(3)) < 1e-12
    assert radical_float((), 2) == 1.0
    w = radical_float((q_integer(3),), Fraction(1, 2))
    assert w == pytest.approx(math.sqrt(5.25), rel=1e-15)


def test_json_round_trip():
    # exponent and coefficient strings read back into the same polynomial
    p = LaurentQ({3: 7, -2: -4})
    obj = json.loads(json.dumps(p.to_json_obj()))
    assert LaurentQ({int(e): int(v) for e, v in obj.items()}) == p
    obj = p.to_json_obj()
    assert obj == {"3": "7", "-2": "-4"}


def test_parse_q():
    assert parse_q("4/5") == Fraction(4, 5)
    assert parse_q("0.8") == Fraction(4, 5)
    with pytest.raises(ValueError):
        parse_q("-1")


def test_divmod_keeps_integer_coefficients():
    a = q_factorial(5)
    quot, rem = a.divmod_by(q_integer(4))
    assert rem.is_zero and quot * q_integer(4) == a
    assert all(type(v) is int for _, v in quot.items())
    # a non-unit leading coefficient stops the division at the first
    # leading coefficient it does not divide; the identity still holds
    a, b = LaurentQ({3: 2, 2: 3, 0: 1}), LaurentQ({1: 2, 0: 1})
    quot, rem = a.divmod_by(b)
    assert dict(quot.items()) == {2: 1, 1: 1}
    assert dict(rem.items()) == {1: -1, 0: 1}
    assert quot * b + rem == a
    quot, rem = LaurentQ({2: 1, 0: 1}).divmod_by(b)
    assert quot.is_zero and rem == LaurentQ({2: 1, 0: 1})


def test_primitive_clears_denominators_and_content():
    p = LaurentQ({3: -6, 1: 4, -1: 18})
    assert dict(p.primitive().items()) == {3: 3, 1: -2, -1: -9}
    assert LaurentQ({2: 6, 0: 4}).primitive() == LaurentQ({2: 3, 0: 2})
    assert LaurentQ.zero().primitive().is_zero


def test_laurent_gcd_is_monic_with_min_exponent_zero():
    g = laurent_gcd((q_integer(2) * q_integer(3)).shift(5) * 6,
                    (q_integer(2) * q_integer(4)).shift(-3) * -14)
    assert g == LaurentQ({2: 1, 0: 1})
    assert laurent_gcd(LaurentQ.zero(), LaurentQ({1: 3, 0: 6})) == LaurentQ({1: 1, 0: 2})
    assert laurent_gcd(LaurentQ.zero(), LaurentQ.zero()).is_zero



def test_eval_mod_matches_termwise_residues():
    # big coefficients, negative exponents, the zero polynomial, and points
    # at and beyond p - 1, against Python's modular pow term by term
    rng = random.Random(3)
    p = 2147483629
    polys = [LaurentQ({rng.randint(-40, 40): rng.randint(-10 ** 40, 10 ** 40)
                       for _ in range(12)}) for _ in range(20)]
    polys.append(LaurentQ.zero())
    points = [1, 2, 3, 977, p - 1, p + 2]
    got = Batch(polys).eval_mod(points, p)
    assert got.shape == (len(polys), len(points)) and str(got.dtype) == "int64"
    for f, row in zip(polys, got):
        assert list(row) == [sum(c * pow(x, e, p) for e, c in f.items()) % p
                             for x in points]
    assert not Batch([LaurentQ.zero()]).eval_mod(points, p).any()


def test_eval_mod_small_coefficients():
    # coefficients that fit int64 take the int64 route; negative ones too
    p = PRIMES[0]
    polys = [LaurentQ({-3: -5, 0: 7, 4: -1}), LaurentQ.zero(), LaurentQ({2: 9})]
    points = [16807, 1, 2, p - 1]
    got = Batch(polys).eval_mod(points, p)
    for f, row in zip(polys, got):
        assert list(row) == [sum(c * pow(x, e, p) for e, c in f.items()) % p
                             for x in points]
    # the exponent range is the batch's own, not one anchored at q**0
    for f in (LaurentQ({70000: 3, 70001: -1}), LaurentQ({-70000: 2})):
        got = Batch([f]).eval_mod(points, p)
        assert list(got[0]) == [sum(c * pow(x, e, p) for e, c in f.items())
                                % p for x in points]


def test_eval_mod_unsigned_window_with_negatives():
    # a coefficient in [2**63, 2**64) beside a negative one: numpy alone
    # would infer float64 for the batch and lose the low bits
    p = PRIMES[0]
    big = 2 ** 63 + 1
    polys = [LaurentQ({0: big, 3: -1}), LaurentQ({0: -1}),
             LaurentQ({1: 2 ** 64 - 1})]
    points = [1, 16807, p - 1]
    got = Batch(polys).eval_mod(points, p)
    for f, row in zip(polys, got):
        assert list(row) == [sum(c * pow(x, e, p) for e, c in f.items()) % p
                             for x in points]
    assert Batch(polys).l1.tolist() == [big + 1, 1, 2 ** 64 - 1]


def test_spans_per_polynomial():
    polys = [LaurentQ({-3: -5, 0: 7, 4: -1}), LaurentQ.zero(),
             LaurentQ({2: -10 ** 30, 5: 10 ** 30}), LaurentQ.const(-4)]
    batch = Batch(polys)
    lo, hi, l1 = batch.lo, batch.hi, batch.l1
    assert lo.tolist() == [-3, 0, 2, 0] and hi.tolist() == [4, 0, 5, 0]
    assert l1.tolist() == [13, 0, 2 * 10 ** 30, 4]
    assert all(type(v) is int for v in l1)


def test_empty_batch():
    batch = Batch([])
    got = batch.eval_mod([1, 2, 16807], PRIMES[0])
    assert got.shape == (0, 3) and str(got.dtype) == "int64"
    assert batch.lo.shape == batch.hi.shape == batch.l1.shape == (0,)


def test_batch_spans_are_read_only():
    # a batch may sit in an lru cache, where a caller's write would reach
    # every later caller
    batch = Batch([LaurentQ({-1: 2, 3: -5}), LaurentQ.zero()])
    for a in (batch.lo, batch.hi, batch.l1):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 99
    assert batch.lo.tolist() == [-1, 0] and batch.l1.tolist() == [7, 0]


def test_primes_for_height():
    assert primes_for_height(0, "x") == PRIMES[:1]
    assert primes_for_height(PRIMES[0] // 2, "x") == PRIMES[:1]
    assert primes_for_height(PRIMES[0] // 2 + 1, "x") == PRIMES[:2]
    for H in (10 ** 20, 10 ** 100):
        n = len(primes_for_height(H, "x"))
        assert math.prod(PRIMES[:n]) > 2 * H >= math.prod(PRIMES[:n - 1])
    with pytest.raises(ValueError, match="more than the 32 fixed primes"):
        primes_for_height(math.prod(PRIMES), "x")


# -- the factored q-factorial table ---------------------------------------

TABLE_Q = (Fraction(1, 10 ** 6), Fraction(1, 2), Fraction(4, 5), Fraction(1),
           Fraction(7, 4), Fraction(10 ** 30), Fraction(10 ** 400))


def _table_cases(S):
    """(name, the table's arguments, the expanded polynomial, its sign) for
    every [n]!, [S, k], weight radicand, pair weight and eigenvalue of S."""
    from qvbs.cgproj import _pair_weight
    from qvbs.transfercorr import conjectured_eigenvalue
    from qvbs.weylrep import weight_radicand

    cases = [("[%d]!" % n, ((n,), ()), q_factorial(n), 1)
             for n in range(2 * S + 2)]
    cases += [("[%d,%d]" % (S, k), ((S,), (k, S - k)), q_binomial(S, k), 1)
              for k in range(S + 1)]
    cases += [("W(%d)" % m, ((S + m, S - m), ()), weight_radicand(S, m), 1)
              for m in range(-S, S + 1)]
    # W(m1, m2) is even in each m and symmetric, so these are all of them
    cases += [("W(%d,%d)" % p, ((S + p[0], S - p[0], S + p[1], S - p[1]), ()),
               _pair_weight(S, p), 1)
              for p in itertools.combinations_with_replacement(range(S + 1), 2)]
    # the eigenvalue's factorial form against its exact quotient
    cases += [("lambda_%d" % l, ((2 * S + 1, S, S), (S - l, S + l + 1)),
               conjectured_eigenvalue(S, l), -1 if l % 2 else 1)
              for l in range(S + 1)]
    return cases


@pytest.mark.parametrize("S", range(1, 9))
def test_factorial_table_matches_the_polynomials(S):
    # the same rational, so the same float through one int division, and
    # far from q = 1 the same OverflowError
    from qvbs.transfercorr import conjectured_eigenvalue_float

    kinds = set()
    # past S = 4 the polynomials at 1e400 take a minute; 1e30 stays
    for q0 in TABLE_Q if S <= 4 else TABLE_Q[:-1]:
        table = q_factorials(q0)
        got = {}
        for name, (top, bottom), poly, sign in _table_cases(S):
            num, den = table.ratio(top, bottom)
            # each expanded polynomial is evaluated once: its eval_float is
            # pnum / pden, and cross products spare a Fraction's gcd of
            # numbers that reach 1e100000
            pnum, pden = poly.eval_ratio(q0)
            assert den > 0 and sign * num * pden == pnum * den, (name, q0)
            got[name] = _outcome(lambda: sign * table.eval_float(top, bottom))
            assert got[name] == _outcome(lambda: pnum / pden), (name, q0)
            kinds.add(_kind(got[name]))
        for l in range(S + 1):
            assert _outcome(lambda: conjectured_eigenvalue_float(S, l, q0)) \
                == got["lambda_%d" % l]
    assert {"OverflowError", "normal"} <= kinds


def test_factorial_form_of_the_eigenvalues_is_exact():
    # q-free: (-1)^l [2S+1]! [S]!^2 / ([S-l]! [S+l+1]!) is lambda_l
    from qvbs.transfercorr import conjectured_eigenvalue

    for S in range(1, 9):
        for l in range(S + 1):
            num = q_factorial(2 * S + 1) * q_factorial(S) * q_factorial(S)
            den = q_factorial(S - l) * q_factorial(S + l + 1)
            assert num.divide_exact(den) == (-1) ** l * conjectured_eigenvalue(S, l)


def test_factorial_table_q_powers():
    table = QFactorials(Fraction(3, 7))
    for e in range(-4, 5):
        assert Fraction(*table.ratio(e=e)) == Fraction(3, 7) ** e
    assert table.ratio() == (1, 1)


def test_factorial_table_cache_is_bounded_and_keeps_no_failure():
    from qvbs.transfercorr import Q_CACHE_SIZE as size

    assert q_factorials.cache_info().maxsize == Q_CACHE_SIZE == size
    for k in range(Q_CACHE_SIZE + 20):
        q_factorials(Fraction(1000 + k, 1001)).ratio((5,))
    assert q_factorials.cache_info().currsize == Q_CACHE_SIZE
    before = q_factorials.cache_info().currsize
    q_factorials.cache_clear()
    for bad in (Fraction(0), Fraction(-1, 2)):
        for _ in range(2):
            with pytest.raises(ValueError, match="evaluation point must be > 0"):
                q_factorials(bad)
    assert q_factorials.cache_info().currsize == 0 < before
