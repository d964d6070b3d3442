"""Exact arithmetic in the deformation parameter q.

Laurent polynomials in q over the integers, ratios of those, the normal form
of square roots of positive Laurent radicands, the q-integer /
q-factorial / q-binomial constructions, and the q-factorials at one rational
point as an exact integer table (QFactorials), which evaluates a product of
them from its factors. A Fraction enters only as a value of
q or as a rational constant that RatQ splits into its integer numerator and
denominator; floating point enters only through the eval helpers. Every
other operation is exact in the integers, so zero tests are decisive.
The modular kernel at the end (Batch, the fixed PRIMES and the bounds
that say how many points and primes make a zero test a proof) serves the
zero tests by evaluation.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np


class LaurentQ:
    """Laurent polynomial in q over the integers, an element of Z[q, 1/q].

    Stored as exponent -> int coefficient with no zero entries kept, so
    equality is coefficient-wise and instances hash stably. The constructor
    takes int coefficients only (a Fraction or float raises TypeError);
    rational constants belong in RatQ. Immutable by convention: no method
    mutates self after construction.
    """

    __slots__ = ("_c", "_key")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = operator.index(v)
                if v:
                    c[int(e)] = v
        self._c = c
        self._key = None

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, v):
        return cls({0: v})

    @classmethod
    def q_power(cls, e, coeff=1):
        return cls({e: coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    # -- basic queries ------------------------------------------------

    def items(self):
        return self._c.items()

    @property
    def is_zero(self):
        return not self._c

    def coeff(self, e):
        return self._c.get(e, 0)

    def min_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self._c.items()))
        return self._key

    def nonneg_coeffs(self):
        """True when no coefficient is negative (zeros are not stored), so a
        nonzero polynomial with this property is positive at every q > 0."""
        return all(v > 0 for v in self._c.values())

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentQ):
            return other
        if isinstance(other, int):
            return LaurentQ.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in o._c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return _laurent(c)

    __radd__ = __add__

    def __neg__(self):
        return _laurent({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._c or not o._c:
            return LaurentQ.zero()
        a, b = self._c, o._c
        if len(a) > len(b):
            a, b = b, a
        c = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                s = c.get(e, 0) + va * vb
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        return _laurent(c)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q**k."""
        return _laurent({e + k: v for e, v in self._c.items()})

    def bar(self):
        """The involution q -> 1/q."""
        return _laurent({-e: v for e, v in self._c.items()})

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash(self.key())

    # -- division -----------------------------------------------------

    def divmod_by(self, other):
        """Long division over the integers: self == quot * other + rem.

        Works on the ordinary-polynomial images (exponents shifted to 0) and
        stops at the first leading coefficient that the divisor's leading
        coefficient does not divide, or when rem is of lower degree than the
        divisor. So rem is zero exactly when other divides self in
        Z[q, 1/q]; that zero test is what callers rely on.
        """
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentQ.zero(), LaurentQ.zero()
        sh_s, sh_o = self.min_exp(), other.min_exp()
        num = {e - sh_s: v for e, v in self._c.items()}
        den = {e - sh_o: v for e, v in other._c.items()}
        dd = max(den)
        dl = den[dd]
        quot = {}
        while num:
            nd = max(num)
            if nd < dd:
                break
            f, r = divmod(num[nd], dl)
            if r:
                break
            quot[nd - dd] = f
            for e, v in den.items():
                ne = nd - dd + e
                s = num.get(ne, 0) - f * v
                if s:
                    num[ne] = s
                else:
                    num.pop(ne, None)
        return (_laurent({e + sh_s - sh_o: v for e, v in quot.items()}),
                _laurent({e + sh_s: v for e, v in num.items()}))

    def divide_exact(self, other):
        q, r = self.divmod_by(other)
        if not r.is_zero:
            raise ValueError("inexact Laurent division (remainder %s)" % r)
        return q

    # -- evaluation ---------------------------------------------------

    def eval_ratio(self, q0):
        """(num, den), integers with den > 0 and num / den the exact value at
        a positive rational q0 = n/d, not reduced: the sum of
        v n^(e-lo) d^(hi-e) runs in integers and n^lo / d^hi joins it once.
        The sum is one Horner pass down the exponents, each power of n and d
        built from the last."""
        if not isinstance(q0, Fraction):
            q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError("evaluation point must be > 0")
        if not self._c:
            return 0, 1
        n, d = q0.numerator, q0.denominator
        exps = sorted(self._c, reverse=True)
        lo, hi = exps[-1], exps[0]
        # after exponent e: acc = sum over e' >= e of v n^(e'-e) d^(hi-e'),
        # and dpow = d^(hi-e)
        acc, dpow, prev = 0, 1, hi
        for e in exps:
            if e != prev:
                acc *= n ** (prev - e)
                dpow *= d ** (prev - e)
                prev = e
            acc += self._c[e] * dpow
        return (acc * n ** max(lo, 0) * d ** max(-hi, 0),
                n ** max(-lo, 0) * d ** max(hi, 0))

    def eval_fraction(self, q0):
        """Exact evaluation at a positive rational point."""
        return Fraction(*self.eval_ratio(q0))

    def eval_float(self, q0):
        """The value at q0 rounded once: CPython's int true division is
        correctly rounded, and float(Fraction) is that same division, so this
        equals float(eval_fraction(q0)) bit for bit, OverflowError included."""
        num, den = self.eval_ratio(q0)
        return num / den

    # -- misc ---------------------------------------------------------

    def primitive(self):
        """self over its integer content, signed so that the leading (max
        exponent) coefficient is positive: coprime coefficients."""
        if not self._c:
            return self
        g = math.gcd(*self._c.values())
        if self._c[max(self._c)] < 0:
            g = -g
        return _laurent({e: v // g for e, v in self._c.items()})

    def to_json_obj(self):
        return {str(e): str(v) for e, v in sorted(self._c.items())}

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            if e == 0:
                parts.append(str(v))
            elif e == 1:
                parts.append("%s*q" % v)
            else:
                parts.append("%s*q^%d" % (v, e))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _laurent(c):
    """A LaurentQ around c, exponent -> coefficient already in normal form:
    int keys and nonzero int values, the dict not shared."""
    out = LaurentQ.__new__(LaurentQ)
    out._c = c
    out._key = None
    return out


def laurent_gcd(a, b):
    """Primitive gcd of two Laurent polynomials over the integers.

    The result has coprime coefficients, a positive leading coefficient and
    min exponent 0. Euclid on pseudo-remainders: a times lc(b) to the power
    span(a) - span(b) + 1 always divides by b in the integers, and each
    remainder is made primitive (the primitive remainder sequence, Knuth,
    TAOCP vol. 2, 4.6.1).
    """
    a, b = a.primitive(), b.primitive()
    if a.is_zero:
        a, b = b, a
    while not b.is_zero:
        k = a.max_exp() - a.min_exp() - b.max_exp() + b.min_exp() + 1
        lead = b.coeff(b.max_exp()) ** max(k, 0)
        a, b = b, (a * lead).divmod_by(b)[1].primitive()
    return a.shift(-a.min_exp()) if not a.is_zero else a


class RatQ:
    """Ratio of two Laurent polynomials over the integers; the denominator is
    never zero. A rational constant num is split into integer parts.

    Normal form: num and den are coprime in Z[q, 1/q] with no common integer
    content, den has a positive leading coefficient and min exponent 0, and
    den = 1 when num is zero. reduce=False is for operands already there.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, reduce=True):
        if isinstance(num, Fraction):
            num, den = num.numerator, num.denominator * den
        if not isinstance(num, LaurentQ):
            num = LaurentQ.const(num)
        if not isinstance(den, LaurentQ):
            den = LaurentQ.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if reduce and num.is_zero:
            den = LaurentQ.one()
        elif reduce:
            # the primitive gcd times the integer content and the sign and
            # q-power that normalize den
            g = laurent_gcd(num, den).shift(den.min_exp()) * math.gcd(
                *num._c.values(), *den._c.values())
            if den.coeff(den.max_exp()) < 0:
                g = -g
            if g != 1:
                num, den = num.divide_exact(g), den.divide_exact(g)
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    def _coerce(self, other):
        if isinstance(other, RatQ):
            return other
        if isinstance(other, (int, Fraction, LaurentQ)):
            return RatQ(other, reduce=False)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatQ(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatQ(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatQ(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def eval_fraction(self, q0):
        d = self.den.eval_fraction(q0)
        if d == 0:
            raise ZeroDivisionError("pole at q=%s" % q0)
        return self.num.eval_fraction(q0) / d

    def eval_float(self, q0):
        return float(self.eval_fraction(Fraction(q0)))

    def to_json_obj(self):
        return {"num": self.num.to_json_obj(), "den": self.den.to_json_obj()}

    def __str__(self):
        return "(%s) / (%s)" % (self.num, self.den)

    __repr__ = __str__


# -- radicals ---------------------------------------------------------


def radical_form(factors):
    """sqrt(prod factors) as (r, kept), the value r * sqrt(prod kept): unit
    factors dropped, each pair of equal factors multiplied into r once, the
    rest sorted by key(), so equal products of the same factors print and
    evaluate alike. kept holds the caller's factor objects, not copies."""
    fs = sorted((f for f in factors if f != 1), key=LaurentQ.key)
    r, kept = LaurentQ.one(), []
    while fs:
        f = fs.pop(0)
        if fs and fs[0] == f:
            r = r * fs.pop(0)
        else:
            kept.append(f)
    return r, tuple(kept)


def radical_float(factors, q0):
    """sqrt(prod factors) at q0 > 0: the Laurent part rounded once from its
    exact value, then one square root per unpaired factor."""
    r, kept = radical_form(factors)
    acc = r.eval_float(q0)
    for f in kept:
        acc *= math.sqrt(f.eval_float(q0))
    return acc


# -- q-combinatorics ---------------------------------------------------


@lru_cache(maxsize=None)
def q_integer(n):
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n); [0] = 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    return LaurentQ({n - 1 - 2 * k: 1 for k in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n):
    """[n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = LaurentQ.one()
    for k in range(1, n + 1):
        out = out * q_integer(k)
    return out


@lru_cache(maxsize=None)
def q_binomial(n, k):
    """Gaussian binomial [n]! / ([k]! [n-k]!), computed by exact division."""
    if k < 0 or k > n:
        raise ValueError("q_binomial needs 0 <= k <= n")
    num = LaurentQ.one()
    for j in range(n - k + 1, n + 1):
        num = num * q_integer(j)
    # exact division doubles as a self-test: a nonzero remainder raises
    return num.divide_exact(q_factorial(k))


# Bound of every q-keyed cache: a constant well above the (S, q) pairs one
# session revisits (six spins on a sixteen-point q grid make 96), so that
# sweeping q cannot grow memory without limit.
Q_CACHE_SIZE = 256


class QFactorials:
    """The q-factorials at one point q0 = n/d > 0, exact in the integers.

    [j] = (n^2j - d^2j) / ((n^2 - d^2) (nd)^(j-1)), or j at q0 = 1, and the
    first quotient is exact, so [k]! = N_k / (nd)^(k(k-1)/2) with N_k the
    product of those numerators. The N_k are kept in a table that grows to
    the largest k asked for. A product of q-factorials then costs a few
    integer products, where its expanded polynomial costs one term each.
    """

    __slots__ = ("n", "d", "_nums")

    def __init__(self, q0):
        q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError("evaluation point must be > 0")
        self.n, self.d = q0.numerator, q0.denominator
        self._nums = [1]

    def _table(self, k):
        nums, n, d = self._nums, self.n, self.d
        for j in range(len(nums), k + 1):
            nums.append(nums[-1] * ((n ** (2 * j) - d ** (2 * j))
                                    // (n * n - d * d) if n != d else j))
        return nums

    def ratio(self, top=(), bottom=(), e=0):
        """q0^e prod_{a in top} [a]! / prod_{b in bottom} [b]! as (num, den),
        integers with den > 0, not reduced."""
        nums = self._table(max(top + bottom, default=0))
        num = den = 1
        for a in top:
            num *= nums[a]
        for b in bottom:
            den *= nums[b]
        n, d = self.n, self.d
        # the (nd)^(k(k-1)/2) of every factorial, joined into one power
        k = sum(a * (a - 1) for a in top) - sum(b * (b - 1) for b in bottom)
        if k > 0:
            den *= (n * d) ** (k // 2)
        else:
            num *= (n * d) ** (-k // 2)
        if e > 0:
            return num * n ** e, den * d ** e
        return num * d ** -e, den * n ** -e

    def eval_float(self, top=(), bottom=(), e=0):
        """ratio() rounded once: bit for bit the eval_float of the same
        product as an expanded Laurent polynomial, OverflowError included."""
        num, den = self.ratio(top, bottom, e)
        return num / den


@lru_cache(maxsize=Q_CACHE_SIZE)
def q_factorials(q0):
    """The QFactorials of q0, kept per q; an invalid q0 raises, uncached."""
    return QFactorials(q0)


def parse_q(text):
    """Parse a q value given as 'a/b' or a decimal string into a Fraction."""
    text = str(text).strip()
    q0 = Fraction(text)
    if q0 <= 0:
        raise ValueError("q must be positive")
    return q0


# -- modular zero tests -------------------------------------------------
#
# A Laurent polynomial with integer coefficients whose exponents span at
# most D and whose coefficients are at most H in absolute value is zero
# exactly when it vanishes at D+1 nonzero points of GF(p) for each of a set
# of primes whose product exceeds 2H (Brown 1971, J. ACM 18, 478; von zur
# Gathen and Gerhard, Modern Computer Algebra, ch. 5-6). Callers carry D and
# H through their products from a Batch's spans, so every zero test is a
# proof, not sampling; and a single nonzero residue at any point proves a
# nonzero.

# The 32 largest primes below 2**31. Residues stay below 2**31, so a
# product of two is below 2**62 and adding a residue stays inside int64.
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921)


def primes_for_height(H, what):
    """The shortest nonempty prefix of PRIMES whose product exceeds 2H."""
    for n in range(1, len(PRIMES) + 1):
        if math.prod(PRIMES[:n]) > 2 * H:
            return PRIMES[:n]
    raise ValueError("height bound of %d bits in %s needs more than the %d "
                     "fixed primes" % (H.bit_length(), what, len(PRIMES)))


@lru_cache(maxsize=64)
def _powers(points, e, p):
    """x**e mod p for each point x; the Python pow inverts for e < 0, which
    costs about a microsecond a point, and the callers reuse point sets."""
    return tuple(pow(v, e, p) for v in points)


class Batch:
    """Laurent polynomials flattened once for evaluation over GF(p).

    `lo`, `hi` and `l1` hold each polynomial's min and max exponent (int64)
    and l1 norm (object ints), read-only, so a batch can sit in a cache; the
    zero polynomial gets the range [0, 0], which only widens the ranges it
    enters, and norm 0.
    """

    def __init__(self, polys):
        terms = [f._c for f in polys]
        sizes = np.array([len(c) for c in terms], dtype=np.int64)
        chain = itertools.chain.from_iterable
        coeffs = list(chain(c.values() for c in terms))
        exps = np.fromiter(chain(terms), dtype=np.int64, count=len(coeffs))
        # int64 if all fit: numpy's own inference would take [2**63, 2**64)
        # as uint64, and a batch mixing those with negatives as inexact float64
        fits = not coeffs or (min(coeffs) >= -2 ** 63 and max(coeffs) < 2 ** 63)
        self._coeffs = np.array(coeffs, dtype=np.int64 if fits else object)
        # each term's cell in the coefficient matrix that eval_mod fills
        self._base = int(exps.min()) if exps.size else 0
        self._row = np.repeat(np.arange(len(terms)), sizes)
        self._col = exps - self._base
        self._width = int(self._col.max(initial=-1)) + 1
        self.lo, self.hi = np.zeros((2, len(terms)), dtype=np.int64)
        self.l1 = np.zeros(len(terms), dtype=object)
        live = sizes > 0
        if live.any():
            first = (np.cumsum(sizes) - sizes)[live]
            self.lo[live] = np.minimum.reduceat(exps, first)
            self.hi[live] = np.maximum.reduceat(exps, first)
            self.l1[live] = np.add.reduceat(
                np.abs(self._coeffs.astype(object)), first)
        for a in (self.lo, self.hi, self.l1):
            a.flags.writeable = False

    def eval_mod(self, points, p):
        """Values of the polynomials at points of GF(p), modulo the prime p.

        Returns an int64 array, a row per polynomial and a column per point,
        with entries in [0, p). p must be below 2**31 and no point divisible
        by p, since negative exponents need the inverse. The coefficients,
        reduced mod p, fill a matrix C over the batch's exponent range and
        the points a power table X, so the values are C @ X mod p, computed
        exactly in int64 with X split into 16-bit limbs.
        """
        x = np.asarray(points, dtype=np.int64) % p
        width = self._width
        if not width:
            return np.zeros((len(self.lo), len(x)), dtype=np.int64)
        if width > 2 ** 16:
            raise ValueError("exponent range %d too wide for int64 sums" % width)
        C = np.zeros((len(self.lo), width), dtype=np.int64)
        C[self._row, self._col] = self._coeffs % p
        # the powers x**(base + k) by doubling: rows n..2n-1 are rows
        # 0..n-1 times x**n
        X = np.empty((width, len(x)), dtype=np.int64)
        X[0] = _powers(tuple(x.tolist()), self._base, p)
        step, n = x, 1
        while n < width:
            m = min(n, width - n)
            X[n:n + m] = X[:m] * step % p
            step, n = step * step % p, n + m
        # a residue times a limb is below 2**47, and a row of at most 2**16
        # such products sums below 2**63
        x1, x0 = np.divmod(X, 1 << 16)
        return (C @ x1 % p * (1 << 16) + C @ x0 % p) % p
