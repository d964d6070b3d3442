"""Difference-operator realization of the deformed su(2) on site polynomials.

Each site l carries two commuting variables x_l, y_l; a spin-S site state is
a degree-2S homogeneous polynomial in them. Every single-site operator maps
one monomial to a multiple of one monomial, which keeps everything exact: the
divided differences collapse to q-integer prefactors, so no rational-function
arithmetic is ever needed here. The two-site coproduct composes those maps.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .qnum import LaurentQ, q_factorial, q_factorials, q_integer, radical_float

XPLUS = "X+"
XMINUS = "X-"
QH = "qH"
QH_INV = "qH_inv"
HGEN = "H"


class SitePoly:
    """Multivariate polynomial in per-site variables with LaurentQ coefficients.

    Terms map a monomial key to its coefficient; a key is a sorted tuple of
    (site, x_degree, y_degree) with all-zero sites omitted, so the constant
    monomial has the empty key.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _nonzero_coeffs(terms, _norm_key)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): LaurentQ.one()})

    @classmethod
    def monomial(cls, exponents, coeff=1):
        """exponents: {site: (x_degree, y_degree)}."""
        key = tuple(sorted((s, dx, dy) for s, (dx, dy) in exponents.items()))
        return cls({key: coeff})

    @classmethod
    def var(cls, site, name, power=1):
        if name == "x":
            return cls.monomial({site: (power, 0)})
        if name == "y":
            return cls.monomial({site: (0, power)})
        raise ValueError("variable name must be 'x' or 'y'")

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, SitePoly):
            return NotImplemented
        t = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(t, k, v)
        return _wrap(t)

    def __neg__(self):
        return _wrap({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SitePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, LaurentQ)):
            return self.scale(other)
        if not isinstance(other, SitePoly):
            return NotImplemented
        t = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = _merge_keys(ka, kb)
                v = va * vb
                _accumulate(t, k, v)
        return _wrap(t)

    __rmul__ = __mul__

    def scale(self, c):
        if not isinstance(c, LaurentQ):
            c = LaurentQ.const(c)
        if c.is_zero:
            return SitePoly.zero()
        return _wrap({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, SitePoly):
            return NotImplemented
        return self.terms == other.terms

    def exponents_at(self, key, site):
        for s, dx, dy in key:
            if s == site:
                return dx, dy
        return 0, 0

    def proportional_to(self, other):
        """True when self = c * other for a single nonzero scalar c."""
        return _proportional(self.terms, other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            mono = "*".join(
                "%s%s" % (n, s) + ("^%d" % d if d > 1 else "")
                for s, dx, dy in k
                for n, d in (("x", dx), ("y", dy))
                if d
            )
            parts.append("(%s)%s" % (self.terms[k], "*" + mono if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


def _wrap(terms):
    """A SitePoly around terms already in normal form."""
    out = SitePoly.__new__(SitePoly)
    out.terms = terms
    return out


def _nonzero_coeffs(coeffs, key):
    """{key(k): v} over the items k: v of the mapping coeffs, or of none
    for None, whose value is nonzero; an int v is read as a constant."""
    out = {}
    for k, v in (coeffs or {}).items():
        if not isinstance(v, LaurentQ):
            v = LaurentQ.const(v)
        if not v.is_zero:
            out[key(k)] = v
    return out


def _accumulate(terms, k, v):
    """terms[k] += v, dropping k when the sum vanishes."""
    s = terms.get(k)
    s = v if s is None else s + v
    if s.is_zero:
        terms.pop(k, None)
    else:
        terms[k] = s


def _proportional(a, b):
    """True when the coefficient dicts a and b (no zero values stored) hold
    c times each other's values for one nonzero scalar c: the same keys, and
    every cross product a_k b_r equal to b_k a_r at one reference key r."""
    if a.keys() != b.keys():
        return False
    if not a:
        return True
    # every cross product multiplies by the reference pair, so it sits at
    # the smallest key: a chain state's amplitude there is one term, while
    # the all-zero key, often first, holds the longest amplitude
    ref = min(a)
    a0, b0 = a[ref], b[ref]
    return all(v * b0 == b[k] * a0 for k, v in a.items())


def _norm_key(k):
    return tuple(sorted((s, dx, dy) for s, dx, dy in k if dx or dy))


def _merge_keys(ka, kb):
    acc = {}
    for s, dx, dy in ka:
        acc[s] = (dx, dy)
    for s, dx, dy in kb:
        px, py = acc.get(s, (0, 0))
        acc[s] = (px + dx, py + dy)
    return tuple(sorted((s, dx, dy) for s, (dx, dy) in acc.items() if dx or dy))


def _key_replace(key, site, dx, dy):
    rest = [(s, a, b) for s, a, b in key if s != site]
    if dx or dy:
        rest.append((site, dx, dy))
    return tuple(sorted(rest))


def _apply(p, op, site):
    """Act with one single-site monomial map at `site`, term by term."""
    out = {}
    for key, coeff in p.terms.items():
        dx, dy = p.exponents_at(key, site)
        image = op(dx, dy)
        if image is None:
            continue
        nx, ny, c = image
        nk = key if (nx, ny) == (dx, dy) else _key_replace(key, site, nx, ny)
        _accumulate(out, nk, coeff * c)
    return _wrap(out)


# A single-site operator maps the monomial x^dx y^dy to c x^dx' y^dy', given
# as (dx', dy', c), or to None when it annihilates the monomial.
_GENERATOR_MAPS = {
    XPLUS: lambda dx, dy: (dx + 1, dy - 1, q_integer(dy)) if dy else None,
    XMINUS: lambda dx, dy: (dx - 1, dy + 1, q_integer(dx)) if dx else None,
    QH: lambda dx, dy: (dx, dy, LaurentQ.q_power(dx - dy)),
    QH_INV: lambda dx, dy: (dx, dy, LaurentQ.q_power(dy - dx)),
}

_BOSON_MAPS = {
    "a": lambda dx, dy: (dx - 1, dy, q_integer(dx)) if dx else None,
    "b": lambda dx, dy: (dx, dy - 1, q_integer(dy)) if dy else None,
    "adag": lambda dx, dy: (dx + 1, dy, 1),
    "bdag": lambda dx, dy: (dx, dy + 1, 1),
    "Na": lambda dx, dy: (dx, dy, dx) if dx else None,
    "Nb": lambda dx, dy: (dx, dy, dy) if dy else None,
}


def _half_power(w):
    """q^(w/2) for an even weight w; odd weights belong to half-integer spin."""
    if w % 2:
        raise ValueError("half-integer weight; integer spin only")
    return LaurentQ.q_power(w // 2)


# the other single-site pieces of the coproduct: H and the twists q^(+-H/2)
_WEIGHT = lambda dx, dy: (dx, dy, dx - dy) if dx != dy else None
_HALF_UP = lambda dx, dy: (dx, dy, _half_power(dx - dy))
_HALF_DOWN = lambda dx, dy: (dx, dy, _half_power(dy - dx))


def apply_generator(p, gen, site):
    """Act with one generator at one site, exactly, monomial by monomial."""
    if gen not in _GENERATOR_MAPS:
        raise ValueError("unknown generator %r" % (gen,))
    return _apply(p, _GENERATOR_MAPS[gen], site)


def apply_boson(p, op, site):
    """q-boson action: 'a', 'b' annihilate, 'adag', 'bdag' create, 'Na', 'Nb' count."""
    if op not in _BOSON_MAPS:
        raise ValueError("unknown boson op %r" % (op,))
    return _apply(p, _BOSON_MAPS[op], site)


def coproduct_apply(p, gen, sites):
    """Two-site action of a generator through the comultiplication.

    Over the ordered site pair, raising/lowering split as
    X (X) q^(H/2) + q^(-H/2) (X) X, H as H (X) 1 + 1 (X) H, and q^(+-H) as
    q^(+-H) (X) q^(+-H).
    """
    k, l = sites
    if gen in (XPLUS, XMINUS):
        x = _GENERATOR_MAPS[gen]
        return (_apply(_apply(p, x, k), _HALF_UP, l)
                + _apply(_apply(p, _HALF_DOWN, k), x, l))
    if gen == HGEN:
        return _apply(p, _WEIGHT, k) + _apply(p, _WEIGHT, l)
    if gen in (QH, QH_INV):
        qh = _GENERATOR_MAPS[gen]
        return _apply(_apply(p, qh, k), qh, l)
    raise ValueError("unknown generator %r" % (gen,))


def weight_radicand(S, m):
    """Radicand of the spin-basis normalization for one site: [S+m]! [S-m]!."""
    return q_factorial(S + m) * q_factorial(S - m)


def site_roots(S, q0):
    """sqrt([S+m]! [S-m]!) at q0 for m = -S..S, each root of the radicand
    rounded once from its q-factorials: the spin-basis normalization."""
    table = q_factorials(q0)
    return np.array([math.sqrt(table.eval_float((S + m, S - m)))
                     for m in range(-S, S + 1)])


class StateVector:
    """Chain state over the product spin basis, stored exactly.

    Amplitudes are kept in the monomial gauge: the physical amplitude of
    |S,m_1> ... |S,m_L> is  amps[m] * sqrt(prefactor * prod_l [S+m_l]![S-m_l]!)
    with `prefactor` a tuple of positive Laurent factors (empty for 1). That
    square root is fixed by the basis state, so the stored coefficients stay
    plain Laurent polynomials and zero tests stay exact.
    """

    __slots__ = ("S", "L", "amps", "prefactor", "_layout")

    def __init__(self, S, L, amps=None, prefactor=()):
        self.S = S
        self.L = L
        self.amps = _nonzero_coeffs(amps, tuple)
        self.prefactor = tuple(prefactor)
        self._layout = None

    @property
    def is_zero(self):
        return not self.amps

    def weights(self):
        return sorted({sum(k) for k in self.amps})

    def layout(self):
        """The q-free array form of amps, computed on first use and kept, as
        amps is immutable by convention: the distinct amplitudes in order of
        first appearance and, per key of amps in its order, the index of its
        amplitude and the row of its sites' digits S - m, as read-only intp
        arrays. A key that is not L integers in -S..S raises ValueError: it
        would read as another key's digits, or off the digits 0..2S."""
        if self._layout is None:
            S, L = self.S, self.L
            allowed = set(range(-S, S + 1))
            if not (set(map(len, self.amps)) <= {L} and allowed.issuperset(
                    itertools.chain.from_iterable(self.amps))):
                bad = next(k for k in self.amps
                           if len(k) != L or not allowed.issuperset(k))
                raise ValueError("amplitude key %r is not %d integers in "
                                 "-%d..%d" % (bad, L, S, S))
            # keyed by key(), whose tuples compare without a Python __eq__
            first = {}  # key -> (index, first amplitude with that key)
            which = np.array([first.setdefault(a.key(), (len(first), a))[0]
                              for a in self.amps.values()], dtype=np.intp)
            digits = S - np.fromiter(
                itertools.chain.from_iterable(self.amps), dtype=np.intp,
                count=len(self.amps) * L).reshape(-1, L)
            which.flags.writeable = digits.flags.writeable = False
            self._layout = tuple(a for _, a in first.values()), which, digits
        return self._layout

    def float_values(self, q0):
        """Physical amplitudes as a float array in the order of amps, from
        one table of per-site roots and one evaluation per distinct
        amplitude of the layout. Each is the exact amplitude rounded once,
        times the prefactor, times its sites' roots in site order. The
        first key, in that order, whose amplitude does not evaluate or is
        not finite raises: OverflowError, or ValueError naming the key."""
        distinct, which, digits = self.layout()
        q0 = Fraction(q0)
        pref = radical_float(self.prefactor, q0)
        root = site_roots(self.S, q0)[::-1]  # indexed by the digit S - m
        values = np.empty(len(distinct))
        failed = {}  # index of an amplitude that does not evaluate -> error
        for i, a in enumerate(distinct):
            try:
                values[i] = a.eval_float(q0)
            except ArithmeticError as exc:
                values[i], failed[i] = np.nan, exc
        with np.errstate(over="ignore", invalid="ignore"):
            out = values[which] * pref
            for col in digits.T:
                out *= root[col]
        bad = ~np.isfinite(out)
        if bad.any():
            first = int(bad.argmax())
            if int(which[first]) in failed:
                raise failed[int(which[first])]
            k = next(itertools.islice(self.amps, first, None))
            raise ValueError("amplitude of %s is not finite at q=%s" % (k, q0))
        return out

    def to_dense(self, q0):
        """Physical amplitudes as a float vector, product-basis ordering:
        the digits S - m of the sites, site 1 the leading one."""
        d = 2 * self.S + 1
        vec = np.zeros(d ** self.L)
        vec[np.ravel_multi_index(self.layout()[2].T, (d,) * self.L)] = (
            self.float_values(q0))
        return vec

    def translated(self):
        """Shift every site by one (site 1 -> site 2, ..., site L -> site 1)."""
        return StateVector(
            self.S, self.L,
            {(k[-1],) + k[:-1]: v for k, v in self.amps.items()},
            self.prefactor,
        )

    def proportional_to(self, other):
        """Exact proportionality of physical amplitudes, via cross products.

        The prefactors are global constants, so componentwise proportionality
        of the monomial-gauge amplitudes is the whole statement.
        """
        return ((self.S, self.L) == (other.S, other.L)
                and _proportional(self.amps, other.amps))


def poly_to_spin(p, S, sites):
    """Read a homogeneous site polynomial as a state over the spin basis.

    The monomial x^(S+m) y^(S-m) carries the basis vector |S,m> times
    sqrt([S+m]! [S-m]!); that bookkeeping lives in StateVector, so only the
    monomial coefficients are extracted here.
    """
    sites = list(sites)
    amps = {}
    for key, coeff in p.terms.items():
        involved = {s for s, _, _ in key}
        if not involved.issubset(set(sites)):
            raise ValueError("polynomial involves sites outside %s" % (sites,))
        mvec = []
        for s in sites:
            dx, dy = p.exponents_at(key, s)
            if dx + dy != 2 * S:
                raise ValueError("monomial not homogeneous of degree %d at site %d" % (2 * S, s))
            mvec.append(dx - S)
        amps[tuple(mvec)] = coeff
    return StateVector(S, len(sites), amps)


def bond_factor(m, site_a, site_b):
    """The elementary bond polynomial q^m x_a y_b - q^-m y_a x_b."""
    t1 = SitePoly.monomial({site_a: (1, 0), site_b: (0, 1)}, LaurentQ.q_power(m))
    t2 = SitePoly.monomial({site_a: (0, 1), site_b: (1, 0)}, LaurentQ.q_power(-m))
    return t1 - t2
