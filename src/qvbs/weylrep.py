"""Difference-operator realization of the deformed su(2) on site polynomials.

Each site l carries two commuting variables x_l, y_l; a spin-S site state is
a degree-2S homogeneous polynomial in them. Raising/lowering act monomial by
monomial, which keeps everything exact: the divided differences collapse to
q-integer prefactors, so no rational-function arithmetic is ever needed here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .qnum import LaurentQ, RadScalar, q_factorial, q_integer

XPLUS = "X+"
XMINUS = "X-"
QH = "qH"
QH_INV = "qH_inv"
HGEN = "H"

_GENERATORS = {XPLUS, XMINUS, QH, QH_INV}


class SitePoly:
    """Multivariate polynomial in per-site variables with LaurentQ coefficients.

    Terms map a monomial key to its coefficient; a key is a sorted tuple of
    (site, x_degree, y_degree) with all-zero sites omitted, so the constant
    monomial has the empty key.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if not isinstance(v, LaurentQ):
                    v = LaurentQ.const(v)
                if not v.is_zero:
                    self.terms[_norm_key(k)] = v

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

    def sites(self):
        out = set()
        for k in self.terms:
            out.update(s for s, _, _ in k)
        return sorted(out)

    def __add__(self, other):
        if not isinstance(other, SitePoly):
            return NotImplemented
        t = dict(self.terms)
        for k, v in other.terms.items():
            s = t.get(k)
            s = v if s is None else s + v
            if s.is_zero:
                t.pop(k, None)
            else:
                t[k] = s
        out = SitePoly.__new__(SitePoly)
        out.terms = t
        return out

    def __neg__(self):
        out = SitePoly.__new__(SitePoly)
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

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
                s = t.get(k)
                s = v if s is None else s + v
                if s.is_zero:
                    t.pop(k, None)
                else:
                    t[k] = s
        out = SitePoly.__new__(SitePoly)
        out.terms = t
        return out

    __rmul__ = __mul__

    def scale(self, c):
        if not isinstance(c, LaurentQ):
            c = LaurentQ.const(c)
        if c.is_zero:
            return SitePoly.zero()
        out = SitePoly.__new__(SitePoly)
        out.terms = {k: v * c for k, v in self.terms.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, SitePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("SitePoly is not hashable")

    def exponents_at(self, key, site):
        for s, dx, dy in key:
            if s == site:
                return dx, dy
        return 0, 0

    def proportional_to(self, other):
        """True when self = c * other for a single nonzero scalar c."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if set(self.terms) != set(other.terms):
            return False
        ref = next(iter(self.terms))
        a0, b0 = self.terms[ref], other.terms[ref]
        for k, a in self.terms.items():
            if a * b0 != other.terms[k] * a0:
                return False
        return True

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


def apply_generator(p, gen, site):
    """Act with one generator at one site, exactly, monomial by monomial."""
    if gen not in _GENERATORS:
        raise ValueError("unknown generator %r" % (gen,))
    out = {}
    for key, coeff in p.terms.items():
        dx, dy = p.exponents_at(key, site)
        if gen == XPLUS:
            if dy == 0:
                continue
            nk = _key_replace(key, site, dx + 1, dy - 1)
            nv = coeff * q_integer(dy)
        elif gen == XMINUS:
            if dx == 0:
                continue
            nk = _key_replace(key, site, dx - 1, dy + 1)
            nv = coeff * q_integer(dx)
        elif gen == QH:
            nk, nv = key, coeff.shift(dx - dy)
        else:  # QH_INV
            nk, nv = key, coeff.shift(dy - dx)
        s = out.get(nk)
        s = nv if s is None else s + nv
        if s.is_zero:
            out.pop(nk, None)
        else:
            out[nk] = s
    res = SitePoly.__new__(SitePoly)
    res.terms = out
    return res


def apply_boson(p, op, site):
    """q-boson action: 'a', 'b' annihilate, 'adag', 'bdag' create, 'Na', 'Nb' count."""
    out = {}
    for key, coeff in p.terms.items():
        dx, dy = p.exponents_at(key, site)
        if op == "a":
            if dx == 0:
                continue
            nk, nv = _key_replace(key, site, dx - 1, dy), coeff * q_integer(dx)
        elif op == "b":
            if dy == 0:
                continue
            nk, nv = _key_replace(key, site, dx, dy - 1), coeff * q_integer(dy)
        elif op == "adag":
            nk, nv = _key_replace(key, site, dx + 1, dy), coeff
        elif op == "bdag":
            nk, nv = _key_replace(key, site, dx, dy + 1), coeff
        elif op == "Na":
            if dx == 0:
                continue
            nk, nv = key, coeff * dx
        elif op == "Nb":
            if dy == 0:
                continue
            nk, nv = key, coeff * dy
        else:
            raise ValueError("unknown boson op %r" % (op,))
        s = out.get(nk)
        s = nv if s is None else s + nv
        if s.is_zero:
            out.pop(nk, None)
        else:
            out[nk] = s
    res = SitePoly.__new__(SitePoly)
    res.terms = out
    return res


def _half_weight_power(p, site, sign):
    """Multiply each monomial by q^(sign * weight/2) at the given site."""
    out = {}
    for key, coeff in p.terms.items():
        dx, dy = p.exponents_at(key, site)
        w = dx - dy
        if w % 2:
            raise ValueError("half-integer weight at site %d; integer spin only" % site)
        nv = coeff * LaurentQ.q_power(sign * (w // 2))
        out[key] = out.get(key, LaurentQ.zero()) + nv
    res = SitePoly.__new__(SitePoly)
    res.terms = {k: v for k, v in out.items() if not v.is_zero}
    return res


def coproduct_apply(p, gen, sites):
    """Two-site action of a generator through the comultiplication.

    Raising/lowering split as X (X) q^(H/2) + q^(-H/2) (X) X over the ordered
    site pair; H acts additively and qH multiplicatively.
    """
    k, l = sites
    if gen in (XPLUS, XMINUS):
        t1 = _half_weight_power(apply_generator(p, gen, k), l, +1)
        t2 = apply_generator(_half_weight_power(p, k, -1), gen, l)
        return t1 + t2
    if gen == HGEN:
        out = SitePoly.zero()
        for key, coeff in p.terms.items():
            dxk, dyk = p.exponents_at(key, k)
            dxl, dyl = p.exponents_at(key, l)
            w = (dxk - dyk) + (dxl - dyl)
            if w:
                out = out + SitePoly({key: coeff * w})
        return out
    if gen in (QH, QH_INV):
        sign = 1 if gen == QH else -1
        out = {}
        for key, coeff in p.terms.items():
            dxk, dyk = p.exponents_at(key, k)
            dxl, dyl = p.exponents_at(key, l)
            w = (dxk - dyk) + (dxl - dyl)
            out[key] = coeff * LaurentQ.q_power(sign * w)
        res = SitePoly.__new__(SitePoly)
        res.terms = out
        return res
    raise ValueError("unknown generator %r" % (gen,))


def weight_radicand(S, m):
    """Radicand of the spin-basis normalization for one site: [S+m]! [S-m]!."""
    return q_factorial(S + m) * q_factorial(S - m)


class StateVector:
    """Chain state over the product spin basis, stored exactly.

    Amplitudes are kept in the monomial gauge: the physical amplitude of
    |S,m_1> ... |S,m_L> is  prefactor * amps[m] * sqrt(prod_l [S+m_l]![S-m_l]!).
    That square root is fixed by the basis state, so the stored coefficients
    stay plain Laurent polynomials and zero tests stay exact.
    """

    __slots__ = ("S", "L", "amps", "prefactor")

    def __init__(self, S, L, amps=None, prefactor=None):
        self.S = S
        self.L = L
        self.amps = {}
        if amps:
            for k, v in amps.items():
                if not isinstance(v, LaurentQ):
                    v = LaurentQ.const(v)
                if not v.is_zero:
                    self.amps[tuple(k)] = v
        self.prefactor = prefactor if prefactor is not None else RadScalar.one()

    @property
    def is_zero(self):
        return not self.amps

    def weights(self):
        return sorted({sum(k) for k in self.amps})

    def spin_amplitude(self, mvec):
        a = self.amps.get(tuple(mvec))
        if a is None:
            return RadScalar(LaurentQ.zero())
        rad = [weight_radicand(self.S, m) for m in mvec]
        return self.prefactor * RadScalar(a, rad)

    def basis_index(self, mvec):
        d = 2 * self.S + 1
        idx = 0
        for m in mvec:
            idx = idx * d + (self.S - m)
        return idx

    def float_amplitudes(self, q0):
        """Physical amplitudes as floats keyed by basis state, from one table
        of per-site roots; a non-finite value raises ValueError."""
        q0 = Fraction(q0)
        pref = self.prefactor.eval_float(q0)
        root = {m: float(weight_radicand(self.S, m).eval_fraction(q0)) ** 0.5
                for m in range(-self.S, self.S + 1)}
        out = {}
        for k, a in self.amps.items():
            val = float(a.eval_fraction(q0)) * pref
            for m in k:
                val *= root[m]
            if not math.isfinite(val):
                raise ValueError("amplitude of %s is not finite at q=%s" % (k, q0))
            out[k] = val
        return out

    def to_dense(self, q0):
        """Physical amplitudes as a float vector, product-basis ordering."""
        vec = np.zeros((2 * self.S + 1) ** self.L)
        for k, val in self.float_amplitudes(q0).items():
            vec[self.basis_index(k)] = val
        return vec

    def norm_squared(self):
        """Exact <psi|psi>: the radicals collapse pairwise."""
        acc = LaurentQ.zero()
        for k, a in self.amps.items():
            term = a * a
            for m in k:
                term = term * weight_radicand(self.S, m)
            acc = acc + term
        return self.prefactor.square() * acc

    def translated(self):
        """Shift every site by one (site 1 -> site 2, ..., site L -> site 1)."""
        return StateVector(
            self.S, self.L,
            {(k[-1],) + k[:-1]: v for k, v in self.amps.items()},
            self.prefactor,
        )

    def scaled(self, c):
        return StateVector(self.S, self.L,
                           {k: v * c for k, v in self.amps.items()},
                           self.prefactor)

    def add(self, other):
        if (self.S, self.L) != (other.S, other.L):
            raise ValueError("shape mismatch")
        if not self.prefactor.value_eq(other.prefactor):
            raise ValueError("cannot add states with different prefactors")
        out = dict(self.amps)
        for k, v in other.amps.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
        return StateVector(self.S, self.L, out, self.prefactor)

    def proportional_to(self, other):
        """Exact proportionality of physical amplitudes, via cross products.

        The prefactors are global constants, so componentwise proportionality
        of the monomial-gauge amplitudes is the whole statement.
        """
        if (self.S, self.L) != (other.S, other.L):
            return False
        if set(self.amps) != set(other.amps):
            return False
        if self.is_zero:
            return True
        ref = min(self.amps)
        a0, b0 = self.amps[ref], other.amps[ref]
        for k, a in self.amps.items():
            if a * b0 != other.amps[k] * a0:
                return False
        return True

    def ratio_to(self, other):
        """The scalar c with self = c * other, as a physical-amplitude pair."""
        if not self.proportional_to(other):
            raise ValueError("states are not proportional")
        ref = min(self.amps)
        return self.spin_amplitude(ref), other.spin_amplitude(ref)


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
