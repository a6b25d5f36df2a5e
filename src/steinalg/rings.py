"""Exact coefficient rings: integers, rationals, and integers mod n.

Ring values are plain Python objects (int or Fraction) with decidable
equality.  A ring provides ``normal``, the normalized value of an int or
Fraction (``int`` over z, ``x % n`` over zmod:n, ``Fraction`` over q); each
ring operation is the plain Python operation followed by ``normal``.  It
also provides ``modulus`` (n over zmod:n, 0 otherwise) and ``sample``, the
seeded draw that random elements are built from.  The test suite checks the
commutative-ring axioms of each shipped ring on sampled triples.

Products and the canonical form in ``steinberg`` run on Python ints, summed
and multiplied plainly and reduced mod ``modulus`` when that is nonzero.
Values are their own ints over 1, except where they have denominators: q
overrides ``as_ints(terms)``, which writes (key, value) terms as (key, int)
terms over one positive denominator D (the numerators over the lcm), and
``lift(k, D)``, the value k over D.  There lift(a * b, D * E) equals
lift(a, D) * lift(b, E), sums take the lcm of two D's, and the canonical
form divides out gcd(D, *ints).
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .errors import InputError


def int_text(n: int) -> str:
    """The decimal text of an int of any size: str() refuses ints past
    CPython's process-wide int/str digit limit (4,300 digits by default),
    and Decimal converts exactly with no limit, leaving the limit as it is."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def int_of_text(text: str) -> int:
    """The int that text spells, as int() reads it; a run of decimal
    digits may be of any length (see ``int_text``)."""
    try:
        return int(text)
    except ValueError:
        if not text.isdecimal():
            raise
        return int(Decimal(text))


class CoefficientRing:
    name = "ring"
    modulus = 0

    def normal(self, x):
        raise NotImplementedError

    def zero(self):
        return self.normal(0)

    def one(self):
        return self.normal(1)

    def add(self, a, b):
        return self.normal(a + b)

    def negate(self, a):
        return self.normal(-a)

    def mul(self, a, b):
        return self.normal(a * b)

    def from_int(self, k):
        return self.normal(k)

    def as_ints(self, terms):
        return terms, 1

    def lift(self, k, den):
        return k

    def coerce(self, a):
        """a as a normalized value of this ring; InputError when a is not
        one.  Integers and integral Fractions are accepted by every ring."""
        if isinstance(a, Fraction) and a.denominator == 1:
            a = a.numerator
        if not isinstance(a, int):
            raise InputError("coefficient %r is not in the ring %s" % (a, self.name))
        return self.from_int(a)

    def sample(self, rng):
        raise NotImplementedError

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        # A normalized value is an int or a Fraction: zero exactly when == 0.
        return self.eq(a, 0)

    def sample_nonzero(self, rng):
        while True:
            a = self.sample(rng)
            if not self.is_zero(a):
                return a

    def render(self, a):
        return int_text(a)

    def __eq__(self, other):
        return isinstance(other, CoefficientRing) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class IntegerRing(CoefficientRing):
    name = "z"
    normal = staticmethod(int)

    def sample(self, rng):
        return rng.randint(-5, 5)


class RationalRing(CoefficientRing):
    name = "q"
    normal = staticmethod(Fraction)

    def as_ints(self, terms):
        ratios = [(k, v.as_integer_ratio()) for k, v in terms]
        den = math.lcm(*[d for _, (_, d) in ratios])
        return [(k, n * (den // d)) for k, (n, d) in ratios], den

    def lift(self, k, den):
        # Fraction(k) skips the gcd that Fraction(k, 1) would take.
        return Fraction(k, den) if den != 1 else Fraction(k)

    def coerce(self, a):
        if not isinstance(a, (int, Fraction)):
            raise InputError("coefficient %r is not in the ring %s" % (a, self.name))
        return Fraction(a)

    def sample(self, rng):
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def render(self, a):
        text = int_text(a.numerator)
        return text if a.denominator == 1 else text + "/" + int_text(a.denominator)


class IntegersMod(CoefficientRing):
    """The ring of integers modulo n, values stored as residues 0..n-1."""

    def __init__(self, n):
        # The int kernel reduces plain int sums with %, so n is an int.
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError("modulus %r is not an integer" % (n,))
        if n < 2:
            raise InputError("modulus must be >= 2")
        self.modulus = n
        self.name = "zmod:" + int_text(n)

    def normal(self, x):
        return x % self.modulus

    def sample(self, rng):
        return rng.randrange(self.modulus)


def ring_from_spec(spec: str) -> CoefficientRing:
    """Build a ring from 'z', 'q', or 'zmod:N'."""
    if spec == "z":
        return IntegerRing()
    if spec == "q":
        return RationalRing()
    if spec.startswith("zmod:"):
        try:
            n = int_of_text(spec.split(":", 1)[1])
        except ValueError:
            raise InputError("bad modulus in %r" % (spec,)) from None
        return IntegersMod(n)
    raise InputError("unknown ring spec %r (want z, q, or zmod:N)" % (spec,))
