"""Exact arithmetic in k = F_q((u)) with tracked precision.

Here q is prime and u is the uniformizer (u = 1/t when k is viewed as the
completion of F_q(t) at infinity), normalized so val(u) = 1.  An element is
stored as

    u^lead * (digits[0] + digits[1]*u + digits[2]*u^2 + ...)  +  (tail)

where the digits live in [0, q) and the tail is an unknown element of
valuation >= known_to.  ``known_to = INF`` means the tail is exactly zero,
i.e. the element *is* the finite digit sum.  Because the residue field has
the same characteristic as k, arithmetic is digitwise with no carries.

Canonical form: digits[0] != 0 and digits[-1] != 0 when digits is nonempty
(leading zeros advance ``lead``, trailing zeros are absorbed into the
implicit zero digits below known_to).  Two special shapes matter:

* exact zero: empty digits, known_to = INF;
* "some element of valuation >= N": empty digits, known_to = N.  This is the
  abstract value used for the symbolic unknowns lambda, mu in pi*m (N = 2),
  and it makes the digit calculus a sound abstract domain: every operation
  result is correct below its own known_to for *every* concretization of the
  unknown tails.

Precision bookkeeping (all enforced here, relied on everywhere else):

* x + y is known mod u^min(kx, ky);
* x * y is known mod u^min(vx + ky, vy + kx) where v is the leading
  valuation (or known_to for an empty-digit unknown);
* inv of a valuation-v element known mod u^N is known mod u^(N - 2v).

Equality (``==``) is *structural* -- same representation, including
known_to.  Mathematical equality of inexact elements is undecidable; use
``equal_mod`` for "agree modulo u^N".

Sums and products share one kernel: digit tuples packed one byte slot per
digit into Python ints (``digits.pack_row``), whose native sum (an XOR at
q = 2) or product is read back mod q; a sum with one-byte slots is read
straight from the bytes, zero slots stripped (``digits.unpack_stripped``).
A product with an exact monomial c u^e is one ``shift``.  Results are
built by the trusted constructor ``_make``, which only puts them in
canonical form; the public constructor validates, then calls it.
"""

from __future__ import annotations

import math
import operator
import re

from .digits import pack_row, row_bytes, unpack_row, unpack_stripped
from .errors import (
    DigitRangeError,
    InsufficientPrecision,
    LaurentSyntaxError,
    ZeroOrUnknownLeadingDigit,
)

INF = float("inf")

# The regions classify() understands: the exponent e of the centre u^e (None
# for centre 0) and the valuation x minus the centre must reach.
REGIONS = {"O": (None, 0), "m": (None, 1), "1+pim": (0, 2), "pi+pim": (1, 2)}


# the largest q a command line or a certificate may name: is_prime's trial
# division takes milliseconds up to it, and minutes at 2^61 - 1
MAX_Q = 2**32


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def check_q(q):
    """``q`` when it is a prime of at most MAX_Q, else a ValueError saying
    which it is not; the size is checked first, so no large q is tested."""
    if q > MAX_Q:
        raise ValueError(f"q must be at most {MAX_Q}: {q} is too large")
    if not is_prime(q):
        raise ValueError(f"q must be prime: {q} is not prime")
    return q


def _digits_mul(a, b, q):
    """Convolution of digit tuples mod q: one Kronecker product, in slots
    wide enough for (q - 1)^2 times the shorter row."""
    la, lb = len(a), len(b)
    if not la or not lb:
        return ()
    nbytes = row_bytes((q - 1) * (q - 1) * min(la, lb))
    return unpack_row(pack_row(a, nbytes) * pack_row(b, nbytes), nbytes, la + lb - 1, q)


def _integer(x, message):
    """``x`` as a Python int; bools, floats and other non-integers refused."""
    try:
        if isinstance(x, bool):
            raise TypeError
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{message}, not {x!r}") from None


class Laurent:
    """An element of F_q((u)) with tracked precision.  Immutable."""

    __slots__ = ("q", "lead", "digits", "known_to")

    def __new__(cls, q, lead, digits, known_to=INF):
        digits = tuple(digits)
        if not _INT.issuperset(map(type, digits)):
            try:
                if any(isinstance(d, bool) for d in digits):
                    raise TypeError
                digits = tuple(map(operator.index, digits))
            except TypeError:
                raise DigitRangeError(f"digits must be integers, not {digits}") from None
        if digits and not (0 <= min(digits) and max(digits) < q):
            bad = next(d for d in digits if not 0 <= d < q)
            raise DigitRangeError(f"digit {bad} out of range for q={q}")
        if type(lead) is not int:
            lead = _integer(lead, "lead must be an integer")
        if known_to is not INF and type(known_to) is not int:
            # any +inf becomes the INF object: exactness is tested by identity
            if known_to == INF:
                known_to = INF
            else:
                known_to = _integer(known_to, "known_to must be an integer or +inf")
        return _make(q, lead, digits, known_to)

    def __setattr__(self, name, value):
        raise AttributeError("Laurent elements are immutable")

    # -- basic predicates ------------------------------------------------

    @property
    def exact(self):
        return self.known_to is INF

    @property
    def is_exact_zero(self):
        return self.exact and not self.digits

    def known_nonzero(self):
        return bool(self.digits)

    def val(self):
        """Valuation: an int, INF for exact zero, None when undecidable.

        Undecidable means empty digits with finite known_to -- only the
        lower bound ``val >= known_to`` is known.
        """
        if self.digits:
            return self.lead
        return INF if self.exact else None

    def val_lower_bound(self):
        """A sound lower bound on the valuation, always available."""
        v = self.val()
        return self.known_to if v is None else v

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def _combine(self, other, c):
        """self + c * other for a residue digit c != 0: one Kronecker sum,
        an XOR at q = 2."""
        if not isinstance(other, Laurent):
            return NotImplemented
        q = self.q
        if q != other.q:
            raise ValueError(f"mixed residue fields F_{q} and F_{other.q}")
        known = self.known_to if self.known_to <= other.known_to else other.known_to
        a, b = self.digits, other.digits
        if not b:
            return self.truncate(known)
        c %= q
        if not a:
            return other.scale(c).truncate(known)
        la, lb = self.lead, other.lead
        lead = la if la < lb else lb
        width = max(la + len(a), lb + len(b)) - lead
        nbytes = row_bytes((q - 1) * (1 + c)) if q > 16 else 1  # else (q - 1) q < 256
        if nbytes > 1:
            pa = pack_row(a, nbytes) << 8 * nbytes * (la - lead)
            pb = pack_row(b, nbytes) * c << 8 * nbytes * (lb - lead)
            return _make(q, lead, unpack_row(pa + pb, nbytes, width, q), known)
        pa = int.from_bytes(bytes(a), "little") << 8 * (la - lead)
        pb = int.from_bytes(bytes(b), "little") << 8 * (lb - lead)
        offset, digits = unpack_stripped(pa ^ pb if q == 2 else pa + c * pb, width, q)
        return _make(q, lead + offset, digits, known)

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        q = self.q
        if q != other.q:
            raise ValueError(f"mixed residue fields F_{q} and F_{other.q}")
        a, b = self.digits, other.digits
        kx, ky = self.known_to, other.known_to
        # exact zero, or an exact monomial: one shift
        if kx is INF and len(a) < 2:
            return other.shift(self.lead, a[0]) if a else self
        if ky is INF and len(b) < 2:
            return self.shift(other.lead, b[0]) if b else other
        if kx is INF and ky is INF:
            known = INF
        else:
            known = min((self.lead if a else kx) + ky, (other.lead if b else ky) + kx)
        return _make(q, self.lead + other.lead, _digits_mul(a, b, q), known)

    def scale(self, c):
        """Multiply by the residue digit c."""
        c %= self.q
        return self.shift(0, c) if c else _make(self.q, 0, ())

    def shift(self, e, c=1):
        """Multiply by the exact monomial c u^e, c a residue digit in [1, q)."""
        digits, known = self.digits, self.known_to
        if (e == 0 and c == 1) or (not digits and known is INF):
            return self
        if c != 1:
            digits = _digits_mul(digits, (c,), self.q)
        return _make(self.q, self.lead + e, digits, known if known is INF else known + e)

    def truncate(self, n):
        """Forget everything from u^n on (known_to becomes min(known_to, n))."""
        if n >= self.known_to:
            return self
        return _make(self.q, self.lead, self.digits, n)

    def is_monomial(self):
        return self.exact and len(self.digits) == 1

    def inv(self, target_precision):
        """Multiplicative inverse, correct modulo u^target_precision.

        An input of valuation v known mod u^N can only support an inverse
        known mod u^(N - 2v); asking for more raises InsufficientPrecision.
        Monomials invert exactly regardless of target.
        """
        if not self.digits:
            raise ZeroOrUnknownLeadingDigit(
                "cannot invert an element with no known nonzero digit"
            )
        q, v = self.q, self.lead
        if self.is_monomial():
            c = pow(self.digits[0], -1, q)
            return _make(q, -v, (c,))
        if not self.exact and target_precision - v > self.known_to - 2 * v:
            # at best the inverse is known mod u^(known_to - 2v)
            raise InsufficientPrecision(
                f"inverse wanted with x*y == 1 mod u^{target_precision}, "
                f"input known mod u^{self.known_to} supports only u^{self.known_to - v}"
            )
        # The result carries known_to = target - v, so that the product's
        # precision rule yields x*y == 1 mod u^target exactly as promised.
        # Newton iteration on the unit part: y <- y*(2 - x*y) doubles the
        # number of correct digits each round (valid in any characteristic).
        rel = max(target_precision, 1)  # correct digits of the unit inverse
        unit = self.digits
        y = (pow(unit[0], -1, q),)
        correct = 1
        while correct < rel:
            correct = min(2 * correct, rel)
            xy = _digits_mul(unit[:correct], y, q)[:correct]
            e = [(-d) % q for d in xy]
            e[0] = (2 + e[0]) % q
            y = _digits_mul(y, e, q)[:correct]
        return _make(q, -v, y, target_precision - v)

    # -- comparisons -----------------------------------------------------

    def equal_mod(self, other, n):
        """Tri-state: do self and other agree modulo u^n?

        True/False when decidable from the known digits, None when either
        side's precision ends before the first potential disagreement.
        """
        d = self - other
        if d.digits and d.lead < n:
            return False
        return True if min(d.known_to, d.lead if d.digits else INF) >= n else None

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return (self.q, self.lead, self.digits, self.known_to) == (
            other.q, other.lead, other.digits, other.known_to
        )

    def __hash__(self):
        return hash((self.q, self.lead, self.digits, self.known_to))

    def __reduce__(self):
        # an exact element leaves known_to out: a pickled inf comes back as
        # a new float, and exactness is tested by identity with INF
        if self.exact:
            return _make, (self.q, self.lead, self.digits)
        return _make, (self.q, self.lead, self.digits, self.known_to)

    # -- access ----------------------------------------------------------

    def digit_at(self, e):
        """Digit of u^e, or None when e is beyond the known range."""
        if e >= self.known_to:
            return None
        i = e - self.lead
        if 0 <= i < len(self.digits):
            return self.digits[i]
        return 0

    def __str__(self):
        return laurent_to_str(self)

    def __repr__(self):
        return f"Laurent({laurent_to_str(self)!r}, q={self.q})"


_INT = frozenset({int})
_new = object.__new__
_set_q = Laurent.q.__set__
_set_lead = Laurent.lead.__set__
_set_digits = Laurent.digits.__set__
_set_known_to = Laurent.known_to.__set__


def _make(q, lead, digits, known_to=INF):
    """The trusted constructor: ``digits`` a tuple of ints in [0, q),
    ``known_to`` INF or an int, put in canonical form and nothing else."""
    if known_to is not INF and lead + len(digits) > known_to:
        digits = digits[: max(0, known_to - lead)]
    if digits and not (digits[0] and digits[-1]):
        lo, hi = 0, len(digits)
        while lo < hi and not digits[lo]:
            lo += 1
        while hi > lo and not digits[hi - 1]:
            hi -= 1
        lead += lo
        digits = digits[lo:hi]
    if not digits:
        lead = 0
    x = _new(Laurent)
    _set_q(x, q)
    _set_lead(x, lead)
    _set_digits(x, digits)
    _set_known_to(x, known_to)
    return x


class Field:
    """Element factory for F_q((u)); holds q."""

    __slots__ = ("q",)

    def __init__(self, q):
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        self.q = q

    def zero(self):
        return Laurent(self.q, 0, ())

    def one(self):
        return Laurent(self.q, 0, (1,))

    def u(self, e=1):
        """The monomial u^e."""
        return Laurent(self.q, e, (1,))

    def monomial(self, c, e=0):
        return Laurent(self.q, e, (c % self.q,))

    def unknown(self, min_val):
        """The abstract 'some element of valuation >= min_val'."""
        return Laurent(self.q, 0, (), min_val)

    def from_int_poly(self, coeffs, lead=0):
        """Element with the given digit list starting at u^lead, exact."""
        return Laurent(self.q, lead, [c % self.q for c in coeffs])

    def parse(self, text):
        return parse_laurent(text, self.q)

    def __eq__(self, other):
        return isinstance(other, Field) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"Field(q={self.q})"


def classify(x, region):
    """Membership of x in one of the regions O, m, 1+pim, pi+pim.

    Definitions (val is the u-valuation):
      O      -- val(x) >= 0
      m      -- val(x) >= 1
      1+pim  -- val(x - 1) >= 2
      pi+pim -- val(x - u) >= 2

    Returns True/False when the known digits decide, None otherwise.  Note
    every region is a coset condition readable from at most the first two
    digits at fixed positions, so exact elements always decide.
    """
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {tuple(REGIONS)}")
    centre, thresh = REGIONS[region]
    d = x if centre is None else x - _make(x.q, centre, (1,))
    if d.digits:
        return d.lead >= thresh
    return True if d.known_to >= thresh else None


# -- text grammar --------------------------------------------------------
#
# element  := "0" | term (" + " term)*     (one optional O-term, canonically last)
# term     := digit | mono | digit "*" mono | "O(" mono-or-1 ")"
# mono     := "u" | "u^" int
#
# Canonical output: increasing exponents, coefficient omitted when 1 (except
# for the constant term), " + O(u^N)" suffix iff inexact.

_TERM_RE = re.compile(r"^(?:(\d+)\*)?u(?:\^(-?\d+))?$")
_COEFF_RE = re.compile(r"^\d+$")
_OTERM_RE = re.compile(r"^O\(\s*(?:1|u(?:\^(-?\d+))?)\s*\)$")


def parse_laurent(text, q):
    """Parse the element grammar; exact round-trip with laurent_to_str."""
    s = text.strip()
    if not s:
        raise LaurentSyntaxError("empty element text", 0)
    if s == "0":
        return Laurent(q, 0, ())
    coeffs = {}
    known_to = INF
    pos = 0
    for chunk in s.split("+"):
        term = chunk.strip()
        at = text.find(term, pos)
        pos = at + len(term) if at >= 0 else pos
        if not term:
            raise LaurentSyntaxError("empty term", at if at >= 0 else 0)
        m = _OTERM_RE.match(term)
        if m:
            if known_to is not INF:
                raise LaurentSyntaxError("more than one O(...) term", at)
            inner = m.group(1)
            if inner is None:
                known_to = 0 if "u" not in term else 1
            else:
                known_to = int(inner)
            continue
        m = _TERM_RE.match(term)
        if m:
            c = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(2)) if m.group(2) else 1
        elif _COEFF_RE.match(term):
            c, e = int(term), 0
        else:
            raise LaurentSyntaxError(f"bad term {term!r}", at)
        if not 0 <= c < q:
            raise DigitRangeError(f"coefficient {c} out of range for q={q}", at)
        if e in coeffs:
            raise LaurentSyntaxError(f"duplicate exponent {e}", at)
        coeffs[e] = c
    if not coeffs:
        return Laurent(q, 0, (), known_to)
    lead = min(coeffs)
    top = max(coeffs)
    digits = [coeffs.get(e, 0) for e in range(lead, top + 1)]
    return Laurent(q, lead, digits, known_to)


def laurent_to_str(x):
    """Canonical text for an element; parse_laurent inverts this exactly."""
    terms = []
    for i, d in enumerate(x.digits):
        if d == 0:
            continue
        e = x.lead + i
        if e == 0:
            terms.append(str(d))
        elif e == 1:
            terms.append("u" if d == 1 else f"{d}*u")
        else:
            terms.append(f"u^{e}" if d == 1 else f"{d}*u^{e}")
    if not x.exact:
        n = x.known_to
        terms.append(f"O(u^{n})" if n != 1 else "O(u)")
    if not terms:
        return "0"
    return " + ".join(terms)
