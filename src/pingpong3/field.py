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
"""

from __future__ import annotations

import re

from .errors import (
    DigitRangeError,
    InsufficientPrecision,
    LaurentSyntaxError,
    ZeroOrUnknownLeadingDigit,
)

INF = float("inf")

# Region names understood by classify().
REGIONS = ("O", "m", "1+pim", "pi+pim")

# Below this many digits schoolbook convolution beats Kronecker packing.
_KRONECKER_CUTOFF = 32


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits_mul(a, b, q):
    """Convolution of digit tuples mod q.

    For long inputs this packs each sequence into one big integer with
    enough headroom per slot that native int multiplication performs the
    convolution (Kronecker substitution), then unpacks mod q.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return ()
    if min(la, lb) < _KRONECKER_CUTOFF:
        out = [0] * (la + lb - 1)
        if la > lb:
            a, b, la, lb = b, a, lb, la
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return tuple(c % q for c in out)
    bits = (min(la, lb) * (q - 1) * (q - 1)).bit_length()
    pa = 0
    for d in reversed(a):
        pa = (pa << bits) | d
    pb = 0
    for d in reversed(b):
        pb = (pb << bits) | d
    prod = pa * pb
    mask = (1 << bits) - 1
    out = []
    for _ in range(la + lb - 1):
        out.append((prod & mask) % q)
        prod >>= bits
    return tuple(out)


def _digits_add(a, b, q):
    """Pointwise sum of equal-offset digit lists (no carries)."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, d in enumerate(b):
        out[i] = (out[i] + d) % q
    return out


class Laurent:
    """An element of F_q((u)) with tracked precision.  Immutable."""

    __slots__ = ("q", "lead", "digits", "known_to")

    def __init__(self, q, lead, digits, known_to=INF):
        digits = list(digits)
        if known_to is not INF:
            if known_to == INF:
                # any +inf becomes the INF object: exactness is tested by identity
                known_to = INF
            elif known_to != known_to or known_to == -INF:
                raise ValueError(f"known_to must be an integer or +inf, not {known_to}")
            else:
                known_to = int(known_to)
                # Digits at or above known_to carry no information.
                if lead + len(digits) > known_to:
                    digits = digits[: max(0, known_to - lead)]
        while digits and digits[0] == 0:
            digits.pop(0)
            lead += 1
        while digits and digits[-1] == 0:
            digits.pop()
        for d in digits:
            if not 0 <= d < q:
                raise ValueError(f"digit {d} out of range for q={q}")
        if not digits:
            lead = 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "digits", tuple(digits))
        object.__setattr__(self, "known_to", known_to)

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

    def _check_q(self, other):
        if self.q != other.q:
            raise ValueError(f"mixed residue fields F_{self.q} and F_{other.q}")

    def __add__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        self._check_q(other)
        known = min(self.known_to, other.known_to)
        if not self.digits and not other.digits:
            return Laurent(self.q, 0, (), known)
        if not self.digits:
            return Laurent(other.q, other.lead, other.digits, known)
        if not other.digits:
            return Laurent(self.q, self.lead, self.digits, known)
        lead = min(self.lead, other.lead)
        a = [0] * (self.lead - lead) + list(self.digits)
        b = [0] * (other.lead - lead) + list(other.digits)
        return Laurent(self.q, lead, _digits_add(a, b, self.q), known)

    def __neg__(self):
        q = self.q
        return Laurent(q, self.lead, tuple((q - d) % q for d in self.digits), self.known_to)

    def __sub__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        self._check_q(other)
        if self.is_exact_zero or other.is_exact_zero:
            return Laurent(self.q, 0, ())
        if self.exact and other.exact:
            known = INF
        else:
            ex = self.lead if self.digits else self.known_to
            ey = other.lead if other.digits else other.known_to
            known = min(ex + other.known_to, ey + self.known_to)
        digits = _digits_mul(self.digits, other.digits, self.q)
        return Laurent(self.q, self.lead + other.lead, digits, known)

    def scale(self, c):
        """Multiply by the residue digit c."""
        c = c % self.q
        if c == 0:
            return Laurent(self.q, 0, ())
        return Laurent(
            self.q, self.lead, tuple((c * d) % self.q for d in self.digits), self.known_to
        )

    def shift(self, e):
        """Multiply by the exact monomial u^e."""
        if not self.digits and self.exact:
            return self
        return Laurent(
            self.q,
            self.lead + e,
            self.digits,
            self.known_to if self.exact else self.known_to + e,
        )

    def truncate(self, n):
        """Forget everything from u^n on (known_to becomes min(known_to, n))."""
        if n >= self.known_to:
            return self
        return Laurent(self.q, self.lead, self.digits, n)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_monomial():
                base = self.inv(0)  # exact for monomials, target ignored
                return base ** (-n)
            raise ValueError("negative power of a non-monomial; use .inv(precision)")
        result = Laurent(self.q, 0, (1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
            return Laurent(q, -v, (c,))
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
        y = [pow(unit[0], -1, q)]
        correct = 1
        while correct < rel:
            correct = min(2 * correct, rel)
            xy = _digits_mul(tuple(unit[:correct]), tuple(y), q)[:correct]
            e = [(-d) % q for d in xy]
            e[0] = (2 + e[0]) % q
            y = list(_digits_mul(tuple(y), tuple(e), q)[:correct])
        return Laurent(q, -v, y, target_precision - v)

    # -- comparisons -----------------------------------------------------

    def equal_mod(self, other, n):
        """Tri-state: do self and other agree modulo u^n?

        True/False when decidable from the known digits, None when either
        side's precision ends before the first potential disagreement.
        """
        d = self - other
        if d.digits and d.lead < n:
            return False
        if min(d.known_to, d.lead if d.digits else INF) >= n:
            return True
        return None

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return (
            self.q == other.q
            and self.lead == other.lead
            and self.digits == other.digits
            and self.known_to == other.known_to
        )

    def __hash__(self):
        return hash((self.q, self.lead, self.digits, self.known_to))

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


class Field:
    """Element factory for F_q((u)); holds q and the default tail precision."""

    __slots__ = ("q", "default_precision")

    def __init__(self, q, default_precision=12):
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        if default_precision < 8:
            raise ValueError("default_precision must be >= 8")
        self.q = q
        self.default_precision = default_precision

    def zero(self):
        return Laurent(self.q, 0, ())

    def one(self):
        return Laurent(self.q, 0, (1,))

    def u(self, e=1):
        """The monomial u^e."""
        return Laurent(self.q, e, (1,))

    def monomial(self, c, e=0):
        return Laurent(self.q, e, (c % self.q,))

    def elem(self, lead, digits, known_to=INF):
        return Laurent(self.q, lead, digits, known_to)

    def unknown(self, min_val):
        """The abstract 'some element of valuation >= min_val'."""
        return Laurent(self.q, 0, (), min_val)

    def from_int_poly(self, coeffs, lead=0):
        """Element with the given digit list starting at u^lead, exact."""
        return Laurent(self.q, lead, [c % self.q for c in coeffs])

    def parse(self, text):
        return parse_laurent(text, self.q)

    def __eq__(self, other):
        return isinstance(other, Field) and (self.q, self.default_precision) == (
            other.q,
            other.default_precision,
        )

    def __hash__(self):
        return hash((self.q, self.default_precision))

    def __repr__(self):
        return f"Field(q={self.q}, default_precision={self.default_precision})"


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
        raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")
    q = x.q
    if region == "O":
        d, thresh = x, 0
    elif region == "m":
        d, thresh = x, 1
    elif region == "1+pim":
        d, thresh = x - Laurent(q, 0, (1,)), 2
    else:
        d, thresh = x - Laurent(q, 1, (1,)), 2
    if d.digits:
        return d.lead >= thresh
    if d.exact:
        return True
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
