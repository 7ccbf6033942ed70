"""Survey of all short reduced words of the free product.

The verified group is generated by the diagonal pair (rank two, written
multiplicatively as a^m b^n) and the cyclic subgroup of c = g^R', where R'
is the syllable power from the constants.  A reduced word is an alternating
product of nontrivial syllables

    w = s_1 s_2 ... s_k,   s_i = a^m b^n  (|m| + |n| >= 1)  or  c^r  (r != 0),

no two consecutive syllables from the same factor.  Its length is the free
product word length: |a^m b^n| = |m| + |n| and |c^r| = |r|, summed over the
syllables.  For every word up to a length bound the survey records

  (a) the word is not the identity matrix,
  (b) log_q ||w|| + log_q ||w^-1||  >=  alpha |w| - c_total,
  (c) max(log_q ||w||, log_q ||w^-1||)  >=  (alpha |w| - c_total) / 2,

where (c) is the sup-norm of the Cartan projection: for determinant-one
matrices mu_1 = lognorm(w) and mu_3 = -lognorm(w^-1), so
||mu(w)|| = max(mu_1, -mu_3).  (The identity mu_1 - mu_3 =
lognorm(w) + lognorm(w^-1) is tested against the minor-based Cartan oracle
separately.)

Every word is an exact Laurent polynomial matrix, so the survey runs on
plain integer digit planes: a matrix is (lead, arr) with arr of shape
(3, 3, D) holding base-q digits of each entry starting at exponent
``lead``, and lognorm(w) = -lead.  The depth-first walk down the
alternation tree extends each prefix w (and its inverse chain w^-1) by one
syllable s:

* a diagonal syllable diag(c_j u^e_j) is applied without a product:
  w s moves column j of w up e_j digits and scales it by c_j mod q, and
  s^-1 w^-1 does the same to the rows of w^-1 with s^-1;
* a syllable c^r is multiplied in by Kronecker substitution
  (``pingpong3.digits``): the 27 row products and 9 sums are native
  big-int arithmetic.  A product entry sums three convolutions of rows, so
  its slots must hold 3 min(D_a, D_b) (q - 1)^2.  The c^r syllables are
  packed once, and a prefix once for all its c^r children.

A leaf (a word whose length is the bound) is never extended, and its
record needs only the two leads, so no leaf product is formed:

* the lead of w s for a diagonal s is min_j(colval_j(w) + e_j), and that
  of s^-1 w^-1 is min_i(rowval_i(w^-1) + e'_i); the column and row leads
  are read once per prefix, and unit coefficients change no valuation;
* the lead of a product A B with a c^r factor is read off its lowest digit
  planes: plane t is sum_s A_s B_(t-s) mod q, and the lead sits at the
  first nonzero one.  Only the lowest ``_LOW_PLANES`` planes are tried;
  past them the whole product is formed;
* only a leaf whose two leads are both 0 can be the identity, so only such
  a leaf is multiplied out for check (a).

Margins are kept as integers, scaled by twice the common denominator of
alpha |w| - c_total; a Fraction is built only for the reported minima,
for violation texts and for the records handed to a ``sink``.

Inverses stay exact because every syllable has determinant one, so the
inverse of a syllable is its adjugate.  Exact Mat arithmetic remains the
reference semantics; tests replay sampled words through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..digits import pack, slot_bytes, support, trim, unpack, window
from ..field import Laurent

__all__ = ["WordRecord", "WordSurvey", "reduced_word_count", "word_survey"]

_EYE = np.eye(3, dtype=np.int64)

# digit planes of a product tried for its lead before the whole product is
# formed; on the q = 2 and q = 3 constructions the lead is always in the
# lowest two
_LOW_PLANES = 3


# -- digit-plane matrices ----------------------------------------------------


def _digit_planes(mat):
    """An exact Mat as (lead, int64 digit array of shape (3, 3, D))."""
    if not mat.exact:
        raise ValueError("word evaluation requires exact matrices")
    entries = [x for r in mat.rows for x in r]
    span = support(entries)
    if span is None:
        raise ValueError("word evaluation requires an invertible matrix")
    return span[0], window(entries, *span).reshape(3, 3, -1)


def _slot_bytes(q, depth):
    """Bytes per packed digit: a slot must hold 3 depth (q - 1)^2, the
    largest coefficient of a product entry whose shorter factor rows have
    ``depth`` digits."""
    return slot_bytes(3 * depth * (q - 1) ** 2)


def _pack(pm, nbytes):
    """(lead, depth, the nine digit rows as Python ints, row-major)."""
    lead, arr = pm
    return lead, arr.shape[2], pack(arr, nbytes)


def _packed_mul(q, a, b, nbytes):
    """Product of two packed matrices as a digit-plane matrix, exact mod q.

    Both must be packed with ``nbytes`` at least
    ``_slot_bytes(q, min(depth_a, depth_b))``.
    """
    la, da, ra = a
    lb, db, rb = b
    values = [
        ra[i] * rb[j] + ra[i + 1] * rb[j + 3] + ra[i + 2] * rb[j + 6]
        for i in (0, 3, 6)
        for j in (0, 1, 2)
    ]
    return trim(la + lb, unpack(values, nbytes, da + db - 1, q).reshape(3, 3, -1))


def _mul(q, a, b):
    """Digit-plane matrix product, exact mod q."""
    nbytes = _slot_bytes(q, min(a[1].shape[2], b[1].shape[2]))
    return _packed_mul(q, _pack(a, nbytes), _pack(b, nbytes), nbytes)


def _diag_mul(q, pm, diag, axis):
    """pm times a monomial diagonal diag(c_k u^e_k), given as the triples
    (e, c): on the right (axis 1) column k moves up e_k digits and is
    scaled by c_k; on the left (axis 0) row k does."""
    lead, arr = pm
    exps, coeffs = diag
    lo = min(exps)
    depth = arr.shape[2]
    out = np.zeros((3, 3, depth + max(exps) - lo), dtype=np.int64)
    dst, src = (out, arr) if axis == 0 else (out.swapaxes(0, 1), arr.swapaxes(0, 1))
    for k, e in enumerate(exps):
        dst[k, :, e - lo : e - lo + depth] = src[k]
    if any(c != 1 for c in coeffs):
        scale = np.asarray(coeffs, dtype=np.int64)
        dst *= scale[:, None, None]
        out %= q
    return trim(lead + lo, out)


def _line_leads(pm, axis):
    """Lead exponent of each column (axis 1) or row (axis 0) of pm: the
    lead of pm times a diagonal diag(c_k u^e_k) on that side is
    min_k(lead_k + e_k)."""
    lead, arr = pm
    return (lead + arr.any(axis=1 - axis).argmax(axis=1)).tolist()


def _low_planes(pm, axis):
    """(lead, the lowest ``_LOW_PLANES`` digit planes of pm as nested
    lists): plane t as its three rows (axis 0, for a left factor) or its
    three columns (axis 1, for a right factor)."""
    lead, arr = pm
    low = arr[:, :, :_LOW_PLANES]
    return lead, (low.transpose(2, 0, 1) if axis == 0 else low.transpose(2, 1, 0)).tolist()


def _low_lead(q, a, b):
    """Lead exponent of the product A B of a left factor given by its low
    rows and a right factor given by its low columns (``_low_planes``),
    or None when the lowest ``_LOW_PLANES`` planes of the product vanish."""
    la, rows = a
    lb, cols = b
    for t in range(min(_LOW_PLANES, len(rows) + len(cols) - 1)):
        terms = [
            (rows[s], cols[t - s])
            for s in range(max(0, t + 1 - len(cols)), min(t + 1, len(rows)))
        ]
        for i in range(3):
            for j in range(3):
                total = 0
                for a_rows, b_cols in terms:
                    (x0, x1, x2), (y0, y1, y2) = a_rows[i], b_cols[j]
                    total += x0 * y0 + x1 * y1 + x2 * y2
                if total % q:
                    return la + lb + t
    return None


def _power(q, pm, e):
    result = (0, _EYE[:, :, None].copy())
    base = pm
    while e:
        if e & 1:
            result = _mul(q, result, base)
        base = _mul(q, base, base)
        e >>= 1
    return result


def _is_identity(pm):
    lead, arr = pm
    return lead == 0 and arr.shape[2] == 1 and np.array_equal(arr[:, :, 0], _EYE)


# -- syllable tables ---------------------------------------------------------


def _exponent_label(symbol, e):
    return symbol if e == 1 else f"{symbol}^{e}"


def _diag_label(m, n):
    parts = []
    if m:
        parts.append(_exponent_label("a", m))
    if n:
        parts.append(_exponent_label("b", n))
    return " ".join(parts)


def _diagonal_syllables(pair, bound):
    """(label, weight, triples, inverse triples), ordered by (weight, m, n);
    the triples are the (exponent, coefficient) pair of ``pair.monomial``."""
    out = []
    for weight in range(1, bound + 1):
        for m in range(-weight, weight + 1):
            rest = weight - abs(m)
            for n in sorted({-rest, rest}):
                if (m, n) == (0, 0):
                    continue
                out.append(
                    (
                        _diag_label(m, n),
                        weight,
                        pair.monomial(m, n),
                        pair.monomial(-m, -n),
                    )
                )
    return out


def _cyclic_syllables(q, g, r_prime, bound):
    """(label, weight, planes, inverse planes) for c^r, c = g^r_prime."""
    one = Laurent(q, 0, (1,))
    if not (g.exact and g.det() == one):
        raise ValueError("the cyclic generator must be exact with determinant 1")
    c = _power(q, _digit_planes(g), r_prime)
    c_inv = _power(q, _digit_planes(g.adjugate()), r_prime)
    plus = [c]
    minus = [c_inv]
    for _ in range(bound - 1):
        plus.append(_mul(q, plus[-1], c))
        minus.append(_mul(q, minus[-1], c_inv))
    out = []
    for weight in range(1, bound + 1):
        for r in (-weight, weight):
            mat = minus[weight - 1] if r < 0 else plus[weight - 1]
            inv = plus[weight - 1] if r < 0 else minus[weight - 1]
            out.append((_exponent_label("c", r), weight, mat, inv))
    return out


def reduced_word_count(bound):
    """(all reduced words of length 1..bound, those of length exactly
    bound): there are 4w diagonal syllables a^m b^n and 2 cyclic syllables
    c^r of each weight w, and a word alternates factors.  The words of
    length ``bound`` are the survey's leaves."""
    # words ending in a diagonal / a cyclic syllable, by length
    diag, cyc = [0] * (bound + 1), [0] * (bound + 1)
    for n in range(1, bound + 1):
        diag[n] = sum(4 * w * (cyc[n - w] if n > w else 1) for w in range(1, n + 1))
        cyc[n] = sum(2 * (diag[n - w] if n > w else 1) for w in range(1, n + 1))
    return sum(diag) + sum(cyc), diag[bound] + cyc[bound]


# -- survey -------------------------------------------------------------------


@dataclass(frozen=True)
class WordRecord:
    """One surveyed word: its size data and the two margin checks."""

    label: str
    length: int
    syllables: int
    lognorm: int
    lognorm_inv: int
    growth_margin: Fraction
    cartan_margin: Fraction
    is_identity: bool


@dataclass
class WordSurvey:
    """Aggregates over all surveyed words; ``passed`` means zero violations.

    The margins are held as integers times ``scale``, twice the common
    denominator of alpha |w| - c_total over the surveyed lengths, so the
    growth margin and its Cartan half are both integral;
    ``min_growth_margin`` and ``min_cartan_margin`` give them as Fractions.
    """

    q: int
    bound: int
    r_prime: int
    alpha: Fraction
    c_total: int
    words: int = 0
    tightest_word: str | None = None
    by_length: dict = field(default_factory=dict)
    violation_counts: dict = field(default_factory=dict)
    examples: list = field(default_factory=list)
    scale: int = field(init=False)
    growth_floor: int | None = field(init=False, default=None)
    cartan_floor: int | None = field(init=False, default=None)
    _required: list = field(init=False, repr=False)

    MAX_EXAMPLES = 20

    def __post_init__(self):
        required = [
            Fraction(self.alpha * length - self.c_total) for length in range(self.bound + 1)
        ]
        self.scale = 2 * math.lcm(*(r.denominator for r in required))
        # scale (alpha |w| - c_total), an even integer, by length
        self._required = [int(r * self.scale) for r in required]

    @property
    def min_growth_margin(self):
        return None if self.growth_floor is None else Fraction(self.growth_floor, self.scale)

    @property
    def min_cartan_margin(self):
        return None if self.cartan_floor is None else Fraction(self.cartan_floor, self.scale)

    @property
    def total_violations(self):
        return sum(self.violation_counts.values())

    @property
    def passed(self):
        return self.total_violations == 0

    def add_violation(self, kind, label, detail=""):
        self.violation_counts[kind] = self.violation_counts.get(kind, 0) + 1
        if len(self.examples) < self.MAX_EXAMPLES:
            self.examples.append(f"{kind}: {label}" + (f" ({detail})" if detail else ""))

    def record(self, parts, length, syllables, lognorm, lognorm_inv, is_identity, sink):
        """Count one word, given by its syllable labels, and check it;
        ``sink``, when not None, receives its WordRecord."""
        self.words += 1
        self.by_length[length] = self.by_length.get(length, 0) + 1
        scale, required = self.scale, self._required[length]
        growth = scale * (lognorm + lognorm_inv) - required
        cartan = scale * max(lognorm, lognorm_inv) - required // 2
        if is_identity:
            self.add_violation("identity", " ".join(parts))
        if growth < 0:
            self.add_violation(
                "growth", " ".join(parts), f"margin {Fraction(growth, scale)}"
            )
        if cartan < 0:
            self.add_violation(
                "cartan", " ".join(parts), f"margin {Fraction(cartan, scale)}"
            )
        if self.growth_floor is None or growth < self.growth_floor:
            self.growth_floor = growth
            self.tightest_word = " ".join(parts)
        if self.cartan_floor is None or cartan < self.cartan_floor:
            self.cartan_floor = cartan
        if sink is not None:
            sink(
                WordRecord(
                    label=" ".join(parts),
                    length=length,
                    syllables=syllables,
                    lognorm=lognorm,
                    lognorm_inv=lognorm_inv,
                    growth_margin=Fraction(growth, scale),
                    cartan_margin=Fraction(cartan, scale),
                    is_identity=is_identity,
                )
            )

    def summary(self):
        verdict = (
            "PASS" if self.passed else f"FAIL ({self.total_violations} violations)"
        )
        lines = [
            f"word survey to length {self.bound} (c = g^{self.r_prime}): {verdict}",
            f"  words {self.words}, min growth margin {self.min_growth_margin}"
            f" (at '{self.tightest_word}'), min cartan margin {self.min_cartan_margin}",
        ]
        for kind, count in sorted(self.violation_counts.items()):
            lines.append(f"  {kind}: {count}")
        lines.extend(f"    {text}" for text in self.examples)
        return "\n".join(lines)

    def as_dict(self):
        return {
            "q": self.q,
            "bound": self.bound,
            "r_prime": self.r_prime,
            "alpha": str(self.alpha),
            "c_total": self.c_total,
            "words": self.words,
            "by_length": {str(k): v for k, v in sorted(self.by_length.items())},
            "min_growth_margin": str(self.min_growth_margin),
            "min_cartan_margin": str(self.min_cartan_margin),
            "tightest_word": self.tightest_word,
            "violations": dict(sorted(self.violation_counts.items())),
            "passed": self.passed,
        }


def word_survey(pair, g, bound, constants, sink=None):
    """Check every nonempty reduced word of length <= bound.

    ``constants`` supplies alpha, c_total and r_prime.  The walk is
    depth-first in a fixed syllable order, so the survey (and any table
    written through ``sink``) is deterministic.  ``sink``, when given, is
    called with each WordRecord in that order.
    """
    if bound < 1:
        raise ValueError("the word length bound must be at least 1")
    q = pair.q
    survey = WordSurvey(
        q=q,
        bound=bound,
        r_prime=constants.r_prime,
        alpha=Fraction(constants.alpha),
        c_total=constants.c_total,
    )
    diagonal = _diagonal_syllables(pair, bound)
    cyclic = _cyclic_syllables(q, g, constants.r_prime, bound)
    # every packed product has a c^r factor, so the deepest c^r bounds
    # min(D_a, D_b) and one slot width serves the whole walk
    nbytes = _slot_bytes(q, max(planes[1].shape[2] for _, _, planes, _ in cyclic))
    cyclic = [
        (
            label,
            weight,
            _pack(planes, nbytes),
            _pack(inv, nbytes),
            _low_planes(planes, 1),
            _low_planes(inv, 0),
        )
        for label, weight, planes, inv in cyclic
    ]
    record = survey.record

    def walk(prefix, prefix_inv, parts, length, syllables, last):
        room = bound - length
        if last != 0:
            leads = None
            for label, weight, right, left in diagonal:  # by increasing weight
                if weight > room:
                    break
                word = parts + [label]
                if weight < room:
                    w = _diag_mul(q, prefix, right, axis=1)
                    w_inv = _diag_mul(q, prefix_inv, left, axis=0)
                    record(word, length + weight, syllables + 1, -w[0], -w_inv[0],
                           _is_identity(w), sink)
                    walk(w, w_inv, word, length + weight, syllables + 1, 0)
                    continue
                # a leaf: its record needs only the two leads
                if leads is None:
                    leads = (_line_leads(prefix, 1), _line_leads(prefix_inv, 0))
                cols, rows = leads
                (e0, e1, e2), (f0, f1, f2) = right[0], left[0]
                lead = min(cols[0] + e0, cols[1] + e1, cols[2] + e2)
                lead_inv = min(rows[0] + f0, rows[1] + f1, rows[2] + f2)
                identity = lead == lead_inv == 0 and _is_identity(
                    _diag_mul(q, prefix, right, axis=1)
                )
                record(word, bound, syllables + 1, -lead, -lead_inv, identity, sink)
        if last != 1:
            packed = packed_inv = low = None
            for label, weight, right, left, right_low, left_low in cyclic:
                if weight > room:
                    break
                word = parts + [label]
                if weight < room:
                    if packed is None:
                        packed = _pack(prefix, nbytes)
                        packed_inv = _pack(prefix_inv, nbytes)
                    w = _packed_mul(q, packed, right, nbytes)
                    w_inv = _packed_mul(q, left, packed_inv, nbytes)
                    record(word, length + weight, syllables + 1, -w[0], -w_inv[0],
                           _is_identity(w), sink)
                    walk(w, w_inv, word, length + weight, syllables + 1, 1)
                    continue
                # a leaf: its leads from the lowest product planes
                if low is None:
                    low = (_low_planes(prefix, 0), _low_planes(prefix_inv, 1))
                lead = _low_lead(q, low[0], right_low)
                if lead is None:
                    lead = _packed_mul(q, _pack(prefix, nbytes), right, nbytes)[0]
                lead_inv = _low_lead(q, left_low, low[1])
                if lead_inv is None:
                    lead_inv = _packed_mul(q, left, _pack(prefix_inv, nbytes), nbytes)[0]
                identity = lead == lead_inv == 0 and _is_identity(
                    _packed_mul(q, _pack(prefix, nbytes), right, nbytes)
                )
                record(word, bound, syllables + 1, -lead, -lead_inv, identity, sink)

    identity = (0, _EYE[:, :, None].copy())
    walk(identity, identity, [], 0, 0, None)
    return survey
