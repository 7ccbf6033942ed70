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

All three checks read two numbers per word, lognorm(w) = -lead(w) and
lognorm(w^-1), so the survey carries each word only to the digits its
leads can read, as a lead window (lead, lines, known_to).  The lines are
three Python ints, the word's columns (its inverse's rows), each entry a
field of one byte slot per base-q digit (``pingpong3.digits``) from u^lead,
at most ``_WINDOW`` planes; known_to is the first exponent whose digits are
no longer exact, tracked as ``Laurent.known_to`` is.  The depth-first walk
extends each prefix w and its inverse chain w^-1 by one syllable s:

* c^r, cut to the same window, by Kronecker substitution: line j of w c^r
  is sum_k line_k(w) (c^r)_kj, nine native products, exact below
  min(known_w + lead_c, known_c + lead_w).  The three lines are packed
  into one int of nine fields and reduced mod q once (``_Layout._product``);
* diag(c_j u^e_j) without a product: line j moves up e_j planes and is
  scaled by c_j mod q, and known_to moves up min_j(e_j).

The new lead is the first nonzero plane below known_to.  A word is rebuilt
exactly from its syllables when no such plane is nonzero, or when both of
its leads are 0 (only then can it be the identity); its subtree then
continues exactly, with known_to None and the whole c^r, so no lead is ever
guessed.  A prefix's line leads are read once, for all its diagonal
children.  A leaf (length = bound) is never extended, and only its leads
are formed: of a diagonal leaf min_j(colval_j(w) + e_j), and of its inverse
min_i(rowval_i(w^-1) + e'_i), from those line leads and one flat tuple of
exponents per syllable; of a cyclic leaf the first nonzero plane of the
packed product, which ``_Layout.lead`` folds where ``mul`` splits it back
into lines.  Its label is joined only for a violation, a ``sink`` or a read
of ``tightest_word``.

The checks and the identity test are symmetric in (lognorm(w),
lognorm(w^-1)), and inversion maps the reduced words of a length onto
themselves with no fixed point: w = w^-1 would need a syllable that is its
own inverse or two adjacent syllables from one factor.  So a passing
survey without a ``sink`` reads one leaf of each pair {w, w^-1}, counted
twice: the one that ends in a^m b^n when its first and last syllables come
from different factors (its leads need no product), else the one first in
walk order.  Syllables travel as ranks, their places in the walk: a^m b^n
of weight w has rank k in [2w(w - 1), 2w(w + 1)) and inverse 4w^2 - 1 - k,
and c^-r, c^r are neighbours, so the leaves kept of one prefix and weight
are one run of ranks.  A kept leaf may follow its twin in the walk, so a
margin equal to the floor compares walk-order keys, the lesser of the two
members' ranks.  A violation, or a ``sink``, walks again in full, so
examples, their order and the records are the full walk's.

Margins are kept as integers, scaled by twice the common denominator of
alpha |w| - c_total; a Fraction is built only for the reported minima,
for violation texts and for the records handed to a ``sink``.

Inverses stay exact because every syllable has determinant one, so the
inverse of a syllable is its adjugate.  Exact Mat arithmetic remains the
reference semantics; tests replay sampled words through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from ..digits import mod_rows, pack_row, slot_bytes, support, unpack_row
from ..field import Laurent

__all__ = ["WordRecord", "WordSurvey", "reduced_word_count", "word_survey"]

# digit planes a window keeps from its lead; at the q = 2 and q = 3
# constructions no lead runs past them up to length 8
_WINDOW = 8


class _Layout:
    """Three packed lines per 3x3 matrix: field i of line k, ``stride``
    slots of ``nbytes`` bytes from slot stride * i, holds entry (i, k) of a
    column-line matrix or (k, i) of a row-line one, its u^(lead + t) digit
    in slot t.  ``width`` is the window's plane count, None when exact.  A
    scalar matrix (lead, M, known_to) holds a syllable's entries one per
    int, for ``mul``."""

    def __init__(self, q, nbytes, stride, width):
        self.q, self.nbytes, self.width = q, nbytes, width
        self.bits, self.fbits = 8 * nbytes, 8 * nbytes * stride
        self.fmask, self.lmask = (1 << self.fbits) - 1, (1 << 3 * self.fbits) - 1
        self.eye = [1 << self.fbits * k for k in range(3)]
        if width is not None:  # masks[k]: the lowest k slots of every field
            self.masks = [((1 << self.bits * k) - 1) * sum(self.eye) for k in range(width + 1)]

    def exact(self, mat):
        """An exact invertible Mat as an exact window of its columns."""
        entries = [x for r in mat.rows for x in r]
        lead, lines = support(entries)[0], [0, 0, 0]
        for k, x in enumerate(entries):  # row k // 3, column k % 3
            if x.digits:
                shift = self.bits * (x.lead - lead) + self.fbits * (k // 3)
                lines[k % 3] |= pack_row(x.digits, self.nbytes) << shift
        return lead, lines, None

    def scalars(self, w, left):
        """A column-line window W as a scalar matrix for ``mul``, by its
        columns: times W on the right of column lines or, for ``left``, on
        the left of row lines."""
        lead, lines, known = w
        f = [[x >> self.fbits * i & self.fmask for i in range(3)] for x in lines]
        return lead, [list(r) for r in zip(*f)] if left else f, known

    def cut(self, m, exact):
        """A scalar matrix of the ``exact`` layout cut to this window."""
        lead, rows, _ = m
        width, nbytes = self.width, exact.nbytes
        mask = (1 << 8 * nbytes * width) - 1
        if nbytes == self.nbytes:
            return lead, [[x & mask for x in r] for r in rows], lead + width
        rows = [
            [pack_row(unpack_row(x & mask, nbytes, width, self.q), self.nbytes) for x in r]
            for r in rows
        ]
        return lead, rows, lead + width

    def _product(self, w, m):
        """The lines of w times the scalar matrix m (line j is sum_k line_k
        M[k][j]) packed into one int, line j from field 3 j (a line fits
        three fields, so none carries into the next), reduced by one
        mod_rows call.  The slots must hold 3 min(depth_W, depth_C) (q - 1)^2."""
        (x0, x1, x2), ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)), f = w[1], m[1], self.fbits
        v = x0 * a0 + x1 * a1 + x2 * a2 | (x0 * b0 + x1 * b1 + x2 * b2) << 3 * f
        (v,) = mod_rows([v | (x0 * c0 + x1 * c1 + x2 * c2) << 6 * f], self.nbytes, self.q)
        return v

    def mul(self, w, m):
        """w times the scalar matrix m: the columns of W C or the rows of
        C W, their packed product split back into three lines."""
        (lw, _, kw), (lm, _, km), f3, lmask = w, m, 3 * self.fbits, self.lmask
        v, known = self._product(w, m), None if kw is None else min(kw + lm, km + lw)
        return self._settle(lw + lm, (v & lmask, v >> f3 & lmask, v >> 2 * f3), known)

    def lead(self, w, m):
        """mul(w, m)[0], or None where mul gives None: the packed product
        OR-folded to its first nonzero plane, without its lines."""
        (lw, _, kw), (lm, _, km), f = w, m, self.fbits
        low = self._product(w, m)
        low |= low >> 3 * f | low >> 6 * f
        low = (low | low >> f | low >> 2 * f) & self.fmask
        lead = lw + lm + ((low & -low).bit_length() - 1) // self.bits
        return lead if low and (kw is None or lead < kw + lm and lead < km + lw) else None

    def _settle(self, lead, lines, known):
        """The window of lines whose slot 0 sits at u^lead, from its first
        nonzero plane and at most ``width`` planes; None when no plane
        below ``known`` is nonzero."""
        f, (x0, x1, x2) = self.fbits, lines
        low = x0 | x1 | x2
        low = (low | low >> f | low >> 2 * f) & self.fmask
        if not low:
            return None
        t = ((low & -low).bit_length() - 1) // self.bits
        lead, shift = lead + t, self.bits * t
        if known is None:
            return lead, [x0 >> shift, x1 >> shift, x2 >> shift], None
        if lead >= known:
            return None
        keep = known - lead if known - lead < self.width else self.width
        mask = self.masks[keep]
        return lead, [x0 >> shift & mask, x1 >> shift & mask, x2 >> shift & mask], lead + keep

    def diag(self, w, d, leads=None):
        """w times a monomial diagonal d = (min e, e, c or None when every
        c_k is 1) along its lines: line k moves up e_k planes and is scaled
        by c_k mod q; None when no plane below known_to is nonzero.
        ``leads`` are w's line leads, when its caller has them."""
        lead, (x0, x1, x2), known = w
        lo, (e0, e1, e2), scale = d
        bits = self.bits
        if known is None:
            new = lead + lo
            x0, x1, x2 = x0 << bits * (e0 - lo), x1 << bits * (e1 - lo), x2 << bits * (e2 - lo)
        else:
            l0, l1, l2 = self.line_leads(w) if leads is None else leads
            a, b, c, known = l0 + e0, l1 + e1, l2 + e2, known + lo
            new = a if a <= b and a <= c else b if b <= c else c
            if new >= known:
                return None
            keep = known - new  # at most width, as new >= lead + lo
            u0, u1, u2, m = lead + e0 - new, lead + e1 - new, lead + e2 - new, self.masks[keep]
            # line k moves up u_k planes: by keep or more it leaves the window; by
            # fewer its planes stay in their fields, as a stride spans 2 width - 1
            x0 = 0 if u0 >= keep else (x0 << bits * u0 if u0 >= 0 else x0 >> -bits * u0) & m
            x1 = 0 if u1 >= keep else (x1 << bits * u1 if u1 >= 0 else x1 >> -bits * u1) & m
            x2 = 0 if u2 >= keep else (x2 << bits * u2 if u2 >= 0 else x2 >> -bits * u2) & m
        if scale is not None:  # the three lines scaled in one packed int
            c0, c1, c2 = scale
            f3, lmask = 3 * self.fbits, self.lmask
            (v,) = mod_rows([x0 * c0 | x1 * c1 << f3 | x2 * c2 << 2 * f3], self.nbytes, self.q)
            x0, x1, x2 = v & lmask, v >> f3 & lmask, v >> 2 * f3
        if known is None:
            return self._settle(new, (x0, x1, x2), None)
        return new, [x0, x1, x2], new + keep

    def line_leads(self, w):
        """Lead exponent of each line of w, or known_to where no known digit
        is nonzero: w times a diagonal along its lines has lead
        min_k(lead_k + e_k)."""
        lead, (x0, x1, x2), known = w
        f, fmask, bits = self.fbits, self.fmask, self.bits
        x0, x1 = (x0 | x0 >> f | x0 >> 2 * f) & fmask, (x1 | x1 >> f | x1 >> 2 * f) & fmask
        x2 = (x2 | x2 >> f | x2 >> 2 * f) & fmask
        return (
            lead + ((x0 & -x0).bit_length() - 1) // bits if x0 else known,
            lead + ((x1 & -x1).bit_length() - 1) // bits if x1 else known,
            lead + ((x2 & -x2).bit_length() - 1) // bits if x2 else known,
        )

    def is_identity(self, w):
        return w[2] is None and w[0] == 0 and w[1] == self.eye


def _rebuild(parts, exact):
    """The exact windows of a word (column lines) and of its inverse (row
    lines) from its syllable labels, and the mode of its subtree, by the
    tables exact() gives: layout, cyclic syllables, (step, right, left)s."""
    full, cyclic, syllables = exact()
    w = w_inv = (0, full.eye, None)
    for label in parts:
        step, right, left = syllables[label]
        w, w_inv = step(w, right), step(w_inv, left)
    return w, w_inv, (full, cyclic)


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


def _monomial(triples):
    """A diagonal diag(c_k u^e_k) for ``_Layout.diag``."""
    exps, coeffs = triples
    return min(exps), exps, None if coeffs == (1, 1, 1) else coeffs


def _diagonal_syllables(pair, bound):
    """(label, weight, diagonal, inverse diagonal), ordered by (weight, m, n)."""
    out = []
    for weight in range(1, bound + 1):
        rests = [(m, weight - abs(m)) for m in range(-weight, weight + 1)]
        block = [(m, n) for m, rest in rests for n in sorted({-rest, rest})]
        # a^-m b^-n is as far from the block's end as a^m b^n from its start
        diag = [_monomial(pair.monomial(m, n)) for m, n in block]
        out += [(_diag_label(*mn), weight, d, inv) for mn, d, inv in zip(block, diag, diag[::-1])]
    return out


def _cyclic_syllables(layout, gens, r_prime, bound, hop):
    """[(label, weight, c^r, c^-r)] for c = g^r_prime, gens = (g, g^-1),
    in an exact ``layout``, by steps of g^hop (hop 1 or r_prime): scalar
    matrices of c^r for the word's columns, of c^-r for its inverse's rows."""
    plus, minus = [], []
    for m, powers in zip(gens, (plus, minus)):
        w = base = layout.exact(m)
        for _ in range(hop - 1):
            w = layout.mul(w, layout.scalars(base, False))
        right = layout.scalars(w, False)
        for k in range(hop, r_prime * bound, hop):
            if k % r_prime == 0:
                powers.append(w)
            w = layout.mul(w, right)
        powers.append(w)
    out = []
    for weight in range(1, bound + 1):
        for r in (-weight, weight):
            mat, inv = (minus, plus) if r < 0 else (plus, minus)
            right, left = layout.scalars(mat[weight - 1], False), inv[weight - 1]
            out.append((_exponent_label("c", r), weight, right, layout.scalars(left, True)))
    return out


def _exact_tables(q, gens, r_prime, bound, step, diagonal):
    """The exact tables of ``_rebuild``, built at the first rebuild."""
    # a^m b^n spreads a line by at most |m| + |n| times the wider
    # generator's spread: no word is deeper than this
    spread = max(max(e) - min(e) for _, weight, (_, e, _), _ in diagonal if weight == 1)
    nbytes = slot_bytes(3 * (bound * step + 1) * (q - 1) ** 2)
    full = _Layout(q, nbytes, bound * max(step, spread) + 1, None)
    cyclic = _cyclic_syllables(full, gens, r_prime, bound, r_prime)
    by_label = {label: (full.diag, right, left) for label, _, right, left in diagonal}
    by_label.update((label, (full.mul, c, inv)) for label, _, c, inv in cyclic)
    return full, cyclic, by_label


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


class _Violation(Exception):
    """A violation in a walk over inverse pairs: the survey walks again in full."""


class WordRecord(NamedTuple):
    """One surveyed word: its size data and the two margin checks."""

    label: str
    length: int
    syllables: int
    lognorm: int
    lognorm_inv: int
    growth_margin: Fraction
    cartan_margin: Fraction
    is_identity: bool


class WordSurvey:
    """Aggregates over all surveyed words; ``passed`` means zero violations.

    The margins are held as integers times ``scale``, twice the common
    denominator of alpha |w| - c_total over the surveyed lengths, so the
    growth margin and its Cartan half are both integral;
    ``min_growth_margin`` and ``min_cartan_margin`` give them as Fractions.
    ``tightest_word`` is the first word in walk order of least growth
    margin: the first such record in the ``sink`` stream, passing or not.
    ``labels`` names syllable ranks; ``inverse`` inverts them in a walk
    over inverse pairs and is None otherwise.
    """

    MAX_EXAMPLES = 20

    def __init__(self, q, bound, r_prime, alpha, c_total, labels, inverse=None):
        self.q, self.bound, self.r_prime = q, bound, r_prime
        self.alpha, self.c_total, self.labels, self.inverse = alpha, c_total, labels, inverse
        self.words, self.by_length, self.violation_counts, self.examples = 0, {}, {}, []
        self.growth_floor = self.cartan_floor = self._key = None
        required = [Fraction(alpha * length - c_total) for length in range(bound + 1)]
        self.scale = 2 * math.lcm(*(r.denominator for r in required))
        # scale (alpha |w| - c_total), an even integer, by length
        self._required = [int(r * self.scale) for r in required]

    @property
    def tightest_word(self):
        return None if self._key is None else " ".join(self.labels[r] for r in self._key)

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

    def record(self, ranks, length, lognorm, lognorm_inv, is_identity, sink, last=None, pair=False):
        """Count one word, given by its syllable ranks ``ranks`` and then
        ``last`` when not None, and with ``pair`` its inverse too, and check
        it; ``sink``, when not None, receives its WordRecord.  The label is
        built only when it is read: for a violation or the sink."""
        count = 1 + pair
        self.words += count
        self.by_length[length] = self.by_length.get(length, 0) + count
        scale, required = self.scale, self._required[length]
        growth = scale * (lognorm + lognorm_inv) - required
        cartan = scale * (lognorm if lognorm > lognorm_inv else lognorm_inv) - required // 2
        if self.cartan_floor is None or cartan < self.cartan_floor:
            self.cartan_floor = cartan
        floor = self.growth_floor
        tighter = floor is None or growth < floor
        # a walk over inverse pairs may record a word after a later one
        tie = growth == floor and self.inverse is not None
        if not (tighter or tie or is_identity or growth < 0 or cartan < 0 or sink is not None):
            return
        if last is not None:
            ranks = ranks + [last]
        if pair:  # the pair's key is the ranks of its member first in walk order
            ranks = min(ranks, [self.inverse[r] for r in reversed(ranks)])
        if tighter or tie and ranks < self._key:
            self.growth_floor, self._key = growth, ranks
        if not (is_identity or growth < 0 or cartan < 0 or sink is not None):
            return
        if self.inverse is not None:
            raise _Violation
        label = " ".join(self.labels[r] for r in ranks)
        if is_identity:
            self.add_violation("identity", label)
        if growth < 0:
            self.add_violation("growth", label, f"margin {Fraction(growth, scale)}")
        if cartan < 0:
            self.add_violation("cartan", label, f"margin {Fraction(cartan, scale)}")
        if sink is not None:
            margins = Fraction(growth, scale), Fraction(cartan, scale)
            sink(WordRecord(label, length, len(ranks), lognorm, lognorm_inv, *margins, is_identity))

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
    if not (g.exact and g.det() == Laurent(q, 0, (1,))):
        raise ValueError("the cyclic generator must be exact with determinant 1")
    gens = (g, g.adjugate())
    # a product is at most one plane shallower than its factors together;
    # c^r is formed by steps of c, or of g when c needs wider slots than g
    depth = max(hi - lo for lo, hi in (support(sum(m.rows, ())) for m in gens))
    step = constants.r_prime * (depth - 1)
    nbytes = slot_bytes(3 * depth * (q - 1) ** 2)
    hop = constants.r_prime if slot_bytes(3 * (step + 1) * (q - 1) ** 2) == nbytes else 1
    table = _Layout(q, nbytes, bound * step + 1, None)
    # a window product's shorter factor has at most _WINDOW planes
    window = _Layout(q, slot_bytes(3 * _WINDOW * (q - 1) ** 2), 2 * _WINDOW, _WINDOW)
    cyclic = _cyclic_syllables(table, gens, constants.r_prime, bound, hop)
    cut = [(label, w, window.cut(c, table), window.cut(inv, table)) for label, w, c, inv in cyclic]
    diagonal = _diagonal_syllables(pair, bound)
    # a diagonal leaf's exponents and least exponent, then its inverse's
    leaves = [(*e, lo, *f, lo_inv) for _, _, (lo, e, _), (lo_inv, f, _) in diagonal]
    exact = cache(lambda: _exact_tables(q, gens, constants.r_prime, bound, step, diagonal))
    # a syllable's rank is its place in the walk: a^m b^n by (weight, m, n),
    # weight w at ranks [2w(w - 1), 2w(w + 1)), then c^-1, c, c^-2, ...
    n = len(diagonal)
    labels, weights = zip(*((s[0], s[1]) for s in diagonal + cyclic))
    inverse = [4 * w * w - 1 - k for k, w in enumerate(weights[:n])]
    inverse += [n + (j ^ 1) for j in range(len(cyclic))]

    def leaf(ranks, rank, pair):
        """Record the leaf ``ranks`` then ``rank`` (and with ``pair`` its
        inverse) from a rebuild: a lead of it is not known, or both are 0."""
        w, w_inv, (full, _) = _rebuild([labels[r] for r in ranks + [rank]], exact)
        record(ranks, bound, -w[0], -w_inv[0], full.is_identity(w), sink, rank, pair)

    def walk(w, w_inv, ranks, length, last, mode):
        """Record the word ``ranks`` unless it is the root, exactly from a
        rebuild when its lead is not known or it can be the identity, and
        walk its subtree."""
        if ranks:
            if w is None or w_inv is None or (w[0] == w_inv[0] == 0 and w[2] is not None):
                w, w_inv, mode = _rebuild([labels[r] for r in ranks], exact)
            record(ranks, length, -w[0], -w_inv[0], mode[0].is_identity(w), sink)
        layout, cyclic = mode
        room = bound - length
        start = 2 * room * (room - 1)  # the diagonal leaves' first rank
        # a leaf of rank r is read when inverse[r] > its factor's cut
        pair = half and len(ranks) > 0
        cut_diag = cut_cyclic = -1
        if pair:
            first, middle = ranks[0], ranks[1:]
            # where inverse[r] = first, the middle syllables decide
            bar = first - (weights[first] == room and middle < [inverse[r] for r in middle[::-1]])
            cut_diag, cut_cyclic = (bar, len(inverse)) if first < n else (-1, bar)
        if last != 0:
            # the prefix's column and row leads, read once for every child
            diag, cols, rows = layout.diag, layout.line_leads(w), layout.line_leads(w_inv)
            for rank, (_, weight, right, left) in enumerate(diagonal[:start]):
                x, y = diag(w, right, cols), diag(w_inv, left, rows)
                walk(x, y, ranks + [rank], length + weight, 0, mode)
            # a leaf's leads, from the prefix's column and row leads (a line
            # with no known nonzero digit gave its known_to)
            (c0, c1, c2), (r0, r1, r2) = cols, rows
            top, top_inv = (math.inf, math.inf) if w[2] is None else (w[2], w_inv[2])
            for rank in range(start, min(start + 4 * room, 4 * room * room - 1 - cut_diag)):
                e0, e1, e2, lo, f0, f1, f2, lo_inv = leaves[rank]
                a, b, c = c0 + e0, c1 + e1, c2 + e2
                lead = a if a <= b and a <= c else b if b <= c else c
                a, b, c = r0 + f0, r1 + f1, r2 + f2
                lead_inv = a if a <= b and a <= c else b if b <= c else c
                if lead < top + lo and lead_inv < top_inv + lo_inv and (lead or lead_inv):
                    record(ranks, bound, -lead, -lead_inv, False, sink, rank, pair)
                else:
                    leaf(ranks, rank, pair)
        if last != 1:
            mul, lead_of = layout.mul, layout.lead
            for j, (_, weight, right, left) in enumerate(cyclic[: 2 * room]):
                if weight < room:
                    x, y = mul(w, right), mul(w_inv, left)
                    walk(x, y, ranks + [n + j], length + weight, 1, mode)
                elif inverse[n + j] > cut_cyclic:
                    lead, lead_inv = lead_of(w, right), lead_of(w_inv, left)
                    if lead is None or lead_inv is None or lead == lead_inv == 0:
                        leaf(ranks, n + j, pair)
                    else:
                        record(ranks, bound, -lead, -lead_inv, False, sink, n + j, pair)

    root = (0, window.eye, _WINDOW)  # the identity is exact: known to any exponent
    args = q, bound, constants.r_prime, Fraction(constants.alpha), constants.c_total, labels
    # without a sink, one leaf of each inverse pair; a violation walks again
    # in full, for its examples in walk order.  The closures above read
    # ``half`` and ``record`` from this loop.
    for half in (True, False) if sink is None else (False,):
        survey = WordSurvey(*args, inverse if half else None)
        record = survey.record
        try:
            walk(root, root, [], 0, None, (window, cut))
        except _Violation:  # only a walk over inverse pairs raises it
            continue
        return survey
