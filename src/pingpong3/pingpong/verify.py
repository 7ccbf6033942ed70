"""Residue-ball verification of the two ping-pong moves.

The free product sits on two inclusions over the level-M ball partition of
the projective plane:

* C1 sweep: every ball whose representative avoids the window U and both
  slope-u cones must be sent into U by every nonzero power of g.  The
  powers +1 and -1 are checked concretely (window membership, refined
  image level, norm loss within the epsilon budget); all higher powers
  follow from a per-ball certificate: in eigencoordinates the dominant
  coefficient is pinned exactly by the representative, the others are
  floored, and the eigenvalue gaps only widen with the power.
* C2 sweep: every ball inside U, hit by every nontrivial a^m b^n with
  |m|, |n| <= gamma_bound, must land outside U and outside both cones.
  Whether it leaves U, and its exact norm (theta-exactness), follow from
  the exponents of a^m b^n alone; only the cone verdicts are read per ball.

Both are decided on a prefix tree of the balls.  A node is a stratum and
the first d digits of each free coordinate; its representative, with the
trailing M - d digits 0, is itself a ball.  A linear form's digits below
its horizon, d + the least tap position of its coefficients on the free
coordinates, are the same on all of a node's balls, so a node whose read
values all lie below their horizons is decided on its representative and
stands for its q^(2(M - d)) balls; the others split into their q^2
children, one batch per depth from d = 2, down to single balls at d = M.  The window
pass decides each a^m b^n on the window's depth-2 node.  Any violation or
undecidable value falls back to the exhaustive pass, ball by ball, which
writes the failing report and its examples.

A ball is three value indices into one digit table of every coordinate
value below q^M.  The sweep reads balls through a few families of linear
forms -- the two cone forms per apex, the rows of the eigenbasis adjugate
and of g and g^-1 -- in one of two row formats, picked once per sweep
from q and the widest row the domain pass reads:

* at q = 2, when every row fits 64 columns, a digit row is one uint64
  word (bit c = digit at u^c).  A form is XOR-linear in each coordinate,
  so once per sweep a product table holds each coordinate's part of every
  form at each of the q^M values; on a batch the forms are the XOR of one
  gather per coordinate, and the window pass shifts the cone forms' parts
  by the diagonal's exponents.  A first-nonzero position is a
  trailing-zero count.
* otherwise a batch is a (3, M, n) integer array of base-q digits,
  coordinate-major with the ball axis last; a form is a shift-and-add mod
  q of its coefficient taps, one add of a contiguous block per tap.

In both, the window test reads two digit columns and the cone test
compares first-nonzero positions of cross-product digit rows.  Verdicts
transfer from representatives to whole balls only where a
perturbation bound says they must -- those bounds are themselves checked
per ball and reported as violations when they fail, never assumed.  The
scalar predicates in projgeom stay the reference semantics; the tests
cross-check the tree, the exhaustive pass and both formats against them.
Tap digits are read off each coefficient's digits (``_taps``), and
``int_dtype`` sizes the accumulators.  This is the one module of the
package that imports numpy when it loads.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ..digits import support
from ..errors import (
    InsufficientLevel,
    InsufficientPrecision,
    NotSimpleSegment,
    SingularOrUndecidable,
)
from ..projgeom import in_unit_window, window_ball_count
from ..spectral import eigen_flags
from .constants import theta_prime_exponent
from .regular import image_norms, refined_image_level

CHUNK = 1 << 16
_EXAMPLE_CAP = 8


# -- exact digit windows ----------------------------------------------------


def _taps(x, start, stop):
    """(position, digit) pairs of ``x`` in [start, stop), for shift-adds;
    InsufficientPrecision when an inexact ``x`` is not known to u^stop."""
    if not x.exact and x.known_to < stop:
        raise InsufficientPrecision(f"need digits up to u^{stop}, known to u^{x.known_to}")
    return [(p, d) for p, d in enumerate(x.digits, x.lead) if d and start <= p < stop]


def int_dtype(top):
    """Narrowest signed integer dtype that holds 0 .. top.  Under NumPy 2
    promotion an array times a Python int keeps the array's dtype, so an
    array is sized for the largest product or sum it accumulates."""
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _digit_dtype(q):
    """Dtype of the sweep's digit arrays: every digit product fits it."""
    return int_dtype((q - 1) ** 2)


# -- digit rows: integer arrays, or uint64 words at q = 2 -------------------
#
# Both formats share one interface and keep the ball axis last.  ``encode``
# turns the digit table into the format's rows of every coordinate value,
# once per sweep.  A family of k linear forms sum_j x_ij y_j, each form
# given as three tap lists (position, digit) of its coefficients x_ij, into
# the digits at u^lead .. u^(lead + width - 1), is prepared once per sweep
# by ``forms``.  ``chunk`` reads one chunk of balls: their value indices (from
# ``_ball_chunks``) and the index of their pivot coordinate, None for balls
# of mixed strata.  ``evaluate`` gives a family's rows on a chunk; ``at``
# gives them as a function of per-coordinate offsets o, coordinate j
# entering as u^o_j y_j (the balls' images under a monic diagonal), with
# the per-chunk work done once; (3, E) offsets give E images of each ball,
# element-major along the ball axis.  ``first_nonzero`` reads rows back as
# (k, n) positions.  Columns at or past ``width`` are never kept: column c
# of a product only depends on the columns <= c of its factors, so every
# column kept is exact.


class _IntRows:
    """Digit rows as integer arrays, for any q: a chunk is (3, M, n)
    digits, k forms are (k, width, n) digits mod q, evaluated per chunk by
    a tap shift-add.  A tap adds one contiguous (<= M, n) block of a
    coordinate's digits into a contiguous block of its form.  The
    accumulator is the narrowest dtype that holds a form's largest column
    sum, q - 1 times the sum of its tap digits, fixed once per family by
    ``forms``."""

    def __init__(self, q):
        self.q = q

    @staticmethod
    def encode(table):
        return table

    def forms(self, values, taps, lead, width):
        top = (self.q - 1) * max(sum(dig for t in row for _, dig in t) for row in taps)
        return taps, lead, width, int_dtype(top)

    @staticmethod
    def chunk(values, balls, pivot=None):
        """Rows (..., V) of every value, taken at the (x, y, z) index arrays
        ``balls``: (3, ..., n), one contiguous take per coordinate
        (values[..., idx] would not keep the ball axis contiguous) but the
        pivot's, whose one value is filled in.  The chunk is gathered once
        and shared by every family evaluated on it."""
        chunk = np.empty((3, *values.shape[:-1], balls[0].size), dtype=values.dtype)
        for j, (out, idx) in enumerate(zip(chunk, balls)):
            if j == pivot:
                out[...] = values[..., idx[:1]]
            else:
                np.take(values, idx, axis=-1, out=out)
        return chunk

    def evaluate(self, forms, chunk):
        taps, lead, width, dtype = forms
        return self.shift_add(taps, chunk, lead, width, dtype)

    def at(self, forms, chunk):
        taps, lead, width, dtype = forms
        _, level, n = chunk.shape
        low = min((p for row in taps for t in row for p, _ in t), default=lead)
        span = width + lead - low  # image columns a kept form column reads
        padded = np.concatenate([chunk, np.zeros((3, 1, n), chunk.dtype)], axis=1)

        def moved(offsets):
            # column c of u^o y_j is column c - o of y_j, or the zero row
            offsets = np.asarray(offsets).reshape(3, -1, 1)
            cols = np.arange(span) - offsets
            cols[(cols < 0) | (cols >= level)] = level
            img = np.stack([y[c] for y, c in zip(padded, cols)])
            img = img.transpose(0, 2, 1, 3).reshape(3, span, -1)
            return self.shift_add(taps, img, lead, width, dtype)

        return moved

    def shift_add(self, taps, chunk, lead, width, dtype):
        _, level, n = chunk.shape
        out = np.zeros((len(taps), width, n), dtype=dtype)
        for acc, row in zip(out, taps):
            for y, coord_taps in zip(chunk, row):
                for pos, dig in coord_taps:
                    col = pos - lead
                    stop = min(col + level, width)
                    if col < stop:
                        block = y[: stop - col]
                        acc[col:stop] += block if dig == 1 else dig * block
        # out % q: NumPy divides an integer array by a scalar through a
        # precomputed multiply, several times faster than its remainder
        out -= self.q * (out // self.q)
        return out

    @staticmethod
    def first_nonzero(rows, none_value):
        """Leading zero count of each row, capped at none_value: one
        contiguous pass per column, not an argmax across them, until no
        row is still zero."""
        zero = rows[..., 0, :] == 0
        count = zero.astype(int_dtype(rows.shape[-2]))
        for c in range(1, rows.shape[-2]):
            if not zero.any():
                break
            zero &= rows[..., c, :] == 0
            count += zero
        return np.minimum(count.astype(np.int64), none_value)

    def lead_column(self, img, width):
        """First column where any of the three coordinates is nonzero."""
        return self.first_nonzero(img.any(axis=0), width)

    @staticmethod
    def window_mask(img, vm_col):
        """Pairwise digit agreement at columns vm, vm+1 (the level-2 window)."""
        n = img.shape[2]
        flat = img.reshape(3, -1)
        at = vm_col * n + np.arange(n)
        mask = np.ones(n, dtype=bool)
        for col in (at, at + n):
            x, y, z = np.take(flat, col, axis=1)
            mask &= (x == y) & (x == z)
        return mask


class _BitChunk:
    """A chunk at q = 2: its balls' value indices and pivot coordinate, at
    which forms read their tables."""

    def __init__(self, balls, pivot):
        self.balls, self.pivot = balls, pivot

    def take(self, table, j):
        """The (k, V) ``table`` at coordinate j's value indices: (k, n), or
        (k, 1) for the pivot, whose value is the same on every ball."""
        idx = self.balls[j]
        return table[:, idx[:1]] if j == self.pivot else np.take(table, idx, axis=1)


class _BitRows:
    """q = 2 digit rows as uint64 words, bit c holding the digit at
    u^(lead + c): k forms, images and chunks are (k, n) words.  Every
    nonzero digit is 1 and -1 = 1, so a tap XORs in the shifted word and
    nothing is reduced.  A form is linear over XOR in each coordinate, so
    ``forms`` evaluates each coordinate's part x_ij v of every form at
    every value v once per sweep, into one (k, V) product table per
    coordinate; on a chunk the forms are the XOR of one take per coordinate
    at its value indices, the pivot's table column a constant.  Rows must
    fit 64 columns (``_row_format``)."""

    @staticmethod
    def encode(table):
        """One word per value: digit c of the (M, V) table is bit c."""
        words = np.zeros(table.shape[1], dtype=np.uint64)
        for c, digits in enumerate(table):
            words |= digits.astype(np.uint64) << np.uint64(c)
        return words

    def forms(self, values, taps, lead, width):
        """One (k, V) product table per coordinate j: the taps on y_j alone,
        shift-added over every value."""
        every = np.broadcast_to(values, (3, values.size))
        tables = []
        for j in range(3):
            only_j = [[t if i == j else [] for i, t in enumerate(row)] for row in taps]
            tables.append(self.shift_add(only_j, every, lead, width))
        return tables, width

    @staticmethod
    def chunk(values, balls, pivot=None):
        return _BitChunk(balls, pivot)

    @staticmethod
    def evaluate(forms, chunk):
        """One take per coordinate, XORed in as it comes (pivot last), so
        at most two (k, n) arrays are alive at once."""
        tables, _ = forms
        order = sorted(range(3), key=lambda j: j == chunk.pivot)
        out = chunk.take(tables[order[0]], order[0])
        for j in order[1:]:
            out ^= chunk.take(tables[j], j)
        return out

    @staticmethod
    def at(forms, chunk):
        tables, width = forms
        parts = [chunk.take(table, j)[:, None] for j, table in enumerate(tables)]
        k, n = len(tables[0]), chunk.balls[0].size

        def moved(offsets):
            offsets = np.asarray(offsets, dtype=np.uint64).reshape(3, -1, 1)
            out = np.zeros((k, offsets.shape[1], n), dtype=np.uint64)
            for part, off in zip(parts, offsets):
                out ^= part << off  # a shift by 64 or more gives 0
            out &= (1 << width) - 1
            return out.reshape(k, -1)

        return moved

    @staticmethod
    def shift_add(taps, chunk, lead, width):
        out = np.zeros((len(taps), chunk.shape[1]), dtype=np.uint64)
        for acc, row in zip(out, taps):
            for y, coord_taps in zip(chunk, row):
                for pos, _ in coord_taps:
                    if pos - lead < width:
                        acc ^= y << np.uint64(pos - lead)
        out &= (1 << width) - 1
        return out

    @staticmethod
    def first_nonzero(rows, none_value):
        """Trailing-zero count: ~x & (x - 1) keeps the bits below the lowest
        set one (all 64 when x = 0)."""
        zeros = np.bitwise_count(~rows & (rows - 1))
        return np.minimum(zeros, none_value).astype(np.int64)

    def lead_column(self, img, width):
        return self.first_nonzero(img[0] | img[1] | img[2], width)

    @staticmethod
    def window_mask(img, vm_col):
        diff = (img[0] ^ img[1]) | (img[0] ^ img[2])
        return ((diff >> vm_col.astype(np.uint64)) & 3) == 0


def _row_format(q, width):
    """Bit rows at q = 2 when every row read fits one 64-bit word, else
    integer rows."""
    return _BitRows() if q == 2 and width <= 64 else _IntRows(q)


# -- ball enumeration in bulk ------------------------------------------------


def _digit_table(q, level):
    """(level, q^level) base-q digits of every coordinate value: column v
    holds the digits at u^0 .. u^(level - 1), the first most significant,
    so v runs in the order of itertools.product(range(q), repeat=level).
    Values below q^(level - 1) are those in uO; q^(level - 1) is 1."""
    v = np.arange(q**level)
    digits = [v // q ** (level - 1 - j) % q for j in range(level)]
    return np.array(digits, dtype=_digit_dtype(q))


def _blocks(outer, inner, chunk):
    """(a, b) index arrays over [0, outer) x [0, inner), a-major, in slices
    of ``chunk`` pairs."""
    for lo in range(0, outer * inner, chunk):
        yield np.divmod(np.arange(lo, min(lo + chunk, outer * inner)), inner)


def _ball_chunks(q, level, chunk):
    """Yield (stratum, (x, y, z)) blocks covering the level-M partition,
    each coordinate an array of value indices into ``_digit_table``.

    Mirrors the deterministic order of projgeom.enumerate_balls: pivot z
    (x, y free), pivot y (x free, z in uO), pivot x (y, z in uO).
    """
    free, one = q**level, q ** (level - 1)
    for stratum, outer, inner in ((2, free, free), (1, free, one), (0, one, one)):
        for a, b in _blocks(outer, inner, chunk):
            pivot = np.broadcast_to(one, a.shape)
            yield stratum, ((pivot, a, b), (a, pivot, b), (a, b, pivot))[stratum]


def _window_balls(q, level, chunk):
    """Yield (x, y, z) blocks of the balls inside the unit window, in
    slices of ``chunk``: x and y have digits 1, 0 at u^0, u^1 and z is the
    pivot 1, x-major, so they come in the order the domain pass meets them."""
    one, side = q ** (level - 1), q ** (level - 2)
    for a, b in _blocks(side, side, chunk):
        a += one  # in place: the generator holds no second copy
        b += one
        yield a, b, np.broadcast_to(one, a.shape)


def _text(table, balls, row):
    groups = ("".join(str(d) for d in table[:, v[row]]) for v in balls)
    return f"{table.shape[0]}:" + "/".join(groups)


# -- bulk predicates ---------------------------------------------------------


class _ConeTest:
    """Bulk form of in_slope_u_cone against a fixed apex a.

    With n = a x y, the slope is congruent to u iff val(n0 + u n1) >=
    val(n1) + 2 (the sign the scalar route puts on -n0 - u n1 does not move
    valuations).  Both n1 = a2 y0 - a0 y2 and comb = n0 + u n1 = u a2 y0 -
    a2 y1 + (a1 - u a0) y2 are linear forms in y: ``forms``, one family of
    the sweep's row format.  The apex digits are exact on [0, depth), so the
    forms are trusted on columns [0, depth) only.  ``verdicts`` reads the
    forms evaluated on a chunk, or on its images under a^m b^n, and returns
    (in_cone, val_n1, val_comb, undecided) with the two valuations as
    column indices (depth meaning "at least depth"); an undecided row's
    verdict would need digits at or beyond the horizon, and the sweep
    raises InsufficientPrecision for it.  ``low`` holds each form's least
    tap position per coordinate, which the prefix tree's horizons start
    from.
    """

    def __init__(self, rows, values, apex, depth):
        a0, a1, a2 = apex
        self.rows, self.depth = rows, depth
        forms = ((a2, None, -a0), (a2.shift(1), -a2, a1 - a0.shift(1)))
        self.taps = [
            [[] if x is None else _taps(x, 0, depth) for x in form] for form in forms
        ]
        self.forms = rows.forms(values, self.taps, 0, depth)
        self.low = _low(self.taps, 0)

    def verdicts(self, forms):
        d = self.depth
        v1, vc = self.rows.first_nonzero(forms, d)
        return vc >= v1 + 2, v1, vc, (vc >= d) & (v1 >= d - 1)

    def decided(self, v1, vc, h1, hc):
        """Whether a node's verdict, read on its representative, holds on
        all its balls, whose n1 and comb columns are the representative's
        below h1 and hc: one side is exact and the other provably far
        enough.  Its transfer flag and undecided row are then those of all
        its balls too, or flagged on the representative, which sends the
        sweep to the exhaustive pass."""
        d = self.depth
        e1, ec = (v1 < h1) | (h1 >= d), (vc < hc) | (hc >= d)
        return (e1 & (ec | (hc >= v1 + 2))) | (ec & (vc <= h1 + 1))


_CONE_HORIZON = "cone verdict ran past the apex digit horizon; raise the depth"
_FAR = 1 << 30  # the least tap position of a coefficient with no taps


def _horizon(low, d, pivot, offsets=None):
    """(k, n): below it each form reads the same digits on all balls of n
    depth-d nodes, d + its least tap position (``low``, (k, 3)) on a free
    coordinate (not ``pivot``, (n, 3)), moved by ``offsets`` (n, 3)."""
    if offsets is not None:
        low = low + offsets[:, None]
    return d + np.where(pivot[:, None], _FAR, low).min(axis=-1).T


def _low(taps, lead):
    """(k, 3) least tap position of each form's coefficient on each
    coordinate, counted from the column of u^lead."""
    return np.array(
        [[min((p for p, _ in t), default=_FAR + lead) - lead for t in row] for row in taps]
    )


# -- report ------------------------------------------------------------------


class Violation(NamedTuple):
    kind: str
    element: str
    ball: str
    detail: str = ""

    def __str__(self):
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.kind}: {self.element} on {self.ball}{tail}"


class PingPongReport:
    """Outcome of the exhaustive sweep; ``passed`` means zero violations."""

    MAX_EXAMPLES = 20

    def __init__(self, q, level, gamma_bound, epsilon_exponent=0):
        self.q, self.level, self.gamma_bound = q, level, gamma_bound
        self.epsilon_exponent = epsilon_exponent
        self.domain_balls = self.window_balls = self.gamma_elements = self.checked_images = 0
        self.min_growth_margin = self.min_cert_slack = self.min_image_level = None
        self.violation_counts, self.examples = {}, []

    @property
    def total_violations(self):
        return sum(self.violation_counts.values())

    @property
    def passed(self):
        return self.total_violations == 0

    def add_violation(self, kind, element, ball, detail=""):
        self.violation_counts[kind] = self.violation_counts.get(kind, 0) + 1
        if len(self.examples) < self.MAX_EXAMPLES:
            self.examples.append(Violation(kind, element, ball, detail))

    def merge_min(self, name, value):
        old = getattr(self, name)
        if old is None or value < old:
            setattr(self, name, int(value))

    def summary(self):
        verdict = (
            "PASS" if self.passed else f"FAIL ({self.total_violations} violations)"
        )
        lines = [
            f"level {self.level} sweep, gamma bound {self.gamma_bound}: {verdict}",
            f"  domain balls {self.domain_balls}, window balls {self.window_balls}, "
            f"gamma elements {self.gamma_elements}, images checked {self.checked_images}",
            f"  growth margin slack >= {self.min_growth_margin}, "
            f"certificate slack >= {self.min_cert_slack}, "
            f"image level >= {self.min_image_level}",
        ]
        for kind, count in sorted(self.violation_counts.items()):
            lines.append(f"  {kind}: {count}")
        lines.extend(f"    {v}" for v in self.examples)
        return "\n".join(lines)

    def as_dict(self):
        return {
            "q": self.q,
            "level": self.level,
            "gamma_bound": self.gamma_bound,
            "epsilon_exponent": self.epsilon_exponent,
            "domain_balls": self.domain_balls,
            "window_balls": self.window_balls,
            "gamma_elements": self.gamma_elements,
            "checked_images": self.checked_images,
            "min_growth_margin": self.min_growth_margin,
            "min_cert_slack": self.min_cert_slack,
            "min_image_level": self.min_image_level,
            "violations": dict(sorted(self.violation_counts.items())),
            "passed": self.passed,
        }


def _flag(report, kind, element, mask, text_fn, detail_fn=None):
    rows = np.nonzero(mask)[0]
    if rows.size == 0:
        return
    for r in rows[:_EXAMPLE_CAP]:
        detail = detail_fn(int(r)) if detail_fn else ""
        report.add_violation(kind, element, text_fn(int(r)), detail)
    extra = int(rows.size) - min(_EXAMPLE_CAP, int(rows.size))
    if extra:
        report.violation_counts[kind] += extra


# -- the domain pass: one evaluator, two ways to walk the balls ------------


class _Sweep:
    """One sweep's fixed data, built once: the digit table in its row
    format, the form families the domain pass reads (both cones, the
    eigenbasis adjugate, g and g^-1) and the bounds its checks use.
    ``read`` is the one evaluator of the domain pass's predicates; the
    exhaustive pass and the prefix tree both call it."""

    def __init__(self, q, level, g, eigen, epsilon_exponent):
        self.q, self.level, self.epsilon_exponent = q, level, epsilon_exponent
        self.w = eigen.valuations
        adj = eigen.adjugate
        self.vm_adj = vm_adj = adj.min_val()
        self.r_plus, self.r_minus = eigen.row_floors
        # dot digits from floor_cap on are ball-dependent
        self.floor_cap = level + vm_adj
        bound = 2 + max(self.r_plus, self.r_minus)
        if self.floor_cap <= bound:
            raise InsufficientLevel(f"level {level} cannot pin dominant "
                f"eigencoordinates (cap {self.floor_cap} vs margin bound {bound})")  # fmt: skip
        self.sides = []
        for label, (mat, lognorm, compound) in zip(("g", "g^-1"), image_norms(g)):
            if not mat.exact:
                raise ValueError("the cyclic generator and its inverse must be exact")
            lo, hi = support(x for row in mat.rows for x in row)
            taps = [[_taps(mat.rows[i][j], lo, hi) for j in range(3)] for i in range(3)]
            self.sides.append(dict(
                label=label, lead=lo, width=hi - lo + level - 1, taps=taps,
                low=_low(taps, lo), lognorm=lognorm, lognorm_compound=compound,
            ))  # fmt: skip

        self.depth = level + 8
        dot_stop = self.floor_cap + 2
        self.horizon = dot_stop - vm_adj
        adj_taps = [
            [_taps(adj.rows[i][j], vm_adj, dot_stop) for j in range(3)] for i in range(3)
        ]
        self.adj_low = _low(adj_taps, vm_adj)
        self.table = _digit_table(q, level)
        widest = max(self.depth, self.horizon, *(side["width"] for side in self.sides))
        self.rows = rows = _row_format(q, widest)
        self.values = rows.encode(self.table)
        apexes = (eigen.vectors[0], eigen.vectors[2])
        self.cones = [_ConeTest(rows, self.values, a, self.depth) for a in apexes]
        self.adj_forms = rows.forms(self.values, adj_taps, vm_adj, self.horizon)
        for side in self.sides:
            side["forms"] = rows.forms(self.values, side["taps"], side["lead"], side["width"])
        # x and y of a window ball read 1, 0 at u^0, u^1: the two leading
        # base-q digits of their values make q
        self.digit_1 = q ** (level - 2)

    def read(self, balls, stratum, pivot=None):
        """Every value the domain pass reads on a batch of (x, y, z) value
        indices, of one ``stratum`` or one per ball: in_u, both cone
        verdicts, the rows ``dom`` outside U and both cones with their
        ``val``, image lead columns and the values the report takes minima
        of; then ``raises`` (mask, message) and ``flags`` (kind, element,
        mask, detail, read on ``dom``), in report order."""
        rows, q, level = self.rows, self.q, self.level
        chunk = rows.chunk(self.values, balls, pivot)
        in_u = stratum == 2
        for coord in balls[:2]:
            in_u = in_u & (coord // self.digit_1 == q)
        cones = [cone.verdicts(rows.evaluate(cone.forms, chunk)) for cone in self.cones]
        raises = [(undecided & ~in_u, _CONE_HORIZON) for *_, undecided in cones]
        flags = []
        for (verdict, v1, vc, _), name in zip(cones, "+-"):
            # verdicts must be constant on each non-window ball (window
            # balls leave the domain regardless): perturbations enter the
            # cross product at column >= level
            moves = verdict & ((v1 + 2 > level) | (v1 >= self.depth))
            moves |= ~verdict & (vc + 1 > level)
            detail = lambda r, v1=v1, vc=vc: f"v1 {int(v1[r])}, vcomb {int(vc[r])}"  # noqa: E731
            flags.append(("cone-transfer", f"cone{name}", ~in_u & moves, detail, False))
        dom = np.nonzero(~in_u & ~cones[0][0] & ~cones[1][0])[0]
        chunk = rows.chunk(self.values, [v[dom] for v in balls], pivot)

        # eigencoordinate valuations VAL_i = val(adj_i . y), trusted up to
        # dot_stop; beyond floor_cap they are ball-dependent, so floor them
        coords = rows.evaluate(self.adj_forms, chunk)
        val = rows.first_nonzero(coords, self.horizon) + self.vm_adj
        del coords  # not held through the image pass below
        (val1, _, val3), (f1, f2, f3) = val, np.minimum(val, self.floor_cap)
        # outside the cones the outer eigencoordinates must stay large;
        # these margins carry the uniform norm-loss budget to all powers
        top_plus, top_minus = 2 + self.r_plus, 2 + self.r_minus
        # power certificates: the dominant coordinate is pinned exactly,
        # the gaps to the others only widen as the power grows
        w1, w2, w3 = self.w
        cert_plus = np.minimum(f2 + (w2 - w1), f3 + (w3 - w1)) - val1
        cert_minus = np.minimum(f2 + (w3 - w2), f1 + (w3 - w1)) - val3
        flags += [
            ("margin", "adj row +", val1 > top_plus,
             lambda r: f"val {int(val1[r])} > {top_plus}", True),
            ("margin", "adj row -", val3 > top_minus,
             lambda r: f"val {int(val3[r])} > {top_minus}", True),
            ("cert", "g^N, N >= 1", (cert_plus < 2) | (val1 >= self.floor_cap),
             lambda r: f"slack {int(cert_plus[r]) - 2}", True),
            ("cert", "g^N, N <= -1", (cert_minus < 2) | (val3 >= self.floor_cap),
             lambda r: f"slack {int(cert_minus[r]) - 2}", True),
        ]  # fmt: skip

        # concrete images under g and g^-1
        vm_cols, levels, eps = [], [], self.epsilon_exponent
        for side in self.sides:
            width, label = side["width"], side["label"]
            img = rows.evaluate(side["forms"], chunk)
            vm_col = rows.lead_column(img, width)
            raises.append((vm_col >= width - 1, "image lost inside its digit window"))
            in_window = rows.window_mask(img, np.minimum(vm_col, width - 2))
            vm = vm_col + side["lead"]
            level_img = refined_image_level(
                level, vm, side["lognorm"], side["lognorm_compound"]
            )
            loss = vm + side["lognorm"]
            flags += [
                ("image-window", label, ~in_window, None, True),
                ("image-level", label, level_img < 2,
                 lambda r, lv=level_img: f"level {int(lv[r])}", True),
                ("epsilon", label, loss > eps,
                 lambda r, loss=loss: f"loss {int(loss[r])} > {eps}", True),
            ]  # fmt: skip
            vm_cols.append(vm_col)
            levels.append(level_img)
        least = {
            "min_growth_margin": np.minimum(top_plus - val1, top_minus - val3),
            "min_cert_slack": np.minimum(cert_plus, cert_minus) - 2,
            "min_image_level": np.minimum(*levels),
        }
        return SimpleNamespace(
            in_u=in_u, cones=cones, dom=dom, val=val, vm_cols=vm_cols,
            least=least, raises=raises, flags=flags,
        )  # fmt: skip


def _domain_pass(sweep, report):
    """The domain pass ball by ball, CHUNK balls at a time in the order of
    projgeom.enumerate_balls: the reference the prefix tree reproduces, and
    the pass whose violations and examples a failing report carries."""
    for stratum, balls in _ball_chunks(sweep.q, sweep.level, CHUNK):
        r = sweep.read(balls, stratum, stratum)
        for mask, message in r.raises:
            if mask.any():
                raise InsufficientPrecision(message)
        m = r.dom.size
        report.window_balls += int(r.in_u.sum())
        report.domain_balls += m
        report.checked_images += len(sweep.sides) * m
        texts = lambda i: _text(sweep.table, balls, i)  # noqa: E731
        dom_texts = lambda i: texts(r.dom[i])  # noqa: E731
        for kind, element, mask, detail, on_dom in r.flags:
            _flag(report, kind, element, mask, dom_texts if on_dom else texts, detail)
        for name, values in r.least.items() if m else ():
            report.merge_min(name, values.min())


def _nodes(sweep, d, s, a, b):
    """Read the depth-d nodes, d >= 2, of strata ``s`` whose free
    coordinates lead with the digits ``a`` and ``b`` on their
    representatives; returns the read and which nodes it decides: in-U,
    both cone verdicts, val1 and val3, val2 up to floor_cap, and the image
    lead column and the one after it, each below its horizon."""
    q, level = sweep.q, sweep.level
    one, a, b = q ** (level - 1), a * q ** (level - d), b * q ** (level - d)
    balls = (
        np.where(s == 0, one, a),
        np.where(s == 0, a, np.where(s == 1, one, b)),
        np.where(s == 2, one, b),
    )
    r = sweep.read(balls, s)
    pivot = np.arange(3) == s[:, None]

    def horizon(low, rows=slice(None)):  # at d = M a node is one ball
        h = _horizon(low, d, pivot[rows])
        return h if d < level else np.full_like(h, _FAR)

    decided = ~r.in_u
    for cone, (_, v1, vc, _) in zip(sweep.cones, r.cones):
        decided &= cone.decided(v1, vc, *horizon(cone.low))
    decided |= r.in_u
    caps = np.array([[sweep.horizon], [level], [sweep.horizon]])
    h = horizon(sweep.adj_low, r.dom)
    done = ((r.val - sweep.vm_adj < h) | (h >= caps)).all(axis=0)
    for side, vm_col in zip(sweep.sides, r.vm_cols):
        h = horizon(side["low"].min(axis=0, keepdims=True), r.dom)[0]
        done &= (vm_col + 1 < h) | (h >= side["width"])
    decided[r.dom] &= done
    return r, decided


def _domain_tree(sweep, report):
    """The domain pass over the prefix tree, from the children of the
    depth-1 nodes (the points of the plane over F_q; a coordinate in uO
    leads with 0), none of which is in U or was ever seen decided.
    Returns False, leaving ``report`` alone, once a representative shows a
    violation or an undecidable value: the exhaustive pass then reports the sweep."""
    q, level = sweep.q, sweep.level
    s = np.repeat([2, 1, 0], [q * q, q, 1])
    a = np.concatenate([np.arange(q * q) // q, np.arange(q), [0]])
    b = np.concatenate([np.arange(q * q) % q, np.zeros(q + 1, dtype=int)])
    keep, digit = np.ones(s.size, dtype=bool), np.arange(q * q)
    window, domain, least = 0, 0, []
    for d in range(2, level + 1):
        s = np.repeat(s[keep], q * q)
        a = (a[keep, None] * q + digit // q).ravel()
        b = (b[keep, None] * q + digit % q).ravel()
        if not s.size:
            break
        balls, split = q ** (2 * (level - d)), []
        for part in (slice(lo, lo + CHUNK) for lo in range(0, s.size, CHUNK)):
            r, decided = _nodes(sweep, d, s[part], a[part], b[part])
            if any(m.any() for m, _ in r.raises) or any(f[2].any() for f in r.flags):
                return False
            window += balls * int(np.count_nonzero(decided & r.in_u))
            done = decided[r.dom]
            domain += balls * int(np.count_nonzero(done))
            if done.any():
                least += [(name, v[done].min()) for name, v in r.least.items()]
            split.append(~decided)
        keep = np.concatenate(split)
    report.window_balls += window
    report.domain_balls += domain
    report.checked_images += len(sweep.sides) * domain
    for name, value in least:
        report.merge_min(name, value)
    return True


# -- the window pass --------------------------------------------------------


def _gamma_table(pair, gamma_bound):
    """Diagonal valuation triples of every nontrivial a^m b^n in the box.

    Read from the pair's exponent triples (a DiagPair only holds monomial
    diagonals); a non-monic element is refused, because the image digits
    below are the window digits moved, not scaled.
    """
    table = []
    for m in range(-gamma_bound, gamma_bound + 1):
        for n in range(-gamma_bound, gamma_bound + 1):
            if m == 0 and n == 0:
                continue
            exps, coeffs = pair.monomial(m, n)
            if any(c != 1 for c in coeffs):
                raise ValueError("gamma sweep needs monic monomial diagonals")
            table.append((f"a^{m} b^{n}", exps))
    return table


def _image_cones(sweep, moved, offsets, pert):
    """Per cone (in_cone, transfer, undecided, v1, vc) of window images
    under the diagonals of ``offsets``.  A verdict outside the cone holds
    on the whole image ball only if its comb column lies below pert, where
    ball points start to move the image digits: ``transfer`` flags the
    others."""
    out = []
    for cone, forms in zip(sweep.cones, moved):
        verdict, v1, vc, undecided = cone.verdicts(forms(offsets))
        out.append((verdict, ~verdict & (vc + 1 > pert), undecided, v1, vc))
    return out


def _window_root(sweep, elements):
    """Which elements the window's depth-2 node decides with no flag.  Its
    representative (1, 1, 1) has the images (u^o_x, u^o_y, u^o_z), read for
    every element in one batch per cone; on the node's balls x and y move
    at column 2 + o, so a form's columns below 2 + min over x, y of (its
    least tap position + o) are every ball's own."""
    one = np.full(1, sweep.q ** (sweep.level - 1))
    chunk = sweep.rows.chunk(sweep.values, (one, one, one), 2)
    moved = [sweep.rows.at(cone.forms, chunk) for cone in sweep.cones]
    offsets = np.array([o for _, o, _ in elements]).T
    pert = np.array([p for _, _, p in elements])
    clean = offsets.any(axis=0)
    reads = _image_cones(sweep, moved, offsets, pert)
    for cone, (verdict, transfer, undecided, v1, vc) in zip(sweep.cones, reads):
        h1, hc = _horizon(cone.low, 2, np.arange(3)[None] == 2, offsets.T)
        clean &= cone.decided(v1, vc, h1, hc) & ~verdict & ~transfer & ~undecided
    return clean


# -- the verifier ------------------------------------------------------------


def verify_pingpong(pair, g, level, gamma_bound, eigen=None, epsilon_exponent=None):
    """Check both ping-pong inclusions on every level-M ball.

    The domain pass runs over the prefix tree (``_domain_tree``) and the
    window pass decides each element on the window's depth-2 node
    (``_window_root``).  A node is decided on its representative when
    every value the sweep reads lies below its horizon: d plus the least
    tap position of the form's coefficients on the free coordinates.  A
    violation or an undecidable value falls back to the exhaustive
    passes, ball by ball, whose examples a failing report carries.

    ``g`` generates the cyclic factor (the pipeline passes the already
    powered element); ``pair`` the rank-two diagonal factor.  Returns a
    PingPongReport.  Raises InsufficientLevel only for globally infeasible
    levels, and ValueError for a negative gamma bound (a bound of 0 runs
    the domain pass alone); every data-dependent failure is a reported
    violation.
    """
    q = pair.q
    if gamma_bound < 0:
        raise ValueError("the gamma bound must be at least 0")
    if level < 3:
        raise InsufficientLevel(
            "sweep levels below 3 cannot transfer cone verdicts to balls"
        )
    if not g.exact:
        raise ValueError("the cyclic generator must be exact")
    report = PingPongReport(q, level, gamma_bound)

    # a non-proximal or misplaced g is a reported failure, not a crash
    if eigen is None:
        try:
            eigen = eigen_flags(g, precision=2 * level + 24)
        except (NotSimpleSegment, SingularOrUndecidable, InsufficientPrecision) as e:
            report.add_violation("not-proximal", "g", "-", str(e))
            return report
    apex_plus, apex_minus = eigen.vectors[0], eigen.vectors[2]
    for label, apex in (("attracting", apex_plus), ("repelling", apex_minus)):
        if in_unit_window(apex) is not True:
            report.add_violation(
                "flags-out-of-position", "g", "-", f"{label} point not in the window"
            )
    if not report.passed:
        return report

    if epsilon_exponent is None:
        epsilon_exponent = theta_prime_exponent(eigen)
    report.epsilon_exponent = int(epsilon_exponent)

    sweep = _Sweep(q, level, g, eigen, epsilon_exponent)
    if not _domain_tree(sweep, report):
        _domain_pass(sweep, report)

    # -- C2: window balls under the rank-two factor --------------------------
    # the window pass enumerates its own balls; the domain pass met them
    expected = window_ball_count(q, level)
    if report.window_balls != expected:
        raise AssertionError(
            f"the domain pass met {report.window_balls} window balls, expected {expected}"
        )

    gammas = _gamma_table(pair, gamma_bound)
    report.gamma_elements = len(gammas)
    # Coordinate i of a window ball reads 1, 0 at u^0, u^1, so under a
    # monic a^m b^n with offsets o_i = e_i - min(e) coordinate i of the
    # image reads (1, 0) there when o_i = 0, (0, 1) when o_i = 1 and (0, 0)
    # past that, on every ball alike.  The image's lead column is therefore
    # 0 (theta-exactness holds), and it lies in U exactly when no offset is
    # nonzero, for every ball of the window at once; its cones are then not
    # read.  Only the cone verdicts depend on the ball.  Ball points perturb
    # x and y at u^level, so image digits are ball-independent below column
    # pert = level + min(o_x, o_y).  Both pert and the image level (level
    # plus the gap between the two least exponents) are at least level >= 3.
    elements = []
    for label, dvals in gammas:
        svals = sorted(dvals)
        report.merge_min("min_image_level", level + svals[1] - svals[0])
        offsets = [d - svals[0] for d in dvals]
        elements.append((label, offsets, level + min(offsets[0], offsets[1])))
    if not elements:
        return report
    pending = [e for e, done in zip(elements, _window_root(sweep, elements)) if not done]
    report.checked_images += (len(elements) - len(pending)) * expected
    if not pending:
        return report

    rows = sweep.rows
    for balls in _window_balls(q, level, CHUNK):
        n = balls[0].size
        w_texts = lambda r: _text(sweep.table, balls, r)  # noqa: E731
        chunk = rows.chunk(sweep.values, balls, 2)  # z is the pivot 1
        moved = [rows.at(cone.forms, chunk) for cone in sweep.cones]
        for label, offsets, pert in pending:
            report.checked_images += n
            if not any(offsets):
                _flag(report, "gamma-window", label, np.ones(n, dtype=bool), w_texts)
                continue
            reads = _image_cones(sweep, moved, offsets, pert)
            for (verdict, transfer, undecided, _, vc), name in zip(reads, "+-"):
                if undecided.any():
                    raise InsufficientPrecision(_CONE_HORIZON)
                _flag(report, f"gamma-cone{name}", label, verdict, w_texts)
                _flag(
                    report,
                    "ball-transfer",
                    label,
                    transfer,
                    w_texts,
                    lambda r, vc=vc: f"vcomb {int(vc[r])} vs stable columns {pert}",
                )
        del moved  # not held while the next chunk gathers its parts

    return report
