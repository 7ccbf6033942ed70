"""Exhaustive residue-ball verification of the two ping-pong moves.

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
  |m|, |n| <= gamma_bound, must land outside U and outside both cones,
  with the exact ultrametric norm identity (theta-exactness).

Everything runs on digit rows in bulk, in one of two formats picked from
q and the widest row each pass reads (the domain pass and the window pass
pick theirs separately):

* at q = 2, when every row fits 64 columns, each coordinate's digit row is
  one uint64 word (bit c = digit at u^c): a shift-add tap is an XOR of a
  shifted word, a first-nonzero position is a trailing-zero count;
* otherwise a chunk of balls is a (3, M, n) integer array of base-q
  digits, coordinate-major with the ball axis last, and matrix action is
  shift-and-add mod q: each tap is one add of a contiguous block of n
  balls into a narrow accumulator.

In both, the window test reads two digit columns and the cone test
compares first-nonzero positions of cross-product digit rows.  Verdicts
transfer from representatives to whole balls only where a perturbation
bound says they must -- those bounds are themselves checked per ball and
reported as violations when they fail, never assumed.  The scalar
predicates in projgeom stay the reference semantics; the tests
cross-check both routes and both formats on samples.  The tap digits of
g, g^-1, the eigenbasis adjugate and the cone apexes, and the accumulator
widths, come from ``pingpong3.digits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..digits import int_dtype, support, window
from ..errors import (
    InsufficientLevel,
    InsufficientPrecision,
    NotSimpleSegment,
    SingularOrUndecidable,
)
from ..linalg import vec_min_val
from ..projgeom import in_unit_window, window_ball_count
from ..spectral import eigen_flags
from .constants import theta_prime_exponent

CHUNK = 1 << 16
_EXAMPLE_CAP = 8


# -- exact digit windows ----------------------------------------------------


def _taps(x, start, stop):
    """(position, digit) pairs of ``x`` inside the window, for shift-adds."""
    row = window([x], start, stop)[0]
    return [(start + int(p), int(row[p])) for p in np.nonzero(row)[0]]


def _digit_dtype(q):
    """Dtype of the sweep's digit arrays: every digit product fits it."""
    return int_dtype((q - 1) ** 2)


# -- digit rows: integer arrays, or uint64 words at q = 2 -------------------
#
# Both formats share one interface and store digits coordinate-major, with
# the ball axis last.  A chunk of balls comes from ``_ball_chunks`` as
# (n, 3, M) digits and ``pack`` turns it into the format's chunk;
# ``shift_add`` evaluates k linear forms sum_j x_ij y_j on a chunk, each
# form given as three tap lists (position, digit) of its coefficients
# x_ij, into the digits at u^lead .. u^(lead + width - 1), and
# ``first_nonzero`` reads those rows back as (n, k) positions.  Columns at
# or past ``width`` are never computed: column c of a product only depends
# on the columns <= c of its factors, so every column kept is exact.


class _IntRows:
    """Digit rows as integer arrays, for any q: a chunk is (3, M, n)
    digits, k forms are (k, width, n) digits mod q.  A tap adds one
    contiguous (<= M, n) block of a coordinate's digits into a contiguous
    block of its form.  The accumulator is the narrowest dtype that holds
    a form's largest column sum, q - 1 times the sum of its tap digits."""

    def __init__(self, q):
        self.q = q

    @staticmethod
    def pack(reps):
        return np.ascontiguousarray(reps.transpose(1, 2, 0))

    @staticmethod
    def take(chunk, idx):
        # np.take keeps the ball axis contiguous; chunk[..., idx] does not
        return np.take(chunk, idx, axis=-1)

    def shift_add(self, taps, chunk, lead, width):
        _, level, n = chunk.shape
        top = (self.q - 1) * max(
            sum(dig for coord_taps in row for _, dig in coord_taps) for row in taps
        )
        out = np.zeros((len(taps), width, n), dtype=int_dtype(top))
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
        """Leading zero count of each row, capped at none_value, ball axis
        first: one contiguous pass per column, not an argmax across them."""
        zero = rows[..., 0, :] == 0
        count = zero.astype(int_dtype(rows.shape[-2]))
        for c in range(1, rows.shape[-2]):
            zero &= rows[..., c, :] == 0
            count += zero
        return np.minimum(count.astype(np.int64), none_value).T

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

    @staticmethod
    def diagonal(chunk, offsets, width):
        """Each coordinate moved right by its offset (a monic diagonal)."""
        _, level, n = chunk.shape
        img = np.zeros((3, width, n), dtype=chunk.dtype)
        for k, off in enumerate(offsets):
            img[k, off : off + level] = chunk[k]
        return img


class _BitRows:
    """q = 2 digit rows as uint64 words, bit c holding the digit at
    u^(lead + c): a chunk is (n, 3) words, k forms are (n, k) words, both
    stored coordinate-major so each coordinate's words are contiguous.
    Every nonzero digit is 1 and -1 = 1, so a tap XORs in the shifted word
    and nothing is reduced.  Rows must fit 64 columns (``_row_format``)."""

    @staticmethod
    def pack(reps):
        n, _, level = reps.shape
        words = np.zeros((3, n, 8), dtype=np.uint8)
        words[..., : (level + 7) // 8] = np.packbits(
            reps.transpose(1, 0, 2), axis=-1, bitorder="little"
        )
        return words.view("<u8")[..., 0].T

    @staticmethod
    def take(chunk, idx):
        return chunk.T[:, idx].T

    @staticmethod
    def shift_add(taps, chunk, lead, width):
        out = np.zeros((len(taps), chunk.shape[0]), dtype=np.uint64)
        for acc, row in zip(out, taps):
            for y, coord_taps in zip(chunk.T, row):
                for pos, _ in coord_taps:
                    if pos - lead < width:
                        acc ^= y << (pos - lead)
        out &= (1 << width) - 1
        return out.T

    @staticmethod
    def first_nonzero(rows, none_value):
        """Trailing-zero count: ~x & (x - 1) keeps the bits below the lowest
        set one (all 64 when x = 0)."""
        zeros = np.bitwise_count(~rows & (rows - 1))
        return np.minimum(zeros, none_value).astype(np.int64)

    def lead_column(self, img, width):
        return self.first_nonzero(img[:, 0] | img[:, 1] | img[:, 2], width)

    @staticmethod
    def window_mask(img, vm_col):
        diff = (img[:, 0] ^ img[:, 1]) | (img[:, 0] ^ img[:, 2])
        return ((diff >> vm_col.astype(np.uint64)) & 3) == 0

    @staticmethod
    def diagonal(chunk, offsets, width):
        return chunk << np.array(offsets, dtype=np.uint64)


def _row_format(q, width):
    """Bit rows at q = 2 when every row read fits one 64-bit word, else
    integer rows."""
    return _BitRows() if q == 2 and width <= 64 else _IntRows(q)


# -- ball enumeration in bulk ------------------------------------------------


def _decode(q, sel, width):
    """Digit rows of the flat indices ``sel``, first digit most significant
    (the lexicographic order of itertools.product(range(q), repeat=width))."""
    out = np.empty((sel.size, width), dtype=_digit_dtype(q))
    for j in range(width):
        out[:, j] = (sel // q ** (width - 1 - j)) % q
    return out


def _ball_chunks(q, level, chunk):
    """Yield (stratum, reps) blocks covering the level-M partition.

    Mirrors the deterministic order of projgeom.enumerate_balls: pivot z
    (x, y free), pivot y (x free, z in uO), pivot x (y, z in uO).  ``reps``
    is (n, 3, level) of ``_digit_dtype(q)`` in coordinate order x, y, z.
    """
    dtype = _digit_dtype(q)
    one = np.zeros(level, dtype=dtype)
    one[0] = 1
    free = q**level
    sub = q ** (level - 1)

    def blocks(total):
        for lo in range(0, total, chunk):
            yield np.arange(lo, min(lo + chunk, total), dtype=np.int64)

    for idx in blocks(free * free):
        reps = np.empty((idx.size, 3, level), dtype=dtype)
        reps[:, 0] = _decode(q, idx // free, level)
        reps[:, 1] = _decode(q, idx % free, level)
        reps[:, 2] = one
        yield 2, reps
    for idx in blocks(free * sub):
        reps = np.zeros((idx.size, 3, level), dtype=dtype)
        reps[:, 0] = _decode(q, idx // sub, level)
        reps[:, 1] = one
        reps[:, 2, 1:] = _decode(q, idx % sub, level - 1)
        yield 1, reps
    for idx in blocks(sub * sub):
        reps = np.zeros((idx.size, 3, level), dtype=dtype)
        reps[:, 0] = one
        reps[:, 1, 1:] = _decode(q, idx // sub, level - 1)
        reps[:, 2, 1:] = _decode(q, idx % sub, level - 1)
        yield 0, reps


def _text(level, reps, row):
    groups = ("".join(str(int(d)) for d in reps[row, c]) for c in range(3))
    return f"{level}:" + "/".join(groups)


# -- bulk predicates ---------------------------------------------------------


class _ConeTest:
    """Bulk form of in_slope_u_cone against a fixed apex a.

    With n = a x y, the slope is congruent to u iff val(n0 + u n1) >=
    val(n1) + 2 (the sign the scalar route puts on -n0 - u n1 does not move
    valuations).  Both n1 = a2 y0 - a0 y2 and comb = n0 + u n1 = u a2 y0 -
    a2 y1 + (a1 - u a0) y2 are linear forms in y, evaluated by one
    shift-add.  The apex digits are exact on [0, depth), so the forms are
    trusted on columns [0, depth) only; a verdict that would need digits at
    or beyond the horizon raises InsufficientPrecision.  ``verdicts``
    returns (in_cone, val_n1, val_comb) with the two valuations as column
    indices (depth meaning "at least depth").  Rows marked ``ignore`` may
    stay undecided without raising -- the caller uses that for balls it
    excludes on other grounds (the apex's own window ball has an
    identically zero cross product).
    """

    def __init__(self, apex, depth):
        a0, a1, a2 = apex
        self.depth = depth
        forms = ((a2, None, -a0), (a2.shift(1), -a2, a1 - a0.shift(1)))
        self.taps = [
            [[] if x is None else _taps(x, 0, depth) for x in form] for form in forms
        ]

    def verdicts(self, rows, img, ignore=None):
        d = self.depth
        v1, vc = rows.first_nonzero(rows.shift_add(self.taps, img, 0, d), d).T
        undecided = (vc >= d) & (v1 >= d - 1)
        if ignore is not None:
            undecided &= ~ignore
        if undecided.any():
            raise InsufficientPrecision(
                "cone verdict ran past the apex digit horizon; raise the depth"
            )
        return vc >= v1 + 2, v1, vc


# -- report ------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    element: str
    ball: str
    detail: str = ""

    def __str__(self):
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.kind}: {self.element} on {self.ball}{tail}"


@dataclass
class PingPongReport:
    """Outcome of the exhaustive sweep; ``passed`` means zero violations."""

    q: int
    level: int
    gamma_bound: int
    epsilon_exponent: int = 0
    domain_balls: int = 0
    window_balls: int = 0
    gamma_elements: int = 0
    checked_images: int = 0
    min_growth_margin: int | None = None
    min_cert_slack: int | None = None
    min_image_level: int | None = None
    violation_counts: dict = field(default_factory=dict)
    examples: list = field(default_factory=list)

    MAX_EXAMPLES = 20

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


# -- the verifier ------------------------------------------------------------


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


def verify_pingpong(pair, g, level, gamma_bound, eigen=None, epsilon_exponent=None):
    """Sweep every level-M ball and check both ping-pong inclusions.

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

    w1, w2, w3 = eigen.valuations
    basis = eigen.basis
    adj = basis.adjugate()
    vm_adj = adj.min_val()
    r_plus = vec_min_val(adj.rows[0])
    r_minus = vec_min_val(adj.rows[2])
    floor_cap = level + vm_adj  # dot digits from here on are ball-dependent
    if floor_cap <= 2 + max(r_plus, r_minus):
        raise InsufficientLevel(
            f"level {level} cannot pin dominant eigencoordinates "
            f"(cap {floor_cap} vs margin bound {2 + max(r_plus, r_minus)})"
        )

    g_inv = g.inverse()
    if not g_inv.exact:
        raise ValueError("the cyclic generator must have an exact inverse")
    sides = []
    for label, mat in (("g", g), ("g^-1", g_inv)):
        lo, hi = support(x for row in mat.rows for x in row)
        sides.append(
            dict(
                label=label,
                lead=lo,
                width=hi - lo + level - 1,
                taps=[
                    [_taps(mat.rows[i][j], lo, hi) for j in range(3)] for i in range(3)
                ],
                lognorm=mat.lognorm(),
                lognorm_compound=mat.second_compound().lognorm(),
            )
        )

    depth = level + 8
    cones = (_ConeTest(apex_plus, depth), _ConeTest(apex_minus, depth))

    dot_stop = floor_cap + 2
    horizon = dot_stop - vm_adj
    adj_taps = [
        [_taps(adj.rows[i][j], vm_adj, dot_stop) for j in range(3)] for i in range(3)
    ]
    rows = _row_format(q, max(depth, horizon, *(side["width"] for side in sides)))

    window_chunks = []
    for stratum, reps in _ball_chunks(q, level, CHUNK):
        n = reps.shape[0]
        chunk = rows.pack(reps)
        texts = lambda r: _text(level, reps, r)  # noqa: E731

        if stratum == 2:
            in_u = (
                (reps[:, 0, 0] == 1)
                & (reps[:, 0, 1] == 0)
                & (reps[:, 1, 0] == 1)
                & (reps[:, 1, 1] == 0)
            )
            if in_u.any():
                window_chunks.append(reps[in_u].copy())
        else:
            in_u = np.zeros(n, dtype=bool)

        in_cone = np.zeros(n, dtype=bool)
        for cone, side_name in zip(cones, ("+", "-")):
            verdict, v1, vc = cone.verdicts(rows, chunk, ignore=in_u)
            in_cone |= verdict
            # verdicts must be constant on each non-window ball (window
            # balls leave the domain regardless): perturbations enter the
            # cross product at column >= level
            _flag(
                report,
                "cone-transfer",
                f"cone{side_name}",
                ~in_u
                & (
                    (verdict & ((v1 + 2 > level) | (v1 >= depth)))
                    | (~verdict & (vc + 1 > level))
                ),
                texts,
                lambda r, v1=v1, vc=vc: f"v1 {int(v1[r])}, vcomb {int(vc[r])}",
            )

        domain = ~in_u & ~in_cone
        report.domain_balls += int(domain.sum())
        dom_rows = np.nonzero(domain)[0]
        m = dom_rows.size
        if m == 0:
            continue
        dom = rows.take(chunk, dom_rows)
        dom_texts = lambda r: _text(level, reps, dom_rows[r])  # noqa: E731

        # eigencoordinate valuations VAL_i = val(adj_i . y), trusted up to
        # dot_stop; beyond floor_cap they are ball-dependent, so floor them
        coords = rows.shift_add(adj_taps, dom, vm_adj, horizon)
        val1, val2, val3 = (rows.first_nonzero(coords, horizon) + vm_adj).T
        del coords  # not held through the image pass below
        f1 = np.minimum(val1, floor_cap)
        f2 = np.minimum(val2, floor_cap)
        f3 = np.minimum(val3, floor_cap)

        # outside the cones the outer eigencoordinates must stay large;
        # these margins carry the uniform norm-loss budget to all powers
        _flag(
            report,
            "margin",
            "adj row +",
            val1 > 2 + r_plus,
            dom_texts,
            lambda r: f"val {int(val1[r])} > {2 + r_plus}",
        )
        _flag(
            report,
            "margin",
            "adj row -",
            val3 > 2 + r_minus,
            dom_texts,
            lambda r: f"val {int(val3[r])} > {2 + r_minus}",
        )
        margin = np.minimum((2 + r_plus) - val1, (2 + r_minus) - val3)
        report.merge_min("min_growth_margin", margin.min())

        # power certificates: the dominant coordinate is pinned exactly,
        # the gaps to the others only widen as the power grows
        cert_plus = np.minimum(f2 + (w2 - w1), f3 + (w3 - w1)) - val1
        cert_minus = np.minimum(f2 + (w3 - w2), f1 + (w3 - w1)) - val3
        _flag(
            report,
            "cert",
            "g^N, N >= 1",
            (cert_plus < 2) | (val1 >= floor_cap),
            dom_texts,
            lambda r: f"slack {int(cert_plus[r]) - 2}",
        )
        _flag(
            report,
            "cert",
            "g^N, N <= -1",
            (cert_minus < 2) | (val3 >= floor_cap),
            dom_texts,
            lambda r: f"slack {int(cert_minus[r]) - 2}",
        )
        report.merge_min("min_cert_slack", min(cert_plus.min(), cert_minus.min()) - 2)

        # concrete images under g and g^-1
        for side in sides:
            width = side["width"]
            img = rows.shift_add(side["taps"], dom, side["lead"], width)
            vm_col = rows.lead_column(img, width)
            if (vm_col >= width - 1).any():
                raise InsufficientPrecision("image lost inside its digit window")
            vm = vm_col + side["lead"]
            report.checked_images += m

            in_window = rows.window_mask(img, vm_col)
            level_img = (
                level
                - side["lognorm_compound"]
                - vm
                - np.minimum(vm, level - side["lognorm"])
            )
            report.merge_min("min_image_level", level_img.min())
            loss = vm + side["lognorm"]

            _flag(report, "image-window", side["label"], ~in_window, dom_texts)
            _flag(
                report,
                "image-level",
                side["label"],
                level_img < 2,
                dom_texts,
                lambda r: f"level {int(level_img[r])}",
            )
            _flag(
                report,
                "epsilon",
                side["label"],
                loss > epsilon_exponent,
                dom_texts,
                lambda r: f"loss {int(loss[r])} > {epsilon_exponent}",
            )

    # -- C2: window balls under the rank-two factor --------------------------
    if window_chunks:
        wreps = np.concatenate(window_chunks)
    else:
        wreps = np.empty((0, 3, level), dtype=_digit_dtype(q))
    report.window_balls = wreps.shape[0]
    expected = window_ball_count(q, level)
    if report.window_balls != expected:
        raise AssertionError(
            f"window enumeration found {report.window_balls} balls, expected {expected}"
        )

    gammas = _gamma_table(pair, gamma_bound)
    report.gamma_elements = len(gammas)
    # each image is the window digits moved right by the diagonal's
    # exponents; one row format serves the widest image of the pass
    images = []
    for label, dvals in gammas:
        dmin = min(dvals)
        width = max(dvals) - dmin + level
        images.append((label, dvals, [d - dmin for d in dvals], width))
    rows = _row_format(q, max([depth] + [width for *_, width in images]))

    for lo in range(0, wreps.shape[0], CHUNK):
        w = wreps[lo : lo + CHUNK]
        n = w.shape[0]
        w_texts = lambda r: _text(level, w, r)  # noqa: E731
        chunk = rows.pack(w)
        for label, dvals, offsets, width in images:
            img = rows.diagonal(chunk, offsets, width)
            report.checked_images += n

            # theta-exactness: window points have unit coordinates, so the
            # image norm is exactly the largest diagonal norm
            vm_col = rows.lead_column(img, width)
            _flag(report, "theta-exactness", label, vm_col != 0, w_texts)

            svals = sorted(dvals)
            report.merge_min("min_image_level", level + svals[1] - svals[0])
            if level + svals[1] - svals[0] < 3:
                report.add_violation(
                    "image-level",
                    label,
                    "all window balls",
                    f"level {level + svals[1] - svals[0]}",
                )

            # ball points perturb the free coordinates x, y at u^level, so
            # image digits are ball-independent below this column:
            pert = level + min(offsets[0], offsets[1])

            in_window = rows.window_mask(img, vm_col)
            _flag(report, "gamma-window", label, in_window, w_texts)
            if pert < 2:
                report.add_violation(
                    "ball-transfer",
                    label,
                    "all window balls",
                    f"window verdicts need 2 stable columns, have {pert}",
                )
            for cone, side_name in zip(cones, ("+", "-")):
                # images already flagged as window violations may sit in the
                # apex ball where the cone test cannot decide; skip those
                verdict, v1, vc = cone.verdicts(rows, img, ignore=in_window)
                _flag(
                    report,
                    f"gamma-cone{side_name}",
                    label,
                    ~in_window & verdict,
                    w_texts,
                )
                _flag(
                    report,
                    "ball-transfer",
                    label,
                    ~in_window & ~verdict & (vc + 1 > pert),
                    w_texts,
                    lambda r, vc=vc: f"vcomb {int(vc[r])} vs stable columns {pert}",
                )

    return report
