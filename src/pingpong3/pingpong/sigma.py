"""Slope exclusion: no mixed generator word can produce a slope-u line.

The heart of the freeness argument.  Take any base point x in the unit
window U (affine coordinates (1 + mu_1, 1 + mu_2) with mu_i in u^2 O) and
any image point gamma y with y in U and gamma = a^m b^n, (m, n) != (0, 0).
After absorbing unit parts, the image has affine coordinates
(u^(mA) (1 + l_1), u^(nB) (1 + l_2)) where A = val(alpha_1), B = val(beta_2)
are the stretch exponents of the pair.  The slope of the connecting line is

    sigma = (u^(nB) (1 + l_2) - (1 + mu_2)) / (u^(mA) (1 + l_1) - (1 + mu_1))

and the claim is that sigma never lies in the cone region u + u^2 O, i.e.
never has valuation exactly 1 with leading digit 1.  The proof is a sign
analysis: each of the eight (sign m, sign n) patterns pins num and den to a
valuation interval with known leading digit where decided, and in every
case 1 is outside the set of achievable val(sigma).  Each case also yields
a coordinate-valuation witness that gamma y itself is outside U, which is
the separation half of the ping-pong.

The analysis runs on an actual DiagPair: the absorption steps are
*verified* (unit parts of ratios congruent to 1 mod u^2), not assumed, and
a pair that breaks them raises ExclusionFailed at the first case that
needed the broken fact.  ``monte_carlo_check`` replays the claim on random
concrete (m, n, mu, l) samples through the projective-geometry predicates,
sharing no code with the symbolic route.  A sample is m, n and 48 window
digits taken straight from ``getrandbits``, with the values and stream
position of two ``randint(1, exponent_bound)`` and 48 ``randrange(q)``
calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from typing import NamedTuple

from ..errors import ExclusionFailed
from ..field import INF, _integer, _make, classify
from ..projgeom import in_slope_u_cone, in_unit_window

# Case order: pure powers first, then mixed signs.
SIGN_CASES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _case_name(signs):
    sym = {1: "+", -1: "-", 0: "0"}
    return f"({sym[signs[0]]},{sym[signs[1]]})"


class ValInterval(NamedTuple):
    """The set of valuations a case-term can take.

    ``lo``/``hi`` bound the valuation (lo = -inf for unbounded negative
    powers), ``lead`` is the leading digit when the ultrametric forces one,
    ``may_vanish`` marks terms that can be exactly zero, and ``multiple_of``
    records a congruence satisfied by every achievable valuation.
    """

    lo: float
    hi: float
    lead: int | None
    may_vanish: bool
    multiple_of: int | None = None

    def describe(self):
        lo = "-inf" if self.lo == -INF else str(self.lo)
        hi = "inf" if self.hi == INF else str(self.hi)
        parts = [f"val in [{lo}, {hi}]"]
        if self.lead is not None:
            parts.append(f"lead {self.lead}")
        if self.multiple_of is not None:
            parts.append(f"val = -k*{self.multiple_of}, k >= 1")
        if self.may_vanish:
            parts.append("may vanish")
        return ", ".join(parts)


class CaseReport(NamedTuple):
    case: str
    num: ValInterval
    den: ValInterval
    sigma: str
    reason: str
    window_witness: str

    def as_dict(self):
        return {**self._asdict(), "num": self.num.describe(), "den": self.den.describe()}


class ExclusionReport(NamedTuple):
    """Verdicts for all eight sign cases, plus a content digest."""

    q: int
    a_stretch: int
    b_stretch: int
    cases: tuple

    @property
    def digest(self):
        payload = {**self._asdict(), "cases": [c.as_dict() for c in self.cases]}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _require_absorbable(ratio, stretch, what, case):
    """The unit part of a chart ratio must lie in 1 + u^2 O.

    This is what lets u^(mA) w^m (1 + l) be rewritten as u^(mA) (1 + l')
    with l' back in u^2 O, uniformly in m: 1 + u^2 O is a multiplicative
    group, so w in it keeps every integer power in it.
    """
    unit_part = ratio.shift(-stretch)
    verdict = classify(unit_part, "1+pim")
    if verdict is not True:
        raise ExclusionFailed(
            case,
            f"{what} has unit part {unit_part} outside 1 + u^2 O; "
            "powers cannot be absorbed into the window error terms",
        )


def _term_profile(q, sign, stretch):
    """Valuations of u^t (1 + l) - (1 + mu) over l, mu in u^2 O.

    ``sign`` is the sign of the exponent t and ``stretch`` its minimal
    magnitude (t ranges over sign * stretch * {1, 2, ...}).
    """
    if sign > 0:
        # -1 at u^0 survives: t >= stretch >= 2 and val(mu) >= 2.
        return ValInterval(0, 0, (q - 1) % q, False)
    if sign == 0:
        # l - mu: anything of valuation >= 2, including exact zero.
        return ValInterval(2, INF, None, True)
    return ValInterval(-INF, -stretch, 1, False, multiple_of=stretch)


def _exclude_case(q, signs, a_stretch, b_stretch):
    """Verdict for one sign pattern; raises ExclusionFailed if 1 survives."""
    name = _case_name(signs)
    m_sign, n_sign = signs
    den = _term_profile(q, m_sign, a_stretch)
    num = _term_profile(q, n_sign, b_stretch)

    branches = []
    if num.may_vanish:
        branches.append("sigma = 0 (horizontal)")
    if den.may_vanish:
        branches.append("sigma = infinity (vertical)")

    # Main branch: val(sigma) = val(num) - val(den).
    lo = num.lo - den.hi
    hi = num.hi - den.lo
    sigma_desc = f"val(sigma) in [{'-inf' if lo == -INF else int(lo)}, {'inf' if hi == INF else int(hi)}]"
    if branches:
        sigma_desc += " or " + " or ".join(branches)

    # Does valuation exactly 1 survive?
    if lo <= 1 <= hi:
        if num.multiple_of is not None and den.multiple_of is not None:
            g = math.gcd(num.multiple_of, den.multiple_of)
            if g >= 2:
                reason = (
                    f"val(sigma) = |m|*{a_stretch} - |n|*{b_stretch} is a multiple of "
                    f"gcd = {g} >= 2, so never 1"
                )
            else:
                raise ExclusionFailed(
                    name,
                    f"stretches {a_stretch}, {b_stretch} have gcd {g} < 2; "
                    "valuation 1 is reachable in the (-,-) case",
                )
        else:
            raise ExclusionFailed(name, f"valuation 1 not excluded ({sigma_desc})")
    else:
        reason = f"1 outside achievable valuations ({sigma_desc})"

    # Separation witness: some affine coordinate of gamma y has val != 0,
    # so gamma y sits outside the unit window.
    if m_sign != 0:
        witness = f"val(x-coord) = m*{a_stretch}, |.| >= {a_stretch} >= 2"
    else:
        witness = f"val(y-coord) = n*{b_stretch}, |.| >= {b_stretch} >= 2"

    return CaseReport(name, num, den, sigma_desc, reason, witness)


def sigma_exclusion(pair):
    """Run all eight sign cases for a diagonal pair.

    Returns an ExclusionReport on success; raises ExclusionFailed at the
    first case whose preconditions fail or where valuation 1 survives.
    """
    q = pair.q
    a_stretch = pair.a_stretch
    b_stretch = pair.b_stretch
    for stretch, what in ((a_stretch, "alpha_1"), (b_stretch, "beta_2")):
        if stretch is None or stretch == INF or stretch < 2:
            raise ExclusionFailed(
                "(+,0)" if what == "alpha_1" else "(0,+)",
                f"{what} must have valuation >= 2, got {stretch}",
            )
    a_stretch = int(a_stretch)
    b_stretch = int(b_stretch)

    reports = []
    for signs in SIGN_CASES:
        name = _case_name(signs)
        # Absorption preconditions, checked by the first case that uses them.
        # A case with m != 0 sees the factors alpha_1^m and alpha_2^m, one
        # with n != 0 sees beta_1^n and beta_2^n; zero powers are exactly 1.
        if signs[0] != 0:
            _require_absorbable(pair.a_ratios[0], a_stretch, "alpha_1", name)
            if classify(pair.a_ratios[1], "1+pim") is not True:
                raise ExclusionFailed(
                    name,
                    f"alpha_2 = {pair.a_ratios[1]} is not in 1 + u^2 O; the "
                    "y-coordinate of a^m drifts and the case collapses",
                )
        if signs[1] != 0:
            _require_absorbable(pair.b_ratios[1], b_stretch, "beta_2", name)
            if classify(pair.b_ratios[0], "1+pim") is not True:
                raise ExclusionFailed(
                    name,
                    f"beta_1 = {pair.b_ratios[0]} is not in 1 + u^2 O; the "
                    "x-coordinate of b^n drifts and the case collapses",
                )
        reports.append(_exclude_case(q, signs, a_stretch, b_stretch))

    return ExclusionReport(q, a_stretch, b_stretch, tuple(reports))


# -- Monte-Carlo cross-check ----------------------------------------------

_TAIL_DEPTH = 14
_DRAWS = 4 * (_TAIL_DEPTH - 2)  # window digits per call


@lru_cache(maxsize=None)
def _draw_tables(q):
    """The exact 1 and, for q < 2^8, ``bytes.translate`` tables of a 32-bit
    word's top byte: its draw of q.bit_length() bits, and the draws >= q."""
    drop = 8 - q.bit_length()
    keep = bytes(b >> drop for b in range(256)) if drop >= 0 else None
    return _make(q, 0, (1,)), keep, keep and bytes(b for b in range(256) if keep[b] >= q)


def _window_points(q, rng):
    """Two points [1 + u^2 s : 1 + u^2 t : 1] of the unit window, s and t of
    _TAIL_DEPTH - 2 random digits each, drawn as ``rng.randrange(q)`` draws
    them: q.bit_length() random bits, drawn again while >= q.  Each draw
    reads one 32-bit word and at least _DRAWS are made, so for q < 2^8 the
    first _DRAWS are one ``getrandbits(32 * _DRAWS)``, first word lowest,
    read by ``_draw_tables``."""
    one, keep, reject = _draw_tables(q)
    getrandbits, bits, k = rng.getrandbits, q.bit_length(), _TAIL_DEPTH - 2
    block = keep and getrandbits(32 * _DRAWS).to_bytes(4 * _DRAWS, "little")
    digits = list(block[3::4].translate(keep, reject)) if keep else []
    for _ in range(_DRAWS - len(digits)):  # the rest as single draws
        d = getrandbits(bits)
        while d >= q:
            d = getrandbits(bits)
        digits.append(d)
    x0 = _make(q, 0, (1, 0, *digits[:k]))
    x1 = _make(q, 0, (1, 0, *digits[k : 2 * k]))
    y0 = _make(q, 0, (1, 0, *digits[2 * k : 3 * k]))
    y1 = _make(q, 0, (1, 0, *digits[3 * k :]))
    return (x0, x1, one), (y0, y1, one)


def monte_carlo_check(pair, rng, trials_per_case=200, exponent_bound=5):
    """Replay the exclusion on random concrete samples.

    For each sign case, picks random exponents and random window points,
    builds the concrete image gamma y, and asks the projective predicates
    directly: the image must be outside the unit window and the line from
    the base point must not have slope in u + u^2 O.  A sample draws m and
    n from ``rng.getrandbits`` with the values and stream position of
    ``rng.randint(1, exponent_bound)``, then the base point and y by
    ``_window_points``, in ``rng.randrange(q)``'s stream.  The image is y
    shifted coordinatewise by a^m b^n (``DiagPair.act``), no matrix built.
    Returns a dict of per-case (trials, hits); raises AssertionError on any
    hit, and ValueError before any draw unless both counts are >= 1.
    """
    for name, value in (("trials_per_case", trials_per_case), ("exponent_bound", exponent_bound)):
        if _integer(value, f"{name} must be an integer") < 1:
            raise ValueError(f"{name} must be at least 1, not {value!r}")
    bound = _integer(exponent_bound, "exponent_bound must be an integer")
    q, getrandbits, bits = pair.q, rng.getrandbits, bound.bit_length()
    counts = {}
    for signs in SIGN_CASES:
        name = _case_name(signs)
        hits = 0
        for _ in range(trials_per_case):
            m = getrandbits(bits)  # 1 + m and 1 + n as randint(1, bound) draws them
            while m >= bound:
                m = getrandbits(bits)
            n = getrandbits(bits)
            while n >= bound:
                n = getrandbits(bits)
            m, n = signs[0] * (m + 1), signs[1] * (n + 1)
            base, y = _window_points(q, rng)
            image = pair.act(m, n, y)
            if in_unit_window(image) is not False:
                hits += 1
            elif in_slope_u_cone(base, image) is not False:
                hits += 1
        counts[name] = (trials_per_case, hits)
        if hits:
            raise AssertionError(f"exclusion violated in case {name}: {hits} hits")
    return counts
