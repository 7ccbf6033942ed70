"""Reduced-word survey: enumeration shape, margins, engine exactness."""

import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pingpong3.field import Field
from pingpong3.linalg import Mat, random_lattice_element
from pingpong3.pingpong.constants import qi_constants
from pingpong3.pingpong.generators import make_generators, make_pair
from pingpong3.pingpong.regular import find_regular
from pingpong3.pingpong.words import (
    WordSurvey,
    _diag_mul,
    _digit_planes,
    _is_identity,
    _mul,
    _power,
    _slot_bytes,
    word_survey,
)


def _pipeline(q):
    pair = make_generators(q)
    cand = find_regular(q)
    const = qi_constants(pair, cand)
    g = cand.h ** cand.contraction.n0
    return pair, g, const


@pytest.fixture(scope="module")
def pipeline_q2():
    return _pipeline(2)


def expected_word_counts(bound):
    """Alternation recurrence: counts of reduced words by exact length.

    There are 4w diagonal syllables of weight w (all (m, n) with
    |m| + |n| = w) and 2 cyclic ones (r = -w, w); a word alternates factors.
    """
    n_diag = [0] * (bound + 1)
    n_cyc = [0] * (bound + 1)
    for total in range(1, bound + 1):
        n_diag[total] = sum(
            4 * w * ((total - w == 0) + n_cyc[total - w]) for w in range(1, total + 1)
        )
        n_cyc[total] = sum(
            2 * ((total - w == 0) + n_diag[total - w]) for w in range(1, total + 1)
        )
    return {w: n_diag[w] + n_cyc[w] for w in range(1, bound + 1)}


# -- the digit-plane engine against exact Mat arithmetic ------------------------


def _planes_equal(x, y):
    return x[0] == y[0] and x[1].shape == y[1].shape and (x[1] == y[1]).all()


def test_digit_plane_products_match_mat_products():
    rng = random.Random(5)
    for q in (2, 3, 5, 13):
        for _ in range(20):
            a = random_lattice_element(q, rng, n_factors=4, max_deg=2)
            b = random_lattice_element(q, rng, n_factors=4, max_deg=2)
            assert _planes_equal(
                _mul(q, _digit_planes(a), _digit_planes(b)), _digit_planes(a * b)
            )
            assert _planes_equal(_power(q, _digit_planes(a), 5), _digit_planes(a ** 5))


def _wide_mat(q, rng, depth, top):
    """A 3x3 matrix of exact entries with ``depth`` digits each.  With
    ``top`` every digit is q - 1 from u^0 on, so entry (0, 0) of a product
    builds the largest coefficient rows this long can give; entry (2, 2)
    is 1, which keeps products nonzero mod q."""
    f = Field(q)
    if top:
        rows = [[f.from_int_poly([q - 1] * depth) for _ in range(3)] for _ in range(3)]
        rows[2][2] = f.one()
        return Mat(rows)
    entry = lambda: f.from_int_poly(  # noqa: E731
        [rng.randrange(1, q) for _ in range(depth)], lead=rng.randrange(-3, 3)
    )
    return Mat([[entry() for _ in range(3)] for _ in range(3)])


@pytest.mark.parametrize("q", (2, 3, 5, 13))
def test_packed_products_of_wide_rows_match_mat_products(q):
    narrow = _slot_bytes(q, 1)
    edge = (256**narrow - 1) // (3 * (q - 1) ** 2)  # longest rows it holds
    assert _slot_bytes(q, edge) == narrow < _slot_bytes(q, edge + 1)
    rng = random.Random(q)
    for depth in (edge, edge + 1):
        for top in (True, False):
            a = _wide_mat(q, rng, depth, top)
            b = _wide_mat(q, rng, depth + 7, top)
            product = _mul(q, _digit_planes(a), _digit_planes(b))
            assert _planes_equal(product, _digit_planes(a * b))


F3 = Field(3)
# diag(2u^2, 2u^-1, u^-1) and a cyclic shuffle of it: unit coefficients 2
NON_MONIC_Q3 = make_pair(
    Mat.diagonal([F3.monomial(2, 2), F3.monomial(2, -1), F3.u(-1)]),
    Mat.diagonal([F3.u(-1), F3.monomial(2, 2), F3.monomial(2, -1)]),
)


@pytest.mark.parametrize(
    "pair",
    [make_generators(2), make_generators(3), NON_MONIC_Q3],
    ids=["q2", "q3", "q3-non-monic"],
)
def test_diagonal_syllables_are_column_and_row_shifts(pair):
    q = pair.q
    rng = random.Random(7)
    for _ in range(10):
        w = _digit_planes(random_lattice_element(q, rng, n_factors=3, max_deg=2))
        for m, n in ((1, 0), (0, -1), (2, -3), (-1, 1)):
            delta = _digit_planes(pair.gamma(m, n))
            triples = pair.monomial(m, n)
            assert _planes_equal(_diag_mul(q, w, triples, axis=1), _mul(q, w, delta))
            assert _planes_equal(_diag_mul(q, w, triples, axis=0), _mul(q, delta, w))


def test_digit_plane_identity_and_lognorm():
    rng = random.Random(6)
    q = 2
    a = random_lattice_element(q, rng, n_factors=5, max_deg=2)
    planes = _digit_planes(a)
    assert -planes[0] == a.lognorm()
    assert _is_identity(_mul(q, planes, _digit_planes(a.adjugate())))
    assert not _is_identity(planes) or a == Mat.identity(q)


def test_digit_planes_reject_inexact_input():
    f = Field(2)
    fuzzy = Mat.diagonal([f.unknown(3), f.one(), f.one()])
    with pytest.raises(ValueError):
        _digit_planes(fuzzy)


# -- enumeration shape -----------------------------------------------------------


def test_counts_match_the_alternation_recurrence(pipeline_q2):
    pair, g, const = pipeline_q2
    sv = word_survey(pair, g, 4, const)
    assert sv.by_length == expected_word_counts(4)
    assert sv.words == sum(sv.by_length.values()) == 608
    # the empty word is excluded: every record has at least one syllable
    assert 0 not in sv.by_length


# sha256 over repr() of every sink record, one per line, in walk order;
# recorded with the earlier engine of 27 digit convolutions per product
RECORD_STREAM_DIGESTS = {
    (2, 5): "581ea1a49b3cc09e1752b82dfc59817faee50ef082c93aae2e251d6ad4a9585a",
    (3, 4): "e23f56444c6e8df9b84936dee6e13277015c2b424b189613e50491689381ea21",
}


@pytest.mark.parametrize("q, bound", sorted(RECORD_STREAM_DIGESTS))
def test_record_stream_is_unchanged(q, bound):
    pair, g, const = _pipeline(q)
    h = hashlib.sha256()
    word_survey(pair, g, bound, const, sink=lambda r: h.update(repr(r).encode() + b"\n"))
    assert h.hexdigest() == RECORD_STREAM_DIGESTS[q, bound]


def test_survey_is_deterministic(pipeline_q2):
    pair, g, const = pipeline_q2
    seen = []
    first = word_survey(pair, g, 3, const, sink=seen.append)
    again = []
    word_survey(pair, g, 3, const, sink=again.append)
    assert seen == again
    assert len(seen) == first.words
    assert first.as_dict() == word_survey(pair, g, 3, const).as_dict()


def test_single_syllable_words_at_bound_one(pipeline_q2):
    pair, g, const = pipeline_q2
    seen = []
    word_survey(pair, g, 1, const, sink=seen.append)
    assert [rec.label for rec in seen] == ["a^-1", "b^-1", "b", "a", "c^-1", "c"]
    assert all(rec.length == 1 and rec.syllables == 1 for rec in seen)


# -- margins and the checks (a)-(c) ----------------------------------------------


def test_short_survey_passes_with_exact_margins(pipeline_q2):
    pair, g, const = pipeline_q2
    records = []
    sv = word_survey(pair, g, 4, const, sink=records.append)
    assert sv.passed
    assert sv.min_growth_margin >= 0 and sv.min_cartan_margin >= 0
    assert not any(rec.is_identity for rec in records)
    # replay a sample through exact Mat arithmetic, inverses via adjugate
    rng = random.Random(11)
    table = {"a": pair.a, "b": pair.b, "c": g ** const.r_prime}
    for rec in rng.sample(records, 25):
        w = Mat.identity(pair.q)
        for part in rec.label.split():
            sym, _, exp = part.partition("^")
            w = w * (table[sym] ** int(exp or "1"))
        assert w.lognorm() == rec.lognorm
        assert w.adjugate().lognorm() == rec.lognorm_inv
        mu = w.cartan_projection()
        assert max(abs(mu[0]), abs(mu[2])) == max(rec.lognorm, rec.lognorm_inv)
        assert rec.growth_margin == rec.lognorm + rec.lognorm_inv - (
            const.alpha * rec.length - const.c_total
        )


def test_the_word_a_c_is_recorded_healthy(pipeline_q2):
    pair, g, const = pipeline_q2
    records = []
    word_survey(pair, g, 2, const, sink=records.append)
    (rec,) = [r for r in records if r.label == "a c"]
    assert rec.length == 2 and rec.syllables == 2
    assert not rec.is_identity
    assert rec.growth_margin >= 0


def test_identity_words_are_flagged(pipeline_q2):
    pair, _, const = pipeline_q2
    sv = word_survey(pair, Mat.identity(pair.q), 3, const)
    assert not sv.passed
    assert sv.violation_counts["identity"] >= 2  # at least 'c' and 'c^-1'
    assert any(text.startswith("identity: c") for text in sv.examples)


def test_inflated_constants_are_reported_not_hidden(pipeline_q2):
    pair, g, _ = pipeline_q2
    greedy = SimpleNamespace(alpha=Fraction(1000), c_total=0, r_prime=1)
    sv = word_survey(pair, g, 1, greedy)
    assert sv.violation_counts == {"growth": 6, "cartan": 6}
    assert sv.min_growth_margin < 0
    assert "FAIL" in sv.summary()


def test_survey_rejects_degenerate_inputs(pipeline_q2):
    pair, g, const = pipeline_q2
    with pytest.raises(ValueError):
        word_survey(pair, g, 0, const)
    f = Field(pair.q)
    not_det_one = Mat.diagonal([f.u(), f.one(), f.one()])
    with pytest.raises(ValueError):
        word_survey(pair, not_det_one, 2, const)
