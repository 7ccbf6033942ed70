"""Reduced-word survey: enumeration shape, margins, engine exactness."""

import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pingpong3.field import Field, Laurent
from pingpong3.linalg import Mat, random_lattice_element
from pingpong3.pingpong.constants import qi_constants
from pingpong3.pingpong.generators import make_generators, make_pair
from pingpong3.pingpong.regular import find_regular
from pingpong3.digits import slot_bytes
from pingpong3.pingpong import words
from pingpong3.pingpong.words import _Layout, _monomial, reduced_word_count, word_survey


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


# -- lead windows against exact Mat arithmetic -----------------------------------


def _layouts(q, stride=64, width=4):
    """An exact layout and a window layout with the same slots, for
    products whose shorter factor has at most ``stride // 4`` planes."""
    nbytes = slot_bytes(3 * (stride // 4) * (q - 1) ** 2)
    return _Layout(q, nbytes, stride, None), _Layout(q, nbytes, stride, width)


def _cut(window, w):
    """An exact window cut to the window layout's width."""
    return window._settle(w[0], w[1], w[0] + window.width)


def _agrees(window, got, exact):
    """``got``, a window result, is the exact result cut to its known_to,
    or None when its lead is not below that."""
    if got is None:
        return True
    lead, lines, known = got
    return lead == exact[0] and known <= lead + window.width and lines == [
        x & window.masks[known - lead] for x in exact[1]
    ]


def _columns(exact, m):
    return exact.exact(m)


def _rows(exact, m):
    return exact.exact(m.transpose())


def test_digit_plane_products_match_mat_products():
    rng = random.Random(5)
    windows = 0
    for q in (2, 3, 5, 13):
        exact, window = _layouts(q)
        for _ in range(20):
            a = random_lattice_element(q, rng, n_factors=4, max_deg=2)
            b = random_lattice_element(q, rng, n_factors=4, max_deg=2)
            cols = exact.mul(_columns(exact, a), exact.scalars(_columns(exact, b), False))
            rows = exact.mul(_rows(exact, b), exact.scalars(_columns(exact, a), True))
            assert cols == _columns(exact, a * b)
            assert rows == _rows(exact, a * b)
            power = _columns(exact, a)
            for _ in range(4):
                power = exact.mul(power, exact.scalars(_columns(exact, a), False))
            assert power == _columns(exact, a**5)
            # windows: exact below min(known_a + lead_b, known_b + lead_a)
            b_cols = window.cut(exact.scalars(_columns(exact, b), False), exact)
            w = window.mul(_cut(window, _columns(exact, a)), b_cols)
            assert _agrees(window, w, cols)
            windows += w is not None
    assert windows > 60


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
    narrow = slot_bytes(3 * (q - 1) ** 2)
    edge = (256**narrow - 1) // (3 * (q - 1) ** 2)  # longest rows it holds
    top = 3 * (q - 1) ** 2
    assert slot_bytes(top * edge) == narrow < slot_bytes(top * (edge + 1))
    rng = random.Random(q)
    for depth in (edge, edge + 1):
        exact = _Layout(q, slot_bytes(3 * depth * (q - 1) ** 2), 2 * depth + 20, None)
        for top in (True, False):
            a = _wide_mat(q, rng, depth, top)
            b = _wide_mat(q, rng, depth + 7, top)
            product = exact.mul(_columns(exact, a), exact.scalars(_columns(exact, b), False))
            assert product == _columns(exact, a * b)


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
    exact, window = _layouts(q)
    rng = random.Random(7)
    for _ in range(10):
        w = random_lattice_element(q, rng, n_factors=3, max_deg=2)
        for m, n in ((1, 0), (0, -1), (2, -3), (-1, 1)):
            delta = pair.gamma(m, n)
            diag = _monomial(pair.monomial(m, n))
            for lines, product in ((_columns, w * delta), (_rows, delta * w)):
                shifted = exact.diag(lines(exact, w), diag)
                assert shifted == lines(exact, product)
                assert _agrees(window, window.diag(_cut(window, lines(exact, w)), diag), shifted)


# -- leaf leads against the products they skip -----------------------------------

LEAF_QS = (2, 3, 5, 13, 31)


def _lead_of_mul(layout, w, m):
    """layout.mul(w, m)'s lead, which the lead-only product must give."""
    product = layout.mul(w, m)
    assert layout.lead(w, m) == (None if product is None else product[0])
    return product


def _cancelling_pair(q):
    """A = A_0 + u I and B = B_0 + u I, where A_0 is singular and the
    columns of B_0 lie in its kernel, so A_0 B_0 = 0."""
    a0 = [[1, 0, 0], [q - 1, 0, 0], [0, 0, 0]]
    b0 = [[0, 0, 0], [1, 2 % q, 0], [0, 1, 1]]
    return tuple(
        Mat([[Laurent(q, 0, (x[i][j], int(i == j))) for j in range(3)] for i in range(3)])
        for x in (a0, b0)
    )


@pytest.mark.parametrize("q", LEAF_QS)
def test_leaf_product_leads_match_full_products(q):
    # a window's lead is the exact product's, or None (a rebuild) when no
    # plane below its known_to is nonzero; the lead-only product of a leaf
    # gives mul's lead, exact and windowed
    rng = random.Random(100 + q)
    exact, window = _layouts(q, width=2)
    for _ in range(30):
        a = random_lattice_element(q, rng, n_factors=4, max_deg=2)
        b = random_lattice_element(q, rng, n_factors=4, max_deg=2)
        full = _lead_of_mul(exact, _columns(exact, a), exact.scalars(_columns(exact, b), False))
        _lead_of_mul(exact, _rows(exact, b), exact.scalars(_columns(exact, a), True))
        wa = _cut(window, _columns(exact, a))
        got = _lead_of_mul(window, wa, window.cut(exact.scalars(_columns(exact, b), False), exact))
        assert _agrees(window, got, full)
    # the lowest plane of A B cancels and its lead sits one plane up: a
    # window of one plane cannot see it, one of two can
    a, b = _cancelling_pair(q)
    b_cols = exact.scalars(_columns(exact, b), False)
    assert _lead_of_mul(exact, _columns(exact, a), b_cols) == _columns(exact, a * b)
    assert (a * b).lognorm() == -1
    assert _lead_of_mul(window, _cut(window, _columns(exact, a)), window.cut(b_cols, exact))[0] == 1
    narrow = _Layout(q, window.nbytes, 64, 1)
    assert _lead_of_mul(narrow, _cut(narrow, _columns(exact, a)), narrow.cut(b_cols, exact)) is None


@pytest.mark.parametrize("q", LEAF_QS)
def test_products_by_a_short_scalar_matrix_claim_only_its_known_planes(q):
    # a scalar matrix cut to fewer planes than the window: the product is
    # known only below known_c + lead_w, the bound the walk never reaches
    rng = random.Random(300 + q)
    exact, window = _layouts(q, width=4)
    short = _Layout(q, window.nbytes, 64, 1)
    bound = 0
    for _ in range(30):
        a = random_lattice_element(q, rng, n_factors=4, max_deg=2)
        b = random_lattice_element(q, rng, n_factors=4, max_deg=2)
        wa, b_cols = _cut(window, _columns(exact, a)), exact.scalars(_columns(exact, b), False)
        cut_b = short.cut(b_cols, exact)
        got = _lead_of_mul(window, wa, cut_b)
        assert _agrees(window, got, exact.mul(_columns(exact, a), b_cols))
        bound += got is not None and got[2] == cut_b[2] + wa[0] < wa[2] + cut_b[0]
    assert bound > 10
    # A B_0 = u B_0: with B cut to its u^0 plane, the product's lowest
    # plane is its first unknown one, so there is no lead to claim
    a, b = _cancelling_pair(q)
    b_cols = exact.scalars(_columns(exact, b), False)
    assert _lead_of_mul(window, _cut(window, _columns(exact, a)), short.cut(b_cols, exact)) is None


@pytest.mark.parametrize("q", LEAF_QS)
def test_leaf_diagonal_leads_match_shifts(q):
    rng = random.Random(200 + q)
    exact, window = _layouts(q, width=2)
    for _ in range(15):
        w = random_lattice_element(q, rng, n_factors=4, max_deg=2)
        exps = tuple(rng.randrange(-4, 5) for _ in range(3))
        diag = _monomial((exps, tuple(rng.randrange(1, q) for _ in range(3))))
        for lines in (_columns, _rows):
            full = exact.diag(lines(exact, w), diag)
            leads = exact.line_leads(lines(exact, w))
            assert min(x + e for x, e in zip(leads, exps)) == full[0]
            cut = _cut(window, lines(exact, w))
            lead = min(x + e for x, e in zip(window.line_leads(cut), exps))
            assert lead == full[0] or lead >= cut[2] + diag[0]


def test_digit_plane_identity_and_lognorm():
    rng = random.Random(6)
    q = 2
    exact, window = _layouts(q)
    a = random_lattice_element(q, rng, n_factors=5, max_deg=2)
    planes = _columns(exact, a)
    assert -planes[0] == a.lognorm()
    inverse = exact.scalars(_columns(exact, a.adjugate()), False)
    assert exact.is_identity(exact.mul(planes, inverse))
    assert not exact.is_identity(planes) or a == Mat.identity(q)
    # a window is never taken for the identity: only a rebuild decides it
    assert not window.is_identity(_cut(window, _columns(exact, Mat.identity(q))))


def test_digit_planes_reject_inexact_input(pipeline_q2):
    pair, _, const = pipeline_q2
    f = Field(2)
    fuzzy = Mat.diagonal([f.unknown(3), f.one(), f.one()])
    with pytest.raises(ValueError):
        word_survey(pair, fuzzy, 2, const)


# -- enumeration shape -----------------------------------------------------------


def test_counts_match_the_alternation_recurrence(pipeline_q2):
    pair, g, const = pipeline_q2
    sv = word_survey(pair, g, 4, const)
    assert sv.by_length == expected_word_counts(4)
    assert sv.words == sum(sv.by_length.values()) == 608
    # the empty word is excluded: every record has at least one syllable
    assert 0 not in sv.by_length


def test_reduced_word_count_matches_the_recurrence():
    for bound in range(1, 11):
        counts = expected_word_counts(bound)
        assert reduced_word_count(bound) == (sum(counts.values()), counts[bound])
    assert reduced_word_count(8) == (196_416, 150_050)


# sha256 over repr() of every sink record, one per line, in walk order;
# the q = 2 and q = 3 streams were recorded with the earlier engine of 27
# digit convolutions per product, the non-monic one before leaf words were
# decided from valuations, the q = 5 one (two-byte slots) before a window
# product was reduced as one packed int
RECORD_STREAM_DIGESTS = {
    ("2", 5): "581ea1a49b3cc09e1752b82dfc59817faee50ef082c93aae2e251d6ad4a9585a",
    ("3", 4): "e23f56444c6e8df9b84936dee6e13277015c2b424b189613e50491689381ea21",
    ("3-non-monic", 4): "691274e990c398111dfaabafd4348442994fddd9a6e04832f19b347221d1848a",
    ("5", 4): "e90fa779a7254d060c72e3e43d5d241716e3601837db44114974ba58ebd94f85",
}
STREAM_PAIRS = {
    "2": lambda: make_generators(2),
    "3": lambda: make_generators(3),
    "3-non-monic": lambda: NON_MONIC_Q3,
    "5": lambda: make_generators(5),
}


def _record_stream(pair, bound):
    cand = find_regular(pair.q)
    g = cand.h ** cand.contraction.n0
    h = hashlib.sha256()
    word_survey(
        pair, g, bound, qi_constants(pair, cand),
        sink=lambda r: h.update(repr(r).encode() + b"\n"),
    )
    return h.hexdigest()


@pytest.mark.parametrize("pair_name, bound", sorted(RECORD_STREAM_DIGESTS))
def test_record_stream_is_unchanged(pair_name, bound):
    pair = STREAM_PAIRS[pair_name]()
    assert _record_stream(pair, bound) == RECORD_STREAM_DIGESTS[pair_name, bound]


@pytest.mark.parametrize("width", (1, 2, words._WINDOW))
def test_short_windows_rebuild_words_exactly(monkeypatch, width):
    # with windows of one or two planes, words whose leads run past them
    # are rebuilt from their syllables, and no record changes; the exact
    # tables are built at the first rebuild, so never at the real width
    real = width == words._WINDOW
    rebuilt, built = [], []
    rebuild, exact_tables = words._rebuild, words._exact_tables

    def counted(parts, *args):
        rebuilt.append(" ".join(parts))
        return rebuild(parts, *args)

    monkeypatch.setattr(words, "_WINDOW", width)
    monkeypatch.setattr(words, "_rebuild", counted)
    monkeypatch.setattr(words, "_exact_tables", lambda *a: built.append(a) or exact_tables(*a))
    for (pair_name, bound), digest in sorted(RECORD_STREAM_DIGESTS.items()):
        before, tables = len(rebuilt), len(built)
        assert _record_stream(STREAM_PAIRS[pair_name](), bound) == digest
        assert (len(rebuilt) > before, len(built) - tables) == ((False, 0) if real else (True, 1))


def _replay(pair, g, r_prime, label):
    """A word and its inverse by exact Mat arithmetic, from its label."""
    table = {"a": pair.a, "b": pair.b, "c": g**r_prime}
    w = w_inv = Mat.identity(pair.q)
    for part in label.split():
        sym, _, exp = part.partition("^")
        step = table[sym] ** int(exp or "1")
        w, w_inv = w * step, step.adjugate() * w_inv
    return w, w_inv


@pytest.mark.parametrize(
    "pair",
    [make_generators(q) for q in (2, 3, 5, 7)] + [NON_MONIC_Q3],
    ids=["q2", "q3", "q5", "q7", "q3-non-monic"],
)
def test_sampled_words_replay_through_mat_arithmetic(pair):
    q = pair.q
    rng = random.Random(31 + q)
    const = SimpleNamespace(alpha=Fraction(1), c_total=0, r_prime=2)
    # a random lattice element, and the identity, whose words with
    # diagonal exponents summing to zero are the identity
    for g, bound in ((random_lattice_element(q, rng, n_factors=4, max_deg=2), 4),
                     (Mat.identity(q), 3)):
        records = []
        word_survey(pair, g, bound, const, sink=records.append)
        flagged = [r for r in records if r.is_identity]
        for rec in rng.sample(records, 40) + flagged[:10]:
            w, w_inv = _replay(pair, g, const.r_prime, rec.label)
            assert w * w_inv == Mat.identity(q)
            assert (w.lognorm(), w_inv.lognorm()) == (rec.lognorm, rec.lognorm_inv)
            assert rec.is_identity == (w == Mat.identity(q))


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


def _diagonal_sum(label):
    total = {"a": 0, "b": 0, "c": 0}
    for part in label.split():
        sym, _, exp = part.partition("^")
        total[sym] += int(exp or "1")
    return total["a"], total["b"]


def _passing(pipeline):
    pair, g, const = pipeline
    return pair, g, 4, const


def _identity_g(pipeline):
    pair, _, const = pipeline
    return pair, Mat.identity(pair.q), 3, const


def _greedy_constants(pipeline):
    pair, g, const = pipeline
    return pair, g, 3, SimpleNamespace(alpha=Fraction(1000, 7), c_total=3, r_prime=1)


# sha256 of the JSON list [examples, summary(), tightest_word] of the
# failing surveys: a reordered or relabelled example shows here, which
# two runs of the same code would not
FAILING_SURVEY_DIGESTS = {
    (2, "identity-g"): "91af9b01aba20d370c9f803df9e109025447907d44fa8ab5261d852c673d14d9",
    (2, "greedy-constants"): "a456129d50196e1ec9b7733862be7399f6d02063afc229fe3ae5c60a9f04394f",
    (3, "identity-g"): "0c7894d1d9126f1cc0728f9b7feef526d3b6d3c72803a47b1688d5dde83400b7",
    (3, "greedy-constants"): "9d57a036279ba9c5dd4093c9dda1936e5dbaf1f7aa045228d1d474d162395e54",
}
SURVEY_CASES = {"passing": _passing, "identity-g": _identity_g, "greedy-constants": _greedy_constants}


@pytest.mark.parametrize("case", SURVEY_CASES.values(), ids=SURVEY_CASES.keys())
@pytest.mark.parametrize("q", (2, 3))
def test_survey_with_and_without_sink_agree(q, case):
    pair, g, bound, const = case(_pipeline(q))
    records = []
    with_sink = word_survey(pair, g, bound, const, sink=records.append)
    without = word_survey(pair, g, bound, const)
    assert with_sink.as_dict() == without.as_dict()
    assert with_sink.examples == without.examples
    assert with_sink.tightest_word == without.tightest_word
    name = next(key for key, value in SURVEY_CASES.items() if value is case)
    if (q, name) in FAILING_SURVEY_DIGESTS:
        text = json.dumps([without.examples, without.summary(), without.tightest_word])
        assert hashlib.sha256(text.encode()).hexdigest() == FAILING_SURVEY_DIGESTS[q, name]
    assert len(records) == without.words
    # the tightest word is the first record of least growth margin, and a
    # failing survey is walked in full, without inverse pairs
    least = min(r.growth_margin for r in records)
    assert without.tightest_word == next(r.label for r in records if r.growth_margin == least)
    assert (without.inverse is not None) == without.passed
    assert without.min_growth_margin == least
    assert without.min_cartan_margin == min(r.cartan_margin for r in records)
    if case is _greedy_constants:
        # the margins are not integers, and the texts give them as fractions
        assert {"growth", "cartan"} <= set(without.violation_counts)
        assert any("/" in text for text in without.examples)
    if case is _identity_g:
        # with c = 1 a word is the identity exactly when its diagonal
        # syllables' exponents sum to (0, 0)
        flagged = [r.label for r in records if r.is_identity]
        assert flagged == [r.label for r in records if _diagonal_sum(r.label) == (0, 0)]
        assert without.violation_counts["identity"] == len(flagged) > 0


def _inverse_label(label):
    """The label of a syllable's inverse: every exponent negated."""
    parts = []
    for part in label.split():
        sym, _, exp = part.partition("^")
        parts.append(words._exponent_label(sym, -int(exp or "1")))
    return " ".join(parts)


def _at(pair, bound, g=None, const=None):
    cand = find_regular(pair.q)
    g = cand.h ** cand.contraction.n0 if g is None else g
    return pair, g, bound, qi_constants(pair, cand) if const is None else const


def _lattice(q, seed, bound):
    g = random_lattice_element(q, random.Random(seed), n_factors=4, max_deg=2)
    const = SimpleNamespace(alpha=Fraction(1, 3), c_total=4, r_prime=2)
    return _at(make_generators(q), bound, g, const)


def _diagonal_g(bound):
    """c = diag(u^-2, 1, u^2) commutes with a and b: many words share the
    least margin, and no word up to length 3 is the identity."""
    f = Field(2)
    g = Mat.diagonal([f.u(-2), f.one(), f.u(2)])
    return _at(make_generators(2), bound, g, SimpleNamespace(alpha=0, c_total=0, r_prime=1))


# passing surveys; at the lattice seeds and the diagonal g the least margin
# is first reached at a leaf (b c^-1 b^-1 c, a^-1 c^-1) that the walk over
# inverse pairs skips for its twin, and with the diagonal g the word c^-1,
# which comes between them in the walk, ties with it
PAIR_WALK_CASES = {
    "q2": lambda: _at(make_generators(2), 6),
    "q3": lambda: _at(make_generators(3), 6),
    "q5": lambda: _at(make_generators(5), 5),
    "q7": lambda: _at(make_generators(7), 4),
    "q13": lambda: _at(make_generators(13), 3),
    "q3-non-monic": lambda: _at(NON_MONIC_Q3, 5),
    "lattice-q2": lambda: _lattice(2, 8, 4),
    "lattice-q5": lambda: _lattice(5, 8, 4),
    "diagonal-g": lambda: _diagonal_g(2),
}


@pytest.mark.parametrize("width", (1, 2, words._WINDOW))
def test_inverse_pair_walk_matches_the_full_walk(monkeypatch, width):
    # without a sink a passing survey reads one leaf of each inverse pair;
    # with short windows its rebuilt subtrees run exactly on the same ranks
    # (at bounds up to 4, where the exact rebuilds are quick)
    short = width < words._WINDOW
    monkeypatch.setattr(words, "_WINDOW", width)
    from_twin = []
    for name, case in PAIR_WALK_CASES.items():
        pair, g, bound, const = case()
        bound = min(bound, 4) if short else bound
        records = []
        full = word_survey(pair, g, bound, const, sink=records.append)
        half = word_survey(pair, g, bound, const)
        assert full.passed and full.inverse is None and half.inverse is not None, name
        assert half.as_dict() == full.as_dict(), name
        assert (half.examples, half.summary()) == (full.examples, full.summary()), name
        least = min(r.growth_margin for r in records)
        first = next(r for r in records if r.growth_margin == least)
        assert half.tightest_word == full.tightest_word == first.label, name
        # a leaf of an even number of syllables starts with a^m b^n and
        # ends with c^r: its twin, which ends with a^m b^n, is read instead
        if first.length == bound and first.syllables % 2 == 0:
            from_twin.append(name)
        assert [_inverse_label(half.labels[r]) for r in half.inverse] == list(half.labels)
    assert from_twin == ["lattice-q2", "lattice-q5", "diagonal-g"]


def test_leaf_reads_are_pinned(monkeypatch):
    # _Layout.lead forms a cyclic leaf's lead, one call per side: the walk
    # over inverse pairs reads 292 of them at q = 3, L = 5, where the full
    # walk of a sink, or of a failing survey, forms every leaf (1,508)
    calls = []
    lead = words._Layout.lead
    monkeypatch.setattr(words._Layout, "lead", lambda *a: calls.append(1) or lead(*a))

    def reads(pair, g, bound, const, sink=None):
        del calls[:]
        word_survey(pair, g, bound, const, sink=sink)
        return len(calls)

    for case, pinned in ((_passing, 292), (_identity_g, None), (_greedy_constants, None)):
        pair, g, bound, const = case(_pipeline(3))
        bound = 5 if case is _passing else bound
        records = []
        full = reads(pair, g, bound, const, records.append)
        cyclic_leaves = sum(r.length == bound and r.label.split()[-1][0] == "c" for r in records)
        assert full == 2 * cyclic_leaves
        if pinned is None:
            assert reads(pair, g, bound, const) >= full
        else:
            assert (full, reads(pair, g, bound, const)) == (1508, pinned)


def test_reductions_are_pinned(monkeypatch):
    # one mod_rows call, of one packed int, per product: the c^r tables,
    # the window products and the cyclic leaf leads of the q = 3, L = 5
    # survey make 804 of them in the walk over inverse pairs and 2,020 in
    # the full walk of a sink
    reduced = []
    mod_rows = words.mod_rows
    monkeypatch.setattr(words, "mod_rows", lambda v, *a: reduced.append(len(v)) or mod_rows(v, *a))
    pair, g, _, const = _passing(_pipeline(3))
    for sink, pinned in ((None, 804), (lambda record: None, 2020)):
        del reduced[:]
        word_survey(pair, g, 5, const, sink=sink)
        assert (len(reduced), sum(reduced)) == (pinned, pinned)


def test_survey_rejects_degenerate_inputs(pipeline_q2):
    pair, g, const = pipeline_q2
    with pytest.raises(ValueError):
        word_survey(pair, g, 0, const)
    f = Field(pair.q)
    not_det_one = Mat.diagonal([f.u(), f.one(), f.one()])
    with pytest.raises(ValueError):
        word_survey(pair, not_det_one, 2, const)
