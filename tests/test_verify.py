"""Sweep verifier: the prefix tree against the exhaustive passes, and the
bulk digit engine against the scalar predicates."""

import hashlib
import json
import random

import numpy as np
import pytest

from pingpong3.digits import support
from pingpong3.errors import InsufficientLevel, InsufficientPrecision
from pingpong3.field import Field, Laurent
from pingpong3.linalg import Mat, parse_matrix, vec_min_val
from pingpong3.pingpong.constants import theta_prime_exponent
from pingpong3.pingpong.generators import DiagPair, make_generators
from pingpong3.pingpong.regular import (
    contraction_power,
    find_regular,
    make_proximal,
    synthetic_basis,
)
from pingpong3.pingpong import verify
from pingpong3.pingpong.verify import (
    CHUNK,
    PingPongReport,
    _ball_chunks,
    _BitRows,
    _Chunk,
    _ConeTest,
    _digit_dtype,
    _digit_table,
    _IntRows,
    _row_format,
    _taps,
    _text,
    _window_balls,
    int_dtype,
    verify_pingpong,
)
from pingpong3.projgeom import (
    ball_count,
    enumerate_balls,
    in_slope_u_cone,
    in_unit_window,
)
from pingpong3.spectral import eigen_flags
from test_pingpong_core import NON_MONIC_Q3

PAIR2 = make_generators(2)


def test_synthetic_sweep_level_five():
    g = make_proximal(2) ** 5
    report = verify_pingpong(PAIR2, g, level=5, gamma_bound=2)
    assert report.passed
    assert report.domain_balls == 1408
    assert report.window_balls == 64
    assert report.gamma_elements == 24
    assert report.checked_images == 1408 * 2 + 64 * 24
    assert report.min_growth_margin >= 0
    assert report.min_cert_slack >= 0
    assert report.min_image_level >= 3
    assert "PASS" in report.summary()
    d = report.as_dict()
    assert d["passed"] is True and d["violations"] == {}


def test_ball_chunks_mirror_scalar_enumeration():
    for q, level in ((2, 3), (3, 3), (5, 3)):
        table = _digit_table(q, level)
        bulk = []
        for _, balls in _ball_chunks(q, level, chunk=100):
            for r in range(balls[0].size):
                bulk.append(_text(table, balls, r))
        scalar = [ball.text() for ball in enumerate_balls(q, level)]
        assert bulk == scalar


@pytest.mark.parametrize("q, level", [(2, 4), (3, 4), (5, 3)])
def test_window_pass_balls_are_the_domain_pass_window_balls(q, level):
    """The window pass enumerates its own balls: exactly the balls the
    domain pass finds inside the window, in the same order, cut into full
    chunks."""
    table = _digit_table(q, level)
    chunks = list(_window_balls(q, level, chunk=7))
    assert all(balls[0].size == 7 for balls in chunks[:-1])
    window = [_text(table, balls, r) for balls in chunks for r in range(balls[0].size)]
    scalar = [
        ball.text()
        for ball in enumerate_balls(q, level)
        if in_unit_window(ball.vector()) is True
    ]
    assert window == scalar


BULK_QS = (2, 3, 5, 13, 31)


def test_digit_dtype_holds_every_digit_product():
    assert [_digit_dtype(q) for q in (2, 3, 11)] == [np.int8] * 3
    assert [_digit_dtype(q) for q in (13, 31, 181)] == [np.int16] * 3
    assert _digit_dtype(191) == np.int32
    for q in (2, 11, 13, 181, 191):
        assert (q - 1) ** 2 <= np.iinfo(_digit_dtype(q)).max


def test_int_dtype_switches_at_each_boundary():
    cases = [(0, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16)]
    cases += [(32768, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)]
    for top, dtype in cases:
        assert int_dtype(top) == dtype


def _sample_strata(q, level, count, seed):
    """Every level-M ball when there are at most ``count``, else about
    ``count`` random ones spread over the three strata, as (stratum, balls)
    pairs: the sweep's (x, y, z) value indices into ``_digit_table(q, level)``
    and the index of their pivot coordinate."""
    if ball_count(q, level) <= count:
        return list(_ball_chunks(q, level, CHUNK))
    else:
        rng = random.Random(seed)
        k = count // 3
        free, one = q**level, q ** (level - 1)

        def draw(total):
            return np.array([rng.randrange(total) for _ in range(k)])

        pivot = np.full(k, one)
        return [
            (2, (draw(free), draw(free), pivot)),
            (1, (draw(free), pivot, draw(one))),
            (0, (pivot, draw(one), draw(one))),
        ]


def _sample_balls(q, level, count, seed):
    """``_sample_strata`` as one chunk of mixed strata."""
    strata = [balls for _, balls in _sample_strata(q, level, count, seed)]
    return tuple(np.concatenate(coord) for coord in zip(*strata))


def _vector(q, table, balls, r):
    """The exact representative vector of ball ``r``."""
    return tuple(Laurent(q, 0, [int(d) for d in table[:, v[r]]]) for v in balls)


def _formats(q):
    """Every digit-row format the sweep can pick at q."""
    return [_IntRows(q), _BitRows()] if q == 2 else [_IntRows(q)]


def _digits(rows, out, width):
    """k rows of either format as an (n, k, width) digit array: (k, n)
    words, or (k, width, n) integer digits."""
    if isinstance(rows, _BitRows):
        return (out.T[..., None] >> np.arange(width, dtype=np.uint64)) & 1
    return out.transpose(2, 0, 1)


def test_row_format_takes_words_only_at_q2_within_64_columns():
    assert isinstance(_row_format(2, 64), _BitRows)
    assert isinstance(_row_format(2, 65), _IntRows)
    assert isinstance(_row_format(3, 10), _IntRows)


@pytest.mark.parametrize("width", (1, 13, 100))
def test_int_rows_first_nonzero_matches_argmax(width):
    """The column loop stops once no row is still zero; all-zero rows read
    the width, and every count is capped at none_value."""
    rng = np.random.default_rng(width)
    rows = np.zeros((4, width, 300), dtype=np.int8)
    lead = rng.integers(0, width + 1, size=(4, 300))  # width: an all-zero row
    for (k, n), c in np.ndenumerate(lead):
        if c < width:
            rows[k, c, n] = rng.integers(1, 3)
            rows[k, c + 1 :, n] = rng.integers(0, 3, size=width - c - 1)
    nonzero = rows != 0
    reference = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), width)
    assert np.array_equal(reference, lead)
    for cap in (width, width + 3, max(width // 2, 1), 0):
        out = _IntRows.first_nonzero(rows, cap)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.minimum(reference, cap))
    # no row left zero after the first column, and every row zero
    assert not _IntRows.first_nonzero(np.ones((2, width, 5), dtype=np.int8), width).any()
    zeros = np.zeros((2, width, 5), dtype=np.int8)
    assert (_IntRows.first_nonzero(zeros, width) == width).all()


@pytest.mark.parametrize("q", BULK_QS)
def test_cone_test_agrees_with_scalar_predicate(q):
    level = 4
    eig = eigen_flags(make_proximal(q), precision=40)
    table = _digit_table(q, level)
    balls = _sample_balls(q, level, 1500, seed=q)
    ys = [_vector(q, table, balls, r) for r in range(balls[0].size)]
    in_u = np.array([in_unit_window(y) is True for y in ys])
    for rows in _formats(q):
        chunk = _Chunk(balls)
        for apex in (eig.vectors[0], eig.vectors[2]):
            cone = _ConeTest(rows, table, apex, depth=level + 8)
            verdict, _, _, undecided = cone.verdicts(rows.evaluate(cone.forms, chunk))
            assert not (undecided & ~in_u).any()
            for y, u, got in zip(ys, in_u, verdict):
                if not u:  # window balls may be undecidable in bulk; they
                    # are excluded from the domain on other grounds
                    assert in_slope_u_cone(apex, y) is bool(got)


def test_taps_read_digits_and_refuse_an_element_not_known_far_enough():
    x = Laurent(3, -1, [2, 0, 1], known_to=4)  # 2u^-1 + u + O(u^4)
    y = Laurent(3, 2, [1, 1])
    assert _taps(x, -2, 4) == [(-1, 2), (1, 1)]
    assert _taps(y, 3, 5) == [(3, 1)]
    assert _taps(y, -2, 1) == [] and _taps(Laurent(3, 0, ()), 0, 9) == []
    with pytest.raises(InsufficientPrecision):
        _taps(x, 0, 5)


def _bulk_rows(rows, mat, table, balls, start, stop, pivot=None):
    """The rows of ``mat``'s digits in [start, stop) as a family of forms,
    evaluated on ``balls`` as the sweep does: (n, 3, width) digits over
    every column the products reach."""
    width = stop - start + table.shape[0] - 1
    taps = [[_taps(mat.rows[i][j], start, stop) for j in range(3)] for i in range(3)]
    forms = rows.forms(table, taps, start, width)
    return _digits(rows, rows.evaluate(forms, _Chunk(balls, pivot)), width)


@pytest.mark.parametrize("q", BULK_QS)
def test_image_shift_adds_agree_with_scalar_products(q):
    """The sweep's images under g and g^-1, digit for digit."""
    level = 4
    g = make_proximal(q) ** 2
    table = _digit_table(q, level)
    balls = _sample_balls(q, level, 300, seed=q + 1)
    for rows in _formats(q):
        for mat in (g, g.inverse()):
            lo, hi = support(x for row in mat.rows for x in row)
            bulk = _bulk_rows(rows, mat, table, balls, lo, hi)
            for r, digits in enumerate(bulk):
                image = mat.matvec(_vector(q, table, balls, r))
                for i in range(3):
                    scalar = [image[i].digit_at(lo + c) for c in range(digits.shape[1])]
                    assert scalar == list(digits[i])


@pytest.mark.parametrize("q", BULK_QS)
def test_eigencoordinate_shift_adds_agree_with_scalar_products(q):
    """adj(basis) . y from truncated taps: exact on every column the sweep
    reads, i.e. below the tap horizon."""
    level = 4
    basis = eigen_flags(make_proximal(q), precision=40).basis
    adj = basis.adjugate()
    start, stop = adj.min_val(), adj.min_val() + 2 * level
    table = _digit_table(q, level)
    balls = _sample_balls(q, level, 300, seed=q + 2)
    for rows in _formats(q):
        bulk = _bulk_rows(rows, adj, table, balls, start, stop)
        for r, digits in enumerate(bulk):
            coords = adj.matvec(_vector(q, table, balls, r))
            for i in range(3):
                scalar = [coords[i].digit_at(e) for e in range(start, stop)]
                assert None not in scalar
                assert scalar == list(digits[i][: stop - start])


def _diagonal_digits(q, table, balls, offsets, width):
    """(3, width, n) digits of the images of ``balls`` under the monic
    diagonal u^offsets, read from scalar products."""
    diag = Mat.diagonal([Field(q).u(k) for k in offsets])
    digits = np.zeros((3, width, balls[0].size), dtype=table.dtype)
    for r in range(balls[0].size):
        image = diag.matvec(_vector(q, table, balls, r))
        for i in range(3):
            digits[i, :, r] = [image[i].digit_at(c) for c in range(width)]
    return digits


# the unit forms y_i, one tap each: a chunk's images under a monic diagonal
UNIT = [[[(0, 1)] if j == i else [] for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("q", BULK_QS)
def test_diagonal_images_agree_with_scalar_products(q):
    """Images under a monic diagonal, digit for digit: the unit forms y_i
    moved by the offsets through ``at``, cut at the cone depth.  An offset
    at or past the depth moves its coordinate out of every column kept."""
    level = 4
    depth = level + 8
    table = _digit_table(q, level)
    balls = _sample_balls(q, level, 300, seed=q + 3)
    cases = [(3, 0, 5), (0, depth, 2), (depth + 3, 1, 0)]
    for rows in _formats(q):
        image = rows.at(rows.forms(table, UNIT, 0, depth), _Chunk(balls))
        for offsets in cases:
            scalar = _diagonal_digits(q, table, balls, offsets, depth)
            got = _digits(rows, image(offsets), depth)
            assert np.array_equal(got, scalar.transpose(2, 0, 1))


@pytest.mark.parametrize("q", BULK_QS)
def test_pivot_coordinate_part_is_one_constant(q):
    """A chunk of one stratum reads its pivot coordinate's part of each form
    once; the forms equal those read with every coordinate gathered."""
    level = 4
    g = make_proximal(q) ** 2
    lo, hi = support(x for row in g.rows for x in row)
    table = _digit_table(q, level)
    for rows in _formats(q):
        for stratum, balls in _sample_strata(q, level, 300, seed=q + 5):
            per_ball = _bulk_rows(rows, g, table, balls, lo, hi)
            pivoted = _bulk_rows(rows, g, table, balls, lo, hi, pivot=stratum)
            assert np.array_equal(per_ball, pivoted)


@pytest.mark.parametrize("q", BULK_QS)
def test_cone_forms_moved_by_offsets_are_the_forms_of_the_diagonal_image(q):
    """The window pass's cone forms of an image under a monic diagonal,
    read from the chunk with each coordinate moved by its offset, against
    the forms evaluated on the image's digits from scalar products.  An
    offset at or past the depth moves its coordinate out of every column
    kept.  All offsets at once, as a (3, E) array, read the E images of
    each ball element-major."""
    level = 4
    depth = level + 8
    eig = eigen_flags(make_proximal(q), precision=40)
    table = _digit_table(q, level)
    window = next(_window_balls(q, level, 200))
    sample = _sample_balls(q, level, 300, seed=q + 4)
    cases = [(3, 0, 5), (0, depth, 2), (depth + 3, 1, 0), (0, 0, 0)]
    for balls, pivot in ((window, 2), (sample, None)):
        images = {
            offsets: _diagonal_digits(q, table, balls, offsets, max(offsets) + level)
            for offsets in cases
        }
        for rows in _formats(q):
            chunk = _Chunk(balls, pivot)
            for apex in (eig.vectors[0], eig.vectors[2]):
                cone = _ConeTest(rows, table, apex, depth)
                moved = rows.at(cone.forms, chunk)
                for offsets, digits in images.items():
                    # both formats against an integer shift-add of the taps
                    image_forms = _IntRows(q).shift_add(cone.taps, digits, 0, depth)
                    got = _digits(rows, moved(offsets), depth)
                    assert np.array_equal(got, _digits(_IntRows(q), image_forms, depth))
                each = [moved(offsets) for offsets in cases]
                every = moved(np.array(cases).T)
                assert np.array_equal(every, np.concatenate(each, axis=-1))


@pytest.mark.parametrize("q", (2, 3, 5))
def test_window_images_follow_the_closed_form(q):
    """What the window pass no longer reads per ball, against the scalar
    predicates: under a monic a^m b^n with offsets e_i - min(e), the image
    of a point of a window ball lies in U exactly when every offset is 0,
    and its least coordinate valuation is min(e).  Points carry random
    digits past the ball's level in x and y."""
    level, tail = 4, 3
    rng = random.Random(q + 6)
    table = _digit_table(q, level)
    balls = next(_window_balls(q, level, q ** (2 * (level - 2))))
    picked = rng.sample(range(balls[0].size), min(40, balls[0].size))
    pairs = [
        make_generators(q),
        _monic_pair(*IDENTITY, q),
        _monic_pair(*MONIC, q),
        _monic_pair((1, -1, 0), (0, 1, -1), q),
    ]
    seen = set()
    for r in picked:
        x, y, z = (list(table[:, v[r]]) for v in balls)
        point = [
            Laurent(q, 0, c + [rng.randrange(q) for _ in range(tail)]) for c in (x, y)
        ] + [Laurent(q, 0, z)]
        for pair in pairs:
            for m in range(-2, 3):
                for n in range(-2, 3):
                    if m == 0 and n == 0:
                        continue
                    exps, _ = pair.monomial(m, n)
                    offsets = [e - min(exps) for e in exps]
                    seen.update(min(o, 2) for o in offsets)
                    image = pair.act(m, n, point)
                    assert in_unit_window(image) is (not any(offsets))
                    assert vec_min_val(image) == min(exps)
    assert seen == {0, 1, 2}


def test_q2_sweep_runs_no_shift_add_on_a_chunk(monkeypatch):
    """At q = 2 no shift-add runs: the product tables are built once per
    family, over the V = 2^M values per coordinate, never on balls."""
    level = 5
    seen = []
    bit_forms = _BitRows.forms

    def counted(table, taps, lead, width):
        tables, width = bit_forms(table, taps, lead, width)
        seen.extend(table.shape[-1] for table in tables)
        return tables, width

    def refused(*args):
        raise AssertionError("integer rows at q = 2")

    monkeypatch.setattr(_BitRows, "forms", staticmethod(counted))
    monkeypatch.setattr(_IntRows, "shift_add", refused)
    report = verify_pingpong(PAIR2, G2, level, gamma_bound=2)
    assert report.passed
    # per coordinate: two cones, adjugate, g and g^-1, built once per sweep
    assert seen == [2**level] * (3 * 5)


def test_shift_add_accumulator_holds_the_largest_column_sum():
    """q = 31, every entry and every ball digit q - 1 over 38 columns:
    column 37 of each coordinate's part of a form, as its product table is
    built, sums 38 products of 30^2, 34,200 > int16."""
    q, depth = 31, 38
    x = Laurent(q, 0, [q - 1] * depth)
    mat = Mat([[x] * 3] * 3)
    # a two-value table: column 0 all q - 1, column 1 with 1 at even places
    table = np.full((depth, 2), q - 1, dtype=_digit_dtype(q))
    table[::2, 1] = 1
    balls = (np.array([0, 0]), np.array([0, 1]), np.array([0, 0]))
    bulk = _bulk_rows(_IntRows(q), mat, table, balls, 0, depth)
    for r, digits in enumerate(bulk):
        image = mat.matvec(_vector(q, table, balls, r))
        for i in range(3):
            scalar = [image[i].digit_at(c) for c in range(digits.shape[1])]
            assert scalar == list(digits[i])


def _monic_pair(ka, kb, q=2):
    """Monic diagonals u^ka, u^kb; the sweep reads only their exponents."""
    f = Field(q)
    one = f.one()
    a, b = (Mat.diagonal([f.u(k) for k in ks]) for ks in (ka, kb))
    return DiagPair(a, b, (one, one), (one, one))


# exponent triples of two monic pairs: the identity, and one whose window
# pass reports gamma-window and gamma-cone violations
IDENTITY = ((0, 0, 0), (0, 0, 0))
MONIC = ((1, 0, -1), (0, 0, 0))
IDENTITY_PAIR = _monic_pair(*IDENTITY)
H2 = make_proximal(2)
G2 = H2**2
# g that does not contract, with the eigenflags of G2: images miss the window
SHEAR = parse_matrix("1, u, 0; 0, 1, u^-1; 0, 0, 1", 2)


def _report_digest(report):
    blob = json.dumps(report.as_dict(), sort_keys=True) + "\n"
    blob += "\n".join(str(v) for v in report.examples)
    return hashlib.sha256(blob.encode()).hexdigest()


# pinned q = 2 sweeps, all but wide-window failing: (pair, level,
# gamma_bound, epsilon, digest)
Q2_PINS = [
    # 3,072 epsilon violations: examples read the domain balls' texts
    (PAIR2, 6, 2, 0, "4c58a427c697bf333a9ff6e6e6706625fd449f78da390ea8114302ff733cce91"),
    # 6,144 gamma-window violations: examples read the window balls' texts
    (IDENTITY_PAIR, 6, 2, None, "9643da35c54479d7a794baea6c9ce045f2e9594c51239749ab29d16ee5345e77"),
    # window images span up to 12 * 6 + 4 = 76 columns, but are read
    # through cone forms cut at level + 8: 15-column rows, one word each
    (PAIR2, 4, 6, None, "219390f6cbbfc4d43db09d546d4e71833b25b922ec5b1e1dc9fab4b7b880bb67"),
    # 256 gamma-window and 320 gamma-cone violations of each sign
    (
        _monic_pair(*MONIC),
        5,
        2,
        None,
        "e8cd56ae5b2a599f0faff47c1e866ca4e30000539057faf6dc36bd91d6c372c1",
    ),
    # 128 gamma-cone violations of each sign, no gamma-window one
    (
        _monic_pair((1, -1, 0), (0, 1, -1)),
        5,
        1,
        None,
        "a9d6cdf8f95610830df88b25958cef652aa856cf8a479de4177cf55553cb08ef",
    ),
]
Q2_PIN_IDS = ["epsilon-0", "identity-pair", "wide-window", "monic-window-cones", "monic-cones"]


@pytest.mark.parametrize(
    "pair, level, gamma_bound, epsilon, expected", Q2_PINS, ids=Q2_PIN_IDS
)
def test_q2_sweep_reports_and_examples_are_pinned(
    pair, level, gamma_bound, epsilon, expected
):
    """as_dict() and every example of failing q = 2 sweeps.  The first three
    digests were recorded when every q = 2 row was an integer array, the
    monic pairs' when the window pass read each image's own digits."""
    report = verify_pingpong(pair, G2, level, gamma_bound, epsilon_exponent=epsilon)
    assert _report_digest(report) == expected


# failing q = 3 and 5 sweeps: (q, level, gamma_bound, CHUNK, exponents of a
# monic pair or None for epsilon 0 under the standard pair, digest)
ODD_PINS = [
    # epsilon 0: examples read the domain balls' texts
    (3, 5, 2, CHUNK, None, "751792be9dd0123d55b1a9da2b03480520b98caca5c9727ecc7d3e827c6b846a"),
    # identity pair: examples read the window balls' texts
    (3, 5, 2, CHUNK, IDENTITY, "4feed41ab12d78fba5d6d4080f8c157a6a9a52c0929ce77721f91db172276078"),
    # 467,125 domain balls over eight chunks
    (5, 4, 2, CHUNK, None, "a7bd50b0c5c270a045e2197caf5789e4f69fee54c6b221af06844ff0b9febe6f"),
    (5, 4, 2, CHUNK, IDENTITY, "f14afab1edfdb88319459237b515d0f13ef3c04027030ec6242f047bd30e03d8"),
    # small chunks: the examples depend on the chunk boundaries
    (3, 3, 1, 7, None, "5bb47bc9f3ef37ec6064a5f48f743a1780f2c24c3f0f140bfdca9b58712b545c"),
    (3, 3, 1, 7, IDENTITY, "a1c4f0be44f47010de6f8bab8c84c5c7735c7d8f0a58b030d22f27c33b3414e6"),
    (5, 3, 1, 64, None, "e3c9a44816db28aae585424769a090df2d29665b59c3fd8bd5281757dfd484d5"),
    # 324 gamma-window and 405 gamma-cone violations of each sign at
    # level 4, 36 and 45 at level 3
    (3, 4, 2, CHUNK, MONIC, "35c6cf0204c2946e0891f9a1b8191692f2d918a2e1254bf52e2e35aca420e4ff"),
    (3, 3, 2, 7, MONIC, "98d83517b6ef2ae65c205a27a6da9b2b08c1c2fb456756687ea8e4281631d547"),
]
ODD_PIN_IDS = [
    "q3-epsilon-0",
    "q3-identity-pair",
    "q5-epsilon-0",
    "q5-identity-pair",
    "q3-chunk-7-epsilon-0",
    "q3-chunk-7-identity-pair",
    "q5-chunk-64-epsilon-0",
    "q3-monic-window-cones",
    "q3-chunk-7-monic-window-cones",
]


@pytest.mark.parametrize(
    "q, level, gamma_bound, chunk, exponents, expected", ODD_PINS, ids=ODD_PIN_IDS
)
def test_odd_q_sweep_reports_and_examples_are_pinned(
    monkeypatch, q, level, gamma_bound, chunk, exponents, expected
):
    """as_dict() and every example of failing q = 3 and q = 5 sweeps, g the
    square of the synthetic proximal element.  Either the epsilon budget is
    0 under the standard pair (``exponents`` None: epsilon violations), or
    the rank-two factor is the monic pair of ``exponents`` (gamma-window
    violations, and gamma-cone ones where an offset is nonzero).  The first
    seven digests were recorded when each chunk's balls were decoded to
    digit arrays of their own, the last two when the window pass read each
    image's own digits."""
    monkeypatch.setattr(verify, "CHUNK", chunk)
    if exponents is None:
        pair, epsilon = make_generators(q), 0
    else:
        pair, epsilon = _monic_pair(*exponents, q), None
    g = make_proximal(q) ** 2
    report = verify_pingpong(pair, g, level, gamma_bound, epsilon_exponent=epsilon)
    assert _report_digest(report) == expected


# -- the prefix tree against the exhaustive passes ---------------------------


def _exhaustive(monkeypatch):
    """Route verify_pingpong around the tree: the domain pass and every
    window element read ball by ball."""
    monkeypatch.setattr(verify, "_domain_tree", lambda sweep, report: False)
    monkeypatch.setattr(
        verify, "_window_root", lambda sweep, elements: np.zeros(len(elements), bool)
    )


def _tree_and_exhaustive(monkeypatch, *args, **kwargs):
    """as_dict() and examples of one sweep through the tree, then through
    the exhaustive passes."""
    outcomes = []
    for route in (lambda m: None, _exhaustive):
        with monkeypatch.context() as m:
            route(m)
            report = verify_pingpong(*args, **kwargs)
        outcomes.append((report.as_dict(), [str(v) for v in report.examples]))
    return outcomes


@pytest.mark.parametrize(
    "q, level",
    [(2, level) for level in range(3, 10)]
    + [(3, level) for level in range(3, 7)]
    + [(5, 3), (5, 4), (7, 3)],
)
def test_tree_sweep_matches_the_exhaustive_sweep(monkeypatch, q, level):
    """Passing sweeps, the domain pass alone and with the window pass; at
    q = 7 level 3 the exhaustive pass reads 136,857 balls, the pivot-z
    stratum's 117,649 in two chunks."""
    pair, g = make_generators(q), make_proximal(q) ** 2
    for gamma_bound in (0, 2):
        tree, exhaustive = _tree_and_exhaustive(monkeypatch, pair, g, level, gamma_bound)
        assert tree == exhaustive
        assert tree[0]["passed"]


@pytest.mark.parametrize(
    "pair, level, gamma_bound, epsilon, expected", Q2_PINS, ids=Q2_PIN_IDS
)
def test_tree_sweep_matches_the_exhaustive_sweep_on_q2_pins(
    monkeypatch, pair, level, gamma_bound, epsilon, expected
):
    """The pinned q = 2 sweeps: where one fails, the tree falls back, or
    leaves the elements its window root does not decide to the
    ball-by-ball loop."""
    tree, exhaustive = _tree_and_exhaustive(
        monkeypatch, pair, G2, level, gamma_bound, epsilon_exponent=epsilon
    )
    assert tree == exhaustive


@pytest.mark.parametrize(
    "q, level, gamma_bound, chunk, exponents, expected", ODD_PINS, ids=ODD_PIN_IDS
)
def test_tree_sweep_matches_the_exhaustive_sweep_on_odd_q_pins(
    monkeypatch, q, level, gamma_bound, chunk, exponents, expected
):
    """The failing q = 3 and 5 sweeps, at the pins' chunk sizes."""
    monkeypatch.setattr(verify, "CHUNK", chunk)
    if exponents is None:
        pair, epsilon = make_generators(q), 0
    else:
        pair, epsilon = _monic_pair(*exponents, q), None
    g = make_proximal(q) ** 2
    tree, exhaustive = _tree_and_exhaustive(
        monkeypatch, pair, g, level, gamma_bound, epsilon_exponent=epsilon
    )
    assert tree == exhaustive
    assert not tree[0]["passed"]


def test_tree_reads_a_few_hundred_rows(monkeypatch):
    """The rows the tree reads per depth at q = 2 level 8 and q = 3 level 5
    (the benchmark's sweeps), against 114,688 and 85,293 domain balls, and
    at the q = 2 gate, level 10: a fall back to per-ball work shows here."""
    seen = []
    read = verify._Sweep.read

    def counted(self, balls, *args):
        seen.append(balls[0].size)
        return read(self, balls, *args)

    monkeypatch.setattr(verify._Sweep, "read", counted)
    for q, level, rows in ((2, 8, [28, 28]), (3, 5, [117, 234, 54]), (2, 10, [28, 28])):
        seen.clear()
        report = verify_pingpong(make_generators(q), make_proximal(q) ** 2, level, 3)
        assert report.passed
        assert seen == rows


def test_cone_verdict_is_decided_only_when_every_ball_shares_it():
    """Brute force over the columns a node's balls can read: below its
    horizon a first-nonzero column is the representative's, at or past it
    any column up to the depth.  Where ``decided`` holds, every ball has
    the representative's verdict, and the column that verdict rests on (v1
    inside the cone, vc outside) is the representative's too."""
    depth = 6
    apex = eigen_flags(make_proximal(2), precision=40).vectors[0]
    cone = _ConeTest(_IntRows(2), _digit_table(2, 3), apex, depth)
    grid = np.array(np.meshgrid(*[range(depth + 1)] * 2, *[range(depth + 3)] * 2))
    v1, vc, h1, hc = grid.reshape(4, -1)
    decided = cone.decided(v1, vc, h1, hc)
    assert decided.any() and not decided.all()

    def reach(v, h):
        return {v} if v < h or h >= depth else set(range(h, depth + 1))

    for a, c, ha, hc_ in zip(v1[decided], vc[decided], h1[decided], hc[decided]):
        ones, combs = reach(a, ha), reach(c, hc_)
        verdicts = {cc >= aa + 2 for aa in ones for cc in combs}
        assert verdicts == {c >= a + 2}
        assert len(ones if c >= a + 2 else combs) == 1


def test_undecidable_representative_raises_through_the_exhaustive_pass(monkeypatch):
    """A representative is itself a ball: when its cone verdict needs
    digits past the apex horizon, the tree hands the sweep to the
    exhaustive pass, which raises for that ball."""
    verdicts = _ConeTest.verdicts

    def first_undecided(self, forms):
        verdict, v1, vc, undecided = verdicts(self, forms)
        undecided[:1] = True
        return verdict, v1, vc, undecided

    monkeypatch.setattr(_ConeTest, "verdicts", first_undecided)
    with pytest.raises(InsufficientPrecision, match="apex digit horizon"):
        verify_pingpong(PAIR2, G2, 4, gamma_bound=0)  # the domain pass alone


def test_window_root_leaves_a_flagged_element_to_the_ball_loop(monkeypatch):
    """A flag on the window's representative keeps its element out of the
    root's decisions; the ball-by-ball loop then reports it."""
    image_cones = verify._image_cones

    def transfer_on_first(sweep, moved, offsets, pert):
        reads = image_cones(sweep, moved, offsets, pert)
        reads[0][1][:1] = True  # cone +, the first image of the batch
        return reads

    monkeypatch.setattr(verify, "_image_cones", transfer_on_first)
    report = verify_pingpong(PAIR2, G2, 4, gamma_bound=1)
    assert report.violation_counts == {"ball-transfer": 1}
    assert report.examples[0].element == "a^-1 b^-1"


@pytest.mark.parametrize("q", (2, 3))
def test_window_root_decisions_hold_on_every_window_ball(q):
    """For each element the window root decides, every window ball's
    image reads the representative's verdict (outside both cones) and the
    comb column it rests on."""
    level = 4
    g = make_proximal(q) ** 2
    eig = eigen_flags(g, precision=2 * level + 24)
    sweep = verify._Sweep(q, level, g, eig, theta_prime_exponent(eig))
    one = np.full(1, q ** (level - 1))
    root = _Chunk((one, one, one), 2)
    balls = next(_window_balls(q, level, q ** (2 * (level - 2))))
    chunk = _Chunk(balls, 2)
    decided = 0
    for pair in (make_generators(q), _monic_pair(*MONIC, q), _monic_pair((1, -1, 0), (0, 1, -1), q)):
        elements = []
        for m, n in [(m, n) for m in range(-2, 3) for n in range(-2, 3) if m or n]:
            exps, _ = pair.monomial(m, n)
            offsets = [e - min(exps) for e in exps]
            elements.append((f"a^{m} b^{n}", offsets, level + min(offsets[:2])))
        for (_, offsets, pert), clean in zip(elements, verify._window_root(sweep, elements)):
            if not clean:
                continue
            decided += 1
            at_root = verify._image_cones(
                sweep, [sweep.rows.at(c.forms, root) for c in sweep.cones], offsets, pert
            )
            per_ball = verify._image_cones(
                sweep, [sweep.rows.at(c.forms, chunk) for c in sweep.cones], offsets, pert
            )
            for (_, _, _, _, vc_root), (verdict, transfer, undecided, _, vc) in zip(at_root, per_ball):
                assert not (verdict | transfer | undecided).any()
                assert (vc == vc_root[0]).all()
    assert decided > 0


def _node_balls(q, level, d, s, a, b):
    """Every level-M ball of the depth-d node of stratum s whose free
    coordinates lead with the digits a and b, as (x, y, z) value indices."""
    tail = np.arange(q ** (level - d))
    x, y = np.meshgrid(a * q ** (level - d) + tail, b * q ** (level - d) + tail)
    free = [x.ravel(), y.ravel()]
    free.insert(s, np.full(x.size, q ** (level - 1)))
    return tuple(free)


def _agree_below(digits, h, width):
    """Whether all rows of (n, width) digits agree on the columns below h
    and, when h < width, disagree at column h."""
    same = (digits == digits[:1]).all(axis=0)
    return same[: min(h, width)].all() and (h >= width or not same[h])


@pytest.mark.parametrize("q", (2, 3))
def test_horizons_are_sound_and_tight(q):
    """Each form of each family reads the same digits on every ball of a
    node below ``_horizon`` and, short of the width, not at it: domain
    nodes of every stratum at depths 1 to M - 1, and the window's depth-2
    node under the diagonals of a few offsets.  The sweep's per-stratum
    horizon tables agree with ``_horizon``."""
    level, rng = 4, random.Random(q)
    g = make_proximal(q) ** 2
    eig = eigen_flags(g, precision=2 * level + 24)
    sweep = verify._Sweep(q, level, g, eig, theta_prime_exponent(eig))
    rows = sweep.rows
    families = [(c.forms, c.low, c.depth) for c in sweep.cones]
    families.append((sweep.adj_forms, sweep.adj_low, sweep.horizon))
    families += [(side["forms"], side["low"], side["width"]) for side in sweep.sides]
    for d in range(1, level):
        for s in range(3):
            a = rng.randrange(q ** (d - (s == 0)))  # coordinates in uO lead with 0
            b = rng.randrange(q ** (d - (s < 2)))
            balls = _node_balls(q, level, d, s, a, b)
            pivot = np.arange(3)[None] == s
            # the sweep's per-stratum tables: each form's _horizon, and for
            # g and g^-1 the least over the three image coordinates
            for free, (_, low, _) in zip([*sweep.cone_free, sweep.adj_free], families):
                assert np.array_equal(d + free[:, s], verify._horizon(low, d, pivot)[:, 0])
            for side in sweep.sides:
                assert d + side["free"][0, s] == verify._horizon(side["low"], d, pivot).min()
            for forms, low, width in families:
                digits = _digits(rows, rows.evaluate(forms, _Chunk(balls)), width)
                for k, h in enumerate(verify._horizon(low, d, pivot)[:, 0]):
                    assert _agree_below(digits[:, k], h, width)
    balls = _node_balls(q, level, 2, 2, q, q)  # the window: x and y lead with 1, 0
    chunk = _Chunk(balls, 2)
    offsets = np.array([(0, 1, 0), (2, 0, 1), (1, 3, 0), (0, 0, 5)])
    for cone in sweep.cones:
        moved = rows.at(cone.forms, chunk)
        horizons = verify._horizon(cone.low, 2, np.arange(3)[None] == 2, offsets)
        for o, h in zip(offsets, horizons.T):
            digits = _digits(rows, moved(o), cone.depth)
            for k in range(2):
                assert _agree_below(digits[:, k], h[k], cone.depth)


def _node_point(q, digits, d, s, a, b, rng):
    """A random point of the node: its free coordinates lead with the d
    base-q digits of a and b and carry random ones up to u^(digits - 1);
    the pivot coordinate s is 1."""
    lead = [[v // q ** (d - 1 - c) % q for c in range(d)] for v in (a, b)]
    tail = [[rng.randrange(q) for _ in range(digits - d)] for _ in lead]
    free = [Laurent(q, 0, x + t) for x, t in zip(lead, tail)]
    free.insert(s, Laurent(q, 0, [1]))
    return free


def _val2_moot(sweep, d, s, r, decided):
    """Positions in ``r.dom`` of the depth-d domain nodes decided although
    an eigencoordinate valuation lies at or past its horizon, short of its
    cap: nodes that the rule requiring all three to be the same on all
    their balls leaves undecided, where VAL_2 is moot."""
    h = d + sweep.adj_free[:, s[r.dom]]
    exact = ((r.val - sweep.vm_adj < h) | (h >= sweep.caps)).all(axis=0)
    return np.nonzero(decided[r.dom] & ~exact & (d < sweep.level))[0]


def _certificates(sweep, val):
    """Both power certificates from VAL_1, VAL_2, VAL_3, each (n,) or scalar:
    the dominant coordinate's exact valuation against the floored others."""
    (v1, _, v3), (f1, f2, f3) = val, np.minimum(val, sweep.floor_cap)
    w1, w2, w3 = sweep.w
    plus = np.minimum(f2 + (w2 - w1), f3 + (w3 - w1)) - v1
    minus = np.minimum(f2 + (w3 - w2), f1 + (w3 - w1)) - v3
    return plus.tolist(), minus.tolist()


LATTICE_G2 = find_regular(2, "lattice", seed=11).g


@pytest.mark.parametrize(
    "q, level, g, moot",
    [
        (2, 5, G2, 4),
        (2, 6, G2, 6),
        (3, 4, make_proximal(3) ** 2, 0),
        (3, 5, make_proximal(3) ** 2, 9),
        (2, 5, LATTICE_G2, 0),
        (2, 6, LATTICE_G2, 0),
    ],
    ids=["q2-5", "q2-6", "q3-4", "q3-5", "lattice-5", "lattice-6"],
)
def test_nodes_decided_past_the_val2_horizon_hold_on_every_ball(monkeypatch, q, level, g, moot):
    """Every node the tree decides while its VAL_2 lies past its horizon
    (``moot`` of them), read ball by ball: every ball is a domain ball
    and every flag mask, both power certificates and every value the
    report takes minima of are the representative's."""
    seen = []
    nodes = verify._nodes

    def recorded(sweep, d, s, a, b):
        r, decided = nodes(sweep, d, s, a, b)
        seen.append((sweep, d, s, a, b, r, decided))
        return r, decided

    monkeypatch.setattr(verify, "_nodes", recorded)
    assert verify_pingpong(make_generators(q), g, level, 0).passed
    checked = 0
    for sweep, d, s, a, b, r, decided in seen:
        for k in _val2_moot(sweep, d, s, r, decided):
            i = r.dom[k]
            balls = _node_balls(q, level, d, s[i], a[i], b[i])
            read = sweep.read(balls, s[i], s[i])
            assert read.dom.size == balls[0].size
            for (*_, mask, _, on_dom), (*_, rep, _, _) in zip(read.flags, r.flags):
                assert (mask == rep[k if on_dom else i]).all()
            at_rep = _certificates(sweep, r.val[:, k])
            for cert, rep in zip(_certificates(sweep, read.val), at_rep):
                assert set(cert) == {rep}
            for name, values in read.least.items():
                assert (values == r.least[name][k]).all()
            checked += 1
    assert checked == moot


def _spread(q, a, b):
    """A proximal element with eigenvalue valuations (-a, 0, b)."""
    f, basis = Field(q), synthetic_basis(q)
    return basis * Mat.diagonal([f.u(-a), f.one(), f.u(b)]) * basis.inverse()


@pytest.mark.parametrize("g", [G2, _spread(2, 2, 4), _spread(2, 4, 2)], ids=["G2", "2-4", "4-2"])
def test_adjugate_values_are_decided_only_when_every_ball_shares_them(g):
    """Brute force over the adjugate columns a node's balls can read, as
    for the cones: where ``adj_decided`` holds, every ball has the
    representative's VAL_1, VAL_3 and both power certificates, and where
    it does not, two balls can differ in one of them.  VAL_1 and VAL_3 are
    read below their horizons or at them; unequal eigenvalue gaps tell the
    certificates' two gaps apart."""
    level = 5
    eig = eigen_flags(g, precision=2 * level + 24)
    sweep = verify._Sweep(2, level, g, eig, theta_prime_exponent(eig))
    top = sweep.horizon  # first-nonzero columns are read up to it
    points = [
        (c1, c2, c3, h1, h2, h3)
        for c1 in range(top + 1)
        for c2 in range(top + 1)
        for c3 in range(top + 1)
        for h1 in (c1, c1 + 1)
        for h3 in (c3, c3 + 1)
        for h2 in range(top + 2)
    ]
    cols, horizons = np.array(points).T.reshape(2, 3, -1)
    decided = sweep.adj_decided(cols + sweep.vm_adj, horizons)
    assert decided.any() and not decided.all()

    def reach(c, h):
        return [c] if c < h else range(h, top + 1)

    for (c1, c2, c3, h1, h2, h3), dec in zip(points, decided):
        ones, threes = reach(c1, h1), reach(c3, h3)
        shared = len(ones) == len(threes) == 1
        if shared:
            val = np.array([c1, 0, c3]) + sweep.vm_adj
            certs = set()
            for c in reach(c2, h2):
                val[1] = c + sweep.vm_adj
                certs.add(_certificates(sweep, val))
            shared = len(certs) == 1
        assert shared == dec


@pytest.mark.parametrize("q", (13, 31))
def test_decided_nodes_agree_with_scalar_predicates(q):
    """Where no exhaustive sweep can serve as the reference (q = 31 level 3
    has 8.9e8 balls): on random points of sampled decided depth-2 nodes,
    digits past the level included, the scalar predicates give the node's
    verdicts -- in U, in each cone, and for domain nodes the images in U
    with their least valuations, VAL_1 and VAL_3 up to floor_cap, and VAL_2
    up to floor_cap where it lies below its horizon, else both power
    certificates."""
    level, d, rng = 3, 2, random.Random(q)
    g = make_proximal(q) ** 2
    eig = eigen_flags(g, precision=2 * level + 24)
    sweep = verify._Sweep(q, level, g, eig, theta_prime_exponent(eig))
    # stratum s: the free coordinates in uO lead with the digit 0
    s = np.array([rng.randrange(3) for _ in range(600)])
    a = np.array([rng.randrange(q if k == 0 else q * q) for k in s])
    b = np.array([rng.randrange(q if k < 2 else q * q) for k in s])
    r, decided = verify._nodes(sweep, d, s, a, b)
    assert not any(mask.any() for mask, _ in r.raises)
    assert not any(mask.any() for _, _, mask, _, _ in r.flags)
    adj = eig.basis.adjugate()
    dom = {int(i): k for k, i in enumerate(r.dom)}
    picked = rng.sample(list(np.nonzero(decided)[0]), 40)
    assert any(i in dom for i in picked) and any(i not in dom for i in picked)
    # no sampled node at q = 13 or 31 has a moot VAL_2, but were one
    # to, its VAL_2 could differ from the scalar one
    moot = set(r.dom[_val2_moot(sweep, d, s, r, decided)].tolist())
    for i in picked:
        for _ in range(3):
            y = _node_point(q, level + 3, d, s[i], a[i], b[i], rng)
            assert in_unit_window(y) is bool(r.in_u[i])
            for apex, (verdict, *_) in zip((eig.vectors[0], eig.vectors[2]), r.cones):
                assert r.in_u[i] or in_slope_u_cone(apex, y) is bool(verdict[i])
            if i not in dom:
                continue
            for side, mat, vm_col in zip(sweep.sides, (g, g.inverse()), r.vm_cols):
                image = mat.matvec(y)
                assert in_unit_window(image) is True
                assert vec_min_val(image) == vm_col[dom[i]] + side["lead"]
            scalar = [
                sum((x * c for x, c in zip(row, y)), Laurent(q, 0, [])).val_lower_bound()
                for row in adj.rows
            ]
            val = r.val[:, dom[i]]
            floor = sweep.floor_cap
            for k in (0, 2) if i in moot else range(3):
                assert min(scalar[k], floor) == min(val[k], floor)
            if i in moot:
                assert _certificates(sweep, np.array(scalar)) == _certificates(sweep, val)


@pytest.mark.parametrize(
    "pair, g, level, gamma_bound, epsilon, eigen",
    [
        (PAIR2, G2, 5, 2, None, None),
        (PAIR2, H2, 4, 1, None, None),
        (PAIR2, G2, 5, 1, 0, None),  # epsilon
        (PAIR2, SHEAR, 4, 1, None, G2),  # image-window, image-level
        (PAIR2, Mat.identity(2), 5, 1, None, G2),  # image-window
        (_monic_pair((1, 0, -1), (0, 0, 0)), G2, 5, 2, None, None),  # gamma-*
        # window images up to 16 * 6 + 5 = 101 columns, read at the depth
        (PAIR2, G2, 5, 8, None, None),
    ],
)
def test_q2_word_rows_match_integer_rows(
    monkeypatch, pair, g, level, gamma_bound, epsilon, eigen
):
    """The same q = 2 sweep on words, its one row format picked once, and
    with every row forced to integer arrays."""
    if eigen is not None:
        eigen = eigen_flags(eigen, precision=40)

    def sweep():
        report = verify_pingpong(
            pair, g, level, gamma_bound, eigen=eigen, epsilon_exponent=epsilon
        )
        return report.as_dict(), [str(v) for v in report.examples]

    picked = []
    row_format = verify._row_format

    def recorded(q, width):
        picked.append(row_format(q, width))
        return picked[-1]

    monkeypatch.setattr(verify, "_row_format", recorded)
    words = sweep()
    assert [type(rows) for rows in picked] == [_BitRows]
    monkeypatch.setattr(verify, "_row_format", lambda q, width: _IntRows(q))
    assert sweep() == words


def test_sweep_counts_match_scalar_recount():
    h = make_proximal(2)
    g = h * h
    report = verify_pingpong(PAIR2, g, level=4, gamma_bound=1)
    assert report.passed

    eig = eigen_flags(g, precision=32)
    ap, am = eig.vectors[0], eig.vectors[2]
    domain = window = 0
    for ball in enumerate_balls(2, 4):
        y = ball.vector()
        if in_unit_window(y) is True:
            window += 1
            continue
        if in_slope_u_cone(ap, y) is True or in_slope_u_cone(am, y) is True:
            continue
        domain += 1
        # the inclusion itself, through plain matrix-vector arithmetic
        assert in_unit_window(g.matvec(y)) is True
    assert report.domain_balls == domain
    assert report.window_balls == window


def test_epsilon_budget_violations_match_scalar_losses():
    g = make_proximal(2) ** 2
    report = verify_pingpong(PAIR2, g, level=4, gamma_bound=1, epsilon_exponent=0)
    assert not report.passed
    assert set(report.violation_counts) == {"epsilon"}

    eig = eigen_flags(g, precision=32)
    ap, am = eig.vectors[0], eig.vectors[2]
    losses = 0
    for ball in enumerate_balls(2, 4):
        y = ball.vector()
        if in_unit_window(y) is True:
            continue
        if in_slope_u_cone(ap, y) is True or in_slope_u_cone(am, y) is True:
            continue
        for mat in (g, g.inverse()):
            vm = min(x.val() for x in mat.matvec(y))
            if vm + mat.lognorm() > 0:
                losses += 1
    assert report.violation_counts["epsilon"] == losses


def test_identity_is_reported_not_proximal():
    report = verify_pingpong(PAIR2, Mat.identity(2), level=4, gamma_bound=1)
    assert not report.passed
    assert report.violation_counts == {"not-proximal": 1}
    assert report.examples[0].element == "g"


def test_unconjugated_diagonal_has_flags_out_of_position():
    f = Field(2)
    diag = Mat.diagonal([f.u(-2), f.one(), f.u(2)])
    report = verify_pingpong(PAIR2, diag, level=4, gamma_bound=1)
    assert not report.passed
    assert report.violation_counts == {"flags-out-of-position": 2}


def test_sweep_level_below_three_is_rejected():
    g = make_proximal(2) ** 2
    with pytest.raises(InsufficientLevel):
        verify_pingpong(PAIR2, g, level=2, gamma_bound=1)


def test_negative_gamma_bound_is_rejected():
    g = make_proximal(2) ** 2
    with pytest.raises(ValueError, match="gamma bound"):
        verify_pingpong(PAIR2, g, level=4, gamma_bound=-1)
    # a bound of 0 is the domain pass alone
    report = verify_pingpong(PAIR2, g, level=4, gamma_bound=0)
    assert report.passed and report.gamma_elements == 0
    assert report.domain_balls > 0


def test_non_monic_pairs_and_inexact_generators_are_refused():
    # window images are the window digits moved, not scaled, and the sweep
    # reads g's digits exactly
    g = find_regular(3).g
    with pytest.raises(ValueError, match="gamma sweep needs monic monomial diagonals"):
        verify_pingpong(NON_MONIC_Q3, g, level=4, gamma_bound=1)
    inexact = parse_matrix(g.to_text().replace(",", " + O(u^40),", 1), 3)
    assert not inexact.exact
    with pytest.raises(ValueError, match="the cyclic generator must be exact"):
        verify_pingpong(make_generators(3), inexact, level=4, gamma_bound=1)


def test_trivial_pair_fails_the_gamma_sweep():
    # if the rank-two factor does not move the window, every window ball
    # survives in place and the sweep must say so
    g = make_proximal(2) ** 2
    report = verify_pingpong(IDENTITY_PAIR, g, level=4, gamma_bound=1)
    assert not report.passed
    assert report.violation_counts["gamma-window"] == 16 * 8


def test_report_violation_examples_are_capped():
    report = PingPongReport(2, 4, 1)
    for i in range(50):
        report.add_violation("kind", "g", f"4:ball{i}")
    assert report.total_violations == 50
    assert len(report.examples) == report.MAX_EXAMPLES


# -- diagonal toy model: the contraction power against a direct sweep --------


def _toy_domain_and_images(q, level, n):
    """Exhaustive check of the diagonal model at one power.

    h = diag(u^-2, 1, u^2) on level-M balls whose representative keeps the
    dominant coordinate within one digit of the minimum; returns how many
    images miss the level-2 ball around e1 (both affine coordinates in
    u^2 O).
    """
    f = Field(q)
    h = Mat.diagonal([f.u(-2), f.one(), f.u(2)])
    misses = 0
    for ball in enumerate_balls(q, level):
        y = ball.vector()
        vm = min(x.val() for x in y)
        v1 = y[0].val()
        if v1 > vm + 1:
            continue
        img = h.matvec(y)
        for _ in range(n - 1):
            img = h.matvec(img)
        iv = img[0].val()
        if (img[1].val() - iv) < 2 or (img[2].val() - iv) < 2:
            misses += 1
    return misses


def test_toy_contraction_power_is_two_and_tight():
    f = Field(2)
    h = Mat.diagonal([f.u(-2), f.one(), f.u(2)])
    eig = eigen_flags(h, precision=24)
    data = contraction_power(eig, margin_exponent=1)
    assert data.n0 == 2
    # the bound is tight: one power misses, two suffice, everywhere
    assert _toy_domain_and_images(2, 6, 1) > 0
    assert _toy_domain_and_images(2, 6, 2) == 0


def test_feasible_level_of_synthetic_candidates():
    for q in (2, 3):
        cand = find_regular(q)
        assert cand.strategy == "synthetic"
        assert cand.contraction.n0 == 2
        assert cand.feasible_level == 3
        g = cand.h ** cand.contraction.n0
        report = verify_pingpong(
            make_generators(q), g, level=cand.feasible_level, gamma_bound=1
        )
        assert report.passed
