"""Field layer: digit arithmetic, precision rules, regions, text grammar."""

import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pingpong3.errors import (
    DigitRangeError,
    InsufficientPrecision,
    LaurentSyntaxError,
    ZeroOrUnknownLeadingDigit,
)
from pingpong3.field import INF, Field, Laurent, classify, laurent_to_str, parse_laurent

from oracles import dict_add, dict_mul, from_dict, series_inverse_digits, to_dict

F2 = Field(2)
F3 = Field(3)
# fields the hypothesis properties draw from; 5 and 13 give wider digits
# and wider Kronecker slots in the multiply than q = 2 and 3 do, 17 the
# first two-byte slots in a difference and 257 two-byte digits
PROPERTY_QS = [2, 3, 5, 13, 17, 257]


def exact_elements(q, max_len=40, max_abs_lead=25):
    return st.builds(
        lambda lead, digits: Laurent(q, lead, digits),
        st.integers(-max_abs_lead, max_abs_lead),
        st.lists(st.integers(0, q - 1), max_size=max_len),
    )


def elements(q, max_len=40, max_abs_lead=25):
    """Exact and inexact elements: a finite known_to may cut every digit,
    which gives the empty-digit unknown of valuation >= known_to."""
    return st.builds(
        lambda x, known: x if known is None else Laurent(q, x.lead, x.digits, known),
        exact_elements(q, max_len, max_abs_lead),
        st.one_of(st.none(), st.integers(-max_abs_lead, max_abs_lead + max_len)),
    )


def assert_canonical(r):
    """r is what the public constructor builds from its own fields."""
    assert type(r.digits) is tuple and all(type(d) is int for d in r.digits)
    assert r.known_to is INF or type(r.known_to) is int
    assert r == Laurent(r.q, r.lead, r.digits, r.known_to)


# -- construction and valuation -------------------------------------------

def test_valuation_of_uniformizer():
    assert F2.u().val() == 1


def test_valuation_of_zero_is_infinite():
    assert F2.zero().val() == INF


def test_valuation_reads_leading_term():
    x = F2.parse("u^-3 + u")
    assert x.val() == -3


def test_valuation_of_abstract_tail_is_undecidable():
    lam = F2.unknown(2)
    assert lam.val() is None
    assert lam.val_lower_bound() == 2


def test_canonical_form_strips_leading_and_trailing_zeros():
    x = Laurent(2, -1, [0, 1, 0, 1, 0, 0])
    assert x.lead == 0 and x.digits == (1, 0, 1)


def test_digits_beyond_known_to_are_dropped():
    x = Laurent(2, 0, [1, 1, 1, 1], known_to=2)
    assert x.digits == (1, 1) and x.known_to == 2


def test_infinite_known_to_is_the_exact_sentinel():
    x = Laurent(3, 0, (1,), math.inf)
    assert x == Laurent(3, 0, (1,))
    assert x.exact and x.known_to is INF
    assert x * Laurent(3, 1, (2,)) == Laurent(3, 1, (2,))
    for bad in (-math.inf, math.nan):
        with pytest.raises(ValueError):
            Laurent(3, 0, (1,), bad)


def test_digit_out_of_range_rejected():
    with pytest.raises(ValueError):
        Laurent(2, 0, [2])


@pytest.mark.parametrize("digits", [[1.5], [True, 2], [1, False], ["1"], [1.0]])
def test_non_integer_digits_rejected(digits):
    with pytest.raises(DigitRangeError):
        Laurent(3, 0, digits)


@pytest.mark.parametrize("lead", [1.5, 1.0, True, "1", None])
def test_non_integer_lead_rejected(lead):
    with pytest.raises(ValueError, match="lead"):
        Laurent(3, lead, [1])


@pytest.mark.parametrize("known_to", [2.5, 2.0, False, "2"])
def test_non_integer_known_to_rejected(known_to):
    with pytest.raises(ValueError, match="known_to"):
        Laurent(3, 0, [1, 2, 1, 1, 1], known_to)


def test_numpy_integer_lead_becomes_python_int():
    x = Laurent(5, np.int64(-2), [3], known_to=np.int32(4))
    assert x == Laurent(5, -2, [3], known_to=4)
    assert type(x.lead) is int and type(x.known_to) is int


def test_numpy_integer_digits_become_python_ints():
    x = Laurent(5, 0, np.array([3, 0, 4]), known_to=np.int64(7))
    assert x == Laurent(5, 0, [3, 0, 4], known_to=7)
    assert all(type(d) is int for d in x.digits) and type(x.known_to) is int


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("how", sorted(_COPIES))
@pytest.mark.parametrize("q", [2, 3, 13])
def test_copies_and_pickles_rebuild_the_element(q, how):
    elements = [
        Laurent(q, -2, [1, 0, q - 1]),  # exact
        Laurent(q, 1, [q - 1, 1], known_to=5),  # inexact
        Laurent(q, 0, [], known_to=3),  # undecidable valuation
        Field(q).zero(),
    ]
    for x in elements:
        y = _COPIES[how](x)
        assert type(y) is Laurent and y == x
        assert y.exact is x.exact and y.val() == x.val()
        if x.exact:
            assert y.known_to is INF


def test_field_requires_prime_q():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)


# -- addition --------------------------------------------------------------

def test_char2_cancellation():
    assert F2.parse("1 + u") + F2.parse("1 + u^2") == F2.parse("u + u^2")


def test_add_zero_is_identity():
    x = F2.parse("1 + u^3")
    assert x + F2.zero() == x


def test_abstract_tails_add_soundly():
    one_tail = F2.one() + F2.unknown(2)
    s = one_tail + one_tail
    assert s.digits == () and s.known_to == 2 and not s.exact


def test_mul_monomials():
    assert F2.u() * F2.u() == F2.u(2)


def test_mul_example():
    assert F2.u() * F2.parse("1 + u") == F2.parse("u + u^2")


def test_unit_tails_compose():
    x = F2.one() + F2.unknown(2)
    p = x * x
    assert p.digits == (1,) and p.lead == 0 and p.known_to == 2


def test_mul_precision_rule_uses_leading_valuations():
    x = Laurent(2, 3, [1], known_to=9)   # u^3 + O(u^9)
    y = Laurent(2, -1, [1], known_to=4)  # u^-1 + O(u^4)
    p = x * y
    # min(lead(x) + k(y), lead(y) + k(x)) = min(3+4, -1+9) = 7
    assert p.known_to == 7 and p.digits == (1,) and p.lead == 2


def test_scale_by_zero_is_exact_zero():
    x = F2.one() + F2.unknown(2)
    assert x.scale(0).is_exact_zero


# -- inversion ---------------------------------------------------------------

def test_inv_geometric_series():
    # frozen via the long-division oracle: 1/(1+u) = 1+u+u^2+u^3 mod u^4
    y = F2.parse("1 + u").inv(4)
    assert y.digits == (1, 1, 1, 1) and y.lead == 0 and y.known_to == 4
    assert (F2.parse("1 + u") * y).equal_mod(F2.one(), 4) is True


def test_inv_monomial_is_exact():
    y = F2.u().inv(100)
    assert y == F2.u(-1) and y.exact


def test_inv_insufficient_precision():
    x = Laurent(2, 2, [1], known_to=3)  # u^2 known mod u^3: supports N-2v = -1
    with pytest.raises(InsufficientPrecision):
        x.inv(3)


def test_inv_of_unknown_leading_digit():
    with pytest.raises(ZeroOrUnknownLeadingDigit):
        F2.unknown(2).inv(4)
    with pytest.raises(ZeroOrUnknownLeadingDigit):
        F2.zero().inv(4)


def test_inv_matches_long_division_oracle():
    rng = random.Random(7)
    for q in (2, 3):
        for _ in range(40):
            digits = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(rng.randrange(0, 12))]
            x = Laurent(q, rng.randrange(-5, 6), digits)
            n = rng.randrange(1, 30)
            got = x.inv(n)  # carries n correct digits of the unit inverse
            want = series_inverse_digits(x, n)
            for i in range(n):
                assert got.digit_at(-x.lead + i) == want[i]


# -- classify ----------------------------------------------------------------

def test_classify_one_plus_pim():
    assert classify(F2.parse("1 + u^2"), "1+pim") is True
    assert classify(F2.parse("1 + u"), "1+pim") is False


def test_classify_pi_plus_pim():
    assert classify(F2.u(), "pi+pim") is True    # x - u = 0
    assert classify(F2.u(2), "pi+pim") is False  # val(u^2 - u) = 1


def test_classify_undecidable_tail():
    # 1 + O(u) might or might not be in 1+pim
    x = Laurent(2, 0, [1], known_to=1)
    assert classify(x, "1+pim") is None
    # but 1 + O(u^2) definitely is
    y = Laurent(2, 0, [1], known_to=2)
    assert classify(y, "1+pim") is True


def test_classify_O_and_m():
    assert classify(F2.one(), "O") is True
    assert classify(F2.u(-1), "O") is False
    assert classify(F2.u(), "m") is True
    assert classify(F2.one(), "m") is False
    assert classify(F2.unknown(2), "m") is True  # val >= 2 >= 1


def test_classify_rejects_unknown_region():
    with pytest.raises(ValueError):
        classify(F2.one(), "1+m")


@pytest.mark.parametrize("q", [2, 3])
def test_classify_constant_on_residue_classes(q):
    # memberships are decided by digits below u^3, exhaustively over O/u^3
    f = Field(q)
    for c0 in range(q):
        for c1 in range(q):
            for c2 in range(q):
                base = f.from_int_poly([c0, c1, c2])
                verdicts = [classify(base, r) for r in ("O", "m", "1+pim", "pi+pim")]
                for tail_pos in (3, 4):
                    for tail_digit in range(1, q):
                        shifted = base + f.monomial(tail_digit, tail_pos)
                        assert [
                            classify(shifted, r) for r in ("O", "m", "1+pim", "pi+pim")
                        ] == verdicts


# -- equality mod u^n ---------------------------------------------------------

def test_equal_mod_tristate():
    x = F2.parse("1 + u^3")
    y = F2.one()
    assert x.equal_mod(y, 3) is True
    assert x.equal_mod(y, 4) is False
    z = Laurent(2, 0, [1], known_to=3)
    assert z.equal_mod(y, 3) is True
    assert z.equal_mod(y, 4) is None


# -- hypothesis properties -----------------------------------------------------

@settings(max_examples=300)
@given(st.sampled_from(PROPERTY_QS).flatmap(lambda q: st.tuples(exact_elements(q), exact_elements(q))))
def test_ultrametric_law(pair):
    x, y = pair
    s = x + y
    vx, vy, vs = x.val(), y.val(), s.val()
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@settings(max_examples=200)
@given(
    st.sampled_from(PROPERTY_QS).flatmap(
        lambda q: st.tuples(exact_elements(q), exact_elements(q), exact_elements(q))
    )
)
def test_ring_axioms(triple):
    x, y, z = triple
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=150)
@given(
    st.sampled_from(PROPERTY_QS).flatmap(
        lambda q: st.tuples(st.just(q), exact_elements(q), exact_elements(q))
    )
)
def test_arithmetic_matches_dict_oracle(args):
    q, x, y = args
    assert to_dict(x + y) == dict_add(to_dict(x), to_dict(y), q)
    assert to_dict(x * y) == dict_mul(to_dict(x), to_dict(y), q)


def test_kronecker_path_matches_schoolbook():
    # long rows (200 by 150 digits) through the one Kronecker product,
    # against the schoolbook dict oracle
    rng = random.Random(3)
    for q in (2, 3, 257):
        f = Field(q)
        for _ in range(20):
            a = f.from_int_poly([rng.randrange(q) for _ in range(200)], lead=-5)
            b = f.from_int_poly([rng.randrange(q) for _ in range(150)], lead=2)
            assert to_dict(a * b) == dict_mul(to_dict(a), to_dict(b), q)


@settings(max_examples=150)
@given(
    st.sampled_from(PROPERTY_QS).flatmap(
        lambda q: st.tuples(
            st.just(q),
            exact_elements(q),
            exact_elements(q),
            st.integers(1, 10),
            st.integers(1, 10),
            st.data(),
        )
    )
)
def test_precision_soundness_under_tail_perturbation(args):
    # truncated operands must predict every concretization of their tails
    q, x, y, nx, ny, data = args
    kx = (x.val() if x.digits else 0) + nx
    ky = (y.val() if y.digits else 0) + ny
    xt, yt = x.truncate(kx), y.truncate(ky)
    tail_x = Laurent(q, kx, data.draw(st.lists(st.integers(0, q - 1), max_size=6)))
    tail_y = Laurent(q, ky, data.draw(st.lists(st.integers(0, q - 1), max_size=6)))
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        approx = op(xt, yt)
        concrete = op(x + tail_x, y + tail_y)
        assert approx.known_to is not INF
        assert concrete.equal_mod(approx, approx.known_to) is True


@settings(max_examples=100)
@given(
    st.sampled_from(PROPERTY_QS).flatmap(
        lambda q: st.tuples(exact_elements(q), st.integers(1, 20))
    )
)
def test_inv_is_two_sided_inverse_mod_target(args):
    x, n = args
    if not x.digits:
        return
    f_one = Laurent(x.q, 0, (1,))
    y = x.inv(n)
    assert (x * y).equal_mod(f_one, n) is True
    assert (y * x).equal_mod(f_one, n) is True


@settings(max_examples=300)
@given(
    st.sampled_from(PROPERTY_QS).flatmap(
        lambda q: st.tuples(
            elements(q), elements(q), st.integers(0, q - 1), st.integers(-30, 30), st.integers(-5, 30)
        )
    )
)
def test_arithmetic_results_are_canonical(args):
    # every result built by the trusted constructor is one the public
    # constructor would build from its fields
    x, y, c, e, n = args
    for r in (x + y, x - y, -x, x * y, y * x, x.scale(c), x.shift(e), x.truncate(n)):
        assert_canonical(r)
    if x.digits:
        try:
            assert_canonical(x.inv(n))
        except InsufficientPrecision:
            pass


@settings(max_examples=200)
@given(
    st.sampled_from(PROPERTY_QS).flatmap(
        lambda q: st.tuples(
            st.just(q),
            exact_elements(q),
            st.integers(1, 12),
            st.integers(-10, 30),
            st.lists(st.integers(0, q - 1), max_size=6),
        )
    )
)
def test_inv_precision_soundness_under_tail_perturbation(args):
    # the inverse of a truncated element agrees, to its own known_to, with
    # the inverse of every concretization of the cut-off tail
    q, x, nx, n, tail = args
    assume(x.digits)
    v = x.lead
    xt = x.truncate(v + nx)
    try:
        approx = xt.inv(n)
    except InsufficientPrecision:
        assert n > nx  # only past the input's capacity, u^(v + nx - v)
        return
    assert approx.known_to is not INF
    concrete = (x + Laurent(q, v + nx, tail)).inv(approx.known_to + v)
    assert concrete.equal_mod(approx, approx.known_to) is True


# -- text grammar ----------------------------------------------------------------

def test_parse_frozen_example():
    x = parse_laurent("u^-2 + 1 + u^3", 2)
    assert x.lead == -2 and x.digits == (1, 0, 1, 0, 0, 1) and x.exact


def test_parse_inexact():
    x = parse_laurent("1 + O(u^2)", 2)
    assert x.digits == (1,) and x.known_to == 2 and not x.exact


def test_parse_digit_out_of_range():
    with pytest.raises(DigitRangeError):
        parse_laurent("2*u", 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(LaurentSyntaxError) as e:
        parse_laurent("1 + uu^2", 2)
    assert e.value.pos is not None and e.value.pos >= 4


def test_parse_rejects_duplicate_exponent():
    with pytest.raises(LaurentSyntaxError):
        parse_laurent("u + u", 2)


def test_parse_zero_and_bare_oterm():
    assert parse_laurent("0", 3).is_exact_zero
    t = parse_laurent("O(u^2)", 3)
    assert t.digits == () and t.known_to == 2


def test_serialize_coefficients_over_f3():
    x = Laurent(3, -1, [2, 0, 1, 2])
    assert laurent_to_str(x) == "2*u^-1 + u + 2*u^2"
    assert parse_laurent(laurent_to_str(x), 3) == x


@settings(max_examples=300)
@given(
    st.sampled_from(PROPERTY_QS).flatmap(
        lambda q: st.tuples(st.just(q), exact_elements(q), st.one_of(st.none(), st.integers(-10, 40)))
    )
)
def test_roundtrip_random_elements(args):
    q, x, maybe_known = args
    if maybe_known is not None:
        x = x.truncate(maybe_known)
    text = laurent_to_str(x)
    assert parse_laurent(text, q) == x
    assert laurent_to_str(parse_laurent(text, q)) == text
