"""The shared digit layout: supports, slot widths, packing, reduction."""

import random

import pytest

from pingpong3.digits import (
    mod_rows,
    pack_row,
    row_bytes,
    slot_bytes,
    support,
    unpack_row,
    unpack_stripped,
)
from pingpong3.field import Laurent, is_prime

from oracles import dict_mul, from_dict, to_dict


def test_support_spans_every_known_digit_and_is_none_without_one():
    q = 5
    elems = [Laurent(q, 2, [1, 4]), Laurent(q, -3, [2], known_to=0), Laurent(q, 0, ())]
    assert support(elems) == (-3, 4)
    assert support([Laurent(q, 0, ()), Laurent(q, 0, (), known_to=3)]) is None
    assert support([]) is None


def test_slot_bytes_switches_at_each_boundary():
    cases = [(0, 1), (255, 1), (256, 2), (2**16 - 1, 2), (2**16, 4)]
    cases += [(2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8)]
    for top, nbytes in cases:
        assert slot_bytes(top) == nbytes
    with pytest.raises(ValueError):
        slot_bytes(2**64)


@pytest.mark.parametrize("nbytes, q", [(1, 251), (2, 65521), (4, 2**31 - 1), (8, 2**61 - 1)])
def test_pack_unpack_round_trip(nbytes, q):
    # packed rows, and packed slots of any size reduced mod q
    rng = random.Random(nbytes)
    rows = [[rng.randrange(q) for _ in range(9)] for _ in range(4)]
    rows[0][-1] = q - 1  # the top slot is full
    packed = [pack_row(row, nbytes) for row in rows]
    assert [list(unpack_row(v, nbytes, 9, q)) for v in packed] == rows
    slots = [[rng.randrange(256**nbytes) for _ in range(9)] for _ in range(4)]
    slots[0][-1] = 256**nbytes - 1
    reduced = mod_rows([pack_row(row, nbytes) for row in slots], nbytes, q)
    assert reduced == [pack_row([s % q for s in row], nbytes) for row in slots]


@pytest.mark.parametrize("q", [2, 13, 251, 65537, 2**31 - 1, 4294967311])
def test_long_laurent_products_match_the_dict_oracle(q):
    """Rows of 1 to 130 digits through the one Kronecker product: 1-, 2-,
    4- and 8-byte slots at q = 2, 13, 251, 65537, and slots wider than 8
    bytes at q = 2^31 - 1 (from 5 digits on) and 4294967311, where (q - 1)^2
    times the row length needs more than 64 bits."""
    assert is_prime(q)
    rng = random.Random(q)
    shapes = [(la, lb) for la in (1, 2, 5, 14, 31) for lb in (1, 7, 31)]
    for la, lb in shapes + [(32, 32), (40, 75), (130, 33)]:
        a = Laurent(q, rng.randrange(-4, 4), [rng.randrange(1, q) for _ in range(la)])
        b = Laurent(q, rng.randrange(-4, 4), [q - 1] * lb)
        assert a * b == from_dict(dict_mul(to_dict(a), to_dict(b), q), q)


@pytest.mark.parametrize("q", [2, 3, 13])
def test_unpack_stripped_is_unpack_row_without_zero_ends(q):
    # packed sums (an XOR at q = 2) whose slots are zero mod q at the low
    # end, the high end, both or throughout
    rng = random.Random(q)
    for width in (1, 2, 5, 9):
        for _ in range(40):
            rows = [[rng.choice((0, 0, rng.randrange(q))) for _ in range(width)] for _ in range(2)]
            if q == 2:
                value = pack_row(rows[0], 1) ^ pack_row(rows[1], 1)
            else:
                value = pack_row(rows[0], 1) + (q - 1) * pack_row(rows[1], 1)
            full = unpack_row(value, 1, width, q)
            lo = next((i for i, d in enumerate(full) if d), width)
            hi = max((i + 1 for i, d in enumerate(full) if d), default=lo)
            assert unpack_stripped(value, width, q) == (lo, full[lo:hi])


@pytest.mark.parametrize("nbytes, q", [(1, 13), (2, 251), (9, 4294967311)])
def test_row_pack_unpack_round_trip(nbytes, q):
    rng = random.Random(nbytes)
    row = tuple(rng.randrange(q) for _ in range(8)) + (q - 1,)
    assert row_bytes((q - 1) * (q - 1)) == nbytes
    assert unpack_row(pack_row(row, nbytes), nbytes, len(row), q) == row
    assert unpack_row(pack_row(row, nbytes) * 2, nbytes, len(row), q) == tuple(
        2 * d % q for d in row
    )


def test_q2_byte_slots_reduce_by_their_low_bits():
    # the low-bit mask against the translate path, on packed sums of three
    # rows whose slot sums run up to 255, over lengths that cross the
    # mask's sizes
    rng = random.Random(2)
    table = bytes(i % 2 for i in range(256))
    for length in (1, 7, 8, 9, 63, 64, 65, 300):
        values = [0, 3 * pack_row([85] * length, 1)]
        for _ in range(20):
            rows = [[rng.randrange(86) for _ in range(length)] for _ in range(3)]
            values.append(sum(pack_row(row, 1) for row in rows))
        translated = [
            int.from_bytes(v.to_bytes(length, "little").translate(table), "little") for v in values
        ]
        assert mod_rows(values, 1, 2) == translated
        assert [mod_rows([v], 1, 2)[0] for v in values] == translated
