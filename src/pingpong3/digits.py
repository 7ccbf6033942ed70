"""The exact-digit layout shared by the field, the ball sweep and the word
survey: the exponent span of Laurent elements (``support``), and digit
rows packed into Python ints with one little-endian byte slot per digit,
so that the native product of two packed rows is their packed
convolution and their native sum their digitwise sum (Kronecker
substitution, Harvey, J. Symbolic Comput. 2009):
``pack_row``/``unpack_row`` for the digit tuples of single elements
(``unpack_stripped`` for one-byte slots with zero slots stripped), and
``mod_rows`` to reduce packed sums and products mod q (at q = 2 with
one-byte slots by a mask of each byte's low bit).

The width rules sit side by side: ``slot_bytes`` sizes Kronecker slots of
at most 8 bytes and ``row_bytes`` tuple-row slots of any width, each for
the largest value it must hold; a slot too narrow would carry into the
next.  numpy is imported only where ``mod_rows`` reduces slots wider than
one byte: every window product of the survey from q = 5 up, and c^r
tables of a g too deep for one-byte slots.
"""

from __future__ import annotations

from functools import lru_cache


def support(elems):
    """Smallest [lo, hi) holding every known digit of ``elems``, or None
    when no element has one."""
    spans = [(x.lead, x.lead + len(x.digits)) for x in elems if x.digits]
    return (min(s[0] for s in spans), max(s[1] for s in spans)) if spans else None


def slot_bytes(top):
    """Narrowest Kronecker slot, 1, 2, 4 or 8 bytes, that holds 0 .. top."""
    for nbytes in (1, 2, 4, 8):
        if top < 1 << (8 * nbytes):
            return nbytes
    raise ValueError("coefficients too wide for 8-byte slots")


def row_bytes(top):
    """Narrowest tuple-row slot, any whole number of bytes, that holds 0 .. top."""
    return max(1, (top.bit_length() + 7) >> 3)


@lru_cache(maxsize=None)
def _mod_table(q):
    return bytes(i % q for i in range(256))  # a byte's residue mod q


def pack_row(row, nbytes):
    """A digit tuple as one Python int, digit i in little-endian slot i."""
    if nbytes == 1:
        return int.from_bytes(bytes(row), "little")
    return int.from_bytes(b"".join(d.to_bytes(nbytes, "little") for d in row), "little")


def unpack_row(value, nbytes, width, q):
    """The ``width`` slots of a packed value, mod q, as a tuple of ints."""
    blob = value.to_bytes(width * nbytes, "little")
    if nbytes == 1:
        return tuple(blob.translate(_mod_table(q)))
    slots = range(0, len(blob), nbytes)
    return tuple(int.from_bytes(blob[i : i + nbytes], "little") % q for i in slots)


def unpack_stripped(value, width, q):
    """The ``width`` one-byte slots of a packed value, mod q (at q = 2 an
    XOR sum, already 0 or 1), with zero slots stripped at both ends: the
    index of the first slot kept, and the kept slots as a tuple of ints."""
    blob = value.to_bytes(width, "little")
    body = (blob if q == 2 else blob.translate(_mod_table(q))).lstrip(b"\0")
    return width - len(body), tuple(body.rstrip(b"\0"))


@lru_cache(maxsize=None)
def _low_bits(log2):
    """0x0101...01 over 2^log2 bits (at least one byte): each byte's low bit."""
    return int.from_bytes(b"\1" * (1 << max(log2 - 3, 0)), "little")


def mod_rows(values, nbytes, q):
    """Packed values with every slot reduced mod q."""
    out, table = [], _mod_table(q)
    for v in values:  # a loop, not a comprehension: most calls reduce one value
        if nbytes == 1 and q == 2:  # a byte's residue mod 2 is its low bit
            out.append(v & _low_bits(v.bit_length().bit_length()))
            continue
        blob = v.to_bytes(-(-v.bit_length() // (8 * nbytes)) * nbytes, "little")
        if nbytes == 1:
            out.append(int.from_bytes(blob.translate(table), "little"))
        else:
            import numpy as np  # here only: the synthetic q = 2 and 3 surveys never get here

            out.append(int.from_bytes((np.frombuffer(blob, f"<u{nbytes}") % q).tobytes(), "little"))
    return out
