"""Exception types shared across the package.

Everything that can go wrong falls into three buckets:

* arithmetic that cannot proceed at the available precision
  (``InsufficientPrecision`` and friends) -- these are recoverable by
  recomputing inputs with more known digits;
* contract violations detected by a verification stage
  (``ExclusionFailed``, ``InsufficientLevel``, ``SearchExhausted``) -- these
  describe the *input*, not a bug;
* parse errors for the text grammars.
"""


class InsufficientPrecision(ArithmeticError):
    """An operation needs more known digits than the input carries."""


class ZeroOrUnknownLeadingDigit(ArithmeticError):
    """Inversion of an element whose leading digit is zero or not known."""


class SingularOrUndecidable(ArithmeticError):
    """Matrix inversion where det's leading digit is zero or undecided."""


class NotSimpleSegment(ValueError):
    """Root lifting requested on a Newton-polygon segment of length > 1."""


class AllCoordinatesVanish(ValueError):
    """A projective point was built from a (known-)zero vector."""


class InsufficientLevel(ValueError):
    """The ball level M is too small for image memberships to be decided."""


class ExclusionFailed(Exception):
    """A sign case of the sigma analysis cannot exclude valuation 1.

    Signals an invalid generator pair (broken valuation pattern), not a
    program bug.  ``case`` names the first failing sign pattern, e.g. "(+,0)".
    """

    def __init__(self, case, reason):
        self.case = case
        self.reason = reason
        super().__init__(f"sign case {case}: {reason}")


class SearchExhausted(RuntimeError):
    """Seeded search ran out of budget without an acceptable candidate."""

    def __init__(self, budget, message=""):
        self.budget = budget
        super().__init__(message or f"no candidate within {budget} trials")


class CertificateError(ValueError):
    """A certificate that cannot be used at all: unreadable file, bad JSON,
    missing schema fields, or an override below the stored parameters."""


class StageError(RuntimeError):
    """A pipeline stage failed during construction; ``stage`` names it."""

    def __init__(self, stage, detail):
        self.stage = stage
        self.detail = detail
        super().__init__(f"stage {stage}: {detail}")


class LaurentSyntaxError(ValueError):
    """Malformed element/matrix text; ``pos`` is the offset of the bad term."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class DigitRangeError(LaurentSyntaxError):
    """A coefficient outside [0, q), or not an integer, in element text or
    a digit list."""
