"""Self-contained construction certificates and their re-verification.

A certificate is a JSON document holding everything the verifier needs and
nothing it must trust: the field size, the diagonal generators, the regular
element h with its power n0 and g = h^n0, the eigensystem data, the
embedding constants, the verification parameters, and digests/summaries of
the runs that produced it.  All matrix entries are exact element strings;
json.dumps with sorted keys makes equal inputs byte-identical.  ``_record``
is the one writer of its fields.

The pipeline is written once, in two halves -- ``front_half``: generators
-> exclusion -> search -> constants; ``back_half``: ball sweep -> word
survey -> fixed-flag witness -- whose stages run through one runner,
``Stages``.  Under its raise policy (construct, words, inspect) the first
failure raises StageError; under its collect policy (verify's
VerifyOutcome) every failure is recorded and a stage whose input failed is
skipped, so a tampered certificate reports every broken claim that a
stage reaches, not just the first.  Stages look their layers up as globals
of this module at call time, where perfbench patches them.

verify_certificate rebuilds the certificate construct would write from the
stored inputs (version, q, profile, strategy, the three bounds) and h:

* the search is not replayed, so its seed and trial count are not stored:
  h's eigen data are rebuilt at the pipeline's own precision and turned
  into contraction data, a feasible level and g = h^n0 by the builder the
  search uses (stage ``contraction_power``).  When that fails, qi_constants
  and the back half are skipped, and there is no certificate to compare;
* the back half runs with the recomputed constants at the stored or a
  raised level / gamma bound / word bound (never a lowered one); each
  report is rebuilt at its stored bounds, by a rerun where they are raised;
* each leaf where the two certificates differ as JSON (a stored 4.0 or
  true is not a 4 or a 1) fails the stage that derives it, ``_OWNERS``;
* checked by hand: a synthetic h must be the synthetic proximal element, a
  lattice h must lie in SL3(F_q[t]), h and g must be exact, and a stored g
  that is not h^n0 is the g the back half sweeps.

Top-level fields outside the schema are refused when the certificate is
loaded (one further down is a differing leaf), and matrix texts that are
not the canonical text of their matrix before any stage runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import CertificateError, LaurentSyntaxError, StageError
from .field import INF, Laurent, check_q, laurent_to_str
from .linalg import parse_matrix
from .pingpong.constants import qi_constants
from .pingpong.generators import make_generators
from .pingpong.regular import (
    EIGEN_PRECISION,
    LATTICE_BUDGET,
    find_regular,
    make_proximal,
    proximal_candidate,
)
from .pingpong.sigma import sigma_exclusion
from .pingpong.verify import verify_pingpong
from .pingpong.witness import irreducibility_witness
from .pingpong.words import word_survey
from .spectral import eigen_flags

__all__ = [
    "CERT_VERSION",
    "ConstructResult",
    "Stages",
    "VerifyOutcome",
    "back_half",
    "certificate_text",
    "construct_pipeline",
    "front_half",
    "load_certificate",
    "verification_parameters",
    "verify_certificate",
    "write_certificate",
]

CERT_VERSION = 2
_N0_SOURCE = "eigenbasis-valuation-bound"


# -- construction ------------------------------------------------------------


def _eigen_payload(eigen):
    precision = min(x.known_to for x in eigen.eigenvalues)
    return {
        "precision": None if precision is INF else int(precision),
        "valuations": [int(v) for v in eigen.valuations],
        "eigenvalues": [laurent_to_str(x) for x in eigen.eigenvalues],
        "vectors": [[laurent_to_str(c) for c in vec] for vec in eigen.vectors],
    }


def _same(fresh, stored):
    """Whether a recomputed value and a stored one are the same JSON: 1,
    1.0 and true compare equal in Python, but are different claims."""
    return json.dumps(fresh, sort_keys=True) == json.dumps(stored, sort_keys=True)


def _differences(fresh, stored, path=()):
    """The path of every leaf where two JSON trees differ under ``_same``:
    differing dicts are walked over the union of their keys; lists and
    scalars are leaves."""
    if _same(fresh, stored):
        return
    if isinstance(fresh, dict) and isinstance(stored, dict):
        for key in sorted(fresh.keys() | stored.keys()):
            if key in fresh and key in stored:
                yield from _differences(fresh[key], stored[key], path + (key,))
            else:
                yield path + (key,)
    else:
        yield path


class Stages:
    """Runs named stages: a failure raises StageError(name, detail), or,
    with ``collect``, is recorded in ``failures`` as (name, message) and
    its stage returns None.  ``reports`` holds each sweep's report."""

    def __init__(self, collect=False):
        self.collect = collect
        self.failures = []
        self.reports = {}

    @property
    def passed(self):
        return not self.failures

    def fail(self, name, message):
        if not self.collect:
            raise StageError(name, message)
        self.failures.append((name, str(message)))

    def run(self, name, fn, *args, **kwargs):
        """Under ``collect`` a positional input of None comes from a failed
        stage: this one is skipped, returns None and records nothing."""
        if self.collect and any(arg is None for arg in args):
            return None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if not self.collect:
                raise StageError(name, exc) from exc
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None

    def check_report(self, name, key, report):
        """File a sweep stage's report under ``key``; the stage fails when
        the report has violations."""
        if report is None:
            return
        self.reports[key] = report
        if not report.passed:
            brief = f"{report.total_violations} violations"
            self.fail(name, brief if self.collect else report.summary())


def front_half(stages, q, profile, strategy, seed=None, budget=LATTICE_BUDGET, h=None):
    """generators -> exclusion -> search -> constants; returns (pair,
    exclusion, candidate, constants), with g = h^n0 as ``candidate.g``.  An
    ``h`` replaces the search: ``contraction_power`` rebuilds its candidate."""
    pair = stages.run("make_generators", make_generators, q, tuple(profile))
    exclusion = stages.run("sigma_exclusion", sigma_exclusion, pair)
    if h is None:
        candidate = stages.run("find_regular", find_regular, q, strategy, seed=seed, budget=budget)
    else:
        candidate = stages.run(
            "contraction_power",
            lambda: proximal_candidate(h, eigen_flags(h, precision=EIGEN_PRECISION), strategy),
        )
    constants = stages.run("qi_constants", qi_constants, pair, candidate)
    return pair, exclusion, candidate, constants


def back_half(stages, pair, g, constants, level, gamma_bound, word_bound, eigen=None):
    """ball sweep -> word survey -> fixed-flag witness; returns the sweep
    and survey reports (None where a collected stage failed or was skipped).
    ``eigen`` is g's eigensystem, or None for the sweep to lift its own."""
    if constants is None:
        return None, None
    report = stages.run(
        "verify_pingpong", verify_pingpong, pair, g, level, gamma_bound,
        eigen=eigen, epsilon_exponent=constants.epsilon_exponent,
    )
    stages.check_report("verify_pingpong", "pingpong", report)
    survey = stages.run("word_survey", word_survey, pair, g, word_bound, constants)
    stages.check_report("word_survey", "words", survey)
    witness = stages.run("irreducibility_witness", irreducibility_witness, pair, g)
    if witness is False:
        stages.fail("irreducibility_witness", "g fixes a coordinate flag")
    return report, survey


class ConstructResult(NamedTuple):
    """The certificate plus the live reports it summarizes."""

    certificate: dict
    exclusion: object
    candidate: object
    constants: object
    report: object
    survey: object


def construct_pipeline(
    q,
    profile=(1, 1),
    strategy="synthetic",
    seed=None,
    *,
    level,
    gamma_bound,
    word_bound,
    budget=LATTICE_BUDGET,
):
    """Run both halves of the pipeline under the raise policy.

    Any stage exception or failed report raises StageError with the stage
    name; a certificate is produced only for a fully verified construction.
    Inputs the verifier refuses (a q that is not a prime of at most MAX_Q, a
    gamma or word bound below 1) are a ValueError before any stage runs.
    """
    check_q(q)
    if gamma_bound < 1 or word_bound < 1:
        raise ValueError("the gamma bound and the word bound must be at least 1")
    stages = Stages()
    pair, exclusion, candidate, constants = front_half(stages, q, profile, strategy, seed, budget)
    bounds = {"level": level, "gamma_bound": gamma_bound, "word_bound": word_bound}
    g, eigen = candidate.g, candidate.g_eigen
    report, survey = back_half(stages, pair, g, constants, **bounds, eigen=eigen)
    certificate = _record(q, profile, pair, exclusion, candidate, constants, bounds, report, survey)
    return ConstructResult(certificate, exclusion, candidate, constants, report, survey)


def _record(q, profile, pair, exclusion, candidate, constants, bounds, report, survey):
    """The certificate of these stage outputs: the one place its fields are
    written.  ``bounds`` are the level, gamma and word bounds of the runs
    that gave ``report`` and ``survey``; a failed run's report is null."""
    contraction = candidate.contraction
    return {
        "version": CERT_VERSION,
        "q": q,
        "profile": list(profile),
        "power_applied": q * (q - 1),
        "generators": {"a": pair.a.to_text(), "b": pair.b.to_text()},
        "strategy": candidate.strategy,
        "h": candidate.h.to_text(),
        "n0": contraction.n0,
        "n0_source": _N0_SOURCE,
        "g": candidate.g.to_text(),
        "eigen": _eigen_payload(candidate.eigen),
        "constants": constants.as_dict(),
        "verification": {
            **bounds,
            "margin_exponent": contraction.margin_exponent,
            "epsilon_exponent": constants.epsilon_exponent,
            "feasible_level": candidate.feasible_level,
        },
        "sigma_digest": exclusion.digest,
        "reports": {
            "pingpong": None if report is None else report.as_dict(),
            "words": None if survey is None else survey.as_dict(),
            "irreducible": True,
        },
    }


# the stage that derives each stored field: by its key, or under
# "verification" and "reports" by the key below.  The rebuild's inputs
# (version, q, profile, strategy and the three bounds) never differ.
_OWNERS = {
    key: stage
    for stage, keys in (
        ("make_generators", "power_applied generators"),
        ("sigma_exclusion", "sigma_digest"),
        ("find_regular", "h"),
        ("contraction_power", "n0 n0_source eigen margin_exponent feasible_level"),
        ("qi_constants", "constants epsilon_exponent"),
        ("consistency", "g"),
        ("verify_pingpong", "pingpong"),
        ("word_survey", "words"),
        ("irreducibility_witness", "irreducible"),
    )
    for key in keys.split()
}


def _owner(path):
    return _OWNERS.get(path[1] if path[0] in ("verification", "reports") else path[0])


# -- serialization -----------------------------------------------------------


def certificate_text(certificate):
    return json.dumps(certificate, sort_keys=True, indent=2) + "\n"


def write_certificate(certificate, path):
    Path(path).write_text(certificate_text(certificate))


_TOP_KEYS = {
    "version": int,
    "q": int,
    "profile": list,
    "power_applied": int,
    "generators": dict,
    "strategy": str,
    "h": str,
    "n0": int,
    "n0_source": str,
    "g": str,
    "eigen": dict,
    "constants": dict,
    "verification": dict,
    "sigma_digest": str,
    "reports": dict,
}
_VERIFICATION_KEYS = ("level", "gamma_bound", "word_bound", "margin_exponent", "epsilon_exponent")
# below these a sweep cannot decide its verdicts, or checks no element
_VERIFICATION_FLOORS = {"level": 3, "gamma_bound": 1, "word_bound": 1}


def _is_int(value):
    """An int that is not a bool: JSON true and false load as bools, which
    Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(cert):
    if not isinstance(cert, dict):
        raise CertificateError("certificate must be a JSON object")
    # an older schema has other fields, so its version is named first
    if cert.get("version") != CERT_VERSION:
        raise CertificateError(
            f"unsupported certificate version {cert.get('version')!r} (expected {CERT_VERSION})"
        )
    unknown = sorted(set(cert) - set(_TOP_KEYS))
    if unknown:
        raise CertificateError(f"certificate has unknown fields {unknown}")
    for key, kind in _TOP_KEYS.items():
        if key not in cert:
            raise CertificateError(f"certificate is missing {key!r}")
        if not (_is_int(cert[key]) if kind is int else isinstance(cert[key], kind)):
            raise CertificateError(f"certificate field {key!r} must be {kind.__name__}")
    try:
        check_q(cert["q"])
    except ValueError as exc:
        raise CertificateError(str(exc)) from None
    # as --profile: make_generators takes no exponent below 1
    if len(cert["profile"]) != 2 or not all(_is_int(k) and k >= 1 for k in cert["profile"]):
        raise CertificateError("certificate field 'profile' must be two positive integers")
    verification = cert["verification"]
    for key in _VERIFICATION_KEYS:
        if not _is_int(verification.get(key)):
            raise CertificateError(f"verification.{key} must be an integer")
    for key, least in _VERIFICATION_FLOORS.items():
        if verification[key] < least:
            raise CertificateError(f"verification.{key} must be at least {least}")
    for key in ("a", "b"):
        if not isinstance(cert["generators"].get(key), str):
            raise CertificateError(f"generators.{key} must be a matrix string")
    for key in ("alpha", "c_total", "r_prime"):
        if key not in cert["constants"]:
            raise CertificateError(f"constants.{key} is missing")
    if "valuations" not in cert["eigen"]:
        raise CertificateError("eigen.valuations is missing")
    return cert


def load_certificate(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CertificateError(f"cannot read certificate: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CertificateError(f"certificate is not UTF-8 text: {exc}") from exc
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"certificate is not valid JSON: {exc}") from exc
    return _validate(cert)


# -- re-verification -----------------------------------------------------------


class VerifyOutcome(Stages):
    """The collecting runner of one re-verification: every stage check that
    its inputs reach, ``passed`` iff none failed."""

    def __init__(self, parameters):
        super().__init__(collect=True)
        self.parameters = parameters

    def summary(self):
        p = self.parameters
        head = (
            f"re-verification at level {p['level']}, gamma bound "
            f"{p['gamma_bound']}, word bound {p['word_bound']}: "
        )
        lines = [head + ("PASS" if self.passed else f"FAIL ({len(self.failures)} stage checks)")]
        lines.extend(f"  {stage}: {message}" for stage, message in self.failures)
        for name in sorted(self.reports):
            rep = self.reports[name]
            if hasattr(rep, "summary"):
                lines.extend("  " + line for line in rep.summary().splitlines())
        return "\n".join(lines)


def _raised_only(name, stored, requested):
    if requested is None:
        return stored
    if requested < stored:
        raise CertificateError(
            f"{name} override {requested} would weaken the stored {stored}"
        )
    return requested


def verification_parameters(cert, level=None, gamma_bound=None, word_bound=None):
    """The level, gamma bound and word bound a re-verification of a
    validated certificate runs at: the stored ones, raised by any override;
    an override below the stored value is a CertificateError."""
    stored = cert["verification"]
    return {
        "level": _raised_only("level", stored["level"], level),
        "gamma_bound": _raised_only("gamma_bound", stored["gamma_bound"], gamma_bound),
        "word_bound": _raised_only("word_bound", stored["word_bound"], word_bound),
    }


def verify_certificate(source, level=None, gamma_bound=None, word_bound=None):
    """Rebuild a certificate from its inputs and its h, and compare.

    ``source`` is a path or an already-loaded certificate dict.  Overrides
    may only raise the stored level / gamma bound / word bound.  Stage
    failures are collected in the returned VerifyOutcome, not
    short-circuited.
    """
    cert = _validate(source) if isinstance(source, dict) else load_certificate(source)
    params = verification_parameters(cert, level, gamma_bound, word_bound)
    outcome = VerifyOutcome(params)
    q = cert["q"]

    names = ("generators.a", "generators.b", "h", "g")
    texts = (cert["generators"]["a"], cert["generators"]["b"], cert["h"], cert["g"])
    try:
        _, _, h, g = mats = [parse_matrix(text, q) for text in texts]
    except LaurentSyntaxError as exc:
        raise CertificateError(f"certificate matrices do not parse: {exc}") from exc
    for name, text, mat in zip(names, texts, mats):
        if mat.to_text() != text:
            raise CertificateError(f"{name} is not the canonical text of its matrix")

    pair, exclusion, candidate, constants = front_half(
        outcome, q, cert["profile"], cert["strategy"], h=h
    )
    # the search is not replayed; a lattice h must at least lie in
    # SL3(F_q[t]), t = 1/u: exact entries with no positive power of u, and
    # determinant 1
    if cert["strategy"] == "synthetic":
        if h != make_proximal(q):
            outcome.fail("find_regular", "h is not the synthetic proximal element")
    elif cert["strategy"] == "lattice":
        if not (
            all(x.exact and x.lead + len(x.digits) <= 1 for row in h.rows for x in row)
            and h.det() == Laurent(q, 0, (1,))
        ):
            outcome.fail("find_regular", "h is not an element of SL3(F_q[t])")
    else:
        outcome.fail("find_regular", f"unknown strategy {cert['strategy']!r}")

    # no work is sized by a stored claim: the back half runs with the
    # recomputed constants, on the rebuilt g when the stored one is h^n0
    g_eigen = None  # a stored g that is not h^n0 gets no eigensystem of h's
    if not (h.exact and g.exact):
        outcome.fail("consistency", "h and g must be exact matrices")
    elif candidate is not None and candidate.g == g:
        g, g_eigen = candidate.g, candidate.g_eigen  # already derived, as are g^-1 and compounds
    sweep, survey = back_half(outcome, pair, g, constants, **params, eigen=g_eigen)
    if constants is None or exclusion is None:
        return outcome  # a stage the rebuilt certificate needs has failed
    # each report is rebuilt at its stored bounds, by a rerun where they are
    # raised; ``reports`` keeps the back half's
    stored = {key: cert["verification"][key] for key in params}
    if stored["level"] != params["level"] or stored["gamma_bound"] != params["gamma_bound"]:
        sweep = outcome.run(
            "verify_pingpong", verify_pingpong, pair, g, stored["level"], stored["gamma_bound"],
            eigen=g_eigen, epsilon_exponent=constants.epsilon_exponent,
        )
    if stored["word_bound"] != params["word_bound"]:
        survey = outcome.run("word_survey", word_survey, pair, g, stored["word_bound"], constants)
    fresh = _record(
        q, cert["profile"], pair, exclusion, candidate, constants, stored, sweep, survey
    )
    raised = [("reports", key) for key, report in fresh["reports"].items() if report is None]
    for path in _differences(fresh, cert):
        if path[:2] in raised:
            continue  # that run raised, and its stage has failed already
        stage = _owner(path) or "consistency"  # a field no stage writes
        outcome.fail(stage, f"stored {'.'.join(path)} differs from the rerun")
    return outcome
