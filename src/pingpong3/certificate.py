"""Self-contained construction certificates and their re-verification.

A certificate is a JSON document holding everything the verifier needs and
nothing it must trust: the field size, the diagonal generators, the regular
element h with its power n0 and g = h^n0, the eigensystem data, the
embedding constants, the verification parameters, and digests/summaries of
the runs that produced it.  All matrix entries are exact element strings;
json.dumps with sorted keys makes equal inputs byte-identical.

The pipeline is written once, in two halves -- ``front_half``: generators
-> exclusion -> search -> constants -> g = h^n0; ``back_half``: ball sweep
-> word survey -> fixed-flag witness -- whose stages run through one
runner, ``Stages``.  Under its raise policy (construct, words, inspect) the
first failure raises StageError; under its collect policy (verify's
VerifyOutcome) every failure is recorded, so a tampered certificate
reports every broken claim, not just the first.  Stages look their layers
up as globals of this module at call time, where perfbench patches them.

verify_certificate re-runs every stage from the stored objects alone:

* the generators must match the declared profile and pass the sign-case
  exclusion, whose recomputed digest must equal the stored one;
* a synthetic h must be the synthetic proximal element; a lattice h must
  lie in SL3(F_q[t]) (the lattice search itself is not replayed, so its
  seed and trial count are not stored);
* g must equal h^n0 exactly, and the contraction power, the eigen data,
  the feasible level, the constants and the stored margin and epsilon
  exponents must reproduce the stored values -- as the same JSON, so a
  stored 4.0 or true is not a 4 or a 1;
* the back half must pass -- optionally at a higher level / gamma bound /
  word bound (overrides may strengthen the check, never weaken it);
* the fresh sweep report must agree with the stored one field for field
  when run at the stored level and gamma bound, the survey report when run
  at the stored word bound, and the stored irreducibility claim must be
  true.

Fields outside the schema are refused when the certificate is loaded, and
matrix texts that are not the canonical text of their matrix before any
stage runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .errors import CertificateError, LaurentSyntaxError, StageError
from .field import INF, Laurent, is_prime, laurent_to_str
from .linalg import parse_matrix
from .pingpong.constants import qi_constants
from .pingpong.generators import make_generators, make_pair
from .pingpong.regular import (
    contraction_power,
    find_regular,
    make_proximal,
    minimum_feasible_level,
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
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if not self.collect:
                raise StageError(name, exc) from exc
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None

    def check_report(self, name, key, noun, report, stored=None):
        """File a sweep stage's report under ``key``.  The stage fails when
        the report has violations and, when the ``stored`` reports hold
        ``key``, when a passing rerun differs from the stored one."""
        if report is None:
            return
        self.reports[key] = report
        if not report.passed:
            brief = f"{report.total_violations} violations"
            self.fail(name, brief if self.collect else report.summary())
        elif key in (stored or {}) and not _same(report.as_dict(), stored[key]):
            self.fail(name, f"stored {noun} report differs from the rerun")


def front_half(stages, q, profile, strategy, seed, budget):
    """generators -> exclusion -> search -> constants -> g = h^n0; returns
    (pair, exclusion, candidate, constants, g)."""
    pair = stages.run("make_generators", make_generators, q, tuple(profile))
    exclusion = stages.run("sigma_exclusion", sigma_exclusion, pair)
    candidate = stages.run("find_regular", find_regular, q, strategy, seed=seed, budget=budget)
    constants = stages.run("qi_constants", qi_constants, pair, candidate)
    return pair, exclusion, candidate, constants, candidate.h ** candidate.contraction.n0


def back_half(stages, pair, g, constants, level, gamma_bound, word_bound, stored=None):
    """ball sweep -> word survey -> fixed-flag witness; returns the sweep
    and survey reports (None where a collected stage failed)."""
    eps = constants.epsilon_exponent
    report = stages.run(
        "verify_pingpong", verify_pingpong, pair, g, level, gamma_bound, epsilon_exponent=eps
    )
    stages.check_report("verify_pingpong", "pingpong", "sweep", report, stored)
    survey = stages.run("word_survey", word_survey, pair, g, word_bound, constants)
    stages.check_report("word_survey", "words", "survey", survey, stored)
    witness = stages.run("irreducibility_witness", irreducibility_witness, pair, g)
    if witness is False:
        stages.fail("irreducibility_witness", "g fixes a coordinate flag")
    return report, survey


@dataclass(frozen=True)
class ConstructResult:
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
    level=10,
    gamma_bound=3,
    word_bound=8,
    budget=100_000,
):
    """Run both halves of the pipeline under the raise policy.

    Any stage exception or failed report raises StageError with the stage
    name; a certificate is produced only for a fully verified construction.
    Bounds the verifier refuses (gamma or word bound below 1) are a
    ValueError.
    """
    if gamma_bound < 1 or word_bound < 1:
        raise ValueError("the gamma bound and the word bound must be at least 1")
    stages = Stages()
    pair, exclusion, candidate, constants, g = front_half(
        stages, q, profile, strategy, seed, budget
    )
    report, survey = back_half(stages, pair, g, constants, level, gamma_bound, word_bound)

    certificate = {
        "version": CERT_VERSION,
        "q": q,
        "profile": list(profile),
        "power_applied": q * (q - 1),
        "generators": {"a": pair.a.to_text(), "b": pair.b.to_text()},
        "strategy": candidate.strategy,
        "h": candidate.h.to_text(),
        "n0": candidate.contraction.n0,
        "n0_source": _N0_SOURCE,
        "g": g.to_text(),
        "eigen": _eigen_payload(candidate.eigen),
        "constants": constants.as_dict(),
        "verification": {
            "level": level,
            "gamma_bound": gamma_bound,
            "word_bound": word_bound,
            "margin_exponent": candidate.contraction.margin_exponent,
            "epsilon_exponent": constants.epsilon_exponent,
            "feasible_level": candidate.feasible_level,
        },
        "sigma_digest": exclusion.digest,
        "reports": {
            "pingpong": report.as_dict(),
            "words": survey.as_dict(),
            "irreducible": True,
        },
    }
    return ConstructResult(certificate, exclusion, candidate, constants, report, survey)


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
    if not is_prime(cert["q"]):
        raise CertificateError(f"q = {cert['q']} is not prime")
    if len(cert["profile"]) != 2 or not all(_is_int(k) for k in cert["profile"]):
        raise CertificateError("certificate field 'profile' must be two integers")
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
    """The collecting runner of one re-verification: every stage check,
    ``passed`` iff none failed."""

    def __init__(self, certificate, parameters):
        super().__init__(collect=True)
        self.certificate = certificate
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
    """Re-run every verification stage of a certificate.

    ``source`` is a path or an already-loaded certificate dict.  Overrides
    may only raise the stored level / gamma bound / word bound.  Stage
    failures are collected in the returned VerifyOutcome, not
    short-circuited.
    """
    cert = _validate(source) if isinstance(source, dict) else load_certificate(source)
    stored = cert["verification"]
    params = verification_parameters(cert, level, gamma_bound, word_bound)
    # a stored report is compared when the bounds its stage runs at are stored
    bounds = {"pingpong": ("level", "gamma_bound"), "words": ("word_bound",)}
    stored_reports = {
        key: cert["reports"].get(key)
        for key, names in bounds.items()
        if all(params[k] == stored[k] for k in names)
    }
    outcome = VerifyOutcome(cert, params)
    q = cert["q"]

    names = ("generators.a", "generators.b", "h", "g")
    texts = (cert["generators"]["a"], cert["generators"]["b"], cert["h"], cert["g"])
    try:
        a, b, h, g = mats = [parse_matrix(text, q) for text in texts]
    except LaurentSyntaxError as exc:
        raise CertificateError(f"certificate matrices do not parse: {exc}") from exc
    for name, text, mat in zip(names, texts, mats):
        if mat.to_text() != text:
            raise CertificateError(f"{name} is not the canonical text of its matrix")

    pair = outcome.run("generators", make_pair, a, b)
    if pair is not None:
        declared = outcome.run("generators", make_generators, q, tuple(cert["profile"]))
        if declared is not None and (declared.a != a or declared.b != b):
            outcome.fail("generators", "stored generators do not match the profile")
    if cert["power_applied"] != q * (q - 1):
        outcome.fail("generators", "power_applied is not q(q-1)")

    if not (h.exact and g.exact):
        outcome.fail("consistency", "h and g must be exact matrices")
    elif not (h ** cert["n0"] == g):
        outcome.fail("consistency", f"g is not h^{cert['n0']}")

    if pair is not None:
        exclusion = outcome.run("sigma_exclusion", sigma_exclusion, pair)
        if exclusion is not None and exclusion.digest != cert["sigma_digest"]:
            outcome.fail("sigma_exclusion", "recomputed trace digest differs")

    # the search itself is replayed only for the synthetic strategy; a
    # lattice h must at least lie in SL3(F_q[t]), t = 1/u: exact entries
    # with no positive power of u, and determinant 1
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

    if cert["n0_source"] != _N0_SOURCE:
        outcome.fail("contraction_power", f"n0_source is not {_N0_SOURCE!r}")
    precision = cert["eigen"].get("precision")
    rebuilt = outcome.run("contraction_power", _rebuild_candidate, h, precision)
    if rebuilt is not None:
        payload = _eigen_payload(rebuilt.eigen)
        if not _same(payload["valuations"], cert["eigen"]["valuations"]):
            outcome.fail("contraction_power", "eigenvalue valuations differ")
        elif not _same(payload, cert["eigen"]):
            outcome.fail("contraction_power", "stored eigen data differ")
        if rebuilt.contraction.margin_exponent != stored["margin_exponent"]:
            outcome.fail("contraction_power", "stored margin exponent is not the pipeline's")
        if rebuilt.contraction.n0 != cert["n0"]:
            outcome.fail(
                "contraction_power",
                f"recomputed n0 {rebuilt.contraction.n0} != stored {cert['n0']}",
            )
        if not _same(rebuilt.feasible_level, stored.get("feasible_level")):
            outcome.fail(
                "contraction_power",
                f"recomputed feasible level {rebuilt.feasible_level} != stored "
                f"{stored.get('feasible_level')}",
            )
        if pair is not None:
            constants = outcome.run("qi_constants", qi_constants, pair, rebuilt)
            if constants is not None:
                if not _same(constants.as_dict(), cert["constants"]):
                    outcome.fail("qi_constants", "recomputed constants differ")
                if constants.epsilon_exponent != stored["epsilon_exponent"]:
                    outcome.fail("qi_constants", "stored epsilon exponent differs")

    if pair is None:
        return outcome

    claimed = SimpleNamespace(
        alpha=Fraction(cert["constants"]["alpha"]),
        c_total=cert["constants"]["c_total"],
        r_prime=cert["constants"]["r_prime"],
        epsilon_exponent=stored["epsilon_exponent"],
    )
    back_half(outcome, pair, g, claimed, **params, stored=stored_reports)
    if cert["reports"].get("irreducible") is not True:
        outcome.fail("irreducibility_witness", "stored irreducibility claim is not true")

    return outcome


def _rebuild_candidate(h, precision):
    """h's eigen and contraction data at the pipeline's margin, the default
    of ``contraction_power`` that ``find_regular`` uses."""
    eigen = eigen_flags(h, precision=precision)
    contraction = contraction_power(eigen)
    return SimpleNamespace(
        eigen=eigen,
        contraction=contraction,
        feasible_level=minimum_feasible_level(eigen, contraction),
    )
