"""Self-contained construction certificates and their re-verification.

A certificate is a JSON document holding everything the verifier needs and
nothing it must trust: the field size, the diagonal generators, the regular
element h with its power n0 and g = h^n0, the eigensystem data, the
embedding constants, the verification parameters, and digests/summaries of
the runs that produced it.  All matrix entries are exact element strings;
json.dumps with sorted keys makes equal inputs byte-identical.

verify_certificate re-runs every stage from the stored objects alone:

* the generators must match the declared profile and pass the sign-case
  exclusion, whose recomputed digest must equal the stored one;
* a synthetic h must be the synthetic proximal element, found in one
  trial with no seed (a lattice search is not replayed);
* g must equal h^n0 exactly, and the contraction power, the eigen data,
  the feasible level and the constants must reproduce the stored values;
* the ball sweep, the word survey and the fixed-flag witness must pass --
  optionally at a higher level / gamma bound / word bound (overrides may
  strengthen the check, never weaken it);
* when run at the stored parameters, the fresh sweep and survey reports
  must agree with the stored ones field for field, and the stored
  irreducibility claim must be true.

Fields outside the schema are refused when the certificate is loaded.

Failures accumulate per stage instead of short-circuiting, so a tampered
certificate reports every broken claim, not just the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .errors import CertificateError, LaurentSyntaxError, StageError
from .field import INF, is_prime, laurent_to_str
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
    "VerifyOutcome",
    "certificate_text",
    "construct_pipeline",
    "load_certificate",
    "verification_parameters",
    "verify_certificate",
    "write_certificate",
]

CERT_VERSION = 1
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
    """Run generators -> exclusion -> search -> constants -> sweeps -> witness.

    Any stage exception or failed report raises StageError with the stage
    name; a certificate is produced only for a fully verified construction.
    Bounds the verifier refuses (gamma or word bound below 1) are a
    ValueError.
    """
    if gamma_bound < 1 or word_bound < 1:
        raise ValueError("the gamma bound and the word bound must be at least 1")

    def stage(name, fn):
        try:
            return fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    pair = stage("make_generators", lambda: make_generators(q, tuple(profile)))
    exclusion = stage("sigma_exclusion", lambda: sigma_exclusion(pair))
    candidate = stage(
        "find_regular", lambda: find_regular(q, strategy, seed=seed, budget=budget)
    )
    constants = stage("qi_constants", lambda: qi_constants(pair, candidate))
    g = candidate.h ** candidate.contraction.n0

    report = stage(
        "verify_pingpong",
        lambda: verify_pingpong(
            pair,
            g,
            level,
            gamma_bound,
            epsilon_exponent=constants.epsilon_exponent,
        ),
    )
    if not report.passed:
        raise StageError("verify_pingpong", report.summary())

    survey = stage(
        "word_survey", lambda: word_survey(pair, g, word_bound, constants)
    )
    if not survey.passed:
        raise StageError("word_survey", survey.summary())

    witness = stage(
        "irreducibility_witness", lambda: irreducibility_witness(pair, g)
    )
    if not witness:
        raise StageError("irreducibility_witness", "g fixes a coordinate flag")

    certificate = {
        "version": CERT_VERSION,
        "q": q,
        "profile": list(profile),
        "power_applied": q * (q - 1),
        "generators": {"a": pair.a.to_text(), "b": pair.b.to_text()},
        "strategy": candidate.strategy,
        # only a lattice search reads its seed
        "seed": seed if candidate.strategy == "lattice" else None,
        "trials": candidate.trials,
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
    "trials": int,
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
    unknown = sorted(set(cert) - set(_TOP_KEYS) - {"seed"})
    if unknown:
        raise CertificateError(f"certificate has unknown fields {unknown}")
    if "seed" not in cert:
        raise CertificateError("certificate is missing 'seed'")
    if cert["seed"] is not None and not _is_int(cert["seed"]):
        raise CertificateError("certificate field 'seed' must be int or null")
    for key, kind in _TOP_KEYS.items():
        if key not in cert:
            raise CertificateError(f"certificate is missing {key!r}")
        if not (_is_int(cert[key]) if kind is int else isinstance(cert[key], kind)):
            raise CertificateError(f"certificate field {key!r} must be {kind.__name__}")
    if cert["version"] != CERT_VERSION:
        raise CertificateError(f"unsupported certificate version {cert['version']}")
    if not is_prime(cert["q"]):
        raise CertificateError(f"q = {cert['q']} is not prime")
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
        text = Path(path).read_text()
    except OSError as exc:
        raise CertificateError(f"cannot read certificate: {exc}") from exc
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"certificate is not valid JSON: {exc}") from exc
    return _validate(cert)


# -- re-verification -----------------------------------------------------------


@dataclass
class VerifyOutcome:
    """All stage checks of one re-verification; ``passed`` iff none failed."""

    certificate: dict
    parameters: dict
    failures: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)

    @property
    def passed(self):
        return not self.failures

    def fail(self, stage, message):
        self.failures.append((stage, str(message)))

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
    failures are collected, not short-circuited.
    """
    cert = _validate(source) if isinstance(source, dict) else load_certificate(source)
    stored = cert["verification"]
    params = verification_parameters(cert, level, gamma_bound, word_bound)
    at_stored = all(params[k] == stored[k] for k in params)
    outcome = VerifyOutcome(cert, params)
    q = cert["q"]

    try:
        a = parse_matrix(cert["generators"]["a"], q)
        b = parse_matrix(cert["generators"]["b"], q)
        h = parse_matrix(cert["h"], q)
        g = parse_matrix(cert["g"], q)
    except LaurentSyntaxError as exc:
        raise CertificateError(f"certificate matrices do not parse: {exc}") from exc

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:
            outcome.fail(name, f"{type(exc).__name__}: {exc}")
            return None

    pair = stage("generators", lambda: make_pair(a, b))
    if pair is not None:
        declared = stage(
            "generators", lambda: make_generators(q, tuple(cert["profile"]))
        )
        if declared is not None and (declared.a != a or declared.b != b):
            outcome.fail("generators", "stored generators do not match the profile")
    if cert["power_applied"] != q * (q - 1):
        outcome.fail("generators", "power_applied is not q(q-1)")

    if not (h.exact and g.exact):
        outcome.fail("consistency", "h and g must be exact matrices")
    elif not (h ** cert["n0"] == g):
        outcome.fail("consistency", f"g is not h^{cert['n0']}")

    if pair is not None:
        exclusion = stage("sigma_exclusion", lambda: sigma_exclusion(pair))
        if exclusion is not None and exclusion.digest != cert["sigma_digest"]:
            outcome.fail("sigma_exclusion", "recomputed trace digest differs")

    # the search itself is replayed only for the synthetic strategy
    if cert["strategy"] == "synthetic":
        if h != make_proximal(q):
            outcome.fail("find_regular", "h is not the synthetic proximal element")
        if cert["trials"] != 1 or cert["seed"] is not None:
            outcome.fail("find_regular", "synthetic search takes 1 trial and no seed")
    elif cert["strategy"] == "lattice":
        if cert["seed"] is None or cert["trials"] < 1:
            outcome.fail("find_regular", "lattice search needs a seed and a trial")
    else:
        outcome.fail("find_regular", f"unknown strategy {cert['strategy']!r}")

    if cert["n0_source"] != _N0_SOURCE:
        outcome.fail("contraction_power", f"n0_source is not {_N0_SOURCE!r}")
    rebuilt = stage(
        "contraction_power",
        lambda: _rebuild_candidate(
            h, cert["eigen"].get("precision"), stored["margin_exponent"]
        ),
    )
    constants = None
    if rebuilt is not None:
        if list(rebuilt.eigen.valuations) != list(cert["eigen"]["valuations"]):
            outcome.fail("contraction_power", "eigenvalue valuations differ")
        elif _eigen_payload(rebuilt.eigen) != cert["eigen"]:
            outcome.fail("contraction_power", "stored eigen data differ")
        if rebuilt.contraction.n0 != cert["n0"]:
            outcome.fail(
                "contraction_power",
                f"recomputed n0 {rebuilt.contraction.n0} != stored {cert['n0']}",
            )
        if rebuilt.feasible_level != stored.get("feasible_level"):
            outcome.fail(
                "contraction_power",
                f"recomputed feasible level {rebuilt.feasible_level} != stored "
                f"{stored.get('feasible_level')}",
            )
        if pair is not None:
            constants = stage("qi_constants", lambda: qi_constants(pair, rebuilt))
            if constants is not None and constants.as_dict() != cert["constants"]:
                outcome.fail("qi_constants", "recomputed constants differ")

    if pair is None:
        return outcome

    report = stage(
        "verify_pingpong",
        lambda: verify_pingpong(
            pair,
            g,
            params["level"],
            params["gamma_bound"],
            epsilon_exponent=stored["epsilon_exponent"],
        ),
    )
    if report is not None:
        outcome.reports["pingpong"] = report
        if not report.passed:
            outcome.fail("verify_pingpong", f"{report.total_violations} violations")
        elif at_stored and report.as_dict() != cert["reports"].get("pingpong"):
            outcome.fail("verify_pingpong", "stored sweep report differs from the rerun")

    claimed = SimpleNamespace(
        alpha=Fraction(cert["constants"]["alpha"]),
        c_total=cert["constants"]["c_total"],
        r_prime=cert["constants"]["r_prime"],
    )
    survey = stage(
        "word_survey", lambda: word_survey(pair, g, params["word_bound"], claimed)
    )
    if survey is not None:
        outcome.reports["words"] = survey
        if not survey.passed:
            outcome.fail("word_survey", f"{survey.total_violations} violations")
        elif at_stored and survey.as_dict() != cert["reports"].get("words"):
            outcome.fail("word_survey", "stored survey report differs from the rerun")

    witness = stage("irreducibility_witness", lambda: irreducibility_witness(pair, g))
    if witness is not None and witness is not True:
        outcome.fail("irreducibility_witness", "g fixes a coordinate flag")
    if cert["reports"].get("irreducible") is not True:
        outcome.fail("irreducibility_witness", "stored irreducibility claim is not true")

    return outcome


def _rebuild_candidate(h, precision, margin_exponent):
    eigen = eigen_flags(h, precision=precision)
    contraction = contraction_power(eigen, margin_exponent)
    return SimpleNamespace(
        eigen=eigen,
        contraction=contraction,
        feasible_level=minimum_feasible_level(eigen, contraction),
    )
