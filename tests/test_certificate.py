"""Certificate pipeline: construction, serialization, re-verification."""

import copy
import json

import pytest

from pingpong3.certificate import (
    CERT_VERSION,
    certificate_text,
    construct_pipeline,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from pingpong3.errors import CertificateError, StageError
from pingpong3.linalg import Mat

# small but real parameters: the whole pipeline runs in well under a second
SMALL = dict(level=5, gamma_bound=2, word_bound=3)


@pytest.fixture(scope="module")
def result():
    return construct_pipeline(2, **SMALL)


@pytest.fixture(scope="module")
def cert_path(result, tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "q2.json"
    write_certificate(result.certificate, path)
    return path


def _stages(outcome):
    return {stage for stage, _ in outcome.failures}


def test_construction_passes_and_records_everything(result):
    assert result.report.passed
    assert result.survey.passed
    cert = result.certificate
    assert cert["version"] == CERT_VERSION
    assert cert["q"] == 2
    assert cert["power_applied"] == 2
    assert cert["strategy"] == "synthetic"
    assert cert["n0"] == 2
    assert cert["n0_source"] == "eigenbasis-valuation-bound"
    assert cert["verification"]["feasible_level"] <= cert["verification"]["level"]
    assert cert["constants"]["alpha"] == "3"
    assert cert["reports"]["pingpong"]["passed"] is True
    assert cert["reports"]["words"]["passed"] is True
    assert cert["reports"]["irreducible"] is True
    assert len(cert["eigen"]["valuations"]) == 3


def test_serialization_is_byte_deterministic(result):
    again = construct_pipeline(2, **SMALL)
    assert certificate_text(again.certificate) == certificate_text(result.certificate)


def test_write_load_round_trip(result, cert_path):
    loaded = load_certificate(cert_path)
    assert loaded == json.loads(certificate_text(result.certificate))


def test_verification_passes_at_stored_parameters(cert_path):
    outcome = verify_certificate(cert_path)
    assert outcome.passed
    assert set(outcome.reports) == {"pingpong", "words"}
    assert outcome.summary().startswith("re-verification at level 5")
    assert "PASS" in outcome.summary()


def test_verification_accepts_an_in_memory_dict(result):
    outcome = verify_certificate(copy.deepcopy(result.certificate))
    assert outcome.passed


def test_raising_the_parameters_still_passes(cert_path):
    outcome = verify_certificate(cert_path, level=6, gamma_bound=3, word_bound=4)
    assert outcome.passed
    assert outcome.parameters == {"level": 6, "gamma_bound": 3, "word_bound": 4}


@pytest.mark.parametrize("override", [dict(level=4), dict(gamma_bound=1), dict(word_bound=2)])
def test_weakening_overrides_are_refused(cert_path, override):
    with pytest.raises(CertificateError, match="weaken"):
        verify_certificate(cert_path, **override)


def test_tampered_g_fails_every_dependent_stage(result):
    bad = copy.deepcopy(result.certificate)
    bad["g"] = Mat.identity(2).to_text()
    outcome = verify_certificate(bad)
    assert not outcome.passed
    stages = _stages(outcome)
    assert "consistency" in stages  # g is no longer h^n0
    assert "verify_pingpong" in stages  # identity contracts nothing
    assert "word_survey" in stages  # c-syllables collapse to identity words
    assert "irreducibility_witness" in stages
    assert outcome.reports["pingpong"].violation_counts  # real sweep violations


def test_tampered_digest_is_detected(result):
    bad = copy.deepcopy(result.certificate)
    bad["sigma_digest"] = "0" * 64
    outcome = verify_certificate(bad)
    assert _stages(outcome) == {"sigma_exclusion"}


def test_tampered_constants_are_detected(result):
    bad = copy.deepcopy(result.certificate)
    bad["constants"]["c_total"] = bad["constants"]["c_total"] + 1
    outcome = verify_certificate(bad)
    assert "qi_constants" in _stages(outcome)


def _reversed(items):
    return list(reversed(items))


# (field path, tampering, the stage that must fail)
TAMPERS = [
    (("reports", "irreducible"), lambda v: False, "irreducibility_witness"),
    (("n0_source",), lambda v: "guessed", "contraction_power"),
    (("eigen", "vectors"), _reversed, "contraction_power"),
    (("eigen", "eigenvalues"), _reversed, "contraction_power"),
    (("eigen", "precision"), lambda v: 20, "contraction_power"),
    (("verification", "feasible_level"), lambda v: v + 1, "contraction_power"),
    (("trials",), lambda v: v + 1, "find_regular"),
    (("seed",), lambda v: 7, "find_regular"),
    (("strategy",), lambda v: "lattice", "find_regular"),
]


@pytest.mark.parametrize(
    "path, tamper, stage", TAMPERS, ids=[".".join(path) for path, _, _ in TAMPERS]
)
def test_tampered_field_is_detected(result, path, tamper, stage):
    bad = copy.deepcopy(result.certificate)
    *parents, key = path
    holder = bad
    for name in parents:
        holder = holder[name]
    holder[key] = tamper(holder[key])
    outcome = verify_certificate(bad)
    assert _stages(outcome) == {stage}


@pytest.mark.parametrize(
    "strategy, seed", [("synthetic", 5), ("lattice", 11)], ids=["synthetic", "lattice"]
)
def test_constructed_certificates_verify(strategy, seed):
    # the synthetic search ignores a seed, so the certificate records none
    cert = construct_pipeline(2, strategy=strategy, seed=seed, **SMALL).certificate
    assert cert["seed"] == (seed if strategy == "lattice" else None)
    outcome = verify_certificate(json.loads(certificate_text(cert)))
    assert outcome.passed, outcome.failures


def test_unknown_field_is_a_certificate_error(result):
    extra = copy.deepcopy(result.certificate)
    extra["comment"] = "trust me"
    with pytest.raises(CertificateError, match="unknown fields"):
        verify_certificate(extra)


def test_unreadable_files_are_certificate_errors(tmp_path):
    with pytest.raises(CertificateError, match="cannot read"):
        load_certificate(tmp_path / "missing.json")
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    with pytest.raises(CertificateError, match="not valid JSON"):
        load_certificate(junk)


def test_schema_violations_are_certificate_errors(result, tmp_path):
    missing = copy.deepcopy(result.certificate)
    del missing["sigma_digest"]
    path = tmp_path / "missing.json"
    write_certificate(missing, path)
    with pytest.raises(CertificateError, match="sigma_digest"):
        load_certificate(path)

    wrong_type = copy.deepcopy(result.certificate)
    wrong_type["version"] = "1"
    with pytest.raises(CertificateError, match="version"):
        verify_certificate(wrong_type)

    composite = copy.deepcopy(result.certificate)
    composite["q"] = 4
    with pytest.raises(CertificateError, match="not prime"):
        verify_certificate(composite)


@pytest.mark.parametrize(
    "key, value",
    [
        ("gamma_bound", 0),
        ("gamma_bound", -1),
        ("word_bound", 0),
        ("level", 2),
        ("word_bound", True),
        ("epsilon_exponent", False),
    ],
)
def test_stored_parameters_outside_their_range_are_refused(result, key, value):
    bad = copy.deepcopy(result.certificate)
    bad["verification"][key] = value
    with pytest.raises(CertificateError, match=f"verification.{key}"):
        verify_certificate(bad)


@pytest.mark.parametrize("key", ["trials", "seed", "n0"])
def test_booleans_are_not_integer_fields(result, key):
    # a lattice certificate with trials or seed true verified before
    cert = copy.deepcopy(result.certificate)
    cert[key] = True
    with pytest.raises(CertificateError, match=f"'{key}' must be int"):
        verify_certificate(cert)


@pytest.mark.parametrize(
    "bounds", [dict(gamma_bound=0), dict(word_bound=0)], ids=["gamma", "words"]
)
def test_construction_refuses_bounds_below_one(bounds):
    with pytest.raises(ValueError, match="at least 1"):
        construct_pipeline(2, **{**SMALL, **bounds})


def test_failed_stages_raise_stage_errors():
    with pytest.raises(StageError) as info:
        construct_pipeline(2, profile=(0, 1), **SMALL)
    assert info.value.stage == "make_generators"
    with pytest.raises(StageError) as info:
        construct_pipeline(2, strategy="lattice", seed=None, **SMALL)
    assert info.value.stage == "find_regular"
