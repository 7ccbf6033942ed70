"""Certificate pipeline: construction, serialization, re-verification."""

import collections
import copy
import json

import pytest

import pingpong3.certificate as certificate_module
from pingpong3.certificate import (
    CERT_VERSION,
    certificate_text,
    construct_pipeline,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from pingpong3.cli import main
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


def _replaced(cert, path, tamper):
    """A copy of ``cert`` with the value at ``path`` replaced by tamper(value)."""
    bad = copy.deepcopy(cert)
    *parents, key = path
    holder = bad
    for name in parents:
        holder = holder[name]
    holder[key] = tamper(holder[key])
    return bad


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
    (("strategy",), lambda v: "lattice", "find_regular"),
    # the pipeline's margin is 2; n0 and the feasible level come out the
    # same at 1, so only the margin check sees this
    (("verification", "margin_exponent"), lambda v: v - 1, "contraction_power"),
]


@pytest.mark.parametrize(
    "path, tamper, stage", TAMPERS, ids=[".".join(path) for path, _, _ in TAMPERS]
)
def test_tampered_field_is_detected(result, path, tamper, stage):
    outcome = verify_certificate(_replaced(result.certificate, path, tamper))
    assert _stages(outcome) == {stage}


def test_inflated_epsilon_budget_is_refused_at_raised_bounds(result):
    # at the stored bounds the sweep report differs too; at a raised level
    # only the comparison with the recomputed epsilon sees it
    bad = copy.deepcopy(result.certificate)
    bad["verification"]["epsilon_exponent"] += 1000
    outcome = verify_certificate(bad, level=6)
    assert _stages(outcome) == {"qi_constants"}


# (override, stored report field, the stage that must fail): a stored report
# is compared whenever the bounds it depends on are at their stored values
RAISED_TAMPERS = [
    (dict(word_bound=4), ("reports", "pingpong", "domain_balls"), "verify_pingpong"),
    (dict(level=6), ("reports", "words", "min_growth_margin"), "word_survey"),
]


@pytest.mark.parametrize(
    "override, path, stage", RAISED_TAMPERS, ids=[".".join(p) for _, p, _ in RAISED_TAMPERS]
)
def test_stored_report_is_compared_when_only_other_bounds_are_raised(
    result, override, path, stage
):
    bad = _replaced(result.certificate, path, lambda v: 999999)
    assert _stages(verify_certificate(bad, **override)) == {stage}
    assert verify_certificate(result.certificate, **override).passed


def _respaced(text):
    return text.replace(", ", " ,  ")


# (field path, stored value, the stage that must fail, or CertificateError):
# Python's == takes 16.0 and true for 16 and 1, and parsing forgets spacing
RETYPED = [
    (("constants", "c_total"), 16.0, "qi_constants"),
    (("constants", "theta_exponent"), False, "qi_constants"),
    (("eigen", "valuations", 0), -2.0, "contraction_power"),
    (("verification", "feasible_level"), 3.0, "contraction_power"),
    (("reports", "words", "words"), 142.0, "word_survey"),
    (("reports", "pingpong", "min_growth_margin"), True, "verify_pingpong"),
    (("profile",), [True, 1], CertificateError),
    (("g",), _respaced, CertificateError),
    (("h",), _respaced, CertificateError),
    (("generators", "a"), _respaced, CertificateError),
]


@pytest.mark.parametrize(
    "path, value, stage", RETYPED, ids=[".".join(map(str, path)) for path, _, _ in RETYPED]
)
def test_stored_values_must_be_written_as_construct_writes_them(result, path, value, stage):
    def tamper(old):
        if callable(value):
            return value(old)
        assert old == value and json.dumps(old) != json.dumps(value)
        return value

    bad = _replaced(result.certificate, path, tamper)
    if stage is CertificateError:
        with pytest.raises(CertificateError):
            verify_certificate(bad)
    else:
        assert stage in _stages(verify_certificate(bad))


def _int_leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _int_leaves(value, path + (key,))
        elif isinstance(value, int) and not isinstance(value, bool):
            yield path + (key,), value


def test_every_integer_leaf_written_as_float_or_bool_is_refused():
    cert = construct_pipeline(2, level=4, gamma_bound=1, word_bound=2).certificate
    accepted = []
    for path, value in _int_leaves(cert):
        for retyped in [float(value)] + ([bool(value)] if value in (0, 1) else []):
            try:
                if verify_certificate(_replaced(cert, path, lambda _: retyped)).passed:
                    accepted.append((path, retyped))
            except CertificateError:
                pass
    assert accepted == []


def test_relabelled_lattice_certificate_is_refused(result):
    # the synthetic h has entries with u^1 and u^3, so it is not in SL3(F_q[t])
    bad = copy.deepcopy(result.certificate)
    bad["strategy"] = "lattice"
    outcome = verify_certificate(bad)
    assert _stages(outcome) == {"find_regular"}
    assert ("find_regular", "h is not an element of SL3(F_q[t])") in outcome.failures


@pytest.mark.parametrize(
    "strategy, seed", [("synthetic", 5), ("lattice", 11)], ids=["synthetic", "lattice"]
)
def test_constructed_certificates_verify(strategy, seed):
    # verify replays no search, so neither its seed nor its trials are stored
    cert = construct_pipeline(2, strategy=strategy, seed=seed, **SMALL).certificate
    assert "seed" not in cert and "trials" not in cert
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


@pytest.mark.parametrize("key", ["q", "power_applied", "n0"])
def test_booleans_are_not_integer_fields(result, key):
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


# the stage callables perfbench's tracer patches on pingpong3.certificate
STAGE_CALLABLES = (
    "verify_pingpong",
    "word_survey",
    "sigma_exclusion",
    "find_regular",
    "qi_constants",
    "irreducibility_witness",
    "eigen_flags",
)


@pytest.fixture
def stage_calls(monkeypatch):
    calls = collections.Counter()
    for name in STAGE_CALLABLES:
        original = getattr(certificate_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(certificate_module, name, counted)
    return calls


def test_stages_reach_their_callables_through_the_certificate_module(stage_calls, capsys):
    cert = construct_pipeline(2, **SMALL).certificate
    # the search calls eigen_flags from its own module
    assert set(stage_calls) == set(STAGE_CALLABLES) - {"eigen_flags"}

    stage_calls.clear()
    assert verify_certificate(cert).passed
    # the search is not replayed; the eigen data are rebuilt from h
    assert set(stage_calls) == set(STAGE_CALLABLES) - {"find_regular"}

    stage_calls.clear()
    assert main(["words", "--q", "2", "--word-bound", "2"]) == 0
    assert set(stage_calls) == {"sigma_exclusion", "find_regular", "qi_constants", "word_survey"}
