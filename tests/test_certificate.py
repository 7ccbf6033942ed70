"""Certificate pipeline: construction, serialization, re-verification."""

import collections
import copy
import hashlib
import json

import pytest

import pingpong3.certificate as certificate_module
import pingpong3.field as field_module
import pingpong3.pingpong.regular as regular_module
import pingpong3.pingpong.verify as verify_module
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
from pingpong3.pingpong.generators import make_generators
from pingpong3.pingpong.verify import Violation
from pingpong3.pingpong.words import word_survey
from pingpong3.projgeom import enumerate_balls
from pingpong3.spectral import NewtonPolygon

# small but real parameters: the whole pipeline runs in well under a second
SMALL = dict(level=5, gamma_bound=2, word_bound=3)
# built at import: the leaf walk below is parametrized over its JSON
RESULT = construct_pipeline(2, **SMALL)


@pytest.fixture(scope="module")
def result():
    return RESULT


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


# sha256 of certificate_text: refactors of the pipeline move no byte
PINNED_CERTIFICATES = [
    (2, dict(level=5, gamma_bound=3, word_bound=4),
     "e36c2754e42b592410458389195208d8c84f9ab37e5936cae93e67403fc221cc"),
    (3, dict(level=5, gamma_bound=2, word_bound=3),
     "3e8228a17f6f38935982c84209a81db0fd574ea9f807e18ef07eeb3377fa5d57"),
    (2, dict(strategy="lattice", seed=11, **SMALL),
     "76df5b9190433c07cad538a72837a0a8b7cddee879b68a1102fb16e86aa52678"),
]  # fmt: skip


@pytest.mark.parametrize(
    "q, args, digest", PINNED_CERTIFICATES, ids=["q2-synthetic", "q3-synthetic", "q2-lattice"]
)
def test_certificate_bytes_are_pinned(q, args, digest):
    text = certificate_text(construct_pipeline(q, **args).certificate)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_q3_lattice_search_skips_undecidable_candidates():
    """Seed 4 at q = 3 draws candidates whose invariant lines cannot be
    decided at the search's precision: each counts as not positioned, and
    the search goes on to an h whose certificate verifies."""
    result = construct_pipeline(
        3, strategy="lattice", seed=4, budget=4000, level=6, gamma_bound=3, word_bound=6
    )
    assert result.candidate.trials == 1889
    assert verify_certificate(result.certificate).passed
    text = certificate_text(result.certificate)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1fd7b8f7e49ae6b2fc596715ea7d6589a90ca93fb061984a00423483f219c60c"
    )


def test_each_quantity_is_derived_once(monkeypatch):
    """construct_pipeline and verify_certificate, at the stored and at
    raised bounds, each raise h to n0 once and lift one eigensystem, h's:
    every sweep reads g's from it.  Each eigensystem builds the adjugate
    of its basis at most once."""
    powers, adjugated, systems = [], [], []
    power, adjugate, eigen_flags = Mat.__pow__, Mat.adjugate, certificate_module.eigen_flags

    def recorded(*args, **kwargs):
        systems.append(eigen_flags(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(Mat, "__pow__", lambda m, k: powers.append((m, k)) or power(m, k))
    monkeypatch.setattr(Mat, "adjugate", lambda m: adjugated.append(m) or adjugate(m))
    for module in (certificate_module, regular_module, verify_module):
        monkeypatch.setattr(module, "eigen_flags", recorded)

    def derived_once(h, n0):
        bases = collections.Counter(e.basis.to_text() for e in systems)
        built = collections.Counter(m.to_text() for m in adjugated)
        once = sum(k == n0 and m == h for m, k in powers) == 1
        lifted = [e.matrix for e in systems] == [h]
        for spy in (powers, adjugated, systems):
            spy.clear()
        return once and lifted and all(built[text] <= count for text, count in bases.items())

    result = construct_pipeline(2, **SMALL)
    h, n0 = result.candidate.h, result.candidate.contraction.n0
    assert derived_once(h, n0)
    assert verify_certificate(result.certificate).passed
    assert derived_once(h, n0)
    assert verify_certificate(result.certificate, level=6, gamma_bound=3, word_bound=4).passed
    assert derived_once(h, n0)


def test_g_inverse_and_compounds_are_formed_once(monkeypatch):
    """A construction, and a verification of its certificate, each form
    g^-1 and the second compound of g once: the feasible level, the sweep
    and the survey share them.  The compound of g^-1 is never formed, as
    its lognorm is read off g."""
    returned = collections.defaultdict(list)
    for name in ("second_compound", "inverse"):

        def spy(m, name=name, derive=getattr(Mat, name)):
            returned[name, m].append(derive(m))
            return returned[name, m][-1]

        monkeypatch.setattr(Mat, name, spy)
    result = construct_pipeline(2, **SMALL)
    g = result.candidate.g
    keys = [("inverse", g), ("second_compound", g)]
    assert all(len({id(m) for m in returned[key]}) == 1 for key in keys)
    assert not returned["second_compound", g.inverse()]
    returned.clear()
    assert verify_certificate(result.certificate).passed
    assert all(len({id(m) for m in returned[key]}) == 1 for key in keys)
    assert not returned["second_compound", g.inverse()]


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


def test_records_are_immutable(result):
    """Assigning any field of a value record, or of a pair's or eigensystem's
    derived state, raises AttributeError."""
    cand, exclusion = result.candidate, result.exclusion
    case = exclusion.cases[0]
    records = [result, cand, cand.contraction, cand.eigen, result.constants, exclusion, case]
    records += [case.num, NewtonPolygon(cand.h.char_poly()).segments[0], make_generators(2)]
    records += [next(enumerate_balls(2, 3)), Violation("gamma-window", "a", "3:000/000/100")]
    word_survey(make_generators(2), cand.g, 1, result.constants, sink=records.append)
    assert len({type(record) for record in records}) == 13
    for record in records:
        for name in getattr(record, "_fields", None) or type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name, None))


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
    # the sweep lifts the stored g's own eigensystem, not the candidate's
    assert "not-proximal" in outcome.reports["pingpong"].violation_counts


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
    # g = h^n0 is checked with the recomputed n0, and the back half runs
    # with the recomputed constants, so neither claim sizes any work
    (("n0",), lambda v: v + 5, "contraction_power"),
    (("constants", "r_prime"), lambda v: v + 1, "qi_constants"),
]


@pytest.mark.parametrize(
    "path, tamper, stage", TAMPERS, ids=[".".join(path) for path, _, _ in TAMPERS]
)
def test_tampered_field_is_detected(result, path, tamper, stage):
    outcome = verify_certificate(_replaced(result.certificate, path, tamper))
    assert _stages(outcome) == {stage}


def test_inflated_epsilon_budget_is_refused_at_raised_bounds(result):
    # the back half runs with the recomputed epsilon, so the sweep report
    # comes out as stored: at the stored bounds and at a raised level alike
    # only the comparison with the recomputed epsilon sees the change
    bad = copy.deepcopy(result.certificate)
    bad["verification"]["epsilon_exponent"] += 1000
    assert _stages(verify_certificate(bad)) == {"qi_constants"}
    outcome = verify_certificate(bad, level=6)
    assert _stages(outcome) == {"qi_constants"}


def _leaf_paths(node, path=()):
    """Every leaf of a JSON tree, and every list as a leaf of its own."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, list):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def _leaf_tampers(value):
    """±1, a flipped bool, an appended space, a changed last digit, a
    reversed or shortened list: each a real change of ``value``."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1]
    if isinstance(value, str):
        digits = [i for i, c in enumerate(value) if c.isdigit()]
        changed = [value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1 :] for i in digits[-1:]]
        return [value + " ", *changed]
    if isinstance(value, list):
        return [v for v in (value[::-1], value[:-1]) if v != value]
    return []  # null


STORED = json.loads(certificate_text(RESULT.certificate))
LEAVES = list(_leaf_paths(STORED))


@pytest.mark.parametrize("path", LEAVES, ids=[".".join(map(str, p)) for p in LEAVES])
def test_every_tampered_stored_leaf_is_refused(path):
    """Each change of a stored leaf fails a verify stage or is refused by
    the loader; no other exception escapes.  ``TAMPERS`` pins the stage."""
    *parents, key = path
    holder = STORED
    for name in parents:
        holder = holder[name]
    for tampered in _leaf_tampers(holder[key]):
        try:
            outcome = verify_certificate(_replaced(STORED, path, lambda _: tampered))
        except CertificateError:
            continue
        assert not outcome.passed, tampered


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


# (override, stored report field, the stage that must fail): a stored report
# is compared with a rerun at its own stored bounds when they are raised
RAISED_OWN_TAMPERS = [
    (dict(level=6), ("reports", "pingpong", "domain_balls"), "verify_pingpong"),
    (dict(gamma_bound=3), ("reports", "pingpong", "domain_balls"), "verify_pingpong"),
    (dict(word_bound=4), ("reports", "words", "words"), "word_survey"),
    (dict(level=6, word_bound=4), ("reports", "pingpong", "domain_balls"), "verify_pingpong"),
    (dict(level=6, word_bound=4), ("reports", "words", "words"), "word_survey"),
]


@pytest.mark.parametrize(
    "override, path, stage",
    RAISED_OWN_TAMPERS,
    ids=["-".join(override) + ":" + ".".join(p) for override, p, _ in RAISED_OWN_TAMPERS],
)
def test_stored_report_is_compared_when_its_own_bounds_are_raised(
    result, override, path, stage
):
    raised = {**SMALL, **override}
    bad = _replaced(result.certificate, path, lambda v: v + 1)
    outcome = verify_certificate(bad, **override)
    assert _stages(outcome) == {stage}
    # the outcome keeps the reports of the run at the raised bounds
    sweep, survey = outcome.reports["pingpong"], outcome.reports["words"]
    assert (sweep.level, sweep.gamma_bound, survey.bound) == tuple(raised.values())
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


# sha256 of the JSON list [summary(), each report's as_dict()] of verify
# runs of the lattice seed-11 certificate, at its stored level and above
LATTICE_VERIFY_DIGESTS = {
    5: "d923154ba04997b2be70c1b509d0985d985f8aafa767a545cb5f08396d132a1f",
    6: "804a1cb9a3bd6276d8d4dd5ad85f2c9fbf7b37d1c4fe43b5b9491a5678cae237",
}


@pytest.mark.parametrize("level", sorted(LATTICE_VERIFY_DIGESTS))
def test_lattice_verify_reports_are_pinned(monkeypatch, level):
    # a lattice h's eigen data are not exact, so every sweep lifts g's
    # own eigensystem: the back half's, and at a raised level the rerun's
    cert = construct_pipeline(2, strategy="lattice", seed=11, **SMALL).certificate
    lifted, original = [], verify_module.eigen_flags
    monkeypatch.setattr(
        verify_module, "eigen_flags", lambda m, **kw: lifted.append(m) or original(m, **kw)
    )
    outcome = verify_certificate(cert, level=level)
    reports = {key: report.as_dict() for key, report in outcome.reports.items()}
    text = json.dumps([outcome.summary(), reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_VERIFY_DIGESTS[level]
    assert [m.to_text() for m in lifted] == [cert["g"]] * (1 if level == SMALL["level"] else 2)


def test_stored_eigen_precision_sizes_no_work(monkeypatch):
    # h's eigen data are rebuilt at the pipeline's precision and only then
    # compared, so a stored precision of 2000 fails one stage at no cost
    cert = construct_pipeline(2, strategy="lattice", seed=11, **SMALL).certificate
    cert["eigen"]["precision"] = 2000
    precisions = []
    original = certificate_module.eigen_flags

    def spy(mat, precision=None):
        precisions.append(precision)
        return original(mat, precision=precision)

    monkeypatch.setattr(certificate_module, "eigen_flags", spy)
    assert _stages(verify_certificate(cert)) == {"contraction_power"}
    assert precisions and 2000 not in precisions


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


def test_schema_violations_are_certificate_errors(result, tmp_path, monkeypatch):
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

    # refused before any primality test: trial division of 2^61 - 1 would
    # run for minutes
    is_prime, limit = field_module.is_prime, field_module.MAX_Q
    monkeypatch.setattr(field_module, "is_prime", lambda n: n <= limit and is_prime(n))
    huge = copy.deepcopy(result.certificate)
    huge["q"] = 2**61 - 1
    with pytest.raises(CertificateError, match="too large"):
        verify_certificate(huge)


@pytest.mark.parametrize("profile", [[0, 1], [1, 0], [-2, 3]])
def test_profile_exponents_below_one_are_refused(result, profile):
    # as --profile refuses them, before any stage runs
    bad = copy.deepcopy(result.certificate)
    bad["profile"] = profile
    with pytest.raises(CertificateError, match="two positive integers"):
        verify_certificate(bad)


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
