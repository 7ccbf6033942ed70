"""CLI driver: argument handling, exit codes, output shape."""

import json
import re

import pytest

import pingpong3.field as field_module
from pingpong3.certificate import certificate_text, construct_pipeline
from pingpong3.cli import main

SMALL = ["--level", "5", "--gamma-bound", "2", "--word-bound", "3"]


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "q2.json"
    code = main(["construct", "--q", "2", *SMALL, "--out", str(path)])
    assert code == 0
    return path


def test_construct_writes_a_certificate(cert_path, capsys):
    cert = json.loads(cert_path.read_text())
    assert cert["q"] == 2
    assert cert["verification"]["level"] == 5


def test_construct_prints_the_summaries(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["construct", "--q", "2", *SMALL, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "level 5 sweep, gamma bound 2: PASS" in text
    assert "word survey to length 3" in text
    assert f"certificate written to {out}" in text


def test_verify_passes_and_prints_pass(cert_path, capsys):
    assert main(["verify", str(cert_path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_accepts_raised_levels(cert_path):
    assert main(["verify", str(cert_path), "--level", "6"]) == 0


def test_verify_rejects_weakening_with_usage_exit(cert_path, capsys):
    assert main(["verify", str(cert_path), "--level", "4"]) == 2
    assert "weaken" in capsys.readouterr().err


def test_verify_fails_on_a_tampered_certificate(cert_path, tmp_path, capsys):
    cert = json.loads(cert_path.read_text())
    cert["g"] = "1, 0, 0; 0, 1, 0; 0, 0, 1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert main(["verify", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def _edited(cert_path, tmp_path, **fields):
    cert = json.loads(cert_path.read_text())
    cert.update(fields)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cert))
    return path


def test_verify_refuses_non_3x3_matrix_text_with_exit_2(cert_path, tmp_path, capsys):
    assert main(["verify", str(_edited(cert_path, tmp_path, g="1, 0; 0, 1"))]) == 2
    err = capsys.readouterr().err
    assert "certificate matrices do not parse" in err and "Traceback" not in err


def test_verify_fails_an_unparsable_alpha_at_its_stage_with_exit_1(
    cert_path, tmp_path, capsys
):
    cert = json.loads(cert_path.read_text())
    cert["constants"]["alpha"] = "abc"
    path = _edited(cert_path, tmp_path, constants=cert["constants"])
    assert main(["verify", str(path)]) == 1
    printed = capsys.readouterr()
    assert "FAIL (1 stage checks)" in printed.out
    assert "  qi_constants: stored constants.alpha differs from the rerun" in printed.out
    assert "Traceback" not in printed.out + printed.err


def test_verify_fails_an_inexact_stored_g_at_its_stage_with_exit_1(
    cert_path, tmp_path, capsys
):
    # the canonical text of a matrix with an O(u^40) entry: it loads, and no
    # stage that needs an exact g raises past the collecting runner
    g = json.loads(cert_path.read_text())["g"].replace(",", " + O(u^40),", 1)
    assert main(["verify", str(_edited(cert_path, tmp_path, g=g))]) == 1
    printed = capsys.readouterr()
    assert "  consistency: h and g must be exact matrices" in printed.out
    assert "Traceback" not in printed.out + printed.err


def test_a_stage_that_raises_is_not_also_reported_as_a_differing_report(
    cert_path, tmp_path, capsys
):
    # the sweep and the survey raise on an inexact g and leave null reports:
    # each fails once, by its error, not again by the stored report's diff
    g = json.loads(cert_path.read_text())["g"].replace(",", " + O(u^40),", 1)
    assert main(["verify", str(_edited(cert_path, tmp_path, g=g))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(": FAIL (5 stage checks)")
    assert lines[1:] == [
        "  consistency: h and g must be exact matrices",
        "  verify_pingpong: ValueError: the cyclic generator must be exact",
        "  word_survey: ValueError: the cyclic generator must be exact with determinant 1",
        "  irreducibility_witness: ValueError: the irreducibility witness needs an exact matrix",
        "  consistency: stored g differs from the rerun",
    ]


def test_verify_refuses_a_version_1_certificate_with_exit_2(cert_path, tmp_path, capsys):
    path = _edited(cert_path, tmp_path, version=1, seed=None, trials=1)
    assert main(["verify", str(path)]) == 2
    assert "unsupported certificate version 1 " in capsys.readouterr().err


def test_verify_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_non_utf8_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err


def test_non_prime_q_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "--q", "4"])
    assert info.value.code == 2
    assert "q must be prime" in capsys.readouterr().err


def test_prime_q_above_the_limit_is_refused_before_any_primality_test(monkeypatch, capsys):
    # trial division of 2^61 - 1 would run for minutes
    is_prime, limit = field_module.is_prime, field_module.MAX_Q
    monkeypatch.setattr(field_module, "is_prime", lambda n: n <= limit and is_prime(n))
    with pytest.raises(SystemExit) as info:
        main(["construct", "--q", str(2**61 - 1)])
    assert info.value.code == 2
    assert f"q must be at most {field_module.MAX_Q}" in capsys.readouterr().err


def test_lattice_without_seed_is_a_parse_error(capsys):
    for sub in (["construct"], ["words"], ["inspect"]):
        with pytest.raises(SystemExit) as info:
            main([*sub, "--q", "2", "--strategy", "lattice"])
        assert info.value.code == 2
    assert "--seed is required" in capsys.readouterr().err


def test_word_bound_is_refused_where_no_survey_runs(capsys):
    with pytest.raises(SystemExit) as info:
        main(["inspect", "--q", "2", "--word-bound", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --word-bound 3" in capsys.readouterr().err


def test_bad_profile_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "--q", "2", "--profile", "1"])
    assert info.value.code == 2


BOUND = "bound must be at least 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--q", "2", "--level", "4", "--gamma-bound", "-1", "--word-bound", "1"],
         BOUND),
        (["construct", "--q", "2", "--word-bound", "0"], BOUND),
        (["words", "--q", "2", "--word-bound", "0"], BOUND),
        (["verify", "cert.json", "--gamma-bound", "0"], BOUND),
        (["construct", "--q", "2", "--level", "0"], "level must be at least 3, got 0"),
        (["verify", "cert.json", "--level", "2"], "level must be at least 3, got 2"),
        (["construct", "--q", "2", "--budget", "0"], "budget must be at least 1, got 0"),
        (["words", "--q", "2", "--budget", "0"], "budget must be at least 1, got 0"),
        (["inspect", "--q", "2", "--strategy", "lattice", "--seed", "3", "--budget", "-5"],
         "budget must be at least 1, got -5"),
    ],
    ids=[
        "construct-gamma",
        "construct-words",
        "words",
        "verify",
        "construct-level",
        "verify-level",
        "construct-budget",
        "words-budget",
        "inspect-budget",
    ],
)
def test_bounds_below_one_are_parse_errors(argv, message, capsys):
    # refused before the run states its size
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "size:" not in err


@pytest.mark.parametrize("command", ["construct", "words", "inspect"])
def test_stage_failures_exit_1_naming_the_stage(command, tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = [command, "--q", "2", "--strategy", "lattice", "--seed", "11", "--budget", "3"]
    assert main(argv + (["--out", str(out)] if command == "construct" else [])) == 1
    printed = capsys.readouterr()
    assert "stage find_regular: no positioned regular element in 3 draws" in printed.err
    assert printed.out == ""
    assert not out.exists()


def test_runs_state_their_size_on_stderr_only(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["construct", "--q", "2", *SMALL, "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.err.splitlines() == [
        "size: 1792 balls, 64 window balls x 24 gamma elements, "
        "142 reduced words (110 leaves)"
    ]
    assert "size:" not in printed.out
    # the certificate is the library's, byte for byte
    direct = construct_pipeline(2, level=5, gamma_bound=2, word_bound=3)
    assert out.read_text() == certificate_text(direct.certificate)

    assert main(["verify", str(out), "--word-bound", "4"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "size: 1792 balls, 64 window balls x 24 gamma elements, "
        "608 reduced words (466 leaves)"
    ]
    assert main(["words", "--q", "2", "--word-bound", "2"]) == 0
    assert capsys.readouterr().err.splitlines() == ["size: 32 reduced words (26 leaves)"]


def test_words_prints_one_row_per_word(capsys):
    assert main(["words", "--q", "2", "--word-bound", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# reduced words to length 2")
    assert "alpha = 3" in lines[0]
    # 6 + 26 words, one row each
    rows = [l for l in lines if re.match(r"\s*\d+\s+\d+\s+-?\d", l)]
    assert len(rows) == 32
    assert lines[-1].endswith("min cartan margin 9")


def test_inspect_dumps_the_whole_trace(capsys):
    assert main(["inspect", "--q", "2"]) == 0
    text = capsys.readouterr().out
    assert "field F_2((u)), profile 1,1" in text
    assert "sign-case exclusion: 8 cases" in text
    assert "newton polygon vertices ((0, 0), (1, -2), (2, -2), (3, 0))" in text
    assert "n0 = 2" in text
    assert "alpha = 3" in text
