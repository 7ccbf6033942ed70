"""Command-line driver.

Subcommands:

* ``construct`` -- run the full pipeline and write a certificate;
* ``verify``    -- re-verify a certificate file (overrides may only raise
                   the stored level / gamma bound / word bound);
* ``words``     -- run the front half of the pipeline and dump the word
                   survey's table;
* ``inspect``   -- print the front half: the generators, the sign-case
                   exclusion trace, the Newton polygon and flags of h, and
                   the constants.

All four run their stages through ``certificate.Stages``; the first three
stop at the first failed stage with ``stage <name>: ...`` on stderr.

Exit codes: 0 success, 1 verification or stage failure (including
exhausted search budgets), 2 usage or parse errors (a level below 3, a
bound or budget below 1).
"""

from __future__ import annotations

import argparse
import sys

from . import certificate
from .certificate import (
    Stages,
    construct_pipeline,
    front_half,
    load_certificate,
    verification_parameters,
    verify_certificate,
    write_certificate,
)
from .errors import CertificateError, LaurentSyntaxError, StageError
from .field import check_q
from .pingpong.regular import LATTICE_BUDGET
from .pingpong.words import reduced_word_count
from .projgeom import (
    ProjLine,
    ball_count,
    in_unit_window,
    line_has_slope_u,
    window_ball_count,
)
from .spectral import NewtonPolygon

__all__ = ["build_parser", "main"]


def _prime_arg(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q must be an integer, got {text!r}")
    try:
        return check_q(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _at_least(least, what):
    """An argparse type: an integer of at least ``least``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"{what} must be at least {least}, got {value}")
        return value

    return parse


_bound_arg = _at_least(1, "bound")
_level_arg = _at_least(3, "level")  # below it a sweep cannot decide its verdicts


def _profile_arg(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("profile must be two integers 's,t'")
    try:
        s, t = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"profile must be integers, got {text!r}")
    if s < 1 or t < 1:
        raise argparse.ArgumentTypeError("profile exponents must be positive")
    return (s, t)


def _add_pipeline_arguments(sub, sweeps, survey):
    sub.add_argument("--q", type=_prime_arg, required=True, help="residue field size (prime)")
    sub.add_argument("--profile", type=_profile_arg, default=(1, 1),
                     help="generator exponent profile 's,t' (default 1,1)")
    sub.add_argument("--strategy", choices=("synthetic", "lattice"), default="synthetic")
    sub.add_argument("--seed", type=int, default=None,
                     help="search seed (required for the lattice strategy)")
    sub.add_argument("--budget", type=_at_least(1, "budget"), default=LATTICE_BUDGET,
                     help=f"lattice search trial budget (default {LATTICE_BUDGET})")
    if sweeps:
        sub.add_argument("--level", type=_level_arg, default=None,
                         help="ball sweep level M (default 10 at q=2, else 6)")
        sub.add_argument("--gamma-bound", type=_bound_arg, default=3,
                         help="exponent bound B of the swept diagonal elements")
    if survey:
        sub.add_argument("--word-bound", type=_bound_arg, default=8,
                         help="word survey length bound L")


def _preflight(q, word_bound, level=None, gamma_bound=None):
    """Print the size of the run ahead to stderr: the sweep's balls and
    window images (when it sweeps) and the survey's reduced words."""
    words, leaves = reduced_word_count(word_bound)
    parts = [f"{words} reduced words ({leaves} leaves)"]
    if level is not None:
        gammas = (2 * gamma_bound + 1) ** 2 - 1
        parts[:0] = [
            f"{ball_count(q, level)} balls",
            f"{window_ball_count(q, level)} window balls x {gammas} gamma elements",
        ]
    print("size: " + ", ".join(parts), file=sys.stderr, flush=True)


def _cmd_construct(args):
    level = args.level if args.level is not None else (10 if args.q == 2 else 6)
    _preflight(args.q, args.word_bound, level, args.gamma_bound)
    result = construct_pipeline(
        args.q,
        profile=args.profile,
        strategy=args.strategy,
        seed=args.seed,
        level=level,
        gamma_bound=args.gamma_bound,
        word_bound=args.word_bound,
        budget=args.budget,
    )
    print(result.report.summary())
    print(result.survey.summary())
    print("irreducibility witness: PASS")
    out = args.out or f"certificate-q{args.q}-{args.strategy}.json"
    write_certificate(result.certificate, out)
    print(f"certificate written to {out}")
    return 0


def _cmd_verify(args):
    cert = load_certificate(args.certificate)
    params = verification_parameters(cert, args.level, args.gamma_bound, args.word_bound)
    _preflight(cert["q"], params["word_bound"], params["level"], params["gamma_bound"])
    outcome = verify_certificate(
        cert,
        level=args.level,
        gamma_bound=args.gamma_bound,
        word_bound=args.word_bound,
    )
    print(outcome.summary())
    return 0 if outcome.passed else 1


def _cmd_words(args):
    _preflight(args.q, args.word_bound)
    stages = Stages()
    pair, _, _, constants, g = front_half(
        stages, args.q, args.profile, args.strategy, args.seed, args.budget
    )
    print(
        f"# reduced words to length {args.word_bound}; c = g^{constants.r_prime}, "
        f"alpha = {constants.alpha}, c_total = {constants.c_total}"
    )
    print(f"{'len':>3} {'syl':>3} {'|w|':>5} {'|w^-1|':>6} {'growth':>8} {'cartan':>8}  word")

    def row(rec):
        print(
            f"{rec.length:>3} {rec.syllables:>3} {rec.lognorm:>5} {rec.lognorm_inv:>6} "
            f"{str(rec.growth_margin):>8} {str(rec.cartan_margin):>8}  {rec.label}"
        )

    # the survey stage looks word_survey up where the pipeline's stages do
    survey = stages.run(
        "word_survey", certificate.word_survey, pair, g, args.word_bound, constants, sink=row
    )
    print(survey.summary())
    return 0 if survey.passed else 1


def _cmd_inspect(args):
    pair, exclusion, candidate, constants, _ = front_half(
        Stages(), args.q, args.profile, args.strategy, args.seed, args.budget
    )
    print(f"field F_{args.q}((u)), profile {args.profile[0]},{args.profile[1]}")
    print(f"a = {pair.a.to_text()}")
    print(f"b = {pair.b.to_text()}")

    print(f"sign-case exclusion: {len(exclusion.cases)} cases, digest {exclusion.digest}")
    for case in exclusion.cases:
        print(f"  {case.case:>6}: {case.reason}")

    print(f"h ({candidate.strategy}, {candidate.trials} trials) = {candidate.h.to_text()}")
    polygon = NewtonPolygon(candidate.h.char_poly())
    print(f"newton polygon vertices {polygon.vertices}, root valuations {polygon.slopes}")

    eigen = candidate.eigen
    contraction = candidate.contraction
    print(
        f"eigenvalue valuations {eigen.valuations}, n0 = {contraction.n0}, "
        f"feasible sweep level {candidate.feasible_level}"
    )
    for i, (lam, vec) in enumerate(zip(eigen.eigenvalues, eigen.vectors)):
        coords = ", ".join(str(c) for c in vec)
        print(f"  lambda_{i} = {lam}  v_{i} = ({coords})")
    print(
        "flags: attracting point in window:",
        in_unit_window(eigen.vectors[0]),
        "| repelling point in window:",
        in_unit_window(eigen.vectors[2]),
        "| line slopes in u + u^2 O:",
        line_has_slope_u(ProjLine(eigen.attracting_line_dual())),
        line_has_slope_u(ProjLine(eigen.repelling_line_dual())),
    )

    print("constants:")
    for key, value in constants.as_dict().items():
        print(f"  {key} = {value}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pingpong3",
        description="construct and verify free-product certificates in SL3 over F_q((u))",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    construct = subs.add_parser("construct", help="run the pipeline, write a certificate")
    _add_pipeline_arguments(construct, sweeps=True, survey=True)
    construct.add_argument("--out", default=None, help="certificate path")
    construct.set_defaults(func=_cmd_construct)

    verify = subs.add_parser("verify", help="re-verify a certificate file")
    verify.add_argument("certificate", help="certificate path")
    verify.add_argument("--level", type=_level_arg, default=None, help="raise the sweep level")
    verify.add_argument("--gamma-bound", type=_bound_arg, default=None,
                        help="raise the gamma bound")
    verify.add_argument("--word-bound", type=_bound_arg, default=None,
                        help="raise the word bound")
    verify.set_defaults(func=_cmd_verify)

    words = subs.add_parser("words", help="dump the word-survey table")
    _add_pipeline_arguments(words, sweeps=False, survey=True)
    words.set_defaults(func=_cmd_words)

    inspect = subs.add_parser("inspect", help="print exclusion trace, flags, constants")
    _add_pipeline_arguments(inspect, sweeps=False, survey=False)
    inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "strategy", None) == "lattice" and args.seed is None:
        parser.error("--seed is required for --strategy lattice")
    try:
        return args.func(args)
    except (CertificateError, LaurentSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
