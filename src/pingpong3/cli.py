"""Command-line driver.

Subcommands:

* ``construct`` -- run the full pipeline and write a certificate;
* ``verify``    -- re-verify a certificate file (overrides may only raise
                   the stored level / gamma bound / word bound);
* ``words``     -- run the pipeline up to the word survey and dump its table;
* ``inspect``   -- print the generators, the sign-case exclusion trace, the
                   Newton polygon and flags of h, and the constants.

Exit codes: 0 success, 1 verification failure (including exhausted search
budgets), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .certificate import (
    construct_pipeline,
    load_certificate,
    verification_parameters,
    verify_certificate,
    write_certificate,
)
from .errors import (
    CertificateError,
    ExclusionFailed,
    LaurentSyntaxError,
    SearchExhausted,
    StageError,
)
from .field import is_prime
from .pingpong.constants import qi_constants
from .pingpong.generators import make_generators
from .pingpong.regular import find_regular
from .pingpong.sigma import sigma_exclusion
from .pingpong.words import reduced_word_count, word_survey
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
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"q must be prime, got {value}")
    return value


def _bound_arg(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bound must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"bound must be at least 1, got {value}")
    return value


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


def _add_pipeline_arguments(sub, sweeps):
    sub.add_argument("--q", type=_prime_arg, required=True, help="residue field size (prime)")
    sub.add_argument("--profile", type=_profile_arg, default=(1, 1),
                     help="generator exponent profile 's,t' (default 1,1)")
    sub.add_argument("--strategy", choices=("synthetic", "lattice"), default="synthetic")
    sub.add_argument("--seed", type=int, default=None,
                     help="search seed (required for the lattice strategy)")
    sub.add_argument("--budget", type=int, default=100_000,
                     help="lattice search trial budget (default 100000)")
    if sweeps:
        sub.add_argument("--level", type=int, default=None,
                         help="ball sweep level M (default 10 at q=2, else 6)")
        sub.add_argument("--gamma-bound", type=_bound_arg, default=3,
                         help="exponent bound B of the swept diagonal elements")
    sub.add_argument("--word-bound", type=_bound_arg, default=8,
                     help="word survey length bound L")


def _search(args):
    return find_regular(args.q, args.strategy, seed=args.seed, budget=args.budget)


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
    pair = make_generators(args.q, args.profile)
    candidate = _search(args)
    constants = qi_constants(pair, candidate)
    g = candidate.h ** candidate.contraction.n0
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

    survey = word_survey(pair, g, args.word_bound, constants, sink=row)
    print(survey.summary())
    return 0 if survey.passed else 1


def _cmd_inspect(args):
    pair = make_generators(args.q, args.profile)
    print(f"field F_{args.q}((u)), profile {args.profile[0]},{args.profile[1]}")
    print(f"a = {pair.a.to_text()}")
    print(f"b = {pair.b.to_text()}")

    exclusion = sigma_exclusion(pair)
    print(f"sign-case exclusion: {len(exclusion.cases)} cases, digest {exclusion.digest}")
    for case in exclusion.cases:
        print(f"  {case.case:>6}: {case.reason}")

    candidate = _search(args)
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

    constants = qi_constants(pair, candidate)
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
    _add_pipeline_arguments(construct, sweeps=True)
    construct.add_argument("--out", default=None, help="certificate path")
    construct.set_defaults(func=_cmd_construct)

    verify = subs.add_parser("verify", help="re-verify a certificate file")
    verify.add_argument("certificate", help="certificate path")
    verify.add_argument("--level", type=int, default=None, help="raise the sweep level")
    verify.add_argument("--gamma-bound", type=_bound_arg, default=None,
                        help="raise the gamma bound")
    verify.add_argument("--word-bound", type=_bound_arg, default=None,
                        help="raise the word bound")
    verify.set_defaults(func=_cmd_verify)

    words = subs.add_parser("words", help="dump the word-survey table")
    _add_pipeline_arguments(words, sweeps=False)
    words.set_defaults(func=_cmd_words)

    inspect = subs.add_parser("inspect", help="print exclusion trace, flags, constants")
    _add_pipeline_arguments(inspect, sweeps=False)
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
    except (ExclusionFailed, SearchExhausted) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
