"""Benchmark of the pingpong3 proof checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one client, closed loop: each workload's timed call
starts when the previous one has returned, until S seconds have passed.
Every call is checked: the verdict must be a pass and the sha256 digests of
its reports must equal the references in ``references.json``.  A wrong
verdict, a digest mismatch or an exception counts as a failed call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_ref_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` untraced and traced calls alternate,
the per-layer metrics come from the traced calls, and the spans are written
to ``perfbench/out/`` as JSON lines.  The calls share one import of the
program; set-up is timed apart from them, in fresh interpreters started
between calls (``setup_seconds``).  Call and set-up times are rescaled to
a reference machine speed (``rescaled``).  See README.md for the
workloads, the layer map and why the times are rescaled.
"""

import os

# numpy/BLAS must see these before it is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

# set-up samples taken at even intervals over an untraced run
SETUP_SAMPLES = 10

# loop_seconds() on the baseline VM in its fast phase; see rescaled()
REFERENCE_LOOP_S = 0.0063

sys.path[:0] = [str(SRC), str(HERE)]
from tracing import Tracer  # noqa: E402


def digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reduced_word_count(bound):
    """Reduced words of length 1..bound in Z^2 * Z: 4w diagonal syllables
    a^m b^n and 2 cyclic syllables c^r of each weight w, alternating."""
    multiplicity = (lambda w: 4 * w, lambda w: 2)
    ends = [[0] * (bound + 1) for _ in multiplicity]
    for n in range(1, bound + 1):
        for f, mult in enumerate(multiplicity):
            other = ends[1 - f]
            ends[f][n] = sum(
                mult(w) * (other[n - w] if n > w else 1) for w in range(1, n + 1)
            )
    return sum(map(sum, ends))


# -- the program -------------------------------------------------------------


def load_program():
    """Import pingpong3 afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "pingpong3"]:
        del sys.modules[name]
    mod = lambda name: importlib.import_module("pingpong3." + name)  # noqa: E731
    prog = SimpleNamespace(
        certificate=mod("certificate"),
        field=mod("field"),
        linalg=mod("linalg"),
        projgeom=mod("projgeom"),
        generators=mod("pingpong.generators"),
        regular=mod("pingpong.regular"),
        sigma=mod("pingpong.sigma"),
        verify=mod("pingpong.verify"),
    )
    if Path(prog.certificate.__file__).resolve().parents[1] != SRC.resolve():
        raise ImportError(f"pingpong3 was not imported from {SRC}")
    return prog


def install_tracer(tracer, prog):
    """Spans at each layer's entry points, as their callers look them up."""
    spans = [
        (prog.certificate, "construct_pipeline", "certificate"),
        (prog.certificate, "verify_certificate", "certificate"),
        (prog.certificate, "certificate_text", "certificate"),
        (prog.certificate, "verify_pingpong", "pingpong.verify"),
        (prog.certificate, "word_survey", "pingpong.words"),
        (prog.certificate, "sigma_exclusion", "pingpong.sigma.exclusion"),
        (prog.sigma, "sigma_exclusion", "pingpong.sigma.exclusion"),
        (prog.sigma, "monte_carlo_check", "pingpong.sigma.monte_carlo"),
        (prog.certificate, "find_regular", "pingpong.regular.search"),
        (prog.certificate, "qi_constants", "pingpong.constants"),
        (prog.certificate, "irreducibility_witness", "pingpong.witness"),
        (prog.certificate, "eigen_flags", "spectral.eigen_flags"),
        (prog.verify, "eigen_flags", "spectral.eigen_flags"),
        (prog.regular, "eigen_flags", "spectral.eigen_flags"),
        (prog.generators.DiagPair, "gamma", "pingpong.generators.gamma"),
        (prog.sigma, "in_unit_window", "projgeom.predicate"),
        (prog.sigma, "in_slope_u_cone", "projgeom.predicate"),
        (prog.verify, "in_unit_window", "projgeom.predicate"),
        (prog.regular, "in_unit_window", "projgeom.predicate"),
    ]
    counters = [
        (prog.field.Laurent, "__mul__", "field.laurent_mul_calls"),
        (prog.field.Laurent, "inv", "field.laurent_inv_calls"),
        (prog.linalg.Mat, "__mul__", "linalg.mat_mul_calls"),
        (prog.linalg.Mat, "__pow__", "linalg.mat_pow_calls"),
    ]
    for owner, attr, name in spans:
        tracer.span(owner, attr, name)
    for owner, attr, name in counters:
        tracer.count(owner, attr, name)


# -- workloads ---------------------------------------------------------------
#
# Each workload: ``sizes`` (full for the benchmark, quick for its tests),
# ``setup(prog, p, seed)`` -> inputs, ``call(prog, p, inputs)`` -> a
# namespace with ``passed``, ``digests`` and the layer data below,
# ``domain_args(prog, p, inputs, result)`` -> verify_pingpong arguments of
# its sweep (None without one), and ``size(prog, p)`` for the pre-flight.


def _sweep_size(prog, p):
    return {
        "balls": prog.projgeom.ball_count(p["q"], p["level"]),
        "window_balls": p["q"] ** (2 * (p["level"] - 2)),
        "gamma_elements": (2 * p["gamma_bound"] + 1) ** 2 - 1,
        "reduced_words": reduced_word_count(p["word_bound"]),
        "mc_samples": 0,
    }


def _sweep_result(passed, report, survey, cert_bytes):
    return SimpleNamespace(
        passed=passed,
        digests={
            "pingpong": digest(report.as_dict()) if report else None,
            "words": digest(survey.as_dict()) if survey else None,
        },
        report=report,
        survey=survey,
        cert_bytes=cert_bytes,
        mc_samples=0,
    )


class SweepQ2:
    """construct_pipeline then certificate_text: the write path, where the
    residue-ball sweep dominates."""

    sizes = {
        "full": dict(q=2, level=8, gamma_bound=3, word_bound=3),
        "quick": dict(q=2, level=4, gamma_bound=1, word_bound=2),
    }
    size = staticmethod(_sweep_size)

    @staticmethod
    def setup(prog, p, seed):
        return None

    @staticmethod
    def call(prog, p, inputs):
        c = prog.certificate
        res = c.construct_pipeline(
            p["q"],
            level=p["level"],
            gamma_bound=p["gamma_bound"],
            word_bound=p["word_bound"],
        )
        text = c.certificate_text(res.certificate)
        result = _sweep_result(
            res.report.passed and res.survey.passed,
            res.report,
            res.survey,
            len(text.encode()),
        )
        result.construct = res
        return result

    @staticmethod
    def domain_args(prog, p, inputs, result):
        cand = result.construct.candidate
        return (
            prog.generators.make_generators(p["q"]),
            cand.h ** cand.contraction.n0,
            p["level"],
            result.construct.constants.epsilon_exponent,
        )


class VerifyQ3:
    """verify_certificate of a small stored certificate at raised level,
    gamma and word bounds: the read path, where the word survey dominates."""

    sizes = {
        "full": dict(q=3, stored=(4, 1, 2), level=5, gamma_bound=3, word_bound=5),
        "quick": dict(q=3, stored=(4, 1, 2), level=4, gamma_bound=2, word_bound=3),
    }
    size = staticmethod(_sweep_size)

    @staticmethod
    def setup(prog, p, seed):
        c = prog.certificate
        level, gamma_bound, word_bound = p["stored"]
        small = c.construct_pipeline(
            p["q"], level=level, gamma_bound=gamma_bound, word_bound=word_bound
        )
        text = c.certificate_text(small.certificate)
        return SimpleNamespace(cert=json.loads(text), cert_bytes=len(text.encode()))

    @staticmethod
    def call(prog, p, inputs):
        outcome = prog.certificate.verify_certificate(
            inputs.cert,
            level=p["level"],
            gamma_bound=p["gamma_bound"],
            word_bound=p["word_bound"],
        )
        return _sweep_result(
            outcome.passed,
            outcome.reports.get("pingpong"),
            outcome.reports.get("words"),
            inputs.cert_bytes,
        )

    @staticmethod
    def domain_args(prog, p, inputs, result):
        cert = inputs.cert
        parse = lambda text: prog.linalg.parse_matrix(text, p["q"])  # noqa: E731
        pair = prog.generators.make_pair(
            parse(cert["generators"]["a"]), parse(cert["generators"]["b"])
        )
        eps = cert["verification"]["epsilon_exponent"]
        return pair, parse(cert["g"]), p["level"], eps


class McScalar:
    """sigma_exclusion then monte_carlo_check for q = 2 and 3: the scalar
    reference layers only.  The only workload whose inputs come from the
    seed."""

    sizes = {
        "full": dict(qs=(2, 3), trials_per_case=50, exponent_bound=5),
        "quick": dict(qs=(2, 3), trials_per_case=5, exponent_bound=5),
    }

    @staticmethod
    def size(prog, p):
        return {"mc_samples": len(p["qs"]) * 8 * p["trials_per_case"]}

    @staticmethod
    def setup(prog, p, seed):
        pairs = {q: prog.generators.make_generators(q) for q in p["qs"]}
        return SimpleNamespace(seed=seed, pairs=pairs)

    @staticmethod
    def call(prog, p, inputs):
        table = {}
        for q, pair in inputs.pairs.items():
            exclusion = prog.sigma.sigma_exclusion(pair)
            counts = prog.sigma.monte_carlo_check(
                pair,
                random.Random(f"{inputs.seed}/{q}"),
                trials_per_case=p["trials_per_case"],
                exponent_bound=p["exponent_bound"],
            )
            table[str(q)] = {"exclusion": exclusion.digest, "counts": counts}
        hits = sum(h for t in table.values() for _, h in t["counts"].values())
        return SimpleNamespace(
            passed=hits == 0,
            digests={"mc": digest(table)},
            report=None,
            survey=None,
            cert_bytes=0,
            mc_samples=McScalar.size(prog, p)["mc_samples"],
        )

    @staticmethod
    def domain_args(prog, p, inputs, result):
        return None


# what a call that raised contributes to the per-layer numbers
_EMPTY = SimpleNamespace(report=None, survey=None, mc_samples=0, cert_bytes=0)

WORKLOADS = {"sweep-q2": SweepQ2, "verify-q3": VerifyQ3, "mc-scalar": McScalar}


# -- measuring ---------------------------------------------------------------


def environment():
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            sha = ref
    import numpy

    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def checked_call(workload, prog, p, inputs, expected, errors):
    """One timed call: (seconds, result or None, ok)."""
    start = perf_counter()
    try:
        result = workload.call(prog, p, inputs)
    except Exception as exc:  # a crash is a failed call, not a crashed run
        seconds = perf_counter() - start
        errors.add(f"{type(exc).__name__}: {exc}")
        return seconds, None, False
    seconds = perf_counter() - start
    if not result.passed:
        errors.add("verdict is not a pass")
        return seconds, result, False
    if result.digests != expected:
        errors.add(f"digests {result.digests} differ from references {expected}")
        return seconds, result, False
    return seconds, result, True


def loop_seconds():
    """Fastest of three runs of a fixed pure-Python loop: how fast the
    machine runs Python right now."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for k in range(100_000):
            total += k * k
        best = min(best, perf_counter() - start)
    return best


def rescaled(seconds, loop_before, loop_after):
    """A time taken between two loop_seconds() readings, in seconds at the
    speed the reference loop has on the baseline VM.  The VM's speed
    swings up to 1.7x for seconds to minutes at a time, and the program
    slows with it; the ratio to the loop around it does not."""
    return seconds * 2 * REFERENCE_LOOP_S / (loop_before + loop_after)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, first, counts_before, result):
    """Per-layer numbers of one traced call, from the spans it recorded."""
    totals = tracer.totals(first)
    seconds = lambda name: totals.get(name, (0.0, 0.0, 0))[0]  # noqa: E731
    calls = lambda name: totals.get(name, (0.0, 0.0, 0))[2]  # noqa: E731
    report, survey = result.report, result.survey
    out = {
        "pingpong.verify.sweep_s": seconds("pingpong.verify"),
        "pingpong.verify.checked_images": report.checked_images if report else 0,
        "pingpong.verify.domain_balls": report.domain_balls if report else 0,
        "pingpong.verify.window_balls": report.window_balls if report else 0,
        "window_images": report.window_balls * report.gamma_elements if report else 0,
        "pingpong.words.survey_s": seconds("pingpong.words"),
        "pingpong.words.words": survey.words if survey else 0,
        "pingpong.generators.gamma_s": seconds("pingpong.generators.gamma"),
        "pingpong.generators.gamma_calls": calls("pingpong.generators.gamma"),
        "projgeom.predicate_s": seconds("projgeom.predicate"),
        "projgeom.predicate_calls": calls("projgeom.predicate"),
        "pingpong.sigma.exclusion_s": seconds("pingpong.sigma.exclusion"),
        "pingpong.sigma.mc_samples": result.mc_samples,
        "pingpong.sigma.mc_samples_per_s": _rate(
            result.mc_samples, seconds("pingpong.sigma.monte_carlo")
        ),
        "certificate.self_s": totals.get("certificate", (0.0, 0.0, 0))[1],
        "certificate.bytes": result.cert_bytes,
        "spectral.eigen_flags_s": seconds("spectral.eigen_flags"),
        "pingpong.regular.search_s": seconds("pingpong.regular.search"),
        "pingpong.constants.s": seconds("pingpong.constants"),
        "pingpong.witness.s": seconds("pingpong.witness"),
    }
    out["pingpong.words.words_per_s"] = _rate(
        out["pingpong.words.words"], out["pingpong.words.survey_s"]
    )
    for name in (
        "field.laurent_mul_calls",
        "field.laurent_inv_calls",
        "linalg.mat_mul_calls",
        "linalg.mat_pow_calls",
    ):
        out[name] = tracer.counts[name] - counts_before[name]
    return out


def per_layer(calls, traced_walls, plain_walls):
    """Fastest value of each number over the traced calls, the domain/window
    split of the call with the fastest sweep, the passes' rates and the
    tracing overhead (from rescaled traced and untraced call times)."""
    best = {k: min(c[k] for c in calls) for k in calls[0]}
    window_images = best.pop("window_images")
    # both halves of the split come from one call: a minimum over the
    # per-call differences would pick the call the noise favoured most
    fastest = min(calls, key=lambda c: c["pingpong.verify.sweep_s"])
    for k in ("pingpong.verify.domain_pass_s", "pingpong.verify.window_pass_s"):
        best[k] = fastest[k]
    if best["pingpong.verify.domain_pass_s"] and best["pingpong.verify.window_pass_s"] <= 0:
        print("# warning: the domain pass timed slower than its whole sweep; window_pass_s set to 0", file=sys.stderr)
        best["pingpong.verify.window_pass_s"] = 0.0
    best.update(
        {
            "pingpong.verify.domain_balls_per_s": _rate(
                best["pingpong.verify.domain_balls"], best["pingpong.verify.domain_pass_s"]
            ),
            "pingpong.verify.window_images_per_s": _rate(
                window_images, best["pingpong.verify.window_pass_s"]
            ),
            "trace.overhead_s": min(traced_walls) - min(plain_walls),
        }
    )
    return best


def sweep_split(workload, prog, p, inputs, result, sweep_s):
    """(domain pass, window pass) seconds of a traced call's sweep: an
    untraced sweep with gamma bound 0 (no window pass) run right after it,
    and the traced sweep minus that.  (0, 0) without a sweep."""
    args = workload.domain_args(prog, p, inputs, result) if result else None
    if args is None:
        return 0.0, 0.0
    pair, g, level, eps = args
    start = perf_counter()
    prog.verify.verify_pingpong(pair, g, level, 0, epsilon_exponent=eps)
    domain_s = perf_counter() - start
    return domain_s, sweep_s - domain_s


def timed_setup(name, size, seed):
    """Rescaled seconds to import pingpong3 afresh and build the workload's
    inputs, with numpy already loaded."""
    import numpy  # noqa: F401

    workload = WORKLOADS[name]
    before = loop_seconds()
    start = perf_counter()
    prog = load_program()
    workload.setup(prog, workload.sizes[size], seed)
    seconds = perf_counter() - start
    return rescaled(seconds, before, loop_seconds())


def setup_seconds(name, size, seed):
    """timed_setup in a fresh interpreter: the import is a first import, and
    the measuring process's memory is left as the calls made it."""
    code = f"import run; print(run.timed_setup({name!r}, {size!r}, {seed}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=HERE,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def run(name, seed, seconds, trace, size="full", references=None):
    """Set up and measure one workload; returns the result object plus the
    per-call digests and, for a traced run, the spans file and shares."""
    workload = WORKLOADS[name]
    p = workload.sizes[size]
    if references is None:
        references = json.loads(REFERENCES.read_text())
    expected = references[name][size]

    env = environment()
    print("# env " + json.dumps(env), flush=True)
    prog = load_program()
    inputs = workload.setup(prog, p, seed)
    print(f"# preflight {name} ({size}): " + json.dumps(workload.size(prog, p)), flush=True)

    errors, digests = set(), []
    plain_walls, ref_walls, traced_walls, traced_refs, calls = [], [], [], [], []
    tracer = Tracer() if trace else None
    setup_times = []
    failed = i = 0
    start = last_setup = perf_counter()
    while True:
        if not trace and (not setup_times or perf_counter() - last_setup >= seconds / SETUP_SAMPLES):
            # spread over the run, so the samples see the machine's slow
            # and fast phases as the calls do
            last_setup = perf_counter()
            setup_times.append(setup_seconds(name, size, seed))
        before = loop_seconds()
        if trace and i % 2 == 1:
            first, counts_before = len(tracer.spans), tracer.counts.copy()
            install_tracer(tracer, prog)
            try:
                wall, result, ok = checked_call(workload, prog, p, inputs, expected, errors)
            finally:
                tracer.restore()
            traced_walls.append(wall)
            traced_refs.append(rescaled(wall, before, loop_seconds()))
            layers = layer_metrics(tracer, first, counts_before, result or _EMPTY)
            split = sweep_split(workload, prog, p, inputs, result, layers["pingpong.verify.sweep_s"])
            layers["pingpong.verify.domain_pass_s"], layers["pingpong.verify.window_pass_s"] = split
            calls.append({"call": i, "wall_s": wall, **layers})
        else:
            wall, result, ok = checked_call(workload, prog, p, inputs, expected, errors)
            plain_walls.append(wall)
            ref_walls.append(rescaled(wall, before, loop_seconds()))
        failed += not ok
        if result is not None:
            digests.append(result.digests)
        i += 1
        if perf_counter() - start >= seconds and (not trace or traced_walls):
            break
    for err in sorted(errors):
        print(f"# failed: {err}", file=sys.stderr)

    out = {"digests": digests, "env": env}
    if not trace:
        walls, refs = sorted(plain_walls), sorted(ref_walls)
        line = f"# {len(walls)} calls: measured min {walls[0]} s, median {statistics.median(walls)} s"
        line += f"; rescaled min {refs[0]} s, median {statistics.median(refs)} s"
        if len(refs) > 10:  # the slowest call with ten calls beyond it
            line += f", p{100 * (len(refs) - 10) // len(refs)} {refs[-11]} s"
        print(line)
        print(f"# {len(setup_times)} set-ups, rescaled: min {min(setup_times)} s, max {max(setup_times)} s")
        metrics = {
            "wall_ref_s": (statistics.median(refs), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = per_layer(
            [{k: v for k, v in c.items() if k not in ("call", "wall_s")} for c in calls],
            traced_refs,
            ref_walls,
        )
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        wall = min(traced_walls)
        out["shares"] = {
            k: layers[k] / wall
            for k in (
                "pingpong.verify.sweep_s",
                "pingpong.verify.domain_pass_s",
                "pingpong.verify.window_pass_s",
                "pingpong.words.survey_s",
                "pingpong.generators.gamma_s",
            )
        }
        OUT.mkdir(exist_ok=True)
        out["trace_file"] = OUT / f"trace-{name}-seed{seed}.jsonl"
        header = {"workload": name, "seed": seed, "size": size, "env": env}
        tracer.write_jsonl(out["trace_file"], header, calls)
    out["result"] = {
        "correct": failed == 0,
        "attempted": i,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return out


def unit_of(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pingpong3" / "__init__.py").is_file():
        print(f"no pingpong3 sources under {SRC}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if "shares" in out:
        print("# shares of the fastest traced call " + json.dumps(out["shares"]))
        print(f"# spans in {out['trace_file'].relative_to(ROOT)}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
