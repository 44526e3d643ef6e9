"""Command-line front end.

Subcommands: bell, steer, qubit, curves, causality, oracle-check.
Exit status 0 on success, 1 on flag or input validation failure (the
message names the offending flag, including a model flag that the chosen
--model does not read, as ``models.READS`` says), 2 on degenerate
statistics such as a setting pair without coincidences.  A model flag
left out takes the model's own default.  Runs are reproducible by
default: the seed defaults to the fixed constant 12345 and randomness is
opt-in via --seed.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import causality, estimators, models, quantum
from .curvefile import write_curve_csv
from .estimators import estimate, sweep_curves
from .models import DEFAULT_SEED, ModelConfig
from .sphere import check_count, check_finite, check_threshold
from .svgchart import write_curve_svg


class CliError(Exception):
    """Validation failure; rendered to stderr with exit status 1."""


class DegenerateError(Exception):
    """Statistics exist but are undefined (empty bins); exit status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise CliError(message)


def _flag(convert, expects, check):
    """An argparse type: the text through ``convert``, whose failure reads
    ``expects ...``, then through ``check``, whose ValueError message is
    the flag's error.  The checks are the library's own argument rules."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {expects}") from None
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _count(name, minimum=1, expects="an integer"):
    """An integer flag, held to at least ``minimum`` by ``check_count``."""
    return _flag(int, expects, functools.partial(check_count, name=name,
                                                 minimum=minimum))


def _number(name):
    """A real flag, held finite by ``check_finite``."""
    return _flag(float, "a number", functools.partial(check_finite,
                                                      name=name))


def _copies(text):
    if text.strip().lower() == "inf":
        return math.inf
    return _count("n_copies", expects="a positive integer or 'inf'")(text)


def _copies_list(text):
    if not (values := [_copies(part) for part in text.split(",") if part]):
        raise argparse.ArgumentTypeError("expects at least one copy count")
    return values


def _output_file(text):
    """Reject an output path that cannot be a file before any work runs."""
    if not text:
        raise argparse.ArgumentTypeError("expects a file path, got ''")
    parent = os.path.dirname(text) or "."
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent} does not exist")
    return text


@contextlib.contextmanager
def _writing(flag, path):
    """Report a failed write of ``path`` as an error naming ``flag``."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"{flag}: cannot write {path}: "
                       f"{exc.strerror or exc}") from exc


def _add_run_flags(p):
    p.add_argument("--samples", default=estimators.DEFAULT_SAMPLES,
                   type=_count("samples", estimators.MIN_SAMPLES),
                   help=f"Monte Carlo draws "
                        f"(default {estimators.DEFAULT_SAMPLES})")
    p.add_argument("--seed", type=_count("seed", 0), default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    p.add_argument("--workers", type=_count("workers"), default=1,
                   help="parallel sample workers (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="lrpovm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    for command, kind, test, choices in (
            ("bell", "bell", "CHSH",
             ("simple-bell", "ncopy-tomography", "chaotic-ball")),
            ("steer", "steering", "steering",
             ("trusted-steering", "ncopy-steering", "ncopy-tomography",
              "chaotic-ball"))):
        p = sub.add_parser(
            command, help=f"{test} statistics of a local realistic model")
        p.set_defaults(run_kind=kind)
        p.add_argument("--model", default=choices[0], choices=choices)
        # Left out, a model flag is None and the model's default holds.
        p.add_argument("--n-copies", type=_copies)
        p.add_argument("--q", type=_flag(float, "a number", check_threshold))
        if kind == "steering":
            p.add_argument("--m-choices", type=_count("m_choices", 2))
        _add_run_flags(p)
        p.add_argument("--out", type=_output_file,
                       help="optional CSV with per-pair statistics")

    p = sub.add_parser("qubit",
                       help="sequential versus copy-served two-time readout")
    p.add_argument("--omega", type=_number("omega"), default=1.0)
    p.add_argument("--t-a", type=_number("t_a"), default=math.pi / 2.0)
    p.add_argument("--t-b", type=_number("t_b"), default=math.pi)

    p = sub.add_parser("curves",
                       help="efficiency-versus-violation sweep to CSV/SVG")
    p.add_argument("--kind", default="bell", choices=["bell", "steering"])
    p.add_argument("--n-copies", type=_copies_list, default=[1],
                   help="comma-separated copy counts, e.g. 1,2,3,inf")
    _add_run_flags(p)
    p.add_argument("--out", type=_output_file, required=True,
                   help="output CSV path")
    p.add_argument("--svg", type=_output_file,
                   help="optional SVG chart path")

    p = sub.add_parser("causality",
                       help="readout signature of a scenario file")
    p.add_argument("scenario", help="scenario description file")

    sub.add_parser("oracle-check",
                   help="run the exact-engine consistency suite")
    return parser


# ---------------------------------------------------------------------------


def _model_config(args) -> ModelConfig:
    given = {name: value for name in ("n_copies", "q", "m_choices")
             if (value := getattr(args, name, None)) is not None}
    for name in given:
        if name not in models.READS[args.model]:
            raise CliError(f"--{name.replace('_', '-')} is not read by "
                           f"--model {args.model}")
    try:
        if args.model == "chaotic-ball":
            return models.tomography_config(args.run_kind, math.inf, **given)
        if args.model == "ncopy-tomography":
            return models.tomography_config(args.run_kind, **given)
        return ModelConfig(args.model, **given)
    except ValueError as exc:
        # ModelConfig names the field; report the flag that set it.
        raise CliError(str(exc).replace("n_copies", "--n-copies")
                       .replace("m_choices", "--m-choices"))


def _pair_lines(stats: estimators.RunStatistics) -> list[str]:
    lines = []
    for i, j in stats.reading_pairs():
        p = stats.pair(i, j)
        corr = "undefined" if p.degenerate else f"{p.correlation:+.6f}"
        lines.append(
            f"pair (a{i + 1},b{j + 1}): corr={corr} se={p.stderr:.6f} "
            f"coinc={p.n_coincidence:.0f} eta_a={p.eta_alice:.6f} "
            f"eta_b={p.eta_bob:.6f}")
    return lines


def _write_pair_csv(stats: estimators.RunStatistics, path: str) -> None:
    rows = ["pair_alice,pair_bob,correlation,stderr,n_coincidence,"
            "eta_alice,eta_bob"]
    for i, j in np.ndindex(stats.weights.shape[:2]):
        p = stats.pair(i, j)
        rows.append(f"{i + 1},{j + 1},{p.correlation:.9g},"
                    f"{p.stderr:.9g},{p.n_coincidence:.9g},"
                    f"{p.eta_alice:.9g},{p.eta_bob:.9g}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")


# What a bell and a steer run print differently, keyed by the run kind:
# the header's m_choices field, the RunStatistics method of the test and
# its line (formatted with value, stderr, |value|), the message when the
# test is undefined, and whether the preselection weight is printed.
_RUN_OUTPUT = {
    "bell": ("", "chsh", "S = {0:+.6f} +/- {1:.6f}   |S| = {2:.6f}",
             "CHSH undefined: a setting pair has no coincidences", True),
    "steering": ("m_choices: {0}  ", "steering",
                 "T = {0:.6f} +/- {1:.6f}   (trusted LR bound 1/3)",
                 "steering statistics have empty conditional bins", False),
}


def _cmd_run(args) -> int:
    header, test, line, degenerate_message, preselection = \
        _RUN_OUTPUT[args.run_kind]
    config = _model_config(args)
    stats = estimate(config, args.samples, seed=args.seed,
                     workers=args.workers)
    print(f"model: {config.kind}  n_copies: {config.n_copies}  "
          f"q: {config.q:g}  {header.format(len(config.bob_directions))}"
          f"samples: {args.samples}  seed: {args.seed}")
    for pair_line in _pair_lines(stats):
        print(pair_line)
    value, se, degenerate = getattr(stats, test)()
    if args.out:
        with _writing("--out", args.out):
            _write_pair_csv(stats, args.out)
        print(f"wrote {args.out}")
    if degenerate:
        raise DegenerateError(degenerate_message)
    print(line.format(value, se, abs(value)))
    print(f"efficiency: alice-conditioned {stats.efficiency('alice'):.6f}  "
          f"bob-conditioned {stats.efficiency('bob'):.6f}")
    w = config.preselection_weight
    if preselection and w is not None:
        print(f"preselection weight: {w:.9g}")
    return 0


def _cmd_qubit(args) -> int:
    try:
        sequential = quantum.sequential_qubit_probability(
            args.t_a, args.t_b, args.omega)
        copies = quantum.copies_joint_probability(
            args.t_a, args.t_b, args.omega)
        p_a = quantum.qubit_probability_plus(args.omega * args.t_a)
        p_b = quantum.qubit_probability_plus(args.omega * args.t_b)
    except ValueError as exc:
        # The engine names its arguments, and a phase omega_t that
        # overflows; report the flags that set them.
        raise CliError(str(exc)
                       .replace("omega_t", "--omega times --t-a/--t-b")
                       .replace("t_a", "--t-a").replace("t_b", "--t-b"))
    print(f"two-time qubit readout: omega={args.omega:g} t_a={args.t_a:g} "
          f"t_b={args.t_b:g}")
    print(f"projective reference: p(beta=1)={p_a:.6f} p(gamma=1)={p_b:.6f}")
    print("event (beta,gamma)   sequential     copies")
    for beta in (1, 0):
        for gamma in (1, 0):
            print(f"({beta},{gamma})                {sequential[beta, gamma]:.6f}"
                  f"       {copies[beta, gamma]:.6f}")
    print(f"sequential p(gamma=1) marginal: "
          f"{sequential[:, 1].sum():.6f} (disturbed)")
    print(f"copies     p(gamma=1) marginal: {copies[:, 1].sum():.6f} "
          f"(undisturbed)")
    return 0


def _cmd_curves(args) -> int:
    curves = sweep_curves(args.kind, args.n_copies, samples=args.samples,
                          seed=args.seed, workers=args.workers)
    points = [p for pts in curves.values() for p in pts]
    with _writing("--out", args.out):
        write_curve_csv(points, args.out)
    print(f"wrote {args.out} ({len(points)} points, kinds={args.kind})")
    if args.svg:
        with _writing("--svg", args.svg):
            write_curve_svg(curves, args.svg, kind=args.kind)
        print(f"wrote {args.svg}")
    return 0


def _cmd_causality(args) -> int:
    path = Path(args.scenario)
    try:
        scenario = causality.parse_scenario(path.read_text(encoding="utf-8"))
        sig = causality.readout_signature(scenario)
    except FileNotFoundError:
        raise CliError(f"scenario file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        # Before ValueError, which UnicodeDecodeError subclasses.
        raise CliError(f"cannot read scenario file {path}: "
                       f"{getattr(exc, 'strerror', None) or exc}")
    except ValueError as exc:
        raise CliError(str(exc))
    print(causality.format_signature(sig))
    return 0


def _cmd_oracle_check(_args) -> int:
    failures = 0

    def report(name: str, deviation: float, tol: float) -> None:
        nonlocal failures
        ok = deviation <= tol
        failures += 0 if ok else 1
        print(f"check {name:<38} max deviation {deviation:.3e}  "
              f"[{'ok' if ok else 'FAIL'}]")

    rng = np.random.default_rng(DEFAULT_SEED)

    dev = abs(quantum.chsh_value() - 2.0 * math.sqrt(2.0))
    report("quantum CHSH = 2*sqrt(2)", dev, 1e-12)
    dev = abs(quantum.chsh_value(correlation=quantum.quantum_correlation_bruteforce)
              - 2.0 * math.sqrt(2.0))
    report("brute-force CHSH = 2*sqrt(2)", dev, 1e-12)
    report("ideal steering T = 1",
           abs(quantum.quantum_steering_T() - 1.0), 1e-12)

    worst = 0.0
    for n in range(1, quantum.COPY_CAP + 1):
        ref_dir = np.array([0.0, 0.0, 1.0])
        ref = quantum.oracle_pair_density(n, ref_dir, np.array([0.0, 1.0, 0.0]))
        ref_closed = (0.5) ** n
        for _ in range(25):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            c = float(np.clip(ref_dir @ v, -1, 1))
            ratio = quantum.oracle_pair_density(n, ref_dir, v) / ref
            closed = ((1.0 - c) / 2.0) ** n / ref_closed
            worst = max(worst, abs(ratio - closed) / max(closed, 1e-300))
    report("pair-density oracle vs closed form", worst, 1e-9)

    from .sphere import cap_overlap_quadrature, pair_density
    worst = 0.0
    for n in range(1, 11):
        integral = cap_overlap_quadrature(
            lambda c: pair_density(n, c), 64) * (4 * math.pi) * (2 * math.pi)
        worst = max(worst, abs(integral - 1.0))
    report("pair-density normalization", worst, 1e-10)

    config = models.tomography_config("bell", math.inf)
    stats = estimators.enumerate_exact(config)
    theta = np.arccos(np.clip(
        config.alice_directions @ config.bob_directions.T, -1.0, 1.0))
    worst = max(abs(stats.pair(i, j).correlation - 1.0 + 2.0 / math.pi
                    * theta[i, j]) for i, j in np.ndindex(theta.shape))
    report("chaotic-ball CHSH E = 1 - 2*theta/pi", worst, 1e-12)

    report("trusted POVM reduction",
           quantum.trusted_reduction_deviation(), 1e-10)
    terms = quantum.trusted_steering_kraus(
        3, -quantum.STEERING_TRIPLE, quantum.STEERING_TRIPLE)
    report("trusted POVM completeness",
           quantum.povm_completeness_deviation(terms), 1e-10)
    worst_eig = min(np.linalg.eigvalsh(k.conj().T @ k).min()
                    for _, _, k in terms)
    report("trusted POVM positivity", max(0.0, -worst_eig), 1e-10)

    seq = quantum.sequential_qubit_probability(
        math.pi / 2.0, math.pi, 1.0)
    report("sequential readout p=1/4 table",
           float(np.max(np.abs(seq - 0.25))), 1e-12)
    cop = quantum.copies_joint_probability(math.pi / 2.0, math.pi, 1.0)
    report("copies readout p(gamma=1) = 0",
           float(cop[:, 1].sum()), 1e-12)

    psi = quantum.singlet_power(2)
    js = quantum.collective_spin(4)
    j2 = sum(j @ j for j in js)
    report("singlet power total spin = 0",
           abs(float(np.real(np.conj(psi) @ (j2 @ psi)))), 1e-10)

    if failures:
        print(f"{failures} oracle check(s) failed")
        return 2
    print("all oracle checks passed")
    return 0


_COMMANDS = {
    "bell": _cmd_run,
    "steer": _cmd_run,
    "qubit": _cmd_qubit,
    "curves": _cmd_curves,
    "causality": _cmd_causality,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise CliError("missing command (bell, steer, qubit, curves, "
                           "causality, oracle-check)")
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateError as exc:
        print(f"degenerate statistics: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
