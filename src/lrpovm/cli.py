"""Command-line front end.

Subcommands: bell, steer, qubit, curves, causality, oracle-check.
Exit status 0 on success, 1 on flag or input validation failure (the
message names the offending flag), 2 on degenerate statistics such as a
setting pair without coincidences.  Runs are reproducible by default: the
seed defaults to the fixed constant 12345 and randomness is opt-in via
--seed.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import causality, estimators, models, quantum
from .curvefile import write_curve_csv
from .estimators import estimate, sweep_curves
from .models import DEFAULT_SEED, ModelConfig
from .svgchart import write_curve_svg


class CliError(Exception):
    """Validation failure; rendered to stderr with exit status 1."""


class DegenerateError(Exception):
    """Statistics exist but are undefined (empty bins); exit status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise CliError(message)


def _positive_int(flag):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} expects an integer")
        if value < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be >= 1")
        return value
    return parse


def _copies(text):
    if text.strip().lower() == "inf":
        return math.inf
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "--n-copies expects a positive integer or 'inf'")
    if value < 1:
        raise argparse.ArgumentTypeError("--n-copies must be >= 1 or 'inf'")
    return value


def _copies_list(text):
    return [_copies(part) for part in text.split(",") if part != ""]


def _number(flag, valid=math.isfinite, requirement="be finite"):
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} expects a number")
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{flag} must {requirement}")
        return value
    return parse


_fraction_q = _number("--q", lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")


def _add_run_flags(p, samples_default=1_000_000):
    p.add_argument("--samples", type=int, default=samples_default,
                   help=f"Monte Carlo draws (default {samples_default})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    p.add_argument("--workers", type=_positive_int("--workers"), default=1,
                   help="parallel sample workers (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="lrpovm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    p = sub.add_parser("bell",
                       help="CHSH statistics of a local realistic model")
    p.add_argument("--model", default="simple-bell",
                   choices=["simple-bell", "ncopy-tomography", "chaotic-ball"])
    p.add_argument("--n-copies", type=_copies, default=1)
    p.add_argument("--q", type=_fraction_q, default=0.0)
    _add_run_flags(p)
    p.add_argument("--out", help="optional CSV with per-pair statistics")

    p = sub.add_parser("steer",
                       help="steering statistics of a local realistic model")
    p.add_argument("--model", default="trusted-steering",
                   choices=["trusted-steering", "ncopy-steering",
                            "ncopy-tomography", "chaotic-ball"])
    p.add_argument("--n-copies", type=_copies, default=1)
    p.add_argument("--q", type=_fraction_q, default=0.0)
    p.add_argument("--m-choices", type=_positive_int("--m-choices"), default=3)
    _add_run_flags(p)
    p.add_argument("--out", help="optional CSV with per-pair statistics")

    p = sub.add_parser("qubit",
                       help="sequential versus copy-served two-time readout")
    p.add_argument("--omega", type=_number("--omega"), default=1.0)
    p.add_argument("--t-a", type=_number("--t-a"), default=math.pi / 2.0)
    p.add_argument("--t-b", type=_number("--t-b"), default=math.pi)
    p.add_argument("--n-copies", type=_copies, default=2)

    p = sub.add_parser("curves",
                       help="efficiency-versus-violation sweep to CSV/SVG")
    p.add_argument("--kind", default="bell", choices=["bell", "steering"])
    p.add_argument("--model", default="ncopy-tomography",
                   choices=["ncopy-tomography", "chaotic-ball"])
    p.add_argument("--n-copies", type=_copies_list, default=[1],
                   help="comma-separated copy counts, e.g. 1,2,3,inf")
    _add_run_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="optional SVG chart path")

    p = sub.add_parser("causality",
                       help="readout signature of a scenario file")
    p.add_argument("scenario", help="scenario description file")

    sub.add_parser("oracle-check",
                   help="run the exact-engine consistency suite")
    return parser


# ---------------------------------------------------------------------------


def _validate_samples(samples: int) -> None:
    if samples < estimators.MIN_SAMPLES:
        raise CliError(f"--samples must be at least {estimators.MIN_SAMPLES}")


def _model_config(args, steering: bool) -> ModelConfig:
    kind = args.model
    if kind in ("ncopy-tomography", "chaotic-ball"):
        n = math.inf if kind == "chaotic-ball" else args.n_copies
        return models.tomography_config(
            "steering" if steering else "bell",
            n_copies=n, q=args.q, seed=args.seed)
    if kind == "simple-bell":
        return ModelConfig(kind="simple-bell", seed=args.seed)
    try:
        return ModelConfig(kind=kind, n_copies=args.n_copies,
                           m_choices=args.m_choices, seed=args.seed)
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
    ma, mb = stats.weights.shape[:2]
    for i in range(ma):
        for j in range(mb):
            p = stats.pair(i, j)
            rows.append(f"{i + 1},{j + 1},{p.correlation:.9g},"
                        f"{p.stderr:.9g},{p.n_coincidence:.9g},"
                        f"{p.eta_alice:.9g},{p.eta_bob:.9g}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")


def _cmd_bell(args) -> int:
    _validate_samples(args.samples)
    config = _model_config(args, steering=False)
    stats = estimate(config, args.samples, workers=args.workers)
    print(f"model: {config.kind}  n_copies: {config.n_copies}  "
          f"q: {config.q:g}  samples: {args.samples}  seed: {args.seed}")
    for line in _pair_lines(stats):
        print(line)
    s, se, degenerate = stats.chsh()
    if args.out:
        _write_pair_csv(stats, args.out)
        print(f"wrote {args.out}")
    if degenerate:
        raise DegenerateError("CHSH undefined: a setting pair has no "
                              "coincidences")
    print(f"S = {s:+.6f} +/- {se:.6f}   |S| = {abs(s):.6f}")
    print(f"efficiency: alice-conditioned {stats.efficiency('alice'):.6f}  "
          f"bob-conditioned {stats.efficiency('bob'):.6f}")
    w = config.metadata.get("preselection_weight")
    if w is not None:
        print(f"preselection weight: {w:.9g}")
    return 0


def _cmd_steer(args) -> int:
    _validate_samples(args.samples)
    config = _model_config(args, steering=True)
    stats = estimate(config, args.samples, workers=args.workers)
    print(f"model: {config.kind}  n_copies: {config.n_copies}  "
          f"q: {config.q:g}  m_choices: {len(config.bob_directions)}  "
          f"samples: {args.samples}  seed: {args.seed}")
    for line in _pair_lines(stats):
        print(line)
    t, se, empty = stats.steering()
    if args.out:
        _write_pair_csv(stats, args.out)
        print(f"wrote {args.out}")
    if empty:
        raise DegenerateError("steering statistics have empty conditional "
                              "bins")
    print(f"T = {t:.6f} +/- {se:.6f}   (trusted LR bound 1/3)")
    print(f"efficiency: alice-conditioned {stats.efficiency('alice'):.6f}  "
          f"bob-conditioned {stats.efficiency('bob'):.6f}")
    return 0


def _cmd_qubit(args) -> int:
    if args.t_a > args.t_b:
        raise CliError("--t-a must not exceed --t-b")
    sequential = quantum.sequential_qubit_probability(
        args.t_a, args.t_b, args.omega)
    try:
        copies = models.qubit_copies_joint(
            args.t_a, args.t_b, args.omega, args.n_copies
            if args.n_copies != math.inf else 2)
    except ValueError as exc:
        raise CliError(f"--n-copies: {exc}")
    p_a = quantum.qubit_probability_plus(args.omega * args.t_a)
    p_b = quantum.qubit_probability_plus(args.omega * args.t_b)
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
    _validate_samples(args.samples)
    if not args.n_copies:
        raise CliError("--n-copies expects at least one copy count")
    n_list = list(dict.fromkeys(args.n_copies))
    if args.model == "chaotic-ball":
        n_list = [math.inf]
    curves = sweep_curves(args.kind, n_list, samples=args.samples,
                          seed=args.seed, workers=args.workers)
    points = [p for pts in curves.values() for p in pts]
    write_curve_csv(points, args.out)
    print(f"wrote {args.out} ({len(points)} points, kinds={args.kind})")
    if args.svg:
        write_curve_svg(curves, args.svg, kind=args.kind)
        print(f"wrote {args.svg}")
    return 0


def _cmd_causality(args) -> int:
    path = Path(args.scenario)
    if not path.exists():
        raise CliError(f"scenario file not found: {path}")
    try:
        scenario = causality.parse_scenario(path.read_text(encoding="utf-8"))
        sig = causality.readout_signature(scenario)
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
    for n in range(1, quantum.ORACLE_COPY_CAP + 1):
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

    report("trusted POVM reduction",
           quantum.trusted_reduction_deviation(), 1e-10)
    terms = quantum.trusted_steering_kraus(
        3, -quantum.STEERING_TRIPLE, quantum.STEERING_TRIPLE)
    report("trusted POVM completeness",
           quantum.povm_completeness_deviation(terms), 1e-10)
    worst_eig = min(quantum.min_eigenvalue(k.conj().T @ k)
                    for _, _, k in terms)
    report("trusted POVM positivity", max(0.0, -worst_eig), 1e-10)

    seq = quantum.sequential_qubit_probability(
        math.pi / 2.0, math.pi, 1.0)
    report("sequential readout p=1/4 table",
           float(np.max(np.abs(seq - 0.25))), 1e-12)
    cop = quantum.copies_joint_probability(math.pi / 2.0, math.pi, 1.0, 2)
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
    "bell": _cmd_bell,
    "steer": _cmd_steer,
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
