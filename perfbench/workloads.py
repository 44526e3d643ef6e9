"""The three benchmark workloads, their inputs and their correctness checks.

Each workload drives only stable entry points: the ``lrpovm`` CLI
(``lrpovm.cli.main``, called in-process), ``enumerate_exact`` and
``tomography_pair_table``.  An *operation* is one curve point (``sweep``),
one point estimate (``point``) or one ``enumerate_exact`` call (``exact``);
a raised exception or a failed check makes it a failed operation.

Checks on Monte Carlo output:

* at a seed listed in ``data/golden.json`` the checked CSV columns must
  be byte-identical to the recorded output (compared by SHA-256 digest);
* at every seed each value must lie within a fixed 6-sigma binomial bound
  of its exact twin in ``data/reference.json``.  The bound is computed from
  the exact probabilities and the sample count, never from the program's
  reported standard error.

Exact values must match closed forms within ``CLOSED_FORM_TOL``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import lrpovm
from lrpovm import cli, estimators, models, quantum

DATA = Path(__file__).resolve().parent / "data"

SWEEP_SAMPLES = 1_000_000
SWEEP_COPIES = "2,inf"
SWEEP_WORKERS = 2

# (label, CLI argv without --seed/--workers/--out, the model it estimates)
POINT_SPECS = [
    ("simple-bell", ["bell", "--model", "simple-bell",
                     "--samples", "8000000"],
     partial(models.ModelConfig, kind="simple-bell")),
    ("trusted-steering", ["steer", "--model", "trusted-steering",
                          "--samples", "8000000"],
     partial(models.ModelConfig, kind="trusted-steering", m_choices=3)),
    ("ncopy-steering-N3", ["steer", "--model", "ncopy-steering",
                           "--n-copies", "3", "--samples", "8000000"],
     partial(models.ModelConfig, kind="ncopy-steering", n_copies=3,
             m_choices=3)),
    ("ncopy-tomography-N4-q0.3", ["bell", "--model", "ncopy-tomography",
                                  "--n-copies", "4", "--q", "0.3",
                                  "--samples", "2000000"],
     partial(models.tomography_config, "bell", 4, q=0.3)),
    ("chaotic-ball-q0.3", ["steer", "--model", "chaotic-ball", "--q", "0.3",
                           "--samples", "2000000"],
     partial(models.tomography_config, "steering", math.inf, q=0.3)),
]

# The exact workload's enumerate_exact calls: (label, config builder).
EXACT_SPECS = (
    [(f"bell-N{n}-q{q:g}", partial(models.tomography_config, "bell", n, q=q))
     for n in (1, 4, math.inf) for q in (0.0, 0.3)]
    + [(f"steering-N{n}-q{q:g}",
        partial(models.tomography_config, "steering", n, q=q))
       for n in (2, math.inf) for q in (0.0, 0.3)]
    + [("simple-bell", partial(models.ModelConfig, kind="simple-bell")),
       ("trusted-steering-M3",
        partial(models.ModelConfig, kind="trusted-steering", m_choices=3)),
       ("ncopy-steering-N10",
        partial(models.ModelConfig, kind="ncopy-steering", n_copies=10,
                m_choices=3))])

# Known program defect: at q=0 the quadrature's dead-zone cell comes out
# near -1e-17 and RunStatistics rejects it.  These operations stay in the
# workload and count as failed; they do not make the run incorrect.
KNOWN_DEFECT = "negative weights"
KNOWN_DEFECT_OPS = {"bell-N1-q0", "bell-N4-q0", "bell-Ninf-q0",
                    "steering-N2-q0"}

CLOSED_FORM_TOL = 2e-4   # quadrature accuracy today: worst 1.2e-4
EXACT_REF_TOL = 1e-3     # exact value/eta against the recorded twin
SIGMAS = 6.0
MIN_EXPECTED = 100.0     # fewer expected events: value too noisy to check


def load_data(name: str) -> dict:
    path = DATA / name
    return json.loads(path.read_text()) if path.exists() else {}


# ---------------------------------------------------------------------------
# Bookkeeping shared by the workloads.
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, plus checks that are not operations."""

    attempted: int = 0
    failed: int = 0
    known: int = 0
    bad_checks: int = 0
    problems: list = field(default_factory=list)

    def op(self, label: str, problem: str | None = None,
           known: bool = False) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.known += known
            self._note(label, problem)

    def bad(self, label: str, problem: str) -> None:
        self.bad_checks += 1
        self._note(label, problem)

    def _note(self, label: str, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {problem}")

    @property
    def correct(self) -> bool:
        """No output was wrong and every failed operation is a known defect."""
        return self.failed == self.known and self.bad_checks == 0


def _run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Call the CLI in-process; returns (exit status, captured output tail)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.main(argv)
    except Exception as exc:  # the benchmark must keep counting
        return None, f"{type(exc).__name__}: {exc}"
    return status, sink.getvalue()[-300:]


def csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return [ln.split(",") for ln in lines[1:] if ln.strip()]


def digest(lines: list[str]) -> str:
    """SHA-256 of checked CSV columns, one line per row."""
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def curve_columns(rows: list[list[str]]) -> list[str]:
    """The checked curve columns: n_copies, q, eta, value."""
    return [",".join(r[:4]) for r in rows]


def point_columns(rows: list[list[str]]) -> list[str]:
    """The checked per-pair columns: all but the reported stderr."""
    return [",".join(r[:3] + r[4:]) for r in rows]


def _within(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol


def samples_of(argv: list[str]) -> int:
    return int(argv[argv.index("--samples") + 1])


def chunking(samples: int) -> dict:
    """The chunk schedule the estimators split ``samples`` into."""
    chunk = getattr(estimators, "DEFAULT_CHUNK", None)
    if not chunk:
        return {"samples": samples}
    full, tail = divmod(samples, chunk)
    return {"samples": samples, "chunk": chunk, "full_chunks": full,
            "tail": tail}


# ---------------------------------------------------------------------------
# Closed forms of the tomography quadrature.
# ---------------------------------------------------------------------------

def table_correlation(t: np.ndarray) -> float:
    coinc = t[np.ix_((0, 2), (0, 2))]
    return float((coinc[0, 0] + coinc[1, 1] - coinc[0, 1] - coinc[1, 0])
                 / coinc.sum())


def bob_marginal_error(table: np.ndarray, q: float) -> float:
    """Bob's trit marginal is ((1-q)/2, q, (1-q)/2) for every N."""
    expect = np.array([(1.0 - q) / 2.0, q, (1.0 - q) / 2.0])
    return float(np.max(np.abs(table.sum(axis=0) - expect)))


def closed_form_errors() -> dict[str, float]:
    """Deviation of ``tomography_pair_table`` from its closed forms.

    At q=0 the matched-axis correlation is C_N = (2/pi) B(N+3/2, 1/2) - 1,
    and a shared-axis (N=inf) Bell pair at angle theta is 1 - 2 theta/pi.
    Bob's marginal is checked on every table.
    """
    errors = {}
    z = np.array([0.0, 0.0, 1.0])
    for n in (1, 2, 4, 8):
        t = estimators.tomography_pair_table(n, 0.0, z, z)
        c_n = 2.0 / math.pi * math.exp(math.lgamma(n + 1.5) + math.lgamma(0.5)
                                       - math.lgamma(n + 2.0)) - 1.0
        errors[f"C_{n}"] = abs(table_correlation(t) - c_n)
        errors[f"C_{n}.bob_marginal"] = bob_marginal_error(t, 0.0)
    for i, a in enumerate(quantum.CHSH_ALICE):
        for j, b in enumerate(quantum.CHSH_BOB):
            t = estimators.tomography_pair_table(math.inf, 0.0, a, b)
            theta = math.acos(float(np.clip(np.dot(a, b), -1.0, 1.0)))
            errors[f"shared-axis({i},{j})"] = abs(
                table_correlation(t) - (1.0 - 2.0 * theta / math.pi))
            errors[f"shared-axis({i},{j}).bob_marginal"] = \
                bob_marginal_error(t, 0.0)
    return errors


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class Workload:
    """One workload: inputs built from a seed, timed iterations, checks."""

    name = ""
    workers = 1               # pool workers of the untraced run
    # Per-layer metrics this workload must move; the traced run fails if
    # any of them reads zero (a wrapper that no longer reaches the program).
    moves: tuple = ()

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.tally = Tally()
        self.inputs = self.build_inputs(seed)
        self.closed_form: dict[str, float] = {}

    @staticmethod
    def build_inputs(seed: int):
        raise NotImplementedError

    def run(self, workers: int) -> dict:
        """One timed iteration; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, result: dict) -> None:
        raise NotImplementedError

    def exact_max_abs_err(self) -> float:
        """Worst closed-form deviation of the quadrature seen by this run."""
        if not self.closed_form:
            self.closed_form = closed_form_errors()
            self._check_closed_form(self.closed_form)
        return max(self.closed_form.values())

    def _check_closed_form(self, errors: dict[str, float]) -> None:
        worst = max(errors, key=errors.get)
        if errors[worst] > CLOSED_FORM_TOL:
            self.tally.bad("closed-form", f"{worst} off by {errors[worst]:.3g}")

    def facts(self) -> dict:
        raise NotImplementedError


class Sweep(Workload):
    """Two ``lrpovm curves`` runs (bell, steering) over N = 2, inf."""

    name = "sweep"
    workers = SWEEP_WORKERS
    moves = ("estimators.count_s", "estimators.count_share",
             "estimators.threshold_evals", "models.sample_s",
             "models.samples", "models.ns_per_sample",
             "estimators.pool_starts", "estimators.pool_overhead_s",
             "estimators.pool_efficiency", "estimators.reduce_s",
             "estimators.reduce_calls", "curvefile.write_s",
             "curvefile.bytes")

    @staticmethod
    def build_inputs(seed: int):
        parser = cli.build_parser()
        calls = []
        for kind in ("bell", "steering"):
            argv = ["curves", "--kind", kind, "--n-copies", SWEEP_COPIES,
                    "--samples", str(SWEEP_SAMPLES), "--seed", str(seed)]
            parser.parse_args(argv + ["--out", "curves.csv"])
            calls.append((kind, argv))
        return calls

    def run(self, workers: int) -> dict:
        results = []
        for kind, argv in self.inputs:
            csv = self.out_dir / f"curves-{kind}.csv"
            svg = self.out_dir / f"curves-{kind}.svg"
            for p in (csv, svg):
                p.unlink(missing_ok=True)
            status, err = _run_cli(argv + ["--workers", str(workers),
                                          "--out", str(csv), "--svg", str(svg)])
            results.append((kind, status, err, csv, svg))
        return {"calls": results}

    def check(self, result: dict) -> None:
        ref = load_data("reference.json")["sweep"]
        golden = load_data("golden.json").get("sweep", {}).get(str(self.seed))
        for kind, status, err, csv, svg in result["calls"]:
            problem = None
            if status != 0:
                problem = f"exit status {status}: {err}"
            elif not svg.exists() or "<svg" not in svg.read_text()[:400]:
                problem = "SVG chart missing"
            rows = [] if problem else csv_rows(csv)
            if golden is not None and not problem and \
                    digest(curve_columns(rows)) != golden[kind]:
                problem = "curve CSV differs from the recorded output"
            by_key = {f"{kind},{r[0]},{r[1]}": r for r in rows}
            for key in (k for k in ref if k.startswith(kind + ",")):
                row = by_key.get(key)
                if problem is not None:
                    self.tally.op(key, problem)
                elif row is None:
                    self.tally.op(key, "row missing from CSV")
                else:
                    self.tally.op(key, _sweep_point_problem(ref[key], row))

    def facts(self) -> dict:
        return {"config": {"curves": [a for _, a in self.inputs]},
                "chunk_schedule": chunking(SWEEP_SAMPLES)}


def _sweep_point_problem(ref: dict, row: list[str]) -> str | None:
    """Compare one curve point with its exact twin."""
    eta, value = float(row[2]), float(row[3])
    n = SWEEP_SAMPLES
    if not _within(eta, ref["eta"], 0.5 * SIGMAS
                   / math.sqrt(n * ref["p_alice_min"])):
        return f"eta {eta} vs exact {ref['eta']}"
    if ref["value"] is None:
        return None if math.isnan(value) else f"value {value}, exact undefined"
    events = n * ref["p_events_min"]
    if events < MIN_EXPECTED:
        return None
    # sd(|S|) <= 2/sqrt(min coincidences); sd(T) <= sqrt(15/min registered).
    sd = (2.0 if ref["kind"] == "bell" else math.sqrt(15.0)) / math.sqrt(events)
    if not _within(value, ref["value"], SIGMAS * sd):
        return f"value {value} vs exact {ref['value']} (tol {SIGMAS * sd:.3g})"
    return None


class Point(Workload):
    """Five fixed-q CLI estimates at one worker, each writing a pair CSV."""

    name = "point"
    moves = ("estimators.count_s", "estimators.count_share",
             "estimators.threshold_evals", "models.sample_s",
             "models.samples", "models.ns_per_sample")

    @staticmethod
    def build_inputs(seed: int):
        parser = cli.build_parser()
        calls = []
        for label, argv, _ in POINT_SPECS:
            argv = argv + ["--seed", str(seed)]
            parser.parse_args(argv)
            calls.append((label, argv))
        return calls

    def run(self, workers: int) -> dict:
        results = []
        for label, argv in self.inputs:
            csv = self.out_dir / f"point-{label}.csv"
            csv.unlink(missing_ok=True)
            status, err = _run_cli(argv + ["--workers", str(workers),
                                          "--out", str(csv)])
            results.append((label, argv, status, err, csv))
        return {"calls": results}

    def check(self, result: dict) -> None:
        ref = load_data("reference.json")["point"]
        golden = load_data("golden.json").get("point", {}).get(str(self.seed))
        for label, argv, status, err, csv in result["calls"]:
            if status != 0:
                self.tally.op(label, f"exit status {status}: {err}")
                continue
            rows = csv_rows(csv)
            problem = None
            if golden is not None and \
                    digest(point_columns(rows)) != golden[label]:
                problem = "per-pair CSV differs from the recorded output"
            for r in rows:
                problem = problem or _pair_problem(
                    ref[label][f"{r[0]},{r[1]}"], r, samples_of(argv))
            self.tally.op(label, problem)

    def facts(self) -> dict:
        return {"config": {"estimates": [a for _, a in self.inputs]},
                "chunk_schedule": [chunking(samples_of(a))
                                   for _, a in self.inputs]}


def _pair_problem(ref: dict, row: list[str], n: int) -> str | None:
    """Compare one per-pair CSV row with its exact twin."""
    corr, n_c = float(row[2]), float(row[4])
    where = f"pair ({row[0]},{row[1]})"
    mean_c = n * ref["p_coinc"]
    spread = SIGMAS * math.sqrt(mean_c * (1.0 - ref["p_coinc"])) + 1.0
    if abs(n_c - mean_c) > spread:
        return f"{where} coincidences {n_c} vs expected {mean_c:.1f}"
    if mean_c >= MIN_EXPECTED and not _within(
            corr, ref["correlation"], SIGMAS / math.sqrt(mean_c)):
        return f"{where} correlation {corr} vs exact {ref['correlation']}"
    for eta, key, p_key in ((float(row[5]), "eta_alice", "p_alice"),
                            (float(row[6]), "eta_bob", "p_bob")):
        det = n * ref[p_key]
        if det >= MIN_EXPECTED and not _within(
                eta, ref[key], 0.5 * SIGMAS / math.sqrt(det)):
            return f"{where} {key} {eta} vs exact {ref[key]}"
    return None


class Exact(Workload):
    """``enumerate_exact`` over a config grid plus the closed-form tables."""

    name = "exact"
    moves = ("estimators.quad_s", "estimators.quad_tables",
             "estimators.quad_s_per_table", "sphere.arc_evals",
             "models.enumerate_s")

    @staticmethod
    def build_inputs(seed: int):
        # Exact evaluation draws nothing; the inputs do not depend on seed.
        return [(label, build()) for label, build in EXACT_SPECS]

    def run(self, workers: int) -> dict:
        results = []
        for label, config in self.inputs:
            try:
                stats = lrpovm.enumerate_exact(config)
                value, _, degenerate = stats.value()
                outcome = (float(value), stats.efficiency("alice"),
                           bool(degenerate), stats)
            except Exception as exc:  # counted, never filtered
                outcome = f"{type(exc).__name__}: {exc}"
            results.append((label, config, outcome))
        return {"ops": results, "closed_form": closed_form_errors()}

    def check(self, result: dict) -> None:
        ref = load_data("reference.json")["exact"]
        errors = dict(result["closed_form"])
        for label, config, outcome in result["ops"]:
            if isinstance(outcome, str):
                self.tally.op(label, outcome, known=(
                    label in KNOWN_DEFECT_OPS and KNOWN_DEFECT in outcome))
                continue
            value, eta, degenerate, stats = outcome
            want = ref[label]
            problem = None
            if degenerate or not _within(value, want["value"], EXACT_REF_TOL):
                problem = f"value {value} vs recorded {want['value']}"
            elif not _within(eta, want["eta"], EXACT_REF_TOL):
                problem = f"eta {eta} vs recorded {want['eta']}"
            elif config.is_tomography:
                ma, mb = stats.weights.shape[:2]
                for i in range(ma):
                    for j in range(mb):
                        errors[f"{label}({i},{j}).bob_marginal"] = \
                            bob_marginal_error(stats.weights[i, j], config.q)
            else:
                problem = _discrete_problem(label, stats, value, eta)
            self.tally.op(label, problem)
        self._check_closed_form(errors)
        self.closed_form = {k: max(v, self.closed_form.get(k, 0.0))
                            for k, v in errors.items()}

    def facts(self) -> dict:
        return {"config": {"enumerate_exact": [lbl for lbl, _ in self.inputs],
                           "closed_form": "C_N (N=1,2,4,8) and shared-axis "
                                          "Bell pairs at q=0; Bob marginals"},
                "chunk_schedule": None}


def _discrete_problem(label, stats, value, eta) -> str | None:
    """Closed forms of the discrete models (exact to rounding)."""
    tol = 1e-12
    if label == "simple-bell":
        ok = abs(value - 2.0 * math.sqrt(2.0)) < tol and abs(eta - 0.5) < tol
    elif label == "trusted-steering-M3":
        ok = all(abs(stats.full_correlation(j, j) - 1.0 / 3.0) < tol
                 for j in range(3))
    else:  # unanimity: coincidences are perfectly correlated
        ok = all(abs(abs(stats.pair(j, j).correlation) - 1.0) < tol
                 for j in range(3))
    return None if ok else f"closed form violated (value {value}, eta {eta})"


WORKLOADS = {w.name: w for w in (Sweep, Point, Exact)}
