#!/usr/bin/env python3
"""Record the data the benchmark checks against, from the current program.

    python3 perfbench/make_reference.py twins          # data/reference.json
    python3 perfbench/make_reference.py golden 0 1 2   # data/golden.json

``twins`` stores the exact twin of every checked value: quadrature or
enumeration results that do not depend on the seed (about two minutes).
Quadrature tables are clipped at zero, because at q=0 the program's
dead-zone cell comes out near -1e-17 (a known defect ``enumerate_exact``
trips on).  ``golden`` runs the ``sweep`` and ``point`` workloads once per
seed and stores a SHA-256 digest of their checked CSV columns; runs at
those seeds must reproduce them byte for byte.  Run from the checkout root.
"""
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from lrpovm import estimators, models  # noqa: E402
from lrpovm.estimators import RunStatistics  # noqa: E402


def _clean(x):
    return None if x is None or math.isnan(x) else float(x)


def _tables(config, pairs) -> np.ndarray:
    ma, mb = len(config.alice_directions), len(config.bob_directions)
    out = np.zeros((ma, mb, 3, 3))
    for i, j in pairs:
        out[i, j] = estimators.tomography_pair_table(
            config.n_copies, config.q, config.alice_directions[i],
            config.bob_directions[j])
    return np.maximum(out, 0.0)


def _all_pairs(config):
    return [(i, j) for i in range(len(config.alice_directions))
            for j in range(len(config.bob_directions))]


def sweep_twins() -> dict:
    out = {}
    for kind in ("bell", "steering"):
        for n in (2, math.inf):
            for q in estimators.default_q_grid():
                config = models.tomography_config(kind, n, q=float(q))
                pairs = (_all_pairs(config) if kind == "bell"
                         else [(j, j) for j in range(3)])
                w = _tables(config, pairs)
                stats = RunStatistics(kind=kind, weights=w, samples=0,
                                      exact=True)
                value, _, degenerate = stats.value()
                used = [w[i, j] / w[i, j].sum() for i, j in pairs]
                events = [t[(0, 2), :][:, (0, 2)].sum() if kind == "bell"
                          else t[:, (0, 2)].sum() for t in used]
                key = f"{kind},{'inf' if n == math.inf else n},{q:.9g}"
                out[key] = {
                    "kind": kind, "eta": _clean(stats.efficiency("alice")),
                    "value": None if degenerate else _clean(value),
                    "p_events_min": float(min(events)),
                    "p_alice_min": float(min(t[(0, 2), :].sum()
                                             for t in used))}
    return out


def point_twins() -> dict:
    out = {}
    for label, _, build in W.POINT_SPECS:
        stats = estimators.enumerate_exact(build())
        rows = {}
        for i, j in _all_pairs(build()):
            p = stats.pair(i, j)
            t = stats.pair_probabilities(i, j)
            rows[f"{i + 1},{j + 1}"] = {
                "correlation": _clean(p.correlation),
                "p_coinc": float(t[(0, 2), :][:, (0, 2)].sum()),
                "p_alice": float(t[(0, 2), :].sum()),
                "p_bob": float(t[:, (0, 2)].sum()),
                "eta_alice": _clean(p.eta_alice),
                "eta_bob": _clean(p.eta_bob)}
        out[label] = rows
    return out


def exact_twins() -> dict:
    out = {}
    for label, build in W.EXACT_SPECS:
        config = build()
        if config.is_tomography:
            kind = "bell" if len(config.alice_directions) == 2 else "steering"
            stats = RunStatistics(kind=kind, weights=_tables(
                config, _all_pairs(config)), samples=0, exact=True)
        else:
            stats = estimators.enumerate_exact(config)
        value, _, _ = stats.value()
        out[label] = {"value": float(value),
                      "eta": float(stats.efficiency("alice"))}
    return out


def golden(seeds: list[int]) -> dict:
    data = W.load_data("golden.json")
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for seed in seeds:
            sweep = W.Sweep(seed, Path(tmp))
            result = sweep.run(W.SWEEP_WORKERS)
            sweep.check(result)
            curves = {kind: W.digest(W.curve_columns(W.csv_rows(csv)))
                      for kind, _, _, csv, _ in result["calls"]}
            point = W.Point(seed, Path(tmp))
            result = point.run(1)
            point.check(result)
            for wl in (sweep, point):
                if wl.tally.failed:
                    raise SystemExit(f"seed {seed}: {wl.tally.problems}")
            data.setdefault("sweep", {})[str(seed)] = curves
            data.setdefault("point", {})[str(seed)] = {
                label: W.digest(W.point_columns(W.csv_rows(csv)))
                for label, _, _, _, csv in result["calls"]}
            print(f"recorded seed {seed}", flush=True)
    return data


def main(argv) -> int:
    W.DATA.mkdir(exist_ok=True)
    if argv[:1] == ["twins"]:
        ref = {"sweep": sweep_twins(), "point": point_twins(),
               "exact": exact_twins()}
        (W.DATA / "reference.json").write_text(json.dumps(ref, indent=1))
    elif argv[:1] == ["golden"] and len(argv) > 1:
        data = golden([int(s) for s in argv[1:]])
        (W.DATA / "golden.json").write_text(json.dumps(data, indent=1))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
