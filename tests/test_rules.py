"""Every integer, threshold and test-kind argument of the public entry
points follows one of the package's argument rules, with one exception
type and one message per rule: ``sphere.check_count`` (``operator.index``;
a float, 2.0 included, and a bool fail with TypeError, a value below the
minimum with ValueError), ``sphere.check_threshold`` (each threshold and
each grid point in [0, 1), else ValueError) and ``sphere.check_kind``
('bell' or 'steering', else ValueError)."""
import math
import re

import numpy as np
import pytest

from lrpovm import cli, models, quantum, sphere
from lrpovm.curvefile import write_curve_csv
from lrpovm.estimators import (CurvePoint, RunStatistics, estimate,
                               min_copies, sweep_curves,
                               tomography_pair_table)
from lrpovm.models import ModelConfig, tomography_config
from lrpovm.svgchart import write_curve_svg

BELL = ModelConfig("simple-bell")
Z, X = np.eye(3)[2], np.eye(3)[0]
TRIPLE = quantum.STEERING_TRIPLE

# Entry point and argument: (call with the argument set, name, minimum).
INTEGER_ARGS = {
    "estimate-samples": (lambda v: estimate(BELL, v), "samples", 1000),
    "estimate-seed": (lambda v: estimate(BELL, 2000, seed=v), "seed", 0),
    "estimate-workers": (lambda v: estimate(BELL, 2000, workers=v),
                         "workers", 1),
    "sweep_curves-samples": (lambda v: sweep_curves("bell", [1], [0.3], v),
                             "samples", 1000),
    "sweep_curves-seed": (
        lambda v: sweep_curves("bell", [1], [0.3], 2000, seed=v), "seed", 0),
    "sweep_curves-workers": (
        lambda v: sweep_curves("bell", [1], [0.3], 2000, workers=v),
        "workers", 1),
    "min_copies-n_max": (
        lambda v: min_copies(0.5, 0.5, "steering", v, curves={}), "n_max", 1),
    "ModelConfig-n_copies": (
        lambda v: ModelConfig("ncopy-tomography", n_copies=v), "n_copies", 1),
    "ModelConfig-m_choices": (
        lambda v: ModelConfig("trusted-steering", m_choices=v),
        "m_choices", 2),
    "sample_batch-n": (
        lambda v: models.sample_batch(BELL, sphere.rng_stream(1), v), "n", 0),
    "sample_pair-size": (
        lambda v: sphere.sample_pair(2, sphere.rng_stream(1), v), "size", 0),
    "tomography_pair_table-n_copies": (
        lambda v: tomography_pair_table(v, 0.3, Z, X), "n_copies", 0),
    "pair_density-n_copies": (lambda v: sphere.pair_density(v, 0.3),
                              "n_copies", 0),
    "singlet_power-n_copies": (quantum.singlet_power, "n_copies", 1),
    "trusted_steering_kraus-m_choices": (
        lambda v: quantum.trusted_steering_kraus(v, -TRIPLE, TRIPLE),
        "m_choices", 2),
    "cap_overlap_quadrature-nodes": (
        lambda v: sphere.cap_overlap_quadrature(np.cos, v), "nodes", 2),
    "tomography_tables-n_copies": (
        lambda v: models.tomography_tables(v, [0.3], 0.5), "n_copies", 0),
    "exact_tables-n_copies": (
        lambda v: models.exact_tables(tomography_config("bell", 2), [0.3],
                                      (v,)), "n_copies", 0),
    "count_tables-n_copies": (
        lambda v: models.count_tables(
            tomography_config("bell", 2), sphere.rng_stream(1), 2000, [0.3],
            (v,), None, sphere.Workspace()), "n_copies", 0),
    "count_tables-n": (
        lambda v: models.count_tables(
            BELL, sphere.rng_stream(1), v, [0.3], (2,), None,
            sphere.Workspace()), "n", 0),
}
# The copy counts that also take the shared-axis limit N = inf.
TAKES_INF = {"ModelConfig-n_copies", "tomography_pair_table-n_copies",
             "tomography_tables-n_copies", "exact_tables-n_copies",
             "count_tables-n_copies"}
INTEGER_VALUES = [2.5, 2.0, True, -1, math.nan, math.inf, "3", np.int64(3),
                  np.float64(2.0)]

# Entry point and argument: (call with the threshold or grid set, name).
THRESHOLD_ARGS = {
    "ModelConfig-q": (lambda q: ModelConfig("chaotic-ball", q=q), "q"),
    "threshold_readout-q": (lambda q: models.threshold_readout(0.2, q), "q"),
    "tomography_pair_table-q": (lambda q: tomography_pair_table(2, q, Z, X),
                                "q"),
}
GRID_ARGS = {
    "sweep_curves-q_grid": (lambda g: sweep_curves("bell", [1], g, 2000),
                            "q_grid"),
    "sweep_curves-exact-q_grid": (
        lambda g: sweep_curves("bell", [1], g, None), "q_grid"),
    "threshold_levels-q_sorted": (
        lambda g: models.threshold_levels([0.25], g), "q_sorted"),
    "exact_tables-q_sorted": (
        lambda g: models.exact_tables(tomography_config("bell", 2), g, (2,)),
        "q_sorted"),
    "count_tables-q_sorted": (
        lambda g: models.count_tables(
            tomography_config("bell", 2), sphere.rng_stream(1), 2000, g,
            (2,), None, sphere.Workspace()), "q_sorted"),
}
THRESHOLD_VALUES = [-0.1, 1.0, math.nan]
GRID_VALUES = [[1.0], [math.nan], [-0.1], [1.5]]


# Entry point: call with the kind set, writing any file into a directory.
KIND_ARGS = {
    "tomography_config": lambda k, _: tomography_config(k),
    "sweep_curves": lambda k, _: sweep_curves(k, [1], [0.3], None),
    "RunStatistics": lambda k, _: RunStatistics(
        kind=k, weights=np.ones((2, 2, 3, 3)), samples=36),
    "min_copies": lambda k, _: min_copies(2.5, 0.9, k, 3, curves={}),
    "write_curve_svg": lambda k, tmp: write_curve_svg(
        {1: [CurvePoint(1, 0.3, 0.5, 2.2, 0.0, 0)]}, tmp / "c.svg", kind=k),
}
KIND_VALUES = ["Bell", "chsh", "", None]


def _outcome(call, value):
    """"ok", or the type and message of what ``call(value)`` raised."""
    try:
        call(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return "ok"


CASES = [pytest.param(entry, value, id=f"{entry}-{value!r}")
         for args, values in ((INTEGER_ARGS, INTEGER_VALUES),
                              (THRESHOLD_ARGS, THRESHOLD_VALUES),
                              (GRID_ARGS, GRID_VALUES))
         for entry in args for value in values]


@pytest.mark.parametrize("entry,value", CASES)
def test_one_rule_per_argument(entry, value):
    if entry in INTEGER_ARGS:
        call, name, minimum = INTEGER_ARGS[entry]
        if isinstance(value, np.integer):
            # A numpy integer is its int, whatever the int does.
            assert _outcome(call, value) == _outcome(call, int(value))
            return
        if value == math.inf and entry in TAKES_INF:
            assert _outcome(call, value) == "ok"
            return
        if value == -1:
            error, message = ValueError, f"{name} must be >= {minimum}, got -1"
        else:
            error = TypeError
            message = f"{name} must be an integer, got {value!r}"
    else:
        call, name = THRESHOLD_ARGS.get(entry) or GRID_ARGS[entry]
        point = value[0] if isinstance(value, list) else value
        error, message = ValueError, f"{name} must lie in [0, 1), got {point}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", KIND_VALUES)
@pytest.mark.parametrize("entry", sorted(KIND_ARGS))
def test_one_kind_rule(entry, value, tmp_path):
    message = f"kind must be 'bell' or 'steering', got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KIND_ARGS[entry](value, tmp_path)


def test_threshold_keeps_value_and_type():
    """A threshold that passes comes back as given, except that -0.0 is
    +0.0."""
    for q in (0, 0.3, np.float64(0.25), np.array([0.0, 0.5])):
        got = sphere.check_threshold(q)
        assert type(got) is type(q) and np.array_equal(got, q)
    for q in (-0.0, np.float64(-0.0), np.array([-0.0, 0.5])):
        assert not np.signbit(sphere.check_threshold(q)).any()
    assert math.copysign(1.0, ModelConfig("chaotic-ball", q=-0.0).q) == 1.0


def test_negative_zero_threshold_printed_as_zero(capsys, tmp_path):
    """-0 reads as the threshold 0 in the run header and in a curve file."""
    outputs = []
    for q in ("-0", "0"):
        assert cli.main(["bell", "--model", "chaotic-ball", "--q", q,
                         "--samples", "1000"]) == 0
        outputs.append(capsys.readouterr().out)
    assert "  q: 0  " in outputs[0] and outputs[0] == outputs[1]
    files = []
    for zero in (-0.0, 0.0):
        path = tmp_path / f"curve{len(files)}.csv"
        write_curve_csv(sweep_curves("bell", [1], [zero, 0.3], None)[1], path)
        files.append(path.read_text())
    assert files[0].splitlines()[1].startswith("1,0,1,")
    assert files[0] == files[1]
