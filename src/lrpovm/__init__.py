"""Local-realistic joint-POVM models for CHSH and EPR-steering tests.

The package provides four layers:

* :mod:`lrpovm.causality` -- lightcone signatures of choice-conditioned
  readouts;
* :mod:`lrpovm.quantum` -- an exact small-Hilbert-space engine and the
  brute-force oracles;
* :mod:`lrpovm.models` -- the local realistic readout models (pick,
  unanimity, and threshold-tomography constructions);
* :mod:`lrpovm.estimators` -- Monte Carlo and exact estimation of
  efficiency, CHSH S, and steering T, plus threshold sweeps and the
  copy-count lower-bound search.

The ``lrpovm`` command line fronts all of it; see the README.
"""

from .causality import (CausalScenario, Event, ReadoutSignature,
                        in_future_lightcone, readout_signature)
from .estimators import (CurvePoint, RunStatistics, default_q_grid,
                         enumerate_exact, estimate, frontier_value,
                         min_copies, sweep_curves)
from .models import (DEFAULT_SEED, ModelConfig, ReadoutBatch, sample_batch,
                     threshold_readout, tomography_config)
from .quantum import (CHSH_ALICE, CHSH_BOB, STEERING_TRIPLE, chsh_value,
                      coherent_state, oracle_pair_density,
                      qubit_probability_plus, quantum_correlation,
                      quantum_steering_T, sequential_qubit_probability,
                      singlet_power)
from .sphere import RngStream, cap_overlap_quadrature, pair_density, \
    sample_pair

__version__ = "0.1.0"

__all__ = [
    "CausalScenario", "Event", "ReadoutSignature", "in_future_lightcone",
    "readout_signature", "CurvePoint", "RunStatistics", "default_q_grid",
    "enumerate_exact", "estimate", "frontier_value",
    "min_copies", "sweep_curves", "DEFAULT_SEED",
    "ModelConfig", "ReadoutBatch", "sample_batch",
    "threshold_readout", "tomography_config", "CHSH_ALICE", "CHSH_BOB",
    "STEERING_TRIPLE", "chsh_value", "coherent_state", "oracle_pair_density",
    "qubit_probability_plus", "quantum_correlation", "quantum_steering_T",
    "sequential_qubit_probability", "singlet_power", "RngStream",
    "cap_overlap_quadrature", "pair_density", "sample_pair",
]
