"""Faking steering correlations with local readout tables.

The trusted three-setting steering test bounds
T = sum_j sum_a p(a_j) <b_j>^2_{a_j} by 1/3 whenever Bob's registered
readouts are honest qubit measurements.  The ideal singlet with matched
antiparallel settings reaches T = 1.  This script shows what the local
realistic constructions achieve:

* the pick model keeps coincidences perfectly correlated but pays a 1/M
  registration rate, pinning T exactly at the 1/3 bound;
* the N-copy unanimity model keeps the perfect correlations with a
  2^(1-N) registration rate and the same T;
* the thresholded tomography model trades efficiency for T and crosses
  1/3 once the dead zone bites (it is not bound by 1/3 because its
  readouts are not qubit measurements).
"""
from lrpovm.estimators import enumerate_exact, estimate, min_copies
from lrpovm.models import ModelConfig, tomography_config
from lrpovm.quantum import quantum_steering_T

print(f"ideal singlet value:           T = {quantum_steering_T():.4f}")

trusted = enumerate_exact(ModelConfig(kind="trusted-steering", m_choices=3))
t, _, _ = trusted.steering()
print(f"trusted pick model (M=3):      T = {t:.4f} "
      f"(full correlation = {trusted.full_correlation(0, 0):.4f} = 1/M)")

for n in (1, 3, 6):
    config = ModelConfig(kind="ncopy-steering", n_copies=n)
    stats = estimate(config, 300_000, seed=2)
    t, se, _ = stats.steering()
    w = stats.weights[0, 0]
    rate = w[:, (0, 2)].sum() / w.sum()
    print(f"unanimity model N={n}:          T = {t:.4f} +/- {se:.4f}, "
          f"matched coincidence corr = {stats.pair(0, 0).correlation:.4f}, "
          f"registration rate = {rate:.4f} (expect "
          f"{2.0 ** (1 - n) / 3.0:.4f})")

print()
print("thresholded tomography, q = 0 (full detection):")
for n in (1, 3, 6, 10):
    stats = estimate(tomography_config("steering", n, 0.0), 300_000, seed=3)
    t, se, _ = stats.steering()
    flag = "  <- already above 1/3" if t > 1 / 3 else ""
    print(f"  N={n:>2}: T = {t:.4f} +/- {se:.4f}{flag}")

print()
print("how many copies must a faker hold to reach an observed point?")
for observed_t, observed_eta in ((0.34, 0.85), (0.40, 0.70), (0.50, 0.45)):
    n = min_copies(observed_t, observed_eta, "steering", 8)
    print(f"  T = {observed_t:.2f} at efficiency {observed_eta:.2f}: "
          f"needs N >= {n}")
