"""Reading one qubit at two times: collapse versus copies.

Checking "is the qubit still in its initial state?" at t_a and again at
t_b with projective collapse disturbs the second readout.  At
t_a = pi/(2 w), t_b = pi/w the sequential model puts probability 1/4 on
every outcome pair even though the undisturbed second check would be
certain to fail.  Serving the two checks from two copies of the qubit
restores the undisturbed product statistics.
"""
import math

import numpy as np

from lrpovm.quantum import (copies_joint_probability, qubit_probability_plus,
                            sequential_qubit_probability)

omega = 1.0
t_a, t_b = math.pi / 2.0, math.pi

sequential = sequential_qubit_probability(t_a, t_b, omega)
copies = copies_joint_probability(t_a, t_b, omega)
print(f"t_a = pi/2, t_b = pi (omega = {omega:g})")
print(f"undisturbed single-check probabilities: "
      f"p_a = {qubit_probability_plus(omega * t_a):.4f}, "
      f"p_b = {qubit_probability_plus(omega * t_b):.4f}")
print()
print("joint readout (beta, gamma):   sequential    two copies")
for beta in (1, 0):
    for gamma in (1, 0):
        print(f"   ({beta},{gamma})                       "
              f"{sequential[beta, gamma]:.4f}        "
              f"{copies[beta, gamma]:.4f}")
print()
print(f"second-check marginal p(gamma=1): sequential "
      f"{sequential[:, 1].sum():.4f} (disturbed), copies "
      f"{copies[:, 1].sum():.4f} (matches the projective 0)")
print()

# Across arbitrary time pairs the copy-served joint is exactly the
# product of the one-time probabilities.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    ta, tb = sorted(rng.random(2) * 2.0 * math.pi)
    joint = copies_joint_probability(ta, tb, omega)
    pa, pb = (qubit_probability_plus(omega * t) for t in (ta, tb))
    product = np.array([[(1 - pa) * (1 - pb), (1 - pa) * pb],
                        [pa * (1 - pb), pa * pb]])
    worst = max(worst, float(np.max(np.abs(joint - product))))
print(f"copies model vs product rule over 200 random time pairs: "
      f"max deviation {worst:.2e}")
