"""CHSH violation versus detection efficiency.

The pick model fakes the full quantum CHSH value 2*sqrt(2) on
coincidences at 50% efficiency.  The thresholded tomography models trade
efficiency for violation continuously: sweeping the dead-zone threshold
traces one curve per copy count, and the shared-axis limit walks from
(eta = 1, |S| = 2) up to the quantum value at eta = 82.2%, a little
below 2(sqrt(2)-1) = 82.8%, the efficiency below which local realism can
fake the whole singlet.  Writes the swept curves to CSV and SVG next to
this script.
"""
import math
from pathlib import Path

from lrpovm.curvefile import write_curve_csv
from lrpovm.estimators import enumerate_exact, estimate, sweep_curves
from lrpovm.models import ModelConfig
from lrpovm.svgchart import write_curve_svg

out_dir = Path(__file__).resolve().parent / "demo_output"
out_dir.mkdir(exist_ok=True)

simple = enumerate_exact(ModelConfig(kind="simple-bell"))
s, _, _ = simple.chsh()
print(f"pick model: efficiency = {simple.efficiency('alice'):.3f}, "
      f"coincidence S = {s:.4f} (the quantum value)")

mc = estimate(ModelConfig(kind="simple-bell"), 200_000, seed=1)
s, se, _ = mc.chsh()
print(f"  Monte Carlo check: S = {s:.4f} +/- {se:.4f}")
print()

n_list = [1, 2, 3, 5, 10, math.inf]
print(f"sweeping tomography curves for N in {n_list} ...")
curves = sweep_curves("bell", n_list, samples=300_000, seed=5)

for n in n_list:
    label = "inf" if n == math.inf else f"{n:3d}"
    start = curves[n][0]
    peak = max((p for p in curves[n] if not math.isnan(p.value)),
               key=lambda p: p.value)
    print(f"  N={label}: |S| at full detection = {start.value:.3f}, "
          f"peak |S| = {peak.value:.3f} at eta = {peak.eta:.3f}")

# Where does the shared-axis curve reach the quantum value?
target = 2.0 * math.sqrt(2.0)
pts = sorted((p.eta, p.value) for p in curves[math.inf]
             if not math.isnan(p.value))
for (e0, v0), (e1, v1) in zip(pts, pts[1:]):
    if (v0 - target) * (v1 - target) <= 0 and v0 != v1:
        eta = e0 + (target - v0) * (e1 - e0) / (v1 - v0)
        print(f"\nshared-axis limit reaches 2*sqrt(2) at eta = {eta:.3f} "
              f"(2(sqrt(2)-1) = {2 * (math.sqrt(2) - 1):.3f})")
        break

csv_path = out_dir / "bell_curves.csv"
svg_path = out_dir / "bell_curves.svg"
write_curve_csv([p for pts in curves.values() for p in pts], csv_path)
write_curve_svg(curves, svg_path, kind="bell")
print(f"wrote {csv_path}")
print(f"wrote {svg_path}")
