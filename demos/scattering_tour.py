"""A short tour of the lightlike scattering pipeline on the product
cylinder over the unit disk: shoot rays, connect boundary pairs, and
watch the defining function change sign across the lightlike locus.

Run with: python3 demos/scattering_tour.py
"""

import numpy as np

from lorlab import (connecting_geodesics_batch, michel_check, scatter,
                    scenarios)

pd = scenarios.build("product_disk")

print("== scattering a single lightlike entry ==")
x = np.array([0.0, 1.0, 0.0])
v_proj = np.array([1.0, 0.0, 0.4])
rec = scatter(pd.metric, pd.entry_surface, pd.exit_surface, x, v_proj)
print(f"entry  x = {x}, v' = {v_proj}")
print(f"exit   y = {rec.y.round(6)}, w' = {rec.w_proj.round(6)}")
print(f"parameter travel = {rec.travel:.6f}")
print(f"speed drift along the ray = {rec.path.speed_drift(pd.metric):.2e}")

print()
print("== the defining function r on a time sweep ==")
print("r is the energy of the [0,1]-connector: negative for timelike")
print("pairs, zero on the lightlike locus, positive for spacelike.")
y_sp = np.array([-0.5, np.sqrt(3) / 2])
rho = float(np.linalg.norm(y_sp - x[1:]))
print(f"chord length rho = {rho:.6f}")
svals = np.linspace(0.5, 2.5, 6)
conns = connecting_geodesics_batch(pd.metric, np.tile(x, (len(svals), 1)),
                                   [[s, *y_sp] for s in svals])
for s, c in zip(svals, conns):
    closed = 0.5 * (rho ** 2 - s ** 2)
    print(f"  s = {s:.2f}  r = {c.energy:+.6f}  closed form {closed:+.6f}"
          f"  ({c.causal.tag})")

print()
print("== graph property of r on the lightlike locus ==")
print("Minus the tangential gradient of r at the entry shoots the ray")
print("that exits at y with covector matching the gradient at y.")
pos, cov = michel_check(pd.metric, pd.entry_surface, pd.exit_surface,
                        x, rec.y)
print(f"position residual  {pos:.2e}")
print(f"covector residual  {cov:.2e}")
