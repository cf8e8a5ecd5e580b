"""Classical scattering by specular ray tracing.

One ray per grid cell enters along +z, bounces specularly, and leaves; the
hit area is sigma_cl, the (1 - cos theta) weighted sum is the classical
resistance R_cl, and the trace's 64 x 64 histogram of the directions the
rays leave in estimates |f_cl|^2.
A flat-capped cylinder facing the flow reverses every ray, the largest
possible momentum transfer: R_cl = 2 sigma_cl.
"""

import numpy as np

from hardscatter import CappedCylinder, Ellipsoid, Sphere, trace

print("== unit sphere ==")
result = trace(Sphere(1.0), grid=1024)
print(f"  sigma_cl = {result.sigma_cl:.6f}   (pi = {np.pi:.6f})")
print(f"  R_cl     = {result.r_cl:.6f}   (pi: hard-sphere deflection integral)")
print(f"  cos-weighted direction integral = {result.r_cl_cos_weighted:+.2e} "
      "(vanishes: isotropic |f_cl|^2)")
print(f"  bounces: {result.max_bounces_seen} (convex)")

hist = trace(Sphere(1.0), grid=2048).histogram
mask = hist.counts >= 50
print(f"  |f_cl|^2 over {mask.sum()} bins: mean {hist.values[mask].mean():.4f}, "
      f"spread {np.abs(hist.values[mask] - 0.25).max() / 0.25:.2%} "
      "(a^2/4 = 0.25 exactly)")

print("\n== flat-capped cylinder, axis along the flow ==")
result = trace(CappedCylinder(1.0, 2.0), grid=1024)
print(f"  sigma_cl = {result.sigma_cl:.6f}")
print(f"  R_cl     = {result.r_cl:.6f}  = {result.r_cl / result.sigma_cl:.4f} "
      "* sigma_cl  (2 is the ceiling)")

print("\n== tilted ellipsoid shadow ==")
result = trace(Ellipsoid(1.5, 1.0, 0.7), grid=512)
print(f"  sigma_cl = {result.sigma_cl:.6f}   (pi * 1.5 = {np.pi * 1.5:.6f})")
