"""Small-wavenumber cross sections and the forward-vs-backscattering gap.

At k = 0 scattering off a hard body is isotropic with sigma = sigma_T =
4 pi C^2.  The order-k^2 gap sigma - sigma_T = d2 k^2 is computed two ways
(from the density moments and from the surface functionals) and checked
against the capacity-volume lower bound (2/3) C V.
"""

import numpy as np

from hardscatter import (
    Ellipsoid,
    Sphere,
    amplitude_expansion,
    cross_sections_lowfreq,
    make_body,
    solve_expansion_densities,
)

for name, body in (("unit sphere", Sphere(1.0)),
                   ("ellipsoid (2,1,1)", Ellipsoid(2.0, 1.0, 1.0))):
    mesh = make_body(body, 4)
    amp = amplitude_expansion(solve_expansion_densities(mesh))
    print(f"== {name} ==")
    for key, value in amp.report_dict().items():
        print(f"  {key:22s} {value}")

    print("  k-sweep inside the trust region (k * diameter <= 0.5):")
    for k_diam in (0.02, 0.1, 0.25, 0.5):
        k = k_diam / mesh.diameter
        sigma, sigma_t = cross_sections_lowfreq(amp, k)
        print(f"    k={k:<8.4f} sigma={sigma:.6f}  sigma_T={sigma_t:.6f}  "
              f"gap/k^2 = {(sigma - sigma_t) / k**2:.4f}")
    print()

print("unit-sphere reference: gap coefficient d2 = 8 pi / 3 =",
      f"{8 * np.pi / 3:.6f}")
