"""Conditional characteristic functions and their small-time combination.

H_n is the characteristic function of the position given exactly n direction
switches; all of them are radial and depend only on x = ct ||alpha||.  The
truncated Poisson mixture of H_0..H_3 gives the small-time approximation of
the unconditional characteristic function, checked here against Monte Carlo.
"""
import math

from markovflight import (
    FlightParams,
    FreqQuery,
    McConfig,
    estimate_cf,
    h0,
    h1,
    h2_series,
    h3_series,
    h_asymptotic,
    switch_tail_error,
)

p = FlightParams(c=5.0, lam=2.0)
t = 0.1

print("x = ct||alpha||   H0        H1        H2        H3")
for x in (0.3, 0.5, 1.0, 2.0, 3.0, 5.0):
    q = FreqQuery(alpha_norm=x / (p.c * t), t=t)
    print(
        f"  {x:<13.1f} {h0(q, p):9.6f} {h1(q, p):9.6f}"
        f" {h2_series(q, p):9.6f} {h3_series(q, p):9.6f}"
    )

# ordering is no accident: more switches concentrate the position near the
# origin, flattening the law and pushing its transform toward 1

alpha = 2.0
q = FreqQuery(alpha_norm=alpha, t=t)
approx = h_asymptotic(q, p)
est = estimate_cf(alpha, t, p, McConfig(samples=400_000, seed=20260814))

print(f"\nunconditional characteristic function at ||alpha|| = {alpha}, t = {t}")
print(f"  four-term approximation : {approx:.6f}")
print(f"  Monte Carlo (400k paths): {est.mean:.6f} +- {est.std_error:.6f}")

# the suite's tolerance: the first dropped Bessel terms of H2 and H3 bound the
# approximation's remainder by P2 x^2/24 + P3 x^2/30, and the n >= 4 terms add
# at most P{N >= 4}, as |H_n| <= 1
lt, x = p.lam * t, p.c * t * alpha
p2, p3 = (math.exp(-lt) * lt**n / math.factorial(n) for n in (2, 3))
bound = p2 * x**2 / 24 + p3 * x**2 / 30 + switch_tail_error(t, p)
print(f"  gap                     : {abs(approx - est.mean):.2e}"
      f"  (tolerance 3 se + {bound:.2e} = {3 * est.std_error + bound:.2e})")
