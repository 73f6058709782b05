"""Exact mixing coefficients of a finite Markov chain, its two geometric
rates (the window estimate and the certified rate that the bound uses), and
a maximal-coupling check that the beta coefficient really is the least
achievable mismatch probability."""

import math

import numpy as np

from depbernstein import mixing

chain = mixing.MarkovChain.two_state(0.25, 0.25)
print("2-state chain with flip probability 1/4 (stationary pi = [1/2, 1/2])")
print(f"{'k':>3} {'beta_k':>12} {'0.5^(k+1)':>12}")
lags = np.arange(1, 11)
for k, bk in zip(lags.tolist(), mixing.beta_k_exact(chain, lags).tolist()):
    print(f"{k:3d} {bk:12.3e} {0.5 ** (k + 1):12.3e}")

fitted = mixing.fit_geometric_rate(chain, k_max=50)
certified = mixing.certified_geometric_rate(chain)
print(f"\nwindow estimate  c = {fitted:.6f} (beta_k <= exp(-c (k-1)) on k = 2..50 only)")
print(f"certified rate   c = {certified:.6f} (at every k; log 2 = {math.log(2.0):.6f})")
lags = np.array([2, 10, 50, 51, 200])
for k, bk in zip(lags.tolist(), mixing.beta_k_exact(chain, lags).tolist()):
    print(f"  k = {k:3d}: log beta_k = {math.log(bk):9.3f}, window envelope"
          f" {-fitted * (k - 1):9.3f}, certified {-certified * (k - 1):9.3f}")

print("\nmaximal coupling of (S_0, S_1):")
joint = chain.joint_law(1)
beta = mixing.beta_from_joint(joint)
x, y, ystar = mixing.BerbeeCoupler(joint, seed=7).sample(200_000)
print(f"  beta coefficient          = {beta:.4f}")
print(f"  empirical P(Y != Ystar)   = {np.mean(y != ystar):.4f}")
print(f"  Ystar marginal of state 0 = {np.mean(ystar == 0):.4f} "
      f"(target {joint.y_marginal[0]:.4f})")
corr = np.corrcoef(x, ystar)[0, 1]
print(f"  corr(X, Ystar)            = {corr:+.4f} (target 0)")
