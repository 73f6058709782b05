"""Monte-Carlo tail of lambda_max of a dependent matrix sum against the
certified bound.

The model: X_i = tau(S_i) * eps_i * D with S a 2-state mixing chain, fair
signs eps, and a fixed symmetric template D.  The variance proxy v^2 is
available in closed form and the mixing rate c is certified at every lag
from the chain's d̄, so every ingredient of the bound is reproducible.
"""

import numpy as np

from depbernstein import bounds, mixing, models

chain = mixing.MarkovChain.two_state(0.25, 0.25)
spec = models.ModelSpec(
    kind="contraction", d=2, chain=chain,
    D=np.diag([1.0, -0.5]), tau_map=np.array([1.0, -1.0]),
)
n, trials = 64, 2000
x_grid = np.linspace(2.0, 0.9 * n * spec.M, 8)
report = models.run_tail_experiment(spec, n, trials=trials, x_grid=x_grid, seed=1)
inputs = bounds.BernsteinInputs(**report.inputs)  # the inputs of the report's own bound
print(f"model: contraction, d = {spec.d}, n = {n}, trials = {trials}")
print(f"inputs: M = {inputs.M}, v = {inputs.v:.4f}, c = {inputs.c:.4f}\n")

print(f"{'x':>8} {'p_hat':>10} {'99% CI':>23} {'certified':>12}")
for (x, p_hat, lo, hi), (_, b) in zip(report.tail_grid, report.bound_curve):
    print(f"{x:8.1f} {p_hat:10.4f} [{lo:9.4f}, {hi:9.4f}] {b:12.4e}")

print(f"\nmean lambda_max = {report.mean_lambda_max:.3f} "
      f"+- {report.mean_stderr:.3f}")
print(f"expectation ceiling = {bounds.expectation_bound(inputs):.1f}")
