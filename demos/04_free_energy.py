"""Free-energy descent: every belief update lowers a single objective.

Within one time step the engine sweeps the beliefs until they settle, at
most `iterations_per_step` times; each sweep re-evaluates the free energy
of the step's variables (x[t+1], the coefficients and the two noise
precisions), an upper bound on the surprise -log p(y[t] | past) in nats.
In the linear model every sweep is exact coordinate descent, so the
within-step trace is non-increasing to machine precision. y is a density,
so the surprise, and the bound, can fall below zero.
"""

import numpy as np

from duffingid import PhysicalParams, PriorConfig, identify, simulate

DELTA = 0.1
params = PhysicalParams(m=1.0, c=0.5, a=2.0, b=0.0, tau=10.0, xi=1e6)

rng = np.random.default_rng(7)
u = 0.1 * np.sin(2 * np.pi * 0.7 * np.arange(300) * DELTA) \
    + rng.normal(0, 1e-2, 300)
data, _ = simulate(params, u, DELTA, seed=7)

# moderate noise priors keep the free-energy terms at order one, so the
# tiny within-step decreases are visible above float rounding
cfg = PriorConfig(model_mode="larx", iterations_per_step=8,
                  state0_cov=1e-4, a0_gamma=1.0, b0_gamma=1e-4,
                  a0_xi=10.0, b0_xi=1e-5, trace_free_energy=True)
beliefs, reports = identify(data, cfg)

print("within-step free-energy trace (first update of selected steps):")
for t in (0, 4, 49, 298):
    trace = reports[t].free_energy_trace
    drops = -np.diff(trace)
    print(f"  step {t:3d}: start {trace[0]: .6f}  end {trace[-1]: .6f}  "
          f"drops {np.array2string(drops, formatter={'float': lambda v: f'{v:.1e}'})}")

worst = max(np.diff(r.free_energy_trace).max() for r in reports)
print(f"\nworst within-step increase across {len(reports)} steps: "
      f"{worst:.2e}  (coordinate descent: never above rounding noise)")

fe = np.array([r.free_energy for r in reports])
print("\nper-step free energy (bound on surprise, nats) falls as the model "
      "learns:")
for a, b in ((0, 50), (50, 150), (150, 299)):
    print(f"  steps {a:3d}-{b:3d}: mean {fe[a:b].mean(): .4f}")
