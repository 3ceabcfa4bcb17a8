"""Online forecasting with data-driven clipping, on a sequence whose
amplitude jumps mid-stream.

Shows the dyadic threshold staircase reacting to the jump, the inverse
temperature tracking 1/(8 B^2), and how the adaptive forecaster compares
to a ridge baseline that gets no guarantee.

Run:  python3 demos/02_online_forecasting.py
"""

import numpy as np

from seqsew.datagen import DictionarySpec, NoiseFamily, ScenarioSpec, gen_individual_sequence
from seqsew.forecasters import ridge_baseline, run_protocol, seqsew_adaptive
from seqsew.posterior import BackendConfig

spec = ScenarioSpec(
    T=80,
    d=1,
    s=1,
    u_true=(1.5,),
    design="iid_uniform",
    design_scale=2.0,
    noise=NoiseFamily.bounded(0.2),
    seed=5,
    dictionary=DictionarySpec(kind="coordinate", d=1),
    amplitude_script=((50, 6.0),),  # outcomes 6x larger from round 50 on
)
sequence = gen_individual_sequence(spec)

backend = BackendConfig(backend="quadrature", grid_points_per_dim=513)
adaptive = run_protocol(seqsew_adaptive(1, tau=0.2, backend=backend), sequence)
ridge = run_protocol(ridge_baseline(1, regularization=1.0), sequence)

print("=== threshold staircase (rounds where B changed) ===")
prev = None
for r in adaptive.records:
    if r.B != prev:
        eta = f"{r.eta:.6f}" if np.isfinite(r.eta) else "inf"
        print(f"round {r.t:3d}: B = {r.B:8.3f}  (B^2 = {r.B**2:10.1f})  eta = {eta}")
        prev = r.B
print("each jump doubles B^2 at least once; eta is 1/(8 B^2) throughout.")

print("\n=== cumulative square loss ===")
for t in (25, 49, 55, 80):
    print(
        f"after round {t:3d}: adaptive = {adaptive.records[t - 1].cumloss:10.2f}   "
        f"ridge = {ridge.records[t - 1].cumloss:10.2f}"
    )
print("\nthe jump at round 50 costs both forecasters, but the adaptive one")
print("re-tunes its clipping within a couple of rounds and keeps its regret")
print("guarantee; the ridge baseline has no such certificate.")
