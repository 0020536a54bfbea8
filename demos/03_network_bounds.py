"""
Network bounds, hidden violations and the Born-rule cross-check
===============================================================

For a chain of two-qubit links the n-local bound is
b = sqrt(prod t_i1 + prod t_i2) over the two largest correlation singular
values of each link.  b_lin uses the raw links; b_seq the filtered ones.
A "hidden" violation is b_lin <= 1 < b_seq: the raw chain looks classical
until the filters are switched on.
"""

import numpy as np

from qnetfilter import (
    MeasurementSettings,
    NetworkFilterSpec,
    NetworkSpec,
    born_oracle,
    evaluate,
    lhs_at_settings,
    maximize_lhs,
    werner_state,
    x_state,
)

# Two singlets saturate the classical bound at sqrt(2) — the chain analogue
# of the CHSH maximum.
chain = NetworkSpec(links=(werner_state(1.0), werner_state(1.0)))
result = evaluate(chain)
print(f"two singlets: b_lin = {result.b_lin:.12f} (sqrt(2) = {np.sqrt(2):.12f})")

# An x-state pair that only violates after filtering with strength 0.77 on
# every qubit.
spec = NetworkSpec(
    links=(x_state(0.2, 0.1, 0.7, 0.15), x_state(0.86, 0.0, 0.14, 0.33)),
    filters=NetworkFilterSpec(eps_first=0.77, eps_last=0.77, middle=((0.77, 0.77),)),
)
result = evaluate(spec)
print(
    f"x-state pair: b_lin = {result.b_lin:.6f}, b_seq = {result.b_seq:.6f}, "
    f"success = {result.success_prob:.6f}, violation = {result.violation}"
)

# The bound is attainable: optimizing the four end-party directions reaches
# b_seq to optimizer precision.
value, settings = maximize_lhs(spec, seed=0)
print(f"maximized LHS = {value:.9f}  (gap to bound: {abs(value - result.b_seq):.2e})")

# And the fast LHS formula agrees with the Born-rule probabilities of every
# outcome of the post-selected measurement protocol.
oracle = born_oracle(spec, settings)
closed = lhs_at_settings(spec, settings)
print(f"closed form {closed:.12f} vs enumeration {oracle.lhs:.12f}")
print(f"max distribution deviation: {oracle.max_distribution_dev:.2e}")
