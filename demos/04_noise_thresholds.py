"""
Noise thresholds with and without filters
=========================================

Send both qubits of each link through a noise channel and ask how much noise
the violation survives.  The crossing point of the bound through 1 is found
by bisection; filters shift it.
"""

import numpy as np

from qnetfilter import (
    NetworkFilterSpec,
    NetworkSpec,
    amplitude_damping,
    apply_channel,
    b_lin,
    b_seq,
    bisect,
    pure_theta_state,
)

theta = 0.55
gamma1 = 0.21
first = apply_channel(pure_theta_state(theta), amplitude_damping(gamma1), sides="both")
filters = NetworkFilterSpec(eps_first=0.78, eps_last=0.79, middle=((0.22, 0.1),))


def bounds_at(gamma2):
    second = apply_channel(pure_theta_state(theta), amplitude_damping(gamma2), sides="both")
    raw = b_lin([first, second])
    filtered, _ = b_seq(NetworkSpec(links=(first, second), filters=filters))
    return raw, filtered


print(f"theta = {theta}, damping gamma1 = {gamma1} on link 1, gamma2 sweeps link 2")
print()
print("gamma2    b_lin    b_seq")
for gamma2 in np.linspace(0.0, 0.7, 8):
    raw, filtered = bounds_at(float(gamma2))
    marks = ("*" if raw > 1 else " ") + ("*" if filtered > 1 else " ")
    print(f"{gamma2:5.2f}    {raw:.4f}   {filtered:.4f}  {marks}")

print()
raw_star = bisect(lambda g: bounds_at(g)[0] - 1.0, 0.0, 0.9, xtol=1e-4)
seq_star = bisect(lambda g: bounds_at(g)[1] - 1.0, 0.0, 0.9, xtol=1e-4)
print(f"unfiltered threshold gamma2* = {raw_star:.4f}")
print(f"filtered threshold   gamma2* = {seq_star:.4f}")
print("the filters buy", round(seq_star - raw_star, 4), "of extra damping tolerance")
