"""
Local filtering of a single link
================================

A link filter applies diag(eps, 1) to each qubit and renormalises.  The
post-selection succeeds with probability tr(F rho F'), and filtering trades
success probability for correlation strength: weakly entangled directions
get amplified relative to the dominant one.
"""

import numpy as np

from qnetfilter import (
    apply_link_filter,
    correlation_singular_values,
    filtered_bell_diagonal,
    grud_state,
)

rho = grud_state(0.1, 0.23)
print("raw singular values:     ", correlation_singular_values(rho))

for eps in (1.0, 0.8, 0.5, 0.3):
    filtered, success = apply_link_filter(rho, eps, eps)
    svs = correlation_singular_values(filtered)
    print(
        f"eps = {eps:4.2f}:  svs = [{svs[0]:.4f} {svs[1]:.4f} {svs[2]:.4f}]"
        f"   success = {success:.4f}"
    )

# For states with null Bloch vectors there is a closed-form filter update.
# Compare it against the generic conjugation path on a Bell-diagonal state.
print()
w = np.array([0.9, -0.5, 0.4])
closed_w, closed_success = filtered_bell_diagonal(w, 0.6, 0.85)
print("Bell-diagonal w =", w)
print("closed-form update:  w'' =", closed_w, "  success =", round(closed_success, 6))

paulis = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
rho_bell = 0.25 * (np.eye(4) + sum(w[i] * np.kron(paulis[i], paulis[i]) for i in range(3)))
generic, generic_success = apply_link_filter(rho_bell, 0.6, 0.85)
diag = [np.real(np.trace(generic @ np.kron(paulis[i], paulis[i]))) for i in range(3)]
print("generic conjugation: w'' =", np.round(diag, 12), "  success =", round(generic_success, 6))
