"""
A conjectured (2,2) rule: the sign of the Choi spectrum's margin
=================================================================

For a qubit channel, sort the eigenvalues of its Choi matrix in descending
order, divide them by their sum, and let m = λ1λ4 − λ2λ3. Conjecture: the
channel is realizable with a one-qubit mixed environment exactly when
m ≥ 0. It is a conjecture, backed by searches like the one below and by no
proof, so m decides nothing in the package.

This demo walks the Pauli channels ρ ↦ Σ q_k σ_k ρ σ_k whose sorted weights
q1 ≥ q2 ≥ q3 ≥ q4 > 0 lie on a grid of tenths, and prints m next to the
search's verdict and best residual. A Pauli channel's Choi eigenvalues are
2q, so here m = q1q4 − q2q3.
"""

import numpy as np

from envchan import Channel, SearchConfig, search_mixed_env_realization

PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
config = SearchConfig(restarts=10)


def spectral_margin(channel):
    lam = np.linalg.eigvalsh(channel.choi.matrix)[::-1]
    lam = lam / lam.sum()
    return lam[0] * lam[3] - lam[1] * lam[2]


print("weights (tenths)   margin m   verdict                 best residual")
grid = [
    (a, b, c, 10 - a - b - c)
    for a in range(1, 10) for b in range(1, a + 1) for c in range(1, b + 1)
    if 1 <= 10 - a - b - c <= c
]
for tenths in grid:
    q = np.array(tenths) / 10
    channel = Channel.from_kraus([np.sqrt(w) * s for w, s in zip(q, PAULIS)])
    result = search_mixed_env_realization(channel, config)
    print(f"{str(tenths):17s} {spectral_margin(channel):+9.4f}   "
          f"{result.verdict:22s}  {result.best_residual:.2e}")

print("\nm = 0 is the conjectured boundary.")
print(result.note)
