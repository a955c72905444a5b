"""
A channel that no small environment can realize
================================================

The collapse family: every basis state but the last maps to the same
pure state |0'><0'|, the last basis state maps to a truly mixed state,
and superpositions decohere completely. Each member is a perfectly valid
channel — an explicit two-dimensional auxiliary environment implements
it — yet no unitary on initial (x) final alone, with the final system
started in ANY fixed state, can produce it. The certificate below walks
the impossibility argument rank by rank.
"""

import numpy as np

from envchan import (
    CounterexampleParams,
    apply,
    basis_state,
    build_counterexample,
    certify_nonrealizable,
    channel_from_dilation,
    distance,
    implementing_unitary,
    projector,
)

# A qutrit-to-qubit member: |0>,|1> collapse to |0'>, |2> becomes the
# maximally mixed qubit.
params = CounterexampleParams(3, 2, np.diag([0.5, 0.5]))
channel = build_counterexample(params)

print("images of the basis states:")
for i in range(3):
    image = apply(channel, projector(basis_state(3, i)))
    print(f"  |{i}><{i}| ->")
    print(np.round(image.real, 6))

# Superpositions with the last basis state decohere totally: no cross
# terms survive, only the weighted mixture of the endpoint images.
psi = (basis_state(3, 0) + basis_state(3, 2)) / np.sqrt(2)
print("(|0> + |2>)/sqrt(2) ->")
print(np.round(apply(channel, projector(psi)).real, 6))

# The family IS realizable with a small auxiliary environment: a joint
# unitary on initial (x) final (x) C^2 does it.
dilation = implementing_unitary(3, 2, 1 / np.sqrt(2), 1 / np.sqrt(2))
print("\nauxiliary-environment dilation reproduces the channel, distance:",
      distance(channel_from_dilation(dilation), channel))

# But with the final system as the ONLY environment, no initialization
# works. The certificate records each deduction.
certificate = certify_nonrealizable(params)
print("\nclaim:", certificate.claim)
for step in certificate.narrative:
    print("  -", step)

# The d = 2 case needs a finer argument (counting alone is silent there);
# the certificate switches branches automatically.
qubit_params = CounterexampleParams(2, 2, np.diag([0.5, 0.5]))
qubit_cert = certify_nonrealizable(qubit_params)
print("\nd = 2 claim:", qubit_cert.claim,
      "(excluded ranks:", str(qubit_cert.excluded_ranks) + ")")
