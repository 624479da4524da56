"""A local bit-flip gate can *increase* transfer fidelity.

Unlike a measurement, a mid-evolution local unitary keeps the state pure: the
injected companion excitation interferes coherently with the original walk.
On a 100-site ring with the gate at site 15 applied at t0 = 7.5, the averaged
fidelity just behind the gate rises by over 20% relative to free evolution.

The gate also populates two-excitation pair states.  Splitting the pair
propagator into its interaction-bound band and the scattering continuum shows
the scattering states carry most of the injected weight.
"""
from __future__ import annotations

import numpy as np

from spinchain.chain import ChainSpec, LocalGate
from spinchain.green1 import reduced_profile
from spinchain.protocols import UnitaryQdpEngine, fidelity_from_amplitudes


def main() -> None:
    ring = ChainSpec(100, "closed", 0.5, 1.0)
    gate = LocalGate(15, 7.5, 0.0, 1.0)

    best = (-1.0, 0, 0.0)
    engine = UnitaryQdpEngine(ring, gate)
    for k in range(1, 19):
        t = 7.5 + 0.25 * k
        free = fidelity_from_amplitudes(reduced_profile(1, t, ring))
        gated = engine.fidelity_row(t)
        gain = (gated - free) / free
        idx = int(np.argmax(gain))
        if gain[idx] > best[0]:
            best = (float(gain[idx]), idx + 1, t)
    print("Bit-flip gate at site 15, t0 = 7.5, on the 100-site ring:")
    print(f"  best relative fidelity gain: {best[0]:+.2%} at site {best[1]}, t = {best[2]:.2f}")

    probe = LocalGate(10, 5.0, 0.0, 1.0)
    engine = UnitaryQdpEngine(ring, probe)
    scattering = float(np.sum(engine.split_row(6.0, "scattering")))
    bound = float(np.sum(engine.split_row(6.0, "bound")))
    print("\nWhere does the injected pair weight go? (gate at site 10, t0 = 5)")
    print(f"  scattering-continuum share of the averaged-fidelity weight: {scattering:.4f}")
    print(f"  interaction-bound share:                                    {bound:.4f}")
    print(f"  ratio: {scattering / bound:.1f}x in favour of the continuum")


if __name__ == "__main__":
    main()
