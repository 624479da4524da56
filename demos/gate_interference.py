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

from spinchain.chain import ChainSpec, LocalProcess, gate
from spinchain.protocols import ProcessEngine, SpinChain, fidelity_from_amplitudes


def main() -> None:
    ring = ChainSpec(100, "closed", 0.5, 1.0)
    flip = LocalProcess(15, 7.5, gate(0.0, 1.0))
    times = [7.5 + 0.25 * k for k in range(1, 19)]
    (gated,) = ProcessEngine(SpinChain(ring), flip).fidelity_rows(times, False)
    (free,) = (fidelity_from_amplitudes(u) for u in SpinChain(ring).rows(1, times))
    gain = (gated - free) / free
    at, site = np.unravel_index(np.argmax(gain), gain.shape)
    print("Bit-flip gate at site 15, t0 = 7.5, on the 100-site ring:")
    print(f"  best relative fidelity gain: {gain[at, site]:+.2%} at site {site + 1}, "
          f"t = {times[at]:.2f}")

    engine = ProcessEngine(SpinChain(ring), LocalProcess(10, 5.0, gate(0.0, 1.0)))
    (scattering,), (bound,) = (engine.split_rows([6.0], part) for part in ("scattering", "bound"))
    scattering, bound = float(np.sum(scattering)), float(np.sum(bound))
    print("\nWhere does the injected pair weight go? (gate at site 10, t0 = 5)")
    print(f"  scattering-continuum share of the averaged-fidelity weight: {scattering:.4f}")
    print(f"  interaction-bound share:                                    {bound:.4f}")
    print(f"  ratio: {scattering / bound:.1f}x in favour of the continuum")


if __name__ == "__main__":
    main()
