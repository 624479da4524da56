"""What an instantaneous occupation measurement does to state transfer.

Probing a site splits the walk into a survive branch (amplitude removed at the
probe) and a collapse branch (amplitude re-released from the probe).  Three
geometries on the 100-site open chain show the range of outcomes:

* probing the source immediately destroys up to a third of the averaged
  fidelity;
* probing site 20 just as the front arrives (t0 = 10) perturbs it mildly;
* probing the emptied source late (t0 = 10) does almost nothing.

For a flipped-spin input with the probe matched to the target (m = l,
t0 = l/2), the measurement converts destructive interference between the two
branches into incoherent arrival population: the peak population at the target
gains a nearly constant ~0.06-0.08 across half the chain.
"""
from __future__ import annotations

import numpy as np

from spinchain.chain import ChainSpec
from spinchain.protocols import SpinChain, _projective_parts, fidelity_change, measured


def main() -> None:
    chain = SpinChain(ChainSpec(100, "open", 0.5, 1.0))
    print("Extremes of the averaged fidelity change caused by one measurement:")
    for label, m, t0 in (
        ("probe source at t0 -> 0+", 1, 0.0),
        ("probe site 20 at t0 = 10", 20, 10.0),
        ("probe source at t0 = 10 ", 1, 10.0),
    ):
        times = [t0 + 0.05 * i for i in range(1, 1201)]
        blocks = fidelity_change(measured(chain, m, t0, times))
        worst = max(float(np.max(np.abs(block))) for block in blocks)
        print(f"  {label}: max |dF| = {worst:.4f}")

    print("\nMatched probe (m = l, t0 = l/2), flipped-spin input:")
    print(f"{'target l':>9} {'free peak pop.':>15} {'measured peak pop.':>19} {'gain':>7}")
    for l in range(40, 101, 10):
        m, t0 = l, l / 2.0
        best_free, best_meas = 0.0, 0.0
        for g, k in measured(chain, m, t0, [t0 + 0.05 * i for i in range(1, 1201)]):
            weight, _ = _projective_parts(g[:, l - 1], k[:, l - 1])
            best_free = max(best_free, float(np.max(np.abs(g[:, l - 1]) ** 2)))
            best_meas = max(best_meas, float(np.max(weight)))
        print(f"{l:>9} {best_free:>15.4f} {best_meas:>19.4f} {best_meas - best_free:>7.4f}")


if __name__ == "__main__":
    main()
