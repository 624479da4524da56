"""Where the Bessel amplitudes J_n(z) of the free propagator end, and for which z.

The one-magnon amplitude over n sites is i^n J_n(z), z = 4*J*t. Past the
turning point |n| = z it decays faster than exponentially, and beyond
``truncation_order(z)`` = z + 9*z^(1/3) + 10 it is below ~1e-12: that is
how far a front can have travelled, and how far a chain must reach for no
front to come back from its far end.

``MAX_ARG`` bounds z. The propagator's phases z*cos(p) are rounded by about
z*1e-16, so by about 1e-11 at z = ``MAX_ARG``; larger arguments are refused.
"""
from __future__ import annotations

import math

MAX_ARG = 100_000.0


def truncation_order(y: float) -> int:
    """Order beyond which J_n(y) is negligible (< ~1e-12): y + 9*y^(1/3) + 10."""
    return int(math.ceil(y + 9.0 * y ** (1.0 / 3.0))) + 10
