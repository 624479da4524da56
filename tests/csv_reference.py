"""Reference grid CSV formatter for the tests: one f-string per cell.

``protocols.grid_csv`` writes every value with numpy integer arithmetic and
leaves Python's formatting to the few cells it cannot settle. This module
keeps the plain per-cell loop whose text it must match byte for byte.
"""
from __future__ import annotations

import numpy as np


def grid_csv_reference(l_values, t_values, values: np.ndarray) -> str:
    """CSV rows l,t,value with time as the outer loop, 12 significant digits."""
    lines = ["l,t,value"]
    for j, t in enumerate(t_values):
        for i, l in enumerate(l_values):
            lines.append(f"{l},{t:.11e},{values[i, j]:.11e}")
    return "\n".join(lines) + "\n"
