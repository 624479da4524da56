"""Golden-file records: JSON {inputs, convention hash, values, tolerance}.

``tools/regenerate_goldens.py`` writes the files under ``tests/golden/``
through ``save_golden``, and the tests read them back through
``load_golden`` and ``decode_complex``. A complex value is stored as its
[re, im] pair, so a real value whose last axis has length 2 would load back
as complex; ``save_golden`` refuses one. ``transfer_fidelity`` is the
per-state fidelity the generator scores its dense site RDMs with.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from spinchain.chain import conventions_hash


def transfer_fidelity(x: float, y: complex, alpha: complex, beta: complex) -> float:
    """Overlap of site RDM (x, y) with the target qubit state (alpha, beta).

    F = |alpha|^2 (1 - x) + |beta|^2 x + 2 Re(alpha conj(beta) y).
    """
    return float(
        abs(alpha) ** 2 * (1.0 - x)
        + abs(beta) ** 2 * x
        + 2.0 * np.real(alpha * np.conj(beta) * y)
    )


def _encode(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return [_encode(x) for x in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(x) for x in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def save_golden(path: str | pathlib.Path, *, inputs: dict, values: dict, tolerance: float) -> None:
    """Freeze oracle-derived values with their inputs and the convention fingerprint."""
    for key, value in values.items():
        shape = np.shape(value)
        if shape and shape[-1] == 2 and not np.iscomplexobj(value):
            raise ValueError(
                f"golden value {key!r} is real with a last axis of length 2, "
                "which would load back as complex"
            )
    record = {
        "inputs": inputs,
        "convention_hash": conventions_hash(),
        "tolerance": tolerance,
        "values": {k: _encode(v) for k, v in values.items()},
    }
    pathlib.Path(path).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def load_golden(path: str | pathlib.Path) -> dict:
    record = json.loads(pathlib.Path(path).read_text())
    if record.get("convention_hash") != conventions_hash():
        raise ValueError(
            f"golden file {path} was frozen under convention hash "
            f"{record.get('convention_hash')}, current is {conventions_hash()}; "
            "regenerate with tools/regenerate_goldens.py"
        )
    return record


def decode_complex(encoded):
    """Turn [re, im] pairs (possibly nested) back into complex values."""
    if isinstance(encoded, list):
        if len(encoded) == 2 and all(isinstance(x, (int, float)) for x in encoded):
            return complex(encoded[0], encoded[1])
        return [decode_complex(x) for x in encoded]
    return encoded
