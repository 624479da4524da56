"""Regenerate the frozen reference files under tests/golden/.

Every value here is produced by the dense exact-diagonalization routes in
``spinchain.oracle`` (plus raw protocol linear algebra on those routes) --
never by the analytic kernels under test.  The test suite then compares the
analytic propagators and protocol engines against these files, so the two
implementation routes stay independent end to end.

Run from the repository root:

    python3 tools/regenerate_goldens.py

Files are rewritten in place through the record codec of
``tests/golden_io.py``; they embed the convention fingerprint and are refused
by the loader if the conventions change.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

from spinchain.chain import MEASUREMENT, ChainSpec, gate, reduced_phase
from spinchain.oracle import (
    DenseState,
    apply_local,
    bound_band_projector,
    build_hamiltonian,
    encoded_state,
    evolve,
    make_basis,
    rdm_site,
)

TESTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests"
GOLDEN_DIR = TESTS_DIR / "golden"
sys.path.insert(0, str(TESTS_DIR))
from golden_io import save_golden, transfer_fidelity  # noqa: E402


def _reduced(spec: ChainSpec, t: float, amplitudes: np.ndarray) -> np.ndarray:
    """Strip the global reference phase so values match the reduced convention."""
    return amplitudes / reduced_phase(spec, t)


def one_magnon_profiles() -> None:
    """Reduced one-magnon amplitudes from site 1 on 12-site chains."""
    times = [0.5, 1.0, 2.0, 5.0]
    values: dict[str, object] = {}
    for boundary in ("open", "closed"):
        spec = ChainSpec(12, boundary, 0.5, 1.0)
        ham = build_hamiltonian(spec, "one_excitation")
        basis = ham.basis
        seed = np.zeros(basis.dim, dtype=complex)
        seed[0] = 1.0
        for t in times:
            evolved = evolve(DenseState(seed, basis), ham, t)
            values[f"{boundary}_t{t}"] = _reduced(spec, t, evolved.vector)
    save_golden(
        GOLDEN_DIR / "green1_n12.json",
        inputs={"n": 12, "j": 0.5, "delta": 1.0, "source": 1, "times": times},
        values=values,
        tolerance=1e-12,
    )


def split_propagator_rows() -> None:
    """Survive/found rows of the measurement-split propagator, dense route."""
    m, t0 = 6, 1.5
    times = [2.5, 4.0]
    values: dict[str, object] = {}
    for boundary in ("open", "closed"):
        spec = ChainSpec(12, boundary, 0.5, 1.0)
        ham = build_hamiltonian(spec, "one_excitation")
        basis = ham.basis
        seed = np.zeros(basis.dim, dtype=complex)
        seed[0] = 1.0
        mid = evolve(DenseState(seed, basis), ham, t0)
        survive, found = (apply_local(k, m, mid) for k in MEASUREMENT)
        for t in times:
            h_row = evolve(survive, ham, t - t0).vector
            k_row = evolve(found, ham, t - t0).vector
            values[f"{boundary}_h_t{t}"] = _reduced(spec, t, h_row)
            values[f"{boundary}_k_t{t}"] = _reduced(spec, t, k_row)
    save_golden(
        GOLDEN_DIR / "hk_n12.json",
        inputs={"n": 12, "j": 0.5, "delta": 1.0, "source": 1, "m": m, "t0": t0, "times": times},
        values=values,
        tolerance=1e-12,
    )


def measurement_fidelities() -> None:
    """Per-state transfer fidelities after the measurement protocol, dense branch route.

    The unread measurement leaves the mixture of its two branches, so each
    site's RDM entries are the sums over the separately evolved branches.
    """
    spec = ChainSpec(12, "open", 0.5, 1.0)
    m, t0 = 6, 1.5
    times = [2.5, 5.0]
    sites = [1, 3, 6, 9, 12]
    states = {
        "balanced": (complex(1 / np.sqrt(2)), complex(1 / np.sqrt(2))),
        "tilted": (complex(np.sqrt(0.3)), np.sqrt(0.7) * np.exp(0.4j)),
    }
    ham = build_hamiltonian(spec, "vacuum_one_two")
    basis = ham.basis
    values: dict[str, object] = {}
    for label, (alpha, beta) in states.items():
        psi0 = encoded_state(alpha, beta, basis)
        branches = [apply_local(k, m, evolve(psi0, ham, t0)) for k in MEASUREMENT]
        for t in times:
            evolved = [evolve(b, ham, t - t0) for b in branches]
            fids = []
            for l in sites:
                x, y = map(sum, zip(*(rdm_site(b, l) for b in evolved)))
                fids.append(transfer_fidelity(x, y, alpha, beta))
            values[f"{label}_t{t}"] = np.array(fids)
    save_golden(
        GOLDEN_DIR / "projective_n12.json",
        inputs={
            "n": 12,
            "boundary": "open",
            "j": 0.5,
            "delta": 1.0,
            "m": m,
            "t0": t0,
            "times": times,
            "sites": sites,
            "states": {k: [v[0].real, v[0].imag, v[1].real, v[1].imag] for k, v in states.items()},
        },
        values=values,
        tolerance=1e-12,
    )


def gate_protocol_channels() -> None:
    """Gate-protocol channel amplitudes and fidelities, dense combined-sector route."""
    spec = ChainSpec(12, "closed", 0.5, 1.0)
    m, t0, t = 4, 2.0, 4.0
    alpha, beta = complex(np.sqrt(0.3)), complex(np.sqrt(0.7))
    sites = [1, 4, 8]
    gates = {
        "hadamard": (complex(1 / np.sqrt(2)), complex(1 / np.sqrt(2))),
        "flip": (0j, 1 + 0j),
    }
    ham = build_hamiltonian(spec, "vacuum_one_two")
    basis = ham.basis
    n = spec.n
    values: dict[str, object] = {}
    for label, (gamma, delta) in gates.items():
        psi0 = encoded_state(alpha, beta, basis)
        mid = evolve(psi0, ham, t0)
        (operator,) = gate(gamma, delta)
        final = evolve(apply_local(operator, m, mid), ham, t - t0)
        reduced = _reduced(spec, t, final.vector)
        values[f"{label}_vacuum"] = np.array([reduced[0]])
        values[f"{label}_one"] = reduced[1 : 1 + n]
        values[f"{label}_two"] = reduced[1 + n :]
        fids = [transfer_fidelity(*rdm_site(final, l), alpha, beta) for l in sites]
        values[f"{label}_fidelity"] = np.array(fids)
    save_golden(
        GOLDEN_DIR / "unitary_n12.json",
        inputs={
            "n": 12,
            "boundary": "closed",
            "j": 0.5,
            "delta": 1.0,
            "m": m,
            "t0": t0,
            "t": t,
            "alpha": [alpha.real, alpha.imag],
            "beta": [beta.real, beta.imag],
            "sites": sites,
            "gates": {k: [v[0].real, v[0].imag, v[1].real, v[1].imag] for k, v in gates.items()},
            "pair_order": "ordered pairs (i, j), i < j, lexicographic",
        },
        values=values,
        tolerance=1e-10,
    )


def pair_propagator_columns() -> None:
    """Two-magnon ring propagator columns from a dense pair evolution at N=12."""
    spec = ChainSpec(12, "closed", 0.5, 1.0)
    ham = build_hamiltonian(spec, "two_excitation")
    basis = ham.basis
    source = (3, 7)
    times = [1.0, 2.5]
    seed = np.zeros(basis.dim, dtype=complex)
    seed[basis.pair_index(*source)] = 1.0
    state = DenseState(seed, basis)
    values: dict[str, object] = {}
    for t in times:
        out = evolve(state, ham, t).vector
        values[f"t{t}"] = _reduced(spec, t, out)
    save_golden(
        GOLDEN_DIR / "ring2_n12.json",
        inputs={
            "n": 12,
            "boundary": "closed",
            "j": 0.5,
            "delta": 1.0,
            "source_pair": list(source),
            "times": times,
            "pair_order": "ordered pairs (i, j), i < j, lexicographic",
        },
        values=values,
        tolerance=1e-12,
    )


def line_kernel_targets() -> None:
    """Ring amplitudes at N=40 from one central source pair to nearby targets.

    ``green2`` reads these off the exact ring kernel, so it must match them to
    rounding level.
    """
    spec = ChainSpec(40, "closed", 0.5, 1.0)
    ham = build_hamiltonian(spec, "two_excitation")
    basis = ham.basis
    source = (19, 22)
    targets = [(19, 22), (18, 23), (20, 21), (17, 24), (21, 26), (15, 20), (16, 25)]
    times = [1.0, 2.0]
    seed = np.zeros(basis.dim, dtype=complex)
    seed[basis.pair_index(*source)] = 1.0
    state = DenseState(seed, basis)
    values: dict[str, object] = {}
    for t in times:
        out = _reduced(spec, t, evolve(state, ham, t).vector)
        values[f"t{t}"] = np.array([out[basis.pair_index(*pair)] for pair in targets])
    save_golden(
        GOLDEN_DIR / "green2_line_n40.json",
        inputs={
            "n": 40,
            "boundary": "closed",
            "j": 0.5,
            "delta": 1.0,
            "source_pair": list(source),
            "targets": [list(p) for p in targets],
            "times": times,
        },
        values=values,
        tolerance=1e-12,
    )


def bound_band_census() -> None:
    """Paired-band census and t=0 bound weights from the dense momentum-sector scan."""
    counts = {}
    for n in (12, 20, 40):
        spec = ChainSpec(n, "closed", 0.5, 1.0)
        counts[f"count_n{n}"] = np.array([float(bound_band_projector(spec).count)])
    spec = ChainSpec(40, "closed", 0.5, 1.0)
    result = bound_band_projector(spec)
    basis = make_basis("two_excitation", 40)
    weights = []
    for sep in (1, 2, 3):
        pair = (19, 19 + sep)
        seed = np.zeros(basis.dim, dtype=complex)
        seed[basis.pair_index(*pair)] = 1.0
        projected = result.projector @ seed
        weights.append(float(np.vdot(projected, projected).real))
    counts["bound_diag_weights_n40"] = np.array(weights)
    save_golden(
        GOLDEN_DIR / "bound_census.json",
        inputs={
            "sizes": [12, 20, 40],
            "j": 0.5,
            "delta": 1.0,
            "weight_pairs": [[19, 20], [19, 21], [19, 22]],
        },
        values=counts,
        tolerance=5e-3,
    )


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    one_magnon_profiles()
    split_propagator_rows()
    measurement_fidelities()
    gate_protocol_channels()
    pair_propagator_columns()
    line_kernel_targets()
    bound_band_census()
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")


if __name__ == "__main__":
    main()
