"""Two-magnon propagators on long chains: scattering phase, bound states, split kernels.

The two-magnon Green's function on ordered site pairs splits into a bound-state
part (exponentially confined pair, implemented at delta = 1) and a scattering
part (two asymptotically free magnons with a contact phase shift). Both are
oscillatory integrals over the infinite-chain spectral measure, evaluated with
panelized Gauss-Legendre quadrature at two resolutions so every value carries
an error estimate. "Reduced" kernels carry e^{+i*eps0*t} exactly like green1;
the public operations return full amplitudes.

Conventions (fixed by the calibration gate and the dense-matrix oracle):

* scattering wavefunction psi = e^{i(p1 x1 + p2 x2)} - e^{i theta} e^{i(p1 x2 + p2 x1)}
  with tan(theta/2) = Delta sin((p1-p2)/2) / (cos((p1+p2)/2) - Delta cos((p1-p2)/2));
* scattering measure 1/(8 pi^2) d^2p over [0, 2pi]^2 (fixed by t = 0 completeness);
* bound measure (1/2pi) dq |dP/dq| q^{-2} (q^2/(1+q^2))^{x12/2} with the
  continuous total-momentum branch P = 2*atan(1/q) in (0, 2pi);
* evolution energies measured from the polarized reference state:
  scattering -4J(cos p1 + cos p2), bound -8J + 4J/(1+q^2).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bessel import truncation_order
from .chain import ChainSpec
from .green1 import reduced_hop_amplitudes

Part = Literal["bound", "scattering", "total"]

#: Largest ring RingTwoMagnon builds; its stacked sector modes take 4 N^3 bytes.
MAX_RING_SITES = 512
_BOUND_MARGIN = 1e-9  # relative to 8J: how far below the continuum a bound level sits

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


class QuadratureError(RuntimeError):
    """Raised when quadrature refinement fails to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


def theta_phase(p1: float, p2: float, delta: float) -> float:
    """Scattering phase from tan(theta/2) = B/A via atan2 (all branches covered).

    A = cos((p1+p2)/2) - Delta*cos((p1-p2)/2), B = Delta*sin((p1-p2)/2).
    Antisymmetric under p1 <-> p2; identically zero for Delta = 0.
    """
    a = math.cos(0.5 * (p1 + p2)) - delta * math.cos(0.5 * (p1 - p2))
    b = delta * math.sin(0.5 * (p1 - p2))
    theta = 2.0 * math.atan2(b, a)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    elif theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta


def _exchange_weight(p1: np.ndarray, p2: np.ndarray, delta: float) -> np.ndarray:
    """w = 1 + e^{i theta} = 2A / (A - iB), the smooth rational form.

    Evaluating e^{i theta} rationally keeps the integrand smooth across the
    p1 = p2 line, where the principal value of theta itself jumps branch. The
    isolated A = B = 0 points (p1 = p2 = +-arccos Delta) have bounded,
    direction-dependent limits; nodes never hit them exactly and they get
    weight zero if they ever did.
    """
    a = np.cos(0.5 * (p1 + p2)) - delta * np.cos(0.5 * (p1 - p2))
    b = delta * np.sin(0.5 * (p1 - p2))
    den = a - 1j * b
    safe = np.where(np.abs(den) > 0.0, den, 1.0)
    return np.where(np.abs(den) > 0.0, 2.0 * a / safe, 0.0)


def bound_wavefunction(x1: int, x2: int, q: float) -> complex:
    """Unnormalized bound-pair wavefunction (q^2/(1+q^2))^{(x2-x1)/2} e^{i(x1+x2) atan(1/q)}.

    Requires x1 < x2. The q -> 0 limit vanishes for any separation >= 1.
    """
    if not x1 < x2:
        raise ValueError(f"ordered pair required, got ({x1}, {x2})")
    if q == 0.0:
        return 0.0 + 0.0j
    magnitude = (q * q / (1.0 + q * q)) ** (0.5 * (x2 - x1))
    return magnitude * cmath.exp(1j * (x1 + x2) * math.atan(1.0 / q))


@dataclass(frozen=True)
class Green2Value:
    """Two-magnon transition amplitude between ordered site pairs."""

    value: complex
    x1: int
    x2: int
    x1p: int
    x2p: int
    t: float
    part: Part
    error: float


def _panel_nodes(lo: float, hi: float, n_panels: int, grade_edges: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [lo, hi] split into panels.

    With grade_edges the first and last panels are subdivided geometrically
    down to 2^-15 of the panel width, which confines the bounded corner
    discontinuity of the exchange weight (present at |delta| = 1) to a tiny
    cell; the ladder of ratio-2 cells stays spectrally accurate because each
    cell's distance to the corner matches its own size.
    """
    breaks = np.linspace(lo, hi, n_panels + 1)
    grade = [2.0**-k for k in range(15, 0, -1)]
    edges: list[float] = [breaks[0]]
    for k in range(n_panels):
        a, b = breaks[k], breaks[k + 1]
        if grade_edges and k == 0:
            h = b - a
            edges.extend([a + f * h for f in grade])
            edges.append(b)
        elif grade_edges and k == n_panels - 1:
            h = b - a
            edges.extend([b - f * h for f in reversed(grade)])
            edges.append(b)
        else:
            edges.append(b)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(half * _GL_NODES + 0.5 * (a + b))
        ws.append(half * _GL_WEIGHTS)
    return np.concatenate(xs), np.concatenate(ws)


def _scatter_panel_count(z: float, c_max: int, t: float) -> int:
    # Oscillation budget: phase rate across [0, 2pi] is bounded by z + c_max;
    # the (t + c_max)/2 floor keeps node counts >= 8*(t + max offset) per axis.
    return max(
        4,
        math.ceil((z + c_max) / 4.0),
        math.ceil((t + c_max) / 2.0) - 5,
    )


class TwoMagnonEngine:
    """Tabulated reduced two-magnon kernels at fixed elapsed time.

    Builds, once per (j, delta, t), the scattering exchange integral table
    J(c, d) over lattice offsets |c|, |d| <= table radius and (at delta = 1)
    the bound-state table over pair spans and center offsets. All lookups are
    vectorized over numpy index arrays. Every table is computed at two
    quadrature resolutions; the difference is the stored error estimate and
    refinement escalates once before raising QuadratureError.
    """

    def __init__(
        self,
        *,
        j: float,
        delta: float,
        t: float,
        max_offset: int,
        max_pair_span: int = 0,
        max_sum_offset: int = 0,
        tol: float = 1e-5,
        include_bound: bool | None = None,
    ):
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        self.j = j
        self.delta = delta
        self.t = t
        self.tol = tol
        self.z = 4.0 * j * t
        self.include_bound = (delta == 1.0) if include_bound is None else include_bound
        if self.include_bound and delta != 1.0:
            raise ValueError("bound-state branch is implemented for delta = 1 only")

        # Hop amplitudes are cheap 1-D Bessel values; always tabulate out to
        # the truncation radius so any offset beyond the table is a true zero.
        self._hop_radius = max(max_offset, truncation_order(self.z, extra=12), 1)
        self._g = reduced_hop_amplitudes(
            np.arange(-self._hop_radius, self._hop_radius + 1), self.z
        )
        # Unlike Bessel hops, the exchange integral has power-law tails in its
        # offsets (corner structure of the exchange weight), so the table must
        # cover the caller's full window with no truncation radius.
        self._table_radius = max(max_offset, 1)
        self.resolution_report: dict[str, float | int] = {}
        self._j_table = self._build_scatter_table()
        if self.include_bound:
            self._x12_max = max(max_pair_span, 2)
            self._xsum_max = max(max_sum_offset, 0)
            self._b_table = self._build_bound_table()

    # -- scattering -------------------------------------------------------

    def _scatter_table_at(self, n_panels: int) -> np.ndarray:
        # Different panel counts on the two axes keep tensor nodes off the
        # exact p1 = p2 line. At |delta| = 1 the weight has an unresolvably
        # narrow ridge (width ~ p^2) around that line near p = 0 whose true
        # mass is negligible; sampling its top on a shared diagonal grid
        # would bias the whole table by ~5e-7 independent of resolution.
        p1, w1 = _panel_nodes(0.0, 2.0 * math.pi, n_panels, grade_edges=True)
        p2, w2 = _panel_nodes(0.0, 2.0 * math.pi, n_panels + 1, grade_edges=True)
        u1 = w1 * np.exp(1j * self.z * np.cos(p1))
        u2 = w2 * np.exp(1j * self.z * np.cos(p2))
        ww = _exchange_weight(p1[:, None], p2[None, :], self.delta) * u1[:, None] * u2[None, :]
        offs = np.arange(-self._table_radius, self._table_radius + 1)
        e1 = np.exp(1j * np.outer(offs, p1))
        e2 = np.exp(1j * np.outer(offs, p2))
        return (e1 @ ww @ e2.T) / (8.0 * math.pi**2)

    def _corner_floor(self, n_panels: int) -> float:
        # At |delta| = 1 the near-diagonal ridge is only marginally resolved
        # around the corner and leaves a ~2e-7 systematic shared by both
        # resolutions, invisible to their difference; floor the reported
        # error there (measured against exact t = 0 sums).
        if abs(self.delta) != 1.0:
            return 0.0
        return 5e-7

    def _build_scatter_table(self) -> np.ndarray:
        k = _scatter_panel_count(self.z, self._table_radius, self.t)
        coarse = self._scatter_table_at(k)
        k_fine = math.ceil(1.45 * k) + 1
        fine = self._scatter_table_at(k_fine)
        err = max(float(np.max(np.abs(fine - coarse))), self._corner_floor(k_fine))
        if err > self.tol:
            k_finer = math.ceil(2.1 * k) + 2
            finer = self._scatter_table_at(k_finer)
            err = max(float(np.max(np.abs(finer - fine))), self._corner_floor(k_finer))
            fine = finer
            k_fine = k_finer
            if err > self.tol:
                raise QuadratureError(
                    f"scattering quadrature did not converge below {self.tol} "
                    f"at {k_fine} panels", err,
                )
        self.resolution_report.update(
            scattering_panels=k_fine,
            scattering_nodes_per_axis=int(16 * (k_fine + 30)),
            scattering_error=err,
        )
        return fine

    # -- bound ------------------------------------------------------------

    def _bound_tables_at(self, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
        u, w = _panel_nodes(0.0, 0.5 * math.pi, n_panels, grade_edges=False)
        sin_u, cos_u = np.sin(u), np.cos(u)
        strength = -8.0 * self.j + 4.0 * self.j * cos_u**2
        kernel = w * cos_u**2 * np.exp(-1j * self.t * strength)
        spans = np.arange(2, self._x12_max + 1)
        base = sin_u[None, :] ** (spans[:, None] - 2) * kernel[None, :]
        sums = np.arange(-self._xsum_max, self._xsum_max + 1)
        angles = np.outer(sums, u)
        table_cos = base @ np.cos(angles).T * (2.0 / math.pi)
        table_sin = base @ np.sin(angles).T * (2.0 / math.pi)
        return table_cos, table_sin

    def _build_bound_table(self) -> np.ndarray:
        k = max(
            4,
            math.ceil((self._xsum_max + self.z) / 12.0),
            math.ceil(0.8 * math.sqrt(max(self._x12_max - 2, 0))),
        )
        coarse = self._bound_tables_at(k)
        k_fine = math.ceil(1.45 * k) + 1
        fine = self._bound_tables_at(k_fine)
        err = float(
            max(np.max(np.abs(fine[0] - coarse[0])), np.max(np.abs(fine[1] - coarse[1])))
        )
        if err > self.tol:
            k_finer = math.ceil(2.1 * k) + 2
            finer = self._bound_tables_at(k_finer)
            err = float(
                max(np.max(np.abs(finer[0] - fine[0])), np.max(np.abs(finer[1] - fine[1])))
            )
            fine = finer
            k_fine = k_finer
            if err > self.tol:
                raise QuadratureError(
                    f"bound-state quadrature did not converge below {self.tol} "
                    f"at {k_fine} panels", err,
                )
        self.resolution_report.update(
            bound_panels=k_fine,
            bound_nodes=int(16 * k_fine),
            bound_error=err,
        )
        table_cos, table_sin = fine
        # Assemble i^{xsum} * (cos branch for even span, -i sin branch for odd span).
        spans = np.arange(2, self._x12_max + 1)
        sums = np.arange(-self._xsum_max, self._xsum_max + 1)
        phase = np.array([1, 1j, -1, -1j])[sums % 4]
        even_span = (spans % 2 == 0)[:, None]
        return phase[None, :] * np.where(even_span, table_cos, -1j * table_sin)

    # -- lookups ----------------------------------------------------------

    def _hop(self, off: np.ndarray) -> np.ndarray:
        r = self._hop_radius
        inside = np.abs(off) <= r
        return np.where(inside, self._g[np.clip(off, -r, r) + r], 0.0)

    def _j_lookup(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        r = self._table_radius
        if np.any(np.abs(c) > r) or np.any(np.abs(d) > r):
            raise ValueError(
                "requested offsets outside the tabulated exchange window; "
                "rebuild the engine with a larger max_offset"
            )
        return self._j_table[c + r, d + r]

    def scattering(self, s1, s2, d1, d2) -> np.ndarray:
        """Reduced scattering amplitude for ordered source (s1<s2) and target (d1<d2) pairs."""
        s1, s2, d1, d2 = (np.asarray(a, dtype=np.int64) for a in (s1, s2, d1, d2))
        direct = self._hop(d1 - s1) * self._hop(d2 - s2)
        crossed = self._hop(d1 - s2) * self._hop(d2 - s1)
        return direct + crossed - 2.0 * self._j_lookup(s2 - d1, s1 - d2)

    def bound(self, s1, s2, d1, d2) -> np.ndarray:
        """Reduced bound-state amplitude (delta = 1 branch)."""
        if not self.include_bound:
            raise ValueError("engine built without the bound-state branch")
        s1, s2, d1, d2 = (np.asarray(a, dtype=np.int64) for a in (s1, s2, d1, d2))
        span = (s2 - s1) + (d2 - d1)
        center = (s1 + s2) - (d1 + d2)
        if np.any(span > self._x12_max) or np.any(np.abs(center) > self._xsum_max):
            raise ValueError("requested pair outside the tabulated bound window")
        return self._b_table[span - 2, center + self._xsum_max]

    def total(self, s1, s2, d1, d2) -> np.ndarray:
        value = self.scattering(s1, s2, d1, d2)
        if self.include_bound:
            value = value + self.bound(s1, s2, d1, d2)
        return value

    def part(self, which: Part):
        return {"bound": self.bound, "scattering": self.scattering, "total": self.total}[which]


def _normalize_pair(x1: int, x2: int) -> tuple[int, int]:
    if x1 == x2:
        raise ValueError(f"two-magnon pair needs distinct sites, got ({x1}, {x2})")
    return (x1, x2) if x1 < x2 else (x2, x1)


def green2_scattering(
    x1: int,
    x2: int,
    x1p: int,
    x2p: int,
    t: float,
    spec: ChainSpec,
    *,
    tol: float = 1e-6,
) -> Green2Value:
    """Scattering-part two-magnon amplitude (x1,x2) -> (x1p,x2p) after time t.

    Both momenta are integrated over the full Brillouin zone at every delta.
    """
    s1, s2 = _normalize_pair(x1, x2)
    d1, d2 = _normalize_pair(x1p, x2p)
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    phase = cmath.exp(-1j * spec.ground_energy * t)
    max_off = int(max(abs(d1 - s1), abs(d2 - s2), abs(d1 - s2), abs(d2 - s1)))
    engine = TwoMagnonEngine(
        j=spec.j, delta=spec.delta, t=t, max_offset=max_off, tol=tol, include_bound=False
    )
    value = complex(engine.scattering(s1, s2, d1, d2))
    err = float(engine.resolution_report["scattering_error"])
    return Green2Value(phase * value, s1, s2, d1, d2, t, "scattering", err)


def green2_bound(
    x1: int, x2: int, x1p: int, x2p: int, t: float, spec: ChainSpec, *, tol: float = 1e-6
) -> Green2Value:
    """Bound-state-part two-magnon amplitude (delta = 1 only)."""
    if spec.delta != 1.0:
        raise ValueError("bound-state branch is implemented for delta = 1 only")
    s1, s2 = _normalize_pair(x1, x2)
    d1, d2 = _normalize_pair(x1p, x2p)
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    engine = TwoMagnonEngine(
        j=spec.j,
        delta=spec.delta,
        t=t,
        max_offset=1,
        max_pair_span=(s2 - s1) + (d2 - d1),
        max_sum_offset=abs((s1 + s2) - (d1 + d2)),
        tol=tol,
    )
    value = complex(engine.bound(s1, s2, d1, d2))
    err = float(engine.resolution_report["bound_error"])
    phase = cmath.exp(-1j * spec.ground_energy * t)
    return Green2Value(phase * value, s1, s2, d1, d2, t, "bound", err)


def green2(
    x1: int, x2: int, x1p: int, x2p: int, t: float, spec: ChainSpec, *, tol: float = 1e-6
) -> Green2Value:
    """Total two-magnon amplitude: bound + scattering at delta = 1, scattering at delta = 0.

    For 0 < |delta| < 1 only the scattering part is implemented, so the total
    is incomplete there (the supported regimes are delta = 1 and delta = 0).
    """
    scat = green2_scattering(x1, x2, x1p, x2p, t, spec, tol=tol)
    if spec.delta != 1.0:
        return Green2Value(scat.value, scat.x1, scat.x2, scat.x1p, scat.x2p, t, "total", scat.error)
    bnd = green2_bound(x1, x2, x1p, x2p, t, spec, tol=tol)
    return Green2Value(
        scat.value + bnd.value,
        scat.x1,
        scat.x2,
        scat.x1p,
        scat.x2p,
        t,
        "total",
        scat.error + bnd.error,
    )


# --------------------------------------------------------------------------
# Exact closed-ring two-magnon propagator (momentum-sector reduction)
# --------------------------------------------------------------------------


class RingTwoMagnon:
    """Exact two-magnon evolution on a closed ring, split by total momentum.

    For each total momentum P = 2 pi k / N the pair dynamics reduces to a
    short chain over folded separations r = 1..floor(N/2): nearest-separation
    hopping -2J(1 + e^{iP}) with a -4J*Delta contact well at r = 1 and fold
    corrections at the largest separation (a sqrt(2) hop onto the antipodal
    column for even N, a self term for odd N). Diagonalizing every sector once
    gives machine-precision ring propagation -- including through-the-seam
    interaction and winding, which infinite-line kernels only approximate.

    A pair state maps onto an N x floor(N/2) grid over (pair centre site,
    folded separation): cell (x, r) holds the pair {x, x + r} (sites mod N),
    and an antipodal pair of an even ring fills both of its cells with weight
    1/sqrt(2). One FFT over the centre axis turns the grid into all momentum
    sectors at once; the sector blocks are stacked, zero-padded to a common
    size, and diagonalized by one batched eigh.

    Sector eigenstates below the infinite-chain continuum bottom
    -8J|cos(P/2)| form the bound band; the rest scatter. Propagation can be
    restricted to either part.

    Energies and amplitudes are reduced (measured from the polarized
    reference), matching the reduced one-magnon conventions.
    """

    def __init__(self, spec: ChainSpec):
        if spec.n > MAX_RING_SITES:
            raise ValueError(f"ring of {spec.n} sites is over the limit of {MAX_RING_SITES}")
        if spec.boundary != "closed":
            raise ValueError("ring propagator needs a closed chain")
        n = spec.n
        if n < 3:
            raise ValueError("two magnons need at least 3 sites")
        self.spec = spec
        j = spec.j
        self.pairs = [(i, jj) for i in range(1, n + 1) for jj in range(i + 1, n + 1)]
        self.pair_index = {p: idx for idx, p in enumerate(self.pairs)}

        # the pair held by every grid cell (x, r), as an index into self.pairs
        r_full = n // 2
        x, r = np.meshgrid(np.arange(n), np.arange(1, r_full + 1), indexing="ij")
        lo, hi = np.minimum(x, (x + r) % n), np.maximum(x, (x + r) % n)
        self._cell_pair = (lo * n - lo * (lo + 1) // 2 + hi - lo - 1).ravel()
        self._cell_weight = np.where(2 * r == n, 1.0 / math.sqrt(2.0), 1.0).ravel()

        # sector blocks, lower band only (eigh reads the lower triangle)
        k = np.arange(n)
        omega = np.exp(2j * math.pi * k / n)
        blocks = np.zeros((n, r_full, r_full), dtype=complex)
        rows = np.arange(1, r_full)
        blocks[:, rows, rows - 1] = (-2.0 * j * (1.0 + omega))[:, None]
        blocks[:, 0, 0] = -4.0 * j * spec.delta
        live = np.ones((n, r_full), dtype=bool)
        if n % 2 == 0:
            odd = k % 2 == 1
            blocks[~odd, -1, -2] *= math.sqrt(2.0)
            # odd sectors have no antipodal row: decouple it and park its
            # level above the whole spectrum, so it is the last mode
            blocks[odd, -1, -2] = 0.0
            blocks[odd, -1, -1] = 4.0 * j * (abs(spec.delta) + 4.0)
            live[odd, -1] = False
        else:
            blocks[:, -1, -1] += (-2.0 * j * omega**r_full * (1.0 + omega)).real
        self._evals, self._evecs = np.linalg.eigh(blocks)
        bottom = -8.0 * j * np.abs(np.cos(math.pi * k / n))
        bound = self._evals < (bottom - _BOUND_MARGIN * 8.0 * j)[:, None]
        self.bound_count = int(np.sum(bound))
        self._keep = {"total": live, "bound": bound, "scattering": live & ~bound}

    def evolve_pair_state(self, psi: np.ndarray, t: float, part: Part = "total") -> np.ndarray:
        """Evolve a pair-basis wavefunction for time t through the chosen part.

        psi is indexed like ``self.pairs`` (ordered ring pairs). The three
        parts resolve the identity: bound + scattering = total propagation.
        """
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (len(self.pairs),):
            raise ValueError(f"pair state must have shape ({len(self.pairs)},)")
        grid = (psi[self._cell_pair] * self._cell_weight).reshape(self._evals.shape)
        sectors = np.fft.fft(grid, axis=0, norm="ortho")
        # mode amplitudes V^H s per sector, as conj(s^H V): no conjugate copy of V
        modes = np.conj(np.conj(sectors)[:, None, :] @ self._evecs)[:, 0, :]
        modes *= np.exp(-1j * self._evals * t) * self._keep[part]
        sectors = (self._evecs @ modes[:, :, None])[:, :, 0]
        back = np.fft.ifft(sectors, axis=0, norm="ortho").ravel() * self._cell_weight
        out = np.zeros_like(psi)
        np.add.at(out, self._cell_pair, back)
        return out

    def propagator_column(
        self, s1: int, s2: int, t: float, part: Part = "total"
    ) -> np.ndarray:
        """Reduced amplitudes from ring pair (s1, s2) to every ordered ring pair."""
        psi = np.zeros(len(self.pairs), dtype=complex)
        psi[self.pair_index[_normalize_pair(s1, s2)]] = 1.0
        return self.evolve_pair_state(psi, t, part)
