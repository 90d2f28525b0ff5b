"""Grid discretizations of the sphere-to-sphere kernel, with caching.

KernelTables holds Jtilde(r_i, rho_j) sampled on the uniform grid
r_i = i * dr.  Compactly supported kernels store only the diagonal band
|r - rho| < support_radius (everything else is exactly zero); fat-tail
kernels store a dense square block of rows and columns below
rows_filled.  Rows are filled lazily under a lock so that completed
rows can be read concurrently.

A new dense row i gets only its lower triangle j <= i by quadrature;
row 0 is the exact center formula, and the upper triangle is mirrored
through the symmetry identity

    r^{N-1} Jtilde(r, rho) = rho^{N-1} Jtilde(rho, r),

so growing the table copies the filled block and never evaluates old
rows again.

A table can be persisted to a small binary cache file (format v3): a
header naming the kernel, grid and block shape, the stored block row
by row (band rows of width 2*bw + 1, or dense rows over the columns
below rows_filled), then the dense kink corrections.  save() writes a
temporary file and renames it into place; load() validates the whole
file before adopting anything.  v3 keeps the v2 layout under a new tag,
so N = 3 rows from angular quadrature (~1e-13 off exact) are not reused.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading

import numpy as np

from . import kernels as kmod
from .kernels import RadialKernel

MAGIC = b"NLFBKT3\x00"
#: dim, dr, kernel hash, rows, banded flag, stored row width, kink corrections
_HEADER = struct.Struct("<id16siiii")
#: Gauss-Legendre order per angular panel when sampling table entries by
#: the angular rule (N = 2 and custom N = 3 kernels; exact entries ignore it)
FILL_ORDER = 48


def cache_dir() -> str:
    return os.environ.get("NLFB_CACHE_DIR", os.path.join(".", ".nlfb_cache"))


class KernelTables:
    """Lazily filled samples of Jtilde on the uniform radial grid.

    Parameters
    ----------
    kernel : RadialKernel
    dr : float
        Grid step; entry (i, j) is Jtilde(i*dr, j*dr).
    """

    def __init__(self, kernel: RadialKernel, dr: float):
        if dr <= 0.0:
            raise ValueError("dr must be positive")
        self.kernel = kernel
        self.dr = float(dr)
        self.banded = kernel.kind == kmod.COMPACT
        if self.banded:
            self.bw = int(np.ceil(kernel.support_radius / dr)) + 1
        else:
            self.bw = 0
        self._lock = threading.RLock()
        self._rows_filled = 0
        self._cap = 0
        self._data = np.zeros((0, 0))
        self._jstar_cache = np.zeros(0)
        self._row_mass = np.zeros(0)
        self._kink_corr = np.zeros(0)

    # -- storage ------------------------------------------------------------

    def _row_cols(self, i: int) -> tuple[int, int]:
        """Inclusive column range of band row i."""
        return max(i - self.bw, 0), i + self.bw

    def _fill_row(self, i: int) -> None:
        lo, hi = self._row_cols(i)
        rho = np.arange(lo, hi + 1) * self.dr
        vals = kmod.j_tilde_row(self.kernel, i * self.dr, rho, FILL_ORDER)
        self._data[i, lo - (i - self.bw):lo - (i - self.bw) + vals.size] = vals

    def _fill_dense(self, start: int, stop: int) -> None:
        """Rows and columns start..stop-1 of the dense block."""
        data, dr, nm1 = self._data, self.dr, self.kernel.dim - 1
        data[0, start:stop] = kmod.j_tilde_center(self.kernel, np.arange(start, stop) * dr)
        for i in range(max(start, 1), stop):
            j = np.arange(1, i + 1)
            data[i, 1:i + 1] = kmod.j_tilde_row(self.kernel, i * dr, j * dr, FILL_ORDER)
            # column i above the diagonal: r_j^{N-1} Jt(r_j, r_i) = r_i^{N-1} Jt(r_i, r_j)
            data[1:i, i] = data[i, 1:i] * (i / j[:-1]) ** nm1

    def ensure(self, n_rows: int, n_cols: int | None = None) -> None:
        """Fill rows 0..n_rows-1 (and, for dense tables, columns 0..n_cols-1).

        A dense table fills the square block of max(n_rows, n_cols) rows
        and columns.
        """
        with self._lock:
            if self.banded:
                if n_rows > self._data.shape[0]:
                    grown = np.zeros((max(n_rows, 2 * self._data.shape[0] + 16),
                                      2 * self.bw + 1))
                    if self._rows_filled:
                        grown[:self._rows_filled] = self._data[:self._rows_filled]
                    self._data = grown
                for i in range(self._rows_filled, n_rows):
                    self._fill_row(i)
                self._rows_filled = max(self._rows_filled, n_rows)
                return
            n = n_rows if n_cols is None else max(n_rows, n_cols)
            filled = self._rows_filled
            if n <= filled:
                return
            if n > self._cap:
                new_cap = max(n, int(1.5 * self._cap) + 16)
                grown = np.zeros((new_cap, new_cap))
                grown[:filled, :filled] = self._data[:filled, :filled]
                self._data = grown
                self._cap = new_cap
            self._fill_dense(filled, n)
            self._rows_filled = n

    @property
    def rows_filled(self) -> int:
        return self._rows_filled

    def row_values(self, i: int, n_cols: int) -> np.ndarray:
        """Row i as a dense vector over columns 0..n_cols-1."""
        self.ensure(i + 1, n_cols)
        out = np.zeros(n_cols)
        if self.banded:
            lo, hi = self._row_cols(i)
            hi = min(hi, n_cols - 1)
            if hi >= lo:
                off = i - self.bw
                out[lo:hi + 1] = self._data[i, lo - off:hi - off + 1]
            return out
        out[:] = self._data[i, :n_cols]
        return out

    # -- integral transforms on rows -----------------------------------------

    def row_mass(self, n: int) -> np.ndarray:
        """Discrete full-line masses dr * trapz of rows i < n.

        The exact value is 1 for every row; the discrete mass deviates
        by the trapezoid error at the kernel kinks.  Solver quadrature
        divides by it so that the discretized operator conserves mass
        exactly (the interior equilibrium stays at u_star and the
        comparison structure is unchanged).  Fat-tail rows are truncated
        by storage, so their exact mass 1 is used directly.
        """
        if not self.banded:
            return np.ones(n)
        self.ensure(n)
        with self._lock:
            if self._row_mass.size < n:
                # band endpoints are zero, so the trapezoid is a plain sum
                self._row_mass = self._data[:self._rows_filled].sum(axis=1) * self.dr
        return self._row_mass[:n]

    def _kink_corrections(self, n: int) -> np.ndarray:
        """Trapezoid defect of dense rows at the diagonal peak of Jtilde.

        rho -> Jtilde(r, rho) loses smoothness at rho = r, so the grid
        trapezoid underresolves the peak by an O(dr^2 log dr) amount
        that does not shrink with the boundary radius.  kink_corr[i] is
        the accurate integral minus the trapezoid over a fixed window
        around the peak; tail masses subtract it so their error decays
        with the true tail instead of stalling at the quadrature bias.
        """
        from .quadrature import gl_panels, graded_edges_around

        with self._lock:
            if self._kink_corr.size >= n:
                return self._kink_corr[:n]
            old = self._kink_corr
            corr = np.empty(n)
            corr[:old.size] = old
            reach = int(round(max(2.0, 4.0 * self.dr) / self.dr))
            for i in range(old.size, n):
                r = i * self.dr
                a_idx, b_idx = max(0, i - reach), i + reach
                grid = kmod.j_tilde_row(
                    self.kernel, r, np.arange(a_idx, b_idx + 1) * self.dr,
                    FILL_ORDER)
                trap = float(np.trapezoid(grid, dx=self.dr))
                edges = graded_edges_around(r, a_idx * self.dr, b_idx * self.dr,
                                            first=self.dr / 4.0)
                corr[i] = gl_panels(lambda rho: kmod.j_tilde_row(self.kernel, r, rho, 32),
                                    edges, 32) - trap
            self._kink_corr = corr
            return self._kink_corr[:n]

    def conv(self, weighted_u: np.ndarray) -> np.ndarray:
        """Row-wise dot products sum_j Jtilde(r_i, rho_j) v_j, i < len(v).

        The caller supplies v = quadrature_weight * u; the result is the
        mass-normalized trapezoid approximation of
        int Jtilde(r_i, rho) u(rho) d rho at every grid node.
        """
        n = weighted_u.size
        self.ensure(n, n)
        if not self.banded:
            return self._data[:n, :n] @ weighted_u
        padded = np.zeros(n + 2 * self.bw)
        padded[self.bw:self.bw + n] = weighted_u
        windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * self.bw + 1)
        return np.einsum("ij,ij->i", self._data[:n], windows) / self.row_mass(n)

    def interior_integral(self, i: int, j: int) -> float:
        """Trapezoid int_0^{j*dr} Jtilde(r_i, rho) d rho over grid columns."""
        row = self.row_values(i, j + 1)
        return float(np.trapezoid(row, dx=self.dr))

    def tail_mass(self, i: int, j: int) -> float:
        """T(r_i, h_j) = int_{h_j}^inf Jtilde(r_i, rho) d rho, h_j = j*dr.

        Compact kernels integrate the stored band beyond column j, which
        is free of cancellation; fat tails use 1 - interior (the row
        integrates to 1 exactly), clamped to [0, 1].
        """
        if self.banded:
            lo, hi = self._row_cols(i)
            if j >= hi:
                return 0.0
            self.ensure(i + 1)
            off = i - self.bw
            row = self._data[i]
            start = max(j, lo)
            tail = row[start - off:].sum() - 0.5 * row[start - off]
            mass = float(self.row_mass(i + 1)[i])
            return min(max(float(self.dr * tail) / mass, 0.0), 1.0)
        corr = float(self._kink_corrections(i + 1)[i]) * self._corr_ramp(i, j)
        return min(max(1.0 - self.interior_integral(i, j) - corr, 0.0), 1.0)

    def _corr_ramp(self, i, j):
        """Fraction of the peak-window defect lying inside [0, j*dr]."""
        half = max(2.0, 4.0 * self.dr) / self.dr
        return np.clip((np.asarray(j, dtype=float) - np.asarray(i)) / half,
                       0.0, 1.0)

    def tail_mass_vector(self, n: int, j: int) -> np.ndarray:
        """tail_mass(i, j) for all rows i < n."""
        if not self.banded:
            self.ensure(n, j + 1)
            w = np.full(j + 1, self.dr)
            w[0] = 0.5 * self.dr
            w[-1] = 0.5 * self.dr
            interior = self._data[:n, :j + 1] @ w
            corr = self._kink_corrections(n) * self._corr_ramp(np.arange(n), j)
            return np.clip(1.0 - interior - corr, 0.0, 1.0)
        out = np.zeros(n)
        # rows i <= j - bw end at or before column j and leak nothing
        first = max(j - self.bw + 1, 0)
        if first >= n:
            return out
        self.ensure(n)
        band = self._data[first:n]
        rows = np.arange(n - first)
        # band index of column j, or of the row's first column when j lies left of it
        k = np.maximum(j - first - rows + self.bw, 0)
        beyond = np.cumsum(band[:, ::-1], axis=1)[:, ::-1]  # beyond[:, k] = band[:, k:].sum()
        tail = beyond[rows, k] - 0.5 * band[rows, k]
        out[first:] = np.clip(self.dr * tail / self.row_mass(n)[first:], 0.0, 1.0)
        return out

    # -- the 1-D marginal on the same grid ------------------------------------

    def jstar_vals(self, n: int) -> np.ndarray:
        """Jstar at l = k*dr for k < n (cached)."""
        with self._lock:
            if self._jstar_cache.size < n:
                self._jstar_cache = np.asarray(
                    kmod.j_star(self.kernel, np.arange(n) * self.dr))
            return self._jstar_cache[:n]

    # -- persistence ----------------------------------------------------------

    def _row_width(self, n_rows: int) -> int:
        """Stored entries per row of an n_rows-row block."""
        return 2 * self.bw + 1 if self.banded else n_rows

    def save(self, path: str) -> None:
        """Write the filled rows and kink corrections to path atomically."""
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp, "wb") as fh, self._lock:
                n = self._rows_filled
                width = self._row_width(n)
                block = self._data[:n, :width]
                fh.write(MAGIC)
                fh.write(_HEADER.pack(self.kernel.dim, self.dr,
                                      self.kernel.hash().encode(), n,
                                      int(self.banded), width, self._kink_corr.size))
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
                fh.write(np.asarray(self._kink_corr, dtype="<f8").tobytes())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _parse(self, raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
        """(block, kink corrections) from a cache file, or None if it does not fit."""
        head = len(MAGIC) + _HEADER.size
        if len(raw) < head or raw[:len(MAGIC)] != MAGIC:
            return None
        dim, dr, khash, nrows, banded, width, ncorr = _HEADER.unpack_from(raw, len(MAGIC))
        if (dim != self.kernel.dim or abs(dr - self.dr) > 1e-15
                or khash != self.kernel.hash().encode()
                or bool(banded) != self.banded
                or nrows < 0 or ncorr < 0 or width != self._row_width(nrows)
                or len(raw) != head + 8 * (nrows * width + ncorr)):
            return None
        vals = np.frombuffer(raw, dtype="<f8", offset=head).astype(float)
        if not np.all(np.isfinite(vals)):
            return None
        return vals[:nrows * width].reshape(nrows, width), vals[nrows * width:]

    def load(self, path: str) -> bool:
        """Adopt cached rows if the file matches this kernel and grid.

        Returns True when rows were loaded; a mismatched, truncated or
        corrupt file is ignored and leaves the table as it was (it just
        refills from scratch).
        """
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return False
        parsed = self._parse(raw)
        if parsed is None:
            return False
        block, corr = parsed
        with self._lock:
            self._data = block
            self._cap = 0 if self.banded else block.shape[0]
            self._rows_filled = block.shape[0]
            self._row_mass = np.zeros(0)
            self._kink_corr = corr
        return True

    def cache_path(self, directory: str | None = None) -> str:
        d = directory or cache_dir()
        name = f"{self.kernel.hash()}_N{self.kernel.dim}_dr{self.dr:.6g}.nlfbkt"
        return os.path.join(d, name)
