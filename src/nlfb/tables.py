"""Grid discretizations of the sphere-to-sphere kernel, with caching.

KernelTables holds Jtilde(r_i, rho_j) sampled on the uniform grid
r_i = i * dr, every entry by the one rule of kernels.j_tilde_row.
Compactly supported kernels store only the diagonal band
|r - rho| < support_radius (everything else is exactly zero); fat-tail
kernels store a dense square block of rows and columns below
rows_filled.  Rows are filled on demand into storage that grows in one
place, _reserve.  A band table fills up to its capacity, so a caller
that asks one row at a time still fills in batches, and it evaluates
about FILL_BLOCK entries per kernel call.  A dense table fills the
square block asked for in whole blocks of DENSE_BLOCK rows.

A new dense row i gets only its lower triangle j <= i; row 0 is the exact
center formula, and the upper triangle is mirrored through the symmetry
identity

    r^{N-1} Jtilde(r, rho) = rho^{N-1} Jtilde(rho, r),

so growing the table copies the filled block and never evaluates old
rows again.  Power tails interpolate the far field (_fill_dense).  Dense
tables fill _kink_reach() rows ahead of the rows the solver reads: the
kink window of row i reaches column i + reach, and every entry it reads
is a stored one.

The solver reads a table through conv (the quadrature of Jtilde * u)
and tail_mass_vector (the tail masses beyond a boundary between columns).
A band row gets its mass and tail row once, when it is filled or loaded,
so a step only reads: conv is one BLAS dgbmv on the stored rows, which
transposed are Fortran band storage (band_matvec), and the tails at a
column are read from the <= 2*bw tail rows that reach it as
anti-diagonals, strided views of the tail block (_band_tails).  The
storage also holds the solver's radial measure |S^{N-1}| r_i^{N-1}.

A table can be persisted to a small binary cache file (format v7): a
header naming the kernel, grid and block shape, the stored block row
by row (band rows of width 2*bw + 1, or dense rows over the columns
below rows_filled, a multiple of DENSE_BLOCK), then the dense kink
corrections.  save() writes a temporary file and renames it into place;
load() validates the whole file before adopting anything.  v3 to v7 keep
the v2 layout under new tags, so stale numbers are not reused: v2 N = 3
rows came from angular quadrature (~1e-13 off exact), v3 kink
corrections from a graded angular rule (up to ~4e-10 off), v4 angular
entries from order-48 panels on the cosine form of the chord (up to
~7e-12 off), v5 dense files hold any number of rows, and v6 fat-tail
entries came from per-entry angular edges (up to ~1.5e-15 apart).
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np
from scipy.linalg.blas import dgbmv

from . import kernels as kmod
from .kernels import RadialKernel

MAGIC = b"NLFBKT7\x00"
#: dim, dr, kernel hash, rows, banded flag, stored row width, kink corrections
_HEADER = struct.Struct("<id16siiii")
#: dense rows per shell_mass call for the kink-correction window masses.  One
#: call per new row costs ~0.2 ms of fixed overhead; larger blocks add their
#: scratch arrays to the peak memory (fat_tail_front fronts: +0.1 MB at 32
#: rows, +0.6 MB at 64, +3.5 MB for blocks growing by 1.5x)
WINDOW_BLOCK = 32
#: entries per j_tilde_row call when filling band rows and dense blocks.  One call
#: per band row pays the fixed cost for ~40 entries: 1,201 cosine-bump rows at dr =
#: 0.05 fill in 0.17 s one row per call and 0.038 s in blocks (exact disc rows: 0.047
#: s, 0.006 s).  Larger blocks add the angular rule's scratch to the peak memory: with
#: the disc on that rule, compact_front's h'(0) set-ups at dr = 0.0125 peaked at 80.2
#: MB one row per call, 80.4-80.6 MB at 1,024 entries and 95.6 MB at 65,536 (256 run
#: 30 % slower); whole dense blocks per call raised fat_tail_front's by 1.7 MB
FILL_BLOCK = 1024
#: dense rows per fill block; a dense table fills and stores whole blocks
DENSE_BLOCK = 32
#: Chebyshev points per direction of a far span's interpolant of log g: at 20,
#: beta = 8 spans reaching column 0 are 1e-12 off, at 24 all within 3.7e-14
P_CHEB = 24
#: a column span is far when its gap to the row block is >= ETA times its width
ETA = 1
#: first-kind Chebyshev points on [-1, 1] and their barycentric weights
_CHEB_X = np.cos(np.pi * (np.arange(P_CHEB) + 0.5) / P_CHEB)
_CHEB_W = (-1.0) ** np.arange(P_CHEB) * np.sin(np.pi * (np.arange(P_CHEB) + 0.5) / P_CHEB)


def _cheb_basis(width: int) -> np.ndarray:
    """(width, P_CHEB) barycentric interpolation from _CHEB_X to width equispaced points.

    Sums of Chebyshev polynomials were off by up to 1.4e-14.  No point is a
    node (checked for all widths that are multiples of 32 up to 200,000).
    """
    q = _CHEB_W / (np.linspace(-1.0, 1.0, width)[:, None] - _CHEB_X)
    return q / q.sum(axis=1, keepdims=True)


def band_matvec(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out_i = sum_k band[i, reach + k] v[i + k], 0 <= i + k < len(v), by one dgbmv.

    band holds C-ordered rows as KernelTables.diagonals lays them out, so
    band[:n].T is the Fortran band storage of A[p, i] = band[i, reach + p - i]
    and out = A^T v.
    """
    n, width = v.size, band.shape[1]
    x = v
    if n < width:  # dgbmv wants A to have >= 2 * reach + 1 rows: zero pad v
        x = np.zeros(width)
        x[:n] = v
    return dgbmv(x.size, n, width // 2, width // 2, 1.0, band[:n].T, x, trans=1)


def cache_dir() -> str:
    return os.environ.get("NLFB_CACHE_DIR", os.path.join(".", ".nlfb_cache"))


class KernelTables:
    """Lazily filled samples of Jtilde on the uniform radial grid.

    Parameters
    ----------
    kernel : RadialKernel
    dr : float
        Grid step, below a compact kernel's support radius; entry (i, j) is Jtilde(i*dr, j*dr).
    """

    def __init__(self, kernel: RadialKernel, dr: float):
        if dr <= 0.0:
            raise ValueError("dr must be positive")
        self.kernel = kernel
        self.dr = float(dr)
        self.banded = kernel.kind == kmod.COMPACT
        if self.banded:
            if dr >= kernel.support_radius:
                raise ValueError(f"dr = {dr:g} must be below the kernel's support radius "
                                 f"{kernel.support_radius:g}")
            self.bw = int(np.ceil(kernel.support_radius / dr)) + 1
        else:
            self.bw = 0
        self._rows_filled = 0
        self._data = self._tail = np.zeros((0, 2 * self.bw + 1))
        self._row_mass = np.zeros(0)
        #: the solver's radial measure: |S^{N-1}|, and r_i^{N-1} on the storage's
        #: rows (_r_power, built by _reserve)
        self._sphere_area = kmod.unit_sphere_area(kernel.dim)
        self._kink_corr = np.zeros(0)
        self._window_mass = np.zeros(0)
        #: solves kept by eigen.find_L_star and solver._certificate: entries never change
        self._solved: dict = {}

    # -- storage ------------------------------------------------------------

    def _band_rows(self, start: int, stop: int) -> np.ndarray:
        """Band rows start..stop-1 by the rule of j_tilde_row, in one call.

        Support is decided on the integer offset, |i - j| * dr < K, so
        entries on its edge are exactly zero rather than the angle of a
        chord an ulp inside K.  Row 0 is the center formula, which keeps
        the profile's value J(K) at rho = K.  Entries left of column 0 are zero.
        """
        k = np.arange(-self.bw, self.bw + 1)
        i = np.arange(start, stop)[:, None]
        j = i + k
        live = (j > 0) & ((np.abs(k) * self.dr < self.kernel.support_radius) | (i == 0))
        rows = np.zeros(j.shape)
        rows[live] = kmod.j_tilde_row(self.kernel, np.broadcast_to(i * self.dr, j.shape)[live],
                                      j[live] * self.dr)
        return rows

    def _reserve(self, n_rows: int) -> None:
        """Grow the storage, keeping its filled rows, if it holds fewer than n_rows.

        Band storage grows to max(n_rows, 2 * capacity + 16) rows; dense
        storage to max(n_rows, 1.5 * capacity + 16) square, rounded up to
        DENSE_BLOCK.  _r_power follows the capacity.
        """
        cap, start = self._data.shape[0], self._rows_filled
        if n_rows <= cap:
            return
        if self.banded:
            cap, width = max(n_rows, 2 * cap + 16), 2 * self.bw + 1
            grown = (np.zeros((cap, width)), np.zeros(cap), np.zeros((cap, width)))
            for new, old in zip(grown, (self._data, self._row_mass, self._tail)):
                new[:start] = old[:start]
            self._data, self._row_mass, self._tail = grown
        else:
            cap = -(-max(n_rows, int(1.5 * cap) + 16) // DENSE_BLOCK) * DENSE_BLOCK
            grown = np.zeros((cap, cap))
            grown[:start, :start] = self._data[:start, :start]
            self._data = grown
        self._r_power = (np.arange(cap) * self.dr) ** (self.kernel.dim - 1)

    def _append_band(self, rows: np.ndarray) -> None:
        """Store new band rows, from quadrature or a cache file, and derive theirs.

        Each gets its mass and its tail row tail[i, k] = clip(dr * (band[i,
        k:].sum() - band[i, k] / 2) / mass[i], 0, 1), the mass beyond band
        column k.  The storage must already hold them (_reserve).
        """
        start = self._rows_filled
        stop = start + rows.shape[0]
        self._data[start:stop] = rows
        band = self._data[start:stop]
        # a plain sum: the trapezoid where band endpoints are zero, but row 0 keeps
        # Jtilde(0, K) = 2 (disc) or 3 (ball) at weight dr, not dr / 2, so its
        # mass reads 1.05 and 1.07625 at dr = 0.05, where the trapezoid gives 1.0
        # and 1.00125
        mass = self._row_mass[start:stop] = band.sum(axis=1) * self.dr
        beyond = np.cumsum(band[:, ::-1], axis=1)[:, ::-1]  # beyond[:, k] = band[:, k:].sum()
        self._tail[start:stop] = np.clip(self.dr * (beyond - 0.5 * band) / mass[:, None],
                                         0.0, 1.0)
        self._rows_filled = stop

    def _fill_dense(self, b0: int) -> None:
        """Rows b0..b0+DENSE_BLOCK-1 of the dense block, and the same columns.

        The lower triangle from column b0 - DENSE_BLOCK on is sampled by
        quadrature.  Further left, a power tail's columns split into far spans,
        each as wide as its gap to the block allows (gap >= ETA * width), so
        widths double toward column 0 and stay multiples of DENSE_BLOCK >
        P_CHEB.  A span is interpolated from log g, g = Jtilde / rho^{N-1}, on
        its P_CHEB x P_CHEB Chebyshev grid: g is analytic away from r = rho,
        and the exponential keeps entries positive.
        """
        data, dr, kernel = self._data, self.dr, self.kernel
        nm1, b1 = kernel.dim - 1, b0 + DENSE_BLOCK
        data[0, b0:b1] = kmod.j_tilde_center(kernel, np.arange(b0, b1) * dr)
        # custom profiles may have kinks, and exact N = 3 entries are cheap
        interpolated = (kernel.kind == kmod.FAT_TAIL and not kernel.breakpoints
                        and not kmod._exact_n3(kernel))
        far, hi = [], b0 - DENSE_BLOCK if interpolated else 0
        while hi > 0:
            far.append((max(hi - (b0 - hi) // ETA, 0), hi))
            hi = far[-1][0]
        i = np.arange(max(b0, 1), b1)[:, None]
        j = np.arange(far[0][1] if far else 1, b1)
        ii, jj = np.nonzero(j <= i)
        ii, jj = ii + i[0, 0], jj + j[0]
        nodes = [lo + 0.5 * (hi - 1 - lo) * (_CHEB_X + 1.0) for lo, hi in [(b0, b1), *far]]
        r, rho = np.broadcast_arrays(nodes[0][:, None],
                                     np.reshape(nodes[1:], (len(far), 1, P_CHEB)))
        r_all, rho_all = (np.concatenate((a, b.ravel())) * dr for a, b in ((ii, r), (jj, rho)))
        vals = np.concatenate([
            kmod.j_tilde_row(kernel, r_all[s:s + FILL_BLOCK], rho_all[s:s + FILL_BLOCK])
            for s in range(0, r_all.size, FILL_BLOCK)])
        data[ii, jj] = vals[:ii.size]
        g = (vals[ii.size:] / rho_all[ii.size:] ** nm1).reshape(r.shape)
        rows = _cheb_basis(DENSE_BLOCK)
        for (lo, hi), span in zip(far, g):
            # log(g / g_mid) is of order one: its rounding does not grow with |log g|
            g0 = span[P_CHEB // 2, P_CHEB // 2]
            data[b0:b1, lo:hi] = (np.exp(rows @ np.log(span / g0) @ _cheb_basis(hi - lo).T)
                                  * (g0 * (np.arange(lo, hi) * dr) ** nm1))
        # the upper triangle: r_j^{N-1} Jt(r_j, r_i) = r_i^{N-1} Jt(r_i, r_j)
        j = np.arange(1, b1)
        up = j[:, None] < i.T
        data[1:b1, i[0, 0]:b1][up] = (data[i[:, 0], 1:b1] * (i / j) ** nm1).T[up]

    def ensure(self, n_rows: int, n_cols: int | None = None) -> None:
        """Fill rows 0..n_rows-1 (and, for dense tables, columns 0..n_cols-1).

        A band table fills up to its capacity, growing it (_reserve) when
        n_rows exceeds it.  A dense table fills the square block of
        max(n_rows, n_cols) rows in whole DENSE_BLOCKs.
        """
        if self.banded:
            if n_rows > self._rows_filled:
                self._reserve(n_rows)
                cap, step = self._data.shape[0], max(1, FILL_BLOCK // (2 * self.bw + 1))
                for start in range(self._rows_filled, cap, step):
                    self._append_band(self._band_rows(start, min(start + step, cap)))
            return
        n = n_rows if n_cols is None else max(n_rows, n_cols)
        filled = self._rows_filled
        if n <= filled:
            return
        n = -(-n // DENSE_BLOCK) * DENSE_BLOCK
        self._reserve(n)
        for b0 in range(filled, n, DENSE_BLOCK):
            self._fill_dense(b0)
        self._rows_filled = n

    @property
    def rows_filled(self) -> int:
        return self._rows_filled

    def row_values(self, i: int, n_cols: int) -> np.ndarray:
        """Row i as a dense vector over columns 0..n_cols-1."""
        self.ensure(i + 1, n_cols)
        out = np.zeros(n_cols)
        if self.banded:
            lo, hi = max(i - self.bw, 0), min(i + self.bw, n_cols - 1)
            if hi >= lo:
                out[lo:hi + 1] = self._data[i, lo - i + self.bw:hi - i + self.bw + 1]
            return out
        out[:] = self._data[i, :n_cols]
        return out

    def diagonals(self, n: int, reach: int) -> np.ndarray:
        """Entries (i, i + k), |k| <= reach, of the n x n block, row by row.

        out[i, reach + k] = Jtilde(r_i, r_{i+k}), and 0 where i + k lies
        outside 0..n-1.  A band row is stored in this layout with reach = bw,
        so a band table copies its rows and zeroes the columns past n - 1.
        """
        self.ensure(n, n)
        k = np.arange(-reach, reach + 1)
        out = np.zeros((n, k.size))
        if self.banded:
            w = min(reach, self.bw)
            out[:, reach - w:reach + w + 1] = self._data[:n, self.bw - w:self.bw + w + 1]
            last = max(n - reach, 0)
            out[last:][np.arange(last, n)[:, None] + k >= n] = 0.0
        else:
            j = np.arange(n)[:, None] + k
            inside = (j >= 0) & (j < n)
            out[inside] = self._data[np.nonzero(inside)[0], j[inside]]
        return out

    # -- integral transforms on rows -----------------------------------------

    def row_mass(self, n: int) -> np.ndarray:
        """Discrete full-line masses dr * trapz of rows i < n.

        The exact value is 1 for every row; the discrete mass deviates
        by the trapezoid error at the kernel kinks.  Solver quadrature
        divides by it so that the discretized operator conserves mass
        exactly (the interior equilibrium stays at u_star and the
        comparison structure is unchanged); band masses are computed
        when their rows are filled.  Fat-tail rows are truncated by
        storage, so their exact mass 1 is used directly.
        """
        if not self.banded:
            return np.ones(n)
        self.ensure(n)
        return self._row_mass[:n]

    def _kink_reach(self) -> int:
        """Half-width, in grid steps, of the kink-correction window and its ramp."""
        return int(round(max(2.0, 4.0 * self.dr) / self.dr))

    def _kink_corrections(self, n: int) -> np.ndarray:
        """Trapezoid defect of dense rows at the diagonal peak of Jtilde.

        rho -> Jtilde(r, rho) loses smoothness at rho = r, so the grid
        trapezoid underresolves the peak by an O(dr^2 log dr) amount
        that does not shrink with the boundary radius.  kink_corr[i] is
        the accurate integral minus the trapezoid over the window
        [a, b] = [max(0, r - w), r + w], w = _kink_reach() steps, around
        the peak; tail masses subtract it so their error decays with the
        true tail instead of stalling at the quadrature bias.

        The accurate integral is the mass of J(|x - y|), |x| = r, over
        the shell a < |y| < b, taken as one integral over s = |y - x|
        (kernels.shell_mass):

            int_a^b Jtilde(r, rho) d rho = int_0^{r+b} J(s) s^{N-1} Omega(s) ds,

        split at the corners of Omega, s in {|r - a|, r + a, |b - r|,
        r + b}, with s = end +- u^2 on each half piece.  These masses
        need no table and come WINDOW_BLOCK rows per call.  The
        trapezoid reads the stored row: the table is first filled to
        n + reach rows, so every window column is a stored entry, and
        the rows filled ahead, the ones the solver reads next, are
        corrected in the same call.
        """
        if self._kink_corr.size >= n:
            return self._kink_corr[:n]
        reach, dr = self._kink_reach(), self.dr
        self.ensure(n + reach)
        top = self._rows_filled - reach
        while self._window_mass.size < top:
            ahead = self._window_mass.size + np.arange(WINDOW_BLOCK)
            mass = kmod.shell_mass(self.kernel, ahead * dr, np.maximum(ahead - reach, 0) * dr,
                                   (ahead + reach) * dr)
            self._window_mass = np.concatenate((self._window_mass, mass))
        done = self._kink_corr.size
        rows = np.arange(done, top)[:, None]
        cols = rows + np.arange(-reach, reach + 1)
        # trapezoid weights over each window [max(0, i - reach), i + reach]
        w = np.where(cols >= 0, dr, 0.0)
        w[(cols == np.maximum(rows - reach, 0)) | (cols == rows + reach)] = 0.5 * dr
        trap = np.einsum("ij,ij->i", self._data[rows, np.maximum(cols, 0)], w)
        self._kink_corr = np.concatenate((self._kink_corr, self._window_mass[done:top] - trap))
        return self._kink_corr[:n]

    def conv(self, weighted_u: np.ndarray) -> np.ndarray:
        """Row-wise dot products sum_j Jtilde(r_i, rho_j) v_j, i < len(v).

        The caller supplies v = quadrature_weight * u; the result is the
        mass-normalized trapezoid approximation of
        int Jtilde(r_i, rho) u(rho) d rho at every grid node.  A band
        table takes band_matvec of its stored rows over the row masses
        built at fill.
        """
        n = weighted_u.size
        self.ensure(n, n)
        if not self.banded:
            return self._data[:n, :n] @ weighted_u
        return band_matvec(self._data, weighted_u) / self._row_mass[:n]

    def _band_tails(self, n: int, j: float) -> tuple[int, np.ndarray]:
        """first and T(r_i, j*dr) of filled band rows first <= i < n; rows i < first
        end at or before column lo = floor(j) and leak nothing.

        Column c of row i is tail entry (i, c - i + bw), flat index 2 * bw * i
        + c + bw, so columns lo and lo + 1 are anti-diagonals.  Rows i > lo +
        bw start right of column lo, so beyond either lies tail[i, 0].
        """
        lo, bw = math.floor(j + 1e-9), self.bw
        first, last = min(max(lo - bw + 1, 0), n), min(lo + bw + 1, n)
        s0, stop = first * 2 * bw + lo + bw, last * 2 * bw + lo + bw
        flat = self._tail.ravel()
        t0 = flat[s0:stop:2 * bw]
        tails = t0 + (j - lo) * (flat[s0 + 1:stop + 1:2 * bw] - t0)
        if last < n:
            tails = np.concatenate((tails, self._tail[last:n, 0]))
        return first, tails

    def tail_mass(self, i: int, j: float) -> float:
        """T(r_i, j*dr) of one row; see tail_mass_vector."""
        return float(self.tail_mass_vector(i + 1, j)[i])

    def tail_mass_vector(self, n: int, j: float) -> np.ndarray:
        """T(r_i, j*dr) = int_{j*dr}^inf Jtilde(r_i, rho) d rho for rows i < n.

        j may be fractional: T is then linear between the bracketing
        columns lo = floor(j + 1e-9), the solver's boundary node, and
        lo + 1; an integer j reads column j alone.  Compact kernels
        integrate the stored band beyond the column, which is free of
        cancellation, and divide by the row mass; the tail rows built at
        fill hold this for every band column, and a column is read as an
        anti-diagonal of them.  Fat tails use 1 - interior - kink correction
        (the row integrates to 1 exactly).  Both are clamped to [0, 1].
        """
        if self.banded:
            self.ensure(n)
            first, tails = self._band_tails(n, j)
            return np.concatenate((np.zeros(first), tails))
        lo = math.floor(j + 1e-9)
        frac, dr = j - lo, self.dr
        cols = np.arange(lo, lo + 1 + (frac != 0))
        self.ensure(n, cols[-1] + 1)
        data, reach = self._data[:n], self._kink_reach()
        w = np.full(lo + 1, dr)  # trapezoid weights over [0, lo*dr]
        w[[0, lo]] = 0.5 * dr
        interior = data[:, :lo + 1] @ w
        if frac:  # column lo + 1 adds one trapezoid to column lo's
            interior = np.column_stack((interior, interior + dr / 2 * data[:, lo:lo + 2].sum(1)))
        # the part of the peak-window defect that lies inside [0, c*dr]
        ramp = np.minimum(np.maximum((cols - np.arange(n)[:, None]) / reach, 0.0), 1.0)
        tails = 1.0 - interior.reshape(n, -1) - self._kink_corrections(n)[:, None] * ramp
        tails = np.minimum(np.maximum(tails, 0.0), 1.0)
        return tails[:, 0] + frac * (tails[:, -1] - tails[:, 0])

    # -- persistence ----------------------------------------------------------

    def _row_width(self, n_rows: int) -> int:
        """Stored entries per row of an n_rows-row block."""
        return 2 * self.bw + 1 if self.banded else n_rows

    def save(self, path: str) -> None:
        """Write the filled rows and kink corrections to path atomically.

        Kernels without params are skipped: profiles alike at the hash's
        samples would share a file."""
        if not self.kernel.params:
            return
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
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
                or (not self.banded and nrows % DENSE_BLOCK)
                or len(raw) != head + 8 * (nrows * width + ncorr)):
            return None
        vals = np.frombuffer(raw, dtype="<f8", offset=head).astype(float)
        if not np.all(np.isfinite(vals)):
            return None
        return vals[:nrows * width].reshape(nrows, width), vals[nrows * width:]

    def load(self, path: str) -> bool:
        """Adopt cached rows if the file matches this kernel and grid.

        Returns True when rows were loaded; a kernel without params (see
        save) or a mismatched, truncated or corrupt file leaves the table
        as it was (it just refills from scratch).
        """
        if not self.kernel.params:
            return False
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return False
        parsed = self._parse(raw)
        if parsed is None:
            return False
        block, corr = parsed
        self._rows_filled, n = 0, block.shape[0]
        self._reserve(n)
        if self.banded:
            self._append_band(block)
        else:
            self._data[:n, :n] = block
            self._rows_filled = n
        # loaded rows keep their corrections; window masses are needed past them only
        self._kink_corr, self._window_mass = corr, np.full(corr.size, np.nan)
        return True

    def cache_path(self) -> str:
        name = f"{self.kernel.hash()}_N{self.kernel.dim}_dr{self.dr:.6g}.nlfbkt"
        return os.path.join(cache_dir(), name)
