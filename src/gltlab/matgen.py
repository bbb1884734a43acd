"""Dense generators: multilevel block Toeplitz and diagonal sampling matrices.

Matrices are dense at desk scale by design.  :func:`toeplitz` writes each
offset's coefficient block straight into the rows and columns it occupies;
the offsets touch disjoint entries, so the result equals the naive block fill
bit for bit.

Dtype rule: a matrix is float64 when its entries are exactly real (every
Toeplitz coefficient, every diagonal sample has imaginary part 0) and
complex128 otherwise.  Real matrices take the real LAPACK paths, which are
2-4 times faster than the complex ones on the same values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError, SizeCapError
from .multiindex import (
    MultiIndex,
    check_size,
    format_multiindex,
    iter_interval,
    lex_rank,
    nu,
    size_interval,
)
from .symbols import HERMITIAN_RTOL, CoefficientFunction, Symbol, TrigPolynomial

DEFAULT_SIZE_CAP = 8192
_STRIP = 1 << 16  # entries a strip-wise matrix test reads at once
_BINARY_MAGIC = b"GLTM"


@dataclass(eq=False)
class BlockMatrix:
    """A dense matrix with its d-level r-block structure metadata.

    ``data`` is float64 when every imaginary part is exactly zero (the
    downcast is lossless) and complex128 otherwise.  ``notes`` carries
    non-fatal diagnostics (e.g. pseudo-inverse conditioning warnings)
    attached during materialization.  ``symmetrizer``, when set, is a
    positive vector w for which W^-1 A W (W = diag(w)) may be Hermitian: a
    hint that :func:`~gltlab.spectra.spectrum` tests, never a decision.
    """

    data: np.ndarray
    r: int
    n: MultiIndex
    notes: tuple[str, ...] = field(default_factory=tuple)
    symmetrizer: np.ndarray | None = None

    def __post_init__(self):
        self.n = check_size(self.n)
        self.data = _exact_dtype(np.asarray(self.data))
        expected = self.r * nu(self.n)
        if self.data.shape != (expected, expected):
            raise ConfigurationError(
                f"matrix shape {self.data.shape} != block structure size {expected}"
            )
        if self.symmetrizer is not None and np.shape(self.symmetrizer) != (expected,):
            raise ConfigurationError(
                f"symmetrizer shape {np.shape(self.symmetrizer)} != ({expected},)"
            )

    @property
    def d(self) -> int:
        return len(self.n)

    @property
    def size(self) -> int:
        return self.data.shape[0]

    def block(self, i: Sequence[int], j: Sequence[int]) -> np.ndarray:
        interval = size_interval(self.n)
        a = lex_rank(i, interval) * self.r
        b = lex_rank(j, interval) * self.r
        return self.data[a : a + self.r, b : b + self.r]

    def write_csv(self, fh) -> None:
        """Entry listing as ``i,j,re,im`` with 1-based indices."""
        fh.write("i,j,re,im\n")
        for i in range(self.size):
            row = self.data[i]
            for j in range(self.size):
                v = complex(row[j])
                fh.write(f"{i + 1},{j + 1},{v.real!r},{v.imag!r}\n")

    def write_binary(self, fh) -> None:
        """Compact dump: magic ``GLTM``, uint32 r, uint32 d, d x uint32 n,
        then row-major (re, im) pairs as little-endian float64."""
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<II", self.r, self.d))
        fh.write(struct.pack(f"<{self.d}I", *self.n))
        inter = np.empty((self.size, self.size, 2))
        inter[:, :, 0] = self.data.real
        inter[:, :, 1] = self.data.imag
        fh.write(inter.astype("<f8").tobytes())

    @classmethod
    def read_binary(cls, fh) -> "BlockMatrix":
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ConfigurationError(f"bad magic {magic!r}")
        r, d = struct.unpack("<II", fh.read(8))
        n = struct.unpack(f"<{d}I", fh.read(4 * d))
        size = r * nu(n)
        raw = np.frombuffer(fh.read(size * size * 16), dtype="<f8").reshape(size, size, 2)
        return cls(raw[:, :, 0] + 1j * raw[:, :, 1], r, n)


def _exact_dtype(arr: np.ndarray) -> np.ndarray:
    """float64 when ``arr`` has no non-zero imaginary part, else complex128."""
    if np.iscomplexobj(arr):
        if np.any(arr.imag):
            return arr.astype(complex, copy=False)
        arr = arr.real
    return np.ascontiguousarray(arr, dtype=float)


def as_array(matrix, notes: list[str] | None = None) -> np.ndarray:
    """Accept a BlockMatrix or a bare ndarray; a BlockMatrix's notes not yet
    in ``notes`` are appended to it."""
    if isinstance(matrix, BlockMatrix):
        if notes is not None:
            notes.extend(note for note in matrix.notes if note not in notes)
        return matrix.data
    return np.asarray(matrix)


def _check_cap(rows: int, cap: int | None):
    cap = DEFAULT_SIZE_CAP if cap is None else cap
    if rows > cap:
        raise SizeCapError(f"requested {rows} rows exceeds the size cap {cap}")


def toeplitz(f: TrigPolynomial, n: int | Sequence[int], cap: int | None = None) -> BlockMatrix:
    """Multilevel block Toeplitz matrix with block (i, j) = fhat_{i-j}.

    For each offset k the block rows i with i - k inside the size box get
    fhat_k at block column i - k, whose lexicographic rank is rank(i) minus
    k's flat offset.  float64 when every coefficient is real.
    """
    n = check_size(n)
    if len(n) != f.d:
        raise ConfigurationError(f"size {n} has {len(n)} levels, symbol has {f.d}")
    count = nu(n)
    _check_cap(f.r * count, cap)
    real = not any(np.any(block.imag) for block in f.coeffs.values())
    out = np.zeros((count, f.r, count, f.r), dtype=float if real else complex)
    strides = np.cumprod((1,) + n[:0:-1])[::-1]
    for k, block in f.coeffs.items():
        if any(abs(kj) >= nj for kj, nj in zip(k, n)):
            continue
        ranges = [np.arange(max(kj, 0), nj + min(kj, 0)) for kj, nj in zip(k, n)]
        rows = np.ravel_multi_index(np.ix_(*ranges), n).ravel()
        out[rows, :, rows - int(np.dot(k, strides)), :] = block.real if real else block
    return BlockMatrix(out.reshape(f.r * count, f.r * count), f.r, n)


def sampling_grid(n: int | Sequence[int]) -> np.ndarray:
    """Lexicographically ordered grid {i/n : i = 1..n} as an (nu(n), d) array."""
    n = check_size(n)
    pts = np.array(list(iter_interval(size_interval(n))), dtype=float)
    return pts / np.asarray(n, dtype=float)


def diag_samples(a, n: int | Sequence[int], r: int | None = None,
                 cap: int | None = None) -> np.ndarray:
    """The blocks a(i/n), i enumerated lexicographically, as an (nu(n), r, r)
    array; float64 when every sample is real.  The size cap is checked before
    anything is evaluated, and a non-finite sample raises
    :class:`EvaluationError` naming its grid node."""
    n = check_size(n)
    if isinstance(a, Symbol):
        if a.depends_frequency:
            raise ConfigurationError("diagonal sampling requires a space-only symbol")
        sym = a
    elif callable(a):
        if r is None:
            r = 1
        sym = CoefficientFunction.from_scalar(len(n), a) if r == 1 else CoefficientFunction(len(n), r, a)
    else:
        sym = CoefficientFunction.constant(len(n), a)
    if sym.d != len(n):
        raise ConfigurationError(f"coefficient has d={sym.d}, size has {len(n)} levels")
    rows = sym.r * nu(n)
    _check_cap(rows, cap)
    grid = sampling_grid(n)
    vals = sym._eval(grid, np.zeros_like(grid))
    if not np.all(np.isfinite(vals)):
        ok = np.isfinite(vals.reshape(vals.shape[0], -1)).all(axis=1)
        bad = int(np.argmin(ok))
        node = tuple(int(round(v)) for v in grid[bad] * np.asarray(n))
        raise EvaluationError(
            f"coefficient evaluation failed at grid node {format_multiindex(node)}",
            node=node,
        )
    return _exact_dtype(vals)


def diag_sampling(a, n: int | Sequence[int], r: int | None = None,
                  cap: int | None = None) -> BlockMatrix:
    """Block diagonal matrix with i-th block a(i/n), i enumerated lexicographically;
    float64 when every sample is real."""
    vals = diag_samples(a, n, r, cap)
    count, rb = vals.shape[:2]
    out = np.zeros((count, rb, count, rb), dtype=vals.dtype)
    idx = np.arange(count)
    out[idx, :, idx, :] = vals
    return BlockMatrix(out.reshape(count * rb, count * rb), rb, n)


def identity(n: int | Sequence[int], r: int = 1) -> BlockMatrix:
    n = check_size(n)
    return BlockMatrix(np.eye(r * nu(n)), r, n)


def zeros(n: int | Sequence[int], r: int = 1) -> BlockMatrix:
    n = check_size(n)
    return BlockMatrix(np.zeros((r * nu(n), r * nu(n))), r, n)


def row_strips(stop: int, width: int):
    """(lo, hi) bounds that cover rows [0, stop) of a matrix ``width`` columns
    wide: row 0 alone first, so that a structure test can reject most other
    matrices in O(N), then strips of at most ``_STRIP`` entries, so that no
    N x N temporary is made."""
    edges = [0, *range(1, stop, max(1, _STRIP // width)), stop]
    return list(zip(edges, edges[1:]))


def is_hermitian(matrix) -> bool:
    """||A - A*||_F <= HERMITIAN_RTOL ||A||_F.

    Both squared norms are summed over strips of rows, so no N x N temporary
    is made.  The sums round differently from one norm of the whole
    difference, so only a matrix within rounding of the threshold can be
    decided otherwise than by ``norm(A - A*) <= HERMITIAN_RTOL * norm(A)``.
    """
    arr = as_array(matrix)
    skew = scale = 0.0
    for lo, hi in row_strips(arr.shape[0], arr.shape[1]):
        rows = arr[lo:hi]
        diff = rows - arr[:, lo:hi].conj().T
        skew += np.vdot(diff, diff).real
        scale += np.vdot(rows, rows).real
    return bool(np.sqrt(skew) <= HERMITIAN_RTOL * max(np.sqrt(scale), 1e-300))
