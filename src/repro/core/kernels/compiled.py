"""Compiled kernel backend: a small C library loaded through ctypes.

One provider implements the five kernels (deviation maxima, stacked
scores, segment maxima, box ``Prob``, gap DP):

``cnative``
    A small C translation unit compiled on first use with the system C
    compiler (``cc``/``gcc``/``clang``) into a content-hashed shared
    library under a cache directory, loaded via ``ctypes``.

It is not required: :func:`load_provider` raises with a precise reason
when the library cannot be built (no C compiler, say), and the registry in
:mod:`repro.core.kernels` degrades to the numpy backend with a structured
log warning.  Forcing is available via ``REPRO_KERNELS=cnative|none``.

Numerical notes
---------------
The evaluation kernels (devmax / stacked / segmax / gap DP) accumulate in
exactly the reference order (see :mod:`repro.core.kernels.numpy_ref`), so
they are bit-identical to numpy.  The box ``Prob`` kernel
is the one exception: it uses the C library's ``erf`` (libm), which may
differ from scipy's by a couple of ULPs.  An index built through it is
therefore tagged in the index-cache key (``prob_tag``) so it never
masquerades as a reference-built index, and the differential oracle gives
compiled backends a small nonzero budget.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.obs import logs
from repro.uncertainty import gaussian
from repro.uncertainty.gaussian import ProbModel

_log = logs.get_logger("kernels.compiled")

__all__ = ["CompiledKernels", "load_provider", "PROVIDER_CHOICES"]

PROVIDER_CHOICES = ("cnative",)


# -- the C translation unit ---------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Deviation accumulation per (pattern, window), then a max sweep per
 * trajectory.  Accumulation order matches the numpy reference (pattern
 * offset j ascending, entries in (cell, row) order), so sums are
 * bit-identical.  scratch must be all zeros on entry and is restored to
 * zeros before returning; touched holds the windows dirtied per pattern.
 * out is (n_patterns, n_traj), zero-filled by the caller. */
void batch_devmax_f64(
    const int64_t *cells, int64_t n_patterns, int64_t m,
    const int64_t *start, const int64_t *count,
    const int64_t *rows, const double *vals, double floor_,
    const uint8_t *valid, int64_t n_windows, const int64_t *win_traj,
    int64_t n_traj, double *scratch, int64_t *touched, double *out)
{
    for (int64_t p = 0; p < n_patterns; ++p) {
        int64_t nt = 0;
        const int64_t *pc = cells + p * m;
        for (int64_t j = 0; j < m; ++j) {
            const int64_t c = pc[j];
            if (c < 0) continue;
            const int64_t e0 = start[c], e1 = e0 + count[c];
            for (int64_t e = e0; e < e1; ++e) {
                const int64_t w = rows[e] - j;
                if (w < 0 || w >= n_windows || !valid[w]) continue;
                const double d = vals[e] - floor_;
                /* d == 0 adds nothing to the reference sum; skipping it
                 * keeps the touched list duplicate-free. */
                if (d <= 0.0) continue;
                if (scratch[w] == 0.0) touched[nt++] = w;
                scratch[w] += d;
            }
        }
        double *orow = out + p * n_traj;
        for (int64_t t = 0; t < nt; ++t) {
            const int64_t w = touched[t];
            const double s = scratch[w];
            scratch[w] = 0.0;
            const int64_t tr = win_traj[w];
            if (s > orow[tr]) orow[tr] = s;
        }
    }
}

/* Scatter deviations on top of a caller-prefilled baseline matrix. */
void stacked_add_f64(
    const int64_t *cells, int64_t n_patterns, int64_t m,
    const int64_t *start, const int64_t *count,
    const int64_t *rows, const double *vals, double floor_,
    int64_t n_windows, double *out)
{
    for (int64_t p = 0; p < n_patterns; ++p) {
        double *orow = out + p * n_windows;
        const int64_t *pc = cells + p * m;
        for (int64_t j = 0; j < m; ++j) {
            const int64_t c = pc[j];
            if (c < 0) continue;
            const int64_t e0 = start[c], e1 = e0 + count[c];
            for (int64_t e = e0; e < e1; ++e) {
                const int64_t w = rows[e] - j;
                if (w < 0 || w >= n_windows) continue;
                orow[w] += vals[e] - floor_;
            }
        }
    }
}

/* np.maximum.reduceat over non-empty segments. */
void segment_maxima_f64(
    const double *vals, int64_t n_vals, const int64_t *seg_starts,
    int64_t n_segs, double *out)
{
    for (int64_t s = 0; s < n_segs; ++s) {
        const int64_t lo = seg_starts[s];
        const int64_t hi = (s + 1 < n_segs) ? seg_starts[s + 1] : n_vals;
        double best = vals[lo];
        for (int64_t e = lo + 1; e < hi; ++e)
            if (vals[e] > best) best = vals[e];
        out[s] = best;
    }
}

/* Box Prob: product of two normal-CDF interval masses, libm erf. */
void prob_box_f64(
    const double *mean, const double *sigma, const double *center,
    double delta, int64_t n, double *out)
{
    const double sqrt2 = 1.4142135623730951;  /* np.sqrt(2.0) */
    for (int64_t i = 0; i < n; ++i) {
        const double s = sigma[i];
        double lo = (center[2 * i] - delta - mean[2 * i]) / s;
        double hi = (center[2 * i] + delta - mean[2 * i]) / s;
        const double px =
            0.5 * (1.0 + erf(hi / sqrt2)) - 0.5 * (1.0 + erf(lo / sqrt2));
        lo = (center[2 * i + 1] - delta - mean[2 * i + 1]) / s;
        hi = (center[2 * i + 1] + delta - mean[2 * i + 1]) / s;
        const double py =
            0.5 * (1.0 + erf(hi / sqrt2)) - 0.5 * (1.0 + erf(lo / sqrt2));
        out[i] = px * py;
    }
}

/* Gap DP over flattened per-segment window scores; returns the best summed
 * log-prob (or -inf).  best/nxt are caller scratch of size `length`. */
double gap_dp_f64(
    const double *scores, const int64_t *offsets, const int64_t *seg_lens,
    int64_t n_segments, const int64_t *gap_min, const int64_t *gap_max,
    int64_t length, double *best, double *nxt)
{
    const double NEG = -INFINITY;
    for (int64_t t = 0; t < length; ++t) best[t] = NEG;
    const int64_t n0 = seg_lens[0];
    for (int64_t t = n0 - 1; t < length; ++t)
        best[t] = scores[offsets[0] + t - (n0 - 1)];
    for (int64_t j = 1; j < n_segments; ++j) {
        const int64_t n = seg_lens[j];
        const double *sj = scores + offsets[j];
        for (int64_t t = 0; t < length; ++t) nxt[t] = NEG;
        for (int64_t t = n - 1; t < length; ++t) {
            const int64_t s = t - n + 1;
            const int64_t hi = s - 1 - gap_min[j - 1];
            if (hi < 0) continue;
            int64_t lo = s - 1 - gap_max[j - 1];
            if (lo < 0) lo = 0;
            double pb = NEG;
            for (int64_t q = lo; q <= hi; ++q)
                if (best[q] > pb) pb = best[q];
            if (pb == NEG) continue;
            nxt[t] = pb + sj[s];
        }
        double *tmp = best; best = nxt; nxt = tmp;
    }
    double top = NEG;
    for (int64_t t = 0; t < length; ++t)
        if (best[t] > top) top = best[t];
    return top;
}
"""


# -- providers ----------------------------------------------------------------


class _Provider:
    """Uniform callable bundle a :class:`CompiledKernels` drives (float64)."""

    __slots__ = ("name", "devmax", "stacked_add", "segmax", "prob_box", "gap_dp")

    def __init__(self, name, devmax, stacked_add, segmax, prob_box, gap_dp):
        self.name = name
        self.devmax = devmax
        self.stacked_add = stacked_add
        self.segmax = segmax
        self.prob_box = prob_box
        self.gap_dp = gap_dp


def _lib_cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _build_cnative_provider() -> _Provider:
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = _lib_cache_dir()
    lib_path = cache_dir / f"repro-kernels-{digest}.so"
    if not lib_path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        src_path = cache_dir / f"repro-kernels-{digest}.c"
        src_path.write_text(_C_SOURCE, encoding="utf-8")
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, "-O3", "-fPIC", "-shared", "-o", tmp, str(src_path), "-lm"],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{cc} failed ({proc.returncode}): {proc.stderr.strip()[:400]}"
                )
            os.replace(tmp, lib_path)  # atomic: concurrent builders converge
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        _log.info(
            "compiled native kernel library",
            extra={"cc": cc, "path": str(lib_path)},
        )
    lib = ctypes.CDLL(str(lib_path))

    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    ptr = ctypes.c_void_p
    lib.batch_devmax_f64.restype = None
    lib.batch_devmax_f64.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, f64,
                                     ptr, i64, ptr, i64, ptr, ptr, ptr]
    lib.stacked_add_f64.restype = None
    lib.stacked_add_f64.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, f64,
                                    i64, ptr]
    lib.segment_maxima_f64.restype = None
    lib.segment_maxima_f64.argtypes = [ptr, i64, ptr, i64, ptr]
    lib.prob_box_f64.restype = None
    lib.prob_box_f64.argtypes = [ptr, ptr, ptr, f64, i64, ptr]
    lib.gap_dp_f64.restype = f64
    lib.gap_dp_f64.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, i64, ptr, ptr]

    def _p(arr: np.ndarray):
        return ctypes.c_void_p(arr.ctypes.data)

    def devmax(cells, start, count, rows, vals, floor_, valid, n_windows,
               win_traj, scratch, touched, out):
        lib.batch_devmax_f64(
            _p(cells), cells.shape[0], cells.shape[1], _p(start), _p(count),
            _p(rows), _p(vals), float(floor_), _p(valid), n_windows,
            _p(win_traj), out.shape[1], _p(scratch), _p(touched), _p(out),
        )

    def stacked_add(cells, start, count, rows, vals, floor_, n_windows, out):
        lib.stacked_add_f64(
            _p(cells), cells.shape[0], cells.shape[1], _p(start), _p(count),
            _p(rows), _p(vals), float(floor_), n_windows, _p(out),
        )

    def segmax(vals, seg_starts, out):
        lib.segment_maxima_f64(
            _p(vals), len(vals), _p(seg_starts), len(seg_starts), _p(out)
        )

    def prob_box(mean, sigma, center, delta, out):
        lib.prob_box_f64(_p(mean), _p(sigma), _p(center), float(delta),
                         len(out), _p(out))

    def gap_dp(scores, offsets, seg_lens, gap_min, gap_max, length, best, nxt):
        return lib.gap_dp_f64(_p(scores), _p(offsets), _p(seg_lens),
                              len(seg_lens), _p(gap_min), _p(gap_max),
                              length, _p(best), _p(nxt))

    return _Provider("cnative", devmax, stacked_add, segmax, prob_box, gap_dp)


def load_provider(name: str) -> _Provider:
    """Build the named provider, raising with a precise reason on failure."""
    if name == "cnative":
        return _build_cnative_provider()
    raise ValueError(f"unknown compiled provider {name!r}")


# -- the backend --------------------------------------------------------------


class CompiledKernels:
    """Kernel backend driving the compiled (cnative) provider."""

    compiled = True

    def __init__(self, provider: _Provider) -> None:
        self._p = provider
        self.provider = provider.name
        self.name = provider.name
        #: The box Prob kernel uses libm erf, which may differ from
        #: scipy's by ~2 ULPs -- indexes built through it get a distinct
        #: cache-key tag so they never alias reference-built files.
        self.prob_tag = provider.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledKernels(provider={self.provider})"

    def batch_devmax(self, cells_matrix, start, count, rows, vals, floor,
                     valid, n_windows, win_traj, arena, out) -> None:
        if n_windows <= 0:
            return
        cells_matrix = np.ascontiguousarray(cells_matrix, dtype=np.int64)
        scratch = arena.get("devmax.scratch", (n_windows,))
        touched = arena.get("devmax.touched", (n_windows,), np.int64)
        self._p.devmax(
            cells_matrix, start, count, rows, vals, floor,
            valid.view(np.uint8), n_windows, win_traj, scratch, touched, out,
        )

    def stacked_scores(self, cells_matrix, n_spec, start, count, rows, vals,
                       floor, n_windows, out) -> None:
        cells_matrix = np.ascontiguousarray(cells_matrix, dtype=np.int64)
        # Same baseline as the reference backend.
        out[:] = (floor * n_spec.astype(np.float64))[:, None]
        self._p.stacked_add(
            cells_matrix, start, count, rows, vals, floor, n_windows, out
        )

    def segment_maxima(self, vals, seg_starts) -> np.ndarray:
        if not seg_starts.size:
            return np.empty(0, dtype=vals.dtype)
        out = np.empty(len(seg_starts), dtype=vals.dtype)
        self._p.segmax(vals, seg_starts, out)
        return out

    def prob_within(self, mean, sigma, center, delta,
                    model: ProbModel = ProbModel.BOX, out=None) -> np.ndarray:
        mean = np.ascontiguousarray(mean, dtype=np.float64)
        sigma = np.ascontiguousarray(sigma, dtype=np.float64)
        center = np.ascontiguousarray(center, dtype=np.float64)
        bulk_box = (
            model is ProbModel.BOX
            and mean.ndim == 2
            and mean.shape[1] == 2
            and center.shape == mean.shape
            and sigma.shape == (mean.shape[0],)
        )
        if not bulk_box:
            # Disk geometry and scalar/broadcast shapes stay on scipy.
            return gaussian.prob_within(mean, sigma, center, delta,
                                        model=model, out=out)
        if np.any(sigma <= 0):
            raise ValueError("sigma must be positive")
        if delta <= 0:
            raise ValueError("delta must be positive")
        if out is None:
            out = np.empty(mean.shape[0])
        self._p.prob_box(mean, sigma, center, float(delta), out)
        return out

    def gap_dp(self, seg_scores, seg_lens, gap_mins, gap_maxs, length, arena) -> float:
        scores = [np.ascontiguousarray(s, dtype=np.float64) for s in seg_scores]
        lens = np.array([len(s) for s in scores], dtype=np.int64)
        offsets = np.zeros(len(scores), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        flat = np.concatenate(scores) if scores else np.empty(0)
        best = arena.get("gap.best", (length,), np.float64)
        nxt = arena.get("gap.nxt", (length,), np.float64)
        return float(
            self._p.gap_dp(
                flat, offsets, np.asarray(seg_lens, dtype=np.int64),
                np.asarray(gap_mins, dtype=np.int64),
                np.asarray(gap_maxs, dtype=np.int64), length, best, nxt,
            )
        )
