"""Pluggable numeric kernel backends behind the NM engine's hot loops.

The engine's measured hot loops -- the deviation gather/sort/segment-reduce
behind ``nm_batch``/``match_batch``, the stacked window-score scatter, the
per-segment maxima sweep, the chunked ``prob_within`` evaluation of index
construction, and the wildcard gap DP -- are isolated behind the narrow
:class:`KernelBackend` protocol.  Everything else in the engine is
orchestration and stays numpy.

Backends
--------
``numpy``
    The reference implementation (:mod:`repro.core.kernels.numpy_ref`);
    ground truth for the differential oracle.
``compiled``
    Tight native loops (:mod:`repro.core.kernels.compiled`): a small C
    library built once with the system compiler and driven through
    ``ctypes``.  Without a C compiler the registry degrades to ``numpy``
    and logs a structured warning.
``auto``
    ``compiled`` when available, else ``numpy`` -- silently (debug log).

Selection is config-driven end to end: ``EngineConfig(backend=...)``,
CLI ``--backend``, the ``serve.json`` snapshot field, and the obs manifest
records what actually ran.  The environment
variable ``REPRO_KERNELS`` overrides provider choice for operational
escape hatches: ``cnative`` forces the C provider, ``none``
disables compiled kernels entirely (useful to assert the fallback path).

Every backend evaluates in float64, the dtype the index is built, cached
and served in; see ``docs/KERNELS.md`` for the ULP policy.
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

import numpy as np

from repro.obs import logs
from repro.core.kernels.arena import ScratchArena
from repro.core.kernels.numpy_ref import NumpyKernels
from repro.uncertainty.gaussian import ProbModel

__all__ = [
    "BACKEND_CHOICES",
    "KernelBackend",
    "NumpyKernels",
    "ScratchArena",
    "available_backends",
    "backend_summary",
    "compiled_unavailable_reason",
    "prob_kernel_tag",
    "resolve_backend",
]

_log = logs.get_logger("kernels")

#: Values accepted by ``EngineConfig.backend`` / ``--backend``.
BACKEND_CHOICES = ("numpy", "compiled", "auto")


@runtime_checkable
class KernelBackend(Protocol):
    """The narrow surface a backend must implement.

    Array arguments follow the engine's flat-index layout: ``start`` /
    ``count`` are dense per-cell entry bounds, ``rows`` / ``vals`` the
    entry arrays sorted by (cell, row), ``floor`` the log-space floor and
    ``win_traj`` the owning trajectory of each global row.  ``arena`` is
    the calling engine's :class:`ScratchArena`; implementations draw any
    per-call scratch from it so steady-state calls allocate nothing.
    """

    name: str        #: resolved implementation ("numpy", "cnative")
    provider: str    #: toolchain behind it (same as name today)
    compiled: bool   #: True for native implementations
    prob_tag: str    #: identity of the Prob kernel ("ref" = scipy erf)

    def batch_devmax(self, cells_matrix, start, count, rows, vals, floor,
                     valid, n_windows, win_traj, arena, out) -> None:
        """Max summed window deviation per (pattern, trajectory) into ``out``."""

    def stacked_scores(self, cells_matrix, n_spec, start, count, rows, vals,
                       floor, n_windows, out) -> None:
        """Unmasked window log-sums of equal-length patterns into ``out``."""

    def segment_maxima(self, vals, seg_starts) -> np.ndarray:
        """Max entry per (cell, trajectory) segment."""

    def prob_within(self, mean, sigma, center, delta,
                    model: ProbModel = ProbModel.BOX, out=None) -> np.ndarray:
        """``Prob(l, sigma, p, delta)`` over (n, 2) pair arrays (float64)."""

    def gap_dp(self, seg_scores, seg_lens, gap_mins, gap_maxs,
               length: int, arena) -> float:
        """Best summed log-prob over admissible gap alignments, or ``-inf``."""


# -- provider resolution ------------------------------------------------------

#: Cached (provider | None, unavailable-reason | None) per REPRO_KERNELS value.
_provider_state: dict[str, tuple[object | None, str | None]] = {}
#: Cached backend instances keyed by resolved name.
_instances: dict[str, KernelBackend] = {}


def _forced() -> str:
    return os.environ.get("REPRO_KERNELS", "").strip().lower()


def _load_provider_state(forced: str) -> tuple[object | None, str | None]:
    if forced == "none":
        return None, "disabled via REPRO_KERNELS=none"
    from repro.core.kernels import compiled

    if forced and forced not in compiled.PROVIDER_CHOICES:
        return None, (
            f"unknown REPRO_KERNELS value {forced!r} "
            f"(expected one of {('none',) + compiled.PROVIDER_CHOICES})"
        )
    candidates = (forced,) if forced else compiled.PROVIDER_CHOICES
    reasons = []
    for name in candidates:
        try:
            provider = compiled.load_provider(name)
        except Exception as exc:  # toolchain probing: any failure is a reason
            reasons.append(f"{name}: {exc}")
        else:
            _log.debug(
                "compiled kernel provider ready", extra={"provider": name}
            )
            return provider, None
    return None, "; ".join(reasons)


def _provider() -> tuple[object | None, str | None]:
    forced = _forced()
    state = _provider_state.get(forced)
    if state is None:
        state = _load_provider_state(forced)
        _provider_state[forced] = state
    return state


def compiled_unavailable_reason() -> str | None:
    """Why the compiled backend cannot run here, or ``None`` if it can."""
    provider, reason = _provider()
    return None if provider is not None else (reason or "unavailable")


def available_backends() -> list[str]:
    """Backend names that resolve to themselves on this machine."""
    out = ["numpy"]
    if _provider()[0] is not None:
        out.append("compiled")
    return out


def resolve_backend(backend: str, dtype: str = "float64") -> KernelBackend:
    """The backend instance a config's ``backend`` runs on.

    ``"compiled"`` degrades to numpy with a structured warning when no
    native provider is available; ``"auto"`` degrades silently.  Instances
    are cached per implementation, so resolution is cheap enough to call
    per engine construction (including inside forked workers, where it
    naturally re-resolves against the worker's own process).  ``dtype``
    accepts only ``"float64"``, the one value dtype every backend runs in;
    it stays for callers that name it.
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {backend!r} (expected one of {BACKEND_CHOICES})"
        )
    if dtype != "float64":
        raise ValueError(f"unknown kernel dtype {dtype!r} (expected 'float64')")
    if backend == "numpy":
        return _instance("numpy")
    provider, reason = _provider()
    if provider is None:
        if backend == "compiled":
            _log.warning(
                "compiled kernel backend unavailable; falling back to numpy",
                extra={"requested": backend, "reason": reason},
            )
        else:
            _log.debug("auto backend resolved to numpy", extra={"reason": reason})
        return _instance("numpy")
    return _instance(provider.name, provider)


def _instance(name: str, provider=None) -> KernelBackend:
    inst = _instances.get(name)
    if inst is None:
        if name == "numpy":
            inst = NumpyKernels()
        else:
            from repro.core.kernels.compiled import CompiledKernels

            inst = CompiledKernels(provider)
        _instances[name] = inst
    return inst


def prob_kernel_tag(config) -> str:
    """Identity of the Prob kernel that would build ``config``'s index.

    ``"ref"`` is the scipy path the index cache has always stored (so
    default configurations keep their existing cache keys); compiled box
    kernels use libm ``erf`` (within ~2 ULPs of scipy, not bit-identical)
    and are tagged by provider name so reference- and compiled-built
    index files never alias.  The disk geometry always evaluates through
    scipy regardless of backend.
    """
    if config.prob_model is not ProbModel.BOX:
        return "ref"
    return resolve_backend(config.backend).prob_tag


def backend_summary(config) -> dict:
    """What a config resolves to on this machine (for manifests/metrics)."""
    resolved = resolve_backend(config.backend)
    summary = {
        "requested": config.backend,
        "resolved": resolved.name,
        "compiled": bool(resolved.compiled),
    }
    reason = compiled_unavailable_reason()
    if reason is not None and config.backend in ("compiled", "auto"):
        summary["fallback_reason"] = reason
    return summary
