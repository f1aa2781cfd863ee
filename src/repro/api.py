"""Public API: module registry and convenience entry points.

>>> from repro.api import compile_source, MATRIX, TRANSFORM
>>> result = compile_source(program_text, extensions=[MATRIX, TRANSFORM])
>>> print(result.c_source)

Extension names: ``"matrix"``, ``"tuples"`` (always packaged with the
host, see §VI-A), ``"refcount"``, ``"transform"``.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from repro.cminus.env import Optimizations
from repro.driver import CompileError, CompileResult, LanguageModule, Translator

MATRIX = "matrix"
TUPLES = "tuples"
REFCOUNT = "refcount"
TRANSFORM = "transform"
CILK = "cilk"


# Module construction runs one-time AG installation steps guarded by plain
# check-then-set flags; lru_cache alone would let two threads racing into a
# cold registry both execute the constructors and observe half-installed
# specs.  The lock serializes first construction; after that every caller
# gets the cached dict without contention.
_registry_lock = threading.Lock()


def _registry() -> dict[str, LanguageModule]:
    with _registry_lock:
        return _build_registry()


@lru_cache(maxsize=1)
def _build_registry() -> dict[str, LanguageModule]:
    # Imports deferred: each module file installs its AG declarations on
    # first import.
    from repro.cminus.module import host_module
    from repro.exts.cilk import cilk_module
    from repro.exts.matrix import matrix_module
    from repro.exts.refcount import refcount_module
    from repro.exts.transform import transform_module
    from repro.exts.tuples import tuples_module

    from repro.exts.unrolljam import unrolljam_module

    mods = [
        host_module(),
        tuples_module(),
        refcount_module(),
        matrix_module(),
        transform_module(),
        cilk_module(),
        unrolljam_module(),
    ]
    return {m.name: m for m in mods}


def module_registry() -> dict[str, LanguageModule]:
    return _registry()


def host_only() -> list[LanguageModule]:
    reg = module_registry()
    # Tuples are packaged with the host (they fail the determinism
    # analysis, §VI-A) — exactly as the paper does.
    return [reg["cminus"], reg["tuples"]]


def make_translator(
    extensions: list[str] | None = None,
    *,
    options: Optimizations | None = None,
    nthreads: int = 4,
    fresh: bool = False,
) -> Translator:
    """The custom translator for the chosen extension set.

    Served from the process-wide translator cache (S21): repeated calls
    with an equivalent configuration — same extensions, optimization
    flags and thread count — return one shared, reentrant translator,
    and cold builds restore parse tables / scanner DFAs from the
    persistent artifact cache when possible.  ``fresh=True`` bypasses
    the cache and regenerates everything (benchmarks, isolation).
    """
    if fresh:
        reg = module_registry()
        modules = host_only()
        for name in extensions or []:
            if name in ("cminus", "tuples"):
                continue
            if name not in reg:
                raise ValueError(f"unknown extension {name!r}; have {sorted(reg)}")
            modules.append(reg[name])
        return Translator(modules, options=options, nthreads=nthreads)
    from repro.service.cache import shared_cache

    return shared_cache().get(extensions, options=options, nthreads=nthreads)


def compile_source(
    source: str,
    extensions: list[str] | None = None,
    *,
    options: Optimizations | None = None,
    nthreads: int = 4,
    filename: str = "<input>",
) -> CompileResult:
    """One-shot compile through the shared translator cache."""
    t = make_translator(extensions, options=options, nthreads=nthreads)
    return t.compile(source, filename)


def run_source(
    source: str,
    extensions: list[str] | None = None,
    inputs=None,
    *,
    engine: str = "vm",
    workdir=None,
    output_names: list[str] | None = None,
    nthreads: int | None = None,
    options: Optimizations | None = None,
    parallel_backend: str | None = None,
):
    """Translate and execute on a Python engine in one call.

    ``engine="vm"`` (default) runs the register-bytecode VM with
    numpy-batched loops; ``engine="tree"`` runs the tree-walking
    reference interpreter.  Returns ``(rc, outputs, stats, executor)``
    — see :func:`repro.cexec.interp.run_program`.

    ``nthreads`` sizes the VM's fork-join worker pool (S23); ``None``
    defers to the ``REPRO_THREADS`` environment variable, defaulting to
    sequential.  ``parallel_backend`` selects shard execution:
    ``"thread"`` (in-process pool), ``"process"`` (S27 shared-memory
    process pool, safety-gated with thread fallback) or ``"auto"``
    (process when eligible); ``None`` defers to
    ``REPRO_PARALLEL_BACKEND``.  Parallel runs are observationally
    identical to sequential ones on every backend.  Without a
    ``workdir`` the run's temporary directory is removed on return.
    """
    from repro.cexec.interp import run_program

    return run_program(
        source,
        list(extensions or []),
        inputs,
        workdir=workdir,
        output_names=output_names,
        nthreads=nthreads,
        options=options,
        engine=engine,
        parallel_backend=parallel_backend,
    )


__all__ = [
    "CompileError",
    "CompileResult",
    "MATRIX",
    "Optimizations",
    "REFCOUNT",
    "TRANSFORM",
    "TUPLES",
    "Translator",
    "compile_source",
    "host_only",
    "make_translator",
    "module_registry",
    "run_source",
]
