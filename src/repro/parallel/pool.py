"""Worker-count resolution and ordered chunk mapping primitives.

This module is the dependency-free floor of :mod:`repro.parallel`: it
may be imported from anywhere in the library (including
:mod:`repro.core.phase1`) without creating an import cycle, because it
depends only on the standard library and :mod:`repro.errors`.

Worker counts resolve through one rule everywhere: an explicit
argument wins, otherwise the ``REPRO_WORKERS`` environment variable,
otherwise serial execution. Running the test suite under
``REPRO_WORKERS=4`` therefore exercises every pool-aware code path
without touching a single call site.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from ..errors import ConfigurationError, ServiceClosedError

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(
    workers: Optional[int] = None, *, default: int = 1
) -> int:
    """The effective worker count for a parallel-capable call site.

    ``workers`` wins when given; otherwise :data:`WORKERS_ENV` is
    consulted; otherwise ``default`` (serial). Always >= 1.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV}={raw!r} is not an integer") from None
        else:
            workers = default
    if workers < 1:
        raise ConfigurationError(
            f"worker count must be >= 1, got {workers}")
    return int(workers)


def thread_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` preserving order.

    With one worker this is a plain loop; otherwise a thread pool
    (numpy releases the GIL in its inner kernels, so block-wise proxy
    inference scales without pickling anything). Results are returned in input
    order either way, so callers are deterministic regardless of the
    worker count.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class PersistentPool:
    """A lazily started, long-lived process pool.

    :class:`~repro.parallel.runner.ParallelRunner` spins up one pool
    per sweep because each sweep ships its whole payload through the
    initializer. The query service instead keeps *one* pool alive for
    its lifetime and ships per-task payloads, so worker-side state
    (memoized sessions, score caches) persists across queries. This
    wrapper adds lazy startup, thread-safe submission, and idempotent
    shutdown on top of :class:`~concurrent.futures.ProcessPoolExecutor`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
    ):
        self.workers = resolve_workers(workers)
        self.start_method = start_method
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    def submit(self, fn, /, *args, **kwargs):
        """Schedule ``fn(*args, **kwargs)`` on the pool (starts lazily)."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("process pool is shut down")
            if self._executor is None:
                context = multiprocessing.get_context(self.start_method)
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context)
            return self._executor.submit(fn, *args, **kwargs)

    @property
    def started(self) -> bool:
        return self._executor is not None

    def shutdown(self, *, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
