"""Parallel scenario execution across worker processes.

The evaluation suite regenerates its tables from hundreds of independent,
seeded scenario runs, so the harness fans them out over a process pool:

* ``run_tasks`` is the generic layer: it runs a module-level function over a
  list of keyword-argument dicts on a ``ProcessPoolExecutor`` and collects
  the results **in submission order**, with a per-task result timeout,
  bounded retry, and an in-process serial fallback as the last resort (which
  also surfaces deterministic errors with their real traceback).
* ``run_scenarios`` is the scenario layer: each ``(overrides, base config)``
  point is resolved with :func:`repro.harness.sweep.apply_overrides`, shipped
  to the worker as the plain-data dict produced by
  :mod:`repro.harness.serialize` (the same transport the CLI's
  ``--save``/``--config`` replay path uses), rebuilt, run, and reduced to a
  picklable value by a caller-supplied ``extract`` function.

Scenarios are fully deterministic given their seed and extraction is pure,
so the results are identical whatever the worker count — ``workers=1`` and
``workers=N`` must (and do) produce byte-identical tables.  Workers are
started with the ``spawn`` method: every entrypoint here is a module-level
function pickled by reference, so the harness works on platforms where
``fork`` is unavailable or unsafe.

That same determinism makes extracted results cacheable: when a
:class:`repro.harness.cache.SweepCache` is installed (explicitly or via
``repro experiment --cache``), ``run_scenarios`` consults it per point
before dispatching anything and only the misses are simulated; hits,
misses and stores are tallied on the cache's stats.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:
    from repro.harness.cache import SweepCache

from repro.harness import transport as _transport
from repro.harness.scenario import (
    ScenarioConfig,
    ScenarioResult,
    effective_config,
    run_scenario,
)
from repro.harness.serialize import config_from_dict, config_to_dict

__all__ = [
    "resolve_workers",
    "run_tasks",
    "run_scenarios",
    "shutdown_pool",
    "pool_transport_stats",
    "reset_pool_transport_stats",
]


@dataclass
class PoolTransportStats:
    """Lifetime tallies of how pool results travelled (what the CLI prints).

    ``shm_fallbacks`` counts results that *wanted* the shm plane but rode
    the pickle channel instead (packing or segment creation failed in the
    worker); ``pickle_results`` counts every result that crossed the
    executor's pickle channel, fallbacks included.  ``swept_segments``
    counts orphaned segments reclaimed by cleanup (timeout/retry/broken
    pool) — nonzero sweeps with zero leaks is the design working.
    """

    transport: str = "pickle"
    shm_results: int = 0
    shm_bytes: int = 0
    pickle_results: int = 0
    shm_fallbacks: int = 0
    swept_segments: int = 0

    def describe(self) -> str:
        return (
            f"transport: {self.transport}, {self.shm_results} shm results "
            f"({self.shm_bytes} bytes), {self.pickle_results} pickle results"
            + (f", {self.shm_fallbacks} shm fallbacks" if self.shm_fallbacks else "")
            + (f", {self.swept_segments} segments swept" if self.swept_segments else "")
        )


_transport_stats = PoolTransportStats()

# Every shm segment name this process has issued and not yet retired.
# Names are issued parent-side *before* submission so the parent can
# always sweep what it issued, even when the worker that was filling a
# segment died or outran a timeout.
_live_segments: set[str] = set()


def pool_transport_stats() -> PoolTransportStats:
    return _transport_stats


def reset_pool_transport_stats() -> None:
    global _transport_stats
    _transport_stats = PoolTransportStats()


def _sweep_segments(force: bool = False) -> None:
    """Reclaim orphaned segments.

    A name stays registered when its segment cannot be found: a timed-out
    worker may still be about to create it.  ``force=True`` (used after
    the worker fleet is dead) retires those names too — nobody is left to
    create them.
    """
    for name in list(_live_segments):
        if _transport.shm_discard(name):
            _transport_stats.swept_segments += 1
            _live_segments.discard(name)
        elif force:
            _live_segments.discard(name)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request: ``None`` means one per CPU."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


# One cached executor, reused across experiment calls so the spawn cost is
# paid once per process, not once per table.
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is None or _pool_workers != workers:
        shutdown_pool()
        _pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        )
        _pool_workers = workers
    return _pool


def shutdown_pool(timeout_s: float = 5.0) -> None:
    """Dispose of the cached worker pool (also runs at interpreter exit).

    ``Executor.shutdown(wait=False, cancel_futures=True)`` only cancels
    *queued* futures — a worker already simulating keeps going, and a
    spawn worker abandoned at interpreter exit (Ctrl-C mid-sweep, an
    atexit teardown) outlives its parent as an orphan burning a core.
    So disposal also terminates every worker process still alive and
    joins it (bounded by ``timeout_s``, escalating to ``kill``).
    """
    global _pool, _pool_workers
    if _pool is None:
        return
    pool, _pool, _pool_workers = _pool, None, 0
    # Private, but the only handle on the worker processes; taken before
    # shutdown() because shutdown may clear it.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    deadline_each = max(0.1, timeout_s / max(1, len(processes)))
    for process in processes:
        process.join(timeout=deadline_each)
        if process.is_alive():
            process.kill()
            process.join(timeout=deadline_each)
    # With the fleet dead, every issued-but-unseen segment is either on
    # disk (unlink it) or will never exist (forget it).
    _sweep_segments(force=True)


atexit.register(shutdown_pool)


def _invoke(fn: Callable[..., Any], kwargs: dict[str, Any]) -> Any:
    """Worker-side trampoline: apply a task's keyword arguments."""
    return fn(**kwargs)


_SHM_RESULT = "__repro_shm_result__"
_RAW_RESULT = "__repro_raw_result__"


def _invoke_shm(
    fn: Callable[..., Any], kwargs: dict[str, Any], segment: str
) -> Any:
    """Worker-side trampoline for the shm plane.

    The extracted value is packed and written into the parent-issued
    segment; only ``(marker, name, packed_length)`` rides the executor's
    pickle channel.  Any packing or segment failure degrades to returning
    the raw value over pickle (tallied parent-side), never to losing the
    result.
    """
    value = fn(**kwargs)
    try:
        data = _transport.pack(value)
        _transport.shm_put(segment, data)
    except Exception:
        return (_RAW_RESULT, value)
    return (_SHM_RESULT, segment, len(data))


def _consume_result(outcome: Any) -> Any:
    """Parent-side decode of one worker return value (any transport)."""
    if type(outcome) is tuple:
        if len(outcome) == 3 and outcome[0] == _SHM_RESULT:
            name, length = outcome[1], outcome[2]
            value = _transport.shm_get(name, length)
            _live_segments.discard(name)
            _transport_stats.shm_results += 1
            _transport_stats.shm_bytes += length
            return value
        if len(outcome) == 2 and outcome[0] == _RAW_RESULT:
            _transport_stats.pickle_results += 1
            _transport_stats.shm_fallbacks += 1
            return outcome[1]
    _transport_stats.pickle_results += 1
    return outcome


def run_tasks(
    fn: Callable[..., Any],
    tasks: Sequence[dict[str, Any]],
    *,
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
) -> list[Any]:
    """Run ``fn(**task)`` for every task, returning results in task order.

    ``fn`` must be a module-level callable (pickled by reference for the
    spawn-started workers).  Each task gets up to ``retries`` resubmissions
    after a failure or a ``timeout_s`` wait on its result; once those are
    exhausted the task runs serially in this process, which either completes
    it (e.g. the payload was merely unpicklable) or raises the genuine
    error with a usable traceback.  A broken pool (a worker died) disables
    parallelism for the remaining tasks instead of failing the sweep.

    Results travel back packed into shared-memory segments (see
    :mod:`repro.harness.transport`) where the host has them and over
    the executor's pickle channel otherwise; they are identical either
    way, and the serial path bypasses transport entirely.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(**task) for task in tasks]

    mode = _transport.resolve_transport()
    use_shm = mode == "shm"
    _transport_stats.transport = mode

    def submit(pool: ProcessPoolExecutor, task: dict[str, Any]) -> Any:
        if use_shm:
            name = _transport.new_segment_name()
            _live_segments.add(name)
            return pool.submit(_invoke_shm, fn, task, name)
        return pool.submit(_invoke, fn, task)

    pool = _get_pool(workers)
    results: list[Any] = []
    try:
        futures = [submit(pool, task) for task in tasks]
        for index, task in enumerate(tasks):
            future = futures[index]
            attempts = 0
            while True:
                try:
                    results.append(_consume_result(future.result(timeout=timeout_s)))
                    break
                except BrokenProcessPool:
                    # The pool is unusable for every outstanding future;
                    # finish this task (and let later iterations do the
                    # same) serially.  shutdown_pool also force-sweeps
                    # segments once the fleet is dead.
                    shutdown_pool()
                    results.append(fn(**task))
                    break
                except Exception as exc:
                    if isinstance(exc, FutureTimeoutError):
                        future.cancel()
                    if attempts >= retries:
                        results.append(fn(**task))
                        break
                    attempts += 1
                    try:
                        future = submit(_get_pool(workers), task)
                    except Exception:
                        results.append(fn(**task))
                        break
    finally:
        # Retire what this call issued but never consumed (timed-out or
        # retried attempts).  Segments a straggling worker has not created
        # *yet* stay registered for the post-shutdown force sweep.
        _sweep_segments()
    return results


def _scenario_worker(
    config_data: dict[str, Any], extract: Callable[[ScenarioResult], Any]
) -> Any:
    """Spawn-safe worker entrypoint: rebuild, run, reduce one scenario."""
    result = run_scenario(config_from_dict(config_data))
    return extract(result)


def _run_configs(
    configs: Sequence[ScenarioConfig],
    extract: Callable[[ScenarioResult], Any],
    workers: Optional[int],
    timeout_s: Optional[float],
    retries: int,
) -> list[Any]:
    """Simulate + reduce each config, serially or through the pool."""
    if resolve_workers(workers) <= 1 or len(configs) <= 1:
        return [extract(run_scenario(config)) for config in configs]
    tasks = [
        {"config_data": config_to_dict(config), "extract": extract}
        for config in configs
    ]
    return run_tasks(
        _scenario_worker,
        tasks,
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
    )


def run_scenarios(
    base: ScenarioConfig,
    points: Sequence[dict[str, Any]],
    *,
    extract: Optional[Callable[[ScenarioResult], Any]] = None,
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    cache: Optional["SweepCache"] = None,
) -> list[Any]:
    """Run one scenario per override point, fanned out across workers.

    Args:
        base: the scenario every point starts from.
        points: dotted-path override dicts (see
            :func:`repro.harness.sweep.apply_overrides`); an empty dict runs
            ``base`` unchanged.
        extract: module-level function reducing a :class:`ScenarioResult`
            to a picklable value.  Without one the full (unpicklable)
            results are needed, so the run degrades gracefully to serial.
        workers: process count; ``None`` means one per CPU, ``1`` forces
            the serial path.
        cache: a :class:`repro.harness.cache.SweepCache` consulted per
            point *before* anything is dispatched; misses are simulated
            and stored.  Defaults to the process-wide cache installed by
            ``repro experiment --cache`` (``None`` → no caching).  Only
            extracted values are cacheable: with ``extract=None`` the
            points are counted as skipped.

    Returns:
        One value per point, in point order, regardless of worker count
        or cache warmth (extraction is pure and runs are deterministic).
    """
    from repro.harness.cache import get_default_cache
    from repro.harness.sweep import apply_overrides

    # Stamp the process-wide --check-invariants override onto each config
    # *before* transport: spawn workers import a fresh module where the
    # override is at its default, so only the config carries it across.
    configs = [
        effective_config(apply_overrides(base, point) if point else base)
        for point in points
    ]
    if cache is None:
        cache = get_default_cache()
    if extract is None:
        if cache is not None:
            cache.stats.skipped += len(configs)
        return [run_scenario(config) for config in configs]
    if cache is None:
        return _run_configs(configs, extract, workers, timeout_s, retries)

    keys = [cache.key(config, extract) for config in configs]
    results: list[Any] = [None] * len(configs)
    pending: list[int] = []
    for index, key in enumerate(keys):
        hit, value = cache.get(key)
        if hit:
            results[index] = value
        else:
            pending.append(index)
    if pending:
        fresh = _run_configs(
            [configs[i] for i in pending], extract, workers, timeout_s, retries
        )
        # Stored parent-side: spawn workers never touch the cache files.
        for index, value in zip(pending, fresh):
            cache.put(keys[index], value)
            results[index] = value
    return results
