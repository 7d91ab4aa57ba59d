"""Dispatch runtime reconfiguration onto a live scenario.

A :class:`~repro.service.session.Session` schedules every control-plane
mutation as an event on the simulation clock; when the event fires,
:func:`apply_reconfig` routes it to the validated setter the target
subsystem exposes:

==============  ========================================================
target          effect
==============  ========================================================
``detector``    retune every deployed monitor's anomaly detector
``monitor``     retune the sampling tier (probability, holddown)
``budget``      retune the inspection budget's slot limits
``spi``         retune the DPI verification window knobs
``block``       install an operator block (temporary or permanent)
``unblock``     lift an operator block
``whitelist``   add a never-block whitelist entry
``unwhitelist`` remove a whitelist entry
==============  ========================================================

Validation errors raise ``ValueError`` without mutating anything; the
session records the rejection instead of failing the run.
"""

from __future__ import annotations

from typing import Any

from repro.harness.scenario import ScenarioResult

RECONFIG_TARGETS = (
    "detector",
    "monitor",
    "budget",
    "spi",
    "block",
    "unblock",
    "whitelist",
    "unwhitelist",
)


def _monitors(result: ScenarioResult, what: str) -> list:
    monitors = result.monitors()
    if not monitors:
        raise ValueError(f"defense {result.config.defense!r} deploys no {what}")
    return monitors


def _retune_detectors(monitors: list, params: dict[str, Any]) -> None:
    """Retune every monitor's detector, validating all before mutating any."""
    for monitor in monitors:
        detector = monitor.detector
        if not detector.TUNABLE:
            # Composite members validate inside their own retune.
            continue
        unknown = sorted(set(params) - set(detector.TUNABLE))
        if unknown:
            raise ValueError(
                f"{monitor.name}: unknown tunable(s) {unknown}; "
                f"choose from {sorted(detector.TUNABLE)}"
            )
        for key, value in params.items():
            detector.TUNABLE[key](value)
    for monitor in monitors:
        monitor.detector.retune(**params)


def _manager(result: ScenarioResult):
    manager = result.mitigation_manager()
    if manager is None:
        raise ValueError(
            f"defense {result.config.defense!r} has no mitigation manager"
        )
    return manager


def apply_reconfig(
    result: ScenarioResult, target: str, params: dict[str, Any], *,
    broadcast: bool = False,
) -> dict[str, Any]:
    """Apply one reconfiguration to a live scenario; returns what changed.

    On a sharded session ``result`` is the coordinator shard's live
    scenario: mitigation and SPI/budget state is centralized there, so
    those targets work unchanged.  Monitors (and their detectors)
    execute on the shards that own their switches, so retuning them
    requires mutating *every* shard's scenario — the epoch coordinator
    does exactly that (:meth:`~repro.sim.sharded.coordinator.ShardedRun
    .schedule_reconfig` applies the retune coordinator-side and ships
    the same mutation to each worker through the barrier protocol),
    passing ``broadcast=True`` to mark the call as one leg of that
    fan-out.  A bare coordinator-side call would only reach inert
    replicas, so it is rejected rather than silently ignored.
    """
    if (
        target in ("detector", "monitor")
        and not broadcast
        and getattr(result, "is_sharded", False)
    ):
        raise ValueError(
            f"target {target!r} is not reconfigurable on a sharded session: "
            "monitors run on worker shards the coordinator cannot mutate"
        )
    if target == "detector":
        _retune_detectors(_monitors(result, "retunable monitors"), params)
        return dict(params)
    if target == "monitor":
        applied: dict[str, Any] = {}
        for monitor in _monitors(result, "monitors"):
            config = monitor.retune(**params)
            applied = {
                "sampling_probability": config.sampling_probability,
                "holddown_s": config.holddown_s,
            }
        return applied
    if target == "budget":
        if result.spi is None:
            raise ValueError("the inspection budget requires the spi defense")
        config = result.spi.budget.retune(**params)
        return {
            "max_concurrent": config.max_concurrent,
            "max_queue": config.max_queue,
        }
    if target == "spi":
        if result.spi is None:
            raise ValueError("spi knobs require the spi defense")
        config = result.spi.retune(**params)
        return {
            "verification_window_s": config.verification_window_s,
            "max_window_extensions": config.max_window_extensions,
        }
    if target == "block":
        entry = _manager(result).block_source(
            params["src_ip"],
            victim_ip=params.get("victim_ip"),
            duration_s=params.get("duration_s"),
        )
        return entry.describe()
    if target == "unblock":
        lifted = _manager(result).unblock_source(
            params["src_ip"], victim_ip=params.get("victim_ip")
        )
        return {"src_ip": params["src_ip"], "lifted": lifted}
    if target == "whitelist":
        entry = _manager(result).add_whitelist(
            params["src_ip"], duration_s=params.get("duration_s")
        )
        return entry.describe()
    if target == "unwhitelist":
        removed = _manager(result).remove_whitelist(params["src_ip"])
        return {"src_ip": params["src_ip"], "removed": removed}
    raise ValueError(
        f"unknown reconfig target {target!r}; choose from {RECONFIG_TARGETS}"
    )
