"""Scenario config serialization: share and replay exact experiments.

``config_to_dict``/``config_from_dict`` round-trip the whole nested
:class:`ScenarioConfig` tree (dataclasses, enums, tuples) through plain
JSON-compatible dicts, so a run can be saved next to its results and
replayed bit-for-bit later (the CLI's ``--save``/``--config`` flags).
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any

from repro.harness.scenario import FlashCrowdSpec, ScenarioConfig


def config_to_dict(config: Any) -> Any:
    """Recursively convert a (nested) dataclass config to plain data."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return {
            f.name: config_to_dict(getattr(config, f.name))
            for f in dataclasses.fields(config)
        }
    if isinstance(config, enum.Enum):
        return config.value
    if isinstance(config, tuple):
        return [config_to_dict(v) for v in config]
    if isinstance(config, dict):
        return {k: config_to_dict(v) for k, v in config.items()}
    if isinstance(config, float) and config == float("inf"):
        return "inf"
    return config


def canonical_config_json(config: Any) -> str:
    """Byte-stable canonical JSON for a config (sorted keys, no spaces).

    Two configs serialize identically iff they are equal, so this string
    is usable as identity — it is the config half of the sweep cache's
    content address (:mod:`repro.harness.cache`).
    """
    return json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))


_REFERENCE_TWINS = "set 'reference': true to run the reference twins"
_DEFENSE_TABLE = "the defense table in repro.harness.scenario fixes it"
_FIXED_PERIOD = "every probe and invariant sweep runs at 0.5 s"
_WEB_DEFAULTS = "the WebServer and WebClient defaults fix it"
_CONSTANT = "it is a constant where it is read"

#: Dotted paths of keys that configs saved before these fields were
#: retired carry, with the only value each is still accepted at (every
#: config ``save_config`` wrote carries them at these) and what replaced
#: the field.
_RETIRED_DEFAULTS = {
    # Strategy knobs, collapsed into ``reference``.
    "engine": ("optimized", _REFERENCE_TWINS),
    "pooling": (True, _REFERENCE_TWINS),
    "burst_coalescing": (True, _REFERENCE_TWINS),
    # Baseline knobs no experiment varied.
    "sampled_period_s": (5.0, _DEFENSE_TABLE),
    "sampled_duty": (0.2, _DEFENSE_TABLE),
    "flowstats_poll_s": (1.0, _DEFENSE_TABLE),
    "flowstats_pps_threshold": (200.0, _DEFENSE_TABLE),
    "baseline_mitigates": (True, _DEFENSE_TABLE),
    # Knobs no caller set away from their defaults.
    "probe_period_s": (0.5, _FIXED_PERIOD),
    "invariant_period_s": (0.5, _FIXED_PERIOD),
    "workload.server_port": (80, _WEB_DEFAULTS),
    "workload.response_bytes": (2000, _WEB_DEFAULTS),
    "workload.client_think_s": (0.5, _WEB_DEFAULTS),
    "workload.request_bytes": (200, _WEB_DEFAULTS),
    "spi.mirror_priority": (200, _CONSTANT),
    "spi.mirror_tcp_only": (False, "the mirror matches all IP traffic"),
    "spi.enable_udp_signature": (True, "both signatures always score"),
    "spi.alert_latency_s": (0.005, "the AlertBus default fixes it"),
    "spi.monitor.per_destination_cap": (None, "exact maps keep every key"),
    "spi.mitigation.aggregate_prefix_len": (16, _CONSTANT),
    "spi.mitigation.shield_pps": (50.0, _CONSTANT),
}


def _build(cls: type, data: dict[str, Any], path: str = "") -> Any:
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        key = path + name
        if name in fields:
            kwargs[name] = _coerce(fields[name], value, f"{key}.")
        elif key == "microflow_cache":
            # Retired, and either value describes every run: each flow-table
            # lookup is one linear scan, with or without the cache it asked for.
            if not isinstance(value, bool):
                raise ValueError(
                    f"config key {key!r} was retired and loads only at true "
                    f"or false, not {value!r}"
                )
        elif key in _RETIRED_DEFAULTS:
            default, instead = _RETIRED_DEFAULTS[key]
            if value != default:
                raise ValueError(
                    f"config key {key!r} was retired and {value!r} is not the "
                    f"default {default!r} it is still accepted at; {instead}"
                )
        else:
            raise ValueError(
                f"unknown config key {key!r}: {cls.__name__} has no "
                f"field {name!r} (valid fields: {', '.join(sorted(fields))})"
            )
    return cls(**kwargs)


def _coerce(f: dataclasses.Field, value: Any, path: str) -> Any:
    if value == "inf":
        return float("inf")
    # Nested dataclasses are recognized from the default factory/value.
    default = None
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        default = f.default_factory()  # type: ignore[misc]
    elif f.default is not dataclasses.MISSING:
        default = f.default
    if dataclasses.is_dataclass(default) and isinstance(value, dict):
        return _build(type(default), value, path)
    if isinstance(default, enum.Enum) and isinstance(value, str):
        return type(default)(value)
    if isinstance(value, list) and "tuple" in str(f.type):
        return tuple(value)
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict) and f.name == "flash_crowd":
        return _build(FlashCrowdSpec, value, path)
    return value


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_to_dict` output.

    Omitted keys keep their defaults; a key that names no field, at any
    nesting level, raises ``ValueError`` with its dotted path and the
    fields that exist (a typo must not load as the defaults).
    """
    return _build(ScenarioConfig, data)


def save_config(config: ScenarioConfig, path: str) -> None:
    """Write a scenario config as pretty JSON."""
    with open(path, "w") as handle:
        json.dump(config_to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_config(path: str) -> ScenarioConfig:
    """Read a scenario config saved by :func:`save_config`."""
    with open(path) as handle:
        return config_from_dict(json.load(handle))
