"""Tests for the pool result transport (repro.harness.transport).

Three layers under test: the framing (``pack``/``unpack`` must be a
lossless round trip for every picklable value, and reject anything that
is not a frame), the shared-memory segment helpers (create/attach/
unlink with no segment ever leaked — including on the timeout, retry and
dead-worker paths of the process pool), and the sharded boundary-batch
framing (record tuples restored exactly).

Equality is checked structurally and strictly: identical types at every
node (``bool`` never equals ``int``, ``list`` never equals ``tuple``),
floats compared by IEEE bit pattern (NaN equals NaN, ``-0.0`` differs
from ``0.0``), ``array`` values by typecode and buffer, dicts compared
in insertion order — exactly the guarantees the transport makes.
"""

from __future__ import annotations

import glob
import math
import multiprocessing
import os
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import transport
from repro.harness.parallel import (
    pool_transport_stats,
    reset_pool_transport_stats,
    run_tasks,
    shutdown_pool,
)
from repro.sim.sharded.codec import (
    KIND_ALERT,
    KIND_CHAN_UP,
    KIND_LINK,
    decode_batch,
    encode_batch,
)


def _eq(a, b) -> bool:
    """Strict structural equality: exact types, bit-exact floats,
    order-sensitive dicts.  Never identity-sensitive."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("=d", a) == struct.pack("=d", b)
    if isinstance(a, array):
        return a.typecode == b.typecode and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _eq(ka, kb) and _eq(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return a == b


def _roundtrip(value) -> None:
    assert _eq(transport.unpack(transport.pack(value)), value)


def _live_segments() -> list[str]:
    """Segments under /dev/shm issued by this process (parent issues names)."""
    return glob.glob(f"/dev/shm/{transport.segment_prefix()}*")


# Module-level so spawn workers can pickle them by reference.
def _add(a: int, b: int) -> int:
    return a + b


def _numeric_payload(seed: int) -> dict:
    return {
        "series": [(float(i), i * seed, f"s{i}") for i in range(200)],
        "floats": [seed * 0.5 + i for i in range(500)],
        "label": f"seed-{seed}",
    }


def _die_in_worker(x: int) -> int:
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return x


@pytest.fixture(autouse=True)
def _fresh_pool():
    reset_pool_transport_stats()
    yield
    shutdown_pool()


class TestCodecScalars:
    @pytest.mark.parametrize("value", (
        None, True, False, 0, -1, 2**40, 1.5, -0.0, "", "héllo", b"", b"\x00raw",
    ))
    def test_scalar_roundtrip(self, value):
        _roundtrip(value)

    def test_special_floats_bit_exact(self):
        for value in (math.nan, math.inf, -math.inf, -0.0, 5e-324):
            out = transport.unpack(transport.pack(value))
            assert struct.pack("=d", out) == struct.pack("=d", value)

    def test_int64_bounds_inline(self):
        for value in (2**63 - 1, -(2**63), 2**64, -(2**200)):
            _roundtrip(value)


class TestCodecContainers:
    @pytest.mark.parametrize("value", (
        [], (), {}, [[]], ((),), [0.0, 1.5, math.inf], (1, 2, 3),
        ["a", "bb", ""], (b"x", b"", b"yy"), list(range(1000)),
    ))
    def test_sequence_roundtrip(self, value):
        _roundtrip(value)

    def test_container_type_preserved(self):
        assert type(transport.unpack(transport.pack((1.0, 2.0)))) is tuple
        assert type(transport.unpack(transport.pack([1.0, 2.0]))) is list

    def test_bool_never_conflated_with_int(self):
        _roundtrip([True, 1, False, 0])
        _roundtrip([1, 2, True])

    def test_int_never_conflated_with_float(self):
        _roundtrip([1, 2.0, 3])

    def test_dict_insertion_order_preserved(self):
        value = {"z": 1, "a": 2, "m": {"y": 0.5, "b": [1, 2]}}
        out = transport.unpack(transport.pack(value))
        assert list(out) == ["z", "a", "m"]
        assert _eq(out, value)

    def test_homogeneous_rows_roundtrip(self):
        rows = [(float(i), i, f"row{i}", b"x" * (i % 3)) for i in range(300)]
        _roundtrip(rows)
        _roundtrip(tuple(rows))

    def test_ragged_rows_fall_back_losslessly(self):
        rows = [(1.0, 2), (3.0,), (4.0, 5, 6)]
        _roundtrip(rows)

    def test_over_one_mib_numeric_payload(self):
        floats = [i * 0.25 for i in range(200_000)]  # 1.6 MB packed
        packed = transport.pack(floats)
        assert len(packed) > (1 << 20)
        assert transport.unpack(packed) == floats

    def test_nan_inside_bulk_array(self):
        values = [1.0, math.nan, -math.inf, -0.0] * 100
        out = transport.unpack(transport.pack(values))
        assert len(out) == len(values)
        for a, b in zip(out, values):
            assert struct.pack("=d", a) == struct.pack("=d", b)

    def test_foreign_objects_ride_pickle(self):
        _roundtrip({"pair": complex(1, 2), "s": {1, 2, 3}})

    def test_deep_nesting_falls_back(self):
        value = [1.0]
        for _ in range(64):
            value = [value]
        _roundtrip(value)

    def test_corrupt_buffer_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            transport.unpack(b"nope")
        packed = transport.pack({"xs": [1.0, 2.0], "label": "row"})
        for broken in (packed[:4], packed[:-3], packed[:4] + b"\xff" + packed[5:]):
            with pytest.raises(ValueError, match="corrupt transport buffer"):
                transport.unpack(broken)


class TestTypedArrays:
    """``array.array`` values come back as arrays of the same typecode."""

    @pytest.mark.parametrize("code,values", (
        ("d", [0.0, -0.0, 1.5, 5e-324]),
        ("q", [0, -1, 2**63 - 1, -(2**63)]),
        ("Q", [0, 1, 2**64 - 1]),
    ))
    def test_typed_array_roundtrip(self, code, values):
        arr = array(code, values)
        out = transport.unpack(transport.pack(arr))
        assert type(out) is array
        assert out.typecode == code
        assert out.tobytes() == arr.tobytes()

    def test_empty_and_nested_typed_arrays(self):
        payload = {"d": array("d"), "rows": [array("q", [1, 2]), 7]}
        out = transport.unpack(transport.pack(payload))
        assert out["d"].typecode == "d" and len(out["d"]) == 0
        assert out["rows"][0] == array("q", [1, 2])

    def test_nan_payloads_bit_exact(self):
        arr = array("d", [math.nan, math.inf, -math.inf, -0.0] * 50)
        out = transport.unpack(transport.pack(arr))
        assert out.tobytes() == arr.tobytes()

    def test_machine_width_typecodes_ride_pickle(self):
        for arr in (array("i", [1, 2, 3]), array("f", [1.5]), array("B", b"\x01")):
            out = transport.unpack(transport.pack(arr))
            assert out == arr and out.typecode == arr.typecode


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=20)
    | st.binary(max_size=20)
    | st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8).map(
        lambda values: array("d", values)
    )
    | st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8).map(
        lambda values: array("q", values)
    )
)


@settings(max_examples=150, deadline=None)
@given(
    st.recursive(
        _scalars,
        lambda children: (
            st.lists(children, max_size=8)
            | st.lists(children, max_size=8).map(tuple)
            | st.dictionaries(st.text(max_size=8), children, max_size=6)
        ),
        max_leaves=40,
    )
)
def test_codec_roundtrip_on_arbitrary_plain_data(value):
    """pack/unpack is the identity (strict structural equality) on any
    nesting of the plain data types the harness ships: special floats
    bit-exact, bool/int/float and list/tuple never conflated, ints past
    64 bits, ``array`` values."""
    assert _eq(transport.unpack(transport.pack(value)), value)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.text(max_size=10),
        ),
        max_size=60,
    )
)
def test_codec_roundtrip_on_row_tables(rows):
    assert _eq(transport.unpack(transport.pack(rows)), rows)


class TestTransportSelection:
    def test_validate_rejects_unknown(self):
        # The plane is picked from SHM_AVAILABLE; a caller cannot ask for one.
        for request in ("carrier-pigeon", "pickle", "shm"):
            with pytest.raises(ValueError, match="unknown transport"):
                transport.resolve_transport(request)

    def test_auto_follows_shm_availability(self, monkeypatch):
        monkeypatch.setattr(transport, "SHM_AVAILABLE", False)
        assert transport.resolve_transport("auto") == "pickle"
        monkeypatch.setattr(transport, "SHM_AVAILABLE", True)
        assert transport.resolve_transport() == "shm"

    def test_auto_default_resolves_concrete(self):
        assert transport.resolve_transport("auto") in ("pickle", "shm")


@pytest.mark.skipif(not transport.SHM_AVAILABLE, reason="no shared memory")
class TestShmSegments:
    def test_put_get_roundtrip_and_unlink(self):
        name = transport.new_segment_name()
        data = transport.pack({"xs": [1.0, 2.0], "n": 7})
        transport.shm_put(name, data)
        assert transport.shm_get(name, len(data)) == {"xs": [1.0, 2.0], "n": 7}
        assert _live_segments() == []

    def test_empty_payload(self):
        name = transport.new_segment_name()
        data = transport.pack([])
        transport.shm_put(name, data)
        assert transport.shm_get(name, len(data)) == []
        assert _live_segments() == []

    def test_discard_missing_is_false(self):
        assert transport.shm_discard(transport.new_segment_name()) is False

    def test_discard_existing_removes(self):
        name = transport.new_segment_name()
        transport.shm_put(name, b"abc")
        assert transport.shm_discard(name) is True
        assert transport.shm_discard(name) is False
        assert _live_segments() == []


@pytest.mark.skipif(not transport.SHM_AVAILABLE, reason="no shared memory")
class TestPoolShmPlane:
    def test_results_identical_across_transports(self, monkeypatch):
        tasks = [{"seed": i} for i in range(4)]
        serial = run_tasks(_numeric_payload, tasks, workers=1)
        via_shm = run_tasks(_numeric_payload, tasks, workers=2)
        assert pool_transport_stats().transport == "shm"
        # The pickle fallback is what a host without shared memory runs;
        # the parent decides, so patching the parent's flag reaches it.
        monkeypatch.setattr(transport, "SHM_AVAILABLE", False)
        reset_pool_transport_stats()
        via_pickle = run_tasks(_numeric_payload, tasks, workers=2)
        stats = pool_transport_stats()
        assert (stats.transport, stats.pickle_results, stats.shm_results) == (
            "pickle", 4, 0
        )
        assert _eq(serial, via_pickle) and _eq(serial, via_shm)
        assert _live_segments() == []

    def test_shm_results_are_tallied(self):
        reset_pool_transport_stats()
        run_tasks(
            _numeric_payload, [{"seed": i} for i in range(3)], workers=2
        )
        stats = pool_transport_stats()
        assert stats.transport == "shm"
        assert stats.shm_results == 3
        assert stats.shm_bytes > 0
        assert "shm results" in stats.describe()

    def test_no_leak_after_timeout_fallback(self):
        # Tiny timeout beats the (fast) workers to the punch; the tasks
        # finish serially while straggler segments are swept.
        results = run_tasks(
            _add, [{"a": 1, "b": 1}, {"a": 2, "b": 2}],
            workers=2, timeout_s=0.0001, retries=0,
        )
        assert results == [2, 4]
        shutdown_pool()
        assert _live_segments() == []

    def test_no_leak_after_retry(self):
        results = run_tasks(
            _add, [{"a": 3, "b": 4}, {"a": 5, "b": 6}],
            workers=2, timeout_s=0.0001, retries=2,
        )
        assert results == [7, 11]
        shutdown_pool()
        assert _live_segments() == []

    def test_no_leak_after_worker_death(self):
        # Workers hard-exit mid-task (BrokenProcessPool); the pool is torn
        # down, tasks complete serially, and every issued segment name is
        # force-swept — zero live segments remain.
        results = run_tasks(
            _die_in_worker, [{"x": 1}, {"x": 2}, {"x": 3}], workers=2
        )
        assert results == [1, 2, 3]
        shutdown_pool()
        assert _live_segments() == []


class TestBoundaryBatchCodec:
    def _records(self):
        return [
            (0.5, 0.25, KIND_LINK, 4, 0, 1, (2, 1, b"\x45\x00wire-bytes")),
            (0.5, 0.30, KIND_ALERT, 1, 1, 0, {"alert": "syn-flood", "n": 3}),
            (0.75, 0.50, KIND_LINK, 2, 2, 1, (0, 0, b"")),
            (1.0, 0.80, KIND_CHAN_UP, 7, 3, 0, ("msg", (1, 2, None))),
        ]

    def test_roundtrip_exact(self):
        records = self._records()
        blob = encode_batch(records)
        assert isinstance(blob, bytes)
        assert _eq(decode_batch(blob), records)

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_fallback_on_bad_link_payload(self):
        # No record shape is special: an int arrival time and a cut-link
        # payload that is not (index, direction, wire bytes) come back as is.
        records = [
            (1, 0.5, KIND_ALERT, 0, 0, 0, "odd"),
            (0.5, 0.25, KIND_LINK, 4, 0, 1, ("not", "ints", "raw")),
        ]
        assert _eq(decode_batch(encode_batch(records)), records)

    def test_corrupt_batch_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            decode_batch(b"garbage-bytes")
        with pytest.raises(ValueError, match="corrupt boundary batch"):
            decode_batch(encode_batch(self._records())[:-5])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.floats(min_value=0, max_value=1e6),
                st.sampled_from((KIND_LINK, KIND_CHAN_UP, KIND_ALERT)),
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=64),
                st.binary(max_size=40),
            ),
            max_size=40,
        )
    )
    def test_roundtrip_on_random_batches(self, rows):
        records = []
        for t, emit, kind, entity, seq, dest, raw in rows:
            if kind == KIND_LINK:
                payload = (entity % 8, seq % 2, raw)
            else:
                payload = {"raw": raw}
            records.append((t, emit, kind, entity, seq, dest, payload))
        assert _eq(decode_batch(encode_batch(records)), records)
