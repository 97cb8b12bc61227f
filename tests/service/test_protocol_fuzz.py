"""Codec fuzz: hostile bytes can produce a frame, a clean EOF, or a
typed :class:`ProtocolError` -- never a hang, a partial frame, or a
foreign exception.

Complements ``test_protocol_properties`` (fragmentation/coalescing
sweeps) on the adversarial axes: garbage headers, oversized length
prefixes, truncated payloads, single-byte corruption, and version
skew.  Runs under hypothesis when it is installed (the dev image has
it; ``derandomize=True`` keeps examples reproducible), and falls back
to a seeded-random sweep with the identical checks where it is not
(CI installs only numpy + pytest)."""

import io
import json
import random
import socket
import struct

import pytest

from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Ack,
    ControlRequest,
    ErrorFrame,
    PeerGone,
    ProtocolError,
    SolveRequest,
    decode_payload_versioned,
    encode_frame,
    read_frame,
)
from repro.service import MultiplexedClient, SolveServer, parse_address

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # CI fallback: seeded random, same checks
    HAVE_HYPOTHESIS = False

_HEADER = struct.Struct(">I")


# -- checks shared by both drivers -------------------------------------


def check_arbitrary_bytes(data: bytes) -> None:
    """Drain a hostile stream: frames, clean EOF, or ProtocolError."""
    stream = io.BytesIO(data)
    try:
        while read_frame(stream) is not None:
            pass
    except ProtocolError:
        pass  # PeerGone included: the typed rejection contract


def check_oversized_length(excess: int, body: bytes) -> None:
    """A length past the ceiling is refused before the body is read."""
    length = MAX_FRAME_BYTES + 1 + excess
    stream = io.BytesIO(_HEADER.pack(min(length, 0xFFFFFFFF)) + body)
    with pytest.raises(ProtocolError) as caught:
        read_frame(stream)
    assert "frame too large" in str(caught.value)
    assert not isinstance(caught.value, PeerGone)
    assert stream.tell() == _HEADER.size  # body bytes never consumed


def check_truncation(wire: bytes, cut: int) -> None:
    """Every mid-frame prefix raises PeerGone; zero bytes is clean EOF."""
    cut = max(0, min(cut, len(wire) - 1))
    stream = io.BytesIO(wire[:cut])
    if cut == 0:
        assert read_frame(stream) is None
        return
    with pytest.raises(PeerGone):
        read_frame(stream)


def check_corruption(wire: bytes, offset: int, value: int) -> None:
    """Flipping one payload byte parses or raises ProtocolError only."""
    offset = _HEADER.size + offset % (len(wire) - _HEADER.size)
    mutated = bytearray(wire)
    mutated[offset] = value
    stream = io.BytesIO(bytes(mutated))
    try:
        read_frame(stream)
    except ProtocolError:
        pass
    # Either way the full frame was consumed: no partial reads linger.
    assert stream.tell() == len(wire)


def check_version_skew(version) -> None:
    """An unknown ``v`` is refused with a version-naming error."""
    wire = encode_frame(Ack(id=1))
    import json

    payload = json.loads(wire[_HEADER.size:])
    payload["v"] = version
    body = json.dumps(payload).encode()
    stream = io.BytesIO(_HEADER.pack(len(body)) + body)
    with pytest.raises(ProtocolError) as caught:
        read_frame(stream)
    assert "version" in str(caught.value)


def check_round_trip(message: str) -> None:
    """Frames round-trip losslessly, stamped with the one version."""
    import json

    for frame in (
        Ack(id=7, cached=True),
        ErrorFrame(id=7, message=message),
        ControlRequest(id=9, op="ping"),
        SolveRequest(id=3, system=message or "mage", problem="p", seed=4),
    ):
        wire = encode_frame(frame)
        (length,) = _HEADER.unpack(wire[:_HEADER.size])
        assert length == len(wire) - _HEADER.size
        assert json.loads(wire[_HEADER.size:])["v"] == PROTOCOL_VERSION
        decoded = decode_payload_versioned(wire[_HEADER.size:])
        assert type(decoded) is type(frame)
        assert decoded == frame


def _sample_wire() -> bytes:
    return encode_frame(
        SolveRequest(id=11, system="mage", problem="cb_mux2", seed=2)
    )


# Only the exact (non-bool) int PROTOCOL_VERSION is a version: the
# retired v1/v2 dialects and JSON-representable lookalikes (floats,
# bools, strings, containers) must all be refused, typed, without
# crashing the decoder.
SKEW_VALUES = [
    0, 1, 2, 4, 99, -1, None, True, "3", "two", 2.5, 3.0, [3], {"v": 3},
]


# -- drivers -----------------------------------------------------------

if HAVE_HYPOTHESIS:
    common = settings(max_examples=150, deadline=None, derandomize=True)

    @common
    @given(data=st.binary(max_size=300))
    def test_arbitrary_bytes_never_hang_or_leak(data):
        check_arbitrary_bytes(data)

    @common
    @given(
        excess=st.integers(min_value=0, max_value=2**31),
        body=st.binary(max_size=64),
    )
    def test_oversized_lengths_are_refused_unread(excess, body):
        check_oversized_length(excess, body)

    @common
    @given(cut=st.integers(min_value=0, max_value=4096))
    def test_every_truncation_point_is_peer_gone(cut):
        check_truncation(_sample_wire(), cut)

    @common
    @given(
        offset=st.integers(min_value=0, max_value=4096),
        value=st.integers(min_value=0, max_value=255),
    )
    def test_single_byte_corruption_stays_typed(offset, value):
        check_corruption(_sample_wire(), offset, value)

    @common
    @given(message=st.text(max_size=40))
    def test_frames_round_trip(message):
        check_round_trip(message)

else:

    @pytest.mark.parametrize("seed", range(25))
    def test_arbitrary_bytes_never_hang_or_leak(seed):
        rng = random.Random(0xFA00 + seed)
        for _ in range(12):
            check_arbitrary_bytes(rng.randbytes(rng.randint(0, 300)))

    @pytest.mark.parametrize("seed", range(10))
    def test_oversized_lengths_are_refused_unread(seed):
        rng = random.Random(0xFB00 + seed)
        check_oversized_length(
            rng.randint(0, 2**31), rng.randbytes(rng.randint(0, 64))
        )

    def test_every_truncation_point_is_peer_gone():
        wire = _sample_wire()
        for cut in range(len(wire)):
            check_truncation(wire, cut)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_byte_corruption_stays_typed(seed):
        rng = random.Random(0xFC00 + seed)
        wire = _sample_wire()
        for _ in range(20):
            check_corruption(wire, rng.randint(0, 4096), rng.randint(0, 255))

    def test_frames_round_trip():
        rng = random.Random(0xFD00)
        for _ in range(15):
            message = "".join(
                rng.choice("abc \"\\{}\u00e9") for _ in range(rng.randint(0, 40))
            )
            check_round_trip(message)


def test_version_skew_is_refused():
    for value in SKEW_VALUES:
        check_version_skew(value)


def test_current_version_is_supported():
    """The wire bytes did not change when v1/v2 were retired: v3."""
    assert PROTOCOL_VERSION == 3


# The work-stealing conversation is gone from v3: a not-yet-upgraded
# peer may still send these, and they must be refused like any other
# unknown frame -- typed, and without taking the server down.
RETIRED_PAYLOADS = [
    {"v": PROTOCOL_VERSION, "type": "wave_steal", "id": 4, "max_items": 4},
    {"v": PROTOCOL_VERSION, "type": "wave_tasks", "id": 4, "tasks": []},
]


@pytest.mark.parametrize(
    "payload", RETIRED_PAYLOADS, ids=lambda p: p["type"]
)
def test_retired_frame_types_are_unknown(payload):
    with pytest.raises(ProtocolError) as caught:
        decode_payload_versioned(json.dumps(payload).encode())
    assert str(caught.value) == f"unknown frame type {payload['type']!r}"


@pytest.mark.parametrize(
    "payload", RETIRED_PAYLOADS, ids=lambda p: p["type"]
)
def test_live_server_refuses_retired_frames_and_keeps_serving(payload):
    body = json.dumps(payload).encode()
    with SolveServer(workers=1) as server:
        with socket.create_connection(
            parse_address(server.address), timeout=30
        ) as sock:
            sock.sendall(_HEADER.pack(len(body)) + body)
            with sock.makefile("rb") as stream:
                reply = read_frame(stream)
                assert read_frame(stream) is None  # connection closed
        assert isinstance(reply, ErrorFrame)
        assert "unknown frame type" in reply.message
        assert payload["type"] in reply.message
        with MultiplexedClient(server.address) as client:
            assert client.ping()
            assert client.solve("vanilla-claude", "cb_mux2", seed=1).source
