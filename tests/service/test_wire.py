"""The server's wire: no Nagle on accepted sockets, one write per burst."""

import asyncio
import io
import socket
import statistics
import time

from repro.service import SolveServer
from repro.service import protocol
from repro.service.client import MultiplexedClient
from repro.service.protocol import Ack, Done, ErrorFrame, read_frame
from repro.service.server import _Connection


class _RecordingWriter:
    """Stands in for an asyncio ``StreamWriter``; keeps every write."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        pass


def _decode_all(data: bytes) -> list:
    stream = io.BytesIO(data)
    frames = []
    while (frame := read_frame(stream)) is not None:
        frames.append(frame)
    return frames


def _write_burst(frames) -> list[bytes]:
    """Queue ``frames`` back-to-back (``None`` is the close sentinel),
    then run the write loop to its end; returns its ``write`` calls."""

    async def main():
        writer = _RecordingWriter()
        conn = _Connection(None, None, writer)
        for frame in frames:
            conn._enqueue(frame)
        await asyncio.wait_for(conn._write_loop(), timeout=5)
        return writer.writes

    return asyncio.run(main())


def _done(request_id: int) -> Done:
    return Done(
        id=request_id, source="module t; endmodule", passed=True,
        score=1.0, seconds=0.0, system="mage", cached=True,
    )


class TestAcceptedSocket:
    def test_nodelay_is_set_on_the_server_side(self):
        with SolveServer(workers=1) as server:
            with MultiplexedClient(server.address, timeout=30) as client:
                assert client.ping()
                (conn,) = server._connections
                sock = conn.writer.get_extra_info("socket")
                assert sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )

    def test_cached_hits_are_not_stalled_by_delayed_acks(self):
        # A Nagle/delayed-ACK stall costs ~40 ms per hit; a hit served
        # at the server's cost takes a millisecond or two.
        with SolveServer(workers=1) as server:
            with MultiplexedClient(server.address, timeout=30) as client:
                client.solve("mage", "cb_mux2", seed=0)
                seconds = []
                for _ in range(50):
                    start = time.perf_counter()
                    outcome = client.solve("mage", "cb_mux2", seed=0)
                    seconds.append(time.perf_counter() - start)
                    assert outcome.cached
        assert statistics.median(seconds) < 0.020


class TestWriteLoop:
    def test_queued_frames_leave_in_one_write_in_order(self):
        frames = [Ack(id=1, cached=True), _done(1), Ack(id=2), _done(2)]
        writes = _write_burst([*frames, None])
        assert len(writes) == 1
        assert _decode_all(writes[0]) == frames

    def test_sentinel_never_overtakes_an_earlier_frame(self):
        # Frames queued after the sentinel are never sent; every frame
        # before it is.
        writes = _write_burst([Ack(id=1), _done(1), None, Ack(id=9)])
        assert _decode_all(b"".join(writes)) == [Ack(id=1), _done(1)]

    def test_frames_across_wakeups_flush_before_close(self):
        async def main():
            writer = _RecordingWriter()
            conn = _Connection(None, None, writer)
            task = asyncio.create_task(conn._write_loop())
            conn._enqueue(Ack(id=1))
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            conn._enqueue(_done(1))
            conn._enqueue(None)
            await asyncio.wait_for(task, timeout=5)
            return writer.writes

        writes = asyncio.run(main())
        assert len(writes) == 2
        assert _decode_all(b"".join(writes)) == [Ack(id=1), _done(1)]

    def test_unsendable_frame_becomes_an_error_in_place(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 256)
        big = Done(
            id=1, source="x" * 1024, passed=True, score=1.0, seconds=0.0
        )
        (data,) = _write_burst([Ack(id=1), big, Ack(id=2), None])
        first, error, last = _decode_all(data)
        assert first == Ack(id=1) and last == Ack(id=2)
        assert isinstance(error, ErrorFrame) and error.id == 1
        assert error.message.startswith("unsendable reply")
