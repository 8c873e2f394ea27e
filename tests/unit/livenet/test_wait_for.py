"""``LiveNode.wait_for`` is event-driven: it sleeps on the pump instead
of polling, wakes for every kind of state a predicate reads, times out
on its own deadline, and leaves nothing parked behind."""

import asyncio
import base64
import statistics
from time import perf_counter

from repro.livenet.gateway import Gateway
from repro.livenet.journal import host_for
from repro.livenet.tcp import LiveNode
from repro.livenet.udp import MediaProbe


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 60))


async def _stack():
    a, b = LiveNode("a"), LiveNode("b")
    await a.start()
    await b.start()
    b.net.device("bob", auto_accept=True, host=host_for("bob"))
    gateway = Gateway(a)
    await gateway.start()
    a.add_peer("b", *b.listen_address)
    return a, b, gateway


async def _teardown(a, b, gateway):
    await gateway.stop()
    await a.stop()
    await b.stop()


def _node_timers(node):
    """Armed asyncio timers whose callback belongs to ``node`` (bound
    method or closure over it)."""
    def mentions(handle):
        callback = handle._callback
        if getattr(callback, "__self__", None) is node:
            return True
        return any(cell.cell_contents is node
                   for cell in getattr(callback, "__closure__", None) or ())
    return [h for h in asyncio.get_running_loop()._scheduled
            if not h.cancelled() and mentions(h)]


def test_call_latency_is_not_quantized_by_a_poll():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            await gateway.place_call("bob@b")  # dials the peer
            latencies = []
            for _ in range(50):
                t0 = perf_counter()
                result = await gateway.place_call("bob@b")
                latencies.append(perf_counter() - t0)
                assert result["state"] == "flowing"
            # A single 10 ms sleep per call would put the median above
            # 10 ms; in-process the protocol needs about 0.5 ms.
            assert statistics.median(latencies) < 0.003, latencies
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_timeout_returns_false_at_the_deadline_on_an_idle_node():
    async def scenario():
        a = LiveNode("a")
        await a.start()
        try:
            t0 = perf_counter()
            assert await a.wait_for(lambda: False, timeout=0.2) is False
            elapsed = perf_counter() - t0
            assert 0.2 <= elapsed < 0.25, elapsed
            assert not a._waiters and not _node_timers(a)
        finally:
            await a.stop()
    run(scenario())


def test_udp_echoes_wake_the_waiter():
    async def scenario():
        a = LiveNode("a")
        await a.start()
        mine, theirs = MediaProbe(), MediaProbe()
        await mine.start()
        await theirs.start()
        a.attach_probe(mine)
        try:
            mine.blast(theirs.address, b"k", 5)
            t0 = perf_counter()
            assert await a.wait_for(lambda: mine.echo_count(b"k") >= 5)
            assert perf_counter() - t0 < 1.0  # not the 5 s deadline
            assert theirs.served == 5
        finally:
            mine.close()
            theirs.close()
            await a.stop()
    run(scenario())


def test_websocket_unsubscribe_wakes_the_waiter():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            reader, writer = await asyncio.open_connection(
                *gateway.listen_address)
            key = base64.b64encode(b"0123456789abcdef").decode()
            writer.write((
                "GET /ws/events HTTP/1.1\r\nHost: x\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                "Sec-WebSocket-Key: %s\r\n\r\n" % key).encode())
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            assert a.subscribers
            writer.close()
            t0 = perf_counter()
            assert await a.wait_for(lambda: not a.subscribers)
            assert perf_counter() - t0 < 1.0
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_transport_transitions_wake_the_waiter():
    # ``accepted`` shrinks when a raw connection closes: no frame, no
    # sim event, only a transport event.
    async def scenario():
        a = LiveNode("a")
        await a.start()
        try:
            _reader, writer = await asyncio.open_connection(
                *a.listen_address)
            assert await a.wait_for(lambda: bool(a.accepted))
            writer.close()
            t0 = perf_counter()
            assert await a.wait_for(lambda: not a.accepted)
            assert perf_counter() - t0 < 1.0
        finally:
            await a.stop()
    run(scenario())


def test_concurrent_waiters_do_not_spin():
    async def scenario():
        a = LiveNode("a")
        await a.start()
        evaluations = [0, 0]

        def never(i):
            def predicate():
                evaluations[i] += 1
                return False
            return predicate
        try:
            results = await asyncio.gather(
                a.wait_for(never(0), timeout=0.3),
                a.wait_for(never(1), timeout=0.3))
            assert results == [False, False]
            # Entry, the other waiter's deadline, its own deadline: no
            # frame arrived, so nothing else may have woken them.
            assert max(evaluations) <= 4, evaluations
        finally:
            await a.stop()
    run(scenario())


def test_waiters_wake_each_other_only_through_real_events():
    # While a call is in flight a second, unrelated waiter is woken by
    # the pumps that executed events and by nothing else.
    async def scenario():
        a, b, gateway = await _stack()
        try:
            await gateway.place_call("bob@b")
            evaluations = 0

            def never():
                nonlocal evaluations
                evaluations += 1
                return False
            bystander = asyncio.ensure_future(a.wait_for(never, timeout=5))
            await asyncio.sleep(0)
            for _ in range(20):
                await gateway.place_call("bob@b")
            bystander.cancel()
            await asyncio.gather(bystander, return_exceptions=True)
            # A spin would evaluate thousands of times in 20 calls.
            assert evaluations <= 20 * 8, evaluations
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_cancel_and_stop_leave_nothing_parked():
    async def scenario():
        a = LiveNode("a")
        await a.start()
        cancelled = asyncio.ensure_future(
            a.wait_for(lambda: False, timeout=30))
        await asyncio.sleep(0)
        assert len(a._waiters) == 1 and len(_node_timers(a)) == 1
        cancelled.cancel()
        await asyncio.gather(cancelled, return_exceptions=True)
        assert cancelled.cancelled()
        assert not a._waiters and not _node_timers(a)

        outstanding = [asyncio.ensure_future(
            a.wait_for(lambda: False, timeout=30)) for _ in range(3)]
        await asyncio.sleep(0)
        assert len(a._waiters) == 3
        t0 = perf_counter()
        await a.stop()
        # A stopped node can change nothing: its waiters give up now.
        assert await asyncio.gather(*outstanding) == [False] * 3
        assert perf_counter() - t0 < 1.0
        assert not a._waiters and not _node_timers(a)
    run(scenario())
