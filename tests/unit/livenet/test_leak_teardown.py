"""Leak regression: repeated connect/call/disconnect cycles must leave
no lingering asyncio tasks, sockets, channel records, or sim-loop work.

The live stack allocates per-call (half-channels, journals, relay
agents) and per-connection (tasks, buffers) state; this test drives many
full cycles through the real gateway path and asserts every pool
returns to its baseline.
"""

import asyncio
import gc

from repro.core import box as box_module
from repro.livenet.cli import _http_json
from repro.livenet.gateway import Gateway
from repro.livenet.journal import host_for
from repro.livenet.seam import HalfChannel, RemoteRelay
from repro.livenet.tcp import LiveNode
from repro.protocol.channel import ChannelEnd, SignalingChannel
from repro.protocol.slot import Slot

_CYCLES = 6
#: What one call builds on each node, and must give back.
_PER_CALL = (SignalingChannel, ChannelEnd, Slot, HalfChannel, RemoteRelay)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 60))


def _live_tasks():
    return {t for t in asyncio.all_tasks() if not t.done()}


def test_repeated_calls_leak_nothing():
    async def scenario():
        a, b = LiveNode("a"), LiveNode("b")
        await a.start()
        await b.start()
        bob = b.net.device("bob", auto_accept=True, host=host_for("bob"))
        gateway = Gateway(a)
        await gateway.start()
        a.add_peer("b", *b.listen_address)
        try:
            # Warm-up call establishes the steady state (dial task,
            # accepted-connection task) the later cycles must return to.
            first = await gateway.place_call("bob@b", timeout=15)
            assert first["state"] == "flowing"
            assert first["parity"] is True  # first call: byte parity
            assert await b.wait_for(lambda: not b.channels)
            await asyncio.sleep(0.05)
            baseline_tasks = _live_tasks()

            for cycle in range(_CYCLES):
                result = await gateway.place_call("bob@b", timeout=15)
                assert result["state"] == "flowing", cycle
                # Channel records unmap on both sides...
                assert not a.channels, cycle
                assert await b.wait_for(lambda: not b.channels), cycle
                # ...the callee's media ports close with their slots...
                assert await b.wait_for(lambda: not bob.ports()), cycle
                assert not gateway.caller.ports(), cycle
                # ...and both sim loops go fully quiet (no orphaned
                # retransmit timers or queued deliveries).
                assert await a.wait_for(
                    lambda: a.loop._front(pop_cancelled=True) is None
                ), cycle
                assert await b.wait_for(
                    lambda: b.loop._front(pop_cancelled=True) is None
                ), cycle

            await asyncio.sleep(0.05)
            leaked = _live_tasks() - baseline_tasks
            assert not leaked, leaked
            # One persistent dialed connection; no accepted backlog on
            # the caller, exactly one on the callee.
            assert list(a.peers) == ["b"]
            assert a.peers["b"].connected
            assert not a.accepted
            assert len(b.accepted) == 1
            assert len(a._closed_ids) == _CYCLES + 1
            assert gateway.calls == _CYCLES + 1
        finally:
            await gateway.stop()
            await a.stop()
            await b.stop()
        # After stop: everything spawned by the stack is gone.
        await asyncio.sleep(0.05)
        for task in _live_tasks():
            assert not task.get_name().startswith("repro-"), task
        assert not a.channels and not b.channels
        assert not a.peers and not b.accepted
    run(scenario())


def _census():
    gc.collect()
    counts = dict.fromkeys(_PER_CALL, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return {cls.__name__: n for cls, n in counts.items()}


def test_two_hundred_calls_retain_no_call_objects():
    async def scenario():
        a, b = LiveNode("a"), LiveNode("b")
        await a.start()
        await b.start()
        b.net.device("bob", auto_accept=True, host=host_for("bob"))
        gateway = Gateway(a)
        await gateway.start()
        a.add_peer("b", *b.listen_address)
        try:
            # Fill the gateway box's bounded meta log first: until it
            # wraps, each call's entries legitimately stay.
            for _ in range(box_module._META_LOG_MAX):
                await gateway.place_call("bob@b", timeout=15)
            assert len(gateway.box.meta_log) == box_module._META_LOG_MAX
            assert await b.wait_for(lambda: not b.channels)
            before = _census()
            for _ in range(200):
                await gateway.place_call("bob@b", timeout=15)
            assert await b.wait_for(lambda: not b.channels)
            assert _census() == before
            assert len(a.net.channels) == 0
            assert not a.channels
        finally:
            await gateway.stop()
            await a.stop()
            await b.stop()
    run(scenario())


def test_repeated_raw_connects_leave_no_accepted_state():
    async def scenario():
        a = LiveNode("a")
        await a.start()
        try:
            for _ in range(10):
                _reader, writer = await asyncio.open_connection(
                    *a.listen_address)
                writer.close()
                await writer.wait_closed()
            assert await a.wait_for(lambda: not a.accepted)
            await asyncio.sleep(0.05)
            for task in _live_tasks():
                assert not task.get_name().startswith("repro-serve"), \
                    task
        finally:
            await a.stop()
    run(scenario())
