"""The gateway front door: hygiene order, request validation, the call
path, and the WebSocket event stream — all over real localhost HTTP."""

import asyncio
import base64
import hashlib
import json

from repro.livenet.cli import _http_json
from repro.livenet.gateway import Gateway, _path_problem, _ws_text_frame
from repro.livenet.journal import host_for, reference_fingerprint
from repro.livenet.tcp import LiveNode


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30))


async def _stack(**gateway_kwargs):
    a, b = LiveNode("a"), LiveNode("b")
    await a.start()
    await b.start()
    b.net.device("bob", auto_accept=True, host=host_for("bob"))
    gateway = Gateway(a, **gateway_kwargs)
    await gateway.start()
    a.add_peer("b", *b.listen_address)
    return a, b, gateway


async def _teardown(a, b, gateway):
    await gateway.stop()
    await a.stop()
    await b.stop()


def _request(gateway, method, path, body=None):
    host, port = gateway.listen_address
    return _http_json(host, port, method, path, body)


# ----------------------------------------------------------------------
# the call path
# ----------------------------------------------------------------------
def test_call_flows_with_sim_parity_and_hangs_up():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            status, result = await _request(
                gateway, "POST", "/call", {"to": "bob@b"})
            assert status == 200
            assert result["state"] == "flowing"
            assert result["codec"] == "OPUS"
            assert result["parity"] is True
            assert result["journal"]["fingerprint"] == \
                result["reference"]
            assert result["journal"]["sent"] >= 2
            # Not held: both sides unmapped after the response.
            assert not a.channels
            assert await b.wait_for(lambda: not b.channels)
            assert gateway.calls == 1
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_reply_never_precedes_the_selector():
    # ``flowing`` arrives with the oack, the codec one frame later; the
    # reply (and the journal it fingerprints) must wait for both.
    async def scenario():
        a, b, gateway = await _stack()
        try:
            replies = [await gateway.place_call("bob@b")
                       for _ in range(200)]
            assert all(r["codec"] == "OPUS" for r in replies)
            assert replies[0]["parity"] is True
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_reference_fingerprint_is_replayed_once_per_scenario(monkeypatch):
    import repro.network.network as network_module
    built = []

    class CountedNetwork(network_module.Network):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(network_module, "Network", CountedNetwork)
    reference_fingerprint.cache_clear()
    audio = {reference_fingerprint("caller", "gw", "bob") for _ in range(5)}
    assert len(audio) == 1 and len(built) == 1
    assert reference_fingerprint("caller", "gw", "bob", "video") not in audio
    assert len(built) == 2
    reference_fingerprint.cache_clear()  # drop entries built on the fake


def test_call_validation_rejections():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            for body, reason in [
                ({}, "bad-target"),
                ({"to": 7}, "bad-target"),
                ({"to": "bob"}, "bad-target"),
                ({"to": "bo b@b"}, "bad-target"),
                ({"to": "bob@elsewhere"}, "unknown-peer"),
                ({"to": "bob@b", "medium": "smell"}, "bad-medium"),
                ({"to": "bob@b", "timeout": -1}, "bad-timeout"),
                ({"to": "bob@b", "timeout": 999}, "bad-timeout"),
                ({"to": "bob@b", "udp": True}, "bad-udp-count"),
                ({"to": "bob@b", "udp": -2}, "bad-udp-count"),
            ]:
                status, result = await _request(
                    gateway, "POST", "/call", body)
                assert status == 400, body
                assert result["error"]["reason"] == reason
            assert gateway.calls == 0  # none reached the network
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_unroutable_callee_maps_to_bad_gateway():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            status, result = await _request(
                gateway, "POST", "/call", {"to": "nobody@b"})
            assert status == 502
            assert result["error"]["reason"] == "live-leg-lost"
            assert not a.channels
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


# ----------------------------------------------------------------------
# front-door hygiene
# ----------------------------------------------------------------------
def test_path_and_method_hygiene():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            for path, status, reason in [
                ("/nope", 404, "not-found"),
                ("/call/../healthz", 400, "bad-path"),
                ("//healthz", 400, "bad-path"),
                ("/health%7Az", 400, "bad-path-chars"),
                ("/" + "x" * 200, 400, "path-too-long"),
            ]:
                got_status, result = await _request(
                    gateway, "GET", path)
                assert got_status == status, path
                assert result["error"]["reason"] == reason
            status, result = await _request(gateway, "GET", "/call")
            assert (status, result["error"]["reason"]) == \
                (405, "method-not-allowed")
            status, result = await _request(
                gateway, "POST", "/call", None)  # no body
            assert (status, result["error"]["reason"]) == \
                (400, "empty-body")
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_path_problem_unit():
    assert _path_problem("/healthz") is None
    assert _path_problem("healthz") == "bad-path"
    assert _path_problem("/a/../b") == "bad-path"
    assert _path_problem("/a//b") == "bad-path"
    assert _path_problem("/a%20b") == "bad-path-chars"
    assert _path_problem("/" + "p" * 100) == "path-too-long"


def test_rate_limit_answers_429_with_retry_after():
    async def scenario():
        a, b, gateway = await _stack(rate=0.001, burst=2)
        try:
            statuses = []
            for _ in range(4):
                status, _body = await _request(
                    gateway, "GET", "/healthz")
                statuses.append(status)
            assert statuses[:2] == [200, 200]
            assert statuses[2] == statuses[3] == 429
            assert gateway.rejected == 2
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


# ----------------------------------------------------------------------
# observability endpoints
# ----------------------------------------------------------------------
def test_healthz_and_events_snapshots():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            status, health = await _request(gateway, "GET", "/healthz")
            assert status == 200
            assert health["node"] == "a"
            assert health["gateway"] == {"calls": 0, "rejected": 0}
            assert "b" in health["peers"]
            status, events = await _request(gateway, "GET", "/events")
            assert status == 200
            assert any(e["action"] == "gateway-up" for e in events)
            status, channels = await _request(
                gateway, "GET", "/channels")
            assert (status, channels) == (200, {})
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_websocket_streams_events():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            host, port = gateway.listen_address
            reader, writer = await asyncio.open_connection(host, port)
            key = base64.b64encode(b"0123456789abcdef").decode()
            writer.write((
                "GET /ws/events HTTP/1.1\r\nHost: x\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                "Sec-WebSocket-Key: %s\r\n\r\n" % key).encode())
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"101 Switching Protocols" in head
            expected = base64.b64encode(hashlib.sha1(
                (key + "258EAFA5-E914-47DA-95CA-C5AB0DC85B11")
                .encode()).digest())
            assert expected in head
            a._emit("test-event", detail="hello-ws")
            frame_head = await reader.readexactly(2)
            assert frame_head[0] == 0x81  # FIN + text
            payload = await reader.readexactly(frame_head[1] & 0x7F)
            event = json.loads(payload)
            assert event["action"] == "test-event"
            writer.write(b"\x88\x80\x00\x00\x00\x00")  # masked close
            await writer.drain()
            writer.close()
            assert await a.wait_for(lambda: not a.subscribers)
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_non_websocket_upgrade_is_rejected():
    async def scenario():
        a, b, gateway = await _stack()
        try:
            status, result = await _request(
                gateway, "GET", "/ws/events")
            assert status == 400
            assert result["error"]["reason"] == "not-a-websocket"
        finally:
            await _teardown(a, b, gateway)
    run(scenario())


def test_ws_text_frame_length_encodings():
    assert _ws_text_frame(b"x")[:2] == b"\x81\x01"
    medium = _ws_text_frame(b"y" * 300)
    assert medium[:4] == b"\x81\x7e\x01\x2c"
    large = _ws_text_frame(b"z" * 70000)
    assert large[:2] == b"\x81\x7f"
    assert int.from_bytes(large[2:10], "big") == 70000
