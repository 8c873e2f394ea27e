"""The seam-fed journal of a live half-channel holds exactly what the
transmit hook recorded before it: entry by entry, both directions, on
the gateway node and on the callee node.

Two references for one canonical gateway call (open, flow, hang up):
the hook on a pure sim channel (what ``reference_fingerprint`` hashes),
and the hook shadowing the very half-channels the live call runs on.
Runs under whichever backend ``REPRO_BACKEND`` selects; CI runs both.
"""

import asyncio

from repro.livenet.gateway import Gateway
from repro.livenet.journal import SignalJournal, host_for
from repro.livenet.tcp import LiveNode
from repro.livenet.wire import encode_envelope
from repro.network.network import Network
from repro.protocol.signals import ChannelUp, MetaMessage


def _sim_call():
    """caller -- gw -- bob in one simulator, journaled by transmit hook
    from both ends of the gw--bob leg, torn down as the gateway does."""
    net = Network(seed=0)
    caller = net.device("caller", host=host_for("caller"))
    box = net.box("gw")
    bob = net.device("bob", auto_accept=True, host=host_for("bob"))
    ch1 = net.channel(caller, box)
    ch2 = net.channel(box, bob, target="bob", strict=False)
    box_side, bob_side = SignalJournal(), SignalJournal()
    box_side.attach(ch2, 0)
    bob_side.attach(ch2, 1)
    box.flow_link(ch1.responder_end.slot(), ch2.initiator_end.slot())
    caller.open(ch1.initiator_end.slot(), "audio")
    net.settle()
    ch2.initiator_end.tear_down()
    ch1.initiator_end.tear_down()
    net.settle()
    return box_side, bob_side


async def _live_call():
    """The same call through the gateway over localhost TCP.  Returns,
    per node, the seam-fed journal and a hook journal attached where
    ``LiveChannel`` used to attach its own."""
    a, b = LiveNode("a"), LiveNode("b")
    await a.start()
    await b.start()
    b.net.device("bob", auto_accept=True, host=host_for("bob"))
    gateway = Gateway(a)
    await gateway.start()
    a.add_peer("b", *b.listen_address)
    captured = {}

    def shadow(node):
        def subscriber(event):
            if event["action"] in ("channel-open", "channel-accept"):
                half = node.channels[event["detail"]].half
                hooked = SignalJournal()
                hooked.attach(half.channel, half._local_side)
                captured[node.name] = (half.journal, hooked)
        return subscriber
    a.subscribers.append(shadow(a))
    b.subscribers.append(shadow(b))
    try:
        result = await gateway.place_call("bob@b")
        assert result["parity"] is True
        assert await b.wait_for(lambda: not b.channels)
    finally:
        await gateway.stop()
        await a.stop()
        await b.stop()
    return captured


def test_seam_feed_equals_transmit_hook_entry_by_entry():
    sim_box, sim_bob = _sim_call()
    live = asyncio.run(asyncio.wait_for(_live_call(), 30))
    box_fed, box_hooked = live["a"]
    bob_fed, bob_hooked = live["b"]

    # Same run, old instrument against new.
    assert box_fed.sent == box_hooked.sent
    assert box_fed.received == box_hooked.received
    assert bob_fed.sent == bob_hooked.sent
    assert bob_fed.received == bob_hooked.received

    # Live against the simulator.  The open, the teardown and what lies
    # between are all there...
    assert len(sim_box.sent) >= 3 and len(sim_box.received) >= 3
    assert box_fed.sent == sim_box.sent
    assert box_fed.received == sim_box.received
    assert bob_fed.sent == sim_bob.sent
    # ...and the one entry a sim hook cannot see is the initiator's
    # ChannelUp announce, sent while the channel is being constructed;
    # the live callee receives it off the wire like any envelope.
    announce = encode_envelope(MetaMessage(ChannelUp(target="bob")))
    assert bob_fed.received == [announce] + sim_bob.received
    assert announce not in box_fed.sent
