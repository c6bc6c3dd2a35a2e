"""The send fast path on the perfect transport.

With no trace attached the perfect transport is *inactive*: it could
neither delay, drop, nor observe a message, so :meth:`ChordRing.send`
skips :meth:`~repro.net.PerfectTransport.deliver` and applies the
dead-destination rule itself.  Attaching a :class:`~repro.net.TraceLog`
activates the transport and routes every send through ``deliver``.  The
two paths must be indistinguishable in traffic, answers and index state.
"""

from __future__ import annotations

import pytest

from repro.config import ChordConfig
from repro.core import SpriteSystem
from repro.corpus.synthetic import build_synthetic_collection
from repro.dht.messages import Message, MessageKind
from repro.dht.ring import ChordRing
from repro.exceptions import NodeFailedError, NodeNotFoundError
from repro.net import PerfectTransport, TraceLog
from repro.sim import write_state_fingerprint

CHORD = ChordConfig(num_peers=40, id_bits=32, seed=17)


def run(collection, sprite_config, transport: PerfectTransport):
    corpus, queries, __ = collection
    system = SpriteSystem(
        corpus, sprite_config=sprite_config, chord_config=CHORD, transport=transport
    )
    system.share_corpus()
    system.register_queries(queries)
    system.run_learning()
    rankings = [
        [(a.doc_id, a.score) for a in system.search(query, cache=False)]
        for query in queries
    ]
    return system, rankings


def test_inactive_and_traced_paths_agree(micro_corpus_config, fast_sprite_config) -> None:
    collection = build_synthetic_collection(micro_corpus_config)
    fast_transport = PerfectTransport()
    fast, fast_rankings = run(collection, fast_sprite_config, fast_transport)
    log = TraceLog()
    traced, traced_rankings = run(collection, fast_sprite_config, PerfectTransport(trace=log))

    assert not fast_transport.active
    assert len(log) > 0  # the traced run really went through deliver
    assert fast.ring.stats.summary() == traced.ring.stats.summary()
    assert fast_rankings == traced_rankings
    assert any(fast_rankings)
    assert write_state_fingerprint(fast) == write_state_fingerprint(traced)


@pytest.fixture()
def ring() -> ChordRing:
    ring = ChordRing(ChordConfig(num_peers=16, id_bits=16, seed=3))
    assert not ring.transport.active
    return ring


def message(ring: ChordRing, dst: int) -> Message:
    return Message(kind=MessageKind.SEARCH_TERM, src=ring.live_ids[0], dst=dst)


def test_send_on_fast_path_skips_deliver(ring, monkeypatch) -> None:
    def forbidden(self, *args, **kwargs):
        raise AssertionError("deliver called on an inactive transport")

    monkeypatch.setattr(PerfectTransport, "deliver", forbidden)
    ring.send(message(ring, ring.live_ids[1]))
    assert ring.stats.kind(MessageKind.SEARCH_TERM).messages == 1


def test_send_to_failed_unstabilized_peer_raises(ring) -> None:
    victim = ring.live_ids[5]
    ring.fail(victim)
    assert not ring.converged
    with pytest.raises(NodeFailedError):
        ring.send(message(ring, victim))
    assert ring.stats.total_messages == 0


def test_send_to_unknown_id_raises(ring) -> None:
    unknown = next(i for i in range(1 << 16) if i not in ring.nodes)
    with pytest.raises(NodeNotFoundError):
        ring.send(message(ring, unknown))
    assert ring.stats.total_messages == 0
