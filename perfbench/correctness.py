"""Output checks for the benchmark: exhaustive TF·IDF recomputation,
ranking checksums and the write-state digest.

The reference ranking is recomputed from the slot contents the system
actually holds (read through ``IndexingProtocol.slot_snapshot``, which
sends no messages), with the indexed document frequency and the fixed
large N of the paper's Section 4.  A served ranking passes when it lists
the same documents in the same order with scores within ``TOLERANCE``.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List, Tuple

from repro.sim.oracle import write_state_fingerprint

#: Largest accepted absolute difference between a served and a
#: recomputed score.
TOLERANCE = 1e-9


def _idf(corpus_size: int, df: int) -> float:
    if df <= 0:
        return 0.0
    return math.log(max(corpus_size / df, 1.0))


def exhaustive_ranking(protocol, terms, corpus_size: int, top_k: int) -> List[Tuple[str, float]]:
    """Score every posting of every query term; best *top_k* first
    (descending score, ascending doc id)."""
    dots: Dict[str, float] = {}
    lengths: Dict[str, int] = {}
    for term in dict.fromkeys(terms):
        slot = protocol.slot_snapshot(term)
        if slot is None:
            continue
        df = slot.indexed_document_frequency
        if df <= 0:
            continue
        idf = _idf(corpus_size, df)
        for entry in slot.entries():
            contribution = idf * (entry.normalized_tf * idf)
            dots[entry.doc_id] = dots.get(entry.doc_id, 0.0) + contribution
            lengths[entry.doc_id] = entry.doc_length
    scores = [
        (doc_id, dot / math.sqrt(lengths[doc_id]) if lengths[doc_id] > 0 else 0.0)
        for doc_id, dot in dots.items()
    ]
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores[:top_k]


def rankings_agree(served, reference: List[Tuple[str, float]]) -> bool:
    """Same doc order, scores within :data:`TOLERANCE`."""
    pairs = [(e.doc_id, e.score) for e in served]
    if [d for d, __ in pairs] != [d for d, __ in reference]:
        return False
    return all(abs(a - b) <= TOLERANCE for (__, a), (__, b) in zip(pairs, reference))


class Checker:
    """Checks a seeded sample of served rankings and folds every served
    ranking into a checksum.

    ``sample_share`` of the rankings passed to :meth:`observe` are
    recomputed exhaustively; :meth:`check` recomputes unconditionally.
    """

    def __init__(self, seed: int, sample_share: float) -> None:
        self._rng = random.Random(seed)
        self._sample_share = sample_share
        self._hash = hashlib.sha256()
        self.checked = 0
        self.mismatched = 0

    def observe(self, system, query, ranked) -> bool:
        """Fold *ranked* into the checksum and, for the sampled share,
        check it.  Returns False on a mismatch."""
        self.fold(query, ranked)
        if self._rng.random() >= self._sample_share:
            return True
        return self.check(system, query, ranked)

    def check(self, system, query, ranked) -> bool:
        reference = exhaustive_ranking(
            system.protocol,
            query.terms,
            system.config.assumed_corpus_size,
            system.config.top_k_answers,
        )
        self.checked += 1
        if rankings_agree(ranked, reference):
            return True
        self.mismatched += 1
        return False

    def fold(self, query, ranked) -> None:
        self._hash.update(query.query_id.encode())
        for entry in ranked:
            self._hash.update(f"|{entry.doc_id}:{entry.score!r}".encode())
        self._hash.update(b"\n")

    @property
    def checksum(self) -> str:
        return self._hash.hexdigest()


def write_state_digest(system) -> str:
    """sha256 over the system's write state: every slot's postings and
    aggregates, the slot-version order, and every owner's index terms,
    poll cursors and learner statistics."""
    fingerprint = write_state_fingerprint(system)
    digest = hashlib.sha256()
    digest.update(repr(sorted(fingerprint["slots"].items())).encode())
    digest.update(repr(fingerprint["version_rank"]).encode())
    digest.update(repr(sorted(fingerprint["owners"].items())).encode())
    return digest.hexdigest()
