"""Equivalence of the mask-based routing arithmetic with the modular
formulas it replaced.

The reference functions below are the old implementations written out
literally: every clockwise distance is ``(b - a) % 2**bits`` and every
interval test goes through ``in_interval``.  The production code computes
the same distances inline as ``(b - a) & mask``; these properties pin
that the two agree on every input, including the interval edges
(``a == b``, ``x == a``, ``x == b``, ``key == node_id``) and wrap-around,
so routes, hop counts and query deduplication stay bit-identical.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.hashing import IdSpace
from repro.dht.node import ChordNode

BITS = st.sampled_from([8, 32, 128])


# -- reference formulas -------------------------------------------------------


def ref_distance(a: int, b: int, size: int) -> int:
    return (b - a) % size


def ref_in_interval(x: int, a: int, b: int, size: int, inclusive_right: bool = True) -> bool:
    if a == b:
        return True if inclusive_right else x != a
    d_ab = ref_distance(a, b, size)
    d_ax = ref_distance(a, x, size)
    if inclusive_right:
        return 0 < d_ax <= d_ab
    return 0 < d_ax < d_ab


def ref_owns(node_id: int, predecessor, key: int, size: int) -> bool:
    if predecessor is None:
        return True
    return ref_in_interval(key, predecessor, node_id, size)


def ref_closest_preceding_finger(node_id, fingers, key, is_usable, size) -> int:
    for finger in reversed(fingers):
        if finger == node_id:
            continue
        if not is_usable(finger):
            continue
        if ref_in_interval(finger, node_id, key, size, inclusive_right=False):
            return finger
    return node_id


def ref_closest_term_to_key(key_hash: int, term_hashes: dict, size: int) -> str:
    def ring_gap(term: str) -> tuple:
        h = term_hashes[term]
        forward = ref_distance(key_hash, h, size)
        backward = ref_distance(h, key_hash, size)
        return (min(forward, backward), term)

    return min(term_hashes, key=ring_gap)


# -- strategies ---------------------------------------------------------------


def ring_point(data, bits: int, anchors=()) -> int:
    """A ring position: uniform, or within a few steps of an anchor (so
    the interval edges and the wrap at 0 / 2**bits - 1 come up often)."""
    size = 1 << bits
    choices = [0, size - 1, *anchors]
    if data.draw(st.booleans()):
        return data.draw(st.integers(0, size - 1))
    anchor = data.draw(st.sampled_from(choices))
    return (anchor + data.draw(st.integers(-2, 2))) % size


# -- properties ---------------------------------------------------------------


@given(bits=BITS, data=st.data())
def test_mask_is_size_minus_one(bits: int, data) -> None:
    space = IdSpace(bits)
    assert space.mask == space.size - 1 == (1 << bits) - 1
    a = ring_point(data, bits)
    b = ring_point(data, bits, (a,))
    assert space.distance(a, b) == ref_distance(a, b, space.size)


@settings(max_examples=300)
@given(bits=BITS, inclusive_right=st.booleans(), data=st.data())
def test_in_interval_matches_reference(bits: int, inclusive_right: bool, data) -> None:
    space = IdSpace(bits)
    a = ring_point(data, bits)
    b = ring_point(data, bits, (a,))
    x = ring_point(data, bits, (a, b))
    assert space.in_interval(x, a, b, inclusive_right=inclusive_right) == ref_in_interval(
        x, a, b, space.size, inclusive_right
    )


@given(bits=BITS, inclusive_right=st.booleans(), data=st.data())
def test_in_interval_edges(bits: int, inclusive_right: bool, data) -> None:
    space = IdSpace(bits)
    a = ring_point(data, bits)
    b = ring_point(data, bits, (a,))
    for x in (a, b):
        assert space.in_interval(x, a, b, inclusive_right) == ref_in_interval(
            x, a, b, space.size, inclusive_right
        )
    # a == b: the whole ring (less a itself when right-open).
    assert space.in_interval(b, a, a, inclusive_right) == ref_in_interval(
        b, a, a, space.size, inclusive_right
    )


@settings(max_examples=300)
@given(bits=BITS, data=st.data())
def test_owns_matches_reference(bits: int, data) -> None:
    node_id = ring_point(data, bits)
    node = ChordNode(node_id, IdSpace(bits))
    shape = data.draw(st.sampled_from(["none", "self", "point"]))
    if shape == "none":
        node.predecessor = None
    elif shape == "self":
        node.predecessor = node_id
    else:
        node.predecessor = ring_point(data, bits, (node_id,))
    anchors = (node_id,) if node.predecessor is None else (node_id, node.predecessor)
    key = ring_point(data, bits, anchors)
    assert node.owns(key) == ref_owns(node_id, node.predecessor, key, 1 << bits)


@settings(max_examples=300)
@given(bits=BITS, data=st.data())
def test_closest_preceding_finger_matches_reference(bits: int, data) -> None:
    """Random finger lists — unsorted, stale, holding the node itself or
    duplicates — under a random usability mask."""
    size = 1 << bits
    node_id = ring_point(data, bits)
    key = node_id if data.draw(st.booleans()) else ring_point(data, bits, (node_id,))
    fingers = [
        ring_point(data, bits, (node_id, key))
        for __ in range(data.draw(st.integers(0, 12)))
    ]
    if data.draw(st.booleans()):
        fingers.sort(key=lambda f: (f - node_id) % size)
    usable = {f for f in fingers if data.draw(st.booleans())}
    node = ChordNode(node_id, IdSpace(bits), num_fingers=len(fingers))
    node.fingers = list(fingers)
    assert node.closest_preceding_finger(key, usable.__contains__) == (
        ref_closest_preceding_finger(node_id, fingers, key, usable.__contains__, size)
    )


def test_closest_preceding_finger_with_key_at_node_opens_whole_ring() -> None:
    node = ChordNode(100, IdSpace(8), num_fingers=4)
    node.fingers = [101, 100, 50, 99]
    assert node.closest_preceding_finger(100, lambda f: True) == 99
    assert node.closest_preceding_finger(100, lambda f: f != 99) == 50
    assert node.closest_preceding_finger(100, lambda f: False) == 100


@settings(max_examples=300)
@given(bits=BITS, data=st.data())
def test_closest_term_to_key_matches_reference(bits: int, data) -> None:
    """Includes equal gaps in both directions and equal hashes, where the
    lexicographic term tie-break decides."""
    size = 1 << bits
    key_hash = ring_point(data, bits)
    terms = data.draw(
        st.lists(st.text("abcd", min_size=1, max_size=3), min_size=1, max_size=8, unique=True)
    )
    term_hashes = {}
    for term in terms:
        gap = data.draw(st.integers(0, 3))
        mirrored = data.draw(st.sampled_from([key_hash + gap, key_hash - gap]))
        term_hashes[term] = data.draw(
            st.one_of(st.just(mirrored % size), st.integers(0, size - 1))
        )
    space = IdSpace(bits)
    assert space.closest_term_to_key(key_hash, term_hashes) == ref_closest_term_to_key(
        key_hash, term_hashes, size
    )


def test_closest_term_to_key_tie_goes_to_smaller_term() -> None:
    space = IdSpace(8)
    # Both candidates sit 3 positions from the key, one each way, across
    # the wrap at 0.
    assert space.closest_term_to_key(1, {"zeta": 4, "alpha": 254}) == "alpha"
    assert space.closest_term_to_key(1, {"zeta": 4, "alpha": 5}) == "zeta"
