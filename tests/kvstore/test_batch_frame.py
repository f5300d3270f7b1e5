"""Property tests for the batch frame codec (Hypothesis).

The frame is the unit of atomicity for batched commands: a decoder
either yields every framed command, in order, or raises ``FrameError``
— never a prefix. These tests pin that contract down:

- round-trip identity for arbitrary command lists, including empty
  values, 0-byte keys, and empty batches;
- any truncation and any single bit flip is rejected by CRC;
- rejection is all-or-nothing (the exception carries no partial list);
- ``frame_size`` agrees with the concrete encoding for ASCII keys
  (the modeled-size path must match the concrete path byte-for-byte).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# Keep the sweep fast and deterministic-ish under CI: modest example
# counts, and no too_slow flakes on cold interpreters.
common = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

from repro.kvstore import (
    BatchItem,
    BatchMeta,
    Command,
    FrameError,
    FramedCommand,
    decode_frame,
    encode_frame,
    frame_size,
)
from repro.kvstore.batch import (
    ENTRY_OVERHEAD,
    FRAME_OVERHEAD,
    MAGIC,
    items_of,
    payloads_of,
)

# Keys/clients exercise unicode (multi-byte UTF-8) and the empty
# string; values exercise b"" and arbitrary bytes.
keys = st.text(max_size=32)
clients = st.text(max_size=16)
ops = st.sampled_from(["put", "delete", "read"])


@st.composite
def commands(draw):
    op = draw(ops)
    data = draw(st.binary(max_size=128)) if op == "put" else b""
    return FramedCommand(
        op=op,
        key=draw(keys),
        data=data,
        client=draw(clients),
        op_id=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )


command_lists = st.lists(commands(), max_size=12).map(tuple)


@common
@given(command_lists)
def test_round_trip(cmds):
    assert decode_frame(encode_frame(cmds)) == cmds


def test_round_trip_edge_cases():
    cmds = (
        FramedCommand("put", "", data=b"", client="", op_id=0),
        FramedCommand("put", "k", data=b"\x00" * 7, client="c1", op_id=1),
        FramedCommand("delete", "k", client="c2", op_id=2**64 - 1),
        FramedCommand("read", "missing"),
    )
    assert decode_frame(encode_frame(cmds)) == cmds
    assert decode_frame(encode_frame(())) == ()


@common
@given(command_lists, st.data())
def test_truncation_rejected(cmds, data):
    buf = encode_frame(cmds)
    cut = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    with pytest.raises(FrameError):
        decode_frame(buf[:cut])


@common
@given(command_lists, st.data())
def test_bit_flip_rejected(cmds, data):
    buf = bytearray(encode_frame(cmds))
    pos = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    buf[pos] ^= 1 << bit
    with pytest.raises(FrameError):
        decode_frame(bytes(buf))


def test_every_bit_of_a_small_frame_is_covered():
    """Exhaustive single-bit sweep: no blind spot anywhere in the frame
    (magic, count, entry heads, CRCs, payload bytes)."""
    cmds = (
        FramedCommand("put", "a", data=b"xy", client="c", op_id=7),
        FramedCommand("delete", "b", client="c", op_id=8),
    )
    buf = encode_frame(cmds)
    for pos in range(len(buf)):
        for bit in range(8):
            corrupt = bytearray(buf)
            corrupt[pos] ^= 1 << bit
            with pytest.raises(FrameError):
                decode_frame(bytes(corrupt))


@common
@given(command_lists)
def test_rejection_is_all_or_nothing(cmds):
    """A bad frame yields an exception, never a prefix of commands —
    the apply path can therefore never half-apply a batch."""
    buf = encode_frame(cmds)
    # Corrupt the LAST entry's final byte (just before the frame CRC):
    # a prefix-yielding decoder would return the earlier commands.
    if len(buf) > FRAME_OVERHEAD:
        bad = bytearray(buf)
        bad[-5] ^= 0xFF
        try:
            out = decode_frame(bytes(bad))
        except FrameError:
            out = None
        assert out is None  # no partial tuple ever escapes


@common
@given(command_lists)
def test_trailing_garbage_rejected(cmds):
    with pytest.raises(FrameError):
        decode_frame(encode_frame(cmds) + b"\x00")


def test_bad_magic_rejected():
    buf = bytearray(encode_frame((FramedCommand("put", "k", data=b"v"),)))
    buf[:2] = b"\xff\xff"
    with pytest.raises(FrameError):
        decode_frame(bytes(buf))
    assert bytes(MAGIC) != b"\xff\xff"


@common
@given(command_lists)
def test_frame_size_matches_encoding_for_ascii(cmds):
    """The modeled-size formula equals the concrete frame length when
    key/client are ASCII (1 byte per char, as the sim's keys are)."""
    ascii_cmds = tuple(
        FramedCommand(
            c.op, f"k{i}", data=c.data, client=f"c{i}", op_id=c.op_id
        )
        for i, c in enumerate(cmds)
    )
    items = tuple(
        BatchItem(c.op, c.key, len(c.data), c.client, c.op_id)
        for c in ascii_cmds
    )
    assert frame_size(items) == len(encode_frame(ascii_cmds))


def test_overhead_constants_match_reality():
    empty = encode_frame(())
    assert len(empty) == FRAME_OVERHEAD
    one = encode_frame((FramedCommand("put", "", data=b"", client=""),))
    assert len(one) == FRAME_OVERHEAD + ENTRY_OVERHEAD


def test_encode_rejects_unknown_op_and_oversize_fields():
    with pytest.raises(FrameError):
        encode_frame((FramedCommand("view", "k"),))
    with pytest.raises(FrameError):
        encode_frame((FramedCommand("put", "k" * 70000),))
    with pytest.raises(FrameError):
        encode_frame((FramedCommand("put", "k", client="c" * 70000),))
    with pytest.raises(FrameError):
        encode_frame((FramedCommand("put", "k", op_id=2**64),))


def test_plain_commands_are_batches_of_one():
    assert items_of(Command("put", "k", client="c", op_id=3), 9) == (
        BatchItem("put", "k", 9, "c", 3),
    )
    assert items_of(Command("copy", "k", arg="tombstone"), 0) == (
        BatchItem("delete", "k", 0),
    )
    assert items_of(Command("fence", "k")) == ()
    assert payloads_of(Command("put", "k"), b"v", 1) == [b"v"]


@common
@given(command_lists)
def test_damaged_frame_yields_no_payloads(cmds):
    """Apply reads batch payloads through payloads_of: a frame that
    fails validation gives every command None, never a partial list."""
    meta = Command("batch", "", arg=BatchMeta(tuple(
        BatchItem(c.op, c.key, len(c.data), c.client, c.op_id) for c in cmds
    )))
    buf = encode_frame(cmds)
    assert payloads_of(meta, buf, len(cmds)) == [c.data for c in cmds]
    bad = bytearray(buf)
    bad[-5] ^= 0xFF
    assert payloads_of(meta, bytes(bad), len(cmds)) == [None] * len(cmds)
