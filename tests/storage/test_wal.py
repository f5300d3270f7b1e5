"""Unit tests for the write-ahead log."""

import os

import pytest

from repro.core.ballot import Ballot
from repro.core.value import CodedShare
from repro.erasure import CodingConfig
from repro.kvstore.batch import FramedCommand
from repro.sim import Simulator
from repro.storage import HDD, SSD, Disk, WriteAheadLog, record_checksum
from repro.storage.wal import RECORD_HEADER_BYTES


def make_wal(window=0.0, spec=SSD):
    sim = Simulator()
    disk = Disk(sim, spec)
    wal = WriteAheadLog(sim, disk, group_commit_window=window)
    return sim, disk, wal


class TestAppend:
    def test_callback_after_durable(self):
        sim, disk, wal = make_wal()
        done = []
        wal.append("rec", 100, lambda: done.append(sim.now))
        assert done == []  # not durable until the flush completes
        sim.run()
        assert len(done) == 1
        assert done[0] > 0
        assert wal.durable[0].payload == "rec"

    def test_lsns_monotonic(self):
        sim, disk, wal = make_wal()
        lsns = [wal.append(i, 10, lambda: None) for i in range(5)]
        assert lsns == [0, 1, 2, 3, 4]

    def test_negative_size_rejected(self):
        sim, disk, wal = make_wal()
        with pytest.raises(ValueError):
            wal.append("x", -1, lambda: None)

    def test_record_header_charged(self):
        sim, disk, wal = make_wal()
        wal.append("x", 100, lambda: None)
        sim.run()
        assert disk.bytes_written == 100 + RECORD_HEADER_BYTES


class TestGroupCommit:
    def test_batches_into_one_flush(self):
        sim, disk, wal = make_wal(window=0.005)
        done = []
        for i in range(10):
            wal.append(i, 50, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 10
        assert disk.flushes == 1
        # All callbacks fire at the same completion instant.
        assert len(set(done)) == 1

    def test_window_zero_adaptive_batching(self):
        # Window 0: the first append flushes immediately; appends landing
        # while that flush is in flight coalesce into ONE follow-up
        # flush (adaptive group commit, never more than one in flight).
        sim, disk, wal = make_wal(window=0.0)
        for i in range(4):
            wal.append(i, 50, lambda: None)
        sim.run()
        assert disk.flushes == 2

    def test_never_more_than_one_flush_in_flight(self):
        # 200 appends trickling in at 1 kHz against a 100-IOPS disk:
        # adaptive batching keeps the disk at ~1 flush per 10 ms and the
        # log keeps up with the offered load instead of queueing flushes.
        sim = Simulator()
        disk = Disk(sim, HDD)
        wal = WriteAheadLog(sim, disk, group_commit_window=0.0)
        done = []

        def submit(i=0):
            if i < 200:
                wal.append(i, 100, lambda: done.append(sim.now))
                sim.call_after(0.001, lambda: submit(i + 1))

        submit()
        sim.run()
        assert len(done) == 200
        # 200 ms of offered load finishes in ~220 ms, not 2 s (which is
        # what 200 serialized 10 ms flushes would cost).
        assert done[-1] < 0.5
        # Batch sizes self-clock to ~10 ops per flush.
        assert disk.flushes <= 25

    def test_group_commit_window_accumulates_when_idle(self):
        # With a window, even an idle-disk append waits to collect peers.
        sim, disk, wal = make_wal(window=0.005)
        done = []
        wal.append("a", 10, lambda: done.append(sim.now))
        sim.call_at(0.004, lambda: wal.append("b", 10, lambda: done.append(sim.now)))
        sim.run()
        assert disk.flushes == 1
        assert len(done) == 2

    def test_flush_now(self):
        sim, disk, wal = make_wal(window=100.0)
        done = []
        wal.append("x", 10, lambda: done.append(1))
        wal.flush_now()
        sim.run(until=1.0)
        assert done == [1]

    def test_ordering_preserved(self):
        sim, disk, wal = make_wal(window=0.001)
        order = []
        for i in range(5):
            wal.append(i, 10, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]
        assert [r.payload for r in wal.durable] == [0, 1, 2, 3, 4]


class TestCrashRecovery:
    def test_pending_lost_durable_kept(self):
        sim, disk, wal = make_wal(window=0.0, spec=HDD)
        done = []
        wal.append("a", 10, lambda: done.append("a"))
        sim.run()  # 'a' durable
        wal.append("b", 10, lambda: done.append("b"))
        # Crash before the 10 ms HDD flush completes.
        wal.crash()
        sim.run()
        assert done == ["a"]
        records = wal.recover()
        assert [r.payload for r in records] == ["a"]

    def test_pending_batch_lost_on_crash(self):
        sim, disk, wal = make_wal(window=10.0)
        done = []
        wal.append("a", 10, lambda: done.append("a"))
        wal.crash()
        sim.run()
        assert done == []
        assert len(wal) == 0

    def test_recover_resets_lsn_after_durable_tail(self):
        sim, disk, wal = make_wal()
        wal.append("a", 10, lambda: None)
        sim.run()
        wal.append("b", 10, lambda: None)  # lsn 1, lost
        wal.crash()
        wal.recover()
        lsn = wal.append("c", 10, lambda: None)
        assert lsn == 1  # reuses the slot of the lost record

    def test_callback_not_fired_for_lost_records(self):
        sim, disk, wal = make_wal(spec=HDD)
        fired = []
        wal.append("x", 10, lambda: fired.append(1))
        wal.crash()
        sim.run()
        # The disk op may still "complete" physically, but the batch was
        # dropped before submission, so nothing fires.
        assert fired == []

    def test_crash_mid_group_commit_recovers_only_flushed_prefix(self):
        # Records a,b flushed durably; c,d appended into the next
        # group-commit window; crash strikes before that window closes.
        # Recovery must surface exactly the flushed prefix [a, b].
        sim, disk, wal = make_wal(window=0.005)
        acked = []
        wal.append("a", 10, lambda: acked.append("a"))
        wal.append("b", 10, lambda: acked.append("b"))
        sim.run()  # first batch durable
        assert acked == ["a", "b"]
        wal.append("c", 10, lambda: acked.append("c"))
        wal.append("d", 10, lambda: acked.append("d"))
        wal.crash()  # window still open: c,d never reached the device
        sim.run()
        assert acked == ["a", "b"]
        records = wal.recover()
        assert [r.payload for r in records] == ["a", "b"]
        assert wal.recovery_discarded == 0  # nothing torn, just lost


class TestChecksums:
    def test_appended_records_carry_valid_crc(self):
        sim, disk, wal = make_wal()
        wal.append(("accept", 1), 100, lambda: None)
        sim.run()
        rec = wal.durable[0]
        assert rec.valid
        assert rec.crc == record_checksum(rec.lsn, rec.payload)

    def test_corrupt_record_fails_verify(self):
        sim, disk, wal = make_wal()
        for i in range(3):
            wal.append(("accept", i), 50, lambda: None)
        sim.run()
        assert wal.verify() == []
        assert wal.corrupt_record(1)
        bad = wal.verify()
        assert [r.lsn for r in bad] == [1]
        assert not bad[0].valid

    def test_payload_mutation_detected(self):
        # Bit-rot that swaps the payload bytes without touching the
        # stored CRC is caught, exactly like flipped media bits.
        sim, disk, wal = make_wal()
        wal.append(("accept", 7), 50, lambda: None)
        sim.run()
        assert wal.corrupt_record(0, payload=("accept", 8))
        assert not wal.durable[0].valid

    def test_corrupt_unknown_lsn_is_noop(self):
        sim, disk, wal = make_wal()
        assert not wal.corrupt_record(99)

    def test_recovery_carries_corrupt_records(self):
        # Checksum-failed but structurally framed records survive
        # recovery (the scrubber repairs them later); only torn tails
        # are truncated.
        sim, disk, wal = make_wal()
        for i in range(3):
            wal.append(("accept", i), 50, lambda: None)
        sim.run()
        wal.corrupt_record(1)
        wal.crash()
        records = wal.recover()
        assert [r.lsn for r in records] == [0, 1, 2]
        assert wal.recovery_corrupt == 1
        assert wal.recovery_discarded == 0

    def test_rewrite_record_restores_validity(self):
        sim, disk, wal = make_wal()
        wal.append(("accept", 1), 50, lambda: None)
        sim.run()
        wal.corrupt_record(0)
        assert wal.verify()
        written_before = disk.bytes_written
        assert wal.rewrite_record(0, ("accept", 1), 50)
        sim.run()
        assert wal.verify() == []
        assert wal.durable[0].valid
        # The repair charges one device write for the record.
        assert disk.bytes_written == written_before + 50 + RECORD_HEADER_BYTES

    def test_rewrite_unknown_lsn_is_noop(self):
        sim, disk, wal = make_wal()
        assert not wal.rewrite_record(5, "x", 10)


class _NoRepr(bytes):
    """Share bytes that must never be escaped through ``repr``."""

    def __repr__(self):
        raise AssertionError("share bytes passed through repr")


def concrete_accept(data: bytes, corrupt: bool = False):
    share = CodedShare("v0.1", 2, CodingConfig(3, 5), 3 * len(data), data,
                       meta=("put", "k"), members=(0, 1, 2, 3, 4),
                       corrupt=corrupt)
    return ("accept", 7, Ballot(3, 1), share)


class TestShareChecksums:
    """Checksums over records that carry concrete coded share bytes."""

    def durable_accept(self, data: bytes):
        sim, disk, wal = make_wal()
        wal.append(concrete_accept(data), len(data), lambda: None)
        sim.run()
        assert wal.durable[0].valid
        return wal

    def test_one_byte_of_share_data_differs(self):
        data = os.urandom(4096)
        wal = self.durable_accept(data)
        rotten = bytearray(data)
        rotten[1234] ^= 0x01
        assert wal.corrupt_record(0, payload=concrete_accept(bytes(rotten)))
        assert not wal.durable[0].valid
        assert [r.lsn for r in wal.verify()] == [0]

    def test_corrupt_flag_flipped(self):
        wal = self.durable_accept(os.urandom(512))
        op, inst, ballot, share = wal.durable[0].payload
        assert wal.corrupt_record(0, payload=(op, inst, ballot, share.corrupted()))
        assert not wal.durable[0].valid

    def test_payload_swapped_for_another_structure(self):
        wal = self.durable_accept(os.urandom(512))
        assert wal.corrupt_record(0, payload=("promise", Ballot(3, 1)))
        assert not wal.durable[0].valid

    def test_stored_crc_bits_flipped(self):
        wal = self.durable_accept(os.urandom(512))
        assert wal.corrupt_record(0)
        assert not wal.durable[0].valid

    def test_equal_payload_rebuilt_stays_valid(self):
        data = os.urandom(2048)
        wal = self.durable_accept(data)
        assert wal.corrupt_record(0, payload=concrete_accept(bytes(data)))
        assert wal.durable[0].valid

    def test_share_bytes_never_pass_through_repr(self):
        data = _NoRepr(os.urandom(1024))
        sim, disk, wal = make_wal()
        wal.append(concrete_accept(data), len(data), lambda: None)
        wal.append([{"frame": FramedCommand("put", "k", data)}], 1, lambda: None)
        sim.run()
        assert wal.verify() == []
        wal.crash()
        assert len(wal.recover()) == 2
        assert wal.recovery_corrupt == 0

    def test_bytes_fold_to_type_length_and_crc(self):
        a, b = os.urandom(64), os.urandom(64)
        assert record_checksum(0, a) != record_checksum(0, b)
        assert record_checksum(0, a) != record_checksum(0, a + b"\0")
        assert record_checksum(0, a) == record_checksum(0, bytes(a))
        # The type still shows, as it does in ``repr``.
        assert record_checksum(0, a) != record_checksum(0, bytearray(a))

    def test_scalars_stay_as_discriminating_as_repr(self):
        variants = [1, 1.0, True, "1", None, (1,), [1], {1}, frozenset({1}),
                    {1: 1}, Ballot(1, 1), ("1",)]
        sums = {record_checksum(0, v) for v in variants}
        assert len(sums) == len(variants)


class TestTornTail:
    def flush_in_flight(self, n=5, size=100):
        """A WAL with an ``n``-record batch submitted but not complete."""
        sim, disk, wal = make_wal(window=0.002)
        acked = []
        for i in range(n):
            wal.append(("accept", i), size, lambda i=i: acked.append(i))
        sim.run(until=0.0021)  # window closed, device op in flight
        assert wal._flushing
        return sim, disk, wal, acked

    def test_torn_crash_keeps_prefix_truncates_straddler(self):
        sim, disk, wal, acked = self.flush_in_flight()
        wal.arm_torn_write(0.5)  # tear halfway through the batch bytes
        wal.crash()
        sim.run()
        assert acked == []  # host died before acknowledging anything
        records = wal.recover()
        # 5 equal records, cut at 50%: records 0,1 fully below the cut
        # survive; record 2 straddles it and is truncated away.
        assert [r.payload for r in records] == [("accept", 0), ("accept", 1)]
        assert wal.recovery_discarded == 1
        assert wal.discarded_total == 1
        assert all(r.valid for r in records)

    def test_torn_recovery_is_idempotent(self):
        sim, disk, wal, _ = self.flush_in_flight()
        wal.arm_torn_write(0.5)
        wal.crash()
        first = wal.recover()
        second = wal.recover()
        assert [r.lsn for r in second] == [r.lsn for r in first]
        assert wal.recovery_discarded == 0  # nothing further to drop
        assert wal.discarded_total == 1     # the historical count stands

    def test_tear_at_zero_loses_whole_batch(self):
        sim, disk, wal, _ = self.flush_in_flight()
        wal.arm_torn_write(0.0)
        wal.crash()
        assert wal.recover() == []

    def test_lsn_cursor_skips_torn_records(self):
        sim, disk, wal, _ = self.flush_in_flight(n=5)
        wal.arm_torn_write(0.5)
        wal.crash()
        wal.recover()  # survivors are lsn 0,1
        lsn = wal.append("fresh", 10, lambda: None)
        assert lsn == 2  # continues after the surviving tail

    def test_plain_crash_unaffected_by_armed_tear_when_idle(self):
        # Arming a tear with no flush in flight degrades to a plain
        # crash: pending records vanish atomically.
        sim, disk, wal = make_wal(window=10.0)
        wal.append("x", 10, lambda: None)
        wal.arm_torn_write(0.5)
        wal.crash()
        assert wal.recover() == []
        assert wal.recovery_discarded == 0


class TestTransientEIO:
    def test_flush_retries_until_durable(self):
        sim, disk, wal = make_wal()
        disk.inject_write_errors(2)
        done = []
        wal.append("x", 100, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert wal.flush_errors == 2
        assert disk.write_errors == 2
        assert wal.durable[0].valid
        # Failed attempts consume service time plus the retry delay.
        assert done[0] > 2 * SSD.op_time(100 + RECORD_HEADER_BYTES)

    def test_failed_flush_preserves_order(self):
        sim, disk, wal = make_wal(window=0.001)
        disk.inject_write_errors(1)
        order = []
        for i in range(3):
            wal.append(i, 10, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2]
        assert [r.payload for r in wal.durable] == [0, 1, 2]

    def test_failed_writes_not_counted_as_flushes(self):
        sim, disk, wal = make_wal()
        disk.inject_write_errors(1)
        wal.append("x", 100, lambda: None)
        sim.run()
        assert disk.flushes == 1  # only the successful attempt lands
        assert disk.bytes_written == 100 + RECORD_HEADER_BYTES

    def test_crash_during_eio_retry_loses_batch(self):
        sim, disk, wal = make_wal()
        disk.inject_write_errors(1)
        done = []
        wal.append("x", 100, lambda: done.append(1))
        sim.run(until=0.0001)  # first (failing) attempt in flight
        wal.crash()
        sim.run()
        assert done == []
        assert wal.recover() == []
