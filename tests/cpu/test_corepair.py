"""Unit tests for the CorePair's MOESI L2 behaviour."""

from __future__ import annotations

import pytest

from repro.mem.block import ZERO_LINE
from repro.protocol.atomics import AtomicOp
from repro.protocol.types import MoesiState, MsgType, ProbeType

from tests.cpu.harness import CorePairHarness, DirScript

ADDR = 0x4000


def line_with(value: int):
    return ZERO_LINE.with_word(0, value)


class TestMissesAndHits:
    def test_load_miss_sends_rdblk_and_unblocks(self):
        h = CorePairHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.E, line_with(11))
        h.access("load", ADDR)
        h.run()
        assert h.results == [11]
        assert len(h.directory.requests_of(MsgType.RDBLK)) == 1
        assert len(h.directory.unblocks) == 1
        assert h.corepair.peek_state(ADDR) is MoesiState.E

    def test_load_hit_after_fill_no_second_request(self):
        h = CorePairHarness()
        h.access("load", ADDR)
        h.run()
        h.access("load", ADDR + 4)
        h.run()
        assert len(h.directory.requests) == 1
        assert h.corepair.stats["l1d_hits"] >= 1

    def test_store_miss_sends_rdblkm(self):
        h = CorePairHarness()
        h.access("store", ADDR, value=5)
        h.run()
        assert len(h.directory.requests_of(MsgType.RDBLKM)) == 1
        assert h.corepair.peek_state(ADDR) is MoesiState.M
        assert h.corepair.peek_word(ADDR) == 5

    def test_silent_e_to_m_on_store_hit(self):
        h = CorePairHarness()
        h.access("load", ADDR)   # granted E
        h.run()
        requests_before = len(h.directory.requests)
        h.access("store", ADDR, value=7)
        h.run()
        assert len(h.directory.requests) == requests_before  # silent
        assert h.corepair.peek_state(ADDR) is MoesiState.M

    def test_store_on_shared_line_upgrades(self):
        h = CorePairHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.S, line_with(1))
        h.access("load", ADDR)
        h.run()
        assert h.corepair.peek_state(ADDR) is MoesiState.S
        h.access("store", ADDR, value=9)
        h.run()
        assert len(h.directory.requests_of(MsgType.RDBLKM)) == 1
        assert h.corepair.peek_state(ADDR) is MoesiState.M

    def test_upgrade_keeps_local_data_over_response_data(self):
        """The response may carry stale memory data on an upgrade."""
        h = CorePairHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.S, line_with(42))
        h.access("load", ADDR)
        h.run()
        # the directory's copy of the line is stale (zero)
        h.directory.script[ADDR] = DirScript(MoesiState.M, ZERO_LINE)
        h.access("store", ADDR + 4, value=1)
        h.run()
        assert h.corepair.peek_word(ADDR) == 42  # local word preserved

    def test_ifetch_miss_sends_rdblks(self):
        h = CorePairHarness()
        h.access("ifetch", ADDR)
        h.run()
        assert len(h.directory.requests_of(MsgType.RDBLKS)) == 1

    def test_atomic_needs_write_permission_and_returns_old(self):
        h = CorePairHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.E, line_with(10))
        h.access("atomic", ADDR, atomic_op=AtomicOp.ADD, operand=5)
        h.run()
        assert h.results == [10]
        assert h.corepair.peek_word(ADDR) == 15
        assert len(h.directory.requests_of(MsgType.RDBLKM)) == 1

    def test_mshr_merges_requests_to_same_line(self):
        h = CorePairHarness()
        h.directory.respond = False
        h.access("load", ADDR, slot=0)
        h.access("load", ADDR + 4, slot=1)
        h.sim.run_for(100_000)
        assert len(h.directory.requests) == 1
        assert h.corepair.stats["mshr_merges"] == 1
        # release the response; both waiters complete
        h.directory.respond = True
        request = h.directory.requests[0]
        h.directory.handle_message(request)
        h.run()
        assert len(h.results) == 2


class TestProbes:
    def fill(self, h, state: MoesiState, value: int = 3) -> None:
        h.directory.script[ADDR] = DirScript(state, line_with(value))
        op = "store" if state is MoesiState.M else "load"
        if state is MoesiState.M:
            h.access("store", ADDR, value=value)
        else:
            h.access("load", ADDR)
        h.run()
        assert h.corepair.peek_state(ADDR) is state

    def test_downgrade_on_m_forwards_dirty_and_becomes_o(self):
        h = CorePairHarness()
        self.fill(h, MoesiState.M, value=9)
        h.directory.probe("l2.0", ADDR, ProbeType.DOWNGRADE)
        h.run()
        ack = h.directory.probe_acks[-1]
        assert ack.dirty
        assert ack.data.word(0) == 9
        assert h.corepair.peek_state(ADDR) is MoesiState.O

    def test_downgrade_on_e_silently_becomes_s(self):
        h = CorePairHarness()
        self.fill(h, MoesiState.E)
        h.directory.probe("l2.0", ADDR, ProbeType.DOWNGRADE)
        h.run()
        ack = h.directory.probe_acks[-1]
        assert not ack.dirty
        assert ack.data is None
        assert ack.had_copy
        assert h.corepair.peek_state(ADDR) is MoesiState.S

    def test_invalidate_on_m_forwards_and_drops(self):
        h = CorePairHarness()
        self.fill(h, MoesiState.M, value=9)
        h.directory.probe("l2.0", ADDR, ProbeType.INVALIDATE)
        h.run()
        ack = h.directory.probe_acks[-1]
        assert ack.dirty and ack.data.word(0) == 9
        assert h.corepair.peek_state(ADDR) is MoesiState.I

    def test_invalidate_on_s_acks_without_data(self):
        h = CorePairHarness()
        self.fill(h, MoesiState.S)
        h.directory.probe("l2.0", ADDR, ProbeType.INVALIDATE)
        h.run()
        ack = h.directory.probe_acks[-1]
        assert not ack.dirty and ack.data is None and ack.had_copy
        assert h.corepair.peek_state(ADDR) is MoesiState.I

    def test_probe_miss_acks_no_copy(self):
        h = CorePairHarness()
        h.directory.probe("l2.0", ADDR, ProbeType.INVALIDATE)
        h.run()
        ack = h.directory.probe_acks[-1]
        assert not ack.had_copy

    def test_invalidate_during_upgrade_falls_back_to_response_data(self):
        """SM race: the S copy is invalidated while RdBlkM is in flight."""
        h = CorePairHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.S, line_with(1))
        h.access("load", ADDR)
        h.run()
        h.directory.respond = False
        h.access("store", ADDR, value=2)
        h.sim.run_for(100_000)
        h.directory.probe("l2.0", ADDR, ProbeType.INVALIDATE)
        h.sim.run_for(100_000)
        assert h.corepair.peek_state(ADDR) is MoesiState.I
        # now the M response arrives with (merged) data
        request = h.directory.requests_of(MsgType.RDBLKM)[0]
        h.directory.script[ADDR] = DirScript(MoesiState.M, line_with(50))
        h.directory.release(request)
        h.run()
        assert h.corepair.peek_state(ADDR) is MoesiState.M
        # the store was applied on top of the response data
        assert h.corepair.peek_word(ADDR) == 2
        assert h.corepair.peek_word(ADDR + 0) == 2


class TestVictims:
    def test_capacity_eviction_sends_vicclean_for_e(self):
        h = CorePairHarness(l2_geometry=(128, 2))  # 2 lines total, 1 set... 2 ways
        # fill both ways of the single set, then a third line evicts
        for index in range(3):
            h.access("load", ADDR + index * 0x40)
            h.run()
        assert len(h.directory.requests_of(MsgType.VIC_CLEAN)) == 1

    def test_capacity_eviction_sends_vicdirty_for_m(self):
        h = CorePairHarness(l2_geometry=(128, 2))
        h.access("store", ADDR, value=1)
        h.run()
        h.access("store", ADDR + 0x40, value=2)
        h.run()
        h.access("load", ADDR + 0x80)
        h.run()
        vics = h.directory.requests_of(MsgType.VIC_DIRTY)
        assert len(vics) == 1
        assert vics[0].data.word(0) in (1, 2)

    def evict_dirty_line_holding_wb_ack(self, h) -> None:
        """Fill a 2-line L2: dirty ADDR, then two more lines so ADDR is
        evicted — with victim WB acks withheld, ADDR stays vic-pending."""
        h.access("store", ADDR, value=7)
        h.run()
        h.access("load", ADDR + 0x40)
        h.run()
        h.directory.respond = False
        h.access("load", ADDR + 0x80)
        h.sim.run_for(100_000)
        # answer only the RdBlk; withhold every WB ack
        for message in list(h.directory.requests):
            if message.mtype is MsgType.RDBLK and message.addr == ADDR + 0x80:
                h.directory.release(message)
        h.sim.run_for(200_000)
        vics = [m for m in h.directory.requests if m.mtype is MsgType.VIC_DIRTY]
        assert vics and vics[0].addr == ADDR
        assert ADDR in h.corepair._vic_pending

    def test_probe_on_vic_pending_line_acks_from_buffer(self):
        h = CorePairHarness(l2_geometry=(128, 2))
        self.evict_dirty_line_holding_wb_ack(h)
        h.directory.probe("l2.0", ADDR, ProbeType.INVALIDATE)
        h.sim.run_for(200_000)
        acks = [a for a in h.directory.probe_acks if a.addr == ADDR]
        assert acks
        ack = acks[-1]
        assert ack.from_victim
        assert ack.dirty
        assert ack.data.word(0) == 7

    def test_second_probe_after_inv_from_victim_buffer_acks_clean(self):
        """Regression: a PrbInv hands the dirty data and the write-back
        duty to the prober, so a later probe in the same vic-pending
        episode must not ack dirty a second time."""
        h = CorePairHarness(l2_geometry=(128, 2))
        self.evict_dirty_line_holding_wb_ack(h)
        h.directory.probe("l2.0", ADDR, ProbeType.INVALIDATE)
        h.sim.run_for(200_000)
        h.directory.probe("l2.0", ADDR, ProbeType.INVALIDATE)
        h.sim.run_for(200_000)
        first, second = [a for a in h.directory.probe_acks if a.addr == ADDR]
        assert first.dirty and first.data.word(0) == 7
        assert second.from_victim and not second.dirty and second.data is None

    def test_downgrade_from_victim_buffer_keeps_it_dirty(self):
        """A PrbDown leaves the buffer the line's owner: every downgrade
        in the episode forwards the dirty data."""
        h = CorePairHarness(l2_geometry=(128, 2))
        self.evict_dirty_line_holding_wb_ack(h)
        for _ in range(2):
            h.directory.probe("l2.0", ADDR, ProbeType.DOWNGRADE)
            h.sim.run_for(200_000)
        acks = [a for a in h.directory.probe_acks if a.addr == ADDR]
        assert len(acks) == 2
        assert all(a.dirty and a.data.word(0) == 7 for a in acks)

    def test_accesses_to_vic_pending_line_wait_for_ack(self):
        h = CorePairHarness(l2_geometry=(128, 2))
        self.evict_dirty_line_holding_wb_ack(h)
        results_before = len(h.results)
        h.access("load", ADDR)  # must stall behind the pending victim
        h.sim.run_for(200_000)
        assert len(h.results) == results_before
        # release the WB ack; the stalled load re-executes (as a miss)
        h.directory.respond = True
        for message in list(h.directory.requests):
            if message.mtype is MsgType.VIC_DIRTY:
                h.directory.release(message)
        h.sim.run_for(500_000)
        assert len(h.results) == results_before + 1
        assert h.corepair.pending_work() is None


class TestErrors:
    def test_response_without_mshr_raises(self):
        from repro.cpu.corepair import CorePairError
        from repro.protocol.messages import Message

        h = CorePairHarness()
        h.network.send(
            Message(MsgType.DATA_RESP, "dir", "l2.0", ADDR,
                    data=ZERO_LINE, state=MoesiState.E, tid=1)
        )
        with pytest.raises(CorePairError, match="without MSHR"):
            h.run()

    def test_bad_slot_rejected(self):
        from repro.cpu.corepair import CorePairError, CpuRequest

        h = CorePairHarness()
        with pytest.raises(CorePairError, match="bad core slot"):
            h.corepair.access(2, CpuRequest("load", ADDR), lambda _r: None)
