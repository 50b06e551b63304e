//! Who services a kick (DESIGN.md #21).
//!
//! One drain pass, two callers.  A lane's **shard thread** runs it after
//! `wait_kick`, for work nobody is blocked on: batches (`submit_batch`),
//! re-kicks of lost kicks, and whatever a blocking kicker left behind.  A
//! **blocking caller** runs it on its own thread, as the handler of the
//! vm-exit its kick just took (`VirtQueue::kick`): "QEMU handles
//! events as they are produced and during that time the whole VM is in
//! blocking mode" (paper §III), so that caller had nothing to overlap
//! with and handing its chain to another thread only bought two context
//! switches.  The lane's executor role makes the two mutually exclusive,
//! which is what keeps per-lane FIFO.

use std::sync::Arc;

use vphi_sync::TrackedRoleGuard;

use super::BackendInner;

impl BackendInner {
    /// The shard thread's turn on lane `q`: wait for the executor role,
    /// then drain everything, and again while more keeps arriving.
    pub(super) fn drain_as_shard(self: &Arc<Self>, q: usize) {
        let executor = self.channel.lane_queue(q).executor.enter();
        self.drain_lane(q, u64::MAX, &executor);
    }

    /// A blocking caller's vm-exit on lane `q`: drain what was ahead of
    /// its chain (avail index `through`), then the chain itself, nothing
    /// behind.  Only if the lane is idle: a kicker never waits for the
    /// role.  When another executor holds it, that executor or the shard
    /// (the kick rings it for whatever is left on the ring) runs the
    /// chain, and the caller sleeps on its slot exactly as it did before
    /// there was anything to service inline — so it is never held up by
    /// work that was not ahead of it.
    ///
    /// Returns whether chains are left on the ring for the shard — what the
    /// kick rings it for on the way out.
    pub(super) fn drain_as_kicker(self: &Arc<Self>, q: usize, through: u64) -> bool {
        let queue = self.channel.lane_queue(q);
        match queue.executor.try_enter() {
            Some(executor) => self.drain_lane(q, through, &executor),
            None => queue.avail_pending(),
        }
    }

    /// Drain lane `q`'s avail ring in ring order through avail index
    /// `through`, and report whether the pass left chains on the ring.
    /// The caller holds the lane's executor role: `held`.
    fn drain_lane(self: &Arc<Self>, q: usize, through: u64, held: &TrackedRoleGuard<'_>) -> bool {
        let queue = self.channel.lane_queue(q);
        // A bounded pass knows its burst before it starts — whatever was
        // published up to `through` — so it runs each chain as it pops it,
        // and each pop tells it whether another is due: it never asks the
        // ring a question whose answer it has.  The shard's burst is what
        // one doorbell amortized: everything on the ring when it got
        // there, popped before any of it runs.
        let bounded = through != u64::MAX;
        while !self.channel.is_shutdown() {
            let mut batch = Vec::new();
            let mut burst = 0u64;
            // What the last pop saw behind it; a pass that pops nothing
            // (its chain was somebody else's burst) has to look.
            let mut left = None;
            while let Ok(Some(popped)) = queue.pop_avail_bounded(through) {
                burst += 1;
                left = Some(popped.left_on_ring);
                let last = !popped.more_in_bound;
                if bounded {
                    self.process(q, popped.chain, held);
                } else {
                    batch.push(popped.chain);
                }
                if last {
                    break;
                }
            }
            if burst > 0 && bounded {
                // The kicker holds the role: a count with no lock prefix.
                let lane = &self.lanes[q];
                lane.kicker_drains.bump(held);
                lane.kicker_chains.add(burst, held);
            } else if burst > 0 {
                self.stats.note_burst(burst);
            }
            for chain in batch {
                self.process(q, chain, held);
            }
            // A bounded pass has popped all it may: the kicker rings the
            // shard for the rest on its way out.  The shard picks up a
            // chain posted during the pass before it goes back to
            // blocking.
            if bounded {
                return left.unwrap_or_else(|| queue.avail_pending());
            }
            if !queue.avail_pending() {
                return false;
            }
        }
        // A dead device executes nothing more: the pass lets go of every
        // chain on the ring, bound or not, and each one's requester wakes
        // to `ENODEV`.  The ring is closed to new chains, so whichever
        // executor runs next finds nothing left.  (The descriptors die
        // with the ring: no guest is left to write the chain that would
        // recycle them.)
        while let Ok(Some(popped)) = queue.pop_avail_bounded(u64::MAX) {
            let (token, ..) = self.channel.claim(q, popped.chain.head);
            self.channel.retire(token);
        }
        false
    }
}

#[cfg(test)]
mod tests {

    use vphi_faults::{FaultPlan, FaultSite};
    use vphi_scif::{Port, ScifAddr};
    use vphi_sim_core::Timeline;

    use crate::builder::{VmConfig, VphiHost};
    use crate::{Cq, Sq, SqEntry};

    /// The bounded-drain invariant, with the ring contents pinned instead
    /// of raced: a batch whose doorbell is lost leaves three chains on an
    /// idle lane, and a kicker's pass bounded at the second must run the
    /// first two and leave the third where it is.
    #[test]
    fn a_kickers_pass_runs_nothing_behind_its_own_chain() {
        let host = VphiHost::new(1);
        let server = host.device_endpoint(0).unwrap();
        let mut tl = Timeline::new();
        server.bind(Port(990), &mut tl).unwrap();
        server.listen(1, &mut tl).unwrap();
        let sink = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            let conn = server.accept(&mut tl).unwrap();
            let mut frames = [0u8; 3];
            assert_eq!(conn.recv(&mut frames, &mut tl), Ok(3));
            frames
        });
        let vm = host.spawn_vm(VmConfig::builder().num_queues(1).build());
        let ep = vm.open_scif(&mut tl).unwrap();
        ep.connect(ScifAddr::new(host.device_node(0), Port(990)), &mut tl).unwrap();

        // The batch's one doorbell is the next kick: lose it.  Nobody
        // waits on the batch before the drains below, so no re-kick
        // enters the picture.
        host.arm_faults(FaultPlan::single(FaultSite::VirtioKickLost, 1, 0));
        let mut sq = Sq::new();
        for frame in 1..=3u8 {
            sq.push(SqEntry::send(&[frame]));
        }
        let mut cq = Cq::new();
        cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());

        let inner = vm.backend().inner();
        let queue = vm.frontend().channel().lane_queue(0);
        // The ring was empty before the batch: its chains sit at the three
        // avail indices after everything popped so far.
        let popped = queue.counters().chains_popped;
        let served = inner.requests();

        // A busy lane is left alone altogether.
        {
            let _busy = queue.executor.enter();
            inner.drain_as_kicker(0, popped + 3);
            assert_eq!(queue.counters().chains_popped, popped);
        }
        inner.drain_as_kicker(0, popped + 2);
        assert_eq!(queue.counters().chains_popped, popped + 2);
        assert_eq!(inner.requests(), served + 2);
        assert!(queue.avail_pending(), "the chain behind the bound stays on the ring");
        // A pass the ring has already moved beyond finds nothing to do.
        inner.drain_as_kicker(0, popped + 1);
        assert_eq!(queue.counters().chains_popped, popped + 2);

        inner.drain_as_shard(0);
        assert_eq!(queue.counters().chains_popped, popped + 3);
        assert_eq!(ep.reap(&mut cq, 3, 3, &mut tl), Ok(3));
        assert!(cq.drain().iter().all(|done| done.result == Ok((1, 0))));
        assert_eq!(sink.join().unwrap(), [1, 2, 3], "ring order is execution order");
        ep.close(&mut tl).unwrap();
        vm.shutdown();
    }
}
