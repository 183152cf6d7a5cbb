//! Thread-per-processor message-passing runtime.
//!
//! Semantics follow the one-sided model the paper's RAPID system relies
//! on: sends never block and never copy (payloads are `Arc`-shared),
//! receives are tag-matched and block until the matching message arrives.
//! Out-of-order arrivals park in a per-processor pending map, which is
//! what permits the 2D code's multi-stage pipelining (different update
//! stages in flight concurrently, Theorem 2).
//!
//! [`RunOptions::jitter_seed`] is the delivery-jitter test mode: a seeded
//! rng scrambles the order in which arrived messages are parked and, for
//! tags with several queued messages, which one a receive takes first.
//! Protocols that are correct under tag matching alone (none of ours
//! relies on cross-sender arrival order) must produce bitwise-identical
//! results under any jitter seed — the integration tests assert exactly
//! that for the 2D factorization driver on 1D and 2D grids. Without
//! jitter the runtime keeps strict FIFO order within a tag.

use crate::chan::{unbounded, Receiver, Sender};
use splu_probe::{Collector, Probe};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Tag reserved for failure propagation: when a processor panics, this
/// message wakes every peer so blocked receives turn into clean panics
/// instead of a process-wide hang.
pub const POISON_TAG: u64 = u64::MAX;

/// A tagged message. Payloads are shared, so a multicast of a large panel
/// costs one allocation total (the RMA-like zero-copy property).
#[derive(Debug, Clone)]
pub struct Message {
    /// Match key; protocols encode (kind, step, …) into it.
    pub tag: u64,
    /// Integer payload (pivot sequences, row ids, …).
    pub ints: Arc<Vec<u32>>,
    /// Floating-point payload (panels).
    pub floats: Arc<Vec<f64>>,
}

impl Message {
    /// Build a message; wraps the payloads in `Arc`s.
    pub fn new(tag: u64, ints: Vec<u32>, floats: Vec<f64>) -> Self {
        Self {
            tag,
            ints: Arc::new(ints),
            floats: Arc::new(floats),
        }
    }

    /// Payload size in bytes (for communication-volume accounting).
    pub fn nbytes(&self) -> u64 {
        (self.ints.len() * 4 + self.floats.len() * 8) as u64
    }
}

/// Aggregate communication counters for one run.
#[derive(Debug, Default)]
pub struct CommStats {
    /// Messages sent (multicast counts once per destination).
    pub messages: AtomicU64,
    /// Bytes sent (payload bytes × destinations).
    pub bytes: AtomicU64,
}

impl CommStats {
    /// (messages, bytes) snapshot.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.messages.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// Per-processor context handed to the SPMD closure.
pub struct ProcCtx {
    /// This processor's rank in `0..nprocs`.
    pub rank: usize,
    /// Total processor count.
    pub nprocs: usize,
    senders: Arc<Vec<Sender<Message>>>,
    receiver: Receiver<Message>,
    pending: HashMap<u64, VecDeque<Message>>,
    pending_bytes: u64,
    /// High-water mark of parked message bytes — the §5.2 "buffer space"
    /// statistic (Cbuffer/Rbuffer occupancy) for this processor.
    pub max_pending_bytes: u64,
    stats: Arc<CommStats>,
    probe: Probe,
    pool_ints: Vec<Vec<u32>>,
    pool_floats: Vec<Vec<f64>>,
    /// The run's all-ranks barrier ([`ProcCtx::barrier`]).
    barrier: Arc<RankBarrier>,
    /// Delivery-jitter rng ([`RunOptions::jitter_seed`]); `None` keeps the
    /// strict FIFO-within-tag delivery order.
    jitter: Option<JitterRng>,
}

/// The all-ranks barrier behind [`ProcCtx::barrier`]. Unlike
/// `std::sync::Barrier` it can be broken: a failing processor breaks it
/// next to the poison broadcast, and every peer blocked in it (or
/// arriving later) panics instead of waiting forever.
#[derive(Default)]
struct RankBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

/// Nothing panics while holding the barrier lock, so it is never poisoned.
const BARRIER_LOCK: &str = "barrier lock poisoned";

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    broken: bool,
}

impl RankBarrier {
    fn wait(&self, nprocs: usize) {
        let mut st = self.state.lock().expect(BARRIER_LOCK);
        let generation = st.generation;
        st.arrived += 1;
        if st.arrived == nprocs {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return;
        }
        let st = self
            .cv
            .wait_while(st, |st| st.generation == generation && !st.broken)
            .expect(BARRIER_LOCK);
        if st.generation == generation {
            drop(st);
            std::panic::panic_any(PEER_FAILED_MSG);
        }
    }

    fn break_all(&self) {
        self.state.lock().expect(BARRIER_LOCK).broken = true;
        self.cv.notify_all();
    }
}

/// Hand-rolled SplitMix64: the deterministic seed stream behind the
/// delivery-jitter test mode (no external rng dependency).
struct JitterRng(u64);

impl JitterRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Recycled buffers kept per kind in [`ProcCtx`]'s payload pool; beyond
/// this the returned buffers are simply dropped (bounds pool memory).
const POOL_CAP: usize = 32;

impl ProcCtx {
    fn park(&mut self, m: Message) {
        self.pending_bytes += m.nbytes();
        self.max_pending_bytes = self.max_pending_bytes.max(self.pending_bytes);
        self.probe.mark("park", m.nbytes());
        self.probe.count("parks", 1);
        self.probe.gauge_max("parked_bytes_hw", self.pending_bytes);
        self.pending.entry(m.tag).or_default().push_back(m);
    }

    fn unpark(&mut self, m: &Message) {
        self.pending_bytes -= m.nbytes();
        self.probe.mark("unpark", m.nbytes());
        self.probe.count("unparks", 1);
    }

    /// Block until every processor of the run has called `barrier` the
    /// same number of times. If a peer fails, this panics (like a
    /// blocked [`ProcCtx::recv`] woken by the poison broadcast) instead
    /// of hanging.
    pub fn barrier(&self) {
        self.barrier.wait(self.nprocs);
    }

    /// Send `msg` to `dest` (never blocks; zero-copy).
    pub fn send(&self, dest: usize, msg: Message) {
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(msg.nbytes(), Ordering::Relaxed);
        self.probe.mark("send", msg.nbytes());
        self.probe.count("sends", 1);
        self.probe.count("send_bytes", msg.nbytes());
        self.senders[dest]
            .send(msg)
            .expect("receiver hung up — a processor panicked");
    }

    /// Send to every rank in `dests` except self (a multicast; payload
    /// shared, accounting counts each destination).
    pub fn multicast<I: IntoIterator<Item = usize>>(&self, dests: I, msg: Message) {
        for d in dests {
            if d != self.rank {
                self.send(d, msg.clone());
            }
        }
    }

    /// Scramble the jitter decision for a pending-queue take: with jitter
    /// on and several same-tag messages parked, take a random one instead
    /// of the oldest (adversarial cross-sender interleaving).
    fn pop_pending(pending: &mut VecDeque<Message>, jitter: &mut Option<JitterRng>) -> Message {
        match jitter {
            Some(rng) if pending.len() > 1 => {
                let i = (rng.next() % pending.len() as u64) as usize;
                pending.remove(i).unwrap()
            }
            _ => pending.pop_front().expect("pop from empty pending queue"),
        }
    }

    /// Jitter mode: drain everything that has arrived and park it in a
    /// seeded-random order, so subsequent receives observe an adversarial
    /// delivery interleaving rather than channel FIFO.
    fn jitter_scramble(&mut self) {
        if self.jitter.is_none() {
            return;
        }
        let mut batch: Vec<Message> = Vec::new();
        while let Ok(m) = self.receiver.try_recv() {
            if m.tag == POISON_TAG {
                self.probe.mark("poison", 0);
                std::panic::panic_any(PEER_FAILED_MSG);
            }
            batch.push(m);
        }
        let rng = self.jitter.as_mut().unwrap();
        // Fisher–Yates over the drained batch
        for i in (1..batch.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            batch.swap(i, j);
        }
        for m in batch {
            self.park(m);
        }
    }

    /// Blocking tag-matched receive. Messages with other tags are parked
    /// until their own `recv` call.
    pub fn recv(&mut self, tag: u64) -> Message {
        self.jitter_scramble();
        if let Entry::Occupied(mut e) = self.pending.entry(tag) {
            if !e.get().is_empty() {
                let m = Self::pop_pending(e.get_mut(), &mut self.jitter);
                if e.get().is_empty() {
                    e.remove();
                }
                self.unpark(&m);
                self.probe.mark("recv", m.nbytes());
                self.probe.count("recvs", 1);
                return m;
            }
        }
        // The wanted message has not arrived: this receive blocks. Time
        // the blocked stretch — it is the runtime's "park time" (pivot/
        // panel wait in the 2D protocol) — and report it as a `recv-wait`
        // mark whose detail is the waited nanoseconds to the flight
        // recorder, for `splu analyze`'s pivot-wait attribution.
        let blocked_at = std::time::Instant::now();
        loop {
            let m = self
                .receiver
                .recv()
                .expect("channel closed while waiting — a processor panicked");
            if m.tag == POISON_TAG {
                self.probe.mark("poison", 0);
                std::panic::panic_any(PEER_FAILED_MSG);
            }
            if m.tag == tag {
                let waited = blocked_at.elapsed();
                self.probe.mark("recv-wait", waited.as_nanos() as u64);
                self.probe.count("recv_wait_ns", waited.as_nanos() as u64);
                self.probe.mark("recv", m.nbytes());
                self.probe.count("recvs", 1);
                return m;
            }
            self.park(m);
        }
    }

    /// Non-blocking probe: take a message with `tag` if one has arrived.
    pub fn try_recv(&mut self, tag: u64) -> Option<Message> {
        if self.jitter.is_some() {
            self.jitter_scramble();
        } else {
            // drain the channel into pending first
            while let Ok(m) = self.receiver.try_recv() {
                if m.tag == POISON_TAG {
                    self.probe.mark("poison", 0);
                    std::panic::panic_any(PEER_FAILED_MSG);
                }
                self.park(m);
            }
        }
        match self.pending.entry(tag) {
            Entry::Occupied(mut e) => {
                let m = if e.get().is_empty() {
                    None
                } else {
                    Some(Self::pop_pending(e.get_mut(), &mut self.jitter))
                };
                if e.get().is_empty() {
                    e.remove();
                }
                if let Some(m) = &m {
                    self.unpark(m);
                    self.probe.mark("recv", m.nbytes());
                    self.probe.count("recvs", 1);
                }
                m
            }
            Entry::Vacant(_) => None,
        }
    }

    /// Take a cleared `u32` buffer from the payload pool (or a fresh one).
    /// Fill it and hand it to [`Message::new`]; when the message has been
    /// consumed by every receiver, [`ProcCtx::recycle`] returns the
    /// allocation here, so the steady-state protocol allocates nothing.
    pub fn ints_buf(&mut self) -> Vec<u32> {
        match self.pool_ints.pop() {
            Some(mut v) => {
                v.clear();
                self.probe.count("payload_pool_hits", 1);
                v
            }
            None => {
                self.probe.count("payload_pool_misses", 1);
                Vec::new()
            }
        }
    }

    /// Take a cleared `f64` buffer from the payload pool (or a fresh one).
    /// See [`ProcCtx::ints_buf`].
    pub fn floats_buf(&mut self) -> Vec<f64> {
        match self.pool_floats.pop() {
            Some(mut v) => {
                v.clear();
                self.probe.count("payload_pool_hits", 1);
                v
            }
            None => {
                self.probe.count("payload_pool_misses", 1);
                Vec::new()
            }
        }
    }

    /// Return a fully consumed message's payload buffers to the pool.
    ///
    /// Only the last holder of a (possibly multicast) payload actually
    /// reclaims it — earlier holders' `Arc`s simply drop their reference.
    /// The pool is bounded; overflow buffers are freed.
    pub fn recycle(&mut self, msg: Message) {
        if let Ok(v) = Arc::try_unwrap(msg.ints) {
            if self.pool_ints.len() < POOL_CAP {
                self.probe.count("payload_recycled", 1);
                self.pool_ints.push(v);
            }
        }
        if let Ok(v) = Arc::try_unwrap(msg.floats) {
            if self.pool_floats.len() < POOL_CAP {
                self.probe.count("payload_recycled", 1);
                self.pool_floats.push(v);
            }
        }
    }

    /// Shared communication counters.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// This processor's flight-recorder handle (a no-op recorder unless
    /// the run was started with [`RunOptions::trace`] set and the
    /// `probe` feature on). Protocol code opens its stage spans through
    /// this.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }
}

/// Message of the panic a processor raises when a *peer* failed (the
/// poison cascade) — the uninteresting secondary panic.
const PEER_FAILED_MSG: &str = "a peer processor failed; aborting this processor";

/// Rank panic payloads for propagation: typed payloads (e.g. a
/// `SolverError` from a singular pivot) beat string panics, which beat
/// the poison-cascade panics peers raise after the original failure.
fn payload_priority(p: &(dyn std::any::Any + Send)) -> u8 {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        u8::from(*s != PEER_FAILED_MSG)
    } else if let Some(s) = p.downcast_ref::<String>() {
        u8::from(!s.contains("a processor panicked"))
    } else {
        2
    }
}

/// Per-run options of [`run_machine`]. The default is an untraced run
/// with strict FIFO-within-tag delivery.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Record every processor into this collector: the runtime emits
    /// send/recv/park/unpark/poison marks and comm counters, and the SPMD
    /// closure can open stage spans through [`ProcCtx::probe`]. With the
    /// `probe` feature off the probes are zero-sized no-ops.
    pub trace: Option<&'a Collector>,
    /// Delivery-jitter test mode: every processor scrambles its receive
    /// interleaving with a deterministic per-rank stream derived from
    /// this seed. Use it to assert that a protocol's results do not
    /// depend on message arrival order.
    pub jitter_seed: Option<u64>,
}

/// Run an SPMD program on `nprocs` simulated processors (OS threads).
/// Returns each rank's result, plus aggregate communication statistics.
///
/// # Panics
/// Propagates any processor panic.
pub fn run_machine<F, R>(nprocs: usize, opts: &RunOptions, f: F) -> (Vec<R>, (u64, u64))
where
    F: Fn(ProcCtx) -> R + Sync,
    R: Send,
{
    assert!(nprocs >= 1);
    let mut senders = Vec::with_capacity(nprocs);
    let mut receivers = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    // Keep a clone of every receiver alive until all processors have
    // joined: a processor that finishes early must not close its mailbox
    // while slower processors still multicast to it (messages it never
    // needed to consume — e.g. row-multicast panels).
    let keepalive: Vec<Receiver<Message>> = receivers.clone();
    let senders = Arc::new(senders);
    let stats = Arc::new(CommStats::default());
    let barrier = Arc::new(RankBarrier::default());

    let mut results: Vec<Option<R>> = (0..nprocs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nprocs);
        for (rank, receiver) in receivers.into_iter().enumerate() {
            let mut probe = opts.trace.map_or_else(Probe::disabled, |c| c.probe(rank));
            let ctx = ProcCtx {
                rank,
                nprocs,
                senders: senders.clone(),
                receiver,
                pending: HashMap::new(),
                pending_bytes: 0,
                max_pending_bytes: 0,
                stats: stats.clone(),
                probe: Probe::disabled(),
                pool_ints: Vec::new(),
                pool_floats: Vec::new(),
                barrier: barrier.clone(),
                // decorrelate the ranks' jitter streams
                jitter: opts
                    .jitter_seed
                    .map(|s| JitterRng(s ^ (rank as u64).wrapping_mul(0xA076_1D64_78BD_642F))),
            };
            let f = &f;
            let poison_senders = senders.clone();
            let barrier = barrier.clone();
            handles.push(scope.spawn(move || {
                let mut ctx = ctx;
                // attach on the worker thread so flop deltas are
                // attributed to this processor
                probe.attach_thread();
                ctx.probe = probe;
                let rank = ctx.rank;
                match catch_unwind(AssertUnwindSafe(|| f(ctx))) {
                    Ok(r) => r,
                    Err(e) => {
                        barrier.break_all();
                        // wake every blocked peer before unwinding, so a
                        // single failure (e.g. a singular matrix) becomes a
                        // clean propagated panic instead of a hang
                        for (d, s) in poison_senders.iter().enumerate() {
                            if d != rank {
                                let _ = s.send(Message::new(POISON_TAG, vec![], vec![]));
                            }
                        }
                        resume_unwind(e)
                    }
                }
            }));
        }
        let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => results[rank] = Some(r),
                Err(e) => panics.push(e),
            }
        }
        drop(keepalive);
        if !panics.is_empty() {
            // Several processors usually go down together: the one that
            // hit the real fault (possibly with a typed payload, e.g. a
            // `SolverError`) plus peers that panicked on the poison
            // broadcast. Re-raise the most informative payload so the
            // host can downcast it.
            let idx = panics
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| payload_priority(p.as_ref()))
                .map(|(i, _)| i)
                .unwrap_or(0);
            resume_unwind(panics.swap_remove(idx));
        }
    });
    (
        results.into_iter().map(|r| r.unwrap()).collect(),
        stats.snapshot(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_proc_runs() {
        let (res, (msgs, _)) = run_machine(1, &RunOptions::default(), |ctx| ctx.rank * 10);
        assert_eq!(res, vec![0]);
        assert_eq!(msgs, 0);
    }

    #[test]
    fn ring_pass() {
        let n = 6;
        let (res, (msgs, bytes)) = run_machine(n, &RunOptions::default(), |mut ctx| {
            let next = (ctx.rank + 1) % ctx.nprocs;
            ctx.send(next, Message::new(7, vec![ctx.rank as u32], vec![]));
            let m = ctx.recv(7);
            m.ints[0]
        });
        for (rank, &got) in res.iter().enumerate() {
            assert_eq!(got as usize, (rank + n - 1) % n);
        }
        assert_eq!(msgs, n as u64);
        assert_eq!(bytes, 4 * n as u64);
    }

    #[test]
    fn tag_matching_reorders() {
        let (res, _) = run_machine(2, &RunOptions::default(), |mut ctx| {
            if ctx.rank == 0 {
                // send tag 2 first, then tag 1
                ctx.send(1, Message::new(2, vec![22], vec![]));
                ctx.send(1, Message::new(1, vec![11], vec![]));
                0
            } else {
                // receive tag 1 first — tag 2 must park
                let a = ctx.recv(1).ints[0];
                let b = ctx.recv(2).ints[0];
                assert_eq!((a, b), (11, 22));
                1
            }
        });
        assert_eq!(res, vec![0, 1]);
    }

    #[test]
    fn multicast_shares_payload() {
        let (res, (msgs, _)) = run_machine(4, &RunOptions::default(), |mut ctx| {
            if ctx.rank == 0 {
                let m = Message::new(5, vec![], vec![1.0; 1000]);
                ctx.multicast(1..4, m);
                0.0
            } else {
                ctx.recv(5).floats[999]
            }
        });
        assert_eq!(res[1..], [1.0, 1.0, 1.0]);
        assert_eq!(msgs, 3);
    }

    #[test]
    fn try_recv_nonblocking() {
        let (res, _) = run_machine(2, &RunOptions::default(), |mut ctx| {
            if ctx.rank == 0 {
                ctx.send(1, Message::new(9, vec![1], vec![]));
                true
            } else {
                // poll until it arrives
                loop {
                    if let Some(m) = ctx.try_recv(9) {
                        return m.ints[0] == 1;
                    }
                    std::hint::spin_loop();
                }
            }
        });
        assert!(res[0] && res[1]);
    }

    #[test]
    fn peer_panic_propagates_instead_of_hanging() {
        // rank 0 panics while rank 1 blocks on a receive that will never be
        // satisfied: the poison broadcast must wake rank 1 so run_machine
        // panics promptly instead of deadlocking.
        let result = std::panic::catch_unwind(|| {
            run_machine(2, &RunOptions::default(), |mut ctx| {
                if ctx.rank == 0 {
                    panic!("simulated numerical failure");
                } else {
                    let _ = ctx.recv(42); // would block forever without poison
                }
                0u32
            })
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn peer_panic_breaks_the_barrier() {
        // rank 0 fails before the barrier that ranks 1 and 2 block in: the
        // barrier must break so run_machine panics instead of hanging
        let result = std::panic::catch_unwind(|| {
            run_machine(3, &RunOptions::default(), |ctx| {
                if ctx.rank == 0 {
                    panic!("simulated numerical failure");
                }
                ctx.barrier();
            })
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn barrier_releases_every_round() {
        let (res, _) = run_machine(3, &RunOptions::default(), |ctx| {
            for _ in 0..50 {
                ctx.barrier();
            }
            ctx.rank
        });
        assert_eq!(res, vec![0, 1, 2]);
    }

    #[test]
    fn nbytes_counts_both_payloads() {
        assert_eq!(Message::new(0, vec![], vec![]).nbytes(), 0);
        assert_eq!(Message::new(0, vec![1, 2, 3], vec![]).nbytes(), 12);
        assert_eq!(Message::new(0, vec![], vec![0.0; 5]).nbytes(), 40);
        assert_eq!(Message::new(0, vec![7; 2], vec![1.5; 4]).nbytes(), 8 + 32);
    }

    #[test]
    fn comm_stats_match_explicit_sends() {
        // 3 ranks each send one 12-byte and one 40-byte message to rank 0
        let (_, (msgs, bytes)) = run_machine(4, &RunOptions::default(), |mut ctx| {
            if ctx.rank == 0 {
                for _ in 0..3 {
                    ctx.recv(1);
                    ctx.recv(2);
                }
            } else {
                ctx.send(0, Message::new(1, vec![0; 3], vec![]));
                ctx.send(0, Message::new(2, vec![], vec![0.0; 5]));
            }
        });
        assert_eq!(msgs, 6);
        assert_eq!(bytes, 3 * (12 + 40));
    }

    #[test]
    fn parked_bytes_high_water_under_out_of_order_delivery() {
        // rank 0 sends three out-of-order messages; rank 1 receives the
        // last-sent tag first, so the other two must park simultaneously:
        // the high-water mark is their combined size, and it drops back
        // to zero once both are consumed.
        let (res, _) = run_machine(2, &RunOptions::default(), |mut ctx| {
            if ctx.rank == 0 {
                ctx.send(1, Message::new(10, vec![0; 25], vec![])); // 100 B
                ctx.send(1, Message::new(11, vec![], vec![0.0; 25])); // 200 B
                ctx.send(1, Message::new(12, vec![1], vec![])); // 4 B
                (0, 0)
            } else {
                // guarantee arrival order by polling for the last tag:
                // receiving tag 12 forces 10 and 11 to park first
                let m = ctx.recv(12);
                assert_eq!(m.nbytes(), 4);
                let hw_after_parking = ctx.max_pending_bytes;
                ctx.recv(10);
                ctx.recv(11);
                (hw_after_parking, ctx.max_pending_bytes)
            }
        });
        let (hw, hw_final) = res[1];
        assert_eq!(hw, 300, "both earlier messages parked at once");
        assert_eq!(hw_final, 300, "high-water is monotone");
    }

    #[test]
    #[cfg(feature = "probe")]
    fn traced_run_records_sends_consistent_with_comm_stats() {
        let c = Collector::new();
        let n = 4;
        let (_, (msgs, bytes)) = run_machine(
            n,
            &RunOptions {
                trace: Some(&c),
                ..RunOptions::default()
            },
            |mut ctx| {
                let next = (ctx.rank + 1) % ctx.nprocs;
                ctx.send(next, Message::new(7, vec![ctx.rank as u32], vec![0.0; 8]));
                ctx.recv(7);
            },
        );
        let t = c.finish();
        assert_eq!(t.procs.len(), n);
        assert_eq!(t.counter_total("sends"), msgs);
        assert_eq!(t.counter_total("send_bytes"), bytes);
        assert_eq!(t.counter_total("recvs"), msgs);
        // every processor produced at least its send and recv marks
        for p in &t.procs {
            assert!(p.marks.iter().any(|m| m.name == "send"));
            assert!(p.marks.iter().any(|m| m.name == "recv"));
        }
    }

    #[test]
    #[cfg(feature = "probe")]
    fn traced_run_records_park_high_water() {
        let c = Collector::new();
        let (_, _) = run_machine(
            2,
            &RunOptions {
                trace: Some(&c),
                ..RunOptions::default()
            },
            |mut ctx| {
                if ctx.rank == 0 {
                    ctx.send(1, Message::new(10, vec![0; 25], vec![]));
                    ctx.send(1, Message::new(12, vec![], vec![]));
                } else {
                    ctx.recv(12); // tag 10 parks (100 bytes)
                    ctx.recv(10);
                }
            },
        );
        let t = c.finish();
        assert_eq!(t.counter_max("parked_bytes_hw"), 100);
        assert_eq!(t.counter_total("parks"), 1);
        assert_eq!(t.counter_total("unparks"), 1);
    }

    #[test]
    #[cfg(feature = "probe")]
    fn blocked_recv_emits_recv_wait_mark() {
        let c = Collector::new();
        run_machine(
            2,
            &RunOptions {
                trace: Some(&c),
                ..RunOptions::default()
            },
            |mut ctx| {
                if ctx.rank == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    ctx.send(1, Message::new(1, vec![], vec![]));
                } else {
                    ctx.recv(1);
                }
            },
        );
        let t = c.finish();
        let p1 = t.procs.iter().find(|p| p.rank == 1).unwrap();
        let wait = p1.marks.iter().find(|m| m.name == "recv-wait").unwrap();
        assert!(
            wait.detail >= 1_000_000,
            "waited ≥1 ms, got {} ns",
            wait.detail
        );
        assert!(t.counter_total("recv_wait_ns") >= 1_000_000);
    }

    #[test]
    fn untraced_run_probe_is_silent() {
        // ProcCtx::probe is usable in any configuration; in an untraced
        // run it must simply record nothing
        let (res, _) = run_machine(2, &RunOptions::default(), |mut ctx| {
            let enabled = ctx.probe().is_enabled();
            if ctx.rank == 0 {
                ctx.send(1, Message::new(1, vec![1], vec![]));
            } else {
                ctx.recv(1);
            }
            enabled
        });
        assert_eq!(res, vec![false, false]);
    }

    #[test]
    fn payload_pool_reuses_recycled_buffers() {
        run_machine(1, &RunOptions::default(), |mut ctx| {
            let mut f = ctx.floats_buf();
            f.resize(100, 1.0);
            let ptr = f.as_ptr() as usize;
            let m = Message::new(1, ctx.ints_buf(), f);
            ctx.recycle(m);
            // sole-owner payload comes back: same allocation, same capacity
            let f2 = ctx.floats_buf();
            assert!(f2.capacity() >= 100);
            assert_eq!(f2.as_ptr() as usize, ptr);
            // a payload still shared with another holder is NOT reclaimed
            let m1 = Message::new(2, vec![], f2);
            let m2 = m1.clone();
            ctx.recycle(m1);
            let f3 = ctx.floats_buf();
            assert_eq!(f3.capacity(), 0, "shared payload must not be pooled");
            drop(m2);
        });
    }

    /// Self-sends land in the rank's own channel, so after `recv(done)`
    /// every earlier message is already parked — a fully deterministic
    /// way to exercise the jitter scramble.
    fn jittered_take_order(seed: u64) -> Vec<u32> {
        let (mut res, _) = run_machine(
            1,
            &RunOptions {
                jitter_seed: Some(seed),
                ..RunOptions::default()
            },
            |mut ctx| {
                for i in 0..16u32 {
                    ctx.send(0, Message::new(3, vec![i], vec![]));
                }
                ctx.send(0, Message::new(4, vec![], vec![]));
                ctx.recv(4);
                (0..16).map(|_| ctx.recv(3).ints[0]).collect::<Vec<u32>>()
            },
        );
        res.pop().unwrap()
    }

    #[test]
    fn jitter_scrambles_within_tag_but_loses_nothing() {
        let order = jittered_take_order(42);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u32>>(), "no loss, no dup");
        assert_ne!(order, sorted, "seed 42 must actually reorder");
    }

    #[test]
    fn jitter_is_deterministic_in_the_seed() {
        assert_eq!(jittered_take_order(7), jittered_take_order(7));
        assert_ne!(jittered_take_order(7), jittered_take_order(8));
    }

    #[test]
    fn fifo_within_tag() {
        let (res, _) = run_machine(2, &RunOptions::default(), |mut ctx| {
            if ctx.rank == 0 {
                for i in 0..10u32 {
                    ctx.send(1, Message::new(3, vec![i], vec![]));
                }
                vec![]
            } else {
                (0..10).map(|_| ctx.recv(3).ints[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(res[1], (0..10).collect::<Vec<u32>>());
    }
}
