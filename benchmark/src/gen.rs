//! Seeded op generators.  The stack only ever sees the generated ops.
//!
//! Every round of a workload is the same *multiset* of op shapes; the
//! seed decides order, offsets and payload bytes.  That keeps virtual-time
//! numbers and counters comparable across seeds and commits while the
//! inputs still change with `--seed`.

use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::SplitMix64;

/// Stream for round `round` of a workload: a pure function of
/// (seed, workload tag, client, round), independent of how many rounds ran.
pub fn round_rng(seed: u64, tag: u64, client: u64, round: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ tag.rotate_left(17));
    let a = mix.next_u64();
    let mut mix = SplitMix64::new(a ^ client.wrapping_mul(0x9E37_79B9).wrapping_add(round << 20));
    SplitMix64::new(mix.next_u64())
}

/// A size just under `nominal`, fixed for the whole run by the seed: the
/// shapes stay those the workload is named for, while every latency and
/// byte count still depends on `--seed`.
fn seeded_size(seed: u64, tag: u64, class: u64, nominal: u64, max_cut: u64) -> u64 {
    nominal - round_rng(seed, tag, class, u64::MAX).next_below(max_cut)
}

/// Fisher–Yates.
pub fn shuffle_ops<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Seeded noise that payloads are cut from.
pub struct PayloadNoise {
    bytes: Vec<u8>,
}

impl PayloadNoise {
    /// Enough noise to cut any payload of up to `max_len` bytes at any
    /// offset below `max_len`.
    pub fn seeded(seed: u64, max_len: usize) -> Self {
        let mut bytes = vec![0u8; 2 * max_len];
        SplitMix64::new(seed ^ 0x7061_796c_6f61_6421).fill_bytes(&mut bytes);
        PayloadNoise { bytes }
    }

    pub fn cut(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }
}

// ------------------------------------------------------------ msg_small

/// Nominal message sizes.  The 1 B class is exact (it carries the paper
/// anchors); the others run up to a 128th short, by seed.
pub const MSG_SIZES: [usize; 4] = [1, 64, KIB as usize, 4 * KIB as usize];

pub fn msg_sizes(seed: u64) -> [usize; 4] {
    let mut sizes = MSG_SIZES;
    for (class, size) in sizes.iter_mut().enumerate().skip(1) {
        let max_cut = (*size as u64 / 128).max(2);
        *size = seeded_size(seed, MSG_TAG, class as u64, *size as u64, max_cut) as usize;
    }
    sizes
}
/// Exchanges (send + recv) per size class per round: 64 × 4 sizes × 2 ops
/// = 512 ops a block.
pub const MSG_EXCHANGES_PER_SIZE: usize = 64;
const MSG_TAG: u64 = 0x6d73_675f_736d_616c;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgOp {
    /// Index into [`MSG_SIZES`].
    pub class: u8,
    pub len: usize,
    /// Where in the payload noise this message is cut from.
    pub noise_off: usize,
}

pub fn msg_round(seed: u64, round: u64) -> Vec<MsgOp> {
    let mut rng = round_rng(seed, MSG_TAG, 0, round);
    let max = MSG_SIZES[MSG_SIZES.len() - 1] as u64;
    let sizes = msg_sizes(seed);
    let mut ops: Vec<MsgOp> = (0..MSG_SIZES.len() * MSG_EXCHANGES_PER_SIZE)
        .map(|i| MsgOp {
            class: (i % MSG_SIZES.len()) as u8,
            len: sizes[i % MSG_SIZES.len()],
            noise_off: rng.next_below(max) as usize,
        })
        .collect();
    shuffle_ops(&mut rng, &mut ops);
    ops
}

// ---------------------------------------------------------------- rma_*

/// Nominal transfer sizes; each run cuts up to a page off, by seed, once
/// for the warm buffer and once for the cold ranges of each class.
pub const RMA_SIZES: [u64; 4] = [256 * KIB, 4 * MIB, 16 * MIB, 64 * MIB];

pub fn rma_len(seed: u64, class: usize, cold: bool) -> u64 {
    seeded_size(seed, RMA_TAG, 2 * class as u64 + cold as u64, RMA_SIZES[class], 4 * KIB)
}
/// Ops per class per temperature per round — the 8:4:2:1 count ratio.
pub const RMA_COUNTS: [usize; 4] = [8, 4, 2, 1];
/// Rounds after which the cache-cold slot sequence repeats.  15 cold ops a
/// round × 10 rounds = 150 distinct guest ranges between two uses of the
/// same one: more than the registration cache's 128 entries, so under LRU
/// every cold op misses and evicts.
pub const RMA_COLD_CYCLE: u64 = 10;
pub const RMA_WINDOW: u64 = 64 * MIB;
const RMA_TAG: u64 = 0x726d_615f_6f70_7321;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmaOp {
    /// Index into [`RMA_SIZES`].
    pub class: u8,
    /// Cache-cold: a guest range not used in the last 149 cold ops.
    pub cold: bool,
    /// `vwriteto` (else `vreadfrom`).
    pub write: bool,
    /// Offset into the remote 64 MiB window.
    pub roffset: u64,
    /// Cold ops: which of the class's distinct guest ranges to use.
    pub slot: u32,
    /// Bytes moved.
    pub len: u64,
    /// Seeds the verification stamps.
    pub stamp: u64,
}

/// Distinct cold guest ranges of a class over one cycle.
pub fn rma_cold_slots(class: usize) -> u32 {
    (RMA_COUNTS[class] as u64 * RMA_COLD_CYCLE) as u32
}

pub fn rma_round(seed: u64, round: u64) -> Vec<RmaOp> {
    let mut rng = round_rng(seed, RMA_TAG, 0, round);
    let mut ops = Vec::new();
    for (class, &count) in RMA_COUNTS.iter().enumerate() {
        let nominal = RMA_SIZES[class];
        // Remote offsets: page-aligned, 2 MiB-aligned above the 4 MiB gate.
        let align = if nominal > 4 * MIB { 2 * MIB } else { 4 * KIB };
        // The cold slot order is a seeded permutation fixed for the run,
        // walked cyclically so a slot recurs only after a full cycle.
        let mut order: Vec<u32> = (0..rma_cold_slots(class)).collect();
        shuffle_ops(&mut SplitMix64::new(seed ^ RMA_TAG ^ class as u64), &mut order);
        let cycle_pos = (round % RMA_COLD_CYCLE) as usize * count;
        for i in 0..count {
            for cold in [false, true] {
                // Reads beside writes: each (class, temperature) alternates
                // direction op by op, and round by round where a class has
                // a single op.
                let write =
                    (i + cold as usize + if count == 1 { round as usize } else { 0 }) % 2 == 1;
                ops.push(RmaOp {
                    class: class as u8,
                    cold,
                    write,
                    roffset: rng.next_below((RMA_WINDOW - nominal) / align + 1) * align,
                    slot: if cold { order[cycle_pos + i] } else { 0 },
                    len: rma_len(seed, class, cold),
                    stamp: rng.next_u64(),
                });
            }
        }
    }
    shuffle_ops(&mut rng, &mut ops);
    ops
}

// ---------------------------------------------------------- serve_batch

/// The OPEN-LOOP request shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// 1 KiB send.
    Decode,
    /// 4 KiB `vreadfrom`.
    KvFetch,
    /// 64 KiB send.
    Prefill,
}

impl ServeKind {
    pub fn nominal_bytes(self) -> u64 {
        match self {
            ServeKind::Decode => KIB,
            ServeKind::KvFetch => 4 * KIB,
            ServeKind::Prefill => 64 * KIB,
        }
    }

    /// This run's size of the shape: up to a 128th under nominal, by seed.
    pub fn bytes(self, seed: u64) -> u64 {
        let nominal = self.nominal_bytes();
        seeded_size(seed, SERVE_TAG, self as u64, nominal, nominal / 128)
    }
}

pub const SERVE_BATCH: usize = 16;
/// Every batch carries the same shapes (10 decode, 5 KV fetch, 1 prefill
/// — the OPEN-LOOP 60/30/10 mix rounded to 16), so a batch's latency does
/// not depend on which shapes the seed happened to deal it.
pub const SERVE_KV_PER_BATCH: usize = 5;
pub const SERVE_BATCHES_PER_ROUND: usize = 16;
pub const SERVE_WINDOW: u64 = MIB;
const SERVE_TAG: u64 = 0x7365_7276_655f_6221;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeEntry {
    pub kind: ServeKind,
    /// Sends: offset into the payload noise.  KV fetches: page-aligned
    /// offset into the remote window.
    pub off: u64,
}

pub fn serve_batch(rng: &mut SplitMix64) -> [ServeEntry; SERVE_BATCH] {
    let mut entries = [ServeEntry { kind: ServeKind::Decode, off: 0 }; SERVE_BATCH];
    for (i, e) in entries.iter_mut().enumerate() {
        e.kind = match i {
            0 => ServeKind::Prefill,
            1..=SERVE_KV_PER_BATCH => ServeKind::KvFetch,
            _ => ServeKind::Decode,
        };
        e.off = match e.kind {
            ServeKind::KvFetch => rng.next_below(SERVE_WINDOW / (4 * KIB)) * 4 * KIB,
            _ => rng.next_below(64 * KIB),
        };
    }
    shuffle_ops(rng, &mut entries);
    entries
}

pub fn serve_round(seed: u64, client: u64, round: u64) -> Vec<[ServeEntry; SERVE_BATCH]> {
    let mut rng = round_rng(seed, SERVE_TAG, client, round);
    (0..SERVE_BATCHES_PER_ROUND).map(|_| serve_batch(&mut rng)).collect()
}

// --------------------------------------------------------- dgemm_launch

/// Nominal matrix orders; each run takes up to 3 off each, by seed.
pub const DGEMM_ORDERS: [u64; 3] = [512, 2048, 8192];

pub fn dgemm_orders(seed: u64) -> [u64; 3] {
    let mut orders = DGEMM_ORDERS;
    for (class, n) in orders.iter_mut().enumerate() {
        *n = seeded_size(seed, DGEMM_TAG, class as u64, *n, 4);
    }
    orders
}
pub const DGEMM_THREADS: u32 = 224;
const DGEMM_TAG: u64 = 0x6467_656d_6d5f_6c21;

/// One round launches every matrix order once, in seeded order.
pub fn dgemm_round(seed: u64, round: u64) -> Vec<u64> {
    let mut orders = dgemm_orders(seed).to_vec();
    shuffle_ops(&mut round_rng(seed, DGEMM_TAG, 0, round), &mut orders);
    orders
}

// -------------------------------------------------------------- fingerprint

/// The first `rounds` rounds of `workload`'s op stream as bytes — what
/// the generator tests compare across seeds.
pub fn op_stream_bytes(workload: &str, seed: u64, rounds: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for round in 0..rounds {
        match workload {
            "msg_small" => {
                for op in msg_round(seed, round) {
                    out.push(op.class);
                    out.extend_from_slice(&(op.len as u64).to_le_bytes());
                    out.extend_from_slice(&(op.noise_off as u64).to_le_bytes());
                }
            }
            "rma_staged" | "rma_mapped" => {
                for op in rma_round(seed, round) {
                    out.extend_from_slice(&[op.class, op.cold as u8, op.write as u8]);
                    out.extend_from_slice(&op.roffset.to_le_bytes());
                    out.extend_from_slice(&op.slot.to_le_bytes());
                    out.extend_from_slice(&op.len.to_le_bytes());
                    out.extend_from_slice(&op.stamp.to_le_bytes());
                }
            }
            "serve_batch" => {
                for client in 0..2 {
                    for batch in serve_round(seed, client, round) {
                        for e in batch {
                            out.push(e.kind as u8);
                            out.extend_from_slice(&e.kind.bytes(seed).to_le_bytes());
                            out.extend_from_slice(&e.off.to_le_bytes());
                        }
                    }
                }
            }
            "dgemm_launch" => {
                for n in dgemm_round(seed, round) {
                    out.extend_from_slice(&n.to_le_bytes());
                }
            }
            other => panic!("unknown workload {other}"),
        }
    }
    out
}
