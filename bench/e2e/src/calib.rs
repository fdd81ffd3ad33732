//! A fixed reference loop that measures how fast the host is right now.
//!
//! The sandbox this benchmark was written in changes speed by a fifth
//! from one minute to the next (a neighbour on the same physical core):
//! the same op took 750 ms and 1170 ms within ten minutes, with the
//! machine otherwise idle. A median over one run cannot average that
//! out. So the benchmark times this loop between ops and reports every
//! end-to-end time divided by `loop time / NOMINAL_MS` — the time the op
//! would have taken on a host where the loop takes `NOMINAL_MS`. Over 450
//! ops that cut the spread between runs (quartile distance over median)
//! from 0.16 to 0.05.
//!
//! The loop uses nothing from the repository, so a change to the engine
//! cannot move it. It spends about a fifth of its time on each of:
//! streaming writes and reads, dependent cache-missing loads, a branchy
//! sort, register-only arithmetic, and first touches of fresh pages. Ops
//! followed the memory parts most closely and the arithmetic least; the
//! equal mix tracked both the report and the ingest workloads.

use std::hint::black_box;
use std::time::Instant;

/// Loop time, in milliseconds, of the host the reported times refer to.
pub const NOMINAL_MS: f64 = 100.0;

const WORDS: usize = 1 << 21;
const GATHERS: usize = 150_000;
const SORTED: usize = 1_000_000;
const MIXES: u64 = 12_000_000;
const FRESH_BYTES: usize = 32 << 20;
const PAGE_BYTES: usize = 4096;

/// Run the reference loop once; its wall time in milliseconds.
pub fn reference_loop_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut data: Vec<u64> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut acc = 0u64;
    for v in &data {
        acc = acc.wrapping_mul(31).wrapping_add(*v);
    }
    let mut idx = acc as usize;
    for _ in 0..GATHERS {
        idx = data[idx % WORDS] as usize ^ idx.rotate_left(5);
    }
    data.truncate(SORTED);
    data.sort_unstable();
    let mut h = acc | 1;
    for i in 0..MIXES {
        h = (h ^ i).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    let mut fresh = vec![0u8; FRESH_BYTES];
    for page in fresh.chunks_mut(PAGE_BYTES) {
        page[0] = 1;
    }
    black_box((idx, data[SORTED / 2], h, &fresh));
    started.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the nominal host this host is right now (above 1:
/// slower). Measured times are divided by it.
pub fn host_slowdown() -> f64 {
    reference_loop_ms() / NOMINAL_MS
}
