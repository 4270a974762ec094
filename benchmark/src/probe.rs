//! The host-speed probe.
//!
//! The reference host is a shared two-core virtual machine whose cores
//! change speed in steps, by up to 27 % and for minutes at a time; a
//! query's wall and CPU time follow step for step, and so does any fixed
//! piece of arithmetic. The client thread therefore times such a piece —
//! four independent multiply-rotate chains over a cache-resident buffer,
//! the benchmark's own code, no call into `crates/*` — right after each
//! query and outside its timed span, and the two gated time metrics are
//! reported at reference speed: each sample times [`speed`] then. A
//! same-run paired ratio, expressed in milliseconds (ROADMAP: gates lean on
//! paired same-run ratios, not on this host's wall clock). README.md,
//! "Steadiness", has the measurements behind it.

use std::hint::black_box;
use std::time::Instant;

/// Bytes the probe reads: fits the second-level cache.
const LEN: usize = 256 << 10;
static BUFFER: [u8; LEN] = [0x5a; LEN];

/// The probe's milliseconds on the reference host at its fastest clock.
/// A unit, not a tuning knob: it only fixes what "reference speed" means.
const REFERENCE_MS: f64 = 0.0157;

fn kernel(buffer: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    let mut lanes = [P1, P2, 0, P1.wrapping_neg()];
    for block in buffer.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(word);
            let value = u64::from_le_bytes(bytes);
            *lane = lane
                .wrapping_add(value.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1);
        }
    }
    lanes.iter().fold(0, |sum, lane| sum ^ lane)
}

/// The probe's best time of two, in milliseconds.
fn probe_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        black_box(kernel(black_box(&BUFFER)));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The host's speed now as a share of reference speed (1 = the reference
/// host at its fastest clock, lower = slower).
pub fn speed() -> f64 {
    REFERENCE_MS / probe_ms()
}
