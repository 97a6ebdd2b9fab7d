//! The union-find decoder has an error threshold. Below it, a larger code
//! distance fails less often; above it, more often. The phenomenological
//! union-find threshold is ~2.6% (Delfosse–Nickerson), so p = 1% and
//! p = 3% sit on either side of it. Each cell decodes d-round windows of
//! one tile through the realtime decoder and counts the windows whose
//! residual crosses the logical cut.
//!
//! The differential oracle stops at d = 5. This gate pins the shape of the
//! failure curve at d = 7 and 9 too, where a growth or peeling regression
//! shows up as a crossing in the wrong place.

use rescq_decoder::{DecoderConfig, DecoderModel, ErrorChannel, UnionFindDecoder};

const DISTANCES: [u32; 4] = [3, 5, 7, 9];
const SAMPLES: u64 = 20_000;

/// Logical failures over `SAMPLES` d-round windows at rate `p`.
fn logical_failures(d: u32, p: f64) -> u64 {
    let seed = 0x7E5_u64 ^ ((d as u64) << 32) ^ p.to_bits();
    let mut decoder = UnionFindDecoder::new(
        &DecoderConfig::union_find(1.0),
        d,
        ErrorChannel::new(p, seed),
    );
    for w in 0..SAMPLES {
        decoder.decode_ready_at(0, d, w);
    }
    decoder.take_work().logical_failures
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "160k decoded windows; runs in the release decoder-differential job"
)]
fn union_find_shows_a_threshold() {
    let below: Vec<u64> = DISTANCES
        .iter()
        .map(|&d| logical_failures(d, 0.01))
        .collect();
    let above: Vec<u64> = DISTANCES
        .iter()
        .map(|&d| logical_failures(d, 0.03))
        .collect();
    println!("logical failures per {SAMPLES} windows, d = {DISTANCES:?}");
    println!("  p = 1%: {below:?}");
    println!("  p = 3%: {above:?}");
    assert!(
        below.windows(2).all(|w| w[0] > w[1]),
        "below threshold, failures must fall strictly with d: {below:?}"
    );
    assert!(
        above.windows(2).all(|w| w[0] < w[1]),
        "above threshold, failures must rise strictly with d: {above:?}"
    );
}
