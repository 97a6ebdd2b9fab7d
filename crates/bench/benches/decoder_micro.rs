//! Decoder-subsystem micro-benchmark: raw model submission throughput and
//! the full runtime submit/retire cycle, for each decoder kind. The
//! union-find model decodes real sampled windows (d = 7, p = 1e-2), so its
//! row is the cost of cluster growth and peeling per 1k windows.

use rescq_bench::{print_header, time_calls};
use rescq_decoder::{
    AdaptiveDecoder, DecoderConfig, DecoderModel, DecoderRuntime, ErrorChannel,
    FixedLatencyDecoder, IdealDecoder, UnionFindDecoder,
};

const WINDOWS: u32 = 1024;
const TILES: u32 = 64;
const SAMPLES: usize = 20;

fn drive_model(model: &mut dyn DecoderModel) -> u64 {
    let mut last = 0;
    for i in 0..WINDOWS {
        last = model.decode_ready_at(i % TILES, 7 + (i % 3) * 7, (i as u64) * 2);
    }
    last
}

fn main() {
    print_header(
        "Decoder micro-benchmark — model submission and runtime cycle",
        "1024 windows over 64 tiles",
    );
    time_calls("model_ideal_1k_windows", SAMPLES, || {
        drive_model(&mut IdealDecoder)
    });
    time_calls("model_fixed_1k_windows", SAMPLES, || {
        drive_model(&mut FixedLatencyDecoder::new(&DecoderConfig::fixed(0.5)))
    });
    time_calls("model_adaptive_1k_windows", SAMPLES, || {
        drive_model(&mut AdaptiveDecoder::new(&DecoderConfig::adaptive(0.5, 4)))
    });
    time_calls("model_union_find_1k_windows", SAMPLES, || {
        drive_model(&mut UnionFindDecoder::new(
            &DecoderConfig::union_find(1.0),
            7,
            ErrorChannel::new(1e-2, 1),
        ))
    });
    time_calls("runtime_submit_retire_1k_windows", SAMPLES, || {
        let mut rt = DecoderRuntime::new(&DecoderConfig::adaptive(0.5, 4), 7);
        let mut consumed = 0u64;
        for i in 0..WINDOWS {
            let (id, ready) = rt.submit(i % TILES, 14, (i as u64) * 2);
            consumed += rt.retire(id, ready);
        }
        consumed
    });
}
