//! Committed digests of compiled decode-step traces.
//!
//! Each case plans one transformer block on `channels` channels and
//! compiles its decode step at `position`. The digest is FNV-1a over the
//! `cent_isa`-encoded bytes of every instruction, then the `BlockPhase`
//! tag of every instruction. The cases cover every model at channel counts
//! that plan and compile: single- and multi-pass layouts, tensor-parallel
//! shards of 20 and more channels, the gated-SiLU and GeLU FFNs, and
//! positions whose context spans one, two or many attention segments. A
//! compiler refactor that must not change what the device runs has to
//! keep every digest.
//!
//! After an intentional change to the emitted traces, print the new table
//! with
//! `CENT_PRINT_TRACE_DIGESTS=1 cargo test --test compiler_trace_goldens -- --nocapture`.

use std::fmt::Write as _;

use cent::compiler::{compile_decode_step, BlockPlacement};
use cent::isa::encode;
use cent::model::ModelConfig;
use cent::types::ChannelId;

/// One compiled step: model, channel count, position, instruction count
/// and digest.
type Golden = (&'static str, usize, usize, usize, u64);

fn model(name: &str) -> ModelConfig {
    match name {
        "tiny" => ModelConfig::tiny(),
        "llama2-7b" => ModelConfig::llama2_7b(),
        "llama2-13b" => ModelConfig::llama2_13b(),
        "llama2-70b" => ModelConfig::llama2_70b(),
        "opt-66b" => ModelConfig::opt_66b(),
        "gpt3-175b" => ModelConfig::gpt3_175b(),
        _ => unreachable!("unknown model {name}"),
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
    }
}

fn compile(name: &str, channels: usize, position: usize) -> (usize, u64) {
    let cfg = model(name);
    let ids = (0..channels as u16).map(ChannelId).collect();
    let placement = BlockPlacement::plan(&cfg, ids).expect("golden cases plan");
    let step = compile_decode_step(&placement, position).expect("golden cases compile");
    let mut h: u64 = 0xcbf29ce484222325;
    for inst in &step.trace {
        fnv(&mut h, &encode(inst));
    }
    for &tag in &step.tags {
        fnv(&mut h, &[tag as u8]);
    }
    (step.trace.len(), h)
}

#[test]
fn compiled_traces_match_their_committed_digests() {
    let print = std::env::var_os("CENT_PRINT_TRACE_DIGESTS").is_some();
    let mut table = String::new();
    let mut failures = Vec::new();
    for &(name, channels, position, insts, digest) in GOLDENS {
        let (n, d) = compile(name, channels, position);
        if print {
            writeln!(table, "    ({name:?}, {channels}, {position}, {n}, 0x{d:016X}),")
                .expect("writing to a String never fails");
        } else if (n, d) != (insts, digest) {
            failures.push(format!(
                "{name} on {channels} channels at position {position}: \
                 {n} instructions, digest 0x{d:016X}"
            ));
        }
    }
    if print {
        println!("const GOLDENS: &[Golden] = &[\n{table}];");
    }
    assert!(failures.is_empty(), "{} traces diverged:\n{}", failures.len(), failures.join("\n"));
}

#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    ("tiny", 1, 0, 348, 0x3BFE2E57E0A4750F),
    ("tiny", 1, 63, 388, 0x3B3BFB38C25AC0CB),
    ("tiny", 2, 17, 304, 0x9B8F04DB213AC95D),
    ("tiny", 3, 63, 337, 0x7890966FFDCF3258),
    ("tiny", 32, 40, 758, 0x4511A3AF5BD92CFB),
    ("llama2-7b", 1, 0, 76238, 0x10234457C6BCFFDD),
    ("llama2-7b", 8, 383, 10566, 0xD58BD2974AEEF1D3),
    ("llama2-7b", 8, 384, 11046, 0x79B0F5B7927C6F5F),
    ("llama2-7b", 10, 1000, 14535, 0x19551E410C8BD116),
    ("llama2-7b", 21, 2047, 20079, 0x0B8CE68C1BA47381),
    ("llama2-7b", 23, 511, 8418, 0x024D8F3121EB01BB),
    ("llama2-7b", 32, 4095, 34082, 0xC2A7B572EFE37557),
    ("llama2-13b", 2, 0, 47005, 0x4D80F0BC1B68CA8A),
    ("llama2-13b", 7, 767, 20104, 0x0073E5731E730A8D),
    ("llama2-13b", 13, 1536, 23033, 0x205E75E4AB77344C),
    ("llama2-13b", 20, 4095, 44112, 0x3F42817F619F0440),
    ("llama2-70b", 4, 0, 51846, 0xD4A11B7E9FFA9C8D),
    ("llama2-70b", 6, 1023, 50193, 0x1888587C7DDAD7A7),
    ("llama2-70b", 10, 4095, 81838, 0x054450D1A64AAF69),
    ("llama2-70b", 14, 2500, 53346, 0x1178AA6DE67FF55B),
    ("opt-66b", 5, 0, 48658, 0xCEE9FC99245C8680),
    ("opt-66b", 9, 1023, 43868, 0x8CEBD1AA6D8A1B71),
    ("opt-66b", 14, 2047, 52930, 0x680DD91F6CD1BC0F),
    ("gpt3-175b", 8, 0, 51328, 0xC7D6237C4E442F14),
    ("gpt3-175b", 10, 1023, 63732, 0xFF5133C1753A158E),
    ("gpt3-175b", 12, 2047, 80168, 0x5F3D3FC35312EC99),
];
