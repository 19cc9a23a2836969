//! Differential safety net for the serving engines.
//!
//! A seeded generator draws small serving runs over hand-built systems —
//! 1–4 replicas of 1–8 slots, tight to ample KV budgets, both KV modes,
//! every spill mode over host pools of 0, 60 and 1500 tokens with a cheap
//! and a contested swap cost, FIFO / shortest-remaining-decode /
//! deadline-aware scheduling, single- and two-tier class mixes, contiguous
//! and chunked prefill, uniform and ShareGPT lengths at 0.5–3× capacity —
//! on token intervals that are *not* a round millisecond (0.733 ms and
//! 1.25 ms + 1 ps), so no grid instant is accidentally shared. Each case
//! asserts:
//!
//! 1. the per-token reference engine and the span-fast-forward engine
//!    report bit-identically;
//! 2. a `GroupSim` fed window by window over a drawn epoch (0.7 ms, 50 ms
//!    or 1 s) reproduces the batch run's `GroupOutcome` exactly;
//! 3. conservation: every request completes exactly once or is rejected,
//!    every generated token is accounted for, the host pool bound holds,
//!    and the TBT histograms agree with an oracle built from the completion
//!    records alone (sample counts, the telescoped mean, per-class counts,
//!    group = merge of classes);
//! 4. a committed FNV-1a digest of the span engine's `GroupOutcome`
//!    (report, stats, completion records, and the raw group and per-class
//!    TBT histograms and submission counts), so any change to what the
//!    engines simulate fails here.
//!
//! Before two engine fixes, property 1 failed on cases 273 and 395. In
//! case 273 (3 replicas, 60-token pool) evictions on different replicas
//! competed for the shared host pool at one instant, and the two engines
//! walked them in different orders. In case 395 a stale heap entry
//! outlived the last token and stretched the reference engine's
//! utilization window. Neither fix changed a span digest here.
//!
//! After an intentional change to simulated behaviour, print the new
//! digest table with
//! `CENT_PRINT_SERVING_DIGESTS=1 cargo test --test serving_engine_equivalence -- --nocapture`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cent_cost::KvSwapCost;
use cent_model::ModelConfig;
use cent_serving::{
    ArrivalProcess, ClassMix, DeadlineAware, GroupOutcome, GroupSim, KvBudget, KvMode,
    KvSpillConfig, KvSpillMode, LengthSampler, PriorityClass, RequestSpec, SchedulerConfig,
    ServeOptions, ServingSystem, ShortestRemainingDecode, TickEngine, Workload,
};
use cent_types::{ByteSize, Rng64, Time, TimeHistogram};

/// Cases drawn by the generator.
const CASES: usize = 400;

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
    items[rng.next_below(items.len() as u64) as usize]
}

/// One drawn case: the system, its options, its trace and the epoch the
/// incremental run advances by.
struct Case {
    system: ServingSystem,
    options: ServeOptions,
    trace: Vec<RequestSpec>,
    qps: f64,
    epoch: Time,
    budget: u64,
    pool: u64,
}

fn draw_case(index: usize) -> Case {
    let mut rng = Rng64::seed(0x5E21_E9C1_u64 ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let replicas = 1 + rng.next_below(4) as usize;
    let slots = 1 + rng.next_below(8) as usize;
    let budget = pick(&mut rng, &[120u64, 160, 400, 1000, 1 << 40]);
    let interval = pick(&mut rng, &[Time(733_000_000), Time(1_250_000_001)]);
    let prefill_rate = pick(&mut rng, &[2_000.0, 20_000.0]);
    let system = ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas,
            slots_per_replica: slots,
            kv_budget: KvBudget::tokens(budget),
            kv: KvMode::FullReservation,
        },
        interval,
        prefill_rate,
        (replicas * slots) as f64 / interval.as_secs(),
    );

    // Footprints stay within 240 tokens, so the tight budgets both reject
    // and preempt while the ample ones do neither. Token-granular
    // accounting and the 60-token pool are drawn more often: they are
    // where evictions compete for the shared host pool.
    let (lengths, mean) = if rng.next_below(2) == 0 {
        let lengths = LengthSampler::Uniform {
            prompt_min: 4,
            prompt_max: 120,
            decode_min: 1,
            decode_max: 120,
        };
        (lengths, (62, 60))
    } else {
        (LengthSampler::ShareGpt, (100, 110))
    };
    let classes =
        if rng.next_below(2) == 0 { ClassMix::default() } else { ClassMix::two_tier(0.5) };
    let load = pick(&mut rng, &[0.5, 1.0, 2.0, 3.0]);
    let qps = load * system.capacity_qps(mean.0, mean.1);
    let requests = (20 + rng.next_below(380)) as f64;
    let workload = Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps: qps },
        lengths,
        seed: rng.next_u64(),
        classes,
    };
    let trace = workload.generate(Time::from_secs_f64(requests / qps), 240);

    let kv =
        if rng.next_below(4) == 0 { KvMode::FullReservation } else { KvMode::token_granular() };
    let mode = pick(&mut rng, &KvSpillMode::ALL);
    let pool = pick(&mut rng, &[0u64, 60, 60, 1500]);
    let swap_cost = KvSwapCost::cent(pick(&mut rng, &[ByteSize::kib(4), ByteSize::kib(256)]));
    let spill = KvSpillConfig { mode, host_pool_tokens: pool, swap_cost };
    let policy = rng.next_below(3);
    let chunk = pick(&mut rng, &[None, Some(16u64), Some(64)]);
    let epoch =
        pick(&mut rng, &[Time::from_us(700), Time::from_us(50_000), Time::from_us(1_000_000)]);
    let mut options =
        ServeOptions { kv, prefill_chunk: chunk, ..ServeOptions::default() }.with_spill(spill);
    options = match policy {
        0 => options,
        1 => options.with_policy(Box::new(ShortestRemainingDecode)),
        _ => {
            let slo = Time::from_secs_f64(0.2);
            options.with_policy(Box::new(DeadlineAware { slo })).with_slo(slo)
        }
    };
    Case { system, options, trace, qps, epoch, budget, pool }
}

/// The span engine's batch run (what `serve_trace_with` runs), as a full
/// outcome.
fn batch(case: &Case) -> GroupOutcome {
    let mut sim = GroupSim::new(&case.system, case.options.clone());
    for spec in &case.trace {
        sim.push_arrival(*spec);
    }
    sim.finish(case.qps)
}

/// The same trace fed window by window, advancing one epoch at a time.
fn incremental(case: &Case) -> GroupOutcome {
    let mut sim = GroupSim::new(&case.system, case.options.clone());
    let mut cursor = 0;
    let mut limit = case.epoch;
    while cursor < case.trace.len() {
        while cursor < case.trace.len() && case.trace[cursor].arrival < limit {
            sim.push_arrival(case.trace[cursor]);
            cursor += 1;
        }
        sim.advance_to(limit);
        limit += case.epoch;
    }
    sim.finish(case.qps)
}

fn digest(out: &GroupOutcome) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    write!(
        h,
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        out.report, out.stats, out.records, out.tbt, out.tbt_by_class, out.submitted_by_class
    )
    .expect("hashing never fails");
    h.0
}

/// Conservation: every admissible request completes exactly once, every
/// oversized one is rejected, and the generated tokens add up.
fn check_conservation(index: usize, case: &Case, out: &GroupOutcome) -> Result<(), String> {
    let admissible: Vec<&RequestSpec> =
        case.trace.iter().filter(|s| s.kv_tokens() <= case.budget).collect();
    let r = &out.report;
    let mut ids: Vec<u64> = out.records.iter().map(|rec| rec.spec.id.0).collect();
    ids.dedup();
    let decode: u64 = admissible.iter().map(|s| s.decode as u64).sum();
    let ok = r.submitted == case.trace.len()
        && r.rejected == case.trace.len() - admissible.len()
        && r.completed == admissible.len()
        && ids.len() == out.records.len()
        && ids.iter().zip(&admissible).all(|(&id, s)| id == s.id.0)
        && r.decode_tokens == decode
        && out.stats.tokens == decode
        && r.host_kv_peak_tokens <= case.pool;
    if !ok {
        return Err(format!("case {index}: conservation violated"));
    }
    check_tbt(index, out)
}

/// An oracle for the TBT populations that shares no code with the engines:
/// a completed request contributes `decode - 1` gaps, and because they
/// telescope they sum to `finished - first_token` whatever preemptions,
/// swaps or handoffs split them. The group histogram must hold exactly
/// those samples, each class histogram its own class's, and the group
/// histogram must be the merge of the class histograms.
fn check_tbt(index: usize, out: &GroupOutcome) -> Result<(), String> {
    let mut gaps = 0u64;
    let mut span_ps = 0u128;
    let mut by_class: BTreeMap<PriorityClass, u64> = BTreeMap::new();
    for rec in &out.records {
        let n = rec.spec.decode as u64 - 1;
        gaps += n;
        span_ps += u128::from((rec.finished - rec.first_token).as_ps());
        *by_class.entry(rec.spec.class).or_default() += n;
    }
    let mean =
        if gaps == 0 { Time::ZERO } else { Time::from_ps((span_ps / u128::from(gaps)) as u64) };
    if out.tbt.count() != gaps || out.tbt.mean() != mean {
        return Err(format!(
            "case {index}: TBT holds {} samples of mean {:?}, records imply {gaps} of mean {mean:?}",
            out.tbt.count(),
            out.tbt.mean()
        ));
    }
    let mut merged = TimeHistogram::new();
    for (class, h) in &out.tbt_by_class {
        merged.merge(h);
        if h.count() != by_class.get(class).copied().unwrap_or(0) {
            return Err(format!(
                "case {index}: class {class} TBT count disagrees with its records"
            ));
        }
    }
    let listed = |c: &PriorityClass| out.tbt_by_class.iter().any(|(k, _)| k == c);
    if by_class.iter().any(|(c, &n)| n > 0 && !listed(c)) {
        return Err(format!("case {index}: a class with TBT samples has no class histogram"));
    }
    if merged != out.tbt {
        return Err(format!("case {index}: group TBT is not the merge of the class histograms"));
    }
    Ok(())
}

#[test]
fn serving_engines_match_each_other_and_their_committed_digests() {
    let print = std::env::var_os("CENT_PRINT_SERVING_DIGESTS").is_some();
    let mut table = String::new();
    let mut failures: Vec<String> = Vec::new();
    // How many cases exercised each mechanism: preemption (recompute),
    // swap, rejection, a chunked-prefill completion, and a swap on a
    // multi-replica system (where replicas contend for the host pool).
    let mut seen = [0usize; 5];
    for (index, &expected) in DIGESTS.iter().enumerate() {
        let case = draw_case(index);
        let reference = case.system.serve_trace_with(
            &case.trace,
            case.qps,
            case.options.clone().with_engine(TickEngine::PerTokenReference),
        );
        let whole = batch(&case);
        if reference != whole.report {
            failures.push(format!("case {index}: reference and span reports differ"));
        }
        if format!("{whole:?}") != format!("{:?}", incremental(&case)) {
            failures
                .push(format!("case {index}: epoch-driven GroupSim differs from the batch run"));
        }
        if let Err(e) = check_conservation(index, &case, &whole) {
            failures.push(e);
        }
        let r = &whole.report;
        let chunked = case.options.prefill_chunk.is_some();
        let fired = [
            r.preemptions > 0,
            r.swaps > 0,
            r.rejected > 0,
            chunked && r.completed > 0,
            case.system.replicas() > 1 && r.swaps > 0,
        ];
        for (n, &hit) in seen.iter_mut().zip(fired.iter()) {
            *n += usize::from(hit);
        }
        let d = digest(&whole);
        if print {
            writeln!(table, "    0x{d:016X},").expect("writing to a String never fails");
        } else if d != expected {
            failures.push(format!("case {index}: outcome diverged from its committed digest"));
        }
    }
    if print {
        println!("const DIGESTS: [u64; CASES] = [\n{table}];");
    }
    assert!(failures.is_empty(), "{} failures:\n{}", failures.len(), failures.join("\n"));
    assert!(seen.iter().all(|&n| n > 0), "some mechanism never fired: {seen:?}");
}

/// FNV-1a digests of the span engine's outcome, one per case.
#[rustfmt::skip]
const DIGESTS: [u64; CASES] = [
    0x4C57EC1FFAAE3823,
    0xA46A46508B590AF7,
    0x0899F07D7E2722B5,
    0xF5CA3A053D846270,
    0xA8EA65506495A88D,
    0xA8A63CDDDF3268F9,
    0xD0983A060839E47B,
    0x125340D793DC6087,
    0x3DF73DF3EEBD03C6,
    0x4C3C1E4CB936D107,
    0x6AAFC433F1B30CCF,
    0x84471CB79F32408C,
    0x8BA5CCA246BC619D,
    0x1DDA34BE3C27BAA3,
    0x9F901E7173E58E66,
    0x1D8D2CE3E8D5A0BE,
    0xB863EBB5F4D35729,
    0x5AB258F6CD4C8230,
    0xBC1A8B08E43DB343,
    0xA0A7BF2853AC43F3,
    0x966F908D0E5CB63A,
    0x057B7307010551EB,
    0x940091FF44BE27E9,
    0x0B689B6928477C8F,
    0x317FACC7666E5EFD,
    0x5B1B3C9AA72B008E,
    0x650D3C89EDDD9385,
    0x0BEAE0EECC0ADEE6,
    0xE924889071AC65EF,
    0x4AE145B5C9F227C0,
    0x532A9D55E9B36C84,
    0x6BB9E9FE858873DA,
    0x308D70292C6A996A,
    0x842F68714BBAB4C7,
    0x7BE6C7038991F6FE,
    0xA750FB0D2C3D85B2,
    0xC1A72AE05754E609,
    0xE7CBC306C6B3C721,
    0x198C6960A208EB27,
    0xB79557C2F3E70DE8,
    0x28B9BA37129F08E4,
    0xBC6DC64FE9F9B100,
    0x0ECA701610F0D1A1,
    0xCFD8405998A1DD77,
    0xF3C5D7987823EE65,
    0x03B87756E0FBE83A,
    0x9C3A4FFBEBCFF439,
    0x2767923666AA9AD8,
    0x24F50E086B784E39,
    0xD8622D8C30755DDB,
    0xDD621FCC5C70376F,
    0xA60B0ED6A8C7BE42,
    0xB441997378BDF48B,
    0xE7C0D9BCF3E131DB,
    0x18D25B7F60779E69,
    0x978B3A0520A83297,
    0x976276357470798B,
    0xFC8D9782577C24E1,
    0xCA6EAE57EE1FD467,
    0xBE491BC79C52E4F5,
    0xF320FD377602A3E3,
    0x21F9FDB541E98041,
    0xBA3502B3F5B2A6A5,
    0x17EFBBF1553EF48F,
    0x3EFF272DC52AC010,
    0x3A9A0E181C1F3A05,
    0x6AA5F3A6888D8F4B,
    0x9C5AD8E13A4C4343,
    0xD7B6705590C974DB,
    0x7506052D0B81D80A,
    0x0E18BABE54F82A78,
    0x69699A9682DADA79,
    0x01342BEF4B9543CE,
    0x5E68ABD7D1E44D08,
    0xA8C6FD6DFBBE5422,
    0xF1209CC9D49CC807,
    0x98464D69BC293BC5,
    0x9D98AC790DD21BF9,
    0xE5E0D72F9052D578,
    0x48D6811890CAD5FB,
    0x064C7ECB557BC37F,
    0x8394F74FF5776130,
    0xA20D2F78FC651C77,
    0x46555EB29F2A37D7,
    0x8C1E26B00E69F5D4,
    0xFA3A27B5AEF25087,
    0xC4F9D5041BC67F31,
    0x0B33EBED1D3D044B,
    0x6AAA0BCD54A658E8,
    0x4890C1287CF6B00A,
    0xD1D6CD3D9D7B2485,
    0x5BCB30962DE55FB6,
    0x98CFA3E0E0F3FAF8,
    0x2D3A2F59719C6511,
    0xD909CE40406D3F8E,
    0x1C3F2A88846DB7C1,
    0xD45F0FE2456D24D9,
    0xBDFFA93B6281FC38,
    0xC3A49212A9D9987A,
    0xAC4D4CD282C58C64,
    0xEA18A876CCF9F872,
    0x757DCCB829396413,
    0xC1ECF8310D48CD9F,
    0x2072A87D4051C580,
    0x7C95B85DA3F52B64,
    0xAB48E54F6918E6D3,
    0x29927CA139FCC597,
    0x440C3BF15A6078A9,
    0x2333CE21499AA74B,
    0x1B6001D5B7088A27,
    0xF15AA170C111A5CA,
    0xD765760CB800BBC5,
    0x9DC6B56A3698C86C,
    0xEBF258033FCEE10A,
    0x2E6320F84CF11E4D,
    0x092DE4ABF907E718,
    0x7EFF2F8F5307F702,
    0xC8F2F3772ACBC4DA,
    0x312DCBE77E4C73F3,
    0xE8922A93C6FD10EC,
    0x6242113BAEB47C5A,
    0xED3BF8F231A83E92,
    0xEB91E68B8DB58818,
    0x4846EEB228C63FC0,
    0x3A06A768A5AC1A29,
    0xE29A86B765FC2FAD,
    0x463A85E22997B5A4,
    0xBC1402FCB30E085B,
    0xE718988A33B77FAA,
    0xD5387ECA5169C5D1,
    0xB50639112B90B18B,
    0x402B70131998FFBF,
    0xAD1ED48D9E281657,
    0x328378BE2D83B712,
    0x3D684C12EAD02BE7,
    0x73B07BD60D1462F3,
    0x6D700998472C6500,
    0xFDA33A1C03C1300B,
    0x2D17D22D1082A723,
    0x14AA31216FFA7307,
    0x57C2018342ED3E37,
    0x9C32324D83260A67,
    0xAD6C561C097B3F05,
    0x250E64A7708050DC,
    0x51CD6CB2B8E907F3,
    0xFE36903CE972711D,
    0x5CFA09E68B40A852,
    0x6729DAFFB0BBF106,
    0xDDCC9D4010F43E69,
    0x26ECC11F3BFAAE83,
    0xB6E01F20C6E3C0E7,
    0x80A1CBED7530EEA7,
    0x085EB1AF16B48800,
    0x58DA9A88D6555596,
    0x94B58DD85EAFFF2E,
    0x6A402B9CA20B381E,
    0xCF2CAC57C4791EA5,
    0x295FC4509C111D98,
    0xDBD07B8360BA114E,
    0xD63641854D10BC7C,
    0xA0A547DA2B230A92,
    0x97042965C18BD5A7,
    0x92A31AA11FCC43D7,
    0xDDD1E4D5C32D6535,
    0x7D99E67C23708BE1,
    0xC601AF4037D8DB4E,
    0xB0673A5D451E3152,
    0xC322610C513CA253,
    0x3AC7167D164887F4,
    0x7E3C2F1559653A60,
    0x4E54FD36A36F9D8F,
    0x04D9231F365A3730,
    0x30F155B78B7C6104,
    0x41BC1F3315F927C3,
    0x4EE398CD787BFBC5,
    0x8912A267076B3B4F,
    0x57406B0A0D166C56,
    0x048C4CAD4FC7FC20,
    0xC06DC47C2D5E4B85,
    0x80C824F1CF428244,
    0x642EC4153C9965CC,
    0xC44CD29C074E48FD,
    0x476CCC25B2AD35DF,
    0x19E2AC0EB397C046,
    0x8C762CFE61E3ABD9,
    0x3883D273D8571FCE,
    0xCE18BC1E154CA8D0,
    0x894FA4FEAED99A44,
    0xD69AB4D63DCA18D9,
    0xE685BC2F5DE3F32E,
    0x3190303C91F456E4,
    0x9AA94C7B6672A9C1,
    0x8F5C35209A668ABE,
    0x77C827C0335C63C8,
    0x5DFE2E42616843A6,
    0xD8F5CEDDF757680C,
    0x2814F037F11D1A7E,
    0x10B677239D52DECE,
    0x25BB4C652C59212E,
    0x2D1FDB57FFD46090,
    0x831FA0FB0E23EF4A,
    0x919180C1CE5EF3BA,
    0x1E4886AD40CC0EA5,
    0x1DA19279FAF1F5D2,
    0x2512A4C719C423E3,
    0x8D319995FCCCCEE1,
    0x85681BF6C6B6D53E,
    0xCDB4F8077614E8A4,
    0xC60E47CEC376818D,
    0x9A0282D28D1D4823,
    0xE979916479C96198,
    0x1DCB6A2142E20700,
    0x283E79DE0EE17D15,
    0xC58A4ABBD634E9EE,
    0x0589A742CD081FB3,
    0xD3D1342801FDA9F2,
    0x1B6351BD3032F4A0,
    0xBA41B25CDF3186B6,
    0x8F02C28B6683F911,
    0x06D71945698A6044,
    0x6380A52799CDADAA,
    0x46909BB5DF7010C6,
    0x5A9071814A3E0961,
    0xF748BFAF25043F99,
    0xE66716C1371380FA,
    0x7AD17D1D44EBA67C,
    0x3674B0CA15D51CE0,
    0x5E87057E8CD39536,
    0x4847865A085517A8,
    0xD33E733A2FEE10FC,
    0x2EF82F193E998C4B,
    0x5B773C670FD46CEE,
    0x06A41EC5B66C54AD,
    0xBEFBAD7E38750813,
    0x7D0DDCEE774DB2DC,
    0xF4AF8F77BCDF12F7,
    0x9CFAC4C90C0DBFA4,
    0x0A2CB5A1794035C4,
    0xCF9FB3B9BEC226B1,
    0x3B8A32475D8E3635,
    0xAA3D0EFAD5E5EF90,
    0x83755344C529D74E,
    0x97C6A4F8ECE0D1AF,
    0xB2374D8C03D471C0,
    0x7950A468F47AC552,
    0xFC28C69FD5CD0ED2,
    0x82D47ED2025B647F,
    0x1FB8999751B0058F,
    0xFE8BBFB0E97907F1,
    0xAC770156B1021F38,
    0x7B2005D460DF6762,
    0xD5222B91F5721FF0,
    0xA5E78D494D3E800C,
    0x0ADBAA4DCF1B3AFE,
    0xDEAA28632D416969,
    0x97600311B873668F,
    0x3C25D3BC689985FE,
    0xB567F478260E2AAB,
    0x3DFBB91E32DFCC5D,
    0x9EA189983DFBD837,
    0x997A97994F3AA1BC,
    0xD59C6572E656F061,
    0x639034BA0841A084,
    0x30E6D8DD4D348426,
    0x59FA972DF76125FA,
    0x4A329532B20DAF1C,
    0x7CEFEDD123909013,
    0x1597D2683BC318FC,
    0x753009FDD3A5F325,
    0xF9F41C4A60744D42,
    0x77891AD99A99A1E6,
    0x27EF4F6FAA76A4CE,
    0x613892F371924EEB,
    0x77084A69A4EBE1B3,
    0x95E4AB31F84CF983,
    0x8F15650D387D0686,
    0xBEB1482B8DA7B1C1,
    0xC46C7BC3C5EC7838,
    0x6765B1096AAFD5FA,
    0xF46B7CCF6608BE8D,
    0xB5EAA5EAFB9F6BC4,
    0x9921D4E77E2DB53F,
    0x1AED86F9F4FC5C57,
    0x6C375EA3583AA9E2,
    0x5B5C5E5A5C734E04,
    0xAA0580EF034735C4,
    0x63FBFCD5C2AA0711,
    0x9E7728B53BCE5CC9,
    0x814B1399C7D5EEC4,
    0x37F7DC7BC5E63FC7,
    0xCB641F9ECD406F9D,
    0x514A8A5905A13280,
    0x87206CE6DA5FFA17,
    0x6937F96A9675F026,
    0x4C605D274A03E503,
    0x519A83AFDA59A8F2,
    0x67B4AA69EB26028C,
    0xD90783CAECDC8726,
    0xA20A485BD4982AEA,
    0x7C1E876892E8AFA9,
    0xB0EA72D8B8C45BE8,
    0xCEA39A9E02650EAD,
    0x7C27D8678D583501,
    0xA451BB566F38E62B,
    0x63C4CF41494F92D5,
    0x22E6543E7318B3BF,
    0xE9802A70ED8748EF,
    0x93979507C2210F0B,
    0x77A08C59A2CDA2FD,
    0xC5423BB678AAB693,
    0x6A5BC2B9EE7F798A,
    0x97A15D7621A4FD86,
    0x04DDE5E757EAF824,
    0xAFB69A05ABDE3812,
    0x9A20534AC4DF796B,
    0x92858C1B07CEDB25,
    0x8673EC6A5006EDDB,
    0x8E0781215A43E3E0,
    0xF461CE93F5DA684E,
    0x2DE7C13FA86E0D9F,
    0xE8B5F865F32A2526,
    0x60AB4E057E9D714A,
    0x59CA55054E7A313E,
    0x3028B8F3F421BA21,
    0x2F71B60C24F9E02E,
    0xA5AB0C406F2ED155,
    0xC1DBDF58B9DDE946,
    0x2637232DE3E98E08,
    0x91CED3624682FDFD,
    0x63AAD5DCF638F4FF,
    0x953B50E2B1F3AB89,
    0x958371E2FBA3AA75,
    0xA8642104CC0D8EEF,
    0x139D24E34F791457,
    0x831B921CAF3B6195,
    0x27E02F4F73FA0290,
    0x04F4301DACFA995D,
    0x6A6239E60EF3E1C3,
    0x8BE6D5FEB971D66A,
    0xF6D93E048F4AA4C6,
    0x6518128AB83D21E6,
    0x0908C34080CC1952,
    0x17C24ADEAB69382B,
    0x0A786D9C8F42234A,
    0x4E143681FA9C93E9,
    0x22C8FDF2687C2547,
    0x71DE99F1FFEDEC5D,
    0x07F0422702B6FFD1,
    0x1691D9F63113EB30,
    0xCCEE73ACF41D1474,
    0x81364879FAEE3971,
    0xADA0ADF438879F69,
    0x96D7BAF821AE601B,
    0xF1ABA5677EE9FD7C,
    0x4074E46E12F1334E,
    0xC54E95926F4ACB18,
    0xF8478659E0E9929C,
    0xAA2C8005617D5436,
    0x7B72C25E6854AE7E,
    0x08992BD310723F13,
    0x58D3E17A41FDAE2D,
    0xE3ACCC84DC212427,
    0xDD97861EFA3513CB,
    0x6845789ED93ABCBB,
    0x779787CECAD163FA,
    0xAA752BC19454CDB5,
    0x92879C954665E25B,
    0x7AF8196B0D8804D3,
    0x7D99E9B88E6679FD,
    0xAF62DDBB3223657D,
    0x2FA27E6E98A1FD16,
    0x49A316CC92E4E442,
    0xE09F8203C78A24EC,
    0x00CDB06656DB5A93,
    0x776D50F2CF8EA733,
    0xA74765B6B66A25F7,
    0x016C403BB074CAD4,
    0x0EB6F77A0E992090,
    0x68E97CF4F3448781,
    0x4D45FC86E242EB59,
    0xCF1AF2904F8BCE95,
    0xF4467458A809A826,
    0x559673706C16A12F,
    0x2255A6B0A5CC0DC5,
    0x1A72A1085D49FA6C,
    0xDA8BBDEBFA8C34E6,
    0xD77AD27CDE2C9860,
    0xD3F3177552263468,
    0x672D7DFB012A2163,
    0x2E782EDC9C233AE7,
    0x8B3DD947DBF2234B,
    0x003E98D157F51C04,
    0x137890E62A60FA78,
    0x4B08C11E4683DE1F,
    0x0CCD7CB55731322E,
    0xAD3F64F997589522,
    0xFDCFB00438677230,
    0x59B213937D4481C5,
    0x2118D8B152E67DCF,
    0x2E3848D202032D32,
];
