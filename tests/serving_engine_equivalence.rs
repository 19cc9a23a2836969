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
//!    every generated token is accounted for, and the host pool bound
//!    holds;
//! 4. a committed FNV-1a digest of the span engine's `GroupOutcome`
//!    (report, stats, completion records), so any change to what the
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

use std::fmt::Write as _;

use cent_cost::KvSwapCost;
use cent_model::ModelConfig;
use cent_serving::{
    ArrivalProcess, ClassMix, DeadlineAware, GroupOutcome, GroupSim, KvBudget, KvMode,
    KvSpillConfig, KvSpillMode, LengthSampler, RequestSpec, SchedulerConfig, ServeOptions,
    ServingSystem, ShortestRemainingDecode, TickEngine, Workload,
};
use cent_types::{ByteSize, Rng64, Time};

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
    write!(h, "{:?}|{:?}|{:?}", out.report, out.stats, out.records).expect("hashing never fails");
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
    if ok {
        Ok(())
    } else {
        Err(format!("case {index}: conservation violated"))
    }
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
    0x18B15DCA2D24CD9C,
    0x1A3D185DBA252D03,
    0xA6299C0891978527,
    0xAB7B64651D2B3C40,
    0x34165434449A764A,
    0x5D72BA650F4B5727,
    0xC46B1214FE226AE3,
    0x0E451AB25F401024,
    0xE779DED5278D271E,
    0xC15F32AC7E576094,
    0xA8C0A0548DE792CF,
    0x3CF1081F46D7FFEE,
    0xD596ED0F7BCB7DDD,
    0x3BEA2B789A59A518,
    0x2552D3D28B8D7F6E,
    0xA5A08663C4C4C510,
    0x4A686AE3A8FED237,
    0x7A406A3721E2517D,
    0x4212A56338C49719,
    0x48C7F76C3D85BB29,
    0x04DB1419CFC92FDA,
    0xA18945DF90B71729,
    0xF13F82A9C798320E,
    0x56FC7F39CC56E8A9,
    0x747F67044C5575B9,
    0x6E13F88E8480B089,
    0x05BE620B2A3B98AD,
    0x91743CD6DAB3E76C,
    0xF3CEF4486D69C550,
    0xAE586ED2F9203AF0,
    0x569F970ED66FC052,
    0x2D90005FBC10C5A2,
    0xACDA7486CC3D5FAE,
    0x49E5CB9CA3734657,
    0xB64A7C34C1CA85F8,
    0x73E22AFA5934CE2F,
    0x4052EDBA96AA62B3,
    0x0582B54D9E4397A2,
    0x4DBDD1F84C952474,
    0x99A4AFBA5065319B,
    0x91E6A68ABF21B06C,
    0x5DD85E8854BA05A8,
    0xD2C54AD4B5AB5596,
    0x0DA48614255EFD1C,
    0x561596E941488BE4,
    0x2C0680DEEF9B323A,
    0x6F5281A05E2B1029,
    0xE2427168478206B6,
    0x51FDB77B3D63D79B,
    0x478A721F8A578674,
    0xF8555F51B69C2BD6,
    0xFC16C1656B5A8D94,
    0xA4953763A1CA8BDB,
    0xEE1D5919AB69E659,
    0xD2C0AE014EFD94B5,
    0x6E8D4C7885D211BE,
    0xCADC090A382F4D80,
    0x4BC9AAB639523A5F,
    0x46AB32996EB30E4E,
    0x5524C1203A45EA47,
    0xDFA2892247348902,
    0xFA8583A3BA42C33F,
    0xB1A34158E38B4816,
    0x7D8A41DC52C78F28,
    0xF679B5464B2DC370,
    0x4D66D748A28498C2,
    0xDF94F04DDD49EBA6,
    0x138A7FF62D076420,
    0x77AEEC056ED754CF,
    0x092D475DE6BD26D3,
    0x49FD5F1449A8C8CE,
    0xB6C8CAD7164EEA38,
    0x8F4C517D03884573,
    0xE837F47E618F4D4C,
    0x971961DEDAD14888,
    0xB116EF2E01AB9E87,
    0xEE3A7DABD9C0B96F,
    0xE553C3AD5A592465,
    0x6241E9F9A2942A12,
    0xBEC5585F16C1E5DD,
    0xCD2C198CDBF6E896,
    0x3DE0A30BB480F580,
    0xC2D439151FBFA2ED,
    0xD7678783B60E7103,
    0xF9E4FDF1C129E06C,
    0x774932999F74A718,
    0x9BAA0DF7D05797CB,
    0x011841003BD19E97,
    0x8D67B993A4EA5CED,
    0x6F2C285694B1C081,
    0x1B73BC297920FFE3,
    0x737D62B3FFD83700,
    0x2C6709852BDFE558,
    0xF7C873556B1892FA,
    0x996D82326DEC7BDC,
    0x4D56F6747DFA2606,
    0xD99D05CA6D32C775,
    0x6D4CB4A2B6395FAE,
    0x6353E72440089B7A,
    0x08329BAA6FE61220,
    0xFD9E259E7518C8F2,
    0x78527D02757285D7,
    0x81EA3F549E997862,
    0xDF293E19EE5EA210,
    0x10B885B446445B99,
    0x30E049C9A1BD0289,
    0x7B0C9605D093D9C0,
    0x9A1088789D6BF625,
    0x5933B29DCA94C80F,
    0x7578CCE9C5B763E7,
    0x151A8F18F480F10B,
    0x7E81DE5FEEE52A6F,
    0x6B80E91AB8C3B929,
    0xD733FFB4C3E3785E,
    0xF3095E7EF4B948BA,
    0x6AD50903624423C8,
    0xC45592E5737C28C8,
    0x8A2221E9F78EC08F,
    0x265E1A58EE6E822E,
    0xAB46C2428E95A8FE,
    0xBA2FAF817E7E0088,
    0xEF819FE7E6833F59,
    0x95810701F9BAC23C,
    0xB838B73523C3C72A,
    0xB16BB81D87B58CC9,
    0x7DA9B2D4837A9281,
    0x0D08089AC98BFD17,
    0x922000001C02B1E6,
    0x354CFD84BFDFBDD0,
    0xCE5D4D606B2E7980,
    0x569F8FAF62B5D06C,
    0xA4F8F9ECFB8E854D,
    0xA6734F4AF99AA00A,
    0x2E72A221D92AAE71,
    0x49844EC1F400386B,
    0xECF0E71ED01EF861,
    0x81D024639E2C05C6,
    0xA8D19A1F4EAA6688,
    0xC27D5142C646EF16,
    0x9DB10ABB39E567B2,
    0x0F1BA45FEC91E009,
    0x51AA9412BB7E11F2,
    0x01551A5FAC89CF63,
    0x6C99BD790D573280,
    0x337661F2BC257931,
    0xA9B34B3B7CD7338C,
    0x8819D8B5DCC68A4E,
    0x1C124B719EBF4C2C,
    0x049D83C40B0F1476,
    0xD6192F96A300041C,
    0xA30A54FCC2600313,
    0x5B3FA6EAB6383435,
    0xCCDF9CE8AB1B9437,
    0x5A7C52EAEECB74EF,
    0xF1CE35DE1FE1B39C,
    0xA4E56B72A20125FB,
    0x68046AFD7EBC0140,
    0x71BBC13A1EDF9491,
    0x4EB95E916534E8EA,
    0x293B07D59E84FC77,
    0xEFB12D0A3CCB8E53,
    0x604538CFFAB89097,
    0xF8F4E74CECA29146,
    0xC9E03A8812FE9E77,
    0x6032F10A4CBC221F,
    0x31EF75EA026FE2C0,
    0x5A915589AEA890CA,
    0x6C2EB3FBE1523BAE,
    0x86C51235C8885831,
    0x6FA969647F37D2B2,
    0x696F5E561A547A27,
    0x8F6AFD3CC6E37D9C,
    0x0843EA32496216C6,
    0x51A015C140F947E3,
    0x1B77785E7BB19C8B,
    0x321828F3FB4FF5FF,
    0xA66B2E54D19D1AA4,
    0x89A2D8F79BAA2564,
    0x825F07AD88C82B3A,
    0x8081DCFB2A2274C7,
    0x3FB809E66FC311B6,
    0x744B09717B72B31A,
    0x5A6C975502268A09,
    0x54A033C8347424FC,
    0x189121E77C9533BD,
    0xB2C8FAE0641D4420,
    0x9DCE969C39683B83,
    0x1538F479946062EA,
    0x14A1E3736DA6FA85,
    0x930869EC6D026B59,
    0xDA906953767B7366,
    0x67AC520ADE486A2E,
    0x405DE04C1F14863F,
    0x2CA78ECE391CEFDF,
    0xBB7C09BDC64D6488,
    0xB9F375D698CD3B24,
    0xC2AD66EE903E9A99,
    0xC4795EE59DBB9EDD,
    0x82D6FD5B3B20D3E3,
    0xF932AE07435D9AD1,
    0x802D42A42D8B06BC,
    0x28CB6E78D345A4C0,
    0x9EC411EED6DB0FCF,
    0x5C94E41B600A1211,
    0xE6AB47EF915B077C,
    0x71F2FEFE67D4CFC8,
    0x9C7D971DB9A6BCAC,
    0x0D15376FAC286C55,
    0x41C3BBB272C9E2DD,
    0x153E70E0D3692317,
    0x244FA227CD29BC23,
    0x251775DFF592B83F,
    0xE2C3ACAC2A667DE8,
    0xCDE797FFFD12E67D,
    0x9C7DB659D1D8DD54,
    0x0E30C06A4143A715,
    0x993F13A011456446,
    0xE5E50035D6F98C6B,
    0x1C3DE99CE662CA7B,
    0x59F4C9D4BDFB03A5,
    0xF879EDF76C8A33A8,
    0x37D93FBD0B347971,
    0xAD84604C8F706F2D,
    0x29F1D20880F36810,
    0xB3089D94C39AD088,
    0x992C4990D022910B,
    0x63A05DC96EE3C8A1,
    0x3876EF82910284FA,
    0xDFDBE6F420552133,
    0x692C31130D2BC372,
    0x8F09912B1FFA349F,
    0xEE1E4C44B1C14CA0,
    0xE186B2DD084311B7,
    0xA53ABB690061232D,
    0x7B0CCDAA453C4028,
    0x9D56B532B73253F0,
    0xB571D9D5E947111C,
    0x3944EA1E92C0C5BD,
    0x82DB1ADC67D4B9A6,
    0xA6092CC70334F011,
    0x417007998B7764B9,
    0x0CEB5C8D97CB89F6,
    0x0341B84D8ABF120A,
    0xBDA2094C1C9E3FE5,
    0x957B15E7BB2AE91B,
    0xC637CF05C7EF9D23,
    0x855AC4271ED1A275,
    0x120550527F9FF1F0,
    0x7F0DC691244FFCA9,
    0x01AE0CDA902191F1,
    0x843A0C14C2A94A51,
    0x46284FC12470428E,
    0x238AAD98D70CD43F,
    0x3EE4AAB3D2D15557,
    0x4CAD23249688236C,
    0x2BB8A8B5D5FEA2C5,
    0x1710069EC29EBFA3,
    0x973FB8F560F57EB7,
    0x8D93902CC80BE3B9,
    0xA11AC1AA76B8BC25,
    0xE147621F4683D52E,
    0x790A0B9B0CAD1D51,
    0x5C7D1EE6778FE1F6,
    0xBB5518350342C614,
    0x3B3EFC1EE2077B87,
    0x1E4D8C5149022236,
    0x477EC4CEDE7E4D6C,
    0xD3110C6D4FDA15B8,
    0x725678470AE88008,
    0x19CB57BBF99F97FF,
    0x619A3A3201243D3B,
    0x0101F4646D658FC3,
    0x5CD01192545CCBF4,
    0xD5E052AE426120A0,
    0x58AA38C508B90C17,
    0xC60A5B49EE6DBE51,
    0x81F2DCE17D900442,
    0xA83FB90F674505D3,
    0xAAAEEEFF3998FE8D,
    0x4C76330DBE82D109,
    0xF2267537276458A4,
    0x6BC0DCB6DFB39737,
    0xF7CFDE490A9BF347,
    0x1D0D4C30D334A680,
    0x7E97E14B0E742F1A,
    0xF9589AB85188C098,
    0x8CDEC9B2EF6F937A,
    0xAC678FBBE03C5ECC,
    0x3B7229DEA5067F34,
    0x81439D93D6EB9AD3,
    0xA3B4E1460EEF9D83,
    0x93D3B63E8182486E,
    0xE1EC2FD6E2DD54CB,
    0xC8C995BB7EA706A3,
    0x0D3249B7D6BF1132,
    0xFFFA527941BD745B,
    0x6887B5685874B1EC,
    0x9C26D293A06B4EB5,
    0x0552B7F4024A73AF,
    0x16ADA172C48F8806,
    0x60D48F841DD8504B,
    0xEBD11284D04BDCCC,
    0xA6A76D0898F86D8B,
    0x44CBB7D3D2E8FD31,
    0x7D59384B872BE879,
    0xA2D96174257E87E8,
    0x7429F12B5389433A,
    0x3BFE4421DE87C1C0,
    0x452929ED35547408,
    0xA8AA98416CB78ACA,
    0x78AF6D97982D10EB,
    0xE16095CE7AC16639,
    0x198C81310C243D04,
    0x45015926AA3D31E4,
    0x64DFD7CE718054E3,
    0xDEA87A4BFB16DC55,
    0x6A6A4B2DAA810E00,
    0xC1959452539B64FF,
    0xF97DEF210AF0E272,
    0x0D8DF33D47EC1F08,
    0xC3A92875DB86F41F,
    0x0699ED10B9A24C78,
    0x9A82D1935022C948,
    0x34EE95D22752D749,
    0x5FDE1FB92D523CBA,
    0xFED5FDF1008E5998,
    0xE1155B2CD0C1242F,
    0x48EB80ABB546993F,
    0x3994431CE2B9FAD3,
    0xA2CB1AE6CC686723,
    0x92E50F10AB9F619E,
    0x53B75AA0F5393152,
    0xA1A95A72EE35E5C0,
    0xAB400F374EFBB83B,
    0x5AC6A62C307A4E35,
    0x0D6554889515685E,
    0x47AAA7E35D7B1A00,
    0xD31DA81EC2B7ED34,
    0x43B1A45A143B4D31,
    0x085C2E75B1C89A52,
    0xC5A6E9A4E2426128,
    0x6B0F828B010F6816,
    0xBB4B1267DFA79B98,
    0xA5ABF2345A197D59,
    0xE3534103D9EAF6ED,
    0x65CCCB686AF3AAED,
    0x72CDFE0CA0549B19,
    0x89474D64CE4AE52D,
    0xC88331198789C987,
    0xDE16BCD5F534A792,
    0x6D7F742D7B064C27,
    0x852E1304FA460E36,
    0x12612928211F3EA0,
    0x269F859CA52FE2FD,
    0xF024159CF8033ABD,
    0xFA3F8FD3D82EC1F6,
    0xEB8120B69586BACA,
    0xF3BFF0686D439CA4,
    0xF514C538328757D3,
    0xAA7E84BDB7D53B2A,
    0x8E883521F78C5C32,
    0x3DBCA8659F6CA215,
    0x15D56C4B690E1B1E,
    0xDA8EAA0AAF129DD6,
    0x1211AABDF449F46C,
    0x33C664EF41CF55BD,
    0x6D93A7A2FC5CF693,
    0x0F6BE89EA1E36052,
    0x282A228555CE7E38,
    0xC271E6DB2923692E,
    0xC227A0A9F214CBAA,
    0x6BA9526B8A2FBC0B,
    0x763676C441DEB446,
    0xB4373485B1FEEDFB,
    0x7FC8014BCA3E3401,
    0x8A0C78373A755440,
    0x952A774C38A92602,
    0x8011D85F1E153F4F,
    0x3AD81FD263470BCD,
    0x986466044AEF5E32,
    0x4F2C4C9B5E0B2E2C,
    0x3DCFE37DBA1D2365,
    0x357F03BE3D33543C,
    0xDB6FFF261CF397F7,
    0x8E4ECAD4F4F425E0,
    0x92D4276FF0089D30,
    0x103A0F9DC807401D,
    0x37354D7B19B5D8A2,
    0xF80AB803B46034B0,
    0xDFD5C8A7613E0F19,
    0x32EE34193DBD3AC2,
    0xD41A0AFBC2078359,
    0xDDD614C3B4419A58,
    0xA30066479E90F298,
    0x5FFD564A66FDB7D0,
    0x6DA69C0D4DFBD6C2,
    0xE0AC70A448AF3A44,
    0x0820048EC3F5073F,
    0x3FECC7E2565BB5A4,
    0x5831CC9635D47050,
];
