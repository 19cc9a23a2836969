//! Differential safety net for the fleet epoch driver.
//!
//! A seeded generator draws small fleet runs over a tiny system — colocated
//! fleets of 1–6 groups and prefill/decode splits of 1–3 × 1–3 groups —
//! crossed with fault schedules (none, chaos with pool-link degrades, a
//! permanent crash, stragglers), every recovery mode, admission shedding,
//! KV accounting and spill modes, scheduling policies, routers, pool
//! durability, prefill chunking and epoch widths. Each case asserts:
//!
//! 1. thread invariance (1 worker vs 2 or 8);
//! 2. extended conservation, `completed + rejected + dropped + shed ==
//!    offered`;
//! 3. exactly-once completion (no request id completes twice, and nothing
//!    completed is also dropped or shed);
//! 4. a committed FNV-1a digest of the `Debug` rendering of the fleet
//!    report, routing vector, fault log, disaggregation log and per-group
//!    outcomes — so any change to what the driver simulates fails here.
//!
//! After an intentional change to simulated behaviour, print the new
//! digest table with
//! `CENT_PRINT_FLEET_DIGESTS=1 cargo test --test fleet_driver_equivalence -- --nocapture`.

use std::fmt::Write as _;

use cent_cluster::{
    simulate_fleet_disagg, simulate_fleet_instrumented, AdmissionPolicy, ChaosRates, DisaggConfig,
    DisaggLog, DisaggOutcome, FaultPlan, FaultSchedule, FaultSpec, FleetOptions, GroupRole,
    JoinShortestQueue, PowerOfTwoChoices, RecoveryMode, RetryPolicy, RoundRobin, RoutingPolicy,
    SessionAffinity,
};
use cent_cost::KvSwapCost;
use cent_cxl::FabricConfig;
use cent_model::ModelConfig;
use cent_serving::{
    DeadlineAware, Fifo, KvBudget, KvMode, KvSpillConfig, KvSpillMode, LengthSampler,
    PriorityClass, RequestSpec, SchedulerConfig, ServeOptions, ServingSystem,
    ShortestRemainingDecode, Workload,
};
use cent_types::{ByteSize, Rng64, Time};

/// Cases drawn by the generator.
const CASES: usize = 240;

/// One pipeline group with a deliberately small KV budget, so
/// token-granular accounting preempts and spill modes engage.
fn tiny_system() -> ServingSystem {
    ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas: 1,
            slots_per_replica: 4,
            kv_budget: KvBudget::tokens(600),
            kv: KvMode::FullReservation,
        },
        Time::from_us(1000),
        1000.0,
        4000.0,
    )
}

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

/// Router kinds, rebuilt per run so every run starts from the same state.
#[derive(Debug, Clone, Copy)]
enum RouterKind {
    Jsq,
    PowerOfTwo(u64),
    RoundRobin,
    Affinity,
}

impl RouterKind {
    fn build(self) -> Box<dyn RoutingPolicy> {
        match self {
            RouterKind::Jsq => Box::new(JoinShortestQueue),
            RouterKind::PowerOfTwo(seed) => Box::new(PowerOfTwoChoices::seeded(seed)),
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::Affinity => Box::new(SessionAffinity),
        }
    }
}

/// One drawn case: the fleet shape, its options and its trace.
struct Case {
    disagg: DisaggConfig,
    options: FleetOptions,
    router: RouterKind,
    trace: Vec<RequestSpec>,
    qps: f64,
}

fn draw_case(index: usize) -> Case {
    let mut rng = Rng64::seed(0xF1EE_7D12_u64 ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let split = rng.next_below(2) == 1;
    let handoff =
        KvSwapCost::cent(ByteSize::bytes(512)).with_switch_hops(2, &FabricConfig::cent(32));
    let mut disagg = if split {
        let prefill = 1 + rng.next_below(3) as usize;
        let decode = 1 + rng.next_below(3) as usize;
        let pool_tokens = pick(&mut rng, &[400u64, 4_000]);
        let mut cfg = DisaggConfig::split(prefill, decode, pool_tokens, handoff);
        if rng.next_below(2) == 1 {
            cfg = cfg.with_prefill_chunk(pick(&mut rng, &[16u64, 64]));
        }
        if rng.next_below(3) == 0 {
            cfg = cfg.with_volatile_pool();
        }
        cfg
    } else {
        DisaggConfig::colocated(1 + rng.next_below(6) as usize)
    };
    let groups = disagg.roles.len();
    // The smallest tier bounds the standby reserve.
    let tier_min = if split {
        let prefill = disagg.roles.iter().filter(|r| **r == GroupRole::Prefill).count();
        prefill.min(groups - prefill)
    } else {
        groups
    };

    let horizon = Time::from_secs_f64(2.5);
    let qps = 8.0 * groups as f64;
    let workload = Workload {
        lengths: LengthSampler::Uniform {
            prompt_min: 8,
            prompt_max: 200,
            decode_min: 1,
            decode_max: 80,
        },
        ..Workload::chatbot(qps, rng.next_u64())
    };
    let mut trace = workload.generate(horizon, 4096);
    for spec in trace.iter_mut() {
        if rng.next_below(3) == 0 {
            spec.class = PriorityClass::BATCH;
        }
        // A few footprints no replica budget can ever hold: rejected.
        if rng.next_below(40) == 0 {
            spec.prompt = 700;
        }
    }
    let router = match rng.next_below(4) {
        0 => RouterKind::Jsq,
        1 => RouterKind::PowerOfTwo(rng.next_u64()),
        2 => RouterKind::RoundRobin,
        _ => {
            Workload::assign_sessions(&mut trace, 1 + rng.next_below(12), rng.next_u64());
            RouterKind::Affinity
        }
    };

    let faults = match rng.next_below(4) {
        0 => FaultSchedule::empty(),
        1 => {
            let rates = ChaosRates {
                crash_rate: 0.4,
                mean_outage_s: 0.5,
                degrade_rate: 1.0,
                mean_degrade_s: 0.3,
                straggler_probability: 0.25,
                straggler_slowdown: 2.0,
                pool_degrade_rate: 1.5,
                mean_pool_degrade_s: 0.3,
                pool_degrade_factor: 0.2,
                prefill_crash_mult: pick(&mut rng, &[0.5, 1.0, 2.0]),
                decode_crash_mult: pick(&mut rng, &[0.5, 1.0, 2.0]),
                ..ChaosRates::default()
            };
            if split {
                FaultPlan::chaos_disagg(rng.next_u64(), &disagg.roles, horizon, &rates)
            } else {
                // Pool-link windows ride along: the colocated fleet has no
                // pool, so they must change nothing it simulates.
                let mut specs =
                    FaultPlan::chaos(rng.next_u64(), groups, horizon, &rates).specs().to_vec();
                specs.push(FaultSpec::PoolLinkDegrade {
                    at: Time::from_secs_f64(0.4),
                    duration: Time::from_secs_f64(0.5),
                    bandwidth_factor: 0.3,
                });
                FaultSchedule::new(specs)
            }
        }
        2 => {
            let mut specs = vec![FaultSpec::GroupCrash {
                group: rng.next_below(groups as u64) as usize,
                at: Time::from_secs_f64(rng.uniform(0.2, 1.5)),
                recover_after: None,
            }];
            if rng.next_below(2) == 1 {
                specs.push(FaultSpec::GroupCrash {
                    group: rng.next_below(groups as u64) as usize,
                    at: Time::from_secs_f64(rng.uniform(0.1, 1.0)),
                    recover_after: Some(Time::from_secs_f64(rng.uniform(0.2, 0.8))),
                });
            }
            FaultSchedule::new(specs)
        }
        _ => FaultSchedule::new(
            (0..1 + rng.next_below(2))
                .map(|_| FaultSpec::Straggler {
                    group: rng.next_below(groups as u64) as usize,
                    slowdown: rng.uniform(1.5, 3.0),
                })
                .collect(),
        ),
    };

    let recovery = match rng.next_below(3) {
        0 => RecoveryMode::Cold,
        1 => RecoveryMode::Warm { retained_fraction: pick(&mut rng, &[0.0, 0.5, 1.0]) },
        _ if tier_min > 1 => {
            RecoveryMode::Standby { spares: 1 + rng.next_below(tier_min as u64 - 1) as usize }
        }
        _ => RecoveryMode::Cold,
    };
    let admission = if rng.next_below(3) == 0 {
        AdmissionPolicy::shed_above(pick(&mut rng, &[1.0, 2.0]))
            .with_class(PriorityClass::BATCH, 0.5)
    } else {
        AdmissionPolicy::admit_all()
    };
    let system = tiny_system();
    let spill_mode = pick(&mut rng, &KvSpillMode::ALL);
    let mut serve = if rng.next_below(2) == 1 {
        ServeOptions::token_granular()
    } else {
        ServeOptions::default()
    };
    serve =
        serve.with_spill(KvSpillConfig::cost_driven(300, system.swap_cost()).with_mode(spill_mode));
    serve = match rng.next_below(3) {
        0 => serve.with_policy(Box::new(Fifo)),
        1 => serve.with_policy(Box::new(ShortestRemainingDecode)),
        _ => {
            let slo = Time::from_secs_f64(0.5);
            serve.with_policy(Box::new(DeadlineAware { slo })).with_slo(slo)
        }
    };
    let options = FleetOptions::new(groups)
        .with_threads(pick(&mut rng, &[2usize, 8]))
        .with_epoch(Time::from_secs_f64(pick(&mut rng, &[0.01, 0.05, 0.2])))
        .with_serve(serve)
        .with_faults(faults)
        .with_retry(RetryPolicy {
            max_attempts: 1 + rng.next_below(4) as u32,
            backoff: Time::from_secs_f64(pick(&mut rng, &[0.0, 0.05])),
        })
        .with_recovery(recovery)
        .with_admission(admission);
    // The colocated config carries pool knobs it must ignore.
    if !split && rng.next_below(2) == 1 {
        disagg.prefill_chunk = Some(32);
    }
    Case { disagg, options, router, trace, qps }
}

/// Runs `case` on `threads` workers. Colocated cases alternate between
/// the two public entry points, which must agree.
fn run(case: &Case, threads: usize, via_disagg: bool) -> DisaggOutcome {
    let options = case.options.clone().with_threads(threads);
    let mut router = case.router.build();
    let system = tiny_system();
    if case.disagg.is_colocated() && !via_disagg {
        let out =
            simulate_fleet_instrumented(&system, &case.trace, case.qps, router.as_mut(), &options);
        DisaggOutcome {
            report: out.report,
            groups: out.groups,
            routed: out.routed,
            log: DisaggLog::default(),
            faults: out.faults,
        }
    } else {
        simulate_fleet_disagg(
            &system,
            &case.trace,
            case.qps,
            router.as_mut(),
            &options,
            &case.disagg,
        )
    }
}

fn digest(out: &DisaggOutcome) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    write!(h, "{:?}|{:?}|{:?}|{:?}", out.report, out.routed, out.faults, out.log)
        .expect("hashing never fails");
    for g in &out.groups {
        write!(h, "|{:?}|{:?}|{:?}", g.report, g.stats, g.records).expect("hashing never fails");
    }
    h.0
}

fn check_accounting(index: usize, case: &Case, out: &DisaggOutcome) {
    let offered = case.trace.len();
    assert_eq!(
        out.report.completed
            + out.report.rejected
            + out.faults.dropped.len()
            + out.faults.shed.len(),
        offered,
        "case {index}: conservation"
    );
    // A request completes where it finishes its last token: any group of
    // a colocated fleet, the decode tier of a split one (plus one-token
    // requests, which finish on their prefill group).
    let mut completed: Vec<u64> = Vec::new();
    for (g, outcome) in out.groups.iter().enumerate() {
        for r in &outcome.records {
            let last_phase = match case.disagg.roles[g] {
                GroupRole::Prefill => case.trace.iter().any(|s| s.id == r.spec.id && s.decode <= 1),
                GroupRole::Colocated | GroupRole::Decode => true,
            };
            if last_phase {
                completed.push(r.spec.id.0);
            }
        }
    }
    completed.sort_unstable();
    let before = completed.len();
    completed.dedup();
    assert_eq!(before, completed.len(), "case {index}: a request completed twice");
    for (id, _) in out.faults.dropped.iter().chain(out.faults.shed.iter()) {
        assert!(
            completed.binary_search(&id.0).is_err(),
            "case {index}: request {} completed and was also dropped or shed",
            id.0
        );
    }
}

#[test]
fn fleet_driver_matches_its_committed_digests() {
    let print = std::env::var_os("CENT_PRINT_FLEET_DIGESTS").is_some();
    let mut table = String::new();
    // How many cases exercised each mechanism: a generator that stops
    // reaching one would leave the digests blind to it.
    let mut seen = [0usize; 12];
    for (index, &expected) in DIGESTS.iter().enumerate() {
        let case = draw_case(index);
        let one = run(&case, 1, index % 2 == 0);
        let many = run(&case, case.options.threads, index % 2 == 1);
        check_accounting(index, &case, &one);
        let (f, l) = (&one.faults, &one.log);
        let fired = [
            f.crashes,
            f.retries,
            f.dropped.len() as u64,
            f.shed.len() as u64,
            f.warm_rejoins,
            f.promotions,
            f.pool_rescued.len() as u64,
            f.pool_lost,
            l.steals,
            l.deferred,
            l.singles,
            one.report.rejected as u64,
        ];
        for (n, &count) in seen.iter_mut().zip(fired.iter()) {
            *n += usize::from(count > 0);
        }
        let d = digest(&one);
        assert_eq!(d, digest(&many), "case {index}: thread count changed the outcome");
        if print {
            writeln!(table, "    0x{d:016X},").expect("writing to a String never fails");
        } else {
            assert_eq!(d, expected, "case {index}: outcome diverged from its committed digest");
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "some mechanism never fired: {seen:?}");
    if print {
        println!("const DIGESTS: [u64; CASES] = [\n{table}];");
    }
}

/// Digests of every case, in case order.
#[rustfmt::skip]
const DIGESTS: [u64; CASES] = [
    0x850E7D60E9AB0CB5,
    0xE183936976519EE7,
    0xDED55434AE1FD5B1,
    0xB6F60FD8BAB37B57,
    0x2E61BB52EB13EC8E,
    0x0A848B811730F219,
    0xFAE1184D023D3EE4,
    0xA13B2B0E907A3567,
    0x82EA8C630CBA2FB4,
    0xB66F4A1C459A0F69,
    0xA235509FDC9426DA,
    0xA454E6EDDD4B67F6,
    0xD5ADD8836C96C773,
    0xAB794256F2895AB1,
    0x7792C5491A67D01E,
    0xAACEF8B394F3DD7F,
    0x59979231662AC54F,
    0xF67AA10B365A813D,
    0x7D1F6D1B31557395,
    0x385CE16200869F73,
    0x83781BE616D1808C,
    0x36B4021BDBFB4B6A,
    0xE198C9454B9F91EE,
    0xD295E5157D52ABE8,
    0x41C0828C0C94D414,
    0xB13C2E96D5B931AC,
    0x7AF7EA309A5FEF20,
    0x69C99A39CF515185,
    0xD99A67C527AA49C2,
    0xF1639B3509CD01A5,
    0xA722D91DA8A7CA3B,
    0xCB2A7042AD55A420,
    0x5992339F8ED19B76,
    0x3E001F5C2EB4F073,
    0xA874E1BD18D91384,
    0xC0E875CD5743176C,
    0x094D62E401123541,
    0x928DA403FCB8E95D,
    0xE861A8C1BB91905E,
    0xBC1B23F2BC717786,
    0x87DC15C27F4375CE,
    0x09AAC6F145BB8E52,
    0xB30BF07EABFBDA72,
    0x1559D9E4F6522A88,
    0xC42CA8B380AF34FC,
    0xEF5BC43C215032A1,
    0xF4275265C35E5068,
    0xFB5A74EA114770C8,
    0x9753E509302D1387,
    0x3D573C7AE6F118F5,
    0xA7CC9D90BC72A038,
    0xB324022B3DE2DE57,
    0xD99C42A20825A362,
    0x70B0BB11B2932097,
    0xEB5DD8C8B1D64E3D,
    0x031A3039F36EB4A9,
    0x10622437B6B54445,
    0x08E97CE83608D1D8,
    0x606240A1BD87A393,
    0xC14FEEBB1F0F18DB,
    0x932BCE9F1C108E7C,
    0xCDDCF969573DD950,
    0x51FB0E7D27339EBD,
    0xFC7B1697CE7055B8,
    0x27C0A36A18C6E4C9,
    0xD87BBCFA037FB483,
    0xDACB729DFD2A9CB6,
    0x1D65D6D038C19E90,
    0x284E80BD41607769,
    0x92899A4C8351C031,
    0xD446B7A70E83DA8A,
    0x2CDBFA12958232E8,
    0x4668A6959E59CCB2,
    0xC2CF36B728B91D32,
    0x8BD120E7046EF45A,
    0x6F4638194DDC38D0,
    0x9018F8795AD50584,
    0xAA549B4FBB4362F7,
    0x7194E68BB018B902,
    0x6F586EE3EF85456C,
    0x6EEF399C75CAE3B0,
    0x94256D13A803BF2C,
    0xD5A8A245BB60C8E5,
    0xE2A293999A27249B,
    0x21BA24E8F361CE77,
    0x4BC941117ABE4922,
    0x25AC96FCC8BB46D0,
    0x75E8B20C087ECDA4,
    0xE0C868D37753E4D1,
    0xD18E331568FF1405,
    0x0ED02DF9032AEC8A,
    0xEFA64BDE30DFDC7D,
    0xEA8D289EBA5E1CBD,
    0x2AF02990D10DC3A7,
    0x1E8ED0BADAAEE8BA,
    0x0BF1D299016A6DF6,
    0x1BCB5DFE7E948D9C,
    0xCD64E5C7E9D8E64B,
    0x351E4F73C20FE22C,
    0xCA55259626065CCC,
    0x3F7B699431E6859C,
    0xF342EB027099982B,
    0x7D18D209A9AA2A7C,
    0xAF76FFB115269D94,
    0x1AC8ECD9459559F3,
    0x71A32B6AB4203625,
    0xD4EB3D236A97AFC5,
    0x2B187EF50A221166,
    0xF8F7E87F486F3325,
    0x76BFB9402E101BE7,
    0x6C2400EA1475259B,
    0x1D65BEFD4DC6DBF6,
    0x3C8968E8A471FF20,
    0x7A31F3B9901CBE80,
    0x8EDB44E4CF37AD72,
    0x7125182ED0247D28,
    0x4D0EA5A835C0CD14,
    0xF730C9CA2950B68E,
    0x451FC803ED85227A,
    0x036C241DD57A59F4,
    0x6773115D163BF6E3,
    0xAA41AFBCF8E73B20,
    0xC58B87AFCB3C8B8F,
    0xCBA9C0262B97B9F4,
    0xD7FF4B93AE8E571D,
    0x557F22E189EE31F3,
    0xEC06C42A4BB091A4,
    0xBDE83FDCACCB8AE9,
    0x5D85F7F50FB99CDD,
    0x7A8437AEF4517EA3,
    0x3A97A5EABBDA00BF,
    0x5D5BDB96BE32A902,
    0x559D49A966E57991,
    0xDC508E75B66203E6,
    0x35B585D6B563AB8F,
    0xCD1E33D26225F132,
    0x5231956319CB0896,
    0xB07DE47FB25FF42F,
    0x1F4CBB7D8CC5AF0A,
    0x15016F2A9206FA14,
    0x4C82C7D8BF4E69D5,
    0x43BD1B2A7B44C5C3,
    0x6C6121785D423E55,
    0xC7AEC8D41DC90B1D,
    0xCF6D0B745279F8FC,
    0x99E854FBFAA7CD72,
    0x456316CD0FABE64C,
    0x4951DD5426CA8310,
    0x5AE9B4038860E98A,
    0x1FA7DF97E7D7A227,
    0x7C4FEED9D8F82D09,
    0x1590A0375906856C,
    0x4C1C17BAD5D0476D,
    0xE5B5DBC7F171B494,
    0xF24AC034049E0494,
    0x5782E0C1BEB6B48D,
    0xEC159D30F83CCF99,
    0x98D549BA727B53D8,
    0x36F038D0A5610019,
    0x0ACDA11DB50CA0B0,
    0x7DCA986D24898C1A,
    0x5747C52ECA49EBF9,
    0x7E0D69168F23825F,
    0xC5BF3FE2DF1DBB5B,
    0x679A63BB94D744D8,
    0xD7ADB649EFDEAE9C,
    0x0B0E416B457DD934,
    0xAE88BEABB25D0A77,
    0x084766998C9163D0,
    0x70965B28CF6A899C,
    0x8BD27218591DCC54,
    0x5AE3493F61A5689A,
    0xC09F3D68658A0A03,
    0x0D0AFAAEB7227D16,
    0x5939A636889A5A9B,
    0x1DFFEBABAF8D426B,
    0x9E64907304C61779,
    0x415FB41B7CB3D759,
    0xFB7C0CD9E6C6EEB5,
    0xA5CFFC91540160DC,
    0xCEBC5D69113390E2,
    0x7ED46D1E3CD9BB8E,
    0x7F99693D47525F89,
    0xB7695F2A252AA58D,
    0xB4A15FC246F97D2B,
    0xD6660CBFE42B5539,
    0x5014C544B30BFA42,
    0xCD01559D6C3C66B7,
    0xD75B8709879E9D3F,
    0x47EAFE30BE3EC208,
    0xB196A5AE9D58D66D,
    0x272E911E0C4DBBD1,
    0xDB2348721EC00294,
    0xC22D67BFC9001B6A,
    0x351815637EE833D7,
    0x55F2A2E1999D6685,
    0x20382F71F3274349,
    0x04CF7F429291CB83,
    0x627B49F450E3DC7F,
    0x08A1661B4EA6C981,
    0xAB6E3B78091535E7,
    0xC5F2E44762E0EC4B,
    0x0F3B8C1A3196A1CE,
    0x5252B2619A92B1F2,
    0xDF2E9F4DF35FAD72,
    0x4380D80E9EB397F8,
    0x8E1DA97191E66B27,
    0x148276703C0B5D92,
    0x6A5BBBEA09E2EEAA,
    0x382E652812058C19,
    0x9D770CB742B83E0A,
    0xED65D686791AD56D,
    0xFC1ABF4100EEA60F,
    0xDD96FDFB7DB70403,
    0x5C956E2376071445,
    0xB6F3D54BE0E07CC6,
    0x18C67497CD5CD943,
    0xD8EC846D6F945382,
    0xF4FDFA2AAA1C5A34,
    0xDBC155DB9E3F8647,
    0x2DFBEC355081AD34,
    0xEEF684AE095F5D75,
    0x501FAB97E3181B24,
    0x265DD88F2C1F46F7,
    0x0847F6DB2E334D29,
    0xAC91816B3BCCCE07,
    0x17E41C14894D8284,
    0x7C935F24DCF52EA2,
    0x8DCD97EF7AB6C7D5,
    0xB08099EA5ABF5435,
    0x11A3A9FCCEE32AF9,
    0xAB6E6D4F01D7CA46,
    0x9C7D7E5A03B95D79,
    0x13908EFF68A3A906,
    0x365490B8CC007B44,
    0xAF0CAE23F64A1FF3,
    0xEB1BEEBF883B02B6,
    0x887E605791D3F5E7,
    0xE7D695B49040857D,
    0x4C8FC6DAF47CF964,
];
