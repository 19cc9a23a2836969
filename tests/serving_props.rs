//! Property-style tests for the serving simulator's refactor invariants.
//!
//! The build environment has no external crates, so instead of `proptest`
//! these run each property over seeded workloads drawn from the in-tree
//! deterministic PRNG — same invariants, fixed seeds, reproducible
//! failures. The properties guard the KV, tick-engine and swap-tier
//! refactors:
//!
//! 1. the KV budget is never exceeded at any event (the scheduler asserts
//!    it internally on every mutation; the runs here would panic);
//! 2. every admitted request — including evicted-then-resumed ones, whether
//!    recomputed or swapped — completes exactly once;
//! 3. full-reservation mode reproduces a closed-form reference
//!    bit-for-bit on the same seed;
//! 4. both event engines — the retained straight-line per-token loop and
//!    the span-fast-forward engine — produce bit-identical reports across
//!    seeds × KV modes × scheduling policies × spill modes × class mixes
//!    (the randomized net in `serving_engine_equivalence.rs` covers more
//!    shapes);
//! 5. the CXL host pool never exceeds its capacity, device+host accounting
//!    conserves each resident's footprint, `RecomputeOnly` reproduces the
//!    pre-swap reports bit-for-bit, and `CostDriven` dominates the worse
//!    pure mode on the saturated chatbot mix;
//! 6. the span engine pays strictly fewer heap events per generated token
//!    than the per-token reference on the saturated chatbot mix, and
//!    repeated runs are deterministic down to the event-core counters.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cent_cost::KvSwapCost;
use cent_model::ModelConfig;
use cent_serving::{
    ArrivalProcess, ClassMix, DeadlineAware, KvBudget, KvMode, KvSpillConfig, KvSpillMode,
    LatencyStats, LengthSampler, RequestRecord, RequestSpec, SchedulerConfig, ServeOptions,
    ServingSystem, ShortestRemainingDecode, TickEngine, Workload,
};
use cent_types::{ByteSize, Time, TimeHistogram};

/// Serving constants mirroring `ServingSystem::from_parts` inputs.
#[derive(Clone, Copy)]
struct Constants {
    replicas: usize,
    slots: usize,
    budget: u64,
    token_interval: Time,
    prefill_rate: f64,
    steady: f64,
}

const CONSTANTS: Constants = Constants {
    replicas: 2,
    slots: 3,
    budget: 400,
    token_interval: Time(1_000_000_000), // 1 ms in ps
    prefill_rate: 2000.0,
    steady: 6000.0,
};

fn system(c: Constants, kv: KvMode) -> ServingSystem {
    ServingSystem::from_parts(
        &ModelConfig::llama2_7b(),
        SchedulerConfig {
            replicas: c.replicas,
            slots_per_replica: c.slots,
            kv_budget: KvBudget::tokens(c.budget),
            kv,
        },
        c.token_interval,
        c.prefill_rate,
        c.steady,
    )
}

fn workload(seed: u64, rate: f64) -> Workload {
    Workload {
        arrivals: ArrivalProcess::Poisson { rate_qps: rate },
        lengths: LengthSampler::Uniform {
            prompt_min: 5,
            prompt_max: 60,
            decode_min: 2,
            decode_max: 90,
        },
        seed,
        classes: ClassMix::default(),
    }
}

/// A fast-swap cost model: 4 KiB/token over the paper's host link, cheap
/// against the test rigs' 2000 tok/s prefill so SwapOnly and CostDriven
/// actually exercise the swap path.
fn cheap_swap() -> KvSwapCost {
    KvSwapCost::cent(ByteSize::kib(4))
}

/// The serving loop reimplemented in closed form: full reservation, FIFO
/// head-of-line admission, per-request `Finish` events, per-replica serial
/// prefill, and one deterministic service timeline per admission. The
/// timeline matches the event engines' block-step model: the first token
/// emerges at the first step-grid boundary after prefill completes, and
/// every later token one `token_interval` apart.
struct Reference {
    records: Vec<RequestRecord>,
    rejected: usize,
    peak_kv: u64,
    peak_queue_depth: usize,
    busy_slot_ps: u128,
    kv_reserved_ps: u128,
    last_t: Time,
}

fn reference_full_reservation(c: Constants, trace: &[RequestSpec]) -> Reference {
    #[derive(Clone, Copy)]
    enum Ev {
        Arrive(RequestSpec),
        Finish(RequestRecord),
    }
    struct Entry {
        at: Time,
        seq: u64,
        ev: Ev,
    }
    impl PartialEq for Entry {
        fn eq(&self, o: &Self) -> bool {
            (self.at, self.seq) == (o.at, o.seq)
        }
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(o.at, o.seq))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    let mut events: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
    for (i, spec) in trace.iter().enumerate() {
        events.push(Reverse(Entry { at: spec.arrival, seq: i as u64, ev: Ev::Arrive(*spec) }));
    }
    let mut seq = trace.len() as u64;

    let mut queue: Vec<RequestSpec> = Vec::new();
    let mut busy = vec![0usize; c.replicas];
    let mut kv = vec![0u64; c.replicas];
    let mut prefill_free = vec![Time::ZERO; c.replicas];
    let mut r = Reference {
        records: Vec::new(),
        rejected: 0,
        peak_kv: 0,
        peak_queue_depth: 0,
        busy_slot_ps: 0,
        kv_reserved_ps: 0,
        last_t: Time::ZERO,
    };

    while let Some(&Reverse(Entry { at: t, .. })) = events.peek() {
        let dt = u128::from(t.saturating_sub(r.last_t).as_ps());
        r.busy_slot_ps += busy.iter().sum::<usize>() as u128 * dt;
        r.kv_reserved_ps += u128::from(kv.iter().sum::<u64>()) * dt;
        r.last_t = t;
        while matches!(events.peek(), Some(Reverse(e)) if e.at == t) {
            let Reverse(entry) = events.pop().expect("peeked");
            match entry.ev {
                Ev::Arrive(spec) => {
                    if spec.kv_tokens() > c.budget {
                        r.rejected += 1;
                    } else {
                        queue.push(spec);
                        r.peak_queue_depth = r.peak_queue_depth.max(queue.len());
                    }
                }
                Ev::Finish(rec) => {
                    busy[rec.replica] -= 1;
                    kv[rec.replica] -= rec.spec.kv_tokens();
                    r.records.push(rec);
                }
            }
        }
        // FIFO head-of-line admission with (busy, kv, index) tie-breaking.
        while let Some(head) = queue.first().copied() {
            let need = head.kv_tokens();
            let slot = (0..c.replicas)
                .filter(|&i| busy[i] < c.slots && kv[i] + need <= c.budget)
                .min_by_key(|&i| (busy[i], kv[i], i));
            let Some(idx) = slot else { break };
            queue.remove(0);
            busy[idx] += 1;
            kv[idx] += need;
            r.peak_kv = r.peak_kv.max(kv[idx]);
            // Closed-form service timeline.
            let prefill = Time::from_secs_f64(head.prompt as f64 / c.prefill_rate);
            let start = t.max(prefill_free[idx]);
            let prefill_done = start + prefill;
            prefill_free[idx] = prefill_done;
            // First token at the end of the block step in progress when
            // prefill completes (the step grid is anchored at time zero).
            let step = c.token_interval.as_ps();
            let first_token = Time::from_ps((prefill_done.as_ps() / step + 1) * step);
            let rest = (head.decode as u64).saturating_sub(1);
            let finished = first_token + Time::from_ps(c.token_interval.as_ps() * rest);
            events.push(Reverse(Entry {
                at: finished,
                seq,
                ev: Ev::Finish(RequestRecord {
                    spec: head,
                    admitted: t,
                    first_token,
                    finished,
                    replica: idx,
                    preemptions: 0,
                }),
            }));
            seq += 1;
        }
    }
    r.records.sort_by_key(|rec| rec.spec.id);
    r
}

#[test]
fn full_reservation_matches_closed_form_reference_bit_for_bit() {
    let c = CONSTANTS;
    let sys = system(c, KvMode::FullReservation);
    for seed in [1u64, 7, 42, 0xCE27, 9001] {
        let w = workload(seed, 12.0);
        let trace = w.generate(Time::from_secs_f64(10.0), 4096);
        // Default (span) engine vs the closed form; the per-token loop is
        // held to the same closed form via the engine-equivalence matrix
        // below.
        let report = sys.serve_trace(&trace, 12.0);
        let reference = reference_full_reservation(c, &trace);

        assert_eq!(report.completed, reference.records.len(), "seed {seed}");
        assert_eq!(report.rejected, reference.rejected, "seed {seed}");
        assert_eq!(report.preemptions, 0, "seed {seed}");
        assert_eq!(report.peak_queue_depth, reference.peak_queue_depth, "seed {seed}");

        // Latency populations, bit for bit.
        let ttfts: Vec<Time> = reference.records.iter().map(|r| r.ttft()).collect();
        let lats: Vec<Time> = reference.records.iter().map(|r| r.query_latency()).collect();
        let waits: Vec<Time> = reference.records.iter().map(|r| r.queue_wait()).collect();
        assert_eq!(report.ttft, LatencyStats::from_samples(&ttfts), "seed {seed}");
        assert_eq!(report.query_latency, LatencyStats::from_samples(&lats), "seed {seed}");
        assert_eq!(report.queue_wait, LatencyStats::from_samples(&waits), "seed {seed}");

        // TBT: constant cadence, weighted one sample per generated token
        // after the first.
        let mut tbt = TimeHistogram::new();
        for rec in &reference.records {
            tbt.record_n(c.token_interval, rec.spec.decode.saturating_sub(1) as u64);
        }
        assert_eq!(report.tbt, LatencyStats::from_histogram(&tbt), "seed {seed}");

        // Throughput and occupancy, bit for bit (integer integrals make
        // these independent of event granularity).
        let first = reference.records.iter().map(|r| r.spec.arrival).min().unwrap();
        let last = reference.records.iter().map(|r| r.finished).max().unwrap();
        let makespan = last.saturating_sub(first);
        assert_eq!(report.makespan, makespan, "seed {seed}");
        let decode_tokens: u64 = reference.records.iter().map(|r| r.spec.decode as u64).sum();
        let expect_tps = decode_tokens as f64 / makespan.as_secs();
        assert_eq!(report.tokens_per_s.to_bits(), expect_tps.to_bits(), "seed {seed}");
        let total_slot_ps = (c.replicas * c.slots) as u128 * u128::from(reference.last_t.as_ps());
        let expect_util = reference.busy_slot_ps as f64 / total_slot_ps as f64;
        assert_eq!(report.slot_utilization.to_bits(), expect_util.to_bits(), "seed {seed}");
        let expect_peak = reference.peak_kv as f64 / c.budget as f64;
        assert_eq!(report.peak_kv_fraction.to_bits(), expect_peak.to_bits(), "seed {seed}");
        let total_kv_ps =
            u128::from(c.budget) * c.replicas as u128 * u128::from(reference.last_t.as_ps());
        let expect_kv_util = reference.kv_reserved_ps as f64 / total_kv_ps as f64;
        assert_eq!(report.kv_utilization.to_bits(), expect_kv_util.to_bits(), "seed {seed}");
    }
}

/// The differential property behind the tick-engine refactors: the
/// retained straight-line per-token loop and the span-fast-forward engine
/// must produce **bit-identical** `ServingReport`s on the same trace, for every KV mode and scheduling
/// policy, including preemption-heavy operating points (the 160/170-token
/// budgets force constant eviction and recompute under token-granular
/// accounting).
#[test]
fn engines_match_bit_for_bit_across_kv_modes_and_policies() {
    let slo = Time::from_secs_f64(0.5);
    type MakeOptions = fn(Time) -> ServeOptions;
    let policies: [(&str, MakeOptions); 3] = [
        ("fifo", |_| ServeOptions::default()),
        ("srd", |_| ServeOptions::default().with_policy(Box::new(ShortestRemainingDecode))),
        ("deadline", |slo| {
            ServeOptions::default().with_policy(Box::new(DeadlineAware { slo })).with_slo(slo)
        }),
    ];
    let mut preemptions_seen = 0u64;
    for seed in [1u64, 21, 0xCE27] {
        for (budget, rate) in [(160u64, 30.0), (170, 40.0), (CONSTANTS.budget, 12.0)] {
            let c = Constants { budget, ..CONSTANTS };
            let sys = system(c, KvMode::FullReservation);
            let w = workload(seed, rate);
            let trace = w.generate(Time::from_secs_f64(6.0), 4096);
            for kv in [KvMode::FullReservation, KvMode::token_granular()] {
                for (name, make) in policies {
                    let options = ServeOptions { kv, ..make(slo) };
                    let reference = sys.serve_trace_with(
                        &trace,
                        rate,
                        options.clone().with_engine(TickEngine::PerTokenReference),
                    );
                    let span = sys.serve_trace_with(
                        &trace,
                        rate,
                        options.clone().with_engine(TickEngine::SpanFastForward),
                    );
                    assert_eq!(
                        reference, span,
                        "span diverged: seed {seed}, budget {budget}, {kv:?}, {name}"
                    );
                    assert_eq!(reference.completed, reference.submitted - reference.rejected);
                    preemptions_seen += reference.preemptions;
                }
            }
        }
    }
    // The matrix must actually exercise the preemption machinery.
    assert!(preemptions_seen > 0, "expected KV pressure under the tight budgets");
}

/// The tentpole differential: across seeds × spill modes × class mixes
/// (with preemption-tight budgets), both engines stay bit-identical —
/// including swap counters, stall totals, host-pool stats and the
/// per-class breakdowns.
#[test]
fn engines_agree_bit_for_bit_across_spill_modes_and_classes() {
    let mixes: [ClassMix; 2] = [ClassMix::default(), ClassMix::two_tier(0.5)];
    let mut swaps_seen = 0u64;
    let mut recomputes_seen = 0u64;
    for seed in [1u64, 21, 0xCE27] {
        for (budget, rate) in [(160u64, 30.0), (170, 40.0)] {
            let c = Constants { budget, ..CONSTANTS };
            let sys = system(c, KvMode::FullReservation);
            for mix in &mixes {
                let w = workload(seed, rate).with_classes(mix.clone());
                let trace = w.generate(Time::from_secs_f64(6.0), 4096);
                for mode in KvSpillMode::ALL {
                    let spill =
                        KvSpillConfig { mode, host_pool_tokens: 1500, swap_cost: cheap_swap() };
                    let options = ServeOptions::token_granular().with_spill(spill);
                    let reference = sys.serve_trace_with(
                        &trace,
                        rate,
                        options.clone().with_engine(TickEngine::PerTokenReference),
                    );
                    let span = sys.serve_trace_with(
                        &trace,
                        rate,
                        options.clone().with_engine(TickEngine::SpanFastForward),
                    );
                    assert_eq!(
                        reference, span,
                        "span diverged: seed {seed}, budget {budget}, {mode:?}, {mix:?}"
                    );
                    assert_eq!(reference.completed, reference.submitted - reference.rejected);
                    assert!(reference.host_kv_peak_tokens <= 1500, "host pool overcommitted");
                    if mode == KvSpillMode::RecomputeOnly {
                        assert_eq!(reference.swaps, 0);
                    }
                    swaps_seen += reference.swaps;
                    recomputes_seen += reference.preemptions;
                }
            }
        }
    }
    // The matrix must actually exercise both victim dispositions.
    assert!(swaps_seen > 0, "expected the swap path under tight budgets");
    assert!(recomputes_seen > 0, "expected the recompute path too");
}

/// Host-pool capacity is a hard bound, and the device+host split conserves
/// each resident's footprint: when a run drains, the pool is empty, every
/// swapped request completed exactly once, and a pool too small for any
/// victim degrades to pure recompute.
#[test]
fn host_pool_bounded_and_swapped_requests_complete_exactly_once() {
    for (seed, pool, rate) in [(3u64, 700u64, 30.0), (11, 150, 40.0), (5, 60, 45.0)] {
        let sys = system(Constants { budget: 170, ..CONSTANTS }, KvMode::FullReservation);
        let w = workload(seed, rate);
        let trace = w.generate(Time::from_secs_f64(6.0), 4096);
        let spill = KvSpillConfig::swap_only(pool, cheap_swap());
        let report =
            sys.serve_trace_with(&trace, rate, ServeOptions::token_granular().with_spill(spill));
        // (1) pool bound held at every instant (the event loop asserts the
        // running occupancy; the peak is reported here).
        assert!(report.host_kv_peak_tokens <= pool, "seed {seed}: pool bound violated");
        assert!(report.host_kv_utilization <= 1.0);
        // (2) conservation: the run drained, so all swapped pages came back
        // (the loop asserts host_used == 0 at drain) and every admitted
        // request — swapped, recomputed or untouched — completed once.
        assert_eq!(report.completed, report.submitted - report.rejected, "seed {seed}");
        let expect_decode: u64 =
            trace.iter().filter(|s| s.kv_tokens() <= 170).map(|s| s.decode as u64).sum();
        assert_eq!(report.decode_tokens, expect_decode, "seed {seed}");
        // (3) evictions split exactly between the two dispositions.
        if pool >= 170 {
            assert!(report.swaps > 0, "seed {seed}: roomy pool must swap");
        }
        if pool < 7 {
            assert_eq!(report.swaps, 0, "seed {seed}: nothing fits a {pool}-token pool");
        }
    }
}

/// The new spill plumbing leaves the legacy path untouched: RecomputeOnly
/// (the default) reproduces the pre-swap behaviour bit-for-bit, regardless
/// of the (never-consulted) pool capacity and cost model, on both engines.
#[test]
fn recompute_only_reproduces_legacy_reports_bit_for_bit() {
    let sys = system(Constants { budget: 170, ..CONSTANTS }, KvMode::FullReservation);
    let w = workload(21, 40.0);
    let trace = w.generate(Time::from_secs_f64(6.0), 4096);
    for engine in TickEngine::ALL {
        let legacy =
            sys.serve_trace_with(&trace, 40.0, ServeOptions::token_granular().with_engine(engine));
        assert!(legacy.preemptions > 0, "operating point must churn");
        assert_eq!(legacy.swaps, 0);
        // Same mode with a huge pool and an extreme cost model: identical
        // behaviour (config echo fields aside).
        let spill = KvSpillConfig {
            mode: KvSpillMode::RecomputeOnly,
            host_pool_tokens: 0,
            swap_cost: KvSwapCost::cent(ByteSize::gib(64)),
        };
        let explicit = sys.serve_trace_with(
            &trace,
            40.0,
            ServeOptions::token_granular().with_spill(spill).with_engine(engine),
        );
        assert_eq!(legacy, explicit, "{engine:?}");
    }
}

/// The acceptance criterion on the saturated chatbot mix: the cost-driven
/// mode picks the cheaper disposition per victim, so it must dominate the
/// *worse* of the two pure modes — at least its goodput, at most its
/// eviction (preemption + swap) stall time.
#[test]
fn cost_driven_dominates_the_worse_pure_mode_on_chatbot() {
    let c = Constants {
        replicas: 1,
        slots: 6,
        budget: 2 * 4096 + 1024,
        token_interval: Time(1_000_000_000),
        prefill_rate: 50_000.0,
        steady: 6000.0,
    };
    let sys = system(c, KvMode::FullReservation);
    let slo = Time::from_secs_f64(2.0 * 3584.0 * 1e-3);
    let w = Workload::chatbot(2.0, 0xCE27);
    let trace = w.generate(Time::from_secs_f64(400.0), 4096);
    let pool = 4 * 4096;
    // Realistic footprint: Llama2-7B KV across all 32 blocks is 256 KiB per
    // token; against a 50k tok/s prefill the comparator is genuinely
    // contested (short contexts recompute, long ones swap).
    let cost = KvSwapCost::cent(ByteSize::kib(256));
    let run = |mode: KvSpillMode| {
        let spill = KvSpillConfig { mode, host_pool_tokens: pool, swap_cost: cost };
        sys.serve_trace_with(
            &trace,
            2.0,
            ServeOptions::token_granular().with_spill(spill).with_slo(slo),
        )
    };
    let recompute = run(KvSpillMode::RecomputeOnly);
    let swap = run(KvSpillMode::SwapOnly);
    let cost_driven = run(KvSpillMode::CostDriven);
    assert!(
        recompute.preemptions > 0 && swap.swaps > 0,
        "operating point must evict under both pure modes \
         ({} recomputes, {} swaps)",
        recompute.preemptions,
        swap.swaps
    );
    let worse_goodput = recompute.goodput_qps.min(swap.goodput_qps);
    let worse_stall = recompute.eviction_stall().max(swap.eviction_stall());
    assert!(
        cost_driven.goodput_qps >= worse_goodput,
        "cost-driven goodput {} < worse pure mode {}",
        cost_driven.goodput_qps,
        worse_goodput
    );
    assert!(
        cost_driven.eviction_stall() <= worse_stall,
        "cost-driven stall {} > worse pure mode {}",
        cost_driven.eviction_stall(),
        worse_stall
    );
}

/// The span engine's perf property on the acceptance shape: on the
/// saturated 512/3584 chatbot mix it must pay strictly fewer heap events
/// per generated token than the per-token reference — under both KV
/// modes, with and without preemption churn — while reporting
/// bit-identically, and repeated runs must be deterministic down to the
/// event-core counters.
#[test]
fn span_engine_beats_reference_heap_traffic_on_saturated_chatbot() {
    let c = Constants {
        replicas: 1,
        slots: 6,
        budget: 2 * 4096 + 1024,
        token_interval: Time(1_000_000_000),
        prefill_rate: 50_000.0,
        steady: 6000.0,
    };
    let sys = system(c, KvMode::FullReservation);
    let w = Workload::chatbot(2.0, 0xCE27);
    let trace = w.generate(Time::from_secs_f64(400.0), 4096);
    for options in [ServeOptions::default(), ServeOptions::token_granular()] {
        let (ref_report, reference) = sys.serve_trace_instrumented(
            &trace,
            2.0,
            options.clone().with_engine(TickEngine::PerTokenReference),
        );
        let (span_report, span) = sys.serve_trace_instrumented(
            &trace,
            2.0,
            options.clone().with_engine(TickEngine::SpanFastForward),
        );
        assert_eq!(ref_report, span_report);
        assert_eq!(span.tokens, reference.tokens);
        assert!(span.tokens > 0);
        assert!(
            span.heap_events_per_token() < reference.heap_events_per_token(),
            "span {:.4} must beat reference {:.4} heap events/token",
            span.heap_events_per_token(),
            reference.heap_events_per_token()
        );
        // Determinism: a repeated run reproduces the report AND the
        // event-core counters exactly.
        let (again_report, again) = sys.serve_trace_instrumented(
            &trace,
            2.0,
            options.clone().with_engine(TickEngine::SpanFastForward),
        );
        assert_eq!(span_report, again_report);
        assert_eq!(span, again);
    }
}

#[test]
fn token_granular_budget_held_and_everything_completes() {
    // Tight budgets force constant preemption; the scheduler asserts
    // `kv_reserved <= budget` on every mutation, so merely completing these
    // runs exercises invariant (1). Invariant (2): every non-rejected
    // arrival completes exactly once, even through recompute.
    for (seed, budget, rate) in
        [(3u64, 160u64, 30.0), (11, 200, 45.0), (5, 400, 60.0), (77, 151, 25.0)]
    {
        let sys = system(Constants { budget, ..CONSTANTS }, KvMode::FullReservation);
        let w = workload(seed, rate);
        let trace = w.generate(Time::from_secs_f64(6.0), 4096);
        let oversized = trace.iter().filter(|s| s.kv_tokens() > budget).count();
        let report = sys.serve_trace_with(&trace, rate, ServeOptions::token_granular());
        assert_eq!(report.submitted, trace.len(), "seed {seed}");
        assert_eq!(report.rejected, oversized, "seed {seed}");
        assert_eq!(
            report.completed,
            report.submitted - report.rejected,
            "seed {seed}: every admitted request must complete exactly once"
        );
        let expect_decode: u64 =
            trace.iter().filter(|s| s.kv_tokens() <= budget).map(|s| s.decode as u64).sum();
        assert_eq!(report.decode_tokens, expect_decode, "seed {seed}");
        assert!(report.peak_kv_fraction <= 1.0, "seed {seed}");
        assert!(report.kv_utilization <= 1.0, "seed {seed}");
    }
}

#[test]
fn reports_are_deterministic_across_runs_and_policies() {
    // Same seed → identical ServingReport, through preemption and for every
    // policy (event order is total, victims are chosen deterministically).
    let sys = system(Constants { budget: 170, ..CONSTANTS }, KvMode::FullReservation);
    let w = workload(21, 40.0);
    let horizon = Time::from_secs_f64(6.0);
    let make = |policy: u8| {
        let options = match policy {
            0 => ServeOptions::token_granular(),
            1 => ServeOptions::token_granular().with_policy(Box::new(ShortestRemainingDecode)),
            _ => ServeOptions::token_granular()
                .with_policy(Box::new(DeadlineAware { slo: Time::from_secs_f64(0.5) }))
                .with_slo(Time::from_secs_f64(0.5)),
        };
        sys.run_with(&w, horizon, options)
    };
    for policy in 0..3u8 {
        let a = make(policy);
        let b = make(policy);
        assert_eq!(a, b, "policy {policy} must be deterministic");
        assert_eq!(a.completed, a.submitted - a.rejected, "policy {policy}");
    }
    // The preemption machinery was actually exercised.
    assert!(make(0).preemptions > 0, "expected KV pressure under budget 170");
}

#[test]
fn token_granular_admits_more_on_the_chatbot_mix() {
    // The acceptance shape: 512/3584 chatbot queries against a KV pool
    // sized for ~2 full contexts but 6 slots. Full reservation caps
    // residency at 2; token-granular packs more because a query only
    // reaches its 4096-token footprint at its last generated token.
    let c = Constants {
        replicas: 1,
        slots: 6,
        budget: 2 * 4096 + 1024,
        token_interval: Time(1_000_000_000),
        prefill_rate: 50_000.0,
        steady: 6000.0,
    };
    let sys = system(c, KvMode::FullReservation);
    let w = Workload::chatbot(2.0, 0xCE27);
    let horizon = Time::from_secs_f64(400.0);
    let full = sys.run(&w, horizon);
    let token = sys.run_with(&w, horizon, ServeOptions::token_granular());
    assert!(
        token.slot_utilization > full.slot_utilization,
        "token {} vs full {}",
        token.slot_utilization,
        full.slot_utilization
    );
    assert!(
        token.tokens_per_s >= full.tokens_per_s,
        "token {} vs full {} tok/s",
        token.tokens_per_s,
        full.tokens_per_s
    );
    assert!(token.peak_kv_fraction <= 1.0);
    assert_eq!(token.completed, token.submitted - token.rejected);
}
