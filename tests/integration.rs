//! Cross-crate integration tests: traces compiled by `cent-compiler`
//! executing on `cent-device` over the `cent-cxl` fabric, verified against
//! `cent-model`'s reference.
use cent::{verify_block, CentSystem, ModelConfig, Strategy};
use cent_model::{reference_block, KvCache};

fn input(cfg: &ModelConfig, t: usize) -> Vec<f32> {
    (0..cfg.hidden).map(|i| 0.1 * ((i as f32 * 0.37 + t as f32 * 1.3).sin())).collect()
}

/// Decodes three tokens of the tiny model on `devices` devices under
/// `strategy` and checks each against the reference chained over every
/// block with its own KV cache.
fn assert_decode_matches_reference(strategy: Strategy, devices: usize) {
    let cfg = ModelConfig::tiny();
    let mut system = CentSystem::functional(&cfg, devices, strategy).unwrap();
    system.load_random_weights(7).unwrap();

    let w: Vec<_> = (0..cfg.layers).map(|b| system.block_weights(b).unwrap().clone()).collect();
    let mut caches: Vec<KvCache> = (0..cfg.layers).map(|_| KvCache::new()).collect();

    for t in 0..3 {
        let x = input(&cfg, t);
        let mut expect = x.clone();
        for b in 0..cfg.layers {
            expect = reference_block(&cfg, &w[b], &expect, &mut caches[b], t);
        }
        let got = system.decode_token(&x, t).unwrap();
        let scale = expect.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() <= 0.06 * (e.abs() + scale),
                "{strategy:?}/{devices}: token {t} elem {i}: {g} vs {e} (scale {scale})"
            );
        }
    }
}

#[test]
fn full_tiny_model_decode_matches_reference_across_blocks() {
    assert_decode_matches_reference(Strategy::PipelineParallel, 1);
}

/// The blocks of a TP group take turns on the same channels, so each must
/// keep its weights and KV cache in rows of its own.
#[test]
fn time_shared_blocks_decode_like_the_reference() {
    assert_decode_matches_reference(Strategy::TensorParallel, 1);
    assert_decode_matches_reference(Strategy::TensorParallel, 2);
    assert_decode_matches_reference(Strategy::Hybrid { tp: 2 }, 2);
}

#[test]
fn every_block_verifies_independently() {
    let cfg = ModelConfig::tiny();
    let mut system = CentSystem::functional(&cfg, 1, Strategy::PipelineParallel).unwrap();
    system.load_random_weights(99).unwrap();
    for block in 0..cfg.layers {
        let report = verify_block(&mut system, block, 2, 0.05).unwrap();
        assert_eq!(report.tokens, 2, "block {block}");
    }
}

#[test]
fn timing_only_system_reports_elapsed_time() {
    let cfg = ModelConfig::tiny();
    let mut system = CentSystem::timing_only(&cfg, 1, Strategy::PipelineParallel).unwrap();
    system.load_random_weights(1).unwrap();
    let x = input(&cfg, 0);
    let _ = system.decode_token(&x, 0).unwrap();
    assert!(system.elapsed() > cent::Time::ZERO);
    let b = system.breakdown();
    assert!(b.total() > cent::Time::ZERO);
}

#[test]
fn mapping_and_placement_are_consistent() {
    let cfg = ModelConfig::llama2_7b();
    let system = CentSystem::timing_only(&cfg, 8, Strategy::PipelineParallel).unwrap();
    let mapping = system.mapping();
    assert_eq!(mapping.blocks_per_device, 4);
    assert_eq!(mapping.channels_per_block, 8);
    // Every block has a placement on its assigned device's channels.
    for b in 0..cfg.layers {
        let p = system.placement(b).unwrap();
        assert_eq!(p.channels.len(), 8);
    }
}

#[test]
fn trace_statistics_confirm_mac_dominance() {
    // §2's justification for the hierarchical PIM-PNM design, on a real
    // compiled block trace.
    use cent_compiler::{compile_decode_step, BlockPlacement};
    use cent_isa::analyze;
    let cfg = ModelConfig::llama2_7b();
    let channels: Vec<_> = (0..8).map(cent_types::ChannelId).collect();
    let p = BlockPlacement::plan(&cfg, channels).unwrap();
    let step = compile_decode_step(&p, 1024).unwrap();
    let stats = analyze(&step.trace);
    assert!(stats.mac_flop_fraction() > 0.99, "MAC fraction {}", stats.mac_flop_fraction());
    // The trace fits the 2 MB instruction buffer.
    assert!(step.trace.len() * cent_isa::INST_BYTES <= 2 * 1024 * 1024);
}

#[test]
fn prefill_then_decode_matches_reference_continuation() {
    // §5.5: prefill fills the KV caches token by token; a decode right after
    // must see exactly the state the reference sees.
    let cfg = ModelConfig::tiny();
    let mut system = CentSystem::functional(&cfg, 1, Strategy::PipelineParallel).unwrap();
    system.load_random_weights(55).unwrap();
    let w: Vec<_> = (0..cfg.layers).map(|b| system.block_weights(b).unwrap().clone()).collect();

    let prompt: Vec<Vec<f32>> = (0..4).map(|t| input(&cfg, t)).collect();
    let cent_last = system.prefill(&prompt).unwrap();

    let mut caches: Vec<KvCache> = (0..cfg.layers).map(|_| KvCache::new()).collect();
    let mut expect_last = Vec::new();
    for (t, x) in prompt.iter().enumerate() {
        let mut v = x.clone();
        for b in 0..cfg.layers {
            v = reference_block(&cfg, &w[b], &v, &mut caches[b], t);
        }
        expect_last = v;
    }
    let scale = expect_last.iter().fold(0.0f32, |a, v| a.max(v.abs()));
    for (g, e) in cent_last.iter().zip(&expect_last) {
        assert!((g - e).abs() <= 0.06 * (e.abs() + scale), "prefill tail: {g} vs {e}");
    }

    // One decode step continuing from the prefilled caches.
    let x = input(&cfg, 4);
    let got = system.decode_token(&x, 4).unwrap();
    let mut expect = x.clone();
    for b in 0..cfg.layers {
        expect = reference_block(&cfg, &w[b], &expect, &mut caches[b], 4);
    }
    let scale = expect.iter().fold(0.0f32, |a, v| a.max(v.abs()));
    for (g, e) in got.iter().zip(&expect) {
        assert!((g - e).abs() <= 0.06 * (e.abs() + scale), "decode after prefill: {g} vs {e}");
    }
}

#[test]
fn hybrid_mapping_builds_and_runs() {
    let cfg = ModelConfig::tiny();
    let mut system = CentSystem::functional(&cfg, 2, Strategy::Hybrid { tp: 2 }).unwrap();
    system.load_random_weights(3).unwrap();
    let out = system.decode_token(&input(&cfg, 0), 0).unwrap();
    assert_eq!(out.len(), cfg.hidden);
    assert_eq!(system.mapping().tp_degree, 2);
}

#[test]
fn timing_only_devices_time_exactly_like_functional_ones() {
    // A timing-only device carries no channel or PNM data and reuses the
    // timing of repeated RISC-V routine calls; none of that may move a
    // single picosecond or counter against a data-carrying device.
    use cent_types::DeviceId;
    let cfg = ModelConfig::tiny();
    for (strategy, devices) in [
        (Strategy::PipelineParallel, 1),
        (Strategy::PipelineParallel, 2),
        (Strategy::TensorParallel, 1),
        (Strategy::TensorParallel, 2),
    ] {
        let mut functional = CentSystem::functional(&cfg, devices, strategy).unwrap();
        let mut timing = CentSystem::timing_only(&cfg, devices, strategy).unwrap();
        functional.load_random_weights(21).unwrap();
        timing.load_random_weights(21).unwrap();
        for t in 0..3 {
            let x = input(&cfg, t);
            functional.decode_token(&x, t).unwrap();
            timing.decode_token(&x, t).unwrap();
        }
        let case = format!("{strategy:?}/{devices}");
        assert_eq!(functional.elapsed(), timing.elapsed(), "{case}: elapsed");
        assert_eq!(functional.breakdown(), timing.breakdown(), "{case}: breakdown");
        let mut compared = 0;
        for id in 0..devices as u16 {
            let (Some(f), Some(t)) = (functional.device(DeviceId(id)), timing.device(DeviceId(id)))
            else {
                assert!(functional.device(DeviceId(id)).is_none(), "{case}: device {id}");
                assert!(timing.device(DeviceId(id)).is_none(), "{case}: device {id}");
                continue;
            };
            assert_eq!(f.dram_activity(), t.dram_activity(), "{case}: device {id} DRAM");
            assert_eq!(f.pnm_activity(), t.pnm_activity(), "{case}: device {id} PNM");
            assert_eq!(
                f.instructions_executed(),
                t.instructions_executed(),
                "{case}: device {id} instructions"
            );
            compared += 1;
        }
        assert!(compared > 0, "{case}: no device built");
    }
}
