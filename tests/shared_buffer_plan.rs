//! The compiler's one Shared Buffer plan: the slot count channel planning
//! reads (`sb_demand`, `max_feasible_channels`) is the count a compiled
//! decode step allocates, so a channel count that planning approves
//! compiles, and the wide OPT-66B and GPT3-175B deployments of Figures 17
//! and 18 evaluate.

use cent::compiler::{
    compile_decode_step, max_feasible_channels, sb_demand, BlockPlacement, Strategy,
};
use cent::evaluate;
use cent::model::ModelConfig;
use cent::types::consts::SHARED_BUFFER_SLOTS;
use cent::types::ChannelId;

fn models() -> [ModelConfig; 6] {
    [
        ModelConfig::tiny(),
        ModelConfig::llama2_7b(),
        ModelConfig::llama2_13b(),
        ModelConfig::llama2_70b(),
        ModelConfig::opt_66b(),
        ModelConfig::gpt3_175b(),
    ]
}

fn placement(cfg: &ModelConfig, channels: usize) -> Option<BlockPlacement> {
    BlockPlacement::plan(cfg, (0..channels as u16).map(ChannelId).collect()).ok()
}

#[test]
fn sb_demand_is_the_compiled_high_water() {
    for cfg in &models() {
        for c in 1..=32 {
            let Some(p) = placement(cfg, c) else { continue };
            let demand = sb_demand(cfg, c);
            match compile_decode_step(&p, 0) {
                Ok(step) => assert_eq!(
                    demand, step.sb_high_water,
                    "{} on {c} channels: planned {demand} slots, compiled {}",
                    cfg.name, step.sb_high_water
                ),
                Err(e) => assert!(
                    demand > SHARED_BUFFER_SLOTS,
                    "{} on {c} channels: planned {demand} slots, compile failed: {e}",
                    cfg.name
                ),
            }
        }
    }
}

#[test]
fn max_feasible_channels_compiles_wherever_it_plans() {
    for cfg in &models() {
        for desired in 1..=32 {
            let c = max_feasible_channels(cfg, desired);
            assert!((1..=desired).contains(&c));
            let Some(p) = placement(cfg, c) else { continue };
            if let Err(e) = compile_decode_step(&p, 0) {
                panic!("{} approved on {c} of {desired} channels but failed: {e}", cfg.name);
            }
        }
    }
}

#[test]
fn wide_opt_66b_and_gpt3_175b_deployments_evaluate() {
    let cases = [
        (ModelConfig::opt_66b(), 24, Strategy::TensorParallel),
        (ModelConfig::gpt3_175b(), 96, Strategy::PipelineParallel),
        (ModelConfig::gpt3_175b(), 96, Strategy::TensorParallel),
    ];
    for (cfg, devices, strategy) in cases {
        if let Err(e) = evaluate(&cfg, devices, strategy, 1024) {
            panic!("{} on {devices} devices under {strategy:?}: {e}", cfg.name);
        }
    }
}
