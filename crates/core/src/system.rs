//! The CENT system facade: devices + fabric + compiled model.
//!
//! This is the Rust equivalent of the paper's programming model (§5.6):
//! "Users can specify the CENT hardware configuration, including the number
//! of PIM channels to utilize, and the number of pipeline stages. [...]
//! CENT library provides Python APIs to allocate memory space and load model
//! parameters according to the model mapping strategy."

use std::collections::BTreeMap;

use cent_compiler::{compile_decode_step, weight_image, BlockPlacement, Strategy, SystemMapping};
use cent_cxl::{CommunicationEngine, FabricConfig};
use cent_device::{CxlDevice, DeviceConfig, LatencyBreakdown};
use cent_model::{BlockWeights, ModelConfig};
use cent_types::{Bf16, CentError, CentResult, ChannelId, DeviceId, RowAddr, SbSlot, Time};

/// A fully built CENT system: devices on a CXL fabric with a model mapped
/// and (optionally) loaded.
///
/// # Examples
///
/// ```
/// use cent_core::CentSystem;
/// use cent_compiler::Strategy;
/// use cent_model::ModelConfig;
///
/// # fn main() -> Result<(), cent_types::CentError> {
/// let cfg = ModelConfig::tiny();
/// let mut system = CentSystem::functional(&cfg, 1, Strategy::PipelineParallel)?;
/// system.load_random_weights(7)?;
/// let x = vec![0.01_f32; cfg.hidden];
/// let out = system.decode_token(&x, 0)?;
/// assert_eq!(out.len(), cfg.hidden);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CentSystem {
    cfg: ModelConfig,
    mapping: SystemMapping,
    // DeviceId-ordered: `elapsed`/`breakdown`/`init_constant_slots` sweep
    // the values, so iteration order must be deterministic.
    devices: BTreeMap<DeviceId, CxlDevice>,
    comm: CommunicationEngine,
    /// Placement of every block, indexed by block id.
    placements: Vec<(DeviceId, BlockPlacement)>,
    /// Cached weights for functional verification.
    weights: Vec<BlockWeights>,
    functional: bool,
}

impl CentSystem {
    /// Builds a functional (data-carrying) system — intended for small
    /// models and verification.
    ///
    /// # Errors
    ///
    /// Fails if the mapping does not fit the devices.
    pub fn functional(cfg: &ModelConfig, devices: usize, strategy: Strategy) -> CentResult<Self> {
        Self::build(cfg, devices, strategy, true)
    }

    /// Builds a timing-only system (no data storage) for large models.
    ///
    /// # Errors
    ///
    /// Fails if the mapping does not fit the devices.
    pub fn timing_only(cfg: &ModelConfig, devices: usize, strategy: Strategy) -> CentResult<Self> {
        Self::build(cfg, devices, strategy, false)
    }

    fn build(
        cfg: &ModelConfig,
        devices: usize,
        strategy: Strategy,
        functional: bool,
    ) -> CentResult<Self> {
        let mapping = SystemMapping::plan(cfg, devices, strategy)?;
        let usable = cent_compiler::max_feasible_channels(cfg, mapping.channels_per_block);
        let mut dev_map = BTreeMap::new();
        let mut placements = Vec::with_capacity(cfg.layers);
        // A block sharded over a TP group runs functionally, whole, on the
        // group's first device; `evaluate` prices the sharding. Blocks that
        // share a home take turns on its channels, so their rows stack.
        let mut last: Option<((DeviceId, usize), RowAddr)> = None;
        for b in 0..cfg.layers {
            let home = mapping.block_home(b);
            let first_row = match last {
                Some((prev, end)) if prev == home => end,
                _ => RowAddr(0),
            };
            let (device, first) = home;
            let channels = (first..first + usable).map(|c| ChannelId(c as u16)).collect();
            let placement = BlockPlacement::plan_from(cfg, channels, first_row)?;
            last = Some((home, placement.end_row));
            placements.push((device, placement));
            dev_map.entry(device).or_insert_with(|| {
                CxlDevice::new(
                    device,
                    DeviceConfig { channels: cent_types::consts::CHANNELS_PER_DEVICE, functional },
                )
            });
        }
        let comm = CommunicationEngine::new(FabricConfig::cent(devices.max(2)));
        let mut system = CentSystem {
            cfg: cfg.clone(),
            mapping,
            devices: dev_map,
            comm,
            placements,
            weights: Vec::new(),
            functional,
        };
        system.init_constant_slots()?;
        Ok(system)
    }

    fn init_constant_slots(&mut self) -> CentResult<()> {
        // Slot 0 = zeros (already), slot 1 = ones: the trace builder's
        // constant beats, host-initialised at boot.
        for dev in self.devices.values_mut() {
            dev.shared_buffer_mut().write(SbSlot(1), &[Bf16::ONE; 16])?;
        }
        Ok(())
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The planned mapping.
    pub fn mapping(&self) -> &SystemMapping {
        &self.mapping
    }

    /// Placement of `block`.
    ///
    /// # Errors
    ///
    /// Fails for out-of-range block ids.
    pub fn placement(&self, block: usize) -> CentResult<&BlockPlacement> {
        self.placements
            .get(block)
            .map(|(_, p)| p)
            .ok_or_else(|| CentError::mapping(format!("block {block} out of range")))
    }

    /// Direct device access (inspection, custom traces).
    pub fn device(&self, id: DeviceId) -> Option<&CxlDevice> {
        self.devices.get(&id)
    }

    /// Loads deterministic random weights into every block (functional
    /// systems only) and remembers them for verification.
    ///
    /// # Errors
    ///
    /// Propagates preload errors.
    pub fn load_random_weights(&mut self, seed: u64) -> CentResult<()> {
        let cfg = self.cfg.clone();
        self.weights = (0..cfg.layers)
            .map(|b| BlockWeights::random(&cfg, seed.wrapping_add(b as u64)))
            .collect();
        if !self.functional {
            return Ok(());
        }
        for b in 0..cfg.layers {
            let weights = self.weights[b].clone();
            self.load_block_weights(b, &weights)?;
        }
        Ok(())
    }

    /// Loads explicit weights into one block.
    ///
    /// # Errors
    ///
    /// Propagates preload errors.
    pub fn load_block_weights(&mut self, block: usize, w: &BlockWeights) -> CentResult<()> {
        let (device, placement) = &self.placements[block];
        let image = weight_image(placement, w);
        let dev = self.devices.get_mut(device).expect("device exists");
        for write in image {
            dev.preload_beat(write.channel, write.bank, write.row, write.col, &write.beat)?;
        }
        Ok(())
    }

    /// The remembered weights of `block` (for reference comparison).
    pub fn block_weights(&self, block: usize) -> Option<&BlockWeights> {
        self.weights.get(block)
    }

    /// Runs one decode step of a single `block` functionally: writes `x`
    /// into the block's Shared Buffer region, executes the compiled trace,
    /// and returns the block output.
    ///
    /// # Errors
    ///
    /// Propagates compile and execution errors.
    pub fn decode_block_step(
        &mut self,
        block: usize,
        x: &[f32],
        position: usize,
    ) -> CentResult<Vec<f32>> {
        let (device, placement) = &self.placements[block];
        let device = *device;
        let step = compile_decode_step(placement, position)?;
        let dev = self.devices.get_mut(&device).expect("device exists");
        let quantized = Bf16::quantize_slice(x);
        dev.shared_buffer_mut().write_vec(step.x_slot, &quantized)?;
        dev.run_trace(&step.trace, Some(&mut self.comm))?;
        let beats = step.x_beats;
        let out = dev.shared_buffer().read_vec(step.x_slot, beats)?;
        Ok(Bf16::dequantize_slice(&out)[..self.cfg.hidden].to_vec())
    }

    /// Runs one full decode token through every block in order (single
    /// query). Embedding/sampling stay on the host per §5.5.
    ///
    /// # Errors
    ///
    /// Propagates compile and execution errors.
    pub fn decode_token(&mut self, x: &[f32], position: usize) -> CentResult<Vec<f32>> {
        let mut v = x.to_vec();
        for block in 0..self.cfg.layers {
            v = self.decode_block_step(block, &v, position)?;
        }
        Ok(v)
    }

    /// Prefills a prompt: processes `tokens` sequentially through every
    /// block (the paper's prefill strategy, §5.5: "CENT processes tokens in
    /// the prompt one after another to fill out KV caches"). Returns the
    /// final token's output embedding.
    ///
    /// # Errors
    ///
    /// Propagates compile and execution errors.
    pub fn prefill(&mut self, tokens: &[Vec<f32>]) -> CentResult<Vec<f32>> {
        let mut last = Vec::new();
        for (pos, x) in tokens.iter().enumerate() {
            last = self.decode_token(x, pos)?;
        }
        Ok(last)
    }

    /// Total simulated time across devices.
    pub fn elapsed(&self) -> Time {
        self.devices.values().map(CxlDevice::busy_until).fold(Time::ZERO, Time::max)
    }

    /// Aggregated latency breakdown across devices.
    pub fn breakdown(&self) -> LatencyBreakdown {
        self.devices.values().map(CxlDevice::breakdown).sum()
    }
}
