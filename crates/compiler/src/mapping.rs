//! System-level model mapping: PP, TP, hybrid TP-PP and DP (§5.1-5.3).
//!
//! Two planners cover the four strategies. The partitioned planner (PP,
//! DP) gives each block its own slice of one device's channels, so the
//! blocks on a device run at once as separate pipeline stages. The
//! tensor-parallel planner (TP, Hybrid) shards each block over all
//! channels of a group of devices, so the blocks of a group take turns as
//! one stage. [`SystemMapping::blocks_per_stage`] is the one fact that
//! tells the two layouts apart.

use cent_types::consts::{CHANNELS_PER_DEVICE, CHANNEL_CAPACITY};
use cent_types::{ByteSize, CentError, CentResult, DeviceId};

use cent_model::ModelConfig;

/// A parallelisation strategy for distributing the model over CXL devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Pipeline parallel: each transformer block is a pipeline stage mapped
    /// to channels of a single device; the batch equals the stage count
    /// (§5.1).
    PipelineParallel,
    /// Tensor parallel: every block is sharded across all devices; the
    /// attention layer stays on the master device (§5.2). Batch 1. This is
    /// [`Strategy::Hybrid`] with a single group.
    TensorParallel,
    /// Hybrid: the devices form groups of `tp`, and each group is one
    /// pipeline stage. A stage's blocks are sharded over all `tp × 32`
    /// channels of its group and run one at a time; the pipeline runs
    /// across groups, one query per group used (§5.3).
    Hybrid {
        /// Devices per tensor-parallel group.
        tp: usize,
    },
    /// Data parallel over independent pipeline-parallel replicas (used in
    /// the Figure 19 scalability study).
    DataParallel {
        /// Number of PP replicas.
        replicas: usize,
    },
}

/// A planned mapping of a model onto a CENT system.
#[derive(Debug, Clone)]
pub struct SystemMapping {
    /// The model.
    pub cfg: ModelConfig,
    /// The strategy.
    pub strategy: Strategy,
    /// Devices available.
    pub devices: usize,
    /// Devices one replica uses.
    pub used_devices: usize,
    /// Blocks hosted per used device: its pipeline stages under PP and DP,
    /// its shard of its group's stage under TP and Hybrid.
    pub blocks_per_device: usize,
    /// Blocks of one pipeline stage: 1 when every block owns its channels
    /// (PP, DP); the whole group's blocks when they time-share all of the
    /// group's channels (TP, Hybrid).
    pub blocks_per_stage: usize,
    /// Channels a block owns on each device it spans: a slice of the 32
    /// under PP and DP, all 32 under TP and Hybrid.
    pub channels_per_block: usize,
    /// Concurrent queries in flight per replica: one per pipeline stage.
    pub batch: usize,
    /// Data-parallel replica count.
    pub replicas: usize,
    /// Devices each block is sharded over (1 under PP and DP).
    pub tp_degree: usize,
}

impl SystemMapping {
    /// Plans `cfg` over `devices` CXL devices with `strategy`.
    ///
    /// # Errors
    ///
    /// Fails if the model cannot fit the devices under the paper's rules
    /// (a stage never splits across devices; weights + KV caches must fit
    /// the channels assigned).
    pub fn plan(cfg: &ModelConfig, devices: usize, strategy: Strategy) -> CentResult<Self> {
        if devices == 0 {
            return Err(CentError::mapping("no devices"));
        }
        let mut plan = match strategy {
            Strategy::PipelineParallel => Self::partitioned(cfg, devices)?,
            Strategy::DataParallel { replicas } => {
                if replicas == 0 || !devices.is_multiple_of(replicas) {
                    return Err(CentError::mapping(format!(
                        "{devices} devices cannot host {replicas} equal replicas"
                    )));
                }
                let mut plan = Self::partitioned(cfg, devices / replicas)?;
                plan.replicas = replicas;
                plan
            }
            Strategy::TensorParallel => Self::tensor_parallel(cfg, devices, devices)?,
            Strategy::Hybrid { tp } => {
                if tp == 0 || !devices.is_multiple_of(tp) {
                    return Err(CentError::mapping(format!(
                        "{devices} devices cannot form groups of {tp}"
                    )));
                }
                Self::tensor_parallel(cfg, devices, tp)?
            }
        };
        plan.strategy = strategy;
        plan.devices = devices;
        Ok(plan)
    }

    /// One pipeline over `devices` devices, each block a stage on its own
    /// slice of one device's channels.
    fn partitioned(cfg: &ModelConfig, devices: usize) -> CentResult<Self> {
        let layers = cfg.layers;
        // Per the paper (§7.4): never split a block across devices; if
        // blocks don't divide evenly, keep the same blocks per device and
        // leave the remainder idle.
        let bpd = layers.div_ceil(devices);
        let channels_per_block = CHANNELS_PER_DEVICE / bpd;
        if channels_per_block == 0 {
            return Err(CentError::mapping(format!(
                "{bpd} blocks per device exceed the 32 channels"
            )));
        }
        let plan = Self {
            cfg: cfg.clone(),
            strategy: Strategy::PipelineParallel,
            devices,
            used_devices: layers.div_ceil(bpd),
            blocks_per_device: bpd,
            blocks_per_stage: 1,
            channels_per_block,
            batch: layers, // batch size = pipeline stages (§7.1)
            replicas: 1,
            tp_degree: 1,
        };
        plan.check_memory(bpd, channels_per_block * bpd, layers)?;
        Ok(plan)
    }

    /// A pipeline across groups of `tp` devices. Each group is one stage:
    /// its blocks are sharded over all of the group's channels and run one
    /// at a time.
    fn tensor_parallel(cfg: &ModelConfig, devices: usize, tp: usize) -> CentResult<Self> {
        // As under PP, a block never splits across stages, so trailing
        // groups may stay idle.
        let per_stage = cfg.layers.div_ceil(devices / tp);
        let stages = cfg.layers.div_ceil(per_stage);
        let plan = Self {
            cfg: cfg.clone(),
            strategy: Strategy::TensorParallel,
            devices,
            used_devices: stages * tp,
            blocks_per_device: per_stage,
            blocks_per_stage: per_stage,
            channels_per_block: CHANNELS_PER_DEVICE,
            batch: stages,
            replicas: 1,
            tp_degree: tp,
        };
        plan.check_memory(per_stage, tp * CHANNELS_PER_DEVICE, stages)?;
        Ok(plan)
    }

    /// The device that hosts `block` (the first of its group under TP and
    /// Hybrid) and the first of the channels the block owns there.
    pub fn block_home(&self, block: usize) -> (DeviceId, usize) {
        let device = block / self.blocks_per_device * self.tp_degree;
        // The stages on one device own disjoint channel slices; the blocks
        // of one stage share theirs.
        let slot = block % self.blocks_per_device / self.blocks_per_stage;
        (DeviceId(device as u16), slot * self.channels_per_block)
    }

    /// Validates that `blocks` blocks of weights plus the KV caches of
    /// `batch` queries fit in `channels` channels.
    fn check_memory(&self, blocks: usize, channels: usize, batch: usize) -> CentResult<()> {
        let per_block = self.cfg.block_weight_bytes().as_bytes()
            + self.cfg.kv_bytes_per_token_per_block().as_bytes()
                * self.cfg.max_context as u64
                * batch as u64;
        let need = ByteSize::bytes(per_block * blocks as u64);
        let have = ByteSize::bytes(CHANNEL_CAPACITY.as_bytes() * channels as u64);
        if need.as_bytes() > have.as_bytes() {
            return Err(CentError::OutOfMemory(format!(
                "{blocks} block(s) need {need} but {channels} channels hold {have}",
            )));
        }
        Ok(())
    }

    /// Bytes of the embedding vector exchanged between pipeline stages
    /// (16 KB for Llama2-70B, §5.1).
    pub fn embedding_bytes(&self) -> ByteSize {
        ByteSize::bytes(self.cfg.hidden as u64 * 2)
    }

    /// CXL traffic per transformer block under TP: broadcast of the
    /// embedding plus gather of the partial FC results (§5.2 quotes 135 KB
    /// per block for Llama2-70B on 32 devices).
    pub fn tp_traffic_per_block(&self) -> ByteSize {
        let h = self.cfg.hidden as u64;
        let kv = self.cfg.kv_dim() as u64;
        let f = self.cfg.ffn_hidden as u64;
        // Broadcasts: one embedding before QKV, one before FFN, one before Wo.
        let bcast = 3 * h * 2;
        // Gathers: each device returns its output-row shard of every FC.
        let gather = (h + 2 * kv + h + 2 * f + h) * 2;
        ByteSize::bytes(bcast + gather)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama70b_pp_matches_paper_deployment() {
        // 80 blocks on 32 devices → 3 per device, 27 devices used (§7.2).
        let plan = SystemMapping::plan(&ModelConfig::llama2_70b(), 32, Strategy::PipelineParallel)
            .unwrap();
        assert_eq!(plan.blocks_per_device, 3);
        assert_eq!(plan.used_devices, 27);
        assert_eq!(plan.channels_per_block, 10);
        assert_eq!(plan.batch, 80);
        // Each block is a stage on its own 10 channels.
        assert_eq!(plan.blocks_per_stage, 1);
        let homes: Vec<_> = (0..4).map(|b| plan.block_home(b)).collect();
        assert_eq!(
            homes,
            [(DeviceId(0), 0), (DeviceId(0), 10), (DeviceId(0), 20), (DeviceId(1), 0)]
        );
        assert_eq!(plan.block_home(79), (DeviceId(26), 10));
    }

    #[test]
    fn llama7b_on_8_devices() {
        // 32 blocks on 8 devices → 4 per device, batch 32 (Fig 13).
        let plan =
            SystemMapping::plan(&ModelConfig::llama2_7b(), 8, Strategy::PipelineParallel).unwrap();
        assert_eq!(plan.blocks_per_device, 4);
        assert_eq!(plan.used_devices, 8);
        assert_eq!(plan.channels_per_block, 8);
        assert_eq!(plan.batch, 32);
    }

    #[test]
    fn idle_devices_when_blocks_do_not_divide() {
        // §7.4: 80 blocks over 44 devices keeps the 40-device distribution.
        let plan = SystemMapping::plan(&ModelConfig::llama2_70b(), 44, Strategy::PipelineParallel)
            .unwrap();
        assert_eq!(plan.blocks_per_device, 2);
        assert_eq!(plan.used_devices, 40);
    }

    #[test]
    fn tensor_parallel_uses_all_devices_batch_one() {
        let plan =
            SystemMapping::plan(&ModelConfig::llama2_70b(), 32, Strategy::TensorParallel).unwrap();
        assert_eq!(plan.batch, 1);
        assert_eq!(plan.tp_degree, 32);
        assert_eq!(plan.blocks_per_stage, 80);
        assert_eq!(plan.channels_per_block, 32);
        // Every block is homed on the master device's channels.
        assert!((0..80).all(|b| plan.block_home(b) == (DeviceId(0), 0)));
    }

    #[test]
    fn hybrid_splits_into_groups() {
        let plan = SystemMapping::plan(&ModelConfig::llama2_70b(), 32, Strategy::Hybrid { tp: 8 })
            .unwrap();
        // 4 pipeline stages of 8 devices; each stage's 20 blocks take
        // turns on all 32 channels of every device in the group.
        assert_eq!(plan.tp_degree, 8);
        assert_eq!(plan.batch, 4);
        assert_eq!(plan.used_devices, 32);
        assert_eq!(plan.blocks_per_stage, 20);
        assert_eq!(plan.blocks_per_device, 20);
        assert_eq!(plan.channels_per_block, 32);
        assert_eq!(plan.block_home(19), (DeviceId(0), 0));
        assert_eq!(plan.block_home(20), (DeviceId(8), 0));
        assert_eq!(plan.block_home(79), (DeviceId(24), 0));
    }

    #[test]
    fn data_parallel_replicates_pipelines() {
        let plan = SystemMapping::plan(
            &ModelConfig::llama2_70b(),
            80,
            Strategy::DataParallel { replicas: 2 },
        )
        .unwrap();
        assert_eq!(plan.replicas, 2);
        assert_eq!(plan.blocks_per_device, 2);
    }

    #[test]
    fn memory_overflow_is_detected() {
        // 70B on 2 devices: 40 blocks per device cannot fit 32 channels.
        let err = SystemMapping::plan(&ModelConfig::llama2_70b(), 2, Strategy::PipelineParallel)
            .unwrap_err();
        assert!(matches!(err, CentError::MappingFailed(_) | CentError::OutOfMemory(_)));
    }

    #[test]
    fn tp_traffic_is_around_135kb_for_70b() {
        let plan =
            SystemMapping::plan(&ModelConfig::llama2_70b(), 32, Strategy::TensorParallel).unwrap();
        let kb = plan.tp_traffic_per_block().as_bytes() as f64 / 1024.0;
        // §5.2 quotes 135 KB/block; our accounting lands in that band.
        assert!(kb > 100.0 && kb < 250.0, "{kb} KB");
        assert_eq!(plan.embedding_bytes(), ByteSize::kib(16));
    }
}
