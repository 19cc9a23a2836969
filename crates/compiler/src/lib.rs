//! The CENT trace compiler: model mapping and instruction generation (§5).
//!
//! * [`GemvLayout`]/[`KvLayout`] — DRAM placements for all-bank GEMV and the
//!   attention KV caches;
//! * [`TraceBuilder`] — op-level compilation (Figure 11's GEMV, neighbour
//!   dot products, element-wise scratch products, RMSNorm choreography);
//! * [`BlockPlacement`]/[`compile_decode_step`] — a full transformer block
//!   as one CENT trace per token, with per-instruction phase tags;
//! * [`weight_image`] — parameter loading with the RMSNorm-gain and
//!   `1/sqrt(head_dim)` folds;
//! * [`SystemMapping`] — PP / TP / hybrid / DP distribution across CXL
//!   devices with the paper's placement rules.

#![forbid(unsafe_code)]

mod block;
mod builder;
mod image;
mod layout;
mod mapping;

pub use block::{
    compile_decode_step, max_feasible_channels, sb_demand, BlockPlacement, BlockStep,
    SEGMENT_TOKENS_MAX,
};
pub use builder::{BlockPhase, SbAllocator, TraceBuilder, VecSource};
pub use image::{weight_image, BankWrite};
pub use layout::{GemvLayout, KvLayout, RowAllocator, OUTPUTS_PER_PASS, TILE_ELEMS};
pub use mapping::{Strategy, SystemMapping};
