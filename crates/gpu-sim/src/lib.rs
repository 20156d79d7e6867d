//! # flashmem-gpu-sim
//!
//! A discrete-event simulator of the **mobile GPU memory hierarchy** used by
//! FlashMem (ASPLOS '26). The paper evaluates on Qualcomm Adreno and ARM Mali
//! GPUs, which expose a hierarchy of
//!
//! ```text
//! disk  --1.5 GB/s-->  unified memory  --65 GB/s-->  2.5D texture memory
//!        --172 GB/s--> texture cache   --560 GB/s--> streaming multiprocessors
//! ```
//!
//! (bandwidth figures from Figure 1 of the paper). Because no physical
//! Adreno/Mali device is available in this environment, this crate provides a
//! calibrated analytic + event-driven model of that hierarchy: memory pools
//! with capacity accounting, dual command queues (transfer + compute) that can
//! overlap, a per-operator kernel cost model, a 2.5D texture layout model with
//! a texture-cache hit-rate estimate, and a power/energy model integrated over
//! the simulated timeline.
//!
//! The simulator is deliberately independent of any DNN-specific concepts: it
//! executes [`Command`](engine::Command) streams that higher layers
//! (`flashmem-core`, `flashmem-baselines`) compile from DNN graphs and overlap
//! plans.
//!
//! ## Example
//!
//! ```rust
//! use flashmem_gpu_sim::{DeviceSpec, GpuSimulator, SimConfig};
//! use flashmem_gpu_sim::engine::{Command, CommandStream};
//! use flashmem_gpu_sim::kernel::{KernelCategory, KernelDesc, LaunchDims};
//! use flashmem_gpu_sim::bandwidth::MemoryTier;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let device = DeviceSpec::oneplus_12();
//! let mut sim = GpuSimulator::new(device, SimConfig::default());
//!
//! let mut stream = CommandStream::new();
//! let load = stream.push(Command::transfer(
//!     "weights", 64 << 20, MemoryTier::Disk, MemoryTier::UnifiedMemory, []));
//! let kernel = KernelDesc::new("matmul", KernelCategory::Reusable, 2.0e9, 32 << 20, 8 << 20)
//!     .with_launch(LaunchDims::new([256, 256, 1], [8, 8, 1]));
//! stream.push(Command::kernel("mm0", kernel, 0, [load]));
//!
//! let outcome = sim.execute(stream)?;
//! assert!(outcome.total_time_ms > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bandwidth;
pub mod cache;
pub mod decode;
pub mod device;
pub mod energy;
pub mod engine;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod rng;
pub mod texture;
pub mod trace;

pub use bandwidth::MemoryTier;
pub use decode::{DecodeStepPlan, KvCache, StepCost};
pub use device::DeviceSpec;
pub use energy::{EnergyReport, PowerModel};
pub use engine::{ExecutionOutcome, GpuSimulator, PreemptionCost, SimConfig, Suspension};
pub use error::{SimError, SimResult};
pub use fault::{FaultKind, FaultPlan};
pub use kernel::{KernelCategory, KernelDesc, LaunchDims};
pub use memory::{MemoryPool, MemoryTracker};
pub use rng::SplitMix64;
pub use texture::Texture2p5dLayout;
pub use trace::MemoryTrace;

/// Number of bytes in one mebibyte, used consistently across the crate when
/// converting to the MB figures reported in the paper's tables.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Number of bytes in one gibibyte.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Convert a byte count to mebibytes.
///
/// ```
/// assert_eq!(flashmem_gpu_sim::bytes_to_mib(2 * 1024 * 1024), 2.0);
/// ```
pub fn bytes_to_mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// Convert mebibytes to a byte count (rounding down).
///
/// ```
/// assert_eq!(flashmem_gpu_sim::mib_to_bytes(2.0), 2 * 1024 * 1024);
/// ```
pub fn mib_to_bytes(mib: f64) -> u64 {
    (mib * MIB) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_round_trip() {
        assert_eq!(bytes_to_mib(mib_to_bytes(123.0)), 123.0);
    }

    #[test]
    fn constants_consistent() {
        assert_eq!(GIB, 1024.0 * MIB);
    }
}
