//! Memory subsystem for the Vortex-like GPGPU simulator.
//!
//! The design separates **function** from **timing**:
//!
//! * [`MainMemory`] is the single, flat, byte-addressed 32-bit address space
//!   holding the architectural state. Loads and stores take effect here
//!   immediately (the simulator is functionally in-order), so values are
//!   always exact.
//! * [`MemSystem`] models *when* an access completes: a per-core L1 data
//!   cache, a shared L2, and a DRAM channel with fixed latency plus a
//!   finite service rate (bandwidth). Caches track only tags — they never
//!   hold data, so timing bugs can never corrupt results.
//! * [`coalesce_lines`] merges the per-lane addresses of a SIMT memory
//!   instruction into unique cache-line requests, exactly like the memory
//!   coalescing unit of a GPU load/store pipeline.
//!
//! The bandwidth model is what makes the paper's *memory-bound* kernels
//! (kNN, Gaussian filter, GCN aggregation) behave "atypically": once the
//! DRAM channel saturates, adding parallelism stops helping, and the
//! hardware-aware mapping loses its edge — matching Figure 2.
//!
//! # Examples
//!
//! ```
//! use vortex_mem::{MainMemory, MemConfig, MemSystem};
//!
//! let mut mem = MainMemory::new();
//! mem.write_u32(0x1000, 42);
//! assert_eq!(mem.read_u32(0x1000), 42);
//!
//! let mut sys = MemSystem::new(1, MemConfig::default());
//! let miss = sys.load(0, 0x1000, 0); // cold miss goes to DRAM
//! let hit = sys.load(0, 0x1000, miss); // now it hits in L1
//! assert!(hit - miss < miss);
//! ```

#![forbid(unsafe_code)]

mod cache;
mod coalesce;
mod dram;
mod main_memory;
mod system;

pub use cache::{Cache, CacheConfig, CacheGeometry, CacheStats, Lookup};
pub use coalesce::{coalesce_lines, CoalescedLines};
pub use dram::{DramChannel, DramConfig};
pub use main_memory::MainMemory;
pub use system::{BatchOutcome, MemConfig, MemStats, MemSystem, PendingMiss};

/// Simulation time in cycles.
pub type Cycle = u64;
