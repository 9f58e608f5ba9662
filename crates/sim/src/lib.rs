//! The full-GPU simulator: SMs + NoC + L2 banks + DRAM, wired around any
//! of the workspace's coherence protocols, with built-in correctness
//! checking.
//!
//! This is the reproduction of the paper's evaluation vehicle (GPGPU-Sim
//! 3.2.2 with the authors' protocol patches, Section VI-A). A
//! [`GpuSim`] is built from a [`gtsc_types::GpuConfig`] — which selects
//! the protocol ([`gtsc_types::ProtocolKind`]) and consistency model —
//! and runs [`gtsc_gpu::Kernel`]s to completion, producing
//! [`gtsc_types::SimStats`] plus any coherence violations found by the
//! [`check::Checker`].
//!
//! [`GpuSim`] (one GPU over DRAM, the N = 1 case) and [`MultiGpuSim`]
//! (N GPUs over the inter-GPU fabric) share one device model and step:
//! per device, phases 1–3 (SM issue, L1 egress, request delivery); the
//! below-L2 phase; crashes; the Section V-D reset; per device, phases
//! 6–8 (response egress and delivery, cycle accounting). DESIGN.md §17.6.
//!
//! # Examples
//!
//! ```
//! use gtsc_gpu::{VecKernel, WarpOp, WarpProgram};
//! use gtsc_sim::GpuSim;
//! use gtsc_types::{Addr, GpuConfig};
//!
//! let cfg = GpuConfig::test_small();
//! let kernel = VecKernel::new(
//!     "demo",
//!     1,
//!     vec![vec![WarpProgram(vec![
//!         WarpOp::store_coalesced(Addr(0), 32),
//!         WarpOp::load_coalesced(Addr(0), 32),
//!     ])]],
//! );
//! let mut sim = GpuSim::new(cfg);
//! let report = sim.run_kernel(&kernel).expect("kernel completes");
//! assert!(report.stats.cycles.0 > 0);
//! assert!(report.violations.is_empty());
//! ```

pub mod build;
pub mod check;
pub mod checkpoint;
pub mod gpu;
mod machine;
pub mod multi;
pub mod profile;

pub use build::{build_l1, build_l2};
pub use check::{Checker, LoadObservation, Violation};
pub use checkpoint::{CheckpointError, CheckpointSource, CheckpointStore};
pub use gpu::{
    DeviceStall, GpuSim, KernelProgress, RunReport, SimBuilder, SimError, StallDiagnosis,
};
pub use machine::Machine;
pub use multi::MultiGpuSim;
pub use profile::{render_folded, render_profile, spans_to_chrome_trace};
