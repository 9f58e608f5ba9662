//! Benchmark of the G-TSC simulator: runs a named workload at a seed,
//! gates every kernel run on correctness, and reports end-to-end metrics
//! from untraced passes and per-layer metrics from a traced pass. It
//! drives only the simulator's public API; see `README.md` here.

pub mod alloc;
pub mod expected;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod pass;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
