//! The benchmark's workloads: which kernels run on which machines.

use std::collections::BTreeMap;

use gtsc_gpu::{Kernel, VecKernel};
use gtsc_sim::{GpuSim, MultiGpuSim, RunReport, SimError};
use gtsc_types::{
    BlockAddr, ConsistencyModel, FabricConfig, FaultConfig, GpuConfig, MultiGpuConfig,
    ProtocolKind, Version,
};
use gtsc_workloads::{graph, grid, pipeline, stream, tree, Benchmark, Scale};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Group A at full scale under G-TSC-RC and TC-RC.
    Sharing,
    /// Group B at full scale under G-TSC-RC.
    Streaming,
    /// Group A at small scale on four lossy G-TSC-RC devices.
    MultiGpuLossy,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Sharing,
        Workload::Streaming,
        Workload::MultiGpuLossy,
    ];

    /// The name used on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sharing => "sharing",
            Workload::Streaming => "streaming",
            Workload::MultiGpuLossy => "multi-gpu-lossy",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The kernel runs of one pass: each run is one kernel on a freshly
    /// built machine.
    #[must_use]
    pub fn runs(self, seed: u64) -> Vec<RunSpec> {
        let gtsc = GpuConfig::paper_default()
            .with_protocol(ProtocolKind::Gtsc)
            .with_consistency(ConsistencyModel::Rc);
        let tc = GpuConfig::paper_default()
            .with_protocol(ProtocolKind::TcWeak)
            .with_consistency(ConsistencyModel::Rc);
        let on = |benches: [Benchmark; 6], scale: Scale, label: &'static str, m: &Machine| {
            benches
                .into_iter()
                .map(|bench| RunSpec {
                    bench,
                    scale,
                    seed,
                    label,
                    machine: m.clone(),
                })
                .collect::<Vec<_>>()
        };
        match self {
            Workload::Sharing => {
                let mut runs = on(
                    Benchmark::group_a(),
                    Scale::Full,
                    "G-TSC-RC",
                    &Machine::Gpu(gtsc),
                );
                runs.extend(on(
                    Benchmark::group_a(),
                    Scale::Full,
                    "TC-RC",
                    &Machine::Gpu(tc),
                ));
                runs
            }
            Workload::Streaming => on(
                Benchmark::group_b(),
                Scale::Full,
                "G-TSC-RC",
                &Machine::Gpu(gtsc),
            ),
            Workload::MultiGpuLossy => {
                let cfg = MultiGpuConfig {
                    n_devices: 4,
                    gpu: gtsc.with_faults(FaultConfig::lossy(seed, 10)),
                    fabric: FabricConfig::default()
                        .lossy(seed, 10)
                        .with_partitions(2, 3000, 1500)
                        .with_device_crashes(1, 4000),
                };
                on(
                    Benchmark::group_a(),
                    Scale::Small,
                    "G-TSC-RC x4",
                    &Machine::Multi(cfg),
                )
            }
        }
    }
}

/// The machine a kernel runs on.
#[derive(Debug, Clone)]
// A pass holds a dozen of these; their size does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Machine {
    /// One GPU.
    Gpu(GpuConfig),
    /// Several GPUs joined by the inter-GPU fabric.
    Multi(MultiGpuConfig),
}

impl Machine {
    /// Builds the machine with the controllers its config selects.
    ///
    /// # Errors
    ///
    /// A [`SimError`] if the config is rejected.
    pub fn build(&self) -> Result<Sim, SimError> {
        Ok(match self {
            Machine::Gpu(cfg) => Sim::Gpu(Box::new(
                gtsc_sim::SimBuilder::new(cfg.clone()).try_build()?,
            )),
            Machine::Multi(cfg) => Sim::Multi(Box::new(MultiGpuSim::try_build(cfg.clone())?)),
        })
    }
}

/// One kernel run of a pass.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The paper benchmark whose generator makes the kernel.
    pub bench: Benchmark,
    /// Its input size.
    pub scale: Scale,
    /// The workload seed.
    pub seed: u64,
    /// The evaluated system, as the paper labels it.
    pub label: &'static str,
    /// What the kernel runs on.
    pub machine: Machine,
}

impl RunSpec {
    /// `BH@G-TSC-RC`-style name of the run.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}@{}", self.bench.name(), self.label)
    }

    /// The protocol the run's controllers speak.
    #[must_use]
    pub fn protocol(&self) -> ProtocolKind {
        match &self.machine {
            Machine::Gpu(cfg) => cfg.protocol,
            Machine::Multi(cfg) => cfg.gpu.protocol,
        }
    }

    /// Generates the run's kernel from the workload seed.
    #[must_use]
    pub fn kernel(&self) -> VecKernel {
        generate(self.bench, self.scale, self.seed)
    }
}

/// Generates `bench` at `scale` from a workload seed. Each generator gets
/// the seed XOR the constant `Benchmark::build` uses, so seed 0 yields
/// exactly the kernels of the paper figures.
#[must_use]
pub fn generate(bench: Benchmark, scale: Scale, seed: u64) -> VecKernel {
    match bench {
        Benchmark::Bh => tree::barnes_hut(scale, 0xB4 ^ seed),
        Benchmark::Cc => graph::connected_components(scale, 0xCC ^ seed),
        Benchmark::Dlp => pipeline::producer_consumer(scale, 0xD1 ^ seed),
        Benchmark::Vpr => grid::place_route(scale, 0x7B ^ seed),
        Benchmark::Stn => grid::shared_stencil(scale, 0x57 ^ seed),
        Benchmark::Bfs => graph::bfs(scale, 0xBF ^ seed),
        Benchmark::Ccp => stream::compute_heavy(scale, 0xC9 ^ seed),
        Benchmark::Ge => stream::gaussian_elim(scale, 0x6E ^ seed),
        Benchmark::Hs => grid::private_stencil(scale, 0x45 ^ seed),
        Benchmark::Km => stream::kmeans(scale, 0x4B ^ seed),
        Benchmark::Bp => stream::backprop(scale, 0xB9 ^ seed),
        Benchmark::Sgm => stream::sgm(scale, 0x56 ^ seed),
    }
}

/// A built machine of either kind.
pub enum Sim {
    /// One GPU.
    Gpu(Box<GpuSim>),
    /// Several GPUs.
    Multi(Box<MultiGpuSim>),
}

impl Sim {
    /// Runs `kernel` to completion.
    ///
    /// # Errors
    ///
    /// The simulator's [`SimError`].
    pub fn run_kernel(&mut self, kernel: &dyn Kernel) -> Result<RunReport, SimError> {
        match self {
            Sim::Gpu(s) => s.run_kernel(kernel),
            Sim::Multi(s) => s.run_kernel(kernel),
        }
    }

    /// Statistics and violations so far.
    #[must_use]
    pub fn report(&self) -> RunReport {
        match self {
            Sim::Gpu(s) => s.report(),
            Sim::Multi(s) => s.report(),
        }
    }

    /// The functional memory image.
    #[must_use]
    pub fn memory_image(&self) -> BTreeMap<BlockAddr, Version> {
        match self {
            Sim::Gpu(s) => s.memory_image(),
            Sim::Multi(s) => s.memory_image(),
        }
    }

    /// Packets the fault plan dropped, on-die and on the fabric.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        let stats = match self {
            Sim::Gpu(s) => s.fault_stats(),
            Sim::Multi(s) => s.fault_stats(),
        };
        stats.map_or(0, |f| f.dropped)
    }

    /// Whole devices crash-recovered (multi-GPU only).
    #[must_use]
    pub fn device_recoveries(&self) -> u64 {
        match self {
            Sim::Gpu(_) => 0,
            Sim::Multi(s) => s.device_recoveries(),
        }
    }
}
