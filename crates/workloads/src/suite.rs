//! The assembled suite with per-workload metadata: the 14 core kernels
//! mirroring Rodinia/Parboil benchmarks ([`suite`]), the six-family
//! workload zoo ([`zoo`]) and their union ([`full_suite`]).

use crate::kernels::{dense, irregular, stencil, sync};
use crate::zoo::{
    BankStormParams, DivergentTreeParams, FrontierParams, HotBinsParams, RegStairsParams,
    RelayParams,
};
use vt_isa::Kernel;

/// Problem-size knob shared by every workload: grid size and inner
/// iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// CTAs in the grid.
    pub ctas: u32,
    /// Inner loop trip count (time steps, tiles, samples per thread…).
    pub iters: u32,
}

impl Scale {
    /// Minimal scale for unit/integration tests.
    pub fn test() -> Scale {
        Scale { ctas: 6, iters: 2 }
    }

    /// Small scale for quick experiments (seconds per run).
    pub fn small() -> Scale {
        Scale { ctas: 90, iters: 4 }
    }

    /// The experiment harness's `--quick` scale: still oversubscribes
    /// every SM (the phenomenon under study needs more CTAs than the
    /// scheduling limit admits) but with fewer waves and shorter inner
    /// loops.
    pub fn quick() -> Scale {
        Scale {
            ctas: 240,
            iters: 4,
        }
    }

    /// The scale the experiment harness uses to regenerate the paper's
    /// figures: enough waves of CTAs per SM for steady-state behaviour.
    pub fn paper() -> Scale {
        Scale {
            ctas: 360,
            iters: 8,
        }
    }
}

/// Which limit family binds a workload's baseline occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimiterClass {
    /// CTA or warp slots bind first — Virtual Thread's target population.
    Scheduling,
    /// Registers or shared memory bind first — VT must not hurt these.
    Capacity,
}

/// One benchmark of the suite.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in tables and figures.
    pub name: &'static str,
    /// The benchmark this kernel's footprint and behaviour mirror.
    pub mirrors: &'static str,
    /// Expected limiter class on the default (Fermi-like) configuration.
    pub class: LimiterClass,
    /// The kernel itself.
    pub kernel: Kernel,
}

/// Builds the full suite at the given scale.
///
/// Eleven workloads are scheduling-limited and three capacity-limited,
/// matching the paper's observation that the scheduling limit binds most
/// general-purpose GPU applications.
pub fn suite(scale: &Scale) -> Vec<Workload> {
    use LimiterClass::{Capacity, Scheduling};
    vec![
        Workload {
            name: "bfs",
            mirrors: "Rodinia bfs (irregular graph gather)",
            class: Scheduling,
            kernel: irregular::bfs_like(scale),
        },
        Workload {
            name: "kmeans",
            mirrors: "Rodinia kmeans (point classification)",
            class: Scheduling,
            kernel: dense::kmeans_like(scale),
        },
        Workload {
            name: "hotspot",
            mirrors: "Rodinia hotspot (tiled thermal stencil)",
            class: Scheduling,
            kernel: stencil::hotspot_like(scale),
        },
        Workload {
            name: "sgemm",
            mirrors: "Parboil sgemm (shared-memory tiled GEMM)",
            class: Capacity,
            kernel: dense::sgemm_like(scale),
        },
        Workload {
            name: "spmv",
            mirrors: "Parboil spmv (padded-CSR gather)",
            class: Scheduling,
            kernel: irregular::spmv_like(scale),
        },
        Workload {
            name: "stencil",
            mirrors: "Parboil stencil (3-D 4-point stencil)",
            class: Scheduling,
            kernel: stencil::stencil3d_like(scale),
        },
        Workload {
            name: "pathfinder",
            mirrors: "Rodinia pathfinder (DP wavefront)",
            class: Scheduling,
            kernel: stencil::pathfinder_like(scale),
        },
        Workload {
            name: "backprop",
            mirrors: "Rodinia backprop (layer reduction)",
            class: Scheduling,
            kernel: sync::backprop_like(scale),
        },
        Workload {
            name: "histo",
            mirrors: "Parboil histo (atomic histogram)",
            class: Scheduling,
            kernel: irregular::histo_like(scale),
        },
        Workload {
            name: "lbm",
            mirrors: "Parboil lbm (register-heavy streaming)",
            class: Capacity,
            kernel: dense::lbm_like(scale),
        },
        Workload {
            name: "nw",
            mirrors: "Rodinia nw (single-warp wavefront CTAs)",
            class: Scheduling,
            kernel: sync::nw_like(scale),
        },
        Workload {
            name: "srad",
            mirrors: "Rodinia srad (diffusion, SFU-heavy, high regs)",
            class: Capacity,
            kernel: stencil::srad_like(scale),
        },
        Workload {
            name: "reduction",
            mirrors: "CUDA SDK reduction (tree + atomic)",
            class: Scheduling,
            kernel: sync::reduction_like(scale),
        },
        Workload {
            name: "streamcluster",
            mirrors: "Rodinia streamcluster (distance streaming)",
            class: Scheduling,
            kernel: dense::streamcluster_like(scale),
        },
    ]
}

/// The six-family workload zoo at the given scale: one canonical preset
/// per parameterised scenario family in [`crate::zoo`].
///
/// Four families are scheduling-limited (divergence, atomic contention,
/// barrier pipelines, irregular frontiers) and two capacity-limited
/// (register staircases, shared-memory bank conflicts), extending the
/// core suite's 11/3 split to 15/5 overall.
pub fn zoo(scale: &Scale) -> Vec<Workload> {
    use LimiterClass::{Capacity, Scheduling};
    vec![
        Workload {
            name: "divtree",
            mirrors: "data-dependent branch trees (ray/MC divergence)",
            class: Scheduling,
            kernel: DivergentTreeParams {
                ctas: scale.ctas,
                iters: scale.iters,
                ..DivergentTreeParams::default()
            }
            .build(),
        },
        Workload {
            name: "hotbins",
            mirrors: "contended atomic histogram (few hot bins)",
            class: Scheduling,
            kernel: HotBinsParams {
                ctas: scale.ctas,
                iters: scale.iters,
                ..HotBinsParams::default()
            }
            .build(),
        },
        Workload {
            name: "relay",
            mirrors: "producer-consumer warp pipeline (barrier relay)",
            class: Scheduling,
            kernel: RelayParams {
                ctas: scale.ctas,
                iters: scale.iters,
                ..RelayParams::default()
            }
            .build(),
        },
        Workload {
            name: "frontier",
            mirrors: "sparse graph frontier push (variable degree)",
            class: Scheduling,
            kernel: FrontierParams {
                ctas: scale.ctas,
                iters: scale.iters,
                ..FrontierParams::default()
            }
            .build(),
        },
        Workload {
            name: "regstairs",
            mirrors: "register-pressure staircase (deep live chains)",
            class: Capacity,
            kernel: RegStairsParams {
                ctas: scale.ctas,
                iters: scale.iters,
                ..RegStairsParams::default()
            }
            .build(),
        },
        Workload {
            name: "bankstorm",
            mirrors: "shared-memory bank-conflict sweep",
            class: Capacity,
            kernel: BankStormParams {
                ctas: scale.ctas,
                iters: scale.iters,
                ..BankStormParams::default()
            }
            .build(),
        },
    ]
}

/// The grown suite: the 14 core kernels plus the six-family zoo. This is
/// what the invariant gates (goldens, CPI oracle, differential tests,
/// `vtbench`, `vtlint --suite`) iterate.
pub fn full_suite(scale: &Scale) -> Vec<Workload> {
    let mut all = suite(scale);
    all.extend(zoo(scale));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_core::{occupancy, CoreConfig};

    #[test]
    fn suite_has_fourteen_distinct_workloads() {
        let s = suite(&Scale::test());
        assert_eq!(s.len(), 14);
        for (i, a) in s.iter().enumerate() {
            for b in &s[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn full_suite_is_core_plus_zoo_with_distinct_names() {
        let s = full_suite(&Scale::test());
        assert_eq!(s.len(), 14 + 6);
        assert_eq!(zoo(&Scale::test()).len(), 6);
        for (i, a) in s.iter().enumerate() {
            for b in &s[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn declared_limiter_classes_match_occupancy_analysis() {
        let core = CoreConfig::default();
        for w in full_suite(&Scale::test()) {
            let occ = occupancy::analyze(&core, &w.kernel);
            let is_sched = occ.limiter.is_scheduling();
            match w.class {
                LimiterClass::Scheduling => {
                    assert!(
                        is_sched,
                        "{} declared scheduling but is {:?}",
                        w.name, occ.limiter
                    )
                }
                LimiterClass::Capacity => {
                    assert!(
                        !is_sched,
                        "{} declared capacity but is {:?}",
                        w.name, occ.limiter
                    )
                }
            }
        }
    }

    #[test]
    fn majority_is_scheduling_limited_like_the_paper_claims() {
        let s = full_suite(&Scale::test());
        let sched = s
            .iter()
            .filter(|w| w.class == LimiterClass::Scheduling)
            .count();
        assert!(
            sched * 2 > s.len(),
            "{sched}/{} scheduling-limited",
            s.len()
        );
    }

    #[test]
    fn scale_changes_grid_size_only() {
        let a = full_suite(&Scale { ctas: 4, iters: 2 });
        let b = full_suite(&Scale { ctas: 8, iters: 2 });
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.kernel.threads_per_cta(), wb.kernel.threads_per_cta());
            assert_eq!(wa.kernel.regs_per_thread(), wb.kernel.regs_per_thread());
            assert_eq!(wb.kernel.num_ctas(), 8);
        }
    }
}
