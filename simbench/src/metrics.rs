//! Turning passes and spans into named metrics, and the result line.

use crate::check::Expect;
use crate::plan::{Plan, Workload};
use crate::run::{self, Pass};
use crate::spans::{self, Layer, Span};
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use std::collections::BTreeMap;
use vt_bench::geomean;
use vt_json::Json;

/// The paper's headline: Virtual Thread improves IPC by 23.9% on average.
pub const PAPER_SPEEDUP: f64 = 1.239;

/// The reference loop's nominal time, which converts `wall_ref` back to
/// seconds for the drift-corrected `sm_cycles_per_s`: the loop takes
/// 4-6 ms on a 2-vCPU Sapphire Rapids KVM guest.
pub const REF_UNIT_S: f64 = 0.005;

/// A metric value with its unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// End-to-end metrics: name and unit, identical on every workload. Raw
/// host seconds per pass is the per-layer `host.wall_s`: across runs on
/// a shared 2-vCPU VM its spread reached 23-25% of its median, the
/// largest regression bound there is, while `wall_ref` stayed within
/// 3-11%.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_ref", "ratio"),
    ("sm_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("sim_ipc", "instr/cycle"),
    ("vt_speedup", "ratio"),
    ("vt_speedup_err", "ratio"),
    ("artifact_mb", "MB"),
    ("success_rate", "ratio"),
];

/// The 14 core kernels' names, for per-kernel metrics.
pub fn suite_names() -> Vec<&'static str> {
    vt_workloads::suite(&vt_workloads::Scale::test())
        .iter()
        .map(|w| w.name)
        .collect()
}

/// Per-layer metrics: name and unit, identical on every workload. A
/// layer the workload does not exercise reports 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        vec![("sim.execute_s".into(), "s"), ("sim.new_s".into(), "s")];
    for k in suite_names() {
        for arch in ["baseline", "vt"] {
            v.push((format!("sim.{k}.{arch}.sm_cycles_per_s"), "1/s"));
        }
    }
    v.push(("sim.idle_sm_frac".into(), "ratio"));
    for k in suite_names() {
        v.push((format!("sim.{k}.idle_frac"), "ratio"));
    }
    for (n, u) in [
        ("sim.cpi_issued_frac", "ratio"),
        ("sim.cpi_stalled_mem_frac", "ratio"),
        ("sim.cpi_empty_frac", "ratio"),
        ("sim.checkpoint_s", "s"),
        ("sim.checkpoint_text_s", "s"),
        ("sim.checkpoint_parse_s", "s"),
        ("sim.resume_s", "s"),
        ("sim.checkpoint_mb", "MB"),
        ("par.shard_speedup", "ratio"),
        ("par.sweep_efficiency", "ratio"),
        ("core.run_s", "s"),
        ("core.run_s_p90", "s"),
        ("core.run_count", "count"),
        ("core.cells", "count"),
        ("core.duplicate_cell_frac", "ratio"),
        ("core.swaps_per_kcycle", "1/kcycle"),
        ("workloads.build_s", "s"),
        ("analysis.model_s", "s"),
        ("mem.l1_hit_rate", "ratio"),
        ("mem.l2_hit_rate", "ratio"),
        ("mem.dram_row_hit_rate", "ratio"),
        ("mem.avg_load_latency_cycles", "cycles"),
        ("mem.mshr_merge_rate", "ratio"),
        ("trace.events", "count"),
        ("trace.chrome_s", "s"),
        ("trace.prometheus_s", "s"),
        ("bench.profile_record_s", "s"),
        ("bench.profile_load_s", "s"),
        ("bench.cpi_rank_s", "s"),
        ("json.render_s", "s"),
        ("json.parse_s", "s"),
        ("probe.overhead", "ratio"),
        ("host.wall_s", "s"),
        ("host.ref_s", "s"),
        ("bench.span_overhead", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    for l in Layer::ALL {
        v.push((format!("self.{}_s", l.name()), "s"));
    }
    v
}

/// Simulated results of one pass, all deterministic.
struct Sim {
    cycles: f64,
    sm_cycles: f64,
    thread_instrs: f64,
    vt_speedup: f64,
    artifact_bytes: f64,
}

fn sim_totals(plan: &Plan, expect: &Expect, pass: &Pass) -> Sim {
    let outs = &pass.cells;
    let by_key: BTreeMap<&str, u64> = outs
        .iter()
        .map(|r| (plan.cells[r.cell].key.as_str(), r.out.stats.cycles))
        .collect();
    let speedups: Vec<f64> = outs
        .iter()
        .filter_map(|r| {
            let base = plan.cells[r.cell].base.as_deref()?;
            let b = by_key.get(base).copied().or_else(|| expect.cycles(base))?;
            (r.out.stats.cycles > 0).then(|| b as f64 / r.out.stats.cycles as f64)
        })
        .collect();
    let sum = |f: &dyn Fn(&run::CellRun) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    Sim {
        cycles: sum(&|r| r.out.stats.cycles),
        sm_cycles: sum(&|r| r.out.sm_cycles()),
        thread_instrs: sum(&|r| r.out.stats.thread_instrs),
        vt_speedup: geomean(&speedups),
        artifact_bytes: sum(&|r| r.out.artifact_bytes),
    }
}

/// Sums over batches of the median over passes of `f(pass, batch)`: a
/// batch-wise median pass, so a contention episode that slows some
/// batches of one pass does not move the whole pass's figure.
fn per_batch_median(passes: &[Pass], f: impl Fn(&Pass, usize) -> f64) -> f64 {
    (0..passes.first().map_or(0, |p| p.batch_s.len()))
        .map(|b| median(&passes.iter().map(|p| f(p, b)).collect::<Vec<_>>()))
        .sum()
}

/// Host seconds per pass, as a batch-wise median.
fn wall_s(passes: &[Pass]) -> f64 {
    per_batch_median(passes, |p, b| p.batch_s[b])
}

/// The end-to-end metrics from untraced passes.
pub fn end_to_end(
    plan: &Plan,
    expect: &Expect,
    setups: &[(f64, Vec<Span>)],
    passes: &[Pass],
) -> Metrics {
    let wall_s = wall_s(passes);
    let wall_ref = per_batch_median(passes, |p, b| p.batch_s[b] / p.batch_ref_s[b]);
    let sim = sim_totals(plan, expect, &passes[0]);
    let attempted: usize = passes.iter().map(|p| p.cells.len()).sum();
    let ok = passes
        .iter()
        .flat_map(|p| &p.cells)
        .filter(|c| c.error.is_none())
        .count();
    let setup: Vec<f64> = setups.iter().map(|(s, _)| *s).collect();
    let refs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ref_s.iter().copied())
        .collect();
    let host: Vec<f64> = passes.iter().map(Pass::host_s).collect();
    eprintln!(
        "passes: host s {host:.3?}\n  raw host seconds per pass {wall_s:.4}, raw SM-cycles/s {:.0}, \
         wall_ref {wall_ref:.2}, median reference loop {:.3} ms",
        ratio(sim.sm_cycles, wall_s),
        median(&refs) * 1e3
    );
    if passes[0].batch_s.len() <= 16 {
        let per: Vec<f64> = (0..passes[0].batch_s.len())
            .map(|b| median(&passes.iter().map(|p| p.batch_s[b]).collect::<Vec<_>>()))
            .collect();
        eprintln!("  median batch seconds {per:.3?}");
    }
    let values = [
        median(&setup),
        wall_ref,
        ratio(sim.sm_cycles, wall_ref * REF_UNIT_S),
        peak_rss_mb(),
        sim.cycles,
        ratio(sim.thread_instrs, sim.cycles),
        sim.vt_speedup,
        (sim.vt_speedup - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP,
        sim.artifact_bytes / 1e6,
        ok as f64 / attempted.max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n.to_string(), v, u))
        .collect()
}

/// The per-layer metrics of a traced run: `plain` passes ran without
/// spans, `traced` with them, and `spans` holds the traced passes'
/// spans. `plain_s` is [`run::plain_seconds`] on sharded-kernels and
/// investigate.
pub fn per_layer(
    plan: &Plan,
    setups: &[(f64, Vec<Span>)],
    plain: &[Pass],
    traced: &[Pass],
    spans: &[Span],
    plain_s: Option<f64>,
) -> Metrics {
    let n = traced.len().max(1) as f64;
    let selfs = spans::self_times(spans);
    // Per-pass self seconds by span name and by layer.
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let mut by_layer: BTreeMap<Layer, f64> = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_default() += selfs[&s.id] / n;
        *by_layer.entry(s.layer).or_default() += selfs[&s.id] / n;
    }
    let name_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    // Engine seconds per cell, from the full-run `sim.execute` spans.
    let mut exec_by_cell: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "sim.execute") {
        *exec_by_cell.entry(s.cell).or_default() += s.dur();
    }
    let cells: Vec<&run::CellRun> = traced.iter().flat_map(|p| &p.cells).collect();

    let mut m: Metrics = Vec::new();
    let units: BTreeMap<String, &'static str> = per_layer_names().into_iter().collect();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v, units[name]));
    put(
        "sim.execute_s",
        name_s("sim.execute") + name_s("sim.execute_cut") + name_s("sim.execute_resumed"),
    );
    put("sim.new_s", name_s("sim.new"));
    for k in suite_names() {
        for arch in ["baseline", "vt"] {
            let (mut smc, mut secs) = (0.0, 0.0);
            for c in (0..plan.cells.len())
                .filter(|&c| plan.kernel_name(c) == k && plan.cells[c].cfg.arch.label() == arch)
            {
                secs += exec_by_cell.get(&(c as u32)).copied().unwrap_or(0.0);
                smc += cells
                    .iter()
                    .filter(|r| r.cell == c)
                    .map(|r| r.out.sm_cycles() as f64)
                    .sum::<f64>();
            }
            put(&format!("sim.{k}.{arch}.sm_cycles_per_s"), ratio(smc, secs));
        }
    }
    let idle = |f: &dyn Fn(usize) -> bool| {
        let (mut idle, mut smc) = (0.0, 0.0);
        for r in cells.iter().filter(|r| f(r.cell)) {
            idle += r.out.stats.idle.total() as f64;
            smc += r.out.sm_cycles() as f64;
        }
        ratio(idle, smc)
    };
    put("sim.idle_sm_frac", idle(&|_| true));
    for k in suite_names() {
        put(
            &format!("sim.{k}.idle_frac"),
            idle(&|c| plan.kernel_name(c) == k),
        );
    }
    let (mut issued, mut stall_mem, mut empty, mut total) = (0u64, 0u64, 0u64, 0u64);
    for r in &cells {
        let c = r.out.stats.cpi_stack();
        issued += c.issued;
        stall_mem += c.stall_memory;
        empty += c.empty();
        total += c.total();
    }
    let total = total as f64;
    put("sim.cpi_issued_frac", ratio(issued as f64, total));
    put("sim.cpi_stalled_mem_frac", ratio(stall_mem as f64, total));
    put("sim.cpi_empty_frac", ratio(empty as f64, total));
    put("sim.checkpoint_s", name_s("sim.checkpoint"));
    put("sim.checkpoint_text_s", name_s("sim.checkpoint_text"));
    put("sim.checkpoint_parse_s", name_s("sim.checkpoint_parse"));
    put("sim.resume_s", name_s("sim.resume"));
    let sum_out = |f: &dyn Fn(&run::CellRun) -> u64| cells.iter().map(|r| f(r)).sum::<u64>() as f64;
    put(
        "sim.checkpoint_mb",
        sum_out(&|r| r.out.checkpoint_bytes) / 1e6 / n,
    );

    let plain_host: Vec<f64> = plain.iter().map(Pass::host_s).collect();
    let traced_host: Vec<f64> = traced.iter().map(Pass::host_s).collect();
    let shard = match (plan.workload, plain_s) {
        (Workload::ShardedKernels, Some(serial)) => ratio(serial, median(&plain_host)),
        _ => 0.0,
    };
    put("par.shard_speedup", shard);
    let sweep_eff = if plan.workload == Workload::FigureGrid {
        let busy: f64 = plain.iter().flat_map(|p| &p.cells).map(|c| c.host_s).sum();
        ratio(busy, 2.0 * plain_host.iter().sum::<f64>())
    } else {
        0.0
    };
    put("par.sweep_efficiency", sweep_eff);

    let runs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.run")
        .map(Span::dur)
        .collect();
    put("core.run_s", median(&runs));
    put("core.run_s_p90", quantile(&runs, 0.9));
    put("core.run_count", runs.len() as f64);
    put("core.cells", plan.cells.len() as f64);
    put("core.duplicate_cell_frac", plan.duplicate_frac());
    put(
        "core.swaps_per_kcycle",
        1e3 * ratio(
            sum_out(&|r| r.out.stats.swaps.swaps_out),
            sum_out(&|r| r.out.stats.cycles),
        ),
    );
    let setup_layer = |name: &str| {
        let per: Vec<f64> = setups
            .iter()
            .map(|(_, sp)| sp.iter().filter(|s| s.name == name).map(Span::dur).sum())
            .collect();
        median(&per)
    };
    put("workloads.build_s", setup_layer("workloads.build"));
    put("analysis.model_s", setup_layer("analysis.model"));

    let mem = |f: &dyn Fn(&vt_mem::MemStats) -> u64| sum_out(&|r| f(&r.out.stats.mem));
    put(
        "mem.l1_hit_rate",
        ratio(mem(&|s| s.l1_hits), mem(&|s| s.l1_accesses)),
    );
    put(
        "mem.l2_hit_rate",
        ratio(mem(&|s| s.l2_hits), mem(&|s| s.l2_accesses)),
    );
    put(
        "mem.dram_row_hit_rate",
        ratio(
            mem(&|s| s.dram_row_hits),
            mem(&|s| s.dram_row_hits + s.dram_row_misses),
        ),
    );
    put(
        "mem.avg_load_latency_cycles",
        ratio(mem(&|s| s.load_latency_sum), mem(&|s| s.loads_completed)),
    );
    put(
        "mem.mshr_merge_rate",
        ratio(mem(&|s| s.l1_mshr_merged), mem(&|s| s.l1_misses)),
    );

    put("trace.events", sum_out(&|r| r.out.events) / n);
    put("trace.chrome_s", name_s("trace.chrome"));
    put("trace.prometheus_s", name_s("trace.prometheus"));
    put("bench.profile_record_s", name_s("bench.profile_record"));
    put("bench.profile_load_s", name_s("bench.profile_load"));
    put("bench.cpi_rank_s", name_s("bench.cpi_rank"));
    put("json.render_s", name_s("json.render"));
    put("json.parse_s", name_s("json.parse"));
    let probe = match (plan.workload, plain_s) {
        (Workload::Investigate, Some(unprobed)) => {
            let probed: f64 = spans
                .iter()
                .filter(|s| s.name == "core.run")
                .map(Span::dur)
                .sum::<f64>()
                / n;
            ratio(probed, unprobed)
        }
        _ => 0.0,
    };
    put("probe.overhead", probe);
    let refs: Vec<f64> = plain
        .iter()
        .chain(traced)
        .flat_map(|p| p.ref_s.iter().copied())
        .collect();
    put("host.wall_s", wall_s(plain));
    put("host.ref_s", median(&refs));
    put(
        "bench.span_overhead",
        ratio(median(&traced_host), median(&plain_host)),
    );

    eprintln!(
        "per-crate self time per traced pass (sweep workers' time adds up); \
         span overhead {:.3}:",
        ratio(median(&traced_host), median(&plain_host))
    );
    let pass_s = median(&traced_host);
    for l in Layer::ALL {
        let s = by_layer.get(&l).copied().unwrap_or(0.0);
        eprintln!(
            "  {:<13} {:>10.4} s  {:>5.1}%",
            l.name(),
            s,
            100.0 * ratio(s, pass_s)
        );
        put(&format!("self.{}_s", l.name()), s);
    }
    m
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, m: &Metrics) -> Json {
    let metrics = m
        .iter()
        .map(|(n, v, u)| {
            (
                n.clone(),
                Json::object(vec![
                    ("value".into(), Json::Float(*v)),
                    ("unit".into(), Json::Str((*u).to_string())),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted as u64)),
        ("failed".into(), Json::UInt(failed as u64)),
        ("metrics".into(), Json::object(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_counts_are_within_limits() {
        let layer = per_layer_names();
        assert!(END_TO_END.len() <= 16);
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(layer)
        {
            assert!(valid_name(&n), "bad metric name {n}");
            assert!(valid_unit(u), "bad unit {u} for {n}");
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
    }
}
