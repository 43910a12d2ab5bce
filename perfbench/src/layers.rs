//! Per-layer numbers: counts read from the program's `Metrics`
//! registry around the window, and sub-layer calls replayed on the
//! workload's inputs after the window (outside its span tree).

use std::collections::BTreeMap;

use parfait_hsms::platform::Cpu;
use parfait_hsms::syssw;
use parfait_knox2::{FpsConfig, FpsObserver};
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{CertCache, Pipeline, StageCertificate, StdApp};
use parfait_telemetry::json::Json;
use parfait_telemetry::metrics::{Metrics, MetricsSnapshot};
use parfait_telemetry::Telemetry;

use crate::trace::Tracer;
use crate::Out;

/// Per-layer values of one process, by metric name.
pub type Layers = BTreeMap<String, f64>;

pub fn put_layers(out: &mut Out, layers: &Layers) {
    let obj = layers.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
    out.put("layers", Json::Obj(obj));
}

/// A snapshot of the global registry.
pub struct Reg(MetricsSnapshot);

fn matches(labels: &[(String, String)], filter: &[(&str, &str)]) -> bool {
    filter.iter().all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
}

impl Reg {
    pub fn now() -> Reg {
        Reg(Metrics::global().snapshot())
    }

    /// Sum of a counter over the label sets that include `filter`.
    pub fn counter(&self, name: &str, filter: &[(&str, &str)]) -> f64 {
        let hits =
            self.0.counters.iter().filter(|(k, _)| k.name == name && matches(&k.labels, filter));
        hits.map(|(_, v)| *v as f64).sum()
    }

    /// `(count, sum)` of a histogram over the label sets that include
    /// `filter`.
    pub fn hist(&self, name: &str, filter: &[(&str, &str)]) -> (f64, f64) {
        let hits =
            self.0.hists.iter().filter(|(k, _)| k.name == name && matches(&k.labels, filter));
        hits.fold((0.0, 0.0), |(n, s), (_, h)| (n + h.count as f64, s + h.sum as f64))
    }
}

/// Registry deltas between two snapshots, as per-layer metrics.
pub fn registry_layers(a: &Reg, b: &Reg, layers: &mut Layers) {
    let c = |name: &str, f: &[(&str, &str)]| b.counter(name, f) - a.counter(name, f);
    let h = |name: &str, f: &[(&str, &str)]| {
        let (n1, s1) = b.hist(name, f);
        let (n0, s0) = a.hist(name, f);
        (n1 - n0, s1 - s0)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut busy_total = 0.0;
    for stage in STAGES {
        let f = [("stage", stage)];
        let keyhash = h("pipeline_artifact_hash_us", &f).1 / 1e6;
        let busy = h("pipeline_stage_wall_us", &f).1 / 1e6 + keyhash;
        busy_total += busy;
        layers.insert(format!("pipeline.{stage}.busy_s"), busy);
        layers.insert(format!("pipeline.{stage}.keyhash_s"), keyhash);
    }
    for stage in ["ctcheck", "fps"] {
        let busy = layers[&format!("pipeline.{stage}.busy_s")];
        layers.insert(format!("pipeline.{stage}.busy_share"), ratio(busy, busy_total));
    }
    let fw_hit = c("pipeline_firmware_builds_total", &[("outcome", "hit")]);
    let fw_miss = c("pipeline_firmware_builds_total", &[("outcome", "miss")]);
    layers.insert("pipeline.firmware_build.hit_ratio".into(), ratio(fw_hit, fw_hit + fw_miss));

    let hits = c("certcache_memory_hit", &[]) + c("certcache_disk_hit", &[]);
    let misses = c("certcache_miss", &[]);
    layers.insert("pipeline.cache.hit_ratio".into(), ratio(hits, hits + misses));
    layers.insert("pipeline.cache.misses".into(), misses);
    layers.insert("pipeline.cache.writes".into(), c("certcache_write", &[]));
    layers.insert("pipeline.cache.write_errors".into(), c("certcache_write_error", &[]));
    layers
        .insert("pipeline.cache.singleflight_waits".into(), c("certcache_singleflight_wait", &[]));

    for layer in ["ir", "asm"] {
        let iters = c("analyzer_fixpoint_iterations_total", &[("layer", layer)]);
        layers.insert(format!("analyzer.{layer}.fixpoint_iters"), iters);
    }
    let memo_hits = c("analyzer_memo_hits_total", &[("layer", "asm")]);
    let fn_runs = h("analyzer_fn_lint_us", &[("layer", "asm")]).0;
    layers.insert("analyzer.asm.memo_hit_ratio".into(), ratio(memo_hits, memo_hits + fn_runs));

    layers.insert("knox2.cycles".into(), c("fps_cycles_total", &[]));
    layers.insert("knox2.prepass_cycles".into(), c("fps_prepass_cycles_total", &[]));
    layers.insert("knox2.segments".into(), c("fps_segments_checked_total", &[]));
    layers.insert("knox2.snapshot_fork_s".into(), h("fps_snapshot_fork_us", &[]).1 / 1e6);
    let busy = c("pool_worker_busy_ns", &[]);
    let idle = c("pool_worker_idle_ns", &[]);
    layers.insert("parallel.busy_ratio".into(), ratio(busy, busy + idle));
    let dh = c("decode_cache_hit", &[]);
    let dm = c("decode_cache_miss", &[]);
    layers.insert("riscv.decode_hit_ratio".into(), ratio(dh, dh + dm));
    layers.insert("serve.nodes".into(), c("serve_nodes_total", &[]));
}

/// The seven stages, in execution order.
pub const STAGES: [&str; 7] =
    ["speccheck", "lockstep", "equivalence", "ctcheck", "contract", "bound", "fps"];

fn combo(app: StdApp, opt: OptLevel) -> String {
    format!("{}.{}", app.slug(), opt.to_string().trim_start_matches('-'))
}

/// Which software sub-layers to replay.
pub struct Replay {
    pub validate: bool,
    pub lint: bool,
}

/// Replay the littlec (and, with `lint`, analyzer) sub-layers of each
/// distinct app × opt on the same inputs the workload used.
pub fn replay_software(
    tr: &Tracer,
    combos: &[(StdApp, OptLevel)],
    what: Replay,
    layers: &mut Layers,
) -> Result<(), String> {
    let root = tr.span("replay.software", None, 0);
    let parent = root.id();
    let mut add = |name: String, v: f64| *layers.entry(name).or_insert(0.0) += v;
    for &(app, opt) in combos {
        let p = app.pipeline();
        let k = combo(app, opt);
        let (program, t) =
            tr.time("littlec.frontend", parent, || parfait_littlec::frontend(&p.source));
        let program = program.map_err(|e| e.to_string())?;
        add(format!("littlec.frontend_s.{k}"), t);
        let (ir, t) = tr.time("littlec.lower", parent, || parfait_littlec::ir::lower(&program));
        let ir = ir.map_err(|e| e.to_string())?;
        add(format!("littlec.lower_s.{k}"), t);
        let (asm, t) =
            tr.time("littlec.compile", parent, || parfait_littlec::compile(&program, opt));
        let asm = asm.map_err(|e| e.to_string())?;
        add(format!("littlec.compile_s.{k}"), t);
        if what.validate {
            let cases = equivalence_cases(&p);
            let (r, t) = tr.time("littlec.validate", parent, || {
                parfait_littlec::validate::validate_handle(&program, opt, p.sizes.response, &cases)
            });
            r.map_err(|e| e.to_string())?;
            add(format!("littlec.validate_s.{k}"), t);
        }
        if what.lint {
            let entry = parfait_analyzer::HANDLER_ENTRY;
            let (r, t) =
                tr.time("analyzer.lint_ir", parent, || parfait_analyzer::lint_ir(&ir, entry));
            r.map_err(|e| e.to_string())?;
            add(format!("analyzer.lint_ir_s.{k}"), t);
            let (prog, t) = tr.time("riscv.assemble", parent, || parfait_riscv::assemble(&asm));
            let prog = prog.map_err(|e| e.to_string())?;
            add("riscv.assemble_s".into(), t);
            let (r, t) =
                tr.time("analyzer.lint_asm", parent, || parfait_analyzer::lint_asm(&prog, entry));
            r.map_err(|e| e.to_string())?;
            add(format!("analyzer.lint_asm_s.{k}"), t);
        }
    }
    Ok(())
}

/// The equivalence stage's (state, command) grid: both states, each
/// against the workload, an all-invalid and an all-zero command.
fn equivalence_cases(app: &parfait_pipeline::AppPipeline) -> Vec<(Vec<u8>, Vec<u8>)> {
    let n = app.sizes.command;
    let commands = [app.workload.clone(), vec![0xEE; n], vec![0u8; n]];
    let mut cases = Vec::new();
    for state in [&app.dummy_state, &app.secret_state] {
        for cmd in &commands {
            cases.push((state.clone(), cmd.clone()));
        }
    }
    cases
}

/// Replay Starling for each app of the workload.
pub fn replay_starling(tr: &Tracer, apps: &[StdApp], layers: &mut Layers) -> Result<(), String> {
    let mut total = 0.0;
    for &app in apps {
        let p = app.pipeline();
        let (r, t) = tr.time("starling.verify", None, || (p.starling)(&Telemetry::disabled()));
        r?;
        total += t;
    }
    layers.insert("starling.verify_s".into(), total);
    Ok(())
}

/// Replay the hardware sub-layers of each cell: the contract battery
/// per cpu, the whole-firmware bound analysis, and FPS at one thread
/// (the sequential baseline of the workload's parallel FPS).
pub fn replay_hardware(
    tr: &Tracer,
    cells: &[(StdApp, Cpu, OptLevel)],
    layers: &mut Layers,
) -> Result<(), String> {
    let root = tr.span("replay.hardware", None, 0);
    let parent = root.id();
    let mut cpus: Vec<Cpu> = Vec::new();
    for &(_, cpu, _) in cells {
        if !cpus.contains(&cpu) {
            cpus.push(cpu);
        }
    }
    let mut battery = 0.0;
    for cpu in cpus {
        let (r, t) = tr.time("cores.battery", parent, || {
            let mut make = || -> Box<dyn parfait_cores::Core> {
                match cpu {
                    Cpu::Ibex => Box::new(parfait_cores::IbexCore::with_fault(0, None)),
                    Cpu::Pico => Box::new(parfait_cores::PicoCore::with_fault(0, None)),
                }
            };
            parfait_cores::check_core(&mut make, Pipeline::core_contract(cpu))
        });
        r.map_err(|e| e.to_string())?;
        battery += t;
    }
    layers.insert("cores.battery_s".into(), battery);

    let regions = bound_regions();
    let pipeline = Pipeline::new(CertCache::disabled(), Telemetry::disabled());
    let obs = FpsObserver { telemetry: Telemetry::disabled(), heartbeat_cycles: 0, cell: 0 };
    let (mut bound, mut seq, mut seq_cycles) = (0.0, 0.0, 0.0);
    for &(app, cpu, opt) in cells {
        let p = app.pipeline();
        let linked = linked_asm(&p, opt)?;
        let contract = Pipeline::core_contract(cpu);
        let (r, t) = tr.time("analyzer.bound", parent, || {
            parfait_analyzer::bound_asm(&linked, "_start", contract, &regions)
        });
        let report = r.map_err(|e| e.to_string())?;
        bound += t;
        let timeout = FpsConfig::resolve_timeout(Some(report.wcet_cycles));
        let (r, _) =
            tr.time("knox2.fps_seq", parent, || pipeline.run_fps(&p, cpu, opt, &obs, 1, timeout));
        let fps = r?;
        seq += fps.wall.as_secs_f64();
        seq_cycles += fps.cycles as f64;
    }
    layers.insert("analyzer.bound_s".into(), bound);
    layers.insert("knox2.fps_seq_s".into(), seq);
    layers.insert("knox2.fps_seq_cycles".into(), seq_cycles);
    Ok(())
}

/// The SoC memory map as the bound analysis sees it.
fn bound_regions() -> parfait_analyzer::BoundRegions {
    use parfait_soc::{FRAM_BASE, FRAM_SIZE, IO_BASE, RAM_BASE, ROM_BASE, STACK_FLOOR};
    parfait_analyzer::BoundRegions {
        text_base: ROM_BASE,
        data_base: RAM_BASE,
        mmio: (IO_BASE, IO_BASE + 16),
        fram: (FRAM_BASE, FRAM_BASE + FRAM_SIZE),
        stack_floor: STACK_FLOOR,
    }
}

/// The linked whole-firmware assembly: boot shim, then the app and the
/// generated system software compiled at `opt`.
fn linked_asm(app: &parfait_pipeline::AppPipeline, opt: OptLevel) -> Result<String, String> {
    let s = app.sizes;
    let mut source = app.source.clone();
    source.push_str(&syssw::syssw_source(s.state, s.command, s.response));
    let program = parfait_littlec::frontend(&source).map_err(|e| e.to_string())?;
    let compiled = parfait_littlec::compile(&program, opt).map_err(|e| e.to_string())?;
    Ok(format!("{}{compiled}", syssw::BOOT_ASM))
}

/// Time `CertCache::lookup` and `CertCache::store` per call on the
/// certificates the workload returned; medians in seconds.
pub fn replay_cache(
    tr: &Tracer,
    certs: &[(CertCache, StageCertificate)],
    layers: &mut Layers,
) -> Result<(), String> {
    let root = tr.span("replay.cache", None, 0);
    let parent = root.id();
    let (mut lookups, mut stores) = (Vec::new(), Vec::new());
    for (cache, cert) in certs {
        let (hit, t) = tr.time("cache.lookup", parent, || cache.lookup(cert.stage, cert.inputs));
        if hit.as_ref() != Some(cert) {
            return Err(format!("cache replay: {} certificate not found on lookup", cert.stage));
        }
        lookups.push(t);
        let ((), t) = tr.time("cache.store", parent, || cache.store(cert));
        stores.push(t);
    }
    layers.insert("pipeline.cache.lookup_s".into(), median(&mut lookups));
    layers.insert("pipeline.cache.store_s".into(), median(&mut stores));
    Ok(())
}

pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
