//! The two cold workloads. Each runs once per fresh process on an empty
//! certificate cache, so it pays every process-wide memo (firmware
//! build, decode cache, spec step memo) the way a CLI run does.

use std::collections::HashMap;
use std::sync::Arc;

use parfait_adversary::{catalog, controls, run_mutant, Mutation};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{AppPipeline, CertCache, Pipeline, StageOutcome, StdApp};
use parfait_telemetry::json::Json;
use parfait_telemetry::Telemetry;

use crate::layers::{self, Layers, Reg, Replay};
use crate::trace::Tracer;
use crate::{cell_key, cells, op_json, stage_json, Out, Window};

/// What both cold workloads share: the inputs, an empty cache in the
/// working directory, and the FPS thread budget.
struct Setup {
    cells: Vec<(StdApp, Cpu, OptLevel)>,
    apps: HashMap<&'static str, Arc<AppPipeline>>,
    pipeline: Pipeline,
    threads: usize,
}

fn setup(inputs: &Json) -> Result<Setup, String> {
    let cells = cells(inputs, "cells")?;
    let threads = inputs.get("threads").and_then(Json::as_u64).ok_or("inputs: missing threads")?;
    let mut apps = HashMap::new();
    for &(app, _, _) in &cells {
        apps.entry(app.slug()).or_insert_with(|| Arc::new(app.pipeline()));
    }
    let dir = std::env::current_dir().map_err(|e| e.to_string())?.join("cache");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let pipeline = Pipeline::new(CertCache::at(dir), Telemetry::disabled());
    Ok(Setup { cells, apps, pipeline, threads: threads as usize })
}

fn observer() -> FpsObserver {
    FpsObserver { telemetry: Telemetry::disabled(), heartbeat_cycles: 0, cell: 0 }
}

/// One cold pass: the timed operations, the cells' certificates for
/// the known-answer check, and the FPS totals of the fresh outcomes.
struct Pass {
    reg0: Reg,
    window: Window,
    ops: Vec<Json>,
    cells: Vec<Json>,
    outcomes: Vec<StageOutcome>,
    fps_wall: f64,
    fps_cpu: f64,
    fps_cycles: f64,
}

impl Pass {
    fn start() -> Pass {
        Pass {
            reg0: Reg::now(),
            window: Window::start(),
            ops: Vec::new(),
            cells: Vec::new(),
            outcomes: Vec::new(),
            fps_wall: 0.0,
            fps_cpu: 0.0,
            fps_cycles: 0.0,
        }
    }

    fn cell(&mut self, kind: &str, key: &str, t: f64, r: Result<Vec<StageOutcome>, String>) {
        match r {
            Ok(stages) => {
                for r in stages.iter().filter_map(|o| o.fps.as_ref()) {
                    self.fps_wall += r.wall.as_secs_f64();
                    self.fps_cpu += r.cpu.as_secs_f64();
                    self.fps_cycles += r.cycles as f64;
                }
                let json = stages.iter().map(stage_json).collect();
                self.cells.push(Json::obj([("cell", Json::str(key)), ("stages", Json::Arr(json))]));
                self.ops.push(op_json(kind, key, t, None));
                self.outcomes.extend(stages);
            }
            Err(e) => self.ops.push(op_json(kind, key, t, Some(&e))),
        }
    }

    /// Close the window and report; with tracing on, add the per-layer
    /// numbers: registry deltas, then sub-layer replays on the inputs.
    fn finish(self, tr: &Tracer, s: &Setup, replay: Replay, out: &mut Out) -> Result<(), String> {
        self.window.stop(out);
        let reg1 = Reg::now();
        out.put("ops", Json::Arr(self.ops));
        out.put("cells", Json::Arr(self.cells));
        if !tr.on() {
            return Ok(());
        }
        let mut layers = Layers::new();
        layers::registry_layers(&self.reg0, &reg1, &mut layers);
        layers.insert("knox2.fps_s".into(), self.fps_wall);
        layers.insert("knox2.fps_cpu_s".into(), self.fps_cpu);
        let per_cycle =
            if self.fps_cycles > 0.0 { self.fps_wall * 1e9 / self.fps_cycles } else { 0.0 };
        layers.insert("knox2.host_ns_per_cycle".into(), per_cycle);

        let mut combos: Vec<(StdApp, OptLevel)> = s.cells.iter().map(|c| (c.0, c.2)).collect();
        combos.sort_by_key(|(a, o)| (a.slug(), o.to_string()));
        combos.dedup();
        if replay.lint {
            // Lockstep runs only where the software stages do.
            let mut apps: Vec<StdApp> = combos.iter().map(|c| c.0).collect();
            apps.dedup();
            layers::replay_starling(tr, &apps, &mut layers)?;
        }
        layers::replay_software(tr, &combos, replay, &mut layers)?;
        layers::replay_hardware(tr, &s.cells, &mut layers)?;
        let cache = &s.pipeline.cache;
        let certs: Vec<_> =
            self.outcomes.iter().map(|o| (cache.clone(), o.certificate.clone())).collect();
        layers::replay_cache(tr, &certs, &mut layers)?;
        layers::put_layers(out, &layers);
        Ok(())
    }
}

/// `cold-edit`: a developer's edit loop. `verify_cell` on each listed
/// cell, then each listed adversary catalog entry through `run_mutant`.
pub fn cold_edit(
    inputs: &Json,
    tr: &Tracer,
    setup_only: bool,
    out: &mut Out,
) -> Result<(), String> {
    let s = setup(inputs)?;
    let wanted = inputs.get("mutants").and_then(Json::as_array).ok_or("inputs: missing mutants")?;
    let mut pool: HashMap<&str, Mutation> =
        catalog().into_iter().chain(controls()).map(|m| (m.class, m)).collect();
    let mutants: Vec<Mutation> = wanted
        .iter()
        .map(|c| {
            let class = c.as_str().unwrap_or_default();
            pool.remove(class).ok_or(format!("inputs: unknown mutant {c}"))
        })
        .collect::<Result<_, _>>()?;
    if setup_only {
        return Ok(());
    }

    let obs = observer();
    let mut pass = Pass::start();
    let root = tr.span("workload.cold-edit", None, 0);
    for (i, &(app, cpu, opt)) in s.cells.iter().enumerate() {
        let span = tr.span("verify_cell", root.id(), i as u64);
        let r = s.pipeline.verify_cell(&s.apps[app.slug()], cpu, opt, &obs, s.threads);
        let t = span.end();
        pass.cell("cell", &cell_key(app.slug(), cpu, opt), t, r.map(|report| report.stages));
    }
    let mut verdicts = Vec::new();
    for (i, m) in mutants.iter().enumerate() {
        let span = tr.span("run_mutant", root.id(), (s.cells.len() + i) as u64);
        // One FPS thread per mutant, as the catalog runner does: mutants
        // die within a few thousand cycles.
        let report = run_mutant(&s.pipeline, m, 1);
        let t = span.end();
        pass.ops.push(op_json("mutant", m.class, t, None));
        verdicts.push(Json::obj([
            ("class", Json::str(m.class)),
            ("verdict", Json::str(report.verdict())),
            ("detail", Json::str(&report.detail)),
            ("latency_s", Json::Num(t)),
        ]));
    }
    drop(root);
    out.put("mutants", Json::Arr(verdicts));
    pass.finish(tr, &s, Replay { validate: true, lint: true }, out)
}

/// `cold-platform`: bring up software-verified firmware on both SoCs.
/// Contract, bound and FPS for each listed cell, one cell at a time.
pub fn cold_platform(
    inputs: &Json,
    tr: &Tracer,
    setup_only: bool,
    out: &mut Out,
) -> Result<(), String> {
    let s = setup(inputs)?;
    if setup_only {
        return Ok(());
    }
    let obs = observer();
    let mut pass = Pass::start();
    let root = tr.span("workload.cold-platform", None, 0);
    for (i, &(app, cpu, opt)) in s.cells.iter().enumerate() {
        let (a, p, req) = (&s.apps[app.slug()], &s.pipeline, i as u64);
        let span = tr.span("cell", root.id(), req);
        let stage = |name: &str, f: &dyn Fn() -> Result<StageOutcome, String>| {
            let _s = tr.span(name, span.id(), req);
            f()
        };
        let r = stage("pipeline.contract", &|| p.contract_stage(a, cpu)).and_then(|contract| {
            let bound = stage("pipeline.bound", &|| p.bound_stage(a, cpu, opt))?;
            let run = stage("pipeline.fps", &|| {
                p.fps_stage_bounded(a, cpu, opt, &obs, s.threads, &bound)
            })?;
            Ok(vec![contract, bound, run])
        });
        let t = span.end();
        pass.cell("platform-cell", &cell_key(app.slug(), cpu, opt), t, r);
    }
    drop(root);
    // The bound stage's key derivation compiles each app: replay that
    // littlec work, but no lint (this workload runs none).
    pass.finish(tr, &s, Replay { validate: false, lint: false }, out)
}
