//! `verify` — the command-line verification driver, the analogue of
//! running the Knox2/Starling toolchain on an app×platform combination
//! (§8.1: "the only requirement is to run Knox2 on the new
//! software/hardware combination").
//!
//! Runs the unified proof pipeline: `speccheck → lockstep →
//! equivalence → ctcheck → contract → fps`, composing the per-stage
//! certificates into one end-to-end IPR claim per platform (the
//! contract battery executes before FPS but its certificate is a
//! self-loop at the SoC level, so it composes after). With `PARFAIT_CACHE_DIR` set,
//! stages whose inputs are unchanged are near-instant cache hits, so
//! re-verifying an unchanged app costs milliseconds.
//!
//! When stderr is a terminal, a live matrix view shows one lane per
//! verification cell (current stage, cache fast-forwards, cycles/s fed
//! by FPS heartbeats). `--metrics <path>` writes a
//! [`parfait_telemetry::manifest::RunManifest`] — build id, env knobs,
//! thread count, exit status, and the full metrics snapshot.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin verify -- --app hasher --platform ibex
//! cargo run -p parfait-bench --release --bin verify -- --app ecdsa  --platform pico --software-only
//! cargo run -p parfait-bench --release --bin verify -- --app totp   --platform both --metrics m.json
//! ```

use std::process::ExitCode;

use parfait_bench::{emit_manifest, metrics_path_from, threads_from, write_json};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_parallel::parallel_map;
use parfait_pipeline::{compose, Pipeline, StageCertificate, StageOutcome, StdApp};
use parfait_telemetry::json::Json;
use parfait_telemetry::progress::MatrixView;
use parfait_telemetry::sinks::{Fanout, LogSink};
use parfait_telemetry::{Recorder, Telemetry};

fn usage() -> u8 {
    eprintln!(
        "usage: verify --app <ecdsa|hasher|totp> --platform <ibex|pico|both> \
         [--software-only|--hardware-only] [--threads <n>] [--json <path>] \
         [--metrics <path>] [--trace]"
    );
    1
}

/// One stage outcome as a table/JSON row: name, stats, cache flag.
fn describe(outcome: &StageOutcome, platform: Option<Cpu>) -> (String, Json) {
    let cert = &outcome.certificate;
    let stats = cert.stats.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(", ");
    let line = format!(
        "  [{}{}] OK in {:.2}s{}: {stats}",
        cert.stage,
        platform.map(|c| format!("/{c}")).unwrap_or_default(),
        outcome.wall.as_secs_f64(),
        if outcome.cache_hit { " [cached]" } else { "" },
    );
    let mut fields = vec![
        ("stage".to_string(), Json::str(cert.stage.as_str())),
        ("claim_from".to_string(), Json::str(&cert.claim.0)),
        ("claim_to".to_string(), Json::str(&cert.claim.1)),
        ("inputs".to_string(), Json::str(cert.inputs.to_string())),
        ("cached".to_string(), Json::Bool(outcome.cache_hit)),
        ("seconds".to_string(), Json::Num(outcome.wall.as_secs_f64())),
    ];
    if let Some(cpu) = platform {
        fields.insert(1, ("platform".to_string(), Json::str(cpu.to_string())));
    }
    fields.extend(cert.stats.iter().map(|(k, v)| (k.clone(), Json::Int(*v))));
    (line, Json::Obj(fields))
}

fn main() -> ExitCode {
    let mut threads_used = 1usize;
    let code = run(&mut threads_used);
    // The manifest records the exit status, so it is written for
    // failed verifications too (only when `--metrics` was given).
    emit_manifest("verify", threads_used, i32::from(code));
    ExitCode::from(code)
}

fn run(threads_used: &mut usize) -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut app_name = None;
    let mut platform = "ibex".to_string();
    let mut software = true;
    let mut hardware = true;
    let mut json_path: Option<String> = None;
    let mut trace = std::env::var_os("PARFAIT_TRACE").is_some();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--app" => app_name = it.next().cloned(),
            "--platform" => platform = it.next().cloned().unwrap_or_default(),
            "--software-only" => hardware = false,
            "--hardware-only" => software = false,
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => return usage(),
            },
            "--trace" => trace = true,
            "--threads" | "--metrics" => {
                // Validated below (threads_from / metrics_path_from)
                // over the full args.
                if it.next().is_none() {
                    return usage();
                }
            }
            _ => return usage(),
        }
    }
    let threads = match threads_from(args.iter().cloned()) {
        Ok(Some(n)) => n,
        Ok(None) => parfait_parallel::default_threads(),
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    *threads_used = threads;
    if let Err(e) = metrics_path_from(args.iter().cloned()) {
        eprintln!("error: {e}");
        return usage();
    }
    let Some(name) = app_name else { return usage() };
    let Some(app) = StdApp::from_slug(&name) else { return usage() };
    let cpus: Vec<Cpu> = match platform.as_str() {
        "ibex" => vec![Cpu::Ibex],
        "pico" => vec![Cpu::Pico],
        "both" => vec![Cpu::Ibex, Cpu::Pico],
        _ => return usage(),
    };
    // The live matrix view, only when stderr is really a terminal (CI
    // logs and pipes never see ANSI control sequences).
    let view = MatrixView::stderr_if_tty();
    // `--trace` (or PARFAIT_TRACE=1) streams spans, counters, and
    // periodic FPS heartbeats to stderr while the checks run. The view
    // taps the same event stream for its cycles/s lanes.
    let mut sinks: Vec<Box<dyn Recorder>> = Vec::new();
    if trace {
        sinks.push(Box::new(LogSink::stderr()));
    }
    if let Some(v) = &view {
        sinks.push(Box::new(v.sink()));
    }
    let tel = match sinks.len() {
        0 => Telemetry::disabled(),
        1 => Telemetry::new(sinks.pop().expect("len checked")),
        _ => Telemetry::new(Box::new(Fanout::new(sinks))),
    };
    // Heartbeat cadence in simulated cycles (PARFAIT_HEARTBEAT
    // overrides; 0 disables; garbage is a loud error). The hasher check
    // runs a few hundred thousand cycles, the ECDSA checks tens of
    // millions.
    let heartbeat_cycles = parfait_telemetry::env::heartbeat_loud();
    let opt = OptLevel::O2;
    let pipeline = Pipeline::from_env(tel.clone());
    let a = app.pipeline();

    // Lane ids double as the `cell` value FPS heartbeats carry, and as
    // the `cell` label on the `fps_cycles_per_second` gauge — so the
    // display and the metrics snapshot agree by construction. Without a
    // view the ids are still allocated, keeping the gauge labels
    // distinct per platform.
    let mut next_cell = 0u64;
    let mut lane = |label: &str| match &view {
        Some(v) => v.add_lane(label),
        None => {
            let c = next_cell;
            next_cell += 1;
            c
        }
    };
    let sw_cell = if software { Some(lane(&format!("{}/starling/{opt}", a.name))) } else { None };
    let hw_cells: Vec<(Cpu, u64)> = if hardware {
        cpus.iter().map(|&cpu| (cpu, lane(&format!("{}/{cpu}/{opt}", a.name)))).collect()
    } else {
        Vec::new()
    };
    let finish = |code: u8| {
        tel.finish();
        if let Some(v) = &view {
            v.finish();
        }
        code
    };

    let mut json_results: Vec<Json> = Vec::new();
    let mut hits = 0usize;
    let mut total = 0usize;
    println!(
        "verifying {} ... (cache: {})",
        a.name,
        pipeline.cache.dir().map_or("per-process memo".into(), |d| d.display().to_string())
    );
    let mut software_certs: Vec<StageCertificate> = Vec::new();
    if software {
        let cell = sw_cell.expect("allocated above");
        if let Some(v) = &view {
            v.set_stage(cell, "speccheck", false);
        }
        match pipeline.software_stages(&a, opt) {
            Ok(stages) => {
                for s in &stages {
                    if let Some(v) = &view {
                        v.set_stage(cell, s.certificate.stage.as_str(), s.cache_hit);
                    }
                    let (line, json) = describe(s, None);
                    println!("{line}");
                    json_results.push(json);
                    hits += s.cache_hit as usize;
                    total += 1;
                }
                software_certs = stages.into_iter().map(|s| s.certificate).collect();
                if let Some(v) = &view {
                    v.finish_lane(cell, true);
                }
            }
            Err(e) => {
                if let Some(v) = &view {
                    v.finish_lane(cell, false);
                }
                println!("  [starling] FAILED: {e}");
                return finish(1);
            }
        }
    }
    if hardware {
        // Independent platform checks fan out across the thread budget.
        let cases = hw_cells.len();
        let (a, pipeline, tel, view) = (&a, &pipeline, &tel, &view);
        let outcomes = parallel_map(cases.min(threads), hw_cells, move |_, (cpu, cell)| {
            // Execution order mirrors `verify_cell`: the cheap contract
            // battery holds the core to its declared leakage contract,
            // then the static bound analysis certifies the resource
            // envelope (and prices the FPS budget), before the
            // expensive FPS check spins up.
            if let Some(v) = view {
                v.set_stage(cell, "contract", false);
            }
            let outcome = pipeline.contract_stage(a, cpu).and_then(|contract| {
                if let Some(v) = view {
                    v.set_stage(cell, "bound", false);
                }
                let bound = pipeline.bound_stage(a, cpu, opt)?;
                if let Some(v) = view {
                    v.set_stage(cell, "fps", false);
                }
                let obs = FpsObserver { telemetry: tel.clone(), heartbeat_cycles, cell };
                pipeline
                    .fps_stage_bounded(a, cpu, opt, &obs, 1, &bound)
                    .map(|fps| (contract, bound, fps))
            });
            (cpu, cell, outcome)
        });
        for (cpu, cell, outcome) in outcomes {
            match outcome {
                Ok((contract, bound, s)) => {
                    if let Some(v) = view {
                        v.set_stage(cell, "fps", s.cache_hit);
                        v.finish_lane(cell, true);
                    }
                    for o in [&contract, &bound, &s] {
                        let (line, json) = describe(o, Some(cpu));
                        println!("{line}");
                        json_results.push(json);
                        hits += o.cache_hit as usize;
                        total += 1;
                    }
                    if software {
                        // Chain the cell's seven certificates into the
                        // end-to-end claim (the transitivity theorem);
                        // the bound cert is a self-loop at the asm
                        // level and the contract cert a self-loop at
                        // the SoC level, so they compose around FPS.
                        let mut certs = software_certs.clone();
                        certs.push(bound.certificate);
                        certs.push(s.certificate);
                        certs.push(contract.certificate);
                        match compose(&certs) {
                            Ok(c) => {
                                println!(
                                    "  [composed/{cpu}] {} ≈IPR {} ({} stages, inputs {})",
                                    c.claim.0,
                                    c.claim.1,
                                    c.stages.len(),
                                    c.inputs.short()
                                );
                                json_results.push(Json::obj([
                                    ("stage", Json::str("composed")),
                                    ("platform", Json::str(cpu.to_string())),
                                    ("claim_from", Json::str(&c.claim.0)),
                                    ("claim_to", Json::str(&c.claim.1)),
                                    ("inputs", Json::str(c.inputs.to_string())),
                                    ("stages", Json::Int(c.stages.len() as i64)),
                                ]));
                            }
                            Err(e) => {
                                println!("  [composed/{cpu}] FAILED: {e}");
                                return finish(1);
                            }
                        }
                    }
                }
                Err(e) => {
                    if let Some(v) = view {
                        v.finish_lane(cell, false);
                    }
                    println!("  [knox2/{cpu}] FAILED: {e}");
                    return finish(1);
                }
            }
        }
    }
    if let Some(path) = json_path {
        let doc = Json::obj([
            ("app", Json::str(&a.name)),
            ("cache_hits", Json::Int(hits as i64)),
            ("stages", Json::Int(total as i64)),
            ("results", Json::Arr(json_results)),
        ]);
        let path = std::path::PathBuf::from(path);
        if let Err(e) = write_json(&path, &doc) {
            eprintln!("could not write {}: {e}", path.display());
            return finish(1);
        }
        eprintln!("wrote {}", path.display());
    }
    println!(
        "verification complete: the SoC refines the {} specification ({hits}/{total} stages cached)",
        a.name
    );
    finish(0)
}
