//! `perfstat` — the deterministic performance ratchet driver.
//!
//! Runs three fixed workloads with the certificate cache disabled:
//!
//! 1. **lint**: the full static constant-time analysis of the hasher
//!    at `-O2` (IR taint + sparse assembly fixpoint).
//! 2. **fps**: the hasher's FPS hardware check on both platforms
//!    (exercising the pre-decoded instruction cache and the
//!    firmware-build memo — the second platform must reuse the first
//!    platform's build). Each check first runs the static bound
//!    analysis that prices its cycle budget, so the `bound_` coverage
//!    counters are gated here too.
//! 3. **contract**: the per-instruction-class stimulus battery that
//!    holds both cores to their declared leakage contracts (stimulus
//!    coverage is gated higher-is-better, wall under a ceiling).
//!
//! It then reads the counter *deltas* off the global metrics registry
//! and gates them against `perf_baseline.json` (see
//! [`parfait_bench::perf`]): deterministic counters must not get
//! worse, wall clock must stay under a generous ceiling. `--update`
//! rewrites the baseline but refuses regressions.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin perfstat -- --baseline perf_baseline.json
//! cargo run -p parfait-bench --release --bin perfstat -- --baseline perf_baseline.json --update
//! ```

use std::process::ExitCode;
use std::time::Instant;

use parfait_bench::perf::{check, update, Baseline, Measurement};
use parfait_bench::{emit_manifest, render_table, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{CertCache, Pipeline};
use parfait_telemetry::json::Json;
use parfait_telemetry::metrics::Metrics;
use parfait_telemetry::Telemetry;

fn usage() -> u8 {
    eprintln!("usage: perfstat --baseline <path> [--update] [--json <path>] [--metrics <path>]");
    1
}

/// Counter value by (name, labels) from the global registry.
fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    Metrics::global().counter_with(name, labels).get()
}

fn run_workloads() -> Result<Measurement, String> {
    // The gate's counters assume the decode cache is live; pin the
    // knob so an ambient `PARFAIT_DECODE_CACHE=0` (or a future default
    // flip) can't make the gate compare different configurations.
    std::env::set_var("PARFAIT_DECODE_CACHE", "1");
    let mut m = Measurement::default();
    let tel = Telemetry::disabled();

    // -- workload 1: static lint of the hasher at -O2
    let asm_iters0 = counter("analyzer_fixpoint_iterations_total", &[("layer", "asm")]);
    let ir_iters0 = counter("analyzer_fixpoint_iterations_total", &[("layer", "ir")]);
    let memo0 = counter("analyzer_memo_hits_total", &[("layer", "asm")]);
    eprintln!("perfstat: linting {} at -O2...", App::Hasher.slug());
    let t0 = Instant::now();
    let report = parfait_analyzer::lint_source(&App::Hasher.source(), OptLevel::O2, &tel)
        .map_err(|e| format!("lint workload: {e}"))?;
    m.walls.insert("lint_s".into(), t0.elapsed().as_secs_f64());
    if !report.is_clean() {
        return Err("lint workload: hasher unexpectedly has findings".into());
    }
    m.counters.insert(
        "lint_asm_fixpoint_iters".into(),
        counter("analyzer_fixpoint_iterations_total", &[("layer", "asm")]) - asm_iters0,
    );
    m.counters.insert(
        "lint_ir_fixpoint_iters".into(),
        counter("analyzer_fixpoint_iterations_total", &[("layer", "ir")]) - ir_iters0,
    );
    m.counters.insert(
        "lint_asm_memo_hits".into(),
        counter("analyzer_memo_hits_total", &[("layer", "asm")]) - memo0,
    );

    // -- workload 2: FPS hardware checks, both platforms, cache off
    let cycles0 = counter("fps_cycles_total", &[]);
    let hit0 = counter("decode_cache_hit", &[]);
    let miss0 = counter("decode_cache_miss", &[]);
    let builds_hit0 = counter("pipeline_firmware_builds_total", &[("outcome", "hit")]);
    let builds_miss0 = counter("pipeline_firmware_builds_total", &[("outcome", "miss")]);
    let pipeline = Pipeline::new(CertCache::disabled(), tel);
    let app = App::Hasher.pipeline();
    // The bound stage runs (uncached) inside each fps_stage call; its
    // coverage counters are labeled per cell, so sum both platforms.
    let bound_sum = |name: &str| {
        ["Ibex", "PicoRV32"]
            .iter()
            .map(|cpu| counter(name, &[("app", app.slug.as_str()), ("cpu", cpu), ("opt", "-O2")]))
            .sum::<u64>()
    };
    let bound_fns0 = bound_sum("bound_functions_total");
    let bound_loops0 = bound_sum("bound_loops_total");
    let t0 = Instant::now();
    for cpu in [Cpu::Ibex, Cpu::Pico] {
        eprintln!("perfstat: fps {}/{cpu} at -O2...", app.name);
        pipeline
            .fps_stage(&app, cpu, OptLevel::O2, &FpsObserver::default())
            .map_err(|e| format!("fps workload ({cpu}): {e}"))?;
    }
    m.walls.insert("fps_s".into(), t0.elapsed().as_secs_f64());
    m.counters.insert("fps_cycles".into(), counter("fps_cycles_total", &[]) - cycles0);
    let hits = counter("decode_cache_hit", &[]) - hit0;
    let misses = counter("decode_cache_miss", &[]) - miss0;
    let rate_ppm = (hits * 1_000_000).checked_div(hits + misses).unwrap_or(0);
    m.counters.insert("decode_cache_hit_rate_ppm".into(), rate_ppm);
    m.counters.insert(
        "firmware_build_hits".into(),
        counter("pipeline_firmware_builds_total", &[("outcome", "hit")]) - builds_hit0,
    );
    m.counters.insert(
        "firmware_build_misses".into(),
        counter("pipeline_firmware_builds_total", &[("outcome", "miss")]) - builds_miss0,
    );
    m.counters.insert("bound_functions".into(), bound_sum("bound_functions_total") - bound_fns0);
    m.counters.insert("bound_loops".into(), bound_sum("bound_loops_total") - bound_loops0);

    // -- workload 3: contract batteries, both cores
    let stim0 = counter("contract_stimuli_total", &[("cpu", "Ibex")])
        + counter("contract_stimuli_total", &[("cpu", "PicoRV32")]);
    let t0 = Instant::now();
    for cpu in [Cpu::Ibex, Cpu::Pico] {
        eprintln!("perfstat: contract battery on {cpu}...");
        pipeline
            .contract_stage(&app, cpu)
            .map_err(|e| format!("contract workload ({cpu}): {e}"))?;
    }
    m.walls.insert("contract_s".into(), t0.elapsed().as_secs_f64());
    let stim = counter("contract_stimuli_total", &[("cpu", "Ibex")])
        + counter("contract_stimuli_total", &[("cpu", "PicoRV32")]);
    m.counters.insert("contract_stimuli_total".into(), stim - stim0);
    Ok(m)
}

fn main() -> ExitCode {
    let code = run();
    emit_manifest("perfstat", 1, i32::from(code));
    ExitCode::from(code)
}

fn run() -> u8 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut do_update = false;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => return usage(),
            },
            "--update" => do_update = true,
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => return usage(),
            },
            "--metrics" => {
                if it.next().is_none() {
                    return usage();
                }
            }
            _ => return usage(),
        }
    }
    if let Err(e) = parfait_bench::metrics_path_from(args.iter().cloned()) {
        eprintln!("error: {e}");
        return usage();
    }
    let Some(baseline_path) = baseline_path else { return usage() };

    let m = match run_workloads() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };

    let mut rows: Vec<Vec<String>> =
        m.counters.iter().map(|(k, v)| vec![k.clone(), v.to_string()]).collect();
    rows.extend(m.walls.iter().map(|(k, v)| vec![k.clone(), format!("{v:.2}")]));
    println!(
        "{}",
        render_table("perfstat: deterministic hot-path counters", &["Metric", "Value"], &rows)
    );

    if let Some(path) = &json_path {
        let doc = Json::obj([
            ("artifact", Json::str("perfstat")),
            (
                "counters",
                Json::Obj(
                    m.counters.iter().map(|(k, &v)| (k.clone(), Json::Int(v as i64))).collect(),
                ),
            ),
            (
                "walls_s",
                Json::Obj(m.walls.iter().map(|(k, &v)| (k.clone(), Json::Num(v))).collect()),
            ),
        ]);
        if let Err(e) = write_json(std::path::Path::new(path), &doc) {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("wrote {path}");
    }

    let prev = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parfait_telemetry::json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| Baseline::from_json(&doc))
        {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("error: {baseline_path}: {e}");
                return 1;
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            eprintln!("error: {baseline_path}: {e}");
            return 1;
        }
    };

    if do_update {
        match update(prev.as_ref(), &m) {
            Ok(b) => {
                if let Err(e) = write_json(std::path::Path::new(&baseline_path), &b.to_json()) {
                    eprintln!("error: cannot write {baseline_path}: {e}");
                    return 1;
                }
                println!("perf baseline updated: {baseline_path}");
                0
            }
            Err(regressions) => {
                eprintln!(
                    "error: refusing to update {baseline_path}: {} counter(s) regressed:",
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                eprintln!("(fix the regression, or delete the baseline to accept it explicitly)");
                1
            }
        }
    } else {
        let Some(prev) = prev else {
            eprintln!(
                "error: {baseline_path} does not exist; create it with `perfstat --baseline \
                 {baseline_path} --update`"
            );
            return 1;
        };
        let verdict = check(&prev, &m);
        for note in &verdict.notes {
            eprintln!("note: {note}");
        }
        if !verdict.pass() {
            eprintln!("error: performance ratchet: {} violation(s):", verdict.violations.len());
            for v in &verdict.violations {
                eprintln!("  {v}");
            }
            return 1;
        }
        println!(
            "perf: ok ({} gated counters, {} wall ceilings)",
            prev.counters.len(),
            prev.wall_ceilings.len()
        );
        0
    }
}
