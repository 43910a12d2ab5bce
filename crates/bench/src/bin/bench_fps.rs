//! `bench_fps` — FPS checking throughput, one case at a time vs. the
//! matrix fan-out.
//!
//! Runs the Table 4 verification matrix ({ECDSA, hasher} × {Ibex,
//! PicoRV32}) twice through the same sequential checker: once one case
//! at a time, and once with the cases fanned out across the thread
//! budget. Reports per-case cycles, wall time, and simulation rate,
//! plus the aggregate `matrix_fanout_speedup`. Each FPS check is one
//! lock-step run on one thread, so the fan-out is the only parallelism
//! measured here.
//!
//! ```sh
//! cargo run -p parfait-bench --release --bin bench_fps -- --quick --json BENCH_fps.json
//! ```

use std::time::{Duration, Instant};

use parfait_bench::{json_output_path, render_table, threads_arg, write_json, App};
use parfait_hsms::platform::Cpu;
use parfait_knox2::{FpsConfig, FpsObserver, FpsReport};
use parfait_littlec::codegen::OptLevel;
use parfait_parallel::parallel_map;
use parfait_pipeline::{CertCache, Pipeline};
use parfait_telemetry::json::Json;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_arg();
    let apps: &[App] = if quick { &[App::Hasher] } else { &[App::Ecdsa, App::Hasher] };
    let matrix: Vec<(Cpu, App)> = [Cpu::Ibex, Cpu::Pico]
        .into_iter()
        .flat_map(|cpu| apps.iter().map(move |&app| (cpu, app)))
        .collect();
    let cases = matrix.len();
    // This benchmark measures *checking* throughput, so it deliberately
    // bypasses the certificate cache (run_fps): a cache hit would
    // measure a file read, not the checker.
    let pipeline = Pipeline::new(CertCache::disabled(), parfait_telemetry::Telemetry::disabled());
    let pipeline = &pipeline;
    let timeout = FpsConfig::default_timeout();
    let obs = FpsObserver::default();
    let obs = &obs;
    let check = move |(cpu, app): (Cpu, App)| -> (FpsReport, Duration) {
        let t0 = Instant::now();
        let report = pipeline
            .run_fps(&app.pipeline(), cpu, OptLevel::O2, obs, 1, timeout)
            .expect("verification passes");
        (report, t0.elapsed())
    };

    // Warm the process-wide memos (firmware builds, decode caches, spec
    // steps) first, so neither timed leg pays for them.
    for &case in &matrix {
        check(case);
    }

    // Baseline: one case at a time.
    let t_seq = Instant::now();
    let seq: Vec<_> = matrix.iter().map(|&case| check(case)).collect();
    let seq_total = t_seq.elapsed();

    // The matrix fan-out: the same checks, cases spread over the budget.
    let t_fan = Instant::now();
    let fan = parallel_map(threads.min(cases), matrix.clone(), |_, case| check(case));
    let fan_total = t_fan.elapsed();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for ((&(cpu, app), (seq_report, seq_wall)), (fan_report, fan_wall)) in
        matrix.iter().zip(&seq).zip(&fan)
    {
        assert_eq!(seq_report.cycles, fan_report.cycles, "runs must agree");
        rows.push(vec![
            cpu.to_string(),
            app.to_string(),
            format!("{}", seq_report.cycles),
            format!("{:.2}s", seq_wall.as_secs_f64()),
            format!("{:.2}s", fan_wall.as_secs_f64()),
            format!("{:.2}M", seq_report.cycles_per_second() / 1e6),
        ]);
        json_rows.push(Json::obj([
            ("platform", Json::str(cpu.to_string())),
            ("app", Json::str(app.to_string())),
            ("cycles", Json::Int(seq_report.cycles as i64)),
            ("seq_seconds", Json::Num(seq_wall.as_secs_f64())),
            ("fanout_seconds", Json::Num(fan_wall.as_secs_f64())),
            ("seq_cycles_per_second", Json::Num(seq_report.cycles_per_second())),
        ]));
    }
    let speedup = seq_total.as_secs_f64() / fan_total.as_secs_f64().max(1e-9);
    println!(
        "{}",
        render_table(
            "FPS checking throughput: one case at a time vs. matrix fan-out",
            &["Platform", "App", "Cycles", "Seq wall", "Fan-out wall", "Seq cyc/s"],
            &rows
        )
    );
    println!(
        "matrix fan-out: {:.2}s one at a time vs {:.2}s fanned out = {:.2}x across {} case(s), \
         {} thread(s)",
        seq_total.as_secs_f64(),
        fan_total.as_secs_f64(),
        speedup,
        cases,
        threads
    );
    if let Some(path) = json_output_path() {
        let doc = Json::obj([
            ("artifact", Json::str("bench_fps")),
            ("threads", Json::Int(threads as i64)),
            ("seq_total_seconds", Json::Num(seq_total.as_secs_f64())),
            ("fanout_total_seconds", Json::Num(fan_total.as_secs_f64())),
            ("matrix_fanout_speedup", Json::Num(speedup)),
            ("rows", Json::Arr(json_rows)),
        ]);
        write_json(&path, &doc).expect("write --json output");
        eprintln!("wrote {}", path.display());
    }
    // `--metrics <path>` writes the run manifest (bin, build id,
    // env knobs, core count, metrics snapshot); absent flag is a no-op.
    parfait_bench::emit_manifest("bench_fps", threads, 0);
}
