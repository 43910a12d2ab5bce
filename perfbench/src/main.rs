//! `perfbench` — one process of the repository benchmark.
//!
//! `run.py` generates each workload's inputs from its seed, writes them
//! to a JSON file and starts this binary: once per cold pass (a cold
//! pass pays the process-wide memos a CLI user pays on every run) and
//! once per warm-serve run. The binary drives the program only through
//! its public entry points (`Pipeline::*_stage`, `Pipeline::verify_cell`,
//! `run_mutant`, `ServeCore` over `serve_socket`), times the window, and
//! prints one JSON document that `run.py` checks against the known
//! answers and turns into metrics.
//!
//! ```text
//! perfbench <cold-edit|cold-platform|warm-serve> --inputs FILE [--trace FILE] [--setup-only]
//! ```
//!
//! Runs in a fresh, empty working directory: the certificate cache and
//! the serve socket live there.

mod cold;
mod layers;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use parfait_hsms::platform::Cpu;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{StageOutcome, StdApp};
use parfait_telemetry::json::{parse, Json};

use trace::Tracer;

/// What one process reports, in insertion order.
#[derive(Default)]
pub struct Out(Vec<(String, Json)>);

impl Out {
    pub fn put(&mut self, key: &str, value: Json) {
        self.0.push((key.to_string(), value));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.put(key, Json::Num(value));
    }
}

/// CPU time of this process so far (all threads, live and exited), in
/// seconds, from `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The timed window: wall and process CPU between `start` and `stop`.
pub struct Window {
    t0: Instant,
    cpu0: f64,
}

impl Window {
    pub fn start() -> Window {
        Window { t0: Instant::now(), cpu0: process_cpu_s() }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    pub fn stop(self, out: &mut Out) {
        out.num("wall_s", self.elapsed_s());
        out.num("cpu_s", process_cpu_s() - self.cpu0);
    }
}

pub fn parse_app(s: &str) -> Result<StdApp, String> {
    StdApp::from_slug(s).ok_or_else(|| format!("unknown app {s:?}"))
}

pub fn parse_cpu(s: &str) -> Result<Cpu, String> {
    match s {
        "ibex" => Ok(Cpu::Ibex),
        "pico" => Ok(Cpu::Pico),
        _ => Err(format!("unknown cpu {s:?}")),
    }
}

pub fn parse_opt(s: &str) -> Result<OptLevel, String> {
    match s {
        "-O0" => Ok(OptLevel::O0),
        "-O1" => Ok(OptLevel::O1),
        "-O2" => Ok(OptLevel::O2),
        _ => Err(format!("unknown opt {s:?}")),
    }
}

/// `inputs[key]` as a list of `[app, cpu, opt]` cells.
pub fn cells(inputs: &Json, key: &str) -> Result<Vec<(StdApp, Cpu, OptLevel)>, String> {
    let list = inputs.get(key).and_then(Json::as_array).ok_or(format!("inputs: missing {key}"))?;
    list.iter()
        .map(|c| {
            let f = |i: usize| c.as_array().and_then(|a| a.get(i)).and_then(Json::as_str);
            match (f(0), f(1), f(2)) {
                (Some(a), Some(c), Some(o)) => Ok((parse_app(a)?, parse_cpu(c)?, parse_opt(o)?)),
                _ => Err(format!("inputs: bad cell {c}")),
            }
        })
        .collect()
}

pub fn cpu_slug(cpu: Cpu) -> &'static str {
    match cpu {
        Cpu::Ibex => "ibex",
        Cpu::Pico => "pico",
    }
}

/// `app/cpu/opt`, the cell key of the reference file.
pub fn cell_key(app: &str, cpu: Cpu, opt: OptLevel) -> String {
    format!("{app}/{}/{opt}", cpu_slug(cpu))
}

/// A stage outcome as the checker sees it: claim and stats, no input
/// hash (a declared `SCHEMA` bump must not trip the known answers).
pub fn stage_json(o: &StageOutcome) -> Json {
    let c = &o.certificate;
    Json::obj([
        ("stage", Json::str(c.stage.as_str())),
        ("from", Json::str(&c.claim.0)),
        ("to", Json::str(&c.claim.1)),
        ("stats", Json::Obj(c.stats.iter().map(|(k, v)| (k.clone(), Json::Int(*v))).collect())),
        ("cache_hit", Json::Bool(o.cache_hit)),
    ])
}

/// One timed operation of the window (a cell, a mutant, a request).
pub fn op_json(kind: &str, name: &str, latency_s: f64, error: Option<&str>) -> Json {
    Json::obj([
        ("kind", Json::str(kind)),
        ("name", Json::str(name)),
        ("latency_s", Json::Num(latency_s)),
        ("error", error.map(Json::str).unwrap_or(Json::Null)),
    ])
}

fn run() -> Result<Out, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().cloned().ok_or("usage: perfbench <workload> --inputs FILE")?;
    let mut inputs_path = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut setup_only = false;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--inputs" => inputs_path = it.next().cloned(),
            "--trace" => trace_path = it.next().map(PathBuf::from),
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // Timings from a debug build say nothing about the program.
    if cfg!(debug_assertions) {
        return Err("refusing to measure a non-release build".into());
    }
    let path = inputs_path.ok_or("missing --inputs FILE")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let inputs = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let tracer = Tracer::new(trace_path.is_some());

    let mut out = Out::default();
    out.put("profile", Json::str("release"));
    match workload.as_str() {
        "cold-edit" => cold::cold_edit(&inputs, &tracer, setup_only, &mut out)?,
        "cold-platform" => cold::cold_platform(&inputs, &tracer, setup_only, &mut out)?,
        "warm-serve" => serve::warm_serve(&inputs, &tracer, setup_only, &mut out)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    out.num("peak_rss_mb", peak_rss_mb());
    if let Some(p) = trace_path {
        std::fs::write(&p, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", p.display()))?;
        out.put("spans", Json::Int(tracer.len() as i64));
        let self_times = tracer.self_times();
        out.put(
            "self_s",
            Json::Obj(self_times.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        );
    }
    Ok(out)
}

fn main() {
    match run() {
        Ok(out) => println!("{}", Json::Obj(out.0)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
