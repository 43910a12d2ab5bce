//! Drive mutants through the seven-stage pipeline and record which
//! stage kills each one.
//!
//! A mutant "run" is the same staged verification a production app
//! gets — speccheck, lockstep, equivalence, ctcheck, then the core's
//! contract battery, then the static resource-bound analysis, then
//! FPS — except
//! the FPS cycle budget is bounded: a mutation that wedges the firmware
//! (a lost return address, a clobbered stack pointer) must fail the run
//! in seconds, not simulate the production 8-billion-cycle budget to a
//! timeout. The bound matches the repo's integration-test budget and
//! sits two orders of magnitude above any fixture's honest run, so it
//! never masks a slow-but-correct mutant.
//!
//! Kill attribution parses the `[stage]` prefix that
//! [`parfait_pipeline::Pipeline`] wraps every stage error in; the
//! bounded FPS path reproduces the same prefix, so one parser covers
//! both.

use std::time::{Duration, Instant};

use parfait_knox2::FpsObserver;
use parfait_parallel::parallel_map;
use parfait_pipeline::{Pipeline, StageKind};
use parfait_telemetry::json::Json;

use crate::catalog::{Level, Mutation};

/// FPS cycle budget per mutant (see module docs).
pub const MUTANT_FPS_TIMEOUT: u64 = 5_000_000;

/// The outcome of one mutant run.
pub struct MutantReport {
    /// The mutation class.
    pub class: String,
    /// The level the fault was seeded at.
    pub level: Level,
    /// The stage that killed it, or `None` for a survivor.
    pub killed_by: Option<StageKind>,
    /// The killing stage's error message (empty for survivors).
    pub detail: String,
    /// Wall time for the whole run.
    pub wall: Duration,
}

impl MutantReport {
    /// `"killed:<stage>"` or `"survived"`.
    pub fn verdict(&self) -> String {
        match self.killed_by {
            Some(stage) => format!("killed:{stage}"),
            None => "survived".to_string(),
        }
    }
}

/// Attribute a pipeline error to its stage via the `[stage] ` prefix.
fn parse_kill(err: &str) -> (Option<StageKind>, String) {
    if let Some(rest) = err.strip_prefix('[') {
        if let Some((stage, detail)) = rest.split_once("] ") {
            if let Some(kind) = StageKind::from_name(stage) {
                return (Some(kind), detail.to_string());
            }
        }
    }
    // An unattributed error (build failure, compose error) is *not* a
    // stage kill; surface it verbatim so the harness fails loudly.
    (None, err.to_string())
}

/// Run one mutant through all seven stages, in the execution order
/// `verify_cell` uses: the contract battery runs before FPS, so a core
/// whose observables break its declared contract dies there with a
/// named instruction class instead of as an opaque FPS divergence, and
/// the static bound analysis runs before FPS so a firmware whose
/// resource envelope is unprovable never reaches the simulator.
///
/// `_threads` is ignored; it goes in the next benchmark change.
pub fn run_mutant(pipeline: &Pipeline, m: &Mutation, _threads: usize) -> MutantReport {
    let t0 = Instant::now();
    let app = (m.build)();
    let obs = FpsObserver { telemetry: pipeline.tel.clone(), heartbeat_cycles: 0, cell: 0 };
    let outcome = pipeline
        .software_stages(&app, m.opt)
        .and_then(|_| pipeline.contract_stage(&app, m.cpu).map(|_| ()))
        .and_then(|_| pipeline.bound_stage(&app, m.cpu, m.opt).map(|_| ()))
        .and_then(|_| {
            pipeline
                .run_fps(&app, m.cpu, m.opt, &obs, 1, MUTANT_FPS_TIMEOUT)
                .map(|_| ())
                .map_err(|e| format!("[fps] {e}"))
        });
    let (killed_by, detail) = match outcome {
        Ok(()) => (None, String::new()),
        Err(e) => parse_kill(&e),
    };
    MutantReport {
        class: m.class.to_string(),
        level: m.level,
        killed_by,
        detail,
        wall: t0.elapsed(),
    }
}

/// Run a set of mutations, fanning mutants out over the thread budget.
///
/// The shared certificate cache is consulted per stage, so tamper-only
/// mutants reuse the clean software certificates.
pub fn run_catalog(pipeline: &Pipeline, muts: &[Mutation], threads: usize) -> Vec<MutantReport> {
    let indices: Vec<usize> = (0..muts.len()).collect();
    parallel_map(threads.max(1), indices, move |_, i| run_mutant(pipeline, &muts[i], 1))
}

/// The `(level × stage)` detection matrix: how many mutants of each
/// level each stage killed (plus a survivor column).
pub struct Matrix {
    /// One row per level present in the run, in stack order.
    pub rows: Vec<(Level, [usize; 7], usize)>,
}

impl Matrix {
    /// Tally reports into a matrix.
    pub fn tally(reports: &[MutantReport]) -> Matrix {
        let mut rows: Vec<(Level, [usize; 7], usize)> = Vec::new();
        for level in Level::ALL {
            let mut cells = [0usize; 7];
            let mut survived = 0usize;
            for r in reports.iter().filter(|r| r.level == level) {
                match r.killed_by {
                    Some(stage) => {
                        let col = StageKind::ALL.iter().position(|k| *k == stage).unwrap();
                        cells[col] += 1;
                    }
                    None => survived += 1,
                }
            }
            if cells.iter().sum::<usize>() + survived > 0 {
                rows.push((level, cells, survived));
            }
        }
        Matrix { rows }
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "level     speccheck  lockstep  equivalence  ctcheck  bound  fps  contract  survived\n",
        );
        for (level, cells, survived) in &self.rows {
            out.push_str(&format!(
                "{:<9} {:>9}  {:>8}  {:>11}  {:>7}  {:>5}  {:>3}  {:>8}  {:>8}\n",
                level.as_str(),
                cells[0],
                cells[1],
                cells[2],
                cells[3],
                cells[4],
                cells[5],
                cells[6],
                survived
            ));
        }
        out
    }
}

/// Serialize a run (reports + matrix) for `--json` and the benchmark.
pub fn reports_to_json(reports: &[MutantReport], threads: usize) -> Json {
    let matrix = Matrix::tally(reports);
    Json::obj([
        ("schema", Json::str("parfait-mutatest-v1")),
        ("threads", Json::Int(threads as i64)),
        ("mutants", Json::Int(reports.len() as i64)),
        ("survivors", Json::Int(reports.iter().filter(|r| r.killed_by.is_none()).count() as i64)),
        (
            "results",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("class", Json::str(&r.class)),
                            ("level", Json::str(r.level.as_str())),
                            ("verdict", Json::str(r.verdict())),
                            ("detail", Json::str(&r.detail)),
                            ("wall_ms", Json::Int(r.wall.as_millis() as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "matrix",
            Json::Obj(
                matrix
                    .rows
                    .iter()
                    .map(|(level, cells, survived)| {
                        let mut row: Vec<(String, Json)> = StageKind::ALL
                            .iter()
                            .zip(cells)
                            .map(|(k, c)| (k.as_str().to_string(), Json::Int(*c as i64)))
                            .collect();
                        row.push(("survived".to_string(), Json::Int(*survived as i64)));
                        (level.as_str().to_string(), Json::Obj(row))
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_parsing_attributes_stage_prefixes() {
        let (k, d) = parse_kill("[lockstep] starling: response mismatch");
        assert_eq!(k, Some(StageKind::Lockstep));
        assert_eq!(d, "starling: response mismatch");
        let (k, d) = parse_kill("[fps] trace divergence at cycle 9");
        assert_eq!(k, Some(StageKind::Fps));
        assert_eq!(d, "trace divergence at cycle 9");
        // Unknown stage and plain errors stay unattributed.
        assert_eq!(parse_kill("[warp] x").0, None);
        assert_eq!(parse_kill("compile error: ...").0, None);
    }

    #[test]
    fn matrix_tallies_by_level_and_stage() {
        let reports = vec![
            MutantReport {
                class: "a".into(),
                level: Level::Crypto,
                killed_by: Some(StageKind::Lockstep),
                detail: String::new(),
                wall: Duration::ZERO,
            },
            MutantReport {
                class: "b".into(),
                level: Level::Crypto,
                killed_by: None,
                detail: String::new(),
                wall: Duration::ZERO,
            },
            MutantReport {
                class: "c".into(),
                level: Level::Soc,
                killed_by: Some(StageKind::Fps),
                detail: String::new(),
                wall: Duration::ZERO,
            },
        ];
        let m = Matrix::tally(&reports);
        assert_eq!(m.rows.len(), 2);
        assert_eq!(m.rows[0], (Level::Crypto, [0, 1, 0, 0, 0, 0, 0], 1));
        assert_eq!(m.rows[1], (Level::Soc, [0, 0, 0, 0, 0, 1, 0], 0));
        let json = reports_to_json(&reports, 2);
        assert_eq!(json.get("survivors").and_then(Json::as_i64), Some(1));
        assert_eq!(
            json.get("matrix")
                .and_then(|m| m.get("crypto"))
                .and_then(|r| r.get("lockstep"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert!(m.render().contains("crypto"));
    }
}
