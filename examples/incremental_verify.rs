//! Incremental verification with the proof pipeline: verify the
//! password-hasher HSM end-to-end (speccheck → lockstep → equivalence
//! → FPS), then verify it again against the same certificate cache and
//! watch every stage come back as a near-instant cache hit.
//!
//! ```sh
//! cargo run --release --example incremental_verify
//! ```
//!
//! In day-to-day use, point `PARFAIT_CACHE_DIR` at a persistent
//! directory and run `verify`; this example uses a private temporary
//! cache so it is self-contained and always starts cold.

use std::time::Instant;

use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::{CellReport, CertCache, Pipeline, StdApp};

fn show(label: &str, cell: &CellReport, secs: f64) {
    println!("{label} ({secs:.3}s total):");
    for s in &cell.stages {
        println!(
            "  {:<12} {:>9.4}s  {}  {} ⇒ {}",
            s.certificate.stage.to_string(),
            s.wall.as_secs_f64(),
            if s.cache_hit { "[cache hit ]" } else { "[ran fresh ]" },
            s.certificate.claim.0,
            s.certificate.claim.1,
        );
    }
    println!(
        "  composed     end-to-end claim: {} ≈IPR {} (inputs {})",
        cell.composed.claim.0,
        cell.composed.claim.1,
        cell.composed.inputs.short()
    );
}

fn main() {
    let cache_dir =
        std::env::temp_dir().join(format!("parfait-incremental-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let app = StdApp::Hasher.pipeline();
    let obs = FpsObserver::default();

    // Cold: every stage runs and mints a certificate into the cache.
    let pipeline = Pipeline::new(CertCache::at(cache_dir.clone()), Default::default());
    let t0 = Instant::now();
    let cold = pipeline.verify_cell(&app, Cpu::Ibex, OptLevel::O2, &obs, 1).unwrap();
    let cold_secs = t0.elapsed().as_secs_f64();
    show("cold run", &cold, cold_secs);

    // Warm: a brand-new pipeline handle (as a fresh process would be)
    // finds every certificate on disk.
    let pipeline = Pipeline::new(CertCache::at(cache_dir.clone()), Default::default());
    let t0 = Instant::now();
    let warm = pipeline.verify_cell(&app, Cpu::Ibex, OptLevel::O2, &obs, 1).unwrap();
    let warm_secs = t0.elapsed().as_secs_f64();
    show("warm run", &warm, warm_secs);

    assert!(warm.fully_cached(), "warm run must be fully cached");
    assert_eq!(
        warm.composed.canonical(),
        cold.composed.canonical(),
        "cached certificates are byte-identical to fresh ones"
    );
    println!(
        "\nunchanged app re-verified {:.0}x faster ({cold_secs:.3}s → {warm_secs:.4}s); \
         certificates byte-identical",
        cold_secs / warm_secs.max(1e-9)
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}
