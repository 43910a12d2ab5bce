//! Scheduler-contract tests for the `parfait-serve` stage DAG (ISSUE
//! 10): randomized graphs execute in topological order with every
//! shared node computed exactly once, and at the service level a
//! failing stage fails exactly the requests that depend on it —
//! carrying the `[stage]`-prefixed error in the response frame — while
//! unrelated requests complete. A panicking node fails the same way
//! instead of hanging the batch.

mod common;

use std::collections::HashMap;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use parfait_pipeline::serve::sched::{execute, DagNode, Deps};
use parfait_pipeline::serve::server::handle_session;
use parfait_pipeline::{CertCache, ServeCore};
use parfait_telemetry::json::{parse, Json};
use parfait_telemetry::metrics::Metrics;
use parfait_telemetry::Telemetry;

/// A tiny deterministic generator (LCG) — the vendored corpus idiom:
/// seeded, reproducible runs, no wall-clock or OS entropy.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

/// Random DAGs (edges only point to earlier indices, like stage
/// dependencies point at earlier pipeline stages): every node must run
/// after all of its dependencies, exactly once, and see their values.
#[test]
fn random_dags_execute_topologically_and_once() {
    for seed in [3, 17, 2024, 90210] {
        let mut rng = Lcg(seed);
        let n = 12 + rng.next(20);
        // deps[i] ⊆ {0..i}: acyclic by construction, heavy sharing —
        // low-index nodes are "speccheck-like" keys shared by many.
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut d: Vec<usize> = (0..rng.next(4).min(i)).map(|_| rng.next(i)).collect();
                d.sort_unstable();
                d.dedup();
                d
            })
            .collect();
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let metrics = Metrics::new();
        let nodes: Vec<DagNode<usize, u64>> = deps
            .iter()
            .enumerate()
            .map(|(i, dep)| {
                let order = &order;
                let dep = dep.clone();
                DagNode {
                    key: i,
                    deps: dep.clone(),
                    run: Box::new(move |got: &Deps<usize, u64>| {
                        order.lock().unwrap().push(i);
                        // A node's value folds its deps' values, so a
                        // stale or missing dependency is detectable.
                        let mut v = i as u64 + 1;
                        for d in &dep {
                            v = v
                                .wrapping_mul(31)
                                .wrapping_add(*got.get(d).expect("dependency value delivered"));
                        }
                        Ok(v)
                    }),
                }
            })
            .collect();
        let results = execute(2, &metrics, nodes).expect("valid DAG executes");
        assert_eq!(results.len(), n);

        // Exactly once, in topological order.
        let ran = order.into_inner().unwrap();
        assert_eq!(ran.len(), n, "seed {seed}: every node runs exactly once");
        let position: HashMap<usize, usize> =
            ran.iter().enumerate().map(|(pos, &i)| (i, pos)).collect();
        for (i, dep) in deps.iter().enumerate() {
            for d in dep {
                assert!(
                    position[d] < position[&i],
                    "seed {seed}: node {i} ran before its dependency {d}"
                );
            }
        }
        // Values fold correctly — recompute the expected fixpoint.
        let mut expect: Vec<u64> = vec![0; n];
        for (i, dep) in deps.iter().enumerate() {
            let mut v = i as u64 + 1;
            for d in dep {
                v = v.wrapping_mul(31).wrapping_add(expect[*d]);
            }
            expect[i] = v;
        }
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(results[&i], Ok(*want), "seed {seed}: node {i} value");
        }
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("serve_nodes_total", &[("outcome", "ok")]),
            Some(n as u64),
            "seed {seed}"
        );
    }
}

/// Random failure injection: poison one random node per round; every
/// transitive dependent must fail with the poisoned node's exact error,
/// every other node must complete.
#[test]
fn random_failures_skip_exactly_the_transitive_dependents() {
    for seed in [7, 1234, 555555] {
        let mut rng = Lcg(seed);
        let n = 10 + rng.next(15);
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut d: Vec<usize> = (0..rng.next(3).min(i)).map(|_| rng.next(i)).collect();
                d.sort_unstable();
                d.dedup();
                d
            })
            .collect();
        let poisoned = rng.next(n);
        let nodes: Vec<DagNode<usize, u64>> = (0..n)
            .map(|i| DagNode {
                key: i,
                deps: deps[i].clone(),
                run: Box::new(move |_: &Deps<usize, u64>| {
                    if i == poisoned {
                        Err(format!("[equivalence] poisoned node {i}"))
                    } else {
                        Ok(i as u64)
                    }
                }),
            })
            .collect();
        let results = execute(2, &Metrics::new(), nodes).expect("valid DAG executes");

        // The transitive closure of dependents of `poisoned`.
        let mut doomed = vec![false; n];
        doomed[poisoned] = true;
        for i in 0..n {
            if deps[i].iter().any(|d| doomed[*d]) {
                doomed[i] = true;
            }
        }
        let expected_err = format!("[equivalence] poisoned node {poisoned}");
        for i in 0..n {
            if doomed[i] {
                assert_eq!(
                    results[&i],
                    Err(expected_err.clone()),
                    "seed {seed}: node {i} must carry the poisoned error verbatim"
                );
            } else {
                assert_eq!(results[&i], Ok(i as u64), "seed {seed}: node {i} must complete");
            }
        }
    }
}

/// A stage that panics must fail its node and skip its dependents like
/// any other failure, not wedge the batch: the coordinator must return.
#[test]
fn panicking_node_fails_its_dependents_instead_of_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    // On its own thread, so a hang fails the test instead of stalling
    // the whole binary.
    let worker = std::thread::spawn(move || {
        let nodes: Vec<DagNode<String, u64>> = vec![
            DagNode {
                key: "root".into(),
                deps: vec![],
                run: Box::new(|_: &Deps<String, u64>| panic!("checker bug")),
            },
            DagNode {
                key: "child".into(),
                deps: vec!["root".into()],
                run: Box::new(|_: &Deps<String, u64>| Ok(1)),
            },
            DagNode {
                key: "island".into(),
                deps: vec![],
                run: Box::new(|_: &Deps<String, u64>| Ok(2)),
            },
        ];
        tx.send(execute(2, &Metrics::new(), nodes)).ok();
    });
    let results = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("a panicking node must not hang the scheduler")
        .expect("valid DAG executes");
    worker.join().expect("execute returns instead of unwinding");
    let expected = Err("[root] panicked: checker bug".to_string());
    assert_eq!(results["root"], expected);
    assert_eq!(results["child"], expected, "the dependent is skipped with the panic's error");
    assert_eq!(results["island"], Ok(2), "the independent node still completes");
}

fn private_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parfait-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Service-level failure isolation, with real pipeline stages: a batch
/// mixing a good app and a behaviorally broken app (its implementation
/// diverges from the spec, so the shared lockstep stage fails). The
/// broken app's requests — across *both* its opt levels, which share
/// that lockstep node — fail with one `[stage]`-prefixed error; the
/// good app's requests complete; shared stages ran exactly once each.
#[test]
fn stage_failure_fails_only_dependent_requests() {
    // `resp[0] = 9` where the spec says 1: speccheck (spec-only) still
    // passes, the impl-vs-spec lockstep check fails.
    let broken_source = common::TOKEN_LC.replace("resp[0] = 1;", "resp[0] = 9;");
    assert_ne!(broken_source, common::TOKEN_LC);
    let apps = vec![
        Arc::new(common::token_app_pipeline("token-good", common::TOKEN_LC.to_string())),
        Arc::new(common::token_app_pipeline("token-bad", broken_source)),
    ];
    let dir = private_dir("serve-sched-failure");
    let cache = CertCache::at_with(dir.clone(), Metrics::new());
    let core = ServeCore::with_apps(cache, Telemetry::disabled(), 2, apps);

    let session = [
        r#"{"op":"verify","id":"good-o2","tenant":"alpha","app":"token-good","cpu":"ibex","opt":"-O2"}"#,
        r#"{"op":"verify","id":"bad-o2","tenant":"alpha","app":"token-bad","cpu":"ibex","opt":"-O2"}"#,
        r#"{"op":"verify","id":"bad-o1","tenant":"alpha","app":"token-bad","cpu":"ibex","opt":"-O1"}"#,
        r#"{"op":"flush"}"#,
    ]
    .join("\n")
        + "\n";
    let mut out = Vec::new();
    handle_session(&core, Cursor::new(session.into_bytes()), &mut out).expect("transport ok");

    let mut frames: HashMap<String, Json> = HashMap::new();
    for line in String::from_utf8(out).unwrap().lines() {
        let f = parse(line).unwrap();
        if let Some(id) = f.get("id").and_then(Json::as_str) {
            if f.get("frame").and_then(Json::as_str) != Some("status") {
                frames.insert(id.to_string(), f);
            }
        }
    }

    // The good app's request completed.
    let good = &frames["good-o2"];
    assert_eq!(good.get("frame").and_then(Json::as_str), Some("result"));
    assert!(good.get("composed").is_some());

    // Both broken requests failed with the same [stage]-prefixed error
    // (one shared lockstep node failed once and doomed both cells).
    let e_o2 = frames["bad-o2"].get("error").and_then(Json::as_str).expect("error frame");
    let e_o1 = frames["bad-o1"].get("error").and_then(Json::as_str).expect("error frame");
    assert!(e_o2.starts_with("[lockstep]"), "stage-prefixed error, got: {e_o2}");
    assert_eq!(e_o2, e_o1, "both dependents carry the shared stage's error verbatim");

    // Shared-once accounting: speccheck ran once per app, the broken
    // lockstep ran once (not once per opt level), and the failure
    // skipped the broken app's downstream nodes without touching the
    // good app's.
    let snap = core.metrics().snapshot();
    let miss = |stage: &str| {
        snap.counter("pipeline_stage_runs_total", &[("stage", stage), ("outcome", "miss")])
            .unwrap_or(0)
    };
    assert_eq!(miss("speccheck"), 2, "one speccheck per app");
    assert_eq!(miss("lockstep"), 1, "good app's lockstep; the broken one failed, not stored");
    assert!(
        snap.counter("serve_nodes_total", &[("outcome", "failed")]) == Some(1),
        "exactly one node failed"
    );
    let skipped = snap.counter("serve_nodes_total", &[("outcome", "skipped")]).unwrap_or(0);
    assert!(skipped >= 2, "both broken cells' downstream nodes skipped, got {skipped}");

    std::fs::remove_dir_all(&dir).ok();
}
