//! parfait-serve — the pipeline as a long-running proof service.
//!
//! The batch tool verifies one cell at a time in one process; this
//! module turns the same pipeline into a daemon many developers and CI
//! jobs can hammer concurrently. The pieces:
//!
//! - [`protocol`] — the JSONL request/frame grammar (DESIGN.md §17).
//! - [`sched`] — the stage-level DAG scheduler: a batch of cells
//!   decomposes into unique (tenant, app, cpu, opt)-scoped stage nodes
//!   with fail-fast dependency edges, so a speccheck shared by every
//!   cell of an app runs once and unblocks all of them.
//! - [`server`] — the session loop (stdin/stdout or a Unix socket at
//!   `PARFAIT_SOCKET`), with per-line size caps and graceful drain.
//! - [`ServeCore`] — the shared state: one concurrent [`CertCache`]
//!   (single-flight, per-tenant namespaces), an app registry, and the
//!   thread budget.
//!
//! The stage *dependency* edges mirror the batch runner's fail-fast
//! execution order, not the compose-chain order: the four software
//! stages chain, the contract battery gates the hardware stages (a
//! leaky core fails fast with a named instruction class), the bound
//! stage gates FPS (which prices its cycle budget from the certified
//! WCET):
//!
//! ```text
//! speccheck → lockstep → equivalence → ctcheck → bound → fps
//! speccheck → contract ─────────────────────────↗
//! ```
//!
//! Result certificates are byte-identical to the batch runner's — the
//! stress harness (`tests/serve_stress.rs`) holds an 8-client
//! contended run to a sequential oracle byte-for-byte.

pub mod protocol;
pub mod sched;
pub mod server;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parfait_hsms::platform::Cpu;
use parfait_knox2::FpsObserver;
use parfait_littlec::codegen::OptLevel;
use parfait_telemetry::json::Json;
use parfait_telemetry::metrics::Metrics;
use parfait_telemetry::Telemetry;

use crate::apps::{AppPipeline, StdApp};
use crate::cache::CertCache;
use crate::certificate::compose;
use crate::pipeline::{Pipeline, StageOutcome};
use protocol::{error_frame, Mode, VerifyRequest};
use sched::DagNode;

/// One unique unit of schedulable work in a batch. The key's shape *is*
/// the sharing story: two requests whose keys collide (same tenant,
/// same app, and — where the stage cares — same cpu/opt) share the
/// node, so the stage runs once for both.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeKey {
    /// Spec-level census — shared by every cell of (tenant, app).
    Spec(String, String),
    /// Lockstep — shared like [`NodeKey::Spec`].
    Lockstep(String, String),
    /// Translation validation — per opt level.
    Equivalence(String, String, OptLevel),
    /// Constant-time lint — per opt level.
    CtCheck(String, String, OptLevel),
    /// Contract battery — per cpu, shared across opt levels.
    Contract(String, String, Cpu),
    /// Resource bounds — per (cpu, opt) cell.
    Bound(String, String, Cpu, OptLevel),
    /// Functional-physical simulation — per (cpu, opt) cell.
    Fps(String, String, Cpu, OptLevel),
}

/// A key displays as the name of the stage it runs: the `[stage]`
/// prefix of the node's errors, panics included.
impl std::fmt::Display for NodeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NodeKey::Spec(..) => "speccheck",
            NodeKey::Lockstep(..) => "lockstep",
            NodeKey::Equivalence(..) => "equivalence",
            NodeKey::CtCheck(..) => "ctcheck",
            NodeKey::Contract(..) => "contract",
            NodeKey::Bound(..) => "bound",
            NodeKey::Fps(..) => "fps",
        })
    }
}

/// The daemon's shared state: cache, telemetry, app registry, budget.
pub struct ServeCore {
    cache: CertCache,
    tel: Telemetry,
    apps: HashMap<String, Arc<AppPipeline>>,
    threads: usize,
    heartbeat: u64,
}

impl ServeCore {
    /// A core serving the standard app registry ([`StdApp::ALL`]).
    pub fn new(cache: CertCache, tel: Telemetry, threads: usize) -> ServeCore {
        let apps = StdApp::ALL.iter().map(|a| Arc::new(a.pipeline())).collect();
        ServeCore::with_apps(cache, tel, threads, apps)
    }

    /// A core serving an explicit registry — the seam the tests use to
    /// serve cheap fixture apps instead of the standard three.
    pub fn with_apps(
        cache: CertCache,
        tel: Telemetry,
        threads: usize,
        apps: Vec<Arc<AppPipeline>>,
    ) -> ServeCore {
        ServeCore {
            cache,
            tel,
            apps: apps.into_iter().map(|a| (a.slug.clone(), a)).collect(),
            threads: threads.max(1),
            heartbeat: 0,
        }
    }

    /// Enable FPS heartbeats every `cycles` simulated cycles (0
    /// disables; heartbeats are routed to per-node matrix-view lanes).
    pub fn with_heartbeat(mut self, cycles: u64) -> ServeCore {
        self.heartbeat = cycles;
        self
    }

    /// The registry the core's cache and scheduler account to.
    pub fn metrics(&self) -> &Metrics {
        self.cache.metrics()
    }

    /// The slugs this core can verify.
    pub fn app_slugs(&self) -> Vec<&str> {
        let mut slugs: Vec<&str> = self.apps.keys().map(String::as_str).collect();
        slugs.sort_unstable();
        slugs
    }

    /// The stage node keys a single request needs, in compose-chain
    /// order (the order its certificates chain into the composed one).
    fn request_nodes(req: &VerifyRequest) -> Vec<NodeKey> {
        let t = req.tenant.clone();
        let a = req.app.clone();
        let mut keys = vec![
            NodeKey::Spec(t.clone(), a.clone()),
            NodeKey::Lockstep(t.clone(), a.clone()),
            NodeKey::Equivalence(t.clone(), a.clone(), req.opt),
            NodeKey::CtCheck(t.clone(), a.clone(), req.opt),
        ];
        if req.mode == Mode::Cell {
            keys.push(NodeKey::Bound(t.clone(), a.clone(), req.cpu, req.opt));
            keys.push(NodeKey::Fps(t.clone(), a.clone(), req.cpu, req.opt));
            keys.push(NodeKey::Contract(t, a, req.cpu));
        }
        keys
    }

    /// A node's dependency edges (fail-fast order; see module docs).
    fn node_deps(key: &NodeKey) -> Vec<NodeKey> {
        match key {
            NodeKey::Spec(..) => vec![],
            NodeKey::Lockstep(t, a) => vec![NodeKey::Spec(t.clone(), a.clone())],
            NodeKey::Equivalence(t, a, _) => vec![NodeKey::Lockstep(t.clone(), a.clone())],
            NodeKey::CtCheck(t, a, o) => vec![NodeKey::Equivalence(t.clone(), a.clone(), *o)],
            NodeKey::Contract(t, a, _) => vec![NodeKey::Spec(t.clone(), a.clone())],
            NodeKey::Bound(t, a, c, o) => vec![
                NodeKey::CtCheck(t.clone(), a.clone(), *o),
                NodeKey::Contract(t.clone(), a.clone(), *c),
            ],
            NodeKey::Fps(t, a, c, o) => vec![NodeKey::Bound(t.clone(), a.clone(), *c, *o)],
        }
    }

    /// Execute a batch of verify requests and return one frame per
    /// request, in request order: a `result` frame with the composed
    /// certificate, or an `error` frame carrying the failing stage's
    /// `[stage]`-prefixed message.
    pub fn run_batch(&self, reqs: &[VerifyRequest]) -> Vec<Json> {
        let requests_total = |outcome: &str| {
            self.metrics().counter_with("serve_requests_total", &[("outcome", outcome)]).inc();
        };
        // Resolve each request against the registry; a rejected request
        // gets its error frame now and never reaches the scheduler.
        let mut rejected: HashMap<usize, String> = HashMap::new();
        let mut pipelines: HashMap<String, Pipeline> = HashMap::new();
        for (i, req) in reqs.iter().enumerate() {
            if !self.apps.contains_key(&req.app) {
                rejected.insert(
                    i,
                    format!("unknown app {:?} (known: {:?})", req.app, self.app_slugs()),
                );
                continue;
            }
            if !pipelines.contains_key(&req.tenant) {
                match self.cache.namespaced(&req.tenant) {
                    Ok(cache) => {
                        pipelines
                            .insert(req.tenant.clone(), Pipeline::new(cache, self.tel.clone()));
                    }
                    Err(e) => {
                        rejected.insert(i, e);
                        continue;
                    }
                }
            }
        }

        // The deduplicated node set across every accepted request.
        let mut keys: Vec<NodeKey> = Vec::new();
        let mut seen: HashSet<NodeKey> = HashSet::new();
        for (i, req) in reqs.iter().enumerate() {
            if rejected.contains_key(&i) {
                continue;
            }
            for key in Self::request_nodes(req) {
                for dep in Self::node_deps(&key) {
                    if seen.insert(dep.clone()) {
                        keys.push(dep);
                    }
                }
                if seen.insert(key.clone()) {
                    keys.push(key);
                }
            }
        }

        // Distinct heartbeat lanes for the FPS nodes, so the live
        // matrix view can route concurrent cells to their own rows.
        let mut fps_lane: HashMap<NodeKey, u64> = HashMap::new();
        for key in &keys {
            if matches!(key, NodeKey::Fps(..)) {
                fps_lane.insert(key.clone(), fps_lane.len() as u64 + 1);
            }
        }

        let nodes: Vec<DagNode<'_, NodeKey, StageOutcome>> = keys
            .into_iter()
            .map(|key| {
                let deps = Self::node_deps(&key);
                let run = self.node_runner(&pipelines, &fps_lane, key.clone());
                DagNode { key, deps, run }
            })
            .collect();

        let results = match sched::execute(self.threads, self.metrics(), nodes) {
            Ok(results) => results,
            // Structural scheduler errors cannot arise from the fixed
            // edge shape above; fail the whole batch loudly if one does.
            Err(e) => {
                return reqs
                    .iter()
                    .map(|r| error_frame(Some(&r.id), &format!("scheduler error: {e}")))
                    .collect();
            }
        };

        reqs.iter()
            .enumerate()
            .map(|(i, req)| {
                if let Some(e) = rejected.get(&i) {
                    requests_total("rejected");
                    return error_frame(Some(&req.id), e);
                }
                let outcomes: Vec<&StageOutcome> = match Self::request_nodes(req)
                    .iter()
                    .map(|k| results[k].as_ref())
                    .collect::<Result<_, _>>()
                {
                    Ok(v) => v,
                    Err(e) => {
                        requests_total("failed");
                        return error_frame(Some(&req.id), e);
                    }
                };
                let certs: Vec<_> = outcomes.iter().map(|o| o.certificate.clone()).collect();
                let composed = match compose(&certs) {
                    Ok(c) => c,
                    Err(e) => {
                        requests_total("failed");
                        return error_frame(Some(&req.id), &e.to_string());
                    }
                };
                requests_total("ok");
                Json::obj([
                    ("frame", Json::str("result")),
                    ("id", Json::str(&req.id)),
                    ("tenant", Json::str(&req.tenant)),
                    ("app", Json::str(&req.app)),
                    ("cpu", Json::str(req.cpu.to_string())),
                    ("opt", Json::str(req.opt.to_string())),
                    ("mode", Json::str(req.mode.as_str())),
                    ("cached", Json::Bool(outcomes.iter().all(|o| o.cache_hit))),
                    (
                        "stages",
                        Json::Arr(
                            outcomes
                                .iter()
                                .map(|o| {
                                    Json::obj([
                                        ("stage", Json::str(o.certificate.stage.as_str())),
                                        ("cache_hit", Json::Bool(o.cache_hit)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("composed", composed.to_json()),
                ])
            })
            .collect()
    }

    /// The closure that executes one node: the tenant's pipeline, the
    /// registry's app, the stage picked by the key. Errors are
    /// guaranteed `[stage]`-prefixed (the pipeline prefixes run
    /// failures; input-derivation failures are prefixed here).
    fn node_runner<'a>(
        &'a self,
        pipelines: &'a HashMap<String, Pipeline>,
        fps_lane: &HashMap<NodeKey, u64>,
        key: NodeKey,
    ) -> sched::NodeFn<'a, NodeKey, StageOutcome> {
        let (tenant, slug) = match &key {
            NodeKey::Spec(t, a)
            | NodeKey::Lockstep(t, a)
            | NodeKey::Equivalence(t, a, _)
            | NodeKey::CtCheck(t, a, _)
            | NodeKey::Contract(t, a, _)
            | NodeKey::Bound(t, a, _, _)
            | NodeKey::Fps(t, a, _, _) => (t.clone(), a.clone()),
        };
        let pipeline = &pipelines[&tenant];
        let app = Arc::clone(&self.apps[&slug]);
        let lane = fps_lane.get(&key).copied().unwrap_or(0);
        let tel = self.tel.clone();
        let heartbeat = self.heartbeat;
        Box::new(move |deps| {
            let out = match &key {
                NodeKey::Spec(..) => pipeline.speccheck_stage(&app),
                NodeKey::Lockstep(..) => pipeline.lockstep_stage(&app),
                NodeKey::Equivalence(_, _, opt) => pipeline.equivalence_stage(&app, *opt),
                NodeKey::CtCheck(_, _, opt) => pipeline.ctcheck_stage(&app, *opt),
                NodeKey::Contract(_, _, cpu) => pipeline.contract_stage(&app, *cpu),
                NodeKey::Bound(_, _, cpu, opt) => pipeline.bound_stage(&app, *cpu, *opt),
                NodeKey::Fps(t, a, cpu, opt) => {
                    let bound_key = NodeKey::Bound(t.clone(), a.clone(), *cpu, *opt);
                    let bound = deps.get(&bound_key).expect("fps depends on bound");
                    let obs = FpsObserver {
                        telemetry: tel.clone(),
                        heartbeat_cycles: heartbeat,
                        cell: lane,
                    };
                    pipeline.fps_stage_bounded(&app, *cpu, *opt, &obs, 1, bound)
                }
            };
            // `run_stage` failures arrive `[stage]`-prefixed; failures
            // upstream of it (input derivation, compile errors) do not.
            out.map_err(|e| if e.starts_with('[') { e } else { format!("[{key}] {e}") })
        })
    }
}
