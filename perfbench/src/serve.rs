//! `warm-serve`: CI jobs re-requesting unchanged proofs from the daemon.
//!
//! Set-up starts a `ServeCore` on an empty cache behind `serve_socket`
//! and fills it with one cold pass over the request grid. The window
//! then runs closed-loop clients, each sending single-request
//! `verify` + `flush` sessions over the Unix socket, and holds every
//! result frame byte-for-byte to the set-up pass's certificate.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use parfait_littlec::codegen::OptLevel;
use parfait_pipeline::serve::protocol::{parse_request, Request, VerifyRequest};
use parfait_pipeline::serve::server::serve_socket;
use parfait_pipeline::{CertCache, ServeCore, StageCertificate, StdApp};
use parfait_telemetry::json::{parse, Json};
use parfait_telemetry::Telemetry;

use crate::layers::{self, median, Layers, Reg, Replay};
use crate::trace::Tracer;
use crate::{cpu_slug, op_json, Out, Window};

/// Relative, so the path stays short however deep the checkout is.
const SOCKET: &str = "serve.sock";

/// One session: send `lines`, half-close, read every frame to EOF.
fn session(lines: &[&str]) -> Result<Vec<Json>, String> {
    let mut stream = UnixStream::connect(SOCKET).map_err(|e| format!("connect: {e}"))?;
    let mut text = String::new();
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    stream.write_all(text.as_bytes()).map_err(|e| format!("send: {e}"))?;
    stream.shutdown(Shutdown::Write).map_err(|e| format!("send: {e}"))?;
    let mut frames = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("receive: {e}"))?;
        frames.push(parse(&line).map_err(|e| format!("bad frame {line:?}: {e}"))?);
    }
    Ok(frames)
}

fn verify_request(line: &str) -> Result<VerifyRequest, String> {
    match parse_request(line) {
        Ok(Request::Verify(r)) => Ok(r),
        Ok(_) => Err(format!("not a verify request: {line}")),
        Err(e) => Err(e.error),
    }
}

/// The cell a request names; result frames of equal keys must be equal.
fn request_key(r: &VerifyRequest) -> String {
    format!("{}/{}/{}/{}/{}", r.tenant, r.app, cpu_slug(r.cpu), r.opt, r.mode.as_str())
}

/// The frame answering request `id`: `Ok(composed)` or `Err(message)`.
fn answer(frames: &[Json], id: &str) -> Result<String, String> {
    let frame = frames
        .iter()
        .find(|f| {
            f.get("id").and_then(Json::as_str) == Some(id)
                && f.get("frame").and_then(Json::as_str) != Some("status")
        })
        .ok_or_else(|| format!("no frame answered {id}"))?;
    match frame.get("frame").and_then(Json::as_str) {
        Some("result") => {
            frame.get("composed").map(Json::to_string).ok_or("result without composed".into())
        }
        _ => {
            Err(frame.get("error").and_then(Json::as_str).unwrap_or("malformed frame").to_string())
        }
    }
}

fn wait_for_socket() -> Result<(), String> {
    let t0 = Instant::now();
    while UnixStream::connect(SOCKET).is_err() {
        if t0.elapsed() > Duration::from_secs(10) {
            return Err("server socket never came up".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn stop_server() -> Result<(), String> {
    let frames = session(&[r#"{"op":"shutdown"}"#])?;
    match frames.last().and_then(|f| f.get("frame")).and_then(Json::as_str) {
        Some("bye") => Ok(()),
        _ => Err("server did not acknowledge shutdown".into()),
    }
}

/// The set-up pass: the grid in one session, then one flush.
/// Returns each key's composed certificate text.
fn fill(grid: &[String]) -> Result<HashMap<String, String>, String> {
    let mut lines: Vec<&str> = grid.iter().map(String::as_str).collect();
    lines.push(r#"{"op":"flush"}"#);
    let frames = session(&lines)?;
    let mut composed = HashMap::new();
    for line in grid {
        let r = verify_request(line)?;
        let c = answer(&frames, &r.id).map_err(|e| format!("set-up {}: {e}", request_key(&r)))?;
        composed.insert(request_key(&r), c);
    }
    Ok(composed)
}

/// One request's outcome in the window.
struct Done {
    latency_s: f64,
    error: Option<String>,
}

/// Closed-loop clients over `traffic` for `seconds`.
fn window(
    tr: &Tracer,
    clients: usize,
    seconds: f64,
    traffic: &[String],
    expect: &HashMap<String, String>,
    out: &mut Out,
) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let w = Window::start();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                if t0.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let line = &traffic[i % traffic.len()];
                let span = tr.span("request", None, i as u64);
                let result = verify_request(line).and_then(|r| {
                    let frames = session(&[line, r#"{"op":"flush"}"#])?;
                    let got = answer(&frames, &r.id)?;
                    match expect.get(&request_key(&r)) {
                        Some(want) if *want == got => Ok(()),
                        Some(_) => Err(format!("{}: result differs from set-up", request_key(&r))),
                        None => Err(format!("{}: not in the set-up grid", request_key(&r))),
                    }
                });
                let latency_s = span.end();
                done.lock().unwrap().push(Done { latency_s, error: result.err() });
            });
        }
    });
    w.stop(out);
    done.into_inner().unwrap()
}

fn strings(inputs: &Json, key: &str) -> Result<Vec<String>, String> {
    let list = inputs.get(key).and_then(Json::as_array).ok_or(format!("inputs: missing {key}"))?;
    Ok(list.iter().filter_map(Json::as_str).map(str::to_string).collect())
}

/// Start a `ServeCore` on the cache at `dir` behind `serve_socket`, run
/// `work` against it, then shut the server down and join it.
fn with_server<T>(
    dir: &str,
    threads: usize,
    work: impl FnOnce(&ServeCore, &CertCache) -> Result<T, String>,
) -> Result<T, String> {
    let cache = CertCache::at(Path::new(dir).to_path_buf());
    let core = ServeCore::new(cache.clone(), Telemetry::disabled(), threads);
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_socket(&core, Path::new(SOCKET)));
        let result = wait_for_socket().and_then(|()| work(&core, &cache));
        // Stop the server whatever happened, so the scope can join.
        let stopped = stop_server();
        let joined = match server.join() {
            Ok(r) => r.map_err(|e| format!("serve_socket: {e}")),
            Err(_) => Err("server panicked".to_string()),
        };
        let value = result?;
        stopped.and(joined).map(|()| value)
    })
}

/// `--setup-only`: one cold pass over the grid fills an empty cache at
/// `cache/`. Reports the fill time and each key's certificate.
/// Otherwise: a fresh daemon on the filled cache serves the window.
pub fn warm_serve(
    inputs: &Json,
    tr: &Tracer,
    setup_only: bool,
    out: &mut Out,
) -> Result<(), String> {
    let num = |k: &str| inputs.get(k).and_then(Json::as_f64).ok_or(format!("inputs: missing {k}"));
    let threads = num("threads")? as usize;
    let grid = strings(inputs, "grid")?;
    if setup_only {
        let t0 = Instant::now();
        let expect = with_server("cache", threads, |_, _| fill(&grid))?;
        out.num("fill_s", t0.elapsed().as_secs_f64());
        out.put("cells", setup_cells(&grid, &expect)?);
        let obj = expect.into_iter().map(|(k, v)| (k, Json::Str(v))).collect();
        out.put("expect", Json::Obj(obj));
        return Ok(());
    }
    let clients = num("clients")? as usize;
    let seconds = num("seconds")?;
    let dir = inputs.get("cache").and_then(Json::as_str).ok_or("inputs: missing cache")?;
    let expect: HashMap<String, String> = inputs
        .get("expect")
        .and_then(Json::as_object)
        .ok_or("inputs: missing expect")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
        .collect();
    let traffic_path =
        inputs.get("traffic").and_then(Json::as_str).ok_or("inputs: missing traffic")?;
    let traffic: Vec<String> = std::fs::read_to_string(traffic_path)
        .map_err(|e| format!("{traffic_path}: {e}"))?
        .lines()
        .map(str::to_string)
        .collect();
    if traffic.is_empty() {
        return Err("empty traffic".into());
    }
    with_server(dir, threads, |core, cache| {
        serve_window(tr, core, cache, clients, seconds, &grid, &traffic, &expect, out)
    })
}

/// The set-up pass's certificates, for the known-answer check.
fn setup_cells(grid: &[String], expect: &HashMap<String, String>) -> Result<Json, String> {
    let mut cells = Vec::new();
    for line in grid {
        let r = verify_request(line)?;
        let composed = parse(&expect[&request_key(&r)]).map_err(|e| e.to_string())?;
        cells.push(Json::obj([
            ("cell", Json::str(format!("{}/{}/{}", r.app, cpu_slug(r.cpu), r.opt))),
            ("request", Json::str(request_key(&r))),
            ("stages", composed.get("stages").cloned().unwrap_or(Json::Null)),
        ]));
    }
    Ok(Json::Arr(cells))
}

#[allow(clippy::too_many_arguments)]
fn serve_window(
    tr: &Tracer,
    core: &ServeCore,
    cache: &CertCache,
    clients: usize,
    seconds: f64,
    grid: &[String],
    traffic: &[String],
    expect: &HashMap<String, String>,
    out: &mut Out,
) -> Result<(), String> {
    // A trace run first measures an untraced window, so the tracing
    // overhead is the difference of two windows of one process.
    if tr.on() {
        let mut untraced = Out::default();
        let done = window(&Tracer::new(false), clients, seconds, traffic, expect, &mut untraced);
        let mut lat: Vec<f64> = done.iter().map(|d| d.latency_s).collect();
        out.num("untraced_request_p50_s", median(&mut lat));
    }
    let reg0 = Reg::now();
    let done = window(tr, clients, seconds, traffic, expect, out);
    let reg1 = Reg::now();
    let ops =
        done.iter().map(|d| op_json("request", "", d.latency_s, d.error.as_deref())).collect();
    out.put("ops", Json::Arr(ops));

    if tr.on() {
        let mut layers = Layers::new();
        layers::registry_layers(&reg0, &reg1, &mut layers);
        layers.insert(
            "serve.nodes_per_request".into(),
            layers["serve.nodes"] / done.len().max(1) as f64,
        );
        replay_serve(tr, core, traffic, expect, &done, &mut layers)?;
        let combos = [(StdApp::Hasher, OptLevel::O2), (StdApp::Totp, OptLevel::O2)];
        layers::replay_software(tr, &combos, Replay { validate: false, lint: false }, &mut layers)?;
        let mut certs = Vec::new();
        for line in grid {
            let r = verify_request(line)?;
            let tenant = cache.namespaced(&r.tenant)?;
            let composed = parse(&expect[&request_key(&r)]).map_err(|e| e.to_string())?;
            for s in composed.get("stages").and_then(Json::as_array).unwrap_or(&[]) {
                let cert = StageCertificate::from_json(s).ok_or("unparsable stage certificate")?;
                certs.push((tenant.clone(), cert));
            }
        }
        layers::replay_cache(tr, &certs, &mut layers)?;
        layers::put_layers(out, &layers);
    }
    Ok(())
}

/// Replay the window's first requests against the serve layer's own
/// entry points: `parse_request` and `ServeCore::run_batch`. Transport
/// is the request latency the run_batch call does not account for.
fn replay_serve(
    tr: &Tracer,
    core: &ServeCore,
    traffic: &[String],
    expect: &HashMap<String, String>,
    done: &[Done],
    layers: &mut Layers,
) -> Result<(), String> {
    let root = tr.span("replay.serve", None, 0);
    let n = done.len().clamp(1, 500);
    let (mut parse_s, mut batch_s) = (Vec::new(), Vec::new());
    for (i, line) in traffic.iter().cycle().take(n).enumerate() {
        let (r, t) = tr.time("serve.parse", root.id(), || parse_request(line));
        parse_s.push(t);
        let Ok(Request::Verify(req)) = r else { return Err(format!("replay: bad request {line}")) };
        let span = tr.span("serve.run_batch", root.id(), i as u64);
        let frames = core.run_batch(std::slice::from_ref(&req));
        batch_s.push(span.end());
        if answer(&frames, &req.id).ok().as_ref() != expect.get(&request_key(&req)) {
            return Err(format!("replay: {} differs from set-up", request_key(&req)));
        }
    }
    let mut latency: Vec<f64> = done.iter().map(|d| d.latency_s).collect();
    let run_batch = median(&mut batch_s);
    layers.insert("serve.parse_s".into(), median(&mut parse_s));
    layers.insert("serve.run_batch_s".into(), run_batch);
    layers.insert("serve.transport_s".into(), median(&mut latency) - run_batch);
    Ok(())
}
