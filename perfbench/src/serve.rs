//! The serve workloads: closed-loop traffic against `bagcq serve`.
//!
//! The end-to-end run spawns the release `bagcq serve` binary (quotas
//! off, so the tenant gate admits everything) and waits for its first
//! `/healthz` 200; that is the set-up, timed over several fresh servers.
//! The last server runs one untimed warm-up pass, its peak RSS is read,
//! and it takes the measured window and is drained. RSS is read after
//! the warm-up, a fixed amount of work, because the server's RSS grows
//! with every unique request served: read after the window, it would
//! rise with throughput.
//!
//! The traced run starts the same server in-process (same library,
//! same configuration) so the program's own `serve.*` spans can be read,
//! once untraced and once traced, and then times each layer's public
//! functions on the frames the traced window sent.

use crate::client::{self, check, closed_loop, Checked, ConnLog};
use crate::host::{Kept, Slices, StealSampler};
use crate::layers;
use crate::report::{end_to_end, Outcome};
use crate::stats::{median, LatencySummary};
use crate::traffic::{self, ServeWorkload, Traffic};
use bagcq_serve::{Server, ServerConfig, TenantQuota, TenantSpec};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections (closed loop, one thread each).
pub const CONNECTIONS: usize = 2;
/// Server starts timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 15;
const ADMIN_KEY: &str = "admin-key";

/// Measured requests generated per second of window: about 2.5 times
/// (serve-hot) and 3 times (serve-cold) the rate the workloads reach on
/// a 2-vCPU box, so the window, not the schedule, ends the run. A run
/// whose schedule runs out is a set-up error, never a shorter window.
fn requests_per_second(workload: ServeWorkload) -> usize {
    match workload {
        ServeWorkload::Hot => 30_000,
        ServeWorkload::Cold => 4_500,
    }
}

fn warmup_requests(workload: ServeWorkload) -> usize {
    match workload {
        ServeWorkload::Hot => 256,
        ServeWorkload::Cold => 1_000,
    }
}

pub fn oracle_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn build_traffic(workload: ServeWorkload, seed: u64, seconds: f64) -> Traffic {
    let requests = (requests_per_second(workload) as f64 * seconds).ceil() as usize;
    traffic::build(workload, seed, requests, warmup_requests(workload))
}

/// A `bagcq serve` child process. Dropping it kills and reaps the child.
struct ChildServer {
    child: Child,
    addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl ChildServer {
    fn spawn(bagcq: &Path) -> Result<ChildServer, String> {
        let mut child = Command::new(bagcq)
            .args(["serve", "--addr", "127.0.0.1:0", "--rate", "0", "--burst", "0"])
            .args(["--max-in-flight", "0", "--admin-key", ADMIN_KEY])
            .env_remove("BAGCQ_BACKEND")
            .env_remove("BAGCQ_CONTAINMENT")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bagcq.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("bagcq serve exited before listening".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("bagcq-serve listening on ") {
                        break a.to_string();
                    }
                }
            }
        };
        // Keep the pipe drained so the child never blocks on stdout.
        let stdout = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        Ok(ChildServer { child, addr, stdout: Some(stdout) })
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drains the server over HTTP and waits for it to exit 0.
    ///
    /// `bagcq serve` can exit before its drain reply is written (the run
    /// loop wakes on the drain flag and returns while the connection
    /// thread is still sending), so a lost reply is tolerated as long as
    /// the process then exits cleanly.
    fn stop(mut self) -> Result<(), String> {
        match client::request(&self.addr, "POST", "/admin/drain", ADMIN_KEY) {
            Ok((200, _)) | Err(_) => {}
            Ok((status, body)) => return Err(format!("drain answered {status}: {body}")),
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(s)) if s.success() => break,
                Ok(Some(s)) => return Err(format!("bagcq serve exited with {s}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("bagcq serve did not exit after drain".into()),
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

fn wait_healthy(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok((200, _)) = client::request(addr, "GET", "/healthz", "") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never answered /healthz 200"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// What one measured window produced.
struct Window {
    logs: Vec<ConnLog>,
    checked: Checked,
    /// Over the correct replies that ran wholly inside kept slices.
    latency: LatencySummary,
    /// Correct replies completed in kept slices, per kept second.
    throughput: f64,
    elapsed: Duration,
}

/// Runs the measured schedule for `window`, cut into steal-tagged
/// slices. Running out of schedule is an error.
fn run_window(
    addr: &str,
    traffic: &Traffic,
    window: Duration,
) -> Result<(Vec<ConnLog>, Slices), String> {
    let sampler = StealSampler::start();
    let logs = closed_loop(addr, &traffic.frames, &traffic.measured, CONNECTIONS, Some(window));
    let slices = sampler.finish();
    if sent_frames(&logs).len() + CONNECTIONS > traffic.measured.len() {
        return Err(format!(
            "the schedule of {} requests ran out before the window closed",
            traffic.measured.len()
        ));
    }
    Ok((logs, slices))
}

impl Window {
    /// Solves the frames a window sent, checks every reply and takes the
    /// rate and latencies of the correct ones over the kept slices.
    fn from_logs(traffic: &mut Traffic, (logs, slices): (Vec<ConnLog>, Slices)) -> Window {
        traffic.solve(&sent_frames(&logs), oracle_threads());
        let (checked, correct) = check(traffic, &logs);
        let start = logs.iter().map(|l| l.started).min().expect("at least one connection");
        let end = logs.iter().map(|l| l.finished).max().expect("at least one connection");
        eprintln!("{}", slices.describe());
        let kept = Kept::of(&slices, correct);
        Window {
            latency: LatencySummary::of(&kept.latencies),
            throughput: kept.throughput,
            elapsed: end - start,
            logs,
            checked,
        }
    }

    fn measure(addr: &str, traffic: &mut Traffic, window: Duration) -> Result<Window, String> {
        let run = run_window(addr, traffic, window)?;
        Ok(Window::from_logs(traffic, run))
    }

    fn requests(&self) -> usize {
        self.logs.iter().map(|l| l.exchanges.len()).sum()
    }

    fn sent(&self) -> Vec<u32> {
        sent_frames(&self.logs)
    }
}

/// Frame indices in send order (connections concatenated).
fn sent_frames(logs: &[ConnLog]) -> Vec<u32> {
    logs.iter().flat_map(|l| l.exchanges.iter().map(|x| x.frame)).collect()
}

fn warm_up(addr: &str, traffic: &mut Traffic) -> Checked {
    let logs = closed_loop(addr, &traffic.frames, &traffic.warmup, CONNECTIONS, None);
    let warmup = traffic.warmup.clone();
    traffic.solve(&warmup, oracle_threads());
    check(traffic, &logs).0
}

/// The end-to-end run against the `bagcq` binary.
pub fn run(
    workload: ServeWorkload,
    seed: u64,
    seconds: u64,
    bagcq: &Path,
) -> Result<Outcome, String> {
    let mut traffic = build_traffic(workload, seed, seconds as f64);
    let mut checked = Checked::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let child = ChildServer::spawn(bagcq)?;
        wait_healthy(&child.addr)?;
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            child.stop()?;
        } else {
            server = Some(child);
        }
    }
    let server = server.expect("the last set-up server is kept");
    checked.absorb(warm_up(&server.addr, &mut traffic));
    let rss = server.peak_rss_mb()?;
    let mut w = Window::measure(&server.addr, &mut traffic, Duration::from_secs(seconds))?;
    server.stop()?;
    let throughput = w.throughput;
    checked.absorb(std::mem::take(&mut w.checked));
    eprintln!(
        "{}: {} requests in {:.3} s, {}",
        workload_name(workload),
        w.requests(),
        w.elapsed.as_secs_f64(),
        w.latency.describe()
    );
    Ok(Outcome::new(checked, end_to_end(throughput, &w.latency, median(&setup), rss)))
}

pub fn workload_name(w: ServeWorkload) -> &'static str {
    match w {
        ServeWorkload::Hot => "serve-hot",
        ServeWorkload::Cold => "serve-cold",
    }
}

/// `bagcq serve --rate 0 --burst 0 --max-in-flight 0`, in-process.
fn start_in_process() -> Result<Server, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        tenants: vec![
            TenantSpec::new("default", traffic::API_KEY).with_quota(TenantQuota::unlimited())
        ],
        admin_key: Some(ADMIN_KEY.into()),
        ..ServerConfig::default()
    };
    Server::start(config).map_err(|e| format!("starting the in-process server: {e}"))
}

/// The traced run: per-layer metrics and the tracing overhead.
pub fn run_traced(workload: ServeWorkload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    // Half the window untraced, half traced, both in-process.
    let window = Duration::from_secs_f64(seconds as f64 / 2.0);
    let mut traffic = build_traffic(workload, seed, window.as_secs_f64());
    let mut checked = Checked::default();

    let server = start_in_process()?;
    let addr = server.local_addr().to_string();
    checked.absorb(warm_up(&addr, &mut traffic));
    let mut plain = Window::measure(&addr, &mut traffic, window)?;
    server.shutdown();

    let server = start_in_process()?;
    let addr = server.local_addr().to_string();
    checked.absorb(warm_up(&addr, &mut traffic));
    let before = server.metrics();
    bagcq_obs::reset();
    bagcq_obs::enable();
    let run = run_window(&addr, &traffic, window);
    bagcq_obs::disable();
    let after = server.metrics();
    let events = bagcq_obs::snapshot_events();
    bagcq_obs::reset();
    server.shutdown();
    let mut traced = Window::from_logs(&mut traffic, run?);

    let name = workload_name(workload);
    let ok_200: u64 =
        traced.logs.iter().flat_map(|l| l.exchanges.iter()).filter(|x| x.status == 200).count()
            as u64;
    let jobs = after.jobs_submitted - before.jobs_submitted;
    let requests = traced.requests() as f64;
    let stages = layers::serve_stages(&events);
    let client_p50_us = traced.latency.p50.us();
    let sent = traced.sent();

    let mut m = layers::Metrics::default();
    m.set("serve.memo_hit_share", 1.0 - jobs as f64 / ok_200.max(1) as f64);
    m.set("serve.stage_parse_us_p50", stages.parse_us_p50);
    m.set("serve.stage_admit_us_p50", stages.admit_us_p50);
    m.set("serve.stage_count_us_p50", stages.count_us_p50);
    m.set("serve.stage_respond_us_p50", stages.respond_us_p50);
    m.set("serve.stage_sum_us_p50", stages.sum_us_p50);
    m.set("serve.client_us_p50", client_p50_us);
    m.set("serve.residual_us_p50", client_p50_us - stages.sum_us_p50);
    let lay = layers::serve_layers(&traffic, &sent, &mut checked);
    m.merge(&lay.metrics);
    m.set("trace.overhead_throughput_ops_s", traced.throughput - plain.throughput);
    m.set("trace.overhead_latency_p50_ms", traced.latency.p50.ms() - plain.latency.p50.ms());

    println!("== {name} traced run (in-process server, {CONNECTIONS} connections) ==");
    println!(
        "untraced: {} requests, {:.1} req/s, {}",
        plain.requests(),
        plain.throughput,
        plain.latency.describe()
    );
    println!(
        "traced:   {} requests, {:.1} req/s, {}",
        traced.requests(),
        traced.throughput,
        traced.latency.describe()
    );
    println!(
        "engine jobs {jobs} for {ok_200} 200s over {} requests ({:.3} per request; memo hit share {:.3})",
        traced.requests(),
        jobs as f64 / requests.max(1.0),
        m.get("serve.memo_hit_share")
    );
    print!("{}", lay.summary);
    println!(
        "reconciliation: client p50 {client_p50_us:.1} us = stage sum p50 {:.1} us \
         (parse {:.1} + admit {:.1} + count {:.1} + respond {:.1}, {} requests) + residual {:.1} us",
        stages.sum_us_p50,
        stages.parse_us_p50,
        stages.admit_us_p50,
        stages.count_us_p50,
        stages.respond_us_p50,
        stages.requests,
        client_p50_us - stages.sum_us_p50
    );
    println!(
        "reconciliation: in-process parse p50 {:.1} us + engine hop p50 {:.1} us = {:.1} us \
         against server parse + count stage p50s {:.1} us",
        lay.parse_us_p50,
        m.get("engine.hop_us_p50"),
        lay.parse_us_p50 + m.get("engine.hop_us_p50"),
        stages.parse_us_p50 + stages.count_us_p50
    );
    if workload == ServeWorkload::Cold {
        crate::sweep::layer_pass(seed, &mut m, &mut checked)?;
    }
    checked.absorb(std::mem::take(&mut plain.checked));
    checked.absorb(std::mem::take(&mut traced.checked));
    Ok(Outcome::new(checked, m.into_per_layer()))
}
