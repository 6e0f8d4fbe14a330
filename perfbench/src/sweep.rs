//! The sweep workload: the Theorem-1 backward sweep, in-process.
//!
//! Two threads take points of the `parity` valuation box (`0..=5` per
//! variable, 216 points) in a fixed shuffled order and run
//! [`Theorem1Reduction::sweep_point`] on each; every point must answer
//! `Ok(3)`. The seed picks where in that order the walk starts, so every
//! seed covers the same box. Set-up is `InstanceSpec::build` and the
//! walk order, timed several times; one untimed warm-up point follows.
//!
//! `BENCHMARK.json` does not list this workload: on a shared 2-vCPU host
//! its speed drifts by up to half between minutes, far more than the
//! serve workloads', so ten runs spread wider than any allowed bound.
//! Its layers are measured by [`layer_pass`], which the `serve-cold`
//! traced run calls.

use crate::client::Checked;
use crate::host::{Kept, StealSampler};
use crate::layers::{self_times_ns, Metrics};
use crate::report::{end_to_end, Outcome};
use crate::serve::vm_hwm_mb;
use crate::stats::{median, p50, time, LatencySummary};
use bagcq_arith::CertOrd;
use bagcq_coord::{InstanceSpec, SweepSpec};
use bagcq_homcount::EvalOptions;
use bagcq_reduction::Theorem1Reduction;
use bagcq_serve::SplitMix64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const INSTANCE: &str = "parity";
pub const BOUND: u64 = 5;
const THREADS: usize = 2;
const SETUP_REPS: usize = 51;
/// Points of the single-threaded layer pass.
const LAYER_POINTS: usize = 24;

struct Sweep {
    red: Theorem1Reduction,
    /// The box, in the fixed shuffled walk order.
    order: Vec<Vec<u64>>,
    offset: usize,
}

impl Sweep {
    fn point(&self, i: usize) -> &[u64] {
        &self.order[(self.offset + i) % self.order.len()]
    }
}

fn spec() -> SweepSpec {
    SweepSpec { instance: InstanceSpec::Hilbert(INSTANCE.into()), bound: BOUND }
}

/// Builds the reduction and the walk order; returns the sweep and the
/// seconds that took.
fn set_up(seed: u64) -> Result<(Sweep, f64), String> {
    let t0 = Instant::now();
    let red = spec().instance.build()?;
    let mut order = spec().frontier(red.instance.n_vars as usize);
    let mut rng = SplitMix64::new(0x5EED_B0C5);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let offset = (seed % order.len() as u64) as usize;
    Ok((Sweep { red, order, offset }, t0.elapsed().as_secs_f64()))
}

/// One untimed point, the first of the fixed walk order whatever the
/// seed.
fn warm_up(sweep: &Sweep) -> Result<(), String> {
    match sweep.red.sweep_point(&sweep.order[0], &EvalOptions::default()) {
        Ok(3) => Ok(()),
        other => Err(format!("warm-up point answered {other:?}")),
    }
}

/// Per-point results of one closed-loop window.
struct Window {
    /// Correct points completed.
    points: usize,
    /// Over the correct points that ran wholly inside kept slices.
    latency: LatencySummary,
    /// Correct points completed in kept slices, per kept second.
    throughput: f64,
    checked: Checked,
    /// Points handed out (the next window continues after them).
    taken: usize,
}

fn measure(sweep: &Sweep, first: usize, window: Duration) -> Window {
    let next = AtomicUsize::new(first);
    let opts = EvalOptions::default();
    let sampler = StealSampler::start();
    let deadline = Instant::now() + window;
    let per_thread: Vec<(Vec<(Instant, u64)>, Checked)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (next, opts) = (&next, &opts);
                scope.spawn(move || {
                    let mut ops = Vec::with_capacity(4096);
                    let mut checked = Checked::default();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let val = sweep.point(i);
                        let t0 = Instant::now();
                        let (r, took) = time(|| sweep.red.sweep_point(val, opts));
                        checked.attempted += 1;
                        if r == Ok(3) {
                            ops.push((t0, took));
                        } else {
                            checked.fail(format!("sweep point {val:?} answered {r:?}"));
                        }
                    }
                    (ops, checked)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep thread panicked")).collect()
    });
    let slices = sampler.finish();
    eprintln!("{}", slices.describe());
    let mut ops = Vec::new();
    let mut checked = Checked::default();
    for (o, c) in per_thread {
        ops.extend(o);
        checked.absorb(c);
    }
    let points = ops.len();
    let kept = Kept::of(&slices, ops);
    Window {
        latency: LatencySummary::of(&kept.latencies),
        throughput: kept.throughput,
        points,
        checked,
        taken: next.into_inner() - first,
    }
}

pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let (sweep, secs) = set_up(seed)?;
        setup.push(secs);
        kept = Some(sweep);
    }
    let sweep = kept.expect("at least one set-up");
    warm_up(&sweep)?;
    let w = measure(&sweep, 0, Duration::from_secs(seconds));
    let lat = w.latency;
    eprintln!(
        "sweep: {} points of {} in {:.3} s on {THREADS} threads, {}",
        w.points,
        sweep.order.len(),
        seconds as f64,
        lat.describe()
    );
    let rss = vm_hwm_mb("/proc/self/status")?;
    let throughput = w.throughput;
    Ok(Outcome::new(w.checked, end_to_end(throughput, &lat, median(&setup), rss)))
}

/// The traced run: half the window untraced and half traced (the
/// tracing overhead), then [`layer_pass`].
pub fn run_traced(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let (sweep, _) = set_up(seed)?;
    warm_up(&sweep)?;
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let plain = measure(&sweep, 0, half);
    bagcq_obs::reset();
    bagcq_obs::enable();
    let traced = measure(&sweep, plain.taken, half);
    bagcq_obs::disable();
    bagcq_obs::reset();

    let (plain_lat, traced_lat) = (plain.latency, traced.latency);
    let mut m = Metrics::default();
    m.set("trace.overhead_throughput_ops_s", traced.throughput - plain.throughput);
    m.set("trace.overhead_latency_p50_ms", traced_lat.p50.ms() - plain_lat.p50.ms());
    println!("== sweep traced run ({INSTANCE}, bound {BOUND}, {THREADS} threads) ==");
    println!(
        "untraced: {} points, {:.2} points/s, {}",
        plain.points,
        plain.throughput,
        plain_lat.describe()
    );
    println!(
        "traced:   {} points, {:.2} points/s, {}",
        traced.points,
        traced.throughput,
        traced_lat.describe()
    );
    let mut checked = Checked::default();
    layer_pass(seed, &mut m, &mut checked)?;
    checked.absorb(plain.checked);
    checked.absorb(traced.checked);
    Ok(Outcome::new(checked, m.into_per_layer()))
}

/// The reduction, arith and kernel layers on [`LAYER_POINTS`] points of
/// the walk, one thread: `correct_database` and `compare_phi` timed
/// untraced, then `sweep_point` traced for the self times of the
/// program's `homcount.*` spans. Adds its metrics to `m` and checks
/// every answer.
pub fn layer_pass(seed: u64, m: &mut Metrics, checked: &mut Checked) -> Result<(), String> {
    let (sweep, _) = set_up(seed)?;
    warm_up(&sweep)?;
    let opts = EvalOptions::default();
    let mut correct_db = Vec::with_capacity(LAYER_POINTS);
    let mut compare = Vec::with_capacity(LAYER_POINTS);
    let promotions_before = bagcq_arith::acc_promotions();
    for i in 0..LAYER_POINTS {
        let val = sweep.point(i);
        let (d, ns) = time(|| sweep.red.correct_database(val));
        correct_db.push(ns);
        let (ord, ns) = time(|| sweep.red.compare_phi(&d, &opts));
        compare.push(ns);
        checked.attempted += 1;
        // `parity` has no root, so the φ-inequality holds at every point.
        if ord == CertOrd::Greater {
            checked
                .fail(format!("compare_phi at {val:?} found a violation on a rootless instance"));
        }
    }
    let promotions = bagcq_arith::acc_promotions() - promotions_before;

    bagcq_obs::reset();
    bagcq_obs::enable();
    for i in 0..LAYER_POINTS {
        let val = sweep.point(i);
        let r = sweep.red.sweep_point(val, &opts);
        checked.attempted += 1;
        if r != Ok(3) {
            checked.fail(format!("sweep point {val:?} answered {r:?}"));
        }
    }
    bagcq_obs::disable();
    let self_ns = self_times_ns(&bagcq_obs::snapshot_events());
    bagcq_obs::reset();

    let per_point_ms = |ns: u64| ns as f64 / 1e6 / LAYER_POINTS as f64;
    let stage_ms = |stage: &str| per_point_ms(self_ns.get(stage).copied().unwrap_or(0));
    m.set("reduction.correct_database_us_p50", p50(&correct_db).us());
    m.set("reduction.compare_phi_ms_p50", p50(&compare).ms());
    m.set("homcount.power_self_ms_per_point", stage_ms("homcount.power"));
    m.set("homcount.treedec_self_ms_per_point", stage_ms("homcount.treedec"));
    m.set("homcount.bagsweep_self_ms_per_point", stage_ms("homcount.bagsweep"));
    m.set("homcount.naive_self_ms_per_point", stage_ms("homcount.naive"));
    m.set("arith.acc_promotions", promotions as f64);

    println!(
        "sweep layer pass over {LAYER_POINTS} {INSTANCE} points (bound {BOUND}, one thread): \
         correct_database p50 {:.1} us, compare_phi p50 {:.3} ms, {promotions} Acc promotions",
        p50(&correct_db).us(),
        p50(&compare).ms()
    );
    let mut stages: Vec<(&String, &u64)> = self_ns.iter().collect();
    stages.sort_by(|a, b| b.1.cmp(a.1));
    for (stage, ns) in stages {
        println!("self time {stage:<24} {:>10.3} ms per point (traced)", per_point_ms(*ns));
    }
    Ok(())
}
