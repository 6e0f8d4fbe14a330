//! Host CPU steal: time the hypervisor gave this machine's vCPUs to
//! other guests while they had work to run.
//!
//! On a shared host, steal comes in bursts that stretch every operation
//! they overlap (a 2-connection serve window can lose half its rate and
//! gain 4–8 times its p99). A measured window is therefore cut into
//! one-second slices, each tagged with the steal ticks `/proc/stat`
//! counted in it, and the end-to-end metrics are taken over the quiet
//! slices only: the benchmark measures the program, not its neighbours.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Length of one slice.
const SLICE: Duration = Duration::from_secs(1);
/// A slice is quiet when the host stole at most this many ticks in it
/// (the kernel counts 100 ticks per second per vCPU, so 2 ticks is 1 %
/// of a 2-vCPU second).
const QUIET_TICKS: u64 = 2;

/// Aggregate steal ticks since boot (the eighth value of the `cpu` line
/// of `/proc/stat`); 0 where the file or the field is missing.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or("");
    cpu.split_whitespace().nth(8).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Samples the steal counter at every slice boundary of a window.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, u64)>>,
}

impl StealSampler {
    /// Starts sampling; the first slice begins now.
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let origin = Instant::now();
        let first = steal_ticks();
        let thread = std::thread::spawn(move || {
            let mut samples = vec![(origin, first)];
            let mut next = origin + SLICE;
            while !flag.load(Ordering::Acquire) {
                let now = Instant::now();
                if now < next {
                    std::thread::park_timeout(next - now);
                    continue;
                }
                samples.push((now, steal_ticks()));
                next += SLICE;
            }
            samples
        });
        StealSampler { stop, thread }
    }

    /// Ends the last slice now and returns every slice.
    pub fn finish(self) -> Slices {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        let mut samples = self.thread.join().expect("steal sampler panicked");
        samples.push((Instant::now(), steal_ticks()));
        Slices::new(samples)
    }
}

/// The slices of a window, and which of them count.
pub struct Slices {
    /// Slice `i` runs from `bounds[i]` to `bounds[i + 1]`.
    bounds: Vec<Instant>,
    /// Steal ticks counted in each slice.
    steal: Vec<u64>,
    /// Slices the metrics are taken over.
    kept: Vec<bool>,
}

impl Slices {
    /// Keeps the quiet slices; when fewer than half are quiet, keeps the
    /// least-stolen half, so metrics always cover at least half the
    /// window.
    fn new(samples: Vec<(Instant, u64)>) -> Slices {
        let bounds: Vec<Instant> = samples.iter().map(|s| s.0).collect();
        let steal: Vec<u64> = samples.windows(2).map(|w| w[1].1.saturating_sub(w[0].1)).collect();
        let mut kept: Vec<bool> = steal.iter().map(|&s| s <= QUIET_TICKS).collect();
        if kept.iter().filter(|&&k| k).count() * 2 < kept.len() {
            let mut order: Vec<usize> = (0..steal.len()).collect();
            order.sort_by_key(|&i| (steal[i], i));
            kept.iter_mut().for_each(|k| *k = false);
            for &i in &order[..steal.len().div_ceil(2)] {
                kept[i] = true;
            }
        }
        Slices { bounds, steal, kept }
    }

    fn slice_of(&self, t: Instant) -> usize {
        self.bounds.partition_point(|&b| b <= t).saturating_sub(1).min(self.steal.len() - 1)
    }

    /// Seconds covered by the kept slices.
    pub fn kept_seconds(&self) -> f64 {
        (0..self.steal.len())
            .filter(|&i| self.kept[i])
            .map(|i| (self.bounds[i + 1] - self.bounds[i]).as_secs_f64())
            .sum()
    }

    /// Whether an operation that started at `start` and took `ns`
    /// completed in a kept slice, and whether it ran wholly inside kept
    /// slices.
    pub fn classify(&self, start: Instant, ns: u64) -> (bool, bool) {
        let first = self.slice_of(start);
        let last = self.slice_of(start + Duration::from_nanos(ns));
        (self.kept[last], self.kept[first..=last].iter().all(|&k| k))
    }

    /// One line for stderr: how many slices were kept, and the steal
    /// ticks per slice.
    pub fn describe(&self) -> String {
        let kept = self.kept.iter().filter(|&&k| k).count();
        let ticks: Vec<String> = self.steal.iter().map(u64::to_string).collect();
        format!(
            "host steal: {kept} of {} one-second slices kept ({:.3} s); steal ticks per slice [{}]",
            self.steal.len(),
            self.kept_seconds(),
            ticks.join(" ")
        )
    }
}

/// The kept part of a window: rate and latencies of the operations
/// `(start, ns)` over the kept slices.
pub struct Kept {
    /// Operations completed in kept slices, per kept second.
    pub throughput: f64,
    /// Latencies of the operations that ran wholly inside kept slices.
    pub latencies: Vec<u64>,
}

impl Kept {
    pub fn of(slices: &Slices, ops: impl IntoIterator<Item = (Instant, u64)>) -> Kept {
        let mut completed = 0usize;
        let mut latencies = Vec::new();
        for (start, ns) in ops {
            let (done_in_kept, inside_kept) = slices.classify(start, ns);
            completed += usize::from(done_in_kept);
            if inside_kept {
                latencies.push(ns);
            }
        }
        Kept { throughput: completed as f64 / slices.kept_seconds(), latencies }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slices(steal: &[u64]) -> Slices {
        let t0 = Instant::now();
        let mut total = 0;
        let mut samples = vec![(t0, 0)];
        for (i, s) in steal.iter().enumerate() {
            total += s;
            samples.push((t0 + SLICE * (i as u32 + 1), total));
        }
        Slices::new(samples)
    }

    #[test]
    fn quiet_slices_are_kept() {
        let s = slices(&[0, 1, 9, 2, 0]);
        assert_eq!(s.kept, [true, true, false, true, true]);
        assert_eq!(s.kept_seconds(), 4.0);
    }

    #[test]
    fn a_noisy_window_keeps_its_least_stolen_half() {
        let s = slices(&[5, 30, 4, 8, 50]);
        assert_eq!(s.kept, [true, false, true, true, false]);
    }

    #[test]
    fn operations_are_attributed_by_their_slices() {
        let s = slices(&[0, 9, 0]);
        let t0 = s.bounds[0];
        let ms = |m: u64| Duration::from_millis(m);
        // Inside slice 0; ends in slice 1; starts in slice 1, ends in 2.
        assert_eq!(s.classify(t0 + ms(100), 1_000_000), (true, true));
        assert_eq!(s.classify(t0 + ms(900), 200_000_000), (false, false));
        assert_eq!(s.classify(t0 + ms(1900), 200_000_000), (true, false));
        let k = Kept::of(&s, [(t0 + ms(100), 1_000_000), (t0 + ms(1900), 200_000_000)]);
        assert_eq!(k.latencies, [1_000_000]);
        assert_eq!(k.throughput, 1.0);
    }
}
