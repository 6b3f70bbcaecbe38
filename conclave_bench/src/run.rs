//! The untraced measurement: set-up, warm-up, the timed window, the
//! steady-state guard and the end-to-end metrics.

use crate::serve::{self, Serve};
use crate::stats::{median, percentile, tail_is_supported};
use crate::workloads::{self, OneShot, Reference};
use conclave_core::report::RunReport;
use conclave_core::session::Session;
use std::time::Instant;

/// Warm-up before any timed operation. See the README: lock-step rounds on
/// this sandbox cost less during a process's first seconds than afterwards,
/// so a window that starts at once straddles two regimes.
pub const WARMUP_SECONDS: f64 = 3.0;
/// A timed window never holds fewer operations than this.
pub const MIN_TIMED_OPS: usize = 10;
/// Set-up is repeated at least this often, and until [`SETUP_SECONDS`] have
/// passed; `setup_s` is the median. Most set-ups take a few milliseconds or
/// less, the first hundred repetitions in a process run cold, and a median
/// of five moved by a third from run to run.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_SECONDS: f64 = 1.0;
/// The two halves of a timed window may differ by this share of the smaller
/// median before the window is measured again.
pub const HALVES_TOLERANCE: f64 = 0.15;
/// How often an unsteady window is measured again before the run is marked
/// `unstable`.
pub const MAX_REMEASURES: usize = 2;

/// One timed query: when it started (seconds into its window) and how long
/// it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub ms: f64,
}

/// What one window of closed-loop operations measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub wall_s: f64,
    /// Every query, correct or not, ordered by start time.
    pub queries: Vec<Sample>,
    pub binds_ms: Vec<f64>,
    /// Operations attempted: queries and binds.
    pub attempted: u64,
    /// Operations that errored, were rejected or returned a result that
    /// differs from the cleartext reference.
    pub failed: u64,
    pub correct_queries: u64,
}

impl Window {
    pub fn query_ms(&self) -> Vec<f64> {
        self.queries.iter().map(|s| s.ms).collect()
    }

    /// `|first-half median − second-half median| ÷ the smaller of the two`,
    /// halves split at the middle of the window's wall-clock; 0 when a half
    /// holds fewer than three queries, too few to call a median unsteady.
    pub fn halves_gap(&self) -> f64 {
        let mid = self.wall_s / 2.0;
        let (first, second): (Vec<Sample>, Vec<Sample>) =
            self.queries.iter().partition(|s| s.at_s < mid);
        if first.len() < 3 || second.len() < 3 {
            return 0.0;
        }
        let a = median(&first.iter().map(|s| s.ms).collect::<Vec<_>>());
        let b = median(&second.iter().map(|s| s.ms).collect::<Vec<_>>());
        (a - b).abs() / a.min(b)
    }
}

/// A workload after set-up: runs closed-loop operations and checks each.
pub trait Workload {
    /// Runs operations until `seconds` have passed and at least `min_ops`
    /// were attempted.
    fn run_for(&mut self, seconds: f64, min_ops: usize) -> Window;
}

/// A one-shot workload with the reference for its answer.
pub struct OneShotRunner {
    pub w: OneShot,
    pub reference: Reference,
}

impl OneShotRunner {
    pub fn new(name: &str, w: OneShot) -> OneShotRunner {
        let reference = workloads::reference(name, &w);
        OneShotRunner { w, reference }
    }

    /// One query as a user issues it: a session over the bound tables, a
    /// fresh mesh, `run_plan`. Returns the wall in ms and the report.
    pub fn query(&self) -> (f64, Result<RunReport, String>) {
        let start = Instant::now();
        let mut session = Session::new(self.w.config.clone());
        for (name, table) in &self.w.inputs {
            session = session.bind(*name, table.clone());
        }
        let report = session.run_plan(&self.w.plan);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (ms, report.map_err(|e| e.to_string()))
    }

    pub fn is_correct(&self, report: &Result<RunReport, String>) -> bool {
        match report {
            Ok(r) => r
                .output_for(self.w.recipient)
                .is_some_and(|out| self.reference.matches(out)),
            Err(e) => {
                eprintln!("query failed: {e}");
                false
            }
        }
    }
}

impl Workload for OneShotRunner {
    fn run_for(&mut self, seconds: f64, min_ops: usize) -> Window {
        let start = Instant::now();
        let mut w = Window::default();
        while start.elapsed().as_secs_f64() < seconds || (w.attempted as usize) < min_ops {
            let at_s = start.elapsed().as_secs_f64();
            let (ms, report) = self.query();
            w.attempted += 1;
            w.queries.push(Sample { at_s, ms });
            if self.is_correct(&report) {
                w.correct_queries += 1;
            } else {
                w.failed += 1;
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w
    }
}

/// How a run is sized. `--quick` (the unit-test smoke) shrinks the data by
/// `scale`, skips warm-up and times three operations.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub seconds: f64,
    pub scale: usize,
    pub warmup_seconds: f64,
    pub min_ops: usize,
    pub setup_repeats: usize,
    pub setup_seconds: f64,
}

impl Sizing {
    pub fn full(seconds: f64) -> Sizing {
        Sizing {
            seconds,
            scale: 1,
            warmup_seconds: WARMUP_SECONDS,
            min_ops: MIN_TIMED_OPS,
            setup_repeats: SETUP_REPEATS,
            setup_seconds: SETUP_SECONDS,
        }
    }

    pub fn quick() -> Sizing {
        Sizing {
            seconds: 0.0,
            scale: 20,
            warmup_seconds: 0.0,
            min_ops: 3,
            setup_repeats: 1,
            setup_seconds: 0.0,
        }
    }
}

/// A workload after its (timed, repeated) set-up.
pub struct Ready {
    pub workload: Box<dyn Workload>,
    /// Median wall of the set-up repetitions, and how many there were.
    pub setup_s: f64,
    pub setups: usize,
    /// Whether `query_ms_tail` is p95 (see [`query_ms_tail`]).
    pub reports_p95: bool,
    /// Input rows one query reads.
    pub rows_per_query: u64,
}

/// Sets the workload up repeatedly — data generation, SQL and plan
/// compilation, and for `serve_small` pool and server start, tenant
/// registration and each tenant's first query — and keeps the last instance.
pub fn prepare(name: &str, seed: u64, sizing: Sizing) -> Ready {
    enum Built {
        OneShot(Box<OneShot>),
        Serve(Serve),
    }
    let begin = Instant::now();
    let mut walls = Vec::new();
    let mut last = None;
    while walls.len() < sizing.setup_repeats.max(1)
        || begin.elapsed().as_secs_f64() < sizing.setup_seconds
    {
        // The previous instance (its server, meshes and tables) goes first,
        // so that a repetition does not measure its predecessor's teardown.
        drop(last.take());
        let start = Instant::now();
        let built = if name == "serve_small" {
            Built::Serve(Serve::start(seed))
        } else {
            Built::OneShot(Box::new(workloads::setup(name, seed, sizing.scale)))
        };
        walls.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    // The reference is the benchmark's check, not the system's set-up: it is
    // computed once, for the instance that is kept, after the clock is read.
    let (workload, rows_per_query, reports_p95): (Box<dyn Workload>, u64, bool) =
        match last.expect("at least one set-up") {
            Built::Serve(serve) => (Box::new(serve), serve::ROWS_PER_QUERY, true),
            Built::OneShot(w) => {
                let rows = w.input_rows;
                (Box::new(OneShotRunner::new(name, *w)), rows, false)
            }
        };
    Ready {
        workload,
        setup_s: median(&walls),
        setups: walls.len(),
        reports_p95,
        rows_per_query,
    }
}

/// The result of the untraced measurement of one workload.
pub struct Measured {
    pub window: Window,
    /// Median of the queries started in the first second of warm-up ÷ the
    /// timed median (0 without warm-up).
    pub warmup_ratio: f64,
    pub halves_gap: f64,
    /// The halves still differed by more than the tolerance after
    /// [`MAX_REMEASURES`] further windows.
    pub unstable: bool,
    pub remeasured: usize,
    /// `VmHWM`, the high-water mark of the resident set, at the end of the
    /// first timed window. Not at exit: `serve_small` grows with every
    /// operation, so a run that measured again would read up to three times
    /// the memory of one that did not.
    pub peak_rss_mb: f64,
}

/// Warm-up, then timed windows until one is steady.
pub fn measure(workload: &mut dyn Workload, sizing: Sizing) -> Measured {
    let first_second: Vec<f64> = if sizing.warmup_seconds > 0.0 {
        let warm = workload.run_for(sizing.warmup_seconds, 1);
        warm.queries
            .iter()
            .filter(|s| s.at_s < 1.0)
            .map(|s| s.ms)
            .collect()
    } else {
        Vec::new()
    };
    let mut remeasured = 0;
    let mut peak_rss_mb = 0.0;
    let (window, halves_gap) = loop {
        let window = workload.run_for(sizing.seconds, sizing.min_ops);
        if remeasured == 0 {
            peak_rss_mb = status_mb("VmHWM:");
        }
        let gap = window.halves_gap();
        if gap <= HALVES_TOLERANCE || remeasured == MAX_REMEASURES {
            break (window, gap);
        }
        eprintln!(
            "halves of the timed window differ by {:.0} %: measuring again",
            gap * 100.0
        );
        remeasured += 1;
    };
    let timed_median = median(&window.query_ms());
    Measured {
        warmup_ratio: if first_second.is_empty() || timed_median == 0.0 {
            0.0
        } else {
            median(&first_second) / timed_median
        },
        halves_gap,
        unstable: halves_gap > HALVES_TOLERANCE,
        remeasured,
        peak_rss_mb,
        window,
    }
}

/// A `kB` field of `/proc/self/status`, in MB; 0 where there is no procfs.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `VmRSS`: this process's resident set right now.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Time slices the tail is taken over.
pub const TAIL_SLICES: usize = 10;

/// The tail of the query latencies.
///
/// A workload that times thousands of queries a run (`serve_small`) reports
/// p95 — as the median of the p95s of [`TAIL_SLICES`] equal time slices of
/// the window, each of which must have ten samples beyond its p95. Over ten
/// runs of identical code the p95 of the whole window spread by 10 %, because
/// one or two seconds in ten hold a burst of slow queries; the median over
/// slices spread by 4 %.
///
/// The one-shot workloads time 10 to 70 queries a run, so no percentile above
/// the median has ten samples beyond it and their tail is the median. Which
/// of the two a workload reports is fixed per workload, not read off the
/// sample count: a later change that makes a one-shot query ten times faster
/// must not turn its tail from a median into a p95.
pub fn query_ms_tail(window: &Window, reports_p95: bool) -> f64 {
    if !reports_p95 {
        return median(&window.query_ms());
    }
    let slice_s = window.wall_s / TAIL_SLICES as f64;
    let mut slices = vec![Vec::new(); TAIL_SLICES];
    for q in &window.queries {
        let slice = ((q.at_s / slice_s) as usize).min(TAIL_SLICES - 1);
        slices[slice].push(q.ms);
    }
    if slices.iter().all(|s| tail_is_supported(s.len(), 0.95)) {
        let tails: Vec<f64> = slices.iter().map(|s| percentile(s, 0.95)).collect();
        median(&tails)
    } else {
        median(&window.query_ms())
    }
}

/// The end-to-end metrics, in registry order, each with its sample count.
pub fn end_to_end(m: &Measured, ready: &Ready) -> Vec<(&'static str, f64, usize)> {
    let ms = m.window.query_ms();
    let qps = m.window.correct_queries as f64 / m.window.wall_s;
    vec![
        ("query_ms_p50", median(&ms), ms.len()),
        (
            "query_ms_tail",
            query_ms_tail(&m.window, ready.reports_p95),
            ms.len(),
        ),
        ("qps", qps, ms.len()),
        ("rows_per_s", qps * ready.rows_per_query as f64, ms.len()),
        ("setup_s", ready.setup_s, ready.setups),
        ("peak_rss_mb", m.peak_rss_mb, 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(ms: &[f64]) -> Window {
        let mut at_s = 0.0;
        let queries = ms
            .iter()
            .map(|&ms| {
                let s = Sample { at_s, ms };
                at_s += ms / 1e3;
                s
            })
            .collect();
        Window {
            wall_s: at_s,
            queries,
            ..Window::default()
        }
    }

    #[test]
    fn the_halves_of_a_window_are_split_by_time() {
        assert!(window(&[10.0; 20]).halves_gap() < 1e-12);
        // Ten fast queries then ten slow ones: the slow half holds most of
        // the wall-clock, so the split point lies inside it.
        let mut ms = vec![10.0; 10];
        ms.extend([30.0; 10]);
        assert!((window(&ms).halves_gap() - 2.0).abs() < 1e-9);
        assert_eq!(window(&[5.0, 50.0, 5.0, 50.0]).halves_gap(), 0.0);
    }

    #[test]
    fn the_tail_is_the_median_of_slice_p95s_where_every_slice_supports_one() {
        // Nine seconds of 1 ms queries, then one second of 2 ms queries: a
        // burst that the p95 of the whole window reports and the median
        // over one-second slices does not.
        let mut ms = vec![1.0; 9000];
        ms.extend([2.0; 500]);
        let w = window(&ms);
        assert_eq!(percentile(&w.query_ms(), 0.95), 2.0);
        assert_eq!(query_ms_tail(&w, true), 1.0);
        assert_eq!(query_ms_tail(&w, false), 1.0);
        // Every slice holds 1..=400 ms in order, so each p95 is 380.
        let ramps: Vec<f64> = (0..TAIL_SLICES)
            .flat_map(|_| (1..=400).map(f64::from))
            .collect();
        let mut w = window(&ramps);
        assert_eq!(query_ms_tail(&w, true), 380.0);
        assert_eq!(query_ms_tail(&w, false), median(&ramps));
        // Too few samples in a slice for a p95: the median of the window.
        w.queries.truncate(1500);
        w.wall_s = w.queries.last().map_or(0.0, |q| q.at_s + q.ms / 1e3);
        let few = w.query_ms();
        assert_eq!(query_ms_tail(&w, true), median(&few));
    }
}
