//! The vet workload: repeated in-process verdict passes over every
//! `pwf vet --list` target, with the same verdict rules as `pwf vet`
//! (minus the naive-enumeration ratio, a report statistic).

use std::hint::black_box;
use std::time::{Duration, Instant};

use pwf_checker::explore::{explore, ExploreOptions, ExploreStats, ViolationKind};
use pwf_checker::shrink::shrink;
use pwf_checker::target::{CheckTarget, Progress};
use pwf_checker::targets::registry;

use crate::keys::vet_order;
use crate::limits::nproc;
use crate::stats::median;
use crate::trace::Tracer;

/// One target's verdict.
pub struct Verdict {
    /// The verdict matches the target's `expect_failure`.
    pub ok: bool,
    /// The jobs-independent report of the pruned exploration.
    pub json: String,
    /// Counters of the pruned exploration.
    pub stats: ExploreStats,
}

/// Options of the pruned, cached exploration at `jobs` workers.
pub fn pruned(jobs: usize) -> ExploreOptions {
    ExploreOptions {
        prune: true,
        jobs,
        cache: true,
        ..ExploreOptions::default()
    }
}

/// Decides one target as `pwf vet` does: pruned exploration; on
/// blocking targets without a violation, the unpruned fair audit; on a
/// violation, shrinking. Each stage is a child span of `parent`.
pub fn verdict(
    target: &CheckTarget,
    jobs: usize,
    tracer: &mut Tracer,
    req: u64,
    parent: u32,
) -> Verdict {
    let report = tracer.span(req, parent, "checker.explore", || {
        explore(target, &pruned(jobs))
    });
    let mut violation = report
        .violation
        .as_ref()
        .map(|v| (v.kind, v.schedule.clone()));
    if violation.is_none() && target.progress == Progress::StochasticOnly {
        violation = tracer.span(req, parent, "checker.fair_audit", || {
            let full = explore(
                target,
                &ExploreOptions {
                    prune: false,
                    ..pruned(jobs)
                },
            );
            full.graph.fair_livelock().map(|state| {
                let prefix = full.graph.witness_prefix(state).unwrap_or_default();
                (ViolationKind::Livelock, prefix.to_vec())
            })
        });
    }
    let ok = match (violation, target.expect_failure) {
        (None, false) => {
            target.progress == Progress::StochasticOnly
                || report.graph.completion_free_cycle().is_none()
        }
        (None, true) => false,
        (Some((kind, schedule)), expect) => {
            let small = tracer.span(req, parent, "checker.shrink", || {
                shrink(target, kind, &schedule)
            });
            expect && !small.is_empty()
        }
    };
    Verdict {
        ok,
        json: report.deterministic_json(target.name),
        stats: report.stats,
    }
}

/// What one end-to-end vet run measured.
#[derive(Debug, Default)]
pub struct VetRun {
    /// Registry build times, seconds: each the mean over one batch of
    /// [`BUILDS_PER_SAMPLE`] back-to-back builds.
    pub setups_s: Vec<f64>,
    /// Verdicts plus determinism checks.
    pub attempted: u64,
    /// Wrong verdicts and report mismatches.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    /// Wall time of each target's verdict, microseconds.
    pub latencies_us: Vec<f64>,
    /// Wall time of each full pass, seconds.
    pub passes_s: Vec<f64>,
    /// Length of the timed window.
    pub wall_s: f64,
}

impl VetRun {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups_s)
    }
}

/// Builds the target registry and every target's configuration.
pub fn build_registry() -> Vec<CheckTarget> {
    let targets = registry();
    for target in &targets {
        black_box(target.build());
    }
    targets
}

/// Registry builds timed together as one set-up sample: one build takes
/// a few microseconds, too short to time on its own.
pub const BUILDS_PER_SAMPLE: usize = 25;

/// Times one batch of registry builds into `setups_s`.
fn time_setup(out: &mut VetRun) -> Vec<CheckTarget> {
    let t0 = Instant::now();
    let mut targets = build_registry();
    for _ in 1..BUILDS_PER_SAMPLE {
        targets = build_registry();
    }
    out.setups_s
        .push(t0.elapsed().as_secs_f64() / BUILDS_PER_SAMPLE as f64);
    targets
}

/// Runs whole verdict passes (targets in a seeded order, at jobs =
/// `nproc`) until `seconds` have passed, then checks each target's
/// report against a jobs-1 exploration. A batch of registry builds is
/// timed before the first pass and after every pass: batches taken only
/// at process start land in one of two modes, about 2.7 or 4.6 µs per
/// build, so their median flips between runs.
pub fn run(seed: u64, seconds: f64) -> VetRun {
    let mut out = VetRun::default();
    let targets = time_setup(&mut out);
    let jobs = nproc();
    let window = Duration::from_secs_f64(seconds);
    let mut reports: Vec<Option<String>> = vec![None; targets.len()];
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < window {
        let pass_start = Instant::now();
        for i in vet_order(seed, pass, targets.len()) {
            let target = &targets[i];
            let t0 = Instant::now();
            let v = verdict(target, jobs, &mut Tracer::off(), 0, 0);
            out.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            if !v.ok {
                out.fail(format!("wrong verdict on {}", target.name));
            }
            match &reports[i] {
                None => reports[i] = Some(v.json),
                Some(first) if *first != v.json => {
                    out.fail(format!("report of {} changed between passes", target.name));
                }
                Some(_) => {}
            }
        }
        out.passes_s.push(pass_start.elapsed().as_secs_f64());
        time_setup(&mut out);
        pass += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();

    // Outside the window: the report at jobs = nproc must equal jobs 1.
    for (target, report) in targets.iter().zip(&reports) {
        out.attempted += 1;
        let single = explore(target, &pruned(1)).deterministic_json(target.name);
        if report.as_deref() != Some(single.as_str()) {
            out.fail(format!(
                "{} differs between jobs {jobs} and jobs 1",
                target.name
            ));
        }
    }
    out
}
