//! The closed loop shared by the in-process workloads.
//!
//! A workload is a stream of rounds; round `r` is a fixed mix of jobs
//! whose order and inputs are a function of the seed and `r` only. The
//! loop runs whole rounds until `seconds` have passed, so every run
//! measures the same mix. Work a workload does between rounds, in
//! [`Workload::round`], is not timed. With tracing on, even rounds are traced and
//! odd rounds are not, and the two rates give `trace.overhead_pct`;
//! counters are taken from round 0 alone so that they repeat exactly
//! for a seed.

use crate::calib::{Calib, Timing};
use crate::measure::threads_cpu;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

pub trait Workload {
    type Job;
    type Answer;

    /// The jobs of round `r`, after any untimed preparation they need.
    fn round(&mut self, r: u64) -> Vec<Self::Job>;

    /// Runs one job: the op whose latency is measured.
    fn exec(&mut self, job: &Self::Job, tr: &mut Tracer) -> Result<Self::Answer, String>;

    /// Whether `answer` is the job's known answer.
    fn check(&mut self, job: &Self::Job, answer: &Self::Answer) -> bool;
}

pub struct Timed {
    /// Every completed op.
    pub ops: Vec<Timing>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Wall and CPU time of the rounds, in stretches between probes,
    /// without the preparation between rounds.
    pub timed: Vec<Timing>,
    pub cpu: Vec<Timing>,
    /// Ops of round 0, the base of every counter.
    pub counted_ops: u64,
    /// Ops run with tracing on.
    pub traced_ops: u64,
    /// Throughput of each traced and each untraced round.
    pub traced_rates: Vec<f64>,
    pub untraced_rates: Vec<f64>,
    pub tracer: Tracer,
    /// Host speed, probed between ops.
    pub calib: Calib,
}

impl Timed {
    pub fn new() -> Timed {
        Timed {
            ops: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            timed: Vec::new(),
            cpu: Vec::new(),
            counted_ops: 0,
            traced_ops: 0,
            traced_rates: Vec::new(),
            untraced_rates: Vec::new(),
            tracer: Tracer::new(Instant::now()),
            calib: Calib::new(),
        }
    }
}

/// Runs whole rounds of `w`, from round `first`, for at least `seconds`
/// (and, when tracing, at least one traced and one untraced round),
/// adding to `t`. Returns the next round.
pub fn run<W: Workload>(w: &mut W, first: u64, seconds: f64, trace: bool, t: &mut Timed) -> u64 {
    let tr = &mut t.tracer;
    let t0 = Instant::now();
    for r in first.. {
        if t0.elapsed().as_secs_f64() >= seconds && (!trace || r >= first + 2) {
            return r;
        }
        let traced = trace && r % 2 == 0;
        tr.set(traced, r == 0);
        let jobs = w.round(r);
        let mut round_ops = 0u64;
        let mut round_time = Duration::ZERO;
        let mut stretch = (Instant::now(), threads_cpu("self"));
        for job in &jobs {
            let root = tr.begin_job(t.attempted);
            let start = Instant::now();
            let result = w.exec(job, tr);
            let op = Timing::since(start);
            tr.end(root);
            t.attempted += 1;
            match result {
                Ok(answer) if w.check(job, &answer) => {
                    t.ops.push(op);
                    round_ops += 1;
                }
                Ok(_) => {
                    eprintln!("pipebench: op {} answered wrong", t.attempted - 1);
                    t.wrong += 1;
                    t.failed += 1;
                }
                Err(e) => {
                    eprintln!("pipebench: op {} failed: {e}", t.attempted - 1);
                    t.failed += 1;
                }
            }
            if t.calib.due() {
                round_time += close(stretch, &mut t.timed, &mut t.cpu);
                t.calib.probe();
                stretch = (Instant::now(), threads_cpu("self"));
            }
        }
        round_time += close(stretch, &mut t.timed, &mut t.cpu);
        if r == 0 {
            t.counted_ops = jobs.len() as u64;
        }
        let rate = round_ops as f64 / round_time.as_secs_f64();
        if traced {
            t.traced_ops += jobs.len() as u64;
            t.traced_rates.push(rate);
        } else {
            t.untraced_rates.push(rate);
        }
    }
    unreachable!("the rounds are unbounded")
}

/// Ends the timed stretch that began at `start` with the process at
/// `cpu0` of CPU time, adding its wall and CPU time to `timed` and
/// `cpu`; returns its wall time.
fn close(
    (start, cpu0): (Instant, Duration),
    timed: &mut Vec<Timing>,
    cpu: &mut Vec<Timing>,
) -> Duration {
    let wall = Timing::since(start);
    cpu.push(Timing {
        value: threads_cpu("self").saturating_sub(cpu0),
        ..wall
    });
    timed.push(wall);
    wall.value
}
