//! `serve_mixed`: mixed protocol-v2 traffic through a `cpn-serve` child.
//!
//! The benchmark starts `cpn-serve --uds … --workers 2` and drives it
//! from two connections, each a closed loop (one request in flight).
//! A round on one connection is 46 ops in seeded order:
//!
//! * 30 small `reach` requests on four resident nets (byte-tier hits);
//!   they cost ≈40 µs and so measure the serving path alone;
//! * a fresh ring `X` then a declaration-order permutation `X'`
//!   (a miss, then a structural hit), uncapped;
//! * the same for a capped ring pair: `X'` after `X` may report `X`'s
//!   exploration prefix, the ROADMAP history leak, counted as
//!   `serve.partial_mismatch` and kept out of `fail_frac`;
//! * 2 I²C-scale `verify` requests on resident documents, and a fresh
//!   translator/sender pair then its permutation (miss, structural hit);
//! * one 8-item batch: 4 resident `reach` and 4 resident `verify`.
//!
//! Fresh documents cycle through per-connection pools far larger than
//! the 64-entry cache, so the LRU evicts them before they recur.
//! Every answer is checked against a cold in-process recomputation of
//! the same request (fresh cache), and uncapped ring counts against the
//! closed form too.

use crate::calib::{Calib, Timing};
use crate::corpus::{permuted, renamed, rng, shuffle, Digest};
use crate::measure::{median, peak_rss_mb, threads_cpu, EndToEnd, Report};
use crate::trace::Tracer;
use crate::{base_meta, push_layers, repeated_setup, Args};
use cpn_core::{
    check_receptiveness_composed_bounded, parallel_tracked_common,
    reduce_against_environment_fused_bounded,
};
use cpn_petri::{reachability_bounded_parallel_compiled, Bounded, Budget, PetriNet, Verdict};
use cpn_serve::{
    CacheMiss, Client, Endpoint, ExploreSummary, NetCache, Receptive, Request, Response,
    StatsReply, VerifySummary, DEFAULT_HIDE_BUDGET,
};
use cpn_stg::Stg;
use cpn_testkit::{sync_mesh, sync_mesh_states, sync_pipeline_net};
use std::collections::{BTreeMap, BTreeSet};
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const WORKERS: &str = "2";
/// The server's default cache capacity, which the pools must exceed.
const CACHE_CAPACITY: usize = 64;
const HOT_REACH_PER_ROUND: usize = 30;
const HOT_VERIFY_PER_ROUND: usize = 2;
const POOL_REACH: usize = 24;
const POOL_CAPPED: usize = 24;
const POOL_VERIFY: usize = 12;
const CAPS: [usize; 3] = [9, 17, 33];
const MAX_STATES: usize = 1_000_000;
/// Rounds per connection replayed in-process for `serve.compute_ms`.
const REPLAY_ROUNDS: u64 = 4;
/// The connections run in slices of this many seconds, with a probe of
/// the host's speed between two slices.
const SLICE: f64 = 0.5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verb {
    Reach,
    Verify,
}

/// One distinct request with its known answer.
struct Entry {
    request: Request,
    verb: Verb,
    /// Cold in-process answer of this very request.
    expected: Response,
    /// The isomorphic document sent just before this one, for the
    /// second request of a fresh pair.
    partner: Option<usize>,
    capped: bool,
}

/// What one connection sends.
struct Plan {
    conn: usize,
    hot_reach: Vec<usize>,
    hot_verify: Vec<usize>,
    cold_reach: Vec<(usize, usize)>,
    capped: Vec<(usize, usize)>,
    cold_verify: Vec<(usize, usize)>,
}

#[derive(Clone, Debug)]
enum Frame {
    Single(usize),
    Batch(Vec<usize>),
}

impl Plan {
    /// The frames of round `r`: a pure function of the seed and `r`.
    fn round(&self, seed: u64, r: u64) -> Vec<Frame> {
        let mut g = rng(seed, 3000 + 1_000_000 * self.conn as u64 + r);
        let mut units: Vec<Vec<Frame>> = Vec::new();
        for _ in 0..HOT_REACH_PER_ROUND {
            units.push(vec![Frame::Single(*g.choose(&self.hot_reach))]);
        }
        for _ in 0..HOT_VERIFY_PER_ROUND {
            units.push(vec![Frame::Single(*g.choose(&self.hot_verify))]);
        }
        let r = r as usize;
        for pool in [&self.cold_reach, &self.capped, &self.cold_verify] {
            let (a, b) = pool[r % pool.len()];
            units.push(vec![Frame::Single(a), Frame::Single(b)]);
        }
        let mut batch: Vec<usize> = (0..4).map(|_| *g.choose(&self.hot_reach)).collect();
        batch.extend((0..4).map(|_| *g.choose(&self.hot_verify)));
        shuffle(&mut batch, &mut g);
        units.push(vec![Frame::Batch(batch)]);
        shuffle(&mut units, &mut g);
        units.into_iter().flatten().collect()
    }
}

struct Corpus {
    entries: Vec<Entry>,
    plans: Vec<Plan>,
    digest: Digest,
}

fn suffixed(net: &PetriNet<String>, tag: &str) -> PetriNet<String> {
    net.map_labels(|l| format!("{l}@{tag}"))
}

fn stg_net(stg: &Stg) -> PetriNet<String> {
    stg.net().map_labels(|l| l.to_string())
}

fn reach(doc: String, max_states: usize) -> Request {
    Request::Reach {
        net: "net".into(),
        max_states,
        deadline_ms: None,
        threads: 1,
        stream: false,
        doc,
    }
}

/// A translator/environment verify request with labels tagged `tag`,
/// declared in a seeded order when `reorder` is set.
fn verify(env: &Stg, tag: &str, reorder: bool, r: &mut cpn_testkit::TestRng) -> Request {
    let module = cpn_stg::protocol::translator();
    let m = suffixed(&stg_net(&module), tag);
    let e = suffixed(&stg_net(env), tag);
    let outs = |s: &Stg| {
        s.output_labels()
            .iter()
            .map(|l| format!("{l}@{tag}"))
            .collect()
    };
    Request::Verify {
        module: "module".into(),
        env: "env".into(),
        louts: outs(&module),
        routs: outs(env),
        max_states: MAX_STATES,
        deadline_ms: None,
        hide_budget: DEFAULT_HIDE_BUDGET,
        stream: false,
        doc: format!(
            "{}{}",
            cpn_format::write_net("module", &copy(&m, reorder, r)),
            cpn_format::write_net("env", &copy(&e, reorder, r))
        ),
    }
}

/// The first document of a pair keeps the generator's declaration
/// order, so that what a miss computes does not depend on the seed; the
/// second is reordered, an isomorph that hits the structural tier.
fn copy(net: &PetriNet<String>, reorder: bool, r: &mut cpn_testkit::TestRng) -> PetriNet<String> {
    if reorder {
        permuted(net, r)
    } else {
        renamed(net, r)
    }
}

/// A `sync_mesh(len, 1, tokens)` ring: `C(tokens+len-1, len-1)` states.
fn ring(len: usize, tokens: u32) -> PetriNet<String> {
    sync_mesh(len, 1, tokens)
}

impl Corpus {
    fn generate(seed: u64) -> Result<Corpus, String> {
        use cpn_stg::protocol::{sender, sender_inconsistent, sender_restricted};
        let mut c = Corpus {
            entries: Vec::new(),
            plans: Vec::new(),
            digest: Digest::default(),
        };
        let envs = [sender(), sender_restricted(), sender_inconsistent()];
        for conn in 0..CONNECTIONS {
            let mut g = rng(seed, 40 + conn as u64);
            let hot_nets = [
                sync_pipeline_net(3),
                ring(3, 3),
                ring(4, 2),
                sync_mesh(2, 2, 2),
            ];
            let hot_reach = hot_nets
                .iter()
                .map(|n| {
                    let doc = cpn_format::write_net(
                        "net",
                        &renamed(&suffixed(n, &format!("h{conn}")), &mut g),
                    );
                    c.add(reach(doc, MAX_STATES), Verb::Reach, None, false)
                })
                .collect::<Result<_, _>>()?;
            let hot_verify = envs[..2]
                .iter()
                .map(|e| {
                    c.add(
                        verify(e, &format!("h{conn}"), false, &mut g),
                        Verb::Verify,
                        None,
                        false,
                    )
                })
                .collect::<Result<_, _>>()?;
            let mut cold_reach = Vec::new();
            for k in 0..POOL_REACH {
                let (len, tokens) = (4 + k % 4, 3 + (k / 4 % 3) as u32);
                let net = suffixed(&ring(len, tokens), &format!("r{conn}.{k}"));
                let a = reach(
                    cpn_format::write_net("net", &copy(&net, false, &mut g)),
                    MAX_STATES,
                );
                let b = reach(
                    cpn_format::write_net("net", &copy(&net, true, &mut g)),
                    MAX_STATES,
                );
                let states = sync_mesh_states(len, 1, tokens) as usize;
                let a = c.add(a, Verb::Reach, None, false)?;
                let b = c.add(b, Verb::Reach, Some(a), false)?;
                for i in [a, b] {
                    if !matches!(&c.entries[i].expected, Response::Result(s) if s.states == states)
                    {
                        return Err(format!(
                            "ring {len}/{tokens}: cold answer is not C(n+k-1, k-1)"
                        ));
                    }
                }
                cold_reach.push((a, b));
            }
            let mut capped = Vec::new();
            for k in 0..POOL_CAPPED {
                let (len, tokens) = (5 + k % 3, 3 + (k / 3 % 3) as u32);
                let net = suffixed(&ring(len, tokens), &format!("c{conn}.{k}"));
                let cap = CAPS[k % CAPS.len()];
                let a = reach(
                    cpn_format::write_net("net", &copy(&net, false, &mut g)),
                    cap,
                );
                let b = reach(cpn_format::write_net("net", &copy(&net, true, &mut g)), cap);
                let a = c.add(a, Verb::Reach, None, true)?;
                let b = c.add(b, Verb::Reach, Some(a), true)?;
                capped.push((a, b));
            }
            let mut cold_verify = Vec::new();
            for k in 0..POOL_VERIFY {
                let env = &envs[k % envs.len()];
                let tag = format!("v{conn}.{k}");
                let a = c.add(verify(env, &tag, false, &mut g), Verb::Verify, None, false)?;
                let b = c.add(
                    verify(env, &tag, true, &mut g),
                    Verb::Verify,
                    Some(a),
                    false,
                )?;
                let receptive = k % envs.len() != 2;
                for i in [a, b] {
                    let Response::VerifyResult(v) = &c.entries[i].expected else {
                        return Err(format!("verify {tag}: cold answer is not a verify result"));
                    };
                    if (v.receptive == Receptive::Yes) != receptive {
                        return Err(format!(
                            "verify {tag}: receptive={}, paper verdict {receptive}",
                            v.receptive
                        ));
                    }
                }
                cold_verify.push((a, b));
            }
            c.plans.push(Plan {
                conn,
                hot_reach,
                hot_verify,
                cold_reach,
                capped,
                cold_verify,
            });
        }
        for plan in &c.plans {
            for r in 0..8 {
                c.digest
                    .add(format!("{:?}", plan.round(seed, r)).as_bytes());
            }
        }
        Ok(c)
    }

    fn add(
        &mut self,
        request: Request,
        verb: Verb,
        partner: Option<usize>,
        capped: bool,
    ) -> Result<usize, String> {
        self.digest.add(request.encode().as_bytes());
        let cold = NetCache::new(CACHE_CAPACITY, cpn_format::ParseLimits::default());
        let expected = compute(&cold, &request, &mut Tracer::new(Instant::now()));
        if !matches!(expected, Response::Result(_) | Response::VerifyResult(_)) {
            return Err(format!("cold answer to a corpus request is `{expected}`"));
        }
        self.entries.push(Entry {
            request,
            verb,
            expected,
            partner,
            capped,
        });
        Ok(self.entries.len() - 1)
    }
}

fn cache_error(miss: CacheMiss) -> Response {
    match miss {
        CacheMiss::Parse(msg) => Response::BadRequest(format!("parse error: {msg}")),
        CacheMiss::NoSuchNet(name) => {
            Response::BadRequest(format!("no net named `{name}` in document"))
        }
    }
}

/// The server's computation for a `reach` or `verify` request, in
/// process: `NetCache::get_or_compile` plus the same core and explorer
/// calls, without deadline or cancellation.
fn compute(cache: &NetCache, request: &Request, tr: &mut Tracer) -> Response {
    match request {
        Request::Reach {
            net,
            max_states,
            doc,
            ..
        } => {
            let cached = match tr.span("serve.cache", || cache.get_or_compile(doc, net)) {
                Ok(c) => c,
                Err(miss) => return cache_error(miss),
            };
            let budget = Budget::states(*max_states);
            let explored = tr.span("petri.explore", || {
                reachability_bounded_parallel_compiled(&cached.compiled, &cached.m0, &budget, 1)
            });
            let summary = match explored {
                Bounded::Complete(rg) => ExploreSummary {
                    states: rg.state_count(),
                    edges: rg.edge_count(),
                    stopped: None,
                    detail: format!("bound={}", rg.token_bound()),
                },
                Bounded::Exhausted { partial, info } => ExploreSummary {
                    states: partial.state_count(),
                    edges: partial.edge_count(),
                    stopped: Some(info.resource.to_string()),
                    detail: String::new(),
                },
            };
            tr.count("petri.explore.states", summary.states as u64);
            tr.count("petri.explore.edges", summary.edges as u64);
            Response::Result(summary)
        }
        Request::Verify {
            module,
            env,
            louts,
            routs,
            max_states,
            hide_budget,
            doc,
            ..
        } => {
            let (m, e) = match tr.span("serve.cache", || {
                (
                    cache.get_or_compile(doc, module),
                    cache.get_or_compile(doc, env),
                )
            }) {
                (Ok(m), Ok(e)) => (m, e),
                (Err(miss), _) | (_, Err(miss)) => return cache_error(miss),
            };
            let budget = Budget::states(*max_states);
            let louts: BTreeSet<String> = louts.iter().cloned().collect();
            let routs: BTreeSet<String> = routs.iter().cloned().collect();
            let comp = match tr.span("core.compose", || parallel_tracked_common(&m.net, &e.net)) {
                Ok(c) => c,
                Err(err) => return Response::BadRequest(format!("composition failed: {err}")),
            };
            tr.count(
                "core.compose.transitions",
                comp.net.transition_count() as u64,
            );
            let verdict = tr.span("core.receptive", || {
                check_receptiveness_composed_bounded(&comp, &louts, &routs, &budget)
            });
            let (receptive, failures) = match verdict {
                Verdict::Holds => (Receptive::Yes, Vec::new()),
                Verdict::Fails(report) => (
                    Receptive::No,
                    report.failures.into_iter().map(|f| f.label).collect(),
                ),
                Verdict::Unknown(_) => {
                    return Response::InternalError("verify budget ran out".into())
                }
            };
            let reduced = tr.span("core.reduce", || {
                reduce_against_environment_fused_bounded(&m.net, &e.net, &budget, *hide_budget)
            });
            match reduced {
                Ok(Bounded::Complete(red)) => {
                    tr.count(
                        "core.reduce.transitions_out",
                        red.net.transition_count() as u64,
                    );
                    tr.count("core.reduce.dead_removed", red.dead_removed as u64);
                    Response::VerifyResult(VerifySummary {
                        receptive,
                        failures,
                        states: 0,
                        edges: 0,
                        stopped: None,
                        composed_transitions: comp.net.transition_count(),
                        reduced_transitions: Some(red.net.transition_count()),
                        dead_removed: red.dead_removed,
                    })
                }
                Ok(Bounded::Exhausted { .. }) => {
                    Response::InternalError("reduce budget ran out".into())
                }
                Err(err) => Response::BadRequest(format!("reduction failed: {err}")),
            }
        }
        other => Response::BadRequest(format!("not a corpus verb: {}", other.verb())),
    }
}

/// A running `cpn-serve` child; stopped with SIGTERM (drain) on drop.
struct ServerProc {
    child: Child,
    socket: PathBuf,
}

impl ServerProc {
    fn spawn(bin: &std::path::Path) -> Result<ServerProc, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = PathBuf::from(".pipebench-run");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let socket = dir.join(format!("serve-{}-{n}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut cmd = Command::new(bin);
        cmd.arg("--uds")
            .arg(&socket)
            .args(["--workers", WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        // The child drains and exits if the benchmark dies first.
        // SAFETY: prctl is async-signal-safe and touches no memory.
        unsafe {
            cmd.pre_exec(|| {
                extern "C" {
                    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
                }
                const PR_SET_PDEATHSIG: i32 = 1;
                prctl(PR_SET_PDEATHSIG, SIGTERM as u64, 0, 0, 0);
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(ServerProc { child, socket })
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.socket.clone())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Connects once the socket accepts, or fails if the child exits.
    fn connect(&mut self) -> Result<Client, String> {
        let t0 = Instant::now();
        loop {
            match Client::connect(&self.endpoint()) {
                Ok(c) if c.version() >= 2 => return Ok(c),
                Ok(c) => return Err(format!("server negotiated protocol v{}", c.version())),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("cpn-serve exited during start-up: {status}"));
                    }
                    if t0.elapsed() > Duration::from_secs(20) {
                        return Err(format!("cannot connect to cpn-serve: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}

const SIGTERM: i32 = 15;

impl Drop for ServerProc {
    fn drop(&mut self) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        // SAFETY: signals our own child, which has not been reaped yet.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let t0 = Instant::now();
        while matches!(self.child.try_wait(), Ok(None)) && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Ready {
    corpus: Corpus,
    server: ServerProc,
    clients: Vec<Client>,
}

fn setup(args: &Args) -> Result<Ready, String> {
    let corpus = Corpus::generate(args.seed)?;
    let mut server = ServerProc::spawn(&args.serve_bin)?;
    let clients = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Ready {
        corpus,
        server,
        clients,
    })
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    /// Every answered op, send to final answer.
    ops: Vec<Timing>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    partial_mismatch: u64,
    rtt: BTreeMap<&'static str, Vec<f64>>,
    /// `(frame, rtt)` of the rounds the traced run replays.
    replay: Vec<(Frame, Duration)>,
    traced_rates: Vec<f64>,
    untraced_rates: Vec<f64>,
    spans: Option<Tracer>,
    /// The round the connection sends next.
    next_round: u64,
}

enum Outcome {
    Ok,
    Wrong,
    PartialMismatch,
}

fn judge(corpus: &Corpus, idx: usize, got: &Response) -> Outcome {
    let e = &corpus.entries[idx];
    if *got == e.expected {
        return Outcome::Ok;
    }
    let leaked = e
        .partner
        .is_some_and(|p| *got == corpus.entries[p].expected);
    if e.capped && leaked {
        Outcome::PartialMismatch
    } else {
        Outcome::Wrong
    }
}

/// Sends whole rounds from `log.next_round` on for at least `seconds`,
/// adding what the connection saw to `log`.
fn drive(
    client: &mut Client,
    corpus: &Corpus,
    plan: &Plan,
    args: &Args,
    (epoch, seconds): (Instant, f64),
    log: &mut ConnLog,
) {
    let mut tr = Tracer::new(epoch);
    let t0 = Instant::now();
    let mut frame_id = 0u64;
    let first = log.next_round;
    for r in first.. {
        if t0.elapsed().as_secs_f64() >= seconds && (!args.trace || r >= first + 2) {
            log.next_round = r;
            break;
        }
        let traced = args.trace && r % 2 == 0;
        tr.set(traced, false);
        let round_start = Instant::now();
        let mut round_ops = 0;
        for frame in plan.round(args.seed, r) {
            let root = tr.begin_job(frame_id);
            frame_id += 1;
            let start = Instant::now();
            let (answers, verb) = match &frame {
                Frame::Single(i) => {
                    let e = &corpus.entries[*i];
                    let answer = tr.span("serve.rtt", || client.request(&e.request));
                    (
                        answer.map(|a| vec![a]),
                        if e.verb == Verb::Reach {
                            "reach"
                        } else {
                            "verify"
                        },
                    )
                }
                Frame::Batch(items) => {
                    let reqs = items
                        .iter()
                        .map(|&i| corpus.entries[i].request.clone())
                        .collect();
                    (tr.span("serve.rtt", || client.batch(reqs, None)), "batch")
                }
            };
            let op = Timing::since(start);
            let rtt = op.value;
            tr.end(root);
            let items: &[usize] = match &frame {
                Frame::Single(i) => std::slice::from_ref(i),
                Frame::Batch(items) => items,
            };
            log.attempted += items.len() as u64;
            match answers {
                Ok(answers) if answers.len() == items.len() => {
                    for (&i, got) in items.iter().zip(&answers) {
                        match judge(corpus, i, got) {
                            Outcome::Ok => {}
                            Outcome::PartialMismatch => log.partial_mismatch += 1,
                            Outcome::Wrong => {
                                eprintln!("pipebench: request {i} answered `{got}`");
                                log.failed += 1;
                                log.wrong += 1;
                                continue;
                            }
                        }
                        log.ops.push(op);
                        round_ops += 1;
                    }
                }
                Ok(_) => {
                    log.failed += items.len() as u64;
                    log.wrong += items.len() as u64;
                }
                Err(e) => {
                    eprintln!("pipebench: frame failed: {e}");
                    log.failed += items.len() as u64;
                }
            }
            log.rtt
                .entry(verb)
                .or_default()
                .push(rtt.as_secs_f64() * 1e3);
            if r < REPLAY_ROUNDS {
                log.replay.push((frame, rtt));
            }
        }
        let rate = round_ops as f64 / round_start.elapsed().as_secs_f64();
        if traced {
            log.traced_rates.push(rate);
        } else {
            log.untraced_rates.push(rate);
        }
    }
    log.spans = Some(tr);
}

/// The server's counters, over a connection of its own.
fn stats(server: &mut ServerProc) -> Result<StatsReply, String> {
    match server
        .connect()?
        .request(&Request::Stats)
        .map_err(|e| e.to_string())?
    {
        Response::Stats(s) => Ok(s),
        other => Err(format!("stats answered `{other}`")),
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let segments = crate::segments(args);
    let mut calib = Calib::new();
    let mut setups = Vec::new();
    let mut logs: Vec<ConnLog> = (0..CONNECTIONS).map(|_| ConnLog::default()).collect();
    let (mut timed, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..segments {
        let (ready, times) = repeated_setup(|| setup(args), &mut calib)?;
        setups.extend(times);
        let Ready {
            corpus,
            mut server,
            mut clients,
        } = ready;
        let pid = server.pid();
        let before = stats(&mut server)?;
        let epoch = Instant::now();
        let seconds = args.seconds / f64::from(segments);
        // Both connections stop at the end of each slice, so that the
        // host's speed is probed while the server is idle. A traced run
        // is one slice: it reports no end-to-end times.
        let slice = if args.trace { seconds } else { SLICE };
        loop {
            let left = seconds - epoch.elapsed().as_secs_f64();
            let (start, cpu0) = (Instant::now(), threads_cpu(&pid));
            std::thread::scope(|s| {
                for ((client, plan), log) in clients.iter_mut().zip(&corpus.plans).zip(&mut logs) {
                    let corpus = &corpus;
                    let run_for = (epoch, slice.min(left));
                    s.spawn(move || drive(client, corpus, plan, args, run_for, log));
                }
            });
            let wall = Timing::since(start);
            cpu.push(Timing {
                value: threads_cpu(&pid).saturating_sub(cpu0),
                ..wall
            });
            timed.push(wall);
            if epoch.elapsed().as_secs_f64() >= seconds {
                break;
            }
            calib.probe();
        }
        let after = stats(&mut server)?;
        rss.push(peak_rss_mb(&pid));
        last = Some((corpus, before, after, epoch));
    }
    // A traced run has one segment: its corpus, server counters and
    // span epoch.
    let (corpus, before, after, epoch) = last.expect("at least one segment");

    let sum = |f: fn(&ConnLog) -> u64| logs.iter().map(f).sum::<u64>();
    let (attempted, failed) = (sum(|l| l.attempted), sum(|l| l.failed));
    let mut report = Report {
        attempted,
        failed,
        wrong: sum(|l| l.wrong),
        metrics: Vec::new(),
        meta: base_meta(args, &corpus.digest.hex()),
    };
    if !args.trace {
        let ops: Vec<Timing> = logs.iter().flat_map(|l| l.ops.iter().copied()).collect();
        EndToEnd {
            setups: &setups,
            ops: &ops,
            timed: &timed,
            cpu: &cpu,
            // Each segment's child has its own peak; which threads'
            // allocator arenas a child touches moves it by up to 10%.
            peak_rss_mb: median(&rss),
            calib: &calib,
        }
        .push_into(&mut report);
        return Ok(report);
    }

    let ops = (attempted - failed).max(1) as f64;
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    for verb in ["reach", "verify", "batch"] {
        let rtts: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.rtt.get(verb).into_iter().flatten().copied())
            .collect();
        v.insert(format!("serve.rtt.{verb}_ms"), median(&rtts));
    }
    let lookups = (after.cache_byte_hits + after.cache_structural_hits + after.cache_misses)
        - (before.cache_byte_hits + before.cache_structural_hits + before.cache_misses);
    let share = |a: u64, b: u64| (a - b) as f64 / lookups.max(1) as f64;
    v.insert(
        "serve.cache.byte_hit_ratio".into(),
        share(after.cache_byte_hits, before.cache_byte_hits),
    );
    v.insert(
        "serve.cache.structural_hit_ratio".into(),
        share(after.cache_structural_hits, before.cache_structural_hits),
    );
    v.insert(
        "serve.cache.miss_ratio".into(),
        share(after.cache_misses, before.cache_misses),
    );
    v.insert(
        "serve.cache.evictions".into(),
        (after.cache_evictions - before.cache_evictions) as f64 / ops,
    );
    v.insert("serve.shed".into(), (after.shed - before.shed) as f64 / ops);
    v.insert(
        "serve.bad_requests".into(),
        (after.bad_requests - before.bad_requests) as f64 / ops,
    );
    v.insert(
        "serve.partial_mismatch".into(),
        sum(|l| l.partial_mismatch) as f64 / ops,
    );
    v.insert("fail_frac".into(), failed as f64 / attempted.max(1) as f64);
    let rates = |f: fn(&ConnLog) -> &Vec<f64>| {
        logs.iter()
            .flat_map(|l| f(l).iter().copied())
            .collect::<Vec<_>>()
    };
    v.insert(
        "trace.overhead_pct".into(),
        crate::overhead_pct(&rates(|l| &l.traced_rates), &rates(|l| &l.untraced_rates)),
    );

    // Replay the first rounds of each connection, in connection order,
    // through one fresh cache with layer spans: the server's compute
    // without frame, queue and transport.
    let cache = NetCache::new(CACHE_CAPACITY, cpn_format::ParseLimits::default());
    let mut tr = Tracer::new(Instant::now());
    tr.set(true, true);
    let (mut replayed_ops, mut compute_ms, mut overhead_ms) = (0u64, Vec::new(), Vec::new());
    for log in &logs {
        for (frame, rtt) in &log.replay {
            let items: &[usize] = match frame {
                Frame::Single(i) => std::slice::from_ref(i),
                Frame::Batch(items) => items,
            };
            let root = tr.begin_job(replayed_ops);
            let t0 = Instant::now();
            for &i in items {
                compute(&cache, &corpus.entries[i].request, &mut tr);
            }
            let compute = t0.elapsed().as_secs_f64() * 1e3;
            tr.end(root);
            replayed_ops += items.len() as u64;
            // Batch items run on both workers at once, so rtt − compute
            // is only meaningful for single-request frames.
            if let Frame::Single(_) = frame {
                compute_ms.push(compute);
                overhead_ms.push(rtt.as_secs_f64() * 1e3 - compute);
            }
        }
    }
    let mean = compute_ms.iter().sum::<f64>() / compute_ms.len().max(1) as f64;
    v.insert("serve.compute_ms".into(), mean);
    v.insert("serve.overhead_ms".into(), median(&overhead_ms));
    v.extend(crate::span_values(&tr, replayed_ops, replayed_ops));
    push_layers(&mut report, &v);
    let cache_json = format!(
        "{{\"byte_hits\":{},\"structural_hits\":{},\"misses\":{},\"evictions\":{}}}",
        after.cache_byte_hits - before.cache_byte_hits,
        after.cache_structural_hits - before.cache_structural_hits,
        after.cache_misses - before.cache_misses,
        after.cache_evictions - before.cache_evictions
    );
    report.meta.push(("server_cache".into(), cache_json));
    let mut spans = Tracer::new(epoch);
    for log in logs {
        if let Some(t) = log.spans {
            spans.absorb(t);
        }
    }
    crate::write_spans(&spans, args, &report.meta);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_answers_match_closed_forms_and_paper_verdicts() {
        // `generate` already rejects a cold answer that contradicts the
        // closed form or the paper's verdict.
        let c = Corpus::generate(2).expect("corpus");
        let distinct: BTreeSet<_> = c.entries.iter().map(|e| e.request.encode()).collect();
        assert_eq!(distinct.len(), c.entries.len());
        assert!(c.entries.len() > CACHE_CAPACITY);
        let capped = c.entries.iter().filter(|e| e.capped).count();
        assert_eq!(capped, 2 * POOL_CAPPED * CONNECTIONS);
    }

    #[test]
    fn same_seed_same_corpus_and_frames() {
        let a = Corpus::generate(6).expect("corpus");
        let b = Corpus::generate(6).expect("corpus");
        assert_eq!(a.digest.hex(), b.digest.hex());
        assert_ne!(
            a.digest.hex(),
            Corpus::generate(7).expect("corpus").digest.hex()
        );
        let frames = a.plans[0].round(6, 0);
        let ops: usize = frames
            .iter()
            .map(|f| match f {
                Frame::Single(_) => 1,
                Frame::Batch(v) => v.len(),
            })
            .sum();
        assert_eq!(ops, 46);
    }
}
