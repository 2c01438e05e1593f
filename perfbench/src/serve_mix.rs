//! `serve-mix`: a `repro serve` daemon at its default settings, driven
//! over loopback TCP by a seeded open-loop generator.
//!
//! Phases, in order:
//!
//! 1. **Set-up** (`setup_s`): spawn the daemon, touch every
//!    (algorithm, dataset) pair once, then wait until the background
//!    tuner has nothing pending and every graph is resident.
//! 2. **Probe**: a closed loop on the idle daemon, [`PROBE_REPEATS`]
//!    requests per pair, each followed by the sequential reference on the
//!    same input; gives `ratio.<algo>` and the per-algorithm execute
//!    times. Set-up and probe repeat on [`LAUNCHES`] fresh daemons.
//! 3. **Nominal**: on the last daemon, the mix at [`NOMINAL_QPS`], open
//!    loop; gives `serve.p50_ms`/`serve.p90_ms`.
//! 4. **Ladder**: the mix at each of [`LADDER_QPS`]; with the nominal
//!    phase it gives `serve.max_rate_qps`.
//!
//! Every request is timed from when it was due, so a stalled daemon is
//! charged for the wait it imposes on later requests. After the daemon
//! has shut down, replies are checked against checksums computed from
//! `ugc_algorithms::reference` on the same datasets.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ugc::Algorithm;
use ugc_algorithms::reference;
use ugc_graph::prng::Prng;
use ugc_graph::{Dataset, Graph, Scale};
use ugc_serve::protocol::checksum_ints;

use crate::metrics::{algo_key, ALGOS, LADDER_STEPS};
use crate::stats::{backlog_grows, best, geomean, median, quantile, tail_percentile, LadderStep};
use crate::suite::run_reference;
use crate::trace::Tracer;
use crate::Outcome;

/// The latency limit on the ladder's tail for `max_rate_qps`; point
/// queries also carry it as their `deadline_ms=`.
pub const LIMIT_MS: f64 = 100.0;
/// The ladder's tail percentile: p75 is the highest that keeps ten
/// samples beyond it on the shortest step (40 requests and more).
const LADDER_TAIL: f64 = 0.75;
/// The nominal offered rate: about a quarter of capacity.
pub const NOMINAL_QPS: f64 = 10.0;
/// The ladder above the nominal rate, past capacity.
pub const LADDER_QPS: [f64; LADDER_STEPS] = [28.0, 40.0, 56.0, 80.0];
/// Daemon launches per run, each set up and probed: the background tuner
/// picks a launch's schedules from noisy timings, and the per-algorithm
/// ratios average over launches.
const LAUNCHES: usize = 2;
/// Closed-loop requests per pair in each launch's probe.
const PROBE_REPEATS: usize = 2;
/// Share of the run's seconds given to the nominal phase; the ladder
/// steps share what the last launch's probe leaves of the rest (earlier
/// launches count as set-up).
const NOMINAL_SHARE: f64 = 0.45;
/// How long the daemon may take to exit after `shutdown` before it is
/// killed and reported.
const EXIT_BOUND: Duration = Duration::from_secs(15);
/// How long set-up may wait for the tuner to settle.
const SETTLE_BOUND: Duration = Duration::from_secs(120);
/// How long a phase waits for replies after its last request.
const DRAIN_BOUND: Duration = Duration::from_secs(30);

/// Datasets of the mix with their Zipf weights.
const DATASETS: [(Dataset, f64); 4] = [
    (Dataset::RoadNetCa, 1.0),
    (Dataset::Pokec, 1.0 / 2.0),
    (Dataset::LiveJournal, 1.0 / 3.0),
    (Dataset::Hollywood, 1.0 / 4.0),
];

/// Algorithm weights: 45% BFS, 30% SSSP, the rest split evenly.
fn algo_weight(a: Algorithm) -> f64 {
    match a {
        Algorithm::Bfs => 0.45,
        Algorithm::Sssp => 0.30,
        _ => 0.25 / 6.0,
    }
}

fn is_point(a: Algorithm) -> bool {
    matches!(a, Algorithm::Bfs | Algorithm::Sssp)
}

/// One request of a phase.
#[derive(Clone)]
struct Req {
    algo: Algorithm,
    dataset: usize,
    source: u32,
    /// Offset from the phase start when the request is due.
    due: Duration,
    /// Whether a point query carries the latency limit as its deadline
    /// (not during warm-up, whose first touches build the graphs).
    deadline: bool,
}

impl Req {
    fn line(&self) -> String {
        let mut line = format!(
            "query {} {} scale=small source={}",
            algo_key(self.algo),
            DATASETS[self.dataset].0.abbrev(),
            self.source
        );
        if self.deadline && is_point(self.algo) {
            line.push_str(&format!(" deadline_ms={}", LIMIT_MS as u64));
        }
        line
    }
}

/// What happened to one request.
struct Sent {
    req: Req,
    due: Instant,
    sent: Option<Instant>,
    replied: Option<Instant>,
    reply: Option<String>,
}

impl Sent {
    fn latency_ms(&self) -> f64 {
        match (self.replied, &self.reply) {
            (Some(r), Some(line)) if line.starts_with("ok") => ms(r - self.due),
            // Failed, shed or missing: it misses any limit.
            _ => f64::INFINITY,
        }
    }

    fn field(&self, key: &str) -> Option<&str> {
        reply_field(self.reply.as_deref()?, key)
    }

    fn exec_ms(&self) -> Option<f64> {
        self.field("ms")?.parse().ok()
    }
}

fn reply_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The daemon child; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    /// Kept open so the daemon's last status line does not hit a closed
    /// pipe.
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(repro: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(repro)
            .args(["serve", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match read
            .ok()
            .and_then(|_| line.trim().rsplit(' ').next()?.parse().ok())
        {
            Some(a) => daemon.addr = a,
            None => return Err(format!("daemon did not report its address: {line:?}")),
        }
        Ok(daemon)
    }

    /// One request on a fresh connection (used for `stats`, `shutdown`
    /// and the closed-loop phases, so an idle connection is never
    /// reused past the daemon's read timeout).
    fn ask(&self, line: &str) -> Result<String, String> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))
            .map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let mut w = stream.try_clone().map_err(|e| e.to_string())?;
        w.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| format!("read: {e}"))?;
        if reply.is_empty() {
            return Err(format!("no reply to `{line}`"));
        }
        Ok(reply.trim_end().to_string())
    }

    fn stats(&self) -> Result<HashMap<String, f64>, String> {
        let line = self.ask("stats")?;
        Ok(line
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect())
    }

    /// Sends `shutdown` and waits for the exit; a daemon that outlives
    /// [`EXIT_BOUND`] is killed. Returns whether it exited by itself.
    fn shutdown(mut self) -> bool {
        let _ = self.ask("shutdown");
        let t0 = Instant::now();
        while t0.elapsed() < EXIT_BOUND {
            if let Ok(Some(_)) = self.child.try_wait() {
                let mut rest = String::new();
                let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Requests of one open-loop phase: exact mix proportions (largest
/// remainder over the 32 (algorithm, dataset) cells), seeded order and
/// sources, and arrival times of a Poisson process conditioned on the
/// count (sorted uniform instants).
fn open_loop_phase(
    rng: &mut Prng,
    rate: f64,
    secs: f64,
    n_vertices: &[u32],
    bc_sources: &[u32],
) -> Vec<Req> {
    let n = (rate * secs).round().max(1.0) as usize;
    let zipf: f64 = DATASETS.iter().map(|(_, w)| w).sum();
    let mut quotas: Vec<(Algorithm, usize, f64)> = Vec::new();
    for a in ALGOS {
        for (d, (_, w)) in DATASETS.iter().enumerate() {
            quotas.push((a, d, n as f64 * algo_weight(a) * w / zipf));
        }
    }
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.2.floor() as usize).collect();
    let mut order: Vec<usize> = (0..quotas.len()).collect();
    order.sort_by(|&i, &j| {
        let (fi, fj) = (quotas[i].2.fract(), quotas[j].2.fract());
        fj.total_cmp(&fi).then(i.cmp(&j))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    let mut deck: Vec<(Algorithm, usize)> = Vec::with_capacity(n);
    for (q, &c) in quotas.iter().zip(&counts) {
        deck.extend(std::iter::repeat_n((q.0, q.1), c));
    }
    rng.shuffle(&mut deck);
    let mut times: Vec<f64> = (0..n).map(|_| rng.gen_f64() * secs).collect();
    times.sort_by(f64::total_cmp);
    deck.into_iter()
        .zip(times)
        .map(|((algo, dataset), t)| Req {
            algo,
            dataset,
            source: source_for(rng, algo, dataset, n_vertices, bc_sources),
            due: Duration::from_secs_f64(t),
            deadline: true,
        })
        .collect()
}

/// Point queries take a uniform source; BC keeps one seeded source per
/// dataset, so its replies repeat and can be checked for stability.
fn source_for(
    rng: &mut Prng,
    algo: Algorithm,
    dataset: usize,
    n_vertices: &[u32],
    bc_sources: &[u32],
) -> u32 {
    match algo {
        Algorithm::Bc => bc_sources[dataset],
        a if a.needs_start_vertex() => rng.bounded_u64(u64::from(n_vertices[dataset])) as u32,
        _ => 0,
    }
}

/// One pipelined connection of the generator.
struct Link {
    stream: TcpStream,
    /// Bytes read but not yet split into reply lines.
    buf: Vec<u8>,
    /// Requests sent on this connection and not yet answered, in order.
    fifo: VecDeque<usize>,
    alive: bool,
}

impl Link {
    fn connect(addr: SocketAddr) -> Option<Link> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(Link {
            stream,
            buf: Vec::new(),
            fifo: VecDeque::new(),
            alive: true,
        })
    }

    /// Writes a whole request line on the non-blocking socket.
    fn send(&mut self, line: &str) -> bool {
        let mut rest = line.as_bytes();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return false,
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(_) => return false,
            }
        }
        true
    }

    /// Reads what has arrived and hands each complete reply line, with
    /// the request it answers, to `done`. Returns whether anything came.
    fn poll(&mut self, done: &mut impl FnMut(usize, String)) -> bool {
        let mut chunk = [0u8; 4096];
        let mut got = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.alive = false;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.alive = false;
                    break;
                }
            }
        }
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            if let Some(i) = self.fifo.pop_front() {
                done(i, String::from_utf8_lossy(&line).trim_end().to_string());
            }
        }
        got
    }
}

/// Drives one open-loop phase from a single thread over `conns`
/// pipelined connections. Each request goes out when due on the
/// connection with the fewest unanswered requests, behind which it waits
/// if all are busy. Returns the phase start and the requests in due order.
fn drive(addr: SocketAddr, reqs: Vec<Req>, conns: usize) -> (Instant, Vec<Sent>) {
    let start = Instant::now() + Duration::from_millis(20);
    let mut sent: Vec<Sent> = reqs
        .into_iter()
        .map(|req| Sent {
            due: start + req.due,
            req,
            sent: None,
            replied: None,
            reply: None,
        })
        .collect();
    let mut links: Vec<Link> = (0..conns).filter_map(|_| Link::connect(addr)).collect();
    let mut next = 0usize;
    let mut drain_until: Option<Instant> = None;
    loop {
        let now = Instant::now();
        while next < sent.len() && sent[next].due <= now {
            let Some(link) = links
                .iter_mut()
                .filter(|l| l.alive)
                .min_by_key(|l| l.fifo.len())
            else {
                break;
            };
            if link.send(&format!("{}\n", sent[next].req.line())) {
                sent[next].sent = Some(Instant::now());
                link.fifo.push_back(next);
            } else {
                link.alive = false;
            }
            next += 1;
        }
        let mut got = false;
        for link in links.iter_mut().filter(|l| l.alive) {
            got |= link.poll(&mut |i, line| {
                sent[i].replied = Some(Instant::now());
                sent[i].reply = Some(line);
            });
        }
        let waiting = links.iter().any(|l| l.alive && !l.fifo.is_empty());
        if next == sent.len() || links.iter().all(|l| !l.alive) {
            let until = *drain_until.get_or_insert(now + DRAIN_BOUND);
            if !waiting || now >= until || links.iter().all(|l| !l.alive) {
                break;
            }
        }
        if !got {
            let nap = Duration::from_micros(200);
            let to_due = sent
                .get(next)
                .map_or(nap, |s| s.due.saturating_duration_since(Instant::now()));
            std::thread::sleep(nap.min(to_due));
        }
    }
    (start, sent)
}

/// One closed-loop request on a fresh connection, timed from send.
fn closed_loop(daemon: &Daemon, req: Req) -> Sent {
    let now = Instant::now();
    let reply = daemon.ask(&req.line()).ok();
    Sent {
        req,
        due: now,
        sent: Some(now),
        replied: Some(Instant::now()),
        reply,
    }
}

/// Latencies of a phase's point queries (BFS and SSSP), the interactive
/// requests the latency limit applies to.
fn point_latencies(sent: &[Sent]) -> Vec<f64> {
    sent.iter()
        .filter(|s| is_point(s.req.algo))
        .map(Sent::latency_ms)
        .collect()
}

/// A phase's outstanding requests at evenly spaced instants.
fn outstanding(sent: &[Sent], from: Instant, secs: f64, samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|i| {
            let t = from + Duration::from_secs_f64(secs * (i as f64 + 0.5) / samples as f64);
            let out = sent
                .iter()
                .filter(|s| s.sent.is_some_and(|x| x <= t))
                .count();
            let back = sent
                .iter()
                .filter(|s| s.replied.is_some_and(|x| x <= t))
                .count();
            (out - back.min(out)) as f64
        })
        .collect()
}

/// Spawns a daemon, touches every pair once, and waits until the tuner
/// has nothing pending and every graph is resident. Returns the daemon,
/// the warm-up replies, and the ms until it listened and until it settled.
fn start(repro: &Path) -> Result<(Daemon, Vec<Sent>, f64, f64), String> {
    let t_spawn = Instant::now();
    let daemon = Daemon::spawn(repro)?;
    let ready_ms = ms(t_spawn.elapsed());
    let mut warm: Vec<Sent> = Vec::new();
    for a in ALGOS {
        for d in 0..DATASETS.len() {
            let req = Req {
                algo: a,
                dataset: d,
                source: 0,
                due: Duration::ZERO,
                deadline: false,
            };
            warm.push(closed_loop(&daemon, req));
        }
    }
    let t_settle = Instant::now();
    loop {
        let s = daemon.stats()?;
        if s.get("tuned_pending") == Some(&0.0)
            && s.get("resident_graphs") == Some(&(DATASETS.len() as f64))
        {
            break;
        }
        if t_settle.elapsed() > SETTLE_BOUND {
            return Err(format!(
                "daemon did not settle within {SETTLE_BOUND:?}: {s:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    Ok((daemon, warm, ready_ms, ms(t_spawn.elapsed())))
}

/// Probe replies and reference ms per (algorithm index, dataset).
type Probe = BTreeMap<(usize, usize), (Vec<Sent>, Vec<f64>)>;

/// The probe: a closed loop on the idle daemon, the pairs taken in turn
/// so no pair's repeats bunch up. Each request is followed by the
/// sequential reference on the same input in this process; the ratio of
/// their best times cancels the host's drifting speed (see
/// `suite::untraced_op`).
fn probe(daemon: &Daemon, reqs: &[Req], graphs: &[Graph], tracer: &mut Tracer) -> Probe {
    let mut probe = Probe::new();
    for _ in 0..PROBE_REPEATS {
        for req in reqs {
            let sent = closed_loop(daemon, req.clone());
            let op = tracer.fresh_id();
            record_request(tracer, op, &sent);
            let t0 = Instant::now();
            tracer.span("reference", op, None, || {
                run_reference(req.algo, &graphs[req.dataset], req.source)
            });
            let ai = ALGOS.iter().position(|&a| a == req.algo).unwrap_or(0);
            let entry = probe.entry((ai, req.dataset)).or_default();
            entry.0.push(sent);
            entry.1.push(ms(t0.elapsed()));
        }
    }
    probe
}

/// Runs the workload. `Err` only when a daemon cannot be started or never
/// settles; wrong answers are reported in the outcome.
pub fn run(repro: &Path, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = Prng::with_stream(seed, 0x5E7E);
    let mut out = Outcome::default();

    // The benchmark's own copy of the datasets: sources are drawn from it
    // and replies checked against references computed on it.
    let t_graphs = Instant::now();
    let op = tracer.fresh_id();
    let graphs: Vec<Graph> = DATASETS
        .iter()
        .map(|(d, _)| tracer.span("graph", op, None, || d.generate(Scale::Small)))
        .collect();
    let graph_ms = ms(t_graphs.elapsed());
    let n_vertices: Vec<u32> = graphs.iter().map(|g| g.num_vertices() as u32).collect();
    let live: Vec<Vec<u32>> = graphs
        .iter()
        .map(|g| {
            (0..g.num_vertices() as u32)
                .filter(|&v| g.out_degree(v) > 0)
                .collect()
        })
        .collect();
    let live_source =
        |rng: &mut Prng, d: usize| live[d][rng.bounded_u64(live[d].len() as u64) as usize];
    let bc_sources: Vec<u32> = (0..DATASETS.len())
        .map(|d| live_source(&mut rng, d))
        .collect();
    // One seeded non-isolated source per probed pair.
    let mut probe_reqs = Vec::new();
    for a in ALGOS {
        for (d, &bc_source) in bc_sources.iter().enumerate() {
            let source = match a {
                Algorithm::Bc => bc_source,
                a if a.needs_start_vertex() => live_source(&mut rng, d),
                _ => 0,
            };
            probe_reqs.push(Req {
                algo: a,
                dataset: d,
                source,
                due: Duration::ZERO,
                deadline: true,
            });
        }
    }

    // Each launch: set-up, then the probe; the last also runs the open
    // loop. Replies are checked once each daemon is gone, so checking
    // never perturbs timing.
    let mut checker = Checker::new(&graphs);
    let (mut setup_ms, mut ready_ms, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut probe_s = 0.0; // the last launch's
    let mut peak_rss: f64 = 0.0;
    let mut phases: Vec<(f64, f64, Vec<Sent>, Instant)> = Vec::new();
    let (mut before, mut after) = (HashMap::new(), HashMap::new());
    for launch in 0..LAUNCHES {
        let (daemon, warm, ready, setup) = start(repro)?;
        ready_ms.push(ready);
        setup_ms.push(setup);
        let t_probe = Instant::now();
        let launch_probe = probe(&daemon, &probe_reqs, &graphs, tracer);
        probe_s = t_probe.elapsed().as_secs_f64();
        if launch + 1 == LAUNCHES {
            before = daemon.stats()?;
            let nominal_s = seconds * NOMINAL_SHARE;
            let step_s = ((seconds - nominal_s - probe_s) / LADDER_QPS.len() as f64).max(1.0);
            for (rate, secs) in std::iter::once((NOMINAL_QPS, nominal_s))
                .chain(LADDER_QPS.iter().map(|&r| (r, step_s)))
            {
                let reqs = open_loop_phase(&mut rng, rate, secs, &n_vertices, &bc_sources);
                let (t0, sent) = drive(daemon.addr, reqs, conns);
                phases.push((rate, secs, sent, t0));
            }
            after = daemon.stats()?;
        }
        let pid = daemon.child.id().to_string();
        peak_rss = peak_rss.max(crate::peak_rss_mb(&pid).unwrap_or(0.0));
        if !daemon.shutdown() {
            out.failed += 1;
            eprintln!("serve-mix: daemon did not exit within {EXIT_BOUND:?} of shutdown; killed");
        }

        // Warm-up replies predate the tuned schedules, so they are checked
        // against the reference only; stability starts with the probe.
        checker.first.clear();
        for s in &warm {
            checker.check(s, true, false, &mut out);
        }
        for s in launch_probe.values().flat_map(|p| &p.0) {
            checker.check(s, true, true, &mut out);
        }
        for (i, (_, _, sent, _)) in phases.iter().enumerate() {
            for s in sent {
                // Past the nominal phase an `err` reply (a shed past
                // capacity) is the measurement, not a failure; a wrong
                // answer still is.
                checker.check(s, i == 0, true, &mut out);
            }
        }
        out.attempted +=
            (warm.len() + launch_probe.values().map(|p| p.0.len()).sum::<usize>()) as u64;
        probes.push(launch_probe);
    }
    out.attempted += phases.iter().map(|p| p.2.len()).sum::<usize>() as u64;

    let e = &mut out.metrics;
    e.insert(
        "serve.unstable_frac".into(),
        checker.unstable as f64 / checker.float_replies.max(1) as f64,
    );
    e.insert("setup_s".into(), median(&setup_ms) / 1e3);
    e.insert("setup.daemon_ready_ms".into(), median(&ready_ms));
    e.insert(
        "setup.warm_ms".into(),
        median(&setup_ms) - median(&ready_ms),
    );
    e.insert("setup.graph_ms".into(), graph_ms);
    e.insert("peak_rss_mb".into(), peak_rss);
    // Per (launch, dataset) best latency over best reference: the
    // background tuner picks each launch's schedules from noisy timings,
    // so the geomean runs over launches as well as datasets.
    for (ai, &a) in ALGOS.iter().enumerate() {
        let k = algo_key(a);
        let (mut ratio, mut exec, mut refs) = (Vec::new(), Vec::new(), Vec::new());
        for (runs, ref_ms) in probes
            .iter()
            .flat_map(|p| p.range((ai, 0)..(ai + 1, 0)).map(|(_, v)| v))
        {
            let lat: Vec<f64> = runs.iter().map(Sent::latency_ms).collect();
            ratio.push(best(&lat) / best(ref_ms));
            exec.push(best(
                &runs.iter().filter_map(Sent::exec_ms).collect::<Vec<_>>(),
            ));
            refs.push(best(ref_ms));
        }
        eprintln!(
            "serve-mix probe {k:<5} latency / reference by launch and dataset: {}",
            ratio
                .iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        e.insert(format!("ratio.{k}"), geomean(&ratio));
        e.insert(format!("exec_ms.{k}"), geomean(&exec));
        e.insert(format!("ref_ms.{k}"), geomean(&refs));
        e.insert(format!("ref_ratio.{k}"), geomean(&exec) / geomean(&refs));
    }
    let nominal = point_latencies(&phases[0].2);
    e.insert(
        "serve.p50_ms".into(),
        quantile(&nominal, 0.5).unwrap_or(0.0),
    );
    e.insert(
        "serve.p90_ms".into(),
        quantile(&nominal, 0.9).unwrap_or(0.0),
    );
    let mut steps = Vec::new();
    for (i, (rate, secs, sent, t0)) in phases.iter().enumerate() {
        let lat = point_latencies(sent);
        let step = LadderStep {
            rate: *rate,
            tail_ms: quantile(&lat, LADDER_TAIL).unwrap_or(f64::INFINITY),
            backlog_grows: backlog_grows(&outstanding(sent, *t0, *secs, 30), *secs, *rate),
        };
        let tail = tail_percentile(lat.len(), 10).unwrap_or(50);
        eprintln!(
            "serve-mix step {i}: {rate} q/s x {secs:.1} s, {} point queries, p50 {:.1} ms, p75 {:.1} ms, \
             p{tail} (highest with 10 samples beyond) {:.1} ms{}",
            lat.len(),
            quantile(&lat, 0.5).unwrap_or(f64::INFINITY),
            step.tail_ms,
            quantile(&lat, tail as f64 / 100.0).unwrap_or(f64::INFINITY),
            if step.backlog_grows { ", backlog grows" } else { "" }
        );
        if i > 0 {
            e.insert(
                format!("serve.step{i}.p50_ms"),
                quantile(&lat, 0.5).unwrap_or(0.0),
            );
            e.insert(format!("serve.step{i}.p75_ms"), step.tail_ms);
        }
        steps.push(step);
    }
    e.insert(
        "serve.max_rate_qps".into(),
        crate::stats::max_rate(&steps, LIMIT_MS),
    );

    // Per-layer metrics from the daemon's own counters and replies.
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let measured: Vec<&Sent> = phases.iter().flat_map(|p| p.2.iter()).collect();
    let batchable = measured
        .iter()
        .filter(|s| is_point(s.req.algo))
        .count()
        .max(1) as f64;
    let supervised: Vec<&&Sent> = measured
        .iter()
        .filter(|s| {
            !is_point(s.req.algo) && s.reply.as_deref().is_some_and(|r| r.starts_with("ok"))
        })
        .collect();
    e.insert(
        "serve.coalesce_ratio".into(),
        delta("coalesced") / batchable,
    );
    e.insert(
        "serve.edge_scans_per_query".into(),
        delta("work") / batchable,
    );
    e.insert(
        "serve.cache_hit_ratio".into(),
        delta("cache_hits") / (delta("cache_hits") + delta("cache_builds")).max(1.0),
    );
    e.insert(
        "serve.tuned_hit_ratio".into(),
        delta("tuned_hits") / supervised.len().max(1) as f64,
    );
    let retried = supervised
        .iter()
        .filter(|s| s.field("attempts").is_some_and(|a| a != "1"))
        .count();
    e.insert(
        "serve.retry_frac".into(),
        retried as f64 / supervised.len().max(1) as f64,
    );
    let waits: Vec<f64> = phases[0]
        .2
        .iter()
        .filter(|s| s.latency_ms().is_finite())
        .filter_map(|s| Some(s.latency_ms() - s.exec_ms()?))
        .collect();
    e.insert(
        "serve.wait_ms_p50".into(),
        quantile(&waits, 0.5).unwrap_or(0.0),
    );
    e.insert(
        "serve.wait_ms_p90".into(),
        quantile(&waits, 0.9).unwrap_or(0.0),
    );
    let open: Vec<&Sent> = phases.iter().flat_map(|p| p.2.iter()).collect();
    let overrun: Vec<f64> = open
        .iter()
        .filter(|s| is_point(s.req.algo) && s.latency_ms().is_finite())
        .filter_map(|s| Some((ms(s.replied? - s.sent?) - LIMIT_MS).max(0.0)))
        .collect();
    e.insert(
        "serve.overrun_ms_p90".into(),
        quantile(&overrun, 0.9).unwrap_or(0.0),
    );
    let late: Vec<f64> = open
        .iter()
        .filter_map(|s| Some(ms(s.sent? - s.due)))
        .collect();
    e.insert(
        "loadgen.late_ms_p90".into(),
        quantile(&late, 0.9).unwrap_or(0.0),
    );
    eprintln!(
        "serve-mix: {LAUNCHES} launches, {conns} connections, probe {probe_s:.2} s, point-query p75 limit {LIMIT_MS} ms"
    );

    if tracer.enabled() {
        trace_layers(tracer, &phases[0].2, e);
    }
    Ok(out)
}

/// Records a request's span (send to reply) with the reply's `ms=` as its
/// execute child, ending at the reply.
fn record_request(tracer: &mut Tracer, op: u64, s: &Sent) {
    let (Some(sent), Some(replied)) = (s.sent, s.replied) else {
        return;
    };
    let root = tracer.record("request", op, None, sent, replied);
    if let Some(x) = s.exec_ms() {
        let start = replied
            .checked_sub(Duration::from_secs_f64(x / 1e3))
            .unwrap_or(sent);
        tracer.record("exec", op, Some(root), start.max(sent), replied);
    }
}

/// Traced-run extras: spans for every other nominal request, whose
/// latency difference from the untraced half is the tracing overhead, and
/// the compile cost of the mix's programs.
fn trace_layers(tracer: &mut Tracer, nominal: &[Sent], e: &mut crate::metrics::Metrics) {
    let (mut traced_lat, mut plain_lat) = (Vec::new(), Vec::new());
    for (i, s) in nominal.iter().enumerate() {
        if i % 2 == 0 {
            plain_lat.push(s.latency_ms());
        } else {
            let op = tracer.fresh_id();
            record_request(tracer, op, s);
            traced_lat.push(s.latency_ms());
        }
    }
    let finite = |v: Vec<f64>| v.into_iter().filter(|x| x.is_finite()).collect::<Vec<_>>();
    e.insert(
        "trace.overhead_ms".into(),
        median(&finite(traced_lat)) - median(&finite(plain_lat)),
    );

    let (mut fe, mut me, mut size) = (Vec::new(), Vec::new(), Vec::new());
    for a in ALGOS {
        let op = tracer.fresh_id();
        let t0 = Instant::now();
        let Ok(mut prog) = tracer.span("frontend", op, None, || {
            ugc_midend::frontend_to_ir(a.source())
        }) else {
            continue;
        };
        let t1 = Instant::now();
        if tracer
            .span("midend", op, None, || ugc_midend::run_passes(&mut prog))
            .is_err()
        {
            continue;
        }
        fe.push(ms(t1 - t0));
        me.push(ms(t1.elapsed()));
        size.push(ugc_midend::ir_size(&prog) as f64);
    }
    e.insert("compile.frontend_ms".into(), crate::stats::mean(&fe));
    e.insert("compile.midend_ms".into(), crate::stats::mean(&me));
    e.insert("compile.ir_size".into(), crate::stats::mean(&size));
}

/// The checksum the daemon's reply must carry, computed with the
/// sequential reference; `None` for PR, BC and LP, whose float or
/// schedule-dependent results are checked for stability instead.
fn reference_checksum(algo: Algorithm, g: &Graph, src: u32) -> Option<u64> {
    match algo {
        Algorithm::Bfs => Some(checksum_ints(&reference::bfs_levels(g, src))),
        Algorithm::Sssp => Some(checksum_ints(&reference::dijkstra(g, src))),
        Algorithm::Cc => Some(checksum_ints(&reference::cc_labels(g))),
        Algorithm::Tc => Some(checksum_ints(&reference::triangle_counts(g))),
        Algorithm::KCore => Some(checksum_ints(&reference::coreness(g))),
        Algorithm::PageRank | Algorithm::Bc | Algorithm::Lp => None,
    }
}

/// Checks replies: reference checksums where the reply is exact, and
/// stability against the first reply to the same query otherwise.
struct Checker<'g> {
    graphs: &'g [Graph],
    expected: HashMap<(Algorithm, usize, u32), Option<u64>>,
    first: HashMap<(Algorithm, usize, u32), u64>,
    /// PR and BC replies checked for stability, and how many changed.
    float_replies: u64,
    unstable: u64,
}

impl<'g> Checker<'g> {
    fn new(graphs: &'g [Graph]) -> Checker<'g> {
        Checker {
            graphs,
            expected: HashMap::new(),
            first: HashMap::new(),
            float_replies: 0,
            unstable: 0,
        }
    }

    /// Counts a request's failure into `out`. `err_fails` says whether an
    /// `err` reply counts (it does outside the overload ladder); a missing
    /// reply and a wrong answer always do. `stable` checks replies without
    /// a reference checksum against the first such reply.
    fn check(&mut self, s: &Sent, err_fails: bool, stable: bool, out: &mut Outcome) {
        let Some(reply) = &s.reply else {
            out.failed += 1;
            return;
        };
        if !reply.starts_with("ok") {
            if err_fails {
                out.failed += 1;
                eprintln!("serve-mix: `{}` -> {reply}", s.req.line());
            }
            return;
        }
        let key = (s.req.algo, s.req.dataset, s.req.source);
        let Some(got) = s
            .field("checksum")
            .and_then(|c| u64::from_str_radix(c.trim_start_matches("0x"), 16).ok())
        else {
            out.failed += 1;
            out.wrong.push(format!(
                "`{}` -> reply without a checksum: {reply}",
                s.req.line()
            ));
            return;
        };
        let graphs = self.graphs;
        let want = *self
            .expected
            .entry(key)
            .or_insert_with(|| reference_checksum(key.0, &graphs[key.1], key.2));
        let ok = match want {
            Some(w) => got == w,
            None if !stable => true,
            None => {
                let first = *self.first.entry(key).or_insert(got);
                // PR and BC sum floats on the daemon's multi-threaded pool,
                // whose results the program promises bit-identical only
                // at UGC_THREADS=1: a changed checksum is counted, not
                // failed (cpu-suite validates both within a tolerance).
                if matches!(key.0, Algorithm::PageRank | Algorithm::Bc) {
                    self.float_replies += 1;
                    self.unstable += u64::from(first != got);
                    true
                } else {
                    first == got
                }
            }
        };
        if !ok {
            out.failed += 1;
            out.wrong
                .push(format!("`{}` -> wrong checksum: {reply}", s.req.line()));
        }
    }
}
