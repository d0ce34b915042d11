//! The seeded fleet search: the real serving path — a `Client` submits
//! to a `Server` whose `Fleet` dispatches to three real `Worker`s — in
//! one process, on `query1-tiny`, over the in-memory transport, under
//! the explorer's seeded scheduler and virtual clock.
//!
//! Each seed draws its faults from one vocabulary (see [`Faults`]):
//! requests and replies delayed, held, cut or left half-open; tampered
//! `KeyblockBin` frames; heartbeat loss; a worker killed, or killed and
//! rejoined at its address; a refused `Prepare`; a coordinator that
//! vanishes and restarts reusing job ids; spill faults under a 1-byte
//! budget; a map's committed output corrupted or truncated; a
//! straggler raced by a speculative twin; a failed map
//! attempt; work spread over two workers (slot-order placement alone
//! puts it all on w0); a client that hangs up, or a second connection
//! that cancels the job, after some keyblocks. Every draw comes from
//! the explorer's decider, so a failing seed's [`ScheduleRef`] replays
//! its faults, its interleaving and its virtual timestamps.
//!
//! Every run is checked by the same oracles (see [`World::check`]), on
//! what the client *received*: output byte-identical to the
//! single-process engine, each keyblock streamed exactly once,
//! re-executions confined to the maps of uncommitted `I_ℓ`s whose
//! partitions a fault destroyed, the timeline protocol (which the
//! coordinator's loop checks itself, so a violation is a failed job,
//! a finding on every path), the resident budget, the heartbeat's
//! attempt counts as `sidr-submit stats` shows them, no attempt on a
//! worker that refuses `Prepare`, an idle slot
//! pool, no vthread left parked, and — once a heartbeat round has
//! passed after the job's end — no partition, spill file or prepared
//! job on any live worker that a probe reached since. A hung-up job
//! must still complete on the server; a cancelled one ends `Cancelled`
//! (or `Done`, if every keyblock committed first). The scripted cases below fix the faults
//! and assert exact expectations on top.
//!
//! ```text
//! RUSTFLAGS='--cfg check' cargo test --release -p sidr-check --test fleet
//! ```
//!
//! [`ScheduleRef`]: sidr_check::ScheduleRef
#![cfg(check)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sidr_analyze::presets;
use sidr_check::{choose, Explorer, FindingKind, Report, Strategy};
use sidr_coords::Coord;
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{run_spec_on_pool, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner};
use sidr_mapreduce::executor::TaskExecutor;
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::sync::{thread, time, wait_until, Condvar, Mutex};
use sidr_mapreduce::{
    reexecuted_maps, FaultKind, FaultPlan, FaultTarget, InMemoryOutput, SlotPool,
    SpeculationPolicy, TaskEvent, TaskKind,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;
use sidr_serve::binframe::{decode_keyblock, encode_keyblock};
use sidr_serve::fleet::{WorkerRequest, WorkerResponse};
use sidr_serve::frame;
use sidr_serve::transport::{Crossing, Fate};
use sidr_serve::{
    Client, Fleet, JobOutcome, Mem, Response, ServeError, Server, ServerConfig, ServerHandle,
    ServerStats, SubmitOptions, Transport, WorkerStat,
};
use sidr_worker::{Worker, WorkerOptions};

const WORKERS: usize = 3;

/// The server's address; the workers are `w0`, `w1`, `w2`.
const SERVER: &str = "c0";

/// How often a client that hung up checks whether the job is over.
const POLL: Duration = Duration::from_millis(20);

/// The coordinator's heartbeat probe timeout.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// Past the probe timeout.
const HOLD: Duration = Duration::from_millis(600);

/// Longer than the coordinator's 200 ms heartbeat period.
const BEAT: Duration = Duration::from_millis(250);

/// Long enough that only a kill ends the wait.
const PARKED: Duration = Duration::from_secs(10);

/// Every job's deadline, in virtual time: far past any fault's delay.
const DEADLINE_MS: u64 = 20_000;

/// Virtual time left to pass after the job's end beyond the longest
/// delay a rule injected, so every held frame has landed before the
/// sweep is judged.
const SETTLE: Duration = Duration::from_millis(100);

/// The mutation flag is process-global: runs that arm one serialize.
static CHAOS: std::sync::Mutex<()> = std::sync::Mutex::new(());

type Keyblocks = Vec<(usize, Vec<(Coord, f64)>)>;

struct Fixture {
    spec: JobSpec,
    input: String,
    expected: Keyblocks,
}

/// `query1-tiny`, or its filter variant, with the single-process
/// engine's output. Built outside any exploration.
fn fixture(filter: bool) -> &'static Fixture {
    static PLAIN: OnceLock<Fixture> = OnceLock::new();
    static FILTER: OnceLock<Fixture> = OnceLock::new();
    let build = || {
        let job = presets::preset("query1-tiny").expect("preset exists");
        let mut query = job.query.clone();
        if filter {
            // Values are the linear index: only the top tenth passes.
            query.operator = Operator::Filter {
                threshold: query.input_space().count() as f64 * 0.9,
            };
        }
        let plan = SidrPlanner::new(&query, job.reducer_counts[0])
            .build(&job.splits)
            .unwrap();
        let spec = JobSpec::from_plan(&query, &job.splits, &plan).unwrap();
        let dir = std::env::temp_dir().join("sidr-check-fleet");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("tiny-{}.scinc", std::process::id()));
        if !path.exists() {
            let space = query.input_space().clone();
            DatasetSpec {
                variable: query.variable.clone(),
                dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
                space,
                model: ValueModel::LinearIndex,
                seed: 0,
            }
            .generate::<f32>(&path)
            .unwrap();
        }
        let input = path.to_string_lossy().into_owned();
        let out = InMemoryOutput::new();
        let file = ScincFile::open(&input).unwrap();
        let pool = SlotPool::new(4, 2).unwrap();
        run_spec_on_pool(&file, &spec, &SpecRunOptions::default(), &out, &pool, None).unwrap();
        let mut expected: Keyblocks = (out.commits().into_iter())
            .map(|c| (c.reducer, c.records))
            .collect();
        expected.sort_by_key(|c| c.0);
        Fixture {
            spec,
            input,
            expected,
        }
    };
    match filter {
        false => PLAIN.get_or_init(build),
        true => FILTER.get_or_init(build),
    }
}

/// Which requests a wire rule matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Prepare,
    Map,
    Reduce,
    Fetch,
    Release,
    Ping,
}

fn kind_of(req: &WorkerRequest) -> (Kind, Option<usize>, Option<u32>) {
    match *req {
        WorkerRequest::Prepare { .. } => (Kind::Prepare, None, None),
        WorkerRequest::RunMap { task, attempt, .. } => (Kind::Map, Some(task), Some(attempt)),
        WorkerRequest::RunReduce {
            reducer, attempt, ..
        } => (Kind::Reduce, Some(reducer), Some(attempt)),
        WorkerRequest::FetchPartition { map, .. } => (Kind::Fetch, Some(map), None),
        WorkerRequest::Release { reducer, .. } => (Kind::Release, Some(reducer), None),
        WorkerRequest::Ping { .. } => (Kind::Ping, None, None),
    }
}

/// How a tampered keyblock reply lies.
#[derive(Clone, Copy, Debug)]
enum Tamper {
    /// One payload bit flipped: the CRC fails.
    Crc,
    /// The frame names the next reducer.
    Reducer,
    /// `ReduceDone` announces one record more than the frame holds.
    Count,
}

/// What a rule does to a matched request.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// The request's fate.
    Request(Fate),
    /// The reply's fate.
    Reply(Fate),
    /// A keyblock reply lies, and lands only after its sources are
    /// released.
    Tamper(Tamper),
    /// `Prepare` names an input the worker cannot open: it refuses.
    Refuse,
}

/// One wire fault: `act` on matches `from .. from + count` of requests
/// of `kind` (to `worker`, for `task`/`attempt`, when given).
#[derive(Clone, Debug)]
struct Rule {
    kind: Kind,
    worker: Option<usize>,
    task: Option<usize>,
    attempt: Option<u32>,
    from: usize,
    count: usize,
    act: Act,
}

impl Rule {
    fn on(kind: Kind, act: Act) -> Rule {
        Rule {
            kind,
            worker: None,
            task: None,
            attempt: None,
            from: 0,
            count: 1,
            act,
        }
    }

    fn every(self) -> Rule {
        Rule {
            count: usize::MAX,
            ..self
        }
    }
}

/// When a scheduled kill fires.
#[derive(Clone, Copy, Debug)]
enum When {
    /// Once this many `MapDone` replies have been sent.
    MapsDone(usize),
    /// Once `maps` maps are done, `reduces` reduce attempts and map
    /// `task` (if any) have been dispatched, and every reduce attempt
    /// dispatched to another worker than the victim has replied.
    Settled {
        maps: usize,
        reduces: usize,
        task: Option<usize>,
    },
}

#[derive(Clone, Copy, Debug)]
struct Kill {
    victim: usize,
    when: When,
    /// A fresh worker takes the victim's address right away.
    rejoin: bool,
}

/// How the submitting client misbehaves, after this many keyblocks.
#[derive(Clone, Copy, Debug)]
enum ClientFault {
    /// It hangs up.
    HangUp(usize),
    /// A second connection cancels the job.
    Cancel(usize),
}

/// One run's faults. The search draws them ([`Faults::draw`]); a
/// scripted case writes them out.
#[derive(Clone, Debug, Default)]
struct Faults {
    rules: Vec<Rule>,
    kill: Option<Kill>,
    /// A coordinator ran this many maps of job 1, then vanished; its
    /// successor, which reuses the job id, ends them with its first
    /// roster.
    restart: Option<usize>,
    /// Workers get a 1-byte resident budget, and this map's first
    /// attempt this spill fault (if any).
    spill: Option<Option<(usize, FaultKind)>>,
    /// This map's first attempt commits damaged output
    /// (`CorruptOutput` or `TruncateOutput`).
    damage: Option<(usize, FaultKind)>,
    /// This map's first attempt straggles this long, raced by a forced
    /// speculative twin.
    straggle: Option<(usize, u64)>,
    /// These attempts of this map fail outright.
    fail: Option<(usize, Vec<u32>)>,
    client: Option<ClientFault>,
    /// The job's deadline, when shorter than [`DEADLINE_MS`]: the job
    /// must end `DeadlineExceeded`.
    deadline: Option<u64>,
    /// The job is `query1-tiny`'s filter variant.
    filter: bool,
    map_slots: usize,
}

impl Faults {
    /// One seed's draw from the whole vocabulary.
    fn draw() -> Faults {
        let pick = choose;
        let maps = fixture(false).spec.splits.len();
        let mut rules = Vec::new();
        if pick(3) > 0 {
            const KINDS: [Kind; 5] = [
                Kind::Map,
                Kind::Reduce,
                Kind::Fetch,
                Kind::Release,
                Kind::Ping,
            ];
            let delay = Duration::from_millis(1 + pick(20) as u64);
            let act = match pick(11) {
                0 => Act::Request(Fate::Deliver(delay)),
                1 => Act::Request(Fate::Deliver(HOLD)),
                2 => Act::Request(Fate::Cut),
                3 => Act::Reply(Fate::Deliver(delay)),
                4 => Act::Reply(Fate::Deliver(HOLD)),
                5 => Act::Reply(Fate::Cut),
                6 => Act::Reply(Fate::Vanish),
                7 => Act::Reply(Fate::DeliverThenCut),
                8 => Act::Tamper(Tamper::Crc),
                9 => Act::Tamper(Tamper::Reducer),
                _ => Act::Tamper(Tamper::Count),
            };
            let kind = match act {
                Act::Tamper(_) => Kind::Reduce,
                _ => KINDS[pick(KINDS.len())],
            };
            rules.push(Rule {
                from: pick(4),
                count: 1 + pick(2),
                ..Rule::on(kind, act)
            });
        }
        if pick(4) == 0 {
            rules.extend(spread());
        }
        if pick(5) == 0 {
            // Heartbeat loss: a run of one worker's pings vanish (ping
            // 0 is `Fleet::connect`'s synchronous round).
            rules.push(Rule {
                worker: Some(pick(WORKERS)),
                from: pick(3),
                count: 3,
                ..Rule::on(Kind::Ping, Act::Reply(Fate::Vanish))
            });
        }
        if pick(6) == 0 {
            // A worker whose mount lacks the input refuses every time.
            rules.push(Rule {
                worker: Some(pick(WORKERS)),
                ..Rule::on(Kind::Prepare, Act::Refuse).every()
            });
        }
        let kill = (pick(3) == 0).then(|| Kill {
            victim: pick(WORKERS),
            when: When::MapsDone(pick(maps + 1)),
            rejoin: pick(2) == 0,
        });
        let spill = (pick(3) == 0).then(|| {
            const KINDS: [FaultKind; 3] = [
                FaultKind::SpillWriteFail,
                FaultKind::SpillReadCorrupt,
                FaultKind::SpillReadTruncate,
            ];
            (pick(2) == 0).then(|| (pick(maps), KINDS[pick(3)]))
        });
        let damage = (pick(6) == 0).then(|| {
            const KINDS: [FaultKind; 2] = [FaultKind::CorruptOutput, FaultKind::TruncateOutput];
            (pick(maps), KINDS[pick(2)])
        });
        let keyblocks = fixture(false).spec.num_reducers;
        Faults {
            rules,
            kill,
            restart: (pick(6) == 0).then(|| 1 + pick(3)),
            spill,
            damage,
            straggle: (pick(5) == 0).then(|| (pick(maps), 300)),
            fail: (pick(6) == 0).then(|| (pick(maps), vec![0])),
            client: match pick(7) {
                0 => Some(ClientFault::HangUp(pick(keyblocks))),
                1 => Some(ClientFault::Cancel(pick(keyblocks))),
                _ => None,
            },
            deadline: None,
            filter: false,
            map_slots: 1 + pick(4),
        }
    }

    /// How long after the job's end a frame this run delayed may still
    /// land (a kill cuts anything parked longer).
    fn settle(&self) -> Duration {
        let delays = self.rules.iter().filter_map(|r| match r.act {
            Act::Request(Fate::Deliver(d)) | Act::Reply(Fate::Deliver(d)) => Some(d.min(HOLD)),
            _ => None,
        });
        delays.max().map_or(Duration::ZERO, |d| d + SETTLE)
    }

    fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if let Some(Some((map, kind))) = self.spill {
            plan = plan.with(FaultTarget::Map(map), 0, kind);
        }
        if let Some((map, delay_ms)) = self.straggle {
            plan = plan.with(FaultTarget::Map(map), 0, FaultKind::Straggle { delay_ms });
        }
        if let Some((map, attempts)) = &self.fail {
            for &attempt in attempts {
                plan = plan.with(FaultTarget::Map(*map), attempt, FaultKind::Fail);
            }
        }
        if let Some((map, kind)) = self.damage {
            plan = plan.with(FaultTarget::Map(map), 0, kind);
        }
        plan
    }
}

/// One `MapDone` as it crossed the wire.
struct Done {
    worker: usize,
    map: usize,
    attempt: u32,
    /// The reducers it holds a partition for, and its rows.
    partitions: Vec<(usize, u64)>,
    /// When the coordinator can read it.
    at: Instant,
}

/// One connection's last request: the one its next reply answers.
struct Exchange {
    worker: usize,
    req: WorkerRequest,
    /// A rule matched it.
    faulted: bool,
    /// The fault armed for its reply.
    reply: Option<Act>,
    answered: bool,
}

#[derive(Default)]
struct Wire {
    /// Requests each rule has matched so far.
    matched: Vec<usize>,
    exchanges: HashMap<u64, Exchange>,
    /// Every `RunReduce` sent, and every map a `RunMap` named: a kept
    /// connection's `Exchange` only remembers its last request.
    reduces_sent: usize,
    maps_sent: BTreeSet<usize>,
    done: Vec<Done>,
    /// Reducers whose honest keyblock was sent.
    reduced: HashSet<usize>,
    /// Workers a fault may have cost their partitions, or made the
    /// coordinator take for dead: `None` until an untouched heartbeat
    /// from them has landed since, then that instant. Maps they
    /// reported done up to then may be lost.
    risk: BTreeMap<usize, Option<Instant>>,
    /// Maps whose partitions a fault destroyed outright.
    destroyed: BTreeSet<usize>,
    /// `reduced` when the first fault struck, and when the kill fired.
    reduced_before_faults: Option<HashSet<usize>>,
    reduced_at_kill: Option<HashSet<usize>>,
    /// The job is over; a pending kill will not fire.
    over: bool,
    /// When each worker last answered a `Ping` whose roster holds no
    /// open job: by then it held no job.
    emptied: BTreeMap<usize, Instant>,
    /// Live workers the last sweep judged.
    swept: usize,
    log: Vec<String>,
}

/// Can `act` on a `kind` exchange cost the worker its partitions, or
/// make the coordinator take it for dead? Only probes time out, and a
/// released-late partition is swept by the job's end.
fn costly(kind: Kind, act: Act) -> bool {
    match act {
        _ if kind == Kind::Release => false,
        Act::Request(Fate::Deliver(d)) | Act::Reply(Fate::Deliver(d)) => {
            kind == Kind::Ping && d >= PROBE_TIMEOUT
        }
        // One fetch connection serves a reduce's every fetch from a
        // holder, so a cut after one reply fails the next fetch; the
        // coordinator sends a request that fails on a kept connection
        // once more on a fresh dial.
        Act::Reply(Fate::DeliverThenCut) => kind == Kind::Fetch,
        Act::Request(_) | Act::Reply(_) => true,
        Act::Tamper(_) | Act::Refuse => false,
    }
}

impl Wire {
    fn fault(&mut self, what: String) {
        if self.reduced_before_faults.is_none() {
            self.reduced_before_faults = Some(self.reduced.clone());
        }
        self.log.push(what);
    }

    fn fired(&self, when: When, victim: usize) -> bool {
        match when {
            When::MapsDone(n) => self.done.len() >= n,
            When::Settled {
                maps,
                reduces,
                task,
            } => {
                let dispatched = task.is_none_or(|t| self.maps_sent.contains(&t));
                let busy = (self.exchanges.values()).any(|x| {
                    matches!(x.req, WorkerRequest::RunReduce { .. })
                        && x.worker != victim
                        && !x.answered
                });
                self.done.len() >= maps && self.reduces_sent >= reduces && dispatched && !busy
            }
        }
    }

    /// A request on its way to `worker`: the rules decide its fate, and
    /// arm its reply's.
    fn request(&mut self, rules: &[Rule], worker: usize, conn: u64, bytes: &mut Vec<u8>) -> Fate {
        let mut fate = Fate::Deliver(Duration::ZERO);
        let Some(req) = decode::<WorkerRequest>(bytes) else {
            return fate;
        };
        match req {
            WorkerRequest::RunReduce { .. } => self.reduces_sent += 1,
            WorkerRequest::RunMap { task, .. } => {
                self.maps_sent.insert(task);
            }
            _ => {}
        }
        let mut x = Exchange {
            worker,
            req: req.clone(),
            faulted: false,
            reply: None,
            answered: false,
        };
        let (kind, task, attempt) = kind_of(&req);
        for (i, rule) in rules.iter().enumerate() {
            let matches = rule.kind == kind
                && rule.worker.is_none_or(|w| w == worker)
                && rule.task.is_none_or(|t| Some(t) == task)
                && rule.attempt.is_none_or(|a| Some(a) == attempt);
            if !matches {
                continue;
            }
            let nth = self.matched[i];
            self.matched[i] += 1;
            if nth < rule.from || nth - rule.from >= rule.count {
                continue;
            }
            self.fault(format!("{:?} on {req:?} to w{worker}", rule.act));
            if costly(kind, rule.act) {
                self.risk.insert(worker, None);
            }
            x.faulted = true;
            match rule.act {
                Act::Request(f) => fate = f,
                Act::Refuse => {
                    let mut refused = req.clone();
                    if let WorkerRequest::Prepare { input, .. } = &mut refused {
                        *input = "/nonexistent/refused.scinc".into();
                    }
                    bytes.clear();
                    frame::send(bytes, &refused).unwrap();
                }
                act => x.reply = Some(act),
            }
        }
        self.exchanges.insert(conn, x);
        fate
    }

    /// A reply on its way from `worker`, under the fault its request
    /// armed.
    fn reply(
        &mut self,
        deps: &[Vec<usize>],
        worker: usize,
        conn: u64,
        bytes: &mut Vec<u8>,
    ) -> Fate {
        let (Some(reply), Some(x)) = (
            decode::<WorkerResponse>(bytes),
            self.exchanges.get_mut(&conn),
        ) else {
            return Fate::Deliver(Duration::ZERO);
        };
        x.answered = true;
        let (act, faulted) = (x.reply.take(), x.faulted);
        let emptied = matches!(&x.req, WorkerRequest::Ping { roster } if roster.open.is_empty());
        let reducer = match x.req {
            WorkerRequest::RunReduce { reducer, .. } => Some(reducer),
            _ => None,
        };
        let mut fate = match act {
            Some(Act::Reply(f)) => f,
            _ => Fate::Deliver(Duration::ZERO),
        };
        let at = time::now()
            + match fate {
                Fate::Deliver(d) => d,
                _ => Duration::ZERO,
            };
        // The worker applied the roster before it answered, whatever
        // becomes of the answer.
        if emptied && matches!(reply, WorkerResponse::Pong(_)) {
            self.emptied.insert(worker, time::now());
        }
        match (&reply, reducer) {
            (
                WorkerResponse::MapDone {
                    task,
                    attempt,
                    partitions,
                    ..
                },
                _,
            ) => self.done.push(Done {
                worker,
                map: *task,
                attempt: *attempt,
                partitions: partitions.clone(),
                at,
            }),
            (WorkerResponse::Pong(_), _) if !faulted => {
                if let Some(risk @ None) = self.risk.get_mut(&worker) {
                    *risk = Some(at);
                }
            }
            // The worker releases the sources once this write returns:
            // a reply that never lands whole costs them.
            (WorkerResponse::ReduceDone { .. }, Some(r)) => match act {
                Some(Act::Tamper(how)) => {
                    tamper(bytes, how);
                    self.destroyed.extend(&deps[r]);
                    fate = Fate::Deliver(Duration::from_millis(50));
                }
                Some(Act::Reply(Fate::Vanish)) => self.destroyed.extend(&deps[r]),
                // The write fails: the worker releases nothing.
                Some(Act::Reply(Fate::Cut)) => {}
                _ => {
                    self.reduced.insert(r);
                }
            },
            _ => {}
        }
        fate
    }
}

#[derive(Default)]
struct Ledger {
    /// A plain lock: held for bookkeeping only, never across a yield
    /// point, so it never blocks a vthread.
    wire: std::sync::Mutex<Wire>,
    /// Rung on every change while a kill waits for its moment.
    bell: (Mutex<()>, Condvar),
    kill_pending: bool,
}

fn worker_addr(i: usize) -> String {
    format!("w{i}")
}

/// The first frame of a write, as `T` (a handshake is neither).
fn decode<T: serde::Deserialize>(bytes: &[u8]) -> Option<T> {
    frame::decode_json(&frame::read_frame(&mut &bytes[..]).ok()??).ok()
}

/// Rewrites a `ReduceDone` reply and its keyblock frame to lie.
fn tamper(bytes: &mut Vec<u8>, how: Tamper) {
    let mut r = &bytes[..];
    let header = frame::read_frame(&mut r).unwrap().unwrap();
    let mut payload = frame::read_frame(&mut r).unwrap().unwrap();
    let mut reply: WorkerResponse = frame::decode_json(&header).unwrap();
    match (how, &mut reply) {
        (Tamper::Crc, _) => *payload.last_mut().unwrap() ^= 0x10,
        (Tamper::Reducer, _) => {
            let kb = decode_keyblock(&payload).unwrap();
            payload = encode_keyblock(kb.job, kb.reducer + 1, 0, &kb.records).unwrap();
        }
        (Tamper::Count, WorkerResponse::ReduceDone { emitted, .. }) => *emitted += 1,
        (Tamper::Count, _) => unreachable!("only keyblock replies are tampered"),
    }
    let header = frame::to_json(&reply).unwrap();
    bytes.clear();
    frame::write_frames(bytes, &[header.as_bytes(), &payload]).unwrap();
}

impl Ledger {
    fn wire(&self) -> std::sync::MutexGuard<'_, Wire> {
        self.wire.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ring(&self) {
        if self.kill_pending {
            drop(self.bell.0.lock());
            self.bell.1.notify_all();
        }
    }

    /// The fault hook: every write on the network passes here.
    fn cross(
        &self,
        rules: &[Rule],
        deps: &[Vec<usize>],
        c: Crossing<'_>,
        bytes: &mut Vec<u8>,
    ) -> Fate {
        if c.endpoint == SERVER {
            return Fate::Deliver(Duration::ZERO);
        }
        let worker = c.endpoint[1..].parse().expect("a worker address");
        let mut wire = self.wire();
        wire.matched.resize(rules.len(), 0);
        let fate = match c.inbound {
            true => wire.request(rules, worker, c.conn, bytes),
            false => wire.reply(deps, worker, c.conn, bytes),
        };
        drop(wire);
        self.ring();
        fate
    }

    /// Blocks until `when` fires for `victim` (true) or the job is over
    /// (false).
    fn wait_for(&self, when: When, victim: usize) -> bool {
        let mut bell = self.bell.0.lock();
        let ready = |_: &mut ()| {
            let wire = self.wire();
            match wire.fired(when, victim) {
                true => Some(Some(true)),
                false => wire.over.then_some(Some(false)),
            }
        };
        wait_until(&self.bell.1, &mut bell, None, ready).unwrap_or(false)
    }
}

static RUNS: AtomicU64 = AtomicU64::new(0);

struct World {
    faults: Faults,
    net: Arc<dyn Transport>,
    ledger: Arc<Ledger>,
    /// The current incarnation at each address, and its spill
    /// directory.
    workers: Mutex<Vec<(Worker, PathBuf)>>,
    incarnations: std::sync::atomic::AtomicUsize,
    /// Spill directories live under here; removed with the world.
    root: PathBuf,
}

impl Drop for World {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

impl World {
    fn new(faults: Faults, deps: Vec<Vec<usize>>) -> World {
        let ledger = Arc::new(Ledger {
            kill_pending: faults.kill.is_some(),
            ..Ledger::default()
        });
        let rules = faults.rules.clone();
        let hook_ledger = Arc::clone(&ledger);
        let net: Arc<dyn Transport> = Arc::new(Mem::with_faults(move |c, bytes| {
            hook_ledger.cross(&rules, &deps, c, bytes)
        }));
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("sidr-check-fleet-{}-{run}", std::process::id()));
        let world = World {
            faults,
            net,
            ledger,
            workers: Mutex::new(Vec::new()),
            incarnations: Default::default(),
            root,
        };
        let spill_damage = match world.faults.spill {
            Some(Some((map, kind))) if kind != FaultKind::SpillWriteFail => Some(map),
            _ => None,
        };
        for map in spill_damage
            .into_iter()
            .chain(world.faults.damage.map(|d| d.0))
        {
            let mut wire = world.ledger.wire();
            wire.reduced_before_faults = Some(HashSet::new());
            wire.destroyed.insert(map);
        }
        let spawned: Vec<_> = (0..WORKERS).map(|i| world.spawn(i)).collect();
        *world.workers.lock() = spawned;
        world
    }

    fn spawn(&self, i: usize) -> (Worker, PathBuf) {
        let n = self.incarnations.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("w{i}-{n}"));
        let options = WorkerOptions {
            budget_bytes: u64::from(self.faults.spill.is_some()),
            spill_dir: Some(dir.clone()),
        };
        let worker = Worker::spawn(Arc::clone(&self.net), &worker_addr(i), options);
        (worker.expect("address is free"), dir)
    }

    fn addrs(&self) -> Vec<String> {
        (0..WORKERS).map(worker_addr).collect()
    }

    fn fail(&self, what: impl std::fmt::Display) -> ! {
        let log = self.ledger.wire().log.join("\n    ");
        panic!("{what}\n  faults: {:?}\n  applied:\n    {log}", self.faults)
    }

    /// Kills the victim when its moment comes — unless the job ends
    /// first.
    fn chaos(&self) {
        let Some(kill) = self.faults.kill else {
            return;
        };
        if !self.ledger.wait_for(kill.when, kill.victim) {
            return;
        }
        {
            let mut wire = self.ledger.wire();
            wire.fault(format!("kill w{} (rejoin: {})", kill.victim, kill.rejoin));
            wire.risk.insert(kill.victim, None);
            wire.reduced_at_kill = Some(wire.reduced.clone());
        }
        let mut workers = self.workers.lock();
        workers[kill.victim].0.kill();
        if kill.rejoin {
            workers[kill.victim] = self.spawn(kill.victim);
        }
    }

    /// A coordinator that ran some maps of job 1 and vanished.
    fn vanished_coordinator(&self, fx: &Fixture, maps: usize) {
        let fleet = Fleet::connect(Arc::clone(&self.net), self.addrs()).unwrap();
        let job = fleet.prepare_job(&fx.spec, &fx.input, &ExecOptions::default());
        for (task, split) in fx.spec.splits.iter().enumerate().take(maps) {
            let _ = job.execute_map(task, 0, false, split, &|_| true);
        }
    }

    /// A heartbeat round after the job ended at `since`: no live
    /// worker that answered a `Ping` ending it since holds a partition,
    /// a spill file or a prepared job. Records how many it judged.
    fn assert_swept(&self, since: Instant, when: &str) {
        let reached: Vec<usize> = (self.ledger.wire().emptied.iter())
            .filter(|&(_, &at)| at >= since)
            .map(|(&w, _)| w)
            .collect();
        let workers = self.workers.lock();
        let live = reached.iter().map(|&w| &workers[w]);
        let live: Vec<_> = live.filter(|w| w.0.stat().alive).collect();
        self.ledger.wire().swept = live.len();
        for (w, dir) in live {
            let (held, jobs) = (w.stat().partitions_held, w.prepared_jobs());
            let files = files_under(dir);
            if held > 0 || jobs > 0 || !files.is_empty() {
                self.fail(format!(
                    "sweep {when}: live worker {} holds {held} partition(s), {jobs} job(s), \
                     spill files {files:?}",
                    w.addr()
                ));
            }
        }
    }

    /// Submits the job through a client on the serving path and reads
    /// its stream as the draw says: to the end, or hanging up, or
    /// cancelling from a second connection, after `k` keyblocks.
    fn submit(
        &self,
        (spec, input, options): (&JobSpec, &str, &SubmitOptions),
        handle: &ServerHandle,
    ) -> Received {
        let dial =
            || Client::dial(&*self.net, SERVER).unwrap_or_else(|e| self.fail(format!("dial: {e}")));
        let before = handle.stats();
        let mut client = dial();
        let job = (client.submit(spec, input, options.clone()))
            .unwrap_or_else(|e| self.fail(format!("submit: {e}")))
            .job;
        let mut keyblocks = Vec::new();
        let end = match self.faults.client {
            Some(ClientFault::HangUp(k)) => {
                while keyblocks.len() < k {
                    match client.next_response() {
                        Ok(Response::Keyblock {
                            reducer, records, ..
                        }) => keyblocks.push((reducer, records)),
                        _ => break,
                    }
                }
                drop(client);
                // The job must still end on the server: polled on
                // virtual time, bounded by its deadline.
                let ended = |s: &ServerStats| {
                    s.jobs_done + s.jobs_failed + s.jobs_cancelled + s.jobs_deadline_exceeded
                };
                let until = time::now() + Duration::from_millis(DEADLINE_MS) + HOLD;
                while ended(&handle.stats()) == ended(&before) {
                    if time::now() > until {
                        self.fail("hang-up: the job never ended");
                    }
                    thread::sleep(POLL);
                }
                None
            }
            cancel => {
                let mut canceller = match cancel {
                    Some(ClientFault::Cancel(k)) => Some((k, dial())),
                    _ => None,
                };
                let mut cancel_after = |n: usize| {
                    if let Some((_, other)) = canceller.as_mut().filter(|c| c.0 == n) {
                        (other.cancel(job)).unwrap_or_else(|e| self.fail(format!("cancel: {e}")));
                    }
                };
                cancel_after(0);
                Some(client.stream_job(job, |reducer, _, records| {
                    keyblocks.push((reducer, records.to_vec()));
                    cancel_after(keyblocks.len());
                }))
            }
        };
        let stats = handle.stats();
        let delta = |now: u64, then: u64| now - then;
        let completed = (
            delta(stats.jobs_done, before.jobs_done),
            delta(stats.jobs_failed, before.jobs_failed),
            delta(stats.keyblocks_committed, before.keyblocks_committed),
        );
        if end.is_none() && completed != (1, 0, spec.num_reducers as u64) {
            self.fail(format!(
                "hang-up: the job did not complete on the server: {stats:?}"
            ));
        }
        Received {
            keyblocks,
            end,
            stats,
        }
    }

    /// Every oracle, on one run, judged on what the client received; the
    /// job ended at `ended`.
    fn check(&self, fx: &Fixture, got: &Received, handle: &ServerHandle, ended: Instant) {
        let spec = &fx.spec;
        // Each keyblock streamed at most once — every one, for a job
        // that ran to `Done` — and byte-identical to the single-process
        // run's.
        let mut streamed = got.keyblocks.clone();
        streamed.sort_by_key(|k| k.0);
        let reducers: Vec<usize> = streamed.iter().map(|k| k.0).collect();
        let done = matches!(&got.end, Some(Ok(o)) if o.completed);
        if reducers.windows(2).any(|w| w[0] == w[1])
            || (done && reducers.len() != spec.num_reducers)
        {
            self.fail(format!("exactly-once: keyblocks streamed {reducers:?}"));
        }
        let expected: Keyblocks = (fx.expected.iter())
            .filter(|e| reducers.contains(&e.0))
            .cloned()
            .collect();
        if streamed != expected {
            self.fail("output differs from the single-process run");
        }
        match &got.end {
            Some(Ok(outcome)) if outcome.completed => self.check_timeline(spec, &outcome.events),
            // A hang-up was judged on the server's counters; a cancel may
            // end the job early, and a short deadline must.
            None => {}
            Some(Ok(_)) if matches!(self.faults.client, Some(ClientFault::Cancel(_))) => {}
            Some(Err(ServeError::DeadlineExceeded { .. })) if self.faults.deadline.is_some() => {}
            Some(Ok(_)) => self.fail("job cancelled, though nobody asked"),
            Some(Err(e)) => self.fail(format!("job failed: {e}")),
        }
        // A worker that refuses `Prepare` never joins the job, so it
        // runs none of its attempts.
        let refusers = (self.faults.rules.iter())
            .filter(|r| matches!(r.act, Act::Refuse))
            .filter_map(|r| r.worker);
        for w in refusers {
            let stat = self.workers.lock()[w].0.stat();
            let mapped = (self.ledger.wire().done.iter()).any(|d| d.worker == w);
            if mapped || stat.map_attempts + stat.reduce_attempts > 0 {
                self.fail(format!("w{w} refused Prepare, yet ran attempts: {stat:?}"));
            }
        }
        // The resident budget is a hard bound, unless a spill write
        // failed and pinned a partition.
        for (w, _) in self.workers.lock().iter() {
            let stat = w.stat();
            if stat.budget_bytes > 0
                && stat.spill_failures == 0
                && stat.peak_resident_bytes > stat.budget_bytes
            {
                self.fail(format!(
                    "{} peaked at {} resident bytes over a {}-byte budget",
                    w.addr(),
                    stat.peak_resident_bytes,
                    stat.budget_bytes
                ));
            }
        }
        self.assert_swept(ended, "after the job's end");
        let s = handle.stats();
        if s.map_busy + s.reduce_busy > 0 {
            self.fail(format!("the pool is not idle after the job: {s:?}"));
        }
    }

    /// Re-executions stay inside what the faults destroyed. The
    /// timeline's protocol, R4 included, the job checked itself before
    /// it ended `Done`: a violation fails it, which
    /// [`check`](Self::check) reports like any failure.
    fn check_timeline(&self, spec: &JobSpec, events: &[TaskEvent]) {
        let wire = self.ledger.wire();
        let reduced = wire.reduced_before_faults.clone().unwrap_or_default();
        let open: BTreeSet<usize> = (0..spec.num_reducers)
            .filter(|r| !reduced.contains(r))
            .flat_map(|r| spec.reduce_deps[r].iter().copied())
            .collect();
        let at_risk =
            |d: &&Done| (wire.risk.get(&d.worker)).is_some_and(|u| u.is_none_or(|t| d.at <= t));
        let lost: BTreeSet<usize> = (wire.done.iter().filter(at_risk))
            .map(|d| d.map)
            .chain(wire.destroyed.iter().copied())
            .filter(|m| open.contains(m))
            .collect();
        drop(wire);
        let reexecuted = reexecuted_maps(events);
        if !reexecuted.iter().all(|m| lost.contains(m)) {
            self.fail(format!(
                "re-executed {reexecuted:?}, but faults destroyed only {lost:?}"
            ));
        }
    }

    fn teardown(&self) {
        for (w, _) in self.workers.lock().iter() {
            w.kill();
        }
    }
}

/// What the submitting client saw of its job.
struct Received {
    /// Keyblocks in arrival order.
    keyblocks: Keyblocks,
    /// The stream's end; `None` when the client hung up.
    end: Option<Result<JobOutcome, ServeError>>,
    /// The server's counters once the job was over.
    stats: ServerStats,
}

impl Received {
    /// The timeline of a job that ran to `Done`.
    fn events(&self) -> &[TaskEvent] {
        match &self.end {
            Some(Ok(outcome)) if outcome.completed => &outcome.events,
            end => panic!("the job did not end Done: {end:?}"),
        }
    }
}

/// Reduce attempts that failed, on a timeline.
fn failed_reduces(events: &[TaskEvent]) -> usize {
    (events.iter())
        .filter(|e| e.kind == TaskKind::ReduceFailed)
        .count()
}

fn files_under(p: &Path) -> Vec<PathBuf> {
    match std::fs::read_dir(p) {
        Ok(entries) => entries
            .flatten()
            .flat_map(|e| files_under(&e.path()))
            .collect(),
        Err(_) if p.is_file() => vec![p.to_path_buf()],
        Err(_) => Vec::new(),
    }
}

/// One run: the faults, the job submitted through a `Client` to a
/// `Server` whose fleet is the three workers, every oracle, then
/// `expect`.
fn run(faults: Faults, expect: &dyn Fn(&Received, &Wire)) {
    let fx = fixture(faults.filter);
    let world = World::new(faults, fx.spec.reduce_deps.clone());
    let faults = &world.faults;
    if let Some(maps) = faults.restart {
        world.vanished_coordinator(fx, maps);
    }
    // Reduce slots cover every keyblock, so all reduces dispatch as
    // soon as their barriers are met.
    let config = ServerConfig {
        map_slots: faults.map_slots,
        reduce_slots: fx.spec.num_reducers,
        workers: world.addrs(),
    };
    let server = (Server::bind(Arc::clone(&world.net), SERVER, config))
        .unwrap_or_else(|e| world.fail(format!("bind: {e}")));
    let handle = server.handle();
    let acceptor = thread::spawn(move || server.run().unwrap());
    // A hung job would otherwise run on forever: the heartbeat's timer
    // always lets virtual time advance.
    let spec = (fx.spec.clone()).with_deadline_ms(faults.deadline.unwrap_or(DEADLINE_MS));
    let spec = match faults.straggle {
        Some((map, _)) => spec.with_speculation(SpeculationPolicy::force([map])),
        None => spec,
    };
    let options = SubmitOptions {
        fault_plan: faults.fault_plan(),
        ..SubmitOptions::default()
    };
    let (got, ended) = thread::scope(|s| {
        s.spawn(|| world.chaos());
        let got = world.submit((&spec, &fx.input, &options), &handle);
        world.ledger.wire().over = true;
        world.ledger.ring();
        (got, time::now())
    });
    // Every held frame lands, then a heartbeat round carries the job's
    // end to each worker it reaches.
    thread::sleep(faults.settle() + BEAT);
    world.check(fx, &got, &handle, ended);
    // Attempt counts reach the coordinator's fleet view (`sidr-submit
    // stats`) by heartbeat: one period on, it matches every worker's.
    if faults.kill.is_none() && faults.rules.iter().all(|r| r.kind != Kind::Ping) {
        let counts = |s: &WorkerStat| (s.map_attempts, s.reduce_attempts);
        let mut client = (Client::dial(&*world.net, SERVER))
            .unwrap_or_else(|e| world.fail(format!("dial: {e}")));
        let stats = (client.stats()).unwrap_or_else(|e| world.fail(format!("stats: {e}")));
        let view: Vec<_> = stats.workers.iter().map(counts).collect();
        let own: Vec<_> = (world.workers.lock().iter())
            .map(|w| counts(&w.0.stat()))
            .collect();
        if view != own {
            world.fail(format!(
                "heartbeat reported {view:?}, workers counted {own:?}"
            ));
        }
    }
    expect(&got, &world.ledger.wire());
    handle.shutdown();
    acceptor.join().ok();
    world.teardown();
}

fn explore(name: &str, schedules: usize, seed: u64, body: impl Fn()) -> Report {
    fixture(false);
    fixture(true);
    Explorer::new(name)
        .step_limit(400_000)
        .max_failures(1)
        .run(Strategy::Random { schedules, seed }, body)
}

fn scripted(name: &str, faults: Faults, expect: impl Fn(&Received, &Wire)) {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    explore(name, 12, 0x51D2_F1EE, || run(faults.clone(), &expect)).assert_clean();
}

fn base() -> Faults {
    Faults {
        map_slots: 4,
        ..Faults::default()
    }
}

/// ≥ 500 seeds, each with a fresh fault draw, every oracle on every
/// one; at least one in five has the client hang up or cancel, at
/// least one in eight damages a map's committed output, and at most one
/// in twenty judges no worker's sweep. Four
/// explorations share the cores: a seed's cost is the job's own CPU,
/// and a vthread handoff leaves its core idle until the next vthread
/// wakes — another exploration fills that gap. Prints seeds/s; a
/// failure prints the seed that replays it.
#[test]
fn seeded_fleet_search() {
    const SEEDS: usize = 500;
    const THREADS: u64 = 4;
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    fixture(false);
    let (clients, damaged) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let unswept = AtomicUsize::new(0);
    let started = std::time::Instant::now();
    let reports: Vec<Report> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..THREADS)
            .map(|t| {
                let (clients, damaged, unswept) = (&clients, &damaged, &unswept);
                s.spawn(move || {
                    let seeds = SEEDS / THREADS as usize;
                    explore("fleet-search", seeds, 0x51D2_F1EE_7000 + t, || {
                        let faults = Faults::draw();
                        if faults.client.is_some() {
                            clients.fetch_add(1, Ordering::Relaxed);
                        }
                        if faults.damage.is_some() {
                            damaged.fetch_add(1, Ordering::Relaxed);
                        }
                        run(faults, &|_, wire| {
                            if wire.swept == 0 {
                                unswept.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                    })
                })
            })
            .collect();
        halves.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let took = started.elapsed();
    let seeds: usize = reports.iter().map(|r| r.schedules).sum();
    let steps: u64 = reports.iter().map(|r| r.total_steps).sum();
    let (clients, damaged) = (clients.into_inner(), damaged.into_inner());
    let unswept = unswept.into_inner();
    eprintln!(
        "fleet search: {seeds} seeds ({} steps each) in {took:.1?} — {:.1} seeds/s, \
         {clients} with a client hang-up or cancel, {damaged} with damaged output, \
         {unswept} whose sweep judged no worker",
        steps / seeds.max(1) as u64,
        seeds as f64 / took.as_secs_f64()
    );
    reports.iter().for_each(Report::assert_clean);
    assert_eq!(seeds, SEEDS);
    assert!(
        clients * 5 >= seeds,
        "{clients} client faults in {seeds} seeds"
    );
    assert!(
        damaged * 8 >= seeds,
        "{damaged} output-damage faults in {seeds} seeds"
    );
    assert!(
        unswept * 20 <= seeds,
        "{unswept} of {seeds} seeds swept no worker"
    );
}

/// A failing seed's `ScheduleRef` replays it: the same fault draw, the
/// same frames in the same order, the same virtual timestamps.
#[test]
fn a_seed_replays_its_faults_frames_and_timestamps() {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    fixture(false);
    type Seen = (String, Vec<(usize, usize, u32, Duration)>, Duration);
    let seen: std::sync::Mutex<Vec<Seen>> = Default::default();
    let body = || {
        let t0 = time::now();
        let faults = Faults::draw();
        let draw = format!("{faults:?}");
        run(faults, &|_, wire| {
            let done = (wire.done.iter())
                .map(|d| (d.worker, d.map, d.attempt, d.at - t0))
                .collect();
            seen.lock()
                .unwrap()
                .push((draw.clone(), done, time::now() - t0));
        });
    };
    for seed in [1, 2, 3] {
        let replay = || {
            let report = Explorer::new("replay").step_limit(400_000);
            report.run(Strategy::ReplaySeed(seed), body).assert_clean();
            std::mem::take(&mut *seen.lock().unwrap())
        };
        assert_eq!(replay(), replay(), "seed {seed} replayed differently");
    }
}

/// Work spread over two workers: w0's first map dispatch is cut on
/// the connection `Prepare` left, and so is its resend on a fresh
/// dial, so the coordinator takes w0 for dead and maps walk on to w1,
/// whose dispatches are slowed until a heartbeat has revived w0 (at
/// 200 ms virtual; no dispatch lands on that instant).
fn spread() -> [Rule; 2] {
    let slow = Act::Request(Fate::Deliver(Duration::from_millis(45)));
    [
        Rule {
            worker: Some(0),
            count: 2,
            ..Rule::on(Kind::Map, Act::Request(Fate::Cut))
        },
        Rule {
            worker: Some(1),
            ..Rule::on(Kind::Map, slow).every()
        },
    ]
}

/// Spread, one map at a time: w1 holds the first five maps, w0 the
/// rest; each reducer runs where most of its sources are.
fn spread_out(mut rules: Vec<Rule>) -> Faults {
    rules.extend(spread());
    Faults {
        rules,
        map_slots: 1,
        ..base()
    }
}

/// The maps the victim held for reducers that had not replied when it
/// was killed, sorted — exactly what dependency-scoped recovery
/// re-executes. Asserts the kill spared some work: some reducer had
/// replied, and some map is not among them.
fn lost_with(wire: &Wire, victim: usize) -> Vec<usize> {
    let replied = wire.reduced_at_kill.as_ref().expect("the kill fired");
    let mut maps: Vec<usize> = (wire.done.iter())
        .filter(|d| d.worker == victim && d.partitions.iter().any(|(r, _)| !replied.contains(r)))
        .map(|d| d.map)
        .collect();
    maps.sort_unstable();
    maps.dedup();
    let all = fixture(false).spec.splits.len();
    assert!(!replied.is_empty(), "no reducer replied before the kill");
    assert!(maps.len() < all, "the victim held every lost map: {maps:?}");
    maps
}

/// Kill w0 while its reduce attempts are dispatched and unanswered
/// (held at its door) and w1's have replied. A reduce touches nothing
/// until it replies, so the same attempts run on w1, uncharged, find
/// w0's partitions gone, and recovery re-executes exactly the maps w0
/// held for them — not those it held for w1's committed reducers.
#[test]
fn mid_reduce_kill_reexecutes_exactly_its_maps() {
    let spec = &fixture(false).spec;
    let held = Rule {
        worker: Some(0),
        ..Rule::on(Kind::Reduce, Act::Request(Fate::Deliver(PARKED))).every()
    };
    let faults = Faults {
        kill: Some(Kill {
            victim: 0,
            when: When::Settled {
                maps: spec.splits.len(),
                reduces: spec.num_reducers,
                task: None,
            },
            rejoin: false,
        }),
        ..spread_out(vec![held])
    };
    scripted("mid-reduce-kill", faults, |got, wire| {
        assert_eq!(reexecuted_maps(got.events()), lost_with(wire, 0));
        assert_eq!(
            failed_reduces(got.events()),
            0,
            "a kill before the reply is free"
        );
    });
}

/// Kill w0 while the last map's dispatch is still on the wire: the
/// straggler re-dispatches at the same attempt (not a re-execution),
/// and only the maps w0 committed for unreplied reducers re-execute.
#[test]
fn mid_map_kill_reexecutes_only_committed_maps() {
    let maps = fixture(false).spec.splits.len();
    let straggler = maps - 1;
    let held = |kind| Rule {
        worker: Some(0),
        ..Rule::on(kind, Act::Request(Fate::Deliver(PARKED))).every()
    };
    let faults = Faults {
        kill: Some(Kill {
            victim: 0,
            when: When::Settled {
                maps: maps - 1,
                reduces: 0,
                task: Some(straggler),
            },
            rejoin: false,
        }),
        ..spread_out(vec![
            Rule {
                task: Some(straggler),
                ..held(Kind::Map)
            },
            held(Kind::Reduce),
        ])
    };
    scripted("mid-map-kill", faults, |got, wire| {
        assert_eq!(reexecuted_maps(got.events()), lost_with(wire, 0));
        let straggled = (wire.done.iter()).find(|d| d.map == straggler);
        assert_eq!(straggled.map(|d| (d.worker, d.attempt)), Some((1, 0)));
    });
}

/// A keyblock frame that fails its CRC, names another reducer, or
/// disagrees with `ReduceDone`'s count costs its attempt and is never
/// committed; the honest worker had released its sources, so exactly
/// those maps re-execute.
#[test]
fn rejected_keyblock_frames_cost_the_attempt_and_the_released_maps() {
    let tampered = [Tamper::Crc, Tamper::Reducer, Tamper::Count];
    let faults = Faults {
        rules: (tampered.iter().enumerate())
            .map(|(r, &how)| Rule {
                task: Some(r),
                attempt: Some(0),
                ..Rule::on(Kind::Reduce, Act::Tamper(how))
            })
            .collect(),
        ..base()
    };
    scripted("rejected-frames", faults, |got, _| {
        let deps = &fixture(false).spec.reduce_deps;
        let mut released = deps[..tampered.len()].concat();
        released.sort_unstable();
        released.dedup();
        assert_eq!(failed_reduces(got.events()), tampered.len());
        assert_eq!(reexecuted_maps(got.events()), released);
    });
}

/// Spill-tier rot routes through the same recovery as a dead worker:
/// a damaged read-back is a lost partition, and exactly its map
/// re-executes.
#[test]
fn corrupt_spill_readback_reexecutes_exactly_the_damaged_map() {
    for kind in [FaultKind::SpillReadCorrupt, FaultKind::SpillReadTruncate] {
        let faults = Faults {
            spill: Some(Some((5, kind))),
            ..base()
        };
        scripted("corrupt-readback", faults, |got, _| {
            assert_eq!(reexecuted_maps(got.events()), vec![5]);
        });
    }
}

/// Committed output damaged on its worker — a flipped bit or a lost
/// last byte, on resident bytes — fails its CRC when the reduce opens
/// it: the partition is lost, exactly its map re-executes, and the
/// client receives byte-identical keyblocks.
#[test]
fn damaged_output_reexecutes_only_its_map() {
    for kind in [FaultKind::CorruptOutput, FaultKind::TruncateOutput] {
        let faults = Faults {
            damage: Some((5, kind)),
            ..base()
        };
        scripted("damaged-output", faults, |got, _| {
            assert_eq!(reexecuted_maps(got.events()), vec![5], "{kind:?}");
            let mut keyblocks = got.keyblocks.clone();
            keyblocks.sort_by_key(|k| k.0);
            assert!(
                keyblocks == fixture(false).expected,
                "{kind:?}: output differs"
            );
        });
    }
}

/// A filter selects map-side, yet each map still produces a partition
/// for every keyblock whose `I_ℓ` holds it — most of them without a
/// row, their annotations carrying the tally — and none of them is
/// taken for lost: no map re-executes, and the output is the engine's.
#[test]
fn filter_produces_every_geometric_partition_mostly_empty() {
    let faults = Faults {
        filter: true,
        ..base()
    };
    scripted("filter", faults, |got, wire| {
        let fx = fixture(true);
        let produced: BTreeMap<(usize, usize), u64> = (wire.done.iter())
            .flat_map(|d| d.partitions.iter().map(|&(r, rows)| ((d.map, r), rows)))
            .collect();
        let geometric: BTreeSet<(usize, usize)> = (fx.spec.reduce_deps.iter().enumerate())
            .flat_map(|(r, deps)| deps.iter().map(move |&m| (m, r)))
            .collect();
        assert!(
            produced.keys().copied().eq(geometric.iter().copied()),
            "produced {:?}, geometry {geometric:?}",
            produced.keys()
        );
        let empty = produced.values().filter(|&&rows| rows == 0).count();
        assert!(
            empty * 2 > produced.len(),
            "{empty} of {} empty",
            produced.len()
        );
        assert!(reexecuted_maps(got.events()).is_empty());
        let mut keyblocks = got.keyblocks.clone();
        keyblocks.sort_by_key(|k| k.0);
        assert!(keyblocks == fx.expected, "output differs from the engine's");
    });
}

/// A straggling primary is raced by a speculative twin placed on a
/// different worker; the twin's commit stands, and speculation is not
/// recovery.
#[test]
fn speculative_twin_runs_elsewhere_and_wins() {
    let straggler = fixture(false).spec.splits.len() - 1;
    let faults = Faults {
        straggle: Some((straggler, 1_000)),
        ..base()
    };
    scripted("speculation", faults, |got, wire| {
        let events = got.events();
        assert!(reexecuted_maps(events).is_empty());
        let twin =
            |kind| (events.iter()).any(|e| e.kind == kind && e.task == straggler && e.attempt == 1);
        assert!(twin(TaskKind::MapSpeculated) && twin(TaskKind::MapEnd));
        let host =
            |attempt| (wire.done.iter()).find(|d| (d.map, d.attempt) == (straggler, attempt));
        assert_ne!(
            host(0).map(|d| d.worker),
            host(1).map(|d| d.worker),
            "the twin ran elsewhere"
        );
    });
}

/// A worker restarted at its address comes back with an empty store:
/// its answer to the next map takes it out of the running job and the
/// dispatch moves on, uncharged.
#[test]
fn rejoined_worker_is_not_part_of_the_running_job() {
    fixture(false);
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    explore("rejoin", 24, 0x51D2_2E10, || {
        let fx = fixture(false);
        let world = World::new(base(), fx.spec.reduce_deps.clone());
        let fleet = Fleet::connect(Arc::clone(&world.net), world.addrs()).unwrap();
        let job = fleet.prepare_job(&fx.spec, &fx.input, &ExecOptions::default());
        let split = |m: usize| &fx.spec.splits[m];
        job.execute_map(0, 0, false, split(0), &|_| true)
            .expect("map 0 runs on w0");
        {
            let mut workers = world.workers.lock();
            workers[0].0.kill();
            workers[0] = world.spawn(0);
        }
        // One heartbeat later the coordinator sees w0 alive again.
        thread::sleep(Duration::from_millis(300));
        job.execute_map(1, 0, false, split(1), &|_| true)
            .expect("the rejoined worker costs no attempt");
        let attempts: Vec<u64> = (world.workers.lock().iter())
            .map(|w| w.0.stat().map_attempts)
            .collect();
        assert_eq!(attempts, vec![0, 1, 0], "map 1 ran on the next worker");
        drop(job);
        let ended = time::now();
        thread::sleep(BEAT);
        world.assert_swept(ended, "after the job's end");
        assert_eq!(
            world.ledger.wire().swept,
            WORKERS,
            "a probe missed a worker"
        );
        drop(fleet);
        world.teardown();
    })
    .assert_clean();
}

/// w0 and w1 miss the first heartbeat, so only w2 takes maps; w2 is
/// then killed and rejoins, and answers `UnknownJob`. The walk waits
/// for the next heartbeat round, which revives w0 and w1: w0 joins the
/// job at that dispatch, and the job completes.
#[test]
fn a_job_whose_only_worker_restarts_moves_to_the_revived_ones() {
    let faults = Faults {
        rules: vec![Rule {
            count: 2,
            ..Rule::on(Kind::Ping, Act::Reply(Fate::Deliver(HOLD)))
        }],
        kill: Some(Kill {
            victim: 2,
            when: When::MapsDone(1),
            rejoin: true,
        }),
        ..base()
    };
    scripted("revived", faults, |_, wire| {
        let hosts: BTreeSet<usize> = wire.done.iter().map(|d| d.worker).collect();
        assert_eq!(hosts, BTreeSet::from([0, 2]), "w0 joined the job");
    });
}

/// w0 refuses every `Prepare`, as a worker whose mount lacks the input
/// would: it never joins the job and runs none of its attempts (the
/// search's oracle), and each refusal moves the attempt on, uncharged.
/// Without it, every attempt would have gone to w0.
#[test]
fn a_refused_prepare_costs_no_attempt() {
    let faults = Faults {
        rules: vec![Rule {
            worker: Some(0),
            ..Rule::on(Kind::Prepare, Act::Refuse).every()
        }],
        ..base()
    };
    scripted("refused", faults, |got, wire| {
        let charged = (got.events().iter()).find(|e| {
            e.attempt > 0 || matches!(e.kind, TaskKind::MapFailed | TaskKind::ReduceFailed)
        });
        assert_eq!(charged, None, "a refusal charged an attempt");
        let hosts: BTreeSet<usize> = wire.done.iter().map(|d| d.worker).collect();
        assert_eq!(
            hosts,
            BTreeSet::from([1]),
            "the maps went to the next worker"
        );
    });
}

fn mutated(m: Mutation, name: &str, faults: Faults) -> Report {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    fixture(false);
    let _armed = chaos::arm(m);
    explore(name, 24, 0x0BAD_F1EE, || run(faults.clone(), &|_, _| {}))
}

fn finding_mentions(report: &Report, needle: &str) -> bool {
    (report.failures.iter())
        .flat_map(|f| &f.findings)
        .any(|f| f.kind() == FindingKind::Panic && f.to_string().contains(needle))
}

/// One teardown path, undone: a worker that applies the roster only
/// on `Prepare` keeps the ended job, since no later job joins it — the
/// sweep oracle fires.
#[test]
fn a_roster_heard_only_on_prepare_is_caught_by_the_sweep() {
    scripted("roster-on-ping", base(), |_, wire| {
        assert!(wire.swept > 0, "the sweep judged no worker");
    });
    let report = mutated(
        Mutation::RosterOnlyOnPrepare,
        "mutation:roster-only-on-prepare",
        base(),
    );
    assert!(
        finding_mentions(&report, "sweep after the job's end"),
        "the sweep oracle missed it: {:?}",
        report.failures
    );
}

/// A past bug: a recovered generation inherits the dead one's racers.
/// The twin's holder dies after the twin won, so recovery opens a new
/// generation while the straggling primary of the dead one is still
/// out. The new generation's attempt and its forced twin both fail;
/// its retry must not wait for the dead straggler. With the bug
/// nothing re-runs the map, its keyblocks never commit, and the job
/// fails at its deadline.
#[test]
fn recovery_inheriting_racers_is_caught() {
    let maps = fixture(false).spec.splits.len();
    let straggler = maps - 1;
    let faults = Faults {
        rules: vec![Rule {
            worker: Some(0),
            ..Rule::on(Kind::Reduce, Act::Request(Fate::Deliver(HOLD))).every()
        }],
        straggle: Some((straggler, 1_000)),
        fail: Some((straggler, vec![2, 3])),
        kill: Some(Kill {
            victim: 1,
            when: When::MapsDone(maps),
            rejoin: false,
        }),
        ..base()
    };
    scripted("recovery-racers", faults.clone(), |_, _| {});
    let report = mutated(
        Mutation::RecoveryInheritsRacers,
        "mutation:recovery-inherits-racers",
        faults,
    );
    assert!(
        finding_mentions(&report, "job failed"),
        "the stranded map went unseen: {:?}",
        report.failures
    );
}

/// A job that outlives its deadline — one map's dispatch is held past
/// it — ends `DeadlineExceeded` naming that deadline, counted once, and
/// the fleet is swept.
#[test]
fn blown_deadline_ends_the_job_and_sweeps_the_fleet() {
    let faults = Faults {
        rules: vec![Rule {
            task: Some(0),
            ..Rule::on(Kind::Map, Act::Request(Fate::Deliver(HOLD)))
        }],
        deadline: Some(300),
        ..base()
    };
    scripted("deadline", faults, |got, _| {
        match &got.end {
            Some(Err(ServeError::DeadlineExceeded { deadline_ms, .. })) => {
                assert_eq!(*deadline_ms, 300)
            }
            end => panic!("expected DeadlineExceeded, got {end:?}"),
        }
        assert_eq!(got.stats.jobs_deadline_exceeded, 1, "{:?}", got.stats);
    });
}

/// A map attempt that fails mid-stream is retried inside the engine:
/// the retry is on the timeline the client received, and the output is
/// byte-identical.
#[test]
fn failed_map_attempt_is_retried_where_the_client_sees_it() {
    let faults = Faults {
        fail: Some((3, vec![0])),
        ..base()
    };
    scripted("map-retry", faults, |got, _| {
        let retried = (got.events().iter())
            .any(|e| e.kind == TaskKind::MapRetry && e.task == 3 && e.attempt == 1);
        assert!(retried, "the retry is not on the streamed timeline");
    });
}

/// Any connection may cancel a job: with the last keyblock's reduce
/// held, a cancel sent after the first keyblock reaches the submitter
/// as its terminal frame.
#[test]
fn cancel_from_another_connection_reaches_the_submitter() {
    let faults = Faults {
        rules: vec![Rule {
            task: Some(3),
            ..Rule::on(Kind::Reduce, Act::Request(Fate::Deliver(HOLD)))
        }],
        client: Some(ClientFault::Cancel(1)),
        ..base()
    };
    scripted("cancel", faults, |got, _| {
        assert!(
            matches!(&got.end, Some(Ok(o)) if !o.completed),
            "{:?}",
            got.end
        );
        assert_eq!(got.stats.jobs_cancelled, 1, "{:?}", got.stats);
    });
}

/// Hang-up tolerance, undone: with a commit that fails once its client
/// has hung up, the job the server must finish fails instead — the
/// hang-up oracle fires. The last keyblock's reduce is held so that it
/// commits after the hang-up.
#[test]
fn hang_up_failing_the_commit_is_caught() {
    let faults = Faults {
        rules: vec![Rule {
            task: Some(3),
            ..Rule::on(Kind::Reduce, Act::Request(Fate::Deliver(HOLD)))
        }],
        client: Some(ClientFault::HangUp(1)),
        ..base()
    };
    scripted("hang-up", faults.clone(), |got, _| {
        assert_eq!(got.keyblocks.len(), 1);
    });
    let report = mutated(
        Mutation::HangUpFailsCommit,
        "mutation:hang-up-fails",
        faults,
    );
    assert!(
        finding_mentions(&report, "hang-up"),
        "the hang-up oracle missed it: {:?}",
        report.failures
    );
}

/// One release path, undone: a reduce that finds map 5's output
/// damaged also releases its sound sources, so its retry finds them
/// gone and maps the damage never touched re-execute — the recovery
/// oracle fires.
#[test]
fn releasing_sound_sources_on_a_loss_is_caught() {
    let faults = Faults {
        damage: Some((5, FaultKind::CorruptOutput)),
        ..base()
    };
    let report = mutated(
        Mutation::ReleaseOnLostSources,
        "mutation:release-on-lost-sources",
        faults,
    );
    assert!(
        finding_mentions(&report, "faults destroyed only"),
        "the recovery oracle missed it: {:?}",
        report.failures
    );
}
