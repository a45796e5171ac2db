//! The workloads' measured runs: build the inputs from the seed, set the
//! system up, drive it with two clients, check the answers that were timed.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use xsm_matcher::MatchingProblem;
use xsm_repo::{NameIndex, SchemaRepository};
use xsm_schema::{SchemaTree, TreeId};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchResponse, MatchService, PendingResponse,
    PlannedStrategy,
};

use crate::gen::{poisson_schedule, Corpus, Fragment, FragmentSource, Rng, ZipfSampler};
use crate::layers::{self, PipelineParts, Scratch};
use crate::report::Values;
use crate::stats::{median, summarize};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it for the benchmark driver.
    pub in_contract: bool,
}

/// The rates and counts quoted below are [`sizes`] at full scale.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_match",
        why: "Paper scale (9 759 elements), 12 000 distinct 3-node queries at delta 0.75: all miss the cache, so k-means and filter-verify do most of the work. (fleet_tcp, its inputs over TCP: unresolved, run only)",
        in_contract: true,
    },
    Workload {
        name: "wide_match",
        why: "Same corpus, 800 distinct 5-node queries at delta 0.6: branch-and-bound and the top-k sort do most of the work and set a heavy tail; here the paper's search-space reduction is large.",
        in_contract: true,
    },
    Workload {
        name: "zipf_open",
        why: "100 000 elements, open loop: Poisson arrivals at 100/200/600 qps, Zipf(1.0) over 4 096 queries against a 512-entry cache; queue, cache and singleflight decide what a request sees.",
        // Its latencies follow how fast the host wakes an idle processor,
        // which on the builder's sandbox quadruples for a minute at a time:
        // no bound the driver allows holds across ten such runs.
        in_contract: false,
    },
    Workload {
        name: "zipf_closed",
        why: "Stands in for zipf_open (open loop, unresolved on this host: run only). Same corpus, cache and Zipf(1.0) popularity, closed loop: two thirds of reads hit the cache, so cache and queue hop decide p50.",
        in_contract: true,
    },
    Workload {
        name: "fleet_tcp",
        why: "paper_match's corpus, 4 000 of its queries, through a 2-shard fleet over loopback TCP: same inputs, so scatter/gather, JSON framing and thread-per-connection are a subtraction.",
        // A request crosses some ten sleeping threads, so it too follows how
        // fast the host wakes processors: 1 450 qps or 830, by the minute.
        in_contract: false,
    },
    Workload {
        name: "live_100k",
        why: "100 000 elements, reads beside append/delete batches with compaction at 2 % dead postings, then snapshot and restart: a read gain that costs writes, or a write-gate stall, shows here.",
        in_contract: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Same code paths and checks on corpora and counts small enough for the
    /// whole suite to finish in seconds. Never a baseline.
    Smoke,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Seed of every corpus, pool of queries and Zipf request sequence. They are
/// held apart from `seed=` because what a query costs depends on the forest it
/// runs against — on how many large trees the generator happened to draw — far
/// more than on which fragments are asked: ten seeds that each drew their own
/// forest put `wide_match`'s throughput anywhere between 145 and 478 qps on the
/// builder's host, and no bound a regression gate could use survives that.
/// Ten query streams over one forest are ten samples of one distribution.
pub const CORPUS_SEED: u64 = 2006;

pub const TOP_K: usize = 10;
pub const CLIENTS: usize = 2;
pub const ENGINE_WORKERS: usize = 2;
/// Served answers re-derived through the public pipeline functions per run.
const VERIFIED_ANSWERS: usize = 256;
/// Reads of `live_100k` per mutation batch: one operation in 64 of one of two
/// clients. The client whose turn brings up the 128th read mutates first.
const READS_PER_MUTATION: usize = 128;
/// Trees appended or deleted per mutation batch.
pub const MUTATION_BATCH: usize = 4;
/// Fresh trees the appends of `live_100k` draw from; a run that needs more
/// goes round them again.
const FRESH_TREES: usize = 128;
/// The latency limit of `service.slo_rate_qps`, from the instant a request was due.
const SLO_P99_MS: f64 = 50.0;

/// Frozen workload sizes, sized once on the two-core builder host. A closed
/// loop draws its reads from a pool of distinct queries about 2.7 s of work
/// long and goes round it until the run's time is up, and only whole passes
/// count — so every run, however long and on however fast a commit, serves
/// the same population of queries; a prefix of one long stream would hand a
/// faster commit different queries.
/// The pool is larger than the result cache and every pass has the same order,
/// so each read still misses: its last use is a whole pool ago. The
/// `zipf_open` rates are about 10 / 20 / 60 % of the completion rate measured
/// for that query mix. All are constants: never derived at run time.
pub struct Sizes {
    pub corpus_elements: usize,
    pub fragment_nodes: usize,
    pub delta: f64,
    /// Distinct queries of the workload.
    pub pool: usize,
    /// How a pass asks them: each once, or by Zipf(1.0) popularity.
    pub popularity: Popularity,
    /// Reads of one pass (the pool's size when each query is asked once).
    pub pass: usize,
    pub warmup: usize,
    /// Queries of the clustering-trade sample, which double as restart probes.
    pub sample: usize,
    pub result_cache: Option<usize>,
    pub queue_capacity: Option<usize>,
    pub compaction_threshold: Option<f64>,
    /// `zipf_open` only: the rate offered on each rung.
    pub rates_qps: [f64; 3],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popularity {
    EachOnce,
    Zipf,
}

pub fn sizes(name: &str, scale: Scale) -> Sizes {
    let full = scale == Scale::Full;
    let small_corpus = if full { 9_759 } else { 1_500 };
    let large_corpus = if full { 100_000 } else { 8_000 };
    let each_once = |pool: usize| Sizes {
        corpus_elements: small_corpus,
        fragment_nodes: 3,
        delta: 0.75,
        pool,
        popularity: Popularity::EachOnce,
        pass: pool,
        warmup: if full { 500 } else { 40 },
        // The unclustered baseline is the slowest thing the benchmark runs.
        sample: if full { 64 } else { 16 },
        result_cache: None,
        queue_capacity: None,
        compaction_threshold: None,
        rates_qps: [0.0; 3],
    };
    let zipf_pool = if full { 4_096 } else { 256 };
    let zipf_cache = Some(zipf_pool / 8);
    match name {
        "paper_match" => each_once(if full { 12_000 } else { 400 }),
        "wide_match" => Sizes {
            fragment_nodes: 5,
            delta: 0.6,
            // A smoke pool small enough for a pass a second is smaller than
            // the default cache: shrink that too, so every read still misses.
            result_cache: if full { None } else { Some(8) },
            ..each_once(if full { 800 } else { 20 })
        },
        "zipf_open" => Sizes {
            corpus_elements: large_corpus,
            result_cache: zipf_cache,
            // Bursts behind a slow miss queue up and show as latency; only a
            // standing overload refuses requests.
            queue_capacity: Some(1024),
            rates_qps: ZIPF_RATES_QPS,
            ..each_once(zipf_pool)
        },
        "zipf_closed" => Sizes {
            corpus_elements: large_corpus,
            result_cache: zipf_cache,
            popularity: Popularity::Zipf,
            pass: if full { 3_000 } else { 300 },
            ..each_once(zipf_pool)
        },
        "fleet_tcp" => each_once(if full { 4_000 } else { 300 }),
        "live_100k" => Sizes {
            corpus_elements: large_corpus,
            compaction_threshold: Some(0.02),
            ..each_once(if full { 1_000 } else { 300 })
        },
        other => panic!("unknown workload {other}"),
    }
}

/// Offered rates of `zipf_open`'s three rungs, fixed by the builder.
pub const ZIPF_RATES_QPS: [f64; 3] = [100.0, 200.0, 600.0];

pub fn engine_config(sizes: &Sizes) -> EngineConfig {
    let mut config = EngineConfig::default().with_workers(ENGINE_WORKERS);
    if let Some(capacity) = sizes.result_cache {
        config = config.with_result_cache_capacity(capacity);
    }
    if let Some(capacity) = sizes.queue_capacity {
        config = config.with_queue_capacity(capacity);
    }
    if let Some(threshold) = sizes.compaction_threshold {
        config = config.with_compaction_threshold(threshold);
    }
    config
}

/// One run's request: which workload, from which seed, at which scale, and
/// for how long.
pub struct Request {
    pub workload: &'static Workload,
    /// The order of the reads, the arrival schedule and the mutation batches
    /// derive from it; the corpus and the pool from [`CORPUS_SEED`].
    pub seed: u64,
    pub scale: Scale,
    /// How long the run measures. It is the one thing that ends a run: the
    /// clients go round the pool until the time is up.
    pub seconds: f64,
}

impl Request {
    pub fn sizes(&self) -> Sizes {
        sizes(self.workload.name, self.scale)
    }

    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one measured run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub wall_s: f64,
    pub answers_checksum: u64,
    pub values: Values,
    /// Human-readable facts that belong in the run's metadata.
    pub notes: Vec<String>,
}

/// Where trace files, result files and scratch snapshots go: `bellbench/`
/// inside the build's target directory, found from where this executable
/// lies (`<target>/release/…` or `<target>/debug/deps/…`), so nothing is
/// written outside the checkout's ignored build output.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let target = exe
        .ancestors()
        .find(|dir| {
            dir.file_name()
                .is_some_and(|name| name == "release" || name == "debug")
        })
        .and_then(|profile| profile.parent())
        .unwrap_or_else(|| exe.parent().expect("an executable lies in a directory"));
    let dir = target.join("bellbench");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// Processor time of the whole machine so far, in clock ticks: (all of it,
/// the part the host gave to someone else while this machine wanted it).
fn machine_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// A note on how much of the processors the host took away (steal time)
/// between `since` and now: the one thing outside the benchmark that decides
/// whether a run's times mean anything.
fn steal_note(since: Option<(u64, u64)>) -> Option<String> {
    let ((all_0, stolen_0), (all_1, stolen_1)) = (since?, machine_ticks()?);
    Some(format!(
        "host steal during the measured run: {:.1} % of processor time",
        100.0 * (stolen_1 - stolen_0) as f64 / (all_1 - all_0).max(1) as f64
    ))
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process now, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// The content of an answer — strategy, counts, scores and images, what
/// `MatchResponse::result_digest` covers — folded to 64 bits without
/// formatting, so the clients can afford it on every response.
pub fn answer_hash(response: &MatchResponse) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    };
    feed(match response.strategy {
        PlannedStrategy::IndexPruned => 1,
        PlannedStrategy::Exhaustive => 2,
    });
    feed(response.candidate_count as u64);
    feed(response.total_matches as u64);
    for mapping in &response.mappings {
        feed(mapping.score.to_bits());
        for pair in mapping.pairs() {
            feed(u64::from(pair.repo.tree.0) << 32 | u64::from(pair.repo.node.0));
        }
    }
    h
}

/// Order-independent fold of (operation id, answer) pairs: two clients finish
/// in any order and still agree on the checksum.
fn fold_answer(checksum: u64, id: u64, hash: u64) -> u64 {
    let mut z = hash ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    checksum.wrapping_add(z ^ (z >> 27))
}

/// Whether a set-up or restart that has been repeated with these times has
/// been repeated enough: at least five times and for a tenth of the run's
/// seconds in all (two seconds of the driver's twenty). The time matters more
/// than the count: the host's speed wanders by a tenth from one second to the
/// next, and forty 4 ms restarts in a row all see the same moment of it (their
/// median spread by 15 % over ten runs, over two seconds by 3 %).
fn repeated_enough(times: &[f64], request: &Request) -> bool {
    times.len() >= 5 && times.iter().sum::<f64>() >= request.seconds / 10.0
}

/// Wall time of each phase of a run, for the run's metadata: the measured
/// part is one phase among set-up, warm-up and checks that also take time.
pub struct Phases {
    last: Instant,
    spent: Vec<String>,
}

impl Phases {
    pub fn start() -> Self {
        Phases {
            last: Instant::now(),
            spent: Vec::new(),
        }
    }

    pub fn done(&mut self, phase: &str) {
        let now = Instant::now();
        self.spent
            .push(format!("{phase} {:.2} s", (now - self.last).as_secs_f64()));
        self.last = now;
    }

    pub fn note(&self) -> String {
        format!("phases: {}", self.spent.join(", "))
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub corpus: Corpus,
    /// The corpus of record — what the parsers made of the documents — as the
    /// benchmark's own copy, from which the clients build their queries.
    pub repo: SchemaRepository,
    pub source: FragmentSource,
    /// The pool's distinct queries first, then the warm-up's disjoint ones.
    /// They derive from the corpus seed: every seed asks the same questions.
    pub fragments: Vec<Fragment>,
    /// The pool queries one pass asks, in order. Which they are is the corpus
    /// seed's; the seed shuffles them (each asked once) or decides where in
    /// the sequence the run starts (Zipf, where order is the cache's state).
    pub order: Vec<u32>,
    pub sizes: Sizes,
}

impl Inputs {
    pub fn generate(request: &Request, sizes: Sizes) -> Self {
        let corpus = Corpus::generate(CORPUS_SEED, sizes.corpus_elements);
        let repo = layers::parse_corpus(&corpus);
        let source = FragmentSource::new(&repo);
        let fragments = source.distinct_fragments(
            &repo,
            &mut Rng::fork(CORPUS_SEED, 1),
            sizes.pool + sizes.warmup,
            sizes.fragment_nodes,
        );
        let mut rng = Rng::fork(request.seed, 1);
        let order = match sizes.popularity {
            Popularity::EachOnce => {
                let mut order: Vec<u32> = (0..sizes.pool as u32).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                order
            }
            Popularity::Zipf => {
                let zipf = ZipfSampler::new(sizes.pool, 1.0);
                let mut which = Rng::fork(CORPUS_SEED, 2);
                let mut order: Vec<u32> = (0..sizes.pass)
                    .map(|_| zipf.sample(&mut which) as u32)
                    .collect();
                order.rotate_left(rng.below(sizes.pass as u64) as usize);
                order
            }
        };
        Inputs {
            corpus,
            repo,
            source,
            fragments,
            order,
            sizes,
        }
    }

    /// The pool query that read `index` of a run asks.
    pub fn pool_id(&self, index: usize) -> usize {
        self.order[index % self.order.len()] as usize
    }

    pub fn query(&self, id: usize) -> MatchQuery {
        self.source
            .query(&self.repo, &self.fragments[id], self.sizes.delta, TOP_K)
    }

    fn warmup_ids(&self) -> std::ops::Range<usize> {
        self.sizes.pool..self.fragments.len()
    }

    /// The pool's first 63 queries plus the paper's name/address/email schema:
    /// a fixed sample, the same for every seed.
    pub fn sample(&self) -> Vec<MatchQuery> {
        let mut sample: Vec<MatchQuery> = (0..(self.sizes.sample - 1).min(self.sizes.pool))
            .map(|id| self.query(id))
            .collect();
        sample.push(
            MatchQuery::new(MatchingProblem::paper_experiment().personal)
                .with_top_k(TOP_K)
                .with_threshold(self.sizes.delta),
        );
        sample
    }
}

/// How one operation of a client ended.
#[derive(Clone, Copy, PartialEq)]
enum Ended {
    Read,
    Mutation,
    Failed,
}

/// One operation as its client saw it.
struct OpRecord {
    /// The read's place in the run's sequence (a mutation carries the place
    /// of the read it preceded).
    index: usize,
    ended: Ended,
    latency_ms: f64,
    /// When it ended, in seconds since the clients began.
    ended_at_s: f64,
}

/// What one client recorded, in the order it worked.
struct ClientLog {
    begun: Instant,
    ops: Vec<OpRecord>,
    /// (pool id, answer hash) of every read answered.
    answers: Vec<(u32, u64)>,
}

impl ClientLog {
    fn record(&mut self, index: usize, ended: Ended, started: Instant) {
        let now = Instant::now();
        self.ops.push(OpRecord {
            index,
            ended,
            latency_ms: (now - started).as_secs_f64() * 1e3,
            ended_at_s: (now - self.begun).as_secs_f64(),
        });
    }

    /// Read `index` of the sequence: ask `service` pool query `id`.
    fn read(&mut self, index: usize, id: usize, service: &dyn MatchService, query: MatchQuery) {
        let started = Instant::now();
        let result = service.submit(query).and_then(PendingResponse::wait);
        match result {
            Ok(response) if !response.incomplete => {
                self.record(index, Ended::Read, started);
                self.answers.push((id as u32, answer_hash(&response)));
            }
            _ => self.record(index, Ended::Failed, started),
        }
    }
}

/// Drive `op` from [`CLIENTS`] threads, closed loop: each client takes the
/// next read of `reads` that no client has taken, calls `op` for it, and
/// comes back when `op` returns, until the reads or the time run out. Taking
/// turns this way keeps both clients busy whatever the reads cost; a fixed
/// share each would leave one idle whenever the other drew the heavy ones.
fn closed_loop(
    reads: std::ops::Range<usize>,
    deadline: Option<Duration>,
    op: impl Fn(usize, &mut ClientLog) + Sync,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(CLIENTS);
    let next = AtomicUsize::new(reads.start);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (barrier, op, next, end) = (&barrier, &op, &next, reads.end);
                scope.spawn(move || {
                    barrier.wait();
                    let mut log = ClientLog {
                        begun: Instant::now(),
                        ops: Vec::new(),
                        answers: Vec::new(),
                    };
                    while deadline.is_none_or(|limit| log.begun.elapsed() < limit) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= end {
                            break;
                        }
                        op(index, &mut log);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Totals of a closed-loop run, and one answer per pool query for checking.
struct Drive {
    attempted: u64,
    failed: u64,
    wall_s: f64,
    /// (pool id, answer hash), ascending, one per pool query answered.
    answers: Vec<(u32, u64)>,
    /// Answers that differed from an earlier pass's answer to the same query.
    inconsistent: u64,
    checksum: u64,
}

/// Turn the clients' logs into the run's numbers. Only **whole passes** over
/// the pool count: a run stopped by the clock ends somewhere inside a pass,
/// and which queries that fragment holds depends on the seed's order and on
/// how fast the commit is. Whole passes serve the same queries every time.
/// (A run too short for one pass counts everything it did.)
fn record_closed_loop(logs: Vec<ClientLog>, pass: usize, values: &mut Values) -> Drive {
    // Every read taken was recorded, so the places are contiguous from 0.
    let reads = logs
        .iter()
        .flat_map(|log| &log.ops)
        .map(|op| op.index + 1)
        .max()
        .unwrap_or(0);
    let counted_reads = match reads / pass {
        0 => reads,
        passes => passes * pass,
    };
    let mut drive = Drive {
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
        answers: Vec::new(),
        inconsistent: 0,
        checksum: 0,
    };
    let mut read_ms = Vec::new();
    let mut mutation_ms = Vec::new();
    for log in logs {
        for op in log.ops.iter().filter(|op| op.index < counted_reads) {
            drive.attempted += 1;
            drive.wall_s = drive.wall_s.max(op.ended_at_s);
            match op.ended {
                Ended::Read => read_ms.push(op.latency_ms),
                Ended::Mutation => mutation_ms.push(op.latency_ms),
                Ended::Failed => drive.failed += 1,
            }
        }
        drive.answers.extend(log.answers);
    }
    drive.answers.sort_unstable();
    drive.answers.dedup();
    let distinct_answers = drive.answers.len();
    drive.answers.dedup_by_key(|&mut (id, _)| id);
    drive.inconsistent = (distinct_answers - drive.answers.len()) as u64;
    drive.checksum = drive
        .answers
        .iter()
        .fold(0, |sum, &(id, hash)| fold_answer(sum, u64::from(id), hash));
    values.insert(
        "throughput_qps",
        (drive.attempted - drive.failed) as f64 / drive.wall_s,
    );
    if let Some(reads) = summarize(read_ms) {
        values.insert("query_p50_ms", reads.p50);
        values.insert("query_p95_ms", reads.p95);
        values.insert("query_p99_ms", reads.tail);
    }
    if let Some(mutations) = summarize(mutation_ms) {
        values.insert("mutation_p50_ms", mutations.p50);
        values.insert("mutation_p99_ms", mutations.tail);
    }
    drive
}

/// Re-derive an evenly spaced sample of the served answers through the public
/// pipeline functions; returns how many disagree.
fn wrong_answers(
    inputs: &Inputs,
    config: &EngineConfig,
    index: &NameIndex,
    repo: &SchemaRepository,
    answers: &[(u32, u64)],
) -> u64 {
    let parts = PipelineParts::new(config);
    let mut scratch = Scratch::default();
    let step = answers.len().div_ceil(VERIFIED_ANSWERS).max(1);
    answers
        .iter()
        .step_by(step)
        .filter(|&&(id, hash)| {
            let query = inputs.query(id as usize);
            let reference = layers::reference_answer(&parts, index, repo, &query, &mut scratch);
            answer_hash(&reference) != hash
        })
        .count() as u64
}

/// The paper's trade on the 64-query sample, on an engine holding the
/// workload's corpus as it was set up (`live_100k`: before any mutation, so
/// the two ratios are the same whatever the run goes on to append).
fn clustering_trade(
    engine: &MatchEngine,
    config: &EngineConfig,
    inputs: &Inputs,
    values: &mut Values,
) {
    let parts = PipelineParts::new(config);
    let trade = layers::clustering_trade(
        &parts,
        &engine.index(),
        &engine.repository(),
        &inputs.sample(),
    );
    values.insert("mappings_preserved_ratio", trade.mappings_preserved_ratio);
    values.insert("search_space_reduction", trade.search_space_reduction);
}

/// The restart leg, after the measured run: snapshot, then `from_snapshot` to
/// first probe answer repeatedly, every probe compared. Returns how many
/// probes the restarted engine answered differently.
fn restart(
    engine: &MatchEngine,
    config: &EngineConfig,
    inputs: &Inputs,
    request: &Request,
    values: &mut Values,
) -> u64 {
    let sample = inputs.sample();
    let expected: Vec<u64> = sample
        .iter()
        .map(|q| answer_hash(&engine.answer_inline(q)))
        .collect();
    let path = out_dir().join(format!(
        "snapshot-{}-{}.bin",
        request.workload.name,
        std::process::id()
    ));
    let bytes = engine
        .write_snapshot(&path, engine.generation())
        .expect("snapshot into the benchmark's output directory");
    values.insert(
        "snapshot_bytes_per_schema_byte",
        bytes as f64 / inputs.corpus.bytes as f64,
    );
    let mut restarts = Vec::new();
    let mut wrong = 0;
    while !repeated_enough(&restarts, request) {
        let start = Instant::now();
        let restarted =
            MatchEngine::from_snapshot(&path, config.clone()).expect("a snapshot just written");
        let first = restarted.answer_inline(&sample[0]);
        restarts.push(start.elapsed().as_secs_f64());
        if restarts.len() == 1 {
            wrong += u64::from(answer_hash(&first) != expected[0]);
            wrong += sample
                .iter()
                .zip(&expected)
                .skip(1)
                .filter(|(q, &hash)| answer_hash(&restarted.answer_inline(q)) != hash)
                .count() as u64;
        }
    }
    let _ = std::fs::remove_file(&path);
    values.insert("restart_s", median(restarts));
    wrong
}

/// One measured run in progress: its inputs and configuration, and the values
/// and notes gathered so far. The workloads differ in what they set up and in
/// what one operation is; the rest of a run is here.
struct Run<'a> {
    request: &'a Request,
    inputs: Inputs,
    config: EngineConfig,
    values: Values,
    notes: Vec<String>,
    phases: Phases,
}

impl<'a> Run<'a> {
    fn start(request: &'a Request) -> Self {
        let mut phases = Phases::start();
        let inputs = Inputs::generate(request, request.sizes());
        phases.done("inputs");
        Run {
            request,
            config: engine_config(&inputs.sizes),
            inputs,
            values: Values::new(),
            notes: Vec::new(),
            phases,
        }
    }

    /// Build the serving system repeatedly, timing each build; keep the last.
    fn set_up<T>(&mut self, build: impl Fn(&Inputs, &EngineConfig) -> T) -> T {
        let mut times = Vec::new();
        let system = loop {
            let start = Instant::now();
            let system = build(&self.inputs, &self.config);
            times.push(start.elapsed().as_secs_f64());
            if repeated_enough(&times, self.request) {
                break system;
            }
        };
        self.values.insert("setup_s", median(times));
        self.values.insert("setup_rss_mb", rss_mb());
        self.phases.done("set-ups");
        system
    }

    /// Untimed operations before the measured ones: from a disjoint id range —
    /// or, where a small result cache is part of the workload, the most
    /// popular queries, so the cache starts as the traffic would leave it.
    fn warm_up(&mut self, service: &dyn MatchService) {
        match self.inputs.sizes.result_cache {
            Some(capacity) => {
                let popular: Vec<MatchQuery> =
                    (0..capacity).map(|id| self.inputs.query(id)).collect();
                fill_cache(service, &popular);
            }
            None => {
                let inputs = &self.inputs;
                closed_loop(inputs.warmup_ids(), None, |index, log| {
                    log.read(index, index, service, inputs.query(index))
                });
            }
        }
        self.phases.done("warm-up");
    }

    /// The measured closed loop: the clients take turns at the run's reads,
    /// each preceded by whatever `before_read` does at that place.
    fn drive(
        &mut self,
        service: &dyn MatchService,
        before_read: impl Fn(usize, &mut ClientLog) + Sync,
    ) -> Drive {
        let inputs = &self.inputs;
        let ticks = machine_ticks();
        let logs = closed_loop(
            0..usize::MAX,
            Some(self.request.deadline()),
            |index, log| {
                before_read(index, log);
                let id = inputs.pool_id(index);
                log.read(index, id, service, inputs.query(id));
            },
        );
        self.notes.extend(steal_note(ticks));
        self.values.insert("peak_rss_mb", peak_rss_mb());
        let drive = record_closed_loop(logs, inputs.sizes.pass, &mut self.values);
        self.phases.done("measured run");
        drive
    }

    /// The paper's trade, measured on `engine` before anything mutates it.
    fn trade(&mut self, engine: &MatchEngine) {
        clustering_trade(engine, &self.config, &self.inputs, &mut self.values);
        self.phases.done("clustering trade");
    }

    /// After the measured run, on an engine holding the workload's corpus:
    /// re-derive a sample of the answers, measure the restart, and close the
    /// books. `wrong` is what the workload's own checks already found.
    fn check(mut self, engine: &MatchEngine, drive: Drive, mut wrong: u64) -> Outcome {
        wrong += drive.inconsistent;
        wrong += wrong_answers(
            &self.inputs,
            &self.config,
            &engine.index(),
            &engine.repository(),
            &drive.answers,
        );
        self.phases.done("answer check");
        wrong += restart(
            engine,
            &self.config,
            &self.inputs,
            self.request,
            &mut self.values,
        );
        self.phases.done("restart");
        self.notes.push(self.phases.note());
        let failed = drive.failed + wrong;
        self.values.insert(
            "failed_ratio",
            failed as f64 / drive.attempted.max(1) as f64,
        );
        Outcome {
            attempted: drive.attempted,
            failed,
            correct: wrong == 0,
            wall_s: drive.wall_s,
            answers_checksum: drive.checksum,
            values: self.values,
            notes: self.notes,
        }
    }
}

pub fn measure(request: &Request) -> Outcome {
    match request.workload.name {
        "paper_match" | "wide_match" | "zipf_closed" => closed_loop_engine(request),
        "zipf_open" => zipf_open(request),
        "fleet_tcp" => fleet_tcp(request),
        "live_100k" => live(request),
        other => panic!("unknown workload {other}"),
    }
}

/// `paper_match`, `wide_match` and `zipf_closed`: one engine, two clients.
fn closed_loop_engine(request: &Request) -> Outcome {
    let mut run = Run::start(request);
    let engine = run.set_up(|inputs, config| layers::build_engine(&inputs.corpus, config));
    run.trade(&engine);
    run.warm_up(&engine);
    let drive = run.drive(&engine, |_, _| {});
    run.check(&engine, drive, 0)
}

/// `fleet_tcp`: `paper_match`'s inputs through two shard servers on loopback.
fn fleet_tcp(request: &Request) -> Outcome {
    let mut run = Run::start(request);
    let fleet = run.set_up(|inputs, config| {
        layers::build_tcp_fleet(layers::parse_corpus(&inputs.corpus), config, CLIENTS)
    });
    run.warm_up(&fleet.router);
    let drive = run.drive(&fleet.router, |_, _| {});
    drop(fleet);
    // The single engine `paper_match` serves these queries with: the fleet's
    // answers must be its answers.
    let engine = layers::build_engine(&run.inputs.corpus, &run.config);
    run.trade(&engine);
    run.check(&engine, drive, 0)
}

/// The trees of a mutation pool: a second synthetic forest, through the same
/// documents-and-parser path as the corpus.
pub fn fresh_trees(seed: u64, count: usize) -> Vec<SchemaTree> {
    let corpus = Corpus::generate(seed ^ 0x6c69_7665, count * 45);
    let repo = layers::parse_corpus(&corpus);
    let trees: Vec<SchemaTree> = repo.trees().map(|(_, tree)| tree.clone()).collect();
    assert!(!trees.is_empty());
    trees
}

/// The mutating client's view of `live_100k`: which fresh trees it has
/// appended and not yet deleted, and the logical content a from-scratch
/// rebuild must reproduce (deleted trees leave an empty placeholder, so ids
/// stay positional).
pub struct LiveModel {
    fresh: Vec<SchemaTree>,
    next_fresh: usize,
    appended_alive: VecDeque<TreeId>,
    pub logical: Vec<SchemaTree>,
    mutations: usize,
}

pub enum Mutation {
    Append(Vec<SchemaTree>),
    Delete(Vec<TreeId>),
}

impl LiveModel {
    pub fn new(initial: &SchemaRepository, fresh: Vec<SchemaTree>) -> Self {
        LiveModel {
            fresh,
            next_fresh: 0,
            appended_alive: VecDeque::new(),
            logical: initial.trees().map(|(_, tree)| tree.clone()).collect(),
            mutations: 0,
        }
    }

    /// Alternately append [`MUTATION_BATCH`] fresh trees and delete the
    /// oldest [`MUTATION_BATCH`] appended ones.
    pub fn next_mutation(&mut self) -> Mutation {
        self.mutations += 1;
        if self.mutations % 2 == 1 || self.appended_alive.len() < MUTATION_BATCH {
            let trees = (0..MUTATION_BATCH)
                .map(|_| {
                    let tree = self.fresh[self.next_fresh % self.fresh.len()].clone();
                    self.next_fresh += 1;
                    tree
                })
                .collect();
            Mutation::Append(trees)
        } else {
            Mutation::Delete(self.appended_alive.drain(..MUTATION_BATCH).collect())
        }
    }

    /// The appended trees still alive: the delete that is owed when the last
    /// batch was an append.
    pub fn owed_delete(&mut self) -> Vec<TreeId> {
        self.appended_alive.drain(..).collect()
    }

    pub fn appended(&mut self, ids: &[TreeId], trees: Vec<SchemaTree>) {
        assert_eq!(ids.first().map(|id| id.index()), Some(self.logical.len()));
        self.appended_alive.extend(ids);
        self.logical.extend(trees);
    }

    pub fn deleted(&mut self, ids: &[TreeId]) {
        for id in ids {
            let name = self.logical[id.index()].name().to_string();
            self.logical[id.index()] = SchemaTree::new(name);
        }
    }
}

/// `live_100k`: two clients read; every 128th read is preceded by a mutation
/// batch. A pass counts its reads; the mutations come on top.
fn live(request: &Request) -> Outcome {
    let mut run = Run::start(request);
    let engine = run.set_up(|inputs, config| layers::build_engine(&inputs.corpus, config));
    run.trade(&engine);
    run.warm_up(&engine);

    let model = Mutex::new(LiveModel::new(
        &run.inputs.repo,
        fresh_trees(request.seed, FRESH_TREES),
    ));
    // The mutations are tied to places in the read sequence, not to a client,
    // so a run of so many reads applies the same batches whoever drew them;
    // the other client goes on reading meanwhile.
    let mut drive = run.drive(&engine, |index, log| {
        if index % READS_PER_MUTATION != READS_PER_MUTATION - 1 {
            return;
        }
        // A batch is long over before the next one's read comes up: the
        // lock orders them and is never contended.
        let mut model = model.lock().expect("no client panics holding it");
        let mutation = model.next_mutation();
        let started = Instant::now();
        let applied = match &mutation {
            Mutation::Append(trees) => engine.append_trees(trees.clone()).map(Some),
            Mutation::Delete(ids) => engine.delete_trees(ids).map(|_| None),
        };
        match (applied, mutation) {
            (Ok(Some(ids)), Mutation::Append(trees)) => {
                log.record(index, Ended::Mutation, started);
                model.appended(&ids, trees);
            }
            (Ok(_), Mutation::Delete(ids)) => {
                log.record(index, Ended::Mutation, started);
                model.deleted(&ids);
            }
            _ => log.record(index, Ended::Failed, started),
        }
    });

    // Reads raced the mutations, so which generation a read saw varies from
    // run to run: nothing to re-derive. Instead, what the engine answers now
    // — acknowledged appends and deletes in place — must be what a rebuild
    // over the same logical content answers.
    let mut model = model.into_inner().expect("clients are done");
    let sample = run.inputs.sample();
    let final_answers = |engine: &MatchEngine| -> Vec<u64> {
        sample
            .iter()
            .map(|q| answer_hash(&engine.answer_inline(q)))
            .collect()
    };
    let rebuilt = MatchEngine::new(
        SchemaRepository::from_trees(model.logical.clone()),
        run.config.clone(),
    );
    let mut wrong = final_answers(&engine)
        .iter()
        .zip(final_answers(&rebuilt))
        .filter(|(served, rebuilt)| *served != rebuilt)
        .count() as u64;
    drop(rebuilt);
    run.phases.done("rebuild check");

    // The checksum is over the final answers. So that it does not vary with
    // how many batches the time allowed, a run that ended between an append
    // and its delete applies the delete first: what is alive is then the
    // corpus, whatever the count. `check` restarts the engine from there, so
    // its probes show that the tombstones survive a snapshot.
    let owed = model.owed_delete();
    if !owed.is_empty() && engine.delete_trees(&owed).is_err() {
        wrong += 1;
    }
    drive.answers.clear();
    drive.inconsistent = 0;
    drive.checksum = final_answers(&engine)
        .iter()
        .enumerate()
        .fold(0, |sum, (i, &hash)| fold_answer(sum, i as u64, hash));
    run.notes.extend([
        format!("mutation batches applied: {}", model.mutations),
        format!(
            "tombstoned trees at the end: {}",
            engine.tombstoned_trees().len()
        ),
    ]);
    run.check(&engine, drive, wrong)
}

// ------------------------------------------------------------ open loop --

/// One completed request of the open loop.
struct Completion {
    pool: u32,
    /// From the instant the request was due to the instant its answer was
    /// in the collector's hands.
    latency_ms: f64,
    /// The engine's own serving time, queueing excluded.
    served_ms: f64,
    cache_hit: bool,
    hash: u64,
}

/// What one rung of the ladder saw.
pub struct Rung {
    pub rate_qps: f64,
    pub offered: u64,
    pub refused: u64,
    pub completed: u64,
    pub wall_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub queue_wait_p99_ms: f64,
    pub late_p99_ms: f64,
    pub hit_ratio: f64,
    pub hit_served_us: f64,
    /// Requests sent and not yet answered when the rung ended.
    pub backlog_end: u64,
}

impl Rung {
    pub fn failed_ratio(&self) -> f64 {
        self.refused as f64 / self.offered.max(1) as f64
    }

    /// Met the latency limit with (almost) nothing refused and no queue left
    /// standing: a backlog of half the submission queue at the end of a rung
    /// means arrivals outran service.
    pub fn meets_slo(&self, queue_capacity: usize) -> bool {
        self.p99_ms <= SLO_P99_MS
            && self.failed_ratio() <= 0.001
            && self.backlog_end as usize <= queue_capacity / 2
    }
}

pub struct Ladder {
    pub rungs: Vec<Rung>,
    /// Answers of one pool query that differed from its first answer.
    pub inconsistent: u64,
    /// (pool index, answer hash) of the first answer of every pool query seen.
    pub first_answers: Vec<(u32, u64)>,
    pub checksum: u64,
}

/// Offer `pool` to `engine` on a Poisson schedule with Zipf popularity, one
/// rung after another. One dispatcher thread sends (`try_submit`: a full
/// queue is a failure, never a retry); as many collector threads as the
/// engine has workers wait on the replies in submission order, so a fast
/// answer is never timed behind a slow one it overtook.
pub fn run_ladder(
    engine: &MatchEngine,
    pool: &[MatchQuery],
    request: &Request,
    rates_qps: [f64; 3],
    rung_s: [f64; 3],
) -> Ladder {
    // The seed decides when requests arrive; which query each asks is the
    // corpus seed's, so every seed offers a rung the same questions in the
    // same sequence, at different instants.
    let zipf = ZipfSampler::new(pool.len(), 1.0);
    let mut when = Rng::fork(request.seed, 2);
    let schedules: Vec<Vec<(u64, u32)>> = rates_qps
        .iter()
        .zip(rung_s)
        .enumerate()
        .map(|(rung, (&rate, seconds))| {
            let mut which = Rng::fork(CORPUS_SEED, 3 + rung as u64);
            poisson_schedule(&mut when, rate, seconds)
                .into_iter()
                .map(|due| (due, zipf.sample(&mut which) as u32))
                .collect()
        })
        .collect();

    let sent = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    let (tx, rx) = channel::<(usize, u32, Instant, PendingResponse)>();
    let rx: Mutex<Receiver<_>> = Mutex::new(rx);
    let mut dispatched: Vec<(u64, u64, Vec<f64>, u64, f64)> = Vec::new();
    let mut collected: Vec<Vec<Completion>> = Vec::new();

    std::thread::scope(|scope| {
        let collectors: Vec<_> = (0..ENGINE_WORKERS)
            .map(|_| {
                let (rx, answered) = (&rx, &answered);
                scope.spawn(move || {
                    let mut rungs: Vec<Vec<Completion>> = (0..3).map(|_| Vec::new()).collect();
                    loop {
                        let next = rx.lock().expect("collectors do not panic").recv();
                        let Ok((rung, pool, due, pending)) = next else {
                            return rungs;
                        };
                        let result = pending.wait();
                        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                        answered.fetch_add(1, Ordering::Relaxed);
                        if let Ok(response) = result {
                            rungs[rung].push(Completion {
                                pool,
                                latency_ms,
                                served_ms: response.latency.as_secs_f64() * 1e3,
                                cache_hit: response.cache_hit,
                                hash: answer_hash(&response),
                            });
                        }
                    }
                })
            })
            .collect();

        for (rung, schedule) in schedules.iter().enumerate() {
            let rung_start = Instant::now();
            let mut late_ms = Vec::with_capacity(schedule.len());
            let mut refused = 0u64;
            for &(due_ns, pool_index) in schedule {
                let due = rung_start + Duration::from_nanos(due_ns);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                match engine.try_submit(pool[pool_index as usize].clone()) {
                    Ok(pending) => {
                        sent.fetch_add(1, Ordering::Relaxed);
                        tx.send((rung, pool_index, due, pending))
                            .expect("collectors outlive the dispatcher");
                    }
                    Err(_) => refused += 1,
                }
            }
            let rung_end = rung_start + Duration::from_secs_f64(rung_s[rung]);
            if let Some(wait) = rung_end.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let backlog = sent.load(Ordering::Relaxed) - answered.load(Ordering::Relaxed);
            dispatched.push((
                schedule.len() as u64,
                refused,
                late_ms,
                backlog,
                rung_start.elapsed().as_secs_f64(),
            ));
        }
        drop(tx);
        for collector in collectors {
            let rungs = collector.join().expect("collector thread panicked");
            if collected.is_empty() {
                collected = rungs;
            } else {
                for (all, more) in collected.iter_mut().zip(rungs) {
                    all.extend(more);
                }
            }
        }
    });

    let mut first: Vec<Option<u64>> = vec![None; pool.len()];
    let mut inconsistent = 0u64;
    let mut checksum = 0u64;
    let mut rungs = Vec::new();
    for (rung, (completions, (offered, refused, late_ms, backlog_end, wall_s))) in
        collected.into_iter().zip(dispatched).enumerate()
    {
        for c in &completions {
            match first[c.pool as usize] {
                None => {
                    first[c.pool as usize] = Some(c.hash);
                    checksum = fold_answer(checksum, u64::from(c.pool), c.hash);
                }
                Some(hash) => inconsistent += u64::from(hash != c.hash),
            }
        }
        let latency = summarize(completions.iter().map(|c| c.latency_ms).collect());
        let waits = summarize(
            completions
                .iter()
                .map(|c| (c.latency_ms - c.served_ms).max(0.0))
                .collect(),
        );
        let hits: Vec<f64> = completions
            .iter()
            .filter(|c| c.cache_hit)
            .map(|c| c.served_ms * 1e3)
            .collect();
        rungs.push(Rung {
            rate_qps: rates_qps[rung],
            offered,
            refused,
            completed: completions.len() as u64,
            wall_s,
            p50_ms: latency.map_or(0.0, |l| l.p50),
            p95_ms: latency.map_or(0.0, |l| l.p95),
            p99_ms: latency.map_or(0.0, |l| l.tail),
            queue_wait_p99_ms: waits.map_or(0.0, |w| w.tail),
            late_p99_ms: summarize(late_ms).map_or(0.0, |l| l.tail),
            hit_ratio: hits.len() as f64 / completions.len().max(1) as f64,
            hit_served_us: crate::stats::mean(&hits),
            backlog_end,
        });
    }
    Ladder {
        rungs,
        inconsistent,
        first_answers: first
            .iter()
            .enumerate()
            .filter_map(|(i, hash)| Some((i as u32, (*hash)?)))
            .collect(),
        checksum,
    }
}

/// `zipf_open`'s pool as queries, most popular first.
pub fn zipf_pool(inputs: &Inputs) -> Vec<MatchQuery> {
    (0..inputs.sizes.pool).map(|id| inputs.query(id)).collect()
}

/// Rung durations of a run of `seconds`: one part, three parts, one part. The
/// middle rung carries the end-to-end numbers and gets the samples a steady
/// tail needs.
pub fn rung_seconds(seconds: f64) -> [f64; 3] {
    [seconds * 0.2, seconds * 0.6, seconds * 0.2]
}

/// The Zipf workloads' warm-up: ask `popular` — the most popular queries, as
/// many as the result cache holds — least popular first. The cache then
/// starts the run in the state the traffic would bring it to, not empty.
pub fn fill_cache(service: &dyn MatchService, popular: &[MatchQuery]) {
    for query in popular.iter().rev() {
        service
            .submit(query.clone())
            .and_then(PendingResponse::wait)
            .expect("a sequential warm-up query cannot be refused");
    }
}

fn zipf_open(request: &Request) -> Outcome {
    let mut run = Run::start(request);
    let engine = run.set_up(|inputs, config| layers::build_engine(&inputs.corpus, config));
    run.trade(&engine);
    run.warm_up(&engine);
    let pool = zipf_pool(&run.inputs);
    let ticks = machine_ticks();
    let start = Instant::now();
    let ladder = run_ladder(
        &engine,
        &pool,
        request,
        run.inputs.sizes.rates_qps,
        rung_seconds(request.seconds),
    );
    let wall_s = start.elapsed().as_secs_f64();
    run.values.insert("peak_rss_mb", peak_rss_mb());
    run.phases.done("measured run");

    let middle = &ladder.rungs[1];
    run.values
        .insert("throughput_qps", middle.completed as f64 / middle.wall_s);
    run.values.insert("query_p50_ms", middle.p50_ms);
    run.values.insert("query_p95_ms", middle.p95_ms);
    run.values.insert("query_p99_ms", middle.p99_ms);
    run.notes.extend(steal_note(ticks));
    run.notes.extend(ladder.rungs.iter().map(|r| {
        format!(
            "rung {} qps: offered {} refused {} completed {} hit ratio {:.3} p50 {:.3} ms \
                 p99 {:.3} ms generator late p99 {:.3} ms backlog at end {}",
            r.rate_qps,
            r.offered,
            r.refused,
            r.completed,
            r.hit_ratio,
            r.p50_ms,
            r.p99_ms,
            r.late_p99_ms,
            r.backlog_end
        )
    }));
    let drive = Drive {
        attempted: ladder.rungs.iter().map(|r| r.offered).sum(),
        // Refused at the door, or sent and never answered.
        failed: ladder.rungs.iter().map(|r| r.offered - r.completed).sum(),
        wall_s,
        answers: ladder.first_answers,
        inconsistent: ladder.inconsistent,
        checksum: ladder.checksum,
    };
    let (middle_failed, middle_offered) = (middle.offered - middle.completed, middle.offered);
    let refused_or_lost = drive.failed;
    let mut outcome = run.check(&engine, drive, 0);
    // Reported at the middle rung, like the latencies; wrong answers count
    // wherever they were found.
    let wrong = outcome.failed - refused_or_lost;
    outcome.values.insert(
        "failed_ratio",
        (middle_failed + wrong) as f64 / middle_offered.max(1) as f64,
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_sizes_at_both_scales_and_a_one_line_reason() {
        for w in WORKLOADS {
            for scale in [Scale::Full, Scale::Smoke] {
                let s = sizes(w.name, scale);
                assert!(s.corpus_elements > 0 && s.warmup > 0);
                assert!((1..=crate::gen::MAX_FRAGMENT_NODES).contains(&s.fragment_nodes));
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(workload(w.name).unwrap().name, w.name);
        }
        for name in ["zipf_open", "zipf_closed"] {
            let zipf = sizes(name, Scale::Full);
            assert_eq!(zipf.pool, 8 * zipf.result_cache.unwrap());
        }
    }

    #[test]
    fn live_model_alternates_appends_and_deletes_of_the_oldest() {
        let initial =
            SchemaRepository::from_trees(vec![SchemaTree::new("a"), SchemaTree::new("b")]);
        let fresh: Vec<SchemaTree> = (0..3).map(|i| SchemaTree::new(format!("f{i}"))).collect();
        let mut model = LiveModel::new(&initial, fresh);
        let Mutation::Append(trees) = model.next_mutation() else {
            panic!("first mutation appends");
        };
        assert_eq!(trees.len(), MUTATION_BATCH);
        // The pool of 3 cycles to fill a batch of 4.
        assert_eq!(trees[3].name(), "f0");
        let ids: Vec<TreeId> = (2..2 + MUTATION_BATCH as u32).map(TreeId).collect();
        model.appended(&ids, trees);
        assert_eq!(model.logical.len(), 2 + MUTATION_BATCH);
        let Mutation::Delete(victims) = model.next_mutation() else {
            panic!("second mutation deletes");
        };
        assert_eq!(victims, ids);
        model.deleted(&victims);
        assert!(model.logical[2].is_empty());
        assert_eq!(model.logical[2].name(), "f0");
        assert!(matches!(model.next_mutation(), Mutation::Append(_)));
    }

    #[test]
    fn checksum_fold_ignores_order_but_not_content() {
        let a = fold_answer(fold_answer(0, 1, 10), 2, 20);
        let b = fold_answer(fold_answer(0, 2, 20), 1, 10);
        assert_eq!(a, b);
        assert_ne!(a, fold_answer(fold_answer(0, 1, 20), 2, 10));
    }

    #[test]
    fn smoke_run_of_the_paper_workload_answers_correctly() {
        let outcome = measure(&Request {
            workload: workload("paper_match").unwrap(),
            seed: 7,
            scale: Scale::Smoke,
            seconds: 0.5,
        });
        assert!(outcome.correct);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        for def in crate::report::in_contract() {
            assert!(
                outcome.values.get(def.name).is_some_and(|v| *v > 0.0),
                "{} missing or zero",
                def.name
            );
        }
    }
}
