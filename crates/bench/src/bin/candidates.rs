//! Microbenchmark: filter–verify candidate generation vs. the classic
//! merge-everything count filter, across corpus sizes.
//!
//! ```text
//! cargo run -p xsm-bench --bin candidates --release \
//!     [seed=N] [sizes=10000,100000,500000] [queries=N] [overlap=F] [floor=F] \
//!     [reps=N] [out=BENCH_candidates.json]
//! ```
//!
//! Three candidate-generation paths answer the same query mix per corpus size:
//!
//! * **baseline** — the pre-refactor lookup: merge every posting of the query's
//!   grams through a per-query `HashMap`, count-filter afterwards,
//! * **filter–verify (infinite window)** — length-bucketed postings with the
//!   ScanCount/MergeSkip auto merge, no length filter: must return candidate sets
//!   **byte-identical** to the baseline (order-sensitive checksums asserted),
//! * **filter–verify (length window)** — the serving configuration: the window is
//!   derived from `floor=` exactly as the engine derives it from its element
//!   similarity floor.
//!
//! Reported per path: ns/query and candidates examined per query (baseline:
//! distinct nodes hashed; ScanCount: counters touched; MergeSkip: frontier values
//! processed — skipped postings are never examined).

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;
use xsm_repo::{
    CandidateQuery, CandidateScratch, GeneratorConfig, LengthWindow, MergePolicy, NameIndex,
    RepositoryGenerator,
};
use xsm_schema::GlobalNodeId;

struct BenchConfig {
    seed: u64,
    sizes: Vec<usize>,
    queries: usize,
    overlap: f64,
    floor: f64,
    reps: usize,
    out: String,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            seed: 2006,
            sizes: vec![10_000, 100_000, 500_000],
            queries: 96,
            overlap: 0.5,
            floor: 0.5,
            reps: 3,
            out: "BENCH_candidates.json".to_string(),
        }
    }
}

impl BenchConfig {
    fn apply_args<I: IntoIterator<Item = String>>(mut self, args: I) -> Result<Self, String> {
        for arg in args {
            let Some((key, value)) = arg.split_once('=') else {
                return Err(format!("expected key=value, got '{arg}'"));
            };
            match key {
                "seed" => self.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                "sizes" => {
                    self.sizes = value
                        .split(',')
                        .map(|s| s.parse().map_err(|e| format!("sizes: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "queries" => self.queries = value.parse().map_err(|e| format!("queries: {e}"))?,
                "overlap" => self.overlap = value.parse().map_err(|e| format!("overlap: {e}"))?,
                "floor" => self.floor = value.parse().map_err(|e| format!("floor: {e}"))?,
                "reps" => self.reps = value.parse().map_err(|e| format!("reps: {e}"))?,
                "out" => self.out = value.to_string(),
                other => return Err(format!("unknown parameter '{other}'")),
            }
        }
        self.queries = self.queries.max(1);
        self.reps = self.reps.max(1);
        if self.sizes.is_empty() {
            return Err("sizes must name at least one corpus size".to_string());
        }
        Ok(self)
    }
}

/// One path's aggregate over the whole query mix at one corpus size.
#[derive(Serialize, Clone, Copy)]
struct PathRow {
    ns_per_query: f64,
    candidates_examined_per_query: f64,
    candidates_returned_per_query: f64,
    checksum: u64,
}

/// One corpus size's comparison.
#[derive(Serialize)]
struct SizeRow {
    nodes: usize,
    trees: usize,
    baseline: PathRow,
    filter_verify_infinite: PathRow,
    filter_verify_windowed: PathRow,
    /// baseline examined ÷ windowed examined — the acceptance headline.
    examined_ratio_windowed: f64,
    speedup_infinite: f64,
    speedup_windowed: f64,
    /// Infinite-window candidate sets byte-identical to the baseline.
    checksums_match: bool,
}

#[derive(Serialize)]
struct CandidatesRecord {
    bench: String,
    cores: usize,
    seed: u64,
    queries: usize,
    overlap: f64,
    floor: f64,
    reps: usize,
    rows: Vec<SizeRow>,
}

/// Order-sensitive checksum over a candidate list: pins both membership and order.
fn fold_ids(checksum: &mut u64, ids: &[GlobalNodeId]) {
    for id in ids {
        let packed = ((id.tree.index() as u64) << 32) | id.node.index() as u64;
        *checksum = checksum
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(packed ^ 0x9e37_79b9);
    }
}

fn query_mix(names: &[String], count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let base = &names[(i * 13) % names.len()];
            match i % 4 {
                3 => format!("{base}x"),
                2 => format!("{base}Id"),
                _ => base.clone(),
            }
        })
        .collect()
}

fn bench_size(config: &BenchConfig, nodes: usize) -> SizeRow {
    eprintln!("building {nodes}-node corpus (seed {})…", config.seed);
    let repo = RepositoryGenerator::new(
        GeneratorConfig::paper_default()
            .with_seed(config.seed)
            .with_target_elements(nodes),
    )
    .generate();
    let build_start = Instant::now();
    let index = NameIndex::build(&repo);
    eprintln!(
        "  index over {} nodes / {} trees built in {:.1}s",
        index.indexed_nodes(),
        repo.tree_count(),
        build_start.elapsed().as_secs_f64()
    );
    let corpus_names: Vec<String> = repo.nodes().map(|(_, n)| n.name.clone()).collect();
    let queries = query_mix(&corpus_names, config.queries);
    let total_queries = (queries.len() * config.reps) as f64;

    // --- baseline: HashMap merge over every posting ---
    let mut checksum = 0u64;
    let mut examined = 0usize;
    let mut returned = 0usize;
    let start = Instant::now();
    for _ in 0..config.reps {
        for query in &queries {
            let (ids, touched) =
                index.lookup_approximate_baseline_counted(black_box(query), config.overlap);
            examined += touched;
            returned += ids.len();
            fold_ids(&mut checksum, &ids);
        }
    }
    let baseline = PathRow {
        ns_per_query: start.elapsed().as_secs_f64() * 1e9 / total_queries,
        candidates_examined_per_query: examined as f64 / total_queries,
        candidates_returned_per_query: returned as f64 / total_queries,
        checksum,
    };

    // --- filter–verify, infinite window (must replay the baseline exactly) ---
    let mut scratch = CandidateScratch::default();
    let mut checksum = 0u64;
    let mut examined = 0usize;
    let mut returned = 0usize;
    let start = Instant::now();
    for _ in 0..config.reps {
        for query in &queries {
            let (ids, stats) = index.lookup_candidates_counted(
                &CandidateQuery::new(black_box(query), config.overlap),
                MergePolicy::Auto,
                &mut scratch,
            );
            examined += stats.candidates_examined;
            returned += ids.len();
            fold_ids(&mut checksum, &ids);
        }
    }
    let infinite = PathRow {
        ns_per_query: start.elapsed().as_secs_f64() * 1e9 / total_queries,
        candidates_examined_per_query: examined as f64 / total_queries,
        candidates_returned_per_query: returned as f64 / total_queries,
        checksum,
    };

    // --- filter–verify, length window from the similarity floor ---
    let window = LengthWindow::fuzzy_floor(config.floor);
    let mut checksum = 0u64;
    let mut examined = 0usize;
    let mut returned = 0usize;
    let start = Instant::now();
    for _ in 0..config.reps {
        for query in &queries {
            let (ids, stats) = index.lookup_candidates_counted(
                &CandidateQuery::new(black_box(query), config.overlap).with_length_window(window),
                MergePolicy::Auto,
                &mut scratch,
            );
            examined += stats.candidates_examined;
            returned += ids.len();
            fold_ids(&mut checksum, &ids);
        }
    }
    let windowed = PathRow {
        ns_per_query: start.elapsed().as_secs_f64() * 1e9 / total_queries,
        candidates_examined_per_query: examined as f64 / total_queries,
        candidates_returned_per_query: returned as f64 / total_queries,
        checksum,
    };

    SizeRow {
        nodes: index.indexed_nodes(),
        trees: repo.tree_count(),
        examined_ratio_windowed: baseline.candidates_examined_per_query
            / windowed.candidates_examined_per_query.max(1e-9),
        speedup_infinite: baseline.ns_per_query / infinite.ns_per_query,
        speedup_windowed: baseline.ns_per_query / windowed.ns_per_query,
        checksums_match: baseline.checksum == infinite.checksum,
        baseline,
        filter_verify_infinite: infinite,
        filter_verify_windowed: windowed,
    }
}

fn main() {
    let config = match BenchConfig::default().apply_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: candidates [seed=N] [sizes=A,B,C] [queries=N] [overlap=F] [floor=F] \
                 [reps=N] [out=PATH]"
            );
            std::process::exit(2);
        }
    };

    let rows: Vec<SizeRow> = config
        .sizes
        .iter()
        .map(|&n| bench_size(&config, n))
        .collect();

    println!(
        "{:>9}  {:>13} {:>13} {:>13}  {:>11} {:>9}  {:>9}",
        "nodes",
        "baseline ns/q",
        "infinite ns/q",
        "windowed ns/q",
        "examined b/w",
        "ratio",
        "checksums"
    );
    for r in &rows {
        println!(
            "{:>9}  {:>13.0} {:>13.0} {:>13.0}  {:>5.0}/{:>5.0} {:>8.2}x  {}",
            r.nodes,
            r.baseline.ns_per_query,
            r.filter_verify_infinite.ns_per_query,
            r.filter_verify_windowed.ns_per_query,
            r.baseline.candidates_examined_per_query,
            r.filter_verify_windowed.candidates_examined_per_query,
            r.examined_ratio_windowed,
            if r.checksums_match {
                "match"
            } else {
                "DIVERGED"
            }
        );
    }
    let diverged: Vec<usize> = rows
        .iter()
        .filter(|r| !r.checksums_match)
        .map(|r| r.nodes)
        .collect();
    assert!(
        diverged.is_empty(),
        "infinite-window candidate sets diverged from the baseline at sizes {diverged:?}"
    );

    let record = CandidatesRecord {
        bench: "candidates".to_string(),
        cores: xsm_bench::cores(),
        seed: config.seed,
        queries: config.queries,
        overlap: config.overlap,
        floor: config.floor,
        reps: config.reps,
        rows,
    };
    let json = serde_json::to_string(&record).expect("candidates record serializes");
    std::fs::write(&config.out, &json).expect("write candidates benchmark JSON");
    eprintln!("wrote {}", config.out);
}
