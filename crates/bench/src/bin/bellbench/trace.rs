//! The traced run: one client, sequential, every query answered by the engine
//! and replayed stage by stage from outside, spans around every layer call.
//! Separate from the measured run, which carries no tracing at all.

use std::time::{Duration, Instant};

use xsm_service::{MatchEngine, MatchQuery, MatchResponse, MatchService, PendingResponse};

use crate::layers::{self, LiveMirror, Replayer};
use crate::report::Values;
use crate::spans::{self, totals_by_name, SpanTotals, NO_QUERY};
use crate::workloads::{
    engine_config, fill_cache, fresh_trees, out_dir, run_ladder, rung_seconds, zipf_pool, Inputs,
    LiveModel, Mutation, Outcome, Request, Scale, CLIENTS, MUTATION_BATCH,
};

/// Stages of `run_pipeline`, as span names; their self times are the stage sum.
const STAGES: [&str; 8] = [
    "service.fingerprint",
    "repo.resolve",
    "service.plan",
    "matcher.element_match",
    "core.kmeans",
    "core.scope",
    "matcher.generate",
    "matcher.sort_cut",
];

/// Reads replayed at full scale: 2 000 on the paper-scale corpus, 300 wide
/// ones, 500 on the 100 000-element corpus.
fn traced_reads(name: &str, scale: Scale) -> usize {
    let full = match name {
        "paper_match" | "fleet_tcp" => 2_000,
        "wide_match" => 300,
        _ => 500,
    };
    match scale {
        Scale::Full => full,
        Scale::Smoke => full / 10,
    }
}

/// Mutation batches of `live_100k`'s traced run: enough deletes to cross the
/// compaction threshold once.
const TRACED_MUTATIONS: usize = 32;

fn pooled(service: &dyn MatchService, query: &MatchQuery) -> (MatchResponse, u64) {
    let start = Instant::now();
    let response = service
        .submit(query.clone())
        .and_then(PendingResponse::wait)
        .expect("a sequential traced query cannot be refused");
    (response, start.elapsed().as_nanos() as u64)
}

/// Wall times of the traced reads beside the spans, and the check's verdict.
#[derive(Default)]
struct ReadTotals {
    reads: u64,
    pooled_ns: u64,
    inline_ns: u64,
    mismatches: u64,
}

/// Answer query `qid` through the pool, inline, and by replay; all three must
/// agree. The result cache is emptied in between so each is a miss. Whichever
/// runs first finds the query's postings and features cold in the processor's
/// caches and the later ones find them warm, so the order rotates with the
/// query id and each of the three is first, second and third equally often.
fn traced_read(
    engine: &MatchEngine,
    replayer: &mut Replayer,
    query: &MatchQuery,
    qid: u32,
    totals: &mut ReadTotals,
) -> MatchResponse {
    let (mut served, mut inline, mut replayed) = (None, None, None);
    for turn in 0..3 {
        match (qid + turn) % 3 {
            0 => {
                let (response, ns) = pooled(engine, query);
                totals.pooled_ns += ns;
                served = Some(response);
            }
            1 => {
                let start = Instant::now();
                let response = engine.answer_inline(query);
                totals.inline_ns += start.elapsed().as_nanos() as u64;
                inline = Some(response);
            }
            _ => {
                replayed = Some(replayer.replay(
                    &engine.index(),
                    &engine.repository(),
                    engine.generation(),
                    query,
                    qid,
                ));
            }
        }
        engine.invalidate_results();
    }
    let (served, inline, replayed) = (
        served.expect("one turn in three"),
        inline.expect("one turn in three"),
        replayed.expect("one turn in three"),
    );
    let digest = inline.result_digest();
    totals.reads += 1;
    totals.mismatches +=
        u64::from(replayed.result_digest() != digest || served.result_digest() != digest);
    inline
}

fn us_per(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / 1e3 / n.max(1) as f64
}

fn total(totals: &std::collections::BTreeMap<&'static str, SpanTotals>, name: &str) -> SpanTotals {
    totals.get(name).copied().unwrap_or_default()
}

/// Per-layer values every workload's traced reads and set-up give.
fn pipeline_values(
    replayer: &Replayer,
    reads: &ReadTotals,
    corpus_bytes: usize,
    values: &mut Values,
) {
    let by_name = totals_by_name(replayer.tracer.spans());
    let t = |name: &str| total(&by_name, name);
    let counts = &replayer.counts;
    let n = counts.queries;
    let per_query = |count: u64| count as f64 / n.max(1) as f64;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    let parse_s = t("schema.parse").total_ns as f64 / 1e9;
    values.insert("schema.parse_s", parse_s);
    values.insert("schema.parse_mb_per_s", corpus_bytes as f64 / 1e6 / parse_s);
    values.insert(
        "repo.index_build_s",
        t("repo.index_build").total_ns as f64 / 1e9,
    );

    values.insert("repo.resolve_us", us_per(t("repo.resolve").total_ns, n));
    values.insert("repo.lookup_us", us_per(t("repo.lookup").total_ns, n));
    values.insert("repo.lookup_returned", per_query(counts.lookup_returned));
    values.insert(
        "repo.lookup_examined_per_returned",
        ratio(counts.lookup_examined, counts.lookup_returned),
    );
    values.insert(
        "repo.lookup_window_skip_ratio",
        1.0 - ratio(counts.volume_in_window, counts.volume_total),
    );
    values.insert(
        "repo.positional_reject_ratio",
        ratio(
            counts.positional_rejections,
            counts.positional_rejections + counts.lookup_returned,
        ),
    );
    values.insert(
        "similarity.verify_ns_per_pair",
        t("similarity.verify").total_ns as f64 / counts.pairs_verified.max(1) as f64,
    );
    values.insert(
        "similarity.pairs_verified",
        per_query(counts.pairs_verified),
    );
    values.insert(
        "similarity.long_name_ratio",
        ratio(counts.long_names, counts.pairs_verified),
    );
    values.insert(
        "matcher.element_match_us",
        us_per(t("matcher.element_match").total_ns, n),
    );
    values.insert(
        "matcher.mapping_elements",
        per_query(counts.mapping_elements),
    );
    values.insert(
        "matcher.verify_pass_ratio",
        ratio(counts.mapping_elements, counts.pairs_verified),
    );
    values.insert(
        "matcher.generate_us",
        us_per(t("matcher.generate").total_ns, n),
    );
    values.insert(
        "matcher.partial_mappings",
        per_query(counts.partial_mappings),
    );
    values.insert("matcher.pruned_branches", per_query(counts.pruned_branches));
    values.insert(
        "matcher.retained_mappings",
        per_query(counts.retained_mappings),
    );
    values.insert(
        "matcher.search_space_log10",
        counts.search_space_log10_sum / n.max(1) as f64,
    );
    values.insert(
        "matcher.sort_cut_us",
        us_per(t("matcher.sort_cut").total_ns, n),
    );
    values.insert("core.kmeans_us", us_per(t("core.kmeans").total_ns, n));
    values.insert(
        "core.kmeans_iterations",
        per_query(counts.kmeans_iterations),
    );
    values.insert("core.clusters_formed", per_query(counts.clusters_formed));
    values.insert(
        "core.useful_cluster_ratio",
        ratio(counts.useful_clusters, counts.clusters_formed),
    );
    values.insert("core.scope_us", us_per(t("core.scope").total_ns, n));
    // What `run_on_candidates` does around the four stages it contains —
    // cluster sizes, distinct-node counts, the report — the staged replay
    // skips; the engine does not, so it counts towards the stage sum.
    let staged_inside: u64 = [
        "core.kmeans",
        "core.scope",
        "matcher.generate",
        "matcher.sort_cut",
    ]
    .iter()
    .map(|name| t(name).total_ns)
    .sum();
    let pipeline_self_ns = t("core.run_on_candidates")
        .total_ns
        .saturating_sub(staged_inside);
    values.insert("core.pipeline_self_us", us_per(pipeline_self_ns, n));
    values.insert("service.plan_us", us_per(t("service.plan").total_ns, n));
    values.insert(
        "service.plan_pruned_ratio",
        ratio(counts.planned_pruned, counts.queries),
    );
    values.insert(
        "service.fingerprint_us",
        us_per(t("service.fingerprint").total_ns, n),
    );

    let replay_ns = t("replay").total_ns;
    let stage_ns: u64 = STAGES.iter().map(|name| t(name).self_ns).sum::<u64>() + pipeline_self_ns;
    values.insert(
        "service.engine_overhead_us",
        (reads.pooled_ns as f64 - stage_ns as f64) / 1e3 / n.max(1) as f64,
    );
    values.insert("trace.inline_us", us_per(reads.inline_ns, reads.reads));
    values.insert("trace.replay_us", us_per(replay_ns, n));
    values.insert(
        "trace.overhead_us",
        (replay_ns as f64 - reads.inline_ns as f64) / 1e3 / n.max(1) as f64,
    );
    values.insert(
        "trace.stage_coverage",
        stage_ns as f64 / reads.inline_ns.max(1) as f64,
    );
}

/// Replay the run's first `count` reads, or as many as the time allows.
fn replay_reads(
    engine: &MatchEngine,
    replayer: &mut Replayer,
    inputs: &Inputs,
    count: usize,
    deadline: Duration,
    mut between: impl FnMut(usize, &mut Replayer),
) -> ReadTotals {
    let mut totals = ReadTotals::default();
    let begun = Instant::now();
    for op in 0..count.min(inputs.sizes.pool) {
        if begun.elapsed() >= deadline {
            break;
        }
        between(op, replayer);
        let query = inputs.query(inputs.pool_id(op));
        traced_read(engine, replayer, &query, op as u32, &mut totals);
    }
    totals
}

pub fn trace(request: &Request) -> Outcome {
    let name = request.workload.name;
    let start = Instant::now();
    let count = traced_reads(name, request.scale);
    let deadline = request.deadline();
    let mut values = Values::new();
    let mut notes = Vec::new();
    let mut wrong = 0u64;

    let inputs = Inputs::generate(request, request.sizes());
    let config = engine_config(&inputs.sizes);
    let mut replayer = Replayer::new(&config);
    let engine = layers::build_engine_traced(&inputs.corpus, &config, &mut replayer.tracer);

    let reads = match name {
        "zipf_open" => {
            let pool = zipf_pool(&inputs);
            fill_cache(
                &engine,
                &pool[..config.result_cache_capacity.min(pool.len())],
            );
            let before = engine.metrics();
            let ladder = run_ladder(
                &engine,
                &pool,
                request,
                inputs.sizes.rates_qps,
                rung_seconds(request.seconds),
            );
            let after = engine.metrics();
            wrong += ladder.inconsistent;
            let served = (after.queries_served - before.queries_served).max(1) as f64;
            values.insert(
                "service.cache_hit_ratio",
                (after.result_cache_hits - before.result_cache_hits) as f64 / served,
            );
            values.insert(
                "service.coalesced_ratio",
                (after.coalesced_queries - before.coalesced_queries) as f64 / served,
            );
            let middle = &ladder.rungs[1];
            values.insert("service.cache_hit_us", middle.hit_served_us);
            values.insert("service.queue_wait_p99_ms", middle.queue_wait_p99_ms);
            values.insert("service.gen_late_p99_ms", middle.late_p99_ms);
            values.insert(
                "service.backlog_end",
                ladder.rungs.last().map_or(0, |r| r.backlog_end) as f64,
            );
            let slo_rate = ladder
                .rungs
                .iter()
                .filter(|r| r.meets_slo(config.queue_capacity))
                .map(|r| r.rate_qps)
                .fold(0.0, f64::max);
            values.insert("service.slo_rate_qps", slo_rate);
            engine.invalidate_results();
            replay_reads(&engine, &mut replayer, &inputs, count, deadline, |_, _| {})
        }
        "zipf_closed" => {
            let reads = replay_reads(&engine, &mut replayer, &inputs, count, deadline, |_, _| {});
            trace_cache(&engine, &inputs, count, &mut values);
            reads
        }
        "fleet_tcp" => trace_fleet(
            &engine,
            &mut replayer,
            &inputs,
            count,
            deadline,
            &mut values,
        ),
        "live_100k" => {
            let reads = trace_live(&engine, &mut replayer, &inputs, request, count, &mut values);
            notes.push(format!(
                "compactions in the mirror: {}",
                values["repo.compactions"]
            ));
            reads
        }
        _ => replay_reads(&engine, &mut replayer, &inputs, count, deadline, |_, _| {}),
    };
    wrong += reads.mismatches;
    pipeline_values(&replayer, &reads, inputs.corpus.bytes, &mut values);
    drop(engine);

    let path = out_dir().join(format!("trace-{name}.json"));
    std::fs::write(&path, spans::to_json(name, replayer.tracer.spans()))
        .expect("write the trace file");
    notes.push(format!(
        "{} spans of {} replayed reads in {}",
        replayer.tracer.spans().len(),
        reads.reads,
        path.display()
    ));
    notes.push(format!(
        "stage self-times cover {:.1} % of answer_inline; tracing overhead {:.1} us per query",
        values["trace.stage_coverage"] * 100.0,
        values["trace.overhead_us"]
    ));
    Outcome {
        attempted: reads.reads,
        failed: wrong,
        correct: wrong == 0,
        wall_s: start.elapsed().as_secs_f64(),
        answers_checksum: 0,
        values,
        notes,
    }
}

/// `zipf_closed`: the run's first `count` reads once more, through the pool
/// and with the cache filled as the measured run fills it, for the cache's
/// own numbers.
fn trace_cache(engine: &MatchEngine, inputs: &Inputs, count: usize, values: &mut Values) {
    let popular: Vec<MatchQuery> = (0..inputs.sizes.result_cache.unwrap_or(0))
        .map(|id| inputs.query(id))
        .collect();
    fill_cache(engine, &popular);
    let before = engine.metrics();
    let (mut hits, mut hit_ns) = (0u64, 0u64);
    for index in 0..count {
        let (response, _) = pooled(engine, &inputs.query(inputs.pool_id(index)));
        if response.cache_hit {
            hits += 1;
            hit_ns += response.latency.as_nanos() as u64;
        }
    }
    let after = engine.metrics();
    let served = (after.queries_served - before.queries_served).max(1) as f64;
    values.insert(
        "service.cache_hit_ratio",
        (after.result_cache_hits - before.result_cache_hits) as f64 / served,
    );
    values.insert(
        "service.coalesced_ratio",
        (after.coalesced_queries - before.coalesced_queries) as f64 / served,
    );
    values.insert("service.cache_hit_us", us_per(hit_ns, hits));
}

/// `fleet_tcp`: each query through the single engine, the in-process 2-shard
/// router and the TCP fleet in turn, so each layer's tax is a subtraction;
/// then its real request and response through encode, frame and decode.
fn trace_fleet(
    engine: &MatchEngine,
    replayer: &mut Replayer,
    inputs: &Inputs,
    count: usize,
    deadline: Duration,
    values: &mut Values,
) -> ReadTotals {
    let config = engine_config(&inputs.sizes);
    let span = replayer
        .tracer
        .open("service.shard.fleet_new", None, NO_QUERY);
    let inprocess =
        layers::build_inprocess_fleet(layers::parse_corpus(&inputs.corpus), &config, CLIENTS);
    replayer.tracer.close(span);
    let span = replayer
        .tracer
        .open("service.net.fleet_new", None, NO_QUERY);
    let tcp = layers::build_tcp_fleet(layers::parse_corpus(&inputs.corpus), &config, CLIENTS);
    replayer.tracer.close(span);

    let (mut inprocess_ns, mut tcp_ns) = (0u64, 0u64);
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let mut fleet_mismatches = 0u64;
    let mut totals = ReadTotals::default();
    let begun = Instant::now();
    for op in 0..count.min(inputs.sizes.pool) {
        if begun.elapsed() >= deadline {
            break;
        }
        let (id, query) = (op, inputs.query(inputs.pool_id(op)));
        let single = traced_read(engine, replayer, &query, id as u32, &mut totals);
        let (routed, ns) = pooled(&inprocess, &query);
        inprocess_ns += ns;
        let (remote, ns) = pooled(&tcp.router, &query);
        tcp_ns += ns;
        let digest = single.result_digest();
        fleet_mismatches += u64::from(
            routed.incomplete
                || remote.incomplete
                || routed.result_digest() != digest
                || remote.result_digest() != digest,
        );
        let sizes = layers::wire_round_trip(&query, &remote, id as u32, &mut replayer.tracer);
        request_bytes += sizes.request_bytes;
        response_bytes += sizes.response_bytes;
    }
    totals.mismatches += fleet_mismatches;

    let n = totals.reads;
    let by_name = totals_by_name(replayer.tracer.spans());
    values.insert(
        "service.shard.router_tax_us",
        (inprocess_ns as f64 - totals.pooled_ns as f64) / 1e3 / n.max(1) as f64,
    );
    values.insert(
        "service.net.wire_tax_us",
        (tcp_ns as f64 - inprocess_ns as f64) / 1e3 / n.max(1) as f64,
    );
    for (metric, span) in [
        ("service.net.encode_us", "service.net.encode"),
        ("service.net.decode_us", "service.net.decode"),
        ("service.net.frame_us", "service.net.frame"),
    ] {
        values.insert(metric, us_per(total(&by_name, span).total_ns, n));
    }
    values.insert(
        "service.net.request_bytes",
        request_bytes as f64 / n.max(1) as f64,
    );
    values.insert(
        "service.net.response_bytes",
        response_bytes as f64 / n.max(1) as f64,
    );
    totals
}

/// `live_100k`: reads replayed as everywhere, with mutation batches applied to
/// the engine and, beside it, to a bare `LiveRepository` — the difference is
/// the engine's write gate. Then the snapshot, whole and by layer.
fn trace_live(
    engine: &MatchEngine,
    replayer: &mut Replayer,
    inputs: &Inputs,
    request: &Request,
    count: usize,
    values: &mut Values,
) -> ReadTotals {
    let threshold = inputs
        .sizes
        .compaction_threshold
        .expect("live_100k sets a compaction threshold");
    let mut mirror = LiveMirror::new(inputs.repo.clone(), threshold);
    let mut model = LiveModel::new(
        &inputs.repo,
        fresh_trees(request.seed, TRACED_MUTATIONS / 2 * MUTATION_BATCH),
    );
    let every = (count / TRACED_MUTATIONS).max(1);
    let (mut engine_ns, mut repo_ns, mut batches) = (0u64, 0u64, 0u64);
    let deadline = request.deadline();
    let totals = replay_reads(engine, replayer, inputs, count, deadline, |id, replayer| {
        if id % every != every - 1 {
            return;
        }
        batches += 1;
        let span = replayer
            .tracer
            .open("service.engine_mutation", None, NO_QUERY);
        match model.next_mutation() {
            Mutation::Append(trees) => {
                let ids = engine
                    .append_trees(trees.clone())
                    .expect("appending a non-empty batch");
                engine_ns += replayer.tracer.close(span);
                repo_ns += mirror.append(trees.clone(), &mut replayer.tracer);
                model.appended(&ids, trees);
            }
            Mutation::Delete(ids) => {
                engine.delete_trees(&ids).expect("deleting alive trees");
                engine_ns += replayer.tracer.close(span);
                repo_ns += mirror.delete(&ids, &mut replayer.tracer);
                model.deleted(&ids);
            }
        }
    });

    let by_name = totals_by_name(replayer.tracer.spans());
    let mean_ms = |name: &str| {
        let t = total(&by_name, name);
        t.total_ns as f64 / 1e6 / t.count.max(1) as f64
    };
    values.insert("repo.append_ms", mean_ms("repo.append"));
    values.insert("repo.delete_ms", mean_ms("repo.delete"));
    values.insert(
        "repo.compact_ms",
        total(&by_name, "repo.compact").total_ns as f64 / 1e6 / mirror.compactions.max(1) as f64,
    );
    values.insert("repo.compactions", mirror.compactions as f64);
    values.insert("repo.dead_posting_fraction_max", mirror.dead_fraction_max);
    values.insert(
        "service.mutation_gate_ms",
        (engine_ns as f64 - repo_ns as f64) / 1e6 / batches.max(1) as f64,
    );

    let path = out_dir().join(format!("trace-snapshot-{}.bin", std::process::id()));
    let span = replayer
        .tracer
        .open("service.snapshot_write", None, NO_QUERY);
    engine
        .write_snapshot(&path, engine.generation())
        .expect("snapshot into the benchmark's output directory");
    replayer.tracer.close(span);
    let centroids = engine.tree_centroids();
    let bytes = layers::snapshot_layers(engine, &centroids, &path, &mut replayer.tracer);
    let _ = std::fs::remove_file(&path);
    let by_name = totals_by_name(replayer.tracer.spans());
    values.insert(
        "repo.snapshot_write_s",
        total(&by_name, "repo.snapshot_write").total_ns as f64 / 1e9,
    );
    values.insert(
        "repo.snapshot_load_s",
        total(&by_name, "repo.snapshot_load").total_ns as f64 / 1e9,
    );
    values.insert("repo.snapshot_bytes", bytes as f64);
    totals
}
