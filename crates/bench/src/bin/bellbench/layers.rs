//! Every call the benchmark makes into the product crates to build a serving
//! system or to replay a query stage by stage, each under a span.
//!
//! `staged_pipeline` mirrors `EngineCore::run_pipeline` in
//! `crates/service/src/engine.rs` through public functions only. When that
//! call sequence changes, this is the one file to update; the traced run
//! fails its digest check until the two agree again.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use xsm_core::{ClusteredMatcher, ClusteringVariant, KMeansClusterer};
use xsm_matcher::element::{
    match_elements_features, match_elements_with_index_features_resolved, resolve_personal_queries,
};
use xsm_matcher::generator::sort_mappings;
use xsm_matcher::{
    BranchAndBoundGenerator, CandidateSet, GeneratorCounters, MappingGenerator, MatchingProblem,
    SchemaMapping,
};
use xsm_repo::corpus::load_documents;
use xsm_repo::{
    CandidateScratch, LengthWindow, LiveRepository, MergePolicy, NameIndex, RepositoryPartition,
    ResolvedQuery, SchemaRepository, ShardPlacement, SnapshotReader, SnapshotWriter,
};
use xsm_schema::{GlobalNodeId, SchemaTree, TreeId};
use xsm_service::net::{proto, read_frame, write_frame, WireRequest, WireResponse};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchResponse, MatchService, PlannedStrategy,
    QueryPlanner, QueryStrategy, RemoteEngine, RemoteEngineConfig, ShardServer, ShardedEngine,
    ShardedEngineConfig,
};
use xsm_similarity::features::fuzzy_features;
use xsm_similarity::SimScratch;

use crate::gen::Corpus;
use crate::spans::{Tracer, NO_QUERY};

/// Names longer than this leave the single-word bit-parallel kernel.
const LONG_NAME_CHARS: usize = 64;

// ---------------------------------------------------------------- set-up --

/// `xsm-schema` + `xsm-repo::corpus`: documents in memory → repository.
pub fn parse_corpus(corpus: &Corpus) -> SchemaRepository {
    let (repo, report) = load_documents(corpus.doc_refs());
    assert!(
        report.skipped_files.is_empty(),
        "generated documents must parse: {:?}",
        report.skipped_files.first()
    );
    repo
}

/// The serving system of the single-engine workloads: parse, index, start.
pub fn build_engine(corpus: &Corpus, config: &EngineConfig) -> MatchEngine {
    MatchEngine::new(parse_corpus(corpus), config.clone())
}

/// Set-up with a span per layer. The index is built once on its own to time
/// `xsm-repo` apart from the engine's thread start-up, then again inside
/// `MatchEngine::new`, which is what the untraced set-up pays.
pub fn build_engine_traced(
    corpus: &Corpus,
    config: &EngineConfig,
    tracer: &mut Tracer,
) -> MatchEngine {
    let setup = tracer.open("setup", None, NO_QUERY);
    let span = tracer.open("schema.parse", Some(setup), NO_QUERY);
    let repo = parse_corpus(corpus);
    tracer.close(span);
    let span = tracer.open("service.engine_new", Some(setup), NO_QUERY);
    let engine = MatchEngine::new(repo, config.clone());
    tracer.close(span);
    tracer.close(setup);
    let span = tracer.open("repo.index_build", None, NO_QUERY);
    let index = NameIndex::build(&engine.repository());
    tracer.close(span);
    drop(index);
    engine
}

/// A 2-shard fleet over loopback TCP: one `ShardServer` per shard in front of
/// a 1-worker engine, one handshaked `RemoteEngine` per server, the router on
/// top. Field order is drop order: the router's clients go before the servers.
pub struct TcpFleet {
    pub router: ShardedEngine,
    _servers: Vec<ShardServer>,
}

pub const FLEET_SHARDS: usize = 2;

fn router_config(engine: &EngineConfig, router_workers: usize) -> ShardedEngineConfig {
    ShardedEngineConfig::default()
        .with_shards(FLEET_SHARDS)
        .with_placement(ShardPlacement::TreeHash)
        .with_router_workers(router_workers)
        .with_engine_config(engine.clone().with_workers(1))
}

pub fn build_tcp_fleet(
    repo: SchemaRepository,
    engine: &EngineConfig,
    router_workers: usize,
) -> TcpFleet {
    let config = router_config(engine, router_workers);
    let partition = RepositoryPartition::build(&repo, FLEET_SHARDS, ShardPlacement::TreeHash);
    drop(repo);
    let (parts, tree_maps) = partition.into_parts();
    let client_config = RemoteEngineConfig::default()
        .with_request_deadline(Duration::from_secs(60))
        .with_retries(0);
    let mut servers = Vec::with_capacity(FLEET_SHARDS);
    let mut services: Vec<Box<dyn MatchService>> = Vec::with_capacity(FLEET_SHARDS);
    for part in parts {
        let backend: Arc<dyn MatchService> =
            Arc::new(MatchEngine::new(part, config.engine.clone()));
        let server = ShardServer::bind("127.0.0.1:0", backend).expect("bind a loopback port");
        let client = RemoteEngine::connect(server.local_addr().to_string(), client_config.clone())
            .expect("handshake with the benchmark's own server");
        services.push(Box::new(client));
        servers.push(server);
    }
    let router = ShardedEngine::from_services(services, tree_maps, config)
        .expect("two services, two tree maps, no candidate cap");
    TcpFleet {
        router,
        _servers: servers,
    }
}

/// The same partition and router with the shards in-process: what the TCP
/// fleet costs beyond this is the wire.
pub fn build_inprocess_fleet(
    repo: SchemaRepository,
    engine: &EngineConfig,
    router_workers: usize,
) -> ShardedEngine {
    ShardedEngine::new(repo, router_config(engine, router_workers))
}

// ---------------------------------------------------------------- replay --

/// The engine's immutable pipeline pieces, rebuilt from its configuration the
/// way `MatchEngine::assemble` builds them.
pub struct PipelineParts {
    matcher: ClusteredMatcher,
    clusterer: Option<KMeansClusterer>,
    generator: BranchAndBoundGenerator,
    planner: QueryPlanner,
    config: EngineConfig,
}

impl PipelineParts {
    pub fn new(config: &EngineConfig) -> Self {
        PipelineParts {
            matcher: ClusteredMatcher::for_variant(config.variant)
                .with_element_config(config.element.clone()),
            clusterer: config.variant.config().map(KMeansClusterer::new),
            generator: BranchAndBoundGenerator::new(),
            planner: QueryPlanner::new(config.planner),
            config: config.clone(),
        }
    }
}

/// Per-thread working memory, as each engine worker owns.
#[derive(Default)]
pub struct Scratch {
    sim: SimScratch,
    candidates: CandidateScratch,
}

/// Work counted at the layer boundaries during replays, summed over queries.
#[derive(Debug, Default, Clone)]
pub struct StageCounts {
    pub queries: u64,
    pub planned_pruned: u64,
    pub lookup_returned: u64,
    pub lookup_examined: u64,
    pub volume_in_window: u64,
    pub volume_total: u64,
    pub positional_rejections: u64,
    pub pairs_verified: u64,
    pub long_names: u64,
    pub mapping_elements: u64,
    pub kmeans_iterations: u64,
    pub clusters_formed: u64,
    pub useful_clusters: u64,
    pub partial_mappings: u64,
    pub pruned_branches: u64,
    pub retained_mappings: u64,
    pub search_space_log10_sum: f64,
}

/// Where the staged pipeline records its spans: under one query's `replay`
/// span, or nowhere — the untraced reference runs the same code.
struct Marks<'a> {
    tracer: Option<(&'a mut Tracer, u32, u32)>,
}

impl Marks<'_> {
    fn stage<R>(&mut self, name: &'static str, work: impl FnOnce() -> R) -> R {
        match &mut self.tracer {
            Some((tracer, parent, qid)) => {
                let span = tracer.open(name, Some(*parent), *qid);
                let result = work();
                tracer.close(span);
                result
            }
            None => work(),
        }
    }
}

/// What one pass through the staged pipeline produced.
struct Staged {
    response: MatchResponse,
    problem: MatchingProblem,
    /// `None` when the query forced the exhaustive scan.
    resolved: Option<Vec<ResolvedQuery>>,
    candidates: CandidateSet,
    counters: GeneratorCounters,
    kmeans_iterations: usize,
    clusters_formed: usize,
    useful_clusters: usize,
}

/// The public functions `EngineCore::run_pipeline` calls, in its order, each
/// as one stage. This is the mirror to keep in step with the engine.
fn staged_pipeline(
    parts: &PipelineParts,
    index: &NameIndex,
    repo: &SchemaRepository,
    generation: u64,
    query: &MatchQuery,
    scratch: &mut Scratch,
    marks: &mut Marks,
) -> Staged {
    let element = parts.matcher.element_config();
    let floor = element.min_similarity;

    let fingerprint = marks.stage("service.fingerprint", || query.fingerprint());
    let resolved = marks.stage("repo.resolve", || match query.strategy {
        QueryStrategy::Exhaustive => None,
        QueryStrategy::Auto | QueryStrategy::IndexPruned => {
            Some(resolve_personal_queries(&query.personal, index))
        }
    });
    let plan = marks.stage("service.plan", || match &resolved {
        Some(resolved) => {
            parts
                .planner
                .plan_resolved(&query.personal, query.strategy, index, floor, resolved)
        }
        None => parts
            .planner
            .plan(&query.personal, query.strategy, index, floor),
    });
    let threshold = if query.threshold.is_nan() {
        1.0
    } else {
        query.threshold.clamp(0.0, 1.0)
    };
    let problem = MatchingProblem::new(query.personal.clone(), parts.config.objective, threshold);
    let candidates = marks.stage("matcher.element_match", || match plan.strategy {
        PlannedStrategy::IndexPruned => match_elements_with_index_features_resolved(
            &problem.personal,
            index,
            element,
            parts.planner.config().min_overlap,
            resolved.as_deref().expect("pruned plans resolved above"),
            &mut scratch.sim,
            &mut scratch.candidates,
        ),
        PlannedStrategy::Exhaustive => match_elements_features(
            &problem.personal,
            index.features(),
            element,
            &mut scratch.sim,
        ),
    });
    let clustered = marks.stage("core.kmeans", || {
        parts
            .clusterer
            .as_ref()
            .map(|clusterer| clusterer.cluster(repo, &candidates))
    });
    let scopes: Vec<CandidateSet> = marks.stage("core.scope", || match &clustered {
        Some((set, _)) => set.clusters.iter().map(|c| c.scope(&candidates)).collect(),
        None => candidates
            .trees()
            .into_iter()
            .map(|tree| candidates.restrict_to_tree(tree))
            .collect(),
    });
    let mut counters = GeneratorCounters::default();
    let mut mappings: Vec<SchemaMapping> = Vec::new();
    let mut useful_clusters = 0;
    marks.stage("matcher.generate", || {
        for scope in scopes.iter().filter(|scope| scope.is_useful()) {
            useful_clusters += 1;
            let outcome = parts.generator.generate(&problem, repo, scope);
            counters = counters.merge(&outcome.counters);
            mappings.extend(outcome.mappings);
        }
    });
    let total_matches = marks.stage("matcher.sort_cut", || {
        sort_mappings(&mut mappings);
        let total = mappings.len();
        mappings.truncate(query.top_k);
        total
    });
    Staged {
        response: MatchResponse {
            fingerprint,
            strategy: plan.strategy,
            cache_hit: false,
            mappings,
            candidate_count: candidates.total_candidates(),
            total_matches,
            incomplete: false,
            failed_shards: Vec::new(),
            generation,
            latency: Duration::ZERO,
        },
        problem,
        resolved,
        candidates,
        counters,
        kmeans_iterations: clustered.as_ref().map_or(0, |(_, stats)| stats.iterations),
        clusters_formed: clustered
            .as_ref()
            .map_or(scopes.len(), |(set, _)| set.clusters.len()),
        useful_clusters,
    }
}

/// The traced replay's state: the pipeline pieces, one worker's scratch, the
/// counts taken at the layer boundaries and the spans recorded so far.
pub struct Replayer {
    parts: PipelineParts,
    scratch: Scratch,
    pub counts: StageCounts,
    pub tracer: Tracer,
}

impl Replayer {
    pub fn new(config: &EngineConfig) -> Self {
        Replayer {
            parts: PipelineParts::new(config),
            scratch: Scratch::default(),
            counts: StageCounts::default(),
            tracer: Tracer::new(),
        }
    }

    /// Replay one query stage by stage, a span around each stage, all under
    /// one `replay` span. Returns what the engine would have answered.
    ///
    /// Two spans are recorded per query beside the stages: `probe` re-runs
    /// candidate lookup and kernel verification per personal node so element
    /// matching can be split between `xsm-repo` and `xsm-similarity`;
    /// `core.run_on_candidates` runs the clustered matcher whole, to reconcile
    /// with the staged replay. Neither is a child of `replay`, so neither
    /// counts towards the stage sum.
    pub fn replay(
        &mut self,
        index: &NameIndex,
        repo: &SchemaRepository,
        generation: u64,
        query: &MatchQuery,
        qid: u32,
    ) -> MatchResponse {
        let replay = self.tracer.open("replay", None, qid);
        let staged = staged_pipeline(
            &self.parts,
            index,
            repo,
            generation,
            query,
            &mut self.scratch,
            &mut Marks {
                tracer: Some((&mut self.tracer, replay, qid)),
            },
        );
        self.tracer.close(replay);

        let counts = &mut self.counts;
        counts.queries += 1;
        counts.planned_pruned +=
            u64::from(staged.response.strategy == PlannedStrategy::IndexPruned);
        counts.mapping_elements += staged.response.candidate_count as u64;
        counts.kmeans_iterations += staged.kmeans_iterations as u64;
        counts.clusters_formed += staged.clusters_formed as u64;
        counts.useful_clusters += staged.useful_clusters as u64;
        counts.partial_mappings += staged.counters.partial_mappings;
        counts.pruned_branches += staged.counters.pruned_branches;
        counts.retained_mappings += staged.counters.retained_mappings;
        counts.search_space_log10_sum += (staged.counters.search_space.max(1) as f64).log10();

        if let Some(resolved) = &staged.resolved {
            if staged.response.strategy == PlannedStrategy::IndexPruned {
                self.probe(index, repo, query, resolved, qid);
            }
        }

        let span = self.tracer.open("core.run_on_candidates", None, qid);
        let report = self.parts.matcher.run_on_candidates(
            &staged.problem,
            repo,
            &staged.candidates,
            &self.parts.generator,
        );
        self.tracer.close(span);
        assert_eq!(
            report.mappings.len(),
            staged.response.total_matches,
            "staged replay and run_on_candidates disagree on query {qid}"
        );
        staged.response
    }

    /// The inside of index-pruned element matching, one personal node at a time:
    /// filter (`NameIndex::lookup_candidates_resolved` plus the exact-name hits)
    /// and verify (`fuzzy_features` over what the filter returned).
    fn probe(
        &mut self,
        index: &NameIndex,
        repo: &SchemaRepository,
        query: &MatchQuery,
        resolved: &[ResolvedQuery],
        qid: u32,
    ) {
        let floor = self.parts.matcher.element_config().min_similarity;
        let window = LengthWindow::fuzzy_floor(floor);
        let min_overlap = self.parts.planner.config().min_overlap;
        let store = index.features();
        let probe = self.tracer.open("probe", None, qid);
        for (node, presolved) in query.personal.preorder().into_iter().zip(resolved) {
            let name = query.personal.name_of(node);
            let span = self.tracer.open("repo.lookup", Some(probe), qid);
            let (mut ids, stats) = index.lookup_candidates_resolved(
                presolved,
                min_overlap,
                window,
                MergePolicy::Auto,
                &mut self.scratch.candidates,
            );
            ids.extend_from_slice(index.lookup_exact(name));
            ids.sort();
            ids.dedup();
            self.tracer.close(span);

            let features = store.query_features(name);
            let span = self.tracer.open("similarity.verify", Some(probe), qid);
            let mut kept = 0u64;
            for &id in &ids {
                let candidate = store.features_of(id).expect("index ids are valid");
                let sim = fuzzy_features(&features, candidate, &mut self.scratch.sim);
                kept += u64::from(sim >= floor && sim > 0.0);
            }
            self.tracer.close(span);
            std::hint::black_box(kept);

            self.counts.lookup_returned += ids.len() as u64;
            self.counts.lookup_examined += stats.candidates_examined as u64;
            self.counts.volume_in_window += stats.volume_in_window as u64;
            self.counts.volume_total += stats.volume_total as u64;
            self.counts.positional_rejections += stats.positional_rejections as u64;
            self.counts.pairs_verified += ids.len() as u64;
            self.counts.long_names += ids
                .iter()
                .filter(|&&id| repo.name_of(id).chars().count() > LONG_NAME_CHARS)
                .count() as u64;
        }
        self.tracer.close(probe);
    }
}

/// The untraced replay: the answer the public pipeline functions give for
/// `query`, for checking what a serving system returned.
pub fn reference_answer(
    parts: &PipelineParts,
    index: &NameIndex,
    repo: &SchemaRepository,
    query: &MatchQuery,
    scratch: &mut Scratch,
) -> MatchResponse {
    staged_pipeline(
        parts,
        index,
        repo,
        0,
        query,
        scratch,
        &mut Marks { tracer: None },
    )
    .response
}

/// The paper's trade on a sample of queries: mappings with Δ ≥ δ the served
/// variant keeps of those the unclustered baseline finds on identical
/// candidates, and how much smaller its search space is (Tab. 1a).
pub struct ClusteringTrade {
    pub mappings_preserved_ratio: f64,
    pub search_space_reduction: f64,
}

pub fn clustering_trade(
    parts: &PipelineParts,
    index: &NameIndex,
    repo: &SchemaRepository,
    sample: &[MatchQuery],
) -> ClusteringTrade {
    let baseline = ClusteredMatcher::for_variant(ClusteringVariant::TreeClusters)
        .with_element_config(parts.config.element.clone());
    let mut scratch = Scratch::default();
    let (mut served_found, mut baseline_found) = (0usize, 0usize);
    let (mut served_space, mut baseline_space) = (0f64, 0f64);
    for query in sample {
        let served = staged_pipeline(
            parts,
            index,
            repo,
            0,
            query,
            &mut scratch,
            &mut Marks { tracer: None },
        );
        let tree =
            baseline.run_on_candidates(&served.problem, repo, &served.candidates, &parts.generator);
        served_found += served.response.total_matches;
        baseline_found += tree.mappings.len();
        served_space += served.counters.search_space as f64;
        baseline_space += tree.cluster_stats.total_search_space as f64;
    }
    ClusteringTrade {
        mappings_preserved_ratio: served_found as f64 / baseline_found.max(1) as f64,
        search_space_reduction: baseline_space / served_space.max(1.0),
    }
}

// ----------------------------------------------------------------- wire --

/// Bytes one query and its answer occupy on the wire.
pub struct WireSizes {
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// What the TCP fleet does to one exchange beside moving it: JSON encode,
/// frame, unframe, JSON decode — on the real request and response, over memory.
pub fn wire_round_trip(
    query: &MatchQuery,
    response: &MatchResponse,
    qid: u32,
    tracer: &mut Tracer,
) -> WireSizes {
    let request = WireRequest::Query(query.clone());
    let reply = WireResponse::Response(response.clone());
    let wire = tracer.open("wire", None, qid);

    let span = tracer.open("service.net.encode", Some(wire), qid);
    let request_payload = proto::encode(&request).expect("queries serialize");
    let response_payload = proto::encode(&reply).expect("responses serialize");
    tracer.close(span);

    let span = tracer.open("service.net.frame", Some(wire), qid);
    let mut stream = Vec::with_capacity(request_payload.len() + response_payload.len() + 8);
    write_frame(&mut stream, &request_payload).expect("writing to memory");
    write_frame(&mut stream, &response_payload).expect("writing to memory");
    let mut reader = Cursor::new(stream);
    let request_frame = read_frame(&mut reader).expect("reading back a whole frame");
    let response_frame = read_frame(&mut reader).expect("reading back a whole frame");
    tracer.close(span);

    let span = tracer.open("service.net.decode", Some(wire), qid);
    let decoded_request: WireRequest = proto::decode(&request_frame).expect("own encoding");
    let decoded_response: WireResponse = proto::decode(&response_frame).expect("own encoding");
    tracer.close(span);
    tracer.close(wire);

    match (decoded_request, decoded_response) {
        (WireRequest::Query(q), WireResponse::Response(r)) => {
            assert_eq!(
                q.fingerprint(),
                query.fingerprint(),
                "request changed on the wire"
            );
            assert_eq!(
                r.result_digest(),
                response.result_digest(),
                "response changed on the wire"
            );
        }
        _ => panic!("wire round trip changed the message kind"),
    }
    WireSizes {
        request_bytes: request_payload.len(),
        response_bytes: response_payload.len(),
    }
}

// ------------------------------------------------------------- mutation --

/// `xsm-repo`'s share of a mutation: the same batches applied to a bare
/// `LiveRepository` beside the engine, compaction at the engine's threshold.
pub struct LiveMirror {
    live: LiveRepository,
    threshold: f64,
    pub compactions: u64,
    pub dead_fraction_max: f64,
}

impl LiveMirror {
    pub fn new(repo: SchemaRepository, threshold: f64) -> Self {
        LiveMirror {
            live: LiveRepository::build(repo),
            threshold,
            compactions: 0,
            dead_fraction_max: 0.0,
        }
    }

    /// Returns the nanoseconds the repository layer took.
    pub fn append(&mut self, trees: Vec<SchemaTree>, tracer: &mut Tracer) -> u64 {
        let span = tracer.open("repo.append", None, NO_QUERY);
        self.live.append_trees(trees).expect("non-empty batch");
        tracer.close(span)
    }

    /// Returns the nanoseconds the repository layer took, compaction included.
    pub fn delete(&mut self, trees: &[TreeId], tracer: &mut Tracer) -> u64 {
        let span = tracer.open("repo.delete", None, NO_QUERY);
        self.live.delete_trees(trees).expect("alive trees");
        let delete_ns = tracer.close(span);
        self.dead_fraction_max = self
            .dead_fraction_max
            .max(self.live.dead_posting_fraction());
        let span = tracer.open("repo.compact", None, NO_QUERY);
        let compacted = self.live.maybe_compact(self.threshold).is_some();
        let compact_ns = tracer.close(span);
        self.compactions += u64::from(compacted);
        delete_ns + compact_ns
    }
}

// ------------------------------------------------------------- snapshot --

/// `xsm-repo::snapshot` alone: serialize the engine's artefacts, read them back.
pub fn snapshot_layers(
    engine: &MatchEngine,
    centroids: &[Option<GlobalNodeId>],
    path: &Path,
    tracer: &mut Tracer,
) -> u64 {
    let span = tracer.open("repo.snapshot_write", None, NO_QUERY);
    let bytes = SnapshotWriter::new(engine.generation())
        .write(&engine.repository(), &engine.index(), centroids, path)
        .expect("snapshot into the benchmark's output directory");
    tracer.close(span);
    let span = tracer.open("repo.snapshot_load", None, NO_QUERY);
    let snapshot = SnapshotReader::read(path).expect("a snapshot just written");
    tracer.close(span);
    assert_eq!(snapshot.generation, engine.generation());
    bytes
}
