//! The Branch & Bound mapping generator — the paper's generator (Sec. 3).
//!
//! "The generator uses an adaptation of the Branch and Bound algorithm … The generator
//! produces all schema mappings for which Δ(s,t) ≥ δ … The generator gains efficiency
//! by using a bounding function for an early detection of mappings for which
//! Δ(s,t) < δ."
//!
//! The search assigns personal-schema nodes one at a time (most-constrained node first,
//! i.e. fewest candidates first), skipping repository nodes that are already used
//! (mappings are "1 to 1"). Every partial assignment created is counted as a *partial
//! mapping* — the efficiency indicator Tab. 1b reports. A branch is cut when the
//! admissible upper bound of its best completion falls below δ.
//!
//! # One state, carried down and back up
//!
//! A partial mapping is the unit of work the paper counts, so it has to be cheap: the
//! search never builds a [`SchemaMapping`] to score one. It keeps a single `Search`
//! state — the partial mapping the recursion stands on — and *looks at* each
//! extension of it by one candidate from there:
//!
//! * **the running similarity sum** — `sum(d+1) = sum(d) + similarity`, in assignment
//!   order. It travels as a call argument, so backing out of a branch restores it
//!   for free;
//! * **`best` and `assigned`** — the highest similarity each candidate list offers,
//!   and which lists are taken. The bound's `Δ_sim` part is the extended sum plus
//!   `best[i]` for every list `i` still open, added in `personal_nodes` order;
//! * **`used`** — one flag per repository node of the scope (a *slot*, below), set
//!   while the node is an image of the partial mapping: injectivity is one load;
//! * **the images as a [`SteinerRing`]** — ordered by pre-order rank, with the sum
//!   of the distances between cyclic neighbours and the ring's gaps laid out: for
//!   each place a new image can enter, the two images it lies between and the sum
//!   without the term between them. A candidate's gap is a branch-free count of the
//!   held ring keys below its own, so `|E_t|` *with the candidate* is two distances
//!   away ([`SteinerRing::edge_count_with`]), exactly, and asking changes nothing.
//!
//! Most partial mappings end there: the bound cuts them, or they are complete and
//! get their score from the same two numbers. Only to search *below* one does the
//! state change — candidate pushed, list marked, image flagged and inserted, the
//! ring's gaps laid out again — and change back on return. So an inner partial
//! mapping costs no allocation, two distance lookups and `|N_s|` float additions,
//! and a complete one allocates only if it is retained *and* the [`TopMappings`] it
//! goes to wants its score.
//!
//! # The last list
//!
//! Nine in ten partial mappings on `wide_match` are *leaves*: extensions by a
//! candidate of the last list, complete mappings. The last list gets a loop of its
//! own, with the same counters and the same bits:
//!
//! * **The bound is the score.** With every list assigned, no `best[i]` is added,
//!   and [`Objective::upper_bound_from_parts`] is [`Objective::delta_from_parts`]
//!   of the same two numbers. A leaf computes it once: pruned if
//!   `score + 1e-12 < δ`, retained if `score ≥ δ`.
//! * **The sorted tail is counted, not visited.** Lists descend by similarity,
//!   the score falls as the similarity sum falls and as `|E_t|` grows, and adding
//!   an image to a set of labelled nodes never shrinks its Steiner tree. So once
//!   a candidate would be pruned at the prefix's own `|E_t|`, so would every
//!   candidate after it, at whatever `|E_t|` it brings. The first such candidate
//!   is found by binary search; the candidates from there on whose `used` flag is
//!   clear are added to `partial_mappings` and `pruned_branches` in one step,
//!   capped at what `max_partial_mappings` leaves — exactly where a
//!   candidate-by-candidate loop would stop. This holds only if the labelling
//!   knows every image of the scope: an unknown image reads distance 0 to
//!   everything and can *shrink* `|E_t|`. So a search counts tails only when
//!   bounding is on, every slot has a pre-order rank, and `α ∈ [0, 1]`, `K > 0`
//!   keep the score monotone; otherwise it visits every candidate.
//!
//! # Slots and the distance memo
//!
//! A scope offers few distinct images — at most 96 on `wide_match`'s useful
//! scopes — but its search asks about the same pairs again and again: tens of
//! thousands of distance lookups per query over a few thousand pairs. So the
//! search numbers the scope's distinct repository nodes once, in ascending
//! [`NodeId`] order: these are its **slots**. Each slot's
//! pre-order rank is read once, and every candidate's ring key
//! `(rank, slot)` sits in one flat array, list after list in assignment order.
//! Slots ascend with node ids, so the ring's `(rank, slot)` order is the
//! `(rank, node)` order of `steiner_edge_count`.
//!
//! The ring asks the search for the distance between two slots, and the search
//! answers from an `m × m` memo for `m` slots, filled lazily: a cell holds
//! `distance + 1`, 0 until the pair is first asked, when
//! `TreeLabeling::distance(a, b).unwrap_or(0)` fills it and its mirror. That is
//! the very integer `steiner_edge_count` reads, so every `|E_t|`, every bound
//! bit, every pruned branch and every mapping is what the labelling alone
//! gives; the memo only saves asking twice. A scope of more than
//! `MEMO_MAX_IMAGES` (1 024) distinct images — a 4 MiB memo — asks the labelling
//! every time instead. Setting up a search costs a fixed number of allocations
//! whatever the scope — the slots, the keys, the memo, the per-slot flags and the
//! state above, each sized once — and the search itself none
//! (`tests/search_allocations.rs` pins the count). Every retained mapping is
//! counted; one that cannot make the caller's top `k` is never built.
//! `generate_single_tree` and `generate` hand the search an unbounded collector,
//! the served path one of `k`: the search itself is the same.
//!
//! The collector's cutoff never prunes: a bound below the current `k`-th score would
//! cut branches holding mappings with `Δ ≥ δ`, and the retained count — which the
//! served `total_matches` reports exactly — would become a lower bound.
//!
//! # Why each float is summed in the order it is
//!
//! [`Objective::upper_bound`] and [`Objective::delta`] — the from-scratch
//! formulation the other generators use, and the oracle of
//! `tests/generator_equivalence.rs` — fold a mapping's similarities in pair order
//! starting from zero, then add the unassigned nodes' best similarities walking
//! `personal_nodes`. Float addition is not associative, and a bound that differs in
//! its last bit can fall on the other side of `δ − 1e-12`: one more or one fewer
//! pruned branch, a different partial-mapping count, in the worst case a different
//! answer. The running sum *is* that fold's prefix (pairs are in assignment order,
//! and `0.0 + x` is `x` for every similarity but a negative zero), and the bound loop
//! walks the open lists in the same order, so both hand
//! [`Objective::upper_bound_from_parts`] / [`Objective::delta_from_parts`] the same
//! bits — and those two are the very functions the from-scratch entry points end in.
//! `|E_t|` is an integer and needs no such care.

use std::time::Instant;

use crate::candidates::{CandidateSet, MappingElement};
use crate::counters::GeneratorCounters;
use crate::generator::{search_tree_parts, GenerationOutcome, MappingGenerator, TopMappings};
use crate::mapping::{SchemaMapping, SteinerRing};
use crate::objective::Objective;
use crate::problem::MatchingProblem;
use xsm_repo::SchemaRepository;
use xsm_schema::{NodeId, TreeLabeling};

/// Branch & Bound generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct BranchAndBoundConfig {
    /// Hard cap on the number of partial mappings to expand per single-tree scope;
    /// protects against pathological scopes. `u64::MAX` means unbounded (the default —
    /// the paper's generator is exhaustive above the threshold).
    pub max_partial_mappings: u64,
    /// When `false`, the bounding function is disabled and the search degenerates to
    /// exhaustive enumeration — the paper's "B&B tested 30 times less partial
    /// mappings" comparison; the tests and the generator oracle switch it off to hold
    /// the bounded search to the unbounded one.
    pub use_bounding: bool,
}

impl Default for BranchAndBoundConfig {
    fn default() -> Self {
        BranchAndBoundConfig {
            max_partial_mappings: u64::MAX,
            use_bounding: true,
        }
    }
}

/// The Branch & Bound schema-mapping generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBoundGenerator {
    config: BranchAndBoundConfig,
}

impl BranchAndBoundGenerator {
    /// Generator with default configuration (bounding on, no expansion cap).
    pub fn new() -> Self {
        Self::default()
    }

    /// Generator with an explicit configuration.
    pub fn with_config(config: BranchAndBoundConfig) -> Self {
        BranchAndBoundGenerator { config }
    }
}

impl MappingGenerator for BranchAndBoundGenerator {
    fn generate_single_tree(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
    ) -> GenerationOutcome {
        let mut sink = TopMappings::new(usize::MAX);
        let counters = self.search(problem, repo, scope, &mut sink);
        GenerationOutcome {
            mappings: sink.into_sorted(),
            counters,
        }
    }

    fn name(&self) -> &'static str {
        "branch-and-bound"
    }

    /// The same search as [`MappingGenerator::generate`], on the same parts; a
    /// retained mapping is built only if `sink` wants its score.
    fn generate_into(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
        sink: &mut TopMappings,
    ) -> GeneratorCounters {
        search_tree_parts(scope, |part| self.search(problem, repo, part, sink))
    }
}

impl BranchAndBoundGenerator {
    /// Search a single-tree scope, offering `sink` every retained mapping it wants.
    fn search(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
        sink: &mut TopMappings,
    ) -> GeneratorCounters {
        let start = Instant::now();
        let mut counters = GeneratorCounters {
            search_space: scope.search_space_size(),
            ..Default::default()
        };

        // A scope of several trees has no one labelling to search under;
        // `search_tree_parts` splits those before they get here.
        let tree_id = scope.sole_tree();
        debug_assert!(
            tree_id.is_some() || scope.total_candidates() == 0,
            "single-tree scope expected"
        );
        let labeling = tree_id.and_then(|tree| repo.labeling(tree));
        let (Some(labeling), true) = (labeling, scope.is_useful()) else {
            counters.elapsed = start.elapsed();
            return counters;
        };

        let nodes = scope.node_count();
        debug_assert!(
            (0..nodes).all(|i| scope
                .candidates_at(i)
                .windows(2)
                .all(|pair| pair[0].similarity >= pair[1].similarity)),
            "every candidate list descends by similarity"
        );

        // Most-constrained-first variable order, each list with where its
        // candidates' ring keys begin in `keys`.
        let mut order: Vec<(usize, usize)> = (0..nodes).map(|i| (i, 0)).collect();
        order.sort_by_key(|&(i, _)| scope.candidates_at(i).len());
        let mut begin = 0;
        for (i, start) in &mut order {
            *start = begin;
            begin += scope.candidates_at(*i).len();
        }
        let distances = SlotDistances::new(labeling, scope);
        let mut keys = Vec::with_capacity(scope.total_candidates());
        keys.extend(
            order
                .iter()
                .flat_map(|&(i, _)| scope.candidates_at(i))
                .map(|candidate| distances.key(candidate.repo.node)),
        );
        let slots = distances.slots.len();
        let objective = Objective::for_problem(problem);

        let mut search = Search {
            config: self.config,
            threshold: problem.threshold,
            scope,
            count_tail: self.config.use_bounding
                && objective.is_monotone()
                && distances.every_slot_is_labelled(),
            objective,
            order,
            keys,
            distances,
            best: (0..nodes)
                .map(|i| scope.candidates_at(i).first().map_or(0.0, |m| m.similarity))
                .collect(),
            assigned: vec![false; nodes],
            assignment: Vec::with_capacity(nodes),
            used: vec![false; slots],
            images: SteinerRing::with_capacity(nodes),
            sink,
            counters,
        };
        search.descend(0, 0.0);
        let mut counters = search.counters;
        counters.elapsed = start.elapsed();
        counters
    }
}

/// Above this many distinct images a scope's ring asks the labelling directly:
/// the memo would be `MEMO_MAX_IMAGES²` cells, 4 MiB.
const MEMO_MAX_IMAGES: usize = 1024;

/// The ring's distances between the slots of one scope (see the module docs).
struct SlotDistances<'a> {
    labeling: &'a TreeLabeling,
    /// Slot → (pre-order rank, node): the scope's distinct images in ascending
    /// node order, each rank read once.
    slots: Vec<(u32, NodeId)>,
    /// Row-major `m × m` for `m` slots: `distance + 1`, or 0 for a pair not asked
    /// yet. Empty above [`MEMO_MAX_IMAGES`] slots.
    memo: Vec<u32>,
}

impl<'a> SlotDistances<'a> {
    fn new(labeling: &'a TreeLabeling, scope: &CandidateSet) -> Self {
        let mut slots: Vec<(u32, NodeId)> = Vec::with_capacity(scope.total_candidates());
        slots.extend(scope.iter().map(|candidate| (0, candidate.repo.node)));
        slots.sort_unstable_by_key(|&(_, node)| node);
        slots.dedup_by_key(|&mut (_, node)| node);
        for (rank, node) in &mut slots {
            *rank = labeling.preorder_rank(*node).unwrap_or(u32::MAX);
        }
        let m = slots.len();
        let memo = if m <= MEMO_MAX_IMAGES {
            vec![0; m * m]
        } else {
            Vec::new()
        };
        SlotDistances {
            labeling,
            slots,
            memo,
        }
    }

    /// The ring key `(pre-order rank, slot)` of a node of the scope.
    fn key(&self, node: NodeId) -> (u32, u32) {
        let slot = self
            .slots
            .binary_search_by_key(&node, |&(_, n)| n)
            .expect("every image of the scope has a slot");
        (self.slots[slot].0, slot as u32)
    }

    /// Does the labelling know every image? Then every distance is a tree
    /// distance, and adding an image never shrinks `|E_t|`.
    fn every_slot_is_labelled(&self) -> bool {
        self.slots.iter().all(|&(rank, _)| rank != u32::MAX)
    }

    /// `distance(a, b)` as `steiner_edge_count` reads it — 0 where the labelling
    /// has none — asked of the labelling once per pair while the memo is on.
    #[inline]
    fn get(&mut self, a: u32, b: u32) -> u32 {
        let (a, b) = (a as usize, b as usize);
        let m = self.slots.len();
        if self.memo.is_empty() {
            return self.ask(a, b);
        }
        let cell = self.memo[a * m + b];
        if cell != 0 {
            return cell - 1;
        }
        let d = self.ask(a, b);
        self.memo[a * m + b] = d + 1;
        self.memo[b * m + a] = d + 1;
        d
    }

    fn ask(&self, a: usize, b: usize) -> u32 {
        self.labeling
            .distance(self.slots[a].1, self.slots[b].1)
            .unwrap_or(0)
    }
}

/// The search state of one single-tree scope (see the module docs): what is fixed
/// for the whole search, and the partial mapping the recursion currently stands on.
struct Search<'a> {
    config: BranchAndBoundConfig,
    threshold: f64,
    scope: &'a CandidateSet,
    objective: Objective,
    /// `(list index, where its candidates begin in keys)`, in the order the search
    /// assigns the lists.
    order: Vec<(usize, usize)>,
    /// The ring key `(pre-order rank, slot)` of every candidate, list after list
    /// in `order`.
    keys: Vec<(u32, u32)>,
    distances: SlotDistances<'a>,
    /// `best[i]`: the highest similarity list `i` offers (lists are sorted).
    best: Vec<f64>,
    /// `assigned[i]`: list `i` has an element in `assignment`, or is the inner list
    /// whose candidates the search is trying.
    assigned: Vec<bool>,
    /// The partial mapping, in assignment order.
    assignment: Vec<MappingElement>,
    /// `used[slot]`: the slot is an image of `assignment`.
    used: Vec<bool>,
    /// Whether the last list's sorted tail may be counted rather than visited:
    /// bounding is on, the score falls with the similarity and with `|E_t|`, and
    /// `|E_t|` never shrinks as an image is added.
    count_tail: bool,
    /// The slots of `assignment`'s images, for `|E_t|`.
    images: SteinerRing,
    /// Where complete mappings with `Δ ≥ δ` go, if it wants them.
    sink: &'a mut TopMappings,
    counters: GeneratorCounters,
}

impl Search<'_> {
    fn capped(&self) -> bool {
        self.counters.partial_mappings >= self.config.max_partial_mappings
    }

    /// Extend the partial mapping of `depth` elements, whose similarities sum to
    /// `similarity_sum`, in every way the bound allows.
    fn descend(&mut self, depth: usize, similarity_sum: f64) {
        let scope = self.scope;
        let (node_index, begin) = self.order[depth];
        let candidates = scope.candidates_at(node_index);
        if depth + 1 == self.order.len() {
            self.search_last_list(candidates, begin, similarity_sum);
            return;
        }
        self.assigned[node_index] = true;
        for (j, candidate) in candidates.iter().enumerate() {
            if self.capped() {
                break;
            }
            let (rank, slot) = self.keys[begin + j];
            if self.used[slot as usize] {
                continue;
            }
            // The partial mapping `assignment + candidate`, looked at from where the
            // search stands: nothing is changed for a branch that is cut.
            self.counters.partial_mappings += 1;
            let similarity_sum = similarity_sum + candidate.similarity;
            let edge_count = self
                .images
                .edge_count_with(rank, slot, |a, b| self.distances.get(a, b));
            if self.bound_is_below_threshold(similarity_sum, edge_count) {
                self.counters.pruned_branches += 1;
                continue;
            }
            if self.capped() {
                break;
            }
            self.assignment.push(*candidate);
            self.used[slot as usize] = true;
            self.images
                .insert(rank, slot, |a, b| self.distances.get(a, b));
            self.descend(depth + 1, similarity_sum);
            self.images
                .remove(rank, slot, |a, b| self.distances.get(a, b));
            self.used[slot as usize] = false;
            self.assignment.pop();
        }
        self.assigned[node_index] = false;
    }

    /// Is every completion of the partial mapping under examination — similarities
    /// summing to `similarity_sum`, images spanning `edge_count` edges, the lists
    /// marked `assigned` taken — out of δ's reach?
    fn bound_is_below_threshold(&self, similarity_sum: f64, edge_count: u32) -> bool {
        if !self.config.use_bounding {
            return false;
        }
        let mut bound_sum = similarity_sum;
        for (&best, &assigned) in self.best.iter().zip(&self.assigned) {
            if !assigned {
                bound_sum += best;
            }
        }
        let bound = self.objective.upper_bound_from_parts(bound_sum, edge_count);
        bound + 1e-12 < self.threshold
    }

    /// Try every candidate of the last list, whose ring keys begin at `begin`,
    /// on the partial mapping of all other lists, whose similarities sum to
    /// `similarity_sum` — exactly as [`Search::descend`] would, counters
    /// included. Each extension is complete, so its bound is its score, computed
    /// once. The candidates that would be pruned even at the partial mapping's own
    /// `|E_t|` are counted, not visited (see the module docs).
    fn search_last_list(
        &mut self,
        candidates: &[MappingElement],
        begin: usize,
        similarity_sum: f64,
    ) {
        let end = if self.count_tail {
            let edge_count = self.images.edge_count();
            candidates.partition_point(|candidate| {
                let score = self
                    .objective
                    .delta_from_parts(similarity_sum + candidate.similarity, edge_count);
                !self.prunes(score)
            })
        } else {
            candidates.len()
        };
        for (j, candidate) in candidates[..end].iter().enumerate() {
            if self.capped() {
                return;
            }
            let (rank, slot) = self.keys[begin + j];
            if self.used[slot as usize] {
                continue;
            }
            self.counters.partial_mappings += 1;
            let similarity_sum = similarity_sum + candidate.similarity;
            let edge_count = self
                .images
                .edge_count_with(rank, slot, |a, b| self.distances.get(a, b));
            let score = self.objective.delta_from_parts(similarity_sum, edge_count);
            if self.config.use_bounding && self.prunes(score) {
                self.counters.pruned_branches += 1;
                continue;
            }
            if self.capped() {
                return;
            }
            self.complete(candidate, score);
        }
        let tail = &self.keys[begin + end..begin + candidates.len()];
        let eligible = tail
            .iter()
            .filter(|&&(_, slot)| !self.used[slot as usize])
            .count() as u64;
        let room = self.config.max_partial_mappings - self.counters.partial_mappings;
        let counted = eligible.min(room);
        self.counters.partial_mappings += counted;
        self.counters.pruned_branches += counted;
    }

    /// Does the bound of a complete mapping scoring `score` cut it?
    #[inline]
    fn prunes(&self, score: f64) -> bool {
        self.objective.complete_bound(score) + 1e-12 < self.threshold
    }

    /// Count the complete mapping `assignment + last`, scoring `score`, as
    /// retained if `Δ ≥ δ`, and build it only if the sink wants it.
    fn complete(&mut self, last: &MappingElement, score: f64) {
        self.counters.complete_mappings += 1;
        if score >= self.threshold {
            self.counters.retained_mappings += 1;
            if self.sink.wants(score) {
                let mut pairs = Vec::with_capacity(self.assignment.len() + 1);
                pairs.extend_from_slice(&self.assignment);
                pairs.push(*last);
                self.sink.push(SchemaMapping::with_score(pairs, score));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{match_elements, ElementMatchConfig};
    use crate::generator::exhaustive::ExhaustiveGenerator;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::{SchemaNode, TreeBuilder};

    fn fig1_setup() -> (MatchingProblem, SchemaRepository, CandidateSet) {
        let problem = MatchingProblem::fig1_example();
        let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
        let scope = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.3),
        );
        (problem, repo, scope)
    }

    #[test]
    fn finds_the_fig1_mapping_as_top_result() {
        let (problem, repo, scope) = fig1_setup();
        let outcome = BranchAndBoundGenerator::new().generate(&problem, &repo, &scope);
        assert!(!outcome.mappings.is_empty(), "no mapping found");
        let best = &outcome.mappings[0];
        let tree = repo.tree(best.repo_tree().unwrap()).unwrap();
        let p_book = problem.personal.find_by_name("book").unwrap();
        let p_title = problem.personal.find_by_name("title").unwrap();
        let p_author = problem.personal.find_by_name("author").unwrap();
        assert_eq!(tree.name_of(best.image_of(p_book).unwrap().node), "book");
        assert_eq!(tree.name_of(best.image_of(p_title).unwrap().node), "title");
        assert_eq!(
            tree.name_of(best.image_of(p_author).unwrap().node),
            "authorName"
        );
        assert!(best.score >= problem.threshold);
        assert!(best.is_structurally_valid());
    }

    #[test]
    fn agrees_with_exhaustive_enumeration() {
        let (problem, repo, scope) = fig1_setup();
        let bb = BranchAndBoundGenerator::new().generate(&problem, &repo, &scope);
        let ex = ExhaustiveGenerator::new().generate(&problem, &repo, &scope);
        // Same retained mappings (same count, same scores) — B&B is exact.
        assert_eq!(bb.mappings.len(), ex.mappings.len());
        for (a, b) in bb.mappings.iter().zip(ex.mappings.iter()) {
            assert!((a.score - b.score).abs() < 1e-12);
            assert_eq!(a.repo_nodes(), b.repo_nodes());
        }
        // …with no more partial mappings than exhaustive search.
        assert!(bb.counters.partial_mappings <= ex.counters.partial_mappings);
        assert_eq!(bb.counters.search_space, ex.counters.search_space);
    }

    #[test]
    fn bounding_prunes_with_high_threshold() {
        let (mut problem, repo, scope) = fig1_setup();
        problem.threshold = 0.95;
        let bounded = BranchAndBoundGenerator::new().generate(&problem, &repo, &scope);
        let unbounded = BranchAndBoundGenerator::with_config(BranchAndBoundConfig {
            use_bounding: false,
            ..Default::default()
        })
        .generate(&problem, &repo, &scope);
        assert_eq!(bounded.mappings.len(), unbounded.mappings.len());
        assert!(bounded.counters.partial_mappings < unbounded.counters.partial_mappings);
        assert!(bounded.counters.pruned_branches > 0);
    }

    #[test]
    fn respects_partial_mapping_cap() {
        let (problem, repo, scope) = fig1_setup();
        let capped = BranchAndBoundGenerator::with_config(BranchAndBoundConfig {
            max_partial_mappings: 3,
            use_bounding: true,
        })
        .generate(&problem, &repo, &scope);
        assert!(capped.counters.partial_mappings <= 3 + scope.node_count() as u64);
    }

    #[test]
    fn empty_and_useless_scopes_produce_nothing() {
        let problem = MatchingProblem::fig1_example();
        let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
        let empty = CandidateSet::new(problem.personal_nodes());
        let outcome = BranchAndBoundGenerator::new().generate(&problem, &repo, &empty);
        assert!(outcome.mappings.is_empty());
        assert_eq!(outcome.counters.partial_mappings, 0);
    }

    #[test]
    fn injectivity_is_enforced() {
        // A repository tree with a single strong candidate forces collision: two
        // personal nodes both want the one "name" node, so no complete mapping exists
        // unless a second (weaker) candidate exists and injectivity steers to it.
        let personal = TreeBuilder::new("p")
            .root(SchemaNode::element("person"))
            .child(SchemaNode::element("name"))
            .sibling(SchemaNode::element("name"))
            .build();
        let repo_tree = TreeBuilder::new("r")
            .root(SchemaNode::element("person"))
            .child(SchemaNode::element("name"))
            .sibling(SchemaNode::element("nickname"))
            .build();
        let problem =
            MatchingProblem::new(personal, crate::objective::ObjectiveConfig::default(), 0.0);
        let repo = SchemaRepository::from_trees(vec![repo_tree]);
        let scope = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.2),
        );
        let outcome = BranchAndBoundGenerator::new().generate(&problem, &repo, &scope);
        for m in &outcome.mappings {
            assert!(m.is_structurally_valid(), "duplicate repo node used");
        }
        assert!(!outcome.mappings.is_empty());
    }

    #[test]
    fn all_retained_mappings_meet_threshold_and_are_sorted() {
        let (problem, repo, scope) = fig1_setup();
        let outcome = BranchAndBoundGenerator::new().generate(&problem, &repo, &scope);
        let mut prev = f64::INFINITY;
        for m in &outcome.mappings {
            assert!(m.score >= problem.threshold);
            assert!(m.score <= prev + 1e-12);
            prev = m.score;
            assert!(m.is_complete_for(&problem.personal_nodes()));
        }
        assert_eq!(
            outcome.counters.retained_mappings as usize,
            outcome.mappings.len()
        );
        assert!(outcome.counters.complete_mappings >= outcome.counters.retained_mappings);
    }
}
