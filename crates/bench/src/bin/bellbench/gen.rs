//! Seeded input generation: every corpus, query stream, mutation batch and
//! arrival schedule derives from `seed=` here, and the program under test
//! sees only the generated inputs.

use std::collections::HashSet;

use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository};
use xsm_schema::{Cardinality, NodeId, NodeKind, SchemaNode, SchemaTree, TreeId};
use xsm_service::MatchQuery;

/// SplitMix64: small, seedable, and good enough to drive workload shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent generator for one named purpose, so adding a consumer
    /// never shifts the numbers another consumer draws.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut base = Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng::new(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `(0, 1]`, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s`, by inverse CDF.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Poisson arrivals at `rate_per_s` over `duration_s`: due times in
/// nanoseconds from the start of the rung, ascending.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, duration_s: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// The XSD parser spends three levels of its expansion budget per tree level,
/// so deeper trees would come back truncated; the generator is capped here so
/// the written documents and the parsed repository hold the same nodes.
pub fn max_tree_depth() -> u32 {
    (xsm_schema::parser::MAX_EXPANSION_DEPTH / 3) as u32
}

/// One XSD document per tree of a synthetic forest; the documents are what
/// enters the program (through `xsm_repo::corpus::load_documents`).
pub struct Corpus {
    pub docs: Vec<(String, String)>,
    pub bytes: usize,
}

impl Corpus {
    pub fn generate(seed: u64, elements: usize) -> Self {
        let docs: Vec<(String, String)> = generate_forest(seed, elements)
            .trees()
            .map(|(id, tree)| (format!("tree-{:06}.xsd", id.0), write_xsd(tree)))
            .collect();
        let bytes = docs.iter().map(|(_, content)| content.len()).sum();
        Corpus { docs, bytes }
    }

    pub fn doc_refs(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.docs.iter().map(|(n, c)| (n.as_str(), c.as_str()))
    }
}

pub fn generate_forest(seed: u64, elements: usize) -> SchemaRepository {
    let mut config = GeneratorConfig::paper_default()
        .with_seed(seed)
        .with_target_elements(elements);
    config.max_depth = max_tree_depth();
    RepositoryGenerator::new(config).generate()
}

/// Serialize a tree as an XSD document the repository's parser reads back to
/// the same shape. Valid XSD puts a type's attributes after its particle, so
/// within one parent the parsed order is element children, then attributes.
pub fn write_xsd(tree: &SchemaTree) -> String {
    let mut out = String::with_capacity(tree.len() * 64 + 128);
    out.push_str("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n");
    if let Some(root) = tree.root() {
        write_element(tree, root, true, &mut out);
    }
    out.push_str("</xs:schema>\n");
    out
}

fn write_element(tree: &SchemaTree, id: NodeId, is_root: bool, out: &mut String) {
    let node = tree.node(id).expect("ids come from the tree");
    out.push_str("<xs:element name=\"");
    push_escaped(&node.name, out);
    out.push('"');
    if !is_root {
        if node.cardinality.optional() {
            out.push_str(" minOccurs=\"0\"");
        }
        if node.cardinality.repeatable() {
            out.push_str(" maxOccurs=\"unbounded\"");
        }
    }
    let children = tree.children(id);
    if children.is_empty() {
        // A `type=` on an element stops the parser's expansion, so only
        // leaves carry their datatype.
        if let Some(datatype) = node.datatype {
            out.push_str(" type=\"xs:");
            out.push_str(datatype.xsd_name());
            out.push('"');
        }
        out.push_str("/>\n");
        return;
    }
    out.push_str(">\n<xs:complexType>\n");
    let is_attribute = |c: &NodeId| tree.node(*c).map(|n| n.kind) == Some(NodeKind::Attribute);
    if children.iter().any(|c| !is_attribute(c)) {
        out.push_str("<xs:sequence>\n");
        for &child in children.iter().filter(|c| !is_attribute(c)) {
            write_element(tree, child, false, out);
        }
        out.push_str("</xs:sequence>\n");
    }
    for &child in children.iter().filter(|c| is_attribute(c)) {
        let attr = tree.node(child).expect("ids come from the tree");
        out.push_str("<xs:attribute name=\"");
        push_escaped(&attr.name, out);
        out.push_str("\" type=\"xs:");
        out.push_str(attr.datatype.map_or("string", |t| t.xsd_name()));
        out.push('"');
        if attr.cardinality == Cardinality::One {
            out.push_str(" use=\"required\"");
        }
        out.push_str("/>\n");
    }
    out.push_str("</xs:complexType>\n</xs:element>\n");
}

fn push_escaped(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// The pre-order names a tree has after a trip through [`write_xsd`] and the
/// parser: element children before attribute children under every parent.
#[cfg(test)]
fn written_preorder_names(tree: &SchemaTree) -> Vec<String> {
    fn walk(tree: &SchemaTree, id: NodeId, out: &mut Vec<String>) {
        out.push(tree.name_of(id).to_string());
        let is_attribute = |c: &NodeId| tree.node(*c).map(|n| n.kind) == Some(NodeKind::Attribute);
        for &child in tree.children(id).iter().filter(|c| !is_attribute(c)) {
            walk(tree, child, out);
        }
        for &child in tree.children(id).iter().filter(|c| is_attribute(c)) {
            walk(tree, child, out);
        }
    }
    let mut out = Vec::with_capacity(tree.len());
    if let Some(root) = tree.root() {
        walk(tree, root, &mut out);
    }
    out
}

/// A personal schema described by position: a repository node plus distinct
/// descendants, and which of its names get one appended character. Kept this
/// small so a stream of a hundred thousand queries costs a few megabytes, and
/// the `MatchQuery` is built by the client just before it is sent.
#[derive(Debug, Clone, Copy)]
pub struct Fragment {
    tree: u32,
    /// Pre-order positions inside the tree, ascending; the first is the root
    /// of the fragment.
    positions: [u32; MAX_FRAGMENT_NODES],
    /// `0` leaves the name alone; otherwise the byte appended to it.
    suffix: [u8; MAX_FRAGMENT_NODES],
    len: u8,
}

pub const MAX_FRAGMENT_NODES: usize = 5;

/// Pre-order layout of every tree of the corpus of record, from which
/// connected fragments are drawn.
pub struct FragmentSource {
    trees: Vec<TreeLayout>,
}

struct TreeLayout {
    preorder: Vec<NodeId>,
    /// Size of the subtree rooted at each pre-order position.
    subtree: Vec<u32>,
}

impl FragmentSource {
    pub fn new(repo: &SchemaRepository) -> Self {
        let trees = repo
            .trees()
            .map(|(_, tree)| {
                let preorder = tree.preorder();
                let depths: Vec<u32> = preorder.iter().map(|&n| tree.depth(n)).collect();
                let mut subtree = vec![1u32; preorder.len()];
                for i in (0..preorder.len()).rev() {
                    let mut j = i + 1;
                    while j < preorder.len() && depths[j] > depths[i] {
                        j += subtree[j] as usize;
                    }
                    subtree[i] = (j - i) as u32;
                }
                TreeLayout { preorder, subtree }
            })
            .collect();
        FragmentSource { trees }
    }

    /// `count` fragments of `nodes` nodes each, no two of which build queries
    /// with the same fingerprint. Every 4th name drawn is perturbed: random
    /// unrelated names would find no mappings and never reach the generator,
    /// exact names would never exercise the fuzzy kernels.
    pub fn distinct_fragments(
        &self,
        repo: &SchemaRepository,
        rng: &mut Rng,
        count: usize,
        nodes: usize,
    ) -> Vec<Fragment> {
        assert!((1..=MAX_FRAGMENT_NODES).contains(&nodes));
        let eligible: Vec<(u32, u32)> = self
            .trees
            .iter()
            .enumerate()
            .flat_map(|(t, layout)| {
                layout
                    .subtree
                    .iter()
                    .enumerate()
                    .filter(move |(_, &size)| size as usize >= nodes)
                    .map(move |(pos, _)| (t as u32, pos as u32))
            })
            .collect();
        assert!(
            !eligible.is_empty(),
            "corpus has no node with {nodes} nodes below it"
        );
        let mut seen: HashSet<String> = HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        let mut names_drawn = 0u64;
        let mut attempts = 0usize;
        while out.len() < count {
            attempts += 1;
            assert!(
                attempts < count * 50 + 1000,
                "corpus too small for {count} distinct {nodes}-node fragments"
            );
            let (tree, root) = eligible[rng.below(eligible.len() as u64) as usize];
            let span = self.trees[tree as usize].subtree[root as usize];
            let mut positions = [0u32; MAX_FRAGMENT_NODES];
            positions[0] = root;
            let mut filled = 1;
            while filled < nodes {
                let candidate = root + 1 + rng.below(u64::from(span) - 1) as u32;
                if !positions[..filled].contains(&candidate) {
                    positions[filled] = candidate;
                    filled += 1;
                }
            }
            positions[..nodes].sort_unstable();
            let mut suffix = [0u8; MAX_FRAGMENT_NODES];
            for slot in suffix.iter_mut().take(nodes) {
                names_drawn += 1;
                if names_drawn % 4 == 0 {
                    *slot = b'a' + rng.below(26) as u8;
                }
            }
            let fragment = Fragment {
                tree,
                positions,
                suffix,
                len: nodes as u8,
            };
            if seen.insert(self.shape_key(repo, &fragment)) {
                out.push(fragment);
            }
        }
        out
    }

    /// The part of `MatchQuery::fingerprint` that varies inside one stream.
    fn shape_key(&self, repo: &SchemaRepository, fragment: &Fragment) -> String {
        let personal = self.personal_schema(repo, fragment);
        let mut key = String::new();
        for node in personal.preorder() {
            key.push_str(&format!(
                "{}:{};",
                personal.depth(node),
                personal.name_of(node)
            ));
        }
        key
    }

    /// The fragment as a personal schema: its first node is the root, and
    /// every other node hangs below its nearest chosen ancestor.
    pub fn personal_schema(&self, repo: &SchemaRepository, fragment: &Fragment) -> SchemaTree {
        let tree_id = TreeId(fragment.tree);
        let source = repo.tree(tree_id).expect("fragments index the corpus");
        let layout = &self.trees[fragment.tree as usize];
        let mut personal = SchemaTree::new("personal");
        // (end of the chosen node's subtree in pre-order, its personal id)
        let mut open: Vec<(u32, NodeId)> = Vec::with_capacity(fragment.len as usize);
        for i in 0..fragment.len as usize {
            let pos = fragment.positions[i];
            let mut name = source.name_of(layout.preorder[pos as usize]).to_string();
            if fragment.suffix[i] != 0 {
                name.push(fragment.suffix[i] as char);
            }
            while open.last().is_some_and(|&(end, _)| pos >= end) {
                open.pop();
            }
            let id = match open.last() {
                None => personal.add_root(SchemaNode::element(name)),
                Some(&(_, parent)) => personal.add_child(parent, SchemaNode::element(name)),
            }
            .expect("a fragment's first node is an ancestor of the rest");
            open.push((pos + layout.subtree[pos as usize], id));
        }
        personal
    }

    pub fn query(
        &self,
        repo: &SchemaRepository,
        fragment: &Fragment,
        threshold: f64,
        top_k: usize,
    ) -> MatchQuery {
        MatchQuery::new(self.personal_schema(repo, fragment))
            .with_top_k(top_k)
            .with_threshold(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_repo::corpus::load_documents;

    #[test]
    fn rng_is_deterministic_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::fork(seed, 1);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut a = Rng::fork(7, 1);
        let mut b = Rng::fork(7, 2);
        assert_ne!(a.next_u64(), b.next_u64(), "streams are independent");
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(5) < 5);
            let u = rng.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let zipf = ZipfSampler::new(100, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        assert!(a.iter().all(|&r| r < 100));
        let head = a.iter().filter(|&&r| r == 0).count();
        let tail = a.iter().filter(|&&r| r == 99).count();
        // Rank 1 carries 1/H(100) ≈ 19 % of the mass, rank 100 a hundredth of that.
        assert!(head > 250 && head < 550, "rank-1 draws: {head}");
        assert!(tail < 30, "rank-100 draws: {tail}");
    }

    #[test]
    fn poisson_schedule_is_deterministic_ascending_and_near_its_rate() {
        let draw = |seed| poisson_schedule(&mut Rng::new(seed), 1000.0, 2.0);
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().copied().unwrap_or(0) < 2_000_000_000);
        assert!((1800..2200).contains(&a.len()), "arrivals: {}", a.len());
    }

    #[test]
    fn written_documents_parse_back_to_the_same_forest() {
        let forest = generate_forest(2006, 1500);
        let corpus = Corpus::generate(2006, 1500);
        assert_eq!(corpus.docs.len(), forest.tree_count());
        let (parsed, report) = load_documents(corpus.doc_refs());
        assert!(
            report.skipped_files.is_empty(),
            "{:?}",
            report.skipped_files
        );
        assert_eq!(parsed.tree_count(), forest.tree_count());
        assert_eq!(parsed.total_nodes(), forest.total_nodes());
        for ((_, written), (_, read)) in forest.trees().zip(parsed.trees()) {
            let names: Vec<String> = read
                .preorder()
                .iter()
                .map(|&n| read.name_of(n).to_string())
                .collect();
            assert_eq!(names, written_preorder_names(written));
        }
    }

    #[test]
    fn fragment_streams_are_deterministic_connected_and_duplicate_free() {
        let corpus = Corpus::generate(2006, 1500);
        let (repo, _) = load_documents(corpus.doc_refs());
        let source = FragmentSource::new(&repo);
        let stream = |seed| {
            source
                .distinct_fragments(&repo, &mut Rng::fork(seed, 3), 400, 3)
                .iter()
                .map(|f| source.query(&repo, f, 0.75, 10).fingerprint())
                .collect::<Vec<_>>()
        };
        let a = stream(1);
        assert_eq!(a, stream(1));
        assert_ne!(a, stream(2));
        let unique: HashSet<&String> = a.iter().collect();
        assert_eq!(unique.len(), a.len(), "duplicate fingerprints in a stream");

        for fragment in source.distinct_fragments(&repo, &mut Rng::new(9), 50, 5) {
            let personal = source.personal_schema(&repo, &fragment);
            assert_eq!(personal.len(), 5);
            assert!(personal.validate().is_ok());
        }
    }
}
