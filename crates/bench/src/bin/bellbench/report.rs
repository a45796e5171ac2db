//! The metric registry, the result files, and `list` / `diff`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far a median may move the wrong way before `diff` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the first file's value.
    Relative(f64),
    /// An absolute amount, for a ratio whose healthy value is 0.
    Absolute(f64),
    /// Counted, not timed: must repeat, whatever the seed.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `None` for per-layer metrics, which explain and are not gated.
    pub bound: Option<Bound>,
    /// Whether `BENCHMARK.json` lists it for the benchmark driver: only
    /// metrics that every workload reports and that are never 0.
    pub in_contract: bool,
    /// Which workloads report it.
    pub on: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    in_contract: bool,
    on: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        in_contract,
        on,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        in_contract: false,
        on: "",
    }
}

use Better::{Higher, Lower};
use Bound::{Absolute, Exact, Relative};

/// What a user of the served system sees. The timed bounds are what the
/// builder's two-core sandbox can resolve. Over three sets of ten 20 s runs
/// with different seeds, the worst interquartile spread of a metric on any
/// workload was 9.0 % (`throughput_qps`), 8.8 % (`query_p50_ms`) and 10.7 %
/// (`query_p95_ms`) — in the calmest set 4.4, 3.3 and 3.3 % — and the medians
/// of two sets twenty minutes apart differed by up to 8 %: the host's speed
/// drifts by that much, whole runs at a time (the passes of one run agree
/// with each other; medians over passes spread as the whole run does). The
/// driver rejects a benchmark whose spread exceeds the bound and asks for a
/// spread below a third of it, so each timed bound is three times the worst
/// spread seen, but at most the 25 % the driver allows — which is what all of
/// them come to. In hours when the host's neighbours took 8 to 15 % of the
/// processors (steal time; each run notes what it saw) the spreads were 30 to
/// 60 %, which no bound can absorb.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, Relative(0.25), true, "all"),
    e2e("setup_rss_mb", "MB", Lower, Relative(0.05), true, "all"),
    e2e("throughput_qps", "1/s", Higher, Relative(0.25), true, "all"),
    e2e("query_p50_ms", "ms", Lower, Relative(0.25), true, "all"),
    e2e("query_p95_ms", "ms", Lower, Relative(0.25), true, "all"),
    e2e("query_p99_ms", "ms", Lower, Relative(0.25), false, "all"),
    e2e(
        "failed_ratio",
        "ratio",
        Lower,
        Absolute(0.001),
        false,
        "all",
    ),
    e2e(
        "mappings_preserved_ratio",
        "ratio",
        Higher,
        Exact,
        true,
        "all",
    ),
    e2e(
        "search_space_reduction",
        "ratio",
        Higher,
        Exact,
        true,
        "all",
    ),
    e2e(
        "mutation_p50_ms",
        "ms",
        Lower,
        Relative(0.25),
        false,
        "live_100k",
    ),
    e2e(
        "mutation_p99_ms",
        "ms",
        Lower,
        Relative(0.25),
        false,
        "live_100k",
    ),
    e2e("restart_s", "s", Lower, Relative(0.25), true, "all"),
    // Counted, but `live_100k` snapshots an engine that holds as many
    // tombstones as the time allowed mutation batches: within 1 % there.
    e2e(
        "snapshot_bytes_per_schema_byte",
        "ratio",
        Lower,
        Relative(0.05),
        true,
        "all",
    ),
    e2e("peak_rss_mb", "MB", Lower, Relative(0.05), false, "all"),
];

/// The share `BENCHMARK.json` gives an exact metric: the driver knows shares
/// only, and wants a spread to stay below its bound. The exact metrics repeat
/// bit for bit, so any share holds them; this one lets a thousandth of the
/// paper's trade go before a change is rejected.
pub const EXACT_SHARE: f64 = 0.001;

/// Where the time and the work went, per layer (means per query unless the
/// unit says otherwise). A traced run reports those its workload exercises.
pub const PER_LAYER: &[MetricDef] = &[
    layer("schema.parse_s", "s", Lower),
    layer("schema.parse_mb_per_s", "MB/s", Higher),
    layer("repo.index_build_s", "s", Lower),
    layer("repo.resolve_us", "us", Lower),
    layer("repo.lookup_us", "us", Lower),
    layer("repo.lookup_returned", "count", Lower),
    layer("repo.lookup_examined_per_returned", "ratio", Lower),
    layer("repo.lookup_window_skip_ratio", "ratio", Higher),
    layer("repo.positional_reject_ratio", "ratio", Higher),
    layer("repo.append_ms", "ms", Lower),
    layer("repo.delete_ms", "ms", Lower),
    layer("repo.compact_ms", "ms", Lower),
    layer("repo.compactions", "count", Lower),
    layer("repo.dead_posting_fraction_max", "ratio", Lower),
    layer("repo.snapshot_write_s", "s", Lower),
    layer("repo.snapshot_load_s", "s", Lower),
    layer("repo.snapshot_bytes", "bytes", Lower),
    layer("similarity.verify_ns_per_pair", "ns", Lower),
    layer("similarity.pairs_verified", "count", Lower),
    layer("similarity.long_name_ratio", "ratio", Lower),
    layer("matcher.element_match_us", "us", Lower),
    layer("matcher.mapping_elements", "count", Lower),
    layer("matcher.verify_pass_ratio", "ratio", Higher),
    layer("matcher.generate_us", "us", Lower),
    layer("matcher.partial_mappings", "count", Lower),
    layer("matcher.pruned_branches", "count", Higher),
    layer("matcher.retained_mappings", "count", Higher),
    layer("matcher.search_space_log10", "log10", Lower),
    layer("matcher.sort_cut_us", "us", Lower),
    layer("core.kmeans_us", "us", Lower),
    layer("core.kmeans_iterations", "count", Lower),
    layer("core.clusters_formed", "count", Lower),
    layer("core.useful_cluster_ratio", "ratio", Higher),
    layer("core.scope_us", "us", Lower),
    layer("core.pipeline_self_us", "us", Lower),
    layer("service.plan_us", "us", Lower),
    layer("service.plan_pruned_ratio", "ratio", Higher),
    layer("service.fingerprint_us", "us", Lower),
    layer("service.engine_overhead_us", "us", Lower),
    layer("service.cache_hit_ratio", "ratio", Higher),
    layer("service.coalesced_ratio", "ratio", Higher),
    layer("service.cache_hit_us", "us", Lower),
    layer("service.queue_wait_p99_ms", "ms", Lower),
    layer("service.gen_late_p99_ms", "ms", Lower),
    layer("service.backlog_end", "count", Lower),
    layer("service.slo_rate_qps", "1/s", Higher),
    layer("service.shard.router_tax_us", "us", Lower),
    layer("service.net.wire_tax_us", "us", Lower),
    layer("service.net.encode_us", "us", Lower),
    layer("service.net.decode_us", "us", Lower),
    layer("service.net.frame_us", "us", Lower),
    layer("service.net.request_bytes", "bytes", Lower),
    layer("service.net.response_bytes", "bytes", Lower),
    layer("service.mutation_gate_ms", "ms", Lower),
    layer("trace.inline_us", "us", Lower),
    layer("trace.replay_us", "us", Lower),
    layer("trace.overhead_us", "us", Lower),
    layer("trace.stage_coverage", "ratio", Higher),
];

/// The end-to-end metrics of the driver's contract. Left out: `failed_ratio`
/// (healthy at 0; it travels as the contract's `failed` / `attempted`), the
/// mutation latencies (one workload only), `query_p99_ms` (`query_p95_ms`
/// is the steadier tail) and `peak_rss_mb` (on `wide_match` it is the chance
/// meeting of two clients' largest result lists: 290 to 420 MB over ten
/// seeds; `setup_rss_mb` is the memory metric that repeats).
pub fn in_contract() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().filter(|m| m.in_contract)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Metric values by registry name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"name": {"value": v, "unit": u}, …}` for the `defs` that have a value;
/// `fill` supplies the value of those that do not (the driver's contract
/// wants every per-layer metric on every traced run).
pub fn metrics_json<'a>(
    defs: impl Iterator<Item = &'a MetricDef>,
    values: &Values,
    fill: Option<f64>,
) -> String {
    let mut out = String::from("{");
    for def in defs {
        let Some(value) = values.get(def.name).copied().or(fill) else {
            continue;
        };
        if out.len() > 1 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            number(value),
            def.unit
        );
    }
    out.push('}');
    out
}

/// A JSON number with all the digits measured (`NaN`/∞ cannot be written).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

pub fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ------------------------------------------------------------------ JSON --

/// Just enough JSON to read the benchmark's own result files back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_space();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing bytes at offset {}", parser.at));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                loop {
                    self.skip_space();
                    if self.bytes.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() {
                        self.expect(b',')?;
                        self.skip_space();
                    }
                    let key = self.string()?;
                    self.skip_space();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_space();
                    if self.bytes.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(b',')?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.at + 1).ok_or("dangling escape")?;
                    self.at += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&byte) => {
                    out.push(byte);
                    self.at += 1;
                }
            }
        }
    }
}

// ------------------------------------------------------------------ diff --

/// One compared metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Improved,
    Regressed,
    /// Exact metrics of runs with different seeds or scales say nothing.
    NotComparable,
}

/// Is `second` worse than `first` by more than `bound` allows?
pub fn judge(def: &MetricDef, first: f64, second: f64, comparable_exactly: bool) -> Verdict {
    let worse_by = match def.better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    match def.bound.expect("only end-to-end metrics are judged") {
        Bound::Exact if !comparable_exactly => Verdict::NotComparable,
        Bound::Exact if first == second => Verdict::Within,
        Bound::Exact if worse_by < 0.0 => Verdict::Improved,
        Bound::Exact => Verdict::Regressed,
        Bound::Relative(share) if worse_by > share * first.abs() => Verdict::Regressed,
        Bound::Absolute(amount) if worse_by > amount => Verdict::Regressed,
        Bound::Relative(share) if -worse_by > share * first.abs() => Verdict::Improved,
        _ => Verdict::Within,
    }
}

/// Compare two result files of `bellbench run`. Returns the rows, the
/// checksum comparisons, and whether anything regressed.
pub fn diff(first: &Json, second: &Json) -> Result<(Vec<DiffRow>, Vec<String>, bool), String> {
    let same_inputs = ["seed", "scale"].iter().all(|key| {
        let of = |file: &Json| file.get("meta").and_then(|m| m.get(key)).cloned();
        of(first) == of(second)
    });
    let workloads = |file: &'_ Json| -> Vec<Json> {
        file.get("workloads")
            .map(|w| w.as_array().to_vec())
            .unwrap_or_default()
    };
    let second_by_name: BTreeMap<String, Json> = workloads(second)
        .into_iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?.to_string(), w)))
        .collect();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut regressed = false;
    for a in workloads(first) {
        let name = a
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?
            .to_string();
        let Some(b) = second_by_name.get(&name) else {
            notes.push(format!("{name}: missing from the second file"));
            regressed = true;
            continue;
        };
        for def in END_TO_END {
            let value = |w: &Json| {
                w.get("metrics")?
                    .get(def.name)?
                    .get("value")
                    .and_then(Json::as_f64)
            };
            let Some(x) = value(&a) else {
                continue;
            };
            let Some(y) = value(b) else {
                notes.push(format!("{name}: {} missing from the second file", def.name));
                regressed = true;
                continue;
            };
            let verdict = judge(def, x, y, same_inputs);
            regressed |= verdict == Verdict::Regressed;
            rows.push(DiffRow {
                workload: name.clone(),
                metric: def.name.to_string(),
                first: x,
                second: y,
                verdict,
            });
        }
        let checksum = |w: &Json| {
            w.get("answers_checksum")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        match (checksum(&a), checksum(b)) {
            (Some(x), Some(y)) if !same_inputs => notes.push(format!(
                "{name}: answers_checksum {x} vs {y} (different inputs)"
            )),
            (Some(x), Some(y)) if x == y => {
                notes.push(format!("{name}: answers_checksum {x} identical"))
            }
            (x, y) => {
                notes.push(format!("{name}: answers_checksum DIFFERS: {x:?} vs {y:?}"));
                regressed = true;
            }
        }
    }
    Ok((rows, notes, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(in_contract().all(|m| m.on == "all"));
        let share = |m: &MetricDef| match m.bound {
            Some(Bound::Relative(share)) => share,
            Some(Bound::Exact) => EXACT_SHARE,
            other => panic!("{} has no share to give the driver: {other:?}", m.name),
        };
        let widest = in_contract().map(share).fold(0.0, f64::max);
        assert!(widest <= 0.25);
        assert_eq!(share(end_to_end("setup_s").unwrap()), widest);
    }

    #[test]
    fn benchmark_json_repeats_the_registry() {
        let file = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            file.get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                        m.get("better").unwrap().as_str().unwrap().to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let expected_e2e: Vec<_> = in_contract()
            .map(|m| {
                let share = match m.bound {
                    Some(Bound::Relative(share)) => share,
                    _ => EXACT_SHARE,
                };
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    Some(share),
                )
            })
            .collect();
        assert_eq!(listed("end_to_end"), expected_e2e);
        let expected_layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed("per_layer"), expected_layers);
        let workloads: Vec<&str> = file
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let own: Vec<&str> = crate::workloads::WORKLOADS
            .iter()
            .filter(|w| w.in_contract)
            .map(|w| w.name)
            .collect();
        assert_eq!(workloads, own);
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }

    /// Cargo has no way to inherit a profile across workspaces, and the two
    /// builds of these files must measure the same code generation.
    #[test]
    fn own_manifest_repeats_the_workspace_release_profile() {
        let release_profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|line| line.trim() != "[profile.release]")
                .skip(1)
                .take_while(|line| !line.starts_with('['))
                .map(str::trim)
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let root = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), root);
    }

    #[test]
    fn json_round_trips_the_shapes_the_benchmark_writes() {
        let text = r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y\n"}, "d": []}"#;
        let json = Json::parse(text).unwrap();
        assert_eq!(json.get("a").unwrap().as_array()[1], Json::Num(-2500.0));
        assert_eq!(
            json.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\n")
        );
        assert!(json.get("d").unwrap().as_array().is_empty());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert_eq!(
            Json::parse(&quoted("tab\there \"q\"")).unwrap(),
            Json::Str("tab\there \"q\"".to_string())
        );
        let mut values = Values::new();
        values.insert("setup_s", 0.25);
        let line = metrics_json(END_TO_END.iter(), &values, None);
        assert_eq!(line, r#"{"setup_s": {"value": 0.25, "unit": "s"}}"#);
        assert!(Json::parse(&metrics_json(PER_LAYER.iter(), &values, Some(0.0))).is_ok());
    }

    #[test]
    fn judge_applies_direction_and_bound() {
        let p50 = end_to_end("query_p50_ms").unwrap();
        assert_eq!(judge(p50, 1.0, 1.2, true), Verdict::Within);
        assert_eq!(judge(p50, 1.0, 1.3, true), Verdict::Regressed);
        assert_eq!(judge(p50, 1.0, 0.7, true), Verdict::Improved);
        let qps = end_to_end("throughput_qps").unwrap();
        assert_eq!(judge(qps, 1000.0, 800.0, true), Verdict::Within);
        assert_eq!(judge(qps, 1000.0, 700.0, true), Verdict::Regressed);
        assert_eq!(judge(qps, 1000.0, 1300.0, true), Verdict::Improved);
        let failed = end_to_end("failed_ratio").unwrap();
        assert_eq!(judge(failed, 0.0, 0.0005, true), Verdict::Within);
        assert_eq!(judge(failed, 0.0, 0.002, true), Verdict::Regressed);
        let exact = end_to_end("search_space_reduction").unwrap();
        assert_eq!(judge(exact, 12.5, 12.5, true), Verdict::Within);
        assert_eq!(judge(exact, 12.5, 12.4, true), Verdict::Regressed);
        assert_eq!(judge(exact, 12.5, 12.6, true), Verdict::Improved);
        assert_eq!(judge(exact, 12.5, 12.4, false), Verdict::NotComparable);
    }

    #[test]
    fn diff_flags_regressions_and_checksum_changes() {
        let file = |p50: f64, checksum: &str| {
            Json::parse(&format!(
                r#"{{"meta": {{"seed": 1, "scale": "full"}}, "workloads": [{{"name": "w",
                "answers_checksum": "{checksum}",
                "metrics": {{"query_p50_ms": {{"value": {p50}, "unit": "ms"}}}}}}]}}"#
            ))
            .unwrap()
        };
        let (rows, _, regressed) = diff(&file(1.0, "a"), &file(1.01, "a")).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(!regressed);
        assert!(diff(&file(1.0, "a"), &file(1.4, "a")).unwrap().2);
        assert!(diff(&file(1.0, "a"), &file(1.0, "b")).unwrap().2);
        let without = Json::parse(
            r#"{"meta": {"seed": 1, "scale": "full"}, "workloads": [{"name": "w",
            "answers_checksum": "a", "metrics": {}}]}"#,
        )
        .unwrap();
        assert!(diff(&file(1.0, "a"), &without).unwrap().2);
        assert!(!diff(&without, &file(1.0, "a")).unwrap().2);
    }
}
