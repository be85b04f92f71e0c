//! The content-key pin. Every semantic-cache key of the simulated LLM is
//! a function of the call's determinants; a change to how a key is built
//! (streamed, from memoized label hashes) must leave every key, and so
//! every stored cache entry, where it was.
//!
//! * `fixtures/content_keys.jsonl` holds the keys of 2,400 generated
//!   `(model, task, subject)` cases, written by the key code before the
//!   streamed hasher and the label memo existed; every line must come out
//!   again.
//! * `fixtures/semcache_parent.snap` is a cache snapshot saved by that
//!   same code after answering every fourth case; it must load, and every
//!   one of those cases must hit it.
//! * [`KeyHasher`] must fold any part stream like the two-lane fold
//!   `CacheKey::from_parts` had (kept below as `parent_from_parts`).
//! * A label added to a clone invalidates the memoized label hashes it
//!   carries, and a record that does not share its document's text is
//!   still keyed by that document's labels.

use aida_data::{Document, Record, Value};
use aida_llm::cache::KeyHasher;
use aida_llm::{CacheKey, LlmTask, ModelId, SemanticCache, SimLlm, Subject};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// The pinned cases: five task shapes × six subject constructors, over
/// three models and five simulator seeds, with documents whose labels use
/// every `Value` variant (nested and empty lists, NaN, ±0.0, the `i64`
/// extremes) and label maps from empty to six entries.
const CASES: usize = 2400;
const SEEDS: [u64; 5] = [0, 1, 7, 42, u64::MAX];
const SHAPES: [&str; 5] = ["filter", "extract", "map", "choose", "freeform"];
const SUBJECTS: [&str; 6] = [
    "doc",
    "record_shared",
    "record_copy",
    "record_slim",
    "record_orphan",
    "text_only",
];

/// SplitMix64, so the cases do not depend on any crate under test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

const WORDS: &[&str] = &[
    "",
    "identity",
    "theft",
    "Reports",
    "2001",
    "86250",
    "pipeline",
    "é",
    "naïve café",
    "a,b",
    "\t",
    "line\nbreak",
    "&amp;",
];
const LABEL_NAMES: &[&str] = &[
    "difficulty",
    "relevant",
    "amount",
    "year",
    "kind",
    "",
    "é",
    "two words",
];
const DOC_NAMES: &[&str] = &["a.txt", "r.html", "t.csv", "m.eml", "README"];
const INSTRUCTIONS: &[&str] = &[
    "the document mentions identity theft",
    "number of identity theft reports in 2001",
    "summarize the filing",
    "",
    "Is it RELEVANT?",
];
const FIELDS: &[&str] = &["amount", "year", "name", ""];

fn text(rng: &mut Rng) -> String {
    let n = rng.below(12);
    (0..n)
        .map(|_| *rng.pick(WORDS))
        .collect::<Vec<_>>()
        .join(" ")
}

fn value(rng: &mut Rng, depth: usize) -> Value {
    let variants = if depth >= 3 { 5 } else { 6 };
    let bits = rng.next();
    match rng.below(variants) {
        0 => Value::Null,
        1 => Value::Bool(bits & 1 == 1),
        2 => Value::Int(*rng.pick(&[0, 1, -1, 2001, i64::MIN, i64::MAX, bits as i64])),
        3 => Value::Float(*rng.pick(&[
            0.0,
            -0.0,
            0.9,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(bits),
        ])),
        4 => Value::Str(rng.pick(WORDS).to_string().into()),
        _ => Value::List((0..rng.below(4)).map(|_| value(rng, depth + 1)).collect()),
    }
}

fn document(rng: &mut Rng) -> Document {
    let name = *rng.pick(DOC_NAMES);
    let body = text(rng);
    let content = if name.ends_with(".html") {
        format!("<p>{body}</p><table><tr><td>2001</td></tr></table>")
    } else {
        body
    };
    let mut doc = Document::new(name, content);
    for _ in 0..rng.below(7) {
        let label = *rng.pick(LABEL_NAMES);
        doc = doc.with_label(label, value(rng, 0));
    }
    doc
}

/// Calls `visit(case index, seed, model, shape, subject constructor, task)`
/// for every pinned case, in order.
fn for_each_case(mut visit: impl FnMut(usize, u64, ModelId, &str, &str, &LlmTask<'_>)) {
    let mut rng = Rng(0x00c0_ffee);
    for i in 0..CASES {
        let shape = SHAPES[i % SHAPES.len()];
        let ctor = SUBJECTS[(i / SHAPES.len()) % SUBJECTS.len()];
        let seed = *rng.pick(&SEEDS);
        let model = *rng.pick(&ModelId::ALL);
        let doc = document(&mut rng);
        let shared = Record::new(doc.name.clone())
            .with("contents", Arc::clone(doc.shared_text()))
            .with("year", 2001);
        let copy = Record::new(doc.name.clone()).with("contents", doc.text());
        let slim = Record::new(doc.name.clone())
            .with("value", value(&mut rng, 0))
            .with("name", text(&mut rng));
        let loose_text = text(&mut rng);
        let subject = match ctor {
            "doc" => Subject::doc(&doc),
            "record_shared" => Subject::record(&shared, Some(&doc)),
            "record_copy" => Subject::record(&copy, Some(&doc)),
            "record_slim" => Subject::record(&slim, Some(&doc)),
            "record_orphan" => Subject::record(&slim, None),
            _ => Subject::text_only(&doc.name, &loose_text),
        };
        let instruction = *rng.pick(INSTRUCTIONS);
        let field = *rng.pick(FIELDS);
        let options: Vec<String> = (0..rng.below(5)).map(|_| text(&mut rng)).collect();
        let correct = match rng.below(options.len() + 1) {
            0 => None,
            k => Some(k - 1),
        };
        let prompt = text(&mut rng);
        let response = text(&mut rng);
        let plan_hash = (rng.next(), rng.next());
        let target_tokens = 1 + rng.below(48);
        let task = match shape {
            "filter" => LlmTask::Filter {
                instruction,
                subject,
            },
            "extract" => LlmTask::Extract {
                instruction,
                field,
                field_desc: instruction,
                subject,
            },
            "map" => LlmTask::Map {
                instruction,
                subject,
                target_tokens,
            },
            "choose" => LlmTask::Choose {
                question: instruction,
                options: &options,
                correct,
            },
            _ => LlmTask::Freeform {
                prompt: &prompt,
                response: &response,
                plan_hash,
            },
        };
        visit(i, seed, model, shape, ctor, &task);
    }
}

/// One fixture line: the case's summary and its key.
fn line(i: usize, seed: u64, model: ModelId, shape: &str, ctor: &str, key: CacheKey) -> String {
    format!(
        "{{\"case\":{i},\"seed\":{seed},\"model\":\"{model}\",\"task\":\"{shape}\",\
         \"subject\":\"{ctor}\",\"hi\":\"{:016x}\",\"lo\":\"{:016x}\"}}",
        key.hi, key.lo
    )
}

/// The cases whose responses the committed cache snapshot holds.
fn snapshotted(i: usize) -> bool {
    i.is_multiple_of(4)
}

fn fixture(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn sims(cache: Option<&SemanticCache>) -> Vec<SimLlm> {
    SEEDS
        .iter()
        .map(|seed| {
            let sim = SimLlm::new(*seed);
            match cache {
                Some(cache) => sim.with_cache(cache.clone()),
                None => sim,
            }
        })
        .collect()
}

fn sim_for(sims: &[SimLlm], seed: u64) -> &SimLlm {
    &sims[SEEDS
        .iter()
        .position(|s| *s == seed)
        .expect("a pinned seed")]
}

#[test]
fn every_pinned_key_reproduces() {
    let pinned = std::fs::read_to_string(fixture("content_keys.jsonl")).expect("key pin");
    let pinned: Vec<&str> = pinned.lines().collect();
    assert_eq!(pinned.len(), CASES);
    let sims = sims(None);
    let mut seen = 0;
    for_each_case(|i, seed, model, shape, ctor, task| {
        let sim = sim_for(&sims, seed);
        let key = sim.content_key(model, task);
        assert_eq!(line(i, seed, model, shape, ctor, key), pinned[i]);
        // Again, now from the subject's filled memo slots.
        assert_eq!(sim.content_key(model, task), key, "case {i}");
        seen += 1;
    });
    assert_eq!(seen, CASES);
}

#[test]
fn parent_snapshot_loads_and_every_key_hits() {
    let cache = SemanticCache::with_capacity(0);
    let loaded = cache
        .load(&fixture("semcache_parent.snap"))
        .expect("the snapshot loads");
    assert!(loaded > 500, "{loaded} entries");
    let sims = sims(Some(&cache));
    let mut asked = 0;
    for_each_case(|i, seed, model, _, _, task| {
        if snapshotted(i) {
            let resp = sim_for(&sims, seed).invoke(model, task);
            assert_eq!(resp.receipt.cache_hits, 1, "case {i} missed");
            asked += 1;
        }
    });
    assert_eq!(asked, CASES / 4);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (asked as u64, 0));
    assert_eq!(stats.entries, loaded as u64, "a hit admits nothing");
}

/// `CacheKey::from_parts` as it was before [`KeyHasher`]: both lanes
/// folded over a collected part slice.
fn parent_from_parts(parts: &[u64]) -> (u64, u64) {
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut hi: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    for p in parts {
        hi = splitmix64(hi ^ p.rotate_left(17));
    }
    let mut lo = 0x6a09_e667_f3bc_c909u64;
    for p in parts {
        lo = splitmix64(lo ^ p.rotate_left(32));
    }
    (hi, lo)
}

const STREAMS: u32 = if cfg!(debug_assertions) { 512 } else { 16384 };

fn part() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), Just(0u64), Just(u64::MAX), 0u64..8,]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(STREAMS))]
    #[test]
    fn streamed_key_equals_the_parent_from_parts(
        parts in prop::collection::vec(part(), 0..48),
    ) {
        let mut streamed = KeyHasher::new();
        for p in &parts {
            streamed.push(*p);
        }
        let key = streamed.finish();
        prop_assert_eq!((key.hi, key.lo), parent_from_parts(&parts));
        prop_assert_eq!(CacheKey::from_parts(&parts), key);
    }
}

/// The key of a filter over `subject`, as the simulator builds it.
fn filter_key(subject: Subject<'_>) -> CacheKey {
    SimLlm::new(1).content_key(
        ModelId::Mini,
        &LlmTask::Filter {
            instruction: "the document mentions identity theft",
            subject,
        },
    )
}

fn labelled() -> Document {
    Document::new("m.eml", "Subject: x\n\nidentity theft")
        .with_label("relevant", true)
        .with_label("difficulty", 0.4)
}

#[test]
fn a_label_added_to_a_clone_with_filled_hashes_changes_its_key() {
    let doc = labelled();
    let before = filter_key(Subject::doc(&doc));
    // The first key filled `doc`'s label hashes; the clone carries them.
    let relabelled = doc.clone().with_label("relevant", false);
    let after = filter_key(Subject::doc(&relabelled));
    assert_ne!(after, before);
    let fresh = Document::new("m.eml", "Subject: x\n\nidentity theft")
        .with_label("relevant", false)
        .with_label("difficulty", 0.4);
    assert_eq!(after, filter_key(Subject::doc(&fresh)));
    assert_eq!(
        before,
        filter_key(Subject::doc(&doc)),
        "the original keeps its key"
    );
}

#[test]
fn a_slim_record_keys_its_origins_labels() {
    let doc = labelled();
    let slim = Record::new("m.txt").with("value", 7);
    let rendered = slim.render();
    // The record does not share the document's text, yet its labels are
    // the document's: the key must equal that of a document which carries
    // the record's text and the same labels.
    let from_origin = filter_key(Subject::record(&slim, Some(&doc)));
    let mut same = Document::new("m.txt", rendered);
    for (name, value) in doc.labels() {
        same = same.with_label(name.as_str(), value.clone());
    }
    assert_eq!(from_origin, filter_key(Subject::doc(&same)));
    assert_ne!(from_origin, filter_key(Subject::record(&slim, None)));
}
