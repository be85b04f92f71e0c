//! A shared task head is transparent: a call that borrows a [`TaskHead`]
//! other calls (other subjects, other models) already filled returns,
//! bills and keys the bits of a call whose head is built afresh, and of
//! the loose task form, which builds one per call.
//!
//! Three twin simulators answer the same call sequence: side A sends every
//! call of a task head through one shared head, side B builds a fresh head
//! per call, side C sends the loose `Filter`/`Extract`/`Map` form. After
//! every call the three responses (latency and every float as bits), the
//! content keys, the usage folds and the cache stats must be equal. Cases
//! vary the instruction and field wording (upper case, non-ASCII letters,
//! stopwords, repeated words, years, the theme question), the subject
//! (document, record sharing the document's text, rendered record, plain
//! text), an oracle rule reading the prepared lowercase query, the fault
//! rate, the cache and its capacity, and the model sequence. `ci.sh` runs
//! it in release at the full case count.

use aida_data::{Document, Record, Value};
use aida_llm::oracle::FnRule;
use aida_llm::{
    LlmResponse, LlmTask, ModelId, OracleAnswer, OracleQuery, SemanticCache, SimLlm, Subject,
    TaskHead,
};
use std::sync::Arc;

const CASES: u64 = if cfg!(debug_assertions) { 64 } else { 5_000 };

/// SplitMix64, so the cases depend on no crate under test.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// Pieces of a text: words the wordings ask about, numbers, years, table
/// lines, line endings, markup and non-ASCII letters.
const TEXT: &[&str] = &[
    "Identity theft",
    "REPORTS",
    "fraud",
    "the",
    "total",
    "2024",
    "2001",
    "1,135,291",
    " ",
    "\n",
    "\r\n",
    "é",
    "Straße ",
    "<p>",
    "&amp;",
    "year,theft,fraud\n",
    "2024,86250,9\n",
    "2001,12,7\n",
];

/// Pieces of an instruction, field or description: upper and lower case,
/// non-ASCII letters, stopwords, words that repeat, years (in and out of
/// the row-key range), the group-by labeller's theme question and the
/// oracle query's separator.
const WORDING: &[&str] = &[
    "Identity",
    "THEFT",
    "theft",
    "theft",
    "Reports",
    "fraud",
    "Year",
    "year",
    "the",
    "of",
    "and",
    "number",
    "Straße",
    "é",
    "٣",
    "2024",
    "2001",
    "1899",
    "Common Theme",
    "common theme",
    "::",
    "mentions",
    "summarize",
];

fn text(rng: &mut Rng) -> String {
    (0..rng.below(30)).map(|_| rng.pick(TEXT)).collect()
}

fn wording(rng: &mut Rng, max_words: usize) -> String {
    let words: Vec<&str> = (0..rng.below(max_words + 1))
        .map(|_| rng.pick(WORDING))
        .collect();
    words.join(if rng.below(4) == 0 { "_" } else { " " })
}

fn document(rng: &mut Rng, i: usize) -> Document {
    let name = format!("d{i}.{}", rng.pick(&["txt", "csv", "eml", "html"]));
    let mut doc = Document::new(name, text(rng));
    if rng.below(3) > 0 {
        doc = doc.with_label("difficulty", rng.below(11) as f64 / 10.0);
    }
    if rng.below(2) == 0 {
        doc = doc.with_label("gt_relevant", rng.below(2) == 0);
    }
    doc
}

/// A rule answering from labels, matching on the prepared lowercase query
/// the way the workload generators' rules do.
fn register_rule(llm: &SimLlm) {
    llm.oracle().register(Arc::new(FnRule::new(
        "labels",
        |query: &OracleQuery<'_>, subject: &Subject<'_>| {
            assert_eq!(query.lower(), query.text().to_ascii_lowercase());
            let relevant = subject.label("gt_relevant")?.truthy();
            let lower = query.lower();
            if lower.contains(":: theft") {
                Some(OracleAnswer::Value(Value::Int(i64::from(relevant) * 42)))
            } else if lower.contains("mentions") {
                Some(OracleAnswer::BoolWithDifficulty(relevant, 0.7))
            } else if lower.starts_with("summarize") {
                Some(OracleAnswer::Text(format!("about {}", subject.name)))
            } else {
                None
            }
        },
    )));
}

fn simulator(seed: u64, fault: bool, cache: usize, oracle: bool) -> SimLlm {
    let mut llm = SimLlm::new(seed).with_fault_rate(if fault { 0.3 } else { 0.0 });
    if cache > 0 {
        llm = llm.with_cache(SemanticCache::with_capacity(4 * (cache - 1)));
    }
    if oracle {
        register_rule(&llm);
    }
    llm
}

/// Every field of a response, floats as bits.
fn response_bits(r: &LlmResponse) -> String {
    format!(
        "{:?} {:?} in {} out {} latency {:x} corrupted {} receipt {:?}",
        r.value,
        r.text,
        r.input_tokens,
        r.output_tokens,
        r.latency_s.to_bits(),
        r.corrupted,
        r.receipt
    )
}

fn state_bits(llm: &SimLlm) -> String {
    format!(
        "usage {:?} cache {:?}",
        llm.usage(),
        llm.cache().map(|c| c.stats())
    )
}

/// A task head's fields: kind (0 filter, 1 extract, 2 map), instruction,
/// field, field description and token budget.
struct Fields {
    kind: usize,
    instruction: String,
    field: String,
    field_desc: String,
    target_tokens: usize,
}

impl Fields {
    fn head(&self) -> TaskHead<'_> {
        match self.kind {
            0 => TaskHead::filter(&self.instruction),
            1 => TaskHead::extract(&self.instruction, &self.field, &self.field_desc),
            _ => TaskHead::map(&self.instruction, self.target_tokens),
        }
    }

    fn loose<'a>(&'a self, subject: Subject<'a>) -> LlmTask<'a> {
        match self.kind {
            0 => LlmTask::Filter {
                instruction: &self.instruction,
                subject,
            },
            1 => LlmTask::Extract {
                instruction: &self.instruction,
                field: &self.field,
                field_desc: &self.field_desc,
                subject,
            },
            _ => LlmTask::Map {
                instruction: &self.instruction,
                subject,
                target_tokens: self.target_tokens,
            },
        }
    }
}

fn check(rng: &mut Rng) -> Result<(), String> {
    let docs: Vec<Document> = (0..1 + rng.below(4)).map(|i| document(rng, i)).collect();
    let shared: Vec<Record> = docs
        .iter()
        .map(|d| Record::new(d.name.clone()).with("contents", Arc::clone(d.shared_text())))
        .collect();
    let rendered: Vec<Record> = docs
        .iter()
        .map(|d| {
            Record::new(d.name.clone())
                .with("theft", rng.below(1000) as i64)
                .with("title", d.name.as_str())
        })
        .collect();
    let plain: Vec<String> = (0..docs.len()).map(|_| text(rng)).collect();
    let fields: Vec<Fields> = (0..1 + rng.below(3))
        .map(|_| Fields {
            kind: rng.below(3),
            instruction: wording(rng, 8),
            field: wording(rng, 2),
            field_desc: wording(rng, 4),
            target_tokens: 4 + rng.below(30),
        })
        .collect();
    let heads: Vec<TaskHead<'_>> = fields.iter().map(Fields::head).collect();
    let (seed, fault, cache, oracle) = (
        rng.below(4) as u64,
        rng.below(2) == 0,
        rng.below(3),
        rng.below(2) == 0,
    );
    let sides = [0, 1, 2].map(|_| simulator(seed, fault, cache, oracle));
    for call in 0..1 + rng.below(16) {
        let h = rng.below(fields.len());
        let d = rng.below(docs.len());
        let subject = match rng.below(4) {
            0 => Subject::doc(&docs[d]),
            1 => Subject::record(&shared[d], Some(&docs[d])),
            2 => Subject::record(&rendered[d], Some(&docs[d])),
            _ => Subject::text_only(&docs[d].name, &plain[d]),
        };
        let model = ModelId::ALL[rng.below(ModelId::ALL.len())];
        let fresh = fields[h].head();
        let tasks = [
            LlmTask::Prepared {
                head: &heads[h],
                subject: subject.clone(),
            },
            LlmTask::Prepared {
                head: &fresh,
                subject: subject.clone(),
            },
            fields[h].loose(subject),
        ];
        let keys: Vec<String> = sides
            .iter()
            .zip(&tasks)
            .map(|(llm, task)| format!("{:?}", llm.content_key(model, task)))
            .collect();
        let responses: Vec<String> = sides
            .iter()
            .zip(&tasks)
            .map(|(llm, task)| response_bits(&llm.invoke(model, task)))
            .collect();
        let states: Vec<String> = sides.iter().map(state_bits).collect();
        for (what, bits) in [("key", &keys), ("response", &responses), ("state", &states)] {
            if bits[0] != bits[1] || bits[0] != bits[2] {
                return Err(format!(
                    "call {call} ({model}, head {h}) {what}:\nshared {}\nfresh  {}\nloose  {}",
                    bits[0], bits[1], bits[2]
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn shared_heads_answer_like_heads_built_per_call() {
    let mut rng = Rng(0x4ead_5eed);
    for case in 0..CASES {
        if let Err(e) = check(&mut rng) {
            panic!("case {case}: {e}");
        }
    }
}
