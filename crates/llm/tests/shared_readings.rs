//! Shared readings are transparent: every call that takes its reading from
//! a [`ReadingCell`] shared with calls by other models on the same task
//! returns, bills and caches the bits of an independent
//! [`SimLlm::invoke`].
//!
//! Side A sends each task's calls through one cell per task; side B, a
//! twin simulator, invokes every call afresh. After every call the two
//! responses (latency and every float as bits), the usage folds and the
//! cache stats must be equal. Cases vary the task kind (filter, extract,
//! map, choose, freeform), the subject (document, record sharing the
//! document's text, rendered record, plain text), an oracle rule, the
//! fault rate, the cache and its capacity, and the model sequence.
//! `ci.sh` runs it in release at the full case count.

use aida_data::{Document, Record, Value};
use aida_llm::oracle::FnRule;
use aida_llm::{
    LlmResponse, LlmTask, ModelId, OracleAnswer, OracleQuery, ReadingCell, SemanticCache, SimLlm,
    Subject,
};
use std::sync::Arc;

const CASES: u64 = if cfg!(debug_assertions) { 64 } else { 10_000 };

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

/// Pieces of a text: words instructions ask about, numbers, years, table
/// lines, every line ending `str::lines` treats differently, markup and
/// non-ASCII letters.
const PIECES: &[&str] = &[
    "Identity theft",
    "reports",
    "fraud",
    "pipeline",
    "the",
    "total",
    "2024",
    "2001",
    "1,135,291",
    "13.16",
    " ",
    " ",
    "\n",
    "\r\n",
    "\r",
    "é",
    "Straße ",
    "<p>",
    "</p>",
    "&amp;",
    "year,theft,fraud\n",
    "2024,86250,9\n",
    "2001,12,7\n",
];

const INSTRUCTIONS: &[&str] = &[
    "mentions identity theft",
    "number of theft reports in 2024",
    "name the common theme",
    "summarize the item",
    "fraud total",
    "",
];

fn text(rng: &mut Rng) -> String {
    (0..rng.below(40)).map(|_| rng.pick(PIECES)).collect()
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

/// An oracle rule answering some instructions from labels: a filter's
/// judgement with its own difficulty, an extracted value, a summary.
fn register_rule(llm: &SimLlm) {
    llm.oracle().register(Arc::new(FnRule::new(
        "labels",
        |query: &OracleQuery<'_>, subject: &Subject<'_>| {
            let instruction = query.text();
            let relevant = subject.label("gt_relevant")?.truthy();
            if instruction.starts_with("mentions") {
                Some(OracleAnswer::BoolWithDifficulty(relevant, 0.7))
            } else if instruction.contains(":: theft") {
                Some(OracleAnswer::Value(Value::Int(i64::from(relevant) * 42)))
            } else if instruction.starts_with("summarize") {
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

/// One case; returns how many calls answered from a reading another
/// call had filled.
fn check(rng: &mut Rng) -> Result<usize, String> {
    let docs: Vec<Document> = (0..1 + rng.below(3)).map(|i| document(rng, i)).collect();
    // Records that share their document's text, and rendered ones.
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
    let options: Vec<String> = (0..rng.below(4)).map(|i| format!("option {i}")).collect();
    // Four (instruction, field, field description) triples, so tasks
    // repeat some.
    let wording: Vec<(&str, &str, &str)> = (0..4)
        .map(|_| {
            (
                rng.pick(INSTRUCTIONS),
                rng.pick(&["theft", "year", "value", ""]),
                rng.pick(&["", "number of reports", "the year"]),
            )
        })
        .collect();
    let mut tasks: Vec<LlmTask<'_>> = Vec::new();
    for t in 0..1 + rng.below(5) {
        let d = rng.below(docs.len());
        let subject = match rng.below(4) {
            0 => Subject::doc(&docs[d]),
            1 => Subject::record(&shared[d], Some(&docs[d])),
            2 => Subject::record(&rendered[d], Some(&docs[d])),
            _ => Subject::text_only(&docs[d].name, &plain[d]),
        };
        let (instruction, field, field_desc) = wording[t % 4];
        tasks.push(match rng.below(5) {
            0 => LlmTask::Filter {
                instruction,
                subject,
            },
            1 => LlmTask::Extract {
                instruction,
                field,
                field_desc,
                subject,
            },
            2 => LlmTask::Map {
                instruction,
                subject,
                target_tokens: 4 + rng.below(30),
            },
            3 => LlmTask::Choose {
                question: instruction,
                options: &options,
                correct: (rng.below(3) > 0).then(|| rng.below(4)),
            },
            _ => LlmTask::Freeform {
                prompt: instruction,
                response: field_desc,
                plan_hash: (rng.below(2) as u64, 7),
            },
        });
    }
    let (seed, fault, cache, oracle) = (
        rng.below(4) as u64,
        rng.below(2) == 0,
        rng.below(3),
        rng.below(2) == 0,
    );
    let (a, b) = (
        simulator(seed, fault, cache, oracle),
        simulator(seed, fault, cache, oracle),
    );
    let cells: Vec<ReadingCell> = tasks.iter().map(|_| ReadingCell::new()).collect();
    let mut read = vec![false; tasks.len()];
    let mut reused = 0;
    for call in 0..1 + rng.below(12) {
        let t = rng.below(tasks.len());
        let model = ModelId::ALL[rng.below(ModelId::ALL.len())];
        let shared = a.invoke_shared(model, &tasks[t], &cells[t]);
        let fresh = b.invoke(model, &tasks[t]);
        // A call the cache serves neither fills nor reads the cell.
        let computed = shared.receipt.cache_hits == 0 && shared.receipt.cache_coalesced == 0;
        reused += usize::from(computed && read[t]);
        read[t] |= computed;
        let (sa, sb) = (response_bits(&shared), response_bits(&fresh));
        if sa != sb {
            return Err(format!("call {call} ({model}, task {t}):\n{sa}\nvs\n{sb}"));
        }
        let (sa, sb) = (state_bits(&a), state_bits(&b));
        if sa != sb {
            return Err(format!("after call {call}:\n{sa}\nvs\n{sb}"));
        }
    }
    Ok(reused)
}

#[test]
fn shared_readings_answer_like_independent_invokes() {
    let mut rng = Rng(0x5eed_4ead);
    let mut reused = 0;
    for case in 0..CASES {
        match check(&mut rng) {
            Ok(n) => reused += n,
            Err(e) => panic!("case {case}: {e}"),
        }
    }
    assert!(
        reused as u64 >= CASES,
        "only {reused} calls over {CASES} cases answered from a shared reading"
    );
}

/// A cell that served one task refuses another (debug builds check the
/// task's fingerprint on every call).
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "one reading cell shared by two tasks")]
fn a_cell_serves_one_task() {
    let doc = Document::new("a.txt", "identity theft reports");
    let llm = SimLlm::new(1);
    let cell = ReadingCell::new();
    for instruction in ["mentions theft", "mentions fraud"] {
        let task = LlmTask::Filter {
            instruction,
            subject: Subject::doc(&doc),
        };
        llm.invoke_shared(ModelId::Nano, &task, &cell);
    }
}
