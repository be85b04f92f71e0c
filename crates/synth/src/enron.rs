//! The Enron-style email workload.
//!
//! 250 emails reproducing the structure that drives the paper's Table 2:
//!
//! * **18 keyword-explicit relevant** emails: firsthand discussion that
//!   names a transaction (`Raptor`, `Chewco`, …). Regex agents find these.
//! * **21 oblique relevant** emails: firsthand discussion phrased without
//!   any code name ("the structured hedge vehicle…"). Regex agents miss
//!   these — the recall gap.
//! * **5 secondhand forwards**: news articles that *mention* a transaction
//!   by name but contain no firsthand discussion. Regex agents wrongly
//!   return some of these — the precision gap. They are also the
//!   high-difficulty judgements for cheap LLM tiers.
//! * **206 ordinary business emails** (easy negatives).
//!
//! Ground truth: 39 relevant emails; both predicate labels
//! (`gt_mentions_txn`, `gt_relevant`) are planted on every document.

use crate::text::{
    FILLER_SENTENCES, FIRSTHAND_TEMPLATES, FIRST_NAMES, LAST_NAMES, OBLIQUE_REFERENCES,
    SECONDHAND_TEMPLATES, TRANSACTIONS,
};
use crate::{GroundTruth, Workload};
use aida_data::{DataLake, Document};
use aida_llm::noise::KeyedRng;
use aida_llm::oracle::{FnRule, OracleAnswer};
use aida_llm::SimLlm;
use std::sync::Arc;

/// Total emails in the workload.
const N_EMAILS: usize = 250;
/// Relevant emails that name a transaction explicitly.
const N_KEYWORD_RELEVANT: usize = 18;
/// Relevant emails phrased without any transaction name.
const N_OBLIQUE_RELEVANT: usize = 21;
/// Secondhand forwards that name a transaction but are not firsthand.
const N_SECONDHAND: usize = 5;

/// The evaluation query (the paper's Enron document-processing task).
pub const QUERY: &str =
    "Filter the emails for ones which contain firsthand discussion of one or more of the \
     Raptor, Chewco, LJM, Talon, or Condor business transactions, and extract the sender, \
     subject, and a short summary of each matching email.";

/// Generates the 250-email workload. The seed shuffles which slots are
/// relevant and perturbs prose, but the *counts* above are invariant.
pub fn generate(seed: u64) -> Workload {
    let mut rng = KeyedRng::new(seed ^ 0xe17a11);
    // Assign roles to positions deterministically.
    let mut roles: Vec<Role> = Vec::with_capacity(N_EMAILS);
    roles.extend(std::iter::repeat_n(
        Role::KeywordRelevant,
        N_KEYWORD_RELEVANT,
    ));
    roles.extend(std::iter::repeat_n(
        Role::ObliqueRelevant,
        N_OBLIQUE_RELEVANT,
    ));
    roles.extend(std::iter::repeat_n(Role::Secondhand, N_SECONDHAND));
    roles.extend(std::iter::repeat_n(
        Role::Filler,
        N_EMAILS - N_KEYWORD_RELEVANT - N_OBLIQUE_RELEVANT - N_SECONDHAND,
    ));
    shuffle(&mut roles, &mut rng);

    let mut lake = DataLake::new();
    let mut relevant = Vec::new();
    for (i, role) in roles.iter().enumerate() {
        let name = format!("email_{:04}.eml", i + 1);
        let doc = build_email(&name, *role, seed, i);
        if matches!(role, Role::KeywordRelevant | Role::ObliqueRelevant) {
            relevant.push(name.clone());
        }
        lake.add(doc);
    }

    Workload {
        name: "enron-filter".to_string(),
        lake,
        query: QUERY.to_string(),
        description: format!(
            "A data lake of {N_EMAILS} corporate emails (.eml files with From/To/Subject \
             headers) from an energy-trading company, covering trading operations, \
             finance-structure discussions, and general business communication."
        ),
        truth: GroundTruth::DocSet(relevant),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    KeywordRelevant,
    ObliqueRelevant,
    Secondhand,
    Filler,
}

fn shuffle<T>(items: &mut [T], rng: &mut KeyedRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i + 1);
        items.swap(i, j);
    }
}

fn person(rng: &mut KeyedRng) -> (String, String) {
    let first = *rng.pick(FIRST_NAMES);
    let last = *rng.pick(LAST_NAMES);
    (
        format!("{first} {last}"),
        format!("{first}.{last}@enrot.com"),
    )
}

fn build_email(name: &str, role: Role, seed: u64, index: usize) -> Document {
    let mut rng = KeyedRng::new(seed ^ aida_llm::noise::hash_str(name) ^ 0xe0a1);
    let (sender_name, sender_addr) = person(&mut rng);
    let (_, to_addr) = person(&mut rng);

    let (subject, lead_sentences, mentions, relevant, difficulty) = match role {
        Role::KeywordRelevant => {
            let txn = *rng.pick(TRANSACTIONS);
            let subject = format!(
                "{txn} {}",
                rng.pick(&["position", "restructuring", "update", "funding"][..])
            );
            let mut leads = Vec::new();
            for _ in 0..rng.range_i64(1, 2) {
                leads.push(rng.pick(FIRSTHAND_TEMPLATES).replace("{ref}", txn));
            }
            (subject, leads, true, true, 0.1)
        }
        Role::ObliqueRelevant => {
            let oblique = *rng.pick(OBLIQUE_REFERENCES);
            let subject = rng
                .pick(
                    &[
                        "hedge follow-up",
                        "structure question",
                        "Q4 positions",
                        "valuation work",
                    ][..],
                )
                .to_string();
            let mut leads = Vec::new();
            for _ in 0..rng.range_i64(1, 2) {
                leads.push(rng.pick(FIRSTHAND_TEMPLATES).replace("{ref}", oblique));
            }
            // Oblique phrasing is somewhat harder for weak models.
            (subject, leads, true, true, 0.35)
        }
        Role::Secondhand => {
            let txn = *rng.pick(TRANSACTIONS);
            let subject = format!("FW: press mention of {txn}");
            let leads = vec![rng.pick(SECONDHAND_TEMPLATES).replace("{ref}", txn)];
            // The classic precision trap: mentions the name, not firsthand.
            (subject, leads, true, false, 0.7)
        }
        Role::Filler => {
            let subject = rng
                .pick(
                    &[
                        "expense reports",
                        "desk move",
                        "Tuesday meeting",
                        "curve snapshot",
                        "training materials",
                        "benefits enrollment",
                    ][..],
                )
                .to_string();
            (
                subject,
                vec![rng.pick(FILLER_SENTENCES).to_string()],
                false,
                false,
                0.08,
            )
        }
    };

    let mut body = String::new();
    for lead in &lead_sentences {
        body.push_str(lead);
        body.push_str("\n\n");
    }
    for _ in 0..rng.range_i64(2, 5) {
        body.push_str(rng.pick(FILLER_SENTENCES).as_ref());
        body.push('\n');
    }
    body.push_str(&format!("\nThanks,\n{sender_name}\n"));
    // Quoted thread padding: gives every email realistic bulk (the cost
    // model reads whole emails) without adding predicate signal.
    body.push_str("\n-----Original Message-----\n");
    let quoted_lines = rng.range_i64(60, 110);
    for _ in 0..quoted_lines {
        body.push_str("> ");
        body.push_str(rng.pick(FILLER_SENTENCES).as_ref());
        body.push('\n');
    }

    let date_day = 1 + (index % 28);
    let content = format!(
        "From: {sender_addr}\nTo: {to_addr}\nSubject: {subject}\nDate: 2001-10-{date_day:02}\n\n{body}"
    );
    Document::new(name, content)
        .with_label("gt_mentions_txn", mentions)
        .with_label("gt_relevant", relevant)
        .with_label("difficulty", difficulty)
        .with_label("gt_sender", sender_addr)
        .with_label("gt_subject", subject)
}

/// Registers the Enron workload's oracle rules: firsthand-discussion
/// filters resolve against `gt_relevant`; bare transaction-mention filters
/// against `gt_mentions_txn`.
pub fn register_oracle(llm: &SimLlm) {
    llm.oracle().register(Arc::new(FnRule::new(
        "enron-filters",
        |instruction, subject| {
            let lower = instruction.to_ascii_lowercase();
            if lower.contains(" :: ") {
                // Extraction queries read the content instead.
                return None;
            }
            let mentions_txn_vocab = TRANSACTIONS
                .iter()
                .any(|t| lower.contains(&t.to_ascii_lowercase()))
                || lower.contains("transaction");
            if lower.contains("firsthand") {
                // Firsthandness is the genuinely hard judgement: use the
                // document's planted difficulty.
                return subject
                    .label("gt_relevant")
                    .map(|v| OracleAnswer::Bool(v.truthy()));
            }
            if mentions_txn_vocab {
                // Spotting whether a transaction is *mentioned* is close to
                // string matching — easy for every tier.
                return subject
                    .label("gt_mentions_txn")
                    .map(|v| OracleAnswer::BoolWithDifficulty(v.truthy(), 0.04));
            }
            None
        },
    )));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of an email header line (`Key: value`, before the blank
    /// line), case-insensitive on the key.
    fn header<'a>(doc: &'a Document, key: &str) -> Option<&'a str> {
        doc.content
            .lines()
            .take_while(|line| !line.is_empty())
            .filter_map(|line| line.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case(key))
            .map(|(_, v)| v.trim())
    }
    use aida_llm::oracle::Subject;
    use aida_llm::{LlmTask, ModelId};

    #[test]
    fn counts_are_exact() {
        let w = generate(11);
        assert_eq!(w.lake.len(), N_EMAILS);
        let relevant = w.truth.as_doc_set().unwrap();
        assert_eq!(relevant.len(), N_KEYWORD_RELEVANT + N_OBLIQUE_RELEVANT);
        let mentions = w
            .lake
            .docs()
            .iter()
            .filter(|d| d.label("gt_mentions_txn").is_some_and(|v| v.truthy()))
            .count();
        assert_eq!(
            mentions,
            N_KEYWORD_RELEVANT + N_OBLIQUE_RELEVANT + N_SECONDHAND
        );
    }

    #[test]
    fn oblique_relevant_emails_contain_no_transaction_names() {
        let w = generate(11);
        for doc in w.lake.docs() {
            let relevant = doc.label("gt_relevant").is_some_and(|v| v.truthy());
            let named = TRANSACTIONS.iter().any(|t| doc.content.contains(t));
            if relevant && !named {
                // Oblique: must still be labeled as mentioning a txn.
                assert!(doc.label("gt_mentions_txn").unwrap().truthy());
            }
            if !doc.label("gt_mentions_txn").is_some_and(|v| v.truthy()) {
                assert!(!named, "{} leaks a transaction name", doc.name);
            }
        }
        // And there are oblique ones at all.
        let oblique = w
            .lake
            .docs()
            .iter()
            .filter(|d| {
                d.label("gt_relevant").is_some_and(|v| v.truthy())
                    && !TRANSACTIONS.iter().any(|t| d.content.contains(t))
            })
            .count();
        assert_eq!(oblique, N_OBLIQUE_RELEVANT);
    }

    #[test]
    fn secondhand_forwards_name_transactions_but_are_irrelevant() {
        let w = generate(3);
        let traps: Vec<_> = w
            .lake
            .docs()
            .iter()
            .filter(|d| {
                d.label("gt_mentions_txn").is_some_and(|v| v.truthy())
                    && !d.label("gt_relevant").is_some_and(|v| v.truthy())
            })
            .collect();
        assert_eq!(traps.len(), N_SECONDHAND);
        for trap in traps {
            assert!(TRANSACTIONS.iter().any(|t| trap.content.contains(t)));
            assert!(trap.label("difficulty").unwrap().as_float().unwrap() > 0.5);
        }
    }

    #[test]
    fn emails_have_headers_and_realistic_size() {
        let w = generate(5);
        for doc in w.lake.docs().iter().take(20) {
            assert!(header(doc, "from").is_some(), "{}", doc.name);
            assert!(header(doc, "subject").is_some(), "{}", doc.name);
            assert!(doc.size() > 1_200, "{} only {} bytes", doc.name, doc.size());
            assert!(doc.size() < 12_000, "{} is {} bytes", doc.name, doc.size());
        }
    }

    #[test]
    fn different_seeds_shuffle_roles() {
        let a = generate(1);
        let b = generate(2);
        assert_ne!(a.truth, b.truth);
        // Same counts though.
        assert_eq!(
            a.truth.as_doc_set().unwrap().len(),
            b.truth.as_doc_set().unwrap().len()
        );
    }

    #[test]
    fn same_seed_is_identical() {
        let a = generate(4);
        let b = generate(4);
        assert_eq!(a.truth, b.truth);
        for (da, db) in a.lake.docs().iter().zip(b.lake.docs()) {
            assert_eq!(da.content, db.content);
        }
    }

    #[test]
    fn oracle_rules_resolve_both_predicates() {
        let w = generate(9);
        let llm = SimLlm::new(9);
        register_oracle(&llm);
        let relevant_name = &w.truth.as_doc_set().unwrap()[0];
        let doc = w.lake.get(relevant_name).unwrap();
        let resp = llm.invoke(
            ModelId::Flagship,
            &LlmTask::Filter {
                instruction: "the email contains firsthand discussion of the Raptor, Chewco, \
                              LJM, Talon, or Condor transactions",
                subject: Subject::doc(doc),
            },
        );
        if !resp.corrupted {
            assert_eq!(resp.value, aida_data::Value::Bool(true));
        }
        // Mention-only filter is answered by the mention label.
        let resp = llm.invoke(
            ModelId::Flagship,
            &LlmTask::Filter {
                instruction: "the email mentions the Raptor transaction or similar entities",
                subject: Subject::doc(doc),
            },
        );
        if !resp.corrupted {
            assert_eq!(resp.value, aida_data::Value::Bool(true));
        }
    }

    #[test]
    fn sender_and_subject_labels_match_headers() {
        let w = generate(2);
        for doc in w.lake.docs().iter().take(30) {
            let from = header(doc, "from").unwrap();
            assert_eq!(doc.label("gt_sender").unwrap().as_str().unwrap(), from);
            let subject = header(doc, "subject").unwrap();
            assert_eq!(doc.label("gt_subject").unwrap().as_str().unwrap(), subject);
        }
    }
}
