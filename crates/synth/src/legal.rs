//! The Kramabench-style legal workload.
//!
//! 132 files mirroring the FTC Consumer Sentinel data lake the paper's
//! `legal-easy-3` query runs over:
//!
//! * **1 national CSV** (the ground-truth needle) with fraud, identity
//!   theft, and other report counts for every year 2001–2024.
//! * **100 state CSVs** (50 states × 2 years) with per-category counts —
//!   they mention "identity theft" and "2024" but can never answer the
//!   2024/2001 ratio question.
//! * **24 annual HTML report pages**, one per year, which report identity
//!   theft *per 100,000 population* — numbers that exist, look plausible,
//!   and are wrong for the ratio (the trap naive agents fall into).
//! * **6 category-breakdown CSVs** and **1 README**.
//!
//! The generated lake is deterministic in everything that defines ground
//! truth; the seed only perturbs distractor content.

use crate::text::{REPORT_PROSE, STATES};
use crate::{GroundTruth, Workload};
use aida_data::{DataLake, Document};
use aida_llm::noise::KeyedRng;
use aida_llm::oracle::{FnRule, OracleAnswer};
use aida_llm::SimLlm;
use std::sync::Arc;

/// First year covered by the national series.
pub const FIRST_YEAR: i64 = 2001;
/// Last year covered by the national series.
const LAST_YEAR: i64 = 2024;
/// Identity-theft reports in the first year (fixed; defines ground truth).
const THEFTS_FIRST: i64 = 86_250;
/// Identity-theft reports in the last year (fixed; defines ground truth).
const THEFTS_LAST: i64 = 1_135_291;

/// Name of the ground-truth national file.
const NATIONAL_FILE: &str = "sentinel_national_reports_by_year_2001_2024.csv";

/// The evaluation query (the paper's `legal-easy-3`).
pub const QUERY: &str = "What is the ratio between the number of identity theft reports in \
                         2024 and the number of identity theft reports in 2001?";

/// The ground-truth answer.
pub fn true_ratio() -> f64 {
    THEFTS_LAST as f64 / THEFTS_FIRST as f64
}

/// The national identity-theft series: exponential interpolation between
/// the fixed endpoints with small deterministic wiggle in interior years.
fn theft_series() -> Vec<(i64, i64)> {
    let years = (FIRST_YEAR..=LAST_YEAR).collect::<Vec<_>>();
    let n = (years.len() - 1) as f64;
    let growth = (THEFTS_LAST as f64 / THEFTS_FIRST as f64).powf(1.0 / n);
    years
        .iter()
        .enumerate()
        .map(|(i, &year)| {
            if year == FIRST_YEAR {
                (year, THEFTS_FIRST)
            } else if year == LAST_YEAR {
                (year, THEFTS_LAST)
            } else {
                // Interior wiggle is keyed to the year only, not the run
                // seed, so every trial sees the same lake.
                let base = THEFTS_FIRST as f64 * growth.powi(i as i32);
                let mut rng = KeyedRng::new(0x1ea1 ^ year as u64);
                let wiggle = rng.range_f64(0.93, 1.07);
                (year, (base * wiggle) as i64)
            }
        })
        .collect()
}

/// US population by year (millions, linearized) — used for the per-100k
/// trap numbers on the annual report pages.
fn population(year: i64) -> f64 {
    285.0 + (year - FIRST_YEAR) as f64 * 2.3
}

/// Generates the full 132-file workload. The seed perturbs distractor
/// content only; ground truth is seed-independent.
pub fn generate(seed: u64) -> Workload {
    generate_scaled(seed, STATES.len())
}

/// Generates a scaled variant with `n_states` states × 2 years of state
/// files (used by the access-path ablation). `n_states` beyond 50 cycles
/// state names with numeric suffixes.
pub fn generate_scaled(seed: u64, n_states: usize) -> Workload {
    let mut lake = DataLake::new();
    let series = theft_series();

    // --- 1. National ground-truth CSV -----------------------------------
    lake.add(national_file(&series));

    // --- 2. State-level distractors (n_states x 2 years) ----------------
    for i in 0..n_states {
        let base = STATES[i % STATES.len()];
        let state = if i < STATES.len() {
            base.to_string()
        } else {
            format!("{base}_{}", i / STATES.len() + 1)
        };
        for year in [2023i64, 2024] {
            lake.add(state_file(&state, year, seed));
        }
    }

    // --- 3. Annual HTML report pages (per-100k traps) --------------------
    for &(year, thefts) in &series {
        lake.add(annual_report(year, thefts, seed));
    }

    // --- 4. Category breakdowns and README -------------------------------
    for category in ["fraud", "identity_theft", "other"] {
        for year in [2023i64, 2024] {
            lake.add(category_file(category, year, seed, &series));
        }
    }
    lake.add(readme());

    Workload {
        name: "legal-easy-3".to_string(),
        lake,
        query: QUERY.to_string(),
        description: format!(
            "A data lake of {} files from the Consumer Sentinel Network: national and \
             state-level CSV statistics on fraud, identity theft, and other consumer \
             reports, plus annual HTML report pages covering {FIRST_YEAR}-{LAST_YEAR}.",
            // Computed below; re-rendered for the default scale.
            1 + n_states * 2 + series.len() + 6 + 1
        ),
        truth: GroundTruth::Number(true_ratio()),
    }
}

fn national_file(series: &[(i64, i64)]) -> Document {
    let mut content = String::from("year,fraud_reports,identity_theft_reports,other_reports\n");
    for &(year, thefts) in series {
        let mut rng = KeyedRng::new(0xf4a0d ^ year as u64);
        let fraud = (thefts as f64 * rng.range_f64(1.8, 2.6)) as i64;
        let other = (thefts as f64 * rng.range_f64(1.2, 1.9)) as i64;
        content.push_str(&format!("{year},{fraud},{thefts},{other}\n"));
    }
    Document::new(NATIONAL_FILE, content)
        .with_label("gt_idtheft_filter", true)
        .with_label("gt_national", true)
        .with_label("difficulty", 0.02)
}

const STATE_CATEGORIES: &[&str] = &[
    "imposter scams",
    "identity theft",
    "online shopping",
    "prizes and sweepstakes",
    "internet services",
    "telephone and mobile services",
    "debt collection",
    "banks and lenders",
    "auto related",
    "credit bureaus",
    "health care",
    "travel and vacations",
    "investment related",
    "business and job opportunities",
    "mortgage foreclosure relief",
    "advance payments for credit services",
    "tax preparers",
    "utilities",
    "real estate",
    "charitable solicitations",
];

fn state_file(state: &str, year: i64, seed: u64) -> Document {
    let mut rng =
        KeyedRng::new(seed ^ aida_llm::noise::hash_str(state) ^ (year as u64).wrapping_mul(0x9e37));
    let mut content = format!("category,reports_{year},rank\n");
    for (rank, category) in STATE_CATEGORIES.iter().enumerate() {
        let count = rng.range_i64(400, 45_000);
        content.push_str(&format!("{category},{count},{}\n", rank + 1));
    }
    // Padding rows: metro-area breakdowns to give the file realistic bulk.
    content.push_str("\nmetro_area,total_reports,reports_per_100k\n");
    for i in 0..rng.range_i64(140, 240) {
        let total = rng.range_i64(1_000, 90_000);
        let per100k = rng.range_f64(80.0, 900.0);
        content.push_str(&format!("metro_{state}_{i},{total},{per100k:.1}\n"));
    }
    Document::new(format!("sentinel_state_{state}_{year}.csv"), content)
        .with_label("gt_idtheft_filter", false)
        .with_label("difficulty", 0.05)
}

fn annual_report(year: i64, thefts: i64, seed: u64) -> Document {
    let mut rng = KeyedRng::new(seed ^ (year as u64).wrapping_mul(0xabcd));
    let pop = population(year);
    // Fiscal-year accounting and methodology changes make the published
    // per-100k rates deviate from calendar-year totals; the perturbation is
    // keyed to the year so every trial sees the same page.
    let mut rate_rng = KeyedRng::new(0x4a7e ^ (year as u64).wrapping_mul(0x51d3));
    let per100k = thefts as f64 / (pop * 1e6) * 1e5 * rate_rng.range_f64(0.70, 1.35);
    let mut body = String::new();
    body.push_str(&format!(
        "<html><head><title>Consumer Sentinel Network Annual Data Book {year}</title></head>\n<body>\n"
    ));
    body.push_str(&format!(
        "<h1>Consumer Sentinel Network Data Book {year}</h1>\n"
    ));
    for _ in 0..3 {
        body.push_str(&format!("<p>{}</p>\n", rng.pick(REPORT_PROSE)));
    }
    body.push_str(&format!(
        "<p>In {year}, identity theft reports were filed at a rate of {per100k:.1} \
         reports per 100,000 population nationwide.</p>\n"
    ));
    body.push_str("<h2>Top report categories</h2>\n<table>\n");
    body.push_str("<tr><th>category</th><th>share_of_reports</th><th>per_100k</th></tr>\n");
    let mut share_left: f64 = 100.0;
    for category in &STATE_CATEGORIES[..8] {
        let share = rng.range_f64(2.0, share_left.min(24.0)).max(1.0);
        share_left = (share_left - share).max(2.0);
        let rate = rng.range_f64(10.0, 380.0);
        body.push_str(&format!(
            "<tr><td>{category}</td><td>{share:.1}%</td><td>{rate:.1}</td></tr>\n"
        ));
    }
    body.push_str("</table>\n");
    // Padding prose to give the page realistic size.
    for _ in 0..rng.range_i64(60, 90) {
        body.push_str(&format!("<p>{}</p>\n", rng.pick(REPORT_PROSE)));
    }
    body.push_str("</body></html>\n");
    // The 2001 and 2024 pages are the hard traps: they discuss identity
    // theft for one of the query's years, so weak models (and hurried
    // agents) mistake them for the answer file.
    let difficulty = if year == FIRST_YEAR || year == LAST_YEAR {
        0.35
    } else {
        0.15
    };
    Document::new(format!("sentinel_annual_report_{year}.html"), body)
        .with_label("gt_idtheft_filter", false)
        .with_label("per_100k", per100k)
        .with_label("difficulty", difficulty)
}

fn category_file(category: &str, year: i64, seed: u64, series: &[(i64, i64)]) -> Document {
    let mut rng = KeyedRng::new(seed ^ aida_llm::noise::hash_str(category) ^ year as u64);
    let mut content = format!("subtype,reports_{year}\n");
    let subtypes: &[&str] = match category {
        "identity_theft" => &[
            "credit card fraud",
            "government documents or benefits fraud",
            "loan or lease fraud",
            "employment or tax-related fraud",
            "phone or utilities fraud",
            "bank fraud",
        ],
        "fraud" => &[
            "imposter scams",
            "online shopping",
            "prizes sweepstakes and lotteries",
            "internet services",
            "telephone and mobile services",
        ],
        _ => &[
            "debt collection",
            "credit bureaus",
            "banks and lenders",
            "auto related",
        ],
    };
    let year_total = series
        .iter()
        .find(|(y, _)| *y == year)
        .map(|(_, t)| *t)
        .unwrap_or(1_000_000);
    let mut remaining = if category == "identity_theft" {
        year_total
    } else {
        (year_total as f64 * rng.range_f64(1.5, 2.5)) as i64
    };
    for subtype in subtypes {
        let part = (remaining as f64 * rng.range_f64(0.15, 0.4)) as i64;
        remaining -= part;
        content.push_str(&format!("{subtype},{part}\n"));
    }
    // Identity-theft breakdowns for a single year are moderately hard
    // negatives: they are about identity theft but cannot give both years.
    let difficulty = if category == "identity_theft" {
        0.35
    } else {
        0.1
    };
    Document::new(format!("sentinel_category_{category}_{year}.csv"), content)
        .with_label("gt_idtheft_filter", false)
        .with_label("difficulty", difficulty)
}

fn readme() -> Document {
    Document::new(
        "README.txt",
        "Consumer Sentinel Network data extract.\n\n\
         Files:\n\
         - sentinel_national_reports_by_year_2001_2024.csv: national totals by year\n\
         - sentinel_state_<state>_<year>.csv: per-state category breakdowns\n\
         - sentinel_annual_report_<year>.html: annual data book pages\n\
         - sentinel_category_<category>_<year>.csv: national category breakdowns\n",
    )
    .with_label("gt_idtheft_filter", false)
    .with_label("difficulty", 0.05)
}

/// Registers the legal workload's oracle rule: semantic filters asking for
/// national identity-theft statistics resolve against the planted
/// `gt_idtheft_filter` labels.
pub fn register_oracle(llm: &SimLlm) {
    llm.oracle().register(Arc::new(FnRule::new(
        "legal-idtheft-filter",
        |instruction, subject| {
            let lower = instruction.to_ascii_lowercase();
            if !lower.contains("identity theft") {
                return None;
            }
            // Extraction-style oracle queries ("… :: field") are answered by
            // reading the content, not by the filter label.
            if lower.contains(" :: ") {
                return None;
            }
            subject
                .label("gt_idtheft_filter")
                .map(|v| OracleAnswer::Bool(v.truthy()))
        },
    )));
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_llm::oracle::Subject;
    use aida_llm::{LlmTask, ModelId};

    #[test]
    fn lake_has_exactly_132_files() {
        let w = generate(1);
        assert_eq!(w.lake.len(), 132);
    }

    #[test]
    fn ground_truth_is_seed_independent() {
        let a = generate(1);
        let b = generate(999);
        assert_eq!(a.truth, b.truth);
        let nat_a = a.lake.get(NATIONAL_FILE).unwrap();
        let nat_b = b.lake.get(NATIONAL_FILE).unwrap();
        assert_eq!(nat_a.content, nat_b.content);
    }

    #[test]
    fn national_file_answers_the_query() {
        let w = generate(7);
        let doc = w.lake.get(NATIONAL_FILE).unwrap();
        let tables = doc.tables().unwrap();
        let t = &tables[0];
        let year = t.schema().index_of("year").unwrap();
        let reports = t.schema().index_of("identity_theft_reports").unwrap();
        let thefts_in = |y: i64| {
            let row = t
                .rows()
                .iter()
                .find(|r| r[year] == aida_data::Value::Int(y));
            row.unwrap()[reports].clone()
        };
        let (thefts_2024, thefts_2001) = (thefts_in(2024), thefts_in(2001));
        let ratio = thefts_2024.as_float().unwrap() / thefts_2001.as_float().unwrap();
        assert!((ratio - true_ratio()).abs() < 1e-9);
    }

    #[test]
    fn series_is_monotone_enough_and_anchored() {
        let s = theft_series();
        assert_eq!(s.len(), 24);
        assert_eq!(s[0], (2001, THEFTS_FIRST));
        assert_eq!(s[23], (2024, THEFTS_LAST));
        // Roughly increasing: each interior point within wiggle of trend.
        for w in s.windows(4) {
            assert!(w[3].1 > w[0].1, "series should trend upward: {w:?}");
        }
    }

    #[test]
    fn only_national_file_is_labeled_positive() {
        let w = generate(3);
        let positives: Vec<_> = w
            .lake
            .docs()
            .iter()
            .filter(|d| d.label("gt_idtheft_filter").is_some_and(|v| v.truthy()))
            .collect();
        assert_eq!(positives.len(), 1);
        assert_eq!(positives[0].name, NATIONAL_FILE);
    }

    #[test]
    fn annual_reports_have_per100k_not_totals() {
        let w = generate(3);
        let page = w.lake.get("sentinel_annual_report_2024.html").unwrap();
        assert!(page.content.contains("per 100,000"));
        // The true total must not appear verbatim in the trap pages.
        assert!(!page.content.contains("1135291"));
        assert!(!page.content.contains("1,135,291"));
    }

    #[test]
    fn oracle_rule_resolves_filter_against_labels() {
        let w = generate(5);
        let llm = SimLlm::new(5);
        register_oracle(&llm);
        let national = w.lake.get(NATIONAL_FILE).unwrap();
        let resp = llm.invoke(
            ModelId::Flagship,
            &LlmTask::Filter {
                instruction:
                    "the file contains national identity theft report statistics covering \
                     both 2001 and 2024",
                subject: Subject::doc(national),
            },
        );
        assert_eq!(resp.value, aida_data::Value::Bool(true));
        let state = w.lake.get("sentinel_state_alabama_2024.csv").unwrap();
        let resp = llm.invoke(
            ModelId::Flagship,
            &LlmTask::Filter {
                instruction:
                    "the file contains national identity theft report statistics covering \
                     both 2001 and 2024",
                subject: Subject::doc(state),
            },
        );
        // Flagship on a 0.3-difficulty subject is almost always right.
        if !resp.corrupted {
            assert_eq!(resp.value, aida_data::Value::Bool(false));
        }
    }

    #[test]
    fn scaled_generation_grows_linearly() {
        let w = generate_scaled(1, 100);
        assert_eq!(w.lake.len(), 1 + 200 + 24 + 6 + 1);
        // Names stay unique past 50 states.
        let names = w.lake.names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn state_files_are_plausibly_sized() {
        let w = generate(2);
        let doc = w.lake.get("sentinel_state_texas_2024.csv").unwrap();
        assert!(doc.size() > 400, "state file too small: {}", doc.size());
        assert!(doc.content.contains("identity theft"));
    }
}
