//! Verdict pin for the front-end check.
//!
//! `fixtures/typecheck_verdicts.jsonl` holds one program per line with
//! the environment it was checked in and the verdict the previous
//! front end (an AST walk, since deleted) gave it: `ok`, or the error's
//! class, line and message. The corpus is the script fixtures, the
//! diagnostic cases, agent steps captured from the table experiments,
//! generated template programs, ill-typed mutants of every diagnostic
//! class and programs with statements after `return`/`break`/`continue`.
//! The verdicts were taken before the walk was deleted. The check that
//! replaced it must reproduce each one, or differ for a reason the test
//! can show ([`Change`]), and the number of lines in each bucket is
//! pinned.

use aida_script::{Bound, ScriptError, Ty, TypeEnv};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A JSON value, as much of JSON as the fixture uses.
#[derive(Debug, Clone)]
enum Json {
    Str(String),
    Num(u64),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    fn value(b: &[char], i: &mut usize) -> Json {
        match b[*i] {
            '"' => {
                *i += 1;
                let mut s = String::new();
                while b[*i] != '"' {
                    if b[*i] == '\\' {
                        *i += 1;
                        match b[*i] {
                            'n' => s.push('\n'),
                            't' => s.push('\t'),
                            'u' => {
                                let hex: String = b[*i + 1..*i + 5].iter().collect();
                                let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                                s.push(char::from_u32(code).expect("scalar"));
                                *i += 4;
                            }
                            c => s.push(c),
                        }
                    } else {
                        s.push(b[*i]);
                    }
                    *i += 1;
                }
                *i += 1;
                Json::Str(s)
            }
            '[' | '{' => {
                let object = b[*i] == '{';
                *i += 1;
                let mut items = Vec::new();
                let mut fields = Vec::new();
                while b[*i] != ']' && b[*i] != '}' {
                    if b[*i] == ',' {
                        *i += 1;
                    }
                    if object {
                        let Json::Str(key) = value(b, i) else {
                            panic!("object key");
                        };
                        *i += 1; // ':'
                        fields.push((key, value(b, i)));
                    } else {
                        items.push(value(b, i));
                    }
                }
                *i += 1;
                if object {
                    Json::Obj(fields)
                } else {
                    Json::Arr(items)
                }
            }
            _ => {
                let start = *i;
                while b[*i].is_ascii_digit() {
                    *i += 1;
                }
                Json::Num(
                    b[start..*i]
                        .iter()
                        .collect::<String>()
                        .parse()
                        .expect("number"),
                )
            }
        }
    }
    let chars: Vec<char> = text.chars().collect();
    value(&chars, &mut 0)
}

/// The tool sets the corpus names by `env`.
fn named_tools(env: &str) -> &'static [(&'static str, &'static str)] {
    match env {
        "types" => &[
            ("read_file", "read_file(name: str) -> str"),
            ("list_files", "list_files() -> list[str]"),
            (
                "search_keywords",
                "search_keywords(query: str, k: int) -> list[str]",
            ),
            ("final_answer", "final_answer(answer) -> None"),
        ],
        "std" => &[
            ("read_file", "read_file(name: str) -> str"),
            ("list_files", "list_files() -> list[str]"),
            (
                "search_keywords",
                "search_keywords(query: str, k: int) -> list[str]",
            ),
            ("final_answer", "final_answer(answer) -> None"),
            ("emit", "emit(value) -> None"),
        ],
        // Registered without signatures, like `Interpreter::check_source`.
        "unchecked" => &[
            ("read_file", ""),
            ("list_files", ""),
            ("search_keywords", ""),
            ("final_answer", ""),
            ("emit", ""),
            ("probe", ""),
        ],
        other => panic!("unknown env {other}"),
    }
}

struct Case {
    src: String,
    env: TypeEnv,
    /// `(class, line, message)`; class `ok` has line 0 and no message.
    verdict: (String, usize, String),
}

fn corpus() -> Vec<Case> {
    let text = include_str!("fixtures/typecheck_verdicts.jsonl");
    text.lines()
        .map(|line| {
            let v = parse_json(line);
            let mut env = TypeEnv::new();
            if v.get("env").str() == "inline" {
                for pair in v.get("tools").arr() {
                    env.add_tool_signature(pair.arr()[0].str(), pair.arr()[1].str());
                }
            } else {
                for (name, sig) in named_tools(v.get("env").str()) {
                    env.add_tool_signature(name, sig);
                }
            }
            for g in v.get("globals").arr() {
                env.bind_global(g.str(), Ty::Any);
            }
            let Json::Num(n) = v.get("line") else {
                panic!("line");
            };
            Case {
                src: v.get("src").str().to_string(),
                env,
                verdict: (
                    v.get("class").str().to_string(),
                    *n as usize,
                    v.get("message").str().to_string(),
                ),
            }
        })
        .collect()
}

fn verdict_of(case: &Case) -> (String, usize, String) {
    let res = aida_script::parser::parse(&case.src)
        .and_then(|program| aida_script::typecheck(&program, &case.env));
    match res {
        Ok(()) => ("ok".into(), 0, String::new()),
        Err(ScriptError::Type { line, message }) => ("type".into(), line, message),
        Err(ScriptError::Static { line, message }) => ("static".into(), line, message),
        Err(e) => ("other".into(), 0, e.to_string()),
    }
}

/// Why a verdict may differ from the pinned one. The previous walk
/// carried its own copy of the VM's type rules and coarser facts; the
/// check now runs the VM's kernels on the dataflow's solved states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Change {
    /// The message names `NoneType`, as the VM does, where the old copy
    /// of its rules said `None`.
    NoneType,
    /// The VM, running the program, raises exactly the new error (a
    /// name error for a use before assignment, an exhausted budget for
    /// an endless loop).
    VmRaises,
    /// The program is now accepted, and the VM does not raise the old
    /// error: the walk rejected what the VM runs (a bool index, a list
    /// comparison), or only reached it in dead code.
    VmRuns,
    /// Listed in [`PATH_DEPENDENT`].
    Listed,
}

/// Fuel for one VM run of a corpus program.
const VM_FUEL: u64 = 20_000;

/// Runs `src` on the VM, with stub tools for every tool the case's
/// environment registers; returns the result, the fuel charged and the
/// calls to each tool.
fn vm_run(case: &Case) -> (Result<(), ScriptError>, u64, BTreeMap<String, u64>) {
    use aida_script::{Interpreter, ScriptValue};
    let calls = Rc::new(RefCell::new(BTreeMap::new()));
    let mut interp = Interpreter::new().with_fuel(VM_FUEL);
    for name in case.env.tools.keys() {
        let result = match name.as_str() {
            "list_files" | "search_keywords" => ScriptValue::list(vec![ScriptValue::str("a.csv")]),
            "read_file" => ScriptValue::str("x,y\n1,2"),
            _ => ScriptValue::None,
        };
        let (calls, tool) = (calls.clone(), name.clone());
        interp.bind_host_fn(name, move |_| {
            *calls.borrow_mut().entry(tool.clone()).or_insert(0) += 1;
            Ok(result.clone())
        });
    }
    let result = interp.run(&case.src).map(drop);
    let calls = calls.borrow().clone();
    (result, VM_FUEL - interp.fuel_remaining(), calls)
}

/// The VM's outcome on `src`, as a verdict triple.
fn vm_outcome(case: &Case) -> (String, usize, String) {
    match vm_run(case).0 {
        Ok(()) => ("ok".into(), 0, String::new()),
        Err(ScriptError::Type { line, message }) => ("type".into(), line, message),
        Err(ScriptError::Name { line, .. }) => ("name".into(), line, String::new()),
        Err(ScriptError::FuelExhausted) => ("fuel".into(), 0, String::new()),
        Err(e) => ("other".into(), 0, e.to_string()),
    }
}

/// The reason a changed verdict is right, when one can be shown.
fn explain(i: usize, case: &Case, now: &(String, usize, String)) -> Option<Change> {
    let pinned = &case.verdict;
    if (pinned.0.as_str(), pinned.1) == (now.0.as_str(), now.1)
        && pinned.2.replace("None", "NoneType") == now.2
    {
        return Some(Change::NoneType);
    }
    if PATH_DEPENDENT.binary_search(&i).is_ok() {
        return Some(Change::Listed);
    }
    // Sessions bind globals the VM has no values for.
    if !case.env.globals.is_empty() {
        return None;
    }
    let vm = vm_outcome(case);
    let raises = match now.0.as_str() {
        "type" if now.2.ends_with("used before assignment") => {
            vm == ("name".into(), now.1, String::new())
        }
        "type" => vm == *now,
        "static" => now.2.starts_with("`while`") && vm.0 == "fuel",
        _ => false,
    };
    if raises {
        Some(Change::VmRaises)
    } else if now.0 == "ok" && vm != *pinned {
        Some(Change::VmRuns)
    } else {
        None
    }
}

#[test]
fn the_check_reproduces_the_pinned_verdicts() {
    let cases = corpus();
    let mut same = 0;
    let mut changes = std::collections::BTreeMap::<Change, usize>::new();
    let mut unexplained = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let now = verdict_of(case);
        if now == case.verdict {
            assert!(
                PATH_DEPENDENT.binary_search(&i).is_err(),
                "line {i} is listed but unchanged"
            );
            same += 1;
            continue;
        }
        match explain(i, case, &now) {
            Some(change) => *changes.entry(change).or_default() += 1,
            None => unexplained.push(format!(
                "line {i}:\n{}\n  pinned {:?}\n  now    {:?}",
                case.src, case.verdict, now
            )),
        }
    }
    assert!(
        unexplained.is_empty(),
        "{} unexplained verdict changes:\n{}",
        unexplained.len(),
        unexplained.join("\n")
    );
    // The counts pin the check's behaviour on the whole corpus: a change
    // to it moves a line between these buckets.
    assert_eq!(
        (same, changes),
        (
            SAME,
            [
                (Change::NoneType, NONE_TYPE),
                (Change::VmRaises, VM_RAISES),
                (Change::VmRuns, VM_RUNS),
                (Change::Listed, PATH_DEPENDENT.len()),
            ]
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .collect()
        )
    );
}

/// The content-hash pin: `fixtures/content_hashes.txt` holds, for every
/// corpus program that compiles under its environment, its corpus line
/// and [`aida_script::CompiledProgram::content_hash`] (`hi` then `lo`, in
/// hex), written by the compiler before any change to how the hash is
/// computed. The hash keys the semantic cache's planning calls, so a
/// change that moves one orphans every stored step.
#[test]
fn every_compiling_program_keeps_its_content_hash() {
    let mut now = String::new();
    for (i, case) in corpus().iter().enumerate() {
        let compiled = aida_script::parser::parse(&case.src)
            .and_then(|program| aida_script::compile_checked(&program, &case.env));
        if let Ok(program) = compiled {
            let (hi, lo) = program.content_hash();
            now.push_str(&format!("{i} {hi:016x}{lo:016x}\n"));
        }
    }
    let pinned = include_str!("fixtures/content_hashes.txt");
    assert_eq!(now.lines().count(), 3302, "programs that compile");
    for (now, pinned) in now.lines().zip(pinned.lines()) {
        assert_eq!(now, pinned, "corpus line and content hash");
    }
    assert_eq!(now.lines().count(), pinned.lines().count());
}

/// The cost-bound pin: `fixtures/cost_bounds.txt` holds, for every corpus
/// program that compiles under its environment, its corpus line and the
/// rendered [`aida_script::CostBound`] of a run in that environment. The
/// bound is what each agent step's trace (`StepTrace::bound`) and step
/// span (`bound` attribute) report, so a change to how loops are found
/// or costed must leave every line as it is.
#[test]
fn every_compiling_program_keeps_its_cost_bound() {
    let mut now = String::new();
    for (i, case) in corpus().iter().enumerate() {
        let compiled = aida_script::parser::parse(&case.src)
            .and_then(|program| aida_script::compile_checked(&program, &case.env));
        if let Ok(program) = compiled {
            now.push_str(&format!("{i} {}\n", program.bound.render()));
        }
    }
    let pinned = include_str!("fixtures/cost_bounds.txt");
    assert_eq!(now.lines().count(), 3302, "programs that compile");
    for (now, pinned) in now.lines().zip(pinned.lines()) {
        assert_eq!(now, pinned, "corpus line and cost bound");
    }
    assert_eq!(now.lines().count(), pinned.lines().count());
}

/// The pinned bounds hold: every corpus program that compiles in an
/// environment without globals (the VM has no values for them) and
/// completes on the VM with stub tools charges no more fuel, and calls no
/// tool more often, than its bound allows.
#[test]
fn every_completing_program_stays_within_its_cost_bound() {
    let mut checked = 0;
    for (i, case) in corpus().iter().enumerate() {
        let compiled = aida_script::parser::parse(&case.src)
            .and_then(|program| aida_script::compile_checked(&program, &case.env));
        let (Ok(program), true) = (compiled, case.env.globals.is_empty()) else {
            continue;
        };
        let (result, fuel, calls) = vm_run(case);
        if result.is_err() {
            continue;
        }
        checked += 1;
        let b = &program.bound;
        assert!(
            b.fuel_max >= Bound::Finite(fuel),
            "line {i}: fuel {fuel}, {b:?}"
        );
        for (tool, n) in calls {
            let max = match b.calls_open {
                true => Bound::Unbounded,
                false => b
                    .calls_per_tool
                    .get(&tool)
                    .copied()
                    .unwrap_or(Bound::Finite(0)),
            };
            assert!(
                max >= Bound::Finite(n),
                "line {i}: {n} calls to {tool}, {b:?}"
            );
        }
    }
    assert_eq!(checked, CHECKED_RUNS, "programs that compile and complete");
}

const CHECKED_RUNS: usize = 2510;
const SAME: usize = 9036;
const NONE_TYPE: usize = 419;
const VM_RAISES: usize = 642;
const VM_RUNS: usize = 71;

/// Corpus lines whose new verdict is an error that is definite on a path
/// the VM run with stub tools does not take: a loop that runs zero
/// times, an untaken branch, a statement after `return`/`break`/
/// `continue` (checked with the facts of the statements before it), a
/// point past a value-dependent error, or one an earlier false positive
/// of the old walk hid.
const PATH_DEPENDENT: &[usize] = &[
    38, 249, 408, 462, 518, 524, 547, 574, 586, 636, 665, 668, 684, 691, 711, 732, 743, 781, 794,
    891, 1002, 1006, 1008, 1014, 1043, 1049, 1122, 1204, 1253, 1256, 1261, 1297, 1309, 1343, 1368,
    1373, 1461, 1462, 1471, 1503, 1507, 1524, 1530, 1560, 1587, 1682, 1683, 1695, 1866, 1875, 1885,
    1888, 1964, 1997, 2031, 2050, 2114, 2179, 2218, 2230, 2267, 2302, 2382, 2505, 2540, 2542, 2572,
    2597, 2614, 2642, 2646, 2648, 2671, 2729, 2746, 2793, 2812, 2852, 2856, 2861, 2862, 2950, 2992,
    3072, 3113, 3135, 3150, 3210, 3287, 3358, 3370, 3374, 3380, 3466, 3474, 3503, 3526, 3529, 3564,
    3598, 3610, 3642, 3731, 3787, 3825, 3829, 3831, 3834, 3970, 4044, 4050, 4094, 4113, 4186, 4201,
    4204, 4284, 4295, 4304, 4311, 4312, 4332, 4433, 4484, 4526, 4537, 4648, 4795, 4804, 4847, 4861,
    4963, 5079, 5085, 5098, 5100, 5103, 5113, 5202, 5214, 5267, 5283, 5295, 5341, 5395, 7491, 7492,
    7493, 7494, 7551, 7552, 7553, 7554, 8621, 8625, 8629, 9669, 9689, 9716, 9722, 9763, 9771, 9776,
    9822, 9841, 9845, 9899, 9923, 9942, 9958, 9975, 9976, 9982, 9984, 10035, 10052, 10072, 10074,
    10084, 10095, 10107, 10108, 10122, 10145, 10153, 10160, 10167, 10171, 10175, 10232, 10255,
    10274, 10277, 10283, 10289, 10306, 10336, 10363, 10366,
];

/// The second relation, independent of the pinned corpus: on straight-line
/// programs every instruction runs in order, so a run that reaches a type
/// error the check reports raises exactly that error. A run may stop
/// before it, on an earlier line or earlier on the same one: on a
/// value-dependent error (an index out of range, a division by zero), or
/// on one the check cannot name (storing into an int with a key of
/// unknown type raises an error, but which message depends on the key).
mod straight_line {
    use super::*;
    use aida_script::Interpreter;
    use proptest::prelude::*;

    const LITERALS: &[&str] = &[
        "3", "-2", "0", "2.5", "'ab'", "''", "True", "None", "[1, 'a']", "[]", "{'k': 1}", "{}",
    ];
    const OPS: &[&str] = &[
        "+", "-", "*", "/", "//", "%", "<", "<=", "==", "!=", "in", "not in", "and", "or",
    ];

    fn var(i: u8) -> String {
        format!("v{}", i % 4)
    }

    /// One statement: `pick`'s bytes choose the template, the three
    /// variables and the literal, operator or method.
    fn statement(pick: u64) -> String {
        let [t, d, a, b, k, ..] = pick.to_le_bytes();
        let (d, a, b, k) = (var(d), var(a), var(b), k as usize);
        match t % 13 {
            0 => format!("{d} = {}", LITERALS[k % LITERALS.len()]),
            1 | 2 => format!("{d} = {a} {} {b}", OPS[k % OPS.len()]),
            3 => format!("{d} = -{a}"),
            4 => format!("{d} = not {a}"),
            5 => format!("{d} = {a}[{b}]"),
            6 => format!("{d} = {a}[0]"),
            7 => format!("{d} = {a}[{b}:]"),
            8 => format!("{a}[{b}] = {d}"),
            9 => format!("{d} = {a}.{}()", ["upper", "split", "pop", "keys"][k % 4]),
            10 => format!("{a}.{}({b})", ["append", "split", "get", "extend"][k % 4]),
            11 => format!("{d} = {a}({b})"),
            _ => format!("{d} = {{{a}: {b}}}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_reported_type_error_is_the_vms(
            stmts in prop::collection::vec(any::<u64>(), 1..8),
        ) {
            let mut src = String::from("v0 = 1\nv1 = 'ab'\nv2 = [1, 2]\nv3 = None\n");
            for s in stmts {
                src.push_str(&statement(s));
                src.push('\n');
            }
            let program = aida_script::parser::parse(&src).expect("templates parse");
            let Err(reported @ ScriptError::Type { .. }) = aida_script::typecheck(&program, &TypeEnv::new()) else {
                return Ok(());
            };
            let raised = Interpreter::new().run(&src).expect_err("the check reported a type error");
            let earlier = matches!(raised.line(), Some(l) if Some(l) <= reported.line());
            prop_assert!(raised == reported || earlier, "check: {}\nvm: {}\n{}", reported, raised, src);
        }
    }
}
