//! Shared harness for the script integration tests: recording host
//! tools, observation of a run on the VM or on the independent oracle
//! ([`oracle`]), and the generated program matrix used by both the
//! differential suite (`differential.rs`) and the static cost-bound
//! soundness suite (`bounds_soundness.rs`).
#![allow(dead_code)]

pub mod oracle;

use aida_script::bytecode::compile_source;
use aida_script::{Interpreter, ScriptValue};
use oracle::{Oracle, Value};
use std::cell::RefCell;
use std::fmt::Display;
use std::rc::Rc;

/// Everything observable about one program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// `Ok: <value>` or `Err: <error display>`.
    pub result: String,
    /// Host (tool) calls in order, with rendered arguments.
    pub trace: Vec<String>,
    /// Captured `print` lines.
    pub output: Vec<String>,
    /// Fuel left after the run.
    pub fuel_remaining: u64,
}

impl Observed {
    /// True when the run completed (did not error or exhaust fuel).
    pub fn completed(&self) -> bool {
        self.result.starts_with("Ok: ")
    }

    /// Number of calls to `tool` in the recorded trace.
    pub fn calls_to(&self, tool: &str) -> u64 {
        self.trace
            .iter()
            .filter(|t| {
                t.strip_prefix(tool)
                    .is_some_and(|rest| rest.starts_with('(') || rest.starts_with('/'))
            })
            .count() as u64
    }
}

/// The recording tool set every harness run binds.
pub const HARNESS_TOOLS: &[&str] = &["list_files", "read_file", "emit", "final_answer"];

/// What `list_files` returns.
const LISTED: [&str; 3] = ["a.csv", "b.csv", "notes.txt"];

/// What `read_file` returns for `name`.
fn file_text(name: &str) -> &'static str {
    match name {
        "a.csv" => "year,count\n2001,10\n2002,30",
        "b.csv" => "year,count\n2001,5",
        "thefts.csv" => "year,identity theft,fraud\n2001, 86250,325519\n2024,1135291,2600000\n",
        "rates_2024.txt" => "Nationwide, a rate of 16.25 reports per 1,000 residents.",
        "rates_2001.txt" => "In 2001 the rate of 3.25 reports per 1,000 residents held.",
        _ => "plain text notes",
    }
}

pub type Trace = Rc<RefCell<Vec<String>>>;

/// The trace line of a call to `tool` with rendered arguments.
fn call_line(tool: &str, args: Vec<String>) -> String {
    format!("{tool}({})", args.join(", "))
}

/// Binds the recording tools on a VM interpreter.
pub fn instrument(interp: &mut Interpreter, trace: Trace) {
    let t = trace.clone();
    interp.bind_host_fn("list_files", move |args| {
        t.borrow_mut().push(format!("list_files/{}", args.len()));
        Ok(ScriptValue::list(
            LISTED.iter().map(|f| ScriptValue::str(*f)).collect(),
        ))
    });
    let t = trace.clone();
    interp.bind_host_fn("read_file", move |args| {
        let name = args[0].as_str()?.to_string();
        t.borrow_mut().push(format!("read_file({name})"));
        Ok(ScriptValue::str(file_text(&name)))
    });
    for tool in ["emit", "final_answer"] {
        let t = trace.clone();
        interp.bind_host_fn(tool, move |args| {
            let args = args.iter().map(ScriptValue::to_string).collect();
            t.borrow_mut().push(call_line(tool, args));
            Ok(ScriptValue::None)
        });
    }
}

/// Binds the same recording tools on the oracle.
fn instrument_oracle(oracle: &mut Oracle, trace: Trace) {
    let t = trace.clone();
    oracle.tool(
        "list_files",
        Box::new(move |args| {
            t.borrow_mut().push(format!("list_files/{}", args.len()));
            Ok(Value::list(LISTED.iter().map(|f| Value::str(f)).collect()))
        }),
    );
    let t = trace.clone();
    oracle.tool(
        "read_file",
        Box::new(move |args| {
            let Value::Str(name) = &args[0] else {
                let found = args[0].type_name();
                return Err(oracle::Error::Tool(format!("expected str, found {found}")));
            };
            t.borrow_mut().push(format!("read_file({name})"));
            Ok(Value::str(file_text(name)))
        }),
    );
    for tool in ["emit", "final_answer"] {
        let t = trace.clone();
        oracle.tool(
            tool,
            Box::new(move |args| {
                let args = args.iter().map(Value::to_string).collect();
                t.borrow_mut().push(call_line(tool, args));
                Ok(Value::None)
            }),
        );
    }
}

fn render(result: Result<impl Display, impl Display>) -> String {
    match result {
        Ok(v) => format!("Ok: {v}"),
        Err(e) => format!("Err: {e}"),
    }
}

/// Runs `programs` in order on one VM interpreter (globals and functions
/// carry over), observing each.
pub fn observe_vm_session(programs: &[&str], fuel: u64) -> Vec<Observed> {
    let trace = Trace::default();
    let mut interp = Interpreter::new().with_fuel(fuel);
    instrument(&mut interp, trace.clone());
    programs
        .iter()
        .map(|src| Observed {
            result: render(compile_source(src).and_then(|p| interp.run_compiled(&p))),
            trace: trace.take(),
            output: interp.take_output(),
            fuel_remaining: interp.fuel_remaining(),
        })
        .collect()
}

/// [`observe_vm_session`] on the oracle.
pub fn observe_oracle_session(programs: &[&str], fuel: u64) -> Vec<Observed> {
    let trace = Trace::default();
    let mut oracle = Oracle::new(fuel);
    instrument_oracle(&mut oracle, trace.clone());
    programs
        .iter()
        .map(|src| Observed {
            result: match aida_script::parser::parse(src) {
                Ok(program) => render(oracle.run(&program)),
                Err(e) => format!("Err: {e}"),
            },
            trace: trace.take(),
            output: std::mem::take(&mut oracle.output),
            fuel_remaining: oracle.fuel,
        })
        .collect()
}

pub fn observe_vm(src: &str, fuel: u64) -> Observed {
    observe_vm_session(&[src], fuel).remove(0)
}

pub fn observe_oracle(src: &str, fuel: u64) -> Observed {
    observe_oracle_session(&[src], fuel).remove(0)
}

/// The generated program matrix: statement templates whose rendering
/// always parses. Runtime errors are fine — the differential suite
/// requires identical errors, and the soundness suite only obligates
/// completing runs.
pub mod templates {
    use proptest::prelude::*;

    /// A generated statement template.
    #[derive(Debug, Clone)]
    pub enum Tpl {
        AssignInt(u8, i64),
        AssignStr(u8, String),
        AssignList(u8, Vec<i64>),
        Arith(u8, u8, u8, u8),
        Concat(u8, u8, u8),
        AugAdd(u8, i64),
        IfElse(u8, i64, Box<Tpl>, Box<Tpl>),
        ForRange(u8, u8, Box<Tpl>),
        ForList(u8, u8, Box<Tpl>),
        WhileCount(u8, u8, Box<Tpl>),
        ListComp(u8, u8, u8),
        IndexGet(u8, u8, i64),
        SliceGet(u8, u8, i64, i64),
        Method(u8, u8, u8),
        DefCall(u8, u8, i64),
        Tool(u8, u8),
        Print(u8),
        Emit(u8),
        Result(u8),
    }

    fn var(i: u8) -> String {
        format!("v{}", i % 5)
    }

    fn op(i: u8) -> &'static str {
        ["+", "-", "*", "//", "%"][i as usize % 5]
    }

    impl Tpl {
        fn render(&self, out: &mut String, indent: usize) {
            let pad = "    ".repeat(indent);
            match self {
                Tpl::AssignInt(v, n) => out.push_str(&format!("{pad}{} = {n}\n", var(*v))),
                Tpl::AssignStr(v, s) => out.push_str(&format!("{pad}{} = '{s}'\n", var(*v))),
                Tpl::AssignList(v, items) => {
                    let body: Vec<String> = items.iter().map(|n| n.to_string()).collect();
                    out.push_str(&format!("{pad}{} = [{}]\n", var(*v), body.join(", ")));
                }
                Tpl::Arith(d, a, b, o) => out.push_str(&format!(
                    "{pad}{} = {} {} {}\n",
                    var(*d),
                    var(*a),
                    op(*o),
                    var(*b)
                )),
                Tpl::Concat(d, a, b) => out.push_str(&format!(
                    "{pad}{} = str({}) + str({})\n",
                    var(*d),
                    var(*a),
                    var(*b)
                )),
                Tpl::AugAdd(v, n) => out.push_str(&format!("{pad}{} += {n}\n", var(*v))),
                Tpl::IfElse(v, n, t, e) => {
                    out.push_str(&format!("{pad}if {} > {n}:\n", var(*v)));
                    t.render(out, indent + 1);
                    out.push_str(&format!("{pad}else:\n"));
                    e.render(out, indent + 1);
                }
                Tpl::ForRange(v, n, body) => {
                    out.push_str(&format!("{pad}for {} in range({}):\n", var(*v), n % 6));
                    body.render(out, indent + 1);
                }
                Tpl::ForList(v, src, body) => {
                    out.push_str(&format!("{pad}for {} in {}:\n", var(*v), var(*src)));
                    body.render(out, indent + 1);
                }
                Tpl::WhileCount(v, n, body) => {
                    out.push_str(&format!("{pad}{} = 0\n", var(*v)));
                    out.push_str(&format!("{pad}while {} < {}:\n", var(*v), n % 5));
                    body.render(out, indent + 1);
                    out.push_str(&format!("{pad}    {} += 1\n", var(*v)));
                }
                Tpl::ListComp(d, v, n) => out.push_str(&format!(
                    "{pad}{} = [{x} * 2 for {x} in range({}) if {x} != {}]\n",
                    var(*d),
                    n % 7,
                    n % 3,
                    x = var(*v)
                )),
                Tpl::IndexGet(d, s, i) => {
                    out.push_str(&format!("{pad}{} = {}[{i}]\n", var(*d), var(*s)))
                }
                Tpl::SliceGet(d, s, lo, hi) => {
                    out.push_str(&format!("{pad}{} = {}[{lo}:{hi}]\n", var(*d), var(*s)))
                }
                Tpl::Method(d, s, m) => {
                    let call = ["str({v}).upper()", "str({v}).split('2')", "len(str({v}))"]
                        [*m as usize % 3]
                        .replace("{v}", &var(*s));
                    out.push_str(&format!("{pad}{} = {call}\n", var(*d)));
                }
                Tpl::DefCall(d, a, n) => {
                    let f = format!("fn{}", d % 3);
                    out.push_str(&format!("{pad}def {f}(p):\n{pad}    return p + {n}\n"));
                    out.push_str(&format!("{pad}{} = {f}({})\n", var(*d), var(*a)));
                }
                Tpl::Tool(d, f) => {
                    let call = ["list_files()", "read_file('a.csv')", "read_file('nope')"]
                        [*f as usize % 3];
                    out.push_str(&format!("{pad}{} = {call}\n", var(*d)));
                }
                Tpl::Print(v) => out.push_str(&format!("{pad}print({})\n", var(*v))),
                Tpl::Emit(v) => out.push_str(&format!("{pad}emit({})\n", var(*v))),
                Tpl::Result(v) => out.push_str(&format!("{pad}{}\n", var(*v))),
            }
        }
    }

    fn leaf() -> impl Strategy<Value = Tpl> {
        prop_oneof![
            (0u8..5, -50i64..50).prop_map(|(v, n)| Tpl::AssignInt(v, n)),
            (0u8..5, "[a-z]{1,6}").prop_map(|(v, s)| Tpl::AssignStr(v, s)),
            (0u8..5, prop::collection::vec(-9i64..9, 0..4))
                .prop_map(|(v, xs)| Tpl::AssignList(v, xs)),
            (0u8..5, 0u8..5, 0u8..5, 0u8..5).prop_map(|(d, a, b, o)| Tpl::Arith(d, a, b, o)),
            (0u8..5, 0u8..5, 0u8..5).prop_map(|(d, a, b)| Tpl::Concat(d, a, b)),
            (0u8..5, -5i64..5).prop_map(|(v, n)| Tpl::AugAdd(v, n)),
            (0u8..5, 0u8..8, 0u8..8).prop_map(|(d, v, n)| Tpl::ListComp(d, v, n)),
            (0u8..5, 0u8..5, -4i64..4).prop_map(|(d, s, i)| Tpl::IndexGet(d, s, i)),
            (0u8..5, 0u8..5, -4i64..4, -4i64..6)
                .prop_map(|(d, s, lo, hi)| Tpl::SliceGet(d, s, lo, hi)),
            (0u8..5, 0u8..5, 0u8..3).prop_map(|(d, s, m)| Tpl::Method(d, s, m)),
            (0u8..5, 0u8..5, -9i64..9).prop_map(|(d, a, n)| Tpl::DefCall(d, a, n)),
            (0u8..5, 0u8..3).prop_map(|(d, f)| Tpl::Tool(d, f)),
            (0u8..5).prop_map(Tpl::Print),
            (0u8..5).prop_map(Tpl::Emit),
            (0u8..5).prop_map(Tpl::Result),
        ]
    }

    pub fn tpl() -> impl Strategy<Value = Tpl> {
        leaf().prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (0u8..5, -5i64..5, inner.clone(), inner.clone())
                    .prop_map(|(v, n, t, e)| Tpl::IfElse(v, n, Box::new(t), Box::new(e))),
                (0u8..5, 0u8..8, inner.clone()).prop_map(|(v, n, b)| Tpl::ForRange(
                    v,
                    n,
                    Box::new(b)
                )),
                (0u8..5, 0u8..5, inner.clone()).prop_map(|(v, s, b)| Tpl::ForList(
                    v,
                    s,
                    Box::new(b)
                )),
                (0u8..5, 0u8..6, inner).prop_map(|(v, n, b)| Tpl::WhileCount(v, n, Box::new(b))),
            ]
        })
    }

    pub fn render_program(stmts: &[Tpl]) -> String {
        // Seed every variable so generated reads have *some* value on
        // most paths; use-before-assign programs are still generated via
        // shadowing in bodies, which is exactly the point.
        String::from("v0 = 1\nv1 = 2\nv2 = 'ab'\nv3 = [1, 2, 3]\nv4 = 7\n")
            + &render_statements(stmts)
    }

    /// The statements alone, unseeded: as a later program of a session,
    /// they read the variables an earlier one left.
    pub fn render_statements(stmts: &[Tpl]) -> String {
        let mut src = String::new();
        for t in stmts {
            t.render(&mut src, 0);
        }
        src
    }
}
