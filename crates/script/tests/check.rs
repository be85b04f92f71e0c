//! The front-end pass must reject every bad-program fixture *before*
//! executing anything: a bound `probe()` tool records whether execution
//! ever started, and rejection means it never fires. This is the
//! crate-level half of the zero-spend guarantee the agents runtime
//! builds on (its own tests assert $0.00 and zero virtual latency).

use aida_script::{Interpreter, ScriptError, ScriptValue};
use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/bad")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// An interpreter with a `probe` tool that counts its invocations.
fn probed_interp() -> (Interpreter, Rc<Cell<u32>>) {
    let calls = Rc::new(Cell::new(0u32));
    let seen = calls.clone();
    let mut interp = Interpreter::new();
    interp.bind_host_fn("probe", move |_args| {
        seen.set(seen.get() + 1);
        Ok(ScriptValue::None)
    });
    (interp, calls)
}

/// Runs `source` only when the front end accepts it.
fn checked_run(interp: &mut Interpreter, source: &str) -> Result<ScriptValue, ScriptError> {
    match interp.check_source(source) {
        Some(err) => Err(err),
        None => interp.run(source),
    }
}

#[test]
fn every_bad_fixture_is_rejected_before_execution() {
    let fixtures = [
        "unknown_tool.pyr",
        "undefined_name.pyr",
        "unbounded_loop.pyr",
        "syntax_error.pyr",
    ];
    for name in fixtures {
        let src = fixture(name);
        let (mut interp, calls) = probed_interp();
        let err = checked_run(&mut interp, &src).expect_err(&format!("{name} must be rejected"));
        assert!(
            matches!(
                err,
                ScriptError::Static { .. } | ScriptError::Parse { .. } | ScriptError::Lex { .. }
            ),
            "{name}: unexpected error class {err:?}"
        );
        assert_eq!(
            calls.get(),
            0,
            "{name}: probe() ran — the program executed before rejection"
        );
    }
}

#[test]
fn rejection_reports_a_line_and_reason() {
    let (mut interp, _) = probed_interp();
    let err = checked_run(&mut interp, &fixture("unknown_tool.pyr")).expect_err("rejected");
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("serch_docs"), "{msg}");
    // The message lists what IS available, so a planner can self-correct.
    assert!(msg.contains("probe"), "{msg}");
}

#[test]
fn good_program_passes_the_check_and_runs() {
    let (mut interp, calls) = probed_interp();
    let value =
        checked_run(&mut interp, "probe()\nxs = [1, 2, 3]\nsum(xs)").expect("clean program runs");
    assert_eq!(value, ScriptValue::Int(6));
    assert_eq!(calls.get(), 1);
}

#[test]
fn globals_left_by_earlier_runs_are_defined() {
    let (mut interp, _) = probed_interp();
    assert!(interp.check_source("n + 1").is_some());
    interp.run("n = 41").expect("runs");
    assert!(interp.check_source("n + 1").is_none());
    assert_eq!(interp.global_names().into_iter().collect::<Vec<_>>(), ["n"]);
}

#[test]
fn check_source_reports_the_parse_error_itself() {
    let (interp, _) = probed_interp();
    let err = interp
        .check_source(&fixture("syntax_error.pyr"))
        .expect("rejected");
    assert!(
        matches!(err, ScriptError::Lex { .. } | ScriptError::Parse { .. }),
        "{err:?}"
    );
}
