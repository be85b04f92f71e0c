//! Differential suite: the bytecode VM against an independent oracle.
//!
//! The oracle (`common/oracle.rs`) walks the parser's AST with its own
//! value type and kernels; it shares no execution code with the VM. For
//! every program (fixtures, the programs agent policies write,
//! multi-program sessions, generated programs) both run with the same
//! fuel budget and the same recording host tools, and must agree on:
//!
//! * the result — value or error, via `Display`,
//! * the host-function call sequence (tool-dispatch trace),
//! * captured `print` output,
//! * remaining fuel (virtual budget charged).
//!
//! A fuel-cutoff sweep additionally checks agreement at *every* possible
//! exhaustion point, and a round-trip property pins the serialized
//! artifact format.

use aida_script::bytecode::{compile_source, CompiledProgram};
use aida_script::{Interpreter, ToolSig, TypeEnv, BUILTIN_NAMES};
use std::cell::RefCell;
use std::rc::Rc;

mod common;
use common::{
    instrument, observe_oracle, observe_oracle_session, observe_vm, observe_vm_session, oracle,
    Observed,
};

#[track_caller]
fn assert_agree(src: &str, fuel: u64) -> Observed {
    let vm = observe_vm(src, fuel);
    assert_eq!(
        vm,
        observe_oracle(src, fuel),
        "VM and oracle diverged on:\n{src}"
    );
    vm
}

/// Agent-step-shaped fixtures: the program shapes the simulated planner
/// policies emit, plus targeted edge cases (errors included — both sides
/// must fail identically).
const FIXTURES: &[&str] = &[
    // CSV ratio scan (policy shape).
    "files = list_files()\ntotal = 0\nfor f in files:\n    if 'csv' in f:\n        text = read_file(f)\n        lines = text.splitlines()\n        for line in lines[1:]:\n            parts = line.split(',')\n            total += int(parts[1])\nemit(total)\ntotal",
    // Keyword filter with listcomp (policy shape).
    "files = list_files()\nhits = [f for f in files if 'csv' in f]\nfor f in hits:\n    print('FILE: ' + f)\nlen(hits)",
    // Helper function with slicing and split (policy shape).
    "def count(name):\n    text = read_file(name)\n    return len(text.split(','))\ntotals = [count(f) for f in list_files() if f != 'notes.txt']\nsum(totals)",
    // Dict accumulation.
    "counts = {}\nfor f in list_files():\n    ext = f.split('.')[1]\n    if ext in counts:\n        counts[ext] += 1\n    else:\n        counts[ext] = 1\nsorted(counts)",
    // While + break + continue.
    "n = 0\nacc = 0\nwhile True:\n    n += 1\n    if n > 20:\n        break\n    if n % 3 != 0:\n        continue\n    acc += n\nacc",
    // Nested functions, recursion, late binding.
    "def outer(n):\n    return inner(n) + 1\ndef inner(n):\n    if n == 0:\n        return 0\n    return outer(n - 1)\nouter(7)",
    // Multi-target for unpack.
    "pairs = [[1, 'a'], [2, 'b']]\nout = ''\nfor n, s in pairs:\n    out += s * n\nout",
    // String/negative indexing and slices.
    "s = 'hello world'\nemit(s[0], s[-1], s[2:5], s[:3], s[6:])\ns[4]",
    // Negative and out-of-range slice bounds and indexes.
    "xs = [1, 2, 3, 4, 5]\ns = 'hello'\nemit(xs[-2:], xs[:-3], xs[-9:2], xs[1:-1], s[-3:-1], s[:-9], s[-2:])\nemit(xs[-1], xs[-5], s[-5], xs[3:1])\nxs[-6]",
    // Aug-assign through an index, evaluated once.
    "d = {'k': 1}\nd['k'] += 41\nxs = [10, 20]\nxs[1] += 5\nxs[-1] += 1\nemit(d['k'], xs[1])\nd['k']",
    // Boolean short-circuit values (not just truthiness).
    "a = 0 or 'dflt'\nb = 'x' and 3\nemit(a, b)\n[a, b]",
    // Comprehension over string and dict.
    "d = {'b': 1, 'a': 2}\nks = [k for k in d]\ncs = [c for c in 'abc' if c != 'b']\nemit(ks, cs)\nlen(ks) + len(cs)",
    // Dict iteration order and dict methods.
    "d = {'b': 2, 'c': 3, 'a': 1}\nfor k in d:\n    emit(k)\nfor k, v in d.items():\n    print(k, v)\nemit(d.keys(), d.values(), d.get('z', 0), d.get('zz'))\nd",
    // String repetition, including empty and negative counts.
    "emit('ab' * 3, 'ab' * 0, '-' * -2, 3 * 'x')\n'z' * 2",
    // Splitting: separators at the ends, repeated, absent; whitespace.
    "emit('a,b,,c,'.split(','), '  a  b '.split(), 'abc'.split('x'), ',x'.split(','))\n'x1y1'.split('1')",
    // String methods.
    "s = ' Hello, World '\nemit(s.strip(), s.lower(), s.upper(), s.replace('l', 'L'), s.find('World'), s.find('zz'))\nemit(s.count('l'), s.count(''), s.startswith(' H'), s.endswith('x'), '-'.join(['a', 'b']))\nemit('12'.isdigit(), '1a'.isdigit(), ''.isdigit(), 'a\\nb\\n'.splitlines())\n'héllo'.find('l')",
    // List methods.
    "xs = [3, 1, 2]\nxs.append(5)\nxs.extend([0])\nxs.sort()\nemit(xs, xs.pop(), xs.pop(0), xs.index(2), xs.count(3))\nxs.reverse()\nxs",
    // Builtins.
    "emit(len('héllo'), str(2.0), int('1,234'), int(' 7 '), int('3.9'), int(2.9), float('2.5'), float(3))\nemit(bool(0), bool([1]), abs(-3), abs(-2.5), round(2.567, 2), round(2.5), round(7))\nemit(sum([1, 2.5]), sum([]), min(4, 2, 9), max([3, 9, 1]), sorted(['b', 'a']), enumerate(['x']))\nemit(range(5, 0, -2), range(3), range(1, 4), range(0))\n1000000.0 * 1000000000.0",
    // Arithmetic corners: float floor division, negative floor/mod, mixed.
    "emit(7 // 2.0, -7 // 2, -7 % 3, 7 / 2, 2 * 0.5, 1 - 2.5, 10 // -3)\n0.1 + 0.2",
    // Comparisons and membership.
    "emit(1 < 2.5, 'a' < 'b', [1, 2] < [1, 3], [1] < [1, 0], True == 1, 2 == 2.0, True < False)\nemit('b' in 'abc', 3 in [1, 3], 'k' in {'k': 1}, 'x' not in 'abc', [1, 'a'] == [1, 'a'])\n{'a': [1]} == {'a': [1]}",
    // Mutation through a function boundary (shared list identity).
    "def add(xs, v):\n    xs.append(v)\nitems = []\nadd(items, 1)\nadd(items, 2)\nitems",
    // Functions are values.
    "def inc(n):\n    return n + 1\nfs = [inc]\nemit(fs[0](1), inc)\nstr(inc)",
    // Top-level return ends the program early.
    "x = 1\nif x == 1:\n    return 'early'\nx = 2\nx",
    // print capture.
    "for i in range(3):\n    print('line', i, 1.5, None, True, [1, 'a'], {'k': 'v'})\n'done'",
    // --- error fixtures: both sides must produce identical errors ---
    // Name error inside a branch.
    "x = 1\nif x > 0:\n    y = missing_name\nx",
    // Type error: adding str and int.
    "a = 'x'\nb = a + 1\nb",
    // Break outside loop (caught at runtime, attributed to the statement).
    "x = 1\nbreak",
    // Break outside loop inside a function body.
    "def f():\n    if True:\n        break\nf()",
    // Arity mismatch on a user function.
    "def f(a, b):\n    return a\nf(1)",
    // Calling a non-callable.
    "x = 3\nx()",
    // Unpack length mismatch.
    "for a, b in [[1, 2, 3]]:\n    a",
    // Dict key type error.
    "d = {1: 'x'}\nd",
    // Division by zero.
    "x = 1 / 0\nx",
    // Recursion limit.
    "def f(n):\n    return f(n + 1)\nf(0)",
    // Slice bound type error.
    "xs = [1, 2, 3]\nxs['a':2]",
    // Shadowing: assigning over a builtin name then calling it.
    "len = 5\nemit(len)\nlen",
    // Index and key errors.
    "xs = [1]\nemit(xs[0])\nxs[3]",
    "d = {'a': 1}\nd['b']",
    "[].pop()",
    // Kernel type errors.
    "sorted([1, 'a'])",
    "min([])",
    "int('x')",
    "5 % 0",
    "'a' - 1",
    "x = 5\nx.upper()",
    "[1].split(',')",
    "read_file(3)",
    "for c in 5:\n    c",
    // Byte allowance: each growing kernel stops at the run's allowance
    // before it allocates.
    "s = 'xy'\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\ns = s + s\nlen(s)",
    "'ab' * 9223372036854775807",
    "xs = [1]\nfor i in range(30):\n    xs = xs + xs\nlen(xs)",
    "s = 'ab'\nfor i in range(40):\n    s = s.replace('a', 'aa')\nlen(s)",
    "s = 'ab'\nfor i in range(40):\n    s = '-'.join([s, s])\nlen(s)",
    "s = 'a,' * 4000000\nt = s.split(',')\nlen(t)",
    "s = 'a ' * 8000000\nt = s.split()\nlen(t)",
    "xs = []\nfor i in range(3):\n    xs.append(i)\n    xs.extend([i, i])\nzs = [i for i in range(20)]\nemit(xs, zs, 'x' * 3000, '-'.join(['a', 'b']))\nlen(xs)",
    // Integer `+` and `sum` wrap in two's complement, in debug builds too.
    "x = 9223372036854775807\ny = x + 1\nlow = -9223372036854775807 - 1\nz = low + low\nx += x\nemit(y, z, x, low + -1)\ny",
    "big = 9223372036854775807\nemit(sum([big, 1]), sum([big, big, 2]), sum([big, 1, 0.5]))\nsum([1, big])",
    // `-` and `*` raise instead.
    "x = -9223372036854775807 - 1\nx - 1",
    "x = 9223372036854775807\nemit(x - -1)",
    "x = 4611686018427387904\nx * 2",
];

/// The step programs the agent policies write, with concrete file names:
/// `spurious_ratio_code`, `csv_ratio_code` and `rate_ratio_code` in
/// `crates/agents/src/policy.rs`.
const AGENT_STEPS: &[&str] = &[
    "def total(name):\n    t = 0\n    for line in read_file(name).splitlines():\n        parts = line.split(',')\n        if len(parts) >= 2:\n            n = parts[1].strip()\n            if n.isdigit():\n                t += int(n)\n    return t\na = total('a.csv')\nb = total('thefts.csv')\nif b != 0:\n    final_answer(float(a) / float(b))\n",
    "c = read_file('thefts.csv')\nlines = c.splitlines()\nheader = lines[0].split(',')\ncol = 1\ni = 0\nfor h in header:\n    if 'theft' in h:\n        col = i\n    i += 1\na = 0.0\nb = 0.0\nfor line in lines[1:]:\n    parts = line.split(',')\n    if len(parts) > col:\n        if parts[0] == '2024':\n            a = float(parts[col])\n        if parts[0] == '2001':\n            b = float(parts[col])\nif b != 0:\n    final_answer(a / b)\n",
    "def rate(name):\n    t = read_file(name)\n    i = t.find('rate of ')\n    if i < 0:\n        return 0.0\n    sub = t[i + 8:]\n    return float(sub.split(' ')[0])\na = rate('rates_2024.txt')\nb = rate('rates_2001.txt')\nif b != 0:\n    final_answer(a / b)\n",
];

/// Programs run in order on one interpreter: later programs call
/// functions and read globals earlier ones left.
const SESSIONS: &[&[&str]] = &[
    // The ratio step in `crates/core/src/ops.rs`, after the two steps
    // that bound `r_hi` and `r_lo`.
    &[
        "r_hi = [{'source': 'thefts.csv'}, {'source': 'thefts.csv', 'value': '1,135,291'}]",
        "r_lo = [{'value': 86250}]",
        "def pick(rs):\n    for r in rs:\n        v = r.get('value')\n        if v != None:\n            return float(v)\n    return 0.0\na = pick(r_hi)\nb = pick(r_lo)\nif b != 0:\n    final_answer(a / b)\n",
    ],
    // A three-step agent run: list, aggregate, answer.
    &[
        "files = list_files()\nprint(files)",
        "c = read_file('a.csv')\nrows = c.splitlines()\ntotal = 0\nfor r in rows[1:]:\n    total += int(r.split(',')[1])\nprint(total)",
        "final_answer(total)",
    ],
    // A function from an earlier program, on the VM at the same fuel.
    &[
        "def g(n):\n    t = 0\n    for i in range(n):\n        t += i\n    return t",
        "g(10)",
        "g(3) + len(str(g))",
    ],
    // Late binding across programs: `f` sees a global bound later and a
    // `helper` redefined later; `make` returns a nested function.
    &[
        "def f():\n    return base + helper()\ndef helper():\n    return 1\ndef make():\n    def twice(x):\n        return x * 2\n    return twice",
        "base = 41\nemit(f())\nmake()(21)",
        "def helper():\n    return 100\nf()",
    ],
    // An error inside an earlier program's function leaves the next
    // program a clean call stack.
    &[
        "def boom(n):\n    return 10 // n",
        "boom(0)",
        "boom(5)",
    ],
];

#[test]
fn fixtures_agree() {
    for src in FIXTURES.iter().chain(AGENT_STEPS) {
        aida_script::parser::parse(src).unwrap_or_else(|e| panic!("{e}:\n{src}"));
        assert_agree(src, 100_000);
    }
}

#[test]
fn agent_steps_answer() {
    for src in AGENT_STEPS {
        let vm = assert_agree(src, 100_000);
        assert_eq!(vm.calls_to("final_answer"), 1, "no answer from:\n{src}");
    }
}

#[test]
fn sessions_agree() {
    for programs in SESSIONS {
        let vm = observe_vm_session(programs, 100_000);
        assert_eq!(
            vm,
            observe_oracle_session(programs, 100_000),
            "VM and oracle diverged on the session:\n{}",
            programs.join("\n---\n")
        );
        assert!(vm.last().expect("programs").completed(), "{vm:?}");
    }
}

#[test]
fn fuel_cutoff_sweep_agrees_at_every_budget() {
    // Every prefix budget must exhaust at the same instant with the same
    // partial side effects on both sides.
    let mut sweep = vec![
        FIXTURES[0],
        FIXTURES[2],
        FIXTURES[4],
        FIXTURES[5],
        "xs = [n * n for n in range(8) if n % 2 == 0]\nemit(xs)\nlen(xs)",
    ];
    sweep.extend(AGENT_STEPS);
    for src in sweep {
        let full = assert_agree(src, 100_000);
        let spent = 100_000 - full.fuel_remaining;
        for fuel in 0..=spent + 1 {
            assert_agree(src, fuel);
        }
    }
}

#[test]
fn the_oracle_implements_every_builtin() {
    let builtins: Vec<&str> = BUILTIN_NAMES.iter().map(|&(name, _)| name).collect();
    assert_eq!(oracle::BUILTINS, builtins);
}

#[test]
#[should_panic(expected = "does not implement method `title`")]
fn the_oracle_fails_loudly_on_what_it_does_not_implement() {
    observe_oracle("'a'.title()", 100);
}

#[test]
fn compiled_artifacts_round_trip_and_rerun() {
    for src in FIXTURES {
        let Ok(program) = compile_source(src) else {
            continue;
        };
        let encoded = program.encode();
        let decoded = CompiledProgram::decode(&encoded).expect("artifact decodes");
        assert_eq!(decoded.main, program.main, "main chunk drifted for:\n{src}");
        assert_eq!(decoded.pools, program.pools);
        assert_eq!(
            decoded.content_hash(),
            program.content_hash(),
            "content hash not stable across encode/decode for:\n{src}"
        );
        // The decoded artifact must execute identically too.
        let run = |program: &CompiledProgram| {
            let trace = Rc::new(RefCell::new(Vec::new()));
            let mut interp = Interpreter::new().with_fuel(100_000);
            instrument(&mut interp, trace.clone());
            let result = interp.run_compiled(program).map(|v| v.to_string());
            let trace = trace.take();
            (
                result.map_err(|e| e.to_string()),
                trace,
                interp.fuel_remaining(),
            )
        };
        assert_eq!(
            run(&program),
            run(&decoded),
            "decoded artifact diverged for:\n{src}"
        );
    }
}

#[test]
fn typecheck_rejects_ill_typed_fixtures_before_any_execution() {
    // Script-layer zero-spend guarantee: programs the typechecker
    // rejects never reach the VM, so no tools run and no fuel is
    // charged.
    let mut env = TypeEnv::new();
    for (name, sig) in [
        ("list_files", "list_files() -> list[str]"),
        ("read_file", "read_file(name: str) -> str"),
        ("emit", "emit(value) -> None"),
    ] {
        env.add_tool_signature(name, sig);
    }
    let ill_typed = [
        "print(x)\nx = 1",
        "read_file(42)",
        "read_file('a.csv', 'extra')",
        "x = 'a' + 1",
        "x = 3\nx()",
    ];
    for src in ill_typed {
        let program = aida_script::parser::parse(src).expect("parses");
        let err = aida_script::typecheck(&program, &env).expect_err(src);
        assert!(matches!(err, aida_script::ScriptError::Type { .. }));
    }
    // The well-typed fixtures must not be rejected (no false positives
    // on the agent corpus shapes) — except those designed to be
    // ill-typed, which the runtime fixtures above already cover.
    let well_typed = [
        FIXTURES[0],
        FIXTURES[1],
        FIXTURES[2],
        FIXTURES[3],
        FIXTURES[4],
    ];
    for src in well_typed {
        let program = aida_script::parser::parse(src).expect("parses");
        assert!(
            aida_script::typecheck(&program, &env).is_ok(),
            "false positive on corpus program:\n{src}"
        );
    }
}

#[test]
fn tool_signature_parsing_matches_registry_style() {
    let sig = ToolSig::parse(
        "sem_extract_tool(instruction: str, field: str, filenames: list[str]) -> list",
    )
    .expect("parses");
    assert_eq!(sig.params.len(), 3);
}

mod generated {
    use super::*;
    use common::templates::{render_program, tpl};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn generated_programs_agree(stmts in prop::collection::vec(tpl(), 1..7)) {
            let src = render_program(&stmts);
            let vm = observe_vm(&src, 20_000);
            let oracle = observe_oracle(&src, 20_000);
            prop_assert_eq!(vm, oracle, "diverged on generated program:\n{}", src);
        }

        #[test]
        fn generated_programs_agree_under_tight_fuel(
            stmts in prop::collection::vec(tpl(), 1..6),
            fuel in 0u64..400,
        ) {
            let src = render_program(&stmts);
            let vm = observe_vm(&src, fuel);
            let oracle = observe_oracle(&src, fuel);
            prop_assert_eq!(vm, oracle, "diverged at fuel {} on:\n{}", fuel, src);
        }

        #[test]
        fn nesting_at_the_budget_agrees_and_past_it_is_a_parse_error(
            wrappers in prop::collection::vec(0u8..6, 30..110),
        ) {
            // `x = <1 wrapped in wrappers[..k]>`, every wrapper keeping
            // one copy of what it wraps.
            let build = |k: usize| {
                let mut expr = "1".to_string();
                for w in &wrappers[..k] {
                    expr = match w {
                        0 => format!("({expr})"),
                        1 => format!("[{expr}][0]"),
                        2 => format!("-({expr})"),
                        3 => format!("abs({expr})"),
                        4 => format!("{{'k': {expr}}}['k']"),
                        _ => format!("[v for v in [{expr}]][0]"),
                    };
                }
                format!("x = {expr}\nx")
            };
            let parses = |k: usize| aida_script::parser::parse(&build(k)).is_ok();
            let deepest = (0..=wrappers.len()).take_while(|&k| parses(k)).last().expect("`x = 1` parses");
            prop_assert!(deepest >= 8, "gave up at {} wrappers", deepest);
            let src = build(deepest);
            prop_assert_eq!(observe_vm(&src, 20_000), observe_oracle(&src, 20_000), "diverged on:\n{}", src);
            for k in deepest + 1..=wrappers.len() {
                let err = aida_script::parser::parse(&build(k)).expect_err("past the budget");
                prop_assert!(
                    matches!(&err, aida_script::ScriptError::Parse { message, .. } if message.contains("nesting deeper")),
                    "{} wrappers: {}", k, err
                );
            }
        }

        #[test]
        fn generated_bytecode_round_trips(stmts in prop::collection::vec(tpl(), 1..6)) {
            let src = render_program(&stmts);
            let program = compile_source(&src).expect("templates always parse");
            let decoded = CompiledProgram::decode(&program.encode()).expect("decodes");
            prop_assert_eq!(&decoded.main, &program.main);
            prop_assert_eq!(&decoded.pools, &program.pools);
            prop_assert_eq!(decoded.content_hash(), program.content_hash());
        }
    }
}
