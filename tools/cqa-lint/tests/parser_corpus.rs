//! Parser robustness: the item parser must digest every real source file
//! in the workspace (the corpus it will be run against forever) and must
//! never panic on adversarial token soup — nested generics that end in
//! `>>`, closures in call arguments, raw identifiers, unbalanced
//! brackets. The property tests build such inputs generatively.

use cqa_lint::{lexer, parser};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn workspace_sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = Vec::new();
    for scan in cqa_lint::SCAN_ROOTS {
        let Ok(members) = std::fs::read_dir(root.join(scan)) else { continue };
        for member in members.flatten() {
            let src = member.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out);
            }
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable src dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            out.push((path, text));
        }
    }
}

/// Every workspace source file parses without panicking, and files that
/// declare functions yield at least one parsed item.
#[test]
fn corpus_every_workspace_file_parses() {
    let sources = workspace_sources();
    assert!(sources.len() > 40, "suspiciously small corpus: {} files", sources.len());
    for (path, text) in &sources {
        let stripped = lexer::strip_cfg_test(&lexer::lex(text));
        let parsed = parser::parse_file(&path.display().to_string(), &stripped);
        let declares_fn = stripped
            .windows(2)
            .any(|w| w[0].is_ident("fn") && matches!(w[1].kind, lexer::TokKind::Ident));
        assert_eq!(
            declares_fn,
            !parsed.fns.is_empty(),
            "{}: declares_fn={declares_fn} but parsed {} fns",
            path.display(),
            parsed.fns.len()
        );
    }
}

/// Known-nasty constructs, spelled out so a regression names the culprit.
#[test]
fn corpus_adversarial_handwritten_cases() {
    let cases: &[&str] = &[
        "fn f() -> Vec<Vec<u32>> { Vec::new() }",
        "fn g(x: BTreeMap<String, Vec<(u32, u32)>>) {}",
        "fn h() { run(|| helper(), |x| x + 1); }",
        "fn r#match(r#type: u32) -> u32 { r#type }",
        "fn i() { let f = |a: u32| -> u32 { a.pow(2) }; f(3); }",
        "fn j<T: Iterator<Item = Vec<u8>>>(it: T) {}",
        "fn k() { x << 2; y >> 3; a < b; c > d; }",
        "impl<T> Foo<T> where T: Clone { fn m(&self) {} }",
        "fn l() { m!( unbalanced ( still lexes",
        "fn n() { \"s\u{2764}tring\".chars(); '\\u{1F600}'; }",
    ];
    for (i, src) in cases.iter().enumerate() {
        let stripped = lexer::strip_cfg_test(&lexer::lex(src));
        let _ = parser::parse_file(&format!("case{i}.rs"), &stripped);
    }
}

/// A tiny grammar of token fragments that compose into function-like
/// source. Indexes into FRAGMENTS, so the generator stays a plain
/// integer-vector strategy.
const FRAGMENTS: &[&str] = &[
    "fn f",
    "( x : u32 )",
    "( v : Vec<Vec<u8>> )",
    "<T: Iterator<Item = u64>>",
    "-> Result<Vec<u8>, E>",
    "{ let y = x; }",
    "{ run(|| helper(), |x| x + 1) }",
    "{ a >> b; c << d; e < f; g > h }",
    "{ r#fn(r#struct) }",
    "{ s.field.method::<u8>() }",
    "{ m!{ nested { braces } } }",
    "{",
    "}",
    "(",
    ")",
    "<",
    ">>",
    "|",
    "impl Foo for Bar",
    "struct S { a : u32 , b : Vec<u8> }",
    "let q = |k: u64| k * 2;",
    "as u32",
    "\"string \\\" with escapes\"",
    "'x'",
    "// comment\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random fragment concatenations — mostly ill-formed Rust — must
    /// never panic the lexer or parser.
    #[test]
    fn parser_survives_fragment_soup(picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..24)) {
        let src = picks.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join(" ");
        let stripped = lexer::strip_cfg_test(&lexer::lex(&src));
        let parsed = parser::parse_file("soup.rs", &stripped);
        // Fn items the parser does report must carry sane line spans
        // (end_line is 0 for bodyless declarations).
        for f in &parsed.fns {
            prop_assert!(
                f.end_line == 0 || f.end_line >= f.line,
                "{}: {} ends before it starts",
                f.name,
                f.line
            );
        }
    }

    /// Deeply nested generic arguments closed by runs of `>`; the parser
    /// must treat `>>` as two closers, not a shift, wherever it recurses.
    #[test]
    fn parser_survives_nested_generics(depth in 1usize..12, tail in 0usize..4) {
        let mut ty = String::from("u8");
        for _ in 0..depth {
            ty = format!("Vec<{ty}>");
        }
        let extra = ">".repeat(tail); // deliberately unbalanced closers
        let src = format!("fn f(x: {ty}{extra}) -> {ty} {{ g(|| h(x), |y| y) }}");
        let stripped = lexer::strip_cfg_test(&lexer::lex(&src));
        let parsed = parser::parse_file("generics.rs", &stripped);
        prop_assert!(!parsed.fns.is_empty(), "fn item lost in {src}");
    }
}
