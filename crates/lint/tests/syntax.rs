//! Lexer tests: edge cases (CRLF, raw strings with many hashes,
//! nested block comments butted against strings) and the span
//! round-trip invariant — every token's byte span slices the source
//! back to the token it came from — checked both on targeted inputs,
//! on every `.rs` file in the real workspace, and on random inputs via
//! proptest.

use proptest::prelude::*;
use rdi_lint::lexer::{lex, Token, TokenKind};
use std::path::{Path, PathBuf};

/// Spans are in-bounds, on char boundaries, monotonically ordered, and
/// `Ident`/`Keyword`-class tokens slice back to their own text.
fn check_spans(src: &str, tokens: &[Token]) {
    let mut prev_end = 0u32;
    for t in tokens {
        let (s, e) = (t.start as usize, t.end as usize);
        assert!(s <= e && e <= src.len(), "span {s}..{e} out of bounds");
        assert!(src.is_char_boundary(s) && src.is_char_boundary(e));
        assert!(
            t.start >= prev_end,
            "token at {s} overlaps the previous token (ends {prev_end})"
        );
        prev_end = t.end;
        if t.kind == TokenKind::Ident {
            assert_eq!(&src[s..e], t.text, "ident span must round-trip");
        }
        if t.kind == TokenKind::LineComment {
            // CRLF files: the text drops the `\r`, the span keeps it.
            let slice = &src[s..e];
            assert!(
                slice == t.text || slice == format!("{}\r", t.text),
                "line comment span {slice:?} vs text {:?}",
                t.text
            );
        }
    }
}

#[test]
fn crlf_sources_lex_with_correct_lines_and_spans() {
    let src = "use std::fmt;\r\n// comment\r\nfn f() -> u8 {\r\n    7\r\n}\r\n";
    let tokens = lex(src);
    check_spans(src, &tokens);
    let f = tokens
        .iter()
        .find(|t| t.text == "fn")
        .expect("fn keyword lexed");
    assert_eq!(f.line, 3, "CRLF newlines must advance the line counter");
    let comment = tokens
        .iter()
        .find(|t| t.kind == TokenKind::LineComment)
        .unwrap();
    assert_eq!(comment.text, "// comment", "no trailing \\r in the text");
}

#[test]
fn raw_strings_with_multiple_hashes() {
    let src = r####"fn f() -> &'static str { r##"quote " and "# inside"## }"####;
    let tokens = lex(src);
    check_spans(src, &tokens);
    let lit = tokens
        .iter()
        .find(|t| t.kind == TokenKind::StrLit)
        .expect("raw string lexed as one literal");
    assert_eq!(lit.text, r##"quote " and "# inside"##);
    // Nothing inside the literal leaks out as code tokens.
    assert!(!tokens.iter().any(|t| t.text == "inside"));
}

#[test]
fn nested_block_comments_against_strings() {
    // A nested block comment directly abutting a string literal, with a
    // fake comment-closer inside the string and a fake string inside
    // the comment. The lexer must keep the two worlds separate.
    let src = "fn f() -> &'static str { /* outer /* \"not a string\" */ still comment */\"real */ string\" }";
    let tokens = lex(src);
    check_spans(src, &tokens);
    let strs: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::StrLit)
        .collect();
    assert_eq!(strs.len(), 1, "exactly one real string");
    assert_eq!(strs[0].text, "real */ string");
    let comments: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::BlockComment)
        .collect();
    assert_eq!(comments.len(), 1, "nested comment is one token");
    assert!(comments[0].text.contains("not a string"));
}

#[test]
fn byte_string_and_char_literals_near_comments() {
    let src = "fn f() { let a = b'x'; let b = 'y'; let c: &'static [u8] = b\"z\"; /*t*/ }";
    let tokens = lex(src);
    check_spans(src, &tokens);
    assert_eq!(
        tokens
            .iter()
            .filter(|t| t.kind == TokenKind::CharLit)
            .count(),
        2
    );
    assert!(tokens.iter().any(|t| t.kind == TokenKind::Lifetime));
}

/// Walk every `.rs` file of the real workspace (the parent of this
/// crate) and check the span invariant on each.
#[test]
fn workspace_sources_round_trip_spans() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut stack = vec![root.to_path_buf()];
    let mut files = 0usize;
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path: PathBuf = entry.path();
            let name = entry.file_name().to_string_lossy().to_string();
            if path.is_dir() {
                if !matches!(
                    name.as_str(),
                    "target" | ".git" | "fixtures" | "node_modules"
                ) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let Ok(src) = std::fs::read_to_string(&path) else {
                    continue;
                };
                check_spans(&src, &lex(&src));
                files += 1;
            }
        }
    }
    assert!(files > 100, "workspace walk found only {files} files");
}

/// Fragments that stress the tricky lexer paths; proptest composes
/// random sequences of them (plus separators) and checks that lexing
/// never panics and spans stay well-formed.
const FRAGMENTS: [&str; 16] = [
    "fn f(x: u8) -> u8 { x }",
    "// line comment",
    "/* block /* nested */ */",
    "let s = \"str with \\\" escape\";",
    "let r = r#\"raw \" body\"#;",
    "let r2 = r##\"## nearly\"##;",
    "let c = 'x'; let l: &'static str = \"\";",
    "let b = b'\\n';",
    "struct S<T: Ord> { x: T }",
    "impl<T> S<T> { fn m(&self) {} }",
    "match x { Some(_) => 1, None => 2 }",
    "#[derive(Debug)] enum E { A, B(u8) }",
    "mod m { pub fn inner() {} }",
    "\r\n",
    "€ 中文 // non-ascii",
    "macro_rules! m { () => {} }",
];

const SEPARATORS: [&str; 4] = [" ", "\n", "\r\n", "\n\n"];

fn arb_fragment() -> impl Strategy<Value = String> {
    (0usize..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lex_spans_total_on_random_composites(
        parts in prop::collection::vec(arb_fragment(), 0..12),
        sep_idx in 0usize..SEPARATORS.len(),
    ) {
        let src = parts.join(SEPARATORS[sep_idx]);
        check_spans(&src, &lex(&src));
    }
}
