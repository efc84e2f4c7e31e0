//! Fixture-based lexer tests: the contexts the rule engine depends on
//! being skipped correctly — raw strings, nested block comments, char
//! literals vs lifetimes — plus suppression-comment parsing.

use rdi_lint::lexer::{lex, TokenKind};

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect()
}

#[test]
fn plain_strings_hide_code_text() {
    let src = r#"let s = "HashMap .unwrap() thread::spawn"; s.len();"#;
    let ids = idents(src);
    assert!(!ids.contains(&"HashMap".to_string()));
    assert!(!ids.contains(&"unwrap".to_string()));
    assert_eq!(ids, vec!["let", "s", "s", "len"]);
}

#[test]
fn escaped_quotes_do_not_close_strings() {
    let src = r#"let s = "a \" HashMap \" b"; x"#;
    assert!(!idents(src).contains(&"HashMap".to_string()));
    assert!(idents(src).contains(&"x".to_string()));
}

#[test]
fn raw_strings_with_hashes() {
    // A `"#` inside an `r##"…"##` literal must not terminate it.
    let src = r###"let s = r##"contains "# quote and .unwrap()"##; tail"###;
    let ids = idents(src);
    assert!(!ids.contains(&"unwrap".to_string()));
    assert!(ids.contains(&"tail".to_string()));
    let strs: Vec<_> = lex(src)
        .into_iter()
        .filter(|t| t.kind == TokenKind::StrLit)
        .collect();
    assert_eq!(strs.len(), 1);
    assert_eq!(strs[0].text, r##"contains "# quote and .unwrap()"##);
}

#[test]
fn byte_and_raw_byte_strings() {
    let src = r##"let a = b"panic!"; let b = br#"thread_rng"#; end"##;
    let ids = idents(src);
    assert!(!ids.contains(&"panic".to_string()));
    assert!(!ids.contains(&"thread_rng".to_string()));
    assert!(ids.contains(&"end".to_string()));
}

#[test]
fn raw_identifiers_lex_as_idents() {
    let ids = idents("fn take(r#type: u8) -> u8 { r#type }");
    assert_eq!(ids.iter().filter(|i| *i == "type").count(), 2);
}

#[test]
fn nested_block_comments() {
    let src = "a /* outer /* inner .unwrap() */ still comment */ b";
    let toks = lex(src);
    let ids: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(ids, vec!["a", "b"]);
    assert_eq!(
        toks.iter()
            .filter(|t| t.kind == TokenKind::BlockComment)
            .count(),
        1
    );
}

#[test]
fn block_comment_line_tracking() {
    let src = "a\n/* one\ntwo\nthree */\nb";
    let toks = lex(src);
    let b = toks.iter().find(|t| t.text == "b").expect("b token");
    assert_eq!(b.line, 5);
}

#[test]
fn char_literals_vs_lifetimes() {
    let src = "let q: &'static str = x; let c = 'u'; let n = '\\n'; let quote = '\\''; fn f<'a>(v: &'a u8) {}";
    let toks = lex(src);
    let lifetimes: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, vec!["'static", "'a", "'a"]);
    let chars: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::CharLit)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, vec!["u", "\\n", "\\'"]);
    // `'u'` must not leak a `u` identifier the rules could match.
    assert!(!toks
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "u"));
}

#[test]
fn loop_labels_are_lifetimes_not_chars() {
    let toks = lex("'outer: loop { break 'outer; }");
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Lifetime && t.text == "'outer"));
    assert!(!toks.iter().any(|t| t.kind == TokenKind::CharLit));
}

#[test]
fn line_numbers_are_one_based_and_accurate() {
    let src = "first\nsecond\n\nfourth";
    let toks = lex(src);
    let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
    assert_eq!(lines, vec![1, 2, 4]);
}

#[test]
fn numbers_do_not_swallow_ranges() {
    let toks = lex("for i in 0..10 { let x = 1.5e-3; }");
    let nums: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Num)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(nums, vec!["0", "10", "1.5e-3"]);
}

#[test]
fn suppression_comments_survive_lexing() {
    let src = "let t = Instant::now(); // rdi-lint: allow(R3): audited\n";
    let comments: Vec<_> = lex(src)
        .into_iter()
        .filter(|t| t.kind == TokenKind::LineComment)
        .collect();
    assert_eq!(comments.len(), 1);
    assert!(comments[0].text.contains("rdi-lint: allow(R3): audited"));
    assert_eq!(comments[0].line, 1);
}
