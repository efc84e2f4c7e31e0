//! `#[derive(Serialize)]` for the offline serde compat crate.
//!
//! Implemented directly on `proc_macro` (no `syn`/`quote`, which are
//! unavailable offline). The macro parses just enough of the item — its
//! name, field names / arities, and variant shapes — and emits an impl
//! of `::serde::Serialize` against the compat crate's JSON data model.
//! Field *types* never need to be parsed: the generated code calls
//! `Serialize::serialize` on each field and lets inference pick the
//! impl.
//!
//! Supported shapes (everything this workspace derives on):
//! named-field structs, tuple structs, unit structs, and enums whose
//! variants are unit, tuple, or named-field. Generic types and
//! `#[serde(...)]` attributes are not supported and produce a compile
//! error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Shape of a struct's (or enum variant's) fields.
enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

/// A parsed `struct` or `enum` item.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Derive `::serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        #[expect(
            clippy::expect_used,
            reason = "gen_serialize emits well-formed Rust for every shape parse_item accepts"
        )]
        Ok(item) => gen_serialize(&item).parse().expect("generated impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

#[expect(
    clippy::unwrap_used,
    reason = "a `compile_error!` call around a Debug-escaped string literal always parses"
)]
fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut toks = input.into_iter().peekable();

    // Skip outer attributes and visibility.
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                toks.next(); // the [...] group
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected struct/enum, got {other:?}")),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };

    // Reject generics: none of the workspace's serde types are generic,
    // and supporting them would need bound rewriting.
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "serde compat derive does not support generics on `{name}`"
            ));
        }
    }

    match kind.as_str() {
        "struct" => {
            let fields = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => return Err(format!("unsupported struct body: {other:?}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let body = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body, got {other:?}")),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!("cannot derive serde impls for `{other}` items")),
    }
}

/// Field names of a named-field body (`{ a: T, pub b: U }`).
fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let mut toks = body.into_iter().peekable();
    loop {
        // Skip attributes / visibility before the field name.
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    toks.next();
                }
                Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            toks.next();
                        }
                    }
                }
                _ => break,
            }
        }
        match toks.next() {
            None => break,
            Some(TokenTree::Ident(i)) => names.push(i.to_string()),
            other => return Err(format!("expected field name, got {other:?}")),
        }
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field name, got {other:?}")),
        }
        // Consume the type: everything until a comma at angle-depth 0.
        let mut depth = 0i32;
        loop {
            match toks.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == '<' {
                        depth += 1;
                    } else if c == '>' {
                        depth -= 1;
                    } else if c == ',' && depth == 0 {
                        toks.next();
                        break;
                    }
                    toks.next();
                }
                Some(_) => {
                    toks.next();
                }
            }
        }
    }
    Ok(names)
}

/// Number of fields in a tuple body (`(A, B<C, D>)` → 2).
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut fields = 0usize;
    let mut saw_tokens = false;
    for t in body {
        match t {
            TokenTree::Punct(p) => {
                let c = p.as_char();
                if c == '<' {
                    depth += 1;
                } else if c == '>' {
                    depth -= 1;
                } else if c == ',' && depth == 0 {
                    fields += 1;
                    saw_tokens = false;
                    continue;
                }
                saw_tokens = true;
            }
            _ => saw_tokens = true,
        }
    }
    if saw_tokens {
        fields += 1;
    }
    fields
}

fn parse_variants(body: TokenStream) -> Result<Vec<(String, Fields)>, String> {
    let mut variants = Vec::new();
    let mut toks = body.into_iter().peekable();
    loop {
        // Skip attributes (e.g. `#[default]`, doc comments).
        while let Some(TokenTree::Punct(p)) = toks.peek() {
            if p.as_char() == '#' {
                toks.next();
                toks.next();
            } else {
                break;
            }
        }
        let name = match toks.next() {
            None => break,
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        let fields = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                toks.next();
                Fields::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let names = parse_named_fields(g.stream())?;
                toks.next();
                Fields::Named(names)
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant, then the trailing comma.
        let mut depth = 0i32;
        loop {
            match toks.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == '<' {
                        depth += 1;
                    } else if c == '>' {
                        depth -= 1;
                    } else if c == ',' && depth == 0 {
                        toks.next();
                        break;
                    }
                    toks.next();
                }
                Some(_) => {
                    toks.next();
                }
            }
        }
        variants.push((name, fields));
    }
    Ok(variants)
}

// ---------------------------------------------------------------- codegen

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => {
                    let mut pushes = String::new();
                    for f in names {
                        pushes.push_str(&format!(
                            "__obj.push(({f:?}.to_string(), ::serde::Serialize::serialize(&self.{f})));\n"
                        ));
                    }
                    format!(
                        "let mut __obj = ::std::vec::Vec::new();\n{pushes}::serde::Json::Obj(__obj)"
                    )
                }
                Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                        .collect();
                    format!("::serde::Json::Arr(vec![{}])", items.join(", "))
                }
                Fields::Unit => "::serde::Json::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Json {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (v, shape) in variants {
                match shape {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Json::Str({v:?}.to_string()),\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{v}(__a0) => ::serde::Json::Obj(vec![({v:?}.to_string(), \
                         ::serde::Serialize::serialize(__a0))]),\n"
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__a{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::serialize({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{v}({}) => ::serde::Json::Obj(vec![({v:?}.to_string(), \
                             ::serde::Json::Arr(vec![{}]))]),\n",
                            binds.join(", "),
                            items.join(", ")
                        ));
                    }
                    Fields::Named(fs) => {
                        let binds = fs.join(", ");
                        let items: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!("({f:?}.to_string(), ::serde::Serialize::serialize({f}))")
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{v} {{ {binds} }} => ::serde::Json::Obj(vec![({v:?}.to_string(), \
                             ::serde::Json::Obj(vec![{}]))]),\n",
                            items.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Json {{ match self {{ {arms} }} }}\n\
                 }}"
            )
        }
    }
}
