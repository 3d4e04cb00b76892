//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled over `proc_macro` alone (no syn/quote — the build
//! environment cannot fetch them). Supports exactly what the workspace
//! derives on: non-generic structs with named fields. Each field must
//! itself implement `serde::Serialize`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` for a named-field struct.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let name = struct_name(&tokens).expect("serde stub: #[derive(Serialize)] needs a struct");
    let fields = named_fields(&tokens)
        .unwrap_or_else(|| panic!("serde stub: struct {name} must have named fields"));
    let members: String = fields
        .iter()
        .map(|f| format!("(\"{f}\".to_string(), serde::Serialize::to_value(&self.{f})),"))
        .collect();
    format!(
        "impl serde::Serialize for {name} {{\n\
             fn to_value(&self) -> serde::Value {{\n\
                 serde::Value::Object(vec![{members}])\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("serde stub: generated impl parses")
}

/// Derive `serde::Deserialize` for a named-field struct.
///
/// Semantics chosen for spec-file ergonomics: the generated impl starts
/// from `Default::default()` (the struct must implement `Default`) and
/// overlays whichever keys are present, so sparse inputs stay sparse;
/// any key that is not a field is rejected with
/// `serde::DeError::unknown_field`, so typos fail loudly. Nested errors
/// carry the field name on their path.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let name = struct_name(&tokens).expect("serde stub: #[derive(Deserialize)] needs a struct");
    let fields = named_fields(&tokens)
        .unwrap_or_else(|| panic!("serde stub: struct {name} must have named fields"));
    let arms: String = fields
        .iter()
        .map(|f| {
            format!(
                "\"{f}\" => out.{f} = serde::Deserialize::from_value(val)\
                     .map_err(|e| e.at(\"{f}\"))?,"
            )
        })
        .collect();
    format!(
        "impl serde::Deserialize for {name} {{\n\
             fn from_value(v: &serde::Value) -> ::std::result::Result<Self, serde::DeError> {{\n\
                 let fields = match v {{\n\
                     serde::Value::Object(fields) => fields,\n\
                     other => return Err(serde::DeError::expected(\"an object\", other)),\n\
                 }};\n\
                 let mut out = <{name} as ::std::default::Default>::default();\n\
                 for (k, val) in fields.iter() {{\n\
                     match k.as_str() {{\n\
                         {arms}\n\
                         other => return Err(serde::DeError::unknown_field(other, \"{name}\")),\n\
                     }}\n\
                 }}\n\
                 Ok(out)\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("serde stub: generated impl parses")
}

/// The identifier following the `struct` keyword.
fn struct_name(tokens: &[TokenTree]) -> Option<String> {
    let mut saw_struct = false;
    for t in tokens {
        match t {
            TokenTree::Ident(i) if i.to_string() == "struct" => saw_struct = true,
            TokenTree::Ident(i) if saw_struct => return Some(i.to_string()),
            _ => {}
        }
    }
    None
}

/// Field names inside the struct's brace group: the identifier
/// immediately before each top-level `:`, with attributes and
/// visibility skipped.
fn named_fields(tokens: &[TokenTree]) -> Option<Vec<String>> {
    let body = tokens.iter().rev().find_map(|t| match t {
        TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => Some(g.stream()),
        _ => None,
    })?;
    let inner: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut last_ident: Option<String> = None;
    let mut angle_depth = 0i32;
    // Once a field's `name:` is consumed everything up to the next
    // top-level comma is its type (which may contain `::` paths and
    // idents of its own) and must be skipped.
    let mut in_type = false;
    for t in &inner {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                in_type = false;
                last_ident = None;
            }
            _ if in_type => {}
            TokenTree::Punct(p) if p.as_char() == ':' && angle_depth == 0 => {
                if let Some(name) = last_ident.take() {
                    fields.push(name);
                    in_type = true;
                }
            }
            TokenTree::Ident(i) if angle_depth == 0 => {
                let s = i.to_string();
                if s != "pub" {
                    last_ident = Some(s);
                }
            }
            _ => {}
        }
    }
    Some(fields)
}
