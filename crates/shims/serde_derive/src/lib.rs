//! In-tree shim for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` for plain (non-generic) structs and enums,
//! implemented without syn/quote. The input token stream is parsed by a
//! small hand-rolled walker that extracts only what code generation
//! needs — type name, field names, variant shapes — and the impl is
//! emitted as a source string parsed back into a `TokenStream`.
//!
//! Representations match real serde's defaults:
//! * named struct → JSON object in field order
//! * newtype struct → the inner value
//! * tuple struct → array
//! * enum (externally tagged): unit → `"Variant"`, newtype →
//!   `{"Variant": value}`, tuple → `{"Variant": [..]}`,
//!   struct → `{"Variant": {..}}`
//!
//! The one field attribute understood is real serde's
//! `#[serde(with = "module")]` on a named field: the field is written by
//! `module::serialize(&field, serializer)` and read by
//! `module::deserialize(deserializer)`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Shape of a parsed field list.
enum Fields {
    Unit,
    /// Tuple fields: arity only (types are never needed — inference fills
    /// them in at the use site).
    Tuple(usize),
    /// Named fields, in declaration order.
    Named(Vec<Field>),
}

/// A named field and its `#[serde(with = "...")]` module, if any.
struct Field {
    name: String,
    with: Option<String>,
}

impl Field {
    /// Expression turning `place` (a reference to the field) into a
    /// `Value`.
    fn ser_expr(&self, place: &str) -> String {
        match &self.with {
            Some(m) => format!("{m}::serialize({place}, ::serde::ValueSerializer)?"),
            None => format!("::serde::to_value({place})?"),
        }
    }

    /// Initializer `name: ...` reading the field from the object `src`.
    fn de_init(&self, src: &str) -> String {
        let name = &self.name;
        let value = format!("{src}.field(\"{name}\")?");
        match &self.with {
            Some(m) => format!("{name}: {m}::deserialize({value})?"),
            None => format!("{name}: ::serde::from_value({value})?"),
        }
    }
}

/// Parsed variant of an enum.
struct Variant {
    name: String,
    fields: Fields,
}

/// Parsed derive input.
enum Input {
    Struct { name: String, generics: Vec<String>, fields: Fields },
    Enum { name: String, generics: Vec<String>, variants: Vec<Variant> },
}

/// Cursor over a flat token-tree sequence.
struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor { tokens: stream.into_iter().collect(), pos: 0 }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Skips any number of outer attributes `#[...]`, returning the
    /// module named by a `#[serde(with = "module")]` among them.
    fn skip_attributes(&mut self) -> Option<String> {
        let mut with = None;
        loop {
            match self.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    self.pos += 1; // '#'
                    match self.next() {
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                            with = serde_with(g.stream()).or(with);
                        }
                        _ => panic!("serde_derive shim: malformed attribute"),
                    }
                }
                _ => return with,
            }
        }
    }

    /// Skips attributes where `#[serde(with = "...")]` has no meaning.
    fn skip_non_field_attributes(&mut self) {
        if self.skip_attributes().is_some() {
            panic!("serde_derive shim: `#[serde(with = ...)]` is supported on named fields only");
        }
    }

    /// Skips a visibility qualifier (`pub`, `pub(crate)`, ...).
    fn skip_visibility(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.pos += 1;
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.pos += 1;
                    }
                }
            }
        }
    }

    /// Consumes an identifier, panicking with `context` otherwise.
    fn expect_ident(&mut self, context: &str) -> String {
        match self.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive shim: expected identifier ({context}), got {other:?}"),
        }
    }

    /// Skips the tokens of one type, stopping before a top-level `,`.
    /// Tracks `<`/`>` nesting; `->` inside fn-pointer types is handled.
    fn skip_type(&mut self) {
        let mut depth: u32 = 0;
        while let Some(tree) = self.peek() {
            match tree {
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => return,
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    depth += 1;
                    self.pos += 1;
                }
                TokenTree::Punct(p) if p.as_char() == '-' => {
                    self.pos += 1; // possibly `->`; consume the `>` unconditionally
                    if let Some(TokenTree::Punct(q)) = self.peek() {
                        if q.as_char() == '>' {
                            self.pos += 1;
                        }
                    }
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    depth = depth.saturating_sub(1);
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }
}

/// The module of a `serde(with = "module")` attribute body; `None` for
/// any other attribute. Other `serde(...)` options are rejected.
fn serde_with(attr: TokenStream) -> Option<String> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    match tokens.as_slice() {
        [TokenTree::Ident(id), TokenTree::Group(args)] if id.to_string() == "serde" => {
            let args: Vec<String> = args.stream().into_iter().map(|t| t.to_string()).collect();
            match args.as_slice() {
                [key, eq, module] if key == "with" && eq == "=" && module.starts_with('"') => {
                    Some(module.trim_matches('"').to_string())
                }
                _ => panic!("serde_derive shim: only `#[serde(with = \"...\")]` is supported"),
            }
        }
        _ => None,
    }
}

/// Parses `{ name: Type, ... }` contents into fields.
fn parse_named_fields(group: TokenStream) -> Vec<Field> {
    let mut cur = Cursor::new(group);
    let mut fields = Vec::new();
    loop {
        let with = cur.skip_attributes();
        if cur.peek().is_none() {
            break;
        }
        cur.skip_visibility();
        let name = cur.expect_ident("field name");
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after field `{name}`, got {other:?}"),
        }
        cur.skip_type();
        fields.push(Field { name, with });
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => continue,
            None => break,
            other => panic!("serde_derive shim: expected `,` between fields, got {other:?}"),
        }
    }
    fields
}

/// Counts the top-level comma-separated types inside `( ... )`.
fn parse_tuple_arity(group: TokenStream) -> usize {
    let mut cur = Cursor::new(group);
    let mut arity = 0;
    loop {
        cur.skip_non_field_attributes();
        if cur.peek().is_none() {
            break;
        }
        cur.skip_visibility();
        cur.skip_type();
        arity += 1;
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => continue,
            None => break,
            other => panic!("serde_derive shim: expected `,` in tuple fields, got {other:?}"),
        }
    }
    arity
}

fn parse_enum_variants(group: TokenStream) -> Vec<Variant> {
    let mut cur = Cursor::new(group);
    let mut variants = Vec::new();
    loop {
        cur.skip_non_field_attributes();
        if cur.peek().is_none() {
            break;
        }
        let name = cur.expect_ident("variant name");
        let fields = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = parse_tuple_arity(g.stream());
                cur.pos += 1;
                Fields::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let names = parse_named_fields(g.stream());
                cur.pos += 1;
                Fields::Named(names)
            }
            _ => Fields::Unit,
        };
        if let Some(TokenTree::Punct(p)) = cur.peek() {
            if p.as_char() == '=' {
                panic!("serde_derive shim: explicit discriminants are not supported");
            }
        }
        variants.push(Variant { name, fields });
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => continue,
            None => break,
            other => panic!("serde_derive shim: expected `,` between variants, got {other:?}"),
        }
    }
    variants
}

/// Parses `<A, B: Bound, ...>` into plain type-parameter names. Declared
/// bounds are discarded — the generated impls add their own. Lifetimes
/// and const parameters are rejected (no derive site uses them).
fn parse_generics(cur: &mut Cursor) -> Vec<String> {
    let mut params = Vec::new();
    match cur.peek() {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => cur.pos += 1,
        _ => return params,
    }
    loop {
        match cur.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                cur.pos += 1;
                return params;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '\'' => {
                panic!("serde_derive shim: lifetime parameters are not supported");
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "const" => {
                panic!("serde_derive shim: const parameters are not supported");
            }
            _ => {}
        }
        params.push(cur.expect_ident("type parameter"));
        // Skip declared bounds / defaults up to the next `,` or closing `>`.
        let mut depth: u32 = 0;
        loop {
            match cur.peek() {
                None => panic!("serde_derive shim: unterminated generics"),
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => {
                    cur.pos += 1;
                    break;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '>' && depth == 0 => break,
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                    depth += 1;
                    cur.pos += 1;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                    depth -= 1;
                    cur.pos += 1;
                }
                _ => cur.pos += 1,
            }
        }
    }
}

fn parse_input(stream: TokenStream) -> Input {
    let mut cur = Cursor::new(stream);
    cur.skip_non_field_attributes();
    cur.skip_visibility();
    let keyword = cur.expect_ident("`struct` or `enum`");
    let name = cur.expect_ident("type name");
    let generics = parse_generics(&mut cur);
    if let Some(TokenTree::Ident(id)) = cur.peek() {
        if id.to_string() == "where" {
            panic!("serde_derive shim: `where` clauses are not supported (deriving on `{name}`)");
        }
    }
    match keyword.as_str() {
        "struct" => {
            let fields = match cur.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(parse_tuple_arity(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde_derive shim: unexpected struct body: {other:?}"),
            };
            Input::Struct { name, generics, fields }
        }
        "enum" => {
            let variants = match cur.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    parse_enum_variants(g.stream())
                }
                other => panic!("serde_derive shim: expected enum body, got {other:?}"),
            };
            Input::Enum { name, generics, variants }
        }
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// Expression building a `Value` from `&self` (runs inside a closure
/// returning `Result<::serde::Value, ::serde::Error>`).
fn gen_struct_to_value(fields: &Fields) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Tuple(1) => "::serde::to_value(&self.0)?".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::to_value(&self.{i})?")).collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Fields::Named(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    let value = f.ser_expr(&format!("&self.{}", f.name));
                    format!("(\"{}\".to_string(), {value})", f.name)
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", entries.join(", "))
        }
    }
}

/// Expression rebuilding `Self` from `__value: &Value` for a struct.
fn gen_struct_from_value(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => format!("{{ let _ = __value; {name} }}"),
        Fields::Tuple(1) => format!("{name}(::serde::from_value(__value)?)"),
        Fields::Tuple(n) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::from_value(&__items[{i}])?")).collect();
            format!(
                "{{ let __items = __value.as_array().ok_or_else(|| \
                 ::serde::Error::custom(\"expected array for tuple struct {name}\"))?; \
                 if __items.len() != {n} {{ return Err(::serde::Error::custom(\
                 \"wrong tuple length for {name}\")); }} \
                 {name}({items}) }}",
                items = items.join(", ")
            )
        }
        Fields::Named(fields) => {
            let inits: Vec<String> = fields.iter().map(|f| f.de_init("__value")).collect();
            format!("{name} {{ {} }}", inits.join(", "))
        }
    }
}

/// Match arms converting each enum variant to a `Value`.
fn gen_enum_to_value(name: &str, variants: &[Variant]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|v| {
            let vname = &v.name;
            match &v.fields {
                Fields::Unit => {
                    format!("{name}::{vname} => ::serde::Value::Str(\"{vname}\".to_string()),")
                }
                Fields::Tuple(1) => format!(
                    "{name}::{vname}(__f0) => ::serde::Value::Object(vec![(\
                     \"{vname}\".to_string(), ::serde::to_value(__f0)?)]),"
                ),
                Fields::Tuple(n) => {
                    let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                    let items: Vec<String> =
                        binders.iter().map(|b| format!("::serde::to_value({b})?")).collect();
                    format!(
                        "{name}::{vname}({binders}) => ::serde::Value::Object(vec![(\
                         \"{vname}\".to_string(), ::serde::Value::Array(vec![{items}]))]),",
                        binders = binders.join(", "),
                        items = items.join(", ")
                    )
                }
                Fields::Named(fields) => {
                    let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                    let binders = binders.join(", ");
                    let entries: Vec<String> = fields
                        .iter()
                        .map(|f| format!("(\"{}\".to_string(), {})", f.name, f.ser_expr(&f.name)))
                        .collect();
                    format!(
                        "{name}::{vname} {{ {binders} }} => ::serde::Value::Object(vec![(\
                         \"{vname}\".to_string(), ::serde::Value::Object(vec![{entries}]))]),",
                        entries = entries.join(", ")
                    )
                }
            }
        })
        .collect();
    format!("match self {{ {} }}", arms.join(" "))
}

/// Statement block rebuilding `Self` from `__value: &Value` for an enum.
fn gen_enum_from_value(name: &str, variants: &[Variant]) -> String {
    // Unit variants arrive as a bare string.
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|v| matches!(v.fields, Fields::Unit))
        .map(|v| format!("\"{vn}\" => return Ok({name}::{vn}),", vn = v.name))
        .collect();
    // Data variants arrive as a single-entry object {tag: inner}.
    let tag_arms: Vec<String> = variants
        .iter()
        .filter_map(|v| {
            let vname = &v.name;
            let body = match &v.fields {
                Fields::Unit => return None,
                Fields::Tuple(1) => {
                    format!("return Ok({name}::{vname}(::serde::from_value(__inner)?));")
                }
                Fields::Tuple(n) => {
                    let items: Vec<String> =
                        (0..*n).map(|i| format!("::serde::from_value(&__items[{i}])?")).collect();
                    format!(
                        "let __items = __inner.as_array().ok_or_else(|| \
                         ::serde::Error::custom(\"expected array for variant {vname}\"))?; \
                         if __items.len() != {n} {{ return Err(::serde::Error::custom(\
                         \"wrong tuple length for variant {vname}\")); }} \
                         return Ok({name}::{vname}({items}));",
                        items = items.join(", ")
                    )
                }
                Fields::Named(fields) => {
                    let inits: Vec<String> = fields.iter().map(|f| f.de_init("__inner")).collect();
                    format!("return Ok({name}::{vname} {{ {} }});", inits.join(", "))
                }
            };
            Some(format!("\"{vname}\" => {{ {body} }}"))
        })
        .collect();

    let mut body = String::new();
    if !unit_arms.is_empty() {
        body.push_str(&format!(
            "if let ::serde::Value::Str(__s) = __value {{ \
                 match __s.as_str() {{ {} _ => {{}} }} \
             }} ",
            unit_arms.join(" ")
        ));
    }
    if !tag_arms.is_empty() {
        body.push_str(&format!(
            "if let Some([(__tag, __inner)]) = __value.as_object() {{ \
                 match __tag.as_str() {{ {} _ => {{ let _ = __inner; }} }} \
             }} ",
            tag_arms.join(" ")
        ));
    }
    body.push_str(&format!("Err(::serde::Error::custom(\"unknown variant for enum {name}\"))"));
    body
}

/// `("<A: Bound, B: Bound>", "<A, B>")` impl-header fragments, or empty
/// strings for non-generic types.
fn generics_fragments(generics: &[String], bound: &str) -> (String, String) {
    if generics.is_empty() {
        return (String::new(), String::new());
    }
    let decls: Vec<String> = generics.iter().map(|g| format!("{g}: {bound}")).collect();
    (format!("<{}>", decls.join(", ")), format!("<{}>", generics.join(", ")))
}

/// Derives the shim's `Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    let (name, generics, body) = match &parsed {
        Input::Struct { name, generics, fields } => {
            (name, generics, format!("Ok({})", gen_struct_to_value(fields)))
        }
        Input::Enum { name, generics, variants } => {
            (name, generics, format!("Ok({})", gen_enum_to_value(name, variants)))
        }
    };
    let (decls, args) = generics_fragments(generics, "::serde::Serialize");
    let code = format!(
        "impl{decls} ::serde::Serialize for {name}{args} {{ \
             fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) \
                 -> ::core::result::Result<__S::Ok, __S::Error> {{ \
                 let __v = (|| -> ::core::result::Result<::serde::Value, ::serde::Error> {{ \
                     {body} \
                 }})().map_err(|__e| <__S::Error as ::serde::ser::Error>::custom(__e))?; \
                 __serializer.serialize_value(__v) \
             }} \
         }}"
    );
    code.parse().expect("serde_derive shim: generated Serialize impl failed to parse")
}

/// Derives the shim's `Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    let (name, generics, body) = match &parsed {
        Input::Struct { name, generics, fields } => {
            (name, generics, format!("Ok({})", gen_struct_from_value(name, fields)))
        }
        Input::Enum { name, generics, variants } => {
            (name, generics, gen_enum_from_value(name, variants))
        }
    };
    let (decls, args) = generics_fragments(generics, "::serde::Deserialize<'de>");
    let decls =
        if decls.is_empty() { "<'de>".to_string() } else { decls.replacen('<', "<'de, ", 1) };
    let code = format!(
        "impl{decls} ::serde::Deserialize<'de> for {name}{args} {{ \
             fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) \
                 -> ::core::result::Result<Self, __D::Error> {{ \
                 let __value = ::serde::Deserializer::as_value(&__deserializer); \
                 (|| -> ::core::result::Result<Self, ::serde::Error> {{ \
                     {body} \
                 }})().map_err(|__e| <__D::Error as ::serde::de::Error>::custom(__e)) \
             }} \
         }}"
    );
    code.parse().expect("serde_derive shim: generated Deserialize impl failed to parse")
}
