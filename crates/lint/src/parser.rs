//! Recursive-descent parser: token stream → [`crate::ast`].
//!
//! The parser is loss-tolerant by design: it must produce a usable tree
//! for *any* input (the lint runs on work-in-progress code), so anywhere
//! it cannot recognize a construct it skips one token and keeps going —
//! it never fails, never panics, and always terminates (every loop bounds
//! itself on a strictly advancing cursor). The price is approximation:
//! operator precedence is not modeled (rules never need it), patterns are
//! skipped rather than parsed, and macro bodies are re-parsed best-effort
//! so the calls inside them still land in the tree.
//!
//! What it gets right — because the rules depend on it — is structure:
//! which function a call appears in, what an impl qualifies a method as,
//! where `unsafe` blocks begin and end (as token spans), which `let _ =`
//! discards a value, and which index expressions use a literal subscript.

use crate::ast::{Block, Container, ContainerKind, Expr, File, FnItem, Item, Stmt};
use crate::lexer::{Tok, TokKind};

/// Parse a lexed file. `toks` is the full token stream *including*
/// comments (rules use the token indices in [`Block`] spans to find
/// nearby comments); the parser itself skips them.
pub fn parse(toks: &[Tok]) -> File {
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut p = Parser { toks, sig, pos: 0 };
    File {
        items: p.items(false, None),
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    /// Indices of non-comment tokens.
    sig: Vec<usize>,
    /// Cursor into `sig`.
    pos: usize,
}

/// Keywords that begin an item when seen in statement/item position.
const ITEM_STARTERS: &[&str] = &[
    "fn",
    "mod",
    "impl",
    "trait",
    "struct",
    "enum",
    "union",
    "use",
    "static",
    "type",
    "macro_rules",
    "extern",
    "macro",
];

impl<'a> Parser<'a> {
    // -- cursor ------------------------------------------------------------

    fn tok(&self, ahead: usize) -> Option<&'a Tok> {
        self.sig.get(self.pos + ahead).map(|&i| &self.toks[i])
    }

    fn tok_index(&self) -> usize {
        self.sig.get(self.pos).copied().unwrap_or(self.toks.len())
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.sig.len()
    }

    fn at_punct(&self, c: char) -> bool {
        self.tok(0).is_some_and(|t| t.is_punct(c))
    }

    fn at_punct2(&self, a: char, b: char) -> bool {
        self.tok(0).is_some_and(|t| t.is_punct(a)) && self.tok(1).is_some_and(|t| t.is_punct(b))
    }

    fn at_ident(&self, word: &str) -> bool {
        self.tok(0).is_some_and(|t| t.is_ident(word))
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if self.at_ident(word) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn pos_of(&self, t: &Tok) -> (u32, u32) {
        (t.line, t.col)
    }

    // -- shared skippers ---------------------------------------------------

    /// Skip a balanced `#[ … ]` attribute; returns the identifier words it
    /// contains (for `#[test]` / `#[cfg(test)]` detection).
    fn attr_words(&mut self) -> Vec<String> {
        let mut words = Vec::new();
        self.eat_punct('#');
        self.eat_punct('!'); // inner attribute `#![…]`
        if !self.at_punct('[') {
            return words;
        }
        let mut depth = 0i32;
        while let Some(t) = self.tok(0) {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    break;
                }
            } else if t.kind == TokKind::Ident {
                words.push(t.text.clone());
            }
            self.pos += 1;
        }
        words
    }

    /// Skip a balanced generic-argument list starting at `<`. `>` that is
    /// part of `->` does not close a level (fn types inside generics).
    fn skip_generics(&mut self) {
        if !self.at_punct('<') {
            return;
        }
        let mut depth = 0i32;
        let mut prev_dash = false;
        while let Some(t) = self.tok(0) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_dash {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    break;
                }
            }
            prev_dash = t.is_punct('-');
            self.pos += 1;
        }
    }

    /// Skip a balanced delimiter group whose opener is the current token.
    fn skip_group(&mut self, open: char, close: char) {
        let mut depth = 0i32;
        while let Some(t) = self.tok(0) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    break;
                }
            }
            self.pos += 1;
        }
    }

    /// Skip type-ish tokens: paths, generics, references, tuples, slices,
    /// `dyn`/`impl`, fn types. Stops at any token that cannot continue a
    /// type in this grammar's approximation.
    fn skip_type(&mut self) {
        while let Some(t) = self.tok(0) {
            if t.is_punct('&') || t.is_punct('*') {
                self.pos += 1;
                self.eat_ident("mut");
                self.eat_ident("const");
                continue;
            }
            if t.kind == TokKind::Lifetime {
                self.pos += 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                if matches!(
                    t.text.as_str(),
                    "dyn" | "impl" | "mut" | "const" | "unsafe" | "extern" | "fn"
                ) {
                    self.pos += 1;
                    continue;
                }
                self.pos += 1;
                self.skip_generics();
                if self.at_punct2(':', ':') {
                    self.pos += 2;
                    continue;
                }
                // `Trait + Send` bounds.
                if self.at_punct('+') {
                    self.pos += 1;
                    continue;
                }
                break;
            }
            if t.is_punct('(') {
                self.skip_group('(', ')');
                if self.at_punct2('-', '>') {
                    self.pos += 2;
                    continue;
                }
                break;
            }
            if t.is_punct('[') {
                self.skip_group('[', ']');
                break;
            }
            if t.is_punct('<') {
                self.skip_generics();
                continue;
            }
            break;
        }
    }

    /// Capture return-type text from after `->` up to `{`, `;`, or
    /// `where`, whitespace-free (`Result<(),SpillError>`).
    fn ret_text(&mut self) -> String {
        let mut out = String::new();
        let mut prev_dash = false;
        // Nesting of `<…>`, `[…]` and `(…)`: the `;` of `-> [u8; 4]` is
        // part of the type, not the end of a body-less declaration.
        let mut nest = 0i32;
        while let Some(t) = self.tok(0) {
            if nest == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where")) {
                break;
            }
            if t.is_punct('<') || t.is_punct('[') || t.is_punct('(') {
                nest += 1;
            } else if nest > 0
                && (t.is_punct('>') && !prev_dash || t.is_punct(']') || t.is_punct(')'))
            {
                nest -= 1;
            }
            prev_dash = t.is_punct('-');
            out.push_str(&t.text);
            self.pos += 1;
        }
        out
    }

    /// Skip a pattern: everything up to the stop condition, with
    /// delimiter groups consumed wholesale. Returns true if the whole
    /// pattern was exactly the wildcard `_`.
    fn skip_pattern(&mut self, stop: &dyn Fn(&Parser) -> bool) -> bool {
        let mut seen = 0usize;
        let mut underscore = false;
        while !self.at_eof() && !stop(self) {
            let Some(t) = self.tok(0) else { break };
            let group = [('(', ')'), ('[', ']'), ('{', '}')]
                .into_iter()
                .find(|&(open, _)| t.is_punct(open));
            if let Some((open, close)) = group {
                self.skip_group(open, close);
                seen += 2;
                continue;
            }
            underscore = seen == 0 && t.is_ident("_");
            seen += 1;
            self.pos += 1;
        }
        underscore && seen == 1
    }

    // -- items -------------------------------------------------------------

    /// Parse items until `}` (if `until_close`) or EOF.
    fn items(&mut self, until_close: bool, qual: Option<&str>) -> Vec<Item> {
        let mut out = Vec::new();
        loop {
            if self.at_eof() || (until_close && self.at_punct('}')) {
                break;
            }
            let before = self.pos;
            if let Some(item) = self.item(qual) {
                out.push(item);
            }
            if self.pos == before {
                self.pos += 1; // recovery: never loop in place
            }
        }
        out
    }

    /// Parse one item, or return `None` after consuming stray tokens.
    fn item(&mut self, qual: Option<&str>) -> Option<Item> {
        let mut is_test = false;
        while self.at_punct('#') {
            let words = self.attr_words();
            if words.iter().any(|w| w == "test") && !words.iter().any(|w| w == "not") {
                is_test = true;
            }
        }
        // Visibility and leading modifiers.
        if self.eat_ident("pub") && self.at_punct('(') {
            self.skip_group('(', ')');
        }
        self.eat_ident("default");
        self.eat_ident("const");
        self.eat_ident("async");
        self.eat_ident("unsafe");
        if self.eat_ident("extern") {
            if self.tok(0).is_some_and(|t| t.kind == TokKind::Str) {
                self.pos += 1;
            }
            // `extern crate name;` / `extern "C" { … }` foreign block.
            if self.eat_ident("crate") {
                self.skip_to_semi();
                return Some(Item::Other);
            }
            if self.at_punct('{') {
                self.skip_group('{', '}');
                return Some(Item::Other);
            }
        }

        let t = self.tok(0)?;
        match t.text.as_str() {
            "fn" => Some(Item::Fn(self.fn_item(is_test, qual))),
            "mod" => {
                self.pos += 1;
                let name = self.ident_text().unwrap_or_default();
                if self.eat_punct(';') {
                    return Some(Item::Other);
                }
                if self.at_punct('{') {
                    self.pos += 1;
                    let items = self.items(true, None);
                    self.eat_punct('}');
                    return Some(Item::Container(Container {
                        kind: ContainerKind::Mod,
                        name,
                        is_test,
                        items,
                    }));
                }
                Some(Item::Other)
            }
            "impl" => {
                self.pos += 1;
                self.skip_generics();
                // Header tokens up to `{` or `;`: the implemented type is
                // the path after `for` when present, else the first path.
                let mut first = None;
                let mut after_for = None;
                let mut saw_for = false;
                while let Some(h) = self.tok(0) {
                    if h.is_punct('{') || h.is_punct(';') {
                        break;
                    }
                    if h.is_ident("for") {
                        saw_for = true;
                        self.pos += 1;
                        continue;
                    }
                    if h.kind == TokKind::Ident
                        && !matches!(h.text.as_str(), "dyn" | "where" | "mut" | "const")
                    {
                        let name = h.text.clone();
                        self.pos += 1;
                        self.skip_generics();
                        if self.at_punct2(':', ':') {
                            self.pos += 2;
                            continue; // keep walking the path; use the last segment
                        }
                        if saw_for && after_for.is_none() {
                            after_for = Some(name);
                        } else if first.is_none() {
                            first = Some(name);
                        } else if saw_for {
                            after_for = Some(name);
                        }
                        continue;
                    }
                    self.pos += 1;
                }
                if self.eat_punct(';') {
                    return Some(Item::Other);
                }
                let name = after_for.or(first).unwrap_or_default();
                if self.at_punct('{') {
                    self.pos += 1;
                    let items = self.items(true, Some(&name));
                    self.eat_punct('}');
                    return Some(Item::Container(Container {
                        kind: ContainerKind::Impl,
                        name,
                        is_test,
                        items,
                    }));
                }
                Some(Item::Other)
            }
            "trait" => {
                self.pos += 1;
                let name = self.ident_text().unwrap_or_default();
                // Supertraits / generics / where clause up to the body.
                while let Some(h) = self.tok(0) {
                    if h.is_punct('{') || h.is_punct(';') {
                        break;
                    }
                    if h.is_punct('<') {
                        self.skip_generics();
                        continue;
                    }
                    self.pos += 1;
                }
                if self.at_punct('{') {
                    self.pos += 1;
                    let items = self.items(true, Some(&name));
                    self.eat_punct('}');
                    return Some(Item::Container(Container {
                        kind: ContainerKind::Trait,
                        name,
                        is_test,
                        items,
                    }));
                }
                self.eat_punct(';');
                Some(Item::Other)
            }
            "struct" | "enum" | "union" => {
                self.pos += 1;
                while let Some(h) = self.tok(0) {
                    if h.is_punct(';') {
                        self.pos += 1;
                        break;
                    }
                    if h.is_punct('{') {
                        self.skip_group('{', '}');
                        // Tuple structs end `);` — brace body ends the item.
                        break;
                    }
                    if h.is_punct('(') {
                        self.skip_group('(', ')');
                        continue;
                    }
                    if h.is_punct('<') {
                        self.skip_generics();
                        continue;
                    }
                    self.pos += 1;
                }
                Some(Item::Other)
            }
            "use" | "type" => {
                self.skip_to_semi();
                Some(Item::Other)
            }
            "static" => {
                // `static NAME: T = init;` — the initializer may contain
                // blocks; balance them on the way to the `;`.
                self.skip_to_semi();
                Some(Item::Other)
            }
            "macro_rules" | "macro" => {
                self.pos += 1;
                self.eat_punct('!');
                self.ident_text();
                if self.at_punct('{') {
                    self.skip_group('{', '}');
                } else if self.at_punct('(') {
                    self.skip_group('(', ')');
                    self.eat_punct(';');
                }
                Some(Item::Other)
            }
            _ => None,
        }
    }

    fn ident_text(&mut self) -> Option<String> {
        let t = self.tok(0)?;
        if t.kind == TokKind::Ident {
            let s = t.text.clone();
            self.pos += 1;
            Some(s)
        } else {
            None
        }
    }

    /// Consume to the next `;`, balancing delimiter groups on the way.
    fn skip_to_semi(&mut self) {
        while let Some(t) = self.tok(0) {
            if t.is_punct(';') {
                self.pos += 1;
                break;
            }
            if t.is_punct('{') {
                self.skip_group('{', '}');
                continue;
            }
            if t.is_punct('(') {
                self.skip_group('(', ')');
                continue;
            }
            if t.is_punct('[') {
                self.skip_group('[', ']');
                continue;
            }
            self.pos += 1;
        }
    }

    /// Parse `fn name<…>(…) -> Ret where … { body }`; cursor at `fn`.
    fn fn_item(&mut self, is_test: bool, qual: Option<&str>) -> FnItem {
        self.eat_ident("fn");
        let name = self.ident_text().unwrap_or_default();
        self.skip_generics();
        if self.at_punct('(') {
            self.skip_group('(', ')');
        }
        let ret = if self.at_punct2('-', '>') {
            self.pos += 2;
            self.ret_text()
        } else {
            String::new()
        };
        if self.eat_ident("where") {
            while let Some(t) = self.tok(0) {
                if t.is_punct('{') || t.is_punct(';') {
                    break;
                }
                if t.is_punct('<') {
                    self.skip_generics();
                    continue;
                }
                if t.is_punct('(') {
                    self.skip_group('(', ')');
                    continue;
                }
                self.pos += 1;
            }
        }
        let body = if self.at_punct('{') {
            Some(self.block())
        } else {
            self.eat_punct(';');
            None
        };
        let qual_name = match qual {
            Some(q) if !q.is_empty() => format!("{q}::{name}"),
            _ => name.clone(),
        };
        FnItem {
            name,
            qual: qual_name,
            is_test,
            ret,
            body,
        }
    }

    // -- blocks and statements ----------------------------------------------

    /// Parse a `{ … }` block; cursor at `{`.
    fn block(&mut self) -> Block {
        let tok_open = self.tok_index();
        self.eat_punct('{');
        let mut stmts = Vec::new();
        loop {
            if self.at_eof() {
                return Block {
                    stmts,
                    tok_open,
                    tok_close: tok_open,
                };
            }
            if self.at_punct('}') {
                let tok_close = self.tok_index();
                self.pos += 1;
                return Block {
                    stmts,
                    tok_open,
                    tok_close,
                };
            }
            let before = self.pos;
            if let Some(stmt) = self.stmt() {
                stmts.push(stmt);
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
    }

    /// Parse one statement, or consume stray tokens and return `None`.
    fn stmt(&mut self) -> Option<Stmt> {
        if self.eat_punct(';') {
            return None;
        }
        // Statement-position attributes: remember test-ness for items.
        let mut attr_test = false;
        while self.at_punct('#') {
            let words = self.attr_words();
            if words.iter().any(|w| w == "test") && !words.iter().any(|w| w == "not") {
                attr_test = true;
            }
        }
        let t = self.tok(0)?;
        if t.is_ident("let") {
            return Some(self.let_stmt());
        }
        // Items in statement position. `unsafe` and `const` are ambiguous:
        // `unsafe {` / `const {` are expressions, `unsafe fn` / `const X`
        // are items.
        if t.kind == TokKind::Ident {
            let is_item = match t.text.as_str() {
                w if ITEM_STARTERS.contains(&w) => {
                    // `extern "C" fn` types appear in expressions only
                    // inside casts, which skip_type handles; here it is
                    // an item.
                    w != "extern" || self.tok(1).is_some_and(|n| n.kind == TokKind::Str)
                }
                "pub" => true,
                "unsafe" => self.tok(1).is_some_and(|n| {
                    n.is_ident("fn")
                        || n.is_ident("impl")
                        || n.is_ident("trait")
                        || n.is_ident("extern")
                }),
                "const" => {
                    self.tok(1).is_some_and(|n| {
                        n.kind == TokKind::Ident && n.text != "fn" || n.is_ident("fn")
                    }) && !self.tok(1).is_some_and(|n| n.is_punct('{'))
                }
                _ => false,
            };
            if is_item {
                let before = self.pos;
                if let Some(mut item) = self.item(None) {
                    if attr_test {
                        if let Item::Fn(f) = &mut item {
                            f.is_test = true;
                        }
                    }
                    return Some(Stmt::Item(Box::new(item)));
                }
                if self.pos == before {
                    self.pos += 1;
                }
                return None;
            }
        }
        let expr = self.expr(true);
        let semi = self.eat_punct(';');
        Some(Stmt::Expr { expr, semi })
    }

    fn let_stmt(&mut self) -> Stmt {
        self.eat_ident("let");
        // Pattern up to `=` (not `==`), `;`, or `:` type annotation.
        let underscore = self.skip_pattern(&|p| {
            p.at_punct(';')
                || (p.at_punct('=') && !p.tok(1).is_some_and(|n| n.is_punct('=')))
                || p.at_punct(':')
        });
        if self.eat_punct(':') {
            self.skip_type();
        }
        let mut init = None;
        if self.at_punct('=') && !self.tok(1).is_some_and(|n| n.is_punct('=')) {
            self.pos += 1;
            init = Some(self.expr(true));
            // let-else.
            if self.eat_ident("else") && self.at_punct('{') {
                let blk = self.block();
                if let Some(e) = init.take() {
                    init = Some(Expr::Other(vec![e, Expr::Block(blk)]));
                }
            }
        }
        self.eat_punct(';');
        Stmt::Let { underscore, init }
    }

    // -- expressions ---------------------------------------------------------

    /// Parse an expression. `allow_struct` gates `Path { … }` struct
    /// literals (off in `if`/`while`/`match`/`for` head positions).
    fn expr(&mut self, allow_struct: bool) -> Expr {
        let mut units = vec![self.unit(allow_struct)];
        while let Some(t) = self.tok(0) {
            // Range `..` / `..=`.
            if self.at_punct2('.', '.') {
                self.pos += 2;
                self.eat_punct('=');
                if self.operand_follows(allow_struct) {
                    units.push(self.unit(allow_struct));
                }
                continue;
            }
            if t.kind != TokKind::Punct || !is_binary_op_char(&t.text) {
                break;
            }
            // Compound operators (`>=`, `==`, `<<=`, …) arrive as runs of
            // single-char tokens. Consume the first char, then any tail
            // chars that cannot begin an operand — `&x`, `*p`, `-1`, `!b`,
            // `|c| …` prefixes stay with the next operand.
            self.pos += 1;
            if t.is_punct('|') {
                // `||` logical-or: a leftover `|` would misparse as a
                // closure head, so take both pipes here.
                self.eat_punct('|');
            }
            while self.tok(0).is_some_and(|n| {
                n.kind == TokKind::Punct
                    && matches!(n.text.as_str(), "=" | "<" | ">" | "+" | "/" | "%" | "^")
            }) {
                self.pos += 1;
            }
            if !self.operand_follows(allow_struct) {
                break;
            }
            units.push(self.unit(allow_struct));
        }
        if units.len() == 1 {
            units.pop().unwrap_or(Expr::Lit { int: false })
        } else {
            Expr::Other(units)
        }
    }

    /// Could the current token begin an operand?
    fn operand_follows(&self, allow_struct: bool) -> bool {
        let Some(t) = self.tok(0) else { return false };
        match t.kind {
            TokKind::Ident => !matches!(t.text.as_str(), "else" | "in" | "where"),
            TokKind::Num | TokKind::Str | TokKind::RawStr | TokKind::Char | TokKind::Lifetime => {
                true
            }
            TokKind::Punct => {
                matches!(
                    t.text.chars().next(),
                    Some('(' | '[' | '&' | '*' | '!' | '-' | '|')
                ) || (allow_struct && t.is_punct('{'))
            }
            _ => false,
        }
    }

    /// Parse one operand: prefix ops, a primary, postfix chain.
    fn unit(&mut self, allow_struct: bool) -> Expr {
        // Prefix operators.
        let Some(t) = self.tok(0) else {
            return Expr::Lit { int: false };
        };
        if t.is_punct('&') {
            self.pos += 1;
            self.eat_punct('&'); // `&&x`
            self.eat_ident("mut");
            let inner = self.unit(allow_struct);
            return Expr::Unary {
                op: '&',
                expr: Box::new(inner),
            };
        }
        if t.is_punct('*') {
            self.pos += 1;
            let inner = self.unit(allow_struct);
            return Expr::Unary {
                op: '*',
                expr: Box::new(inner),
            };
        }
        if t.is_punct('!') || t.is_punct('-') {
            let op = if t.is_punct('!') { '!' } else { '-' };
            self.pos += 1;
            let inner = self.unit(allow_struct);
            return Expr::Unary {
                op,
                expr: Box::new(inner),
            };
        }
        if t.is_ident("move") {
            self.pos += 1;
            return self.unit(allow_struct);
        }
        if t.is_ident("box") {
            self.pos += 1;
            return self.unit(allow_struct);
        }
        // Closures.
        if t.is_punct('|') {
            self.pos += 1;
            // Parameter list to the closing `|`; types may contain groups
            // and generics, which are consumed wholesale.
            while let Some(p) = self.tok(0) {
                if p.is_punct('|') {
                    self.pos += 1;
                    break;
                }
                if p.is_punct('(') {
                    self.skip_group('(', ')');
                } else if p.is_punct('[') {
                    self.skip_group('[', ']');
                } else if p.is_punct('<') {
                    self.skip_generics();
                } else {
                    self.pos += 1;
                }
            }
            // Optional return type before a block body.
            if self.at_punct2('-', '>') {
                self.pos += 2;
                self.ret_text();
            }
            return Expr::Other(vec![self.expr(allow_struct)]);
        }
        let primary = self.primary(allow_struct);
        self.postfix(primary, allow_struct)
    }

    /// Parse a primary expression.
    fn primary(&mut self, allow_struct: bool) -> Expr {
        let Some(t) = self.tok(0) else {
            return Expr::Lit { int: false };
        };
        let (line, col) = self.pos_of(t);
        match t.kind {
            TokKind::Num => {
                let int = !t.text.contains('.');
                self.pos += 1;
                Expr::Lit { int }
            }
            TokKind::Str | TokKind::RawStr | TokKind::Char => {
                self.pos += 1;
                Expr::Lit { int: false }
            }
            TokKind::Lifetime => {
                // Loop label `'x: loop { … }`.
                self.pos += 1;
                self.eat_punct(':');
                self.unit(allow_struct)
            }
            TokKind::Punct => {
                if t.is_punct('(') {
                    self.pos += 1;
                    let mut items = Vec::new();
                    loop {
                        if self.at_eof() || self.at_punct(')') {
                            self.eat_punct(')');
                            break;
                        }
                        items.push(self.expr(true));
                        if !self.eat_punct(',') && !self.at_punct(')') {
                            // Recovery: unknown separator.
                            if self.tok(0).is_some() {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    return Expr::Other(items);
                }
                if t.is_punct('[') {
                    self.pos += 1;
                    let mut items = Vec::new();
                    loop {
                        if self.at_eof() || self.at_punct(']') {
                            self.eat_punct(']');
                            break;
                        }
                        items.push(self.expr(true));
                        if !self.eat_punct(',') && !self.eat_punct(';') && !self.at_punct(']') {
                            if self.tok(0).is_some() {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    return Expr::Other(items);
                }
                if t.is_punct('{') {
                    return Expr::Block(self.block());
                }
                // Unknown punctuation: consume so progress is guaranteed.
                self.pos += 1;
                Expr::Lit { int: false }
            }
            TokKind::Ident => match t.text.as_str() {
                "if" => self.if_expr(),
                "match" => self.match_expr(),
                "loop" => {
                    self.pos += 1;
                    let body = if self.at_punct('{') {
                        self.block()
                    } else {
                        self.empty_block()
                    };
                    Expr::Loop {
                        head: Vec::new(),
                        body,
                    }
                }
                "while" => {
                    self.pos += 1;
                    if self.eat_ident("let") {
                        self.skip_pattern(&|p| {
                            p.at_punct('=') && !p.tok(1).is_some_and(|n| n.is_punct('='))
                        });
                        self.eat_punct('=');
                    }
                    let cond = self.expr(false);
                    let body = if self.at_punct('{') {
                        self.block()
                    } else {
                        self.empty_block()
                    };
                    Expr::Loop {
                        head: vec![cond],
                        body,
                    }
                }
                "for" => {
                    self.pos += 1;
                    self.skip_pattern(&|p| p.at_ident("in"));
                    self.eat_ident("in");
                    let iter = self.expr(false);
                    let body = if self.at_punct('{') {
                        self.block()
                    } else {
                        self.empty_block()
                    };
                    Expr::Loop {
                        head: vec![iter],
                        body,
                    }
                }
                "unsafe" => {
                    self.pos += 1;
                    if self.at_punct('{') {
                        let block = self.block();
                        Expr::Unsafe { block, line, col }
                    } else {
                        Expr::Lit { int: false }
                    }
                }
                "return" | "break" | "continue" | "yield" => {
                    self.pos += 1;
                    if self.tok(0).is_some_and(|n| n.kind == TokKind::Lifetime) {
                        self.pos += 1; // `break 'label`
                    }
                    let value = self
                        .operand_follows(allow_struct)
                        .then(|| self.expr(allow_struct));
                    Expr::Other(value.into_iter().collect())
                }
                "const" => {
                    // `const { … }` block.
                    self.pos += 1;
                    if self.at_punct('{') {
                        Expr::Block(self.block())
                    } else {
                        Expr::Lit { int: false }
                    }
                }
                _ => self.path_expr(allow_struct),
            },
            _ => {
                self.pos += 1;
                Expr::Lit { int: false }
            }
        }
    }

    fn empty_block(&self) -> Block {
        Block {
            stmts: Vec::new(),
            tok_open: self.toks.len(),
            tok_close: self.toks.len(),
        }
    }

    fn if_expr(&mut self) -> Expr {
        self.eat_ident("if");
        if self.eat_ident("let") {
            self.skip_pattern(&|p| p.at_punct('=') && !p.tok(1).is_some_and(|n| n.is_punct('=')));
            self.eat_punct('=');
        }
        let cond = self.expr(false);
        let then = if self.at_punct('{') {
            self.block()
        } else {
            self.empty_block()
        };
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.if_expr()))
            } else if self.at_punct('{') {
                Some(Box::new(Expr::Block(self.block())))
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            els,
        }
    }

    fn match_expr(&mut self) -> Expr {
        self.eat_ident("match");
        let scrutinee = self.expr(false);
        let mut children = vec![scrutinee];
        if !self.at_punct('{') {
            return Expr::Other(children);
        }
        self.pos += 1;
        loop {
            if self.at_eof() || self.at_punct('}') {
                self.eat_punct('}');
                break;
            }
            let before = self.pos;
            // Pattern to `=>` or a guard `if`.
            self.skip_pattern(&|p| {
                (p.at_punct('=') && p.tok(1).is_some_and(|n| n.is_punct('>'))) || p.at_ident("if")
            });
            if self.eat_ident("if") {
                children.push(self.expr(false));
            }
            if self.at_punct2('=', '>') {
                self.pos += 2;
                children.push(self.expr(true));
                self.eat_punct(',');
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
        Expr::Other(children)
    }

    /// A path primary: `a::b::<T>::c`, then macro / call / struct literal.
    fn path_expr(&mut self, allow_struct: bool) -> Expr {
        let mut path = String::new();
        let mut last_pos = (0u32, 0u32);
        while let Some(t) = self.tok(0) {
            if t.kind != TokKind::Ident {
                break;
            }
            if !path.is_empty() {
                path.push_str("::");
            }
            path.push_str(&t.text);
            last_pos = self.pos_of(t);
            self.pos += 1;
            if self.at_punct2(':', ':') {
                self.pos += 2;
                if self.at_punct('<') {
                    self.skip_generics();
                    if self.at_punct2(':', ':') {
                        self.pos += 2;
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        let (line, col) = last_pos;
        // Macro invocation.
        if self.at_punct('!')
            && self
                .tok(1)
                .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
        {
            self.pos += 1;
            let name = path.rsplit("::").next().unwrap_or(&path).to_string();
            let args = self.macro_args();
            return Expr::Macro {
                name,
                args,
                line,
                col,
            };
        }
        // Struct literal.
        if allow_struct && self.at_punct('{') && starts_with_uppercase_segment(&path) {
            self.pos += 1;
            let mut children = Vec::new();
            loop {
                if self.at_eof() || self.at_punct('}') {
                    self.eat_punct('}');
                    break;
                }
                let before = self.pos;
                // `field: expr` / `field` / `..base`.
                if self.at_punct2('.', '.') {
                    self.pos += 2;
                    children.push(self.expr(true));
                } else {
                    self.ident_text();
                    if self.eat_punct(':') {
                        children.push(self.expr(true));
                    }
                }
                self.eat_punct(',');
                if self.pos == before {
                    self.pos += 1;
                }
            }
            return Expr::Other(children);
        }
        Expr::Path { path }
    }

    /// Macro delimiter group → best-effort expressions.
    fn macro_args(&mut self) -> Vec<Expr> {
        let (open, close) = match self.tok(0) {
            Some(t) if t.is_punct('(') => ('(', ')'),
            Some(t) if t.is_punct('[') => ('[', ']'),
            Some(t) if t.is_punct('{') => ('{', '}'),
            _ => return Vec::new(),
        };
        // Find the group's extent, then re-parse its interior.
        let start = self.pos;
        self.skip_group(open, close);
        let end = self.pos; // one past the closer
        let inner_start = start + 1;
        let inner_end = end.saturating_sub(1);
        let mut args = Vec::new();
        let saved = self.pos;
        self.pos = inner_start;
        while self.pos < inner_end {
            let before = self.pos;
            let e = self.expr(true);
            args.push(e);
            if self.pos >= inner_end {
                break;
            }
            self.eat_punct(',');
            self.eat_punct(';');
            self.eat_punct('=');
            if self.pos == before {
                self.pos += 1;
            }
        }
        self.pos = saved;
        // Tokens past the closer may have been consumed by a confused
        // expr parse inside the group; the saved position is authoritative.
        args
    }

    /// Postfix chain: `.m(…)`, `.field`, `(…)`, `[…]`, `?`, `as T`.
    fn postfix(&mut self, mut expr: Expr, allow_struct: bool) -> Expr {
        while let Some(t) = self.tok(0) {
            if t.is_punct('.') && !self.at_punct2('.', '.') {
                let Some(next) = self.tok(1) else { break };
                if next.kind == TokKind::Ident {
                    let name = next.text.clone();
                    let (line, col) = self.pos_of(next);
                    self.pos += 2;
                    // Turbofish on method: `.collect::<Vec<_>>()`.
                    if self.at_punct2(':', ':') {
                        self.pos += 2;
                        self.skip_generics();
                    }
                    if self.at_punct('(') {
                        let args = self.call_args();
                        expr = Expr::Method {
                            recv: Box::new(expr),
                            name,
                            args,
                            line,
                            col,
                        };
                    } else {
                        expr = Expr::Field {
                            base: Box::new(expr),
                            name,
                        };
                    }
                    continue;
                }
                if next.kind == TokKind::Num {
                    // Tuple field `pair.0` (possibly `.0.1` lexed as `0.1`).
                    let name = next.text.clone();
                    self.pos += 2;
                    expr = Expr::Field {
                        base: Box::new(expr),
                        name,
                    };
                    continue;
                }
                break;
            }
            if t.is_punct('(') {
                let args = self.call_args();
                let (line, col) = self.pos_of(t);
                expr = match expr {
                    Expr::Path { path } => Expr::Call {
                        callee: path,
                        args,
                        line,
                        col,
                    },
                    other => {
                        let mut children = vec![other];
                        children.extend(args);
                        Expr::Other(children)
                    }
                };
                continue;
            }
            if t.is_punct('[') {
                let (line, col) = self.pos_of(t);
                self.pos += 1;
                let index = self.expr(true);
                self.eat_punct(']');
                let literal = matches!(index, Expr::Lit { int: true });
                expr = Expr::Index {
                    base: Box::new(expr),
                    index: Box::new(index),
                    literal,
                    line,
                    col,
                };
                continue;
            }
            if t.is_punct('?') {
                // `expr?` propagates the error — wrap so discard-shaped
                // rules (R012) do not mistake `f()?;` for a swallowed
                // Result; the call stays visible to tree walks.
                self.pos += 1;
                expr = Expr::Other(vec![expr]);
                continue;
            }
            if t.is_ident("as") {
                self.pos += 1;
                self.skip_type();
                continue;
            }
            let _ = allow_struct;
            break;
        }
        expr
    }

    /// `( … )` call arguments; cursor at `(`.
    fn call_args(&mut self) -> Vec<Expr> {
        self.eat_punct('(');
        let mut args = Vec::new();
        loop {
            if self.at_eof() || self.at_punct(')') {
                self.eat_punct(')');
                break;
            }
            let before = self.pos;
            args.push(self.expr(true));
            self.eat_punct(',');
            if self.pos == before {
                self.pos += 1;
            }
        }
        args
    }
}

/// Single-character tokens that can appear inside a binary operator.
fn is_binary_op_char(text: &str) -> bool {
    matches!(
        text,
        "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|" | "<" | ">" | "="
    ) || text == "!"
}

/// Struct-literal heuristic: the path's last segment starts uppercase
/// (types do; locals and fns do not), so `match x { … }` never parses
/// `x {` as a literal even outside no-struct positions.
fn starts_with_uppercase_segment(path: &str) -> bool {
    path.rsplit("::")
        .next()
        .and_then(|s| s.chars().next())
        .is_some_and(|c| c.is_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse(&lex(src))
    }

    fn fns(file: &File) -> Vec<(String, bool, String)> {
        let mut out = Vec::new();
        ast::for_each_fn(file, &mut |f, is_test| {
            out.push((f.qual.clone(), is_test, f.ret.clone()));
        });
        out
    }

    #[test]
    fn items_and_qualification() {
        let file = parse_src(
            "pub fn free() {}\n\
             impl Foo { fn m(&self) -> u32 { 1 } }\n\
             impl Display for Bar { fn fmt(&self) -> Result<(), Error> { Ok(()) } }\n\
             trait T { fn req(&self); fn def(&self) {} }\n\
             mod inner { pub fn nested() {} }\n",
        );
        let got = fns(&file);
        let names: Vec<&str> = got.iter().map(|(q, _, _)| q.as_str()).collect();
        assert_eq!(
            names,
            vec!["free", "Foo::m", "Bar::fmt", "T::req", "T::def", "nested"]
        );
        assert_eq!(got[2].2, "Result<(),Error>");
    }

    #[test]
    fn cfg_test_inheritance() {
        let file = parse_src(
            "fn prod() {}\n\
             #[cfg(test)] mod tests { fn helper() {} #[test] fn case() {} }\n\
             #[cfg(not(test))] fn also_prod() {}\n",
        );
        let got = fns(&file);
        assert_eq!(
            got.iter()
                .map(|(q, t, _)| (q.as_str(), *t))
                .collect::<Vec<_>>(),
            vec![
                ("prod", false),
                ("helper", true),
                ("case", true),
                ("also_prod", false)
            ]
        );
    }

    #[test]
    fn calls_methods_macros_are_found() {
        let file = parse_src(
            "fn f(v: &[u8]) { g(1); v.iter().map(|x| h(x)); assert!(k(v)); Type::assoc(2); }\n",
        );
        let mut calls = Vec::new();
        ast::for_each_fn(&file, &mut |f, _| {
            if let Some(b) = &f.body {
                b.walk_exprs(&mut |e| match e {
                    Expr::Call { callee, .. } => calls.push(callee.clone()),
                    Expr::Method { name, .. } => calls.push(format!(".{name}")),
                    Expr::Macro { name, .. } => calls.push(format!("{name}!")),
                    _ => {}
                });
            }
        });
        for want in ["g", ".iter", ".map", "h", "assert!", "k", "Type::assoc"] {
            assert!(
                calls.iter().any(|c| c == want),
                "missing {want} in {calls:?}"
            );
        }
    }

    #[test]
    fn unsafe_blocks_and_let_underscore() {
        let src = "fn f(p: *const u8) { let _ = g(); unsafe { *p; } let _x = h(); }\n";
        let file = parse_src(src);
        let mut unders = 0;
        let mut unsafes = 0;
        ast::for_each_fn(&file, &mut |f, _| {
            if let Some(b) = &f.body {
                for s in &b.stmts {
                    if let ast::Stmt::Let {
                        underscore: true, ..
                    } = s
                    {
                        unders += 1;
                    }
                }
                b.walk_exprs(&mut |e| {
                    if let Expr::Unsafe { .. } = e {
                        unsafes += 1;
                    }
                });
            }
        });
        assert_eq!(unders, 1, "only the wildcard pattern counts");
        assert_eq!(unsafes, 1);
    }

    #[test]
    fn literal_vs_computed_index() {
        let file = parse_src("fn f(v: &[u8], i: usize) { v[0]; v[i]; v[i + 1]; }\n");
        let mut literals = 0;
        let mut computed = 0;
        ast::for_each_fn(&file, &mut |f, _| {
            if let Some(b) = &f.body {
                b.walk_exprs(&mut |e| {
                    if let Expr::Index { literal, .. } = e {
                        if *literal {
                            literals += 1;
                        } else {
                            computed += 1;
                        }
                    }
                });
            }
        });
        assert_eq!((literals, computed), (1, 2));
    }

    #[test]
    fn match_and_struct_literals_do_not_confuse_blocks() {
        let file = parse_src(
            "fn f(x: E) -> u32 { match x { E::A => g(), E::B if h() => 2, _ => 3 } }\n\
             fn mk() -> P { P { a: q(), b: 2 } }\n",
        );
        let mut calls = Vec::new();
        ast::for_each_fn(&file, &mut |f, _| {
            if let Some(b) = &f.body {
                b.walk_exprs(&mut |e| {
                    if let Expr::Call { callee, .. } = e {
                        calls.push(callee.clone());
                    }
                });
            }
        });
        assert_eq!(calls, vec!["g", "h", "q"]);
    }

    #[test]
    fn loops_and_closures_nest() {
        let file = parse_src(
            "fn f(n: usize) { for i in 0..n { go(i); } while ok() { step(); } \
             let c = |a: usize| inner(a); loop { break; } }\n",
        );
        let mut calls = Vec::new();
        ast::for_each_fn(&file, &mut |f, _| {
            if let Some(b) = &f.body {
                b.walk_exprs(&mut |e| {
                    if let Expr::Call { callee, .. } = e {
                        calls.push(callee.clone());
                    }
                });
            }
        });
        assert_eq!(calls, vec!["go", "ok", "step", "inner"]);
    }

    #[test]
    fn generics_where_clauses_and_lifetimes_survive() {
        let file = parse_src(
            "pub fn merge<T, F>(a: &[T], f: &mut F) -> Vec<T> where F: FnMut(&T) -> bool { \
             f(&a[0]); Vec::new() }\n\
             impl<'a, T: Ord> W<'a, T> { fn go(&self) -> Option<&'a T> { None } }\n",
        );
        let got = fns(&file);
        assert_eq!(got[0].0, "merge");
        assert_eq!(got[0].2, "Vec<T>");
        assert_eq!(got[1].0, "W::go");
        assert_eq!(got[1].2, "Option<&'aT>");
    }

    #[test]
    fn parser_terminates_on_garbage() {
        // Must not hang or panic on arbitrary input.
        let file = parse_src("fn f( {{{ ]]] => => :: << }} @@ $$ fn fn");
        let _ = fns(&file);
        let file = parse_src("impl impl impl { fn }");
        let _ = fns(&file);
    }
}
