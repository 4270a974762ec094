//! A lightweight Rust AST — exactly the shapes the deep rules reason about.
//!
//! This is deliberately not a faithful Rust grammar: it models *items*
//! (functions, impls, traits, modules), *blocks*, and the expression forms
//! the rule engine needs — calls, method calls, macro invocations, slice
//! indexing, `unsafe` blocks, loops, and `let _ =` discards. Everything
//! else is folded into [`Expr::Other`] with its sub-expressions preserved,
//! so tree walks still see every call no matter what syntax surrounds it.
//!
//! Positions are 1-based line/column of the anchoring token, and blocks
//! carry the token-index span of their braces in the file's full token
//! stream (comments included), so rules can relate AST nodes back to
//! nearby comments (R013 reads SAFETY text this way).

/// A parsed source file: its top-level items.
#[derive(Debug, Default)]
pub struct File {
    /// Items in source order.
    pub items: Vec<Item>,
}

/// One item. Containers (impl/mod/trait) carry their nested items so
/// walks can qualify method names and inherit `#[cfg(test)]` status.
#[derive(Debug)]
pub enum Item {
    /// A function (free, method, or trait default/required method).
    Fn(FnItem),
    /// An `impl`, `mod`, or `trait` with nested items.
    Container(Container),
    /// Anything else (struct, enum, use, static, …) — no rule reads these.
    Other,
}

/// What kind of container an item-nesting construct is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerKind {
    /// `impl Type { … }` or `impl Trait for Type { … }`.
    Impl,
    /// `mod name { … }`.
    Mod,
    /// `trait Name { … }`.
    Trait,
}

/// An item-nesting construct.
#[derive(Debug)]
pub struct Container {
    /// Impl/mod/trait discriminator.
    pub kind: ContainerKind,
    /// Type name for impls, module name for mods, trait name for traits.
    pub name: String,
    /// `true` under `#[cfg(test)]` (directly or inherited).
    pub is_test: bool,
    /// Nested items.
    pub items: Vec<Item>,
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare name (`sort`).
    pub name: String,
    /// Qualified name: `Type::sort` inside an impl/trait, else the bare
    /// name. Modules do not qualify (call sites rarely spell them out).
    pub qual: String,
    /// `#[test]`, or nested under `#[cfg(test)]`.
    pub is_test: bool,
    /// Return type as normalized text (`Result<(),SpillError>`), empty for
    /// unit. Whitespace-free so callers match with `contains`.
    pub ret: String,
    /// Body, `None` for trait-required methods and extern decls.
    pub body: Option<Block>,
}

/// A `{ … }` block.
#[derive(Debug)]
pub struct Block {
    /// Statements in source order (the tail expression is a statement
    /// with `semi == false`).
    pub stmts: Vec<Stmt>,
    /// Index of the `{` token in the file's full token stream.
    pub tok_open: usize,
    /// Index of the matching `}` token (== `tok_open` if unterminated).
    pub tok_close: usize,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let PAT = init;` — `underscore` is true for exactly `let _ = …`
    /// (not `let _x`, not tuple patterns).
    Let {
        /// The pattern is the wildcard `_`.
        underscore: bool,
        /// Initializer, if any.
        init: Option<Expr>,
    },
    /// An expression statement; `semi` distinguishes `f();` (value
    /// discarded) from a tail expression `f()` (value used/returned).
    Expr {
        /// The expression.
        expr: Expr,
        /// Terminated by `;`.
        semi: bool,
    },
    /// A nested item (functions declared inside function bodies become
    /// call-graph nodes through this).
    Item(Box<Item>),
}

/// One expression. Variants carry positions only where rules anchor
/// findings on them.
#[derive(Debug)]
pub enum Expr {
    /// `path::to::f(args)` — callee is the `::`-joined path with generic
    /// arguments stripped.
    Call {
        /// Normalized callee path.
        callee: String,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the callee's last segment.
        line: u32,
        /// 1-based column of the callee's last segment.
        col: u32,
    },
    /// `recv.name(args)`.
    Method {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the method name.
        line: u32,
        /// 1-based column of the method name.
        col: u32,
    },
    /// `name!(…)` — arguments are parsed best-effort so calls inside
    /// macro invocations still appear in the tree.
    Macro {
        /// Macro name (last path segment, no `!`).
        name: String,
        /// Recovered argument expressions.
        args: Vec<Expr>,
        /// 1-based line of the macro name.
        line: u32,
        /// 1-based column of the macro name.
        col: u32,
    },
    /// `base.field` (also tuple fields: `pair.0`, and `.await`).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// The index is a bare integer literal (`v[0]`).
        literal: bool,
        /// 1-based line of the `[`.
        line: u32,
        /// 1-based column of the `[`.
        col: u32,
    },
    /// A path used as a value (`x`, `Counter::Spills`, `self`).
    Path {
        /// Normalized `::`-joined path.
        path: String,
    },
    /// Any literal (number, string, char, bool is a Path).
    Lit {
        /// The literal is a bare integer (drives `Index::literal`).
        int: bool,
    },
    /// A prefix operator application; only `*` (deref) is distinguished.
    Unary {
        /// `'*'`, `'&'`, `'!'`, or `'-'`.
        op: char,
        /// Operand.
        expr: Box<Expr>,
    },
    /// A plain `{ … }` block expression.
    Block(Block),
    /// An `unsafe { … }` block.
    Unsafe {
        /// The block.
        block: Block,
        /// 1-based line of the `unsafe` keyword.
        line: u32,
        /// 1-based column of the `unsafe` keyword.
        col: u32,
    },
    /// `loop`/`while`/`for` — the rules only need the body.
    Loop {
        /// Pre-body expressions (condition / iterator), if any.
        head: Vec<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `if cond { … } else …` (also `if let`).
    If {
        /// Condition (the matched expression for `if let`).
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// `else` branch: a block or a chained `if`.
        els: Option<Box<Expr>>,
    },
    /// Everything else, sub-expressions preserved in source order:
    /// operator chains, `match` (scrutinee, then each arm's guard and
    /// body), closure bodies, `return`/`break`/`yield` operands, tuples,
    /// arrays, ranges, struct literals, ….
    Other(Vec<Expr>),
}

impl Expr {
    /// Immediate sub-expressions in source order, the one enumeration of
    /// the variants every tree walk is written on. A block contributes
    /// the expressions of its statements; nested *items* are not children
    /// (they are their own analysis roots).
    pub fn children(&self) -> Vec<&Expr> {
        let mut out: Vec<&Expr> = Vec::new();
        match self {
            Expr::Call { args, .. } | Expr::Macro { args, .. } | Expr::Other(args) => {
                out.extend(args)
            }
            Expr::Method { recv, args, .. } => {
                out.push(recv);
                out.extend(args);
            }
            Expr::Field { base, .. } => out.push(base),
            Expr::Index { base, index, .. } => out.extend([&**base, &**index]),
            Expr::Unary { expr, .. } => out.push(expr),
            Expr::Block(b) | Expr::Unsafe { block: b, .. } => out.extend(b.exprs()),
            Expr::Loop { head, body } => {
                out.extend(head);
                out.extend(body.exprs());
            }
            Expr::If { cond, then, els } => {
                out.push(cond);
                out.extend(then.exprs());
                out.extend(els.as_deref());
            }
            Expr::Path { .. } | Expr::Lit { .. } => {}
        }
        out
    }

    /// Visit `self` and every sub-expression, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// The identifier a human would name this place by: the last path
    /// segment, the field name, or the root of a call chain. `None` for
    /// literals and structural expressions.
    pub fn root_ident(&self) -> Option<&str> {
        match self {
            Expr::Path { path } => Some(path.rsplit("::").next().unwrap_or(path)),
            Expr::Field { name, .. } => Some(name),
            Expr::Method { recv, .. } => recv.root_ident(),
            Expr::Index { base, .. } => base.root_ident(),
            Expr::Unary { expr, .. } => expr.root_ident(),
            Expr::Call { callee, .. } => Some(callee.rsplit("::").next().unwrap_or(callee)),
            _ => None,
        }
    }
}

impl Block {
    /// The expression of every statement (`let` initializers and
    /// expression statements), in source order.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        self.stmts.iter().filter_map(|stmt| match stmt {
            Stmt::Let { init, .. } => init.as_ref(),
            Stmt::Expr { expr, .. } => Some(expr),
            Stmt::Item(_) => None,
        })
    }

    /// Visit every expression in this block's statements, pre-order.
    pub fn walk_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for e in self.exprs() {
            e.walk(f);
        }
    }
}

/// Flatten a file into `(qualified-fn, is_test)` pairs with their items,
/// recursing through containers. The callback receives every function in
/// the file, with `is_test` true if the function or any enclosing
/// container is test-gated.
pub fn for_each_fn<'a>(file: &'a File, f: &mut impl FnMut(&'a FnItem, bool)) {
    fn rec<'a>(items: &'a [Item], in_test: bool, f: &mut impl FnMut(&'a FnItem, bool)) {
        for item in items {
            match item {
                Item::Fn(func) => {
                    f(func, in_test || func.is_test);
                    // Nested fns declared inside this body.
                    if let Some(body) = &func.body {
                        for stmt in &body.stmts {
                            if let Stmt::Item(nested) = stmt {
                                rec(std::slice::from_ref(nested), in_test || func.is_test, f);
                            }
                        }
                    }
                }
                Item::Container(c) => rec(&c.items, in_test || c.is_test, f),
                Item::Other => {}
            }
        }
    }
    rec(&file.items, false, f);
}
