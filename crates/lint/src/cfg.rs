//! Control-flow graphs lowered from the loss-tolerant AST.
//!
//! One [`Cfg`] per function (or closure) body, at statement granularity:
//! each basic block holds straight-line [`Instr`]s and ends in a
//! [`Term`]. Lowering models what the dataflow rules need — `if`/`else`
//! diamonds, `loop`/`while`/`for` back edges, `match` fan-out, and the
//! early exits (`return`, `break`, `continue`, `?`-free early returns) —
//! and approximates the rest conservatively: an expression it cannot
//! model structurally becomes a single instruction whose uses are the
//! expression's leaves.
//!
//! `assert!`/`debug_assert!` invocations whose first argument is a
//! comparison become *guard* instructions: the dataflow engine refines
//! facts across them exactly as it does across a taken branch, so
//! `debug_assert!(i < self.len)` dominates the pointer arithmetic that
//! follows it just like an `if` would.

use crate::ast::{Block, Expr, FnItem, JumpKind, Stmt};

/// One lowered instruction.
#[derive(Debug)]
pub struct Instr<'a> {
    /// Local defined here: a `let` binding or a simple-identifier
    /// (compound-)assignment target. `None` for pure-effect statements.
    pub def: Option<&'a str>,
    /// The defining / evaluated expression.
    pub value: Option<&'a Expr>,
    /// An asserted condition (`assert!`, `debug_assert!`): downstream
    /// facts may assume it holds.
    pub guard: Option<&'a Expr>,
    /// The instruction sits lexically inside an `unsafe { … }` block.
    pub in_unsafe: bool,
    /// 1-based source line (best effort).
    pub line: u32,
}

/// Block terminator.
#[derive(Debug)]
pub enum Term<'a> {
    /// Unconditional edge.
    Goto(usize),
    /// Two-way branch on `cond`; the dataflow engine refines facts on
    /// each outgoing edge from the comparison structure of `cond`.
    Branch {
        /// Branch condition.
        cond: &'a Expr,
        /// Successor when `cond` holds.
        then_bb: usize,
        /// Successor when `cond` fails.
        else_bb: usize,
    },
    /// `match` fan-out — no per-edge refinement.
    Switch(Vec<usize>),
    /// Function exit.
    Return,
}

/// A basic block.
#[derive(Debug)]
pub struct Bb<'a> {
    /// Straight-line instructions.
    pub instrs: Vec<Instr<'a>>,
    /// Terminator.
    pub term: Term<'a>,
}

/// A function body lowered to blocks. Block 0 is the entry.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Bb<'a>>,
    /// Parameter names, in declaration order (placeholders may be empty).
    pub params: Vec<String>,
}

impl<'a> Cfg<'a> {
    /// Lower a function item. Returns `None` for bodiless functions.
    pub fn from_fn(f: &'a FnItem) -> Option<Cfg<'a>> {
        let body = f.body.as_ref()?;
        let mut b = Builder::new(f.params.clone());
        b.lower_block(body);
        Some(b.finish())
    }

    /// Lower a closure: its parameter list plus its body expression.
    pub fn from_closure(params: &[String], body: &'a Expr) -> Cfg<'a> {
        let mut b = Builder::new(params.to_vec());
        b.lower_expr(body);
        b.finish()
    }

    /// Predecessors of every block (computed on demand; CFGs are small).
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, bb) in self.blocks.iter().enumerate() {
            let mut add = |s: usize| {
                if !preds[s].contains(&i) {
                    preds[s].push(i);
                }
            };
            match &bb.term {
                Term::Goto(s) => add(*s),
                Term::Branch {
                    then_bb, else_bb, ..
                } => {
                    add(*then_bb);
                    add(*else_bb);
                }
                Term::Switch(ts) => {
                    for s in ts {
                        add(*s);
                    }
                }
                Term::Return => {}
            }
        }
        preds
    }
}

struct Builder<'a> {
    blocks: Vec<Bb<'a>>,
    cur: usize,
    /// `(head, after)` of every enclosing loop, innermost last.
    loop_stack: Vec<(usize, usize)>,
    unsafe_depth: u32,
    /// The current block already ended in a jump; emit nothing more here.
    sealed: bool,
    params: Vec<String>,
}

impl<'a> Builder<'a> {
    fn new(params: Vec<String>) -> Builder<'a> {
        Builder {
            blocks: vec![Bb {
                instrs: Vec::new(),
                term: Term::Return,
            }],
            cur: 0,
            loop_stack: Vec::new(),
            unsafe_depth: 0,
            sealed: false,
            params,
        }
    }

    fn finish(self) -> Cfg<'a> {
        Cfg {
            blocks: self.blocks,
            params: self.params,
        }
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Bb {
            instrs: Vec::new(),
            term: Term::Return,
        });
        self.blocks.len() - 1
    }

    fn set_term(&mut self, term: Term<'a>) {
        if !self.sealed {
            self.blocks[self.cur].term = term;
            self.sealed = true;
        }
    }

    fn start(&mut self, bb: usize) {
        self.cur = bb;
        self.sealed = false;
    }

    fn emit(&mut self, instr: Instr<'a>) {
        if !self.sealed {
            self.blocks[self.cur].instrs.push(instr);
        }
    }

    fn lower_block(&mut self, block: &'a Block) {
        for stmt in &block.stmts {
            if self.sealed {
                break; // unreachable code after `return`/`break`/`continue`
            }
            match stmt {
                Stmt::Let {
                    name, init, line, ..
                } => {
                    if let Some(e) = init {
                        self.lower_value_effects(e);
                    }
                    self.emit(Instr {
                        def: name.as_deref(),
                        value: init.as_ref(),
                        guard: None,
                        in_unsafe: self.unsafe_depth > 0,
                        line: *line,
                    });
                }
                Stmt::Expr { expr, .. } => self.lower_expr(expr),
                Stmt::Item(_) => {}
            }
        }
    }

    /// Lower one statement-position expression: control flow becomes
    /// blocks and edges, everything else becomes one instruction.
    fn lower_expr(&mut self, e: &'a Expr) {
        match e {
            Expr::If { cond, then, els } => {
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.set_term(Term::Branch {
                    cond,
                    then_bb,
                    else_bb,
                });
                self.start(then_bb);
                self.lower_block(then);
                self.set_term(Term::Goto(join));
                self.start(else_bb);
                if let Some(els) = els {
                    self.lower_expr(els);
                }
                self.set_term(Term::Goto(join));
                self.start(join);
            }
            Expr::Loop { head, body } => {
                let head_bb = self.new_block();
                let body_bb = self.new_block();
                let after = self.new_block();
                self.set_term(Term::Goto(head_bb));
                self.start(head_bb);
                match head.first() {
                    // `while cond` / `for pat in iter`: the head decides
                    // whether another iteration runs. For `for` loops the
                    // "condition" is the iterator expression — no
                    // comparison structure, so no edge refinement, which
                    // is the conservative reading.
                    Some(cond) => self.set_term(Term::Branch {
                        cond,
                        then_bb: body_bb,
                        else_bb: after,
                    }),
                    // `loop`: only `break` leaves.
                    None => self.set_term(Term::Goto(body_bb)),
                }
                self.loop_stack.push((head_bb, after));
                self.start(body_bb);
                self.lower_block(body);
                self.set_term(Term::Goto(head_bb));
                self.loop_stack.pop();
                self.start(after);
            }
            Expr::Match(items) => {
                let mut parts = items.iter();
                if let Some(scrut) = parts.next() {
                    self.lower_value_effects(scrut);
                    self.emit(Instr {
                        def: None,
                        value: Some(scrut),
                        guard: None,
                        in_unsafe: self.unsafe_depth > 0,
                        line: 0,
                    });
                }
                let arms: Vec<&'a Expr> = parts.collect();
                if arms.is_empty() {
                    return;
                }
                let join = self.new_block();
                let mut targets = Vec::new();
                let from = self.cur;
                let sealed_before = self.sealed;
                for arm in arms {
                    let bb = self.new_block();
                    targets.push(bb);
                    self.start(bb);
                    self.lower_expr(arm);
                    self.set_term(Term::Goto(join));
                }
                self.cur = from;
                self.sealed = sealed_before;
                self.set_term(Term::Switch(targets));
                self.start(join);
            }
            Expr::Block(b) => self.lower_block(b),
            Expr::Unsafe { block, .. } => {
                self.unsafe_depth += 1;
                self.lower_block(block);
                self.unsafe_depth -= 1;
            }
            Expr::Jump { kind, value, .. } => {
                if let Some(v) = value {
                    self.lower_value_effects(v);
                    self.emit(Instr {
                        def: None,
                        value: Some(v),
                        guard: None,
                        in_unsafe: self.unsafe_depth > 0,
                        line: 0,
                    });
                }
                match kind {
                    JumpKind::Return => self.set_term(Term::Return),
                    JumpKind::Break => match self.loop_stack.last() {
                        Some(&(_, after)) => self.set_term(Term::Goto(after)),
                        None => self.set_term(Term::Return),
                    },
                    JumpKind::Continue => match self.loop_stack.last() {
                        Some(&(head, _)) => self.set_term(Term::Goto(head)),
                        None => self.set_term(Term::Return),
                    },
                }
                // Anything after an unconditional jump is dead; open a
                // fresh unreachable block so lowering can continue.
                let dead = self.new_block();
                self.start(dead);
                self.sealed = false;
            }
            Expr::Macro { name, args, line, .. }
                if (name == "assert" || name == "debug_assert") && !args.is_empty() =>
            {
                self.emit(Instr {
                    def: None,
                    value: Some(e),
                    guard: Some(&args[0]),
                    in_unsafe: self.unsafe_depth > 0,
                    line: *line,
                });
            }
            // Simple-identifier assignment / compound assignment.
            Expr::Bin { ops, args } if is_assignment(ops) => {
                let target = match args.first() {
                    Some(Expr::Path { path }) if !path.contains("::") => Some(path.as_str()),
                    _ => None,
                };
                if let [_, rhs] = args.as_slice() {
                    self.lower_value_effects(rhs);
                }
                self.emit(Instr {
                    def: target,
                    value: Some(e),
                    guard: None,
                    in_unsafe: self.unsafe_depth > 0,
                    line: expr_line(e),
                });
            }
            other => {
                self.lower_value_effects(other);
                self.emit(Instr {
                    def: None,
                    value: Some(other),
                    guard: None,
                    in_unsafe: self.unsafe_depth > 0,
                    line: expr_line(other),
                });
            }
        }
    }

    /// Lower the control-flow *structure* nested inside a value position
    /// (`let x = if c { … } else { … };`): branches and their effects are
    /// modeled, and the caller then records the whole expression as the
    /// defined value, joining over everything the branches touched.
    fn lower_value_effects(&mut self, e: &'a Expr) {
        match e {
            Expr::If { .. } | Expr::Match(_) | Expr::Loop { .. } => self.lower_expr(e),
            Expr::Block(b) => {
                // All but the tail run for effect; the tail is the value.
                self.lower_block(b);
            }
            Expr::Unsafe { block, .. } => {
                self.unsafe_depth += 1;
                self.lower_block(block);
                self.unsafe_depth -= 1;
            }
            _ => {}
        }
    }
}

/// `ops` spell an assignment: a bare `=` or a compound `+=`-family
/// operator in the first position.
fn is_assignment(ops: &[String]) -> bool {
    ops.first().is_some_and(|op| {
        op == "="
            || (op.len() >= 2
                && op.ends_with('=')
                && !matches!(op.as_str(), "==" | "!=" | "<=" | ">="))
    })
}

/// Best-effort source line for anchoring an instruction.
fn expr_line(e: &Expr) -> u32 {
    let mut line = 0u32;
    e.walk(&mut |x| {
        if line != 0 {
            return;
        }
        line = match x {
            Expr::Call { line, .. }
            | Expr::Method { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Index { line, .. }
            | Expr::Unsafe { line, .. }
            | Expr::Jump { line, .. } => *line,
            _ => 0,
        };
    });
    line
}
