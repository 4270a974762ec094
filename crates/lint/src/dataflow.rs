//! Worklist dataflow over [`crate::cfg`] and the rules built on it.
//!
//! One abstract value ([`AbsVal`]) carries every fact the deep rules
//! need, so each function body is analyzed once:
//!
//! - `len_derived` — the value came from `.len()` (or another
//!   length-producing method/field) and arithmetic over such values.
//! - `tainted` — the value was decoded from bytes a configured taint
//!   source produced (spill reads), and no sanitizer intervened.
//! - `checked_must` / `checked_may` — a dominating comparison (branch
//!   edge or `assert!` guard) upper-bounds the value on *all* / *some*
//!   paths reaching the program point.
//! - `id_derived` — the value derives from a worker/morsel identity: a
//!   closure parameter seeded by the caller, or a `fetch_add` ticket.
//!
//! Joins are conservative in the lint direction: must-facts AND across
//! paths, may-facts OR. Branch refinement reads the recorded operator
//! chain of the condition (`i < len`, `seg_len > MAX`, `a == b`, `&&`
//! conjunctions, `!` negation) and strengthens the refutable side's
//! facts on the edge where the comparison holds.
//!
//! The lattice is deliberately small and the solver caps its iteration
//! count, so analysis stays linear-ish even on parse-recovered garbage.

use crate::ast::{Expr, File, FnItem, Stmt};
use crate::cfg::{Bb, Cfg, Instr, Term};
use crate::config::Config;
use std::collections::BTreeMap;

/// Methods that return a length (seed `len_derived`).
const LEN_METHODS: &[&str] = &["len", "capacity", "key_width", "encoded_width", "width"];

/// Field names read as lengths/extents in this codebase (seed
/// `len_derived`). Heuristic by design: a field the analysis cannot see
/// the definition of is trusted only if it is *named* like an extent.
const LEN_FIELDS: &[&str] = &[
    "len", "total", "width", "size", "count", "stride", "capacity", "arity",
];

/// Pointer/slice operations whose first argument (or only argument) is
/// an element offset that must be justified (rule R020/R022).
pub const PTR_OPS: &[&str] = &["add", "offset", "get_unchecked", "get_unchecked_mut"];

/// Sanitizing calls that are always recognized, before configuration:
/// clamping and checked narrowing.
const BUILTIN_SANITIZERS: &[&str] = &[".min", "min", ".try_into", "try_from"];

/// Source/sanitizer/sink call lists resolved from `lint.toml`.
#[derive(Debug, Default)]
pub struct TaintSpec {
    /// Calls whose results (and `&mut` local arguments) are untrusted.
    pub sources: Vec<String>,
    /// Calls that launder a tainted value.
    pub sanitizers: Vec<String>,
    /// Calls whose first argument must not be tainted.
    pub sinks: Vec<String>,
    /// Function names/quals resolved (by the returns-source fixed point)
    /// to return tainted data.
    pub dynamic_sources: Vec<String>,
}

impl TaintSpec {
    /// Build from configuration.
    pub fn from_config(cfg: &Config) -> TaintSpec {
        TaintSpec {
            sources: cfg.taint_sources.clone(),
            sanitizers: cfg.taint_sanitizers.clone(),
            sinks: cfg.taint_sinks.clone(),
            dynamic_sources: Vec::new(),
        }
    }

    fn is_source_method(&self, name: &str) -> bool {
        list_matches_method(&self.sources, name)
            || self
                .dynamic_sources
                .iter()
                .any(|d| d.rsplit("::").next().unwrap_or(d) == name)
    }
    fn is_source_call(&self, callee: &str) -> bool {
        list_matches_path(&self.sources, callee)
            || self
                .dynamic_sources
                .iter()
                .any(|d| callee == d || callee.ends_with(&format!("::{d}")))
    }
    fn is_sanitizer_method(&self, name: &str) -> bool {
        list_matches_method(BUILTIN_SANITIZERS, name) || list_matches_method(&self.sanitizers, name)
    }
    fn is_sanitizer_call(&self, callee: &str) -> bool {
        list_matches_path(BUILTIN_SANITIZERS, callee) || list_matches_path(&self.sanitizers, callee)
    }
}

/// `.name` entries match a method call by name.
pub(crate) fn list_matches_method<S: AsRef<str>>(list: &[S], name: &str) -> bool {
    list.iter()
        .any(|e| e.as_ref().strip_prefix('.').is_some_and(|m| m == name))
}

/// Path entries match a call's `::`-joined callee by suffix.
pub(crate) fn list_matches_path<S: AsRef<str>>(list: &[S], callee: &str) -> bool {
    list.iter()
        .map(AsRef::as_ref)
        .any(|e| !e.starts_with('.') && (callee == e || callee.ends_with(&format!("::{e}"))))
}

/// The abstract value for one local.
#[derive(Debug, Clone, Default)]
pub struct AbsVal {
    /// Derived from a length (must-fact across paths).
    pub len_derived: bool,
    /// A literal or `SCREAMING_CASE` constant.
    pub constant: bool,
    /// Decoded from untrusted source bytes (may-fact).
    pub tainted: bool,
    /// Upper-bounded by a dominating comparison on every path.
    pub checked_must: bool,
    /// Upper-bounded on at least one path.
    pub checked_may: bool,
    /// Derived from the worker/morsel identity (must-fact).
    pub id_derived: bool,
    /// Def-use chain fragments for finding messages, most recent first.
    pub chain: Vec<String>,
}

impl AbsVal {
    fn flags(&self) -> u8 {
        u8::from(self.len_derived)
            | u8::from(self.constant) << 1
            | u8::from(self.tainted) << 2
            | u8::from(self.checked_must) << 3
            | u8::from(self.checked_may) << 4
            | u8::from(self.id_derived) << 5
    }

    /// Path-join (state merge): must-facts AND, may-facts OR.
    fn join_path(&mut self, other: &AbsVal) -> bool {
        let before = self.flags();
        self.len_derived &= other.len_derived;
        self.constant &= other.constant;
        self.tainted |= other.tainted;
        self.checked_must &= other.checked_must;
        self.checked_may |= other.checked_may;
        self.id_derived &= other.id_derived;
        if self.chain.is_empty() {
            self.chain = other.chain.clone();
        }
        self.flags() != before
    }

    /// Operand-join (arithmetic over several inputs): provenance facts
    /// OR (any length/id/taint contributor marks the result), constants
    /// AND. Bound checks do not survive arithmetic at all: `byte` being
    /// checked says nothing about `r * width + byte`, and propagating
    /// even `checked_may` would make every value computed from a checked
    /// one a lost-guard candidate.
    fn join_operand(&mut self, other: &AbsVal) {
        self.len_derived |= other.len_derived;
        self.constant &= other.constant;
        self.tainted |= other.tainted;
        self.checked_must = false;
        self.checked_may = false;
        self.id_derived |= other.id_derived;
        if self.chain.is_empty() {
            self.chain = other.chain.clone();
        }
    }
}

/// Per-variable abstract state at one program point.
pub type State = BTreeMap<String, AbsVal>;

fn join_state(into: &mut State, from: &State) -> bool {
    let mut changed = false;
    let default = AbsVal::default();
    for (k, v) in from {
        changed |= into.entry(k.clone()).or_default().join_path(v);
    }
    // Vars known on the `into` side but not on `from` lose must-facts.
    for (k, v) in into.iter_mut() {
        if !from.contains_key(k) {
            changed |= v.join_path(&default);
        }
    }
    changed
}

/// The analysis engine for one function/closure frame.
pub struct Engine<'s> {
    /// Source/sanitizer/sink configuration.
    pub spec: &'s TaintSpec,
}

/// Analysis result: the state before every instruction of every
/// (reachable) block. Unreachable blocks carry an empty vector.
pub struct Flow {
    /// `before[bb][i]` is the state before instruction `i` of block `bb`;
    /// empty for unreachable blocks.
    pub before: Vec<Vec<State>>,
}

impl<'s> Engine<'s> {
    /// Solve the frame to fixpoint. `seed` populates the entry state
    /// (parameter facts; R022 seeds worker-id parameters here).
    pub fn run(&self, cfg: &Cfg<'_>, seed: &State) -> Flow {
        let n = cfg.blocks.len();
        let mut inn: Vec<Option<State>> = vec![None; n];
        inn[0] = Some(seed.clone());
        let mut work = vec![0usize];
        let mut steps = 0usize;
        let cap = 16 * (n + 4) * (n + 4);
        while let Some(bb) = work.pop() {
            steps += 1;
            if steps > cap {
                break; // hard cap: garbage input must still terminate
            }
            let Some(state0) = inn[bb].clone() else {
                continue;
            };
            let out = self.transfer_block(&cfg.blocks[bb], state0, None);
            for (succ, refined) in self.succ_states(&cfg.blocks[bb], &out) {
                let changed = match &mut inn[succ] {
                    Some(s) => join_state(s, &refined),
                    slot @ None => {
                        *slot = Some(refined);
                        true
                    }
                };
                if changed && !work.contains(&succ) {
                    work.push(succ);
                }
            }
        }
        // Recording pass: states before each instruction.
        let mut before = vec![Vec::new(); n];
        for bb in 0..n {
            if let Some(state0) = inn[bb].clone() {
                let mut rec = Vec::with_capacity(cfg.blocks[bb].instrs.len());
                self.transfer_block(&cfg.blocks[bb], state0, Some(&mut rec));
                before[bb] = rec;
            }
        }
        Flow { before }
    }

    /// Successor blocks with edge-refined copies of `out`.
    fn succ_states(&self, bb: &Bb<'_>, out: &State) -> Vec<(usize, State)> {
        match &bb.term {
            Term::Goto(s) => vec![(*s, out.clone())],
            Term::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let mut t = out.clone();
                self.refine(&mut t, cond, true);
                let mut e = out.clone();
                self.refine(&mut e, cond, false);
                vec![(*then_bb, t), (*else_bb, e)]
            }
            Term::Switch(targets) => targets.iter().map(|s| (*s, out.clone())).collect(),
            Term::Return => Vec::new(),
        }
    }

    fn transfer_block(
        &self,
        bb: &Bb<'_>,
        mut state: State,
        mut record: Option<&mut Vec<State>>,
    ) -> State {
        for instr in &bb.instrs {
            if let Some(rec) = record.as_deref_mut() {
                rec.push(state.clone());
            }
            self.transfer(instr, &mut state);
        }
        state
    }

    fn transfer(&self, instr: &Instr<'_>, state: &mut State) {
        if let Some(guard) = instr.guard {
            self.refine(state, guard, true);
            return;
        }
        let Some(value) = instr.value else {
            if let Some(def) = instr.def {
                state.insert(def.to_string(), AbsVal::default());
            }
            return;
        };
        // A source call taints the locals it fills through `&mut`.
        self.apply_source_effects(value, state);
        if let Some(def) = instr.def {
            let mut val = match value {
                // `x = rhs` defines from the right-hand side only;
                // `x += rhs` joins the old value in via the operand walk.
                Expr::Bin { ops, args } if ops.first().is_some_and(|o| o == "=") => args
                    .get(1)
                    .map(|r| self.eval(r, state))
                    .unwrap_or_default(),
                other => self.eval(other, state),
            };
            let desc = format!("`{def}` = `{}` (line {})", render(value), instr.line);
            let mut chain = vec![desc];
            chain.extend(val.chain.iter().take(3).cloned());
            val.chain = chain;
            state.insert(def.to_string(), val);
        }
    }

    /// Mark plain local arguments of source calls as tainted (`&mut buf`
    /// out-parameters).
    fn apply_source_effects(&self, e: &Expr, state: &mut State) {
        e.walk(&mut |x| {
            let (args, line) = match x {
                Expr::Method {
                    name, args, line, ..
                } if self.spec.is_source_method(name) => (args, *line),
                Expr::Call {
                    callee, args, line, ..
                } if self.spec.is_source_call(callee) => (args, *line),
                _ => return,
            };
            for arg in args {
                // Only by-reference arguments (`&mut buf`) can be filled
                // by the source; a by-value integer (`read(addr, width)`)
                // stays the caller's.
                if !matches!(arg, Expr::Unary { op: '&', .. }) {
                    continue;
                }
                if let Some(name) = place_local(arg) {
                    let slot = state.entry(name.to_string()).or_default();
                    slot.tainted = true;
                    slot.constant = false;
                    slot.checked_must = false;
                    slot.chain = vec![format!(
                        "`{name}` filled by source `{}` (line {line})",
                        render(x)
                    )];
                }
            }
        });
    }

    /// Evaluate an expression to an abstract value under `state`.
    pub fn eval(&self, e: &Expr, state: &State) -> AbsVal {
        match e {
            Expr::Lit { .. } => AbsVal {
                constant: true,
                ..AbsVal::default()
            },
            Expr::Path { path } => {
                if let Some(v) = (!path.contains("::"))
                    .then(|| state.get(path.as_str()))
                    .flatten()
                {
                    return v.clone();
                }
                let last = path.rsplit("::").next().unwrap_or(path);
                AbsVal {
                    // `MAX_SEG_BYTES`, `usize::MAX`, unit variants: fixed
                    // program constants, fine as bounds.
                    constant: is_const_name(last),
                    ..AbsVal::default()
                }
            }
            Expr::Field { base, name } => {
                let b = self.eval(base, state);
                AbsVal {
                    len_derived: LEN_FIELDS.contains(&name.as_str()) || b.len_derived,
                    tainted: b.tainted,
                    id_derived: b.id_derived,
                    chain: b.chain,
                    ..AbsVal::default()
                }
            }
            Expr::Unary { expr, .. } => self.eval(expr, state),
            Expr::Index { base, index, .. } => {
                let b = self.eval(base, state);
                let i = self.eval(index, state);
                AbsVal {
                    tainted: b.tainted,
                    id_derived: b.id_derived || i.id_derived,
                    chain: if b.chain.is_empty() { i.chain } else { b.chain },
                    ..AbsVal::default()
                }
            }
            Expr::Method {
                recv, name, args, line, ..
            } => {
                if LEN_METHODS.contains(&name.as_str()) && args.is_empty() {
                    return AbsVal {
                        len_derived: true,
                        chain: vec![format!("length from `{}` (line {line})", render(e))],
                        ..AbsVal::default()
                    };
                }
                if name == "fetch_add" {
                    return AbsVal {
                        id_derived: true,
                        chain: vec![format!("per-task ticket `{}` (line {line})", render(e))],
                        ..AbsVal::default()
                    };
                }
                if self.spec.is_sanitizer_method(name) {
                    // `.min(cap)`: bounded by the cleanest operand.
                    let mut v = self.eval(recv, state);
                    for a in args {
                        let av = self.eval(a, state);
                        v.tainted &= av.tainted;
                        v.len_derived |= av.len_derived;
                    }
                    if args.is_empty() {
                        // `.try_into()` and friends: checked narrowing.
                        v.tainted = false;
                    }
                    v.checked_must = true;
                    v.checked_may = true;
                    v.constant = false;
                    return v;
                }
                if self.spec.is_source_method(name) {
                    return AbsVal {
                        tainted: true,
                        chain: vec![format!("tainted by `{}` (line {line})", render(e))],
                        ..AbsVal::default()
                    };
                }
                let mut v = self.eval(recv, state);
                v.constant = false;
                v.checked_must = false;
                v.checked_may = false;
                for a in args {
                    let av = self.eval(a, state);
                    v.tainted |= av.tainted;
                    v.id_derived |= av.id_derived;
                    if v.chain.is_empty() {
                        v.chain = av.chain;
                    }
                }
                v
            }
            Expr::Call { callee, args, line, .. } => {
                if self.spec.is_source_call(callee) {
                    return AbsVal {
                        tainted: true,
                        chain: vec![format!("tainted by `{}` (line {line})", render(e))],
                        ..AbsVal::default()
                    };
                }
                let sanitizing = self.spec.is_sanitizer_call(callee);
                let mut v = AbsVal::default();
                let mut all_tainted = !args.is_empty();
                let mut first = true;
                for a in args {
                    let av = self.eval(a, state);
                    all_tainted &= av.tainted;
                    if first {
                        v = av;
                        first = false;
                    } else {
                        v.join_operand(&av);
                    }
                }
                if sanitizing {
                    // `cmp::min(a, b)`: bounded by the cleanest operand;
                    // `usize::try_from(x)`: checked narrowing.
                    v.tainted = all_tainted && args.len() > 1;
                    v.checked_must = true;
                    v.checked_may = true;
                } else {
                    // A call result is not bounded just because one of
                    // its arguments was.
                    v.checked_must = false;
                    v.checked_may = false;
                }
                v.constant = false;
                v
            }
            Expr::Bin { ops, args } => {
                if ops.iter().all(|o| is_comparison(o) || o == "&&" || o == "||") {
                    return AbsVal::default(); // boolean result
                }
                let mut v = AbsVal {
                    constant: true,
                    ..AbsVal::default()
                };
                for a in args {
                    v.join_operand(&self.eval(a, state));
                }
                v
            }
            // A closure's body is a frame of its own, not an operand.
            Expr::Closure { .. } => AbsVal::default(),
            // Structural expressions: operand-join over children.
            other => {
                let mut v = AbsVal::default();
                for c in other.children() {
                    v.join_operand(&self.eval(c, state));
                }
                v
            }
        }
    }

    /// Strengthen `state` along the edge where `cond == taken`.
    pub fn refine(&self, state: &mut State, cond: &Expr, taken: bool) {
        match cond {
            Expr::Unary { op: '!', expr } => self.refine(state, expr, !taken),
            Expr::Unary { expr, .. } => self.refine(state, expr, taken),
            Expr::Bin { ops, args } if !ops.is_empty() => {
                if ops.iter().all(|o| o == "&&") {
                    if taken {
                        for a in args {
                            self.refine(state, a, true);
                        }
                    }
                    return;
                }
                if ops.iter().all(|o| o == "||") {
                    if !taken {
                        for a in args {
                            self.refine(state, a, false);
                        }
                    }
                    return;
                }
                // The parser flattens `a < b && c <= d` into one chain
                // (ops `["<", "&&", "<="]`), so a mixed conjunction is
                // handled here: on the taken edge every `&&`-delimited
                // comparison segment holds and refines independently.
                if taken
                    && ops.iter().any(|o| o == "&&")
                    && ops.iter().all(|o| o == "&&" || is_comparison(o))
                {
                    for (k, op) in ops.iter().enumerate() {
                        if !is_comparison(op) || k + 1 >= args.len() {
                            continue;
                        }
                        let lhs_free = k == 0 || ops[k - 1] == "&&";
                        let rhs_free = k + 1 == ops.len() || ops[k + 1] == "&&";
                        if !(lhs_free && rhs_free) {
                            continue; // not a simple `x OP y` segment
                        }
                        let (a, b) = (&args[k], &args[k + 1]);
                        match op.as_str() {
                            "<" | "<=" => self.bound(state, a, b),
                            ">" | ">=" => self.bound(state, b, a),
                            "==" => {
                                self.bound(state, a, b);
                                self.bound(state, b, a);
                            }
                            _ => {}
                        }
                    }
                    return;
                }
                if ops.len() == 1 && args.len() == 2 {
                    let (a, b) = (&args[0], &args[1]);
                    match (ops[0].as_str(), taken) {
                        ("<" | "<=", true) | (">" | ">=", false) => self.bound(state, a, b),
                        (">" | ">=", true) | ("<" | "<=", false) => self.bound(state, b, a),
                        ("==", true) | ("!=", false) => {
                            self.bound(state, a, b);
                            self.bound(state, b, a);
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }

    /// Record that `target <= by` holds here.
    fn bound(&self, state: &mut State, target: &Expr, by: &Expr) {
        let Some(name) = place_local(target) else {
            return;
        };
        let by_val = self.eval(by, state);
        let slot = state.entry(name.to_string()).or_default();
        slot.checked_must = true;
        slot.checked_may = true;
        if !by_val.tainted {
            slot.tainted = false;
        }
        if by_val.len_derived {
            slot.len_derived = true;
        }
        slot.chain
            .insert(0, format!("`{name}` bounded by `{}`", render(by)));
        slot.chain.truncate(4);
    }
}

/// The local name of a place expression: a bare identifier, possibly
/// under `&`/`*`/`!`. `None` for fields, calls, paths, and literals.
fn place_local(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path { path } if !path.contains("::") && path != "self" => Some(path.as_str()),
        Expr::Unary { expr, .. } => place_local(expr),
        _ => None,
    }
}

/// `MAX_SEG_BYTES`, `MAX`, `SPILL_VERSION`: SCREAMING_CASE or
/// capitalized single-segment names read as program constants.
fn is_const_name(last: &str) -> bool {
    !last.is_empty()
        && last.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && last
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

fn is_comparison(op: &str) -> bool {
    matches!(op, "<" | "<=" | ">" | ">=" | "==" | "!=")
}

/// Render an expression back to compact source-ish text for findings.
/// Literals render as `_` (their spelling is not kept); output is capped.
pub fn render(e: &Expr) -> String {
    let mut s = render_uncapped(e, 0);
    if s.len() > 60 {
        let mut cut = 57;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push('…');
    }
    s
}

fn render_uncapped(e: &Expr, depth: usize) -> String {
    if depth > 4 {
        return "…".to_string();
    }
    match e {
        Expr::Path { path } => path.clone(),
        Expr::Lit { .. } => "_".to_string(),
        Expr::Field { base, name } => format!("{}.{name}", render_uncapped(base, depth + 1)),
        Expr::Index { base, index, .. } => format!(
            "{}[{}]",
            render_uncapped(base, depth + 1),
            render_uncapped(index, depth + 1)
        ),
        Expr::Unary { op, expr } => format!("{op}{}", render_uncapped(expr, depth + 1)),
        Expr::Method { recv, name, args, .. } => format!(
            "{}.{name}({})",
            render_uncapped(recv, depth + 1),
            render_args(args, depth)
        ),
        Expr::Call { callee, args, .. } => {
            format!("{callee}({})", render_args(args, depth))
        }
        Expr::Macro { name, args, .. } => format!("{name}!({})", render_args(args, depth)),
        Expr::Bin { ops, args } => {
            let mut s = String::new();
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    let op = ops.get(i - 1).map(String::as_str).unwrap_or("?");
                    s.push_str(&format!(" {op} "));
                }
                s.push_str(&render_uncapped(a, depth + 1));
            }
            s
        }
        Expr::Unsafe { .. } => "unsafe { … }".to_string(),
        Expr::Closure { .. } => "|…| …".to_string(),
        Expr::Jump { .. } => "…".to_string(),
        _ => "…".to_string(),
    }
}

fn render_args(args: &[Expr], depth: usize) -> String {
    let mut s = String::new();
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&render_uncapped(a, depth + 1));
    }
    s
}

/// One analysis frame: a function body or a closure literal found
/// inside one. Closures are separate frames — their bodies are not
/// lowered into the enclosing function's CFG.
pub struct Frame<'a> {
    /// Owning function's qualified name (for messages).
    pub qual: &'a str,
    /// The CFG.
    pub cfg: Cfg<'a>,
}

/// Collect the frames of every non-test function in `file`: the function
/// itself plus every closure literal in its body, recursively.
pub fn frames(file: &File) -> Vec<Frame<'_>> {
    let mut out = Vec::new();
    crate::ast::for_each_fn(file, &mut |f, is_test| {
        if is_test {
            return;
        }
        if let Some(cfg) = Cfg::from_fn(f) {
            out.push(Frame { qual: &f.qual, cfg });
        }
        if let Some(body) = &f.body {
            body.walk_exprs(&mut |e| {
                if let Expr::Closure { params, body } = e {
                    out.push(Frame {
                        qual: &f.qual,
                        cfg: Cfg::from_closure(params, body),
                    });
                }
            });
        }
    });
    out
}

/// Walk `e` and its sub-expressions, pre-order, but do not descend into
/// nested closure bodies — those are separate analysis frames.
pub fn walk_no_closures<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    if matches!(e, Expr::Closure { .. }) {
        return;
    }
    for c in e.children() {
        walk_no_closures(c, f);
    }
}

/// Walk the parts of an instruction's *value* that were not lowered into
/// separate CFG blocks. A control-flow expression directly in value
/// position (`let x = if … { … }`) already has its branch contents
/// recorded as instructions in their own (edge-refined) blocks, so
/// descending into it here would re-visit those contents under the
/// pre-branch state and report spurious findings. Control flow nested
/// deeper (inside call arguments etc.) is *not* lowered, so it is still
/// walked. Branch conditions are terminators, never instruction values —
/// a sink inside a condition is out of scope by construction.
pub fn walk_value<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    if matches!(
        e,
        Expr::If { .. }
            | Expr::Match(_)
            | Expr::Loop { .. }
            | Expr::Block(_)
            | Expr::Unsafe { .. }
    ) {
        return;
    }
    walk_no_closures(e, f)
}

/// Collect the simple local names (`x`, not `a.b` or `p::q`) read by `e`.
fn leaf_locals<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    walk_no_closures(e, &mut |x| {
        if let Expr::Path { path } = x {
            if !path.contains("::") && path != "self" && !out.contains(&path.as_str()) {
                out.push(path.as_str());
            }
        }
    });
}

/// Render a variable's def-use chain for a finding message.
pub fn chain_text(val: &AbsVal) -> String {
    if val.chain.is_empty() {
        "no local definition in scope".to_string()
    } else {
        val.chain.join(" ← ")
    }
}

/// R020 — every pointer `add`/`offset`/`get_unchecked` index inside an
/// `unsafe` block must be length-derived or dominated by a bound check.
pub fn check_r020(
    path: &str,
    frame: &Frame<'_>,
    engine: &Engine<'_>,
    flow: &Flow,
    out: &mut Vec<crate::rules::Finding>,
) {
    for_each_instr(frame, flow, &mut |instr, state| {
        if !instr.in_unsafe {
            return;
        }
        let Some(value) = instr.value else { return };
        walk_value(value, &mut |x| {
            let Expr::Method {
                name, args, line, col, ..
            } = x
            else {
                return;
            };
            if !PTR_OPS.contains(&name.as_str()) || args.is_empty() {
                return;
            }
            let idx = &args[0];
            let v = engine.eval(idx, state);
            // Id-derived offsets are R022's jurisdiction (the worker-id
            // disjointness argument, not a length bound) — accepting
            // them here avoids double-reporting broadcast closures.
            if v.len_derived || v.constant || v.checked_must || v.id_derived {
                return;
            }
            let mut vars = Vec::new();
            leaf_locals(idx, &mut vars);
            let justified = vars.iter().any(|name| {
                state
                    .get(*name)
                    .is_some_and(|s| s.checked_must || s.len_derived || s.id_derived)
            });
            if justified {
                return;
            }
            // Render the chain of the least-justified variable.
            let culprit = vars
                .iter()
                .find(|n| {
                    !state
                        .get(**n)
                        .is_some_and(|s| s.checked_must || s.len_derived)
                })
                .copied();
            let detail = match culprit {
                Some(n) => format!(
                    "`{n}`: {}",
                    chain_text(state.get(n).unwrap_or(&AbsVal::default()))
                ),
                None => chain_text(&v),
            };
            out.push(crate::rules::Finding {
                rule: "R020".to_string(),
                path: path.to_string(),
                line: *line,
                col: *col,
                message: format!(
                    "unsafe pointer index `{}` in `{}` is neither length-derived nor \
                     dominated by a bound check — {detail}",
                    render(idx),
                    frame.qual
                ),
            });
        });
    });
}

/// R023 — a value bounds-checked on only *some* paths reaching a slice
/// index has lost its guard at a merge point.
pub fn check_r023(
    path: &str,
    frame: &Frame<'_>,
    _engine: &Engine<'_>,
    flow: &Flow,
    out: &mut Vec<crate::rules::Finding>,
) {
    let mut seen: Vec<(String, u32)> = Vec::new();
    for_each_instr(frame, flow, &mut |instr, state| {
        let Some(value) = instr.value else { return };
        walk_value(value, &mut |x| {
            let Expr::Index {
                index,
                literal: false,
                line,
                col,
                ..
            } = x
            else {
                return;
            };
            // Range slicing (`&v[a..i]`) is exempt: an exclusive range
            // end may legitimately equal `len`, so a `i < len` loop
            // guard "lost" at the exit merge is the normal shape of a
            // scan, not a missing check. Scalar element indexes only.
            if let Expr::Bin { ops, .. } = &**index {
                if ops.iter().any(|o| o == ".." || o == "..=") {
                    return;
                }
            }
            let mut vars = Vec::new();
            leaf_locals(index, &mut vars);
            for name in vars {
                let Some(st) = state.get(name) else { continue };
                if st.checked_may && !st.checked_must && !st.len_derived {
                    let key = (name.to_string(), *line);
                    if seen.contains(&key) {
                        continue;
                    }
                    seen.push(key);
                    out.push(crate::rules::Finding {
                        rule: "R023".to_string(),
                        path: path.to_string(),
                        line: *line,
                        col: *col,
                        message: format!(
                            "`{name}` is bounds-checked on only some paths reaching this \
                             index in `{}` — the guard is lost at a merge point; hoist the \
                             check or re-assert it — {}",
                            frame.qual,
                            chain_text(st)
                        ),
                    });
                }
            }
        });
    });
}

/// Visit every instruction of every reachable block with its before-state.
pub fn for_each_instr<'a>(
    frame: &'a Frame<'a>,
    flow: &'a Flow,
    f: &mut impl FnMut(&'a Instr<'a>, &'a State),
) {
    for (bb, block) in frame.cfg.blocks.iter().enumerate() {
        let states = &flow.before[bb];
        if states.len() != block.instrs.len() {
            continue; // unreachable block: no states recorded
        }
        for (instr, state) in block.instrs.iter().zip(states) {
            f(instr, state);
        }
    }
}

/// R022 — raw-pointer writes inside closures handed to
/// `WorkerPool::broadcast` must index by the worker/morsel identity: the
/// closure's own parameter or a `fetch_add` ticket, possibly passed down
/// through direct calls into same-unit functions.
pub fn check_r022(
    files: &[crate::callgraph::UnitFile],
    spec: &TaintSpec,
    out: &mut Vec<crate::rules::Finding>,
) {
    // Qualified-name → function item, for the interprocedural hop.
    let mut by_name: Vec<(&str, &str, &FnItem, &str)> = Vec::new(); // (name, qual, item, path)
    for uf in files {
        if uf.is_test {
            continue;
        }
        crate::ast::for_each_fn(&uf.file, &mut |f, is_test| {
            if !is_test && f.body.is_some() {
                by_name.push((&f.name, &f.qual, f, &uf.path));
            }
        });
    }
    let engine = Engine { spec };
    for uf in files {
        if uf.is_test {
            continue;
        }
        crate::ast::for_each_fn(&uf.file, &mut |f, is_test| {
            let Some(body) = (!is_test).then_some(f.body.as_ref()).flatten() else {
                return;
            };
            body.walk_exprs(&mut |e| {
                let Expr::Method { name, args, .. } = e else {
                    return;
                };
                if name != "broadcast" || args.is_empty() {
                    return;
                }
                let Some((params, cbody)) = resolve_closure(&args[0], body) else {
                    return;
                };
                let mut visited = Vec::new();
                check_id_writes(
                    &uf.path,
                    &f.qual,
                    params,
                    ClosureBody::Expr(cbody),
                    &engine,
                    &by_name,
                    0,
                    &mut visited,
                    out,
                );
            });
        });
    }
}

enum ClosureBody<'a> {
    Expr(&'a Expr),
    Fn(&'a FnItem),
}

/// Strip `&`/`&mut` and resolve a broadcast argument to a closure: either
/// a closure literal, or a local bound to one earlier in the same body.
fn resolve_closure<'a>(
    arg: &'a Expr,
    enclosing: &'a crate::ast::Block,
) -> Option<(&'a [String], &'a Expr)> {
    let stripped = strip_refs(arg);
    if let Expr::Closure { params, body } = stripped {
        return Some((params, body));
    }
    if let Expr::Path { path } = stripped {
        if !path.contains("::") {
            let mut found = None;
            find_closure_let(enclosing, path, &mut found);
            return found;
        }
    }
    None
}

fn strip_refs(e: &Expr) -> &Expr {
    match e {
        Expr::Unary { expr, .. } => strip_refs(expr),
        other => other,
    }
}

fn find_closure_let<'a>(
    block: &'a crate::ast::Block,
    name: &str,
    out: &mut Option<(&'a [String], &'a Expr)>,
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                name: Some(n),
                init: Some(init),
                ..
            } if n == name => {
                if let Expr::Closure { params, body } = strip_refs(init) {
                    *out = Some((params, body));
                }
            }
            Stmt::Expr { expr, .. } => {
                // Recurse into nested blocks (closures are often bound
                // inside a scope block before the broadcast).
                expr.walk(&mut |x| {
                    if out.is_some() {
                        return;
                    }
                    match x {
                        Expr::Block(b) | Expr::Unsafe { block: b, .. } => {
                            find_closure_let(b, name, out)
                        }
                        Expr::If { then, .. } => find_closure_let(then, name, out),
                        Expr::Loop { body, .. } => find_closure_let(body, name, out),
                        _ => {}
                    }
                });
            }
            _ => {}
        }
    }
}

/// Analyze one frame of the broadcast closure's call tree: its unsafe
/// pointer offsets must be id-derived; id-derived arguments seed the
/// parameters of direct calls one hop down (up to depth 3).
#[allow(clippy::too_many_arguments)]
fn check_id_writes(
    path: &str,
    qual: &str,
    params: &[String],
    body: ClosureBody<'_>,
    engine: &Engine<'_>,
    by_name: &[(&str, &str, &FnItem, &str)],
    depth: usize,
    visited: &mut Vec<(String, Vec<String>)>,
    out: &mut Vec<crate::rules::Finding>,
) {
    let seeded: Vec<String> = params.iter().filter(|p| !p.is_empty()).cloned().collect();
    let key = (qual.to_string(), seeded.clone());
    if visited.contains(&key) {
        return;
    }
    visited.push(key);
    let cfg = match &body {
        ClosureBody::Expr(e) => Cfg::from_closure(params, e),
        ClosureBody::Fn(f) => match Cfg::from_fn(f) {
            Some(c) => c,
            None => return,
        },
    };
    let mut seed = State::new();
    for p in &seeded {
        seed.insert(
            p.clone(),
            AbsVal {
                id_derived: true,
                chain: vec![format!("`{p}` is the worker/morsel id parameter")],
                ..AbsVal::default()
            },
        );
    }
    let flow = engine.run(&cfg, &seed);
    let frame = Frame { qual, cfg };
    for_each_instr(&frame, &flow, &mut |instr, state| {
        let Some(value) = instr.value else { return };
        // Unsafe pointer offsets must be id-derived.
        if instr.in_unsafe {
            walk_value(value, &mut |x| {
                let Expr::Method {
                    name, args, line, col, ..
                } = x
                else {
                    return;
                };
                if !PTR_OPS.contains(&name.as_str()) || args.is_empty() {
                    return;
                }
                let idx = &args[0];
                let v = engine.eval(idx, state);
                if v.id_derived || v.constant {
                    return;
                }
                let mut vars = Vec::new();
                leaf_locals(idx, &mut vars);
                if vars
                    .iter()
                    .any(|n| state.get(*n).is_some_and(|s| s.id_derived))
                {
                    return;
                }
                let detail = vars
                    .first()
                    .and_then(|n| state.get(*n))
                    .map(chain_text)
                    .unwrap_or_else(|| chain_text(&v));
                out.push(crate::rules::Finding {
                    rule: "R022".to_string(),
                    path: path.to_string(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "pointer offset `{}` in `{qual}` (reached from a \
                         `WorkerPool::broadcast` closure) is not derived from the \
                         worker/morsel id — concurrent workers may write overlapping \
                         ranges — {detail}",
                        render(idx)
                    ),
                });
            });
        }
        // Interprocedural hop: id-derived arguments seed callee params.
        if depth >= 3 {
            return;
        }
        walk_value(value, &mut |x| {
            let (target, args): (Vec<&FnItem>, &[Expr]) = match x {
                Expr::Method { name, args, .. } => (
                    by_name
                        .iter()
                        .filter(|(n, ..)| n == name)
                        .map(|(_, _, f, _)| *f)
                        .collect(),
                    args,
                ),
                Expr::Call { callee, args, .. } => {
                    let last = callee.rsplit("::").next().unwrap_or(callee);
                    (
                        by_name
                            .iter()
                            .filter(|(n, q, ..)| {
                                *n == last
                                    && (!callee.contains("::")
                                        || q.ends_with(callee.as_str())
                                        || callee.ends_with(*q)
                                        || callee.starts_with("Self::"))
                            })
                            .map(|(_, _, f, _)| *f)
                            .collect(),
                        args,
                    )
                }
                _ => return,
            };
            if target.is_empty() {
                return;
            }
            let id_args: Vec<bool> = args
                .iter()
                .map(|a| engine.eval(a, state).id_derived)
                .collect();
            if !id_args.iter().any(|b| *b) {
                return;
            }
            for callee in target {
                let fparams = &callee.params;
                // Method receivers: args map onto params after `self`.
                let skip = usize::from(
                    fparams.first().is_some_and(|p| p == "self")
                        && fparams.len() == args.len() + 1,
                );
                let mut seeded_params: Vec<String> = vec![String::new(); fparams.len()];
                for (i, p) in fparams.iter().enumerate() {
                    let arg_idx = match i.checked_sub(skip) {
                        Some(j) if j < id_args.len() => j,
                        _ => continue,
                    };
                    if id_args[arg_idx] {
                        seeded_params[i] = p.clone();
                    }
                }
                if seeded_params.iter().all(|p| p.is_empty()) {
                    continue;
                }
                let callee_path = by_name
                    .iter()
                    .find(|(_, q, ..)| *q == callee.qual.as_str())
                    .map(|(.., p)| *p)
                    .unwrap_or(path);
                check_id_writes(
                    callee_path,
                    &callee.qual,
                    &seeded_params,
                    ClosureBody::Fn(callee),
                    engine,
                    by_name,
                    depth + 1,
                    visited,
                    out,
                );
            }
        });
    });
}
