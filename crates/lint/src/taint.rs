//! R021 — untrusted spill bytes must be sanitized before sizing memory.
//!
//! Sources come from `lint.toml [taint-sources]` (`.read`,
//! `.read_exact`, and the run cursor's `.block_u32` / `.block_u64`
//! decodes in this workspace); what they produce
//! stays tainted through `from_le_bytes`/`as` decoding and arithmetic
//! until a sanitizer (`.min`, `try_into`, or a configured call) or a
//! dominating comparison against an untainted bound launders them. A
//! tainted integer reaching an allocation-size sink (`with_capacity`,
//! `resize`, `reserve`, `set_len`, configured `[taint-sinks]`) or a
//! slice index is a finding.
//!
//! On top of the configured sources a small fixed point (≤3 rounds)
//! discovers *dynamic* sources: same-unit functions whose return value
//! is tainted under the current source set. This catches one level of
//! `fn read_len(&mut self) -> usize { … self.fill(&mut b)? … }`
//! wrappers without whole-program analysis.
//!
//! Known under-approximation: `match` bindings (`Ok(n) => …`) are not
//! visible to the loss-tolerant parser, so taint does not flow through
//! them; the workspace's hot decode paths use `let`-bound decodes,
//! which are.

use crate::ast::Expr;
use crate::callgraph::UnitFile;
use crate::dataflow::{
    chain_text, for_each_instr, frames, list_matches_method, list_matches_path, render,
    walk_no_closures, walk_value, AbsVal, Engine, Frame, TaintSpec,
};
use crate::rules::Finding;

/// Methods whose integer argument sizes an allocation.
const SINK_METHODS: &[&str] = &[
    "with_capacity",
    "resize",
    "reserve",
    "reserve_exact",
    "set_len",
];

/// Path calls whose first argument sizes an allocation.
const SINK_PATHS: &[&str] = &["Vec::with_capacity", "VecDeque::with_capacity"];

/// Run R021 over one crate unit. `spec` gains `dynamic_sources` as a
/// side effect (the caller shares it with other rules' engines).
pub fn check_r021(files: &[UnitFile], spec: &mut TaintSpec, out: &mut Vec<Finding>) {
    discover_dynamic_sources(files, spec);
    let engine = Engine { spec };
    for uf in files {
        if uf.is_test {
            continue;
        }
        for frame in frames(&uf.file) {
            let flow = engine.run(&frame.cfg, &Default::default());
            for_each_instr(&frame, &flow, &mut |instr, state| {
                let Some(value) = instr.value else { return };
                walk_value(value, &mut |x| {
                    sink_args(x, spec).map(|(what, args, line, col)| {
                        for arg in args {
                            let v = engine.eval(arg, state);
                            if !v.tainted {
                                continue;
                            }
                            out.push(Finding {
                                rule: "R021".to_string(),
                                path: uf.path.clone(),
                                line,
                                col,
                                message: format!(
                                    "`{}` flows into {what} in `{}` without a \
                                     cap/`min`/`try_into` sanitizer — an attacker \
                                     controlling spill bytes controls the size — {}",
                                    render(arg),
                                    frame.qual,
                                    taint_chain(arg, state, &v)
                                ),
                            });
                        }
                    });
                });
            });
        }
    }
}

/// If `x` is a sink, return (description, size args, line, col).
fn sink_args<'a>(
    x: &'a Expr,
    spec: &TaintSpec,
) -> Option<(String, Vec<&'a Expr>, u32, u32)> {
    match x {
        Expr::Method {
            name, args, line, col, ..
        } => {
            let sink = SINK_METHODS.contains(&name.as_str())
                || list_matches_method(&spec.sinks, name);
            if sink && !args.is_empty() {
                // Only the size argument matters: first for all builtins
                // (`resize(new_len, value)` — the fill value is inert).
                Some((format!("`{name}`"), vec![&args[0]], *line, *col))
            } else {
                None
            }
        }
        Expr::Call {
            callee, args, line, col, ..
        } => {
            let sink =
                list_matches_path(SINK_PATHS, callee) || list_matches_path(&spec.sinks, callee);
            if sink && !args.is_empty() {
                Some((format!("`{callee}`"), vec![&args[0]], *line, *col))
            } else {
                None
            }
        }
        Expr::Index {
            index,
            literal: false,
            line,
            col,
            ..
        } => Some(("a slice index".to_string(), vec![index], *line, *col)),
        _ => None,
    }
}

/// Chain text for the first tainted leaf of `arg` (falls back to the
/// whole expression's chain).
fn taint_chain(arg: &Expr, state: &crate::dataflow::State, whole: &AbsVal) -> String {
    let mut best: Option<&AbsVal> = None;
    walk_no_closures(arg, &mut |x| {
        if best.is_some() {
            return;
        }
        if let Expr::Path { path } = x {
            if !path.contains("::") {
                if let Some(v) = state.get(path) {
                    if v.tainted {
                        best = Some(v);
                    }
                }
            }
        }
    });
    chain_text(best.unwrap_or(whole))
}

/// ≤3 rounds: a non-test fn whose return value is tainted under the
/// current source set becomes a dynamic source itself.
fn discover_dynamic_sources(files: &[UnitFile], spec: &mut TaintSpec) {
    for _round in 0..3 {
        let mut added = Vec::new();
        {
            let engine = Engine { spec };
            for uf in files {
                if uf.is_test {
                    continue;
                }
                crate::ast::for_each_fn(&uf.file, &mut |f, is_test| {
                    if is_test
                        || f.body.is_none()
                        || spec.dynamic_sources.iter().any(|d| *d == f.qual)
                    {
                        return;
                    }
                    let Some(frame) = fn_frame(f) else { return };
                    let flow = engine.run(&frame.cfg, &Default::default());
                    if returns_tainted(&engine, &frame, &flow) {
                        added.push(f.qual.clone());
                    }
                });
            }
        }
        if added.is_empty() {
            break;
        }
        spec.dynamic_sources.extend(added);
    }
}

fn fn_frame(f: &crate::ast::FnItem) -> Option<Frame<'_>> {
    Some(Frame {
        qual: &f.qual,
        cfg: crate::cfg::Cfg::from_fn(f)?,
    })
}

/// The last instruction of any reachable `Return`-terminated block
/// evaluates tainted. (Return values are emitted as a trailing
/// instruction by CFG lowering, including implicit tail expressions.)
fn returns_tainted(engine: &Engine<'_>, frame: &Frame<'_>, flow: &crate::dataflow::Flow) -> bool {
    for (bb, block) in frame.cfg.blocks.iter().enumerate() {
        if !matches!(block.term, crate::cfg::Term::Return) {
            continue;
        }
        let states = &flow.before[bb];
        if states.len() != block.instrs.len() {
            continue; // unreachable
        }
        let Some((instr, state)) = block.instrs.last().zip(states.last()) else {
            continue;
        };
        let Some(value) = instr.value else { continue };
        if engine.eval(value, state).tainted {
            return true;
        }
    }
    false
}
