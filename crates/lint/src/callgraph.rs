//! Workspace symbol table and conservative intra-crate call graph.
//!
//! Nodes are the functions of one *crate unit* (one crate's files, parsed
//! by [`crate::parser`]); edges are call sites resolved by name:
//!
//! - `free(…)` resolves to free functions named `free` (falling back to
//!   associated functions of that name — `helper(x)` inside an impl);
//! - `Type::method(…)` resolves to the method with that qualified name;
//!   `Self::method(…)` resolves to *every* method named `method` (the
//!   parser does not track which impl a call site sits in);
//! - `recv.method(…)` resolves to **all** same-unit methods named
//!   `method` — receiver types are unknown, so this over-approximates.
//!
//! Over-approximation is the point: the graph answers "could a panic be
//! reachable from this entry point", and a sound "no" requires every
//! plausible edge. The cost is occasional false chains through unrelated
//! same-name methods, paid for with a reasoned `lint:allow`.
//!
//! Cross-crate calls resolve to nothing (each crate has its own roots:
//! its `lint.toml [hot-entry-points]` and every function of its
//! `[hot-paths]` files), and test functions
//! are excluded from the graph entirely — they are neither reachable
//! from production entries nor valid resolution targets.

use crate::ast::{self, Block, Expr, File};
use crate::rules::Finding;
use std::collections::{HashMap, VecDeque};

/// Macros that panic by definition (the `assert!` family is deliberately
/// excluded: assertions in cold validation code are a supported pattern).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One parsed file of a crate unit.
pub struct UnitFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Parsed AST.
    pub file: File,
    /// Whole file is test scaffolding (`lint.toml [test-paths]`).
    pub is_test: bool,
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// `free(…)` or `module::free(…)` — resolve by bare function name.
    Free(String),
    /// `Type::method(…)` / `Self::method(…)` — resolve by qualified name.
    Qualified(String, String),
    /// `recv.method(…)` — resolve to every method with this name.
    Method(String),
}

/// One direct panic source in a function body.
#[derive(Debug)]
pub struct PanicSite {
    /// Human description (`` `panic!` ``, `` `.unwrap()` ``, …).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One function in the graph.
pub struct FnNode {
    /// Qualified name (`Type::method` or bare `free_fn`).
    pub qual: String,
    /// Repo-relative file.
    pub file: String,
    /// Normalized return-type text (empty for unit).
    pub ret: String,
    /// Outgoing call sites (unresolved).
    pub calls: Vec<Target>,
    /// Direct panic sources.
    pub panics: Vec<PanicSite>,
}

/// The call graph of one crate unit.
pub struct Graph {
    /// All non-test functions of the unit.
    pub nodes: Vec<FnNode>,
    /// Resolved adjacency (node index → callee node indices).
    edges: Vec<Vec<usize>>,
    free_by_name: HashMap<String, Vec<usize>>,
    methods_by_name: HashMap<String, Vec<usize>>,
    by_qual: HashMap<String, Vec<usize>>,
}

impl Graph {
    /// Build the graph for one crate unit.
    pub fn build(files: &[UnitFile]) -> Graph {
        let mut nodes = Vec::new();
        for uf in files {
            ast::for_each_fn(&uf.file, &mut |f, is_test| {
                if uf.is_test || is_test {
                    return;
                }
                let (calls, panics) = match &f.body {
                    Some(b) => scan_body(b),
                    None => (Vec::new(), Vec::new()),
                };
                nodes.push(FnNode {
                    qual: f.qual.clone(),
                    file: uf.path.clone(),
                    ret: f.ret.clone(),
                    calls,
                    panics,
                });
            });
        }
        let mut free_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_qual.entry(n.qual.clone()).or_default().push(i);
            match n.qual.rsplit_once("::") {
                Some((_, name)) => methods_by_name.entry(name.to_string()).or_default().push(i),
                None => free_by_name.entry(n.qual.clone()).or_default().push(i),
            }
        }
        let mut graph = Graph {
            edges: vec![Vec::new(); nodes.len()],
            nodes,
            free_by_name,
            methods_by_name,
            by_qual,
        };
        for i in 0..graph.nodes.len() {
            let mut targets = Vec::new();
            for call in &graph.nodes[i].calls {
                targets.extend(graph.resolve(call));
            }
            targets.sort_unstable();
            targets.dedup();
            graph.edges[i] = targets;
        }
        graph
    }

    /// All node indices a call target may refer to.
    pub fn resolve(&self, target: &Target) -> Vec<usize> {
        match target {
            Target::Free(name) => self
                .free_by_name
                .get(name)
                .or_else(|| self.methods_by_name.get(name))
                .cloned()
                .unwrap_or_default(),
            Target::Qualified(ty, method) => {
                if ty == "Self" {
                    self.methods_by_name
                        .get(method)
                        .cloned()
                        .unwrap_or_default()
                } else {
                    self.by_qual
                        .get(&format!("{ty}::{method}"))
                        .cloned()
                        .unwrap_or_default()
                }
            }
            Target::Method(name) => self.methods_by_name.get(name).cloned().unwrap_or_default(),
        }
    }

    /// Find the node declared in `file` with qualified name `qual`.
    pub fn find(&self, file: &str, qual: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.file == file && n.qual == qual)
    }

    /// R010: for every panic site reachable from `roots` (node indices),
    /// emit one finding at the panic site with the shortest call chain
    /// from the first root that reaches it. Visited sets bound the BFS,
    /// so recursive and diamond-shaped call graphs terminate and report
    /// each site once.
    pub fn panic_reachability(&self, roots: &[usize]) -> Vec<Finding> {
        let mut findings = Vec::new();
        // (file, line, col) of sites already reported.
        let mut claimed: Vec<(String, u32, u32)> = Vec::new();
        for &start in roots {
            let qual = &self.nodes[start].qual;
            // BFS with parent pointers for shortest-chain rendering.
            let mut parent: HashMap<usize, usize> = HashMap::new();
            let mut visited = vec![false; self.nodes.len()];
            let mut queue = VecDeque::new();
            visited[start] = true;
            queue.push_back(start);
            let mut order = Vec::new();
            while let Some(i) = queue.pop_front() {
                order.push(i);
                for &j in &self.edges[i] {
                    if !visited[j] {
                        visited[j] = true;
                        parent.insert(j, i);
                        queue.push_back(j);
                    }
                }
            }
            for i in order {
                let node = &self.nodes[i];
                for p in &node.panics {
                    let key = (node.file.clone(), p.line, p.col);
                    if claimed.contains(&key) {
                        continue;
                    }
                    claimed.push(key);
                    let mut chain = vec![i];
                    let mut cur = i;
                    while let Some(&prev) = parent.get(&cur) {
                        chain.push(prev);
                        cur = prev;
                    }
                    chain.reverse();
                    let rendered: Vec<&str> =
                        chain.iter().map(|&k| self.nodes[k].qual.as_str()).collect();
                    findings.push(Finding {
                        rule: "R010".to_string(),
                        path: node.file.clone(),
                        line: p.line,
                        col: p.col,
                        message: format!(
                            "{} reachable from hot-path entry `{qual}` via {} — hot \
                             entries and everything they call must be panic-free",
                            p.what,
                            rendered.join(" -> "),
                        ),
                    });
                }
            }
        }
        findings
    }
}

/// Extract call sites and direct panic sources from a function body.
pub fn scan_body(body: &Block) -> (Vec<Target>, Vec<PanicSite>) {
    let mut calls = Vec::new();
    let mut panics = Vec::new();
    body.walk_exprs(&mut |e| match e {
        Expr::Call { callee, .. } => calls.push(classify(callee)),
        Expr::Method {
            name, line, col, ..
        } => {
            if name == "unwrap" || name == "expect" {
                panics.push(PanicSite {
                    what: format!("`.{name}()`"),
                    line: *line,
                    col: *col,
                });
            }
            calls.push(Target::Method(name.clone()));
        }
        Expr::Macro {
            name, line, col, ..
        } if PANIC_MACROS.contains(&name.as_str()) => {
            panics.push(PanicSite {
                what: format!("`{name}!`"),
                line: *line,
                col: *col,
            });
        }
        Expr::Index {
            literal: true,
            line,
            col,
            ..
        } => {
            panics.push(PanicSite {
                what: "slice indexed by integer literal".to_string(),
                line: *line,
                col: *col,
            });
        }
        _ => {}
    });
    (calls, panics)
}

/// Classify a `::`-joined callee path into a resolution target.
pub fn classify(callee: &str) -> Target {
    match callee.rsplit_once("::") {
        None => Target::Free(callee.to_string()),
        Some((head, last)) => {
            let ty = head.rsplit("::").next().unwrap_or(head);
            if ty == "Self" || ty.chars().next().is_some_and(|c| c.is_uppercase()) {
                Target::Qualified(ty.to_string(), last.to_string())
            } else {
                // Module-qualified free function (`mod::helper(…)`).
                Target::Free(last.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn unit(files: &[(&str, &str)]) -> Graph {
        let ufs: Vec<UnitFile> = files
            .iter()
            .map(|(p, s)| UnitFile {
                path: p.to_string(),
                file: parse(&lex(s)),
                is_test: false,
            })
            .collect();
        Graph::build(&ufs)
    }

    fn reach(g: &Graph, file: &str, qual: &str) -> Vec<Finding> {
        g.panic_reachability(&[g.find(file, qual).expect("entry resolves")])
    }

    #[test]
    fn diamond_reports_shortest_chain_once() {
        let g = unit(&[(
            "d.rs",
            "fn entry() { left(); right(); }\n\
             fn left() { sink(); }\n\
             fn right() { mid(); }\n\
             fn mid() { sink(); }\n\
             fn sink(v: &[u8]) { v.first().unwrap(); }\n",
        )]);
        let f = reach(&g, "d.rs", "entry");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].path.as_str(), f[0].line), ("d.rs", 5));
        assert!(
            f[0].message.contains("entry -> left -> sink"),
            "shortest chain expected: {}",
            f[0].message
        );
    }

    #[test]
    fn recursion_terminates() {
        let g = unit(&[(
            "r.rs",
            "fn entry(n: u32) { if n > 0 { entry(n - 1); } helper(n); }\n\
             fn helper(n: u32) { if n > 1 { entry(n); } panic!(\"boom\"); }\n",
        )]);
        let f = reach(&g, "r.rs", "entry");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("entry -> helper"));
    }

    #[test]
    fn trait_method_calls_reach_impls() {
        let g = unit(&[(
            "t.rs",
            "trait Step { fn step(&self); }\n\
             struct A;\n\
             impl Step for A { fn step(&self) { core_of_a(); } }\n\
             fn core_of_a() { todo!() }\n\
             fn entry(s: &dyn Step) { s.step(); }\n",
        )]);
        let f = reach(&g, "t.rs", "entry");
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("entry -> A::step -> core_of_a"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn test_functions_are_not_nodes() {
        let g = unit(&[(
            "x.rs",
            "fn entry() { helper(); }\n\
             fn helper() {}\n\
             #[cfg(test)] mod tests { fn helper() { panic!(\"test only\") } }\n",
        )]);
        let f = reach(&g, "x.rs", "entry");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cross_file_edges_within_a_unit() {
        let g = unit(&[
            ("a.rs", "pub fn entry() { lib_helper(); }\n"),
            ("b.rs", "pub fn lib_helper(v: &[u8]) { v[0]; }\n"),
        ]);
        let f = reach(&g, "a.rs", "entry");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].path, "b.rs");
        assert!(f[0].message.contains("slice indexed by integer literal"));
    }

    #[test]
    fn ret_types_are_recorded_for_trait_decls() {
        let g = unit(&[(
            "io.rs",
            "trait SpillIo { fn delete(&self, p: &str) -> Result<(), SpillError>; }\n",
        )]);
        let idx = g.find("io.rs", "SpillIo::delete").unwrap();
        assert_eq!(g.nodes[idx].ret, "Result<(),SpillError>");
        assert_eq!(g.resolve(&Target::Method("delete".into())), vec![idx]);
    }
}
