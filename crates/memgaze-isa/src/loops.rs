//! Natural-loop detection.
//!
//! Strided loads are "relative to a loop induction variable (loop-carried
//! dependency) with constant stride" (paper §III-B); finding loops is the
//! first step of that classification. A natural loop is identified per
//! back edge `n → h` where `h` dominates `n`; its body is `h` plus all
//! nodes that reach `n` without passing through `h`. Loops sharing a
//! header are merged.

use crate::cfg::Cfg;
use crate::proc::{BlockId, Procedure};
use std::collections::BTreeSet;

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Loop {
    /// Loop header (dominates every block in the body).
    pub(crate) header: BlockId,
    /// All blocks in the loop, including the header.
    pub(crate) body: BTreeSet<BlockId>,
    /// Index of the innermost enclosing loop in the forest, if any.
    pub(crate) parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    depth: u32,
}

impl Loop {
    /// Whether the loop body contains `b`.
    pub(crate) fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }
}

/// All natural loops of a procedure, with nesting resolved.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops ordered outermost-first (by increasing body size is not
    /// guaranteed; use `parent`/`depth`).
    pub(crate) loops: Vec<Loop>,
    /// Innermost loop index per block, if the block is in any loop.
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Find the natural loops of `proc` given its `cfg`.
    pub(crate) fn build(proc: &Procedure, cfg: &Cfg) -> LoopForest {
        let n = proc.blocks.len();
        // Collect back edges and merge bodies per header.
        let mut header_bodies: Vec<(BlockId, BTreeSet<BlockId>)> = Vec::new();
        for &b in cfg.rpo() {
            for &s in cfg.succs(b) {
                if cfg.dominates(s, b) {
                    // Back edge b → s. Walk predecessors from b up to s.
                    let mut body = BTreeSet::new();
                    body.insert(s);
                    let mut stack = vec![b];
                    while let Some(x) = stack.pop() {
                        if body.insert(x) {
                            for &p in cfg.preds(x) {
                                if cfg.is_reachable(p) {
                                    stack.push(p);
                                }
                            }
                        }
                    }
                    if let Some(existing) = header_bodies.iter_mut().find(|(h, _)| *h == s) {
                        existing.1.extend(body);
                    } else {
                        header_bodies.push((s, body));
                    }
                }
            }
        }

        // Sort outermost (largest body) first so parents precede children.
        header_bodies.sort_by_key(|(_, body)| std::cmp::Reverse(body.len()));
        let mut loops: Vec<Loop> = header_bodies
            .into_iter()
            .map(|(header, body)| Loop {
                header,
                body,
                parent: None,
                depth: 1,
            })
            .collect();

        // Parent = smallest strictly-containing loop processed earlier.
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for j in 0..i {
                let contains =
                    loops[j].body.is_superset(&loops[i].body) && loops[j].header != loops[i].header;
                if contains {
                    let better = match best {
                        None => true,
                        Some(b) => loops[j].body.len() < loops[b].body.len(),
                    };
                    if better {
                        best = Some(j);
                    }
                }
            }
            loops[i].parent = best;
            loops[i].depth = best.map_or(1, |b| loops[b].depth + 1);
        }

        // Innermost loop per block: deepest loop containing it.
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for (li, l) in loops.iter().enumerate() {
            for &b in &l.body {
                let replace = match innermost[b.index()] {
                    None => true,
                    Some(prev) => loops[prev].depth < l.depth,
                };
                if replace {
                    innermost[b.index()] = Some(li);
                }
            }
        }

        LoopForest { loops, innermost }
    }

    /// Index into [`loops`](Self::loops) of the innermost loop
    /// containing `b`, if any.
    pub(crate) fn innermost_index(&self, b: BlockId) -> Option<usize> {
        self.innermost.get(b.index()).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{CmpOp, Operand, Terminator};
    use crate::proc::{BasicBlock, ProcId};
    use crate::reg::Reg;

    fn proc_of(terms: Vec<Terminator>) -> Procedure {
        Procedure {
            id: ProcId(0),
            name: "t".into(),
            blocks: terms
                .into_iter()
                .enumerate()
                .map(|(i, term)| BasicBlock {
                    id: BlockId(i as u32),
                    instrs: vec![],
                    term,
                    src_line: 0,
                })
                .collect(),
            entry: BlockId(0),
            src_file: "t.c".into(),
        }
    }

    fn br(taken: u32, not_taken: u32) -> Terminator {
        Terminator::Br {
            lhs: Reg::gp(0),
            op: CmpOp::Lt,
            rhs: Operand::Imm(0),
            taken: BlockId(taken),
            not_taken: BlockId(not_taken),
        }
    }

    #[test]
    fn single_loop() {
        // 0 → 1; 1 → {1, 2}; 2 ret — self-loop at 1.
        let p = proc_of(vec![Terminator::Jmp(BlockId(1)), br(1, 2), Terminator::Ret]);
        let cfg = Cfg::build(&p);
        let f = LoopForest::build(&p, &cfg);
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].header, BlockId(1));
        assert!(f.loops[0].contains(BlockId(1)));
        assert!(!f.loops[0].contains(BlockId(0)));
        assert_eq!(
            f.innermost_index(BlockId(1))
                .map(|i| &f.loops[i])
                .unwrap()
                .header,
            BlockId(1)
        );
        assert!(f.innermost_index(BlockId(2)).map(|i| &f.loops[i]).is_none());
    }

    #[test]
    fn nested_loops() {
        // 0→1; 1(outer hdr)→{2,5}; 2(inner hdr)→{3,4}; 3→2 (inner latch);
        // 4→1 (outer latch); 5 ret.
        let p = proc_of(vec![
            Terminator::Jmp(BlockId(1)),
            br(2, 5),
            br(3, 4),
            Terminator::Jmp(BlockId(2)),
            Terminator::Jmp(BlockId(1)),
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&p);
        let f = LoopForest::build(&p, &cfg);
        assert_eq!(f.loops.len(), 2);
        let outer = f.loops.iter().position(|l| l.header == BlockId(1)).unwrap();
        let inner = f.loops.iter().position(|l| l.header == BlockId(2)).unwrap();
        assert_eq!(f.loops[outer].depth, 1);
        assert_eq!(f.loops[inner].depth, 2);
        assert_eq!(f.loops[inner].parent, Some(outer));
        assert!(f.loops[outer].body.is_superset(&f.loops[inner].body));
        // Innermost for the inner body is the inner loop.
        assert_eq!(
            f.innermost_index(BlockId(3))
                .map(|i| &f.loops[i])
                .unwrap()
                .header,
            BlockId(2)
        );
        // Outer-only blocks resolve to the outer loop.
        assert_eq!(
            f.innermost_index(BlockId(4))
                .map(|i| &f.loops[i])
                .unwrap()
                .header,
            BlockId(1)
        );
    }

    #[test]
    fn no_loops() {
        let p = proc_of(vec![Terminator::Jmp(BlockId(1)), Terminator::Ret]);
        let cfg = Cfg::build(&p);
        let f = LoopForest::build(&p, &cfg);
        assert!(f.loops.is_empty());
    }

    #[test]
    fn shared_header_merges() {
        // Two back edges to header 1: 1→{2,3}; 2→1; 3→{1,4}; 4 ret.
        let p = proc_of(vec![
            Terminator::Jmp(BlockId(1)),
            br(2, 3),
            Terminator::Jmp(BlockId(1)),
            br(1, 4),
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&p);
        let f = LoopForest::build(&p, &cfg);
        assert_eq!(f.loops.len(), 1);
        let l = &f.loops[0];
        assert!(l.contains(BlockId(2)) && l.contains(BlockId(3)));
    }
}
