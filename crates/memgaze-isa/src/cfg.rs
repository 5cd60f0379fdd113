//! Control-flow graph, reverse postorder, and dominator analysis.
//!
//! Dominators are computed with the Cooper–Harvey–Kennedy iterative
//! algorithm over reverse postorder — simple and fast for the procedure
//! sizes the instrumentor sees.

use crate::proc::{BlockId, Procedure};

/// Control-flow graph of one procedure.
#[derive(Debug, Clone)]
pub(crate) struct Cfg {
    /// Successor lists per block.
    succs: Vec<Vec<BlockId>>,
    /// Predecessor lists per block.
    preds: Vec<Vec<BlockId>>,
    /// Blocks in reverse postorder from the entry (unreachable blocks are
    /// absent).
    rpo: Vec<BlockId>,
    /// `rpo_index[b] = position of b in rpo`, or `usize::MAX` if
    /// unreachable.
    rpo_index: Vec<usize>,
    /// Immediate dominator of each block (entry's idom is itself);
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    /// Entry block.
    entry: BlockId,
}

impl Cfg {
    /// Build the CFG and dominator tree for a procedure.
    pub(crate) fn build(proc: &Procedure) -> Cfg {
        let n = proc.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for b in &proc.blocks {
            for s in b.term.successors() {
                succs[b.id.index()].push(s);
                preds[s.index()].push(b.id);
            }
        }

        // Depth-first postorder from the entry.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        // Iterative DFS with explicit state: (block, next successor index).
        let mut stack: Vec<(BlockId, usize)> = vec![(proc.entry, 0)];
        visited[proc.entry.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.index()].len() {
                let s = succs[b.index()][*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }

        // Cooper–Harvey–Kennedy iterative dominators.
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[proc.entry.index()] = Some(proc.entry);
        let intersect = |idom: &[Option<BlockId>], rpo_index: &[usize], a: BlockId, b: BlockId| {
            let (mut x, mut y) = (a, b);
            while x != y {
                while rpo_index[x.index()] > rpo_index[y.index()] {
                    x = idom[x.index()].expect("processed block has idom");
                }
                while rpo_index[y.index()] > rpo_index[x.index()] {
                    y = idom[y.index()].expect("processed block has idom");
                }
            }
            x
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }

        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
            idom,
            entry: proc.entry,
        }
    }

    /// Successors of a block.
    pub(crate) fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessors of a block.
    pub(crate) fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Blocks in reverse postorder (reachable only).
    pub(crate) fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Whether `b` is reachable from the entry.
    pub(crate) fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    /// Whether `a` dominates `b` (reflexive).
    pub(crate) fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            cur = match self.idom[cur.index()] {
                Some(d) => d,
                None => return false,
            };
        }
    }

    /// The entry block.
    pub(crate) fn entry(&self) -> BlockId {
        self.entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{CmpOp, Operand, Terminator};
    use crate::proc::{BasicBlock, ProcId, Procedure};
    use crate::reg::Reg;

    /// Build a procedure from terminators only (bodies empty).
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
    fn diamond_dominators() {
        // 0 → {1,2} → 3
        let p = proc_of(vec![
            br(1, 2),
            Terminator::Jmp(BlockId(3)),
            Terminator::Jmp(BlockId(3)),
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.idom[1], Some(BlockId(0)));
        assert_eq!(cfg.idom[2], Some(BlockId(0)));
        assert_eq!(cfg.idom[3], Some(BlockId(0)));
        assert!(cfg.dominates(BlockId(0), BlockId(3)));
        assert!(!cfg.dominates(BlockId(1), BlockId(3)));
        assert!(cfg.dominates(BlockId(3), BlockId(3)));
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
    }

    #[test]
    fn loop_dominators() {
        // 0 → 1 (header); 1 → {2, 3}; 2 → 1 (latch); 3 ret.
        let p = proc_of(vec![
            Terminator::Jmp(BlockId(1)),
            br(2, 3),
            Terminator::Jmp(BlockId(1)),
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&p);
        assert!(cfg.dominates(BlockId(1), BlockId(2)));
        assert_eq!(cfg.idom[2], Some(BlockId(1)));
        assert_eq!(cfg.idom[3], Some(BlockId(1)));
        // Back edge: 2 → 1 where 1 dominates 2.
        assert!(cfg.dominates(BlockId(1), BlockId(2)));
    }

    #[test]
    fn unreachable_block() {
        let p = proc_of(vec![Terminator::Ret, Terminator::Ret]);
        let cfg = Cfg::build(&p);
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(BlockId(1)));
        assert_eq!(cfg.idom[1], None);
        assert!(!cfg.dominates(BlockId(0), BlockId(1)));
        assert_eq!(cfg.rpo(), &[BlockId(0)]);
    }

    #[test]
    fn rpo_orders_entry_first() {
        let p = proc_of(vec![
            br(1, 2),
            Terminator::Jmp(BlockId(3)),
            Terminator::Jmp(BlockId(3)),
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert_eq!(*cfg.rpo().last().unwrap(), BlockId(3));
    }
}
