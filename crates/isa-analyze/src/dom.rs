//! Dominators and natural loops over a [`Cfg`].
//!
//! Immediate dominators come from the Cooper–Harvey–Kennedy iterative
//! algorithm over a reverse-postorder walk; natural loops are recovered
//! from back edges (`tail → head` where `head` dominates `tail`), with
//! bodies computed by reverse reachability and same-header loops merged.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::Cfg;

/// Dominator tree plus loop nest of a CFG.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Immediate dominator per block (`None` for the entry block and for
    /// blocks unreachable from the entry).
    pub idom: Vec<Option<usize>>,
    /// Loops keyed by header block, in header order.
    pub loops: BTreeMap<usize, NaturalLoop>,
    /// Loop-nesting depth per block (0 = not in any loop).
    pub depth: Vec<u32>,
    /// Innermost loop header containing each block, if any.
    pub innermost: Vec<Option<usize>>,
}

/// One natural loop.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Header block (dominates every block in the body).
    pub header: usize,
    /// All blocks in the loop, header included, sorted.
    pub body: BTreeSet<usize>,
    /// Back-edge source blocks (`tail` in `tail → header`), sorted.
    pub tails: Vec<usize>,
}

impl LoopInfo {
    /// Whether `a` dominates `b` (reflexive; false for unreachable `b`).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }
}

/// Reverse postorder of the reachable blocks from the entry.
fn reverse_postorder(cfg: &Cfg) -> Vec<usize> {
    let n = cfg.blocks.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit "children pushed" phase so the
    // postorder matches the recursive formulation.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    if n == 0 {
        return post;
    }
    visited[cfg.entry] = true;
    stack.push((cfg.entry, 0));
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let succs = &cfg.blocks[b].succs;
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Computes dominators and the loop nest of `cfg`.
pub fn analyze(cfg: &Cfg) -> LoopInfo {
    let n = cfg.blocks.len();
    let mut info = LoopInfo {
        idom: vec![None; n],
        loops: BTreeMap::new(),
        depth: vec![0; n],
        innermost: vec![None; n],
    };
    if n == 0 {
        return info;
    }

    let rpo = reverse_postorder(cfg);
    let mut rpo_index = vec![usize::MAX; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b] = i;
    }

    // Cooper–Harvey–Kennedy: iterate to fixpoint over reverse postorder.
    // `idom[entry] = entry` during iteration (cleared afterwards).
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[cfg.entry] = Some(cfg.entry);
    let intersect = |idom: &[Option<usize>], rpo_index: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = match idom[a] {
                    Some(d) => d,
                    None => return b,
                };
            }
            while rpo_index[b] > rpo_index[a] {
                b = match idom[b] {
                    Some(d) => d,
                    None => return a,
                };
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            if b == cfg.entry {
                continue;
            }
            let mut new_idom: Option<usize> = None;
            for &p in &cfg.blocks[b].preds {
                if idom[p].is_none() {
                    continue; // not yet processed or unreachable
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &rpo_index, p, cur),
                });
            }
            if new_idom.is_some() && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    idom[cfg.entry] = None;
    info.idom = idom;
    // A self-idom outside the entry never happens; unreachable stays None.

    // Natural loops from back edges, in deterministic (tail, head) order.
    let dominates = |h: usize, t: usize| -> bool {
        let mut cur = t;
        loop {
            if cur == h {
                return true;
            }
            cur = match info.idom[cur] {
                Some(d) => d,
                None => return false,
            };
        }
    };
    for tail in 0..n {
        if !cfg.reachable[tail] {
            continue;
        }
        for &head in &cfg.blocks[tail].succs {
            if !dominates(head, tail) {
                continue;
            }
            let entry = info.loops.entry(head).or_insert_with(|| NaturalLoop {
                header: head,
                body: BTreeSet::from([head]),
                tails: Vec::new(),
            });
            entry.tails.push(tail);
            // Reverse reachability from the tail, not crossing the header.
            let mut stack = vec![tail];
            while let Some(b) = stack.pop() {
                if !entry.body.insert(b) {
                    continue;
                }
                for &p in &cfg.blocks[b].preds {
                    if !entry.body.contains(&p) {
                        stack.push(p);
                    }
                }
            }
        }
    }

    // Depth and innermost header. Loops sorted by body size descending
    // means later (smaller) loops overwrite `innermost` — the smallest
    // containing loop wins; equal sizes break by header order.
    let mut by_size: Vec<&NaturalLoop> = info.loops.values().collect();
    by_size.sort_by_key(|l| (std::cmp::Reverse(l.body.len()), l.header));
    for l in by_size {
        for &b in &l.body {
            info.depth[b] += 1;
            info.innermost[b] = Some(l.header);
        }
    }
    info
}
