//! The simplified Shiloach–Vishkin connected-components PPA (Section II,
//! Figure 2 of the paper).
//!
//! Every vertex `v` maintains a parent pointer `D[v]`, initially pointing at
//! itself. Each round performs:
//!
//! 1. **tree hooking** — for each edge `(u, v)`, if `w = D[u]` is a tree root
//!    and `D[v] < w`, hook `w` under `D[v]` (i.e. `D[w] ← D[v]`);
//! 2. **shortcutting** — every vertex re-points itself at its grandparent
//!    (`D[v] ← D[D[v]]`).
//!
//! The paper's simplification drops the *star hooking* step of the original
//! PRAM algorithm. `D[v]` decreases monotonically and converges to the
//! smallest vertex ID of `v`'s connected component in `O(log n)` rounds. Each
//! round is implemented here as four supersteps:
//!
//! | phase (superstep mod 4) | action |
//! |---|---|
//! | 0 | apply pending shortcut responses, broadcast `D[v]` to neighbours |
//! | 1 | compute the minimum neighbour `D`, send a hook request to `D[v]` |
//! | 2 | roots apply hook requests; everyone asks its parent for `D[parent]` |
//! | 3 | parents answer; every vertex reports "did I change this round?" |
//!
//! Termination is detected with a [`BoolOr`] aggregator: as soon as a full
//! round passes with no parent change anywhere, the job stops.

use crate::aggregate::BoolOr;
use crate::engine::ExecCtx;
use crate::metrics::Metrics;
use crate::radix::SortKey;
use crate::runner::run;
use crate::vertex::{Context, VertexKey, VertexProgram};
use crate::vertex_set::VertexSet;

#[derive(Debug, Clone)]
struct SvState<I> {
    neighbors: Vec<I>,
    parent: I,
    changed_this_round: bool,
}

#[derive(Debug, Clone)]
enum SvMsg<I> {
    /// A neighbour's current parent (phase 0 → 1).
    NeighborParent(I),
    /// Request to hook the receiving root under the carried vertex (phase 1 → 2).
    Hook(I),
    /// "Tell me your parent" — carries the requester (phase 2 → 3).
    GetParent(I),
    /// The parent's parent (phase 3 → 0).
    ParentIs(I),
}

struct SvProgram<I>(std::marker::PhantomData<I>);

impl<I: VertexKey + SortKey> VertexProgram for SvProgram<I> {
    type Id = I;
    type Value = SvState<I>;
    type Message = SvMsg<I>;
    type Aggregate = BoolOr;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: I,
        value: &mut SvState<I>,
        messages: &mut [SvMsg<I>],
    ) {
        match ctx.superstep() % 4 {
            0 => {
                // Apply shortcut responses from the previous round.
                for msg in messages.iter() {
                    if let SvMsg::ParentIs(p) = msg {
                        if *p < value.parent {
                            value.parent = *p;
                            value.changed_this_round = true;
                        }
                    }
                }
                // Tree hooking step 1: advertise D[v] along every edge.
                for i in 0..value.neighbors.len() {
                    let n = value.neighbors[i];
                    ctx.send_message(n, SvMsg::NeighborParent(value.parent));
                }
            }
            1 => {
                // Tree hooking step 2: forward the smallest neighbour parent to
                // our own parent, which will hook itself if it is a root.
                let mut best: Option<I> = None;
                for msg in messages.iter() {
                    if let SvMsg::NeighborParent(p) = msg {
                        best = Some(match best {
                            Some(b) if b <= *p => b,
                            _ => *p,
                        });
                    }
                }
                if let Some(x) = best {
                    if x < value.parent {
                        ctx.send_message(value.parent, SvMsg::Hook(x));
                    }
                }
            }
            2 => {
                // Tree hooking step 3: roots accept the smallest hook target.
                let mut best: Option<I> = None;
                for msg in messages.iter() {
                    if let SvMsg::Hook(x) = msg {
                        best = Some(match best {
                            Some(b) if b <= *x => b,
                            _ => *x,
                        });
                    }
                }
                if let Some(x) = best {
                    if value.parent == id && x < value.parent {
                        value.parent = x;
                        value.changed_this_round = true;
                    }
                }
                // Shortcutting step 1: ask the (possibly new) parent for its parent.
                if value.parent != id {
                    ctx.send_message(value.parent, SvMsg::GetParent(id));
                }
            }
            _ => {
                // Shortcutting step 2: answer grandparent queries.
                for msg in messages.iter() {
                    if let SvMsg::GetParent(from) = msg {
                        ctx.send_message(*from, SvMsg::ParentIs(value.parent));
                    }
                }
                // End of round: report whether anything changed and reset.
                ctx.aggregate(BoolOr(value.changed_this_round));
                value.changed_this_round = false;
            }
        }
    }

    fn should_terminate(&self, aggregate: &BoolOr, superstep: usize) -> bool {
        superstep % 4 == 3 && !aggregate.0
    }
}

/// Computes connected components of an undirected graph.
///
/// `adjacency` lists each vertex with its neighbours; for correct results
/// every edge should be present in both endpoint's lists (the function does
/// not symmetrise the input). Returns `(vertex, component)` pairs where the
/// component representative is the smallest vertex ID in the component,
/// together with the job metrics. The job runs on the worker pool of `ctx`;
/// one still running after `max_supersteps` supersteps stops with
/// [`Metrics::converged`] set to `false`.
pub fn connected_components<I: VertexKey + SortKey>(
    ctx: &ExecCtx,
    adjacency: Vec<(I, Vec<I>)>,
    max_supersteps: usize,
) -> (Vec<(I, I)>, Metrics) {
    let program = SvProgram::<I>(std::marker::PhantomData);
    let pairs = adjacency.into_iter().map(|(id, neighbors)| {
        (
            id,
            SvState {
                neighbors,
                parent: id,
                changed_this_round: false,
            },
        )
    });
    let mut set = VertexSet::from_pairs(ctx.workers(), pairs);
    let metrics = run(ctx, &program, &mut set, max_supersteps);
    let out = set
        .into_pairs()
        .into_iter()
        .map(|(id, st)| (id, st.parent))
        .collect();
    (out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Superstep cap of the jobs that are expected to converge.
    const CAP: usize = 400;

    /// Union-find oracle.
    fn oracle(n: u64, edges: &[(u64, u64)]) -> HashMap<u64, u64> {
        let mut parent: Vec<u64> = (0..n).collect();
        fn find(parent: &mut [u64], x: u64) -> u64 {
            let mut r = x;
            while parent[r as usize] != r {
                r = parent[r as usize];
            }
            let mut c = x;
            while parent[c as usize] != r {
                let next = parent[c as usize];
                parent[c as usize] = r;
                c = next;
            }
            r
        }
        for &(a, b) in edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi as usize] = lo;
            }
        }
        // Map every vertex to the minimum id in its component.
        let mut min_of_root: HashMap<u64, u64> = HashMap::new();
        for v in 0..n {
            let r = find(&mut parent, v);
            let e = min_of_root.entry(r).or_insert(v);
            *e = (*e).min(v);
        }
        (0..n)
            .map(|v| (v, min_of_root[&find(&mut parent, v)]))
            .collect()
    }

    fn adjacency(n: u64, edges: &[(u64, u64)]) -> Vec<(u64, Vec<u64>)> {
        let mut adj: HashMap<u64, Vec<u64>> = (0..n).map(|v| (v, vec![])).collect();
        for &(a, b) in edges {
            adj.get_mut(&a).unwrap().push(b);
            adj.get_mut(&b).unwrap().push(a);
        }
        adj.into_iter().collect()
    }

    fn run_and_check(n: u64, edges: &[(u64, u64)]) -> Metrics {
        let expected = oracle(n, edges);
        let (result, metrics) = connected_components(&ExecCtx::new(4), adjacency(n, edges), CAP);
        assert_eq!(result.len() as u64, n);
        for (v, comp) in result {
            assert_eq!(comp, expected[&v], "vertex {v}");
        }
        assert!(metrics.converged);
        metrics
    }

    #[test]
    fn path_graph() {
        let edges: Vec<(u64, u64)> = (0..9).map(|i| (i, i + 1)).collect();
        run_and_check(10, &edges);
    }

    #[test]
    fn two_components_and_isolated_vertices() {
        let edges = vec![(0, 1), (1, 2), (5, 6), (6, 7), (7, 5)];
        run_and_check(10, &edges);
    }

    #[test]
    fn star_and_cycle() {
        let mut edges: Vec<(u64, u64)> = (1..20).map(|i| (0, i)).collect();
        edges.extend((20..30).map(|i| (i, if i == 29 { 20 } else { i + 1 })));
        run_and_check(30, &edges);
    }

    #[test]
    fn no_edges_terminates_in_one_round() {
        let metrics = run_and_check(16, &[]);
        assert_eq!(metrics.supersteps, 4, "one round of 4 supersteps suffices");
    }

    #[test]
    fn long_path_uses_logarithmic_rounds() {
        let n = 2048u64;
        let edges: Vec<(u64, u64)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let metrics = run_and_check(n, &edges);
        // At most ~log2(n) + slack rounds of 4 supersteps each. This is the
        // qualitative contrast with list ranking: more supersteps per round
        // and messages along every edge every round.
        let rounds = metrics.supersteps / 4;
        assert!(rounds <= 16, "expected O(log n) rounds, got {rounds}");
        assert!(metrics.total_messages > 0);
    }

    #[test]
    fn empty_graph() {
        let (out, metrics) =
            connected_components(&ExecCtx::new(4), Vec::<(u64, Vec<u64>)>::new(), CAP);
        assert!(out.is_empty());
        assert!(metrics.converged);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_matches_union_find(
            n in 1u64..60,
            edge_seeds in proptest::collection::vec((0u64..60, 0u64..60), 0..120)
        ) {
            let edges: Vec<(u64, u64)> = edge_seeds
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .collect();
            let expected = oracle(n, &edges);
            let (result, metrics) = connected_components(&ExecCtx::new(4), adjacency(n, &edges), CAP);
            prop_assert!(metrics.converged);
            for (v, comp) in result {
                prop_assert_eq!(comp, expected[&v]);
            }
        }
    }
}
