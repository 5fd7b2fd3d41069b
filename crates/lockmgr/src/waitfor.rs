//! Wait-for graph cycle detection, and the one rule that breaks a cycle.

use acc_common::events::{Event, EventSink, TxnList};
use acc_common::TxnId;
use std::collections::{HashMap, HashSet};

/// How a wait-for cycle through a waiting transaction was broken (§3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleResolution {
    /// The waiter's own step is the victim: its queued request is withdrawn,
    /// and it undoes its step and retries.
    Retry,
    /// The waiter is compensating: these other cycle members are doomed and
    /// the waiter keeps waiting.
    Doom(Vec<TxnId>),
}

/// Break the wait-for `cycle` through `waiter` by the paper's §3.4 rule, and
/// report it to `sink`. Every deadlock decision of both lock managers goes
/// through here: enqueue-time detection and timeout re-detection alike.
///
/// A non-compensating waiter is its own victim. A compensating waiter is
/// never the victim: the cycle's other members that are not themselves
/// compensating (`is_compensating`) are doomed instead. If every other
/// member is compensating too, nobody is abortable and the waiter retries —
/// its conventional locks are step-scoped, so that is safe, and it is not a
/// victimization, so it gets no `DeadlockVictim` event.
pub(crate) fn break_cycle(
    sink: &EventSink,
    cycle: &[TxnId],
    waiter: TxnId,
    compensating: bool,
    is_compensating: impl Fn(TxnId) -> bool,
) -> CycleResolution {
    let victims: Vec<TxnId> = if compensating {
        cycle
            .iter()
            .copied()
            .filter(|&t| t != waiter && !is_compensating(t))
            .collect()
    } else {
        Vec::new()
    };
    if sink.is_enabled() {
        let shown = if victims.is_empty() {
            std::slice::from_ref(&waiter)
        } else {
            &victims
        };
        sink.emit(Event::Deadlock {
            cycle: TxnList::from_slice(cycle),
            victims: TxnList::from_slice(shown),
            compensating_requester: compensating,
        });
        let victimized = if compensating { &victims[..] } else { shown };
        for &v in victimized {
            sink.emit(Event::DeadlockVictim {
                txn: v,
                compensating: false,
            });
        }
    }
    if victims.is_empty() {
        CycleResolution::Retry
    } else {
        CycleResolution::Doom(victims)
    }
}

/// A wait-for graph: `waits[t]` is the set of transactions `t` is waiting on.
#[derive(Debug, Default)]
pub struct WaitForGraph {
    edges: HashMap<TxnId, HashSet<TxnId>>,
}

impl WaitForGraph {
    /// Build from an edge iterator.
    pub fn from_edges(it: impl IntoIterator<Item = (TxnId, TxnId)>) -> Self {
        let mut g = WaitForGraph::default();
        for (a, b) in it {
            if a != b {
                g.edges.entry(a).or_default().insert(b);
            }
        }
        g
    }

    /// Find a cycle containing `start`, if one exists. Returns the cycle's
    /// members (starting at `start`, following wait-for edges).
    pub fn cycle_through(&self, start: TxnId) -> Option<Vec<TxnId>> {
        // Iterative DFS remembering the path; the graph is small (bounded by
        // the number of currently waiting transactions).
        let mut path = vec![start];
        let mut iters = vec![self.successors(start)];
        let mut on_path: HashSet<TxnId> = [start].into();
        let mut visited: HashSet<TxnId> = [start].into();

        while let Some(iter) = iters.last_mut() {
            match iter.next() {
                Some(next) if next == start => {
                    return Some(path);
                }
                Some(next) if !on_path.contains(&next) && !visited.contains(&next) => {
                    visited.insert(next);
                    on_path.insert(next);
                    path.push(next);
                    iters.push(self.successors(next));
                }
                Some(_) => {}
                None => {
                    iters.pop();
                    if let Some(done) = path.pop() {
                        on_path.remove(&done);
                    }
                }
            }
        }
        None
    }

    fn successors(&self, t: TxnId) -> std::vec::IntoIter<TxnId> {
        let mut v: Vec<TxnId> = self
            .edges
            .get(&t)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable(); // determinism
        v.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn no_cycle() {
        let g = WaitForGraph::from_edges([(t(1), t(2)), (t(2), t(3))]);
        assert_eq!(g.cycle_through(t(1)), None);
        assert_eq!(g.cycle_through(t(3)), None);
    }

    #[test]
    fn two_cycle() {
        let g = WaitForGraph::from_edges([(t(1), t(2)), (t(2), t(1))]);
        let c = g.cycle_through(t(1)).unwrap();
        assert_eq!(c, vec![t(1), t(2)]);
    }

    #[test]
    fn three_cycle_from_any_member() {
        let g = WaitForGraph::from_edges([(t(1), t(2)), (t(2), t(3)), (t(3), t(1))]);
        for start in [1, 2, 3] {
            let c = g.cycle_through(t(start)).unwrap();
            assert_eq!(c.len(), 3);
            assert_eq!(c[0], t(start));
        }
    }

    #[test]
    fn cycle_not_through_start_is_ignored() {
        // 1 -> 2, and 2 <-> 3 form a cycle that does not include 1.
        let g = WaitForGraph::from_edges([(t(1), t(2)), (t(2), t(3)), (t(3), t(2))]);
        assert_eq!(g.cycle_through(t(1)), None);
        assert!(g.cycle_through(t(2)).is_some());
    }

    #[test]
    fn self_edges_dropped() {
        let g = WaitForGraph::from_edges([(t(1), t(1))]);
        assert_eq!(g.cycle_through(t(1)), None);
    }

    #[test]
    fn branching_paths() {
        // 1 -> {2, 3}; only the 3-path loops back.
        let g = WaitForGraph::from_edges([(t(1), t(2)), (t(1), t(3)), (t(3), t(4)), (t(4), t(1))]);
        let c = g.cycle_through(t(1)).unwrap();
        assert_eq!(c, vec![t(1), t(3), t(4)]);
    }
}
