//! The thread that runs nodes: a [`Node`] turn takes what is ready and
//! never blocks, and the park between turns belongs to the host.
//!
//! A host owns a set of nodes — and, where one host runs every node of an
//! in-process tcp cluster, the clients too — and, each round:
//!
//! 1. parks once, until the earliest member or client deadline (timer,
//!    delayed-envelope release, crash or restart instant; a client's
//!    retry, abandonment, pacing or arrival instant) or an arrival.
//!    Socket-linked members share **one** readiness wait over the union of
//!    their listeners and connections ([`Readiness`]). A channel-linked
//!    node's inbox cannot join that wait, so such a node is its host's one
//!    member and parks on its channel;
//! 2. turns every member the park found something for (readiness in its
//!    slots, a batch, or a deadline come), handing it its slots of the
//!    wait, so its read pass waits for nothing;
//! 3. turns every client that is due, after the members, so it folds the
//!    replies this round's turns queued for it: a reply is a push onto the
//!    client's channel and wakes no thread. A client writes its `Begin`s
//!    and `End`s once per round, after every member flushed.
//!
//! A member with decoded envelopes beyond its batch, or a client with
//! replies queued, is due at once, so the host never parks on them. A
//! round that moved nothing in any member or client is a spurious wakeup,
//! counted per host. Crash windows, recovery and `Shutdown` stay per
//! member: a dark member's sockets stay in the wait and its drain
//! discards. An exited client's return goes back at once, through
//! `exited`. The host returns once every member has shut down, then
//! finishes each one.
//!
//! Co-hosted nodes still talk through their pair's loopback connection, and
//! co-hosted clients write to them through theirs, so a hop to a co-hosted
//! peer costs a write and a read but no thread wake-up: the host is
//! already running.

use std::time::Instant;

use ac_commit::CommitProtocol;
use ac_sim::Wire;

use crate::client::{Client, ClientReturn};
use crate::node::{Node, NodeReturn};
use crate::transport::Readiness;

/// What a host reports when its last member has shut down.
pub(crate) struct HostReturn {
    /// Each member's report, in the order the members were given.
    pub(crate) nodes: Vec<NodeReturn>,
    /// Rounds that moved nothing in any member or client.
    pub(crate) spurious_wakeups: usize,
}

/// Run `members`, and `clients` after them, on the calling thread until
/// every member has shut down; each client's return goes to `exited` as
/// it exits. More than one member, or any client, requires every member to
/// be socket-linked.
pub(crate) fn host<P>(
    mut members: Vec<Node<P>>,
    mut clients: Vec<Client<P::Msg>>,
    mut exited: impl FnMut(ClientReturn),
) -> HostReturn
where
    P: CommitProtocol,
    P::Msg: Wire + Send + 'static,
{
    let mut wait = Readiness::default();
    let mut spurious_wakeups = 0;
    loop {
        let until = (members.iter().filter_map(Node::deadline))
            .chain(clients.iter().filter_map(Client::deadline))
            .min();
        match &mut members[..] {
            [node] if node.sockets().is_none() => {
                debug_assert!(clients.is_empty(), "a client beside a channel member");
                node.park(until);
            }
            all => {
                debug_assert!(all.iter().all(|m| m.sockets().is_some() || !m.serving()));
                wait.wait(all.iter().map(Node::sockets), until);
            }
        }
        // A lone member is due whenever its host wakes; among several,
        // one reading decides who is.
        let now = (members.len() > 1).then(|| members[0].now());
        let mut moved = false;
        for (i, node) in members.iter_mut().enumerate() {
            let ready = wait.of(i);
            if now.is_none_or(|now| node.due(ready, now)) {
                moved |= node.turn(ready);
            }
        }
        // Each client reads the clock for itself: its reading stamps the
        // replies it folds and the transactions it submits.
        let mut i = 0;
        while i < clients.len() {
            let now = Instant::now();
            let client = &mut clients[i];
            if client.deadline().is_some_and(|at| at <= now) {
                moved |= client.turn(now);
            }
            if client.exited() {
                exited(clients.swap_remove(i).finish());
            } else {
                i += 1;
            }
        }
        if !members.iter().any(Node::serving) {
            break;
        }
        spurious_wakeups += usize::from(!moved);
    }
    debug_assert!(
        clients.is_empty(),
        "members shut down before a client exited"
    );
    HostReturn {
        nodes: members.into_iter().map(Node::finish).collect(),
        spurious_wakeups,
    }
}

/// Deal `nodes`, in node order, onto `hosts` hosts: node `p` goes on host
/// `p mod hosts`, and a host's members stay ascending. Never more hosts
/// than nodes.
pub(crate) fn deal<T>(nodes: Vec<T>, hosts: usize) -> Vec<Vec<T>> {
    let h = hosts.clamp(1, nodes.len().max(1));
    let mut dealt: Vec<Vec<T>> = (0..h).map(|_| Vec::new()).collect();
    for (p, node) in nodes.into_iter().enumerate() {
        dealt[p % h].push(node);
    }
    dealt
}

/// [`deal`]'s inverse: every host's members back in node order.
pub(crate) fn gather<T>(dealt: Vec<Vec<T>>) -> Vec<T> {
    let h = dealt.len();
    let n = dealt.iter().map(Vec::len).sum();
    let mut hosts: Vec<_> = dealt.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|p| hosts[p % h].next().expect("dealt round-robin"))
        .collect()
}

/// How many hosts serve `n` socket-linked nodes: one per core this process
/// may run on (which honours a CPU pin), and no more than there are nodes.
pub(crate) fn hosts_for(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    cores.min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_p_goes_on_host_p_mod_h() {
        let dealt = |n: usize, h| deal((0..n).collect::<Vec<_>>(), h);
        assert_eq!(dealt(4, 1), vec![vec![0, 1, 2, 3]]);
        assert_eq!(dealt(4, 2), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(dealt(5, 3), vec![vec![0, 3], vec![1, 4], vec![2]]);
        assert_eq!(dealt(4, 4), vec![vec![0], vec![1], vec![2], vec![3]]);
        // Never an empty host: at most one per node.
        assert_eq!(dealt(2, 8), vec![vec![0], vec![1]]);
        for (n, h) in [(4, 1), (4, 2), (5, 3), (4, 4), (7, 2)] {
            assert_eq!(gather(dealt(n, h)), (0..n).collect::<Vec<_>>());
        }
    }
}
