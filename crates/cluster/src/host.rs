//! The one loop that serves: a [`Node`] or [`Client`] turn takes what is
//! ready and never blocks, and the park between turns belongs to the
//! host. Every serving thread of the crate runs it — in process, in
//! `ac-node` and in `ac-client`.
//!
//! A host owns a set of nodes (its members) and clients, the [`Bell`] their
//! mailboxes ring, if any, and, each round:
//!
//! 1. arms its bell, reads the earliest member or client deadline (timer,
//!    delayed-envelope release, crash or restart instant; a client's
//!    retry, abandonment, pacing or arrival instant; at once where a
//!    mailbox holds something), and parks once, until that deadline, a
//!    ring or an arrival: **one** readiness wait over the bell and the
//!    union of its members' listeners and connections and its dialing
//!    clients' connections ([`Readiness`]). A post to the mailbox of an
//!    in-process participant rings the bell only while it is armed, and
//!    every post the deadlines missed finds it armed, so no post is left
//!    waiting and a post to a running host costs no wake-up;
//! 2. turns every member the park found something for (a post, readiness
//!    in its slots, or a deadline come), handing it its slots of the wait,
//!    so its read pass waits for nothing;
//! 3. turns every client that is due the same way, after the members, so
//!    it folds the replies this round's turns posted to it. A client
//!    writes its `Begin`s and `End`s once per round, after every member
//!    flushed.
//!
//! A member with a post or decoded envelopes beyond its batch, or a
//! client with reports queued, is due at once, so the host never parks on
//! them. A round that moved nothing in any member or client is a spurious
//! wakeup, counted per host. Crash windows, recovery and `Shutdown` stay
//! per member: a dark member's sockets stay in the wait and its drain
//! discards. An exited client leaves the set at the end of its round, its
//! return handed to `exited` at once. The host returns once every member
//! has shut down and every client has exited, then finishes each member.
//!
//! In process, co-hosted nodes and clients post to each other's mailboxes
//! without a syscall. Socket-linked nodes still talk through their pair's
//! loopback connection, and co-hosted clients write to them through
//! theirs, so a hop to a co-hosted peer costs a write and a read but no
//! thread wake-up: the host is already running.

use std::time::Instant;

use ac_commit::CommitProtocol;
use ac_sim::Wire;

use crate::client::{Client, ClientReturn};
use crate::node::{Node, NodeReturn};
use crate::transport::{Bell, Readiness};

/// What a host reports when its last member has shut down and its last
/// client has exited.
pub(crate) struct HostReturn {
    /// Each member's report, in the order the members were given.
    pub(crate) nodes: Vec<NodeReturn>,
    /// Rounds that moved nothing in any member or client.
    pub(crate) spurious_wakeups: usize,
}

/// Run `members`, and `clients` after them, on the calling thread until
/// every member has shut down and every client has exited; each client's
/// return goes to `exited` as it exits. `bell` is the one every mailbox
/// of a member or client rings (none where nothing posts to them: they
/// are all socket-linked, as in `ac-node` and `ac-client`).
pub(crate) fn host<P>(
    bell: Option<&Bell>,
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
        // Armed before the deadlines are read: a post they miss rings.
        if let Some(bell) = bell {
            bell.arm();
        }
        let until = (members.iter().filter_map(Node::deadline))
            .chain(clients.iter().filter_map(Client::deadline))
            .min();
        let socks = (members.iter().map(Node::sockets)).chain(clients.iter().map(Client::sockets));
        wait.wait(bell, socks, until);
        // One reading decides which members are due.
        let now = members.first().map(Node::now);
        let mut moved = false;
        for (i, node) in members.iter_mut().enumerate() {
            let ready = wait.of(i);
            if now.is_some_and(|now| node.due(ready, now)) {
                moved |= node.turn(ready);
            }
        }
        // Each client reads the clock for itself: its reading stamps the
        // replies it folds and the transactions it submits. Its slots
        // follow the members'.
        for (j, client) in clients.iter_mut().enumerate() {
            let (ready, now) = (wait.of(members.len() + j), Instant::now());
            if client.due(ready, now) {
                moved |= client.turn(now, ready);
            }
        }
        // Leaving only now keeps every client on its own slots above.
        while let Some(j) = clients.iter().position(Client::exited) {
            exited(clients.swap_remove(j).finish());
        }
        if clients.is_empty() && !members.iter().any(Node::serving) {
            break;
        }
        spurious_wakeups += usize::from(!moved);
    }
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

/// How many hosts serve `n` in-process nodes, socket-linked or not, and
/// the clients beside them: one per core this process may run on (which
/// honours a CPU pin), and no more than there are nodes.
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
