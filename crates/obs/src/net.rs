//! Transport-layer meters: per-peer socket counters for the TCP
//! transport and node.
//!
//! The stage meters in [`crate::stage`] time *how long* each seam takes;
//! these meters count *what moved* and *what broke* at the socket layer:
//! bytes and frames in each direction, reconnects after a severed link,
//! dial failures, decode errors and resynchronizations on inbound
//! streams, and the outbound batch high-water mark. They share the stage
//! meters' discipline — relaxed monotone atomics, allocation-free on the
//! hot path, readable live by the Prometheus endpoint and snapshotted
//! into the cross-process [`crate::export`].

use std::sync::atomic::{AtomicU64, Ordering};

use ac_sim::wire_struct;

use crate::stage::counter_family;

/// Per-peer egress slots (one row per dialable peer).
#[derive(Debug, Default)]
struct PeerEgress {
    bytes_out: AtomicU64,
    frames_out: AtomicU64,
    reconnects: AtomicU64,
    dial_failures: AtomicU64,
    outbox_hiwater: AtomicU64,
}

/// Shared transport meters for one process: per-peer egress counters
/// (indexed by destination node) plus process-wide ingress counters (an
/// inbound connection's peer is whoever dialed, so ingress is not
/// per-peer). All updates are relaxed atomic adds.
#[derive(Debug, Default)]
pub struct NetMeters {
    egress: Vec<PeerEgress>,
    bytes_in: AtomicU64,
    frames_in: AtomicU64,
    decode_errors: AtomicU64,
    resyncs: AtomicU64,
}

impl NetMeters {
    /// Fresh zeroed meters for a transport with `peers` destinations.
    pub fn new(peers: usize) -> NetMeters {
        NetMeters {
            egress: (0..peers).map(|_| PeerEgress::default()).collect(),
            ..NetMeters::default()
        }
    }

    /// Number of egress peer rows.
    pub fn peers(&self) -> usize {
        self.egress.len()
    }

    /// Count a successful flush of `frames` frames totalling `bytes`
    /// bytes to peer `to`. Out-of-range peers are ignored (a transport
    /// created before the meters sized its peer table).
    #[inline]
    pub fn sent(&self, to: usize, frames: u64, bytes: u64) {
        if let Some(p) = self.egress.get(to) {
            p.frames_out.fetch_add(frames, Ordering::Relaxed);
            p.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Count one successful re-dial of a previously reached peer.
    #[inline]
    pub fn reconnected(&self, to: usize) {
        if let Some(p) = self.egress.get(to) {
            p.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one exhausted dial attempt (the peer entered backoff).
    #[inline]
    pub fn dial_failed(&self, to: usize) {
        if let Some(p) = self.egress.get(to) {
            p.dial_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Raise peer `to`'s outbox high-water mark to `depth` if larger.
    #[inline]
    pub fn outbox_depth(&self, to: usize, depth: u64) {
        if let Some(p) = self.egress.get(to) {
            p.outbox_hiwater.fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// Count `bytes` received off a socket.
    #[inline]
    pub fn received(&self, bytes: u64) {
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one complete inbound frame.
    #[inline]
    pub fn frame_in(&self) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one malformed inbound frame body (skipped, stream kept).
    #[inline]
    pub fn decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one lost frame boundary (stream dropped for resync).
    #[inline]
    pub fn resync(&self) {
        self.resyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            peers: self
                .egress
                .iter()
                .map(|p| PeerNet {
                    bytes_out: p.bytes_out.load(Ordering::Relaxed),
                    frames_out: p.frames_out.load(Ordering::Relaxed),
                    reconnects: p.reconnects.load(Ordering::Relaxed),
                    dial_failures: p.dial_failures.load(Ordering::Relaxed),
                    outbox_hiwater: p.outbox_hiwater.load(Ordering::Relaxed),
                })
                .collect(),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
        }
    }

    /// Prometheus text exposition: per-peer `ac_net_*` counter families
    /// plus the process-wide ingress counters. `labels` is spliced into
    /// every sample (pass `""` for none), matching
    /// [`crate::ObsMeters::render_prometheus`].
    pub fn render_prometheus(&self, labels: &str) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        // (metric name, help text, the per-peer counter it reads)
        type Family = (&'static str, &'static str, fn(&PeerNet) -> u64);
        let families: [Family; 5] = [
            ("ac_net_bytes_out_total", "Bytes written per peer.", |p| {
                p.bytes_out
            }),
            ("ac_net_frames_out_total", "Frames written per peer.", |p| {
                p.frames_out
            }),
            (
                "ac_net_reconnects_total",
                "Successful re-dials of a previously reached peer.",
                |p| p.reconnects,
            ),
            (
                "ac_net_dial_failures_total",
                "Exhausted dial attempts (peer entered backoff).",
                |p| p.dial_failures,
            ),
            (
                "ac_net_outbox_hiwater",
                "Deepest outbound batch handed to the transport, frames.",
                |p| p.outbox_hiwater,
            ),
        ];
        for (name, help, get) in families {
            let peers = snap.peers.iter().enumerate();
            let samples = peers.map(|(peer, p)| (format!("peer=\"{peer}\""), get(p)));
            counter_family(&mut out, name, help, labels, samples);
        }
        let ingress = [
            ("ac_net_bytes_in_total", "Bytes received.", snap.bytes_in),
            (
                "ac_net_frames_in_total",
                "Complete frames received.",
                snap.frames_in,
            ),
            (
                "ac_net_decode_errors_total",
                "Malformed frame bodies skipped.",
                snap.decode_errors,
            ),
            (
                "ac_net_resyncs_total",
                "Connections dropped after a lost frame boundary.",
                snap.resyncs,
            ),
        ];
        for (name, help, v) in ingress {
            counter_family(&mut out, name, help, labels, [(String::new(), v)]);
        }
        out
    }
}

/// One peer's egress counters, snapshotted.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerNet {
    /// Bytes handed to the OS for this peer.
    pub bytes_out: u64,
    /// Frames handed to the OS for this peer.
    pub frames_out: u64,
    /// Successful re-dials of this peer after it was reached once.
    pub reconnects: u64,
    /// Dial attempts that exhausted their retries.
    pub dial_failures: u64,
    /// Deepest batch handed to the transport for this peer, in frames.
    pub outbox_hiwater: u64,
}

wire_struct!(PeerNet {
    bytes_out,
    frames_out,
    reconnects,
    dial_failures,
    outbox_hiwater
});

/// A point-in-time copy of one process's [`NetMeters`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Per-peer egress counters, indexed by destination node.
    pub peers: Vec<PeerNet>,
    /// Bytes received across all inbound connections.
    pub bytes_in: u64,
    /// Complete frames received.
    pub frames_in: u64,
    /// Malformed frame bodies skipped.
    pub decode_errors: u64,
    /// Connections dropped after a lost frame boundary.
    pub resyncs: u64,
}

impl NetSnapshot {
    /// Total bytes written across every peer.
    pub fn bytes_out(&self) -> u64 {
        self.peers.iter().map(|p| p.bytes_out).sum()
    }

    /// Total frames written across every peer.
    pub fn frames_out(&self) -> u64 {
        self.peers.iter().map(|p| p.frames_out).sum()
    }
}

wire_struct!(NetSnapshot {
    peers,
    bytes_in,
    frames_in,
    decode_errors,
    resyncs
});

#[cfg(test)]
mod tests {
    use super::*;
    use ac_sim::Wire;

    #[test]
    fn counters_accumulate_per_peer() {
        let m = NetMeters::new(3);
        m.sent(1, 2, 100);
        m.sent(1, 1, 50);
        m.reconnected(1);
        m.dial_failed(2);
        m.outbox_depth(0, 4);
        m.outbox_depth(0, 2); // lower: high-water unchanged
        m.received(64);
        m.frame_in();
        m.decode_error();
        m.resync();
        let s = m.snapshot();
        assert_eq!(s.peers[1].frames_out, 3);
        assert_eq!(s.peers[1].bytes_out, 150);
        assert_eq!(s.peers[1].reconnects, 1);
        assert_eq!(s.peers[2].dial_failures, 1);
        assert_eq!(s.peers[0].outbox_hiwater, 4);
        assert_eq!((s.bytes_in, s.frames_in), (64, 1));
        assert_eq!((s.decode_errors, s.resyncs), (1, 1));
        assert_eq!(s.bytes_out(), 150);
        assert_eq!(s.frames_out(), 3);
        // Out-of-range peers never panic.
        m.sent(99, 1, 1);
        m.reconnected(99);
    }

    #[test]
    fn prometheus_exposition_lists_every_family() {
        let m = NetMeters::new(2);
        m.sent(0, 1, 42);
        let text = m.render_prometheus("node=\"1\"");
        assert!(text.contains("ac_net_bytes_out_total{peer=\"0\",node=\"1\"} 42"));
        assert!(text.contains("ac_net_frames_out_total{peer=\"1\",node=\"1\"} 0"));
        assert!(text.contains("ac_net_bytes_in_total{node=\"1\"} 0"));
        assert!(text.contains("# TYPE ac_net_reconnects_total counter"));
        let bare = NetMeters::new(1).render_prometheus("");
        assert!(bare.contains("ac_net_resyncs_total 0"));
        assert!(bare.contains("ac_net_outbox_hiwater{peer=\"0\"} 0"));
    }

    /// The whole exposition, byte for byte, labelled and bare.
    #[test]
    fn prometheus_exposition_is_pinned() {
        let m = NetMeters::new(2);
        m.sent(0, 3, 420);
        m.reconnected(1);
        m.dial_failed(1);
        m.outbox_depth(0, 7);
        m.received(99);
        m.frame_in();
        m.decode_error();
        m.resync();
        let labelled = r##"# HELP ac_net_bytes_out_total Bytes written per peer.
# TYPE ac_net_bytes_out_total counter
ac_net_bytes_out_total{peer="0",node="1"} 420
ac_net_bytes_out_total{peer="1",node="1"} 0
# HELP ac_net_frames_out_total Frames written per peer.
# TYPE ac_net_frames_out_total counter
ac_net_frames_out_total{peer="0",node="1"} 3
ac_net_frames_out_total{peer="1",node="1"} 0
# HELP ac_net_reconnects_total Successful re-dials of a previously reached peer.
# TYPE ac_net_reconnects_total counter
ac_net_reconnects_total{peer="0",node="1"} 0
ac_net_reconnects_total{peer="1",node="1"} 1
# HELP ac_net_dial_failures_total Exhausted dial attempts (peer entered backoff).
# TYPE ac_net_dial_failures_total counter
ac_net_dial_failures_total{peer="0",node="1"} 0
ac_net_dial_failures_total{peer="1",node="1"} 1
# HELP ac_net_outbox_hiwater Deepest outbound batch handed to the transport, frames.
# TYPE ac_net_outbox_hiwater counter
ac_net_outbox_hiwater{peer="0",node="1"} 7
ac_net_outbox_hiwater{peer="1",node="1"} 0
# HELP ac_net_bytes_in_total Bytes received.
# TYPE ac_net_bytes_in_total counter
ac_net_bytes_in_total{node="1"} 99
# HELP ac_net_frames_in_total Complete frames received.
# TYPE ac_net_frames_in_total counter
ac_net_frames_in_total{node="1"} 1
# HELP ac_net_decode_errors_total Malformed frame bodies skipped.
# TYPE ac_net_decode_errors_total counter
ac_net_decode_errors_total{node="1"} 1
# HELP ac_net_resyncs_total Connections dropped after a lost frame boundary.
# TYPE ac_net_resyncs_total counter
ac_net_resyncs_total{node="1"} 1
"##;
        assert_eq!(m.render_prometheus("node=\"1\""), labelled);
        let bare = labelled
            .replace(",node=\"1\"", "")
            .replace("{node=\"1\"}", "");
        assert_eq!(m.render_prometheus(""), bare);
    }

    #[test]
    fn snapshot_round_trips_on_the_wire() {
        let m = NetMeters::new(2);
        m.sent(0, 3, 333);
        m.dial_failed(1);
        m.received(17);
        let s = m.snapshot();
        assert_eq!(NetSnapshot::from_wire(&s.to_wire()).unwrap(), s);
    }
}
