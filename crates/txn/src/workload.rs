//! Deterministic workload generators.
//!
//! Three families, mirroring the systems the paper cites:
//!
//! * **uniform** multi-shard read-write transactions (Sinfonia-style
//!   mini-transactions);
//! * **skewed** access with an approximate Zipf distribution (hot keys →
//!   conflicts → no-votes), implemented without external dependencies;
//! * **transfer** two-shard debit/credit pairs (the bank example).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::txn::{Key, Transaction, TxnId};

/// Workload shape.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Each transaction writes `span` keys on distinct shards, keys drawn
    /// uniformly from `keys_per_shard`.
    Uniform {
        /// Distinct shards each transaction touches.
        span: usize,
    },
    /// Same, but keys are drawn Zipf-like with exponent `theta` — higher
    /// theta, hotter head, more write-write conflicts.
    Skewed {
        /// Distinct shards each transaction touches.
        span: usize,
        /// Zipf exponent (`0` = uniform; higher = hotter head).
        theta: f64,
    },
    /// Debit one key on one shard, credit one key on another.
    Transfer {
        /// Amount moved from the debited to the credited key.
        amount: i64,
    },
}

/// Generator configuration.
///
/// ```
/// use ac_txn::workload::{Workload, WorkloadConfig};
///
/// let cfg = WorkloadConfig {
///     shards: 4,
///     keys_per_shard: 100,
///     workload: Workload::Uniform { span: 2 },
///     seed: 7,
/// };
/// let txns = cfg.generator().take_txns(5);
/// assert_eq!(txns.len(), 5);
/// // Uniform transactions span `span` distinct shards.
/// assert!(txns.iter().all(|t| t.shards().len() == 2));
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of shards keys are spread over.
    pub shards: usize,
    /// Keys per shard (drawn from `0..keys_per_shard`).
    pub keys_per_shard: u64,
    /// Workload shape.
    pub workload: Workload,
    /// Seed of the deterministic transaction stream.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The deterministic transaction stream of this configuration.
    pub fn generator(&self) -> WorkloadGen {
        WorkloadGen {
            cfg: self.clone(),
            rng: StdRng::seed_from_u64(self.seed),
            next_id: 1,
            picked: Vec::with_capacity(self.shards),
        }
    }
}

/// Deterministic stream of transactions.
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    rng: StdRng,
    next_id: TxnId,
    /// Scratch of [`WorkloadGen::pick_shards`], reused across
    /// transactions.
    picked: Vec<usize>,
}

impl WorkloadGen {
    fn zipf_key(&mut self, theta: f64) -> u64 {
        // Approximate Zipf by inverse-power transform of a uniform draw:
        // rank = N * u^(1/(1-theta)) clamps the head; adequate for
        // conflict-rate control and dependency-free.
        let n = self.cfg.keys_per_shard as f64;
        let u: f64 = self.rng.gen_range(0.0f64..1.0).max(1e-12);
        let exponent = 1.0 / (1.0 - theta.min(0.99));
        ((n * u.powf(exponent)) as u64).min(self.cfg.keys_per_shard - 1)
    }

    /// Draw `span` distinct shards (capped at the shard count) into
    /// `self.picked[..span]` — a partial Fisher–Yates shuffle of the
    /// identity, restarted from the identity for every transaction so the
    /// draws depend on the seed alone. Returns the capped span.
    fn pick_shards(&mut self, span: usize) -> usize {
        let span = span.min(self.cfg.shards);
        self.picked.clear();
        self.picked.extend(0..self.cfg.shards);
        for i in 0..span {
            let j = self.rng.gen_range(i..self.picked.len());
            self.picked.swap(i, j);
        }
        span
    }

    /// Next transaction in the stream.
    pub fn next_txn(&mut self) -> Transaction {
        let id = self.next_id;
        self.next_id += 1;
        match self.cfg.workload.clone() {
            Workload::Uniform { span } => {
                let mut t = Transaction::new(id);
                for i in 0..self.pick_shards(span) {
                    let k = self.rng.gen_range(0..self.cfg.keys_per_shard);
                    let key = Key::new(self.picked[i], k);
                    t = t.with_write(key, self.rng.gen_range(-100..100));
                }
                t
            }
            Workload::Skewed { span, theta } => {
                let mut t = Transaction::new(id);
                for i in 0..self.pick_shards(span) {
                    let k = self.zipf_key(theta);
                    let key = Key::new(self.picked[i], k);
                    t = t.with_write(key, self.rng.gen_range(-100..100));
                }
                t
            }
            Workload::Transfer { amount } => {
                let span = self.pick_shards(2);
                let (a, b) = (self.picked[0], self.picked[1 % span]);
                let ka = self.rng.gen_range(0..self.cfg.keys_per_shard);
                let kb = self.rng.gen_range(0..self.cfg.keys_per_shard);
                Transaction::new(id)
                    .with_add(Key::new(a, ka), -amount)
                    .with_add(Key::new(b, kb), amount)
            }
        }
    }

    /// Generate `count` transactions.
    pub fn take_txns(&mut self, count: usize) -> Vec<Transaction> {
        (0..count).map(|_| self.next_txn()).collect()
    }
}

/// Seeded Poisson arrival schedule: exponential inter-arrival gaps at a
/// mean rate of `rate` arrivals/second (the open-loop load generator's
/// clock). Deterministic per seed, like every generator in this module.
pub struct ArrivalSchedule {
    rng: StdRng,
    rate: f64,
}

impl ArrivalSchedule {
    /// A schedule at `rate` arrivals/second (must be positive).
    pub fn new(rate: f64, seed: u64) -> ArrivalSchedule {
        assert!(rate > 0.0, "arrival rate must be positive");
        ArrivalSchedule {
            rng: StdRng::seed_from_u64(seed),
            rate,
        }
    }

    /// The gap to the next arrival: `-ln(U)/rate` with `U` uniform on
    /// (0, 1] — the exponential inter-arrival time of a Poisson process.
    pub fn next_gap(&mut self) -> std::time::Duration {
        let u: f64 = self.rng.gen_range(0.0f64..1.0).max(1e-12);
        std::time::Duration::from_secs_f64((-u.ln()) / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workload: Workload) -> WorkloadConfig {
        WorkloadConfig {
            shards: 4,
            keys_per_shard: 100,
            workload,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = cfg(Workload::Uniform { span: 2 }).generator().take_txns(20);
        let b = cfg(Workload::Uniform { span: 2 }).generator().take_txns(20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.writes, y.writes);
        }
    }

    #[test]
    fn uniform_spans_distinct_shards() {
        let txns = cfg(Workload::Uniform { span: 3 }).generator().take_txns(50);
        for t in &txns {
            assert_eq!(t.shards().len(), 3, "{t:?}");
        }
    }

    #[test]
    fn skew_concentrates_keys() {
        let mut hot = cfg(Workload::Skewed {
            span: 1,
            theta: 0.95,
        })
        .generator();
        let mut cold = cfg(Workload::Uniform { span: 1 }).generator();
        let head = |txns: &[Transaction]| {
            txns.iter()
                .flat_map(|t| t.writes.keys())
                .filter(|k| k.k < 10)
                .count()
        };
        let hot_head = head(&hot.take_txns(300));
        let cold_head = head(&cold.take_txns(300));
        assert!(
            hot_head > 2 * cold_head,
            "skewed head {hot_head} should dwarf uniform head {cold_head}"
        );
    }

    #[test]
    fn transfers_conserve_money_by_construction() {
        let txns = cfg(Workload::Transfer { amount: 10 })
            .generator()
            .take_txns(40);
        for t in &txns {
            let sum: i64 = t
                .writes
                .values()
                .map(|op| match op {
                    crate::txn::WriteOp::Add(d) => *d,
                    crate::txn::WriteOp::Put(_) => panic!("transfers are additive"),
                })
                .sum();
            assert_eq!(sum, 0, "{t:?}");
            assert_eq!(t.writes.len(), 2);
        }
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let txns = cfg(Workload::Uniform { span: 1 }).generator().take_txns(10);
        for (i, t) in txns.iter().enumerate() {
            assert_eq!(t.id, i as u64 + 1);
        }
    }
}
