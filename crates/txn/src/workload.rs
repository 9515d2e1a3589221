//! Workload generators: the multi-site applications the paper's
//! introduction motivates.

use nbc_simnet::SimRng;

/// One data operation of a distributed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read `key` at `site` (shared lock).
    Read {
        /// Site holding the key.
        site: usize,
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Write `key = value` at `site` (exclusive lock).
    Write {
        /// Site holding the key.
        site: usize,
        /// Key bytes.
        key: Vec<u8>,
        /// New value.
        value: Vec<u8>,
    },
    /// Add `delta` to the little-endian i64 at `key` on `site` (exclusive
    /// lock; missing key reads as 0). The read-modify-write primitive
    /// overlapping rounds need: the value a transfer writes depends on
    /// what committed before it, so the delta is resolved against the
    /// committed (plus own-staged) state *at admission*, after the lock is
    /// granted — two-phase locking makes that serializable.
    AddI64 {
        /// Site holding the key.
        site: usize,
        /// Key bytes.
        key: Vec<u8>,
        /// Signed delta applied at admission time.
        delta: i64,
    },
}

impl Op {
    /// The site this operation touches.
    pub fn site(&self) -> usize {
        match self {
            Self::Read { site, .. } | Self::Write { site, .. } | Self::AddI64 { site, .. } => *site,
        }
    }

    /// The key this operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            Self::Read { key, .. } | Self::Write { key, .. } | Self::AddI64 { key, .. } => key,
        }
    }
}

/// A bank sharded across sites: account `acct<k>` lives at site
/// `k % n_sites`. Transfers debit one account and credit another —
/// exactly the two-site atomicity story. The conservation invariant
/// (total balance constant across committed state) holds iff the commit
/// protocol preserves atomicity.
#[derive(Debug, Clone)]
pub struct BankWorkload {
    /// Number of sites.
    pub n_sites: usize,
    /// Number of accounts.
    pub n_accounts: usize,
    /// Initial balance per account.
    pub initial_balance: i64,
    rng: SimRng,
}

impl BankWorkload {
    /// A workload with `n_accounts` accounts spread over `n_sites` sites.
    pub fn new(n_sites: usize, n_accounts: usize, initial_balance: i64, seed: u64) -> Self {
        assert!(n_sites >= 2 && n_accounts >= 2);
        Self { n_sites, n_accounts, initial_balance, rng: SimRng::seed_from_u64(seed) }
    }

    /// The site an account lives at.
    pub fn site_of(&self, acct: usize) -> usize {
        acct % self.n_sites
    }

    /// The key of an account.
    pub fn key_of(acct: usize) -> Vec<u8> {
        format!("acct{acct:06}").into_bytes()
    }

    /// Encode a balance.
    pub fn encode(balance: i64) -> Vec<u8> {
        balance.to_le_bytes().to_vec()
    }

    /// Decode a balance (missing value = initial balance not yet
    /// materialized is *not* supported here; the setup transaction seeds
    /// all keys).
    pub fn decode(bytes: &[u8]) -> i64 {
        i64::from_le_bytes(bytes.try_into().expect("8-byte balance"))
    }

    /// Seed operations creating every account (one setup transaction
    /// touching every site).
    pub fn setup_ops(&self) -> Vec<Op> {
        (0..self.n_accounts)
            .map(|a| Op::Write {
                site: self.site_of(a),
                key: Self::key_of(a),
                value: Self::encode(self.initial_balance),
            })
            .collect()
    }

    /// Generate a random transfer: `(from, to, amount)` with distinct
    /// accounts on (usually) distinct sites.
    pub fn random_transfer(&mut self) -> (usize, usize, i64) {
        let from = self.rng.gen_range(0..self.n_accounts);
        let mut to = self.rng.gen_range(0..self.n_accounts);
        while to == from {
            to = self.rng.gen_range(0..self.n_accounts);
        }
        let amount = self.rng.gen_range(1i64..=100);
        (from, to, amount)
    }

    /// Move `amount` from account `from` to account `to`: two deltas, on
    /// the sites the accounts live at.
    pub fn transfer_ops(&self, from: usize, to: usize, amount: i64) -> Vec<Op> {
        let leg = |acct: usize, delta: i64| Op::AddI64 {
            site: self.site_of(acct),
            key: Self::key_of(acct),
            delta,
        };
        vec![leg(from, -amount), leg(to, amount)]
    }

    /// The expected total balance.
    pub fn expected_total(&self) -> i64 {
        self.initial_balance * self.n_accounts as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounts_are_sharded_round_robin() {
        let w = BankWorkload::new(3, 10, 100, 1);
        assert_eq!(w.site_of(0), 0);
        assert_eq!(w.site_of(4), 1);
        assert_eq!(w.site_of(8), 2);
    }

    #[test]
    fn balance_roundtrip() {
        assert_eq!(BankWorkload::decode(&BankWorkload::encode(-42)), -42);
        assert_eq!(BankWorkload::decode(&BankWorkload::encode(i64::MAX)), i64::MAX);
    }

    #[test]
    fn transfers_are_deterministic_per_seed() {
        let mut a = BankWorkload::new(3, 10, 100, 7);
        let mut b = BankWorkload::new(3, 10, 100, 7);
        for _ in 0..20 {
            assert_eq!(a.random_transfer(), b.random_transfer());
        }
    }

    #[test]
    fn transfer_endpoints_differ() {
        let mut w = BankWorkload::new(2, 5, 100, 3);
        for _ in 0..100 {
            let (f, t, amt) = w.random_transfer();
            assert_ne!(f, t);
            assert!(amt >= 1);
        }
    }

    #[test]
    fn setup_covers_every_account() {
        let w = BankWorkload::new(3, 7, 50, 0);
        let ops = w.setup_ops();
        assert_eq!(ops.len(), 7);
        assert_eq!(w.expected_total(), 350);
    }
}

/// An inventory sharded across sites: item stock lives at `site_of(item)`,
/// and a global order ledger lives at site 0. Each order atomically
/// decrements an item's stock and appends to the ledger total, so the
/// invariant `initial_stock = stock + sold` per item holds iff the commit
/// protocol preserves atomicity.
#[derive(Debug, Clone)]
pub struct InventoryWorkload {
    /// Number of sites.
    pub n_sites: usize,
    /// Number of items.
    pub n_items: usize,
    /// Initial stock per item.
    pub initial_stock: i64,
    rng: SimRng,
}

impl InventoryWorkload {
    /// Create an inventory with `n_items` items over `n_sites` sites.
    pub fn new(n_sites: usize, n_items: usize, initial_stock: i64, seed: u64) -> Self {
        assert!(n_sites >= 2 && n_items >= 1);
        Self { n_sites, n_items, initial_stock, rng: SimRng::seed_from_u64(seed) }
    }

    /// The site an item's stock lives at (sites 1.. hold stock; site 0
    /// holds the ledger).
    pub fn site_of(&self, item: usize) -> usize {
        1 + item % (self.n_sites - 1)
    }

    /// Stock key for an item.
    pub fn stock_key(item: usize) -> Vec<u8> {
        format!("stock{item:06}").into_bytes()
    }

    /// Ledger key for an item (how many were sold).
    pub fn sold_key(item: usize) -> Vec<u8> {
        format!("sold{item:06}").into_bytes()
    }

    /// Setup operations materializing stock and an empty ledger.
    pub fn setup_ops(&self) -> Vec<Op> {
        (0..self.n_items)
            .flat_map(|i| {
                [
                    Op::Write {
                        site: self.site_of(i),
                        key: Self::stock_key(i),
                        value: BankWorkload::encode(self.initial_stock),
                    },
                    Op::Write { site: 0, key: Self::sold_key(i), value: BankWorkload::encode(0) },
                ]
            })
            .collect()
    }

    /// A random order: `(item, quantity)`.
    pub fn random_order(&mut self) -> (usize, i64) {
        (self.rng.gen_range(0..self.n_items), self.rng.gen_range(1i64..=5))
    }
}
