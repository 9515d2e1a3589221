//! Message accounting, the raw data behind the message-complexity
//! experiments (how many messages 1PC/2PC/3PC exchange per transaction in
//! each paradigm).

use crate::net::SiteIx;

/// Counters for one [`Network`](crate::net::Network) instance.
#[derive(Debug)]
pub struct NetStats {
    n: usize,
    sent: u64,
    delivered: u64,
    dropped: u64,
    per_link: Vec<u64>,
}

impl Clone for NetStats {
    fn clone(&self) -> Self {
        let mut copy = Self::new(0);
        copy.clone_from(self);
        copy
    }

    /// Copy `source` over these counters, keeping the per-link table's
    /// allocation.
    fn clone_from(&mut self, source: &Self) {
        let Self { n, sent, delivered, dropped, per_link } = self;
        *n = source.n;
        *sent = source.sent;
        *delivered = source.delivered;
        *dropped = source.dropped;
        per_link.clone_from(&source.per_link);
    }
}

impl NetStats {
    /// Fresh counters for `n` sites.
    pub fn new(n: usize) -> Self {
        Self { n, sent: 0, delivered: 0, dropped: 0, per_link: vec![0; n * n] }
    }

    /// Zero every counter, keeping the per-link table.
    pub(crate) fn reset(&mut self) {
        self.sent = 0;
        self.delivered = 0;
        self.dropped = 0;
        self.per_link.fill(0);
    }

    pub(crate) fn record_send(&mut self, src: SiteIx, dst: SiteIx) {
        self.sent += 1;
        self.per_link[src * self.n + dst] += 1;
    }

    pub(crate) fn record_delivery(&mut self) {
        self.delivered += 1;
    }

    pub(crate) fn record_drop(&mut self) {
        self.dropped += 1;
    }

    pub(crate) fn undo_delivery(&mut self) {
        self.delivered -= 1;
    }

    /// Messages swallowed by a partition.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total messages sent.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Total messages delivered (popped by the driver).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages sent on one link.
    pub fn link(&self, src: SiteIx, dst: SiteIx) -> u64 {
        self.per_link[src * self.n + dst]
    }

    /// Messages sent by one site (row sum).
    pub fn sent_by(&self, src: SiteIx) -> u64 {
        (0..self.n).map(|d| self.link(src, d)).sum()
    }

    /// Messages addressed to one site (column sum).
    pub fn sent_to(&self, dst: SiteIx) -> u64 {
        (0..self.n).map(|s| self.link(s, dst)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_overwrites_used_counters() {
        let mut source = NetStats::new(3);
        source.record_send(0, 1);
        source.record_send(2, 1);
        source.record_delivery();
        source.record_drop();
        let mut target = NetStats::new(4);
        target.record_send(3, 3);
        target.clone_from(&source);
        assert_eq!(format!("{target:?}"), format!("{source:?}"));
    }

    #[test]
    fn row_and_column_sums() {
        let mut s = NetStats::new(3);
        s.record_send(0, 1);
        s.record_send(0, 2);
        s.record_send(1, 2);
        assert_eq!(s.sent(), 3);
        assert_eq!(s.sent_by(0), 2);
        assert_eq!(s.sent_to(2), 2);
        assert_eq!(s.link(0, 1), 1);
        assert_eq!(s.link(2, 0), 0);
    }
}
