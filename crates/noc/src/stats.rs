use crate::fnv::Digest;

/// A coarse latency histogram with power-of-two buckets.
///
/// Bucket `i` counts packets whose end-to-end latency `l` satisfies
/// `2^i <= l < 2^(i+1)` (bucket 0 additionally holds latency 0 and 1).
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (in cycles).
    pub fn record(&mut self, latency: u64) {
        let idx = (64 - latency.max(1).leading_zeros() as usize - 1).min(31);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded latency.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded latencies, in cycles.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Raw bucket counts (power-of-two buckets).
    #[must_use]
    pub fn buckets(&self) -> &[u64; 32] {
        &self.buckets
    }
}

/// Aggregate statistics of a [`crate::Network`] run.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    injected_packets: u64,
    delivered_packets: u64,
    delivered_flits: u64,
    total_hops: u64,
    modified_packets: u64,
    dropped_packets: u64,
    delivered_power_requests: u64,
    modified_power_requests: u64,
    latency: LatencyHistogram,
}

impl NetworkStats {
    pub(crate) fn on_inject(&mut self) {
        self.injected_packets += 1;
    }

    pub(crate) fn on_flit_delivered(&mut self) {
        self.delivered_flits += 1;
    }

    pub(crate) fn on_packet_dropped(&mut self) {
        self.dropped_packets += 1;
    }

    pub(crate) fn on_packet_delivered(
        &mut self,
        latency: u64,
        hops: u64,
        modified: bool,
        is_power_request: bool,
    ) {
        self.delivered_packets += 1;
        self.total_hops += hops;
        self.latency.record(latency);
        if modified {
            self.modified_packets += 1;
        }
        if is_power_request {
            self.delivered_power_requests += 1;
            if modified {
                self.modified_power_requests += 1;
            }
        }
    }

    /// Packets injected so far.
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Packets fully delivered so far.
    #[must_use]
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Flits delivered so far.
    #[must_use]
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Total hop count over all delivered packets.
    #[must_use]
    pub fn total_hops(&self) -> u64 {
        self.total_hops
    }

    /// Packets delivered after being modified by an inspector at least once.
    #[must_use]
    pub fn modified_packets(&self) -> u64 {
        self.modified_packets
    }

    /// Packets silently sunk by an inspector's drop order.
    #[must_use]
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Delivered `POWER_REQ` packets.
    #[must_use]
    pub fn delivered_power_requests(&self) -> u64 {
        self.delivered_power_requests
    }

    /// Delivered `POWER_REQ` packets that were tampered with en route.
    #[must_use]
    pub fn modified_power_requests(&self) -> u64 {
        self.modified_power_requests
    }

    /// The infection rate of Section V-B: the fraction of delivered power
    /// requests that were modified by a Trojan. Returns 0.0 before any power
    /// request is delivered.
    #[must_use]
    pub fn infection_rate(&self) -> f64 {
        if self.delivered_power_requests == 0 {
            0.0
        } else {
            self.modified_power_requests as f64 / self.delivered_power_requests as f64
        }
    }

    /// End-to-end latency histogram of delivered packets.
    #[must_use]
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// A platform-stable FNV-1a fingerprint over every counter and the full
    /// latency histogram. Two stats objects fingerprint equal iff every
    /// observable field is equal — the determinism tests fold this per
    /// cycle to certify that a rewritten pipeline behaves identically.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.u64(self.injected_packets)
            .u64(self.delivered_packets)
            .u64(self.delivered_flits)
            .u64(self.total_hops)
            .u64(self.modified_packets)
            .u64(self.dropped_packets)
            .u64(self.delivered_power_requests)
            .u64(self.modified_power_requests)
            .u64(self.latency.count)
            .u64(self.latency.sum)
            .u64(self.latency.max);
        for &bucket in &self.latency.buckets {
            d.u64(bucket);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(100);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[6], 1); // 100 in [64,128)
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn infection_rate_counts_only_power_requests() {
        let mut s = NetworkStats::default();
        s.on_packet_delivered(10, 3, true, false); // tampered data packet
        assert_eq!(s.infection_rate(), 0.0);
        s.on_packet_delivered(10, 3, true, true);
        s.on_packet_delivered(10, 3, false, true);
        assert!((s.infection_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.modified_packets(), 2);
        assert_eq!(s.delivered_power_requests(), 2);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = NetworkStats::default();
        assert_eq!(s.infection_rate(), 0.0);
        assert_eq!(s.latency().mean(), 0.0);
    }
}
