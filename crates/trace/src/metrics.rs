//! Metric aggregation: cheap counters accumulated during a run and the
//! [`MetricsSnapshot`] they collapse into.

use std::collections::BTreeMap;

/// Number of CellPilot channel types (Table I of the paper).
pub const CHANNEL_TYPE_COUNT: usize = 5;

/// Mutable per-run accumulation (lives inside the recorder's lock).
#[derive(Debug, Default)]
pub(crate) struct MetricsState {
    pub(crate) channel: [ChannelState; CHANNEL_TYPE_COUNT],
    pub(crate) one_sided: OneSidedState,
    pub(crate) mpi: MpiState,
    pub(crate) net: NetState,
    pub(crate) des: DesState,
    pub(crate) flow: FlowState,
    pub(crate) incidents: BTreeMap<String, u64>,
}

#[derive(Debug, Default)]
pub(crate) struct ChannelState {
    pub(crate) writes: u64,
    pub(crate) reads: u64,
    pub(crate) bytes: u64,
    pub(crate) proxy_hops: u64,
    pub(crate) latencies_ns: Vec<u64>,
}

#[derive(Debug, Default)]
pub(crate) struct OneSidedState {
    pub(crate) puts: u64,
    pub(crate) gets: u64,
    pub(crate) bytes: u64,
    pub(crate) put_latencies_ns: Vec<u64>,
    pub(crate) get_latencies_ns: Vec<u64>,
}

#[derive(Debug, Default)]
pub(crate) struct MpiState {
    pub(crate) sends: u64,
    pub(crate) recvs: u64,
    pub(crate) payload_bytes: u64,
    pub(crate) wire_bytes: u64,
    pub(crate) retransmits: u64,
    pub(crate) collectives: BTreeMap<String, u64>,
}

#[derive(Debug, Default)]
pub(crate) struct NetState {
    pub(crate) link_drops: u64,
    pub(crate) link_delays: u64,
    pub(crate) link_duplicates: u64,
    pub(crate) heartbeats: u64,
}

#[derive(Debug, Default)]
pub(crate) struct DesState {
    pub(crate) dispatches: u64,
    pub(crate) handoffs: u64,
    pub(crate) max_queue_depth: u64,
}

/// Per-channel flow-control counters, keyed by channel index. Only
/// channels with a configured capacity record here, so the maps stay
/// empty (and the section all-default) for unbounded configurations —
/// which keeps pre-flow-control golden traces byte-identical.
#[derive(Debug, Default)]
pub(crate) struct FlowState {
    pub(crate) queue_high_watermark: BTreeMap<u32, u64>,
    pub(crate) sheds: BTreeMap<u32, u64>,
    pub(crate) backpressure_waits: BTreeMap<u32, u64>,
}

impl FlowState {
    pub(crate) fn note_depth(&mut self, chan: u32, depth: u64) {
        let hwm = self.queue_high_watermark.entry(chan).or_insert(0);
        *hwm = (*hwm).max(depth);
    }
}

impl MetricsState {
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            channel_types: self
                .channel
                .iter()
                .enumerate()
                .map(|(i, c)| ChannelTypeMetrics {
                    chan_type: (i + 1) as u8,
                    writes: c.writes,
                    reads: c.reads,
                    bytes: c.bytes,
                    proxy_hops: c.proxy_hops,
                    latency_us: LatencyStats::from_ns_samples(&c.latencies_ns),
                    throughput_mb_s: throughput_mb_s(c.bytes, &c.latencies_ns),
                })
                .collect(),
            one_sided: OneSidedMetrics {
                puts: self.one_sided.puts,
                gets: self.one_sided.gets,
                bytes: self.one_sided.bytes,
                put_latency_us: LatencyStats::from_ns_samples(&self.one_sided.put_latencies_ns),
                get_latency_us: LatencyStats::from_ns_samples(&self.one_sided.get_latencies_ns),
                throughput_mb_s: throughput_mb_s(
                    self.one_sided.bytes,
                    &self.one_sided.put_latencies_ns,
                ),
            },
            mpi: MpiMetrics {
                sends: self.mpi.sends,
                recvs: self.mpi.recvs,
                payload_bytes: self.mpi.payload_bytes,
                wire_bytes: self.mpi.wire_bytes,
                retransmits: self.mpi.retransmits,
                collectives: self.mpi.collectives.clone(),
            },
            net: NetMetrics {
                link_drops: self.net.link_drops,
                link_delays: self.net.link_delays,
                link_duplicates: self.net.link_duplicates,
                heartbeats: self.net.heartbeats,
            },
            des: DesMetrics {
                dispatches: self.des.dispatches,
                handoffs: self.des.handoffs,
                max_queue_depth: self.des.max_queue_depth,
            },
            flow: FlowMetrics {
                queue_high_watermark: self.flow.queue_high_watermark.clone(),
                sheds: self.flow.sheds.clone(),
                backpressure_waits: self.flow.backpressure_waits.clone(),
            },
            incidents: self.incidents.clone(),
        }
    }
}

/// Bytes over total operation latency, in MB/s (one byte per µs ≡ 1 MB/s —
/// the unit Figure 6 of the paper reports).
fn throughput_mb_s(bytes: u64, latencies_ns: &[u64]) -> f64 {
    let total_ns: u64 = latencies_ns.iter().sum();
    if total_ns == 0 {
        return 0.0;
    }
    bytes as f64 / (total_ns as f64 / 1000.0)
}

/// Order statistics over a set of channel-operation latencies, in µs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples; all other fields are 0 when this is 0.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile (nearest rank).
    pub median: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencyStats {
    /// Collapse nanosecond samples into µs order statistics.
    pub fn from_ns_samples(samples: &[u64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let us = |ns: u64| ns as f64 / 1000.0;
        let rank = |p: f64| {
            let idx = (p * (sorted.len() - 1) as f64).round() as usize;
            us(sorted[idx])
        };
        LatencyStats {
            count: sorted.len() as u64,
            min: us(sorted[0]),
            mean: us(samples.iter().sum::<u64>()) / sorted.len() as f64,
            median: rank(0.5),
            p95: rank(0.95),
            max: us(*sorted.last().unwrap()),
        }
    }
}

/// Aggregated metrics for one channel type (1–5).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChannelTypeMetrics {
    /// Channel type, 1..=5 (Table I).
    pub chan_type: u8,
    /// Completed write operations.
    pub writes: u64,
    /// Completed read operations.
    pub reads: u64,
    /// Payload bytes across all recorded operations (a message counts on
    /// both its write and its read side).
    pub bytes: u64,
    /// Co-Pilot relay hops taken by messages of this type: the writer-side
    /// MPI forward and the reader-side delivery each count one, so a
    /// type-5 message records two and a purely local type-4 pairing none.
    pub proxy_hops: u64,
    /// Per-operation latency order statistics, µs.
    pub latency_us: LatencyStats,
    /// Payload bytes over summed operation latency, MB/s.
    pub throughput_mb_s: f64,
}

/// Aggregated one-sided window-fabric counters (put/get channels).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OneSidedMetrics {
    /// Completed one-sided `put` operations (writer side, end to end).
    pub puts: u64,
    /// Completed one-sided `get` deliveries (window → reader buffer).
    pub gets: u64,
    /// Payload bytes across all recorded puts and gets (a message counts
    /// on both sides, mirroring the channel-type accounting).
    pub bytes: u64,
    /// Per-put latency order statistics, µs.
    pub put_latency_us: LatencyStats,
    /// Per-get latency order statistics, µs.
    pub get_latency_us: LatencyStats,
    /// Put payload bytes over summed put latency, MB/s.
    pub throughput_mb_s: f64,
}

/// Aggregated MPI-layer counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MpiMetrics {
    /// Logical point-to-point sends initiated.
    pub sends: u64,
    /// Point-to-point receives completed.
    pub recvs: u64,
    /// Application payload bytes handed to the send path.
    pub payload_bytes: u64,
    /// Bytes put on the wire across all transmission attempts (counts
    /// retransmitted payloads again; rendezvous control frames are free).
    pub wire_bytes: u64,
    /// Transmission attempts repeated after an injected link drop.
    pub retransmits: u64,
    /// Collective operations completed, by name.
    pub collectives: BTreeMap<String, u64>,
}

/// Aggregated interconnect counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetMetrics {
    /// Link-level drops injected by the fault plan.
    pub link_drops: u64,
    /// Link-level extra delays injected by the fault plan.
    pub link_delays: u64,
    /// Link-level duplications injected by the fault plan.
    pub link_duplicates: u64,
    /// Co-Pilot heartbeat beats observed.
    pub heartbeats: u64,
}

/// Aggregated DES-kernel counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesMetrics {
    /// Scheduler dispatches (grants of the virtual CPU).
    pub dispatches: u64,
    /// The dispatches that woke a different OS thread.
    pub handoffs: u64,
    /// High-water mark of the pending event queue.
    pub max_queue_depth: u64,
}

/// Per-channel flow-control counters, keyed by channel index. Empty for
/// runs where no channel declared a capacity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowMetrics {
    /// Largest observed in-flight depth per bounded channel — the number
    /// the overload campaign compares against the configured capacity.
    pub queue_high_watermark: BTreeMap<u32, u64>,
    /// Messages shed (Shed or expired DeadlineDrop) per channel.
    pub sheds: BTreeMap<u32, u64>,
    /// Writes that entered a credit wait (Block or DeadlineDrop) per
    /// channel, whether or not they eventually succeeded.
    pub backpressure_waits: BTreeMap<u32, u64>,
}

/// One run's aggregated metrics, read in process through
/// `Recorder::snapshot` (see `DESIGN.md` §14).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// One entry per channel type, ordered type 1 → 5.
    pub channel_types: Vec<ChannelTypeMetrics>,
    /// One-sided window-fabric counters; all-zero when no channel used
    /// the one-sided path.
    pub one_sided: OneSidedMetrics,
    /// MPI-layer counters.
    pub mpi: MpiMetrics,
    /// Interconnect counters.
    pub net: NetMetrics,
    /// DES-kernel counters.
    pub des: DesMetrics,
    /// Flow-control counters; empty when no channel declared a capacity.
    pub flow: FlowMetrics,
    /// Incident counts by `IncidentCategory` kebab-case name.
    pub incidents: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_order_statistics() {
        // 1..=100 µs in ns.
        let samples: Vec<u64> = (1..=100u64).map(|v| v * 1000).collect();
        let s = LatencyStats::from_ns_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.median, 51.0); // nearest-rank: 0-based index 49.5 rounds to 50
        assert_eq!(s.p95, 95.0); // index 94.05 rounds to 94, i.e. 95 µs
    }

    #[test]
    fn empty_latency_stats_are_all_zero() {
        assert_eq!(LatencyStats::from_ns_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn snapshot_aggregates_latencies_and_flow_counters() {
        let mut state = MetricsState::default();
        state.channel[4].latencies_ns = vec![189_000, 190_000, 191_000];
        state.flow.note_depth(0, 3);
        state.flow.note_depth(0, 7);
        state.flow.note_depth(0, 5); // high watermark keeps the max
        *state.flow.sheds.entry(2).or_insert(0) += 4;
        let snap = state.snapshot();
        assert_eq!(snap.channel_types.len(), CHANNEL_TYPE_COUNT);
        assert_eq!(snap.channel_types[4].chan_type, 5);
        assert_eq!(snap.channel_types[4].latency_us.median, 190.0);
        assert_eq!(snap.flow.queue_high_watermark.get(&0), Some(&7));
        assert_eq!(snap.flow.sheds.get(&2), Some(&4));
    }

    #[test]
    fn throughput_is_bytes_per_microsecond() {
        // 1600 bytes in 200 µs -> 8 MB/s.
        assert_eq!(throughput_mb_s(1600, &[200_000]), 8.0);
        assert_eq!(throughput_mb_s(1600, &[]), 0.0);
    }
}
