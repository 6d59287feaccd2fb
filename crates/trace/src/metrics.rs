//! Metric aggregation: cheap counters accumulated during a run and the
//! [`MetricsSnapshot`] they collapse into, with a stable JSON schema.

use crate::json::Json;
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

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", self.count);
        o.set("min", self.min);
        o.set("mean", self.mean);
        o.set("median", self.median);
        o.set("p95", self.p95);
        o.set("max", self.max);
        o
    }

    fn from_json(j: &Json) -> Result<LatencyStats, String> {
        Ok(LatencyStats {
            count: req_u64(j, "count")?,
            min: req_f64(j, "min")?,
            mean: req_f64(j, "mean")?,
            median: req_f64(j, "median")?,
            p95: req_f64(j, "p95")?,
            max: req_f64(j, "max")?,
        })
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

impl OneSidedMetrics {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("puts", self.puts);
        o.set("gets", self.gets);
        o.set("bytes", self.bytes);
        o.set("put_latency_us", self.put_latency_us.to_json());
        o.set("get_latency_us", self.get_latency_us.to_json());
        o.set("throughput_mb_s", self.throughput_mb_s);
        o
    }

    fn from_json(j: &Json) -> Result<OneSidedMetrics, String> {
        Ok(OneSidedMetrics {
            puts: req_u64(j, "puts")?,
            gets: req_u64(j, "gets")?,
            bytes: req_u64(j, "bytes")?,
            put_latency_us: LatencyStats::from_json(
                j.get("put_latency_us")
                    .ok_or("metrics: missing put_latency_us")?,
            )?,
            get_latency_us: LatencyStats::from_json(
                j.get("get_latency_us")
                    .ok_or("metrics: missing get_latency_us")?,
            )?,
            throughput_mb_s: req_f64(j, "throughput_mb_s")?,
        })
    }
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
    /// The dispatches that woke a different OS thread (snapshots written
    /// before the kernel counted them parse as 0).
    pub handoffs: u64,
    /// High-water mark of the pending event queue.
    pub max_queue_depth: u64,
}

/// Per-channel flow-control counters, keyed by channel index. Empty for
/// runs where no channel declared a capacity (older snapshots omit the
/// section entirely).
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

impl FlowMetrics {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set(
            "queue_high_watermark",
            chan_counts_to_json(&self.queue_high_watermark),
        );
        o.set("sheds", chan_counts_to_json(&self.sheds));
        o.set(
            "backpressure_waits",
            chan_counts_to_json(&self.backpressure_waits),
        );
        o
    }

    fn from_json(j: &Json) -> Result<FlowMetrics, String> {
        Ok(FlowMetrics {
            queue_high_watermark: chan_counts_from_json(
                j.get("queue_high_watermark")
                    .ok_or("metrics: missing queue_high_watermark")?,
            )?,
            sheds: chan_counts_from_json(j.get("sheds").ok_or("metrics: missing sheds")?)?,
            backpressure_waits: chan_counts_from_json(
                j.get("backpressure_waits")
                    .ok_or("metrics: missing backpressure_waits")?,
            )?,
        })
    }
}

/// One run's aggregated metrics, with a stable JSON schema (see
/// `DESIGN.md` §14).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// One entry per channel type, ordered type 1 → 5.
    pub channel_types: Vec<ChannelTypeMetrics>,
    /// One-sided window-fabric counters; all-zero when no channel used
    /// the one-sided path (older snapshots omit the section entirely).
    pub one_sided: OneSidedMetrics,
    /// MPI-layer counters.
    pub mpi: MpiMetrics,
    /// Interconnect counters.
    pub net: NetMetrics,
    /// DES-kernel counters.
    pub des: DesMetrics,
    /// Flow-control counters; empty when no channel declared a capacity
    /// (older snapshots omit the section entirely).
    pub flow: FlowMetrics,
    /// Incident counts by `IncidentCategory` kebab-case name.
    pub incidents: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Serialize to the documented JSON schema.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        let types: Vec<Json> = self
            .channel_types
            .iter()
            .map(|c| {
                let mut t = Json::obj();
                t.set("type", c.chan_type);
                t.set("writes", c.writes);
                t.set("reads", c.reads);
                t.set("bytes", c.bytes);
                t.set("proxy_hops", c.proxy_hops);
                t.set("latency_us", c.latency_us.to_json());
                t.set("throughput_mb_s", c.throughput_mb_s);
                t
            })
            .collect();
        o.set("channel_types", types);
        o.set("one_sided", self.one_sided.to_json());
        let mut mpi = Json::obj();
        mpi.set("sends", self.mpi.sends);
        mpi.set("recvs", self.mpi.recvs);
        mpi.set("payload_bytes", self.mpi.payload_bytes);
        mpi.set("wire_bytes", self.mpi.wire_bytes);
        mpi.set("retransmits", self.mpi.retransmits);
        mpi.set("collectives", counts_to_json(&self.mpi.collectives));
        o.set("mpi", mpi);
        let mut net = Json::obj();
        net.set("link_drops", self.net.link_drops);
        net.set("link_delays", self.net.link_delays);
        net.set("link_duplicates", self.net.link_duplicates);
        net.set("heartbeats", self.net.heartbeats);
        o.set("net", net);
        let mut des = Json::obj();
        des.set("dispatches", self.des.dispatches);
        des.set("handoffs", self.des.handoffs);
        des.set("max_queue_depth", self.des.max_queue_depth);
        o.set("des", des);
        o.set("flow", self.flow.to_json());
        o.set("incidents", counts_to_json(&self.incidents));
        o
    }

    /// Parse a value produced by [`MetricsSnapshot::to_json`].
    pub fn from_json(j: &Json) -> Result<MetricsSnapshot, String> {
        let types = j
            .get("channel_types")
            .and_then(Json::as_arr)
            .ok_or("metrics: missing channel_types array")?;
        let channel_types = types
            .iter()
            .map(|t| {
                Ok(ChannelTypeMetrics {
                    chan_type: req_u64(t, "type")? as u8,
                    writes: req_u64(t, "writes")?,
                    reads: req_u64(t, "reads")?,
                    bytes: req_u64(t, "bytes")?,
                    proxy_hops: req_u64(t, "proxy_hops")?,
                    latency_us: LatencyStats::from_json(
                        t.get("latency_us").ok_or("metrics: missing latency_us")?,
                    )?,
                    throughput_mb_s: req_f64(t, "throughput_mb_s")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mpi = j.get("mpi").ok_or("metrics: missing mpi")?;
        let net = j.get("net").ok_or("metrics: missing net")?;
        let des = j.get("des").ok_or("metrics: missing des")?;
        // Tolerate snapshots written before the one-sided fabric existed:
        // a missing section reads back as the all-zero default.
        let one_sided = match j.get("one_sided") {
            Some(os) => OneSidedMetrics::from_json(os)?,
            None => OneSidedMetrics::default(),
        };
        // Same tolerance for the flow-control section (pre-backpressure
        // snapshots omit it).
        let flow = match j.get("flow") {
            Some(f) => FlowMetrics::from_json(f)?,
            None => FlowMetrics::default(),
        };
        Ok(MetricsSnapshot {
            channel_types,
            one_sided,
            mpi: MpiMetrics {
                sends: req_u64(mpi, "sends")?,
                recvs: req_u64(mpi, "recvs")?,
                payload_bytes: req_u64(mpi, "payload_bytes")?,
                wire_bytes: req_u64(mpi, "wire_bytes")?,
                retransmits: req_u64(mpi, "retransmits")?,
                collectives: counts_from_json(
                    mpi.get("collectives")
                        .ok_or("metrics: missing collectives")?,
                )?,
            },
            net: NetMetrics {
                link_drops: req_u64(net, "link_drops")?,
                link_delays: req_u64(net, "link_delays")?,
                link_duplicates: req_u64(net, "link_duplicates")?,
                heartbeats: req_u64(net, "heartbeats")?,
            },
            des: DesMetrics {
                dispatches: req_u64(des, "dispatches")?,
                handoffs: des.get("handoffs").and_then(Json::as_u64).unwrap_or(0),
                max_queue_depth: req_u64(des, "max_queue_depth")?,
            },
            flow,
            incidents: counts_from_json(j.get("incidents").ok_or("metrics: missing incidents")?)?,
        })
    }
}

fn counts_to_json(counts: &BTreeMap<String, u64>) -> Json {
    let mut o = Json::obj();
    for (k, v) in counts {
        o.set(k, *v);
    }
    o
}

fn chan_counts_to_json(counts: &BTreeMap<u32, u64>) -> Json {
    let mut o = Json::obj();
    for (k, v) in counts {
        o.set(&k.to_string(), *v);
    }
    o
}

fn chan_counts_from_json(j: &Json) -> Result<BTreeMap<u32, u64>, String> {
    counts_from_json(j)?
        .into_iter()
        .map(|(k, v)| {
            k.parse::<u32>()
                .map(|chan| (chan, v))
                .map_err(|_| format!("metrics: channel key {k:?} is not an index"))
        })
        .collect()
}

fn counts_from_json(j: &Json) -> Result<BTreeMap<String, u64>, String> {
    match j {
        Json::Obj(map) => map
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("metrics: count {k:?} is not an integer"))
            })
            .collect(),
        _ => Err("metrics: counts must be an object".to_string()),
    }
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("metrics: missing integer field {key:?}"))
}

fn req_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("metrics: missing number field {key:?}"))
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
    fn snapshot_round_trips_through_json() {
        let mut state = MetricsState::default();
        state.channel[4].writes = 3;
        state.channel[4].reads = 3;
        state.channel[4].bytes = 9600;
        state.channel[4].proxy_hops = 6;
        state.channel[4].latencies_ns = vec![189_000, 190_000, 191_000];
        state.mpi.sends = 12;
        state.mpi.payload_bytes = 4800;
        state.mpi.wire_bytes = 6400;
        state.mpi.retransmits = 1;
        state.mpi.collectives.insert("bcast".to_string(), 2);
        state.net.link_drops = 1;
        state.net.heartbeats = 40;
        state.des.dispatches = 1234;
        state.des.handoffs = 617;
        state.des.max_queue_depth = 17;
        state.incidents.insert("copilot-failover".to_string(), 1);
        state.one_sided.puts = 4;
        state.one_sided.gets = 4;
        state.one_sided.bytes = 12800;
        state.one_sided.put_latencies_ns = vec![80_000, 81_000, 82_000, 83_000];
        state.one_sided.get_latencies_ns = vec![5_000, 6_000, 7_000, 8_000];
        state.flow.note_depth(0, 3);
        state.flow.note_depth(0, 7);
        state.flow.note_depth(0, 5); // high watermark keeps the max
        *state.flow.sheds.entry(2).or_insert(0) += 4;
        *state.flow.backpressure_waits.entry(0).or_insert(0) += 11;
        let snap = state.snapshot();
        assert_eq!(snap.channel_types.len(), CHANNEL_TYPE_COUNT);
        assert_eq!(snap.channel_types[4].chan_type, 5);
        assert_eq!(snap.channel_types[4].latency_us.median, 190.0);
        assert_eq!(snap.flow.queue_high_watermark.get(&0), Some(&7));
        assert_eq!(snap.flow.sheds.get(&2), Some(&4));
        let text = snap.to_json().to_pretty();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn throughput_is_bytes_per_microsecond() {
        // 1600 bytes in 200 µs -> 8 MB/s.
        assert_eq!(throughput_mb_s(1600, &[200_000]), 8.0);
        assert_eq!(throughput_mb_s(1600, &[]), 0.0);
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let j = Json::parse("{\"channel_types\":[]}").unwrap();
        let err = MetricsSnapshot::from_json(&j).unwrap_err();
        assert!(err.contains("mpi"), "{err}");
    }

    #[test]
    fn missing_one_sided_section_parses_as_default() {
        // Snapshots committed before the window fabric existed have no
        // one_sided key; they must keep parsing.
        let snap = MetricsState::default().snapshot();
        let stripped = match snap.to_json() {
            Json::Obj(map) => {
                Json::Obj(map.into_iter().filter(|(k, _)| k != "one_sided").collect())
            }
            other => panic!("snapshot must serialize to an object, got {other:?}"),
        };
        assert!(stripped.get("one_sided").is_none());
        let back = MetricsSnapshot::from_json(&stripped).unwrap();
        assert_eq!(back.one_sided, OneSidedMetrics::default());
    }

    #[test]
    fn missing_flow_section_parses_as_default() {
        // Snapshots committed before flow control existed have no flow
        // key; they must keep parsing.
        let snap = MetricsState::default().snapshot();
        let stripped = match snap.to_json() {
            Json::Obj(map) => Json::Obj(map.into_iter().filter(|(k, _)| k != "flow").collect()),
            other => panic!("snapshot must serialize to an object, got {other:?}"),
        };
        let back = MetricsSnapshot::from_json(&stripped).unwrap();
        assert_eq!(back.flow, FlowMetrics::default());
    }
}
