//! Property tests for the MPI layer: collectives against sequential
//! references, datatype round trips, and message-order invariants.

use cp_mpisim::{decode_slice, encode_slice, mpirun, Datatype, LongDouble, MpiCosts, ReduceOp};
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, NodeKind, RetryPolicy};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

fn spec(n: usize) -> (ClusterSpec, Vec<NodeId>) {
    let spec = ClusterSpec {
        nodes: vec![NodeKind::Commodity { cores: 4 }; n],
        ..ClusterSpec::two_cells_one_xeon()
    };
    (spec, (0..n).map(NodeId).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Broadcast delivers the root's exact data to every rank, for any
    /// rank count, root, and payload.
    #[test]
    fn bcast_equals_root_data(
        n in 2usize..9,
        root_sel in 0usize..8,
        data in proptest::collection::vec(any::<i32>(), 0..32),
    ) {
        let root = root_sel % n;
        let (s, p) = spec(n);
        let data2 = data.clone();
        mpirun(&s, p, MpiCosts::default(), move |comm| {
            let got = if comm.rank() == root {
                comm.bcast(root, Some(&data2))
            } else {
                comm.bcast::<i32>(root, None)
            };
            assert_eq!(got, data2);
        }).unwrap();
    }

    /// Reduce(Sum) equals the sequential elementwise sum.
    #[test]
    fn reduce_sum_matches_reference(
        n in 2usize..9,
        len in 1usize..16,
        seed in any::<u64>(),
    ) {
        let contributions: Vec<Vec<i64>> = (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| ((seed ^ (r as u64 * 0x9E37) ^ (i as u64 * 0x85EB)) % 1000) as i64)
                    .collect()
            })
            .collect();
        let expected: Vec<i64> = (0..len)
            .map(|i| contributions.iter().map(|c| c[i]).sum())
            .collect();
        let (s, p) = spec(n);
        let contrib = contributions.clone();
        let exp = expected.clone();
        mpirun(&s, p, MpiCosts::default(), move |comm| {
            let mine = &contrib[comm.rank()];
            if let Some(total) = comm.reduce(0, ReduceOp::Sum, mine) {
                assert_eq!(total, exp);
            }
        }).unwrap();
    }

    /// Gather returns every rank's contribution in rank order; scatter is
    /// its inverse.
    #[test]
    fn gather_scatter_inverse(
        n in 2usize..7,
        len in 1usize..8,
    ) {
        let (s, p) = spec(n);
        mpirun(&s, p, MpiCosts::default(), move |comm| {
            let mine: Vec<u32> = (0..len).map(|i| (comm.rank() * 100 + i) as u32).collect();
            let gathered = comm.gather(0, &mine);
            let parts = gathered.map(|g| g.into_iter().collect::<Vec<_>>());
            let back = if comm.rank() == 0 {
                comm.scatter(0, Some(parts.as_ref().unwrap()))
            } else {
                comm.scatter::<u32>(0, None)
            };
            assert_eq!(back, mine, "scatter(gather(x)) == x");
        }).unwrap();
    }

    /// Per-pair message order is FIFO under randomized payload sizes and
    /// pauses (non-overtaking rule).
    #[test]
    fn same_pair_fifo(
        msgs in proptest::collection::vec((0usize..200, 0u64..50), 1..20),
    ) {
        let (s, p) = spec(2);
        let sent = Arc::new(Mutex::new(Vec::new()));
        let sent2 = sent.clone();
        let msgs2 = msgs.clone();
        mpirun(&s, p, MpiCosts::default(), move |comm| {
            if comm.rank() == 0 {
                for (i, &(len, pause)) in msgs2.iter().enumerate() {
                    comm.ctx().advance(cp_des::SimDuration::from_micros(pause));
                    let payload: Vec<u8> = std::iter::repeat_n(i as u8, len).collect();
                    comm.send(1, 7, &payload);
                }
            } else {
                for i in 0..msgs2.len() {
                    let m = comm.recv(Some(0), Some(7));
                    assert!(m.data.iter().all(|&b| b == i as u8), "message {i} out of order");
                    sent2.lock().push(i);
                }
            }
        }).unwrap();
        prop_assert_eq!(sent.lock().len(), msgs.len());
    }

    /// Exactly-once under injected loss *and* duplication: whatever mix of
    /// dropped (and retransmitted) and duplicated wire copies the fault plan
    /// produces, the receiver sees each logical send exactly once, in FIFO
    /// order, with no stragglers left queued.
    #[test]
    fn drop_retry_and_duplication_never_surface_duplicates(
        n_msgs in 1usize..12,
        drops in 0u32..3,
        dups in 1u32..8,
        len in 1usize..64,
    ) {
        use cp_des::{SimDuration, SimTime, Simulation};
        use cp_mpisim::MpiWorld;

        let (s, p) = spec(2);
        let window = (SimTime::ZERO, SimTime(u64::MAX));
        // Budgeted faults on the 0 -> 1 link: each logical send may lose up
        // to `drops` wire copies (the retry budget of 4 covers recovery) and
        // `dups` sends get a duplicated wire copy.
        let mut plan = FaultPlan::new()
            .duplicate_link(NodeId(0), NodeId(1), window.0, window.1, dups);
        if drops > 0 {
            plan = plan.drop_link(NodeId(0), NodeId(1), window.0, window.1, drops);
        }
        let world = MpiWorld::with_faults(
            s.build(), p, MpiCosts::default(), Arc::new(plan), RetryPolicy::default(),
        );
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        let w = world.clone();
        let mut sim = Simulation::new();
        world.launch(&mut sim, 0, "sender", move |comm| {
            for i in 0..n_msgs {
                let payload: Vec<u8> = std::iter::repeat_n(i as u8, len).collect();
                comm.send(1, 5, &payload);
            }
        });
        w.launch(&mut sim, 1, "receiver", move |comm| {
            for _ in 0..n_msgs {
                let m = comm.recv(Some(0), Some(5));
                got2.lock().push(m.decode::<u8>());
            }
            // Give late wire copies time to land, then check none did.
            comm.ctx().advance(SimDuration::from_millis(10));
            assert!(comm.iprobe(Some(0), Some(5)).is_none(), "duplicate surfaced");
        });
        sim.run().unwrap();
        let received = got.lock();
        prop_assert_eq!(received.len(), n_msgs);
        for (i, data) in received.iter().enumerate() {
            prop_assert_eq!(data.len(), len);
            prop_assert!(data.iter().all(|&b| b == i as u8), "message {} out of order", i);
        }
    }

    /// Scalar encode/decode round trips for every datatype.
    #[test]
    fn scalar_roundtrips(
        i16s in proptest::collection::vec(any::<i16>(), 0..16),
        f64s in proptest::collection::vec(any::<f64>(), 0..16),
        lds in proptest::collection::vec(any::<f64>(), 0..16),
    ) {
        prop_assert_eq!(decode_slice::<i16>(&encode_slice(&i16s)), i16s);
        let back = decode_slice::<f64>(&encode_slice(&f64s));
        prop_assert_eq!(f64s.len(), back.len());
        for (a, b) in f64s.iter().zip(&back) {
            prop_assert!(a.to_bits() == b.to_bits());
        }
        let lds: Vec<LongDouble> = lds.into_iter().map(LongDouble).collect();
        let back = decode_slice::<LongDouble>(&encode_slice(&lds));
        for (a, b) in lds.iter().zip(&back) {
            prop_assert!(a.0.to_bits() == b.0.to_bits());
        }
    }

    /// Round trips for the remaining scalar datatypes, plus the wire-size
    /// law: an encoded slice is exactly `len * wire_size` bytes.
    #[test]
    fn remaining_scalars_roundtrip_with_exact_wire_size(
        u8s in proptest::collection::vec(any::<u8>(), 0..24),
        i32s in proptest::collection::vec(any::<i32>(), 0..24),
        u32s in proptest::collection::vec(any::<u32>(), 0..24),
        i64s in proptest::collection::vec(any::<i64>(), 0..24),
        f32s in proptest::collection::vec(any::<f32>(), 0..24),
    ) {
        let b = encode_slice(&u8s);
        prop_assert_eq!(b.len(), u8s.len() * Datatype::Byte.wire_size());
        prop_assert_eq!(decode_slice::<u8>(&b), u8s);

        let b = encode_slice(&i32s);
        prop_assert_eq!(b.len(), i32s.len() * Datatype::Int32.wire_size());
        prop_assert_eq!(decode_slice::<i32>(&b), i32s);

        let b = encode_slice(&u32s);
        prop_assert_eq!(b.len(), u32s.len() * Datatype::UInt32.wire_size());
        prop_assert_eq!(decode_slice::<u32>(&b), u32s);

        let b = encode_slice(&i64s);
        prop_assert_eq!(b.len(), i64s.len() * Datatype::Int64.wire_size());
        prop_assert_eq!(decode_slice::<i64>(&b), i64s);

        let b = encode_slice(&f32s);
        prop_assert_eq!(b.len(), f32s.len() * Datatype::Float32.wire_size());
        let back = decode_slice::<f32>(&b);
        prop_assert_eq!(f32s.len(), back.len());
        for (a, x) in f32s.iter().zip(&back) {
            prop_assert!(a.to_bits() == x.to_bits());
        }
    }

    /// Allgather gives every rank the same rank-ordered view that a
    /// root-gather would have produced.
    #[test]
    fn allgather_matches_gather_everywhere(
        n in 2usize..7,
        len in 0usize..8,
    ) {
        let (s, p) = spec(n);
        mpirun(&s, p, MpiCosts::default(), move |comm| {
            let mine: Vec<i32> = (0..len).map(|i| (comm.rank() * 1000 + i) as i32).collect();
            let all = comm.allgather(&mine);
            assert_eq!(all.len(), n);
            for (r, part) in all.iter().enumerate() {
                let expect: Vec<i32> = (0..len).map(|i| (r * 1000 + i) as i32).collect();
                assert_eq!(part, &expect, "rank {r}'s contribution");
            }
        }).unwrap();
    }

    /// Alltoall is a distributed transpose: rank j's received part i is
    /// what rank i addressed to rank j.
    #[test]
    fn alltoall_transposes(
        n in 2usize..6,
        len in 0usize..6,
    ) {
        let (s, p) = spec(n);
        mpirun(&s, p, MpiCosts::default(), move |comm| {
            let me = comm.rank();
            let outgoing: Vec<Vec<u32>> = (0..n)
                .map(|dst| (0..len).map(|i| (me * 10_000 + dst * 100 + i) as u32).collect())
                .collect();
            let incoming = comm.alltoall(&outgoing);
            assert_eq!(incoming.len(), n);
            for (src, part) in incoming.iter().enumerate() {
                let expect: Vec<u32> =
                    (0..len).map(|i| (src * 10_000 + me * 100 + i) as u32).collect();
                assert_eq!(part, &expect, "part from rank {src}");
            }
        }).unwrap();
    }

    /// Scan(Sum) gives rank r the inclusive prefix sum over ranks 0..=r,
    /// and allreduce gives everyone the full reduction (== the last
    /// rank's scan).
    #[test]
    fn scan_is_prefix_of_allreduce(
        n in 2usize..7,
        len in 1usize..8,
        seed in any::<u64>(),
    ) {
        let contributions: Vec<Vec<i64>> = (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| ((seed ^ (r as u64 * 0x5851) ^ (i as u64 * 0x14057)) % 512) as i64)
                    .collect()
            })
            .collect();
        let (s, p) = spec(n);
        let contrib = contributions.clone();
        mpirun(&s, p, MpiCosts::default(), move |comm| {
            let me = comm.rank();
            let mine = &contrib[me];
            let prefix = comm.scan(ReduceOp::Sum, mine);
            let expect_prefix: Vec<i64> = (0..len)
                .map(|i| contrib[..=me].iter().map(|c| c[i]).sum())
                .collect();
            assert_eq!(prefix, expect_prefix, "rank {me} inclusive prefix");
            let total = comm.allreduce(ReduceOp::Sum, mine);
            let expect_total: Vec<i64> = (0..len)
                .map(|i| contrib.iter().map(|c| c[i]).sum())
                .collect();
            assert_eq!(total, expect_total, "rank {me} allreduce");
        }).unwrap();
    }
}

fn shuffle_by_seed<T>(items: &mut [T], seed: u64) {
    // splitmix64-driven Fisher–Yates: deterministic per proptest case.
    let mut rng = cp_des::rng::SplitMix64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once wire-seq dedup at the mailbox: for any interleaving of
    /// duplicated and reordered wire copies — the traffic pattern one-sided
    /// window puts produce under retransmission and failover replay — each
    /// sequenced envelope surfaces exactly once, and replaying the entire
    /// interleaving a second time delivers nothing new.
    #[test]
    fn mailstore_wire_seq_dedup_is_idempotent(
        n_msgs in 1usize..12,
        dups in proptest::collection::vec(any::<u64>(), 0..48),
        perm_seed in any::<u64>(),
    ) {
        use cp_des::{SimDuration, Simulation};
        use cp_mpisim::{Envelope, MailStore, Payload, StorePoll};

        let env_for = |i: usize| Envelope {
            src: 1,
            dst: 0,
            tag: 7,
            dtype: Datatype::Byte,
            count: 1,
            wire_seq: (i + 1) as u64, // 0 means "unsequenced"; never used here
            payload: Payload::Data(vec![i as u8]),
        };
        // One full pass in a shuffled order guarantees coverage; the extra
        // copies land before, between, and after in arbitrary positions.
        let mut order: Vec<usize> = (0..n_msgs).collect();
        shuffle_by_seed(&mut order, perm_seed);
        let mut wire: Vec<usize> = dups.iter().map(|d| (*d % n_msgs as u64) as usize).collect();
        let cut = wire.len() / 2;
        let tail = wire.split_off(cut);
        wire.extend(order);
        wire.extend(tail);

        let mut sim = Simulation::new();
        let store = MailStore::new("dedup-prop");
        sim.spawn("wire", move |ctx| {
            for &i in &wire {
                store.deliver(ctx, env_for(i), SimDuration::ZERO);
            }
            // Idempotence: the complete interleaving again, verbatim.
            for &i in &wire {
                store.deliver(ctx, env_for(i), SimDuration::ZERO);
            }
            // A fresh sentinel lands behind any leaked replay, so the
            // drain below would surface the leak before the sentinel.
            let mut sentinel = env_for(n_msgs);
            sentinel.payload = Payload::Data(vec![0xFF]);
            store.deliver(ctx, sentinel, SimDuration::ZERO);

            // Everything landed at zero latency: each poll takes the next.
            let take = || match store.poll_where(ctx, |_| true) {
                StorePoll::Ready(env) => env,
                other => panic!("nothing left in flight, got {other:?}"),
            };
            let mut seen = Vec::new();
            for _ in 0..n_msgs {
                let env = take();
                let Payload::Data(bytes) = &env.payload else {
                    panic!("unexpected payload kind");
                };
                assert_eq!(bytes, &vec![(env.wire_seq - 1) as u8]);
                seen.push(env.wire_seq);
            }
            seen.sort_unstable();
            let expect: Vec<u64> = (1..=n_msgs as u64).collect();
            assert_eq!(seen, expect, "each sequenced envelope exactly once");
            let last = take();
            assert_eq!(last.payload, Payload::Data(vec![0xFF]));
        });
        sim.run().unwrap();
    }

    /// The window fabric's put-side guard under the same adversary: landed
    /// puts are exactly the strictly-increasing record subsequence of the
    /// interleaving (each seq at most once), and replaying the whole
    /// interleaving afterwards lands nothing and moves no counter.
    #[test]
    fn window_put_dedup_is_idempotent(
        seqs in proptest::collection::vec(0u64..24, 1..64),
    ) {
        use cp_simnet::{PutStatus, WindowDesc, WindowFabric};

        let fabric = WindowFabric::new();
        fabric
            .register(WindowDesc {
                chan: 0,
                node: 0,
                spe: 0,
                start: 0,
                len: 64,
                owner_rank: 1,
            })
            .unwrap();

        let mut expect_landed = Vec::new();
        let mut record = None;
        for &s in &seqs {
            let status = fabric.put(0, s, vec![s as u8]).unwrap();
            if record.is_none_or(|r| s >= r) {
                assert_eq!(status, PutStatus::Landed, "seq {s} sets a new record");
                record = Some(s + 1);
                expect_landed.push(s);
            } else {
                assert_eq!(status, PutStatus::Duplicate, "stale seq {s}");
            }
        }
        let after_first = fabric.counters(0).unwrap();
        assert_eq!(after_first.puts, record.unwrap());

        for &s in &seqs {
            assert_eq!(
                fabric.put(0, s, vec![s as u8]).unwrap(),
                PutStatus::Duplicate,
                "replayed seq {s} must not land twice"
            );
        }
        assert_eq!(fabric.counters(0).unwrap(), after_first);
        let mut landed = Vec::new();
        while let Some(p) = fabric.take(0).unwrap() {
            landed.push(p.seq);
        }
        assert_eq!(landed, expect_landed, "FIFO of applied puts");
    }
}
