//! Property tests for the mesh interconnect: for random mesh
//! geometries, timing parameters and injection schedules,
//!
//! * every injected message is delivered **exactly once** (no loss, no
//!   duplication — checked by unique message ids);
//! * deliveries between one (src, dst) pair arrive in injection order
//!   (FIFO links + a fixed XY route make reordering impossible);
//! * every end-to-end latency is at least `(hops + 1) · link_latency`,
//!   where `hops` is the Manhattan distance — the lower bound of the
//!   timing model with an empty network;
//! * the statistics counters agree with the observed traffic and the
//!   network is idle once everything is delivered.
//!
//! The driver mirrors the array's lockstep exchange: each cycle ejects
//! (one delivery per node), advances, then injects — with refused
//! injections retried next cycle, exactly like a committed TX mailbox.

use epic_array::{Noc, NocConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// One scheduled message: src/dst picked modulo the node count, a
/// payload length, and an idle gap before its source offers it.
type Plan = (usize, usize, usize, u64);

fn schedule_strategy() -> impl Strategy<Value = (usize, usize, NocConfig, Vec<Plan>)> {
    (
        1usize..=4,
        1usize..=4,
        1u64..=3,
        1usize..=3,
        prop::collection::vec((0usize..64, 0usize..64, 1usize..=4, 0u64..=3), 1..24),
    )
        .prop_map(|(width, height, link_latency, link_capacity, plans)| {
            (
                width,
                height,
                NocConfig {
                    link_latency,
                    link_capacity,
                },
                plans,
            )
        })
}

fn manhattan(src: usize, dst: usize, width: usize) -> usize {
    let (sx, sy) = (src % width, src / width);
    let (dx, dy) = (dst % width, dst / width);
    sx.abs_diff(dx) + sy.abs_diff(dy)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn random_traffic_is_delivered_exactly_once_in_order_and_on_time(
        (width, height, config, plans) in schedule_strategy(),
    ) {
        let nodes = width * height;
        let mut noc = Noc::new(width, height, config);

        // Materialise the schedule: unique id in payload[0], sources
        // offer their messages in plan order (per-source FIFO, like a
        // core's TX mailbox).
        struct Msg {
            dst: usize,
            payload: Vec<u32>,
            earliest: u64,
        }
        let mut queues: Vec<Vec<Msg>> = (0..nodes).map(|_| Vec::new()).collect();
        let mut expected: HashMap<u32, (usize, usize, Vec<u32>)> = HashMap::new();
        let mut clock = 0u64;
        for (id, &(s, d, len, gap)) in plans.iter().enumerate() {
            let id = id as u32;
            let (src, dst) = (s % nodes, d % nodes);
            let payload: Vec<u32> = std::iter::once(id)
                .chain((1..len as u32).map(|w| id * 100 + w))
                .collect();
            clock += gap;
            expected.insert(id, (src, dst, payload.clone()));
            queues[src].push(Msg { dst, payload, earliest: clock });
        }
        let total = plans.len() as u64;

        // Lockstep drive: eject → advance → inject, retrying refusals —
        // the same phase order and per-source one-offer-per-cycle
        // discipline as the array's exchange.
        let mut deliveries = Vec::new();
        let mut now = 0u64;
        while (deliveries.len() as u64) < total {
            for node in 0..nodes {
                if let Some(d) = noc.eject(now, node) {
                    prop_assert_eq!(d.dst, node, "ejected at the wrong node");
                    deliveries.push(d);
                }
            }
            noc.advance(now);
            for (src, queue) in queues.iter_mut().enumerate() {
                let ready = queue.first().is_some_and(|m| m.earliest <= now);
                if ready && noc.try_inject(now, src, queue[0].dst, queue[0].payload.clone()) {
                    queue.remove(0);
                }
            }
            now += 1;
            prop_assert!(now < 100_000, "traffic did not drain");
        }
        prop_assert!(noc.is_idle(), "deliveries complete but messages in flight");

        // Exactly once: the set of delivered ids is exactly the set of
        // injected ids, each with the payload and endpoints it was
        // injected with.
        prop_assert_eq!(deliveries.len(), expected.len(), "delivery count");
        let mut seen = HashMap::new();
        for d in &deliveries {
            let id = d.payload[0];
            prop_assert!(seen.insert(id, ()).is_none(), "message {} delivered twice", id);
            let (src, dst, payload) = &expected[&id];
            prop_assert_eq!(d.src, *src, "message {} wrong source", id);
            prop_assert_eq!(d.dst, *dst, "message {} wrong destination", id);
            prop_assert_eq!(&d.payload, payload, "message {} corrupted", id);

            // Timing: hops is the Manhattan distance, and the message
            // spent at least link_latency in each of its hops+1 queues.
            prop_assert_eq!(d.hops, manhattan(d.src, d.dst, width), "hop count");
            let floor = (d.hops as u64 + 1) * config.link_latency;
            prop_assert!(
                d.delivered_at - d.injected_at >= floor,
                "message {} latency {} below the {} floor",
                id,
                d.delivered_at - d.injected_at,
                floor
            );
        }

        // Per-pair FIFO: for each (src, dst), delivered ids ascend —
        // ids were assigned in plan order, which is injection order.
        let mut last: HashMap<(usize, usize), u32> = HashMap::new();
        for d in &deliveries {
            if let Some(prev) = last.insert((d.src, d.dst), d.payload[0]) {
                prop_assert!(
                    prev < d.payload[0],
                    "pair ({}, {}) reordered: {} after {}",
                    d.src,
                    d.dst,
                    d.payload[0],
                    prev
                );
            }
        }

        // Counters match the observed traffic.
        let stats = noc.stats();
        prop_assert_eq!(stats.messages_injected, total);
        prop_assert_eq!(stats.messages_delivered, total);
        prop_assert_eq!(
            stats.payload_words,
            deliveries.iter().map(|d| d.payload.len() as u64).sum::<u64>()
        );
        prop_assert_eq!(
            stats.total_hops,
            deliveries.iter().map(|d| d.hops as u64).sum::<u64>()
        );
        prop_assert_eq!(
            stats.total_latency,
            deliveries
                .iter()
                .map(|d| d.delivered_at - d.injected_at)
                .sum::<u64>()
        );
        prop_assert_eq!(stats.latencies.len() as u64, total);
    }
}
