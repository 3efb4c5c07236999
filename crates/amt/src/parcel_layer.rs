//! The upper-layer send path: connection cache + parcel queues, and the
//! send-immediate bypass.
//!
//! §3.2.2 of the paper: "By default, the HPX upper layer interacts with
//! two internal data structures when sending a parcel: the connection
//! cache and the parcel queue. ... These two data structures improve
//! aggregation and memory usage. However, accesses to each of those are
//! protected by HPX spin locks so their use also increases lock
//! contention." The *immediate* configuration "serializes directly the
//! parcel into an HPX message and passes it to the parcelport layer,
//! bypassing the connection cache and the parcel queue."
//!
//! Aggregation emerges from two mechanisms, as in HPX:
//! * while one core is draining/serializing a destination queue
//!   (`draining_until` in the future), parcels pushed by other cores ride
//!   along in the next drain;
//! * when the connection cache is exhausted (all `max_connections`
//!   connections in flight because the parcelport is slow), parcels pile
//!   up in the queue and leave in bulk when a connection returns — this
//!   is what saves the MPI parcelport under high injection pressure.

use std::collections::HashMap;
use std::rc::Rc;

use simcore::recorder::{self, MarkKind};
use simcore::{CostModel, Sim, SimResource, SimTime};
use telemetry::TrackKey;

use crate::locality::Locality;
use crate::parcel::Parcel;
use crate::serialize::HpxMessage;
use crate::OnSent;

/// Parcel-layer configuration.
#[derive(Debug, Clone)]
pub struct ParcelLayerConfig {
    /// HPX zero-copy serialization threshold (default 8192 bytes).
    pub zero_copy_threshold: usize,
    /// Bypass the connection cache and parcel queues entirely.
    pub send_immediate: bool,
    /// Maximum in-flight sender connections (HPX default 8192).
    pub max_connections: usize,
}

impl Default for ParcelLayerConfig {
    fn default() -> Self {
        ParcelLayerConfig {
            zero_copy_threshold: 8192,
            send_immediate: false,
            max_connections: 8192,
        }
    }
}

struct DestQueue {
    parcels: Vec<Parcel>,
    /// Telemetry flow ids riding alongside `parcels` (empty when
    /// telemetry is disabled — ids of 0 are never pushed).
    flows: Vec<u64>,
    res: SimResource,
    draining_until: SimTime,
}

/// Per-locality send-path state.
pub struct ParcelLayer {
    cfg: ParcelLayerConfig,
    queues: HashMap<usize, DestQueue>,
    conncache_res: SimResource,
    conn_in_use: usize,
    messages_sent: u64,
    parcels_sent: u64,
    starved: u64,
}

impl ParcelLayer {
    /// Create the layer.
    pub fn new(cfg: ParcelLayerConfig, cost: &CostModel) -> Self {
        ParcelLayer {
            cfg,
            queues: HashMap::new(),
            conncache_res: SimResource::new("amt.conncache", cost.cacheline_transfer),
            conn_in_use: 0,
            messages_sent: 0,
            parcels_sent: 0,
            starved: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ParcelLayerConfig {
        &self.cfg
    }

    /// HPX messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Parcels sent so far (>= messages when aggregation happened).
    pub fn parcels_sent(&self) -> u64 {
        self.parcels_sent
    }

    /// Mean parcels per HPX message (aggregation factor).
    pub fn aggregation_factor(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.parcels_sent as f64 / self.messages_sent as f64
        }
    }

    /// Sender connections currently in flight.
    pub fn connections_in_flight(&self) -> usize {
        self.conn_in_use
    }

    /// Times a parcel had to wait because the connection cache was empty.
    pub fn connection_starvations(&self) -> u64 {
        self.starved
    }

    /// Parcels queued for `dest` but not yet drained.
    pub fn queued_for(&self, dest: usize) -> usize {
        self.queues.get(&dest).map_or(0, |q| q.parcels.len())
    }

    fn encode_cost(cost: &CostModel, msg: &HpxMessage, parcels: usize) -> u64 {
        cost.amt_encode_base
            + cost.amt_encode_per_parcel * parcels as u64
            + cost.serialize(msg.non_zero_copy.len())
            + cost.alloc * msg.zero_copy.len() as u64
    }

    /// Extra staging work for zero-copy chunks routed through the
    /// aggregated path (see `CostModel::amt_drain_zc_per_byte_milli`).
    fn drain_zc_cost(cost: &CostModel, msg: &HpxMessage) -> u64 {
        let zc_bytes: usize = msg.zero_copy.iter().map(|c| c.len()).sum();
        (zc_bytes as u64 * cost.amt_drain_zc_per_byte_milli) / 1000
    }

    /// Entry point: send `parcel` to `dest` (see module docs for the two
    /// paths). Returns when the calling core is done.
    pub fn put_parcel(
        loc: &Rc<Locality>,
        sim: &mut Sim,
        core: usize,
        dest: usize,
        parcel: Parcel,
    ) -> SimTime {
        let cost = loc.cost.clone();
        let (immediate, threshold) =
            { loc.with_layer(|l| (l.cfg.send_immediate, l.cfg.zero_copy_threshold)) };

        let flow = telemetry::flow_begin(loc.id, dest, core, sim.now());
        telemetry::counter_add_at("amt.parcels_put", 1, sim.now());

        if immediate {
            // Serialize directly and hand to the parcelport: no queue, no
            // connection cache, no aggregation.
            let mut msg = HpxMessage::encode(std::slice::from_ref(&parcel), threshold);
            let t = sim.now() + Self::encode_cost(&cost, &msg, 1);
            telemetry::profile_overlay(
                core,
                telemetry::CoreState::Serialize,
                "serialize.immediate",
                sim.now(),
                t,
            );
            recorder::mark("amt.serialize", MarkKind::Work, sim.now(), t, 0);
            if flow != 0 {
                telemetry::flow_mark(flow, telemetry::stage::SERIALIZE, t);
                msg.flows.push(flow);
            }
            loc.with_layer(|l| {
                l.messages_sent += 1;
                l.parcels_sent += 1;
            });
            sim.stats.bump("amt.send_immediate");
            return loc.pp_put_message(sim, core, t, dest, msg, None);
        }

        // Default path: parcel queue → connection cache → drain.
        let now = sim.now();
        telemetry::flow_mark(flow, telemetry::stage::QUEUE, now);
        enum Next {
            Aggregated((SimTime, SimTime)),
            Starved(SimTime),
            Drain(SimTime),
        }
        let mut queue_depth = 0usize;
        let next = loc.with_layer(|l| {
            let max_conn = l.cfg.max_connections;
            let transfer = cost.cacheline_transfer;
            let q = l.queues.entry(dest).or_insert_with(|| DestQueue {
                parcels: Vec::new(),
                flows: Vec::new(),
                res: SimResource::new("amt.parcel_queue", transfer),
                draining_until: SimTime::ZERO,
            });
            let t1 = q.res.access(now, core, cost.amt_parcel_queue_op);
            q.parcels.push(parcel);
            queue_depth = q.parcels.len();
            if flow != 0 {
                q.flows.push(flow);
            }
            if q.draining_until > now {
                // Another core is serializing this destination right now;
                // our parcel rides along with a later drain.
                sim.stats.bump("amt.aggregated_push");
                return Next::Aggregated((t1, q.draining_until));
            }
            let t2 = l.conncache_res.access(t1, core, cost.amt_conncache_op);
            if l.conn_in_use >= max_conn {
                l.starved += 1;
                sim.stats.bump("amt.conncache_starved");
                return Next::Starved(t2);
            }
            l.conn_in_use += 1;
            Next::Drain(t2)
        });

        // Counter track `loc{id}.sendq` of the per-destination queue
        // depth, sampled for traced parcels only (`flow != 0`); the key is
        // `Copy` and its name is rendered at export.
        if flow != 0 {
            let key = TrackKey::indexed("loc", loc.id, ".sendq");
            telemetry::track_sample(key, now, queue_depth as f64);
        }

        match next {
            Next::Aggregated((t, window_end)) => {
                // Guarantee the rider leaves even if no connection returns
                // and no later put comes: flush when the window closes
                // (a typed event — core and destination ride in the
                // argument word, nothing is boxed).
                loc.schedule_flush(sim, core, dest, window_end);
                t
            }
            Next::Starved(t) => t,
            Next::Drain(t) => Self::drain(loc, sim, core, dest, t),
        }
    }

    /// Drain `dest`'s queue into one HPX message using an already-reserved
    /// connection, send it, and arrange the connection's return.
    fn drain(loc: &Rc<Locality>, sim: &mut Sim, core: usize, dest: usize, t0: SimTime) -> SimTime {
        let cost = loc.cost.clone();
        let (parcels, flows, threshold) = loc.with_layer(|l| {
            let threshold = l.cfg.zero_copy_threshold;
            let q = l.queues.get_mut(&dest).expect("drain of unknown dest");
            (std::mem::take(&mut q.parcels), std::mem::take(&mut q.flows), threshold)
        });
        if parcels.is_empty() {
            // Someone else drained in between; return the connection.
            loc.with_layer(|l| l.conn_in_use -= 1);
            return t0;
        }
        let mut msg = HpxMessage::encode(&parcels, threshold);
        msg.flows = flows;
        // Dequeue + per-parcel serialization is one serialized pass over
        // the destination queue: only one drain makes progress on a
        // destination at a time (this is what caps the aggregated path's
        // parcel rate regardless of backend — the common ~400 K/s plateau
        // of all non-immediate variants in §4.1).
        let encode = Self::encode_cost(&cost, &msg, parcels.len())
            + Self::drain_zc_cost(&cost, &msg)
            + cost.pp_connection;
        let t1 = loc.with_layer(|l| {
            let q = l.queues.get_mut(&dest).expect("dest exists");
            q.res.access(t0, core, encode)
        });
        // The queueing prefix of `[t0, t1)` is already overlaid as
        // lock-wait by the resource probe; the serialize overlay sorts
        // after it and keeps only the service part.
        telemetry::profile_overlay(
            core,
            telemetry::CoreState::Serialize,
            "serialize.drain",
            t0,
            t1,
        );
        // The queue resource emitted its own wait mark for the prefix of
        // `[t0, t1)`; this mark (later in emission order) claims only the
        // remaining service part under the critical-path carve.
        recorder::mark("amt.serialize", MarkKind::Work, t0, t1, 0);
        telemetry::flow_mark_many(&msg.flows, telemetry::stage::SERIALIZE, t1);
        loc.with_layer(|l| {
            l.messages_sent += 1;
            l.parcels_sent += parcels.len() as u64;
            let q = l.queues.get_mut(&dest).expect("dest exists");
            q.draining_until = t1;
        });
        sim.stats.bump("amt.drain");
        sim.stats.add("amt.drained_parcels", parcels.len() as u64);

        let loc2 = loc.clone();
        let on_sent: OnSent = Box::new(move |sim, core| {
            Self::on_connection_returned(&loc2, sim, core as usize, dest);
        });
        loc.pp_put_message(sim, core, t1, dest, msg, Some(on_sent))
    }

    /// Flush parcels left behind by a closed drain window (no connection
    /// outstanding to pick them up).
    pub(crate) fn flush(loc: &Rc<Locality>, sim: &mut Sim, core: usize, dest: usize) {
        let cost = loc.cost.clone();
        let now = sim.now();
        let start = loc.with_layer(|l| {
            let pending = l
                .queues
                .get(&dest)
                .is_some_and(|q| !q.parcels.is_empty() && q.draining_until <= now);
            if !pending || l.conn_in_use >= l.cfg.max_connections {
                return None;
            }
            let t = l.conncache_res.access(now, core, cost.amt_conncache_op);
            l.conn_in_use += 1;
            Some(t)
        });
        if let Some(t) = start {
            Self::drain(loc, sim, core, dest, t);
        }
    }

    /// A connection came back: recycle it, and if parcels piled up while
    /// the cache was starved (or a drain window passed over them), send
    /// them now.
    fn on_connection_returned(loc: &Rc<Locality>, sim: &mut Sim, core: usize, dest: usize) {
        let cost = loc.cost.clone();
        let now = sim.now();
        let redrain = loc.with_layer(|l| {
            l.conn_in_use -= 1;
            // Any parcels still queued (riders that pushed during a drain
            // window, or starvation backlog) leave now with this freed
            // connection.
            let pending = l.queues.get(&dest).is_some_and(|q| !q.parcels.is_empty());
            if !pending || l.conn_in_use >= l.cfg.max_connections {
                return None;
            }
            let t = l.conncache_res.access(now, core, cost.amt_conncache_op);
            l.conn_in_use += 1;
            Some(t)
        });
        if let Some(t) = redrain {
            Self::drain(loc, sim, core, dest, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionRegistry;
    use crate::sched::WorkerConfig;
    use crate::{BgOutcome, DeliverFn, Parcelport};
    use bytes::Bytes;
    use std::cell::RefCell;

    /// Messages a [`StubPort`] was handed, with their destinations.
    type SentLog = Rc<RefCell<Vec<(usize, HpxMessage)>>>;

    /// A parcelport stub that records messages and completes sends after
    /// a fixed delay.
    struct StubPort {
        sent: SentLog,
        delay: u64,
    }

    impl Parcelport for StubPort {
        fn put_message(
            &mut self,
            sim: &mut Sim,
            core: usize,
            at: SimTime,
            dest: usize,
            msg: HpxMessage,
            on_sent: Option<OnSent>,
        ) -> SimTime {
            self.sent.borrow_mut().push((dest, msg));
            let t = at.max(sim.now()) + 100;
            if let Some(cb) = on_sent {
                let at = sim.now() + self.delay;
                sim.schedule_once_at(at, cb, core as u64);
            }
            t
        }

        fn background_work(&mut self, sim: &mut Sim, _core: usize) -> BgOutcome {
            BgOutcome::idle(sim.now())
        }

        fn set_deliver(&mut self, _d: DeliverFn) {}

        fn config_name(&self) -> String {
            "stub".into()
        }
    }

    fn world(cfg: ParcelLayerConfig, delay: u64) -> (Sim, Rc<Locality>, SentLog) {
        let sim = Sim::new(0);
        let loc = Locality::new(
            0,
            Rc::new(CostModel::default()),
            WorkerConfig::workers_only(2),
            ActionRegistry::new(),
            cfg,
        );
        let sent = Rc::new(RefCell::new(Vec::new()));
        let port = StubPort { sent: sent.clone(), delay };
        loc.set_parcelport(Rc::new(RefCell::new(port)));
        (sim, loc, sent)
    }

    fn parcel(n: usize) -> Parcel {
        Parcel::new(0, vec![Bytes::from(vec![1u8; n])])
    }

    #[test]
    fn immediate_path_one_message_per_parcel() {
        let cfg = ParcelLayerConfig { send_immediate: true, ..Default::default() };
        let (mut sim, loc, sent) = world(cfg, 100);
        for _ in 0..5 {
            loc.put_parcel(&mut sim, 0, 1, parcel(16));
        }
        sim.run();
        assert_eq!(sent.borrow().len(), 5);
        loc.with_layer(|l| {
            assert_eq!(l.messages_sent(), 5);
            assert!((l.aggregation_factor() - 1.0).abs() < 1e-9);
        });
    }

    #[test]
    fn default_path_sends_and_recycles_connections() {
        let (mut sim, loc, sent) = world(ParcelLayerConfig::default(), 100);
        loc.put_parcel(&mut sim, 0, 1, parcel(16));
        sim.run();
        assert_eq!(sent.borrow().len(), 1);
        loc.with_layer(|l| assert_eq!(l.connections_in_flight(), 0));
    }

    #[test]
    fn connection_exhaustion_aggregates() {
        let cfg = ParcelLayerConfig { max_connections: 1, ..Default::default() };
        // Long in-flight delay: the single connection stays busy.
        let (mut sim, loc, sent) = world(cfg, 1_000_000);
        loc.put_parcel(&mut sim, 0, 1, parcel(16));
        for _ in 0..9 {
            // Step past the drain window so each put genuinely hits the
            // empty connection cache rather than an in-progress drain.
            sim.run_until(sim.now() + 10_000);
            loc.put_parcel(&mut sim, 0, 1, parcel(16));
        }
        // Only the first parcel went out; the rest wait for the connection.
        assert_eq!(sent.borrow().len(), 1);
        loc.with_layer(|l| {
            assert_eq!(l.queued_for(1), 9);
            assert!(l.connection_starvations() > 0);
        });
        sim.run();
        // After the connection returns, the 9 waiting parcels leave as ONE
        // aggregated message.
        assert_eq!(sent.borrow().len(), 2);
        let agg = &sent.borrow()[1].1;
        assert_eq!(agg.decode().len(), 9);
        loc.with_layer(|l| {
            assert_eq!(l.parcels_sent(), 10);
            assert_eq!(l.messages_sent(), 2);
            assert!(l.aggregation_factor() > 1.0);
        });
    }

    #[test]
    fn drain_window_aggregates_concurrent_pushes() {
        let (mut sim, loc, sent) = world(ParcelLayerConfig::default(), 100);
        // First put starts a drain whose serialization occupies a window;
        // a second put landing inside that window must ride along later
        // rather than open its own connection.
        loc.put_parcel(&mut sim, 0, 1, parcel(16));
        // Same timestamp: the second push sees draining_until > now.
        loc.put_parcel(&mut sim, 1, 1, parcel(16));
        assert_eq!(sent.borrow().len(), 1, "second parcel aggregated, not sent yet");
        sim.run();
        assert_eq!(sent.borrow().len(), 2, "rider drains when the connection returns");
        assert_eq!(sent.borrow()[1].1.decode().len(), 1);
    }

    #[test]
    fn zero_copy_threshold_respected_end_to_end() {
        let (mut sim, loc, sent) = world(ParcelLayerConfig::default(), 10);
        loc.put_parcel(&mut sim, 0, 1, parcel(16 * 1024));
        sim.run();
        let msg = &sent.borrow()[0].1;
        assert_eq!(msg.zero_copy.len(), 1);
        assert!(msg.transmission.is_some());
    }
}
