//! The agent side of the split: a per-shard clearing session plus the
//! message loop that drives it, shared by every transport.

use spotdc_core::{
    ClearingCacheStats, ClearingConfig, ConstraintSet, MarketClearing, TaskShip, WireMsg,
};
use spotdc_units::{Slot, Watts};

/// One shard's clearing *session*: the static constraint layers adopted
/// at the last (re)sync, the session epoch that guards them, and one
/// [`MarketClearing`] engine.
///
/// A shard computes nothing but pure task→result clears — all
/// cross-slot *market* state (bank balances, meters, emergencies) lives
/// at the controller, and no per-task state lives here either: every
/// task arrives whole every slot. What the session retains is the one
/// thing that is both large and slow-moving, the statics. Every frame
/// is **validated before anything mutates**: a statics-less frame the
/// session cannot vouch for (nothing held, epoch gap) is answered with
/// [`WireMsg::ResyncNeeded`] and leaves the session untouched, which is
/// what keeps reports byte-identical across shard counts, transports,
/// and resync storms.
#[derive(Debug)]
pub struct MarketShard {
    id: u64,
    count: u64,
    epoch: u64,
    /// The session constraint set: static layers from the last
    /// statics-bearing frame, per-PDU spot overwritten each frame, UPS
    /// spot overwritten per task. `None` until the first resync frame.
    session: Option<ConstraintSet>,
    engine: MarketClearing,
}

impl MarketShard {
    /// Builds shard `id` of `count` with the controller's clearing
    /// configuration. The session starts cold: the first frame must
    /// carry statics to be accepted.
    #[must_use]
    pub fn new(id: u64, count: u64, config: ClearingConfig) -> Self {
        MarketShard {
            id,
            count,
            epoch: 0,
            session: None,
            engine: MarketClearing::new(config),
        }
    }

    /// This shard's index in the topology.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The total number of shards in the topology.
    #[must_use]
    pub fn shard_count(&self) -> u64 {
        self.count
    }

    /// The session epoch after the last accepted frame.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cumulative clear counters of this shard's engine.
    #[must_use]
    pub fn cache_stats(&self) -> ClearingCacheStats {
        self.engine.cache_stats()
    }

    /// Applies one slot frame and returns the reply: a
    /// [`WireMsg::ShardCleared`] with one result per task in task
    /// order, or [`WireMsg::ResyncNeeded`] if the frame carries no
    /// statics and the session cannot supply them (nothing held, or the
    /// epoch is not exactly the held one plus one) — in which case
    /// *nothing* was mutated and the controller must re-send the frame
    /// with statics attached. A statics-bearing frame is adopted at any
    /// epoch.
    pub fn handle_frame(
        &mut self,
        slot: Slot,
        epoch: u64,
        statics: Option<ConstraintSet>,
        pdu_spot: &[Watts],
        tasks: Vec<TaskShip>,
    ) -> WireMsg {
        let held = self.session.is_some() && self.epoch.checked_add(1) == Some(epoch);
        if statics.is_none() && !held {
            return WireMsg::ResyncNeeded {
                slot,
                epoch: self.epoch,
            };
        }
        // Validated: adopt statics, advance the epoch, refresh the
        // per-slot PDU spot vector, then walk the tasks — the same
        // walk a local clear stage runs.
        if let Some(s) = statics {
            self.session = Some(s);
        }
        let session = self.session.as_mut().expect("carried or held");
        self.epoch = epoch;
        session.set_pdu_spot(pdu_spot);
        WireMsg::ShardCleared {
            slot,
            epoch,
            results: self.engine.clear_tasks(slot, session, &tasks),
            cache: self.cache_stats(),
        }
    }
}

/// The agent-side message loop, shared verbatim by the `spotdc-agent`
/// binary and [`InProcTransport`](crate::InProcTransport) threads so the
/// two transports cannot drift behaviorally.
///
/// The loop is deliberately forgiving: unexpected messages are ignored
/// rather than fatal, and a [`SlotFrame`](WireMsg::SlotFrame) arriving
/// before [`AssignShard`](WireMsg::AssignShard) is answered with
/// [`ResyncNeeded`](WireMsg::ResyncNeeded) at epoch 0 — the controller
/// re-sends with statics or, if that fails too, degrades the shard
/// instead of hanging.
#[derive(Debug, Default)]
pub struct AgentLoop {
    shard: Option<MarketShard>,
}

impl AgentLoop {
    /// A fresh, unassigned agent.
    #[must_use]
    pub fn new() -> Self {
        AgentLoop { shard: None }
    }

    /// Handles one message, returning the reply to send back when the
    /// message warrants one. [`WireMsg::Shutdown`] is the caller's
    /// concern (it terminates the transport loop, not this state
    /// machine).
    pub fn handle(&mut self, msg: WireMsg) -> Option<WireMsg> {
        match msg {
            WireMsg::AssignShard {
                shard,
                shard_count,
                clearing,
            } => {
                self.shard = Some(MarketShard::new(shard, shard_count, clearing));
                None
            }
            WireMsg::SlotFrame {
                slot,
                epoch,
                statics,
                pdu_spot,
                tasks,
            } => Some(match &mut self.shard {
                Some(shard) => shard.handle_frame(slot, epoch, statics, &pdu_spot, tasks),
                None => WireMsg::ResyncNeeded { slot, epoch: 0 },
            }),
            // An agent never receives the agent→controller messages and
            // ignores them rather than crash.
            WireMsg::ShardCleared { .. } | WireMsg::ResyncNeeded { .. } | WireMsg::Shutdown => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeMap;

    use spotdc_core::{check_allocation, ClearResult, ConcaveGain, LinearBid, RackBid, StepBid};
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Price, RackId, TenantId};

    fn constraints() -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(80.0), Watts::new(40.0))
            .build()
            .unwrap();
        ConstraintSet::new(&topo, vec![Watts::new(60.0)], Watts::new(60.0))
    }

    fn bid(rack: usize) -> RackBid {
        RackBid::new(
            RackId::new(rack),
            LinearBid::new(
                Watts::new(40.0),
                Price::per_kw_hour(0.05),
                Watts::new(10.0),
                Price::per_kw_hour(0.30),
            )
            .unwrap()
            .into(),
        )
    }

    fn step_bid(rack: usize) -> RackBid {
        RackBid::new(
            RackId::new(rack),
            StepBid::new(Watts::new(25.0), Price::per_kw_hour(0.2))
                .unwrap()
                .into(),
        )
    }

    fn market(ups: f64, bids: Vec<RackBid>) -> TaskShip {
        TaskShip::Market {
            ups_spot: Watts::new(ups),
            bids,
        }
    }

    #[test]
    fn warm_frames_match_a_direct_clearing_engine() {
        let mut shard = MarketShard::new(0, 2, ClearingConfig::default());
        let direct = MarketClearing::new(ClearingConfig::default());
        let c = constraints();
        let spot: Vec<Watts> = c.pdu_spots().to_vec();

        // Sync frame: statics + the task.
        let reply = shard.handle_frame(
            Slot::new(3),
            1,
            Some(c.clone()),
            &spot,
            vec![market(50.0, vec![bid(0)])],
        );
        let want = direct.clear(
            Slot::new(3),
            &[bid(0)],
            &c.clone().with_ups_spot(Watts::new(50.0)),
        );
        let WireMsg::ShardCleared { epoch, results, .. } = reply else {
            panic!("expected ShardCleared, got {reply:?}");
        };
        assert_eq!(epoch, 1);
        assert_eq!(results, vec![ClearResult::Market(want)]);

        // Warm frame: a different book against the held statics.
        let reply = shard.handle_frame(
            Slot::new(4),
            2,
            None,
            &spot,
            vec![market(45.0, vec![step_bid(1), bid(0)])],
        );
        let want = direct.clear(
            Slot::new(4),
            &[step_bid(1), bid(0)],
            &c.clone().with_ups_spot(Watts::new(45.0)),
        );
        let WireMsg::ShardCleared {
            epoch,
            results,
            cache,
            ..
        } = reply
        else {
            panic!("expected ShardCleared, got {reply:?}");
        };
        assert_eq!(epoch, 2);
        assert_eq!(results, vec![ClearResult::Market(want)]);
        assert_eq!(cache, shard.cache_stats());
        assert_eq!(cache.full_sweeps, 2);
        assert_eq!(shard.id(), 0);
        assert_eq!(shard.shard_count(), 2);
    }

    #[test]
    fn unabsorbable_frames_resync_without_mutating() {
        let mut shard = MarketShard::new(0, 1, ClearingConfig::default());
        let c = constraints();
        let spot: Vec<Watts> = c.pdu_spots().to_vec();
        let resync = |slot, epoch| WireMsg::ResyncNeeded {
            slot: Slot::new(slot),
            epoch,
        };

        // Cold session: a statics-less frame is rejected.
        let reply = shard.handle_frame(
            Slot::new(1),
            1,
            None,
            &spot,
            vec![market(50.0, vec![bid(0)])],
        );
        assert_eq!(reply, resync(1, 0));

        // Warm it up, then present an epoch gap and a duplicate:
        // rejected, epoch and engine untouched.
        shard.handle_frame(
            Slot::new(1),
            1,
            Some(c.clone()),
            &spot,
            vec![market(50.0, vec![bid(0)])],
        );
        let before = shard.cache_stats();
        for epoch in [7, 1, 0] {
            let reply = shard.handle_frame(
                Slot::new(2),
                epoch,
                None,
                &spot,
                vec![market(50.0, vec![step_bid(1)])],
            );
            assert_eq!(reply, resync(2, 1), "epoch {epoch}");
        }
        assert_eq!(shard.epoch(), 1);
        assert_eq!(shard.cache_stats(), before);

        // The session is intact: the in-sequence frame still lands, and
        // a statics-bearing one is adopted at any epoch.
        let reply = shard.handle_frame(
            Slot::new(2),
            2,
            None,
            &spot,
            vec![market(45.0, vec![bid(0)])],
        );
        assert!(matches!(reply, WireMsg::ShardCleared { epoch: 2, .. }));
        let reply = shard.handle_frame(Slot::new(3), 9, Some(c), &spot, Vec::new());
        assert!(matches!(reply, WireMsg::ShardCleared { epoch: 9, .. }));
        assert_eq!(shard.epoch(), 9);
    }

    #[test]
    fn agent_loop_assigns_then_clears_in_task_order() {
        let mut agent = AgentLoop::new();
        assert_eq!(
            agent.handle(WireMsg::AssignShard {
                shard: 0,
                shard_count: 1,
                clearing: ClearingConfig::default(),
            }),
            None
        );
        let gains: BTreeMap<RackId, ConcaveGain> =
            [(RackId::new(0), ConcaveGain::new(vec![(20.0, 2.0)]).unwrap())]
                .into_iter()
                .collect();
        let c = constraints();
        let reply = agent
            .handle(WireMsg::SlotFrame {
                slot: Slot::new(5),
                epoch: 1,
                statics: Some(c.clone()),
                pdu_spot: c.pdu_spots().to_vec(),
                tasks: vec![
                    market(50.0, vec![bid(0)]),
                    TaskShip::MaxPerf {
                        ups_spot: Watts::new(30.0),
                        gains,
                    },
                ],
            })
            .expect("a slot frame demands a reply");
        let WireMsg::ShardCleared { slot, results, .. } = reply else {
            panic!("expected ShardCleared, got {reply:?}");
        };
        assert_eq!(slot, Slot::new(5));
        assert_eq!(results.len(), 2);
        assert!(matches!(results[0], ClearResult::Market(_)));
        assert!(matches!(results[1], ClearResult::MaxPerf(_)));
    }

    #[test]
    fn oversized_bid_off_the_wire_clears_in_a_bounded_scan() {
        // Agents run no admission: a bid decoded off the pipe with a
        // 3 000 $/kW/h cap asks for three million candidates at the
        // default step. The engine scans at most 2^14 of them and the
        // market clears inside that range, Eqns. 2–4 intact.
        let c = constraints();
        let absurd = RackBid::new(
            RackId::new(1),
            StepBid::new(Watts::new(25.0), Price::per_kw_hour(3_000.0))
                .unwrap()
                .into(),
        );
        let bids = vec![bid(0), absurd];
        let frame = WireMsg::SlotFrame {
            slot: Slot::new(5),
            epoch: 1,
            statics: Some(c.clone()),
            pdu_spot: c.pdu_spots().to_vec(),
            tasks: vec![market(50.0, bids.clone())],
        };
        let mut agent = AgentLoop::new();
        agent.handle(WireMsg::AssignShard {
            shard: 0,
            shard_count: 1,
            clearing: ClearingConfig::default(),
        });
        let reply = agent
            .handle(WireMsg::decode(&frame.encode()).expect("round trip"))
            .expect("a slot frame demands a reply");
        assert_eq!(WireMsg::decode(&reply.encode()).as_ref(), Ok(&reply));
        let WireMsg::ShardCleared { results, .. } = reply else {
            panic!("expected ShardCleared, got {reply:?}");
        };
        let [ClearResult::Market(outcome)] = &results[..] else {
            panic!("expected one market result, got {results:?}");
        };
        assert!(
            outcome.candidates_evaluated() <= 1 << 14,
            "{} candidates",
            outcome.candidates_evaluated()
        );
        assert_eq!(outcome.allocation().grant(RackId::new(1)), Watts::new(25.0));
        let local = c.with_ups_spot(Watts::new(50.0));
        assert_eq!(
            check_allocation(&local, outcome.allocation(), &bids, true),
            vec![]
        );
    }

    #[test]
    fn unassigned_agent_answers_frames_with_resync_needed() {
        let mut agent = AgentLoop::new();
        let reply = agent.handle(WireMsg::SlotFrame {
            slot: Slot::new(1),
            epoch: 1,
            statics: None,
            pdu_spot: Vec::new(),
            tasks: vec![market(50.0, vec![bid(0)])],
        });
        assert_eq!(
            reply,
            Some(WireMsg::ResyncNeeded {
                slot: Slot::new(1),
                epoch: 0,
            })
        );
    }
}
