//! The agent side of the split: a stateful per-shard clearing session
//! plus the message loop that drives it, shared by every transport.

use std::collections::BTreeMap;

use spotdc_core::{
    max_perf_allocate, ClearResult, ClearingCacheStats, ClearingConfig, ConcaveGain, ConstraintSet,
    MarketClearing, RackBid, TaskShip, WireMsg,
};
use spotdc_units::{RackId, Slot, Watts};

/// What a shard holds for one task position between slots: the previous
/// accepted frame's bids/gains, which the next frame's delta variants
/// mutate in place.
#[derive(Debug)]
enum HeldTask {
    /// A market sub-task's full bid book.
    Market { bids: Vec<RackBid> },
    /// A MaxPerf task's gain envelopes.
    MaxPerf {
        gains: BTreeMap<RackId, ConcaveGain>,
    },
}

/// One shard's clearing *session*: the static constraint layers adopted
/// at the last resync, a held bid book and a warm [`MarketClearing`]
/// engine per task position, and the session epoch that guards delta
/// application.
///
/// A shard still computes nothing but pure task→result clears — all
/// cross-slot *market* state (bank balances, meters, emergencies) lives
/// at the controller. What the session retains is purely a transmission
/// and caching optimization: held books let the controller ship deltas,
/// and per-position engines keep the columnar bid-book fingerprint
/// cache warm so a remote re-clear hits exactly like a local one. Every
/// frame is **validated before anything mutates**: a frame the session
/// cannot absorb (epoch gap, kind mismatch, out-of-range delta) is
/// answered with [`WireMsg::ResyncNeeded`] and leaves the session
/// untouched, which is what keeps reports byte-identical across shard
/// counts, transports, and resync storms.
#[derive(Debug)]
pub struct MarketShard {
    id: u64,
    count: u64,
    config: ClearingConfig,
    epoch: u64,
    /// The session constraint set: static layers from the last
    /// statics-bearing frame, per-PDU spot overwritten each frame, UPS
    /// spot overwritten per task. `None` until the first resync frame.
    session: Option<ConstraintSet>,
    /// Held state and a warm engine per task position.
    held: Vec<(HeldTask, MarketClearing)>,
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
            config,
            epoch: 0,
            session: None,
            held: Vec::new(),
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

    /// Cumulative clearing-cache counters summed across this shard's
    /// per-position engines.
    #[must_use]
    pub fn cache_stats(&self) -> ClearingCacheStats {
        let mut sum = ClearingCacheStats::default();
        for (_, engine) in &self.held {
            let s = engine.cache_stats();
            sum.full_sweeps += s.full_sweeps;
            sum.cache_hits += s.cache_hits;
            sum.legacy_scans += s.legacy_scans;
            sum.candidates_total += s.candidates_total;
            sum.candidates_swept += s.candidates_swept;
        }
        sum
    }

    /// Applies one slot frame and returns the reply: a
    /// [`WireMsg::ShardCleared`] with one result per task in task
    /// order, or [`WireMsg::ResyncNeeded`] if the session cannot absorb
    /// the frame — in which case *nothing* was mutated and the
    /// controller must re-send the slot as a full statics-bearing
    /// frame.
    pub fn handle_frame(
        &mut self,
        slot: Slot,
        epoch: u64,
        statics: Option<ConstraintSet>,
        pdu_spot: &[Watts],
        tasks: Vec<TaskShip>,
    ) -> WireMsg {
        if !self.frame_is_absorbable(epoch, statics.is_some(), &tasks) {
            return WireMsg::ResyncNeeded {
                slot,
                epoch: self.epoch,
            };
        }
        // Validated: apply. Adopt statics, advance the epoch, refresh
        // the per-slot PDU spot vector, then clear task by task.
        if let Some(s) = statics {
            self.session = Some(s);
        }
        self.epoch = epoch;
        if let Some(session) = &mut self.session {
            session.set_pdu_spot(pdu_spot);
        }
        // A new position is always overwritten by a `*Full` ship below:
        // validation rejected any delta aimed past the held positions.
        self.held.resize_with(tasks.len(), || {
            let placeholder = HeldTask::Market { bids: Vec::new() };
            (placeholder, MarketClearing::new(self.config))
        });
        let mut results = Vec::with_capacity(tasks.len());
        for (j, ship) in tasks.into_iter().enumerate() {
            let (held, engine) = &mut self.held[j];
            results.push(match ship {
                TaskShip::MarketFull { ups_spot, bids } => {
                    *held = HeldTask::Market { bids };
                    let session = self.session.as_mut().expect("validated");
                    session.set_ups_spot(ups_spot);
                    let HeldTask::Market { bids } = held else {
                        unreachable!()
                    };
                    ClearResult::Market(engine.clear(slot, bids, session))
                }
                TaskShip::MarketDelta {
                    ups_spot,
                    truncate_to,
                    changed,
                    appended,
                } => {
                    let HeldTask::Market { bids } = held else {
                        unreachable!("validated")
                    };
                    bids.truncate(truncate_to as usize);
                    for (pos, bid) in changed {
                        bids[pos as usize] = bid;
                    }
                    bids.extend(appended);
                    let session = self.session.as_mut().expect("validated");
                    session.set_ups_spot(ups_spot);
                    ClearResult::Market(engine.clear(slot, bids, session))
                }
                TaskShip::MaxPerfFull { ups_spot, gains } => {
                    *held = HeldTask::MaxPerf { gains };
                    let session = self.session.as_mut().expect("validated");
                    session.set_ups_spot(ups_spot);
                    let HeldTask::MaxPerf { gains } = held else {
                        unreachable!()
                    };
                    ClearResult::MaxPerf(max_perf_allocate(gains, session))
                }
                TaskShip::MaxPerfDelta { ups_spot } => {
                    let HeldTask::MaxPerf { gains } = held else {
                        unreachable!("validated")
                    };
                    let session = self.session.as_mut().expect("validated");
                    session.set_ups_spot(ups_spot);
                    ClearResult::MaxPerf(max_perf_allocate(gains, session))
                }
            });
        }
        WireMsg::ShardCleared {
            slot,
            epoch: self.epoch,
            results,
            cache: self.cache_stats(),
        }
    }

    /// The validate half of validate-then-apply: whether every task in
    /// the frame can land on the current session state. Every frame
    /// needs statics (carried or held, with exact epoch continuity when
    /// held); delta tasks additionally need a kind-matched held
    /// position and in-range edit positions.
    fn frame_is_absorbable(&self, epoch: u64, has_statics: bool, tasks: &[TaskShip]) -> bool {
        if !has_statics && (self.session.is_none() || epoch != self.epoch + 1) {
            return false;
        }
        tasks.iter().enumerate().all(|(j, ship)| match ship {
            TaskShip::MarketFull { .. } | TaskShip::MaxPerfFull { .. } => true,
            TaskShip::MarketDelta {
                truncate_to,
                changed,
                ..
            } => match self.held.get(j) {
                Some((HeldTask::Market { bids }, _)) => {
                    *truncate_to <= bids.len() as u64
                        && changed.iter().all(|(pos, _)| pos < truncate_to)
                }
                _ => false,
            },
            TaskShip::MaxPerfDelta { .. } => {
                matches!(self.held.get(j), Some((HeldTask::MaxPerf { .. }, _)))
            }
        })
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
/// re-sends in full or, if that fails too, degrades the shard instead
/// of hanging.
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

    use spotdc_core::{LinearBid, StepBid};
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Price, TenantId};

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

    #[test]
    fn full_then_delta_matches_a_direct_clearing_engine() {
        let mut shard = MarketShard::new(0, 2, ClearingConfig::default());
        let direct = MarketClearing::new(ClearingConfig::default());
        let c = constraints();
        let spot: Vec<Watts> = c.pdu_spots().to_vec();

        // Resync frame: statics + full bids.
        let reply = shard.handle_frame(
            Slot::new(3),
            1,
            Some(c.clone()),
            &spot,
            vec![TaskShip::MarketFull {
                ups_spot: Watts::new(50.0),
                bids: vec![bid(0)],
            }],
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

        // Delta frame: swap the bid, keep the statics held.
        let reply = shard.handle_frame(
            Slot::new(4),
            2,
            None,
            &spot,
            vec![TaskShip::MarketDelta {
                ups_spot: Watts::new(45.0),
                truncate_to: 1,
                changed: vec![(0, step_bid(1))],
                appended: vec![bid(0)],
            }],
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
        assert_eq!(shard.id(), 0);
        assert_eq!(shard.shard_count(), 2);
    }

    #[test]
    fn unabsorbable_frames_resync_without_mutating() {
        let mut shard = MarketShard::new(0, 1, ClearingConfig::default());
        let c = constraints();
        let spot: Vec<Watts> = c.pdu_spots().to_vec();

        // Cold session: a statics-less session frame is rejected.
        let reply = shard.handle_frame(
            Slot::new(1),
            1,
            None,
            &spot,
            vec![TaskShip::MarketFull {
                ups_spot: Watts::new(50.0),
                bids: vec![bid(0)],
            }],
        );
        assert_eq!(
            reply,
            WireMsg::ResyncNeeded {
                slot: Slot::new(1),
                epoch: 0,
            }
        );

        // Warm it up, then present an epoch gap: rejected, epoch held.
        shard.handle_frame(
            Slot::new(1),
            1,
            Some(c.clone()),
            &spot,
            vec![TaskShip::MarketFull {
                ups_spot: Watts::new(50.0),
                bids: vec![bid(0)],
            }],
        );
        let reply = shard.handle_frame(
            Slot::new(2),
            7,
            None,
            &spot,
            vec![TaskShip::MarketDelta {
                ups_spot: Watts::new(50.0),
                truncate_to: 1,
                changed: Vec::new(),
                appended: Vec::new(),
            }],
        );
        assert_eq!(
            reply,
            WireMsg::ResyncNeeded {
                slot: Slot::new(2),
                epoch: 1,
            }
        );
        assert_eq!(shard.epoch(), 1);

        // A delta against a kind-mismatched position is rejected too.
        let reply = shard.handle_frame(
            Slot::new(2),
            2,
            None,
            &spot,
            vec![TaskShip::MaxPerfDelta {
                ups_spot: Watts::new(50.0),
            }],
        );
        assert_eq!(
            reply,
            WireMsg::ResyncNeeded {
                slot: Slot::new(2),
                epoch: 1,
            }
        );

        // An out-of-range delta edit is rejected without mutating.
        let reply = shard.handle_frame(
            Slot::new(2),
            2,
            None,
            &spot,
            vec![TaskShip::MarketDelta {
                ups_spot: Watts::new(50.0),
                truncate_to: 5,
                changed: Vec::new(),
                appended: Vec::new(),
            }],
        );
        assert_eq!(
            reply,
            WireMsg::ResyncNeeded {
                slot: Slot::new(2),
                epoch: 1,
            }
        );

        // The session is intact: the in-sequence delta still lands.
        let reply = shard.handle_frame(
            Slot::new(2),
            2,
            None,
            &spot,
            vec![TaskShip::MarketDelta {
                ups_spot: Watts::new(45.0),
                truncate_to: 1,
                changed: Vec::new(),
                appended: Vec::new(),
            }],
        );
        assert!(matches!(reply, WireMsg::ShardCleared { epoch: 2, .. }));
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
                    TaskShip::MarketFull {
                        ups_spot: Watts::new(50.0),
                        bids: vec![bid(0)],
                    },
                    TaskShip::MaxPerfFull {
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
    fn unassigned_agent_answers_frames_with_resync_needed() {
        let mut agent = AgentLoop::new();
        let reply = agent.handle(WireMsg::SlotFrame {
            slot: Slot::new(1),
            epoch: 1,
            statics: None,
            pdu_spot: Vec::new(),
            tasks: vec![TaskShip::MarketFull {
                ups_spot: Watts::new(50.0),
                bids: vec![bid(0)],
            }],
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
