//! The agent side of the split: [`serve`], the one loop every shard
//! agent runs, and the [`AgentLoop`] state machine it drives.

use std::io::{self, BufReader, BufWriter, Read, Write};

use spotdc_core::{frame, MarketClearing, WireMsg};

/// Serves the wire protocol until `Shutdown`: reads frames from `input`
/// and writes each reply frame to `output`, flushed. Both transports
/// run this loop — an in-process agent thread over a pipe pair, the
/// `spotdc-agent` binary over its stdin/stdout — so an agent behaves
/// the same wherever it runs.
///
/// # Errors
///
/// A torn or corrupt frame, a payload that does not decode, a protocol
/// error from [`AgentLoop::handle`], end of input without `Shutdown`,
/// or a failed write. The loop stops at the first one, and dropping the
/// streams is what tells the controller the shard is dead.
pub fn serve(input: impl Read, output: impl Write) -> io::Result<()> {
    let mut input = BufReader::new(input);
    let mut output = BufWriter::new(output);
    let mut agent = AgentLoop::new();
    // One recycled buffer per direction: frames arrive and leave every
    // slot.
    let mut payload = Vec::new();
    let mut reply_payload = Vec::new();
    loop {
        if !frame::read_frame_into(&mut input, &mut payload)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "controller closed the stream without Shutdown",
            ));
        }
        let msg = WireMsg::decode(&payload).map_err(|e| invalid(e.to_string()))?;
        if matches!(msg, WireMsg::Shutdown) {
            return Ok(());
        }
        if let Some(reply) = agent.handle(msg)? {
            reply_payload = reply.encode_into(reply_payload);
            frame::write_frame(&mut output, &reply_payload)?;
            output.flush()?;
        }
    }
}

/// The agent-side state machine [`serve`] drives, one message at a
/// time.
///
/// An agent computes nothing but pure task→outcome clears, and it
/// answers each [`SlotFrame`](WireMsg::SlotFrame) from that frame
/// alone: the frame's tasks clear against the frame's constraint set on
/// the [`MarketClearing`] that [`AssignShard`](WireMsg::AssignShard)
/// built. All cross-slot *market* state (bank balances, meters,
/// emergencies) lives at the controller, so a restarted agent needs
/// only the handshake.
#[derive(Debug, Default)]
pub struct AgentLoop {
    /// The engine `AssignShard` built; `None` until it arrives.
    engine: Option<MarketClearing>,
}

impl AgentLoop {
    /// A fresh, unassigned agent.
    #[must_use]
    pub fn new() -> Self {
        AgentLoop { engine: None }
    }

    /// Handles one message, returning the reply to send back when the
    /// message warrants one. [`WireMsg::Shutdown`] is the caller's
    /// concern (it ends [`serve`], not this state machine), and a stray
    /// agent→controller message is ignored.
    ///
    /// # Errors
    ///
    /// A slot frame that arrives before `AssignShard`, or that bids for
    /// a rack twice in one market or for a rack its constraint set does
    /// not know, is a protocol error: [`serve`] returns it and closes
    /// the stream, and the controller treats the shard as dead (and
    /// respawns it) like any other transport failure.
    pub fn handle(&mut self, msg: WireMsg) -> io::Result<Option<WireMsg>> {
        match msg {
            WireMsg::AssignShard { clearing } => {
                self.engine = Some(MarketClearing::new(clearing));
                Ok(None)
            }
            WireMsg::SlotFrame {
                slot,
                mut constraints,
                tasks,
            } => {
                let engine = self
                    .engine
                    .as_ref()
                    .ok_or_else(|| invalid("slot frame before AssignShard"))?;
                // Clearing prices over every bid in a market but grants
                // a rack one, so a rack bid twice in one market would
                // sell watts it never grants.
                let mut seen = vec![false; constraints.rack_count()];
                for task in &tasks {
                    for bid in &task.bids {
                        let rack = bid.rack();
                        if constraints.pdu_of(rack).is_none() {
                            return Err(invalid(format!("slot frame bids for unknown {rack}")));
                        }
                        if std::mem::replace(&mut seen[rack.index()], true) {
                            return Err(invalid(format!("slot frame bids for {rack} twice")));
                        }
                    }
                    for bid in &task.bids {
                        seen[bid.rack().index()] = false;
                    }
                }
                Ok(Some(WireMsg::ShardCleared {
                    slot,
                    results: engine.clear_tasks(slot, &mut constraints, &tasks),
                    cache: engine.cache_stats(),
                }))
            }
            WireMsg::ShardCleared { .. } | WireMsg::Shutdown => Ok(None),
        }
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    use spotdc_core::{
        check_allocation, ClearingConfig, ConstraintSet, LinearBid, RackBid, StepBid, TaskShip,
    };
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

    fn constraints(pdu_spot: f64) -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(80.0), Watts::new(40.0))
            .build()
            .unwrap();
        ConstraintSet::new(&topo, vec![Watts::new(pdu_spot)], Watts::new(60.0))
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
        TaskShip {
            ups_spot: Watts::new(ups),
            bids,
        }
    }

    fn assigned() -> AgentLoop {
        let mut agent = AgentLoop::new();
        let reply = agent.handle(WireMsg::AssignShard {
            clearing: ClearingConfig::default(),
        });
        assert!(matches!(reply, Ok(None)), "{reply:?}");
        agent
    }

    #[test]
    fn each_frame_clears_against_its_own_constraints_in_task_order() {
        let mut agent = assigned();
        let direct = MarketClearing::new(ClearingConfig::default());
        // Two frames with different constraint sets and books: each
        // answer is the direct clear of that frame, task by task.
        for (s, pdu_spot, tasks) in [
            (3, 60.0, vec![market(50.0, vec![bid(0)])]),
            (
                4,
                35.0,
                vec![
                    market(45.0, vec![step_bid(1), bid(0)]),
                    market(20.0, vec![bid(1)]),
                ],
            ),
        ] {
            let slot = Slot::new(s);
            let c = constraints(pdu_spot);
            let want: Vec<_> = tasks
                .iter()
                .map(|t| direct.clear(slot, &t.bids, &c.clone().with_ups_spot(t.ups_spot)))
                .collect();
            let reply = agent
                .handle(WireMsg::SlotFrame {
                    slot,
                    constraints: c,
                    tasks,
                })
                .unwrap();
            let Some(WireMsg::ShardCleared {
                slot: got_slot,
                results,
                cache,
            }) = reply
            else {
                panic!("expected ShardCleared, got {reply:?}");
            };
            assert_eq!(got_slot, slot);
            assert_eq!(results, want, "slot {s}");
            assert_eq!(cache, direct.cache_stats(), "slot {s}");
        }
    }

    #[test]
    fn oversized_bid_off_the_wire_clears_in_a_bounded_scan() {
        // Agents run no admission: a bid decoded off the pipe with a
        // 3 000 $/kW/h cap asks for three million candidates at the
        // default step. The engine scans at most 2^14 of them and the
        // market clears inside that range, Eqns. 2–4 intact.
        let c = constraints(60.0);
        let absurd = RackBid::new(
            RackId::new(1),
            StepBid::new(Watts::new(25.0), Price::per_kw_hour(3_000.0))
                .unwrap()
                .into(),
        );
        let bids = vec![bid(0), absurd];
        let frame = WireMsg::SlotFrame {
            slot: Slot::new(5),
            constraints: c.clone(),
            tasks: vec![market(50.0, bids.clone())],
        };
        let reply = assigned()
            .handle(WireMsg::decode(&frame.encode()).expect("round trip"))
            .unwrap()
            .expect("a slot frame demands a reply");
        assert_eq!(WireMsg::decode(&reply.encode()).as_ref(), Ok(&reply));
        let WireMsg::ShardCleared { results, .. } = reply else {
            panic!("expected ShardCleared, got {reply:?}");
        };
        let [outcome] = &results[..] else {
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
    fn a_rack_bid_twice_or_unknown_is_a_protocol_error() {
        for (tasks, what) in [
            (vec![market(50.0, vec![bid(0), step_bid(0)])], "twice"),
            (
                vec![
                    market(20.0, vec![bid(1)]),
                    market(50.0, vec![bid(1), bid(1)]),
                ],
                "twice",
            ),
            (
                vec![market(50.0, vec![bid(0)]), market(50.0, vec![bid(2)])],
                "unknown",
            ),
        ] {
            let err = assigned()
                .handle(WireMsg::SlotFrame {
                    slot: Slot::new(1),
                    constraints: constraints(60.0),
                    tasks,
                })
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn a_frame_before_assign_shard_is_a_protocol_error() {
        let mut agent = AgentLoop::new();
        let err = agent
            .handle(WireMsg::SlotFrame {
                slot: Slot::new(1),
                constraints: constraints(60.0),
                tasks: vec![market(50.0, vec![bid(0)])],
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("AssignShard"), "{err}");
    }

    /// `msgs` framed back to back, as a controller writes them.
    fn stream(msgs: &[WireMsg]) -> Vec<u8> {
        let mut out = Vec::new();
        for msg in msgs {
            frame::write_frame(&mut out, &msg.encode()).unwrap();
        }
        out
    }

    fn assign() -> WireMsg {
        WireMsg::AssignShard {
            clearing: ClearingConfig::default(),
        }
    }

    fn slot_frame(tasks: Vec<TaskShip>) -> WireMsg {
        WireMsg::SlotFrame {
            slot: Slot::new(7),
            constraints: constraints(60.0),
            tasks,
        }
    }

    #[test]
    fn serve_stops_cleanly_at_shutdown() {
        let mut out = Vec::new();
        serve(&stream(&[WireMsg::Shutdown])[..], &mut out).unwrap();
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn serve_writes_the_agent_loops_reply_as_one_frame() {
        let frame_msg = slot_frame(vec![market(50.0, vec![bid(0), step_bid(1)])]);
        let want = assigned()
            .handle(frame_msg.clone())
            .unwrap()
            .expect("a slot frame demands a reply");
        let mut out = Vec::new();
        serve(
            &stream(&[assign(), frame_msg, WireMsg::Shutdown])[..],
            &mut out,
        )
        .unwrap();
        let mut replies = &out[..];
        let payload = frame::read_frame(&mut replies)
            .unwrap()
            .expect("one reply frame");
        assert_eq!(WireMsg::decode(&payload), Ok(want));
        assert!(replies.is_empty(), "more than one reply frame");
    }

    #[test]
    fn serve_ends_at_a_protocol_error_without_replying() {
        for msgs in [
            vec![slot_frame(vec![market(50.0, vec![bid(0)])])],
            vec![
                assign(),
                slot_frame(vec![market(50.0, vec![bid(0), step_bid(0)])]),
            ],
        ] {
            let mut out = Vec::new();
            let mut input = stream(&msgs);
            input.extend(stream(&[WireMsg::Shutdown]));
            let err = serve(&input[..], &mut out).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(out.is_empty(), "{out:?}");
        }
    }

    #[test]
    fn a_torn_frame_or_a_stream_without_shutdown_is_an_error() {
        let whole = stream(&[assign(), WireMsg::Shutdown]);
        let err = serve(&whole[..whole.len() - 1], Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("torn"), "{err}");
        let err = serve(&stream(&[assign()])[..], Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }
}
