//! The flat reference model: a hash-map HPA→DPA mirror with
//! version-shadowed segment contents and a trivial power-state ledger.
//!
//! The oracle consumes the device's committed command stream
//! ([`DeviceCommand`]) plus the harness-level access outcomes, and keeps a
//! model simple enough to be obviously correct: two hash maps for the
//! mapping, one shadow word per segment for contents, one enum per rank
//! for power. Every structural assumption is re-checked as the stream is
//! applied, so an incoherent stream (the signature of a device bug) is
//! caught at the first bad command, not at the next full check.

use std::fmt;

use dtl_core::{DeviceCommand, Dsn, Hsn, SegmentGeometry};
use dtl_dram::{FastMap, FastSet, Picos, PowerState};

/// A cross-check failure: the device and the reference model disagree, or
/// the device's own command stream is incoherent.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The committed command stream contradicts the model (e.g. a remap
    /// whose source the model believes is unmapped).
    StreamIncoherent {
        /// What was wrong.
        detail: String,
    },
    /// Device and oracle disagree on the number of mapped segments.
    CountMismatch {
        /// Device's mapped-segment count.
        device: u64,
        /// Oracle's mapped-segment count.
        oracle: u64,
    },
    /// A device reverse-table entry disagrees with the oracle's flat map
    /// (or maps an HSN the oracle believes dead — a bijectivity break).
    ForwardMismatch {
        /// The host segment.
        hsn: Hsn,
        /// What the device maps it to (None: unmapped).
        device: Option<Dsn>,
        /// What the oracle maps it to (None: unmapped).
        oracle: Option<Dsn>,
    },
    /// A side-effect-free table walk returned a different DSN than the
    /// oracle (forward table diverged from the reverse table the device
    /// reports).
    ProbeMismatch {
        /// The host segment probed.
        hsn: Hsn,
        /// The device's forward-walk answer.
        probe: Option<Dsn>,
        /// The oracle's answer.
        oracle: Dsn,
    },
    /// Per-rank residency accounting broke: fewer allocated slots than
    /// live (mapped) segments, or allocated + free ≠ rank capacity.
    ResidencyMismatch {
        /// Channel index.
        channel: u32,
        /// Rank index.
        rank: u32,
        /// What was inconsistent.
        detail: String,
    },
    /// Device-wide `allocated != mapped + pending copy reservations`.
    ReservationImbalance {
        /// Allocated segments (all ranks).
        allocated: u64,
        /// Oracle-live (mapped) segments.
        mapped: u64,
        /// Copy migrations holding a destination reservation.
        reserved: u64,
    },
    /// The power ledger replayed from the event stream disagrees with the
    /// rank state the device reports.
    PowerLedgerMismatch {
        /// Channel index.
        channel: u32,
        /// Rank index.
        rank: u32,
        /// Ledger state.
        ledger: PowerState,
        /// Device state.
        device: PowerState,
    },
    /// The command stream carries a power transition the legal-transition
    /// graph forbids (e.g. a rung skip straight from active power-down to
    /// self-refresh, or any hop into/out of MPSM that bypasses standby).
    IllegalTransition {
        /// Channel index.
        channel: u32,
        /// Rank index.
        rank: u32,
        /// State before.
        from: PowerState,
        /// Forbidden target state.
        to: PowerState,
    },
    /// A live (mapped) segment sits in a rank the ledger has in MPSM —
    /// its data is gone.
    MappedInMpsm {
        /// The segment.
        dsn: Dsn,
        /// Its owner.
        hsn: Hsn,
        /// Channel index.
        channel: u32,
        /// Rank index.
        rank: u32,
    },
    /// An access was served by a rank that never woke from
    /// MPSM/self-refresh (no wake transition appeared in the stream).
    AccessToSleepingRank {
        /// The segment accessed.
        dsn: Dsn,
        /// Channel index.
        channel: u32,
        /// Rank index.
        rank: u32,
        /// The ledger state that should have been exited.
        state: PowerState,
    },
    /// A read was served from a segment whose shadowed content does not
    /// match the last value the host wrote (data moved without the
    /// mapping, or vice versa).
    ContentMismatch {
        /// The host segment read.
        hsn: Hsn,
        /// The device segment that served it.
        dsn: Dsn,
        /// Shadow word the host last wrote.
        expected: u64,
        /// Shadow word the model holds at `dsn`.
        found: u64,
    },
    /// After quiescing, the model holds content for a segment no HSN maps
    /// — a torn migration leaked data (or a mapping vanished without its
    /// removal command).
    ContentLeak {
        /// The orphaned segment.
        dsn: Dsn,
    },
    /// The per-rank residency clock does not sum to elapsed time.
    ResidencyClock {
        /// Channel index.
        channel: u32,
        /// Rank index.
        rank: u32,
        /// Sum over the five power states.
        sum: Picos,
        /// Backend now.
        now: Picos,
    },
    /// The device's own internal invariant check failed.
    DeviceInternal {
        /// The device error text.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::StreamIncoherent { detail } => {
                write!(f, "incoherent command stream: {detail}")
            }
            Violation::CountMismatch { device, oracle } => {
                write!(f, "mapped-count mismatch: device {device}, oracle {oracle}")
            }
            Violation::ForwardMismatch { hsn, device, oracle } => {
                write!(f, "mapping mismatch at {hsn}: device {device:?}, oracle {oracle:?}")
            }
            Violation::ProbeMismatch { hsn, probe, oracle } => {
                write!(f, "probe mismatch at {hsn}: forward walk {probe:?}, oracle {oracle}")
            }
            Violation::ResidencyMismatch { channel, rank, detail } => {
                write!(f, "residency broken on ch{channel}/rk{rank}: {detail}")
            }
            Violation::ReservationImbalance { allocated, mapped, reserved } => {
                write!(f, "allocated {allocated} != mapped {mapped} + copy reservations {reserved}")
            }
            Violation::PowerLedgerMismatch { channel, rank, ledger, device } => {
                write!(f, "power ledger ch{channel}/rk{rank}: ledger {ledger:?}, device {device:?}")
            }
            Violation::IllegalTransition { channel, rank, from, to } => {
                write!(f, "illegal power transition ch{channel}/rk{rank}: {from:?} -> {to:?}")
            }
            Violation::MappedInMpsm { dsn, hsn, channel, rank } => {
                write!(f, "live segment {dsn} ({hsn}) in MPSM rank ch{channel}/rk{rank}")
            }
            Violation::AccessToSleepingRank { dsn, channel, rank, state } => {
                write!(f, "access to {dsn} served by ch{channel}/rk{rank} still in {state:?}")
            }
            Violation::ContentMismatch { hsn, dsn, expected, found } => {
                write!(
                    f,
                    "content mismatch reading {hsn} from {dsn}: expected {expected:#x}, \
                     found {found:#x}"
                )
            }
            Violation::ContentLeak { dsn } => {
                write!(f, "content leaked at unmapped segment {dsn}")
            }
            Violation::ResidencyClock { channel, rank, sum, now } => {
                write!(f, "residency clock ch{channel}/rk{rank}: states sum {sum}, now {now}")
            }
            Violation::DeviceInternal { detail } => {
                write!(f, "device internal invariant: {detail}")
            }
        }
    }
}

/// One shadowed segment word: the value and a global write version, so
/// movement events can never resurrect stale data unnoticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shadow {
    value: u64,
    version: u64,
}

/// The reference model. See the module docs.
#[derive(Debug)]
pub struct Oracle {
    geo: SegmentGeometry,
    /// Flat HPA→DPA map (HSN granularity).
    forward: FastMap<Hsn, Dsn>,
    /// DPA→HPA, kept in lockstep with `forward`.
    reverse: FastMap<Dsn, Hsn>,
    /// Shadowed segment contents, keyed by device segment.
    content: FastMap<Dsn, Shadow>,
    /// The content each host segment should read back.
    expected: FastMap<Hsn, Shadow>,
    /// Host segments with a write that raced a migration (routed away
    /// from the mapped segment): content checks pause until the migration
    /// resolves or the device quiesces.
    dirty: FastSet<Hsn>,
    /// Per-rank power ledger, `channel * ranks_per_channel + rank`.
    power: Vec<PowerState>,
    /// Commands applied so far.
    applied: u64,
}

impl Oracle {
    /// An empty model for `geo`; every rank starts in standby, matching
    /// the backends.
    pub fn new(geo: SegmentGeometry) -> Self {
        Oracle {
            geo,
            forward: FastMap::default(),
            reverse: FastMap::default(),
            content: FastMap::default(),
            expected: FastMap::default(),
            dirty: FastSet::default(),
            power: vec![PowerState::Standby; (geo.channels * geo.ranks_per_channel) as usize],
            applied: 0,
        }
    }

    /// Commands applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Mapped (live) segments.
    pub fn mapped_segments(&self) -> u64 {
        self.forward.len() as u64
    }

    /// The oracle's translation of `hsn`.
    pub fn translate(&self, hsn: Hsn) -> Option<Dsn> {
        self.forward.get(&hsn).copied()
    }

    /// Iterates the flat map.
    pub fn iter_forward(&self) -> impl Iterator<Item = (Hsn, Dsn)> + '_ {
        self.forward.iter().map(|(h, d)| (*h, *d))
    }

    /// The ledger's power state for a rank.
    pub fn power_state(&self, channel: u32, rank: u32) -> PowerState {
        self.power[(channel * self.geo.ranks_per_channel + rank) as usize]
    }

    /// Live segments per rank, `(channel, rank)`-indexed.
    pub fn mapped_per_rank(&self) -> Vec<u64> {
        let mut counts = vec![0u64; (self.geo.channels * self.geo.ranks_per_channel) as usize];
        for dsn in self.reverse.keys() {
            let loc = self.geo.location(*dsn);
            counts[(loc.channel * self.geo.ranks_per_channel + loc.rank) as usize] += 1;
        }
        counts
    }

    /// Applies one committed device command, validating it against the
    /// model.
    ///
    /// # Errors
    ///
    /// [`Violation::StreamIncoherent`] when the command contradicts the
    /// model's current state.
    pub fn apply(&mut self, cmd: &DeviceCommand) -> Result<(), Violation> {
        self.applied += 1;
        match cmd {
            DeviceCommand::AuCreated { host, au, dsns, .. } => {
                for (off, dsn) in dsns.iter().enumerate() {
                    let hsn = Hsn { host: *host, au: *au, au_offset: off as u32 };
                    if let Some(owner) = self.reverse.get(dsn) {
                        return Err(Violation::StreamIncoherent {
                            detail: format!("AU create reuses {dsn}, still owned by {owner}"),
                        });
                    }
                    if self.forward.contains_key(&hsn) {
                        return Err(Violation::StreamIncoherent {
                            detail: format!("AU create reuses live {hsn}"),
                        });
                    }
                    self.forward.insert(hsn, *dsn);
                    self.reverse.insert(*dsn, hsn);
                    // Freshly allocated segments read back an hsn-derived
                    // tag until the host writes them.
                    let tag = Shadow { value: initial_tag(hsn), version: 0 };
                    self.expected.insert(hsn, tag);
                    self.content.insert(*dsn, tag);
                }
                Ok(())
            }
            DeviceCommand::AuRemoved { host, au, dsns, .. } => {
                for (off, dsn) in dsns.iter().enumerate() {
                    let hsn = Hsn { host: *host, au: *au, au_offset: off as u32 };
                    match self.forward.get(&hsn) {
                        Some(d) if d == dsn => {}
                        other => {
                            return Err(Violation::StreamIncoherent {
                                detail: format!(
                                    "AU remove of {hsn} claims {dsn}, model says {other:?}"
                                ),
                            });
                        }
                    }
                    self.forward.remove(&hsn);
                    self.reverse.remove(dsn);
                    self.content.remove(dsn);
                    self.expected.remove(&hsn);
                    self.dirty.remove(&hsn);
                }
                Ok(())
            }
            DeviceCommand::Remap { hsn, from, to, .. } => {
                match self.forward.get(hsn) {
                    Some(d) if d == from => {}
                    other => {
                        return Err(Violation::StreamIncoherent {
                            detail: format!("remap of {hsn} claims {from}, model says {other:?}"),
                        });
                    }
                }
                if let Some(owner) = self.reverse.get(to) {
                    return Err(Violation::StreamIncoherent {
                        detail: format!("remap target {to} still owned by {owner}"),
                    });
                }
                self.forward.insert(*hsn, *to);
                self.reverse.remove(from);
                self.reverse.insert(*to, *hsn);
                self.move_content(*from, *to, Some(*hsn));
                Ok(())
            }
            DeviceCommand::MappingSwap { a, b, .. } => {
                if a == b {
                    return Ok(());
                }
                let ha = self.reverse.get(a).copied();
                let hb = self.reverse.get(b).copied();
                if ha.is_none() && hb.is_none() {
                    return Err(Violation::StreamIncoherent {
                        detail: format!("swap of {a} and {b}, both unmapped"),
                    });
                }
                self.reverse.remove(a);
                self.reverse.remove(b);
                if let Some(h) = ha {
                    self.forward.insert(h, *b);
                    self.reverse.insert(*b, h);
                }
                if let Some(h) = hb {
                    self.forward.insert(h, *a);
                    self.reverse.insert(*a, h);
                }
                // Contents exchange with the mapping; resolve racy writes
                // from the host-side authoritative copy.
                let ca = self.content.remove(a);
                let cb = self.content.remove(b);
                self.place_content(*b, ca, ha);
                self.place_content(*a, cb, hb);
                Ok(())
            }
            DeviceCommand::PowerTransition { channel, rank, from, to, .. } => {
                let idx = (channel * self.geo.ranks_per_channel + rank) as usize;
                if self.power[idx] != *from {
                    return Err(Violation::StreamIncoherent {
                        detail: format!(
                            "power transition ch{channel}/rk{rank} from {from:?}, \
                             ledger says {:?}",
                            self.power[idx]
                        ),
                    });
                }
                if !dtl_dram::transition_is_legal(*from, *to) {
                    return Err(Violation::IllegalTransition {
                        channel: *channel,
                        rank: *rank,
                        from: *from,
                        to: *to,
                    });
                }
                self.power[idx] = *to;
                Ok(())
            }
        }
    }

    /// Moves shadowed content `from` → `to` (drain completion). A racy
    /// routed write makes the host-side `expected` word authoritative.
    fn move_content(&mut self, from: Dsn, to: Dsn, owner: Option<Hsn>) {
        let moved = self.content.remove(&from);
        self.place_content(to, moved, owner);
    }

    fn place_content(&mut self, at: Dsn, moved: Option<Shadow>, owner: Option<Hsn>) {
        match owner {
            Some(h) if self.dirty.remove(&h) => {
                if let Some(sh) = self.expected.get(&h).copied() {
                    self.content.insert(at, sh);
                }
            }
            Some(_) => {
                if let Some(sh) = moved {
                    self.content.insert(at, sh);
                }
            }
            None => {
                // No owner: the slot is free after the event; drop any
                // stale word.
            }
        }
    }

    /// Records a host write of `value` that the device routed to
    /// `routed`. When routing diverges from the mapping (the §4.2
    /// migration window), the host segment is marked racy and its content
    /// checks pause until the migration resolves.
    pub fn note_write(&mut self, hsn: Hsn, routed: Dsn, value: u64, version: u64) {
        let sh = Shadow { value, version };
        self.expected.insert(hsn, sh);
        if self.forward.get(&hsn) == Some(&routed) {
            self.content.insert(routed, sh);
        } else {
            self.dirty.insert(hsn);
        }
    }

    /// Cross-checks a read outcome: the serving segment must be the
    /// mapped one, and its shadowed content must match what the host last
    /// wrote (unless a racy write is pending).
    ///
    /// # Errors
    ///
    /// [`Violation::ForwardMismatch`] / [`Violation::ContentMismatch`].
    pub fn note_read(&self, hsn: Hsn, served: Dsn) -> Result<(), Violation> {
        match self.forward.get(&hsn) {
            Some(d) if *d == served => {}
            other => {
                return Err(Violation::ForwardMismatch {
                    hsn,
                    device: Some(served),
                    oracle: other.copied(),
                });
            }
        }
        if self.dirty.contains(&hsn) {
            return Ok(());
        }
        let want = self.expected.get(&hsn);
        let have = self.content.get(&served);
        match (want, have) {
            (Some(w), Some(h)) if w.value == h.value => Ok(()),
            (Some(w), h) => Err(Violation::ContentMismatch {
                hsn,
                dsn: served,
                expected: w.value,
                found: h.map_or(0, |s| s.value),
            }),
            (None, _) => Err(Violation::StreamIncoherent {
                detail: format!("read of {hsn} which the model never saw allocated"),
            }),
        }
    }

    /// Re-synchronizes racy segments once the device has quiesced (no
    /// migrations pending): the host-side word becomes authoritative at
    /// the currently mapped segment.
    pub fn resync_dirty(&mut self) {
        let dirty: Vec<Hsn> = self.dirty.drain().collect();
        for hsn in dirty {
            if let (Some(dsn), Some(sh)) =
                (self.forward.get(&hsn).copied(), self.expected.get(&hsn).copied())
            {
                self.content.insert(dsn, sh);
            }
        }
    }

    /// Quiesced-only conservation check: shadowed content exists exactly
    /// for mapped segments.
    ///
    /// # Errors
    ///
    /// [`Violation::ContentLeak`] / [`Violation::StreamIncoherent`].
    pub fn check_content_conservation(&self) -> Result<(), Violation> {
        for dsn in self.content.keys() {
            if !self.reverse.contains_key(dsn) {
                return Err(Violation::ContentLeak { dsn: *dsn });
            }
        }
        for (dsn, hsn) in &self.reverse {
            if !self.content.contains_key(dsn) {
                return Err(Violation::StreamIncoherent {
                    detail: format!("mapped {dsn} ({hsn}) lost its shadowed content"),
                });
            }
        }
        Ok(())
    }
}

/// The tag a freshly allocated host segment reads back before any write:
/// derived from the HSN so distinct segments never alias.
fn initial_tag(hsn: Hsn) -> u64 {
    (u64::from(hsn.host.0) << 48) | (u64::from(hsn.au.0) << 20) | u64::from(hsn.au_offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtl_core::{AuId, HostId};

    fn geo() -> SegmentGeometry {
        SegmentGeometry { channels: 2, ranks_per_channel: 2, segs_per_rank: 8 }
    }

    fn hsn(au: u32, off: u32) -> Hsn {
        Hsn { host: HostId(0), au: AuId(au), au_offset: off }
    }

    fn created(au: u32, dsns: Vec<Dsn>) -> DeviceCommand {
        DeviceCommand::AuCreated { host: HostId(0), au: AuId(au), dsns, at: Picos::ZERO }
    }

    #[test]
    fn create_remap_remove_roundtrip() {
        let mut o = Oracle::new(geo());
        o.apply(&created(0, vec![Dsn(0), Dsn(1)])).unwrap();
        assert_eq!(o.translate(hsn(0, 1)), Some(Dsn(1)));
        o.apply(&DeviceCommand::Remap {
            hsn: hsn(0, 1),
            from: Dsn(1),
            to: Dsn(9),
            at: Picos::ZERO,
        })
        .unwrap();
        assert_eq!(o.translate(hsn(0, 1)), Some(Dsn(9)));
        o.note_read(hsn(0, 1), Dsn(9)).unwrap();
        o.apply(&DeviceCommand::AuRemoved {
            host: HostId(0),
            au: AuId(0),
            dsns: vec![Dsn(0), Dsn(9)],
            at: Picos::ZERO,
        })
        .unwrap();
        assert_eq!(o.mapped_segments(), 0);
        o.check_content_conservation().unwrap();
    }

    #[test]
    fn incoherent_remap_is_rejected() {
        let mut o = Oracle::new(geo());
        o.apply(&created(0, vec![Dsn(0), Dsn(1)])).unwrap();
        let bad =
            DeviceCommand::Remap { hsn: hsn(0, 0), from: Dsn(5), to: Dsn(9), at: Picos::ZERO };
        assert!(matches!(o.apply(&bad), Err(Violation::StreamIncoherent { .. })));
    }

    #[test]
    fn swap_carries_content() {
        let mut o = Oracle::new(geo());
        o.apply(&created(0, vec![Dsn(0), Dsn(1)])).unwrap();
        o.note_write(hsn(0, 0), Dsn(0), 0xabcd, 1);
        o.apply(&DeviceCommand::MappingSwap { a: Dsn(0), b: Dsn(7), at: Picos::ZERO }).unwrap();
        assert_eq!(o.translate(hsn(0, 0)), Some(Dsn(7)));
        o.note_read(hsn(0, 0), Dsn(7)).unwrap();
        o.check_content_conservation().unwrap();
    }

    #[test]
    fn racy_write_resolves_at_migration_commit() {
        let mut o = Oracle::new(geo());
        o.apply(&created(0, vec![Dsn(0), Dsn(1)])).unwrap();
        // Routed to Dsn(7) while still mapped at Dsn(0): racy.
        o.note_write(hsn(0, 0), Dsn(7), 0x1111, 1);
        o.note_read(hsn(0, 0), Dsn(0)).unwrap(); // reads pause content check
        o.apply(&DeviceCommand::MappingSwap { a: Dsn(0), b: Dsn(7), at: Picos::ZERO }).unwrap();
        // Now mapped at Dsn(7) with the written word authoritative.
        o.note_read(hsn(0, 0), Dsn(7)).unwrap();
    }

    #[test]
    fn power_ledger_replays_transitions() {
        let mut o = Oracle::new(geo());
        let t = |from, to| DeviceCommand::PowerTransition {
            channel: 0,
            rank: 1,
            from,
            to,
            cause: dtl_dram::PowerEventCause::Explicit,
            at: Picos::ZERO,
        };
        o.apply(&t(PowerState::Standby, PowerState::SelfRefresh)).unwrap();
        assert_eq!(o.power_state(0, 1), PowerState::SelfRefresh);
        // Skipping the standby hop is incoherent.
        assert!(o.apply(&t(PowerState::Standby, PowerState::Mpsm)).is_err());
    }

    #[test]
    fn rung_skipping_transition_is_illegal() {
        let mut o = Oracle::new(geo());
        let t = |from, to| DeviceCommand::PowerTransition {
            channel: 1,
            rank: 0,
            from,
            to,
            cause: dtl_dram::PowerEventCause::Explicit,
            at: Picos::ZERO,
        };
        o.apply(&t(PowerState::Standby, PowerState::ActivePowerDown)).unwrap();
        // Skipping precharge power-down on the way to self-refresh is
        // forbidden even though the ledger's `from` matches.
        assert!(matches!(
            o.apply(&t(PowerState::ActivePowerDown, PowerState::SelfRefresh)),
            Err(Violation::IllegalTransition { .. })
        ));
        // The single-rung hops are fine.
        o.apply(&t(PowerState::ActivePowerDown, PowerState::PrechargePowerDown)).unwrap();
        o.apply(&t(PowerState::PrechargePowerDown, PowerState::SelfRefresh)).unwrap();
        assert_eq!(o.power_state(1, 0), PowerState::SelfRefresh);
    }

    #[test]
    fn content_mismatch_detected() {
        let mut o = Oracle::new(geo());
        o.apply(&created(0, vec![Dsn(0), Dsn(1)])).unwrap();
        o.note_write(hsn(0, 0), Dsn(0), 7, 1);
        o.note_write(hsn(0, 1), Dsn(1), 8, 2);
        // Model a device that swapped data without the mapping: read hsn 0
        // from segment 1.
        assert!(matches!(o.note_read(hsn(0, 0), Dsn(1)), Err(Violation::ForwardMismatch { .. })));
    }

    /// Iteration order is a function of the stream the maps were fed: two
    /// oracles fed one stream walk their mapping alike, so which violation a
    /// sweep reports first cannot depend on which oracle ran it.
    #[test]
    fn two_oracles_fed_one_stream_iterate_alike() {
        let setup = crate::CheckSetup::tiny(3, 600);
        let ops = crate::generate(&setup.stream);
        let walk = || {
            let mut harness = crate::LockstepHarness::new(setup);
            harness.run_ops(&ops).expect("a clean stream");
            harness.oracle().iter_forward().collect::<Vec<_>>()
        };
        let first = walk();
        assert!(first.len() > 1, "a mapping worth ordering");
        assert_eq!(first, walk());
    }
}
