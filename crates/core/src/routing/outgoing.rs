//! Per-AEU outgoing buffers: unicast, multicast, and multicast references.
//!
//! Section 3.2: *"Each AEU uses a set of outgoing buffers — one unicast
//! buffer and one multicast reference buffer for each running AEU in the
//! system —, a multicast buffer, and two bigger incoming buffers. ...  Data
//! commands for a single AEU are written to the corresponding outgoing
//! buffer of the source AEU.  If multiple AEUs are responsible for a data
//! command, the command itself is written to the multicast buffer and
//! references to this data command are stored in the individual multicast
//! reference buffers.  If an outgoing buffer is either full or the AEU
//! starts over its processing loop, the specific outgoing buffer including
//! its multicast data commands is copied to the incoming buffer of the
//! target AEU."*
//!
//! This local pre-buffering is the throughput mechanism of Figure 5:
//! contention on the remote incoming buffer drops to one reservation per
//! *flush* instead of one per command, and the copied bytes stream
//! sequentially over the interconnect.

use super::incoming::{BufferFull, IncomingBuffers};
use super::partition_table::Owners;
use crate::command::{
    encode_point_header, encode_trace_marker, whole_commands_within, AeuId, DataObjectId, PointItem,
};
use eris_obs::TraceStamp;

/// Result of flushing one outgoing buffer into a target's incoming buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushInfo {
    pub target: AeuId,
    pub bytes: u64,
    pub commands: u64,
}

struct PerTarget {
    unicast: Vec<u8>,
    unicast_cmds: u64,
    /// `(offset, len)` references into the multicast buffer.
    refs: Vec<(u32, u32)>,
}

/// The outgoing side of one AEU's routing state.
pub struct OutgoingBuffers {
    targets: Vec<PerTarget>,
    multicast: Vec<u8>,
    /// Flush threshold per target, in bytes.
    capacity: usize,
    /// Commands buffered since the last flush round (for stats).
    pub commands_routed: u64,
    /// High-water mark of bytes pending towards any single target.
    peak_pending_bytes: usize,
}

impl OutgoingBuffers {
    /// Buffers towards `num_aeus` targets with a per-target flush threshold
    /// of `capacity` bytes.
    pub fn new(num_aeus: usize, capacity: usize) -> Self {
        assert!(capacity > 0);
        OutgoingBuffers {
            targets: (0..num_aeus)
                .map(|_| PerTarget {
                    unicast: Vec::new(),
                    unicast_cmds: 0,
                    refs: Vec::new(),
                })
                .collect(),
            multicast: Vec::new(),
            capacity,
            commands_routed: 0,
            peak_pending_bytes: 0,
        }
    }

    /// The flush threshold in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffer the encoding of one whole command of `object`, copied
    /// unchanged, optionally preceded by its in-band trace marker.  The
    /// marker and its command are appended in one call and the whole
    /// unicast run is flushed as one contiguous copy, so the pair stays
    /// adjacent all the way into the target's incoming buffer.  Markers
    /// are not counted as commands — flush and delivery accounting see
    /// the identical stream either way.  Returns `true` when the target's
    /// buffer crossed the flush threshold.
    pub(crate) fn push_whole(
        &mut self,
        target: AeuId,
        object: DataObjectId,
        trace: Option<TraceStamp>,
        encoded: &[u8],
    ) -> bool {
        // BOUNDS: `targets` is sized to the AEU count at construction and
        // AeuId indexes come from the same topology.
        let t = &mut self.targets[target.index()];
        if let Some(stamp) = trace {
            encode_trace_marker(object, stamp, &mut t.unicast);
        }
        // ALLOC-OK: copies into the target's reused unicast buffer, which
        // grows to its flush threshold once.
        t.unicast.extend_from_slice(encoded);
        t.unicast_cmds += 1;
        self.commands_routed += 1;
        let pending = self.pending_bytes(target);
        self.peak_pending_bytes = self.peak_pending_bytes.max(pending);
        pending >= self.capacity
    }

    /// Buffer a point command whose `items` span owners, as one
    /// sub-command per owner written straight into that owner's unicast
    /// buffer: every header first (the trace marker, if any, before the
    /// first item's owner's), then each item appended to its owner's
    /// buffer in input order — its sub-command is the last thing there.
    /// The bytes are those of encoding each owner's group as a command of
    /// its own.  Owners whose buffer crossed the flush threshold
    /// are appended to `full`, in order of first appearance.
    pub(crate) fn push_split<T: PointItem>(
        &mut self,
        object: DataObjectId,
        ticket: u64,
        items: impl Iterator<Item = T>,
        owners: &Owners,
        mut trace: Option<TraceStamp>,
        full: &mut Vec<AeuId>,
    ) {
        for (owner, n) in owners.groups() {
            // BOUNDS: `targets` is sized to the AEU count at construction
            // and the partition table only names AEUs of that topology.
            let t = &mut self.targets[owner.index()];
            if let Some(stamp) = trace.take() {
                encode_trace_marker(object, stamp, &mut t.unicast);
            }
            encode_point_header::<T>(object, ticket, n, &mut t.unicast);
            t.unicast_cmds += 1;
            self.commands_routed += 1;
        }
        for (item, owner) in items.zip(owners.of_items()) {
            // BOUNDS: as above.
            item.put(&mut self.targets[owner.index()].unicast);
        }
        for &owner in owners.order() {
            let pending = self.pending_bytes(owner);
            self.peak_pending_bytes = self.peak_pending_bytes.max(pending);
            if pending >= self.capacity {
                // ALLOC-OK: the caller's reused full-target list, bounded
                // by the AEU count.
                full.push(owner);
            }
        }
    }

    /// Buffer one command's encoding for many targets: it is copied once
    /// into the multicast buffer, each target gets a reference.  Targets
    /// whose buffer crossed the flush threshold are appended to `full`.
    pub fn push_multicast(&mut self, targets: &[AeuId], encoded: &[u8], full: &mut Vec<AeuId>) {
        let (off, len) = (self.multicast.len() as u32, encoded.len() as u32);
        // ALLOC-OK: the multicast buffer and its reference lists grow with
        // the batch and drain every flush; `full` is bounded by the AEUs.
        self.multicast.extend_from_slice(encoded);
        for &t in targets {
            // BOUNDS: `targets` is sized to the AEU count at construction.
            self.targets[t.index()].refs.push((off, len));
            let pending = self.pending_bytes(t);
            self.peak_pending_bytes = self.peak_pending_bytes.max(pending);
            if pending >= self.capacity {
                full.push(t);
            }
        }
        self.commands_routed += targets.len() as u64;
    }

    /// High-water mark of bytes pending towards any single target since
    /// construction (telemetry gauge).
    pub fn peak_pending_bytes(&self) -> usize {
        self.peak_pending_bytes
    }

    /// Bytes currently pending towards `target` (unicast + referenced
    /// multicast commands).
    pub fn pending_bytes(&self, target: AeuId) -> usize {
        // BOUNDS: `targets` is sized to the AEU count at construction and
        // AeuId indexes come from the same topology.
        let t = &self.targets[target.index()];
        t.unicast.len() + t.refs.iter().map(|&(_, l)| l as usize).sum::<usize>()
    }

    /// Pending command count towards `target`.
    pub fn pending_commands(&self, target: AeuId) -> u64 {
        // BOUNDS: `targets` is sized to the AEU count at construction and
        // AeuId indexes come from the same topology.
        let t = &self.targets[target.index()];
        t.unicast_cmds + t.refs.len() as u64
    }

    /// Copy everything pending for `target` into its incoming buffer as one
    /// contiguous write (routing step 3).  On success the outgoing buffer is
    /// cleared; on [`BufferFull`] it is kept for a later retry.  A backlog
    /// larger than one incoming buffer goes in pieces that fit one, a piece
    /// per flush ([`OutgoingBuffers::flush_piece`]).
    pub fn flush_into(
        &mut self,
        target: AeuId,
        incoming: &IncomingBuffers,
    ) -> Result<Option<FlushInfo>, BufferFull> {
        let bytes = self.pending_bytes(target);
        if bytes == 0 {
            return Ok(None);
        }
        if bytes > incoming.capacity() {
            return self.flush_piece(target, incoming).map(Some);
        }
        let commands = self.pending_commands(target);
        // BOUNDS: `targets` is sized to the AEU count at construction and
        // AeuId indexes come from the same topology.
        let t = &self.targets[target.index()];
        if t.refs.is_empty() {
            // Unicast only: the buffer is the flush, copied once.
            incoming.write(&t.unicast)?;
        } else {
            // Assemble unicast bytes + referenced multicast commands.
            // ALLOC-OK: one exactly-sized assembly buffer per flush with
            // multicast references; flushes are batched, not per-command.
            // ALLOC-OK: extend copies below stage into that same buffer.
            let mut assembled = Vec::with_capacity(bytes);
            assembled.extend_from_slice(&t.unicast);
            for &(off, len) in &t.refs {
                // BOUNDS: (off, len) was recorded from `multicast.len()` when
                // the command was encoded; the buffer only grows until the
                // flush.
                // ALLOC-OK: extends the pre-sized assembly buffer.
                assembled.extend_from_slice(&self.multicast[off as usize..(off + len) as usize]);
            }
            incoming.write(&assembled)?;
        }
        // BOUNDS: `targets` is sized to the AEU count at construction and
        // AeuId indexes come from the same topology.
        let t = &mut self.targets[target.index()];
        t.unicast.clear();
        t.unicast_cmds = 0;
        t.refs.clear();
        Ok(Some(FlushInfo {
            target,
            bytes: bytes as u64,
            commands,
        }))
    }

    /// Write the front of `target`'s backlog that fits the free space of
    /// its incoming buffer, cut at command boundaries (at least one
    /// command), and drop it from the outgoing buffer: the unicast
    /// commands first ([`whole_commands_within`], so a trace marker goes
    /// with its command), then the referenced multicast commands, each
    /// whole.  The rest waits for the next flush.
    fn flush_piece(
        &mut self,
        target: AeuId,
        incoming: &IncomingBuffers,
    ) -> Result<FlushInfo, BufferFull> {
        let max = incoming.capacity().saturating_sub(incoming.pending_bytes());
        // BOUNDS: `targets` is sized to the AEU count at construction and
        // AeuId indexes come from the same topology.
        let t = &mut self.targets[target.index()];
        let (bytes, commands) = if t.unicast.is_empty() {
            // ALLOC-OK: one piece per flush of an oversized backlog.
            let (mut piece, mut n) = (Vec::new(), 0);
            for &(off, len) in &t.refs {
                if n > 0 && piece.len() + len as usize > max {
                    break;
                }
                // BOUNDS: as in `flush_into`, the reference was recorded
                // from the multicast buffer it points into.
                // ALLOC-OK: extends the piece.
                piece.extend_from_slice(&self.multicast[off as usize..(off + len) as usize]);
                n += 1;
            }
            incoming.write(&piece)?;
            t.refs.drain(..n);
            (piece.len(), n as u64)
        } else {
            let (len, commands) = whole_commands_within(&t.unicast, max);
            // BOUNDS: the run lies within the unicast buffer.
            incoming.write(&t.unicast[..len])?;
            t.unicast.drain(..len);
            t.unicast_cmds -= commands;
            (len, commands)
        };
        Ok(FlushInfo {
            target,
            bytes: bytes as u64,
            commands,
        })
    }

    /// Drop the multicast buffer once no target references it anymore.
    /// Called by the AEU when it starts over its processing loop.
    pub fn reclaim_multicast(&mut self) {
        if self.targets.iter().all(|t| t.refs.is_empty()) {
            self.multicast.clear();
        }
    }

    /// True when nothing is pending anywhere.
    pub fn is_drained(&self) -> bool {
        self.targets
            .iter()
            .all(|t| t.unicast.is_empty() && t.refs.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{decode_region, DataCommand, Payload};

    fn lookup_cmd(keys: Vec<u64>) -> DataCommand {
        DataCommand {
            object: DataObjectId(1),
            ticket: 9,
            payload: Payload::Lookup { keys },
        }
    }

    fn encoded(cmd: &DataCommand) -> Vec<u8> {
        let mut out = Vec::new();
        cmd.encode(&mut out);
        out
    }

    /// Buffer `cmd` whole for `target`, unstamped.
    fn push_unicast(out: &mut OutgoingBuffers, target: AeuId, cmd: &DataCommand) -> bool {
        out.push_whole(target, cmd.object, None, &encoded(cmd))
    }

    #[test]
    fn unicast_flush_delivers_commands() {
        let mut out = OutgoingBuffers::new(2, 1024);
        let inc = IncomingBuffers::new(4096);
        push_unicast(&mut out, AeuId(1), &lookup_cmd(vec![1, 2]));
        push_unicast(&mut out, AeuId(1), &lookup_cmd(vec![3]));
        let info = out.flush_into(AeuId(1), &inc).unwrap().unwrap();
        assert_eq!(info.commands, 2);
        assert!(out.is_drained());
        let mut decoded = Vec::new();
        inc.swap_and_consume(|d| decoded = decode_region(d));
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], (lookup_cmd(vec![1, 2]), None));
    }

    #[test]
    fn traced_push_keeps_command_accounting_and_carries_the_stamp() {
        let mut out = OutgoingBuffers::new(2, 1024);
        let inc = IncomingBuffers::new(4096);
        let stamp = TraceStamp {
            hops: 1,
            ..TraceStamp::engine(777)
        };
        let (first, second) = (lookup_cmd(vec![1, 2]), lookup_cmd(vec![3]));
        out.push_whole(AeuId(1), first.object, Some(stamp), &encoded(&first));
        push_unicast(&mut out, AeuId(1), &second);
        assert_eq!(out.pending_commands(AeuId(1)), 2, "markers aren't commands");
        let info = out.flush_into(AeuId(1), &inc).unwrap().unwrap();
        assert_eq!(info.commands, 2);
        let mut traced = Vec::new();
        inc.swap_and_consume(|d| traced = decode_region(d));
        assert_eq!(traced.len(), 2);
        assert_eq!(traced[0].1, Some(stamp), "stamp rides with its command");
        assert_eq!(traced[1].1, None);
    }

    #[test]
    fn threshold_reports_full() {
        let mut out = OutgoingBuffers::new(1, 40);
        assert!(!push_unicast(&mut out, AeuId(0), &lookup_cmd(vec![1])));
        assert!(
            push_unicast(&mut out, AeuId(0), &lookup_cmd(vec![2])),
            "40 bytes crossed"
        );
    }

    #[test]
    fn multicast_stores_body_once() {
        let mut out = OutgoingBuffers::new(3, 1024);
        let cmd = lookup_cmd(vec![7, 8, 9]);
        let mut full = Vec::new();
        out.push_multicast(&[AeuId(0), AeuId(2)], &encoded(&cmd), &mut full);
        assert!(full.is_empty());
        assert_eq!(out.multicast.len(), cmd.encoded_len(), "one body");
        assert_eq!(out.pending_bytes(AeuId(0)), cmd.encoded_len());
        assert_eq!(out.pending_bytes(AeuId(1)), 0);
        assert_eq!(out.pending_bytes(AeuId(2)), cmd.encoded_len());

        // Both targets receive the full command.
        let inc0 = IncomingBuffers::new(1024);
        let inc2 = IncomingBuffers::new(1024);
        out.flush_into(AeuId(0), &inc0).unwrap().unwrap();
        out.flush_into(AeuId(2), &inc2).unwrap().unwrap();
        for inc in [&inc0, &inc2] {
            let mut decoded = Vec::new();
            inc.swap_and_consume(|d| decoded = decode_region(d));
            assert_eq!(decoded, vec![(cmd.clone(), None)]);
        }
        out.reclaim_multicast();
        assert_eq!(out.multicast.len(), 0);
    }

    #[test]
    fn multicast_not_reclaimed_while_referenced() {
        let mut out = OutgoingBuffers::new(2, 1024);
        let cmd = encoded(&lookup_cmd(vec![1]));
        out.push_multicast(&[AeuId(0), AeuId(1)], &cmd, &mut Vec::new());
        let inc = IncomingBuffers::new(1024);
        out.flush_into(AeuId(0), &inc).unwrap();
        out.reclaim_multicast();
        assert!(
            !out.multicast.is_empty(),
            "AEU1's reference is still pending"
        );
    }

    #[test]
    fn full_incoming_keeps_outgoing_intact() {
        let mut out = OutgoingBuffers::new(1, 1024);
        push_unicast(&mut out, AeuId(0), &lookup_cmd(vec![1, 2, 3]));
        let tiny = IncomingBuffers::new(64);
        // Fill the incoming buffer first.
        tiny.write(&[0; 60]).unwrap();
        let r = out.flush_into(AeuId(0), &tiny);
        assert_eq!(r, Err(BufferFull));
        assert_eq!(out.pending_commands(AeuId(0)), 1, "kept for retry");
        // After the owner drains, the retry succeeds.
        tiny.swap_and_consume(|_| {});
        assert!(out.flush_into(AeuId(0), &tiny).unwrap().is_some());
    }

    #[test]
    fn flush_of_empty_target_is_none() {
        let mut out = OutgoingBuffers::new(1, 64);
        let inc = IncomingBuffers::new(64);
        assert_eq!(out.flush_into(AeuId(0), &inc).unwrap(), None);
    }

    #[test]
    fn a_backlog_goes_in_pieces_that_fit_the_free_space() {
        // Unicast commands, then multicast ones that alone outgrow the
        // incoming buffer, which already holds one command.
        let mut out = OutgoingBuffers::new(2, 1 << 20);
        let inc = IncomingBuffers::new(256);
        let sent: Vec<_> = (0..40).map(|k| lookup_cmd(vec![k, k + 1])).collect();
        for cmd in &sent[..10] {
            push_unicast(&mut out, AeuId(1), cmd);
        }
        for cmd in &sent[10..] {
            out.push_multicast(&[AeuId(0), AeuId(1)], &encoded(cmd), &mut Vec::new());
        }
        let first = lookup_cmd(vec![99]);
        let mut prefix = Vec::new();
        first.encode(&mut prefix);
        inc.write(&prefix).unwrap();
        let mut got = Vec::new();
        let mut multicast_only = 0;
        while !out.targets[1].unicast.is_empty() || !out.targets[1].refs.is_empty() {
            let free = inc.capacity() - inc.pending_bytes();
            let refs_alone = out.targets[1].unicast.is_empty();
            let info = out.flush_into(AeuId(1), &inc).unwrap().unwrap();
            assert!(
                info.bytes as usize <= free,
                "{info:?} within {free} free bytes"
            );
            multicast_only += refs_alone as usize;
            inc.swap_and_consume(|d| got.extend(decode_region(d).into_iter().map(|(c, _)| c)));
        }
        assert!(
            multicast_only >= 2,
            "{multicast_only} multicast-only pieces"
        );
        assert_eq!(got.remove(0), first);
        assert_eq!(got, sent, "every command once, in order");
    }

    #[test]
    fn mixed_unicast_and_multicast_arrive_together() {
        let mut out = OutgoingBuffers::new(2, 4096);
        push_unicast(&mut out, AeuId(0), &lookup_cmd(vec![1]));
        let cmd = encoded(&lookup_cmd(vec![2]));
        out.push_multicast(&[AeuId(0), AeuId(1)], &cmd, &mut Vec::new());
        let inc = IncomingBuffers::new(4096);
        let info = out.flush_into(AeuId(0), &inc).unwrap().unwrap();
        assert_eq!(info.commands, 2);
        let mut decoded = Vec::new();
        inc.swap_and_consume(|d| decoded = decode_region(d));
        assert_eq!(decoded.len(), 2);
    }
}

/// Model-checked interleaving exploration of the outgoing→incoming
/// handoff (routing step 3).
///
/// The outgoing buffer itself is single-owner (`&mut self`); what races
/// is its `flush_into` against the target owner's `swap_and_consume`
/// and against flushes from other source AEUs.  Under a plain
/// `cargo test` the model runs once with real threads; under
/// `RUSTFLAGS="--cfg loom"` every schedule within the preemption bound
/// is explored.  Run with `cargo test -p eris-core --lib loom_`.
#[cfg(test)]
mod loom_models {
    use super::*;
    use crate::command::{decode_region, DataCommand, Payload};
    use eris_sync::sync::Arc;
    use eris_sync::{model, thread};

    fn cmd(ticket: u64) -> DataCommand {
        DataCommand {
            object: DataObjectId(1),
            ticket,
            payload: Payload::Lookup { keys: vec![ticket] },
        }
    }

    /// Two source AEUs flush their outgoing buffers into one target's
    /// incoming buffer (sized to hold exactly one flush, forcing the
    /// keep-and-retry path) while the target owner swaps concurrently:
    /// every flushed command is consumed exactly once and decodes
    /// intact — the handoff never tears or duplicates a flush.
    #[test]
    fn loom_flush_handoff_delivers_every_command_exactly_once() {
        model(|| {
            // Room for exactly one assembled flush, so concurrent
            // flushers collide on BufferFull and retry across swaps.
            let inc = Arc::new(IncomingBuffers::new(cmd(0).encoded_len()));
            let handles: Vec<_> = [10u64, 20u64]
                .into_iter()
                .map(|ticket| {
                    let inc = Arc::clone(&inc);
                    thread::spawn(move || {
                        let mut out = OutgoingBuffers::new(1, 64);
                        let mut encoded = Vec::new();
                        cmd(ticket).encode(&mut encoded);
                        out.push_whole(AeuId(0), DataObjectId(1), None, &encoded);
                        loop {
                            match out.flush_into(AeuId(0), &inc) {
                                Ok(info) => {
                                    assert_eq!(info.unwrap().commands, 1);
                                    assert!(out.is_drained(), "flush cleared the buffer");
                                    return;
                                }
                                Err(BufferFull) => thread::yield_now(),
                            }
                        }
                    })
                })
                .collect();
            let mut tickets = Vec::new();
            while tickets.len() < 2 {
                inc.swap_and_consume(|d| {
                    for (c, _) in decode_region(d) {
                        assert_eq!(c, cmd(c.ticket), "command decodes intact");
                        tickets.push(c.ticket);
                    }
                });
                thread::yield_now();
            }
            for h in handles {
                h.join().unwrap();
            }
            tickets.sort_unstable();
            assert_eq!(tickets, vec![10, 20], "each flush delivered exactly once");
        });
    }
}
