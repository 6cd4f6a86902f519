//! # eris-durability — journals, checkpoints, and crash recovery
//!
//! The ERIS paper scopes persistence out ("ERIS is an in-memory storage
//! engine"); this crate adds it without touching the engine's hot-path
//! architecture, by extending the data-oriented design to the redo
//! stream itself:
//!
//! * **Per-AEU write-ahead journal** ([`wal`]) — one append-only log per
//!   AEU, written only by its owner, group-committed at AEU step
//!   boundaries.  Logs record *applied local effects* (post-routing), so
//!   replay needs no re-routing and the logs replay independently.
//! * **NUMA-partitioned checkpoints** ([`checkpoint`]) — one part file
//!   per AEU, written in parallel, holding the journal records that
//!   rebuild that AEU's partitions; committed atomically by a manifest
//!   that also records each log's LSN cut, each partition's count and the
//!   per-object conservation ledger.
//! * **Recovery** ([`recovery`]) — newest complete checkpoint, then each
//!   AEU's journal tail from its cut, every record applied as it is read
//!   through the path a balancing receiver uses, then routing-table
//!   rebuild.
//! * **Fail points** ([`failpoint`]) — crash injection compiled into the
//!   durability paths (torn write, pre-sync, partial checkpoint,
//!   pre-manifest, mid-replay) driving the crash-matrix tests.
//!
//! ## Quick start
//!
//! ```
//! use eris_core::prelude::*;
//! use eris_durability::Durability;
//!
//! let dir = std::env::temp_dir().join(format!("eris-doc-{}", std::process::id()));
//! let cfg = EngineConfig { collect_results: true, ..Default::default() };
//! let mut engine = Engine::new(eris_numa::intel_machine(), cfg.clone());
//! let mut dura = Durability::open(&dir, engine.num_aeus()).unwrap();
//! dura.attach(&mut engine);
//!
//! let idx = engine.create_index("orders", 1 << 20);
//! engine.submit(AeuId(0), DataCommand {
//!     object: idx,
//!     ticket: 1,
//!     payload: Payload::Upsert { pairs: vec![(21, 42)] },
//! }).unwrap();
//! engine.run_until_drained();
//! dura.checkpoint(&mut engine).unwrap();
//!
//! // ... crash ... then rebuild from disk into a fresh engine:
//! let mut recovered = Engine::new(eris_numa::intel_machine(), cfg);
//! let report = Durability::recover(&mut recovered, &dir).unwrap();
//! assert_eq!(report.checkpoint, Some(0));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod checkpoint;
pub mod crc;
pub mod failpoint;
pub mod recovery;
pub mod wal;

pub use checkpoint::{Manifest, ManifestObject};
pub use failpoint::{
    FailPoints, ALL_FAIL_POINTS, FP_CHECKPOINT_PARTIAL, FP_CHECKPOINT_PRE_MANIFEST,
    FP_JOURNAL_PRE_SYNC, FP_JOURNAL_TORN_WRITE, FP_RECOVERY_MID_REPLAY,
};
pub use recovery::{RecoveryError, RecoveryReport};

use eris_core::Engine;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::{JournalSink, Wal};

/// The durable home of one engine: `<dir>/wal/aeu-<i>.log` journals plus
/// `<dir>/ckpt-<seq>/` checkpoints.
pub struct Durability {
    dir: PathBuf,
    sink: Arc<JournalSink>,
    fail: Arc<FailPoints>,
    next_seq: u64,
}

impl Durability {
    /// Open (creating if needed) the durable directory for an engine
    /// with `num_aeus` AEUs, with no fail points armed.
    pub fn open(dir: &Path, num_aeus: usize) -> std::io::Result<Self> {
        Self::open_with(dir, num_aeus, Arc::new(FailPoints::new()))
    }

    /// [`Durability::open`] with a caller-owned fail-point set (crash
    /// tests keep a handle to arm points mid-run).  Each journal is opened
    /// from the newest checkpoint's cut ([`Wal::open_from`]), so no record
    /// that checkpoint holds is read again.
    pub fn open_with(dir: &Path, num_aeus: usize, fail: Arc<FailPoints>) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir.join("wal"))?;
        let (latest, cuts) = checkpoint::latest_cuts(dir, num_aeus)?;
        let wals = cuts
            .iter()
            .enumerate()
            .map(|(i, &cut)| Wal::open_from(&wal::journal_path(dir, i), cut))
            .collect::<std::io::Result<Vec<_>>>()?;
        let next_seq = latest.map_or(0, |(_, m)| m.seq + 1);
        Ok(Durability {
            dir: dir.to_path_buf(),
            sink: Arc::new(JournalSink::new(wals, fail.clone())),
            fail,
            next_seq,
        })
    }

    /// The fail-point set shared with the durability paths.
    pub fn fail_points(&self) -> Arc<FailPoints> {
        self.fail.clone()
    }

    /// Wire the engine to the journal: captures the telemetry shards and
    /// attaches the sink so every AEU's applied mutations are logged.
    /// Attach while quiesced — typically right after construction or
    /// recovery, before any traffic.
    pub fn attach(&self, engine: &mut Engine) {
        let shards = engine
            .aeu_ids()
            .iter()
            .map(|&a| engine.telemetry_shard(a).clone())
            .collect();
        self.sink.set_shards(shards);
        engine.set_redo_sink(Some(self.sink.clone()));
    }

    /// Take a checkpoint: drain the engine, sync every journal, then
    /// write the partitioned snapshot.  Returns the checkpoint sequence
    /// number.  On an injected crash the on-disk state is left partial
    /// (that is the point) and the sequence is not consumed.  A journal
    /// that could not be written and synced is an error, and no
    /// checkpoint is written: its cut would fall before records whose
    /// effects the parts hold, and replay would apply them twice.
    pub fn checkpoint(&mut self, engine: &mut Engine) -> std::io::Result<u64> {
        engine.run_until_drained();
        let cuts = self.sink.sync_all()?;
        let seq = self.next_seq;
        checkpoint::write_checkpoint(engine, &self.dir, seq, &cuts, &self.fail)?;
        if !self.fail.crashed() {
            self.next_seq += 1;
        }
        Ok(seq)
    }

    /// Rebuild a fresh engine from `dir` with no fail points armed.
    /// See [`recovery::recover_into`] for the full contract.
    pub fn recover(engine: &mut Engine, dir: &Path) -> Result<RecoveryReport, RecoveryError> {
        recovery::recover_into(engine, dir, &FailPoints::new())
    }
}
