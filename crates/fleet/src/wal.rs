//! The fleet ingestion write-ahead log.
//!
//! Every batch of [`TraceOp`]s accepted by the ingestion engine is appended
//! to the WAL before it is applied to the sharded store, so a run can be
//! replayed — into a fresh [`Ttkv`], onto another machine, or after a crash
//! that tore the final write.
//!
//! ## Framing
//!
//! ```text
//! file     := magic frame*
//! magic    := "OCWAL1\n"
//! frame    := u32:payload_len u32:fnv1a(payload) payload
//! payload  := u32:op_count op*            -- see crate::codec for `op`
//! ```
//!
//! A reader accepts any clean prefix: a frame whose length or payload is cut
//! short (a torn tail write) ends the log without error, while a checksum
//! mismatch on a *complete* frame is reported as corruption. This is the
//! classic WAL recovery contract.
//!
//! ## Layered snapshot compaction
//!
//! An append-only log grows without bound; compaction bounds it. Rather
//! than replaying *everything* into one snapshot on every compaction (an
//! O(retained state) stall on the appender thread), [`Wal::compact_pruned`]
//! is **layered**: each compaction folds only the frames appended since the
//! previous one into a *delta snapshot* — baselines plus counters for the
//! keys touched since the previous layer, pruned to the sweep horizon — and
//! commits it on top of the prior layers through a manifest rename. Replay
//! folds the layers oldest-to-newest (demoting each layer's baselines back
//! into ordinary versions so cross-layer timestamp ties rank by true
//! arrival order), re-prunes once at the newest horizon, and applies the
//! current log; the result is equal by construction to the old
//! replay-everything path (property-tested; `DESIGN.md §5.10`). Every
//! `rebase_layers` compactions the chain is folded into a fresh base so
//! disk stays bounded by the retention window.
//!
//! ## The append buffer
//!
//! A compaction does not read back what the same handle just wrote. Once a
//! [`Wal`] has compacted, [`Wal::append`] also copies every op it frames
//! into an in-memory [`TtkvBuilder`] — keys are shared `Arc<str>`s and
//! read counters coalesce per key — and every compaction builds its delta
//! from that buffer, quantising the buffered timestamps to its precision
//! first ([`TtkvBuilder::apply_precision`]). The log is read from disk only
//! by [`Wal::replay`], by the torn-tail scan when a writer opens, and to
//! seed the buffer: on a handle's first compaction, and on the first one
//! after an append or compaction failed (a failure drops the buffer; the
//! log still holds every frame). Memory is bounded by the log itself: the
//! buffer holds exactly the current log's ops, a committed compaction
//! empties it along with the log, and a handle that never compacts
//! buffers nothing.
//!
//! Base and delta layers are `ocasta-ttkv binary v2` segments — the same
//! length-prefixed, FNV-checksummed framing discipline as the log, one
//! codec seam for everything the fleet persists.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

use ocasta_trace::TraceOp;
use ocasta_ttkv::{PruneStats, TimePrecision, Timestamp, Ttkv, TtkvBuilder};

use crate::codec::{decode_op, encode_op, CodecError};
use crate::hash::fnv1a_32 as fnv1a;

/// File magic for WAL streams.
pub const WAL_MAGIC: &[u8; 7] = b"OCWAL1\n";

/// Most bytes a reader reserves for a frame payload before reading it;
/// longer payloads grow with the bytes that actually arrive.
const PAYLOAD_PREALLOC: usize = 1 << 20;

/// Errors arising from WAL I/O, framing or decoding.
#[derive(Debug)]
pub enum WalError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with [`WAL_MAGIC`].
    BadMagic,
    /// A complete frame whose checksum does not match its payload.
    Corrupt {
        /// Zero-based index of the corrupt frame.
        frame: usize,
    },
    /// A frame payload that fails op decoding.
    Codec(CodecError),
    /// The snapshot file failed to load.
    Snapshot(String),
    /// The layer manifest failed to parse.
    Manifest(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::BadMagic => write!(f, "wal: bad magic (not an OCWAL1 stream)"),
            WalError::Corrupt { frame } => write!(f, "wal: frame {frame} checksum mismatch"),
            WalError::Codec(e) => write!(f, "wal: {e}"),
            WalError::Snapshot(e) => write!(f, "wal snapshot: {e}"),
            WalError::Manifest(e) => write!(f, "wal manifest: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> Self {
        WalError::Codec(e)
    }
}

/// Appends framed op batches to any writer.
#[derive(Debug)]
pub struct WalWriter<W: Write> {
    sink: W,
    scratch: Vec<u8>,
    frames: usize,
}

impl<W: Write> WalWriter<W> {
    /// Starts a fresh WAL stream (writes the magic).
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn new(mut sink: W) -> Result<Self, WalError> {
        sink.write_all(WAL_MAGIC)?;
        Ok(WalWriter {
            sink,
            scratch: Vec::new(),
            frames: 0,
        })
    }

    /// Resumes an existing stream (magic already present).
    pub fn resume(sink: W, existing_frames: usize) -> Self {
        WalWriter {
            sink,
            scratch: Vec::new(),
            frames: existing_frames,
        }
    }

    /// Appends one batch of ops as a single frame.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn append(&mut self, batch: &[TraceOp]) -> Result<(), WalError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for op in batch {
            encode_op(op, &mut self.scratch);
        }
        self.sink
            .write_all(&(self.scratch.len() as u32).to_le_bytes())?;
        self.sink.write_all(&fnv1a(&self.scratch).to_le_bytes())?;
        self.sink.write_all(&self.scratch)?;
        self.frames += 1;
        Ok(())
    }

    /// Number of frames written (including resumed ones).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn flush(&mut self) -> Result<(), WalError> {
        self.sink.flush()?;
        Ok(())
    }
}

/// Reads framed op batches from any reader, stopping cleanly at a torn
/// tail.
#[derive(Debug)]
pub struct WalReader<R: Read> {
    source: R,
    frames_read: usize,
    torn_tail: bool,
    clean_bytes: u64,
}

impl<R: Read> WalReader<R> {
    /// Opens a WAL stream, validating the magic.
    ///
    /// # Errors
    ///
    /// [`WalError::BadMagic`] if the stream is not a WAL; I/O errors pass
    /// through.
    pub fn new(mut source: R) -> Result<Self, WalError> {
        let mut magic = [0u8; WAL_MAGIC.len()];
        if read_chunk(&mut source, &mut magic)? != ReadStatus::Full || &magic != WAL_MAGIC {
            return Err(WalError::BadMagic);
        }
        Ok(WalReader {
            source,
            frames_read: 0,
            torn_tail: false,
            clean_bytes: WAL_MAGIC.len() as u64,
        })
    }

    /// Reads the next batch, or `None` at end of log (including a torn
    /// tail, which sets [`WalReader::torn_tail`]).
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] for a complete frame with a bad checksum,
    /// [`WalError::Codec`] for undecodable payloads, I/O errors otherwise.
    pub fn next_batch(&mut self) -> Result<Option<Vec<TraceOp>>, WalError> {
        let mut header = [0u8; 8];
        match read_chunk(&mut self.source, &mut header)? {
            ReadStatus::Full => {}
            ReadStatus::Empty => return Ok(None),
            ReadStatus::Partial => {
                self.torn_tail = true;
                return Ok(None);
            }
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let checksum = u32::from_le_bytes([c0, c1, c2, c3]);
        // The header is not checksummed, so `len` is untrusted: allocate for
        // the bytes actually read, never for what a torn or corrupt header
        // claims. A short payload is a torn tail.
        let mut payload = Vec::with_capacity(len.min(PAYLOAD_PREALLOC));
        (&mut self.source)
            .take(len as u64)
            .read_to_end(&mut payload)?;
        if payload.len() < len {
            self.torn_tail = true;
            return Ok(None);
        }
        if fnv1a(&payload) != checksum {
            return Err(WalError::Corrupt {
                frame: self.frames_read,
            });
        }
        let mut slice = payload.as_slice();
        let mut count_bytes = [0u8; 4];
        count_bytes.copy_from_slice(
            slice
                .get(..4)
                .ok_or_else(|| CodecError("frame shorter than op count".into()))?,
        );
        slice = slice.get(4..).unwrap_or(&[]);
        let count = u32::from_le_bytes(count_bytes) as usize;
        let mut ops = Vec::with_capacity(count.min(slice.len()));
        for _ in 0..count {
            ops.push(decode_op(&mut slice)?);
        }
        if !slice.is_empty() {
            return Err(CodecError("trailing bytes in frame".into()).into());
        }
        self.frames_read += 1;
        self.clean_bytes += 8 + payload.len() as u64;
        Ok(Some(ops))
    }

    /// Byte length of the clean prefix consumed so far (magic plus every
    /// complete, checksum-valid frame). A torn tail starts at this offset.
    pub fn clean_bytes(&self) -> u64 {
        self.clean_bytes
    }

    /// `true` if the log ended inside a frame (a torn final write was
    /// discarded).
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Number of complete frames read so far.
    pub fn frames_read(&self) -> usize {
        self.frames_read
    }

    /// Reads every remaining batch into one vector.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WalReader::next_batch`].
    pub fn read_all(&mut self) -> Result<Vec<TraceOp>, WalError> {
        let mut ops = Vec::new();
        while let Some(batch) = self.next_batch()? {
            ops.extend(batch);
        }
        Ok(ops)
    }

    /// Replays every remaining batch into a fresh store at the given
    /// timestamp precision.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WalReader::next_batch`].
    pub fn replay(&mut self, precision: TimePrecision) -> Result<Ttkv, WalError> {
        let mut store = Ttkv::new();
        self.replay_into(&mut store, precision)?;
        Ok(store)
    }

    /// Replays every remaining batch onto an existing store.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WalReader::next_batch`].
    pub fn replay_into(
        &mut self,
        store: &mut Ttkv,
        precision: TimePrecision,
    ) -> Result<(), WalError> {
        let mut builder = TtkvBuilder::new();
        while let Some(batch) = self.next_batch()? {
            for op in batch {
                quantized(op, precision).buffer(&mut builder);
            }
        }
        builder.build_into(store);
        Ok(())
    }
}

/// Applies `precision` to a mutation's timestamp (reads are unaffected).
pub(crate) fn quantized(op: TraceOp, precision: TimePrecision) -> TraceOp {
    match op {
        TraceOp::Mutation(mut event) => {
            event.timestamp = precision.apply(event.timestamp);
            TraceOp::Mutation(event)
        }
        reads => reads,
    }
}

/// Outcome of trying to fill a fixed-size buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadStatus {
    /// The buffer was filled completely.
    Full,
    /// EOF before the first byte (a clean boundary).
    Empty,
    /// EOF mid-buffer (a torn write).
    Partial,
}

/// Like `read_exact`, but reports EOF position instead of erroring.
fn read_chunk<R: Read>(source: &mut R, buf: &mut [u8]) -> Result<ReadStatus, WalError> {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        let n = source.read(rest)?;
        if n == 0 {
            return Ok(if filled == 0 {
                ReadStatus::Empty
            } else {
                ReadStatus::Partial
            });
        }
        filled += n;
    }
    Ok(ReadStatus::Full)
}

/// A file-backed WAL with layered snapshot compaction.
///
/// ## Layout
///
/// A `wal.manifest` names a base snapshot, an ordered chain of delta
/// layers with their prune horizons, and the current log epoch
/// (`wal-<epoch>.log`). Replay = fold layers oldest→newest, re-prune at
/// the newest horizon, apply the log. A directory without a manifest is
/// the empty state at epoch 0: no layers, log `wal-0.log`. Opening one
/// writes nothing; the first compaction commits the first manifest.
///
/// The manifest rename is the single commit point for every compaction:
/// a crash at *any* byte of a mid-write delta or base leaves the previous
/// manifest (and therefore the previous replayable state) fully intact,
/// and the orphaned files are swept on the next [`Wal::open`]. The torn-
/// compaction suite in `tests/torn_tail.rs` truncates a mid-write delta at
/// every byte offset and asserts exactly pre- or post-compaction state.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    writer: Option<WalWriter<BufWriter<File>>>,
    manifest: Manifest,
    rebase_layers: usize,
    /// The current log's ops, in append order at full precision: what
    /// every compaction folds instead of reading the log back. `None`
    /// until this handle first compacts (that compaction reads the log),
    /// and again after an append or compaction fails, so the next
    /// compaction re-reads the log, which still holds every frame.
    buffer: Option<TtkvBuilder>,
}

/// Magic first line of `wal.manifest` (shared with the offline doctor,
/// which parses manifests independently so it can localise damage).
pub(crate) const MANIFEST_MAGIC: &str = "ocasta-wal-manifest v1";

/// Delta layers tolerated before a compaction folds the whole chain into
/// a fresh base (see [`Wal::set_rebase_layers`]).
const DEFAULT_REBASE_LAYERS: usize = 8;

/// The committed layer state of a WAL directory. The default (epoch 0, no
/// layers) is the state of a directory that holds no `wal.manifest`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Manifest {
    /// Monotone compaction counter; the current log is `wal-<epoch>.log`,
    /// and every layer file embeds the epoch that created it, so names
    /// never collide with orphans.
    epoch: u64,
    /// The newest prune horizon any compaction recorded; replay re-prunes
    /// the folded layers here. `None` until a pruned compaction runs.
    horizon: Option<Timestamp>,
    /// Base snapshot filename, if any.
    base: Option<String>,
    /// Delta layer filenames with the horizon each was pruned to, oldest
    /// first.
    deltas: Vec<(String, Timestamp)>,
}

impl Manifest {
    fn encode(&self) -> String {
        let mut out = format!("{MANIFEST_MAGIC}\nepoch {}\n", self.epoch);
        if let Some(h) = self.horizon {
            out.push_str(&format!("horizon {}\n", h.as_millis()));
        }
        if let Some(base) = &self.base {
            out.push_str(&format!("base {base}\n"));
        }
        for (name, h) in &self.deltas {
            out.push_str(&format!("delta {name} {}\n", h.as_millis()));
        }
        out
    }

    fn decode(text: &str) -> Result<Manifest, WalError> {
        let bad = |msg: &str| WalError::Manifest(msg.to_string());
        let mut lines = text.lines();
        if lines.next().map(str::trim_end) != Some(MANIFEST_MAGIC) {
            return Err(bad("bad magic"));
        }
        let mut manifest = Manifest::default();
        let file_name = |token: &str| -> Result<String, WalError> {
            if token.is_empty() || token == "." || token == ".." || token.contains(['/', '\\']) {
                return Err(bad("layer name must be a bare file name"));
            }
            Ok(token.to_string())
        };
        for line in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split(' ');
            match tokens.next() {
                Some("epoch") => {
                    manifest.epoch = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad epoch"))?;
                }
                Some("horizon") => {
                    let ms = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad horizon"))?;
                    manifest.horizon = Some(Timestamp::from_millis(ms));
                }
                Some("base") => {
                    manifest.base = Some(file_name(
                        tokens.next().ok_or_else(|| bad("missing base name"))?,
                    )?);
                }
                Some("delta") => {
                    let name = file_name(tokens.next().ok_or_else(|| bad("missing delta name"))?)?;
                    let ms = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad delta horizon"))?;
                    manifest.deltas.push((name, Timestamp::from_millis(ms)));
                }
                Some(other) => return Err(bad(&format!("unknown record {other:?}"))),
                // `split` always yields at least one token, but a
                // structured error beats asserting that here.
                None => return Err(bad("empty manifest record")),
            }
        }
        if manifest.horizon.is_none() && !manifest.deltas.is_empty() {
            // Only pruned compactions create deltas, and they always
            // record a horizon; folding deltas without one would skip the
            // demote-and-re-prune step and mis-rank cross-layer ties.
            return Err(bad("delta layers require a horizon"));
        }
        Ok(manifest)
    }

    /// Every file this manifest references (log included).
    fn referenced(&self) -> Vec<String> {
        let mut files = vec![self.log_name()];
        files.extend(self.base.clone());
        files.extend(self.deltas.iter().map(|(name, _)| name.clone()));
        files
    }

    fn log_name(&self) -> String {
        format!("wal-{}.log", self.epoch)
    }
}

impl Wal {
    /// Opens (creating if needed) a WAL directory for appending.
    ///
    /// Reads the manifest if one is committed (a directory without one is
    /// the empty epoch-0 state) and sweeps any orphaned files a crashed
    /// compaction left behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; [`WalError::Manifest`] if a
    /// committed manifest is unreadable.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let manifest = match std::fs::read_to_string(dir.join("wal.manifest")) {
            Ok(text) => Manifest::decode(&text)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Manifest::default(),
            Err(e) => return Err(e.into()),
        };
        let wal = Wal {
            dir,
            writer: None,
            manifest,
            rebase_layers: DEFAULT_REBASE_LAYERS,
            buffer: None,
        };
        wal.sweep_orphans();
        Ok(wal)
    }

    /// Best-effort removal of files no committed state references: temp
    /// files from any interrupted rename, layers written by a compaction
    /// that crashed before its manifest commit, and stale logs and layers
    /// from a crash between the commit and the old files' deletion.
    fn sweep_orphans(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let referenced = self.manifest.referenced();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = if name.ends_with(".tmp") {
                true
            } else if name.starts_with("wal-") && name.ends_with(".log") {
                name != self.manifest.log_name()
            } else if (name.starts_with("base-") || name.starts_with("delta-"))
                && name.ends_with(".ttkv")
            {
                !referenced.iter().any(|r| r == name)
            } else {
                false
            };
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Path of the current framed log file, `wal-<epoch>.log`.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(self.manifest.log_name())
    }

    /// Total size of the persisted snapshot state in bytes: the base plus
    /// every committed delta layer (excludes the log; see
    /// [`Wal::log_bytes`]).
    pub fn snapshot_bytes(&self) -> u64 {
        let size = |name: &str| std::fs::metadata(self.dir.join(name)).map_or(0, |m| m.len());
        self.manifest.base.as_deref().map_or(0, size)
            + self
                .manifest
                .deltas
                .iter()
                .map(|(name, _)| size(name))
                .sum::<u64>()
    }

    /// Number of committed delta layers stacked on the base.
    pub fn delta_layers(&self) -> usize {
        self.manifest.deltas.len()
    }

    /// The newest prune horizon any compaction has recorded, if any.
    pub fn horizon(&self) -> Option<Timestamp> {
        self.manifest.horizon
    }

    /// Overrides how many delta layers accumulate before a pruned
    /// compaction folds the whole chain into a fresh base (default 8).
    ///
    /// Lower values trade more frequent O(retained window) rebase stalls
    /// for fewer layers on disk; a value of `usize::MAX` never rebases
    /// (useful in tests that exercise deep chains).
    pub fn set_rebase_layers(&mut self, layers: usize) {
        self.rebase_layers = layers.max(1);
    }

    fn writer(&mut self) -> Result<&mut WalWriter<BufWriter<File>>, WalError> {
        if self.writer.is_none() {
            self.writer = Some(self.open_writer()?);
        }
        match self.writer.as_mut() {
            Some(writer) => Ok(writer),
            // Unreachable — assigned just above — but a structured error
            // beats asserting it on the appender path.
            None => Err(WalError::Io(io::Error::other(
                "wal writer did not initialise",
            ))),
        }
    }

    /// Opens (and, after a crash, repairs) the current epoch's log file,
    /// returning a writer positioned after the last complete frame.
    fn open_writer(&mut self) -> Result<WalWriter<BufWriter<File>>, WalError> {
        let path = self.log_path();
        let log_len = match std::fs::metadata(&path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e.into()),
        };
        let mut existing_frames = 0;
        if log_len > 0 && log_len < WAL_MAGIC.len() as u64 {
            // Torn during the very first write: nothing recoverable.
            OpenOptions::new().write(true).open(&path)?.set_len(0)?;
        } else if log_len > 0 {
            // Scan the log so a torn final write from a previous crash
            // is truncated away before new frames go after it —
            // otherwise every post-crash append would sit beyond the
            // torn bytes and be unreachable on replay. A checksum
            // failure on a *complete* frame still errors: that is data
            // corruption, not a torn tail.
            let mut scan = WalReader::new(BufReader::new(File::open(&path)?))?;
            while scan.next_batch()?.is_some() {}
            existing_frames = scan.frames_read();
            if scan.clean_bytes() < log_len {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(scan.clean_bytes())?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let sink = BufWriter::new(file);
        Ok(if log_len < WAL_MAGIC.len() as u64 {
            WalWriter::new(sink)?
        } else {
            WalWriter::resume(sink, existing_frames)
        })
    }

    /// Appends one batch as a frame, and copies its ops into the buffer
    /// the next compaction folds (once this handle has compacted).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&mut self, batch: &[TraceOp]) -> Result<(), WalError> {
        if let Err(e) = self.writer()?.append(batch) {
            // Part of the frame may be in the log: only the log knows.
            self.buffer = None;
            return Err(e);
        }
        if let Some(buffer) = self.buffer.as_mut() {
            for op in batch {
                op.clone().buffer(buffer);
            }
        }
        Ok(())
    }

    /// Flushes buffered frames to the file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if let Some(writer) = self.writer.as_mut() {
            writer.flush()?;
        }
        Ok(())
    }

    /// Loads one committed snapshot layer with one exact-size read.
    fn load_layer(&self, name: &str) -> Result<Ttkv, WalError> {
        let bytes = std::fs::read(self.dir.join(name))?;
        Ttkv::load_from_bytes(&bytes).map_err(|e| WalError::Snapshot(e.to_string()))
    }

    /// Folds the committed snapshot layers (everything but the current
    /// log) into one store.
    ///
    /// Base + deltas fold oldest→newest with baselines demoted to ordinary
    /// versions first — a newer layer's baseline must win timestamp ties
    /// against older layers' history, the opposite of the in-store tie
    /// rule — then re-prune once at the manifest horizon, re-collapsing
    /// every demoted version with ties ranked by true arrival order
    /// ([`Ttkv::demote_baselines`], `DESIGN.md §5.10`).
    fn fold_layers(&self) -> Result<Ttkv, WalError> {
        let Some(horizon) = self.manifest.horizon else {
            // Only pruned compactions create deltas, so a horizon-less
            // manifest has none (Manifest::decode enforces it; this
            // guards manifests constructed in-process) — and its base is
            // baseline-free, so it loads verbatim with nothing to fold.
            if !self.manifest.deltas.is_empty() {
                return Err(WalError::Manifest(
                    "delta layers require a horizon".to_string(),
                ));
            }
            return match &self.manifest.base {
                Some(name) => self.load_layer(name),
                None => Ok(Ttkv::new()),
            };
        };
        let mut layers = Vec::with_capacity(1 + self.manifest.deltas.len());
        if let Some(name) = &self.manifest.base {
            layers.push(self.load_layer(name)?);
        }
        for (name, _) in &self.manifest.deltas {
            layers.push(self.load_layer(name)?);
        }
        Ok(Ttkv::fold_layers(layers, Some(horizon)))
    }

    /// Replays snapshot layers + log into a fresh store.
    ///
    /// # Errors
    ///
    /// Snapshot parse failures, log corruption, or I/O failures.
    pub fn replay(&mut self, precision: TimePrecision) -> Result<Ttkv, WalError> {
        self.flush()?;
        let mut store = self.fold_layers()?;
        match File::open(self.log_path()) {
            Ok(file) => {
                let mut reader = WalReader::new(BufReader::new(file))?;
                reader.replay_into(&mut store, precision)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(store)
    }

    /// Flushes the log and takes its ops (the delta since the last
    /// compaction) at full precision for a compaction: the buffer, or, if
    /// this handle has none, the log read back from disk. The compaction
    /// either commits, which starts an empty buffer for the fresh log, or
    /// puts the ops back untouched; on an error the buffer stays `None`.
    fn take_log_ops(&mut self) -> Result<TtkvBuilder, WalError> {
        let buffer = self.buffer.take();
        self.flush()?;
        if let Some(buffer) = buffer {
            return Ok(buffer);
        }
        let mut ops = TtkvBuilder::new();
        match File::open(self.log_path()) {
            Ok(file) => {
                let mut reader = WalReader::new(BufReader::new(file))?;
                while let Some(batch) = reader.next_batch()? {
                    for op in batch {
                        op.buffer(&mut ops);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(ops)
    }

    /// Commits `manifest` as the directory's new state: temp write +
    /// rename (the single atomic commit point), then drops the old log
    /// writer and sweeps files the new manifest no longer references.
    fn commit_manifest(&mut self, manifest: Manifest) -> Result<(), WalError> {
        let tmp = self.dir.join("wal.manifest.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(manifest.encode().as_bytes())?;
            // The rename below is the commit point; the bytes it commits
            // must be durable before it, or a power loss can leave a
            // durable rename pointing at undurable content.
            file.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join("wal.manifest"))?;
        // Make the rename itself durable (directory metadata). Best
        // effort: not every filesystem supports syncing a directory fd.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        self.writer = None;
        // The manifest's log holds no ops yet: either a fresh epoch, or the
        // same log when the compaction found it empty.
        self.buffer = Some(TtkvBuilder::new());
        self.manifest = manifest;
        self.sweep_orphans();
        Ok(())
    }

    /// Writes `store` as a layer file under `name` (directly: the file is
    /// unreferenced until the manifest commit, so a torn write is just an
    /// orphan for [`Wal::open`] to sweep).
    ///
    /// Layers are `ocasta-ttkv binary v2` segments ([`Ttkv::save`]) —
    /// checksummed with the same FNV-1a as the log frames.
    fn write_layer(&self, name: &str, store: &Ttkv) -> Result<(), WalError> {
        let file = File::create(self.dir.join(name))?;
        let mut writer = BufWriter::new(file);
        store
            .save(&mut writer)
            .map_err(|e| WalError::Snapshot(e.to_string()))?;
        writer.flush()?;
        // Layer data must hit disk before the manifest rename that will
        // reference it (see `commit_manifest`).
        writer.get_ref().sync_all()?;
        Ok(())
    }

    /// Compacts the WAL completely: folds every layer and the log's ops
    /// into one fresh base snapshot (an O(retained state) *rebase*).
    /// Returns the compacted state.
    ///
    /// The log's ops come from the append buffer, or from the log on disk
    /// on this handle's first compaction (see the module docs).
    ///
    /// This is the unpruned, full-rewrite path; long-running retention
    /// deployments use [`Wal::compact_pruned`], which costs O(delta)
    /// per call instead.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Wal::replay`] plus snapshot write failures.
    pub fn compact(&mut self, precision: TimePrecision) -> Result<Ttkv, WalError> {
        let mut ops = self.take_log_ops()?;
        let mut store = self.fold_layers()?;
        ops.apply_precision(precision);
        ops.build_into(&mut store);
        // The recorded horizon is a floor that must survive every later
        // compaction: dropping it here would let a later shallower
        // `compact_pruned` demote this base's baselines without
        // re-collapsing them. Keep it, and normalise the rebased base to
        // it (collapsing any straggler history below the floor), so
        // replay's demote-and-re-prune of this base is the identity and
        // `compact` stays idempotent.
        if let Some(horizon) = self.manifest.horizon {
            store.prune_before(horizon);
        }
        let epoch = self.manifest.epoch + 1;
        let base = format!("base-{epoch}.ttkv");
        self.write_layer(&base, &store)?;
        self.commit_manifest(Manifest {
            epoch,
            horizon: self.manifest.horizon,
            base: Some(base),
            deltas: Vec::new(),
        })?;
        Ok(store)
    }

    /// Compacts the WAL incrementally, **pruned to `horizon`**: folds only
    /// the ops appended since the previous compaction into a delta
    /// snapshot (baselines + counters for the keys they touched, pruned to
    /// the horizon), commits it as a new layer, and starts a fresh log
    /// epoch. The ops come from the append buffer, never re-read from the
    /// log once this handle has compacted, and the buffer never outgrows
    /// the log it mirrors (see the module docs). The cost is O(delta), not
    /// O(retained state), which is what keeps the WAL lane's compaction
    /// stall proportional to what the sweep reclaimed
    /// (`DESIGN.md §5.10`). Replay after this equals the old
    /// replay-everything-and-prune path on every query (equivalence
    /// property-tested), and the disk footprint stays bounded by the
    /// retention window: once [`Wal::set_rebase_layers`] deltas pile up,
    /// one compaction folds the chain into a fresh base.
    ///
    /// A sweep that reclaims nothing — empty log and no horizon advance —
    /// is a complete no-op on persisted bytes. Returns what pruning the
    /// newly folded delta reclaimed (the whole-store tally lives with the
    /// store-side sweep, `ShardedTtkv::prune_before`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Wal::compact`].
    pub fn compact_pruned(
        &mut self,
        precision: TimePrecision,
        horizon: Timestamp,
    ) -> Result<PruneStats, WalError> {
        self.compact_pruned_inner(precision, horizon, false)
    }

    /// Like [`Wal::compact_pruned`], but always folds the whole chain and
    /// the log into one fresh pruned base — the O(retained window) rebase,
    /// on demand rather than every [`Wal::set_rebase_layers`] sweeps.
    ///
    /// The engine's retention sweeper issues exactly one of these when
    /// ingestion completes, so a finished run's disk footprint is a single
    /// pruned snapshot plus the manifest, while every mid-run sweep stays
    /// O(delta).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Wal::compact`].
    pub fn compact_pruned_rebased(
        &mut self,
        precision: TimePrecision,
        horizon: Timestamp,
    ) -> Result<PruneStats, WalError> {
        self.compact_pruned_inner(precision, horizon, true)
    }

    fn compact_pruned_inner(
        &mut self,
        precision: TimePrecision,
        horizon: Timestamp,
        force_rebase: bool,
    ) -> Result<PruneStats, WalError> {
        let mut ops = self.take_log_ops()?;
        let prior = self.manifest.horizon.unwrap_or(Timestamp::EPOCH);
        let rebase = force_rebase || self.manifest.deltas.len() + 1 > self.rebase_layers;
        if ops.is_empty() && horizon <= prior {
            // Nothing to reclaim: a complete no-op on persisted bytes —
            // unless this is a forced rebase with a chain left to fold.
            if !force_rebase || self.manifest.deltas.is_empty() {
                self.buffer = Some(ops);
                return Ok(PruneStats::default());
            }
        }
        // Horizons are monotone on disk even if a caller's are not: replay
        // prunes at the recorded maximum, which is what the store-side
        // sweep has already done.
        let horizon = horizon.max(prior);

        ops.apply_precision(precision);
        let mut delta = ops.build();
        let stats = delta.prune_before(horizon);

        let mut manifest = self.manifest.clone();
        manifest.horizon = Some(horizon);
        if delta.is_empty() && !rebase {
            // Nothing new to fold: record the deeper horizon (replay must
            // re-prune the existing layers to it) without a new layer or
            // epoch.
            self.commit_manifest(manifest)?;
            return Ok(stats);
        }
        manifest.epoch += 1;
        if rebase {
            // Fold the whole chain + this delta into a fresh base.
            let mut store = self.fold_layers()?;
            store.demote_baselines();
            delta.demote_baselines();
            store.absorb(delta);
            store.prune_before(horizon);
            if force_rebase {
                // The run is over (forced rebases are the sweeper's final
                // message): collect dead counter-only shells, mirroring the
                // store-side final sweep so replay == store. A mid-run
                // chain-length rebase must NOT do this — the live store
                // still holds those counters, and a straggler rewrite of a
                // pruned key would diverge from replay.
                store.gc_dead_shells();
            }
            let base = format!("base-{}.ttkv", manifest.epoch);
            self.write_layer(&base, &store)?;
            manifest.base = Some(base);
            manifest.deltas.clear();
        } else {
            let name = format!("delta-{}.ttkv", manifest.epoch);
            self.write_layer(&name, &delta)?;
            manifest.deltas.push((name, horizon));
        }
        self.commit_manifest(manifest)?;
        Ok(stats)
    }

    /// Size of the current log file in bytes (0 if absent).
    pub fn log_bytes(&self) -> u64 {
        std::fs::metadata(self.log_path()).map_or(0, |m| m.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_trace::AccessEvent;
    use ocasta_ttkv::{Timestamp, Value};

    fn sample_ops() -> Vec<TraceOp> {
        vec![
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(1_000),
                "app/a",
                Value::from(1),
            )),
            TraceOp::Reads(ocasta_ttkv::Key::new("app/a"), 12),
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(2_500),
                "app/b",
                Value::from("x y z"),
            )),
            TraceOp::Mutation(AccessEvent::delete(Timestamp::from_millis(3_000), "app/a")),
        ]
    }

    #[test]
    fn frames_roundtrip_through_memory() {
        let mut bytes = Vec::new();
        {
            let mut writer = WalWriter::new(&mut bytes).unwrap();
            writer.append(&sample_ops()[..2]).unwrap();
            writer.append(&sample_ops()[2..]).unwrap();
            assert_eq!(writer.frames(), 2);
        }
        let mut reader = WalReader::new(bytes.as_slice()).unwrap();
        let ops = reader.read_all().unwrap();
        assert_eq!(ops, sample_ops());
        assert_eq!(reader.frames_read(), 2);
        assert!(!reader.torn_tail());
    }

    #[test]
    fn replay_equals_direct_build() {
        let mut bytes = Vec::new();
        let mut writer = WalWriter::new(&mut bytes).unwrap();
        writer.append(&sample_ops()).unwrap();
        let replayed = WalReader::new(bytes.as_slice())
            .unwrap()
            .replay(TimePrecision::Milliseconds)
            .unwrap();
        let mut direct = Ttkv::new();
        for op in sample_ops() {
            op.apply(&mut direct, TimePrecision::Milliseconds);
        }
        assert_eq!(replayed, direct);
    }

    #[test]
    fn torn_tail_is_discarded_cleanly() {
        let mut bytes = Vec::new();
        let mut writer = WalWriter::new(&mut bytes).unwrap();
        writer.append(&sample_ops()[..2]).unwrap();
        writer.append(&sample_ops()[2..]).unwrap();
        // Cut the last frame in half.
        let cut = bytes.len() - 5;
        let torn = &bytes[..cut];
        let mut reader = WalReader::new(torn).unwrap();
        let ops = reader.read_all().unwrap();
        assert_eq!(ops, sample_ops()[..2].to_vec());
        assert!(reader.torn_tail());
        assert_eq!(reader.frames_read(), 1);
    }

    #[test]
    fn corrupt_frame_is_an_error() {
        let mut bytes = Vec::new();
        let mut writer = WalWriter::new(&mut bytes).unwrap();
        writer.append(&sample_ops()).unwrap();
        // Flip a payload byte (past magic + frame header).
        let idx = WAL_MAGIC.len() + 8 + 3;
        bytes[idx] ^= 0xFF;
        let mut reader = WalReader::new(bytes.as_slice()).unwrap();
        assert!(matches!(
            reader.next_batch(),
            Err(WalError::Corrupt { frame: 0 })
        ));
    }

    #[test]
    fn undersized_frame_payload_is_a_codec_error() {
        // Regression: a checksum-valid frame whose payload is shorter
        // than its own op-count header must surface as a structured
        // error on the replay path, not a slice panic.
        let mut bytes = WAL_MAGIC.to_vec();
        let payload = [0u8; 2]; // too short to hold the 4-byte op count
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut reader = WalReader::new(bytes.as_slice()).unwrap();
        assert!(matches!(reader.next_batch(), Err(WalError::Codec(_))));
    }

    #[test]
    fn rejects_non_wal_streams() {
        assert!(matches!(
            WalReader::new(&b"not a wal"[..]),
            Err(WalError::BadMagic)
        ));
        assert!(matches!(WalReader::new(&b""[..]), Err(WalError::BadMagic)));
    }

    #[test]
    fn file_wal_appends_replays_and_compacts() {
        let dir = std::env::temp_dir().join(format!("ocasta-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(&sample_ops()[..2]).unwrap();
        wal.append(&sample_ops()[2..]).unwrap();
        let before = wal.replay(TimePrecision::Milliseconds).unwrap();
        assert_eq!(before.stats().writes, 2);
        assert_eq!(before.stats().deletes, 1);
        assert!(wal.log_bytes() > 0);

        // Compaction preserves state and truncates the log.
        let compacted = wal.compact(TimePrecision::Milliseconds).unwrap();
        assert_eq!(compacted, before);
        assert_eq!(wal.log_bytes(), 0);

        // Post-compaction appends layer on top of the snapshot.
        wal.append(&[TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(9_000),
            "app/a",
            Value::from(2),
        ))])
        .unwrap();
        let after = wal.replay(TimePrecision::Milliseconds).unwrap();
        assert_eq!(after.stats().writes, 3);
        assert_eq!(
            after.current("app/a"),
            Some(&Value::from(2)),
            "deleted key rewritten after compaction"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_after_a_torn_tail_truncates_then_appends() {
        let dir = std::env::temp_dir().join(format!("ocasta-wal-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(&sample_ops()[..2]).unwrap();
            wal.append(&sample_ops()[2..]).unwrap();
            wal.flush().unwrap();
        }
        // Simulate a crash mid-append: cut the final frame in half.
        let log = dir.join("wal-0.log");
        let full = std::fs::metadata(&log).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(full - 5)
            .unwrap();
        // Reopen and append: the torn tail must be truncated first so the
        // new frame is reachable on replay.
        let mut wal = Wal::open(&dir).unwrap();
        let extra = TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(9_999),
            "app/c",
            Value::from(true),
        ));
        wal.append(std::slice::from_ref(&extra)).unwrap();
        wal.flush().unwrap();
        let file = File::open(&log).unwrap();
        let mut reader = WalReader::new(BufReader::new(file)).unwrap();
        let ops = reader.read_all().unwrap();
        assert!(!reader.torn_tail(), "torn bytes must be gone");
        let mut expected = sample_ops()[..2].to_vec();
        expected.push(extra);
        assert_eq!(ops, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_pruned_bounds_the_snapshot_and_keeps_post_horizon_state() {
        let dir = std::env::temp_dir().join(format!("ocasta-wal-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut full_wal = Wal::open(dir.join("full")).unwrap();
        let mut wal = Wal::open(dir.join("pruned")).unwrap();
        let ops: Vec<TraceOp> = (0..200)
            .map(|i| {
                TraceOp::Mutation(AccessEvent::write(
                    Timestamp::from_millis(i * 100),
                    format!("app/k{}", i % 5),
                    Value::from(i as i64),
                ))
            })
            .collect();
        for chunk in ops.chunks(20) {
            full_wal.append(chunk).unwrap();
            wal.append(chunk).unwrap();
        }
        let full = full_wal.replay(TimePrecision::Milliseconds).unwrap();
        let full_snapshot_bytes = {
            full_wal.compact(TimePrecision::Milliseconds).unwrap();
            full_wal.snapshot_bytes()
        };

        let horizon = Timestamp::from_millis(15_000);
        let stats = wal
            .compact_pruned(TimePrecision::Milliseconds, horizon)
            .unwrap();
        assert!(stats.pruned_versions > 0);
        assert_eq!(wal.log_bytes(), 0, "fresh epoch after compaction");
        let pruned_snapshot_bytes = wal.snapshot_bytes();
        assert!(
            pruned_snapshot_bytes < full_snapshot_bytes,
            "{pruned_snapshot_bytes} vs {full_snapshot_bytes}"
        );
        // Replay equals the rebuild path exactly: replay-everything, prune
        // once at the horizon.
        let replayed = wal.replay(TimePrecision::Milliseconds).unwrap();
        let mut expected = full.clone();
        expected.prune_before(horizon);
        assert_eq!(replayed, expected);
        assert_eq!(replayed.stats().writes, full.stats().writes);
        for key in full.keys() {
            assert_eq!(
                replayed.value_at(key.as_str(), horizon),
                full.value_at(key.as_str(), horizon),
                "{key}"
            );
        }
        // Appends after a pruned compaction layer on normally.
        wal.append(&[TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(90_000),
            "app/k0",
            Value::from(-1),
        ))])
        .unwrap();
        let after = wal.replay(TimePrecision::Milliseconds).unwrap();
        assert_eq!(after.current("app/k0"), Some(&Value::from(-1)));
        assert_eq!(after.stats().writes, full.stats().writes + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn layered_compaction_chain_equals_replay_everything() {
        // Many pruned compactions stack delta layers; at every stage the
        // layered replay must equal the rebuild path (fold the complete op
        // stream, prune once at the newest horizon, apply the tail).
        let dir = std::env::temp_dir().join(format!("ocasta-wal-layers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).unwrap();
        wal.set_rebase_layers(usize::MAX); // deep chain, no rebase
        let ops: Vec<TraceOp> = (0..300)
            .map(|i| {
                TraceOp::Mutation(AccessEvent::write(
                    Timestamp::from_millis(i * 50),
                    format!("app/k{}", i % 7),
                    Value::from(i as i64),
                ))
            })
            .collect();
        let mut fed: Vec<TraceOp> = Vec::new();
        for (round, chunk) in ops.chunks(60).enumerate() {
            wal.append(chunk).unwrap();
            fed.extend_from_slice(chunk);
            let horizon = Timestamp::from_millis((round as u64 + 1) * 2_000);
            wal.compact_pruned(TimePrecision::Milliseconds, horizon)
                .unwrap();
            assert_eq!(wal.delta_layers(), round + 1, "one layer per round");

            let mut rebuild = Ttkv::new();
            for op in &fed {
                op.clone().apply(&mut rebuild, TimePrecision::Milliseconds);
            }
            rebuild.prune_before(horizon);
            let replayed = wal.replay(TimePrecision::Milliseconds).unwrap();
            assert_eq!(replayed, rebuild, "round {round}");

            // Reopening reads the same committed chain.
            let replayed = Wal::open(&dir)
                .unwrap()
                .replay(TimePrecision::Milliseconds)
                .unwrap();
            assert_eq!(replayed, rebuild, "round {round} reopened");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebase_folds_the_chain_and_bounds_disk() {
        let dir = std::env::temp_dir().join(format!("ocasta-wal-rebase-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).unwrap();
        wal.set_rebase_layers(3);
        for round in 0u64..10 {
            let ops: Vec<TraceOp> = (0..40)
                .map(|i| {
                    TraceOp::Mutation(AccessEvent::write(
                        Timestamp::from_millis(round * 4_000 + i * 100),
                        format!("app/k{}", i % 5),
                        Value::from((round * 100 + i) as i64),
                    ))
                })
                .collect();
            wal.append(&ops).unwrap();
            let horizon = Timestamp::from_millis(round.saturating_sub(1) * 4_000);
            wal.compact_pruned(TimePrecision::Milliseconds, horizon)
                .unwrap();
            assert!(wal.delta_layers() <= 3, "round {round}: chain bounded");
        }
        // After rebases, the whole chain serves exactly the staged-prune
        // state and the disk holds only base + few deltas.
        let replayed = wal.replay(TimePrecision::Milliseconds).unwrap();
        assert_eq!(replayed.stats().writes, 400, "counters survive rebases");
        assert!(wal.snapshot_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_reclaimed_sweep_is_a_noop_on_persisted_bytes() {
        let dir = std::env::temp_dir().join(format!("ocasta-wal-noop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(&sample_ops()).unwrap();
        let horizon = Timestamp::from_millis(2_000);
        wal.compact_pruned(TimePrecision::Milliseconds, horizon)
            .unwrap();
        let bytes_before = wal.snapshot_bytes();
        let manifest_before = std::fs::read_to_string(dir.join("wal.manifest")).unwrap();
        let epoch_log = wal.log_path();
        // Empty log, unchanged horizon: nothing to reclaim, nothing
        // written — byte-for-byte.
        let stats = wal
            .compact_pruned(TimePrecision::Milliseconds, horizon)
            .unwrap();
        assert!(stats.is_noop());
        assert_eq!(wal.snapshot_bytes(), bytes_before);
        assert_eq!(
            std::fs::read_to_string(dir.join("wal.manifest")).unwrap(),
            manifest_before
        );
        assert_eq!(wal.log_path(), epoch_log, "no new epoch");
        // A deeper horizon with an empty log records the horizon (replay
        // must re-prune) but still writes no layer.
        let layers = wal.delta_layers();
        wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::from_millis(3_500))
            .unwrap();
        assert_eq!(wal.delta_layers(), layers);
        assert_eq!(wal.horizon(), Some(Timestamp::from_millis(3_500)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_compact_keeps_the_horizon_floor_against_shallower_sweeps() {
        // Regression: `compact()` used to clear the manifest horizon, so a
        // later `compact_pruned` at a *shallower* horizon re-clamped
        // against EPOCH and replay demoted the base's baselines without
        // re-collapsing them — resurrecting collapsed mutations as
        // ordinary history.
        let dir = std::env::temp_dir().join(format!("ocasta-wal-floor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).unwrap();
        for (t, v) in [(1_000u64, 1i64), (3_000, 3), (6_000, 6)] {
            wal.append(&[TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(t),
                "app/k",
                Value::from(v),
            ))])
            .unwrap();
        }
        wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::from_millis(5_000))
            .unwrap();
        let reference = wal.replay(TimePrecision::Milliseconds).unwrap();
        assert_eq!(
            reference.record("app/k").unwrap().baseline(),
            Some(&ocasta_ttkv::Version::write(
                Timestamp::from_millis(3_000),
                Value::from(3)
            )),
        );
        wal.compact(TimePrecision::Milliseconds).unwrap();
        assert_eq!(wal.horizon(), Some(Timestamp::from_millis(5_000)));
        // The shallower sweep must not un-collapse the ts-3000 baseline.
        wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::from_millis(2_000))
            .unwrap();
        let replayed = wal.replay(TimePrecision::Milliseconds).unwrap();
        assert_eq!(replayed, reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrips_and_rejects_garbage() {
        let manifest = Manifest {
            epoch: 7,
            horizon: Some(Timestamp::from_millis(123_456)),
            base: Some("base-3.ttkv".into()),
            deltas: vec![
                ("delta-5.ttkv".into(), Timestamp::from_millis(100_000)),
                ("delta-7.ttkv".into(), Timestamp::from_millis(123_456)),
            ],
        };
        let decoded = Manifest::decode(&manifest.encode()).unwrap();
        assert_eq!(decoded, manifest);
        assert!(Manifest::decode("not a manifest").is_err());
        assert!(Manifest::decode(&format!("{MANIFEST_MAGIC}\nepoch x\n")).is_err());
        assert!(
            Manifest::decode(&format!("{MANIFEST_MAGIC}\nbase ../escape.ttkv\n")).is_err(),
            "layer names must be bare file names"
        );
        assert!(
            Manifest::decode(&format!("{MANIFEST_MAGIC}\nbase ..\n")).is_err(),
            "dot-dot is not a layer name"
        );
        assert!(
            Manifest::decode(&format!("{MANIFEST_MAGIC}\ndelta d.ttkv 5\n")).is_err(),
            "delta layers without a horizon must be rejected"
        );
    }

    #[test]
    fn compact_is_idempotent() {
        let dir = std::env::temp_dir().join(format!("ocasta-wal-compact2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(&sample_ops()).unwrap();
        let once = wal.compact(TimePrecision::Milliseconds).unwrap();
        // A second compaction with no log present must succeed unchanged.
        let twice = wal.compact(TimePrecision::Milliseconds).unwrap();
        assert_eq!(once, twice);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_wal_resumes_appending() {
        let dir = std::env::temp_dir().join(format!("ocasta-wal-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(&sample_ops()[..2]).unwrap();
            wal.flush().unwrap();
        }
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(&sample_ops()[2..]).unwrap();
            let store = wal.replay(TimePrecision::Milliseconds).unwrap();
            assert_eq!(store.stats().writes, 2);
            assert_eq!(store.stats().deletes, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `count` ops from `first` on: writes to three keys at millisecond
    /// timestamps that descend within each second (so second precision
    /// creates ties whose order only arrival decides), a delete every
    /// seventh op and reads every fifth.
    fn ops_from(first: u64, count: u64) -> Vec<TraceOp> {
        (first..first + count)
            .map(|i| {
                let t = Timestamp::from_millis(i / 4 * 1_000 + 900 - (i % 4) * 200);
                let key = format!("app/k{}", i % 3);
                if i % 5 == 0 {
                    TraceOp::Reads(ocasta_ttkv::Key::new(key), i)
                } else if i % 7 == 0 {
                    TraceOp::Mutation(AccessEvent::delete(t, key))
                } else {
                    TraceOp::Mutation(AccessEvent::write(t, key, Value::from(i as i64)))
                }
            })
            .collect()
    }

    /// The rebuild reference: every op applied in order, pruned once.
    fn rebuilt(ops: &[TraceOp], precision: TimePrecision, horizon: Timestamp) -> Ttkv {
        let mut store = Ttkv::new();
        for op in ops {
            op.clone().apply(&mut store, precision);
        }
        store.prune_before(horizon);
        store
    }

    #[test]
    fn buffering_starts_at_a_handles_first_compaction() {
        let dir = std::env::temp_dir().join(format!("ocasta-wal-nobuf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(&ops_from(0, 40)).unwrap();
        wal.replay(TimePrecision::Milliseconds).unwrap();
        wal.append(&ops_from(40, 40)).unwrap();
        assert!(wal.buffer.is_none());
        // The first compaction starts the buffer; appends then fill it.
        wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::EPOCH)
            .unwrap();
        assert!(wal.buffer.as_ref().is_some_and(TtkvBuilder::is_empty));
        // A no-op compaction keeps it.
        wal.compact_pruned(TimePrecision::Milliseconds, Timestamp::EPOCH)
            .unwrap();
        assert!(wal.buffer.is_some());
        wal.append(&ops_from(81, 3)).unwrap();
        assert_eq!(wal.buffer.as_ref().map(TtkvBuilder::len), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_log_seeds_the_buffer_and_compacts_exactly() {
        // A handle reopened over a log with frames has no buffer: its first
        // compaction reads the log, later ones fold the buffer.
        let dir = std::env::temp_dir().join(format!("ocasta-wal-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let precision = TimePrecision::Seconds;
        let ops = ops_from(0, 240);
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(&ops[..60]).unwrap();
            wal.compact_pruned(precision, Timestamp::from_secs(5))
                .unwrap();
            wal.append(&ops[60..100]).unwrap();
            wal.flush().unwrap();
        }
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(&ops[100..140]).unwrap();
        let horizon = Timestamp::from_secs(20);
        wal.compact_pruned(precision, horizon).unwrap();
        assert_eq!(
            wal.replay(precision).unwrap(),
            rebuilt(&ops[..140], precision, horizon)
        );
        wal.append(&ops[140..200]).unwrap();
        let horizon = Timestamp::from_secs(40);
        wal.compact_pruned(precision, horizon).unwrap();
        assert_eq!(
            wal.replay(precision).unwrap(),
            rebuilt(&ops[..200], precision, horizon)
        );
        wal.append(&ops[200..]).unwrap();
        let compacted = wal.compact(precision).unwrap();
        let reference = rebuilt(&ops, precision, horizon);
        assert_eq!(compacted, reference);
        assert_eq!(wal.replay(precision).unwrap(), reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_compaction_drops_the_buffer_and_the_retry_loses_nothing() {
        // A directory squatting on the file a compaction must create makes
        // it fail before its manifest commit. Ops appended after the
        // failure reach only the log; the retry must read them back.
        type Compaction = fn(&mut Wal, Timestamp) -> Result<(), WalError>;
        let pruned: Compaction = |wal, h| wal.compact_pruned(TimePrecision::Seconds, h).map(drop);
        let rebased: Compaction = |wal, h| {
            wal.compact_pruned_rebased(TimePrecision::Seconds, h)
                .map(drop)
        };
        let full: Compaction = |wal, _| wal.compact(TimePrecision::Seconds).map(drop);
        let cases: [(&str, &str, Compaction); 4] = [
            ("delta", "delta-{}.ttkv", pruned),
            ("manifest", "wal.manifest.tmp", pruned),
            ("rebase", "base-{}.ttkv", rebased),
            ("full", "base-{}.ttkv", full),
        ];
        for (case, squat, compaction) in cases {
            let dir = std::env::temp_dir()
                .join(format!("ocasta-wal-squat-{case}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let precision = TimePrecision::Seconds;
            let ops = ops_from(0, 160);
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(&ops[..40]).unwrap();
            let horizon = Timestamp::from_secs(4);
            wal.compact_pruned(precision, horizon).unwrap();
            wal.append(&ops[40..80]).unwrap();

            let squatter = dir.join(squat.replace("{}", &(wal.manifest.epoch + 1).to_string()));
            std::fs::create_dir(&squatter).unwrap();
            let manifest = std::fs::read(dir.join("wal.manifest")).unwrap();
            assert!(compaction(&mut wal, horizon).is_err(), "{case}");
            assert!(wal.buffer.is_none(), "{case}: a failure drops the buffer");
            assert_eq!(
                std::fs::read(dir.join("wal.manifest")).unwrap(),
                manifest,
                "{case}: nothing committed"
            );
            wal.append(&ops[80..120]).unwrap();
            std::fs::remove_dir(&squatter).unwrap();
            compaction(&mut wal, horizon).unwrap();
            wal.append(&ops[120..]).unwrap();
            assert_eq!(
                wal.replay(precision).unwrap(),
                rebuilt(&ops, precision, horizon),
                "{case}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn second_precision_deltas_equal_the_read_the_log_path() {
        // Millisecond appends, compacted at second precision from the
        // buffer, must write the delta layer the log read back and
        // quantised op by op would have written.
        let dir = std::env::temp_dir().join(format!("ocasta-wal-precision-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let precision = TimePrecision::Seconds;
        let ops = ops_from(0, 200);
        let mut wal = Wal::open(&dir).unwrap();
        wal.set_rebase_layers(usize::MAX);
        for (round, chunk) in ops.chunks(50).enumerate() {
            wal.append(&chunk[..25]).unwrap();
            wal.append(&chunk[25..]).unwrap();
            wal.flush().unwrap();
            let horizon = Timestamp::from_secs(round as u64 * 10);
            let mut expected = TtkvBuilder::new();
            let mut log =
                WalReader::new(BufReader::new(File::open(wal.log_path()).unwrap())).unwrap();
            while let Some(batch) = log.next_batch().unwrap() {
                for op in batch {
                    quantized(op, precision).buffer(&mut expected);
                }
            }
            let mut expected = expected.build();
            expected.prune_before(horizon);

            wal.compact_pruned(precision, horizon).unwrap();
            let (layer, _) = wal.manifest.deltas.last().unwrap();
            assert_eq!(wal.load_layer(layer).unwrap(), expected, "round {round}");
        }
        assert_eq!(
            wal.replay(precision).unwrap(),
            rebuilt(&ops, precision, Timestamp::from_secs(30))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_frame_header_reads_as_a_torn_tail() {
        // The header is not checksummed: one claiming u32::MAX bytes with
        // 3 bytes behind it is a torn tail, found without allocating what
        // it claims.
        /// Records the largest read it is asked to fill.
        struct Largest<'a> {
            bytes: &'a [u8],
            largest: usize,
        }
        impl Read for Largest<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.bytes.read(buf)
            }
        }
        let mut bytes = Vec::new();
        WalWriter::new(&mut bytes)
            .unwrap()
            .append(&sample_ops())
            .unwrap();
        let clean = bytes.len() as u64;
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut source = Largest {
            bytes: &bytes,
            largest: 0,
        };
        let mut reader = WalReader::new(&mut source).unwrap();
        assert_eq!(reader.read_all().unwrap(), sample_ops());
        assert!(reader.torn_tail());
        assert_eq!(reader.clean_bytes(), clean);
        assert!(
            source.largest <= PAYLOAD_PREALLOC,
            "read into a {}-byte buffer",
            source.largest
        );

        // Reopening truncates it like any torn tail, then appends after.
        let dir = std::env::temp_dir().join(format!("ocasta-wal-huge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-0.log"), &bytes).unwrap();
        let mut wal = Wal::open(&dir).unwrap();
        let extra = TraceOp::Mutation(AccessEvent::write(
            Timestamp::from_millis(9_999),
            "app/c",
            Value::from(true),
        ));
        wal.append(std::slice::from_ref(&extra)).unwrap();
        wal.flush().unwrap();
        let mut reader =
            WalReader::new(BufReader::new(File::open(dir.join("wal-0.log")).unwrap())).unwrap();
        let mut expected = sample_ops();
        expected.push(extra);
        assert_eq!(reader.read_all().unwrap(), expected);
        assert!(!reader.torn_tail(), "torn bytes must be gone");
        std::fs::remove_dir_all(&dir).ok();
    }
}
