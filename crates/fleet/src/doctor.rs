//! Offline fleet-directory inspection: the `ocasta doctor` surface.
//!
//! [`diagnose`] walks a WAL directory **without opening it for writing**
//! (and without sweeping anything — unlike [`crate::Wal::open`], it only
//! reports) and checks everything the layered format promises. A directory
//! without a `wal.manifest` is checked as the empty epoch-0 state (no
//! layers, log `wal-0.log`), exactly as `Wal::open` reads it:
//!
//! * **manifest chain health** — magic line, record syntax, bare-filename
//!   validation, epoch ordering between the manifest and the layer files
//!   it names, horizon monotonicity across the delta chain;
//! * **layer integrity** — every referenced base/delta exists, passes an
//!   independent structural scan of the binary v2 segment format — magic,
//!   fixed section order, per-section FNV-1a checksums, a strictly sorted
//!   intern table, the mandatory end marker, no trailing bytes — decodes
//!   as a TTKV snapshot, and keeps its collapsed baselines at or below the
//!   recorded horizon (the horizon-consistency invariant replay relies
//!   on);
//! * **log integrity** — the framed log's magic and a checksum
//!   verification of every complete frame, distinguishing a *torn tail*
//!   (a crash mid-append; recoverable by design, reported as a warning)
//!   from a checksum mismatch on a complete frame (data corruption, an
//!   error);
//! * **segment lineage** — the base layer's embedded epoch sits strictly
//!   below every delta's (`segment-generation`): generations seal
//!   oldest-first, so an inversion means replay would fold layers out of
//!   order. And an unreferenced layer *two or more* epochs past the
//!   manifest (`segment-orphan`) is an error — a committed rebase failed
//!   to sweep it — while the single-generation orphan a lone crash can
//!   produce stays a warning;
//! * **leftovers** — `*.tmp` files from interrupted commits, stale logs
//!   and unreferenced layers a crashed compaction orphaned (all swept
//!   automatically by the next `Wal::open`; warnings).
//!
//! Findings carry a [`Severity`]: `Error` means replay would fail or
//! serve wrong state (the CLI exits non-zero); `Warning` means something
//! needs (automatic) cleanup or lost a torn tail. A healthy directory
//! produces **no findings at all** — the torn-tail injection corpus in
//! `tests/doctor.rs` asserts both directions: every injected damage class
//! is flagged, and undamaged directories stay silent.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use ocasta_ttkv::{Timestamp, Ttkv};

use crate::wal::{WalError, WalReader, MANIFEST_MAGIC, WAL_MAGIC};

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Recoverable damage or pending cleanup: torn tails, orphans, temp
    /// files. The next `Wal::open` handles these on its own.
    Warning,
    /// Corruption: replay would fail, or serve state the manifest chain
    /// does not vouch for.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "ERROR"),
        }
    }
}

/// One observation about a fleet directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Stable identifier of the check that fired (e.g. `log-corrupt`).
    pub check: &'static str,
    /// The file (or directory) the finding is about, relative to the
    /// inspected dir.
    pub target: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.check, self.target, self.detail
        )
    }
}

/// Everything [`diagnose`] found, plus how much it verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoctorReport {
    /// The inspected directory.
    pub dir: PathBuf,
    /// Findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Complete, checksum-verified frames across scanned logs.
    pub frames_verified: u64,
    /// Snapshot layers parsed and validated.
    pub layers_verified: usize,
    /// Checksum-verified binary v2 sections across those layers.
    pub sections_verified: u64,
}

impl DoctorReport {
    /// `true` if any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// `true` when nothing at all was found.
    pub fn is_healthy(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of exactly `severity`.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity == severity)
    }

    /// Findings fired by `check`.
    pub fn with_check<'a>(&'a self, check: &'a str) -> impl Iterator<Item = &'a Finding> {
        self.findings.iter().filter(move |f| f.check == check)
    }
}

impl std::fmt::Display for DoctorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "doctor: {}", self.dir.display())?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        let errors = self.with_severity(Severity::Error).count();
        let warnings = self.with_severity(Severity::Warning).count();
        if self.is_healthy() {
            write!(
                f,
                "healthy: {} frame(s), {} layer(s) and {} section(s) verified",
                self.frames_verified, self.layers_verified, self.sections_verified
            )
        } else {
            write!(
                f,
                "{errors} error(s), {warnings} warning(s); {} frame(s), {} layer(s) and {} \
                 section(s) verified",
                self.frames_verified, self.layers_verified, self.sections_verified
            )
        }
    }
}

/// The manifest as the doctor's independent parser reads it. Unlike the
/// engine's (private) decoder — which rejects the whole file on the first
/// bad record — this one keeps going and reports every problem it can
/// localise, so one corrupt line doesn't hide a missing layer two lines
/// down.
#[derive(Debug, Default)]
struct ParsedManifest {
    epoch: u64,
    horizon: Option<Timestamp>,
    base: Option<String>,
    deltas: Vec<(String, Timestamp)>,
}

/// Inspects a WAL directory offline and reports severity-ranked findings.
///
/// Never writes, never sweeps; safe to run against a directory another
/// process is (not currently) appending to. See the module docs for the
/// full check list.
pub fn diagnose(dir: impl AsRef<Path>) -> DoctorReport {
    let dir = dir.as_ref();
    let mut report = DoctorReport {
        dir: dir.to_path_buf(),
        findings: Vec::new(),
        frames_verified: 0,
        layers_verified: 0,
        sections_verified: 0,
    };

    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .collect::<BTreeSet<String>>(),
        Err(e) => {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "dir",
                target: dir.display().to_string(),
                detail: format!("not a readable directory: {e}"),
            });
            return report;
        }
    };

    // Temp files first: they exist in exactly one circumstance — a crash
    // between a temp write and its rename — and never invalidate the
    // committed state (the rename *is* the commit point).
    for name in entries.iter().filter(|n| n.ends_with(".tmp")) {
        let detail = if name == "wal.manifest.tmp" {
            "interrupted manifest commit; the committed manifest still governs \
             (swept on next open)"
        } else {
            "interrupted temp write (swept on next open)"
        };
        report.findings.push(Finding {
            severity: Severity::Warning,
            check: "tmp",
            target: name.clone(),
            detail: detail.to_string(),
        });
    }

    let manifest = match std::fs::read_to_string(dir.join("wal.manifest")) {
        Ok(text) => {
            let manifest = parse_manifest(&text, &mut report);
            if report.has_errors() {
                // A manifest we cannot trust makes every downstream check
                // guesswork; stop at the parse findings.
                return report;
            }
            manifest
        }
        // No manifest: the empty epoch-0 state.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => ParsedManifest::default(),
        Err(e) => {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "manifest-io",
                target: "wal.manifest".to_string(),
                detail: e.to_string(),
            });
            return report;
        }
    };
    diagnose_layered(dir, &entries, &manifest, &mut report);
    report
}

/// Parses `wal.manifest` leniently, pushing a finding per problem.
fn parse_manifest(text: &str, report: &mut DoctorReport) -> ParsedManifest {
    let mut manifest = ParsedManifest::default();
    let mut lines = text.lines();
    if lines.next().map(str::trim_end) != Some(MANIFEST_MAGIC) {
        report.findings.push(Finding {
            severity: Severity::Error,
            check: "manifest-magic",
            target: "wal.manifest".to_string(),
            detail: format!("first line is not {MANIFEST_MAGIC:?}"),
        });
        return manifest;
    }
    let mut bad = |check: &'static str, detail: String| {
        report.findings.push(Finding {
            severity: Severity::Error,
            check,
            target: "wal.manifest".to_string(),
            detail,
        });
    };
    let file_name_ok = |token: &str| {
        !(token.is_empty() || token == "." || token == ".." || token.contains(['/', '\\']))
    };
    for (lineno, line) in lines.enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split(' ');
        match tokens.next() {
            Some("epoch") => match tokens.next().and_then(|t| t.parse().ok()) {
                Some(epoch) => manifest.epoch = epoch,
                None => bad("manifest-record", format!("line {}: bad epoch", lineno + 2)),
            },
            Some("horizon") => match tokens.next().and_then(|t| t.parse().ok()) {
                Some(ms) => manifest.horizon = Some(Timestamp::from_millis(ms)),
                None => bad(
                    "manifest-record",
                    format!("line {}: bad horizon", lineno + 2),
                ),
            },
            Some("base") => match tokens.next() {
                Some(name) if file_name_ok(name) => manifest.base = Some(name.to_string()),
                Some(name) => bad(
                    "manifest-layer-name",
                    format!("base {name:?} is not a bare file name"),
                ),
                None => bad(
                    "manifest-record",
                    format!("line {}: missing base name", lineno + 2),
                ),
            },
            Some("delta") => {
                let name = tokens.next();
                let horizon = tokens.next().and_then(|t| t.parse().ok());
                match (name, horizon) {
                    (Some(name), Some(ms)) if file_name_ok(name) => manifest
                        .deltas
                        .push((name.to_string(), Timestamp::from_millis(ms))),
                    (Some(name), Some(_)) => bad(
                        "manifest-layer-name",
                        format!("delta {name:?} is not a bare file name"),
                    ),
                    _ => bad(
                        "manifest-record",
                        format!("line {}: bad delta record", lineno + 2),
                    ),
                }
            }
            Some(other) => bad(
                "manifest-record",
                format!("line {}: unknown record {other:?}", lineno + 2),
            ),
            None => unreachable!("split always yields a token"),
        }
    }
    if manifest.horizon.is_none() && !manifest.deltas.is_empty() {
        bad(
            "manifest-horizon",
            "delta layers require a recorded horizon".to_string(),
        );
    }
    manifest
}

/// The epoch a layer or log filename embeds, if it follows the engine's
/// naming scheme (`base-<e>.ttkv`, `delta-<e>.ttkv`, `wal-<e>.log`).
fn embedded_epoch(name: &str) -> Option<u64> {
    for (prefix, suffix) in [("base-", ".ttkv"), ("delta-", ".ttkv"), ("wal-", ".log")] {
        if let Some(rest) = name.strip_prefix(prefix) {
            if let Some(digits) = rest.strip_suffix(suffix) {
                return digits.parse().ok();
            }
        }
    }
    None
}

/// Checks a directory against its parsed manifest.
fn diagnose_layered(
    dir: &Path,
    entries: &BTreeSet<String>,
    manifest: &ParsedManifest,
    report: &mut DoctorReport,
) {
    let log_name = format!("wal-{}.log", manifest.epoch);

    // Epoch ordering: no layer (or log) the manifest references may come
    // from a *later* epoch than the manifest itself — the epoch counter is
    // the commit order — and the delta chain must be oldest-first.
    let mut chain: Vec<&str> = manifest.deltas.iter().map(|(n, _)| n.as_str()).collect();
    chain.extend(manifest.base.as_deref());
    for name in chain {
        if let Some(epoch) = embedded_epoch(name) {
            if epoch > manifest.epoch {
                report.findings.push(Finding {
                    severity: Severity::Error,
                    check: "manifest-epoch",
                    target: name.to_string(),
                    detail: format!(
                        "layer epoch {epoch} is newer than the manifest epoch {}",
                        manifest.epoch
                    ),
                });
            }
        }
    }
    let delta_epochs: Vec<u64> = manifest
        .deltas
        .iter()
        .filter_map(|(n, _)| embedded_epoch(n))
        .collect();
    if delta_epochs.windows(2).any(|w| w[0] >= w[1]) {
        report.findings.push(Finding {
            severity: Severity::Error,
            check: "manifest-epoch",
            target: "wal.manifest".to_string(),
            detail: format!("delta chain epochs are not strictly increasing: {delta_epochs:?}"),
        });
    }

    // Segment-generation monotonicity: the base layer is the *oldest*
    // sealed generation, so its epoch must sit strictly below every
    // delta's. A delta at or below the base means seal order and fold
    // order disagree — replay would absorb layers out of generation.
    if let Some(base_epoch) = manifest.base.as_deref().and_then(embedded_epoch) {
        if let Some(&oldest_delta) = delta_epochs.iter().min() {
            if oldest_delta <= base_epoch {
                report.findings.push(Finding {
                    severity: Severity::Error,
                    check: "segment-generation",
                    target: "wal.manifest".to_string(),
                    detail: format!(
                        "delta epoch {oldest_delta} is not strictly above the base \
                         epoch {base_epoch}"
                    ),
                });
            }
        }
    }

    // Horizon monotonicity: the chain's recorded horizons never decrease,
    // and the manifest horizon is their ceiling (replay re-prunes there).
    let delta_horizons: Vec<Timestamp> = manifest.deltas.iter().map(|(_, h)| *h).collect();
    if delta_horizons.windows(2).any(|w| w[0] > w[1]) {
        report.findings.push(Finding {
            severity: Severity::Error,
            check: "manifest-horizon",
            target: "wal.manifest".to_string(),
            detail: "delta chain horizons decrease along the chain".to_string(),
        });
    }
    if let (Some(ceiling), Some(&deepest)) = (manifest.horizon, delta_horizons.iter().max()) {
        if deepest > ceiling {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "manifest-horizon",
                target: "wal.manifest".to_string(),
                detail: format!(
                    "a delta records horizon {deepest} beyond the manifest horizon {ceiling}"
                ),
            });
        }
    }

    // Referenced layers: present, parseable, and horizon-consistent.
    let mut referenced: BTreeSet<&str> = BTreeSet::new();
    let layers: Vec<&str> = manifest
        .base
        .as_deref()
        .into_iter()
        .chain(manifest.deltas.iter().map(|(n, _)| n.as_str()))
        .collect();
    for name in layers {
        referenced.insert(name);
        if !entries.contains(name) {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "layer-missing",
                target: name.to_string(),
                detail: "referenced by the manifest but absent on disk".to_string(),
            });
            continue;
        }
        check_layer(dir, name, manifest.horizon, report);
    }

    // Orphans: layer-like files and logs the committed manifest does not
    // reference. `Wal::open` sweeps all of these; their presence means the
    // last compaction crashed between its commit and its cleanup (or a
    // mid-write layer never got committed).
    for name in entries {
        if name.ends_with(".tmp") || name == "wal.manifest" {
            continue;
        }
        let is_log = name.starts_with("wal-") && name.ends_with(".log");
        let is_layer =
            (name.starts_with("base-") || name.starts_with("delta-")) && name.ends_with(".ttkv");
        if is_log && *name != log_name {
            report.findings.push(Finding {
                severity: Severity::Warning,
                check: "log-stale",
                target: name.clone(),
                detail: format!("superseded by {log_name} (swept on next open)"),
            });
        } else if is_layer && !referenced.contains(name.as_str()) {
            // A crash between a compaction's commit and its cleanup
            // orphans at most one generation (manifest epoch + 1). An
            // unreferenced sealed layer two or more generations ahead
            // cannot come from a single crash: a later rebase committed
            // past it without sweeping, so the sweep itself is suspect.
            match embedded_epoch(name) {
                Some(epoch) if epoch >= manifest.epoch + 2 => {
                    report.findings.push(Finding {
                        severity: Severity::Error,
                        check: "segment-orphan",
                        target: name.clone(),
                        detail: format!(
                            "unreferenced layer from epoch {epoch}, two or more \
                             generations past the manifest epoch {}; a committed \
                             rebase failed to sweep it",
                            manifest.epoch
                        ),
                    });
                }
                _ => {
                    report.findings.push(Finding {
                        severity: Severity::Warning,
                        check: "layer-orphan",
                        target: name.clone(),
                        detail: "not referenced by the manifest (swept on next open)".to_string(),
                    });
                }
            }
        }
    }

    // The current log, if it exists (a fresh post-compaction epoch has
    // none until the next append — that is healthy).
    if entries.contains(&log_name) {
        check_log(dir, &log_name, report);
    }
}

/// Parses one snapshot layer and validates its format and horizon
/// consistency.
fn check_layer(dir: &Path, name: &str, horizon: Option<Timestamp>, report: &mut DoctorReport) {
    let bytes = match std::fs::read(dir.join(name)) {
        Ok(bytes) => bytes,
        Err(e) => {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "layer-corrupt",
                target: name.to_string(),
                detail: format!("snapshot does not parse: {e}"),
            });
            return;
        }
    };
    // Independent structural scan (double-entry bookkeeping, like the
    // manifest parser): magic, frame walk, checksums, intern table, end
    // marker.
    match scan_v2_segment(&bytes) {
        Ok(sections) => report.sections_verified += sections,
        Err(detail) => {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "layer-corrupt",
                target: name.to_string(),
                detail,
            });
            return;
        }
    }
    let store = match Ttkv::load_from_bytes(&bytes) {
        Ok(store) => store,
        Err(e) => {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "layer-corrupt",
                target: name.to_string(),
                detail: format!("snapshot does not parse: {e}"),
            });
            return;
        }
    };
    report.layers_verified += 1;
    // Horizon-vs-baseline consistency: pruning collapses history into a
    // baseline at or below the recorded horizon, so a baseline *above*
    // the manifest horizon means the chain's metadata and data disagree
    // (replay would re-prune at the wrong depth).
    let newest_baseline = store
        .iter()
        .filter_map(|(_, record)| record.baseline().map(|b| b.timestamp))
        .max();
    if let Some(newest) = newest_baseline {
        match horizon {
            Some(ceiling) if newest <= ceiling => {}
            Some(ceiling) => report.findings.push(Finding {
                severity: Severity::Error,
                check: "layer-horizon",
                target: name.to_string(),
                detail: format!("baseline at {newest} is beyond the recorded horizon {ceiling}"),
            }),
            None => report.findings.push(Finding {
                severity: Severity::Error,
                check: "layer-horizon",
                target: name.to_string(),
                detail: format!("baseline at {newest} but the manifest records no horizon"),
            }),
        }
    }
}

/// Structural scan of an `ocasta-ttkv binary v2` segment, independent of
/// the ttkv decoder: magic, the fixed `'K'`/`'R'`/`'E'` section order,
/// per-section FNV-1a checksums, a well-formed strictly-sorted intern
/// table, an empty end marker, and nothing after it. Returns the number of
/// checksum-verified sections.
fn scan_v2_segment(bytes: &[u8]) -> Result<u64, String> {
    if !bytes.starts_with(ocasta_ttkv::BINARY_MAGIC) {
        return Err("not a binary v2 segment (missing magic)".to_string());
    }
    /// Reads one LEB128 varint out of `buf` at `*pos` (bounded at 10 bytes).
    fn varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *buf
                .get(*pos)
                .ok_or_else(|| format!("truncated varint at byte {pos}", pos = *pos))?;
            *pos += 1;
            if shift >= 64 {
                return Err(format!("varint overflow at byte {pos}", pos = *pos));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    let mut pos = ocasta_ttkv::BINARY_MAGIC.len();
    let mut sections = 0u64;
    for expected in [b'K', b'R', b'E'] {
        let header = bytes
            .get(pos..pos + 9)
            .ok_or_else(|| format!("truncated section header at byte {pos}"))?;
        let tag = header[0];
        if tag != expected {
            return Err(format!(
                "expected section '{}' at byte {pos}, found 0x{tag:02x}",
                expected as char
            ));
        }
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
        let crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
        let payload_at = pos + 9;
        let payload = bytes.get(payload_at..payload_at + len).ok_or_else(|| {
            format!(
                "truncated section '{}' payload at byte {payload_at}",
                tag as char
            )
        })?;
        let actual = crate::hash::fnv1a_32(payload);
        if actual != crc {
            return Err(format!(
                "section '{}' checksum mismatch at byte {payload_at}: stored {crc:08x}, \
                 computed {actual:08x}",
                tag as char
            ));
        }
        match tag {
            b'K' => {
                // Intern-table well-formedness: every id must later resolve,
                // so the table itself has to be complete and sorted.
                let mut at = 0usize;
                let count = varint(payload, &mut at)?;
                let mut prev: Option<&str> = None;
                for _ in 0..count {
                    let len = varint(payload, &mut at)? as usize;
                    let raw = payload
                        .get(at..at + len)
                        .ok_or_else(|| format!("truncated intern key at byte {at}"))?;
                    at += len;
                    let name = std::str::from_utf8(raw)
                        .map_err(|e| format!("intern key at byte {at} not UTF-8: {e}"))?;
                    if prev.is_some_and(|p| name <= p) {
                        return Err(format!("intern table not strictly sorted at byte {at}"));
                    }
                    prev = Some(name);
                }
                if at != payload.len() {
                    return Err(format!(
                        "{} trailing byte(s) in intern table",
                        payload.len() - at
                    ));
                }
            }
            b'E' if len != 0 => return Err("end marker is not empty".to_string()),
            _ => {}
        }
        pos = payload_at + len;
        sections += 1;
    }
    if pos != bytes.len() {
        return Err(format!(
            "{} trailing byte(s) after end marker",
            bytes.len() - pos
        ));
    }
    Ok(sections)
}

/// Scans one framed log end to end, verifying every checksum.
fn check_log(dir: &Path, name: &str, report: &mut DoctorReport) {
    let path = dir.join(name);
    let len = std::fs::metadata(&path).map_or(0, |m| m.len());
    if len < WAL_MAGIC.len() as u64 {
        // Torn during the very first write (or never written): nothing is
        // recoverable, and `Wal::open` resets the file. Not corruption.
        report.findings.push(Finding {
            severity: Severity::Warning,
            check: "log-torn",
            target: name.to_string(),
            detail: format!("log is {len} byte(s), shorter than the magic; reset on next open"),
        });
        return;
    }
    let file = match File::open(&path) {
        Ok(file) => file,
        Err(e) => {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "log-io",
                target: name.to_string(),
                detail: e.to_string(),
            });
            return;
        }
    };
    let mut reader = match WalReader::new(BufReader::new(file)) {
        Ok(reader) => reader,
        Err(_) => {
            report.findings.push(Finding {
                severity: Severity::Error,
                check: "log-magic",
                target: name.to_string(),
                detail: "not an OCWAL1 stream".to_string(),
            });
            return;
        }
    };
    loop {
        match reader.next_batch() {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(WalError::Corrupt { frame }) => {
                report.findings.push(Finding {
                    severity: Severity::Error,
                    check: "log-corrupt",
                    target: name.to_string(),
                    detail: format!("frame {frame} checksum mismatch"),
                });
                report.frames_verified += reader.frames_read() as u64;
                return;
            }
            Err(e) => {
                report.findings.push(Finding {
                    severity: Severity::Error,
                    check: "log-corrupt",
                    target: name.to_string(),
                    detail: e.to_string(),
                });
                report.frames_verified += reader.frames_read() as u64;
                return;
            }
        }
    }
    report.frames_verified += reader.frames_read() as u64;
    if reader.torn_tail() {
        report.findings.push(Finding {
            severity: Severity::Warning,
            check: "log-torn",
            target: name.to_string(),
            detail: format!(
                "torn tail after {} clean byte(s) / {} frame(s); truncated on next open",
                reader.clean_bytes(),
                reader.frames_read()
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_directory_is_an_error() {
        let report = diagnose("/definitely/not/a/real/fleet/dir");
        assert!(report.has_errors());
        assert_eq!(report.findings[0].check, "dir");
    }

    #[test]
    fn empty_directory_is_healthy() {
        let dir = std::env::temp_dir().join(format!("ocasta-doctor-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = diagnose(&dir);
        assert!(report.is_healthy(), "{report}");
        assert!(report.findings.is_empty(), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_names_parse() {
        assert_eq!(embedded_epoch("base-12.ttkv"), Some(12));
        assert_eq!(embedded_epoch("delta-3.ttkv"), Some(3));
        assert_eq!(embedded_epoch("wal-7.log"), Some(7));
        assert_eq!(embedded_epoch("wal.manifest"), None);
        assert_eq!(embedded_epoch("base-x.ttkv"), None);
    }
}
