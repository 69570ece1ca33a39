//! Trace capture: a [`TraceSink`] that encodes issued instructions straight
//! into per-stream columns, seals each completed launch into a checksummed
//! section on disk, and atomically publishes the final container on
//! [`TraceWriter::finish`].

use crate::{TraceError, TRACE_MAGIC, TRACE_VERSION};
use gcl_mem::{fnv_fold_bytes, write_section, Enc, FNV_OFFSET};
use gcl_sim::{write_launch, ColBufs, LaunchInfo, ReplayKind, TraceEvent, TraceSink};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// What a completed capture produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Final container path.
    pub path: PathBuf,
    /// Launches captured (aborted launches are discarded, not counted).
    pub launches: u64,
    /// Warp instructions recorded across all launches.
    pub records: u64,
    /// Container size in bytes.
    pub bytes: u64,
    /// The container's trailing whole-file checksum — a content address
    /// for the trace (two captures of the same deterministic run produce
    /// the same fingerprint).
    pub file_fp: u64,
}

/// A [`TraceSink`] writing the `GCLTRACE1` container.
///
/// Memory is bounded by one launch: the open launch's columns live in
/// memory, and each completed launch is sealed to a scratch file
/// (`<out>.sections`). [`finish`](TraceWriter::finish) assembles the final
/// container next to it and renames it into place — a crash mid-capture
/// never leaves a half-written container at the destination.
///
/// The [`TraceSink`] methods cannot return errors, so I/O failures are
/// latched and surfaced by `finish` (subsequent events are dropped).
#[derive(Debug)]
pub struct TraceWriter {
    out_path: PathBuf,
    sections_path: PathBuf,
    sections: Option<BufWriter<File>>,
    config_fp: u64,
    launches: u64,
    records: u64,
    /// The launch being captured and its streams' columns.
    cur: Option<(LaunchInfo, Vec<ColBufs>)>,
    err: Option<std::io::Error>,
}

impl TraceWriter {
    /// Create a writer that will publish to `path` on `finish`.
    ///
    /// `config_fp` is the capturing GPU's configuration fingerprint
    /// ([`gcl_sim::config_fingerprint`]); replay validates against it.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the scratch file cannot be created.
    pub fn create(path: impl Into<PathBuf>, config_fp: u64) -> Result<TraceWriter, TraceError> {
        let out_path = path.into();
        let sections_path = scratch_path(&out_path, "sections");
        let sections = Some(BufWriter::new(rw_create(&sections_path)?));
        Ok(TraceWriter {
            out_path,
            sections_path,
            sections,
            config_fp,
            launches: 0,
            records: 0,
            cur: None,
            err: None,
        })
    }

    /// Seal the open launch into one checksummed section on the sections
    /// scratch file.
    fn seal_launch(&mut self) -> std::io::Result<()> {
        let (info, streams) = self.cur.take().expect("seal without open launch");
        let mut e = Enc::new();
        let records = write_launch(&info, streams, &mut e);
        let sections = self.sections.as_mut().expect("sections live until finish");
        write_section(sections, &e.into_bytes())?;
        self.launches += 1;
        self.records += records;
        Ok(())
    }

    fn guard(&mut self, f: impl FnOnce(&mut Self) -> std::io::Result<()>) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = f(self) {
            self.err = Some(e);
        }
    }

    /// Assemble and atomically publish the container, consuming the
    /// writer. A launch still open (its run errored without reaching the
    /// sink's `abort_launch`) is discarded.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] — including any I/O failure latched during
    /// capture; the destination is left untouched on error.
    pub fn finish(mut self) -> Result<TraceSummary, TraceError> {
        self.abort_launch();
        if let Some(e) = self.err.take() {
            return Err(TraceError::Io(e));
        }
        let tmp_path = scratch_path(&self.out_path, "tmp");
        let mut out = BufWriter::new(File::create(&tmp_path)?);
        let mut fp = FNV_OFFSET;
        let mut bytes: u64 = 0;
        let mut put = |out: &mut BufWriter<File>, b: &[u8]| -> std::io::Result<()> {
            fp = fnv_fold_bytes(fp, b);
            bytes += b.len() as u64;
            out.write_all(b)
        };
        put(&mut out, &TRACE_MAGIC)?;
        put(&mut out, &TRACE_VERSION.to_le_bytes())?;
        put(&mut out, &self.config_fp.to_le_bytes())?;
        put(&mut out, &self.launches.to_le_bytes())?;
        let mut sections = self
            .sections
            .take()
            .expect("sections live until finish")
            .into_inner()
            .map_err(|e| TraceError::Io(e.into_error()))?;
        sections.flush()?;
        sections.seek(SeekFrom::Start(0))?;
        let mut chunk = vec![0u8; 1 << 16];
        loop {
            let n = sections.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            put(&mut out, &chunk[..n])?;
        }
        drop(sections);
        let file_fp = fp;
        out.write_all(&file_fp.to_le_bytes())?;
        bytes += 8;
        out.into_inner()
            .map_err(|e| TraceError::Io(e.into_error()))?
            .sync_all()?;
        std::fs::rename(&tmp_path, &self.out_path)?;
        let _ = std::fs::remove_file(&self.sections_path);
        Ok(TraceSummary {
            path: self.out_path.clone(),
            launches: self.launches,
            records: self.records,
            bytes,
            file_fp,
        })
    }
}

impl TraceSink for TraceWriter {
    fn begin_launch(&mut self, info: &LaunchInfo) {
        assert!(self.cur.is_none(), "begin_launch with a launch open");
        let n = usize::try_from(info.n_streams).expect("stream count");
        self.cur = Some((info.clone(), (0..n).map(|_| ColBufs::default()).collect()));
    }

    fn issue(&mut self, stream: u64, ev: &TraceEvent, kind: &ReplayKind) {
        if self.err.is_some() {
            return;
        }
        let (_, streams) = self.cur.as_mut().expect("issue without a launch");
        let s = usize::try_from(stream).expect("stream index");
        streams[s].encode_record(ev.pc, ev.active, kind);
    }

    fn end_launch(&mut self) {
        self.guard(TraceWriter::seal_launch);
    }

    fn abort_launch(&mut self) {
        self.cur = None;
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        // `finish` removes the scratch file; if the writer is dropped
        // without finishing, don't leave it behind.
        let _ = std::fs::remove_file(&self.sections_path);
    }
}

/// Scratch files are written during capture and read back at seal/finish,
/// so they need read+write.
fn rw_create(path: &Path) -> std::io::Result<File> {
    std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

fn scratch_path(out: &Path, suffix: &str) -> PathBuf {
    let mut name = out.file_name().unwrap_or_default().to_os_string();
    name.push(".");
    name.push(suffix);
    out.with_file_name(name)
}
