//! On-disk sharded traces: time-windowed segments with a manifest.
//!
//! A sharded trace is a directory:
//!
//! ```text
//! trace-dir/
//!   manifest.txt      # dtn-shard v1 header + summary facts + shard index
//!   shard-00000.txt   # dtn-trace v1 text, contacts starting in window 0
//!   shard-00003.txt   # windows with no contacts have no file
//!   ...
//! ```
//!
//! Contacts are partitioned by **start time** into fixed-width windows and
//! each shard file is sorted in the canonical event order (start, end,
//! participants). Because a given start time lands in exactly one window,
//! concatenating shards in window order reproduces the exact global sort an
//! in-memory [`ContactTrace`](crate::ContactTrace) would produce — sharded replay is
//! byte-identical to in-memory replay by construction. A manifest whose
//! `shard` lines do not list strictly ascending windows, or name a file
//! outside the directory, does not open; a shard whose contacts break its
//! `shard` line — a count other than the declared one, a start outside the
//! line's window, or contacts out of event order — is refused by
//! [`ShardedTrace::verify`] and stops a replay.
//!
//! The manifest carries everything a run needs without touching shard
//! files: contact count, id space, node set, span, and per-shard contact
//! counts. [`ShardedTrace::stream`] then faults shards in one at a time, so
//! peak memory is bounded by the largest single shard.
//!
//! [`ShardWriter`] formats each contact once. While contacts arrive it
//! appends each to its window's `spill-NNNNN.bin` as a binary record;
//! `finish` reads a spill back, sorts it, writes the text shard and its
//! sidecar, and deletes the spill, so a finished directory holds only the
//! manifest, the shards and their sidecars.
//!
//! Alongside each shard the writer emits a `pairs-NNNNN.txt` sidecar listing
//! the shard's distinct participant pairs, and each manifest `shard` line
//! carries the pair count as its fourth token; a line without it does not
//! open. Those aggregates let [`TraceSource::frequent_map`] feed the
//! frequent-contact rule's window fold — the one
//! [`FrequentScan`](crate::FrequentScan) feeds from contacts — straight from
//! the sidecars, with no second streaming pass over the shards. A missing or
//! unreadable sidecar makes the derivation report "unavailable", and callers
//! fall back to a `FrequentScan` pass.
//!
//! ```text
//! # dtn-shard v1
//! window-secs 86400
//! contacts 1234
//! id-space 16
//! span-start 0
//! span-end 518400
//! nodes 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
//! shard shard-00000.txt 0 210 64
//! shard shard-00001.txt 1 195 58
//! ```

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Component, Path, PathBuf};

use crate::contact::{Contact, ContactError};
use crate::node::NodeId;
use crate::parser::{ContactReader, LineFormatter, ParseTraceError, TRACE_HEADER};
use crate::source::{ContactStream, StreamStats, TraceSource};
use crate::stats::{pack, unpack, WindowFold};
use crate::time::{SimDuration, SimTime};
use crate::trace::{event_order, sort_contacts, ContactSink};

/// Name of the manifest file inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.txt";

/// Format tag on the manifest's first line.
const MANIFEST_HEADER: &str = "# dtn-shard v1";

/// Format tag on the first line of a pair-aggregate sidecar file.
const PAIRS_HEADER: &str = "# dtn-pairs v1";

/// Node ids per `nodes` manifest line (keeps lines diff-friendly).
const NODES_PER_LINE: usize = 16;

/// Error produced while writing or reading a sharded trace.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying I/O failure, with the path involved.
    Io {
        /// What was being done.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A shard file could not be parsed.
    Trace(ParseTraceError),
    /// The manifest is malformed.
    Manifest {
        /// 1-based line number within the manifest.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The writer was configured with a zero-width window.
    ZeroWindow,
    /// A shard file's contents disagree with the manifest index
    /// (found by [`ShardedTrace::verify`]).
    Corrupt {
        /// Shard file name relative to the trace directory.
        file: String,
        /// Description of the disagreement.
        message: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io { context, source } => write!(f, "i/o error {context}: {source}"),
            ShardError::Trace(e) => write!(f, "shard file error: {e}"),
            ShardError::Manifest { line, message } => {
                write!(f, "manifest error on line {line}: {message}")
            }
            ShardError::ZeroWindow => write!(f, "shard window must be non-zero"),
            ShardError::Corrupt { file, message } => {
                write!(f, "shard `{file}` disagrees with manifest: {message}")
            }
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::Io { source, .. } => Some(source),
            ShardError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseTraceError> for ShardError {
    fn from(e: ParseTraceError) -> Self {
        ShardError::Trace(e)
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(io::Error) -> ShardError {
    let context = context.into();
    move |source| ShardError::Io { context, source }
}

/// One shard in the manifest index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// File name relative to the shard directory.
    pub file: String,
    /// Zero-based window index (`start_secs / window_secs`).
    pub window_index: u64,
    /// Number of contacts in the shard.
    pub contacts: u64,
    /// Number of distinct participant pairs in the shard, listed in the
    /// `pairs-NNNNN.txt` sidecar.
    pub pairs: u64,
}

/// Streams contacts into time-windowed shard files, never holding the whole
/// trace in memory.
///
/// Accepts contacts in **any order** through [`ContactSink`] — each one is
/// appended to its window's spill file as a binary record as it arrives.
/// [`ShardWriter::finish`] then reads each spill back, sorts it, writes the
/// text shard and its pair sidecar, deletes the spill (one shard resident
/// per worker), writes the manifest, and opens the result for reading.
///
/// `push_contact` is infallible per the [`ContactSink`] contract, so I/O
/// errors are buffered: after the first failure further pushes are dropped
/// and `finish` reports the original error.
#[derive(Debug)]
pub struct ShardWriter {
    dir: PathBuf,
    window_secs: u64,
    spills: BTreeMap<u64, (BufWriter<File>, u64)>,
    contacts: u64,
    min_start: Option<SimTime>,
    max_end: Option<SimTime>,
    error: Option<ShardError>,
    jobs: usize,
}

/// File name of the shard for `window_index`.
fn shard_file_name(window_index: u64) -> String {
    format!("shard-{window_index:05}.txt")
}

/// File name of the pair-aggregate sidecar for `window_index`.
fn pairs_file_name(window_index: u64) -> String {
    format!("pairs-{window_index:05}.txt")
}

/// File name of the writer's spill for `window_index`, gone once it finishes.
fn spill_file_name(window_index: u64) -> String {
    format!("spill-{window_index:05}.bin")
}

/// Appends `contact` to a spill as one record: start and end as `u64`, the
/// participant count and then each participant id as `u32`, little-endian.
fn spill_record<W: Write>(out: &mut W, contact: &Contact) -> io::Result<()> {
    let members = contact.participants();
    let count = u32::try_from(members.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "a contact of 2³² members"))?;
    out.write_all(&contact.start().as_secs().to_le_bytes())?;
    out.write_all(&contact.end().as_secs().to_le_bytes())?;
    out.write_all(&count.to_le_bytes())?;
    for node in members {
        out.write_all(&node.raw().to_le_bytes())?;
    }
    Ok(())
}

/// Reads the `count` records [`spill_record`] appended to `path`. A spill
/// that ends early, runs on, or holds a record no contact could have written
/// is an error.
fn read_spill(path: &Path, count: u64) -> Result<Vec<Contact>, ShardError> {
    fn take<const N: usize>(input: &mut impl Read) -> io::Result<[u8; N]> {
        let mut bytes = [0; N];
        input.read_exact(&mut bytes)?;
        Ok(bytes)
    }
    /// One record, or why its fields make no contact.
    fn record(input: &mut impl Read) -> io::Result<Result<Contact, ContactError>> {
        let start = SimTime::from_secs(u64::from_le_bytes(take(input)?));
        let end = SimTime::from_secs(u64::from_le_bytes(take(input)?));
        let members = u32::from_le_bytes(take(input)?);
        let mut node = || take(input).map(|id| NodeId::new(u32::from_le_bytes(id)));
        Ok(match members {
            2 => Contact::pair(node()?, node()?, start, end),
            // Grown as ids arrive: a corrupt count cannot size a buffer.
            _ => Contact::clique(
                (0..members).map(|_| node()).collect::<io::Result<_>>()?,
                start,
                end,
            ),
        })
    }
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let read = || -> io::Result<Vec<Contact>> {
        let mut input = BufReader::new(File::open(path)?);
        let mut contacts = Vec::with_capacity(count as usize);
        for n in 1..=count {
            contacts.push(record(&mut input)?.map_err(|e| invalid(format!("record {n}: {e}")))?);
        }
        if !input.fill_buf()?.is_empty() {
            return Err(invalid(format!("bytes follow its {count} records")));
        }
        Ok(contacts)
    };
    read().map_err(io_err(format!("reading `{}`", path.display())))
}

impl ShardWriter {
    /// Creates `dir` (and parents) and prepares to write shards of `window`
    /// width, partitioned by contact start time.
    ///
    /// # Errors
    ///
    /// [`ShardError::ZeroWindow`] for a zero-width window, or an I/O error
    /// if the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>, window: SimDuration) -> Result<ShardWriter, ShardError> {
        let dir = dir.into();
        if window.as_secs() == 0 {
            return Err(ShardError::ZeroWindow);
        }
        fs::create_dir_all(&dir).map_err(io_err(format!("creating `{}`", dir.display())))?;
        Ok(ShardWriter {
            dir,
            window_secs: window.as_secs(),
            spills: BTreeMap::new(),
            contacts: 0,
            min_start: None,
            max_end: None,
            error: None,
            jobs: 0,
        })
    }

    /// Sets how many worker threads [`ShardWriter::finish`] uses to sort
    /// and write shard files; `0` (the default) means one per available
    /// core. Shards are independent and the manifest collects them in
    /// window order, so the finished trace is byte-identical for any job
    /// count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Number of contacts accepted so far.
    pub fn len(&self) -> u64 {
        self.contacts
    }

    /// True if no contacts have been accepted.
    pub fn is_empty(&self) -> bool {
        self.contacts == 0
    }

    fn append(&mut self, contact: &Contact) -> Result<(), ShardError> {
        let window_index = contact.start().as_secs() / self.window_secs;
        let (spill, count) = match self.spills.entry(window_index) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let path = self.dir.join(spill_file_name(window_index));
                let file = File::create(&path)
                    .map_err(io_err(format!("creating `{}`", path.display())))?;
                e.insert((BufWriter::new(file), 0))
            }
        };
        spill_record(spill, contact).map_err(|source| ShardError::Io {
            context: format!("writing `{}`", spill_file_name(window_index)),
            source,
        })?;
        *count += 1;
        self.contacts += 1;
        self.min_start = Some(
            self.min_start
                .map_or(contact.start(), |t| t.min(contact.start())),
        );
        self.max_end = Some(self.max_end.map_or(contact.end(), |t| t.max(contact.end())));
        Ok(())
    }

    /// Turns every spill into its sorted shard and sidecar, writes the
    /// manifest, and opens the finished trace.
    ///
    /// # Errors
    ///
    /// The first error buffered during writing, any I/O error, or a spill
    /// that no longer holds the records appended to it.
    pub fn finish(mut self) -> Result<ShardedTrace, ShardError> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let mut windows = Vec::with_capacity(self.spills.len());
        for (window_index, (spill, count)) in std::mem::take(&mut self.spills) {
            spill.into_inner().map_err(|e| ShardError::Io {
                context: format!("flushing `{}`", spill_file_name(window_index)),
                source: e.into_error(),
            })?;
            windows.push((window_index, count));
        }
        // Finish the shards `threads` at a time: each worker reads, sorts and
        // writes only its own window, so at most one shard per worker is
        // resident (the bound the reader relies on, scaled by the explicit
        // thread count). Results come back in window order, and each batch's
        // participants merge into the node list before the next batch
        // starts, so the finished trace is byte-identical for any job count.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.jobs)
            .build()
            .expect("thread pool construction is infallible");
        let mut shards = Vec::with_capacity(windows.len());
        let mut nodes: Vec<NodeId> = Vec::new();
        for batch in windows.chunks(pool.current_num_threads()) {
            let finished: Vec<Result<(ShardMeta, Vec<NodeId>), ShardError>> = pool.install(|| {
                use rayon::prelude::*;
                batch
                    .par_iter()
                    .map(|&(window_index, count)| finish_shard(&self.dir, window_index, count))
                    .collect()
            });
            for result in finished {
                let (meta, participants) = result?;
                nodes.extend(participants);
                sort_dedup(&mut nodes);
                shards.push(meta);
            }
        }
        let manifest = Manifest {
            window_secs: self.window_secs,
            contacts: self.contacts,
            id_space: nodes.last().map_or(0, |node| node.index() + 1),
            nodes,
            span_start: self.min_start,
            span_end: self.max_end,
            shards,
        };
        let path = self.dir.join(MANIFEST_FILE);
        let file = File::create(&path).map_err(io_err(format!("creating `{}`", path.display())))?;
        let mut writer = BufWriter::new(file);
        manifest
            .write(&mut writer)
            .map_err(io_err("writing manifest"))?;
        writer.flush().map_err(io_err("flushing manifest"))?;
        Ok(ShardedTrace {
            dir: self.dir,
            manifest,
        })
    }
}

/// Turns one window's spill into its shard: reads the records back, sorts
/// them into event order, writes the text shard and its pair sidecar, and
/// deletes the spill. Returns the shard's manifest entry and its
/// participants, ascending.
fn finish_shard(
    dir: &Path,
    window_index: u64,
    count: u64,
) -> Result<(ShardMeta, Vec<NodeId>), ShardError> {
    let spill = dir.join(spill_file_name(window_index));
    let mut contacts = read_spill(&spill, count)?;
    sort_contacts(&mut contacts);
    let file = shard_file_name(window_index);
    write_text(&dir.join(&file), TRACE_HEADER, |out| {
        contacts.iter().try_for_each(|contact| out.contact(contact))
    })?;
    // The shard is already resident, so collecting its distinct pairs here
    // is free of extra I/O; the sidecar is what lets `frequent_map` skip
    // the pre-simulation statistics pass entirely.
    let pairs = distinct_pairs(&contacts);
    drop(contacts);
    write_text(
        &dir.join(pairs_file_name(window_index)),
        PAIRS_HEADER,
        |out| {
            pairs.iter().try_for_each(|&pair| {
                let (a, b) = unpack(pair);
                out.pair(a, b)
            })
        },
    )?;
    fs::remove_file(&spill).map_err(io_err(format!("removing `{}`", spill.display())))?;
    // Every participant pairs with another, so the pairs name them all.
    let mut participants: Vec<NodeId> = pairs
        .iter()
        .flat_map(|&pair| <[NodeId; 2]>::from(unpack(pair)))
        .collect();
    participants.sort_unstable();
    participants.dedup();
    let meta = ShardMeta {
        file,
        window_index,
        contacts: count,
        pairs: pairs.len() as u64,
    };
    Ok((meta, participants))
}

/// Creates the text file `path` and writes `header` and then `body`
/// through one [`LineFormatter`].
fn write_text(
    path: &Path,
    header: &str,
    body: impl FnOnce(&mut LineFormatter<File>) -> io::Result<()>,
) -> Result<(), ShardError> {
    let file = File::create(path).map_err(io_err(format!("creating `{}`", path.display())))?;
    let mut out = LineFormatter::new(file, header);
    body(&mut out)
        .and_then(|()| out.finish())
        .map(drop)
        .map_err(io_err(format!("writing `{}`", path.display())))
}

impl ContactSink for ShardWriter {
    fn push_contact(&mut self, contact: Contact) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.append(&contact) {
            self.error = Some(e);
        }
    }
}

/// Parsed manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Manifest {
    window_secs: u64,
    contacts: u64,
    id_space: usize,
    nodes: Vec<NodeId>,
    span_start: Option<SimTime>,
    span_end: Option<SimTime>,
    shards: Vec<ShardMeta>,
}

impl Manifest {
    fn write<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        writeln!(writer, "{MANIFEST_HEADER}")?;
        writeln!(writer, "window-secs {}", self.window_secs)?;
        writeln!(writer, "contacts {}", self.contacts)?;
        writeln!(writer, "id-space {}", self.id_space)?;
        if let (Some(start), Some(end)) = (self.span_start, self.span_end) {
            writeln!(writer, "span-start {}", start.as_secs())?;
            writeln!(writer, "span-end {}", end.as_secs())?;
        }
        for chunk in self.nodes.chunks(NODES_PER_LINE) {
            write!(writer, "nodes")?;
            for node in chunk {
                write!(writer, " {}", node.raw())?;
            }
            writeln!(writer)?;
        }
        for shard in &self.shards {
            writeln!(
                writer,
                "shard {} {} {} {}",
                shard.file, shard.window_index, shard.contacts, shard.pairs
            )?;
        }
        Ok(())
    }

    fn parse(text: &str) -> Result<Manifest, ShardError> {
        let bad = |line: usize, message: String| ShardError::Manifest { line, message };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == MANIFEST_HEADER => {}
            Some((_, header)) => {
                return Err(bad(
                    1,
                    format!("expected `{MANIFEST_HEADER}`, found `{header}`"),
                ))
            }
            None => return Err(bad(1, "empty manifest".to_string())),
        }
        let mut manifest = Manifest {
            window_secs: 0,
            contacts: 0,
            id_space: 0,
            nodes: Vec::new(),
            span_start: None,
            span_end: None,
            shards: Vec::new(),
        };
        // Each span bound with the line that set it, and the running sum of
        // the shard counts with the line that would overflow it.
        let mut span_start: Option<(usize, SimTime)> = None;
        let mut span_end: Option<(usize, SimTime)> = None;
        let mut shard_total = 0u64;
        for (idx, line) in lines {
            let line_no = idx + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut fields = trimmed.split_ascii_whitespace();
            let keyword = fields.next().expect("non-empty line has a first token");
            fn next_num<'a>(
                fields: &mut impl Iterator<Item = &'a str>,
                line_no: usize,
                what: &str,
            ) -> Result<u64, ShardError> {
                let tok = fields.next().ok_or_else(|| ShardError::Manifest {
                    line: line_no,
                    message: format!("missing {what}"),
                })?;
                tok.parse::<u64>().map_err(|_| ShardError::Manifest {
                    line: line_no,
                    message: format!("invalid {what} `{tok}`"),
                })
            }
            match keyword {
                "window-secs" => {
                    manifest.window_secs = next_num(&mut fields, line_no, "window width")?
                }
                "contacts" => manifest.contacts = next_num(&mut fields, line_no, "contact count")?,
                "id-space" => {
                    manifest.id_space = next_num(&mut fields, line_no, "id space")? as usize
                }
                "span-start" => {
                    let secs = next_num(&mut fields, line_no, "span start")?;
                    span_start = Some((line_no, SimTime::from_secs(secs)));
                }
                "span-end" => {
                    let secs = next_num(&mut fields, line_no, "span end")?;
                    span_end = Some((line_no, SimTime::from_secs(secs)));
                }
                "nodes" => {
                    for tok in fields {
                        let id = tok
                            .parse::<u32>()
                            .map_err(|_| bad(line_no, format!("invalid node id `{tok}`")))?;
                        manifest.nodes.push(NodeId::new(id));
                    }
                }
                "shard" => {
                    let file = fields
                        .next()
                        .ok_or_else(|| bad(line_no, "missing shard file".to_string()))?
                        .to_string();
                    if !is_bare_file_name(&file) {
                        return Err(bad(
                            line_no,
                            format!(
                                "shard file `{file}` is not a file name in the trace directory"
                            ),
                        ));
                    }
                    let window_index = next_num(&mut fields, line_no, "window index")?;
                    // Replay concatenates shards in the order listed, which is
                    // the global event order only when windows ascend.
                    if let Some(previous) = manifest.shards.last() {
                        if window_index <= previous.window_index {
                            return Err(bad(
                                line_no,
                                format!(
                                    "shard window {window_index} does not follow window {}: \
                                     shard lines must list windows in ascending order",
                                    previous.window_index
                                ),
                            ));
                        }
                    }
                    let contacts = next_num(&mut fields, line_no, "shard contact count")?;
                    shard_total = shard_total.checked_add(contacts).ok_or_else(|| {
                        bad(
                            line_no,
                            format!(
                                "shard contact count {contacts} takes the sum of shard counts \
                                 past {}",
                                u64::MAX
                            ),
                        )
                    })?;
                    let pairs = next_num(&mut fields, line_no, "shard pair count")?;
                    manifest.shards.push(ShardMeta {
                        file,
                        window_index,
                        contacts,
                        pairs,
                    });
                }
                other => return Err(bad(line_no, format!("unknown keyword `{other}`"))),
            }
        }
        if manifest.window_secs == 0 {
            return Err(ShardError::ZeroWindow);
        }
        match (span_start, span_end) {
            (Some((_, start)), Some((end_line, end))) if end < start => {
                return Err(bad(
                    end_line,
                    format!(
                        "span-end {} precedes span-start {}",
                        end.as_secs(),
                        start.as_secs()
                    ),
                ))
            }
            (Some((line, _)), None) => {
                return Err(bad(line, "span-start without a span-end".to_string()))
            }
            (None, Some((line, _))) => {
                return Err(bad(line, "span-end without a span-start".to_string()))
            }
            _ => {}
        }
        manifest.span_start = span_start.map(|(_, at)| at);
        manifest.span_end = span_end.map(|(_, at)| at);
        if shard_total != manifest.contacts {
            return Err(bad(
                1,
                format!(
                    "shard counts sum to {shard_total} but manifest declares {} contacts",
                    manifest.contacts
                ),
            ));
        }
        Ok(manifest)
    }
}

/// A sharded trace on disk, opened through its manifest.
///
/// Summary facts (length, node set, span) come straight from the manifest;
/// [`ShardedTrace::stream`] replays contacts in event order with at most
/// one shard resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedTrace {
    dir: PathBuf,
    manifest: Manifest,
}

impl ShardedTrace {
    /// Opens the sharded trace stored in `dir` by reading its manifest.
    ///
    /// Shard files are opened lazily, one at a time, when streaming.
    ///
    /// # Errors
    ///
    /// I/O failure reading the manifest or a malformed manifest.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ShardedTrace, ShardError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_FILE);
        let text =
            fs::read_to_string(&path).map_err(io_err(format!("reading `{}`", path.display())))?;
        let manifest = Manifest::parse(&text)?;
        Ok(ShardedTrace { dir, manifest })
    }

    /// The directory holding the manifest and shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Width of each time window.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_secs(self.manifest.window_secs)
    }

    /// Number of shard files.
    pub fn shard_count(&self) -> usize {
        self.manifest.shards.len()
    }

    /// The shard index, in window order.
    pub fn shards(&self) -> &[ShardMeta] {
        &self.manifest.shards
    }

    /// Contact count of the fullest shard — the streaming memory bound.
    pub fn largest_shard_contacts(&self) -> u64 {
        self.manifest
            .shards
            .iter()
            .map(|s| s.contacts)
            .max()
            .unwrap_or(0)
    }

    /// Re-reads every shard file and checks its contents against the
    /// manifest index: each shard's contract (its declared contact count,
    /// every start inside its window, event order) always, and
    /// distinct-pair counts (recomputed from the contacts and cross-checked
    /// against the sidecar file) whenever the manifest carries them.
    ///
    /// The streaming replay holds each shard to the same contract as it
    /// loads it and panics on a breach mid-stream; this is the up-front
    /// alternative for tooling (`mbt shard-info --verify`) that wants a
    /// structured error instead.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`]/[`ShardError::Trace`] if a shard or sidecar cannot
    /// be read, [`ShardError::Corrupt`] if contents disagree with the
    /// manifest.
    pub fn verify(&self) -> Result<(), ShardError> {
        for meta in &self.manifest.shards {
            let path = self.dir.join(&meta.file);
            let file =
                File::open(&path).map_err(io_err(format!("opening `{}`", path.display())))?;
            let contacts: Vec<Contact> = ContactReader::new(file).collect::<Result<_, _>>()?;
            let corrupt = |message| ShardError::Corrupt {
                file: meta.file.clone(),
                message,
            };
            check_shard(meta, self.manifest.window_secs, &contacts).map_err(corrupt)?;
            let pairs = distinct_pairs(&contacts);
            if pairs.len() as u64 != meta.pairs {
                return Err(corrupt(format!(
                    "holds {} distinct pairs but manifest declares {}",
                    pairs.len(),
                    meta.pairs
                )));
            }
            let sidecar = pairs_file_name(meta.window_index);
            match self.read_pairs_sidecar(meta) {
                Some(listed) if listed == pairs => {}
                Some(_) => {
                    return Err(ShardError::Corrupt {
                        file: sidecar,
                        message: "sidecar pair set disagrees with shard contacts".to_string(),
                    })
                }
                None => {
                    return Err(ShardError::Corrupt {
                        file: sidecar,
                        message: "pair sidecar missing or unreadable".to_string(),
                    })
                }
            }
        }
        Ok(())
    }

    /// Reads one shard's pair sidecar — its distinct pairs, ascending and
    /// packed by [`pack`] — returning `None` when the sidecar is missing,
    /// malformed, or disagrees with the declared count. `frequent_map` treats
    /// `None` as "derivation unavailable" and callers fall back to a
    /// `FrequentScan` pass.
    fn read_pairs_sidecar(&self, meta: &ShardMeta) -> Option<Vec<u64>> {
        let path = self.dir.join(pairs_file_name(meta.window_index));
        let text = fs::read_to_string(&path).ok()?;
        let mut lines = text.lines();
        if lines.next()?.trim() != PAIRS_HEADER {
            return None;
        }
        let mut pairs = Vec::new();
        for line in lines {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut fields = trimmed.split_ascii_whitespace();
            let a: u32 = fields.next()?.parse().ok()?;
            let b: u32 = fields.next()?.parse().ok()?;
            pairs.push(pack((NodeId::new(a), NodeId::new(b))));
        }
        // The writer lists a sidecar ascending; one that something else
        // reordered still names the same set.
        sort_dedup(&mut pairs);
        (pairs.len() as u64 == meta.pairs).then_some(pairs)
    }
}

/// Holds a resident shard to the contract its manifest line makes: the
/// declared contact count, every start inside the line's window of
/// `window_secs`, and [`event_order`] (equal neighbours allowed). Names the
/// first property broken.
fn check_shard(meta: &ShardMeta, window_secs: u64, contacts: &[Contact]) -> Result<(), String> {
    if contacts.len() as u64 != meta.contacts {
        return Err(format!(
            "holds {} contacts but manifest declares {}",
            contacts.len(),
            meta.contacts
        ));
    }
    for (at, contact) in contacts.iter().enumerate() {
        let start = contact.start().as_secs();
        if start / window_secs != meta.window_index {
            return Err(format!(
                "contact {} starts at {start} s, in window {} of {window_secs} s, \
                 not the shard's window {}",
                at + 1,
                start / window_secs,
                meta.window_index
            ));
        }
        if at > 0 && event_order(&contacts[at - 1], contact) == Ordering::Greater {
            return Err(format!(
                "contact {} sorts before contact {at}: contacts are not in event order",
                at + 1
            ));
        }
    }
    Ok(())
}

/// True if `name` is a file directly inside the trace directory: one plain
/// path component, so no separator, no `.` or `..` and no root.
fn is_bare_file_name(name: &str) -> bool {
    let mut parts = Path::new(name).components();
    matches!(
        (parts.next(), parts.next()),
        (Some(Component::Normal(part)), None) if part == name
    )
}

/// Sorts `items` ascending and drops repeats. The inputs are ascending
/// lists or a few of them end to end, which the stable sort merges.
fn sort_dedup<T: Ord>(items: &mut Vec<T>) {
    if !items.windows(2).all(|w| w[0] < w[1]) {
        items.sort();
        items.dedup();
    }
}

/// The distinct participant pairs of `contacts`, packed and ascending.
fn distinct_pairs(contacts: &[Contact]) -> Vec<u64> {
    let mut pairs = Vec::with_capacity(contacts.len());
    pairs.extend(contacts.iter().flat_map(Contact::pairs).map(pack));
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

impl TraceSource for ShardedTrace {
    fn len(&self) -> usize {
        self.manifest.contacts as usize
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.manifest.nodes.clone()
    }

    fn id_space(&self) -> usize {
        self.manifest.id_space
    }

    fn start_time(&self) -> Option<SimTime> {
        self.manifest.span_start
    }

    fn end_time(&self) -> Option<SimTime> {
        self.manifest.span_end
    }

    fn stream(&self) -> Box<dyn ContactStream + '_> {
        Box::new(ShardStream {
            trace: self,
            next_shard: 0,
            current: Vec::new().into_iter(),
            stats: StreamStats::default(),
        })
    }

    fn frequent_map(&self, every: SimDuration) -> Option<BTreeMap<NodeId, Vec<NodeId>>> {
        let every_secs = every.as_secs();
        let mut fold = WindowFold::default();
        // A zero-length rule window holds no contact: nothing is frequent.
        if every_secs != 0 {
            // The sidecars answer only when shard windows nest inside rule
            // windows: floor(floor(t/w)/r) == floor(t/every) when every = r*w.
            if !every_secs.is_multiple_of(self.manifest.window_secs) {
                return None;
            }
            let ratio = every_secs / self.manifest.window_secs;
            // Shards are listed by ascending window, so a rule window's
            // shards are neighbours; their sidecars merged are its pairs.
            let rule_window = |meta: &ShardMeta| meta.window_index / ratio;
            for shards in self
                .manifest
                .shards
                .chunk_by(|a, b| rule_window(a) == rule_window(b))
            {
                let mut pairs = Vec::new();
                for meta in shards {
                    pairs.extend(self.read_pairs_sidecar(meta)?);
                }
                sort_dedup(&mut pairs);
                fold.window(pairs);
            }
        }
        fold.finish(self.manifest.nodes.iter().copied())
    }
}

/// Streaming iterator over a [`ShardedTrace`]: loads one shard at a time.
///
/// Shard files are trusted once the manifest opened cleanly, as far as the
/// manifest can vouch for them: a shard that fails to read mid-stream, or
/// breaks the contract of its manifest line (the one [`check_shard`]
/// holds), panics naming the file rather than replaying a short or
/// misordered trace (which would corrupt results downstream).
#[derive(Debug)]
struct ShardStream<'a> {
    trace: &'a ShardedTrace,
    next_shard: usize,
    current: std::vec::IntoIter<Contact>,
    stats: StreamStats,
}

impl ShardStream<'_> {
    fn load_next_shard(&mut self) -> bool {
        let Some(meta) = self.trace.manifest.shards.get(self.next_shard) else {
            return false;
        };
        self.next_shard += 1;
        let path = self.trace.dir.join(&meta.file);
        let file = File::open(&path)
            .unwrap_or_else(|e| panic!("cannot open shard `{}`: {e}", path.display()));
        let contacts: Vec<Contact> = ContactReader::new(file)
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("cannot parse shard `{}`: {e}", path.display()));
        if let Err(message) = check_shard(meta, self.trace.manifest.window_secs, &contacts) {
            panic!("cannot replay shard `{}`: {message}", path.display());
        }
        self.stats.shards_loaded += 1;
        self.stats.peak_resident_contacts =
            self.stats.peak_resident_contacts.max(contacts.len() as u64);
        self.current = contacts.into_iter();
        true
    }
}

impl Iterator for ShardStream<'_> {
    type Item = Contact;

    fn next(&mut self) -> Option<Contact> {
        loop {
            if let Some(contact) = self.current.next() {
                return Some(contact);
            }
            if !self.load_next_shard() {
                return None;
            }
        }
    }
}

impl ContactStream for ShardStream<'_> {
    fn stream_stats(&self) -> StreamStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ContactTrace;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dtn-shard-test-{}-{}-{}",
            tag,
            std::process::id(),
            seq
        ))
    }

    fn pc(a: u32, b: u32, start: u64, end: u64) -> Contact {
        Contact::pairwise(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
        .unwrap()
    }

    fn sample_contacts() -> Vec<Contact> {
        vec![
            pc(0, 1, 250, 400), // window 2
            pc(1, 2, 10, 20),   // window 0
            pc(2, 3, 120, 130), // window 1
            pc(0, 3, 115, 300), // window 1, crosses boundary (start decides)
            pc(4, 5, 10, 15),   // window 0, start tie with different end
        ]
    }

    fn write_sample(dir: &Path) -> ShardedTrace {
        let mut writer = ShardWriter::create(dir, SimDuration::from_secs(100)).unwrap();
        for contact in sample_contacts() {
            writer.push_contact(contact);
        }
        writer.finish().unwrap()
    }

    #[test]
    fn round_trip_matches_in_memory_sort() {
        let dir = temp_dir("round-trip");
        let sharded = write_sample(&dir);
        let in_memory: ContactTrace = sample_contacts().into_iter().collect();
        let streamed: Vec<Contact> = TraceSource::stream(&sharded).collect();
        assert_eq!(streamed, in_memory.contacts());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_facts_match_in_memory_facts() {
        let dir = temp_dir("facts");
        let sharded = write_sample(&dir);
        let in_memory: ContactTrace = sample_contacts().into_iter().collect();
        assert_eq!(TraceSource::len(&sharded), in_memory.len());
        assert_eq!(TraceSource::nodes(&sharded), in_memory.nodes());
        assert_eq!(TraceSource::id_space(&sharded), in_memory.id_space());
        assert_eq!(TraceSource::start_time(&sharded), in_memory.start_time());
        assert_eq!(TraceSource::end_time(&sharded), in_memory.end_time());
        assert_eq!(TraceSource::span(&sharded), in_memory.span());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_equals_writer_result() {
        let dir = temp_dir("reopen");
        let written = write_sample(&dir);
        let reopened = ShardedTrace::open(&dir).unwrap();
        assert_eq!(written, reopened);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_a_reused_directory_overwrites_it_deterministically() {
        let dir = temp_dir("reused");
        write_sample(&dir);
        let first = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        // Same contacts, same directory: the second writer must replace the
        // first one's shard files, not append to them.
        let second = write_sample(&dir);
        second.verify().unwrap();
        assert_eq!(fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap(), first);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_stats_bound_by_largest_shard() {
        let dir = temp_dir("stats");
        let sharded = write_sample(&dir);
        let mut stream = TraceSource::stream(&sharded);
        while stream.next().is_some() {}
        let stats = stream.stream_stats();
        assert_eq!(stats.shards_loaded, sharded.shard_count() as u64);
        assert_eq!(
            stats.peak_resident_contacts,
            sharded.largest_shard_contacts()
        );
        // 5 contacts over 3 windows: the bound is strictly below the total.
        assert!(stats.peak_resident_contacts < TraceSource::len(&sharded) as u64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_is_byte_identical_for_any_job_count() {
        let mut outputs: Vec<Vec<(String, String)>> = Vec::new();
        for jobs in [1usize, 2, 7] {
            let dir = temp_dir(&format!("jobs-{jobs}"));
            let mut writer = ShardWriter::create(&dir, SimDuration::from_secs(100))
                .unwrap()
                .jobs(jobs);
            for contact in sample_contacts() {
                writer.push_contact(contact);
            }
            writer.finish().unwrap();
            let mut files: Vec<(String, String)> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, fs::read_to_string(&path).unwrap())
                })
                .collect();
            files.sort();
            outputs.push(files);
            fs::remove_dir_all(&dir).ok();
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn partially_consumed_stream_reports_only_loaded_shards() {
        // A stream abandoned mid-replay (a simulation horizon cutting the
        // run short) must report the shards it actually faulted in, not the
        // whole index: the load counter increments per load, never ahead.
        let dir = temp_dir("partial");
        let sharded = write_sample(&dir); // 5 contacts over 3 shards
        let mut stream = TraceSource::stream(&sharded);
        assert!(stream.next().is_some(), "first contact comes from shard 0");
        let stats = stream.stream_stats();
        assert_eq!(stats.shards_loaded, 1, "only one shard was faulted in");
        assert!(stats.peak_resident_contacts >= 1);
        assert!((stats.shards_loaded as usize) < sharded.shard_count());
        // Draining the rest brings the count up to the full index.
        while stream.next().is_some() {}
        assert_eq!(
            stream.stream_stats().shards_loaded,
            sharded.shard_count() as u64
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_emits_pair_sidecars_and_counts() {
        let dir = temp_dir("pairs");
        let sharded = write_sample(&dir);
        for meta in sharded.shards() {
            let pairs = meta.pairs;
            let text = fs::read_to_string(dir.join(pairs_file_name(meta.window_index))).unwrap();
            let mut lines = text.lines();
            assert_eq!(lines.next().unwrap(), PAIRS_HEADER);
            assert_eq!(lines.count() as u64, pairs);
        }
        assert!(sharded.verify().is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_corrupt_shards_structurally() {
        let dir = temp_dir("verify");
        let sharded = write_sample(&dir);
        // Truncate shard 0 behind the manifest's back.
        let victim = dir.join(&sharded.shards()[0].file);
        fs::write(&victim, "# dtn-trace v1\n").unwrap();
        let err = sharded.verify().unwrap_err();
        assert!(
            matches!(err, ShardError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
        assert!(err.to_string().contains("manifest declares"));
        fs::remove_dir_all(&dir).ok();
    }

    /// Edits the contact lines of the sample's `shard-00001.txt` (window 1:
    /// `contact 115 300 0 3`, `contact 120 130 2 3`) and returns why
    /// `verify` refuses the shard and what a replay panics with.
    fn refused_shard(tag: &str, edit: impl FnOnce(&mut Vec<String>)) -> (String, String) {
        let dir = temp_dir(tag);
        let sharded = write_sample(&dir);
        let path = dir.join("shard-00001.txt");
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
        assert_eq!(lines, ["contact 115 300 0 3", "contact 120 130 2 3"]);
        edit(&mut lines);
        fs::write(&path, format!("# dtn-trace v1\n{}\n", lines.join("\n"))).unwrap();
        let verified = match sharded.verify() {
            Err(ShardError::Corrupt { file, message }) => {
                assert_eq!(file, "shard-00001.txt");
                message
            }
            other => panic!("expected a corrupt shard, got {other:?}"),
        };
        let replay = std::panic::catch_unwind(|| TraceSource::stream(&sharded).count());
        let payload = replay.expect_err("the replay went on past a broken shard");
        let replayed = payload.downcast_ref::<String>().unwrap().clone();
        assert!(replayed.contains("shard-00001.txt"), "{replayed}");
        assert!(replayed.ends_with(&verified), "{replayed} / {verified}");
        fs::remove_dir_all(&dir).ok();
        (verified, replayed)
    }

    #[test]
    fn a_shard_whose_contacts_were_reversed_is_refused() {
        let (verified, _) = refused_shard("reversed", |lines| lines.reverse());
        assert_eq!(
            verified,
            "contact 2 sorts before contact 1: contacts are not in event order"
        );
    }

    #[test]
    fn a_shard_holding_a_start_of_another_window_is_refused() {
        let (verified, _) = refused_shard("moved", |lines| {
            lines[0] = "contact 250 300 0 3".to_string();
        });
        assert_eq!(
            verified,
            "contact 1 starts at 250 s, in window 2 of 100 s, not the shard's window 1"
        );
    }

    #[test]
    fn a_shard_with_a_contact_its_manifest_does_not_count_is_refused() {
        let (verified, _) = refused_shard("extra", |lines| {
            lines.push("contact 150 160 5 6".to_string());
        });
        assert_eq!(verified, "holds 3 contacts but manifest declares 2");
    }

    #[test]
    fn a_spill_changed_behind_the_writers_back_is_an_error_not_a_panic() {
        // 2 000 records of 28 bytes: more than the spill's buffer holds, so
        // most are on disk before `finish` flushes the rest at its offset.
        type Edit = fn(&Path);
        let edits: [(&str, Edit); 4] = [
            ("emptied", |spill| fs::write(spill, b"").unwrap()),
            ("cut mid-record", |spill| {
                let bytes = fs::read(spill).unwrap();
                fs::write(spill, &bytes[..bytes.len() / 2 + 3]).unwrap();
            }),
            ("overwritten", |spill| {
                let len = fs::metadata(spill).unwrap().len() as usize;
                fs::write(spill, vec![0xff; len]).unwrap();
            }),
            ("extended", |spill| {
                let mut file = fs::OpenOptions::new().append(true).open(spill).unwrap();
                file.write_all(&[7; 16 * 1024]).unwrap();
            }),
        ];
        for (tag, edit) in edits {
            let dir = temp_dir(tag);
            let mut writer = ShardWriter::create(&dir, SimDuration::from_secs(100)).unwrap();
            for i in 0..2_000u32 {
                writer.push_contact(pc(i, i + 1, 10 + u64::from(i % 50), 99));
            }
            edit(&dir.join("spill-00000.bin"));
            match writer.finish() {
                Err(ShardError::Io { context, .. }) => {
                    assert!(context.contains("spill-00000.bin"), "{tag}: {context}")
                }
                other => panic!("{tag}: expected an i/o error, got {other:?}"),
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn manifest_frequent_map_matches_streaming_scan() {
        let dir = temp_dir("freq-map");
        let sharded = write_sample(&dir); // 100 s windows, span 390 s
        for every_secs in [0u64, 100, 200, 300, 500, 86_400] {
            let every = SimDuration::from_secs(every_secs);
            let mut scan = crate::stats::FrequentScan::new(every);
            for contact in TraceSource::stream(&sharded) {
                scan.observe(&contact);
            }
            assert_eq!(
                TraceSource::frequent_map(&sharded, every),
                Some(scan.finish()),
                "derived map diverged at every={every_secs}s"
            );
        }
        // Rule windows that do not align with the shard window cannot be
        // derived; callers fall back to the streaming pass.
        assert_eq!(
            TraceSource::frequent_map(&sharded, SimDuration::from_secs(150)),
            None
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frequent_map_survives_a_late_start_and_a_reordered_sidecar() {
        let dir = temp_dir("freq-late");
        let mut writer = ShardWriter::create(&dir, SimDuration::from_secs(100)).unwrap();
        for c in sample_contacts() {
            let [a, b] = c.participants() else {
                unreachable!("the sample is pair-wise")
            };
            let (start, end) = (c.start().as_secs() + 1_000, c.end().as_secs() + 1_000);
            writer.push_contact(pc(a.raw(), b.raw(), start, end));
        }
        let sharded = writer.finish().unwrap();
        let agrees_with_the_scan = |sharded: &ShardedTrace| {
            // Windows 10–12 at 100 s, 5–6 at 200 s, 0–1 at 1 200 s, 0 at 2 000 s.
            for every_secs in [100u64, 200, 1_200, 2_000] {
                let every = SimDuration::from_secs(every_secs);
                let mut scan = crate::stats::FrequentScan::new(every);
                for contact in TraceSource::stream(sharded) {
                    scan.observe(&contact);
                }
                let derived = TraceSource::frequent_map(sharded, every);
                assert_eq!(derived, Some(scan.finish()), "every={every_secs}s");
            }
        };
        agrees_with_the_scan(&sharded);
        // Windows 10, 11 and 12 share no pair, so none is frequent, however
        // late the trace starts; one 2 000 s window makes all five frequent.
        let peers = |every_secs| {
            let map = TraceSource::frequent_map(&sharded, SimDuration::from_secs(every_secs));
            map.unwrap().values().map(Vec::len).sum::<usize>()
        };
        assert_eq!(peers(100), 0);
        assert_eq!(peers(2_000), 2 * 5);
        // A sidecar lists a set: one that lost its order names the same one.
        let two_pairs = sharded.shards().iter().find(|s| s.pairs == 2).unwrap();
        let sidecar = dir.join(pairs_file_name(two_pairs.window_index));
        let text = fs::read_to_string(&sidecar).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1..].reverse();
        fs::write(&sidecar, lines.join("\n")).unwrap();
        agrees_with_the_scan(&sharded);
        sharded.verify().unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_sidecar_skips_derivation() {
        let dir = temp_dir("missing-sidecar");
        let sharded = write_sample(&dir);
        let window_index = sharded.shards()[0].window_index;
        fs::remove_file(dir.join(pairs_file_name(window_index))).unwrap();
        assert_eq!(
            TraceSource::frequent_map(&sharded, SimDuration::from_secs(100)),
            None
        );
        match sharded.verify() {
            Err(ShardError::Corrupt { file, message }) => {
                assert_eq!(file, pairs_file_name(window_index));
                assert_eq!(message, "pair sidecar missing or unreadable");
            }
            other => panic!("expected a corrupt sidecar, got {other:?}"),
        }
        // And the degenerate rule needs no aggregates at all.
        let empty = TraceSource::frequent_map(&sharded, SimDuration::ZERO).unwrap();
        assert!(empty.values().all(|peers| peers.is_empty()));
        assert_eq!(empty.len(), TraceSource::nodes(&sharded).len());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_writer_produces_empty_trace() {
        let dir = temp_dir("empty");
        let writer = ShardWriter::create(&dir, SimDuration::from_secs(60)).unwrap();
        assert!(writer.is_empty());
        let sharded = writer.finish().unwrap();
        assert!(TraceSource::is_empty(&sharded));
        assert_eq!(TraceSource::start_time(&sharded), None);
        assert_eq!(TraceSource::span(&sharded), SimDuration::ZERO);
        assert_eq!(TraceSource::stream(&sharded).count(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_window_is_rejected() {
        let dir = temp_dir("zero-window");
        assert!(matches!(
            ShardWriter::create(&dir, SimDuration::ZERO),
            Err(ShardError::ZeroWindow)
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_missing_dir_fails() {
        let dir = temp_dir("missing");
        assert!(matches!(
            ShardedTrace::open(&dir),
            Err(ShardError::Io { .. })
        ));
    }

    #[test]
    fn manifest_rejects_bad_header_and_count_mismatch() {
        let err = Manifest::parse("# not-a-shard\n").unwrap_err();
        assert!(matches!(err, ShardError::Manifest { line: 1, .. }));

        let text = "# dtn-shard v1\nwindow-secs 60\ncontacts 5\n\
                    shard shard-00000.txt 0 2 1\n";
        let err = Manifest::parse(text).unwrap_err();
        assert!(err.to_string().contains("sum to 2"));
    }

    #[test]
    fn manifest_rejects_a_shard_line_without_its_pair_count() {
        let (line, message) = refused_on("contacts 2\nshard shard-00000.txt 0 2\n");
        assert_eq!(line, 4);
        assert_eq!(message, "missing shard pair count");
        let (line, message) = refused_on("contacts 2\nshard shard-00000.txt 0 2 many\n");
        assert_eq!(line, 4);
        assert_eq!(message, "invalid shard pair count `many`");
    }

    #[test]
    fn manifest_rejects_unknown_keyword() {
        let text = "# dtn-shard v1\nwindow-secs 60\nwarp 9\n";
        let err = Manifest::parse(text).unwrap_err();
        assert!(matches!(err, ShardError::Manifest { line: 3, .. }));
    }

    /// The line a manifest of `lines` (after the header and a one-minute
    /// window, so the first of them is line 3) is refused on, and why.
    fn refused_on(lines: &str) -> (usize, String) {
        match Manifest::parse(&format!("{MANIFEST_HEADER}\nwindow-secs 60\n{lines}")) {
            Err(ShardError::Manifest { line, message }) => (line, message),
            other => panic!("expected a manifest error, got {other:?}"),
        }
    }

    #[test]
    fn manifest_rejects_a_span_that_ends_before_it_starts_or_lacks_a_bound() {
        let (line, message) = refused_on("contacts 0\nspan-start 500\nspan-end 100\n");
        assert_eq!(line, 5);
        assert_eq!(message, "span-end 100 precedes span-start 500");
        assert_eq!(refused_on("contacts 0\nspan-start 500\n").0, 4);
        assert_eq!(refused_on("span-end 100\ncontacts 0\n").0, 3);
        let empty_span = format!("{MANIFEST_HEADER}\nwindow-secs 60\nspan-start 7\nspan-end 7\n");
        Manifest::parse(&empty_span).unwrap();
    }

    #[test]
    fn manifest_rejects_shard_lines_out_of_window_order() {
        let (line, message) =
            refused_on("contacts 3\nshard shard-00002.txt 2 1 1\nshard shard-00001.txt 1 2 1\n");
        assert_eq!(line, 5);
        assert!(message.contains("ascending"), "{message}");
        let repeated = "contacts 3\nshard shard-00001.txt 1 1 1\nshard shard-00001.txt 1 2 1\n";
        assert_eq!(refused_on(repeated).0, 5);
        let gapped = "contacts 3\nshard shard-00001.txt 1 1 1\nshard shard-00007.txt 7 2 1\n";
        Manifest::parse(&format!("{MANIFEST_HEADER}\nwindow-secs 60\n{gapped}")).unwrap();
    }

    #[test]
    fn manifest_rejects_shard_files_outside_the_directory() {
        for file in [
            "../outside.txt",
            "/etc/hosts",
            "sub/shard-00000.txt",
            "./shard-00000.txt",
            "shard-00000.txt/",
            "..",
            ".",
        ] {
            let (line, message) = refused_on(&format!("contacts 1\nshard {file} 0 1 1\n"));
            assert_eq!(line, 4, "{file}");
            assert!(message.contains(&format!("`{file}`")), "{message}");
        }
    }

    #[test]
    fn manifest_rejects_shard_counts_whose_sum_overflows() {
        // 2⁶⁴ − 1 + 10 wraps to 9, which unchecked addition would accept.
        let lines = format!(
            "contacts 9\nshard shard-00000.txt 0 {} 1\nshard shard-00001.txt 1 10 1\n",
            u64::MAX
        );
        let (line, message) = refused_on(&lines);
        assert_eq!(line, 5);
        assert!(message.contains("past 18446744073709551615"), "{message}");
    }

    #[test]
    fn shard_files_are_valid_standalone_traces() {
        let dir = temp_dir("standalone");
        let sharded = write_sample(&dir);
        let first = &sharded.shards()[0];
        let file = File::open(dir.join(&first.file)).unwrap();
        let trace = crate::parser::read_trace(file).unwrap();
        assert_eq!(trace.len() as u64, first.contacts);
        fs::remove_dir_all(&dir).ok();
    }
}
