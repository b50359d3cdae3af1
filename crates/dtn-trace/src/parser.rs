//! Plain-text trace serialization.
//!
//! Traces are stored one contact per line:
//!
//! ```text
//! # dtn-trace v1
//! contact <start-secs> <end-secs> <node> <node> [<node> ...]
//! ```
//!
//! Blank lines and lines starting with `#` are ignored. The format is stable
//! across versions of this crate, diff-friendly, and easy to produce from
//! external trace-conversion scripts.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::contact::{Contact, ContactError};
use crate::node::NodeId;
use crate::time::SimTime;
use crate::trace::ContactTrace;

/// Error produced when reading a trace from text.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A line parsed but described an invalid contact.
    InvalidContact {
        /// 1-based line number.
        line: usize,
        /// The underlying validation error.
        source: ContactError,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ParseTraceError::Syntax { line, message } => {
                write!(f, "syntax error on line {line}: {message}")
            }
            ParseTraceError::InvalidContact { line, source } => {
                write!(f, "invalid contact on line {line}: {source}")
            }
        }
    }
}

impl Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            ParseTraceError::InvalidContact { source, .. } => Some(source),
            ParseTraceError::Syntax { .. } => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

/// Writes `trace` in the text format.
///
/// A `&mut` reference to a writer also works, per the standard blanket impls.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, ContactTrace, NodeId, SimTime, write_trace, read_trace};
///
/// let trace: ContactTrace = vec![
///     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(5), SimTime::from_secs(9))?,
/// ].into_iter().collect();
///
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &trace)?;
/// let round_tripped = read_trace(buf.as_slice())?;
/// assert_eq!(round_tripped, trace);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace<W: Write>(writer: W, trace: &ContactTrace) -> io::Result<()> {
    let mut out = LineFormatter::new(writer, TRACE_HEADER);
    for contact in trace.iter() {
        out.contact(contact)?;
    }
    out.finish().map(drop)
}

/// The first line of a trace file.
pub(crate) const TRACE_HEADER: &str = "# dtn-trace v1";

/// Bytes a [`LineFormatter`] gathers before it hands them to its writer.
const FORMAT_CHUNK: usize = 64 * 1024;

/// The one formatter of trace text: [`write_trace`], the shard files and
/// their pair sidecars all write through it. It formats numbers by hand —
/// the same digits `{}` prints — into a buffer it hands to the writer
/// [`FORMAT_CHUNK`] bytes at a time.
pub(crate) struct LineFormatter<W: Write> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> LineFormatter<W> {
    /// A formatter whose first line is `header`.
    pub(crate) fn new(out: W, header: &str) -> Self {
        let mut buf = Vec::with_capacity(FORMAT_CHUNK + 128);
        buf.extend_from_slice(header.as_bytes());
        buf.push(b'\n');
        LineFormatter { out, buf }
    }

    /// Writes `contact <start> <end> <node> <node> ...`.
    pub(crate) fn contact(&mut self, contact: &Contact) -> io::Result<()> {
        self.buf.extend_from_slice(b"contact ");
        put_decimal(&mut self.buf, contact.start().as_secs());
        self.buf.push(b' ');
        put_decimal(&mut self.buf, contact.end().as_secs());
        for node in contact.participants() {
            self.buf.push(b' ');
            put_decimal(&mut self.buf, node.raw().into());
        }
        self.end_line()
    }

    /// Writes `<a> <b>`, a pair sidecar's line.
    pub(crate) fn pair(&mut self, a: NodeId, b: NodeId) -> io::Result<()> {
        put_decimal(&mut self.buf, a.raw().into());
        self.buf.push(b' ');
        put_decimal(&mut self.buf, b.raw().into());
        self.end_line()
    }

    fn end_line(&mut self) -> io::Result<()> {
        self.buf.push(b'\n');
        if self.buf.len() >= FORMAT_CHUNK {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Hands the writer what is left and flushes it.
    pub(crate) fn finish(mut self) -> io::Result<W> {
        self.out.write_all(&self.buf)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Appends `n` in decimal, as `{}` formats it.
fn put_decimal(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Reads a trace in the text format.
///
/// A `&mut` reference to a reader also works, per the standard blanket impls.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on I/O failure, malformed lines, or lines
/// describing invalid contacts (empty interval, duplicate node, singleton).
pub fn read_trace<R: Read>(reader: R) -> Result<ContactTrace, ParseTraceError> {
    let mut builder = ContactTrace::builder();
    for contact in ContactReader::new(reader) {
        builder.push(contact?);
    }
    Ok(builder.build())
}

/// Streaming reader over the text format: yields one [`Contact`] at a time
/// without buffering the whole trace — every line is read into the one
/// buffer the reader owns. Comments and blank lines are skipped; errors
/// carry 1-based line numbers. After the first error the iterator is
/// exhausted.
#[derive(Debug)]
pub struct ContactReader<R> {
    reader: BufReader<R>,
    line: String,
    line_no: usize,
    failed: bool,
}

impl<R: Read> ContactReader<R> {
    /// Wraps `reader` for streaming parsing.
    pub fn new(reader: R) -> Self {
        ContactReader {
            reader: BufReader::new(reader),
            line: String::new(),
            line_no: 0,
            failed: false,
        }
    }
}

/// Parses one non-blank, non-comment line. A line naming exactly two nodes
/// — every line of a vehicular trace — becomes a contact without a `Vec`;
/// [`Contact::pair`] holds it to the checks [`Contact::clique`] makes.
fn parse_line(trimmed: &str, line_no: usize) -> Result<Contact, ParseTraceError> {
    let mut fields = trimmed.split_ascii_whitespace();
    let keyword = fields.next().unwrap_or_default();
    if keyword != "contact" {
        return Err(ParseTraceError::Syntax {
            line: line_no,
            message: format!("expected `contact`, found `{keyword}`"),
        });
    }
    let start = SimTime::from_secs(parse_u64(fields.next(), line_no, "start time")?);
    let end = SimTime::from_secs(parse_u64(fields.next(), line_no, "end time")?);
    let node = |tok: &str| {
        tok.parse::<u32>()
            .map(NodeId::new)
            .map_err(|_| ParseTraceError::Syntax {
                line: line_no,
                message: format!("invalid node id `{tok}`"),
            })
    };
    let contact = match (fields.next(), fields.next(), fields.next()) {
        (Some(a), Some(b), None) => Contact::pair(node(a)?, node(b)?, start, end),
        (a, b, c) => {
            let tokens = a.into_iter().chain(b).chain(c).chain(fields);
            Contact::clique(tokens.map(node).collect::<Result<_, _>>()?, start, end)
        }
    };
    contact.map_err(|source| ParseTraceError::InvalidContact {
        line: line_no,
        source,
    })
}

impl<R: Read> Iterator for ContactReader<R> {
    type Item = Result<Contact, ParseTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let result = parse_line(trimmed, self.line_no);
            if result.is_err() {
                self.failed = true;
            }
            return Some(result);
        }
    }
}

fn parse_u64(tok: Option<&str>, line: usize, what: &str) -> Result<u64, ParseTraceError> {
    let tok = tok.ok_or_else(|| ParseTraceError::Syntax {
        line,
        message: format!("missing {what}"),
    })?;
    tok.parse::<u64>().map_err(|_| ParseTraceError::Syntax {
        line,
        message: format!("invalid {what} `{tok}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_trace() -> ContactTrace {
        vec![
            Contact::pairwise(
                NodeId::new(0),
                NodeId::new(1),
                SimTime::from_secs(5),
                SimTime::from_secs(9),
            )
            .unwrap(),
            Contact::clique(
                vec![NodeId::new(2), NodeId::new(3), NodeId::new(4)],
                SimTime::from_secs(10),
                SimTime::from_secs(40),
            )
            .unwrap(),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn round_trip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn ignores_comments_and_blanks() {
        let text = "# header\n\n  \ncontact 0 10 1 2\n# trailing\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn rejects_unknown_keyword() {
        let err = read_trace("link 0 10 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseTraceError::Syntax { line: 1, .. }));
        assert!(err.to_string().contains("link"));
    }

    #[test]
    fn rejects_missing_fields() {
        let err = read_trace("contact 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("end time"));
    }

    #[test]
    fn rejects_bad_node_id() {
        let err = read_trace("contact 0 10 1 x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("node id"));
    }

    #[test]
    fn rejects_invalid_contact_with_line_number() {
        let err = read_trace("contact 0 10 1 2\ncontact 10 5 1 2\n".as_bytes()).unwrap_err();
        match err {
            ParseTraceError::InvalidContact { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// The two-node fast path reports what the general path reports.
    #[test]
    fn a_malformed_pair_line_keeps_its_error() {
        let error_of = |line: &str| match read_trace(line.as_bytes()).unwrap_err() {
            ParseTraceError::InvalidContact { line: 1, source } => source,
            other => panic!("unexpected error {other:?}"),
        };
        let (at, n) = (SimTime::from_secs, NodeId::new);
        let empty = ContactError::EmptyInterval {
            start: at(5),
            end: at(5),
        };
        assert_eq!(error_of("contact 5 5 1 2"), empty);
        assert_eq!(
            error_of("contact 0 9 3 3"),
            ContactError::DuplicateParticipant(n(3))
        );
        assert_eq!(
            error_of("contact 0 9 7"),
            ContactError::TooFewParticipants { distinct: 1 }
        );
        assert_eq!(
            error_of("contact 0 9"),
            ContactError::TooFewParticipants { distinct: 0 }
        );
        let both = Contact::clique(vec![n(3), n(3)], at(5), at(5)).unwrap_err();
        assert_eq!(error_of("contact 5 5 3 3"), both);
        assert_eq!(both, empty, "the interval is checked first");
        // A bad token is a syntax error before either node is looked at.
        let err = read_trace("contact 5 5 3 x".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseTraceError::Syntax { line: 1, .. }));
    }

    #[test]
    fn error_source_is_chained() {
        use std::error::Error as _;
        let err = read_trace("contact 10 5 1 2\n".as_bytes()).unwrap_err();
        assert!(err.source().is_some());
    }

    #[test]
    fn empty_input_is_empty_trace() {
        let trace = read_trace("".as_bytes()).unwrap();
        assert!(trace.is_empty());
    }

    #[test]
    fn streaming_reader_yields_contacts_in_file_order() {
        let text = "# header\ncontact 10 20 1 2\n\ncontact 0 5 3 4\n";
        let contacts: Vec<Contact> = ContactReader::new(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(contacts.len(), 2);
        // File order, not sorted order — sorting is the caller's job.
        assert_eq!(contacts[0].start().as_secs(), 10);
        assert_eq!(contacts[1].start().as_secs(), 0);
    }

    /// A number of any magnitude: a uniform `u64` shifted right by 0–63 bits.
    fn magnitude() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..64).prop_map(|(n, shift)| n >> shift)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hand-rolled formatter prints what `format!` prints, and what
        /// it prints reads back as the contact it was given.
        #[test]
        fn the_formatter_prints_what_format_prints(
            (a, b) in (magnitude(), magnitude()),
            ids in proptest::collection::btree_set(
                (any::<u32>(), 0u32..32).prop_map(|(n, shift)| n >> shift),
                2..9,
            ),
        ) {
            prop_assume!(a != b && ids.len() >= 2);
            let (start, end) = (a.min(b), a.max(b));
            let ids: Vec<NodeId> = ids.into_iter().map(NodeId::new).collect();
            let contact =
                Contact::clique(ids.clone(), SimTime::from_secs(start), SimTime::from_secs(end))
                    .unwrap();
            let mut out = LineFormatter::new(Vec::new(), "# head");
            out.contact(&contact).unwrap();
            out.pair(ids[0], ids[1]).unwrap();
            let text = String::from_utf8(out.finish().unwrap()).unwrap();
            let members: String = ids.iter().map(|id| format!(" {}", id.raw())).collect();
            let expected = format!(
                "# head\ncontact {start} {end}{members}\n{} {}\n",
                ids[0].raw(),
                ids[1].raw()
            );
            prop_assert_eq!(&text, &expected);
            let contact_line = text.lines().nth(1).unwrap();
            let read: Vec<Contact> =
                ContactReader::new(contact_line.as_bytes()).collect::<Result<_, _>>().unwrap();
            prop_assert_eq!(read, vec![contact]);
        }
    }

    #[test]
    fn the_formatter_hands_over_long_output_whole() {
        let contact = Contact::pairwise(
            NodeId::new(u32::MAX),
            NodeId::new(0),
            SimTime::from_secs(0),
            SimTime::from_secs(u64::MAX),
        )
        .unwrap();
        let mut out = LineFormatter::new(Vec::new(), TRACE_HEADER);
        let lines = 3 * FORMAT_CHUNK / 20;
        for _ in 0..lines {
            out.contact(&contact).unwrap();
        }
        let text = out.finish().unwrap();
        let line = "contact 0 18446744073709551615 0 4294967295\n";
        assert_eq!(text.len(), TRACE_HEADER.len() + 1 + lines * line.len());
        assert!(text.ends_with(line.as_bytes()));
        let read = read_trace(text.as_slice()).unwrap();
        assert_eq!(read.len(), lines);
    }

    #[test]
    fn streaming_reader_stops_after_first_error() {
        let text = "contact 0 10 1 2\nbogus line\ncontact 20 30 1 2\n";
        let mut reader = ContactReader::new(text.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert!(matches!(err, ParseTraceError::Syntax { line: 2, .. }));
        assert!(reader.next().is_none());
    }
}
