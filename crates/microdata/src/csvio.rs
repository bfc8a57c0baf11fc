//! Minimal CSV import/export for microdata tables.
//!
//! The format is deliberately simple: comma-separated with a header line,
//! plus just enough double-quote support to round-trip labels that contain
//! commas (e.g. the paper's age range `[30, 50)`). A cell of an attribute
//! with labels must be one of its labels; a cell of an attribute without
//! labels must be an in-domain integer code.
//!
//! The reader makes one pass over each chunk of lines: it splits, trims
//! and interns every cell straight into the chunk's list of each
//! column's distinct texts, with no buffer of cells in between. A cell of
//! at most 7 bytes packs into one `u64` word (its bytes, then its length
//! in the top byte) and is looked up through [`KeyedFold`], a hash keyed
//! afresh from [`RandomState`] for every index, so a client cannot
//! precompute cells that collide and flood one bucket. Longer cells keep
//! std's SipHash. Only the distinct texts then go through the schema's
//! labels or the inferred ones.
//!
//! Errors come in a fixed order, the same at every thread budget:
//! invalid UTF-8 anywhere (the whole input is decoded first), then the
//! first ragged line in file order, then a schema whose column count
//! differs from the file's, then the first cell in file order that the
//! schema rejects.

use crate::{Attribute, MicrodataError, Schema, SuppressedTable, Table, TableBuilder, Value};
use ldiv_exec::Executor;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::io::{BufRead, Write};

/// Lines per parallel parsing chunk. Fixed (never derived from the
/// thread count) so the decomposition — and the first error reported —
/// is identical for every budget.
const PARSE_CHUNK: usize = 4_096;

/// One column's text → code index. Codes are `u32`, so an inferred
/// domain too large for [`Value`] is still counted exactly for
/// [`Schema::new`]'s error.
type LabelIndex<'a> = HashMap<&'a str, u32>;

/// Per column, the code of each of a chunk's distinct texts, in the
/// order of [`ChunkCodes::texts`].
type Remap = Vec<Vec<u32>>;

/// Hashes a packed short cell: `word ^ k0` times `k1` as a 128-bit
/// product, folded to 64 bits by xoring its halves. Both keys are drawn
/// from a new [`RandomState`] for every index, so which cells share a
/// bucket differs from call to call and cannot be aimed at from outside;
/// that is why cells may skip SipHash here, while
/// [`Table::group_by_qi`] keeps it.
#[derive(Clone)]
struct KeyedFold {
    k0: u64,
    k1: u64,
}

impl Default for KeyedFold {
    fn default() -> Self {
        let state = RandomState::new();
        KeyedFold {
            k0: state.hash_one(0u64),
            k1: state.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for KeyedFold {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            keys: self.clone(),
            hash: 0,
        }
    }
}

struct FoldHasher {
    keys: KeyedFold,
    hash: u64,
}

impl Hasher for FoldHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word ^ self.keys.k0) * u128::from(self.keys.k1);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A cell of at most 7 bytes as one word: its bytes little-endian, its
/// length in the top byte, so `a` and `a\0` differ. Longer cells don't
/// pack. The bytes are read as two little-endian halves, the first and
/// the last two or four bytes, which overlap on equal bytes.
fn pack(cell: &str) -> Option<u64> {
    let b = cell.as_bytes();
    let n = b.len();
    let word = match n {
        0 => 0,
        1 => u64::from(b[0]),
        2 | 3 => {
            let first = u16::from_le_bytes([b[0], b[1]]);
            let last = u16::from_le_bytes([b[n - 2], b[n - 1]]);
            u64::from(first) | u64::from(last) << (8 * (n - 2))
        }
        4..=7 => {
            let first = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let last = u32::from_le_bytes([b[n - 4], b[n - 3], b[n - 2], b[n - 1]]);
            u64::from(first) | u64::from(last) << (8 * (n - 4))
        }
        _ => return None,
    };
    Some(word | (n as u64) << 56)
}

/// One column's distinct texts in a chunk, in order of first appearance,
/// with an index from each text to its position.
#[derive(Default)]
struct ColumnTexts<'a> {
    short: HashMap<u64, u32, KeyedFold>,
    long: HashMap<Cow<'a, str>, u32>,
    texts: Vec<Cow<'a, str>>,
}

impl<'a> ColumnTexts<'a> {
    /// The position of `cell`'s text. A new text is added at the end, as
    /// `text()` gives it.
    fn intern(&mut self, cell: &str, text: impl FnOnce() -> Cow<'a, str>) -> u32 {
        let next = self.texts.len() as u32;
        let word = pack(cell);
        let code = match word {
            Some(word) => *self.short.entry(word).or_insert(next),
            None => *self.long.get(cell).unwrap_or(&next),
        };
        if code == next {
            let text = text();
            if word.is_none() {
                self.long.insert(text.clone(), next);
            }
            self.texts.push(text);
        }
        code
    }
}

/// One chunk of lines, coded against the chunk's own list of each
/// column's distinct texts: every cell is interned once, in parallel,
/// and only the distinct texts are then looked up in the schema's labels
/// or added to the inferred ones.
struct ChunkCodes<'a> {
    /// Row-major: each cell's position in its column's `texts`.
    codes: Vec<u32>,
    /// Per column, the chunk's distinct texts in order of first
    /// appearance.
    texts: Vec<Vec<Cow<'a, str>>>,
}

impl<'a> ChunkCodes<'a> {
    /// Splits, trims and interns every cell of `lines` in one pass,
    /// stopping at the first line that doesn't hold `cols` cells. Cells
    /// borrow from the input, except on lines that contain a `"`, which
    /// go through [`split_csv_line`]. Cells beyond the last column are
    /// only counted.
    fn of(lines: &[(usize, &'a str)], cols: usize) -> Result<ChunkCodes<'a>, MicrodataError> {
        let mut columns: Vec<ColumnTexts<'a>> = (0..cols).map(|_| ColumnTexts::default()).collect();
        let mut codes = Vec::with_capacity(lines.len() * cols);
        for &(file_line, line) in lines {
            let found = if line.as_bytes().contains(&b'"') {
                let cells = split_csv_line(line);
                for (texts, cell) in columns.iter_mut().zip(&cells) {
                    codes.push(texts.intern(cell, || Cow::Owned(cell.clone())));
                }
                cells.len()
            } else {
                let bytes = line.as_bytes();
                let (mut found, mut start) = (0, 0);
                loop {
                    let end = bytes[start..]
                        .iter()
                        .position(|&b| b == b',')
                        .map_or(bytes.len(), |at| start + at);
                    if let Some(texts) = columns.get_mut(found) {
                        let cell = trim(&line[start..end]);
                        codes.push(texts.intern(cell, || Cow::Borrowed(cell)));
                    }
                    found += 1;
                    if end == bytes.len() {
                        break found;
                    }
                    start = end + 1;
                }
            };
            if found != cols {
                return Err(MicrodataError::Csv(format!(
                    "line {file_line}: expected {cols} cells, found {found}"
                )));
            }
        }
        let texts = columns.into_iter().map(|column| column.texts).collect();
        Ok(ChunkCodes { codes, texts })
    }
}

/// Reads a table whose last column is the SA and all other columns are QIs.
/// Uses the auto thread budget for the parse.
///
/// When `schema` is `None`, a schema is inferred: every column becomes a
/// labelled categorical attribute whose domain is the set of distinct cell
/// strings in first-appearance order.
pub fn read_csv<R: BufRead>(reader: R, schema: Option<Schema>) -> Result<Table, MicrodataError> {
    read_csv_with(reader, schema, &Executor::default())
}

/// [`read_csv`] under an explicit thread budget.
///
/// The input is read into memory and decoded as UTF-8 once. One loop
/// per fixed-size chunk of lines, fanned out over the budget, splits,
/// trims and interns each cell into the chunk's list of each column's
/// distinct texts: a cell of at most 7 bytes through a `u64` word in a
/// randomly keyed multiply-fold index, a longer one through SipHash.
/// Those texts are then coded sequentially, chunk by chunk, through one
/// label → code hash index per column: built from the schema's labels
/// when one is given, or grown by inference, which orders each domain by
/// first appearance.
///
/// Errors, in this order: invalid UTF-8 anywhere in the input, the first
/// ragged line in file order, a schema whose column count differs from
/// the file's, and the first cell in file order that the schema rejects.
/// So a ragged line is reported even when an earlier line holds a bad
/// cell. Results, and the error, are identical for every budget.
pub fn read_csv_with<R: BufRead>(
    mut reader: R,
    schema: Option<Schema>,
    exec: &Executor,
) -> Result<Table, MicrodataError> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| MicrodataError::Csv(e.to_string()))?;
    if bytes.is_empty() {
        return Err(MicrodataError::Csv("empty input".into()));
    }
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(bytes.len());
    let names: Vec<String> = split_csv_line(utf8(&bytes[..header_end])?);
    if names.len() < 2 {
        return Err(MicrodataError::Csv(
            "need at least one QI column and one SA column".into(),
        ));
    }
    let cols = names.len();

    // The non-blank data lines with their file line numbers (for error
    // messages), found by a byte scan: `str::split` costs more per line.
    let body = utf8(bytes.get(header_end + 1..).unwrap_or_default())?;
    let mut lines: Vec<(usize, &str)> = Vec::new();
    let (mut rest, mut file_line) = (body, 2);
    loop {
        let end = rest.bytes().position(|b| b == b'\n');
        let line = &rest[..end.unwrap_or(rest.len())];
        if !is_blank(line) {
            lines.push((file_line, line));
        }
        match end {
            Some(end) => rest = &rest[end + 1..],
            None => break,
        }
        file_line += 1;
    }

    // In parallel, one pass per chunk. Each chunk stops at its first
    // ragged line; taking the first error in chunk order reports exactly
    // the first ragged line of the file.
    let chunks: Vec<ChunkCodes<'_>> = exec
        .map_chunks(&lines, PARSE_CHUNK, |chunk| ChunkCodes::of(chunk, cols))
        .into_iter()
        .collect::<Result<_, _>>()?;

    if let Some(s) = &schema {
        if s.dimensionality() + 1 != cols {
            return Err(MicrodataError::Csv(format!(
                "schema has {} columns but the file has {}",
                s.dimensionality() + 1,
                cols
            )));
        }
    }

    // Sequential, chunk by chunk: code each chunk's distinct texts
    // through one index per column, built from the schema's labels or by
    // inference, which orders each domain by first appearance.
    let (schema, remaps) = match schema {
        Some(s) => {
            let remaps = code_with_schema(&s, &chunks)?;
            (s, remaps)
        }
        None => infer_schema(&names, &chunks)?,
    };

    let d = cols - 1;
    let mut builder = TableBuilder::with_capacity(schema, lines.len());
    let mut row = vec![0 as Value; cols];
    for (chunk, remap) in chunks.iter().zip(&remaps) {
        for codes in chunk.codes.chunks_exact(cols) {
            for ((v, &code), codes_of) in row.iter_mut().zip(codes).zip(remap) {
                // Schema::new bounds every domain by the value type.
                *v = codes_of[code as usize] as Value;
            }
            builder.push_row_unchecked(&row[..d], row[d]);
        }
    }
    Ok(builder.build())
}

fn utf8(bytes: &[u8]) -> Result<&str, MicrodataError> {
    std::str::from_utf8(bytes)
        .map_err(|_| MicrodataError::Csv("stream did not contain valid UTF-8".into()))
}

/// Whether a line holds only whitespace, skipping the Unicode scan when
/// it starts with visible ASCII.
fn is_blank(line: &str) -> bool {
    !line.as_bytes().first().is_some_and(u8::is_ascii_graphic) && line.trim().is_empty()
}

/// [`str::trim`], skipping the Unicode scan when both ends are visible
/// ASCII.
fn trim(cell: &str) -> &str {
    match (cell.as_bytes().first(), cell.as_bytes().last()) {
        (Some(a), Some(b)) if a.is_ascii_graphic() && b.is_ascii_graphic() => cell,
        _ => cell.trim(),
    }
}

/// Splits one CSV line into trimmed cells, honouring double-quoted cells
/// (`""` escapes a quote). The reader uses it for the header and for
/// every line that contains a quote; the dataset store uses it to check
/// an append batch's header.
pub fn split_csv_line(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => quoted = !quoted,
            ',' if !quoted => {
                cells.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    cells.push(cur.trim().to_string());
    cells
}

/// A label or header name as one CSV cell: quoted, with each `"`
/// doubled, when it holds a comma or a quote, so [`split_csv_line`]
/// reads it back as the same text. Every CSV writer in the workspace
/// renders its cells through it.
pub fn escape_cell(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Sentinel in a [`Remap`] for a text that `code` rejected. No code
/// reaches it: inference rejects nothing, and [`Schema::new`] bounds
/// every domain by the value type.
const BAD: u32 = u32::MAX;

/// Codes every chunk's distinct texts with `code(column, text)`, chunk
/// by chunk in file order. At the first chunk holding a text that `code`
/// rejects, returns the chunk's first bad cell in file order and its
/// column.
fn remap_chunks<'c>(
    chunks: &'c [ChunkCodes<'_>],
    mut code: impl FnMut(usize, &'c str) -> Option<u32>,
) -> Result<Vec<Remap>, (&'c str, usize)> {
    let mut remaps = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let cols = chunk.texts.len();
        let mut bad = false;
        let remap: Remap = chunk
            .texts
            .iter()
            .enumerate()
            .map(|(column, texts)| {
                texts
                    .iter()
                    .map(|text| {
                        code(column, text).unwrap_or_else(|| {
                            bad = true;
                            BAD
                        })
                    })
                    .collect()
            })
            .collect();
        if bad {
            let pos = (0..chunk.codes.len())
                .find(|&pos| remap[pos % cols][chunk.codes[pos] as usize] == BAD)
                .expect("a rejected text has a cell");
            let column = pos % cols;
            return Err((&chunk.texts[column][chunk.codes[pos] as usize], column));
        }
        remaps.push(remap);
    }
    Ok(remaps)
}

/// Infers a labelled schema whose domains list each column's distinct
/// texts in order of first appearance.
fn infer_schema(
    names: &[String],
    chunks: &[ChunkCodes<'_>],
) -> Result<(Schema, Vec<Remap>), MicrodataError> {
    let cols = names.len();
    let mut indexes: Vec<LabelIndex<'_>> = vec![LabelIndex::new(); cols];
    let mut labels: Vec<Vec<String>> = vec![Vec::new(); cols];
    let remaps = remap_chunks(chunks, |c, text| {
        Some(*indexes[c].entry(text).or_insert_with(|| {
            labels[c].push(text.to_string());
            labels[c].len() as u32 - 1
        }))
    })
    .expect("inference codes every text");
    let mut attrs: Vec<Attribute> = names
        .iter()
        .zip(labels)
        .map(|(name, mut labels)| {
            // An all-empty column still needs a non-empty domain.
            if labels.is_empty() {
                labels.push(String::new());
            }
            Attribute::with_labels(name.clone(), labels)
        })
        .collect();
    let sensitive = attrs.pop().expect("checked >= 2 columns");
    Ok((Schema::new(attrs, sensitive)?, remaps))
}

/// Codes against a given schema: a cell of an attribute with labels must
/// be one of them (a duplicated label keeps its first code), and a cell of
/// one without labels an in-domain integer code.
fn code_with_schema(
    schema: &Schema,
    chunks: &[ChunkCodes<'_>],
) -> Result<Vec<Remap>, MicrodataError> {
    let attrs: Vec<&Attribute> = schema
        .qi_attributes()
        .iter()
        .chain(std::iter::once(schema.sensitive()))
        .collect();
    let indexes: Vec<LabelIndex<'_>> = attrs
        .iter()
        .map(|attr| {
            let mut index = LabelIndex::with_capacity(attr.labels().len());
            for (code, label) in attr.labels().iter().enumerate() {
                index.entry(label.as_str()).or_insert(code as u32);
            }
            index
        })
        .collect();
    remap_chunks(chunks, |c, text| {
        if attrs[c].labels().is_empty() {
            text.parse::<u32>()
                .ok()
                .filter(|&v| v < attrs[c].domain_size())
        } else {
            indexes[c].get(text).copied()
        }
    })
    .map_err(|(text, c)| {
        let expected = if attrs[c].labels().is_empty() {
            "an in-domain code for"
        } else {
            "a label of"
        };
        MicrodataError::Csv(format!(
            "cell '{text}' is not {expected} attribute '{}'",
            attrs[c].name()
        ))
    })
}

/// The escaped attribute names, QI attributes first, then the SA.
fn header(schema: &Schema) -> Vec<String> {
    schema
        .qi_attributes()
        .iter()
        .chain(std::iter::once(schema.sensitive()))
        .map(|a| escape_cell(a.name()))
        .collect()
}

/// Writes a table as CSV with labelled cells.
pub fn write_table_csv<W: Write>(mut w: W, table: &Table) -> std::io::Result<()> {
    let schema = table.schema();
    writeln!(w, "{}", header(schema).join(","))?;
    for (_, qi, sa) in table.rows() {
        let mut cells: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(i, &v)| escape_cell(&schema.qi_attribute(i).label(v)))
            .collect();
        cells.push(escape_cell(&schema.sensitive().label(sa)));
        writeln!(w, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Writes a generalized (suppressed) table as CSV, stars rendered as `*`,
/// rows in source order.
pub fn write_generalized_csv<W: Write>(
    mut w: W,
    table: &Table,
    published: &SuppressedTable,
) -> std::io::Result<()> {
    let schema = table.schema();
    let d = table.dimensionality();
    writeln!(w, "{}", header(schema).join(","))?;

    // Source-row order: build row -> group index once.
    let mut owner = vec![usize::MAX; table.len()];
    for (gid, g) in published.groups().iter().enumerate() {
        for &r in g.rows() {
            owner[r as usize] = gid;
        }
    }
    for (row, &gid) in owner.iter().enumerate() {
        let mut cells: Vec<String> = Vec::with_capacity(d + 1);
        if gid == usize::MAX {
            // Row not covered by the partition — publish fully suppressed.
            cells.extend(std::iter::repeat_n(STAR.to_string(), d));
        } else {
            let g = &published.groups()[gid];
            for a in 0..d {
                cells.push(match g.value(a) {
                    Some(v) => escape_cell(&schema.qi_attribute(a).label(v)),
                    None => STAR.to_string(),
                });
            }
        }
        cells.push(escape_cell(
            &schema.sensitive().label(table.sa_value(row as u32)),
        ));
        writeln!(w, "{}", cells.join(","))?;
    }
    Ok(())
}

const STAR: &str = crate::generalize::STAR_TEXT;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples, Partition};
    use proptest::prelude::*;

    #[test]
    fn round_trip_hospital() {
        let t = samples::hospital();
        let mut buf = Vec::new();
        write_table_csv(&mut buf, &t).unwrap();
        let parsed = read_csv(&buf[..], Some(samples::hospital_schema())).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn inferred_schema_round_trip() {
        let csv = "age,zip,disease\nyoung,12,flu\nold,12,cold\nyoung,34,flu\n";
        let t = read_csv(csv.as_bytes(), None).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.dimensionality(), 2);
        assert_eq!(t.schema().qi_attribute(0).domain_size(), 2);
        assert_eq!(t.schema().sensitive().domain_size(), 2);
        // First-appearance coding: young = 0, old = 1.
        assert_eq!(t.qi_value(1, 0), 1);
    }

    #[test]
    fn rejects_ragged_rows() {
        let csv = "a,b\n1,2\n1\n";
        assert!(read_csv(csv.as_bytes(), None).is_err());
    }

    #[test]
    fn rejects_unknown_label_with_schema() {
        let csv = "Age,Gender,Education,Disease\n< 30,M,Master,plague\n";
        let err = read_csv(csv.as_bytes(), Some(samples::hospital_schema())).unwrap_err();
        assert!(matches!(err, MicrodataError::Csv(_)));
    }

    #[test]
    fn generalized_csv_contains_stars() {
        let t = samples::hospital();
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]).unwrap();
        let g = t.generalize(&p);
        let mut buf = Vec::new();
        write_generalized_csv(&mut buf, &t, &g).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 11);
        // Adam's row: Age and Education starred, Gender retained.
        assert_eq!(lines[1], "*,M,*,HIV");
        // Eva's row: untouched.
        assert_eq!(lines[5], "\"[30, 50)\",F,Bachelor,pneumonia");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(read_csv("".as_bytes(), None).is_err());
    }

    /// A table over labelled columns `(name, labels)`, the last one the
    /// SA, holding `rows` of codes.
    fn labelled(columns: &[(&str, &[&str])], rows: &[&[Value]]) -> Table {
        let mut attrs: Vec<Attribute> = columns
            .iter()
            .map(|(name, labels)| {
                Attribute::with_labels(*name, labels.iter().map(|l| l.to_string()).collect())
            })
            .collect();
        let sensitive = attrs.pop().unwrap();
        let mut builder = TableBuilder::new(Schema::new(attrs, sensitive).unwrap());
        for row in rows {
            let (sa, qi) = row.split_last().unwrap();
            builder.push_row(qi, *sa).unwrap();
        }
        builder.build()
    }

    fn parse(csv: &[u8]) -> Result<Table, String> {
        read_csv(csv, None).map_err(|e| e.to_string())
    }

    /// The table every spelling of `a,sa / x,p / y,q / x,q` reads as.
    fn xy_table() -> Table {
        labelled(
            &[("a", &["x", "y"]), ("sa", &["p", "q"])],
            &[&[0, 0], &[1, 1], &[0, 1]],
        )
    }

    /// Names and labels holding commas and quotes.
    fn punctuated_table() -> Table {
        labelled(
            &[
                ("home, city", &["Paris, FR", "Oslo \"N\"", "Rome"]),
                ("age", &["30", "40"]),
                ("disease", &["cold, mild", "flu", "\"a\", b"]),
            ],
            &[&[0, 0, 0], &[1, 1, 1], &[2, 0, 2], &[0, 1, 1], &[1, 0, 0]],
        )
    }

    /// Every attribute's name, then every row's labels.
    fn texts(t: &Table) -> Vec<Vec<String>> {
        let schema = t.schema();
        let attrs: Vec<&Attribute> = schema
            .qi_attributes()
            .iter()
            .chain(std::iter::once(schema.sensitive()))
            .collect();
        let mut out = vec![attrs.iter().map(|a| a.name().to_string()).collect()];
        for (_, qi, sa) in t.rows() {
            let row = qi.iter().chain(std::iter::once(&sa));
            out.push(attrs.iter().zip(row).map(|(a, &v)| a.label(v)).collect());
        }
        out
    }

    #[test]
    fn writers_quote_names_and_labels_that_need_it() {
        let t = punctuated_table();
        let mut buf = Vec::new();
        write_table_csv(&mut buf, &t).unwrap();
        assert!(buf.starts_with(b"\"home, city\",age,disease\n\"Paris, FR\",30,\"cold, mild\"\n"));
        assert_eq!(parse(&buf), Ok(t.clone()));

        let p = Partition::new(vec![vec![0, 3], vec![1, 2, 4]]).unwrap();
        let mut buf = Vec::new();
        write_generalized_csv(&mut buf, &t, &t.generalize(&p)).unwrap();
        // Group {0, 3} keeps its city and stars its ages; group {1, 2, 4}
        // stars both.
        let mut expected = texts(&t);
        for (row, starred) in [(0, 1..2), (3, 1..2), (1, 0..2), (2, 0..2), (4, 0..2)] {
            for a in starred {
                expected[row + 1][a] = STAR.to_string();
            }
        }
        assert_eq!(texts(&read_csv(&buf[..], None).unwrap()), expected);
    }

    #[test]
    fn crlf_line_endings_read_like_lf() {
        let csv = b"a,sa\r\nx,p\r\ny,q\r\nx,q\r\n";
        assert_eq!(parse(csv), Ok(xy_table()));
    }

    #[test]
    fn trailing_newline_is_optional() {
        assert_eq!(parse(b"a,sa\nx,p\ny,q\nx,q\n"), Ok(xy_table()));
        assert_eq!(parse(b"a,sa\nx,p\ny,q\nx,q"), Ok(xy_table()));
    }

    #[test]
    fn blank_lines_are_skipped_but_keep_their_line_numbers() {
        assert_eq!(parse(b"a,sa\nx,p\n \t \ny,q\n\nx,q\n"), Ok(xy_table()));
        assert_eq!(
            parse(b"a,sa\nx,p\n   \ny,q\nx\n"),
            Err("csv error: line 5: expected 2 cells, found 1".into())
        );
    }

    #[test]
    fn quoted_cells_mix_with_unquoted_lines() {
        let csv = b"a,sa\n\"x, \"\"y\"\"\",p\nz,q\n \"x, \"\"y\"\"\" , \"q\"\n";
        let expected = labelled(
            &[("a", &["x, \"y\"", "z"]), ("sa", &["p", "q"])],
            &[&[0, 0], &[1, 1], &[0, 1]],
        );
        assert_eq!(parse(csv), Ok(expected));
    }

    #[test]
    fn header_only_input_is_an_empty_table() {
        let expected = labelled(&[("a", &[""]), ("sa", &[""])], &[]);
        assert_eq!(parse(b"a,sa\n"), Ok(expected.clone()));
        assert_eq!(parse(b"a,sa"), Ok(expected));
    }

    #[test]
    fn invalid_utf8_is_reported_wherever_it_is() {
        let err = Err("csv error: stream did not contain valid UTF-8".to_string());
        assert_eq!(parse(b"a\xff,sa\nx,p\n"), err);
        assert_eq!(parse(b"a,sa\nx,p\ny,\xff\n"), err);
        // The whole input is decoded before any line is split.
        assert_eq!(parse(b"a,sa\nx\ny,\xff\n"), err);
    }

    #[test]
    fn a_duplicated_schema_label_codes_as_its_first_code() {
        let schema = Schema::new(
            vec![Attribute::with_labels(
                "a",
                vec!["x".into(), "y".into(), "x".into()],
            )],
            Attribute::with_labels("sa", vec!["p".into(), "q".into()]),
        )
        .unwrap();
        let table = read_csv(&b"a,sa\nx,q\ny,p\n"[..], Some(schema.clone())).unwrap();
        let mut expected = TableBuilder::new(schema);
        expected.push_row(&[0], 1).unwrap();
        expected.push_row(&[1], 0).unwrap();
        assert_eq!(table, expected.build());
    }

    #[test]
    fn raw_codes_are_read_only_for_attributes_without_labels() {
        let schema = Schema::new(
            vec![
                Attribute::with_labels("a", vec!["10".into(), "20".into()]),
                Attribute::new("b", 3),
            ],
            Attribute::with_labels("sa", vec!["p".into(), "q".into()]),
        )
        .unwrap();
        let read =
            |csv: &str| read_csv(csv.as_bytes(), Some(schema.clone())).map_err(|e| e.to_string());
        let table = read("a,b,sa\n20,2,q\n").unwrap();
        assert_eq!((table.qi_row(0), table.sa_value(0)), (&[1, 2][..], 1));
        assert_eq!(
            read("a,b,sa\n1,2,q\n"),
            Err("csv error: cell '1' is not a label of attribute 'a'".into())
        );
        assert_eq!(
            read("a,b,sa\n20,3,q\n"),
            Err("csv error: cell '3' is not an in-domain code for attribute 'b'".into())
        );
    }

    /// Characters of the random cells: spaces (one of them Unicode),
    /// NUL, and two- and three-byte characters, so cells straddle the
    /// 7-byte packing limit in every way.
    const ALPHABET: [char; 8] = ['a', 'b', ' ', '\0', 'é', '日', '\u{3000}', '\t'];

    /// One cell of 0–10 bytes, drawn from the bits of `draw`, and
    /// whether to write it quoted.
    fn random_cell(draw: u64) -> (String, bool) {
        let len = (draw % 11) as usize;
        let quoted = (draw >> 4).is_multiple_of(4);
        let mut bits = draw >> 6;
        let mut cell = String::new();
        while cell.len() < len {
            let c = ALPHABET[(bits % 8) as usize];
            bits = bits.rotate_right(3);
            cell.push(if cell.len() + c.len_utf8() <= len {
                c
            } else {
                'a'
            });
        }
        (cell, quoted)
    }

    /// What the reader must make of `rows`: each cell trimmed (quotes
    /// dropped), each column coded by a linear search of its labels in
    /// order of first appearance.
    fn naive_table(cols: usize, rows: &[Vec<String>]) -> Table {
        let mut labels: Vec<Vec<String>> = vec![Vec::new(); cols];
        let mut coded: Vec<Vec<Value>> = Vec::new();
        for row in rows {
            let mut codes = Vec::new();
            for (column, cell) in row.iter().enumerate() {
                let text = cell.replace('"', "").trim().to_string();
                let known = &mut labels[column];
                let code = match known.iter().position(|label| *label == text) {
                    Some(code) => code,
                    None => {
                        known.push(text);
                        known.len() - 1
                    }
                };
                codes.push(code as Value);
            }
            coded.push(codes);
        }
        let mut attrs: Vec<Attribute> = labels
            .into_iter()
            .enumerate()
            .map(|(column, mut labels)| {
                if labels.is_empty() {
                    labels.push(String::new());
                }
                Attribute::with_labels(format!("c{column}"), labels)
            })
            .collect();
        let sensitive = attrs.pop().unwrap();
        let mut builder = TableBuilder::new(Schema::new(attrs, sensitive).unwrap());
        for codes in &coded {
            builder
                .push_row(&codes[..cols - 1], codes[cols - 1])
                .unwrap();
        }
        builder.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused split-trim-intern loop reads every body as the
        /// naive reference does, whatever the cells' lengths, bytes and
        /// quoting.
        #[test]
        fn interned_cells_match_a_naive_reference(
            cols in 2usize..5,
            draws in proptest::collection::vec(any::<u64>(), 0..240),
        ) {
            let header: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
            let mut body = header.join(",") + "\n";
            let mut rows = Vec::new();
            for line in draws.chunks_exact(cols) {
                let mut row = Vec::new();
                for &draw in line {
                    let (cell, quoted) = random_cell(draw);
                    row.push(if quoted { format!("\"{cell}\"") } else { cell });
                }
                body.push_str(&row.join(","));
                body.push('\n');
                rows.push(row);
            }
            let expected = naive_table(cols, &rows);
            for threads in [1, 2] {
                let parsed = read_csv_with(body.as_bytes(), None, &Executor::new(threads));
                prop_assert_eq!(parsed.as_ref(), Ok(&expected), "body {:?}", body);
            }
        }
    }
}
