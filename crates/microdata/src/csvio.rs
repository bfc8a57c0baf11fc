//! Minimal CSV import/export for microdata tables.
//!
//! The format is deliberately simple: comma-separated with a header line,
//! plus just enough double-quote support to round-trip labels that contain
//! commas (e.g. the paper's age range `[30, 50)`). A cell of an attribute
//! with labels must be one of its labels; a cell of an attribute without
//! labels must be an in-domain integer code.

use crate::{Attribute, MicrodataError, Schema, SuppressedTable, Table, TableBuilder, Value};
use ldiv_exec::Executor;
use std::borrow::Cow;
use std::collections::HashMap;
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
/// order of [`ChunkCodes::firsts`].
type Remap = Vec<Vec<u32>>;

/// One chunk of cells, coded against the chunk's own list of each
/// column's distinct texts: every cell is hashed once, in parallel, and
/// only the distinct texts are then looked up in the schema's labels or
/// added to the inferred ones.
struct ChunkCodes {
    /// Row-major: each cell's position in its column's `firsts`.
    codes: Vec<u32>,
    /// Per column, the chunk position of the first cell of each distinct
    /// text, in order of first appearance.
    firsts: Vec<Vec<usize>>,
}

impl ChunkCodes {
    fn of(cells: &[Cow<'_, str>], cols: usize) -> ChunkCodes {
        let mut index: Vec<LabelIndex<'_>> = vec![LabelIndex::new(); cols];
        let mut firsts: Vec<Vec<usize>> = vec![Vec::new(); cols];
        let mut codes = Vec::with_capacity(cells.len());
        for (r, row) in cells.chunks_exact(cols).enumerate() {
            for (c, cell) in row.iter().enumerate() {
                let code = index[c].entry(cell).or_insert_with(|| {
                    firsts[c].push(r * cols + c);
                    firsts[c].len() as u32 - 1
                });
                codes.push(*code);
            }
        }
        ChunkCodes { codes, firsts }
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
/// The input is read into memory once. Cells borrow from it, except on
/// lines that contain a `"`, which go through [`split_csv_line`]. Two
/// passes fan out over fixed-size line chunks: the first splits lines
/// into cells, the second codes each chunk's cells against the chunk's
/// own list of each column's distinct texts. Those texts are then coded
/// sequentially, chunk by chunk, through one label → code hash index per
/// column: built from the schema's labels when one is given, or grown by
/// inference, which orders each domain by first appearance. Results, and
/// the first error in file order, are identical for every budget.
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
    // messages).
    let body = utf8(bytes.get(header_end + 1..).unwrap_or_default())?;
    let lines: Vec<(usize, &str)> = body
        .split('\n')
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| (i + 2, line))
        .collect();

    // Parallel pass 1: split every line into cells, checking arity. Each
    // chunk stops at its first bad line; taking the first error in chunk
    // order reports exactly the first bad line of the file.
    let split = exec.map_chunks(&lines, PARSE_CHUNK, |chunk| {
        let mut cells: Vec<Cow<'_, str>> = Vec::with_capacity(chunk.len() * cols);
        for &(file_line, line) in chunk {
            let before = cells.len();
            if line.as_bytes().contains(&b'"') {
                cells.extend(split_csv_line(line).into_iter().map(Cow::Owned));
            } else {
                split_unquoted(line, &mut cells);
            }
            let found = cells.len() - before;
            if found != cols {
                return Err(MicrodataError::Csv(format!(
                    "line {file_line}: expected {cols} cells, found {found}"
                )));
            }
        }
        Ok(cells)
    });
    let parts: Vec<Vec<Cow<'_, str>>> = split.into_iter().collect::<Result<_, _>>()?;

    if let Some(s) = &schema {
        if s.dimensionality() + 1 != cols {
            return Err(MicrodataError::Csv(format!(
                "schema has {} columns but the file has {}",
                s.dimensionality() + 1,
                cols
            )));
        }
    }

    // Parallel pass 2: code every cell against its chunk's distinct texts.
    let chunks = exec.map(&parts, |part| ChunkCodes::of(part, cols));

    // Sequential, chunk by chunk: code each chunk's distinct texts
    // through one index per column, built from the schema's labels or by
    // inference, which orders each domain by first appearance.
    let (schema, remaps) = match schema {
        Some(s) => {
            let remaps = code_with_schema(&s, &parts, &chunks)?;
            (s, remaps)
        }
        None => infer_schema(&names, &parts, &chunks)?,
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

/// Splits a line without quotes into borrowed, trimmed cells: what
/// [`split_csv_line`] returns for it, without allocating.
fn split_unquoted<'a>(line: &'a str, cells: &mut Vec<Cow<'a, str>>) {
    let mut start = 0;
    for (i, b) in line.bytes().enumerate() {
        if b == b',' {
            cells.push(Cow::Borrowed(trim(&line[start..i])));
            start = i + 1;
        }
    }
    cells.push(Cow::Borrowed(trim(&line[start..])));
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

/// Quotes a cell when it needs quoting.
fn escape_cell(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Codes every chunk's distinct texts with `code(column, text)`, chunk
/// by chunk in file order. At the first chunk holding a text that `code`
/// rejects, returns the chunk's first bad cell in file order, which is
/// the first appearance of one of its bad texts, and its column.
fn remap_chunks<'a>(
    parts: &'a [Vec<Cow<'_, str>>],
    chunks: &[ChunkCodes],
    mut code: impl FnMut(usize, &'a str) -> Option<u32>,
) -> Result<Vec<Remap>, (&'a str, usize)> {
    let mut remaps = Vec::with_capacity(chunks.len());
    for (part, chunk) in parts.iter().zip(chunks) {
        let cols = chunk.firsts.len();
        let mut first_bad: Option<usize> = None;
        let mut remap = Remap::with_capacity(cols);
        for (column, firsts) in chunk.firsts.iter().enumerate() {
            let mut codes_of = Vec::with_capacity(firsts.len());
            for &pos in firsts {
                codes_of.push(code(column, &part[pos]).unwrap_or_else(|| {
                    first_bad = Some(first_bad.map_or(pos, |bad| bad.min(pos)));
                    0
                }));
            }
            remap.push(codes_of);
        }
        if let Some(pos) = first_bad {
            return Err((&part[pos], pos % cols));
        }
        remaps.push(remap);
    }
    Ok(remaps)
}

/// Infers a labelled schema whose domains list each column's distinct
/// texts in order of first appearance.
fn infer_schema(
    names: &[String],
    parts: &[Vec<Cow<'_, str>>],
    chunks: &[ChunkCodes],
) -> Result<(Schema, Vec<Remap>), MicrodataError> {
    let cols = names.len();
    let mut indexes: Vec<LabelIndex<'_>> = vec![LabelIndex::new(); cols];
    let mut labels: Vec<Vec<String>> = vec![Vec::new(); cols];
    let remaps = remap_chunks(parts, chunks, |c, text| {
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
    parts: &[Vec<Cow<'_, str>>],
    chunks: &[ChunkCodes],
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
    remap_chunks(parts, chunks, |c, text| {
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

/// Writes a table as CSV with labelled cells.
pub fn write_table_csv<W: Write>(mut w: W, table: &Table) -> std::io::Result<()> {
    let schema = table.schema();
    let mut header: Vec<String> = schema
        .qi_attributes()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    header.push(schema.sensitive().name().to_string());
    writeln!(w, "{}", header.join(","))?;
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
    let mut header: Vec<String> = schema
        .qi_attributes()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    header.push(schema.sensitive().name().to_string());
    writeln!(w, "{}", header.join(","))?;

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
}
