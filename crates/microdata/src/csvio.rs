//! Minimal CSV import/export for microdata tables.
//!
//! The format is deliberately simple: comma-separated with a header line,
//! plus just enough double-quote support to round-trip labels that contain
//! commas (e.g. the paper's age range `[30, 50)`). Cells are matched against
//! attribute labels first and fall back to integer codes.

use crate::{Attribute, MicrodataError, Schema, SuppressedTable, Table, TableBuilder, Value};
use ldiv_exec::Executor;
use std::io::{BufRead, Write};

/// Lines per parallel parsing chunk. Fixed (never derived from the
/// thread count) so the decomposition — and the first error reported —
/// is identical for every budget.
const PARSE_CHUNK: usize = 4_096;

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
/// I/O and schema inference stay sequential (inference orders each
/// domain by first appearance, which is inherently a scan); the two
/// per-line passes — cell splitting and label-to-code parsing — fan out
/// over fixed-size line chunks. Results (and the first error, in file
/// order) are identical for every budget.
pub fn read_csv_with<R: BufRead>(
    reader: R,
    schema: Option<Schema>,
    exec: &Executor,
) -> Result<Table, MicrodataError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| MicrodataError::Csv("empty input".into()))?
        .map_err(|e| MicrodataError::Csv(e.to_string()))?;
    let names: Vec<String> = split_csv_line(&header);
    if names.len() < 2 {
        return Err(MicrodataError::Csv(
            "need at least one QI column and one SA column".into(),
        ));
    }

    // Sequential I/O: collect the non-empty data lines with their file
    // line numbers (for error messages).
    let mut raw_lines: Vec<(usize, String)> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(|e| MicrodataError::Csv(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        raw_lines.push((lineno + 2, line));
    }

    // Parallel pass 1: split every line into cells, checking arity. Each
    // chunk stops at its first bad line; taking the first error in chunk
    // order reports exactly the first bad line of the file.
    let split: Vec<Result<Vec<Vec<String>>, MicrodataError>> =
        exec.map_chunks(&raw_lines, PARSE_CHUNK, |chunk| {
            chunk
                .iter()
                .map(|(file_line, line)| {
                    let cells = split_csv_line(line);
                    if cells.len() != names.len() {
                        return Err(MicrodataError::Csv(format!(
                            "line {}: expected {} cells, found {}",
                            file_line,
                            names.len(),
                            cells.len()
                        )));
                    }
                    Ok(cells)
                })
                .collect()
        });
    let mut raw_rows: Vec<Vec<String>> = Vec::with_capacity(raw_lines.len());
    for part in split {
        raw_rows.extend(part?);
    }

    let schema = match schema {
        Some(s) => {
            if s.dimensionality() + 1 != names.len() {
                return Err(MicrodataError::Csv(format!(
                    "schema has {} columns but the file has {}",
                    s.dimensionality() + 1,
                    names.len()
                )));
            }
            s
        }
        None => infer_schema(&names, &raw_rows)?,
    };

    // Parallel pass 2: code every cell against the schema.
    type CodedChunk = Result<Vec<(Vec<Value>, Value)>, MicrodataError>;
    let d = schema.dimensionality();
    let schema_ref = &schema;
    let coded: Vec<CodedChunk> = exec.map_chunks(&raw_rows, PARSE_CHUNK, |chunk| {
        chunk
            .iter()
            .map(|cells| {
                let mut qi = vec![0 as Value; d];
                for (i, cell) in cells[..d].iter().enumerate() {
                    qi[i] = parse_cell(schema_ref.qi_attribute(i), cell)?;
                }
                let sa = parse_cell(schema_ref.sensitive(), &cells[d])?;
                Ok((qi, sa))
            })
            .collect()
    });
    let mut builder = TableBuilder::with_capacity(schema.clone(), raw_rows.len());
    for part in coded {
        for (qi, sa) in part? {
            builder.push_row(&qi, sa)?;
        }
    }
    Ok(builder.build())
}

/// Splits one CSV line into trimmed cells, honouring double-quoted cells
/// (`""` escapes a quote). The reader uses it for every line; the
/// dataset store uses it to check an append batch's header.
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

fn infer_schema(names: &[String], rows: &[Vec<String>]) -> Result<Schema, MicrodataError> {
    let cols = names.len();
    let mut labels: Vec<Vec<String>> = vec![Vec::new(); cols];
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            if !labels[c].contains(cell) {
                labels[c].push(cell.clone());
            }
        }
    }
    let mut attrs: Vec<Attribute> = names
        .iter()
        .zip(labels)
        .map(|(n, ls)| {
            // An all-empty column still needs a non-empty domain.
            let ls = if ls.is_empty() {
                vec![String::new()]
            } else {
                ls
            };
            Attribute::with_labels(n.clone(), ls)
        })
        .collect();
    let sensitive = attrs.pop().expect("checked >= 2 columns");
    Schema::new(attrs, sensitive)
}

fn parse_cell(attr: &Attribute, cell: &str) -> Result<Value, MicrodataError> {
    if let Some(code) = attr.code_of(cell) {
        return Ok(code);
    }
    match cell.parse::<u32>() {
        Ok(v) if v < attr.domain_size() => Ok(v as Value),
        _ => Err(MicrodataError::Csv(format!(
            "cell '{}' is not a label or in-domain code for attribute '{}'",
            cell,
            attr.name()
        ))),
    }
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
}
