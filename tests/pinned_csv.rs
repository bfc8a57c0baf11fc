//! The CSV reader's output pinned by digest.
//!
//! `read_csv_with` is a pure function of its bytes and schema, and its
//! result does not depend on the thread budget. Each line below holds,
//! for one case at one budget (1, 2 or 8 threads), either an FNV-1a
//! digest of the parsed table (its fingerprint, then every attribute's
//! name, domain size and label list) or the exact error string.
//!
//! The cases cover generated SAL/OCC bodies of 5 000 and 9 000 rows (so
//! some cross the reader's 4 096-line chunk boundary twice), line and
//! cell spellings (CRLF, blank and whitespace-only lines, padding, empty
//! cells, cells around 7 bytes, multibyte and NUL bytes, quoting) and
//! every error the reader reports, including which one wins when a body
//! holds several. A change to the reader that alters any table or error,
//! however slightly, changes a line.

use ldiversity::datagen::{occ, sal, AcsConfig};
use ldiversity::microdata::{read_csv_with, write_table_csv, Attribute, Fnv1a, Schema, Table};
use ldiversity::Executor;

const THREADS: [u32; 3] = [1, 2, 8];

struct Case {
    name: String,
    body: Vec<u8>,
    schema: Option<Schema>,
}

fn case(name: &str, body: impl Into<Vec<u8>>, schema: Option<Schema>) -> Case {
    Case {
        name: name.to_string(),
        body: body.into(),
        schema,
    }
}

fn csv_of(table: &Table) -> Vec<u8> {
    let mut csv = Vec::new();
    write_table_csv(&mut csv, table).unwrap();
    csv
}

/// `body` with its 1-based file line `line` (the header is line 1)
/// replaced by `edit` of it.
fn edit_line(body: &[u8], line: usize, edit: impl Fn(&str) -> String) -> Vec<u8> {
    let text = std::str::from_utf8(body).unwrap();
    let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
    lines[line - 1] = edit(&lines[line - 1]);
    lines.join("\n").into_bytes()
}

/// `body` with a byte of its last line replaced by one that is never
/// valid UTF-8.
fn invalid_last_line(mut body: Vec<u8>) -> Vec<u8> {
    let at = body.len() - 3;
    body[at] = 0xff;
    body
}

/// Drops a line's last cell.
fn ragged(line: &str) -> String {
    line[..line.rfind(',').unwrap()].to_string()
}

/// Replaces a line's cell `column` with `cell`.
fn with_cell(column: usize, cell: &'static str) -> impl Fn(&str) -> String {
    move |line| {
        let mut cells: Vec<&str> = line.split(',').collect();
        cells[column] = cell;
        cells.join(",")
    }
}

fn schema(qi: Vec<Attribute>, sensitive: Attribute) -> Option<Schema> {
    Some(Schema::new(qi, sensitive).unwrap())
}

fn labels(name: &str, labels: &[&str]) -> Attribute {
    Attribute::with_labels(name, labels.iter().map(|l| l.to_string()).collect())
}

/// `a` labelled `10`, `20`, `1`; `b` raw codes `0..3`; `sa` labelled.
fn mixed_schema() -> Option<Schema> {
    schema(
        vec![labels("a", &["10", "20", "1"]), Attribute::new("b", 3)],
        labels("sa", &["p", "q"]),
    )
}

/// One column of `distinct` different labels beside a two-valued SA.
fn wide_column(distinct: usize) -> Vec<u8> {
    let mut body = String::from("a,sa\n");
    for i in 0..distinct {
        body.push_str(&format!("k{i},{}\n", if i % 2 == 0 { "p" } else { "q" }));
    }
    body.into_bytes()
}

fn generated() -> Vec<(String, Table)> {
    let mut tables = Vec::new();
    for seed in 1..=10 {
        for rows in [5_000, 9_000] {
            let acs = AcsConfig { rows, seed };
            tables.push((format!("sal-{rows}-s{seed}"), sal(&acs)));
            tables.push((format!("occ-{rows}-s{seed}"), occ(&acs)));
        }
    }
    tables
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let tables = generated();
    for (name, table) in &tables {
        cases.push(case(name, csv_of(table), None));
    }

    // Line spellings.
    cases.push(case("crlf", "a,b,sa\r\nx,1,p\r\ny,2,q\r\nx,2,q\r\n", None));
    cases.push(case(
        "crlf-no-final-newline",
        "a,b,sa\r\nx,1,p\r\ny,2,q",
        None,
    ));
    cases.push(case(
        "blank-lines",
        "a,sa\n\nx,p\n \t \ny,q\n\u{3000}\n\u{a0}\u{2003}\n\u{85}\n\r\nx,q\n\r\n",
        None,
    ));
    cases.push(case("no-trailing-newline", "a,b,sa\nx,1,p\ny,2,q", None));
    cases.push(case("header-only", "a,sa", None));
    cases.push(case("header-only-lf", "a,sa\n", None));
    cases.push(case("header-only-crlf", "a,sa\r\n", None));

    // Cell spellings.
    cases.push(case(
        "padded-cells",
        "a , b ,sa\n  x , 1 ,p  \n\ty\t,\t2\t,\tq\t\n\u{a0}x\u{a0},\u{3000}1,p\u{2003}\nx,1,p\u{85}\n",
        None,
    ));
    cases.push(case(
        "empty-cells",
        "a,b,sa\n,,\nx,,p\n,1,\n , ,  \n\"\",x,\n",
        None,
    ));
    cases.push(case(
        "cells-6-to-9-bytes",
        "a,b,sa\nabcdef,abcdefg,p\nabcdefgh,abcdefghi,q\nabcdefg,abcdef,p\n\
         abcdefghi,abcdefgh,q\nabcdefg ,  abcdefgh,p\nabcdefh,abcdefgi,q\n",
        None,
    ));
    cases.push(case(
        "multibyte-near-7-bytes",
        "a,b,sa\nééé,éééa,p\naééé,éééé,q\n日本a,日本語,p\n😀😀,a😀,q\n\
         ab😀b,abcdeé,p\nabcdefé,abcde日,q\néééa,ééé,p\n日本語,日本a,q\n",
        None,
    ));
    cases.push(case(
        "nul-bytes",
        "a,b,sa\na,a\0,p\na\0,a,q\n\0,\0a,p\na\0\0,,q\n\
         a\0\0\0\0\0\0,a\0\0\0\0\0\0\0,p\na\0\0\0\0\0\0\0,a\0\0\0\0\0\0,q\n,\0,p\n",
        None,
    ));
    cases.push(case(
        "quoted-and-unquoted",
        "a,sa\n\"x\",p\nx,q\n\"x\",\"q\"\n\" x \",p\n\"x,y\",q\n\"\",p\n,p\n\
         \"a\"\"b\",q\n\"abcdefgh\",q\nabcdefgh,\"p\"\n",
        None,
    ));
    cases.push(case("unbalanced-quote", "a,sa\nx,p\na\"b,p\n", None));
    cases.push(case("one-column", "a\nx\n", None));
    cases.push(case("empty-input", "", None));

    // Errors, and which one a body with several reports.
    let base = csv_of(&tables.iter().find(|(n, _)| n == "sal-9000-s1").unwrap().1);
    let own_schema = read_csv_with(&base[..], None, &Executor::sequential())
        .unwrap()
        .schema()
        .clone();
    cases.push(case("utf8-header", &b"a\xff,sa\nx,p\n"[..], None));
    cases.push(case(
        "utf8-late-line",
        invalid_last_line(base.clone()),
        None,
    ));
    cases.push(case(
        "utf8-late-line-after-ragged",
        invalid_last_line(edit_line(&base, 50, ragged)),
        None,
    ));
    cases.push(case("ragged-chunk-1", edit_line(&base, 100, ragged), None));
    cases.push(case(
        "ragged-chunk-3",
        edit_line(&base, 8_500, ragged),
        None,
    ));
    cases.push(case(
        "ragged-chunks-1-and-3",
        edit_line(&edit_line(&base, 8_500, ragged), 3_000, ragged),
        None,
    ));
    cases.push(case(
        "extra-cell",
        edit_line(&base, 4_200, |l| format!("{l},x")),
        None,
    ));
    cases.push(case(
        "bad-label-before-ragged",
        "a,b,sa\nzz,2,q\n20,2\n",
        mixed_schema(),
    ));
    cases.push(case(
        "bad-label-chunk-1-ragged-chunk-3",
        edit_line(&edit_line(&base, 50, with_cell(0, "zz")), 8_500, ragged),
        Some(own_schema.clone()),
    ));
    cases.push(case(
        "bad-label-chunk-3",
        edit_line(&base, 8_500, with_cell(3, "zz")),
        Some(own_schema.clone()),
    ));
    cases.push(case(
        "bad-labels-chunks-1-and-3",
        edit_line(
            &edit_line(&base, 8_500, with_cell(0, "zz")),
            3_000,
            with_cell(7, "yy"),
        ),
        Some(own_schema.clone()),
    ));
    cases.push(case(
        "bad-labels-later-column-first",
        edit_line(
            &edit_line(&base, 20, with_cell(5, "zz")),
            21,
            with_cell(0, "yy"),
        ),
        Some(own_schema.clone()),
    ));
    cases.push(case(
        "bad-labels-same-line",
        edit_line(&base, 20, |l| with_cell(0, "yy")(&with_cell(5, "zz")(l))),
        Some(own_schema.clone()),
    ));
    cases.push(case("own-schema", base.clone(), Some(own_schema)));
    cases.push(case(
        "raw-code-schema",
        base.clone(),
        Some(sal(&AcsConfig { rows: 1, seed: 1 }).schema().clone()),
    ));
    cases.push(case(
        "raw-code-schema-out-of-domain",
        edit_line(&base, 6_000, with_cell(1, "999")),
        Some(sal(&AcsConfig { rows: 1, seed: 1 }).schema().clone()),
    ));
    cases.push(case(
        "schema-mismatch",
        "a,b,c,sa\n10,1,x,p\n",
        mixed_schema(),
    ));
    cases.push(case(
        "schema-mismatch-after-ragged",
        "a,b,c,sa\n10,1,x,p\n10,1\n",
        mixed_schema(),
    ));
    cases.push(case(
        "schema-mismatch-before-bad-label",
        "a,b,c,sa\nzz,1,x,p\n",
        mixed_schema(),
    ));
    for (name, body) in [
        ("mixed-ok", "a,b,sa\n20,2,q\n10, 0 ,p\n1,1,p\n"),
        ("mixed-bad-label", "a,b,sa\nzz,2,q\n"),
        ("mixed-labelled-out-of-domain", "a,b,sa\n30,2,q\n"),
        ("mixed-labelled-plus", "a,b,sa\n+1,2,q\n"),
        ("mixed-labelled-leading-zero", "a,b,sa\n01,2,q\n"),
        ("mixed-raw-out-of-domain", "a,b,sa\n20,3,q\n"),
        ("mixed-raw-plus", "a,b,sa\n20,+1,q\n"),
        ("mixed-raw-leading-zero", "a,b,sa\n20,01,q\n"),
        ("mixed-raw-negative", "a,b,sa\n20,-1,q\n"),
        ("mixed-raw-empty", "a,b,sa\n20,,q\n"),
        ("mixed-raw-word", "a,b,sa\n20,x,q\n"),
        ("mixed-raw-huge", "a,b,sa\n20,4294967296,q\n"),
        ("mixed-sa-unknown", "a,b,sa\n20,2,r\n"),
        (
            "mixed-bad-in-later-row",
            "a,b,sa\n20,2,q\n10,1,p\n10,1,pp\n",
        ),
        (
            "mixed-padded",
            "a,b,sa\n 20 ,\t2\t,q\u{3000}\n\"10\",\"1\",\"p\"\n",
        ),
    ] {
        cases.push(case(name, body, mixed_schema()));
    }
    cases.push(case(
        "duplicated-schema-label",
        "a,sa\nx,q\ny,p\nx,p\n",
        schema(
            vec![labels("a", &["x", "y", "x"])],
            labels("sa", &["p", "q"]),
        ),
    ));
    cases.push(case("labels-65536", wide_column(65_536), None));
    cases.push(case("labels-65537", wide_column(65_537), None));
    cases
}

fn digest(table: &Table) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(&table.fingerprint().to_le_bytes());
    let schema = table.schema();
    for attr in schema
        .qi_attributes()
        .iter()
        .chain(std::iter::once(schema.sensitive()))
    {
        h.write_str(attr.name()).write_u32(attr.domain_size());
        for code in 0..attr.domain_size() {
            h.write_str(&attr.label(code as u16));
        }
    }
    h.finish()
}

fn results() -> Vec<String> {
    let mut lines = Vec::new();
    for case in cases() {
        for threads in THREADS {
            let parsed =
                read_csv_with(&case.body[..], case.schema.clone(), &Executor::new(threads));
            let result = match parsed {
                Ok(table) => format!("{:016x}", digest(&table)),
                Err(e) => format!("error {:?}", e.to_string()),
            };
            lines.push(format!("{}@{threads} {result}", case.name));
        }
    }
    lines
}

/// Generated from the reader that split each chunk into a cell buffer
/// and then hashed every cell into a per-chunk text index.
const PINNED: &str = r#"sal-5000-s1@1 3d8e9e987bc28251
sal-5000-s1@2 3d8e9e987bc28251
sal-5000-s1@8 3d8e9e987bc28251
occ-5000-s1@1 74b1a6b5455864c2
occ-5000-s1@2 74b1a6b5455864c2
occ-5000-s1@8 74b1a6b5455864c2
sal-9000-s1@1 c9d7ed6031071315
sal-9000-s1@2 c9d7ed6031071315
sal-9000-s1@8 c9d7ed6031071315
occ-9000-s1@1 e9d72c2670ba467f
occ-9000-s1@2 e9d72c2670ba467f
occ-9000-s1@8 e9d72c2670ba467f
sal-5000-s2@1 23399863e64c8d9a
sal-5000-s2@2 23399863e64c8d9a
sal-5000-s2@8 23399863e64c8d9a
occ-5000-s2@1 8732458f9d92efaf
occ-5000-s2@2 8732458f9d92efaf
occ-5000-s2@8 8732458f9d92efaf
sal-9000-s2@1 f23d4e4248f88438
sal-9000-s2@2 f23d4e4248f88438
sal-9000-s2@8 f23d4e4248f88438
occ-9000-s2@1 1524766f44bd2394
occ-9000-s2@2 1524766f44bd2394
occ-9000-s2@8 1524766f44bd2394
sal-5000-s3@1 14ef310ae2a23210
sal-5000-s3@2 14ef310ae2a23210
sal-5000-s3@8 14ef310ae2a23210
occ-5000-s3@1 3124ee620cdac897
occ-5000-s3@2 3124ee620cdac897
occ-5000-s3@8 3124ee620cdac897
sal-9000-s3@1 dfbb5522a282ce7e
sal-9000-s3@2 dfbb5522a282ce7e
sal-9000-s3@8 dfbb5522a282ce7e
occ-9000-s3@1 79f0cbfd8a2cbd1d
occ-9000-s3@2 79f0cbfd8a2cbd1d
occ-9000-s3@8 79f0cbfd8a2cbd1d
sal-5000-s4@1 040cb2a5452e9eea
sal-5000-s4@2 040cb2a5452e9eea
sal-5000-s4@8 040cb2a5452e9eea
occ-5000-s4@1 d64c6583e4d2d0cd
occ-5000-s4@2 d64c6583e4d2d0cd
occ-5000-s4@8 d64c6583e4d2d0cd
sal-9000-s4@1 84c5ab77529a240f
sal-9000-s4@2 84c5ab77529a240f
sal-9000-s4@8 84c5ab77529a240f
occ-9000-s4@1 0f8a6bc3b120d9ec
occ-9000-s4@2 0f8a6bc3b120d9ec
occ-9000-s4@8 0f8a6bc3b120d9ec
sal-5000-s5@1 cd8f771306a3bc01
sal-5000-s5@2 cd8f771306a3bc01
sal-5000-s5@8 cd8f771306a3bc01
occ-5000-s5@1 7a6fa9551a81bf1c
occ-5000-s5@2 7a6fa9551a81bf1c
occ-5000-s5@8 7a6fa9551a81bf1c
sal-9000-s5@1 8d5b682f804539dc
sal-9000-s5@2 8d5b682f804539dc
sal-9000-s5@8 8d5b682f804539dc
occ-9000-s5@1 1699434b34d9c312
occ-9000-s5@2 1699434b34d9c312
occ-9000-s5@8 1699434b34d9c312
sal-5000-s6@1 30d7c843b39462e1
sal-5000-s6@2 30d7c843b39462e1
sal-5000-s6@8 30d7c843b39462e1
occ-5000-s6@1 5197ae65374bbd11
occ-5000-s6@2 5197ae65374bbd11
occ-5000-s6@8 5197ae65374bbd11
sal-9000-s6@1 dd3ef9dfe1349b89
sal-9000-s6@2 dd3ef9dfe1349b89
sal-9000-s6@8 dd3ef9dfe1349b89
occ-9000-s6@1 87af52f1da149f01
occ-9000-s6@2 87af52f1da149f01
occ-9000-s6@8 87af52f1da149f01
sal-5000-s7@1 22ac7bbd8bdf0643
sal-5000-s7@2 22ac7bbd8bdf0643
sal-5000-s7@8 22ac7bbd8bdf0643
occ-5000-s7@1 9b11d4d5d443d951
occ-5000-s7@2 9b11d4d5d443d951
occ-5000-s7@8 9b11d4d5d443d951
sal-9000-s7@1 c9581f96654673e5
sal-9000-s7@2 c9581f96654673e5
sal-9000-s7@8 c9581f96654673e5
occ-9000-s7@1 4c2df1d36d0ec802
occ-9000-s7@2 4c2df1d36d0ec802
occ-9000-s7@8 4c2df1d36d0ec802
sal-5000-s8@1 31d9dbee1c542323
sal-5000-s8@2 31d9dbee1c542323
sal-5000-s8@8 31d9dbee1c542323
occ-5000-s8@1 638d13e99496d11d
occ-5000-s8@2 638d13e99496d11d
occ-5000-s8@8 638d13e99496d11d
sal-9000-s8@1 fd22410cf7ffa480
sal-9000-s8@2 fd22410cf7ffa480
sal-9000-s8@8 fd22410cf7ffa480
occ-9000-s8@1 e8b5a2fdc4d35504
occ-9000-s8@2 e8b5a2fdc4d35504
occ-9000-s8@8 e8b5a2fdc4d35504
sal-5000-s9@1 52e17dfae6c4da9f
sal-5000-s9@2 52e17dfae6c4da9f
sal-5000-s9@8 52e17dfae6c4da9f
occ-5000-s9@1 4ce33e069541b90a
occ-5000-s9@2 4ce33e069541b90a
occ-5000-s9@8 4ce33e069541b90a
sal-9000-s9@1 2de0bd5cfed8064a
sal-9000-s9@2 2de0bd5cfed8064a
sal-9000-s9@8 2de0bd5cfed8064a
occ-9000-s9@1 ac225d3fb7b23b83
occ-9000-s9@2 ac225d3fb7b23b83
occ-9000-s9@8 ac225d3fb7b23b83
sal-5000-s10@1 9dd05e86403161d5
sal-5000-s10@2 9dd05e86403161d5
sal-5000-s10@8 9dd05e86403161d5
occ-5000-s10@1 69af3a39526361f1
occ-5000-s10@2 69af3a39526361f1
occ-5000-s10@8 69af3a39526361f1
sal-9000-s10@1 499356e96076d0f3
sal-9000-s10@2 499356e96076d0f3
sal-9000-s10@8 499356e96076d0f3
occ-9000-s10@1 d9dab798a33cde6b
occ-9000-s10@2 d9dab798a33cde6b
occ-9000-s10@8 d9dab798a33cde6b
crlf@1 da89b1cc871c1071
crlf@2 da89b1cc871c1071
crlf@8 da89b1cc871c1071
crlf-no-final-newline@1 0847af02a7a3dd60
crlf-no-final-newline@2 0847af02a7a3dd60
crlf-no-final-newline@8 0847af02a7a3dd60
blank-lines@1 ad976845daa34e76
blank-lines@2 ad976845daa34e76
blank-lines@8 ad976845daa34e76
no-trailing-newline@1 0847af02a7a3dd60
no-trailing-newline@2 0847af02a7a3dd60
no-trailing-newline@8 0847af02a7a3dd60
header-only@1 3cb6c1a0ac0e2742
header-only@2 3cb6c1a0ac0e2742
header-only@8 3cb6c1a0ac0e2742
header-only-lf@1 3cb6c1a0ac0e2742
header-only-lf@2 3cb6c1a0ac0e2742
header-only-lf@8 3cb6c1a0ac0e2742
header-only-crlf@1 3cb6c1a0ac0e2742
header-only-crlf@2 3cb6c1a0ac0e2742
header-only-crlf@8 3cb6c1a0ac0e2742
padded-cells@1 93bca9e3e88b93d4
padded-cells@2 93bca9e3e88b93d4
padded-cells@8 93bca9e3e88b93d4
empty-cells@1 3eeb354c7120467b
empty-cells@2 3eeb354c7120467b
empty-cells@8 3eeb354c7120467b
cells-6-to-9-bytes@1 7e77e8aa215d2a2e
cells-6-to-9-bytes@2 7e77e8aa215d2a2e
cells-6-to-9-bytes@8 7e77e8aa215d2a2e
multibyte-near-7-bytes@1 df2914f34b451079
multibyte-near-7-bytes@2 df2914f34b451079
multibyte-near-7-bytes@8 df2914f34b451079
nul-bytes@1 2fe8f965f1c30618
nul-bytes@2 2fe8f965f1c30618
nul-bytes@8 2fe8f965f1c30618
quoted-and-unquoted@1 dd5c8ac509e89cd2
quoted-and-unquoted@2 dd5c8ac509e89cd2
quoted-and-unquoted@8 dd5c8ac509e89cd2
unbalanced-quote@1 error "csv error: line 3: expected 2 cells, found 1"
unbalanced-quote@2 error "csv error: line 3: expected 2 cells, found 1"
unbalanced-quote@8 error "csv error: line 3: expected 2 cells, found 1"
one-column@1 error "csv error: need at least one QI column and one SA column"
one-column@2 error "csv error: need at least one QI column and one SA column"
one-column@8 error "csv error: need at least one QI column and one SA column"
empty-input@1 error "csv error: empty input"
empty-input@2 error "csv error: empty input"
empty-input@8 error "csv error: empty input"
utf8-header@1 error "csv error: stream did not contain valid UTF-8"
utf8-header@2 error "csv error: stream did not contain valid UTF-8"
utf8-header@8 error "csv error: stream did not contain valid UTF-8"
utf8-late-line@1 error "csv error: stream did not contain valid UTF-8"
utf8-late-line@2 error "csv error: stream did not contain valid UTF-8"
utf8-late-line@8 error "csv error: stream did not contain valid UTF-8"
utf8-late-line-after-ragged@1 error "csv error: stream did not contain valid UTF-8"
utf8-late-line-after-ragged@2 error "csv error: stream did not contain valid UTF-8"
utf8-late-line-after-ragged@8 error "csv error: stream did not contain valid UTF-8"
ragged-chunk-1@1 error "csv error: line 100: expected 8 cells, found 7"
ragged-chunk-1@2 error "csv error: line 100: expected 8 cells, found 7"
ragged-chunk-1@8 error "csv error: line 100: expected 8 cells, found 7"
ragged-chunk-3@1 error "csv error: line 8500: expected 8 cells, found 7"
ragged-chunk-3@2 error "csv error: line 8500: expected 8 cells, found 7"
ragged-chunk-3@8 error "csv error: line 8500: expected 8 cells, found 7"
ragged-chunks-1-and-3@1 error "csv error: line 3000: expected 8 cells, found 7"
ragged-chunks-1-and-3@2 error "csv error: line 3000: expected 8 cells, found 7"
ragged-chunks-1-and-3@8 error "csv error: line 3000: expected 8 cells, found 7"
extra-cell@1 error "csv error: line 4200: expected 8 cells, found 9"
extra-cell@2 error "csv error: line 4200: expected 8 cells, found 9"
extra-cell@8 error "csv error: line 4200: expected 8 cells, found 9"
bad-label-before-ragged@1 error "csv error: line 3: expected 3 cells, found 2"
bad-label-before-ragged@2 error "csv error: line 3: expected 3 cells, found 2"
bad-label-before-ragged@8 error "csv error: line 3: expected 3 cells, found 2"
bad-label-chunk-1-ragged-chunk-3@1 error "csv error: line 8500: expected 8 cells, found 7"
bad-label-chunk-1-ragged-chunk-3@2 error "csv error: line 8500: expected 8 cells, found 7"
bad-label-chunk-1-ragged-chunk-3@8 error "csv error: line 8500: expected 8 cells, found 7"
bad-label-chunk-3@1 error "csv error: cell 'zz' is not a label of attribute 'Marital Status'"
bad-label-chunk-3@2 error "csv error: cell 'zz' is not a label of attribute 'Marital Status'"
bad-label-chunk-3@8 error "csv error: cell 'zz' is not a label of attribute 'Marital Status'"
bad-labels-chunks-1-and-3@1 error "csv error: cell 'yy' is not a label of attribute 'Income'"
bad-labels-chunks-1-and-3@2 error "csv error: cell 'yy' is not a label of attribute 'Income'"
bad-labels-chunks-1-and-3@8 error "csv error: cell 'yy' is not a label of attribute 'Income'"
bad-labels-later-column-first@1 error "csv error: cell 'zz' is not a label of attribute 'Education'"
bad-labels-later-column-first@2 error "csv error: cell 'zz' is not a label of attribute 'Education'"
bad-labels-later-column-first@8 error "csv error: cell 'zz' is not a label of attribute 'Education'"
bad-labels-same-line@1 error "csv error: cell 'yy' is not a label of attribute 'Age'"
bad-labels-same-line@2 error "csv error: cell 'yy' is not a label of attribute 'Age'"
bad-labels-same-line@8 error "csv error: cell 'yy' is not a label of attribute 'Age'"
own-schema@1 c9d7ed6031071315
own-schema@2 c9d7ed6031071315
own-schema@8 c9d7ed6031071315
raw-code-schema@1 6872bae52293920e
raw-code-schema@2 6872bae52293920e
raw-code-schema@8 6872bae52293920e
raw-code-schema-out-of-domain@1 error "csv error: cell '999' is not an in-domain code for attribute 'Gender'"
raw-code-schema-out-of-domain@2 error "csv error: cell '999' is not an in-domain code for attribute 'Gender'"
raw-code-schema-out-of-domain@8 error "csv error: cell '999' is not an in-domain code for attribute 'Gender'"
schema-mismatch@1 error "csv error: schema has 3 columns but the file has 4"
schema-mismatch@2 error "csv error: schema has 3 columns but the file has 4"
schema-mismatch@8 error "csv error: schema has 3 columns but the file has 4"
schema-mismatch-after-ragged@1 error "csv error: line 3: expected 4 cells, found 2"
schema-mismatch-after-ragged@2 error "csv error: line 3: expected 4 cells, found 2"
schema-mismatch-after-ragged@8 error "csv error: line 3: expected 4 cells, found 2"
schema-mismatch-before-bad-label@1 error "csv error: schema has 3 columns but the file has 4"
schema-mismatch-before-bad-label@2 error "csv error: schema has 3 columns but the file has 4"
schema-mismatch-before-bad-label@8 error "csv error: schema has 3 columns but the file has 4"
mixed-ok@1 a59a37c21114122f
mixed-ok@2 a59a37c21114122f
mixed-ok@8 a59a37c21114122f
mixed-bad-label@1 error "csv error: cell 'zz' is not a label of attribute 'a'"
mixed-bad-label@2 error "csv error: cell 'zz' is not a label of attribute 'a'"
mixed-bad-label@8 error "csv error: cell 'zz' is not a label of attribute 'a'"
mixed-labelled-out-of-domain@1 error "csv error: cell '30' is not a label of attribute 'a'"
mixed-labelled-out-of-domain@2 error "csv error: cell '30' is not a label of attribute 'a'"
mixed-labelled-out-of-domain@8 error "csv error: cell '30' is not a label of attribute 'a'"
mixed-labelled-plus@1 error "csv error: cell '+1' is not a label of attribute 'a'"
mixed-labelled-plus@2 error "csv error: cell '+1' is not a label of attribute 'a'"
mixed-labelled-plus@8 error "csv error: cell '+1' is not a label of attribute 'a'"
mixed-labelled-leading-zero@1 error "csv error: cell '01' is not a label of attribute 'a'"
mixed-labelled-leading-zero@2 error "csv error: cell '01' is not a label of attribute 'a'"
mixed-labelled-leading-zero@8 error "csv error: cell '01' is not a label of attribute 'a'"
mixed-raw-out-of-domain@1 error "csv error: cell '3' is not an in-domain code for attribute 'b'"
mixed-raw-out-of-domain@2 error "csv error: cell '3' is not an in-domain code for attribute 'b'"
mixed-raw-out-of-domain@8 error "csv error: cell '3' is not an in-domain code for attribute 'b'"
mixed-raw-plus@1 cd0c89d93c880fb0
mixed-raw-plus@2 cd0c89d93c880fb0
mixed-raw-plus@8 cd0c89d93c880fb0
mixed-raw-leading-zero@1 cd0c89d93c880fb0
mixed-raw-leading-zero@2 cd0c89d93c880fb0
mixed-raw-leading-zero@8 cd0c89d93c880fb0
mixed-raw-negative@1 error "csv error: cell '-1' is not an in-domain code for attribute 'b'"
mixed-raw-negative@2 error "csv error: cell '-1' is not an in-domain code for attribute 'b'"
mixed-raw-negative@8 error "csv error: cell '-1' is not an in-domain code for attribute 'b'"
mixed-raw-empty@1 error "csv error: cell '' is not an in-domain code for attribute 'b'"
mixed-raw-empty@2 error "csv error: cell '' is not an in-domain code for attribute 'b'"
mixed-raw-empty@8 error "csv error: cell '' is not an in-domain code for attribute 'b'"
mixed-raw-word@1 error "csv error: cell 'x' is not an in-domain code for attribute 'b'"
mixed-raw-word@2 error "csv error: cell 'x' is not an in-domain code for attribute 'b'"
mixed-raw-word@8 error "csv error: cell 'x' is not an in-domain code for attribute 'b'"
mixed-raw-huge@1 error "csv error: cell '4294967296' is not an in-domain code for attribute 'b'"
mixed-raw-huge@2 error "csv error: cell '4294967296' is not an in-domain code for attribute 'b'"
mixed-raw-huge@8 error "csv error: cell '4294967296' is not an in-domain code for attribute 'b'"
mixed-sa-unknown@1 error "csv error: cell 'r' is not a label of attribute 'sa'"
mixed-sa-unknown@2 error "csv error: cell 'r' is not a label of attribute 'sa'"
mixed-sa-unknown@8 error "csv error: cell 'r' is not a label of attribute 'sa'"
mixed-bad-in-later-row@1 error "csv error: cell 'pp' is not a label of attribute 'sa'"
mixed-bad-in-later-row@2 error "csv error: cell 'pp' is not a label of attribute 'sa'"
mixed-bad-in-later-row@8 error "csv error: cell 'pp' is not a label of attribute 'sa'"
mixed-padded@1 3df68d486697092e
mixed-padded@2 3df68d486697092e
mixed-padded@8 3df68d486697092e
duplicated-schema-label@1 0a6d458826ac54cc
duplicated-schema-label@2 0a6d458826ac54cc
duplicated-schema-label@8 0a6d458826ac54cc
labels-65536@1 18ab27a88acd596e
labels-65536@2 18ab27a88acd596e
labels-65536@8 18ab27a88acd596e
labels-65537@1 error "invalid schema: attribute 'a' domain size 65537 exceeds the value type"
labels-65537@2 error "invalid schema: attribute 'a' domain size 65537 exceeds the value type"
labels-65537@8 error "invalid schema: attribute 'a' domain size 65537 exceeds the value type"
"#;

#[test]
fn csv_reader_output_matches_the_pinned_digests() {
    let fresh = results();
    let pinned: Vec<&str> = PINNED.lines().collect();
    assert_eq!(
        fresh,
        pinned,
        "CSV reader output drifted; fresh lines:\n{}",
        fresh.join("\n")
    );
}
