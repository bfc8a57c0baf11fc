//! Adversarial-input mini-fuzz: the parsing surfaces that face raw
//! bytes — the HTTP head parser, `Content-Length` body framing, and the
//! CSV reader — must uphold "error, never panic" on arbitrary input.
//!
//! A seeded LCG drives thousands of byte-level mutations (flips,
//! truncations, insertions, swaps) of valid seeds plus fully random
//! documents, each fed through `catch_unwind`. The generator is
//! deterministic, so a failure reproduces from the printed case index
//! alone.
//!
//! The LDVW binary decoder (`ldiv-wire`) gets the same treatment plus
//! structure-aware adversaries: header length-field lies, version and
//! tag mutations at known offsets, duplicated payload sections — every
//! failure must be a typed `WireError` with stable text, never a panic
//! and never an allocation sized from a declared length.

use ldiversity::microdata::read_csv_with;
use ldiversity::server::http::{parse_request, HttpError};
use ldiversity::wire::{decode, encode, Json, WireError, HEADER_LEN, MAGIC, VERSION};
use ldiversity::Executor;
use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Knuth's MMIX LCG; the high bits are the usable ones.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        ((self.next_u64() >> 16) % bound.max(1) as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        (self.next_u64() >> 24) as u8
    }
}

/// One mutation round: start from a seed document and apply 1..=8 random
/// byte edits (replace, insert, delete, truncate, duplicate a span).
fn mutate(rng: &mut Lcg, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..1 + rng.below(8) {
        if bytes.is_empty() {
            bytes.push(rng.byte());
            continue;
        }
        let at = rng.below(bytes.len());
        match rng.below(5) {
            0 => bytes[at] = rng.byte(),
            1 => bytes.insert(at, rng.byte()),
            2 => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            4 => {
                let end = (at + 1 + rng.below(16)).min(bytes.len());
                let span: Vec<u8> = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => unreachable!(),
        }
    }
    bytes
}

/// A fully random document, newline-seasoned so line-oriented parsers
/// actually advance.
fn random_doc(rng: &mut Lcg) -> Vec<u8> {
    let len = rng.below(512);
    (0..len)
        .map(|_| if rng.below(8) == 0 { b'\n' } else { rng.byte() })
        .collect()
}

fn assert_no_panic<T>(what: &str, case: usize, input: &[u8], f: impl FnOnce() -> T) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panic!(
            "{what} panicked on case {case}: {:?}",
            String::from_utf8_lossy(input)
        );
    }
}

const HTTP_SEED: &[u8] =
    b"POST /anonymize?algo=tp%2B&l=3 HTTP/1.1\r\nHost: t\r\nContent-Length: 28\r\n\r\nqi0,qi1,sa\n1,2,flu\n3,4,cold\n";

/// Valid CSV documents the reader's mini-fuzz mutates: plain codes, and
/// cells of 6 to 9 bytes with NUL and multibyte characters, some
/// straddling the reader's 7-byte packing limit, some quoted.
const CSV_SEEDS: [&str; 2] = [
    "qi0,qi1,qi2,sa\n1,2,3,flu\n4,5,6,cold\n7,8,9,flu\n10,11,12,asthma\n",
    "qi0,qi1,sa\nééé\0,日本\0,flu\n\0\0\0\0\0\0\0,abcdefé,cold\n\"a日本\",a\0,flu\n\
     日本語,日本a\0, \0\u{3000}\nabcdeé,a,flu\n",
];

#[test]
fn http_parser_errors_but_never_panics_on_mutated_requests() {
    let mut rng = Lcg(0x1d1f_2010);
    for case in 0..3000 {
        let input = if case % 4 == 0 {
            random_doc(&mut rng)
        } else {
            mutate(&mut rng, HTTP_SEED)
        };
        assert_no_panic("parse_request", case, &input, || {
            let _ = parse_request(&mut BufReader::new(&input[..]));
        });
    }
}

/// Targeted `Content-Length` framing adversaries: lies about the body
/// length, overflowing / non-numeric / negative declarations, header
/// floods and over-long lines. Each must produce a clean `HttpError`
/// (the statuses the server maps to 400/413/431/501), never a panic or
/// an unbounded allocation.
#[test]
fn content_length_framing_rejects_lies_cleanly() {
    let cases: Vec<(Vec<u8>, u16)> = vec![
        // Body shorter than declared → truncated-body 400.
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\nshort".to_vec(),
            400,
        ),
        // Absurd and overflowing declarations → 413 / 400, no allocation.
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 67108865\r\n\r\n".to_vec(),
            413,
        ),
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n".to_vec(),
            400,
        ),
        // Non-DIGIT forms `parse::<usize>` would wave through: a signed
        // declaration and an empty one are framing lies, not numbers.
        (
            b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello".to_vec(),
            400,
        ),
        (
            b"POST /x HTTP/1.1\r\nContent-Length: \r\n\r\n".to_vec(),
            400,
        ),
        // Duplicate Content-Length headers — agreeing or conflicting —
        // are request-smuggling material and refuse to frame.
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody".to_vec(),
            400,
        ),
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 12\r\n\r\nbody".to_vec(),
            400,
        ),
        // A head cut off mid-header (no terminating newline) must read
        // as truncated, never as a completed blank-line separator.
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nX-Tr".to_vec(),
            400,
        ),
        (b"POST /x HTTP/1.1".to_vec(), 400),
        // Chunked framing is declared unsupported, not mis-parsed.
        (
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
            501,
        ),
        // Header flood → bounded rejection.
        (
            {
                let mut doc = b"GET /x HTTP/1.1\r\n".to_vec();
                for i in 0..200 {
                    doc.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
                }
                doc.extend_from_slice(b"\r\n");
                doc
            },
            400,
        ),
        // A newline-free 1 MiB request line → 431, not unbounded buffering.
        (
            {
                let mut doc = b"GET /".to_vec();
                doc.extend(std::iter::repeat_n(b'a', 1 << 20));
                doc
            },
            431,
        ),
    ];
    for (case, (input, expected_status)) in cases.iter().enumerate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parse_request(&mut BufReader::new(&input[..]))
        }))
        .unwrap_or_else(|_| panic!("framing case {case} panicked"));
        match result {
            Err(HttpError { status, .. }) => assert_eq!(
                status, *expected_status,
                "framing case {case}: wrong status"
            ),
            Ok(req) => panic!("framing case {case} parsed: {req:?}"),
        }
    }
}

/// The third framing fix from the positive side: `+` is form-encoding
/// for query pairs only, so a literal plus in the path component (the
/// dataset-fingerprint segment, mechanism names like `tp+` percent-land
/// there too) survives parsing undecoded, while query values still read
/// `+` as space and `%2B` as plus in both positions.
#[test]
fn plus_stays_literal_in_the_path_component() {
    let raw =
        b"POST /datasets/a+b/publish?note=a+b&algo=tp%2B HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
    let req = parse_request(&mut BufReader::new(&raw[..])).unwrap();
    assert_eq!(req.path, "/datasets/a+b/publish");
    assert_eq!(
        req.query_param("note"),
        Some("a b"),
        "query pairs keep form-decoding"
    );
    assert_eq!(req.query_param("algo"), Some("tp+"));
}

#[test]
fn csv_reader_errors_but_never_panics_on_mutated_datasets() {
    let mut rng = Lcg(0xc5_7ab1e);
    let exec = Executor::sequential();
    for seed in CSV_SEEDS {
        assert!(read_csv_with(seed.as_bytes(), None, &exec).is_ok());
    }
    for case in 0..3000 {
        let input = if case % 4 == 0 {
            random_doc(&mut rng)
        } else {
            mutate(&mut rng, CSV_SEEDS[case % 2].as_bytes())
        };
        assert_no_panic("read_csv_with", case, &input, || {
            let _ = read_csv_with(BufReader::new(&input[..]), None, &exec);
        });
    }
}

/// Valid LDVW blocks covering every tag, nesting, negative/huge ints,
/// floats, unicode strings and empty containers — the seeds the decoder
/// fuzz mutates.
fn wire_seeds() -> Vec<Vec<u8>> {
    let publication_like = Json::obj()
        .field("mechanism", "tp+")
        .field(
            "params",
            Json::obj()
                .field("l", 3u32)
                .field("fanout", 2u32)
                .field("canonical", "l=3;fanout=2;shards=1"),
        )
        .field("dataset_fingerprint", "a1b2c3d4e5f60718")
        .field("rows", 600u32)
        .field("star_ratio", 0.0375)
        .field("kl_divergence", 0.014285714285714285)
        .field("notes", Json::Arr(vec!["stitch: 2 shards".into()]))
        .field("cached", false);
    let adversarial_values = Json::Arr(vec![
        Json::Null,
        Json::Bool(true),
        Json::Int(i64::MIN),
        Json::Int(i64::MAX),
        Json::Int(-1),
        Json::Float(5e-324),
        Json::Float(-0.0),
        Json::Str("κλ-div \"quoted\" \u{1F512}\n\t".into()),
        Json::Arr(vec![]),
        Json::obj(),
        Json::Arr(vec![Json::Arr(vec![Json::Arr(vec![Json::Int(7)])])]),
    ]);
    vec![
        encode(&publication_like),
        encode(&adversarial_values),
        encode(&Json::obj().field("error", "boom").field("kind", "internal")),
        encode(&Json::Null),
    ]
}

/// ≥5000 structure-aware decoder adversaries: generic byte mutations,
/// truncations at every depth, header length-field lies, version and
/// tag rewrites at known offsets, duplicated payload spans, and fully
/// random documents behind a forged `LDVW` magic. Decoding must return
/// a typed error (or a value) — never panic — and erroring twice must
/// yield the *same* error with stable, non-empty `wire:` text.
#[test]
fn wire_decoder_errors_but_never_panics_under_structure_aware_fuzz() {
    let seeds = wire_seeds();
    let mut rng = Lcg(0x1d5_77ae ^ 0x5eed_0009);
    for case in 0..6000 {
        let seed = &seeds[case % seeds.len()];
        let input: Vec<u8> = match case % 8 {
            // Generic byte-level edits of a valid block.
            0 | 1 => mutate(&mut rng, seed),
            // Truncation at an arbitrary boundary (header included).
            2 => seed[..rng.below(seed.len() + 1)].to_vec(),
            // Header length-field lie: random u32 over bytes 5..9.
            3 => {
                let mut bytes = seed.clone();
                let lie = (rng.next_u64() >> 16) as u32;
                bytes[5..9].copy_from_slice(&lie.to_le_bytes());
                bytes
            }
            // Version rewrite at byte 4.
            4 => {
                let mut bytes = seed.clone();
                bytes[4] = rng.byte();
                bytes
            }
            // Tag/payload rewrite at an offset inside the payload.
            5 => {
                let mut bytes = seed.clone();
                let at = HEADER_LEN + rng.below(bytes.len() - HEADER_LEN);
                bytes[at] = rng.byte();
                bytes
            }
            // Duplicated payload span (sections repeated, length stale).
            6 => {
                let mut bytes = seed.clone();
                let at = HEADER_LEN + rng.below(bytes.len() - HEADER_LEN);
                let end = (at + 1 + rng.below(24)).min(bytes.len());
                let span: Vec<u8> = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
                bytes
            }
            // Random bytes behind a forged magic + version.
            7 => {
                let mut bytes = MAGIC.to_vec();
                bytes.push(VERSION);
                bytes.extend(random_doc(&mut rng));
                bytes
            }
            _ => unreachable!(),
        };
        assert_no_panic("wire::decode", case, &input, || {
            if let Err(err) = decode(&input) {
                // Typed, deterministic, stable: the same input errors
                // identically twice, and the text is the documented
                // `wire:`-prefixed diagnosis, not a Debug dump.
                assert_eq!(decode(&input).unwrap_err(), err, "case {case}");
                let text = err.to_string();
                assert!(text.starts_with("wire: "), "case {case}: {text}");
                assert_eq!(text, err.to_string(), "case {case}: unstable text");
            }
        });
    }
}

/// Declared lengths are never trusted for allocation: a tiny block
/// claiming a ~4-billion-element array (or a huge string) must be
/// rejected as truncated immediately, not buffered first.
#[test]
fn wire_decoder_rejects_declared_length_bombs_without_allocating() {
    // ARR tag + maximal varint count, 7 bytes of payload total.
    let mut arr_bomb = Vec::from(MAGIC);
    arr_bomb.push(VERSION);
    arr_bomb.extend((7u32).to_le_bytes());
    arr_bomb.extend([0x06, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00]);
    // STR tag + 256 MiB declared length, no content.
    let mut str_bomb = Vec::from(MAGIC);
    str_bomb.push(VERSION);
    str_bomb.extend((6u32).to_le_bytes());
    str_bomb.extend([0x05, 0x80, 0x80, 0x80, 0x80, 0x01]);

    for (bomb, what) in [(arr_bomb, "array"), (str_bomb, "string")] {
        let start = std::time::Instant::now();
        let err = decode(&bomb).expect_err(what);
        assert!(
            matches!(err, WireError::Truncated { .. }),
            "{what} bomb: {err}"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "{what} bomb took {:?} — was the declared length allocated?",
            start.elapsed()
        );
    }

    // And the honest baseline still decodes: the guard rejects lies,
    // not real payloads.
    for seed in wire_seeds() {
        assert!(decode(&seed).is_ok());
    }
}

/// The same CSV fuzz through a parallel executor: the chunked parse path
/// must contain worker panics exactly like the sequential one.
#[test]
fn parallel_csv_parse_is_as_unpanicking_as_sequential() {
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    let exec = Executor::new(2);
    for case in 0..500 {
        let input = mutate(&mut rng, CSV_SEEDS[case % 2].as_bytes());
        assert_no_panic("read_csv_with(parallel)", case, &input, || {
            let _ = read_csv_with(BufReader::new(&input[..]), None, &exec);
        });
    }
}
