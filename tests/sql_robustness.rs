//! Fuzz-style robustness suite for the SQL front-end — the serving
//! layer's outermost attack surface. Whatever text arrives over the
//! `adaptagg serve` socket — truncated, corrupted, deeply nested,
//! oversized, or pure noise — `compile` must return a typed
//! [`SqlError`], never panic, and never blow the stack or the heap on
//! the say-so of a hostile input (mirrors `frame_robustness.rs`, the
//! same contract one layer down).
//!
//! Deterministic by construction: all mutations are drawn from seeded
//! `SplitMix64` streams, so any failure replays exactly.

use adaptagg::model::{DataType, Field, Schema};
use adaptagg::net::SplitMix64;
use adaptagg::sql::{compile, parse, tokenize, SqlError};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("pad", DataType::Str),
    ])
}

/// Valid seeds: every mutation below starts from one of these.
fn corpus() -> Vec<&'static str> {
    vec![
        "SELECT g, SUM(v), COUNT(*) FROM r GROUP BY g",
        "SELECT g, AVG(v) FROM r GROUP BY g",
        "SELECT g, MIN(v), MAX(v) FROM r GROUP BY g",
        "SELECT COUNT(*) FROM r",
        "SELECT DISTINCT g FROM r",
        "select g , sum ( v ) from r group by g",
    ]
}

/// The contract under test: typed error or success, never a panic.
fn must_not_panic(sql: &str) -> Result<(), SqlError> {
    // Exercise each stage separately too — a panic in the lexer must
    // not hide behind an earlier parser error and vice versa.
    let _ = tokenize(sql);
    let _ = parse(sql);
    compile(sql, &schema()).map(|_| ())
}

#[test]
fn corpus_compiles_clean() {
    for sql in corpus() {
        must_not_panic(sql).unwrap_or_else(|e| panic!("corpus {sql:?} must compile: {e}"));
    }
}

#[test]
fn truncation_at_every_char_boundary_is_typed() {
    for sql in corpus() {
        for end in 0..sql.len() {
            if !sql.is_char_boundary(end) {
                continue;
            }
            // Either a shorter-but-valid query or a typed error; a
            // panic fails the harness either way.
            let _ = must_not_panic(&sql[..end]);
        }
    }
}

#[test]
fn random_byte_corruption_is_typed() {
    let mut rng = SplitMix64::new(0x5eed501);
    for sql in corpus() {
        for _ in 0..200 {
            let mut bytes = sql.as_bytes().to_vec();
            let flips = 1 + (rng.next_u64() as usize) % 4;
            for _ in 0..flips {
                let at = (rng.next_u64() as usize) % bytes.len();
                bytes[at] = (rng.next_u64() & 0xff) as u8;
            }
            // Corruption may produce invalid UTF-8; a server reads
            // lossily, so the front-end sees replacement chars.
            let corrupt = String::from_utf8_lossy(&bytes);
            let _ = must_not_panic(&corrupt);
        }
    }
}

#[test]
fn random_noise_is_typed() {
    let mut rng = SplitMix64::new(0x5eed502);
    for len in [0usize, 1, 7, 64, 512] {
        for _ in 0..50 {
            let noise: String = (0..len)
                .map(|_| {
                    // Bias toward SQL-ish characters so some noise gets
                    // past the lexer into the parser.
                    let c = (rng.next_u64() % 96) as u8 + 32;
                    c as char
                })
                .collect();
            let _ = must_not_panic(&noise);
        }
    }
}

#[test]
fn deep_nesting_does_not_blow_the_stack() {
    // The grammar is flat (no parenthesized expressions), so nesting
    // must die in the parser with a typed error — at any depth. An
    // unbounded-recursion bug would overflow the stack here instead.
    for depth in [10usize, 1_000, 100_000] {
        let sql = format!(
            "SELECT {}g{} FROM r GROUP BY g",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let e = compile(&sql, &schema()).expect_err("nested parens are not in the grammar");
        assert!(!e.message.is_empty());
        let sum = format!("SELECT SUM{}v{} FROM r", "(".repeat(depth), ")".repeat(depth));
        assert!(compile(&sum, &schema()).is_err());
    }
}

#[test]
fn oversized_inputs_are_typed_not_fatal() {
    // A 4 MB identifier, a 4 MB literal-ish token, and a query with tens
    // of thousands of select items: all must come back as typed errors
    // (or a clean parse) in reasonable time and memory.
    let big_ident = format!("SELECT {} FROM r", "x".repeat(4 << 20));
    assert!(compile(&big_ident, &schema()).is_err(), "unknown 4MB column");

    let many_items = {
        let mut s = String::from("SELECT g");
        for _ in 0..50_000 {
            s.push_str(", SUM(v)");
        }
        s.push_str(" FROM r GROUP BY g");
        s
    };
    compile(&many_items, &schema()).expect("50k aggregates is big, not wrong");

    let long_noise = "?".repeat(1 << 20);
    let e = tokenize(&long_noise).expect_err("noise must fail the lexer");
    assert_eq!(e.position, Some(0), "fail at the first bad byte, not the last");
}

#[test]
fn error_positions_point_into_the_source() {
    for sql in corpus() {
        let mut rng = SplitMix64::new(0x5eed503);
        for _ in 0..100 {
            let mut bytes = sql.as_bytes().to_vec();
            let at = (rng.next_u64() as usize) % bytes.len();
            bytes[at] = b'\x01'; // never legal in the grammar
            let corrupt = String::from_utf8(bytes).unwrap();
            match compile(&corrupt, &schema()) {
                Ok(_) => panic!("\\x01 can never compile: {corrupt:?}"),
                Err(e) => {
                    if let Some(p) = e.position {
                        assert!(
                            p <= corrupt.len(),
                            "position {p} outside source of {} bytes",
                            corrupt.len()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn binder_rejections_are_typed() {
    for bad in [
        "SELECT nope FROM r GROUP BY nope",
        "SELECT g, SUM(pad) FROM r GROUP BY g",
        "SELECT v FROM r GROUP BY g",
        "SELECT g, SUM(v) FROM r",
        "SELECT g, SUM(missing) FROM r GROUP BY g",
        "SELECT AVG(pad) FROM r",
    ] {
        let e = compile(bad, &schema()).expect_err(bad);
        assert!(!e.message.is_empty(), "binder error must explain: {bad}");
    }
}
