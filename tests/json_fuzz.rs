//! Property fuzz of [`hyperpraw::json`]: whatever bytes arrive on a serve
//! connection, the parser must either produce a value or return a
//! [`hyperpraw::json::JsonError`] whose byte offset points inside the
//! input — it must never panic, and the offset in the structured error
//! response must always be meaningful to the client. The writer, in turn,
//! must round-trip through the parser: any string comes back as the same
//! `String`, any `f64` as the same number (or `null` when non-finite).

use hyperpraw::json::{self, JsonValue};
use proptest::prelude::*;

/// Characters weighted towards JSON structure so random strings reach
/// deep into the parser (nesting, escapes, numbers, literals) instead of
/// failing on the first byte.
const JSON_ALPHABET: &[u8] = br#"{}[]",:\/-+.0123456789eEtruefalsnu "#;

fn check(input: &str) -> Result<(), String> {
    match json::parse(input) {
        Ok(_) => Ok(()),
        Err(e) => {
            prop_assert!(
                e.offset <= input.len(),
                "offset {} outside input of {} bytes: {input:?}",
                e.offset,
                input.len()
            );
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (lossily decoded — the serve loop rejects invalid
    /// UTF-8 before the parser ever sees it) never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        let input = String::from_utf8_lossy(&bytes).into_owned();
        check(&input)?;
    }

    /// Strings over a JSON-flavoured alphabet — dense in structural
    /// tokens, escapes and digits — never panic and keep offsets in range.
    #[test]
    fn json_shaped_strings_never_panic(picks in prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..96)) {
        let input: String = picks.iter().map(|&i| JSON_ALPHABET[i] as char).collect();
        check(&input)?;
    }

    /// Single-byte corruptions of valid protocol documents parse or fail
    /// cleanly; the pristine document must still parse.
    #[test]
    fn corrupted_valid_documents_fail_cleanly(
        doc in 0usize..4,
        index in 0usize..1024,
        replacement in 0u8..=255,
    ) {
        const DOCS: [&str; 4] = [
            r#"{"op": "partition", "parts": 4, "edges": [[0,1,2],[2,3]], "seed": 7}"#,
            r#"{"op": "update", "updates": [{"op": "add_edge", "pins": [4,0], "weight": 1.5e-2}]}"#,
            r#"{"nested": [[[{"deep": [null, true, false, -0.125]}]]], "s": "a\nA😀"}"#,
            r#"[{"k": ""}, 1e308, "trailing \\ backslash"]"#,
        ];
        let pristine = DOCS[doc];
        prop_assert!(json::parse(pristine).is_ok(), "pristine doc {doc} must parse");
        let mut bytes = pristine.as_bytes().to_vec();
        let at = index % bytes.len();
        bytes[at] = replacement;
        let input = String::from_utf8_lossy(&bytes).into_owned();
        check(&input)?;
    }

    /// Offsets returned for truncations of a valid document always land
    /// inside the truncated input, not the original.
    #[test]
    fn truncation_offsets_stay_inside_the_input(cut in 0usize..69) {
        let full = r#"{"op": "partition", "parts": 4, "edges": [[0,1,2],[2,3]], "seed": 7}"#;
        let cut = cut.min(full.len());
        if full.is_char_boundary(cut) {
            check(&full[..cut])?;
        }
    }
}

/// Characters the writer must escape, or must pass through untouched:
/// quotes, backslashes, DEL, and multi-byte code points up to the astral
/// planes (control characters and arbitrary scalars are drawn apart).
const WRITER_ALPHABET: [char; 10] = [
    '"', '\\', '/', 'a', ' ', '\u{7f}', 'é', '\u{2028}', '€', '😀',
];

/// One character per `(kind, code)` pick: a control character, a member
/// of [`WRITER_ALPHABET`], or an arbitrary Unicode scalar value.
fn pick_char(kind: u32, code: u32) -> char {
    match kind {
        0 => char::from_u32(code % 0x20).unwrap(),
        1 => WRITER_ALPHABET[code as usize % WRITER_ALPHABET.len()],
        _ => char::from_u32(code).unwrap_or('\u{fffd}'),
    }
}

fn round_trip_number(v: f64) -> Result<(), String> {
    let text = json::to_string(&v);
    let parsed = json::parse(&text).map_err(|e| format!("{text}: {e}"))?;
    if v.is_finite() {
        prop_assert_eq!(parsed.as_f64().map(f64::to_bits), Some(v.to_bits()));
    } else {
        prop_assert_eq!(parsed, JsonValue::Null);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any string, control characters, quotes and non-ASCII included,
    /// parses back to the same `String` from one line of JSON.
    #[test]
    fn written_strings_parse_back_unchanged(
        picks in prop::collection::vec((0u32..3, 0u32..0x11_0000), 0..48),
    ) {
        let s: String = picks.iter().map(|&(kind, code)| pick_char(kind, code)).collect();
        let text = json::to_string(s.as_str());
        prop_assert!(!text.contains('\n'), "raw newline in {text:?}");
        let parsed = json::parse(&text).map_err(|e| format!("{text}: {e}"))?;
        prop_assert_eq!(parsed, JsonValue::String(s));
    }

    /// Any `f64` bit pattern parses back to the same number, or to `null`
    /// when it is NaN or infinite.
    #[test]
    fn written_numbers_parse_back_unchanged(bits in 0u64..=u64::MAX) {
        round_trip_number(f64::from_bits(bits))?;
    }
}

/// The bit patterns random sampling rarely reaches: zeros, subnormals,
/// the extremes and the non-finite values.
#[test]
fn edge_case_numbers_round_trip() {
    for v in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1 + 0.2,
        1e21,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        round_trip_number(v).unwrap();
    }
}

/// The parser result for protocol-shaped input is actually consumed by the
/// daemon; pin that a fuzz survivor that parses is traversable without
/// panics either.
#[test]
fn parsed_values_traverse_safely() {
    let v = json::parse(r#"{"op": "update", "updates": [{"op": "add_vertex"}]}"#).unwrap();
    assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("update"));
    let updates = v.get("updates").and_then(JsonValue::as_array).unwrap();
    assert_eq!(updates.len(), 1);
    assert!(v.get("missing").is_none());
}
