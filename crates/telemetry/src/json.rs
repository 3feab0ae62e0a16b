//! The workspace's one JSON writer.
//!
//! Every JSON document the program emits — the facade's partition,
//! update and recovery reports, the serve daemon's replies,
//! [`crate::Registry::render_json`] and the bench harness's
//! `BENCH_<bench>.json` — is written through this module, so there is one
//! string escaper and one number rule:
//!
//! - a string escapes `"`, `\` and every control character (`\n`, `\r`
//!   and `\t` by name, the rest as `\u00XX`); everything else, non-ASCII
//!   included, is written as is;
//! - a finite `f64` is written with `{}`, Rust's shortest form that parses
//!   back to the same value; NaN and ±∞, which JSON cannot express, are
//!   written as `null`;
//! - the layout is fixed and single-line: `{"k": v, "k2": v2}` and
//!   `[a,b]`.
//!
//! Values implement [`ToJson`]; objects are written field by field
//! through [`object`]. A nested document is written straight into its
//! parent's buffer, never re-formatted.

use std::fmt::Write as _;

/// A value with a JSON representation.
pub trait ToJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// The JSON text of `value`.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Appends an object to `out`; `body` writes its fields.
pub fn object(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    body(&mut Object { out, empty: true });
    out.push('}');
}

/// Rounds `v` to three decimals, the precision timing figures are
/// written at (bench medians, histogram means, serve uptime). Non-finite
/// values pass through, so they still write as `null`.
pub fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// The fields of an object being written by [`object`].
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push_str(", ");
        }
        self.empty = false;
        key.write_json(self.out);
        self.out.push_str(": ");
        self.out
    }

    /// Writes `"key": value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Writes `"key": {…}`; `body` writes the nested object's fields.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object(self.key(key), body);
        self
    }

    /// Writes `"key": [{…},{…}]`, one object per item; `body` writes
    /// each object's fields.
    pub fn objects<I: IntoIterator>(
        &mut self,
        key: &str,
        items: I,
        mut body: impl FnMut(&mut Object<'_>, I::Item),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            object(out, |o| body(o, item));
        }
        out.push(']');
        self
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_to_json!(bool, u32, u64, usize, i64);

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_fixed_and_single_line() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.field("name", "x")
                .field("ok", true)
                .field("part", None::<u32>)
                .field("ids", &[0u32, 1, 2][..])
                .object("nested", |n| {
                    n.field("k", 1u64);
                })
                .object("empty", |_| {})
                .objects("rows", [1usize, 2], |r, i| {
                    r.field("i", i).field("g", -3i64);
                });
        });
        assert_eq!(
            out,
            "{\"name\": \"x\", \"ok\": true, \"part\": null, \"ids\": [0,1,2], \
             \"nested\": {\"k\": 1}, \"empty\": {}, \"rows\": [{\"i\": 1, \"g\": -3},{\"i\": 2, \"g\": -3}]}"
        );
        assert_eq!(to_string::<[u32]>(&[]), "[]");
    }

    #[test]
    fn every_control_character_is_escaped() {
        assert_eq!(to_string("\t\r\u{1}\u{1f}é"), "\"\\t\\r\\u0001\\u001fé\"");
        let all: String = (0u8..0x20).map(char::from).collect();
        assert!(!to_string(all.as_str()).chars().any(|c| c.is_control()));
    }

    #[test]
    fn numbers_use_the_shortest_round_trip_form() {
        assert_eq!(to_string(&12.5), "12.5");
        assert_eq!(to_string(&3.0), "3");
        assert_eq!(to_string(&0.1), "0.1");
        assert_eq!(to_string(&-0.0), "-0");
        assert_eq!(to_string(&f64::NEG_INFINITY), "null");
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(round3(1.23456), 1.235);
        assert!(round3(f64::NAN).is_nan());
    }
}
