//! The one field scanner — and the scalar push helpers — behind every
//! serde-free JSON dialect this crate reads and writes: campaign-store
//! shard lines, probe and tune reports, the run-metadata stripper.
//!
//! All of them are flat objects of `"key": value` pairs whose values are
//! bare numbers or quote-delimited strings without escapes. [`fields`]
//! walks such text once, left to right, at byte level, and hands out
//! sub-slices of its input: no search pattern is built, nothing is
//! allocated and no byte is visited twice. Key order carries no meaning
//! and unknown keys are the caller's to skip, so newer files stay
//! readable by older code and vice versa. Damaged text never panics: the
//! walk simply ends early, and callers notice the fields they still miss.

use std::fmt::Write;

/// Finds the next `"key":` token of `text` at or after byte `from`.
/// Returns the key and the byte offset of its value (blanks skipped). A
/// quoted string that no `:` follows — a string *value* — is stepped over.
pub fn next_key(text: &str, from: usize) -> Option<(&str, usize)> {
    let bytes = text.as_bytes();
    let quote = |at: usize| Some(at + bytes.get(at..)?.iter().position(|&b| b == b'"')?);
    let mut at = from;
    loop {
        let open = quote(at)? + 1;
        let close = quote(open)?;
        at = close + 1;
        if bytes.get(at) == Some(&b':') {
            at += 1;
            while bytes.get(at) == Some(&b' ') {
                at += 1;
            }
            return Some((&text[open..close], at));
        }
    }
}

/// The `(key, value)` pairs of one flat object, in text order. String
/// values come without their quotes; bare values end at `,`, `}` or a
/// line break.
pub fn fields(text: &str) -> Fields<'_> {
    Fields { text, at: 0 }
}

/// Iterator returned by [`fields`].
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let (key, at) = next_key(self.text, self.at)?;
        let rest = &self.text[at..];
        let (value, len) = match rest.strip_prefix('"') {
            Some(body) => {
                let end = body.find('"')?;
                (&body[..end], end + 2)
            }
            None => {
                let end = rest.bytes().position(|b| matches!(b, b',' | b'}' | b'\n'));
                let end = end.unwrap_or(rest.len());
                (rest[..end].trim_end(), end)
            }
        };
        self.at = at + len;
        Some((key, value))
    }
}

/// The pairs of one scanned object with by-key access, for the report
/// dialects whose rows name every required field (the store's hot path
/// walks [`fields`] directly).
#[derive(Clone, Debug)]
pub struct Object<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Object<'a> {
    /// Scans `text` (see [`fields`]).
    pub fn scan(text: &'a str) -> Self {
        Object(fields(text).collect())
    }

    /// The parsed value of `key`.
    ///
    /// # Errors
    ///
    /// A message naming the key when it is missing or does not parse.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let (_, value) =
            self.0.iter().find(|(k, _)| *k == key).ok_or_else(|| format!("missing key {key}"))?;
        value.parse().map_err(|_| format!("unparsable value for {key}"))
    }
}

/// Appends `"key": ` (what [`next_key`] matches).
pub fn push_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
}

/// Appends `v` in decimal.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Appends `v` as 16 lowercase hex digits.
pub fn push_hex16(out: &mut String, v: u64) {
    for shift in (0..16).rev() {
        out.push(char::from(b"0123456789abcdef"[(v >> (shift * 4)) as usize & 0xf]));
    }
}

/// Appends `v` in Rust's shortest-roundtrip formatting, so parsing the
/// text back yields the same bits.
pub fn push_f64(out: &mut String, v: f64) {
    write!(out, "{v}").expect("writing to String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_a_flat_object_in_text_order() {
        let text = "{\"name\": \"vecadd\", \"n\": 12,\n  \"f\": 0.25 , \"shard\": \"1/2\"}";
        let pairs: Vec<_> = fields(text).collect();
        assert_eq!(pairs, [("name", "vecadd"), ("n", "12"), ("f", "0.25"), ("shard", "1/2")]);
        // Bodies cut out of a larger document carry no braces.
        assert_eq!(fields("\"a\": 1, \"b\": 2").collect::<Vec<_>>(), [("a", "1"), ("b", "2")]);
        assert_eq!(fields("").count(), 0);
        assert_eq!(fields("no json at all").count(), 0);
    }

    #[test]
    fn object_access_is_by_key_and_names_what_it_misses() {
        let obj = Object::scan("\"b\": 2, \"name\": \"relu\", \"a\": 1.5, \"b\": 9");
        assert_eq!(obj.get::<u64>("b"), Ok(2), "order is free, the first occurrence wins");
        assert_eq!(obj.get::<f64>("a"), Ok(1.5));
        assert_eq!(obj.get::<String>("name").as_deref(), Ok("relu"));
        assert_eq!(obj.get::<u64>("c"), Err("missing key c".to_owned()));
        assert_eq!(obj.get::<u64>("name"), Err("unparsable value for name".to_owned()));
    }

    #[test]
    fn string_values_are_not_mistaken_for_keys() {
        // Free text with separators, colons and a key-like word inside.
        let text = "{\"protocol\": \"A/B, round 1: jobs, x\", \"jobs\": 3}";
        let pairs: Vec<_> = fields(text).collect();
        assert_eq!(pairs, [("protocol", "A/B, round 1: jobs, x"), ("jobs", "3")]);
        assert_eq!(next_key(text, 0), Some(("protocol", 13)));
        assert_eq!(next_key(text, 13).map(|(k, _)| k), Some("jobs"));
    }

    #[test]
    fn every_prefix_of_an_object_ends_the_walk_cleanly() {
        let text = "{\"key\": \"00ff\", \"é\": 1, \"topo\": \"1c2w2t\", \"x\": 1.5e-3}";
        let whole: Vec<_> = fields(text).collect();
        assert_eq!(whole.len(), 4);
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            let got: Vec<_> = fields(&text[..cut]).collect();
            // No panic, and every pair but a cut-short last one is a pair
            // of the whole.
            let intact = got.len().saturating_sub(1);
            assert_eq!(got[..intact], whole[..intact], "cut at {cut}");
            let _ = next_key(text, cut);
        }
        assert_eq!(next_key(text, text.len() + 9), None);
    }

    #[test]
    fn pushed_scalars_match_the_formatting_macros() {
        for v in [0, 7, 10, 4096, 18_446_744_073_709_551_615] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, format!("{v}"));
            out.clear();
            push_hex16(&mut out, v);
            assert_eq!(out, format!("{v:016x}"));
        }
        let mut out = String::new();
        push_key(&mut out, "loads");
        push_f64(&mut out, 0.123456789012345);
        assert_eq!(out, "\"loads\": 0.123456789012345");
        assert_eq!(next_key(&out, 0), Some(("loads", 9)));
    }
}
