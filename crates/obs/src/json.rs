//! Minimal hand-rolled JSON writing (the build environment has no
//! serde): string escaping and a writer for *flat* objects — one level
//! deep, scalar values only — which is all the JSONL trace format and
//! the run manifests need. Numbers are written from their `Display`
//! text, so `u64` nanosecond timestamps keep every digit.

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Incremental writer for one flat JSON object.
#[derive(Default)]
pub struct ObjWriter {
    buf: String,
    any: bool,
}

impl ObjWriter {
    /// Starts an object (`{`).
    pub fn new() -> Self {
        ObjWriter { buf: String::from("{"), any: false }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        write_str(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str_field(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        write_str(&mut self.buf, v);
        self
    }

    /// Adds a numeric (or other already-serialized) field.
    pub fn raw_field(&mut self, k: &str, v: impl std::fmt::Display) -> &mut Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_quotes_backslashes_and_controls() {
        for (s, want) in [
            ("plain", r#""plain""#),
            ("with \"quotes\"", r#""with \"quotes\"""#),
            ("tab\tnewline\n", r#""tab\tnewline\n""#),
            ("cr\r", r#""cr\r""#),
            ("back\\slash", r#""back\\slash""#),
            ("ünïcode", "\"ünïcode\""),
            ("\u{1}", r#""\u0001""#),
        ] {
            assert_eq!(quote(s), want);
        }
    }

    #[test]
    fn writer_emits_fields_in_call_order() {
        let mut w = ObjWriter::new();
        w.str_field("name", "a,b\"c").raw_field("n", u64::MAX).raw_field("x", "1.5");
        // u64::MAX is written exactly — no f64 rounding.
        assert_eq!(w.finish(), r#"{"name":"a,b\"c","n":18446744073709551615,"x":1.5}"#);
        assert_eq!(ObjWriter::new().finish(), "{}");
    }
}
