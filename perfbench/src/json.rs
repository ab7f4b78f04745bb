//! Just enough JSON to print the report and the result line.

use std::fmt;

pub enum J {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Shortest round-trip form: every digit the measurement has.
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => f.write_str("null"),
            J::Int(x) => write!(f, "{x}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            J::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let j = J::obj([
            ("a", J::Num(1.25)),
            ("b", J::Arr(vec![J::Int(3), J::Bool(false)])),
            ("c", J::str("x\"y\n")),
            ("d", J::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 1.25, "b": [3, false], "c": "x\"y\n", "d": null}"#
        );
    }
}
