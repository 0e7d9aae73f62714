//! The little JSON this benchmark writes by hand. Reading goes through
//! `accelviz_trace::chrome::parse_json`.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has; `null` for a value
/// that is not finite (JSON has no NaN).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of numbers.
pub fn numbers(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| number(v)).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_trace::chrome::parse_json;

    #[test]
    fn strings_and_numbers_round_trip() {
        let text = format!(
            "{{{}: {}, \"v\": {}}}",
            string("a \"q\"\n"),
            number(1.25e-7),
            numbers(&[1.0, f64::NAN])
        );
        let doc = parse_json(&text).expect("valid json");
        assert_eq!(doc.get("a \"q\"\n").and_then(|v| v.as_f64()), Some(1.25e-7));
        assert_eq!(
            doc.get("v").and_then(|v| v.as_array()).map(<[_]>::len),
            Some(2)
        );
    }
}
