//! One convention for environment-variable knobs across the workspace.
//!
//! The knobs grew up independently and drifted: `ROWSORT_OVC` recognized
//! only lowercase `0`/`false`/`off`, `ROWSORT_TRACE` only `1`/`true`.
//! Every boolean knob now routes through [`parse_flag`] / [`env_flag`],
//! and every numeric knob through [`parse_count`] / [`env_count`], so one
//! table of spellings applies everywhere:
//!
//! | value (trimmed, case-insensitive) | meaning            |
//! |-----------------------------------|--------------------|
//! | `1`, `true`, `on`, `yes`          | enabled            |
//! | `0`, `false`, `off`, `no`         | disabled           |
//! | empty / unset / anything else     | the knob's default |
//!
//! Unrecognized spellings fall back to the default instead of silently
//! enabling (or disabling) a feature the user thought they had switched.

/// Spellings that disable a flag (compared trimmed, ASCII-case-insensitive).
const FALSE_WORDS: [&str; 4] = ["0", "false", "off", "no"];

/// Spellings that enable a flag (compared trimmed, ASCII-case-insensitive).
const TRUE_WORDS: [&str; 4] = ["1", "true", "on", "yes"];

/// Interpret one boolean knob value under the shared convention.
/// `None` (unset) and unrecognized spellings yield `default`.
pub fn parse_flag(value: Option<&str>, default: bool) -> bool {
    let Some(raw) = value else {
        return default;
    };
    let v = raw.trim();
    if FALSE_WORDS.iter().any(|w| v.eq_ignore_ascii_case(w)) {
        return false;
    }
    if TRUE_WORDS.iter().any(|w| v.eq_ignore_ascii_case(w)) {
        return true;
    }
    default
}

/// [`parse_flag`] applied to the environment variable `name`.
pub fn env_flag(name: &str, default: bool) -> bool {
    parse_flag(std::env::var(name).ok().as_deref(), default)
}

/// Interpret one numeric knob value: trimmed decimal `usize`, or `None`
/// when unset or unparseable (callers apply their own default/clamp).
pub fn parse_count(value: Option<&str>) -> Option<usize> {
    value?.trim().parse::<usize>().ok()
}

/// [`parse_count`] applied to the environment variable `name`.
pub fn env_count(name: &str) -> Option<usize> {
    parse_count(std::env::var(name).ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_spellings_all_work() {
        for v in ["0", "false", "off", "no", "OFF", "False", "NO", " off ", "\t0\n"] {
            assert!(!parse_flag(Some(v), true), "{v:?} should disable");
            assert!(!parse_flag(Some(v), false), "{v:?} should disable");
        }
    }

    #[test]
    fn enabling_spellings_all_work() {
        for v in ["1", "true", "on", "yes", "TRUE", "On", "YES", " 1 "] {
            assert!(parse_flag(Some(v), false), "{v:?} should enable");
            assert!(parse_flag(Some(v), true), "{v:?} should enable");
        }
    }

    #[test]
    fn empty_and_garbage_fall_back_to_the_default() {
        for v in ["", "   ", "maybe", "2", "-1", "offf", "tru", "0x1"] {
            assert!(parse_flag(Some(v), true), "{v:?} should keep default true");
            assert!(!parse_flag(Some(v), false), "{v:?} should keep default false");
        }
    }

    #[test]
    fn unset_falls_back_to_the_default() {
        assert!(parse_flag(None, true));
        assert!(!parse_flag(None, false));
    }

    #[test]
    fn counts_parse_trimmed_decimals_only() {
        assert_eq!(parse_count(Some("4")), Some(4));
        assert_eq!(parse_count(Some(" 16 ")), Some(16));
        assert_eq!(parse_count(Some("0")), Some(0));
        for v in ["", "four", "-1", "1.5", "0x10"] {
            assert_eq!(parse_count(Some(v)), None, "{v:?}");
        }
        assert_eq!(parse_count(None), None);
    }
}
