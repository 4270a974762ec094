// Known-bad fixture for R010 in a hot-path file (no panics in hot paths).

fn hot(v: &[u32], o: Option<u32>) -> u32 {
    let a = o.unwrap();
    let b = o.expect("present");
    if v.is_empty() {
        panic!("empty");
    }
    let c = v[0];
    let d = v[a as usize];
    let e = [1u32, 2];
    a + b + c + d + e[1]
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let o = Some(1u32);
        assert_eq!(o.unwrap(), 1);
        let v = [1u32];
        assert_eq!(v[0], 1);
    }
}

fn lexer_cannot_be_fooled() {
    let _s = ".unwrap() inside a string is text, not a call";
    // .unwrap() in a line comment is fine
    /* v[0].unwrap() in a block /* even nested */ comment */
    let _r = r##"raw string: v[0].unwrap() and "quotes" too"##;
}
