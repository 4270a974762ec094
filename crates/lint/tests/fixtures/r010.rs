// Known-bad fixture for R010: no literal subscript in a panic-free crate.

fn hot(v: &[u32], w: &[[u32; 2]]) -> u32 {
    let a = v[0];
    let b = v[a as usize];
    let e = [1u32, 2];
    let f = vec![0u32];
    let g = w[1][0];
    let h = v.first().copied().unwrap_or(0);
    a + b + e[1] + f[b as usize] + g + h
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v = [1u32];
        assert_eq!(v[0], 1);
    }
}

fn lexer_cannot_be_fooled() {
    let _s = "v[0] inside a string is text, not a subscript";
    // v[0] in a line comment is fine
    /* v[0] in a block /* even nested */ comment */
    let _r = r##"raw string: v[0] and "quotes" too"##;
    for x in [1u32] {
        let _y = if x > 0 { [x] } else { [0] };
    }
}
