// Fixture: escapes and exemptions the no-panic lint must honour.
// Expected: 0 findings, 2 used allows.

pub fn explained(buf: &[u8]) -> u32 {
    // tidy: allow(no-panic) -- the slice is length-checked two lines up
    let word = buf[..4].try_into().unwrap();
    let n = u32::from_le_bytes(word);
    n.checked_add(1).unwrap() // tidy: allow(no-panic) -- n came from 4 bytes, cannot be MAX
}

pub fn not_method_shaped(v: Option<u32>) -> u32 {
    // `unwrap_or` / `expect_err`-style idents must not match.
    v.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic() {
        let v: Option<u32> = None;
        v.unwrap();
        assert_eq!(v, Some(1), "tests assert freely");
        panic!("tests panic freely");
    }
}
