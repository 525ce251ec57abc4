// Fixture: every panic-shaped construct in library code, one per line.
// Expected: 9 `no-panic` findings (5, 8, 10, 13, 16, 20, 24, 25, 26); none for debug_assert*.

pub fn f(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = std::env::var("X")
        .ok()
        .expect("must be set");
    if a == 0 {
        panic!("zero");
    }
    match b.len() {
        0 => unreachable!(),
        1 => a,
        _ => {
            todo!()
        }
    }
    ;
    unimplemented!()
}

pub fn g(a: u32, b: u32) {
    assert!(a > 0, "positive");
    assert_eq!(a, b);
    assert_ne!(a, 0);
    debug_assert!(a > 0);
    debug_assert_eq!(a, b);
    debug_assert_ne!(a, 0);
}
