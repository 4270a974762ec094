// Fixture for suppression handling: reasons are mandatory.

fn covered(o: Option<u32>) -> u32 {
    // lint:allow(R010): fixture — standalone form with a reason.
    let a = o.unwrap();
    let b = o.unwrap(); // lint:allow(R010): trailing form with a reason.
    // lint:allow(R010)
    let c = o.unwrap();
    a + b + c
}

fn idle() -> u32 {
    // lint:allow(R010): nothing on the next line can panic — unused.
    1
}
