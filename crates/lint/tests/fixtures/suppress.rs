// Fixture for suppression handling: reasons are mandatory.

fn covered(v: &[u32]) -> u32 {
    // lint:allow(R010): fixture — standalone form with a reason.
    let a = v[0];
    let b = v[1]; // lint:allow(R010): trailing form with a reason.
    // lint:allow(R010)
    let c = v[2];
    a + b + c
}

fn idle() -> u32 {
    // lint:allow(R010): nothing on the next line can panic — unused.
    1
}
