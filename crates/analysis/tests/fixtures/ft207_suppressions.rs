//! FT207 golden fixture: the suppression audit. A used, well-formed
//! allow silences its finding; an unused one is rot; a malformed one is
//! an error that silences nothing.

fn excused() {
    // ftpde-allow(FT201: fixture demonstrates a used suppression)
    let _m = std::sync::Mutex::new(0u32); // suppressed by line 6
}

fn stale() {
    // ftpde-allow(FT201: nothing below is a sync primitive)
    let x = 1 + 1; // the allow on line 11 is unused -> FT207
    let _ = x;
}

fn broken() {
    // ftpde-allow(FT999: no such code)
    // ftpde-allow(FT201)
    let _m = std::sync::Mutex::new(0u32); // line 19: FT201 (nothing suppressed it)
}
