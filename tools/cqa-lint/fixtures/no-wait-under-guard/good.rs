//! Waits run lock-free: after a block-scoped guard's block has closed,
//! and after an explicit `drop(g)`.

use crate::sync::Mutex;
use std::time::Duration;

pub static STATE: Mutex<u32> = Mutex::new(0);

pub fn settle() -> u32 {
    let n = {
        let g = STATE.lock();
        *g + 1
    };
    std::thread::sleep(Duration::from_millis(1));
    n
}

pub fn rebuild() -> u32 {
    let mut g = STATE.lock();
    *g += 1;
    let n = *g;
    drop(g);
    fault_point!(DemoParse);
    n
}
