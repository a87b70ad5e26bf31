//! Fault points fire lock-free: before the guard exists, or after a
//! one-line temporary has already released it.

use crate::sync::Mutex;

pub static TABLE: Mutex<u32> = Mutex::new(0);

pub fn rebuild() -> u32 {
    fault_point!(DemoParse);
    let g = TABLE.lock();
    *g
}

pub fn probe() -> u32 {
    let n = *TABLE.lock();
    fault_point!(DemoWrite);
    n
}
