//! Guards held across fault points, directly and through a callee: an
//! injected delay at either point stalls every `TABLE` contender, and an
//! injected panic poisons the lock.

use crate::sync::Mutex;

pub static TABLE: Mutex<u32> = Mutex::new(0);

pub fn rebuild() -> u32 {
    let g = TABLE.lock();
    fault_point!(DemoParse);
    *g
}

pub fn persist() -> u32 {
    let g = TABLE.lock();
    flush_side(*g)
}

fn flush_side(n: u32) -> u32 {
    fault_point!(DemoWrite);
    n
}
