//! Waits under a held guard: a nested acquisition, a channel recv, a
//! sleep and a fault point, all inside the `STATE` span. Each stalls every
//! `STATE` contender on whatever it waits for.

use crate::sync::Mutex;
use std::sync::mpsc::Receiver;
use std::time::Duration;

pub static STATE: Mutex<u32> = Mutex::new(0);
pub static AUX: Mutex<u32> = Mutex::new(0);

pub fn drain(rx: &Receiver<u32>) -> u32 {
    let mut g = STATE.lock();
    let aux = AUX.lock();
    let got = rx.recv().unwrap_or(0);
    std::thread::sleep(Duration::from_millis(1));
    fault_point!(DemoParse);
    *g += got + *aux;
    *g
}
