//! FNV-1a over the simulated outputs: two runs whose digests match
//! produced byte-identical records and counters.

use jafar_common::time::Tick;

pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        // Length first, so adjacent fields cannot run into each other.
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn tick(&mut self, t: Tick) {
        self.u64(t.as_ps());
    }

    pub fn opt_tick(&mut self, t: Option<Tick>) {
        self.u64(t.map_or(u64::MAX, Tick::as_ps));
    }

    pub fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.i64(v);
            }
            None => self.u64(0),
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
