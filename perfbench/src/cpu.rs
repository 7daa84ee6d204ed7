//! The CPU clock, and the probe that measures how fast the machine runs.
//!
//! On a shared host the wall clock also counts the time the process
//! waited for a core, whether another process or the hypervisor (steal
//! time) had it, so it measures the neighbours as much as the program.
//! The CPU clock counts only the time the program's own threads ran;
//! with paravirtual steal accounting, the time the host took the core
//! back is not in it either.
//!
//! What the CPU clock still counts is how fast the machine ran while it
//! was ours, and on a shared host that moves too: over minutes the same
//! batches took up to three times the CPU time. A [`Probe`] runs fixed
//! work of the kinds a workload does, written here and never changed
//! with the program, so the benchmark can scale what it measures to a
//! machine of fixed speed.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and so every thread it starts from then on,
/// to the core it runs on; returns that core. On one core a thread that
/// waits for another never spins against a partner whose core the host
/// has taken away, which on a busy host made `cluster_stagger`'s CPU
/// time per batch swing most in its tail.
pub fn pin_to_this_core() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("core {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid CPU set of `size_of_val(&mask)` bytes.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// CPU time of every thread of this process, ns, since it started.
pub fn process_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Each leg's CPU time on the reference machine, ns. They only set the
/// unit: round figures near what a 2.1 GHz Xeon VM core measured.
const COMPUTE_REFERENCE_NS: f64 = 500_000.0;
const FILE_REFERENCE_NS: f64 = 200_000.0;
const EXCHANGE_REFERENCE_NS: f64 = 1_000_000.0;

/// Loopback exchanges per probe, and the bytes each way in one.
const EXCHANGES: usize = 4;
const EXCHANGE_BYTES: usize = 8192;
/// Blocks written, synced and read back per probe.
const FILE_BLOCKS: u64 = 16;
const BLOCK: usize = 4096;
/// The probe file is emptied once it passes this size.
const FILE_LIMIT: u64 = 8 << 20;

/// Fixed work that measures the machine's speed just now. Every probe
/// runs the compute leg: independent multiply chains, walks through an
/// L2-sized table with data-dependent branches, and small allocations.
/// A workload that talks over loopback TCP adds an exchange leg: a
/// connection per exchange, a handler thread per connection, 8 KiB each
/// way. A workload that keeps a store on disk adds a file leg: appends,
/// a sync, and reads at scattered offsets.
pub struct Probe {
    table: Vec<u32>,
    file: Option<std::fs::File>,
    exchange: Option<Echo>,
}

impl Probe {
    /// A probe with the legs the workload needs; the file leg writes to
    /// `file`.
    pub fn new(file: Option<&Path>, exchange: bool) -> Result<Probe, String> {
        let file = match file {
            Some(path) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .read(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("probe file {}: {e}", path.display()))?,
            ),
            None => None,
        };
        Ok(Probe {
            table: (0..65_536u32)
                .map(|i| i.wrapping_mul(2_246_822_519))
                .collect(),
            file,
            exchange: if exchange { Some(Echo::start()?) } else { None },
        })
    }

    /// How many times slower than the reference machine this one ran the
    /// probe: the geometric mean, over the legs, of each leg's CPU time
    /// over its reference time.
    pub fn slowdown(&self) -> Result<f64, String> {
        let mut log_sum = self.compute_slowdown().ln();
        let mut legs = 1.0;
        if let Some(file) = &self.file {
            let t0 = process_ns();
            file_leg(file)?;
            log_sum += ((process_ns() - t0) as f64 / FILE_REFERENCE_NS).ln();
            legs += 1.0;
        }
        if let Some(echo) = &self.exchange {
            let t0 = process_ns();
            echo.exchanges()?;
            log_sum += ((process_ns() - t0) as f64 / EXCHANGE_REFERENCE_NS).ln();
            legs += 1.0;
        }
        Ok((log_sum / legs).exp())
    }

    /// The compute leg's own slowdown, for work that is all computation.
    pub fn compute_slowdown(&self) -> f64 {
        let t0 = process_ns();
        black_box(self.compute());
        (process_ns() - t0) as f64 / COMPUTE_REFERENCE_NS
    }

    fn compute(&self) -> u64 {
        let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..black_box(60_000u64) {
            for c in chains.iter_mut() {
                *c = c.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i) ^ (*c >> 29);
            }
        }
        let mask = self.table.len() as u32 - 1;
        let mut walks = [1u32, 7, 13, 29];
        let mut acc = 0u64;
        for _ in 0..black_box(60_000u32) {
            for w in walks.iter_mut() {
                let v = self.table[(*w & mask) as usize];
                *w = w.wrapping_mul(2_654_435_761).wrapping_add(v);
                if v & 1 == 0 {
                    acc += u64::from(v);
                } else {
                    acc ^= u64::from(v);
                }
            }
        }
        for i in 0..black_box(4_000u64) {
            let v: Vec<f64> = (0..3 + i % 13).map(|x| x as f64).collect();
            acc += black_box(v).len() as u64;
        }
        chains.iter().fold(acc, |a, c| a ^ c)
    }
}

fn file_leg(file: &std::fs::File) -> Result<(), String> {
    let err = |e: std::io::Error| format!("probe file: {e}");
    let block = [7u8; BLOCK];
    for _ in 0..FILE_BLOCKS {
        (&*file).write_all(&block).map_err(err)?;
    }
    file.sync_data().map_err(err)?;
    let len = file.metadata().map_err(err)?.len();
    let mut buf = [0u8; BLOCK];
    for i in 0..FILE_BLOCKS {
        let at = (i * 7919 * BLOCK as u64) % (len - BLOCK as u64 + 1);
        file.read_exact_at(&mut buf, at).map_err(err)?;
    }
    if len > FILE_LIMIT {
        file.set_len(0).map_err(err)?;
    }
    Ok(())
}

/// A loopback echo server: one handler thread per connection, joined
/// before the next connection is accepted. Each join is acknowledged,
/// so that no thread of the probe still runs when the next batch is
/// timed.
struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    joined: Receiver<()>,
    listener: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> Result<Echo, String> {
        let err = |e: std::io::Error| format!("probe listener: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let addr = listener.local_addr().map_err(err)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let (ack, joined) = channel();
        let listener = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut conn) = conn else { continue };
                let handler = std::thread::spawn(move || {
                    let mut buf = vec![0u8; EXCHANGE_BYTES];
                    if conn.read_exact(&mut buf).is_ok() {
                        let _ = conn.write_all(&buf);
                    }
                });
                let _ = handler.join();
                if ack.send(()).is_err() {
                    break;
                }
            }
        });
        Ok(Echo {
            addr,
            stop,
            joined,
            listener: Some(listener),
        })
    }

    fn exchanges(&self) -> Result<(), String> {
        let err = |e: std::io::Error| format!("probe exchange: {e}");
        let sent = vec![3u8; EXCHANGE_BYTES];
        let mut back = vec![0u8; EXCHANGE_BYTES];
        for _ in 0..EXCHANGES {
            let mut conn = TcpStream::connect(self.addr).map_err(err)?;
            conn.write_all(&sent).map_err(err)?;
            conn.read_exact(&mut back).map_err(err)?;
            drop(conn);
            self.joined
                .recv_timeout(std::time::Duration::from_secs(10))
                .map_err(|e| format!("probe handler not joined: {e}"))?;
        }
        Ok(())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so that it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_leg_runs_and_the_listener_stops() {
        let dir = std::env::temp_dir().join(format!("perfbench-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let probe = Probe::new(Some(&dir.join("probe")), true).unwrap();
        for _ in 0..3 {
            let s = probe.slowdown().unwrap();
            assert!(s.is_finite() && s > 0.0, "slowdown {s}");
        }
        assert_eq!(
            std::fs::metadata(dir.join("probe")).unwrap().len(),
            3 * FILE_BLOCKS * BLOCK as u64
        );
        // Dropping the probe joins its listener thread.
        drop(probe);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
