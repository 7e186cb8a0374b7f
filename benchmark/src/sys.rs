//! CPU placement and `poll`: the system calls `std` has no wrapper for.
//!
//! Where the kernel puts the generator's threads relative to the daemon's
//! decides what a run measures. Left to float on this two-core box, a run
//! settles into one of two arrangements whose frame latencies differ by
//! 1.6× and holds it for seconds to minutes (see the README, *Noise*), so
//! the benchmark fixes the arrangement: the daemon gets the first CPU the
//! process may use, the generator the last.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Blocks until one of `fds` has something to read (data, end of file or
/// an error) and returns the positions of those that do; empty when
/// `timeout` passed first. One thread can so wait on every connection at
/// once without waking when nothing has arrived.
pub fn wait_readable(fds: &[RawFd], timeout: Duration) -> io::Result<Vec<usize>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    loop {
        // SAFETY: `set` is a writable array of the length passed.
        let n = unsafe { poll(set.as_mut_ptr(), set.len() as u64, timeout_ms) };
        if n >= 0 {
            return Ok((0..set.len()).filter(|&i| set[i].revents != 0).collect());
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..set.len() * 64)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Confines the calling thread — and every thread or process it starts
/// from now on — to `cpus`. Async-signal-safe: also called between `fork`
/// and `exec`.
pub fn confine_to(cpus: &[usize]) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        *set.get_mut(cpu / 64).ok_or(io::ErrorKind::InvalidInput)? |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Which CPUs the two sides of the benchmark run on.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The daemon under test: all of its threads.
    pub daemon: Vec<usize>,
    /// The load generator: its writer and its reader.
    pub generator: Vec<usize>,
}

impl Placement {
    /// Splits `allowed` (ascending, not empty): the daemon on the first
    /// CPU, the generator on the last. With one CPU they share it.
    pub fn split(allowed: &[usize]) -> Self {
        Self {
            daemon: vec![allowed[0]],
            generator: vec![allowed[allowed.len() - 1]],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_daemon_gets_the_first_cpu_and_the_generator_the_last() {
        let two = Placement::split(&[0, 1]);
        assert_eq!((two.daemon, two.generator), (vec![0], vec![1]));
        let gap = Placement::split(&[2, 5, 7]);
        assert_eq!((gap.daemon, gap.generator), (vec![2], vec![7]));
        let one = Placement::split(&[3]);
        assert_eq!(one.daemon, one.generator);
    }

    #[test]
    fn only_the_socket_with_data_is_reported_readable() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let pair = || {
            let client = TcpStream::connect(addr).expect("connect");
            (client, listener.accept().expect("accept").0)
        };
        let (quiet, quiet_peer) = pair();
        let (busy, mut busy_peer) = pair();
        let fds = [quiet.as_raw_fd(), busy.as_raw_fd()];
        let short = Duration::from_millis(20);
        assert!(wait_readable(&fds, short).expect("poll").is_empty());
        busy_peer.write_all(b"x").expect("write");
        let long = Duration::from_secs(5);
        assert_eq!(wait_readable(&fds, long).expect("poll"), vec![1]);
        // End of file counts: the reader must see it to finish.
        drop(quiet_peer);
        assert_eq!(wait_readable(&fds, long).expect("poll"), vec![0, 1]);
    }

    #[test]
    fn a_thread_confined_to_one_cpu_reports_only_that_cpu() {
        std::thread::spawn(|| {
            let allowed = allowed_cpus().expect("getaffinity");
            assert!(!allowed.is_empty());
            let last = allowed[allowed.len() - 1];
            confine_to(&[last]).expect("setaffinity");
            assert_eq!(allowed_cpus().expect("getaffinity"), vec![last]);
        })
        .join()
        .expect("thread");
    }
}
