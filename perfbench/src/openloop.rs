//! Open-loop ingest: batches sent on a fixed schedule over one pipelined
//! connection, each timed from the moment it was *due*, not from the moment
//! the generator managed to send it. A slow server therefore cannot hide its
//! queueing delay behind a slowed-down generator, and the generator's own
//! lateness is reported beside the latency.

use hermes_server::protocol::{
    read_handshake, read_response, write_handshake, write_request, Request, Response,
};
use hermes_trajectory::Trajectory;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One rung of the offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered batches per second.
    pub rate: f64,
    /// How long the rung lasts, seconds.
    pub secs: f64,
}

/// Due offsets (ns from the feed start) and rung index of every batch.
pub fn schedule(rungs: &[Rung]) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    let mut rung_start = 0.0f64;
    for (r, rung) in rungs.iter().enumerate() {
        let n = (rung.rate * rung.secs).round() as usize;
        for i in 0..n {
            let due = rung_start + i as f64 / rung.rate;
            out.push(((due * 1e9).round() as u64, r));
        }
        rung_start += rung.secs;
    }
    out
}

/// What happened to every batch, ns since the feed start.
#[derive(Debug, Clone, Default)]
pub struct FeedLog {
    /// When each batch was due.
    pub due_ns: Vec<u64>,
    /// When it was actually written.
    pub sent_ns: Vec<u64>,
    /// When its acknowledgement was read.
    pub done_ns: Vec<u64>,
    /// Whether the server acknowledged it as applied.
    pub ok: Vec<bool>,
}

impl FeedLog {
    /// Latency of every batch from its due time, ms.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.done_ns)
            .map(|(due, done)| done.saturating_sub(*due) as f64 / 1e6)
            .collect()
    }

    /// How late the generator sent every batch, ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.sent_ns)
            .map(|(due, sent)| sent.saturating_sub(*due) as f64 / 1e6)
            .collect()
    }
}

/// Drives the feed: writes batch `i` once `start + due[i]` has passed and
/// reads acknowledgements as they arrive, on one thread. `on_ack(i, ok,
/// round_trip_ms)` runs after each acknowledgement is read (the traced run
/// replays the commit there).
pub fn run_feed(
    addr: &str,
    batches: &[Vec<Trajectory>],
    due_ns: &[u64],
    start: Instant,
    mut on_ack: impl FnMut(usize, bool, f64),
) -> io::Result<FeedLog> {
    let n = due_ns.len().min(batches.len());
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    read_handshake(&mut reader)?;
    write_handshake(&mut writer)?;
    writer.flush()?;

    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut log = FeedLog {
        due_ns: due_ns[..n].to_vec(),
        sent_ns: vec![0; n],
        done_ns: vec![0; n],
        ok: vec![false; n],
    };
    let (mut next, mut done) = (0usize, 0usize);
    while done < n {
        let now = now_ns();
        if next < n && now >= due_ns[next] {
            write_request(
                &mut writer,
                &Request::Ingest {
                    dataset: "data".into(),
                    trajectories: batches[next].clone(),
                },
            )?;
            writer.flush()?;
            log.sent_ns[next] = now_ns();
            next += 1;
            continue;
        }
        if reader.buffer().is_empty() {
            // Wait for an acknowledgement, but no longer than the next due
            // time.
            let wait = if next < n {
                Duration::from_nanos(due_ns[next].saturating_sub(now))
            } else {
                Duration::from_secs(30)
            };
            if !wait_readable(&stream, wait)? {
                if next >= n {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no acknowledgement within 30 s",
                    ));
                }
                continue;
            }
        }
        let (response, _) = read_response(&mut reader)?;
        log.done_ns[done] = now_ns();
        let ok = matches!(response, Response::Command(ref s) if s.affected == batches[done].len() as u64);
        log.ok[done] = ok;
        on_ack(
            done,
            ok,
            (log.done_ns[done] - log.sent_ns[done]) as f64 / 1e6,
        );
        done += 1;
    }
    Ok(log)
}

/// Blocks until `stream` is readable or `timeout` passes; true when
/// readable. `ppoll(2)` rather than a socket read timeout: socket timeouts
/// are rounded to scheduler ticks (several ms), far coarser than the
/// schedule.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;

    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec and no signal mask, all
    // alive for the duration of the call.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if ready < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(ready > 0)
}

/// Per-rung verdict of the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct RungResult {
    /// Offered rate, batches/s.
    pub rate: f64,
    /// Tail latency from due time, ms.
    pub tail_ms: f64,
    /// True when the rung's tail meets the limit and the backlog did not
    /// grow: its last batch completed within the limit of its due time.
    pub sustained: bool,
}

/// Judges every rung against `limit_ms`.
pub fn judge(log: &FeedLog, rungs_of: &[usize], rungs: &[Rung], limit_ms: f64) -> Vec<RungResult> {
    let lat = log.latency_ms();
    rungs
        .iter()
        .enumerate()
        .map(|(r, rung)| {
            let mine: Vec<f64> = lat
                .iter()
                .zip(rungs_of)
                .filter(|(_, &k)| k == r)
                .map(|(l, _)| *l)
                .collect();
            let tail_ms = crate::stats::tail(&mine)
                .map(|t| t.value)
                .unwrap_or(f64::INFINITY);
            let last = mine.last().copied().unwrap_or(f64::INFINITY);
            RungResult {
                rate: rung.rate,
                tail_ms,
                sustained: tail_ms <= limit_ms && last <= limit_ms,
            }
        })
        .collect()
}

/// The highest offered rate whose rung (and every rung below it) was
/// sustained; 0 when even the first was not.
pub fn rate_at_slo(results: &[RungResult]) -> f64 {
    results
        .iter()
        .take_while(|r| r.sustained)
        .map(|r| r.rate)
        .last()
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_batches_by_rung_rate() {
        let s = schedule(&[
            Rung {
                rate: 10.0,
                secs: 1.0,
            },
            Rung {
                rate: 20.0,
                secs: 0.5,
            },
        ]);
        assert_eq!(s.len(), 20);
        assert_eq!(s[0], (0, 0));
        assert_eq!(s[1], (100_000_000, 0));
        assert_eq!(s[10], (1_000_000_000, 1));
        assert_eq!(s[11], (1_050_000_000, 1));
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lateness_is_reported() {
        // Batch 0 sent on time, answered in 2 ms. Batch 1 due at 10 ms but
        // the generator only got to it at 15 ms; answered at 17 ms. Its
        // latency is 7 ms (the 5 ms the generator lost counts), its lateness
        // 5 ms.
        let log = FeedLog {
            due_ns: vec![0, 10_000_000],
            sent_ns: vec![0, 15_000_000],
            done_ns: vec![2_000_000, 17_000_000],
            ok: vec![true, true],
        };
        assert_eq!(log.latency_ms(), vec![2.0, 7.0]);
        assert_eq!(log.lateness_ms(), vec![0.0, 5.0]);
    }

    #[test]
    fn ladder_stops_at_the_first_unsustained_rung() {
        let rungs = [
            Rung {
                rate: 10.0,
                secs: 1.0,
            },
            Rung {
                rate: 20.0,
                secs: 1.0,
            },
            Rung {
                rate: 40.0,
                secs: 1.0,
            },
        ];
        let sched = schedule(&rungs);
        let rungs_of: Vec<usize> = sched.iter().map(|s| s.1).collect();
        let due: Vec<u64> = sched.iter().map(|s| s.0).collect();
        // Rungs 0 and 1 answer in 1 ms; rung 2 builds a backlog growing by
        // 2 ms per batch.
        let done: Vec<u64> = due
            .iter()
            .zip(&rungs_of)
            .enumerate()
            .map(|(i, (d, r))| {
                d + if *r < 2 {
                    1_000_000
                } else {
                    2_000_000 * (i as u64 - 19)
                }
            })
            .collect();
        let log = FeedLog {
            sent_ns: due.clone(),
            due_ns: due,
            done_ns: done,
            ok: vec![true; rungs_of.len()],
        };
        let results = judge(&log, &rungs_of, &rungs, 20.0);
        assert!(results[0].sustained && results[1].sustained);
        assert!(!results[2].sustained);
        assert_eq!(rate_at_slo(&results), 20.0);
    }
}
