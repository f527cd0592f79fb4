//! Randomized tests on cross-crate invariants.
//!
//! These used to be `proptest` properties; they are now driven by the
//! in-crate deterministic [`Pcg32`] so the tier-1 suite needs nothing
//! outside the workspace (the build must succeed offline). Each test
//! draws its inputs from a fixed-seed generator and loops over many
//! cases, so the invariant coverage is equivalent and the failures are
//! reproducible: a failing case prints the trial index and the drawn
//! inputs.

use ctms_sim::{drain_component, Component, Dur, EdgeLog, Pcg32, SimTime};
use ctms_stats::Histogram;
use ctms_tokenring::{Frame, FrameKind, Proto, RingCmd, RingConfig, RingOut, StationId, TokenRing};
use ctms_unixkern::{AllocResult, MbufChain, MbufPool, SockMeta};

/// Number of randomized trials per invariant. Cheap invariants loop the
/// full count; simulation-heavy ones divide it down at the call site.
const TRIALS: usize = 256;

/// Socket metadata encoding round-trips for every port/kind/seq.
#[test]
fn sock_meta_roundtrip() {
    let mut rng = Pcg32::new(1, 101);
    for trial in 0..TRIALS {
        let port = rng.next_u32() as u16;
        let kind = match rng.below(3) {
            0 => ctms_unixkern::MetaKind::UdpData,
            1 => ctms_unixkern::MetaKind::TcpData,
            _ => ctms_unixkern::MetaKind::TcpAck,
        };
        let seq = rng.next_u32();
        let m = SockMeta {
            port: ctms_unixkern::Port(port),
            kind,
            seq,
        };
        assert_eq!(
            SockMeta::decode(m.encode()),
            Some(m),
            "trial {trial}: port={port} seq={seq}"
        );
    }
}

/// CTMSP header encoding round-trips.
#[test]
fn ctmsp_header_roundtrip() {
    let mut rng = Pcg32::new(2, 102);
    for trial in 0..TRIALS {
        let dev = rng.next_u32() as u8;
        let conn = rng.next_u32() as u16;
        let num = rng.next_u32();
        let h = ctms_ctmsp::encode_header(dev, conn, num);
        assert_eq!(
            ctms_ctmsp::decode_header(h),
            (dev, conn, num),
            "trial {trial}"
        );
    }
}

/// AC-byte field packing round-trips for all legal values.
#[test]
fn ac_byte_roundtrip() {
    // The legal space is tiny (8 × 2 × 8): cover it exhaustively.
    for p in 0u8..8 {
        for t in [false, true] {
            for r in 0u8..8 {
                let ac = ctms_tokenring::ac_byte(p, t, r);
                assert_eq!(ctms_tokenring::ac_fields(ac), (p, t, r));
            }
        }
    }
}

/// The mbuf pool conserves buffers under arbitrary alloc/free
/// interleavings: in_use returns to zero and never exceeds capacity.
#[test]
fn mbuf_pool_conserves() {
    let mut rng = Pcg32::new(4, 104);
    for trial in 0..TRIALS / 4 {
        let n_ops = 1 + rng.index(199);
        let mut pool = MbufPool::new(256);
        let mut live: Vec<MbufChain> = Vec::new();
        for _ in 0..n_ops {
            assert!(pool.in_use() <= 256, "trial {trial}");
            if rng.chance(0.5) {
                let len = rng.range_u64(1, 3999) as u32;
                if let Some(chain) = pool.alloc_nowait(len) {
                    live.push(chain);
                }
            } else if let Some(chain) = live.pop() {
                let ready = pool.free(chain);
                assert!(ready.is_empty(), "trial {trial}: no waiters were queued");
            }
        }
        for chain in live.drain(..) {
            let _ = pool.free(chain);
        }
        assert_eq!(pool.in_use(), 0, "trial {trial}");
    }
}

/// Process-level waiters are satisfied in FIFO order.
#[test]
fn mbuf_waiters_fifo() {
    let mut rng = Pcg32::new(5, 105);
    for trial in 0..TRIALS / 4 {
        let sizes: Vec<u32> = (0..2 + rng.index(8))
            .map(|_| rng.range_u64(1, 1999) as u32)
            .collect();
        let mut pool = MbufPool::new(64);
        let hog = pool.alloc_nowait(64 * 112).expect("whole pool");
        let mut tickets = Vec::new();
        for s in &sizes {
            match pool.alloc_wait(*s) {
                AllocResult::Wait(t) => tickets.push(t),
                AllocResult::Ok(_) => panic!("trial {trial}: pool is exhausted"),
            }
        }
        let ready = pool.free(hog);
        let got: Vec<u64> = ready.iter().map(|(t, _)| *t).collect();
        // Whatever prefix was satisfiable must preserve ticket order.
        assert_eq!(
            &got[..],
            &tickets[..got.len()],
            "trial {trial}: sizes {sizes:?}"
        );
        for (_, chain) in ready {
            let _ = pool.free(chain);
        }
    }
}

/// The token ring never loses or duplicates frames on a quiet ring:
/// every submitted unicast frame to an attached station is delivered
/// exactly once and stripped exactly once, in per-station FIFO order.
#[test]
fn ring_conservation() {
    let mut rng = Pcg32::new(6, 106);
    for trial in 0..TRIALS / 8 {
        let seed = rng.next_u64();
        let frames: Vec<(u32, u32, u32)> = (0..1 + rng.index(39))
            .map(|_| {
                (
                    rng.below(6) as u32,
                    rng.below(6) as u32,
                    rng.range_u64(64, 1999) as u32,
                )
            })
            .collect();
        let cfg = RingConfig {
            mac_rate_per_sec: 0.0,
            station_queue_cap: 1000,
            ..Default::default()
        };
        let mut ring = TokenRing::new(cfg, Pcg32::new(seed, 1));
        for _ in 0..6 {
            ring.add_station();
        }
        let mut sink = Vec::new();
        let mut submitted = Vec::new();
        for (k, (src, dst, len)) in frames.iter().enumerate() {
            if src == dst {
                continue;
            }
            let id = ring.alloc_frame_id();
            submitted.push(k as u64 + 1);
            ring.handle(
                SimTime::from_us(k as u64 * 100),
                RingCmd::Submit(Frame {
                    id,
                    src: StationId(*src),
                    dst: Some(StationId(*dst)),
                    kind: FrameKind::Llc(Proto::Ip),
                    info_len: *len,
                    priority: 0,
                    tag: k as u64 + 1,
                }),
                &mut sink,
            );
        }
        let evs = drain_component(&mut ring, SimTime::from_secs(600));
        let delivered: Vec<u64> = evs
            .iter()
            .filter_map(|(_, e)| match e {
                RingOut::Delivered { frame, .. } => Some(frame.tag),
                _ => None,
            })
            .collect();
        let stripped = evs
            .iter()
            .filter(|(_, e)| matches!(e, RingOut::Stripped { .. }))
            .count();
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        let mut expected = submitted.clone();
        expected.sort_unstable();
        assert_eq!(
            sorted, expected,
            "trial {trial}: each frame delivered exactly once"
        );
        assert_eq!(stripped, submitted.len(), "trial {trial}");
        // Per-source FIFO: tags from one source arrive in submission order.
        for s in 0..6u32 {
            let per: Vec<u64> = evs
                .iter()
                .filter_map(|(_, e)| match e {
                    RingOut::Delivered { frame, .. } if frame.src == StationId(s) => {
                        Some(frame.tag)
                    }
                    _ => None,
                })
                .collect();
            let mut sorted = per.clone();
            sorted.sort_unstable();
            assert_eq!(per, sorted, "trial {trial}: per-station order preserved");
        }
    }
}

/// The ring medium never carries two frames at once: observation
/// instants are separated by at least the shorter frame's wire time.
#[test]
fn ring_serializes_medium() {
    let mut rng = Pcg32::new(7, 107);
    for trial in 0..TRIALS / 16 {
        let seed = rng.next_u64();
        let cfg = RingConfig {
            mac_rate_per_sec: 200.0,
            ..Default::default()
        };
        let mut ring = TokenRing::new(cfg, Pcg32::new(seed, 2));
        for _ in 0..10 {
            ring.add_station();
        }
        let evs = drain_component(&mut ring, SimTime::from_secs(5));
        let obs: Vec<SimTime> = evs
            .iter()
            .filter_map(|(t, e)| matches!(e, RingOut::Observed(_)).then_some(*t))
            .collect();
        // MAC frames are 25 bytes = 50 µs; completions must be ≥ one
        // frame time + token apart.
        for w in obs.windows(2) {
            assert!(
                w[1].since(w[0]) >= Dur::from_us(50),
                "trial {trial} (ring seed {seed})"
            );
        }
    }
}

/// PC/AT reconstruction never errs by more than the service loop plus
/// one clock quantum, for any edge spacing that respects the loop.
#[test]
fn pcat_error_bound() {
    let mut rng = Pcg32::new(8, 108);
    for trial in 0..TRIALS / 4 {
        let gaps: Vec<u64> = (0..1 + rng.index(49))
            .map(|_| rng.range_u64(100, 99_999))
            .collect();
        let mut log = EdgeLog::new("p");
        let mut t = SimTime::ZERO;
        for (k, g) in gaps.iter().enumerate() {
            t += Dur::from_us(*g);
            log.record(t, k as u64);
        }
        let mut tool = ctms_measure::PcAt::new(ctms_measure::PcAtCfg::default(), Pcg32::new(7, 7));
        let cap = tool.observe(&[&log], t + Dur::from_ms(1));
        let rec = cap.reconstruct();
        assert_eq!(rec[0].len(), log.len(), "trial {trial}");
        for (orig, got) in log.edges().zip(rec[0].edges()) {
            let err = got.at.as_ns().abs_diff(orig.at.as_ns());
            assert!(err <= 62_000, "trial {trial}: error {err} ns");
        }
    }
}

/// Histogram counts always sum to the number of binned samples and
/// exact statistics match the raw data.
#[test]
fn histogram_totals() {
    let mut rng = Pcg32::new(9, 109);
    for trial in 0..TRIALS / 2 {
        let xs: Vec<f64> = (0..1 + rng.index(499)).map(|_| rng.f64() * 1e6).collect();
        let h = Histogram::of(&xs, 0.0, 250.0);
        let binned: u64 = h.counts().iter().sum();
        assert_eq!(binned + h.underflow(), xs.len() as u64, "trial {trial}");
        let s = h.summary();
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((s.max - max).abs() < 1e-9, "trial {trial}");
    }
}

/// Deterministic RNG streams: same seed and label give the same
/// sequence; sibling labels differ.
#[test]
fn rng_streams() {
    let mut rng = Pcg32::new(10, 110);
    for trial in 0..TRIALS {
        let seed = rng.next_u64();
        let root = Pcg32::new(seed, 1);
        let mut a1 = root.derive("x");
        let mut a2 = root.derive("x");
        let mut b = root.derive("y");
        let s1: Vec<u32> = (0..16).map(|_| a1.next_u32()).collect();
        let s2: Vec<u32> = (0..16).map(|_| a2.next_u32()).collect();
        let s3: Vec<u32> = (0..16).map(|_| b.next_u32()).collect();
        assert_eq!(s1, s2, "trial {trial} (seed {seed})");
        assert_ne!(s1, s3, "trial {trial} (seed {seed})");
    }
}

/// CPU work conservation: at full speed, every pushed job completes,
/// total busy time equals the sum of job costs, and completions
/// never precede the work they account for.
#[test]
fn cpu_conserves_work() {
    use ctms_rtpc::{Cpu, CpuCmd, CpuConfig, CpuOut, ExecLevel, Job};
    let mut rng = Pcg32::new(11, 111);
    for trial in 0..TRIALS / 8 {
        let jobs: Vec<(u64, u8)> = (0..1 + rng.index(59))
            .map(|_| (rng.range_u64(1, 4999), rng.below(8) as u8))
            .collect();
        let mut cpu: Cpu<u64> = Cpu::new(CpuConfig::default());
        let mut sink = Vec::new();
        let mut total = 0u64;
        for (k, (cost_us, lvl)) in jobs.iter().enumerate() {
            total += cost_us * 1_000;
            let level = match lvl {
                0 => ExecLevel::User,
                l => ExecLevel::KernelSpl(*l),
            };
            cpu.handle(
                SimTime::from_us(k as u64),
                CpuCmd::Push(Job {
                    tag: k as u64,
                    cost: Dur::from_us(*cost_us),
                    level,
                }),
                &mut sink,
            );
        }
        let evs = drain_component(&mut cpu, SimTime::from_secs(3600));
        let done: Vec<u64> = sink
            .iter()
            .chain(evs.iter().map(|(_, e)| e))
            .filter_map(|e| match e {
                CpuOut::JobDone { tag } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(done.len(), jobs.len(), "trial {trial}: every job completes");
        let mut sorted = done;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..jobs.len() as u64).collect::<Vec<_>>());
        assert_eq!(
            cpu.stats().busy_work_ns,
            total,
            "trial {trial}: work conserved"
        );
        assert!(cpu.is_idle(), "trial {trial}");
        // The last completion happens no earlier than the critical path
        // lower bound (total work / full speed from t=0).
        if let Some((t_last, _)) = evs.last() {
            assert!(
                t_last.as_ns() >= total,
                "trial {trial}: {t_last} vs {total}"
            );
        }
    }
}

/// spl semantics: an interrupt line never dispatches while work at or
/// above its level runs — handler-entry events only occur when the
/// preempted level was strictly lower.
#[test]
fn irq_never_preempts_equal_or_higher_spl() {
    use ctms_rtpc::{Cpu, CpuCmd, CpuConfig, CpuOut, ExecLevel, Job};
    for spl in 1u8..8 {
        let mut cpu: Cpu<u64> = Cpu::new(CpuConfig::default());
        let mut sink = Vec::new();
        cpu.handle(
            SimTime::ZERO,
            CpuCmd::Push(Job {
                tag: 1,
                cost: Dur::from_ms(1),
                level: ExecLevel::KernelSpl(spl),
            }),
            &mut sink,
        );
        // VCA line 2 sits at level 6 in the default config.
        cpu.handle(
            SimTime::from_us(10),
            CpuCmd::RaiseIrq { line: 2 },
            &mut sink,
        );
        let evs = drain_component(&mut cpu, SimTime::from_secs(1));
        let entry = evs
            .iter()
            .find_map(|(t, e)| matches!(e, CpuOut::IrqEntered { line: 2 }).then_some(*t))
            .expect("dispatched eventually");
        if spl >= 6 {
            // Blocked until the section ends (1 ms) + 25 µs dispatch.
            assert_eq!(entry, SimTime::from_us(1_025), "spl {spl}");
        } else {
            // Preempts immediately: 10 µs raise + 25 µs dispatch.
            assert_eq!(entry, SimTime::from_us(35), "spl {spl}");
        }
    }
}
