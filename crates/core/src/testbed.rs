//! The testbed: hosts + ring + background traffic + monitors, wired.
//!
//! §5.2.1: "We were able to coordinate the activities of the transmitter,
//! receiver and the TAP tool under a centralized control point." That
//! control point is the generic [`ctms_sim::Harness`], on one shard (one
//! ring cannot be partitioned); this type only *describes* the §5
//! prototype as a [`Topology`](crate::Topology) — one ring, the CTMS
//! hosts at its stations, optional campus background traffic — and
//! exposes scenario-aware accessors over the recorded
//! [`Measurements`](crate::Measurements).

use crate::scenario::{HostLoad, Network, Scenario};
use crate::topology::{Bus, Topology};
use ctms_ctmsp::{TrDriver, TrDriverCfg};
use ctms_devices::{
    CtmsSinkCfg, CtmsSourceCfg, CtmsVcaSink, CtmsVcaSource, DiskCfg, DiskDriver, StockAudioSink,
    StockCfg, StockVcaSource,
};
use ctms_measure::{MeasurementSet, Tap};
use ctms_rtpc::{Machine, MachineConfig, MemRegion};
use ctms_sim::{CascadeError, Dur, EdgeLog, History, Pcg32, SimTime};
use ctms_tokenring::{RingCmd, StationId, TokenRing};
use ctms_unixkern::{
    DriverId, Host, KernConfig, Kernel, MeasurePoint, Pid, Port, Program, Sock, SockProto, Step,
};
use ctms_workloads::{
    default_classes, HostTrafficCfg, HostTrafficGen, PhantomCfg, PhantomTraffic, SplLoad,
};

/// Well-known driver ids of the CTMS roles (for stats extraction).
#[derive(Clone, Copy, Debug, Default)]
pub struct Roles {
    /// Transmit host index.
    pub tx_host: usize,
    /// Receive host index.
    pub rx_host: usize,
    /// Token Ring driver on the transmitter.
    pub tr_tx: DriverId,
    /// Token Ring driver on the receiver.
    pub tr_rx: DriverId,
    /// CTMS VCA source (modified path) or stock VCA source.
    pub vca_src: DriverId,
    /// CTMS VCA sink (modified path) or stock audio sink.
    pub vca_sink: DriverId,
    /// Stock-path reader/writer processes (E1 only).
    pub stock_procs: Option<(Pid, Pid)>,
}

/// Builds `topo` on one shard with the history sink attached: a
/// testbed hands samples out ([`Testbed::measurement_set`],
/// [`Testbed::presented`], [`Testbed::purge_starts`]), so it keeps
/// them from t = 0.
fn recording(topo: Topology) -> Bus {
    let mut bus = topo.build();
    bus.attach_history();
    bus
}

/// The assembled single-ring testbed. See module docs.
pub struct Testbed {
    bus: Bus,
    /// Driver-id bookkeeping.
    pub roles: Roles,
    /// Per-stream roles when built by [`Testbed::multi_stream`]; empty on
    /// the single-stream builders (use [`Testbed::roles`]).
    pub streams: Vec<Roles>,
}

impl Testbed {
    /// Builds the §5 CTMS prototype testbed for a scenario.
    ///
    /// Stations: 0 = transmitter, 1 = receiver, 2 = control machine,
    /// 3 = file server, 4.. = phantom campus stations (public network).
    pub fn ctms(sc: &Scenario) -> Testbed {
        let (topo, roles) = Self::ctms_topology(sc);
        Testbed {
            bus: recording(topo),
            roles,
            streams: Vec::new(),
        }
    }

    /// The §5 testbed as a [`Topology`] description plus its driver-id
    /// bookkeeping. One ring cannot be partitioned, so
    /// [`Topology::build_sharded`] builds it as one shard at any
    /// requested shard count — which the shard-parity tests pin.
    pub fn ctms_topology(sc: &Scenario) -> (Topology, Roles) {
        let root = Pcg32::new(sc.seed, 0xC7);
        let mut ring_cfg = sc.calib.ring.clone();
        ring_cfg.priority_enabled = sc.ring_priority;
        let mut ring = TokenRing::new(ring_cfg, root.derive("ring"));
        for _ in 0..sc.station_count() {
            ring.add_station();
        }

        let buffer_region = if sc.io_channel_memory {
            MemRegion::IoChannel
        } else {
            MemRegion::System
        };
        let mut adapter = sc.calib.adapter;
        adapter.buffer_region = buffer_region;
        adapter.purge_interrupt = sc.purge_interrupt;

        let tr_cfg = |station: u32| TrDriverCfg {
            station: StationId(station),
            adapter,
            ctmsp_enabled: true,
            driver_priority: sc.driver_priority,
            precomputed_header: sc.precomputed_header,
            tx_copy_full: sc.tx_copy_full,
            rx_copy_to_mbufs: sc.rx_copy_to_mbufs,
            ctmsp_sink: None,
            ifq_cap: 50,
            header_cost: sc.calib.header_cost,
            precomp_header_cost: sc.calib.precomp_header_cost,
            ctmsp_check_cost: sc.calib.ctmsp_check_cost,
            copy_spl: 5,
            racy_critical_sections: sc.racy_driver,
        };

        let kcfg = KernConfig {
            calib: sc.calib.kern,
            ..KernConfig::default()
        };

        // Transmitter host (station 0).
        let mut ktx = Kernel::new(kcfg, root.derive("kern-tx"));
        let tr_tx = ktx.add_driver(
            Box::new(TrDriver::new(tr_cfg(0))),
            Some(ctms_unixkern::LINE_TR),
        );
        ktx.set_net_if(tr_tx);
        let vca_src = ktx.add_driver(
            Box::new(CtmsVcaSource::new(CtmsSourceCfg {
                period: sc.period,
                pkt_len: sc.pkt_len,
                dst: StationId(1),
                tr_driver: tr_tx,
                handler_code: sc.calib.vca_handler_code,
                copy_from_device: sc.tx_copy_vca_to_mbufs,
                // The paper's own Figure 5-2 accounting (600 µs code +
                // 2000 µs copy) places the VCA data access inside the
                // 600 µs, so its marginal per-byte cost is zero here; the
                // ablation benches raise it. Documented in DESIGN.md.
                pio_per_byte: Dur::ZERO,
                ring_priority: if sc.ring_priority { 4 } else { 0 },
                irq_jitter: Dur::ZERO,
                autostart: !sc.explicit_setup,
                require_setup: sc.explicit_setup,
            })),
            Some(ctms_unixkern::LINE_VCA),
        );
        if sc.explicit_setup {
            // The §5.1 control-plane process establishes the connection
            // and exits; the data path stays in-kernel.
            ktx.add_proc(ctms_ctmsp::setup_program(vca_src));
        }
        Self::add_background(&mut ktx, tr_tx, sc);

        // Receiver host (station 1).
        let mut krx = Kernel::new(kcfg, root.derive("kern-rx"));
        let vca_sink = krx.add_driver(
            Box::new(CtmsVcaSink::new(CtmsSinkCfg {
                copy_to_device: sc.rx_copy_to_device,
                pio_per_byte: Dur::from_ns(800),
                copy_spl: 5,
            })),
            None,
        );
        let mut rx_cfg = tr_cfg(1);
        rx_cfg.ctmsp_sink = Some(vca_sink);
        let tr_rx = krx.add_driver(
            Box::new(TrDriver::new(rx_cfg)),
            Some(ctms_unixkern::LINE_TR),
        );
        krx.set_net_if(tr_rx);
        Self::add_background(&mut krx, tr_rx, sc);

        let mut topo = Topology::new(sc.cascade_limit);
        let r = topo.ring(ring);
        let tx = topo.host(
            r,
            StationId(0),
            Host::new(Machine::new(MachineConfig::default()), ktx),
        );
        topo.host(
            r,
            StationId(1),
            Host::new(Machine::new(MachineConfig::default()), krx),
        );
        if sc.network == Network::Public {
            topo.phantom(
                r,
                PhantomTraffic::new(
                    PhantomCfg::public(vec![StationId(0), StationId(1)]),
                    root.derive("phantom"),
                ),
            );
        }
        if sc.purge_interrupt {
            topo.subscribe_purge(tx, tr_tx);
        }

        (
            topo,
            Roles {
                tx_host: 0,
                rx_host: 1,
                tr_tx,
                tr_rx,
                vca_src,
                vca_sink,
                stock_procs: None,
            },
        )
    }

    /// Builds a testbed carrying `n` independent CTMS streams on one
    /// ring: transmitters at stations `0..n`, receivers at `n..2n`, plus
    /// two idle stations. Answers the title's question quantitatively:
    /// how many such streams does a 4 Mbit ring support?
    pub fn multi_stream(sc: &Scenario, n: usize) -> Testbed {
        assert!(n >= 1, "at least one stream");
        let root = Pcg32::new(sc.seed, 0x35);
        let mut ring_cfg = sc.calib.ring.clone();
        ring_cfg.priority_enabled = sc.ring_priority;
        let mut ring = TokenRing::new(ring_cfg, root.derive("ring"));
        for _ in 0..(2 * n + 2) {
            ring.add_station();
        }
        let mut adapter = sc.calib.adapter;
        adapter.buffer_region = if sc.io_channel_memory {
            MemRegion::IoChannel
        } else {
            MemRegion::System
        };
        let kcfg = KernConfig {
            calib: sc.calib.kern,
            ..KernConfig::default()
        };
        let tr_cfg = |station: u32, sink| TrDriverCfg {
            station: StationId(station),
            adapter,
            ctmsp_enabled: true,
            driver_priority: sc.driver_priority,
            precomputed_header: sc.precomputed_header,
            tx_copy_full: sc.tx_copy_full,
            rx_copy_to_mbufs: sc.rx_copy_to_mbufs,
            ctmsp_sink: sink,
            ifq_cap: 50,
            header_cost: sc.calib.header_cost,
            precomp_header_cost: sc.calib.precomp_header_cost,
            ctmsp_check_cost: sc.calib.ctmsp_check_cost,
            copy_spl: 5,
            racy_critical_sections: sc.racy_driver,
        };

        let mut topo = Topology::new(sc.cascade_limit);
        let r = topo.ring(ring);
        let mut streams = Vec::new();
        for k in 0..n {
            // Transmitter k at station k, streaming to station n + k.
            let mut ktx = Kernel::new(kcfg, root.derive(&format!("tx{k}")));
            let tr_tx = ktx.add_driver(
                Box::new(TrDriver::new(tr_cfg(k as u32, None))),
                Some(ctms_unixkern::LINE_TR),
            );
            ktx.set_net_if(tr_tx);
            let vca_src = ktx.add_driver(
                Box::new(CtmsVcaSource::new(CtmsSourceCfg {
                    period: sc.period,
                    pkt_len: sc.pkt_len,
                    dst: StationId((n + k) as u32),
                    tr_driver: tr_tx,
                    handler_code: sc.calib.vca_handler_code,
                    copy_from_device: false,
                    pio_per_byte: Dur::ZERO,
                    ring_priority: if sc.ring_priority { 4 } else { 0 },
                    irq_jitter: Dur::ZERO,
                    autostart: true,
                    require_setup: false,
                })),
                Some(ctms_unixkern::LINE_VCA),
            );
            topo.host(
                r,
                StationId(k as u32),
                Host::new(Machine::new(MachineConfig::default()), ktx),
            );
            streams.push(Roles {
                tx_host: k,
                rx_host: n + k,
                tr_tx,
                tr_rx: DriverId(0),
                vca_src,
                vca_sink: DriverId(0),
                stock_procs: None,
            });
        }
        for (k, stream) in streams.iter_mut().enumerate() {
            let mut krx = Kernel::new(kcfg, root.derive(&format!("rx{k}")));
            let vca_sink = krx.add_driver(
                Box::new(CtmsVcaSink::new(CtmsSinkCfg {
                    copy_to_device: sc.rx_copy_to_device,
                    pio_per_byte: Dur::from_ns(800),
                    copy_spl: 5,
                })),
                None,
            );
            let tr_rx = krx.add_driver(
                Box::new(TrDriver::new(tr_cfg((n + k) as u32, Some(vca_sink)))),
                Some(ctms_unixkern::LINE_TR),
            );
            krx.set_net_if(tr_rx);
            topo.host(
                r,
                StationId((n + k) as u32),
                Host::new(Machine::new(MachineConfig::default()), krx),
            );
            stream.tr_rx = tr_rx;
            stream.vca_sink = vca_sink;
        }

        let roles = streams[0];
        Testbed {
            bus: recording(topo),
            roles,
            streams,
        }
    }

    /// Sent/received counters for stream `k` of a multi-stream testbed.
    pub fn stream_counters(&self, k: usize) -> (u64, u64) {
        let r = &self.streams[k];
        let sent = self
            .host(r.tx_host)
            .kernel
            .driver_ref::<CtmsVcaSource>(r.vca_src)
            .map(|d| d.stats().pkts_sent)
            .unwrap_or(0);
        let received = self
            .host(r.rx_host)
            .kernel
            .driver_ref::<CtmsVcaSink>(r.vca_sink)
            .map(|d| d.stats().received)
            .unwrap_or(0);
        (sent, received)
    }

    /// Builds the stock-UNIX baseline testbed (experiment E1): user-level
    /// processes move the data through sockets over the unmodified driver.
    pub fn stock(sc: &Scenario, bytes_per_sec: u32, proto: SockProto) -> Testbed {
        let root = Pcg32::new(sc.seed, 0x57);
        let mut ring_cfg = sc.calib.ring.clone();
        ring_cfg.priority_enabled = false;
        let mut ring = TokenRing::new(ring_cfg, root.derive("ring"));
        for _ in 0..sc.station_count() {
            ring.add_station();
        }

        let port = Port(10);
        let dev_cfg = StockCfg::for_rate(bytes_per_sec);
        let chunk = dev_cfg.chunk;
        let kcfg = KernConfig {
            calib: sc.calib.kern,
            ..KernConfig::default()
        };

        // Transmitter: stock VCA read by a user process, sent on a socket.
        let mut ktx = Kernel::new(kcfg, root.derive("kern-tx"));
        let tr_tx = ktx.add_driver(
            Box::new(TrDriver::new(TrDriverCfg::stock(StationId(0)))),
            Some(ctms_unixkern::LINE_TR),
        );
        ktx.set_net_if(tr_tx);
        let vca_src = ktx.add_driver(
            Box::new(StockVcaSource::new(dev_cfg)),
            Some(ctms_unixkern::LINE_VCA),
        );
        ktx.add_sock(Sock::new(port, proto, StationId(1), 16 * 1024));
        let reader = ktx.add_proc(Program::forever(vec![
            Step::ReadDev {
                dev: vca_src,
                bytes: chunk,
            },
            Step::SockSend { port, bytes: chunk },
        ]));
        Self::add_background(&mut ktx, tr_tx, sc);

        // Receiver: socket read by a user process, written to audio.
        let mut krx = Kernel::new(kcfg, root.derive("kern-rx"));
        let audio = krx.add_driver(Box::new(StockAudioSink::new(dev_cfg)), None);
        let tr_rx = krx.add_driver(
            Box::new(TrDriver::new(TrDriverCfg::stock(StationId(1)))),
            Some(ctms_unixkern::LINE_TR),
        );
        krx.set_net_if(tr_rx);
        krx.add_sock(Sock::new(port, proto, StationId(0), 16 * 1024));
        let writer = krx.add_proc(Program::forever(vec![
            Step::SockRecv { port },
            Step::WriteDev {
                dev: audio,
                bytes: chunk,
            },
        ]));
        Self::add_background(&mut krx, tr_rx, sc);

        let mut topo = Topology::new(sc.cascade_limit);
        let r = topo.ring(ring);
        topo.host(
            r,
            StationId(0),
            Host::new(Machine::new(MachineConfig::default()), ktx),
        );
        topo.host(
            r,
            StationId(1),
            Host::new(Machine::new(MachineConfig::default()), krx),
        );
        if sc.network == Network::Public {
            topo.phantom(
                r,
                PhantomTraffic::new(
                    PhantomCfg::public(vec![StationId(0), StationId(1)]),
                    root.derive("phantom"),
                ),
            );
        }

        Testbed {
            bus: recording(topo),
            roles: Roles {
                tx_host: 0,
                rx_host: 1,
                tr_tx,
                tr_rx,
                vca_src,
                vca_sink: audio,
                stock_procs: Some((reader, writer)),
            },
            streams: Vec::new(),
        }
    }

    /// Adds per-host background load per the scenario's host mode.
    fn add_background(kernel: &mut Kernel, net_if: DriverId, sc: &Scenario) {
        // Every AOS host, standalone or not, has kernel protected-section
        // activity (§5.2.2 measured the 440 µs IRQ→handler variation on a
        // host that was merely "loading the Token Ring and the local
        // disk").
        kernel.add_driver(Box::new(SplLoad::new(default_classes())), None);
        match sc.host_load {
            HostLoad::Standalone => {}
            HostLoad::Multiprocessing => {
                // Multiprocessing hosts additionally run long kernel
                // copies (file pages, pipe buffers) holding splimp-level
                // protection — §5.3's "execution of protected code
                // segments throughout the kernel".
                kernel.add_driver(
                    Box::new(SplLoad::new(vec![ctms_workloads::SplClass {
                        rate_per_sec: 3.0,
                        mean: Dur::from_ms(7),
                        sd: Dur::from_ms(4),
                        spl: 5,
                    }])),
                    None,
                );
                kernel.add_driver(
                    Box::new(HostTrafficGen::new(HostTrafficCfg::case_b(
                        net_if,
                        StationId(2),
                        StationId(3),
                    ))),
                    None,
                );
                kernel.add_driver(
                    Box::new(DiskDriver::new(DiskCfg {
                        rate_per_sec: 8.0,
                        ..DiskCfg::default()
                    })),
                    Some(ctms_unixkern::LINE_DISK),
                );
                // One background process, lightly loaded.
                kernel.add_proc(Program::forever(vec![
                    Step::Compute(Dur::from_ms(3)),
                    Step::Sleep(Dur::from_ms(60)),
                ]));
            }
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.bus.now()
    }

    /// The ring medium.
    pub fn ring(&self) -> &TokenRing {
        self.bus.ring(0)
    }

    /// Host `i` (index i sits at ring station i).
    pub fn host(&self, i: usize) -> &Host {
        self.bus.host(i)
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.bus.host_count()
    }

    /// All hosts, in station order.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        (0..self.bus.host_count()).map(|i| self.bus.host(i))
    }

    /// The TAP monitor (always attached; §5 used it for every run).
    pub fn tap(&self) -> &Tap {
        self.bus.tap(0)
    }

    /// The underlying event bus (rings, hosts, measurements).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable event bus, for telemetry collection and phase snapshots.
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Consumes the testbed, yielding its bus — the shape
    /// [`crate::checkpoint::fork`] builders produce.
    pub fn into_bus(self) -> Bus {
        self.bus
    }

    /// Collects and serializes the whole testbed's metric tree as
    /// canonical JSON (byte-identical across runs of the same seed).
    pub fn telemetry_json(&mut self) -> String {
        self.bus.telemetry_json()
    }

    /// Injects a ring disturbance (station insertion or soft error) at the
    /// current instant, with its fallout routed like any other ring event.
    pub fn disturb(&mut self, d: ctms_tokenring::Disturb) {
        if let Err(e) = self.bus.inject_ring(0, RingCmd::Disturb(d)) {
            panic!("{e}");
        }
    }

    /// Runs the testbed until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.bus.run_until(horizon);
    }

    /// Runs until `horizon`, reporting cascade overflow as a typed error
    /// (which node, which instant) instead of panicking.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), CascadeError> {
        self.bus.try_run_until(horizon)
    }

    /// The ground-truth measurement set (points 1–3 from the transmitter,
    /// point 4 from the receiver), borrowed from the truth logs.
    pub fn measurement_set(&self) -> MeasurementSet<'_> {
        self.bus
            .measurement_set(self.roles.tx_host, self.roles.rx_host)
    }

    /// A specific ground-truth log.
    pub fn truth_log(&self, host: usize, point: MeasurePoint) -> Option<&EdgeLog> {
        self.bus.measurements().truth_log(host, point)
    }

    /// Losses recorded across hosts and ring queues since t = 0.
    pub fn drops(&self) -> u64 {
        self.bus.measurements().drops()
    }

    /// CTMS payload presentations at the sink: `(time, tag, bytes)`.
    /// Like every sample stream here, its `len` counts from t = 0 and
    /// its samples run from the build or the last restore.
    pub fn presented(&self) -> &History<(SimTime, u64, u32)> {
        self.bus.measurements().presented()
    }

    /// Socket deliveries (stock path) since t = 0.
    pub fn sock_delivered(&self) -> u64 {
        self.bus.measurements().sock_delivered()
    }

    /// Purge-sequence start times.
    pub fn purge_starts(&self) -> &History<SimTime> {
        self.bus.measurements().purge_starts()
    }

    /// Frames destroyed by purges since t = 0.
    pub fn lost_to_purge(&self) -> u64 {
        self.bus.measurements().lost_to_purge()
    }

    /// Receiver-side playout buffer requirement in bytes for a continuous
    /// stream of `rate` bytes/s: the delay spread of the transfer times
    /// converted to buffered data, plus one packet (§6's "buffer space
    /// needed for 150KBytes/sec CTMSP data transfer is under 25KBytes").
    pub fn buffer_requirement_bytes(&self, rate: f64, pkt_len: u32) -> f64 {
        let set = self.measurement_set();
        let h7 = set.samples_us(ctms_measure::HistId::H7);
        if h7.is_empty() {
            return f64::from(pkt_len);
        }
        let min = h7.iter().copied().fold(f64::INFINITY, f64::min);
        let max = h7.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (max - min) * 1e-6 * rate + f64::from(pkt_len)
    }
}
