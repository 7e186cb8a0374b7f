//! Stream geometry, checked once: `protocol::check_config` holds every
//! bound of a stream's gateway (bins, payload bits, chunk size, ring depth,
//! workers, detection floor, coding fit), `protocol::stream_config` merges
//! a header over the daemon's defaults through it, and the `netscatterd`
//! flags are refused at the parse step by the same check. Nothing here
//! allocates or starts threads to find a bound.

use netscatter_coding::frame::FrameCodec;
use netscatter_coding::CodingScheme;
use netscatter_daemon::cli::{parse_serve_args, usage};
use netscatter_daemon::protocol::{
    check_config, code, stream_config, StreamHeader, MAX_CHUNK_SAMPLES, MAX_PAYLOAD_BITS,
    MAX_RING_SLOTS, MAX_WORKERS,
};
use netscatter_gateway::{GatewayConfig, OverflowPolicy};
use netscatter_phy::params::PhyProfile;

fn geometry(bins: Vec<usize>, bits: usize) -> GatewayConfig {
    GatewayConfig::new(PhyProfile::default(), bins, bits)
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Every bound `check_config` holds, at its edge and one past it; the
/// values the benchmark (4 096-sample chunks, 1 024 slots, 1 worker)
/// and the stress harness (64 slots) run with are inside.
#[test]
fn check_config_bounds_every_stream_knob() {
    let ok = |cfg: &GatewayConfig| check_config(cfg, CodingScheme::None).is_ok();
    let base = geometry(vec![0, 511], 40);
    assert!(ok(&base));
    assert!(
        ok(&geometry(vec![], 8)),
        "bins may come later, from a header"
    );
    let served = GatewayConfig {
        ring_slots: 1024,
        workers: 1,
        ..geometry((0..256).map(|b| 2 * b).collect(), 108)
    };
    assert!(
        ok(&served)
            && ok(&GatewayConfig {
                ring_slots: 64,
                ..base.clone()
            })
    );
    let edges = |set: fn(&mut GatewayConfig, usize), lo: usize, hi: usize| {
        for (value, fits) in [(lo, true), (hi, true), (hi + 1, false), (usize::MAX, false)] {
            let mut cfg = base.clone();
            set(&mut cfg, value);
            assert_eq!(
                ok(&cfg),
                fits,
                "{value}: {:?}",
                check_config(&cfg, CodingScheme::None)
            );
        }
        if lo > 0 {
            let mut cfg = base.clone();
            set(&mut cfg, lo - 1);
            assert!(!ok(&cfg), "{}", lo - 1);
        }
    };
    edges(|c, v| c.payload_symbols = v, 1, MAX_PAYLOAD_BITS);
    edges(|c, v| c.chunk_samples = v, 1, MAX_CHUNK_SAMPLES);
    edges(|c, v| c.ring_slots = v, 1, MAX_RING_SLOTS);
    edges(|c, v| c.workers = v, 0, MAX_WORKERS);
    for floor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let cfg = GatewayConfig {
            detection_floor_fraction: Some(floor),
            ..base.clone()
        };
        let err = check_config(&cfg, CodingScheme::None).unwrap_err();
        assert!(err.contains("detection_floor"), "{err}");
    }
    let err = check_config(&geometry(vec![5, 512], 8), CodingScheme::None).unwrap_err();
    assert_eq!(err, "bin 512 is out of range: bins must be in 0..512");
    let err = check_config(&geometry(vec![0; 513], 8), CodingScheme::None).unwrap_err();
    assert_eq!(err, "513 bins is more than the 512 cyclic shifts there are");
    let err = check_config(&geometry(vec![64, 3, 64], 8), CodingScheme::None).unwrap_err();
    assert_eq!(err, "bin 64 is assigned twice");
    let err = check_config(&base, CodingScheme::Rs).unwrap_err();
    assert_eq!(Err(err), FrameCodec::new(CodingScheme::Rs, 40).map(|_| ()));
}

/// The header wins where it speaks, the defaults fill the rest, live
/// ingest always drops oldest, and a refusal carries its record code.
#[test]
fn stream_config_merges_a_header_over_the_defaults() {
    let defaults = GatewayConfig {
        chunk_samples: 1024,
        detection_floor_fraction: Some(0.5),
        ..geometry(vec![64], 8)
    };
    let (cfg, codec) = stream_config(&StreamHeader::named("bare"), &defaults).unwrap();
    assert!(codec.is_none());
    assert_eq!((cfg.assigned_bins, cfg.payload_symbols), (vec![64], 8));
    assert_eq!(cfg.detection_floor_fraction, Some(0.5));
    assert_eq!(cfg.overflow, OverflowPolicy::DropOldest);

    let mut header = StreamHeader::named("coded");
    header.bins = Some(vec![3, 9]);
    header.payload_bits = Some(108);
    header.detection_floor = Some(0.25);
    header.coding = Some(CodingScheme::Conv);
    header.fault_panic_span = Some(2);
    let (cfg, codec) = stream_config(&header, &defaults).unwrap();
    assert_eq!((cfg.assigned_bins, cfg.payload_symbols), (vec![3, 9], 108));
    assert_eq!(cfg.detection_floor_fraction, Some(0.25));
    assert_eq!((cfg.chunk_samples, cfg.fault_panic_span), (1024, Some(2)));
    assert_eq!(codec.map(|c| c.data_bits()), Some(16));

    let no_bins = GatewayConfig {
        assigned_bins: vec![],
        ..defaults.clone()
    };
    let refusal = stream_config(&StreamHeader::named("x"), &no_bins).unwrap_err();
    assert_eq!(refusal.0, code::NO_BINS);
    header.payload_bits = Some(40);
    let refusal = stream_config(&header, &defaults).unwrap_err();
    assert_eq!(refusal.0, code::BAD_HEADER);
    assert!(refusal.1.contains("coding 'conv'"), "{}", refusal.1);
    header.bins = Some(vec![600]);
    let refusal = stream_config(&header, &defaults).unwrap_err();
    assert_eq!(
        refusal,
        (
            code::BAD_HEADER,
            "bin 600 is out of range: bins must be in 0..512".into()
        )
    );
}

/// Each flag that sizes a per-stream buffer or thread pool is bounded
/// at the parse step, by a refusal that names the bound; nothing is
/// allocated or started to find it.
#[test]
fn buffer_and_thread_flags_are_bounded_at_parse_time() {
    for (flag, bad, bound) in [
        ("--chunk-samples", "1000000000000", MAX_CHUNK_SAMPLES),
        // 2^61 + 1: eight bytes a sample wraps the socket buffer size.
        ("--chunk-samples", "2305843009213693953", MAX_CHUNK_SAMPLES),
        ("--chunk-samples", "1048577", MAX_CHUNK_SAMPLES),
        ("--ring-slots", "1000000000000", MAX_RING_SLOTS),
        ("--ring-slots", "4097", MAX_RING_SLOTS),
        ("--workers", "1025", MAX_WORKERS),
        ("--workers", "1000000000000", MAX_WORKERS),
    ] {
        let err = parse_serve_args(&args(&[flag, bad])).unwrap_err();
        assert_eq!(err.code, 2, "{flag} {bad}");
        assert!(
            err.message.contains(&format!("..={bound}, got {bad}")),
            "{flag} {bad}: {}",
            err.message
        );
    }
    for (flag, good) in [
        ("--chunk-samples", "1048576"),
        ("--ring-slots", "4096"),
        ("--workers", "1024"),
        ("--workers", "0"), // one per core
    ] {
        parse_serve_args(&args(&[flag, good])).unwrap_or_else(|e| panic!("{flag} {good}: {e:?}"));
    }
    // The energy gate is a library setting, not a flag: `inf` silenced
    // every stream and `nan` fired the gate on every window.
    for bad in ["6", "inf", "nan"] {
        let err = parse_serve_args(&args(&["--energy-gate-db", bad])).unwrap_err();
        assert!(
            err.code == 2 && err.message.contains("unknown argument"),
            "{err:?}"
        );
    }
    assert!(!usage().contains("--energy-gate-db"));
}
